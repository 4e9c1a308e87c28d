"""The package must run on the NumPy floor that pyproject.toml declares
(numpy>=1.24), but the suite runs on whatever NumPy is installed, so a
call that only NumPy 2.x has would pass every other test.  This check
reads the source instead: no module may use a name NumPy 2.x added."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "ipea_sim"

# Functions and modules that NumPy 1.24-1.26 lacks.  np.bool was removed in
# 1.24 and came back in 2.0; np.dtypes and np.exceptions arrived in 1.25.
_TOP = (
    "acos", "acosh", "asin", "asinh", "atan", "atanh", "atan2", "astype", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift", "bool", "concat", "cumulative_prod",
    "cumulative_sum", "dtypes", "exceptions", "isdtype", "long", "matrix_transpose", "matvec",
    "permute_dims", "pow", "strings", "trapezoid", "ulong", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat",
)
_LINALG = (
    "cross", "diagonal", "matmul", "matrix_norm", "matrix_transpose", "outer", "svdvals",
    "tensordot", "trace", "vecdot", "vector_norm",
)
NUMPY2_ONLY = {f"numpy.{name}" for name in _TOP} | {f"numpy.linalg.{name}" for name in _LINALG}
# ndarray attributes that NumPy 2.x added; ``astype`` the method is older
NUMPY2_ONLY_ATTRIBUTES = {"mT", "to_device"}


def _dotted(node, aliases: dict) -> str | None:
    """``np.linalg.vecdot`` as "numpy.linalg.vecdot", if it names into numpy."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return ".".join([aliases[node.id], *reversed(parts)])
    return None


def numpy2_names(source: str) -> set[str]:
    """The NumPy-2.x-only names that ``source`` uses, as dotted numpy paths
    (an array attribute as ".mT")."""
    tree = ast.parse(source)
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    aliases[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                found.add(f"{node.module}.{alias.name}")
    found &= NUMPY2_ONLY
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in NUMPY2_ONLY_ATTRIBUTES:
                found.add(f".{node.attr}")
            if _dotted(node, aliases) in NUMPY2_ONLY:
                found.add(_dotted(node, aliases))
    return found


def test_source_uses_no_numpy2_only_name():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {path.name: numpy2_names(path.read_text(encoding="utf-8")) for path in paths}
    assert not any(found.values()), {name: names for name, names in found.items() if names}


@pytest.mark.parametrize(
    "source, names",
    [
        ("import numpy as np\ny = x.mT @ np.concat([x]) + np.linalg.vecdot(x, x)\n",
         {".mT", "numpy.concat", "numpy.linalg.vecdot"}),
        ("import numpy\nnumpy.cumulative_sum(x)\nnumpy.unstack(x)\nnumpy.matvec(a, v)\n",
         {"numpy.cumulative_sum", "numpy.unstack", "numpy.matvec"}),
        ("import numpy.linalg as la\nla.matrix_transpose(x)\n", {"numpy.linalg.matrix_transpose"}),
        ("from numpy import astype as cast, isdtype\nfrom numpy.linalg import norm\n",
         {"numpy.astype", "numpy.isdtype"}),
        ("import numpy as np\nnp.permute_dims(np.unique_values(x), (0,))\nbool(x)\n",
         {"numpy.permute_dims", "numpy.unique_values"}),
        ("import numpy as np\ny = x.astype(np.uint32).T\nnp.linalg.norm(y)\nnp.concatenate([y])\n",
         set()),
    ],
    ids=["array-attribute", "module-import", "linalg-alias", "from-import", "nested", "numpy-1"],
)
def test_the_check_finds_numpy2_only_names(source, names):
    assert numpy2_names(source) == names
