"""A run is decided by its argv, its config file and its seed, never by
the process environment: the limits are constants, so the tables print
the same under any shell.  This check reads the source instead of
running it: no module may read an environment variable."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "ipea_sim"

# os.environ and os.getenv, their bytes forms, under any alias or import.
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> set[str]:
    """The names through which ``source`` reads the environment."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found & ENVIRONMENT_NAMES


def test_source_reads_no_environment():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {path.name: environment_reads(path.read_text(encoding="utf-8")) for path in paths}
    assert not any(found.values()), {name: names for name, names in found.items() if names}


@pytest.mark.parametrize(
    "source, names",
    [
        ("import os\ncap = int(os.environ.get('CAP', '20'))\n", {"environ"}),
        ("import os as o\ncap = o.getenv('CAP')\n", {"getenv"}),
        ("from os import environ as env\ncap = env['CAP']\n", {"environ"}),
        ("from os import getenvb\n", {"getenvb"}),
        ("import os\npath = os.path.join('a', 'b')\nenvironment = {}\n", set()),
    ],
    ids=["attribute", "alias", "from-import", "bytes-form", "no-read"],
)
def test_the_check_finds_environment_reads(source, names):
    assert environment_reads(source) == names
