"""Count the lines of each module of ``src/ipea_sim``, by kind.

Usage: ``python3 scripts/count_lines.py [FILE ...]`` (default: every
``src/ipea_sim/*.py``).  Prints, per module and in total, its lines as
``wc -l`` counts them and their split into code, docstring, comment and
blank lines, which add up to the total:

* a docstring is the first statement of a module, class or function when
  it is a string, every line it spans;
* a comment line holds only a ``#`` comment (a comment after code is code);
* a blank line holds only white space, outside a docstring;
* every other line is code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ipea_sim"
KINDS = ("total", "code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The line counts of one Python file, keyed by ``KINDS``."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in paths:
        counts = count(path)
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS))
    print(f"{'total':<16}" + "".join(f"{totals[kind]:>11,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
