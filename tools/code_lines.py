"""Count the code lines of the ``repro`` package.

A code line is a source line that holds a token other than a comment or a
line break, and is not part of a module, class or function docstring.  Blank
lines, comment lines and docstrings are dropped; every other line of every
``.py`` file under the package counts once.  Simplification changes report
this total before and after; run it from the root of a checkout, whose
``src/repro`` it counts::

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    root = Path("src/repro")
    if not root.is_dir():
        raise SystemExit(f"error: no {root} here; run from the root of a checkout")
    print(sum(code_lines(path) for path in sorted(root.rglob("*.py"))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
