"""Count the code lines of the ``repro`` package.

A code line is a source line that holds a token other than a comment or a
line break, and is not part of a module, class or function docstring.  Blank
lines, comment lines and docstrings are dropped; every other line of every
``.py`` file under the package counts once.  Simplification changes report
these counts before and after; run it from the root of a checkout, whose
``src/repro`` it counts::

    python tools/code_lines.py

It prints one ``<package> <code lines>`` row per top-level entry of the
package (``repro`` for its own modules, ``repro.<name>`` for each subpackage)
and then the total alone on the last line.
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
    counts: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = "repro" if len(parts) == 1 else f"repro.{parts[0]}"
        counts[package] = counts.get(package, 0) + code_lines(path)
    width = max(map(len, counts))
    for package in sorted(counts):
        print(f"{package:<{width}} {counts[package]:>5}")
    print(sum(counts.values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
