"""Count the physical and code lines of each module in src/limitlearn.

A code line holds a token other than a comment, a newline, an indent, a
dedent or the end marker, and is not part of a module, class or function
docstring. Run from anywhere, with the standard library only:

    python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "limitlearn"
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main() -> None:
    total_physical = total_code = 0
    print(f"{'module':<16} {'physical':>8} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        physical, code = count(path.read_text())
        total_physical += physical
        total_code += code
        print(f"{path.name:<16} {physical:>8} {code:>6}")
    print(f"{'total':<16} {total_physical:>8} {total_code:>6}")


if __name__ == "__main__":
    main()
