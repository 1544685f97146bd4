"""Count physical and code lines of each module under src/foon.

A physical line is a newline-terminated line, as `wc -l` counts them. A
code line holds at least one token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER, and is not part of a docstring; a docstring
is any expression statement that is a string constant. A token that spans
several lines counts on each of them.

Usage: python tools/loc.py [directory]   (default: src/foon)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def count_lines(source: str) -> tuple:
    """Return (physical lines, code lines) of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "foon"
    total_physical = total_code = 0
    for path in sorted(root.glob("*.py")):
        physical, code = count_lines(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<16} {physical:>6} {code:>6}")
    print(f"{'total':<16} {total_physical:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
