"""Count physical and code lines of each module under src/foon.

A physical line is a newline-terminated line, as `wc -l` counts them. A
code line holds at least one token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER, and is not part of a docstring; a docstring
is any expression statement that is a string constant. A token that spans
several lines counts on each of them.

With --against REV it prints, per module, the counts at the git revision
REV (read with `git show REV:<module>` from the directory's repository,
no checkout), the working tree's and the difference; a module missing on
one side counts 0 there.

Usage: python tools/loc.py [--against REV] [directory]   (default: src/foon)
"""

import argparse
import ast
import io
import subprocess
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


def _git(root: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True,
                          text=True, encoding="utf-8").stdout


def _counts(root: Path, rev=None) -> dict:
    """Module name -> (physical, code) in the directory, or at rev."""
    if rev is None:
        return {path.name: count_lines(path.read_text(encoding="utf-8"))
                for path in root.glob("*.py")}
    names = [name for name in _git(root, "ls-tree", "--name-only", rev, "--", ".").split("\n")
             if name.endswith(".py") and "/" not in name]
    return {name: count_lines(_git(root, "show", f"{rev}:./{name}")) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count lines of the modules under src/foon.")
    parser.add_argument("directory", nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src" / "foon")
    parser.add_argument("--against", metavar="REV", help="also count at this git revision")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    root = Path(args.directory)
    now = _counts(root)
    try:
        before = {} if args.against is None else _counts(root, args.against)
    except subprocess.CalledProcessError as exc:
        print(f"loc: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    if args.against is not None:
        print(f"{'':<16} {args.against[:13]:>13} {'working tree':>13} {'change':>13}")
    totals = (0, 0, 0, 0)
    for name in sorted(set(now) | set(before)):
        counts = before.get(name, (0, 0)) + now.get(name, (0, 0))
        totals = tuple(map(sum, zip(totals, counts)))
        _print_row(name, counts, args.against is None)
    _print_row("total", totals, args.against is None)
    return 0


def _print_row(name: str, counts: tuple, alone: bool):
    p0, c0, p1, c1 = counts
    if alone:
        print(f"{name:<16} {p1:>6} {c1:>6}")
    else:
        print(f"{name:<16} {p0:>6} {c0:>6} {p1:>6} {c1:>6} {p1 - p0:>+6} {c1 - c0:>+6}")


if __name__ == "__main__":
    sys.exit(main())
