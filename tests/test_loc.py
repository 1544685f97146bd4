import importlib.util
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "loc", Path(__file__).parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

MODULE = '''"""Module docstring,
two lines."""

import os  # a comment beside code counts

# a comment alone does not


def f(x):
    """One-line docstring."""
    "a bare string statement is a docstring too"
    text = """a multi-line
string value"""
    return (x +
            1)
'''


def test_count_lines_on_a_module_with_known_counts(tmp_path, capsys):
    # code lines: import, def, text = (2 lines), return (2 lines)
    assert loc.count_lines(MODULE) == (15, 6)
    (tmp_path / "m.py").write_text(MODULE, encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "15", "6"]


def test_against_a_revision_prints_both_sides_and_the_change(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=loc", "-c",
                        "user.email=loc@example.com", *args], check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "m.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "gone.py").write_text("x = 1\n", encoding="utf-8")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (tmp_path / "m.py").write_text(MODULE + "y = 2\n", encoding="utf-8")
    (tmp_path / "gone.py").unlink()
    (tmp_path / "new.py").write_text("# only a comment\n", encoding="utf-8")
    assert loc.main(["--against", "HEAD", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["HEAD", "working", "tree", "change"],
        ["gone.py", "1", "1", "0", "0", "-1", "-1"],
        ["m.py", "15", "6", "16", "7", "+1", "+1"],
        ["new.py", "0", "0", "1", "0", "+1", "+0"],
        ["total", "16", "7", "17", "7", "+1", "+0"],
    ]
    assert loc.main(["--against", "no-such-revision", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("loc: ")
