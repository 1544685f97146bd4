import importlib.util
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
