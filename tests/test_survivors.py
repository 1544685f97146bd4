import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "survivors", Path(__file__).parent.parent / "tools" / "survivors.py")
survivors = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(survivors)

MODULE = '''"""Module docstring."""

import os

LIMIT = 3


def f(x):
    """Docstring."""
    if x > LIMIT:
        x -= 1
    elif x < 0:
        pass
    else:
        return None
    for item in range(x): total = item; print(total)
    return (x +
            1)
'''


def test_statements_are_simple_statements_and_whole_if_blocks_in_source_order():
    # docstrings, pass and the elif arm are not replaced on their own
    found = survivors.statements(MODULE)
    assert [(line, text) for line, text, _ in found] == [
        (3, "import os"),
        (5, "LIMIT = 3"),
        (10, "if x > LIMIT:"),
        (11, "x -= 1"),
        (15, "return None"),
        (16, "total = item"),
        (16, "print(total)"),
        (17, "return (x +"),
    ]
    mutated = {(line, text): source for line, text, source in found}
    lines = MODULE.splitlines(keepends=True)
    assert mutated[10, "if x > LIMIT:"] == "".join(lines[:9] + ["    pass\n"] + lines[15:])
    assert mutated[16, "print(total)"] == MODULE.replace("print(total)", "pass")
    assert mutated[17, "return (x +"] == "".join(lines[:16] + ["    pass\n"])
    for source in mutated.values():
        compile(source, "m.py", "exec")
