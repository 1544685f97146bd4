"""Properties of the parser and the CLI on arbitrary, mostly malformed, text.

Every test here draws from the fixed Hypothesis seed 0 with no example
database, as `tools/survivors.py` runs the suite, so each run checks the
same examples.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from foon import FoonGraph, ParseError, parse_kitchen, parse_subgraph, serialize_graph
from foon.cli import main
from helpers import line_loop
from strategies import adversarial_texts

FIXED = settings(max_examples=100, database=None, deadline=None)


def _outcome(text, *table, parse=parse_subgraph):
    """Units with their rates as spelled, or the error's line and reason."""
    try:
        units = parse(text, "fuzz.foon", *table)
    except ParseError as err:
        return err.line, err.reason
    return units, [repr(unit.motion.success_rate) for unit in units]


@seed(0)
@FIXED
@given(adversarial_texts())
def test_parsing_returns_units_or_raises_parse_error_and_round_trips(text):
    # anything but a ParseError fails the test
    with contextlib.suppress(ParseError):
        parse_kitchen(text)
    outcome = _outcome(text)
    if isinstance(outcome[0], list):
        canonical = serialize_graph(FoonGraph.from_units(outcome[0]))
        assert serialize_graph(FoonGraph.from_units(parse_subgraph(canonical))) == canonical


@seed(0)
@FIXED
@given(adversarial_texts())
def test_blocks_read_object_by_object_parse_as_the_line_loop_does(text):
    assert _outcome(text) == _outcome(text, parse=line_loop)


@seed(0)
@settings(FIXED, max_examples=60)
@given(adversarial_texts(), adversarial_texts())
def test_a_shared_table_gives_the_units_and_errors_of_fresh_ones(first, second):
    shared = {}
    for text in (first, second, second + first, first):
        assert _outcome(text, shared) == _outcome(text)


_GOALS = st.sampled_from(["a", "b", "bowl", "a{b}", "a[b]", "a{b}[a]", "ß", "İ", "{", "a{",
                          "", " ", "a,b", "\ufeffa", "a\r"])


@seed(0)
@settings(FIXED, max_examples=50)
@given(adversarial_texts(), adversarial_texts(), _GOALS, st.lists(_GOALS, max_size=4))
def test_read_commands_exit_0_1_or_2_on_any_input(graph, objects, goal, goals):
    # a kitchen file has no M lines
    kitchen = "\n".join(line for line in objects.split("\n") if not line.startswith("M"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("graph", graph), ("kitchen", kitchen), ("goals", "\n".join(goals))):
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_bytes(text.encode("utf-8"))
        commands = [["stats", paths["graph"]],
                    ["compare", paths["graph"], "-k", paths["kitchen"], "--goals", paths["goals"]]]
        commands += [["search", paths["graph"], "-g", goal, "-k", paths["kitchen"], "-a", algo]
                     for algo in ("ids", "h1", "h2")]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], err.getvalue())
