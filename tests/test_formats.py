import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from conftest import DATA, fixture_text, load_graph
import foon.formats
from helpers import fresh_copy, line_loop, random_textured_graph
from foon import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    ParseError,
    TaskTree,
    export_dot,
    merge,
    normalize_label,
    parse_kitchen,
    parse_subgraph,
    serialize_graph,
    serialize_task_tree,
    verify_task_tree,
)

T = "\t"


def one_block(*lines):
    return "\n".join(lines) + "\n"


# --- parsing ---


def test_parse_f1_fixture_matches_manual_construction():
    units = parse_subgraph(fixture_text("F1.foon"), "F1.foon")
    assert len(units) == 1
    unit = units[0]
    assert unit.input_keys == ("water{liquid}", "tray{empty}", "freezer{empty}")
    assert unit.output_keys == ("ice{solid}", "tray{full}", "freezer{full}")
    assert unit.motion == MotionNode("freeze", 0.95)


def test_parse_empty_and_comment_only_files():
    assert parse_subgraph("") == []
    assert parse_subgraph("# nothing here\n\n   \n# more\n") == []


def test_parse_inline_comments_and_blank_lines():
    text = one_block(
        "",
        "O\twater  # the input",
        "S\tliquid",
        "M\tfreeze",
        "# interlude",
        "O\tice",
        "S\tsolid",
        "//",
    )
    units = parse_subgraph(text)
    assert len(units) == 1
    assert units[0].motion.success_rate == 1.0


def test_parse_multiple_states_and_ingredients():
    text = one_block(
        "O\tbowl",
        "S\tclean\t{salt,pepper}",
        "S\tempty",
        "M\tshake\t0.5",
        "O\tbowl",
        "S\t\t{salt,pepper}",
        "//",
    )
    unit = parse_subgraph(text)[0]
    assert unit.input_keys == ("bowl{clean,empty}[pepper,salt]",)
    assert unit.output_keys == ("bowl[pepper,salt]",)


def test_parse_normalizes_labels():
    text = one_block("O\t Sweet   POTATO ", "M\tFry  Hard", "O\tsweet potato", "S\tFried", "//")
    unit = parse_subgraph(text)[0]
    assert unit.input_keys == ("sweet potato",)
    assert unit.motion.label == "fry hard"
    assert unit.output_keys == ("sweet potato{fried}",)


def expect_error(text, reason_part, line=None, parser=parse_subgraph):
    with pytest.raises(ParseError) as info:
        parser(text, "test.foon")
    assert reason_part in info.value.reason
    if line is not None:
        assert info.value.line == line
    assert info.value.source == "test.foon"
    return info.value


def test_motion_before_any_object_is_an_error():
    expect_error(one_block("M\tfreeze", "O\tice", "//"), "unit has no inputs", line=1)


def test_unit_without_motion_is_an_error():
    expect_error(one_block("O\twater", "O\tice", "//"), "unit has no motion line", line=3)


def test_unit_without_outputs_is_an_error():
    expect_error(one_block("O\twater", "M\tfreeze", "//"), "unit has no outputs", line=3)


def test_unit_without_outputs_is_caught_by_the_parser_not_the_unit():
    assert _error(parse_subgraph, one_block("O\ta", "M\tx", "//")) == (3, "unit has no outputs")


def test_state_without_object_is_an_error():
    expect_error(one_block("S\tliquid", "O\tx", "M\tm", "O\ty", "//"), "without a preceding O", line=1)


def test_bad_rates_are_errors():
    expect_error(one_block("O\ta", "M\tm\t1.5", "O\tb", "//"), "outside [0, 1]", line=2)
    expect_error(one_block("O\ta", "M\tm\thigh", "O\tb", "//"), "is not a number", line=2)


def test_unterminated_final_unit_is_an_error():
    err = expect_error(one_block("O\ta", "M\tm", "O\tb", "//", "O\tx", "M\tm"), "unterminated")
    assert err.line == 6  # points into the offending block


def test_second_motion_line_is_an_error():
    expect_error(one_block("O\ta", "M\tm", "M\tn", "O\tb", "//"), "more than one motion", line=3)


def test_empty_unit_block_is_an_error():
    expect_error("//\n", "empty functional unit", line=1)


def test_unrecognized_record_is_an_error():
    expect_error(one_block("O\ta", "Q\tz", "M\tm", "O\tb", "//"), "unrecognized record", line=2)


def test_bad_ingredient_fields_are_errors():
    expect_error(one_block("O\ta", "S\tx\tsalt", "M\tm", "O\tb", "//"), "must be {a,b,...}", line=2)
    expect_error(one_block("O\ta", "S\tx\t{}", "M\tm", "O\tb", "//"), "empty ingredient set", line=2)


def test_empty_state_without_ingredients_is_an_error():
    # trailing whitespace is stripped, so a bare S collapses to one field
    expect_error(one_block("O\ta", "S\t", "M\tm", "O\tb", "//"), "S line must be", line=2)
    expect_error(one_block("O\ta", "S\t ", "M\tm", "O\tb", "//"), "S line must be", line=2)


@pytest.mark.parametrize("parser", [parse_subgraph, parse_kitchen])
@pytest.mark.parametrize("blank", ["S\t   ", "S\t\x1c", "S\t\t"])
def test_blank_state_lines_collapse_to_one_field(parser, blank):
    # str.strip and str.split share one whitespace set, so a blank state
    # with no ingredient field is always a one-field S line
    expect_error(one_block("O\ta", "S\tx", blank, "M\tm", "O\tb", "//"),
                 "S line must be 'S<TAB>state' or", line=3, parser=parser)


def test_blank_state_beside_ingredients_is_an_ingredients_only_line():
    text = one_block("O\ta", "S\t \t{salt}", "M\tm", "O\tb", "//")
    assert parse_subgraph(text)[0].input_keys == ("a[salt]",)
    assert parse_kitchen(one_block("O\ta", "S\t \t{salt}")).items == {"a[salt]"}


@pytest.mark.parametrize("motion", ["M", "M\tm\t0.5\textra"])
def test_motion_lines_need_two_or_three_fields(motion):
    expect_error(one_block("O\ta", motion, "O\tb", "//"), "M line must be", line=2)


def test_duplicate_input_keys_reported_at_block_end():
    text = one_block("O\ta", "S\tx", "O\ta", "S\tx", "M\tm", "O\tb", "//")
    expect_error(text, "duplicate input node", line=7)


def test_error_line_numbers_point_into_later_blocks():
    text = one_block("O\ta", "M\tm", "O\tb", "//", "O\tc", "M\tbad rate\tnope", "O\td", "//")
    expect_error(text, "is not a number", line=6)


def test_unterminated_unit_points_at_its_last_state_line():
    err = expect_error(one_block("O\ta", "M\tm", "O\tb", "S\ts"), "unterminated unit")
    assert err.line == 4


@pytest.mark.parametrize("parser", [parse_subgraph, parse_kitchen])
def test_bad_labels_report_their_own_line(parser):
    head = ("O\tbowl", "S\tclean", "S\tempty\t{salt,pepper}")
    expect_error(one_block(*head, "S\tho,t"), "state label", line=4, parser=parser)
    expect_error(one_block(*head, "S\thot\t{salt,pep]per}"), "ingredient label", line=4,
                 parser=parser)
    expect_error(one_block(*head, "O\tcu}p"), "object name", line=4, parser=parser)


@pytest.mark.parametrize(
    "parser, lines, line, reason",
    [
        (parse_subgraph, ("O\tbowl", "S\tho,t\t{pep]per}"), 2,
         "ingredient label 'pep]per' contains forbidden character(s) ']'"),
        (parse_kitchen, ("O\tbowl", "S\tho,t\t{pep]per}"), 2,
         "ingredient label 'pep]per' contains forbidden character(s) ']'"),
        (parse_subgraph, ("S", "O\ta"), 1, "S line without a preceding O line"),
        (parse_subgraph, ("O\ta", "M\tm", "M\tm\tnope", "O\tb", "//"), 3,
         "unit has more than one motion line"),
        (parse_subgraph, ("M\tbad{x", "O\ta", "//"), 1, "unit has no inputs"),
        (parse_subgraph, ("O\ta", "M\tb{d\tnope", "O\tb", "//"), 2,
         "motion label 'b{d' contains forbidden character(s) '{'"),
        (parse_kitchen, ("O\ta", "M\tb{d\tnope"), 2, "motion line not allowed in kitchen file"),
    ],
)
def test_a_line_with_two_faults_reports_the_one_checked_first(parser, lines, line, reason):
    assert _error(parser, one_block(*lines)) == (line, reason)


# --- intern table ---


def _error(parser, text, *table):
    with pytest.raises(ParseError) as info:
        parser(text, "test.foon", *table)
    return info.value.line, info.value.reason


_BAD_STATE = "state label 'cl{ean' contains forbidden character(s) '{'"


@pytest.mark.parametrize(
    "parser, text, line",
    [
        (parse_subgraph,
         one_block("O\tbowl", "S\tclean", "M\twash", "O\tbowl", "S\tdry", "//",
                   "O\tbowl", "S\tcl{ean", "M\twash", "O\tcup", "//"),
         8),
        (parse_kitchen, one_block("O\tbowl", "S\tclean", "//", "O\tbowl", "S\tcl{ean"), 5),
    ],
)
def test_repeated_block_with_a_bad_later_state_reports_that_line(parser, text, line):
    assert _error(parser, text) == (line, _BAD_STATE)


@pytest.mark.parametrize("parser", [parse_subgraph, parse_kitchen])
def test_state_label_reused_as_object_name(parser):
    if parser is parse_subgraph:
        unit = parser(one_block("O\tbowl", "S\t Clean", "M\twash", "O\t Clean", "//"))[0]
        assert (unit.input_keys, unit.output_keys) == (("bowl{clean}",), ("clean",))
    else:
        kitchen = parser(one_block("O\tbowl", "S\t Clean", "O\t Clean"))
        assert kitchen.items == {"bowl{clean}", "clean"}
    # a rejected label keeps the role of the line that rejects it
    assert _error(parser, one_block("O\tbowl", "S\tclean", "S\tcl{ean")) == (3, _BAD_STATE)
    assert _error(parser, one_block("O\tbowl", "S\tclean", "O\tcl{ean")) == (
        3, "object name 'cl{ean' contains forbidden character(s) '{'")


def test_shared_table_survives_a_failed_parse():
    nodes = {}
    bad = one_block("O\tBowl", "S\tClean", "M\tWash\t0.5", "O\tbowl", "S\tdry", "//",
                    "O\tcup", "S\tho,t", "M\tfill", "O\tcup", "S\tfull", "//")
    reason = "state label 'ho,t' contains forbidden character(s) ','"
    assert _error(parse_subgraph, bad, nodes) == (8, reason)
    assert _error(parse_subgraph, bad, nodes) == (8, reason)
    assert _error(parse_subgraph, one_block("O\tho,t"), nodes) == (
        1, "object name 'ho,t' contains forbidden character(s) ','")
    for name in ("F2.foon", "F3.foon"):
        text = fixture_text(name)
        assert parse_subgraph(text, name, nodes) == parse_subgraph(text, name)
    rates = one_block("O\ta", "M\tm\t2", "O\tb", "//")
    assert _error(parse_subgraph, rates, nodes) == (2, "success rate 2.0 outside [0, 1]")


def test_a_second_parse_through_one_table_normalizes_no_label(monkeypatch):
    calls = []
    normalize = foon.formats.normalize_label
    monkeypatch.setattr(foon.formats, "normalize_label",
                        lambda *args: calls.append(args) or normalize(*args))
    text = fixture_text("F3.foon")
    nodes = {}
    first = parse_subgraph(text, "F3.foon", nodes)
    assert calls
    calls.clear()
    assert parse_subgraph(text, "F3.foon", nodes) == first
    assert calls == []


def test_shared_table_keeps_the_spelling_of_zero_rates():
    nodes = {}
    parse_subgraph(one_block("O\ta", "M\tm\t0", "O\tb", "//"), "one", nodes)
    text = one_block("O\tc", "M\tm\t-0.0", "O\td", "//")
    units = parse_subgraph(text, "two", nodes)
    assert units == parse_subgraph(text, "two")
    assert "M\tm\t-0.0" in serialize_graph(FoonGraph.from_units(units))


def _interned(units, seen):
    # equal nodes, label sets and equally spelled motions parsed through one table are one instance
    for unit in units:
        for node in unit.inputs + unit.outputs:
            fresh = ObjectNode(node.name, node.states, node.ingredients)
            assert node == fresh and node.key == fresh.key
            assert hash(node) == hash(fresh) and repr(node) == repr(fresh)
            # _text is the serializer's cache of the node's lines
            assert [name for name in vars(node) if name != "_text"] == list(vars(fresh))
            assert seen.setdefault(node.key, node) is node
            for labels in (node.states, node.ingredients):
                assert seen.setdefault(labels, labels) is labels
        motion = unit.motion
        assert seen.setdefault((motion.label, repr(motion.success_rate)), motion) is motion


# the format's record tags and structural characters, plus text that
# str.split/strip or float() treat specially
_FUZZ_TOKENS = ["\t", "\n", "O", "S", "M", "//", "#", "{", "}", "[", "]", ",", "a", " ",
                "\ufeff", "\r", "\x0b", "nan", "1e400", "0.5"]


def _outcome(text, *table, parse=parse_subgraph):
    try:
        return parse(text, "test.foon", *table)
    except ParseError as err:
        return err.line, err.reason


_BLOCK = one_block("O\tbowl", "S\tclean", "M\twash\t0.5", "O\tbowl", "S\tdry", "//")
_BAD_BLOCK = one_block("O\tcup", "M\tfill\tnope", "O\tcup", "S\tfull", "//")


@pytest.mark.parametrize("header", ["", "# recipe one\n", "# recipe two\n#\n# by hand\n"])
@pytest.mark.parametrize("copies", [1, 3])
def test_a_bad_block_after_cached_copies_reports_its_own_line(header, copies):
    text = header + _BLOCK * copies + _BAD_BLOCK
    line = header.count("\n") + 6 * copies + 2
    want = (line, "success rate 'nope' is not a number")
    nodes = {}
    assert _outcome(header + _BLOCK * copies, nodes) == parse_subgraph(_BLOCK * copies)
    assert _outcome(text) == _outcome(text, nodes) == _outcome(text, nodes) == want
    assert _outcome(_BAD_BLOCK + text, nodes)[0] == 2


@pytest.mark.parametrize(
    "text",
    [
        _BLOCK.replace("\n", "\r\n") * 2 + _BAD_BLOCK.replace("\n", "\r\n"),
        _BLOCK.replace("\n", "\r\n") * 2,
        (_BLOCK * 2).replace("//", "// # end") + _BAD_BLOCK,
        (_BLOCK * 2).replace("//", " // ") + _BLOCK,
        _BLOCK + _BLOCK.replace("//", " // ") + _BAD_BLOCK,
        _BLOCK + "//\n" + _BLOCK,
        _BLOCK[:-1],
        _BLOCK + _BLOCK[:-4],
    ],
)
def test_lines_that_only_read_like_separators_parse_alike_with_a_shared_table(text):
    nodes = {}
    _outcome(_BLOCK * 2, nodes)
    alone = _outcome(text, parse=line_loop)
    assert _outcome(text) == _outcome(text, nodes) == _outcome(text, nodes) == alone


def test_a_block_never_hits_a_label_of_the_same_text():
    nodes = {}
    parse_subgraph(one_block("O\tabc", "M\tm", "O\tb", "//"), "one", nodes)
    assert "abc" in nodes
    want = (1, "unrecognized record 'abc'")
    assert _outcome("abc\n//\n", nodes) == _outcome("abc\n//\n") == want
    # a block key ends in "\n//", an object's text in "\n", and a label has no newline
    assert all(not isinstance(key, str) or "\n" not in key or key.endswith(("\n//", "\n"))
               for key in nodes)


# a block with comments beside its fields, whose lines later blocks repeat
_SEEN = one_block("O\tbowl", "S\tclean", "M\twash\t0.5 # by hand", "O\tbowl",
                  "S\tdry  # rinsed", "//")


@pytest.mark.parametrize(
    "lines, line, reason",
    [
        (("S\tclean", "O\tbowl", "M\twash\t0.5 # by hand", "O\tbowl", "//"), 1,
         "S line without a preceding O line"),
        (("O\tbowl", "M\twash\t0.5 # by hand", "S\tdry  # rinsed", "O\tbowl", "//"), 3,
         "S line without a preceding O line"),
        (("O\tbowl", "M\twash\t0.5 # by hand", "M\twash\t0.5 # by hand", "O\tbowl", "//"), 3,
         "unit has more than one motion line"),
        (("O\tbowl", "S\tclean", "O\tbowl", "S\tclean", "M\twash\t0.5 # by hand", "O\tbowl",
          "//"), 7, "duplicate input node bowl{clean}"),
        (("M\twash\t0.5 # by hand", "O\tbowl", "//"), 1, "unit has no inputs"),
    ],
)
def test_a_seen_line_where_it_is_an_error_reports_as_in_a_fresh_parse(lines, line, reason):
    prefilled = {}
    parse_subgraph(_SEEN, "seen", prefilled)
    text = _SEEN + one_block(*lines)
    want = (6 + line, reason)
    assert _outcome(text, prefilled) == _outcome(text) == _outcome(text, parse=line_loop) == want


# the comment line sends the block through the line loop, which keeps its labels too
@pytest.mark.parametrize("seen", [_SEEN, _SEEN.replace("M\t", "# by the line loop\nM\t")])
def test_a_new_block_of_seen_lines_normalizes_no_label(monkeypatch, seen):
    nodes = {}
    parse_subgraph(seen, "seen", nodes)
    # bowl{clean,dry} is a node the table has not built yet
    text = one_block("O\tbowl", "S\tclean", "S\tdry  # rinsed", "M\twash\t0.5 # by hand",
                     "O\tbowl", "//")
    want = parse_subgraph(text)
    calls = []
    for module in (foon.formats, foon.core):
        monkeypatch.setattr(module, "normalize_label", lambda *args, normalize=normalize_label:
                            calls.append(args) or normalize(*args))
    assert parse_subgraph(text, "new", nodes) == want
    # every label is looked up in the table
    assert calls == []


def test_the_table_keeps_no_line_and_no_object_tuple():
    nodes = {}
    for name in ("F1.foon", "F2.foon", "F3.foon"):
        parse_subgraph(fixture_text(name), name, nodes)
    parse_subgraph(_SEEN.replace("M\t", "# by the line loop\nM\t"), "seen", nodes)
    # labels, label sets, object texts, M line fields and blocks: nothing keyed by a line
    assert not any(isinstance(key, str) and "\t" in key and "\n" not in key for key in nodes)
    assert not any(isinstance(key, tuple) and key[0] != "M" for key in nodes)


def test_copies_of_a_block_across_files_build_one_unit(monkeypatch):
    built = []
    trusted = FunctionalUnit._trusted
    monkeypatch.setattr(FunctionalUnit, "_trusted",
                        lambda *args: built.append(args) or trusted(*args))
    nodes = {}
    first = parse_subgraph("# recipe a\n" + _BLOCK * 3, "a", nodes)
    second = parse_subgraph("# recipe b\n# annotated twice\n" + _BLOCK * 2, "b", nodes)
    assert len(built) == 1
    assert all(got is first[0] for got in first + second)
    assert first + second == parse_subgraph(_BLOCK * 5)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.randoms(use_true_random=False),
       st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=30).map("".join))
def test_intern_table_never_changes_the_parse(rng, other_rng, tail):
    text = serialize_graph(random_textured_graph(rng))
    other = serialize_graph(random_textured_graph(other_rng))
    alone = parse_subgraph(text)
    shared = {}
    first, second = parse_subgraph(text, "a", shared), parse_subgraph(text, "a", shared)
    prefilled = {}
    from_other = parse_subgraph(other, "b", prefilled)
    after_other = parse_subgraph(text, "a", prefilled)
    for units in (alone, first, second, after_other):
        assert units == alone
        assert serialize_graph(FoonGraph.from_units(units)) == text
    _interned(alone, {})
    _interned(first + second, {})
    _interned(from_other + after_other, {})
    # valid blocks, then arbitrary text: the same units or the same error
    fuzzed = text + tail
    assert _outcome(fuzzed, prefilled) == _outcome(fuzzed, prefilled) == _outcome(fuzzed)
    assert _outcome(fuzzed) == _outcome(fuzzed, parse=line_loop)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=60).map("".join))
def test_parsers_raise_only_parse_errors_on_arbitrary_text(text):
    for parser in (parse_subgraph, parse_kitchen):
        try:
            parser(text)
        except ParseError:
            pass


# --- the canonical block shape ---

# the shape's earlier spelling, kept as the reference: a pattern without
# groups, then the sides and motion line cut out by offsets
_SLICED = re.compile(r"(?:O\t[^\n]*\n(?:S\t[^\n]*\n)*)+M\t[^\n]*\n"
                     r"(?:O\t[^\n]*\n(?:S\t[^\n]*\n)*)+//")


def _sliced_shape(block):
    if not _SLICED.fullmatch(block):
        return None
    cut = block.find("\nM\t")
    end = block.find("\n", cut + 1)
    return block[2:cut], block[cut + 1 : end], block[end + 3 : -3]


def _grouped_shape(block):
    shape = foon.formats._CANONICAL.fullmatch(block)
    return shape and (shape["inputs"], shape["motion"], shape["outputs"])


def _blocks(text):
    """The blocks parse_subgraph cuts text into: past the header, each through a ``//`` line."""
    pos = foon.formats._HEADER.match(text).end()
    end = text.find("\n//\n", pos)
    while end >= 0:
        yield text[pos : end + 3]
        pos, end = end + 4, text.find("\n//\n", end + 4)


_HEADS = ["O\t", "S\t", "M\t", "//", "O", "M", "", "#"]
_STRAYS = ["", "a", "\t", "O\t", "M\t", "S\t", "//", "\n", "\nM\t", "\nO\t"]


def _random_block(rng):
    # a canonical block whose lines may lose their tag or gain stray text
    def side():
        return [tag + "a" for _ in range(rng.randint(1, 2))
                for tag in ["O\t"] + ["S\t"] * rng.randint(0, 2)]

    lines = side() + ["M\tmix"] + side()
    for pos in range(len(lines)):
        if rng.random() < 0.15:
            lines[pos] = rng.choice(_HEADS) + rng.choice(_STRAYS)
        if rng.random() < 0.15:
            lines[pos] += rng.choice(_STRAYS)
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), rng.choice(_HEADS) + rng.choice(_STRAYS))
    return "\n".join(lines) + "\n//"


def test_block_groups_equal_the_sliced_shape_on_fixtures_and_random_blocks():
    fixtures = [block for path in sorted(DATA.glob("*.foon"))
                for block in _blocks(path.read_text(encoding="utf-8"))]
    rng = random.Random(26)
    blocks = fixtures + [_random_block(rng) for _ in range(20_000)]
    shapes = [_sliced_shape(block) for block in blocks]
    assert [_grouped_shape(block) for block in blocks] == shapes
    assert None not in shapes[: len(fixtures)]
    accepted = sum(shape is not None for shape in shapes[len(fixtures) :])
    assert 2_000 < accepted < 18_000  # both outcomes well sampled


@settings(max_examples=200, database=None)
@given(strategies.adversarial_texts())
def test_block_groups_equal_the_sliced_shape_on_adversarial_texts(text):
    for block in _blocks(text):
        assert _grouped_shape(block) == _sliced_shape(block)


# --- kitchen parsing ---


def test_parse_kitchen_basic_and_duplicates():
    kitchen = parse_kitchen(one_block("O\twater", "S\tliquid", "O\ttray", "S\tempty"))
    assert kitchen.items == frozenset(["water{liquid}", "tray{empty}"])
    dup = parse_kitchen(one_block("O\tcup", "O\tcup"))
    assert dup.items == frozenset(["cup"])


def test_parse_kitchen_supports_ingredients_and_separators():
    kitchen = parse_kitchen(one_block("O\tbowl", "S\t\t{salt}", "//", "O\tcup", "//"))
    assert kitchen.items == frozenset(["bowl[salt]", "cup"])


def test_parse_kitchen_rejects_motion_lines():
    expect_error(
        one_block("O\twater", "M\tfreeze"),
        "motion line not allowed in kitchen file",
        line=2,
        parser=parse_kitchen,
    )


def test_kitchen_motion_line_after_states_reports_its_line():
    expect_error(
        one_block("O\tbowl", "S\tclean", "// ", "O\twater", "S\tliquid", "S\tcold", "M\tfreeze"),
        "motion line not allowed in kitchen file",
        line=7,
        parser=parse_kitchen,
    )


def test_parse_kitchen_with_separators_dedups_items():
    text = one_block(
        "O\tcup", "S\tclean", "//", "O\tCup", "S\tclean", "//", "//", "O\tbowl",
        "S\t\t{salt}", "O\tbowl", "S\t\t{salt}", "//",
    )
    assert parse_kitchen(text).items == frozenset(["cup{clean}", "bowl[salt]"])


def test_kitchen_fixtures_load():
    for name, size in [("K1.kitchen", 3), ("K2.kitchen", 5), ("K3.kitchen", 4),
                       ("K_mini.kitchen", 8), ("empty.kitchen", 0)]:
        assert len(parse_kitchen(fixture_text(name), name).items) == size


# --- serialization ---


def test_serialize_empty_graph_is_header_only():
    assert serialize_graph(FoonGraph()) == "# foon subgraph\n"


def test_serialize_f2_keeps_unit_order():
    graph = load_graph("F2.foon")
    text = serialize_graph(graph)
    assert text.count("//") == 3
    assert text.index("M\tpeel") < text.index("M\tchop") < text.index("M\tfry")


def test_fixture_files_are_in_canonical_form():
    for name in ("F1.foon", "F2.foon", "F3.foon", "cyclic.foon"):
        text = fixture_text(name)
        rebuilt = FoonGraph.from_units(parse_subgraph(text, name))
        assert serialize_graph(rebuilt) == text, name


def test_serialize_stateless_node_with_ingredients_round_trips():
    unit = FunctionalUnit(
        (ObjectNode("bowl", frozenset(), frozenset(["salt", "ice"])),),
        MotionNode("shake", 0.25),
        (ObjectNode("bowl", frozenset(["shaken"])),),
    )
    graph = FoonGraph.from_units([unit])
    text = serialize_graph(graph)
    assert "S\t\t{ice,salt}" in text
    assert parse_subgraph(text) == [unit]


@settings(max_examples=75)
@given(strategies.graphs)
def test_round_trip_preserves_units_and_bytes(graph):
    text = serialize_graph(graph)
    rebuilt = FoonGraph.from_units(parse_subgraph(text))
    assert rebuilt.units == graph.units
    assert rebuilt.node_index == graph.node_index
    assert serialize_graph(rebuilt) == text


@settings(max_examples=30)
@given(strategies.graphs)
def test_parse_is_deterministic(graph):
    text = serialize_graph(graph)
    assert parse_subgraph(text) == parse_subgraph(text)


# --- task tree serialization ---


def test_serialize_empty_tree_is_header_and_goal_trailer():
    graph = load_graph("F1.foon")
    text = serialize_task_tree(graph, TaskTree((), "water{liquid}"))
    assert text == "# foon task tree\n# goal: water{liquid}\n"


def test_serialize_tree_is_a_parseable_subgraph_in_order():
    graph = load_graph("F2.foon")
    tree = TaskTree((0, 1, 2), "sweet potato{fried}")
    text = serialize_task_tree(graph, tree, algorithm="ids")
    assert text.startswith("# foon task tree\n")
    assert "# goal: sweet potato{fried}" in text
    assert "# algorithm: ids" in text
    units = parse_subgraph(text)
    assert [u.motion.label for u in units] == ["peel", "chop", "fry"]


def test_serialize_tree_rejects_bad_trees():
    graph = load_graph("F2.foon")
    with pytest.raises(ValueError, match="position 1"):
        serialize_task_tree(graph, TaskTree((0, 0), "sweet potato{fried}"))
    with pytest.raises(ValueError, match="unknown unit id"):
        serialize_task_tree(graph, TaskTree((9,), "sweet potato{fried}"))
    kitchen = Kitchen(frozenset())
    with pytest.raises(ValueError, match="position 0"):
        serialize_task_tree(graph, TaskTree((0, 1, 2), "sweet potato{fried}"), kitchen)


def test_graph_local_checks_match_verify_task_tree():
    graph = load_graph("F2.foon")
    kitchen = Kitchen(frozenset(graph.node_index))  # every input available
    rng = random.Random(99)
    for _ in range(300):
        ids = tuple(rng.choice([0, 1, 2, 3, -1, "x"]) for _ in range(rng.randint(0, 5)))
        tree = TaskTree(ids, "sweet potato{fried}")
        violation = verify_task_tree(graph, tree, kitchen, tree.goal_key)
        if violation is None or "never produced" in violation.reason:
            assert serialize_task_tree(graph, tree).startswith("# foon task tree\n")
            continue
        with pytest.raises(ValueError) as exc:
            serialize_task_tree(graph, tree)
        assert str(exc.value) == (
            f"invalid task tree at unit position {violation.position}: {violation.reason}")


def test_cached_node_text_equals_the_uncached_lines():
    rng = random.Random(31)
    for _ in range(200):
        graph = random_textured_graph(rng)
        for node in graph.nodes:
            text = foon.formats._object_text(node)
            assert foon.formats._object_text(node) is text
        fresh = fresh_copy(graph)
        assert serialize_graph(graph) == serialize_graph(fresh)
        tree = TaskTree(tuple(rng.sample(range(len(graph.units)), len(graph.units))), "goal")
        assert serialize_task_tree(graph, tree, algorithm="h1") == (
            serialize_task_tree(fresh, tree, algorithm="h1"))


def test_the_kept_unit_text_stays_out_of_equality_hash_and_repr():
    written = FunctionalUnit((ObjectNode("a"),), MotionNode("mix", 0.5), (ObjectNode("b"),))
    cold = FunctionalUnit(written.inputs, written.motion, written.outputs)
    text = foon.formats._unit_text(written)
    assert text == "O\ta\nM\tmix\t0.5\nO\tb\n//"
    assert foon.formats._unit_text(written) is text
    assert "_text" in vars(written) and "_text" not in vars(cold)
    assert written == cold and hash(written) == hash(cold) and repr(written) == repr(cold)


def test_a_raised_rate_is_written_after_the_graph_was_written():
    low = FunctionalUnit((ObjectNode("a"),), MotionNode("mix", 0.25), (ObjectNode("b"),))
    high = FunctionalUnit(low.inputs, MotionNode("mix", 0.75), low.outputs)
    graph = FoonGraph.from_units([low])
    tree = TaskTree((0,), "b")
    assert "M\tmix\t0.25\n" in serialize_graph(graph) + serialize_task_tree(graph, tree)
    assert not graph.add_unit(high).added
    fresh = FoonGraph.from_units([high])
    assert serialize_graph(graph) == serialize_graph(fresh)
    assert serialize_task_tree(graph, tree) == serialize_task_tree(fresh, tree)
    assert "M\tmix\t0.75\n" in serialize_graph(graph)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.randoms(use_true_random=False))
def test_units_shared_by_merge_write_the_same_bytes_from_either_graph(rng, other_rng):
    first, second = random_textured_graph(rng), random_textured_graph(other_rng)
    merged = merge([first, second])
    assert serialize_graph(merged) == serialize_graph(fresh_copy(merged))
    shared = 0
    for graph in (first, second):
        assert serialize_graph(graph) == serialize_graph(fresh_copy(graph))
        for uid, unit in enumerate(graph.units):
            merged_uid = merged.find_unit(unit)
            if merged.units[merged_uid] is unit:
                shared += 1
                assert serialize_task_tree(graph, TaskTree((uid,), "goal")) == (
                    serialize_task_tree(merged, TaskTree((merged_uid,), "goal")))
    assert shared >= len(first.units) - len(second.units)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_warm_and_cold_caches_write_the_same_bytes(rng):
    graph = random_textured_graph(rng)
    picked = rng.sample(range(len(graph.units)), rng.randint(0, len(graph.units)))
    tree = TaskTree(tuple(picked), "goal")
    cold = fresh_copy(graph)
    expected = serialize_task_tree(cold, tree, algorithm="h2"), serialize_graph(cold)
    # the first pass mixes cold texts with the ones the tree just kept; the second is all warm
    for _ in range(2):
        assert (serialize_task_tree(graph, tree, algorithm="h2"), serialize_graph(graph)) == expected


# --- DOT export ---


def test_export_dot_empty_graph():
    text = export_dot(FoonGraph())
    assert text.startswith("digraph foon {")
    assert text.rstrip().endswith("}")


def test_export_dot_f1_counts():
    text = export_dot(load_graph("F1.foon"))
    assert len(re.findall(r"^  o\d+ \[shape=circle", text, re.M)) == 6
    assert len(re.findall(r"^  m\d+ \[shape=square", text, re.M)) == 1
    assert len(re.findall(r"->", text)) == 6


def test_export_dot_one_vertex_per_motion_occurrence():
    graph = FoonGraph.from_units(
        [
            FunctionalUnit((ObjectNode("a"),), MotionNode("mix"), (ObjectNode("b"),)),
            FunctionalUnit((ObjectNode("b"),), MotionNode("mix"), (ObjectNode("c"),)),
        ]
    )
    text = export_dot(graph)
    assert "m0 [" in text and "m1 [" in text


def test_export_dot_labels_states_ingredients_and_rate():
    bowl = ObjectNode("bowl", frozenset(["full", "cold"]), frozenset(["salt", "egg"]))
    graph = FoonGraph.from_units(
        [FunctionalUnit((bowl,), MotionNode("mix", 0.5), (ObjectNode("out"),))]
    )
    lines = export_dot(graph).splitlines()
    assert '  o0 [shape=circle, fillcolor=green, label="bowl\\n(cold, full)\\n[egg, salt]"];' in lines
    assert '  o1 [shape=circle, fillcolor=green, label="out"];' in lines
    assert '  m0 [shape=square, fillcolor=red, label="mix\\n0.5"];' in lines


def test_export_dot_escapes_quotes_and_backslashes():
    graph = FoonGraph.from_units(
        [
            FunctionalUnit(
                (ObjectNode('the "best" bowl\\cup'),),
                MotionNode("mix"),
                (ObjectNode("out"),),
            )
        ]
    )
    text = export_dot(graph)
    assert 'label="the \\"best\\" bowl\\\\cup"' in text


@settings(max_examples=40)
@given(strategies.graphs)
def test_export_dot_edges_are_bipartite(graph):
    text = export_dot(graph)
    edges = re.findall(r"^  (\w+) -> (\w+);$", text, re.M)
    assert len(edges) == sum(len(u.inputs) + len(u.outputs) for u in graph.units)
    for src, dst in edges:
        assert (src[0], dst[0]) in (("o", "m"), ("m", "o"))
