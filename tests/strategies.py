"""Hypothesis strategies for domain objects."""

from hypothesis import strategies as st

from foon import FoonGraph, FunctionalUnit, MotionNode, ObjectNode

# anything printable except the structural characters of the format
_label_chars = st.sampled_from(
    list("abcdefghijklmnopqrstuvwxyz" "ABCDEFGHIJKLMNOPQRSTUVWXYZ" "0123456789 _-'\".!?()&/")
)

labels = st.text(_label_chars, min_size=1, max_size=12).filter(lambda s: s.strip())

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

object_nodes = st.builds(
    ObjectNode,
    name=labels,
    states=st.frozensets(labels, max_size=3),
    ingredients=st.frozensets(labels, max_size=2),
)

motions = st.builds(MotionNode, label=labels, success_rate=rates)


@st.composite
def functional_units(draw):
    ins = draw(st.lists(object_nodes, min_size=1, max_size=4, unique_by=lambda o: o.key))
    outs = draw(st.lists(object_nodes, min_size=1, max_size=3, unique_by=lambda o: o.key))
    return FunctionalUnit(tuple(ins), draw(motions), tuple(outs))


graphs = st.lists(functional_units(), max_size=8).map(FoonGraph.from_units)


# characters that str.split, str.strip, str.lower or a UTF-8 reader treat
# specially, and rate texts that float() reads oddly or rejects
_STRAY = ["\r", "\x0b", "\x85", "\ufeff", "İ", "ß"]
_RATE_TEXTS = ["", "0.5", "-0.0", "0_1", "1e-400", "1", "nan", "2"]
_FRAGMENTS = ["O\t", "S\t", "M\t", "//", "{", "}", ",", "#", "\t", "\n", "a", " "] + _STRAY
# labels that normalize, some with stray characters, and "\r", which does not
_words = st.sampled_from(["a", "b", " Bowl ", "a#b", "ß", "İ", "\ufeff", "a\r", "\x0ba",
                          "\x85a", "ßa", "İa", "\ufeffa", "a", "b", "a", "b", "\r", "a", "b"])
_noise = st.lists(st.sampled_from(_FRAGMENTS + _RATE_TEXTS), max_size=5).map("".join)
_ends = st.one_of(*[st.just("")] * 5, _noise)


@st.composite
def _object_lines(draw) -> list:
    lines = ["O\t" + draw(_words)]
    for _ in range(draw(st.integers(0, 2))):
        ingredients = draw(st.lists(_words, max_size=2))
        field = "\t{" + ",".join(ingredients) + "}" if ingredients else ""
        lines.append("S\t" + draw(_words) + field)
    return lines


@st.composite
def adversarial_texts(draw) -> str:
    """Subgraph-like text: unit blocks over a few labels, some with a line of noise.

    Blocks repeat and share objects, so intern tables hit; noise mixes the
    format's fragments with stray characters and odd rate texts.
    """
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        if blocks and draw(st.booleans()):
            blocks.append(draw(st.sampled_from(blocks)))
            continue
        sides = [sum(draw(st.lists(_object_lines(), min_size=1, max_size=2)), []) for _ in "io"]
        rate = draw(st.sampled_from(_RATE_TEXTS))
        motion = "M\t" + draw(_words) + ("\t" + rate if rate else "")
        lines = sides[0] + [motion] + sides[1] + ["//"]
        if not draw(st.integers(0, 5)):
            lines.insert(draw(st.integers(0, len(lines))), draw(_noise))
        blocks.append("\n".join(lines) + "\n")
    head = draw(_ends)
    return head + "\n" * bool(head) + "".join(blocks) + draw(_ends)
