"""Text formats for subgraphs, kitchens, and task trees, plus DOT export.

The subgraph format is tab-separated, one record per line:

    O<TAB>name                        starts an object record
    S<TAB>state[<TAB>{ing1,ing2}]     adds a state (optional ingredient set)
    M<TAB>label[<TAB>rate]            the unit's single motion
    //                                terminates the functional unit

Object records before the M line are the unit's inputs, after it outputs.
`#` starts a comment; comments and blank lines are ignored everywhere.
Kitchen files reuse the O/S grammar without motion lines. Task trees are
ordinary subgraphs plus `# goal:` / `# algorithm:` trailer comments, so a
saved tree can be re-parsed, re-merged, or re-verified like any subgraph.
"""

import re

from .core import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    TaskTree,
    normalize_label,
    tree_unit_violation,
    verify_task_tree,
)

__all__ = [
    "ParseError",
    "export_dot",
    "parse_kitchen",
    "parse_subgraph",
    "serialize_graph",
    "serialize_task_tree",
]


class ParseError(Exception):
    """A format error at a specific 1-based line of a named source."""

    def __init__(self, source: str, line: int, reason: str):
        super().__init__(f"{source}:{line}: {reason}")
        self.source = source
        self.line = line
        self.reason = reason


def _label(raw: str, what: str, nodes: dict) -> str:
    return nodes.get(raw) or nodes.setdefault(raw, normalize_label(raw, what))


def _parse_ingredients(field: str, nodes: dict) -> tuple:
    if len(field) < 2 or field[0] != "{" or field[-1] != "}":
        raise ValueError(f"ingredient set {field!r} must be {{a,b,...}}")
    inner = field[1:-1]
    if not inner.strip():
        raise ValueError("empty ingredient set")
    return tuple(_label(part, "ingredient label", nodes) for part in inner.split(","))


def _line(raw: str, nodes: dict, orphan: bool):
    """The record of one raw line, read field by field; None for a blank or comment line.

    An O line gives ("O", name) and an S line ("S", state or None, ingredients),
    labels normalized; an M line gives its fields, which :func:`_motion` checks,
    and "//" gives ("//",). With orphan no object is open: an S line fails first.
    """
    record = raw.split("#", 1)[0].strip()
    if not record:
        return None
    fields = record.split("\t")
    tag = fields[0]
    if tag == "S":
        if orphan:
            raise ValueError("S line without a preceding O line")
        if len(fields) not in (2, 3):
            raise ValueError("S line must be 'S<TAB>state' or 'S<TAB>state<TAB>{ings}'")
        ingredients = _parse_ingredients(fields[2], nodes) if len(fields) == 3 else ()
        # blank only beside an ingredient set: the stripped record ends in it
        state = fields[1]
        return "S", _label(state, "state label", nodes) if state.strip() else None, ingredients
    if tag == "O":
        if len(fields) != 2:
            raise ValueError("O line must be 'O<TAB>name'")
        return "O", _label(fields[1], "object name", nodes)
    if record == "//":
        return ("//",)
    if tag == "M":
        return tuple(fields)
    raise ValueError(f"unrecognized record {tag!r}")


def _object(name: str, states: list, ingredients: set, nodes: dict) -> ObjectNode:
    """A new ObjectNode whose label sets are shared through the table, keyed by themselves."""
    sets = (frozenset(states), frozenset(ingredients))
    return ObjectNode._normalized(name, *(nodes.setdefault(s, frozenset(sorted(s))) for s in sets))


def _motion(fields: tuple, nodes: dict) -> MotionNode:
    """An M line's MotionNode, interned by its fields, so ``-0.0`` stays apart from ``0.0``."""
    if fields in nodes:
        return nodes[fields]
    if len(fields) not in (2, 3):
        raise ValueError("M line must be 'M<TAB>label' or 'M<TAB>label<TAB>rate'")
    label = _label(fields[1], "motion label", nodes)
    rate = 1.0
    if len(fields) == 3:
        try:
            rate = float(fields[2])
        except ValueError:
            raise ValueError(f"success rate {fields[2]!r} is not a number") from None
    return nodes.setdefault(fields, MotionNode(label, rate))


def _units(text: str, source: str, nodes: dict, start: int, kitchen: bool = False) -> list:
    """The line loop: the units of text, whose first line is line start; with kitchen, its objects.

    The one record loop. A kitchen's M lines are errors, its ``//`` lines end no
    unit. An error is a ParseError on the line read; "unterminated" on the last record.
    """
    units, objs, name, motion = [], [], None, None
    for line_no, raw in enumerate(text.split("\n"), start):
        try:
            record = _line(raw, nodes, name is None)
            if record is None:
                continue
            tag = record[0]
            if tag == "S":
                if record[1]:
                    states.append(record[1])
                contents.update(record[2])
                last = line_no
            else:
                if name is not None:
                    objs.append(_object(name, states, contents, nodes))
                    name = None
                if tag == "O":
                    name, states, contents, last = record[1], [], set(), line_no
                elif tag == "M":
                    if kitchen:
                        raise ValueError("motion line not allowed in kitchen file")
                    if motion is not None:
                        raise ValueError("unit has more than one motion line")
                    if not objs:
                        raise ValueError("unit has no inputs")
                    motion = _motion(record, nodes)
                    split, last = len(objs), line_no
                elif not kitchen:
                    # "//" ends a unit; an M line needs inputs, so one without inputs is empty
                    if not objs:
                        raise ValueError("empty functional unit")
                    if motion is None:
                        raise ValueError("unit has no motion line")
                    if len(objs) == split:
                        raise ValueError("unit has no outputs")
                    units.append(FunctionalUnit._trusted(
                        tuple(objs[:split]), motion, tuple(objs[split:])))
                    objs, motion = [], None
        except ValueError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    if name is not None:
        objs.append(_object(name, states, contents, nodes))
    if kitchen:
        return objs
    if objs:
        raise ParseError(source, last, "unterminated unit (missing //)")
    return units


_HEADER = re.compile(r"(?:#[^\n]*\n)*")  # a file's leading comment lines
# a unit block as serialize_graph writes it: O/S lines from an O line on, one M
# line, O/S lines from an O line on, "//"; a side's group follows its first "O\t"
_CANONICAL = re.compile(r"O\t(?P<inputs>[^\n]*(?:\n[OS]\t[^\n]*)*)\n(?P<motion>M\t[^\n]*)\n"
                        r"O\t(?P<outputs>[^\n]*(?:\n[OS]\t[^\n]*)*)\n//")


def _side(objects: str, nodes: dict) -> tuple:
    """A block side's nodes, keyed by their texts after ``O\\t``; the line loop reads new ones."""
    side = []
    for text in objects.split("\nO\t"):
        key = text + "\n"
        side.append(nodes.get(key) or nodes.setdefault(
            key, _units("O\t" + text, "", nodes, 1, kitchen=True)[0]))
    return tuple(side)


def _block_units(block: str, source: str, nodes: dict, line: int) -> tuple:
    """The units of one block through its ``//``: object by object if canonical, else by lines."""
    shape = _CANONICAL.fullmatch(block)
    if shape:
        try:
            inputs = _side(shape["inputs"], nodes)
            motion = _motion(_line(shape["motion"], nodes, False), nodes)
            return (FunctionalUnit._trusted(inputs, motion, _side(shape["outputs"], nodes)),)
        except (ValueError, ParseError):
            pass  # the line loop raises the error at its line
    return tuple(_units(block, source, nodes, line))


def parse_subgraph(text: str, source: str = "<string>", nodes: dict | None = None) -> list:
    """Parse the subgraph format into a list of FunctionalUnit in file order, duplicates kept.

    nodes is the intern table, a plain dict owned by the caller (fresh if
    None). Shared by the parses of many files, as ``foon merge`` does, it
    reads each distinct label, object and block once across all of them.
    Each of its five kinds of key has one owner that reads and writes it:
    :func:`_label` a raw label, :func:`_object` a label set, :func:`_side`
    an object's text after its ``O\\t`` closed with a newline,
    :func:`_motion` an M line's fields, and this loop a block through its
    ``//`` line, past the leading ``#`` lines. A label has no tab or
    newline, an object text ends in ``\\n``, a block in ``\\n//``, fields
    are tuples and label sets frozensets, so no two kinds of key meet.

    A new block in the shape :func:`serialize_graph` writes (``_CANONICAL``)
    is read from the pattern's three groups, its inputs, motion line and
    outputs, object by object, a new object through the line loop. Any other
    block, or one whose line or unit fails, runs the line loop, the only
    code that raises ParseError to a caller. So units and errors, lines
    included, are the same with or without a table. Equal nodes read from
    differently spelled text are equal but may be separate instances;
    canonical text gives one per node. Text after the last ``//`` line, and
    lines that only look like one (``// # end``, CRLF), run the loop too.
    Every value but the empty set is truthy:
    ``nodes.get(key) or nodes.setdefault(key, build(...))`` builds on a miss only.
    """
    nodes = {} if nodes is None else nodes
    units = []
    pos = _HEADER.match(text).end()
    line = text.count("\n", 0, pos) + 1
    end = text.find("\n//\n", pos)
    while end >= 0:
        block = text[pos : end + 3]
        units += nodes.get(block) or nodes.setdefault(
            block, _block_units(block, source, nodes, line))
        line += block.count("\n") + 1
        pos = end + 4
        end = text.find("\n//\n", pos)
    return units + _units(text[pos:], source, nodes, line)


def parse_kitchen(text: str, source: str = "<string>") -> Kitchen:
    """Parse a kitchen file (O/S grammar, no motions; `//` lines optional) into a Kitchen."""
    return Kitchen.from_nodes(_units(text, source, {}, 1, kitchen=True))


def _object_text(obj: ObjectNode) -> str:
    """The O/S lines of obj as one string, built once and kept on the node, beside its key."""
    text = getattr(obj, "_text", None)
    if text is None:
        lines = [f"O\t{obj.name}"]
        ing_field = ""
        if obj.ingredients:
            ing_field = "\t{" + ",".join(sorted(obj.ingredients)) + "}"
        states = sorted(obj.states)
        if states:
            # full ingredient set rides on the first S line
            lines.append(f"S\t{states[0]}{ing_field}")
            lines.extend(f"S\t{state}" for state in states[1:])
        elif ing_field:
            lines.append(f"S\t{ing_field}")
        text = "\n".join(lines)
        object.__setattr__(obj, "_text", text)
    return text


def _unit_text(unit: FunctionalUnit) -> str:
    """The lines of unit through its ``//``, kept on it as :func:`_object_text` keeps a node's."""
    # never stale: the fields are frozen, and a raised rate replaces the unit (FoonGraph._add)
    text = getattr(unit, "_text", None)
    if text is None:
        motion = f"M\t{unit.motion.label}\t{unit.motion.success_rate!r}"
        lines = [*map(_object_text, unit.inputs), motion, *map(_object_text, unit.outputs), "//"]
        text = "\n".join(lines)
        object.__setattr__(unit, "_text", text)
    return text


def serialize_graph(graph: FoonGraph) -> str:
    """Canonical text for a graph; parse_subgraph inverts it exactly."""
    return "\n".join(["# foon subgraph", *map(_unit_text, graph.units), ""])


def serialize_task_tree(graph: FoonGraph, tree: TaskTree, kitchen=None, algorithm=None) -> str:
    """Emit a task tree as a subgraph with goal/algorithm trailer comments.

    The tree is verified first, with a kitchen fully, else by the graph-local
    checks alone; an invalid tree raises ValueError carrying the violation.
    """
    if kitchen is None:
        violation = tree_unit_violation(graph, tree, graph.node_index)
    else:
        violation = verify_task_tree(graph, tree, kitchen, tree.goal_key)
    if violation is not None:
        raise ValueError(str(violation))
    units = [_unit_text(graph.units[uid]) for uid in tree.unit_ids]
    lines = ["# foon task tree", *units, f"# goal: {tree.goal_key}"]
    if algorithm is not None:
        lines.append(f"# algorithm: {algorithm}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: FoonGraph) -> str:
    """Render the bipartite digraph in DOT: green circle objects, red square motions.

    Vertices are o<node id> and m<unit id>: one per motion occurrence.
    """
    lines = ["digraph foon {", "  rankdir=LR;", "  node [style=filled];"]
    for nid, obj in enumerate(graph.nodes):
        parts = [_dot_escape(obj.name)]
        if obj.states:
            parts.append("(" + ", ".join(_dot_escape(s) for s in sorted(obj.states)) + ")")
        if obj.ingredients:
            parts.append("[" + ", ".join(_dot_escape(i) for i in sorted(obj.ingredients)) + "]")
        label = "\\n".join(parts)
        lines.append(f'  o{nid} [shape=circle, fillcolor=green, label="{label}"];')
    for uid, unit in enumerate(graph.units):
        label = f"{_dot_escape(unit.motion.label)}\\n{unit.motion.success_rate!r}"
        lines.append(f'  m{uid} [shape=square, fillcolor=red, label="{label}"];')
    for uid, (inputs, outputs) in enumerate(zip(graph.input_ids, graph.output_ids)):
        lines += (f"  o{nid} -> m{uid};" for nid in inputs)
        lines += (f"  m{uid} -> o{nid};" for nid in outputs)
    lines.append("}")
    return "\n".join(lines) + "\n"
