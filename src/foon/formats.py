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


def _parse_ingredients(field: str, nodes: dict, source, line_no) -> list:
    if len(field) < 2 or field[0] != "{" or field[-1] != "}":
        raise ParseError(source, line_no, f"ingredient set {field!r} must be {{a,b,...}}")
    inner = field[1:-1]
    if not inner.strip():
        raise ParseError(source, line_no, "empty ingredient set")
    return [
        nodes.get(part) or _normalized(part, "ingredient label", nodes, source, line_no)
        for part in inner.split(",")
    ]


def _normalized(raw: str, what: str, nodes: dict, source, line_no) -> str:
    """Normalize a label that missed the table, and remember it if it is valid."""
    try:
        label = normalize_label(raw, what)
    except ValueError as exc:
        raise ParseError(source, line_no, str(exc)) from None
    nodes[raw] = label
    return label


def _object(name: str, states: list, ingredients: set, nodes: dict) -> ObjectNode:
    key = (name, frozenset(states), frozenset(ingredients))
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = ObjectNode(*key)
    return node


def _records(text: str, source: str, nodes: dict):
    """Yield (line number, tag, value) records, minus comments and blanks.

    An O line and the S lines after it fold into one ("O", ObjectNode)
    record numbered by its last line. M lines yield ("M", fields) and unit
    separators ("//", None). Labels are checked on the line that holds
    them, so every ParseError names its own line.

    nodes is the intern table, a plain dict owned by the caller. It maps
    each raw label that passed validation to its normalized text, and each
    normalized (name, states, ingredients) to its one ObjectNode, so a
    label is normalized, and a node built, once per table however often
    the text repeats them. A label missing from the table is checked in
    full, and only a valid one enters it, so the table never changes what
    a text parses to or which error it reports. A normalized label is never
    empty, so ``nodes.get(raw) or ...`` falls through on a miss only.
    """
    name = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        record = raw.split("#", 1)[0].strip()
        if not record:
            continue
        fields = record.split("\t")
        tag = fields[0]
        if tag == "S":
            if name is None:
                raise ParseError(source, line_no, "S line without a preceding O line")
            if len(fields) not in (2, 3):
                raise ParseError(
                    source, line_no, "S line must be 'S<TAB>state' or 'S<TAB>state<TAB>{ings}'"
                )
            if len(fields) == 3:
                ingredients.update(_parse_ingredients(fields[2], nodes, source, line_no))
            state = fields[1]
            # blank only beside an ingredient set: the stripped record ends in it
            if state.strip():
                states.append(
                    nodes.get(state) or _normalized(state, "state label", nodes, source, line_no)
                )
            last_line = line_no
            continue
        if name is not None:
            yield last_line, "O", _object(name, states, ingredients, nodes)
            name = None
        if tag == "O":
            if len(fields) != 2:
                raise ParseError(source, line_no, "O line must be 'O<TAB>name'")
            name = nodes.get(fields[1]) or _normalized(
                fields[1], "object name", nodes, source, line_no
            )
            states, ingredients, last_line = [], set(), line_no
        elif record == "//":
            yield line_no, "//", None
        elif tag == "M":
            yield line_no, "M", fields
        else:
            raise ParseError(source, line_no, f"unrecognized record {tag!r}")
    if name is not None:
        yield last_line, "O", _object(name, states, ingredients, nodes)


def _motion(fields: list, nodes: dict, source, line_no) -> MotionNode:
    if len(fields) not in (2, 3):
        raise ParseError(source, line_no, "M line must be 'M<TAB>label' or 'M<TAB>label<TAB>rate'")
    label = nodes.get(fields[1]) or _normalized(fields[1], "motion label", nodes, source, line_no)
    rate = 1.0
    if len(fields) == 3:
        try:
            rate = float(fields[2])
        except ValueError:
            raise ParseError(source, line_no, f"success rate {fields[2]!r} is not a number") from None
    try:
        return MotionNode(label, rate)
    except ValueError as exc:
        raise ParseError(source, line_no, str(exc)) from None


def parse_subgraph(text: str, source: str = "<string>", nodes: dict | None = None) -> list:
    """Parse the subgraph format into a list of FunctionalUnit in file order.

    Duplicates are preserved; deduplication is FoonGraph's job.

    nodes is the intern table that :func:`_records` describes; a fresh one
    is made when none is given. Passing one dict to the parses of many
    files, as ``foon merge`` does, normalizes each distinct label and builds
    each distinct node once across all of them. Motions are interned in the
    same table by their raw M fields, so the rate keeps its spelling
    (``-0.0`` stays apart from ``0.0``). The table never changes the result:
    units, keys and errors are the same with or without it.
    """
    if nodes is None:
        nodes = {}
    units: list = []
    inputs: list = []
    outputs: list = []
    motion = None
    for line_no, tag, value in _records(text, source, nodes):
        if tag == "//":
            # an M line needs inputs, so a unit without inputs has no records
            if not inputs:
                raise ParseError(source, line_no, "empty functional unit")
            if motion is None:
                raise ParseError(source, line_no, "unit has no motion line")
            if not outputs:
                raise ParseError(source, line_no, "unit has no outputs")
            try:
                units.append(FunctionalUnit(tuple(inputs), motion, tuple(outputs)))
            except ValueError as exc:
                raise ParseError(source, line_no, str(exc)) from None
            inputs, outputs, motion = [], [], None
            continue
        if tag == "O":
            (outputs if motion is not None else inputs).append(value)
        else:
            if motion is not None:
                raise ParseError(source, line_no, "unit has more than one motion line")
            if not inputs:
                raise ParseError(source, line_no, "unit has no inputs")
            # the fields start with "M", so they never equal a label or node key
            key = tuple(value)
            motion = nodes.get(key)
            if motion is None:
                motion = nodes[key] = _motion(value, nodes, source, line_no)

    if inputs:
        raise ParseError(source, line_no, "unterminated unit (missing //)")
    return units


def parse_kitchen(text: str, source: str = "<string>") -> Kitchen:
    """Parse a kitchen file (O/S grammar, no motions) into a Kitchen.

    Duplicate items collapse silently; `//` separators are tolerated but
    not required.
    """
    keys = set()
    for line_no, tag, value in _records(text, source, {}):
        if tag == "O":
            keys.add(value.key)
        elif tag == "M":
            raise ParseError(source, line_no, "motion line not allowed in kitchen file")
    return Kitchen(frozenset(keys))


def _object_lines(obj: ObjectNode) -> list:
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
    return lines


def _object_text(obj: ObjectNode) -> str:
    """The O/S lines of obj as one string, built once per node.

    The text is kept on the node itself, beside its key, so it lives
    exactly as long as the node: a node shared by many units, graphs
    or trees is written from one string, and no table outlives the graph.
    """
    text = obj.__dict__.get("_text")
    if text is None:
        text = obj.__dict__["_text"] = "\n".join(_object_lines(obj))
    return text


def _unit_lines(unit: FunctionalUnit) -> list:
    lines = [_object_text(obj) for obj in unit.inputs]
    lines.append(f"M\t{unit.motion.label}\t{unit.motion.success_rate!r}")
    lines.extend(_object_text(obj) for obj in unit.outputs)
    lines.append("//")
    return lines


def serialize_graph(graph: FoonGraph) -> str:
    """Canonical text for a graph; parse_subgraph inverts it exactly."""
    lines = ["# foon subgraph"]
    for unit in graph.units:
        lines.extend(_unit_lines(unit))
    return "\n".join(lines) + "\n"


def serialize_task_tree(graph: FoonGraph, tree: TaskTree, kitchen=None, algorithm=None) -> str:
    """Emit a task tree as a subgraph with goal/algorithm trailer comments.

    With a kitchen the tree is fully verified first; without one only the
    graph-local checks (known ids, no repeats) can fail, since every input
    of a graph unit is a graph node. Invalid trees raise ValueError carrying
    the violation.
    """
    if kitchen is None:
        violation = tree_unit_violation(graph, tree, graph.node_index)
    else:
        violation = verify_task_tree(graph, tree, kitchen, tree.goal_key)
    if violation is not None:
        raise ValueError(str(violation))
    lines = ["# foon task tree"]
    for uid in tree.unit_ids:
        lines.extend(_unit_lines(graph.units[uid]))
    lines.append(f"# goal: {tree.goal_key}")
    if algorithm is not None:
        lines.append(f"# algorithm: {algorithm}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: FoonGraph) -> str:
    """Render the bipartite digraph in DOT: green circle objects, red square motions.

    Vertices are named o<node id> and m<unit id>; every motion occurrence
    gets its own vertex even when units share a label.
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
    for uid, unit in enumerate(graph.units):
        for key in unit.input_keys:
            lines.append(f"  o{graph.node_index[key]} -> m{uid};")
        for key in unit.output_keys:
            lines.append(f"  m{uid} -> o{graph.node_index[key]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
