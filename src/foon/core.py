"""Core FOON domain types: object/motion nodes, functional units, graphs.

A FOON is a bipartite digraph. Object nodes (an object name plus state
attributes, optionally containing ingredients) connect to motion nodes and
back; one motion with its surrounding inputs and outputs forms a functional
unit, the atomic action of the network.
"""

from dataclasses import dataclass
from math import inf

__all__ = [
    "AddResult",
    "FoonGraph",
    "FunctionalUnit",
    "Kitchen",
    "MotionNode",
    "ObjectNode",
    "TaskTree",
    "TreeViolation",
    "merge",
    "normalize_label",
    "verify_task_tree",
]

# Structural characters of the key/goal grammar and the file format.
# Tab and newline are field/record separators; the rest would make the
# canonical key text ambiguous or break comment stripping.
_FORBIDDEN_CHARS = set("\t\n{}[],#")


def normalize_label(text: str, what: str = "label") -> str:
    """Trim, lowercase and collapse whitespace; ValueError if empty or structural characters."""
    if not isinstance(text, str):
        raise ValueError(f"{what} must be a string, got {type(text).__name__}")
    normalized = " ".join(text.split()).lower()
    if not normalized:
        raise ValueError(f"{what} is empty")
    bad = _FORBIDDEN_CHARS.intersection(normalized)
    if bad:
        shown = "".join(sorted(bad))
        raise ValueError(f"{what} {normalized!r} contains forbidden character(s) {shown!r}")
    return normalized


@dataclass(frozen=True)
class ObjectNode:
    """An object in a specific state set, optionally containing ingredients.

    Identity is (name, states, ingredients); two nodes are the same node
    exactly when all three match. States and ingredients are unordered.
    ``key`` is the canonical identity text, e.g. ``bowl{clean,empty}[salt]``,
    set once at construction.
    """

    name: str
    states: frozenset = frozenset()
    ingredients: frozenset = frozenset()

    def __post_init__(self):
        self._set(
            normalize_label(self.name, "object name"),
            frozenset(sorted({normalize_label(s, "state label") for s in self.states})),
            frozenset(sorted({normalize_label(i, "ingredient label") for i in self.ingredients})),
        )

    @classmethod
    def _normalized(cls, name: str, states: frozenset, ingredients: frozenset) -> "ObjectNode":
        """The node of normalized labels, each set built from them sorted; none is checked."""
        node = object.__new__(cls)
        node._set(name, states, ingredients)
        return node

    def _set(self, name, states, ingredients):
        # frozensets built from sorted labels iterate, and so print, alike
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "ingredients", ingredients)
        key = name
        if states:
            key += "{" + ",".join(sorted(states)) + "}"
        if ingredients:
            key += "[" + ",".join(sorted(ingredients)) + "]"
        object.__setattr__(self, "key", key)


@dataclass(frozen=True)
class MotionNode:
    """A manipulation motion label with a success rate in [0, 1]."""

    label: str
    success_rate: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "label", normalize_label(self.label, "motion label"))
        rate = self.success_rate
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise ValueError(f"success rate must be a number, got {rate!r}")
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"success rate {rate!r} outside [0, 1]")
        object.__setattr__(self, "success_rate", rate)


@dataclass(frozen=True)
class FunctionalUnit:
    """One atomic action: input object nodes -> motion -> output object nodes.

    Inputs and outputs are non-empty and duplicate-free per side.
    ``input_keys`` and ``output_keys`` hold each side's node keys in order;
    they and :meth:`identity` are built once, at construction.
    """

    inputs: tuple
    motion: MotionNode
    outputs: tuple

    def __post_init__(self):
        inputs, outputs = tuple(self.inputs), tuple(self.outputs)
        if not inputs:
            raise ValueError("functional unit has no inputs")
        if not outputs:
            raise ValueError("functional unit has no outputs")
        self._set(inputs, self.motion, outputs)

    @classmethod
    def _trusted(cls, inputs: tuple, motion: MotionNode, outputs: tuple) -> "FunctionalUnit":
        """The unit of two non-empty tuples of nodes; only repeated nodes are checked."""
        unit = object.__new__(cls)
        unit._set(inputs, motion, outputs)
        return unit

    def _set(self, inputs, motion, outputs):
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "motion", motion)
        object.__setattr__(self, "outputs", outputs)
        ordered = []
        for side, objs in (("input", inputs), ("output", outputs)):
            keys = tuple([obj.key for obj in objs])
            if len(set(keys)) < len(keys):
                repeat = next(key for pos, key in enumerate(keys) if key in keys[:pos])
                raise ValueError(f"duplicate {side} node {repeat}")
            object.__setattr__(self, side + "_keys", keys)
            in_order = tuple(sorted(keys))
            ordered.append(keys if in_order == keys else in_order)  # a sorted side is shared
        # not a field: equality, hash and repr read the three fields alone
        object.__setattr__(self, "_identity", (ordered[0], motion.label, ordered[1]))

    def identity(self) -> tuple:
        """Dedup key: (sorted input keys, motion label, sorted output keys)."""
        return self._identity


@dataclass(frozen=True)
class AddResult:
    """Outcome of adding a unit: the unit's id, and whether it was new."""

    unit_id: int
    added: bool


class FoonGraph:
    """Insertion-ordered, deduplicated set of functional units plus indexes.

    Node and unit ids are dense integers in first-appearance order, which
    makes every downstream algorithm deterministic. Construction is
    single-writer; after it the graph may be shared by concurrent readers.

    Indexed by node id, ``producers`` and ``consumers`` list the units that
    output, or take as input, that node, in insertion order. Indexed by unit
    id, ``input_ids`` and ``output_ids`` hold its node ids per side, in order.
    :meth:`add_unit` keeps these and the index behind :meth:`keys_named`,
    and resets two caches built on first use: the depth table and fire
    layers of the last kitchen (:meth:`min_depths`, :meth:`fire_layers`),
    and the memo behind :meth:`greedy_picks`. Each is replaced in a single
    assignment or holds only entries that every reader computes alike, so
    a concurrent reader sees an old or a new answer, never the layers of
    one kitchen filed under another.
    """

    def __init__(self):
        self.units: list[FunctionalUnit] = []
        self.nodes: list[ObjectNode] = []
        self.node_index: dict[str, int] = {}
        self.producers: list[list[int]] = []
        self.consumers: list[list[int]] = []
        self.input_ids: list[tuple] = []
        self.output_ids: list[tuple] = []
        self._unit_index: dict[tuple, int] = {}
        self._names: dict[str, list[str]] = {}
        self._kitchen = None
        self._picks = {}

    @classmethod
    def from_units(cls, units) -> "FoonGraph":
        graph = cls()
        for unit in units:
            graph._add(unit)
        return graph

    def _register(self, objs) -> tuple:
        ids = []
        for obj in objs:
            nid = self.node_index.get(obj.key)
            if nid is None:
                nid = self.node_index[obj.key] = len(self.nodes)
                self.nodes.append(obj)
                self.producers.append([])
                self.consumers.append([])
                self._names.setdefault(obj.name, []).append(obj.key)
            ids.append(nid)
        return tuple(ids)

    def add_unit(self, unit: FunctionalUnit) -> AddResult:
        """Append a unit unless an identical one exists (union semantics).

        A duplicate only raises the stored unit's rate to the maximum of the two.
        """
        count = len(self.units)
        return AddResult(self._add(unit), len(self.units) > count)

    def _add(self, unit: FunctionalUnit) -> int:
        ident = unit.identity()
        existing = self._unit_index.get(ident)
        if existing is not None:
            stored = self.units[existing]
            if unit.motion.success_rate > stored.motion.success_rate:
                # Replace rather than mutate: unit objects may be shared
                # with other graphs after merge().
                self.units[existing] = FunctionalUnit._trusted(
                    stored.inputs,
                    MotionNode(stored.motion.label, unit.motion.success_rate),
                    stored.outputs,
                )
                # h1 reads the rate; depths do not
                self._picks = {}
            return existing
        uid = len(self.units)
        self.units.append(unit)
        self._unit_index[ident] = uid
        self._kitchen, self._picks = None, {}
        inputs, outputs = self._register(unit.inputs), self._register(unit.outputs)
        for nid in inputs:
            self.consumers[nid].append(uid)
        for nid in outputs:
            self.producers[nid].append(uid)
        self.input_ids.append(inputs)
        self.output_ids.append(outputs)
        return uid

    def producers_of(self, key: str) -> list[int]:
        """Unit ids whose outputs contain the key, in insertion order."""
        nid = self.node_index.get(key)
        return [] if nid is None else list(self.producers[nid])

    def consumers_of(self, key: str) -> list[int]:
        """Unit ids whose inputs contain the key, in insertion order."""
        nid = self.node_index.get(key)
        return [] if nid is None else list(self.consumers[nid])

    def keys_named(self, name: str) -> list:
        """Keys of the graph's nodes whose bare name is name, in insertion order.

        The list is the live index entry, which grows with the graph; do not mutate it.
        """
        return self._names.get(name, [])

    def greedy_picks(self, heuristic) -> dict:
        """The memo of greedy producer picks under heuristic: node id -> unit id."""
        return self._picks.setdefault(heuristic, {})

    def _reach(self, kitchen: "Kitchen") -> tuple:
        """``(table, fire)`` of the kitchen, from one layered pass.

        Kitchen keys are at depth 0; a unit fires one layer after the
        deepest of its inputs, and each output takes the layer of the first
        unit that produces it. Over node ids (Knuth 1977, in the hypergraph
        form of Gallo et al. 1993), every unit counts its inputs not yet
        reached and fires when the count hits zero. Cached for the last kitchen.
        """
        cached = self._kitchen
        if cached is not None and (cached[0] is kitchen or cached[0] == kitchen):
            return cached[1]
        keys = list(self.node_index)
        consumers, output_ids = self.consumers, self.output_ids
        missing = [len(ids) for ids in self.input_ids]
        fire = [inf] * len(missing)
        table = dict.fromkeys(kitchen.items, 0)
        frontier = [self.node_index[k] for k in kitchen.items if k in self.node_index]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for nid in frontier:
                for uid in consumers[nid]:
                    missing[uid] -= 1
                    if not missing[uid]:
                        fire[uid] = depth
                        for out in output_ids[uid]:
                            if keys[out] not in table:
                                table[keys[out]] = depth
                                reached.append(out)
            frontier = reached
        self._kitchen = (kitchen, (table, fire))
        return table, fire

    def min_depths(self, kitchen: "Kitchen") -> dict:
        """Fewest unit layers that reach each key from the kitchen; unreachable keys are absent."""
        return self._reach(kitchen)[0]

    def fire_layers(self, kitchen: "Kitchen") -> list:
        """``fire[uid]``: the layer unit ``uid`` fires in, or one shared ``inf``; read-only."""
        return self._reach(kitchen)[1]

    def find_unit(self, unit: FunctionalUnit):
        """Id of the stored unit with the same identity, or None."""
        return self._unit_index.get(unit.identity())


def merge(graphs) -> FoonGraph:
    """Union of all units across graphs, deduplicated, first-occurrence order."""
    return FoonGraph.from_units(unit for graph in graphs for unit in graph.units)


@dataclass(frozen=True)
class Kitchen:
    """The set of object-node identity keys available to the robot."""

    items: frozenset = frozenset()

    def __post_init__(self):
        items = frozenset(self.items)
        object.__setattr__(self, "items", items)
        names = {}
        for key in sorted(items):
            # a key's bare name is the text before its first { or [
            names.setdefault(key.partition("{")[0].partition("[")[0], []).append(key)
        # not a field: equality, hash and repr read items alone
        object.__setattr__(self, "_names", names)

    def __contains__(self, key: str) -> bool:
        return key in self.items

    def keys_named(self, name: str) -> list:
        """Kitchen keys whose bare name is name, sorted; do not mutate the list."""
        return self._names.get(name, [])

    @classmethod
    def from_nodes(cls, nodes) -> "Kitchen":
        return cls(frozenset(node.key for node in nodes))


@dataclass(frozen=True)
class TaskTree:
    """An ordered, executable sequence of unit ids achieving a goal key."""

    unit_ids: tuple
    goal_key: str

    def __post_init__(self):
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))


@dataclass(frozen=True)
class TreeViolation:
    """First point where a task tree breaks: unit position plus reason."""

    position: int
    reason: str

    def __str__(self) -> str:
        return f"invalid task tree at unit position {self.position}: {self.reason}"


def verify_task_tree(graph: FoonGraph, tree: TaskTree, kitchen: Kitchen, goal: str):
    """Check executability (:func:`tree_unit_violation`) and goal coverage; None if valid.

    Goal coverage: some unit in the tree outputs the goal, or the tree is
    empty and the kitchen holds it. An empty tree failing it reports
    position 0, a non-empty one the position just past its end.
    """
    return tree_unit_violation(graph, tree, kitchen.items, goal)


def tree_unit_violation(graph: FoonGraph, tree: TaskTree, items, goal=None):
    """First unit of the tree that breaks, in order, else a missed goal; None if neither.

    A unit breaks when its id is unknown to the graph, repeats an earlier
    one, or has an input node that no earlier unit outputs and whose key is
    not in items. items is only read; goal coverage is checked only with a goal.
    """
    nodes, input_ids, output_ids = graph.nodes, graph.input_ids, graph.output_ids
    seen = set()
    produced = set()
    for pos, uid in enumerate(tree.unit_ids):
        if not isinstance(uid, int) or uid < 0 or uid >= len(input_ids):
            return TreeViolation(pos, f"unknown unit id {uid!r}")
        if uid in seen:
            return TreeViolation(pos, f"duplicate unit id {uid}")
        seen.add(uid)
        for nid in input_ids[uid]:
            if nid not in produced and nodes[nid].key not in items:
                return TreeViolation(pos, f"input {nodes[nid].key} not available")
        produced.update(output_ids[uid])
    if goal is None or graph.node_index.get(goal) in produced or (
            not tree.unit_ids and goal in items):
        return None
    if tree.unit_ids:
        return TreeViolation(len(tree.unit_ids), f"goal {goal} is never produced")
    return TreeViolation(0, f"goal {goal} not available in kitchen")
