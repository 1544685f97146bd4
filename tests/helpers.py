"""Shared test machinery: random instances and independent oracles."""

import itertools

import foon.formats

from foon import (
    GREEDY_DEAD_END,
    NO_PRODUCER,
    FoonGraph,
    FunctionalUnit,
    HeuristicKind,
    Kitchen,
    MotionNode,
    ObjectNode,
    TaskTree,
    TreeViolation,
)

_NAMES = ["bowl", "salt", "onion", "tomato", "pan", "cup", "dough", "butter", "pot", "lid"]
_STATES = ["clean", "dirty", "empty", "full", "whole", "diced", "hot", "cold", "mixed"]
_MOTIONS = ["mix", "chop", "pour", "heat", "fold", "press", "scoop", "shake"]

INF = float("inf")


def stateless(name: str) -> ObjectNode:
    return ObjectNode(name)


def random_instance(rng):
    """A retrieval problem: (graph, goal key, kitchen).

    At most 12 units over stateless keys, at most 3 producers per key.
    One graph in five may contain cycles; the rest are layered DAGs (a
    unit's inputs always index strictly below its outputs).
    """
    n_keys = rng.randint(3, 14)
    keys = [f"item{i}" for i in range(n_keys)]
    allow_cycles = rng.random() < 0.2
    produced = {key: 0 for key in keys}
    units = []
    for step in range(rng.randint(1, 12)):
        open_keys = [k for k in keys[1:] if produced[k] < 3]
        if not open_keys:
            break
        outs = rng.sample(open_keys, min(len(open_keys), rng.choice([1, 1, 2])))
        if allow_cycles:
            pool = keys
        else:
            pool = keys[: min(keys.index(k) for k in outs)]
        if not pool:
            continue
        ins = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        units.append(
            FunctionalUnit(
                tuple(stateless(k) for k in ins),
                MotionNode(f"step{step}", round(rng.random(), 3)),
                tuple(stateless(k) for k in outs),
            )
        )
        for k in outs:
            produced[k] += 1
    graph = FoonGraph.from_units(units)
    kitchen = Kitchen(frozenset(k for k in keys if rng.random() < 0.35))
    return graph, rng.choice(keys), kitchen


def random_scale_instance(rng, n_units: int):
    """A large retrieval problem: (graph, kitchen) with n_units units.

    n_units // 3 stateless keys; the first 5% are stock that no unit
    produces, and the kitchen holds about 70% of it. Each unit makes
    one key (sometimes two) from 1-3 inputs drawn from the 40 keys just
    below its first output, or, one time in twenty, from anywhere, which
    adds cycles. At 1k-10k units this gives min depths up to about 16, a
    few percent of keys with producers that cannot be reached, and stock
    keys missing from the kitchen that nothing produces.
    """
    n_keys = n_units // 3
    nodes = [stateless(f"item{i}") for i in range(n_keys)]
    stock = n_keys // 20
    units = []
    while len(units) < n_units:
        out = rng.randrange(stock, n_keys)
        outs = {out} if rng.random() < 0.8 else {out, rng.randrange(stock, n_keys)}
        pool = range(n_keys) if rng.random() < 0.05 else range(max(0, out - 40), out)
        ins = set(rng.sample(pool, min(len(pool), rng.randint(1, 3)))) - outs
        if ins:
            units.append(
                FunctionalUnit(
                    tuple(nodes[i] for i in sorted(ins)),
                    MotionNode(f"step{len(units)}", round(rng.random(), 3)),
                    tuple(nodes[i] for i in sorted(outs)),
                )
            )
    kitchen = Kitchen(frozenset(node.key for node in nodes[:stock] if rng.random() < 0.7))
    return FoonGraph.from_units(units), kitchen


def random_node(rng) -> ObjectNode:
    states = rng.sample(_STATES, rng.randint(0, 2))
    ings = rng.sample(_NAMES, rng.randint(1, 2)) if rng.random() < 0.25 else []
    return ObjectNode(rng.choice(_NAMES), frozenset(states), frozenset(ings))


def _distinct_nodes(rng, count) -> tuple:
    picked = []
    seen = set()
    for _ in range(count):
        node = random_node(rng)
        if node.key not in seen:
            seen.add(node.key)
            picked.append(node)
    return tuple(picked)


def random_textured_graph(rng) -> FoonGraph:
    """A graph with states, ingredients, and arbitrary float rates; good for
    exercising serialization and merge rather than retrieval."""
    units = []
    for _ in range(rng.randint(1, 10)):
        units.append(
            FunctionalUnit(
                _distinct_nodes(rng, rng.randint(1, 3)),
                MotionNode(rng.choice(_MOTIONS), rng.random()),
                _distinct_nodes(rng, rng.randint(1, 2)),
            )
        )
    return FoonGraph.from_units(units)


def line_loop(text: str, source: str) -> list:
    """The parser's reference: its line loop over the whole text through a fresh table."""
    return foon.formats._units(text, source, {}, 1)


def key_walk_violation(graph: FoonGraph, tree, items, goal=None):
    """The tree checker's reference: the same walk over each unit's key tuples, not node ids."""
    units = graph.units
    seen = set()
    produced = set()
    for pos, uid in enumerate(tree.unit_ids):
        if not isinstance(uid, int) or isinstance(uid, bool) or uid < 0 or uid >= len(units):
            return TreeViolation(pos, f"unknown unit id {uid!r}")
        if uid in seen:
            return TreeViolation(pos, f"duplicate unit id {uid}")
        seen.add(uid)
        unit = units[uid]
        for key in unit.input_keys:
            if key not in items and key not in produced:
                return TreeViolation(pos, f"input {key} not available")
        produced.update(unit.output_keys)
    if goal is None or goal in produced or not tree.unit_ids and goal in items:
        return None
    if tree.unit_ids:
        return TreeViolation(len(tree.unit_ids), f"goal {goal} is never produced")
    return TreeViolation(0, f"goal {goal} not available in kitchen")


def fresh_copy(graph: FoonGraph) -> FoonGraph:
    """The graph's units rebuilt from new node and motion objects, so that
    nothing cached on the old graph or its nodes carries over."""

    def copy(nodes):
        return tuple(ObjectNode(node.name, node.states, node.ingredients) for node in nodes)

    return FoonGraph.from_units(
        FunctionalUnit(copy(unit.inputs), MotionNode(unit.motion.label, unit.motion.success_rate),
                       copy(unit.outputs))
        for unit in graph.units
    )


def rate_jitter(unit: FunctionalUnit, rng) -> FunctionalUnit:
    """Same identity, different success rate."""
    return FunctionalUnit(unit.inputs, MotionNode(unit.motion.label, rng.random()), unit.outputs)


def distinct_identity_count(units) -> int:
    # quadratic on purpose: an oracle that shares no code with FoonGraph
    seen = []
    for unit in units:
        ident = unit.identity()
        if not any(ident == other for other in seen):
            seen.append(ident)
    return len(seen)


def min_layer_depths(graph: FoonGraph, kitchen: Kitchen) -> dict:
    """Fixpoint oracle: fewest functional-unit layers to reach each key.

    depth(key) = 0 when the kitchen has it, else min over producers of
    1 + max over that unit's inputs. Unreachable keys stay at infinity.
    """
    depth = {key: (0 if key in kitchen else INF) for key in graph.node_index}
    changed = True
    while changed:
        changed = False
        for unit in graph.units:
            worst = 0
            for key in unit.input_keys:
                worst = max(worst, 0 if key in kitchen else depth.get(key, INF))
            if worst == INF:
                continue
            for key in unit.output_keys:
                if key not in kitchen and worst + 1 < depth[key]:
                    depth[key] = worst + 1
                    changed = True
    return depth


def layered_reach(graph: FoonGraph, kitchen: Kitchen) -> tuple:
    """The reachability pass's reference: ``(table, fire)`` built one layer at a time.

    Each layer's newly reached node ids make the next frontier; a unit
    fires in the layer whose frontier holds its last missing input.
    """
    keys = list(graph.node_index)
    missing = [len(ids) for ids in graph.input_ids]
    fire = [INF] * len(missing)
    table = dict.fromkeys(kitchen.items, 0)
    frontier = [graph.node_index[k] for k in kitchen.items if k in graph.node_index]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for nid in frontier:
            for uid in graph.consumers[nid]:
                missing[uid] -= 1
                if not missing[uid]:
                    fire[uid] = depth
                    for out in graph.output_ids[uid]:
                        if keys[out] not in table:
                            table[keys[out]] = depth
                            reached.append(out)
        frontier = reached
    return table, fire


def joined_solve_calls(graph: FoonGraph, nid, kitchen: Kitchen, last: int) -> int:
    """The literal-loop count's reference: solve() calls at bounds 0..last.

    Grows the nodes behind nid one step per bound up to last, joining each
    node's producers' inputs in insertion order with the layer each producer
    fires in, then sums one budget at a time over the joined prefix that
    ends at the first producer to fire.
    """
    fire, items, nodes = graph.fire_layers(kitchen), kitchen.items, graph.nodes
    order = [nid]
    ends = [0, 1]  # ends[j]: how many nodes are fewer than j steps from the goal
    tried = {nid: ([], [])}
    while len(ends) <= last + 1:
        for node in order[ends[-2]:]:
            if nodes[node].key not in items:
                joined, fires_ends = tried[node]
                for uid in graph.producers[node]:
                    inputs = graph.input_ids[uid]
                    joined.extend(inputs)
                    fires_ends.append((fire[uid], len(joined)))
                    for k in inputs:
                        if k not in tried:
                            tried[k] = ([], [])
                            order.append(k)
        ends.append(len(order))
    below = dict.fromkeys(order, 1)
    total = 1
    for budget in range(1, last + 1):
        calls = {}
        for node in order[: ends[last - budget + 1]]:
            joined, fires_ends = tried[node]
            for fires, end in fires_ends:
                if fires <= budget:
                    inputs = joined[:end]
                    break
            else:
                inputs = joined
            calls[node] = 1 + sum(map(below.__getitem__, inputs))
        below = calls
        total += calls[nid]
    return total


def _first_fit_order(graph: FoonGraph, unit_ids, kitchen: Kitchen):
    # the quadratic reference for the engine's one-pass ordering: rescan
    # from the start after each placement; it shares no code with the engine
    remaining = list(unit_ids)
    available = set(kitchen.items)
    ordered = []
    while remaining:
        for pos, uid in enumerate(remaining):
            unit = graph.units[uid]
            if all(key in available for key in unit.input_keys):
                ordered.append(uid)
                available.update(unit.output_keys)
                del remaining[pos]
                break
        else:
            return None
    return ordered


def greedy_oracle(graph: FoonGraph, goal: str, kitchen: Kitchen, heuristic) -> tuple:
    """Greedy retrieval from scratch: (unit ids or None, reason or None, dequeues).

    Breadth-first from the goal; each dequeued key the kitchen lacks takes
    one producer, the highest rate under MAX_SUCCESS_RATE or the fewest
    inputs under MIN_INPUT_COUNT, the earliest in insertion order winning
    ties, and queues that unit's inputs not seen before. The picks are
    reversed, deduplicated and put in first-fit order.
    """
    def score(uid):
        unit = graph.units[uid]
        if heuristic is HeuristicKind.MAX_SUCCESS_RATE:
            return -unit.motion.success_rate
        return len(unit.inputs)

    queue = [goal]
    picks = []
    for dequeued, key in enumerate(queue, start=1):  # the list grows as it is walked
        if key in kitchen.items:
            continue
        candidates = graph.producers_of(key)
        if not candidates:
            return None, NO_PRODUCER, dequeued
        best = min(score(uid) for uid in candidates)
        uid = next(uid for uid in candidates if score(uid) == best)
        picks.append(uid)
        for input_key in graph.units[uid].input_keys:
            if input_key not in queue:
                queue.append(input_key)
    ordered = _first_fit_order(graph, list(dict.fromkeys(reversed(picks))), kitchen)
    if ordered is None:
        return None, GREEDY_DEAD_END, len(queue)
    return tuple(ordered), None, len(queue)


def oracle_enumerate(graph: FoonGraph, goal: str, kitchen: Kitchen, max_units: int) -> list:
    """Every minimal valid task tree with at most max_units units.

    Exhaustive over unit-id subsets: a subset counts when all of its units
    can be ordered executably from the kitchen, the goal is covered, and no
    valid proper subset exists (supersets of a working tree are noise, not
    different solutions). Each subset appears once, in lowest-id-first-fit
    order. Exponential in the unit count.
    """
    n = len(graph.units)
    valid: list = []
    for size in range(min(max_units, n) + 1):
        for combo in itertools.combinations(range(n), size):
            if combo:
                if not any(goal in graph.units[uid].output_keys for uid in combo):
                    continue
            elif goal not in kitchen:
                continue
            ordered = _first_fit_order(graph, combo, kitchen)
            if ordered is None:
                continue
            valid.append((frozenset(combo), tuple(ordered)))
    sets_only = [members for members, _ in valid]
    return [
        TaskTree(ordered, goal)
        for members, ordered in valid
        if not any(other < members for other in sets_only)
    ]


def goal_min_depth(graph: FoonGraph, kitchen: Kitchen, goal: str):
    if goal in kitchen:
        return 0
    return min_layer_depths(graph, kitchen).get(goal, INF)


def tree_goal_depth(graph: FoonGraph, tree, kitchen: Kitchen):
    """Layer depth of the tree's goal using only the tree's own units."""
    sub = FoonGraph.from_units(graph.units[uid] for uid in tree.unit_ids)
    return goal_min_depth(sub, kitchen, tree.goal_key)


def literal_ids(graph: FoonGraph, goal: str, kitchen: Kitchen, depth_limit=None) -> tuple:
    """Literal iterative deepening (Korf 1985): (unit ids or None, solve() calls).

    Plain recursion, so small instances only: on an unreachable goal in a
    cyclic graph the calls grow exponentially with the bound. Bounds run
    0..depth_limit (default: the unit count). solve(key, b) holds a kitchen
    key, fails at b = 0, and otherwise tries the key's producers in
    insertion order, solving every input at b-1 even after one fails, and
    commits to the first whose inputs all resolve. A goal the kitchen lacks
    and nothing produces is rejected before any call.
    """
    if depth_limit is None:
        depth_limit = len(graph.units)
    if goal not in kitchen and not graph.producers_of(goal):
        return None, 0
    calls = 0

    def solve(key, budget):
        nonlocal calls
        calls += 1
        if key in kitchen:
            return ()
        if budget == 0:
            return None
        for uid in graph.producers_of(key):
            subs = [solve(k, budget - 1) for k in graph.units[uid].input_keys]
            if None not in subs:
                return tuple(itertools.chain.from_iterable(subs)) + (uid,)
        return None

    for bound in range(depth_limit + 1):
        found = solve(goal, bound)
        if found is not None:
            return tuple(dict.fromkeys(found)), calls
    return None, calls


def uniform_bary_instance(b: int, depth: int):
    """Goal-absent instance for expansion accounting: a full b-ary key tree.

    Every non-leaf key is produced by exactly one unit whose inputs are its
    b children; leaves have no producers and the kitchen is empty, so every
    search iteration fails after expanding all keys within its budget. A
    depth of 0 still builds one layer: without any producer the search
    rejects the goal upfront instead of expanding it.
    """
    levels = max(depth, 1)
    units = []
    for level in range(levels):
        for idx in range(b**level):
            children = tuple(stateless(f"n{level + 1}x{idx * b + j}") for j in range(b))
            units.append(
                FunctionalUnit(children, MotionNode(f"build{level}x{idx}"), (stateless(f"n{level}x{idx}"),))
            )
    return FoonGraph.from_units(units), "n0x0", Kitchen()
