"""Task-tree retrieval: iterative deepening and two greedy variants.

All three engines answer the same question: starting from the items in a
kitchen, which functional units, in what order, produce the goal node?
Retrieval is AND-OR resolution over the graph: a node is solvable if it is
in the kitchen, OR if some unit producing it has ALL of its inputs
solvable one layer down. Depth counts functional-unit layers.
"""

from collections import deque
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import chain

from .core import FoonGraph, Kitchen, TaskTree, verify_task_tree

NO_PRODUCER = "no-producer"
DEPTH_LIMIT_EXHAUSTED = "depth-limit-exhausted"
GREEDY_DEAD_END = "greedy-dead-end"


class HeuristicKind(Enum):
    MAX_SUCCESS_RATE = "max_success_rate"
    MIN_INPUT_COUNT = "min_input_count"


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of one retrieval: a tree or a failure reason, plus expansions.

    expansions counts, for iterative deepening, the (key, budget) pairs the
    tree rebuild visits on the default path (so 1 for a goal already in
    the kitchen and 0 for every failure) and solve() invocations on the
    literal loop (memoize=False); for the greedy engines, queue dequeues.
    """

    tree: TaskTree | None
    reason: str | None
    expansions: int

    def __post_init__(self):
        if (self.tree is None) == (self.reason is None):
            raise ValueError("exactly one of tree and reason must be set")

    @property
    def found(self) -> bool:
        return self.tree is not None


def retrieve_ids(graph: FoonGraph, goal: str, kitchen: Kitchen, depth_limit=None,
                 memoize: bool = True) -> RetrievalResult:
    """Iterative-deepening retrieval; returns the first tree found.

    Iterative deepening tries depth bounds d = 0, 1, ..., depth_limit. At
    each bound, a node resolves if it is in the kitchen, or (with budget
    left) if some producing unit, tried in insertion order and committing
    to the first success, has all inputs resolvable at budget-1. Units come
    back in dependency order with later repeats dropped.

    The default path gives the same tree without re-searching at every
    bound. It reads the goal's minimum depth D from the graph's cached
    depth table (:meth:`FoonGraph.min_depths`, built once per graph and
    kitchen), fails when D exceeds the limit, and otherwise rebuilds the
    bound-D tree with an explicit stack: at budget b it takes the first
    producer whose inputs all have depth <= b-1, which is exactly the
    producer the search at that bound commits to. memoize=False runs the
    literal loop instead, the reference whose expansion count the closed
    form :func:`ids_expansion_formula` predicts. It is for small graphs
    only: on an unreachable goal in a cyclic graph its cost is exponential
    in the depth bound (an 11-unit random graph took 32 s).

    depth_limit defaults to the unit count, a trivially sufficient bound.
    """
    if depth_limit is None:
        depth_limit = len(graph.units)
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    items = kitchen.items
    nid = graph.node_index.get(goal)
    if goal not in items and (nid is None or not graph.producers[nid]):
        return RetrievalResult(None, NO_PRODUCER, 0)
    if not memoize:
        return _literal_ids(graph, goal, kitchen, depth_limit)
    depths = graph.min_depths(kitchen)
    bound = depths.get(goal)
    if bound is None or bound > depth_limit:
        return RetrievalResult(None, DEPTH_LIMIT_EXHAUSTED, 0)

    producers, node_index, units = graph.producers, graph.node_index, graph.units
    emitted = {}
    visited = set()
    # an int entry emits that unit; a (key, budget) pair resolves that key
    stack = [(goal, bound)]
    while stack:
        item = stack.pop()
        if type(item) is int:
            emitted[item] = None
            continue
        if item in visited:
            continue
        visited.add(item)
        key, budget = item
        if key in items:
            continue
        for uid in producers[node_index[key]]:
            inputs = units[uid].input_keys
            # a key absent from the table gets the budget itself, which never fits
            if all(depths.get(k, budget) < budget for k in inputs):
                break
        else:
            raise RuntimeError(f"depth table has no producer for {key} at budget {budget}")
        stack.append(uid)
        stack.extend((k, budget - 1) for k in reversed(inputs))
    return _verified(graph, TaskTree(tuple(emitted), goal), kitchen, len(visited))


def _literal_ids(graph: FoonGraph, goal: str, kitchen: Kitchen, depth_limit: int):
    """The literal iterative-deepening loop; expansions counts solve() calls.

    solve yields each recursive call and is sent back its value, so the
    bound loop keeps the recursion on a list instead of the C stack.
    """
    expansions = 0

    def solve(key, budget):
        # returns a dependency-ordered tuple of unit ids, or None
        nonlocal expansions
        expansions += 1
        if key in kitchen:
            return ()
        if budget == 0:
            return None
        for uid in graph.producers[graph.node_index[key]]:
            # every input is resolved, even after one fails: the search
            # visits every child of a failed unit
            subs = []
            for k in graph.units[uid].input_keys:
                subs.append((yield solve(k, budget - 1)))
            if None not in subs:
                return tuple(chain.from_iterable(subs)) + (uid,)
        return None

    for d in range(depth_limit + 1):
        calls = [solve(goal, d)]
        found = None  # sent to the top call: a finished callee's value, or None to start it
        while calls:
            try:
                calls.append(calls[-1].send(found))
                found = None
            except StopIteration as stop:
                calls.pop()
                found = stop.value
        if found is not None:
            return _verified(graph, TaskTree(tuple(dict.fromkeys(found)), goal), kitchen,
                             expansions)
    return RetrievalResult(None, DEPTH_LIMIT_EXHAUSTED, expansions)


def _verified(graph: FoonGraph, tree: TaskTree, kitchen: Kitchen, expansions: int):
    violation = verify_task_tree(graph, tree, kitchen, tree.goal_key)
    if violation is not None:
        raise RuntimeError(f"resolution produced an invalid tree: {violation}")
    return RetrievalResult(tree, None, expansions)


def select_candidate(candidates, graph: FoonGraph, heuristic: HeuristicKind):
    """Pick one producing unit: highest success rate or fewest inputs.

    max and min keep the earliest optimum, so ties go to the lowest unit id
    when candidates arrive in insertion order.
    """
    if not candidates:
        raise ValueError("select_candidate needs at least one candidate")
    if heuristic is HeuristicKind.MAX_SUCCESS_RATE:
        return max(candidates, key=lambda uid: graph.units[uid].motion.success_rate)
    if heuristic is HeuristicKind.MIN_INPUT_COUNT:
        return min(candidates, key=lambda uid: len(graph.units[uid].inputs))
    raise ValueError(f"unknown heuristic {heuristic!r}")


def _first_fit_order(graph: FoonGraph, unit_ids, kitchen: Kitchen):
    """Reorder units so each one's inputs precede it; None if impossible.

    Stable first-fit: repeatedly take the earliest listed unit that can
    execute now. Units already in executable order come out unchanged.

    One forward pass over the listed units' keys (Kahn 1962): a unit
    that cannot execute when the walk reaches it counts its missing keys and
    waits on each; the first producer of a key releases its waiters, whose
    positions, all behind the walk, leave a min-heap before the walk moves on.
    """
    units, items = graph.units, kitchen.items
    produced = set()
    waiting = {}  # key -> positions of the units that wait for it
    missing = [0] * len(unit_ids)
    ready = []
    ordered = []
    for pos, uid in enumerate(unit_ids):
        for key in units[uid].input_keys:
            if key not in items and key not in produced:
                missing[pos] += 1
                waiting.setdefault(key, []).append(pos)
        if not missing[pos]:
            heappush(ready, pos)
        while ready:
            uid = unit_ids[heappop(ready)]
            ordered.append(uid)
            for key in units[uid].output_keys:
                # kitchen keys never have waiters
                if key not in produced:
                    produced.add(key)
                    for waiter in waiting.pop(key, ()):
                        missing[waiter] -= 1
                        if not missing[waiter]:
                            heappush(ready, waiter)
    return ordered if len(ordered) == len(unit_ids) else None


def retrieve_greedy(graph: FoonGraph, goal: str, kitchen: Kitchen,
                    heuristic: HeuristicKind) -> RetrievalResult:
    """Greedy best-first retrieval committing to one producer per node.

    Breadth-first over needed object keys: dequeue a key, and if the
    kitchen lacks it, pick ONE producing unit by the heuristic (no
    backtracking) and enqueue its unseen inputs. The collected units are
    reversed, deduplicated, and ordered by replaying them from the kitchen;
    a committed choice that cannot execute fails the whole run with
    GREEDY_DEAD_END.

    A tree that comes back is valid by construction, so it is not checked
    again: the replay makes every unit executable, deduplication rules out
    repeated ids, every pick is a producer of the graph, and the goal's own
    pick outputs the goal unless the kitchen already holds it.

    The pick for a node depends on the graph and the heuristic alone, so
    it is made once per graph and read back from
    :meth:`FoonGraph.greedy_picks` for every later goal and kitchen.
    """
    producers, node_index, items = graph.producers, graph.node_index, kitchen.items
    picks = graph.greedy_picks(heuristic)
    queue = deque([goal])
    visited = {goal}
    picked: list = []
    expansions = 0
    while queue:
        key = queue.popleft()
        expansions += 1
        if key in items:
            continue
        nid = node_index.get(key)
        uid = picks.get(nid)
        if uid is None:
            if nid is None or not producers[nid]:
                return RetrievalResult(None, NO_PRODUCER, expansions)
            uid = picks[nid] = select_candidate(producers[nid], graph, heuristic)
        picked.append(uid)
        for input_key in graph.units[uid].input_keys:
            if input_key not in visited:
                visited.add(input_key)
                queue.append(input_key)
    ordered = _first_fit_order(graph, list(dict.fromkeys(reversed(picked))), kitchen)
    if ordered is None:
        return RetrievalResult(None, GREEDY_DEAD_END, expansions)
    return RetrievalResult(TaskTree(tuple(ordered), goal), None, expansions)


def ids_expansion_formula(b: int, d: int) -> int:
    """Total solve() calls for iterative deepening on a uniform b-ary
    goal-absent instance searched through depth d: sum of (d+1-i)*b^i.

    Iteration at bound j expands every node in layers 0..j once, so the
    layer-i nodes (b^i of them) are expanded in iterations j = i..d, which
    is d+1-i times.
    """
    if b < 1:
        raise ValueError(f"branching factor must be >= 1, got {b}")
    if d < 0:
        raise ValueError(f"depth must be >= 0, got {d}")
    return sum((d + 1 - i) * b**i for i in range(d + 1))
