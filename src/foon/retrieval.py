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

from .core import FoonGraph, Kitchen, TaskTree, verify_task_tree

__all__ = [
    "DEPTH_LIMIT_EXHAUSTED",
    "GREEDY_DEAD_END",
    "NO_PRODUCER",
    "HeuristicKind",
    "RetrievalResult",
    "ids_expansion_formula",
    "retrieve_greedy",
    "retrieve_ids",
    "select_candidate",
]

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
    tree rebuild visits (so 1 for a goal already in the kitchen and 0 for
    every failure), or with memoize=False the solve() calls the literal
    loop would make; for the greedy engines, queue dequeues.
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

    Iterative deepening tries depth bounds d = 0, 1, ..., depth_limit
    (default: the unit count, a trivially sufficient bound). At each bound,
    a node resolves if it is in the kitchen, or (with budget left) if some
    producing unit, tried in insertion order and committing to the first
    success, has all inputs resolvable at budget-1. Units come back in
    dependency order with later repeats dropped.

    No bound is searched. The goal's minimum depth D comes from the graph's
    cached depth table (:meth:`FoonGraph.min_depths`); the search fails
    when D exceeds the limit, and otherwise the bound-D tree is rebuilt
    with an explicit stack: at budget b it takes the first producer whose
    inputs all have depth <= b-1, the one the search at that bound takes.

    memoize selects the expansion count only. memoize=False gives the same
    tree or reason with the solve() calls of the literal loop (Korf 1985),
    which :func:`ids_expansion_formula` predicts, worked out without making
    them in O((limit + 1) x edges behind the goal) time, the limit being D
    when the goal is found: polynomial, but an unreachable goal in a
    100k-unit graph at the default limit is still out of reach.
    """
    if depth_limit is None:
        depth_limit = len(graph.units)
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    items = kitchen.items
    nid = graph.node_index.get(goal)
    if goal not in items and (nid is None or not graph.producers[nid]):
        return RetrievalResult(None, NO_PRODUCER, 0)
    depths = graph.min_depths(kitchen)
    bound = depths.get(goal, depth_limit + 1)
    if bound > depth_limit:
        calls = 0 if memoize else _solve_calls(graph, goal, kitchen, depths, depth_limit)
        return RetrievalResult(None, DEPTH_LIMIT_EXHAUSTED, calls)

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
    tree = TaskTree(tuple(emitted), goal)
    violation = verify_task_tree(graph, tree, kitchen, goal)
    if violation is not None:
        raise RuntimeError(f"resolution produced an invalid tree: {violation}")
    calls = len(visited) if memoize else _solve_calls(graph, goal, kitchen, depths, bound)
    return RetrievalResult(tree, None, calls)


def _solve_calls(graph: FoonGraph, goal: str, kitchen: Kitchen, depths: dict, last: int):
    """solve() calls the literal iterative-deepening loop makes at bounds 0..last.

    solve(key, b) is one call, plus, unless the kitchen holds key or b is
    0, the calls on the inputs of each producer it tries at b-1: all of
    them, in insertion order up to the first whose inputs all have depth
    <= b-1. Summed bottom-up, one budget at a time, over the keys behind
    the goal; a key j steps from the goal is only solved at budgets up to
    last - j.
    """
    items, units = kitchen.items, graph.units
    order = [goal]  # breadth-first from the goal
    ends = [0, 1]  # ends[j]: how many keys are fewer than j steps from the goal
    # key -> the inputs of its producers joined in insertion order, and per
    # producer: the budget it fits from and where its inputs end in that list
    tried = {goal: ([], [])}
    while len(ends) <= last + 1:
        for key in order[ends[-2]:]:
            if key not in items:
                joined, fits_ends = tried[key]
                for uid in graph.producers_of(key):
                    inputs = units[uid].input_keys
                    joined.extend(inputs)
                    # a key absent from the table gets depth last, which never fits
                    fits_ends.append((1 + max(depths.get(k, last) for k in inputs), len(joined)))
                    for k in inputs:
                        if k not in tried:
                            tried[k] = ([], [])
                            order.append(k)
        ends.append(len(order))
    below = dict.fromkeys(order, 1)  # budget 0: one call per key
    total = 1
    for budget in range(1, last + 1):
        calls = {}
        for key in order[: ends[last - budget + 1]]:
            joined, fits_ends = tried[key]
            # the first producer that fits ends the tries; if none fits, all were tried
            for fits, end in fits_ends:
                if fits <= budget:
                    inputs = joined[:end]
                    break
            else:
                inputs = joined
            calls[key] = 1 + sum(map(below.__getitem__, inputs))
        below = calls
        total += calls[goal]
    return total


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
