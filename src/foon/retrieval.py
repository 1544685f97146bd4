"""Task-tree retrieval: iterative deepening and two greedy variants.

All three engines answer the same question: starting from the items in a
kitchen, which functional units, in what order, produce the goal node?
Retrieval is AND-OR resolution over the graph: a node is solvable if it is
in the kitchen, OR if some unit producing it has ALL of its inputs
solvable one layer down. Depth counts functional-unit layers.
"""

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

    expansions counts, for iterative deepening, the (node, budget) pairs the
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

    No bound is searched: past the goal's depth D in :meth:`FoonGraph.min_depths`
    it fails, else it rebuilds the bound-D tree from ``graph.fire_layers(kitchen)``.

    memoize selects the expansion count only. memoize=False gives the same
    tree or reason with the solve() calls of the literal loop (Korf 1985),
    which :func:`ids_expansion_formula` predicts, worked out without making
    them in O((limit + 1) x edges behind the goal) time, the limit being D
    when the goal is found: polynomial, but an unreachable goal in a
    100k-unit graph at the default limit is still out of reach.
    """
    if depth_limit is None:
        depth_limit = len(graph.units)
    if not isinstance(depth_limit, int) or isinstance(depth_limit, bool) or depth_limit < 0:
        raise ValueError(f"depth_limit must be an int >= 0, got {depth_limit!r}")
    items = kitchen.items
    nid = graph.node_index.get(goal)
    if goal not in items and (nid is None or not graph.producers[nid]):
        return RetrievalResult(None, NO_PRODUCER, 0)
    bound = graph.min_depths(kitchen).get(goal, depth_limit + 1)
    if bound > depth_limit:
        calls = 0 if memoize else _solve_calls(graph, nid, kitchen, depth_limit)
        return RetrievalResult(None, DEPTH_LIMIT_EXHAUSTED, calls)

    fire = graph.fire_layers(kitchen)
    nodes, producers, input_ids = graph.nodes, graph.producers, graph.input_ids
    emitted = {}
    visited = set()
    # ~uid (negative) emits that unit; node * width + budget resolves that node
    # with budget layers left, one int per pair since budgets stay in 0..bound
    width = bound + 1
    stack = [] if goal in items else [nid * width + bound]
    while stack:
        item = stack.pop()
        if item < 0:
            emitted[~item] = None
            continue
        if item in visited:
            continue
        visited.add(item)
        node, budget = divmod(item, width)
        if nodes[node].key in items:
            continue
        for uid in producers[node]:
            if fire[uid] <= budget:
                break
        else:
            key = nodes[node].key
            raise RuntimeError(f"depth table has no producer for {key} at budget {budget}")
        stack.append(~uid)
        for k in reversed(input_ids[uid]):
            stack.append(k * width + budget - 1)
    tree = TaskTree(tuple(emitted), goal)
    violation = verify_task_tree(graph, tree, kitchen, goal)
    if violation is not None:
        raise RuntimeError(f"resolution produced an invalid tree: {violation}")
    # a goal in the kitchen is the one pair visited
    calls = (len(visited) or 1) if memoize else _solve_calls(graph, nid, kitchen, bound)
    return RetrievalResult(tree, None, calls)


def _solve_calls(graph: FoonGraph, nid, kitchen: Kitchen, last: int):
    """solve() calls the literal iterative-deepening loop makes at bounds 0..last.

    solve(node, b) is one call, plus, unless the kitchen holds node or b is
    0, the calls on the inputs of each producer it tries at b-1, up to the
    first that fires by layer b. Summed bottom-up, one budget at a time, over
    the nodes within last steps of nid, found breadth-first: a node j steps
    from it is solved at budgets <= last - j.
    """
    fire, items, nodes = graph.fire_layers(kitchen), kitchen.items, graph.nodes
    producers, input_ids = graph.producers, graph.input_ids
    steps = {nid: 0}  # node -> fewest steps from the goal
    order = [nid]
    for node in order:  # the list grows as it is walked
        if steps[node] < last and nodes[node].key not in items:
            for uid in producers[node]:
                for k in input_ids[uid]:
                    if k not in steps:
                        steps[k] = steps[node] + 1
                        order.append(k)
    below = dict.fromkeys(order, 1)  # budget 0: one call per node
    total = 1
    for budget in range(1, last + 1):
        calls = {}
        for node in order:
            if steps[node] > last - budget:
                break
            count = 1
            if nodes[node].key not in items:
                # the first producer that fires ends the tries; if none does, all were tried
                for uid in producers[node]:
                    count += sum(map(below.__getitem__, input_ids[uid]))
                    if fire[uid] <= budget:
                        break
            calls[node] = count
        below = calls
        total += calls[nid]
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
    execute now. Units already in executable order come out unchanged. One
    forward pass (Kahn 1962): a unit that cannot execute yet waits on its
    missing nodes, and the first producer of a node releases its waiters.
    A unit that can execute while nothing waits is placed at once, so the
    heap is used only while some unit waits.
    """
    items, nodes = kitchen.items, graph.nodes
    input_ids, output_ids = graph.input_ids, graph.output_ids
    produced = set()
    waiting = {}  # node id -> positions of the units that wait for it
    missing = [0] * len(unit_ids)
    ready = []
    ordered = []
    for pos, uid in enumerate(unit_ids):
        for nid in input_ids[uid]:
            if nid not in produced and nodes[nid].key not in items:
                missing[pos] += 1
                waiting.setdefault(nid, []).append(pos)
        if not missing[pos]:
            if waiting:
                heappush(ready, pos)
            else:  # the earliest unit that can run, and no waiter to release
                ordered.append(uid)
                produced.update(output_ids[uid])
        while ready:
            uid = unit_ids[heappop(ready)]
            ordered.append(uid)
            for nid in output_ids[uid]:
                # kitchen nodes never have waiters
                if nid not in produced:
                    produced.add(nid)
                    for waiter in waiting.pop(nid, ()):
                        missing[waiter] -= 1
                        if not missing[waiter]:
                            heappush(ready, waiter)
    return ordered if len(ordered) == len(unit_ids) else None


def retrieve_greedy(graph: FoonGraph, goal: str, kitchen: Kitchen,
                    heuristic: HeuristicKind) -> RetrievalResult:
    """Greedy best-first retrieval committing to one producer per node.

    Breadth-first over the node ids of needed objects: dequeue one, and if
    the kitchen lacks it, pick ONE producing unit by the heuristic (no
    backtracking) and enqueue its unseen inputs. The collected units are
    reversed, deduplicated, and ordered by replaying them from the kitchen;
    a committed choice that cannot execute fails the whole run with
    GREEDY_DEAD_END.

    A returned tree is valid by construction (replayed, deduplicated, and
    the goal's pick outputs the goal), so it is not checked again.

    A pick depends on the graph and the heuristic alone, so it is made once
    and read back from :meth:`FoonGraph.greedy_picks` for later goals.
    """
    if goal in kitchen.items:
        return RetrievalResult(TaskTree((), goal), None, 1)
    nid = graph.node_index.get(goal)
    if nid is None:
        return RetrievalResult(None, NO_PRODUCER, 1)
    items, nodes = kitchen.items, graph.nodes
    producers, input_ids = graph.producers, graph.input_ids
    picks = graph.greedy_picks(heuristic)
    queue = [nid]
    visited = {nid}
    picked: list = []
    for expansions, node in enumerate(queue, 1):  # the list grows as it is walked
        if nodes[node].key in items:
            continue
        uid = picks.get(node)
        if uid is None:
            if not producers[node]:
                return RetrievalResult(None, NO_PRODUCER, expansions)
            uid = picks[node] = select_candidate(producers[node], graph, heuristic)
        picked.append(uid)
        for input_nid in input_ids[uid]:
            if input_nid not in visited:
                visited.add(input_nid)
                queue.append(input_nid)
    ordered = _first_fit_order(graph, list(dict.fromkeys(reversed(picked))), kitchen)
    if ordered is None:
        return RetrievalResult(None, GREEDY_DEAD_END, len(queue))
    return RetrievalResult(TaskTree(tuple(ordered), goal), None, len(queue))


def ids_expansion_formula(b: int, d: int) -> int:
    """Total solve() calls of iterative deepening through depth d on a uniform
    b-ary goal-absent instance: sum of (d+1-i)*b^i, since the b^i layer-i
    nodes are expanded once in each iteration at bounds j = i..d.
    """
    if b < 1:
        raise ValueError(f"branching factor must be >= 1, got {b}")
    if d < 0:
        raise ValueError(f"depth must be >= 0, got {d}")
    return sum((d + 1 - i) * b**i for i in range(d + 1))
