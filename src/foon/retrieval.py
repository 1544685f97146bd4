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

from .core import FoonGraph, Kitchen, TaskTree, verify_task_tree

NO_PRODUCER = "no-producer"
DEPTH_LIMIT_EXHAUSTED = "depth-limit-exhausted"
GREEDY_DEAD_END = "greedy-dead-end"

_MISS = object()


class HeuristicKind(Enum):
    MAX_SUCCESS_RATE = "max_success_rate"
    MIN_INPUT_COUNT = "min_input_count"


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of one retrieval: a tree or a failure reason, plus expansions.

    expansions counts solve() invocations for iterative deepening and queue
    dequeues for the greedy engines.
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

    Tries depth bounds d = 0, 1, ..., depth_limit. At each bound, a node
    resolves if it is in the kitchen, or (with budget left) if some
    producing unit, tried in insertion order and committing to the first
    success, has all inputs resolvable at budget-1. Units come back in
    dependency order with later repeats dropped.

    depth_limit defaults to the unit count, a trivially sufficient bound.
    Memoization only caches within one depth iteration and never changes
    the result; switch it off to measure raw expansion counts.
    """
    if depth_limit is None:
        depth_limit = len(graph.units)
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    if goal not in kitchen and not graph.producers_of(goal):
        return RetrievalResult(None, NO_PRODUCER, 0)

    expansions = 0

    def solve(key, budget, memo):
        # returns a dependency-ordered tuple of unit ids, or None
        nonlocal expansions
        expansions += 1
        if memo is not None:
            hit = memo.get((key, budget), _MISS)
            if hit is not _MISS:
                return hit
        if key in kitchen:
            result = ()
        elif budget == 0:
            result = None
        else:
            result = None
            for uid in graph.producers_of(key):
                collected = []
                satisfiable = True
                for input_key in graph.units[uid].input_keys:
                    sub = solve(input_key, budget - 1, memo)
                    if sub is None:
                        # keep resolving the remaining inputs; the search
                        # visits every child of a failed unit
                        satisfiable = False
                    elif satisfiable:
                        collected.extend(sub)
                if satisfiable:
                    collected.append(uid)
                    result = tuple(collected)
                    break
        if memo is not None:
            memo[(key, budget)] = result
        return result

    for d in range(depth_limit + 1):
        found = solve(goal, d, {} if memoize else None)
        if found is not None:
            tree = TaskTree(tuple(dict.fromkeys(found)), goal)
            violation = verify_task_tree(graph, tree, kitchen, goal)
            if violation is not None:
                raise RuntimeError(f"resolution produced an invalid tree: {violation}")
            return RetrievalResult(tree, None, expansions)
    return RetrievalResult(None, DEPTH_LIMIT_EXHAUSTED, expansions)


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
    """
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


def retrieve_greedy(graph: FoonGraph, goal: str, kitchen: Kitchen,
                    heuristic: HeuristicKind) -> RetrievalResult:
    """Greedy best-first retrieval committing to one producer per node.

    Breadth-first over needed object keys: dequeue a key, and if the
    kitchen lacks it, pick ONE producing unit by the heuristic (no
    backtracking) and enqueue its unseen inputs. The collected units are
    reversed, deduplicated, reordered into executable order, and verified;
    a committed choice that cannot execute fails the whole run.
    """
    queue = deque([goal])
    visited = {goal}
    picked: list = []
    expansions = 0
    while queue:
        key = queue.popleft()
        expansions += 1
        if key in kitchen:
            continue
        candidates = graph.producers_of(key)
        if not candidates:
            return RetrievalResult(None, NO_PRODUCER, expansions)
        uid = select_candidate(candidates, graph, heuristic)
        picked.append(uid)
        for input_key in graph.units[uid].input_keys:
            if input_key not in visited:
                visited.add(input_key)
                queue.append(input_key)
    picked.reverse()
    ordered = _first_fit_order(graph, list(dict.fromkeys(picked)), kitchen)
    if ordered is None:
        return RetrievalResult(None, GREEDY_DEAD_END, expansions)
    tree = TaskTree(tuple(ordered), goal)
    if verify_task_tree(graph, tree, kitchen, goal) is not None:
        return RetrievalResult(None, GREEDY_DEAD_END, expansions)
    return RetrievalResult(tree, None, expansions)


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
