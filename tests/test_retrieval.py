import random
import sys
import threading
import time
import tracemalloc

import pytest

import foon.retrieval
import helpers
from helpers import oracle_enumerate
from foon import (
    DEPTH_LIMIT_EXHAUSTED,
    GREEDY_DEAD_END,
    NO_PRODUCER,
    FoonGraph,
    FunctionalUnit,
    HeuristicKind,
    Kitchen,
    MotionNode,
    ObjectNode,
    RetrievalResult,
    TaskTree,
    TreeViolation,
    ids_expansion_formula,
    retrieve_greedy,
    retrieve_ids,
    select_candidate,
    serialize_graph,
    serialize_task_tree,
    verify_task_tree,
)

H1 = HeuristicKind.MAX_SUCCESS_RATE
H2 = HeuristicKind.MIN_INPUT_COUNT


def simple_unit(in_names, label, out_names, rate=1.0):
    return FunctionalUnit(
        tuple(ObjectNode(n) for n in in_names),
        MotionNode(label, rate),
        tuple(ObjectNode(n) for n in out_names),
    )


# --- iterative deepening ---


def test_ids_goal_in_kitchen_counts_only_the_goal(f1, k1):
    result = retrieve_ids(f1, "water{liquid}", k1, depth_limit=0)
    assert result.found and result.tree.unit_ids == ()
    assert result.expansions == 1


def test_ids_f1_single_unit(f1, k1):
    result = retrieve_ids(f1, "ice{solid}", k1)
    assert result.found and result.tree.unit_ids == (0,)


def test_ids_f2_chain_in_dependency_order(f2, k2):
    result = retrieve_ids(f2, "sweet potato{fried}", k2)
    assert result.tree.unit_ids == (0, 1, 2)
    assert [f2.units[u].motion.label for u in result.tree.unit_ids] == ["peel", "chop", "fry"]


def test_ids_f3_takes_the_shallow_producer(f3, k3):
    result = retrieve_ids(f3, "goal{done}", k3)
    assert result.tree.unit_ids == (5,)
    assert f3.units[5].motion.label == "snap"


def test_ids_no_producer_short_circuits(f1, k1):
    result = retrieve_ids(f1, "lava{hot}", k1)
    assert not result.found
    assert result.reason == NO_PRODUCER and result.expansions == 0


def test_ids_depth_limit_boundary(f2, k2):
    shallow = retrieve_ids(f2, "sweet potato{fried}", k2, depth_limit=2)
    assert shallow.reason == DEPTH_LIMIT_EXHAUSTED
    exact = retrieve_ids(f2, "sweet potato{fried}", k2, depth_limit=3)
    assert exact.found


def test_ids_rejects_negative_depth_limit(f1, k1):
    with pytest.raises(ValueError):
        retrieve_ids(f1, "ice{solid}", k1, depth_limit=-1)


def test_ids_rejects_a_depth_limit_that_is_not_an_int(f1, k1, empty_kitchen):
    # the goal is found from k1 and cannot be reached from the empty kitchen
    for limit in (2.5, "3", True, False):
        for kitchen in (k1, empty_kitchen):
            for memoize in (True, False):
                with pytest.raises(ValueError):
                    retrieve_ids(f1, "ice{solid}", kitchen, depth_limit=limit, memoize=memoize)


def test_ids_resolves_a_node_apart_at_each_budget():
    # x is needed at budget 2 by serve, where it takes slow, and at budget 1
    # by wrap, where only fast fires; a node resolved once for all budgets
    # would drop fast
    graph = FoonGraph.from_units([
        simple_unit(["a"], "prep", ["m"]),
        simple_unit(["m"], "slow", ["x"]),
        simple_unit(["a"], "fast", ["x"]),
        simple_unit(["x"], "wrap", ["y"]),
        simple_unit(["x", "y"], "serve", ["g"]),
    ])
    kitchen = Kitchen(frozenset(["a"]))
    result = retrieve_ids(graph, "g", kitchen)
    assert result.tree.unit_ids == helpers.literal_ids(graph, "g", kitchen)[0] == (0, 1, 2, 3, 4)
    assert result.expansions == 6


def test_ids_expansions_monotone_in_depth_limit(cyclic, empty_kitchen):
    counts = [
        retrieve_ids(cyclic, "widget{cursed}", empty_kitchen, depth_limit=d).expansions
        for d in range(6)
    ]
    assert counts == sorted(counts)


def test_ids_memoization_does_not_change_the_tree():
    # shallow limit: the literal reference blows up exponentially in the
    # depth bound on cyclic instances
    rng = random.Random(20240817)
    for _ in range(150):
        graph, goal, kitchen = helpers.random_instance(rng)
        limit = min(len(graph.units), 4)
        expected = literal_answer(graph, goal, kitchen, limit)[:2]
        for memoize in (False, True):
            result = retrieve_ids(graph, goal, kitchen, depth_limit=limit, memoize=memoize)
            assert answer(result)[:2] == expected, memoize


def test_ids_prefers_first_producer_in_insertion_order():
    graph = FoonGraph.from_units(
        [
            simple_unit(["a"], "early", ["g"], rate=0.1),
            simple_unit(["a"], "late", ["g"], rate=0.9),
        ]
    )
    result = retrieve_ids(graph, "g", Kitchen(frozenset(["a"])))
    assert result.tree.unit_ids == (0,)


def test_ids_shared_subgoal_is_emitted_once():
    graph = FoonGraph.from_units(
        [
            simple_unit(["base"], "prep", ["mid"]),
            simple_unit(["mid"], "left", ["l"]),
            simple_unit(["mid"], "right", ["r"]),
            simple_unit(["l", "r"], "join", ["g"]),
        ]
    )
    result = retrieve_ids(graph, "g", Kitchen(frozenset(["base"])))
    assert result.found
    assert sorted(result.tree.unit_ids) == [0, 1, 2, 3]
    assert result.tree.unit_ids.count(0) == 1


def test_ids_raises_when_the_depth_table_names_no_producer(monkeypatch):
    # the table puts g at depth 1, but layers that fire g's one producer at 2
    graph = FoonGraph.from_units([simple_unit(["a"], "make", ["g"])])
    monkeypatch.setattr(graph, "fire_layers", lambda kitchen: [2])
    with pytest.raises(RuntimeError) as caught:
        retrieve_ids(graph, "g", Kitchen(frozenset(["a"])))
    assert str(caught.value) == "depth table has no producer for g at budget 1"


def test_ids_raises_when_its_rebuilt_tree_fails_the_check(f2, k2, monkeypatch):
    monkeypatch.setattr(foon.retrieval, "verify_task_tree", lambda *args: TreeViolation(0, "forced"))
    with pytest.raises(RuntimeError) as caught:
        retrieve_ids(f2, "sweet potato{fried}", k2)
    assert str(caught.value) == (
        "resolution produced an invalid tree: invalid task tree at unit position 0: forced"
    )


# --- greedy ---


def test_greedy_goal_in_kitchen(f1, k1):
    for heuristic in (H1, H2):
        result = retrieve_greedy(f1, "water{liquid}", k1, heuristic)
        assert result.found and result.tree.unit_ids == ()
        assert result.expansions == 1


def test_greedy_f1_agrees_with_ids(f1, k1):
    for heuristic in (H1, H2):
        assert retrieve_greedy(f1, "ice{solid}", k1, heuristic).tree.unit_ids == (0,)


def test_greedy_f3_heuristics_diverge(f3, k3):
    by_rate = retrieve_greedy(f3, "goal{done}", k3, H1)
    assert by_rate.tree.unit_ids == (5,)
    by_inputs = retrieve_greedy(f3, "goal{done}", k3, H2)
    assert by_inputs.tree.unit_ids == (0, 1, 2, 3, 4)


def test_greedy_no_producer_for_unknown_goal(f1, k1):
    for heuristic in (H1, H2):
        result = retrieve_greedy(f1, "lava{hot}", k1, heuristic)
        assert result.reason == NO_PRODUCER


def test_greedy_no_producer_mid_run():
    graph = FoonGraph.from_units([simple_unit(["mystery"], "zap", ["g"])])
    result = retrieve_greedy(graph, "g", Kitchen(), H1)
    assert result.reason == NO_PRODUCER and result.expansions == 2


def test_greedy_commits_and_dead_ends():
    # the 0.9 producer needs an item that only a cycle can make
    graph = FoonGraph.from_units(
        [
            simple_unit(["x"], "tempting", ["g"], rate=0.9),
            simple_unit(["g"], "loop", ["x"], rate=0.5),
            simple_unit(["a"], "honest", ["g"], rate=0.1),
        ]
    )
    kitchen = Kitchen(frozenset(["a"]))
    committed = retrieve_greedy(graph, "g", kitchen, H1)
    assert committed.reason == GREEDY_DEAD_END
    # min-input heuristic ties 1-1-1, lowest id also dead-ends
    assert retrieve_greedy(graph, "g", kitchen, H2).reason == GREEDY_DEAD_END
    # the same instance is solvable: resolution backtracks to unit 2
    assert retrieve_ids(graph, "g", kitchen).tree.unit_ids == (2,)


def test_greedy_reorders_discovery_sequence_when_needed():
    # two inputs of the goal unit discovered breadth-first; reversal alone
    # would put b's producer before a's dependency chain resolves
    graph = FoonGraph.from_units(
        [
            simple_unit(["a", "b"], "join", ["g"]),
            simple_unit(["seed"], "grow a", ["a"]),
            simple_unit(["a"], "derive b", ["b"]),
        ]
    )
    result = retrieve_greedy(graph, "g", Kitchen(frozenset(["seed"])), H1)
    assert result.found
    assert result.tree.unit_ids == (1, 2, 0)


def test_greedy_cyclic_graphs_dead_end(cyclic, empty_kitchen):
    for goal in ("widget{cursed}", "a{x}", "b{y}"):
        for heuristic in (H1, H2):
            result = retrieve_greedy(cyclic, goal, empty_kitchen, heuristic)
            assert result.reason == GREEDY_DEAD_END


def answer(result):
    return (result.tree.unit_ids if result.found else None), result.reason, result.expansions


def test_greedy_lists_picks_deepest_first_where_ids_lists_them_in_input_order():
    # first fit keeps the reversed pick order whenever it can execute
    graph = FoonGraph.from_units(
        [
            simple_unit(["x", "y"], "join", ["g"]),
            simple_unit(["k"], "make x", ["x"]),
            simple_unit(["k"], "make y", ["y"]),
        ]
    )
    kitchen = Kitchen(frozenset(["k"]))
    for heuristic in (H1, H2):
        assert answer(retrieve_greedy(graph, "g", kitchen, heuristic)) == ((2, 1, 0), None, 4)
    assert retrieve_ids(graph, "g", kitchen).tree.unit_ids == (1, 2, 0)


def test_greedy_matches_an_independent_greedy_on_random_instances():
    rng = random.Random(1729)
    for _ in range(300):
        graph, goal, kitchen = helpers.random_instance(rng)
        for key in {goal, *graph.node_index}:
            for heuristic in (H1, H2):
                assert answer(retrieve_greedy(graph, key, kitchen, heuristic)) == (
                    helpers.greedy_oracle(graph, key, kitchen, heuristic))


def test_one_pass_ordering_matches_the_quadratic_first_fit():
    rng = random.Random(1962)
    outcomes = set()
    multi_output = False
    for _ in range(1000):
        graph, _, own = helpers.random_instance(rng)
        for kitchen in (own, Kitchen()):
            for _ in range(3):
                ids = rng.sample(range(len(graph.units)), rng.randint(1, len(graph.units)))
                got = foon.retrieval._first_fit_order(graph, ids, kitchen)
                assert got == helpers._first_fit_order(graph, ids, kitchen)
                outcomes.add(got is None)
                multi_output |= any(len(graph.units[uid].outputs) > 1 for uid in ids)
    assert outcomes == {True, False} and multi_output


def test_greedy_and_first_fit_read_the_kitchen_without_the_reachability_pass(
        f1, f2, f3, k1, k2, k3, monkeypatch):
    cases = [(graph, kitchen, FoonGraph.from_units(graph.units))
             for graph, kitchen in ((f1, k1), (f2, k2), (f3, k3))]

    def run(graph, kitchen):
        ids = list(range(len(graph.units)))
        orders = [foon.retrieval._first_fit_order(graph, listed, held)
                  for listed in (ids, ids[::-1]) for held in (kitchen, Kitchen())]
        return orders, [answer(retrieve_greedy(graph, goal, kitchen, heuristic))
                        for goal in sorted(graph.node_index) for heuristic in (H1, H2)]

    want = [run(fresh, kitchen) for _, kitchen, fresh in cases]

    def no_pass(self, kitchen):
        raise AssertionError("greedy retrieval ran the reachability pass")

    monkeypatch.setattr(FoonGraph, "_reach", no_pass)
    assert [run(graph, kitchen) for graph, kitchen, _ in cases] == want
    assert any(order is None for orders, _ in want for order in orders)
    assert any(order is not None for orders, _ in want for order in orders)


# --- candidate selection ---


def rated_graph(rates):
    return FoonGraph.from_units(
        [simple_unit(["a"], f"act{i}", ["g"], rate=r) for i, r in enumerate(rates)]
    )


def test_select_first_of_equal_rates():
    graph = rated_graph([0.4, 0.9, 0.9])
    assert select_candidate([0, 1, 2], graph, H1) == 1


def test_select_fewest_inputs():
    graph = FoonGraph.from_units(
        [
            simple_unit(["a", "b", "c"], "three", ["g"]),
            simple_unit(["a"], "one", ["g"]),
            simple_unit(["a", "b"], "two", ["g"]),
        ]
    )
    assert select_candidate([0, 1, 2], graph, H2) == 1


def test_select_single_candidate_under_both():
    graph = rated_graph([0.5])
    assert select_candidate([0], graph, H1) == 0
    assert select_candidate([0], graph, H2) == 0


def test_select_rejects_empty():
    with pytest.raises(ValueError):
        select_candidate([], rated_graph([0.5]), H1)


def test_select_errors_name_their_cause():
    with pytest.raises(ValueError, match="at least one candidate"):
        select_candidate([], rated_graph([0.5]), H1)
    with pytest.raises(ValueError, match="unknown heuristic"):
        select_candidate([0], rated_graph([0.5]), "h1")


def test_retrieval_result_holds_exactly_one_of_tree_and_reason():
    for tree, reason in ((TaskTree((), "g"), NO_PRODUCER), (None, None)):
        with pytest.raises(ValueError, match="exactly one of tree and reason"):
            RetrievalResult(tree, reason, 0)


def test_every_engine_answers_on_an_empty_graph():
    graph = FoonGraph()
    kitchen = Kitchen(frozenset(["k"]))
    assert graph.min_depths(kitchen) == {"k": 0}
    assert graph.fire_layers(kitchen) == []
    assert graph.greedy_picks(H1) == {}
    assert answer(retrieve_ids(graph, "g", kitchen)) == (None, NO_PRODUCER, 0)
    assert answer(retrieve_ids(graph, "k", kitchen)) == ((), None, 1)
    for heuristic in (H1, H2):
        assert answer(retrieve_greedy(graph, "g", kitchen, heuristic)) == (None, NO_PRODUCER, 1)
        assert answer(retrieve_greedy(graph, "k", kitchen, heuristic)) == ((), None, 1)


def test_select_laws_on_random_instances():
    rng = random.Random(7)
    for _ in range(200):
        graph, goal, _ = helpers.random_instance(rng)
        candidates = graph.producers_of(goal)
        if not candidates:
            continue
        best_rate = select_candidate(candidates, graph, H1)
        rates = [graph.units[u].motion.success_rate for u in candidates]
        assert graph.units[best_rate].motion.success_rate == max(rates)
        assert best_rate == min(u for u in candidates
                                if graph.units[u].motion.success_rate == max(rates))
        best_arity = select_candidate(candidates, graph, H2)
        arities = [len(graph.units[u].inputs) for u in candidates]
        assert len(graph.units[best_arity].inputs) == min(arities)
        assert best_arity == min(u for u in candidates
                                 if len(graph.units[u].inputs) == min(arities))


# --- oracle ---


def test_oracle_fixture_counts(f1, f2, f3, k1, k2, k3):
    assert [len(t.unit_ids) for t in oracle_enumerate(f1, "ice{solid}", k1, 12)] == [1]
    assert [len(t.unit_ids) for t in oracle_enumerate(f2, "sweet potato{fried}", k2, 12)] == [3]
    f3_trees = oracle_enumerate(f3, "goal{done}", k3, 12)
    assert sorted(len(t.unit_ids) for t in f3_trees) == [1, 5]


def test_oracle_goal_in_kitchen_yields_only_the_empty_tree(f1, k1):
    trees = oracle_enumerate(f1, "water{liquid}", k1, 12)
    assert len(trees) == 1 and trees[0].unit_ids == ()


def test_oracle_trees_verify_and_are_minimal():
    rng = random.Random(99)
    for _ in range(60):
        graph, goal, kitchen = helpers.random_instance(rng)
        trees = oracle_enumerate(graph, goal, kitchen, 12)
        sets = [frozenset(t.unit_ids) for t in trees]
        assert len(sets) == len(set(sets))
        for tree in trees:
            assert verify_task_tree(graph, tree, kitchen, goal) is None
        for a in sets:
            for b in sets:
                assert not a < b


def test_oracle_respects_max_units(f3, k3):
    assert [len(t.unit_ids) for t in oracle_enumerate(f3, "goal{done}", k3, 1)] == [1]


# --- expansion formula ---


def test_formula_spot_values():
    assert ids_expansion_formula(2, 0) == 1
    assert ids_expansion_formula(2, 2) == 11
    assert ids_expansion_formula(3, 3) == 58


def test_formula_unary_branching():
    assert ids_expansion_formula(1, 4) == 5 * 6 // 2


def test_formula_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ids_expansion_formula(0, 2)
    with pytest.raises(ValueError):
        ids_expansion_formula(2, -1)


def test_measured_expansions_match_formula_binary_depth_two():
    graph, goal, kitchen = helpers.uniform_bary_instance(2, 2)
    result = retrieve_ids(graph, goal, kitchen, depth_limit=2, memoize=False)
    assert result.reason == DEPTH_LIMIT_EXHAUSTED
    assert result.expansions == 11


def stacked_diamonds(layers):
    units = []
    for i in range(layers):
        units += [
            simple_unit([f"top {i}"], f"left {i}", [f"left {i}"]),
            simple_unit([f"top {i}"], f"right {i}", [f"right {i}"]),
            simple_unit([f"left {i}", f"right {i}"], f"join {i}", [f"top {i + 1}"]),
        ]
    return FoonGraph.from_units(units)


def literal(graph, goal, kitchen, depth_limit=None):
    return answer(retrieve_ids(graph, goal, kitchen, depth_limit=depth_limit, memoize=False))


def literal_answer(graph, goal, kitchen, depth_limit=None):
    # helpers.literal_ids, with the reason retrieve_ids gives when no tree is found
    unit_ids, calls = helpers.literal_ids(graph, goal, kitchen, depth_limit)
    if unit_ids is not None:
        return unit_ids, None, calls
    return None, (DEPTH_LIMIT_EXHAUSTED if graph.producers_of(goal) else NO_PRODUCER), calls


def test_literal_loop_counts_on_cycles_failures_and_shared_subtrees(cyclic, empty_kitchen,
                                                                    f3, k3):
    # the literal loop re-solves a shared key once per path that reaches it,
    # so a memo of (key, budget) within one bound would lower these counts
    for limit, count in enumerate((1, 3, 6, 10, 15, 21)):
        assert literal(cyclic, "widget{cursed}", empty_kitchen, limit) == (
            None, DEPTH_LIMIT_EXHAUSTED, count)
    # assemble fails one layer down, then snap succeeds
    assert literal(f3, "goal{done}", k3) == ((5,), None, 6)
    diamonds = stacked_diamonds(6)
    assert literal(diamonds, "top 6", Kitchen(frozenset(["top 0"]))) == (
        tuple(range(18)), None, 847)
    assert literal(diamonds, "top 6", Kitchen()) == (None, DEPTH_LIMIT_EXHAUSTED, 2365)


# --- cross-algorithm properties on random instances ---


def test_soundness_and_oracle_agreement_quick():
    rng = random.Random(4242)
    for _ in range(120):
        graph, goal, kitchen = helpers.random_instance(rng)
        trees = oracle_enumerate(graph, goal, kitchen, 12)
        ids_result = retrieve_ids(graph, goal, kitchen)
        assert ids_result.found == bool(trees)
        results = [ids_result,
                   retrieve_greedy(graph, goal, kitchen, H1),
                   retrieve_greedy(graph, goal, kitchen, H2)]
        for result in results:
            if result.found:
                assert verify_task_tree(graph, result.tree, kitchen, goal) is None
                assert trees, "greedy found a tree the oracle missed"


def test_ids_layer_minimality_quick():
    rng = random.Random(31337)
    for _ in range(120):
        graph, goal, kitchen = helpers.random_instance(rng)
        result = retrieve_ids(graph, goal, kitchen)
        best = helpers.goal_min_depth(graph, kitchen, goal)
        if not result.found:
            assert best == helpers.INF
            continue
        assert helpers.tree_goal_depth(graph, result.tree, kitchen) == best
        if best > 0:
            shallower = retrieve_ids(graph, goal, kitchen, depth_limit=int(best) - 1)
            assert not shallower.found


# --- both expansion counts against the literal reference ---


def assert_same_answer(graph, goal, kitchen, limit, literal_limit):
    expected = literal_answer(graph, goal, kitchen, literal_limit)
    default = retrieve_ids(graph, goal, kitchen, depth_limit=limit)
    assert answer(default)[:2] == expected[:2], (goal, limit)
    assert literal(graph, goal, kitchen, literal_limit) == expected, (goal, literal_limit)


def test_default_ids_matches_literal_loop_on_random_instances():
    rng = random.Random(8086)
    for _ in range(2000):
        graph, goal, kitchen = helpers.random_instance(rng)
        reachable = helpers.goal_min_depth(graph, kitchen, goal) != helpers.INF
        for limit in (None, 0, 1, 2, 3):
            # The literal reference is exponential in the bound on
            # unreachable goals in cyclic graphs (one such instance took 32 s
            # at the default bound). Every bound fails those goals, so for
            # them bound 3 stands in for the default.
            literal_limit = 3 if limit is None and not reachable else limit
            assert_same_answer(graph, goal, kitchen, limit, literal_limit)


def test_default_ids_matches_literal_loop_on_fixture_goals(f1, f2, f3, cyclic, k1, k2, k3,
                                                          k_mini, empty_kitchen):
    for graph in (f1, f2, f3, cyclic):
        for kitchen in (k1, k2, k3, k_mini, empty_kitchen):
            for goal in sorted(set(graph.node_index) | kitchen.items):
                for limit in (None, 0, 1, 2, 3):
                    assert_same_answer(graph, goal, kitchen, limit, limit)


# --- scale and shape ---


@pytest.mark.parametrize("n_units", [1000, 10000])
def test_default_ids_depth_matches_fixpoint_oracle_at_scale(n_units):
    rng = random.Random(n_units)
    graph, kitchen = helpers.random_scale_instance(rng, n_units)
    depths = helpers.min_layer_depths(graph, kitchen)
    keys = sorted(graph.node_index)
    reachable = [k for k in keys if depths[k] != helpers.INF]
    unreachable = [k for k in keys if depths[k] == helpers.INF and graph.producers_of(k)]
    assert reachable and unreachable
    for goal in rng.sample(reachable, 40):
        result = retrieve_ids(graph, goal, kitchen)
        assert result.found
        assert helpers.tree_goal_depth(graph, result.tree, kitchen) == depths[goal]
    for goal in rng.sample(unreachable, min(len(unreachable), 20)):
        assert retrieve_ids(graph, goal, kitchen).reason == DEPTH_LIMIT_EXHAUSTED


@pytest.mark.parametrize("n_units", [1000, 10000])
def test_greedy_trees_verify_and_are_never_shallower_than_ids_at_scale(n_units):
    rng = random.Random(n_units)
    graph, kitchen = helpers.random_scale_instance(rng, n_units)
    depths = helpers.min_layer_depths(graph, kitchen)
    keys = sorted(graph.node_index)
    reachable = [k for k in keys if depths[k] != helpers.INF]
    unreachable = [k for k in keys if depths[k] == helpers.INF and graph.producers_of(k)]
    assert unreachable
    found = 0
    for goal in rng.sample(reachable, 40) + unreachable:
        ids = retrieve_ids(graph, goal, kitchen)
        for heuristic in (H1, H2):
            greedy = retrieve_greedy(graph, goal, kitchen, heuristic)
            if greedy.found:
                found += 1
                assert verify_task_tree(graph, greedy.tree, kitchen, goal) is None
                assert ids.found  # so a goal IDS cannot reach fails greedy too
                assert helpers.tree_goal_depth(graph, ids.tree, kitchen) <= (
                    helpers.tree_goal_depth(graph, greedy.tree, kitchen))
    assert found


def timed_ids(graph, goal, kitchen):
    start = time.perf_counter()
    result = retrieve_ids(graph, goal, kitchen)
    return result, time.perf_counter() - start


def test_default_ids_solves_a_5000_unit_chain_without_recursion():
    graph = FoonGraph.from_units(
        simple_unit([f"link {i}"], f"step {i}", [f"link {i + 1}"]) for i in range(5000)
    )
    result, elapsed = timed_ids(graph, "link 5000", Kitchen(frozenset(["link 0"])))
    assert result.tree.unit_ids == tuple(range(5000))
    assert elapsed < 1.0, f"chain took {elapsed:.3f}s"


def test_literal_ids_walks_a_600_unit_chain_without_recursion():
    kitchen = Kitchen(frozenset(["link 0"]))
    for n, count in ((600, 180_901), (1200, 721_801)):
        graph = FoonGraph.from_units(
            simple_unit([f"link {i}"], f"step {i}", [f"link {i + 1}"]) for i in range(n)
        )
        start = time.perf_counter()
        literal = retrieve_ids(graph, f"link {n}", kitchen, memoize=False)
        elapsed = time.perf_counter() - start
        assert literal.tree == retrieve_ids(graph, f"link {n}", kitchen).tree
        # bound d makes d + 1 solve() calls, for d = 0..n
        assert literal.expansions == (n + 1) * (n + 2) // 2 == count
        assert elapsed < 1.0, f"{n}-unit chain took {elapsed:.3f}s"


def skip_edge_ladder(top):
    """c j made from c j-1 and c j-2, j = 2..top: paths of two lengths meet at every rung."""
    return FoonGraph.from_units(simple_unit([f"c {j - 1}", f"c {j - 2}"], f"make {j}", [f"c {j}"])
                                for j in range(2, top + 1))


def test_ids_on_a_skip_edge_ladder_visits_a_quarter_of_d_squared_pairs():
    # the rebuild requests c D-k at about k/2 budgets, so it visits D*D//4 + D
    # (node, budget) pairs; a rebuild that skips them must keep this count
    kitchen = Kitchen(frozenset(["c 0", "c 1"]))
    for top in range(2, 11):
        graph = skip_edge_ladder(top)
        tree, calls = helpers.literal_ids(graph, f"c {top}", kitchen)
        result = retrieve_ids(graph, f"c {top}", kitchen)
        assert result.tree.unit_ids == tree == tuple(range(top - 1))
        assert result.expansions == top * top // 4 + top
        assert retrieve_ids(graph, f"c {top}", kitchen, memoize=False).expansions == calls
    for top, count in ((250, 15_875), (251, 16_001)):
        result = retrieve_ids(skip_edge_ladder(top), f"c {top}", kitchen)
        assert result.tree.unit_ids == tuple(range(top - 1))
        assert result.expansions == top * top // 4 + top == count


def test_literal_count_takes_under_a_second_where_the_loop_took_hours():
    # making these calls took 32 s on the first instance (11 units, its own
    # goal) and would take about 100 minutes on the second (12 units)
    rng = random.Random(1)
    instances = [helpers.random_instance(rng) for _ in range(1656)]
    assert instances[273][1] == "item2"
    for index, goal, count in ((273, "item2", 58_547_311), (1655, "item5", 5_991_400_051)):
        graph, _, kitchen = instances[index]
        start = time.perf_counter()
        result = retrieve_ids(graph, goal, kitchen, memoize=False)
        elapsed = time.perf_counter() - start
        assert (result.reason, result.expansions) == (DEPTH_LIMIT_EXHAUSTED, count)
        assert elapsed < 1.0, f"instance {index} took {elapsed:.3f}s"


def test_literal_count_keeps_memory_linear_in_a_keys_producers():
    # each producer's tries once stored every earlier producer's inputs
    # again: a 73.5 MB peak here
    graph = FoonGraph.from_units(
        simple_unit([f"x {i}", f"y {i}"], f"make {i}", ["goal"]) for i in range(3000)
    )
    tracemalloc.start()
    try:
        result = retrieve_ids(graph, "goal", Kitchen(frozenset()), depth_limit=2, memoize=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # bound 0 makes 1 call, bound 1 makes 6,001 and bound 2 makes 6,001
    assert (result.reason, result.expansions) == (DEPTH_LIMIT_EXHAUSTED, 12_003)
    assert peak < 10_000_000, f"peak {peak / 1e6:.1f} MB"


def greedy_worst_case(n):
    # reversed breadth-first picks put every b_i's producer first, but each
    # a_i needs a_(i-1), so a rescan from the start finds one unit per pass
    units = [simple_unit([f"a{n}"] + [f"b{i}" for i in range(1, n + 1)], "serve", ["g"])]
    units += [simple_unit([f"a{i - 1}", f"b{i}"], f"make a{i}", [f"a{i}"])
              for i in range(1, n + 1)]
    units += [simple_unit(["a0"], f"make b{i}", [f"b{i}"]) for i in range(1, n + 1)]
    return FoonGraph.from_units(units), Kitchen(frozenset(["a0"]))


def test_greedy_orders_its_worst_case_in_one_pass():
    graph, kitchen = greedy_worst_case(100)
    for heuristic in (H1, H2):
        assert answer(retrieve_greedy(graph, "g", kitchen, heuristic)) == (
            helpers.greedy_oracle(graph, "g", kitchen, heuristic))
    graph, kitchen = greedy_worst_case(2000)
    assert len(graph.units) == 4001
    for heuristic in (H1, H2):
        start = time.perf_counter()
        result = retrieve_greedy(graph, "g", kitchen, heuristic)
        elapsed = time.perf_counter() - start
        assert verify_task_tree(graph, result.tree, kitchen, "g") is None
        assert elapsed < 1.0, f"{heuristic.name} took {elapsed:.3f}s"


def test_default_ids_shares_stacked_diamonds():
    units = []
    for i in range(200):
        units += [
            simple_unit([f"top {i}"], f"left {i}", [f"left {i}"]),
            simple_unit([f"top {i}"], f"right {i}", [f"right {i}"]),
            simple_unit([f"left {i}", f"right {i}"], f"join {i}", [f"top {i + 1}"]),
        ]
    graph = FoonGraph.from_units(units)
    result, elapsed = timed_ids(graph, "top 200", Kitchen(frozenset(["top 0"])))
    assert result.tree.unit_ids == tuple(range(600))
    assert elapsed < 1.0, f"diamonds took {elapsed:.3f}s"


# --- the cached depth table ---


def test_ids_sees_a_shallower_producer_added_after_a_search():
    graph = FoonGraph.from_units(
        [simple_unit(["a"], "one", ["b"]), simple_unit(["b"], "two", ["c"]),
         simple_unit(["c"], "three", ["g"])]
    )
    kitchen = Kitchen(frozenset(["a"]))
    assert retrieve_ids(graph, "g", kitchen).tree.unit_ids == (0, 1, 2)
    assert graph.add_unit(simple_unit(["a"], "shortcut", ["g"])).added
    assert retrieve_ids(graph, "g", kitchen).tree.unit_ids == (3,)


def test_alternating_kitchens_answer_like_fresh_graphs():
    rng = random.Random(1618)
    engines = (
        lambda graph, goal, kitchen: retrieve_ids(graph, goal, kitchen),
        lambda graph, goal, kitchen: retrieve_ids(graph, goal, kitchen, memoize=False),
        lambda graph, goal, kitchen: retrieve_greedy(graph, goal, kitchen, H1),
        lambda graph, goal, kitchen: retrieve_greedy(graph, goal, kitchen, H2),
    )
    for _ in range(200):
        graph, _, first = helpers.random_instance(rng)
        # one key that no unit mentions
        second = Kitchen(frozenset(k for k in graph.node_index if rng.random() < 0.35) | {"spare"})
        for goal in sorted(graph.node_index):
            for kitchen in (first, second, first):
                for engine in engines:
                    fresh = FoonGraph.from_units(graph.units)
                    got = engine(graph, goal, kitchen)
                    want = engine(fresh, goal, kitchen)
                    assert (got.tree, got.reason, got.expansions) == (
                        want.tree, want.reason, want.expansions)
        assert graph.min_depths(second)["spare"] == 0


def test_threads_alternating_kitchens_answer_like_fresh_graphs():
    rng = random.Random(3141)
    graph, first = helpers.random_scale_instance(rng, 600)
    second = Kitchen(frozenset(k for k in graph.node_index if rng.random() < 0.5))
    goals = rng.sample(sorted(graph.node_index), 20)
    runs = [(goal, kitchen, heuristic) for goal in goals for kitchen in (first, second)
            for heuristic in (None, H1, H2)]

    def run(target, goal, kitchen, heuristic):
        if heuristic is None:
            return retrieve_ids(target, goal, kitchen)
        return retrieve_greedy(target, goal, kitchen, heuristic)

    want = [run(FoonGraph.from_units(graph.units), *args) for args in runs]
    wrong = []

    def reader(offset):
        for step in range(8 * len(runs)):
            number = (offset + step) % len(runs)
            try:
                got = run(graph, *runs[number])
            except Exception as exc:  # a thread's exception would not fail the test
                got = exc
            if got != want[number]:
                wrong.append(runs[number])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_rate_only_duplicate_keeps_the_answer_and_the_table(f3, k3):
    before = retrieve_ids(f3, "goal{done}", k3)
    table = f3.min_depths(k3)
    unit = f3.units[before.tree.unit_ids[0]]
    bumped = FunctionalUnit(unit.inputs, MotionNode(unit.motion.label, 1.0), unit.outputs)
    assert not f3.add_unit(bumped).added
    assert f3.min_depths(k3) is table
    assert retrieve_ids(f3, "goal{done}", k3) == before


# --- the greedy memo ---


def test_greedy_memo_answers_like_fresh_graphs():
    rng = random.Random(2718)
    for _ in range(300):
        graph, _, first = helpers.random_instance(rng)
        second = Kitchen(frozenset(k for k in graph.node_index if rng.random() < 0.35))
        for goal in sorted(graph.node_index):
            for kitchen in (first, second):
                for algo, heuristic in (("h1", H1), ("h2", H2)):
                    fresh = helpers.fresh_copy(graph)
                    got = retrieve_greedy(graph, goal, kitchen, heuristic)
                    want = retrieve_greedy(fresh, goal, kitchen, heuristic)
                    assert (got.tree, got.reason, got.expansions) == (
                        want.tree, want.reason, want.expansions)
                    if got.found:
                        assert serialize_task_tree(graph, got.tree, kitchen, algo) == (
                            serialize_task_tree(fresh, want.tree, kitchen, algo))
        assert serialize_graph(graph) == serialize_graph(helpers.fresh_copy(graph))


def test_greedy_picks_once_per_node_and_heuristic(f3, k3, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return select_candidate(*args)

    monkeypatch.setattr(foon.retrieval, "select_candidate", counting)
    first = retrieve_greedy(f3, "goal{done}", k3, H1)
    assert calls
    picked = len(calls)
    assert retrieve_greedy(f3, "goal{done}", k3, H1) == first
    assert len(calls) == picked
    retrieve_greedy(f3, "goal{done}", k3, H2)
    assert len(calls) > picked


def test_greedy_returns_its_tree_without_a_tree_check(f3, k3, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_task_tree(*args)

    monkeypatch.setattr(foon.retrieval, "verify_task_tree", counting)
    for goal in ("goal{done}", *sorted(k3.items)[:1]):
        for heuristic in (H1, H2):
            assert retrieve_greedy(f3, goal, k3, heuristic).found
    assert calls == []
    # the wrapper is live: IDS still checks its rebuilt tree once
    assert retrieve_ids(f3, "goal{done}", k3).found
    assert len(calls) == 1


def test_rate_only_duplicate_moves_the_h1_pick_on_a_queried_graph():
    graph = rated_graph([0.4, 0.9, 0.6])
    kitchen = Kitchen(frozenset(["a"]))
    assert retrieve_greedy(graph, "g", kitchen, H1).tree.unit_ids == (1,)
    assert not graph.add_unit(simple_unit(["a"], "act2", ["g"], rate=0.95)).added
    got = retrieve_greedy(graph, "g", kitchen, H1)
    assert got.tree.unit_ids == (2,)
    assert got == retrieve_greedy(FoonGraph.from_units(graph.units), "g", kitchen, H1)


def test_appended_unit_moves_the_h2_pick_on_a_queried_graph():
    graph = FoonGraph.from_units([simple_unit(["a", "b"], "two", ["g"])])
    kitchen = Kitchen(frozenset(["a", "b"]))
    assert retrieve_greedy(graph, "g", kitchen, H2).tree.unit_ids == (0,)
    assert graph.add_unit(simple_unit(["a"], "one", ["g"])).added
    got = retrieve_greedy(graph, "g", kitchen, H2)
    assert got.tree.unit_ids == (1,)
    assert got == retrieve_greedy(FoonGraph.from_units(graph.units), "g", kitchen, H2)
