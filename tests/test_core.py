import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foon
import helpers
import strategies
from foon import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    TaskTree,
    merge,
    normalize_label,
    parse_subgraph,
    serialize_graph,
    serialize_task_tree,
    verify_task_tree,
)


def stateless(name):
    return ObjectNode(name)


def simple_unit(in_names, label, out_names, rate=1.0):
    return FunctionalUnit(
        tuple(stateless(n) for n in in_names),
        MotionNode(label, rate),
        tuple(stateless(n) for n in out_names),
    )


# --- labels ---


def test_normalize_trims_lowers_and_collapses():
    assert normalize_label("  Sweet   POTATO \t x ") == "sweet potato x"


@pytest.mark.parametrize("bad", ["", "   ", "\t", "a{b", "a}b", "x[", "x]", "a,b", "a#b"])
def test_normalize_rejects_structural_characters(bad):
    with pytest.raises(ValueError):
        normalize_label(bad)


def test_normalize_rejects_non_strings():
    with pytest.raises(ValueError, match="object name must be a string, got int"):
        normalize_label(3, "object name")


def test_normalize_collapses_tabs_and_newlines_like_spaces():
    assert normalize_label("a\nb") == "a b"
    assert normalize_label("a\t\tb") == "a b"


@given(strategies.labels)
def test_normalize_is_idempotent(text):
    once = normalize_label(text)
    assert normalize_label(once) == once


# --- object nodes ---


def test_key_sorts_states_and_ingredients():
    node = ObjectNode("bowl", frozenset(["empty", "clean"]), frozenset(["salt", "pepper"]))
    assert node.key == "bowl{clean,empty}[pepper,salt]"


def test_key_omits_empty_parts():
    assert ObjectNode("water").key == "water"
    assert ObjectNode("water", frozenset(["cold"])).key == "water{cold}"
    assert ObjectNode("bowl", frozenset(), frozenset(["salt"])).key == "bowl[salt]"


def test_nodes_equal_regardless_of_attribute_order():
    a = ObjectNode("Bowl", ["clean", "empty"], ["salt"])
    b = ObjectNode("bowl ", ["empty", "clean"], ["salt"])
    assert a == b and a.key == b.key


@given(strategies.object_nodes)
def test_key_is_deterministic(node):
    assert node.key == ObjectNode(node.name, node.states, node.ingredients).key


# --- motion nodes ---


def test_motion_rate_defaults_to_one():
    assert MotionNode("chop").success_rate == 1.0


@pytest.mark.parametrize("rate", [-0.1, 1.1, math.nan, math.inf, "high", True, "0.5"])
def test_motion_rejects_bad_rates(rate):
    with pytest.raises(ValueError):
        MotionNode("chop", rate)


def test_motion_accepts_boundary_rates():
    assert MotionNode("chop", 0).success_rate == 0.0
    assert MotionNode("chop", 1).success_rate == 1.0


def test_motion_stores_an_integer_rate_as_a_float():
    rate = MotionNode("chop", 1).success_rate
    assert type(rate) is float and rate == 1.0


# --- functional units ---


def test_unit_requires_inputs_and_outputs():
    with pytest.raises(ValueError):
        FunctionalUnit((), MotionNode("mix"), (stateless("a"),))
    with pytest.raises(ValueError):
        FunctionalUnit((stateless("a"),), MotionNode("mix"), ())


def test_unit_rejects_duplicate_keys_per_side():
    with pytest.raises(ValueError):
        FunctionalUnit(
            (stateless("a"), ObjectNode("A ")), MotionNode("mix"), (stateless("b"),)
        )


def test_identity_ignores_order_and_rate():
    u1 = FunctionalUnit(
        (stateless("a"), stateless("b")), MotionNode("mix", 0.3), (stateless("c"),)
    )
    u2 = FunctionalUnit(
        (stateless("b"), stateless("a")), MotionNode("mix", 0.9), (stateless("c"),)
    )
    assert u1.identity() == u2.identity()
    u3 = FunctionalUnit((stateless("a"),), MotionNode("mix", 0.3), (stateless("c"),))
    assert u1.identity() != u3.identity()


def test_identity_is_built_once_and_stays_out_of_equality():
    unit = FunctionalUnit((stateless("b"), stateless("a")), MotionNode("mix"), (stateless("c"),))
    assert unit.identity() is unit.identity() == (("a", "b"), "mix", ("c",))
    # a side already in key order is shared with the identity, not copied
    assert unit.identity()[2] is unit.output_keys and unit.identity()[0] != unit.input_keys
    assert unit == FunctionalUnit(unit.inputs, unit.motion, unit.outputs)
    assert "identity" not in repr(unit)


@pytest.mark.parametrize("side", ["input", "output"])
def test_unit_names_the_first_key_that_repeats(side):
    # b{hot} repeats at position 2, before a repeats at position 3
    repeated = (stateless("a"), ObjectNode("b", {"hot"}), ObjectNode(" B ", {"HOT"}),
                stateless("A"))
    clean = (stateless("c"),)
    inputs, outputs = (repeated, clean) if side == "input" else (clean, repeated)
    with pytest.raises(ValueError) as err:
        FunctionalUnit(inputs, MotionNode("mix"), outputs)
    assert str(err.value) == f"duplicate {side} node b{{hot}}"


def test_input_repeats_are_reported_before_output_repeats():
    with pytest.raises(ValueError) as err:
        FunctionalUnit((stateless("x"), stateless("x")), MotionNode("mix"),
                       (stateless("y"), stateless("y")))
    assert str(err.value) == "duplicate input node x"


@pytest.mark.parametrize("inputs, outputs, reason", [
    ([], [], "functional unit has no inputs"),
    ([], ["x", "x"], "functional unit has no inputs"),
    (["x", "x"], [], "functional unit has no outputs"),
    (["x"], ["y", "y"], "duplicate output node y"),
])
def test_unit_errors_keep_their_precedence(inputs, outputs, reason):
    with pytest.raises(ValueError) as err:
        FunctionalUnit(map(stateless, inputs), MotionNode("mix"), map(stateless, outputs))
    assert str(err.value) == reason


def _error_text(build, *args):
    with pytest.raises(ValueError) as err:
        build(*args)
    return str(err.value)


@settings(max_examples=25)
@given(st.randoms(use_true_random=False))
def test_the_trusted_constructor_builds_the_public_unit(rng):
    units = helpers.random_textured_graph(rng).units + helpers.random_instance(rng)[0].units
    for unit in units:
        sides = unit.inputs, unit.motion, unit.outputs
        public, trusted = FunctionalUnit(*sides), FunctionalUnit._trusted(*sides)
        assert trusted == public and hash(trusted) == hash(public)
        assert repr(trusted) == repr(public)
        assert trusted.identity() == public.identity()
        assert (trusted.input_keys, trusted.output_keys) == (public.input_keys, public.output_keys)
        assert list(vars(trusted)) == list(vars(public))
        # a side that repeats a node: the same error from either constructor, and from the parser
        repeated = (unit.inputs + unit.inputs[-1:], unit.motion, unit.outputs)
        if rng.random() < 0.5:
            repeated = (unit.inputs, unit.motion, unit.outputs[:1] + unit.outputs)
        reason = _error_text(FunctionalUnit, *repeated)
        assert _error_text(FunctionalUnit._trusted, *repeated) == reason
        motion = f"M\t{unit.motion.label}\t{unit.motion.success_rate!r}"
        text = "\n".join([*map(foon.formats._object_text, repeated[0]), motion,
                          *map(foon.formats._object_text, repeated[2]), "//", ""])
        for parse in (parse_subgraph, helpers.line_loop):
            with pytest.raises(foon.ParseError) as err:
                parse(text, "repeat.foon")
            assert (err.value.line, err.value.reason) == (text.count("\n"), reason)


def spelled_key(node):
    key = node.name
    if node.states:
        key += "{" + ",".join(sorted(node.states)) + "}"
    if node.ingredients:
        key += "[" + ",".join(sorted(node.ingredients)) + "]"
    return key


def assert_keys_follow_nodes(unit):
    for nodes, keys in ((unit.inputs, unit.input_keys), (unit.outputs, unit.output_keys)):
        assert keys == tuple(spelled_key(node) for node in nodes)
        assert keys == tuple(node.key for node in nodes)


def test_unit_keys_equal_the_node_keys_in_order():
    hand = FunctionalUnit(
        (ObjectNode("Bowl", {"empty", "clean"}, {"salt"}), stateless("b")),
        MotionNode("mix", 0.5),
        (ObjectNode("bowl", (), {"salt", "pepper"}),),
    )
    assert hand.input_keys == ("bowl{clean,empty}[salt]", "b")
    assert hand.output_keys == ("bowl[pepper,salt]",)
    assert_keys_follow_nodes(hand)
    rng = random.Random(8080)
    for _ in range(50):
        source = helpers.random_textured_graph(rng)
        for unit in source.units + parse_subgraph(serialize_graph(source)):
            assert_keys_follow_nodes(unit)


def test_rate_bump_replacement_keeps_the_stored_key_order():
    stored = simple_unit(["a", "b"], "mix", ["c", "d"], rate=0.5)
    graph = FoonGraph.from_units([stored])
    bump = simple_unit(["b", "a"], "mix", ["d", "c"], rate=0.9)
    assert not graph.add_unit(bump).added
    replaced = graph.units[0]
    assert replaced is not stored and replaced.motion.success_rate == 0.9
    assert (replaced.input_keys, replaced.output_keys) == (("a", "b"), ("c", "d"))
    assert_keys_follow_nodes(replaced)


# --- graph construction ---


def test_add_unit_assigns_dense_ids_in_order():
    graph = FoonGraph()
    r0 = graph.add_unit(simple_unit(["a"], "mix", ["b"]))
    r1 = graph.add_unit(simple_unit(["b"], "chop", ["c"]))
    assert (r0.unit_id, r0.added) == (0, True)
    assert (r1.unit_id, r1.added) == (1, True)
    assert [graph.node_index[k] for k in ("a", "b", "c")] == [0, 1, 2]


def test_duplicate_insertion_keeps_max_rate_without_mutating_original():
    first = simple_unit(["a"], "mix", ["b"], rate=0.5)
    graph = FoonGraph.from_units([first])
    result = graph.add_unit(simple_unit(["a"], "mix", ["b"], rate=0.9))
    assert not result.added and result.unit_id == 0
    assert graph.units[0].motion.success_rate == 0.9
    assert first.motion.success_rate == 0.5
    graph.add_unit(simple_unit(["a"], "mix", ["b"], rate=0.2))
    assert graph.units[0].motion.success_rate == 0.9
    assert len(graph.units) == 1


def test_producer_and_consumer_indexes():
    graph = FoonGraph.from_units(
        [
            simple_unit(["a"], "mix", ["b"]),
            simple_unit(["a", "b"], "chop", ["c"]),
            simple_unit(["a"], "pour", ["b", "c"]),
        ]
    )
    assert graph.producers_of("b") == [0, 2]
    assert graph.producers_of("c") == [1, 2]
    assert graph.consumers_of("a") == [0, 1, 2]
    assert graph.producers_of("nowhere") == []


def test_find_unit_matches_by_identity():
    unit = simple_unit(["a"], "mix", ["b"], rate=0.4)
    graph = FoonGraph.from_units([unit])
    assert graph.find_unit(simple_unit(["a"], "mix", ["b"], rate=0.7)) == 0
    assert graph.find_unit(simple_unit(["a"], "stir", ["b"])) is None


def test_merge_keeps_first_occurrence_order():
    g1 = FoonGraph.from_units([simple_unit(["a"], "mix", ["b"])])
    g2 = FoonGraph.from_units(
        [simple_unit(["a"], "mix", ["b"]), simple_unit(["b"], "chop", ["c"])]
    )
    merged = merge([g1, g2])
    assert len(merged.units) == 2
    assert merged.units[0].motion.label == "mix"
    assert merged.units[1].motion.label == "chop"
    assert len(merge([]).units) == 0


@settings(max_examples=50)
@given(strategies.graphs)
def test_merge_with_self_changes_nothing(graph):
    assert merge([graph, graph]).units == graph.units


# --- kitchens ---


def test_availability_is_exact_on_the_full_key():
    assert "bowl{clean}" in Kitchen(frozenset(["bowl{clean}"]))
    assert "bowl{clean}[salt]" not in Kitchen(frozenset(["bowl{clean}"]))
    assert "bowl{clean}" not in Kitchen(frozenset(["bowl{clean}[salt]"]))


def test_kitchen_from_nodes():
    kitchen = Kitchen.from_nodes([ObjectNode("water", ["cold"]), ObjectNode("cup")])
    assert "water{cold}" in kitchen and "cup" in kitchen and "water" not in kitchen


def test_kitchen_keys_named_matches_a_prefix_scan():
    rng = random.Random(3141)
    fixed = ["salt", "salt{fine}", "salt[pepper]", "salt{fine}[pepper]", "saltwater",
             "salt shaker{full}", "saltsake{s}", "salt cellar[salt]"]
    for _ in range(200):
        items = set(rng.sample(fixed, rng.randint(0, len(fixed))))
        items.update(helpers.random_node(rng).key for _ in range(rng.randint(0, 6)))
        kitchen = Kitchen(items)
        names = {key.split("{")[0].split("[")[0] for key in items} | {"salt", "absent"}
        for name in names:
            want = sorted(key for key in items
                          if key == name or key.startswith((name + "{", name + "[")))
            assert kitchen.keys_named(name) == want


def test_kitchens_with_equal_items_are_equal_hash_alike_and_print_alike():
    items = frozenset(["salt{fine}", "salt[pepper]", "bowl", "saltsake{s}"])
    first, second = Kitchen(items), Kitchen(items)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == f"Kitchen(items={items!r})"
    from_list = Kitchen(sorted(items))
    assert from_list == first and hash(from_list) == hash(first)
    assert first != Kitchen(items | {"salt"})
    graph = chain_graph()
    assert graph.min_depths(second) is graph.min_depths(first)


# --- task tree verification ---


def chain_graph():
    return FoonGraph.from_units(
        [
            simple_unit(["a"], "mix", ["b"]),
            simple_unit(["b"], "chop", ["c"]),
            simple_unit(["c"], "pour", ["d"]),
        ]
    )


def test_verify_accepts_executable_chain():
    graph = chain_graph()
    kitchen = Kitchen(frozenset(["a"]))
    assert verify_task_tree(graph, TaskTree((0, 1, 2), "d"), kitchen, "d") is None


def test_verify_flags_reordered_chain_at_position_zero():
    graph = chain_graph()
    kitchen = Kitchen(frozenset(["a"]))
    violation = verify_task_tree(graph, TaskTree((2, 0, 1), "d"), kitchen, "d")
    assert violation is not None and violation.position == 0
    assert "not available" in violation.reason


def test_verify_flags_duplicates_unknown_ids_and_missing_goal():
    graph = chain_graph()
    kitchen = Kitchen(frozenset(["a"]))
    dup = verify_task_tree(graph, TaskTree((0, 0), "b"), kitchen, "b")
    assert dup is not None and dup.position == 1 and "duplicate" in dup.reason
    bogus = verify_task_tree(graph, TaskTree((7,), "b"), kitchen, "b")
    assert bogus is not None and bogus.position == 0 and "unknown" in bogus.reason
    uncovered = verify_task_tree(graph, TaskTree((0,), "d"), kitchen, "d")
    assert uncovered is not None and uncovered.position == 1
    assert "never produced" in uncovered.reason


def test_a_bool_is_no_unit_id_to_verify_or_serialize(f2, k2):
    # True == 1, so an int check alone would accept it and write unit 1's block
    goal = "sweet potato{fried}"
    assert verify_task_tree(f2, TaskTree((0, 1, 2), goal), k2, goal) is None
    for unit_ids, position in (((0, True, 2), 1), ((False, 1, 2), 0)):
        tree = TaskTree(unit_ids, goal)
        violation = verify_task_tree(f2, tree, k2, goal)
        assert (violation.position, violation.reason) == (
            position, f"unknown unit id {unit_ids[position]!r}")
        for kitchen in (k2, None):
            with pytest.raises(ValueError, match=f"unknown unit id {unit_ids[position]!r}"):
                serialize_task_tree(f2, tree, kitchen)


def test_a_violation_prints_as_the_one_message_verify_and_serialize_share():
    assert str(foon.TreeViolation(2, "duplicate unit id 0")) == (
        "invalid task tree at unit position 2: duplicate unit id 0")


def test_unit_check_reads_the_kitchen_set_without_updating_it():
    graph = FoonGraph.from_units(
        [
            simple_unit(["a"], "mix", ["b"]),
            simple_unit(["a"], "chop", ["c"]),
            simple_unit(["c"], "pour", ["d"]),
        ]
    )
    kitchen = Kitchen(frozenset(["a"]))
    # unit 2 needs c, which only unit 1, listed after it, produces
    violation = foon.core.tree_unit_violation(graph, TaskTree((0, 2, 1), "d"), kitchen.items)
    assert (violation.position, violation.reason) == (1, "input c not available")
    items = {"a"}
    assert foon.core.tree_unit_violation(graph, TaskTree((0, 1, 2), "d"), items) is None
    assert items == {"a"}


def test_unit_check_over_node_ids_matches_the_key_walk():
    rng = random.Random(2626)
    for round_ in range(600):
        if round_ % 2:
            graph, _, kitchen = helpers.random_instance(rng)
        else:
            graph = helpers.random_textured_graph(rng)
            kitchen = Kitchen(frozenset(k for k in graph.node_index if rng.random() < 0.4))
        n = len(graph.units)
        # known ids in any order, repeats included, and ids no graph knows
        pool = [*range(n), *range(n), n, n + 3, -1, "x", 1.5, None, True, False]
        goals = [None, "absent", *graph.node_index, *kitchen.items]
        for _ in range(20):
            tree = TaskTree(tuple(rng.choice(pool) for _ in range(rng.randint(0, n + 1))), "g")
            goal = rng.choice(goals)
            for items in (kitchen.items, graph.node_index):
                assert foon.core.tree_unit_violation(graph, tree, items, goal) == (
                    helpers.key_walk_violation(graph, tree, items, goal))


def test_verify_empty_tree_needs_goal_in_kitchen():
    graph = chain_graph()
    assert verify_task_tree(graph, TaskTree((), "a"), Kitchen(frozenset(["a"])), "a") is None
    violation = verify_task_tree(graph, TaskTree((), "a"), Kitchen(), "a")
    assert violation is not None and violation.position == 0


def test_min_depths_matches_the_fixpoint_oracle():
    rng = random.Random(5150)
    for _ in range(300):
        graph, _, kitchen = helpers.random_instance(rng)
        want = {key: depth for key, depth in helpers.min_layer_depths(graph, kitchen).items()
                if depth != helpers.INF}
        want.update(dict.fromkeys(kitchen.items, 0))
        assert graph.min_depths(kitchen) == want


def test_lookups_of_an_unknown_key_are_empty():
    graph = chain_graph()
    assert graph.producers_of("nowhere") == [] and graph.consumers_of("nowhere") == []


def test_constructors_store_lists_as_hashable_tuples_and_sets():
    unit = FunctionalUnit([stateless("a")], MotionNode("mix"), [stateless("b")])
    kitchen = Kitchen(["a", "a"])
    tree = TaskTree([0], "b")
    assert type(unit.inputs) is tuple and unit.inputs == (stateless("a"),)
    assert type(unit.outputs) is tuple and unit.outputs == (stateless("b"),)
    assert type(kitchen.items) is frozenset and kitchen.items == {"a"}
    assert type(tree.unit_ids) is tuple and tree.unit_ids == (0,)
    assert len({unit, kitchen, tree}) == 3


def test_adjacency_lists_are_indexed_by_node_id():
    graph = chain_graph()
    assert graph.producers == [graph.producers_of(node.key) for node in graph.nodes]
    assert graph.consumers == [graph.consumers_of(node.key) for node in graph.nodes]
    assert graph.producers[graph.node_index["c"]] == [1]


def test_keys_named_follows_every_appended_unit():
    rng = random.Random(4242)
    for _ in range(100):
        source = helpers.random_textured_graph(rng)
        graph = FoonGraph()
        for unit in source.units:
            graph.add_unit(unit)
            for name in {node.name for node in graph.nodes} | {"absent"}:
                want = [node.key for node in graph.nodes if node.name == name]
                assert graph.keys_named(name) == want


def test_unit_node_ids_follow_every_add_duplicate_and_rate_raise():
    rng = random.Random(2441)
    raised = 0
    for number in range(200):
        if number % 2:
            source = helpers.random_textured_graph(rng)
        else:
            source = helpers.random_instance(rng)[0]
        graph = FoonGraph()
        for _ in range(3 * len(source.units)):
            unit = rng.choice(source.units)
            if rng.random() < 0.4:
                unit = helpers.rate_jitter(unit, rng)
            before = graph.find_unit(unit)
            old_rate = None if before is None else graph.units[before].motion.success_rate
            graph.add_unit(unit)
            raised += old_rate is not None and unit.motion.success_rate > old_rate
            assert len(graph.input_ids) == len(graph.output_ids) == len(graph.units)
            for uid, stored in enumerate(graph.units):
                assert graph.input_ids[uid] == tuple(graph.node_index[k] for k in stored.input_keys)
                assert graph.output_ids[uid] == tuple(
                    graph.node_index[k] for k in stored.output_keys)
    assert raised


def test_fire_layers_match_the_fixpoint_oracle():
    rng = random.Random(1993)
    fired = set()
    for _ in range(300):
        graph, _, kitchen = helpers.random_instance(rng)
        depths = helpers.min_layer_depths(graph, kitchen)
        fire = graph.fire_layers(kitchen)
        want = [1 + max(depths[key] for key in unit.input_keys) for unit in graph.units]
        assert fire == want
        fired.update(layer == math.inf for layer in fire)
    assert fired == {True, False}


def test_reachability_matches_the_layered_pass_in_order():
    rng = random.Random(1977)
    cases = []
    for _ in range(200):
        graph, _, kitchen = helpers.random_instance(rng)
        cases.append((graph, kitchen))
        graph = helpers.random_textured_graph(rng)
        keys = [k for k in graph.node_index if rng.random() < 0.4]
        cases.append((graph, Kitchen(frozenset([*keys, "absent{raw}"]))))
    for n_units in (100, 400, 1500):
        cases.append(helpers.random_scale_instance(rng, n_units))
    for graph, kitchen in cases:
        table, fire = helpers.layered_reach(graph, kitchen)
        assert list(graph.min_depths(kitchen).items()) == list(table.items())
        assert graph.fire_layers(kitchen) == fire


def test_add_unit_resets_the_fire_layers_of_a_kitchen():
    graph = FoonGraph.from_units(
        [simple_unit(["a"], "mix", ["b"], rate=0.5), simple_unit(["b"], "chop", ["c"])])
    kitchen = Kitchen(frozenset(["a"]))
    table = graph.min_depths(kitchen)
    fire = graph.fire_layers(kitchen)
    assert fire == [1, 2]
    # a duplicate that only raises a rate keeps the entry
    assert not graph.add_unit(simple_unit(["a"], "mix", ["b"], rate=0.9)).added
    assert graph.units[0].motion.success_rate == 0.9
    assert graph.fire_layers(kitchen) is fire
    assert graph.min_depths(kitchen) is table
    graph.add_unit(simple_unit(["x"], "heat", ["e"]))
    assert graph.min_depths(kitchen) is not table
    assert graph.fire_layers(kitchen) == [1, 2, math.inf]


# --- package ---


def test_package_version_is_the_project_version():
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert foon.__version__ == re.search(r'^version = "(.+)"$', pyproject, re.M)[1]


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from foon import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(foon.__all__)
    assert {"core", "formats", "retrieval"}.isdisjoint(namespace)


def test_each_public_name_is_declared_by_exactly_one_module():
    modules = (foon.core, foon.formats, foon.retrieval)
    declared = [name for module in modules for name in module.__all__]
    assert sorted(declared) == sorted(foon.__all__)
    assert len(set(declared)) == len(declared)
    assert set(declared) == {
        "AddResult", "FoonGraph", "FunctionalUnit", "Kitchen", "MotionNode", "ObjectNode",
        "TaskTree", "TreeViolation", "merge", "normalize_label", "verify_task_tree",
        "ParseError", "export_dot", "parse_kitchen", "parse_subgraph", "serialize_graph",
        "serialize_task_tree", "DEPTH_LIMIT_EXHAUSTED", "GREEDY_DEAD_END", "NO_PRODUCER",
        "HeuristicKind", "RetrievalResult", "ids_expansion_formula", "retrieve_greedy",
        "retrieve_ids", "select_candidate",
    }
    for module in modules:
        for name in module.__all__:
            assert getattr(foon, name) is getattr(module, name), name
