import csv
import inspect
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import DATA, fixture_text
import foon.cli
import foon.formats
import helpers
import foon.retrieval
from foon import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    ParseError,
    parse_kitchen,
    parse_subgraph,
    retrieve_greedy,
    retrieve_ids,
    serialize_graph,
    serialize_task_tree,
    verify_task_tree,
)
from foon.cli import CliError, main, resolve_goal

F1 = str(DATA / "F1.foon")
F2 = str(DATA / "F2.foon")
F3 = str(DATA / "F3.foon")
CYC = str(DATA / "cyclic.foon")
K1 = str(DATA / "K1.kitchen")
K2 = str(DATA / "K2.kitchen")
K3 = str(DATA / "K3.kitchen")
K_MINI = str(DATA / "K_mini.kitchen")
GOALS = str(DATA / "goals_mini.txt")


@pytest.fixture
def mini_graph(tmp_path, capsys):
    out = tmp_path / "mini.foon"
    assert main(["merge", F1, F2, "-o", str(out)]) == 0
    capsys.readouterr()
    return str(out)


# --- merge ---


def test_merge_disjoint_reports_no_duplicates(tmp_path, capsys):
    out = tmp_path / "out.foon"
    assert main(["merge", F1, F2, "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "4 units" in err and "0 duplicates removed" in err
    units = parse_subgraph(out.read_text(encoding="utf-8"))
    assert len(units) == 4


def test_merge_self_reports_one_duplicate(tmp_path, capsys):
    out = tmp_path / "out.foon"
    assert main(["merge", F1, F1, "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "1 unit," in err and "1 duplicate removed" in err
    assert len(parse_subgraph(out.read_text(encoding="utf-8"))) == 1


def test_merge_missing_file_is_usage_error(capsys):
    assert main(["merge", "missing.foon", "-o", "x.foon"]) == 2
    assert "missing.foon" in capsys.readouterr().err


def test_merge_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.foon"
    bad.write_text("O\twater\nM\tfreeze\t2.0\nO\tice\n//\n", encoding="utf-8")
    assert main(["merge", str(bad), "-o", str(tmp_path / "out.foon")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err and "outside [0, 1]" in err


def test_merge_defaults_to_stdout(capsys):
    assert main(["merge", F1]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# foon subgraph\n") and "M\tfreeze\t0.95" in out


def test_input_with_byte_order_mark_reads_like_plain_utf8(tmp_path, capsys):
    bom = tmp_path / "bom.foon"
    bom.write_bytes(b"\xef\xbb\xbf" + (DATA / "F1.foon").read_bytes())
    assert main(["stats", F1]) == 0
    plain = capsys.readouterr().out
    assert main(["stats", str(bom)]) == 0
    assert capsys.readouterr().out == plain


def test_non_utf8_input_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.foon"
    bad.write_bytes(b"\xff\xfeO\x00\t\x00")
    assert main(["stats", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {bad}: ") and err.count("\n") == 1


# --- search ---


def test_search_ids_writes_tree_and_counts(capsys):
    assert main(["search", F1, "-g", "ice{solid}", "-k", K1, "-a", "ids"]) == 0
    captured = capsys.readouterr()
    assert "1 functional unit" in captured.err
    assert captured.out.startswith("# foon task tree\n")
    assert "# goal: ice{solid}" in captured.out
    assert "# algorithm: ids" in captured.out


def test_search_heuristics_diverge_on_f3(capsys):
    assert main(["search", F3, "-g", "goal{done}", "-k", K3, "-a", "h1"]) == 0
    assert "1 functional unit" in capsys.readouterr().err
    assert main(["search", F3, "-g", "goal{done}", "-k", K3, "-a", "h2"]) == 0
    assert "5 functional units" in capsys.readouterr().err


def test_search_not_found_exits_one(capsys):
    assert main(["search", CYC, "-g", "widget{cursed}", "-k", str(DATA / "empty.kitchen")]) == 1
    assert "depth-limit-exhausted" in capsys.readouterr().err


def test_search_unknown_goal_exits_one(capsys):
    assert main(["search", F1, "-g", "lava{hot}", "-k", K1]) == 1
    assert "no-producer" in capsys.readouterr().err


def test_search_max_depth_limits_ids(capsys):
    assert main(["search", F2, "-g", "sweet potato{fried}", "-k", K2, "--max-depth", "2"]) == 1
    assert "depth-limit-exhausted" in capsys.readouterr().err


def test_search_negative_max_depth_is_usage_error(capsys):
    assert main(["search", F2, "-g", "sweet potato{fried}", "-k", K2, "--max-depth", "-1"]) == 2
    assert "--max-depth" in capsys.readouterr().err


def test_search_goal_name_resolves_when_unique(capsys):
    assert main(["search", F1, "-g", "ice", "-k", K1]) == 0
    assert "# goal: ice{solid}" in capsys.readouterr().out


def test_search_goal_name_ambiguous_lists_keys(capsys):
    assert main(["search", F1, "-g", "tray", "-k", K1]) == 2
    err = capsys.readouterr().err
    assert "tray{empty}" in err and "tray{full}" in err


def test_search_goal_name_without_matches_exits_one(capsys):
    assert main(["search", F1, "-g", "unobtainium", "-k", K1]) == 1
    assert "no-producer" in capsys.readouterr().err


def test_ambiguous_name_lists_a_key_in_graph_and_kitchen_once(capsys):
    # tray{empty} is both a node of F1 and an item of K1
    assert main(["search", F1, "-g", "tray", "-k", K1]) == 2
    assert capsys.readouterr().err == "goal name 'tray' is ambiguous: tray{empty}, tray{full}\n"


def resolution(spec, graph, kitchen):
    try:
        return resolve_goal(spec, graph, kitchen)
    except CliError as exc:
        return str(exc)


def test_name_index_sees_a_node_added_after_a_lookup():
    def bread(state):
        return ObjectNode("bread", frozenset([state]))

    graph = FoonGraph.from_units(
        [FunctionalUnit((ObjectNode("dough"),), MotionNode("bake"), (bread("baked"),))]
    )
    kitchen = Kitchen(frozenset(["dough"]))
    assert resolve_goal("bread", graph, kitchen) == "bread{baked}"
    assert graph.add_unit(
        FunctionalUnit((bread("baked"),), MotionNode("slice"), (bread("sliced"),))
    ).added
    want = "goal name 'bread' is ambiguous: bread{baked}, bread{sliced}"
    assert resolution("bread", graph, kitchen) == want
    assert resolution("bread", FoonGraph.from_units(graph.units), kitchen) == want


def test_bare_names_resolve_like_a_scan_of_every_key():
    rng = random.Random(8080)
    for _ in range(100):
        graph = helpers.random_textured_graph(rng)
        kitchen = Kitchen.from_nodes(helpers.random_node(rng) for _ in range(rng.randint(0, 4)))
        for name in {node.name for node in graph.nodes} | {"absent"}:
            keys = sorted({key for key in [*graph.node_index, *kitchen.items]
                           if key.split("{")[0].split("[")[0] == name})
            if len(keys) > 1:
                want = f"goal name {name!r} is ambiguous: " + ", ".join(keys)
            else:
                want = keys[0] if keys else name
            assert resolution(name, graph, kitchen) == want


def test_kitchen_names_that_only_start_with_the_goal_name_do_not_match():
    graph = FoonGraph.from_units(
        [FunctionalUnit((ObjectNode("water"),), MotionNode("freeze"),
                        (ObjectNode("ice", frozenset(["solid"])),))]
    )
    kitchen = Kitchen(frozenset(["icebox", "ice cream{soft}", "ice tray[ice]", "water"]))
    assert resolve_goal("ice", graph, kitchen) == "ice{solid}"
    assert resolution("ice", graph, Kitchen(kitchen.items | {"ice[salt]"})) == (
        "goal name 'ice' is ambiguous: ice[salt], ice{solid}")


def test_a_goal_spec_with_states_never_widens_to_a_longer_key():
    kitchen = Kitchen(frozenset(["ice{solid}[salt]"]))
    assert resolve_goal("ice{solid}", FoonGraph(), kitchen) == "ice{solid}"


def test_empty_braces_name_the_stateless_key_exactly():
    graph = FoonGraph.from_units(
        [FunctionalUnit((ObjectNode("water"),), MotionNode("freeze"),
                        (ObjectNode("ice", frozenset(["solid"])),))]
    )
    kitchen = Kitchen(frozenset(["ice[salt]"]))
    assert resolution("ice", graph, kitchen) == (
        "goal name 'ice' is ambiguous: ice[salt], ice{solid}")
    for spec in ("ice{}", "ice[]", "ice{ }[]"):
        assert resolve_goal(spec, graph, kitchen) == "ice"


def test_goal_resolution_and_greedy_keep_their_signatures():
    assert list(inspect.signature(resolve_goal).parameters) == ["spec", "graph", "kitchen"]
    assert list(inspect.signature(retrieve_greedy).parameters) == [
        "graph", "goal", "kitchen", "heuristic"]


def test_search_deep_chain_writes_the_whole_tree(tmp_path, capsys):
    chain = [
        FunctionalUnit((ObjectNode(f"link {i}"),), MotionNode(f"step {i}"),
                       (ObjectNode(f"link {i + 1}"),))
        for i in range(2000)
    ]
    graph = tmp_path / "chain.foon"
    graph.write_text(serialize_graph(FoonGraph.from_units(chain)), encoding="utf-8")
    kitchen = tmp_path / "chain.kitchen"
    kitchen.write_text("O\tlink 0\n", encoding="utf-8")
    tree_path = tmp_path / "tree.foon"
    assert main(["search", str(graph), "-g", "link 2000", "-k", str(kitchen),
                 "-o", str(tree_path)]) == 0
    assert "2000 functional units" in capsys.readouterr().err
    assert len(parse_subgraph(tree_path.read_text(encoding="utf-8"))) == 2000


def test_search_malformed_goal_spec(capsys):
    assert main(["search", F1, "-g", "ice{so{lid}", "-k", K1]) == 2
    assert "bad goal spec" in capsys.readouterr().err


def test_search_output_file_round_trips_through_verify(tmp_path, capsys):
    tree_path = tmp_path / "tree.foon"
    assert main(
        ["search", F2, "-g", "sweet potato{fried}", "-k", K2, "-o", str(tree_path)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["verify", F2, str(tree_path), "-k", K2, "-g", "sweet potato{fried}"]
    ) == 0
    assert "valid task tree: 3 functional units" in capsys.readouterr().err


def test_search_output_verifies_the_tree_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_task_tree(*args)

    for module in (foon.formats, foon.retrieval):
        monkeypatch.setattr(module, "verify_task_tree", counting)
    tree_path = tmp_path / "tree.foon"
    assert main(["search", F2, "-g", "sweet potato{fried}", "-k", K2, "-o", str(tree_path)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    graph = FoonGraph.from_units(parse_subgraph(fixture_text("F2.foon"), F2))
    kitchen = parse_kitchen(fixture_text("K2.kitchen"), K2)
    tree = retrieve_ids(graph, "sweet potato{fried}", kitchen).tree
    assert tree_path.read_text() == serialize_task_tree(graph, tree, kitchen, algorithm="ids")


def test_search_goal_name_with_a_forbidden_character_is_usage_error(capsys):
    # the spec passes the goal pattern; the node constructor rejects it
    assert main(["search", F1, "-g", "salt,pepper", "-k", K1]) == 2
    assert capsys.readouterr().err == (
        "bad goal spec 'salt,pepper': object name 'salt,pepper' contains forbidden "
        "character(s) ','\n"
    )


def test_search_output_to_a_directory_is_usage_error(tmp_path, capsys):
    assert main(["search", F1, "-g", "ice{solid}", "-k", K1, "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write {tmp_path}: ")


@pytest.mark.parametrize("error", [RuntimeError("rebuild lost its way"), MemoryError()])
def test_unexpected_exception_is_one_line_with_exit_four(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(foon.cli, "retrieve_ids", broken)
    assert main(["search", F1, "-g", "ice{solid}", "-k", K1]) == 4
    assert capsys.readouterr().err == f"foon: internal error: {type(error).__name__}: {error}\n"


def test_parse_error_from_an_engine_stays_a_usage_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ParseError("tree.foon", 7, "unit has no outputs")

    monkeypatch.setattr(foon.cli, "retrieve_ids", broken)
    assert main(["search", F1, "-g", "ice{solid}", "-k", K1]) == 2
    assert capsys.readouterr().err == "tree.foon:7: unit has no outputs\n"


# --- compare ---


def test_compare_mini_corpus_rows(mini_graph, capsys):
    assert main(["compare", mini_graph, "-k", K_MINI, "--goals", GOALS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("  ")[0] == "Goal Nodes"
    for column in ("Iterative Deepening Search", "Heuristic 1", "Heuristic 2"):
        assert column in lines[0]
    ice = next(line for line in lines if line.startswith("ice{solid}"))
    assert ice.split()[-3:] == ["1", "1", "1"]
    fried = next(line for line in lines if line.startswith("sweet potato{fried}"))
    assert fried.split()[-3:] == ["3", "3", "3"]


def test_compare_f3_row_shows_divergence(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("goal{done}\n", encoding="utf-8")
    assert main(["compare", F3, "-k", K3, "--goals", str(goals)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[-3:] == ["1", "1", "5"]


def test_compare_renders_dashes_for_unreachable_goals(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("goal{done}\nnothing{here}\n", encoding="utf-8")
    csv_path = tmp_path / "table.csv"
    assert main(["compare", F3, "-k", K3, "--goals", str(goals), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    missing = next(line for line in out if line.startswith("nothing{here}"))
    assert missing.split()[-3:] == ["-", "-", "-"]
    csv_lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "goal,ids,h1,h2"
    assert "goal{done},1,1,5" in csv_lines
    assert "nothing{here},,," in csv_lines


def test_compare_unreachable_goal_with_producers_is_prompt(tmp_path, capsys):
    # a ring of 3,000 units feeding the goal, and a kitchen with none of it
    ring = [
        FunctionalUnit((ObjectNode(f"ring {i}"),), MotionNode("turn"),
                       (ObjectNode(f"ring {(i + 1) % 3000}"),))
        for i in range(3000)
    ]
    ring.append(FunctionalUnit((ObjectNode("ring 0"),), MotionNode("serve"), (ObjectNode("dish"),)))
    graph = tmp_path / "ring.foon"
    graph.write_text(serialize_graph(FoonGraph.from_units(ring)), encoding="utf-8")
    kitchen = tmp_path / "empty.kitchen"
    kitchen.write_text("", encoding="utf-8")
    goals = tmp_path / "goals.txt"
    goals.write_text("dish\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["compare", str(graph), "-k", str(kitchen), "--goals", str(goals)]) == 0
    elapsed = time.perf_counter() - start
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split() == ["dish", "-", "-", "-"]
    assert elapsed < 2.0, f"compare took {elapsed:.3f}s"


def test_compare_skips_malformed_and_ambiguous_goals(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("a{b\ntray\nice{solid}\n", encoding="utf-8")
    csv_path = tmp_path / "table.csv"
    assert main(["compare", F1, "-k", K1, "--goals", str(goals), "--csv", str(csv_path)]) == 0
    captured = capsys.readouterr()
    assert "skipping goal 'a{b': bad goal spec 'a{b'" in captured.err
    assert "skipping goal 'tray': goal name 'tray' is ambiguous" in captured.err
    rows = [line.split() for line in captured.out.splitlines()[1:]]
    assert rows == [["a{b", "-", "-", "-"], ["tray", "-", "-", "-"], ["ice{solid}", "1", "1", "1"]]
    assert csv_path.read_text(encoding="utf-8").splitlines()[1:] == [
        "a{b,,,", "tray,,,", "ice{solid},1,1,1"]


def test_compare_csv_keeps_goals_with_commas_in_one_field(tmp_path, capsys):
    clean, dry = ObjectNode("bowl", {"clean"}), ObjectNode("bowl", {"clean", "dry"})
    salad = ObjectNode("salad", ingredients={"kale", "oil"})
    graph = tmp_path / "salad.foon"
    graph.write_text(serialize_graph(FoonGraph.from_units([
        FunctionalUnit((clean,), MotionNode("dry"), (dry,)),
        FunctionalUnit((dry,), MotionNode("toss"), (salad,)),
    ])), encoding="utf-8")
    kitchen = tmp_path / "bowl.kitchen"
    kitchen.write_text("O\tbowl\nS\tclean\n", encoding="utf-8")
    goals = tmp_path / "goals.txt"
    goals.write_text(f"{dry.key}\n{salad.key}\nbad{{a,b\n", encoding="utf-8")
    csv_path = tmp_path / "table.csv"
    assert main(["compare", str(graph), "-k", str(kitchen), "--goals", str(goals),
                 "--csv", str(csv_path)]) == 0
    assert "skipping goal 'bad{a,b'" in capsys.readouterr().err
    with csv_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["goal", "ids", "h1", "h2"], ["bowl{clean,dry}", "1", "1", "1"],
                    [salad.key, "2", "2", "2"], ["bad{a,b", "", "", ""]]


def test_compare_empty_goals_file_prints_header_only(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("# no goals today\n\n", encoding="utf-8")
    assert main(["compare", F3, "-k", K3, "--goals", str(goals)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Goal Nodes")


def test_compare_counts_zero_when_goal_already_available(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("base{raw}\n", encoding="utf-8")
    assert main(["compare", F3, "-k", K3, "--goals", str(goals)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[-3:] == ["0", "0", "0"]


# --- export-dot / stats ---


def test_export_dot_to_file(tmp_path):
    out = tmp_path / "graph.dot"
    assert main(["export-dot", F1, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph foon {") and text.count("->") == 6


def test_stats_on_mini_corpus(mini_graph, capsys):
    assert main(["stats", mini_graph]) == 0
    out = capsys.readouterr().out
    assert "4 units" in out
    assert "17 object nodes" in out
    assert "4 distinct motion labels" in out
    assert "max in-degree 1" in out
    assert "max out-degree 1" in out


# --- verify ---


def test_verify_rejects_reordered_tree(tmp_path, capsys):
    from foon import TaskTree, serialize_task_tree

    graph = FoonGraph.from_units(parse_subgraph(fixture_text("F2.foon"), "F2.foon"))
    scrambled = serialize_task_tree(graph, TaskTree((2, 0, 1), "sweet potato{fried}"))
    tree_path = tmp_path / "scrambled.foon"
    tree_path.write_text(scrambled, encoding="utf-8")
    assert main(["verify", F2, str(tree_path), "-k", K2, "-g", "sweet potato{fried}"]) == 3
    err = capsys.readouterr().err
    assert "position 0" in err and "not available" in err


def test_verify_rejects_units_missing_from_graph(tmp_path, capsys):
    assert main(["verify", F1, F2, "-k", K1, "-g", "ice{solid}"]) == 3
    assert "position 0" in capsys.readouterr().err


def test_verify_names_the_first_tree_unit_missing_from_the_graph(tmp_path, capsys):
    tree_path = tmp_path / "tree.foon"
    tree_path.write_text(fixture_text("F1.foon") + fixture_text("F2.foon"), encoding="utf-8")
    assert main(["verify", F1, str(tree_path), "-k", K1, "-g", "ice{solid}"]) == 3
    assert capsys.readouterr().err == "tree unit at position 1 is not in the graph\n"


def test_verify_accepts_empty_tree_for_kitchen_goal(tmp_path, capsys):
    tree_path = tmp_path / "empty_tree.foon"
    tree_path.write_text("# foon task tree\n# goal: water{liquid}\n", encoding="utf-8")
    assert main(["verify", F1, str(tree_path), "-k", K1, "-g", "water{liquid}"]) == 0
    assert "valid task tree: 0 functional units" in capsys.readouterr().err


def test_verify_reads_the_graphs_blocks_in_a_saved_tree_as_the_graphs_units(
        tmp_path, capsys, monkeypatch):
    tree_path = tmp_path / "tree.foon"
    assert main(["search", F2, "-g", "sweet potato{fried}", "-k", K2, "-o", str(tree_path)]) == 0
    capsys.readouterr()
    graph_units = len({id(unit) for unit in parse_subgraph(fixture_text("F2.foon"))})
    built = []
    trusted = FunctionalUnit._trusted
    monkeypatch.setattr(FunctionalUnit, "_trusted",
                        lambda *args: built.append(args) or trusted(*args))
    assert main(["verify", F2, str(tree_path), "-k", K2, "-g", "sweet potato{fried}"]) == 0
    assert capsys.readouterr().err == "valid task tree: 3 functional units\n"
    assert len(built) == graph_units


# --- argument handling ---


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "merge" in capsys.readouterr().out


def test_running_the_module_exits_with_the_code_main_returns(tmp_path, capsys):
    root = DATA.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "foon.cli", *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)

    stats = run("stats", "tests/data/F1.foon")
    assert main(["stats", F1]) == 0
    assert (stats.returncode, stats.stdout, stats.stderr) == (0, capsys.readouterr().out, "")
    missing = str(tmp_path / "missing.foon")
    gone = run("stats", missing)
    assert main(["stats", missing]) == 2
    assert (gone.returncode, gone.stdout, gone.stderr) == (2, "", capsys.readouterr().err)
    assert gone.stderr.startswith(f"cannot read {missing}: ") and gone.stderr.count("\n") == 1
