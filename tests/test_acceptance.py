"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Every test prints a `[criterion] name: PASS/FAIL` line (visible with -rP,
-s, or on failure) so a run reads as a checklist.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import helpers
from helpers import oracle_enumerate
from conftest import DATA, fixture_text, load_graph
from foon import (
    FoonGraph,
    HeuristicKind,
    merge,
    ids_expansion_formula,
    parse_kitchen,
    parse_subgraph,
    retrieve_greedy,
    retrieve_ids,
    serialize_graph,
    verify_task_tree,
)
from foon.cli import main

H1 = HeuristicKind.MAX_SUCCESS_RATE
H2 = HeuristicKind.MIN_INPUT_COUNT
README = Path(__file__).parents[1] / "README.md"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[criterion] {name}: FAIL")
        raise
    print(f"[criterion] {name}: PASS")


def row_cells(stdout, goal):
    line = next(ln for ln in stdout.splitlines() if ln.startswith(goal))
    return line.split()[-3:]


def test_fixture_parity_rows(tmp_path, capsys):
    """The bundled mini-corpus reproduces the 1,1,1 and 3,3,3 comparison rows."""
    with criterion("fixture parity (1,1,1 and 3,3,3 rows)"):
        merged = tmp_path / "mini.foon"
        assert main(["merge", str(DATA / "F1.foon"), str(DATA / "F2.foon"),
                     "-o", str(merged)]) == 0
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["compare", str(merged), "-k", str(DATA / "K_mini.kitchen"),
                     "--goals", str(DATA / "goals_mini.txt")]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert row_cells(out, "ice{solid}") == ["1", "1", "1"]
        assert row_cells(out, "sweet potato{fried}") == ["3", "3", "3"]
        assert elapsed < 1.0, f"compare took {elapsed:.3f}s"


def test_heuristic_divergence():
    """F3 splits the heuristics: 1 unit by success rate, 5 by input count."""
    with criterion("heuristic divergence (h1=1, h2=5 on F3)"):
        graph = load_graph("F3.foon")
        kitchen = parse_kitchen(fixture_text("K3.kitchen"), "K3.kitchen")
        start = time.perf_counter()
        by_rate = retrieve_greedy(graph, "goal{done}", kitchen, H1)
        by_inputs = retrieve_greedy(graph, "goal{done}", kitchen, H2)
        elapsed = time.perf_counter() - start
        assert by_rate.found and len(by_rate.tree.unit_ids) == 1
        assert by_inputs.found and len(by_inputs.tree.unit_ids) == 5
        sizes = sorted(len(t.unit_ids) for t in
                       oracle_enumerate(graph, "goal{done}", kitchen, 12))
        assert sizes == [1, 5]
        assert elapsed < 1.0, f"retrieval took {elapsed:.3f}s"


def test_oracle_equivalence_on_random_instances():
    """500 random instances: search succeeds exactly when a tree exists,
    every returned tree verifies, and the found depth is minimal."""
    with criterion("oracle equivalence over 500 random instances"):
        rng = random.Random(2468)
        start = time.perf_counter()
        solvable = 0
        for _ in range(500):
            graph, goal, kitchen = helpers.random_instance(rng)
            trees = oracle_enumerate(graph, goal, kitchen, 12)
            ids_result = retrieve_ids(graph, goal, kitchen)
            assert ids_result.found == bool(trees)
            for result in (ids_result,
                           retrieve_greedy(graph, goal, kitchen, H1),
                           retrieve_greedy(graph, goal, kitchen, H2)):
                if result.found:
                    assert verify_task_tree(graph, result.tree, kitchen, goal) is None
                    assert trees
            if not ids_result.found:
                assert helpers.goal_min_depth(graph, kitchen, goal) == helpers.INF
                continue
            solvable += 1
            best = helpers.goal_min_depth(graph, kitchen, goal)
            assert helpers.tree_goal_depth(graph, ids_result.tree, kitchen) == best
            if best > 0:
                assert not retrieve_ids(graph, goal, kitchen,
                                        depth_limit=int(best) - 1).found
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"500 instances took {elapsed:.1f}s"
        assert 50 < solvable < 450, f"degenerate instance mix: {solvable}/500 solvable"


def test_expansion_accounting_matches_formula():
    """Measured expansions on uniform b-ary instances equal the closed form."""
    with criterion("expansion formula exact for b in {2,3}, d in 0..5"):
        for b in (2, 3):
            for d in range(6):
                graph, goal, kitchen = helpers.uniform_bary_instance(b, d)
                result = retrieve_ids(graph, goal, kitchen, depth_limit=d, memoize=False)
                assert not result.found
                expected = ids_expansion_formula(b, d)
                assert result.expansions == expected, (b, d, result.expansions, expected)


def test_merge_dedup_laws_on_random_pairs():
    """500 graph pairs: dedup by identity, order-insensitive, max-rate kept."""
    with criterion("merge/dedup laws over 500 random pairs"):
        rng = random.Random(1357)
        for _ in range(500):
            first = helpers.random_textured_graph(rng)
            shared = [helpers.rate_jitter(u, rng) if rng.random() < 0.5 else u
                      for u in rng.sample(first.units, rng.randint(0, len(first.units)))]
            extra = helpers.random_textured_graph(rng).units
            mixed = shared + list(extra)
            rng.shuffle(mixed)
            second = FoonGraph.from_units(mixed)

            merged = merge([first, second])
            assert len(merged.units) == helpers.distinct_identity_count(
                list(first.units) + list(second.units))
            idents = {u.identity() for u in merged.units}
            assert idents == {u.identity() for u in merge([second, first]).units}
            assert merge([merged, first, second]).units == merged.units

            by_ident = {u.identity(): u.motion.success_rate for u in first.units}
            for unit in second.units:
                ident = unit.identity()
                if ident in by_ident:
                    kept = merged.units[merged.find_unit(unit)].motion.success_rate
                    assert kept == max(by_ident[ident], unit.motion.success_rate)


def test_round_trip_on_random_graphs_and_golden_files():
    """Parsing a serialization reproduces the graph; fixtures are byte-exact."""
    with criterion("round trip: 500 random graphs + golden fixtures"):
        rng = random.Random(97531)
        for _ in range(500):
            graph = helpers.random_textured_graph(rng)
            text = serialize_graph(graph)
            rebuilt = FoonGraph.from_units(parse_subgraph(text))
            assert rebuilt.units == graph.units
            assert serialize_graph(rebuilt) == text
        for name in ("F1.foon", "F2.foon", "F3.foon", "cyclic.foon"):
            text = fixture_text(name)
            assert serialize_graph(FoonGraph.from_units(parse_subgraph(text, name))) == text


def test_termination_on_cyclic_fixtures():
    """Self-loops and 2-cycles finish promptly under all three algorithms."""
    with criterion("termination on cyclic fixtures under 1s each"):
        graph = load_graph("cyclic.foon")
        kitchen = parse_kitchen(fixture_text("empty.kitchen"), "empty.kitchen")
        for goal in ("widget{cursed}", "a{x}", "b{y}"):
            for run in (
                lambda: retrieve_ids(graph, goal, kitchen, depth_limit=5),
                lambda: retrieve_greedy(graph, goal, kitchen, H1),
                lambda: retrieve_greedy(graph, goal, kitchen, H2),
            ):
                start = time.perf_counter()
                result = run()
                assert time.perf_counter() - start < 1.0
                assert not result.found


def test_compare_layout_reproduction_path(tmp_path, capsys):
    """`compare` emits the goals-by-algorithms table for any corpus, and the
    README documents the procedure; pointing the same command at a full
    corpus and kitchen reproduces the published-style comparison."""
    with criterion("comparison-table reproduction path"):
        goals = tmp_path / "goals.txt"
        goals.write_text("goal{done}\nbase{raw}\nnothing{here}\n", encoding="utf-8")
        csv_path = tmp_path / "table.csv"
        assert main(["compare", str(DATA / "F3.foon"), "-k", str(DATA / "K3.kitchen"),
                     "--goals", str(goals), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0]
        assert header.startswith("Goal Nodes")
        for column in ("Iterative Deepening Search", "Heuristic 1", "Heuristic 2"):
            assert column in header
        assert [ln.split()[0] for ln in out[1:]] == ["goal{done}", "base{raw}", "nothing{here}"]
        assert row_cells("\n".join(out), "goal{done}") == ["1", "1", "5"]
        assert row_cells("\n".join(out), "base{raw}") == ["0", "0", "0"]
        assert row_cells("\n".join(out), "nothing{here}") == ["-", "-", "-"]
        csv_lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert csv_lines[0] == "goal,ids,h1,h2"
        assert len(csv_lines) == 4

        readme = README.read_text(encoding="utf-8")
        assert "foon compare" in readme and "foon merge" in readme
        for column in ("Iterative Deepening Search", "Heuristic 1", "Heuristic 2"):
            assert column in readme
