"""One benchmark workload in a fresh process: set up, run ops, check outputs.

run.py starts this file as ``python3 worker.py CONFIG`` where CONFIG is a
JSON object with ``workload``, ``work`` (the generated input directory),
``seconds``, ``trace`` (0 or 1), ``setup_only`` and ``spans`` (where the
traced run writes its spans). It prints one JSON line with its
measurements and the problems the output checks found.

The interpreter runs with its defaults: no raised recursion limit, and
every case runs, so known defects of the program show up as failed ops.
"""

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import foon.cli  # noqa: E402
import foon.core  # noqa: E402
import foon.formats  # noqa: E402
import foon.retrieval  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# A single op never legitimately takes this long; beyond it the op is
# recorded as a timeout and the run goes on.
OP_CAP_S = 30.0
# Ops still pending this long after the measuring window are not started.
RUN_BUDGET_S = 110.0
# IDS recurses once per layer, so a goal this close to the interpreter's
# recursion limit (counting the benchmark's own frames) may raise
# RecursionError. That is the program's known defect, recorded as a failed
# op; any other exception is a check failure.
STACK_MARGIN = 50

# Machine speed drifts by up to 2x over minutes on a shared host. Each
# process therefore also times this fixed loop, which touches nothing of
# the program and allocates nothing, between ops at most every
# REFERENCE_EVERY_S, so that its samples cover the run evenly; run.py
# scales times by their median. Pass walls count time inside ops only.
REFERENCE_ITERATIONS = 200_000
REFERENCE_EVERY_S = 0.25

ENGINES = ("ids", "h1", "h2")
HEURISTICS = {
    "h1": foon.retrieval.HeuristicKind.MAX_SUCCESS_RATE,
    "h2": foon.retrieval.HeuristicKind.MIN_INPUT_COUNT,
}


def reference_s():
    began = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - began


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_CAP_S} s")


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path):
    units = foon.formats.parse_subgraph(_read(path), path.name)
    return foon.core.FoonGraph.from_units(units)


def _load_kitchen(path):
    return foon.formats.parse_kitchen(_read(path), path.name)


def _retrieve(graph, goal, kitchen, algo, depth_limit=None):
    if algo == "ids":
        return foon.retrieval.retrieve_ids(graph, goal, kitchen, depth_limit=depth_limit)
    return foon.retrieval.retrieve_greedy(graph, goal, kitchen, HEURISTICS[algo])


def tree_depth(graph, unit_ids, kitchen, goal):
    """Functional-unit layers a (verified) tree needs to produce the goal."""
    depth = {}
    for uid in unit_ids:
        unit = graph.units[uid]
        level = 1 + max(0 if k in kitchen else depth[k] for k in unit.input_keys)
        for k in unit.output_keys:
            if k not in kitchen and level < depth.get(k, level + 1):
                depth[k] = level
    return 0 if goal in kitchen else depth[goal]


def _check_tree(graph, kitchen, goal, unit_ids, text, algo):
    """Problems with one returned tree: verification and the text round trip."""
    tree = foon.core.TaskTree(tuple(unit_ids), goal)
    violation = foon.core.verify_task_tree(graph, tree, kitchen, goal)
    if violation is not None:
        return [f"{algo} tree for {goal} does not verify: {violation}"]
    if text is None:
        return []
    parsed = foon.formats.parse_subgraph(text, "tree")
    want = [(graph.units[uid].identity(), graph.units[uid].motion.success_rate) for uid in unit_ids]
    got = [(u.identity(), u.motion.success_rate) for u in parsed]
    if got != want:
        return [f"{algo} tree for {goal} does not parse back to the same units"]
    return []


def _check_result(graph, kitchen, goal, algo, unit_ids, text, depth, limit=None):
    """Problems with one engine's answer, judged by the oracle depth.

    depth None means the goal cannot be reached. IDS must find a tree
    exactly when the goal is reachable within its depth limit, at the
    oracle depth; a greedy engine may miss a tree but never invent one.
    """
    reachable = depth is not None and (algo != "ids" or limit is None or depth <= limit)
    if unit_ids is None:
        if algo == "ids" and reachable:
            return [f"ids found no tree for {goal}, which the oracle reaches at depth {depth}"]
        return []
    if not reachable:
        return [f"{algo} found a tree for {goal}, which has none"]
    problems = _check_tree(graph, kitchen, goal, unit_ids, text, algo)
    if algo == "ids" and not problems:
        got = tree_depth(graph, unit_ids, kitchen, goal)
        if got != depth:
            problems.append(f"ids tree for {goal} has depth {got}, oracle says {depth}")
    return problems


class Ingest:
    """`foon merge` through main() over every recipe file: one op per file."""

    def __init__(self, work):
        self.files = sorted(str(p) for p in (work / "recipes").iterdir())
        self.out = work / "merged.foon"
        self.items = ["merge"]
        self.ops_per_item = len(self.files)

    def run(self, item):
        with contextlib.redirect_stderr(io.StringIO()):
            code = foon.cli.main(["merge", *self.files, "-o", str(self.out)])
        if code != 0:
            raise RuntimeError(f"foon merge exited with {code}")
        data = self.out.read_bytes()
        return {"merged_sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    def check(self, records, expected):
        record = records[0]
        if "error" in record:
            return [f"foon merge raised {record['error']}"]
        problems = []
        data = self.out.read_bytes()
        if record["merged_sha256"] != expected["universal_sha256"]:
            problems.append("merged output differs from the independently deduplicated corpus")
        graph = foon.core.FoonGraph.from_units(foon.formats.parse_subgraph(data.decode(), "merged"))
        if len(graph.units) != expected["distinct_units"]:
            problems.append(
                f"merged {len(graph.units)} units, corpus has {expected['distinct_units']} distinct")
        if foon.formats.serialize_graph(graph).encode() != data:
            problems.append("merged output does not re-serialize byte for byte")
        return problems


class Query:
    """Per goal row, what `foon compare` does plus `search -o` on each tree."""

    def __init__(self, work):
        self.graph = _load_graph(work / "universal.foon")
        self.kitchen = _load_kitchen(work / "kitchen.txt")
        self.items = [line for line in _read(work / "goals.txt").split("\n") if line]
        self.ops_per_item = 1

    def run(self, spec):
        goal = foon.cli.resolve_goal(spec, self.graph, self.kitchen)
        engines = {}
        for algo in ENGINES:
            result = _retrieve(self.graph, goal, self.kitchen, algo)
            if result.found:
                text = foon.formats.serialize_task_tree(
                    self.graph, result.tree, self.kitchen, algorithm=algo)
                engines[algo] = [list(result.tree.unit_ids), None, result.expansions, text]
            else:
                engines[algo] = [None, result.reason, result.expansions, None]
        return {"goal": goal, "engines": engines}

    def check(self, records, expected):
        problems = []
        for spec, record, want in zip(self.items, records, expected["goals"]):
            if "error" in record:
                problems.append(f"goal {spec!r} raised {record['error']}")
                continue
            goal = record["goal"]
            if goal != want["key"]:
                problems.append(f"goal {spec!r} resolved to {goal}, expected {want['key']}")
                continue
            for algo, (unit_ids, _, _, text) in record["engines"].items():
                problems += _check_result(self.graph, self.kitchen, goal, algo, unit_ids, text,
                                          want["depth"])
        return problems


class Deep:
    """Pathological shapes, each under all three engines: one op per (case, engine)."""

    def __init__(self, work):
        self.cases = json.loads(_read(work / "cases.json"))
        graphs, kitchens = {}, {}
        for case in self.cases:
            if case["graph"] not in graphs:
                graphs[case["graph"]] = _load_graph(work / case["graph"])
            if case["kitchen"] not in kitchens:
                kitchens[case["kitchen"]] = _load_kitchen(work / case["kitchen"])
        self.graphs, self.kitchens = graphs, kitchens
        self.items = [(i, algo) for i in range(len(self.cases)) for algo in ENGINES]
        self.ops_per_item = 1

    def run(self, item):
        index, algo = item
        case = self.cases[index]
        result = _retrieve(self.graphs[case["graph"]], case["goal"],
                           self.kitchens[case["kitchen"]], algo, case["limit"])
        if result.found:
            return {"tree": list(result.tree.unit_ids), "expansions": result.expansions}
        return {"reason": result.reason, "expansions": result.expansions}

    def check(self, records, expected):
        problems = []
        for (index, algo), record in zip(self.items, records):
            case = self.cases[index]
            depth = expected["depths"][index]
            if "error" in record:
                known = (record["error"] == "RecursionError" and algo == "ids"
                         and depth is not None and depth + STACK_MARGIN >= sys.getrecursionlimit())
                if not known:
                    problems.append(f"{algo} raised {record['error']} in {case['name']}")
                continue
            problems += _check_result(
                self.graphs[case["graph"]], self.kitchens[case["kitchen"]], case["goal"], algo,
                record.get("tree"), None, depth, case["limit"])
        return problems


WORKLOADS = {"ingest": Ingest, "query": Query, "deep": Deep}


def _tracer():
    """Spans around every public call the benchmark or main() makes."""
    tracer = Tracer()

    def parsed(args, result):
        return {"units": len(result), "bytes": len(args[0].encode())}

    def built(args, result):
        return {"parsed": len(args[1]), "kept": len(result.units)}

    def retrieved(args, result):
        return {"expansions": result.expansions, "found": result.found}

    def engine(args):
        return "retrieval.h1" if args[3] is HEURISTICS["h1"] else "retrieval.h2"

    for module in (foon.formats, foon.cli):
        tracer.target(module, "parse_subgraph", "formats.parse_subgraph", parsed)
    tracer.target(foon.formats, "parse_kitchen", "formats.parse_kitchen")
    tracer.target(foon.core.FoonGraph, "from_units", "core.from_units", built)
    tracer.target(foon.cli, "serialize_graph", "formats.serialize_graph")
    tracer.target(foon.cli, "main", "cli.main")
    tracer.target(foon.cli, "resolve_goal", "cli.resolve_goal")
    tracer.target(foon.retrieval, "retrieve_ids", "retrieval.ids", retrieved)
    tracer.target(foon.retrieval, "retrieve_greedy", engine, retrieved)
    for module in (foon.formats, foon.retrieval):
        tracer.target(module, "verify_task_tree", "core.verify_task_tree")
    tracer.target(foon.formats, "serialize_task_tree", "formats.serialize_task_tree")
    return tracer


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def measure(workload, seconds, tracer):
    """Full passes over the workload's items until `seconds` have gone by.

    With a tracer, passes alternate untraced and traced so that their
    walls give the tracing overhead; at least one of each runs.
    """
    signal.signal(signal.SIGALRM, _alarm)
    start = last_reference = time.perf_counter()
    passes = []
    first = []
    while True:
        number = len(passes)
        traced = tracer is not None and number % 2 == 1
        if traced:
            tracer.install()
        latencies, digests, failures, references = [], [], {}, []
        completed = attempted = 0
        wall = 0.0
        for index, item in enumerate(workload.items):
            ops = workload.ops_per_item
            attempted += ops
            if time.perf_counter() - start > RUN_BUDGET_S + seconds:
                record = {"error": "not run: run budget exhausted"}
            else:
                if tracer is not None:
                    tracer.op = [number, index]
                began = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
                try:
                    record = workload.run(item)
                except Exception as exc:  # every failure is recorded, none aborts the run
                    record = {"error": "timeout" if isinstance(exc, OpTimeout) else type(exc).__name__}
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                spent = time.perf_counter() - began
                wall += spent
                latencies.append(spent * 1000 / ops)
            if "error" in record:
                failures[record["error"]] = failures.get(record["error"], 0) + ops
            else:
                completed += ops
            digests.append(_digest(record))
            if number == 0:
                first.append(record)
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                references.append(reference_s())
                last_reference = time.perf_counter()
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "wall": wall, "completed": completed,
                       "attempted": attempted, "failures": failures,
                       "latencies_ms": latencies, "digests": digests, "reference_s": references})
        if time.perf_counter() - start >= seconds and (tracer is None or len(passes) >= 2):
            return passes, first


def _layer_metrics(tracer, passes):
    """Per-layer numbers: the traced set-up plus the median traced pass.

    Times are self times. Counts must repeat exactly in every traced pass.
    """
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    self_s, counts, ids_ms = {}, {}, []
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, op, extra = span
        group = "setup" if op is None else op[0]
        self_s[group, name] = self_s.get((group, name), 0.0) + own
        fields = {"calls": 1, "errors": 1} if extra and "error" in extra else {"calls": 1, **(extra or {})}
        for field, value in fields.items():
            counts[group, f"{name}.{field}"] = counts.get((group, f"{name}.{field}"), 0) + int(value)
        if name == "retrieval.ids" and op is not None:
            ids_ms.append((end - start) * 1000)

    def exact(key):
        values = {counts.get((i, key), 0) for i in traced}
        if len(values) != 1:
            raise ValueError(f"{key} differs between traced passes: {sorted(values)}")
        return counts.get(("setup", key), 0) + values.pop()

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.s"] = self_s.get(("setup", name), 0.0) + statistics.median(
            self_s.get((i, name), 0.0) for i in traced)
    parse_s = metrics["formats.parse_subgraph.s"]
    metrics["formats.parse_subgraph.mb_per_s"] = (
        exact("formats.parse_subgraph.bytes") / parse_s / 1e6 if parse_s else 0.0)
    metrics["formats.parse_subgraph.calls"] = exact("formats.parse_subgraph.calls")
    parsed, kept = exact("core.from_units.parsed"), exact("core.from_units.kept")
    metrics["core.units_parsed"] = parsed
    metrics["core.units_kept"] = kept
    metrics["core.dedup_ratio"] = kept / parsed if parsed else 0.0
    metrics["retrieval.ids.p50_ms"] = statistics.median(ids_ms) if ids_ms else 0.0
    metrics["retrieval.ids.p95_ms"] = statistics.quantiles(ids_ms, n=20)[18] if len(ids_ms) > 1 else 0.0
    metrics["retrieval.ids.samples"] = len(ids_ms)
    for engine in ENGINES:
        metrics[f"retrieval.{engine}.expansions"] = exact(f"retrieval.{engine}.expansions")
    metrics["retrieval.ids.errors"] = exact("retrieval.ids.errors")
    ids_found = exact("retrieval.ids.found")
    greedy_found = exact("retrieval.h1.found") + exact("retrieval.h2.found")
    metrics["retrieval.greedy.found_ratio"] = greedy_found / (2 * ids_found) if ids_found else 0.0
    untraced_wall = statistics.median(p["wall"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    return metrics


def main(config):
    work = Path(config["work"])
    tracer = _tracer() if config["trace"] else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[config["workload"]](work)
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.perf_counter() - _STARTED
    if config["setup_only"]:
        return {"setup_s": setup_s, "reference_s": [reference_s() for _ in range(5)]}
    setup_reference = [reference_s() for _ in range(5)]

    passes, first = measure(workload, config["seconds"], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = json.loads(_read(work / "expected.json"))
    problems = []
    if any(p["digests"] != passes[0]["digests"] for p in passes):
        problems.append("outputs differ between passes of one run")
    try:
        problems += workload.check(first, expected)
    except Exception as exc:  # a crash while checking is a failed check, reported as such
        problems.append(f"output check raised {type(exc).__name__}: {exc}")
    result = {
        "setup_s": setup_s,
        "reference_s": setup_reference,
        "peak_rss_mb": peak_rss_mb,
        "passes": [{k: v for k, v in p.items() if k != "digests"} for p in passes],
        "digest": _digest(first),
        "problems": problems,
    }
    if tracer is not None:
        try:
            result["layers"] = _layer_metrics(tracer, passes)
        except ValueError as exc:
            problems.append(str(exc))
        Path(config["spans"]).write_text(json.dumps(tracer.export()), encoding="utf-8")
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
