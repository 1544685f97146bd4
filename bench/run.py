"""Seeded, offline benchmark of the foon package: ingest, query and deep.

    python3 bench/run.py --workload query --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1          # every workload, untraced and traced

Run from the repository root. For each run it generates the workload's
inputs from the seed under .bench_work/, measures set-up in fresh worker
processes, runs the workload for --seconds in one more fresh process,
checks every output against the generator's own oracle, prints each
metric with its unit and sample count, and ends with one JSON line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
It exits non-zero when an output check fails. See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("ingest", "query", "deep")
# Fresh processes that only set up; with the measured process they give
# the set-up samples whose median is setup_s.
SETUP_PROBES = 3
# Wide-graph goals that have producers but no tree, searched at explicit
# depth limits in the deep workload.
UNREACHABLE_GOALS = 2
RUN_TIMEOUT_S = 170
# Times are reported at the machine speed where the worker's reference
# loop takes this long: a time t measured while the loop took r becomes
# t * REFERENCE_NOMINAL_S / r. Wall-clock values are reported beside them.
REFERENCE_NOMINAL_S = 0.03

# The metrics of the final JSON line; BENCHMARK.json lists the same names.
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}
PER_LAYER = [f"{layer}.s" for layer in LAYERS] + [
    "formats.parse_subgraph.mb_per_s", "formats.parse_subgraph.calls", "core.units_parsed",
    "core.units_kept", "core.dedup_ratio", "retrieval.ids.p50_ms", "retrieval.ids.p95_ms",
    "retrieval.ids.samples", "retrieval.ids.expansions", "retrieval.ids.errors",
    "retrieval.h1.expansions", "retrieval.h2.expansions", "retrieval.greedy.found_ratio",
    "trace.overhead_ratio",
]
PER_LAYER_UNITS = {
    ".s": "s", ".mb_per_s": "MB/s", ".calls": "count", ".expansions": "count",
    ".errors": "count", ".samples": "count", "_ms": "ms", "units_parsed": "count",
    "units_kept": "count", "_ratio": "fraction",
}


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def generate(workload, seed, work, size=corpus.FULL):
    """Write the workload's inputs and the oracle's expectations; return the corpus shape."""
    built = corpus.build_corpus(seed, size)
    universal = corpus.graph_text(built.universal)
    expected = {}
    if workload == "ingest":
        for name, units in built.recipes:
            _write(work / "recipes" / name, corpus.graph_text(units, f"# recipe {name}"))
        expected = {
            "universal_sha256": hashlib.sha256(universal.encode()).hexdigest(),
            "distinct_units": len(built.universal),
        }
    elif workload == "query":
        _write(work / "universal.foon", universal)
        _write(work / "kitchen.txt", corpus.kitchen_text(built.kitchen))
        _write(work / "goals.txt", "".join(spec + "\n" for spec, _ in built.goals))
        expected = {"goals": [{"key": k, "depth": built.depths.get(k)} for _, k in built.goals]}
    else:
        _write(work / "universal.foon", universal)
        cases, depths = [], []
        for label, units, start, goal in (
            [(f"chain-{n}", corpus.chain_units(n), "link 0", f"link {n}")
             for n in (size.chain_short, size.chain_long)]
            + [(f"diamond-{n}", corpus.diamond_units(n), "top 0", f"top {n}")
               for n in size.diamond_layers]
        ):
            _write(work / f"{label}.foon", corpus.graph_text(units))
            _write(work / f"{label}.kitchen", corpus.kitchen_text([corpus.Obj(start)]))
            cases.append({"name": label, "graph": f"{label}.foon", "kitchen": f"{label}.kitchen",
                          "goal": goal, "limit": None})
            depths.append(corpus.min_depths(units, {start}).get(goal))
        # As in the baseline measurements: dishes searched from an empty
        # kitchen, so every goal has producers and none can be reached.
        _write(work / "empty.kitchen", corpus.kitchen_text([]))
        dishes = sorted({o.key for u in built.universal for o in u.outputs
                         if o.key.endswith("{cooked}")})
        picked = random.Random(seed).sample(dishes, UNREACHABLE_GOALS)
        empty_depths = corpus.min_depths(built.universal, set())
        for limit in size.unreachable_limits:
            for number, goal in enumerate(picked):
                cases.append({"name": f"unreachable-{number}@{limit}", "graph": "universal.foon",
                              "kitchen": "empty.kitchen", "goal": goal, "limit": limit})
                depths.append(empty_depths.get(goal))
        _write(work / "cases.json", json.dumps(cases, indent=1))
        expected = {"depths": depths}
    _write(work / "expected.json", json.dumps(expected))
    return built.shape()


def _worker(config, timeout):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(config)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{config['workload']} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _speed(reference):
    """How much slower than nominal the machine ran, from reference-loop times."""
    return statistics.median(reference) / REFERENCE_NOMINAL_S


def run_workload(workload, seed, seconds, trace):
    started = time.monotonic()
    work = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    shape = generate(workload, seed, work)
    spans = WORK / "results" / f"{workload}-seed{seed}-spans.json"
    config = {"workload": workload, "work": str(work), "seconds": seconds, "trace": trace,
              "setup_only": False, "spans": str(spans)}
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _worker(dict(config, setup_only=True), RUN_TIMEOUT_S - (time.monotonic() - started))
            setups.append((probe["setup_s"], _speed(probe["reference_s"])))
    out = _worker(config, RUN_TIMEOUT_S - (time.monotonic() - started))
    shutil.rmtree(work, ignore_errors=True)
    setups.append((out["setup_s"], _speed(out["reference_s"])))

    passes = out["passes"]
    untraced = [p for p in passes if not p["traced"]]
    # One speed per process: the reference loop jitters from sample to
    # sample, while the drift it corrects for is slow.
    speed = _speed(out["reference_s"] + [r for p in passes for r in p["reference_s"]])
    latencies = [ms / speed for p in untraced for ms in p["latencies_ms"]]
    attempted = sum(p["attempted"] for p in passes)
    completed = sum(p["completed"] for p in passes)
    failures = {}
    for p in passes:
        for kind, count in p["failures"].items():
            failures[kind] = failures.get(kind, 0) + count
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not out["problems"], "problems": out["problems"][:50],
        "attempted": attempted, "failed": attempted - completed, "failures": failures,
        "digest": out["digest"], "corpus": shape,
        "setup_s": statistics.median(s / factor for s, factor in setups),
        "setup_wall_s": statistics.median(s for s, _ in setups),
        "setup_samples": len(setups),
        "ops_per_s": statistics.median(p["completed"] / p["wall"] for p in untraced) * speed,
        "ops_per_wall_s": statistics.median(p["completed"] / p["wall"] for p in untraced),
        "passes": len(untraced),
        "speed": speed,
        "pass_walls": [p["wall"] for p in passes],
        "op_p50_ms": statistics.median(latencies),
        "op_p95_ms": statistics.quantiles(latencies, n=20)[18] if len(latencies) > 1 else latencies[0],
        "latency_samples": len(latencies),
        "failed_ratio": (attempted - completed) / attempted,
        "peak_rss_mb": out["peak_rss_mb"],
        "layers": out.get("layers", {}),
        "machine": {"python": platform.python_version(), "system": platform.platform(),
                    "cpus": len(os.sched_getaffinity(0))},
    }
    _write(WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json", json.dumps(report, indent=1))
    return report


def _layer_unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def print_report(r):
    print(f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"correct {r['correct']}  digest {r['digest'][:16]}")
    if not r["trace"]:
        n = r["latency_samples"]
        p95_note = "" if n * 0.05 >= 10 else " (fewer than 10 samples beyond p95)"
        rows = [
            ("setup_s", r["setup_s"], "s", f"median of {r['setup_samples']} fresh processes"),
            ("setup_wall_s", r["setup_wall_s"], "s", "same, wall clock"),
            ("ops_per_s", r["ops_per_s"], "ops/s", f"median of {r['passes']} passes"),
            ("ops_per_wall_s", r["ops_per_wall_s"], "ops/s",
             f"same, wall clock; machine ran at {1 / r['speed']:.2f}x nominal speed"),
            ("op_p50_ms", r["op_p50_ms"], "ms", f"{n} samples"),
            ("op_p95_ms", r["op_p95_ms"], "ms", f"{n} samples{p95_note}"),
            ("failed_ratio", r["failed_ratio"], "fraction", f"{r['failed']}/{r['attempted']} ops"),
            ("peak_rss_mb", r["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
        ]
        for name, value, unit, note in rows:
            print(f"  {name:<14} {value:>12.4f} {unit:<9} {note}")
    for name, value in r["layers"].items():
        print(f"  {name:<34} {value:>12.4f} {_layer_unit(name)}")
    if r["failures"]:
        print("  failed ops by kind: " + ", ".join(f"{k} {v}" for k, v in r["failures"].items()))
    for problem in r["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("  corpus (synthetic): " + json.dumps(r["corpus"]))


def result_line(r, metric_names):
    source = r["layers"] if r["trace"] else r
    metrics = {}
    for name in metric_names:
        unit = _layer_unit(name) if r["trace"] else END_TO_END[name]
        metrics[name] = {"value": source[name], "unit": unit}
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foon" / "__init__.py").is_file():
        print(f"no foon package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = {0: list(END_TO_END), 1: PER_LAYER}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    lines = {}
    for workload in workloads:
        for trace in traces:
            report = run_workload(workload, args.seed, args.seconds, trace)
            print_report(report)
            lines[workload, trace] = result_line(report, names[trace])
    if len(lines) == 1:
        final = lines.popitem()[1]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.trace{t}.{name}": m for (w, t), line in lines.items()
                        for name, m in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
