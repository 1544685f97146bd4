"""Smoke test of the benchmark on a tiny corpus; run with
``python -m pytest bench/test_smoke.py`` from the repository root."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run

BENCH = Path(__file__).resolve().parent


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_files_and_another_seed_differs(tmp_path):
    run.generate("ingest", 7, tmp_path / "a", corpus.TINY)
    run.generate("ingest", 7, tmp_path / "b", corpus.TINY)
    run.generate("ingest", 8, tmp_path / "c", corpus.TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_passes_its_checks(tmp_path, workload, trace):
    shape = run.generate(workload, 3, tmp_path / "work", corpus.TINY)
    assert shape["synthetic"] and shape["units"] < shape["units_parsed"]
    config = {"workload": workload, "work": str(tmp_path / "work"), "seconds": 0,
              "trace": trace, "setup_only": False, "spans": str(tmp_path / "spans.json")}
    out = run._worker(config, timeout=120)
    assert out["problems"] == []
    assert out["passes"][0]["completed"] == out["passes"][0]["attempted"] > 0
    if trace:
        assert set(run.PER_LAYER) <= set(out["layers"])
        assert (tmp_path / "spans.json").stat().st_size > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "query", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
