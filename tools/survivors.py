"""List the statements of src/foon that the test suite does not pin.

Each simple statement and each `if` block (with its elif and else arms)
of every module under src/foon is replaced, one at a time, with `pass` in
a temporary copy of the repository, and the suite runs there with
`python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 tests`.
A replacement under which every test still passes is a survivor, printed
as `module:line: text` in source order. Docstrings and `pass` statements
are not replaced: no test could pin them.

At most two test runs go at once, each in its own copy, with a 1 GiB
address-space limit and a time limit of five times the unmodified suite's
run (at least a minute), so a replacement that loops or allocates forever
is stopped and counts as caught. A full scan of 634 statements took 40
minutes on a 2-core x86-64 machine, both cores busy. Two scans of one tree
agree: Hypothesis draws its examples from the fixed seed, and a copy's
`.hypothesis` example database is deleted when its file is restored, so
no mutant's saved failing example is tried first against the next one.

Usage: python tools/survivors.py
"""

import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "tests"]
MEMORY_LIMIT = 1 << 30
_SKIP_COPY = shutil.ignore_patterns(".git", ".bench_work", ".hypothesis", ".pytest_cache",
                                    "__pycache__", "*.egg-info")


def statements(source: str) -> list:
    """(line, text, mutated source) for each replaceable statement, in source order.

    text is the statement's part of its first line, stripped. The mutated
    source has the whole statement, and for an `if` its elif and else
    arms, replaced with `pass`.
    """
    lines = source.encode("utf-8").splitlines(keepends=True)
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Pass):
            continue
        first, last = node.lineno - 1, node.end_lineno - 1
        text = lines[first][node.col_offset:node.end_col_offset if first == last else None]
        if isinstance(node, ast.If):
            if text.startswith(b"elif"):
                continue
        elif hasattr(node, "body"):
            continue
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        head = lines[first][:node.col_offset]
        tail = lines[last][node.end_col_offset:]
        mutated = b"".join(lines[:first] + [head + b"pass" + tail] + lines[last + 1:])
        found.append((node.lineno, node.col_offset, text.decode("utf-8").strip(),
                      mutated.decode("utf-8")))
    return [(line, text, mutated) for line, _, text, mutated in sorted(found)]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _start(copy: Path) -> subprocess.Popen:
    # no bytecode cache: two mutants of one file can share a size and an mtime
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(PYTEST, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, preexec_fn=_limit_memory,
                            start_new_session=True)


def main() -> int:
    originals = {path: path.read_text(encoding="utf-8")
                 for path in sorted((ROOT / "src" / "foon").glob("*.py"))}
    jobs = [(path, line, text, mutated)
            for path, source in originals.items()
            for line, text, mutated in statements(source)]
    with tempfile.TemporaryDirectory(prefix="survivors-") as scratch:
        free = []
        for n in range(min(2, os.cpu_count() or 1)):
            free.append(Path(scratch) / f"repo{n}")
            shutil.copytree(ROOT, free[-1], ignore=_SKIP_COPY)
        start = time.monotonic()
        if _start(free[0]).wait() != 0:
            print("the unmodified suite fails; no statement can be judged", file=sys.stderr)
            return 1
        timeout = max(60.0, 5 * (time.monotonic() - start))

        survived = [None] * len(jobs)
        running = []  # (job index, copy, process, deadline)
        started = printed = 0
        while printed < len(jobs):
            while free and started < len(jobs):
                path, _, _, mutated = jobs[started]
                copy = free.pop()
                (copy / path.relative_to(ROOT)).write_text(mutated, encoding="utf-8")
                running.append((started, copy, _start(copy), time.monotonic() + timeout))
                started += 1
            time.sleep(0.1)
            for entry in list(running):
                index, copy, proc, deadline = entry
                code = proc.poll()
                if code is None:
                    if time.monotonic() < deadline:
                        continue
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                survived[index] = code == 0
                path = jobs[index][0]
                (copy / path.relative_to(ROOT)).write_text(originals[path], encoding="utf-8")
                shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
                running.remove(entry)
                free.append(copy)
            while printed < len(jobs) and survived[printed] is not None:
                path, line, text, _ = jobs[printed]
                if survived[printed]:
                    print(f"{path.name}:{line}: {text}", flush=True)
                printed += 1
    print(f"{sum(survived)} of {len(jobs)} statements survive", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
