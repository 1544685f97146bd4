"""Command-line front end: merge corpora, search, compare, export, verify.

Exit codes are stable: 0 success, 1 search found no tree, 2 usage or parse
error, 3 verification failure, 4 internal error (any other exception, reported
as one line). Diagnostics go to standard error; data goes to standard output
or to `-o` files.
"""

import argparse
import csv
import io
import re
import sys

from .core import FoonGraph, Kitchen, ObjectNode, TaskTree, verify_task_tree
from .formats import (
    ParseError,
    export_dot,
    parse_kitchen,
    parse_subgraph,
    serialize_graph,
    serialize_task_tree,
)
from .retrieval import HeuristicKind, retrieve_greedy, retrieve_ids

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_INVALID_TREE = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    """A failure reported to the user; ``str(exc)`` is its message."""


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load_graph(path: str, nodes: dict | None = None) -> FoonGraph:
    return FoonGraph.from_units(parse_subgraph(_read(path), path, nodes))


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


_GOAL_RE = re.compile(
    r"^(?P<name>[^{}\[\]]+)"
    r"(?:\{(?P<states>[^{}\[\]]*)\})?"
    r"(?:\[(?P<ings>[^{}\[\]]*)\])?$"
)


def resolve_goal(spec: str, graph: FoonGraph, kitchen: Kitchen) -> str:
    """Turn a goal spec into an identity key.

    `name{s1,s2}[i1,i2]` forms are exact. A bare name must match exactly
    one node across the graph and kitchen; several matches are an error,
    zero matches fall through to the stateless key (search then reports
    no-producer).
    """
    match = _GOAL_RE.match(spec.strip())
    if match is None:
        raise CliError(f"bad goal spec {spec!r}")
    try:
        name = match["name"]
        states = [s for s in (match["states"] or "").split(",") if s.strip()]
        ings = [i for i in (match["ings"] or "").split(",") if i.strip()]
        key = ObjectNode(name, frozenset(states), frozenset(ings)).key
    except ValueError as exc:
        raise CliError(f"bad goal spec {spec!r}: {exc}") from None
    if match["states"] is not None or match["ings"] is not None:
        return key
    matches = sorted(set(graph.keys_named(key)).union(kitchen.keys_named(key)))
    if len(matches) > 1:
        raise CliError(f"goal name {spec.strip()!r} is ambiguous: " + ", ".join(matches))
    return matches[0] if matches else key


# engine -> compare column title, in column order
_COLUMNS = {"ids": "Iterative Deepening Search", "h1": "Heuristic 1", "h2": "Heuristic 2"}
_HEURISTICS = {"h1": HeuristicKind.MAX_SUCCESS_RATE, "h2": HeuristicKind.MIN_INPUT_COUNT}


def _run_algorithm(algo: str, graph, goal: str, kitchen, max_depth=None):
    if algo == "ids":
        return retrieve_ids(graph, goal, kitchen, depth_limit=max_depth)
    return retrieve_greedy(graph, goal, kitchen, _HEURISTICS[algo])


def cmd_merge(args) -> int:
    nodes = {}  # one intern table for every file of the merge
    units = [unit for path in args.inputs for unit in parse_subgraph(_read(path), path, nodes)]
    graph = FoonGraph.from_units(units)
    _write(args.output, serialize_graph(graph))
    removed = len(units) - len(graph.units)
    print(f"{_plural(len(graph.units), 'unit')}, {_plural(len(graph.nodes), 'object node')}, "
          f"{_plural(removed, 'duplicate')} removed", file=sys.stderr)
    return EXIT_OK


def cmd_search(args) -> int:
    graph = _load_graph(args.graph)
    kitchen = parse_kitchen(_read(args.kitchen), args.kitchen)
    goal = resolve_goal(args.goal, graph, kitchen)
    result = _run_algorithm(args.algo, graph, goal, kitchen, args.max_depth)
    if not result.found:
        print(f"no task tree for {goal}: {result.reason} "
              f"({_plural(result.expansions, 'expansion')})", file=sys.stderr)
        return EXIT_NOT_FOUND
    # retrieval verified the tree already; the graph-local path writes the same bytes
    _write(args.output, serialize_task_tree(graph, result.tree, algorithm=args.algo))
    print(f"task tree for {goal}: {_plural(len(result.tree.unit_ids), 'functional unit')} "
          f"({_plural(result.expansions, 'expansion')})", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args) -> int:
    graph = _load_graph(args.graph)
    kitchen = parse_kitchen(_read(args.kitchen), args.kitchen)
    rows = []
    for raw in _read(args.goals).split("\n"):
        spec = raw.split("#", 1)[0].strip()
        if not spec:
            continue
        try:
            goal = resolve_goal(spec, graph, kitchen)
        except CliError as exc:
            print(f"skipping goal {spec!r}: {exc}", file=sys.stderr)
            rows.append((spec, [None] * len(_COLUMNS)))
            continue
        results = [_run_algorithm(algo, graph, goal, kitchen) for algo in _COLUMNS]
        rows.append((goal, [len(r.tree.unit_ids) if r.found else None for r in results]))
    header = ("Goal Nodes", *_COLUMNS.values())
    table = [header] + [
        (goal,) + tuple("-" if cell is None else str(cell) for cell in cells)
        for goal, cells in rows
    ]
    widths = [max(map(len, column)) for column in zip(*table)]
    out = []
    for row in table:
        first = row[0].ljust(widths[0])
        rest = "  ".join(cell.rjust(width) for cell, width in zip(row[1:], widths[1:]))
        out.append((first + "  " + rest).rstrip())
    print("\n".join(out))
    if args.csv:
        buffer = io.StringIO()  # a None cell is written empty
        csv.writer(buffer, lineterminator="\n").writerows(
            [("goal", *_COLUMNS), *((goal, *cells) for goal, cells in rows)])
        _write(args.csv, buffer.getvalue())
    return EXIT_OK


def cmd_export_dot(args) -> int:
    _write(args.output, export_dot(_load_graph(args.graph)))
    return EXIT_OK


def cmd_stats(args) -> int:
    graph = _load_graph(args.graph)
    labels = {unit.motion.label for unit in graph.units}
    max_in = max(map(len, graph.producers), default=0)
    max_out = max(map(len, graph.consumers), default=0)
    print(_plural(len(graph.units), "unit"))
    print(_plural(len(graph.nodes), "object node"))
    print(_plural(len(labels), "distinct motion label"))
    print(f"max in-degree {max_in}")
    print(f"max out-degree {max_out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    nodes = {}  # one intern table: a tree block that the graph holds parses to the graph's unit
    graph = _load_graph(args.graph, nodes)
    kitchen = parse_kitchen(_read(args.kitchen), args.kitchen)
    goal = resolve_goal(args.goal, graph, kitchen)
    tree_units = parse_subgraph(_read(args.tree), args.tree, nodes)
    unit_ids = []
    for pos, unit in enumerate(tree_units):
        uid = graph.find_unit(unit)
        if uid is None:
            print(f"tree unit at position {pos} is not in the graph", file=sys.stderr)
            return EXIT_INVALID_TREE
        unit_ids.append(uid)
    tree = TaskTree(tuple(unit_ids), goal)
    violation = verify_task_tree(graph, tree, kitchen, goal)
    if violation is not None:
        print(violation, file=sys.stderr)
        return EXIT_INVALID_TREE
    print(f"valid task tree: {_plural(len(unit_ids), 'functional unit')}", file=sys.stderr)
    return EXIT_OK


def _depth_limit(text: str) -> int:
    depth = int(text)
    if depth < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {depth}")
    return depth


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foon",
        description="Merge, search, and inspect functional object-oriented networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="merge subgraph files into one deduplicated graph")
    p.add_argument("inputs", nargs="+", metavar="subgraph")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("search", help="retrieve a task tree for a goal node")
    p.add_argument("graph")
    p.add_argument("-g", "--goal", required=True, help="goal node, e.g. 'ice{solid}'")
    p.add_argument("-k", "--kitchen", required=True, help="kitchen file")
    p.add_argument("-a", "--algo", choices=tuple(_COLUMNS), default="ids")
    p.add_argument("--max-depth", type=_depth_limit, default=None, help="IDS depth limit")
    p.add_argument("-o", "--output", help="write the task tree here (default: stdout)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("compare", help="tabulate tree sizes per goal for all algorithms")
    p.add_argument("graph")
    p.add_argument("-k", "--kitchen", required=True)
    p.add_argument("--goals", required=True, help="file with one goal spec per line")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-dot", help="render the graph in DOT")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("stats", help="summarize a graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="check a task tree file against a graph")
    p.add_argument("graph")
    p.add_argument("tree")
    p.add_argument("-k", "--kitchen", required=True)
    p.add_argument("-g", "--goal", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ParseError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not a usage error: one line, no traceback
        print(f"foon: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
