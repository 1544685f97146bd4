"""Task-tree retrieval over functional object-oriented networks."""

from .core import (
    AddResult,
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    TaskTree,
    TreeViolation,
    merge,
    normalize_label,
    verify_task_tree,
)
from .formats import (
    ParseError,
    export_dot,
    parse_kitchen,
    parse_subgraph,
    serialize_graph,
    serialize_task_tree,
)
from .retrieval import (
    DEPTH_LIMIT_EXHAUSTED,
    GREEDY_DEAD_END,
    NO_PRODUCER,
    HeuristicKind,
    RetrievalResult,
    ids_expansion_formula,
    retrieve_greedy,
    retrieve_ids,
    select_candidate,
)

__version__ = "0.1.0"

__all__ = [
    "AddResult",
    "DEPTH_LIMIT_EXHAUSTED",
    "FoonGraph",
    "FunctionalUnit",
    "GREEDY_DEAD_END",
    "HeuristicKind",
    "Kitchen",
    "MotionNode",
    "NO_PRODUCER",
    "ObjectNode",
    "ParseError",
    "RetrievalResult",
    "TaskTree",
    "TreeViolation",
    "export_dot",
    "ids_expansion_formula",
    "merge",
    "normalize_label",
    "parse_kitchen",
    "parse_subgraph",
    "retrieve_greedy",
    "retrieve_ids",
    "select_candidate",
    "serialize_graph",
    "serialize_task_tree",
    "verify_task_tree",
]
