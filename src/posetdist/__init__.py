"""Edge-overlap distances between node-labeled digraphs and labeled posets.

The central quantity is the size of a best partial matching between the
node sets of two digraphs, counted in edges realized on both sides by a
label-respecting injection.  Normalizing by the larger edge count and
subtracting from one gives a metric on weakly connected, simple, oriented
digraphs; applied to transitive closures it compares labeled posets.

Five interchangeable solvers compute the same value: a small brute-force
oracle, a reduction to maximum clique in a compatibility graph built
straight from the two digraphs' edge pairs, and three branch-and-bound
searches with increasingly aggressive pruning for transitively closed
inputs.  Every solver's witness passes one check before it is reported.
"""

from .bench import BenchConfig, bench_harness, rows_to_csv
from .cli import cli_main, main
from .clique import (
    CompatibilityGraph,
    compatibility_graph,
    dmces_via_clique,
    max_clique,
    mcis,
    mcis_size,
)
from .core import (
    LabeledDigraph,
    PosetDigraph,
    PropertyReport,
    UndirectedGraph,
    build_poset_digraph,
    induced_subgraph,
    line_graph,
    predecessors,
    structure,
    topological_sort,
    transitive_closure,
    transitive_reduction,
    validate_properties,
)
from .errors import (
    AntisymmetryViolation,
    CycleDetected,
    DegenerateInput,
    DegeneratePoset,
    InfeasibleParameters,
    InvalidMatching,
    KindMismatch,
    LabelClassNotPath,
    NotSimple,
    NotTransitivelyClosed,
    NotWeaklyConnected,
    PairNotTwisted,
    ParseError,
    PosetDistError,
    PropertyViolation,
    SizeCapExceeded,
    SolverDisagreement,
    ValidationError,
)
from .fileio import eld_to_dot, graph_to_json, load_graph, load_poset, save_graph
from .generate import KINDS, generate_instance
from .isomorphism import Bijection, find_isomorphism, is_label_respecting
from .line_digraph import (
    HH,
    HT,
    TT,
    ExtendedLineDigraph,
    eld_structure,
    extended_line_digraph,
    structure_commutes,
)
from .metric import AUTO, DistanceResult, choose_solver, d_e, d_n, poset_distance
from .solvers import (
    DmcesOutcome,
    LabelBudget,
    NodeMatching,
    Solver,
    dmces_alg1,
    dmces_alg2,
    dmces_alg3,
    dmces_bruteforce,
    label_budget,
    matched_edges,
    respects_order_on_labels,
    score,
    untwist,
)

__version__ = "0.1.0"

__all__ = [
    "AUTO",
    "AntisymmetryViolation",
    "BenchConfig",
    "Bijection",
    "CompatibilityGraph",
    "CycleDetected",
    "DegenerateInput",
    "DegeneratePoset",
    "DistanceResult",
    "DmcesOutcome",
    "ExtendedLineDigraph",
    "HH",
    "HT",
    "InfeasibleParameters",
    "InvalidMatching",
    "KINDS",
    "KindMismatch",
    "LabelBudget",
    "LabelClassNotPath",
    "LabeledDigraph",
    "NodeMatching",
    "NotSimple",
    "NotTransitivelyClosed",
    "NotWeaklyConnected",
    "PairNotTwisted",
    "ParseError",
    "PosetDigraph",
    "PosetDistError",
    "PropertyReport",
    "PropertyViolation",
    "SizeCapExceeded",
    "Solver",
    "SolverDisagreement",
    "TT",
    "UndirectedGraph",
    "ValidationError",
    "bench_harness",
    "build_poset_digraph",
    "choose_solver",
    "cli_main",
    "compatibility_graph",
    "d_e",
    "d_n",
    "dmces_alg1",
    "dmces_alg2",
    "dmces_alg3",
    "dmces_bruteforce",
    "dmces_via_clique",
    "eld_structure",
    "eld_to_dot",
    "extended_line_digraph",
    "find_isomorphism",
    "generate_instance",
    "graph_to_json",
    "induced_subgraph",
    "is_label_respecting",
    "label_budget",
    "line_graph",
    "load_graph",
    "load_poset",
    "main",
    "matched_edges",
    "max_clique",
    "mcis",
    "mcis_size",
    "poset_distance",
    "predecessors",
    "respects_order_on_labels",
    "rows_to_csv",
    "save_graph",
    "score",
    "structure",
    "structure_commutes",
    "topological_sort",
    "transitive_closure",
    "transitive_reduction",
    "untwist",
    "validate_properties",
]
