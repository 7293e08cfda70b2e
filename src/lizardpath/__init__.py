"""Two-phase single-source shortest-path solver and benchmark toolkit.

Pipeline: a layered labeling pass (upper-bound distances, exact on
level-respecting instances) feeds a best-first label-correction phase
backed by the lizard-entity priority structure.  Oracle baselines and
instrumented counters support cross-verification and benchmarking.
"""

from .contest import RunMetrics, SolveOptions, UnlabeledOriginError, contest_run, solve_sssp
from .generators import (
    DegreeTooLargeError,
    GenSpec,
    SplitMix64,
    gen_complete,
    gen_grid,
    gen_random,
    generate,
)
from .graph import (
    Graph,
    GraphError,
    HeaderMismatchError,
    DimacsParseError,
    LabelState,
    NegativeWeightError,
    NodeOutOfRangeError,
    SelfLoopError,
    WeightTooLargeError,
    build_graph,
    find_shorter_arms,
    load_dimacs,
    save_dimacs,
)
from .hdm import HdmOutput, RegionPartition, collect_origins, hdm_run
from .lizard import (
    CostCounters,
    DuplicateNodeError,
    EmptyStructureError,
    LizardEntity,
    LizardItem,
    MissingNodeError,
)
from .oracle import TooLargeError, bellman_ford, brute_force, dijkstra

__all__ = [
    "Graph", "GraphError", "LabelState", "build_graph", "find_shorter_arms",
    "load_dimacs", "save_dimacs", "NodeOutOfRangeError", "NegativeWeightError",
    "SelfLoopError", "DimacsParseError", "HeaderMismatchError", "WeightTooLargeError",
    "GenSpec", "SplitMix64", "generate", "gen_complete", "gen_random",
    "gen_grid", "DegreeTooLargeError",
    "HdmOutput", "RegionPartition", "hdm_run", "collect_origins",
    "LizardEntity", "LizardItem", "CostCounters",
    "DuplicateNodeError", "MissingNodeError", "EmptyStructureError",
    "contest_run", "solve_sssp", "SolveOptions", "RunMetrics", "UnlabeledOriginError",
    "dijkstra", "bellman_ford", "brute_force", "TooLargeError",
]

__version__ = "0.1.0"
