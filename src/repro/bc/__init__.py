"""Betweenness-centrality algorithms: the paper's contribution and its
baselines."""

from .accumulation import accumulate_level, dependency_accumulation
from .api import bc_single_source_dependencies, betweenness_centrality
from .approx import (
    AdaptiveEstimate,
    adaptive_vertex_bc,
    approximate_bc,
    sample_sources,
)
from .batched import batched_betweenness_centrality, batched_dependencies
from .brandes import brandes_reference, brandes_single_source, normalize_bc
from .dynamic import UpdateStats, affected_sources, delete_edge, insert_edge
from .edge_parallel import bc_edge_parallel, edge_parallel_root
from .engine import run_root
from .frontier import ForwardResult, forward_sweep
from .hybrid import DEFAULT_ALPHA, DEFAULT_BETA, select_strategy
from .preprocess import (
    FOLD_SCHEMA,
    FoldPlan,
    FoldResult,
    fold_degree_one,
    folded_betweenness_centrality,
    per_root_correction,
    plan_fold,
)
from .policies import (
    DEFAULT_MIN_FRONTIER,
    EDGE_PARALLEL,
    GPU_FAN,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
    Policy,
)
from .sampling import (
    DEFAULT_GAMMA,
    DEFAULT_N_SAMPS,
    choose_edge_parallel,
    sample_roots,
)
from .vertex_parallel import bc_vertex_parallel, vertex_parallel_root
from .work_efficient import WorkEfficientState, bc_work_efficient, work_efficient_root

__all__ = [
    "betweenness_centrality",
    "bc_single_source_dependencies",
    "approximate_bc",
    "sample_sources",
    "AdaptiveEstimate",
    "adaptive_vertex_bc",
    "UpdateStats",
    "affected_sources",
    "insert_edge",
    "delete_edge",
    "batched_betweenness_centrality",
    "batched_dependencies",
    "brandes_reference",
    "brandes_single_source",
    "normalize_bc",
    "forward_sweep",
    "ForwardResult",
    "dependency_accumulation",
    "accumulate_level",
    "run_root",
    "FOLD_SCHEMA",
    "FoldPlan",
    "FoldResult",
    "fold_degree_one",
    "folded_betweenness_centrality",
    "per_root_correction",
    "plan_fold",
    "bc_work_efficient",
    "work_efficient_root",
    "WorkEfficientState",
    "bc_edge_parallel",
    "edge_parallel_root",
    "bc_vertex_parallel",
    "vertex_parallel_root",
    "Policy",
    "FixedPolicy",
    "HybridPolicy",
    "FrontierGuardPolicy",
    "WORK_EFFICIENT",
    "EDGE_PARALLEL",
    "VERTEX_PARALLEL",
    "GPU_FAN",
    "select_strategy",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "choose_edge_parallel",
    "sample_roots",
    "DEFAULT_N_SAMPS",
    "DEFAULT_GAMMA",
    "DEFAULT_MIN_FRONTIER",
]
