"""Max-flow via weighted push-relabel guided by directed expander
hierarchies, with brute-force oracles for every claimed invariant."""

from .config import DEFAULT_CONFIG, SolverConfig, default_phi
from .graph import (DiGraph, Flow, FlowInstance, build_graph, decompose_paths,
                    flow_stats, is_feasible, residual, scc)
from .forest import DynForest
from .push_relabel import LevelLabeling, PushRelabelResult, push_relabel
from .hierarchy import (Hierarchy, ValidationReport, hierarchy_from_text,
                        hierarchy_to_text, induced_weights,
                        respecting_topo_order, validate_hierarchy)
from .sparse_cut import SparseCutOutcome, level_labels, sparse_cut
from .cut_matching import (CMGState, CutOrEmbedOutcome, cut_or_embed,
                           cut_player_bisection)
from .builder import BuildResult, build_hierarchy
from .maxflow import (SolveResult, capacity_scaled_max_flow, dag_approx_flow,
                      edmonds_karp, max_flow_exact)
from .generators import generate

__all__ = [
    "DEFAULT_CONFIG", "SolverConfig", "default_phi",
    "DiGraph", "Flow", "FlowInstance", "build_graph",
    "decompose_paths", "flow_stats", "is_feasible", "residual", "scc",
    "DynForest",
    "LevelLabeling", "PushRelabelResult", "push_relabel",
    "Hierarchy", "ValidationReport", "hierarchy_from_text", "hierarchy_to_text",
    "induced_weights", "respecting_topo_order", "validate_hierarchy",
    "SparseCutOutcome", "level_labels", "sparse_cut",
    "CMGState", "CutOrEmbedOutcome", "cut_or_embed", "cut_player_bisection",
    "BuildResult", "build_hierarchy",
    "SolveResult", "capacity_scaled_max_flow", "dag_approx_flow",
    "edmonds_karp", "max_flow_exact",
    "generate",
]
