"""Flow-or-cut subroutine: route a diffusion demand at bounded congestion
or return a sparse level cut of the residual graph.

Push-relabel runs on kappa-scaled capacities with the terminal weights,
which each call computes from its hierarchy: the induced weight
|tau_v - tau_u| off the terminal set, n on it.  If demand is left over,
distance levels are computed in the residual graph under a reduced weight
function whose forward DAG arcs cost zero, and the returned cut is the
level cut minimizing residual boundary capacity minus terminal volume.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Set, Tuple

from .config import DEFAULT_CONFIG, SolverConfig, check_phi, default_phi
from .errors import (BadParamsError, CutCheckFailedError, InvalidHierarchyError,
                     NotStronglyConnectedError)
from .graph import DiGraph, Flow, FlowInstance, ResidualView, residual, residual_graph, scc
from .hierarchy import CutEvaluator, Hierarchy, induced_weights, terminal_volume
from .push_relabel import push_relabel

INF = math.inf
# sparse-cut height constant: h = ceil(C_6 * eta^4 * ln(n)^7 * kappa * n / phi^2)
C_6 = 1.0
# hard clamp on push-relabel heights inside the sparse-cut subroutine
MAX_H = 1_000_000


@dataclass
class CutMetrics:
    boundary_out: int      # c(E_G(S, S-bar)), base capacities
    boundary_in: int       # c(E_G(S-bar, S))
    vol_f_side: int        # vol_F(S)
    vol_f_other: int       # vol_F(S-bar)
    absorbed: int          # abs_f(S)
    excess: int            # ex_f(S)
    objective: int         # residual kappa-boundary minus min terminal volume
    level: int


@dataclass
class SparseCutOutcome:
    flow: Flow
    value: int
    cut: Optional[List[int]]
    metrics: Optional[CutMetrics]
    h: int
    labels: Optional[List[float]] = None


def sparse_cut_height(n: int, eta: int, kappa: int, phi: Fraction) -> int:
    """Height budget for the inner push-relabel run.

    The nominal formula is ceil(C_6 * eta^4 * ln(n)^7 * kappa * n / phi^2),
    with eta read as at least one (an all-terminal call sees the empty
    hierarchy, which must not collapse the height).  The result is floored
    at n (the level construction needs that) and at 1 (push-relabel's
    least height, which an empty instance needs), capped at n^2 (every edge
    weight is at most n, so every simple path is shorter than n^2 and
    heights beyond that cannot enlarge the set of h-short flows), and
    clamped at MAX_H.  A kappa too large for a float, or a phi
    whose square underflows to 0, puts the nominal height above the cap.
    """
    ln = math.log(max(n, 2))
    eta_eff = max(eta, 1)
    try:
        nominal = C_6 * (eta_eff ** 4) * (ln ** 7) * kappa * n / float(phi) ** 2
    except (OverflowError, ZeroDivisionError):
        nominal = math.inf
    h = max(n, 1, math.ceil(min(n * n, nominal)))
    return min(MAX_H, h)


def terminal_weights(g: DiGraph, f_edges: Set[int], hier: Hierarchy) -> List[int]:
    """Hierarchy-induced weights off the terminal set, weight n on it."""
    w = induced_weights(g, hier.tau)
    n = g.n
    return [n if e in f_edges else w[e] for e in range(g.m)]


def level_labels(res: ResidualView, w_f: Sequence[int], s0: Sequence[int]) -> List[float]:
    """Shortest w_f-distances from the source set in the residual graph.

    w_f is per arc; zero weights are allowed (used on forward DAG arcs).
    Saturated arcs are skipped; unreachable vertices get inf.
    """
    n = res.g.n
    dist: List[float] = [INF] * n
    pq: List[Tuple[int, int]] = []
    for s in s0:
        if dist[s] != 0:
            dist[s] = 0
            heapq.heappush(pq, (0, s))
    arc_cap = res.arc_cap
    out_arcs, arc_head = res.g.out_arcs, res.g.arc_head
    while pq:
        d, v = heapq.heappop(pq)
        if d > dist[v]:
            continue
        for a in out_arcs[v]:
            if arc_cap[a] > 0:
                nd = d + w_f[a]
                u = arc_head[a]
                if nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(pq, (nd, u))
    return dist


def reduced_arc_weights(g: DiGraph, w_g: Sequence[int], dag_edges: Set[int]) -> List[int]:
    """Per-arc weights: forward arcs of DAG edges cost zero, everything
    else inherits its base edge weight in both directions."""
    w_arc = [0] * (2 * g.m)
    for e in range(g.m):
        w_arc[2 * e] = 0 if e in dag_edges else w_g[e]
        w_arc[2 * e + 1] = w_g[e]
    return w_arc


def min_level_cut(res: ResidualView, labels: Sequence[float], h: int,
                  vol_f: Sequence[int]) -> Tuple[List[int], int, int]:
    """Level cut minimizing residual boundary minus terminal volume.

    Scans prefix cuts S = {v: label(v) <= i} over distinct finite labels
    i <= h with S != V; ties break toward the smallest level.  Every
    vertex joins S once, in label order, so the scan is O(m + n log n).
    Returns (side, objective, level).
    """
    n = res.g.n
    _arc_ids, rinst = residual_graph(res)
    ev = CutEvaluator(rinst.g, rinst.cap, vol_f)
    order = sorted(range(n), key=lambda v: (labels[v], v))
    best = None
    idx = 0
    while idx < n and labels[order[idx]] <= h:
        lab = labels[order[idx]]
        while idx < n and labels[order[idx]] == lab:
            ev.flip(order[idx])
            idx += 1
        if idx >= n:
            break  # S == V, not a proper cut
        obj = ev.out_cap - min(ev.vol_s, ev.total_vol - ev.vol_s)
        if best is None or obj < best[0]:
            best = (obj, lab, idx)
    if best is None:
        raise CutCheckFailedError(f"no proper level cut at or below level {h}")
    return sorted(order[:best[2]]), best[0], best[1]


def sparse_cut(
    inst: FlowInstance,
    kappa: int,
    f_edges: Set[int],
    hier: Hierarchy,
    config: SolverConfig = DEFAULT_CONFIG,
    phi: Optional[Fraction] = None,
) -> SparseCutOutcome:
    """Route the demand at congestion kappa or return a sparse level cut.

    `hier` describes the graph without the terminal edges `f_edges`; the
    edge weights are `terminal_weights` of the two.  `phi` defaults to
    `default_phi(n)`, as in `build_hierarchy` and `max_flow_exact`.
    The cut's analysis assumes a strongly connected graph; only under
    `config.debug_invariants` does Tarjan check it (NotStronglyConnectedError).
    """
    g = inst.g
    n = g.n
    phi = phi if phi is not None else default_phi(n)
    check_phi(phi)
    if kappa < 1:
        raise BadParamsError(f"kappa must be at least 1, got {kappa}")
    if config.debug_invariants and n > 1:
        comps = scc(g)
        if len(comps) != 1:
            raise NotStronglyConnectedError(f"{len(comps)} strongly connected components")
    if hier.edge_count() != g.m - len(f_edges):
        raise InvalidHierarchyError(
            f"hierarchy covers {hier.edge_count()} edges, expected {g.m - len(f_edges)}")
    w_g = terminal_weights(g, f_edges, hier)
    h = sparse_cut_height(n, hier.eta, kappa, phi)
    scaled = FlowInstance(g, [kappa * c for c in inst.cap], inst.delta, inst.nabla)
    result = push_relabel(scaled, w_g, h, config=config)
    f = result.flow
    if result.value == inst.total_source():
        return SparseCutOutcome(f, result.value, None, None, h)

    res = residual(scaled, f)
    w_arc = reduced_arc_weights(g, w_g, hier.d)
    s0 = [v for v in range(n) if res.delta_f[v] > 0]
    labels = level_labels(res, w_arc, s0)
    vol_f = terminal_volume(g, inst.cap, f_edges)
    side, obj, lab = min_level_cut(res, labels, h, vol_f)
    ev = CutEvaluator(g, inst.cap, vol_f)
    sset = set(side)
    ev.assign([v in sset for v in range(n)])
    metrics = CutMetrics(
        boundary_out=ev.out_cap,
        boundary_in=ev.in_cap,
        vol_f_side=ev.vol_s,
        vol_f_other=ev.total_vol - ev.vol_s,
        absorbed=sum(scaled.nabla[v] - res.nabla_f[v] for v in side),
        excess=sum(res.delta_f[v] for v in side),
        objective=obj,
        level=lab,
    )
    return SparseCutOutcome(f, result.value, side, metrics, h, labels)
