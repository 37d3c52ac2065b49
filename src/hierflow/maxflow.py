"""Exact maximum flow (`max_flow`), the DAG approximation, capacity
scaling, and the shortest-augmenting-path oracle every test leans on.

The exact driver keeps one residual per solve and loops: one reverse
breadth-first search from the open sinks (`_sink_distances`) finds each
vertex's residual distance to them, and the driver stops once no vertex
with supply left has one.  Else it builds a hierarchy of the residual graph
(unvalidated: it only supplies weights), runs weighted push-relabel with
the induced weights and lifts the flow into the residual in place.  Where
a part of the hierarchy has no edges left, tau may order its vertices
freely; the driver orders them by that distance, farthest first, as exact
distance labels would.  Edmonds-Karp and the safety net, one shortest
augmentation whenever an iteration routes nothing, keep the forward path
search `_bfs_path`, so exactness never depends on hierarchy quality.

Capacity scaling (`capacity_scaled_max_flow`) wraps any exact solver.  Its
first phase solves the capacities shifted down to at most n^2; each later
phase takes s >= 1 more bits, as many as the previous phase's minimum cut
allows: with |C| that cut's terms, read from the same reverse search, the
phase routes at most (2^s - 1) * |C| <= max(n^2, m + n).
"""
from __future__ import annotations

import functools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .builder import build_hierarchy
from .config import DEFAULT_CONFIG, SolverConfig, check_phi, default_phi
from .errors import BuildFailedError, InfeasibleFlowError, NotAcyclicError, SolverInvariantError
from .graph import (DiGraph, Flow, FlowInstance, ResidualView, flow_stats, residual,
                    residual_graph, scc)
from .hierarchy import induced_weights
from .push_relabel import push_relabel


@dataclass
class SolveStats:
    value: int
    iterations: int = 0
    augmentations: int = 0
    relabels: int = 0
    safety_net_hits: int = 0
    build_failures: int = 0
    phases: int = 0
    phase_values: List[int] = field(default_factory=list)


@dataclass
class SolveResult:
    flow: Flow
    stats: SolveStats


# --- shortest augmenting paths (the oracle) ----------------------------------


def edmonds_karp(inst: FlowInstance) -> SolveResult:
    """Exact maximum flow by breadth-first shortest augmenting paths."""
    res = residual(inst, Flow.zero(inst.m))
    augs = 0
    while True:
        arcs, s, t = _bfs_path(inst.g, res.arc_cap, res.delta_f, res.nabla_f)
        if arcs is None:
            break
        _augment(res, arcs, s, t)
        augs += 1
    value = sum(inst.delta) - sum(res.delta_f)
    stats = SolveStats(value=value, iterations=augs, augmentations=augs)
    return SolveResult(Flow(res.arc_cap[1::2]), stats)


# --- DAG approximation --------------------------------------------------------


def dag_approx_flow(inst: FlowInstance, config: SolverConfig = DEFAULT_CONFIG):
    """Constant-factor approximate max flow on a DAG.

    Weights edges by topological-position difference and runs
    push-relabel with height n; the result is at least a sixth of the
    maximum.  Raises NotAcyclicError if the graph has a cycle.
    """
    g = inst.g
    comps = scc(g)
    if any(len(c) > 1 for c in comps):
        raise NotAcyclicError("instance graph has a cycle")
    tau = [0] * g.n
    for pos, comp in enumerate(reversed(comps), start=1):
        tau[comp[0]] = pos
    return push_relabel(inst, induced_weights(g, tau), max(g.n, 1), config=config)


# --- exact driver -------------------------------------------------------------


def _bfs_path(g: DiGraph, cf: Sequence[int], delta_rem, nabla_rem):
    """Shortest path of usable residual arcs from a vertex with supply
    left to one with sink capacity left.

    Returns (arcs in path order, source, sink), or (None, -1, -1).
    """
    n = g.n
    arc_tail, arc_head = g.arc_tail, g.arc_head
    parent = [-1] * n
    seen = [False] * n
    q = deque()
    for v in range(n):
        if delta_rem[v] > 0:
            seen[v] = True
            q.append(v)
    while q:
        v = q.popleft()
        if nabla_rem[v] > 0:
            t = v
            arcs = []
            while parent[v] != -1:
                a = parent[v]
                arcs.append(a)
                v = arc_tail[a]
            return list(reversed(arcs)), v, t
        for a in g.out_arcs[v]:
            w = arc_head[a]
            if not seen[w] and cf[a] > 0:
                seen[w] = True
                parent[w] = a
                q.append(w)
    return None, -1, -1


def _sink_distances(res: ResidualView) -> List[int]:
    """dist[v]: the fewest usable residual arcs on a path from v to a
    vertex with sink capacity left, and n where there is none, by one
    reverse breadth-first search from those vertices."""
    g = res.g
    n = g.n
    cf, arc_head = res.arc_cap, g.arc_head
    dist = [n] * n
    q = deque(v for v in range(n) if res.nabla_f[v] > 0)
    for v in q:
        dist[v] = 0
    while q:
        v = q.popleft()
        # the twin of an arc out of v is an arc into v
        for a in g.out_arcs[v]:
            u = arc_head[a]
            if dist[u] == n and cf[a ^ 1] > 0:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def _augment(res: ResidualView, arcs: Sequence[int], s: int, t: int) -> None:
    """Send the most that a `_bfs_path` path allows, in place."""
    cf = res.arc_cap
    amt = min([res.delta_f[s], res.nabla_f[t]] + [cf[a] for a in arcs])
    for a in arcs:
        cf[a] -= amt
        cf[a ^ 1] += amt
    res.delta_f[s] -= amt
    res.nabla_f[t] -= amt


def _lift(cf: List[int], arc_ids: Sequence[int], corr: Flow) -> None:
    """Add a flow on `residual_graph`'s instance into the residual
    capacities cf it was made from.  Raises InfeasibleFlowError if an
    edge's flow leaves [0, cap]."""
    moved = []
    for a, x in zip(arc_ids, corr.values):
        if x:
            cf[a] -= x
            cf[a ^ 1] += x
            moved.append(a)
    for a in moved:
        if cf[a] < 0 or cf[a ^ 1] < 0:
            fwd = a & ~1
            raise InfeasibleFlowError(f"flow {cf[fwd + 1]} outside [0, "
                                      f"{cf[fwd] + cf[fwd + 1]}] on edge {a >> 1}")


# driver height constant: h = ceil(C_H * n * eta^2 * ln n / phi), capped at n^2
C_H = 8.0


def driver_height(n: int, eta: int, phi: Fraction) -> int:
    # capped at n^2: weights never exceed n, so beyond n^2 every simple
    # path already counts as short and a larger height only adds relabels;
    # capping before ceil keeps an overflowed (inf or nan) nominal finite;
    # a phi whose float underflows to 0 puts the nominal above the cap
    try:
        nominal = C_H * n * (eta ** 2) * math.log(max(n, 2)) / float(phi)
    except ZeroDivisionError:
        nominal = math.inf
    return max(n, math.ceil(min(n * n, nominal)))


def max_flow_exact(inst: FlowInstance, phi: Optional[Fraction] = None,
                   seed: int = 0, config: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """Exact maximum flow via hierarchy-guided augmentation.  Push-relabel
    is offered the supply trimmed to the sink total, in vertex order, which
    is all of it unless the supply exceeds the sinks, as in a scaling
    phase; the stop test and the safety net see all of it."""
    g = inst.g
    n, m = g.n, g.m
    phi = phi if phi is not None else default_phi(n)
    check_phi(phi)
    base = random.Random(seed)
    # one residual for the whole solve; each iteration's flow is lifted into it
    res = residual(inst, Flow.zero(m))
    stats = SolveStats(value=0)
    while True:
        dist = _sink_distances(res)
        if all(d == n for d, s in zip(dist, res.delta_f) if s > 0):
            break
        stats.iterations += 1
        arc_ids, rinst = residual_graph(res)
        rinst.delta = _trim(res.delta_f, sum(res.nabla_f))
        r = None
        try:
            hier = build_hierarchy(rinst.g, rinst.cap, phi, base.getrandbits(64), config,
                                   validate=False,
                                   rank=[v - n * d for v, d in enumerate(dist)]).hierarchy
            w = induced_weights(rinst.g, hier.tau)
            h = driver_height(n, max(hier.eta, 1), phi)
            r = push_relabel(rinst, w, h, config=config)
            stats.augmentations += r.augment_count
            stats.relabels += r.relabel_climbs
        except BuildFailedError:
            stats.build_failures += 1
        if r is None or r.value == 0:
            # safety net: one shortest augmentation keeps progress unconditional
            arcs_path, src, sink = _bfs_path(g, res.arc_cap, res.delta_f, res.nabla_f)
            if arcs_path is None:
                raise SolverInvariantError("_bfs_path finds no path where sink distances show one")
            stats.safety_net_hits += 1
            _augment(res, arcs_path, src, sink)
            stats.augmentations += 1
        else:
            _lift(res.arc_cap, arc_ids, r.flow)
            # the supply held back from push-relabel, res.delta_f - rinst.delta, stays
            res.delta_f = [x + d - o for x, d, o in zip(r.delta_residual, res.delta_f,
                                                         rinst.delta)]
            res.nabla_f = r.nabla_residual
    stats.value = sum(inst.delta) - sum(res.delta_f)
    return SolveResult(Flow(res.arc_cap[1::2]), stats)


def _trim(supply: Sequence[int], total: int) -> List[int]:
    """supply cut down to `total` units, kept in vertex order."""
    out = []
    for d in supply:
        out.append(min(d, total))
        total -= out[-1]
    return out


# --- capacity scaling ---------------------------------------------------------


def scaling_shift(inst: FlowInstance) -> int:
    """Phase 1's shift in `capacity_scaled_max_flow`: the fewest right
    shifts s >= 0 that bring every capacity to at most max(n^2, 1)."""
    # u >> s <= n2 exactly when u // (n2 + 1) < 2^s
    u, n2 = max([1, *inst.cap]), max(inst.n * inst.n, 1)
    return (u // (n2 + 1)).bit_length()


def _cut_terms(inst: FlowInstance, res: ResidualView) -> int:
    """|C| of the minimum cut a maximum flow leaves: with T the vertices
    that reach an open sink in the residual `res` and S the rest, the
    edges from S to T, the vertices of T with supply and those of S with
    sink capacity, each counted where `inst` gives it a capacity above 0."""
    n = res.g.n
    in_t = [d < n for d in _sink_distances(res)]
    terms = sum(1 for u, v, c in zip(res.g.tails, res.g.heads, inst.cap)
                if c > 0 and in_t[v] and not in_t[u])
    return terms + sum(1 for t, d, s in zip(in_t, inst.delta, inst.nabla)
                       if (d > 0 if t else s > 0))


def capacity_scaled_max_flow(inst: FlowInstance,
                             inner: Callable[[FlowInstance], SolveResult]) -> SolveResult:
    """Capacity scaling that takes as many bits per phase as the last
    minimum cut allows.

    Phase 1 has `inner` solve the instance shifted right by
    `scaling_shift(inst)` bits, so every capacity is at most n^2.  After
    each phase, |C| counts the terms of the minimum cut its maximum flow
    leaves (`_cut_terms`), and the next phase takes the s >= 1 bits, at
    most the shift left, with (2^s - 1) * |C| <= max(n^2, m + n): it
    multiplies the flow by 2^s, has `inner` solve the residual instance
    (capacities capped at max(n^2, m + n)) to its maximum as a
    SolveResult, also where its supply exceeds its sink capacity, adds the
    correction and sums the counters.  Its residual value is at most
    (2^s - 1) * |C| (raises `SolverInvariantError`): each cut term is
    saturated, or carries nothing back, and gains at most 2^s - 1 from the
    s new bits.  So no solve takes more than `scaling_shift(inst) + 1`
    phases, the count of bit scaling.
    """
    g = inst.g
    n, m = g.n, g.m
    clamp = max(n * n, m + n, 1)
    shift = scaling_shift(inst)
    f = Flow.zero(m)
    stats = SolveStats(value=0)
    bound = None  # phase 1 is a full solve, with no value bound
    while True:
        stats.phases += 1
        inst_b = FlowInstance(g, [c >> shift for c in inst.cap],
                              [d >> shift for d in inst.delta],
                              [s >> shift for s in inst.nabla])
        res = residual(inst_b, f)
        arc_ids, rinst = residual_graph(res)
        rinst.cap = [min(c, clamp) for c in rinst.cap]
        sub = inner(rinst)
        for key in ("iterations", "augmentations", "relabels", "safety_net_hits",
                    "build_failures"):
            setattr(stats, key, getattr(stats, key) + getattr(sub.stats, key))
        val = flow_stats(rinst, sub.flow).value
        if bound is not None and val > bound:
            raise SolverInvariantError(
                f"phase {stats.phases} residual flow value {val} exceeds "
                f"(2^{step} - 1) * {terms} = {bound}")
        stats.phase_values.append(val)
        _lift(res.arc_cap, arc_ids, sub.flow)
        f = Flow(res.arc_cap[1::2])
        if shift == 0:
            break
        terms = _cut_terms(inst, residual(inst_b, f))
        # the largest step with (2^step - 1) * terms <= clamp; terms <= m + n
        step = min(shift, (clamp // terms + 1).bit_length() - 1 if terms else shift)
        bound = ((1 << step) - 1) * terms
        shift -= step
        f = Flow([x << step for x in f.values])
    stats.value = flow_stats(inst, f).value
    return SolveResult(f, stats)


def exact_solver(phi: Optional[Fraction] = None, seed: int = 0,
                 config: SolverConfig = DEFAULT_CONFIG) -> Callable[[FlowInstance], SolveResult]:
    return functools.partial(max_flow_exact, phi=phi, seed=seed, config=config)


def max_flow(inst: FlowInstance, phi: Optional[Fraction] = None, seed: int = 0,
             config: SolverConfig = DEFAULT_CONFIG) -> SolveResult:
    """`max_flow_exact`, behind capacity scaling when a capacity exceeds n^2."""
    if scaling_shift(inst) > 0:
        return capacity_scaled_max_flow(inst, exact_solver(phi, seed, config))
    return max_flow_exact(inst, phi, seed, config)
