"""Cut-matching game: certify that a terminal edge set expands, or find
a balanced sparse cut.

The cut player keeps a low-dimensional random-projection sketch of lazy
averaging walks: each terminal-degree unit of a vertex carries a sketch
vector, fresh random directions project them each round, and the routed
matchings average the sketches across their endpoints (half stays, half
crosses).  The matching player answers bisections with the sparse-cut
subroutine at congestion kappa = ceil(2 C_KAPPA / phi) and the game's
phi, retrying on residual demand; `sparse_cut` weighs the edges from
the piece's hierarchy on each call.  A round that leaves any demand
unrouted without yielding a sparse cut fails with CutCheckFailedError.

A component certifies early, before any round, unless the brute-force
check refutes it: on at most EXACT_CUT_THRESHOLD vertices the exhaustive
search proves expansion (an exact certificate), and above that a
falsifier that finds no sparse cut certifies it as not refuted, not
proved (`Certificate.exact` is False).  Only a refutation whose witness
fails `try_cut`'s check, or a check patched to decide nothing, leads to
the game: its set-up (the piece's hierarchy, kappa and the retry
budget) is made once, and its rounds run until one yields a cut or the
round budget is spent.  The check runs once per call; the exhaustive
search draws nothing, the falsifier draws only its own cuts, and the
sketch is drawn by the first bisection.  The exact check asks
`exhaustive_worst_cut` only for a cut sparser than phi, so its branch
and bound can prune against phi; `union_psi` asks for the value.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import CutCheckFailedError, NotStronglyConnectedError
from .graph import DiGraph, Flow, FlowInstance, decompose_paths, flow_stats, scc
from .hierarchy import (EXACT_CUT_THRESHOLD, CutEvaluator, Hierarchy, exhaustive_worst_cut,
                        sampled_sparse_cut, terminal_volume)
from .sparse_cut import sparse_cut

# round budget t_cmg = ceil(C_T * ln(n*U)^2)
C_T = 2.0
# matching-player congestion kappa = ceil(2 * C_KAPPA / phi)
C_KAPPA = 1.0


@dataclass
class CMGState:
    """Mutable cut-player state across rounds.  The sketch is drawn from
    rng by the first bisection."""

    nu: List[int]
    rng: random.Random
    t_cmg: int
    sketch: Dict[int, List[float]] = field(default_factory=dict)
    matchings: List[List[Tuple[int, int, int]]] = field(default_factory=list)

    @property
    def rounds_played(self) -> int:
        return len(self.matchings)


def rounds_budget(n: int, nu: Sequence[int]) -> int:
    u = max(1, max(nu, default=1))
    return max(1, math.ceil(C_T * math.log(max(n, 2) * u) ** 2))


def retry_budget(n: int) -> int:
    return max(1, math.ceil(20 * math.log(max(n, 2))))


def cut_player_bisection(state: CMGState) -> Tuple[List[int], List[int]]:
    """Project sketches on a fresh direction and split at the weighted
    median, so that ||nu_A|| <= ||nu_B|| and nu_A + nu_B <= nu."""
    n = len(state.nu)
    nu_a = [0] * n
    nu_b = [0] * n
    active = [v for v in range(n) if state.nu[v] > 0]
    if not active:
        return nu_a, nu_b
    k = max(1, math.ceil(math.log(max(n, 2))))
    if not state.sketch:  # a gauss vector of k entries per vertex with volume
        state.sketch = {v: [state.rng.gauss(0.0, 1.0) for _ in range(k)] for v in active}
    direction = [state.rng.gauss(0.0, 1.0) for _ in range(k)]
    proj = {v: sum(a * b for a, b in zip(state.sketch[v], direction)) for v in active}
    active.sort(key=lambda v: (proj[v], v))
    total = sum(state.nu[v] for v in active)
    target = total // 2
    acc = 0
    for v in active:
        take = min(state.nu[v], target - acc)
        if take > 0:
            nu_a[v] = take
            acc += take
        nu_b[v] = state.nu[v] - take if take > 0 else state.nu[v]
        # a straddling vertex contributes to both sides
    return nu_a, nu_b


def absorb_matching(state: CMGState, matching: List[Tuple[int, int, int]]) -> None:
    """Average the sketches across the matching: half stays, half crosses."""
    if not matching:
        state.matchings.append([])
        return
    k = len(next(iter(state.sketch.values())))
    # a volume beyond the float range is scaled down by a power of two,
    # with every amount it is weighed against; within it (shift 0) the
    # arithmetic is the plain one
    shift = {v: max(0, state.nu[v].bit_length() - 1000) for v in state.sketch}
    part = {v: 0 for v in state.sketch}
    for a, b, c in matching:
        part[a] += c
        part[b] += c
    acc = {}
    for v, x in state.sketch.items():
        stay = (state.nu[v] >> shift[v]) - (part[v] >> shift[v]) / 2.0
        acc[v] = [stay * xi for xi in x]
    for a, b, c in matching:
        xa, xb = state.sketch[a], state.sketch[b]
        half_a, half_b = (c >> shift[a]) / 2.0, (c >> shift[b]) / 2.0
        va, vb = acc[a], acc[b]
        for i in range(k):
            va[i] += half_a * xb[i]
            vb[i] += half_b * xa[i]
    for v in acc:
        nu = state.nu[v] >> shift[v]
        state.sketch[v] = [x / nu for x in acc[v]]
    state.matchings.append(matching)


def union_psi(matchings) -> Optional[Fraction]:
    """Worst cut ratio of the matching union, volumes by matched amount.

    Exact only up to EXACT_CUT_THRESHOLD participating vertices; None
    above, and None when the union has no cut with volume on both sides.
    """
    agg: Dict[Tuple[int, int], int] = {}
    for matching in matchings:
        for a, b, c in matching:
            agg[(a, b)] = agg.get((a, b), 0) + c
    verts = sorted({v for ab in agg for v in ab})
    if not 1 < len(verts) <= EXACT_CUT_THRESHOLD:
        return None
    index = {v: i for i, v in enumerate(verts)}
    pairs = sorted(agg)
    union = DiGraph(len(verts), [(index[a], index[b]) for a, b in pairs])
    cap = [agg[ab] for ab in pairs]
    ratio, _side = exhaustive_worst_cut(union, cap, terminal_volume(union, cap, range(union.m)))
    return ratio


@dataclass
class Certificate:
    psi_measured: Optional[Fraction]
    rounds: int
    early: bool
    # the exhaustive search or the tiny-volume rule decided, not a silent falsifier
    exact: bool


@dataclass
class CutOrEmbedOutcome:
    cut: Optional[List[int]]
    vol_f_side: int = 0
    vol_f_total: int = 0
    boundary_out: int = 0
    boundary_in: int = 0
    certificate: Optional[Certificate] = None
    state: Optional[CMGState] = None


def _brute_force_check(g, cap, vol, phi, rng, config):
    """(certified, witness_side): the exhaustive search on at most
    EXACT_CUT_THRESHOLD vertices, which draws nothing, and above it the
    sampled falsifier, which draws its cuts from rng; (None, None) means
    unknown."""
    if g.n <= EXACT_CUT_THRESHOLD:
        _ratio, side = exhaustive_worst_cut(g, cap, vol, phi)
        return side is None, side
    side = sampled_sparse_cut(g, cap, vol, phi, rng, config.builder_falsifier_cuts)
    if side is not None:
        return False, side
    return None, None  # silence: no refutation, no proof


def cut_or_embed(
    g: DiGraph,
    cap: Sequence[int],
    f_edges: Set[int],
    phi: Fraction,
    hier_of: Callable[[], Hierarchy],
    rng: random.Random,
    config: SolverConfig = DEFAULT_CONFIG,
    check_connected: bool = True,
) -> CutOrEmbedOutcome:
    """Certify f_edges as expanding in (g, cap) or return a sparse cut.

    `g` must be strongly connected.  `check_connected` runs Tarjan to
    raise NotStronglyConnectedError otherwise; the builder, whose SCC
    split already proves it, runs it only under `debug_invariants`.
    A component the brute-force check does not refute certifies at once,
    with `rounds == 0`; its certificate is `exact` only when the
    exhaustive search or the tiny-volume rule decided.
    `hier_of()` returns the hierarchy of the non-terminal edges; it is
    called once, and only if the game plays.  The cut branch
    side S satisfies min-direction sparsity below phi * vol_F(S) and
    1 <= vol_F(S) <= vol_F(V)/2; both are checked before returning, never
    assumed.
    """
    n = g.n
    if check_connected and n > 1 and len(scc(g)) != 1:
        raise NotStronglyConnectedError("cut_or_embed needs a strongly connected graph")
    deg_f = terminal_volume(g, cap, f_edges)
    vol_total = sum(deg_f)
    if n <= 1 or (vol_total * phi.numerator < phi.denominator and all(c > 0 for c in cap)):
        # every cut of a strongly connected graph has an edge each way, so
        # with positive capacities a tiny total volume expands unconditionally
        return CutOrEmbedOutcome(None, 0, vol_total,
                                 certificate=Certificate(None, 0, True, True))
    state = CMGState(deg_f, rng, rounds_budget(n, deg_f))

    def finish(early: bool, exact: bool) -> CutOrEmbedOutcome:
        psi = union_psi(state.matchings)
        return CutOrEmbedOutcome(
            None, 0, vol_total,
            certificate=Certificate(psi, state.rounds_played, early, exact), state=state)

    def try_cut(side: List[int]) -> Optional[CutOrEmbedOutcome]:
        ev = CutEvaluator(g, cap, deg_f)
        sset = set(side)
        ev.assign([v in sset for v in range(n)])
        if 2 * ev.vol_s > vol_total:
            ev.assign([v not in sset for v in range(n)])
        if not (ev.sparse(phi) and ev.vol_s >= 1):
            return None
        return CutOrEmbedOutcome(ev.side(), ev.vol_s, vol_total, ev.out_cap, ev.in_cap,
                                 state=state)

    verdict, witness = _brute_force_check(g, cap, deg_f, phi, rng, config)
    if verdict is not False:  # an exact proof, or a silent falsifier
        return finish(early=True, exact=verdict is True)
    if witness is not None:
        out = try_cut(witness)
        if out is not None:
            return out
    hier = hier_of()
    kappa = max(1, math.ceil(2 * Fraction(C_KAPPA) / phi))
    z = retry_budget(n)
    while state.rounds_played < state.t_cmg:
        nu_a, nu_b = cut_player_bisection(state)
        delta, nabla = nu_a, nu_b
        demand0 = sum(delta)
        round_flow = Flow.zero(g.m)
        for _attempt in range(z):
            rem = sum(delta)
            if rem == 0:
                break
            inst = FlowInstance(g, cap, delta, nabla)
            out = sparse_cut(inst, kappa, f_edges, hier, config, phi=phi,
                             check_connected=False)
            if 2 * out.value < rem:
                branch = try_cut(out.cut)
                if branch is not None:
                    return branch
                if out.value == 0:
                    raise CutCheckFailedError("cut check failed with zero routed flow")
            st = flow_stats(inst, out.flow)
            for e in range(g.m):
                round_flow.values[e] += out.flow.values[e]
            delta = st.excess
            nabla = [nabla[v] - st.absorption[v] for v in range(n)]
        rem = sum(delta)
        if rem:
            raise CutCheckFailedError(f"round left {rem} of {demand0} unrouted")
        # matching = grouped path decomposition of the round flow
        matching: Dict[Tuple[int, int], int] = {}
        if any(round_flow.values):
            # the round flow routes nu_a to nu_b; decompose_paths reads no capacities
            paths, _cycles = decompose_paths(FlowInstance(g, cap, nu_a, nu_b), round_flow)
            for arcs, amt in paths:
                a = g.tails[arcs[0]]
                b = g.heads[arcs[-1]]
                key = (a, b)
                matching[key] = matching.get(key, 0) + amt
        absorb_matching(state, sorted((a, b, c) for (a, b), c in matching.items()))
    return finish(early=False, exact=False)
