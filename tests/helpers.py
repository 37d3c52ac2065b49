"""Shared independent oracles for the test suite.

Everything here is deliberately naive (transitive closure, exhaustive
enumeration, path scans) so it cannot share a failure mode with the
library code it checks.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from hierflow.graph import DiGraph, Flow, FlowInstance


def reachability_closure(n: int, pairs: Sequence[Tuple[int, int]]) -> List[List[bool]]:
    """Floyd-Warshall style transitive closure (reflexive)."""
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
    for u, v in pairs:
        reach[u][v] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return reach


def scc_from_closure(n: int, pairs) -> List[frozenset]:
    reach = reachability_closure(n, pairs)
    comps = {}
    for v in range(n):
        key = frozenset(u for u in range(n) if reach[v][u] and reach[u][v])
        comps[key] = True
    return list(comps.keys())


def random_instance(rng: random.Random, n: int, m: int, cap: int,
                    st: bool = True) -> FlowInstance:
    from hierflow.graph import build_graph

    arcs = []
    seen = set()
    guard = 0
    while len(arcs) < m and guard < 40 * m + 50:
        guard += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        arcs.append((u, v, rng.randint(1, cap)))
    g, caps = build_graph(n, arcs)
    delta = [0] * n
    nabla = [0] * n
    if st:
        s, t = 0, n - 1
        big = sum(caps) + 1
        delta[s] = big
        nabla[t] = big
    else:
        for _ in range(max(1, n // 3)):
            delta[rng.randrange(n)] += rng.randint(1, cap)
        total = sum(delta)
        while total > 0:
            v = rng.randrange(n)
            amt = rng.randint(1, total)
            nabla[v] += amt
            total -= amt
        nabla[rng.randrange(n)] += rng.randint(0, cap)
    return FlowInstance(g, caps, delta, nabla)


def scaling_shift(u: int, n: int) -> int:
    """Fewest right shifts that bring the capacity u to at most n^2."""
    s = 0
    while u >> s > n * n:
        s += 1
    return s


def shifted_instance(inst: FlowInstance, s: int) -> FlowInstance:
    """inst with every capacity, supply and sink capacity shifted right by s."""
    return FlowInstance(inst.g, [c >> s for c in inst.cap], [d >> s for d in inst.delta],
                        [t >> s for t in inst.nabla])


def random_feasible_flow(rng: random.Random, inst: FlowInstance, rounds: int = 30) -> Flow:
    """Random augmenting walks; always yields a feasible integral flow."""
    from hierflow.graph import flow_stats

    g = inst.g
    f = Flow.zero(g.m)
    for _ in range(rounds):
        st = flow_stats(inst, f)
        sources = [v for v in range(g.n) if st.excess[v] > 0]
        if not sources:
            break
        s0 = rng.choice(sources)
        v = s0
        path: List[int] = []
        seen = {v}
        while True:
            if path and inst.nabla[v] - st.absorption[v] > 0:
                bottleneck = min(st.excess[s0], inst.nabla[v] - st.absorption[v],
                                 min(inst.cap[e] - f.values[e] for e in path))
                if bottleneck > 0:
                    amt = rng.randint(1, bottleneck)
                    for e in path:
                        f.values[e] += amt
                break
            outs = [e for e in g.out_edges[v]
                    if f.values[e] < inst.cap[e] and g.heads[e] not in seen]
            if not outs:
                break
            e = rng.choice(outs)
            path.append(e)
            v = g.heads[e]
            seen.add(v)
    return f


def per_edge_flow_stats(inst: FlowInstance, f: Flow) -> Tuple[int, List[int], List[int]]:
    """(value, excess, absorption) of `f`, one edge and one vertex at a time."""
    g = inst.g
    supply = list(inst.delta)
    for e in range(g.m):
        supply[g.tails[e]] -= f.values[e]
        supply[g.heads[e]] += f.values[e]
    absorption = [min(supply[v], inst.nabla[v]) for v in range(g.n)]
    excess = [supply[v] - absorption[v] for v in range(g.n)]
    return sum(absorption), excess, absorption


def per_edge_residual(inst: FlowInstance, f: Flow) -> Tuple[List[int], List[int], List[int]]:
    """(arc capacities, residual supply, residual sink capacity) of `f`;
    raises InfeasibleFlowError naming the first edge whose flow is
    outside [0, cap]."""
    from hierflow.errors import InfeasibleFlowError

    arc_cap: List[int] = []
    for e in range(inst.m):
        x, c = f.values[e], inst.cap[e]
        if not 0 <= x <= c:
            raise InfeasibleFlowError(f"flow {x} outside [0, {c}] on edge {e}")
        arc_cap += [c - x, x]
    _value, excess, absorption = per_edge_flow_stats(inst, f)
    return arc_cap, excess, [inst.nabla[v] - absorption[v] for v in range(inst.n)]


def dijkstra_residual(inst: FlowInstance, f: Flow, w: Sequence[int],
                      sources: Sequence[int]) -> List[float]:
    """Textbook Dijkstra over usable residual arcs, weight per base edge."""
    import heapq
    import math

    g = inst.g
    dist = [math.inf] * g.n
    pq = []
    for s in sources:
        dist[s] = 0
        heapq.heappush(pq, (0, s))
    while pq:
        d, v = heapq.heappop(pq)
        if d > dist[v]:
            continue
        for e in g.out_edges[v]:
            if inst.cap[e] - f.values[e] > 0 and d + w[e] < dist[g.heads[e]]:
                dist[g.heads[e]] = d + w[e]
                heapq.heappush(pq, (d + w[e], g.heads[e]))
        for e in g.in_edges[v]:
            if f.values[e] > 0 and d + w[e] < dist[g.tails[e]]:
                dist[g.tails[e]] = d + w[e]
                heapq.heappush(pq, (d + w[e], g.tails[e]))
    return dist


def bellman_ford_arcs(n: int, arcs: Sequence[Tuple[int, int, int]],
                      sources: Sequence[int]) -> List[float]:
    """Bellman-Ford over explicit (u, v, weight) arcs; no negative arcs here."""
    import math

    dist = [math.inf] * n
    for s in sources:
        dist[s] = 0
    for _ in range(n):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def max_flow_value_by_cuts(inst: FlowInstance) -> int:
    """Exhaustive min-cut evaluation: min over S of c(E(S, S-bar)) +
    delta(S-bar) + nabla(S).  Exponential; for tiny oracles only."""
    g = inst.g
    n = g.n
    best = None
    for mask in range(1 << n):
        cut_cap = 0
        for e in range(g.m):
            if (mask >> g.tails[e]) & 1 and not (mask >> g.heads[e]) & 1:
                cut_cap += inst.cap[e]
        val = cut_cap
        val += sum(inst.delta[v] for v in range(n) if not (mask >> v) & 1)
        val += sum(inst.nabla[v] for v in range(n) if (mask >> v) & 1)
        if best is None or val < best:
            best = val
    return best


def exhaustive_sparsest_cut(vertices: Sequence[int],
                            edges: Sequence[Tuple[int, int, int]],
                            volw: Dict[int, int]) -> Tuple[Optional[Fraction], Optional[Set[int]]]:
    """All-subsets sparsest cut, written independently of the library."""
    verts = list(vertices)
    k = len(verts)
    best = None
    best_side = None
    for mask in range(1, (1 << k) - 1):
        side = {verts[i] for i in range(k) if (mask >> i) & 1}
        vol_s = sum(volw.get(v, 0) for v in side)
        vol_t = sum(volw.get(v, 0) for v in verts) - vol_s
        mv = min(vol_s, vol_t)
        if mv <= 0:
            continue
        out_c = sum(c for u, v, c in edges if u in side and v not in side)
        in_c = sum(c for u, v, c in edges if v in side and u not in side)
        r = Fraction(min(out_c, in_c), mv)
        if best is None or r < best:
            best = r
            best_side = side
    return best, best_side


def cut_sparsity(side: Set[int], edges: Sequence[Tuple[int, int, int]],
                 volw: Dict[int, int]) -> Optional[Fraction]:
    """min(c(S, S-bar), c(S-bar, S)) / min(vol(S), vol(S-bar)) of one cut,
    recounted from the edge list; None when either side has no volume."""
    vol_s = sum(x for v, x in volw.items() if v in side)
    vol_t = sum(volw.values()) - vol_s
    if min(vol_s, vol_t) <= 0:
        return None
    out_c = sum(c for u, v, c in edges if u in side and v not in side)
    in_c = sum(c for u, v, c in edges if v in side and u not in side)
    return Fraction(min(out_c, in_c), min(vol_s, vol_t))


def local_cut_input(vertices, edges, volw):
    """Cut-check inputs from vertex labels, a (u, v, c) list over them and
    a volume dict, as the library's (g, cap, vol) plus `back`.

    Local vertex i is the i-th label and local edge j the j-th edge that
    is not a self-loop: self-loops never cross a cut, so they are dropped
    from the graph, while volumes come from `volw` alone (a missing label
    has volume 0).  `back` maps a local side (or None) to labels.
    """
    verts = list(vertices)
    index = {v: i for i, v in enumerate(verts)}
    kept = [(index[u], index[v], c) for u, v, c in edges if u != v]
    g = DiGraph(len(verts), [(u, v) for u, v, _ in kept])

    def back(side):
        return None if side is None else [verts[i] for i in side]

    return g, [c for _, _, c in kept], [volw.get(v, 0) for v in verts], back


def bitmask_worst_cut(g, cap, vol) -> Tuple[Optional[Fraction], Optional[List[int]]]:
    """Exact sparsest cut of (g, cap) by scanning all 2^(k-1) proper cuts:
    the tie-break reference for `hierarchy.exhaustive_worst_cut`.

    The last vertex stays outside S, and S runs over the bitmasks of the
    first k-1 vertices (bit i set when vertex i is in S) in ascending
    order; the first cut of the minimum ratio wins.  Returns (ratio, side);
    (None, None) when no cut has positive volume on both sides.
    """
    from hierflow.hierarchy import CutEvaluator

    ev = CutEvaluator(g, cap, vol)
    k = g.n
    if k <= 1:
        return None, None
    total = ev.total_vol
    best_num, best_den, best_mask = 0, 0, 0
    for mask in range(1, 1 << (k - 1)):
        # from mask - 1 to mask, bit i flips for every i up to mask's lowest set bit
        for i in range((mask ^ (mask - 1)).bit_length()):
            ev.flip(i)
        mv = min(ev.vol_s, total - ev.vol_s)
        if mv <= 0:
            continue
        b = min(ev.out_cap, ev.in_cap)
        if best_den == 0 or b * best_den < best_num * mv:  # cross-multiplied
            best_num, best_den, best_mask = b, mv, mask
    if best_den == 0:
        return None, None
    return Fraction(best_num, best_den), [i for i in range(k) if best_mask >> i & 1]


def random_cut_flags(rng: random.Random, k: int) -> List[bool]:
    """One random cut of k vertices as the sampler draws it: the next
    `getrandbits(32 * ceil(k / 32))`, vertex i in S when bit i is set."""
    x = rng.getrandbits(32 * ((k + 31) // 32))
    return [bool(x >> i & 1) for i in range(k)]


def per_cut_sampled_cut(g, cap, vol, phi: Fraction, rng: random.Random,
                        budget: int) -> Optional[List[int]]:
    """Falsification-only search for a phi-sparse cut of (g, cap), one
    random cut at a time: the draw-order and rng-state reference for
    `hierarchy.sampled_sparse_cut`.

    Tries `budget` random cuts plus every level cut of breadth-first
    labelings from random sources (forward and reverse).  Returns a
    witness side or None; None proves nothing.
    """
    from hierflow.hierarchy import CutEvaluator

    ev = CutEvaluator(g, cap, vol)
    k = g.n
    if k <= 1:
        return None
    # random subsets: one draw per cut, vertex i in S when bit i is set
    for _ in range(budget):
        ev.assign(random_cut_flags(rng, k))
        if ev.sparse(phi):  # never for S empty or S = V: one side has no volume
            return ev.side()
    # level cuts of BFS labelings from random sources, both directions;
    # each layer joins S by flips
    out_adj = [[g.heads[e] for e in es] for es in g.out_edges]
    in_adj = [[g.tails[e] for e in es] for es in g.in_edges]
    tries = max(2, min(k, 8))
    for _ in range(tries):
        src = rng.randrange(k)
        for adj in (out_adj, in_adj):
            ev.assign([False] * k)
            seen = [False] * k
            seen[src] = True
            layer = [src]
            while True:
                nxt = []
                for u in layer:
                    for v in adj[u]:
                        if not seen[v]:
                            seen[v] = True
                            nxt.append(v)
                if not nxt:
                    break  # the last layer never joins S, so S != V
                for u in layer:
                    ev.flip(u)
                if ev.sparse(phi):
                    return ev.side()
                layer = nxt
    return None


def per_frame_topo_order(g: DiGraph, d: Set[int], levels: Sequence[Set[int]]) -> List[int]:
    """`hierarchy.respecting_topo_order` with Tarjan run on every frame,
    edgeless ones too: the reference for its shortcut on frames without
    edges.  Raises the same errors."""
    from hierflow.errors import LevelViolationError, NotAcyclicError
    from hierflow.graph import scc_subgraph

    tau = [0] * g.n
    edge_level = {e: lv for lv, xs in enumerate([d, *levels]) for e in xs}
    next_val = 1
    work = [(list(range(g.n)), sorted(edge_level), len(levels))]
    while work:
        comp_verts, comp_edges, k = work.pop()
        comps, inner, between = scc_subgraph(g, comp_verts, comp_edges)
        if k == 0:
            bad = [c for c in comps if len(c) > 1]
            if bad:
                raise NotAcyclicError(f"D contains a cycle through {sorted(bad[0])}")
            for comp in reversed(comps):
                tau[comp[0]] = next_val
                next_val += 1
            continue
        for e in between:
            if edge_level[e] >= 1:
                raise LevelViolationError(
                    f"level-{edge_level[e]} edge {e} crosses components at level {k}")
        for comp, edges in zip(comps, inner):
            work.append((comp, [e for e in edges if edge_level[e] != k], k - 1))
    return tau


def per_iteration_exact(inst: FlowInstance, phi: Optional[Fraction] = None, seed: int = 0):
    """`maxflow.max_flow_exact` with every iteration made from the flow so
    far: a fresh `residual(inst, f)`, a fresh residual `DiGraph` and the
    lifted flow added onto f.  The reference for its flows and SolveStats.
    The builder and push-relabel are looked up on `hierflow.maxflow`, so a
    test that replaces them there replaces them for both.  It stops on
    `_bfs_path`, where the driver stops on its sink distances, ranks tau's
    edge-less blocks by `_sink_distances` of the fresh residual and offers
    push-relabel the supply the driver's `_trim` leaves."""
    from hierflow import maxflow
    from hierflow.config import DEFAULT_CONFIG as config, default_phi
    from hierflow.errors import BuildFailedError
    from hierflow.graph import flow_stats, residual
    from hierflow.hierarchy import induced_weights

    g = inst.g
    phi = phi if phi is not None else default_phi(g.n)
    base = random.Random(seed)
    f = Flow.zero(g.m)
    stats = maxflow.SolveStats(value=0)
    while True:
        res = residual(inst, f)
        path, src, sink = maxflow._bfs_path(g, res.arc_cap, res.delta_f, res.nabla_f)
        if path is None:
            break
        stats.iterations += 1
        arc_ids = [a for a, c in enumerate(res.arc_cap) if c > 0]
        rg = DiGraph(g.n, [(g.arc_tail[a], g.arc_head[a]) for a in arc_ids])
        rinst = FlowInstance(rg, [res.arc_cap[a] for a in arc_ids],
                             maxflow._trim(res.delta_f, sum(res.nabla_f)), res.nabla_f)
        r = None
        try:
            rank = [v - g.n * d for v, d in enumerate(maxflow._sink_distances(res))]
            hier = maxflow.build_hierarchy(rg, rinst.cap, phi, base.getrandbits(64), config,
                                           validate=False, rank=rank).hierarchy
            h = maxflow.driver_height(g.n, max(hier.eta, 1), phi)
            r = maxflow.push_relabel(rinst, induced_weights(rg, hier.tau), h, config=config)
            stats.augmentations += r.augment_count
            stats.relabels += r.relabel_climbs
        except BuildFailedError:
            stats.build_failures += 1
        if r is None or r.value == 0:
            stats.safety_net_hits += 1
            amt = min([res.delta_f[src], res.nabla_f[sink]] + [res.arc_cap[a] for a in path])
            lifted = [(a, amt) for a in path]
            stats.augmentations += 1
        else:
            lifted = zip(arc_ids, r.flow.values)
        for a, x in lifted:
            f.values[a >> 1] += -x if a & 1 else x
    stats.value = flow_stats(inst, f).value
    return maxflow.SolveResult(f, stats)


# instance text: mostly well-formed `p max` and `p diff` files over at most
# 8 vertices, with out-of-range vertices, negative numbers, self-loops, a
# wrong arc count, a missing or unknown node line and junk or comment lines
_JUNK = ["c note", "", "p max", "n 1", "a 1 2", "a 1 x 2", "q 1", "p diff 2 x", "src 1"]


def random_instance_text(rng: random.Random) -> str:
    n = rng.choice([-1, 0] + list(range(1, 9)) * 4)
    rate = rng.choice([0, 0, 0.02, 0.1])  # half the texts have no planted fault

    def odd():
        return rng.random() < rate

    def vtx():
        return rng.choice([0, n + 1]) if n < 1 or odd() else rng.randint(1, n)

    arcs = [(vtx(), vtx(), -1 if odd() else rng.randint(0, 12))
            for _ in range(rng.randint(0, 16))]
    if not odd():
        arcs = [(u, v, c) for u, v, c in arcs if u != v]
    m = len(arcs) + (rng.choice([-1, 1]) if odd() else 0)
    kind = rng.choice(["max", "diff"])
    lines = [f"p {kind} {n} {m}"]
    if kind == "max":
        ends = rng.choice(["ss", "tx", "t"]) if odd() else "st"
        lines += [f"n {vtx()} {end}" for end in ends]
    else:
        for word, most in (("src", 12), ("snk", 30)):
            lines += [f"{word} {vtx()} {-1 if odd() else rng.randint(0, most)}"
                      for _ in range(rng.randint(0, 2))]
    lines += [f"a {u} {v} {c}" for u, v, c in arcs]
    for _ in range(rng.randint(0, 2) if rate else 0):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_JUNK))
    return "\n".join(lines)
