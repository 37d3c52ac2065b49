"""Directed capacitated multigraphs, flow algebra, residual views.

Edge identity is the dense integer id assigned at construction; vertices
are 0..n-1.  Parallel edges and antiparallel pairs are first-class, so
every structure downstream (hierarchies, weight functions, flows) is
keyed by edge id, never by endpoint pair.

Residual arcs: arc 2e runs along edge e (tail to head) and arc 2e+1
runs against it (head to tail).  Every residual structure in the library
(residual capacities, admissible marks, per-arc weights) is indexed by
this arc id, and `DiGraph` holds the layout once: `arc_tail`, `arc_head`
and the per-vertex `out_arcs` lists, which callers only read.

Code that works on part of a graph gets a local `DiGraph` of its own:
`subgraph` for a vertex and edge-id subset, `residual_graph` for the
usable arcs of a residual view.  Both keep the caller's order, so local
index i always names the i-th vertex, edge or arc the caller passed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import InfeasibleFlowError, SelfLoopError, VertexOutOfRangeError

# The most vertices, and the most edges, that a parsed or generated
# instance may have, checked before anything is allocated (at n = 10^6 an
# instance without edges already takes about 250 MB).
MAX_SIZE = 10 ** 6


class DiGraph:
    """Directed multigraph with stable dense edge ids."""

    __slots__ = ("n", "tails", "heads", "out_edges", "in_edges",
                 "arc_tail", "arc_head", "out_arcs")

    def __init__(self, n: int, arcs: Iterable[Tuple[int, int]]):
        self.n = n
        tails: List[int] = []
        heads: List[int] = []
        out_edges: List[List[int]] = [[] for _ in range(n)]
        in_edges: List[List[int]] = [[] for _ in range(n)]
        # residual arcs leaving each vertex, ascending since edges come in id order
        out_arcs: List[List[int]] = [[] for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"arc ({u},{v}) outside [0,{n})")
            if u == v:
                raise SelfLoopError(u)
            eid = len(tails)
            tails.append(u)
            heads.append(v)
            out_edges[u].append(eid)
            in_edges[v].append(eid)
            out_arcs[u].append(2 * eid)
            out_arcs[v].append(2 * eid + 1)
        self.tails, self.heads = tails, heads
        self.out_edges, self.in_edges, self.out_arcs = out_edges, in_edges, out_arcs
        self.arc_tail = [0] * (2 * len(tails))
        self.arc_tail[0::2], self.arc_tail[1::2] = tails, heads
        self.arc_head = [0] * (2 * len(tails))
        self.arc_head[0::2], self.arc_head[1::2] = heads, tails

    @property
    def m(self) -> int:
        return len(self.tails)


def build_graph(n: int, arcs: Sequence[Tuple[int, int, int]]) -> Tuple[DiGraph, List[int]]:
    """Build a graph plus capacity vector from (tail, head, capacity) triples."""
    for u, v, c in arcs:
        if c < 0:
            raise InfeasibleFlowError(f"negative capacity on ({u},{v})")
    g = DiGraph(n, [(u, v) for u, v, _ in arcs])
    caps = [c for _, _, c in arcs]
    return g, caps


def _tarjan(succ: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Strongly connected components of vertices 0..len(succ)-1, where
    succ[v] lists v's out-neighbours, plus each vertex's component index.

    Iterative Tarjan; roots are tried in index order and neighbours in
    list order.  Components come in reverse topological discovery order:
    component k never has an edge into component j > k.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp_of = [-1] * n  # a visited vertex still at -1 is on the stack
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            advanced = False
            succ_v = succ[v]
            while ei < len(succ_v):
                w = succ_v[ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                elif comp_of[w] == -1:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps, comp_of


def scc(g: DiGraph) -> List[List[int]]:
    """Strongly connected components, in reverse topological discovery order.

    Component k never has an edge into component j > k.
    """
    heads = g.heads
    return _tarjan([[heads[e] for e in es] for es in g.out_edges])[0]


def scc_subgraph(g: DiGraph, vertices: Iterable[int], edge_ids: Iterable[int]
                 ) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """SCCs of the subgraph of `g` on `vertices` and `edge_ids`.

    Edges with an endpoint outside `vertices` are ignored.  Returns
    (comps, inner, between): the components in reverse topological
    order, each component's edge ids with both ends inside it, and the
    edge ids that run between two components, both in `edge_ids` order.
    Roots are tried in the given vertex order and neighbours in edge order.
    """
    verts = list(vertices)
    index = {v: i for i, v in enumerate(verts)}
    succ: List[List[int]] = [[] for _ in verts]
    kept: List[Tuple[int, int, int]] = []
    tails, heads = g.tails, g.heads
    for e in edge_ids:
        iu, iv = index.get(tails[e]), index.get(heads[e])
        if iu is not None and iv is not None:
            succ[iu].append(iv)
            kept.append((e, iu, iv))
    local, comp_of = _tarjan(succ)
    inner: List[List[int]] = [[] for _ in local]
    between: List[int] = []
    for e, iu, iv in kept:
        cu = comp_of[iu]
        if cu == comp_of[iv]:
            inner[cu].append(e)
        else:
            between.append(e)
    return [[verts[i] for i in comp] for comp in local], inner, between


def subgraph(g: DiGraph, vertices: Sequence[int], edge_ids: Sequence[int]) -> DiGraph:
    """The subgraph on `vertices` and `edge_ids`, reindexed in the given
    orders: local vertex i is vertices[i] and local edge j is edge_ids[j].
    Every edge must have both ends in `vertices`."""
    index = {v: i for i, v in enumerate(vertices)}
    tails, heads = g.tails, g.heads
    return DiGraph(len(vertices), [(index[tails[e]], index[heads[e]]) for e in edge_ids])


@dataclass
class FlowInstance:
    """Diffusion instance: graph, capacities, supply and sink vectors."""

    g: DiGraph
    cap: List[int]
    delta: List[int]
    nabla: List[int]

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def m(self) -> int:
        return self.g.m

    def total_source(self) -> int:
        return sum(self.delta)

    def total_sink(self) -> int:
        return sum(self.nabla)


def st_instance(n: int, arcs: Sequence[Tuple[int, int, int]], s: int, t: int) -> FlowInstance:
    """Single-source single-sink instance: s supplies and t absorbs one
    above the total edge capacity, which is effectively unbounded."""
    g, caps = build_graph(n, arcs)
    big = sum(caps) + 1
    delta = [0] * n
    nabla = [0] * n
    delta[s] = big
    nabla[t] = big
    return FlowInstance(g, caps, delta, nabla)


class Flow:
    """Integer edge flow; mutable, everything else derives from it."""

    __slots__ = ("values",)

    def __init__(self, values: List[int]):
        self.values = values

    @classmethod
    def zero(cls, m: int) -> "Flow":
        return cls([0] * m)

    def __getitem__(self, e: int) -> int:
        return self.values[e]

    def __setitem__(self, e: int, x: int) -> None:
        self.values[e] = x


@dataclass
class FlowStats:
    value: int
    excess: List[int]
    absorption: List[int]


def net_outflow(g: DiGraph, f: Flow) -> List[int]:
    out = [0] * g.n
    for u, v, x in zip(g.tails, g.heads, f.values):
        if x:
            out[u] += x
            out[v] -= x
    return out


def flow_stats(inst: FlowInstance, f: Flow) -> FlowStats:
    """Value, excess and absorption vectors of `f` on `inst`.

    abs = min(-B^T f + delta, nabla), ex = -B^T f + delta - abs,
    value = sum(abs).  For any vertex set S the identity
    delta(S) = abs(S) + net_out(S) + ex(S) holds.
    """
    supply = [d - x for d, x in zip(inst.delta, net_outflow(inst.g, f))]
    absorption = [s if s < c else c for s, c in zip(supply, inst.nabla)]
    excess = [s - a for s, a in zip(supply, absorption)]
    return FlowStats(sum(absorption), excess, absorption)


def is_feasible(inst: FlowInstance, f: Flow) -> bool:
    if any(x < 0 or x > c for x, c in zip(f.values, inst.cap)):
        return False
    st = flow_stats(inst, f)
    return all(0 <= e <= d for e, d in zip(st.excess, inst.delta))


class ResidualView:
    """Residual graph of (inst, f), indexed by arc id.

    All arcs exist; saturated ones carry capacity 0 and are skipped by
    path search.  Residual sources are the excess vector, residual sinks
    the unabsorbed sink capacity.
    """

    __slots__ = ("g", "arc_cap", "delta_f", "nabla_f")

    def __init__(self, g: DiGraph, arc_cap: List[int], delta_f: List[int], nabla_f: List[int]):
        self.g = g
        self.arc_cap = arc_cap
        self.delta_f = delta_f
        self.nabla_f = nabla_f


def residual(inst: FlowInstance, f: Flow) -> ResidualView:
    vals, cap = f.values, inst.cap
    fwd = [c - x for x, c in zip(vals, cap)]
    if min(fwd, default=0) < 0 or min(vals, default=0) < 0:
        e = next(e for e, (x, c) in enumerate(zip(vals, cap)) if x < 0 or x > c)
        raise InfeasibleFlowError(f"flow {vals[e]} outside [0, {cap[e]}] on edge {e}")
    # a flow vector of the wrong length fails the slice assignments
    arc_cap = [0] * (2 * inst.m)
    arc_cap[0::2], arc_cap[1::2] = fwd, vals
    st = flow_stats(inst, f)
    nabla_f = [c - a for c, a in zip(inst.nabla, st.absorption)]
    return ResidualView(inst.g, arc_cap, st.excess, nabla_f)


def residual_graph(res: ResidualView) -> Tuple[List[int], FlowInstance]:
    """The residual graph materialized: one edge per usable arc, in
    ascending arc-id order, carrying its residual capacity, with the
    residual supply and sink vectors.  Returns (arc ids, instance).
    When the usable arcs are exactly the edges, the graph is `res.g` itself."""
    cf, g = res.arc_cap, res.g
    if all(cf[0::2]) and not any(cf[1::2]):
        return list(range(0, 2 * g.m, 2)), FlowInstance(g, cf[0::2], res.delta_f, res.nabla_f)
    arc_ids = [a for a, c in enumerate(cf) if c > 0]
    tail, head = g.arc_tail, g.arc_head
    rg = DiGraph(g.n, [(tail[a], head[a]) for a in arc_ids])
    return arc_ids, FlowInstance(rg, [cf[a] for a in arc_ids], res.delta_f, res.nabla_f)


def decompose_paths(inst: FlowInstance, f: Flow):
    """Split an integral flow into source-to-sink paths plus cycles.

    Returns (paths, cycles) where each entry is (edge id list, amount).
    The recomposed flow routes the same demand as f and is pointwise <= f;
    grouped peeling emits at most m + 2n entries.
    """
    g = inst.g
    rem = list(f.values)
    st = flow_stats(inst, f)
    src_rem = [inst.delta[v] - st.excess[v] for v in range(inst.n)]
    abs_rem = list(st.absorption)
    out_iter = [0] * g.n  # out-edge scan position; exhausted edges stay behind it
    paths: List[Tuple[List[int], int]] = []
    cycles: List[Tuple[List[int], int]] = []

    def next_out(v: int) -> int:
        es = g.out_edges[v]
        i = out_iter[v]
        while i < len(es) and rem[es[i]] == 0:
            i += 1
        out_iter[v] = i
        return es[i] if i < len(es) else -1

    def walk_until(v: int, stop) -> Tuple[List[int], int]:
        """Follow positive edges from v, peeling loops, until stop(u)."""
        path: List[int] = []
        pos = {v: 0}
        while not stop(v):
            e = next_out(v)
            if e == -1:
                raise InfeasibleFlowError("flow decomposition stalled: flow does not conserve")
            path.append(e)
            v = g.heads[e]
            if v in pos:
                k = pos[v]
                loop = path[k:]
                amt = min(rem[e2] for e2 in loop)
                for e2 in loop:
                    rem[e2] -= amt
                cycles.append((loop, amt))
                for u in [u for u, i in pos.items() if i > k]:
                    del pos[u]
                del path[k:]
            else:
                pos[v] = len(path)
        return path, v

    for s in range(g.n):
        while src_rem[s] > 0:
            path, t = walk_until(s, lambda u: abs_rem[u] > 0)
            amt = min(src_rem[s], abs_rem[t])
            if path:
                amt = min(amt, min(rem[e2] for e2 in path))
            src_rem[s] -= amt
            abs_rem[t] -= amt
            for e2 in path:
                rem[e2] -= amt
            if path:
                paths.append((path, amt))

    # leftover is a circulation; every positive edge lies on a cycle, closed
    # by the walk from its head back to its tail (loops peeled on the way
    # never contain e0: only reaching the tail stops the walk)
    for e0 in range(g.m):
        while rem[e0] > 0:
            u0 = g.tails[e0]
            path, _ = walk_until(g.heads[e0], lambda u: u == u0)
            path.insert(0, e0)
            amt = min(rem[e2] for e2 in path)
            for e2 in path:
                rem[e2] -= amt
            cycles.append((path, amt))
    return paths, cycles
