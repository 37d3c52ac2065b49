"""Edge-partition hierarchies, respecting topological orders, induced
weights and a brute-force validity checker.

A hierarchy splits the edge ids into an acyclic part D and levels
X_1..X_eta, where every level-i edge sits inside a strongly connected
component of the graph with all higher levels removed, and the level-i
edges expand inside those components.  The respecting order tau makes
every D edge point forward and keeps each component's tau values
contiguous at every level; the weight of an edge is |tau_v - tau_u|.
Inside a part with no edges left any order respects the hierarchy: its
block goes out in ascending order of a per-vertex rank when the caller
passes one (the exact driver ranks by residual distance to the open
sinks), and in reverse vertex order otherwise.

Expansion is checked cut by cut on a local graph: `CutEvaluator`,
`exhaustive_worst_cut` and `sampled_sparse_cut` take a `DiGraph`, its
per-edge capacities and a per-vertex volume list, read its edge lists and
return sides as its vertex indices, which the caller maps back;
`validate_hierarchy` hands them `graph.subgraph` of each component.
Small components get an exact answer from `exhaustive_worst_cut`, a
branch and bound over all 2^(k-1) proper cuts that drops every subtree
whose boundary and volume bounds already rule out a cut sparser than phi
(or than the best cut found so far); large ones only get falsification
by `sampled_sparse_cut`, which tests random cuts and then the level cuts
of breadth-first labelings in bit-sliced batches.  Its docstring states
which cuts it draws in what order and where it leaves the rng;
`_LaneTest`'s states the batch rule and the lane arithmetic.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .config import DEFAULT_CONFIG, SolverConfig, check_phi
from .errors import LevelViolationError, NotAcyclicError, ParseError
from .graph import DiGraph, scc_subgraph, subgraph
from .io import _int

# component size up to which expansion is checked exactly, by
# exhaustive_worst_cut's branch and bound over all 2^(k-1) cuts; larger
# components only get falsification by sampled cuts
EXACT_CUT_THRESHOLD = 16


@dataclass
class Hierarchy:
    """Partition (D, X_1..X_eta) of edge ids plus a respecting order tau.

    tau[v] is 1-based; levels[i] holds level i+1.
    """

    d: Set[int]
    levels: List[Set[int]]
    tau: List[int]

    @property
    def eta(self) -> int:
        return len(self.levels)

    def level_of(self, m: int) -> List[int]:
        """Per-edge level; 0 means D, missing edges get -1."""
        lv = [-1] * m
        for e in self.d:
            lv[e] = 0
        for i, xs in enumerate(self.levels):
            for e in xs:
                lv[e] = i + 1
        return lv

    def edge_count(self) -> int:
        return len(self.d) + sum(len(x) for x in self.levels)


def respecting_topo_order(g: DiGraph, d: Set[int], levels: Sequence[Set[int]],
                          rank: Optional[Sequence[int]] = None, split=None) -> List[int]:
    """Compute a respecting topological order for the partition.

    Works per level from the top: split into strongly connected
    components, order them topologically, hand each component a
    contiguous block, then recurse inside with the top level dropped.
    A part with no edges left is not split: its vertices take its block
    in ascending `rank`, or without one in reverse vertex order, as
    Tarjan's singleton components would (the exact driver's builds pass
    a rank).  A caller that already holds the top frame's split passes
    it as `split`: `scc_subgraph(g, range(g.n), every edge id in order)`,
    for a partition of every edge of g.
    Raises NotAcyclicError if D has a cycle, LevelViolationError if a
    level edge crosses components of its level graph.
    """
    n = g.n
    tau = [0] * n
    eta = len(levels)
    edge_level = {e: lv for lv, xs in enumerate([d, *levels]) for e in xs}
    next_val = 1

    # frames: (vertex list, active edge ids, level index); pushing the
    # components of a frame in reverse topological order makes the stack
    # pop them topologically, so tau values grow contiguously per block
    work = [(list(range(n)), sorted(edge_level), eta)]
    while work:
        comp_verts, comp_edges, k = work.pop()
        if not comp_edges:
            # every vertex is its own component, so any order respects the
            # partition: the caller's rank, or the reverse of the vertex
            # order in which Tarjan would list them
            free = (reversed(comp_verts) if rank is None
                    else sorted(comp_verts, key=rank.__getitem__))
            for v in free:
                tau[v] = next_val
                next_val += 1
            continue
        if split is not None:
            comps, inner, between = split
            split = None
        else:
            comps, inner, between = scc_subgraph(g, comp_verts, comp_edges)
        if k == 0:
            if any(len(c) > 1 for c in comps):
                bad = next(c for c in comps if len(c) > 1)
                raise NotAcyclicError(f"D contains a cycle through {sorted(bad)}")
            for comp in reversed(comps):
                tau[comp[0]] = next_val
                next_val += 1
            continue
        # only D edges may run between components of a level graph
        for e in between:
            if edge_level[e] >= 1:
                raise LevelViolationError(
                    f"level-{edge_level[e]} edge {e} crosses components at level {k}")
        # level-k edges inside a component are consumed at this level
        for comp, edges in zip(comps, inner):
            work.append((comp, [e for e in edges if edge_level[e] != k], k - 1))
    return tau


def induced_weights(g: DiGraph, tau: Sequence[int]) -> List[int]:
    """Per-edge weight |tau_v - tau_u|; positive whenever tau is a permutation."""
    return [abs(tau[g.heads[e]] - tau[g.tails[e]]) for e in range(g.m)]


# --- cut evaluation ----------------------------------------------------------


def terminal_volume(g: DiGraph, cap: Sequence[int], f_edges: Iterable[int]) -> List[int]:
    """vol_F per vertex: the capacity of the terminal edges F at each endpoint."""
    vol = [0] * g.n
    for e in f_edges:
        vol[g.tails[e]] += cap[e]
        vol[g.heads[e]] += cap[e]
    return vol


class CutEvaluator:
    """Boundary capacity in both directions and volume of a cut S of a
    local graph.

    `g` is any `DiGraph` (parallel and antiparallel edges allowed), `cap`
    its per-edge capacities and `vol` an arbitrary nonnegative vertex
    vector (terminal volumes in hierarchy checks, witness degrees when
    measuring a matching union).  S starts empty; `flip` moves one vertex
    across in one pass over its edges, `assign` recomputes from scratch.
    """

    __slots__ = ("g", "cap", "vol", "total_vol", "in_s", "out_cap", "in_cap", "vol_s")

    def __init__(self, g: DiGraph, cap: Sequence[int], vol: Sequence[int]):
        self.g = g
        self.cap = cap
        self.vol = vol
        self.total_vol = sum(vol)
        self.in_s = [False] * g.n
        self.out_cap = 0  # c(E(S, S-bar))
        self.in_cap = 0   # c(E(S-bar, S))
        self.vol_s = 0

    def flip(self, i: int) -> None:
        in_s, cap, g = self.in_s, self.cap, self.g
        heads, tails = g.heads, g.tails
        to_s = to_out = 0
        for e in g.out_edges[i]:
            if in_s[heads[e]]:
                to_s += cap[e]
            else:
                to_out += cap[e]
        from_s = from_out = 0
        for e in g.in_edges[i]:
            if in_s[tails[e]]:
                from_s += cap[e]
            else:
                from_out += cap[e]
        if in_s[i]:
            in_s[i] = False
            self.out_cap += from_s - to_out
            self.in_cap += to_s - from_out
            self.vol_s -= self.vol[i]
        else:
            in_s[i] = True
            self.out_cap += to_out - from_s
            self.in_cap += from_out - to_s
            self.vol_s += self.vol[i]

    def assign(self, flags: Sequence[bool]) -> None:
        in_s = self.in_s = list(flags)
        out_c = in_c = 0
        for u, v, c in zip(self.g.tails, self.g.heads, self.cap):
            if in_s[u] != in_s[v]:
                if in_s[u]:
                    out_c += c
                else:
                    in_c += c
        self.out_cap, self.in_cap = out_c, in_c
        self.vol_s = sum(x for x, s in zip(self.vol, in_s) if s)

    def side(self) -> List[int]:
        return [i for i in range(self.g.n) if self.in_s[i]]

    def sparse(self, phi: Fraction) -> bool:
        """min(out, in) < phi * min(vol(S), vol(S-bar)); False when either
        side has no volume."""
        mv = min(self.vol_s, self.total_vol - self.vol_s)
        return min(self.out_cap, self.in_cap) * phi.denominator < phi.numerator * mv


def exhaustive_worst_cut(g: DiGraph, cap: Sequence[int], vol: Sequence[int],
                         below: Optional[Fraction] = None
                         ) -> Tuple[Optional[Fraction], Optional[List[int]]]:
    """Exact sparsest cut min(c(S, S-bar), c(S-bar, S)) / min(vol(S), vol(S-bar))
    over every proper cut of (g, cap), by depth-first branch and bound.

    The last vertex stays outside S; the others are assigned, S-bar
    first, in order of decreasing weighted degree (capacity in plus out).
    Under a partial assignment the capacity between decided vertices
    bounds c(S, S-bar) and c(S-bar, S) from below, and
    min(vol(S_dec) + vol(undecided), vol(V) - vol(S_dec), vol(V) // 2)
    bounds min(vol(S), vol(S-bar)) from above.  A subtree whose bound
    ratio is not below `below`, or is above the best cut found so far, is
    dropped; one that ties the best is searched, for the tie-break.
    Ratios are compared by integer cross-multiplication and one Fraction
    is built at the end.

    Returns (ratio, side) of the minimizing cut, side as ascending vertex
    indices of g; among equal ratios, the one whose bitmask of S (bit i
    set when vertex i is in S) is smallest.  Returns (None, None) when no
    cut has positive volume on both sides.  With `below`, a cut is
    returned only if its ratio is strictly below it, and (None, None)
    otherwise.
    """
    k = g.n
    if k <= 1:
        return None, None
    total = sum(vol)
    half = total >> 1
    free = k - 1
    deg = [0] * k
    for u, v, c in zip(g.tails, g.heads, cap):
        deg[u] += c
        deg[v] += c
    order = sorted(range(free), key=lambda v: (-deg[v], v))
    pos = [0] * k
    for p, v in enumerate(order):
        pos[v] = p
    pos[free] = -1  # decided before the search starts, outside S
    # per search position p, the edges between order[p] = v and the vertices
    # decided before it, as (u, c(v, u), c(u, v)) with one side 0
    back_arcs: List[List[Tuple[int, int, int]]] = [[] for _ in range(free)]
    for u, v, c in zip(g.tails, g.heads, cap):
        if pos[u] > pos[v]:
            back_arcs[pos[u]].append((v, c, 0))
        else:
            back_arcs[pos[v]].append((u, 0, c))
    rest = [0] * (free + 1)  # volume of order[p:]
    for p in range(free - 1, -1, -1):
        rest[p] = rest[p + 1] + vol[order[p]]
    in_s = [False] * k
    # the ratio to beat: `below` until a cut is found; best_mask -1 while none
    best_num, best_den = (below.numerator, below.denominator) if below is not None else (0, 0)
    best_mask = -1

    def search(p: int, out_c: int, in_c: int, vol_s: int, mask: int) -> None:
        nonlocal best_num, best_den, best_mask
        mv = vol_s + rest[p]
        if total - vol_s < mv:
            mv = total - vol_s
        if half < mv:
            mv = half
        if mv <= 0:
            return
        lb = out_c if out_c < in_c else in_c  # every cut below has ratio >= lb / mv
        if best_den:
            diff = lb * best_den - best_num * mv
            if diff > 0 or (diff == 0 and best_mask < 0):
                return
        if p == free:  # lb / mv is this cut's own ratio
            if best_mask < 0 or diff < 0 or mask < best_mask:
                best_num, best_den, best_mask = lb, mv, mask
            return
        v = order[p]
        s_out = s_in = t_out = t_in = 0  # arcs v->S, S->v, v->S-bar, S-bar->v
        for u, c_vu, c_uv in back_arcs[p]:
            if in_s[u]:
                s_out += c_vu
                s_in += c_uv
            else:
                t_out += c_vu
                t_in += c_uv
        search(p + 1, out_c + s_in, in_c + s_out, vol_s, mask)
        in_s[v] = True
        search(p + 1, out_c + t_out, in_c + t_in, vol_s + vol[v], mask | 1 << v)
        in_s[v] = False

    search(0, 0, 0, 0, 0)
    if best_mask < 0:
        return None, None
    return Fraction(best_num, best_den), [i for i in range(k) if best_mask >> i & 1]


def sampled_sparse_cut(g: DiGraph, cap: Sequence[int], vol: Sequence[int], phi: Fraction,
                       rng: random.Random, budget: int) -> Optional[List[int]]:
    """Falsification-only search for a phi-sparse cut of (g, cap) on large
    components.

    Tries `budget` random cuts plus every level cut of breadth-first
    labelings from random sources (forward and reverse).  Returns a
    witness side as ascending vertex indices of g, or None; None proves
    nothing.

    Draw order: random cut j is the j-th call of `rng.getrandbits(32 * W)`,
    W = ceil(k / 32), and puts vertex i (0 <= i < k) in S when bit i of it
    is set, so every cut is uniform over all 2^k subsets.  Then each of
    max(2, min(k, 8)) tries draws a source with `rng.randrange(k)`, and
    level cut j of its forward, then its reverse, breadth-first labeling
    is S = layers 0..j, for every layer but the last, so S never holds the
    last layer or an unreached vertex.  The witness is the first
    phi-sparse cut in this order.

    Both phases hand `_LaneTest` batches of cuts, each the little-endian
    bitmask of S in 4 * W bytes.  The b random cuts of a batch are the
    bytes of one `getrandbits(32 * W * b)` call, which continues the word
    stream of the per-cut calls.  All sources are drawn before the first
    level cut, and level cuts are made one layer at a time as the batches
    take them.  The search stops at the first batch that holds a sparse
    cut, so the rng is left after the last batch drawn: after all random
    cuts and all sources when the witness is a level cut or there is none.
    """
    k = g.n
    if k <= 1:
        return None
    test = _LaneTest(g, cap, vol, phi)
    for stream in chain(_random_batches(test, rng, budget), _level_batches(g, test, rng)):
        j = test.first_sparse(stream)
        if j is not None:
            return test.side(stream, j)
    return None


# bytes of one lane int: a batch takes the most cuts that keep each of
# its ~k + m big-int operations within 4 KiB.  Smaller ints leave the
# interpreter's per-operation cost setting the time (1 KiB ran about a
# third slower at k = 48); larger ones gain little and add to the cuts a
# batch tests past a witness
_LANE_INT_BYTES = 4096

# 32-bit words of one batch: 64 KiB, so neither a batch's draw nor its
# bytes reach glibc's 128 KiB mmap threshold and no batch's timing
# depends on whether such blocks went back to the OS; only a batch of one
# cut larger than that (k > 524,288) goes past it
_CHUNK = 16384


def _by_value(weighted: Iterable[Tuple[Any, int]]) -> List[Tuple[int, List[Any]]]:
    """The keys of the nonzero weights, grouped by weight: (w, keys) pairs;
    empty when every weight is 0."""
    groups: Dict[int, List[Any]] = {}
    for key, w in weighted:
        if w:
            groups.setdefault(w, []).append(key)
    return list(groups.items())


def _lane_sum(sums: Iterable[Tuple[int, int]]) -> int:
    """sum of w * s over (w, s), s the lane sum of one weight-w group: one
    multiplication per group, none for weight 1."""
    return sum(s if w == 1 else w * s for w, s in sums)


class _LaneTest:
    """Tests a batch of cuts of (g, cap, vol) against phi at once, cut j in
    lane j of one int per vertex.

    A batch of b cuts comes as b * `step` bytes, step = 4 * ceil(k / 32),
    cut j at bytes step * j onwards as the little-endian bitmask of S: bit
    i & 7 of its byte i >> 3 is set when vertex i is in S.  A batch takes
    at most `batch` cuts: the most that keep one lane int within
    _LANE_INT_BYTES and the batch within _CHUNK words, and at least one.
    The bytes q, q + step, ... hold byte q of every cut.  That byte column
    goes into byte 0 of every lane of a zeroed buffer and is read as one
    int, col_q, so vertex 8 * q + t's lane int X_i is (col_q >> t) & ones,
    ones holding bit 0 of every lane: the shift moves bits of lane j + 1
    only into the top of lane j, which the mask clears.  Only byte 0 of a
    lane is ever written, so the buffer, ones and guard are made once per
    batch size.

    Lanes: X_i holds bit 8 * width * j when cut j puts vertex i in S.  With
    P = sum over edges (u, v, c) of c * (X_u & X_v), O = sum_i outcap(i) *
    X_i and I = sum_i incap(i) * X_i, every lane j of O - P, I - P and
        O + I - sum_i down(i) * X_i + sum_i up(i) * X_i
    holds cut j's c(S, S-bar), c(S-bar, S) and vol(S), where up and down
    split rest(i) = vol(i) - outcap(i) - incap(i) by sign; both are empty
    when vol is the capacity degree.  Lane j of O + I less the down sum is
    sum over i in S of min(deg(i), vol(i)) >= 0, and no partial value
    exceeds 2 * c(E) + vol(V) < 2^(8 * width), since the lane holds den *
    max(vol(V), c(E)) below its guard bit and den >= 2: no borrow or carry
    crosses a lane.  Each sum is taken by weight: sum over distinct weights
    c of c * (the sum of the X of weight c), one multiplication per
    distinct weight above 1; no inner sum leaves its lane, since it is at
    most the weighted one.  Cut j is sparse
    when c * den < num * vol(S) and c * den < num * vol(S-bar) for c one
    of its two capacities (vol(S) = 0 or vol(S-bar) = 0 fails one test,
    since c >= 0).  Each test x < y is made in every lane at once: the
    lane of G + y - 1 - x, where G is the guard bit (the top bit of every
    lane), is G + (y - x - 1) and keeps its guard bit exactly when
    x < y.  The width is the byte length of max(vol(V), total capacity) *
    max(num, den) plus one bit for the guard, so -G <= y - x - 1 < G, no
    lane leaves [0, 2G), and no carry or borrow crosses a lane.  The first
    sparse cut is the lowest guard bit left after the tests are combined.
    """

    __slots__ = ("k", "step", "pairs", "out_w", "in_w", "up", "down", "total", "num", "den",
                 "width", "batch", "sized")

    def __init__(self, g: DiGraph, cap: Sequence[int], vol: Sequence[int], phi: Fraction):
        k = self.k = g.n
        self.step = 4 * ((k + 31) >> 5)
        outcap = [0] * k
        incap = [0] * k
        pair_cap: Dict[Tuple[int, int], int] = {}  # X_u & X_v is symmetric in u, v
        for u, v, c in zip(g.tails, g.heads, cap):
            outcap[u] += c
            incap[v] += c
            key = (u, v) if u < v else (v, u)
            pair_cap[key] = pair_cap.get(key, 0) + c
        self.pairs = _by_value(pair_cap.items())
        self.out_w, self.in_w = _by_value(enumerate(outcap)), _by_value(enumerate(incap))
        rest = [x - o - i for x, o, i in zip(vol, outcap, incap)]
        self.up = _by_value((i, r) for i, r in enumerate(rest) if r > 0)
        self.down = _by_value((i, -r) for i, r in enumerate(rest) if r < 0)
        self.total = sum(vol)
        self.num, self.den = phi.numerator, phi.denominator
        self.width = ((max(self.total, sum(cap)) * max(self.num, self.den)).bit_length() + 8) // 8
        self.batch = max(1, min(_LANE_INT_BYTES // self.width, 4 * _CHUNK // self.step))
        # batch size -> (ones, guard, G - ones, G - ones + num * vol(V) * ones, buffer)
        self.sized: Dict[int, Tuple[int, int, int, int, bytearray]] = {}

    def first_sparse(self, stream: bytes) -> Optional[int]:
        """The lowest j whose cut, of the cuts in `stream`, is phi-sparse,
        or None."""
        k, width, step = self.k, self.width, self.step
        b = len(stream) // step
        sized = self.sized.get(b)
        if sized is None:
            ones = int.from_bytes((b"\x01" + bytes(width - 1)) * b, "little")
            guard = ones << (8 * width - 1)
            sized = self.sized[b] = (ones, guard, guard - ones,
                                     guard - ones + self.num * self.total * ones,
                                     bytearray(b * width))
        ones, guard, g_0, g_v, buf = sized
        xs = []
        for q in range((k + 7) >> 3):
            buf[::width] = stream[q::step]  # byte q of every cut
            col = int.from_bytes(buf, "little")
            xs += [(col >> t) & ones for t in range(min(8, k - 8 * q))]
        num, den = self.num, self.den
        cross = _lane_sum((c, sum(xs[u] & xs[v] for u, v in uvs)) for c, uvs in self.pairs)
        out_s, in_s, down, up = (_lane_sum((w, sum(xs[i] for i in keys)) for w, keys in groups)
                                 for groups in (self.out_w, self.in_w, self.down, self.up))
        c_out = (out_s - cross) * den  # c(S, S-bar) * den
        c_in = (in_s - cross) * den  # c(S-bar, S) * den
        v_s = num * (out_s + in_s - down + up)  # num * vol(S)
        g_s = g_0 + v_s  # G + num * vol(S) - 1
        g_t = g_v - v_s  # G + num * vol(S-bar) - 1
        hit = ((g_s - c_out) & (g_t - c_out) | (g_s - c_in) & (g_t - c_in)) & guard
        return ((hit & -hit).bit_length() - 1) // (8 * width) if hit else None

    def side(self, stream: bytes, j: int) -> List[int]:
        """The vertex indices of cut j of `stream`."""
        cut = int.from_bytes(stream[self.step * j:self.step * (j + 1)], "little")
        return [i for i in range(self.k) if cut >> i & 1]


def _random_batches(test: _LaneTest, rng: random.Random, budget: int) -> Iterator[bytes]:
    """`budget` random cuts in batches, each batch one `getrandbits` call."""
    for done in range(0, budget, test.batch):
        size = test.step * min(test.batch, budget - done)
        yield rng.getrandbits(8 * size).to_bytes(size, "little")


def _level_masks(adj: List[List[int]], src: int, step: int) -> Iterator[bytes]:
    """S of each level cut of the breadth-first labeling from src along
    adj, as a bitmask of `step` little-endian bytes, yielded as its layer
    closes: the layers up to each layer but the last, which no level cut
    puts in S."""
    seen = [False] * len(adj)
    seen[src] = True
    layer = [src]
    mask = bytearray(step)
    while True:
        nxt = []
        for u in layer:
            mask[u >> 3] |= 1 << (u & 7)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        if not nxt:
            return
        yield bytes(mask)
        layer = nxt


def _level_batches(g: DiGraph, test: _LaneTest, rng: random.Random) -> Iterator[bytes]:
    """The level cuts of `sampled_sparse_cut`, every source drawn first, in
    batches of the next cuts of the (source, forward then reverse, layer)
    stream; a batch may cut a labeling in two."""
    k = test.k
    srcs = [rng.randrange(k) for _ in range(max(2, min(k, 8)))]
    out_adj = [[g.heads[e] for e in es] for es in g.out_edges]
    in_adj = [[g.tails[e] for e in es] for es in g.in_edges]
    cuts = (mask for src in srcs for adj in (out_adj, in_adj)
            for mask in _level_masks(adj, src, test.step))
    while stream := b"".join(islice(cuts, test.batch)):
        yield stream


# --- validation --------------------------------------------------------------


@dataclass
class ComponentCheck:
    """One component's expansion check.  `witness` (and, for exact
    checks, the cut's `ratio`) are set only on refuted components."""

    level: int
    size: int
    exact: bool
    ok: bool
    witness: Optional[List[int]] = None
    ratio: Optional[Fraction] = None


@dataclass
class ValidationReport:
    errors: List[str] = field(default_factory=list)
    components: List[ComponentCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        """VALID or INVALID, the errors, then how many components were
        checked, proved exactly, and only sampled without a refuting cut."""
        lines = ["VALID" if self.ok else "INVALID"]
        lines += [f"error {e}" for e in self.errors]
        exact = sum(1 for c in self.components if c.exact)
        sampled = sum(1 for c in self.components if not c.exact and c.ok)
        lines.append(f"components checked {len(self.components)}: exact {exact}, "
                     f"sampled {sampled} (not refuted, not proved)")
        return "\n".join(lines)


def validate_hierarchy(g: DiGraph, cap: Sequence[int], h: Hierarchy, phi: Fraction,
                       config: SolverConfig = DEFAULT_CONFIG,
                       rng: Optional[random.Random] = None) -> ValidationReport:
    """Brute-force checks of the four structural conditions plus tau.

    Expansion is exact on components of at most EXACT_CUT_THRESHOLD
    vertices (`exhaustive_worst_cut` against phi), falsification-only above.
    D and each level graph are split over their edge ids in ascending
    order, which sets the order of the components and so of the sampled
    searches that share `rng`.
    Raises BadParamsError for phi outside (0, 1).
    """
    check_phi(phi)
    rng = rng or random.Random(0)
    rep = ValidationReport()
    m = g.m
    # (a) partition
    seen = [0] * m
    for e in h.d:
        seen[e] += 1
    for xs in h.levels:
        for e in xs:
            seen[e] += 1
    if any(c != 1 for c in seen):
        bad = [e for e in range(m) if seen[e] != 1][:5]
        rep.errors.append(f"partition broken at edges {bad}")
        return rep
    lv = h.level_of(m)
    # (b) D acyclic
    comps, _, _ = scc_subgraph(g, range(g.n), [e for e in range(m) if lv[e] == 0])
    if any(len(c) > 1 for c in comps):
        rep.errors.append("D has a cycle")
    # (c) containment and (d) expansion, level by level
    level_comps: List[List[List[int]]] = []
    for i in range(1, h.eta + 1):
        active = [e for e in range(m) if lv[e] <= i]
        comps, inner, between = scc_subgraph(g, range(g.n), active)
        level_comps.append(comps)
        for e in between:
            if lv[e] == i:
                rep.errors.append(f"level-{i} edge {e} not inside one component")
        terminals = [[e for e in edges if lv[e] == i] for edges in inner]
        vol = terminal_volume(g, cap, (e for f_here in terminals for e in f_here))
        for comp, edges, f_here in zip(comps, inner, terminals):
            if not f_here:
                continue
            sub = subgraph(g, comp, edges)
            sub_cap, sub_vol = [cap[e] for e in edges], [vol[v] for v in comp]
            exact = len(comp) <= EXACT_CUT_THRESHOLD
            if exact:
                ratio, side = exhaustive_worst_cut(sub, sub_cap, sub_vol, phi)
            else:
                ratio, side = None, sampled_sparse_cut(sub, sub_cap, sub_vol, phi, rng,
                                                       config.validator_falsifier_cuts)
            witness = None if side is None else sorted(comp[i] for i in side)
            rep.components.append(ComponentCheck(i, len(comp), exact, side is None, witness, ratio))
            if side is None:
                continue
            if exact:
                rep.errors.append(f"level-{i} component of size {len(comp)} has a "
                                  f"{ratio}-sparse cut (phi={phi})")
            else:
                rep.errors.append(f"level-{i} component of size {len(comp)} refuted "
                                  f"by sampled cut of size {len(side)}")
    _check_tau(g, h, level_comps, rep)
    return rep


def _check_tau(g: DiGraph, h: Hierarchy, level_comps: Sequence[List[List[int]]],
               rep: ValidationReport) -> None:
    """tau is a permutation, forward on D and contiguous on the components
    of every level graph (`level_comps[i - 1]` for level i)."""
    tau = h.tau
    if sorted(tau) != list(range(1, g.n + 1)):
        rep.errors.append("tau is not a permutation of 1..n")
        return
    for e in h.d:
        if tau[g.tails[e]] >= tau[g.heads[e]]:
            rep.errors.append(f"tau not forward on D edge {e}")
    for i, comps in enumerate(level_comps, start=1):
        for comp in comps:
            vals = sorted(tau[v] for v in comp)
            if vals[-1] - vals[0] + 1 != len(vals):
                rep.errors.append(f"tau not contiguous on a level-{i} component")


# --- serialization -----------------------------------------------------------


def hierarchy_to_text(h: Hierarchy, m: int) -> str:
    """One `<edge-id> <level>` line per edge (level 0 = D), then
    `t <vertex> <tau>` lines with 1-based vertices."""
    lv = h.level_of(m)
    lines = [f"{e} {lv[e]}" for e in range(m)]
    lines += [f"t {v + 1} {h.tau[v]}" for v in range(len(h.tau))]
    return "\n".join(lines) + "\n"


def hierarchy_from_text(text: str, g: DiGraph) -> Hierarchy:
    level_of: Dict[int, int] = {}
    tau = [0] * g.n
    seen_tau: Set[int] = set()
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "t":
            if len(parts) != 3:
                raise ParseError(no, "expected `t <vertex> <tau>`")
            v, t = _int(parts[1], no) - 1, _int(parts[2], no)
            if not (0 <= v < g.n):
                raise ParseError(no, f"vertex {v + 1} out of range")
            if v in seen_tau:
                raise ParseError(no, f"second `t` line for vertex {v + 1}")
            tau[v] = t
            seen_tau.add(v)
        else:
            if len(parts) != 2:
                raise ParseError(no, "expected `<edge-id> <level>`")
            e, lv = _int(parts[0], no), _int(parts[1], no)
            if not (0 <= e < g.m):
                raise ParseError(no, f"edge id {e} out of range")
            if not (0 <= lv <= g.m):
                raise ParseError(no, f"level {lv} outside 0..{g.m}")
            if e in level_of:
                raise ParseError(no, f"second line for edge id {e}")
            level_of[e] = lv
    if len(level_of) != g.m:
        raise ParseError(0, f"expected {g.m} edge lines, saw {len(level_of)}")
    if len(seen_tau) != g.n:
        raise ParseError(0, f"expected {g.n} tau lines, saw {len(seen_tau)}")
    eta = max(level_of.values(), default=0)
    by_level: List[Set[int]] = [set() for _ in range(eta + 1)]
    for e, lv in level_of.items():
        by_level[lv].add(e)
    return Hierarchy(by_level[0], by_level[1:], tau)
