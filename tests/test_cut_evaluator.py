import random
import tracemalloc
from fractions import Fraction

from hierflow import hierarchy
from hierflow.graph import DiGraph, scc_subgraph
from hierflow.hierarchy import _CHUNK, CutEvaluator, _LaneTest, sampled_sparse_cut

from helpers import (cut_sparsity, local_cut_input, per_cut_sampled_cut, random_cut_flags,
                     scc_from_closure)


def _random_multigraph(rng, k, m):
    """Arcs with repeats, so parallel and antiparallel pairs are common."""
    arcs = []
    for _ in range(m):
        u, v = rng.randrange(k), rng.randrange(k)
        if u == v:
            continue
        c = rng.randint(1, 5)
        arcs.append((u, v, c))
        r = rng.random()
        if r < 0.3:
            arcs.append((u, v, rng.randint(1, 5)))   # parallel
        elif r < 0.6:
            arcs.append((v, u, rng.randint(1, 5)))   # antiparallel
    return arcs


def _recount(arcs, vol, in_s):
    out_c = sum(c for u, v, c in arcs if in_s[u] and not in_s[v])
    in_c = sum(c for u, v, c in arcs if in_s[v] and not in_s[u])
    return out_c, in_c, sum(x for x, s in zip(vol, in_s) if s)


def test_cut_evaluator_flips_match_recomputation():
    rng = random.Random(101)
    for _ in range(150):
        k = rng.randint(2, 9)
        arcs = _random_multigraph(rng, k, rng.randint(0, 3 * k))
        vol = [rng.randint(0, 6) for _ in range(k)]
        g, cap, _vol, _back = local_cut_input(range(k), arcs, dict(enumerate(vol)))
        ev = CutEvaluator(g, cap, vol)
        fresh = CutEvaluator(g, cap, vol)
        in_s = [False] * k
        assert (ev.out_cap, ev.in_cap, ev.vol_s) == (0, 0, 0)
        assert ev.total_vol == sum(vol)
        for _ in range(40):
            i = rng.randrange(k)
            ev.flip(i)  # a repeated vertex flips back out
            in_s[i] = not in_s[i]
            want = _recount(arcs, vol, in_s)
            assert (ev.out_cap, ev.in_cap, ev.vol_s) == want
            assert ev.side() == [j for j in range(k) if in_s[j]]
            fresh.assign(in_s)
            assert (fresh.out_cap, fresh.in_cap, fresh.vol_s) == want
            phi = Fraction(rng.randint(1, 4), rng.randint(4, 16))
            mv = min(want[2], sum(vol) - want[2])
            expect = mv > 0 and Fraction(min(want[0], want[1]), mv) < phi
            assert ev.sparse(phi) == expect


def _planted(rng, k):
    """Two dense blocks joined by a few light arcs, relabelled and shuffled."""
    half = rng.randint(k // 3, k - k // 3)
    blocks = [list(range(half)), list(range(half, k))]
    edges = []
    for block in blocks:
        for u in block:
            for v in block:
                if u != v and rng.random() < 0.6:
                    edges.append((u, v, rng.randint(1, 3)))
    for _ in range(rng.randint(1, 3)):
        edges.append((rng.choice(blocks[0]), rng.choice(blocks[1]), 1))
        edges.append((rng.choice(blocks[1]), rng.choice(blocks[0]), 1))
    names = rng.sample(range(100, 100 + 3 * k), k)
    edges = [(names[u], names[v], c) for u, v, c in edges]
    verts = list(names)
    rng.shuffle(verts)
    return verts, edges


def test_sampled_witnesses_are_sparse_by_recount():
    rng = random.Random(202)
    found = 0
    for _ in range(40):
        k = rng.randint(17, 26)
        verts, edges = _planted(rng, k)
        volw = {v: 0 for v in verts}
        for u, v, c in edges:
            if rng.random() < 0.7:  # a random terminal subset carries volume
                volw[u] += c
                volw[v] += c
        phi = Fraction(1, rng.choice([2, 4, 8, 16]))
        g, cap, vol, back = local_cut_input(verts, edges, volw)
        side = back(sampled_sparse_cut(g, cap, vol, phi, random.Random(rng.getrandbits(32)),
                                       rng.choice([0, 20, 200])))
        if side is None:
            continue
        found += 1
        sset = set(side)
        assert len(sset) == len(side) and sset < set(verts) and sset
        ratio = cut_sparsity(sset, edges, volw)
        assert ratio is not None and ratio < phi
    assert found >= 10


class _CountingRandom(random.Random):
    """Counts the reference's per-cut draws before its witness: its
    `getrandbits` calls of 32 bits or more (`randrange(k)` for a BFS
    source asks for k.bit_length() < 32 bits)."""

    draws = 0

    def getrandbits(self, k):
        self.draws += k >= 32
        return super().getrandbits(k)


_PHIS = [Fraction(1, 16), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)]


def _lanes_per_batch(k, edges, volw, phi):
    """Cuts in a full batch of the sampled search on this input, as
    `_LaneTest` sizes it for both phases."""
    g, cap, vol, _back = local_cut_input(range(k), edges, volw)
    return _LaneTest(g, cap, vol, phi).batch


def _budgets(b):
    """Budgets around the first batch boundaries, for b cuts per batch."""
    return [0, 1, b - 1, b, b + 1, 3 * b + 7]


def _same_as_reference(verts, edges, volw, phi, seed, budget):
    """Run both searches from one seed; assert the same witness, and the
    same end state when there is none; return the reference's (witness,
    per-cut draws)."""
    mine, ref = random.Random(seed), _CountingRandom(seed)
    g, cap, vol, back = local_cut_input(verts, edges, volw)
    side = back(sampled_sparse_cut(g, cap, vol, phi, mine, budget))
    want = back(per_cut_sampled_cut(g, cap, vol, phi, ref, budget))
    assert side == want
    if side is None:
        assert mine.getstate() == ref.getstate()
    return want, ref.draws


def _drawn(seed, k, cuts, sources):
    """The state of `Random(seed)` after drawing `cuts` random cuts of k
    vertices, then `sources` breadth-first sources."""
    rng = random.Random(seed)
    for _ in range(cuts):
        random_cut_flags(rng, k)
    for _ in range(sources):
        rng.randrange(k)
    return rng.getstate()


# k at and around the 32-bit word boundaries of a cut's draw
_WORD_EDGES = [31, 32, 33, 64, 65]


def test_sampled_sparse_cut_matches_per_cut_reference():
    """Random inputs with capacities and volumes from 0 to 2^200, so lanes
    of 1 to 27 bytes and batches of 4,096 down to about 150 cuts; budgets
    sit around each input's own batch boundaries."""
    rng = random.Random(404)
    lanes = set()
    batches = set()
    for case in range(240 + 4 * len(_WORD_EDGES)):
        k = rng.randint(2, 30) if case < 240 else _WORD_EDGES[case % len(_WORD_EDGES)]
        big = rng.choice([5, 5, 10 ** 6, 10 ** 30, 2 ** 200])
        edges = []
        for _ in range(rng.randint(0, 4 * k)):
            u, v = rng.randrange(k), rng.randrange(k)  # self-loops too
            edges += [(u, v, rng.randint(0, big))] * rng.choice([1, 1, 2])
            if rng.random() < 0.3:
                edges.append((v, u, rng.randint(0, big)))
        shape = case % 4
        if shape == 0:
            volw = {v: 0 for v in range(k)}  # no volume anywhere
        else:  # zero, missing and up-to-`big` volumes
            volw = {v: rng.choice([0, 1, rng.randint(0, big)])
                    for v in range(k) if rng.random() < 0.9}
        phi = _PHIS[case // 6 % len(_PHIS)]
        b = _lanes_per_batch(k, edges, volw, phi)
        batches.add(b)
        budget = _budgets(b)[case % 6]
        side, draws = _same_as_reference(list(range(k)), edges, volw, phi,
                                         rng.getrandbits(32), budget)
        if side is not None and draws < budget:
            lanes.add((draws - 1) % b)
    assert 0 in lanes and len(lanes) > 3  # hits in the first lane and beyond it
    assert {4096, 2048} <= batches and min(batches) < 200  # short batches too


def _planted_seed(k, target):
    """The first seed whose target-th random cut of k vertices is proper
    and, up to complement, not among the cuts drawn before it."""
    seed = 0
    while True:
        r = random.Random(seed)
        cuts = [tuple(random_cut_flags(r, k)) for _ in range(target + 1)]
        plant = cuts[target]
        flipped = tuple(not x for x in plant)
        if 0 < sum(plant) < k and plant not in cuts[:target] and flipped not in cuts[:target]:
            return seed, plant
        seed += 1


def _one_way_cut(plant, heavy):
    """Arcs of capacity `heavy` both ways inside each side of `plant`, one
    way (S to S-bar) across it: `plant` is the one sparse cut.  On 18
    vertices the total capacity is 225 to 289 heavy whatever the plant,
    so for heavy = 2^96 or 2^200 the lane width, and with it the batch,
    is the same for every plant."""
    k = len(plant)
    return [(u, v, heavy) for u in range(k) for v in range(k)
            if u != v and (plant[u] == plant[v] or plant[u])]


def _batch_of_plants(k, make_edges, volw, phi):
    """Cuts per batch of the planted inputs `make_edges(plant)` on k
    vertices, read from the plant of the first cut."""
    return _lanes_per_batch(k, make_edges(_planted_seed(k, 0)[1]), volw, phi)


def test_sampled_sparse_cut_planted_hit_in_every_lane_position():
    """The target-th random cut is made the one sparse cut, in the first
    lanes, the middle and the last lane of a batch and the first of the
    next, at lanes of 14 bytes (292 cuts per batch) and of 27 (151)."""
    k = 18
    volw = {v: 1 for v in range(k)}
    for heavy in (2 ** 96, 2 ** 200):
        for phi in (Fraction(1, 16), Fraction(9, 10)):
            b = _batch_of_plants(k, lambda p: _one_way_cut(p, heavy), volw, phi)
            for target in [0, 1, b // 2, b - 1, b, 2 * b - 1, 3 * b + 6]:
                seed, plant = _planted_seed(k, target)
                edges = _one_way_cut(plant, heavy)
                assert _lanes_per_batch(k, edges, volw, phi) == b
                for budget in (target + 1, 3 * b + 7):
                    side, draws = _same_as_reference(list(range(k)), edges, volw, phi,
                                                     seed, budget)
                    assert draws == target + 1
                    assert side == [v for v in range(k) if plant[v]]


# phi far wider than the capacities: it, not they, sets the lane width
_WIDE_PHIS = [Fraction(1, 10 ** 20), Fraction(10 ** 20 - 1, 10 ** 20)]


def test_sampled_sparse_cut_matches_per_cut_reference_at_wide_phi():
    rng = random.Random(505)
    found = 0
    for case in range(96):
        k = rng.randint(2, 24)
        edges = [(rng.randrange(k), rng.randrange(k), rng.randint(0, 5))
                 for _ in range(rng.randint(0, 3 * k))]
        volw = {v: rng.randint(0, 5) for v in range(k)}
        phi = _WIDE_PHIS[case // 6 % len(_WIDE_PHIS)]
        budget = _budgets(_lanes_per_batch(k, edges, volw, phi))[case % 6]
        side, draws = _same_as_reference(list(range(k)), edges, volw, phi,
                                         rng.getrandbits(32), budget)
        found += side is not None and draws < budget
    assert found >= 10


def test_sampled_sparse_cut_cut_capacity_filling_its_lane():
    """One arc carries almost all the capacity, so a cut across it takes
    nearly the whole signed range of its lane: max(vol(V), total capacity)
    * max(num, den) is 97 % of 2^bits, for every bits from 72 to 103.
    Light arcs both ways between every pair leave no sparse cut, so any
    witness is a lane read wrongly."""
    k = 6
    light = [(u, v, 1) for u in range(k) for v in range(k) if u != v]
    volw = {v: 1 for v in range(k)}
    for phi in _WIDE_PHIS:
        for bits in range(72, 104):
            heavy = 2 ** bits * 97 // 100 // phi.denominator - len(light)
            edges = light + [(0, 1, heavy)]
            side, _draws = _same_as_reference(list(range(k)), edges, volw, phi, bits,
                                              2 * _lanes_per_batch(k, edges, volw, phi))
            assert side is None


def test_sampled_sparse_cut_is_strict_at_ratio_phi():
    """The target-th random cut S gets c(S-bar, S) / min(vol(S), vol(S-bar))
    equal to phi, every other cut a ratio far above it: no witness, since
    sparse means ratio < phi.  One unit of capacity less makes S the
    witness, found in its own lane: the first, the batch's last, or one
    of the next batch."""
    k = 18
    heavy = 2 ** 96
    for phi in _WIDE_PHIS + [Fraction(1, 16)]:
        volw = {v: phi.denominator for v in range(k)}
        b = _batch_of_plants(k, lambda p: _one_way_cut(p, heavy), volw, phi)
        for target in [0, b - 1, b + 5]:
            seed, plant = _planted_seed(k, target)
            s = min(sum(plant), k - sum(plant))
            inside = _one_way_cut(plant, heavy)
            back = (plant.index(False), plant.index(True))  # the one S-bar -> S arc
            for c in (phi.numerator * s, phi.numerator * s - 1):
                edges = inside + [back + (c,)]
                assert _lanes_per_batch(k, edges, volw, phi) == b
                for budget in (target + 1, 3 * b + 7):
                    side, draws = _same_as_reference(list(range(k)), edges, volw, phi,
                                                     seed, budget)
                    if c == phi.numerator * s:
                        assert side is None
                    else:
                        assert draws == target + 1
                        assert side == [v for v in range(k) if plant[v]]


def _two_heavy_cycles(plant, heavy):
    """A heavy bidirected cycle through each side of `plant` and one light
    arc from S to S-bar: every random cut but `plant` and its complement
    cuts a cycle both ways, so only they can be sparse."""
    edges = []
    for flag in (True, False):
        side = [v for v, x in enumerate(plant) if x == flag]
        if len(side) > 1:
            for u, v in zip(side, side[1:] + side[:1]):
                edges += [(u, v, heavy), (v, u, heavy)]
    edges.append((plant.index(True), plant.index(False), 1))
    return edges


def test_sampled_sparse_cut_chunked_draws_match_per_cut_reference(monkeypatch):
    """_CHUNK is lowered at k = 200 (7 words per cut).  At 45 words it,
    not the lane-int size, sets the batch at 6 cuts; budgets end inside a
    batch, on its boundary and past it, and the one sparse cut is planted
    on both sides of batch boundaries.  At 3 words one cut outgrows
    _CHUNK, so each batch is one cut.  The witness is that of one
    `getrandbits(32 * 7)` per cut either way, and so is the rng state
    where no cut is sparse."""
    k, words = 200, 7
    volw = {v: 1 for v in range(k)}
    phi = Fraction(1, 16)
    # one heavy bidirected cycle through all k: no cut is sparse
    no_cut = [(u, (u + 1) % k, 10 ** 6) for u in range(k)]
    no_cut += [(v, u, c) for u, v, c in no_cut]
    for chunk, b in ((45, 45 // words), (3, 1)):
        monkeypatch.setattr(hierarchy, "_CHUNK", chunk)
        assert _lanes_per_batch(k, no_cut, volw, phi) == b
        for budget in (1, b, b + 1, 2 * b + 1, 3 * b + 7):
            side, draws = _same_as_reference(list(range(k)), no_cut, volw, phi,
                                             budget, budget)
            assert side is None and draws == budget
        for target in (b - 1, b, 2 * b - 1, 2 * b + 3):
            seed, plant = _planted_seed(k, target)
            edges = _two_heavy_cycles(plant, 10 ** 6)
            assert _lanes_per_batch(k, edges, volw, phi) == b
            for budget in (target + 1, target + 2, 3 * b + 7):
                side, draws = _same_as_reference(list(range(k)), edges, volw, phi,
                                                 seed, budget)
                assert draws == target + 1
                assert side == [v for v in range(k) if plant[v]]


def test_sampled_sparse_cut_spans_two_chunks_above_1024_vertices():
    """k = 1,025 takes 33 words per cut, so at the real _CHUNK its cap,
    not the lane-int size, sets the batch at 496 cuts, and the first two
    batches take one `getrandbits` call each; the sparse cut planted as
    the first batch's last cut or the second's first is the witness."""
    k, words = 1025, 33
    b = _CHUNK // words
    volw = {v: 1 for v in range(k)}
    for target in (b - 1, b):
        seed, plant = _planted_seed(k, target)
        edges = _two_heavy_cycles(plant, 10 ** 6)
        assert _lanes_per_batch(k, edges, volw, Fraction(1, 16)) == b
        side, draws = _same_as_reference(list(range(k)), edges, volw, Fraction(1, 16),
                                         seed, b + 1)
        assert draws == target + 1
        assert side == [v for v in range(k) if plant[v]]


def test_sampled_sparse_cut_planted_hit_at_word_boundaries():
    """Cuts of 31 to 65 vertices take one to three words; the planted cut,
    in the first lane, a later one, the batch's last and the next batch's,
    is read bit for bit on both sides of each word boundary."""
    phi = Fraction(1, 16)
    for k in _WORD_EDGES:
        volw = {v: 1 for v in range(k)}
        b = _batch_of_plants(k, lambda p: _two_heavy_cycles(p, 10 ** 6), volw, phi)
        for target in (0, 7, b - 1, b + 2):
            seed, plant = _planted_seed(k, target)
            edges = _two_heavy_cycles(plant, 10 ** 6)
            assert _lanes_per_batch(k, edges, volw, phi) == b
            side, draws = _same_as_reference(list(range(k)), edges, volw, phi, seed,
                                             2 * b + 1)
            assert draws == target + 1
            assert side == [v for v in range(k) if plant[v]]


def test_sampled_cuts_give_each_vertex_its_own_fair_coin():
    """Checked without the reference: with no edges and unit volumes every
    proper cut is sparse, so budget 1 returns the next random cut.  Over
    3,000 cuts of k = 40 vertices each vertex is in S 40-60 % of the time,
    and no two vertices get the same flag sequence."""
    k, cuts = 40, 3000
    g, cap, vol, _back = local_cut_input(range(k), [], {v: 1 for v in range(k)})
    rng = random.Random(606)
    sides = [set(sampled_sparse_cut(g, cap, vol, Fraction(1, 2), rng, 1)) for _ in range(cuts)]
    flags = [tuple(v in side for side in sides) for v in range(k)]
    assert all(0.4 * cuts <= sum(f) <= 0.6 * cuts for f in flags)
    assert len(set(flags)) == k


def _two_segments(sizes, p, heavy, mirror=False):
    """Layers V_0 = {0}, V_1, ... of the given sizes (labels in layer order)
    split into A = V_0..V_p and B = V_p+1.., plus a vertex u = k - 1 with one
    heavy arc into V_p+1 and nothing into it.  Inside each segment heavy
    arcs (each doubled, so parallel) run both ways between consecutive
    layers, and around B's layer when B has one; from every vertex of V_p
    to every vertex of V_p+1 run two parallel arcs, of capacity 0 and 1,
    and nothing runs back.  So vertex 0's breadth-first layers along the
    arcs are V_0, V_1, ... and A is its level cut p, with no arc into it:
    with volume on both sides, A is sparse and every cut that splits a
    segment crosses heavy arcs both ways.  Against the arcs, vertex 0
    reaches A alone, and u is reached from 0 in neither direction.  With A
    and B of at most two layers each (and the last of two at least two
    vertices wide) no other source has A or B, or a set with u that is
    sparse, among its level cuts.  `mirror` turns every arc around, which
    moves A to vertex 0's reverse labeling."""
    layers, k = [], 0
    for size in sizes:
        layers.append(list(range(k, k + size)))
        k += size
    u = k
    edges = []
    for i in range(len(layers) - 1):
        for a in layers[i]:
            for b in layers[i + 1]:
                if i == p:
                    edges += [(a, b, 0), (a, b, 1)]
                else:
                    edges += [(a, b, heavy), (b, a, heavy)] * 2
    if len(layers) == p + 2 and len(layers[-1]) > 1:  # B is one layer
        ring = layers[-1]
        edges += [(a, b, heavy) for a, b in zip(ring, ring[1:] + ring[:1])]
        edges += [(b, a, heavy) for a, b in zip(ring, ring[1:] + ring[:1])]
    edges.append((u, layers[p + 1][0], heavy))
    if mirror:
        edges = [(b, a, c) for a, b, c in edges]
    return k + 1, edges, [v for layer in layers[:p + 1] for v in layer]


def _source_seed(k, src, t):
    """The first seed whose first t + 1 draws of `randrange(k)` are src
    only at draw t: vertex src is first a source at try t."""
    seed = 0
    while True:
        r = random.Random(seed)
        draws = [r.randrange(k) for _ in range(t + 1)]
        if draws[t] == src and src not in draws[:t]:
            return seed
        seed += 1


def _level_witness(k, edges, volw, phi, seed):
    """Both searches at budget 0 from one seed: assert the same witness,
    and that the search leaves the rng after all its sources; return the
    witness and how many sources the reference drew up to it."""
    mine, ref = random.Random(seed), random.Random(seed)
    g, cap, vol, _back = local_cut_input(range(k), edges, volw)
    side = sampled_sparse_cut(g, cap, vol, phi, mine, 0)
    assert side == per_cut_sampled_cut(g, cap, vol, phi, ref, 0)
    assert mine.getstate() == _drawn(seed, k, 0, max(2, min(k, 8)))
    for drawn in range(9):
        if _drawn(seed, k, 0, drawn) == ref.getstate():
            return side, drawn
    raise AssertionError("more than 8 sources drawn")


def test_level_cuts_planted_in_first_and_last_try_both_directions_and_layers():
    """Budget 0, so only level cuts are tested.  The one sparse cut A
    (and its complement) is vertex 0's level cut p: the first tested
    layer (p = 0), the last (p = 1 of three layers) or a middle one, in
    its forward or (mirrored) reverse labeling, with vertex 0 first drawn
    at the first try, the second or the last (of 4 to 8).  Volumes are 0
    on some vertices and on u, capacity-0 arcs cross A's boundary, and u
    is never in S."""
    shapes = [((1, 3, 2), 0), ((1, 2, 3), 1), ((1, 3, 3), 0), ((1, 4, 2, 2), 1), ((1, 2), 0)]
    for sizes, p in shapes:
        for mirror in (False, True):
            k, edges, a_side = _two_segments(sizes, p, 1000, mirror)
            tries = max(2, min(k, 8))
            volw = {v: v % 3 for v in range(k - 1)}  # vertex 0 and u without volume
            volw[0] = 1 if p == 0 else 0
            for phi in (Fraction(1, 16), Fraction(1, 2)):
                for t in (0, 1, tries - 1):
                    side, drawn = _level_witness(k, edges, volw, phi, _source_seed(k, 0, t))
                    assert side == a_side and drawn == t + 1


def _three_blocks():
    """Heavy cliques A (holding vertex 0), B, C, D and E, each of three
    vertices, and light arcs 0 -> B, C -> 0, B -> D and E -> C, from and to
    other vertices than those next to 0.  Vertex 0's level cut 2 is A + B
    along the arcs and A + C against them, and both are sparse: a source
    at 0 must give A + B, its forward labeling's."""
    blocks = [list(range(3 * i, 3 * i + 3)) for i in range(5)]
    a, b, c, d, e = blocks
    edges = [(x, y, 1000) for blk in blocks for x in blk for y in blk if x != y]
    edges += [(0, b[0], 1), (c[0], 0, 1), (b[1], d[0], 1), (e[0], c[1], 1)]
    return 15, edges, sorted(a + b), sorted(a + c)


def test_level_cuts_forward_labeling_before_reverse():
    k, edges, ab, ac = _three_blocks()
    volw = {v: 10 for v in range(k)}
    side, drawn = _level_witness(k, edges, volw, Fraction(1, 16), _source_seed(k, 0, 0))
    assert side == ab and drawn == 1
    mirrored = [(y, x, c) for x, y, c in edges]
    side, drawn = _level_witness(k, mirrored, volw, Fraction(1, 16), _source_seed(k, 0, 0))
    assert side == ac and drawn == 1


def test_level_cuts_of_a_deep_labeling_span_several_batches():
    """Capacities of 2^3000 make lanes of 377 bytes, so a batch takes 10
    level cuts, and vertex 0's path-like labeling of 40 layers takes
    several: the sparse cut planted at the last lane of a batch, the first
    of the next, or deep inside, forward or reverse, with vertex 0 drawn
    at the first try, is found there and nowhere earlier."""
    heavy = 2 ** 3000
    depth = 40
    for p in (9, 10, 26):
        for mirror in (False, True):
            sizes = [1] + [1 + i % 2 for i in range(1, depth)]
            k, edges, a_side = _two_segments(sizes, p, heavy, mirror)
            volw = {v: 1 for v in range(k - 1)}
            phi = Fraction(1, 16)
            assert _lanes_per_batch(k, edges, volw, phi) == 10
            side, drawn = _level_witness(k, edges, volw, phi, _source_seed(k, 0, 0))
            assert side == a_side and drawn == 1



def test_level_cuts_in_batches_bounded_by_chunk(monkeypatch):
    """_CHUNK is lowered at k = 151 (5 words per cut), so it, not the
    lane-int size, sets the level cuts' batch as it sets the random
    cuts': 6 cuts at 33 words, and 1 at 4 words, where one cut outgrows
    it.  The sparse cut is vertex 0's forward level cut p, the p-th cut
    tested, planted on both sides of batch boundaries, and every batch
    tested up to it is full."""
    depth = 100
    sizes = [1] + [1 + i % 2 for i in range(1, depth)]
    phi = Fraction(1, 16)
    tested = []
    real = _LaneTest.first_sparse

    def first_sparse(self, stream):
        tested.append(len(stream) // self.step)
        return real(self, stream)

    monkeypatch.setattr(_LaneTest, "first_sparse", first_sparse)
    for chunk, b in ((33, 33 // 5), (4, 1)):
        monkeypatch.setattr(hierarchy, "_CHUNK", chunk)
        for p in (b - 1, b, 2 * b - 1, 2 * b + 3):
            k, edges, a_side = _two_segments(sizes, p, 1000)
            assert k == 151
            volw = {v: 1 for v in range(k - 1)}
            assert _lanes_per_batch(k, edges, volw, phi) == b
            tested.clear()
            side, drawn = _level_witness(k, edges, volw, phi, _source_seed(k, 0, 0))
            assert side == a_side and drawn == 1
            assert tested == [b] * (p // b + 1)


def test_level_cuts_of_a_long_cycle_take_memory_of_one_batch():
    """A directed cycle of 6,000 vertices at budget 0: every labeling is a
    path of 6,000 layers, and the witness is level cut 16 of the first.
    Kept as k-bit ints, all level cuts of all 16 labelings would peak
    above 80 MB here; the search makes them as the batches take them, so
    its traced peak (about 2.3 MB) stays within 6 MB, and the witness is
    the per-cut reference's."""
    k = 6000
    g, cap, vol, _back = local_cut_input(range(k), [(u, (u + 1) % k, 1) for u in range(k)],
                                         {v: 2 for v in range(k)})
    phi = Fraction(1, 32)
    mine, ref = random.Random(1), random.Random(1)
    tracemalloc.start()
    try:
        side = sampled_sparse_cut(g, cap, vol, phi, mine, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert side == per_cut_sampled_cut(g, cap, vol, phi, ref, 0)
    assert mine.getstate() == _drawn(1, k, 0, 8)
    assert len(side) == 17
    assert peak < 6 * 2 ** 20, peak


def test_sampled_sparse_cut_leaves_the_rng_after_the_last_batch_drawn():
    """A witness ends the search with the batch that holds it.  Planted as
    a random cut of the second batch, it leaves the rng after both
    batches (or the budget), not after the witness.  On a 200-vertex
    cycle the random cuts drawn are not sparse, and the witness is level
    cut 16 of the first labeling: the rng is left after every random cut
    and every source, not after the first source."""
    k, heavy, phi = 18, 2 ** 96, Fraction(1, 16)
    volw = {v: 1 for v in range(k)}
    b = _batch_of_plants(k, lambda p: _one_way_cut(p, heavy), volw, phi)
    for target, budget, cuts in ((b, 3 * b + 7, 2 * b), (b + 5, b + 7, b + 7),
                                 (2 * b - 1, 2 * b + 1, 2 * b)):
        seed, plant = _planted_seed(k, target)
        g, cap, vol, _back = local_cut_input(range(k), _one_way_cut(plant, heavy), volw)
        assert _LaneTest(g, cap, vol, phi).batch == b
        rng = random.Random(seed)
        assert sampled_sparse_cut(g, cap, vol, phi, rng, budget) == [
            v for v in range(k) if plant[v]]
        assert rng.getstate() == _drawn(seed, k, cuts, 0)
    k = 200
    g, cap, vol, _back = local_cut_input(range(k), [(u, (u + 1) % k, 1) for u in range(k)],
                                         {v: 2 for v in range(k)})
    phi = Fraction(1, 32)
    b = _LaneTest(g, cap, vol, phi).batch
    for seed in (1, 2):
        for budget in (0, 1, b + 3):
            rng, ref = random.Random(seed), random.Random(seed)
            side = sampled_sparse_cut(g, cap, vol, phi, rng, budget)
            assert side == per_cut_sampled_cut(g, cap, vol, phi, ref, budget)
            assert len(side) == 17 and ref.getstate() == _drawn(seed, k, budget, 1)
            assert rng.getstate() == _drawn(seed, k, budget, 8)


def _out_regular(rng, k, d, caps):
    """Every vertex gets d distinct random out-neighbours, each arc a
    capacity drawn from `caps`: the shape of `hierflow hierarchy`'s random
    inputs."""
    return [(u, v, rng.choice(caps)) for u in range(k)
            for v in rng.sample([x for x in range(k) if x != u], d)]


def _degree_volume(terminals, extra):
    """vol_F of the terminal edges, plus `extra` volume per vertex."""
    volw = dict(extra)
    for u, v, c in terminals:
        volw[u] = volw.get(u, 0) + c
        volw[v] = volw.get(v, 0) + c
    return volw


def _witness_and_end_state(k, edges, volw, phi, seed, budget):
    """Both searches from one seed: assert the same witness, and that the
    rng is left after the batch that holds it, or after every random cut
    and every source when it is a level cut or there is none; return the
    witness."""
    g, cap, vol, _back = local_cut_input(range(k), edges, volw)
    mine, ref = random.Random(seed), _CountingRandom(seed)
    side = sampled_sparse_cut(g, cap, vol, phi, mine, budget)
    assert side == per_cut_sampled_cut(g, cap, vol, phi, ref, budget)
    b = _LaneTest(g, cap, vol, phi).batch
    if side is not None and ref.getstate() == _drawn(seed, k, ref.draws, 0):  # a random cut
        assert mine.getstate() == _drawn(seed, k, min(budget, -(-ref.draws // b) * b), 0)
    else:
        assert mine.getstate() == _drawn(seed, k, budget, max(2, min(k, 8)))
    return side


def test_lane_volume_from_capacity_sums_and_signed_rest():
    """The lane test reads vol(S) off its boundary sums plus the signed
    rest vol - deg.  A level-1 input as `hierflow hierarchy` checks it (a
    random 4-out digraph, unit capacities, vol the terminal degree) has no
    rest; terminals on part of the edges, as at level 2, leave vol below
    the degree (`down`); volume on top of the degree leaves it above
    (`up`).  Each kind, with and without a witness, gives the per-cut
    reference's witness and rng end state."""
    rng = random.Random(707)
    k = 48
    seen = set()
    for case in range(24):
        kind = case % 3
        edges = _out_regular(rng, k, 4, [1, 1, 1, 3] if kind else [1])
        terminals = [e for e in edges if kind != 1 or rng.random() < 0.6]
        extra = {v: rng.randint(0, 3) for v in range(k)} if kind == 2 else {}
        volw = _degree_volume(terminals, extra)
        phi = _PHIS[case // 3 % 3]
        g, cap, vol, _back = local_cut_input(range(k), edges, volw)
        test = _LaneTest(g, cap, vol, phi)
        assert (bool(test.down), bool(test.up)) == (kind == 1, kind == 2)
        budget = _budgets(test.batch)[case % 5]
        side = _witness_and_end_state(k, edges, volw, phi, rng.getrandbits(32), budget)
        seen.add((kind, side is None))
    assert len(seen) == 6


def test_sampled_sparse_cut_matches_per_cut_reference_at_200_vertices():
    """Components far wider than the word-boundary tests' 65 vertices:
    k = 200 (seven words per cut), a random 4-out digraph at unit
    capacities with vol the degree, and at mixed ones up to 2^40 with vol
    that of some terminals plus extra, phi 1/16 and 1/2.  The budget of
    one batch plus one cut ends the random phase in a batch of one cut,
    which is then planted as the one sparse cut."""
    k = 200
    rng = random.Random(808)
    for caps in ([1], [1, 7, 10 ** 6, 2 ** 40]):
        edges = _out_regular(rng, k, 4, caps)
        mixed = len(caps) > 1
        terminals = [e for e in edges if not mixed or rng.random() < 0.7]
        extra = {v: rng.choice([0, 2 ** 39]) for v in range(k)} if mixed else {}
        volw = _degree_volume(terminals, extra)
        for phi in (Fraction(1, 16), Fraction(1, 2)):
            budget = _lanes_per_batch(k, edges, volw, phi) + 1
            _witness_and_end_state(k, edges, volw, phi, rng.getrandbits(32), budget)
    volw = {v: 1 for v in range(k)}
    phi = Fraction(1, 16)
    b = _batch_of_plants(k, lambda p: _two_heavy_cycles(p, 10 ** 6), volw, phi)
    seed, plant = _planted_seed(k, b)
    edges = _two_heavy_cycles(plant, 10 ** 6)
    assert _lanes_per_batch(k, edges, volw, phi) == b
    side = _witness_and_end_state(k, edges, volw, phi, seed, b + 1)
    assert side == [v for v in range(k) if plant[v]]


def test_scc_subgraph_ignores_arcs_leaving_the_vertex_set():
    rng = random.Random(303)
    for _ in range(300):
        n = rng.randint(1, 10)
        verts = rng.sample(range(n + 5), n)  # shuffled, and ids need not be 0..n-1
        pool = verts + [n + 5 + i for i in range(3)]  # ids outside the set
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 25))]
        pairs = [(u, v) for u, v in pairs if u != v]
        # parallel and antiparallel copies of some edges
        pairs += [rng.choice([(u, v), (v, u)]) for u, v in rng.sample(pairs, len(pairs) // 3)]
        g = DiGraph(n + 8, pairs)
        edge_ids = rng.sample(range(g.m), rng.randint(0, g.m))  # a subset, shuffled
        comps, inner, between = scc_subgraph(g, verts, edge_ids)
        index = {v: i for i, v in enumerate(verts)}
        inside = [e for e in edge_ids if g.tails[e] in index and g.heads[e] in index]
        want = {frozenset(verts[i] for i in c) for c in scc_from_closure(
            n, [(index[g.tails[e]], index[g.heads[e]]) for e in inside])}
        assert {frozenset(c) for c in comps} == want
        assert sorted(v for c in comps for v in c) == sorted(verts)
        pos = {v: i for i, c in enumerate(comps) for v in c}
        for e in inside:
            u, v = g.tails[e], g.heads[e]
            if pos[u] != pos[v]:
                assert pos[v] < pos[u]  # reverse topological order
        # inner and between edges, in edge_ids order, against the oracle
        oracle = {v: c for c in want for v in c}
        assert inner == [[e for e in inside if oracle[g.tails[e]] == oracle[g.heads[e]]
                          and g.tails[e] in c] for c in comps]
        assert between == [e for e in inside if oracle[g.tails[e]] != oracle[g.heads[e]]]