import random
from fractions import Fraction

from hierflow.graph import scc_subgraph
from hierflow.hierarchy import CutEvaluator, sampled_sparse_cut

from helpers import cut_sparsity, scc_from_closure


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
        ev = CutEvaluator(k, arcs, vol)
        fresh = CutEvaluator(k, arcs, vol)
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
        side = sampled_sparse_cut(verts, edges, volw, phi, random.Random(rng.getrandbits(32)),
                                  rng.choice([0, 20, 200]))
        if side is None:
            continue
        found += 1
        sset = set(side)
        assert len(sset) == len(side) and sset < set(verts) and sset
        ratio = cut_sparsity(sset, edges, volw)
        assert ratio is not None and ratio < phi
    assert found >= 10


def test_scc_subgraph_ignores_arcs_leaving_the_vertex_set():
    rng = random.Random(303)
    for _ in range(300):
        n = rng.randint(1, 10)
        verts = rng.sample(range(n + 5), n)  # vertex ids need not be 0..n-1
        pool = verts + [n + 5 + i for i in range(3)]  # ids outside the set
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 25))]
        comps = scc_subgraph(verts, pairs)
        index = {v: i for i, v in enumerate(verts)}
        inside = [(index[u], index[v]) for u, v in pairs if u in index and v in index]
        want = {frozenset(verts[i] for i in c) for c in scc_from_closure(n, inside)}
        assert {frozenset(c) for c in comps} == want
        assert sorted(v for c in comps for v in c) == sorted(verts)
        pos = {v: i for i, c in enumerate(comps) for v in c}
        for u, v in pairs:
            if u in pos and v in pos and pos[u] != pos[v]:
                assert pos[v] < pos[u]  # reverse topological order
