import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierflow import hierarchy
from hierflow.config import DEFAULT_CONFIG
from hierflow.errors import (BadParamsError, InvalidHierarchyError, LevelViolationError,
                             NotAcyclicError, ParseError)
from hierflow.graph import DiGraph, build_graph
from hierflow.hierarchy import (Hierarchy, exhaustive_worst_cut, hierarchy_from_text,
                                hierarchy_to_text, induced_weights,
                                respecting_topo_order, validate_hierarchy)

from helpers import (bitmask_worst_cut, exhaustive_sparsest_cut, local_cut_input,
                     per_cut_sampled_cut, per_frame_topo_order)


def _contiguous(vals):
    s = sorted(vals)
    return s[-1] - s[0] + 1 == len(s)


def test_respecting_order_on_dag_is_topological():
    g, _ = build_graph(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 1)])
    tau = respecting_topo_order(g, set(range(4)), [])
    assert sorted(tau) == [1, 2, 3, 4]
    for e in range(4):
        assert tau[g.tails[e]] < tau[g.heads[e]]


def test_respecting_order_cycle_single_level():
    g, _ = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    tau = respecting_topo_order(g, set(), [set(range(4))])
    assert sorted(tau) == [1, 2, 3, 4]


def test_respecting_order_two_blocks():
    # two 3-cycles joined by DAG edges: blocks must be contiguous and the
    # DAG edges forward
    arcs = [(0, 1, 1), (1, 2, 1), (2, 0, 1),
            (3, 4, 1), (4, 5, 1), (5, 3, 1),
            (0, 3, 1), (2, 4, 1)]
    g, _ = build_graph(6, arcs)
    d = {6, 7}
    levels = [set(range(6))]
    tau = respecting_topo_order(g, d, levels)
    assert sorted(tau) == [1, 2, 3, 4, 5, 6]
    assert _contiguous([tau[v] for v in (0, 1, 2)])
    assert _contiguous([tau[v] for v in (3, 4, 5)])
    for e in d:
        assert tau[g.tails[e]] < tau[g.heads[e]]


def test_respecting_order_rejects_cyclic_d():
    g, _ = build_graph(2, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(NotAcyclicError):
        respecting_topo_order(g, {0, 1}, [])


def test_respecting_order_rejects_level_crossing():
    # level-1 edge between two components of the level-1 graph
    g, _ = build_graph(4, [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1), (1, 2, 1)])
    with pytest.raises(LevelViolationError):
        respecting_topo_order(g, set(), [{0, 1, 2, 3, 4}])


def test_respecting_order_nested_two_levels():
    # two 2-cycles tied into one 4-cycle at level 2
    arcs = [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1), (1, 2, 1), (3, 0, 1)]
    g, _ = build_graph(4, arcs)
    levels = [{0, 1, 2, 3}, {4, 5}]
    tau = respecting_topo_order(g, set(), levels)
    assert sorted(tau) == [1, 2, 3, 4]
    assert _contiguous([tau[0], tau[1]])
    assert _contiguous([tau[2], tau[3]])


def test_respecting_order_without_edges_is_reversed_vertex_order():
    g = DiGraph(5, [])
    assert respecting_topo_order(g, set(), [set(), set()]) == [5, 4, 3, 2, 1]
    # one level-1 cycle: the frame inside it has no edges left, and its
    # block goes out in reverse of the component's vertex order
    g, _ = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    tau = respecting_topo_order(g, set(), [set(range(4))])
    assert tau == per_frame_topo_order(g, set(), [set(range(4))])


def _nested_hierarchy(rng, n, eta):
    """A random graph with a partition that respects it: each level-k block
    is split into runs of a random vertex order, a level-k cycle (plus
    chords) ties each run together, and D edges run forward between runs."""
    order = rng.sample(range(n), n)
    arcs, level_of = [], []

    def add(u, v, lv):
        arcs.append((u, v))
        level_of.append(lv)

    def block(verts, k):
        if k == 0:
            for _ in range(rng.randint(0, len(verts)) if len(verts) > 1 else 0):
                i, j = sorted(rng.sample(range(len(verts)), 2))
                add(verts[i], verts[j], 0)
            return
        cuts = sorted(rng.sample(range(1, len(verts)), rng.randint(0, len(verts) - 1)))
        runs = [verts[a:b] for a, b in zip([0] + cuts, cuts + [len(verts)])]
        for r, run in enumerate(runs):
            if len(run) > 1:
                for i, u in enumerate(run):
                    add(u, run[(i + 1) % len(run)], k)
                for _ in range(rng.randint(0, 2)):
                    add(*rng.sample(run, 2), k)
            if r + 1 < len(runs) and rng.random() < 0.7:
                add(rng.choice(run), rng.choice(runs[rng.randrange(r + 1, len(runs))]), 0)
            if rng.random() < 0.6:  # otherwise the run's inner frames stay edgeless
                block(run, k - 1)

    block(order, eta)
    pairs = list(zip(arcs, level_of))
    rng.shuffle(pairs)
    g = DiGraph(n, [uv for uv, _lv in pairs])
    parts = [set() for _ in range(eta + 1)]
    for e, (_uv, lv) in enumerate(pairs):
        parts[lv].add(e)
    return g, parts[0], parts[1:]


def test_respecting_order_matches_per_frame_tarjan_reference():
    # nested hierarchies, valid by construction, and arbitrary partitions,
    # whose NotAcyclicError and LevelViolationError must match too
    rng = random.Random(606)
    valid = 0
    for case in range(400):
        n = rng.randint(1, 14)
        eta = rng.randint(0, 3)
        if case % 2:
            g, d, levels = _nested_hierarchy(rng, n, eta)
        else:
            g = DiGraph(n, [tuple(rng.sample(range(n), 2))
                            for _ in range(rng.randint(0, 2 * n) if n > 1 else 0)])
            parts = [set() for _ in range(eta + 1)]
            for e in range(g.m):
                parts[rng.randrange(eta + 1)].add(e)
            d, levels = parts[0], parts[1:]
        try:
            want = per_frame_topo_order(g, d, levels)
        except (NotAcyclicError, LevelViolationError) as exc:
            with pytest.raises(type(exc)) as got:
                respecting_topo_order(g, d, levels)
            assert str(got.value) == str(exc)
            assert case % 2 == 0
            continue
        assert respecting_topo_order(g, d, levels) == want
        assert sorted(want) == list(range(1, n + 1))
        valid += 1
    assert valid >= 250


def test_induced_weights_path_identity():
    n = 6
    arcs = [(i, i + 1, 1) for i in range(n - 1)]
    g, _ = build_graph(n, arcs)
    tau = respecting_topo_order(g, set(range(n - 1)), [])
    w = induced_weights(g, tau)
    assert sum(Fraction(1, x) for x in w) == n - 1


def test_induced_weights_complete_digraph_k4():
    arcs = [(u, v, 1) for u in range(4) for v in range(4) if u != v]
    g, _ = build_graph(4, arcs)
    tau = [1, 2, 3, 4]
    w = induced_weights(g, tau)
    assert sum(Fraction(1, x) for x in w) == Fraction(26, 3)


def test_induced_weights_sum_bound_simple_random():
    rng = random.Random(31)
    n = 50
    pairs = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(400)})
    pairs = [(u, v) for u, v in pairs if u != v]
    g, _ = build_graph(n, [(u, v, 1) for u, v in pairs])
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    w = induced_weights(g, perm)
    assert sum(1.0 / x for x in w) <= 2 * n * (math.log(n) + 1)


def _c8():
    n = 8
    arcs = [(i, (i + 1) % n, 1) for i in range(n)]
    return build_graph(n, arcs)


def test_validate_dag_hierarchy():
    g, caps = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    tau = respecting_topo_order(g, set(range(3)), [])
    h = Hierarchy(set(range(3)), [], tau)
    rep = validate_hierarchy(g, caps, h, Fraction(1, 8))
    assert rep.ok
    assert h.eta == 0


def test_validate_c8_at_phi_eighth():
    g, caps = _c8()
    tau = respecting_topo_order(g, set(), [set(range(8))])
    h = Hierarchy(set(), [set(range(8))], tau)
    rep = validate_hierarchy(g, caps, h, Fraction(1, 8))
    assert rep.ok
    assert all(c.exact for c in rep.components)


def test_validate_c8_at_phi_quarter_refuted_with_witness():
    g, caps = _c8()
    tau = respecting_topo_order(g, set(), [set(range(8))])
    h = Hierarchy(set(), [set(range(8))], tau)
    rep = validate_hierarchy(g, caps, h, Fraction(1, 4))
    assert not rep.ok
    bad = [c for c in rep.components if not c.ok]
    assert len(bad) == 1
    # the sparsest cut of a directed cycle takes half the vertices
    assert len(bad[0].witness) == 4
    assert bad[0].ratio == Fraction(1, 8)


def test_validate_catches_partition_and_cycle_defects():
    g, caps = build_graph(2, [(0, 1, 1), (1, 0, 1)])
    rep = validate_hierarchy(g, caps, Hierarchy({0}, [{0, 1}], [1, 2]), Fraction(1, 8))
    assert not rep.ok  # edge 0 placed twice
    rep = validate_hierarchy(g, caps, Hierarchy({0, 1}, [], [1, 2]), Fraction(1, 8))
    assert not rep.ok  # D cyclic


def test_validate_names_edge_ids_outside_the_graph():
    # ids outside 0..m-1 are named, not counted: -1 must not stand for edge 2
    g, caps = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    rep = validate_hierarchy(g, caps, Hierarchy({0, 1}, [{2, 5}], [1, 2, 3]), Fraction(1, 8))
    assert rep.errors == ["partition names edge ids [5] outside 0..2"]
    rep = validate_hierarchy(g, caps, Hierarchy({0, 1, -1}, [{2}], [1, 2, 3]), Fraction(1, 8))
    assert rep.errors == ["partition names edge ids [-1] outside 0..2"]


def test_level_of_names_edge_ids_outside_the_graph():
    # -1 must not stand for edge m - 1 in the per-edge levels or the text
    h = Hierarchy({0, 1}, [{-1}], [1, 2, 3])
    with pytest.raises(InvalidHierarchyError, match=r"edge ids \[-1\] outside 0\.\.2"):
        hierarchy_to_text(h, 3)
    with pytest.raises(InvalidHierarchyError, match=r"edge ids \[-1, 5\] outside 0\.\.2"):
        Hierarchy({0, 1, 5}, [{2, -1}], [1, 2, 3]).level_of(3)
    assert Hierarchy({0}, [{2}], [1, 2, 3]).level_of(3) == [0, -1, 1]
    assert hierarchy_to_text(Hierarchy({0, 1}, [{2}], [1, 2, 3]), 3).splitlines()[:3] == [
        "0 0", "1 0", "2 1"]


def test_validate_reports_level_edge_between_components():
    # two 2-cycles joined by edge 4 (1 -> 2): with every edge on level 1,
    # edge 4 runs between the two level-1 components, breaking (c)
    g, caps = build_graph(4, [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1), (1, 2, 1)])
    rep = validate_hierarchy(g, caps, Hierarchy(set(), [set(range(5))], [1, 2, 3, 4]),
                             Fraction(1, 8))
    assert not rep.ok
    assert rep.errors == ["level-1 edge 4 not inside one component"]
    # both 2-cycles are still checked, and expand
    assert [(c.size, c.ok) for c in rep.components] == [(2, True), (2, True)]


class _CountingRandom(random.Random):
    """Counts the draws of 32 bits or more: one per random cut (a BFS
    source asks `randrange(k)` for k.bit_length() < 32 bits)."""

    draws = 0

    def getrandbits(self, k):
        self.draws += k >= 32
        return super().getrandbits(k)


def _cliques_and_a_dumbbell(sizes, halves):
    """Heavy cliques of the given sizes, and one component of two heavy
    cliques of `halves` vertices joined by one light arc each way, between
    other vertices: at phi = 1/32 its two halves are its only sparse cuts,
    and a random cut is one of them with chance 2^-(2 * halves - 1)."""
    arcs, blocks, start = [], [], 0
    for size in sizes[:1] + [halves, halves] + sizes[1:]:
        block = list(range(start, start + size))
        arcs += [(u, v, 1000) for u in block for v in block if u != v]
        blocks.append(block)
        start += size
    a, b = blocks[1], blocks[2]
    arcs += [(a[1], b[1], 1), (b[2], a[2], 1)]
    return start, arcs, sorted(a), sorted(b)


def test_validation_after_a_level_cut_refutation_matches_per_cut_reference(monkeypatch):
    """Four level-1 components above 16 vertices, and the second in check
    order is refuted by a level cut: all 300 random cuts are drawn before
    the witness, one half of the dumbbell.  Each search the validator
    makes is run again by the per-cut reference from the rng state it
    started from, and finds the same witness, or nothing and leaves the
    rng where the reference leaves it."""
    n, arcs, a, b = _cliques_and_a_dumbbell([17, 18, 20], 14)
    g, cap = build_graph(n, arcs)
    levels = [set(range(g.m))]
    h = Hierarchy(set(), levels, respecting_topo_order(g, set(), levels))
    cfg = replace(DEFAULT_CONFIG, validator_falsifier_cuts=300)
    cut_draws = []  # the reference's random cuts per search
    real = hierarchy.sampled_sparse_cut

    def checked(g, cap, vol, phi, rng, budget):
        ref = _CountingRandom()
        ref.setstate(rng.getstate())
        side = real(g, cap, vol, phi, rng, budget)
        assert side == per_cut_sampled_cut(g, cap, vol, phi, ref, budget)
        if side is None:
            assert rng.getstate() == ref.getstate()
        cut_draws.append(ref.draws)
        return side

    monkeypatch.setattr(hierarchy, "sampled_sparse_cut", checked)
    report = validate_hierarchy(g, cap, h, Fraction(1, 32), cfg, random.Random(32))
    assert [(c.size, c.exact, c.ok) for c in report.components] == [
        (17, False, True), (28, False, False), (18, False, True), (20, False, True)]
    assert report.components[1].witness in (a, b)
    assert cut_draws == [300] * 4


@pytest.mark.parametrize("phi", [Fraction(0), Fraction(-1, 4), Fraction(1), Fraction(3, 2)])
def test_validate_rejects_phi_outside_unit_interval(phi):
    g, caps = _c8()
    h = Hierarchy(set(), [set(range(8))], respecting_topo_order(g, set(), [set(range(8))]))
    with pytest.raises(BadParamsError):
        validate_hierarchy(g, caps, h, phi)


def _local(check, verts, edges, volw, *args):
    """`check` run on the local graph of the labelled inputs; the side it
    returns is mapped back to the labels."""
    g, cap, vol, back = local_cut_input(verts, edges, volw)
    ratio, side = check(g, cap, vol, *args)
    return ratio, back(side)


def _check_worst_cut(verts, edges, volw, oracle=True):
    """exhaustive_worst_cut equals the ascending bitmask scan, (ratio,
    side) identical, under every `below`; at the minimum ratio itself it
    returns (None, None)."""
    want = _local(bitmask_worst_cut, verts, edges, volw)
    if oracle:
        assert want[0] == exhaustive_sparsest_cut(verts, edges, volw)[0]
    assert _local(exhaustive_worst_cut, verts, edges, volw) == want
    for below in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)):
        got = _local(exhaustive_worst_cut, verts, edges, volw, below)
        assert got == (want if want[0] is not None and want[0] < below else (None, None))
    if want[0] is not None:
        assert _local(exhaustive_worst_cut, verts, edges, volw, want[0]) == (None, None)


def test_exhaustive_worst_cut_matches_independent_oracle():
    # multigraphs on arbitrary labels: parallel and antiparallel arcs,
    # self-loops, zero-volume vertices, missing volume entries and
    # all-zero volumes
    rng = random.Random(33)
    for trial in range(600):
        k = rng.randint(1 if trial % 25 == 0 else 2, 12 if trial % 4 == 0 else 8)
        verts = rng.sample(range(100), k)
        edges = []
        if trial % 2:  # a ring keeps every cut's boundary positive
            edges += [(verts[i - 1], verts[i], rng.randint(1, 3)) for i in range(k)]
        for _ in range(rng.randint(0, 3 * k)):
            u, v = rng.choice(verts), rng.choice(verts)
            c = rng.randint(1, 4)
            edges.append((u, v, c))
            if rng.random() < 0.2:
                edges.append((u, v, rng.randint(1, 4)))
            if rng.random() < 0.2:
                edges.append((v, u, c))
        shape = trial % 10
        if shape == 0:
            volw = {v: 0 for v in verts}
        elif shape < 4:
            volw = {}
            for u, v, c in edges:
                volw[u] = volw.get(u, 0) + c
                volw[v] = volw.get(v, 0) + c
        else:
            volw = {v: rng.choice((0, 0, 1, 2, 3, 7)) for v in verts if rng.random() < 0.9}
        _check_worst_cut(verts, edges, volw)


def test_exhaustive_worst_cut_ties_on_symmetric_shapes():
    # 16 vertices, where ties are everywhere: the smallest S bitmask among
    # equal ratios must still win.  In "isolated", vertex 0 has no arcs, so
    # under degree volumes each worst arc of the 15-cycle ties with itself
    # plus vertex 0; there the smallest mask, {1..7}, is not the first
    # minimum a gray-code scan meets, {0..7}, so a gray-code rank fails it
    k = 16
    ring = [(i, (i + 1) % k, 1) for i in range(k)]
    shapes = {
        "complete": [(u, v, 1) for u in range(k) for v in range(k) if u != v],
        "star": [a for v in range(1, k) for a in ((0, v, 1), (v, 0, 1))],
        "cycle": ring,
        "bicycle": ring + [(v, u, c) for u, v, c in ring],
        "dumbbell": [(u, v, 1) for half in (0, 8) for u in range(half, half + 8)
                     for v in range(half, half + 8) if u != v] + [(7, 8, 1), (8, 7, 1)],
        "isolated": [(1 + i, 1 + (i + 1) % (k - 1), 1) for i in range(k - 1)],
    }
    for name, edges in shapes.items():
        deg = {v: 0 for v in range(k)}
        for u, v, c in edges:
            deg[u] += c
            deg[v] += c
        for volw in ({v: 1 for v in range(k)}, deg):
            _check_worst_cut(range(k), edges, volw, oracle=False)


def test_hierarchy_text_round_trip():
    arcs = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)]
    g, caps = build_graph(4, arcs)
    tau = respecting_topo_order(g, {3}, [{0, 1, 2}])
    h = Hierarchy({3}, [{0, 1, 2}], tau)
    text = hierarchy_to_text(h, g.m)
    h2 = hierarchy_from_text(text, g)
    assert h2.d == h.d
    assert h2.levels == h.levels
    assert h2.tau == h.tau
    with pytest.raises(ParseError):
        hierarchy_from_text("0 0\n", g)


@pytest.mark.parametrize("text, line", [
    ("0 0\n1 0\n1 1\nt 1 1\nt 2 2\n", 3),
    ("0 0\n1 0\nt 1 1\nt 2 2\nt 1 2\n", 5),
], ids=["edge", "vertex"])
def test_hierarchy_from_text_rejects_a_second_line_for_an_edge_or_vertex(text, line):
    g, _caps = build_graph(2, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(ParseError) as exc:
        hierarchy_from_text(text, g)
    assert exc.value.line_no == line


# hierarchy text of a fixed 4-vertex graph with planted faults: tokens
# swapped for junk or out-of-range edge ids, vertices and levels, fields
# dropped or added, lines dropped or repeated
_TOKENS = ["x", "t", "#", "1.5", "-1", "0", "1", "2", "3", "4", "5", "99", "1000000000"]


def _hierarchy_text(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(lines))
        parts = lines[i].split()
        # a line left without fields can only gain one, repeat or go
        fault = rng.randrange(5) if parts else rng.randrange(2, 5)
        if fault == 0:
            parts[rng.randrange(len(parts))] = rng.choice(_TOKENS)
        elif fault == 1:
            del parts[rng.randrange(len(parts))]
        elif fault == 2:
            parts.insert(rng.randint(0, len(parts)), rng.choice(_TOKENS))
        elif fault == 3:
            lines.insert(rng.randint(0, len(lines)), lines[i])
        else:
            del lines[i]
            if not lines:
                break
            continue
        lines[i] = " ".join(parts)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hierarchy_from_text_fuzz_typed_error_or_hierarchy(rng):
    g, caps = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 0, 1), (2, 3, 3), (3, 1, 1)])
    h = Hierarchy(set(), [{0, 1, 2}, {3, 4}],
                  respecting_topo_order(g, set(), [{0, 1, 2}, {3, 4}]))
    try:
        h2 = hierarchy_from_text(_hierarchy_text(rng, hierarchy_to_text(h, g.m)), g)
    except ParseError:
        return
    assert isinstance(h2, Hierarchy)
    assert h2.edge_count() == g.m and len(h2.tau) == g.n
    # whatever parses, the validator judges without raising
    validate_hierarchy(g, caps, h2, Fraction(1, 8))
