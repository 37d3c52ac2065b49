import dataclasses
import importlib
import math
import random
from fractions import Fraction

import pytest

from hierflow.config import DEFAULT_CONFIG, default_phi
from hierflow.errors import InvalidHierarchyError, NotStronglyConnectedError
from hierflow.graph import Flow, FlowInstance, build_graph, flow_stats, residual
from hierflow.hierarchy import Hierarchy, respecting_topo_order
from hierflow.maxflow import edmonds_karp
from hierflow.sparse_cut import (level_labels, min_level_cut, reduced_arc_weights,
                                 sparse_cut, sparse_cut_height, terminal_weights)

from helpers import bellman_ford_arcs, random_instance

# the package exports the function sparse_cut under the module's name
_sparse_cut_module = importlib.import_module("hierflow.sparse_cut")

INF = math.inf
DEBUG_CONFIG = dataclasses.replace(DEFAULT_CONFIG, debug_invariants=True)


def _trivial_hier(n):
    return Hierarchy(set(), [], list(range(1, n + 1)))


def test_level_labels_bfs_layers():
    g, caps = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    inst = FlowInstance(g, caps, [1, 0, 0, 0], [0, 0, 0, 1])
    res = residual(inst, Flow.zero(3))
    w_arc = [1] * 6
    labels = level_labels(res, w_arc, [0])
    assert labels == [0, 1, 2, 3]


def test_level_labels_zero_weight_closure():
    # forward DAG arcs at weight zero pull the whole reachable set into layer 0
    g, caps = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    inst = FlowInstance(g, caps, [1, 0, 0, 0], [0, 0, 0, 1])
    res = residual(inst, Flow.zero(3))
    w_arc = reduced_arc_weights(g, [5, 5, 5], {0, 1, 2})
    labels = level_labels(res, w_arc, [0])
    assert labels == [0, 0, 0, 0]


def test_level_labels_against_bellman_ford():
    rng = random.Random(41)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(3, 9), rng.randint(2, 18),
                               rng.randint(1, 5), st=False)
        g = inst.g
        f = Flow([rng.randint(0, inst.cap[e]) for e in range(inst.m)])
        res = residual(inst, f)
        w_arc = [rng.randint(0, 4) for _ in range(2 * g.m)]
        s0 = sorted({rng.randrange(g.n) for _ in range(2)})
        labels = level_labels(res, w_arc, s0)
        arcs = []
        for a in range(2 * g.m):
            if res.arc_cap[a] > 0:
                u, v = res.g.arc_tail[a], res.g.arc_head[a]
                arcs.append((u, v, w_arc[a]))
        want = bellman_ford_arcs(g.n, arcs, s0)
        assert labels == want


def test_sparse_cut_routable_single_edge():
    g, caps = build_graph(2, [(0, 1, 1)])
    inst = FlowInstance(g, caps, [1, 0], [0, 1])
    out = sparse_cut(inst, 1, set(), _trivial_hier_for(g))
    assert out.cut is None
    assert out.value == 1


def test_sparse_cut_phi_defaults_to_default_phi():
    # on the 2-cycle phi = 1/2 would give height 2, default_phi(2) = 1/16 gives 4
    g, caps = build_graph(2, [(0, 1, 1), (1, 0, 1)])
    inst = FlowInstance(g, caps, [1, 0], [0, 1])
    hier = _all_terminal_hier(g)
    implicit = sparse_cut(inst, 1, {0, 1}, hier)
    explicit = sparse_cut(inst, 1, {0, 1}, hier, phi=default_phi(2))
    assert implicit.h == explicit.h == 4
    assert (implicit.value, implicit.cut, implicit.flow.values) == (
        explicit.value, explicit.cut, explicit.flow.values)


def _trivial_hier_for(g):
    tau = respecting_topo_order(g, set(range(g.m)), [])
    return Hierarchy(set(range(g.m)), [], tau)


def _all_terminal_hier(g):
    # hierarchy of the empty remainder graph: any permutation works
    return Hierarchy(set(), [], list(range(1, g.n + 1)))


def test_sparse_cut_rejects_a_hierarchy_of_other_edges():
    # with terminals {0, 1}, the hierarchy must partition exactly {2}: an id
    # outside the graph, a terminal, a repeat or a gap is named, not run
    g, caps = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    inst = FlowInstance(g, caps, [1, 0, 0], [0, 1, 0])
    for d, levels, names in [({5}, [], r"not among them: \[5\]"),
                             ({-1}, [], r"not among them: \[-1\]"),
                             ({0, 2}, [], r"not among them: \[0\]"),
                             ({2}, [{2}], "names 2 edge ids for 1 non-terminal"),
                             (set(), [], r"left out: \[2\]")]:
        with pytest.raises(InvalidHierarchyError, match=names):
            sparse_cut(inst, 1, {0, 1}, Hierarchy(d, levels, [2, 3, 1]))
    assert sparse_cut(inst, 1, {0, 1}, Hierarchy({2}, [], [2, 3, 1])).value == 1


def test_sparse_cut_requires_strong_connectivity():
    g, caps = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    inst = FlowInstance(g, caps, [1, 0, 0], [0, 0, 1])
    with pytest.raises(NotStronglyConnectedError):
        sparse_cut(inst, 1, set(range(2)), _all_terminal_hier(g), DEBUG_CONFIG)


def test_sparse_cut_runs_tarjan_exactly_under_debug_invariants(monkeypatch):
    calls = []

    def counted_scc(g, real=_sparse_cut_module.scc):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(_sparse_cut_module, "scc", counted_scc)
    g, caps = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    inst = FlowInstance(g, caps, [1, 0, 0], [0, 0, 1])
    for config, want in ((DEFAULT_CONFIG, 0), (DEBUG_CONFIG, 1)):
        calls.clear()
        out = sparse_cut(inst, 1, set(range(g.m)), _all_terminal_hier(g), config)
        assert (out.value, out.cut) == (1, None)
        assert len(calls) == want


def _dumbbell(k=4, bridge=1, cap=1):
    arcs = []
    for a in range(k):
        for b in range(k):
            if a != b:
                arcs.append((a, b, cap))
    for a in range(k, 2 * k):
        for b in range(k, 2 * k):
            if a != b:
                arcs.append((a, b, cap))
    arcs.append((k - 1, k, bridge))
    arcs.append((2 * k - 1, 0, bridge))
    return build_graph(2 * k, arcs)


def test_sparse_cut_dumbbell_separates_cliques():
    k = 4
    kappa = 2
    g, caps = _dumbbell(k=k, bridge=1)
    n = g.n
    delta = [3 if v < k else 0 for v in range(n)]
    nabla = [0 if v < k else 3 for v in range(n)]
    inst = FlowInstance(g, caps, delta, nabla)
    f_edges = set(range(g.m))
    out = sparse_cut(inst, kappa, f_edges, _all_terminal_hier(g),
                     phi=Fraction(1, 8))
    # the scaled instance cannot route everything: confirm by the oracle
    scaled = FlowInstance(g, [kappa * c for c in caps], delta, nabla)
    assert edmonds_karp(scaled).stats.value < sum(delta)
    assert out.cut is not None
    mtr = out.metrics
    st = flow_stats(scaled, out.flow)
    side = set(out.cut)
    assert mtr.excess == sum(st.excess)  # all leftover supply inside S
    assert mtr.absorbed == sum(inst.nabla[v] for v in side)
    assert all(v < k for v in side) or set(range(k)) <= side
    # tracked quality regression on the dumbbell family
    sparsity = Fraction(min(mtr.boundary_out, mtr.boundary_in),
                        min(mtr.vol_f_side, mtr.vol_f_other))
    assert sparsity <= Fraction(4, kappa)


def _oracle_min_level_cut(inst, kappa, f_edges, hier, out, config=DEFAULT_CONFIG):
    """Independent full scan: Bellman-Ford labels, then every level cut."""
    g = inst.g
    scaled_caps = [kappa * c for c in inst.cap]
    scaled = FlowInstance(g, scaled_caps, inst.delta, inst.nabla)
    res = residual(scaled, out.flow)
    w_g = terminal_weights(g, f_edges, hier)
    arcs = []
    for a in range(2 * g.m):
        if res.arc_cap[a] > 0:
            u, v = res.g.arc_tail[a], res.g.arc_head[a]
            e = a >> 1
            wt = w_g[e]
            if a & 1 == 0 and e in hier.d:
                wt = 0
            arcs.append((u, v, wt))
    s0 = [v for v in range(g.n) if res.delta_f[v] > 0]
    labels = bellman_ford_arcs(g.n, arcs, s0)
    h = out.h
    vol_f = [0] * g.n
    for e in f_edges:
        vol_f[g.tails[e]] += inst.cap[e]
        vol_f[g.heads[e]] += inst.cap[e]
    total_vol = sum(vol_f)
    best = None
    for lab in sorted({l for l in labels if l != INF and l <= h}):
        side = [v for v in range(g.n) if labels[v] <= lab]
        if len(side) == g.n:
            continue
        sset = set(side)
        boundary = 0
        for a in range(2 * g.m):
            if res.arc_cap[a] > 0:
                u, v = res.g.arc_tail[a], res.g.arc_head[a]
                if u in sset and v not in sset:
                    boundary += res.arc_cap[a]
        vol_s = sum(vol_f[v] for v in side)
        obj = boundary - min(vol_s, total_vol - vol_s)
        if best is None or obj < best[0]:
            best = (obj, lab, side)
    return best


def test_sparse_cut_minimizer_matches_full_scan_oracle():
    rng = random.Random(42)
    cuts_seen = 0
    for trial in range(120):
        n = rng.randint(3, 12)
        # build a strongly connected base: a cycle plus chords
        arcs = [(i, (i + 1) % n, rng.randint(1, 3)) for i in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, rng.randint(1, 3)))
        g, caps = build_graph(n, arcs)
        delta = [0] * n
        nabla = [0] * n
        for _ in range(rng.randint(1, 3)):
            delta[rng.randrange(n)] += rng.randint(1, 6)
        total = sum(delta)
        while total > 0:
            amt = rng.randint(1, total)
            nabla[rng.randrange(n)] += amt
            total -= amt
        inst = FlowInstance(g, caps, delta, nabla)
        f_edges = set(range(g.m))
        kappa = rng.randint(1, 2)
        hier = _all_terminal_hier(g)
        out = sparse_cut(inst, kappa, f_edges, hier, phi=Fraction(1, 4))
        if out.cut is None:
            assert out.value == sum(delta)
            continue
        cuts_seen += 1
        best = _oracle_min_level_cut(inst, kappa, f_edges, hier, out)
        assert best is not None
        assert out.metrics.objective == best[0]
        assert sorted(out.cut) == sorted(best[2])
        # Theorem-style side conditions
        scaled = FlowInstance(g, [kappa * c for c in caps], delta, nabla)
        st = flow_stats(scaled, out.flow)
        side = set(out.cut)
        assert sum(st.excess[v] for v in side) == sum(st.excess)
        assert sum(st.absorption[v] for v in side) == sum(nabla[v] for v in side)
    assert cuts_seen >= 25


def test_sparse_cut_height_floors_and_clamp(monkeypatch):
    # an all-terminal call (empty hierarchy) reads eta as one, and the
    # nominal value explodes, so the n^2 saturation cap takes over
    assert sparse_cut_height(10, 0, 4, Fraction(1, 8)) == 100
    assert sparse_cut_height(10, 2, 16, Fraction(1, 16)) == 100
    with monkeypatch.context() as mp:
        mp.setattr(_sparse_cut_module, "MAX_H", 50)
        assert sparse_cut_height(10, 2, 16, Fraction(1, 16)) == 50
    # tiny nominal values still respect the floor at n
    monkeypatch.setattr(_sparse_cut_module, "C_6", 1e-9)
    assert sparse_cut_height(10, 1, 1, Fraction(1, 2)) == 10


def test_sparse_cut_on_the_empty_instance_routes_nothing():
    # the floor at n alone would give height 0, which push-relabel rejects
    assert sparse_cut_height(0, 0, 1, Fraction(1, 2)) == 1
    g, caps = build_graph(0, [])
    out = sparse_cut(FlowInstance(g, caps, [], []), 1, set(), _all_terminal_hier(g))
    assert (out.value, out.cut, out.h) == (0, None, 1)


def test_heights_follow_the_float_formula_and_cap_out_of_float_range(monkeypatch):
    maxflow = importlib.import_module("hierflow.maxflow")
    rng = random.Random(505)
    for _ in range(400):
        n, eta, kappa = rng.randint(1, 400), rng.randint(0, 12), rng.randint(1, 10 ** 4)
        phi = Fraction(rng.randint(1, 50), rng.randint(51, 10 ** 6))
        c_h, c_6 = rng.choice([8.0, 1e-6, 0.37]), rng.choice([1.0, 1e-12, 3e-7])
        monkeypatch.setattr(maxflow, "C_H", c_h)
        monkeypatch.setattr(_sparse_cut_module, "C_6", c_6)
        ln = math.log(max(n, 2))
        h = c_h * n * (max(eta, 1) ** 2) * ln / float(phi)
        assert maxflow.driver_height(n, max(eta, 1), phi) == max(n, math.ceil(min(n * n, h)))
        h = c_6 * (max(eta, 1) ** 4) * (ln ** 7) * kappa * n / float(phi) ** 2
        assert sparse_cut_height(n, eta, kappa, phi) == min(
            _sparse_cut_module.MAX_H, max(n, math.ceil(min(n * n, h))))
    monkeypatch.undo()
    # float(phi) underflows to 0, phi^2 underflows, kappa overflows a float
    assert maxflow.driver_height(30, 2, Fraction(1, 10 ** 400)) == 900
    assert sparse_cut_height(30, 2, 1, Fraction(1, 10 ** 200)) == 900
    assert sparse_cut_height(30, 2, 10 ** 400, Fraction(1, 2)) == 900
