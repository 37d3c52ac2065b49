import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierflow.config import DEFAULT_CONFIG
from hierflow.errors import InfeasibleFlowError, SelfLoopError, VertexOutOfRangeError
from hierflow.graph import (Flow, FlowInstance, build_graph, decompose_paths, flow_stats,
                            is_feasible, net_outflow, residual, residual_graph, scc,
                            subgraph)
from hierflow.hierarchy import Hierarchy
from hierflow.maxflow import max_flow_exact
from hierflow.push_relabel import push_relabel
from hierflow.sparse_cut import sparse_cut

from helpers import (per_edge_flow_stats, per_edge_residual, random_feasible_flow,
                     random_instance, scc_from_closure)


def test_build_single_edge():
    g, caps = build_graph(2, [(0, 1, 5)])
    assert g.m == 1
    assert caps[0] == 5
    assert g.out_edges[0] == [0] and g.in_edges[1] == [0]


def test_build_antiparallel_pair_kept_distinct():
    g, caps = build_graph(3, [(0, 1, 1), (1, 0, 1)])
    assert g.m == 2
    assert list(zip(g.tails, g.heads)) == [(0, 1), (1, 0)]


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(4, [(0, 0, 1)])


def test_build_rejects_vertex_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(2, [(0, 2, 1)])


def test_scc_three_cycle():
    g, _ = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    comps = scc(g)
    assert len(comps) == 1 and sorted(comps[0]) == [0, 1, 2]


def test_scc_isolated_vertices():
    g, _ = build_graph(2, [])
    assert sorted(len(c) for c in scc(g)) == [1, 1]


def test_scc_matches_transitive_closure_oracle():
    rng = random.Random(7)
    for trial in range(500):
        n = rng.randint(1, 8)
        m = rng.randint(0, 20)
        pairs = []
        for _ in range(m):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                pairs.append((u, v))
        g, _ = build_graph(n, [(u, v, 1) for u, v in pairs])
        ours = {frozenset(c) for c in scc(g)}
        oracle = set(scc_from_closure(n, pairs))
        assert ours == oracle


def test_scc_reverse_topological_order():
    # edge (u, v) between components: v's component must appear first
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 18))]
        pairs = [(u, v) for u, v in pairs if u != v]
        g, _ = build_graph(n, [(u, v, 1) for u, v in pairs])
        comps = scc(g)
        pos = {}
        for i, c in enumerate(comps):
            for v in c:
                pos[v] = i
        for u, v in pairs:
            if pos[u] != pos[v]:
                assert pos[v] < pos[u]


def test_condensation_topo_chain():
    g, _ = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    comps = scc(g)[::-1]
    assert [sorted(c) for c in comps] == [[0], [1], [2]]


def test_condensation_topo_cycle_single_component():
    g, _ = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert len(scc(g)) == 1


def test_condensation_topo_random_dag_edges_forward():
    rng = random.Random(11)
    for _ in range(50):
        n = 10
        pairs = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(20)})
        pairs = [(u, v) for u, v in pairs if u < v]  # force a DAG
        g, _ = build_graph(n, [(u, v, 1) for u, v in pairs])
        comps = scc(g)[::-1]
        pos = {}
        for i, c in enumerate(comps):
            for v in c:
                pos[v] = i
        for u, v in pairs:
            assert pos[u] < pos[v]


def test_flow_stats_zero_flow():
    g, caps = build_graph(3, [(0, 1, 2), (1, 2, 2)])
    inst = FlowInstance(g, caps, [3, 0, 1], [1, 0, 2])
    st = flow_stats(inst, Flow.zero(2))
    # with no flow, absorption is the pointwise min of supply and sink
    assert st.absorption == [1, 0, 1]
    assert st.excess == [2, 0, 0]
    assert st.value == 2


def test_flow_stats_single_edge():
    g, caps = build_graph(2, [(0, 1, 1)])
    inst = FlowInstance(g, caps, [1, 0], [0, 1])
    st = flow_stats(inst, Flow([1]))
    assert st.value == 1
    assert st.excess == [0, 0]
    assert st.absorption == [0, 1]


def _subset_identity_holds(inst, f, subset):
    st = flow_stats(inst, f)
    lhs = sum(inst.delta[v] for v in subset)
    out = net_outflow(inst.g, f)
    rhs = (sum(st.absorption[v] for v in subset)
           + sum(out[v] for v in subset)
           + sum(st.excess[v] for v in subset))
    return lhs == rhs


def test_flow_conservation_identity_exhaustive_small():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, 4, 8, 4, st=False)
        f = random_feasible_flow(rng, inst)
        n = inst.n
        for mask in range(1 << n):
            subset = [v for v in range(n) if (mask >> v) & 1]
            assert _subset_identity_holds(inst, f, subset)


def test_flow_conservation_identity_sampled():
    rng = random.Random(6)
    inst = random_instance(rng, 10, 30, 6, st=False)
    f = random_feasible_flow(rng, inst)
    for _ in range(100):
        subset = [v for v in range(inst.n) if rng.random() < 0.5]
        assert _subset_identity_holds(inst, f, subset)


def test_residual_of_zero_flow_equals_original():
    g, caps = build_graph(3, [(0, 1, 4), (1, 2, 2)])
    inst = FlowInstance(g, caps, [2, 0, 0], [0, 0, 2])
    res = residual(inst, Flow.zero(2))
    for e in range(2):
        assert res.arc_cap[2 * e] == caps[e]
        assert res.arc_cap[2 * e + 1] == 0


def test_residual_saturated_edge_only_backward_usable():
    g, caps = build_graph(2, [(0, 1, 3)])
    inst = FlowInstance(g, caps, [3, 0], [0, 3])
    res = residual(inst, Flow([3]))
    assert res.arc_cap[0] == 0 and res.arc_cap[1] == 3
    assert [a for a in g.out_arcs[0] if res.arc_cap[a] > 0] == []
    assert [a for a in g.out_arcs[1] if res.arc_cap[a] > 0] == [1]


def test_residual_rejects_overflow():
    g, caps = build_graph(2, [(0, 1, 3)])
    inst = FlowInstance(g, caps, [3, 0], [0, 3])
    with pytest.raises(InfeasibleFlowError):
        residual(inst, Flow([4]))


def test_residual_rejects_negative_flow_naming_the_edge():
    g, caps = build_graph(3, [(0, 1, 3), (1, 2, 3), (0, 2, 1)])
    inst = FlowInstance(g, caps, [3, 0, 0], [0, 0, 3])
    with pytest.raises(InfeasibleFlowError, match=r"^flow -1 outside \[0, 3\] on edge 1$"):
        residual(inst, Flow([2, -1, 5]))


def _diffusion_multigraph(rng):
    """Random parallel and antiparallel edges with capacities from 0, plus
    a zero-capacity edge, a parallel pair and an antiparallel pair at
    vertices 0 and 1; vertex 0 has both supply and sink capacity."""
    n = rng.randint(2, 9)
    arcs = [(0, 1, 0), (0, 1, 2), (1, 0, 3)]
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.randint(0, 4)))
        if rng.random() < 0.4:
            arcs.append(rng.choice([(u, v), (v, u)]) + (rng.randint(0, 4),))
    g, caps = build_graph(n, arcs)
    delta = [rng.randint(0, 5) for _ in range(n)]
    nabla = [rng.randint(0, 5) for _ in range(n)]
    delta[0], nabla[0] = rng.randint(1, 5), rng.randint(1, 5)
    return FlowInstance(g, caps, delta, nabla)


def test_residual_and_flow_stats_equal_the_per_edge_reference():
    rng = random.Random(11)
    for _ in range(200):
        inst = _diffusion_multigraph(rng)
        flows = [Flow.zero(inst.m), Flow([rng.randint(0, c) for c in inst.cap]),
                 random_feasible_flow(rng, inst)]
        for f in flows:
            st = flow_stats(inst, f)
            assert (st.value, st.excess, st.absorption) == per_edge_flow_stats(inst, f)
            res = residual(inst, f)
            assert res.g is inst.g
            assert (res.arc_cap, res.delta_f, res.nabla_f) == per_edge_residual(inst, f)
        # a flow with one or two edges outside [0, cap]: the first is named
        bad = list(flows[1].values)
        for e in rng.sample(range(inst.m), rng.randint(1, 2)):
            bad[e] = rng.choice([-rng.randint(1, 3), inst.cap[e] + rng.randint(1, 3)])
        with pytest.raises(InfeasibleFlowError) as got:
            residual(inst, Flow(bad))
        with pytest.raises(InfeasibleFlowError) as want:
            per_edge_residual(inst, Flow(bad))
        assert str(got.value) == str(want.value)


def test_residual_round_trip_augment_then_revert():
    g, caps = build_graph(4, [(0, 1, 3), (1, 2, 3), (2, 3, 3)])
    inst = FlowInstance(g, caps, [3, 0, 0, 0], [0, 0, 0, 3])
    f = Flow([2, 2, 2])
    f2 = Flow([0, 0, 0])  # augment 2 then push 2 back
    res0 = residual(inst, f2)
    res = residual(inst, f)
    for e in range(3):
        assert res.arc_cap[2 * e] + res.arc_cap[2 * e + 1] == caps[e]
    assert [res0.arc_cap[a] for a in range(6)] == [3, 0, 3, 0, 3, 0]


def test_decompose_single_saturated_path():
    g, caps = build_graph(3, [(0, 1, 2), (1, 2, 2)])
    inst = FlowInstance(g, caps, [2, 0, 0], [0, 0, 2])
    paths, cycles = decompose_paths(inst, Flow([2, 2]))
    assert cycles == []
    assert paths == [([0, 1], 2)]


def test_decompose_two_disjoint_unit_paths():
    g, caps = build_graph(4, [(0, 1, 1), (2, 3, 1)])
    inst = FlowInstance(g, caps, [1, 0, 1, 0], [0, 1, 0, 1])
    paths, cycles = decompose_paths(inst, Flow([1, 1]))
    assert cycles == []
    assert sorted(p for p, _ in paths) == [[0], [1]]


def test_decompose_recomposition_random():
    rng = random.Random(9)
    for _ in range(60):
        inst = random_instance(rng, 10, 25, 5, st=False)
        f = random_feasible_flow(rng, inst)
        paths, cycles = decompose_paths(inst, f)
        recomposed = [0] * inst.m
        for arcs, amt in paths:
            for e in arcs:
                recomposed[e] += amt
        with_cycles = list(recomposed)
        for arcs, amt in cycles:
            for e in arcs:
                with_cycles[e] += amt
        assert all(recomposed[e] <= f.values[e] for e in range(inst.m))
        assert net_outflow(inst.g, Flow(recomposed)) == net_outflow(inst.g, f)
        assert with_cycles == f.values
        assert len(paths) + len(cycles) <= inst.m + 2 * inst.n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_decompose_paths_hypothesis(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(2, 8), rng.randint(1, 16), 4, st=False)
    f = random_feasible_flow(rng, inst)
    assert is_feasible(inst, f)
    paths, cycles = decompose_paths(inst, f)
    recomposed = [0] * inst.m
    for arcs, amt in paths + cycles:
        assert amt > 0
        for e in arcs:
            recomposed[e] += amt
    assert recomposed == f.values


def test_decompose_rejects_non_conserving_flow():
    # one unit enters vertex 1, which is no sink and sends nothing on
    g, caps = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    inst = FlowInstance(g, caps, [1, 0, 0], [0, 0, 1])
    with pytest.raises(InfeasibleFlowError):
        decompose_paths(inst, Flow([1, 0]))


def _multigraph_instance(rng, n, m):
    """Random multigraph with parallel and antiparallel edges, plus demand."""
    arcs = []
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        arcs.append((u, v, rng.randint(1, 5)))
        if rng.random() < 0.3:
            arcs.append((u, v, rng.randint(1, 5)))
        if rng.random() < 0.3:
            arcs.append((v, u, rng.randint(1, 5)))
    g, caps = build_graph(n, arcs)
    delta, nabla = [0] * n, [0] * n
    delta[0] = rng.randint(1, 8)
    nabla[n - 1] = delta[0] + rng.randint(0, 3)
    return FlowInstance(g, caps, delta, nabla)


def test_arc_layout_on_multigraphs():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 9)
        inst = _multigraph_instance(rng, n, rng.randint(1, 3 * n))
        g = inst.g
        assert len(g.arc_tail) == len(g.arc_head) == 2 * g.m
        for e, (u, v) in enumerate(zip(g.tails, g.heads)):
            assert (g.arc_tail[2 * e], g.arc_head[2 * e]) == (u, v)
            assert (g.arc_tail[2 * e + 1], g.arc_head[2 * e + 1]) == (v, u)
        for v in range(n):
            assert g.out_arcs[v] == sorted(g.out_arcs[v])
            assert set(g.out_arcs[v]) == {a for a in range(2 * g.m) if g.arc_tail[a] == v}
        f = Flow([rng.randint(0, c) for c in inst.cap])
        res = residual(inst, f)
        for a in range(2 * g.m):
            u, v = g.tails[a >> 1], g.heads[a >> 1]
            assert (res.g.arc_tail[a], res.g.arc_head[a]) == ((v, u) if a & 1 else (u, v))
        for v in range(n):
            usable = sorted([2 * e for e in g.out_edges[v] if inst.cap[e] > f[e]]
                            + [2 * e + 1 for e in g.in_edges[v] if f[e] > 0])
            assert [a for a in res.g.out_arcs[v] if res.arc_cap[a] > 0] == usable


def _pr_view(r):
    return (r.flow.values, r.value, r.labels, r.augmentations, r.edge_saturations,
            r.edge_flips, r.relabel_climbs, r.relabel_landings, r.levels_visited,
            r.delta_residual, r.nabla_residual)


def test_repeated_solves_share_and_keep_the_arc_layout():
    rng = random.Random(32)
    for _ in range(6):
        n = rng.randint(3, 7)
        inst = _multigraph_instance(rng, n, rng.randint(n, 2 * n))
        g = inst.g
        layout = (list(g.arc_tail), list(g.arc_head), [list(x) for x in g.out_arcs])
        w = [rng.randint(1, n) for _ in range(g.m)]
        hier = Hierarchy(set(), [], list(range(1, n + 1)))
        runs = []
        for _ in range(2):
            pr = push_relabel(inst, w, 2 * n, "capacitated", DEFAULT_CONFIG)
            cut = sparse_cut(inst, 1, set(range(g.m)), hier, DEFAULT_CONFIG,
                             check_connected=False)
            exact = max_flow_exact(inst, seed=5)
            runs.append((_pr_view(pr), cut.flow.values, cut.cut, cut.metrics, cut.labels,
                         exact.flow.values, exact.stats))
            assert (g.arc_tail, g.arc_head, g.out_arcs) == layout
        assert runs[0] == runs[1]


def test_subgraph_keeps_the_given_vertex_and_edge_orders():
    # parallel edges 1, 2 and antiparallel pairs 0/3 and 4/5 stay distinct
    g, _ = build_graph(6, [(0, 1, 1), (1, 2, 1), (1, 2, 1), (1, 0, 1), (2, 4, 1),
                           (4, 2, 1), (3, 5, 1)])
    sub = subgraph(g, [4, 1, 2, 0], [5, 2, 0, 4, 1, 3])
    assert sub.n == 4 and sub.m == 6
    # local vertex i is vertices[i], local edge j is edge_ids[j]
    assert list(zip(sub.tails, sub.heads)) == [(0, 2), (1, 2), (3, 1), (2, 0), (1, 2), (1, 3)]
    assert sub.out_edges == [[0], [1, 4, 5], [3], [2]]
    assert sub.in_edges == [[3], [2], [0, 1, 4], [5]]
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                     for _ in range(rng.randint(0, 3 * n))) if u != v]
        g, _ = build_graph(n, [(u, v, 1) for u, v in pairs])
        verts = rng.sample(range(n), rng.randint(1, n))
        inside = [e for e in range(g.m) if g.tails[e] in verts and g.heads[e] in verts]
        edge_ids = rng.sample(inside, len(inside))
        sub = subgraph(g, verts, edge_ids)
        assert sub.n == len(verts)
        assert [(verts[u], verts[v]) for u, v in zip(sub.tails, sub.heads)] == [
            (g.tails[e], g.heads[e]) for e in edge_ids]


def test_residual_graph_has_one_edge_per_usable_arc_in_arc_order():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 9)
        inst = random_instance(rng, n, rng.randint(1, 3 * n), rng.randint(1, 5), st=False)
        g = inst.g
        f = Flow([rng.choice([0, c, rng.randint(0, c)]) for c in inst.cap])
        res = residual(inst, f)
        arc_ids, rinst = residual_graph(res)
        assert arc_ids == [a for a in range(2 * g.m) if res.arc_cap[a] > 0]
        assert arc_ids == sorted(arc_ids)
        assert list(zip(rinst.g.tails, rinst.g.heads)) == [
            (g.arc_tail[a], g.arc_head[a]) for a in arc_ids]
        assert rinst.cap == [res.arc_cap[a] for a in arc_ids]
        assert all(c > 0 for c in rinst.cap)
        assert rinst.n == g.n
        assert (rinst.delta, rinst.nabla) == (res.delta_f, res.nabla_f)
