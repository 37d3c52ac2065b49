import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from hierflow import maxflow
from hierflow.config import DEFAULT_CONFIG
from hierflow.errors import (BuildFailedError, InfeasibleFlowError, NotAcyclicError,
                             SolverInvariantError)
from hierflow.generators import generate
from hierflow.graph import (Flow, FlowInstance, build_graph, flow_stats, is_feasible,
                            residual, scc_subgraph, st_instance)
from hierflow.hierarchy import ValidationReport, _check_tau
from hierflow.maxflow import (capacity_scaled_max_flow, dag_approx_flow,
                              edmonds_karp, exact_solver, max_flow,
                              max_flow_exact)

from helpers import (bellman_ford_arcs, max_flow_value_by_cuts, per_iteration_exact,
                     random_feasible_flow, random_instance, scaling_shift)


def test_ek_single_edge():
    g, caps = build_graph(2, [(0, 1, 5)])
    inst = FlowInstance(g, caps, [5, 0], [0, 5])
    assert edmonds_karp(inst).stats.value == 5


def test_ek_zero_supply():
    g, caps = build_graph(2, [(0, 1, 5)])
    inst = FlowInstance(g, caps, [0, 0], [0, 5])
    assert edmonds_karp(inst).stats.value == 0


def test_ek_matches_exhaustive_min_cut():
    rng = random.Random(61)
    for _ in range(120):
        inst = random_instance(rng, rng.randint(2, 8), rng.randint(1, 16),
                               rng.randint(1, 6), st=False)
        res = edmonds_karp(inst)
        assert res.stats.value == max_flow_value_by_cuts(inst)
        assert is_feasible(inst, res.flow)


def test_dag_approx_exact_on_single_edge():
    g, caps = build_graph(2, [(0, 1, 3)])
    inst = FlowInstance(g, caps, [3, 0], [0, 3])
    r = dag_approx_flow(inst)
    assert r.value == 3


def test_dag_approx_rejects_cycles():
    g, caps = build_graph(2, [(0, 1, 1), (1, 0, 1)])
    inst = FlowInstance(g, caps, [1, 0], [0, 1])
    with pytest.raises(NotAcyclicError):
        dag_approx_flow(inst)


def test_dag_approx_diamond():
    g, caps = build_graph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    inst = FlowInstance(g, caps, [2, 0, 0, 0], [0, 0, 0, 2])
    r = dag_approx_flow(inst)
    assert 6 * r.value >= 2
    assert r.value >= 1


def test_dag_approx_sixth_on_random_dags():
    rng = random.Random(62)
    for _ in range(60):
        n = rng.randint(4, 20)
        perm = list(range(n))
        rng.shuffle(perm)
        arcs = []
        seen = set()
        for _ in range(rng.randint(n, 4 * n)):
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            uv = (perm[i], perm[j])
            if uv not in seen:
                seen.add(uv)
                arcs.append((uv[0], uv[1], rng.randint(1, 6)))
        g, caps = build_graph(n, arcs)
        delta = [0] * n
        nabla = [0] * n
        big = sum(caps) + 1
        delta[perm[0]] = big
        nabla[perm[-1]] = big
        inst = FlowInstance(g, caps, delta, nabla)
        r = dag_approx_flow(inst)
        fstar = edmonds_karp(inst).stats.value
        assert 6 * r.value >= fstar
        assert is_feasible(inst, r.flow)


def test_exact_zero_flow_instances():
    g, caps = build_graph(3, [(0, 1, 2)])
    inst = FlowInstance(g, caps, [0, 0, 2], [2, 0, 0])  # no path from 2 to 0
    res = max_flow_exact(inst, Fraction(1, 8), seed=0)
    assert res.stats.value == 0
    assert res.stats.iterations == 0


def test_exact_dumbbell_bridge_three():
    k = 5
    arcs = []
    for a in range(k):
        for b in range(k):
            if a != b:
                arcs.append((a, b, 1))
    for a in range(k, 2 * k):
        for b in range(k, 2 * k):
            if a != b:
                arcs.append((a, b, 1))
    arcs.append((k - 1, k, 3))
    arcs.append((2 * k - 1, 0, 3))
    g, caps = build_graph(2 * k, arcs)
    big = sum(caps) + 1
    delta = [0] * (2 * k)
    nabla = [0] * (2 * k)
    delta[0] = big
    nabla[2 * k - 1] = big
    inst = FlowInstance(g, caps, delta, nabla)
    res = max_flow_exact(inst, Fraction(1, 16), seed=2)
    want = edmonds_karp(inst).stats.value
    assert want == 3
    assert res.stats.value == 3
    assert is_feasible(inst, res.flow)


def test_exact_matches_oracle_on_random_instances():
    rng = random.Random(63)
    for trial in range(30):
        inst = random_instance(rng, rng.randint(3, 12), rng.randint(2, 30),
                               rng.randint(1, 10), st=True)
        res = max_flow_exact(inst, Fraction(1, 16), seed=trial)
        want = edmonds_karp(inst).stats.value
        assert res.stats.value == want, f"trial {trial}"
        assert is_feasible(inst, res.flow)
        st = flow_stats(inst, res.flow)
        assert st.value == want


def test_exact_matches_oracle_on_diffusion_instances():
    rng = random.Random(64)
    for trial in range(20):
        inst = random_instance(rng, rng.randint(3, 10), rng.randint(2, 24),
                               rng.randint(1, 6), st=False)
        res = max_flow_exact(inst, Fraction(1, 16), seed=trial)
        want = edmonds_karp(inst).stats.value
        assert res.stats.value == want


@pytest.mark.parametrize("model,n,m", [("random", 50, 200), ("random", 80, 320),
                                     ("dag", 50, 150)])
def test_exact_matches_oracle_at_bench_sizes(model, n, m):
    inst = generate(model, seed=0, n=n, m=m, cap=12).instance()
    res = max_flow_exact(inst)
    assert res.stats.value == edmonds_karp(inst).stats.value
    assert is_feasible(inst, res.flow)


def test_scaling_single_edge_large_cap():
    g, caps = build_graph(2, [(0, 1, 10 ** 6)])
    inst = FlowInstance(g, caps, [10 ** 6, 0], [0, 10 ** 6])
    res = capacity_scaled_max_flow(inst, edmonds_karp)
    assert res.stats.value == 10 ** 6
    assert res.stats.phases == 19  # 10^6 >> 18 = 3 <= n^2 = 4 < 10^6 >> 17
    assert all(v <= 4 for v in res.stats.phase_values)


def test_scaling_matches_direct_on_small_caps():
    rng = random.Random(65)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(2, 8), rng.randint(1, 14), 3, st=False)
        res = capacity_scaled_max_flow(inst, edmonds_karp)
        want = edmonds_karp(inst).stats.value
        assert res.stats.value == want
        n2 = inst.n * inst.n
        assert all(v <= n2 for v in res.stats.phase_values)


def test_scaling_on_multigraphs():
    # parallel arcs can carry more than n^2 in a doubling phase; the bound
    # is m + n.  Phase 1 is a full solve of capacities at most n^2 and has
    # no value bound
    arcs = [(0, 1, 11), (0, 1, 10), (1, 0, 11), (0, 1, 11), (1, 0, 7),
            (1, 0, 9), (1, 0, 7), (0, 1, 2), (1, 0, 7), (0, 1, 11)]
    g, caps = build_graph(2, arcs)
    big = sum(caps) + 1
    inst = FlowInstance(g, caps, [big, 0], [0, big])
    res = capacity_scaled_max_flow(inst, exact_solver(Fraction(2, 3), seed=1))
    assert res.stats.value == edmonds_karp(inst).stats.value == 45
    assert max(res.stats.phase_values[1:]) > 4
    rng = random.Random(68)
    doubling = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 40))
                for _ in range(rng.randint(1, 14))]
        g, caps = build_graph(n, [(u, v, c) for u, v, c in arcs if u != v])
        inst = FlowInstance(g, caps, [sum(caps) + 1] + [0] * (n - 1),
                            [0] * (n - 1) + [sum(caps) + 1])
        for inner in (edmonds_karp, exact_solver(Fraction(1, 16), seed=0)):
            res = capacity_scaled_max_flow(inst, inner)
            assert res.stats.value == edmonds_karp(inst).stats.value
            assert all(v <= g.m + n for v in res.stats.phase_values[1:])
        doubling += res.stats.phases > 1
    assert doubling >= 50


def test_scaling_phase_count_formula():
    # the fewest shifts s with U >> s <= n^2 = 4, plus one
    for u, phases in [(1, 1), (2, 1), (3, 1), (4, 1), (5, 2), (1023, 9), (1024, 9)]:
        g, caps = build_graph(2, [(0, 1, u)])
        inst = FlowInstance(g, caps, [u, 0], [0, u])
        res = capacity_scaled_max_flow(inst, edmonds_karp)
        assert res.stats.phases == phases, f"U={u}"
        assert res.stats.value == u


@pytest.mark.parametrize("n", [2, 3, 8])
def test_scaling_starts_at_the_fewest_shifts_to_n_squared(n):
    n2 = n * n
    for u in (1, 2, 3, 4, 5, n2, n2 + 1, 2 * n2, 1023, 1024, 10 ** 6 - 1, 10 ** 6):
        shift = scaling_shift(u, n)
        g, caps = build_graph(n, [(v, v + 1, u >> v) for v in range(n - 1)])
        inst = FlowInstance(g, caps, [u] + [0] * (n - 1), [0] * (n - 1) + [u])
        seen = []

        def solve(rinst):
            seen.append(rinst)
            return edmonds_karp(rinst)
        res = capacity_scaled_max_flow(inst, solve)
        assert res.stats.phases == shift + 1, f"n={n} U={u}"
        # the source's supply U is shifted as the capacities are, but not
        # capped at max(n^2, m + n) as they are
        assert seen[0].delta[0] == u >> shift <= n2, f"n={n} U={u}"
        assert max(seen[0].cap, default=0) <= n2
        if shift:
            assert u >> (shift - 1) > n2
        assert res.stats.value == edmonds_karp(inst).stats.value
        # max_flow scales exactly when there is more than one phase
        assert max_flow(inst).stats.phases == (shift + 1 if shift else 0)


def test_doubling_phase_guard_rejects_an_over_full_residual_flow():
    # three parallel arcs: phase 1, at capacities 1000 >> 8 = 3, routes
    # 9 > m + n = 5 and is a full solve with no value bound; a doubling
    # phase's residual value above m + n is a solver fault
    g, caps = build_graph(2, [(0, 1, 1000)] * 3)
    inst = FlowInstance(g, caps, [10 ** 4, 0], [0, 10 ** 4])
    assert capacity_scaled_max_flow(inst, edmonds_karp).stats.phase_values[0] == 9
    calls = []

    def over_full(rinst):
        calls.append(rinst)
        res = edmonds_karp(rinst)
        if len(calls) > 1:
            res.flow.values[0] += g.m + g.n + 1
        return res
    with pytest.raises(SolverInvariantError, match="phase 2 "):
        capacity_scaled_max_flow(inst, over_full)
    assert len(calls) == 2


def test_scaling_with_exact_inner_solver():
    rng = random.Random(66)
    inst = random_instance(rng, 6, 14, 50, st=True)
    res = capacity_scaled_max_flow(inst, exact_solver(Fraction(1, 16), seed=0))
    want = edmonds_karp(inst).stats.value
    assert res.stats.value == want


def test_exact_progress_guarantee():
    # value strictly increases every iteration (safety net makes it so)
    rng = random.Random(67)
    inst = random_instance(rng, 10, 25, 5, st=True)
    res = max_flow_exact(inst, Fraction(1, 16), seed=1)
    assert res.stats.iterations <= edmonds_karp(inst).stats.value + 1


def _diffusion_multigraph(rng, n, m, cap):
    """Several sources and sinks, parallel, antiparallel and zero-capacity
    edges; one sink takes the whole supply, so every scaling phase is a
    diffusion instance too."""
    arcs = [(*rng.sample(range(n), 2), rng.randint(0, cap)) for _ in range(m)]
    for u, v, _c in arcs[:2]:
        arcs += [(u, v, rng.randint(0, cap)), (v, u, rng.randint(0, cap))]
    g, caps = build_graph(n, arcs)
    delta = [rng.choice([0, 0, rng.randint(1, cap)]) for _ in range(n)]
    nabla = [rng.choice([0, 0, rng.randint(1, cap)]) for _ in range(n)]
    nabla[rng.randrange(n)] += sum(delta)
    return FlowInstance(g, caps, delta, nabla)


@pytest.mark.parametrize("planted", [False, True])
def test_exact_driver_matches_the_per_iteration_reference(monkeypatch, planted):
    # the driver keeps one residual across iterations; the reference makes
    # each from the flow so far.  Planted: push-relabel at height 1 and a
    # builder failing on every fifth seed, for several iterations per solve,
    # safety nets and build failures
    if planted:
        real_pr, real_build = maxflow.push_relabel, maxflow.build_hierarchy

        def flaky(g, cap, phi, seed, *args, **kwargs):
            if seed % 5 == 0:
                raise BuildFailedError("planted")
            return real_build(g, cap, phi, seed, *args, **kwargs)
        monkeypatch.setattr(maxflow, "push_relabel",
                            lambda inst, w, h, **kwargs: real_pr(inst, w, 1, **kwargs))
        monkeypatch.setattr(maxflow, "build_hierarchy", flaky)
    rng = random.Random(70)
    totals = [0, 0, 0]
    for trial in range(30):
        n = rng.randint(3, 12)
        inst = _diffusion_multigraph(rng, n, rng.randint(n, 4 * n), rng.choice([3, 12, 1000]))
        phi = rng.choice([None, Fraction(1, 16)])
        res = max_flow_exact(inst, phi, seed=trial)
        ref = per_iteration_exact(inst, phi, seed=trial)
        assert (res.flow.values, res.stats) == (ref.flow.values, ref.stats), f"trial {trial}"
        scaled = capacity_scaled_max_flow(inst, exact_solver(phi, seed=trial))
        want = capacity_scaled_max_flow(inst, lambda i: per_iteration_exact(i, phi, trial))
        assert scaled.flow.values == want.flow.values, f"trial {trial}"
        totals[0] += res.stats.iterations > 1
        totals[1] += res.stats.safety_net_hits
        totals[2] += res.stats.build_failures
    if planted:
        assert all(totals)


def test_sink_distances_count_usable_residual_arcs_to_the_open_sinks():
    # on random feasible flows, so reverse arcs count and saturated or
    # zero-capacity ones do not
    rng = random.Random(36)
    for _ in range(40):
        n = rng.randint(2, 12)
        inst = _diffusion_multigraph(rng, n, rng.randint(0, 3 * n), 5)
        res = residual(inst, random_feasible_flow(rng, inst))
        g = inst.g
        # unit arcs from head to tail: distances from the open sinks backwards
        back = [(g.arc_head[a], g.arc_tail[a], 1) for a in range(2 * g.m) if res.arc_cap[a] > 0]
        dist = bellman_ford_arcs(n, back, [v for v in range(n) if res.nabla_f[v] > 0])
        assert maxflow._sink_distances(res) == [n if d == math.inf else d for d in dist]


def _finds_no_path(*args):
    return None, -1, -1


def test_driver_stops_on_its_own_search_not_on_the_path_search(monkeypatch):
    # with `_bfs_path` finding nothing, solves that route something and
    # make no safety net still reach the exhaustive minimum cut, so a path
    # search that hid a path would not stop the driver and its
    # Edmonds-Karp oracle at the same wrong value
    rng = random.Random(40)
    cases = []
    for trial in range(60):
        n = rng.randint(2, 9)
        inst = _diffusion_multigraph(rng, n, rng.randint(n, 3 * n), rng.choice([3, 12]))
        stats = max_flow_exact(inst, seed=trial).stats
        if stats.iterations and not stats.safety_net_hits:
            cases.append((inst, trial))
    assert len(cases) >= 20
    monkeypatch.setattr(maxflow, "_bfs_path", _finds_no_path)
    for inst, trial in cases:
        assert max_flow_exact(inst, seed=trial).stats.value == max_flow_value_by_cuts(inst)


def test_safety_net_without_a_path_where_the_distances_show_one_raises(monkeypatch):
    real_pr = maxflow.push_relabel

    def routes_nothing(inst, w, h, **kwargs):
        return real_pr(FlowInstance(inst.g, inst.cap, [0] * inst.n, inst.nabla), w, h, **kwargs)
    monkeypatch.setattr(maxflow, "push_relabel", routes_nothing)
    monkeypatch.setattr(maxflow, "_bfs_path", _finds_no_path)
    g, caps = build_graph(2, [(0, 1, 5)])
    with pytest.raises(SolverInvariantError, match="_bfs_path finds no path"):
        max_flow_exact(FlowInstance(g, caps, [5, 0], [0, 5]))


def test_driver_tau_respects_its_hierarchy_and_ranks_each_edge_less_block(monkeypatch):
    # every hierarchy the driver builds gets a tau that passes the
    # validator's check, and each block of a part with no edges left goes
    # out in ascending rank; the corpus reaches eta = 2 and several
    # iterations per solve
    real_build, built = maxflow.build_hierarchy, []

    def keep(g, cap, phi, seed, config, validate, rank):
        out = real_build(g, cap, phi, seed, config, validate=validate, rank=rank)
        built.append((g, out.hierarchy, rank))
        return out
    monkeypatch.setattr(maxflow, "build_hierarchy", keep)
    rng = random.Random(36)
    for s in range(24):
        n = rng.randint(8, 60)
        inst = (generate("random", s, n=n, m=4 * n, cap=12).instance() if s % 2 else
                _diffusion_multigraph(rng, n, 3 * n, 12))
        assert max_flow_exact(inst, seed=s).stats.value == edmonds_karp(inst).stats.value
    multi = 0
    for g, hier, rank in built:
        lv = hier.level_of(g.m)
        split = [scc_subgraph(g, range(g.n), [e for e in range(g.m) if lv[e] <= i])
                 for i in range(1, hier.eta + 1)]
        rep = ValidationReport()
        _check_tau(g, hier, [comps for comps, _, _ in split], rep)
        assert rep.errors == []
        # a level-i component none of whose edges lie below level i
        blocks = [list(range(g.n))] if g.m == 0 else []
        for i, (comps, inner, _) in enumerate(split, start=1):
            blocks += [c for c, edges in zip(comps, inner) if all(lv[e] == i for e in edges)]
        for block in blocks:
            assert sorted(block, key=hier.tau.__getitem__) == sorted(block, key=rank.__getitem__)
        multi += sum(len(b) > 1 for b in blocks)
    assert max(hier.eta for _, hier, _ in built) >= 2
    assert multi > 0


def test_scaled_phase_with_more_supply_than_sink_capacity():
    # vertex 0 supplies 4 to sinks of capacity 3 and 1: shifted by 1, the
    # supply is 2 and the sink capacities 1 and 0; both capacities exceed
    # n^2 = 9, so that shift is a doubling phase's
    solver, over = exact_solver(), []

    def spy(rinst):
        over.append(sum(rinst.delta) > sum(rinst.nabla))
        return solver(rinst)
    for cap, solve in ((40, lambda inst: capacity_scaled_max_flow(inst, spy)),
                       (10, max_flow)):
        g, caps = build_graph(3, [(0, 1, cap), (0, 2, cap)])
        inst = FlowInstance(g, caps, [4, 0, 0], [0, 3, 1])
        res = solve(inst)
        assert res.stats.value == 4 and res.stats.phases > 1, f"capacity {cap}"
        assert is_feasible(inst, res.flow)
        ref = capacity_scaled_max_flow(inst, per_iteration_exact)
        assert ref.flow.values == res.flow.values, f"capacity {cap}"
    assert any(over[1:])


def test_max_flow_matches_the_oracle_on_diffusion_and_st_multigraphs():
    # one or two sources and two or three sinks (or an s-t instance),
    # parallel, antiparallel and zero-capacity edges, capacities below and
    # above n^2; a scaled phase's shifted sink capacities can then fall
    # below its supply
    rng = random.Random(71)
    scaled = 0
    for trial in range(60):
        n = rng.randint(3, 8)
        cap = rng.choice([3, n * n, 50, 10 ** 6])
        arcs = [(*rng.sample(range(n), 2), rng.randint(0, cap))
                for _ in range(rng.randint(n, 3 * n))]
        for u, v, _c in arcs[:2]:
            arcs += [(u, v, rng.randint(0, cap)), (v, u, rng.randint(0, cap))]
        if trial % 3 == 0:
            inst = st_instance(n, arcs, 0, n - 1)
        else:
            g, caps = build_graph(n, arcs)
            delta = [0] * n
            for v in rng.sample(range(n), rng.randint(1, 2)):
                delta[v] = rng.randint(1, cap)
            # the supply split over two or three sinks, none taking all of it
            total = sum(delta)
            cuts = sorted(rng.randint(1, max(total - 1, 1)) for _ in range(rng.randint(1, 2)))
            nabla = [0] * n
            for v, lo, hi in zip(rng.sample(range(n), 3), [0] + cuts, cuts + [total]):
                nabla[v] = hi - lo
            inst = FlowInstance(g, caps, delta, nabla)
        res = max_flow(inst, seed=trial)
        assert res.stats.value == edmonds_karp(inst).stats.value, f"trial {trial}"
        assert is_feasible(inst, res.flow), f"trial {trial}"
        scaled += res.stats.phases > 0
    assert scaled >= 10


def test_exact_driver_rejects_a_lifted_flow_outside_the_capacities(monkeypatch):
    real_pr = maxflow.push_relabel

    def overflowing(inst, w, h, **kwargs):
        r = real_pr(inst, w, h, **kwargs)
        r.flow.values[0] += inst.cap[0] + 1
        return r
    monkeypatch.setattr(maxflow, "push_relabel", overflowing)
    g, caps = build_graph(3, [(0, 1, 2), (1, 2, 2)])
    with pytest.raises(InfeasibleFlowError, match="outside"):
        max_flow_exact(FlowInstance(g, caps, [2, 0, 0], [0, 0, 2]), seed=0)


def _no_validation(*args, **kwargs):
    raise AssertionError("the exact driver must not call validate_hierarchy")


@pytest.mark.parametrize("seed,n", [(1, 50), (3, 30), (5, 50)])
def test_exact_without_validation_on_refuted_builds(monkeypatch, seed, n):
    # here a 300-cut sampled validation refutes the driver's first build;
    # the answer must not depend on validation
    monkeypatch.setattr("hierflow.builder.validate_hierarchy", _no_validation)
    inst = generate("random", seed=seed, n=n, m=4 * n, cap=12).instance()
    res = max_flow_exact(inst, seed=1)
    assert res.stats.value == edmonds_karp(inst).stats.value
    assert is_feasible(inst, res.flow)


def test_exact_without_validation_on_random_instances(monkeypatch):
    monkeypatch.setattr("hierflow.builder.validate_hierarchy", _no_validation)
    rng = random.Random(68)
    for trial in range(20):
        inst = random_instance(rng, rng.randint(3, 14), rng.randint(2, 40),
                               rng.randint(1, 10), st=trial % 2 == 0)
        res = max_flow_exact(inst, seed=1)
        assert res.stats.value == edmonds_karp(inst).stats.value, f"trial {trial}"
        assert is_feasible(inst, res.flow)


def _digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(repr((dataclasses.astuple(r.stats), r.flow.values)).encode())
    return h.hexdigest()


def _exact_results():
    for s in range(30):
        model = ("random", "dag", "grid")[s % 3]
        n = 6 + s % 19
        size = dict(rows=3, cols=2 + s % 5) if model == "grid" else dict(n=n, m=3 * n)
        yield max_flow_exact(generate(model, s, cap=1 + s % 12, **size).instance(), seed=s)


def _scaled_results():
    for s in range(10):
        n = 6 + s
        inst = generate("random", 100 + s, n=n, m=3 * n, cap=10 ** 6).instance()
        inner = []

        def solve(rinst):
            inner.append(max_flow_exact(rinst, seed=s))
            return inner[-1]
        yield capacity_scaled_max_flow(inst, solve)
        yield from inner


def test_exact_solves_are_bit_identical_to_the_recorded_digest():
    # SolveStats (augmentations, climbs, phases, ...) and flows of seeded
    # solves, hashed: any change to which flow push-relabel finds, or to
    # how much relabel work it counts, changes a digest.  The digests were
    # recorded with the link-cut (capacitated) augmentation in the driver,
    # and re-pinned when push-relabel's global lift, and again when the
    # drain's lift schedule, moved the flows, the augmentation and the
    # relabel counts (values, iterations, safety nets and phases hash as
    # before); and when the per-augmentation prune was deleted, which moved
    # the relabel counts of 29 of the 30 solves, the doomed now climbing
    # before they die (flows and every other field hash as before); and
    # when the driver began to order each edge-less block of tau by
    # residual distance to the open sinks, which moved the flows of 7, the
    # augmentation counts of 2 and the relabel counts of 9 of the 30 solves
    # (values, iterations, phases and safety nets hash as before).
    assert _digest(_exact_results()) == (
        "f778c436d587b6a487f1cb2d9bf34df995e5f23656848ec59427b6ec4db6810b")
    # capacities up to 10^6: the scaled solve and every inner exact solve.
    # Re-pinned when the scaled solve began to sum its phases' iterations,
    # augmentations, relabels, safety nets and build failures; the flows,
    # values, phases and phase values hash as before; re-pinned again with
    # the global lift and with the drain's lift schedule, as above; and
    # when scaling began at the fewest shifts that bring the capacities to
    # n^2 (14-16 phases, not 21), which moved the phases, phase values,
    # summed counters and inner solves, and 9 of the 10 flows to other
    # maximum flows of the same values; and with the prune's deletion, as
    # above: the relabel counts of 118 of the 157 scaled and inner solves;
    # and with the distance order of tau's edge-less blocks, as above: the
    # flows of 152, the augmentation counts of 10 and the relabel counts of
    # 32 of the 157 solves (values, iterations, phases, phase values and
    # safety nets hash as before).
    assert _digest(_scaled_results()) == (
        "f7d9a0498566fe5f29266fb47ead8bd292a38cab08910124a129d246d73b0ecb")
