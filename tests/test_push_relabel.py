import hashlib
import importlib
import math
import random
from dataclasses import replace

import pytest

from hierflow.config import DEFAULT_CONFIG
from hierflow.errors import (BadInstanceError, BadParamsError, SolverInvariantError,
                             WeightZeroError)
from hierflow.graph import Flow, FlowInstance, build_graph, flow_stats, is_feasible
from hierflow.builder import build_hierarchy
from hierflow.generators import gen_cycle, gen_dag, gen_random
from hierflow.hierarchy import Hierarchy
from hierflow.maxflow import (dag_approx_flow, edmonds_karp, max_flow, max_flow_exact,
                              scaling_shift)
from hierflow.sparse_cut import sparse_cut
from hierflow.push_relabel import _Engine, push_relabel

from helpers import dijkstra_residual, random_instance, reachability_closure

DBG = replace(DEFAULT_CONFIG, debug_invariants=True)


def _single_edge(cap=1, w=1):
    g, caps = build_graph(2, [(0, 1, cap)])
    inst = FlowInstance(g, caps, [cap, 0], [0, cap])
    return inst, [w]


def test_single_edge_routes():
    inst, w = _single_edge()
    r = push_relabel(inst, w, 2)
    assert r.value == 1
    assert r.flow.values == [1]


def test_heavy_edge_starves_source():
    # admissibility needs a gap of 200, but levels stop at 9h = 90
    inst, w = _single_edge(cap=1, w=100)
    r = push_relabel(inst, w, 10)
    assert r.value == 0
    assert not r.labels.alive[0]


def test_weight_zero_rejected():
    inst, _ = _single_edge()
    with pytest.raises(WeightZeroError):
        push_relabel(inst, [0], 2)


def test_bad_instance_rejected():
    g, caps = build_graph(2, [(0, 1, 1)])
    inst = FlowInstance(g, caps, [2, 0], [0, 1])
    with pytest.raises(BadInstanceError):
        push_relabel(inst, [1], 2)


def test_unknown_mode_rejected():
    inst, w = _single_edge()
    with pytest.raises(BadParamsError, match="bogus"):
        push_relabel(inst, w, 2, mode="bogus")


def test_relabel_jumps_to_weight_multiple():
    # one incident edge of weight 4: the first landing is level 4, and the
    # edge turns admissible at 8 (gap >= 2w); the augment then saturates
    # it, after which the aggressive rule climbs the source to death
    g, caps = build_graph(2, [(0, 1, 1)])
    inst = FlowInstance(g, caps, [1, 0], [0, 1])
    r = push_relabel(inst, [4], 3, config=DBG)
    assert r.relabel_events[0] == (0, 0, 4)
    assert r.relabel_events[1] == (0, 4, 8)
    assert r.value == 1
    assert all(new % 4 == 0 or new == 28 for _v, _old, new in r.relabel_events)


def test_death_at_nine_h_plus_one():
    # w=1 edge, h=1: source climbs past 9h = 9 and dies at 10 when the
    # edge can never become admissible (head keeps rising too)
    g, caps = build_graph(2, [(0, 1, 1)])
    inst = FlowInstance(g, caps, [2, 0], [0, 2])
    r = push_relabel(inst, [1], 1, config=DBG)
    assert r.value == 1
    assert not r.labels.alive[0]
    assert r.labels.levels[0] == 10


def test_unit_path_augments_whole_path():
    g, caps = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    inst = FlowInstance(g, caps, [1, 0, 0, 0], [0, 0, 0, 1])
    r = push_relabel(inst, [1, 1, 1], 4, mode="unit")
    assert r.value == 1
    assert len(r.augmentations) == 1
    assert r.augmentations[0].amount == 1


def test_capacitated_bottleneck():
    g, caps = build_graph(4, [(0, 1, 5), (1, 2, 3), (2, 3, 7)])
    inst = FlowInstance(g, caps, [10, 0, 0, 0], [0, 0, 0, 10])
    r = push_relabel(inst, [1, 1, 1], 4, mode="capacitated")
    first = r.augmentations[0]
    assert first.amount == 3
    assert r.value == 3


def _check_theorem_guarantees(inst, w, h, r):
    # feasibility and conservation
    assert is_feasible(inst, r.flow)
    st = flow_stats(inst, r.flow)
    assert st.value == r.value
    # (ii) total weight at most 9h|f|
    wf = sum(w[e] * r.flow.values[e] for e in range(inst.m))
    assert wf <= 9 * h * max(r.value, 0)
    for rec in r.augmentations:
        assert rec.w_length <= 9 * h
    # (i) residual distance from unsaturated sources to sinks exceeds 3h
    sources = [v for v in range(inst.n) if st.excess[v] > 0]
    sinks = [v for v in range(inst.n) if inst.nabla[v] - st.absorption[v] > 0]
    if sources and sinks:
        dist = dijkstra_residual(inst, r.flow, w, sources)
        for t in sinks:
            assert dist[t] > 3 * h, f"sink {t} at distance {dist[t]} <= {3 * h}"
    # liveness: an alive vertex reaches an unsaturated sink in the final
    # residual graph.  A dead one may still reach such a sink, but only
    # beyond w-distance 3h: every residual arc keeps l(u) - l(v) < 3w (I-1),
    # open sinks sit at level 0 and dead vertices at 9h + 1.
    g = inst.g
    arcs = [(g.tails[e], g.heads[e], w[e]) for e in range(inst.m) if inst.cap[e] > r.flow.values[e]]
    arcs += [(g.heads[e], g.tails[e], w[e]) for e in range(inst.m) if r.flow.values[e] > 0]
    reach = reachability_closure(inst.n, [(u, v) for u, v, _ in arcs])
    lvl = r.labels.levels
    for v in range(inst.n):
        assert r.labels.alive[v] == (lvl[v] <= 9 * h)
        if r.labels.alive[v]:
            assert any(reach[v][t] for t in sinks), f"alive {v} reaches no open sink"
    for t in sinks:
        assert lvl[t] == 0
    for u, v, we in arcs:
        assert lvl[u] - lvl[v] < 3 * we, f"residual arc {u}->{v} spans {lvl[u] - lvl[v]}"


def test_guarantees_random_unit_instances():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(3, 10), rng.randint(3, 25), 1, st=False)
        w = [rng.randint(1, 4) for _ in range(inst.m)]
        h = rng.randint(2, 12)
        r = push_relabel(inst, w, h, config=DBG)
        _check_theorem_guarantees(inst, w, h, r)


def test_guarantees_random_capacitated_instances():
    rng = random.Random(22)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(3, 10), rng.randint(3, 25),
                               rng.randint(2, 9), st=False)
        w = [rng.randint(1, 5) for _ in range(inst.m)]
        h = rng.randint(2, 15)
        r = push_relabel(inst, w, h, config=DBG)
        _check_theorem_guarantees(inst, w, h, r)


def _lift_corpus(rng, count):
    """Diffusion instances n 2-14: parallel arcs, zero capacities, up to
    three sources, several sinks, weights up to n and h from 1 to the
    total weight."""
    for _ in range(count):
        n = rng.randint(2, 14)
        arcs = [tuple(rng.sample(range(n), 2)) + (rng.choice((0, 1, 1, 2, 3)),)
                for _ in range(rng.randint(1, 4 * n))]
        g, caps = build_graph(n, arcs)
        delta, nabla = [0] * n, [0] * n
        for _ in range(rng.randint(1, 3)):
            delta[rng.randrange(n)] += rng.randint(1, 3 * n)
        total = sum(delta) + rng.choice((0, 2))
        while total > 0:
            amt = rng.randint(1, total)
            nabla[rng.randrange(n)] += amt
            total -= amt
        w = [rng.randint(1, n) for _ in arcs]
        yield FlowInstance(g, caps, delta, nabla), w, rng.choice((1, 2, n, sum(w)))


def test_guarantees_with_scheduled_lifts(monkeypatch):
    # the debug scheduler checks I-1 to I-3 after every lift and every
    # step; where h is at least the total weight every path is h-short,
    # so (iii) reads 6|f| >= the max flow
    lifts = []
    real_lift = _Engine._lift

    def counted(engine):
        lifts[-1] += 1
        real_lift(engine)

    monkeypatch.setattr(_Engine, "_lift", counted)
    for inst, w, h in _lift_corpus(random.Random(5), 200):
        lifts.append(0)
        r = push_relabel(inst, w, h, config=DBG)
        _check_theorem_guarantees(inst, w, h, r)
        if h >= sum(w):
            assert 6 * r.value >= edmonds_karp(inst).stats.value
    assert sum(count > 1 for count in lifts) >= 10


def _start_levels(inst, w, h, lift):
    """Levels and liveness before the first augmentation: after the lift,
    or after climbing every vertex from level 0 as the drain alone did."""
    engine = _Engine(inst, w, h, "unit", DBG)
    if lift:
        engine._lift()
    else:
        for v in range(engine.n):
            engine._enqueue(v)
        engine.lift_climbs = math.inf  # the drain alone: no scheduled lift
    engine._drain()
    return engine.level, engine.alive


def test_lift_starts_no_vertex_below_the_drain():
    # Climbing keeps an arc admissible while its gap is between w and 2w,
    # so a vertex can stop below the lift's level, never above it; the lift
    # also kills vertices whose every way to an open sink runs above 9h.
    higher = killed = 0
    for inst, w, h in _lift_corpus(random.Random(6), 400):
        (drained, drain_alive), (lifted, lift_alive) = (
            _start_levels(inst, w, h, lift) for lift in (False, True))
        assert all(a >= b for a, b in zip(lifted, drained))
        assert all(b or not a for a, b in zip(lift_alive, drain_alive))
        higher += lifted != drained
        killed += lift_alive != drain_alive
    assert higher >= 30 and killed >= 5


def test_at_most_n_climbs_between_lifts(monkeypatch):
    # the drain lifts before a climb once n climbs have passed since the
    # last lift.  Each solve here is one driver run (the builder certifies
    # without playing a game round, so no sparse_cut engine runs)
    runs = []  # per push-relabel run: n, then the climbs after each lift
    real_run, real_lift, real_climb = _Engine.run, _Engine._lift, _Engine._climb

    def run(engine):
        runs.append([engine.n])
        return real_run(engine)

    def lift(engine):
        runs[-1].append(0)
        real_lift(engine)

    def climb(engine, v):
        runs[-1][-1] += 1
        real_climb(engine, v)

    monkeypatch.setattr(_Engine, "run", run)
    monkeypatch.setattr(_Engine, "_lift", lift)
    monkeypatch.setattr(_Engine, "_climb", climb)
    for seed in range(1, 7):
        inst = gen_random(200, 800, 12, seed).instance()
        assert max_flow_exact(inst, seed=seed).stats.value == edmonds_karp(inst).stats.value
    assert sum(len(run) > 2 for run in runs) >= 5  # scheduled lifts happen
    assert all(max(run[1:]) <= run[0] for run in runs)


def test_lift_keeps_the_cycle_to_2n_minus_2_climbs():
    # climbing alone, without the lift, ping-pongs about n^2 / 5 times here.
    # The first lift makes n - 1 climbs.  The one augmentation dooms every
    # vertex but the sink, and each climbs once more, to its death, before
    # n climbs would call the next lift
    n = 1000
    res = max_flow_exact(gen_cycle(n, 3).instance(), seed=1)
    assert res.stats.value == 3 and res.stats.relabels == 2 * n - 2


def test_one_sixth_approximation_on_dags():
    rng = random.Random(23)
    for _ in range(40):
        n = 12
        perm = list(range(n))
        rng.shuffle(perm)
        arcs = []
        seen = set()
        for _ in range(30):
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            if (perm[i], perm[j]) not in seen:
                seen.add((perm[i], perm[j]))
                arcs.append((perm[i], perm[j], 1))
        if not arcs:
            continue
        g, caps = build_graph(n, arcs)
        pos = [0] * n
        for i, v in enumerate(perm):
            pos[v] = i + 1
        delta = [0] * n
        nabla = [0] * n
        delta[perm[0]] = len(arcs) + 1
        nabla[perm[-1]] = len(arcs) + 1
        inst = FlowInstance(g, caps, delta, nabla)
        w = [abs(pos[g.heads[e]] - pos[g.tails[e]]) for e in range(g.m)]
        r = push_relabel(inst, w, n, mode="unit")
        fstar = edmonds_karp(inst).stats.value
        assert 6 * r.value >= fstar


def test_work_accounting_bounds():
    rng = random.Random(24)
    for _ in range(25):
        inst = random_instance(rng, 8, 20, 6, st=False)
        w = [rng.randint(1, 4) for _ in range(inst.m)]
        h = rng.randint(2, 10)
        r = push_relabel(inst, w, h)
        for e in range(inst.m):
            events = r.edge_saturations[e] + r.edge_flips[e]
            assert events <= 20 * (h / w[e] + 1), (
                f"edge {e}: {events} events vs bound {20 * (h / w[e] + 1)}")
        total_paths = r.augment_count
        assert total_paths <= 20 * (inst.n + sum(h / we for we in w))


def test_levels_visited_bound():
    rng = random.Random(25)
    for _ in range(15):
        inst = random_instance(rng, 6, 14, 3, st=False)
        w = [rng.randint(1, 4) for _ in range(inst.m)]
        h = rng.randint(2, 8)
        r = push_relabel(inst, w, h, config=DBG)
        g = inst.g
        for v in range(inst.n):
            incident = g.out_edges[v] + g.in_edges[v]
            if not incident:
                continue
            bound = sum(9 * h / w[e] + 1 for e in incident) + 1
            assert r.levels_visited[v] <= bound


def test_label_gap_certificate_trivial():
    g, caps = build_graph(2, [(0, 1, 1)])
    inst = FlowInstance(g, caps, [1, 0], [0, 2])
    r = push_relabel(inst, [1], 2)
    # unsaturated sink stays at level zero, so the gap is the source level
    assert r.labels.levels[1] == 0
    # the source saturates its only edge and then climbs past 9h
    assert not r.labels.alive[0]
    assert r.labels.levels[0] - r.labels.levels[1] > 9 * 2


def test_label_gap_within_three_distances_by_replay():
    rng = random.Random(26)
    checked = 0
    for _ in range(10):
        inst = random_instance(rng, 8, 20, 4, st=False)
        w = [rng.randint(1, 4) for _ in range(inst.m)]
        h = rng.randint(3, 10)
        r = push_relabel(inst, w, h, config=DBG)
        f = Flow.zero(inst.m)
        for rec in r.augmentations:
            labels = rec.labels
            # levels at augment time against residual distances just before it
            for _ in range(5):
                s = rng.randrange(inst.n)
                t = rng.randrange(inst.n)
                dist = dijkstra_residual(inst, f, w, [s])
                if dist[t] != math.inf:
                    assert labels[s] - labels[t] <= 3 * dist[t]
                    checked += 1
            for a in rec.arcs:
                e = a >> 1
                f.values[e] += -rec.amount if a & 1 else rec.amount
    assert checked > 50


def test_fast_and_debug_schedulers_agree():
    rng = random.Random(27)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(3, 9), rng.randint(2, 20),
                               rng.randint(1, 6), st=False)
        w = [rng.randint(1, 5) for _ in range(inst.m)]
        h = rng.randint(2, 9)
        fast = push_relabel(inst, w, h)
        slow = push_relabel(inst, w, h, config=replace(DEFAULT_CONFIG, debug_invariants=True))
        assert fast.value == slow.value
        assert fast.flow.values == slow.flow.values
        assert fast.labels.levels == slow.labels.levels
        assert fast.labels.alive == slow.labels.alive
        assert fast.labels.admissible == slow.labels.admissible
        assert fast.relabel_landings == slow.relabel_landings
        assert fast.relabel_climbs == slow.relabel_climbs
        assert fast.levels_visited == slow.levels_visited
    # the exact driver's regime: unit walks at capacities far above 1,
    # weights up to n and heights up to n^2; the debug run checks I-1 to
    # I-3 after every step
    for _ in range(60):
        n = rng.randint(3, 12)
        inst = _random_multigraph_instance(rng, n)
        w = [rng.randint(1, n) for _ in range(inst.m)]
        for h in (n, n * n):
            fast = push_relabel(inst, w, h, mode="unit")
            slow = push_relabel(inst, w, h, mode="unit",
                                config=replace(DEFAULT_CONFIG, debug_invariants=True))
            assert _run_trace(fast) == _run_trace(slow)


@pytest.mark.parametrize("break_state,which", [
    (lambda e: e.level.__setitem__(0, 3), "I-1"),  # residual arc 0 -> 1 spans 3 = 3w
    (lambda e: e.adm.__setitem__(0, True), "I-2"),  # admissible arc 0 -> 1 at gap 0
    (lambda e: e.alive.__setitem__(1, False), "I-3"),  # dead at level 0
    (lambda e: e.level.__setitem__(2, 1), "I-3"),  # unsaturated sink above level 0
    # arc 0 -> 1 admissible at gap 2, but marked behind the scan's back:
    # vertex 0 keeps no current arc
    (lambda e: (e.level.__setitem__(0, 2), e.adm.__setitem__(0, True)), "current arc of 0"),
    (lambda e: e.current_arc.__setitem__(1, 2), "current arc of 1"),  # arc 1 -> 2 unmarked
])
def test_debug_oracle_raises_typed_errors(break_state, which):
    # the oracle raises SolverInvariantError rather than asserting, so the
    # debug scheduler keeps checking under python -O
    g, caps = build_graph(3, [(0, 1, 2), (1, 2, 2)])
    engine = _Engine(FlowInstance(g, caps, [2, 0, 0], [0, 0, 2]), [1, 1], 3, "unit", DBG)
    engine._assert_invariants()
    break_state(engine)
    with pytest.raises(SolverInvariantError, match=which):
        engine._assert_invariants()


def test_debug_oracle_checks_the_forest_against_the_residuals():
    # one unit routed along 0 -> 1 -> 2 saturates nothing, so both tree
    # edges stay linked; a raw entry that disagrees with its tree edge is
    # caught, not read around
    g, caps = build_graph(3, [(0, 1, 2), (1, 2, 2)])
    engine = _Engine(FlowInstance(g, caps, [1, 0, 0], [0, 0, 2]), [1, 1], 3, "capacitated", DBG)
    engine.run()
    assert len(engine.augments) == 1 and engine.forest.rep_par[:2] == [1, 2]
    engine._assert_invariants()
    engine.cf[engine.current_arc[0]] += 1
    with pytest.raises(SolverInvariantError, match="tree edge of 0 holds 1"):
        engine._assert_invariants()


@pytest.mark.parametrize("edges,delta,nabla,work,death_levels", [
    # 0 <-> 1, and the unit arc 1 -> 2 into the sink saturates
    ([(0, 1, 5), (1, 0, 5), (1, 2, 1)], [5, 0, 0], [0, 0, 5], (5, 20), [8, 10]),
    # the path 0 -> 1 -> 2 keeps capacity but sink 2 saturates; sink 3
    # stays open and unreachable
    ([(0, 1, 5), (1, 2, 5)], [5, 0, 0, 0], [0, 0, 1, 4], (6, 25), [8, 6, 8]),
])
def test_doomed_vertices_cost_the_same_work_at_any_height(edges, delta, nabla, work,
                                                          death_levels):
    # After the first unit is routed no vertex but the open sink reaches an
    # open sink.  The first lift makes two climbs (1 to 2, 0 to 4) of six
    # landings; the doomed then climb, four landings a climb, until n climbs
    # have passed, and the next lift kills them at the levels they reached,
    # one landing each: the work does not grow with h.
    g, caps = build_graph(len(delta), edges)
    inst = FlowInstance(g, caps, delta, nabla)
    doomed = len(delta) - 1
    for mode in ("unit", "capacitated"):
        for config in (DEFAULT_CONFIG, DBG):
            for h in (10, 1000, 10 ** 6):
                r = push_relabel(inst, [1] * len(edges), h, mode=mode, config=config)
                assert r.value == 1
                assert r.labels.alive == [False] * doomed + [True]
                assert (r.relabel_climbs, r.relabel_landings) == work
                if config.debug_invariants:
                    assert r.relabel_events[-doomed:] == [
                        (v, death_levels[v], 9 * h + 1) for v in range(doomed)]


def test_unit_and_capacitated_modes_agree_on_unit_caps():
    rng = random.Random(28)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(3, 9), rng.randint(2, 18), 1, st=False)
        w = [rng.randint(1, 4) for _ in range(inst.m)]
        h = rng.randint(2, 8)
        a = push_relabel(inst, w, h, mode="unit")
        b = push_relabel(inst, w, h, mode="capacitated")
        assert a.value == b.value
        assert a.flow.values == b.flow.values
        assert a.labels.levels == b.labels.levels


_CAPS = (1, 2, 3, 7, 10 ** 6, 10 ** 30)


def _random_multigraph_instance(rng, n):
    """Random diffusion instance on n vertices with parallel and
    antiparallel arcs, capacities drawn from _CAPS."""
    arcs = []
    for _ in range(rng.randint(2, 3 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.choice(_CAPS)))
        if rng.random() < 0.25:
            arcs.append((u, v, rng.choice(_CAPS)))
        if rng.random() < 0.25:
            arcs.append((v, u, rng.choice(_CAPS)))
    g, caps = build_graph(n, arcs)
    delta = [0] * n
    nabla = [0] * n
    for _ in range(rng.randint(1, max(1, n // 3))):
        delta[rng.randrange(n)] += rng.choice(_CAPS)
    total = sum(delta) + rng.choice((0, 1, 10 ** 6))
    while total > 0:
        amt = rng.randint(1, total)
        nabla[rng.randrange(n)] += amt
        total -= amt
    return FlowInstance(g, caps, delta, nabla)


def _run_trace(r):
    return (r.value, r.flow.values, r.labels.levels, r.labels.alive,
            r.labels.admissible, [(rec.arcs, rec.amount) for rec in r.augmentations],
            r.relabel_climbs, r.relabel_landings, r.edge_saturations, r.edge_flips,
            r.levels_visited)


def test_unit_and_capacitated_modes_agree_on_general_caps():
    # the unit mode walks paths and keeps raw cf; the capacitated mode must
    # reproduce it exactly through its lazily linked forest
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(3, 14)
        inst = _random_multigraph_instance(rng, n)
        w = [rng.randint(1, 5) for _ in range(inst.m)]
        for h in (1, 2, n, n * n):
            for config in (DEFAULT_CONFIG, replace(DEFAULT_CONFIG, debug_invariants=True)):
                a = push_relabel(inst, w, h, mode="unit", config=config)
                b = push_relabel(inst, w, h, mode="capacitated", config=config)
                assert _run_trace(a) == _run_trace(b)


def _counting_forests(monkeypatch):
    # the package exports the function push_relabel under the module's name
    pr = importlib.import_module("hierflow.push_relabel")
    forests = []

    class CountingForest(pr.DynForest):
        def __init__(self, n):
            super().__init__(n)
            self.links = 0
            forests.append(self)

        def link_unchecked(self, u, v, value):
            self.links += 1
            super().link_unchecked(u, v, value)

    monkeypatch.setattr(pr, "DynForest", CountingForest)
    return forests


def test_capacitated_mode_links_only_augmenting_arcs(monkeypatch):
    forests = _counting_forests(monkeypatch)
    rng = random.Random(30)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(3, 12), rng.randint(2, 30), 12, st=False)
        w = [rng.randint(1, 5) for _ in range(inst.m)]
        r = push_relabel(inst, w, rng.randint(2, 20), mode="capacitated")
        assert forests[-1].links <= sum(len(rec.arcs) for rec in r.augmentations)
    # no supply: vertices climb and mark arcs toward the sink, but no
    # augmentation walks them, so the forest is never touched
    g, caps = build_graph(5, [(0, 1, 4), (1, 2, 3), (2, 3, 5), (3, 4, 2), (0, 2, 2)])
    r = push_relabel(FlowInstance(g, caps, [0] * 5, [0, 0, 0, 0, 9]), [1] * 5, 10,
                     mode="capacitated")
    assert r.augmentations == [] and r.relabel_climbs > 0 and any(r.labels.admissible)
    assert forests[-1].links == 0 and forests[-1].rep_par == [-1] * 5


def test_no_production_path_builds_a_forest(monkeypatch):
    # only the capacitated reference mode builds a forest: the exact driver,
    # scaled or not, the builder and its validation, the sparse-cut search
    # and the DAG approximation all augment by unit walks
    pr = importlib.import_module("hierflow.push_relabel")

    class NoForest(pr.DynForest):
        def __init__(self, n):
            raise AssertionError("a production path built a forest")

    rng = random.Random(31)
    plain = random_instance(rng, 12, 40, 6)
    big = random_instance(rng, 10, 30, 10 ** 6)
    assert scaling_shift(plain) == 0 and scaling_shift(big) > 0
    n = 9
    arcs = [(i, (i + 1) % n, rng.randint(1, 3)) for i in range(n)]
    arcs += [(rng.randrange(n), rng.randrange(n), rng.randint(1, 3)) for _ in range(12)]
    g, caps = build_graph(n, [a for a in arcs if a[0] != a[1]])
    delta, nabla = [0] * n, [0] * n
    delta[0], delta[4], nabla[2], nabla[7] = 3, 2, 4, 1
    cut_inst = FlowInstance(g, caps, delta, nabla)
    no_levels = Hierarchy(set(), [], list(range(1, n + 1)))
    dag = gen_dag(12, 30, 5, seed=3).instance()

    def outcomes():
        a, b = max_flow(plain), max_flow(big)
        built = build_hierarchy(plain.g, plain.cap, seed=1)
        cut = sparse_cut(cut_inst, 5, set(range(g.m)), no_levels)
        approx = dag_approx_flow(dag)
        return ((a.stats.value, a.flow.values), (b.stats.value, b.flow.values),
                (built.hierarchy, built.report.ok), (cut.value, cut.cut, cut.flow.values),
                (approx.value, approx.flow.values))

    before = outcomes()
    monkeypatch.setattr(pr, "DynForest", NoForest)
    after = outcomes()
    assert after == before
    (a, _), (b, _), (_, ok), (cut_value, cut, _), (approx_value, _) = after
    assert a == edmonds_karp(plain).stats.value and b == edmonds_karp(big).stats.value
    assert ok
    scaled = FlowInstance(g, [5 * c for c in caps], delta, nabla)
    assert cut is None and cut_value == edmonds_karp(scaled).stats.value == sum(delta)
    assert approx_value == edmonds_karp(dag).stats.value


_PIN_CAPS = (1, 3, 12, 10 ** 6)


def _pinned_instances():
    """Seeded diffusion instances, n 3-40 with capacities from _PIN_CAPS;
    every fourth one dense (about n(n-1)/3 distinct arcs)."""
    rng = random.Random(31)
    for i in range(100):
        n = rng.randint(3, 40)
        if i % 4 == 3:
            pairs = rng.sample([(u, v) for u in range(n) for v in range(n) if u != v],
                               n * (n - 1) // 3)
        else:
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(2, 3 * n))]
        g, caps = build_graph(n, [(u, v, rng.choice(_PIN_CAPS)) for u, v in pairs])
        delta = [0] * n
        nabla = [0] * n
        for _ in range(rng.randint(1, max(1, n // 3))):
            delta[rng.randrange(n)] += rng.choice(_PIN_CAPS)
        total = sum(delta) + rng.choice((0, 1, 12))
        while total > 0:
            amt = rng.randint(1, total)
            nabla[rng.randrange(n)] += amt
            total -= amt
        yield (FlowInstance(g, caps, delta, nabla), [rng.randint(1, n) for _ in pairs],
               rng.randint(1, n * n))


def _pin(r):
    return (r.flow.values, r.labels.levels, r.labels.alive, r.labels.admissible,
            [(rec.arcs, rec.amount, rec.w_length, rec.labels) for rec in r.augmentations],
            r.edge_saturations, r.edge_flips, r.relabel_climbs, r.levels_visited,
            r.delta_residual, r.nabla_residual, r.relabel_events)


def test_push_relabel_is_bit_identical_to_the_recorded_digest():
    # flows, labels, marks, augment records, work counters, residual
    # vectors and (debug) relabel events of seeded runs in both modes and
    # both schedulers, hashed: any change to what push-relabel computes or
    # counts changes the digest.  Re-pinned when the global lift replaced
    # the first drain and every n-th climb's prune, when fast runs stopped
    # snapshotting labels (the old pin with their labels blanked), when
    # the drain took over the lift schedule (flows, labels, marks, augment
    # records and work counters moved), and when the per-augmentation prune
    # was deleted: doomed vertices climb before they die, which moved the
    # climbs and landings, the mark flips, the debug relabel events and
    # augment-time labels, and the final levels of three live vertices on
    # one instance; flows, values, liveness, augmented paths and residual
    # vectors hash as before.
    digest = hashlib.sha256()
    for inst, w, h in _pinned_instances():
        for mode in ("unit", "capacitated"):
            for config in (DEFAULT_CONFIG, DBG) if inst.m <= 150 else (DEFAULT_CONFIG,):
                digest.update(repr(_pin(push_relabel(inst, w, h, mode=mode,
                                                     config=config))).encode())
    assert digest.hexdigest() == (
        "c0e2dd3ced3f32dc7c51c2b5cdaa9f5b1ef60839a2634ae3adf74ed2171953fb")
