"""Acceptance suite: one test per criterion, each printing a PASS line.

Counts follow the stated requirements; set HIERFLOW_ACCEPT_SCALE below 1.0
to shrink the corpora during development (the shipped default is 1.0).
"""
import math
import os
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hierflow import cut_matching
from hierflow.builder import build_hierarchy
from hierflow.config import DEFAULT_CONFIG
from hierflow.cut_matching import cut_or_embed
from hierflow.forest import DynForest
from hierflow.generators import gen_cycle, gen_dumbbell, gen_grid, generate
from hierflow.graph import (Flow, FlowInstance, build_graph, flow_stats,
                            is_feasible, net_outflow, residual)
from hierflow.hierarchy import (Hierarchy, induced_weights, validate_hierarchy)
from hierflow.maxflow import (capacity_scaled_max_flow, dag_approx_flow,
                              driver_height, edmonds_karp,
                              max_flow_exact)
from hierflow.push_relabel import push_relabel
from hierflow.sparse_cut import sparse_cut, terminal_weights

from helpers import (dijkstra_residual, exhaustive_sparsest_cut,
                     random_instance, scaling_shift, shifted_instance)
from test_forest import NaiveForest
from test_sparse_cut import _oracle_min_level_cut

SCALE = float(os.environ.get("HIERFLOW_ACCEPT_SCALE", "1.0"))


def _count(full: int, minimum: int = 1) -> int:
    return max(minimum, int(round(full * SCALE)))


def _report(num, text):
    print(f"criterion {num} PASS - {text}")


# --- criterion 1: exactness over the seeded corpus ---------------------------


def _conservation_ok(inst, f, rng):
    st = flow_stats(inst, f)
    out = net_outflow(inst.g, f)
    for _ in range(20):
        subset = [v for v in range(inst.n) if rng.random() < 0.5]
        lhs = sum(inst.delta[v] for v in subset)
        rhs = (sum(st.absorption[v] for v in subset)
               + sum(out[v] for v in subset)
               + sum(st.excess[v] for v in subset))
        if lhs != rhs:
            return False
    return True


def test_criterion_1_exactness():
    rng = random.Random(101)
    total = 0
    n_random = _count(970)  # families below add 39 more
    for i in range(n_random):
        bucket = rng.random()
        if bucket < 0.62:
            n = rng.randint(4, 12)
        elif bucket < 0.87:
            n = rng.randint(13, 20)
        else:
            n = rng.randint(21, 30)
        m = rng.randint(n, min(120, 4 * n))
        inst = random_instance(rng, n, m, rng.randint(1, 20),
                               st=(i % 3 != 0))
        res = max_flow_exact(inst, None, seed=i)
        want = edmonds_karp(inst).stats.value
        assert res.stats.value == want, f"random instance {i}"
        assert is_feasible(inst, res.flow)
        assert _conservation_ok(inst, res.flow, rng)
        total += 1
    families = []
    for k in (2, 3, 4, 5):
        for bridge in (1, 2, 5):
            families.append(gen_dumbbell(k, bridge))
            families.append(gen_dumbbell(k, bridge, clique_cap=3))
    for n in (4, 6, 9, 12, 16):
        families.append(gen_cycle(n, cap=3))
    for rows, cols in ((2, 3), (3, 3), (3, 5), (4, 4), (5, 5)):
        for seed in (0, 1):
            families.append(gen_grid(rows, cols, cap=7, seed=seed))
    for j, gen in enumerate(families):
        inst = gen.instance()
        res = max_flow_exact(inst, None, seed=j)
        want = edmonds_karp(inst).stats.value
        assert res.stats.value == want, gen.name
        assert is_feasible(inst, res.flow)
        assert _conservation_ok(inst, res.flow, rng)
        total += 1
    assert total >= _count(1000)
    _report(1, f"{total} instances solved exactly (values match the oracle)")


# --- criterion 2: Theorem-style invariants in debug mode ----------------------


def test_criterion_2_invariants_debug_mode():
    rng = random.Random(102)
    cfg = replace(DEFAULT_CONFIG, debug_invariants=True)
    runs = 0
    for i in range(_count(25)):
        n = rng.randint(4, 16)
        m = rng.randint(n, min(500, 6 * n))
        inst = random_instance(rng, n, m, rng.randint(1, 8), st=False)
        w = [rng.randint(1, 6) for _ in range(inst.m)]
        h = rng.randint(2, 2 * n)
        # I-1/I-2/I-3 are asserted inside the engine after every relabel
        # and augmentation in this mode
        r = push_relabel(inst, w, h, config=cfg)
        st = flow_stats(inst, r.flow)
        wf = sum(w[e] * r.flow.values[e] for e in range(inst.m))
        assert wf <= 9 * h * r.value
        sources = [v for v in range(inst.n) if st.excess[v] > 0]
        sinks = [v for v in range(inst.n)
                 if inst.nabla[v] - st.absorption[v] > 0]
        if sources and sinks:
            dist = dijkstra_residual(inst, r.flow, w, sources)
            for t in sinks:
                assert dist[t] > 3 * h
        runs += 1
    _report(2, f"level invariants held through {runs} debug-mode runs; "
               "post-run residual distances exceed 3h and w(f) <= 9h|f|")


# --- criterion 3: DAG approximation -------------------------------------------


def test_criterion_3_dag_one_sixth():
    rng = random.Random(103)
    runs = _count(500)
    worst = 1.0
    for i in range(runs):
        n = rng.randint(4, 40)
        perm = list(range(n))
        rng.shuffle(perm)
        arcs = []
        seen = set()
        for _ in range(rng.randint(n, 4 * n)):
            a = rng.randrange(n - 1)
            b = rng.randrange(a + 1, n)
            uv = (perm[a], perm[b])
            if uv not in seen:
                seen.add(uv)
                arcs.append((uv[0], uv[1], rng.randint(1, 9)))
        g, caps = build_graph(n, arcs)
        delta = [0] * n
        nabla = [0] * n
        big = sum(caps) + 1
        delta[perm[0]] = big
        nabla[perm[-1]] = big
        inst = FlowInstance(g, caps, delta, nabla)
        r = dag_approx_flow(inst)
        fstar = edmonds_karp(inst).stats.value
        assert r.value >= -(-fstar // 6), f"dag {i}: {r.value} < ceil({fstar}/6)"
        if fstar:
            worst = min(worst, r.value / fstar)
    _report(3, f"{runs} random DAGs all within the one-sixth bound "
               f"(worst observed ratio {worst:.3f})")


# --- criterion 4: work accounting ---------------------------------------------


def test_criterion_4_work_bounds():
    rng = random.Random(104)
    runs = _count(120)
    for i in range(runs):
        inst = random_instance(rng, rng.randint(3, 14), rng.randint(3, 40),
                               rng.randint(1, 9), st=(i % 2 == 0))
        w = [rng.randint(1, 6) for _ in range(inst.m)]
        h = rng.randint(2, 3 * inst.n)
        r = push_relabel(inst, w, h)
        for e in range(inst.m):
            events = r.edge_saturations[e] + r.edge_flips[e]
            assert events <= 20 * (h / w[e] + 1), f"run {i} edge {e}"
        assert r.augment_count <= 20 * (inst.n + sum(h / we for we in w))
    _report(4, f"per-edge saturation+flip counts and path totals within the "
               f"stated bounds over {runs} runs")


# --- criterion 5: near-shortest augmentation replay ----------------------------


def test_criterion_5_near_shortest_replay():
    rng = random.Random(105)
    cfg = replace(DEFAULT_CONFIG, debug_invariants=True)  # snapshots the labels
    checked = 0
    for i in range(_count(50)):
        inst = random_instance(rng, rng.randint(4, 12), rng.randint(4, 30),
                               rng.randint(1, 6), st=False)
        w = [rng.randint(1, 5) for _ in range(inst.m)]
        h = rng.randint(3, 2 * inst.n)
        r = push_relabel(inst, w, h, config=cfg)
        f = Flow.zero(inst.m)
        pairs = [(rng.randrange(inst.n), rng.randrange(inst.n)) for _ in range(50)]
        for rec in r.augmentations:
            labels = rec.labels
            by_source = {}
            for s, t in pairs:
                if s not in by_source:
                    by_source[s] = dijkstra_residual(inst, f, w, [s])
                dist = by_source[s]
                if dist[t] != math.inf:
                    assert labels[s] - labels[t] <= 3 * dist[t]
                    checked += 1
            for a in rec.arcs:
                e = a >> 1
                f.values[e] += -rec.amount if a & 1 else rec.amount
    assert checked > 0
    _report(5, f"label gaps stayed within three residual distances at "
               f"{checked} augmentation checkpoints")


# --- criterion 6: weight-sum bound of produced hierarchies ---------------------


def _simple_connected_graph(rng, n, extra):
    arcs = [(i, (i + 1) % n, 1) for i in range(n)]
    seen = {(u, v) for u, v, _ in arcs}
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            arcs.append((u, v, 1))
    return build_graph(n, arcs)


def test_criterion_6_weight_sum_bound():
    rng = random.Random(106)
    sizes = [12, 24, 48, 96, 200]
    built = 0
    for n in sizes:
        g, caps = _simple_connected_graph(rng, n, 2 * n)
        res = build_hierarchy(g, caps, None, seed=n,
                              config=replace(DEFAULT_CONFIG,
                                             validator_falsifier_cuts=500))
        w = induced_weights(g, res.hierarchy.tau)
        assert all(x >= 1 for x in w)
        assert sum(1.0 / x for x in w) <= 2 * n * (math.log(n) + 1)
        built += 1
    _report(6, f"sum of inverse weights within 2n(ln n + 1) on {built} "
               f"hierarchies up to n=200")


# --- criterion 7: builder output validity --------------------------------------


def _corpus_graphs():
    rng = random.Random(107)
    graphs = []
    # cycles and dumbbells
    for n in (4, 6, 8, 10, 12, 14):
        graphs.append(build_graph(n, [(i, (i + 1) % n, 1) for i in range(n)]))
    for k in (2, 3, 4, 5, 6, 7):
        gen = gen_dumbbell(k, 1)
        graphs.append(build_graph(gen.n, gen.arcs))
    while len(graphs) < 50:
        n = rng.randint(4, 14)
        arcs = []
        seen = set()
        for _ in range(rng.randint(n, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                arcs.append((u, v, rng.randint(1, 3)))
        if arcs:
            graphs.append(build_graph(n, arcs))
    return graphs[:50]


def test_criterion_7_builder_validity():
    graphs = _corpus_graphs()
    seeds = list(range(5))
    phis = [Fraction(1, 8), Fraction(1, 16)]
    if SCALE < 1.0:
        graphs = graphs[: max(4, int(50 * SCALE))]
        seeds = seeds[: max(1, int(5 * SCALE))]
    builds = 0
    for gi, (g, caps) in enumerate(graphs):
        for phi in phis:
            for seed in seeds:
                res = build_hierarchy(g, caps, phi, seed=seed)
                rep = validate_hierarchy(g, caps, res.hierarchy, phi,
                                         DEFAULT_CONFIG,
                                         random.Random(seed + 999))
                assert rep.ok, f"graph {gi} phi {phi} seed {seed}: {rep.errors}"
                assert all(c.exact for c in rep.components)
                builds += 1
    _report(7, f"{builds} builds passed exhaustive validation with zero failures")


# --- criterion 8: sparse-cut contract ------------------------------------------


def test_criterion_8_sparse_cut_contract():
    rng = random.Random(108)
    runs = _count(200)
    cuts = 0
    for trial in range(runs):
        n = rng.randint(3, 30)
        arcs = [(i, (i + 1) % n, rng.randint(1, 3)) for i in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, rng.randint(1, 3)))
        g, caps = build_graph(n, arcs)
        delta = [0] * n
        nabla = [0] * n
        for _ in range(rng.randint(1, 4)):
            delta[rng.randrange(n)] += rng.randint(1, 8)
        left = sum(delta)
        while left > 0:
            amt = rng.randint(1, left)
            nabla[rng.randrange(n)] += amt
            left -= amt
        inst = FlowInstance(g, caps, delta, nabla)
        f_edges = set(range(g.m))
        hier = Hierarchy(set(), [], list(range(1, n + 1)))
        kappa = rng.randint(1, 3)
        out = sparse_cut(inst, kappa, f_edges, hier, phi=Fraction(1, 4))
        if out.cut is None:
            assert out.value == sum(delta)
            continue
        cuts += 1
        best = _oracle_min_level_cut(inst, kappa, f_edges, hier, out)
        assert out.metrics.objective == best[0]
        assert sorted(out.cut) == sorted(best[2])
        scaled = FlowInstance(g, [kappa * c for c in caps], delta, nabla)
        st = flow_stats(scaled, out.flow)
        side = set(out.cut)
        assert sum(st.excess[v] for v in side) == sum(st.excess)
        assert sum(st.absorption[v] for v in side) == \
            sum(nabla[v] for v in side)
    assert cuts >= max(1, runs // 8)
    _report(8, f"{runs} runs: every returned cut equals the full-scan "
               f"minimizer with excess contained and sinks saturated "
               f"({cuts} cut branches)")


# --- criterion 9: cut-or-embed soundness ----------------------------------------


def test_criterion_9_cut_or_embed_soundness(monkeypatch):
    rng = random.Random(109)
    runs = _count(200)
    certs = cuts = 0
    for trial in range(runs):
        n = rng.randint(4, 12)
        arcs = [(i, (i + 1) % n, rng.randint(1, 2)) for i in range(n)]
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, 1))
        g, caps = build_graph(n, arcs)
        f_edges = set(range(g.m))
        phi = Fraction(1, 16)
        hier = Hierarchy(set(), [], list(range(1, n + 1)))
        with monkeypatch.context() as mp:
            if trial % 2:  # the full round budget: brute force never decides
                mp.setattr(cut_matching, "_brute_force_check", lambda *args: (False, None))
            out = cut_or_embed(g, caps, f_edges, phi, lambda: hier,
                               random.Random(5000 + trial))
        edges = [(g.tails[e], g.heads[e], caps[e]) for e in range(g.m)]
        volw = {v: 0 for v in range(n)}
        for u, v, c in edges:
            volw[u] += c
            volw[v] += c
        if out.cut is None:
            certs += 1
            psi = out.certificate.psi_measured
            if psi:
                ratio, _ = exhaustive_sparsest_cut(range(n), edges, volw)
                assert ratio is None or ratio >= phi * psi * psi / 2
        else:
            cuts += 1
            vol_s = out.vol_f_side
            t = out.state.t_cmg
            assert vol_s >= 1
            assert 2 * vol_s <= out.vol_f_total
            assert min(out.boundary_out, out.boundary_in) * phi.denominator \
                < phi.numerator * vol_s
    assert certs > 0 and cuts > 0
    _report(9, f"{runs} seeded runs: {certs} certificates all confirmed by "
               f"enumeration, {cuts} cuts inside the volume window")


# --- criterion 10: link-cut forest equivalence -----------------------------------


def test_criterion_10_forest_oracle_equivalence():
    rng = random.Random(110)
    n = 200
    forest = DynForest(n)
    naive = NaiveForest(n)
    ops = _count(100_000)
    done = 0
    answers = 0
    while done < ops:
        op = rng.choice(("link", "cut", "root", "min", "add"))
        u = rng.randrange(n)
        if op == "link":
            v = rng.randrange(n)
            if u != v and naive.parent[u] == -1 and naive.find_root(v) != u:
                val = rng.randint(-30, 200)
                forest.link(u, v, val)
                naive.link(u, v, val)
        elif op == "cut":
            if naive.parent[u] != -1:
                forest.cut(u)
                naive.cut(u)
        elif op == "root":
            assert forest.find_root(u) == naive.find_root(u)
            answers += 1
        elif op == "min":
            if naive.parent[u] != -1:
                assert forest.find_min(u) == naive.find_min(u)
                answers += 1
        else:
            x = rng.randint(-6, 11)
            forest.add_path(u, x)
            naive.add_path(u, x)
        done += 1
    _report(10, f"{done} operations on {n} nodes matched the parent-pointer "
                f"oracle exactly ({answers} queries compared, ties included)")


# --- criterion 11: capacity scaling ----------------------------------------------


def test_criterion_11_capacity_scaling():
    # phase 1 solves the instance shifted by the fewest bits that bring every
    # capacity to n^2, exactly; each doubling phase's residual value is at
    # most n^2
    rng = random.Random(111)
    for u in (1, 2, 3, 4, 7, 8, 100, 1023, 1024, 65536, 10 ** 6 - 1, 10 ** 6):
        g, caps = build_graph(2, [(0, 1, u)])
        inst = FlowInstance(g, caps, [u, 0], [0, u])
        res = capacity_scaled_max_flow(inst, edmonds_karp)
        assert res.stats.phases == scaling_shift(u, 2) + 1, f"U={u}"
        assert res.stats.value == u
        n2 = inst.n * inst.n
        assert all(v <= n2 for v in res.stats.phase_values)
    matches = 0
    for i in range(_count(100)):
        inst = random_instance(rng, rng.randint(2, 9), rng.randint(1, 18),
                               rng.choice([3, 10, 100, 5000, 10 ** 6]),
                               st=(i % 2 == 0))
        res = capacity_scaled_max_flow(inst, edmonds_karp)
        assert res.stats.value == edmonds_karp(inst).stats.value
        shift = scaling_shift(max(inst.cap, default=1), inst.n)
        assert res.stats.phases == shift + 1
        # phase values count flow over edges, not supply absorbed in place
        first = shifted_instance(inst, shift)
        in_place = sum(min(d, t) for d, t in zip(first.delta, first.nabla))
        assert res.stats.phase_values[0] + in_place == edmonds_karp(first).stats.value
        n2 = inst.n * inst.n
        assert all(v <= n2 for v in res.stats.phase_values[1:])
        matches += 1
    _report(11, f"phase count is one more than the fewest shifts bringing U to "
                f"n^2, phase 1 equals the oracle on the shifted instance, and each "
                f"doubling phase's residual value is at most n^2; {matches} scaled "
                f"solves match the oracle")


# --- criterion 12: CLI determinism ------------------------------------------------


def test_criterion_12_cli_determinism(tmp_path, capsys):
    from hierflow.cli import main

    def run(argv):
        code = main(argv)
        cap = capsys.readouterr()
        return code, cap.out

    graph = str(tmp_path / "g.dimacs")
    code, _ = run(["gen", "--model", "random", "--gen-n", "12", "--m", "30",
                   "--cap", "9", "--seed", "13", "--out", graph])
    assert code == 0
    gen_bytes = Path(graph).read_text()
    code, _ = run(["gen", "--model", "random", "--gen-n", "12", "--m", "30",
                   "--cap", "9", "--seed", "13", "--out", graph])
    assert Path(graph).read_text() == gen_bytes

    outs = set()
    for _ in range(2):
        code, out = run(["solve", "--algo", "exact", "--seed", "21", graph])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    for _ in range(2):
        code, out = run(["solve", "--algo", "ek", graph])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1  # and both algorithms agree on the value

    hier = str(tmp_path / "h.txt")
    texts = set()
    for _ in range(2):
        code, out = run(["hierarchy", "--phi", "1/8", "--seed", "3",
                         "--out", hier, graph])
        assert code == 0
        texts.add(Path(hier).read_text() + "||" + out)
    assert len(texts) == 1

    cut_outs = set()
    diff = str(tmp_path / "g.diff")
    code, _ = run(["gen", "--model", "random", "--gen-n", "10", "--m", "24",
                   "--cap", "4", "--seed", "2", "--format", "diff",
                   "--out", diff])
    for _ in range(2):
        code, out = run(["sparse-cut", "--kappa", "2", "--seed", "5", diff])
        assert code == 0
        cut_outs.add(out)
    assert len(cut_outs) == 1

    bench_rows = set()
    for _ in range(2):
        code, out = run(["bench", "--algo", "ek,exact", "--seed", "9", graph])
        assert code == 0
        rows = []
        for line in out.splitlines():
            cols = line.split("\t")
            if len(cols) == 6 and cols[0] != "instance":
                cols[3] = "-"  # wall-clock column exempt (inherently varying)
            rows.append("\t".join(cols))
        bench_rows.add("\n".join(rows))
    assert len(bench_rows) == 1
    _report(12, "gen/solve/hierarchy/sparse-cut/bench byte-stable under "
                "fixed seeds (bench wall-time column exempt)")
