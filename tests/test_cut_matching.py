import random
from fractions import Fraction

import pytest

from hierflow import cut_matching
from hierflow.cut_matching import (CMGState, cut_or_embed, cut_player_bisection,
                                   rounds_budget, union_psi)
from hierflow.errors import NotStronglyConnectedError
from hierflow.graph import build_graph
from hierflow.hierarchy import Hierarchy

from helpers import exhaustive_sparsest_cut



def no_early_exit(mp):
    """Make cut_or_embed play its full round budget: the brute-force check
    never decides, takes the path of a refuted component and draws nothing."""
    mp.setattr(cut_matching, "_brute_force_check", lambda *args: (False, None))


def _complete_digraph(n, cap=1):
    arcs = [(u, v, cap) for u in range(n) for v in range(n) if u != v]
    return build_graph(n, arcs)


def _dumbbell(k=4, bridge=1):
    arcs = []
    for a in range(k):
        for b in range(k):
            if a != b:
                arcs.append((a, b, 1))
    for a in range(k, 2 * k):
        for b in range(k, 2 * k):
            if a != b:
                arcs.append((a, b, 1))
    arcs.append((k - 1, k, bridge))
    arcs.append((2 * k - 1, 0, bridge))
    return build_graph(2 * k, arcs)


def _empty_hier(n):
    return Hierarchy(set(), [], list(range(1, n + 1)))


def _counted(hier):
    """A hierarchy callable and the list its calls append to."""
    calls = []

    def hier_of():
        calls.append(hier)
        return hier

    return hier_of, calls


def test_bisection_two_uniform_vertices():
    state = CMGState([1, 1], random.Random(0), 4)
    nu_a, nu_b = cut_player_bisection(state)
    assert sorted([sum(nu_a), sum(nu_b)]) == [1, 1]
    assert all(a + b <= n for a, b, n in zip(nu_a, nu_b, state.nu))


def test_bisection_excludes_zero_weight_vertex():
    state = CMGState([2, 0, 2], random.Random(1), 4)
    nu_a, nu_b = cut_player_bisection(state)
    assert nu_a[1] == 0 and nu_b[1] == 0
    assert sum(nu_a) <= sum(nu_b)


def test_bisection_contract_over_rounds():
    rng = random.Random(2)
    nu = [rng.randint(0, 5) for _ in range(9)]
    state = CMGState(nu, rng, 6)
    for _ in range(6):
        nu_a, nu_b = cut_player_bisection(state)
        assert all(a + b <= x for a, b, x in zip(nu_a, nu_b, nu))
        assert sum(nu_a) <= sum(nu_b)
        # fake a matching that routes everything from A to B
        act_a = [v for v in range(9) if nu_a[v] > 0]
        act_b = [v for v in range(9) if nu_b[v] > 0]
        matching = []
        if act_a and act_b:
            matching = [(act_a[0], act_b[0], sum(nu_a))]
        from hierflow.cut_matching import absorb_matching

        absorb_matching(state, matching)


def test_tiny_volume_certifies_without_rounds(monkeypatch):
    no_early_exit(monkeypatch)
    g, caps = _complete_digraph(3)
    hier = _empty_hier(3)
    out = cut_or_embed(g, caps, {0}, Fraction(1, 16), lambda: hier,
                       random.Random(3))
    assert out.cut is None
    assert out.certificate.rounds == 0
    assert out.certificate.early and out.certificate.exact


def test_phi_below_float_range_takes_kappa_from_the_fraction():
    # float(phi) is 0, and the volume 10^401 is not tiny against 1/phi
    g, cap = _complete_digraph(4, 10 ** 401)
    out = cut_or_embed(g, cap, set(range(g.m)), Fraction(1, 10 ** 400), lambda: _empty_hier(4),
                       random.Random(0))
    assert out.cut is None and out.certificate.early


def test_requires_strong_connectivity():
    g, caps = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(NotStronglyConnectedError):
        cut_or_embed(g, caps, {0, 1}, Fraction(1, 16), lambda: _empty_hier(3),
                     random.Random(0))


def test_complete_digraph_certifies_and_is_truly_expanding():
    g, caps = _complete_digraph(8)
    f_edges = set(range(g.m))
    out = cut_or_embed(g, caps, f_edges, Fraction(1, 16), lambda: _empty_hier(8),
                       random.Random(5))
    assert out.cut is None and out.certificate.exact
    # exhaustive confirmation that no 1/16-sparse cut exists
    edges = [(g.tails[e], g.heads[e], caps[e]) for e in range(g.m)]
    volw = {v: 14 for v in range(8)}
    ratio, _ = exhaustive_sparsest_cut(range(8), edges, volw)
    assert ratio >= Fraction(1, 16)


def test_dumbbell_returns_sparse_cut_with_contract():
    g, caps = _dumbbell(4, 1)
    f_edges = set(range(g.m))
    phi = Fraction(1, 16)
    out = cut_or_embed(g, caps, f_edges, phi, lambda: _empty_hier(8),
                       random.Random(7))
    assert out.cut is not None
    side = set(out.cut)
    assert side in (set(range(4)), set(range(4, 8)))
    assert min(out.boundary_out, out.boundary_in) * phi.denominator \
        < phi.numerator * out.vol_f_side
    assert 2 * out.vol_f_side <= out.vol_f_total


def test_dumbbell_pure_game_outcome_is_sound(monkeypatch):
    # at congestion kappa = ceil(2/phi) the bisections may legitimately
    # route across the bridge, so the pure game can only promise the weak
    # phi*psi^2/2 bound; whatever branch it takes must honor its contract
    no_early_exit(monkeypatch)
    g, caps = _dumbbell(4, 1)
    f_edges = set(range(g.m))
    phi = Fraction(1, 16)
    out = cut_or_embed(g, caps, f_edges, phi, lambda: _empty_hier(8),
                       random.Random(11))
    edges = [(g.tails[e], g.heads[e], caps[e]) for e in range(g.m)]
    volw = {v: 0 for v in range(8)}
    for u, v, c in edges:
        volw[u] += c
        volw[v] += c
    if out.cut is None:
        psi = out.certificate.psi_measured
        ratio, _ = exhaustive_sparsest_cut(range(8), edges, volw)
        assert ratio is not None and ratio < phi  # the bridge cut is real
        if psi:
            assert ratio >= phi * psi * psi / 2  # but the weak claim holds
    else:
        assert min(out.boundary_out, out.boundary_in) * phi.denominator \
            < phi.numerator * out.vol_f_side
        assert 2 * out.vol_f_side <= out.vol_f_total


def test_silent_falsifier_certifies_a_large_component_without_a_round(monkeypatch):
    # above 16 vertices the falsifier's silence certifies at once, as not
    # refuted, and a cut it finds comes back; neither plays a game round
    def no_round(*args, **kwargs):
        raise AssertionError("a game round was played")

    monkeypatch.setattr(cut_matching, "sparse_cut", no_round)
    phi = Fraction(1, 16)
    g, caps = _complete_digraph(20)
    out = cut_or_embed(g, caps, set(range(g.m)), phi, no_round, random.Random(5))
    assert out.cut is None
    cert = out.certificate
    assert cert.rounds == 0 and cert.early and not cert.exact
    g, caps = _dumbbell(10, 1)
    out = cut_or_embed(g, caps, set(range(g.m)), phi, no_round, random.Random(5))
    assert set(out.cut) in (set(range(10)), set(range(10, 20)))
    assert out.certificate is None and out.state.rounds_played == 0
    assert min(out.boundary_out, out.boundary_in) * phi.denominator \
        < phi.numerator * out.vol_f_side


def test_early_outcomes_never_ask_for_the_hierarchy(monkeypatch):
    # a tiny volume, an exact certificate and an exact cut, all before a round
    for (g, caps), f_edges, early in (
            (_complete_digraph(3), {0}, False),
            (_complete_digraph(8), None, True),
            (_dumbbell(4, 1), None, True)):
        hier_of, calls = _counted(_empty_hier(g.n))
        f_edges = set(range(g.m)) if f_edges is None else f_edges
        with monkeypatch.context() as mp:
            if not early:
                no_early_exit(mp)
            out = cut_or_embed(g, caps, f_edges, Fraction(1, 16), hier_of,
                               random.Random(5))
        assert out.state is None or out.state.rounds_played == 0
        assert calls == []
    assert out.cut is not None  # the dumbbell's bridge cut


def test_played_rounds_ask_for_the_hierarchy_once(monkeypatch):
    no_early_exit(monkeypatch)
    g, caps = _complete_digraph(6)
    hier_of, calls = _counted(_empty_hier(6))
    out = cut_or_embed(g, caps, set(range(g.m)), Fraction(1, 16), hier_of,
                       random.Random(13))
    assert out.certificate.rounds > 1
    assert len(calls) == 1


def test_full_game_union_expands_on_complete_digraph(monkeypatch):
    no_early_exit(monkeypatch)
    g, caps = _complete_digraph(6)
    f_edges = set(range(g.m))
    out = cut_or_embed(g, caps, f_edges, Fraction(1, 16), lambda: _empty_hier(6),
                       random.Random(13))
    assert out.cut is None
    cert = out.certificate
    assert not cert.early and not cert.exact
    assert cert.rounds == rounds_budget(6, [10] * 6)
    # the matching union is strongly connected with positive expansion
    assert cert.psi_measured is not None and cert.psi_measured > 0


def test_certificate_soundness_seeded_sample():
    # R = 0 certificates never coexist with a phi*psi^2/2-sparse cut
    rng = random.Random(17)
    certs = cuts = 0
    for trial in range(40):
        n = rng.randint(4, 10)
        arcs = [(i, (i + 1) % n, rng.randint(1, 2)) for i in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.append((u, v, 1))
        g, caps = build_graph(n, arcs)
        f_edges = set(range(g.m))
        phi = Fraction(1, 16)
        out = cut_or_embed(g, caps, f_edges, phi, lambda: _empty_hier(n),
                           random.Random(1000 + trial))
        edges = [(g.tails[e], g.heads[e], caps[e]) for e in range(g.m)]
        volw = {v: 0 for v in range(n)}
        for u, v, c in edges:
            volw[u] += c
            volw[v] += c
        if out.cut is None:
            certs += 1
            psi = out.certificate.psi_measured
            if psi:
                threshold = phi * psi * psi / 2
                ratio, _ = exhaustive_sparsest_cut(range(n), edges, volw)
                assert ratio is None or ratio >= threshold
        else:
            cuts += 1
            side = set(out.cut)
            vol_s = sum(volw[v] for v in side)
            assert vol_s == out.vol_f_side
            assert 2 * vol_s <= sum(volw.values())
    assert certs > 0


def test_exhaustive_check_draws_nothing_from_the_rng():
    # the exact check certifies K8 and cuts the dumbbell before a round,
    # so the cut player's sketch is never drawn
    for (g, caps), certified in ((_complete_digraph(8), True), (_dumbbell(4, 1), False)):
        rng = random.Random(5)
        before = rng.getstate()
        out = cut_or_embed(g, caps, set(range(g.m)), Fraction(1, 16),
                           lambda: _empty_hier(g.n), rng)
        assert (out.cut is None) == certified
        assert rng.getstate() == before
