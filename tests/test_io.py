import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierflow.errors import (ArcCountMismatchError, HierflowError, MissingSourceOrSinkError,
                             NotDiffusionError, ParseError)
from hierflow.generators import generate
from hierflow.io import (emit_dimacs, emit_diffusion, parse_diffusion,
                         parse_dimacs, parse_instance)
from hierflow.maxflow import edmonds_karp, max_flow_exact

SINGLE = """c tiny
p max 2 1
n 1 s
n 2 t
a 1 2 5
"""


def test_parse_single_edge_dimacs():
    f = parse_dimacs(SINGLE)
    assert f.declared_n == 2 and f.declared_m == 1
    assert f.source == 0 and f.sink == 1
    inst = f.inst
    assert inst.cap == [5]
    assert inst.delta[0] == 6 and inst.nabla[1] == 6  # sum caps + 1


def test_parse_dimacs_missing_sink():
    text = "p max 2 1\nn 1 s\na 1 2 5\n"
    with pytest.raises(MissingSourceOrSinkError):
        parse_dimacs(text)


def test_parse_dimacs_arc_count_mismatch():
    text = "p max 2 2\nn 1 s\nn 2 t\na 1 2 5\n"
    with pytest.raises(ArcCountMismatchError):
        parse_dimacs(text)


def test_parse_dimacs_bad_lines():
    with pytest.raises(ParseError):
        parse_dimacs("p max x y\n")
    with pytest.raises(ParseError):
        parse_dimacs("p max 2 1\nn 3 s\nn 2 t\na 1 2 5\n")
    with pytest.raises(ParseError):
        parse_dimacs("q max 2 1\n")


def test_dimacs_round_trip_on_generated():
    rng = random.Random(71)
    for trial in range(100):
        model = rng.choice(["dag", "random", "dumbbell", "cycle", "grid"])
        gen = generate(model, seed=trial, n=rng.randint(4, 10),
                       m=rng.randint(4, 20), k=rng.randint(2, 4),
                       rows=rng.randint(2, 3), cols=rng.randint(2, 3))
        text = emit_dimacs(gen.n, gen.arcs, gen.source, gen.sink, gen.name)
        parsed = parse_dimacs(text, gen.name)
        text2 = emit_dimacs(parsed.declared_n,
                            [(parsed.inst.g.tails[e], parsed.inst.g.heads[e],
                              parsed.inst.cap[e]) for e in range(parsed.inst.m)],
                            parsed.source, parsed.sink, gen.name)
        assert text == text2


def test_parse_diffusion_header_only():
    f = parse_diffusion("p diff 3 0\n")
    assert f.inst.n == 3 and f.inst.m == 0
    assert sum(f.inst.delta) == 0


def test_parse_diffusion_rejects_oversupply():
    text = "p diff 2 1\na 1 2 1\nsrc 1 3\nsnk 2 1\n"
    with pytest.raises(NotDiffusionError):
        parse_diffusion(text)


def test_diffusion_round_trip():
    text = "c x\np diff 3 2\na 1 2 2\na 2 3 1\nsrc 1 2\nsnk 3 2\nsnk 2 1\n"
    f = parse_diffusion(text)
    emitted = emit_diffusion(f.inst, "x")
    f2 = parse_diffusion(emitted)
    assert f2.inst.delta == f.inst.delta
    assert f2.inst.nabla == f.inst.nabla
    assert f2.inst.cap == f.inst.cap
    assert emit_diffusion(f2.inst, "x") == emitted


def test_parse_instance_dispatch():
    assert parse_instance(SINGLE).source == 0
    assert parse_instance("p diff 2 0\n").source is None
    with pytest.raises(ParseError):
        parse_instance("c nothing\n")


def test_generators_deterministic():
    for model in ["dag", "random", "dumbbell", "cycle", "grid"]:
        a = generate(model, seed=5)
        b = generate(model, seed=5)
        assert a.arcs == b.arcs and a.name == b.name


def test_dumbbell_min_cut_is_bridge():
    from hierflow.maxflow import edmonds_karp

    gen = generate("dumbbell", k=5, bridge=3)
    assert edmonds_karp(gen.instance()).stats.value == 3


# instance text: mostly well-formed `p max` and `p diff` files over at most
# 8 vertices, with out-of-range vertices, negative numbers, self-loops, a
# wrong arc count, a missing or unknown node line and junk or comment lines
_JUNK = ["c note", "", "p max", "n 1", "a 1 2", "a 1 x 2", "q 1", "p diff 2 x", "src 1"]


def _instance_text(rng: random.Random) -> str:
    n = rng.choice([-1, 0] + list(range(1, 9)) * 4)
    rate = rng.choice([0, 0, 0.02, 0.1])  # half the texts have no planted fault

    def odd():
        return rng.random() < rate

    def vtx():
        return rng.choice([0, n + 1]) if n < 1 or odd() else rng.randint(1, n)

    arcs = [(vtx(), vtx(), -1 if odd() else rng.randint(0, 12))
            for _ in range(rng.randint(0, 16))]
    if not odd():
        arcs = [(u, v, c) for u, v, c in arcs if u != v]
    m = len(arcs) + (rng.choice([-1, 1]) if odd() else 0)
    kind = rng.choice(["max", "diff"])
    lines = [f"p {kind} {n} {m}"]
    if kind == "max":
        ends = rng.choice(["ss", "tx", "t"]) if odd() else "st"
        lines += [f"n {vtx()} {end}" for end in ends]
    else:
        for word, most in (("src", 12), ("snk", 30)):
            lines += [f"{word} {vtx()} {-1 if odd() else rng.randint(0, most)}"
                      for _ in range(rng.randint(0, 2))]
    lines += [f"a {u} {v} {c}" for u, v, c in arcs]
    for _ in range(rng.randint(0, 2) if rate else 0):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_JUNK))
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_parse_instance_fuzz_typed_error_or_exact_value(rng):
    try:
        inst = parse_instance(_instance_text(rng)).inst
    except HierflowError:
        return
    assert max_flow_exact(inst).stats.value == edmonds_karp(inst).stats.value
