import importlib
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierflow.errors import HierflowError, ParseError
from hierflow.generators import MODELS, generate
from hierflow.io import emit_dimacs, emit_diffusion, parse_instance
from hierflow.maxflow import edmonds_karp, max_flow_exact

from helpers import random_instance_text

SINGLE = """c tiny
p max 2 1
n 1 s
n 2 t
a 1 2 5
"""


def test_parse_single_edge_dimacs():
    inst = parse_instance(SINGLE)
    assert inst.n == 2 and inst.m == 1
    assert inst.cap == [5]
    assert inst.delta == [6, 0] and inst.nabla == [0, 6]  # sum caps + 1


def test_parse_dimacs_missing_sink():
    text = "p max 2 1\nn 1 s\na 1 2 5\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_dimacs_arc_count_mismatch():
    text = "p max 2 2\nn 1 s\nn 2 t\na 1 2 5\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_dimacs_bad_lines():
    with pytest.raises(ParseError):
        parse_instance("p max x y\n")
    with pytest.raises(ParseError):
        parse_instance("p max 2 1\nn 3 s\nn 2 t\na 1 2 5\n")
    with pytest.raises(ParseError):
        parse_instance("q max 2 1\n")


@pytest.mark.parametrize("text, line", [
    ("p max 3 2\nn 1 s\nn 2 s\nn 3 t\na 1 2 5\na 2 3 4\n", 3),
    ("p max 3 2\nn 1 s\nn 2 t\nn 3 t\na 1 2 5\na 2 3 4\n", 4),
], ids=["source", "sink"])
def test_parse_dimacs_rejects_a_second_source_or_sink_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == line


def test_dimacs_round_trip_on_generated():
    rng = random.Random(71)
    for trial in range(100):
        model = rng.choice(["dag", "random", "dumbbell", "cycle", "grid"])
        sizes = dict(n=rng.randint(4, 10), m=rng.randint(4, 20), k=rng.randint(2, 4),
                     rows=rng.randint(2, 3), cols=rng.randint(2, 3))
        gen = generate(model, seed=trial,
                       **{key: sizes[key] for key in MODELS[model].sizes if key in sizes})
        text = emit_dimacs(gen.n, gen.arcs, gen.source, gen.sink, gen.name)
        parsed = parse_instance(text)
        s = next(v for v in range(parsed.n) if parsed.delta[v])
        t = next(v for v in range(parsed.n) if parsed.nabla[v])
        text2 = emit_dimacs(parsed.n,
                            [(parsed.g.tails[e], parsed.g.heads[e],
                              parsed.cap[e]) for e in range(parsed.m)],
                            s, t, gen.name)
        assert text == text2


def test_parse_diffusion_header_only():
    inst = parse_instance("p diff 3 0\n")
    assert inst.n == 3 and inst.m == 0
    assert sum(inst.delta) == 0


def test_parse_diffusion_rejects_oversupply():
    text = "p diff 2 1\na 1 2 1\nsrc 1 3\nsnk 2 1\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_diffusion_rejects_negative_capacity():
    # an input fault, reported on its line like the DIMACS parser does
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("p diff 2 1\nsrc 1 1\na 1 2 -1\nsnk 2 1\n")


def test_diffusion_round_trip():
    text = "c x\np diff 3 2\na 1 2 2\na 2 3 1\nsrc 1 2\nsnk 3 2\nsnk 2 1\n"
    inst = parse_instance(text)
    emitted = emit_diffusion(inst, "x")
    inst2 = parse_instance(emitted)
    assert inst2.delta == inst.delta
    assert inst2.nabla == inst.nabla
    assert inst2.cap == inst.cap
    assert emit_diffusion(inst2, "x") == emitted


def test_parse_instance_dispatch():
    assert parse_instance(SINGLE).delta == [6, 0]
    assert parse_instance("p diff 2 0\n").delta == [0, 0]
    with pytest.raises(ParseError):
        parse_instance("c nothing\n")


@pytest.mark.parametrize("text, line", [
    ("p diff 2 0\nn 1 s\n", 2),
    ("p max 2 1\nn 1 s\nn 2 t\nsrc 1 1\na 1 2 5\n", 4),
    ("p max 2 1\nn 1 s\nn 2 t\na 1 2 5\nsnk 2 1\n", 5),
    ("c x\nn 1 s\np max 2 0\nn 2 t\n", 2),
    ("src 1 1\np diff 2 0\n", 1),
    ("snk 2 1\np diff 2 0\nsrc 1 1\n", 1),
    ("p max 2 0\nn 1 s\nn 2 t\np diff 2 0\n", 4),
    ("p diff 2 0\nc x\np max 2 0\n", 3),
], ids=["n-in-diff", "src-in-max", "snk-in-max", "n-before-p", "src-before-p",
        "snk-before-p", "diff-after-max", "max-after-diff"])
def test_parse_instance_rejects_lines_of_the_other_format(text, line):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line_no == line


def test_generators_deterministic():
    for model in ["dag", "random", "dumbbell", "cycle", "grid"]:
        a = generate(model, seed=5)
        b = generate(model, seed=5)
        assert a.arcs == b.arcs and a.name == b.name


@pytest.mark.parametrize("model,fit", [("random", 6), ("dag", 3)])
def test_generators_stop_drawing_once_every_arc_that_fits_is_drawn(monkeypatch, model, fit):
    # 3 vertices fit 6 arcs (3 in a DAG): asking for 1000 returns the arcs
    # of m = fit after the same draws, not after 50 000 more
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws[-1] += 1
            return super().randrange(*args)

    gen_module = importlib.import_module("hierflow.generators")
    monkeypatch.setattr(gen_module, "random", types.SimpleNamespace(Random=CountingRandom))
    out = []
    for m in (fit, 1000):
        draws.append(0)
        out.append(generate(model, seed=0, n=3, m=m, cap=5))
    assert out[1].arcs == out[0].arcs and len(out[0].arcs) == fit
    assert draws[1] == draws[0]
    assert out[1].name == f"{model}-3-1000-0"


def test_dumbbell_min_cut_is_bridge():
    from hierflow.maxflow import edmonds_karp

    gen = generate("dumbbell", k=5, bridge=3)
    assert edmonds_karp(gen.instance()).stats.value == 3


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_parse_instance_fuzz_typed_error_or_exact_value(rng):
    try:
        inst = parse_instance(random_instance_text(rng))
    except HierflowError:
        return
    assert max_flow_exact(inst).stats.value == edmonds_karp(inst).stats.value
