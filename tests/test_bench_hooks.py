"""The layered benchmark wraps library functions by name; a rename or a
moved import must fail here rather than silently break its traced runs."""
import importlib
import importlib.util
from pathlib import Path

from hierflow.graph import FlowInstance, build_graph

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_bindings_resolve():
    for mod_name, attr, _span in _spans().BINDINGS:
        mod = importlib.import_module("hierflow." + mod_name)
        assert callable(getattr(mod, attr, None)), f"hierflow.{mod_name}.{attr}"


def test_tracer_install_then_uninstall():
    spans = _spans()
    originals = {}
    for mod_name, attr, _span in spans.BINDINGS:
        mod = importlib.import_module("hierflow." + mod_name)
        originals[(mod, attr)] = getattr(mod, attr)
    pr = importlib.import_module("hierflow.push_relabel")
    forest_cls = pr.DynForest
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn
        g, caps = build_graph(3, [(0, 1, 2), (1, 2, 1), (2, 0, 1)])
        maxflow = importlib.import_module("hierflow.maxflow")
        out = maxflow.max_flow_exact(FlowInstance(g, caps, [5, 0, 0], [0, 0, 5]))
        assert out.stats.value == 1
        assert tracer.counters()["maxflow.iterations"] == out.stats.iterations
        assert tracer.times()["maxflow.self_s"] >= 0.0
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert pr.DynForest is forest_cls
