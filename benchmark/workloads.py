"""The top-level call of each workload and the oracle check of its output.

Calls go through module attributes looked up at call time, so the
wrappers that `spans.Tracer` installs see the top-level calls too.
"""
from __future__ import annotations

import dataclasses
import importlib
import random
import statistics
import time
from typing import Optional

import corpus
from hierflow.config import DEFAULT_CONFIG, default_phi
from hierflow.graph import is_feasible

maxflow = importlib.import_module("hierflow.maxflow")
builder = importlib.import_module("hierflow.builder")
hierarchy = importlib.import_module("hierflow.hierarchy")


def solve_exact(case):
    """`hierflow solve --algo exact` on capacities at most n^2."""
    return maxflow.max_flow_exact(case.inst, default_phi(case.n), case.seed, DEFAULT_CONFIG)


def solve_scaled(case):
    """`hierflow solve --algo exact` on capacities above n^2."""
    solver = maxflow.exact_solver(default_phi(case.n), case.seed, DEFAULT_CONFIG)
    return maxflow.capacity_scaled_max_flow(case.inst, solver)


def build_and_validate(case):
    """`hierflow hierarchy`: build, then validate with the same seed."""
    inst, phi = case.inst, default_phi(case.n)
    build = builder.build_hierarchy(inst.g, inst.cap, phi, case.seed, DEFAULT_CONFIG)
    report = hierarchy.validate_hierarchy(inst.g, inst.cap, build.hierarchy, phi,
                                          DEFAULT_CONFIG, random.Random(case.seed))
    return build, report


def check_flow(case, res) -> Optional[str]:
    """None if res is a feasible flow of the oracle's value, else why not."""
    f = res.flow.values
    if len(f) != len(case.arcs):
        return f"flow has {len(f)} entries for {len(case.arcs)} arcs"
    if not is_feasible(case.inst, res.flow):
        return "is_feasible rejects the flow"
    net = [0] * case.n
    for (u, v, c), x in zip(case.arcs, f):
        if not 0 <= x <= c:
            return f"flow {x} outside [0, {c}] on arc ({u},{v})"
        net[u] += x
        net[v] -= x
    for v in range(case.n):
        if net[v] and v not in (case.source, case.sink):
            return f"flow not conserved at vertex {v}"
    if net[case.source] != case.expected or res.stats.value != case.expected:
        return (f"value {net[case.source]} (reported {res.stats.value}), "
                f"oracle {case.expected}")
    return None


def check_hierarchy(case, out) -> Optional[str]:
    _build, report = out
    return None if report.ok else "validate_hierarchy: " + "; ".join(report.errors)


def flow_fingerprint(res):
    return dataclasses.asdict(res.stats), tuple(res.flow.values)


def hierarchy_fingerprint(out):
    build, report = out
    h = build.hierarchy
    return (sorted(h.d), [sorted(x) for x in h.levels], tuple(h.tau), build.attempts,
            tuple(build.log), report.ok,
            tuple((c.level, c.size, c.exact, c.ok) for c in report.components))


def oracle_seconds(cases) -> Optional[float]:
    """Seconds the Edmonds-Karp oracle takes over the corpus (median of 3)."""
    if cases[0].expected is None:
        return None
    reps = []
    for _ in range(3):
        t0 = time.perf_counter()
        for c in cases:
            corpus.edmonds_karp(c.n, c.arcs, c.source, c.sink)
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


# workload -> (top-level call, oracle check, fingerprint of the output)
WORKLOADS = {
    "exact-cap": (solve_exact, check_flow, flow_fingerprint),
    "hier-build": (build_and_validate, check_hierarchy, hierarchy_fingerprint),
    "exact-scaled": (solve_scaled, check_flow, flow_fingerprint),
}
