"""Seeded corpora for the three workloads, and the max-flow oracle.

Instances are generated here, not by `hierflow.generators`, so that a
change to the program cannot change the benchmark's inputs.  The oracle
is a plain Edmonds-Karp that shares no code with the solver it checks.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from hierflow.graph import FlowInstance, build_graph

Arcs = List[Tuple[int, int, int]]


@dataclass
class Case:
    """One top-level call: its input, the seed handed to the solver, and
    the oracle's max-flow value (None on `hier-build`)."""

    name: str
    n: int
    arcs: Arcs
    source: int
    sink: int
    seed: int
    expected: Optional[int]
    inst: FlowInstance


def out_regular_arcs(rng: random.Random, n: int, d: int, cap: int) -> Arcs:
    """Every vertex gets d distinct random out-neighbours, so m = d * n."""
    arcs = []
    for u in range(n):
        for v in rng.sample([x for x in range(n) if x != u], d):
            arcs.append((u, v, rng.randint(1, cap)))
    return arcs


def grid_arcs(rng: random.Random, k: int, cap: int) -> Arcs:
    """k x k grid, arcs pointing right and down."""
    arcs = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                arcs.append((v, v + 1, rng.randint(1, cap)))
            if r + 1 < k:
                arcs.append((v, v + k, rng.randint(1, cap)))
    return arcs


def dag_arcs(rng: random.Random, n: int, m: int, cap: int) -> Arcs:
    """m distinct arcs forward in topological order 0..n-1."""
    arcs, seen = [], set()
    while len(arcs) < m:
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        if (i, j) not in seen:
            seen.add((i, j))
            arcs.append((i, j, rng.randint(1, cap)))
    return arcs


def dumbbell_arcs(k: int) -> Arcs:
    """Two complete unit digraphs on k vertices, one unit bridge each way."""
    arcs = [(a, b, 1) for a in range(k) for b in range(k) if a != b]
    arcs += [(a, b, 1) for a in range(k, 2 * k) for b in range(k, 2 * k) if a != b]
    arcs += [(k - 1, k, 1), (2 * k - 1, 0, 1)]
    return arcs


def st_instance(n: int, arcs: Arcs, source: int, sink: int) -> FlowInstance:
    """Single-source single-sink instance, as `hierflow solve` builds one."""
    g, caps = build_graph(n, arcs)
    big = sum(caps) + 1
    delta, nabla = [0] * n, [0] * n
    delta[source] = big
    nabla[sink] = big
    return FlowInstance(g, caps, delta, nabla)


def edmonds_karp(n: int, arcs: Arcs, s: int, t: int) -> int:
    """Max-flow value by shortest augmenting paths."""
    adj: List[List[int]] = [[] for _ in range(n)]
    head, cap = [], []
    for u, v, c in arcs:
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)
    value = 0
    while True:
        via = [-1] * n
        seen = [False] * n
        seen[s] = True
        q = deque([s])
        while q and not seen[t]:
            u = q.popleft()
            for a in adj[u]:
                v = head[a]
                if cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    via[v] = a
                    q.append(v)
        if not seen[t]:
            return value
        amt, v = None, t
        while v != s:
            a = via[v]
            amt = cap[a] if amt is None else min(amt, cap[a])
            v = head[a ^ 1]
        v = t
        while v != s:
            a = via[v]
            cap[a] -= amt
            cap[a ^ 1] += amt
            v = head[a ^ 1]
        value += amt


def sink_bottleneck(arcs: Arcs, sink: int, div: int) -> Arcs:
    """Divide the capacity of every arc into the sink by div (at least 1).

    Solver cost is bimodal in the size of the minimum cut's source side:
    once the cut saturates every vertex on that side climbs to death, so
    a cut next to the source costs about a tenth of one next to the sink.
    A thin sink puts the cut there on every instance and in every scaling
    phase, instead of a seed-dependent mix of the two modes.
    """
    return [(u, v, max(1, c // div) if v == sink else c) for u, v, c in arcs]


def exact_cap(seed: int) -> List[Case]:
    """60 random 4-out digraphs n 12..16, six 4x4 grids and six DAGs n 20
    with m = 3n; capacities at most 12, so no scaling.  36 of the 72
    calls are n = 14 graphs, so the median call is one of them."""
    rng = random.Random(seed)
    raw = []
    for n in (12, 14, 14, 14, 16) * 12:
        raw.append((f"random-{n}", n, out_regular_arcs(rng, n, 4, 12)))
    for k in (4,) * 6:
        raw.append((f"grid-{k}x{k}", k * k, grid_arcs(rng, k, 12)))
    for n in (20,) * 6:
        # a DAG whose sink is unreachable has flow 0 and exercises nothing
        arcs = dag_arcs(rng, n, 3 * n, 12)
        while edmonds_karp(n, arcs, 0, n - 1) == 0:
            arcs = dag_arcs(rng, n, 3 * n, 12)
        raw.append((f"dag-{n}", n, arcs))
    return [_flow_case(rng, name, n, sink_bottleneck(arcs, n - 1, 4)) for name, n, arcs in raw]


def exact_scaled(seed: int) -> List[Case]:
    """36 random 4-out digraphs n 8 with capacities up to 10^6, far
    above n^2, so `hierflow solve` takes the capacity-scaling path."""
    rng = random.Random(seed)
    return [_flow_case(rng, "random-8", 8,
                       sink_bottleneck(out_regular_arcs(rng, 8, 4, 10 ** 6), 7, 10))
            for _ in range(36)]


def hier_build(seed: int) -> List[Case]:
    """12 unit-capacity random 4-out digraphs n 48, and dumbbells k = 6, 8,
    as `hierflow hierarchy` gets them."""
    rng = random.Random(seed)
    raw = [("random-48", 48, out_regular_arcs(rng, 48, 4, 1)) for _ in range(12)]
    raw += [(f"dumbbell-{k}", 2 * k, dumbbell_arcs(k)) for k in (6, 8)]
    return [Case(name, n, arcs, 0, n - 1, rng.getrandbits(32), None,
                 st_instance(n, arcs, 0, n - 1)) for name, n, arcs in raw]


def _flow_case(rng: random.Random, name: str, n: int, arcs: Arcs) -> Case:
    """Source 0, sink n - 1, and the oracle's value."""
    return Case(name, n, arcs, 0, n - 1, rng.getrandbits(32),
                edmonds_karp(n, arcs, 0, n - 1), st_instance(n, arcs, 0, n - 1))


WORKLOADS = {"exact-cap": exact_cap, "hier-build": hier_build, "exact-scaled": exact_scaled}
