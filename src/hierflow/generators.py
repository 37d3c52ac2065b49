"""Deterministic instance generators for tests and benchmarks."""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

from .errors import BadParamsError
from .graph import MAX_SIZE, FlowInstance, st_instance


@dataclass
class Generated:
    name: str
    n: int
    arcs: List[Tuple[int, int, int]]
    source: int
    sink: int

    def instance(self) -> FlowInstance:
        return st_instance(self.n, self.arcs, self.source, self.sink)


def _check_size(n: int, m: int) -> None:
    if n > MAX_SIZE or m > MAX_SIZE:
        raise BadParamsError(f"{n} vertices and {m} arcs: more than {MAX_SIZE} of either")


def gen_cycle(n: int, cap: int = 1) -> Generated:
    if n < 2 or cap < 0:
        raise BadParamsError("cycle needs n >= 2 and cap >= 0")
    _check_size(n, n)
    arcs = [(i, (i + 1) % n, cap) for i in range(n)]
    return Generated(f"cycle-{n}", n, arcs, 0, n // 2)


def gen_dumbbell(k: int, bridge: int, clique_cap: int = 1) -> Generated:
    """Two complete digraphs on k vertices, one bridge each way."""
    if k < 2 or bridge < 0 or clique_cap < 0:
        raise BadParamsError("dumbbell needs k >= 2, bridge >= 0 and cap >= 0")
    _check_size(2 * k, 2 * k * (k - 1) + 2)
    arcs = []
    for a in range(k):
        for b in range(k):
            if a != b:
                arcs.append((a, b, clique_cap))
    for a in range(k, 2 * k):
        for b in range(k, 2 * k):
            if a != b:
                arcs.append((a, b, clique_cap))
    arcs.append((k - 1, k, bridge))      # forward bridge
    arcs.append((2 * k - 1, 0, bridge))  # return bridge
    return Generated(f"dumbbell-{k}-{bridge}", 2 * k, arcs, 0, 2 * k - 1)


def gen_dag(n: int, m: int, cap: int, seed: int) -> Generated:
    if n < 2 or m < 1 or cap < 1:
        raise BadParamsError("dag needs n >= 2, m >= 1, cap >= 1")
    _check_size(n, m)
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)  # perm[i] = vertex at topological position i
    arcs = []
    seen = set()
    guard = 0
    fit = min(m, n * (n - 1) // 2)  # no draw adds an arc once all that fit are drawn
    while len(arcs) < fit and guard < 50 * m:
        guard += 1
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        u, v = perm[i], perm[j]
        if (u, v) in seen:
            continue
        seen.add((u, v))
        arcs.append((u, v, rng.randint(1, cap)))
    if not arcs:
        raise BadParamsError("could not place any DAG arc")
    return Generated(f"dag-{n}-{m}-{seed}", n, arcs, perm[0], perm[n - 1])


def gen_random(n: int, m: int, cap: int, seed: int) -> Generated:
    if n < 2 or m < 1 or cap < 1:
        raise BadParamsError("random needs n >= 2, m >= 1, cap >= 1")
    _check_size(n, m)
    rng = random.Random(seed)
    arcs = []
    seen = set()
    guard = 0
    fit = min(m, n * (n - 1))  # no draw adds an arc once all that fit are drawn
    while len(arcs) < fit and guard < 50 * m + 100:
        guard += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        arcs.append((u, v, rng.randint(1, cap)))
    return Generated(f"random-{n}-{m}-{seed}", n, arcs, 0, n - 1)


def gen_grid(rows: int, cols: int, cap: int, seed: int = 0) -> Generated:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise BadParamsError("grid needs at least two cells")
    if cap < 1:
        raise BadParamsError("grid needs cap >= 1")
    _check_size(rows * cols, 2 * rows * cols)
    rng = random.Random(seed)
    n = rows * cols
    arcs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                arcs.append((v, v + 1, rng.randint(1, cap)))
            if r + 1 < rows:
                arcs.append((v, v + cols, rng.randint(1, cap)))
    return Generated(f"grid-{rows}x{cols}-{seed}", n, arcs, 0, n - 1)


class Model(NamedTuple):
    make: Callable[..., Generated]
    sizes: Dict[str, int]  # each size the model reads, with its default, in make's order
    seeded: bool           # make takes the seed after its sizes


MODELS = {
    "dag": Model(gen_dag, {"n": 10, "m": 20, "cap": 5}, True),
    "random": Model(gen_random, {"n": 10, "m": 20, "cap": 5}, True),
    "dumbbell": Model(gen_dumbbell, {"k": 5, "bridge": 3, "cap": 1}, False),
    "cycle": Model(gen_cycle, {"n": 8, "cap": 1}, False),
    "grid": Model(gen_grid, {"rows": 3, "cols": 3, "cap": 5}, True),
}


def generate(model: str, seed: int = 0, **sizes) -> Generated:
    """Dispatch by model name; deterministic in (model, sizes, seed).
    Raises BadParamsError on a size the model does not read."""
    if model not in MODELS:
        raise BadParamsError(f"unknown model {model!r}")
    make, reads, seeded = MODELS[model]
    unread = [key for key in sizes if key not in reads]
    if unread:
        raise BadParamsError(f"{model} reads only {', '.join(reads)}, "
                             f"not {', '.join(unread)}")
    args = [sizes.get(key, default) for key, default in reads.items()]
    try:
        return make(*args, seed) if seeded else make(*args)
    except (TypeError, ValueError) as exc:
        raise BadParamsError(str(exc))
