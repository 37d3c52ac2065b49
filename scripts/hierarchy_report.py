#!/usr/bin/env python3
"""Build hierarchies over a seeded corpus and report heights, level
capacities, attempts, sampled certificates and wall time.  `sampled`
counts the build's certify log lines with `exact=0`, over every attempt:
components the builder certified only because its falsifier found no
sparse cut, not by an exhaustive search.  A build that finds no valid
hierarchy gets an `error:` line naming its graph and seed instead of a
row, and the script exits 1 after the table.

Usage: python scripts/hierarchy_report.py [--phi 1/16] [--seeds 3] [--n 14]
"""
import argparse
import random
import sys
import time

from hierflow.builder import build_hierarchy
from hierflow.cli import _phi_arg
from hierflow.errors import BuildFailedError
from hierflow.generators import gen_dumbbell
from hierflow.graph import build_graph


def corpus(rng, n_max):
    yield "cycle", build_graph(n_max, [(i, (i + 1) % n_max, 1) for i in range(n_max)])
    gen = gen_dumbbell(max(2, n_max // 2 - 1), 1)
    yield gen.name, build_graph(gen.n, gen.arcs)
    for t in range(4):
        n = rng.randint(4, n_max)
        arcs = []
        seen = set()
        for _ in range(rng.randint(n, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                arcs.append((u, v, rng.randint(1, 3)))
        yield f"random-{t}", build_graph(n, arcs)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--phi", type=_phi_arg, default="1/16")
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--n", type=int, default=14)
    args = ap.parse_args(argv)
    if args.n < 4:  # the random graphs take 4 to n vertices
        ap.error(f"argument --n: expected an integer >= 4, got {args.n}")
    if args.seeds < 1:  # an empty table would pass without a single build
        ap.error(f"argument --seeds: expected an integer >= 1, got {args.seeds}")
    rng = random.Random(7)
    print("graph\tn\tm\tseed\teta\tlevel_caps\tattempts\tsampled\tms")
    failed = 0
    for name, (g, caps) in corpus(rng, args.n):
        for seed in range(args.seeds):
            t0 = time.perf_counter()
            try:
                res = build_hierarchy(g, caps, args.phi, seed=seed)
            except BuildFailedError as exc:
                print(f"error: {name} seed {seed}: {exc}", file=sys.stderr)
                failed += 1
                continue
            ms = (time.perf_counter() - t0) * 1e3
            lv = ",".join(str(sum(caps[e] for e in x))
                          for x in res.hierarchy.levels) or "-"
            sampled = sum(line.endswith(" exact=0") for line in res.log)
            print(f"{name}\t{g.n}\t{g.m}\t{seed}\t{res.hierarchy.eta}\t{lv}\t"
                  f"{res.attempts}\t{sampled}\t{ms:.0f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
