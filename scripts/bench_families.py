#!/usr/bin/env python3
"""Benchmark the exact solver against the shortest-augmenting-path oracle
across the generator families and print a TSV table.  Each row solves its
instance three times with each solver, alternating, and `exact_ms` and
`ek_ms` are the medians.  Exits 1 on the first run whose value differs
from the oracle's first or whose flow is not feasible.
Rows are solved by `max_flow`, as `hierflow solve` does; the random family
with capacities up to 10^6, and again up to 10^12 (rows named `-u1e12`),
runs at sizes up to 400 and is scaled, in `-scaled` rows (at n = 1000,
10^6 <= n^2, so that row would not be scaled).  At n = 50 to 400, a row
at 10^6 scales in 2 phases and one at 10^12 in several, each phase after
the first taking as many bits as the last minimum cut allows.
The cycle family, where push-relabel's global lift keeps the climbs to
2n - 2 (1,998 at n = 1000), runs at every size; `relabels` counts
push-relabel's climbs.  A dense random family with m = n^2 / 8 arcs, whose
value grows with n, runs at sizes from 33 (where n^2 / 8 first exceeds the
sparse rows' 4n) to 400.

With --json FILE, the rows also go to FILE as a JSON object (seed, sizes
and one object per row: instance, n, m, exact_ms, ek_ms and every
`SolveStats` field).  FILE is opened and written as `hierflow` writes its
output files (`cli._output`, `cli._write`): before the first row, so a path
that cannot be written exits 2 with an `error:` line and runs nothing, and
emptied and written only once every row has matched the oracle, so a failed
run leaves an existing FILE as it was.

Usage: python scripts/bench_families.py [--seed N] [--sizes 8,12,16,24,30,50,80]
                                        [--json FILE]
"""
import argparse
import dataclasses
import json
import statistics
import sys
import time

from hierflow.cli import _FileFault, _output, _write
from hierflow.generators import gen_cycle, gen_dumbbell, gen_grid, generate
from hierflow.graph import is_feasible
from hierflow.maxflow import edmonds_karp, max_flow

RUNS = 3  # solves per solver and row; the row's times are their medians


def _sizes_arg(text):
    """Comma list of vertex counts, each at least 2."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 2:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers >= 2, got {text!r}")
    return sizes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sizes", type=_sizes_arg, default="8,12,16,24,30,50,80")
    ap.add_argument("--json", metavar="FILE")
    args = ap.parse_args(argv)
    try:
        with _output(args.json) as out:
            rows = _table(args)
            if rows is None:
                return 1
            if out is not None:
                # one row per line, so two files diff row by row
                body = ",\n  ".join(json.dumps(row) for row in rows)
                _write(out, f'{{"seed": {args.seed}, "sizes": {json.dumps(args.sizes)}, '
                            f'"rows": [\n  {body}\n]}}\n')
    except _FileFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _table(args):
    """Print the table; its rows, or None after the first run that differs
    from the oracle or is not feasible."""
    cases = []
    for n in args.sizes:
        cases.append(generate("random", seed=args.seed, n=n, m=4 * n, cap=12))
        cases.append(generate("dag", seed=args.seed, n=n, m=3 * n, cap=9))
        if n <= 400:
            cases.append(generate("random", seed=args.seed, n=n, m=4 * n, cap=10 ** 6))
            big = generate("random", seed=args.seed, n=n, m=4 * n, cap=10 ** 12)
            cases.append(dataclasses.replace(big, name=big.name + "-u1e12"))
        cases.append(gen_cycle(n, 3))
        if 32 < n <= 400:
            cases.append(generate("random", seed=args.seed, n=n, m=n * n // 8, cap=12))
    cases += [gen_dumbbell(k, 2) for k in (3, 4, 5)]
    cases.append(gen_grid(4, 5, 6, seed=args.seed))

    print("instance\tn\tm\tvalue\texact_ms\tek_ms\titers\tsafety_net\tphases\trelabels")
    rows = []
    solvers = {"exact": lambda inst: max_flow(inst, seed=args.seed), "ek": edmonds_karp}
    for gen in cases:
        inst = gen.instance()
        runs = {solver: [] for solver in solvers}  # (result, ms) per run
        for _ in range(RUNS):
            for solver, solve in solvers.items():
                t0 = time.perf_counter()
                out = solve(inst)
                runs[solver].append((out, (time.perf_counter() - t0) * 1e3))
        res, oracle = runs["exact"][0][0], runs["ek"][0][0]
        name = gen.name + ("-scaled" if res.stats.phases else "")
        for solver, done in runs.items():
            for i, (out, _ms) in enumerate(done, 1):
                if out.stats.value != oracle.stats.value:
                    print(f"MISMATCH on {name} ({solver} run {i}): {out.stats.value} vs "
                          f"{oracle.stats.value}", file=sys.stderr)
                    return None
                if not is_feasible(inst, out.flow):
                    print(f"INFEASIBLE flow on {name} ({solver} run {i})", file=sys.stderr)
                    return None
        exact_ms, ek_ms = (statistics.median(ms for _out, ms in runs[s]) for s in ("exact", "ek"))
        print(f"{name}\t{gen.n}\t{len(gen.arcs)}\t{res.stats.value}\t"
              f"{exact_ms:.1f}\t{ek_ms:.1f}\t{res.stats.iterations}\t"
              f"{res.stats.safety_net_hits}\t{res.stats.phases}\t{res.stats.relabels}")
        rows.append(dict(instance=name, n=gen.n, m=len(gen.arcs), exact_ms=round(exact_ms, 1),
                         ek_ms=round(ek_ms, 1), **dataclasses.asdict(res.stats)))
    return rows


if __name__ == "__main__":
    sys.exit(main())
