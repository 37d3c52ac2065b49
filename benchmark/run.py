"""Layered benchmark for hierflow's exact max flow.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload exact-cap --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

  exact-cap     max_flow_exact on capacities <= 12
  hier-build    build_hierarchy then validate_hierarchy, as `hierflow hierarchy`
  exact-scaled  capacity_scaled_max_flow around the exact solver, as
                `hierflow solve` does when capacities exceed n^2

The seed makes the corpus; the program only sees the generated
instances.  One process, one thread.  The run repeats passes over the
corpus until --seconds have passed, checks every output against the
oracle, and prints the end-to-end metrics (--trace 0) or the per-layer
metrics of a traced run (--trace 1).  The last line of stdout is one
JSON object.  Times are reference seconds of this process alone:
wall-clock seconds corrected for the machine's speed at the time, as
clock.py explains.  The wall-clock figures are printed on `#` lines.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 5  # set-ups before every pass; setup_s is their median


def import_program():
    """Import hierflow from this checkout's sources, never from elsewhere."""
    if not (SRC / "hierflow" / "__init__.py").is_file():
        sys.exit(f"error: no hierflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hierflow
    if Path(hierflow.__file__).resolve().parent != SRC / "hierflow":
        sys.exit(f"error: imported hierflow from {hierflow.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["exact-cap", "hier-build", "exact-scaled"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import corpus
    import workloads
    from clock import Clock
    from spans import Tracer

    make = corpus.WORKLOADS[args.workload]
    call, check, fingerprint = workloads.WORKLOADS[args.workload]
    clock = Clock()
    setup_times = []  # (wall, reference) seconds of each set-up

    # with --trace 1, untraced and traced passes alternate, untraced first
    tracer = Tracer() if args.trace else None
    plain = []   # per call: (wall, reference) seconds of each untraced run
    traced = []  # per traced pass: (per-call seconds, layer seconds, counters)
    full_plain = 0  # untraced passes that ran every call
    first_fps = None
    problems = []  # failed checks that are not one call's output
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds

    def done():
        return (time.perf_counter() >= deadline and full_plain > 0
                and (tracer is None or len(traced) > 0))

    while not done():
        for _ in range(SETUP_REPS):
            cases, wall, ref = clock.timed(make, args.seed)
            if isinstance(cases, Exception):
                raise cases
            setup_times.append((wall, ref))
        if not plain:
            plain = [[] for _ in cases]
        use_trace = tracer is not None and len(traced) < full_plain
        times, outputs = [], []
        if use_trace:
            tracer.reset()
            tracer.install()
        gc.collect()
        try:
            for i, case in enumerate(cases):
                if use_trace:
                    tracer.instance = i
                out, wall, ref = clock.timed(call, case)
                times.append((wall, ref))
                outputs.append(out)
                # an untraced pass may stop short; a traced one counts whole
                if not use_trace and done():
                    break
        finally:
            if use_trace:
                tracer.uninstall()
        attempted += len(outputs)
        fps = []
        for case, out in zip(cases, outputs):
            try:
                why = (f"{type(out).__name__}: {out}" if isinstance(out, Exception)
                       else check(case, out))
                fp = None if why else fingerprint(out)
            except Exception as exc:  # an output of the wrong shape
                why, fp = f"checking the output raised {type(exc).__name__}: {exc}", None
            if why:
                failed += 1
                print(f"FAILED {case.name}: {why}", file=sys.stderr)
            fps.append(fp)
        if first_fps is None:
            first_fps = fps
        elif fps != first_fps[:len(fps)]:
            problems.append("outputs differ between passes"
                            + (" (traced vs untraced)" if use_trace else ""))
        if use_trace:
            # layer seconds go to reference seconds at the pass's own rate
            scale = sum(r for _w, r in times) / sum(w for w, _r in times)
            layers = {k: v * scale for k, v in tracer.times().items()}
            traced.append(([r for _w, r in times], layers, tracer.counters()))
        else:
            for samples, t in zip(plain, times):
                samples.append(t)
            full_plain += len(times) == len(cases)

    n_cases = len(cases)
    wall = pass_seconds([[r for _w, r in runs] for runs in plain])
    if tracer is None:
        raw = [[w for w, _r in runs] for runs in plain]
        metrics = {
            "wall_s": (wall, "s"),
            "call_ms.p50": (statistics.median(
                statistics.median(r for _w, r in runs) for runs in plain) * 1e3, "ms"),
            "setup_s": (statistics.median(r for _w, r in setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"# {args.workload} seed {args.seed}: {n_cases} calls, "
              f"{min(map(len, plain))} to {max(map(len, plain))} runs each, "
              f"errors {failed}/{attempted}")
        print(f"# times are reference seconds (see clock.py). wall_s sums each call's "
              f"median over its runs; call_ms.p50 is the median of those {n_cases} "
              f"per-call medians; setup_s is the median of {len(setup_times)} set-ups")
        print(f"# wall clock alone: wall_s {pass_seconds(raw):.6f} s, call_ms.p50 "
              f"{statistics.median(map(statistics.median, raw)) * 1e3:.3f} ms, setup_s "
              f"{statistics.median(w for w, _r in setup_times):.6f} s")
        ek = workloads.oracle_seconds(cases)
        if ek is not None:
            print(f"# reference only: the Edmonds-Karp oracle takes {ek:.6f} s "
                  f"of wall clock per pass")
    else:
        metrics = layer_metrics(traced, wall, problems)
        print(f"# {args.workload} seed {args.seed}: {full_plain} untraced and "
              f"{len(traced)} traced passes over {n_cases} calls, errors {failed}/{attempted}")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def pass_seconds(per_call) -> float:
    """Seconds for one pass: the median of each call's runs, summed."""
    return sum(statistics.median(runs) for runs in per_call)


def layer_metrics(traced, plain_wall, problems):
    """Per-layer metrics: each time the median over the traced passes,
    each counter that of the first (checked equal on every traced pass)."""
    counters = traced[0][2]
    if any(c != counters for _t, _s, c in traced[1:]):
        problems.append("traced counters differ between passes")
    counters = dict(counters)
    # the driver's own accounting must agree with the counts read per layer
    drv = "push_relabel.driver."
    if counters.pop("maxflow.relabels") != counters[drv + "relabel_climbs"]:
        problems.append("SolveStats.relabels differs from the driver's relabel climbs")
    if counters.pop("maxflow.augmentations") != (counters[drv + "augmentations"]
                                                 + counters["maxflow.safety_net_hits"]):
        problems.append("SolveStats.augmentations differs from the traced augmentations")
    out = {k: (statistics.median(s[k] for _t, s, _c in traced), "s") for k in traced[0][1]}
    for k, v in counters.items():
        out[k] = (v, UNITS.get(k.rsplit(".", 1)[1], "count"))
    traced_wall = pass_seconds(zip(*(t for t, _s, _c in traced)))
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return out


UNITS = {"eta": "levels", "early_share": "ratio", "cut_share": "ratio",
         "exact_share": "ratio", "augment_per_climb": "ratio",
         "landing_bound_ratio": "ratio"}


if __name__ == "__main__":
    sys.exit(main())
