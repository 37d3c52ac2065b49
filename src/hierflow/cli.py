"""Command-line front end: solvers, generators, hierarchy tools, bench."""
from __future__ import annotations

import argparse
import contextlib
import os
import random
import stat
import sys
import time
from dataclasses import replace
from fractions import Fraction
from typing import Iterator, List, Optional, TextIO

from .builder import build_hierarchy
from .config import DEFAULT_CONFIG, check_phi, default_phi
from .errors import BadParamsError, HierflowError, ParseError
from .hierarchy import (Hierarchy, hierarchy_from_text, hierarchy_to_text,
                        validate_hierarchy)
from .graph import FlowInstance
from .io import emit_dimacs, emit_diffusion, parse_instance
from .maxflow import dag_approx_flow, edmonds_karp, max_flow
from .generators import MODELS, generate
from .sparse_cut import sparse_cut


class _FileFault(Exception):
    """A path on the command line that cannot be read or written: missing,
    a directory, not permitted, or not text in the locale's encoding."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")


PARSE_ERRORS = (ParseError, _FileFault)
ALGOS = ("exact", "ek")
# every size some generator model reads, one `gen` flag each
GEN_SIZES = tuple(dict.fromkeys(key for model in MODELS.values() for key in model.sizes))


def _phi_arg(text: str) -> Fraction:
    """p or p/q, an expansion parameter in (0, 1)."""
    num, _, den = text.partition("/")
    try:
        phi = Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected p or p/q with q != 0, got {text!r}") from None
    try:
        check_phi(phi)
    except BadParamsError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return phi


def _algos_arg(text: str) -> List[str]:
    """Comma list of solvers, each one of ALGOS."""
    algos = text.split(",")
    for algo in algos:
        if algo not in ALGOS:
            raise argparse.ArgumentTypeError(
                f"unknown solver {algo!r}; choose from {', '.join(ALGOS)}")
    return algos


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _FileFault(path, exc.strerror) from None
    except UnicodeDecodeError as exc:
        raise _FileFault(path, str(exc)) from None


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[Optional[TextIO]]:
    """The file at `path` opened for writing, or None without a path.
    Commands open it before their run, so a path that cannot be written
    costs no run and puts nothing on stdout.  It is opened for appending,
    which truncates nothing: `_write` empties it, so a run that fails
    leaves an existing file as it was."""
    if not path:
        yield None
        return
    try:
        fh = open(path, "a")
    except OSError as exc:
        raise _FileFault(path, exc.strerror) from None
    with fh:
        yield fh


def _write(fh: TextIO, text: str) -> None:
    """Replace the contents of a file from `_output` with text; a pipe or
    a device is only written."""
    try:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)
        fh.write(text)
        fh.flush()
    except OSError as exc:
        raise _FileFault(fh.name, exc.strerror) from None


def _load(path: str) -> FlowInstance:
    return parse_instance(_read(path))


def _config_from(args) -> "SolverConfig":
    return replace(DEFAULT_CONFIG, debug_invariants=args.debug_invariants)


def _write_flow(fh: TextIO, inst: FlowInstance, flow) -> None:
    g = inst.g
    lines = []
    for e in range(g.m):
        x = flow.values[e]
        if x:
            lines.append(f"f {g.tails[e] + 1} {g.heads[e] + 1} {x}")
    _write(fh, "\n".join(lines) + ("\n" if lines else ""))


def _solve(algo: str, inst: FlowInstance, args, cfg: "SolverConfig") -> "SolveResult":
    """Edmonds-Karp for `ek`, `max_flow` for `exact`."""
    if algo == "ek":
        return edmonds_karp(inst)
    return max_flow(inst, args.phi, args.seed, cfg)


def cmd_solve(args) -> int:
    inst = _load(args.file)
    cfg = _config_from(args)
    with _output(args.flow) as flow_out:
        print(f"# seed {args.seed} file {args.file} algo {args.algo}", file=sys.stderr)
        res = _solve(args.algo, inst, args, cfg)
        print(f"value {res.stats.value}")
        if flow_out is not None:
            _write_flow(flow_out, inst, res.flow)
    return 0


def cmd_approx_dag(args) -> int:
    inst = _load(args.file)
    cfg = _config_from(args)
    with _output(args.flow) as flow_out:
        result = dag_approx_flow(inst, cfg)
        print(f"value {result.value}")
        if flow_out is not None:
            _write_flow(flow_out, inst, result.flow)
    return 0


def cmd_sparse_cut(args) -> int:
    inst = _load(args.file)
    cfg = _config_from(args)
    phi = args.phi if args.phi is not None else default_phi(inst.n)
    print(f"# seed {args.seed} kappa {args.kappa} phi {phi}", file=sys.stderr)
    if args.terminals == "all":
        f_edges = set(range(inst.m))
        hier = Hierarchy(set(), [], list(range(1, inst.n + 1)))
    else:
        f_edges = set()
        build = build_hierarchy(inst.g, inst.cap, phi, args.seed, cfg)
        hier = build.hierarchy
    # the front end accepts any digraph: strong connectivity only matters
    # for the cut-quality analysis, and --debug-invariants checks it
    out = sparse_cut(inst, args.kappa, f_edges, hier, cfg, phi=phi)
    print(f"flow {out.value}")
    if out.cut is None:
        print("routed")
    else:
        print("cut " + " ".join(str(v + 1) for v in out.cut))
        mtr = out.metrics
        print(f"metrics out {mtr.boundary_out} in {mtr.boundary_in} "
              f"vol {mtr.vol_f_side} volother {mtr.vol_f_other} "
              f"abs {mtr.absorbed} ex {mtr.excess}")
    return 0


def cmd_hierarchy(args) -> int:
    inst = _load(args.file)
    cfg = _config_from(args)
    phi = args.phi if args.phi is not None else default_phi(inst.n)
    with _output(args.out) as out:
        build = build_hierarchy(inst.g, inst.cap, phi, args.seed, cfg)
        text = hierarchy_to_text(build.hierarchy, inst.m)
        # build_hierarchy validated the attempt it returns
        summary = (f"# seed {args.seed} phi {phi} eta {build.hierarchy.eta} "
                   f"attempts {build.attempts}\n" + build.report.summary())
        if out is not None:
            _write(out, text)
            print(summary)
        else:
            sys.stdout.write(text)
            print(summary, file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    inst = _load(args.graph)
    hier = hierarchy_from_text(_read(args.hierarchy), inst.g)
    report = validate_hierarchy(inst.g, inst.cap, hier, args.phi, DEFAULT_CONFIG,
                                random.Random(0))
    print(report.summary())
    return 0 if report.ok else 1


def cmd_gen(args) -> int:
    sizes = {key: getattr(args, key) for key in GEN_SIZES if getattr(args, key) is not None}
    with _output(args.out) as out:
        gen = generate(args.model, args.seed, **sizes)
        if args.format == "dimacs":
            text = emit_dimacs(gen.n, gen.arcs, gen.source, gen.sink, gen.name)
        else:
            text = emit_diffusion(gen.instance(), gen.name)
        if out is not None:
            _write(out, text)
        else:
            sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    cfg = _config_from(args)
    print(f"# seed {args.seed}")
    print("instance\talgo\tvalue\twall_ms\taugmentations\trelabels")
    for path in args.files:
        inst = _load(path)
        for algo in args.algo:
            t0 = time.perf_counter()
            res = _solve(algo, inst, args, cfg)
            ms = (time.perf_counter() - t0) * 1000.0
            print(f"{path}\t{algo}\t{res.stats.value}\t{ms:.2f}\t"
                  f"{res.stats.augmentations}\t{res.stats.relabels}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hierflow",
                                description="max-flow via weighted push-relabel "
                                            "over expander hierarchies")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--phi", type=_phi_arg, default=None,
                        help="expansion parameter as p/q")
        sp.add_argument("--debug-invariants", action="store_true")

    sp = sub.add_parser("solve", help="exact maximum flow")
    sp.add_argument("--algo", choices=ALGOS, default="exact")
    sp.add_argument("--flow", help="write flow lines to this file")
    common(sp)
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("approx-dag", help="constant-factor approximation on DAGs")
    sp.add_argument("--flow")
    sp.add_argument("--debug-invariants", action="store_true")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_approx_dag)

    sp = sub.add_parser("sparse-cut", help="route demand or find a sparse level cut")
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--terminals", choices=["all", "none"], default="all")
    common(sp)
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_sparse_cut)

    sp = sub.add_parser("hierarchy", help="build and validate a hierarchy")
    sp.add_argument("--out", help="write hierarchy text here instead of stdout")
    common(sp)
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_hierarchy)

    sp = sub.add_parser("validate", help="check a hierarchy file against a graph")
    sp.add_argument("--phi", type=_phi_arg, required=True)
    sp.add_argument("hierarchy")
    sp.add_argument("graph")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("gen", help="generate an instance file")
    sp.add_argument("--model", choices=list(MODELS), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["dimacs", "diff"], default="dimacs")
    for key in GEN_SIZES:
        sp.add_argument("--gen-n" if key == "n" else f"--{key}", type=int, dest=key)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("bench", help="table of solver runs")
    sp.add_argument("--algo", type=_algos_arg, default=list(ALGOS),
                    help="comma list: exact,ek")
    common(sp)
    sp.add_argument("files", nargs="+")
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PARSE_ERRORS + (BadParamsError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HierflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # below graph.MAX_SIZE, yet more than this machine has
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
