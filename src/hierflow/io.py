"""Instance file formats: DIMACS max-flow and the diffusion variant.

Vertices are 1-indexed on disk, 0-indexed in memory.  `parse_instance`
reads both formats in one pass and returns the `FlowInstance`: the
problem line, `p max <n> <m>` or `p diff <n> <m>`, sets the format; `a`
arc lines belong to both, `n <v> s|t` lines only to `p max` files and
`src`/`snk <v> <amount>` lines only to `p diff` files.  A DIMACS
source/sink pair becomes the supply and sink capacity of those two
vertices, one above the total edge capacity, which is effectively
unbounded.  Counts below 0 or above `graph.MAX_SIZE`,
self-loops, a line before the problem line or of the other format, a
second source or sink line, and a source that is also the sink are
rejected as a ParseError on their line.  A fault of the whole file (no
problem line, no source or sink line, an arc count other than the
declared one, supply above sink capacity) is a ParseError on line 0.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import ParseError
from .graph import MAX_SIZE, FlowInstance, build_graph, st_instance


def _int(token: str, no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"expected an integer, got {token!r}")


def _problem(line: str, fmt: Optional[str], no: int) -> Tuple[str, int, int]:
    """(format, n, m) of a `p max|diff <n> <m>` line; `fmt` is None before the first."""
    parts = line.split()
    # only `p` and a space start a problem line, as emit_* writes it
    if not line.startswith("p ") or len(parts) != 4 or parts[1] not in ("max", "diff"):
        raise ParseError(no, "expected `p max <n> <m>` or `p diff <n> <m>`")
    if fmt is not None:
        raise ParseError(no, "duplicate problem line")
    n, m = _int(parts[2], no), _int(parts[3], no)
    if n < 0 or m < 0:
        raise ParseError(no, "negative vertex or arc count")
    if n > MAX_SIZE or m > MAX_SIZE:
        raise ParseError(no, f"more than {MAX_SIZE} vertices or arcs")
    return parts[1], n, m


def _arc(parts: List[str], n: Optional[int], no: int) -> Tuple[int, int, int]:
    """The 0-based (u, v, cap) of an `a <u> <v> <cap>` line."""
    if len(parts) != 4:
        raise ParseError(no, "expected `a <u> <v> <cap>`")
    if n is None:
        raise ParseError(no, "arc line before problem line")
    u, v, c = _int(parts[1], no) - 1, _int(parts[2], no) - 1, _int(parts[3], no)
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(no, "arc endpoint out of range")
    if u == v:
        raise ParseError(no, f"self-loop at vertex {u + 1}")
    if c < 0:
        raise ParseError(no, "negative capacity")
    return u, v, c


def parse_instance(text: str) -> FlowInstance:
    """A `p max` (source/sink) or `p diff` (diffusion) file, in one pass."""
    fmt = n = m = None
    s = t = None
    s_no = t_no = 0
    arcs: List[Tuple[int, int, int]] = []
    srcs: List[Tuple[int, int]] = []
    snks: List[Tuple[int, int]] = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            fmt, n, m = _problem(line, fmt, no)
        elif kind == "a":
            arcs.append(_arc(parts, n, no))
        # a line of the other format falls through to "unknown line kind";
        # before the problem line each kind has its own error
        elif kind == "n" and fmt != "diff":
            if len(parts) != 3 or parts[2] not in ("s", "t"):
                raise ParseError(no, "expected `n <v> s|t`")
            if n is None:
                raise ParseError(no, "node line before problem line")
            v = _int(parts[1], no) - 1
            if not (0 <= v < n):
                raise ParseError(no, f"vertex {parts[1]} out of range")
            if (s if parts[2] == "s" else t) is not None:
                raise ParseError(no, f"second `n <v> {parts[2]}` line")
            if parts[2] == "s":
                s, s_no = v, no
            else:
                t, t_no = v, no
        elif kind in ("src", "snk") and fmt != "max":
            if len(parts) != 3:
                raise ParseError(no, f"expected `{kind} <v> <amount>`")
            if n is None:
                raise ParseError(no, f"{kind} line before problem line")
            v, amount = _int(parts[1], no) - 1, _int(parts[2], no)
            if not (0 <= v < n):
                raise ParseError(no, "vertex out of range")
            if amount < 0:
                raise ParseError(no, "negative amount")
            (srcs if kind == "src" else snks).append((v, amount))
        else:
            raise ParseError(no, f"unknown line kind {kind!r}")
    if n is None:
        raise ParseError(0, "missing problem line")
    if fmt == "max":
        if s is None or t is None:
            raise ParseError(0, "missing `n ... s` or `n ... t` line")
        if s == t:
            raise ParseError(max(s_no, t_no), f"vertex {s + 1} is both source and sink")
    if len(arcs) != m:
        raise ParseError(0, f"declared {m} arcs, saw {len(arcs)}")
    if fmt == "max":
        return st_instance(n, arcs, s, t)
    delta = [0] * n
    nabla = [0] * n
    for v, amt in srcs:
        delta[v] += amt
    for v, amt in snks:
        nabla[v] += amt
    if sum(delta) > sum(nabla):
        raise ParseError(
            0, f"total supply {sum(delta)} exceeds total sink capacity {sum(nabla)}")
    g, caps = build_graph(n, arcs)
    return FlowInstance(g, caps, delta, nabla)


def emit_dimacs(n: int, arcs: List[Tuple[int, int, int]], s: int, t: int,
                name: str = "instance") -> str:
    lines = [f"c {name}", f"p max {n} {len(arcs)}", f"n {s + 1} s", f"n {t + 1} t"]
    lines += [f"a {u + 1} {v + 1} {c}" for u, v, c in arcs]
    return "\n".join(lines) + "\n"


def emit_diffusion(inst: FlowInstance, name: str = "instance") -> str:
    g = inst.g
    lines = [f"c {name}", f"p diff {g.n} {g.m}"]
    lines += [f"a {g.tails[e] + 1} {g.heads[e] + 1} {inst.cap[e]}" for e in range(g.m)]
    lines += [f"src {v + 1} {inst.delta[v]}" for v in range(g.n) if inst.delta[v] > 0]
    lines += [f"snk {v + 1} {inst.nabla[v]}" for v in range(g.n) if inst.nabla[v] > 0]
    return "\n".join(lines) + "\n"
