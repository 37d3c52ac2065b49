"""Bottom-up expander-hierarchy construction.

The builder grows levels from the terminal set downward-up: level one
decomposes with every edge as a terminal, each later level decomposes
with the previous separator as its terminal set.  Components are handled
by `cut_or_embed`, which gets the hierarchy of the component's lower
levels as a callable: the respecting order it needs is computed only if
the game plays a round.  Each certificate's log line says whether it is
exact (`exact=1`) or only not refuted by the sampled falsifier
(`exact=0`).  Every returned cut removes the sparser
direction of its boundary, and when that direction contains non-terminal
edges (a non-nested cut) the lower hierarchy of both sides is rebuilt
from scratch.  Unless the caller opts out (`validate=False`: the exact
driver, whose safety net needs no valid hierarchy), the output is
re-validated by brute force with fresh-seed retries, so its correctness
rests on the validator rather than on any maintenance argument.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Sequence, Set

from .config import DEFAULT_CONFIG, SolverConfig, check_phi, default_phi
from .cut_matching import FALSIFIER_CUTS, cut_or_embed
from .errors import BuildFailedError, CutCheckFailedError, IterationCapExceededError
from .graph import DiGraph, scc_subgraph, subgraph
from .hierarchy import Hierarchy, ValidationReport, respecting_topo_order, validate_hierarchy

# fresh-seed attempts before build_hierarchy gives up
BUILD_RETRIES = 5


@dataclass
class Parts:
    """Partition-in-progress: D plus levels, over some edge subset."""

    d: Set[int] = field(default_factory=set)
    levels: List[Set[int]] = field(default_factory=list)

    def covered(self) -> Set[int]:
        out = set(self.d)
        for x in self.levels:
            out |= x
        return out

    def restrict(self, edge_subset: Set[int]) -> "Parts":
        """The partition of `edge_subset`; a level left empty is dropped,
        and the levels above it move down."""
        levels = (x & edge_subset for x in self.levels)
        return Parts(self.d & edge_subset, [x for x in levels if x])


class _Budget:
    def __init__(self, cap: int, falsifier_cuts: int):
        self.cap = cap
        self.falsifier_cuts = falsifier_cuts
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.cap:
            raise IterationCapExceededError(
                f"{self.used} recursive cut events exceed the cap {self.cap}")


@dataclass
class BuildResult:
    hierarchy: Hierarchy
    log: List[str]
    attempts: int
    # the accepted attempt's validation; None under validate=False
    report: Optional[ValidationReport] = None


def _sub_hierarchy(sub: DiGraph, local: Dict[int, int], parts: Parts) -> Hierarchy:
    """Hierarchy of a piece's non-terminal edges in its local edge ids
    (`local` maps each edge id of the piece to its index in `sub`)."""
    d = {local[e] for e in parts.d}
    levels = [{local[e] for e in x} for x in parts.levels]
    # any non-terminal edge not placed by parts would be a bookkeeping bug
    tau = respecting_topo_order(sub, d, levels)
    return Hierarchy(d, levels, tau)


def _run(frame):
    """Run a generator frame to its return value on one explicit stack.

    A frame calls a nested frame by yielding it and is sent the nested
    frame's return value, so nesting depth costs heap, not Python stack.
    """
    stack = [frame]
    value = None
    while True:
        try:
            nested = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(nested)
            value = None


class _Frame:
    """A frame graph (vertices, edge_ids) with its SCC split and each
    piece's local graph, made on first use.  Every level of a build
    decomposes the same frame graph, so each is made once per frame.
    A frame without edges has no pieces, and the local graph of a piece
    that is all of `g` is `g`.  The split proves each piece strongly
    connected, so `cut_or_embed` re-checks it only under `debug_invariants`."""

    def __init__(self, g: DiGraph, vertices: List[int], edge_ids: Set[int]):
        self.g = g
        self.vertices = vertices
        self.edge_ids = edge_ids
        self._split = None
        self._pieces = None
        self._local: Dict[int, tuple] = {}

    def split(self):
        """`scc_subgraph` of the frame graph, edges in id order."""
        if self._split is None:
            self._split = scc_subgraph(self.g, self.vertices, sorted(self.edge_ids))
        return self._split

    def pieces(self) -> List[tuple]:
        """(sorted vertices, edge ids) per piece, smallest piece first."""
        if not self.edge_ids:
            return []
        if self._pieces is None:
            comps, inner, _ = self.split()
            order = sorted(range(len(comps)), key=lambda i: (len(comps[i]), min(comps[i])))
            self._pieces = [(sorted(comps[i]), inner[i]) for i in order]
        return self._pieces

    def local(self, i: int):
        """Piece i's `subgraph` and the index of each of its edge ids there."""
        if i not in self._local:
            g, (piece, edges) = self.g, self._pieces[i]
            whole = len(piece) == g.n and len(edges) == g.m
            self._local[i] = (g if whole else subgraph(g, piece, edges),
                              {e: j for j, e in enumerate(edges)})
        return self._local[i]


def _decompose(g: DiGraph, cap, frame: _Frame, f_edges: Set[int], below: Parts,
               phi: Fraction, rng: random.Random, config: SolverConfig, budget: _Budget,
               log: List[str], level_no: int):
    """Carve a separator out of the frame graph so the terminals expand
    in what remains; returns (removed, partition of the rest).
    A generator frame for `_run`."""
    removed: Set[int] = set()
    parts = Parts()
    # edges between pieces fall through to D at assembly
    for i, (piece, edges_here) in enumerate(frame.pieces()):
        f_here = {e for e in edges_here if e in f_edges}
        lower_here = {e for e in edges_here if e not in f_edges}
        below_here = below.restrict(lower_here)
        if not f_here:
            parts.d |= below_here.d
            _merge_levels(parts, below_here.levels)
            continue
        sub, local = frame.local(i)
        # the piece's order is computed only if the game plays a round
        outcome = cut_or_embed(sub, [cap[e] for e in edges_here], {local[e] for e in f_here},
                               phi, partial(_sub_hierarchy, sub, local, below_here), rng,
                               config, budget.falsifier_cuts)
        if outcome.cut is None:
            cert = outcome.certificate
            log.append(
                f"level={level_no} event=certify component={len(piece)} "
                f"rounds={cert.rounds} early={int(cert.early)} exact={int(cert.exact)}")
            _merge_levels(parts, below_here.levels + [f_here])
            parts.d |= below_here.d
            continue
        budget.tick()
        side = {piece[i] for i in outcome.cut}
        other = [v for v in piece if v not in side]
        if outcome.boundary_out <= outcome.boundary_in:
            rem_dir = {e for e in edges_here
                       if g.tails[e] in side and g.heads[e] not in side}
        else:
            rem_dir = {e for e in edges_here
                       if g.heads[e] in side and g.tails[e] not in side}
        removed |= rem_dir
        non_nested = {e for e in rem_dir if e not in f_edges}
        log.append(
            f"level={level_no} event=cut component={len(piece)} side={len(side)} "
            f"removed={len(rem_dir)} nonnested={len(non_nested)}")
        for sub_vertices in sorted((sorted(side), other), key=len):
            if not sub_vertices:
                continue
            sv = set(sub_vertices)
            sub_edges = {e for e in edges_here
                         if e not in rem_dir and g.tails[e] in sv and g.heads[e] in sv}
            sub_f = {e for e in sub_edges if e in f_edges}
            sub_lower = sub_edges - sub_f
            if non_nested:
                log.append(
                    f"level={level_no} event=rebuild component={len(sub_vertices)} "
                    f"edges={len(sub_lower)}")
                sub_below = yield _full_build(g, cap, _Frame(g, sub_vertices, sub_lower),
                                              phi, rng, config, budget, log)
            else:
                sub_below = below.restrict(sub_lower)
            rem2, parts2 = yield _decompose(g, cap, _Frame(g, sub_vertices, sub_edges), sub_f,
                                            sub_below, phi, rng, config, budget, log,
                                            level_no)
            removed |= rem2
            parts.d |= parts2.d
            _merge_levels(parts, parts2.levels)
    # everything surviving but unplaced runs between pieces: DAG edges
    leftover = (frame.edge_ids - removed) - parts.covered()
    parts.d |= leftover
    return removed, parts


def _merge_levels(parts: Parts, levels: Sequence[Set[int]]) -> None:
    # no level passed in is empty (`Parts.restrict` drops those), so none is made here
    for i, x in enumerate(levels):
        if i == len(parts.levels):
            parts.levels.append(set())
        parts.levels[i] |= x


def _full_build(g: DiGraph, cap, frame: _Frame, phi: Fraction, rng: random.Random,
                config: SolverConfig, budget: _Budget, log: List[str]):
    """Complete hierarchy of the frame graph built from scratch.
    A generator frame for `_run`."""
    if not frame.edge_ids:
        return Parts()
    m = max(len(frame.edge_ids), 1)
    # ln(1/phi) from phi's integers, so a phi below the float range works too
    log_inv = math.log(phi.denominator) - math.log(phi.numerator)
    eta_cap = math.ceil(2 * math.log(4 * m) / log_inv)
    eta_cap = max(eta_cap, 1)
    f_cur = frame.edge_ids
    parts = Parts()
    level_no = 0
    while f_cur:
        level_no += 1
        if level_no > eta_cap + 1:
            raise IterationCapExceededError(
                f"level count exceeded cap {eta_cap} while terminals remain")
        removed, parts = yield _decompose(g, cap, frame, f_cur, parts, phi, rng,
                                          config, budget, log, level_no)
        f_cur = removed
    return parts


def build_hierarchy(g: DiGraph, cap: Sequence[int], phi: Optional[Fraction] = None,
                    seed: int = 0, config: SolverConfig = DEFAULT_CONFIG,
                    validate: bool = True,
                    rank: Optional[Sequence[int]] = None) -> BuildResult:
    """Construct a hierarchy of (g, cap) and brute-force validate it.

    Retries with fresh seeds when an attempt aborts or validation refutes
    a component; raises BuildFailedError when the retry budget runs out.
    With `validate=False` only aborts are retried, and the first complete
    build is returned as the cut-matching game certified it.  A per-vertex
    `rank` orders the blocks of the returned tau that have no edges left
    (see `respecting_topo_order`); the build itself never reads it.
    """
    phi = phi if phi is not None else default_phi(g.n)
    check_phi(phi)
    base = random.Random(seed)
    log: List[str] = []
    top = _Frame(g, list(range(g.n)), set(range(g.m)))
    for attempt in range(1, BUILD_RETRIES + 1):
        attempt_seed = base.getrandbits(64)
        rng = random.Random(attempt_seed)
        # a refuted attempt was certified too optimistically on some large
        # component; escalate the falsification budget so retries converge
        budget = _Budget(50 * math.ceil(math.log2(max(g.m, 2))),
                         FALSIFIER_CUTS * 4 ** (attempt - 1))
        try:
            parts = _run(_full_build(g, cap, top, phi, rng, config, budget, log))
        except (IterationCapExceededError, CutCheckFailedError) as exc:
            log.append(f"attempt={attempt} event=abort reason={type(exc).__name__}")
            continue
        # parts cover every edge, so the order's top frame is this split
        tau = respecting_topo_order(g, parts.d, parts.levels, rank, top.split() if g.m else None)
        hier = Hierarchy(parts.d, parts.levels, tau)
        if not validate:
            return BuildResult(hier, log, attempt)
        report = validate_hierarchy(g, cap, hier, phi, config,
                                    random.Random(attempt_seed ^ 0xA5A5))
        for i, x in enumerate(hier.levels):
            log.append(f"attempt={attempt} level={i + 1} capacity={sum(cap[e] for e in x)}")
        if report.ok:
            return BuildResult(hier, log, attempt, report)
        log.append(f"attempt={attempt} event=invalid errors={len(report.errors)}")
    raise BuildFailedError(f"no valid hierarchy after {BUILD_RETRIES} attempts")
