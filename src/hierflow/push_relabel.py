"""Weighted push-relabel: approximate short flows guided by edge weights.

The solver maintains per-vertex integer levels.  A residual arc (u, v) of
weight w is admissible when it was examined at a level where w divides
the relabeled endpoint's level and the gap l(u) - l(v) was at least 2w
with positive residual capacity.  Vertices above 9h are dead.  The
returned flow f satisfies, for height parameter h:

  (i)   residual w-distance from any unsaturated source to any
        unsaturated sink exceeds 3h,
  (ii)  w(f) <= 9h * |f|,
  (iii) |f| is at least one sixth of the best flow of average
        w-length <= h.

Relabeling starts with a global lift (Goldberg and Tarjan's global
relabel): a Dijkstra from the open sinks over residual in-arcs lands each
alive vertex once, at the least multiple of an out-arc's weight w at least
2w above that arc's settled head, where the arc turns admissible; a vertex
keyed above 9h dies, as does one the search never settles.  Afterwards a
vertex that loses its last admissible out-arc climbs alone until it gains
one or dies, and once n climbs have passed since the last lift, the drain
lifts before it climbs again (Cherkassky and Goldberg's schedule).  The fast
scheduler collapses each climb or lift into one landing whose labels and
marks coincide with jumping level by level; the debug scheduler really
jumps level by level (to the next multiple of an incident weight) and
asserts the level invariants after every climbing step and every lift.
Both land through one routine, which counts one landing per multiple of
each distinct incident weight crossed, plus one for the landing that kills
a vertex: the quantity the 9h/w bound counts.

A vertex with no residual way left to an open sink is not searched for:
it climbs until its own climbing kills it, or until the next lift, at most
n climbs later, which never settles it and so kills it.

Augmentation walks the current arcs from a source to an open sink and
updates the residual array cf.  A vertex's current arc is the first marked
arc of its ascending out-arc list, found by a forward scan: no arc before
it is ever marked.  The exact driver and the sparse-cut search run these
unit walks at any capacities.  The "capacitated" mode is the reference
they are tested against: it keeps the admissible forest in parent
pointers (`forest.DynForest`), links a path's unlinked tails as an
augmentation first walks them, takes the bottleneck and the saturated arcs
from the tree path, and cuts an edge when it saturates or its arc stops
being current.  cf is exact in both modes.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import BadInstanceError, BadParamsError, SolverInvariantError, WeightZeroError
from .forest import DynForest
from .graph import Flow, FlowInstance, residual

INF = math.inf


@dataclass
class LevelLabeling:
    """Final labels of a run: levels, liveness and admissible arc marks."""

    levels: List[int]
    alive: List[bool]
    admissible: List[bool]  # per arc id
    h: int


@dataclass
class AugmentRecord:
    arcs: Tuple[int, ...]
    amount: int
    w_length: int
    labels: Optional[Tuple[int, ...]] = None  # levels at augment time; debug only


@dataclass
class PushRelabelResult:
    flow: Flow
    labels: LevelLabeling
    augmentations: List[AugmentRecord]
    value: int
    edge_saturations: List[int]
    edge_flips: List[int]
    relabel_climbs: int  # one per climb, and one per vertex a lift moves
    levels_visited: List[int]
    delta_residual: List[int]
    nabla_residual: List[int]
    relabel_events: Optional[List[Tuple[int, int, int]]] = None  # debug only

    @property
    def relabel_landings(self) -> int:
        return sum(self.levels_visited)

    @property
    def augment_count(self) -> int:
        return len(self.augmentations)


def push_relabel(
    inst: FlowInstance,
    w: Sequence[int],
    h: int,
    mode: str = "unit",
    config: SolverConfig = DEFAULT_CONFIG,
) -> PushRelabelResult:
    """Run weighted push-relabel on a diffusion instance.

    mode: "unit" walks each augmenting path and updates the residuals,
    at any capacities; "capacitated" augments through a parent-pointer
    forest whose edges are linked only when an augmentation first walks
    them, the reference the unit walks are tested against.  Both modes give
    the same flows, labels, augmentations and counters.
    """
    if inst.total_source() > inst.total_sink():
        raise BadInstanceError("supply exceeds sink capacity; not a diffusion instance")
    if h < 1:
        raise BadInstanceError(f"height parameter must be positive, got {h}")
    m = inst.m
    if len(w) != m:
        raise BadInstanceError("weight vector length differs from edge count")
    for e in range(m):
        if w[e] <= 0:
            raise WeightZeroError(f"edge {e} has non-positive weight {w[e]}")
    if mode not in ("unit", "capacitated"):
        raise BadParamsError(f"unknown mode {mode!r}")
    return _Engine(inst, w, h, mode, config).run()


class _Engine:
    def __init__(self, inst, w, h, mode, config):
        self.w = w
        self.h = h
        self.nine_h = 9 * h
        self.mode = mode
        self.cfg = config
        g = inst.g
        n, m = g.n, g.m
        self.n, self.m = n, m
        self.arc_tail, self.arc_head = g.arc_tail, g.arc_head
        start = residual(inst, Flow.zero(m))
        self.cf = start.arc_cap
        self.delta_rem = start.delta_f
        self.nabla_rem = start.nabla_f
        self.level = [0] * n
        self.alive = [True] * n
        self.adm = [False] * (2 * m)
        # first marked out-arc (tree parent); -1 exactly when v has none
        self.current_arc = [-1] * n
        self.out_arcs = g.out_arcs
        head = g.arc_head
        # per vertex: (arc, weight, head) of each out-arc, ascending
        self.outs = [[(a, w[a >> 1], head[a]) for a in outs] for outs in g.out_arcs]
        self.distinct_weights = [sorted({w[a >> 1] for a in outs}) for outs in g.out_arcs]
        self.pending: List[int] = []  # may repeat a vertex; _drain skips stale entries
        self.forest = DynForest(n) if mode == "capacitated" else None
        # counters
        self.edge_sat = [0] * m
        self.edge_flip = [0] * m
        self.relabel_climbs = 0
        self.lift_climbs = 0  # relabel_climbs when the last lift ended
        self.levels_visited = [0] * n
        self.augments: List[AugmentRecord] = []
        self.relabel_events: List[Tuple[int, int, int]] = []
        self.total_supply = inst.total_source()

    # admissible bookkeeping ----------------------------------------------

    def _enqueue(self, v: int) -> None:
        if self.alive[v] and self.nabla_rem[v] == 0 and self.current_arc[v] == -1:
            heapq.heappush(self.pending, v)

    def _select_parent(self, v: int, a: int) -> None:
        """Point current_arc[v] at the first marked arc of v's out-arc list
        from arc `a` on (-1 if none), and detach v's tree edge.

        The forward scan is exact: no arc before the current one is marked.
        The new tree edge is linked when an augmentation first walks it.
        """
        arcs, adm = self.out_arcs[v], self.adm
        i = bisect_left(arcs, a)
        while i < len(arcs) and not adm[arcs[i]]:
            i += 1
        self.current_arc[v] = arcs[i] if i < len(arcs) else -1
        if self.forest is not None and self.forest.rep_par[v] != -1:
            self.forest.cut(v)

    def set_mark(self, a: int, new: bool) -> None:
        if self.adm[a] == new:
            return
        self.adm[a] = new
        self.edge_flip[a >> 1] += 1
        t = self.arc_tail[a]
        cur = self.current_arc[t]
        # the parent is always the first marked out-arc, so the traced
        # structure is a pure function of the current marks
        if new and (cur == -1 or a < cur):
            self._select_parent(t, a)
        elif cur == a:
            self._select_parent(t, a)
            self._enqueue(t)

    # relabel ---------------------------------------------------------------

    def _die(self, v: int) -> None:
        """The landing at 9h + 1 that kills v."""
        self.levels_visited[v] += 1
        if self.cfg.debug_invariants:
            self.relabel_events.append((v, self.level[v], self.nine_h + 1))
        self.level[v] = self.nine_h + 1
        self.alive[v] = False
        # marks on arcs touching a dead vertex are purged: traces can never
        # reach them and the level invariants stay strict
        adm = self.adm
        for a, _, _ in self.outs[v]:
            if adm[a]:
                self.set_mark(a, False)
            if adm[a ^ 1]:
                self.set_mark(a ^ 1, False)

    def _land(self, v: int, start: int, stop) -> None:
        """Relabel v from level `start` to `stop`, or kill it when `stop`
        (INF if no out-arc has residual) is above 9h.

        Counts one landing per multiple of each distinct incident weight
        crossed, and examines each out-arc a = (v, u) and its twin a ^ 1 =
        (u, v) at the last multiple of their weight crossed; arcs whose
        weight was not crossed keep their marks.
        """
        dies = stop > self.nine_h
        top = self.nine_h if dies else stop
        landings = 0
        for wgt in self.distinct_weights[v]:
            landings += top // wgt - start // wgt
        self.levels_visited[v] += landings
        if dies:
            self._die(v)
            return
        if self.cfg.debug_invariants:
            self.relabel_events.append((v, start, stop))
        lvl, cf, adm = self.level, self.cf, self.adm
        lvl[v] = stop
        for a, wa, u in self.outs[v]:
            mark_level = stop // wa * wa
            if mark_level <= start:
                continue  # no crossing of wa since the last examination
            # set_mark only where the mark changes; the twin's gap is -gap
            gap = mark_level - lvl[u]
            if gap >= 2 * wa and cf[a] > 0:
                if not adm[a]:
                    self.set_mark(a, True)
            elif adm[a]:
                self.set_mark(a, False)
            b = a ^ 1
            if -gap >= 2 * wa and cf[b] > 0:
                if not adm[b]:
                    self.set_mark(b, True)
            elif adm[b]:
                self.set_mark(b, False)

    def _climb(self, v: int) -> None:
        """Relabel v until it has an admissible out-arc or dies (batched).

        The stop is the first level where an out-arc turns admissible with
        the neighbors' levels frozen.  It is strictly above the current
        level: an examination only happens at a landing, and landings go up.
        """
        lvl, cf = self.level, self.cf
        start = lvl[v]
        stop = INF
        for a, wa, u in self.outs[v]:
            if cf[a] > 0:
                le = -(-(lvl[u] + 2 * wa) // wa) * wa  # smallest multiple of wa >= l(u) + 2wa
                if le <= start:
                    le = (start // wa + 1) * wa
                if le < stop:
                    stop = le
        self.relabel_climbs += 1
        self._land(v, start, stop)

    def _relabel_once(self, v: int) -> None:
        """One jump to the next multiple of an incident weight (debug path)."""
        start = self.level[v]
        self._land(v, start, min(((start // wgt + 1) * wgt for wgt in self.distinct_weights[v]),
                                 default=INF))

    def _lift(self) -> None:
        """Global relabel: land every alive vertex once at its lift level.

        A Dijkstra from the open sinks over residual in-arcs between alive
        vertices keys x by the least multiple of w(a) at least T(u) + 2w(a)
        over its live out-arcs a = (x, u) to settled u; x lands at T(x) =
        max(level, key), where a is admissible.  A vertex keyed above 9h
        dies landing there.  One never settled dies at once: its every way to
        an open sink runs through a vertex the lift killed.
        """
        alive, cf, lvl, nine_h, n = self.alive, self.cf, self.level, self.nine_h, self.n
        key = [INF] * n
        settled = [False] * n
        heap = [(0, v) for v in range(n) if self.nabla_rem[v] > 0]
        while heap:
            t, x = heapq.heappop(heap)
            if t > nine_h:
                break
            if settled[x]:
                continue
            settled[x] = True
            if t > lvl[x]:
                self._lift_to(x, t)
            for a, wa, y in self.outs[x]:
                # a ^ 1 runs y -> x
                if cf[a ^ 1] > 0 and alive[y] and not settled[y]:
                    k = (-(-t // wa) + 2) * wa
                    if k < lvl[y]:
                        k = lvl[y]
                    if k < key[y]:
                        key[y] = k
                        heapq.heappush(heap, (k, y))
        for v in range(n):
            if alive[v] and not settled[v]:
                if key[v] < INF:
                    self._lift_to(v, key[v])
                else:
                    self._die(v)
        self.lift_climbs = self.relabel_climbs
        for v in range(n):
            self._enqueue(v)
        # checked once the pass is over: until then a landed vertex can sit
        # 3w or more above a neighbor not yet lifted
        if self.cfg.debug_invariants:
            self._assert_invariants()

    def _lift_to(self, v: int, stop) -> None:
        """One climb from v's level to `stop`; the debug scheduler takes it
        one multiple at a time."""
        self.relabel_climbs += 1
        if self.cfg.debug_invariants:
            while self.alive[v] and self.level[v] < stop:
                self._relabel_once(v)
        else:
            self._land(v, self.level[v], stop)

    def _drain(self) -> None:
        debug = self.cfg.debug_invariants
        while self.pending:
            v = heapq.heappop(self.pending)
            if not self.alive[v] or self.nabla_rem[v] > 0 or self.current_arc[v] != -1:
                continue
            # Cherkassky and Goldberg's schedule: lift again after n climbs;
            # the lift enqueues v again if v still has to climb
            if self.relabel_climbs - self.lift_climbs >= self.n:
                self._lift()
            elif debug:
                while self.alive[v] and self.nabla_rem[v] == 0 and self.current_arc[v] == -1:
                    self._relabel_once(v)
                    self._assert_invariants()
                self.relabel_climbs += 1
            else:
                self._climb(v)

    # augmentation ----------------------------------------------------------

    def _walk_path(self, s: int) -> Tuple[List[int], int]:
        arcs = []
        v = s
        while self.nabla_rem[v] == 0:
            a = self.current_arc[v]
            if a == -1:
                raise SolverInvariantError(
                    f"trace from {s} stops at {v}: admissible structure broken")
            arcs.append(a)
            v = self.arc_head[a]
        return arcs, v

    def _augment_unit(self, s: int) -> None:
        arcs, t = self._walk_path(s)
        amt = min(self.delta_rem[s], self.nabla_rem[t])
        amt = min(amt, min(self.cf[a] for a in arcs))
        for a in arcs:
            self.cf[a] -= amt
            self.cf[a ^ 1] += amt
            if self.cf[a] == 0:
                self.edge_sat[a >> 1] += 1
                self.set_mark(a, False)
        self._finish_augment(s, t, amt, arcs)

    def _augment_capacitated(self, s: int) -> None:
        forest = self.forest
        arcs, t = self._walk_path(s)
        # Link the path's tails not yet in a tree, with their cf.  Levels
        # fall strictly along the path, so no link closes a cycle.
        # The tree path from s is then the trace, with root t.
        cf, head, rep_par = self.cf, self.arc_head, forest.rep_par
        for a in arcs:
            u = self.arc_tail[a]
            if rep_par[u] == -1:
                forest.link_unchecked(u, head[a], cf[a])
            elif rep_par[u] != head[a]:
                raise SolverInvariantError(
                    f"trace from {s} leaves {u} by arc {a}, its tree edge goes to {rep_par[u]}")
        if rep_par[t] != -1:
            raise SolverInvariantError(f"trace from {s} ends at {t}, which has a tree parent")
        amt = min(self.delta_rem[s], self.nabla_rem[t])
        _, bottleneck = forest.find_min(s)
        amt = min(amt, int(bottleneck))
        forest.add_path(s, -amt)
        for a in arcs:
            cf[a] -= amt
            cf[a ^ 1] += amt
        # mark newly saturated arcs, climbing from s toward the root
        cur = s
        while forest.rep_par[cur] != -1:
            (child, par), val = forest.find_min(cur)
            if val > 0:
                break
            a = self.current_arc[child]
            self.edge_sat[a >> 1] += 1
            self.set_mark(a, False)  # drops the tree edge
            cur = par
        self._finish_augment(s, t, amt, arcs)

    def _finish_augment(self, s: int, t: int, amt: int, arcs: List[int]) -> None:
        if amt <= 0:
            raise SolverInvariantError(f"augmentation from {s} to {t} routes {amt}")
        self.delta_rem[s] -= amt
        self.nabla_rem[t] -= amt
        if self.nabla_rem[t] == 0:
            self._enqueue(t)
        self.augments.append(AugmentRecord(
            tuple(arcs), amt, sum(self.w[a >> 1] for a in arcs),
            tuple(self.level) if self.cfg.debug_invariants else None,
        ))
        if self.cfg.debug_invariants:
            self._assert_invariants()

    # main loop ---------------------------------------------------------------

    def run(self) -> PushRelabelResult:
        self._lift()
        self._drain()
        excess = [v for v in range(self.n) if self.delta_rem[v] > 0]
        while excess:
            s = excess.pop()
            if not self.alive[s] or self.delta_rem[s] == 0:
                continue
            if self.mode == "unit":
                self._augment_unit(s)
            else:
                self._augment_capacitated(s)
            if self.delta_rem[s] > 0:
                excess.append(s)
            self._drain()
        return self._result()

    def _result(self) -> PushRelabelResult:
        f = Flow(self.cf[1::2])
        value = self.total_supply - sum(self.delta_rem)
        labels = LevelLabeling(self.level, self.alive, self.adm, self.h)
        return PushRelabelResult(
            flow=f,
            labels=labels,
            augmentations=self.augments,
            value=value,
            edge_saturations=self.edge_sat,
            edge_flips=self.edge_flip,
            relabel_climbs=self.relabel_climbs,
            levels_visited=self.levels_visited,
            delta_residual=self.delta_rem,
            nabla_residual=self.nabla_rem,
            relabel_events=self.relabel_events if self.cfg.debug_invariants else None,
        )

    # invariants ---------------------------------------------------------------

    def _assert_invariants(self) -> None:
        """The debug oracle: raise SolverInvariantError on a broken I-1 to I-3."""
        lvl, nine_h, cf, forest = self.level, self.nine_h, self.cf, self.forest
        for a in range(2 * self.m):
            wa = self.w[a >> 1]
            gap = lvl[self.arc_tail[a]] - lvl[self.arc_head[a]]
            live = cf[a] > 0
            if live and gap >= 3 * wa:
                raise SolverInvariantError(f"I-1 violated on arc {a}: gap {gap}, w {wa}")
            if self.adm[a] and (gap <= wa or not live):
                raise SolverInvariantError(
                    f"I-2 violated on admissible arc {a}: gap {gap}, w {wa}, live {live}")
        for v in range(self.n):
            if self.alive[v] != (lvl[v] <= nine_h):
                raise SolverInvariantError(f"I-3: {v} alive {self.alive[v]} at {lvl[v]}")
            if self.nabla_rem[v] > 0 and lvl[v] != 0:
                raise SolverInvariantError(f"I-3: unsaturated sink {v} at level {lvl[v]}")
            if self.current_arc[v] != next((a for a in self.out_arcs[v] if self.adm[a]), -1):
                raise SolverInvariantError(f"current arc of {v} is not its first marked arc")
            if forest is None or forest.rep_par[v] == -1:
                continue
            a = self.current_arc[v]
            if a == -1 or forest.rep_par[v] != self.arc_head[a]:
                raise SolverInvariantError(f"tree edge of {v} is not its current arc")
            val = forest.edge_value(v)
            if val != cf[a]:
                raise SolverInvariantError(
                    f"tree edge of {v} holds {val}, arc {a} has residual {cf[a]}")
