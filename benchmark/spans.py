"""Per-layer spans and counters, recorded from outside the program.

Each layer's public functions are wrapped where the caller binds the
name.  `from .push_relabel import push_relabel` gives `maxflow` and
`sparse_cut` their own references, so wrapping `maxflow.push_relabel`
traces only the driver's runs and `sparse_cut.push_relabel` only the
sparse-cut runs.  Counters are read from the objects the wrapped calls
return; link-cut rotations come from a `DynForest` subclass installed
where `push_relabel` looks the class up.  Nothing under `src/` changes,
and `uninstall` puts every original back.
"""
from __future__ import annotations

import importlib
import time
from typing import Dict, List

# (module that binds the name, attribute, span name)
BINDINGS = [
    ("maxflow", "max_flow_exact", "maxflow.max_flow_exact"),
    ("maxflow", "capacity_scaled_max_flow", "maxflow.capacity_scaled_max_flow"),
    ("maxflow", "build_hierarchy", "builder.build_hierarchy"),
    ("builder", "build_hierarchy", "builder.build_hierarchy"),
    ("builder", "cut_or_embed", "cut_matching.cut_or_embed"),
    ("cut_matching", "sparse_cut", "sparse_cut.sparse_cut"),
    ("sparse_cut", "level_labels", "sparse_cut.level_labels"),
    ("sparse_cut", "min_level_cut", "sparse_cut.min_level_cut"),
    ("maxflow", "push_relabel", "push_relabel.driver"),
    ("sparse_cut", "push_relabel", "push_relabel.sparse_cut"),
    ("builder", "validate_hierarchy", "hierarchy.validate_hierarchy"),
    ("hierarchy", "validate_hierarchy", "hierarchy.validate_hierarchy"),
    ("hierarchy", "exhaustive_worst_cut", "hierarchy.exhaustive_worst_cut"),
    ("cut_matching", "exhaustive_worst_cut", "hierarchy.exhaustive_worst_cut"),
    ("hierarchy", "sampled_sparse_cut", "hierarchy.sampled_sparse_cut"),
    ("cut_matching", "sampled_sparse_cut", "hierarchy.sampled_sparse_cut"),
    ("maxflow", "residual", "graph.residual"),
    ("sparse_cut", "residual", "graph.residual"),
    ("maxflow", "scc", "graph.scc"),
    ("cut_matching", "scc", "graph.scc"),
    ("sparse_cut", "scc", "graph.scc"),
    ("builder", "scc_subgraph", "graph.scc"),
    ("hierarchy", "scc_subgraph", "graph.scc"),
    ("cut_matching", "decompose_paths", "graph.decompose_paths"),
]

# spans whose return value carries counters
COUNTED = {"maxflow.max_flow_exact", "maxflow.capacity_scaled_max_flow",
           "builder.build_hierarchy", "cut_matching.cut_or_embed",
           "sparse_cut.sparse_cut", "push_relabel.driver",
           "push_relabel.sparse_cut", "hierarchy.validate_hierarchy"}

CALLERS = ("driver", "sparse_cut")


class Tracer:
    """Spans of one pass: [name, start, end, parent index, instance id]."""

    def __init__(self):
        self.spans: List[list] = []
        self.results: List[tuple] = []  # (span name, args, return value)
        self.forests: List = []
        self.instance = -1
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def install(self) -> None:
        for mod_name, attr, span in BINDINGS:
            mod = importlib.import_module("hierflow." + mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(span, original))
        pr = importlib.import_module("hierflow.push_relabel")
        forests = self.forests

        class CountingForest(pr.DynForest):
            def __init__(self, n):
                super().__init__(n)
                forests.append(self)

        self._saved.append((pr, "DynForest", pr.DynForest))
        pr.DynForest = CountingForest

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.results.clear()
        self.forests.clear()

    def _wrap(self, name, fn):
        spans, stack, results = self.spans, self._stack, self.results
        counted = name in COUNTED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counted:
                results.append((name, args, out))
            return out

        return traced

    def times(self) -> Dict[str, float]:
        """Per-layer seconds of the spans recorded so far."""
        total: Dict[str, float] = {}
        self_s: Dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _inst in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, _inst) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])

        out = {
            "maxflow.self_s": self_s.get("maxflow.max_flow_exact", 0.0)
            + self_s.get("maxflow.capacity_scaled_max_flow", 0.0),
            "builder.s": total.get("builder.build_hierarchy", 0.0),
            "builder.self_s": self_s.get("builder.build_hierarchy", 0.0),
            "cut_matching.self_s": self_s.get("cut_matching.cut_or_embed", 0.0),
            "sparse_cut.self_s": self_s.get("sparse_cut.sparse_cut", 0.0),
            "sparse_cut.min_level_cut_s": total.get("sparse_cut.min_level_cut", 0.0),
            "sparse_cut.level_labels_s": total.get("sparse_cut.level_labels", 0.0),
            "hierarchy.validate_s": total.get("hierarchy.validate_hierarchy", 0.0),
            "hierarchy.exhaustive_s": total.get("hierarchy.exhaustive_worst_cut", 0.0),
            "hierarchy.sampled_s": total.get("hierarchy.sampled_sparse_cut", 0.0),
            "graph.residual_s": total.get("graph.residual", 0.0),
            "graph.scc_s": total.get("graph.scc", 0.0),
            "graph.decompose_paths_s": total.get("graph.decompose_paths", 0.0),
        }
        for caller in CALLERS:
            out[f"push_relabel.{caller}.s"] = total.get(f"push_relabel.{caller}", 0.0)
        return out

    def counters(self) -> Dict[str, float]:
        """Counts read from returned objects; identical on every pass."""
        c = {k: 0 for k in (
            "maxflow.iterations", "maxflow.safety_net_hits", "maxflow.build_failures",
            "maxflow.phases", "maxflow.relabels", "maxflow.augmentations",
            "builder.builds", "builder.attempts", "builder.cut_events",
            "builder.rebuild_events", "builder.certify_events", "builder.eta",
            "cut_matching.calls", "cut_matching.rounds", "cut_matching.early",
            "cut_matching.cuts", "sparse_cut.calls", "sparse_cut.cuts",
            "hierarchy.components", "hierarchy.exact_components",
            "push_relabel.path_log_arcs")}
        pr = {caller: {k: 0 for k in ("calls", "relabel_climbs", "relabel_landings",
                                      "augmentations", "deaths", "landing_bound")}
              for caller in CALLERS}
        for name, args, out in self.results:
            if name == "maxflow.max_flow_exact":
                st = out.stats
                c["maxflow.iterations"] += st.iterations
                c["maxflow.safety_net_hits"] += st.safety_net_hits
                c["maxflow.build_failures"] += st.build_failures
                c["maxflow.relabels"] += st.relabels
                c["maxflow.augmentations"] += st.augmentations
            elif name == "maxflow.capacity_scaled_max_flow":
                c["maxflow.phases"] += out.stats.phases
            elif name == "builder.build_hierarchy":
                c["builder.builds"] += 1
                c["builder.attempts"] += out.attempts
                c["builder.eta"] += out.hierarchy.eta
                for line in out.log:
                    for event in ("cut", "rebuild", "certify"):
                        if f"event={event} " in line:
                            c[f"builder.{event}_events"] += 1
            elif name == "cut_matching.cut_or_embed":
                c["cut_matching.calls"] += 1
                if out.cut is not None:
                    c["cut_matching.cuts"] += 1
                if out.certificate is not None:
                    c["cut_matching.rounds"] += out.certificate.rounds
                    c["cut_matching.early"] += int(out.certificate.early)
                elif out.state is not None:
                    c["cut_matching.rounds"] += out.state.rounds_played
            elif name == "sparse_cut.sparse_cut":
                c["sparse_cut.calls"] += 1
                c["sparse_cut.cuts"] += int(out.cut is not None)
            elif name == "hierarchy.validate_hierarchy":
                c["hierarchy.components"] += len(out.components)
                c["hierarchy.exact_components"] += sum(1 for x in out.components if x.exact)
            else:  # push_relabel.<caller>
                p = pr[name.split(".")[1]]
                inst, w, h = args[0], args[1], args[2]
                p["calls"] += 1
                p["relabel_climbs"] += out.relabel_climbs
                p["relabel_landings"] += out.relabel_landings
                p["augmentations"] += out.augment_count
                p["deaths"] += out.labels.alive.count(False)
                p["landing_bound"] += landing_bound(inst.g, w, h)
                c["push_relabel.path_log_arcs"] += sum(len(r.arcs) for r in out.augmentations)
        c["builder.eta"] = c["builder.eta"] / max(c["builder.builds"], 1)
        c["cut_matching.early_share"] = _share(c.pop("cut_matching.early"), c["cut_matching.calls"])
        c["cut_matching.cut_share"] = _share(c.pop("cut_matching.cuts"), c["cut_matching.calls"])
        c["sparse_cut.cut_share"] = _share(c.pop("sparse_cut.cuts"), c["sparse_cut.calls"])
        c["hierarchy.exact_share"] = _share(c.pop("hierarchy.exact_components"),
                                            c["hierarchy.components"])
        for caller, p in pr.items():
            key = f"push_relabel.{caller}."
            for k in ("calls", "relabel_climbs", "relabel_landings", "augmentations", "deaths"):
                c[key + k] = p[k]
            c[key + "augment_per_climb"] = _share(p["augmentations"], p["relabel_climbs"])
            c[key + "landing_bound_ratio"] = _share(p["relabel_landings"], p["landing_bound"])
        c["forest.instances"] = len(self.forests)
        c["forest.rotations"] = sum(f.rotations for f in self.forests)
        return c


def landing_bound(g, w, h: int) -> int:
    """Most landings a run can make: each vertex lands once per multiple of
    each incident weight up to 9h, plus the landing that kills it."""
    nine_h = 9 * h
    bound = 0
    for v in range(g.n):
        weights = {w[e] for e in g.out_edges[v]} | {w[e] for e in g.in_edges[v]}
        bound += 1 + sum(nine_h // x for x in weights)
    return bound


def _share(part, whole) -> float:
    return part / whole if whole else 0.0
