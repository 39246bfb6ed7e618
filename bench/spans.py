"""Tracing from outside the program: wrappers, in-memory spans, self time.

``Tracer.install`` replaces public functions of the altring modules (and two
``RingSpec``/``Element`` methods) with wrappers that record a span per call:
(name, start, end, parent span, command id).  Internal calls go through the
module attribute too, so nested calls are seen.  Spans stay in memory until
``write`` dumps them once at the end of the run.  ``layer_metrics`` rolls the
spans up into the per-layer metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# (module, attribute, span name).  One span name may cover several functions.
SPANNED = [
    ("zmod", "howell", "zmod.howell"),
    ("zmod", "kernel", "zmod.kernel"),
    ("zmod", "intersect", "zmod.intersect"),
    ("zmod", "solve", "zmod.solve"),
    ("analysis", "is_associative", "analysis.identities"),
    ("analysis", "is_alternative", "analysis.identities"),
    ("analysis", "is_flexible", "analysis.identities"),
    ("analysis", "check_linearized_flexible", "analysis.identities"),
    ("analysis", "nucleus", "analysis.subgroups"),
    ("analysis", "commutant", "analysis.subgroups"),
    ("analysis", "centre", "analysis.subgroups"),
    ("analysis", "is_k_torsion_free", "analysis.subgroups"),
    ("analysis", "find_unity", "analysis.subgroups"),
    ("analysis", "idempotents", "analysis.idempotents"),
    ("analysis", "nontrivial_idempotents", "analysis.idempotents"),
    ("analysis", "peirce", "analysis.peirce"),
    ("analysis", "check_peirce_relations", "analysis.peirce"),
    ("analysis", "condition_subspace", "analysis.peirce"),
    ("analysis", "check_condition", "analysis.peirce"),
    ("analysis", "is_prime_by_ideals", "analysis.prime_ideals"),
    ("analysis", "ideal_generated", "analysis.ideal_closure"),
    ("analysis", "prime_criterion", "analysis.prime_criterion"),
    ("liemaps", "is_lie_multiplicative", "liemaps.verify"),
    ("liemaps", "is_lie_derivable", "liemaps.verify"),
    ("liemaps", "is_lie_triple_derivable", "liemaps.verify"),
    ("liemaps", "derivable_report", "liemaps.verify"),
    ("liemaps", "check_almost_additive", "liemaps.almost_additive"),
    ("liemaps", "search_lie_multiplicative_bijections", "liemaps.search"),
    ("ringio", "load_ring", "ringio.load"),
    ("ringio", "load_map", "ringio.load"),
]
CLI_SPAN = "cli"
INDEX_SPAN = "core.index_tables"

# Per-layer metric name -> unit; the set declared in BENCHMARK.json.
LAYER_UNITS = {
    "zmod.howell.calls": "count",
    "zmod.howell.self_s": "s",
    "zmod.kernel.calls": "count",
    "zmod.kernel.self_s": "s",
    "zmod.intersect.calls": "count",
    "zmod.solve.calls": "count",
    "core.index_tables.build_s": "s",
    "core.index_tables.builds": "count",
    "core.index_tables.hit_ratio": "ratio",
    "core.index_tables.bytes": "B",
    "core.element_mul.calls": "count",
    "analysis.prime_ideals.self_s": "s",
    "analysis.ideal_closure.calls": "count",
    "analysis.ideal_closure.self_s": "s",
    "analysis.prime_criterion.self_s": "s",
    "analysis.prime_criterion.kernels": "count",
    "analysis.identities.self_s": "s",
    "analysis.subgroups.self_s": "s",
    "analysis.idempotents.self_s": "s",
    "analysis.peirce.self_s": "s",
    "liemaps.verify.self_s": "s",
    "liemaps.almost_additive.calls": "count",
    "liemaps.almost_additive.self_s": "s",
    "liemaps.search.self_s": "s",
    "liemaps.search.nodes": "count",
    "liemaps.search.nodes_per_s": "1/s",
    "liemaps.search.maps_per_node": "ratio",
    "ringio.load.self_s": "s",
    "ringio.load.bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Which end-to-end metric, on which workload, each layer metric should move
# (written down before any optimisation: a change to one layer should show
# up there).  UNMOVED lists pairings that such a change must leave alone.
_ALL = ("analysis", "maps")
_PRIME = [("wall_s", "analysis"), ("cmd_max_s", "analysis")]
MOVES = {
    "zmod.": [("cmd_geomean_s", "analysis"), ("wall_s", "analysis")],
    "core.index_tables.": [("peak_rss_mb", "maps"), ("cmd_max_s", "maps")],
    "core.element_mul.": [("wall_s", "analysis")],
    "analysis.prime_ideals.": _PRIME,
    "analysis.ideal_closure.": _PRIME,
    "analysis.prime_criterion.": _PRIME,
    "analysis.identities.": [("wall_s", "analysis")],
    "analysis.subgroups.": [("wall_s", "analysis")],
    "analysis.idempotents.": [("wall_s", "analysis")],
    "analysis.peirce.": [("wall_s", "analysis")],
    "liemaps.verify.": [("wall_s", "maps"), ("cmd_max_s", "maps")],
    "liemaps.almost_additive.": [("wall_s", "maps")],
    "liemaps.search.": [("wall_s", "maps")],
    "ringio.": [("cmd_geomean_s", w) for w in _ALL],
    "cli.": [("cmd_geomean_s", w) for w in _ALL],
    "trace.": [],
}
UNMOVED = {
    "analysis.": [(m, "maps") for m in ("wall_s", "cmd_max_s", "peak_rss_mb")],
    "liemaps.": [(m, "analysis") for m in ("wall_s", "cmd_max_s", "peak_rss_mb")],
    "core.index_tables.": [("peak_rss_mb", "analysis")],
}


def moves(metric: str) -> list[tuple[str, str]]:
    """(end-to-end metric, workload) pairs a per-layer metric should move."""
    return next(v for prefix, v in MOVES.items() if metric.startswith(prefix))


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, command)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.command = -1

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.command))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, cmd = self.spans[sid]
        self.spans[sid] = (name, start, end, parent, cmd)

    def wrap(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_command(self, fn, *args):
        """Run ``fn(*args)`` as the root span of the next command."""
        self.command += 1
        return self.wrap(CLI_SPAN, fn)(*args)

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, altring) -> None:
        """Wrap the layer functions of the imported ``altring`` package."""
        counters = self.counters

        def count_search(result, args):
            counters["search.nodes"] += result.nodes
            counters["search.maps"] += len(result.maps)

        def count_load(result, args):
            counters["load.bytes"] += os.path.getsize(args[0])

        def count_table(result, args):
            counters["index.bytes"] += result.nbytes

        hooks = {"liemaps.search": count_search, "ringio.load": count_load}
        for module, attr, name in SPANNED:
            mod = getattr(altring, module)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), hooks.get(name)))

        ring_cls, element_cls = altring.core.RingSpec, altring.core.Element
        lookup_table = ring_cls._index_table
        build_table = self.wrap(INDEX_SPAN, lookup_table, count_table)

        def index_table(ring, key, build):
            if key in ring._cache:
                counters["index.hits"] += 1
                return lookup_table(ring, key, build)
            return build_table(ring, key, build)

        mul = element_cls.__mul__

        def element_mul(x, y):
            counters["element_mul"] += 1
            return mul(x, y)

        self._patch(ring_cls, "_index_table", index_table)
        self._patch(element_cls, "__mul__", element_mul)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cmd in self.spans:
                fh.write(json.dumps([name, start, end, parent, cmd]) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children (the union of their intervals, clipped)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, sid: int, name: str) -> bool:
    parent = spans[sid][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of LAYER_UNITS from one traced run."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
        total_s[name] += end - start
    kernels = sum(
        1 for sid, span in enumerate(spans)
        if span[0] == "zmod.kernel" and _has_ancestor(spans, sid, "analysis.prime_criterion")
    )
    c = tracer.counters
    builds, hits = calls[INDEX_SPAN], c["index.hits"]
    nodes = c["search.nodes"]
    search_s = total_s["liemaps.search"]
    out = {
        "zmod.howell.calls": calls["zmod.howell"],
        "zmod.howell.self_s": self_s["zmod.howell"],
        "zmod.kernel.calls": calls["zmod.kernel"],
        "zmod.kernel.self_s": self_s["zmod.kernel"],
        "zmod.intersect.calls": calls["zmod.intersect"],
        "zmod.solve.calls": calls["zmod.solve"],
        "core.index_tables.build_s": self_s[INDEX_SPAN],
        "core.index_tables.builds": builds,
        "core.index_tables.hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
        "core.index_tables.bytes": c["index.bytes"],
        "core.element_mul.calls": c["element_mul"],
        "analysis.prime_ideals.self_s": self_s["analysis.prime_ideals"],
        "analysis.ideal_closure.calls": calls["analysis.ideal_closure"],
        "analysis.ideal_closure.self_s": self_s["analysis.ideal_closure"],
        "analysis.prime_criterion.self_s": self_s["analysis.prime_criterion"],
        "analysis.prime_criterion.kernels": kernels,
        "analysis.identities.self_s": self_s["analysis.identities"],
        "analysis.subgroups.self_s": self_s["analysis.subgroups"],
        "analysis.idempotents.self_s": self_s["analysis.idempotents"],
        "analysis.peirce.self_s": self_s["analysis.peirce"],
        "liemaps.verify.self_s": self_s["liemaps.verify"],
        "liemaps.almost_additive.calls": calls["liemaps.almost_additive"],
        "liemaps.almost_additive.self_s": self_s["liemaps.almost_additive"],
        "liemaps.search.self_s": self_s["liemaps.search"],
        "liemaps.search.nodes": nodes,
        "liemaps.search.nodes_per_s": nodes / search_s if search_s else 0.0,
        "liemaps.search.maps_per_node": c["search.maps"] / nodes if nodes else 0.0,
        "ringio.load.self_s": self_s["ringio.load"],
        "ringio.load.bytes": c["load.bytes"],
        "cli.self_s": self_s[CLI_SPAN],
        "trace.overhead_s": overhead_s,
    }
    assert out.keys() == LAYER_UNITS.keys()
    return out
