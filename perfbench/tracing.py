"""Spans at module boundaries, recorded from outside the program.

``Tracer.install()`` replaces each instrumented public function with a
wrapper, under every name any ``zonotiling`` module (or the package) binds it
to.  Python resolves module globals at call time, so calls from the CLI into
the library, from one module into another, and within a module all pass
through the wrapper.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, attr]``: ``name`` is
``<module>.<function>``, times come from ``time.perf_counter``, ``parent`` is
the index of the enclosing span (-1 at top level), and ``attr`` holds the few
facts a metric needs from the call (a verdict, a class count, a tableau
size).  Spans stay in memory until ``write`` saves them as JSON lines.

``layer_metrics`` turns one traced run's spans into the per-layer metrics
named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from pathlib import Path

MODULES = ("core", "tiling", "flipgraph", "oracle", "regularity", "secondary", "hypertri", "cli")
LAYERS = ("tiling", "flipgraph", "regularity", "secondary", "hypertri", "cli")


def _config_key(config) -> str:
    return ",".join(str(a) for a in config.coords)


# (module, function) -> function of (args, result) giving the span's attr.
# Functions whose spans need no attr map to None.
INSTRUMENTED = {
    ("cli", "main"): None,
    ("cli", "cmd_enumerate"): None,
    ("cli", "cmd_classify"): None,
    ("cli", "cmd_diameters"): None,
    ("cli", "cmd_hypertri"): None,
    ("cli", "cmd_potential"): None,
    ("cli", "cmd_chains"): None,
    ("tiling", "available_flips"): None,
    ("tiling", "apply_flip"): None,
    ("tiling", "tiling_from_heights"): None,
    ("flipgraph", "enumerate_tilings"): lambda a, r: {
        "config": _config_key(a[0]),
        "nodes": len(r),
        "edges": r.edge_count(),
    },
    ("flipgraph", "graph_diameter"): None,
    ("flipgraph", "bfs_distances"): None,
    ("flipgraph", "components_excluding_levels"): lambda a, r: {
        "level_set": f"{_config_key(a[0].config)}|{sorted(a[1])}",
    },
    ("flipgraph", "sample_chain"): None,
    ("regularity", "classify_graph"): lambda a, r: {
        "config": _config_key(a[0]),
        "tilings": len(r),
    },
    ("regularity", "classify"): lambda a, r: {"regular": r.regular},
    ("regularity", "simplex_max_canonical"): lambda a, r: {
        "rows": len(a[1]),
        "cols": len(a[0]) + len(a[1]) + 1,
    },
    ("secondary", "skeleton"): lambda a, r: {"classes": len(r)},
    ("secondary", "diameter_report"): None,
    ("secondary", "potential"): None,
    ("secondary", "modified_potential"): None,
    ("hypertri", "hypertri_diameters"): None,
    ("hypertri", "cross_section"): None,
    ("hypertri", "reduced_cross_section"): None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, annotate):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                try:
                    span[4] = annotate(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the attr, not the run
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"zonotiling.{m}") for m in MODULES]
        modules.append(importlib.import_module("zonotiling"))
        wrappers = {}
        for (module, func), annotate in INSTRUMENTED.items():
            fn = getattr(importlib.import_module(f"zonotiling.{module}"), func, None)
            if fn is not None:  # a function a later design removed counts 0 calls
                wrappers[id(fn)] = self._wrap(f"{module}.{func}", fn, annotate)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for idx, (name, start, end, parent, attr) in enumerate(self.spans):
                row = {"id": idx, "name": name, "start": start, "end": end, "parent": parent}
                if attr is not None:
                    row["attr"] = attr
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[list], artifact_bytes: int) -> dict[str, float]:
    """Per-layer self times, counts, waste ratios and per-call timings."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _attr in spans:
        if parent >= 0:
            child_time[parent] += end - start

    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = {}
    for idx, (name, start, end, _parent, _attr) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += end - start - child_time[idx]
        by_name.setdefault(name, []).append(idx)

    def calls(name: str) -> list[int]:
        return by_name.get(name, [])

    def count(name: str) -> int:
        return len(calls(name))

    def total_s(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in calls(name))

    def durations(name: str, scale: float, keep=lambda i: True) -> list[float]:
        return [(spans[i][2] - spans[i][1]) * scale for i in calls(name) if keep(i)]

    def attrs(name: str) -> list[dict]:
        return [spans[i][4] for i in calls(name) if spans[i][4] is not None]

    def ratio(count: int, base: int) -> float:
        return count / base if base else 0.0

    regular = sum(a["regular"] for a in attrs("regularity.classify"))
    classified = {a["config"]: a["tilings"] for a in attrs("regularity.classify_graph")}
    lp = attrs("regularity.simplex_max_canonical")
    graphs = attrs("flipgraph.enumerate_tilings")
    labellings = attrs("flipgraph.components_excluding_levels")
    skeleton_classes = [a["classes"] for a in attrs("secondary.skeleton")]

    def is_verdict(regular_wanted):
        return lambda i: (spans[i][4] or {}).get("regular") == regular_wanted

    def under_classify(i: int) -> bool:
        parent = spans[i][3]
        return parent >= 0 and spans[parent][0] == "regularity.classify"

    metrics = {
        "regularity.classify_s": total_s("regularity.classify_graph"),
        "regularity.verdicts": count("regularity.classify"),
        "regularity.regular": regular,
        "regularity.verdicts_per_tiling": ratio(
            count("regularity.classify"), sum(classified.values())
        ),
        "regularity.verdict_ms_p50": _median(durations("regularity.classify", 1e3)),
        "regularity.verdict_ms_p99": _nearest_rank(durations("regularity.classify", 1e3), 0.99),
        "regularity.regular_verdict_ms_p50": _median(
            durations("regularity.classify", 1e3, is_verdict(True))
        ),
        "regularity.irregular_verdict_ms_p50": _median(
            durations("regularity.classify", 1e3, is_verdict(False))
        ),
        "regularity.lp_rows": max((a["rows"] for a in lp), default=0),
        "regularity.lp_cols": max((a["cols"] for a in lp), default=0),
        "tiling.from_heights_us": _median(
            durations("tiling.tiling_from_heights", 1e6, under_classify)
        ),
        "tiling.flip_lookup_us": _median(durations("tiling.available_flips", 1e6)),
        "tiling.flip_lookups": count("tiling.available_flips"),
        "tiling.flip_apply_us": _median(durations("tiling.apply_flip", 1e6)),
        "tiling.flip_applies": count("tiling.apply_flip"),
        "flipgraph.enumerate_s": total_s("flipgraph.enumerate_tilings"),
        "flipgraph.enumerate_calls": count("flipgraph.enumerate_tilings"),
        "flipgraph.enumerations_per_config": ratio(
            count("flipgraph.enumerate_tilings"), len({g["config"] for g in graphs})
        ),
        "flipgraph.nodes": max((g["nodes"] for g in graphs), default=0),
        "flipgraph.edges": max((g["edges"] for g in graphs), default=0),
        "flipgraph.diameter_s": total_s("flipgraph.graph_diameter"),
        "flipgraph.bfs_sweeps": count("flipgraph.bfs_distances"),
        "flipgraph.bfs_sweep_us": _median(durations("flipgraph.bfs_distances", 1e6)),
        "flipgraph.labelling_s": total_s("flipgraph.components_excluding_levels"),
        "flipgraph.labelling_calls": count("flipgraph.components_excluding_levels"),
        "flipgraph.labellings_per_level_set": ratio(
            count("flipgraph.components_excluding_levels"),
            len({a["level_set"] for a in labellings}),
        ),
        "flipgraph.labelling_ms": _median(
            durations("flipgraph.components_excluding_levels", 1e3)
        ),
        "flipgraph.chains_s": total_s("flipgraph.sample_chain"),
        "secondary.skeleton_s": total_s("secondary.skeleton"),
        "secondary.skeleton_calls": count("secondary.skeleton"),
        "secondary.skeleton_ms": _median(durations("secondary.skeleton", 1e3)),
        "secondary.classes": sum(skeleton_classes),
        "secondary.diameter_report_s": total_s("secondary.diameter_report"),
        "secondary.potential_s": total_s("secondary.potential")
        + total_s("secondary.modified_potential"),
        "hypertri.cross_section_us": _median(durations("hypertri.cross_section", 1e6)),
        "hypertri.cross_sections": count("hypertri.cross_section"),
        "hypertri.reduced_path_ms": _median(durations("hypertri.reduced_cross_section", 1e3)),
        "hypertri.reduced_paths": count("hypertri.reduced_cross_section"),
        "cli.artifact_bytes": artifact_bytes,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics
