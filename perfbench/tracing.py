"""Span tracing around the module-level bindings the itmlab pipeline calls.

``Tracer.install`` replaces each binding in ``BINDINGS`` with a wrapper that
records one span (function, start, end, parent) per call and, once the span
has closed, reads work counts off the returned object. Nothing inside the
package is changed or instrumented; ``Tracer.remove`` puts the original
bindings back. Spans stay in memory until the pass is summarised.

A binding that does not exist in the package under test is listed in
``Tracer.missing``; every metric that needs a missing binding is reported
as missing, never as zero.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass

# (module, attribute) pairs the pipeline calls through.
BINDINGS = (
    ("itmlab.cli", "main"),
    ("itmlab.cli", "full_analysis"),
    ("itmlab.cli", "build_report"),
    ("itmlab.cli", "render_document"),
    ("itmlab.cli", "perturbation_probe"),
    ("itmlab.stability", "compute_attractor"),
    ("itmlab.stability", "compute_return_map"),
    ("itmlab.stability", "build_ghost_graph"),
    ("itmlab.stability", "check_A1"),
    ("itmlab.stability", "check_A2"),
    ("itmlab.stability", "check_A3"),
    ("itmlab.stability", "check_matching"),
    ("itmlab.stability", "full_analysis"),
    ("itmlab.stability", "hausdorff_closure_distance"),
    ("itmlab.report", "build_vectors"),
    ("itmlab.report", "verify_identities"),
    ("itmlab.report", "check_lin_dep_pattern"),
    ("itmlab.report", "verify_touching_equations"),
    ("itmlab.ghost", "check_A3"),
)

# Layer (named after its module) that owns each traced function's self time.
LAYER_OF = {
    "main": "cli",
    "compute_attractor": "attractor",
    "compute_return_map": "return_map",
    "verify_touching_equations": "return_map",
    "build_ghost_graph": "ghost",
    "check_A3": "ghost",
    "build_vectors": "vectors",
    "verify_identities": "vectors",
    "check_lin_dep_pattern": "vectors",
    "full_analysis": "verdict",
    "check_A1": "verdict",
    "check_A2": "verdict",
    "check_matching": "verdict",
    "build_report": "report",
    "render_document": "report",
    "perturbation_probe": "probe",
    "hausdorff_closure_distance": "probe",
}
LAYERS = ("cli", "attractor", "return_map", "ghost", "vectors", "verdict", "report", "probe")


def _return_map_counts(data) -> dict:
    return {
        "return_map.intervals": data.n_intervals,
        "return_map.chain_steps": sum(c.entry_time for c in data.chains),
    }


# Work counts read off returned objects, per traced function.
COUNTERS = {
    "compute_attractor": lambda att: {
        "attractor.steps": att.stabilization_step or 0,
        "attractor.components": len(att.components()),
    },
    "compute_return_map": _return_map_counts,
    "build_ghost_graph": lambda graph: {"ghost.edges": len(graph.edges)},
    "build_vectors": lambda vecs: {"vectors.built": len(vecs)},
    "check_lin_dep_pattern": lambda pattern: {"vectors.nullity": pattern.nullity},
    "render_document": lambda text: {"report.bytes": len(text.encode("utf-8"))},
    "perturbation_probe": lambda pr: {
        "probe.accepted": pr.accepted,
        "probe.drawn": len(pr.samples),
    },
}

# Integer counters that depend only on the inputs and must repeat exactly.
DETERMINISTIC = (
    "attractor.steps",
    "attractor.components",
    "return_map.intervals",
    "return_map.chain_steps",
    "ghost.edges",
    "vectors.built",
    "vectors.nullity",
    "report.bytes",
)

# Per-layer metric -> (unit, traced functions it is computed from).
METRICS = {
    "cli.self_s": ("s", ("main",)),
    "attractor.self_s": ("s", ("compute_attractor",)),
    "attractor.steps": ("count", ("compute_attractor",)),
    "attractor.components": ("count", ("compute_attractor",)),
    "return_map.self_s": ("s", ("compute_return_map", "verify_touching_equations")),
    "return_map.intervals": ("count", ("compute_return_map",)),
    "return_map.chain_steps": ("count", ("compute_return_map",)),
    "return_map.touching_s": ("s", ("verify_touching_equations",)),
    "ghost.self_s": ("s", ("build_ghost_graph", "check_A3")),
    "ghost.edges": ("count", ("build_ghost_graph",)),
    "ghost.a3_s": ("s", ("check_A3",)),
    "vectors.self_s": ("s", ("build_vectors", "verify_identities", "check_lin_dep_pattern")),
    "vectors.calls": ("count", ("build_vectors", "verify_identities", "check_lin_dep_pattern")),
    "vectors.built": ("count", ("build_vectors",)),
    "vectors.nullity": ("count", ("check_lin_dep_pattern",)),
    "verdict.self_s": ("s", ("full_analysis", "check_A1", "check_A2", "check_matching")),
    "report.self_s": ("s", ("build_report", "render_document")),
    "report.render_s": ("s", ("render_document",)),
    "report.bytes": ("count", ("render_document",)),
    "probe.self_s": ("s", ("perturbation_probe", "hausdorff_closure_distance")),
    "probe.sample_s_p50": ("s", ("perturbation_probe", "full_analysis")),
    "probe.hausdorff_s": ("s", ("hausdorff_closure_distance",)),
    "probe.accept_ratio": ("ratio", ("perturbation_probe",)),
    "trace.wall_s": ("s", ("main",)),
}


# Time the root wrapper may add around an item's call: entering it and
# recording its span.
WRAPPER_SLACK_NS = 1_000_000


@dataclass
class Span:
    func: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    counts: dict | None = None


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, func):
        name = func.__name__
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        self.missing = []
        for mod_name, attr in BINDINGS:
            module = importlib.import_module(mod_name)
            func = getattr(module, attr, None)
            if func is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(func))

    def remove(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved = []

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    def wrapped_functions(self) -> set[str]:
        """Traced functions none of whose bindings is missing."""
        absent = {name.rsplit(".", 1)[1] for name in self.missing}
        return {attr for _, attr in BINDINGS} - absent


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def check_item(spans: list[Span], wall_ns: int, slack_ns: int = WRAPPER_SLACK_NS) -> str | None:
    """The spans of one item nest in one tree whose self times add up to the
    item's measured wall time, up to ``slack_ns`` spent outside the root
    span; returns a description of the first violation."""
    roots = [s for s in spans if s.parent < 0]
    if len(roots) != 1:
        return f"expected one root span per item, got {len(roots)}"
    for s in spans:
        if s.parent >= 0 and not spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end:
            return f"span {s.func} lies outside its parent {spans[s.parent].func}"
    gap = wall_ns - sum(self_times(spans))
    if not 0 <= gap <= slack_ns:
        return f"self times differ from the item's wall time by {gap} ns"
    return None


def summarise(items: list[tuple[list[Span], float]], wrapped: set[str]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and its deterministic counters.

    ``items`` holds, per item, its span list (root span first) and the
    factor that scales its times to the reference speed. Times are seconds
    summed over the pass; a metric that needs a function whose binding is
    missing is left out.
    """
    layer_ns = dict.fromkeys(LAYERS, 0.0)
    func_ns: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    samples: list[float] = []
    wall = 0.0
    for spans, speed in items:
        selfs = self_times(spans)
        wall += (spans[0].end - spans[0].start) * speed
        probe_children: dict[int, int] = {}
        for s, own in zip(spans, selfs):
            layer_ns[LAYER_OF[s.func]] += own * speed
            func_ns[s.func] = func_ns.get(s.func, 0) + own * speed
            calls[s.func] = calls.get(s.func, 0) + 1
            for key, value in (s.counts or {}).items():
                counts[key] = counts.get(key, 0) + value
            # the first full_analysis under a probe is its base map, the
            # rest are perturbed samples
            if s.func == "full_analysis" and s.parent >= 0 and spans[s.parent].func == "perturbation_probe":
                seen = probe_children.get(s.parent, 0)
                probe_children[s.parent] = seen + 1
                if seen:
                    samples.append((s.end - s.start) * speed)

    def sec(ns: float) -> float:
        return ns / 1e9

    drawn = counts.get("probe.drawn", 0)
    values = {
        f"{layer}.self_s": sec(ns) for layer, ns in layer_ns.items()
    }
    values.update({
        "return_map.touching_s": sec(func_ns.get("verify_touching_equations", 0)),
        "ghost.a3_s": sec(func_ns.get("check_A3", 0)),
        "vectors.calls": sum(calls.get(f, 0) for f in METRICS["vectors.calls"][1]),
        "report.render_s": sec(func_ns.get("render_document", 0)),
        "probe.sample_s_p50": sec(statistics.median(samples)) if samples else 0.0,
        "probe.hausdorff_s": sec(func_ns.get("hausdorff_closure_distance", 0)),
        "probe.accept_ratio": counts.get("probe.accepted", 0) / drawn if drawn else 0.0,
        "trace.wall_s": sec(wall),
    })
    for key in DETERMINISTIC:
        values[key] = counts.get(key, 0)
    values = {
        name: values[name]
        for name, (_, funcs) in METRICS.items()
        if all(f in wrapped for f in funcs)
    }
    return values, {key: counts.get(key, 0) for key in DETERMINISTIC}
