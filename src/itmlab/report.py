"""Deterministic JSON report assembly.

Every rational is rendered in the ``p/q`` wire format, from its integer
numerator over the map's grid wherever the analysis holds one; section order is
fixed, and no timestamps enter the document, so identical inputs and flags
produce byte-identical reports.

The per-component sections, which carry most of a large report, are no
dicts: ``return_map_section`` and ``vectors_section`` write their JSON
text directly, one string expression per record, as a ``Fragment`` at
depth 0. ``render_document`` writes the small sections from dicts and
each fragment by indenting its lines, byte-identical to
``json.dumps(doc, indent=2)`` of the document the fragments stand for.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from . import __version__
from .attractor import AttractorResult
from .ghost import GhostGraph
from .itm import ItmMap
from .return_map import ReturnMapData, classify_return_dynamics, verify_touching_equations
from .stability import (
    GRID_BITS,
    LCG_A,
    LCG_C,
    LCG_M,
    DirectedPerturbation,
    FullAnalysis,
    ProbeResult,
    StabilityReport,
)
from .vectors import build_vectors, check_lin_dep_pattern, verify_identities


def rational_text(k: int, d: int) -> str:
    """``k/d`` (``d > 0``) in the ``p/q`` wire format, exactly as
    ``str(Fraction(k, d))`` writes it, from the integers alone."""
    g = gcd(k, d)
    if g == d:
        return str(k // d)
    return f"{k // g}/{d // g}"


def _pairs(pairs, d: int) -> list[list[str]]:
    """Integer pairs over ``d`` as ``[p/q, p/q]`` lists."""
    return [[rational_text(l, d), rational_text(r, d)] for l, r in pairs]


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def map_section(m: ItmMap) -> dict:
    return {
        "r": m.r,
        "beta": [rational_text(b, m.Q) for b in m.grid.cuts[1:-1]],
        "gamma": [rational_text(g, m.Q) for g in m.grid.gamma],
        "Q": m.Q,
        "image_compactly_contained": m.image_compactly_contained,
    }


def attractor_section(att: AttractorResult, capped: bool = False) -> dict:
    return {
        "components": _pairs(att.kcomponents, att.denom),
        "stabilization_step": att.stabilization_step,
        "infinite_type_suspected": att.infinite_type_suspected,
        "capped": capped,
        "discontinuities_inside": [list(t) for t in att.discontinuities_inside],
        "discontinuities_outside": list(att.discontinuities_outside),
        "boundary_hits": list(att.boundary_hits),
    }


class Fragment(str):
    """The JSON text of one report section at depth 0, exactly as
    ``json.dumps(section, indent=2)`` writes it. ``render_document`` writes
    a fragment at any depth by indenting each of its lines."""

    __slots__ = ()


_BOOL = ("false", "true")


def _array(items: list[str], indent: str) -> str:
    """The pre-rendered ``items`` as a JSON array whose closing bracket
    sits at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _hits(hits) -> str:
    """A chain's hits, as the array at depth 3 of a return-map section."""
    return _array([
        f'{{\n          "disc": {h.disc},\n          "time": {h.time}\n        }}' for h in hits
    ], "      ")


def return_map_section(m: ItmMap, data: ReturnMapData, component: int) -> Fragment:
    """The return map of one component, with its chains, classification
    and touching values."""
    d = data.grid.denom
    cuts = [f'"{rational_text(k, d)}"' for k in data.kcuts]
    landings = [
        f'{{\n      "cut": {rec.j},\n      "time": {rec.time},\n      "disc": {rec.disc}\n    }}'
        for rec in data.landings
    ]
    chains = [
        f'{{\n      "j": {c.j},\n      "side": "{c.side}",\n      "hits": {_hits(c.hits)},\n'
        f'      "entry_time": {c.entry_time},\n'
        f'      "entry_value": "{rational_text(c.kentry, d)}"\n    }}'
        for c in data.chains
    ]
    images = [
        f'[\n      "{rational_text(l, d)}",\n      "{rational_text(r, d)}"\n    ]'
        for l, r in data.kimages
    ]
    touching = [f'"{v}"' for v in verify_touching_equations(m, data)]
    return Fragment(
        f'{{\n  "component": {component},\n  "J": [\n    {cuts[0]},\n    {cuts[-1]}\n  ],\n'
        f'  "cut_points": {_array(cuts, "  ")},\n'
        f'  "return_times": {_array(list(map(str, data.return_times)), "  ")},\n'
        f'  "landings": {_array(landings, "  ")},\n'
        f'  "chains": {_array(chains, "  ")},\n'
        f'  "sigma": {_array(list(map(str, data.sigma)), "  ")},\n'
        f'  "tau": {_array(list(map(str, data.tau)), "  ")},\n'
        f'  "images": {_array(images, "  ")},\n'
        f'  "dynamically_trivial": {_BOOL[data.dynamically_trivial]},\n'
        f'  "classification": "{classify_return_dynamics(data)}",\n'
        f'  "touching_values": {_array(touching, "  ")}\n}}'
    )


def _tag(tag) -> str:
    if tag[0] == "L":
        return f"L{tag[1]}"
    if tag[0] == "C":
        return f"C{tag[1]}({tag[2]},{tag[3]})"
    return f"R{tag[1]}{tag[2]}"


def vectors_section(m: ItmMap, data: ReturnMapData, component: int) -> Fragment:
    """The coefficient vectors of one component with their products, and
    the outcome of the identity and linear-dependence checks."""
    vecs = build_vectors(m, data)
    checks = verify_identities(m, data, vecs)
    pattern = check_lin_dep_pattern(m, data, vecs)
    sep = ",\n        "
    vectors = [
        f'{{\n      "tag": "{_tag(v.tag)}",\n'
        f'      "e": [\n        {sep.join(map(str, v.e))}\n      ],\n'
        f'      "f": [\n        {sep.join(map(str, v.f))}\n      ],\n'
        f'      "product": "{rational_text(check.kvalue, check.denom)}"\n    }}'
        for v, check in zip(vecs, checks)
    ]
    return Fragment(
        f'{{\n  "component": {component},\n'
        f'  "vectors": {_array(vectors, "  ")},\n'
        f'  "identities_ok": {_BOOL[all(c.ok for c in checks)]},\n'
        f'  "lin_dep_pattern": "{"holds" if pattern.holds else "violated"}",\n'
        f'  "nullity": {pattern.nullity}\n}}'
    )


def ghost_section(graph: GhostGraph, a3_verdict) -> dict:
    witness = a3_verdict.witness
    return {
        "nodes": [
            {"disc": i, "side": s, "in_x": graph.in_x[(i, s)]} for i, s in graph.nodes
        ],
        "edges": [
            {"child": list(e.child), "parent": list(e.parent), "time": e.time}
            for e in graph.edges
        ],
        "a3": {"holds": a3_verdict.holds, "witness": None if witness is None else witness.as_dict()},
    }


def stability_section(report: StabilityReport) -> dict:
    def verdict(v) -> dict:
        return {"holds": v.holds, "witness": _jsonable(v.witness)}

    return {
        "finite_type": report.finite_type,
        "stabilization_step": report.stabilization_step,
        "a1": verdict(report.a1),
        "a2": verdict(report.a2),
        "a3": verdict(report.a3),
        "matching": verdict(report.matching),
        "stable": report.stable,
    }


def probe_section(pr: ProbeResult) -> dict:
    return {
        "epsilon": str(pr.epsilon),
        "seed": pr.seed,
        "samples": len(pr.samples),
        "accepted": pr.accepted,
        "max_hausdorff": str(pr.max_hausdorff),
        "min_hausdorff": str(pr.min_hausdorff),
        "all_signatures_match": pr.all_signatures_match,
        "component_counts": list(pr.component_counts),
        "records": [
            {
                "index": rec.index,
                "accepted": rec.accepted,
                "component_count": rec.component_count,
                "hausdorff": str(rec.hausdorff) if rec.hausdorff is not None else None,
                "disc_inside": rec.disc_inside,
                "disc_outside_closure": rec.disc_outside_closure,
                "signature_match": rec.signature_match,
            }
            for rec in pr.samples
        ],
    }


def directed_section(dp: DirectedPerturbation, analysis: FullAnalysis) -> dict:
    return {
        "deltas": [str(d) for d in dp.spec.deltas],
        "epsilon": str(dp.spec.epsilon),
        "predicted_interval": [str(x) for x in dp.predicted_interval],
        "period": dp.period,
        "perturbed_components": _pairs(analysis.attractor.kcomponents, analysis.attractor.denom),
    }


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def build_report(
    analysis: FullAnalysis,
    digest: str,
    capped: bool = False,
    probe: ProbeResult | None = None,
    directed: dict | None = None,
) -> dict:
    header = {"tool": "itmlab", "version": __version__, "input_digest": digest}
    if probe is not None:
        header["probe"] = {
            "seed": probe.seed,
            "lcg": {"a": LCG_A, "c": LCG_C, "m": LCG_M},
            "grid_denominator": 2**GRID_BITS,
        }
    doc = {
        "header": header,
        "map": map_section(analysis.map),
        "attractor": attractor_section(analysis.attractor, capped),
    }
    if analysis.report.finite_type:
        doc["return_maps"] = [
            return_map_section(analysis.map, data, k)
            for k, data in enumerate(analysis.return_maps, start=1)
        ]
        doc["vectors"] = [
            vectors_section(analysis.map, data, k)
            for k, data in enumerate(analysis.return_maps, start=1)
        ]
        doc["ghost"] = ghost_section(analysis.ghost_graph, analysis.a3)
    doc["stability"] = stability_section(analysis.report)
    if probe is not None:
        doc["probe"] = probe_section(probe)
    if directed is not None:
        doc["directed_perturbation"] = directed
    return doc


# How each scalar type is written, exactly as json.dumps writes it.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _BOOL.__getitem__,
    type(None): lambda _: "null",
}
_formatter = _SCALARS.get


def render_document(doc: dict) -> str:
    """The report text, byte-identical to ``json.dumps(doc, indent=2) + "\n"``
    with each ``Fragment`` read as the JSON value it holds: str, int, bool
    and None scalars, dicts with str keys, lists and tuples (written as
    lists) and fragments. Any other type, a plain ``str`` subclass
    included, raises TypeError.

    The text is appended to one list and joined once at the end; each key's
    ``"key": `` text is built once per document. A fragment at indent ``d``
    is its text with every newline followed by ``d``, which is exact
    because no JSON string holds a raw newline."""
    out: list[str] = []
    append = out.append
    keys: dict[str, str] = {}

    def write(obj, indent: str) -> None:
        kind = type(obj)
        fmt = _formatter(kind)
        if fmt is not None:
            append(fmt(obj))
        elif kind is Fragment:
            append(obj.replace("\n", "\n" + indent))
        elif kind is not dict and kind is not list and kind is not tuple:
            raise TypeError(f"{kind.__name__} cannot enter a report")
        elif not obj:
            append("{}" if kind is dict else "[]")
        elif kind is dict:
            inner = indent + "  "
            lead, sep = "{\n" + inner, ",\n" + inner
            for key, value in obj.items():
                text = keys.get(key)
                if text is None:
                    if type(key) is not str:
                        raise TypeError(f"report keys must be str, not {type(key).__name__}")
                    text = keys[key] = encode_basestring_ascii(key) + ": "
                fmt = _formatter(type(value))
                if fmt is None:
                    append(lead + text)
                    write(value, inner)
                else:
                    append(lead + text + fmt(value))
                lead = sep
            append("\n" + indent + "}")
        else:
            inner = indent + "  "
            lead, sep = "[\n" + inner, ",\n" + inner
            kinds = set(map(type, obj))
            fmt = _formatter(kinds.pop()) if len(kinds) == 1 else None
            if fmt is not None:  # a list of one scalar type: one join
                append(lead + sep.join(map(fmt, obj)))
            else:
                for value in obj:
                    append(lead)
                    write(value, inner)
                    lead = sep
            append("\n" + indent + "]")

    write(doc, "")
    append("\n")
    return "".join(out)
