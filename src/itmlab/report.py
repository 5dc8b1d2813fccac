"""Deterministic JSON report assembly.

Every rational is rendered in the ``p/q`` wire format, from its integer
numerator over the map's grid wherever the analysis holds one; section order is
fixed, and no timestamps enter the document, so identical inputs and flags
produce byte-identical reports.

Every section with lists in it is written as JSON text directly, one
string expression per record, as a ``Fragment`` at depth 0: the map and
the attractor (``map_section``, ``attractor_section``), each component's
return map and vectors (``return_map_section``, ``vectors_section``), the
ghost graph's nodes and edges (in ``ghost_section``) and the probe
(``probe_section``). ``render_document`` writes the rest from dicts (the
header, the verdicts with their witnesses, the directed perturbation) and
each fragment by indenting its lines, byte-identical to
``json.dumps(doc, indent=2)`` of the document the fragments stand for.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
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


def map_section(m: ItmMap) -> Fragment:
    """The map's parameters and grid."""
    q = m.Q
    beta = [f'"{rational_text(b, q)}"' for b in m.grid.cuts[1:-1]]
    gamma = [f'"{rational_text(g, q)}"' for g in m.grid.gamma]
    return Fragment(
        f'{{\n  "r": {m.r},\n  "beta": {_array(beta, "  ")},\n'
        f'  "gamma": {_array(gamma, "  ")},\n  "Q": {q},\n'
        f'  "image_compactly_contained": {_BOOL[m.image_compactly_contained]}\n}}'
    )


def attractor_section(att: AttractorResult, capped: bool = False) -> Fragment:
    """X with its stabilization step and the discontinuity classification."""
    d = att.denom
    components = [
        f'[\n      "{rational_text(l, d)}",\n      "{rational_text(r, d)}"\n    ]'
        for l, r in att.kcomponents
    ]
    inside = [f"[\n      {i},\n      {k}\n    ]" for i, k in att.discontinuities_inside]
    outside = list(map(str, att.discontinuities_outside))
    step = att.stabilization_step
    return Fragment(
        f'{{\n  "components": {_array(components, "  ")},\n'
        f'  "stabilization_step": {"null" if step is None else step},\n'
        f'  "infinite_type_suspected": {_BOOL[att.infinite_type_suspected]},\n'
        f'  "capped": {_BOOL[capped]},\n'
        f'  "discontinuities_inside": {_array(inside, "  ")},\n'
        f'  "discontinuities_outside": {_array(outside, "  ")},\n'
        f'  "boundary_hits": {_array(list(map(str, att.boundary_hits)), "  ")}\n}}'
    )


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


_ENTRY_SEP = ",\n        "


@lru_cache(maxsize=256)
def _f_entries(f: tuple[int, ...]) -> str:
    """The items of a vector's ``f`` array. Almost every f is 0, a unit
    vector or the difference of two, so a map has a few dozen and each is
    written once."""
    return _ENTRY_SEP.join(map(str, f))


def vectors_section(m: ItmMap, data: ReturnMapData, component: int) -> Fragment:
    """The coefficient vectors of one component with their products, and
    the outcome of the identity and linear-dependence checks."""
    vecs = build_vectors(m, data)
    checks = verify_identities(m, data, vecs)
    pattern = check_lin_dep_pattern(m, data, vecs)
    vectors = [
        f'{{\n      "tag": "{_tag(tag)}",\n'
        f'      "e": [\n        {_ENTRY_SEP.join(map(str, e))}\n      ],\n'
        f'      "f": [\n        {_f_entries(f)}\n      ],\n'
        f'      "product": "{rational_text(check.kvalue, check.denom)}"\n    }}'
        for (e, f, tag), check in zip(vecs, checks)
    ]
    return Fragment(
        f'{{\n  "component": {component},\n'
        f'  "vectors": {_array(vectors, "  ")},\n'
        f'  "identities_ok": {_BOOL[all(c.ok for c in checks)]},\n'
        f'  "lin_dep_pattern": "{"holds" if pattern.holds else "violated"}",\n'
        f'  "nullity": {pattern.nullity}\n}}'
    )


def ghost_section(graph: GhostGraph, a3_verdict) -> dict:
    """The ghost graph's nodes and edges, as two fragments, and the A3
    verdict with its witness."""
    in_x = graph.in_x
    nodes = [
        f'{{\n    "disc": {i},\n    "side": "{s}",\n    "in_x": {_BOOL[in_x[(i, s)]]}\n  }}'
        for i, s in graph.nodes
    ]
    edges = [
        f'{{\n    "child": [\n      {e.child[0]},\n      "{e.child[1]}"\n    ],\n'
        f'    "parent": [\n      {e.parent[0]},\n      "{e.parent[1]}"\n    ],\n'
        f'    "time": {e.time}\n  }}'
        for e in graph.edges
    ]
    witness = a3_verdict.witness
    return {
        "nodes": Fragment(_array(nodes, "")),
        "edges": Fragment(_array(edges, "")),
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


_BOOL_OR_NULL = {None: "null", False: "false", True: "true"}


def _value_or_null(value) -> str:
    """An int, a Fraction (as its ``p/q`` string) or None, as JSON."""
    if value is None:
        return "null"
    if type(value) is int:
        return str(value)
    return f'"{value}"'


def probe_section(pr: ProbeResult) -> Fragment:
    """The probe summary and one record per drawn sample, accepted or not
    (the fields of a rejected draw are null)."""
    records = [
        f'{{\n      "index": {rec.index},\n      "accepted": {_BOOL[rec.accepted]},\n'
        f'      "component_count": {_value_or_null(rec.component_count)},\n'
        f'      "hausdorff": {_value_or_null(rec.hausdorff)},\n'
        f'      "disc_inside": {_value_or_null(rec.disc_inside)},\n'
        f'      "disc_outside_closure": {_value_or_null(rec.disc_outside_closure)},\n'
        f'      "signature_match": {_BOOL_OR_NULL[rec.signature_match]}\n    }}'
        for rec in pr.samples
    ]
    return Fragment(
        f'{{\n  "epsilon": "{pr.epsilon}",\n  "seed": {pr.seed},\n'
        f'  "samples": {len(pr.samples)},\n  "accepted": {pr.accepted},\n'
        f'  "max_hausdorff": "{pr.max_hausdorff}",\n  "min_hausdorff": "{pr.min_hausdorff}",\n'
        f'  "all_signatures_match": {_BOOL[pr.all_signatures_match]},\n'
        f'  "component_counts": {_array(list(map(str, pr.component_counts)), "  ")},\n'
        f'  "records": {_array(records, "  ")}\n}}'
    )


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
