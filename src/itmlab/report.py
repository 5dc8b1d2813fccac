"""Deterministic JSON report assembly.

Every rational is rendered in the ``p/q`` wire format, from its integer
numerator over the map's grid wherever the analysis holds one; section order is
fixed, and no timestamps enter the document, so identical inputs and flags
produce byte-identical reports.

Every section is a ``Fragment``: its JSON text at depth 0, exactly as
``json.dumps(section, indent=2)`` writes the dict it stands for. Sections
of a fixed shape are written from the integers, one string expression per
record: the header, the map and the attractor, each component's return map
and vectors, the ghost graph with its A3 entry, the stability verdicts and
the probe. Values of no fixed shape (the verdict witnesses, the directed
perturbation, the ``ghost-tree`` header and tree) go through
``json_fragment``. ``render_document`` only splices a document's sections,
each indented by one ``replace``.
"""

from __future__ import annotations

import hashlib
import json
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


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Fragment(str):
    """The JSON text of one report section at depth 0, exactly as
    ``json.dumps(section, indent=2)`` writes it. A fragment at depth ``d``
    is its text with every newline followed by ``d``, which is exact
    because no JSON string holds a raw newline."""

    __slots__ = ()


def _jsonable(obj):
    """``obj`` with each Fraction as its ``p/q`` string and each tuple as a
    list. Only str, int, bool, None, Fraction, dicts with str keys, lists
    and tuples may enter a report; any other type, a float, a set or a
    subclass of one of these included, raises TypeError."""
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is Fraction:
        return str(obj)
    if kind is list or kind is tuple:
        return [_jsonable(v) for v in obj]
    if kind is dict:
        if any(type(key) is not str for key in obj):
            raise TypeError("report keys must be str")
        return {k: _jsonable(v) for k, v in obj.items()}
    raise TypeError(f"{kind.__name__} cannot enter a report")


def json_fragment(obj) -> Fragment:
    """A value of no fixed shape (see ``_jsonable``) as a fragment."""
    return Fragment(json.dumps(_jsonable(obj), indent=2))


_BOOL = ("false", "true")
_BOOL_OR_NULL = {None: "null", False: "false", True: "true"}


def _array(items: list[str], indent: str) -> str:
    """The pre-rendered ``items`` as a JSON array whose closing bracket
    sits at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _pairs(pairs, d: int) -> list[str]:
    """Integer pairs over ``d`` as ``[p/q, p/q]`` arrays at depth 2."""
    return [f'[\n      "{rational_text(l, d)}",\n      "{rational_text(r, d)}"\n    ]' for l, r in pairs]


def _scalar(value) -> str:
    """None, a bool, an int or a Fraction (as its ``p/q`` string), as JSON."""
    if value is None or type(value) is bool:
        return _BOOL_OR_NULL[value]
    return str(value) if type(value) is int else f'"{value}"'


def _hits(hits) -> str:
    """A chain's hits, as the array at depth 3 of a return-map section."""
    return _array([
        f'{{\n          "disc": {h.disc},\n          "time": {h.time}\n        }}' for h in hits
    ], "      ")


def header_section(digest: str, probe: ProbeResult | None = None) -> Fragment:
    """The tool, its version and the input digest; for a probe, also the
    seed, the generator constants and the grid of the drawn deltas."""
    text = (
        f'{{\n  "tool": "itmlab",\n  "version": "{__version__}",\n'
        f'  "input_digest": {encode_basestring_ascii(digest)}'
    )
    if probe is not None:
        text += (
            f',\n  "probe": {{\n    "seed": {probe.seed},\n    "lcg": {{\n'
            f'      "a": {LCG_A},\n      "c": {LCG_C},\n      "m": {LCG_M}\n    }},\n'
            f'    "grid_denominator": {2**GRID_BITS}\n  }}'
        )
    return Fragment(text + "\n}")


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
    inside = [f"[\n      {i},\n      {k}\n    ]" for i, k in att.discontinuities_inside]
    outside = list(map(str, att.discontinuities_outside))
    return Fragment(
        f'{{\n  "components": {_array(_pairs(att.kcomponents, att.denom), "  ")},\n'
        f'  "stabilization_step": {_scalar(att.stabilization_step)},\n'
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
    touching = [f'"{v}"' for v in verify_touching_equations(m, data)]
    return Fragment(
        f'{{\n  "component": {component},\n  "J": [\n    {cuts[0]},\n    {cuts[-1]}\n  ],\n'
        f'  "cut_points": {_array(cuts, "  ")},\n'
        f'  "return_times": {_array(list(map(str, data.return_times)), "  ")},\n'
        f'  "landings": {_array(landings, "  ")},\n'
        f'  "chains": {_array(chains, "  ")},\n'
        f'  "sigma": {_array(list(map(str, data.sigma)), "  ")},\n'
        f'  "tau": {_array(list(map(str, data.tau)), "  ")},\n'
        f'  "images": {_array(_pairs(data.kimages, d), "  ")},\n'
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


def _verdict(holds: bool, witness) -> str:
    """A verdict with its witness, as the value of a key at depth 1."""
    text = "null" if witness is None else json_fragment(witness).replace("\n", "\n    ")
    return f'{{\n    "holds": {_BOOL[holds]},\n    "witness": {text}\n  }}'


def ghost_section(graph: GhostGraph, a3_verdict) -> Fragment:
    """The ghost graph's nodes and edges and the A3 verdict with its
    witness."""
    in_x = graph.in_x
    nodes = [
        f'{{\n      "disc": {i},\n      "side": "{s}",\n      "in_x": {_BOOL[in_x[(i, s)]]}\n    }}'
        for i, s in graph.nodes
    ]
    edges = [
        f'{{\n      "child": [\n        {e.child[0]},\n        "{e.child[1]}"\n      ],\n'
        f'      "parent": [\n        {e.parent[0]},\n        "{e.parent[1]}"\n      ],\n'
        f'      "time": {e.time}\n    }}'
        for e in graph.edges
    ]
    witness = a3_verdict.witness
    a3 = _verdict(a3_verdict.holds, None if witness is None else witness.as_dict())
    return Fragment(
        f'{{\n  "nodes": {_array(nodes, "  ")},\n  "edges": {_array(edges, "  ")},\n'
        f'  "a3": {a3}\n}}'
    )


def stability_section(report: StabilityReport) -> Fragment:
    """The four verdicts with their witnesses and the overall verdict."""
    return Fragment(
        f'{{\n  "finite_type": {_BOOL[report.finite_type]},\n'
        f'  "stabilization_step": {_scalar(report.stabilization_step)},\n'
        f'  "a1": {_verdict(report.a1.holds, report.a1.witness)},\n'
        f'  "a2": {_verdict(report.a2.holds, report.a2.witness)},\n'
        f'  "a3": {_verdict(report.a3.holds, report.a3.witness)},\n'
        f'  "matching": {_verdict(report.matching.holds, report.matching.witness)},\n'
        f'  "stable": {_BOOL[report.stable]}\n}}'
    )


def probe_section(pr: ProbeResult) -> Fragment:
    """The probe summary and one record per drawn sample, accepted or not
    (the fields of a rejected draw are null)."""
    records = [
        f'{{\n      "index": {rec.index},\n      "accepted": {_BOOL[rec.accepted]},\n'
        f'      "component_count": {_scalar(rec.component_count)},\n'
        f'      "hausdorff": {_scalar(rec.hausdorff)},\n'
        f'      "disc_inside": {_scalar(rec.disc_inside)},\n'
        f'      "disc_outside_closure": {_scalar(rec.disc_outside_closure)},\n'
        f'      "signature_match": {_scalar(rec.signature_match)}\n    }}'
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


def directed_section(dp: DirectedPerturbation, analysis: FullAnalysis) -> Fragment:
    """The directed perturbation and the attractor of the perturbed map."""
    att = analysis.attractor
    return json_fragment({
        "deltas": dp.spec.deltas,
        "epsilon": dp.spec.epsilon,
        "predicted_interval": dp.predicted_interval,
        "period": dp.period,
        "perturbed_components": [
            [rational_text(l, att.denom), rational_text(r, att.denom)] for l, r in att.kcomponents
        ],
    })


def build_report(
    analysis: FullAnalysis,
    digest: str,
    capped: bool = False,
    probe: ProbeResult | None = None,
    directed: Fragment | None = None,
) -> dict:
    """The report's sections in order, for ``render_document``."""
    doc = {
        "header": header_section(digest, probe),
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


def render_document(doc: dict) -> str:
    """The report text of ``doc``, a dict of str keys to fragments and
    lists of fragments: ``json.dumps(doc, indent=2) + "\n"`` with each
    fragment read as the value it holds. Any other key or value, a plain
    ``str`` included, raises TypeError (``encode_basestring_ascii`` refuses
    a key that is no str). Every piece of text is appended to one list,
    joined once at the end."""
    out: list[str] = []
    append = out.append
    lead = "{\n  "
    for key, value in doc.items():
        append(lead + encode_basestring_ascii(key) + ": ")
        lead = ",\n  "
        if type(value) is Fragment:
            append(value.replace("\n", "\n  "))
        elif type(value) is list:
            sep = "[\n    "
            for item in value:
                if type(item) is not Fragment:
                    raise TypeError(f"{type(item).__name__} in a report list is no Fragment")
                append(sep)
                append(item.replace("\n", "\n    "))
                sep = ",\n    "
            append("\n  ]" if value else "[]")
        else:
            raise TypeError(f"{type(value).__name__} is no report section")
    append("\n}\n" if out else "{}\n")
    return "".join(out)
