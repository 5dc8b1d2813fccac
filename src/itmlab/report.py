"""Deterministic JSON report assembly.

Every rational is rendered in the ``p/q`` wire format, from its integer
numerator over the map's grid wherever the analysis holds one; section order is
fixed, and no timestamps enter the document, so identical inputs and flags
produce byte-identical reports.

A section that appears once per document is a ``Fragment``: its JSON text
at depth 0, exactly as ``json.dumps(section, indent=2)`` writes the dict it
stands for. The header, the map, the attractor, the ghost graph with its A3
entry, the stability verdicts and the probe are written from the integers,
one string expression per record; values of no fixed shape (the verdict
witnesses, the directed perturbation, the ``ghost-tree`` header and tree) go
through ``json_fragment``. Each component's return map and vectors are
``ListItem``s, written at the depth of a top-level list's item: one ``%`` of
a template cached per section shape (the chains' hit counts; the vector tags
and r), filled with one flat tuple of the component's values.
``render_document`` splices a document's sections, each fragment indented
by one ``replace`` and each list item as it is.
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
from .ghost import A3Witness, GhostGraph, Verdict
from .intervals import MINUS, PLUS
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
    """The JSON text of a once-per-document section at depth 0, exactly as
    ``json.dumps(section, indent=2)`` writes it. A fragment at depth ``d``
    is its text with every newline followed by ``d``, which is exact
    because no JSON string holds a raw newline."""

    __slots__ = ()


class ListItem(str):
    """The JSON text of an item of a top-level report list at the depth the
    document places it: a fragment with four spaces after every newline."""

    __slots__ = ()


_TEMPLATES = 128  # shapes each cache keeps: the 30 branchy-q1024 maps have 14 and 21


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
    """None, a bool or an int, as JSON."""
    if value is None or type(value) is bool:
        return _BOOL_OR_NULL[value]
    return str(value)


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


def attractor_section(att: AttractorResult) -> Fragment:
    """X with its stabilization step and the discontinuity classification.
    Only a lowered cap is ever reached, so ``capped`` is ``infinite_type_suspected``."""
    inside = [f"[\n      {i},\n      {k}\n    ]" for i, k in att.discontinuities_inside]
    outside = list(map(str, att.discontinuities_outside))
    suspected = _BOOL[att.infinite_type_suspected]
    return Fragment(
        f'{{\n  "components": {_array(_pairs(att.kcomponents, att.denom), "  ")},\n'
        f'  "stabilization_step": {_scalar(att.stabilization_step)},\n'
        f'  "infinite_type_suspected": {suspected},\n'
        f'  "capped": {suspected},\n'
        f'  "discontinuities_inside": {_array(inside, "  ")},\n'
        f'  "discontinuities_outside": {_array(outside, "  ")},\n'
        f'  "boundary_hits": {_array(list(map(str, att.boundary_hits)), "  ")}\n}}'
    )


def _list_item(text: str) -> str:
    """Depth-0 text as an item of a top-level report list."""
    return text.replace("\n", "\n    ")


@lru_cache(maxsize=_TEMPLATES)
def _return_map_template(hits: tuple[int, ...]) -> str:
    """The return-map section at list depth, with a ``%s`` for each value,
    of N intervals whose chains a_0+ .. a_{N-1}+, a_1- .. a_N- have ``hits`` hits."""
    n = len(hits) // 2
    ints, rationals = ["%s"] * n, ['"%s"'] * (n + 1)
    hit = '{\n          "disc": %s,\n          "time": %s\n        }'
    landings = [f'{{\n      "cut": {j},\n      "time": %s,\n      "disc": %s\n    }}' for j in range(1, n)]
    ends = [(j, PLUS) for j in range(n)] + [(j, MINUS) for j in range(1, n + 1)]
    chains = [
        f'{{\n      "j": {j},\n      "side": "{side}",\n      "hits": {_array([hit] * k, "      ")},\n'
        f'      "entry_time": %s,\n      "entry_value": "%s"\n    }}'
        for (j, side), k in zip(ends, hits)
    ]
    images = ['[\n      "%s",\n      "%s"\n    ]'] * n
    return _list_item(
        f'{{\n  "component": %s,\n  "J": [\n    "%s",\n    "%s"\n  ],\n'
        f'  "cut_points": {_array(rationals, "  ")},\n'
        f'  "return_times": {_array(ints, "  ")},\n'
        f'  "landings": {_array(landings, "  ")},\n'
        f'  "chains": {_array(chains, "  ")},\n'
        f'  "sigma": {_array(ints, "  ")},\n'
        f'  "tau": {_array(ints, "  ")},\n'
        f'  "images": {_array(images, "  ")},\n'
        f'  "dynamically_trivial": {_BOOL[n == 1]},\n'
        f'  "classification": "%s",\n'
        f'  "touching_values": {_array(rationals[2:], "  ")}\n}}'
    )


def return_map_section(data: ReturnMapData, component: int) -> ListItem:
    """The return map of one component, with its chains, classification
    and touching values."""
    d = data.grid.denom
    chains = data.chains
    cuts = [rational_text(k, d) for k in data.kcuts]
    values = [component, cuts[0], cuts[-1], *cuts, *data.return_times]
    for rec in data.landings:
        values += rec.time, rec.disc
    for c in chains:
        for h in c.hits:
            values += h.disc, h.time
        values += c.entry_time, rational_text(c.kentry, d)
    values += data.sigma + data.tau
    for l, r in data.kimages:
        values += rational_text(l, d), rational_text(r, d)
    values.append(classify_return_dynamics(data))
    values += [rational_text(k, d) for k in verify_touching_equations(data)]
    return ListItem(_return_map_template(tuple([len(c.hits) for c in chains])) % tuple(values))


def _tag(tag) -> str:
    if tag[0] == "L":
        return f"L{tag[1]}"
    if tag[0] == "C":
        return f"C{tag[1]}({tag[2]},{tag[3]})"
    return f"R{tag[1]}{tag[2]}"


@lru_cache(maxsize=_TEMPLATES)
def _vectors_template(tags: tuple, r: int) -> str:
    """The vectors section at list depth, with a ``%s`` for each value, of
    vectors of ``Z^r (+) Z^{r-1}`` that carry ``tags``."""
    e = _array(["%s"] * r, "      ")
    f = _array(["%s"] * (r - 1), "      ")
    vectors = [
        f'{{\n      "tag": "{_tag(tag)}",\n      "e": {e},\n      "f": {f},\n      "product": "%s"\n    }}'
        for tag in tags
    ]
    return _list_item(
        f'{{\n  "component": %s,\n'
        f'  "vectors": {_array(vectors, "  ")},\n'
        # verify_identities raises at the first identity that fails, so all hold
        f'  "identities_ok": true,\n'
        f'  "lin_dep_pattern": "%s",\n'
        f'  "nullity": %s\n}}'
    )


def vectors_section(data: ReturnMapData, component: int) -> ListItem:
    """The coefficient vectors of one component with their products, and
    the outcome of the identity and linear-dependence checks."""
    vecs = build_vectors(data)
    products = verify_identities(data, vecs)
    pattern = check_lin_dep_pattern(data, vecs)
    d = data.grid.denom
    values = [component]
    for (e, f, _), k in zip(vecs, products):
        values += e
        values += f
        values.append(rational_text(k, d))
    values += "holds" if pattern.holds else "violated", pattern.nullity
    template = _vectors_template(tuple([v.tag for v in vecs]), len(data.grid.gamma))
    return ListItem(template % tuple(values))


def _verdict(verdict: Verdict) -> str:
    """A verdict, which holds when it has no witness, as the value of a key
    at depth 1; an A3 witness is written as its ``as_dict``."""
    witness = verdict.witness
    if type(witness) is A3Witness:
        witness = witness.as_dict()
    text = "null" if witness is None else json_fragment(witness).replace("\n", "\n    ")
    return f'{{\n    "holds": {_BOOL[witness is None]},\n    "witness": {text}\n  }}'


def ghost_section(graph: GhostGraph, a3: Verdict) -> Fragment:
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
    return Fragment(
        f'{{\n  "nodes": {_array(nodes, "  ")},\n  "edges": {_array(edges, "  ")},\n'
        f'  "a3": {_verdict(a3)}\n}}'
    )


def stability_section(analysis: FullAnalysis) -> Fragment:
    """The four verdicts of the analysis with their witnesses and the
    overall verdict."""
    return Fragment(
        f'{{\n  "finite_type": {_BOOL[analysis.finite_type]},\n'
        f'  "stabilization_step": {_scalar(analysis.attractor.stabilization_step)},\n'
        f'  "a1": {_verdict(analysis.a1)},\n'
        f'  "a2": {_verdict(analysis.a2)},\n'
        f'  "a3": {_verdict(analysis.a3)},\n'
        f'  "matching": {_verdict(analysis.matching)},\n'
        f'  "stable": {_BOOL[analysis.stable]}\n}}'
    )


def probe_section(pr: ProbeResult) -> Fragment:
    """The probe summary and one record per drawn sample, accepted or not
    (the fields of a rejected draw are null)."""
    d = pr.hausdorff_denom
    distances = ["null" if rec.khausdorff is None else f'"{rational_text(rec.khausdorff, d)}"'
                 for rec in pr.samples]
    records = [
        f'{{\n      "index": {rec.index},\n      "accepted": {_BOOL[rec.accepted]},\n'
        f'      "component_count": {_scalar(rec.component_count)},\n'
        f'      "hausdorff": {distance},\n'
        f'      "disc_inside": {_scalar(rec.disc_inside)},\n'
        f'      "disc_outside_closure": {_scalar(rec.disc_outside_closure)},\n'
        f'      "signature_match": {_scalar(rec.signature_match)}\n    }}'
        for rec, distance in zip(pr.samples, distances)
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
    probe: ProbeResult | None = None,
    directed: Fragment | None = None,
) -> dict:
    """The report's sections in order, for ``render_document``."""
    doc = {
        "header": header_section(digest, probe),
        "map": map_section(analysis.map),
        "attractor": attractor_section(analysis.attractor),
    }
    if analysis.finite_type:
        doc["return_maps"] = [
            return_map_section(data, k)
            for k, data in enumerate(analysis.return_maps, start=1)
        ]
        doc["vectors"] = [
            vectors_section(data, k)
            for k, data in enumerate(analysis.return_maps, start=1)
        ]
        doc["ghost"] = ghost_section(analysis.ghost_graph, analysis.a3)
    doc["stability"] = stability_section(analysis)
    if probe is not None:
        doc["probe"] = probe_section(probe)
    if directed is not None:
        doc["directed_perturbation"] = directed
    return doc


def render_document(doc: dict) -> str:
    """The report text of ``doc``, a dict of str keys to fragments and
    lists of list items: ``json.dumps(doc, indent=2) + "\n"`` with each
    fragment and list item read as the value it holds. Any other key or
    value, a plain ``str``, a fragment in a list and a list item outside
    one included, raises TypeError (``encode_basestring_ascii`` refuses a
    key that is no str). Each fragment is indented by one ``replace``; list
    items are already at their depth. Every piece of text is appended to
    one list, joined once at the end."""
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
                if type(item) is not ListItem:
                    raise TypeError(f"{type(item).__name__} in a report list is no ListItem")
                append(sep)
                append(item)
                sep = ",\n    "
            append("\n  ]" if value else "[]")
        else:
            raise TypeError(f"{type(value).__name__} is no report section")
    append("\n}\n" if out else "{}\n")
    return "".join(out)
