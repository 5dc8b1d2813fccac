"""Command-line entry point.

Commands: analyze, probe, render, ghost-tree, return-map. One input format
(the JSON map specification), one report format (deterministic JSON), one
image format (SVG). Exit codes: 0 success, 2 input or usage error, 3 probe
degenerate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .attractor import compute_attractor
from .intervals import MINUS, PLUS, parse_rational
from .itm import BadOrderError, BadTranslationError, ItmMap, MapFormatError, parse_map
from .render import render_map, render_orbit
from .return_map import compute_return_map
from .report import (
    build_report,
    directed_section,
    ghost_section,
    input_digest,
    render_document,
    return_map_section,
)
from .stability import (
    NoValidSamplesError,
    NotRealizableDirectlyError,
    a3_breaking_perturbation,
    apply_spec,
    full_analysis,
    perturbation_probe,
)
from .ghost import ghost_tree as build_tree

EXIT_INPUT = 2
EXIT_DEGENERATE = 3


class MapFileError(ValueError):
    """The map path does not name a readable file."""


class OutputPathError(ValueError):
    """The --out path cannot be written."""


def _load(path: str) -> tuple[ItmMap, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MapFileError(f"{path!r} must be a readable file: {exc.strerror}") from exc
    # ValueError covers bad UTF-8, malformed JSON and integers longer than
    # the int conversion limit; RecursionError covers arrays nested too deep.
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MapFormatError(f"invalid JSON: {exc}") from exc
    return parse_map(doc), input_digest(raw)


def _digits(text: str) -> bool:
    """Whether ``text`` is a nonempty run of ASCII digits; ``str.isdigit``
    also accepts digits such as '²' that ``int`` rejects or '٣' that it
    reads."""
    return text.isascii() and text.isdigit()


def _max_iter(text: str) -> int:
    if not _digits(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"max_iter >= 1 required, got {text!r}")
    return int(text)


def _depth(text: str) -> int:
    if not _digits(text):
        raise argparse.ArgumentTypeError(f"depth >= 0 required, got {text!r}")
    return int(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputPathError(f"--out {out!r} must be a writable file path: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _component_in_range(k: int, count: int) -> bool:
    """Whether --component K names one of the attractor's ``count``
    components; prints the usage error when it does not."""
    if 1 <= k <= count:
        return True
    print(f"error: --component must be in 1..{count} (the attractor has {count} components)",
          file=sys.stderr)
    return False


def _summary(analysis, json_only: bool) -> None:
    if json_only:
        return
    rep = analysis.report
    comps = analysis.attractor.components()
    lines = [
        f"attractor: {analysis.attractor.X} (step {analysis.attractor.stabilization_step})",
        f"components: {len(comps)}",
        f"finite_type={rep.finite_type} A1={rep.a1.holds} A2={rep.a2.holds} "
        f"A3={rep.a3.holds} matching={rep.matching.holds}",
        f"stable: {rep.stable}",
    ]
    print("\n".join(lines), file=sys.stderr)


def cmd_analyze(args) -> int:
    m, digest = _load(args.file)
    analysis = full_analysis(m, args.max_iter)
    capped = args.max_iter is not None and not analysis.attractor.finite_type
    doc = build_report(analysis, digest, capped=capped)
    _emit(render_document(doc), args.out)
    _summary(analysis, args.json_only)
    return 0


def cmd_probe(args) -> int:
    m, digest = _load(args.file)
    if args.samples < 1:
        raise MapFormatError("--samples must be >= 1")
    try:
        eps = parse_rational(args.eps)
    except ValueError as exc:
        raise MapFormatError(f"--eps: {exc}") from exc
    if eps <= 0:
        raise MapFormatError("--eps must be a positive rational")
    directed = None
    probe = None
    if args.directed:
        analysis = full_analysis(m)
        a3 = analysis.a3
        if a3 is None or a3.holds:
            print("error: --directed needs an A3 violation", file=sys.stderr)
            return EXIT_DEGENERATE
        dp = a3_breaking_perturbation(m, a3.witness, eps)
        perturbed = full_analysis(apply_spec(m, dp.spec))
        directed = directed_section(dp, perturbed)
    else:
        probe = perturbation_probe(m, eps, args.samples, args.seed)
        analysis = probe.base
    doc = build_report(analysis, digest, probe=probe, directed=directed)
    _emit(render_document(doc), args.out)
    _summary(analysis, args.json_only)
    return 0


def cmd_render(args) -> int:
    m, _ = _load(args.file)
    if args.kind == "map":
        svg = render_map(m)
    else:
        att = compute_attractor(m, args.max_iter)
        if not att.finite_type:
            print("error: orbit rendering needs a finite-type attractor "
                  "(cap reached, infinite type suspected)", file=sys.stderr)
            return EXIT_INPUT
        if not _component_in_range(args.component, len(att.kcomponents)):
            return EXIT_INPUT
        svg = render_orbit(m, args.component,
                           compute_return_map(m, att.kcomponents[args.component - 1], att))
    _emit(svg, args.out)
    return 0


def _parse_root(text: str) -> tuple[int, str]:
    if len(text) < 2 or text[-1] not in (PLUS, MINUS) or not _digits(text[:-1]):
        raise MapFormatError(f"bad signed discontinuity {text!r}, expected like '1+'")
    return int(text[:-1]), text[-1]


def cmd_ghost_tree(args) -> int:
    m, digest = _load(args.file)
    analysis = full_analysis(m)
    doc = {
        "header": {"tool": "itmlab", "input_digest": digest},
        "ghost": ghost_section(analysis.ghost_graph, analysis.a3),
    }
    if args.root:
        index, side = _parse_root(args.root)
        if not (1 <= index < m.r):
            raise MapFormatError(f"discontinuity index {index} out of range")
        tree = build_tree(analysis.ghost_graph, (index, side), args.depth)
        doc["tree"] = {
            "root": [index, side],
            "depth": args.depth,
            "levels": [[list(v) for v in level] for level in tree.levels],
            "repeated": [[lvl, list(v)] for lvl, v in tree.repeated],
        }
    _emit(render_document(doc), args.out)
    return 0


def cmd_return_map(args) -> int:
    m, digest = _load(args.file)
    analysis = full_analysis(m)
    if args.component is None:
        sections = [
            return_map_section(m, data, k) for k, data in enumerate(analysis.return_maps, start=1)
        ]
    else:
        k, att = args.component, analysis.attractor
        if not _component_in_range(k, len(att.kcomponents)):
            return EXIT_INPUT
        sections = [return_map_section(m, compute_return_map(m, att.kcomponents[k - 1], att), k)]
    doc = {
        "header": {"tool": "itmlab", "input_digest": digest},
        "return_maps": sections,
    }
    _emit(render_document(doc), args.out)
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs about as much as a small analysis."""
    parser = argparse.ArgumentParser(
        prog="itmlab", description="Exact analysis of interval translation maps"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline, JSON report")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--max-iter", type=_max_iter, default=None)
    p.add_argument("--json-only", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("probe", help="exact perturbation probe")
    p.add_argument("file")
    p.add_argument("--eps", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--directed", action="store_true",
                   help="apply the A3-breaking directed perturbation instead")
    p.add_argument("--out")
    p.add_argument("--json-only", action="store_true")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("render", help="SVG diagram")
    p.add_argument("file")
    p.add_argument("--kind", choices=("map", "orbit"), default="map")
    p.add_argument("--component", type=int, default=1)
    p.add_argument("--max-iter", type=_max_iter, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("ghost-tree", help="dump the ghost graph (and a tree)")
    p.add_argument("file")
    p.add_argument("--root", default=None, help="signed discontinuity like '1+'")
    p.add_argument("--depth", type=_depth, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ghost_tree)

    p = sub.add_parser("return-map", help="dump return-map structures")
    p.add_argument("file")
    p.add_argument("--component", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_return_map)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MapFileError, OutputPathError, MapFormatError, BadOrderError, BadTranslationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NoValidSamplesError, NotRealizableDirectlyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
