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
from .return_map import compute_return_map
from .report import (
    build_report,
    directed_section,
    ghost_section,
    input_digest,
    json_fragment,
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


class UsageError(ValueError):
    """An option value or a combination of options the command cannot
    honour."""


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


def _natural(text: str) -> int:
    """--samples and --component: ASCII digits (their ranges are checked
    where they are used)."""
    if not _digits(text):
        raise argparse.ArgumentTypeError(f"ASCII digits required, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not _digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(
            f"ASCII digits with an optional '-' required, got {text!r}"
        )
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


def _check_component(k: int, count: int) -> None:
    """--component K must name one of the attractor's ``count`` components."""
    if not 1 <= k <= count:
        raise UsageError(
            f"--component must be in 1..{count} (the attractor has {count} components)"
        )


def _summary(analysis, json_only: bool) -> None:
    if json_only:
        return
    rep = analysis.report
    lines = [
        f"attractor: {analysis.attractor.X} (step {analysis.attractor.stabilization_step})",
        f"components: {len(analysis.attractor.kcomponents)}",
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
    if args.directed and (args.samples is not None or args.seed is not None):
        raise UsageError("--samples and --seed apply to random probes, not to --directed")
    m, digest = _load(args.file)
    samples = 100 if args.samples is None else args.samples
    if samples < 1:
        raise UsageError("--samples must be >= 1")
    try:
        eps = parse_rational(args.eps)
    except ValueError as exc:
        raise UsageError(f"--eps: {exc}") from exc
    if eps <= 0:
        raise UsageError("--eps must be a positive rational")
    directed = probe = None
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
        probe = perturbation_probe(m, eps, samples, 0 if args.seed is None else args.seed)
        analysis = probe.base
    doc = build_report(analysis, digest, probe=probe, directed=directed)
    _emit(render_document(doc), args.out)
    _summary(analysis, args.json_only)
    return 0


def cmd_render(args) -> int:
    from .render import render_map, render_orbit  # here, so no other command loads it

    if args.kind == "map" and (args.component is not None or args.max_iter is not None):
        raise UsageError("--component and --max-iter apply to --kind orbit only")
    m, _ = _load(args.file)
    if args.kind == "map":
        svg = render_map(m)
    else:
        att = compute_attractor(m, args.max_iter)
        if not att.finite_type:
            raise UsageError("orbit rendering needs a finite-type attractor "
                             "(cap reached, infinite type suspected)")
        k = 1 if args.component is None else args.component
        _check_component(k, len(att.kcomponents))
        svg = render_orbit(m, k, compute_return_map(m, att.kcomponents[k - 1], att))
    _emit(svg, args.out)
    return 0


def _parse_root(text: str) -> tuple[int, str]:
    if len(text) < 2 or text[-1] not in (PLUS, MINUS) or not _digits(text[:-1]):
        raise UsageError(f"bad signed discontinuity {text!r}, expected like '1+'")
    return int(text[:-1]), text[-1]


def cmd_ghost_tree(args) -> int:
    if args.root is None and args.depth is not None:
        raise UsageError("--depth needs --root (it is the depth of the tree below the root)")
    m, digest = _load(args.file)
    depth = 4 if args.depth is None else args.depth
    if args.root is not None:
        index, side = _parse_root(args.root)
        if not (1 <= index < m.r):
            raise UsageError(f"--root: discontinuity index {index} out of range 1..{m.r - 1}")
        # level n + 1 depends only on level n, a set of the 2(r-1) signed
        # discontinuities, so fewer than 2**(2(r-1)) levels are distinct
        max_depth = 2 ** (2 * (m.r - 1))
        if depth > max_depth:
            raise UsageError(
                f"--depth must be <= 2**(2*(r-1)) = {max_depth} for r = {m.r}, "
                f"got {depth}: deeper levels only repeat"
            )
    analysis = full_analysis(m)
    doc = {
        "header": json_fragment({"tool": "itmlab", "input_digest": digest}),
        "ghost": ghost_section(analysis.ghost_graph, analysis.a3),
    }
    if args.root is not None:
        tree = build_tree(analysis.ghost_graph, (index, side), depth)
        doc["tree"] = json_fragment({
            "root": [index, side],
            "depth": depth,
            "levels": tree.levels,
            "repeated": tree.repeated,
        })
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
        _check_component(k, len(att.kcomponents))
        sections = [return_map_section(m, compute_return_map(m, att.kcomponents[k - 1], att), k)]
    doc = {
        "header": json_fragment({"tool": "itmlab", "input_digest": digest}),
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
    # every command reads one map file and writes to --out or stdout
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file")
    common.add_argument("--out")

    p = sub.add_parser("analyze", parents=[common], help="full pipeline, JSON report")
    p.add_argument("--max-iter", type=_max_iter, default=None)
    p.add_argument("--json-only", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("probe", parents=[common], help="exact perturbation probe")
    p.add_argument("--eps", required=True)
    p.add_argument("--samples", type=_natural, default=None, help="default 100")
    p.add_argument("--seed", type=_seed, default=None, help="default 0")
    p.add_argument("--directed", action="store_true",
                   help="apply the A3-breaking directed perturbation instead")
    p.add_argument("--json-only", action="store_true")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("render", parents=[common], help="SVG diagram")
    p.add_argument("--kind", choices=("map", "orbit"), default="map")
    p.add_argument("--component", type=_natural, default=None, help="orbit only, default 1")
    p.add_argument("--max-iter", type=_max_iter, default=None, help="orbit only")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("ghost-tree", parents=[common], help="dump the ghost graph (and a tree)")
    p.add_argument("--root", default=None, help="signed discontinuity like '1+'")
    p.add_argument("--depth", type=_depth, default=None, help="with --root only, default 4")
    p.set_defaults(func=cmd_ghost_tree)

    p = sub.add_parser("return-map", parents=[common], help="dump return-map structures")
    p.add_argument("--component", type=_natural, default=None)
    p.set_defaults(func=cmd_return_map)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MapFileError, OutputPathError, MapFormatError, BadOrderError, BadTranslationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NoValidSamplesError, NotRealizableDirectlyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
