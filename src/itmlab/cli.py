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
import math
import sys

from .intervals import MINUS, PLUS, parse_rational
from .itm import (
    BadOrderError,
    BadTranslationError,
    ItmMap,
    MapFormatError,
    check_digit_limit,
    parse_map,
)
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
    GRID_BITS,
    NoValidSamplesError,
    NotRealizableDirectlyError,
    a3_breaking_perturbation,
    full_analysis,
    perturbation_probe,
    probe_grid,
)
from .ghost import DepthBoundError, ghost_tree as build_tree

EXIT_INPUT = 2
EXIT_DEGENERATE = 3


class UsageError(ValueError):
    """A file path, an option value or a combination of options the command
    cannot honour."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a repeated key is refused (json.loads keeps its last value)."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise MapFormatError(f"key {key!r} appears more than once in an object")
        doc[key] = value
    return doc


def _load(path: str) -> tuple[ItmMap, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"{path!r} must be a readable file: {exc.strerror}") from exc
    # ValueError covers bad UTF-8, malformed JSON, a repeated key and integers
    # longer than the int conversion limit; RecursionError covers arrays nested too deep.
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
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


def _natural(text: str) -> int:
    """--samples, --component and --depth: ASCII digits (their ranges are
    checked where they are used)."""
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
            raise UsageError(f"--out {out!r} must be a writable file path: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _return_map(analysis, k: int):
    """The return map of component K, which --component K must name."""
    count = len(analysis.attractor.kcomponents)
    if not 1 <= k <= count:
        raise UsageError(
            f"--component must be in 1..{count} (the attractor has {count} components)"
        )
    return analysis.return_maps[k - 1]


def _summary(analysis, json_only: bool) -> None:
    if json_only:
        return
    lines = [
        f"attractor: {analysis.attractor.X} (step {analysis.attractor.stabilization_step})",
        f"components: {len(analysis.attractor.kcomponents)}",
        f"finite_type={analysis.finite_type} A1={analysis.a1.holds} A2={analysis.a2.holds} "
        f"A3={analysis.a3.holds} matching={analysis.matching.holds}",
        f"stable: {analysis.stable}",
    ]
    print("\n".join(lines), file=sys.stderr)


def cmd_analyze(args, m: ItmMap, digest: str) -> str:
    analysis = full_analysis(m, args.max_iter)
    _summary(analysis, args.json_only)
    return render_document(build_report(analysis, digest))


def cmd_probe(args, m: ItmMap, digest: str) -> str:
    if args.directed and (args.samples is not None or args.seed is not None):
        raise UsageError("--samples and --seed apply to random probes, not to --directed")
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
        dp = a3_breaking_perturbation(analysis, eps)
        # each delta, end and component is p/q with q dividing lcm(Q, Q')
        check_digit_limit(math.lcm(m.Q, dp.perturbed.Q),
                          "--eps: the grid lcm(Q, Q') of the map and the perturbed map", UsageError)
        directed = directed_section(dp, full_analysis(dp.perturbed))
    else:
        # each distance is p/q with q dividing 2 D, D = probe_grid(Q, eps)
        check_digit_limit(2 * probe_grid(m.Q, eps),
                          f"--eps: twice the probe grid, 2 lcm(Q, {2**GRID_BITS} den(eps)),",
                          UsageError)
        probe = perturbation_probe(m, eps, samples, 0 if args.seed is None else args.seed)
        analysis = probe.base
    _summary(analysis, args.json_only)
    return render_document(build_report(analysis, digest, probe=probe, directed=directed))


def cmd_render(args, m: ItmMap, digest: str) -> str:
    from .render import render_map, render_orbit  # here, so no other command loads it

    if args.kind == "map":
        if args.component is not None:
            raise UsageError("--component applies to --kind orbit only")
        return render_map(m)
    k = 1 if args.component is None else args.component
    return render_orbit(_return_map(full_analysis(m), k))


def _parse_root(text: str) -> tuple[int, str]:
    if len(text) < 2 or text[-1] not in (PLUS, MINUS) or not _digits(text[:-1]):
        raise UsageError(f"bad signed discontinuity {text!r}, expected like '1+'")
    return int(text[:-1]), text[-1]


def cmd_ghost_tree(args, m: ItmMap, digest: str) -> str:
    if args.root is None and args.depth is not None:
        raise UsageError("--depth needs --root (it is the depth of the tree below the root)")
    depth = 4 if args.depth is None else args.depth
    if args.root is not None:
        index, side = _parse_root(args.root)
        if not (1 <= index < m.r):
            raise UsageError(f"--root: discontinuity index {index} out of range 1..{m.r - 1}")
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
    return render_document(doc)


def cmd_return_map(args, m: ItmMap, digest: str) -> str:
    analysis = full_analysis(m)
    numbered = enumerate(analysis.return_maps, start=1)
    if args.component is not None:
        numbered = [(args.component, _return_map(analysis, args.component))]
    doc = {
        "header": json_fragment({"tool": "itmlab", "input_digest": digest}),
        "return_maps": [return_map_section(data, k) for k, data in numbered],
    }
    return render_document(doc)


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
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("ghost-tree", parents=[common], help="dump the ghost graph (and a tree)")
    p.add_argument("--root", default=None, help="signed discontinuity like '1+'")
    p.add_argument("--depth", type=_natural, default=None, help="with --root only, default 4")
    p.set_defaults(func=cmd_ghost_tree)

    p = sub.add_parser("return-map", parents=[common], help="dump return-map structures")
    p.add_argument("--component", type=_natural, default=None)
    p.set_defaults(func=cmd_return_map)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Read the map file, run the command, write the text it returns; the exit code."""
    args = make_parser().parse_args(argv)
    try:
        m, digest = _load(args.file)
        _emit(args.func(args, m, digest), args.out)
    except (UsageError, DepthBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MapFormatError, BadOrderError, BadTranslationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NoValidSamplesError, NotRealizableDirectlyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    return 0


if __name__ == "__main__":
    sys.exit(main())
