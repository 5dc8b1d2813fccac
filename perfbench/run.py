"""Benchmark of the itmlab CLI on fixed, seeded workloads.

Each item is one in-process call of the public CLI,
``itmlab.cli.main([<analyze|probe>, <map file>, ..., "--json-only", "--out", <file>])``.
Items run one after another in a closed loop: one caller, one process, one
thread. After one whole pass over the workload's items, passes over the
items whose summed time is still under ``ITEM_CAP_S`` repeat until
``--seconds`` have elapsed. Every item's report is checked each time: exit
code, vector identities, linear-dependence pattern, probe signatures, and
the report's sha256 against ``expected.json``.

With ``--trace 0`` the run prints the end-to-end metrics. With ``--trace 1``
untraced and traced passes alternate (at least two of each); the traced
passes wrap the pipeline's module-level bindings (see ``tracing.py``) and
give the per-layer metrics and the tracing overhead.

Times are reported scaled to a reference host speed. The development host
changes speed by up to a factor of two within seconds, because other work
shares its cores, and no number of repeats averages that out. So a fixed
pure-Python loop that does not use itmlab (``speed_probe``) runs right
before and right after every timed call, and every ``PROBE_INTERVAL_S``
during it (``InCallProbe``), and the call's time is multiplied by
``REFERENCE_NS`` over the mean of those probe times. README.md gives the
spreads measured with and without scaling. The raw figures are printed
beside the scaled ones.

The inputs are fixed by the workload definitions below, so every seed runs
the same maps; ``--seed`` sets the order the items run in.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus-q1024 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every item passed every check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mapgen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 11
# After the first pass an item is measured again only while its summed time
# is under this cap, so cheap items collect many samples and one expensive
# item does not take the whole run.
ITEM_CAP_S = 1.0
# How often the reference loop is timed while one call runs.
PROBE_INTERVAL_S = 0.2
TAIL_BEYOND = 10  # items beyond the reported tail percentile
# About the median of speed_probe() on the 2-core development host under
# CPython 3.11.7. Times are reported scaled to the host speed at which the
# reference loop takes this long (see item_times).
REFERENCE_NS = 1_250_000

FIG1 = {"r": 3, "beta": ["1/3", "2/3"], "gamma": ["1/3", "1/7", "-1/2"]}
PROBE_ARGS = ["--eps", "1/1000", "--samples", "100"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "analyze": one item per map; "probe": one item per probe seed
    map_seed: int = 0
    maps: int = 0
    max_q: int = 0
    rs: tuple[int, ...] = ()
    probe_seeds: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-q1024", "analyze", map_seed=1, maps=50, max_q=1024, rs=(2, 3, 4)),
        Workload("branchy-q1024", "analyze", map_seed=2, maps=30, max_q=1024, rs=(6, 8)),
        Workload("probe-fig1", "probe", probe_seeds=40),
    )
}

END_TO_END = {
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {name: unit for name, (unit, _) in tracing.METRICS.items()}
PER_LAYER["trace.overhead_frac"] = "ratio"


@dataclass
class ItemRun:
    item: str
    ns: int
    speed: float  # REFERENCE_NS / the reference time measured around and during the call
    error: str | None
    spans: list | None = None
    probe_ns: int = 0  # in-call probe time left inside ns (traced calls)

    @property
    def scaled_ns(self) -> float:
        return self.ns * self.speed


# -- host speed ------------------------------------------------------------


def _reference_loop() -> int:
    """A fixed pure-Python workload that does not use itmlab: exact rational
    steps and a sort, the same kind of work as the engine."""
    t0 = time.perf_counter_ns()
    x, step, one = Fraction(0), Fraction(3, 7919), Fraction(1)
    seen = []
    for _ in range(300):
        x += step
        if x >= one:
            x -= one
        seen.append((x, -x))
    seen.sort()
    return time.perf_counter_ns() - t0


def speed_probe() -> int:
    """Nanoseconds of the reference loop now: the median of three runs."""
    return statistics.median(_reference_loop() for _ in range(3))


class InCallProbe:
    """Times the reference loop every PROBE_INTERVAL_S from a SIGALRM handler
    while a call runs, so a call of several seconds is scaled by the host
    speed during it, not only at its ends. The handler's own time is
    subtracted from the call's."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spent_ns = 0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        self.samples.append(_reference_loop())
        self.spent_ns += time.perf_counter_ns() - t0

    def __enter__(self) -> "InCallProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# -- set-up ----------------------------------------------------------------


def write_inputs(w: Workload, directory: Path) -> list[tuple[str, list[str]]]:
    """Write the workload's map files; return (item id, CLI arguments) pairs."""
    if w.command == "analyze":
        items = []
        for i, spec in enumerate(mapgen.corpus(w.map_seed, w.maps, w.max_q, w.rs)):
            path = directory / f"map-{i:03d}.json"
            path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
            items.append((f"map-{i:03d}", ["analyze", str(path)]))
        return items
    path = directory / "fig1.json"
    path.write_text(json.dumps(FIG1) + "\n", encoding="utf-8")
    return [
        (f"seed-{s:02d}", ["probe", str(path), *PROBE_ARGS, "--seed", str(s)])
        for s in range(w.probe_seeds)
    ]


def import_cli():
    """Import ``itmlab.cli`` afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "itmlab" or n.startswith("itmlab.")]:
        del sys.modules[name]
    cli = importlib.import_module("itmlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported itmlab from {cli.__file__}, not from {SRC}")
    return cli


def setup(w: Workload, work: Path):
    """Import, generate and write the inputs SETUP_REPEATS times; return the
    last set of items and the median set-up seconds."""
    times = []
    for rep in range(SETUP_REPEATS):
        gc.collect()
        before = speed_probe()
        t0 = time.perf_counter_ns()
        import_cli()
        directory = work / f"inputs-{rep}"
        directory.mkdir()
        items = write_inputs(w, directory)
        ns = time.perf_counter_ns() - t0
        times.append(ns * 2 * REFERENCE_NS / (before + speed_probe()) / 1e9)
    return items, statistics.median(times)


# -- one item --------------------------------------------------------------


def check_report(command: str, doc: dict) -> str | None:
    """The first property one report breaks, or None."""
    for section in doc.get("vectors", []):
        if section["identities_ok"] is not True:
            return f"component {section['component']}: identities_ok is not true"
        if section["lin_dep_pattern"] != "holds":
            return f"component {section['component']}: lin_dep_pattern is {section['lin_dep_pattern']!r}"
    if command == "probe" and doc["probe"]["all_signatures_match"] is not True:
        return "all_signatures_match is not true"
    return None


def check_output(command: str, data: bytes, digest: str | None) -> str | None:
    """Check one report's properties and its sha256 against the recorded one."""
    error = check_report(command, json.loads(data))
    if error is None and digest is None:
        error = "no recorded digest for this item"
    elif error is None and hashlib.sha256(data).hexdigest() != digest:
        error = "report sha256 differs from the recorded digest"
    return error


def run_item(cli, argv: list[str], out: Path) -> tuple[int, int | None]:
    """One CLI call; returns (nanoseconds, exit code or None on exception)."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter_ns()
    try:
        rc = cli.main([*argv, "--json-only", "--out", str(out)])
    except Exception:
        t1 = time.perf_counter_ns()
        traceback.print_exc()
        return t1 - t0, None
    return time.perf_counter_ns() - t0, rc


def run_pass(w: Workload, items, out: Path, expected: dict, tracer=None, deadline=None) -> list[ItemRun]:
    """Every item once, or until ``deadline`` (a perf_counter value), from a
    fresh import of the package, as a new CLI process would start, so no
    module-level state carries over between passes. In a traced pass the
    in-call probe's time stays in the call's, so that spans add up to it."""
    cli = import_cli()
    runs = []
    if tracer is not None:
        tracer.install()
    try:
        before = speed_probe()
        for item, argv in items:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            gc.collect()  # start each call from a collected heap, as a new process would
            with InCallProbe() as probe:
                ns, rc = run_item(cli, argv, out)
            if tracer is None:
                ns -= probe.spent_ns
                spans, probe_ns = None, 0
            else:
                spans, probe_ns = tracer.take(), probe.spent_ns  # left in, so spans add up to ns
            after = speed_probe()
            speed = REFERENCE_NS / statistics.mean([before, *probe.samples, after])
            before = after
            if rc is None:
                error = "exception"
            elif rc != 0:
                error = f"exit code {rc}"
            else:
                try:
                    error = check_output(w.command, out.read_bytes(), expected.get(item))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable report: {type(exc).__name__}: {exc}"
            if error is not None:
                print(f"FAIL {w.name} {item}: {error}", file=sys.stderr)
            runs.append(ItemRun(item, ns, speed, error, spans, probe_ns))
    finally:
        if tracer is not None:
            tracer.remove()
    return runs


# -- metrics ---------------------------------------------------------------


def item_times(passes: list[list[ItemRun]], scaled: bool = True) -> dict:
    """From each item's median time across the passes: the rate of one pass
    over the workload, and the median and tail item time; scaled to the
    reference speed, or raw."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for run in p:
            samples.setdefault(run.item, []).append(run.scaled_ns if scaled else run.ns)
    times = sorted(statistics.median(ns) / 1e9 for ns in samples.values())
    return {
        "items_per_s": len(times) / sum(times),
        "item_s_p50": statistics.median(times),
        "item_s_tail": times[len(times) - TAIL_BEYOND - 1],
    }


def per_layer(traced: list[list[ItemRun]], untraced: list[list[ItemRun]], wrapped: set[str]):
    """Median per-layer metrics over the traced passes, plus the problems
    found: broken span trees and counters that did not repeat."""
    problems = []
    summaries = []
    for p in traced:
        item_spans = []
        for run in p:
            if not run.spans:
                problems.append(f"{run.item}: no spans recorded")
                continue
            # a probe tick can land outside the root span, inside the call
            error = tracing.check_item(run.spans, run.ns, tracing.WRAPPER_SLACK_NS + run.probe_ns)
            if error:
                problems.append(f"{run.item}: {error}")
            item_spans.append((run.spans, run.speed))
        summaries.append(tracing.summarise(item_spans, wrapped))
    counters = [c for _, c in summaries]
    if any(c != counters[0] for c in counters[1:]):
        problems.append(f"work counters differ between traced passes: {counters}")
    values = {  # counts repeat between passes (checked above for the integer work counters)
        name: statistics.median(v[name] for v, _ in summaries) if PER_LAYER[name] != "count" else value
        for name, value in summaries[0][0].items()
    }
    traced_s = statistics.median(sum(r.scaled_ns for r in p) for p in traced)
    untraced_s = statistics.median(sum(r.scaled_ns for r in p) for p in untraced)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    return values, problems


def write_spans(path: Path, traced_pass: list[ItemRun]) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for run in traced_pass:
            for i, s in enumerate(run.spans or ()):
                fh.write(json.dumps({
                    "item": run.item, "span": i, "name": s.func, "layer": tracing.LAYER_OF[s.func],
                    "start_ns": s.start, "end_ns": s.end, "parent": s.parent, "counts": s.counts,
                }) + "\n")


# -- running a workload ----------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> int:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(w.name, {})
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        items, setup_s = setup(w, work)
        random.Random(seed).shuffle(items)
        out = work / "report.json"
        tracer = tracing.Tracer() if trace else None
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        if tracer is None:
            # one whole pass, then passes over the items under the cap
            untraced.append(run_pass(w, items, out, expected))
            spent = {run.item: run.ns for run in untraced[0]}
            while time.perf_counter() < deadline:
                todo = [(item, argv) for item, argv in items if spent[item] < ITEM_CAP_S * 1e9]
                if not todo:
                    break
                untraced.append(run_pass(w, todo, out, expected, deadline=deadline))
                for run in untraced[-1]:
                    spent[run.item] += run.ns
        else:
            # whole passes, alternating, so traced and untraced compare like for like
            while len(traced) < 2 or time.perf_counter() < deadline:
                untraced.append(run_pass(w, items, out, expected))
                traced.append(run_pass(w, items, out, expected, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    runs = [r for p in untraced + traced for r in p]
    failed = sum(r.error is not None for r in runs)
    e2e = item_times(untraced)
    raw = item_times(untraced, scaled=False)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(items)
    print(f"workload {w.name}: seed {seed}, {len(untraced)} untraced + {len(traced)} traced "
          f"passes of {n} items ({len(runs)} calls); CPython {sys.version.split()[0]}, nproc {os.cpu_count()}")
    print(f"  times at the reference speed; host speed {statistics.median(r.speed for r in runs):.3f} of it")
    for name, unit in END_TO_END.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        if name == "item_s_tail":
            note += f"  (p{100 * (n - TAIL_BEYOND) / n:.4g} of n={n} per-item medians)"
        print(f"  {name:<24} {e2e[name]:.6g} {unit}{note}")
    print(f"  {'failed_frac':<24} {failed / len(runs):.6g}  ({failed}/{len(runs)} items)")

    problems = []
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layer, problems = per_layer(traced, untraced, tracer.wrapped_functions())
        write_spans(OUT / f"{w.name}.spans.jsonl", traced[-1])
        wall = layer.get("trace.wall_s")
        for name, unit in PER_LAYER.items():
            if name not in layer:
                print(f"  {name:<24} missing")
                continue
            share = ""
            if wall and name.endswith(".self_s"):
                share = f"  ({100 * layer[name] / wall:.1f}% of traced wall)"
            print(f"  {name:<24} {layer[name]:.6g} {unit}{share}")
        for binding in tracer.missing:
            print(f"  missing binding: {binding}")
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in PER_LAYER.items()
            if name in layer
        }
    for problem in problems:
        print(f"FAIL {w.name} trace: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one JSON line for all of them."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAIL {name}: no result line (exit code {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def prepare() -> bool:
    """Put the checkout's sources first on the path; False when absent."""
    if not (SRC / "itmlab" / "__init__.py").is_file():
        print(f"error: no itmlab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["ITMLAB_THREADS"] = "1"  # one thread, so spans nest strictly
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
