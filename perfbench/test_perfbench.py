"""Checks of the benchmark's own parts: the map generator, the tracer and the
metric tables. Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys

import pytest

import mapgen
import run
import tracing

assert run.prepare()

from itmlab import parse_map  # noqa: E402  (needs the path set by prepare)


def _conftest():
    spec = importlib.util.spec_from_file_location("itmlab_tests_conftest", run.ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed,count,max_q,rs,min_q", [
    (1, 50, 1024, (2, 3, 4), 512),  # corpus-q1024
    (2, 30, 1024, (6, 8), 512),  # branchy-q1024
    (987123, 55, 64, (2, 3, 4), 8),  # the test suite's own corpus
])
def test_generator_matches_conftest(seed, count, max_q, rs, min_q):
    conftest = _conftest()
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(count):
        spec = mapgen.random_map_spec(ours, max_q, rs, min_q)
        assert parse_map(spec) == conftest.random_map(theirs, max_q, rs, min_q)
    assert ours.getstate() == theirs.getstate()


def test_trace_spans_add_up_and_bindings_are_restored(tmp_path):
    probe = run.WORKLOADS["probe-fig1"]
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))[probe.name]
    (item, argv), = run.write_inputs(probe, tmp_path)[:1]
    tracer = tracing.Tracer()
    out = tmp_path / "out.json"
    passes = run.run_pass(probe, [(item, argv)], out, expected, tracer)
    passes += run.run_pass(run.WORKLOADS["corpus-q1024"], [("fig1", ["analyze", argv[1]])], out, {}, tracer)
    assert tracer.missing == []
    assert not hasattr(sys.modules["itmlab.cli"].main, "__wrapped__")
    assert [p.error for p in passes] == [None, "no recorded digest for this item"]
    for p in passes:
        assert p.spans[0].func == "main"
        assert tracing.check_item(p.spans, p.ns) is None
    values, counters = tracing.summarise([(p.spans, 1.0) for p in passes], tracer.wrapped_functions())
    assert set(values) == set(tracing.METRICS)
    assert sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(values["trace.wall_s"])
    _, analyze_counters = tracing.summarise([(passes[1].spans, 1.0)], tracer.wrapped_functions())
    assert analyze_counters["report.bytes"] == len(out.read_bytes())
    assert counters["attractor.components"] > analyze_counters["attractor.components"] > 0
    assert 0 < values["probe.accept_ratio"] <= 1
    assert values["probe.sample_s_p50"] > 0


def test_check_item_rejects_broken_span_trees():
    root = tracing.Span("main", 0, 100, -1)
    child = tracing.Span("full_analysis", 10, 60, 0)
    assert tracing.check_item([root, child], 100) is None
    assert "outside its parent" in tracing.check_item([root, tracing.Span("full_analysis", 10, 160, 0)], 200)
    assert "one root" in tracing.check_item([root, tracing.Span("main", 100, 120, -1)], 120)
    assert "wall time" in tracing.check_item([root, child], 100 + 2 * tracing.WRAPPER_SLACK_NS)


def test_missing_binding_is_reported_not_zero(tmp_path, monkeypatch):
    run.import_cli()
    import itmlab.report

    monkeypatch.delattr(itmlab.report, "build_vectors")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.remove()
    assert tracer.missing == ["itmlab.report.build_vectors"]
    values, _ = tracing.summarise([], tracer.wrapped_functions())
    for name in ("vectors.built", "vectors.self_s", "vectors.calls"):
        assert name not in values
    assert "vectors.nullity" in values


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
