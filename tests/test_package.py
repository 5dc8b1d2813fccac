"""Package-wide properties: the record classes, what importing the command
line loads, no ``assert`` in the engine, one error for a broken invariant,
and no private name imported from another module."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import itmlab
from itmlab import (
    A3Witness,
    Verdict,
    a3_breaking_perturbation,
    build_ghost_graph,
    check_A3,
    compute_attractor,
    full_analysis,
    ghost_tree,
    minus,
    perturbation_probe,
    plus,
    validate,
)
from itmlab.intervals import Frozen
from itmlab.return_map import ReturnMapData

PACKAGE = Path(itmlab.__file__).resolve().parent

# the plain records and their fields, in order
NAMED = {
    "Verdict": ("witness",),
    "PerturbationSpec": ("epsilon", "deltas"),
    "DirectedPerturbation": ("spec", "predicted_interval", "period", "perturbed"),
    "GhostEdge": ("child", "parent", "time", "counts"),
    "GhostGraph": ("nodes", "edges", "in_x"),
    "A3Witness": ("disc", "cycle", "times"),
    "GhostTree": ("root", "levels", "repeated"),
    "IterationResult": ("point", "itinerary", "counts"),
}

# the Frozen records: (value fields, attributes stored after them)
FROZEN = {
    "ItmMap": (("grid",), ()),
    "AttractorResult": (("grid", "kcomponents", "stabilization_step"), ()),
    "ReturnMapData": (("kcuts", "return_times", "landings", "sigma"), ("grid", "_source")),
    "FullAnalysis": (("attractor",), ()),
    "SignedPoint": (("value", "side"), ()),
    "IntervalSet": (("intervals",), ()),
    "ProbeResult": (("epsilon", "seed", "samples"), ("base",)),
}


@pytest.fixture(scope="module")
def records(ghost_map):
    """One instance of every record class, by class name."""
    fig1 = validate(3, [F(1, 3), F(2, 3)], [F(1, 3), F(1, 7), F(-1, 2)])
    analysis = full_analysis(fig1)
    graph = analysis.ghost_graph
    witness = check_A3(build_ghost_graph(compute_attractor(ghost_map))).witness
    directed = a3_breaking_perturbation(full_analysis(ghost_map), F(1, 4096))
    return {
        "Verdict": analysis.a1,
        "PerturbationSpec": directed.spec,
        "DirectedPerturbation": directed,
        "GhostEdge": graph.edges[0],
        "GhostGraph": graph,
        "A3Witness": witness,
        "GhostTree": ghost_tree(graph, (2, "+"), 2),
        "IterationResult": fig1.iterate(plus(F(1, 5)), 3),
        "ItmMap": fig1,
        "AttractorResult": analysis.attractor,
        "ReturnMapData": analysis.return_maps[0],
        "FullAnalysis": analysis,
        "SignedPoint": minus(F(1, 3)),
        "IntervalSet": analysis.attractor.X,
        "ProbeResult": perturbation_probe(fig1, F(1, 1000), 5, seed=1),
    }


def test_every_record_is_covered(records):
    assert set(records) == set(NAMED) | set(FROZEN)
    assert all(type(rec).__name__ == name for name, rec in records.items())
    frozen = {cls.__name__ for cls in Frozen.__subclasses__()}
    assert frozen == set(FROZEN)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_plain_records_are_named_tuples(records, name):
    rec, names = records[name], NAMED[name]
    assert isinstance(rec, tuple) and type(rec)._fields == names
    assert tuple(rec) == tuple(getattr(rec, field) for field in names)
    for field in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)


def test_a_verdict_is_its_witness(records, ghost_map):
    # a Verdict stores only the witness: holds is read off it. A3's witness
    # is an A3Witness, that of any other condition a dict
    analysis, violated = records["FullAnalysis"], full_analysis(ghost_map)
    a3 = check_A3(violated.ghost_graph)
    verdicts = (records["Verdict"], analysis.a3, violated.a3, a3)
    assert [v.holds for v in verdicts] == [True, True, False, False]
    assert type(a3) is Verdict and type(a3.witness) is A3Witness and violated.a3 == a3
    for v in verdicts:
        assert v.holds is (v.witness is None)
        with pytest.raises(AttributeError):
            v.holds = not v.holds
    # a capped attractor gives every condition the one not-finite-type verdict
    capped = full_analysis(analysis.map, 1)
    fails = capped.a1
    assert fails.witness == {"reason": "not finite type"}
    assert all(v is fails for v in (capped.a2, capped.a3, capped.matching))
    assert not capped.finite_type and not capped.stable


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records(records, name):
    rec, (values, extra) = records[name], FROZEN[name]
    cls = type(rec)
    assert isinstance(rec, Frozen) and cls._fields == values
    # __init__ stores the value fields, then the extras; views read since
    # then follow them in the instance dict
    stored = [*values, *extra]
    assert list(vars(rec))[:len(stored)] == stored
    for field in (*stored, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
    twin = cls(*[getattr(rec, field) for field in stored])
    assert twin == rec and hash(twin) == hash(rec) and twin is not rec
    assert repr(rec) == f"{name}(" + ", ".join(f"{f}={getattr(rec, f)!r}" for f in values) + ")"
    assert rec != tuple(getattr(rec, field) for field in values)


def test_return_map_equality_ignores_grid_and_source(records):
    # the images are a view of the cut points and sigma, not a field
    data = records["ReturnMapData"]
    other = ReturnMapData(
        data.kcuts, data.return_times, data.landings, data.sigma,
        data.grid._replace(denom=2 * data.grid.denom), (data, 0),
    )
    assert other == data and hash(other) == hash(data) and repr(other) == repr(data)
    assert "kimages" not in vars(other) and other.kimages == data.kimages
    changed = ReturnMapData(
        data.kcuts, data.return_times, data.landings, data.sigma[::-1], data.grid,
    )
    assert changed != data and changed.kimages != data.kimages


def test_probe_equality_leaves_out_the_base(records):
    probe = records["ProbeResult"]
    values = [getattr(probe, field) for field in type(probe)._fields]
    other = type(probe)(*values, base=None)
    assert other == probe and hash(other) == hash(probe)
    assert "base" not in repr(probe) and repr(other) == repr(probe)
    assert type(probe)(*values[:-1], (), base=probe.base) != probe


def test_equal_maps_have_equal_hashes_and_keep_their_views(fig1):
    m = validate(3, [F(2, 6), F(4, 6)], [F(2, 6), F(3, 21), F(-3, 6)])
    assert vars(m) == {"grid": fig1.grid}
    assert m == fig1 and hash(m) == hash(fig1) and {m: 1}[fig1] == 1
    assert m.beta == (F(1, 3), F(2, 3)) and "beta" in vars(m)
    assert m == fig1 and hash(m) == hash(fig1)


def test_cli_import_loads_no_dataclasses_and_no_renderer():
    # -S keeps the site hooks out, so every module listed was loaded by the
    # import of itmlab.cli or by the interpreter itself
    code = "import sys, itmlab.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "itmlab.cli" in loaded and "itmlab.report" in loaded
    assert "dataclasses" not in loaded and "itmlab.render" not in loaded


def test_engine_has_no_assert():
    # engine checks raise typed errors, which still run under python -O
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_error_for_a_broken_invariant():
    # every engine identity raises the one exported InvariantError: no other
    # class derives from AssertionError, directly or through another class
    classes = [
        (f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}", node)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    derived = {"AssertionError"}
    while True:
        more = {node.name for _, node in classes
                if any(getattr(b, "id", getattr(b, "attr", None)) in derived for b in node.bases)}
        if more <= derived:
            break
        derived |= more
    found = [where for where, node in classes if node.name in derived]
    assert [where.split(" ")[1] for where in found] == ["InvariantError"], found
    assert found[0].startswith("intervals.py:")
    assert itmlab.InvariantError is itmlab.intervals.InvariantError
    assert issubclass(itmlab.InvariantError, AssertionError)


def test_no_module_imports_a_private_name_from_another():
    # a name with a leading underscore belongs to its own module (a dunder
    # such as __version__ is public)
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "itmlab")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert found == []


def _public_functions():
    """Every public function and public method defined in a module of the
    package, by qualified name."""
    for info in pkgutil.iter_modules(itmlab.__path__):
        module = importlib.import_module(f"itmlab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_function_takes_a_map_next_to_an_attractor():
    # compute_attractor is the one stage that takes the map; after it the
    # attractor owns the grid, so no function can be handed a map and an
    # attractor, or a value derived from one, that disagree. Under ``from
    # __future__ import annotations`` the annotations are strings, so their
    # text is compared
    words = {
        name: {
            word
            for param in inspect.signature(func).parameters.values()
            for word in re.findall(r"\w+", str(param.annotation))
        }
        for name, func in _public_functions()
    }
    derived = {"AttractorResult", "FullAnalysis", "GhostGraph", "A3Witness", "ReturnMapData"}
    assert [name for name, seen in words.items() if "ItmMap" in seen and derived & seen] == []
    # nor an attractor next to a return map derived from it: a function that
    # needs both takes the analysis that holds them
    assert [name for name, seen in words.items() if {"AttractorResult", "ReturnMapData"} <= seen] == []
    # the scan reads the annotations where they occur
    assert "ItmMap" in words["attractor.compute_attractor"]
    assert "AttractorResult" in words["return_map.compute_return_map"]
    assert "FullAnalysis" in words["stability.a3_breaking_perturbation"]
    assert "ReturnMapData" in words["return_map.transported"]
