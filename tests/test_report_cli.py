"""Report document determinism and the command-line surface."""

from __future__ import annotations

import hashlib
import json
import re
import sys
from fractions import Fraction as F

import pytest

from itmlab import (
    a3_breaking_perturbation,
    apply_spec,
    compute_attractor,
    compute_return_map,
    full_analysis,
    parse_map,
    parse_rational,
    perturbation_probe,
)
from itmlab.cli import main, make_parser
from itmlab.render import render_map, render_orbit
from itmlab.report import (
    Fragment,
    ListItem,
    attractor_section,
    build_report,
    directed_section,
    ghost_section,
    header_section,
    json_fragment,
    map_section,
    probe_section,
    render_document,
    return_map_section,
    stability_section,
    vectors_section,
)
from itmlab.return_map import verify_touching_equations
from itmlab.vectors import build_vectors, verify_identities

from conftest import (
    naive_attractor_section,
    naive_directed_section,
    naive_ghost_section,
    naive_header_section,
    naive_map_section,
    naive_probe_section,
    naive_return_map_section,
    naive_stability_section,
    naive_vectors_section,
)

FIG1_DOC = '{"r": 3, "beta": ["1/3", "2/3"], "gamma": ["1/3", "1/7", "-1/2"]}\n'
GHOST_DOC = (
    '{"r": 4, "beta": ["1/8", "3/8", "1/2"],'
    ' "gamma": ["1/4", "1/2", "-1/4", "-1/16"]}\n'
)
# the A3 example: beta1- and beta2+ land on each other in one step
A3_DOC = (
    '{"r": 4, "beta": ["1/8", "1/2", "3/4"],'
    ' "gamma": ["3/8", "1/2", "-3/8", "-1/8"]}\n'
)
BAD_DOC = '{"r": 3, "beta": ["2/3", "1/3"], "gamma": ["1/3", "1/7", "-1/2"]}\n'
UNKNOWN_DOC = '{"r": 2, "beta": ["1/2"], "gamma": ["0", "0"], "extra": 1}\n'

FIG1_COMPONENT_RANGE = "error: --component must be in 1..2 (the attractor has 2 components)\n"

class Text(str):
    """A str subclass that is no report Fragment."""


RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, doc in [("fig1", FIG1_DOC), ("ghost", GHOST_DOC),
                      ("bad", BAD_DOC), ("unknown", UNKNOWN_DOC)]:
        p = tmp_path / f"{name}.json"
        p.write_text(doc)
        paths[name] = str(p)
    return paths


class TestAnalyze:
    def test_report_contents(self, files, capsys):
        assert main(["analyze", files["fig1"], "--json-only"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["header"]["tool"] == "itmlab"
        assert doc["map"]["Q"] == 42
        assert doc["attractor"]["components"] == [["1/6", "13/42"], ["1/2", "17/21"]]
        assert doc["attractor"]["stabilization_step"] == 3
        assert doc["stability"]["stable"] is True
        assert doc["return_maps"][1]["touching_values"] == ["9/14"]
        assert all(v["lin_dep_pattern"] == "holds" for v in doc["vectors"])

    def test_deterministic_bytes(self, files, capsys):
        main(["analyze", files["fig1"], "--json-only"])
        first = capsys.readouterr().out
        main(["analyze", files["fig1"], "--json-only"])
        assert capsys.readouterr().out == first

    def test_summary_on_stderr(self, files, capsys):
        main(["analyze", files["fig1"]])
        err = capsys.readouterr().err
        assert "stable: True" in err

    def test_rationals_round_trip(self, files, capsys):
        main(["analyze", files["fig1"], "--json-only"])
        doc = json.loads(capsys.readouterr().out)

        def walk(node):
            if isinstance(node, str) and RATIONAL.match(node):
                assert str(parse_rational(node)) == node
            elif isinstance(node, list):
                for x in node:
                    walk(x)
            elif isinstance(node, dict):
                for x in node.values():
                    walk(x)

        walk(doc)

    def test_bad_order_exit_2(self, files, capsys):
        assert main(["analyze", files["bad"]]) == 2
        assert "BadOrder" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, files, capsys):
        assert main(["analyze", files["unknown"]]) == 2
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("[" * 100_000 + "]" * 100_000, "invalid JSON"),
        ('{"r": ' + "9" * 5000 + ', "beta": [], "gamma": []}', "invalid JSON"),
        ('{"r": 2, "beta": ["1/2\\n"], "gamma": ["0", "0"]}', "not a rational literal"),
        # json.loads alone would keep r = 3 and report a count mismatch
        ('{"r": 2, "beta": ["1/2"], "gamma": ["1/2", "-1/2"], "r": 3}',
         "invalid JSON: key 'r' appears more than once in an object"),
        ("[1, 2]", "map specification must be a JSON object"),
    ], ids=["nested-arrays", "long-integer", "trailing-newline", "repeated-key", "array"])
    def test_hostile_input_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MapFormatError: ") and message in err

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", "/nonexistent/map.json"]) == 2

    def test_directory_exit_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "must be a readable file" in capsys.readouterr().err

    def test_unreadable_file_exit_2(self, files, capsys, monkeypatch):
        # permission bits do not stop a superuser, so the denial is injected
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr("itmlab.cli.open", denied, raising=False)
        assert main(["analyze", files["fig1"]]) == 2
        err = capsys.readouterr().err
        assert "must be a readable file" in err and "Permission denied" in err

    @pytest.mark.parametrize("command", [[], ["--eps", "1/1000", "--samples", "2"]],
                             ids=["analyze", "probe"])
    def test_out_directory_exit_2(self, files, tmp_path, capsys, command):
        name = "probe" if command else "analyze"
        assert main([name, files["fig1"], *command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "must be a writable file path" in err

    @pytest.mark.parametrize("command", [[], ["--eps", "1/1000", "--samples", "2"]],
                             ids=["analyze", "probe"])
    def test_out_missing_parent_exit_2(self, files, tmp_path, capsys, command):
        name = "probe" if command else "analyze"
        out = tmp_path / "missing" / "report.json"
        assert main([name, files["fig1"], *command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "No such file or directory" in err
        assert not out.parent.exists()

    def test_max_iter_marks_capped(self, files, capsys):
        assert main(["analyze", files["fig1"], "--max-iter", "2", "--json-only"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["attractor"]["infinite_type_suspected"] is True
        assert doc["attractor"]["capped"] is True
        assert doc["stability"]["stable"] is False

    def test_capped_is_read_off_the_attractor(self, fig1, corpus, tmp_path, capsys):
        # "capped" is "infinite_type_suspected": a cap below step + 1 is
        # reached, and the default cap never is
        for n, m in enumerate([fig1, *corpus]):
            path = tmp_path / f"m{n}.json"
            path.write_text(json.dumps(
                {"r": m.r, "beta": [str(b) for b in m.beta], "gamma": [str(g) for g in m.gamma]}))
            step = full_analysis(m).attractor.stabilization_step
            for max_iter in sorted({1, step, step + 1} - {0}) + [None]:
                cap = [] if max_iter is None else ["--max-iter", str(max_iter)]
                assert main(["analyze", str(path), *cap, "--json-only"]) == 0
                att = json.loads(capsys.readouterr().out)["attractor"]
                expected = max_iter is not None and max_iter < step + 1
                assert att["capped"] is att["infinite_type_suspected"] is expected

    def test_huge_q_exit_2(self, tmp_path, capsys):
        # each literal is under the int-to-str digit limit, but their lcm Q
        # is not, so a report could not write it out
        n = 10**3000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"r": 2, "beta": ["1/2"], "gamma": [f"1/{n + 1}", f"-1/{n + 3}"]}))
        assert main(["analyze", str(path), "--max-iter", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MapFormatError: ")
        assert f"at most {sys.get_int_max_str_digits()} decimal digits" in err

    def test_max_iter_zero_exit_2(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", files["fig1"], "--max-iter", "0"])
        assert exc.value.code == 2
        assert "max_iter >= 1" in capsys.readouterr().err

    def test_max_iter_non_ascii_digit_exit_2(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", files["fig1"], "--max-iter", "\u00b2"])
        assert exc.value.code == 2
        assert "max_iter >= 1 required" in capsys.readouterr().err


class TestProbeCommand:
    def test_probe_section(self, files, capsys):
        rc = main(["probe", files["fig1"], "--eps", "1/1000", "--samples", "10",
                   "--seed", "7", "--json-only"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["header"]["probe"]["seed"] == 7
        assert doc["header"]["probe"]["lcg"] == {
            "a": 1664525, "c": 1013904223, "m": 2**32}
        assert doc["probe"]["accepted"] == 10
        assert doc["probe"]["all_signatures_match"] is True

    def test_probe_deterministic(self, files, capsys):
        args = ["probe", files["fig1"], "--eps", "1/1000", "--samples", "8",
                "--seed", "3", "--json-only"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_zero_samples_exit_2(self, files, capsys):
        assert main(["probe", files["fig1"], "--eps", "1/1000",
                     "--samples", "0"]) == 2
        assert capsys.readouterr().err == "error: --samples must be >= 1\n"

    @pytest.mark.parametrize("option,value", [
        ("--samples", "\u0663"),  # an Arabic-Indic three, which int() reads as 3
        ("--samples", "1_0"),
        ("--samples", "+3"),
        ("--seed", "\u0663"),
        ("--seed", "--5"),
        ("--seed", "-"),
    ])
    def test_integer_options_take_ascii_digits_only(self, files, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["probe", files["fig1"], "--eps", "1/1000", "--samples", "2", option, value])
        assert exc.value.code == 2
        assert f"argument {option}: " in capsys.readouterr().err

    def test_negative_seed(self, files, capsys):
        assert main(["probe", files["fig1"], "--eps", "1/1000", "--samples", "2",
                     "--seed", "-5", "--json-only"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["header"]["probe"]["seed"] == doc["probe"]["seed"] == -5

    def test_bad_eps_exit_2(self, files, capsys):
        assert main(["probe", files["fig1"], "--eps", "0"]) == 2
        assert capsys.readouterr().err == "error: --eps must be a positive rational\n"
        assert main(["probe", files["fig1"], "--eps", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: --eps: ")

    def test_directed_on_ghost_map(self, files, capsys):
        rc = main(["probe", files["ghost"], "--eps", "1/4096", "--directed",
                   "--json-only"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        dd = doc["directed_perturbation"]
        assert dd["period"] == 2
        assert dd["deltas"][0] == "1/4096"
        assert dd["deltas"][2] == "-1/4096"
        assert dd["predicted_interval"] == ["511/4096", "1/8"]
        assert ["511/4096", "1/8"] in dd["perturbed_components"]

    @pytest.mark.parametrize("option,value", [("--samples", "5"), ("--seed", "0")])
    def test_directed_with_sampling_option_exit_2(self, files, capsys, option, value):
        assert main(["probe", files["ghost"], "--eps", "1/4096", "--directed", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --samples and --seed apply to random probes, not to --directed\n")

    def test_sampling_defaults(self, files, capsys, monkeypatch):
        import itmlab.cli

        calls = []

        def probe(m, eps, samples, seed):
            calls.append((samples, seed))
            return perturbation_probe(m, eps, 2, seed)

        monkeypatch.setattr(itmlab.cli, "perturbation_probe", probe)
        assert main(["probe", files["fig1"], "--eps", "1/1000", "--json-only"]) == 0
        assert json.loads(capsys.readouterr().out)["header"]["probe"]["seed"] == 0
        assert calls == [(100, 0)]

    def test_directed_on_stable_map_exit_3(self, files, capsys):
        assert main(["probe", files["fig1"], "--eps", "1/4096",
                     "--directed"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: NotRealizableDirectlyError: A3 holds: there is no ghost cycle to break\n")

    def test_probe_grid_digit_limit_exit_2(self, files, tmp_path, capsys):
        # each distance is p/q with q dividing 2 lcm(Q, 1024 den(eps)); for
        # fig1 (Q = 21) and eps = 1/10**k that is 43008 * 10**k, k + 5 digits
        limit = sys.get_int_max_str_digits()
        a3 = tmp_path / "a3.json"
        a3.write_text(A3_DOC)
        k = limit - 5
        assert main(["probe", files["fig1"], "--eps", f"1/{10**k}", "--samples", "3",
                     "--json-only"]) == 0
        records = json.loads(capsys.readouterr().out)["probe"]["records"]
        assert limit - 5 < max(len(rec["hausdorff"].partition("/")[2]) for rec in records) <= limit
        # one digit more for fig1; the limit's own eps for both maps
        for path, eps in ((files["fig1"], 10**(k + 1)), (files["fig1"], 10**(limit - 1)),
                          (str(a3), 10**(limit - 1))):
            assert main(["probe", path, "--eps", f"1/{eps}", "--samples", "3"]) == 2
            assert capsys.readouterr() == ("", (
                "error: --eps: twice the probe grid, 2 lcm(Q, 1024 den(eps)), must have "
                f"at most {limit} decimal digits (sys.get_int_max_str_digits())\n"))

    def test_directed_grid_digit_limit_exit_2(self, tmp_path, capsys):
        # the directed deltas of the A3 example are +-eps, so every value it
        # writes is p/q with q dividing lcm(8, den(eps))
        limit = sys.get_int_max_str_digits()
        a3 = tmp_path / "a3.json"
        a3.write_text(A3_DOC)
        assert main(["probe", str(a3), "--eps", f"1/{10**(limit - 1)}", "--directed",
                     "--json-only"]) == 0
        directed = json.loads(capsys.readouterr().out)["directed_perturbation"]
        assert directed["epsilon"] == f"1/{10**(limit - 1)}"
        # 8 (10**limit - 1) has one digit more than the limit
        assert main(["probe", str(a3), "--eps", f"1/{10**limit - 1}", "--directed"]) == 2
        assert capsys.readouterr() == ("", (
            "error: --eps: the grid lcm(Q, Q') of the map and the perturbed map must have "
            f"at most {limit} decimal digits (sys.get_int_max_str_digits())\n"))

    def test_degenerate_probe_exit_3(self, files, capsys):
        # every draw of this seed leaves the polytope
        assert main(["probe", files["fig1"], "--eps", "100",
                     "--samples", "2", "--seed", "12"]) == 3


class TestRenderCommand:
    def test_map_svg(self, files, tmp_path):
        out = tmp_path / "m.svg"
        assert main(["render", files["fig1"], "--kind", "map",
                     "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert svg.count('stroke-width="2.5"') == 3  # one segment per branch

    def test_orbit_svg(self, files, tmp_path):
        out = tmp_path / "o.svg"
        assert main(["render", files["fig1"], "--kind", "orbit",
                     "--component", "2", "--out", str(out)]) == 0
        assert "<rect" in out.read_text()

    def test_byte_identical(self, files, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", files["fig1"], "--kind", "map", "--out", str(a)])
        main(["render", files["fig1"], "--kind", "map", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_component_exit_2(self, files, capsys):
        for k in ("0", "3"):  # fig1 has two components
            assert main(["render", files["fig1"], "--kind", "orbit",
                         "--component", k]) == 2
            assert capsys.readouterr().err == FIG1_COMPONENT_RANGE

    def test_capped_orbit_render_exit_2(self, files, capsys):
        # render runs the uncapped analysis: it has no --max-iter
        with pytest.raises(SystemExit) as exc:
            main(["render", files["fig1"], "--kind", "orbit", "--component", "1",
                  "--max-iter", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-iter 2" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [("--component", "1"), ("--max-iter", "5")])
    def test_map_render_with_orbit_option_exit_2(self, files, tmp_path, capsys, option, value):
        out = tmp_path / "m.svg"
        argv = ["render", files["fig1"], option, value, "--out", str(out)]
        if option == "--component":
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "error: --component applies to --kind orbit only\n")
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --max-iter 5" in capsys.readouterr().err
        assert not out.exists()

    def test_orbit_render_default_component(self, files, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", files["fig1"], "--kind", "orbit", "--out", str(a)]) == 0
        assert main(["render", files["fig1"], "--kind", "orbit", "--component", "1",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_orbit_render_functions_directly(self, fig1, files, tmp_path):
        assert render_map(fig1).startswith("<svg")
        out = tmp_path / "o.svg"
        assert main(["render", files["fig1"], "--kind", "orbit", "--component", "2",
                     "--out", str(out)]) == 0
        data = full_analysis(fig1).return_maps[1]  # return times (1, 2): 2 + 3 bars
        svg = render_orbit(data)
        assert svg == out.read_text() and svg.count('fill-opacity="0.55"') == 5


class TestDumpCommands:
    def test_ghost_tree_dump(self, files, capsys):
        rc = main(["ghost-tree", files["ghost"], "--root", "1-", "--depth", "4"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ghost"]["a3"]["holds"] is False
        assert doc["tree"]["levels"][0] == [[1, "-"]]
        assert [2, [1, "-"]] in doc["tree"]["repeated"]

    def test_ghost_tree_builds_one_graph(self, files, capsys, monkeypatch):
        import itmlab.ghost
        import itmlab.stability

        calls = []

        def counting(real):
            def build_ghost_graph(*args):
                calls.append(args)
                return real(*args)
            return build_ghost_graph

        for module in (itmlab.ghost, itmlab.stability):
            monkeypatch.setattr(module, "build_ghost_graph", counting(module.build_ghost_graph))
        assert main(["ghost-tree", files["ghost"], "--root", "2+", "--depth", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["tree"]["root"] == [2, "+"]
        assert len(calls) == 1

    def test_return_maps_built_only_where_reported(self, files, capsys, monkeypatch):
        # --directed reports the base map's return maps and only the
        # perturbed map's attractor; ghost-tree reports no return map
        import itmlab.stability

        calls = []
        real = itmlab.stability.compute_return_map

        def counting(J, attractor):
            calls.append(attractor.grid)
            return real(J, attractor)

        monkeypatch.setattr(itmlab.stability, "compute_return_map", counting)
        assert main(["probe", files["ghost"], "--eps", "1/4096", "--directed", "--json-only"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == len(doc["return_maps"]) == len(doc["attractor"]["components"])
        assert set(calls) == {parse_map(json.loads(GHOST_DOC)).grid}
        calls.clear()
        assert main(["ghost-tree", files["ghost"], "--root", "1-"]) == 0
        assert calls == []

    def test_ghost_tree_bad_root(self, files, capsys):
        assert main(["ghost-tree", files["ghost"], "--root", "9+"]) == 2
        assert capsys.readouterr().err == (
            "error: --root: discontinuity index 9 out of range 1..3\n")
        assert main(["ghost-tree", files["ghost"], "--root", "x"]) == 2
        assert main(["ghost-tree", files["ghost"], "--root", ""]) == 2
        assert capsys.readouterr().err.count("bad signed discontinuity") == 2

    def test_ghost_tree_non_ascii_root_exit_2(self, files, capsys):
        assert main(["ghost-tree", files["ghost"], "--root", "\u00b2+"]) == 2
        assert "expected like '1+'" in capsys.readouterr().err

    def test_ghost_tree_non_ascii_depth_exit_2(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ghost-tree", files["ghost"], "--root", "1+", "--depth", "\u0663"])
        assert exc.value.code == 2
        assert "argument --depth: ASCII digits required, got '\u0663'" in capsys.readouterr().err

    def test_ghost_tree_negative_depth_exit_2(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ghost-tree", files["ghost"], "--root", "1+", "--depth", "-1"])
        assert exc.value.code == 2
        assert "argument --depth: ASCII digits required, got '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", ["65", "100000000"])
    def test_ghost_tree_depth_above_bound_exit_2(self, files, capsys, depth):
        # r = 4: the 6 signed discontinuities give fewer than 2**6 = 64
        # non-empty levels, so deeper levels only repeat
        assert main(["ghost-tree", files["ghost"], "--root", "1-", "--depth", depth]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: depth must be in 0..2**(2*(r-1)) = 64 for r = 4, got {depth}: "
            "deeper levels only repeat\n")

    def test_ghost_tree_depth_at_bound(self, files, capsys):
        assert main(["ghost-tree", files["ghost"], "--root", "1-", "--depth", "64"]) == 0
        tree = json.loads(capsys.readouterr().out)["tree"]
        assert tree["depth"] == 64 and len(tree["levels"]) == 65

    def test_ghost_tree_depth_without_root_exit_2(self, files, capsys):
        assert main(["ghost-tree", files["ghost"], "--depth", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --depth needs --root (it is the depth of the tree below the root)\n")

    def test_ghost_tree_default_depth(self, files, capsys):
        assert main(["ghost-tree", files["ghost"], "--root", "1-"]) == 0
        assert json.loads(capsys.readouterr().out)["tree"]["depth"] == 4
        assert main(["ghost-tree", files["ghost"]]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["header", "ghost"]

    def test_return_map_dump(self, files, capsys):
        rc = main(["return-map", files["fig1"], "--component", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        rm = doc["return_maps"][0]
        assert rm["cut_points"] == ["1/2", "2/3", "17/21"]
        assert rm["return_times"] == [1, 2]
        assert rm["sigma"] == [2, 1]
        assert rm["classification"] == "rotation_like"

    def test_return_map_dump_all(self, files, capsys):
        assert main(["return-map", files["fig1"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["return_maps"]) == 2

    def test_return_map_bad_component(self, files, capsys):
        for k in ("0", "3", "7"):  # fig1 has two components
            assert main(["return-map", files["fig1"], "--component", k]) == 2
            assert capsys.readouterr().err == FIG1_COMPONENT_RANGE

    @pytest.mark.parametrize("command", [["return-map"], ["render", "--kind", "orbit"]])
    @pytest.mark.parametrize("value", ["\u0661", "+1", "1_0"])
    def test_component_takes_ascii_digits_only(self, files, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([*command, files["fig1"], "--component", value])
        assert exc.value.code == 2
        assert "argument --component: ASCII digits required" in capsys.readouterr().err

    def test_return_map_of_one_component_digest(self, files, capsys):
        assert main(["return-map", files["fig1"], "--component", "1"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "de0a6e9b0c9c932b2fd3cfbbd3f2e1a16ebabbb1d455c1b5f7a91344f6476f68"
        )

    @pytest.mark.parametrize("name", ["fig1", "ghost", "branchy-q1024-13", "branchy-q1024-18"])
    def test_one_component_commands_read_the_analysis(
        self, fig1, ghost_map, branchy_q1024, tmp_path, capsys, name
    ):
        # render --kind orbit and return-map take component K's return map
        # from the analysis, where most are transported from another
        # component: the direct walk of component K is the oracle, and the
        # dump of component K is section K of the whole dump
        m = {"fig1": fig1, "ghost": ghost_map,
             "branchy-q1024-13": branchy_q1024[13], "branchy-q1024-18": branchy_q1024[18]}[name]
        path = tmp_path / "map.json"
        path.write_text(json.dumps(
            {"r": m.r, "beta": [str(b) for b in m.beta], "gamma": [str(g) for g in m.gamma]}))
        att = compute_attractor(m)
        assert main(["return-map", str(path)]) == 0
        sections = json.loads(capsys.readouterr().out)["return_maps"]
        assert len(sections) == len(att.kcomponents)
        svg = tmp_path / "orbit.svg"
        for k, J in enumerate(att.kcomponents, start=1):
            assert main(["render", str(path), "--kind", "orbit", "--component", str(k),
                         "--out", str(svg)]) == 0
            assert svg.read_text() == render_orbit(compute_return_map(J, att))
            assert main(["return-map", str(path), "--component", str(k)]) == 0
            assert json.loads(capsys.readouterr().out)["return_maps"] == [sections[k - 1]]


class TestInProcess:
    @pytest.mark.parametrize("name,args", [
        ("fig1", ["analyze"]),
        ("ghost", ["analyze"]),
        ("fig1", ["analyze", "--max-iter", "1"]),
        ("fig1", ["probe", "--eps", "1/1000", "--samples", "5"]),
        ("fig1", ["probe", "--eps", "1/5", "--samples", "20", "--seed", "1"]),
    ])
    def test_json_only_out_writes_nothing_to_stdout(self, files, tmp_path, capfd, name, args):
        # how the benchmark calls main: the report goes to the file, main
        # returns 0 rather than raising, and neither stream gets a byte
        out = tmp_path / "report.json"
        argv = [args[0], files[name], *args[1:], "--json-only", "--out", str(out)]
        assert main(argv) == 0
        assert capfd.readouterr() == ("", "")
        assert json.loads(out.read_text())["header"]["tool"] == "itmlab"

    @pytest.mark.parametrize("name,args", [
        ("fig1", ["analyze"]),
        ("fig1", ["probe", "--eps", "1/1000", "--samples", "5"]),
        ("ghost", ["probe", "--eps", "1/4096", "--directed"]),
        ("fig1", ["render", "--kind", "map"]),
        ("fig1", ["render", "--kind", "orbit"]),
        ("fig1", ["ghost-tree", "--root", "1+"]),
        ("fig1", ["return-map"]),
    ])
    def test_stdout_and_out_get_the_same_bytes(self, files, tmp_path, capsys, name, args):
        # main writes every command's text once, to --out or to stdout
        argv = [args[0], files[name], *args[1:]]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode("utf-8") != b""

    def test_repeated_main_calls_share_one_parser(self, files, capsys):
        # the parser is built once per process and parsing leaves it as it
        # was: analyze, probe, a usage error, then analyze again
        assert main(["analyze", files["fig1"], "--json-only"]) == 0
        first = capsys.readouterr().out
        assert json.loads(first)["stability"]["stable"] is True
        assert main(["probe", files["fig1"], "--eps", "1/1000", "--samples", "4",
                     "--seed", "2", "--json-only"]) == 0
        assert json.loads(capsys.readouterr().out)["probe"]["accepted"] == 4
        with pytest.raises(SystemExit) as exc:
            main(["analyze", files["fig1"], "--max-iter", "x"])
        assert exc.value.code == 2
        assert "max_iter >= 1" in capsys.readouterr().err
        assert main(["analyze", files["fig1"], "--json-only"]) == 0
        assert capsys.readouterr().out == first
        assert make_parser() is make_parser()


class TestReportApi:
    def test_build_report_structure(self, fig1):
        doc = build_report(full_analysis(fig1), digest="x" * 64)
        assert all(
            type(v) is Fragment or all(type(f) is ListItem for f in v) for v in doc.values()
        )
        assert [k for k, v in doc.items() if type(v) is list] == ["return_maps", "vectors"]
        parsed = json.loads(render_document(doc))
        assert list(parsed) == [
            "header", "map", "attractor", "return_maps", "vectors",
            "ghost", "stability",
        ]

    # each case is (writer, document): json_fragment takes values of no
    # fixed shape, render_document a dict of fragments and lists of list items
    @pytest.mark.parametrize("doc", [
        (json_fragment, {"x": 0.5}),
        (render_document, {"x": F(1, 2)}),  # a value that is no fragment
        (json_fragment, {"x": {1, 2}}),
        (render_document, {1: Fragment('"a"')}),
        (json_fragment, {"x": [{None: 1}]}),
        (json_fragment, {"a": 1, 2: 3}),  # a non-str key after a str key
        (json_fragment, [{"a": 1}, {"a": 2, None: 3}]),
        (json_fragment, {"a": {"a": {"a": 0.5}}}),  # the same key at several depths
        (json_fragment, [1, "x", {"y": [2, None]}, 0.5]),  # scalars mixed with containers
        (render_document, {"s": [ListItem('"a"'), ListItem('"b"'), F(1, 2)]}),
        (render_document, {"s": (ListItem("1"), ListItem("2"))}),  # a tuple is no list
        (render_document, {"x": Text("a")}),  # a str subclass that is no Fragment
        (json_fragment, [Text("a")]),
        (render_document, {"x": '"a"'}),  # a plain str
        (json_fragment, {"x": Fragment("1")}),  # a fragment is no plain value
        (json_fragment, {"x": float("nan")}),
        (json_fragment, {"x": True, "y": b"1"}),
        (render_document, {"a": Fragment("1"), (1, 2): Fragment("2")}),
        (render_document, {"s": [ListItem("1"), Fragment("2")]}),  # a depth-0 fragment in a list
        (render_document, {"s": ListItem("1")}),  # a list item outside a list
        (render_document, {"s": ['"a"']}),  # a plain str in a list
    ])
    def test_render_rejects_non_json_types(self, doc):
        write, value = doc
        with pytest.raises(TypeError):
            write(value)

    def test_report_builds_no_fraction_view(self, fig1, corpus):
        """The report formats every rational from its integer numerator:
        no Fraction view of X, of the cut points or of the images is built,
        and the products and touching values are integer numerators."""
        for m in [fig1, *corpus]:
            analysis = full_analysis(m)
            render_document(build_report(analysis, digest="x" * 64))
            assert "X" not in analysis.attractor.__dict__
            for data in analysis.return_maps:
                assert "cut_points" not in data.__dict__
                assert "images" not in data.__dict__
                values = verify_identities(data, build_vectors(data)) + verify_touching_equations(data)
                assert all(type(k) is int for k in values)

    def test_sections_match_dict_oracles(self, fig1, corpus, corpus_q1024, branchy_q1024):
        """Every component's return-map and vectors section is the
        ``json.dumps(indent=2)`` text of the dict the oracle builds, at the
        depth of an item of a top-level list, and renders as that dict."""
        for m in [fig1, *corpus, *corpus_q1024, *branchy_q1024]:
            for k, data in enumerate(full_analysis(m).return_maps, start=1):
                for section, oracle in ((return_map_section, naive_return_map_section),
                                        (vectors_section, naive_vectors_section)):
                    item, expected = section(data, k), oracle(m, data, k)
                    assert type(item) is ListItem
                    assert json.loads(item) == expected
                    assert item == json.dumps(expected, indent=2).replace("\n", "\n    ")
                    assert render_document({"s": [item, item]}) == json.dumps(
                        {"s": [expected, expected]}, indent=2) + "\n"

    def test_template_caches_keep_report_bytes(self, corpus, branchy_q1024):
        """The reports of the ``corpus`` and ``branchy-q1024`` maps have the
        same bytes rendered in either order and from cold template caches,
        and the 444 branchy components build one return-map template per
        shape (their chains' hit counts) and one vectors template per tag
        sequence and r."""
        from itmlab.report import _return_map_template, _vectors_template

        caches = (_return_map_template, _vectors_template)
        analyses = [full_analysis(m) for m in [*corpus, *branchy_q1024]]
        branchy = range(len(corpus), len(analyses))

        def reports(order):
            return {i: render_document(build_report(analyses[i], "x" * 64)) for i in order}

        first = reports(range(len(analyses)))
        assert reports(reversed(range(len(analyses)))) == first
        for cache in caches:
            cache.cache_clear()
        assert reports(branchy) == {i: first[i] for i in branchy}
        components = [(data, analyses[i].map.r) for i in branchy for data in analyses[i].return_maps]
        assert len(components) == 444
        hits = {tuple(len(c.hits) for c in data.chains) for data, _ in components}
        tags = {(tuple(v.tag for v in build_vectors(data)), r) for data, r in components}
        assert _return_map_template.cache_info().misses == len(hits) == 14
        assert _vectors_template.cache_info().misses == len(tags) == 21
        for cache in caches:
            cache.cache_clear()
        assert reports(reversed(range(len(analyses)))) == first

    @staticmethod
    def assert_matches(section, expected):
        """``section`` is the ``json.dumps(indent=2)`` text of ``expected``,
        renders as that value in a one-key document, and is refused as an
        item of a list."""
        assert type(section) is Fragment
        assert section == json.dumps(expected, indent=2)
        assert render_document({"s": section}) == json.dumps({"s": expected}, indent=2) + "\n"
        with pytest.raises(TypeError):
            render_document({"s": [section]})

    def test_small_sections_match_dict_oracles(
        self, fig1, ghost_map, corpus, corpus_q1024, branchy_q1024
    ):
        """The header, map, attractor, ghost and stability fragments are the
        ``json.dumps(indent=2)`` text of the dicts the oracles build."""
        seen = {"inside": 0, "boundary": 0, "edges": 0, "uncapped": 0, "a3": 0, "witness": 0}
        for m in [fig1, ghost_map, *corpus, *corpus_q1024, *branchy_q1024]:
            analysis = full_analysis(m)
            att = analysis.attractor
            self.assert_matches(header_section("x" * 64), naive_header_section("x" * 64))
            self.assert_matches(header_section('"\\\u00e9\n'), naive_header_section('"\\\u00e9\n'))
            self.assert_matches(map_section(m), naive_map_section(m))
            self.assert_matches(attractor_section(att), naive_attractor_section(att))
            self.assert_matches(ghost_section(analysis.ghost_graph, analysis.a3),
                                naive_ghost_section(analysis.ghost_graph, analysis.a3))
            self.assert_matches(stability_section(analysis),
                                naive_stability_section(analysis))
            seen["inside"] += bool(att.discontinuities_inside)
            seen["boundary"] += bool(att.boundary_hits)
            seen["edges"] += bool(analysis.ghost_graph.edges)
            seen["uncapped"] += att.stabilization_step is not None
            seen["a3"] += not analysis.a3.holds
            seen["witness"] += any(
                v.witness for v in (analysis.a1, analysis.a2, analysis.a3, analysis.matching))
        assert min(seen.values()) > 0

    def test_ghost_and_stability_sections_agree_on_a3(self, ghost_map, corpus, branchy_q1024):
        # both sections write the one cached A3 verdict of the analysis
        seen = set()
        for m in [ghost_map, *corpus, *branchy_q1024]:
            analysis = full_analysis(m)
            ghost = json.loads(ghost_section(analysis.ghost_graph, analysis.a3))
            stability = json.loads(stability_section(analysis))
            assert ghost["a3"] == stability["a3"]
            seen.add(ghost["a3"]["holds"])
        assert seen == {True, False}

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_capped_attractor_section_matches_dict_oracle(self, fig1, max_iter):
        analysis = full_analysis(fig1, max_iter)
        att = analysis.attractor
        assert att.stabilization_step is None and att.infinite_type_suspected
        self.assert_matches(attractor_section(att), naive_attractor_section(att, capped=True))
        assert analysis.a1.witness == {"reason": "not finite type"}
        self.assert_matches(stability_section(analysis),
                            naive_stability_section(analysis))

    def test_directed_section_matches_dict_oracle(self, ghost_map):
        dp = a3_breaking_perturbation(full_analysis(ghost_map), F(1, 4096))
        perturbed = full_analysis(apply_spec(ghost_map, dp.spec))
        self.assert_matches(directed_section(dp, perturbed),
                            naive_directed_section(dp, perturbed))

    def test_ghost_tree_document_matches_dict_oracle(self, files, capsys):
        """The whole ``ghost-tree`` document, with ghost edges and a tree
        whose levels repeat, against the oracle's dict."""
        from itmlab.ghost import ghost_tree

        m = parse_map(json.loads(GHOST_DOC))
        analysis = full_analysis(m)
        assert analysis.ghost_graph.edges and not analysis.a3.holds
        tree = ghost_tree(analysis.ghost_graph, (1, "-"), 4)
        expected = {
            "header": {"tool": "itmlab", "input_digest": hashlib.sha256(
                GHOST_DOC.encode()).hexdigest()},
            "ghost": naive_ghost_section(analysis.ghost_graph, analysis.a3),
            "tree": {
                "root": [1, "-"],
                "depth": 4,
                "levels": [[list(v) for v in level] for level in tree.levels],
                "repeated": [[lvl, list(v)] for lvl, v in tree.repeated],
            },
        }
        assert main(["ghost-tree", files["ghost"], "--root", "1-", "--depth", "4"]) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("eps,seed,accepted", [
        (F(1, 1000), 0, 20),  # every draw accepted, every signature matches
        (F(1, 5), 1, 15),  # five rejected draws with null fields, mismatched signatures
    ])
    def test_probe_section_matches_dict_oracle(self, fig1, eps, seed, accepted):
        pr = perturbation_probe(fig1, eps, 20, seed)
        assert pr.accepted == accepted
        self.assert_matches(probe_section(pr), naive_probe_section(pr))
        self.assert_matches(header_section("x" * 64, pr), naive_header_section("x" * 64, pr))

    def test_render_writes_tuples_as_lists(self):
        doc = {"a": (1, ("b", None)), "c": ()}
        assert json_fragment(doc) == json.dumps(doc, indent=2)

    def test_a3_checked_once_per_analyze(self, files, monkeypatch, capsys):
        import itmlab.ghost
        import itmlab.stability

        calls = []

        def counting(real):
            def check_A3(graph):
                calls.append(graph)
                return real(graph)
            return check_A3

        for module in (itmlab.ghost, itmlab.stability):
            monkeypatch.setattr(module, "check_A3", counting(module.check_A3))
        assert main(["analyze", files["fig1"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ghost"]["a3"]["holds"] is True
        assert len(calls) == 1
