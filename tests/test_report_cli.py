"""Report document determinism and the command-line surface."""

from __future__ import annotations

import json
import re
from fractions import Fraction as F

import pytest

from itmlab import full_analysis, parse_rational
from itmlab.cli import main
from itmlab.render import render_map, render_orbit
from itmlab.report import build_report, render_document

FIG1_DOC = '{"r": 3, "beta": ["1/3", "2/3"], "gamma": ["1/3", "1/7", "-1/2"]}\n'
GHOST_DOC = (
    '{"r": 4, "beta": ["1/8", "3/8", "1/2"],'
    ' "gamma": ["1/4", "1/2", "-1/4", "-1/16"]}\n'
)
BAD_DOC = '{"r": 3, "beta": ["2/3", "1/3"], "gamma": ["1/3", "1/7", "-1/2"]}\n'
UNKNOWN_DOC = '{"r": 2, "beta": ["1/2"], "gamma": ["0", "0"], "extra": 1}\n'

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

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", "/nonexistent/map.json"]) == 2

    def test_max_iter_marks_capped(self, files, capsys):
        assert main(["analyze", files["fig1"], "--max-iter", "2", "--json-only"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["attractor"]["infinite_type_suspected"] is True
        assert doc["attractor"]["capped"] is True
        assert doc["stability"]["stable"] is False

    def test_max_iter_zero_exit_2(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", files["fig1"], "--max-iter", "0"])
        assert exc.value.code == 2
        assert "max_iter >= 1" in capsys.readouterr().err


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

    def test_bad_eps_exit_2(self, files):
        assert main(["probe", files["fig1"], "--eps", "0"]) == 2
        assert main(["probe", files["fig1"], "--eps", "0.5"]) == 2

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

    def test_directed_on_stable_map_exit_3(self, files, capsys):
        assert main(["probe", files["fig1"], "--eps", "1/4096",
                     "--directed"]) == 3

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
        assert main(["render", files["fig1"], "--kind", "orbit",
                     "--component", "5"]) == 2

    def test_capped_orbit_render_exit_2(self, files, capsys):
        rc = main(["render", files["fig1"], "--kind", "orbit",
                   "--component", "1", "--max-iter", "2"])
        assert rc == 2
        assert "infinite type suspected" in capsys.readouterr().err

    def test_orbit_render_functions_directly(self, fig1):
        assert render_map(fig1).startswith("<svg")
        assert render_orbit(fig1, 1).startswith("<svg")
        with pytest.raises(ValueError):
            render_orbit(fig1, 9)


class TestDumpCommands:
    def test_ghost_tree_dump(self, files, capsys):
        rc = main(["ghost-tree", files["ghost"], "--root", "1-", "--depth", "4"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ghost"]["a3"]["holds"] is False
        assert doc["tree"]["levels"][0] == [[1, "-"]]
        assert [2, [1, "-"]] in doc["tree"]["repeated"]

    def test_ghost_tree_bad_root(self, files, capsys):
        assert main(["ghost-tree", files["ghost"], "--root", "9+"]) == 2
        assert main(["ghost-tree", files["ghost"], "--root", "x"]) == 2

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
        assert main(["return-map", files["fig1"], "--component", "7"]) == 2


class TestReportApi:
    def test_build_report_structure(self, fig1):
        doc = build_report(full_analysis(fig1), digest="x" * 64)
        text = render_document(doc)
        parsed = json.loads(text)
        assert list(parsed) == [
            "header", "map", "attractor", "return_maps", "vectors",
            "ghost", "stability",
        ]
