"""Golden reports: the sha256 of every report byte stream is pinned.

Each case writes its map file in one fixed byte format (the input digest
enters the report), runs the command line in process and hashes the
output file. The digests were recorded from ``json.dumps(doc, indent=2)``
output, so they also pin the report writer byte for byte.

The corpus maps are ``corpus[:10]`` for ``analyze``; ``probe`` runs on
eleven corpus maps whose 20-sample probes finish in milliseconds (maps 3
and 10 take 11 s and 34 s at eps 1/1000 and are left out). Map 1 is in
because only the samples whose component count matches the base map's
build return maps; its digest was recorded when every sample built them.

Three larger maps pin ``analyze`` beyond Q <= 64: maps 13 (r = 6,
Q = 570) and 18 (r = 8, Q = 615) of the ``branchy-q1024`` bench workload
and map 7 of ``corpus_q1024`` (r = 3, Q = 748). Map 13 violates A1 and
A2 and map 18 violates Matching, so their reports carry verdict witnesses.
``return-map`` also runs on map 13, whole and for ``--component 28``: of
its 28 components 25 are transported along towers, and some chains hit two
discontinuities, where fig1 has two walked components with one-hit chains.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from itmlab.cli import main

CORPUS_ANALYZE = tuple(range(10))
CORPUS_PROBE = (0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 13)
BRANCHY_ANALYZE = (13, 18)
PROBE_ARGS = ("--eps", "1/1000", "--samples", "20", "--seed", "5")

GOLDEN = {
    "analyze fig1": "811d41ec22e8c34ca3a31f5181e243225bca3e98b04ca1bd0a1217c9a0f86f55",
    "probe fig1": "4de0411902c079cf3725e1073d90e36941a0b9461eb27dee0f6f0e92b61b5c40",
    "analyze ghost": "fa33f706f277f58a8f168156610079159df42f1aa612f28907addd4cbfafa027",
    "probe ghost": "d6e76426d49208102c413ab48f223e5fb7dc9f197b3b5451c0a8f552bde9a1b2",
    "probe --directed ghost": "ffda2f4f46a5f53a56f531428d05b1c8b7099bf519bf142c8c3c38a7527ac8f0",
    "ghost-tree ghost": "ce31e8cd0c021719515d7c31dbb402d1a0d939d6c07073531be84cdcd68bb42f",
    "return-map fig1": "34c3417a8056d8f96d436532771bf8602bcf5decc1933b9824c851fa60fb031d",
    "analyze corpus-0": "c1e8d1ffe0e04730c141c9928a3cbeaec9b759974bb86966693b919ffb642091",
    "analyze corpus-1": "4247a6d7181dbd3a61f812a5e950ccbf1161f19be9695d7dc8cc5d8df845677f",
    "analyze corpus-2": "c618f15f31034ad2691e808d7454312d2aa2eac0d3af6fba0f2b027d87158de9",
    "analyze corpus-3": "23d026b9763e246df4090c947d18fa6f20bce07a7475a76e4eaad7fd11182094",
    "analyze corpus-4": "6a4bc2a06364fd6fc4b30c060c499f32bf48dcd0cc2e6ad66b8cc58237ee8592",
    "analyze corpus-5": "64c8ee6935b2d3c3ada589b6463f52af855667ebcb69a25d1108e6f280e7a205",
    "analyze corpus-6": "d72a940ba86d82c6eee01f6ba1f3461ffd6efea6c044208e7d83a332ab7e1932",
    "analyze corpus-7": "d1a6b477d2c15fd01dd406e9e49a1fd1f1b9950e1db61adc6d19cef69804476f",
    "analyze corpus-8": "6e43812e2bcf0c08b097785585dbfb31361b13d749d0f2b9188a141ef6fd08ba",
    "analyze corpus-9": "cd4f4a7516940c812b84a826672fab2b66d0331accaa30eb3d9146ef9433ac9d",
    "probe corpus-0": "c13a0d8a1ee3dc9d942cd4a40cbf4ac9c30e2e06635e12aa66808a485d881acb",
    "probe corpus-1": "6e9c5fc0fd38af1628aa244e4284de7922ea0c83b5bab6de657590d786070798",
    "probe corpus-2": "f618fd15c69cb1fbcc902db10a28953139d0cfd66ed9c42541b13d091e417e24",
    "probe corpus-4": "1428c9ea232b91f5b9b3f543322cc94102437a427c973665e43fd831cccf2a39",
    "probe corpus-5": "abadfde22a5afeb947e0a353b3f2fc12eb0366da073ed2dfb7b0b8209f2c9804",
    "probe corpus-6": "06226b899396821edea144746841b4b18bd1a61336cf0d4129346d869c72e5a5",
    "probe corpus-7": "e9e0d573b4f16f59a692621a9c6e834937a407eedeca57b663dfe94c755777b3",
    "probe corpus-8": "3160c7e37f83ffebd5d1a14a11483cd713a8350c442c01d16001c87fd9372e9d",
    "probe corpus-9": "2ca2b258ff66046db179956ef1dbb5c93b62d45048231412522e15d351f842c4",
    "probe corpus-11": "04ba39017da2a463653e11781183506dbac7cbfc818d3d6daad05fa56c0cabc9",
    "probe corpus-13": "383e31552e9d8b87b98f4be3020623753f0010c21e9c8a13853ea4be2b71501b",
    "analyze branchy-q1024-13": "6266f364832ae5f8ae536a8fa5297fefc2aa487c835c61b48ecdd48d26d34d38",
    "analyze branchy-q1024-18": "074bc93743bd90817434148f4ef5c5126e2a029e0232cf87eac0d547b95c8a61",
    "analyze corpus-q1024-7": "6e958d7770d1eb5ea40d77976526465ab8d6dccd2fac50555d2ab3f7f6891419",
    "return-map branchy-q1024-13": "9bcc186e39953086ad28ed8532388cad0f1cdcc4ca16d438fd029fde2c98529b",
    "return-map --component 28 branchy-q1024-13":
        "7b0d04c7a35e8b0be302746156a8f77fe7aa201dbd7cc080cd83fdf1a897e63f",
}


def map_bytes(m) -> bytes:
    spec = {"r": m.r, "beta": [str(b) for b in m.beta], "gamma": [str(g) for g in m.gamma]}
    return (json.dumps(spec) + "\n").encode()


def cases(fig1, ghost, corpus, corpus_q1024, branchy_q1024):
    """(name, map, extra argv) for every golden report."""
    out = [
        ("analyze fig1", fig1, ["analyze"]),
        ("probe fig1", fig1, ["probe", *PROBE_ARGS]),
        ("analyze ghost", ghost, ["analyze"]),
        ("probe ghost", ghost, ["probe", *PROBE_ARGS]),
        ("probe --directed ghost", ghost, ["probe", "--eps", "1/1000", "--directed"]),
        ("ghost-tree ghost", ghost, ["ghost-tree", "--root", "1-", "--depth", "4"]),
        ("return-map fig1", fig1, ["return-map"]),
    ]
    out += [(f"analyze corpus-{i}", corpus[i], ["analyze"]) for i in CORPUS_ANALYZE]
    out += [(f"probe corpus-{i}", corpus[i], ["probe", *PROBE_ARGS]) for i in CORPUS_PROBE]
    out += [(f"analyze branchy-q1024-{i}", branchy_q1024[i], ["analyze"]) for i in BRANCHY_ANALYZE]
    out.append(("analyze corpus-q1024-7", corpus_q1024[7], ["analyze"]))
    out += [
        ("return-map branchy-q1024-13", branchy_q1024[13], ["return-map"]),
        ("return-map --component 28 branchy-q1024-13", branchy_q1024[13],
         ["return-map", "--component", "28"]),
    ]
    return out


def report_bytes(tmp_path, name: str, m, argv: list[str]) -> bytes:
    stem = name.replace(" ", "_")
    src = tmp_path / f"{stem}.json"
    src.write_bytes(map_bytes(m))
    out = tmp_path / f"{stem}.out"
    command, *options = argv
    extra = ["--json-only"] if command in ("analyze", "probe") else []
    assert main([command, str(src), *options, *extra, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def reports(tmp_path_factory, fig1, ghost_map, corpus, corpus_q1024, branchy_q1024):
    """The report bytes of every golden case, by name."""
    tmp_path = tmp_path_factory.mktemp("golden")
    return {
        name: report_bytes(tmp_path, name, m, argv)
        for name, m, argv in cases(fig1, ghost_map, corpus, corpus_q1024, branchy_q1024)
    }


def test_reports_match_golden_digests(reports):
    got = {name: hashlib.sha256(text).hexdigest() for name, text in reports.items()}
    assert got.keys() == GOLDEN.keys()
    assert {k: v for k, v in got.items() if v != GOLDEN[k]} == {}


def no_float(text: str):
    raise AssertionError(f"a report holds the non-integer number {text}")


def test_reports_hold_no_float(tmp_path, reports, corpus, corpus_q1024, branchy_q1024):
    """Every number in a report is an integer and every rational a ``p/q``
    string: every golden report, and the ``analyze`` report of every map of
    ``corpus``, ``corpus_q1024`` and ``branchy_q1024``, parses with no
    float and no NaN or Infinity."""
    texts = list(reports.values())
    for label, maps in (("corpus", corpus), ("corpus-q1024", corpus_q1024),
                        ("branchy-q1024", branchy_q1024)):
        texts += [report_bytes(tmp_path, f"analyze {label}-{i}", m, ["analyze"])
                  for i, m in enumerate(maps)]
    for text in texts:
        json.loads(text, parse_float=no_float, parse_constant=no_float)
