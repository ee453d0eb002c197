"""Oracles for the command-line surface.

Expected values are hand-derived or copied from goldens that the module
test files pin independently: the a2 reflection matrix at q=-1 from
test_lattice, the adjacent-twist complex from test_homotopy, and the
Fibonacci fusion table from test_fusion.  Every command is also run
twice to enforce the byte-identical determinism contract.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from coxtwist import cli, fusion
from coxtwist.cli import read_act_output, run
from coxtwist.coxgraph import parse_graph
from coxtwist.fusion import coxeter_fusion_ring, edge_object
from coxtwist.unfolding import fiber, unfold

from conftest import CORPUS_JSON, graph_json


@pytest.fixture
def gpath(tmp_path):
    def write(name, text=None):
        p = tmp_path / f"{name}.json"
        p.write_text(CORPUS_JSON[name] if text is None else text)
        return str(p)

    return write


def twice(argv):
    first = run(argv)
    second = run(argv)
    assert first == second, "output is not deterministic"
    return first


# ---------------------------------------------------------------- dispatch


def test_no_command_is_usage_error():
    assert run([]).exit_code == 1


def test_module_entry_point_runs_main():
    import coxtwist

    src = os.path.dirname(os.path.dirname(coxtwist.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "coxtwist.cli", "--help"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == run(["--help"]).stdout
    assert "usage" in proc.stdout


def test_import_leaves_numpy_out():
    import coxtwist

    src = os.path.dirname(os.path.dirname(coxtwist.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, coxtwist.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]).exit_code == 1


def test_reused_parser_matches_a_fresh_one(gpath, monkeypatch, capsys):
    a2 = gpath("a2")
    argvs = [
        ["--help"],
        ["roots", a2, "--depth", "0"],
        ["act", a2, "s t", "--on", "s", "--shift", "3"],
        ["act", a2, "s t", "--on", "s"],
    ]
    reused = []
    for argv in argvs:
        reused.append((run(argv), capsys.readouterr().err))
    # the last act starts at shift 0: nothing is left over from the call before
    assert cli._build_parser().parse_args(argvs[-1]).shift == 0
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    for argv, (result, err) in zip(argvs, reused):
        assert run(argv) == result
        assert capsys.readouterr().err == err
    assert reused[0][0].exit_code == 0 and "usage" in reused[0][0].stdout
    assert reused[1][0].exit_code == 1 and "--depth" in reused[1][1]
    assert reused[2][0].stdout != reused[3][0].stdout


def test_unknown_flag_is_usage_error(gpath):
    assert run(["roots", gpath("a2"), "--bogus"]).exit_code == 1


def test_missing_file_is_usage_error(tmp_path):
    res = run(["fusion-table", str(tmp_path / "absent.json")])
    assert res.exit_code == 1


def test_malformed_graph_is_usage_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"vertices": ["s"]}')
    assert run(["fusion-table", str(p)]).exit_code == 1


def test_undecodable_graph_is_input_error(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"vertices": ["s\u00e9"], "edges": []}'.encode("latin-1"))
    assert run(["roots", str(p)]).exit_code == 1


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_deep_graph_is_input_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text(DEEP_JSON)
    assert run(["roots", str(p)]).exit_code == 1


def test_graph_int_over_digit_limit_is_input_error(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text('{"vertices": ["s", "t"], "edges": [{"ends": ["s", "t"], "m": %s}]}' % ("9" * 5001))
    assert run(["roots", str(p)]).exit_code == 1


def test_top_level_help():
    res = run(["--help"])
    assert res.exit_code == 0
    assert "fusion-table" in res.stdout
    assert "check-relations" in res.stdout


def test_per_command_help_mentions_twist_group_caveat():
    res = run(["is-identity", "--help"])
    assert res.exit_code == 0
    assert "twist" in res.stdout
    res = run(["chamber", "--help"])
    assert res.exit_code == 0
    assert "COXTWIST_MAX_ITER" in res.stdout


# ------------------------------------------------------------ fusion-table


def test_fusion_table_golden(gpath):
    res = twice(["fusion-table", gpath("i2_5")])
    assert res.exit_code == 0
    assert res.stdout == (
        "rank: 2\n"
        "simples: Pi0 Pi2\n"
        "fpdim Pi0: 1\n"
        "fpdim Pi2: 1.61803398874989\n"
        "Pi0 * Pi0 = Pi0\n"
        "Pi0 * Pi2 = Pi2\n"
        "Pi2 * Pi0 = Pi2\n"
        "Pi2 * Pi2 = Pi0 + Pi2\n"
    )


def test_fusion_table_trivial_ring(gpath):
    res = twice(["fusion-table", gpath("rank2_inf")])
    assert res.exit_code == 0
    assert "rank: 1\n" in res.stdout
    assert "Pi0 * Pi0 = Pi0\n" in res.stdout


# ------------------------------------------------------------------ unfold


def test_unfold_pentagon_roundtrip(gpath):
    res = twice(["unfold", gpath("i2_5")])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert len(doc["vertices"]) == 4
    g2 = parse_graph(res.stdout)
    assert all(g2.label(*e[:2]) == 3 for e in g2.edges)


def test_unfold_emit_folding(gpath):
    res = twice(["unfold", gpath("i2_4"), "--emit-folding"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert set(doc["folding"].values()) <= {"s", "t"}
    assert sorted(doc["folding"]) == sorted(doc["vertices"])
    # the extra key must not break re-parsing
    g2 = parse_graph(res.stdout)
    assert g2.rank == 6


def test_unfold_keeps_infinite_edges(gpath):
    res = twice(["unfold", gpath("rank2_inf")])
    doc = json.loads(res.stdout)
    assert len(doc["vertices"]) == 2
    assert [e["m"] for e in doc["edges"]] == ["inf"]


# ------------------------------------------------------------- zigzag-info


def test_zigzag_info_a2(gpath):
    res = twice(["zigzag-info", gpath("a2")])
    assert res.exit_code == 0
    assert "vertices: 2\n" in res.stdout
    assert "dimension: 6\n" in res.stdout
    assert "e_s * X_s = X_s\n" in res.stdout
    assert "X_s * X_s" not in res.stdout  # zero products are omitted


def test_zigzag_info_unfolded_labels(gpath):
    res = twice(["zigzag-info", gpath("i2_4")])
    assert res.exit_code == 0
    assert "vertices: 6\n" in res.stdout
    assert "e_(t,Pi1)" in res.stdout and "e_(s,Pi1)" in res.stdout


# ----------------------------------------------------- golden stdout digests

GOLDEN_GRAPHS = {
    **CORPUS_JSON,
    "l579": graph_json("abcd", [("a", "b", 5), ("b", "c", 7), ("c", "d", 9)]),
    "h3": graph_json("abc", [("a", "b", 5), ("b", "c", 3)]),
    "l57911": graph_json(
        "abcde", [("a", "b", 5), ("b", "c", 7), ("c", "d", 9), ("d", "e", 11)]
    ),
}

GOLDEN_ARGV = {
    "fusion-table": ["fusion-table"],
    "unfold": ["unfold", "--emit-folding"],
    "zigzag-info": ["zigzag-info"],
}

# SHA-256 of the full stdout; any byte change in these three commands,
# including the large l579 tables, fails here
GOLDEN_SHA256 = {
    ("a2", "fusion-table"): "c72196643ad4d1c5de3b47cf007239e57e2fd0a71c75e4b3eaa1b9e39db7ea37",
    ("a2", "unfold"): "cfc85dca0f212fabea80fc0e95b8fac603d70e84287da57e14df9a9c77c78537",
    ("a2", "zigzag-info"): "47a5e635cb338defc2fb00ca7213296bfd6b9baad99e801629a8b4cea42c29da",
    ("a3", "fusion-table"): "c72196643ad4d1c5de3b47cf007239e57e2fd0a71c75e4b3eaa1b9e39db7ea37",
    ("a3", "unfold"): "94a880a469ba6f547367ec6307ab72752da9eea9e74fcf2a891843f9efb822db",
    ("a3", "zigzag-info"): "9430ed1e27714614f4265280a0417b3ecfd38558111156d2493bc233f09daa40",
    ("chain45", "fusion-table"): "c7f18b8e2cbed143be8b31a3cb3e4ac68086ef1d8a94e360cc197e1e45848405",
    ("chain45", "unfold"): "e8b5a66a61906a8cac3163e58da79b7a4c7cc9a3a5c75f4fe627a630d5b2f8f5",
    ("chain45", "zigzag-info"): "1f2187920573ab7a8eccfbe39d3517253413e75b30116f3a670ff08bfb6cf259",
    ("g2_affine", "fusion-table"): "ae3c715cdc29b9fba94efc8e504e843e4873b510a30bd796d70bb75280f70505",
    ("g2_affine", "unfold"): "c4ca5ebf9862e19def866016bbcc6aa79ccbd37151320968ce2352050c7c0785",
    ("g2_affine", "zigzag-info"): "468bcdd9c3140d094e95f58d8dab8e21e192265da410d97a2e2994a9e8b9c1bd",
    ("h3", "fusion-table"): "67abf6925852b79e5e32b917da0a99370c78eb6896445de098ed95739ddca8a2",
    ("h3", "unfold"): "f1b7a628e93217d9d14e9375793776079983ef082918eadcd6024f4a3bebd7f5",
    ("h3", "zigzag-info"): "ebc6bb63a97e0d194b8dd142e7d2af70d66bde32f59b71a7fb946952a28a6851",
    ("i2_4", "fusion-table"): "2899c158bb06f4f2dfde70df1a47e23907a1246d2b64149deabd8c16d2b48d86",
    ("i2_4", "unfold"): "382f62bdd9eeb90cf1d43966ecedfac2b95f8dc70f504d600b3700edb8c449a5",
    ("i2_4", "zigzag-info"): "905af8331e90884378713fffeb305452a9d838438be52cd34791a05f76b41b39",
    ("i2_5", "fusion-table"): "f4d4c9f63ed92f615aec2b56aff46e5cdd9fa86447c92b4d9accb6560e0cde15",
    ("i2_5", "unfold"): "b1be9afb3b9d5984ad7b95af07fa4b4fa6d0458111354dd826db543380c6af32",
    ("i2_5", "zigzag-info"): "94d1469c43c55d03afa84ae8cb213579fbfc2c32854eb00dfb544a7a0e713403",
    ("l579", "fusion-table"): "671835614801e57c53a453909f131df2e1506a52147eb303f729818ddd656fe2",
    ("l579", "unfold"): "e0d880b091c71b554b07f2c83502f9ea8296e0e7056e6aad163459895f39bd96",
    ("l579", "zigzag-info"): "f2352f6056b1beea0870fa7cf19cad6d19022f80348b0c2c0c657ed722bc3262",
    ("l57911", "fusion-table"): "ba7a41e81eaab72e9e7c13c2179e9d8a07ae89d5a1a76ee5343956483aa73ac2",
    ("rank2_inf", "fusion-table"): "c72196643ad4d1c5de3b47cf007239e57e2fd0a71c75e4b3eaa1b9e39db7ea37",
    ("rank2_inf", "unfold"): "0b4d36b754702c5de54682b4b99e4aca73e0e0ebc9af19e69e85d9cd3a4d7560",
    ("rank2_inf", "zigzag-info"): "01530a8209550685984abc84fc781edb2225ce1cf0998e64f523f4b34181b97d",
}


@pytest.mark.parametrize("graph, command", sorted(GOLDEN_SHA256))
def test_graph_structure_stdout_digest(gpath, graph, command):
    res = run(GOLDEN_ARGV[command] + [gpath(graph, GOLDEN_GRAPHS[graph])])
    assert res.exit_code == 0
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == GOLDEN_SHA256[graph, command]


def cold_planes(monkeypatch, argv):
    """The exit code of argv, run on a fresh ring cache, and the planes
    of a ring built while it ran."""
    built = []
    build = fusion._plane
    monkeypatch.setattr(
        fusion, "_plane", lambda factors, j: built.append(j) or build(factors, j)
    )
    coxeter_fusion_ring.cache_clear()
    return run(argv).exit_code, sorted(built)


def l57911_reads():
    """The unit and the four edge objects of the 5-7-9-11 chain's ring."""
    g = parse_graph(GOLDEN_GRAPHS["l57911"])
    ring = coxeter_fusion_ring(g)
    reads = {edge_object(g, e).coefficients.index(1) for e in g.edges}
    assert (ring.rank, len(reads)) == (120, 4)
    return reads | {ring.unit_index}


def test_cold_is_identity_builds_only_the_planes_it_reads(gpath, monkeypatch):
    # of the 120 planes of the 5-7-9-11 chain's ring, a word problem
    # reads only the edge objects': the Burau matrix multiplies by the
    # unit (simple 0) as a shift of exponents, without reading its plane
    argv = ["is-identity", gpath("l57911", GOLDEN_GRAPHS["l57911"]), "a c a^-1 c^-1"]
    assert cold_planes(monkeypatch, argv) == (0, sorted(l57911_reads() - {0}))


L57911_CHARGE = {
    "a": [0.3, 1.1], "b": [-0.7, 0.4], "c": [0.2, 0.9], "d": [0.5, 0.6], "e": [-0.1, 1.0]
}


@pytest.mark.parametrize(
    "args, code",
    [
        (["roots", "--depth", "3"], 0),
        (["coxeter-eq", "a b c d e", "e d c b a"], 3),
        (["regular-check", "--depth", "2", "--charge"], 0),
    ],
)
def test_cold_lattice_commands_build_only_the_planes_they_read(
    gpath, tmp_path, monkeypatch, args, code
):
    # a reflection block reads the planes of the unit and the edge
    # objects, and the root walk those of the invertible simples too; the
    # 5-7-9-11 chain has only odd labels, so the unit is its one invertible
    ring = coxeter_fusion_ring(parse_graph(GOLDEN_GRAPHS["l57911"]))
    assert [k for k, d in enumerate(ring.fpdim) if abs(d - 1) <= 1e-12] == [0]
    argv = [args[0], gpath("l57911", GOLDEN_GRAPHS["l57911"]), *args[1:]]
    if args[0] == "regular-check":
        argv.append(charges_file(tmp_path, L57911_CHARGE))
    assert cold_planes(monkeypatch, argv) == (code, sorted(l57911_reads()))


# ------------------------------------------------------------------- burau


def test_burau_laurent_golden(gpath):
    res = twice(["burau", gpath("a2"), "s"])
    assert res.exit_code == 0
    assert res.stdout == (
        "size: 2\n"
        "[0,0] = -q^2*Pi0\n"
        "[0,1] = -q*Pi0\n"
        "[1,0] = 0\n"
        "[1,1] = Pi0\n"
    )


def test_burau_inverse_word_is_identity(gpath):
    res = twice(["burau", gpath("a2"), "s s^-1"])
    assert res.exit_code == 0
    assert res.stdout == (
        "size: 2\n"
        "[0,0] = Pi0\n"
        "[0,1] = 0\n"
        "[1,0] = 0\n"
        "[1,1] = Pi0\n"
    )


def test_burau_q_eval_matches_reflection(gpath):
    res = twice(["burau", gpath("a2"), "s", "--q-eval", "-1"])
    assert res.exit_code == 0
    assert res.stdout == "size: 2\nrow 0: -1 1\nrow 1: 0 1\n"


def test_burau_q_eval_zero_fails(gpath):
    res = run(["burau", gpath("a2"), "s^-1", "--q-eval", "0"])
    assert res.exit_code == 2


def test_burau_bad_word_token(gpath):
    assert run(["burau", gpath("a2"), "s^2"]).exit_code == 1
    assert run(["burau", gpath("a2"), "z"]).exit_code == 1


def unfolded_chain45_json():
    u = unfold(parse_graph(CORPUS_JSON["chain45"])).as_coxeter_graph()
    return graph_json(u.vertices, [(u.vertices[i], u.vertices[j], m) for i, j, m in u.edges])


# SHA-256 of the stdout of `burau`, over the ring and at q = -1, on words
# with inverse letters whose matrices multiply by non-unit simples
BURAU_WORDS = {
    "l579": "a b^-1 c d^-1 b a c^-1 d",
    "unfolded_chain45": "s,Pi0*Pi0 t,Pi1*Pi0^-1 u,Pi1*Pi2 t,Pi1*Pi2 "
    "s,Pi0*Pi2^-1 t,Pi1*Pi0 u,Pi1*Pi0^-1 t,Pi1*Pi2",
    "l57911": "a b^-1 c d e^-1 c",
}
BURAU_SHA256 = {
    ("l579", False): "f7f6eadc444e25abfa85ec21fd1a2e9041e02937fbf6fd539517abc76b47d611",
    ("l579", True): "b33bdf231290db5d43e397eb910a7909adb523e687160abbdf999f77540b42f9",
    ("unfolded_chain45", False): "b5baa8e558af474d50425d16fd38f8652ec6d7ef41682c32748773b250e8e247",
    ("unfolded_chain45", True): "79930de599fdceb3441fff704ee7d07d65eaf2c87f342b61e87c99c908742254",
    ("l57911", False): "89ff7bd1b113c0996d948938233f78f41a803918227bbc4b5f2c5258212901e9",
    ("l57911", True): "af919e880f7598bd2ae5abd7b5afe33306637c8241c6ed51edad8a0d82535f28",
}


@pytest.mark.parametrize("graph, q_eval", sorted(BURAU_SHA256))
def test_burau_stdout_digest(gpath, graph, q_eval):
    text = unfolded_chain45_json() if graph == "unfolded_chain45" else GOLDEN_GRAPHS[graph]
    argv = ["burau", gpath(graph, text), BURAU_WORDS[graph]]
    res = run(argv + (["--q-eval", "-1"] if q_eval else []))
    assert res.exit_code == 0
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == BURAU_SHA256[graph, q_eval]


# ------------------------------------------------------------------- roots


@pytest.mark.parametrize("name,count", [("a2", 3), ("a3", 6), ("i2_5", 5)])
def test_roots_finite_counts(gpath, name, count):
    res = twice(["roots", gpath(name), "--depth", "8"])
    assert res.exit_code == 0
    assert f"count: {count}\n" in res.stdout
    assert "truncated: no\n" in res.stdout


def test_roots_lists_vectors(gpath):
    res = run(["roots", gpath("a2"), "--depth", "8"])
    lines = res.stdout.splitlines()
    assert "root: 1 0" in lines
    assert "root: 0 1" in lines
    assert "root: 1 1" in lines


def test_roots_infinite_is_labeled_truncated(gpath):
    res = twice(["roots", gpath("rank2_inf"), "--depth", "5"])
    assert res.exit_code == 0
    assert "count: 10\n" in res.stdout
    assert "truncated: yes\n" in res.stdout


def test_roots_depth_must_be_positive(gpath):
    assert run(["roots", gpath("a2"), "--depth", "0"]).exit_code == 1


H4_JSON = graph_json("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)])


@pytest.mark.parametrize(
    "depth,count,truncated", [(13, 46, "yes"), (22, 59, "yes"), (23, 60, "no")]
)
def test_roots_h4_walks_once(gpath, monkeypatch, depth, count, truncated):
    # the roots each walk yields to the command, one entry per walk
    calls = []
    real = cli.root_walk

    def spy(*args):
        calls.append(0)
        for item in real(*args):
            calls[-1] += 1
            yield item

    monkeypatch.setattr(cli, "root_walk", spy)
    res = run(["roots", gpath("h4", H4_JSON), "--depth", str(depth)])
    assert res.exit_code == 0
    assert f"count: {count}\n" in res.stdout
    assert f"truncated: {truncated}\n" in res.stdout
    # one walk, read no further than the first root past the depth
    assert calls == [count + (truncated == "yes")]


# ----------------------------------------------------- word-level commands


def test_coxeter_eq(gpath):
    p = gpath("a2")
    assert run(["coxeter-eq", p, "s t s", "--", "t s t"]).exit_code == 0
    res = run(["coxeter-eq", p, "s t", "--", "t s"])
    assert res.exit_code == 3
    assert res.stdout == "not equal\n"


def test_coxeter_eq_rejects_inverses(gpath):
    assert run(["coxeter-eq", gpath("a2"), "s^-1", "--", "s"]).exit_code == 1


def test_word_eq_braid(gpath):
    assert run(["word-eq", gpath("a2"), "s t s", "--", "t s t"]).exit_code == 0
    assert run(["word-eq", gpath("i2_4"), "s t s", "--", "t s t"]).exit_code == 3


def test_is_identity_braid_relator(tmp_path):
    # relator commutator: identity exactly at m=3
    word = "s t s t^-1 s^-1 t^-1"
    p3 = tmp_path / "m3.json"
    p4 = tmp_path / "m4.json"
    p3.write_text(graph_json(["s", "t"], [("s", "t", 3)]))
    p4.write_text(graph_json(["s", "t"], [("s", "t", 4)]))
    res3 = run(["is-identity", str(p3), word])
    res4 = run(["is-identity", str(p4), word])
    assert res3.exit_code == 0
    assert res3.stdout == "identity\n"
    assert res4.exit_code == 3
    assert res4.stdout == "not identity\n"


def test_shift_type_single_vertex(tmp_path):
    p = tmp_path / "a1.json"
    p.write_text(graph_json(["s"], []))
    res = twice(["shift-type", str(p), "s s"])
    assert res.exit_code == 0
    assert res.stdout == "shift: [2]<4>\n"
    assert run(["shift-type", str(p), "s s", "--pure"]).exit_code == 3


def test_shift_type_non_shift(gpath):
    res = run(["shift-type", gpath("a2"), "s"])
    assert res.exit_code == 3
    assert res.stdout == "not a shift\n"


# --------------------------------------------------------------------- act


def test_act_adjacent_twist_golden(gpath):
    res = twice(["act", gpath("a2"), "s", "--on", "t"])
    assert res.exit_code == 0
    assert res.stdout == (
        "deg -1: P[s]<1>\n"
        "deg 0: P[t]<0>\n"
        "d[-1][0->0] = (s|t)\n"
    )


def test_act_reader_roundtrip(gpath):
    res = run(["act", gpath("a2"), "s", "--on", "t"])
    parsed = read_act_output(res.stdout)
    assert parsed["terms"] == {-1: [("s", 1)], 0: [("t", 0)]}
    assert parsed["diffs"] == {-1: {(0, 0): [(Fraction(1), "(s|t)")]}}


def test_act_reader_roundtrip_labels_with_star(gpath):
    # unfolded vertex names such as (s,Pi0*Pi0) contain "*" themselves
    res = run(["act", gpath("chain45"), "s t", "--on", "s,Pi0*Pi0"])
    assert res.exit_code == 0
    parsed = read_act_output(res.stdout)
    assert parsed["terms"] == {
        -2: [("(t,Pi1*Pi0)", 3)],
        -1: [("(s,Pi0*Pi0)", 2)],
    }
    assert parsed["diffs"] == {
        -2: {(0, 0): [(Fraction(1), "((t,Pi1*Pi0)|(s,Pi0*Pi0))")]}
    }


def test_act_reader_coefficients():
    text = "deg 0: P[s]<0>\ndeg 1: P[t]<0>\nd[0][0->0] = -1/2*(s|t) + 3*(a,b*c) + -(x*y)\n"
    assert read_act_output(text)["diffs"] == {
        0: {
            (0, 0): [
                (Fraction(-1, 2), "(s|t)"),
                (Fraction(3), "(a,b*c)"),
                (Fraction(-1), "(x*y)"),
            ]
        }
    }


def test_act_identity_word_with_shifts(gpath):
    res = twice(
        ["act", gpath("i2_5"), "", "--on", "s,Pi0", "--shift", "1", "--deg", "-1"]
    )
    assert res.exit_code == 0
    assert res.stdout == "deg -1: P[(s,Pi0)]<1>\n"


def test_act_bare_vertex_requires_unique_fiber(gpath):
    # both simples live over s in the pentagon unfolding
    res = run(["act", gpath("i2_5"), "s", "--on", "s"])
    assert res.exit_code == 1
    g = parse_graph(CORPUS_JSON["i2_5"])
    u = unfold(g)
    assert len(fiber(u, "s")) == 2


def test_act_longer_word_parses(gpath):
    res = twice(["act", gpath("a2"), "s t s^-1", "--on", "t"])
    assert res.exit_code == 0
    parsed = read_act_output(res.stdout)
    assert parsed["terms"]


def test_act_unknown_target(gpath):
    assert run(["act", gpath("a2"), "s", "--on", "z"]).exit_code == 1


# ----------------------------------------------------------------- chamber


def charges_file(tmp_path, mapping, name="z.json"):
    p = tmp_path / name
    p.write_text(json.dumps(mapping))
    return str(p)


@pytest.mark.parametrize(
    "text",
    [
        DEEP_JSON,
        '{"s": [1.0, 0.0], "t\u00e9": [1.0, 0.0]}'.encode("latin-1"),
        '{"s": [1%s, 0.0], "t": [1.0, 0.0]}' % ("0" * 5000),
    ],
    ids=["deep", "latin1", "int-over-digit-limit"],
)
def test_unreadable_charge_file_is_input_error(gpath, tmp_path, text):
    p = tmp_path / "z.json"
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run(["chamber", gpath("a2"), "--charge", str(p)]).exit_code == 1


@pytest.mark.parametrize("command", ["chamber", "regular-check"])
@pytest.mark.parametrize("graph", ["a2", "chain45"])
@pytest.mark.parametrize(
    "bad", [math.nan, -math.inf, 10**400], ids=["nan", "-inf", "int-beyond-float"]
)
def test_non_finite_charge_is_input_error(gpath, tmp_path, command, graph, bad):
    g = parse_graph(CORPUS_JSON[graph])
    mapping = {v: [0.5, 1.0] for v in g.vertices}
    mapping[g.vertices[0]] = [0.5, bad]
    z = charges_file(tmp_path, mapping)
    res = run([command, gpath(graph), "--charge", z])
    assert (res.exit_code, res.stdout) == (1, "")


def test_chamber_fixed_point_golden(gpath, tmp_path):
    z = charges_file(tmp_path, {"s": [0.0, 1.0], "t": [-1.0, 0.0]})
    res = twice(["chamber", gpath("a2"), "--charge", z])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert list(doc) == ["status", "phase", "word", "charge"]
    assert doc["status"] == "located"
    assert doc["phase"] == [1.0, 0.0]
    assert doc["word"] == []
    assert doc["charge"] == {"s": [0.0, 1.0], "t": [-1.0, 0.0]}


def test_chamber_reflected_charge_is_located(gpath, tmp_path):
    z = charges_file(tmp_path, {"s": [0.0, -1.0], "t": [-1.0, 1.0]})
    res = run(["chamber", gpath("a2"), "--charge", z])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["status"] == "located"
    assert doc["word"] != []


def test_chamber_degenerate_charge_exit_2(gpath, tmp_path):
    z = charges_file(tmp_path, {"s": [1.0, 0.0], "t": [-1.0, 0.0]})
    res = run(["chamber", gpath("rank2_inf"), "--charge", z])
    assert res.exit_code == 2
    assert json.loads(res.stdout)["status"] == "not_in_interior"


def test_chamber_lost_normalization_is_exit_2(gpath, tmp_path):
    # the chamber charge (i, i, 1+i) reflected at u; locating it breaks
    # the sampled-cone normalization, a postcondition of locate_chamber
    z = charges_file(
        tmp_path,
        {"s": [0.0, 1.0], "t": [1.618033988749895, 2.618033988749895], "u": [-1.0, -1.0]},
    )
    res = run(["chamber", gpath("chain45"), "--charge", z])
    assert res.exit_code == 2


def test_chamber_full_uses_unfolded_names(gpath, tmp_path):
    z = charges_file(tmp_path, {"s,Pi0": [0.0, 1.0], "t,Pi0": [-1.0, 0.0]})
    res = run(["chamber", gpath("a2"), "--charge", z, "--full"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert sorted(doc["charge"]) == ["s,Pi0", "t,Pi0"]


def test_chamber_missing_vertex_is_usage_error(gpath, tmp_path):
    z = charges_file(tmp_path, {"s": [0.0, 1.0]})
    assert run(["chamber", gpath("a2"), "--charge", z]).exit_code == 1


def test_chamber_max_iter_env(gpath, tmp_path, monkeypatch):
    z = charges_file(tmp_path, {"s": [0.0, -1.0], "t": [-1.0, 1.0]})
    monkeypatch.setenv("COXTWIST_MAX_ITER", "0")
    res = run(["chamber", gpath("a2"), "--charge", z])
    assert res.exit_code == 2
    assert json.loads(res.stdout)["status"] == "max_iterations"
    monkeypatch.setenv("COXTWIST_MAX_ITER", "bogus")
    assert run(["chamber", gpath("a2"), "--charge", z]).exit_code == 1


@pytest.mark.parametrize("command", ["chamber", "regular-check", "tits-check"])
def test_geometry_depth_must_be_positive(gpath, tmp_path, capsys, command):
    z = charges_file(tmp_path, {"s": [1.0, 0.0], "t": [1.0, 0.0]})
    res = run([command, gpath("rank2_inf"), "--charge", z, "--depth", "0"])
    assert res == cli.CommandResult(1, "")
    assert "--depth" in capsys.readouterr().err


# ------------------------------------------- regular-check and tits-check


def test_regular_check_yes_and_no(gpath, tmp_path):
    generic = charges_file(tmp_path, {"s": [0.3, 1.1], "t": [-0.7, 0.4]}, "g.json")
    wall = charges_file(tmp_path, {"s": [1.0, 0.0], "t": [-1.0, 0.0]}, "w.json")
    res = twice(["regular-check", gpath("a2"), "--charge", generic])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {"result": "yes"}
    res = run(["regular-check", gpath("a2"), "--charge", wall])
    assert res.exit_code == 3
    assert json.loads(res.stdout) == {"result": "no"}


def test_tits_check_rank2_inf(gpath, tmp_path):
    inside = charges_file(tmp_path, {"s": [1.0, 0.0], "t": [1.0, 0.0]}, "in.json")
    outside = charges_file(tmp_path, {"s": [1.0, 0.0], "t": [-1.0, 0.0]}, "out.json")
    res = twice(["tits-check", gpath("rank2_inf"), "--charge", inside])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {"result": "yes"}
    res = run(["tits-check", gpath("rank2_inf"), "--charge", outside])
    assert res.exit_code == 3
    assert json.loads(res.stdout) == {"result": "no"}


def test_tits_check_requires_real_values(gpath, tmp_path):
    z = charges_file(tmp_path, {"s": [1.0, 0.5], "t": [1.0, 0.0]})
    assert run(["tits-check", gpath("rank2_inf"), "--charge", z]).exit_code == 1


def test_tits_check_inconclusive(gpath, tmp_path):
    z = charges_file(tmp_path, {"a": [-1.0, 0.0], "b": [0.0, 0.0], "c": [1.0, 0.0]})
    res = run(["tits-check", gpath("g2_affine"), "--charge", z])
    assert res.exit_code == 2
    assert json.loads(res.stdout) == {"result": "inconclusive"}


# --------------------------------------------------------- check-relations


def test_check_relations_a2(gpath):
    res = twice(["check-relations", gpath("a2")])
    assert res.exit_code == 0
    assert res.stdout == (
        "braid s t m=3: pass\n"
        "inverse s: pass\n"
        "inverse t: pass\n"
    )


def test_check_relations_a3_includes_commutation(gpath):
    res = run(["check-relations", gpath("a3")])
    assert res.exit_code == 0
    assert res.stdout == (
        "braid s t m=3: pass\n"
        "commute s u: pass\n"
        "braid t u m=3: pass\n"
        "inverse s: pass\n"
        "inverse t: pass\n"
        "inverse u: pass\n"
    )


def test_check_relations_infinite_edge(gpath):
    res = run(["check-relations", gpath("rank2_inf")])
    assert res.exit_code == 0
    assert res.stdout == (
        "distinguish s t m=inf: pass\n"
        "inverse s: pass\n"
        "inverse t: pass\n"
    )
