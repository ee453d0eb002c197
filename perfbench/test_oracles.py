"""The benchmark's oracles accept right answers and reject corrupted ones,
the tracer restores every function it patches, and each query is
scaled by the reference-loop probes around it."""

import dataclasses
import json
import random

import pytest

import oracles
import run
import tracing
import workloads
from coxtwist import cli, homotopy, zigzag
from coxtwist.coxgraph import parse_graph
from coxtwist.fusion import coxeter_fusion_ring

A2 = workloads.CORPUS["a2"]
I2_5 = workloads.CORPUS["i2_5"]
H3 = workloads.EXTRA_GEOMETRY["h3"]


@pytest.fixture
def path(tmp_path):
    def write(text):
        p = tmp_path / f"g{abs(hash(text))}.json"
        p.write_text(text)
        return str(p)

    return write


def corrupt(result, stdout=None, exit_code=None):
    return dataclasses.replace(
        result,
        stdout=result.stdout if stdout is None else stdout,
        exit_code=result.exit_code if exit_code is None else exit_code,
    )


def test_act_oracle_rejects_a_perturbed_class(path):
    g = parse_graph(I2_5)
    word = (("s", 1), ("t", -1), ("s", 1))
    res = cli.run(["act", path(I2_5), "s t^-1 s", "--on", "s,Pi0"])
    assert oracles.check_act(res, g, word, "s") is None
    first = res.stdout.splitlines()[0]
    shifted = res.stdout.replace(first, first.replace(">", "1>", 1), 1)
    assert shifted != res.stdout
    assert oracles.check_act(corrupt(res, shifted), g, word, "s") is not None
    assert oracles.check_act(res, g, word[:-1], "s") is not None


def test_verdict_oracle_rejects_a_flipped_verdict(path):
    res = cli.run(["is-identity", path(A2), "s t s^-1 t^-1"])
    assert oracles.check_verdict(res, "not identity") is None
    assert oracles.check_verdict(res, "identity") is not None
    flipped = corrupt(res, "identity\n", 0)
    assert oracles.check_verdict(flipped, "not identity") is not None
    res = cli.run(["word-eq", path(A2), "s t s", "t s t"])
    assert oracles.check_verdict(res, "equal") is None
    assert oracles.check_verdict(corrupt(res, "not equal\n", 3), "equal") is not None


def test_burau_oracle_rejects_a_changed_entry(path):
    g = parse_graph(H3)
    word = (("a", 1), ("b", -1), ("c", 1))
    res = cli.run(["burau", path(H3), "a b^-1 c", "--q-eval", "-1"])
    assert oracles.check_burau(res, g, word) is None
    lines = res.stdout.splitlines()
    cells = lines[1].split()
    cells[-1] = str(int(cells[-1]) + 1)
    lines[1] = " ".join(cells)
    assert oracles.check_burau(corrupt(res, "\n".join(lines) + "\n"), g, word) is not None


def test_root_oracle_rejects_a_wrong_count(path):
    res = cli.run(["roots", path(H3), "--depth", "7"])
    assert oracles.check_root_count(res, 15) is None
    assert oracles.check_root_count(res, 14) is not None
    lines = res.stdout.splitlines()
    dropped = "\n".join(lines[:-1]).replace("count: 15", "count: 14") + "\n"
    assert oracles.check_root_count(corrupt(res, dropped), 15) is not None
    truncated = cli.run(["roots", path(H3), "--depth", "3"])
    assert oracles.check_root_count(truncated, 15) is not None


def test_decision_and_chamber_oracles(path, tmp_path):
    g = parse_graph(H3)
    z0, z = workloads._chamber_charge(random.Random(3), g, real=False)
    assert not oracles.in_chamber(z)
    charge = workloads._charge_file(str(tmp_path), "h3", g, z)
    res = cli.run(["chamber", path(H3), "--charge", charge])
    assert oracles.check_located(res, g, z, z0) is None
    doc = json.loads(res.stdout)
    assert doc["word"]

    def edited(**change):
        return corrupt(res, json.dumps({**doc, **change}))

    # a shortened word, a charge outside the chamber, another chamber charge
    assert oracles.check_located(edited(word=doc["word"][:-1]), g, z, z0) is not None
    outside = {**doc["charge"], "a": [1.0, -1.0]}
    assert oracles.check_located(edited(charge=outside), g, z, z0) is not None
    other = {v: [0.0, 1.0] for v in g.vertices}
    assert oracles.check_located(edited(charge=other), g, z, z0) is not None
    # word and charge edited to agree still miss the charge the input came from
    replay = z
    for s in doc["word"][:-1]:
        replay = oracles.reflect(g, s, replay)
    short = {v: [c.real, c.imag] for v, c in zip(g.vertices, replay)}
    assert oracles.check_located(edited(word=doc["word"][:-1], charge=short), g, z, z0) is not None
    res = cli.run(["regular-check", path(H3), "--charge", charge])
    assert oracles.check_decision(res, "yes") is None
    assert oracles.check_decision(res, "no") is not None


def test_structural_oracles(path):
    g = parse_graph(I2_5)
    res = cli.run(["fusion-table", path(I2_5)])
    assert oracles.check_fusion_table(res, g) is None
    assert oracles.check_fusion_table(corrupt(res, res.stdout.replace("rank: 2", "rank: 3")), g)
    res = cli.run(["unfold", path(I2_5)])
    assert oracles.check_unfold(res, g) is None
    res = cli.run(["zigzag-info", path(I2_5)])
    assert oracles.check_zigzag_info(res, 4, 14) is None
    assert oracles.check_zigzag_info(res, 4, 15) is not None


def test_tracer_records_spans_and_restores_the_program(path):
    originals = (cli.run, cli.build_zigzag, homotopy.multiply_combo, zigzag.multiply_combo)
    coxeter_fusion_ring(parse_graph(A2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.build_zigzag is not originals[1]
        assert homotopy.multiply_combo is not originals[2]
        tracer.query = 1
        tracer.word_problem = True
        res = cli.run(["is-identity", path(A2), "s t s t^-1 s^-1 t^-1"])
        tracer.query = None
    finally:
        tracer.uninstall()
    assert (cli.run, cli.build_zigzag, homotopy.multiply_combo, zigzag.multiply_combo) == originals
    assert res.stdout == "identity\n"
    calls, total, own = tracer.stats["cli.run"]
    assert calls == 1 and 0 < own < total
    assert tracer.calls("homotopy.twist") > 0
    assert tracer.calls("zigzag.multiply_combo") > 0
    assert "zigzag.multiply_combo" not in tracer.names  # a leaf has no spans
    assert tracer.counts["homotopy.identity_sweeps"] == 1
    metrics = tracer.layer_metrics(1, 1)
    assert metrics["homotopy.start_projectives"] == 4  # two per unfolded vertex
    assert metrics["fusion.ring_cache_hit_ratio"] == 1.0  # the ring was built before
    # tracer time is counted apart and kept out of the self times
    assert tracer.span_cost >= 0 and tracer.leaf_cost >= 0
    assert 0 < tracer.overhead < total
    own_total = sum(row[2] for row in tracer.stats.values())
    assert own_total + tracer.overhead == pytest.approx(total, rel=0.1)
    assert all(tracer.span_end[i] >= tracer.span_start[i] for i in range(len(tracer.span_start)))


def test_speed_probe_brackets_each_query():
    probe = run.SpeedProbe()
    probe.at, probe.took = [1.0, 2.0, 3.0], [0.001, 0.002, 0.004]
    assert probe.around(1.5, 1.8) == pytest.approx(0.0015)
    assert probe.around(2.0, 2.5) == pytest.approx(0.003)
    assert probe.around(1.5, 2.5) == pytest.approx(0.0025)
