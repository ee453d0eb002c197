"""Oracles for graph unfolding, folding fibers, and the W-embedding.

The G2-affine and 5-5-inf tables below were expanded by hand from the
TLJ fusion rows and cross-checked against the component shapes
(E7-affine plus D6-affine, and the 4-cycle with infinity whiskers).
"""

import os
import random
import subprocess
import sys

import pytest

from coxtwist import unfolding
from coxtwist.cli import run
from coxtwist.coxgraph import (
    INF,
    GraphError,
    InvariantError,
    is_finite_type,
    parse_graph,
)
from coxtwist.fusion import FusionRing, coxeter_fusion_ring
from coxtwist.lattice import coxeter_word_matrix, mat_mul, simple_reflection_matrix
from coxtwist.unfolding import fiber, lcm_translate, psi_matrix, unfold

from conftest import CORPUS_JSON, graph_json


def unfold_named(name):
    return unfold(parse_graph(CORPUS_JSON[name]))


def test_unfold_simply_laced_is_itself():
    u = unfold_named("a3")
    assert u.vertices == (("s", "Pi0"), ("t", "Pi0"), ("u", "Pi0"))
    assert u.edges == ((0, 1, 1), (1, 2, 1))
    assert [u.fold(i) for i in range(3)] == ["s", "t", "u"]
    g2 = u.as_coxeter_graph()
    assert g2.vertices == ("s,Pi0", "t,Pi0", "u,Pi0")
    assert g2.edges == ((0, 1, 3), (1, 2, 3))


def test_unfold_infinite_edge_becomes_double_edge():
    u = unfold_named("rank2_inf")
    assert u.vertices == (("s", "Pi0"), ("t", "Pi0"))
    assert u.edges == ((0, 1, 2),)
    assert u.as_coxeter_graph().edges == ((0, 1, INF),)


def test_unfold_pentagon():
    # vertices in vertex-major order; the three edges form the A4 path
    # (s,Pi0) - (t,Pi2) - (s,Pi2) - (t,Pi0)
    u = unfold_named("i2_5")
    assert u.vertices == (
        ("s", "Pi0"),
        ("s", "Pi2"),
        ("t", "Pi0"),
        ("t", "Pi2"),
    )
    assert u.edges == ((0, 3, 1), (1, 2, 1), (1, 3, 1))
    assert is_finite_type(u.as_coxeter_graph())


def test_unfold_i2_4_is_two_path_components():
    u = unfold(parse_graph(CORPUS_JSON["i2_4"]))
    g = u.as_coxeter_graph()
    comps = g.components()
    assert sorted(len(c) for c in comps) == [3, 3]
    for comp in comps:
        degs = sorted(len([j for j in g.neighbors(i) if j in comp]) for i in comp)
        assert degs == [1, 1, 2]
    assert all(m == 3 for _, _, m in g.edges)


def test_unfold_g2_affine_tables():
    # a 0..4, b 5..9, c 10..14; the 6-edge unfolds through the Pi3 row
    # of the n=6 fusion table, the 3-edge matches simples up
    u = unfold_named("g2_affine")
    assert len(u.vertices) == 15
    assert u.vertices[5] == ("b", "Pi0*Pi0")
    assert u.edges == (
        (0, 8, 1),
        (1, 7, 1),
        (1, 9, 1),
        (2, 6, 1),
        (2, 8, 1),
        (3, 5, 1),
        (3, 7, 1),
        (4, 6, 1),
        (5, 10, 1),
        (6, 11, 1),
        (7, 12, 1),
        (8, 13, 1),
        (9, 14, 1),
    )
    comps = u.as_coxeter_graph().components()
    assert sorted(len(c) for c in comps) == [7, 8]
    assert set(comps[0]) | set(comps[1]) == set(range(15))
    eight = next(c for c in comps if len(c) == 8)
    assert set(eight) == {1, 3, 5, 7, 9, 10, 12, 14}


def test_unfold_g2_affine_component_shapes():
    u = unfold_named("g2_affine")
    g = u.as_coxeter_graph()
    for comp in g.components():
        degs = sorted(len(g.neighbors(i)) for i in comp)
        if len(comp) == 8:
            # E7-affine: a 7-path with one middle branch
            assert degs == [1, 1, 1, 2, 2, 2, 2, 3]
        else:
            # D6-affine: a path with a fork at each end
            assert degs == [1, 1, 1, 1, 2, 3, 3]
        assert not is_finite_type(g.induced(tuple(g.vertices[i] for i in comp)))


def test_unfold_chain45_shape():
    u = unfold_named("chain45")
    assert len(u.vertices) == 18
    assert len(u.edges) == 17
    assert all(mult == 1 for _, _, mult in u.edges)
    g = u.as_coxeter_graph()
    sizes = {}
    for comp in g.components():
        inside = sum(1 for i, j, _ in g.edges if i in comp and j in comp)
        sizes[len(comp)] = inside
    # the 10-vertex component carries the single cycle
    assert sizes == {8: 7, 10: 10}


def test_unfold_55inf_chain():
    g = parse_graph(
        graph_json(
            ["s", "t", "u", "v"],
            [("s", "t", 5), ("t", "u", 5), ("u", "v", "inf")],
        )
    )
    u = unfold(g)
    assert u.edges == (
        (0, 3, 1),
        (1, 2, 1),
        (1, 3, 1),
        (2, 5, 1),
        (3, 4, 1),
        (3, 5, 1),
        (4, 6, 2),
        (5, 7, 2),
    )


def test_unfold_disjoint_union_splits():
    g = parse_graph(
        graph_json(
            ["s", "t", "u", "v"],
            [("s", "t", 3), ("u", "v", 4)],
        )
    )
    u = unfold(g)
    assert len(u.vertices) == 12
    comps = u.as_coxeter_graph().components()
    assert sorted(len(c) for c in comps) == [2, 2, 2, 3, 3]
    # no unfolded edge crosses base components
    for i, j, _ in u.edges:
        si, sj = u.fold(i), u.fold(j)
        assert {si, sj} <= {"s", "t"} or {si, sj} <= {"u", "v"}


def test_fiber_orders_and_contents():
    u = unfold_named("i2_5")
    assert fiber(u, "s") == (("s", "Pi0"), ("s", "Pi2"))
    assert fiber(u, "t") == (("t", "Pi0"), ("t", "Pi2"))


def test_fiber_singleton():
    u = unfold_named("a2")
    assert fiber(u, "t") == (("t", "Pi0"),)


def test_fiber_size_matches_ring():
    u = unfold_named("chain45")
    for v in ("s", "t", "u"):
        assert len(fiber(u, v)) == 6


def test_fiber_unknown_vertex():
    u = unfold_named("a2")
    with pytest.raises(GraphError):
        fiber(u, "nope")


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_fiber_vertices_pairwise_non_adjacent(name):
    u = unfold_named(name)
    adjacency = {(i, j) for i, j, _ in u.edges}
    for v in u.base.vertices:
        members = [u.index(p) for p in fiber(u, v)]
        for a in members:
            for b in members:
                assert (a, b) not in adjacency


def test_lcm_translate_empty():
    u = unfold_named("i2_5")
    assert lcm_translate(u, ()) == ()


def test_lcm_translate_generator_and_inverse():
    u = unfold_named("i2_5")
    assert lcm_translate(u, ("s",)) == (
        (("s", "Pi0"), 1),
        (("s", "Pi2"), 1),
    )
    assert lcm_translate(u, (("s", -1),)) == (
        (("s", "Pi2"), -1),
        (("s", "Pi0"), -1),
    )


def test_lcm_translate_word_order():
    u = unfold_named("i2_5")
    word = lcm_translate(u, ("s", ("t", -1)))
    assert word == (
        (("s", "Pi0"), 1),
        (("s", "Pi2"), 1),
        (("t", "Pi2"), -1),
        (("t", "Pi0"), -1),
    )


def test_lcm_translate_unknown_generator():
    u = unfold_named("a2")
    with pytest.raises(GraphError):
        lcm_translate(u, ("q",))


def test_psi_singleton_fiber_is_plain_reflection():
    u = unfold_named("a2")
    g2 = u.as_coxeter_graph()
    ring2 = coxeter_fusion_ring(g2)
    assert psi_matrix(u, "s") == simple_reflection_matrix(g2, ring2, "s,Pi0")


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_psi_transports_folded_reflections(name):
    # the key intertwining: on the shared index space Gamma_0 x Irr,
    # psi(s) literally equals the folded reflection matrix
    g = parse_graph(CORPUS_JSON[name])
    ring = coxeter_fusion_ring(g)
    u = unfold(g)
    for v in g.vertices:
        assert psi_matrix(u, v) == simple_reflection_matrix(g, ring, v)


def test_psi_is_involution_and_injective_on_generators():
    u = unfold_named("i2_5")
    ms = psi_matrix(u, "s")
    mt = psi_matrix(u, "t")
    assert ms != mt
    n = len(ms)
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    assert mat_mul(ms, ms) == ident


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_psi_word_intertwining(name):
    rng = random.Random(11)
    g = parse_graph(CORPUS_JSON[name])
    ring = coxeter_fusion_ring(g)
    u = unfold(g)
    for _ in range(5):
        word = tuple(rng.choice(g.vertices) for _ in range(rng.randint(0, 10)))
        folded = coxeter_word_matrix(g, ring, word)
        acc = None
        for letter in word:
            m = psi_matrix(u, letter)
            acc = m if acc is None else mat_mul(m, acc)
        if acc is None:
            n = g.rank * ring.rank
            acc = tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
            )
        assert acc == folded


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_finite_type_preserved_by_unfolding(name):
    g = parse_graph(CORPUS_JSON[name])
    assert is_finite_type(g) == is_finite_type(unfold(g).as_coxeter_graph())


# Rings whose edge planes break one invariant each, patched in where
# unfold looks the ring up.  The a2 ring has rank one; the i2_5 ring is
# (Pi0, Pi2), and the object of its 5-edge is Pi2.


class DoubledRing(FusionRing):
    # every structure constant doubled: each edge plane has a 2 in it
    def plane(self, j):
        return tuple(tuple(2 * c for c in row) for row in super().plane(j))


class SkewedRing(FusionRing):
    # Pi2 * Pi0 loses its Pi2 term: still multiplicity-free, but the
    # plane of Pi2 is no longer symmetric
    def plane(self, j):
        plane = super().plane(j)
        return ((0, 0), plane[1]) if j == 1 else plane


def doubled_ring(g):
    return DoubledRing(coxeter_fusion_ring(g).factors)


def skewed_ring(g):
    return SkewedRing(coxeter_fusion_ring(g).factors)


def check_unfold_rejects(monkeypatch, tmp_path, ring, graph, message):
    monkeypatch.setattr(unfolding, "coxeter_fusion_ring", ring)
    with pytest.raises(InvariantError, match=message):
        unfold(parse_graph(CORPUS_JSON[graph]))
    path = tmp_path / f"{graph}.json"
    path.write_text(CORPUS_JSON[graph])
    assert run(["unfold", str(path)]).exit_code == 2


def test_unfold_rejects_an_edge_object_with_multiplicity(monkeypatch, tmp_path):
    check_unfold_rejects(
        monkeypatch, tmp_path, doubled_ring, "a2", "not multiplicity-free"
    )


def test_unfold_rejects_an_asymmetric_edge_row(monkeypatch, tmp_path):
    check_unfold_rejects(monkeypatch, tmp_path, skewed_ring, "i2_5", "not symmetric")


def check_survives_optimized_interpreter(ring, graph):
    import coxtwist

    src = os.path.dirname(os.path.dirname(coxtwist.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    script = (
        "from coxtwist import InvariantError, parse_graph, unfolding\n"
        f"from test_unfolding import {ring.__name__}\n"
        f"unfolding.coxeter_fusion_ring = {ring.__name__}\n"
        "try:\n"
        f"    unfolding.unfold(parse_graph({CORPUS_JSON[graph]!r}))\n"
        "except InvariantError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_unfold_check_survives_optimized_interpreter():
    check_survives_optimized_interpreter(doubled_ring, "a2")


def test_unfold_symmetry_check_survives_optimized_interpreter():
    check_survives_optimized_interpreter(skewed_ring, "i2_5")
