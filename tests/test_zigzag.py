"""Oracles for the zigzag algebra of an unfolded graph.

The independent hom-dimension count in folded_hom_dim reimplements the
four-case formula straight from the fusion data, bypassing the algebra,
so the two routes cross-check each other.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from coxtwist.coxgraph import INF, GraphError, parse_graph
from coxtwist.fusion import FusionElement, coxeter_fusion_ring, edge_object, multiply
from coxtwist.unfolding import UnfoldedGraph, unfold
from coxtwist.zigzag import (
    HomElement,
    build_zigzag,
    compose,
    frobenius_comult,
    hom_basis,
    multiply_basis,
    path_label,
)

from conftest import CORPUS_JSON, graph_json
from reference import all_pairs_table
from test_coxgraph import random_graphs

ONE = Fraction(1)


def algebra(name):
    return build_zigzag(unfold(parse_graph(CORPUS_JSON[name])))


def bidx(A, label):
    return A.basis.index(label)


def prod(A, la, lb):
    return multiply_basis(A, A.basis.index(la), A.basis.index(lb))


def test_single_vertex_is_dual_numbers():
    g = parse_graph(graph_json(["s"], []))
    A = build_zigzag(unfold(g))
    assert A.dim == 2
    assert A.basis == (("e", 0), ("X", 0))
    assert prod(A, ("X", 0), ("X", 0)) == ()
    assert prod(A, ("e", 0), ("X", 0)) == ((1, ONE),)


def test_pentagon_dimension():
    # 2*4 vertices + 2*3 edges
    assert algebra("i2_5").dim == 14


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_dimension_formula(name):
    A = algebra(name)
    u = A.quiver
    assert A.dim == 2 * len(u.vertices) + 2 * sum(m for _, _, m in u.edges)


def test_basis_order_pentagon():
    A = algebra("i2_5")
    assert A.basis == (
        ("e", 0),
        ("e", 1),
        ("e", 2),
        ("e", 3),
        ("X", 0),
        ("X", 1),
        ("X", 2),
        ("X", 3),
        ("arrow", 0, 3, 0),
        ("arrow", 1, 2, 0),
        ("arrow", 1, 3, 0),
        ("arrow", 2, 1, 0),
        ("arrow", 3, 0, 0),
        ("arrow", 3, 1, 0),
    )


def test_arrow_cap_relations():
    # each arrow composed with its reverse caps off to the loop at its
    # source, matching the rank-two listing (1|2)(2|1) = X_1
    A = algebra("i2_5")
    for i, j, _ in A.quiver.edges:
        out = prod(A, ("arrow", i, j, 0), ("arrow", j, i, 0))
        assert out == ((bidx(A, ("X", i)), ONE),)
        back = prod(A, ("arrow", j, i, 0), ("arrow", i, j, 0))
        assert back == ((bidx(A, ("X", j)), ONE),)


def test_arrow_composition_through_distinct_targets_vanishes():
    # A4 path 0-3-1-2 in the unfolded pentagon: (0|3)(3|1) = 0
    A = algebra("i2_5")
    assert prod(A, ("arrow", 0, 3, 0), ("arrow", 3, 1, 0)) == ()


def test_double_bond_arrows_pair_by_index():
    A = algebra("rank2_inf")
    assert prod(A, ("arrow", 0, 1, 0), ("arrow", 1, 0, 0)) == (
        (bidx(A, ("X", 0)), ONE),
    )
    assert prod(A, ("arrow", 0, 1, 0), ("arrow", 1, 0, 1)) == ()
    assert prod(A, ("arrow", 0, 1, 1), ("arrow", 1, 0, 1)) == (
        (bidx(A, ("X", 0)), ONE),
    )


@pytest.mark.parametrize("name", ["a2", "i2_5", "rank2_inf"])
def test_path_rule_and_degrees(name):
    A = algebra(name)
    for i in range(A.dim):
        for j in range(A.dim):
            out = multiply_basis(A, i, j)
            si, ti, di = A.source(i), A.target(i), A.degree(i)
            sj, tj, dj = A.source(j), A.target(j), A.degree(j)
            if ti != sj or di + dj >= 3:
                assert out == ()
                continue
            for k, c in out:
                assert type(c) is int and c == 1
                assert A.source(k) == si and A.target(k) == tj
                assert A.degree(k) == di + dj
            # idempotents act as identities when the ends meet
            if A.basis[i][0] == "e":
                assert out == ((j, ONE),)
            if A.basis[j][0] == "e":
                assert out == ((i, ONE),)


@pytest.mark.parametrize("name", ["a2", "i2_5", "rank2_inf"])
def test_unit_laws(name):
    A = algebra(name)
    es = [i for i, b in enumerate(A.basis) if b[0] == "e"]
    for j in range(A.dim):
        left = [pair for e in es for pair in multiply_basis(A, e, j)]
        right = [pair for e in es for pair in multiply_basis(A, j, e)]
        assert left == [(j, ONE)]
        assert right == [(j, ONE)]


@pytest.mark.parametrize("name", ["i2_5", "rank2_inf"])
def test_associativity_all_basis_triples(name):
    A = algebra(name)

    def mul_combo(x, y):
        acc = {}
        for i, ci in x:
            for j, cj in y:
                for k, ck in multiply_basis(A, i, j):
                    acc[k] = acc.get(k, 0) + ci * cj * ck
        return tuple(sorted((k, c) for k, c in acc.items() if c))

    for i in range(A.dim):
        for j in range(A.dim):
            ij = multiply_basis(A, i, j)
            for k in range(A.dim):
                jk = multiply_basis(A, j, k)
                assert mul_combo(ij, ((k, ONE),)) == mul_combo(((i, ONE),), jk)


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_hom_dims_match_quiver_counts(name):
    # Poincare polynomial per vertex pair: 1 + t^2 on the diagonal,
    # mult * t across an edge, zero otherwise
    A = algebra(name)
    u = A.quiver
    mult = {}
    for i, j, m in u.edges:
        mult[i, j] = mult[j, i] = m
    for x in range(len(u.vertices)):
        for y in range(len(u.vertices)):
            for d in range(-1, 5):
                got = len(hom_basis(A, (x, d), (y, 0)))
                if d == 0:
                    want = 1 if x == y else 0
                elif d == 1:
                    want = mult.get((x, y), 0)
                elif d == 2:
                    want = 1 if x == y else 0
                else:
                    want = 0
                assert got == want


def folded_hom_dim(g, ring, s, e1, k1, t, e2, k2):
    """Hom dimension between folded projectives, from fusion data alone."""
    if s == t:
        return 1 if e1 == e2 and k1 - k2 in (0, 2) else 0
    i, j = g.index(s), g.index(t)
    m = g.label(i, j)
    if m == 2 or k1 - k2 != 1:
        return 0
    if m == INF:
        return 2 if e1 == e2 else 0
    obj = edge_object(g, (i, j))
    return multiply(ring, obj, FusionElement.simple(ring, e2)).coefficients[e1]


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_hom_dims_match_folded_formula(name):
    g = parse_graph(CORPUS_JSON[name])
    ring = coxeter_fusion_ring(g)
    u = unfold(g)
    A = build_zigzag(u)
    for si, s in enumerate(g.vertices):
        for ti, t in enumerate(g.vertices):
            for e1 in range(ring.rank):
                for e2 in range(ring.rank):
                    x = si * ring.rank + e1
                    y = ti * ring.rank + e2
                    for k1 in range(-4, 5):
                        want = folded_hom_dim(g, ring, s, e1, k1, t, e2, 0)
                        assert len(hom_basis(A, (x, k1), (y, 0))) == want


def test_hom_basis_contents():
    A = algebra("i2_5")
    (f,) = hom_basis(A, (0, 0), (0, 0))
    assert f.combo == ((bidx(A, ("e", 0)), ONE),)
    (f,) = hom_basis(A, (0, 2), (0, 0))
    assert f.combo == ((bidx(A, ("X", 0)), ONE),)
    assert hom_basis(A, (0, 5), (3, 0)) == []
    assert hom_basis(A, (0, -1), (3, -2)) == [
        HomElement((0, -1), (3, -2), ((bidx(A, ("arrow", 0, 3, 0)), ONE),))
    ]


def test_hom_basis_shift_translation_invariance():
    A = algebra("i2_5")
    for dk in (-3, 0, 2):
        a = hom_basis(A, (0, 1 + dk), (3, dk))
        assert len(a) == 1 and a[0].combo == (
            (bidx(A, ("arrow", 0, 3, 0)), ONE),
        )


def test_infinite_edge_hom_is_two_dimensional():
    A = algebra("rank2_inf")
    fs = hom_basis(A, (0, 1), (1, 0))
    assert len(fs) == 2
    combos = {f.combo for f in fs}
    assert combos == {
        ((bidx(A, ("arrow", 0, 1, 0)), ONE),),
        ((bidx(A, ("arrow", 0, 1, 1)), ONE),),
    }


def test_compose_identity_and_caps():
    A = algebra("i2_5")
    (f,) = hom_basis(A, (0, 1), (3, 0))
    # identity on either side
    (e0k,) = hom_basis(A, (0, 1), (0, 1))
    assert compose(A, e0k, f) == f
    (e3,) = hom_basis(A, (3, 0), (3, 0))
    assert compose(A, f, e3) == f
    # arrow then reverse arrow caps to the loop
    (g,) = hom_basis(A, (3, 1), (0, 0))
    fk = HomElement((0, 2), (3, 1), f.combo)
    out = compose(A, fk, g)
    assert out.source == (0, 2) and out.target == (0, 0)
    assert out.combo == ((bidx(A, ("X", 0)), ONE),)


def test_compose_degree_three_vanishes():
    A = algebra("i2_5")
    (f,) = hom_basis(A, (0, 3), (0, 1))  # X_0
    (g,) = hom_basis(A, (0, 1), (3, 0))  # arrow
    out = compose(A, f, g)
    assert out.combo == ()
    assert out.source == (0, 3) and out.target == (3, 0)


def test_compose_endpoint_mismatch():
    A = algebra("i2_5")
    (f,) = hom_basis(A, (0, 1), (3, 0))
    with pytest.raises(ValueError):
        compose(A, f, f)


def test_compose_bilinear_on_double_bond():
    A = algebra("rank2_inf")
    a0 = bidx(A, ("arrow", 0, 1, 0))
    a1 = bidx(A, ("arrow", 0, 1, 1))
    b0 = bidx(A, ("arrow", 1, 0, 0))
    # (2 a0 + 3 a1) . b0 pairs off only the index-0 arrows
    x = HomElement((0, 2), (1, 1), ((a0, Fraction(2)), (a1, Fraction(3))))
    g = HomElement((1, 1), (0, 0), ((b0, ONE),))
    out = compose(A, x, g)
    assert out.source == (0, 2) and out.target == (0, 0)
    assert out.combo == ((bidx(A, ("X", 0)), Fraction(2)),)


def test_frobenius_pairing_is_perfect():
    for name in ("a2", "i2_5", "rank2_inf", "chain45"):
        A = algebra(name)
        partners = []
        for i in range(A.dim):
            hits = []
            for j in range(A.dim):
                for k, c in multiply_basis(A, i, j):
                    if A.basis[k][0] == "X":
                        hits.append((j, c))
            assert len(hits) == 1 and hits[0][1] == ONE
            partners.append(hits[0][0])
        # a perfect pairing: partnering is an involution of the basis
        assert sorted(partners) == list(range(A.dim))
        assert all(partners[partners[i]] == i for i in range(A.dim))


def test_frobenius_comult_rows():
    A = algebra("i2_5")
    gamma = frobenius_comult(A, 3)
    e, x = bidx(A, ("e", 3)), bidx(A, ("X", 3))
    assert gamma[3] == ((e, x), (x, e))
    a03, a30 = bidx(A, ("arrow", 0, 3, 0)), bidx(A, ("arrow", 3, 0, 0))
    assert gamma[0] == ((a03, a30),)
    assert gamma[2] == ()


def test_frobenius_comult_double_bond_has_two_terms():
    A = algebra("rank2_inf")
    gamma = frobenius_comult(A, 1)
    assert gamma[0] == (
        (bidx(A, ("arrow", 0, 1, 0)), bidx(A, ("arrow", 1, 0, 0))),
        (bidx(A, ("arrow", 0, 1, 1)), bidx(A, ("arrow", 1, 0, 1))),
    )


def ref_frobenius_comult(A, v):
    """The comultiplication rows with every index looked up by its label."""
    n = len(A.quiver.vertices)
    rows = {}
    for t in range(n):
        if t == v:
            e, x = bidx(A, ("e", v)), bidx(A, ("X", v))
            rows[t] = ((e, x), (x, e))
        else:
            rows[t] = tuple(
                (bidx(A, ("arrow", t, v, a)), bidx(A, ("arrow", v, t, a)))
                for a in range(A.quiver.bonds.get((t, v), 0))
            )
    return rows


@pytest.mark.parametrize("name", sorted(CORPUS_JSON) + ["chain579"])
def test_frobenius_comult_matches_the_labels(algebras, name):
    A = algebras[name]
    for v in range(len(A.quiver.vertices)):
        assert frobenius_comult(A, v) == ref_frobenius_comult(A, v)


def test_frobenius_comult_unknown_vertex():
    A = algebra("a2")
    with pytest.raises(GraphError):
        frobenius_comult(A, "nope")


@pytest.mark.parametrize("name", ["a2", "i2_5", "rank2_inf", "g2_affine"])
def test_frobenius_counit_compatibility(name):
    # (id (x) omega) o gamma and (omega (x) id) o gamma are the identity
    # on every idempotent, where gamma sums the comultiplication over
    # all vertices and omega kills everything but loops
    A = algebra(name)
    n = len(A.quiver.vertices)
    for t in range(n):
        right = {}
        left = {}
        for v in range(n):
            for xi, yi in frobenius_comult(A, v).get(t, ()):
                if A.basis[yi][0] == "X":
                    right[xi] = right.get(xi, 0) + 1
                if A.basis[xi][0] == "X":
                    left[yi] = left.get(yi, 0) + 1
        et = bidx(A, ("e", t))
        assert right == {et: 1}
        assert left == {et: 1}


def test_path_label_folded_when_ring_is_trivial():
    A = algebra("a2")
    assert path_label(A, bidx(A, ("e", 0))) == "e_s"
    assert path_label(A, bidx(A, ("X", 1))) == "X_t"
    assert path_label(A, bidx(A, ("arrow", 0, 1, 0))) == "(s|t)"


def test_path_label_double_bond_keeps_index():
    A = algebra("rank2_inf")
    assert path_label(A, bidx(A, ("arrow", 0, 1, 0))) == "(s|t)_0"
    assert path_label(A, bidx(A, ("arrow", 0, 1, 1))) == "(s|t)_1"


def test_path_label_unfolded_notation():
    A = algebra("i2_5")
    assert path_label(A, bidx(A, ("e", 0))) == "e_(s,Pi0)"
    assert path_label(A, bidx(A, ("arrow", 0, 3, 0))) == "((s,Pi0)|(t,Pi2))"


# ------------------------------------------------------- sparse indexing

LABEL_CHAIN_JSON = graph_json("abcd", [("a", "b", 5), ("b", "c", 7), ("c", "d", 9)])


@pytest.fixture(scope="module")
def algebras():
    out = {name: algebra(name) for name in CORPUS_JSON}
    out["chain579"] = build_zigzag(unfold(parse_graph(LABEL_CHAIN_JSON)))
    return out


# References for the structures that unfold and build_zigzag write
# directly: the adjacency by multiplying the edge object with every
# simple, the product table by testing every pair of basis paths
# (reference.all_pairs_table), and the duals from the labelled
# comultiplication.


def ref_unfold(g):
    ring = coxeter_fusion_ring(g)
    vertices = tuple((s, label) for s in g.vertices for label in ring.basis)
    edges = []
    r = ring.rank
    for i, j, m in g.edges:
        if m == INF:
            edges += [(i * r + e, j * r + e, 2) for e in range(r)]
            continue
        obj = edge_object(g, (i, j, m))
        for f in range(r):
            row = multiply(ring, obj, FusionElement.simple(ring, f)).coefficients
            edges += [(i * r + e, j * r + f, 1) for e, c in enumerate(row) if c]
    return UnfoldedGraph(g, ring, vertices, tuple(sorted(edges)))


def table_pairs(A):
    """The product table as all_pairs_table writes it."""
    return {
        (i, j): ((k, 1),) for i, row in enumerate(A.products) for j, k in row.items()
    }


def ref_duals(A):
    """Each basis path's partner, over the labelled comultiplication
    terms x (x) y at every vertex."""
    partner = {
        x: y
        for v in range(len(A.quiver.vertices))
        for pairs in ref_frobenius_comult(A, v).values()
        for x, y in pairs
    }
    return tuple(partner[p] for p in range(A.dim))


def basis_scan(A):
    scan = [{} for _ in A.quiver.vertices]
    for b in range(A.dim):
        scan[A.source(b)].setdefault(A.target(b), []).append(b)
    return scan


def ref_arrow_suffix(A, i):
    # multiplicity of the arrow's edge by a scan of the quiver's edges
    _, u, v, a = A.basis[i]
    m = next(m for i2, j2, m in A.quiver.edges if {i2, j2} == {u, v})
    return f"_{a}" if m > 1 else ""


@pytest.mark.parametrize("name", sorted(CORPUS_JSON) + ["chain579"])
def test_paths_out_matches_basis_scan(algebras, name):
    A = algebras[name]
    assert [
        {t: list(ps) for t, ps in row.items()} for row in A.paths_out
    ] == basis_scan(A)


@pytest.mark.parametrize("name", sorted(CORPUS_JSON) + ["chain579"])
def test_basis_tables_match_the_labels(algebras, name):
    A = algebras[name]
    assert A.sources == tuple(A.source(b) for b in range(A.dim))
    assert A.targets == tuple(A.target(b) for b in range(A.dim))
    assert A.degrees == tuple(A.degree(b) for b in range(A.dim))


@pytest.mark.parametrize("name", sorted(CORPUS_JSON) + ["chain579"])
def test_local_product_table_matches_all_pairs(algebras, name):
    A = algebras[name]
    assert table_pairs(A) == all_pairs_table(A)
    assert A.duals == ref_duals(A)


@pytest.mark.parametrize("name", sorted(CORPUS_JSON) + ["chain579"])
def test_unfold_matches_multiply_reference(algebras, name):
    u = algebras[name].quiver
    assert u == ref_unfold(u.base)


@settings(max_examples=40, deadline=None)
@given(data=random_graphs())
def test_direct_structures_match_references_on_random_graphs(data):
    g = parse_graph(graph_json(*data))
    assume(coxeter_fusion_ring(g).rank <= 24)
    u = unfold(g)
    assert u == ref_unfold(g)
    A = build_zigzag(u)
    assert table_pairs(A) == all_pairs_table(A)
    assert A.duals == ref_duals(A)
    assert [{t: list(ps) for t, ps in row.items()} for row in A.paths_out] == (
        basis_scan(A)
    )
    assert A.degrees == tuple(A.degree(b) for b in range(A.dim))
    assert A.sources == tuple(A.source(b) for b in range(A.dim))
    assert A.targets == tuple(A.target(b) for b in range(A.dim))
    for i, b in enumerate(A.basis):
        if b[0] == "arrow":
            assert path_label(A, i).endswith(")" + ref_arrow_suffix(A, i))
