"""Oracles for the fusion rings attached to Coxeter graphs.

Expected multiplication tables below were expanded by hand from the
two-sided fusion-rule inequality; FP-dimensions are pinned against the
closed trigonometric forms and, separately, against the largest
eigenvalue of each multiplication matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxtwist import cli, fusion
from coxtwist.coxgraph import INF, parse_graph
from coxtwist.fusion import (
    MAX_RING_RANK,
    FusionElement,
    FusionRing,
    coxeter_fusion_ring,
    deligne_product,
    edge_object,
    fpdim,
    multiply,
    tlj_even_ring,
    tlj_ring,
)

from conftest import CORPUS_JSON, graph_json
from reference import ref_ring_table

GOLDEN = (1 + math.sqrt(5)) / 2


def simple(r: FusionRing, i: int) -> FusionElement:
    coeffs = [0] * len(r.basis)
    coeffs[i] = 1
    return FusionElement(tuple(coeffs))


def planes(r: FusionRing):
    """N[i][j][k] as plane(i)[j][k]."""
    return tuple(r.plane(i) for i in range(r.rank))


def table_row(r: FusionRing, a: int, b: int) -> tuple[int, ...]:
    return multiply(r, simple(r, a), simple(r, b)).coefficients


def test_tlj4_basis_and_table():
    r = tlj_ring(4)
    assert r.basis == ("Pi0", "Pi1", "Pi2")
    assert r.unit_index == 0
    assert table_row(r, 1, 1) == (1, 0, 1)  # Pi1*Pi1 = Pi0 + Pi2
    assert table_row(r, 2, 1) == (0, 1, 0)  # Pi2*Pi1 = Pi1
    assert table_row(r, 2, 2) == (1, 0, 0)


def test_tlj3_is_sign_ring():
    r = tlj_ring(3)
    assert r.basis == ("Pi0", "Pi1")
    assert table_row(r, 1, 1) == (1, 0)
    assert r.fpdim == pytest.approx((1.0, 1.0))


def test_tlj6_middle_row():
    # the n=6 middle simple, tensored across the whole basis
    r = tlj_ring(6)
    assert r.basis == ("Pi0", "Pi1", "Pi2", "Pi3", "Pi4")
    assert table_row(r, 3, 0) == (0, 0, 0, 1, 0)
    assert table_row(r, 3, 1) == (0, 0, 1, 0, 1)
    assert table_row(r, 3, 2) == (0, 1, 0, 1, 0)
    assert table_row(r, 3, 3) == (1, 0, 1, 0, 0)
    assert table_row(r, 3, 4) == (0, 1, 0, 0, 0)


def test_tlj_fpdims_closed_form():
    r4 = tlj_ring(4)
    assert r4.fpdim == pytest.approx((1.0, math.sqrt(2), 1.0), abs=1e-12)
    r6 = tlj_ring(6)
    s3 = math.sqrt(3)
    assert r6.fpdim == pytest.approx((1.0, s3, 2.0, s3, 1.0), abs=1e-12)


def test_tlj_rejects_small_n():
    with pytest.raises(ValueError):
        tlj_ring(2)
    with pytest.raises(ValueError):
        tlj_ring(0)


def test_even_ring_n3_is_trivial():
    r = tlj_even_ring(3)
    assert r.basis == ("Pi0",)
    assert table_row(r, 0, 0) == (1,)


def test_even_ring_n5_is_fibonacci():
    r = tlj_even_ring(5)
    assert r.basis == ("Pi0", "Pi2")
    assert table_row(r, 1, 1) == (1, 1)  # Pi2*Pi2 = Pi0 + Pi2
    assert r.fpdim == pytest.approx((1.0, GOLDEN), abs=1e-12)


def test_even_ring_n7():
    r = tlj_even_ring(7)
    assert r.basis == ("Pi0", "Pi2", "Pi4")
    assert table_row(r, 1, 1) == (1, 1, 1)
    assert table_row(r, 1, 2) == (0, 1, 1)
    assert table_row(r, 2, 2) == (1, 1, 0)
    # Delta_4 at n=7 wraps back to Delta_1
    assert r.fpdim[2] == pytest.approx(2 * math.cos(math.pi / 7), abs=1e-12)


def test_even_ring_rejects_even_n():
    with pytest.raises(ValueError):
        tlj_even_ring(4)
    with pytest.raises(ValueError):
        tlj_even_ring(2)


def test_deligne_unary_is_identity():
    r = tlj_ring(5)
    assert deligne_product([r]) == r


def test_deligne_unit_factor_keeps_table():
    fib = tlj_even_ring(5)
    prod = deligne_product([tlj_even_ring(3), fib])
    assert len(prod.basis) == 2
    assert prod.basis == ("Pi0*Pi0", "Pi0*Pi2")
    assert planes(prod) == planes(fib)
    assert prod.fpdim == pytest.approx(fib.fpdim)


def test_deligne_tensor_lex_order():
    prod = deligne_product([tlj_ring(4), tlj_even_ring(5)])
    assert prod.basis == (
        "Pi0*Pi0",
        "Pi0*Pi2",
        "Pi1*Pi0",
        "Pi1*Pi2",
        "Pi2*Pi0",
        "Pi2*Pi2",
    )
    assert prod.fpdim == pytest.approx(
        (1.0, GOLDEN, math.sqrt(2), math.sqrt(2) * GOLDEN, 1.0, GOLDEN)
    )
    # componentwise product: (Pi1*Pi2)(Pi1*Pi2) = (Pi0+Pi2) x (Pi0+Pi2)
    assert table_row(prod, 3, 3) == (1, 1, 0, 0, 1, 1)


def test_deligne_empty_rejected():
    with pytest.raises(ValueError):
        deligne_product([])


def test_deligne_is_associative_on_the_nose():
    a, b, c = tlj_ring(4), tlj_even_ring(5), tlj_ring(3)
    assert deligne_product([deligne_product([a, b]), c]) == deligne_product([a, b, c])
    assert deligne_product([a, deligne_product([b, c])]) == deligne_product([a, b, c])


def test_coxeter_ring_simply_laced_is_rank_one():
    g = parse_graph(CORPUS_JSON["a3"])
    r = coxeter_fusion_ring(g)
    assert r.basis == ("Pi0",)


def test_coxeter_ring_infinite_labels_ignored():
    g = parse_graph(CORPUS_JSON["rank2_inf"])
    assert coxeter_fusion_ring(g).basis == ("Pi0",)


def test_coxeter_ring_55inf_chain_is_fibonacci():
    g = parse_graph(
        '{"vertices":["s","t","u","v"],"edges":['
        '{"ends":["s","t"],"m":5},{"ends":["t","u"],"m":5},'
        '{"ends":["u","v"],"m":"inf"}]}'
    )
    r = coxeter_fusion_ring(g)
    assert r.basis == ("Pi0", "Pi2")
    assert table_row(r, 1, 1) == (1, 1)


def test_coxeter_ring_chain45():
    g = parse_graph(CORPUS_JSON["chain45"])
    r = coxeter_fusion_ring(g)
    assert len(r.basis) == 6
    assert r.basis[0] == "Pi0*Pi0"
    assert r == deligne_product([tlj_ring(4), tlj_even_ring(5)])


def test_coxeter_ring_affine_g2():
    g = parse_graph(CORPUS_JSON["g2_affine"])
    r = coxeter_fusion_ring(g)
    # factors ordered by increasing label: C_3 (trivial) then TLJ_6
    assert r.basis == ("Pi0*Pi0", "Pi0*Pi1", "Pi0*Pi2", "Pi0*Pi3", "Pi0*Pi4")
    assert planes(r) == planes(tlj_ring(6))


def test_edge_object_label3_is_unit():
    g = parse_graph(CORPUS_JSON["a2"])
    assert edge_object(g, ("s", "t")).coefficients == (1,)


def test_edge_object_label5():
    g = parse_graph(CORPUS_JSON["i2_5"])
    el = edge_object(g, ("s", "t"))
    assert el.coefficients == (0, 1)  # Pi2 in the Fibonacci basis
    assert edge_object(g, ("t", "s")) == el


def test_edge_object_infinite_label_is_twice_unit():
    g = parse_graph(CORPUS_JSON["rank2_inf"])
    assert edge_object(g, ("s", "t")).coefficients == (2,)


def test_edge_object_in_product_ring():
    g = parse_graph(CORPUS_JSON["chain45"])
    assert edge_object(g, ("s", "t")).coefficients == (0, 0, 1, 0, 0, 0)
    assert edge_object(g, ("t", "u")).coefficients == (0, 1, 0, 0, 0, 0)


def test_edge_object_rejects_non_edge():
    g = parse_graph(CORPUS_JSON["chain45"])
    with pytest.raises(ValueError):
        edge_object(g, ("s", "u"))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_edge_object_fpdim_matches_cosine(m):
    g = parse_graph(
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":%d}]}' % m
    )
    r = coxeter_fusion_ring(g)
    el = edge_object(g, ("s", "t"))
    assert abs(fpdim(r, el) - 2 * math.cos(math.pi / m)) < 1e-12


def test_edge_object_fpdim_infinite_label():
    g = parse_graph(CORPUS_JSON["rank2_inf"])
    r = coxeter_fusion_ring(g)
    assert fpdim(r, edge_object(g, ("s", "t"))) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "doc",
    [*CORPUS_JSON.values(), graph_json("abcd", [("a", "b", 5), ("b", "c", 7), ("c", "d", 9)])],
)
def test_edge_object_is_read_off_the_graph_ring(doc):
    # edge_object reads the ring's rank off the edge labels; the ring
    # itself must agree: twice its unit for inf, a simple of FP-dimension
    # 2cos(pi/m) for a finite label m
    g = parse_graph(doc)
    r = coxeter_fusion_ring(g)
    for i, j, m in g.edges:
        el = edge_object(g, (i, j, m))
        assert len(el.coefficients) == r.rank
        if m == INF:
            assert el == FusionElement.unit(r) + FusionElement.unit(r)
        else:
            assert sorted(el.coefficients) == [0] * (r.rank - 1) + [1]
            assert fpdim(r, el) == pytest.approx(2 * math.cos(math.pi / m))


class TableBuilt(Exception):
    pass


@pytest.fixture
def no_ring_tables(monkeypatch):
    """Make every ring constructor raise TableBuilt if it is called."""

    def refuse(*args):
        raise TableBuilt(args)

    for name in ("tlj_ring", "tlj_even_ring", "deligne_product"):
        monkeypatch.setattr(fusion, name, refuse)


def test_ring_over_the_budget_is_refused_before_any_table(no_ring_tables):
    g = parse_graph(graph_json(["s", "t"], [("s", "t", 10**6)]))
    with pytest.raises(ValueError, match="rank 999999 is over the ring-size budget"):
        coxeter_fusion_ring(g)
    with pytest.raises(ValueError, match="ring-size budget"):
        edge_object(g, ("s", "t"))


@pytest.mark.parametrize(
    "labels, rank",
    [((5, 7, 9, 11), 120), ((2 * MAX_RING_RANK + 1,), MAX_RING_RANK), ((4, 6, 7), 45)],
)
def test_ring_within_the_budget_is_built(no_ring_tables, labels, rank):
    # an even label n gives a factor n - 1, an odd one (n - 1) / 2; a ring
    # within the budget gets as far as its tables
    names = [f"v{k}" for k in range(len(labels) + 1)]
    edges = [(names[k], names[k + 1], m) for k, m in enumerate(labels)]
    g = parse_graph(graph_json(names, edges))
    assert math.prod(fusion._factor_ranks(labels)) == rank
    with pytest.raises(TableBuilt):
        coxeter_fusion_ring(g)


@pytest.mark.parametrize("m", [MAX_RING_RANK + 2, 2 * MAX_RING_RANK + 3])
def test_ring_one_over_the_budget_is_refused(no_ring_tables, m):
    g = parse_graph(graph_json(["s", "t"], [("s", "t", m)]))
    with pytest.raises(ValueError, match=f"rank {MAX_RING_RANK + 1} is over"):
        coxeter_fusion_ring(g)


@pytest.mark.parametrize(
    "argv",
    [
        ["fusion-table"],
        ["unfold"],
        ["zigzag-info"],
        ["act", "s t", "--on", "s"],
        ["is-identity", "s s^-1"],
        ["burau", "s"],
        ["roots"],
        ["coxeter-eq", "s", "t"],
    ],
)
def test_cli_exits_2_over_the_ring_budget(no_ring_tables, tmp_path, capsys, argv):
    path = tmp_path / "big.json"
    path.write_text(graph_json(["s", "t"], [("s", "t", 10**6)]))
    res = cli.run([argv[0], str(path), *argv[1:]])
    assert (res.exit_code, res.stdout) == (2, "")
    assert f"ring-size budget of {MAX_RING_RANK} simples" in capsys.readouterr().err


def test_multiply_bilinear_oracle():
    r = tlj_ring(4)
    a = FusionElement((0, 1, 1))  # Pi1 + Pi2
    b = simple(r, 1)
    assert multiply(r, a, b).coefficients == (1, 1, 1)


def test_multiply_rejects_length_mismatch():
    r = tlj_ring(4)
    with pytest.raises(ValueError):
        multiply(r, FusionElement((1, 0)), simple(r, 0))


def test_fpdim_of_unit():
    r = coxeter_fusion_ring(parse_graph(CORPUS_JSON["chain45"]))
    assert fpdim(r, simple(r, 0)) == pytest.approx(1.0)


def _named_rings():
    rings = {f"tlj{n}": tlj_ring(n) for n in (3, 4, 5, 6, 7)}
    rings |= {f"even{n}": tlj_even_ring(n) for n in (3, 5, 7, 9)}
    rings["prod45"] = deligne_product([tlj_ring(4), tlj_even_ring(5)])
    rings["affine_g2"] = coxeter_fusion_ring(parse_graph(CORPUS_JSON["g2_affine"]))
    return rings


RINGS = _named_rings()


def reference_factors(labels):
    """The (n, labels) factors of the ring of these finite edge labels."""
    return tuple(
        (n, range(n - 1) if n % 2 == 0 else range(0, n - 2, 2))
        for n in sorted(set(labels))
    ) or ((3, range(1)),)


# edge labels of a path graph, even and odd mixed, with inf
EDGE_LABELS = st.lists(
    st.one_of(st.integers(min_value=3, max_value=16), st.just("inf")), max_size=5
)


def path_graph_ring(labels):
    """A path graph with these edge labels and its ring; Hypothesis
    rejects the draw when the ring is over MAX_RING_RANK."""
    finite = [m for m in labels if m != "inf"]
    sizes = [n - 1 if n % 2 == 0 else (n - 1) // 2 for n in set(finite)]
    assume(math.prod(sizes) <= MAX_RING_RANK)
    names = [f"v{k}" for k in range(len(labels) + 1)]
    edges = [(names[k], names[k + 1], m) for k, m in enumerate(labels)]
    g = parse_graph(graph_json(names, edges))
    return g, coxeter_fusion_ring(g)


@settings(max_examples=40, deadline=None)
@example(labels=[5, 7, 9, 11])  # rank 120, the largest ring the tests build
@given(labels=EDGE_LABELS)
def test_graph_ring_planes_equal_the_reference_table(labels):
    # a path graph with these edge labels; its ring is one factor per
    # distinct finite label, and each plane is the reference table's
    finite = [m for m in labels if m != "inf"]
    _, r = path_graph_ring(labels)
    assert r.factors == reference_factors(finite)
    assert planes(r) == ref_ring_table(r.factors)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_invariants(name):
    r = RINGS[name]
    N = planes(r)
    size = len(r.basis)
    u = r.unit_index
    assert u == 0
    for j in range(size):
        for k in range(size):
            assert N[u][j][k] == (1 if j == k else 0)
            assert N[j][u][k] == (1 if j == k else 0)
    for i in range(size):
        for j in range(size):
            assert N[i][j][u] == (1 if i == j else 0)
            for k in range(size):
                assert N[i][j][k] == N[j][i][k]
                assert N[i][j][k] >= 0
    for i in range(size):
        for j in range(size):
            for l in range(size):
                for m_ in range(size):
                    lhs = sum(N[i][j][k] * N[k][l][m_] for k in range(size))
                    rhs = sum(N[j][l][k] * N[i][k][m_] for k in range(size))
                    assert lhs == rhs


@pytest.mark.parametrize("name", sorted(RINGS))
def test_fpdim_is_ring_homomorphism(name):
    r = RINGS[name]
    N = planes(r)
    size = len(r.basis)
    assert all(d >= 1.0 - 1e-12 for d in r.fpdim)
    for i in range(size):
        for j in range(size):
            total = sum(N[i][j][k] * r.fpdim[k] for k in range(size))
            assert abs(r.fpdim[i] * r.fpdim[j] - total) < 1e-9


@pytest.mark.parametrize("name", sorted(RINGS))
def test_fpdim_matches_perron_eigenvalue(name):
    # independent route: spectral radius of each multiplication matrix
    r = RINGS[name]
    N = planes(r)
    size = len(r.basis)
    for i in range(size):
        mat = np.array([[N[i][j][k] for j in range(size)] for k in range(size)])
        top = max(np.linalg.eigvals(mat).real)
        assert abs(top - r.fpdim[i]) < 1e-9


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 12])
def test_chebyshev_recurrence(n):
    r = tlj_ring(n)
    d = 2 * math.cos(math.pi / n)
    for k in range(1, n - 2):
        assert abs(r.fpdim[k + 1] - (d * r.fpdim[k] - r.fpdim[k - 1])) < 1e-9


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=12))
def test_tlj_invariants_for_random_n(n):
    r = tlj_ring(n)
    N = planes(r)
    size = len(r.basis)
    assert size == n - 1
    for i in range(size):
        for j in range(size):
            assert N[i][j][0] == (1 if i == j else 0)
            for k in range(size):
                assert N[i][j][k] == N[j][i][k]
    # fpdim symmetry under the top simple
    for k in range(size):
        assert abs(r.fpdim[k] - r.fpdim[size - 1 - k]) < 1e-9


def test_ring_caches_stay_bounded_over_many_graphs():
    # a loop over more distinct graphs and labels than the caches hold
    # keeps each cache at its bound, and an evicted ring rebuilds equal
    caches = (
        (coxeter_fusion_ring, fusion.RING_CACHE_SIZE),
        (tlj_ring, fusion.TLJ_CACHE_SIZE),
        (tlj_even_ring, fusion.TLJ_CACHE_SIZE),
    )
    first = coxeter_fusion_ring(parse_graph(graph_json(["s", "t"], [("s", "t", 5)])))
    graphs = [parse_graph(graph_json([f"v{k}"], [])) for k in range(2 * fusion.RING_CACHE_SIZE)]
    graphs += [
        parse_graph(graph_json(["s", "t"], [("s", "t", m)]))
        for m in range(3, 3 + 2 * fusion.TLJ_CACHE_SIZE + 2)
    ]
    for g in graphs:
        assert coxeter_fusion_ring(g).rank >= 1
        for cached, size in caches:
            info = cached.cache_info()
            assert info.maxsize == size and info.currsize <= size
    assert all(cached.cache_info().currsize == size for cached, size in caches)
    again = coxeter_fusion_ring(parse_graph(graph_json(["s", "t"], [("s", "t", 5)])))
    assert again == first
