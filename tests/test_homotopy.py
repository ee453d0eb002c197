"""Oracles for complexes, Gaussian elimination, and the twist action."""

import functools
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtwist import cli, homotopy
from coxtwist.coxgraph import INF, GraphError, InvariantError, braid_letters, parse_graph
from coxtwist.fusion import coxeter_fusion_ring
from coxtwist.homotopy import (
    Complex,
    _check_complex,
    apply_braid_word,
    burau_shift,
    complex_class,
    dual_twist,
    gaussian_eliminate,
    is_identity_word,
    make_complex,
    projective_complex,
    recognize_shift,
    twist,
    words_equal,
)
from coxtwist.lattice import burau_column, burau_word
from coxtwist.unfolding import lcm_translate, unfold
from coxtwist.zigzag import build_zigzag, multiply_combo

from conftest import CORPUS_JSON, graph_json
from reference import dense_cone, ref_dual_twist, ref_twist

ONE = Fraction(1)


def setup(name):
    g = parse_graph(CORPUS_JSON[name])
    u = unfold(g)
    return g, u, build_zigzag(u)


def single_vertex():
    g = parse_graph(graph_json(["s"], []))
    u = unfold(g)
    return g, u, build_zigzag(u)


def summand_multiset(c):
    return sorted(
        (i, v, k) for i, ss in c.terms.items() for (v, k) in ss
    )


def is_minimal(A, c):
    return all(
        not any(A.basis[b][0] == "e" for b, _ in entry)
        for mat in c.diffs.values()
        for row in mat
        for entry in row.values()
    )


def has_int_coefficients(c):
    return all(
        type(co) is int
        for mat in c.diffs.values()
        for row in mat
        for entry in row.values()
        for _, co in entry
    )


def test_projective_complex_shape():
    _, _, A = setup("a2")
    c = projective_complex(A, 0)
    assert c.terms == {0: ((0, 0),)}
    assert c.diffs == {}
    c2 = projective_complex(A, 1, 3, -2)
    assert c2.terms == {-2: ((1, 3),)}


def test_projective_complex_unknown_vertex():
    _, _, A = setup("a2")
    with pytest.raises(GraphError):
        projective_complex(A, 9)


def test_projective_complex_classes():
    _, _, A = setup("a2")
    assert complex_class(A, projective_complex(A, 0)) == (((0, 1),), ())
    # [1] negates, <2> multiplies by q^2
    assert complex_class(A, projective_complex(A, 0, 2, -1)) == (((2, -1),), ())
    for k in range(-3, 4):
        c = projective_complex(A, 1, k, -k)
        sign = 1 if k % 2 == 0 else -1
        assert complex_class(A, c) == ((), ((k, sign),))


def test_eliminate_contractible_pair():
    _, _, A = setup("a2")
    e0 = A.basis.index(("e", 0))
    c = make_complex(
        A,
        {0: ((0, 0),), 1: ((0, 0),)},
        {0: ((((e0, ONE),),),)},
    )
    out = gaussian_eliminate(A, c)
    assert out.terms == {} and out.diffs == {}


def test_eliminate_cone_of_identity_plus_loop():
    _, _, A = setup("a2")
    e0 = A.basis.index(("e", 0))
    x0 = A.basis.index(("X", 0))
    c = make_complex(
        A,
        {-1: ((0, 0), (0, 2)), 0: ((0, 0),)},
        {-1: ((((e0, ONE),),), (((x0, ONE),),))},
    )
    out = gaussian_eliminate(A, c)
    assert out == make_complex(A, {-1: ((0, 2),)}, {})


def test_eliminate_refuses_a_non_unit_pivot():
    # over the integers 2.e_0 is not invertible, so it cannot be struck out
    _, _, A = setup("a2")
    e0 = A.basis.index(("e", 0))
    c = make_complex(A, {0: ((0, 0),), 1: ((0, 0),)}, {0: ({0: ((e0, 2),)},)})
    with pytest.raises(InvariantError, match="not a unit"):
        gaussian_eliminate(A, c)


def test_eliminate_keeps_minimal_complex():
    _, _, A = setup("a2")
    a01 = A.basis.index(("arrow", 0, 1, 0))
    c = make_complex(
        A,
        {-1: ((0, 1),), 0: ((1, 0),)},
        {-1: ((((a01, ONE),),),)},
    )
    assert gaussian_eliminate(A, c) is c


def test_twist_of_own_projective():
    _, _, A = setup("a2")
    out = twist(A, 0, projective_complex(A, 0))
    assert out == make_complex(A, {-1: ((0, 2),)}, {})
    assert complex_class(A, out) == (((2, -1),), ())


def test_twist_of_adjacent_projective():
    _, _, A = setup("a2")
    a01 = A.basis.index(("arrow", 0, 1, 0))
    out = twist(A, 0, projective_complex(A, 1))
    want = make_complex(
        A,
        {-1: ((0, 1),), 0: ((1, 0),)},
        {-1: ((((a01, ONE),),),)},
    )
    assert out == want
    assert complex_class(A, out) == (((1, -1),), ((0, 1),))


def test_twist_of_distant_projective():
    _, _, A = setup("a3")
    # vertices s,t,u unfold to 0,1,2; s and u are not adjacent
    out = twist(A, 0, projective_complex(A, 2))
    assert out == projective_complex(A, 2)


def test_twist_across_double_bond():
    _, _, A = setup("rank2_inf")
    a0 = A.basis.index(("arrow", 0, 1, 0))
    a1 = A.basis.index(("arrow", 0, 1, 1))
    out = twist(A, 0, projective_complex(A, 1))
    want = make_complex(
        A,
        {-1: ((0, 1), (0, 1)), 0: ((1, 0),)},
        {-1: ((((a0, ONE),),), (((a1, ONE),),))},
    )
    assert out == want
    assert complex_class(A, out) == (((1, -2),), ((0, 1),))


def test_dual_twist_of_own_projective():
    _, _, A = setup("a2")
    out = dual_twist(A, 0, projective_complex(A, 0))
    assert out == make_complex(A, {1: ((0, -2),)}, {})
    assert complex_class(A, out) == (((-2, -1),), ())


@pytest.mark.parametrize("name", ["a2", "i2_5", "rank2_inf"])
def test_twist_inversion_on_projectives(name):
    _, u, A = setup(name)
    for x in range(len(u.vertices)):
        p = projective_complex(A, x)
        for v in range(len(u.vertices)):
            assert dual_twist(A, v, twist(A, v, p)) == p
            assert twist(A, v, dual_twist(A, v, p)) == p


def test_twist_inversion_on_a_word_image():
    # minimal forms of isomorphic complexes can differ by positive-degree
    # base changes, so compare the Krull-Schmidt invariants here
    _, u, A = setup("i2_5")
    c = apply_braid_word(A, u, ("s", "t", ("s", -1), "t"), projective_complex(A, 2))
    assert is_minimal(A, c)
    for v in range(len(u.vertices)):
        back = dual_twist(A, v, twist(A, v, c))
        assert summand_multiset(back) == summand_multiset(c)
        assert complex_class(A, back) == complex_class(A, c)


def test_fiber_twists_commute():
    _, u, A = setup("i2_5")
    p = projective_complex(A, 2)
    pairs = [u.index(x) for x in (("s", "Pi0"), ("s", "Pi2"))]
    one_way = twist(A, pairs[1], twist(A, pairs[0], p))
    other = twist(A, pairs[0], twist(A, pairs[1], p))
    assert one_way == other
    assert apply_braid_word(A, u, ("s",), p) == one_way


def test_randomized_pivots_give_same_summands():
    _, u, A = setup("i2_5")
    c = projective_complex(A, 0)
    for v in (0, 3, 1, 2):
        c = twist(A, v, c, eliminate=False)
    det = gaussian_eliminate(A, c)
    for seed in range(5):
        out = gaussian_eliminate(A, c, rng=random.Random(seed))
        assert summand_multiset(out) == summand_multiset(det)
        assert complex_class(A, out) == complex_class(A, det)


def test_class_invariant_under_elimination():
    _, u, A = setup("a2")
    c = twist(A, 0, twist(A, 1, projective_complex(A, 0), eliminate=False),
              eliminate=False)
    assert complex_class(A, c) == complex_class(A, gaussian_eliminate(A, c))


def test_braid_relation_m2():
    g = parse_graph(graph_json(["s", "t"], []))
    u = unfold(g)
    A = build_zigzag(u)
    for x in range(2):
        p = projective_complex(A, x)
        assert apply_braid_word(A, u, ("s", "t"), p) == apply_braid_word(
            A, u, ("t", "s"), p
        )


@pytest.mark.parametrize("name", ["a2", "i2_4"])
def test_braid_relation_small(name):
    g, u, A = setup(name)
    m = {"a2": 3, "i2_4": 4}[name]
    w1 = tuple("st"[i % 2] for i in range(m))
    w2 = tuple("ts"[i % 2] for i in range(m))
    for x in range(len(u.vertices)):
        p = projective_complex(A, x)
        assert apply_braid_word(A, u, w1, p) == apply_braid_word(A, u, w2, p)


def test_half_twist_sends_projectives_to_projectives():
    _, u, A = setup("i2_5")
    word = tuple("st"[i % 2] for i in range(5))
    for x in range(len(u.vertices)):
        out = apply_braid_word(A, u, word, projective_complex(A, x))
        assert sum(len(ss) for ss in out.terms.values()) == 1


def test_infinite_braid_words_never_agree():
    _, u, A = setup("rank2_inf")
    for length in range(1, 7):
        w1 = tuple("st"[i % 2] for i in range(length))
        w2 = tuple("ts"[i % 2] for i in range(length))
        agree = all(
            apply_braid_word(A, u, w1, projective_complex(A, x))
            == apply_braid_word(A, u, w2, projective_complex(A, x))
            for x in range(2)
        )
        assert not agree


@pytest.mark.parametrize("name", ["a2", "i2_5", "rank2_inf"])
def test_decategorification_matches_burau(name):
    g, u, A = setup(name)
    g2 = u.as_coxeter_graph()
    ring2 = coxeter_fusion_ring(g2)
    rng = random.Random(3)
    for _ in range(8):
        word = tuple(
            (rng.choice(g.vertices), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 5))
        )
        x = rng.randrange(len(u.vertices))
        out = apply_braid_word(A, u, word, projective_complex(A, x))
        translated = tuple(
            (f"{s},{lab}", e) for (s, lab), e in lcm_translate(u, word)
        )
        mat = burau_word(g2, ring2, translated)
        assert complex_class(A, out) == burau_column(mat, x)


def test_is_identity_word_basics():
    _, u, A = setup("a2")
    assert is_identity_word(A, u, ())
    assert is_identity_word(A, u, ("s", ("s", -1)))
    relator = ("s", "t", "s", ("t", -1), ("s", -1), ("t", -1))
    assert is_identity_word(A, u, relator)


def test_relator_fails_for_m4():
    _, u, A = setup("i2_4")
    relator = ("s", "t", "s", ("t", -1), ("s", -1), ("t", -1))
    assert not is_identity_word(A, u, relator)


def test_unknown_generator_raises():
    _, u, A = setup("a2")
    with pytest.raises(GraphError):
        apply_braid_word(A, u, ("q",), projective_complex(A, 0))


def test_recognize_shift_empty_word():
    _, u, A = setup("a2")
    assert recognize_shift(A, u, ()) == (0, 0)
    assert recognize_shift(A, u, (), pure=True) == (0, 0)


def test_recognize_shift_single_vertex_square():
    _, u, A = single_vertex()
    assert recognize_shift(A, u, ("s", "s")) == (2, 4)
    assert recognize_shift(A, u, ("s", "s"), pure=True) is None


def test_recognize_shift_none_for_generator():
    _, u, A = setup("a2")
    assert recognize_shift(A, u, ("s",)) is None


def test_words_equal():
    _, u, A = setup("a2")
    w = ("s", ("t", -1), "s")
    assert words_equal(A, u, w, w)
    assert words_equal(A, u, ("s", "t", "s"), ("t", "s", "t"))
    _, u2, A2 = setup("rank2_inf")
    assert not words_equal(A2, u2, ("s", "t"), ("t", "s"))


def test_complex_equality_requires_matching_differentials():
    _, _, A = setup("rank2_inf")
    a0 = A.basis.index(("arrow", 0, 1, 0))
    a1 = A.basis.index(("arrow", 0, 1, 1))
    c0 = make_complex(
        A, {0: ((0, 1),), 1: ((1, 0),)}, {0: ((((a0, ONE),),),)}
    )
    c1 = make_complex(
        A, {0: ((0, 1),), 1: ((1, 0),)}, {0: ((((a1, ONE),),),)}
    )
    assert c0 != c1
    assert isinstance(c0, Complex)


# ------------------------------------------ validation and no-op twists


def nonzero_square(A):
    # P_s<2> -> P_t<1> -> P_s<0> by (s|t) then (t|s): the composite is X_s
    st = A.basis.index(("arrow", 0, 1, 0))
    ts = A.basis.index(("arrow", 1, 0, 0))
    return (
        {0: ((0, 2),), 1: ((1, 1),), 2: ((0, 0),)},
        {0: ((((st, ONE),),),), 1: ((((ts, ONE),),),)},
    )


def test_check_rejects_nonzero_square():
    _, _, A = setup("a2")
    terms, diffs = nonzero_square(A)
    with pytest.raises(InvariantError, match="d.d"):
        make_complex(A, terms, diffs)
    assert issubclass(InvariantError, ArithmeticError)


def test_check_does_not_cancel_across_entries():
    # X_s and -X_s land in different summands, so d.d != 0 even though
    # the paths would cancel if the check pooled rows or columns
    _, _, A = setup("a2")
    st = A.basis.index(("arrow", 0, 1, 0))
    ts = A.basis.index(("arrow", 1, 0, 0))
    plus, minus = ((ts, ONE),), ((ts, -ONE),)
    with pytest.raises(InvariantError, match="d.d"):
        make_complex(
            A,
            {0: ((0, 2),), 1: ((1, 1),), 2: ((0, 0), (0, 0))},
            {0: ((((st, ONE),),),), 1: ((plus, minus),)},
        )
    with pytest.raises(InvariantError, match="d.d"):
        make_complex(
            A,
            {0: ((0, 2), (0, 2)), 1: ((1, 1),), 2: ((0, 0),)},
            {0: ((((st, ONE),),), (((st, -ONE),),)), 1: ((plus,),)},
        )


def test_check_rejects_inhomogeneous_entry():
    _, _, A = setup("a2")
    st = A.basis.index(("arrow", 0, 1, 0))
    with pytest.raises(InvariantError):
        make_complex(A, {0: ((0, 0),), 1: ((1, 0),)}, {0: ((((st, ONE),),),)})


def test_check_rejects_misshapen_matrix():
    _, _, A = setup("a2")
    ts = A.basis.index(("arrow", 1, 0, 0))
    terms = {0: ((1, 1),), 1: ((0, 0),)}
    # two rows for one summand, a short dense row, sparse keys out of range
    for rows in (((), ()), ((),), ({1: ((ts, ONE),)},), ({-1: ((ts, ONE),)},)):
        with pytest.raises(InvariantError):
            make_complex(A, terms, {0: rows})


def broken_sparse_rows(A):
    """Complexes assembled by hand, past make_complex's normalization,
    each breaking one invariant of the sparse rows; coefficients are
    ints, as the check requires of every complex."""
    st_ = A.basis.index(("arrow", 0, 1, 0))
    ts = A.basis.index(("arrow", 1, 0, 0))
    line = {0: ((0, 1),), 1: ((1, 0),)}
    square = {0: ((0, 2),), 1: ((1, 1), (1, 1)), 2: ((0, 0),)}
    return {
        "row count": Complex(line, {0: ({}, {})}),
        "column key": Complex(line, {0: ({1: ((st_, 1),)},)}),
        "stored zero": Complex(line, {0: ({0: ()},)}),
        "inhomogeneous": Complex(
            {0: ((0, 0),), 1: ((1, 0),)}, {0: ({0: ((st_, 1),)},)}
        ),
        # the composite X_s runs through the second middle summand only
        "d.d": Complex(square, {0: ({1: ((st_, 1),)},), 1: ({}, {0: ((ts, 1),)})}),
        # the same shape with the two composites cancelling is a complex
        None: Complex(
            square,
            {
                0: ({0: ((st_, 1),), 1: ((st_, 1),)},),
                1: ({0: ((ts, 1),)}, {0: ((ts, -1),)}),
            },
        ),
    }


@pytest.mark.parametrize("case", ["row count", "column key", "stored zero", "inhomogeneous", "d.d", None])
def test_check_rejects_broken_sparse_rows(case):
    _, _, A = setup("a2")
    c = broken_sparse_rows(A)[case]
    if case is None:
        _check_complex(A, c)
    else:
        with pytest.raises(InvariantError):
            _check_complex(A, c)


def unnormalized_rows(A):
    """Complexes over rank2_inf assembled by hand, each sound as a map
    of complexes but skipping one step of make_complex's normalization."""
    a0 = A.basis.index(("arrow", 0, 1, 0))
    a1 = A.basis.index(("arrow", 0, 1, 1))
    line = {0: ((0, 1),), 1: ((1, 0),)}
    return {
        "fraction": Complex(line, {0: ({0: ((a0, Fraction(1)),)},)}),
        "unsorted summands": Complex(
            {0: ((1, 1), (0, 1)), 1: ((1, 0),)}, {0: ({}, {0: ((a0, 1),)})}
        ),
        "unsorted combo": Complex(line, {0: ({0: ((a1, 1), (a0, 1))},)}),
        "duplicated combo": Complex(line, {0: ({0: ((a0, 1), (a0, 1))},)}),
        "missing row map": Complex(line, {}),
        None: Complex(line, {0: ({0: ((a0, 1), (a1, 1))},)}),
    }


@pytest.mark.parametrize(
    "case",
    ["fraction", "unsorted summands", "unsorted combo", "duplicated combo", "missing row map"],
)
def test_check_rejects_unnormalized_rows(case):
    # the check demands what make_complex's normalization produces, and
    # make_complex turns the same input into a complex that passes
    _, _, A = setup("rank2_inf")
    c = unnormalized_rows(A)[case]
    with pytest.raises(InvariantError, match="not sorted|int coefficients|missing"):
        _check_complex(A, c)
    _check_complex(A, make_complex(A, c.terms, c.diffs))


def test_check_accepts_normalized_rows():
    _, _, A = setup("rank2_inf")
    c = unnormalized_rows(A)[None]
    _check_complex(A, c)
    a0 = A.basis.index(("arrow", 0, 1, 0))
    a1 = A.basis.index(("arrow", 0, 1, 1))
    dense = {0: [[((a1, True), (a0, Fraction(1)))]]}
    assert make_complex(A, c.terms, dense) == c


def test_dense_and_sparse_rows_build_the_same_complex():
    _, _, A = setup("a2")
    e0 = A.basis.index(("e", 0))
    ts = A.basis.index(("arrow", 1, 0, 0))
    # degree 0 is listed unsorted, so rows are permuted; int coefficients
    # are coerced, repeated paths merged, and cancelling entries dropped
    terms = {0: ((1, 1), (0, 0)), 1: ((0, 0), (1, 0))}
    dense = make_complex(
        A, terms, {0: [[((ts, 1),), ((ts, 1), (ts, -1))], [((e0, 1), (e0, 1)), ()]]}
    )
    sparse = make_complex(
        A, terms, {0: ({0: ((ts, ONE),)}, {0: ((e0, Fraction(2)),)})}
    )
    assert dense == sparse
    assert sparse.terms == {0: ((0, 0), (1, 1)), 1: ((0, 0), (1, 0))}
    assert sparse.diffs == {0: ({0: ((e0, Fraction(2)),)}, {0: ((ts, ONE),)})}
    assert has_int_coefficients(sparse)


@pytest.mark.parametrize("co", [Fraction(1, 2), 1.0])
def test_make_complex_refuses_a_non_integral_coefficient(co):
    _, _, A = setup("a2")
    ts = A.basis.index(("arrow", 1, 0, 0))
    with pytest.raises(InvariantError, match="not an integer"):
        make_complex(A, {0: ((1, 1),), 1: ((0, 0),)}, {0: ({0: ((ts, co),)},)})


def test_check_survives_optimized_interpreter():
    import coxtwist

    src = os.path.dirname(os.path.dirname(coxtwist.__file__))
    script = (
        "from fractions import Fraction\n"
        "from coxtwist import InvariantError, build_zigzag, make_complex, parse_graph, unfold\n"
        f"A = build_zigzag(unfold(parse_graph({CORPUS_JSON['a2']!r})))\n"
        "st = A.basis.index(('arrow', 0, 1, 0))\n"
        "ts = A.basis.index(('arrow', 1, 0, 0))\n"
        "one = Fraction(1)\n"
        "try:\n"
        "    make_complex(A, {0: ((0, 2),), 1: ((1, 1),), 2: ((0, 0),)},\n"
        "                 {0: ((((st, one),),),), 1: ((((ts, one),),),)})\n"
        "except InvariantError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit(1)\n"
        "from coxtwist.homotopy import Complex, _check_complex\n"
        "line = {0: ((0, 1),), 1: ((1, 0),)}\n"
        "for diffs in ({0: ({0: ()},)}, {0: ({0: ((st, one),)},)}):\n"
        "    try:\n"
        "        _check_complex(A, Complex(line, diffs))\n"
        "    except InvariantError:\n"
        "        continue\n"
        "    raise SystemExit(2)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_twist_without_path_into_complex_returns_it():
    _, u, A = setup("chain45")
    p = projective_complex(A, u.index(("s", "Pi0*Pi0")))
    far = [v for v in range(len(u.vertices)) if not A.paths_out[v].get(p.terms[0][0][0])]
    assert far
    for v in far:
        assert twist(A, v, p) is p
        assert dual_twist(A, v, p) is p


def test_noop_twist_still_minimizes_when_asked():
    _, u, A = setup("chain45")
    x = u.index(("s", "Pi0*Pi0"))
    e_x = A.basis.index(("e", x))
    # a contractible pair P_x -> P_x, far from the twisting vertex
    c = make_complex(A, {0: ((x, 0),), 1: ((x, 0),)}, {0: ((((e_x, ONE),),),)})
    v = next(v for v in range(len(u.vertices)) if x not in A.paths_out[v])
    assert twist(A, v, c, eliminate=False) is c
    assert dual_twist(A, v, c, eliminate=False) is c
    assert twist(A, v, c) == gaussian_eliminate(A, c) == make_complex(A, {}, {})
    assert dual_twist(A, v, c) == make_complex(A, {}, {})


ROUND_TRIP_GRAPHS = {
    **CORPUS_JSON,
    "chain57": graph_json("abc", [("a", "b", 5), ("b", "c", 7)]),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_GRAPHS))
def test_twist_round_trip_on_random_words(name):
    # a twist whose cone is empty returns its input, so undoing it gives
    # the same complex; otherwise minimal forms may differ by a base
    # change, so compare the Krull-Schmidt invariants
    g = parse_graph(ROUND_TRIP_GRAPHS[name])
    u = unfold(g)
    A = build_zigzag(u)
    rng = random.Random(name)
    seen = {True: 0, False: 0}
    for _ in range(6):
        word = tuple(
            (rng.choice(g.vertices), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 3))
        )
        start = projective_complex(A, rng.randrange(len(u.vertices)))
        c = apply_braid_word(A, u, word, start)
        for v in range(len(u.vertices)):
            noop = not any(x in A.paths_out[v] for ss in c.terms.values() for x, _ in ss)
            seen[noop] += 1
            there, back = twist(A, v, c), dual_twist(A, v, c)
            for out in (dual_twist(A, v, there), twist(A, v, back)):
                if noop:
                    assert there is c and back is c and out is c
                else:
                    assert summand_multiset(out) == summand_multiset(c)
                    assert complex_class(A, out) == complex_class(A, c)
    assert seen[False]
    if len(u.vertices) > 2:
        assert seen[True]


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_GRAPHS))
def test_shared_cone_matches_the_separate_constructions(name):
    g = parse_graph(ROUND_TRIP_GRAPHS[name])
    u = unfold(g)
    A = build_zigzag(u)
    rng = random.Random(f"cone-{name}")
    for _ in range(3):
        word = tuple(
            (rng.choice(g.vertices), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 3))
        )
        c = apply_braid_word(A, u, word, projective_complex(A, rng.randrange(len(u.vertices))))
        for v in range(len(u.vertices)):
            for eliminate in (False, True):
                assert homotopy._cone(A, v, c, eliminate, -1) == ref_twist(A, v, c, eliminate)
                assert homotopy._cone(A, v, c, eliminate, 1) == ref_dual_twist(
                    A, v, c, eliminate
                )


def letter_users():
    g, u, A = setup("i2_5")
    ring = coxeter_fusion_ring(g)
    p = projective_complex(A, 0)
    return {
        "burau_word": lambda w: burau_word(g, ring, w),
        "apply_braid_word": lambda w: apply_braid_word(A, u, w, p),
        "is_identity_word": lambda w: is_identity_word(A, u, w),
        "words_equal_first": lambda w: words_equal(A, u, w, ("s",)),
        "words_equal_second": lambda w: words_equal(A, u, ("s",), w),
        "lcm_translate": lambda w: lcm_translate(u, w),
    }


@pytest.mark.parametrize(
    "user",
    [
        "burau_word",
        "apply_braid_word",
        "is_identity_word",
        "words_equal_first",
        "words_equal_second",
        "lcm_translate",
    ],
)
def test_braid_letters_take_one_exponent_rule(user):
    fn = letter_users()[user]
    for exp in (2, 0):
        with pytest.raises(ValueError, match="exponent"):
            fn(("t", ("s", exp)))
    assert fn(("s", ("t", -1))) == fn((("s", 1), ("t", -1)))


def test_braid_letters_normalize_names():
    assert braid_letters(("s", ("t", -1), ("u", 1))) == (("s", 1), ("t", -1), ("u", 1))
    assert braid_letters(()) == ()


def all_vertex_plan(A, plan, c):
    """The reference for homotopy._apply_plan: every letter twists at
    every vertex of its fiber, the empty cones included."""
    for exp, vertices in plan:
        op = twist if exp == 1 else dual_twist
        for v in vertices:
            c = op(A, v, c)
    return c


def cone_is_empty(A, v, c):
    """No basis path runs from v to a summand of c, by a basis scan."""
    live = {u for summands in c.terms.values() for u, _ in summands}
    return not any(
        A.source(b) == v and A.target(b) in live for b in range(A.dim)
    )


def test_braid_words_call_the_module_twists(monkeypatch):
    # the perfbench tracer patches these two names and reads their
    # results; a letter calls them at exactly the vertices of its fiber
    # whose cone is nonempty, in fiber order, and skips the rest
    calls = []

    def counting(real):
        def wrapper(A, v, c, *args, **kwargs):
            calls.append((real.__name__, v))
            return real(A, v, c, *args, **kwargs)

        return wrapper

    cases = (
        ("i2_5", ("s", ("t", -1), "s", "t")),
        ("g2_affine", ("a", "b", ("c", -1), ("b", -1), "a")),
        ("l579", ("a", ("b", -1), "c", ("b", -1), "d")),
    )
    for name, word in cases:
        _, u, A = sweep_setup(name)
        plan = homotopy._fiber_plan(u, word)
        want, c = [], projective_complex(A, 0)
        for exp, vertices in plan:
            op = twist if exp == 1 else dual_twist
            for v in vertices:
                if not cone_is_empty(A, v, c):
                    want.append((op.__name__, v))
                c = op(A, v, c)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(homotopy, "twist", counting(twist))
            m.setattr(homotopy, "dual_twist", counting(dual_twist))
            assert apply_braid_word(A, u, word, projective_complex(A, 0)) == c
        assert calls == want
        assert 0 < len(calls) < sum(len(vertices) for _, vertices in plan)


# The word problems start from the unit fiber only.  The sweep over every
# unfolded vertex is kept here as the reference they must agree with.
def full_sweep(A, u, word):
    """The image of every projective under the word, by vertex index,
    twisting at every fiber vertex."""
    plan = homotopy._fiber_plan(u, word)
    return [
        all_vertex_plan(A, plan, projective_complex(A, x))
        for x in range(len(u.vertices))
    ]


def ref_is_identity(A, images):
    return all(out == projective_complex(A, x) for x, out in enumerate(images))


def ref_shift(images, pure=False):
    result = None
    for x, out in enumerate(images):
        if len(out.terms) != 1:
            return None
        ((deg, summands),) = out.terms.items()
        if len(summands) != 1:
            return None
        v, k = summands[0]
        if v != x or (pure and k != 0):
            return None
        if result is None:
            result = (-deg, k)
        elif result != (-deg, k):
            return None
    return result


def inverse_word(word):
    return tuple((name, -exp) for name, exp in reversed(braid_letters(word)))


def alternating(s, t, m):
    return tuple((s, t)[k % 2] for k in range(m))


SWEEP_GRAPHS = {
    **ROUND_TRIP_GRAPHS,
    "l579": graph_json("abcd", [("a", "b", 5), ("b", "c", 7), ("c", "d", 9)]),
}
# the reference sweep grows with the ring rank (24 on the 5-7-9 chain)
# and the complexes with the word, so large rings get shorter words; the
# 5-7-9 chain keeps only relators of length 4 (its m = 9 braid relation
# takes seconds per full sweep)
MAX_LETTERS = {"chain45": 2, "chain57": 2, "g2_affine": 2, "l579": 1}
MAX_RELATOR = {"l579": 4}


@functools.cache
def sweep_setup(name):
    g = parse_graph(SWEEP_GRAPHS[name])
    u = unfold(g)
    return g, u, build_zigzag(u)


def relators(g):
    """Words that act trivially: inverse pairs, and for each pair of
    vertices with a finite label m, the braid relation of length 2m."""
    out = [((s, 1), (s, -1)) for s in g.vertices]
    for i, s in enumerate(g.vertices):
        for t in g.vertices[i + 1:]:
            m = g.label(i, g.index(t))
            if m != INF:
                out.append(alternating(s, t, m) + inverse_word(alternating(t, s, m)))
    return out


@st.composite
def sweep_cases(draw):
    name = draw(st.sampled_from(sorted(SWEEP_GRAPHS)))
    g, _, _ = sweep_setup(name)
    cap = MAX_LETTERS.get(name, 3)
    letter = st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1)))
    word = tuple(draw(st.lists(letter, max_size=cap)))
    if draw(st.booleans()):
        # a conjugated relator, which must act trivially
        kept = [r for r in relators(g) if len(r) <= MAX_RELATOR.get(name, len(r))]
        word = word + draw(st.sampled_from(kept)) + inverse_word(word)
    other = tuple(draw(st.lists(letter, max_size=cap)))
    return name, word, other


@settings(max_examples=50, deadline=None)
@given(case=sweep_cases())
def test_unit_fiber_sweep_matches_the_full_sweep(case):
    name, word, other = case
    _, u, A = sweep_setup(name)
    images = full_sweep(A, u, word)
    assert is_identity_word(A, u, word) == ref_is_identity(A, images)
    for pure in (False, True):
        assert recognize_shift(A, u, word, pure) == ref_shift(images, pure)
    # word . other equals other exactly when word acts trivially
    assert words_equal(A, u, word + other, other) == ref_is_identity(A, images)


FULL_TWIST_GRAPHS = {
    **CORPUS_JSON,
    "i2_6": graph_json("st", [("s", "t", 6)]),
    "h3": graph_json("stu", [("s", "t", 5), ("t", "u", 3)]),
    "b3": graph_json("stu", [("s", "t", 4), ("t", "u", 3)]),
    "d4": graph_json("stuv", [("s", "t", 3), ("t", "u", 3), ("t", "v", 3)]),
}


# The shift of delta alone, where it is one: on H3 and D4, not on B3,
# whose unfolding has a nontrivial diagram automorphism.
HALF_TWIST_SHIFTS = {"h3": (9, 10), "d4": (5, 6)}


# delta is a reduced word for the longest element; on H3, B3 and D4 it is
# c^(h/2) for the Coxeter element c, as w0 = -1 there.  The full twist
# delta^2 shifts by (2h - 2, 2h).
@pytest.mark.parametrize(
    "name, delta, shift",
    [
        ("a2", alternating("s", "t", 3), (4, 6)),
        ("a3", ("s", "t", "s", "u", "t", "s"), (6, 8)),
        ("i2_4", alternating("s", "t", 4), (6, 8)),
        ("i2_5", alternating("s", "t", 5), (8, 10)),
        ("i2_6", alternating("s", "t", 6), (10, 12)),
        ("h3", ("s", "t", "u") * 5, (18, 20)),
        ("b3", ("s", "t", "u") * 3, (10, 12)),
        ("d4", ("s", "t", "u", "v") * 3, (10, 12)),
    ],
)
def test_full_twist_is_a_shift(name, delta, shift):
    u = unfold(parse_graph(FULL_TWIST_GRAPHS[name]))
    A = build_zigzag(u)
    half = HALF_TWIST_SHIFTS.get(name)
    for word, want in ((delta + delta, shift), (delta, half)):
        assert recognize_shift(A, u, word) == ref_shift(full_sweep(A, u, word)) == want
    assert recognize_shift(A, u, delta + delta, pure=True) is None


def test_identity_sweep_starts_once_per_base_vertex(monkeypatch):
    g, u, A = sweep_setup("l579")
    starts = []

    def spy(A, v, *args):
        starts.append(v)
        return projective_complex(A, v, *args)

    monkeypatch.setattr(homotopy, "projective_complex", spy)
    assert is_identity_word(A, u, ("a", ("a", -1)))
    unit = u.ring.basis[u.ring.unit_index]
    # each start is built twice: once to act on, once to compare with
    assert sorted(starts) == sorted(2 * [u.index((s, unit)) for s in g.vertices])
    assert len(starts) == 2 * g.rank < len(u.vertices)


@st.composite
def twist_cases(draw):
    name = draw(st.sampled_from(sorted(SWEEP_GRAPHS)))
    g, u, _ = sweep_setup(name)
    letter = st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1)))
    word = tuple(draw(st.lists(letter, max_size=MAX_LETTERS.get(name, 3))))
    return name, word, draw(st.integers(0, len(u.vertices) - 1))


@settings(max_examples=50, deadline=None)
@given(case=twist_cases())
def test_sparse_twists_equal_the_dense_references(case):
    # equal as values: same summands in the same order, same entries
    name, word, start = case
    _, u, A = sweep_setup(name)
    c = apply_braid_word(A, u, word, projective_complex(A, start))
    for v in range(len(u.vertices)):
        for eliminate in (False, True):
            out, back = twist(A, v, c, eliminate), dual_twist(A, v, c, eliminate)
            assert out == dense_cone(A, v, c, eliminate, -1)
            assert back == dense_cone(A, v, c, eliminate, 1)
            assert has_int_coefficients(out) and has_int_coefficients(back)


def test_large_act_is_pinned(tmp_path, monkeypatch):
    # (s^2 t^-2)^3 on P_s over rank2_inf: 1597 summands, as many as the
    # l1 norm of the Burau column allows, built with few path products
    path = tmp_path / "rank2_inf.json"
    path.write_text(CORPUS_JSON["rank2_inf"])
    calls = []

    def spy(*args):
        calls.append(1)
        return multiply_combo(*args)

    monkeypatch.setattr(homotopy, "multiply_combo", spy)
    res = cli.run(["act", str(path), " ".join(["s s t^-1 t^-1"] * 3), "--on", "s"])
    assert res.exit_code == 0
    assert len(res.stdout.encode()) == 51520
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "0f92f243f001fdf034ff325124caf5350367421d571ea8c841cb542b94619132"
    )
    summands = sum(
        len(line.split(" + ")) for line in res.stdout.splitlines() if line.startswith("deg ")
    )
    g = parse_graph(CORPUS_JSON["rank2_inf"])
    letters = (("s", 1), ("s", 1), ("t", -1), ("t", -1)) * 3
    column = burau_column(burau_word(g, coxeter_fusion_ring(g), letters), g.index("s"))
    assert summands == sum(abs(co) for poly in column for _, co in poly) == 1597
    assert len(calls) <= 6000


def test_twists_build_normalized_complexes_and_check_each(tmp_path, monkeypatch):
    # the twists of (s^2 t^-2)^3 on P_s over rank2_inf build their
    # results already normalized, so no entry is normalized again, and
    # _check_complex validates each cone and each elimination result
    path = tmp_path / "rank2_inf.json"
    path.write_text(CORPUS_JSON["rank2_inf"])
    normalized, checked, twists = [], [], []
    normalize, check = homotopy._normalize_entry, homotopy._check_complex

    def normalize_spy(entry):
        normalized.append(entry)
        return normalize(entry)

    def check_spy(A, c):
        checked.append(c)
        return check(A, c)

    monkeypatch.setattr(homotopy, "_normalize_entry", normalize_spy)
    monkeypatch.setattr(homotopy, "_check_complex", check_spy)
    for name, side in (("twist", -1), ("dual_twist", 1)):

        def spy(A, v, c, eliminate=True, side=side):
            start = len(checked)
            out = homotopy._cone(A, v, c, eliminate, side)
            checks = checked[start:]
            cone = homotopy._cone(A, v, c, False, side)
            twists.append((out is c, checks, cone, out))
            return out

        monkeypatch.setattr(homotopy, name, spy)
    res = cli.run(["act", str(path), " ".join(["s s t^-1 t^-1"] * 3), "--on", "s"])
    assert res.exit_code == 0
    assert normalized == []
    assert len(twists) == 12 and not any(noop for noop, *_ in twists)
    for _, checks, cone, out in twists:
        if out == cone:
            # already minimal: elimination strikes nothing and returns it
            assert checks == [cone]
        else:
            assert len(checks) == 2 and checks == [cone, out]
    assert sum(len(checks) == 2 for _, checks, *_ in twists) == 11


# _apply_plan skips the twists whose cone is empty; the all-vertex loop
# above is its reference, on minimal starts and on complexes from outside
# that still hold an idempotent entry
PLAN_GRAPHS = {
    **CORPUS_JSON,
    "l579": SWEEP_GRAPHS["l579"],
    "h3": FULL_TWIST_GRAPHS["h3"],
}
MAX_PLAN_LETTERS = {"l579": 3}


@functools.cache
def plan_setup(name):
    g = parse_graph(PLAN_GRAPHS[name])
    u = unfold(g)
    return g, u, build_zigzag(u)


def with_contractible_pair(A, c, x, k, i):
    """c plus P_x<k> -e_x-> P_x<k> in degrees i and i + 1, through
    make_complex: a complex that is not minimal."""
    terms = {d: list(ss) for d, ss in c.terms.items()}
    diffs = {d: [dict(row) for row in mat] for d, mat in c.diffs.items()}
    rows = len(terms.get(i, ()))
    terms.setdefault(i, []).append((x, k))
    terms.setdefault(i + 1, []).append((x, k))
    # the new summands come last: a new row at degree i, a new column at
    # degree i + 1, and a zero row above it
    mat = diffs.setdefault(i, [{} for _ in range(rows)])
    mat.append({len(terms[i + 1]) - 1: ((x, 1),)})
    if i + 1 in diffs:
        diffs[i + 1].append({})
    return make_complex(A, terms, diffs)


@st.composite
def plan_cases(draw):
    name = draw(st.sampled_from(sorted(PLAN_GRAPHS)))
    g, u, A = plan_setup(name)
    cap = MAX_PLAN_LETTERS.get(name, 4)
    letter = st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1)))
    vertex = st.integers(0, len(u.vertices) - 1)
    start = projective_complex(
        A, draw(vertex), draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
    )
    prefix = homotopy._fiber_plan(u, draw(st.lists(letter, max_size=2)))
    c = all_vertex_plan(A, prefix, start)
    kind = draw(st.sampled_from(("projective", "pair", "cone")))
    if kind == "pair":
        c = with_contractible_pair(
            A, c, draw(vertex), draw(st.integers(-2, 2)), draw(st.sampled_from(sorted(c.terms)))
        )
    elif kind == "cone":
        # an uneliminated cone at a vertex that carries a summand holds
        # e_v, from the counit or from the unit
        live = sorted({v for ss in c.terms.values() for v, _ in ss})
        op = draw(st.sampled_from((twist, dual_twist)))
        cone = op(A, draw(st.sampled_from(live)), c, eliminate=False)
        c = make_complex(A, cone.terms, cone.diffs)
    assert is_minimal(A, c) == (kind == "projective")
    word = tuple(draw(st.lists(letter, max_size=cap)))
    return name, word, c


@settings(max_examples=80, deadline=None)
@given(case=plan_cases())
def test_skipping_plan_equals_the_all_vertex_reference(case):
    name, word, c = case
    _, u, A = plan_setup(name)
    plan = homotopy._fiber_plan(u, word)
    got = homotopy._apply_plan(A, plan, c)
    assert got == all_vertex_plan(A, plan, c)
    assert got == apply_braid_word(A, u, word, c)
    _check_complex(A, got)
    assert is_minimal(A, got) or not plan


def test_skipped_first_twist_still_eliminates():
    # on a3 no path joins u to s: the twist at u finds an empty cone on
    # P_s plus a contractible pair on P_s, and is skipped; the pair goes
    # all the same, as it would have through the twist's elimination
    _, u, A = setup("a3")
    c = with_contractible_pair(A, projective_complex(A, "s,Pi0"), 0, 0, 0)
    assert cone_is_empty(A, u.index("u,Pi0"), c) and not is_minimal(A, c)
    plan = homotopy._fiber_plan(u, ("u", ("u", -1)))
    got = homotopy._apply_plan(A, plan, c)
    assert got == all_vertex_plan(A, plan, c) == projective_complex(A, "s,Pi0")


# stdout and exit code of word problems on the 5-7-9 chain, of the
# rank2_inf ladder and of act on the small corpus fibers, pinned by
# SHA-256; a change to which twists run, or to the pivot order, must
# leave every byte as it was
PINNED_COMMANDS = [
    ("l579", ["act", "a b", "--on", "a,Pi0*Pi0*Pi0"], 0,
     "1332d7751f33c3c0b1b794bc3b6fac098ee26401df3780fa24da261629bf09cf"),
    ("l579", ["act", "b^-1 c d", "--on", "c,Pi2*Pi4*Pi0"], 0,
     "fb239c948ade00420cdc00e6177e3ff139ffe3945fa9a23b07281d00bcf0d89a"),
    ("l579", ["act", "a b c d c^-1 b^-1", "--on", "b,Pi0*Pi2*Pi6"], 0,
     "b778d8725f5187ca1bddf1d9ff4556376efc769220500e59834eb15cf258a149"),
    ("l579", ["act", "d c^-1 b a^-1", "--on", "d,Pi2*Pi0*Pi4", "--shift", "1", "--deg", "-1"], 0,
     "b7cdd4f4b9c2b67e03c4cd1043b09bdd2c051ed498201a69a454f5b48e44e2a7"),
    ("l579", ["act", "c b^-1 a a", "--on", "b,Pi2*Pi2*Pi2"], 0,
     "a28327ef20a09ea5c955bb00df65edb6dfe0eb90b81825d52e47c19f2b6b15d9"),
    ("l579", ["act", "", "--on", "a,Pi2*Pi0*Pi0"], 0,
     "2321fa5f1a714c44e677c8d55bcf6f8057a73d8d856d4cb5852ae7cb50907ad5"),
    ("l579", ["is-identity", "a b a^-1 b^-1"], 3,
     "5dc9f13017a4b0c3829aa63759fc947572d87b4f486ee3f5c4d77e854d98fd92"),
    ("l579", ["is-identity", "a c a^-1 c^-1"], 0,
     "560ee359cf3259353f1bc53e0c8add2aec9ec79cf533cbb5385423e42a34822a"),
    ("l579", ["is-identity", "b a d^-1 a^-1 d b^-1"], 0,
     "560ee359cf3259353f1bc53e0c8add2aec9ec79cf533cbb5385423e42a34822a"),
    ("l579", ["is-identity", "c^-1 d c d^-1"], 3,
     "5dc9f13017a4b0c3829aa63759fc947572d87b4f486ee3f5c4d77e854d98fd92"),
    ("l579", ["word-eq", "a b a b a", "b a b a b"], 0,
     "1907d592edca123512edf021ad7230b31ee3b68b2e38b78b07acd5e85256a3d6"),
    ("l579", ["word-eq", "a d", "d a"], 0,
     "1907d592edca123512edf021ad7230b31ee3b68b2e38b78b07acd5e85256a3d6"),
    ("l579", ["word-eq", "b c", "c b"], 3,
     "56403957ef1777cf667726c8d0824fdc9a4641b3d8e48a8dc9a2ec632491cb93"),
    ("rank2_inf", ["act", "s t^-1 s t^-1", "--on", "s"], 0,
     "db2bb9bc375418fde9c5c8dea4d4b2abb517214c3ec48a013cd546e170580bbd"),
    ("rank2_inf", ["act", "t s^-1 t s^-1 t s^-1", "--on", "t"], 0,
     "b6ba2dfaeb8452c4ef438f4b0381b27915106e959faf02f2c00a2166c4bf8a1a"),
    ("rank2_inf", ["act", "s s t^-1 t^-1 s s t^-1 t^-1", "--on", "s"], 0,
     "3c24d0f09599b8d88ed4e75744ebe66599ac67689c81556a0c4aa019ebb2dff0"),
    ("rank2_inf", ["act", "s t^-1 s t^-1 s t^-1 s^-1", "--on", "s"], 0,
     "43c9908c6e7346de27e089c55d627627050b52c2d3a76e2bcbb75835bd17d5e6"),
    ("rank2_inf", ["act", "t s^-1 t s^-1 t s^-1 t", "--on", "t"], 0,
     "c52f2afe00b0800281ed92eaf4675faeea548954c876aebd2b9fddf57a8177cd"),
    ("rank2_inf", ["is-identity", " ".join(["s s t^-1 t^-1"] * 4)], 3,
     "5dc9f13017a4b0c3829aa63759fc947572d87b4f486ee3f5c4d77e854d98fd92"),
    ("rank2_inf", ["is-identity", "s t s^-1 t^-1"], 3,
     "5dc9f13017a4b0c3829aa63759fc947572d87b4f486ee3f5c4d77e854d98fd92"),
    ("rank2_inf", ["is-identity", "s t t^-1 s^-1"], 0,
     "560ee359cf3259353f1bc53e0c8add2aec9ec79cf533cbb5385423e42a34822a"),
    ("rank2_inf", ["word-eq", "s t", "t s"], 3,
     "56403957ef1777cf667726c8d0824fdc9a4641b3d8e48a8dc9a2ec632491cb93"),
    ("rank2_inf", ["word-eq", "s t^-1 s", "s t^-1 s"], 0,
     "1907d592edca123512edf021ad7230b31ee3b68b2e38b78b07acd5e85256a3d6"),
    ("rank2_inf", ["shift-type", "s t^-1 s t^-1"], 3,
     "46c6f4af2093598bacf8ecc2b5fbfc1e1a092d228ef9b3c83609880c773b33bb"),
    ("rank2_inf", ["shift-type", ""], 0,
     "94fd2007a6fe44cb1c0e8e915b23a5a74c2f893ceecafdd1b2d2736d326d66fe"),
    ("rank2_inf", ["shift-type", "s s", "--pure"], 3,
     "46c6f4af2093598bacf8ecc2b5fbfc1e1a092d228ef9b3c83609880c773b33bb"),
    ("rank2_inf", ["check-relations"], 0,
     "600d620f6fec08160fdcb2ce51e0bf83481100c1f4401a5900a39b5eb513e55e"),
    ("i2_4", ["act", "s t^-1 s t", "--on", "s,Pi1"], 0,
     "13c8204d5279567edf32544ad2ec28bd200d648984d268f493697e43c83bcdb9"),
    ("i2_4", ["act", "t^-1 s^-1 t s t", "--on", "t,Pi2", "--shift", "2"], 0,
     "80220636d6b8993bf029fa3028135b742c59f7f8fa9bb0f2852bec27af1626bb"),
    ("i2_5", ["act", "s t s^-1 t^-1 s", "--on", "t,Pi2"], 0,
     "4ec13d9d30d3af12e255280a3f8c89557d0dd8d28d41f5d1bd9dcc0846d97a6d"),
    ("i2_5", ["act", "t^-1 s t s", "--on", "s,Pi2", "--shift", "1", "--deg", "-1"], 0,
     "dcd540d810201da6bf7d355a9cf6642f2d593ef0b4837d20731b944e3349f1fc"),
    ("chain45", ["act", "s t u^-1 t s^-1", "--on", "t,Pi1*Pi2"], 0,
     "0f1cea76c23394c23eab292f3b5f771c082475f8839901587cd58f88e0fbcec1"),
    ("chain45", ["act", "u^-1 t s u", "--on", "s,Pi2*Pi0"], 0,
     "732f86cb6fda878a23700e4d62b5f2885f5fe6d5c01213f7acda6cf185b892c5"),
    ("chain45", ["act", "t u t^-1 s", "--on", "u,Pi1*Pi0"], 0,
     "84d6c0c281c6810e607cd39d15fde53a536f23f271bb7d6203e5213dba064196"),
    ("g2_affine", ["act", "a b c^-1 b^-1", "--on", "b,Pi0*Pi3"], 0,
     "955d4401209997f9c8c90d33793036ac7c1610799d0f5c250d146dd8d7074b23"),
    ("g2_affine", ["act", "c b a b^-1 c^-1 a", "--on", "a,Pi0*Pi2"], 0,
     "dbad996f77e10875ac801953f7b526136af87d27e15007e0ad41b2bdb12aa688"),
    ("g2_affine", ["act", "b^-1 a c", "--on", "c,Pi0*Pi4"], 0,
     "a236fb3d4aa74ac3fd8f0a62d0b49d86b2f3eaf9e100a162af416ac768b3548c"),
]


def test_twist_commands_are_pinned(tmp_path):
    paths = {}
    for name in {name for name, *_ in PINNED_COMMANDS}:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(PLAN_GRAPHS[name])
    for name, (cmd, *rest), code, digest in PINNED_COMMANDS:
        res = cli.run([cmd, str(paths[name]), *rest])
        assert (res.exit_code, hashlib.sha256(res.stdout.encode()).hexdigest()) == (
            code,
            digest,
        ), (name, cmd, rest)


# The folded Burau matrix decides "no" before any complex is built.  Its
# column s is the class of w . P_(s,1), on the folded lattice, which is
# what makes the early "no" exact.
@st.composite
def burau_column_cases(draw):
    name = draw(st.sampled_from(sorted(PLAN_GRAPHS)))
    g, u, A = plan_setup(name)
    letter = st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1)))
    word = tuple(draw(st.lists(letter, max_size=MAX_PLAN_LETTERS.get(name, 6))))
    return name, word, draw(st.sampled_from(g.vertices))


@settings(max_examples=80, deadline=None)
@given(case=burau_column_cases())
def test_folded_burau_column_is_the_class_of_the_unit_start(case):
    name, word, s = case
    g, u, A = plan_setup(name)
    mat = burau_word(g, coxeter_fusion_ring(g), word)
    unit = u.ring.basis[u.ring.unit_index]
    out = apply_braid_word(A, u, word, projective_complex(A, u.index((s, unit))))
    assert complex_class(A, out) == burau_column(mat, g.index(s))


def commutator(s, t):
    return ((s, 1), (t, 1), (s, -1), (t, -1))


@st.composite
def verdict_cases(draw):
    name = draw(st.sampled_from(sorted(SWEEP_GRAPHS)))
    g, _, _ = sweep_setup(name)
    cap = MAX_LETTERS.get(name, 3)
    letter = st.tuples(st.sampled_from(g.vertices), st.sampled_from((1, -1)))
    word = tuple(draw(st.lists(letter, max_size=cap)))
    if draw(st.booleans()):
        # a conjugated commutator: trivial exactly for commuting letters
        s, t = draw(st.sampled_from(g.vertices)), draw(st.sampled_from(g.vertices))
        word = word + commutator(s, t) + inverse_word(word)
    return name, word


@settings(max_examples=40, deadline=None)
@given(case=verdict_cases())
def test_burau_first_verdicts_equal_the_twist_only_verdicts(case):
    name, word = case
    _, u, A = sweep_setup(name)
    images = full_sweep(A, u, word)
    identity = ref_is_identity(A, images)
    assert is_identity_word(A, u, word) == identity
    assert words_equal(A, u, word, ()) == identity
    for pure in (False, True):
        assert recognize_shift(A, u, word, pure) == ref_shift(images, pure)
    # the matrix only rejects: a word the twists accept always passes it
    shift = ref_shift(images)
    if shift is not None:
        a, b = shift
        assert burau_shift(u.base, word) == ((-1) ** a, b)


class BuiltAComplex(Exception):
    pass


@pytest.fixture
def no_complexes(monkeypatch):
    """Make unfolding, the zigzag build, the cone and every projective
    start raise BuiltAComplex if they are called."""

    def refuse(*args, **kwargs):
        raise BuiltAComplex(args)

    for module, name in (
        (cli, "unfold"),
        (cli, "build_zigzag"),
        (homotopy, "_cone"),
        (homotopy, "projective_complex"),
    ):
        monkeypatch.setattr(module, name, refuse)


REJECTED_COMMANDS = [
    ("l579", ["is-identity", "a b a^-1 b^-1"], "not identity\n"),
    ("l579", ["word-eq", "b c", "c b"], "not equal\n"),
    ("l579", ["shift-type", "a"], "not a shift\n"),
    ("a2", ["shift-type", "s t s s t s", "--pure"], "not a shift\n"),
    ("rank2_inf", ["is-identity", " ".join(["s s t^-1 t^-1"] * 5)], "not identity\n"),
    ("rank2_inf", ["word-eq", "s t", "t s"], "not equal\n"),
]


@pytest.mark.parametrize("name, argv, stdout", REJECTED_COMMANDS)
def test_burau_rejected_commands_build_no_complex(no_complexes, tmp_path, name, argv, stdout):
    path = tmp_path / f"{name}.json"
    path.write_text(PLAN_GRAPHS[name])
    res = cli.run([argv[0], str(path), *argv[1:]])
    assert (res.exit_code, res.stdout) == (3, stdout)


def test_burau_rejected_words_build_no_complex_in_the_library(monkeypatch):
    g, u, A = plan_setup("l579")
    rejected = commutator("a", "b")
    assert burau_shift(g, rejected) is None
    # the full twist of a2 shifts by [4]<6>: the matrix passes it as a
    # shift, but not as the identity, nor as a pure shift
    full = alternating("s", "t", 3) * 2
    g2, u2, A2 = plan_setup("a2")
    assert burau_shift(g2, full) == (1, 6)
    with monkeypatch.context() as m:
        m.setattr(homotopy, "_cone", lambda *args: pytest.fail("cone built"))
        m.setattr(homotopy, "projective_complex", lambda *args: pytest.fail("start built"))
        assert not is_identity_word(A, u, rejected)
        assert not words_equal(A, u, ("b", "c"), ("c", "b"))
        assert recognize_shift(A, u, rejected) is None
        assert not is_identity_word(A2, u2, full)
        assert recognize_shift(A2, u2, full, pure=True) is None
    assert recognize_shift(A2, u2, full) == (4, 6)


def test_burau_shift_reads_the_common_diagonal():
    g, _, _ = plan_setup("a2")
    assert burau_shift(g, ()) == (1, 0)
    assert burau_shift(g, ("s", ("s", -1))) == (1, 0)
    assert burau_shift(g, ("s",)) is None
    # a single vertex: s acts on P_s as [1]<2>, with class -q^2
    g1, _, _ = single_vertex()
    assert burau_shift(g1, ("s",)) == (-1, 2)
    assert burau_shift(g1, (("s", -1),)) == (-1, -2)
    # no base vertex: nothing to reject, and the twists decide
    empty = parse_graph(graph_json([], []))
    assert burau_shift(empty, ()) == (1, 0)
    u = unfold(empty)
    A = build_zigzag(u)
    assert is_identity_word(A, u, ()) and recognize_shift(A, u, ()) is None
