"""Oracles for the fusion lattice: reflections, Burau matrices, roots.

Reflection and Burau matrices below were expanded by hand from the
defining formulas (column j = image of the j-th basis vector).  The
I2(4) root set was worked out by hand: the lattice orbit has eight
nonnegative vectors but only four distinct reflections, and the
enumeration counts reflections.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxtwist.coxgraph import GraphError, parse_graph
from coxtwist import cli, lattice
from coxtwist.fusion import (
    FusionElement,
    coxeter_fusion_ring,
    multiply,
    tlj_even_ring,
    tlj_ring,
)
from coxtwist.lattice import (
    LatticeVector,
    bilinear_form_C,
    burau_column,
    burau_generator,
    burau_word,
    coxeter_word_equal,
    coxeter_word_matrix,
    enumerate_positive_roots,
    root_layers,
    simple_reflection_matrix,
    simple_root,
    specialize_q,
)
from coxtwist.unfolding import unfold

from conftest import CORPUS_JSON, graph_json
from reference import ref_reflection_matrix
from test_coxgraph import random_graphs
from test_fusion import EDGE_LABELS, path_graph_ring


def vec(*coeffs):
    return LatticeVector(tuple(coeffs))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def ring_of(name):
    g = parse_graph(CORPUS_JSON[name])
    return g, coxeter_fusion_ring(g)


def test_reflection_matrix_a2():
    g, ring = ring_of("a2")
    assert simple_reflection_matrix(g, ring, "s") == ((-1, 1), (0, 1))
    assert simple_reflection_matrix(g, ring, "t") == ((1, 0), (1, -1))


def test_reflection_matrix_i2_5():
    # basis: (s,Pi0), (s,Pi2), (t,Pi0), (t,Pi2)
    g, ring = ring_of("i2_5")
    m = simple_reflection_matrix(g, ring, "s")
    assert m == (
        (-1, 0, 0, 1),
        (0, -1, 1, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_reflection_matrix_unknown_vertex():
    g, ring = ring_of("a2")
    with pytest.raises(GraphError):
        simple_reflection_matrix(g, ring, "x")


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_reflections_are_involutions(name):
    g, ring = ring_of(name)
    n = len(g.vertices) * ring.rank
    for v in g.vertices:
        m = simple_reflection_matrix(g, ring, v)
        assert mat_mul(m, m) == identity(n)


@pytest.mark.parametrize("name,m", [("a2", 3), ("i2_4", 4), ("i2_5", 5)])
def test_coxeter_relation_order_is_exact(name, m):
    g, ring = ring_of(name)
    ms = simple_reflection_matrix(g, ring, "s")
    mt = simple_reflection_matrix(g, ring, "t")
    prod = mat_mul(ms, mt)
    acc = prod
    for k in range(1, m):
        assert acc != identity(len(ms))
        acc = mat_mul(acc, prod)
    assert acc == identity(len(ms))


def test_bilinear_form_diagonal():
    g, ring = ring_of("i2_5")
    s = simple_root(g, ring, "s")
    assert bilinear_form_C(g, ring, s, s) == FusionElement((2, 0))


def test_bilinear_form_edge_and_gap():
    g, ring = ring_of("i2_5")
    s = simple_root(g, ring, "s")
    t = simple_root(g, ring, "t")
    assert bilinear_form_C(g, ring, s, t) == FusionElement((0, -1))
    assert bilinear_form_C(g, ring, t, s) == FusionElement((0, -1))

    g3, ring3 = ring_of("a3")
    a = simple_root(g3, ring3, "s")
    c = simple_root(g3, ring3, "u")
    assert bilinear_form_C(g3, ring3, a, c) == FusionElement((0,))


def test_bilinear_form_is_fusion_bilinear():
    # B([Pi2] a_s, a_t) = -[Pi2][Pi2] = -(1 + Pi2) in the Fibonacci ring
    g, ring = ring_of("i2_5")
    pi2_as = vec(0, 1, 0, 0)
    t = simple_root(g, ring, "t")
    assert bilinear_form_C(g, ring, pi2_as, t) == FusionElement((-1, -1))


def test_bilinear_form_rejects_mismatch():
    g, ring = ring_of("i2_5")
    with pytest.raises(ValueError):
        bilinear_form_C(g, ring, vec(1, 0), simple_root(g, ring, "s"))


def one(ring, exp=0, scale=1):
    el = [0] * ring.rank
    el[0] = scale
    return ((exp, FusionElement(tuple(el))),)


def test_burau_generator_a2_pinned():
    g, ring = ring_of("a2")
    m = burau_generator(g, ring, "s")
    assert m.size == 2
    assert m.entries[0][0] == one(ring, exp=2, scale=-1)
    assert m.entries[0][1] == one(ring, exp=1, scale=-1)
    assert m.entries[1][0] == ()
    assert m.entries[1][1] == one(ring)


def test_burau_generator_inverse_closed_form():
    g, ring = ring_of("a2")
    m = burau_generator(g, ring, "s", inverse=True)
    assert m.entries[0][0] == one(ring, exp=-2, scale=-1)
    assert m.entries[0][1] == one(ring, exp=-1, scale=-1)


def test_burau_generator_carries_edge_object():
    g, ring = ring_of("i2_5")
    m = burau_generator(g, ring, "s")
    assert m.entries[0][1] == ((1, FusionElement((0, -1))),)


def test_burau_nonadjacent_column_untouched():
    g, ring = ring_of("a3")
    m = burau_generator(g, ring, "s")
    assert m.entries[0][2] == ()
    assert m.entries[2][2] == one(ring)


def test_burau_empty_word_is_identity():
    g, ring = ring_of("i2_4")
    assert burau_word(g, ring, ()) == burau_word(g, ring, [("s", 1), ("s", -1)])


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_burau_generator_times_inverse(name):
    g, ring = ring_of(name)
    ident = burau_word(g, ring, ())
    for v in g.vertices:
        assert burau_word(g, ring, [(v, 1), (v, -1)]) == ident
        assert burau_word(g, ring, [(v, -1), (v, 1)]) == ident


def test_burau_braid_relation_m3():
    g, ring = ring_of("a2")
    assert burau_word(g, ring, "s t s".split()) == burau_word(g, ring, "t s t".split())


def test_burau_braid_relation_m4():
    g, ring = ring_of("i2_4")
    sts = burau_word(g, ring, "s t s".split())
    tst = burau_word(g, ring, "t s t".split())
    assert sts != tst
    assert burau_word(g, ring, "s t s t".split()) == burau_word(
        g, ring, "t s t s".split()
    )


def test_burau_braid_relation_m5():
    g, ring = ring_of("i2_5")
    assert burau_word(g, ring, "s t s t s".split()) == burau_word(
        g, ring, "t s t s t".split()
    )
    assert burau_word(g, ring, "s t s t".split()) != burau_word(
        g, ring, "t s t s".split()
    )


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_burau_random_word_inverse(name):
    rng = random.Random(7)
    g, ring = ring_of(name)
    ident = burau_word(g, ring, ())
    for _ in range(5):
        w = [(rng.choice(g.vertices), rng.choice((1, -1))) for _ in range(6)]
        back = [(v, -e) for v, e in reversed(w)]
        assert burau_word(g, ring, w + back) == ident


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_specialization_recovers_reflections(name):
    g, ring = ring_of(name)
    for v in g.vertices:
        refl = simple_reflection_matrix(g, ring, v)
        assert specialize_q(burau_generator(g, ring, v)) == refl
        assert specialize_q(burau_generator(g, ring, v, inverse=True)) == refl


def test_specialized_product_has_order_three():
    g, ring = ring_of("a2")
    m = specialize_q(burau_word(g, ring, "s t".split()))
    cube = mat_mul(mat_mul(m, m), m)
    assert cube == identity(2)
    assert m != identity(2)


def test_specialize_identity():
    g, ring = ring_of("chain45")
    ident = burau_word(g, ring, ())
    n = len(g.vertices) * ring.rank
    assert specialize_q(ident) == identity(n)


def test_burau_column_of_identity():
    g, ring = ring_of("i2_5")
    col = burau_column(burau_word(g, ring, ()), 1)
    assert col == ((), (), ((0, 1),), ())


def test_burau_column_expansion():
    # column of a_t under sigma_s: [P_t] - q [Pi2][P_s]
    g, ring = ring_of("i2_5")
    col = burau_column(burau_generator(g, ring, "s"), 1)
    assert col == ((), ((1, -1),), ((0, 1),), ())


def test_coxeter_word_equal_involution():
    g = parse_graph(CORPUS_JSON["a2"])
    assert coxeter_word_equal(g, ("s", "s"), ())


def test_coxeter_word_equal_m5_relation():
    g = parse_graph(CORPUS_JSON["i2_5"])
    assert coxeter_word_equal(g, ("s", "t", "s", "t", "s"), ("t", "s", "t", "s", "t"))
    assert not coxeter_word_equal(g, ("s", "t", "s"), ("t", "s", "t"))


def test_coxeter_word_equal_infinite_label():
    g = parse_graph(CORPUS_JSON["rank2_inf"])
    assert not coxeter_word_equal(g, ("s", "t"), ("t", "s"))


def test_coxeter_word_equal_unknown_generator():
    g = parse_graph(CORPUS_JSON["a2"])
    with pytest.raises(GraphError):
        coxeter_word_equal(g, ("s", "x"), ())


def test_word_matrix_follows_letter_order():
    # first letter acts first: word (s, t) is the map v -> M_t(M_s(v))
    g, ring = ring_of("a2")
    ms = simple_reflection_matrix(g, ring, "s")
    mt = simple_reflection_matrix(g, ring, "t")
    assert coxeter_word_matrix(g, ring, ("s", "t")) == mat_mul(mt, ms)


def test_roots_a2():
    g, ring = ring_of("a2")
    roots = enumerate_positive_roots(g, ring, 2)
    assert roots == {vec(1, 0), vec(0, 1), vec(1, 1)}


def test_roots_a3():
    g, ring = ring_of("a3")
    assert len(enumerate_positive_roots(g, ring, 6)) == 6


def test_roots_i2_5():
    g, ring = ring_of("i2_5")
    roots = enumerate_positive_roots(g, ring, 5)
    assert roots == {
        vec(1, 0, 0, 0),
        vec(0, 0, 1, 0),
        vec(0, 1, 1, 0),
        vec(1, 0, 0, 1),
        vec(0, 1, 0, 1),
    }


def test_roots_i2_4_counts_reflections():
    # the raw lattice orbit holds eight nonnegative vectors here; distinct
    # reflections give the four dihedral root lines
    g, ring = ring_of("i2_4")
    roots = enumerate_positive_roots(g, ring, 8)
    assert roots == {
        vec(1, 0, 0, 0, 0, 0),
        vec(0, 0, 0, 1, 0, 0),
        vec(0, 1, 0, 1, 0, 0),
        vec(1, 0, 0, 0, 1, 0),
    }


@pytest.mark.parametrize("m,count", [(3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)])
def test_roots_dihedral_counts(m, count):
    g = parse_graph(
        '{"vertices":["s","t"],"edges":[{"ends":["s","t"],"m":%d}]}' % m
    )
    ring = coxeter_fusion_ring(g)
    assert len(enumerate_positive_roots(g, ring, m + 2)) == count


def test_roots_infinite_dihedral_layers():
    g, ring = ring_of("rank2_inf")
    assert enumerate_positive_roots(g, ring, 0) == set()
    assert enumerate_positive_roots(g, ring, 1) == {vec(1, 0), vec(0, 1)}
    assert enumerate_positive_roots(g, ring, 2) == {
        vec(1, 0),
        vec(0, 1),
        vec(2, 1),
        vec(1, 2),
    }
    assert len(enumerate_positive_roots(g, ring, 3)) == 6


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_roots_are_nonnegative_and_nonzero(name):
    g, ring = ring_of(name)
    for root in enumerate_positive_roots(g, ring, 4):
        assert any(root.coefficients)
        assert all(c >= 0 for c in root.coefficients)


@pytest.mark.parametrize("name", sorted(CORPUS_JSON))
def test_orbit_vectors_are_sign_coherent(name):
    # walk the raw orbit without any positivity filter; every vector
    # should be entirely >= 0 or entirely <= 0
    g, ring = ring_of(name)
    mats = [simple_reflection_matrix(g, ring, v) for v in g.vertices]
    n = len(g.vertices) * ring.rank
    frontier = {simple_root(g, ring, v).coefficients for v in g.vertices}
    seen = set(frontier)
    for _ in range(4):
        nxt = set()
        for v in frontier:
            for m in mats:
                image = tuple(
                    sum(m[i][j] * v[j] for j in range(n)) for i in range(n)
                )
                if image not in seen:
                    nxt.add(image)
                    seen.add(image)
        frontier = nxt
    for v in seen:
        assert all(c >= 0 for c in v) or all(c <= 0 for c in v)


# ------------------------------------------- sparse updates vs dense products

# H3, H4, F4 and the 7-3 chain, beside the corpus and two unfolded graphs
EXTRA_JSON = {
    "h3": graph_json("abc", [("a", "b", 5), ("b", "c", 3)]),
    "h4": graph_json("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)]),
    "f4": graph_json("abcd", [("a", "b", 3), ("b", "c", 4), ("c", "d", 3)]),
    "c73": graph_json("abc", [("a", "b", 7), ("b", "c", 3)]),
}
SPARSE_GRAPHS = sorted(CORPUS_JSON) + sorted(EXTRA_JSON) + [
    "unfolded_chain45",
    "unfolded_g2_affine",
]


def sparse_graph(name):
    if name.startswith("unfolded_"):
        g = unfold(parse_graph(CORPUS_JSON[name[len("unfolded_"):]])).as_coxeter_graph()
    else:
        g = parse_graph({**CORPUS_JSON, **EXTRA_JSON, **WALK_JSON}[name])
    return g, coxeter_fusion_ring(g)


def dense_laurent_mul(ring, a, b):
    """Full product of two Burau matrices, entry by entry."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                for ea, fa in a[i][k]:
                    for eb, fb in b[k][j]:
                        prod = multiply(ring, fa, fb).coefficients
                        cur = acc.get(ea + eb, (0,) * ring.rank)
                        acc[ea + eb] = tuple(x + y for x, y in zip(cur, prod))
            row.append(
                tuple(
                    (e, FusionElement(c)) for e, c in sorted(acc.items()) if any(c)
                )
            )
        out.append(tuple(row))
    return tuple(out)


def dense_burau_word(g, ring, word):
    acc = burau_word(g, ring, ()).entries
    for name, exp in word:
        gen = burau_generator(g, ring, name, inverse=exp < 0)
        acc = dense_laurent_mul(ring, gen.entries, acc)
    return acc


@pytest.mark.parametrize("name", SPARSE_GRAPHS)
def test_burau_word_matches_dense_product(name):
    g, ring = sparse_graph(name)
    rng = random.Random(name)
    words = [()] + [
        tuple(
            (rng.choice(g.vertices), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 12))
        )
        for _ in range(5)
    ]
    for w in words:
        m = burau_word(g, ring, w)
        assert (m.ring, m.size) == (ring, g.rank)
        assert m.entries == dense_burau_word(g, ring, w)


def dense_mul(a, b):
    """Exact product of two int64 matrices; refuses one that could overflow."""
    assert len(a) * int(abs(a).max()) * int(abs(b).max()) < 2**63
    return a @ b


def dense_root_layers(g, ring, depth):
    """The orbit walk with full reflection products, as first written.

    Each root is keyed on its reflection, conjugated by dense products
    of the whole matrices; numpy only does the integer arithmetic.
    """
    mats = [ref_reflection_matrix(g, ring, v) for v in g.vertices]
    arrays = [np.array(m, dtype=np.int64) for m in mats]
    nr = ring.rank
    n = g.rank * nr
    seen_vectors = set()
    seen_refls = set()
    frontier = []
    first = set()
    for vi in range(g.rank):
        v = tuple(1 if k == vi * nr else 0 for k in range(n))
        seen_vectors.add(v)
        seen_refls.add(arrays[vi].tobytes())
        first.add(LatticeVector(v))
        frontier.append((v, arrays[vi]))
    layers = [first]
    for _ in range(depth - 1):
        if not frontier:
            break
        frontier.sort(key=lambda node: node[0])
        nxt = []
        layer = set()
        for v, refl in frontier:
            for m, arr in zip(mats, arrays):
                image = tuple(sum(row[j] * v[j] for j in range(n)) for row in m)
                if image in seen_vectors:
                    continue
                seen_vectors.add(image)
                if any(c < 0 for c in image):
                    continue
                conj = dense_mul(dense_mul(arr, refl), arr)
                if conj.tobytes() in seen_refls:
                    continue
                seen_refls.add(conj.tobytes())
                layer.add(LatticeVector(image))
                nxt.append((image, conj))
        if layer:
            layers.append(layer)
        frontier = nxt
    return layers


# rings with several invertible simples (I2(6), I2(8), the 4-6 chain and
# the rank-4 graph), where one root line carries several lattice vectors,
# and the rank-24 ring of the 5-7-9 chain
WALK_JSON = {
    "i2_6": graph_json("st", [("s", "t", 6)]),
    "i2_8": graph_json("st", [("s", "t", 8)]),
    "chain46": graph_json("abc", [("a", "b", 4), ("b", "c", 6)]),
    "rank4": graph_json(
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1", 4), ("v0", "v2", 5), ("v0", "v3", 3), ("v1", "v2", 5),
         ("v1", "v3", "inf")],
    ),
    "l579": graph_json("abcd", [("a", "b", 5), ("b", "c", 7), ("c", "d", 9)]),
}
WALK_DEPTHS = {
    **{name: 12 for name in SPARSE_GRAPHS},
    "i2_6": 12,
    "i2_8": 12,
    "chain46": 7,
    "rank4": 7,
    "l579": 5,
}


def check_walk(g, ring, max_depth):
    # a walk's first d layers are the walk at depth d, so one dense walk
    # at max_depth is the reference for every depth up to max_depth
    dense = dense_root_layers(g, ring, max_depth)
    for depth in range(1, max_depth + 1):
        assert root_layers(g, ring, depth) == dense[:depth]


@pytest.mark.parametrize("name", sorted(WALK_DEPTHS))
def test_root_layers_match_dense_walk(name):
    g, ring = sparse_graph(name)
    check_walk(g, ring, WALK_DEPTHS[name])


def ring_rank(labels):
    """The rank of the ring of a graph with these edge labels, before it
    is built: n - 1 simples for even n, (n - 1) / 2 for odd n, multiplied
    over the distinct finite labels."""
    return math.prod(
        n - 1 if n % 2 == 0 else (n - 1) // 2 for n in set(labels) if n != "inf"
    )


def check_invertible_simples(ring):
    """The walk's invertible simples are the simples g with g * g = 1,
    read off the planes, and the simples of FPdim 1; each permutes the
    simples."""
    inv = lattice._invertible_simples(ring)
    unit = FusionElement.unit(ring).coefficients
    assert inv == tuple(g for g in range(ring.rank) if ring.plane(g)[g] == unit)
    assert inv == tuple(k for k, d in enumerate(ring.fpdim) if abs(d - 1) <= 1e-12)
    for h in inv:
        images = []
        for f in range(ring.rank):
            row = ring.plane(h)[f]
            assert sorted(row) == [0] * (ring.rank - 1) + [1]
            images.append(row.index(1))
        assert sorted(images) == list(range(ring.rank))
    return inv


def orbit(ring, inv, v):
    """{[h] v : h invertible}, with [h] read off the structure constants."""
    nr = ring.rank
    out = set()
    for h in inv:
        image = [0] * len(v)
        for k, c in enumerate(v):
            b, e = divmod(k, nr)
            for f, x in enumerate(ring.plane(h)[e]):
                image[b * nr + f] += c * x
        out.add(tuple(image))
    return out


def check_one_vector_per_orbit(g, ring, depth):
    inv = check_invertible_simples(ring)
    seen = set()
    for layer in root_layers(g, ring, depth):
        for root in layer:
            images = orbit(ring, inv, root.coefficients)
            assert root.coefficients in images
            assert not images & seen
            seen |= images


@pytest.mark.parametrize("name", sorted(WALK_DEPTHS))
def test_walk_keeps_one_vector_per_invertible_orbit(name):
    g, ring = sparse_graph(name)
    check_one_vector_per_orbit(g, ring, min(WALK_DEPTHS[name], 8))


@pytest.mark.parametrize("n", range(3, 13))
def test_invertible_simples_of_tlj_rings(n):
    check_invertible_simples(tlj_ring(n))
    if n % 2:
        check_invertible_simples(tlj_even_ring(n))


@settings(max_examples=30, deadline=None)
@example(labels=[4, 6, 8])  # rank 105, eight invertible simples
@example(labels=[4, 5, 6, 7])  # rank 90, even and odd factors
@given(labels=EDGE_LABELS)
def test_invertible_simples_of_graph_rings(labels):
    # a simple of a product is invertible when each factor label is
    _, ring = path_graph_ring(labels)
    check_invertible_simples(ring)


@settings(max_examples=60, deadline=None)
@given(data=random_graphs(), depth=st.integers(min_value=1, max_value=6))
def test_root_layers_match_dense_walk_on_random_graphs(data, depth):
    vertices, edges = data
    assume(ring_rank(m for _, _, m in edges) <= 6)
    g = parse_graph(graph_json(vertices, edges))
    ring = coxeter_fusion_ring(g)
    assert ring.rank == ring_rank(m for _, _, m in edges)
    check_walk(g, ring, depth)
    check_one_vector_per_orbit(g, ring, depth)


# stdout and exit code of the commands that walk roots, pinned by SHA-256;
# a change to how the walk keys its root lines must leave every byte as
# it was.  Each "wall" charge vanishes on a root of the second layer:
# the FPdim images of those roots are (1, sqrt 2, 0) on chain45,
# (1, sqrt 3, 0) on g2_affine and (1, 1.8019..., 0) on c73.
PINNED_CHARGES = {
    ("chain45", "generic"): {"s": [0.3, 1.1], "t": [-0.7, 0.4], "u": [0.2, 0.9]},
    ("chain45", "wall"): {"s": [1.4142135623730951, 0.0], "t": [-1.0, 0.0], "u": [0.2, 0.9]},
    ("g2_affine", "generic"): {"a": [0.3, 1.1], "b": [-0.7, 0.4], "c": [0.2, 0.9]},
    ("g2_affine", "wall"): {"a": [1.7320508075688783, 0.0], "b": [-1.0, 0.0], "c": [0.2, 0.9]},
    ("c73", "generic"): {"a": [0.3, 1.1], "b": [-0.7, 0.4], "c": [0.2, 0.9]},
    ("c73", "wall"): {"a": [1.8019377358048394, 0.0], "b": [-1.0, 0.0], "c": [0.2, 0.9]},
}
PINNED_ROOT_COMMANDS = [
    ("chain45", ["roots", "--depth", "8"], 0,
     "c16e223ac58dfc22aaaf15c02c031806f991074b5d2f6e4c15d3f7888266ca61"),
    ("g2_affine", ["roots", "--depth", "10"], 0,
     "55798f91e476b0bfd7e20bf4fad025544cad6bb7df48956ea9f88e250ba501d2"),
    ("c73", ["roots", "--depth", "10"], 0,
     "543b3a97a3bcd7cf31db283c9e511946d33e0cf4d3cb321ef8ca455b4481e412"),
    ("h4", ["roots", "--depth", "23"], 0,
     "098f9d8df022db63c010a31e6943ff6322a464afd8557ef0b8838601b4284bf0"),
    ("f4", ["roots", "--depth", "8"], 0,
     "383bd5b25aa00a09ec1665f6fd7acbfd70c4866a107b629fb80e14e081b4dbcb"),
    ("chain46", ["roots", "--depth", "6"], 0,
     "f539ec312c2f1d0fe44d31dc0961a7066286241c3d24a5f3d01ce9bd04795a27"),
    ("rank4", ["roots", "--depth", "8"], 0,
     "c8282d6ea5e6f2d81f3d4ee89522072040359ef596f7437fd7b1537db5d4ce51"),
    ("chain45", ["regular-check", "generic"], 0,
     "ddfe193d4e050835ea97540067bbab79094ef3cc2ecf6a9269048287d416fcff"),
    ("chain45", ["regular-check", "wall"], 3,
     "2325d36ba6d7dae5c9385af4b32b349c2e3433cbff34a28543faf5be009b09d7"),
    ("g2_affine", ["regular-check", "generic"], 0,
     "ddfe193d4e050835ea97540067bbab79094ef3cc2ecf6a9269048287d416fcff"),
    ("g2_affine", ["regular-check", "wall"], 3,
     "2325d36ba6d7dae5c9385af4b32b349c2e3433cbff34a28543faf5be009b09d7"),
    ("c73", ["regular-check", "generic"], 0,
     "ddfe193d4e050835ea97540067bbab79094ef3cc2ecf6a9269048287d416fcff"),
    ("c73", ["regular-check", "wall"], 3,
     "2325d36ba6d7dae5c9385af4b32b349c2e3433cbff34a28543faf5be009b09d7"),
]


def test_root_commands_are_pinned(tmp_path):
    texts = {**CORPUS_JSON, **EXTRA_JSON, **WALK_JSON}
    for name, (cmd, *rest), code, digest in PINNED_ROOT_COMMANDS:
        graph = tmp_path / f"{name}.json"
        graph.write_text(texts[name])
        if cmd == "regular-check":
            charge = tmp_path / f"{name}_{rest[0]}.json"
            charge.write_text(json.dumps(PINNED_CHARGES[name, rest[0]]))
            rest = ["--charge", str(charge)]
        res = cli.run([cmd, str(graph), *rest])
        assert (res.exit_code, hashlib.sha256(res.stdout.encode()).hexdigest()) == (
            code,
            digest,
        ), (name, cmd, rest)


def random_words(g, rng, signed, count=5):
    """The empty word and `count` random words of 1-12 letters."""
    def letter():
        v = rng.choice(g.vertices)
        return (v, rng.choice((1, -1))) if signed else v

    return [()] + [
        tuple(letter() for _ in range(rng.randint(1, 12))) for _ in range(count)
    ]


def check_reflections(g, ring):
    for v in g.vertices:
        assert simple_reflection_matrix(g, ring, v) == ref_reflection_matrix(g, ring, v)


@pytest.mark.parametrize("name", SPARSE_GRAPHS + sorted(WALK_JSON))
def test_simple_reflection_matrix_equals_the_reference(name):
    check_reflections(*sparse_graph(name))


@settings(max_examples=40, deadline=None)
@given(data=random_graphs())
def test_simple_reflection_matrix_equals_the_reference_on_random_graphs(data):
    vertices, edges = data
    assume(ring_rank(m for _, _, m in edges) <= 12)
    g = parse_graph(graph_json(vertices, edges))
    check_reflections(g, coxeter_fusion_ring(g))


@pytest.mark.parametrize("name", SPARSE_GRAPHS)
def test_coxeter_word_matrix_matches_dense_product(name):
    g, ring = sparse_graph(name)
    for w in random_words(g, random.Random(name), signed=False):
        dense = identity(g.rank * ring.rank)
        for v in w:
            dense = lattice.mat_mul(ref_reflection_matrix(g, ring, v), dense)
        assert coxeter_word_matrix(g, ring, w) == dense


def fraction_specialize_q(m, value):
    """specialize_q as first written: a Fraction for every weight and entry."""
    ring = m.ring
    nr = ring.rank
    n = m.size * nr
    big = [[0] * n for _ in range(n)]
    for t in range(m.size):
        for s in range(m.size):
            entry = m.entries[t][s]
            if not entry:
                continue
            for f in range(nr):
                col = s * nr + f
                fsimple = FusionElement.simple(ring, f)
                for exp, fe in entry:
                    if value == 0 and exp < 0:
                        raise ValueError("cannot evaluate q^-1 at q=0")
                    weight = Fraction(value) ** exp
                    prod = multiply(ring, fe, fsimple)
                    for e, c in enumerate(prod.coefficients):
                        if c:
                            big[t * nr + e][col] += weight * c
    return tuple(
        tuple(int(x) if Fraction(x).denominator == 1 else x for x in row)
        for row in big
    )


@pytest.mark.parametrize("name", SPARSE_GRAPHS)
def test_specialize_q_matches_fraction_reference(name):
    g, ring = sparse_graph(name)
    rng = random.Random(name)
    for w in random_words(g, rng, signed=True, count=3):
        m = burau_word(g, ring, w)
        for value in (-1, 1, 2, Fraction(1, 2)):
            got = specialize_q(m, value)
            assert got == fraction_specialize_q(m, value)
            for row in got:
                for x in row:
                    assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
    for w in random_words(g, rng, signed=False, count=3):
        m = burau_word(g, ring, w)
        assert specialize_q(m, 0) == fraction_specialize_q(m, 0)
    with pytest.raises(ValueError, match="q=0"):
        specialize_q(burau_word(g, ring, [(g.vertices[0], -1)]), 0)
