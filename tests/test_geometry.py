"""Oracles for charge geometry: embedding, cone sampling, chamber location.

The kernel rays and phases below were computed by hand from the Gram
matrices.  The rank-2 infinite graph has B = [[2,-2],[-2,2]] with kernel
ray (1,1)/sqrt(2); for the 6-3 chain the kernel is (sqrt(3),2,1)/sqrt(8).
Chamber reports are checked against the group itself: the word that
locate recovers, concatenated with the word that was applied, must be
trivial in W.
"""

import cmath
import math
import random

import pytest

from coxtwist import geometry, lattice
from coxtwist.coxgraph import gram_matrix, parse_graph
from coxtwist.fusion import coxeter_fusion_ring, fpdim
from coxtwist.geometry import (
    CentralCharge,
    embed_real,
    evaluate_charge,
    imaginary_cone_samples,
    in_regular_set,
    in_tits_interior,
    locate_chamber,
    normalize_charge,
    phase_of_imaginary_cone,
    reflect_charge,
)
from coxtwist.lattice import (
    LatticeVector,
    bilinear_form_C,
    coxeter_word_equal,
    enumerate_positive_roots,
    mat_apply,
    simple_reflection_matrix,
    simple_root,
)

from conftest import CORPUS_JSON, FINITE_CORPUS, graph_json

GOLDEN = (1 + math.sqrt(5)) / 2


def setup(name):
    g = parse_graph(CORPUS_JSON[name])
    return g, coxeter_fusion_ring(g)


def charge(*values):
    return CentralCharge(tuple(complex(z) for z in values))


def apply_word(g, word, z):
    for s in word:
        z = reflect_charge(g, s, z)
    return z


def angle(x, y):
    dot = sum(a * b for a, b in zip(x, y))
    return math.acos(max(-1.0, min(1.0, dot)))


def test_embed_unit_vectors():
    g, ring = setup("a2")
    assert embed_real(ring, simple_root(g, ring, "s")) == (1.0, 0.0)
    assert embed_real(ring, simple_root(g, ring, "t")) == (0.0, 1.0)


def test_embed_golden_ratio():
    g, ring = setup("i2_5")
    pi_index = 1 - ring.unit_index
    n = g.rank * ring.rank
    v = LatticeVector(tuple(1 if k == pi_index else 0 for k in range(n)))
    x = embed_real(ring, v)
    assert x[0] == pytest.approx(GOLDEN, abs=1e-12)
    assert x[1] == 0.0


def test_embed_gram_compatibility():
    # B(embed(a), embed(b)) agrees with the categorified form after fpdim.
    for name in CORPUS_JSON:
        g, ring = setup(name)
        b = gram_matrix(g)
        roots = [simple_root(g, ring, s) for s in g.vertices]
        roots += sorted(enumerate_positive_roots(g, ring, 3),
                        key=lambda r: r.coefficients)
        for v in roots:
            for w in roots:
                x, y = embed_real(ring, v), embed_real(ring, w)
                lhs = sum(
                    x[i] * b[i][j] * y[j]
                    for i in range(g.rank)
                    for j in range(g.rank)
                )
                rhs = fpdim(ring, bilinear_form_C(g, ring, v, w))
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_evaluate_on_simple_roots():
    g, ring = setup("a3")
    z = charge(1 + 2j, -3, 0.5j)
    for i, s in enumerate(g.vertices):
        assert evaluate_charge(g, ring, z, simple_root(g, ring, s)) == z.values[i]


def test_evaluate_length_mismatch():
    g, ring = setup("a3")
    with pytest.raises(ValueError):
        evaluate_charge(g, ring, charge(1j), simple_root(g, ring, "s"))
    with pytest.raises(ValueError):
        evaluate_charge(g, ring, charge(1j, 1j, 1j), LatticeVector((1, 0)))


def test_reflect_rank_one_negates():
    g = parse_graph(graph_json(["s"], []))
    assert reflect_charge(g, "s", charge(3 - 2j)).values == (-3 + 2j,)


def test_reflect_is_involution():
    g, _ = setup("a3")
    rng = random.Random(0)
    z = charge(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)))
    for s in g.vertices:
        back = reflect_charge(g, s, reflect_charge(g, s, z))
        for got, want in zip(back.values, z.values):
            assert abs(got - want) < 1e-12


def test_reflect_matches_contragradient_action():
    # (s.Z)(v) = Z(s.v) with s acting on the lattice by its reflection matrix.
    rng = random.Random(1)
    for name in ("a2", "i2_5", "rank2_inf", "g2_affine"):
        g, ring = setup(name)
        n = g.rank * ring.rank
        z = charge(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                     for _ in range(g.rank)))
        for s in g.vertices:
            m = simple_reflection_matrix(g, ring, s)
            sz = reflect_charge(g, s, z)
            for _ in range(5):
                v = LatticeVector(tuple(rng.randrange(-3, 4) for _ in range(n)))
                lhs = evaluate_charge(g, ring, sz, v)
                rhs = evaluate_charge(g, ring, z, mat_apply(m, v))
                assert abs(lhs - rhs) < 1e-9


def test_samples_empty_for_finite_type():
    for name in FINITE_CORPUS:
        g, ring = setup(name)
        assert imaginary_cone_samples(g, ring, 8) == []


def test_samples_reject_bad_depth():
    g, ring = setup("rank2_inf")
    with pytest.raises(ValueError):
        imaginary_cone_samples(g, ring, 0)


def test_samples_exact_affine_ray():
    g, ring = setup("rank2_inf")
    samples = imaginary_cone_samples(g, ring, 8)
    assert len(samples) == 1
    r = math.sqrt(0.5)
    assert samples[0][0] == pytest.approx(r, abs=1e-15)
    assert samples[0][1] == pytest.approx(r, abs=1e-15)


def test_samples_affine_chain_converge_to_kernel():
    g, ring = setup("g2_affine")
    kernel = (math.sqrt(3), 2.0, 1.0)
    norm = math.sqrt(8)
    kernel = tuple(c / norm for c in kernel)
    samples = imaginary_cone_samples(g, ring, 12)
    assert samples
    for x in samples:
        assert all(c >= 0 for c in x)
        assert math.fsum(c * c for c in x) == pytest.approx(1.0, abs=1e-9)
        assert angle(x, kernel) < 0.5
    assert min(angle(x, kernel) for x in samples) < 0.15


def test_samples_deterministic():
    g, ring = setup("g2_affine")
    assert imaginary_cone_samples(g, ring, 8) == imaginary_cone_samples(g, ring, 8)


def test_phase_symmetric_charge():
    g, ring = setup("rank2_inf")
    samples = imaginary_cone_samples(g, ring, 8)
    assert phase_of_imaginary_cone(charge(1j, 1j), samples) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_phase_single_ray():
    g, ring = setup("rank2_inf")
    samples = imaginary_cone_samples(g, ring, 8)
    assert phase_of_imaginary_cone(charge(1j, 1), samples) == pytest.approx(
        math.pi / 4, abs=1e-12
    )


def test_phase_vanishing_charge():
    g, ring = setup("rank2_inf")
    samples = imaginary_cone_samples(g, ring, 8)
    with pytest.raises(ValueError, match="vanish"):
        phase_of_imaginary_cone(charge(1, -1), samples)


def test_phase_requires_samples():
    with pytest.raises(ValueError):
        phase_of_imaginary_cone(charge(1j), [])


def test_phase_is_midpoint_of_extremes():
    samples = [(1.0, 0.0), (0.0, 1.0)]
    z = charge(cmath.exp(0.2j), cmath.exp(1.0j))
    assert phase_of_imaginary_cone(z, samples) == pytest.approx(0.6, abs=1e-12)


def test_phase_wraps_around_the_cut():
    samples = [(1.0, 0.0), (0.0, 1.0)]
    z = charge(cmath.exp(2.8j), cmath.exp(-3.0j))
    want = 2.8 + (2 * math.pi - 5.8) / 2
    assert phase_of_imaginary_cone(z, samples) == pytest.approx(want, abs=1e-9)


def test_phase_rejects_wide_image():
    samples = [(1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(ValueError, match="span"):
        phase_of_imaginary_cone(charge(1, -1), samples)


def test_normalize_finite_type_identity():
    z = charge(1 + 1j, -2)
    k, zn = normalize_charge(z, [])
    assert k == 1
    assert zn.values == z.values


def test_normalize_quarter_turn():
    g, ring = setup("rank2_inf")
    samples = imaginary_cone_samples(g, ring, 8)
    k, zn = normalize_charge(charge(1j, 1), samples)
    assert abs(k - cmath.exp(1j * math.pi / 4)) < 1e-12
    assert phase_of_imaginary_cone(zn, samples) == pytest.approx(
        math.pi / 2, abs=1e-12
    )
    k2, _ = normalize_charge(zn, samples)
    assert abs(k2 - 1) < 1e-9


def test_tits_finite_type_is_everything():
    for name in FINITE_CORPUS:
        g, ring = setup(name)
        for x in [(1.0,) * g.rank, (-1.0,) * g.rank, (2.0, -3.0) + (0.5,) * (g.rank - 2)]:
            assert in_tits_interior(g, ring, x) == "yes"


def test_tits_affine_rank2():
    g, ring = setup("rank2_inf")
    assert in_tits_interior(g, ring, (1.0, 1.0)) == "yes"
    assert in_tits_interior(g, ring, (1.0, -1.0)) == "no"
    assert in_tits_interior(g, ring, (-1.0, -1.0)) == "no"
    # One descent step lands on (0, 1): the stabilizer is the finite {s}.
    assert in_tits_interior(g, ring, (2.0, -1.0)) == "yes"


def test_tits_affine_chain():
    g, ring = setup("g2_affine")
    assert in_tits_interior(g, ring, (0.0, 0.0, 0.0)) == "no"
    assert in_tits_interior(g, ring, (1.0, 1.0, 1.0)) == "yes"
    # Negative on the kernel ray: descent cannot settle, and sampling is
    # not treated as a proof, so the honest answer is inconclusive.
    assert in_tits_interior(g, ring, (-1.0, 0.0, 1.0)) == "inconclusive"
    assert in_tits_interior(g, ring, (-1.0, 0.0, 1.0), max_iter=3) == "inconclusive"


def test_regular_generic_a2():
    g, ring = setup("a2")
    assert in_regular_set(g, ring, charge(1 + 0.3j, 0.7 - 0.2j)) == "yes"


def test_regular_simple_wall():
    g, ring = setup("a2")
    assert in_regular_set(g, ring, charge(0, 1 + 1j)) == "no"


def test_regular_root_wall():
    g, ring = setup("a2")
    assert in_regular_set(g, ring, charge(1 + 1j, -1 - 1j)) == "no"


def test_regular_imaginary_wall():
    g, ring = setup("rank2_inf")
    assert in_regular_set(g, ring, charge(1, -1)) == "no"


def test_regular_borderline_is_inconclusive():
    g, ring = setup("a2")
    assert in_regular_set(g, ring, charge(5e-10, 1 + 1j)) == "inconclusive"


def test_locate_rank_one():
    g = parse_graph(graph_json(["s"], []))
    ring = coxeter_fusion_ring(g)
    rep = locate_chamber(g, ring, charge(1j))
    assert rep.status == "located"
    assert rep.phase == 1
    assert rep.word == ()
    assert rep.charge.values == (1j,)

    rep = locate_chamber(g, ring, charge(-1j))
    assert rep.status == "located"
    assert rep.word == ("s",)
    assert rep.charge.values == (1j,)

    rep = locate_chamber(g, ring, charge(-3))
    assert rep.status == "located"
    assert rep.word == ()

    rep = locate_chamber(g, ring, charge(3))
    assert rep.status == "located"
    assert rep.word == ("s",)
    assert rep.charge.values[0].real == pytest.approx(-3.0, abs=1e-12)


def test_locate_rejects_vanishing_simple_value():
    g = parse_graph(graph_json(["s"], []))
    ring = coxeter_fusion_ring(g)
    with pytest.raises(ValueError, match="vanish"):
        locate_chamber(g, ring, charge(0))


def test_locate_a2_already_located():
    g, ring = setup("a2")
    z = charge(1j, -1)
    rep = locate_chamber(g, ring, z)
    assert rep.status == "located"
    assert rep.phase == 1
    assert rep.word == ()
    assert rep.charge.values == z.values


def test_locate_a2_single_step():
    g, ring = setup("a2")
    z = reflect_charge(g, "s", charge(1j, 1j))
    assert z.values == (-1j, 2j)
    rep = locate_chamber(g, ring, z)
    assert rep.status == "located"
    assert rep.word == ("s",)
    for got, want in zip(rep.charge.values, (1j, 1j)):
        assert abs(got - want) < 1e-12


def test_locate_normalizes_affine_charge():
    g, ring = setup("rank2_inf")
    rep = locate_chamber(g, ring, charge(1j, 1))
    assert rep.status == "located"
    assert rep.word == ()
    assert abs(rep.phase - cmath.exp(1j * math.pi / 4)) < 1e-9
    samples = imaginary_cone_samples(g, ring, 8)
    assert phase_of_imaginary_cone(rep.charge, samples) == pytest.approx(
        math.pi / 2, abs=1e-6
    )


def test_locate_affine_wall_is_not_interior():
    g, ring = setup("rank2_inf")
    rep = locate_chamber(g, ring, charge(1, -1))
    assert rep.status == "not_in_interior"


def test_locate_budget_exhaustion():
    g = parse_graph(graph_json(["s"], []))
    ring = coxeter_fusion_ring(g)
    rep = locate_chamber(g, ring, charge(-1j), max_iter=0)
    assert rep.status == "max_iterations"


def test_locate_budget_exhaustion_in_the_second_phase():
    # (1+i, -i) takes one reflection at t to (1, i); then the value at s
    # sits on the positive real axis and needs one more, at s
    g, ring = setup("a2")
    z = charge(1 + 1j, -1j)
    rep = locate_chamber(g, ring, z, max_iter=1)
    assert rep.status == "max_iterations"
    assert rep.word == ("t",)
    for got, want in zip(rep.charge.values, (1, 1j)):
        assert abs(got - want) < 1e-12
    done = locate_chamber(g, ring, z, max_iter=2)
    assert done.status == "located"
    assert done.word == ("t", "s")
    assert done == locate_chamber(g, ring, z)


def chamber_value(rng):
    if rng.random() < 0.3:
        return complex(rng.uniform(-2.5, -0.3), 0.0)
    return complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))


def test_locate_recovers_inverse_words():
    rng = random.Random(11)
    for name in FINITE_CORPUS:
        g, ring = setup(name)
        for _ in range(25):
            zc = CentralCharge(tuple(chamber_value(rng) for _ in g.vertices))
            word = tuple(
                rng.choice(g.vertices) for _ in range(rng.randrange(13))
            )
            rep = locate_chamber(g, ring, apply_word(g, word, zc))
            assert rep.status == "located"
            assert rep.phase == 1
            for v in rep.charge.values:
                assert v.imag > 1e-9 or (abs(v.imag) <= 1e-9 and v.real < -1e-9)
            assert coxeter_word_equal(g, tuple(reversed(word + rep.word)), ())


def test_imaginary_descent_drops_one_root_per_step():
    g, ring = setup("a3")
    roots = sorted(enumerate_positive_roots(g, ring, 8),
                   key=lambda r: r.coefficients)
    assert len(roots) == 6

    def negatives(z):
        return sum(
            evaluate_charge(g, ring, z, r).imag < -1e-9 for r in roots
        )

    rng = random.Random(5)
    for _ in range(10):
        zc = charge(*(complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
                      for _ in range(g.rank)))
        word = tuple(rng.choice(g.vertices) for _ in range(rng.randrange(1, 10)))
        z = apply_word(g, word, zc)
        rep = locate_chamber(g, ring, z)
        assert rep.status == "located"
        count = negatives(z)
        current = z
        for letter in rep.word:
            current = reflect_charge(g, letter, current)
            assert negatives(current) == count - 1
            count -= 1
        assert count == 0


# ------------------------------------------------------ root walks per query

EXTRA_JSON = {
    "h4": graph_json("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)]),
    "c73": graph_json("abc", [("a", "b", 7), ("b", "c", 3)]),
}


def setup_any(name):
    g = parse_graph({**CORPUS_JSON, **EXTRA_JSON}[name])
    return g, coxeter_fusion_ring(g)


@pytest.fixture
def walks(monkeypatch):
    """The depth of every root walk, in call order, whichever module starts it."""
    calls = []
    real = lattice.root_layers

    def spy(g, ring, depth):
        calls.append(depth)
        return real(g, ring, depth)

    monkeypatch.setattr(lattice, "root_layers", spy)
    monkeypatch.setattr(geometry, "root_layers", spy)
    return calls


def two_walk_regular(g, ring, z, depth, tol=1e-9):
    """in_regular_set with the roots and the samples from separate walks."""
    values = [abs(evaluate_charge(g, ring, z, r)) for r in enumerate_positive_roots(g, ring, depth)]
    values += [
        abs(sum(zi * ci for zi, ci in zip(z.values, x)))
        for x in imaginary_cone_samples(g, ring, depth)
    ]
    if any(v < tol / 10 for v in values):
        return "no"
    return "yes" if all(v > tol for v in values) else "inconclusive"


@pytest.mark.parametrize("name", ["chain45", "c73", "g2_affine"])
def test_regular_set_walks_once(walks, name):
    g, ring = setup_any(name)
    rng = random.Random(name)
    for k in range(4):
        z = charge(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in g.vertices))
        if k % 2:
            z = CentralCharge(z.values[:-1] + (0j,))
        walks.clear()
        res = in_regular_set(g, ring, z)
        assert walks == [8]
        assert res == two_walk_regular(g, ring, z, 8)
    assert res == "no"


def test_regular_rejects_bad_depth():
    g, ring = setup("g2_affine")
    with pytest.raises(ValueError, match="depth"):
        in_regular_set(g, ring, charge(1j, 1j, 1j), depth=0)


@pytest.mark.parametrize("name", ["h4", "rank2_inf"])
def test_chamber_needs_no_walk(walks, name):
    g, ring = setup_any(name)
    rng = random.Random(name)
    for _ in range(10):
        zc = CentralCharge(tuple(chamber_value(rng) for _ in g.vertices))
        word = tuple(rng.choice(g.vertices) for _ in range(rng.randrange(8)))
        rep = locate_chamber(g, ring, apply_word(g, word, zc))
        assert rep.status == "located"
    assert walks == []


def test_tits_short_descent_needs_no_walk(walks):
    g, ring = setup("g2_affine")
    assert in_tits_interior(g, ring, (1.0, 1.0, 1.0)) == "yes"
    assert in_tits_interior(g, ring, (-1.0, 2.0, 1.0)) == "yes"
    assert walks == []


def test_tits_budget_is_sized_by_one_walk(walks, monkeypatch):
    g, ring = setup("g2_affine")
    budget = geometry._default_budget(g, ring, 8)
    walks.clear()
    steps = []
    real = geometry._reflect_values

    def count(rows, si, vals):
        steps.append(si)
        return real(rows, si, vals)

    monkeypatch.setattr(geometry, "_reflect_values", count)
    assert in_tits_interior(g, ring, (-1.0, 0.0, 1.0)) == "inconclusive"
    assert walks == [8]
    assert len(steps) == budget > 10 * g.rank


def test_long_descent_walks_once_and_keeps_its_report(walks):
    g, ring = setup_any("h4")
    rng = random.Random(4)
    zc = CentralCharge(tuple(chamber_value(rng) for _ in g.vertices))
    # (abcd)^15 is a reduced word of the longest element, of length 60
    z = apply_word(g, g.vertices * 15, zc)
    rep = locate_chamber(g, ring, z)
    assert len(rep.word) == 60 >= 10 * g.rank
    assert walks == [8]
    assert rep == locate_chamber(g, ring, z, max_iter=geometry._default_budget(g, ring, 8))
    assert rep.status == "located"
