"""Bounded complexes of graded projectives and the spherical twist action.

A complex keeps, per cohomological degree, an ordered tuple of summands
(v, k) standing for P_v<k>, together with differential matrices whose
entries are path combinations acting by right multiplication.  All
coefficients are Fractions.  make_complex validates every complex it
builds, before and after elimination: each entry must be a homogeneous
path combination between the summands it connects, and d . d = 0 is
checked by a sparse pass over the nonzero entries only.  A failed check
raises InvariantError, which python -O does not strip.  A complex is
minimal when no entry contains an idempotent; gaussian_eliminate
reaches that form.  Construction sorts the summands of each degree by
(vertex, shift), so two equal minimal complexes compare equal as plain
values.

The twist and the inverse twist share one cone construction, `_cone`:
the twist is the cone of the counit, the inverse twist that of the
unit, and the two differ only in the degree and shift of the new
summands and in which map joins them to the old ones.  A twist whose
cone is empty, because no summand has a path from the twisting vertex,
returns its input without rebuilding it.

The word problems (is_identity_word, recognize_shift, words_equal) start
from one projective per base vertex, P_(s,1) on the unit of the fusion
ring, not from every unfolded vertex.  The zigzag algebra is an algebra
object in the fusion category, so P_(s,E) = P_(s,1) (x) E, and the
twists along one fiber commute with - (x) E up to isomorphism.  A word
that fixes, or shifts by [a]<b>, every P_(s,1) therefore does the same
to every projective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coxgraph import InvariantError, braid_letters
from .unfolding import UnfoldedGraph, fiber
from .zigzag import (
    ONE,
    Combo,
    ZigzagAlgebra,
    _vertex_index,
    frobenius_comult,
    multiply_combo,
)


@dataclass(frozen=True)
class Complex:
    """terms: degree -> summands (v, k); diffs: degree -> entry matrix.

    diffs[i][r][c] is the component from the r-th degree-i summand to
    the c-th degree-(i+1) summand; the key i is present exactly when
    both degrees are.
    """

    terms: dict[int, tuple[tuple[int, int], ...]]
    diffs: dict[int, tuple[tuple[Combo, ...], ...]]


def _add_combo(x: Combo, y: Combo) -> Combo:
    acc = dict(x)
    for b, co in y:
        acc[b] = acc.get(b, 0) + co
    return tuple(sorted((b, co) for b, co in acc.items() if co))


def _scale_combo(x: Combo, a: Fraction) -> Combo:
    return tuple((b, co * a) for b, co in x) if a else ()


def _normalize_entry(entry) -> Combo:
    acc: dict[int, Fraction] = {}
    for b, co in entry:
        acc[b] = acc.get(b, 0) + Fraction(co)
    return tuple(sorted((b, co) for b, co in acc.items() if co))


def _check_complex(A: ZigzagAlgebra, c: Complex) -> None:
    # entries are homogeneous paths between the summands they connect
    for i, mat in c.diffs.items():
        rows, cols = c.terms[i], c.terms[i + 1]
        if len(mat) != len(rows) or any(len(row) != len(cols) for row in mat):
            raise InvariantError(f"differential at degree {i} has the wrong shape")
        for (u, k), row in zip(rows, mat):
            for (v, k2), entry in zip(cols, row):
                for b, co in entry:
                    if not (
                        co
                        and A.source(b) == u
                        and A.target(b) == v
                        and A.degree(b) == k - k2
                    ):
                        raise InvariantError(
                            f"entry at degree {i} is not a degree-{k - k2} "
                            f"path combination from vertex {u} to {v}"
                        )
    # d.d = 0, accumulated per (row, column, basis path) over nonzero entries
    mult = A.mult
    for i, mat in c.diffs.items():
        nxt = c.diffs.get(i + 1)
        if nxt is None:
            continue
        nonzero = [[(cc, y) for cc, y in enumerate(row) if y] for row in nxt]
        for row in mat:
            acc: dict[tuple[int, int], Fraction] = {}
            for m, x in enumerate(row):
                if not x:
                    continue
                for cc, y in nonzero[m]:
                    for bi, ci in x:
                        for bj, cj in y:
                            for bk, ck in mult.get((bi, bj), ()):
                                key = (cc, bk)
                                acc[key] = acc.get(key, 0) + ci * cj * ck
            if any(acc.values()):
                raise InvariantError(f"d.d != 0 at degree {i}")


def make_complex(A: ZigzagAlgebra, terms, diffs) -> Complex:
    """Build a validated complex from summand lists and entry matrices.

    Empty degrees are dropped, each degree's summands are stably sorted
    by (vertex, shift) with the matching permutation applied to the
    matrices, and coefficients are coerced to Fraction.
    """
    kept = {i: tuple(ss) for i, ss in terms.items() if ss}
    order = {
        i: sorted(range(len(ss)), key=lambda r: ss[r]) for i, ss in kept.items()
    }
    out_terms = {
        i: tuple((int(ss[r][0]), int(ss[r][1])) for r in order[i])
        for i, ss in kept.items()
    }
    out_diffs = {}
    for i in out_terms:
        if i + 1 not in out_terms:
            continue
        raw = diffs.get(i, ())
        if raw:
            if len(raw) != len(kept[i]) or any(
                len(row) != len(kept[i + 1]) for row in raw
            ):
                raise InvariantError(
                    f"differential at degree {i} does not match its summands"
                )
            mat = tuple(
                tuple(
                    _normalize_entry(raw[r][cc]) if raw[r][cc] else ()
                    for cc in order[i + 1]
                )
                for r in order[i]
            )
        else:
            mat = tuple(((),) * len(kept[i + 1]) for _ in kept[i])
        out_diffs[i] = mat
    for i, raw in diffs.items():
        if i not in out_diffs:
            # a matrix between dropped or missing degrees must be zero
            if any(entry for row in raw for entry in row):
                raise InvariantError(
                    f"nonzero differential at degree {i} has no summands to connect"
                )
    c = Complex(out_terms, out_diffs)
    _check_complex(A, c)
    return c


def projective_complex(A: ZigzagAlgebra, v, k: int = 0, i: int = 0) -> Complex:
    """The one-summand complex P_v<k> placed in cohomological degree i."""
    v = _vertex_index(A, v)
    return make_complex(A, {i: ((v, k),)}, {})


def gaussian_eliminate(A: ZigzagAlgebra, c: Complex, rng=None) -> Complex:
    """Minimal form: strike out idempotent entries one at a time.

    Pivots are taken lowest degree first, then row-major; pass an rng to
    pick pivots at random instead (the summand multiset must not care).
    """
    terms = {i: list(ss) for i, ss in c.terms.items()}
    diffs = {i: [list(row) for row in mat] for i, mat in c.diffs.items()}

    def pivots(i: int, first_only: bool):
        found = []
        for r, row in enumerate(diffs[i]):
            for cc, entry in enumerate(row):
                if any(A.basis[b][0] == "e" for b, _ in entry):
                    found.append((i, r, cc))
                    if first_only:
                        return found
        return found

    def eliminate(i: int, r: int, c0: int) -> None:
        mat = diffs[i]
        # an entry containing an idempotent is exactly one e-term
        ((_, a),) = mat[r][c0]
        inv = -1 / a
        hot = [c2 for c2 in range(len(mat[r])) if c2 != c0 and mat[r][c2]]
        for r2 in range(len(mat)):
            if r2 == r or not mat[r2][c0]:
                continue
            left = mat[r2][c0]
            for c2 in hot:
                corr = _scale_combo(multiply_combo(A, left, mat[r][c2]), inv)
                mat[r2][c2] = _add_combo(mat[r2][c2], corr)
        del terms[i][r]
        del terms[i + 1][c0]
        del mat[r]
        for row in mat:
            del row[c0]
        if i - 1 in diffs:
            for row in diffs[i - 1]:
                del row[r]
        if i + 1 in diffs:
            del diffs[i + 1][c0]

    if rng is None:
        for i in sorted(diffs):
            while True:
                found = pivots(i, True)
                if not found:
                    break
                eliminate(*found[0])
    else:
        while True:
            found = [p for i in sorted(diffs) for p in pivots(i, False)]
            if not found:
                break
            eliminate(*rng.choice(found))

    return make_complex(A, terms, diffs)


def _unchanged(A: ZigzagAlgebra, c: Complex, eliminate: bool) -> Complex:
    """The twist of c when its cone is empty: c itself, reduced to
    minimal form first if asked to and not already minimal."""
    if eliminate and any(
        A.basis[b][0] == "e"
        for mat in c.diffs.values()
        for row in mat
        for entry in row
        for b, _ in entry
    ):
        return gaussian_eliminate(A, c)
    return c


def _cone(A: ZigzagAlgebra, v, c: Complex, eliminate: bool, side: int) -> Complex:
    """The twist (side -1) or inverse twist (side +1) of c at v.

    Both are cones over P_v (x) Hom(P_v, c): each path p from v to a
    summand of c at degree i adds one summand P_v at degree i + side.
    The twist maps it onto that summand by the counit, right
    multiplication by p.  The inverse twist shifts it by <-2> and maps
    the summand onto it by the unit, the comultiplication partner of p.
    """
    v = _vertex_index(A, v)
    paths = A.paths_out[v]
    if not any(u in paths for summands in c.terms.values() for u, _ in summands):
        return _unchanged(A, c, eliminate)
    e_v = A._basis_index[("e", v)]
    shift = -2 if side > 0 else 0
    # partner[y] = x over the comultiplication terms x (x) y at v
    partner = (
        {y: x for pairs in frobenius_comult(A, v).values() for x, y in pairs}
        if side > 0
        else {}
    )
    # cone[i] lists (row r of c.terms[i - side], path p from v to that summand)
    cone: dict[int, list[tuple[int, int]]] = {}
    for i, summands in c.terms.items():
        added = [
            (r, p)
            for r, (u, _) in enumerate(summands)
            for p in paths.get(u, ())
        ]
        if added:
            cone[i + side] = added
    terms = {}
    for i in set(c.terms) | set(cone):
        extra = tuple(
            (v, c.terms[i - side][r][1] + shift + A.degree(p))
            for r, p in cone.get(i, ())
        )
        terms[i] = c.terms.get(i, ()) + extra
    diffs = {}
    for i in terms:
        if i + 1 not in terms:
            continue
        old_cols = c.terms.get(i + 1, ())
        oldmat = c.diffs.get(i)
        dmat = c.diffs.get(i - side)
        new_cols = cone.get(i + 1, ())
        mat = []
        for r in range(len(c.terms.get(i, ()))):
            row = [oldmat[r][cc] if oldmat else () for cc in range(len(old_cols))]
            # unit component (inverse twist): row r to the summands over it
            row.extend(
                ((partner[p2], ONE),) if side > 0 and r2 == r else ()
                for r2, p2 in new_cols
            )
            mat.append(row)
        for r, p in cone.get(i, ()):
            # counit component (twist): right multiplication by the path
            row = [
                ((p, ONE),) if side < 0 and cc == r else ()
                for cc in range(len(old_cols))
            ]
            for r2, p2 in new_cols:
                delta = dmat[r][r2] if dmat else ()
                prod = multiply_combo(A, ((p, ONE),), delta)
                co = next((co for b, co in prod if b == p2), None)
                row.append(((e_v, -co),) if co else ())
            mat.append(row)
        diffs[i] = mat
    out = make_complex(A, terms, diffs)
    return gaussian_eliminate(A, out) if eliminate else out


def twist(A: ZigzagAlgebra, v, c: Complex, eliminate: bool = True) -> Complex:
    """Spherical twist at an unfolded vertex: the cone of the counit
    P_v (x) Hom(P_v, c) -> c, with the new summands one degree down."""
    return _cone(A, v, c, eliminate, -1)


def dual_twist(A: ZigzagAlgebra, v, c: Complex, eliminate: bool = True) -> Complex:
    """Inverse twist: the cone of the unit c -> P_v (x) Hom(P_v, c),
    with the new summands one degree up and an internal shift by -2."""
    return _cone(A, v, c, eliminate, 1)


def _fiber_plan(u: UnfoldedGraph, word) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each letter of the word as its exponent and the unfolded indices
    of its fiber, resolved once for all the complexes it acts on."""
    return tuple(
        (exp, tuple(u.index(pair) for pair in fiber(u, name)))
        for name, exp in braid_letters(word)
    )


def _apply_plan(A: ZigzagAlgebra, plan, c: Complex) -> Complex:
    # twist and dual_twist are looked up per call, so that patching the
    # module names sees every twist
    for exp, vertices in plan:
        op = twist if exp == 1 else dual_twist
        for v in vertices:
            c = op(A, v, c)
    return c


def apply_braid_word(A: ZigzagAlgebra, u: UnfoldedGraph, word, c: Complex) -> Complex:
    """Act by a word in the base generators, first letter first; each
    letter twists (or untwists) along every vertex of its fiber."""
    return _apply_plan(A, _fiber_plan(u, word), c)


def complex_class(A: ZigzagAlgebra, c: Complex):
    """Lattice class: per vertex, the Laurent coefficients as sorted
    (exponent, coefficient) pairs; summand (v,k) at degree i counts
    (-1)^i q^k."""
    acc: list[dict[int, int]] = [{} for _ in A.quiver.vertices]
    for i, summands in c.terms.items():
        sign = -1 if i % 2 else 1
        for v, k in summands:
            acc[v][k] = acc[v].get(k, 0) + sign
    return tuple(
        tuple((e, co) for e, co in sorted(d.items()) if co) for d in acc
    )


def _unit_starts(u: UnfoldedGraph) -> tuple[int, ...]:
    """Index of (s, 1) for each base vertex s, 1 being the ring's unit:
    the starts P_(s,1) of the word problems."""
    unit = u.ring.basis[u.ring.unit_index]
    return tuple(u.index((s, unit)) for s in u.base.vertices)


def is_identity_word(A: ZigzagAlgebra, u: UnfoldedGraph, word) -> bool:
    """Whether the word acts trivially on every projective.  This
    decides equality in the group generated by the twists themselves.

    Only the unit fiber is swept: P_(s,E) = P_(s,1) (x) E, and the fiber
    twists commute with - (x) E up to isomorphism, so a word that fixes
    every P_(s,1) fixes every projective.
    """
    plan = _fiber_plan(u, word)
    return all(
        _apply_plan(A, plan, projective_complex(A, x)) == projective_complex(A, x)
        for x in _unit_starts(u)
    )


def recognize_shift(A: ZigzagAlgebra, u: UnfoldedGraph, word, pure: bool = False):
    """(a, b) when the word acts as the shift [a]<b> on every
    projective, None otherwise; pure mode only accepts b = 0.

    As in is_identity_word, the shift is read off the unit fiber: the
    twists commute with - (x) E, so the word shifts P_(s,E) = P_(s,1) (x) E
    exactly as it shifts P_(s,1).
    """
    plan = _fiber_plan(u, word)
    result = None
    for x in _unit_starts(u):
        out = _apply_plan(A, plan, projective_complex(A, x))
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


def words_equal(A: ZigzagAlgebra, u: UnfoldedGraph, first, second) -> bool:
    """Compare two words by checking that first . second^{-1} acts
    trivially."""
    inv = tuple(
        (name, -exp) for name, exp in reversed(braid_letters(second))
    )
    return is_identity_word(A, u, braid_letters(first) + inv)
