"""Bounded complexes of graded projectives and the spherical twist action.

A complex keeps, per cohomological degree, an ordered tuple of summands
(v, k) standing for P_v<k>, together with its differential in sparse
rows: diffs[i][r] is a map {c: Combo} from the index c of a
degree-(i+1) summand to the nonzero component from the r-th degree-i
summand, and a zero component is absent.  Components are path
combinations acting by right multiplication, with int coefficients.

Complexes are normalized at the boundary and validated everywhere.
make_complex is the one front door for rows that callers supply and
the only place that normalizes them: it takes dense or sparse rows,
stores an integral Fraction or a bool as an int and raises on any
other coefficient, such as 1.0 or Fraction(1, 2), merges repeated
paths, drops zeros and empty degrees, and stably sorts the summands of
each degree by (vertex, shift), so two equal minimal complexes compare
equal as plain values.  The twists and gaussian_eliminate build their
results directly in that form.  Every complex, wherever it was built,
passes the one validator, _check_complex: it checks that form, rows
that match the summands, stored entries that are homogeneous path
combinations between the summands they connect, and d . d = 0.  A
twist checks its cone, and elimination checks its result again.
Building, checking, eliminating and printing walk the nonzero entries
only.  A failed check raises InvariantError, which python -O does not
strip.  A complex is minimal when no entry contains an idempotent;
gaussian_eliminate reaches that form from a worklist of +-1 pivots, as
in Bar-Natan's local elimination (arXiv:math/0606318), and returns an
already minimal complex as it is.

The twist and the inverse twist share one cone construction, `_cone`:
the twist is the cone of the counit, the inverse twist that of the
unit, and the two differ only in the degree and shift of the new
summands and in which map joins them to the old ones.  The unit joins
a summand to the new summand of path p by the comultiplication
partner of p, which is its Frobenius dual: the algebra stores it as
duals[p], written once by build_zigzag, so no twist builds the
comultiplication.  Every twist still runs both checks, _check_complex
on the cone and again on the result of elimination.  A twist whose
cone is empty, because no summand has a path from the twisting vertex,
returns its input without rebuilding it, through gaussian_eliminate
unless elimination is off.

A braid letter twists along its whole fiber, but only at the live
vertices: the support of the complex (the vertices that carry a
summand) is read once per letter, and a fiber vertex with no path to
it is skipped, since its cone is empty.  This is exact.  No two
vertices of a fiber are adjacent, because no base vertex is joined to
itself, so none has a path to another; a twist at v adds summands at v
only, and elimination only removes summands; so the support read at
the start of the letter contains every vertex whose cone is nonempty
when the loop reaches it.  A skipped twist would have returned
gaussian_eliminate(c), which is c itself once c is minimal, and every
twist result is minimal; only a skipped first twist of a word, on a
complex supplied from outside, still eliminates.

The word problems (is_identity_word, recognize_shift, words_equal) start
from one projective per base vertex, P_(s,1) on the unit of the fusion
ring, not from every unfolded vertex.  The zigzag algebra is an algebra
object in the fusion category, so P_(s,E) = P_(s,1) (x) E, and the
twists along one fiber commute with - (x) E up to isomorphism.  A word
that fixes, or shifts by [a]<b>, every P_(s,1) therefore does the same
to every projective.

Before any complex is built, the folded Burau matrix may reject the
word.  The class of a complex in K_0 is its Burau column, so a word that
fixes every P_(s,1) has e_s as column s of burau_word(g, ring, word),
and one that acts as [a]<b> has (-1)^a q^b e_s there.  burau_shift reads
that common (sign, b) off the matrix, or None; a word whose matrix is not
of that form is answered "no" at once, and builds no complex.  The
matrix only ever rejects: the Burau representation is not faithful in
general (Bigelow, "The Burau representation is not faithful for n = 5",
1999), so a word it passes goes on to the twists, which alone accept.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .coxgraph import CoxeterGraph, InvariantError, braid_letters
from .fusion import FusionElement, coxeter_fusion_ring
from .lattice import burau_word
from .unfolding import UnfoldedGraph, fiber
from .zigzag import (
    Combo,
    ZigzagAlgebra,
    _add_combo,
    _normalize_entry,
    _vertex_index,
    multiply_combo,
)


@dataclass(frozen=True)
class Complex:
    """terms: degree -> summands (v, k); diffs: degree -> sparse rows.

    diffs[i][r] is the row of the r-th degree-i summand, a map
    {c: Combo} from the index c of a degree-(i+1) summand to the nonzero
    component between the two; a zero component is absent.  The key i
    is present exactly when both degrees are.
    """

    terms: dict[int, tuple[tuple[int, int], ...]]
    diffs: dict[int, tuple[dict[int, Combo], ...]]


def _row_entries(row):
    """(column, entry) pairs of a sparse row {column: entry} or a dense
    row with one entry per column."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _check_complex(A: ZigzagAlgebra, c: Complex) -> None:
    """Validate a complex, wherever it was built.

    make_complex normalizes what callers supply and the twists build
    their results already normalized, so this one check holds every
    complex to the same form: each degree holds summands sorted by
    (vertex, shift); adjacent degrees have a row map and no other
    degrees do; each row is {column: entry} with the column in range;
    each stored entry is a nonzero combination of basis paths, with
    strictly increasing indices and nonzero int coefficients, that is
    homogeneous between the summands it connects; and d . d = 0.
    Any failure raises InvariantError.
    """
    terms = c.terms
    for i, summands in terms.items():
        if not summands or list(summands) != sorted(summands):
            raise InvariantError(f"summands at degree {i} are not sorted")
        if i + 1 in terms and i not in c.diffs:
            raise InvariantError(f"differential at degree {i} is missing")
    sources, targets, degrees, dim = A.sources, A.targets, A.degrees, A.dim
    for i, mat in c.diffs.items():
        rows, cols = terms.get(i, ()), terms.get(i + 1, ())
        if not rows or not cols or len(mat) != len(rows):
            raise InvariantError(f"differential at degree {i} has the wrong shape")
        for (u, k), row in zip(rows, mat):
            for cc, entry in row.items():
                if not 0 <= cc < len(cols):
                    raise InvariantError(
                        f"differential at degree {i} has no column {cc!r}"
                    )
                if not entry:
                    raise InvariantError(f"zero entry stored at degree {i}")
                v, k2 = cols[cc]
                d = k - k2
                last = -1
                for b, co in entry:
                    if not (last < b < dim and type(co) is int and co):
                        raise InvariantError(
                            f"entry at degree {i} is not a sorted combination "
                            "of basis paths with nonzero int coefficients"
                        )
                    if not (sources[b] == u and targets[b] == v and degrees[b] == d):
                        raise InvariantError(
                            f"entry at degree {i} is not a degree-{d} "
                            f"path combination from vertex {u} to {v}"
                        )
                    last = b
    # d.d = 0, accumulated per (row, column, basis path); every nonzero
    # product of basis paths is one path with coefficient +1
    products = A.products
    for i, mat in c.diffs.items():
        nxt = c.diffs.get(i + 1)
        if nxt is None:
            continue
        for row in mat:
            acc: dict[int, int] = {}
            for m, x in row.items():
                below = nxt[m].items()
                for bi, ci in x:
                    prod = products[bi]
                    for cc, y in below:
                        for bj, cj in y:
                            bk = prod.get(bj)
                            if bk is not None:
                                key = cc * dim + bk
                                acc[key] = acc[key] + ci * cj if key in acc else ci * cj
            if any(acc.values()):
                raise InvariantError(f"d.d != 0 at degree {i}")


def make_complex(A: ZigzagAlgebra, terms, diffs) -> Complex:
    """Build a validated complex from summand lists and differential rows.

    The one front door for rows that callers supply, and the only place
    that normalizes them.  diffs[i] holds one row per degree-i summand,
    sparse as a map {column: entry} or dense as a sequence of one entry
    per degree-(i+1) summand; an entry is a sequence of (basis index,
    coefficient) pairs.  The shape is checked first, against the
    summands as given.  Then empty degrees are dropped, each degree's
    summands are stably sorted by (vertex, shift) with the matching
    permutation applied to rows and columns, and each entry becomes a
    Combo: repeated paths merged, sorted by index, zeros dropped, and
    zero entries left out of the sparse rows.  A coefficient may be an
    int, a bool or an integral Fraction, stored as int; 1.0 or
    Fraction(1, 2) raises.  The result passes _check_complex, the
    validator every complex passes.
    """
    kept = {i: tuple(ss) for i, ss in terms.items() if ss}
    order = {
        i: sorted(range(len(ss)), key=ss.__getitem__) for i, ss in kept.items()
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
        if not raw:
            out_diffs[i] = tuple({} for _ in kept[i])
            continue
        ncols = len(kept[i + 1])
        if len(raw) != len(kept[i]) or any(
            not isinstance(row, dict) and len(row) != ncols for row in raw
        ):
            raise InvariantError(
                f"differential at degree {i} does not match its summands"
            )
        # column index in the input -> column index in the sorted output
        position = {cc: n for n, cc in enumerate(order[i + 1])}
        mat = []
        for r in order[i]:
            out = {}
            for cc, entry in _row_entries(raw[r]):
                if cc not in position:
                    raise InvariantError(
                        f"differential at degree {i} has no column {cc!r}"
                    )
                combo = _normalize_entry(entry)
                if combo:
                    out[position[cc]] = combo
            mat.append(out)
        out_diffs[i] = tuple(mat)
    for i, raw in diffs.items():
        if i not in out_diffs:
            # rows between dropped or missing degrees must be zero
            if any(entry for row in raw for _, entry in _row_entries(row)):
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

    A worklist holds the entries that contain an idempotent, keyed by
    (degree, row, column) in c's numbering, an order that deletions do
    not change.  Pivots are popped lowest key first, that is lowest
    degree first and then row-major.  Striking out pivot (r, c0)
    rewrites only the entries (r2, c2) with r2 in column c0 and c2 in
    row r, and those that then contain an idempotent are pushed.  Pass
    an rng to pop pivots at random instead (the summand multiset must
    not care).  A complex without an idempotent entry is already
    minimal and is returned as it is.  Over the integers only a pivot
    of +-1 can be struck out; any other raises InvariantError.

    c must be normalized, as every complex is.  The summands left keep
    their order, and the rewritten entries are Combos, so the result is
    built in its final form, with no second normalization, and passes
    _check_complex.
    """
    # entries are homogeneous, so one that contains an idempotent is a
    # degree-0 multiple of it, and its first path, an e, is below n
    n = len(A.quiver.vertices)
    work = [
        (i, r, cc)
        for i, mat in c.diffs.items()
        for r, row in enumerate(mat)
        for cc, entry in row.items()
        if entry[0][0] < n
    ]
    if not work:
        return c
    heapq.heapify(work)
    # live rows by original index, and per column the rows that reach it
    rows: dict[int, dict[int, dict[int, Combo]]] = {}
    cols: dict[int, dict[int, set[int]]] = {}
    for i, mat in c.diffs.items():
        rows[i] = live = {}
        cols[i] = col = {}
        for r, row in enumerate(mat):
            live[r] = dict(row)
            for cc in row:
                if cc in col:
                    col[cc].add(r)
                else:
                    col[cc] = {r}
    gone = {i: set() for i in c.terms}

    while work:
        if rng is None:
            i, r, c0 = heapq.heappop(work)
        else:
            i, r, c0 = work.pop(rng.randrange(len(work)))
        mat, col = rows[i], cols[i]
        top = mat.get(r)
        pivot = top.get(c0) if top else None
        if not pivot or pivot[0][0] >= n:
            continue  # struck out or rewritten since it was pushed
        ((_, a),) = pivot
        if a not in (1, -1):
            raise InvariantError(f"pivot {a} at degree {i} is not a unit")
        del mat[r]
        del top[c0]
        for c2 in top:
            col[c2].discard(r)
        col[c0].discard(r)
        for r2 in col.pop(c0):
            row = mat[r2]
            left = row.pop(c0)
            for c2, right in top.items():
                corr = multiply_combo(A, left, right)
                if not corr:
                    continue
                if c2 in row:
                    entry = _add_combo(row[c2], corr, -a)  # 1/a = a
                    if not entry:
                        del row[c2]
                        col[c2].discard(r2)
                        continue
                else:
                    entry = corr if a == -1 else tuple([(b, -co) for b, co in corr])
                    col[c2].add(r2)
                row[c2] = entry
                if entry[0][0] < n:
                    heapq.heappush(work, (i, r2, c2))
        # the summands r at degree i and c0 at degree i + 1 leave, and
        # with them a column of the differential below and a row above
        if i - 1 in rows:
            for r1 in cols[i - 1].pop(r, ()):
                del rows[i - 1][r1][r]
        if i + 1 in rows:
            for c3 in rows[i + 1].pop(c0):
                cols[i + 1][c3].discard(c0)
        gone[i].add(r)
        gone[i + 1].add(c0)

    # the summands left keep their sorted order, and so do the live
    # rows, which only ever lose keys; empty degrees go, and with them
    # the row maps that touch them.  renumber[i] maps each summand left
    # at degree i to its new index, for the degrees that lost any
    terms, renumber = {}, {}
    for i, summands in c.terms.items():
        out = gone[i]
        if not out:
            terms[i] = summands
            continue
        left_rows = [r for r in range(len(summands)) if r not in out]
        if left_rows:
            terms[i] = tuple([summands[r] for r in left_rows])
            renumber[i] = dict(zip(left_rows, range(len(left_rows))))
    diffs = {}
    for i, mat in rows.items():
        if i in terms and i + 1 in terms:
            to = renumber.get(i + 1)
            diffs[i] = tuple(
                [{to[cc]: entry for cc, entry in row.items()} for row in mat.values()]
                if to
                else mat.values()
            )
    out = Complex(terms, diffs)
    _check_complex(A, out)
    return out


def _cone(A: ZigzagAlgebra, v, c: Complex, eliminate: bool, side: int) -> Complex:
    """The twist (side -1) or inverse twist (side +1) of c at v.

    Both are cones over P_v (x) Hom(P_v, c): each path p from v to a
    summand of c at degree i adds one summand P_v at degree i + side.
    The twist maps it onto that summand by the counit, right
    multiplication by p.  The inverse twist shifts it by <-2> and maps
    the summand onto it by the unit, the comultiplication partner of p,
    which is A.duals[p].  Between the new summands sits -e_v times the
    coefficient of p2 in p . delta, for each nonzero entry delta of c's
    differential.
    Every entry is already a Combo, so the cone is built straight in
    make_complex's numbering and checked, not normalized again.
    """
    v = _vertex_index(A, v)
    paths = A.paths_out[v]
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
    if not cone:
        return gaussian_eliminate(A, c) if eliminate else c
    e_v = v  # e_v is basis index v by construction
    degrees, duals = A.degrees, A.duals
    shift = -2 if side > 0 else 0
    # the result's numbering: each degree's summands, old then new,
    # stably sorted by (vertex, shift), so that equal minimal complexes
    # compare equal.  A degree that gains summands lists its final order
    # in order[i], and position[i][n] is the final index of its n-th
    # summand; any other degree keeps c's numbering
    terms, order, position = {}, {}, {}
    for i in set(c.terms) | set(cone):
        ss = c.terms.get(i, ())
        added = cone.get(i)
        if added:
            below = c.terms[i - side]
            ss += tuple([(v, below[r][1] + shift + degrees[p]) for r, p in added])
            order[i] = rs = sorted(range(len(ss)), key=ss.__getitem__)
            position[i] = pos = [0] * len(rs)
            for n, r in enumerate(rs):
                pos[r] = n
            ss = tuple([ss[r] for r in rs])
        terms[i] = ss
    diffs = {}
    for i in terms:
        if i + 1 not in terms:
            continue
        to = position.get(i + 1)
        oldmat = c.diffs.get(i)
        # over[r2]: the (column, path) of each new summand at degree
        # i + 1 that sits over row r2 of c.terms[i + 1 - side]
        over: dict[int, list[tuple[int, int]]] = {}
        n_old = len(c.terms.get(i + 1, ()))
        for n, (r2, p2) in enumerate(cone.get(i + 1, ()), n_old):
            over.setdefault(r2, []).append((to[n], p2))
        if not oldmat:
            mat = [{} for _ in c.terms.get(i, ())]
        elif to:
            mat = [{to[cc]: entry for cc, entry in row.items()} for row in oldmat]
        else:
            mat = list(oldmat)  # columns unchanged: the rows are shared as they are
        if side > 0:
            # unit component (inverse twist): row r to the summands over it
            for r, targets in over.items():
                row = mat[r]
                for cc, p2 in targets:
                    row[cc] = ((duals[p2], 1),)
        dmat = c.diffs.get(i - side)
        for r, p in cone.get(i, ()):
            # counit component (twist): right multiplication by the path
            row = {to[r] if to else r: ((p, 1),)} if side < 0 else {}
            for r2, delta in dmat[r].items() if dmat else ():
                targets = over.get(r2)
                if targets:
                    prod = dict(multiply_combo(A, ((p, 1),), delta))
                    for cc, p2 in targets:
                        if p2 in prod:
                            row[cc] = ((e_v, -prod[p2]),)
            mat.append(row)
        rs = order.get(i)
        diffs[i] = tuple([mat[r] for r in rs]) if rs else tuple(mat)
    out = Complex(terms, diffs)
    _check_complex(A, out)
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
    """Twist c along the fiber of each letter, skipping the vertices
    whose cone is empty (see the module docstring for why that is
    exact).  c may come from outside and not be minimal, so a skipped
    first twist still eliminates, as the twist would have."""
    # twist and dual_twist are looked up per call, so that patching the
    # module names sees every twist that runs
    paths_out = A.paths_out
    first = True
    for exp, vertices in plan:
        op = twist if exp == 1 else dual_twist
        live = {u for summands in c.terms.values() for u, _ in summands}
        for v in vertices:
            if not live.isdisjoint(paths_out[v]):
                c = op(A, v, c)
            elif first:
                c = gaussian_eliminate(A, c)
            first = False
    return c


def apply_braid_word(A: ZigzagAlgebra, u: UnfoldedGraph, word, c: Complex) -> Complex:
    """Act by a word in the base generators, first letter first; each
    letter twists (or untwists) along every vertex of its fiber, where
    the twists whose cone is empty are skipped (see _apply_plan)."""
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


def burau_shift(g: CoxeterGraph, word) -> tuple[int, int] | None:
    """(sign, b) when column s of the folded Burau matrix of the word is
    sign q^b e_s for every base vertex s, with one (sign, b) for all;
    None otherwise.

    A word that acts on every P_(s,1) as the shift [a]<b> has
    sign = (-1)^a here, so None, or any other (sign, b), rules that
    shift out.  The converse fails (see the module docstring): this
    test only ever rejects.  The verdict is kept for the last few
    (graph, word) pairs, so a caller that asks before it builds the
    zigzag algebra, and the word problem it then runs, share one matrix.
    """
    return _burau_shift(g, braid_letters(word))


@lru_cache(maxsize=16)
def _burau_shift(g: CoxeterGraph, letters) -> tuple[int, int] | None:
    ring = coxeter_fusion_ring(g)
    entries = burau_word(g, ring, letters).entries
    if not entries:
        return (1, 0)  # no base vertex: nothing to reject
    if len(entries[0][0]) != 1:
        return None
    ((b, corner),) = entries[0][0]
    sign = corner.coefficients[ring.unit_index]
    unit = FusionElement.unit(ring)
    diagonal = ((b, unit if sign == 1 else -unit),)
    want = tuple(
        tuple(diagonal if r == c else () for c in range(len(entries)))
        for r in range(len(entries))
    )
    return (sign, b) if entries == want else None


def _unit_starts(u: UnfoldedGraph) -> tuple[int, ...]:
    """Index of (s, 1) for each base vertex s, 1 being the ring's unit:
    the starts P_(s,1) of the word problems."""
    unit = u.ring.basis[u.ring.unit_index]
    return tuple(u.index((s, unit)) for s in u.base.vertices)


def _unit_images(A: ZigzagAlgebra, u: UnfoldedGraph, word):
    """The unit-start sweep: (x, the image of P_x under the word) for
    each start x, lazily, so a verdict can stop at the first start that
    decides it."""
    plan = _fiber_plan(u, word)
    for x in _unit_starts(u):
        yield x, _apply_plan(A, plan, projective_complex(A, x))


def is_identity_word(A: ZigzagAlgebra, u: UnfoldedGraph, word) -> bool:
    """Whether the word acts trivially on every projective.  This
    decides equality in the group generated by the twists themselves.

    A word whose folded Burau matrix is not the identity is rejected
    before any complex is built.  Only the twists accept, and they sweep
    the unit fiber only: P_(s,E) = P_(s,1) (x) E, and the fiber twists
    commute with - (x) E up to isomorphism, so a word that fixes every
    P_(s,1) fixes every projective.
    """
    if burau_shift(u.base, word) != (1, 0):
        return False
    return all(
        out == projective_complex(A, x) for x, out in _unit_images(A, u, word)
    )


def recognize_shift(A: ZigzagAlgebra, u: UnfoldedGraph, word, pure: bool = False):
    """(a, b) when the word acts as the shift [a]<b> on every
    projective, None otherwise; pure mode only accepts b = 0.

    The folded Burau matrix rejects first, unless it is one uniform
    +-q^b, with b = 0 in pure mode.  The twists then compute the exact
    [a]<b>, read off the unit fiber as in is_identity_word: they commute
    with - (x) E, so the word shifts P_(s,E) = P_(s,1) (x) E exactly as
    it shifts P_(s,1).
    """
    shift = burau_shift(u.base, word)
    if shift is None or (pure and shift[1] != 0):
        return None
    result = None
    for x, out in _unit_images(A, u, word):
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


def quotient_word(first, second) -> tuple[tuple[str, int], ...]:
    """The letters of first . second^{-1}."""
    inv = tuple(
        (name, -exp) for name, exp in reversed(braid_letters(second))
    )
    return braid_letters(first) + inv


def words_equal(A: ZigzagAlgebra, u: UnfoldedGraph, first, second) -> bool:
    """Compare two words by checking that first . second^{-1} acts
    trivially."""
    return is_identity_word(A, u, quotient_word(first, second))
