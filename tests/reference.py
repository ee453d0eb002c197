"""Reference implementations that the tests compare the program against.

Each one computes its answer the slow, direct way and shares no code
with the program it checks, except where said: the twist references
build their results through make_complex, eliminate ref_twist's and
ref_dual_twist's cones with gaussian_eliminate and read the unit partner
from frobenius_comult, but multiply and add path combinations here, on
basis labels.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from coxtwist.homotopy import gaussian_eliminate, make_complex
from coxtwist.zigzag import _vertex_index, frobenius_comult

ONE = Fraction(1)


def _ref_tlj_table(n, labels):
    """The r**3 table of TLJ_n from the truncated Clebsch-Gordan rule,
    written over all of 0..n-2 and then restricted to these labels."""
    full = range(n - 1)
    table = [
        [
            [
                1
                if abs(a - b) <= c <= min(a + b, 2 * (n - 2) - (a + b))
                and (c - a - b) % 2 == 0
                else 0
                for c in full
            ]
            for b in full
        ]
        for a in full
    ]
    return [[[table[a][b][c] for c in labels] for b in labels] for a in labels]


@lru_cache(maxsize=8)
def ref_ring_table(factors):
    """The whole table N[i][j][k] of the Deligne product of these
    (n, labels) TLJ factors, first factor slowest: every entry is the
    product of the factor entries, written out in a triple loop over the
    simples."""
    tables = [_ref_tlj_table(n, labels) for n, labels in factors]
    index_tuples = list(itertools.product(*(range(len(t)) for t in tables)))
    pos = {t: p for p, t in enumerate(index_tuples)}
    size = len(index_tuples)
    N = [[[0] * size for _ in range(size)] for _ in range(size)]
    for ti, ii in enumerate(index_tuples):
        for tj, jj in enumerate(index_tuples):
            # support of the product is a cartesian product of supports
            supports = [
                [c for c in range(len(t)) if t[a][b][c]]
                for t, a, b in zip(tables, ii, jj)
            ]
            for kk in itertools.product(*supports):
                val = 1
                for t, a, b, c in zip(tables, ii, jj, kk):
                    val *= t[a][b][c]
                N[ti][tj][pos[kk]] = val
    return tuple(tuple(tuple(row) for row in plane) for plane in N)


def ref_reflection_matrix(g, ring, s):
    """The dense matrix of v -> v - B_C(alpha_s, v) alpha_s, columns the
    images: column t * r + f, the vector [F] alpha_t, loses
    [F] B_C(alpha_s, alpha_t) alpha_s, each product [F] [X] read off row
    F of the reference table.  B_C(alpha_s, alpha_s) is twice the unit;
    for an edge {s, t} of label m it is minus twice the unit (m = inf),
    or minus the simple with label m - 3 in the label-m factor and 0 in
    every other factor."""
    N = ref_ring_table(ring.factors)
    simples = list(itertools.product(*(labels for _, labels in ring.factors)))
    r = len(simples)
    si = g.vertices.index(s)
    forms = {si: (0, 2)}
    for i, j, m in g.edges:
        if si in (i, j):
            edge = tuple(m - 3 if n == m else 0 for n, _ in ring.factors)
            other = i + j - si
            forms[other] = (0, -2) if m == float("inf") else (simples.index(edge), -1)
    size = len(g.vertices) * r
    mat = [[1 if a == b else 0 for b in range(size)] for a in range(size)]
    for t, (x, c) in forms.items():
        for f in range(r):
            for e in range(r):
                mat[si * r + e][t * r + f] -= c * N[f][x][e]
    return tuple(tuple(row) for row in mat)


REF_DEGREE = {"e": 0, "X": 2, "arrow": 1}


def ref_product(index, bi, bj):
    ti = bi[2] if bi[0] == "arrow" else bi[1]
    if ti != bj[1]:
        return ()
    if REF_DEGREE[bi[0]] + REF_DEGREE[bj[0]] >= 3:
        return ()
    if bi[0] == "e":
        return ((index[bj], ONE),)
    if bj[0] == "e":
        return ((index[bi], ONE),)
    # two arrows with matching ends: cap iff they are mutual reverses
    if bi[1] == bj[2] and bi[3] == bj[3]:
        return ((index[("X", bi[1])], ONE),)
    return ()


def all_pairs_table(A):
    index = {b: k for k, b in enumerate(A.basis)}
    full = {}
    for i, bi in enumerate(A.basis):
        for j, bj in enumerate(A.basis):
            out = ref_product(index, bi, bj)
            if out:
                full[i, j] = out
    return full


@lru_cache(maxsize=16)
def _label_index(basis):
    return {b: k for k, b in enumerate(basis)}


def ref_multiply(A, x, y):
    """The product of two path combinations, each pair of basis paths
    multiplied through ref_product on their labels."""
    index = _label_index(A.basis)
    acc = {}
    for i, ci in x:
        for j, cj in y:
            for k, ck in ref_product(index, A.basis[i], A.basis[j]):
                acc[k] = acc.get(k, 0) + ci * cj * ck
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def ref_add(x, y, a=1):
    """x + a.y, zeros dropped."""
    acc = dict(x)
    for b, co in y:
        acc[b] = acc.get(b, 0) + a * co
    return tuple(sorted((b, co) for b, co in acc.items() if co))


# The twist and the inverse twist as two separate cone constructions,
# kept as the reference for the shared one.
def ref_twist(A, v, c, eliminate=True):
    v = _vertex_index(A, v)
    paths = A.paths_out[v]
    if not any(u in paths for summands in c.terms.values() for u, _ in summands):
        return gaussian_eliminate(A, c) if eliminate else c
    e_v = A.basis.index(("e", v))
    cone = {}
    for i, summands in c.terms.items():
        added = [
            (r, p)
            for r, (u, _) in enumerate(summands)
            for p in paths.get(u, ())
        ]
        if added:
            cone[i - 1] = added
    terms = {}
    for i in set(c.terms) | set(cone):
        extra = tuple(
            (v, c.terms[i + 1][r][1] + A.degree(p)) for r, p in cone.get(i, ())
        )
        terms[i] = c.terms.get(i, ()) + extra
    diffs = {}
    for i in terms:
        if i + 1 not in terms:
            continue
        old_cols = c.terms.get(i + 1, ())
        oldmat = c.diffs.get(i)
        dmat = c.diffs.get(i + 1)
        mat = []
        for r in range(len(c.terms.get(i, ()))):
            row = [oldmat[r].get(cc, ()) if oldmat else () for cc in range(len(old_cols))]
            row.extend(() for _ in cone.get(i + 1, ()))
            mat.append(row)
        for r, p in cone.get(i, ()):
            row = [((p, ONE),) if cc == r else () for cc in range(len(old_cols))]
            for r2, p2 in cone.get(i + 1, ()):
                delta = dmat[r].get(r2, ()) if dmat else ()
                prod = ref_multiply(A, ((p, ONE),), delta)
                co = next((co for b, co in prod if b == p2), None)
                row.append(((e_v, -co),) if co else ())
            mat.append(row)
        diffs[i] = mat
    out = make_complex(A, terms, diffs)
    return gaussian_eliminate(A, out) if eliminate else out


def ref_dual_twist(A, v, c, eliminate=True):
    v = _vertex_index(A, v)
    paths = A.paths_out[v]
    if not any(u in paths for summands in c.terms.values() for u, _ in summands):
        return gaussian_eliminate(A, c) if eliminate else c
    e_v = A.basis.index(("e", v))
    partner = {
        y: x for pairs in frobenius_comult(A, v).values() for x, y in pairs
    }
    cone = {}
    for i, summands in c.terms.items():
        added = [
            (r, y)
            for r, (u, _) in enumerate(summands)
            for y in paths.get(u, ())
        ]
        if added:
            cone[i + 1] = added
    terms = {}
    for i in set(c.terms) | set(cone):
        extra = tuple(
            (v, c.terms[i - 1][r][1] - 2 + A.degree(y))
            for r, y in cone.get(i, ())
        )
        terms[i] = c.terms.get(i, ()) + extra
    diffs = {}
    for i in terms:
        if i + 1 not in terms:
            continue
        old_cols = c.terms.get(i + 1, ())
        oldmat = c.diffs.get(i)
        prevmat = c.diffs.get(i - 1)
        mat = []
        for r in range(len(c.terms.get(i, ()))):
            row = [oldmat[r].get(cc, ()) if oldmat else () for cc in range(len(old_cols))]
            for r2, y2 in cone.get(i + 1, ()):
                row.append(((partner[y2], ONE),) if r2 == r else ())
            mat.append(row)
        for r, y in cone.get(i, ()):
            row = [() for _ in range(len(old_cols))]
            for r2, y2 in cone.get(i + 1, ()):
                delta = prevmat[r].get(r2, ()) if prevmat else ()
                prod = ref_multiply(A, ((y, ONE),), delta)
                co = next((co for b, co in prod if b == y2), None)
                row.append(((e_v, -co),) if co else ())
            mat.append(row)
        diffs[i] = mat
    out = make_complex(A, terms, diffs)
    return gaussian_eliminate(A, out) if eliminate else out


# Dense Gaussian elimination and the dense cone, kept as the reference
# for the sparse ones: they work on full matrices, with () for a zero
# entry, and meet the sparse rows of Complex only at the boundary.
def dense_rows(c):
    return {
        i: [[row.get(cc, ()) for cc in range(len(c.terms[i + 1]))] for row in mat]
        for i, mat in c.diffs.items()
    }


def dense_eliminate(A, c):
    """Pivots lowest degree first, then row-major, rescanning the
    degree from its first row after every pivot."""
    terms = {i: list(ss) for i, ss in c.terms.items()}
    diffs = dense_rows(c)

    def first_pivot(i):
        for r, row in enumerate(diffs[i]):
            for cc, entry in enumerate(row):
                if any(A.basis[b][0] == "e" for b, _ in entry):
                    return r, cc
        return None

    for i in sorted(diffs):
        while (found := first_pivot(i)) is not None:
            r, c0 = found
            mat = diffs[i]
            ((_, a),) = mat[r][c0]
            # exact over the rationals, whatever the pivot
            inv = Fraction(-1, a)
            hot = [c2 for c2 in range(len(mat[r])) if c2 != c0 and mat[r][c2]]
            for r2 in range(len(mat)):
                if r2 == r or not mat[r2][c0]:
                    continue
                left = mat[r2][c0]
                for c2 in hot:
                    corr = ref_multiply(A, left, mat[r][c2])
                    mat[r2][c2] = ref_add(mat[r2][c2], corr, inv)
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
    return make_complex(A, terms, diffs)


def dense_cone(A, v, c, eliminate, side):
    """The shared cone, with a ref_multiply per pair of new summands."""
    v = _vertex_index(A, v)
    paths = A.paths_out[v]
    if not any(u in paths for summands in c.terms.values() for u, _ in summands):
        return dense_eliminate(A, c) if eliminate else c
    e_v = A.basis.index(("e", v))
    shift = -2 if side > 0 else 0
    partner = (
        {y: x for pairs in frobenius_comult(A, v).values() for x, y in pairs}
        if side > 0
        else {}
    )
    cone = {}
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
    old = dense_rows(c)
    diffs = {}
    for i in terms:
        if i + 1 not in terms:
            continue
        old_cols = c.terms.get(i + 1, ())
        oldmat = old.get(i)
        dmat = old.get(i - side)
        new_cols = cone.get(i + 1, ())
        mat = []
        for r in range(len(c.terms.get(i, ()))):
            row = [oldmat[r][cc] if oldmat else () for cc in range(len(old_cols))]
            row.extend(
                ((partner[p2], ONE),) if side > 0 and r2 == r else ()
                for r2, p2 in new_cols
            )
            mat.append(row)
        for r, p in cone.get(i, ()):
            row = [
                ((p, ONE),) if side < 0 and cc == r else ()
                for cc in range(len(old_cols))
            ]
            for r2, p2 in new_cols:
                delta = dmat[r][r2] if dmat else ()
                prod = ref_multiply(A, ((p, ONE),), delta)
                co = next((co for b, co in prod if b == p2), None)
                row.append(((e_v, -co),) if co else ())
            mat.append(row)
        diffs[i] = mat
    out = make_complex(A, terms, diffs)
    return dense_eliminate(A, out) if eliminate else out
