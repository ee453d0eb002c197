"""Reference implementations that the tests compare the program against.

Each one computes its answer the slow, direct way and shares no code
with the program it checks.
"""

import itertools
from functools import lru_cache


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
