"""Fusion rings of Temperley-Lieb-Jones type and the ring attached to a graph.

A fusion ring is stored as an ordered basis of simple labels, a dense
structure-constant tensor N[i][j][k], and the list of FP-dimensions.
Everything here is an immutable value; structure constants are exact
integers, FP-dimensions are floats from the closed Chebyshev form
Delta_k evaluated at 2cos(pi/n).

The ring attached to a Coxeter graph is the product over its distinct
finite edge labels n of TLJ_n (n even) or its even part (n odd); with no
finite labels at all it degenerates to the rank-one ring.  The simple
labels are "Pi0", "Pi1", ... within one factor and join with "*" across
factors, first factor slowest, which fixes the basis order every
downstream lattice inherits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .coxgraph import INF, CoxeterGraph


@dataclass(frozen=True)
class FusionRing:
    basis: tuple[str, ...]
    unit_index: int
    N: tuple[tuple[tuple[int, ...], ...], ...]
    fpdim: tuple[float, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class FusionElement:
    """Integer vector over a ring's basis; negatives allowed."""

    coefficients: tuple[int, ...]

    @staticmethod
    def simple(r: FusionRing, i: int) -> "FusionElement":
        return FusionElement(tuple(1 if k == i else 0 for k in range(r.rank)))

    @staticmethod
    def unit(r: FusionRing) -> "FusionElement":
        return FusionElement.simple(r, r.unit_index)

    def __add__(self, other: "FusionElement") -> "FusionElement":
        return FusionElement(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __sub__(self, other: "FusionElement") -> "FusionElement":
        return self + (-other)

    def __neg__(self) -> "FusionElement":
        return FusionElement(tuple(-c for c in self.coefficients))


# Ring caches are bounded: a rank-120 ring holds a table of ~1.7M
# entries, and a loop over many graphs must not keep every ring.  The
# bounds leave room for every graph that one process of the benchmark
# workloads touches (at most 14 rings, 6 TLJ labels and 4 odd labels).
RING_CACHE_SIZE = 32
TLJ_CACHE_SIZE = 16


def _chebyshev_dims(n: int, labels: range) -> tuple[float, ...]:
    d = 2.0 * math.cos(math.pi / n)
    delta = [1.0, d]
    while len(delta) < n - 1:
        delta.append(d * delta[-1] - delta[-2])
    return tuple(delta[k] for k in labels)


@lru_cache(maxsize=TLJ_CACHE_SIZE)
def tlj_ring(n: int) -> FusionRing:
    """The rank-(n-1) ring with simples Pi0..Pi_{n-2} and truncated fusion."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    labels = range(n - 1)
    N = tuple(
        tuple(
            tuple(
                1
                if (
                    abs(a - b) <= c <= min(a + b, 2 * (n - 2) - (a + b))
                    and (c - a - b) % 2 == 0
                )
                else 0
                for c in labels
            )
            for b in labels
        )
        for a in labels
    )
    return FusionRing(
        basis=tuple(f"Pi{k}" for k in labels),
        unit_index=0,
        N=N,
        fpdim=_chebyshev_dims(n, labels),
    )


@lru_cache(maxsize=TLJ_CACHE_SIZE)
def tlj_even_ring(n: int) -> FusionRing:
    """The even-labelled subring of tlj_ring(n); only defined for odd n."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    full = tlj_ring(n)
    even = range(0, n - 2, 2)
    N = tuple(
        tuple(tuple(full.N[a][b][c] for c in even) for b in even) for a in even
    )
    return FusionRing(
        basis=tuple(f"Pi{k}" for k in even),
        unit_index=0,
        N=N,
        fpdim=tuple(full.fpdim[k] for k in even),
    )


def deligne_product(rings: list[FusionRing]) -> FusionRing:
    if not rings:
        raise ValueError("empty product")
    if len(rings) == 1:
        return rings[0]
    index_tuples = list(itertools.product(*(range(r.rank) for r in rings)))
    pos = {t: p for p, t in enumerate(index_tuples)}
    size = len(index_tuples)
    N = [[[0] * size for _ in range(size)] for _ in range(size)]
    for ti, ii in enumerate(index_tuples):
        for tj, jj in enumerate(index_tuples):
            # support of the product is a cartesian product of supports
            supports = [
                [c for c in range(r.rank) if r.N[a][b][c]]
                for r, a, b in zip(rings, ii, jj)
            ]
            for kk in itertools.product(*supports):
                val = 1
                for r, a, b, c in zip(rings, ii, jj, kk):
                    val *= r.N[a][b][c]
                N[ti][tj][pos[kk]] = val
    return FusionRing(
        basis=tuple(
            "*".join(r.basis[i] for r, i in zip(rings, t)) for t in index_tuples
        ),
        unit_index=0,
        N=tuple(tuple(tuple(row) for row in plane) for plane in N),
        fpdim=tuple(
            math.prod(r.fpdim[i] for r, i in zip(rings, t)) for t in index_tuples
        ),
    )


# The most simples a graph's ring may have.  Building it writes a
# rank**3 table, so a label such as m = 10**6 must be refused before any
# table is built; 128 admits the 5-7-9-11 chain (rank 120).
MAX_RING_RANK = 128


def _factor_ranks(labels) -> list[int]:
    """The rank of each factor of the ring of these finite edge labels:
    n - 1 for an even label n, (n - 1) / 2 for an odd one.  Raises
    ValueError, before anything is built, when their product is over
    MAX_RING_RANK."""
    sizes = [(n - 1) if n % 2 == 0 else (n - 1) // 2 for n in labels]
    rank = math.prod(sizes)
    if rank > MAX_RING_RANK:
        raise ValueError(
            f"fusion ring of rank {rank} is over the ring-size budget "
            f"of {MAX_RING_RANK} simples"
        )
    return sizes


@lru_cache(maxsize=RING_CACHE_SIZE)
def coxeter_fusion_ring(g: CoxeterGraph) -> FusionRing:
    """Product of one TLJ factor per distinct finite edge label, increasing.

    A ring over MAX_RING_RANK simples raises ValueError before any table
    is built."""
    labels = g.finite_edge_labels()
    _factor_ranks(labels)
    if not labels:
        return tlj_even_ring(3)
    return deligne_product(
        [tlj_ring(n) if n % 2 == 0 else tlj_even_ring(n) for n in labels]
    )


def _edge_label(g: CoxeterGraph, e) -> int | float:
    if len(e) == 3:
        i, j = e[0], e[1]
    else:
        i, j = e
    if isinstance(i, str):
        i = g.index(i)
    if isinstance(j, str):
        j = g.index(j)
    m = g.label(i, j)
    if m == 2 or m == 1:
        u, v = g.vertices[i], g.vertices[j]
        raise ValueError(f"({u!r}, {v!r}) is not an edge")
    return m


def edge_object(g: CoxeterGraph, e) -> FusionElement:
    """Class of the simple labelling edge e, or twice the unit for m = inf.

    In the label-m TLJ factor the simple is Pi_{m-3}; all other factors
    carry the unit.  Accepts an (i, j, m) triple from g.edges or a pair
    of vertex names or indices.
    """
    m = _edge_label(g, e)
    factors = g.finite_edge_labels()
    # coxeter_fusion_ring(g) is the product of these factors, first
    # factor slowest, and its unit Pi0*...*Pi0 comes first; reading the
    # rank off the factors spares a ring lookup per call
    sizes = _factor_ranks(factors)
    coeffs = [0] * math.prod(sizes)
    if m == INF:
        coeffs[0] = 2
        return FusionElement(tuple(coeffs))
    flat = 0
    for n, size in zip(factors, sizes):
        # position of Pi_{m-3} inside the label-m factor, of Pi0 elsewhere
        t = ((m - 3) // 2 if n % 2 else m - 3) if n == m else 0
        flat = flat * size + t
    coeffs[flat] = 1
    return FusionElement(tuple(coeffs))


def multiply(r: FusionRing, a: FusionElement, b: FusionElement) -> FusionElement:
    if len(a.coefficients) != r.rank or len(b.coefficients) != r.rank:
        raise ValueError("element length does not match ring rank")
    out = [0] * r.rank
    for i, ca in enumerate(a.coefficients):
        if not ca:
            continue
        for j, cb in enumerate(b.coefficients):
            if not cb:
                continue
            row = r.N[i][j]
            for k in range(r.rank):
                if row[k]:
                    out[k] += ca * cb * row[k]
    return FusionElement(tuple(out))


def fpdim(r: FusionRing, a: FusionElement) -> float:
    return sum(c * d for c, d in zip(a.coefficients, r.fpdim))
