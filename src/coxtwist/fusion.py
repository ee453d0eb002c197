"""Fusion rings of Temperley-Lieb-Jones type and the ring attached to a graph.

Every ring here is a Deligne product of TLJ factors, and a FusionRing
holds only those factors: one (n, labels) pair per factor, first factor
slowest, where labels are all of 0..n-2 (TLJ_n) or only the even ones
(its even part).  Rings compare by their factors.  The rest is derived:

- the basis is one label per factor, "Pi0", "Pi1", ... joined with "*"
  across factors, first factor slowest, which fixes the basis order
  every downstream lattice inherits;
- the FP-dimensions are products of the closed Chebyshev form Delta_k
  evaluated at 2cos(pi/n), as floats;
- the structure constants are read one plane at a time: plane(j) is the
  matrix N[j][f][e], the Kronecker product of the factors' planes, each
  from the truncated Clebsch-Gordan rule.  A plane is built on first
  access and kept on the ring; no rank**3 table is ever built.
  action(j) is plane j with its zeros dropped, f -> ((e, N[j][f][e]),
  ...), kept beside it for the kernels that multiply by j term by term.

The ring attached to a Coxeter graph is the product over its distinct
finite edge labels n of TLJ_n (n even) or its even part (n odd); with no
finite labels at all it degenerates to the rank-one ring.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .coxgraph import INF, CoxeterGraph


@dataclass(frozen=True)
class FusionRing:
    factors: tuple[tuple[int, range], ...]
    _planes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _actions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    unit_index = 0  # Pi0*...*Pi0

    @cached_property
    def basis(self) -> tuple[str, ...]:
        labels = (labels for _, labels in self.factors)
        return tuple("*".join(f"Pi{k}" for k in t) for t in itertools.product(*labels))

    @cached_property
    def fpdim(self) -> tuple[float, ...]:
        dims = (_chebyshev_dims(n, labels) for n, labels in self.factors)
        return tuple(map(math.prod, itertools.product(*dims)))

    @cached_property
    def rank(self) -> int:
        return math.prod(len(labels) for _, labels in self.factors)

    def plane(self, j: int) -> tuple[tuple[int, ...], ...]:
        """N[j]: row f holds the coefficients of simple j * simple f."""
        if j not in self._planes:
            self._planes[j] = _plane(self.factors, j)
        return self._planes[j]

    def action(self, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Simple j acting on the simples: row f holds the nonzero
        (e, N[j][f][e]) of simple j * simple f, by e."""
        if j not in self._actions:
            self._actions[j] = tuple(
                tuple((e, x) for e, x in enumerate(row) if x) for row in self.plane(j)
            )
        return self._actions[j]


def _fuses(n: int, a: int, b: int, c: int) -> int:
    """N[a][b][c] of TLJ_n, by the truncated Clebsch-Gordan rule."""
    ok = abs(a - b) <= c <= min(a + b, 2 * (n - 2) - (a + b)) and (c - a - b) % 2 == 0
    return 1 if ok else 0


def _plane(factors, j: int) -> tuple[tuple[int, ...], ...]:
    """Plane j of the product of these factors: the Kronecker product of
    each factor's plane at j's label in that factor."""
    digits = []
    for _, labels in reversed(factors):
        j, d = divmod(j, len(labels))
        digits.append(labels[d])
    out = ((1,),)
    for (n, labels), a in zip(factors, reversed(digits)):
        factor = [[_fuses(n, a, b, c) for c in labels] for b in labels]
        out = tuple(
            tuple(x * y for x in row for y in frow) for row in out for frow in factor
        )
    return out


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


# Ring caches are bounded: a ring keeps every plane it has been asked
# for, so once `fusion-table` has printed a rank-120 ring it holds all
# 120 planes (~1.7M entries), and a loop over many graphs must not keep
# every ring.  The bounds leave room for every graph that one process of
# the benchmark workloads touches (at most 14 rings, 6 TLJ labels and 4
# odd labels).
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
    return FusionRing(((n, range(n - 1)),))


@lru_cache(maxsize=TLJ_CACHE_SIZE)
def tlj_even_ring(n: int) -> FusionRing:
    """The even-labelled subring of tlj_ring(n); only defined for odd n."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    return FusionRing(((n, range(0, n - 2, 2)),))


def deligne_product(rings: list[FusionRing]) -> FusionRing:
    if not rings:
        raise ValueError("empty product")
    return FusionRing(sum((r.factors for r in rings), ()))


# The most simples a graph's ring may have.  A plane has rank**2
# entries, and what a command reads grows with it: `fusion-table` prints
# rank**2 lines (reading every plane), a reflection block of `roots` or
# `coxeter-eq` reads the planes of the unit and the edge objects, and the
# unfolded graph has rank vertices per base vertex.  So a label such as
# m = 10**6 must be refused before any ring is built; 128 admits the
# 5-7-9-11 chain (rank 120).
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

    A ring over MAX_RING_RANK simples raises ValueError before any ring
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
    out = [0] * len(a.coefficients)
    for i, ca in enumerate(a.coefficients):
        if not ca:
            continue
        plane = r.plane(i)
        for j, cb in enumerate(b.coefficients):
            if cb:
                for k, x in enumerate(plane[j]):
                    if x:
                        out[k] += ca * cb * x
    return FusionElement(tuple(out))


def fpdim(r: FusionRing, a: FusionElement) -> float:
    return sum(c * d for c, d in zip(a.coefficients, r.fpdim))
