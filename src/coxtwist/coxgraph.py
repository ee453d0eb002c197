"""Coxeter graphs: parsing, the bilinear form, and finite-type recognition.

A Coxeter graph is a finite simple graph whose edges carry a label
m >= 3 or infinity.  A missing edge encodes m = 2 (commuting generators),
so the edge set here coincides with the usual Gamma_1.  Vertices are
opaque strings; their order in the source document is total, fixed at
parse time, and every downstream basis order derives from it.

The JSON wire format is

    {"vertices": ["s", "t"], "edges": [{"ends": ["s", "t"], "m": 5}]}

with "m" either an integer >= 3 or the string "inf".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

INF = math.inf

# Numeric cross-check tolerance for positive definiteness of the Gram matrix:
# every LDL^T pivot must exceed it.
EIG_TOL = 1e-9


class GraphError(ValueError):
    """Raised for malformed graph documents."""


class InvariantError(ArithmeticError):
    """Raised when a computed object breaks an invariant it must satisfy,
    such as d . d = 0 or a chamber postcondition; unlike an assert, the
    check survives python -O."""


@dataclass(frozen=True)
class CoxeterGraph:
    """Vertices in document order plus labelled edges (i, j, m) with i < j."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int | float], ...]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _labels(self) -> dict[tuple[int, int], int | float]:
        return {(i, j): m for i, j, m in self.edges}

    @cached_property
    def _finite_labels(self) -> tuple[int, ...]:
        return tuple(sorted({m for _, _, m in self.edges if m != INF}))

    @property
    def rank(self) -> int:
        return len(self.vertices)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown vertex {name!r}") from None

    def label(self, i: int, j: int) -> int | float:
        """Coxeter label m_{ij}: 1 on the diagonal, 2 for a missing edge."""
        if i == j:
            return 1
        key = (i, j) if i < j else (j, i)
        return self._labels.get(key, 2)

    def neighbors(self, i: int) -> tuple[int, ...]:
        out = [j for i2, j, _ in self.edges if i2 == i]
        out += [i2 for i2, j, _ in self.edges if j == i]
        return tuple(sorted(out))

    def finite_edge_labels(self) -> tuple[int, ...]:
        return self._finite_labels

    def components(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        comps = []
        for start in range(self.rank):
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                i = frontier.pop()
                for j in self.neighbors(i):
                    if j not in comp:
                        comp.add(j)
                        frontier.append(j)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def induced(self, names: tuple[str, ...]) -> "CoxeterGraph":
        """Full subgraph on the given vertices, keeping their relative order."""
        keep = [self.index(n) for n in names]
        pos = {old: new for new, old in enumerate(keep)}
        edges = tuple(
            (pos[i], pos[j], m)
            for i, j, m in self.edges
            if i in pos and j in pos
        )
        return CoxeterGraph(tuple(names), edges)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                {
                    "ends": [self.vertices[i], self.vertices[j]],
                    "m": "inf" if m == INF else m,
                }
                for i, j, m in self.edges
            ],
        }


def braid_letters(word) -> tuple[tuple[str, int], ...]:
    """A braid word as (name, exponent) pairs, first letter first.

    A letter is a vertex name, standing for (name, 1), or a (name, exp)
    pair with exp +1 or -1; any other exponent raises ValueError.
    """
    letters = []
    for letter in word:
        name, exp = (letter, 1) if isinstance(letter, str) else letter
        if exp not in (1, -1):
            raise ValueError(f"braid letter exponents must be +1 or -1, got {exp!r}")
        letters.append((name, exp))
    return tuple(letters)


def parse_graph(text: str) -> CoxeterGraph:
    """Parse and validate the JSON graph format."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise GraphError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    if "vertices" not in doc or "edges" not in doc:
        raise GraphError('graph document needs "vertices" and "edges" keys')

    raw_vertices = doc["vertices"]
    if not isinstance(raw_vertices, list) or not all(
        isinstance(v, str) for v in raw_vertices
    ):
        raise GraphError('"vertices" must be a list of strings')
    if len(set(raw_vertices)) != len(raw_vertices):
        raise GraphError("duplicate vertex name")
    vertices = tuple(raw_vertices)
    index = {v: i for i, v in enumerate(vertices)}

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise GraphError('"edges" must be a list')
    edges: list[tuple[int, int, int | float]] = []
    seen_pairs: set[tuple[int, int]] = set()
    for entry in raw_edges:
        if not isinstance(entry, dict) or "ends" not in entry or "m" not in entry:
            raise GraphError('each edge needs "ends" and "m"')
        ends = entry["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise GraphError('"ends" must list exactly two vertices')
        try:
            i, j = index[ends[0]], index[ends[1]]
        except (KeyError, TypeError):
            raise GraphError(f"edge references unknown vertex in {ends!r}") from None
        if i == j:
            raise GraphError(f"self-edge at {ends[0]!r}")
        if i > j:
            i, j = j, i
        if (i, j) in seen_pairs:
            raise GraphError(f"duplicate edge {ends!r}")
        seen_pairs.add((i, j))
        m = entry["m"]
        if m == "inf":
            label: int | float = INF
        elif isinstance(m, int) and not isinstance(m, bool):
            if m < 3:
                raise GraphError(
                    f"edge label m={m} not allowed; m=2 is encoded by edge absence"
                )
            label = m
        else:
            raise GraphError(f'edge label must be an integer >= 3 or "inf", got {m!r}')
        edges.append((i, j, label))
    edges.sort(key=lambda e: (e[0], e[1]))
    return CoxeterGraph(vertices, tuple(edges))


def gram_matrix(g: CoxeterGraph) -> tuple[tuple[float, ...], ...]:
    """Symmetric bilinear form: 2 on the diagonal, -2cos(pi/m) off it.

    The convention for m = infinity is -2 (the limit of -2cos(pi/m)).
    """
    n = g.rank
    b = [[2.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for i, j, m in g.edges:
        val = -2.0 if m == INF else -2.0 * math.cos(math.pi / m)
        b[i][j] = val
        b[j][i] = val
    return tuple(tuple(row) for row in b)


def _smallest_pivot(b) -> float:
    """Smallest pivot of the LDL^T factorization of a symmetric matrix.

    The matrix is positive definite iff every pivot is positive; the
    factorization stops at the first pivot at or below EIG_TOL, whose
    successors would divide by it.
    """
    n = len(b)
    low = [[0.0] * n for _ in range(n)]
    pivots: list[float] = []
    for j in range(n):
        d = b[j][j] - math.fsum(low[j][k] ** 2 * pivots[k] for k in range(j))
        pivots.append(d)
        if not d > EIG_TOL:
            break
        for i in range(j + 1, n):
            dot = math.fsum(low[i][k] * low[j][k] * pivots[k] for k in range(j))
            low[i][j] = (b[i][j] - dot) / d
    return min(pivots)


def _path_order(g: CoxeterGraph, comp: tuple[int, ...]) -> list[int] | None:
    """Vertices of a path component from one end to the other, or None."""
    degs = {i: len([j for j in g.neighbors(i) if j in comp]) for i in comp}
    if any(d > 2 for d in degs.values()):
        return None
    if len(comp) == 1:
        return list(comp)
    ends = [i for i in comp if degs[i] == 1]
    if len(ends) != 2:
        return None
    order = [ends[0]]
    prev = None
    while len(order) < len(comp):
        nxt = [j for j in g.neighbors(order[-1]) if j in comp and j != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _branch_lengths(g: CoxeterGraph, comp: tuple[int, ...], center: int) -> list[int] | None:
    """Lengths of the three paths hanging off the unique degree-3 vertex."""
    lengths = []
    for start in g.neighbors(center):
        n = 1
        prev, cur = center, start
        while True:
            nxt = [j for j in g.neighbors(cur) if j != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None
            prev, cur = cur, nxt[0]
            n += 1
        lengths.append(n)
    return sorted(lengths)


def _component_is_finite(g: CoxeterGraph, comp: tuple[int, ...]) -> bool:
    in_comp = set(comp)
    comp_edges = [(i, j, m) for i, j, m in g.edges if i in in_comp]
    if any(m == INF for _, _, m in comp_edges):
        return False
    # a connected component with as many edges as vertices contains a cycle
    if len(comp_edges) >= len(comp):
        return False
    high = [(i, j, m) for i, j, m in comp_edges if m >= 4]
    if len(high) >= 2:
        return False

    if not high:
        # simply-laced tree: A, D, or E
        degs = {i: len([j for j in g.neighbors(i) if j in in_comp]) for i in comp}
        if any(d >= 4 for d in degs.values()):
            return False
        branch = [i for i in comp if degs[i] == 3]
        if not branch:
            return True  # type A
        if len(branch) > 1:
            return False
        lengths = _branch_lengths(g, comp, branch[0])
        if lengths is None:
            return False
        if lengths[0] == 1 and lengths[1] == 1:
            return True  # type D
        return lengths in ([1, 2, 2], [1, 2, 3], [1, 2, 4])  # E6, E7, E8

    order = _path_order(g, comp)
    if order is None:
        return False
    n = len(order)
    if n == 2:
        return True  # dihedral, any finite label
    (i, j, m) = high[0]
    positions = [
        p for p in range(n - 1) if {order[p], order[p + 1]} == {i, j}
    ]
    pos = min(positions[0], n - 2 - positions[0])
    if m == 4:
        if pos == 0:
            return True  # type B
        return n == 4 and pos == 1  # F4
    if m == 5:
        return pos == 0 and n in (3, 4)  # H3, H4
    return False


def is_finite_type(g: CoxeterGraph) -> bool:
    """Whether every connected component is a finite Coxeter-Dynkin diagram.

    The decision is the exact classification lookup; positive definiteness of
    the Gram matrix, read from its LDL^T pivots, is checked against it as a
    consistency check only.
    """
    finite = all(_component_is_finite(g, comp) for comp in g.components())
    if g.rank > 0:
        smallest = _smallest_pivot(gram_matrix(g))
        if finite != (smallest > EIG_TOL):
            raise InvariantError(
                "finite-type classification disagrees with the numeric "
                f"positive-definiteness check (smallest LDL^T pivot {smallest})"
            )
    return finite
