"""Unfolding a labelled graph into a simply-laced or infinity-bonded one.

Each vertex s splits into one vertex (s, E) per simple object E of the
graph's fusion ring.  A finite edge {s, t} joins (s, E) to (t, F) with a
single bond exactly when its edge object takes F to E (equivalently E to
F; the adjacency is symmetric because every simple is self-dual).  An
infinite edge keeps the fibers aligned: (s, E) - (t, E) with a double
bond, nothing across different simples.

On the common index space (vertex-major, simples fastest) the product of
the unfolded reflections over a fiber is literally the matrix of the
folded reflection, so words upstairs and downstairs can be compared
entrywise with no change of basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coxgraph import INF, CoxeterGraph, GraphError, InvariantError, braid_letters
from .fusion import FusionRing, coxeter_fusion_ring, edge_object
from .lattice import coxeter_word_matrix

Vertex = tuple[str, str]


@dataclass(frozen=True)
class UnfoldedGraph:
    """The unfolded graph, its base, and the ring that produced it.

    Vertices are (base vertex, simple label) pairs; edges carry bond
    multiplicity 1 (a plain edge, label 3 downstairs) or 2 (label inf).
    """

    base: CoxeterGraph
    ring: FusionRing
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int, int], ...]

    @cached_property
    def _index(self) -> dict[Vertex, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def bonds(self) -> dict[tuple[int, int], int]:
        """Bond multiplicity of each edge, keyed by (i, j) and by (j, i)."""
        return {p: m for i, j, m in self.edges for p in ((i, j), (j, i))}

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f"{s},{label}" for s, label in self.vertices)

    def index(self, vertex) -> int:
        # accept both the pair and its comma-joined name; simple labels
        # never contain commas, so splitting from the right is safe even
        # for unusual base vertex names
        if isinstance(vertex, str):
            vertex = tuple(vertex.rsplit(",", 1))
        try:
            return self._index[tuple(vertex)]
        except KeyError:
            raise GraphError(f"unknown unfolded vertex {vertex!r}") from None

    def fold(self, k: int) -> str:
        """Base vertex under the unfolded vertex with index k."""
        return self.vertices[k][0]

    @cached_property
    def _coxeter_graph(self) -> CoxeterGraph:
        edges = tuple(
            (i, j, 3 if mult == 1 else INF) for i, j, mult in self.edges
        )
        return CoxeterGraph(self.names, edges)

    def as_coxeter_graph(self) -> CoxeterGraph:
        return self._coxeter_graph


def unfold(g: CoxeterGraph) -> UnfoldedGraph:
    ring = coxeter_fusion_ring(g)
    rank = ring.rank
    vertices = tuple((s, label) for s in g.vertices for label in ring.basis)
    edges: list[tuple[int, int, int]] = []
    for i, j, m in g.edges:
        if m == INF:
            for e in range(rank):
                edges.append((i * rank + e, j * rank + e, 2))
            continue
        # the edge object is one simple Pi_k, so Pi_k * Pi_f is row f of
        # plane k, and plane k is the whole adjacency between the fibers
        adj = ring.plane(edge_object(g, (i, j, m)).coefficients.index(1))
        # TLJ products are multiplicity-free and symmetric; both facts
        # are what lets an edge upstairs stand for a coefficient
        edge = f"{g.vertices[i]}-{g.vertices[j]}"
        if not set().union(*adj) <= {0, 1}:
            raise InvariantError(f"edge object of {edge} is not multiplicity-free")
        if tuple(zip(*adj)) != adj:
            raise InvariantError(f"edge object of {edge} is not symmetric")
        for f, row in enumerate(adj):
            for e, c in enumerate(row):
                if c:
                    edges.append((i * rank + e, j * rank + f, 1))
    return UnfoldedGraph(g, ring, vertices, tuple(sorted(edges)))


def fiber(u: UnfoldedGraph, s: str) -> tuple[Vertex, ...]:
    """Unfolded vertices over s, in simple-object order."""
    u.base.index(s)
    return tuple((s, label) for label in u.ring.basis)


def lcm_translate(u: UnfoldedGraph, word) -> tuple[tuple[Vertex, int], ...]:
    """Rewrite a word downstairs as a word in the fibers upstairs.

    Each letter expands to its whole fiber with the same exponent; the
    fiber generators commute, but inverse blocks are still emitted in
    reversed order so that concatenation inverts blockwise.
    """
    out: list[tuple[Vertex, int]] = []
    for name, exp in braid_letters(word):
        block = [(v, exp) for v in fiber(u, name)]
        if exp == -1:
            block.reverse()
        out.extend(block)
    return tuple(out)


def psi_matrix(u: UnfoldedGraph, s: str) -> tuple[tuple[int, ...], ...]:
    """Fusion-lattice reflection at s as a product of unfolded reflections.

    The unfolded graph's own ring is trivial, so its lattice has one
    coordinate per unfolded vertex and the product lands in the same
    matrix space as the folded reflection at s.
    """
    g2 = u.as_coxeter_graph()
    names = tuple(f"{v},{label}" for v, label in fiber(u, s))
    return coxeter_word_matrix(g2, coxeter_fusion_ring(g2), names)
