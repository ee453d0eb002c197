"""The zigzag algebra of an unfolded graph, over the integers.

The basis consists of a constant path e_v and a loop X_v for each
vertex plus a pair of opposite arrows (u|v)_a, (v|u)_a per multiplicity
unit of each edge, in that order: e's, X's, then arrows sorted by
(source, target, index).  Multiplication concatenates paths, kills
anything of total degree three or more, and caps an arrow against its
own reverse to the loop at the source: (u|v)_a (v|u)_b = delta_ab X_u.
All cap coefficients are +1; any other choice of unit rescaling gives
an isomorphic algebra.  So every nonzero product of two basis paths is
one basis path with coefficient +1, and the product table is written
straight from this definition in integer form: products[i] maps j to k
for each nonzero product path_i . path_j = path_k.  build_zigzag checks
that form when it writes the table: no product gets a second entry.
duals[p] is the partner of p under the Frobenius pairing, the path q
with p . q = X at p's source: e_v and X_v pair up, and so do (u|v)_a
and (v|u)_a.  The idempotents e_v are the basis indices 0..n-1, so a
homogeneous combination between two summands contains an idempotent
exactly when its first index is below n.

Maps between shifted projectives P_u<k> -> P_v<k'> are linear
combinations of paths from u to v of degree k - k', acting by right
multiplication; all arithmetic on these combinations lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxgraph import GraphError, InvariantError
from .unfolding import UnfoldedGraph

# (basis index, int coefficient) pairs, sorted by index, zeros dropped
Combo = tuple[tuple[int, int], ...]

_DEGREE = {"e": 0, "X": 2, "arrow": 1}


@dataclass(frozen=True)
class ZigzagAlgebra:
    """Basis labels are ("e", v), ("X", v), or ("arrow", u, v, a).

    products[i] is {j: k} over the nonzero products path_i . path_j =
    path_k, each with coefficient +1.  build_zigzag also fills, in the
    same pass, each basis path's source, target, degree and Frobenius
    dual, and paths_out[v][t]: the basis paths from v to t, in basis
    order, with targets that have no such path absent.  These are read
    off the basis, so they take no part in equality.
    """

    quiver: UnfoldedGraph
    basis: tuple[tuple, ...]
    products: tuple[dict[int, int], ...]
    duals: tuple[int, ...] = field(compare=False, repr=False)
    sources: tuple[int, ...] = field(compare=False, repr=False)
    targets: tuple[int, ...] = field(compare=False, repr=False)
    degrees: tuple[int, ...] = field(compare=False, repr=False)
    paths_out: tuple[dict[int, tuple[int, ...]], ...] = field(
        compare=False, repr=False
    )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def source(self, i: int) -> int:
        return self.basis[i][1]

    def target(self, i: int) -> int:
        b = self.basis[i]
        return b[2] if b[0] == "arrow" else b[1]

    def degree(self, i: int) -> int:
        return _DEGREE[self.basis[i][0]]


@dataclass(frozen=True)
class HomElement:
    """A map P_source -> P_target, as a combination of basis paths."""

    source: tuple[int, int]
    target: tuple[int, int]
    combo: Combo


def build_zigzag(u: UnfoldedGraph) -> ZigzagAlgebra:
    """The algebra with its product table written from the definition.

    Basis order: every e_v, then every X_v, then the arrows sorted by
    (source, target, index).  The nonzero products of basis paths are
    exactly e_s b = b and b e_t = b for a path b from s to t, and an
    arrow times its reverse, which is X at the arrow's source: three
    entries per vertex and three per arrow.  A table with fewer entries
    wrote some product twice, that is, with more than one term, and
    raises InvariantError.
    """
    n = len(u.vertices)
    arrows = sorted(
        [(s, t, a) for i, j, m in u.edges for s, t in ((i, j), (j, i)) for a in range(m)]
    )
    basis = tuple(
        [("e", v) for v in range(n)]
        + [("X", v) for v in range(n)]
        + [("arrow", *arrow) for arrow in arrows]
    )
    # paths[v][t]: the basis paths from v to t, in basis order
    paths: list[dict[int, list[int]]] = [{v: [v, n + v]} for v in range(n)]
    for k, (s, t, _) in enumerate(arrows, 2 * n):
        out = paths[s]
        if t in out:
            out[t].append(k)
        else:
            out[t] = [k]
    # the a-th arrow from t to s is the reverse of the a-th from s to t
    duals = list(range(n, 2 * n)) + list(range(n))
    duals += [paths[t][s][a] for s, t, a in arrows]
    # rows: e_v, then X_v, then each arrow (s|t)_a, times what it meets
    products = [{v: v, n + v: n + v} for v in range(n)]
    products += [{v: n + v} for v in range(n)]
    products += [
        {t: k, duals[k]: n + s} for k, (s, t, _) in enumerate(arrows, 2 * n)
    ]
    for k, (s, _, _) in enumerate(arrows, 2 * n):
        products[s][k] = k
    # three products per e_v and three per arrow: a product written
    # twice would be one with two terms
    if sum(map(len, products)) != 3 * (n + len(arrows)):
        raise InvariantError("a product of two basis paths is not one path")
    ends = list(range(n)) * 2
    return ZigzagAlgebra(
        u,
        basis,
        tuple(products),
        duals=tuple(duals),
        sources=tuple(ends + [s for s, _, _ in arrows]),
        targets=tuple(ends + [t for _, t, _ in arrows]),
        degrees=(0,) * n + (2,) * n + (1,) * len(arrows),
        paths_out=tuple([{t: tuple(ps) for t, ps in row.items()} for row in paths]),
    )


def _vertex_index(A: ZigzagAlgebra, v) -> int:
    if isinstance(v, int):
        if not 0 <= v < len(A.quiver.vertices):
            raise GraphError(f"vertex index {v} out of range")
        return v
    return A.quiver.index(v)


def multiply_basis(A: ZigzagAlgebra, i: int, j: int) -> Combo:
    k = A.products[i].get(j)
    return () if k is None else ((k, 1),)


def multiply_combo(A: ZigzagAlgebra, x: Combo, y: Combo) -> Combo:
    products = A.products
    if len(x) == 1 and len(y) == 1:
        ((i, ci),), ((j, cj),) = x, y
        k = products[i].get(j)
        return () if k is None else ((k, ci * cj),)
    acc: dict[int, int] = {}
    for i, ci in x:
        row = products[i]
        for j, cj in y:
            k = row.get(j)
            if k is not None:
                acc[k] = acc[k] + ci * cj if k in acc else ci * cj
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def _add_combo(x: Combo, y: Combo, a: int = 1) -> Combo:
    """x + a.y, zeros dropped."""
    acc = dict(x)
    for b, co in y:
        acc[b] = acc.get(b, 0) + a * co
    return tuple(sorted((b, co) for b, co in acc.items() if co))


def _normalize_entry(entry) -> Combo:
    """(basis index, coefficient) pairs as a Combo, with int coefficients."""
    acc: dict[int, int] = {}
    for b, co in entry:
        if type(co) is not int:
            if getattr(co, "denominator", None) != 1:
                raise InvariantError(f"coefficient {co!r} is not an integer")
            co = int(co)
        acc[b] = acc[b] + co if b in acc else co
    return tuple(sorted((b, co) for b, co in acc.items() if co))


def hom_basis(A: ZigzagAlgebra, src, tgt) -> list[HomElement]:
    """Basis of maps P_u<k> -> P_v<k'>: paths u -> v of degree k - k'."""
    (u, k), (v, k2) = src, tgt
    u, v = _vertex_index(A, u), _vertex_index(A, v)
    d = k - k2
    return [
        HomElement((u, k), (v, k2), ((i, 1),))
        for i in A.paths_out[u].get(v, ())
        if A.degrees[i] == d
    ]


def compose(A: ZigzagAlgebra, f: HomElement, g: HomElement) -> HomElement:
    """f then g; the combo is the path product f.combo * g.combo."""
    if f.target != g.source:
        raise ValueError(
            f"composition endpoints do not match: {f.target} vs {g.source}"
        )
    return HomElement(f.source, g.target, multiply_combo(A, f.combo, g.combo))


def frobenius_comult(A: ZigzagAlgebra, v) -> dict[int, tuple[tuple[int, int], ...]]:
    """Components of the comultiplication into P_v (x) vP, per idempotent.

    Row t lists the tensor terms the map sends e_t to, as pairs of
    basis indices with implied coefficient +1: each path x from t to v
    paired with its dual.  So the diagonal row gets e_v (x) X_v +
    X_v (x) e_v, a neighbor gets one cup term (t|v)_a (x) (v|t)_a per
    shared arrow index, and everything else is zero.
    """
    v = _vertex_index(A, v)
    duals = A.duals
    return {
        t: tuple((x, duals[x]) for x in out.get(v, ()))
        for t, out in enumerate(A.paths_out)
    }


def path_label(A: ZigzagAlgebra, i: int) -> str:
    """Human-readable path name; folded to base names for a trivial ring."""
    fold = A.quiver.ring.rank == 1

    def vname(k: int) -> str:
        s, lab = A.quiver.vertices[k]
        return s if fold else f"({s},{lab})"

    b = A.basis[i]
    if b[0] == "e":
        return f"e_{vname(b[1])}"
    if b[0] == "X":
        return f"X_{vname(b[1])}"
    _, u, v, a = b
    suffix = f"_{a}" if A.quiver.bonds[u, v] > 1 else ""
    return f"({vname(u)}|{vname(v)}){suffix}"
