"""The fusion lattice: reflections, Burau matrices, words, and roots.

The lattice is the free Z-module on pairs (vertex, simple of the fusion
ring), vertex-major: coordinate index = vertex_index * ring.rank +
simple_index.  Reflection matrices are plain nested tuples of ints with
column j holding the image of the j-th basis vector, so words act by
left multiplication and the first letter of a word always acts first.

Burau matrices live over the fusion ring with Laurent q-coefficients.
An entry of a LaurentFusionMatrix is a sorted tuple of (exponent,
FusionElement) pairs with zero coefficients dropped, which makes
equality literal; the matrix carries its ring so specialization needs
no extra argument.

A Burau generator sigma_s differs from the identity only in row s, and
a simple reflection only in the ring.rank rows of its vertex.  Words,
Coxeter words and the root walk therefore update those rows alone;
`mat_mul` is the dense product the tests compare them against.

A Burau word is multiplied on integer rows: row r maps (column, q
exponent, simple) to a nonzero int.  A letter sigma_s rewrites row s as
the sum of c q^a [j] row_t over the terms of row s of sigma_s, which
come from the edge objects.  Multiplying by the unit only shifts the
exponents; any other simple j is read from ring.action(j), its sparse
action on the simples, which the ring builds on first read and keeps,
like a plane.  The FusionElement entries are built once, when the word
is done, and the word-problem gate reads the integer rows directly.

A simple reflection is only ever built as its block of rows, 1 + U,
straight from the pair forms B_C(alpha_s, alpha_t): those hold only the
unit and the edge objects, so the block reads only their planes of the
ring, and `simple_reflection_matrix` is the one-letter Coxeter word.
`coxeter_word_matrix` is a block-row product of integer reflections.
It shares no code with the Burau kernel or `specialize_q` (both sides
read the edge objects from `fusion.edge_object`, and nothing else in
common), so it stays an independent check of the two.

Positive-root enumeration walks the W-orbit of the simple roots in
layers (the simple roots are layer 1) and returns one vector per root
line, that is per reflection, not per raw vector: for even edge labels
the lattice carries several vectors over one real root line, and the
count of root lines is what the orbit is asked for.  The walk keys a
line on the root's orbit under the invertible simples G, the simples g
with g * g = 1, which act on the lattice by permuting coordinates
within each vertex block; G is read off the ring's TLJ factors, and the
walk reads no plane beyond those of G and of its reflection blocks.
For roots beta and gamma of the walk, s_beta = s_gamma exactly when
beta = [g] gamma for some g in G:

- (<=) [g] commutes with W, and B_C([g]x, y) = [g] B_C(x, y) because
  every simple is self-dual.  So s_[g]beta(v) = v - [g]^2 B_C(beta, v)
  beta = s_beta(v).
- (=>) FPdim is a ring map and carries s_beta and s_gamma to real
  reflections, so equal reflections give equal real roots.  Write
  beta = w alpha_s and gamma = w' alpha_t, and let u = w'^-1 w.  Then
  u alpha_s lies over the real simple root of t, and it is nonnegative
  by sign coherence, so it is [x] alpha_t for a nonnegative ring
  element x of FPdim 1.  Every simple has FPdim >= 1, so x is one
  simple g of FPdim 1, an invertible one, and beta = [g] gamma.

Sign coherence is the assumption that every vector of the orbit of a
simple root is entirely >= 0 or entirely <= 0; the walk also relies on
it when it drops the vectors with a negative coordinate, and the tests
check it on the orbits they walk.  The first vector found on each line
is the returned representative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .coxgraph import INF, CoxeterGraph, braid_letters
from .fusion import FusionElement, FusionRing, coxeter_fusion_ring, edge_object, multiply


@dataclass(frozen=True)
class LatticeVector:
    coefficients: tuple[int, ...]


LaurentEntry = tuple[tuple[int, FusionElement], ...]


@dataclass(frozen=True)
class LaurentFusionMatrix:
    ring: FusionRing
    size: int
    entries: tuple[tuple[LaurentEntry, ...], ...]


def simple_root(g: CoxeterGraph, ring: FusionRing, s: str) -> LatticeVector:
    n = g.rank * ring.rank
    pos = g.index(s) * ring.rank + ring.unit_index
    return LatticeVector(tuple(1 if k == pos else 0 for k in range(n)))


def _pair_forms(g: CoxeterGraph, ring: FusionRing) -> list[list[FusionElement]]:
    """B_C(alpha_s, alpha_t) for every ordered vertex pair."""
    zero = FusionElement((0,) * ring.rank)
    two_unit = FusionElement(
        tuple(2 if k == ring.unit_index else 0 for k in range(ring.rank))
    )
    table = [[zero] * g.rank for _ in range(g.rank)]
    for i in range(g.rank):
        table[i][i] = two_unit
    for i, j, _ in g.edges:
        val = -edge_object(g, (i, j))
        table[i][j] = val
        table[j][i] = val
    return table


def bilinear_form_C(
    g: CoxeterGraph, ring: FusionRing, a: LatticeVector, b: LatticeVector
) -> FusionElement:
    n = g.rank * ring.rank
    if len(a.coefficients) != n or len(b.coefficients) != n:
        raise ValueError("vector length does not match the lattice rank")
    forms = _pair_forms(g, ring)
    out = FusionElement((0,) * ring.rank)
    for i, ca in enumerate(a.coefficients):
        if not ca:
            continue
        s, e = divmod(i, ring.rank)
        for j, cb in enumerate(b.coefficients):
            if not cb:
                continue
            t, f = divmod(j, ring.rank)
            base = forms[s][t]
            if not any(base.coefficients):
                continue
            ef = FusionElement(ring.plane(e)[f])
            term = multiply(ring, ef, base)
            out = out + FusionElement(
                tuple(ca * cb * c for c in term.coefficients)
            )
    return out


def _reflection_block(ring: FusionRing, forms, si: int):
    """The reflection v -> v - B_C(alpha_s, v) alpha_s as 1 + U: the
    nonzero entries of U, row by row and sorted by column.

    U lives in the ring.rank rows of vertex s.  Column t * nr + f, the
    vector [F] alpha_t, loses ([F] B_C(alpha_s, alpha_t)) alpha_s.  The
    ring is commutative, so for the form sum_j c_j [j] the entry in row e
    is -sum_j c_j N[j][f][e]: only the planes of the simples in the
    forms, the unit and the edge objects, are read.
    """
    nr = ring.rank
    urows: list[dict[int, int]] = [{} for _ in range(nr)]
    for t, form in enumerate(forms[si]):
        for j, c in enumerate(form.coefficients):
            if not c:
                continue
            for f, prod in enumerate(ring.plane(j)):
                col = t * nr + f
                for e, x in enumerate(prod):
                    if x:
                        urows[e][col] = urows[e].get(col, 0) - c * x
    return tuple(
        (si * nr + e, tuple(sorted((col, u) for col, u in urow.items() if u)))
        for e, urow in enumerate(urows)
    )


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_apply(m, v: LatticeVector) -> LatticeVector:
    return LatticeVector(
        tuple(sum(row[j] * c for j, c in enumerate(v.coefficients)) for row in m)
    )


def coxeter_word_matrix(
    g: CoxeterGraph, ring: FusionRing, word
) -> tuple[tuple[int, ...], ...]:
    """Matrix of a positive word; the first letter acts first.

    Each letter rewrites only the ring.rank rows of its vertex.
    """
    n = g.rank * ring.rank
    forms = _pair_forms(g, ring)
    blocks: dict[str, tuple] = {}
    rows = [tuple(1 if r == c else 0 for c in range(n)) for r in range(n)]
    for name in word:
        if name not in blocks:
            blocks[name] = _reflection_block(ring, forms, g.index(name))
        rows = _block_rows(blocks[name], rows)
    return tuple(rows)


def simple_reflection_matrix(
    g: CoxeterGraph, ring: FusionRing, s: str
) -> tuple[tuple[int, ...], ...]:
    """Matrix of v -> v - B_C(alpha_s, v) alpha_s; columns are images."""
    return coxeter_word_matrix(g, ring, (s,))


def coxeter_word_equal(g: CoxeterGraph, w1, w2) -> bool:
    ring = coxeter_fusion_ring(g)
    return coxeter_word_matrix(g, ring, tuple(w1)) == coxeter_word_matrix(
        g, ring, tuple(w2)
    )


def _burau_letter(g: CoxeterGraph, ring: FusionRing, s: int, exp: int):
    """Row s of sigma_s^exp as terms (t, c, a, j), each c q^a [j] in
    column t: -q^(2 exp) on the diagonal, and -q^exp [Pi(e)] for each
    edge e = {s, t}, read off the edge objects."""
    terms = [(s, -1, 2 * exp, ring.unit_index)]
    for i, j, _ in g.edges:
        if s in (i, j):
            form = edge_object(g, (i, j)).coefficients
            terms.extend((i + j - s, -c, exp, k) for k, c in enumerate(form) if c)
    return terms


def _burau_rows(g: CoxeterGraph, ring: FusionRing, letters) -> list[dict]:
    """The Burau matrix of braid letters as integer rows: row r maps
    (column, q exponent, simple) to its nonzero coefficient.

    sigma_s differs from the identity only in row s, so a letter
    rewrites row s as the sum over its terms of c q^a [j] row_t.  The
    unit only shifts the exponents; any other simple j is read from
    ring.action(j), built once per ring.
    """
    unit = ring.unit_index
    rows = [{(r, 0, unit): 1} for r in range(g.rank)]
    letter_terms: dict[tuple[str, int], tuple[int, list]] = {}
    for key in letters:
        if key not in letter_terms:
            s = g.index(key[0])
            letter_terms[key] = (s, _burau_letter(g, ring, s, key[1]))
        s, terms = letter_terms[key]
        new: dict[tuple[int, int, int], int] = {}
        get = new.get
        for t, c, a, j in terms:
            if j == unit:
                for (col, b, f), x in rows[t].items():
                    k = (col, b + a, f)
                    new[k] = get(k, 0) + c * x
                continue
            act = ring.action(j)
            for (col, b, f), x in rows[t].items():
                b += a
                x *= c
                for e, n in act[f]:
                    k = (col, b, e)
                    new[k] = get(k, 0) + x * n
        rows[s] = {k: x for k, x in new.items() if x}
    return rows


def burau_word(g: CoxeterGraph, ring: FusionRing, word) -> LaurentFusionMatrix:
    """Matrix of the braid word; the first letter of the word acts first.

    The product is taken on the integer rows of `_burau_rows`; each
    entry is built as sorted (exponent, FusionElement) pairs only here.
    """
    nr = ring.rank
    entries = []
    for row in _burau_rows(g, ring, braid_letters(word)):
        cells: list[dict[int, list[int]]] = [{} for _ in range(g.rank)]
        for (col, b, f), x in row.items():
            coeffs = cells[col].get(b)
            if coeffs is None:
                coeffs = cells[col][b] = [0] * nr
            coeffs[f] = x
        entries.append(
            tuple(
                tuple((b, FusionElement(tuple(co))) for b, co in sorted(cell.items()))
                if cell
                else ()
                for cell in cells
            )
        )
    return LaurentFusionMatrix(ring, g.rank, tuple(entries))


def burau_generator(
    g: CoxeterGraph, ring: FusionRing, s: str, inverse: bool = False
) -> LaurentFusionMatrix:
    """sigma_s: [P_s] -> -q^2 [P_s], [P_t] -> [P_t] - q [Pi(e)][P_s]."""
    return burau_word(g, ring, ((s, -1 if inverse else 1),))


def specialize_q(m: LaurentFusionMatrix, value: int = -1):
    """Evaluate q and expand fusion coefficients into the lattice basis.

    Entries are ints where integral and Fractions otherwise.
    """
    ring = m.ring
    nr = ring.rank
    n = m.size * nr
    powers: dict[int, int | Fraction] = {}
    big = [[0] * n for _ in range(n)]
    for t in range(m.size):
        for s in range(m.size):
            for exp, fe in m.entries[t][s]:
                weight = powers.get(exp)
                if weight is None:
                    if value == 0 and exp < 0:
                        raise ValueError("cannot evaluate q^-1 at q=0")
                    weight = Fraction(value) ** exp
                    if weight.denominator == 1:
                        weight = weight.numerator
                    powers[exp] = weight
                # [E][F] = sum_e N[E][F][e] [e], read off plane E
                for j, c in enumerate(fe.coefficients):
                    if not c:
                        continue
                    wc = weight * c
                    for f, prod in enumerate(ring.plane(j)):
                        col = s * nr + f
                        for e, x in enumerate(prod):
                            if x:
                                big[t * nr + e][col] += wc * x
    return tuple(
        tuple(
            x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
            for x in row
        )
        for row in big
    )


def burau_column(m: LaurentFusionMatrix, x: int):
    """Image of [P_x] as Laurent coefficients on the lattice basis."""
    nr = m.ring.rank
    cols = []
    for t in range(m.size):
        entry = m.entries[t][x]
        for e in range(nr):
            pairs = tuple(
                (exp, fe.coefficients[e]) for exp, fe in entry if fe.coefficients[e]
            )
            cols.append(pairs)
    return tuple(cols)


def _block_apply(block, vec: tuple[int, ...]) -> tuple[int, ...]:
    """(1 + U) vec: only the block coordinates change."""
    out = list(vec)
    for r, urow in block:
        out[r] += sum(u * vec[j] for j, u in urow)
    return tuple(out)


def _block_rows(block, rows):
    """(1 + U) rows: the block rows gain U's combinations of the old rows."""
    out = list(rows)
    for r, urow in block:
        new = rows[r]
        for k, u in urow:
            new = [x + u * y for x, y in zip(new, rows[k])]
        out[r] = tuple(new)
    return out


def _invertible_simples(ring: FusionRing) -> tuple[int, ...]:
    """The invertible simples, in basis order; the unit is one.

    In TLJ_n they are Pi0 and Pi_{n-2} (the even part of an odd n keeps
    only Pi0), and a simple of a product is invertible when each of its
    factor labels is; no plane is read.  Every simple is self-dual, so
    each g here has g * g = 1 and permutes the simples by f -> g * f.
    """
    flags = itertools.product(
        *([k in (0, n - 2) for k in labels] for n, labels in ring.factors)
    )
    return tuple(i for i, fs in enumerate(flags) if all(fs))


def root_walk(g: CoxeterGraph, ring: FusionRing):
    """The orbit walk of the simple roots: each accepted root as
    (layer, LatticeVector), layer by layer, one per root line.

    Layer 1 is the simple roots themselves; the walk has no depth bound
    and ends only when a layer is empty, so a caller stops reading where
    it needs to.  Vectors leaving the nonnegative orthant are
    negative-root duplicates and are dropped.  A simple reflection
    differs from the identity only in the ring.rank rows of its vertex,
    so an image is updated on those rows alone.

    A root line is keyed on the root's orbit under the invertible
    simples G: two roots of the walk give one reflection exactly when
    one is [g] times the other for some g in G.  One way, [g] commutes
    with W and g * g = 1, so [g] beta has the reflection of beta; the
    other, equal reflections have equal real roots, and by sign
    coherence two roots over one real root differ by a simple of FPdim
    1 (the module docstring has the argument).  Accepting a root marks
    its |G| orbit images as seen, so the first vector found on each line
    is the one yielded.
    """
    forms = _pair_forms(g, ring)
    blocks = [_reflection_block(ring, forms, vi) for vi in range(g.rank)]
    nr = ring.rank
    n = g.rank * nr
    # [h] moves block coordinate f to h * f; h * h = 1, so coordinate f
    # of [h]v is coordinate h * f of v
    perms = [
        tuple(b * nr + row.index(1) for b in range(g.rank) for row in ring.plane(h))
        for h in _invertible_simples(ring)
        if h != ring.unit_index
    ]
    seen: set[tuple[int, ...]] = set()

    def accept(vec: tuple[int, ...]) -> None:
        seen.add(vec)
        seen.update(tuple(map(vec.__getitem__, p)) for p in perms)

    frontier = []
    for vi in range(g.rank):
        vec = tuple(1 if k == vi * nr else 0 for k in range(n))
        accept(vec)
        frontier.append(vec)
        yield 1, LatticeVector(vec)
    layer = 1
    while frontier:
        layer += 1
        nxt = []
        for vec in sorted(frontier):
            for block in blocks:
                image = _block_apply(block, vec)
                if image in seen or any(c < 0 for c in image):
                    continue
                accept(image)
                nxt.append(image)
                yield layer, LatticeVector(image)
        frontier = nxt


def root_layers(
    g: CoxeterGraph, ring: FusionRing, depth: int
) -> list[set[LatticeVector]]:
    """The first depth layers of root_walk, one set per nonempty layer."""
    walk = itertools.takewhile(lambda item: item[0] <= depth, root_walk(g, ring))
    layers = itertools.groupby(walk, itemgetter(0))
    return [{root for _, root in layer} for _, layer in layers]


def enumerate_positive_roots(
    g: CoxeterGraph, ring: FusionRing, depth: int
) -> set[LatticeVector]:
    out: set[LatticeVector] = set()
    for layer in root_layers(g, ring, depth):
        out |= layer
    return out
