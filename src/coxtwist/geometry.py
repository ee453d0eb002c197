"""Central-charge geometry over a Coxeter graph.

A charge assigns one complex number per vertex and extends to the
fusion lattice through the FPdim embedding.  This module samples the
imaginary cone, tests Tits-cone membership, normalizes charges so the
image cone points straight up, and locates the chamber of a charge by
reflection descent.

The roots and the cone samples of `in_regular_set` come from one walk
of the root orbit.  The default step budget of a descent,
10 * (roots + rank), is at least 10 * rank, so the walk that sizes it
runs only once a descent reaches 10 * rank steps; shorter descents never
walk for it, and the budget's value is the same either way.
"""

import cmath
import math
from dataclasses import dataclass

from .coxgraph import INF, CoxeterGraph, InvariantError, gram_matrix, is_finite_type
from .fusion import FusionRing
from .lattice import LatticeVector, root_layers

_DEPTH = 8
_ANGULAR_TOL = 1e-6
# a charge or functional value within this of zero counts as zero
_TOL = 1e-9


@dataclass(frozen=True)
class CentralCharge:
    """One complex value per vertex, in graph order.

    A full charge on the unfolded lattice is the same structure over the
    unfolded graph with the trivial coefficient ring; the flag only
    records which reading is intended.
    """

    values: tuple[complex, ...]
    full: bool = False


@dataclass(frozen=True)
class ChamberReport:
    status: str
    phase: complex
    word: tuple[str, ...]
    charge: CentralCharge


def embed_real(ring: FusionRing, v: LatticeVector) -> tuple[float, ...]:
    """Collapse each vertex block of v to a real coordinate via FPdim."""
    n = len(v.coefficients)
    if n % ring.rank:
        raise ValueError("vector length is not a multiple of the ring rank")
    dims = ring.fpdim
    return tuple(
        math.fsum(
            v.coefficients[b * ring.rank + e] * dims[e] for e in range(ring.rank)
        )
        for b in range(n // ring.rank)
    )


def evaluate_charge(
    g: CoxeterGraph, ring: FusionRing, z: CentralCharge, v: LatticeVector
) -> complex:
    if len(z.values) != g.rank:
        raise ValueError("charge length does not match the graph")
    if len(v.coefficients) != g.rank * ring.rank:
        raise ValueError("vector length does not match the lattice")
    x = embed_real(ring, v)
    return sum(zi * xi for zi, xi in zip(z.values, x))


def _gram_rows(g: CoxeterGraph) -> list[list[float]]:
    return [[float(c) for c in row] for row in gram_matrix(g)]


def _reflect_values(rows, si, vals):
    row = rows[si]
    pivot = vals[si]
    return tuple(v - row[t] * pivot for t, v in enumerate(vals))


def reflect_charge(g: CoxeterGraph, s: str, z: CentralCharge) -> CentralCharge:
    """Contragradient action of the simple reflection: (s.Z)(v) = Z(s.v)."""
    if len(z.values) != g.rank:
        raise ValueError("charge length does not match the graph")
    new = _reflect_values(_gram_rows(g), g.index(s), z.values)
    return CentralCharge(new, z.full)


def _exact_affine_ray(g: CoxeterGraph):
    # The rank-2 infinite graph is the one case with a closed-form limit
    # ray: the Gram kernel (1,1).  Everything else is sampled.
    if g.rank == 2 and any(m == INF for _, _, m in g.edges):
        r = math.sqrt(0.5)
        return (r, r)
    return None


def _angle(x, y) -> float:
    dot = sum(a * b for a, b in zip(x, y))
    return math.acos(max(-1.0, min(1.0, dot)))


def imaginary_cone_samples(
    g: CoxeterGraph, ring: FusionRing, depth: int
) -> list[tuple[float, ...]]:
    """Unit directions approximating the limit rays of the positive roots.

    Empty exactly for finite type.  Otherwise the deeper half of the
    root enumeration is embedded, normalized, and deduplicated; the
    convex hull of the result approximates the imaginary cone on the
    unit sphere.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if is_finite_type(g):
        return []
    exact = _exact_affine_ray(g)
    if exact is not None:
        return [exact]
    return _samples(ring, root_layers(g, ring, depth), depth)


def _samples(ring: FusionRing, layers, depth: int) -> list[tuple[float, ...]]:
    """The deduplicated unit directions of the deeper half of the layers."""
    out: list[tuple[float, ...]] = []
    for ell, layer in enumerate(layers, start=1):
        if 2 * ell <= depth:
            continue
        for root in sorted(layer, key=lambda r: r.coefficients):
            x = embed_real(ring, root)
            norm = math.sqrt(math.fsum(c * c for c in x))
            unit = tuple(c / norm for c in x)
            if all(_angle(unit, seen) > _ANGULAR_TOL for seen in out):
                out.append(unit)
    return out


def phase_of_imaginary_cone(z: CentralCharge, samples) -> float:
    """Argument of the middle ray of the image of the sampled cone.

    The charge must stay bounded away from zero on every sample, and the
    image arguments must fit in an open half-plane; both failures mean
    the charge is outside the usable region and raise.
    """
    if not samples:
        raise ValueError("no imaginary cone samples to evaluate")
    vals = [sum(zi * ci for zi, ci in zip(z.values, x)) for x in samples]
    if any(abs(v) < _TOL for v in vals):
        raise ValueError("charge vanishes on an imaginary cone sample")
    args = sorted(cmath.phase(v) for v in vals)
    if len(args) == 1:
        phi = args[0]
    else:
        gaps = [b - a for a, b in zip(args, args[1:])]
        gaps.append(args[0] + math.tau - args[-1])
        widest = max(range(len(gaps)), key=gaps.__getitem__)
        span = math.tau - gaps[widest]
        if span >= math.pi:
            raise ValueError("image arguments span a half-plane or more")
        phi = args[(widest + 1) % len(args)] + span / 2
    phi = math.remainder(phi, math.tau)
    if phi <= -math.pi:
        phi += math.tau
    return phi


def normalize_charge(z: CentralCharge, samples):
    """Rotate so the image cone points straight up: k = e^{i(pi/2 - phi)}.

    With no samples (finite type) the charge is already regarded as
    normalized and k = 1.
    """
    if not samples:
        return complex(1), z
    phi = phase_of_imaginary_cone(z, samples)
    k = cmath.exp(1j * (math.pi / 2 - phi))
    return k, CentralCharge(tuple(k * v for v in z.values), z.full)


def _default_budget(g: CoxeterGraph, ring: FusionRing, depth: int) -> int:
    # the layers are disjoint, so their sizes add up to the root count
    return 10 * (sum(map(len, root_layers(g, ring, depth))) + g.rank)


def _budget(g: CoxeterGraph, ring: FusionRing, depth: int, max_iter):
    """steps -> whether a descent has spent its step budget.

    An explicit max_iter is the budget.  The default one is sized by a
    root walk, which runs only once a descent reaches 10 * g.rank steps:
    no budget is smaller than that.
    """
    if max_iter is not None:
        return lambda steps: steps >= max_iter
    limit = None

    def spent(steps: int) -> bool:
        nonlocal limit
        if steps < 10 * g.rank:
            return False
        if limit is None:
            limit = _default_budget(g, ring, depth)
        return steps >= limit

    return spent


def _descend(rows, current: list, pick, spent, word: list, steps: int = 0):
    """Reflect current in place at pick(current) until pick returns None.

    Each reflected index is appended to word.  Returns the total step
    count, or None when spent(steps) holds before a reflection.
    """
    while True:
        si = pick(current)
        if si is None:
            return steps
        if spent(steps):
            return None
        current[:] = _reflect_values(rows, si, current)
        word.append(si)
        steps += 1


def in_tits_interior(
    g: CoxeterGraph, ring: FusionRing, x, depth: int = _DEPTH, max_iter=None
) -> str:
    """Tri-state membership of a real functional in the open Tits cone.

    Finite type is the whole space.  Otherwise reflection descent either
    reaches the closed chamber, where the vanishing set decides (its
    subgraph must be finite type), or the budget runs out and the answer
    is inconclusive.  Only the exact rank-2 kernel ray produces a
    sampled "no": truncated samples are never treated as proof.  The
    default budget walks the roots to depth only if the descent gets
    long enough to need it.
    """
    if len(x) != g.rank:
        raise ValueError("functional length does not match the graph")
    if is_finite_type(g):
        return "yes"
    exact = _exact_affine_ray(g)
    if exact is not None:
        if math.fsum(c * s for c, s in zip(x, exact)) <= _TOL:
            return "no"

    def negative(vals):
        return next((i for i, c in enumerate(vals) if c < -_TOL), None)

    current = [float(c) for c in x]
    spent = _budget(g, ring, depth, max_iter)
    if _descend(_gram_rows(g), current, negative, spent, []) is None:
        return "inconclusive"
    fixed = tuple(g.vertices[i] for i, c in enumerate(current) if abs(c) <= _TOL)
    return "yes" if is_finite_type(g.induced(fixed)) else "no"


def in_regular_set(
    g: CoxeterGraph,
    ring: FusionRing,
    z: CentralCharge,
    depth: int = _DEPTH,
    tol: float = _TOL,
) -> str:
    """Tri-state check that z misses every root and imaginary-cone wall.

    Truncated by depth: "yes" certifies the enumerated walls only, "no"
    is witnessed by an actual near-zero value.  The roots and the cone
    samples come from one walk to depth.
    """
    if len(z.values) != g.rank:
        raise ValueError("charge length does not match the graph")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    layers = root_layers(g, ring, depth)
    if is_finite_type(g):
        samples = []
    else:
        exact = _exact_affine_ray(g)
        samples = [exact] if exact is not None else _samples(ring, layers, depth)
    values = [
        abs(evaluate_charge(g, ring, z, root)) for layer in layers for root in layer
    ]
    values += [abs(sum(zi * ci for zi, ci in zip(z.values, x))) for x in samples]
    if any(v < tol / 10 for v in values):
        return "no"
    if all(v > tol for v in values):
        return "yes"
    return "inconclusive"


def locate_chamber(
    g: CoxeterGraph,
    ring: FusionRing,
    z: CentralCharge,
    tol: float = _TOL,
    max_iter=None,
    depth: int = _DEPTH,
) -> ChamberReport:
    """Normalize z and descend it into the fundamental chamber.

    Reflections are recorded in application order, so replaying the word
    through reflect_charge on k*z reproduces the reported charge.  On
    status "located" every entry lies in the open upper half-plane or on
    the negative real axis, and in infinite type the image cone of the
    result points straight up.  depth bounds the root enumeration behind
    the cone samples and the default step budget.  Finite types and the
    rank-2 infinite graph need no walk for the samples, and the budget
    walks only for a descent long enough to need it.
    """
    if len(z.values) != g.rank:
        raise ValueError("charge length does not match the graph")
    samples = imaginary_cone_samples(g, ring, depth)
    spent = _budget(g, ring, depth, max_iter)
    try:
        k, zn = normalize_charge(z, samples)
    except ValueError:
        return ChamberReport("not_in_interior", complex(1), (), z)
    rows = _gram_rows(g)
    current = list(zn.values)
    word: list[int] = []

    def report(status):
        names = tuple(g.vertices[i] for i in word)
        return ChamberReport(status, k, names, CentralCharge(tuple(current), z.full))

    def below(vals):
        return next((i for i, c in enumerate(vals) if c.imag < -tol), None)

    steps = _descend(rows, current, below, spent, word)
    if steps is None:
        return report("max_iterations")
    fixed = tuple(i for i, c in enumerate(current) if abs(c.imag) <= tol)
    if not is_finite_type(g.induced(tuple(g.vertices[i] for i in fixed))):
        return report("not_in_interior")

    def right(vals):
        return next((i for i in fixed if vals[i].real > tol), None)

    if _descend(rows, current, right, spent, word, steps) is None:
        return report("max_iterations")

    for i in fixed:
        if current[i].real >= -tol:
            raise ValueError("charge vanishes on a root; not in the regular set")
    for c in current:
        if not (c.imag > tol or (abs(c.imag) <= tol and c.real < -tol)):
            raise InvariantError("located charge escaped the fundamental chamber")
    if samples:
        phi = phase_of_imaginary_cone(CentralCharge(tuple(current), z.full), samples)
        if not abs(phi - math.pi / 2) < _ANGULAR_TOL:
            raise InvariantError("located charge lost its normalization")
    return report("located")
