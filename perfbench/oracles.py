"""Correctness oracles for benchmark queries.

Each check takes the `CommandResult` of one `cli.run` call plus what is
known about the query, and returns None when the answer is right or a
short reason when it is wrong.  The checks reach the answer by a route
that does not run the code under test:

- `act` from a unit-fiber projective: the Euler class of the printed
  complex equals the Burau column of the word on the folded graph, so
  the twist code is checked against the lattice code.
- `burau --q-eval -1`: the matrix equals the product of simple
  reflections of the unsigned word (`coxeter_word_matrix`), so the
  Laurent matrix product is checked against plain integer matrices.
- `chamber`: the input is a charge z0 of the fundamental chamber moved
  by a seeded word of simple reflections (`reflect`, written here from
  the Coxeter labels alone).  Replaying the printed word on the printed
  phase times the input must give the printed charge, which must lie in
  the chamber and equal phase * z0 whenever phase * z0 lies there.
- verdicts, root counts and the other decisions are known by
  construction of the query.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from coxtwist.cli import read_act_output
from coxtwist.coxgraph import INF, CoxeterGraph
from coxtwist.fusion import coxeter_fusion_ring
from coxtwist.lattice import burau_column, burau_word, coxeter_word_matrix

_DECISION_EXIT = {"yes": 0, "no": 3, "inconclusive": 2}
_VERDICT_EXIT = {"identity": 0, "not identity": 3, "equal": 0, "not equal": 3}

# the chamber postcondition, with the tolerance locate_chamber uses
_TOL = 1e-9


def _exit(result, code: int) -> str | None:
    if result.exit_code != code:
        return f"exit code {result.exit_code}, expected {code}"
    return None


def euler_class(g: CoxeterGraph, text: str):
    """Class of printed `act` output on the lattice basis, as burau_column gives it."""
    ring = coxeter_fusion_ring(g)
    acc: list[dict[int, int]] = [{} for _ in range(g.rank * ring.rank)]
    # only the summand lines: read_act_output misreads differential
    # entries whose path labels contain "*" (rings with several factors)
    summand_lines = "\n".join(
        line for line in text.splitlines() if not line.startswith("d[")
    )
    for deg, summands in read_act_output(summand_lines)["terms"].items():
        sign = -1 if deg % 2 else 1
        for name, k in summands:
            if ring.rank == 1:
                s, lab = name, ring.basis[0]
            else:
                s, lab = name.strip("()").rsplit(",", 1)
            d = acc[g.index(s) * ring.rank + ring.basis.index(lab)]
            d[k] = d.get(k, 0) + sign
    return tuple(tuple((e, c) for e, c in sorted(d.items()) if c) for d in acc)


def check_act(result, g: CoxeterGraph, word, start: str) -> str | None:
    bad = _exit(result, 0)
    if bad:
        return bad
    try:
        got = euler_class(g, result.stdout)
    except (ValueError, IndexError) as exc:
        return f"unreadable act output: {exc}"
    ring = coxeter_fusion_ring(g)
    want = burau_column(burau_word(g, ring, word), g.index(start))
    return None if got == want else "complex class differs from the Burau column"


def check_verdict(result, expected: str) -> str | None:
    bad = _exit(result, _VERDICT_EXIT[expected])
    if bad:
        return bad
    got = result.stdout.strip()
    return None if got == expected else f"answered {got!r}, expected {expected!r}"


def check_burau(result, g: CoxeterGraph, word) -> str | None:
    bad = _exit(result, 0)
    if bad:
        return bad
    lines = result.stdout.splitlines()
    try:
        rows = tuple(
            tuple(Fraction(x) for x in line.split(": ", 1)[1].split())
            for line in lines[1:]
        )
    except (IndexError, ValueError):
        return "unreadable burau output"
    want = coxeter_word_matrix(g, coxeter_fusion_ring(g), tuple(s for s, _ in word))
    if lines[0] != f"size: {len(want)}":
        return f"printed {lines[0]!r}, expected size {len(want)}"
    return None if rows == want else "q=-1 matrix differs from the reflection product"


def _root_lines(result):
    lines = result.stdout.splitlines()
    fields = dict(line.split(": ", 1) for line in lines[:3])
    roots = [tuple(int(c) for c in line[6:].split()) for line in lines[3:]]
    return int(fields["count"]), fields["truncated"], roots


def check_root_count(result, expected: int) -> str | None:
    bad = _exit(result, 0)
    if bad:
        return bad
    try:
        count, truncated, roots = _root_lines(result)
    except (KeyError, ValueError):
        return "unreadable roots output"
    if count != expected or len(roots) != expected:
        return f"{count} roots printed as {len(roots)} lines, expected {expected}"
    return None if truncated == "no" else "finite type reported as truncated"


def check_root_list(result, g: CoxeterGraph) -> str | None:
    """Infinite type: a truncated list of distinct nonnegative vectors that
    contains every simple root."""
    bad = _exit(result, 0)
    if bad:
        return bad
    try:
        count, truncated, roots = _root_lines(result)
    except (KeyError, ValueError):
        return "unreadable roots output"
    nr = coxeter_fusion_ring(g).rank
    simple = {tuple(int(k == i * nr) for k in range(g.rank * nr)) for i in range(g.rank)}
    if count != len(roots) or len(set(roots)) != count:
        return "root count does not match the distinct roots printed"
    if any(c < 0 for r in roots for c in r) or not simple <= set(roots):
        return "root list is not positive or misses a simple root"
    return None if truncated == "yes" else "infinite type reported as exhaustive"


def reflect(g: CoxeterGraph, s: str, values) -> tuple[complex, ...]:
    """The charge after the simple reflection s: (s.Z)(a_j) = Z(s(a_j)),
    with s(a_j) = a_j + 2 cos(pi / m_sj) a_s and s(a_s) = -a_s."""
    i = g.index(s)
    out = []
    for j, v in enumerate(values):
        m = g.label(i, j)
        if j == i:
            out.append(-v)
        elif m == 2:
            out.append(v)
        else:
            out.append(v + (2.0 if m == INF else 2 * math.cos(math.pi / m)) * values[i])
    return tuple(out)


def in_chamber(values) -> bool:
    return all(z.imag > _TOL or (abs(z.imag) <= _TOL and z.real < -_TOL) for z in values)


def _same_charge(a, b) -> bool:
    scale = max(1.0, *(abs(z) for z in a))
    return all(abs(x - y) <= 1e-9 * scale for x, y in zip(a, b))


def check_located(result, g: CoxeterGraph, charge, z0) -> str | None:
    """`charge` was written as the input; it is z0, a chamber charge,
    moved by simple reflections."""
    bad = _exit(result, 0)
    if bad:
        return bad
    doc = json.loads(result.stdout)
    if doc["status"] != "located":
        return f"status {doc['status']!r}"
    phase = complex(*doc["phase"])
    got = tuple(complex(*doc["charge"][v]) for v in g.vertices)
    if abs(abs(phase) - 1) > 1e-9:
        return f"phase {phase} is not a rotation"
    if not in_chamber(got):
        return "located charge is outside the fundamental chamber"
    replay = tuple(phase * z for z in charge)
    for s in doc["word"]:
        replay = reflect(g, s, replay)
    if not _same_charge(replay, got):
        return "the printed word does not carry the input to the printed charge"
    home = tuple(phase * z for z in z0)
    if in_chamber(home) and not _same_charge(home, got):
        return "located charge differs from the chamber charge the input came from"
    return None


def check_decision(result, expected: str) -> str | None:
    bad = _exit(result, _DECISION_EXIT[expected])
    if bad:
        return bad
    got = json.loads(result.stdout)["result"]
    return None if got == expected else f"answered {got!r}, expected {expected!r}"


def ring_rank(g: CoxeterGraph) -> int:
    """Rank of the graph's ring from its distinct finite labels alone."""
    rank = 1
    for n in g.finite_edge_labels():
        rank *= n - 1 if n % 2 == 0 else (n - 1) // 2
    return rank


def check_fusion_table(result, g: CoxeterGraph) -> str | None:
    bad = _exit(result, 0)
    if bad:
        return bad
    lines = result.stdout.splitlines()
    n = ring_rank(g)
    if lines[0] != f"rank: {n}":
        return f"printed {lines[0]!r}, expected rank {n}"
    basis = lines[1].split()[1:]
    table = dict(line.split(" = ", 1) for line in lines[2 + n :])
    if len(table) != n * n:
        return "product table is incomplete"
    for a in basis:
        if table[f"{basis[0]} * {a}"] != a:
            return f"the unit does not fix {a}"
        for b in basis:
            if table[f"{a} * {b}"] != table[f"{b} * {a}"]:
                return f"{a} * {b} is not commutative"
    return None


def check_unfold(result, g: CoxeterGraph) -> str | None:
    bad = _exit(result, 0)
    if bad:
        return bad
    doc = json.loads(result.stdout)
    want = g.rank * ring_rank(g)
    got = len(doc["vertices"])
    return None if got == want else f"{got} unfolded vertices, expected {want}"


def check_zigzag_info(result, vertices: int, dim: int) -> str | None:
    bad = _exit(result, 0)
    if bad:
        return bad
    head = result.stdout.split("\n", 2)[:2]
    want = [f"vertices: {vertices}", f"dimension: {dim}"]
    return None if head == want else f"printed {head}, expected {want}"
