"""Seeded workloads for the coxtwist benchmark.

A workload is a list of rounds; a round is a fixed mix of CLI queries in
which the seed picks only the letters, vertices, signs and charges.  The
mix inside a round is the same for every seed, so percentiles fall in
the same population whatever the seed, and a run measures whole rounds.

corpus-twists
    Word problems on the seven corpus graphs.  Each round holds 42 short
    queries, six per graph (two act words, whose lengths depend on the
    graph only, two trivial and one non-trivial is-identity conjugate,
    one word-eq on a braid relation), and 11 queries of the growth
    ladder on rank2_inf: each rung with its mirror, the (s^2 t^-2)^2
    pair twice, and the 4 s top rung (s t^-1)^3 s in one orientation,
    alternating from round to round.  Rounds differ only in what the
    seed picks, so a run of two rounds and one of three hold the same
    mix.  The short queries (79%) hold p50, and the (s^2 t^-2)^2 block
    (7.5%, about 0.5 s each) lies between the cheaper rungs and the
    three costliest ladder queries per round (5.7%), so p90 falls inside
    that block and neither percentile sits on a boundary between
    populations.  Largest printed complex: 239 summands.

label-chain
    The 5-7-9 chain: ring rank 24, 96 unfolded vertices, zigzag algebra
    of dimension 428.  Identity checks sweep all 96 projectives; most
    twists inside them are no-ops.  Complexes stay small.

lattice-geometry
    Burau matrices at q = -1, root enumeration, chamber descent and
    Tits/regular checks on the corpus, H3, H4, F4, the 7-3 chain and the
    unfolded chain45 and g2_affine.  No homotopy code runs.

`chamber` runs only on finite types and on rank2_inf, whose imaginary
cone is one exact ray.  On the other infinite types the reported charge
of a scrambled input can miss the sampled-cone normalization, and
`locate_chamber` then raises AssertionError out of `cli.run`; that query
would count as failed.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles
from coxtwist import cli
from coxtwist.coxgraph import INF, CoxeterGraph, parse_graph
from coxtwist.fusion import coxeter_fusion_ring
from coxtwist.unfolding import unfold
from coxtwist.zigzag import build_zigzag

# Distinct rounds generated at set-up; a run that needs more cycles them.
ROUNDS = 8


def _graph(vertices, edges) -> str:
    return json.dumps(
        {"vertices": list(vertices), "edges": [{"ends": [u, v], "m": m} for u, v, m in edges]}
    )


CORPUS = {
    "a2": _graph("st", [("s", "t", 3)]),
    "a3": _graph("stu", [("s", "t", 3), ("t", "u", 3)]),
    "i2_4": _graph("st", [("s", "t", 4)]),
    "i2_5": _graph("st", [("s", "t", 5)]),
    "chain45": _graph("stu", [("s", "t", 4), ("t", "u", 5)]),
    "rank2_inf": _graph("st", [("s", "t", "inf")]),
    "g2_affine": _graph("abc", [("a", "b", 6), ("b", "c", 3)]),
}
LABEL_CHAIN = {"l579": _graph("abcd", [("a", "b", 5), ("b", "c", 7), ("c", "d", 9)])}
EXTRA_GEOMETRY = {
    "h3": _graph("abc", [("a", "b", 5), ("b", "c", 3)]),
    "h4": _graph("abcd", [("a", "b", 5), ("b", "c", 3), ("c", "d", 3)]),
    "f4": _graph("abcd", [("a", "b", 3), ("b", "c", 4), ("c", "d", 3)]),
    "c73": _graph("abc", [("a", "b", 7), ("b", "c", 3)]),
}
# Unfolded graphs are written at set-up through the `unfold` command.
UNFOLDED = ("chain45", "g2_affine")

# Positive root counts of finite types, and the smallest --depth that
# reaches all of them.
ROOT_COUNTS = {"a3": (6, 3), "i2_5": (5, 3), "h3": (15, 7), "f4": (24, 8), "h4": (60, 23)}

# (s t^-1)^2, (s t^-1)^3, (s^2 t^-2)^2, (s t^-1)^3 s^-1, (s t^-1)^3 s on P(s);
# every rung also runs as its s<->t mirror on P(t).
LADDER = (
    ((("s", 1), ("t", -1)) * 2),
    ((("s", 1), ("t", -1)) * 3),
    ((("s", 1), ("s", 1), ("t", -1), ("t", -1)) * 2),
    ((("s", 1), ("t", -1)) * 3 + (("s", -1),)),
    ((("s", 1), ("t", -1)) * 3 + (("s", 1),)),
)


@dataclass(frozen=True)
class Query:
    """One CLI invocation and the oracle that judges its result."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[cli.CommandResult], str | None]
    word_problem: bool = False


@dataclass
class Graph:
    name: str
    path: str
    g: CoxeterGraph

    @property
    def ring(self):
        return coxeter_fusion_ring(self.g)

    def unit_start(self, s: str) -> str:
        ring = self.ring
        return f"{s},{ring.basis[ring.unit_index]}"

    def adjacent(self):
        return [(self.g.vertices[i], self.g.vertices[j], m) for i, j, m in self.g.edges]

    def non_adjacent(self):
        vs = self.g.vertices
        return [
            (vs[i], vs[j])
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
            if self.g.label(i, j) == 2
        ]


def word_text(word) -> str:
    return " ".join(s if e == 1 else f"{s}^-1" for s, e in word)


def inverse(word):
    return tuple((s, -e) for s, e in reversed(word))


def random_word(rng, vertices, length):
    return tuple((rng.choice(vertices), rng.choice((1, -1))) for _ in range(length))


def alternating(s, t, m):
    return tuple((s if k % 2 == 0 else t, 1) for k in range(m))


def commutator(s, t):
    return ((s, 1), (t, 1), (s, -1), (t, -1))


def _names(word):
    return tuple(s for s, _ in word)


# ---------------------------------------------------------------- queries


def act_query(gr: Graph, word, s: str) -> Query:
    argv = ("act", gr.path, word_text(word), "--on", gr.unit_start(s))
    return Query("act", argv, partial(oracles.check_act, g=gr.g, word=word, start=s))


def identity_query(gr: Graph, word, expected: bool) -> Query:
    argv = ("is-identity", gr.path, word_text(word))
    check = partial(oracles.check_verdict, expected="identity" if expected else "not identity")
    return Query("is-identity", argv, check, word_problem=True)


def word_eq_query(gr: Graph, first, second, expected: bool) -> Query:
    argv = ("word-eq", gr.path, word_text(first), word_text(second))
    check = partial(oracles.check_verdict, expected="equal" if expected else "not equal")
    return Query("word-eq", argv, check, word_problem=True)


def _conjugate(rng, gr: Graph, core):
    # on rank2_inf a conjugated commutator can cost as much as a ladder rung
    length = 0 if gr.name == "rank2_inf" else rng.randint(0, 1)
    w = random_word(rng, gr.g.vertices, length)
    return w + core + inverse(w)


def _signed_turn(rng, word):
    # a cyclic rotation or inversion keeps a relator a relator
    k = rng.randrange(len(word))
    word = word[k:] + word[:k]
    return inverse(word) if rng.random() < 0.5 else word


def _trivial_core(rng, gr: Graph, kind: str):
    # a relator of label 5 or 6 on chain45 or g2_affine sweeps as long as
    # a ladder rung; word-eq still covers those labels
    short_edges = [e for e in gr.adjacent() if e[2] <= 4]
    if kind == "braid" and short_edges:
        s, t, m = rng.choice(short_edges)
        if rng.random() < 0.5:
            s, t = t, s
        return _signed_turn(rng, alternating(s, t, m) + inverse(alternating(t, s, m)))
    if kind == "commute" and gr.non_adjacent():
        s, t = rng.choice(gr.non_adjacent())
        return _signed_turn(rng, commutator(s, t))
    s = rng.choice(gr.g.vertices)
    e = rng.choice((1, -1))
    return ((s, e), (s, -e))


def corpus_round(rng, graphs: dict[str, Graph], r: int) -> list[Query]:
    out = []
    for k, name in enumerate(CORPUS):
        gr = graphs[name]
        vs = gr.g.vertices
        for length in (k % 7, (k + 3) % 7):
            out.append(act_query(gr, random_word(rng, vs, length), rng.choice(vs)))
        for kind in ("inverse", "braid", "commute", "inverse")[k % 3 :][:2]:
            out.append(identity_query(gr, _conjugate(rng, gr, _trivial_core(rng, gr, kind)), True))
        s, t, _ = rng.choice(gr.adjacent())
        if rng.random() < 0.5:
            s, t = t, s
        out.append(identity_query(gr, _conjugate(rng, gr, commutator(s, t)), False))
        s, t, m = rng.choice(gr.adjacent())
        if m == INF:
            out.append(word_eq_query(gr, ((s, 1), (t, 1)), ((t, 1), (s, 1)), False))
        else:
            out.append(word_eq_query(gr, alternating(s, t, m), alternating(t, s, m), True))
    ladder = graphs["rank2_inf"]
    mirror = {"s": "t", "t": "s"}
    for i, word in enumerate(LADDER):
        starts = "st" if i < len(LADDER) - 1 else "st"[r % 2]
        for _ in range(2 if i == 2 else 1):
            for start in starts:
                w = word if start == "s" else tuple((mirror[s], e) for s, e in word)
                out.append(act_query(ladder, w, start))
    rng.shuffle(out)
    return out


def label_chain_round(rng, graphs: dict[str, Graph], r: int) -> list[Query]:
    gr = graphs["l579"]
    vs = gr.g.vertices
    out = [identity_query(gr, _trivial_core(rng, gr, "inverse"), True)]
    for s, t in gr.non_adjacent():
        out.append(identity_query(gr, _signed_turn(rng, commutator(s, t)), True))
    for s, t, _ in gr.adjacent():
        if rng.random() < 0.5:
            s, t = t, s
        out.append(identity_query(gr, commutator(s, t), False))
    for length in (1, 2, 3, 4, 5, 6) * 2:
        out.append(act_query(gr, random_word(rng, vs, length), rng.choice(vs)))
    out.append(Query("zigzag-info", ("zigzag-info", gr.path), partial(oracles.check_zigzag_info, vertices=96, dim=428)))
    out.append(Query("fusion-table", ("fusion-table", gr.path), partial(oracles.check_fusion_table, g=gr.g)))
    out.append(Query("unfold", ("unfold", gr.path), partial(oracles.check_unfold, g=gr.g)))
    rng.shuffle(out)
    return out


def _charge_file(workdir: str, tag: str, g: CoxeterGraph, values) -> str:
    path = os.path.join(workdir, f"charge-{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({v: [c.real, c.imag] for v, c in zip(g.vertices, values)}, fh)
    return path


def _chamber_charge(rng, g: CoxeterGraph, real: bool):
    """A charge z0 in the fundamental chamber and z0 scrambled by a seeded word."""
    if real:
        z0 = tuple(complex(rng.uniform(0.5, 2.0), 0) for _ in g.vertices)
    else:
        z0 = tuple(
            cmath.rect(rng.uniform(1.0, 2.0), rng.uniform(math.pi / 3, 2 * math.pi / 3))
            for _ in g.vertices
        )
    z = z0
    for _ in range(rng.randint(1, 4)):
        z = oracles.reflect(g, rng.choice(g.vertices), z)
    return z0, z


def lattice_round(rng, graphs: dict[str, Graph], r: int, workdir: str) -> list[Query]:
    out = []
    for name, gr in graphs.items():
        vs = gr.g.vertices
        if name.startswith("u_"):
            base = graphs[name[2:]]
            fibers = {s: [v for v in vs if v.rsplit(",", 1)[0] == s] for s in base.g.vertices}
            for _ in range(3):
                word = random_word(rng, base.g.vertices, 4)
                # expand each base letter over its fiber, as lcm_translate does
                expanded = tuple((v, e) for s, e in word for v in (fibers[s] if e == 1 else fibers[s][::-1]))
                out.append(burau_query(gr, expanded))
        else:
            out.append(burau_query(gr, random_word(rng, vs, 8)))
    for name, (count, depth) in ROOT_COUNTS.items():
        gr = graphs[name]
        argv = ("roots", gr.path, "--depth", str(depth + rng.randint(0, 2)))
        out.append(Query("roots", argv, partial(oracles.check_root_count, expected=count)))
    for name, depth in (("chain45", 8), ("c73", 10), ("g2_affine", 10)):
        gr = graphs[name]
        argv = ("roots", gr.path, "--depth", str(depth + rng.randint(0, 1)))
        out.append(Query("roots", argv, partial(oracles.check_root_list, g=gr.g)))
    for name in ("a2", "a3", "i2_4", "i2_5", "h3", "h4", "f4", "rank2_inf"):
        gr = graphs[name]
        z0, z = _chamber_charge(rng, gr.g, real=False)
        path = _charge_file(workdir, f"{r}-chamber-{name}", gr.g, z)
        check = partial(oracles.check_located, g=gr.g, charge=z, z0=z0)
        out.append(Query("chamber", ("chamber", gr.path, "--charge", path), check))
    for name in ("a3", "h4", "chain45", "rank2_inf", "g2_affine", "c73"):
        gr = graphs[name]
        path = _charge_file(workdir, f"{r}-tits-{name}", gr.g, _chamber_charge(rng, gr.g, real=True)[1])
        out.append(Query("tits-check", ("tits-check", gr.path, "--charge", path), partial(oracles.check_decision, expected="yes")))
        values = list(_chamber_charge(rng, gr.g, real=False)[1])
        values[rng.randrange(len(values))] = 0j
        path = _charge_file(workdir, f"{r}-regular-{name}", gr.g, values)
        out.append(Query("regular-check", ("regular-check", gr.path, "--charge", path), partial(oracles.check_decision, expected="no")))
    for name in ("a2", "a3", "i2_5", "h3", "f4", "c73"):
        gr = graphs[name]
        s, t, m = rng.choice(gr.adjacent())
        w = tuple(rng.choice(gr.g.vertices) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.5:
            first, second, same = w + _names(alternating(s, t, m)), w + _names(alternating(t, s, m)), True
        else:
            # the lengths differ in parity, so the determinants differ
            first, second, same = w + (s, t), w + (t,), False
        argv = ("coxeter-eq", gr.path, " ".join(first), " ".join(second))
        out.append(Query("coxeter-eq", argv, partial(oracles.check_verdict, expected="equal" if same else "not equal")))
    for name in ("h4", "c73", "g2_affine"):
        gr = graphs[name]
        out.append(Query("fusion-table", ("fusion-table", gr.path), partial(oracles.check_fusion_table, g=gr.g)))
    rng.shuffle(out)
    return out


def burau_query(gr: Graph, word) -> Query:
    argv = ("burau", gr.path, word_text(word), "--q-eval", "-1")
    return Query("burau", argv, partial(oracles.check_burau, g=gr.g, word=word))


# ----------------------------------------------------------------- set-up

WORKLOADS = ("corpus-twists", "label-chain", "lattice-geometry")


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def setup(workload: str, seed: int, workdir: str) -> list[list[Query]]:
    """Write the graph files, build each graph once and generate the rounds.

    Building a graph runs parse_graph -> coxeter_fusion_ring -> unfold ->
    build_zigzag, which fills the ring cache that `cli.run` calls share.
    """
    if workload == "corpus-twists":
        sources = dict(CORPUS)
    elif workload == "label-chain":
        sources = dict(LABEL_CHAIN)
    elif workload == "lattice-geometry":
        sources = {**CORPUS, **EXTRA_GEOMETRY}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    graphs = {}
    for name, text in sources.items():
        graphs[name] = Graph(name, _write(workdir, name, text), parse_graph(text))
    if workload == "lattice-geometry":
        for name in UNFOLDED:
            res = cli.run(["unfold", graphs[name].path])
            if res.exit_code != 0:
                raise RuntimeError(f"unfold {name} failed with exit code {res.exit_code}")
            graphs["u_" + name] = Graph("u_" + name, _write(workdir, "u_" + name, res.stdout), parse_graph(res.stdout))
    for gr in graphs.values():
        with open(gr.path, encoding="utf-8") as fh:
            build_zigzag(unfold(parse_graph(fh.read())))
    rng = random.Random(f"{workload}/{seed}")
    rounds = []
    for r in range(ROUNDS):
        if workload == "corpus-twists":
            rounds.append(corpus_round(rng, graphs, r))
        elif workload == "label-chain":
            rounds.append(label_chain_round(rng, graphs, r))
        else:
            rounds.append(lattice_round(rng, graphs, r, workdir))
    return rounds
