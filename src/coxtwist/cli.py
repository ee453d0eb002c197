"""Command-line surface binding the graph, algebra, and geometry layers.

Every command reads a Coxeter graph JSON file and writes a deterministic
report to stdout: identical inputs give byte-identical output.  Exit
codes are 0 for success or an affirmative answer, 1 for usage and input
errors, 2 for computation failures (inconclusive verdicts, exhausted
step budgets, charges outside the tractable region), and 3 for a
negative decision.  Input errors include a file that is not UTF-8, JSON
nested too deep to parse, and a charge value that is not finite.

The word-problem commands (word-eq, is-identity, shift-type,
check-relations) decide equality in the group generated by the
spherical twists acting on complexes of graded projectives; answers are
statements about that twist group.  Each word is first tested against
its folded Burau matrix, on the parsed graph and its ring, before the
graph is unfolded: a word whose matrix is not the identity (or not one
uniform +-q^b shift) is answered "no" at once, and builds no zigzag
algebra and no complex.  The matrix only ever rejects, since the Burau
representation is not faithful in general; a word it passes is decided
by the twists.

Structured outputs are JSON with a fixed key order and floats rounded
to 15 significant digits.  The environment variable COXTWIST_MAX_ITER
overrides the step budget of the geometry commands.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .coxgraph import INF, CoxeterGraph, GraphError, parse_graph
from .fusion import FusionElement, FusionRing, coxeter_fusion_ring
from .geometry import CentralCharge, in_regular_set, in_tits_interior, locate_chamber
from .homotopy import (
    apply_braid_word,
    burau_shift,
    is_identity_word,
    projective_complex,
    quotient_word,
    recognize_shift,
)
from .lattice import burau_word, coxeter_word_equal, root_walk, specialize_q
from .unfolding import UnfoldedGraph, unfold
from .zigzag import ZigzagAlgebra, build_zigzag, path_label

_TWIST_NOTE = (
    "Equality is decided in the group generated by the spherical twists "
    "acting on complexes of projectives."
)


@dataclass(frozen=True)
class CommandResult:
    """Exit code plus the full stdout payload of one invocation."""

    exit_code: int
    stdout: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; remap onto exit code 1
    def error(self, message):
        raise _UsageError(message)


_DECISION_EXIT = {"yes": 0, "no": 3, "inconclusive": 2}


# ---------------------------------------------------------------- loading


def _load_graph(path: str) -> CoxeterGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_graph(fh.read())
        except (UnicodeDecodeError, RecursionError) as exc:
            raise GraphError(f"unreadable graph file: {exc}") from None


def _parse_word(text: str, inverses: bool = True) -> tuple:
    """Split a whitespace word into letters; only the ^-1 suffix is allowed."""
    letters: list = []
    for tok in text.split():
        if tok.endswith("^-1"):
            name = tok[:-3]
            if not inverses:
                raise _UsageError(f"inverse letter {tok!r} in a Coxeter word")
            if not name or "^" in name:
                raise _UsageError(f"bad word letter {tok!r}")
            letters.append((name, -1))
        elif "^" in tok:
            raise _UsageError(f"bad word letter {tok!r} (only a ^-1 suffix is allowed)")
        else:
            letters.append(tok)
    return tuple(letters)


def _load_charges(path: str, g: CoxeterGraph) -> tuple[complex, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad JSON, bad UTF-8 and over-long integers are ValueErrors
            raise _UsageError(f"invalid charge JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _UsageError("charge file must map vertex names to [re, im] pairs")
    extra = sorted(set(doc) - set(g.vertices))
    if extra:
        raise _UsageError("charge file names unknown vertices: " + ", ".join(extra))
    missing = [v for v in g.vertices if v not in doc]
    if missing:
        raise _UsageError("charge file is missing vertices: " + ", ".join(missing))
    values = []
    for v in g.vertices:
        pair = doc[v]
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair
            )
        )
        if not ok:
            raise _UsageError(f"charge for {v!r} must be a [re, im] pair")
        # NaN fails the comparison; ints compare exactly, without overflow
        if not all(abs(x) <= sys.float_info.max for x in pair):
            raise _UsageError(f"charge for {v!r} must be finite")
        values.append(complex(pair[0], pair[1]))
    return tuple(values)


def _depth(text: str) -> int:
    """The --depth argument: a layer count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _env_max_iter():
    raw = os.environ.get("COXTWIST_MAX_ITER")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(
            f"COXTWIST_MAX_ITER must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise _UsageError("COXTWIST_MAX_ITER must be nonnegative")
    return value


# ------------------------------------------------------------- formatting


def _f15(x: float) -> float:
    # 15 significant digits, with -0.0 folded into 0.0
    return float(f"{x:.15g}") + 0.0


def _fmt_element(ring: FusionRing, elt: FusionElement) -> str:
    nonzero = ((k, c) for k, c in enumerate(elt.coefficients) if c)
    return _fmt_combo(nonzero, ring.basis.__getitem__)


def _fmt_laurent_entry(ring: FusionRing, entry) -> str:
    if not entry:
        return "0"
    chunks = []
    for exp, elt in entry:
        qs = "" if exp == 0 else "q" if exp == 1 else f"q^{exp}"
        body = _fmt_element(ring, elt)
        if not qs:
            chunks.append(body)
        elif " + " in body:
            chunks.append(f"{qs}*({body})")
        elif body.startswith("-"):
            chunks.append(f"-{qs}*{body[1:]}")
        else:
            chunks.append(f"{qs}*{body}")
    return " + ".join(chunks)


def _fmt_combo(combo, label) -> str:
    """The (b, coefficient) pairs as text, with label(b) naming b, a
    basis path or a simple of the ring."""
    parts = []
    for b, co in combo:
        lab = label(b)
        if co == 1:
            parts.append(lab)
        elif co == -1:
            parts.append("-" + lab)
        else:
            parts.append(f"{co}*{lab}")
    return " + ".join(parts) if parts else "0"


def _vertex_name(A: ZigzagAlgebra, v: int) -> str:
    base, lab = A.quiver.vertices[v]
    return base if A.quiver.ring.rank == 1 else f"({base},{lab})"


# ----------------------------------------------------------- act grammar

_DEG_LINE = re.compile(r"^deg (-?\d+): (.*)$")
_SUMMAND = re.compile(r"^P\[(.+)\]<(-?\d+)>$")
_DIFF_LINE = re.compile(r"^d\[(-?\d+)\]\[(\d+)->(\d+)\] = (.*)$")
# a coefficient prefix "c*"; labels such as (s,Pi0*Pi0) contain "*" too
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def read_act_output(text: str) -> dict:
    """Parse `act` output back into summand and differential tables.

    Returns {"terms": {deg: [(vertex name, internal shift), ...]},
    "diffs": {deg: {(row, col): [(coefficient, path label), ...]}}}.
    """
    terms: dict = {}
    diffs: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "empty":
            continue
        m = _DEG_LINE.match(line)
        if m:
            summands = []
            for part in m.group(2).split(" + "):
                sm = _SUMMAND.match(part)
                if sm is None:
                    raise ValueError(f"bad summand {part!r}")
                summands.append((sm.group(1), int(sm.group(2))))
            terms[int(m.group(1))] = summands
            continue
        m = _DIFF_LINE.match(line)
        if m is None:
            raise ValueError(f"unrecognized line {line!r}")
        entry = []
        for part in m.group(4).split(" + "):
            co, star, lab = part.partition("*")
            if star and _RATIONAL.fullmatch(co):
                entry.append((Fraction(co), lab))
            elif part.startswith("-"):
                entry.append((Fraction(-1), part[1:]))
            else:
                entry.append((Fraction(1), part))
        i, r, c = int(m.group(1)), int(m.group(2)), int(m.group(3))
        diffs.setdefault(i, {})[(r, c)] = entry
    return {"terms": terms, "diffs": diffs}


# --------------------------------------------------------------- commands


def _cmd_fusion_table(args, out) -> int:
    g = _load_graph(args.graph)
    ring = coxeter_fusion_ring(g)
    print(f"rank: {ring.rank}", file=out)
    print("simples: " + " ".join(ring.basis), file=out)
    for lab, d in zip(ring.basis, ring.fpdim):
        print(f"fpdim {lab}: {d:.15g}", file=out)
    for j, a in enumerate(ring.basis):
        for b, coefficients in zip(ring.basis, ring.plane(j)):
            prod = _fmt_element(ring, FusionElement(coefficients))
            print(f"{a} * {b} = {prod}", file=out)
    return 0


def _cmd_unfold(args, out) -> int:
    g = _load_graph(args.graph)
    u = unfold(g)
    doc = u.as_coxeter_graph().to_json_dict()
    if args.emit_folding:
        doc["folding"] = {u.names[k]: u.fold(k) for k in range(len(u.vertices))}
    print(json.dumps(doc, indent=2), file=out)
    return 0


def _cmd_zigzag_info(args, out) -> int:
    g = _load_graph(args.graph)
    u = unfold(g)
    A = build_zigzag(u)
    print(f"vertices: {len(u.vertices)}", file=out)
    print(f"dimension: {A.dim}", file=out)
    labels = [path_label(A, k) for k in range(A.dim)]
    print("basis:", file=out)
    for k, lab in enumerate(labels):
        print(f"[{k}] {lab} (deg {A.degree(k)})", file=out)
    print("products (zeros omitted):", file=out)
    # the table holds exactly the nonzero products, each one path
    for i, row in enumerate(A.products):
        for j in sorted(row):
            print(f"{labels[i]} * {labels[j]} = {labels[row[j]]}", file=out)
    return 0


def _cmd_burau(args, out) -> int:
    g = _load_graph(args.graph)
    ring = coxeter_fusion_ring(g)
    mat = burau_word(g, ring, _parse_word(args.word))
    if args.q_eval is not None:
        try:
            value = Fraction(args.q_eval)
        except (ValueError, ZeroDivisionError):
            raise _UsageError(
                f"--q-eval needs a rational number, got {args.q_eval!r}"
            ) from None
        rows = specialize_q(mat, value)
        print(f"size: {len(rows)}", file=out)
        for r, row in enumerate(rows):
            print(f"row {r}: " + " ".join(str(v) for v in row), file=out)
        return 0
    print(f"size: {mat.size}", file=out)
    for r in range(mat.size):
        for c in range(mat.size):
            print(f"[{r},{c}] = {_fmt_laurent_entry(ring, mat.entries[r][c])}", file=out)
    return 0


def _cmd_roots(args, out) -> int:
    g = _load_graph(args.graph)
    roots, truncated = [], "no"
    # the walk is read up to its first root past the depth, if any
    for layer, root in root_walk(g, coxeter_fusion_ring(g)):
        if layer > args.depth:
            truncated = "yes"
            break
        roots.append(root.coefficients)
    print(f"depth: {args.depth}", file=out)
    print(f"count: {len(roots)}", file=out)
    print(f"truncated: {truncated}", file=out)
    for coeffs in sorted(roots):
        print("root: " + " ".join(str(c) for c in coeffs), file=out)
    return 0


def _cmd_coxeter_eq(args, out) -> int:
    g = _load_graph(args.graph)
    w1 = _parse_word(args.first, inverses=False)
    w2 = _parse_word(args.second, inverses=False)
    same = coxeter_word_equal(g, w1, w2)
    print("equal" if same else "not equal", file=out)
    return 0 if same else 3


def _zigzag(g: CoxeterGraph) -> tuple[ZigzagAlgebra, UnfoldedGraph]:
    u = unfold(g)
    return build_zigzag(u), u


def _word_problem_setup(path: str):
    """The graph of a word problem, and a function that unfolds it and
    builds its zigzag algebra on the first call only.  The ring is built
    here, so that a ring over budget is refused before any word is read."""
    g = _load_graph(path)
    coxeter_fusion_ring(g)
    return g, functools.cache(lambda: _zigzag(g))


def _identity(g: CoxeterGraph, algebra, word) -> bool:
    """is_identity_word, with the algebra built only for a word that its
    folded Burau matrix passes."""
    return burau_shift(g, word) == (1, 0) and is_identity_word(*algebra(), word)


def _shift(g: CoxeterGraph, algebra, word, pure: bool):
    """recognize_shift, with the algebra built only for a word whose
    folded Burau matrix is one uniform +-q^b, with b = 0 in pure mode."""
    shift = burau_shift(g, word)
    if shift is None or (pure and shift[1] != 0):
        return None
    return recognize_shift(*algebra(), word, pure=pure)


def _cmd_word_eq(args, out) -> int:
    g, algebra = _word_problem_setup(args.graph)
    first, second = _parse_word(args.first), _parse_word(args.second)
    same = _identity(g, algebra, quotient_word(first, second))
    print("equal" if same else "not equal", file=out)
    return 0 if same else 3


def _cmd_is_identity(args, out) -> int:
    g, algebra = _word_problem_setup(args.graph)
    same = _identity(g, algebra, _parse_word(args.word))
    print("identity" if same else "not identity", file=out)
    return 0 if same else 3


def _cmd_shift_type(args, out) -> int:
    g, algebra = _word_problem_setup(args.graph)
    res = _shift(g, algebra, _parse_word(args.word), args.pure)
    if res is None:
        print("not a shift", file=out)
        return 3
    a, b = res
    print(f"shift: [{a}]<{b}>", file=out)
    return 0


def _resolve_on(u: UnfoldedGraph, target: str) -> int:
    if "," in target:
        return u.index(target)
    hits = [k for k, (base, _) in enumerate(u.vertices) if base == target]
    if not hits:
        raise GraphError(f"unknown vertex {target!r}")
    if len(hits) > 1:
        names = ", ".join(u.names[k] for k in hits)
        raise _UsageError(f"--on {target!r} is ambiguous; pick one of: {names}")
    return hits[0]


def _cmd_act(args, out) -> int:
    A, u = _zigzag(_load_graph(args.graph))
    letters = _parse_word(args.word)
    c = projective_complex(A, _resolve_on(u, args.on), args.shift, args.deg)
    result = apply_braid_word(A, u, letters, c)
    if not result.terms:
        print("empty", file=out)
        return 0
    for i in sorted(result.terms):
        summands = " + ".join(
            f"P[{_vertex_name(A, v)}]<{k}>" for v, k in result.terms[i]
        )
        print(f"deg {i}: {summands}", file=out)
    # each path that occurs is labelled once
    used = {
        b
        for mat in result.diffs.values()
        for row in mat
        for entry in row.values()
        for b, _ in entry
    }
    label = {b: path_label(A, b) for b in used}.__getitem__
    for i in sorted(result.diffs):
        for r, row in enumerate(result.diffs[i]):
            for c2 in sorted(row):
                print(f"d[{i}][{r}->{c2}] = {_fmt_combo(row[c2], label)}", file=out)
    return 0


def _geometry_graph(args):
    g = _load_graph(args.graph)
    if getattr(args, "full", False):
        g = unfold(g).as_coxeter_graph()
    return g, coxeter_fusion_ring(g)


def _cmd_chamber(args, out) -> int:
    g, ring = _geometry_graph(args)
    z = CentralCharge(_load_charges(args.charge, g), full=bool(args.full))
    rep = locate_chamber(g, ring, z, max_iter=_env_max_iter(), depth=args.depth)
    doc = {
        "status": rep.status,
        "phase": [_f15(rep.phase.real), _f15(rep.phase.imag)],
        "word": list(rep.word),
        "charge": {
            name: [_f15(v.real), _f15(v.imag)]
            for name, v in zip(g.vertices, rep.charge.values)
        },
    }
    print(json.dumps(doc, indent=2), file=out)
    return 0 if rep.status == "located" else 2


def _cmd_regular_check(args, out) -> int:
    g, ring = _geometry_graph(args)
    z = CentralCharge(_load_charges(args.charge, g), full=bool(args.full))
    res = in_regular_set(g, ring, z, depth=args.depth)
    print(json.dumps({"result": res}, indent=2), file=out)
    return _DECISION_EXIT[res]


def _cmd_tits_check(args, out) -> int:
    g, ring = _geometry_graph(args)
    values = _load_charges(args.charge, g)
    if any(v.imag != 0 for v in values):
        raise _UsageError("tits-check needs real charge values ([re, 0] pairs)")
    x = tuple(v.real for v in values)
    res = in_tits_interior(g, ring, x, depth=args.depth, max_iter=_env_max_iter())
    print(json.dumps({"result": res}, indent=2), file=out)
    return _DECISION_EXIT[res]


def _alternating(s: str, t: str, m: int) -> tuple:
    return tuple(s if k % 2 == 0 else t for k in range(m))


def _cmd_check_relations(args, out) -> int:
    g, algebra = _word_problem_setup(args.graph)

    def equal(first, second):
        return _identity(g, algebra, quotient_word(first, second))

    checks = []
    for i in range(g.rank):
        for j in range(i + 1, g.rank):
            s, t = g.vertices[i], g.vertices[j]
            m = g.label(i, j)
            if m == 2:
                checks.append((f"commute {s} {t}", equal((s, t), (t, s))))
            elif m == INF:
                checks.append((f"distinguish {s} {t} m=inf", not equal((s, t), (t, s))))
            else:
                ok = equal(_alternating(s, t, m), _alternating(t, s, m))
                checks.append((f"braid {s} {t} m={m}", ok))
    for s in g.vertices:
        ok = _identity(g, algebra, ((s, 1), (s, -1))) and _identity(
            g, algebra, ((s, -1), (s, 1))
        )
        checks.append((f"inverse {s}", ok))
    for desc, ok in checks:
        print(f"{desc}: {'pass' if ok else 'fail'}", file=out)
    return 0 if all(ok for _, ok in checks) else 3


# ----------------------------------------------------------------- driver


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="coxtwist",
        description="Coxeter-graph engine: fusion rings, zigzag algebras, "
        "spherical twists, Burau matrices, and central-charge chambers.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add(name, handler, text):
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("graph", help="path to a Coxeter graph JSON file")
        p.set_defaults(handler=handler)
        return p

    add("fusion-table", _cmd_fusion_table, "print the fusion ring of the graph")

    p = add("unfold", _cmd_unfold, "print the unfolded graph as JSON")
    p.add_argument(
        "--emit-folding",
        action="store_true",
        help="include the unfolded-to-base vertex map",
    )

    add(
        "zigzag-info",
        _cmd_zigzag_info,
        "print the zigzag algebra basis and its nonzero products",
    )

    p = add("burau", _cmd_burau, "print the Burau matrix of a braid word")
    p.add_argument("word", help='braid word as one argument, e.g. "s t s^-1"')
    p.add_argument(
        "--q-eval",
        metavar="VALUE",
        help="evaluate q at a rational number and print the lattice matrix",
    )

    p = add("roots", _cmd_roots, "enumerate positive roots layer by layer")
    p.add_argument("--depth", type=_depth, default=8, help="reflection-layer bound")

    p = add(
        "coxeter-eq",
        _cmd_coxeter_eq,
        "decide whether two positive words agree in the Coxeter group",
    )
    p.add_argument("first", help="first word")
    p.add_argument("second", help="second word, separated by --")

    p = add(
        "word-eq",
        _cmd_word_eq,
        "decide whether two braid words agree; " + _TWIST_NOTE,
    )
    p.add_argument("first", help="first braid word")
    p.add_argument("second", help="second braid word, separated by --")

    p = add(
        "is-identity",
        _cmd_is_identity,
        "decide whether a braid word acts trivially; " + _TWIST_NOTE,
    )
    p.add_argument("word", help="braid word as one argument")

    p = add(
        "shift-type",
        _cmd_shift_type,
        "report [a]<b> when the word acts as a shift; " + _TWIST_NOTE,
    )
    p.add_argument("word", help="braid word as one argument")
    p.add_argument(
        "--pure", action="store_true", help="only accept internal shift 0"
    )

    p = add("act", _cmd_act, "apply a braid word to a projective and print the complex")
    p.add_argument("word", help="braid word; the empty string is the identity")
    p.add_argument(
        "--on",
        required=True,
        metavar="VERTEX[,SIMPLE]",
        help="target projective; the bare vertex form needs a one-point fiber",
    )
    p.add_argument("--shift", type=int, default=0, help="internal shift of the start")
    p.add_argument("--deg", type=int, default=0, help="homological degree of the start")

    geom_note = (
        "  The step budget honors the COXTWIST_MAX_ITER environment variable."
    )

    p = add(
        "chamber",
        _cmd_chamber,
        "normalize a central charge and descend it to the fundamental chamber."
        + geom_note,
    )
    p.add_argument("--charge", required=True, help="JSON file: vertex -> [re, im]")
    p.add_argument("--full", action="store_true", help="charge lives on the unfolding")
    p.add_argument("--depth", type=_depth, default=8, help="root enumeration bound")

    p = add(
        "regular-check",
        _cmd_regular_check,
        "test whether a charge avoids all root hyperplanes up to the depth bound",
    )
    p.add_argument("--charge", required=True, help="JSON file: vertex -> [re, im]")
    p.add_argument("--full", action="store_true", help="charge lives on the unfolding")
    p.add_argument("--depth", type=_depth, default=8, help="root enumeration bound")

    p = add(
        "tits-check",
        _cmd_tits_check,
        "test whether a real functional lies in the Tits cone interior." + geom_note,
    )
    p.add_argument("--charge", required=True, help="JSON file: vertex -> [re, 0]")
    p.add_argument("--full", action="store_true", help="charge lives on the unfolding")
    p.add_argument("--depth", type=_depth, default=8, help="root enumeration bound")

    add(
        "check-relations",
        _cmd_check_relations,
        "run the braid/commutation/inverse property suite; " + _TWIST_NOTE,
    )

    return parser


def run(argv) -> CommandResult:
    """Dispatch one command line; never raises, never calls sys.exit."""
    buf = io.StringIO()
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(buf):
            args = parser.parse_args(list(argv))
            code = args.handler(args, buf)
    except SystemExit as exc:  # argparse --help
        return CommandResult(0 if exc.code in (0, None) else 1, buf.getvalue())
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run 'coxtwist --help' for usage", file=sys.stderr)
        return CommandResult(1, buf.getvalue())
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(1, buf.getvalue())
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(2, buf.getvalue())
    return CommandResult(code, buf.getvalue())


def main() -> None:
    result = run(sys.argv[1:])
    sys.stdout.write(result.stdout)
    raise SystemExit(result.exit_code)


if __name__ == "__main__":
    main()
