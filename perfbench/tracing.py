"""Span tracing of the coxtwist modules, patched in from outside.

`Tracer.install` replaces each public function named in TARGETS by a
wrapper, in every coxtwist module that holds a reference to it (cli
imports build_zigzag from zigzag, homotopy imports multiply_combo, and
so on), and `Tracer.uninstall` puts the originals back.  Nothing under
src/ changes.

A span records its name, start, end, parent span and query id; query 0
is the set-up.  Spans stay in memory in flat arrays and are written out
when the run ends.  The two leaf functions called millions of times
(`zigzag.multiply_combo`, `fusion.multiply`) get no span of their own:
each parent span keeps a count and total time per leaf name.  Self time
is a span's duration minus its child spans and leaf time.

The tracer's own work is kept out of every self time.  A span wrapper
times its bookkeeping and return-value hook and charges its whole
interval to the parent as child time.  The cost of entering a wrapper
before its first clock read, and of a leaf wrapper around its timed
call, is calibrated at install on an empty function and charged the
same way per call.  All of it goes to a separate overhead bucket
(`trace.overhead_ms`).

Per-layer metrics (`layer_metrics`) are per traced query unless the
name says otherwise: `.calls` and `.ms` are calls and inclusive time per
query, `.self_ms` is self time per query, and the counts taken from
return values are means per call (`zigzag.dim`, `make_complex.summands`,
`eliminate.summands_in`/`_out`, `burau_word.letters`,
`geometry.descent_steps`), shares (`twist.noop_ratio`,
`identity_sweep_share`, `ring_cache_hit_ratio`) or maxima
(`max_summands`).  `fusion.coxeter_fusion_ring.ms` is the time of one
ring build (a cache miss), set-up included, and
`fusion.ring_cache_hit_ratio` counts the ring lookups made inside traced
queries only.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from array import array

# (module.function, kind); kind "leaf" aggregates per parent span
TARGETS = (
    ("cli.run", "span"),
    ("coxgraph.parse_graph", "span"),
    ("coxgraph.is_finite_type", "span"),
    ("fusion.coxeter_fusion_ring", "span"),
    ("fusion.multiply", "leaf"),
    ("unfolding.unfold", "span"),
    ("zigzag.build_zigzag", "span"),
    ("zigzag.multiply_combo", "leaf"),
    ("homotopy.is_identity_word", "span"),
    ("homotopy.projective_complex", "span"),
    ("homotopy.twist", "span"),
    ("homotopy.dual_twist", "span"),
    ("homotopy.make_complex", "span"),
    ("homotopy.gaussian_eliminate", "span"),
    ("lattice.burau_word", "span"),
    ("lattice.specialize_q", "span"),
    ("lattice.root_layers", "span"),
    ("geometry.locate_chamber", "span"),
    ("geometry.imaginary_cone_samples", "span"),
    ("geometry.in_regular_set", "span"),
    ("geometry.in_tits_interior", "span"),
)


def _summands(c) -> int:
    return sum(len(ss) for ss in c.terms.values())


class _Frame:
    __slots__ = ("index", "start", "child", "leaves")

    def __init__(self, index, start):
        self.index = index
        self.start = start
        self.child = 0.0
        self.leaves = {}


class Tracer:
    """Collects spans while `query` is set; `query` None means off."""

    def __init__(self):
        self.query: int | None = None
        # set by run.py while a word-problem query runs
        self.word_problem = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.leaf_rows: list[tuple[int, str, int, float]] = []
        self._stack: list[_Frame] = []
        # name -> [calls, inclusive seconds, self seconds], traced queries only
        self.stats: dict[str, list] = {}
        # counters taken from return values, traced queries only
        self.counts: dict[str, float] = {}
        self.ring_builds: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self._ring = None
        self._ring_misses = 0
        self.ring_lookups = 0
        self.ring_lookup_misses = 0
        # tracer seconds kept out of the self times, traced queries only
        self.overhead = 0.0
        # calibrated per-call cost of a span and a leaf wrapper
        self.span_cost = 0.0
        self.leaf_cost = 0.0

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        self.span_cost, self.leaf_cost = _calibrate()
        mods = {n: m for n, m in sys.modules.items() if n.startswith("coxtwist")}
        for qualname, kind in TARGETS:
            modname, attr = qualname.rsplit(".", 1)
            orig = getattr(mods["coxtwist." + modname], attr)
            if qualname == "fusion.coxeter_fusion_ring":
                self._ring = orig
                self._ring_misses = orig.cache_info().misses
            wrapper = self._leaf(qualname, orig) if kind == "leaf" else self._span(qualname, orig)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    # ------------------------------------------------------------- wrappers

    def _span(self, name: str, fn):
        tracer = self
        name_id = self._intern(name)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.query is None:
                return fn(*args, **kwargs)
            entry = clock()
            stack = tracer._stack
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1].index if stack else -1)
            tracer.span_query.append(tracer.query)
            tracer.span_end.append(0.0)
            frame = _Frame(index, clock())
            tracer.span_start.append(frame.start)
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                tracer._close(name, frame, end)
                if ok and hook is not None:
                    hook(args, result, end - frame.start)
                tracer._leave(entry, frame.start, end, stack)

        return wrapper

    def _leaf(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            stack = tracer._stack
            if tracer.query is None or not stack:
                return fn(*args)
            start = clock()
            result = fn(*args)
            dt = clock() - start
            frame = stack[-1]
            frame.child += dt + tracer.leaf_cost
            agg = frame.leaves.get(name)
            if agg is None:
                frame.leaves[name] = [1, dt]
            else:
                agg[0] += 1
                agg[1] += dt
            return result

        return wrapper

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _close(self, name, frame, end) -> None:
        self.span_end[frame.index] = end
        dur = end - frame.start
        # query 0 is the set-up, which the per-query statistics leave out
        if self.query:
            self._add(name, 1, dur, dur - frame.child)
        for leaf, (count, total) in frame.leaves.items():
            self.leaf_rows.append((frame.index, leaf, count, total))
            if self.query:
                self._add(leaf, count, total, total)
                self.overhead += count * self.leaf_cost

    def _leave(self, entry, start, end, stack) -> None:
        """Charge a span's whole interval, tracer work included, to its parent."""
        done = time.perf_counter()
        if stack:
            stack[-1].child += done - entry + self.span_cost
        if self.query:
            self.overhead += (start - entry) + (done - end) + self.span_cost

    def _add(self, name, calls, total, own) -> None:
        row = self.stats.get(name)
        if row is None:
            self.stats[name] = [calls, total, own]
        else:
            row[0] += calls
            row[1] += total
            row[2] += own

    def _count(self, name: str, value: float) -> None:
        if self.query:
            self.counts[name] = self.counts.get(name, 0) + value

    # ---------------------------------------- counts from return values

    def _on_cli_run(self, args, result, dur):
        self._count("cli.stdout_bytes", len(result.stdout.encode()))

    def _on_fusion_coxeter_fusion_ring(self, args, result, dur):
        misses = self._ring.cache_info().misses
        if misses > self._ring_misses:
            self.ring_builds.append(dur)
        if self.query:
            self.ring_lookups += 1
            self.ring_lookup_misses += misses - self._ring_misses
        self._ring_misses = misses

    def _on_zigzag_build_zigzag(self, args, result, dur):
        self._count("zigzag.dim", result.dim)

    def _on_homotopy_twist(self, args, result, dur):
        self._count("homotopy.twist.noop", result == args[2])

    _on_homotopy_dual_twist = _on_homotopy_twist

    def _on_homotopy_make_complex(self, args, result, dur):
        n = _summands(result)
        self._count("homotopy.make_complex.summands", n)
        if self.query and n > self.counts.get("homotopy.max_summands", 0):
            self.counts["homotopy.max_summands"] = n

    def _on_homotopy_gaussian_eliminate(self, args, result, dur):
        self._count("homotopy.eliminate.summands_in", _summands(args[1]))
        self._count("homotopy.eliminate.summands_out", _summands(result))

    def _on_homotopy_projective_complex(self, args, result, dur):
        if self.word_problem:
            self._count("homotopy.start_projectives", 1)

    def _on_homotopy_is_identity_word(self, args, result, dur):
        self._count("homotopy.identity_sweeps", bool(result))

    def _on_lattice_burau_word(self, args, result, dur):
        self._count("lattice.burau_word.letters", len(tuple(args[2])))

    def _on_geometry_locate_chamber(self, args, result, dur):
        self._count("geometry.descent_steps", len(result.word))

    # -------------------------------------------------------------- results

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def layer_metrics(self, queries: int, word_problems: int) -> dict:
        """Per-layer metrics of the traced queries; see the module docstring."""

        def calls(name):
            return self.calls(name) / queries

        def ms(name, col=1):
            return 1000 * self.stats.get(name, (0, 0.0, 0.0))[col] / queries

        def mean(counter, name):
            n = self.calls(name)
            return self.counts.get(counter, 0) / n if n else 0.0

        twists = self.calls("homotopy.twist") + self.calls("homotopy.dual_twist")
        return {
            "cli.run.self_ms": ms("cli.run", 2),
            "cli.stdout_bytes": self.counts.get("cli.stdout_bytes", 0) / queries,
            "coxgraph.parse_graph.ms": ms("coxgraph.parse_graph"),
            "coxgraph.is_finite_type.calls": calls("coxgraph.is_finite_type"),
            "coxgraph.is_finite_type.ms": ms("coxgraph.is_finite_type"),
            "fusion.coxeter_fusion_ring.ms": (
                1000 * sum(self.ring_builds) / len(self.ring_builds) if self.ring_builds else 0.0
            ),
            "fusion.ring_cache_hit_ratio": (
                1 - self.ring_lookup_misses / self.ring_lookups if self.ring_lookups else 1.0
            ),
            "fusion.multiply.calls": calls("fusion.multiply"),
            "fusion.multiply.ms": ms("fusion.multiply"),
            "unfolding.unfold.calls": calls("unfolding.unfold"),
            "unfolding.unfold.ms": ms("unfolding.unfold"),
            "zigzag.build_zigzag.calls": calls("zigzag.build_zigzag"),
            "zigzag.build_zigzag.ms": ms("zigzag.build_zigzag"),
            "zigzag.dim": mean("zigzag.dim", "zigzag.build_zigzag"),
            "zigzag.multiply_combo.calls": calls("zigzag.multiply_combo"),
            "zigzag.multiply_combo.ms": ms("zigzag.multiply_combo"),
            "homotopy.twist.calls": calls("homotopy.twist"),
            "homotopy.dual_twist.calls": calls("homotopy.dual_twist"),
            "homotopy.twist.self_ms": ms("homotopy.twist", 2) + ms("homotopy.dual_twist", 2),
            "homotopy.twist.noop_ratio": (
                self.counts.get("homotopy.twist.noop", 0) / twists if twists else 0.0
            ),
            "homotopy.make_complex.calls": calls("homotopy.make_complex"),
            "homotopy.make_complex.self_ms": ms("homotopy.make_complex", 2),
            "homotopy.make_complex.summands": mean(
                "homotopy.make_complex.summands", "homotopy.make_complex"
            ),
            "homotopy.gaussian_eliminate.self_ms": ms("homotopy.gaussian_eliminate", 2),
            "homotopy.eliminate.summands_in": mean(
                "homotopy.eliminate.summands_in", "homotopy.gaussian_eliminate"
            ),
            "homotopy.eliminate.summands_out": mean(
                "homotopy.eliminate.summands_out", "homotopy.gaussian_eliminate"
            ),
            "homotopy.max_summands": self.counts.get("homotopy.max_summands", 0),
            "homotopy.start_projectives": (
                self.counts.get("homotopy.start_projectives", 0) / word_problems
                if word_problems
                else 0.0
            ),
            "homotopy.identity_sweep_share": self.counts.get("homotopy.identity_sweeps", 0) / queries,
            "lattice.burau_word.ms": ms("lattice.burau_word"),
            "lattice.burau_word.letters": mean("lattice.burau_word.letters", "lattice.burau_word"),
            "lattice.specialize_q.ms": ms("lattice.specialize_q"),
            "lattice.root_layers.calls": calls("lattice.root_layers"),
            "lattice.root_layers.ms": ms("lattice.root_layers"),
            "geometry.locate_chamber.ms": ms("geometry.locate_chamber"),
            "geometry.descent_steps": mean("geometry.descent_steps", "geometry.locate_chamber"),
            "geometry.imaginary_cone_samples.ms": ms("geometry.imaginary_cone_samples"),
            "geometry.in_regular_set.ms": ms("geometry.in_regular_set"),
            "geometry.in_tits_interior.ms": ms("geometry.in_tits_interior"),
            "trace.overhead_ms": 1000 * self.overhead / queries,
        }

    def top_self(self, k: int = 5) -> list[tuple[str, float, float]]:
        """The k largest self times: (name, total ms, share of traced query time)."""
        total = self.stats.get("cli.run", (0, 0.0, 0.0))[1] or 1.0
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])[:k]
        return [(name, 1000 * row[2], row[2] / total) for name, row in rows]

    def write(self, path: str) -> None:
        """Spans and leaf aggregates as gzipped CSV; times in microseconds
        from the first span, span index = row number among the spans."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# names: " + " ".join(self.names) + "\n")
            fh.write("# span,query,parent,name,start_us,duration_us\n")
            for i in range(len(self.span_start)):
                start = self.span_start[i]
                fh.write(
                    f"s,{self.span_query[i]},{self.span_parent[i]},{self.span_name[i]},"
                    f"{round(1e6 * (start - t0))},{round(1e6 * (self.span_end[i] - start))}\n"
                )
            fh.write("# leaf,query,parent,leaf name,calls,total_us\n")
            for parent, leaf, count, total in self.leaf_rows:
                fh.write(f"l,{self.span_query[parent]},{parent},{leaf},{count},{round(1e6 * total)}\n")


def _calibrate(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Per-call seconds that a span and a leaf wrapper add to their parent's
    self time outside what they measure, on an empty function; the median
    of `repeats` timings of `calls` calls each."""

    def empty(*args):
        return None

    probe = Tracer()
    probe.query = 1
    clock = time.perf_counter
    costs = {"span": [], "leaf": []}
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            empty(1)
        bare = clock() - start
        for kind, wrapped in (("span", probe._span("span", empty)), ("leaf", probe._leaf("leaf", empty))):
            parent = _Frame(-1, 0.0)
            probe._stack = [parent]
            start = clock()
            for _ in range(calls):
                wrapped(1)
            elapsed = clock() - start
            costs[kind].append((elapsed - parent.child - bare) / calls)
    return tuple(max(0.0, statistics.median(costs[k])) for k in ("span", "leaf"))
