"""Benchmark runner: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload corpus-twists --seed 1 --trace 0

Run from the root of a coxtwist checkout; the program is imported from
its src/ directory.  Queries go through `coxtwist.cli.run` one at a
time, as a CLI user waiting for each answer would send them.  The run
measures whole rounds (see workloads.py) until the next round would end
past --seconds (by default BENCHMARK.json's run_seconds), and at least
MIN_QUERIES queries so that ten samples lie beyond p90.  Every answer is
checked by an oracle after its timed interval; a query that raises or
answers wrongly counts as failed.

On a shared 2-vCPU VM the host's speed swung by up to 1.8x over minutes
while CPU time kept pace with wall time, so the process cannot see the
contention.  A fixed pure-Python reference loop is therefore timed
between queries, at least every PROBE_GAP_S and right after each long
query, and each query's wall time is divided by the mean loop time of
the probes just before and just after it.  The timed end-to-end metrics
are in these units: query_p50_ref and query_p90_ref in reference loops
("ref"), throughput_per_kref in queries per thousand reference loops of
query time.  The raw wall-time figures are printed beside them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run (see tracing.py) and its five largest self
times.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")

MIN_QUERIES = 100
# no new round starts after this many seconds of wall time
HARD_LIMIT_S = 120.0
# fresh interpreters timed through set-up; setup_s is their median
SETUP_SAMPLES = 5
# the reference loop takes about 0.5 ms on a 2-vCPU Xeon VM
REFERENCE_ITERATIONS = 7000
PROBE_GAP_S = 0.2


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec()["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> float:
    """Import coxtwist.cli from the checkout's src/; return milliseconds."""
    if not os.path.isfile(os.path.join(SRC, "coxtwist", "cli.py")):
        raise SystemExit(f"error: no coxtwist sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import coxtwist.cli  # noqa: F401

    return 1000 * (time.perf_counter() - start)


def setup_child(args, import_ms: float) -> int:
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        workloads.setup(args.workload, args.seed, workdir)
        print(f"ready {import_ms:.6f}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setups(args) -> tuple[list[float], list[float]]:
    """Time set-up in fresh interpreters, from spawn to the first query."""
    setups, imports = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter()
                child.stdout.read()
            finally:
                child.wait(timeout=120)
        if child.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
        setups.append(ready - start)
        imports.append(float(line.split()[1]))
    return setups, imports


def reference_loop() -> int:
    """Fixed work whose time follows the host's speed at the moment."""
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Reference-loop times (median of three loops) and when they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def take(self) -> None:
        loops = []
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            loops.append(time.perf_counter() - start)
        self.at.append(time.perf_counter())
        self.took.append(statistics.median(loops))

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= PROBE_GAP_S

    def around(self, start: float, end: float) -> float:
        """Mean loop time of the last probe before `start` and the first after `end`."""
        before = bisect.bisect_right(self.at, start) - 1
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return (self.took[before] + self.took[after]) / 2


@dataclass
class Run:
    latencies: list[float] = field(default_factory=list)
    # each latency over the reference-loop time around it
    relative: list[float] = field(default_factory=list)
    measured: float = 0.0
    failures: Counter = field(default_factory=Counter)
    word_problems: int = 0
    probe: SpeedProbe = field(default_factory=SpeedProbe)


def run_queries(rounds, seconds: float, tracer=None) -> Run:
    """The closed loop: whole rounds until the time is up."""
    from coxtwist import cli

    out = Run()
    latencies, failures, probe = out.latencies, out.failures, out.probe
    intervals: list[tuple[float, float]] = []
    wall_start = time.perf_counter()
    r = 0
    while True:
        round_s = 0.0
        for q in rounds[r % len(rounds)]:
            if probe.due():
                probe.take()
            if tracer is not None:
                tracer.query = len(latencies) + 1
                tracer.word_problem = q.word_problem
            start = time.perf_counter()
            try:
                res = cli.run(list(q.argv))
                err = None
            except Exception as exc:  # a raising query is a failure, not a crash
                traceback.print_exc(file=sys.stderr)
                err = f"raised {type(exc).__name__}"
            dt = time.perf_counter() - start
            if tracer is not None:
                tracer.query = None
            if dt >= PROBE_GAP_S:
                probe.take()
            latencies.append(dt)
            intervals.append((start, start + dt))
            round_s += dt
            out.word_problems += q.word_problem
            if err is None:
                try:
                    err = q.check(res)
                except Exception as exc:
                    err = f"unreadable answer ({type(exc).__name__})"
            if err is not None:
                failures[f"{q.kind}: {err}"] += 1
                print(f"failed: {' '.join(q.argv[:1] + q.argv[2:])}: {err}", file=sys.stderr)
        out.measured += round_s
        r += 1
        if len(latencies) >= MIN_QUERIES and out.measured + round_s > seconds:
            break
        if time.perf_counter() - wall_start > HARD_LIMIT_S:
            break
    probe.take()
    out.relative = [dt / probe.around(*span) for dt, span in zip(latencies, intervals)]
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_ms = import_program()
    if args.setup_child:
        return setup_child(args, import_ms)

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; pick one of {workloads.WORKLOADS}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
            tracer.query = 0
        rounds = workloads.setup(args.workload, args.seed, workdir)
        if tracer is not None:
            tracer.query = None
        setups, imports = measure_setups(args)
        run = run_queries(rounds, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    n = len(run.latencies)
    failed = sum(run.failures.values())
    for reason, count in sorted(run.failures.items()):
        print(f"failures: {count} x {reason}")
    throughput = n / run.measured
    if tracer is None:
        values = {
            "query_p50_ref": statistics.median(run.relative),
            "query_p90_ref": statistics.quantiles(run.relative, n=10)[8],
            "throughput_per_kref": 1000 * n / sum(run.relative),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "correct_frac": (n - failed) / n,
        }
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec()["end_to_end"]}
        # the raw wall-time figures, which follow the host's speed
        raw = [
            ("query_p50_ms", 1000 * statistics.median(run.latencies), "ms", n),
            ("query_p90_ms", 1000 * statistics.quantiles(run.latencies, n=10)[8], "ms", n),
            ("throughput_qps", throughput, "1/s", n),
            ("reference_loop_ms", 1000 * statistics.median(run.probe.took), "ms", len(run.probe.took)),
            ("failed_frac", failed / n, "1", n),
        ]
        samples = {"setup_s": len(setups), "peak_rss_mb": 1}
        printed = [(k, m["value"], m["unit"], samples.get(k, n)) for k, m in metrics.items()] + raw
        for name, value, unit, count in printed:
            print(f"{args.workload} {name} = {value:.6g} {unit} (samples: {count})")
    else:
        values = tracer.layer_metrics(n, run.word_problems)
        values["cli.import_ms"] = statistics.median(imports)
        values["trace.throughput_qps"] = throughput
        values["trace.throughput_per_kref"] = 1000 * n / sum(run.relative)
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec()["per_layer"]}
        print(f"{args.workload}: top five self times over {n} traced queries")
        for name, total_ms, share in tracer.top_self():
            print(f"  {name:<40} {total_ms / n:10.3f} ms/query  {100 * share:5.1f}%")
        print(f"  tracer overhead, kept out of the above: {values['trace.overhead_ms']:.3f} ms/query")
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write(spans)
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
