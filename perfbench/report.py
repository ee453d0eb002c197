"""Run every workload and print one baseline summary.

    python3 perfbench/report.py --seeds 1 2

For each workload this runs run.py untraced on each seed and traced on
the first.  It prints every figure an untraced run prints (the
end-to-end metrics, then the raw wall-time figures and failed_frac) by
name with units and sample counts, and their spread between the seeds
(|a - b| / mean of two); then the tracing overhead (the drop in
throughput, raw and in reference units, from the untraced to the traced
run of the first seed),
the five largest self times of the traced run beside the tracer's own
time, and whether the expected hot spot leads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_METRIC = re.compile(r"^\S+ (\S+) = (\S+) (\S+) \(samples: (\d+)\)$")
_SELF = re.compile(r"^  (\S+)\s+([\d.]+) ms/query\s+([\d.]+)%$")


def run(workload: str, seed: int, trace: int) -> dict:
    # run.py measures BENCHMARK.json's run_seconds by default
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    # "name = value unit (samples: n)" lines and the top-five self times
    out = {"result": json.loads(lines[-1]), "printed": {}, "top": []}
    for line in lines[:-1]:
        m = _METRIC.match(line)
        if m:
            out["printed"][m[1]] = (float(m[2]), m[3], int(m[4]))
        m = _SELF.match(line)
        if m:
            out["top"].append((m[1], float(m[2]), float(m[3])))
    return out


def hot_spot(workload: str, traced: dict) -> tuple[str, bool]:
    top = traced["top"][0][0] if traced["top"] else None
    layer = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    if workload == "corpus-twists":
        return "homotopy.make_complex self time leads", top == "homotopy.make_complex"
    if workload == "label-chain":
        twist = layer["homotopy.twist.self_ms"]
        others = (layer["homotopy.make_complex.self_ms"], layer["homotopy.gaussian_eliminate.self_ms"])
        return "homotopy.twist self time leads the homotopy spans", all(twist > o for o in others)
    return "lattice.burau_word leads", top == "lattice.burau_word"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    a, b = args.seeds
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, 0) for seed in (a, b)]
        traced = run(workload, a, 1)
        print(f"== {workload} (closed loop, one client, {spec['run_seconds']} s per run)")
        print(f"   {'metric':<20} {'unit':<6} {'seed ' + str(a):>12} {'seed ' + str(b):>12} {'spread':>8}  samples")
        for name, (va, unit, na) in runs[0]["printed"].items():
            vb, _, nb = runs[1]["printed"][name]
            mean = (va + vb) / 2
            spread = f"{100 * abs(va - vb) / mean:7.1f}%" if mean else ""
            print(f"   {name:<20} {unit:<6} {va:12.6g} {vb:12.6g} {spread:>8}  {na}/{nb}")
        for name, traced_name in (("throughput_qps", "trace.throughput_qps"),
                                  ("throughput_per_kref", "trace.throughput_per_kref")):
            plain, unit, _ = runs[0]["printed"][name]
            slow = traced["result"]["metrics"][traced_name]["value"]
            print(f"   tracing overhead: {name} {plain:.4g} -> {slow:.4g} {unit} "
                  f"({100 * (plain - slow) / plain:.1f}% lower when traced)")
        print(f"   top five self times, traced seed {a}:")
        for name, ms, share in traced["top"]:
            print(f"     {name:<36} {ms:10.3f} ms/query {share:6.1f}%")
        overhead = traced["result"]["metrics"]["trace.overhead_ms"]["value"]
        print(f"     {'(tracer overhead, not in the above)':<36} {overhead:10.3f} ms/query")
        text, ok = hot_spot(workload, traced)
        print(f"   hot spot: {text}: {'yes' if ok else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
