"""Print the end-to-end metrics and fail_ratio of every workload.

    python3 perfbench/report.py [--seed N] [--trace]

Runs perfbench/run.py once per workload (scalar-k6 too, which
BENCHMARK.json does not list), for BENCHMARK.json's run_seconds,
and prints one row per metric with its unit, then fail_ratio = failed /
attempted operations with its base.  fail_ratio is not among
BENCHMARK.json's end-to-end metrics: it is 0 at a healthy commit, and a
regression bound relative to 0 is undefined; the benchmark's `failed` and
`attempted` fields carry it.  With --trace the run is traced; its
per-layer metrics, the largest layers, the root's unattributed share
(cli.main.self_s of cli.main.s) and each call that takes at least 1% of the
traced run follow.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_workload(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: benchmark exited {proc.returncode}")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return record, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    for workload in WORKLOADS:
        record, result = run_workload(workload, args.seed, args.trace)
        for name, m in record["end_to_end"].items():
            print(f"{workload:12s} {name:40s} {m['value']:>14.6g} {m['unit']}")
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload:12s} {'fail_ratio':40s} {failed / attempted:>14.6g} ratio "
              f"({failed} of {attempted} operations; correct={result['correct']})")
        if not args.trace:
            continue
        layers = result["metrics"]
        for name, m in layers.items():
            print(f"{workload:12s} {name:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:12s} largest layers (s): " + ", ".join(
            f"{name} {seconds:.3g}" for name, seconds in record["top_layers"]))
        for depth, name, seconds in record["major_spans"]:
            print(f"{workload:12s} span {'  ' * depth}{name} {seconds:.4g} s")
        root_s = layers["cli.main.s"]["value"]
        if root_s:
            share = layers["cli.main.self_s"]["value"] / root_s
            print(f"{workload:12s} cli.main.self_s share {share:.3g} of cli.main.s "
                  f"= {root_s:.4g} s")


if __name__ == "__main__":
    main()
