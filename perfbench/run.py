"""Benchmark entry point: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload headline-k4 --seed 0 --seconds 30 --trace 0

Run it from anywhere; it works on the checkout that contains it and imports
fockcharge from that checkout's src/.  Each iteration of the workload runs in
a fresh child process (child.py), one at a time, with the BLAS thread
variables set to nproc before numpy loads.  Iterations repeat while the next
one, judged by the longest so far, still ends within --seconds; there is
always at least one.  Iteration i gets seed --seed + i % SEED_CYCLE (only
toy-sweep cycles, over three seeds).  SETUP_SAMPLES extra children only set
up, before and after the iterations, so setup_s is a median even when one
iteration fills the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json over the untraced
iterations (see REDUCE); --trace 1 adds one traced iteration and reports the
per-layer metrics.  A run record (versions, thread settings, grids, samples
and, in both modes, the end-to-end metrics of the untraced iterations) and a
table of every metric with its unit are printed first; the last line of
stdout is the JSON result.  Exit code 1, with no result, when the benchmark
itself cannot run (for example no src/fockcharge in the checkout).
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SEED_CYCLE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0   # the whole run, children included, ends within 180 s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
# how each end-to-end metric reduces its samples.  The host's speed switches
# between a fast and a slow state (about 1.7x apart) that last tens of seconds or more;
# the fastest iteration is the program's cost in the fast state, while a
# median moves with the share of the run the host spent slow.
REDUCE = {"wall_s": min, "setup_s": statistics.median, "peak_rss_mb": statistics.median}
THREADS_NOTE = ("--threads / FOCKCHARGE_THREADS only set the BLAS variables inside "
                "cli.main; once numpy is imported in-process they have no effect, "
                "so the benchmark sets them in each child's environment instead")


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (not a failed operation)."""


def git_commit():
    """HEAD of the checkout; None when it is not a git checkout."""
    try:
        # the ceiling keeps git from taking HEAD of a repository above ROOT
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    """Spawns child processes for one workload and collects their results."""

    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.start = time.monotonic()
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("FOCKCHARGE_THREADS", None)
        for var in BLAS_THREAD_VARS:
            self.env[var] = str(self.nproc)

    def spawn(self, *flags, seed=None):
        """Run one child (at --seed unless `seed` is given); its result dict,
        or None if it crashed or hung.  Failed operations are not crashes:
        the child reports them."""
        seed = self.args.seed if seed is None else seed
        timeout = RUN_LIMIT_S - (time.monotonic() - self.start)
        if timeout <= 0:
            raise BenchmarkError(f"run exceeded {RUN_LIMIT_S} s")
        cmd = [sys.executable, str(BENCH / "child.py"),
               "--workload", self.args.workload, "--seed", str(seed),
               "--tmp", str(self.tmp), *flags]
        if self.args.smoke:
            cmd.append("--smoke")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return None
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["setup_s"] = result["ready"] - spawned
        result["elapsed_s"] = time.monotonic() - spawned
        return result

    def probes(self, count):
        """Children that only set up, spread before and after the iterations
        so that setup_s samples more than one moment of the run."""
        results = [self.spawn("--probe") for _ in range(count)]
        if None in results:
            raise BenchmarkError("a set-up probe failed; see stderr")
        return results


def check_metrics(checks):
    """Suite-check counters: totals, and the worst value/tolerance among the
    passed upper-bound checks (value < tolerance; lower-bound and flag checks
    have no such margin)."""
    margins = [value / tol for _, value, tol, ok in checks if ok and 0 <= value < tol]
    return {"suites.checks.total": len(checks),
            "suites.checks.failed": sum(1 for c in checks if not c[3]),
            "suites.check_margin.max": max(margins, default=0.0)}


def top_layers(layers, count=10):
    """The traced layers with the most inclusive time, largest first."""
    totals = [(name[:-2], value) for name, value in layers.items() if name.endswith(".s")]
    return sorted(totals, key=lambda item: -item[1])[:count]


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "fockcharge" / "__init__.py").is_file():
        raise BenchmarkError(f"no fockcharge package under {SRC}")
    tmp = BENCH / ".tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, tmp)
        probes = runner.probes(SETUP_SAMPLES // 2)

        iterations = []
        loop_start = time.monotonic()
        longest = 0.0
        cycle = SEED_CYCLE[args.workload]
        while True:
            result = runner.spawn(seed=args.seed + len(iterations) % cycle)
            if result is None:
                raise BenchmarkError("a workload child crashed; see stderr")
            iterations.append(result)
            longest = max(longest, result["elapsed_s"])
            if time.monotonic() - loop_start + longest > args.seconds:
                break
        probes += runner.probes(SETUP_SAMPLES - len(probes))
        traced = runner.spawn("--trace") if args.trace else None
        if args.trace and traced is None:
            raise BenchmarkError("the traced child crashed; see stderr")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # only if no other run uses it
            tmp.parent.rmdir()

    children = iterations + ([traced] if traced else [])
    failures = [f for child in children for f in child["failures"]]
    attempted = sum(child["attempted"] for child in children)
    failed = len(failures)
    by_seed = {}   # seed -> the distinct output digests of its children
    for child in children:
        by_seed.setdefault(child["seed"], set()).add(child["digest"])
    digests = {str(seed): sorted(found) for seed, found in sorted(by_seed.items())}
    correct = failed == 0 and all(len(found) == 1 for found in digests.values())

    walls = [r["wall_s"] for r in iterations]
    samples = {"wall_s": walls,
               "setup_s": [r["setup_s"] for r in probes + iterations],
               "peak_rss_mb": [r["peak_rss_mb"] for r in iterations]}
    end_to_end = {m["name"]: {"value": REDUCE[m["name"]](samples[m["name"]]),
                              "unit": m["unit"]} for m in spec["end_to_end"]}
    if args.trace:
        values = dict(traced["layers"], **check_metrics(traced["checks"]))
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = end_to_end

    grids = iterations[0]["grids"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": runner.nproc,
        "blas_env": {var: runner.env[var] for var in BLAS_THREAD_VARS},
        "threads_note": THREADS_NOTE,
        "versions": probes[0]["versions"],
        "git_commit": git_commit(),
        "grid": grids[0] if grids else None,
        "reference_grid": grids[1] if len(grids) > 1 else None,
        "samples": samples,
        "end_to_end": end_to_end,
        "output_digests": digests,
        "top_layers": top_layers(traced["layers"]) if traced else None,
        "major_spans": traced["major_spans"] if traced else None,
        "fail_ratio": failed / attempted,
        "failures": failures,
    }
    print("record " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':44s} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes (K=1, one toy seed) for the benchmark's self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        run(args)
    except (BenchmarkError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
