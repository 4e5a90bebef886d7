"""One benchmark child process: set up, run one workload once, report.

    python3 perfbench/child.py --workload NAME --seed N --tmp DIR
                               [--smoke] [--trace] [--probe]

The parent (run.py) sets the BLAS thread variables in this process's
environment, so they act before numpy loads.  Set-up ends at `ready`, the
CLOCK_MONOTONIC reading just before the first timed call; the parent turns
it into setup_s.  With --probe the child stops there.  The result is one
JSON line on stdout; fockcharge's own stdout is captured by the workload.
"""

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


def _versions(numpy, scipy, fockcharge):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "fockcharge": fockcharge.__version__}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()

    import numpy
    import scipy
    import scipy.sparse
    import fockcharge
    import fockcharge.cli
    import fockcharge.suites  # imports every numerical module
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(fockcharge.__file__).resolve().parents:
        sys.exit(f"fockcharge imported from {fockcharge.__file__}, not from {src}")

    import workloads
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    grids = []
    workloads.log_grids(fockcharge.quadrature, grids)
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    outcome = workloads.Outcome()
    body = workloads.BODIES[args.workload]

    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready, "versions": _versions(numpy, scipy, fockcharge)}))
        return
    start = time.perf_counter()
    body(outcome, references, Path(args.tmp), args.smoke, args.seed)
    wall = time.perf_counter() - start

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "checks": outcome.checks,
        "digest": outcome.digest,
        "grids": grids,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["major_spans"] = tracer.major_spans()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
