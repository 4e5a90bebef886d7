"""Command-line experiment runner.

    fockcharge <experiment> [options]
    fockcharge --experiment <name> [options]

Experiments: car-check, spectrum, additivity, cbasis, qtilde, weighted,
total-charge, aligned, bessel-check, vacuum-divergence, decomposition,
oracle-equivalence.

One summary line per check goes to stdout (name, value, tolerance,
PASS/FAIL); the per-instance records are written as CSV or JSON to --output
(stdout by default).  With a fixed seed the output is byte-identical across
runs once the timestamp header is suppressed.  Exit code 0 means every
check passed, 1 a contract failure, 2 an unusable invocation.

--threads (or the FOCKCHARGE_THREADS environment variable) caps the linear
algebra thread pools by setting their environment variables, which act only
if numpy is not yet imported in the process; that is why the heavy modules
are loaded inside main().  It therefore takes effect for the `fockcharge`
console script, but not when main() is called in a process that has already
imported numpy (tests, benchmark harnesses).
"""

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

EXPERIMENT_NAMES = [
    "car-check", "spectrum", "additivity", "cbasis", "qtilde", "weighted",
    "total-charge", "aligned", "bessel-check", "vacuum-divergence",
    "decomposition", "oracle-equivalence",
]

FORMATS = ("csv", "json")
_NUMERIC_KEYS = {"m": float, "shells": int, "cutoff": int, "panels": int,
                 "order": int, "seed": int, "threads": int}
_STRING_KEYS = {"experiment", "output", "format"}
_BOOL_KEYS = {"no_timestamp"}


def parse_config_file(path: str) -> dict:
    """Line-oriented `key = value` files with # comments."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key in _NUMERIC_KEYS:
                values[key] = _NUMERIC_KEYS[key](value)
            elif key in _BOOL_KEYS:
                values[key] = value.lower() in ("1", "true", "yes", "on")
            elif key == "format" and value not in FORMATS:
                raise ValueError(f"{path}:{lineno}: format must be one of {FORMATS}")
            elif key in _STRING_KEYS:
                values[key] = value
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fockcharge",
        description="verification suites and the vacuum-divergence experiment")
    p.add_argument("experiment_pos", nargs="?", metavar="experiment",
                   help="one of: " + ", ".join(EXPERIMENT_NAMES))
    p.add_argument("--experiment", help="experiment name (alternative to the positional)")
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--m", type=float, help="fermion mass (default 1.0)")
    p.add_argument("--shells", type=int, help="largest shell radius K (default 3)")
    p.add_argument("--cutoff", type=int, help="momentum cutoff per axis (default 40)")
    p.add_argument("--panels", type=int, help="quadrature panels per unit length (default 2)")
    p.add_argument("--order", type=int, help="Gauss order per panel (default 6)")
    p.add_argument("--seed", type=int, help="seed fixing all randomness (default 0)")
    p.add_argument("--output", help="output file for the records ('-' = stdout, the default)")
    p.add_argument("--format", choices=FORMATS, help="record format (default csv)")
    p.add_argument("--no-timestamp", action="store_true", default=None,
                   help="suppress the timestamp header line in CSV output")
    p.add_argument("--threads", type=int,
                   help="thread cap for the linear algebra pools "
                        "(fallback: FOCKCHARGE_THREADS)")
    return p


def _apply_threads(threads):
    if threads is None:
        env = os.environ.get("FOCKCHARGE_THREADS")
        threads = int(env) if env else None
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(threads)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_csv(result, timestamp: bool) -> str:
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(result.columns)
    for row in result.rows:
        writer.writerow([_fmt(row[c]) for c in result.columns])
    return buf.getvalue()


def render_json(result) -> str:
    records = [{c: row[c] for c in result.columns} for row in result.rows]
    return json.dumps(records, indent=2) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(parser, args)
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(parser, args) -> int:
    settings = {"m": 1.0, "shells": 3, "cutoff": 40, "panels": 2, "order": 6,
                "seed": 0, "output": "-", "format": "csv",
                "no_timestamp": False, "threads": None, "experiment": None}
    if args.config:
        settings.update(parse_config_file(args.config))
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if args.experiment_pos and args.experiment and args.experiment_pos != args.experiment:
        raise ValueError("conflicting experiment names given")
    name = args.experiment or args.experiment_pos or settings["experiment"]
    if not name:
        parser.print_usage(sys.stderr)
        raise ValueError("no experiment selected")
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r}")
    output = settings["output"]
    if output != "-" and not os.path.isdir(os.path.dirname(output) or "."):
        raise ValueError(f"output directory of {output!r} does not exist")
    if output != "-" and os.path.isdir(output):
        raise ValueError(f"output {output!r} is a directory")
    _apply_threads(settings["threads"])

    from .suites import ExperimentConfig, run_experiment  # after thread setup

    cfg = ExperimentConfig(m=settings["m"], shells=settings["shells"],
                           cutoff=settings["cutoff"], panels=settings["panels"],
                           order=settings["order"], seed=settings["seed"])
    result = run_experiment(name, cfg)

    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name:48s} value={c.value:.6e} tol={c.tolerance:.3e}")

    if settings["format"] == "csv":
        payload = render_csv(result, timestamp=not settings["no_timestamp"])
    else:
        payload = render_json(result)
    if output == "-":
        sys.stdout.write(payload)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)

    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
