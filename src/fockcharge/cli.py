"""Command-line experiment runner.

    fockcharge <experiment> [options]
    fockcharge --experiment <name> [options]

The experiments are the keys of `suites.EXPERIMENTS`.  One summary line per
check goes to stdout (name, value, tolerance, PASS/FAIL); the per-instance
records are written as CSV or JSON to --output (stdout by default).  With a
fixed seed the output is byte-identical across runs once the timestamp
header is suppressed.

The numerical settings are the fields of `suites.ExperimentConfig`, which
holds their types and defaults and checks every setting before any numerics;
their flags, help defaults and config-file conversions are read off it.
Only the settings given (flags over a --config file) reach it.  Exit code 0
means every check passed, 1 a contract failure, 2 an unusable invocation.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone

from .suites import EXPERIMENTS, ExperimentConfig, run_experiment

EXPERIMENT_NAMES = list(EXPERIMENTS)
FORMATS = ("csv", "json")
_SETTINGS = [f for f in fields(ExperimentConfig) if f.init]
# the one-line help of each setting; its type and default come from the dataclass
_SETTING_HELP = {
    "m": "fermion mass",
    "shells": "largest shell radius K",
    "cutoff": "momentum cutoff per axis",
    "panels": "quadrature panels per unit length",
    "order": "Gauss order per panel",
    "seed": "seed fixing all randomness",
}


def _flag_value(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {value!r}")


_CONVERTERS = {f.name: f.type for f in _SETTINGS}
_CONVERTERS.update(experiment=str, output=str, format=str, no_timestamp=_flag_value)


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
            if key not in _CONVERTERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key == "format" and value not in FORMATS:
                raise ValueError(f"{path}:{lineno}: format must be one of {FORMATS}")
            try:
                values[key] = _CONVERTERS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fockcharge",
        description="verification suites and the vacuum-divergence experiment")
    p.add_argument("experiment_pos", nargs="?", metavar="experiment",
                   help="one of: " + ", ".join(EXPERIMENT_NAMES))
    p.add_argument("--experiment", help="experiment name (alternative to the positional)")
    p.add_argument("--config", help="key = value config file; flags override it")
    for f in _SETTINGS:
        p.add_argument(f"--{f.name}", type=f.type,
                       help=f"{_SETTING_HELP[f.name]} (default {f.default})")
    p.add_argument("--output", help="output file for the records ('-' = stdout, the default)")
    p.add_argument("--format", choices=FORMATS, help="record format (default csv)")
    p.add_argument("--no-timestamp", action="store_true", default=None,
                   help="suppress the timestamp header line in CSV output")
    p.add_argument("--timestamp", dest="no_timestamp", action="store_false", default=None,
                   help="write the timestamp header line (the default; overrides a config file)")
    return p


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
    # the settings given, flags over the config file; ExperimentConfig has the defaults
    settings = parse_config_file(args.config) if args.config else {}
    settings.update((key, flag) for key, flag in vars(args).items() if flag is not None)
    if args.experiment_pos and args.experiment and args.experiment_pos != args.experiment:
        raise ValueError("conflicting experiment names given")
    name = args.experiment_pos or settings.get("experiment")
    if not name:
        parser.print_usage(sys.stderr)
        raise ValueError("no experiment selected")
    if name not in EXPERIMENT_NAMES:
        raise ValueError(f"unknown experiment {name!r}")
    output = settings.get("output", "-")
    if output != "-" and not os.path.isdir(os.path.dirname(output) or "."):
        raise ValueError(f"output directory of {output!r} does not exist")
    if output != "-" and os.path.isdir(output):
        raise ValueError(f"output {output!r} is a directory")
    cfg = ExperimentConfig(**{f.name: settings[f.name] for f in _SETTINGS if f.name in settings})
    result = run_experiment(name, cfg)

    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name:48s} value={c.value:.6e} tol={c.tolerance:.3e}")

    if settings.get("format", "csv") == "csv":
        payload = render_csv(result, timestamp=not settings.get("no_timestamp"))
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
