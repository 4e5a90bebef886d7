"""The benchmark's three workloads, each driven through fockcharge's public
entry points exactly as a user calls them.  They run inside a child process
(see child.py); fockcharge is imported by the child before the timed call.

headline-k4  the paper's headline: `fockcharge vacuum-divergence` at K=4
             through `cli.main`; dense 2916-dimensional invariant basis and
             dense complex spinor algebra.
scalar-k6    `gram_suite` + `vacuum_series_scalar` at K=6 for three masses;
             quadrature-bound, builds no invariant basis and no dense spinor
             matrix.
toy-sweep    the 11 toy-scale CLI experiments at one seed; the run's
             iterations take seeds s, s+1, s+2, s, ... in turn (SEED_CYCLE).
             Sparse Jordan-Wigner operators, small dense eigensolves, Bessel
             quadrature and hundreds of small involutions.

Every workload is a closed loop with one caller.  An operation is one public
call (a CLI invocation, or one mass of scalar-k6); it fails when it raises,
exits non-zero, reports a FAILed check, or its series misses the stored
reference by more than REFERENCE_RTOL.
"""

import contextlib
import csv
import hashlib
import io
import re

# far below the quadrature error (the headline's order-6 and order-3 series
# differ by ~5e-3 relative), far above what reordering a sum changes (~1e-14)
REFERENCE_RTOL = 1e-9

HEADLINE_ARGV = ["vacuum-divergence", "--m", "1", "--shells", "4", "--cutoff", "40",
                 "--panels", "2", "--order", "6", "--no-timestamp"]
SCALAR_GRID = (40, 2, 6)     # cutoff, panels per unit, Gauss order
SCALAR_MASSES = ("0.1", "1", "10")
# iteration i of a run uses seed s + i % SEED_CYCLE: toy-sweep runs one seed
# per child, so a run takes many short samples of it rather than a few long
# ones, and its fastest iteration is more likely to fall in a fast spell
SEED_CYCLE = {"headline-k4": 1, "scalar-k6": 1, "toy-sweep": 3}

CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+)\s+value=(\S+) tol=(\S+)$")


def toy_experiments(cli):
    return [name for name in cli.EXPERIMENT_NAMES if name != "vacuum-divergence"]


class Outcome:
    """Operations attempted and failed, suite checks seen, and the outputs
    (hashed into a digest so traced and untraced runs can be compared)."""

    def __init__(self):
        self.attempted = 0
        self.failures = []   # one message per failed operation
        self.checks = []     # (name, value, tolerance, passed)
        self._digest = hashlib.sha256()

    def operation(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def output(self, text: str):
        self._digest.update(text.encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _parse_checks(stdout: str):
    checks = []
    for line in stdout.splitlines():
        match = CHECK_LINE.match(line)
        if match:
            status, name, value, tol = match.groups()
            checks.append((name, float(value), float(tol), status == "PASS"))
    return checks


def _compare(label, got, reference):
    if len(got) != len(reference):
        return [f"{label}: {len(got)} values, reference has {len(reference)}"]
    return [f"{label}[{i}] = {g!r}, reference {r!r}"
            for i, (g, r) in enumerate(zip(got, reference))
            if not abs(g - r) <= REFERENCE_RTOL * abs(r)]


def _run_cli(cli, argv, out_path, outcome):
    """One CLI invocation; returns (record text or None, problems)."""
    captured = io.StringIO()
    out_path.unlink(missing_ok=True)
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv + ["--output", str(out_path)])
    except Exception as exc:  # any raise is a failed operation, not a crash
        return None, [f"raised {exc!r}"]
    problems = [] if code == 0 else [f"exit code {code}"]
    checks = _parse_checks(captured.getvalue())
    outcome.checks.extend(checks)
    problems += [f"check {name} FAILED" for name, _, _, ok in checks if not ok]
    outcome.output(captured.getvalue())
    if not out_path.exists():
        return None, problems + ["no record written"]
    text = out_path.read_text(encoding="utf-8")
    outcome.output(text)
    return text, problems


def headline_k4(outcome, references, tmp, smoke, seed):
    from fockcharge import cli
    argv = list(HEADLINE_ARGV)
    if smoke:
        argv[argv.index("--shells") + 1] = "1"
    text, problems = _run_cli(cli, argv, tmp / "headline.csv", outcome)
    if text is not None:
        S = [float(row["S"]) for row in csv.DictReader(io.StringIO(text))]
        ref = references["headline-k4"]["S"]
        problems += _compare("S", S, ref[:len(S)] if smoke else ref)
    outcome.operation("headline-k4", problems)


def _scalar_series(shell, mass, grid):
    """S of one mass; its suite is freed on return, so one suite at a time
    counts towards peak_rss_mb."""
    from fockcharge import divergence, quadrature
    m = float(mass)
    suite = quadrature.gram_suite(shell, m, grid)
    return divergence.vacuum_series_scalar(range(shell.K + 1), m, grid, suite=suite).S


def scalar_k6(outcome, references, tmp, smoke, seed):
    from fockcharge import modes, quadrature
    K = 1 if smoke else 6
    grid = quadrature.build_grid(*SCALAR_GRID)
    shell = modes.enumerate_shell(K)
    for mass in SCALAR_MASSES:
        problems = []
        try:
            S = _scalar_series(shell, mass, grid)
        except Exception as exc:  # any raise is a failed operation, not a crash
            problems.append(f"raised {exc!r}")
        else:
            outcome.output(repr(S))
            problems += _compare(f"S(m={mass})", S, references["scalar-k6"][mass][:K + 1])
        outcome.operation(f"scalar-k6 m={mass}", problems)


def toy_sweep(outcome, references, tmp, smoke, seed):
    from fockcharge import cli
    for name in toy_experiments(cli):
        _, problems = _run_cli(cli, [name, "--seed", str(seed), "--no-timestamp"],
                               tmp / "toy.csv", outcome)
        outcome.operation(f"{name} --seed {seed}", problems)


BODIES = {"headline-k4": headline_k4, "scalar-k6": scalar_k6, "toy-sweep": toy_sweep}
WORKLOADS = tuple(BODIES)


def log_grids(quadrature, log):
    """Record the description of every grid built, so the run record names
    the grids a workload actually used (for headline-k4 also the reference
    grid of its convergence check).  One list append per grid; no timing."""
    build = quadrature.build_grid

    def logged(*args, **kwargs):
        grid = build(*args, **kwargs)
        log.append(grid.describe())
        return grid

    quadrature.build_grid = logged
