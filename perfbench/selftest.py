"""Self-test of the benchmark at tiny sizes (K=1, one toy seed).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default pytest run: it
spawns the benchmark the way a user does and takes about a minute.
"""

import importlib
import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = BENCH / ".tmp" / "selftest"
sys.path.insert(0, str(ROOT / "src"))  # the checkout's fockcharge, as run.py uses
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402  (also scalar-k6, which BENCHMARK.json omits)
# per-layer metrics the harness computes itself rather than from one span
COMPUTED = {"quadrature.gram_suite.gflop", "quadrature.gram_suite.gflops",
            "quadrature.dense_mb", "suites.checks.total", "suites.checks.failed",
            "suites.check_margin.max", "trace.overhead_s"}


def bench(workload, trace, root=ROOT):
    """Run the benchmark in `root`; (exit code, record or None, result or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, record, result


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = bench(workload, trace)
        return cache[workload, trace]

    return get


def _check_metrics(result, wanted):
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(runs, workload):
    code, record, result = runs(workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _check_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["fail_ratio"] == 0.0
    assert record["blas_env"]["OPENBLAS_NUM_THREADS"] == str(record["nproc"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layer_metrics(runs, workload):
    code, record, result = runs(workload, 1)
    assert code == 0 and result["correct"]
    _check_metrics(result, SPEC["per_layer"])
    # the untraced iterations' medians ride along in the record
    _check_metrics({"metrics": record["end_to_end"]}, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_identical(runs, workload):
    _, plain, _ = runs(workload, 0)
    _, traced, _ = runs(workload, 1)
    # the traced run's digests cover its untraced and its traced iterations;
    # each seed must have produced one output, the same as untraced
    assert all(len(found) == 1 for found in traced["output_digests"].values())
    assert "5" in traced["output_digests"]   # the seed bench() passes
    for seed, found in plain["output_digests"].items():
        assert traced["output_digests"].get(seed, found) == found


def test_headline_records_grids(runs):
    _, record, _ = runs("headline-k4", 0)
    assert record["grid"] == "cutoff=40 panels_per_unit=2 gauss_order=6"
    assert record["reference_grid"] == "cutoff=40 panels_per_unit=2 gauss_order=3"


def test_layer_metric_names_resolve():
    """Every per-layer name is computed or names a public fockcharge
    function, so a zero means "not called", never a misspelt layer."""
    for m in SPEC["per_layer"]:
        if m["name"] in COMPUTED:
            continue
        module, func, stat = m["name"].split(".")
        assert stat in ("s", "self_s", "calls"), m["name"]
        fn = getattr(importlib.import_module(f"fockcharge.{module}"), func)
        assert inspect.isfunction(fn) and not func.startswith("_"), m["name"]


def copy_checkout(name, with_src):
    """A copy of BENCHMARK.json and perfbench/ (and src/ if asked) under SCRATCH."""
    root = SCRATCH / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    ignore = shutil.ignore_patterns(".tmp", "__pycache__")
    shutil.copytree(BENCH, root / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    return root


@pytest.mark.parametrize("workload", ["headline-k4", "scalar-k6"])
def test_wrong_reference_counts_as_failure(workload):
    root = copy_checkout(f"wrong-{workload}", with_src=True)
    path = root / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    series = refs[workload]["S"] if workload == "headline-k4" else refs[workload]["1"]
    series[1] *= 1 + 1e-6
    path.write_text(json.dumps(refs))
    code, record, result = bench(workload, 0, root=root)
    assert code == 0
    assert not result["correct"] and result["failed"] >= 1
    assert record["fail_ratio"] > 0
    shutil.rmtree(root)


def test_fails_without_the_program():
    root = copy_checkout("bare", with_src=False)
    code, _, result = bench("headline-k4", 0, root=root)
    assert code != 0 and result is None
    shutil.rmtree(root)
