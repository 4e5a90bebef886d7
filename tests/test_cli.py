import dataclasses
import json
import re
import tracemalloc

import pytest

from fockcharge import cli, divergence, quadrature, suites

FAST_ARGS = ["--cutoff", "8", "--panels", "1", "--order", "4", "--shells", "1"]


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_experiment_exits_2(capsys):
    code, _, err = run_cli(["nonsense"], capsys)
    assert code == 2
    assert "unknown experiment" in err


def test_no_experiment_exits_2(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2


def test_conflicting_experiment_names(capsys):
    code, _, err = run_cli(["spectrum", "--experiment", "qtilde"], capsys)
    assert code == 2


def test_invalid_grid_config_exits_2(capsys):
    code, _, err = run_cli(["vacuum-divergence", "--cutoff", "2", "--shells", "3"], capsys)
    assert code == 2


@pytest.mark.parametrize("mass", ["nan", "inf"])
def test_non_finite_mass_exits_2(mass, capsys):
    code, out, err = run_cli(["vacuum-divergence", "--m", mass] + FAST_ARGS, capsys)
    assert code == 2
    assert "finite" in err and out == ""


def test_mass_with_overflowing_square_exits_2(capsys):
    code, out, err = run_cli(["vacuum-divergence", "--m", "2e154"] + FAST_ARGS, capsys)
    assert code == 2
    assert "finite square" in err and out == ""


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 13.7 GiB for an array with shape (1225, 1225, 1225)")


@pytest.mark.parametrize("argv, code, message", [
    (["weighted", "--output", "{tmp}/missing/w.csv"], 2, "does not exist"),
    (["weighted", "--config", "{tmp}/xml.cfg"], 2, "format must be one of"),
    (["vacuum-divergence"] + FAST_ARGS, 2, "Unable to allocate 13.7 GiB"),
    # 1280^3 doubled nodes break the cap, and order 2 cannot halve
    (["vacuum-divergence", "--shells", "1", "--cutoff", "80", "--panels", "2",
      "--order", "2"], 2, "no reference grid"),
    (["weighted", "--output", "{tmp}"], 2, "is a directory"),
    # every setting is checked before any numerics, so the tail rule fires
    # before the (here out-of-memory) Gram suite is built
    (["vacuum-divergence", "--shells", "8", "--cutoff", "9", "--panels", "2",
      "--order", "6"], 2, "grid too small"),
    # the toy experiments check the settings they do not use as well
    (["weighted", "--m", "nan"], 2, "finite"),
    (["spectrum", "--shells", "-1"], 2, "shells"),
    (["car-check", "--cutoff", "0"], 2, "cutoff"),
    (["weighted", "--seed", "-1"], 2, "seed"),
    # config-file values name their file, line and key when they do not convert
    (["weighted", "--config", "{tmp}/float-seed.cfg"], 2, "float-seed.cfg:2: seed: "),
    (["weighted", "--config", "{tmp}/typo-flag.cfg"], 2, "typo-flag.cfg:1: no_timestamp: "),
    (["weighted", "--config", "{tmp}/no-equals.cfg"], 2, "no-equals.cfg:1: expected 'key = value'"),
], ids=["missing-output-directory", "config-format-xml", "gram-suite-out-of-memory",
        "no-reference-grid", "output-is-directory", "tail-before-gram-suite",
        "toy-nan-mass", "toy-negative-shells", "toy-zero-cutoff", "toy-negative-seed",
        "config-float-seed", "config-misspelt-bool", "config-line-without-equals"])
def test_unusable_settings_exit_code(argv, code, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "xml.cfg").write_text("format = xml\n")
    (tmp_path / "float-seed.cfg").write_text("# a seed must be an integer\nseed = 4.0\n")
    (tmp_path / "typo-flag.cfg").write_text("no_timestamp = ture\n")
    (tmp_path / "no-equals.cfg").write_text("seed 4\n")
    # only vacuum-divergence builds a Gram suite; here it cannot be allocated
    monkeypatch.setattr(quadrature, "gram_suite", _out_of_memory)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert "error: " in err and message in err and out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("setting", ["shells", "seed"])
def test_experiment_config_rejects_non_integers(setting):
    from fockcharge.suites import ExperimentConfig
    with pytest.raises(ValueError, match=setting):
        ExperimentConfig(**{setting: 1.5})


def test_help_text_defaults_match_experiment_config():
    # the help texts are derived from the dataclass: each states its field's
    # default, and the flag's type parses it back to the same value and type
    helps = {a.dest: a for a in cli.build_parser()._actions}
    for f in dataclasses.fields(suites.ExperimentConfig):
        if not f.init:
            continue
        action = helps[f.name]
        stated = re.search(r"\(default ([^)]+)\)", action.help)
        assert stated, f.name
        assert action.type(stated.group(1)) == f.default, f.name
        assert type(action.type(stated.group(1))) is type(f.default), f.name


def test_shells_zero_skips_growth_checks(capsys):
    code, out, _ = run_cli(["vacuum-divergence", "--shells", "0", "--cutoff", "8",
                            "--panels", "1", "--order", "4", "--no-timestamp"], capsys)
    assert code == 0
    assert "PASS divergence/positivity" in out
    assert "strictly-increasing" not in out


def test_mass_just_below_overflowing_square_runs_clean(capsys):
    # the largest mass whose square is finite: the mass sits in the scalar
    # block m G0 of order one, so no spin product overflows
    code, out, _ = run_cli(["vacuum-divergence", "--m", "1.3407807929942596e154",
                            "--no-timestamp"] + FAST_ARGS, capsys)
    assert code == 0
    assert "FAIL" not in out and "nan" not in out


def test_vacuum_divergence_builds_no_dense_spinor_matrix(monkeypatch, capsys):
    def refuse(suite):
        raise AssertionError("dense spinor matrix built on the series path")

    monkeypatch.setattr(quadrature, "m_plus", refuse)
    monkeypatch.setattr(quadrature, "ideal_m_plus", refuse)
    code, out, _ = run_cli(["vacuum-divergence", "--no-timestamp"] + FAST_ARGS, capsys)
    assert code == 0 and "FAIL" not in out


def test_vacuum_divergence_reference_probe_builds_no_gram_suite(monkeypatch, capsys):
    # the main grid's suite is the run's only one: the reference-grid probe
    # reads 1d factors, so a second gram_suite is refused
    calls = []
    gram_suite = quadrature.gram_suite

    def first_only(*args, **kwargs):
        assert not calls, "a second Gram suite was built"
        calls.append(args)
        return gram_suite(*args, **kwargs)

    monkeypatch.setattr(quadrature, "gram_suite", first_only)
    code, out, _ = run_cli(["vacuum-divergence", "--no-timestamp"] + FAST_ARGS, capsys)
    assert code == 0 and "FAIL" not in out
    assert len(calls) == 1


def test_oversized_shell_exits_2_before_building_a_suite(monkeypatch, capsys):
    # shell 12 needs about 0.17 GB (two 77 MB accumulators, a 1.6 MB class
    # table and a 16 MB row-block buffer): on a 100 MB machine the settings
    # are refused, with the estimate, before any suite is built
    def refused(*args, **kwargs):
        raise AssertionError("a Gram suite was built")

    monkeypatch.setattr(divergence, "_physical_memory", lambda: 100 * 10 ** 6)
    monkeypatch.setattr(quadrature, "gram_suite", refused)
    code, _, err = run_cli(["vacuum-divergence", "--shells", "12"], capsys)
    assert code == 2
    assert "shell 12 needs about 0.17 GB, more than the 0.10 GB of physical memory" in err


def test_vacuum_divergence_peak_memory_below_dense_builds(capsys):
    # the K=4 run below peaks near 1.5 MB of traced allocations, most of it
    # the suite's two mirror-folded accumulators (0.5 MB together) and one
    # 32-row block of the trace route (0.75 MB); unfolded accumulators and
    # 64-row blocks took it to 3.2 MB.  One dense K=4 spinor matrix adds
    # 136 MB (complex) or 68 MB (real) to it, and a dense K=3 one 30 MB
    # (complex) or 15 MB (real), so a 12 MB bound catches each of them
    # however it is built;
    # the test above refuses the dense oracles by name at any K.  The small
    # run first loads what the run imports lazily, so the bound counts the
    # run alone.
    run_cli(["vacuum-divergence", "--no-timestamp"] + FAST_ARGS, capsys)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["vacuum-divergence", "--shells", "4", "--cutoff", "8",
                                "--panels", "1", "--order", "4", "--no-timestamp"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and "FAIL" not in out
    assert peak < 12 * 2 ** 20


def test_vacuum_divergence_k8_peak_memory_holds_folded_accumulators(capsys):
    # the K=8 run peaks near 22.5 MB of traced allocations, 17 MB of it the
    # two accumulators over the 81 mirror classes of per-axis pairs; over
    # all 153 pairs they held 57 MB and the run peaked at 66.4 MB
    run_cli(["vacuum-divergence", "--no-timestamp"] + FAST_ARGS, capsys)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["vacuum-divergence", "--shells", "8", "--cutoff", "16",
                                "--panels", "1", "--order", "4", "--no-timestamp"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and "FAIL" not in out
    assert peak < 24 * 2 ** 20


def test_summary_lines_and_csv(tmp_path, capsys):
    out_file = tmp_path / "aligned.csv"
    code, out, _ = run_cli(["aligned", "--seed", "3", "--no-timestamp",
                            "--output", str(out_file)], capsys)
    assert code == 0
    for line in out.strip().splitlines():
        assert line.startswith(("PASS", "FAIL"))
        assert "value=" in line and "tol=" in line
    text = out_file.read_text()
    assert text.splitlines()[0] == "check,value,tolerance,status"


def test_timestamp_header_toggle(tmp_path, capsys):
    f1 = tmp_path / "a.csv"
    run_cli(["weighted", "--seed", "1", "--output", str(f1)], capsys)
    assert f1.read_text().startswith("# generated ")
    f2 = tmp_path / "b.csv"
    run_cli(["weighted", "--seed", "1", "--no-timestamp", "--output", str(f2)], capsys)
    assert f2.read_text().startswith("check,")


def test_json_format(tmp_path, capsys):
    out_file = tmp_path / "q.json"
    code, _, _ = run_cli(["qtilde", "--seed", "5", "--format", "json",
                          "--output", str(out_file)], capsys)
    assert code == 0
    records = json.loads(out_file.read_text())
    assert isinstance(records, list) and records
    assert set(records[0]) == {"check", "value", "tolerance", "status"}


def test_stdout_output_default(capsys):
    code, out, _ = run_cli(["weighted", "--seed", "1", "--no-timestamp"], capsys)
    assert code == 0
    assert "check,value,tolerance,status" in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = weighted\nseed = 4  # inline comment\n"
                   "format = json\nno_timestamp = true\n\n# full-line comment\n")
    out_file = tmp_path / "w.csv"
    code, _, _ = run_cli(["--config", str(cfg), "--format", "csv",
                          "--output", str(out_file)], capsys)
    assert code == 0
    assert out_file.read_text().startswith("check,")  # flag overrode json


def test_config_file_settings_parse_to_experiment_config_types(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("m = 2\nshells = 1\ncutoff = 8\npanels = 1\norder = 4\nseed = 7\n"
                   "no_timestamp = OFF\n")
    values = cli.parse_config_file(str(cfg))
    settings = [f for f in dataclasses.fields(suites.ExperimentConfig) if f.init]
    assert len(settings) == 6
    for f in settings:
        assert type(values[f.name]) is type(f.default), f.name
    assert values["no_timestamp"] is False
    config = suites.ExperimentConfig(**{f.name: values[f.name] for f in settings})
    assert (config.m, config.shells, config.seed) == (2.0, 1, 7)


def test_config_file_bad_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(["weighted", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown key" in err


@pytest.mark.parametrize("experiment", cli.EXPERIMENT_NAMES)
def test_determinism_byte_identical(experiment, tmp_path, capsys):
    base = ["--seed", "11", "--no-timestamp"] + FAST_ARGS
    f1 = tmp_path / "run1.csv"
    f2 = tmp_path / "run2.csv"
    c1, _, _ = run_cli([experiment] + base + ["--output", str(f1)], capsys)
    c2, _, _ = run_cli([experiment] + base + ["--output", str(f2)], capsys)
    assert c1 == 0 and c2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert len(f1.read_bytes()) > 0
