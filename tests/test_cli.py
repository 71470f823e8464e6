"""The option path from flags and YAML to the estimator, and the README's CLI section."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ppcf.cli
import ppcf.harness
from ppcf.cli import build_parser, main as cli_main
from ppcf.crossfit import APPROXIMATIONS, CrossFitConfig
from ppcf.fields import simulate_grf, write_grid_file
from ppcf.harness import (
    COVARIATE_DESIGNS,
    NUISANCE_FNS,
    PCF_MODES,
    PROCESSES,
    TABLES,
    WINDOWS,
    Scenario,
    emit_scenario_files,
    resolve_fit_options,
    run_replication,
    run_scenario_records,
    run_table,
)
from ppcf.inference import PcfModel
from ppcf.nuisance import KERNELS

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

README = Path(__file__).resolve().parents[1] / "README.md"


class Captured(Exception):
    pass


@pytest.fixture(scope="module")
def fit_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    return emit_scenario_files(Scenario(window="W1", reps=1, base_seed=555), 0, d)


def _fit_config(monkeypatch, fit_files, argv, yaml_text=None, tmp_path=None):
    """The CrossFitConfig and thinning seed ``ppcf fit`` hands to cross_fit."""
    def capture(spec, pattern, cfg, seed):
        raise Captured(cfg, seed)

    monkeypatch.setattr(ppcf.harness, "cross_fit", capture)
    args = ["fit", fit_files["pattern"], "--y-grid", fit_files["y0"],
            "--z-grid", fit_files["z0"]]
    if yaml_text is not None:
        config = tmp_path / "fit.yaml"
        config.write_text(yaml_text)
        args += ["--config", str(config)]
    with pytest.raises(Captured) as caught:
        cli_main(args + argv)
    return caught.value.args


def _scenario(monkeypatch, argv, yaml_text=None, tmp_path=None) -> Scenario:
    """The Scenario ``ppcf scenario`` runs."""
    seen = []

    def capture(s, parallelism=1):
        seen.append(s)
        return {}, []

    monkeypatch.setattr(ppcf.cli, "run_scenario_records", capture)
    args = ["scenario"]
    if yaml_text is not None:
        config = tmp_path / "cell.yaml"
        config.write_text(yaml_text)
        args += ["--config", str(config)]
    assert cli_main(args + argv) == 0
    return seen[0]


FIT_YAML = "folds: 3\nseed: 7\nkernel_order: 4\napprox: logistic\ngrid_n: 40\nbandwidth: 0.3\n"
FIT_FLAGS = ["--folds", "4", "--seed", "11", "--approx", "quadrature", "--bandwidth", "0.2"]


def test_fit_option_precedence(monkeypatch, tmp_path, fit_files):
    # default < YAML < flag, with PPCF_SEED over all
    def resolved(use_yaml, argv):
        cfg, seed = _fit_config(monkeypatch, fit_files, argv, FIT_YAML if use_yaml else None,
                                tmp_path)
        return (cfg.n_folds, seed, cfg.kernel_order, cfg.approximation, cfg.grid_n,
                cfg.bandwidth)

    monkeypatch.delenv("PPCF_SEED", raising=False)
    assert resolved(False, []) == (2, 2024, 2, "quadrature", 64, None)
    assert resolved(True, []) == (3, 7, 4, "logistic", 40, 0.3)
    assert resolved(True, FIT_FLAGS) == (4, 11, 4, "quadrature", 40, 0.2)
    monkeypatch.setenv("PPCF_SEED", "99")
    assert resolved(True, FIT_FLAGS) == (4, 99, 4, "quadrature", 40, 0.2)
    assert resolved(False, []) == (2, 99, 2, "quadrature", 64, None)


SCENARIO_YAML = ("window: W2\nprocess: lgcp\nreps: 5\nbase_seed: 7\nfolds: 3\n"
                 "kernel_order: 4\napprox: logistic\nestimators: [semi, para]\n")
SCENARIO_FLAGS = ["--window", "W1", "--reps", "3", "--seed", "11", "--approx", "quadrature",
                  "--pcf", "known", "--estimators", "oracle"]


def test_scenario_option_precedence(monkeypatch, tmp_path):
    # default < YAML < flag, with PPCF_SEED over all; the PCF mode follows
    # the resolved process unless given, and the grid the resolved window
    def resolved(use_yaml, argv):
        s = _scenario(monkeypatch, argv, SCENARIO_YAML if use_yaml else None, tmp_path)
        cfg = s.crossfit
        return (s.window, s.process, s.reps, s.base_seed, cfg.n_folds, cfg.kernel_order,
                cfg.approximation, cfg.grid_n, s.estimators, s.pcf_mode)

    monkeypatch.delenv("PPCF_SEED", raising=False)
    assert resolved(False, []) == ("W1", "poisson", 200, 2024, 2, 2, "quadrature", 64,
                                   ("semi",), "none")
    assert resolved(True, []) == ("W2", "lgcp", 5, 7, 3, 4, "logistic", 128,
                                  ("semi", "para"), "estimated")
    assert resolved(True, SCENARIO_FLAGS) == ("W1", "lgcp", 3, 11, 3, 4, "quadrature", 64,
                                              ("oracle",), "known")
    monkeypatch.setenv("PPCF_SEED", "99")
    assert resolved(True, SCENARIO_FLAGS)[3] == 99
    assert resolved(False, [])[3] == 99


def test_pcf_is_one_yaml_key(monkeypatch, tmp_path):
    # --pcf is the YAML key ``pcf`` under both subcommands that take the flag
    monkeypatch.delenv("PPCF_SEED", raising=False)
    config = tmp_path / "fit.yaml"
    config.write_text("pcf: known\npcf_sigma2: 0.2\npcf_phi: 0.05\n")
    assert resolve_fit_options(config)[2] == PcfModel(0.2, 0.05)
    assert _scenario(monkeypatch, [], "process: poisson\npcf: known\n", tmp_path).pcf_mode \
        == "known"
    assert _scenario(monkeypatch, ["--pcf", "none"], "process: lgcp\npcf: known\n",
                     tmp_path).pcf_mode == "none"
    with pytest.raises(ValueError, match="unknown config keys"):
        _scenario(monkeypatch, [], "pcf_mode: known\n", tmp_path)
    config.write_text("pcf_mode: known\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        resolve_fit_options(config)


@pytest.fixture
def no_replication(monkeypatch):
    """Fail the test if it simulates a replication or starts a pool."""
    def fail(*args, **kwargs):
        raise AssertionError("a replication ran before the options were checked")

    monkeypatch.setattr(ppcf.harness, "simulate_scenario_inputs", fail)
    monkeypatch.setattr(ppcf.harness, "ProcessPoolExecutor", fail)


@pytest.mark.parametrize("parallelism", ["1", "2"])
@pytest.mark.parametrize("yaml_text, message", [
    ("kernel_order: 3", "no kernel of order 3"),
    ("bandwidth: 0", "bandwidth must be > 0"),
    ("folds: 1", "n_folds must be >= 2"),
    ("approx: exact", "unknown approximation"),
    ("estimators: []", "estimators must be"),
    ("base_seed: -5", "base_seed must be >= 0"),
    ("base_seed: 1.5", "base_seed must be an integer"),
    ("reps: 1.5", "reps must be an integer"),
    # the grid comes from the window: grid_n is no scenario key
    ("grid_n: 2", "unknown config keys"),
], ids=["kernel_order", "bandwidth", "folds", "approx", "estimators", "base_seed",
        "base_seed_float", "reps_float", "grid_n"])
def test_scenario_rejects_bad_options_before_simulating(no_replication, tmp_path, yaml_text,
                                                        message, parallelism):
    # the parent process raises before it simulates a replication or starts a pool
    config = tmp_path / "cell.yaml"
    config.write_text(yaml_text)
    with pytest.raises(ValueError, match=message):
        cli_main(["scenario", "--config", str(config), "--parallelism", parallelism])


FIT_COMMAND = ["fit", "missing.txt", "--y-grid", "missing.txt", "--z-grid", "missing.txt"]


@pytest.mark.parametrize("command", [FIT_COMMAND, ["scenario"]], ids=["fit", "scenario"])
@pytest.mark.parametrize("yaml_text", ["5\n", "- folds: 2\n", "abc\n"],
                         ids=["number", "list", "string"])
def test_config_that_is_no_mapping_fails_before_any_work(no_replication, monkeypatch, tmp_path,
                                                         command, yaml_text):
    # the error names the file, before ``fit`` reads an input or makes its output
    # directory and before ``scenario`` simulates a replication
    def fail(*args, **kwargs):
        raise AssertionError("an input file was read before the options were checked")

    monkeypatch.setattr(ppcf.harness, "read_pattern_file", fail)
    monkeypatch.setattr(ppcf.harness, "read_grid_file", fail)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml_text)
    with pytest.raises(ValueError, match=re.escape(f"{config}: expected a YAML mapping")):
        cli_main(command + ["--config", str(config), "--out", str(tmp_path / "o" / "out")])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, yaml_text, message", [
    (FIT_COMMAND, "seed: true", "seed must be an integer, got True"),
    (FIT_COMMAND, "folds: true", "n_folds must be an integer, got True"),
    (FIT_COMMAND, "skip_thinning: 'false'", "skip_thinning must be true or false, got 'false'"),
    (FIT_COMMAND, "bandwidth: '0.3'", "bandwidth must be a number or null, got '0.3'"),
    (FIT_COMMAND, "bandwidth_c0: abc", "bandwidth_c0 must be a number, got 'abc'"),
    (FIT_COMMAND, "pcf: known\npcf_sigma2: true\npcf_phi: 0.2",
     "pcf_sigma2 must be a number or null, got True"),
    (FIT_COMMAND, "approx: [quadrature]", "approx must be a string"),
    (["scenario"], "reps: true", "reps must be an integer, got True"),
    (["scenario"], "base_seed: false", "base_seed must be an integer, got False"),
    (["scenario"], "skip_thinning: 'false'", "skip_thinning must be true or false"),
    (["scenario"], "bandwidth: '0.3'", "bandwidth must be a number or null"),
    (["scenario"], "window: [W1]", "window must be a string, got \\['W1'\\]"),
    (["scenario"], "nuisance: {a: 1}", "nuisance must be a string"),
    (["scenario"], "estimators: [semi, 1]", "estimators must be a list of strings"),
], ids=["fit_seed_bool", "fit_folds_bool", "fit_skip_thinning_str", "fit_bandwidth_str",
        "fit_bandwidth_c0_str", "fit_pcf_sigma2_bool", "fit_approx_list", "scenario_reps_bool",
        "scenario_base_seed_bool", "scenario_skip_thinning_str", "scenario_bandwidth_str",
        "scenario_window_list", "scenario_nuisance_map", "scenario_estimators_int"])
def test_config_value_of_the_wrong_type_fails_before_any_work(no_replication, monkeypatch,
                                                              tmp_path, command, yaml_text,
                                                              message):
    # a bool is no integer and a string no number or flag: the error names the key,
    # before ``fit`` reads an input and before ``scenario`` simulates a replication
    def fail(*args, **kwargs):
        raise AssertionError("an input file was read before the options were checked")

    monkeypatch.setattr(ppcf.harness, "read_pattern_file", fail)
    monkeypatch.setattr(ppcf.harness, "read_grid_file", fail)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml_text + "\n")
    with pytest.raises(ValueError, match=message):
        cli_main(command + ["--config", str(config), "--out", str(tmp_path / "o" / "out")])
    assert not (tmp_path / "o").exists()


def test_empty_config_is_no_options(tmp_path):
    config = tmp_path / "empty.yaml"
    config.write_text("")
    assert resolve_fit_options(config) == resolve_fit_options()


@pytest.mark.parametrize("argv", [
    ["table", "--table", "2", "--parallelism", "0"],
    ["scenario", "--parallelism", "-1"],
], ids=["table", "scenario"])
def test_nonpositive_parallelism_fails_before_simulating(no_replication, tmp_path, argv):
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        cli_main(argv + ["--out", str(tmp_path / "out.csv")])


@pytest.mark.parametrize("argv", [
    ["table", "--table", "2", "--parallelism", "0"],
    ["scenario", "--parallelism", "-1"],
], ids=["table", "scenario"])
def test_nonpositive_parallelism_makes_no_directory(no_replication, tmp_path, argv):
    # the worker count is checked before the parent directory of --out is made
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        cli_main(argv + ["--out", str(tmp_path / "a" / "b" / "out.csv")])
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("seed", [["--seed", "0"], []], ids=["seed0", "default-seed"])
def test_simulate_rejects_a_negative_rep_before_making_the_directory(no_replication, monkeypatch,
                                                                    tmp_path, seed):
    monkeypatch.delenv("PPCF_SEED", raising=False)
    out_dir = tmp_path / "sim"
    with pytest.raises(ValueError, match="rep must be >= 0, got -1"):
        cli_main(["simulate", "--rep", "-1", "--out-dir", str(out_dir)] + seed)
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["fit", ""], ids=["file", "directory"])
def test_fit_out_into_a_new_nested_directory(monkeypatch, tmp_path, fit_files, name):
    # the directory is made before the fit, so the fit is not lost at the write; a
    # prefix ending in a separator names the directory the files go into
    monkeypatch.delenv("PPCF_SEED", raising=False)
    prefix = f"{tmp_path / 'a' / 'b'}{os.sep}{name}"
    assert cli_main(["fit", fit_files["pattern"], "--y-grid", fit_files["y0"], "--z-grid",
                     fit_files["z0"], "--grid-n", "32", "--out", prefix]) == 0
    for suffix in ("_summary.csv", "_summary.jsonl", "_eta.csv"):
        assert Path(f"{prefix}{suffix}").is_file()


@pytest.mark.parametrize("argv", [
    ["table", "--table", "2"],
    ["scenario"],
], ids=["table", "scenario"])
def test_out_into_a_new_nested_directory(monkeypatch, tmp_path, capsys, argv):
    # the directory is made before the run, so the run is not lost at the write
    monkeypatch.delenv("PPCF_SEED", raising=False)
    out = tmp_path / "a" / "b" / "run.csv"
    assert cli_main(argv + ["--reps", "1", "--out", str(out)]) == 0
    assert out.is_file() and Path(f"{out}.jsonl").is_file()
    if argv[0] == "table":
        assert re.fullmatch(rf"wrote 8 rows to {re.escape(str(out))} in \d+\.\d s\n",
                            capsys.readouterr().out)


def test_fit_with_two_nuisance_grids(monkeypatch, tmp_path):
    # q = 2 end to end: a W1 LGCP data set with a second nuisance grid from its own
    # seed, fitted through the dense kernel rows; theta and SE as recorded from the
    # per-dimension difference rows the Gram rows replaced
    monkeypatch.delenv("PPCF_SEED", raising=False)
    s = Scenario(window="W1", process="lgcp", covariates="ind", nuisance="linear",
                 reps=1, base_seed=310_000)
    paths = emit_scenario_files(s, 0, tmp_path)
    n_lat = int(round(ppcf.harness.LATTICE_PER_UNIT * s.the_window().width))
    z1_seed = int(np.random.SeedSequence([s.base_seed, 0]).generate_state(1)[0])
    write_grid_file(simulate_grf(s.the_window(), n_lat, n_lat, ppcf.harness.COVARIATE_GRF,
                                 z1_seed), tmp_path / "z1.txt")
    prefix = tmp_path / "fit"
    assert cli_main(["fit", paths["pattern"], "--y-grid", paths["y0"], "--z-grid", paths["z0"],
                     "--z-grid", str(tmp_path / "z1.txt"), "--grid-n", "32", "--pcf", "estimated",
                     "--seed", "0", "--out", str(prefix)]) == 0
    rec = json.loads(Path(f"{prefix}_summary.jsonl").read_text().splitlines()[0])
    assert np.allclose(rec["theta"], [0.3682305651399065], rtol=1e-12, atol=0)
    assert np.allclose(rec["se"], [0.07256927577741033], rtol=1e-12, atol=0)
    assert rec["pcf"]["family"] == "lgcp-exponential"


def test_scenario_out_keeps_the_replication_records(monkeypatch, tmp_path):
    # ``scenario --out`` writes its records to ``<out>.jsonl`` as ``table`` does
    monkeypatch.delenv("PPCF_SEED", raising=False)
    out = tmp_path / "cell.csv"
    assert cli_main(["scenario", "--reps", "2", "--seed", "44", "--out", str(out)]) == 0
    s = Scenario(reps=2, base_seed=44)
    expected = [json.loads(json.dumps(run_replication(s, rep))) for rep in range(2)]
    lines = Path(f"{out}.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == expected


def test_unknown_config_keys_rejected(monkeypatch, tmp_path, fit_files):
    with pytest.raises(ValueError, match="unknown config keys"):
        _fit_config(monkeypatch, fit_files, [], "folds: 2\nfold: 3\n", tmp_path)
    with pytest.raises(ValueError, match="unknown config keys"):
        _scenario(monkeypatch, [], "covar: dep\n", tmp_path)


@pytest.mark.parametrize("argv", [
    ["table", "--table", "2", "--folds", "3"],
    ["table", "--table", "2", "--bandwidth", "0.1"],
    ["table", "--table", "2", "--kernel-order", "4"],
    ["table", "--table", "2", "--approx", "logistic"],
    ["table", "--table", "2", "--skip-thinning"],
    ["table", "--table", "2", "--pcf", "known"],
    ["simulate", "--out-dir", "d", "--approx", "logistic"],
    ["simulate", "--out-dir", "d", "--reps", "5"],
    ["simulate", "--out-dir", "d", "--folds", "3"],
    ["simulate", "--out-dir", "d", "--bandwidth", "0.1"],
    ["simulate", "--out-dir", "d", "--kernel-order", "4"],
    ["simulate", "--out-dir", "d", "--skip-thinning"],
    ["simulate", "--out-dir", "d", "--pcf", "none"],
    ["simulate", "--out-dir", "d", "--parallelism", "2"],
    ["fit", "p.txt", "--y-grid", "y", "--z-grid", "z", "--reps", "5"],
    ["fit", "p.txt", "--y-grid", "y", "--z-grid", "z", "--parallelism", "2"],
])
def test_flags_a_subcommand_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("call, message", [
    (lambda out: emit_scenario_files(Scenario(reps=1), True, out), "rep must be an integer"),
    (lambda out: run_scenario_records(Scenario(reps=1), 1.5), "parallelism must be an integer"),
    (lambda out: run_table(2, out / "t2.csv", reps=1, parallelism=True),
     "parallelism must be an integer, got True"),
], ids=["rep_bool", "parallelism_float", "table_parallelism_bool"])
def test_non_integer_counts_fail_before_any_work(no_replication, tmp_path, call, message):
    # a bool is no replication index and 1.5 no worker count: each fails before a
    # directory is made, a replication simulated or a pool started
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        call(out)
    assert not out.exists()


def test_non_integer_ppcf_seed_fails_before_any_work(no_replication, monkeypatch, tmp_path):
    monkeypatch.setenv("PPCF_SEED", "abc")
    out_dir = tmp_path / "sim"
    with pytest.raises(ValueError, match="PPCF_SEED must be an integer, got 'abc'"):
        cli_main(["simulate", "--out-dir", str(out_dir)])
    assert not out_dir.exists()


def test_parser_choices_are_the_owners_tables():
    # a value added to its owner's table (a window, a process, ...) needs no CLI edit
    owners = {"--window": WINDOWS, "--process": PROCESSES, "--covar": COVARIATE_DESIGNS,
              "--nuisance": NUISANCE_FNS, "--kernel-order": KERNELS,
              "--approx": APPROXIMATIONS, "--pcf": PCF_MODES, "--table": TABLES}
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for p in sub.choices.values():
        for action in p._actions:
            for flag in set(action.option_strings) & set(owners):
                assert list(action.choices) == list(owners[flag]), flag
                seen.add(flag)
    assert seen == set(owners)


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "x"],
    ["fit", "p.txt", "--y-grid", "y", "--z-grid", "z", "--band", "0.1"],
])
def test_abbreviated_flags_are_rejected(argv):
    # only exact spellings: a unique prefix of --out-dir or --bandwidth is an error
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


# -- the README's CLI section -------------------------------------------------------


def _cli_section() -> str:
    text = README.read_text()
    start = text.index("\n## CLI\n")
    return text[start:text.index("\n## ", start + 1)]


def _blocks(lang: str):
    return re.findall(rf"```{lang}\n(.*?)```", _cli_section(), flags=re.S)


def _subcommand_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings if s != "--help"} - {"-h"}
            for name, p in sub.choices.items()}


def test_readme_commands_parse():
    commands = [line for block in _blocks("bash")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ppcf ")]
    assert {shlex.split(c)[1] for c in commands} == {"simulate", "fit", "table", "scenario"}
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_readme_flag_table_matches_parser():
    rows = re.findall(r"^\| `(\w+)` +\| (.+) \|$", _cli_section(), flags=re.M)
    documented = {name: set(re.findall(r"--[\w-]+", flags)) for name, flags in rows}
    assert documented == _subcommand_flags()


def test_readme_fit_yaml_loads_through_the_merge(tmp_path):
    fit_yaml = _blocks("yaml")[0]
    path = tmp_path / "fit.yaml"
    path.write_text(fit_yaml)
    opts, cfg, pcf = resolve_fit_options(path)
    assert cfg == CrossFitConfig(n_folds=2, bandwidth=None, kernel_order=2, grid_n=64,
                                 approximation="quadrature", skip_thinning=False)
    assert opts["seed"] == 7
    assert opts["levels"] == [0.9, 0.95] and pcf.family == "poisson"


def test_readme_scenario_yaml_loads_through_the_merge(monkeypatch, tmp_path):
    monkeypatch.delenv("PPCF_SEED", raising=False)
    scenario_yaml = _blocks("yaml")[1]
    s = _scenario(monkeypatch, [], scenario_yaml, tmp_path)
    assert s == Scenario(window="W1", process="lgcp", covariates="dep", nuisance="poly",
                         estimators=("semi", "para", "oracle"), base_seed=11, reps=50,
                         pcf_mode="known")


def test_cli_import_loads_no_scipy_module():
    # a fresh interpreter: the package's imports alone decide what is loaded, and
    # ppcf needs NumPy and PyYAML only (SciPy is a test dependency)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, ppcf.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
