import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from ppcf.cli import main as cli_main
from ppcf.crossfit import CrossFitConfig, cross_fit
from ppcf.errors import (
    DecompositionError,
    InsufficientPointsError,
    NonFiniteFieldError,
    WindowMismatchError,
)
from ppcf.fields import make_window, read_grid_file, write_grid_file
from ppcf.harness import (
    HARNESS_BANDWIDTH_C0,
    Scenario,
    _wald_reports,
    emit_scenario_files,
    fit_file,
    run_replication,
    run_scenario_records,
    run_table,
    simulate_scenario_inputs,
)
from ppcf.inference import PcfModel, sandwich_terms
from ppcf.model import build_quadrature
from ppcf.process import PointPattern

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def read_table_csv(path):
    """Rows of a table CSV with ints, floats and None parsed back."""
    with open(path, newline="") as fh:
        out = []
        for row in csv.DictReader(fh):
            parsed = {}
            for k, v in row.items():
                if v in ("", "None"):
                    parsed[k] = None
                else:
                    try:
                        parsed[k] = int(v)
                    except ValueError:
                        try:
                            parsed[k] = float(v)
                        except ValueError:
                            parsed[k] = v
            out.append(parsed)
        return out


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(window="W9")
    with pytest.raises(ValueError):
        Scenario(process="strauss")
    with pytest.raises(ValueError):
        Scenario(estimators=("semi", "magic"))


def test_scenario_holds_the_harness_crossfit():
    # by default the harness configuration for the window; a given one is kept as is
    for window, grid_n in (("W1", 64), ("W2", 128)):
        assert Scenario(window=window).crossfit == CrossFitConfig(
            bandwidth_c0=HARNESS_BANDWIDTH_C0, grid_n=grid_n)
    given = replace(Scenario(window="W2").crossfit, n_folds=3)
    assert Scenario(window="W1", crossfit=given).crossfit is given


def test_single_rep_degenerate_row():
    s = Scenario(reps=1, base_seed=321, estimators=("semi",))
    rows = run_scenario_records(s, parallelism=1)[0]
    row = rows["semi"]
    rec = run_replication(s, 0)
    theta = rec["estimators"]["semi"]["theta"]
    assert abs(row.bias_x100 - 100.0 * (theta - 0.3)) < 1e-9
    assert abs(row.rmse - abs(theta - 0.3)) < 1e-12
    assert row.reps_converged == 1
    assert row.rmse >= abs(row.bias_x100) / 100.0 - 1e-15


@pytest.mark.parametrize("error", [DecompositionError, NonFiniteFieldError])
def test_field_failure_is_a_failed_replication(monkeypatch, error):
    import ppcf.harness

    def broken(s, rep):
        raise error("injected")

    monkeypatch.setattr(ppcf.harness, "simulate_scenario_inputs", broken)
    rec = run_replication(Scenario(reps=1), 0)
    assert rec == {"rep": 0, "ok": False, "error": f"{error.__name__}: injected"}


def test_records_deterministic_across_parallelism():
    s = Scenario(reps=4, base_seed=77, estimators=("semi",))
    _, rec1 = run_scenario_records(s, parallelism=1)
    _, rec2 = run_scenario_records(s, parallelism=2)
    assert json.dumps(rec1, sort_keys=True) == json.dumps(rec2, sort_keys=True)


def test_run_table_shapes_and_roundtrip(tmp_path):
    out2 = tmp_path / "t2.csv"
    rows2 = run_table(2, reps=2, parallelism=2, out_path=out2, base_seed=10)
    assert len(rows2) == 8
    parsed = read_table_csv(out2)
    assert len(parsed) == 8
    for raw, back in zip(rows2, parsed):
        for key, val in raw.items():
            if isinstance(val, float):
                assert back[key] == val
            else:
                assert str(back[key]) == str(val)
    assert (tmp_path / "t2.csv.jsonl").exists()

    out4 = tmp_path / "t4.csv"
    rows4 = run_table(4, reps=2, parallelism=2, out_path=out4, base_seed=11)
    assert len(rows4) == 12
    assert {r["estimator"] for r in rows4} == {"Semi", "Para", "Oracle"}


def test_run_table3_has_starred_columns(tmp_path):
    out3 = tmp_path / "t3.csv"
    rows3 = run_table(3, reps=2, parallelism=2, out_path=out3, base_seed=12)
    assert len(rows3) == 8
    for r in rows3:
        assert r["mean_se_star"] is not None
        assert r["cp90_star"] is not None and r["cp95_star"] is not None


def test_oracle_estimator_coverage():
    s = Scenario(window="W1", covariates="dep", nuisance="poly", reps=150,
                 base_seed=3030, estimators=("oracle",))
    rows = run_scenario_records(s, parallelism=2)[0]
    row = rows["oracle"]
    assert 89.0 <= row.cp95 <= 99.5
    assert abs(row.bias_x100) < 2.0


def test_stacked_wald_reports_match_separate_estimators():
    # one double sum over the stacked a-vectors gives each estimator its own block
    rng = np.random.default_rng(8)
    quad = build_quadrature(PointPattern(make_window(0, 0, 1, 1), rng.uniform(size=(40, 2))), 16)
    fits = {}
    for name, p in (("semi", 1), ("para", 3), ("oracle", 1)):
        S, a = sandwich_terms(quad, np.full(quad.m(), 50.0), rng.normal(size=(quad.m(), p)))
        fits[name] = (rng.normal(size=p), S, a)
    pcfs = {"known": PcfModel("lgcp-exponential", sigma2=0.2, phi=0.05)}
    stacked = _wald_reports(fits, pcfs, quad, 1)
    for name, fit in fits.items():
        alone = _wald_reports({name: fit}, pcfs, quad, 1)[name]["known"]
        assert np.allclose(stacked[name]["known"].Sigma_hat, alone.Sigma_hat, rtol=1e-10, atol=0)
        assert stacked[name]["known"].se.shape == (1,)
        assert np.allclose(stacked[name]["known"].se, alone.se, rtol=1e-10, atol=0)


def test_fit_file_roundtrip_bit_exact(tmp_path):
    s = Scenario(window="W1", reps=1, base_seed=555)
    paths = emit_scenario_files(s, 0, tmp_path)
    spec, _, pattern, _ = simulate_scenario_inputs(s, 0)

    cfg = CrossFitConfig(n_folds=2, grid_n=32, bandwidth_c0=1.0)
    res_mem = cross_fit(spec, pattern, cfg, 999)
    report = fit_file(paths["pattern"], [paths["y0"]], [paths["z0"]],
                      overrides={"seed": 999, "grid_n": 32, "folds": 2},
                      out_prefix=str(tmp_path / "fit"))
    assert report.theta_hat[0] == res_mem.theta_hat[0]
    assert (tmp_path / "fit_summary.csv").exists()
    assert (tmp_path / "fit_eta.csv").exists()
    eta_rows = (tmp_path / "fit_eta.csv").read_text().strip().splitlines()
    assert len(eta_rows) == 201  # header + 200 grid points


@pytest.mark.parametrize("options, message", [
    ({"pcf": "guessed"}, "unknown pcf mode"),
    ({"pcf": "known", "pcf_sigma2": 0.2}, "requires pcf_sigma2 and pcf_phi"),
    ({"levels": [0.9, 1.0]}, "levels must lie in"),
    ({"levels": [0.0]}, "levels must lie in"),
    ({"folds": 1}, "n_folds must be >= 2"),
    ({"kernel_order": 3}, "no kernel of order 3"),
    ({"bandwidth": 0}, "bandwidth must be > 0"),
])
def test_fit_file_rejects_bad_options_before_reading(monkeypatch, tmp_path, options, message):
    # no file is read and no fold is fitted: the input paths do not even exist
    import ppcf.harness

    def fail(*args, **kwargs):
        raise AssertionError("cross_fit called before the options were checked")

    monkeypatch.setattr(ppcf.harness, "cross_fit", fail)
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(ValueError, match=message):
        fit_file(missing, [missing], [missing], overrides=options)


def test_cli_fit_prints_configured_levels(tmp_path, capsys):
    s = Scenario(window="W1", reps=1, base_seed=555)
    paths = emit_scenario_files(s, 0, tmp_path)
    config = tmp_path / "fit.yaml"
    config.write_text("levels: [0.8]\ngrid_n: 32\n")
    rc = cli_main(["fit", paths["pattern"], "--y-grid", paths["y0"], "--z-grid", paths["z0"],
                   "--config", str(config), "--out", str(tmp_path / "fit")])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert "80% CI = (" in line and "95%" not in line
    summary = json.loads((tmp_path / "fit_summary.jsonl").read_text())
    assert list(summary["ci"]) == ["0.8"]


def test_fit_file_empty_pattern(tmp_path):
    s = Scenario(window="W1", reps=1, base_seed=555)
    paths = emit_scenario_files(s, 0, tmp_path)
    empty = tmp_path / "empty.txt"
    empty.write_text("0.0 0.0 1.0 1.0 0\n")
    with pytest.raises(InsufficientPointsError):
        fit_file(empty, [paths["y0"]], [paths["z0"]])


def test_fit_file_window_mismatch(tmp_path):
    s = Scenario(window="W1", reps=1, base_seed=555)
    paths = emit_scenario_files(s, 0, tmp_path)
    grid = read_grid_file(paths["z0"])
    from ppcf.fields import GridField, make_window
    shrunk = GridField(make_window(0, 0, 0.5, 0.5), grid.nx, grid.ny, grid.values)
    bad = tmp_path / "z_bad.txt"
    write_grid_file(shrunk, bad)
    with pytest.raises(WindowMismatchError):
        fit_file(paths["pattern"], [paths["y0"]], [bad])


def test_cli_simulate_and_fit(tmp_path):
    out_dir = tmp_path / "sim"
    rc = cli_main(["simulate", "--window", "W1", "--seed", "21", "--out-dir",
                   str(out_dir)])
    assert rc == 0
    assert (out_dir / "pattern.txt").exists()
    rc = cli_main(["fit", str(out_dir / "pattern.txt"),
                   "--y-grid", str(out_dir / "y0.txt"),
                   "--z-grid", str(out_dir / "z0.txt"),
                   "--grid-n", "32", "--seed", "5",
                   "--out", str(tmp_path / "cli_fit")])
    assert rc == 0
    assert (tmp_path / "cli_fit_summary.csv").exists()


def test_cli_scenario_writes_csv(tmp_path):
    out = tmp_path / "scen.csv"
    rc = cli_main(["scenario", "--window", "W1", "--reps", "2", "--seed", "44",
                   "--out", str(out)])
    assert rc == 0
    rows = read_table_csv(out)
    assert rows and rows[0]["estimator"] == "semi"


def test_env_seed_overrides_flag(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    old = os.environ.pop("PPCF_SEED", None)
    try:
        cli_main(["simulate", "--seed", "123", "--out-dir", str(out_a)])
        os.environ["PPCF_SEED"] = "123"
        cli_main(["simulate", "--seed", "999", "--out-dir", str(out_b)])
    finally:
        os.environ.pop("PPCF_SEED", None)
        if old is not None:
            os.environ["PPCF_SEED"] = old
    assert (out_a / "pattern.txt").read_text() == (out_b / "pattern.txt").read_text()


def test_lgcp_scenario_runs_and_reports_starred():
    s = Scenario(window="W1", process="lgcp", pcf_mode="estimated", reps=3,
                 base_seed=808, estimators=("semi",))
    rows = run_scenario_records(s, parallelism=1)[0]
    row = rows["semi"]
    assert row.mean_se_star is not None
    assert row.mean_se > 0 and row.mean_se_star > 0
