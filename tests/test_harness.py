import csv
import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import FIT_ERRORS

from ppcf.cli import main as cli_main
from ppcf.crossfit import CrossFitConfig, cross_fit
from ppcf.errors import (
    InsufficientPointsError,
    NonConvergenceError,
    WindowMismatchError,
)
from ppcf.fields import GridField, Window, read_grid_file, simulate_grf, write_grid_file
from ppcf.harness import (
    COVARIATE_GRF,
    HARNESS_BANDWIDTH_C0,
    LATTICE_PER_UNIT,
    Scenario,
    _wald_reports,
    emit_scenario_files,
    fit_file,
    fit_pattern,
    run_replication,
    run_scenario_records,
    run_table,
    simulate_scenario_inputs,
)
from ppcf.inference import PcfModel, sandwich_terms
from ppcf.model import ModelSpec, build_quadrature
from ppcf.nuisance import KernelSpec
from ppcf.process import PointPattern, read_pattern_file, write_pattern_file

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
    for estimators in ((), ("semi", "semi")):
        with pytest.raises(ValueError, match="estimators must be"):
            Scenario(estimators=estimators)
    with pytest.raises(ValueError, match="base_seed must be >= 0"):
        Scenario(base_seed=-5)
    for name in ("reps", "base_seed"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Scenario(**{name: 1.5})
    assert Scenario(reps=np.int64(3), base_seed=np.uint32(5)).reps == 3


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


def test_fit_errors_are_the_ten_a_fit_can_raise():
    assert {cls.__name__ for cls in FIT_ERRORS} == {
        "NonConvergenceError", "SingularHessianError", "SingularSensitivityError",
        "ZeroMassError", "ZeroDenominatorError", "NonpositiveIntensityError",
        "InsufficientPointsError", "BoundViolationError", "DecompositionError",
        "NonFiniteFieldError"}


@pytest.mark.parametrize("error", FIT_ERRORS)
def test_field_failure_is_a_failed_replication(monkeypatch, error):
    import ppcf.harness

    def broken(s, rep):
        raise error("injected")

    monkeypatch.setattr(ppcf.harness, "simulate_scenario_inputs", broken)
    rec = run_replication(Scenario(reps=1), 0)
    assert rec == {"rep": 0, "ok": False, "error": f"{error.__name__}: injected"}


def test_plain_value_error_propagates_out_of_a_replication(monkeypatch):
    import ppcf.harness

    def broken(s, rep):
        raise ValueError("injected")

    monkeypatch.setattr(ppcf.harness, "simulate_scenario_inputs", broken)
    with pytest.raises(ValueError, match="injected"):
        run_replication(Scenario(reps=1), 0)


def test_empty_pattern_is_a_typed_failed_replication(monkeypatch):
    import ppcf.harness
    simulate = ppcf.harness.simulate_scenario_inputs

    def empty(s, rep):
        spec, eta, pattern, seeds = simulate(s, rep)
        return spec, eta, PointPattern(pattern.window, np.empty((0, 2))), seeds

    monkeypatch.setattr(ppcf.harness, "simulate_scenario_inputs", empty)
    rec = run_replication(Scenario(reps=1), 0)
    assert rec == {"rep": 0, "ok": False, "error": "InsufficientPointsError: empty pattern"}


def test_records_deterministic_across_parallelism():
    s = Scenario(reps=4, base_seed=77, estimators=("semi",))
    _, rec1 = run_scenario_records(s, parallelism=1)
    _, rec2 = run_scenario_records(s, parallelism=2)
    assert json.dumps(rec1, sort_keys=True) == json.dumps(rec2, sort_keys=True)


def test_replication_reads_each_field_at_the_lattice_once(monkeypatch):
    # the six quadratures of a W1 Poisson replication (per fold a nuisance and a
    # fit quadrature, the full-pattern nuisance, the sandwich) share one lattice
    calls = []
    read = GridField.evaluate_points

    def spy(self, points):
        calls.append((self, np.array(points, dtype=float).reshape(-1, 2)))
        return read(self, points)

    monkeypatch.setattr(GridField, "evaluate_points", spy)
    s = Scenario(reps=1)
    assert run_replication(s, 0)["ok"]
    grid_n = s.crossfit.grid_n
    lattice = build_quadrature(PointPattern(s.the_window(), np.empty((0, 2))), grid_n).nodes
    key = lambda pts: pts[:, 0] + 1j * pts[:, 1]
    seen = {}
    for field, pts in calls:
        seen[field] = seen.get(field, 0) + int(np.isin(key(pts), key(lattice)).sum())
    assert len(seen) == 2 and all(count == grid_n ** 2 for count in seen.values())


@pytest.mark.parametrize("cell", [
    dict(window="W1", process="poisson", covariates="ind", nuisance="linear",
         pcf_mode="none", estimators=("semi",)),
    dict(window="W2", process="lgcp", covariates="dep", nuisance="poly",
         pcf_mode="estimated", estimators=("semi", "para", "oracle")),
], ids=["w1-poisson", "w2-lgcp"])
def test_q1_replications_build_no_dense_kernel_rows(monkeypatch, cell):
    # q = 1 replications read the nuisance off the binned grid, so work on the dense
    # kernel rows of q >= 2 cannot move Monte Carlo records
    calls = []
    rows = KernelSpec.rows

    def spy(self, operand, Z, floor=None):
        calls.append(Z.shape)
        return rows(self, operand, Z, floor)

    monkeypatch.setattr(KernelSpec, "rows", spy)
    assert run_replication(Scenario(reps=1, **cell), 0)["ok"]
    assert calls == []


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
    quad = build_quadrature(PointPattern(Window(0, 0, 1, 1), rng.uniform(size=(40, 2))), 16)
    fits = {}
    for name, p in (("semi", 1), ("para", 3), ("oracle", 1)):
        S, a = sandwich_terms(quad, np.full(quad.m(), 50.0), rng.normal(size=(quad.m(), p)))
        fits[name] = (rng.normal(size=p), S, a)
    pcfs = {"known": PcfModel(sigma2=0.2, phi=0.05)}
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
    ({"grid_n": 2}, "grid_n must be >= 4"),
    ({"bandwidth_c0": 0.0}, "bandwidth_c0 must be finite and > 0"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"pcf": "known", "pcf_sigma2": math.nan, "pcf_phi": 0.1}, "sigma2 must be finite and >= 0"),
    ({"pcf": "known", "pcf_sigma2": math.inf, "pcf_phi": 0.1}, "sigma2 must be finite and >= 0"),
    ({"pcf": "known", "pcf_sigma2": -0.1, "pcf_phi": 0.1}, "sigma2 must be finite and >= 0"),
    ({"pcf": "known", "pcf_sigma2": 0.2, "pcf_phi": math.inf}, "phi must be finite and > 0"),
    ({"pcf": "known", "pcf_sigma2": 0.2, "pcf_phi": math.nan}, "phi must be finite and > 0"),
    ({"pcf": "known", "pcf_sigma2": 0.2, "pcf_phi": 0.0}, "phi must be finite and > 0"),
    ({"grid_n": 32.5}, "grid_n must be an integer"),
    ({"folds": 2.5}, "n_folds must be an integer"),
    ({"kernel_order": 2.0}, "kernel_order must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"levels": 0.9}, "levels must lie in"),
    ({"levels": ["a"]}, "levels must lie in"),
    ({"levels": [True]}, "levels must lie in"),
    ({"bandwidth": math.inf}, "bandwidth must be > 0 and finite"),
    ({"bandwidth": -math.inf}, "bandwidth must be > 0 and finite"),
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
    from ppcf.fields import GridField, Window
    shrunk = GridField(Window(0, 0, 0.5, 0.5), grid.nx, grid.ny, grid.values)
    bad = tmp_path / "z_bad.txt"
    write_grid_file(shrunk, bad)
    with pytest.raises(WindowMismatchError):
        fit_file(paths["pattern"], [paths["y0"]], [bad])


def test_fit_file_rewindows_a_pattern_inside_the_grids(tmp_path):
    # a pattern whose header window is wider than the grids' is fitted on the grids'
    # window when every point lies inside it, as if written under that window
    s = Scenario(window="W1", reps=1, base_seed=555)
    paths = emit_scenario_files(s, 0, tmp_path)
    points = read_pattern_file(paths["pattern"]).points
    wide = tmp_path / "wide.txt"
    write_pattern_file(PointPattern(Window(-0.5, -0.5, 1.5, 1.5), points), wide)
    grids = [paths["y0"]], [paths["z0"]]
    options = {"grid_n": 32, "seed": 3}
    for pattern, prefix in ((paths["pattern"], "same"), (wide, "wide")):
        fit_file(pattern, *grids, overrides=options, out_prefix=str(tmp_path / prefix))
    for suffix in ("_summary.csv", "_summary.jsonl"):
        assert ((tmp_path / f"wide{suffix}").read_bytes()
                == (tmp_path / f"same{suffix}").read_bytes())
    # one point outside the grids' window
    outside = np.vstack([points, [[1.25, 0.5]]])
    write_pattern_file(PointPattern(Window(-0.5, -0.5, 1.5, 1.5), outside), wide)
    with pytest.raises(WindowMismatchError, match="outside the grid window"):
        fit_file(wide, *grids, overrides=options)


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


# -- the one fit path ---------------------------------------------------------------

FALLBACK = "degenerate PCF fit; returning Poisson family"


def _poisson_fallback(pattern, lam):
    warnings.warn(FALLBACK)
    return PcfModel()


def test_pcf_fallback_is_recorded_by_replications(monkeypatch):
    import ppcf.harness

    monkeypatch.setattr(ppcf.harness, "estimate_pcf", _poisson_fallback)
    s = Scenario(reps=1, base_seed=4040, pcf_mode="estimated")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_replication(s, 0)
    assert rec["pcf_warnings"] == [FALLBACK]
    assert rec["estimators"]["semi"]["variants"]["estimated"]["pcf_family"] == "poisson"


def test_pcf_fallback_is_shown_and_written_by_fit_file(monkeypatch, tmp_path):
    import ppcf.harness

    monkeypatch.setattr(ppcf.harness, "estimate_pcf", _poisson_fallback)
    paths = emit_scenario_files(Scenario(window="W1", reps=1, base_seed=555), 0, tmp_path)
    with pytest.warns(UserWarning, match=FALLBACK) as shown:
        fit_file(paths["pattern"], [paths["y0"]], [paths["z0"]],
                 overrides={"grid_n": 32, "pcf": "estimated"}, out_prefix=str(tmp_path / "fit"))
    assert [str(w.message) for w in shown] == [FALLBACK]
    summary = json.loads((tmp_path / "fit_summary.jsonl").read_text())
    assert summary["diagnostics"]["pcf_warnings"] == [FALLBACK]
    assert list(summary["diagnostics"])[:3] == ["fold_convergence", "n_points", "clip_counts"]


def test_warnings_before_the_pcf_fit_reach_the_caller(monkeypatch):
    import ppcf.harness

    real_cross_fit = ppcf.harness.cross_fit

    def warn_first(*args):
        warnings.warn("raised in the cross-fit", RuntimeWarning)
        return real_cross_fit(*args)

    monkeypatch.setattr(ppcf.harness, "estimate_pcf", _poisson_fallback)
    monkeypatch.setattr(ppcf.harness, "cross_fit", warn_first)
    with pytest.warns(RuntimeWarning, match="raised in the cross-fit") as shown:
        rec = run_replication(Scenario(reps=1, base_seed=4040, pcf_mode="estimated"), 0)
    assert [str(w.message) for w in shown] == ["raised in the cross-fit"]
    assert rec["ok"] and rec["pcf_warnings"] == [FALLBACK]


def test_fold_errors_are_recorded(monkeypatch):
    import ppcf.crossfit

    real_maximize = ppcf.crossfit.profile_maximize
    calls = []

    def fail_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise NonConvergenceError("injected")
        return real_maximize(*args)

    monkeypatch.setattr(ppcf.crossfit, "profile_maximize", fail_first)
    s = Scenario(reps=1, base_seed=4040, crossfit=replace(Scenario().crossfit, n_folds=2))
    rec = run_replication(s, 0)
    assert rec["ok"]
    assert rec["fold_convergence"] == [False, True]
    assert rec["fold_errors"] == ["NonConvergenceError: injected", None]
    assert len(rec["clip_counts"]) == 2


@pytest.mark.parametrize("process, pcf", [
    ("poisson", {"pcf": "none"}),
    ("lgcp", {"pcf": "known", "pcf_sigma2": 0.2, "pcf_phi": 0.2}),
])
def test_fit_file_agrees_with_run_replication(tmp_path, process, pcf):
    # the same pattern, configuration and thinning seed give the same theta and SE
    s = Scenario(window="W1", process=process, pcf_mode=pcf["pcf"], reps=1, base_seed=2024)
    rec = run_replication(s, 0)
    (variant, summary), = rec["estimators"]["semi"]["variants"].items()
    paths = emit_scenario_files(s, 0, tmp_path)
    seeds = simulate_scenario_inputs(s, 0)[3]
    report = fit_file(paths["pattern"], [paths["y0"]], [paths["z0"]], overrides={
        **pcf, "grid_n": s.crossfit.grid_n, "bandwidth_c0": s.crossfit.bandwidth_c0,
        "seed": seeds[2] ^ 0x9E3779B9})
    assert variant == pcf["pcf"]
    assert float(report.theta_hat[0]) == rec["estimators"]["semi"]["theta"]
    assert float(report.se[0]) == summary["se"]
    assert report.diagnostics["fold_convergence"] == rec["fold_convergence"]


def test_two_targets_end_to_end(tmp_path):
    # k = 2: fit_pattern reports both target coordinates, and fit_file on the same
    # files writes both to its summary with the same theta and SE
    s = Scenario(window="W1", reps=1, base_seed=555)
    paths = emit_scenario_files(s, 0, tmp_path)
    n_lat = int(round(LATTICE_PER_UNIT * s.the_window().width))
    write_grid_file(simulate_grf(s.the_window(), n_lat, n_lat, COVARIATE_GRF, 77),
                    tmp_path / "y1.txt")
    y_paths = [paths["y0"], str(tmp_path / "y1.txt")]
    spec = ModelSpec([read_grid_file(p) for p in y_paths], [read_grid_file(paths["z0"])])
    fit = fit_pattern(spec, read_pattern_file(paths["pattern"]), CrossFitConfig(grid_n=32), 5,
                      {"fit": PcfModel()})
    report = fit.reports["semi"]["fit"]
    assert report.theta_hat.shape == report.se.shape == (2,)
    assert all(arr.shape == (2, 2) for arr in report.ci.values())

    prefix = tmp_path / "fit"
    from_file = fit_file(paths["pattern"], y_paths, [paths["z0"]], out_prefix=str(prefix),
                         overrides={"grid_n": 32, "seed": 5})
    assert np.array_equal(from_file.theta_hat, report.theta_hat)
    assert np.array_equal(from_file.se, report.se)
    (row,) = read_table_csv(f"{prefix}_summary.csv")
    assert list(row) == [f"{col}_{i}" for i in range(2) for col in
                         ("theta", "se", "ci90_lo", "ci90_hi", "ci95_lo", "ci95_hi")] + [
                             "pcf_family", "pcf_sigma2", "pcf_phi"]
    assert [row["theta_0"], row["theta_1"]] == report.theta_hat.tolist()
    assert [row["se_0"], row["se_1"]] == report.se.tolist()


def test_oracle_without_its_curve_is_rejected():
    # with no known eta the oracle would silently be the linear parametric fit
    spec, _, pattern, _ = simulate_scenario_inputs(Scenario(reps=1, base_seed=555), 0)
    with pytest.raises(ValueError, match="oracle estimator needs eta_true"):
        fit_pattern(spec, pattern, CrossFitConfig(grid_n=32), 0, {"none": PcfModel()},
                    estimators=("oracle",))


DIAGNOSTICS = ["fold_convergence", "n_points", "clip_counts", "fold_errors", "pcf_warnings"]


def test_replication_record_layout_is_pinned():
    # the sidecar's bytes follow the key order of the records, so it is pinned here
    s = Scenario(window="W1", process="lgcp", pcf_mode="estimated", reps=1, base_seed=808,
                 estimators=("semi", "para", "oracle"))
    rec = json.loads(json.dumps(run_replication(s, 0)))
    assert list(rec) == ["rep", "ok", *DIAGNOSTICS, "estimators"]
    assert list(rec["estimators"]) == ["semi", "para", "oracle"]
    for entry in rec["estimators"].values():
        assert list(entry) == ["theta", "variants"]
        assert list(entry["variants"]) == ["estimated", "known"]
        for variant in entry["variants"].values():
            assert list(variant) == ["se", "hit90", "hit95", "pcf_sigma2", "pcf_phi",
                                     "pcf_family"]


def test_record_has_a_hit_per_interval_level():
    s = Scenario(reps=1, base_seed=555)
    spec, _, pattern, _ = simulate_scenario_inputs(s, 0)
    fit = fit_pattern(spec, pattern, s.crossfit, 0, {"none": PcfModel()}, levels=(0.8, 0.99))
    hi80, hi99 = (arr[0, 1] for arr in fit.reports["semi"]["none"].ci.values())
    variant = fit.record(hi80)["estimators"]["semi"]["variants"]["none"]
    assert list(variant) == ["se", "hit80", "hit99", "pcf_sigma2", "pcf_phi", "pcf_family"]
    assert variant["hit80"] and variant["hit99"]
    assert not fit.record(hi99 + 1.0)["estimators"]["semi"]["variants"]["none"]["hit99"]


def test_fit_summary_layout_is_pinned(tmp_path):
    paths = emit_scenario_files(Scenario(window="W1", reps=1, base_seed=555), 0, tmp_path)
    fit_file(paths["pattern"], [paths["y0"]], [paths["z0"]], overrides={"grid_n": 32},
             out_prefix=str(tmp_path / "fit"))
    summary = json.loads((tmp_path / "fit_summary.jsonl").read_text())
    assert list(summary) == ["theta", "se", "ci", "pcf", "diagnostics"]
    assert list(summary["ci"]) == ["0.9", "0.95"]
    assert list(summary["pcf"]) == ["family", "sigma2", "phi"]
    assert list(summary["diagnostics"]) == [*DIAGNOSTICS, "min_eigenvalue_S", "area"]
