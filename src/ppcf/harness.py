"""Simulation scenarios, Monte Carlo tables, and file-based fitting.

The scenario engine draws covariate fields and a point pattern, runs the
cross-fitting estimator (plus optional parametric and oracle baselines),
estimates the asymptotic variance under the requested pair-correlation mode,
and aggregates replications into table rows (bias x100, rMSE, mean SE,
CP90/CP95).  Replication r uses seed ``base_seed + r``; records are reduced in
replication order, so results are independent of the worker count.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .crossfit import CrossFitConfig, cross_fit
from .errors import (
    BoundViolationError,
    DecompositionError,
    InsufficientPointsError,
    NonConvergenceError,
    NonFiniteFieldError,
    NonpositiveIntensityError,
    ScenarioInfeasibleError,
    SingularHessianError,
    SingularSensitivityError,
    WindowMismatchError,
    ZeroDenominatorError,
    ZeroMassError,
)
from .fields import GrfSpec, Window, field_product, read_grid_file, simulate_grf, write_grid_file
from .inference import (
    FitReport,
    PcfModel,
    estimate_pcf,
    lfd_values,
    pcf_correction,
    sandwich_terms,
    semi_sandwich_terms,
    wald_report,
)
from .model import (
    ModelSpec,
    build_quadrature,
    fit_parametric_baseline_full,
    log_linear_model,
)
from .nuisance import NuisanceFit
from .process import (
    IntensitySurface,
    PointPattern,
    read_pattern_file,
    simulate_lgcp,
    simulate_poisson,
    write_pattern_file,
)

THETA_STAR = 0.3
BASE_RATE = 400.0
COVARIATE_GRF = GrfSpec(variance=1.0, corr_range=0.05, mean=0.0)
LGCP_GRF = GrfSpec(variance=0.2, corr_range=0.2, mean=0.0)
LATTICE_PER_UNIT = 128
WINDOWS = {"W1": Window(0.0, 0.0, 1.0, 1.0), "W2": Window(0.0, 0.0, 2.0, 2.0)}
GRID_N = {"W1": 64, "W2": 128}
HARNESS_BANDWIDTH_C0 = 0.45

NUISANCE_FNS = {
    "linear": lambda z: 0.3 * z,
    "poly": lambda z: -0.09 * z ** 2,
}


@dataclass(frozen=True)
class Scenario:
    """One cell of the simulation studies.

    ``crossfit`` defaults to the harness configuration for ``window``: the
    rate-rule constant ``HARNESS_BANDWIDTH_C0`` and a ``GRID_N[window]`` grid.
    A given ``crossfit`` is taken as is, so derive one from
    ``replace(Scenario(window=...).crossfit, ...)``.
    """

    window: str = "W1"
    process: str = "poisson"
    covariates: str = "ind"
    nuisance: str = "linear"
    pcf_mode: str = "none"
    reps: int = 200
    base_seed: int = 2024
    estimators: Tuple[str, ...] = ("semi",)
    crossfit: Optional[CrossFitConfig] = None

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ValueError(f"window must be one of {sorted(WINDOWS)}")
        if self.process not in ("poisson", "lgcp"):
            raise ValueError("process must be poisson or lgcp")
        if self.covariates not in ("ind", "dep"):
            raise ValueError("covariates must be ind or dep")
        if self.nuisance not in NUISANCE_FNS:
            raise ValueError(f"nuisance must be one of {sorted(NUISANCE_FNS)}")
        if self.pcf_mode not in ("none", "known", "estimated"):
            raise ValueError("pcf_mode must be none, known or estimated")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        bad = set(self.estimators) - {"semi", "para", "oracle"}
        if bad:
            raise ValueError(f"unknown estimators {sorted(bad)}")
        if self.crossfit is None:
            object.__setattr__(self, "crossfit", CrossFitConfig(
                bandwidth_c0=HARNESS_BANDWIDTH_C0, grid_n=GRID_N[self.window]))

    def the_window(self) -> Window:
        return WINDOWS[self.window]


@dataclass
class TableRow:
    bias_x100: float
    rmse: float
    mean_se: float
    cp90: float
    cp95: float
    mean_se_star: Optional[float] = None
    cp90_star: Optional[float] = None
    cp95_star: Optional[float] = None
    reps_converged: int = 0


def simulate_scenario_inputs(s: Scenario, rep: int):
    """Model spec, truth curve, simulated pattern and seeds of one replication."""
    w = s.the_window()
    n_lat = int(round(LATTICE_PER_UNIT * w.width))
    ss = np.random.SeedSequence(s.base_seed + rep)
    seeds = [int(c.generate_state(1)[0]) for c in ss.spawn(4)]
    f1 = simulate_grf(w, n_lat, n_lat, COVARIATE_GRF, seeds[0])
    f2 = simulate_grf(w, n_lat, n_lat, COVARIATE_GRF, seeds[1])
    y_field = f1
    z_field = f2 if s.covariates == "ind" else field_product(f1, f2)
    spec = log_linear_model([y_field], [z_field])
    base_fn = NUISANCE_FNS[s.nuisance]

    def eta_full(Z):
        Z = np.asarray(Z, dtype=float)
        return math.log(BASE_RATE) + base_fn(Z[:, 0] if Z.ndim > 1 else Z)

    surface = scenario_truth_surface(spec, np.array([THETA_STAR]), eta_full)
    if s.process == "poisson":
        pattern = simulate_poisson(surface, seeds[2])
    else:
        sigma2 = LGCP_GRF.variance
        # compensate the -2/sigma^2 offset so the conditional intensity is
        # lambda * exp(G - sigma^2 / 2), i.e. unconditional intensity lambda
        factor = math.exp(2.0 / sigma2 - sigma2 / 2.0)
        base = IntensitySurface(w, lambda pts, _f=surface.func: factor * np.asarray(_f(pts)),
                                surface.sup_bound * factor)
        pattern = simulate_lgcp(base, LGCP_GRF, n_lat, n_lat, seeds[3])
    return spec, eta_full, pattern, seeds


def scenario_truth_surface(spec: ModelSpec, theta, eta_fn) -> IntensitySurface:
    """Log-linear truth surface with an exact interpolation-hull intensity bound.

    Bilinear covariates stay inside the hull of their lattice values, so
    exp(tau_max + eta_max) bounds the interpolated intensity even when eta is
    nonlinear in z (a lattice-node maximum does not: -0.09 z^2 peaks between
    nodes wherever z changes sign).
    """
    tau_max = 0.0
    for t_i, f in zip(theta, spec.target_fields):
        tau_max += t_i * (f.values.max() if t_i >= 0 else f.values.min())
    z_field = spec.nuisance_fields[0]
    z_grid = np.linspace(z_field.values.min(), z_field.values.max(), 4097)
    eta_max = float(np.max(eta_fn(z_grid[:, None])))
    sup = math.exp(tau_max + eta_max) * 1.05
    return IntensitySurface(spec.window, spec.intensity(theta, eta_fn), sup)


def _variants_for(s: Scenario) -> List[str]:
    if s.process == "poisson":
        # the true PCF of a Poisson process is g = 1, so "known" means "none"
        return ["estimated"] if s.pcf_mode == "estimated" else ["none"]
    if s.pcf_mode == "known":
        return ["known"]
    if s.pcf_mode == "estimated":
        return ["estimated", "known"]
    return ["none"]


def _variant_summary(se_reports: Dict[str, FitReport]) -> Dict[str, Dict]:
    out = {}
    for name, rep in se_reports.items():
        lo90, hi90 = rep.ci[0.9][0]
        lo95, hi95 = rep.ci[0.95][0]
        out[name] = {
            "se": float(rep.se[0]),
            "hit90": bool(lo90 <= THETA_STAR <= hi90),
            "hit95": bool(lo95 <= THETA_STAR <= hi95),
            "pcf_sigma2": rep.pcf.sigma2,
            "pcf_phi": rep.pcf.phi,
            "pcf_family": rep.pcf.family,
        }
    return out


def run_replication(s: Scenario, rep: int) -> Dict:
    """All requested estimators on one simulated replication."""
    try:
        spec, eta_full, pattern, seeds = simulate_scenario_inputs(s, rep)
        if pattern.count() == 0:
            return {"rep": rep, "ok": False, "error": "empty pattern"}
        variants = _variants_for(s)
        quad = build_quadrature(pattern, s.crossfit.grid_n)
        record = {"rep": rep, "ok": True, "n_points": pattern.count(), "estimators": {}}

        # per estimator: (full coefficient vector, S over all coords, a vectors)
        fits: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        lam_fns = []        # fitted intensities, semi first, for the PCF plug-in

        if "semi" in s.estimators:
            res, fits["semi"], lam_fn = _fit_semi(spec, pattern, quad, s.crossfit,
                                                  seeds[2] ^ 0x9E3779B9)
            lam_fns.append(lam_fn)
            record["fold_convergence"] = {"semi": sum(f.converged for f in res.per_fold)}

        k = spec.k
        for name, form in (("para", "linear"), ("oracle", ("oracle", eta_full))):
            if name not in s.estimators:
                continue
            pf = fit_parametric_baseline_full(spec, pattern, quad, form)
            fits[name] = (pf.coef, *sandwich_terms(quad, pf.lambda_nodes, pf.design))
            eta_fn = eta_full if name == "oracle" else (lambda Z, c=pf.coef: c[k] + Z @ c[k + 1:])
            lam_fns.append(spec.intensity(pf.theta, eta_fn))

        pcfs = {"none": PcfModel("poisson"), "known": PcfModel(
            "lgcp-exponential", sigma2=LGCP_GRF.variance, phi=LGCP_GRF.corr_range)}
        if "estimated" in variants:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pcfs["estimated"] = estimate_pcf(pattern, lam_fns[0])
        reports = _wald_reports(fits, {v: pcfs[v] for v in variants}, quad, k)
        for name, (coef, _, _) in fits.items():
            record["estimators"][name] = {
                "theta": float(np.atleast_1d(coef)[0]),
                "variants": _variant_summary(reports[name]),
            }
        return record
    except (NonConvergenceError, SingularHessianError, SingularSensitivityError,
            BoundViolationError, InsufficientPointsError, NonpositiveIntensityError,
            ZeroMassError, ZeroDenominatorError, DecompositionError,
            NonFiniteFieldError) as exc:
        return {"rep": rep, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _fit_semi(spec: ModelSpec, pattern: PointPattern, quad, cfg: CrossFitConfig, seed: int):
    """Cross-fit theta with thinning ``seed``; return the result, its (theta, S, a) and
    the fitted intensity.

    The least favorable direction is the theta-derivative of the curve fitted on
    the full pattern with the fold kernel and the full-pattern quadrature ``quad``.
    """
    res = cross_fit(spec, pattern, cfg, seed)
    theta, eta_fn = res.theta_hat, res.eta_hat
    nf = NuisanceFit(spec, pattern, quad, cfg.resolve_kernel(spec), scale=1.0)
    S, a = semi_sandwich_terms(spec, theta, eta_fn, lambda Z: lfd_values(nf, theta, Z), quad)
    return res, (theta, S, a), spec.intensity(theta, eta_fn)


def _wald_reports(fits: Dict[str, Tuple], pcfs: Dict[str, PcfModel], quad, k: int,
                  levels=(0.9, 0.95), diagnostics: Optional[Dict] = None
                  ) -> Dict[str, Dict[str, FitReport]]:
    """Wald reports per estimator and PCF variant from each estimator's (coef, S, a).

    The a-vectors of all estimators are stacked column-wise, so every variant
    takes one PCF double sum; each estimator reads its own diagonal block, and
    its reports keep only the first ``k`` (target) coordinates.
    """
    stacked = np.hstack([a for _, _, a in fits.values()])
    ends = np.cumsum([a.shape[1] for _, _, a in fits.values()])
    area = quad.window.area()
    reports: Dict[str, Dict[str, FitReport]] = {name: {} for name in fits}
    for vname, pcf in pcfs.items():
        corr = pcf_correction(quad, stacked, pcf)
        for (name, (coef, S, _)), end in zip(fits.items(), ends):
            lo = end - S.shape[0]
            full = wald_report(coef, S, S + corr[lo:end, lo:end], area, levels=levels,
                               pcf=pcf, diagnostics=diagnostics)
            reports[name][vname] = replace(
                full, theta_hat=full.theta_hat[:k], se=full.se[:k],
                ci={lvl: arr[:k] for lvl, arr in full.ci.items()})
    return reports


def run_scenario_records(s: Scenario, parallelism: int = 1) -> Tuple[Dict[str, TableRow], List[Dict]]:
    """Run all replications and aggregate; returns (rows per estimator, raw records)."""
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as ex:
            records = list(ex.map(run_replication, [s] * s.reps, range(s.reps), chunksize=1))
    else:
        records = [run_replication(s, r) for r in range(s.reps)]

    rows: Dict[str, TableRow] = {}
    variants = _variants_for(s)
    primary = variants[0]
    for est in s.estimators:
        good = [r for r in records
                if r.get("ok") and est in r.get("estimators", {})]
        if len(good) < max(1, s.reps // 2):
            raise ScenarioInfeasibleError(
                f"{est}: only {len(good)} of {s.reps} replications usable")
        thetas = np.array([r["estimators"][est]["theta"] for r in good])
        bias = float(np.mean(thetas) - THETA_STAR)
        rmse = float(np.sqrt(np.mean((thetas - THETA_STAR) ** 2)))
        vprim = [r["estimators"][est]["variants"][primary] for r in good]
        row = TableRow(
            bias_x100=100.0 * bias,
            rmse=rmse,
            mean_se=float(np.mean([v["se"] for v in vprim])),
            cp90=100.0 * float(np.mean([v["hit90"] for v in vprim])),
            cp95=100.0 * float(np.mean([v["hit95"] for v in vprim])),
            reps_converged=len(good),
        )
        if "known" in variants:
            vstar = [r["estimators"][est]["variants"]["known"] for r in good]
            row.mean_se_star = float(np.mean([v["se"] for v in vstar]))
            row.cp90_star = 100.0 * float(np.mean([v["hit90"] for v in vstar]))
            row.cp95_star = 100.0 * float(np.mean([v["hit95"] for v in vstar]))
        rows[est] = row
    return rows, records


# -- tables ---------------------------------------------------------------------


def _table_scenarios(table_id: int, reps: int, base_seed: int) -> List[Tuple[Dict, Scenario]]:
    out = []
    if table_id in (2, 3):
        process, pcf_mode = ("poisson", "none") if table_id == 2 else ("lgcp", "estimated")
        for window in ("W1", "W2"):
            for covar in ("ind", "dep"):
                for nuis in ("linear", "poly"):
                    meta = {"window": window, "covar": covar, "nuisance": nuis}
                    out.append((meta, Scenario(window=window, covariates=covar,
                                               nuisance=nuis, process=process,
                                               pcf_mode=pcf_mode, reps=reps,
                                               base_seed=base_seed,
                                               estimators=("semi",))))
    elif table_id == 4:
        for window in ("W1", "W2"):
            for process in ("poisson", "lgcp"):
                meta = {"window": window, "process": process}
                out.append((meta, Scenario(window=window, covariates="dep",
                                           nuisance="poly", process=process,
                                           pcf_mode="none" if process == "poisson" else "estimated",
                                           reps=reps, base_seed=base_seed,
                                           estimators=("semi", "para", "oracle"))))
    else:
        raise ValueError(f"table_id must be 2, 3 or 4, got {table_id}")
    return out


_EST_LABEL = {"semi": "Semi", "para": "Para", "oracle": "Oracle"}


def row_columns(row: TableRow, starred: bool) -> Dict:
    """A table row's columns in table order; each starred (known-PCF) column
    follows its unstarred one."""
    entry = {"bias_x100": row.bias_x100, "rmse": row.rmse}
    for col in ("mean_se", "cp90", "cp95"):
        entry[col] = getattr(row, col)
        if starred:
            entry[col + "_star"] = getattr(row, col + "_star")
    entry["reps_converged"] = row.reps_converged
    return entry


def run_table(table_id: int, out_path, reps: int = 200, parallelism: int = 1,
              base_seed: int = 2024) -> List[Dict]:
    """Reproduce one of the simulation tables at the requested replication count.

    Writes a CSV at ``out_path`` and a JSON-lines sidecar of per-replication
    records at ``out_path + '.jsonl'``; returns the rows as dictionaries.
    """
    out_path = Path(out_path)
    scenarios = _table_scenarios(table_id, reps, base_seed)
    rows_out: List[Dict] = []
    sidecar = []
    for meta, scen in scenarios:
        rows, records = run_scenario_records(scen, parallelism)
        for est in scen.estimators:
            entry = dict(meta)
            if table_id == 4:
                entry["estimator"] = _EST_LABEL[est]
            entry.update(row_columns(rows[est], starred=table_id == 3))
            rows_out.append(entry)
        for rec in records:
            sidecar.append({"table": table_id, **meta, **rec})
    _write_csv(rows_out, out_path)
    with open(str(out_path) + ".jsonl", "w") as fh:
        for rec in sidecar:
            fh.write(json.dumps(rec) + "\n")
    return rows_out


def _write_csv(rows: List[Dict], path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                             for k, v in row.items()})


# -- file-based fitting -----------------------------------------------------------


def merge_options(defaults: Dict, config_path=None, given: Optional[Dict] = None) -> Dict:
    """Options by precedence: ``defaults`` < the YAML mapping at ``config_path`` <
    the non-None values of ``given``.  The YAML may set only keys of ``defaults``."""
    merged = dict(defaults)
    if config_path is not None:
        with open(config_path) as fh:
            loaded = yaml.safe_load(fh) or {}
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    merged.update({key: val for key, val in (given or {}).items() if val is not None})
    return merged


# the option key of each CrossFitConfig field, in ``ppcf fit`` and ``ppcf scenario``
_FIELD_KEYS = {**{f.name: f.name for f in fields(CrossFitConfig)},
               "n_folds": "folds", "approximation": "approx"}
# ``ppcf fit`` keys beyond the cross-fitting options, and its own seed default
_FIT_DEFAULTS = {
    "seed": 2024,
    "pcf": "none",
    "pcf_sigma2": None,
    "pcf_phi": None,
    "levels": [0.9, 0.95],
}
# z values in the ``<out>_eta.csv`` dump of the fitted nuisance curve
ETA_DUMP_POINTS = 200


def _with_options(cfg: CrossFitConfig, opts: Dict) -> CrossFitConfig:
    """``cfg`` with each field whose option key ``opts`` holds set to that value."""
    return replace(cfg, **{name: opts[key] for name, key in _FIELD_KEYS.items() if key in opts})


def resolve_scenario_options(keys, config_path=None, given: Optional[Dict] = None) -> Scenario:
    """``ppcf scenario``'s Scenario from its option ``keys``: Scenario fields, ``pcf`` (the
    field ``pcf_mode``, keyed as in ``ppcf fit``) and ``ppcf fit``'s cross-fitting keys,
    which default to the harness configuration (none of them depends on the window).
    ``pcf`` defaults to estimated for lgcp, else none.  Every option is checked here, so
    a bad one fails before anything is simulated.
    """
    base = Scenario()
    defaults = {**{f.name: getattr(base, f.name) for f in fields(Scenario)}, "pcf": None,
                **{key: getattr(base.crossfit, name) for name, key in _FIELD_KEYS.items()}}
    opts = merge_options({key: defaults[key] for key in keys}, config_path, given)
    if opts["pcf"] is None:
        opts["pcf"] = "estimated" if opts["process"] == "lgcp" else "none"
    crossfit = _with_options(Scenario(window=opts["window"]).crossfit, opts)
    named = {f.name: opts[f.name] for f in fields(Scenario) if f.name in opts}
    return Scenario(**{**named, "estimators": tuple(opts["estimators"])},
                    pcf_mode=opts["pcf"], crossfit=crossfit)


def resolve_fit_options(config_path=None, given: Optional[Dict] = None
                        ) -> Tuple[Dict, CrossFitConfig, Optional[PcfModel]]:
    """``ppcf fit``'s merged options, their CrossFitConfig and the PCF unless estimated.

    Every option is checked here, so a bad one fails before any file is read.
    """
    defaults = {_FIELD_KEYS[f.name]: f.default for f in fields(CrossFitConfig)}
    opts = merge_options({**defaults, **_FIT_DEFAULTS}, config_path, given)
    cfg = _with_options(CrossFitConfig(), opts)
    if not all(0.0 < lvl < 1.0 for lvl in opts["levels"]):
        raise ValueError(f"levels must lie in (0, 1), got {opts['levels']}")
    pcf = None
    if opts["pcf"] == "none":
        pcf = PcfModel("poisson")
    elif opts["pcf"] == "known":
        if opts["pcf_sigma2"] is None or opts["pcf_phi"] is None:
            raise ValueError("pcf=known requires pcf_sigma2 and pcf_phi")
        pcf = PcfModel("lgcp-exponential", sigma2=float(opts["pcf_sigma2"]),
                       phi=float(opts["pcf_phi"]))
    elif opts["pcf"] != "estimated":
        raise ValueError(f"unknown pcf mode {opts['pcf']!r}")
    return opts, cfg, pcf


def fit_file(pattern_path, y_grid_paths: Sequence, z_grid_paths: Sequence,
             config_path=None, out_prefix=None, overrides: Optional[Dict] = None) -> FitReport:
    """Full pipeline on user files: parse, cross-fit, variance, Wald intervals.

    Options merge as in :func:`resolve_fit_options` (``overrides`` are the
    given values).  Writes a one-row summary CSV, a JSON-line record, and a
    1-d lattice dump of the fitted nuisance curve when ``out_prefix`` is given.
    """
    opts, run_cfg, pcf = resolve_fit_options(config_path, overrides)
    pattern = read_pattern_file(pattern_path)
    y_fields = [read_grid_file(p) for p in y_grid_paths]
    z_fields = [read_grid_file(p) for p in z_grid_paths]
    all_fields = y_fields + z_fields
    win = all_fields[0].window
    if any(f.window != win for f in all_fields):
        raise WindowMismatchError("covariate grids do not share a window")
    if pattern.window != win:
        inside = win.contains(pattern.points[:, 0], pattern.points[:, 1])
        if not np.all(inside):
            raise WindowMismatchError("pattern points fall outside the grid window")
        pattern = PointPattern(win, pattern.points, pattern.marks)
    if pattern.count() == 0:
        raise InsufficientPointsError("pattern file contains no points")

    spec = log_linear_model(y_fields, z_fields)
    quad = build_quadrature(pattern, run_cfg.grid_n)
    result, semi, lam_fn = _fit_semi(spec, pattern, quad, run_cfg, opts["seed"])
    if pcf is None:
        pcf = estimate_pcf(pattern, lam_fn)

    diagnostics = {
        "fold_convergence": [f.converged for f in result.per_fold],
        "n_points": pattern.count(),
        "clip_counts": [f.nuisance.diagnostics["clip_count"] for f in result.per_fold
                        if f.nuisance is not None],
    }
    report = _wald_reports({"semi": semi}, {"fit": pcf}, quad, spec.k,
                           levels=tuple(opts["levels"]), diagnostics=diagnostics)["semi"]["fit"]

    if out_prefix is not None:
        _write_fit_outputs(report, spec, pattern, result.eta_hat, str(out_prefix))
    return report


def _write_fit_outputs(report: FitReport, spec: ModelSpec, pattern: PointPattern,
                       eta_fn, out_prefix: str) -> None:
    k = report.theta_hat.shape[0]
    row = {}
    for i in range(k):
        row[f"theta_{i}"] = repr(float(report.theta_hat[i]))
        row[f"se_{i}"] = repr(float(report.se[i]))
        for level, arr in report.ci.items():
            pct = int(round(level * 100))
            row[f"ci{pct}_lo_{i}"] = repr(float(arr[i, 0]))
            row[f"ci{pct}_hi_{i}"] = repr(float(arr[i, 1]))
    row["pcf_family"] = report.pcf.family
    row["pcf_sigma2"] = repr(float(report.pcf.sigma2))
    row["pcf_phi"] = repr(float(report.pcf.phi))
    with open(out_prefix + "_summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row.keys()))
        writer.writeheader()
        writer.writerow(row)
    with open(out_prefix + "_summary.jsonl", "w") as fh:
        fh.write(json.dumps({
            "theta": report.theta_hat.tolist(),
            "se": report.se.tolist(),
            "ci": {str(lvl): arr.tolist() for lvl, arr in report.ci.items()},
            "pcf": {"family": report.pcf.family, "sigma2": report.pcf.sigma2,
                    "phi": report.pcf.phi},
            "diagnostics": report.diagnostics,
        }) + "\n")
    if spec.q == 1:
        _, Zd = spec.covariates_at(pattern.points)
        z_lo, z_hi = float(Zd.min()), float(Zd.max())
        zs = np.linspace(z_lo, z_hi, ETA_DUMP_POINTS)
        etas = eta_fn(zs[:, None])
        with open(out_prefix + "_eta.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z", "eta_hat"])
            for zv, ev in zip(zs, etas):
                writer.writerow([repr(float(zv)), repr(float(ev))])


def emit_scenario_files(s: Scenario, rep: int, out_dir) -> Dict[str, str]:
    """Simulate one replication and write its pattern and covariate grids."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec, _, pattern, _ = simulate_scenario_inputs(s, rep)
    paths = {}
    pattern_path = out_dir / "pattern.txt"
    write_pattern_file(pattern, pattern_path)
    paths["pattern"] = str(pattern_path)
    for i, f in enumerate(spec.target_fields):
        p = out_dir / f"y{i}.txt"
        write_grid_file(f, p)
        paths[f"y{i}"] = str(p)
    for i, f in enumerate(spec.nuisance_fields):
        p = out_dir / f"z{i}.txt"
        write_grid_file(f, p)
        paths[f"z{i}"] = str(p)
    return paths
