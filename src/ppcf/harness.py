"""Simulation scenarios, Monte Carlo tables, and file-based fitting.

The scenario engine draws covariate fields and a point pattern, runs the
cross-fitting estimator (plus optional parametric and oracle baselines),
estimates the asymptotic variance under the requested pair-correlation mode,
and aggregates replications into table rows (bias x100, rMSE, mean SE,
CP90/CP95).  Replication r uses seed ``base_seed + r``; records are reduced in
replication order, so results are independent of the worker count.  Replications
and :func:`fit_file` share one fit path, :func:`fit_pattern`, whose :class:`PatternFit`
records per-fold convergence and errors, nuisance clip counts and the PCF fit's warnings.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .crossfit import CrossFitConfig, EtaAggregate, cross_fit
from .errors import FitError, InsufficientPointsError, ScenarioInfeasibleError, WindowMismatchError
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
        for name in ("reps", "base_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        named = set(self.estimators)
        if not named <= {"semi", "para", "oracle"} or not 0 < len(named) == len(self.estimators):
            raise ValueError(f"estimators must be distinct names among semi, para and oracle, "
                             f"got {self.estimators}")
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
    spec = ModelSpec([y_field], [z_field])
    base_fn = NUISANCE_FNS[s.nuisance]

    def eta_full(Z):
        Z = np.asarray(Z, dtype=float)
        return math.log(BASE_RATE) + base_fn(Z[:, 0] if Z.ndim > 1 else Z)

    surface = scenario_truth_surface(spec, np.array([THETA_STAR]), eta_full)
    if s.process == "poisson":
        pattern = simulate_poisson(surface, seeds[2])
    else:
        pattern = simulate_lgcp(surface, LGCP_GRF, n_lat, n_lat, seeds[3])
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


def _variants_for(s: Scenario) -> Dict[str, Optional[PcfModel]]:
    """The PCF of each variance variant of ``s``, primary first; None is estimated.
    The true PCF of a Poisson process is g = 1, so there "known" means "none"."""
    known = {} if s.process == "poisson" else {
        "known": PcfModel(LGCP_GRF.variance, LGCP_GRF.corr_range)}
    if s.pcf_mode == "estimated":
        return {"estimated": None, **known}
    return known if s.pcf_mode == "known" and known else {"none": PcfModel()}


@dataclass(frozen=True)
class PatternFit:
    """One pattern's fit: the Wald reports per estimator and PCF variant (target
    coordinates only), the semi curve (None without semi), the PCF fit's caught
    warnings, and the diagnostics, JSON values that every report carries."""

    reports: Dict[str, Dict[str, FitReport]]
    curve: Optional[EtaAggregate]
    pcf_warnings: List[warnings.WarningMessage]
    diagnostics: Dict

    def record(self, theta_star: float) -> Dict:
        """The replication record: the diagnostics, then per estimator the coordinate-0 theta
        and, per variant, its SE, whether each interval covers ``theta_star``, and its PCF."""
        def variant(rep: FitReport) -> Dict:
            hits = {f"hit{round(100 * level)}": bool(arr[0, 0] <= theta_star <= arr[0, 1])
                    for level, arr in rep.ci.items()}
            return {"se": float(rep.se[0]), **hits, "pcf_sigma2": rep.pcf.sigma2,
                    "pcf_phi": rep.pcf.phi, "pcf_family": rep.pcf.family}
        return {**self.diagnostics, "estimators": {
            name: {"theta": float(next(iter(by_pcf.values())).theta_hat[0]),
                   "variants": {vname: variant(rep) for vname, rep in by_pcf.items()}}
            for name, by_pcf in self.reports.items()}}


def run_replication(s: Scenario, rep: int) -> Dict:
    """All requested estimators on one simulated replication; a replication that
    raises a :class:`FitError` is a failed record whose ``error`` starts with its type."""
    try:
        spec, eta_full, pattern, seeds = simulate_scenario_inputs(s, rep)
        if pattern.count() == 0:
            raise InsufficientPointsError("empty pattern")
        fit = fit_pattern(spec, pattern, s.crossfit, seeds[2] ^ 0x9E3779B9, _variants_for(s),
                          s.estimators, eta_full)
        return {"rep": rep, "ok": True, **fit.record(THETA_STAR)}
    except FitError as exc:
        return {"rep": rep, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


def fit_pattern(spec: ModelSpec, pattern: PointPattern, cfg: CrossFitConfig, seed: int,
                pcfs: Dict[str, Optional[PcfModel]], estimators=("semi",), eta_true=None,
                levels=(0.9, 0.95)) -> PatternFit:
    """Fit the requested estimators on one pattern and report them under each PCF.

    ``semi`` cross-fits theta with thinning ``seed`` and takes its least favorable
    direction from the curve fitted on the full pattern; ``para`` fits eta as linear,
    ``oracle`` takes ``eta_true`` as known.  A PCF given as None is estimated from the
    first estimator's intensity at the data nodes, its warnings caught, not shown.
    """
    if "oracle" in estimators and eta_true is None:
        raise ValueError("the oracle estimator needs eta_true")
    quad = build_quadrature(pattern, cfg.grid_n)
    # per estimator: (coefficients, S over all coords, a vectors, intensity at the nodes)
    fits: Dict[str, Tuple] = {}
    folds, eta_hat = [], None
    if "semi" in estimators:
        res = cross_fit(spec, pattern, cfg, seed)
        folds, theta, eta_hat = res.per_fold, res.theta_hat, res.eta_hat
        nf = NuisanceFit(spec, quad, cfg.resolve_kernel(spec), scale=1.0)
        fits["semi"] = (theta, *semi_sandwich_terms(spec, theta, eta_hat,
                                                    lambda Z: lfd_values(nf, theta, Z), quad))
        del nf  # the full-pattern curve serves the LFD only; free it before the PCF sums
    for name, eta in (("para", None), ("oracle", eta_true)):
        if name in estimators:
            pf = fit_parametric_baseline_full(spec, quad, eta)
            fits[name] = (pf.coef, *sandwich_terms(quad, pf.lambda_nodes, pf.design),
                          pf.lambda_nodes)
    caught = []
    if None in pcfs.values():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lam = next(iter(fits.values()))[3]
            estimated = estimate_pcf(pattern, lam[quad.is_data])
        pcfs = {v: estimated if pcf is None else pcf for v, pcf in pcfs.items()}
    diagnostics = {"fold_convergence": [f.converged for f in folds], "n_points": pattern.count(),
                   "clip_counts": [f.nuisance.diagnostics["clip_count"] for f in folds
                                   if f.nuisance is not None],
                   "fold_errors": [f.error for f in folds],
                   "pcf_warnings": [str(w.message) for w in caught]}
    return PatternFit(_wald_reports(fits, pcfs, quad, spec.k, levels=levels,
                                    diagnostics=diagnostics), eta_hat, caught, diagnostics)


def _wald_reports(fits: Dict[str, Tuple], pcfs: Dict[str, PcfModel], quad, k: int,
                  levels=(0.9, 0.95), diagnostics: Optional[Dict] = None
                  ) -> Dict[str, Dict[str, FitReport]]:
    """Wald reports per estimator and PCF variant from each estimator's (coef, S, a, ...).

    The a-vectors of all estimators are stacked column-wise, and one call of
    ``pcf_correction`` gives every variant its double sum over one pass of the
    pair geometry; each estimator reads its own diagonal block, and its reports
    keep only the first ``k`` (target) coordinates.
    """
    stacked = np.hstack([a for _, _, a, *_ in fits.values()])
    ends = np.cumsum([a.shape[1] for _, _, a, *_ in fits.values()])
    area = quad.window.area()
    reports: Dict[str, Dict[str, FitReport]] = {name: {} for name in fits}
    corrs = pcf_correction(quad, stacked, *pcfs.values())
    for (vname, pcf), corr in zip(pcfs.items(), corrs):
        for (name, (coef, S, *_)), end in zip(fits.items(), ends):
            lo = end - S.shape[0]
            full = wald_report(coef, S, S + corr[lo:end, lo:end], area, levels=levels,
                               pcf=pcf, diagnostics=diagnostics)
            reports[name][vname] = replace(
                full, theta_hat=full.theta_hat[:k], se=full.se[:k],
                ci={lvl: arr[:k] for lvl, arr in full.ci.items()})
    return reports


def _coverage(records: List[Dict], est: str, variant: str) -> Tuple[float, float, float]:
    """(mean SE, CP90, CP95) of one estimator's variance variant over the records."""
    vs = [r["estimators"][est]["variants"][variant] for r in records]
    return (float(np.mean([v["se"] for v in vs])),
            100.0 * float(np.mean([v["hit90"] for v in vs])),
            100.0 * float(np.mean([v["hit95"] for v in vs])))


def check_parallelism(parallelism: int) -> None:
    """Raise ValueError unless ``parallelism`` is a worker count, >= 1."""
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")


def run_scenario_records(s: Scenario, parallelism: int = 1) -> Tuple[Dict[str, TableRow], List[Dict]]:
    """Run all replications and aggregate; returns (rows per estimator, raw records)."""
    check_parallelism(parallelism)
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as ex:
            records = list(ex.map(run_replication, [s] * s.reps, range(s.reps), chunksize=1))
    else:
        records = [run_replication(s, r) for r in range(s.reps)]

    rows: Dict[str, TableRow] = {}
    variants = _variants_for(s)
    primary = next(iter(variants))
    good = [r for r in records if r["ok"]]
    for est in s.estimators:
        if len(good) < max(1, s.reps // 2):
            raise ScenarioInfeasibleError(
                f"{est}: only {len(good)} of {s.reps} replications usable")
        thetas = np.array([r["estimators"][est]["theta"] for r in good])
        bias = float(np.mean(thetas) - THETA_STAR)
        rmse = float(np.sqrt(np.mean((thetas - THETA_STAR) ** 2)))
        row = TableRow(100.0 * bias, rmse, *_coverage(good, est, primary),
                       reps_converged=len(good))
        if "known" in variants:
            row.mean_se_star, row.cp90_star, row.cp95_star = _coverage(good, est, "known")
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

    Checks ``parallelism`` and makes the parent directory of ``out_path`` first, then
    writes the rows and the per-replication records, each tagged with its table and
    cell, through :func:`write_run`; returns the rows as dictionaries.
    """
    scenarios = _table_scenarios(table_id, reps, base_seed)
    check_parallelism(parallelism)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
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
        sidecar += [{"table": table_id, **meta, **rec} for rec in records]
    write_run(rows_out, sidecar, out_path)
    return rows_out


def write_run(rows: List[Dict], records: List[Dict], out_path) -> None:
    """A Monte Carlo run's outputs: its rows as a CSV at ``out_path`` and its
    replication records as JSON lines at ``out_path + '.jsonl'``."""
    _write_csv(rows, out_path)
    with open(str(out_path) + ".jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _write_csv(rows: List[Dict], path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()}
                         for row in rows)


# -- file-based fitting -----------------------------------------------------------


def merge_options(defaults: Dict, config_path=None, given: Optional[Dict] = None) -> Dict:
    """Options by precedence: ``defaults`` < the YAML mapping at ``config_path`` <
    the non-None values of ``given``.  The YAML may set only keys of ``defaults``."""
    merged = dict(defaults)
    if config_path is not None:
        with open(config_path) as fh:
            loaded = yaml.safe_load(fh)
        loaded = {} if loaded is None else loaded  # an empty file
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path}: expected a YAML mapping of options, got {loaded!r}")
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
    if not isinstance(opts["seed"], numbers.Integral):
        raise ValueError(f"seed must be an integer, got {opts['seed']!r}")
    if opts["seed"] < 0:
        raise ValueError(f"seed must be >= 0, got {opts['seed']}")
    levels = opts["levels"]
    if not (isinstance(levels, (list, tuple)) and all(
            isinstance(lvl, numbers.Real) and not isinstance(lvl, bool) and 0.0 < lvl < 1.0
            for lvl in levels)):
        raise ValueError(f"levels must lie in (0, 1), a list of numbers, got {levels!r}")
    pcf = None if opts["pcf"] == "estimated" else PcfModel()
    if opts["pcf"] == "known":
        if opts["pcf_sigma2"] is None or opts["pcf_phi"] is None:
            raise ValueError("pcf=known requires pcf_sigma2 and pcf_phi")
        pcf = PcfModel(float(opts["pcf_sigma2"]), float(opts["pcf_phi"]))
    elif opts["pcf"] not in ("none", "estimated"):
        raise ValueError(f"unknown pcf mode {opts['pcf']!r}")
    return opts, cfg, pcf


def fit_file(pattern_path, y_grid_paths: Sequence, z_grid_paths: Sequence,
             config_path=None, out_prefix=None, overrides: Optional[Dict] = None) -> FitReport:
    """Full pipeline on user files: parse, cross-fit, variance, Wald intervals.

    Options merge as in :func:`resolve_fit_options` (``overrides`` are the
    given values).  Writes a one-row summary CSV, a JSON-line record, and a
    1-d lattice dump of the fitted nuisance curve when ``out_prefix`` is given;
    the directory of those files is made before any input is read.
    The record's ``diagnostics`` add ``fold_errors`` (None for a converged fold)
    and ``pcf_warnings``; those warnings are also shown, as the PCF fit raised them.
    """
    opts, run_cfg, pcf = resolve_fit_options(config_path, overrides)
    if out_prefix is not None:
        Path(f"{out_prefix}_summary.csv").parent.mkdir(parents=True, exist_ok=True)
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

    spec = ModelSpec(y_fields, z_fields)
    fit = fit_pattern(spec, pattern, run_cfg, opts["seed"], {"fit": pcf},
                      levels=tuple(opts["levels"]))
    for w in fit.pcf_warnings:  # shown as the PCF fit raised them
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    report = fit.reports["semi"]["fit"]
    if out_prefix is not None:
        _write_fit_outputs(report, spec, pattern, fit.curve, str(out_prefix))
    return report


def _write_fit_outputs(report: FitReport, spec: ModelSpec, pattern: PointPattern,
                       eta_fn, out_prefix: str) -> None:
    row = {}
    for i in range(report.theta_hat.shape[0]):
        row[f"theta_{i}"] = float(report.theta_hat[i])
        row[f"se_{i}"] = float(report.se[i])
        for level, arr in report.ci.items():
            pct = int(round(level * 100))
            row[f"ci{pct}_lo_{i}"] = float(arr[i, 0])
            row[f"ci{pct}_hi_{i}"] = float(arr[i, 1])
    row.update(pcf_family=report.pcf.family, pcf_sigma2=float(report.pcf.sigma2),
               pcf_phi=float(report.pcf.phi))
    _write_csv([row], out_prefix + "_summary.csv")
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
        zs = np.linspace(float(Zd.min()), float(Zd.max()), ETA_DUMP_POINTS)
        rows = [{"z": float(zv), "eta_hat": float(ev)} for zv, ev in zip(zs, eta_fn(zs[:, None]))]
        _write_csv(rows, out_prefix + "_eta.csv")


def emit_scenario_files(s: Scenario, rep: int, out_dir) -> Dict[str, str]:
    """Simulate one replication and write its pattern and covariate grids."""
    if not isinstance(rep, numbers.Integral) or rep < 0:
        raise ValueError(f"rep must be an integer >= 0, got {rep!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec, _, pattern, _ = simulate_scenario_inputs(s, rep)
    paths = {"pattern": str(out_dir / "pattern.txt")}
    write_pattern_file(pattern, paths["pattern"])
    for prefix, grids in (("y", spec.target_fields), ("z", spec.nuisance_fields)):
        for i, f in enumerate(grids):
            paths[f"{prefix}{i}"] = str(out_dir / f"{prefix}{i}.txt")
            write_grid_file(f, paths[f"{prefix}{i}"])
    return paths
