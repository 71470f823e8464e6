"""V-fold spatial cross-fitting of the target parameter.

For each fold v: the nuisance curve is kernel-fitted on the complement of the
fold (all other folds), then theta is estimated by maximizing the fold's own
pseudo-likelihood along that curve.  Fold estimates are averaged with equal
weights; the aggregated nuisance curve is the average of the fold curves
evaluated at the aggregated theta.

With the log-linear link the thinning step is optional (``skip_thinning``):
the whole pattern then serves as both training and fitting data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import (
    InsufficientPointsError,
    NonConvergenceError,
    NonpositiveIntensityError,
    SingularHessianError,
    ZeroDenominatorError,
    ZeroMassError,
)
from .model import (
    ModelSpec,
    OptimizerOptions,
    build_quadrature,
    logistic_profile_maximize,
    profile_maximize,
)
from .nuisance import KernelSpec, NuisanceFit, default_bandwidth
from .process import PointPattern, constant_surface, fold, fold_complement, simulate_poisson, v_fold_thin

_FOLD_ERRORS = (NonConvergenceError, SingularHessianError, ZeroMassError,
                ZeroDenominatorError, NonpositiveIntensityError, InsufficientPointsError)


@dataclass(frozen=True)
class CrossFitConfig:
    """Configuration for one cross-fitting run.

    ``kernel=None`` selects a Gaussian/quartic kernel of order ``kernel_order``
    with the rate-rule bandwidth (constant ``bandwidth_c0``, dependence index
    ``m_smoothness``).  ``skip_thinning`` is valid only for the log-linear link.
    """

    n_folds: int = 2
    seed: int = 0
    kernel: Optional[KernelSpec] = None
    kernel_order: int = 2
    bandwidth_c0: float = 1.0
    m_smoothness: int = 2
    grid_n: int = 64
    approximation: str = "quadrature"          # or "logistic"
    skip_thinning: bool = False
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    eta_grid: int = 512
    eta_range: Optional[tuple] = None
    dummy_intensity_factor: float = 4.0
    init: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {self.n_folds}")
        if self.approximation not in ("quadrature", "logistic"):
            raise ValueError(f"unknown approximation {self.approximation!r}")

    def resolve_kernel(self, spec: ModelSpec) -> KernelSpec:
        if self.kernel is not None:
            return self.kernel
        base = "gaussian" if self.kernel_order == 2 else "quartic"
        h = default_bandwidth(spec.window.area(), spec.q, spec.k,
                              self.kernel_order, self.m_smoothness, self.bandwidth_c0)
        return KernelSpec(order=self.kernel_order, bandwidth=h, base=base)


@dataclass
class FoldFit:
    v: int
    n_fit: int
    n_train: int
    theta: Optional[np.ndarray]
    converged: bool
    error: Optional[str]
    nuisance: Optional[NuisanceFit]


class EtaAggregate:
    """Equal-weight average of the fold curves, pinned at the aggregated theta."""

    def __init__(self, fits: List[NuisanceFit], theta: np.ndarray):
        if not fits:
            raise ValueError("no fold curves to aggregate")
        self.fits = list(fits)
        self.theta = np.asarray(theta, dtype=float)
        self.k = fits[0].k

    def eta_at(self, theta, Z) -> np.ndarray:
        return np.mean([nf.eta_at(theta, Z) for nf in self.fits], axis=0)

    def eta_all(self, theta, Z):
        parts = [nf.eta_all(theta, Z) for nf in self.fits]
        g = np.mean([p[0] for p in parts], axis=0)
        d = np.mean([p[1] for p in parts], axis=0)
        D = np.mean([p[2] for p in parts], axis=0)
        return g, d, D

    def __call__(self, Z) -> np.ndarray:
        """eta-hat(z) at the aggregated theta."""
        return self.eta_at(self.theta, Z)


@dataclass
class CrossFitResult:
    theta_hat: np.ndarray
    eta_hat: EtaAggregate
    per_fold: List[FoldFit]
    config: CrossFitConfig


def _uniform_dummy(window, intensity, seed) -> PointPattern:
    return simulate_poisson(constant_surface(window, intensity), seed)


def cross_fit(spec: ModelSpec, pattern: PointPattern, cfg: CrossFitConfig) -> CrossFitResult:
    """Run the full cross-fitting estimator on one pattern.

    If the pattern already carries fold marks compatible with ``cfg.n_folds``
    they are honored (a fold they leave empty raises InsufficientPointsError
    before anything is fitted); otherwise the pattern is thinned with a seed
    stream derived from ``cfg.seed``.  Deterministic given (pattern, cfg).
    """
    if pattern.count() == 0:
        raise InsufficientPointsError("cannot cross-fit an empty pattern")
    if cfg.skip_thinning and spec.link != "log-linear":
        raise ValueError("skip_thinning is permitted only under the log-linear link")
    kernel = cfg.resolve_kernel(spec)
    seeds = np.random.SeedSequence(cfg.seed).spawn(1 + cfg.n_folds)
    area = spec.window.area()

    if cfg.skip_thinning:
        splits = [(1, pattern, pattern, 1.0, 1.0)]
    else:
        if pattern.marks is not None and pattern.marks.max(initial=1) <= cfg.n_folds:
            marked = pattern
            empty = np.setdiff1d(np.arange(1, cfg.n_folds + 1), pattern.marks)
            if empty.size:
                raise InsufficientPointsError(
                    f"fold marks leave fold(s) {empty.tolist()} of {cfg.n_folds} empty")
        else:
            marked = v_fold_thin(pattern, cfg.n_folds, seeds[0])
        v_count = cfg.n_folds
        splits = [(v, fold(marked, v), fold_complement(marked, v),
                   1.0 / v_count, v_count / (v_count - 1.0))
                  for v in range(1, v_count + 1)]

    init = np.zeros(spec.k) if cfg.init is None else np.asarray(cfg.init, dtype=float)
    per_fold: List[FoldFit] = []
    for idx, (v, fit_pat, train_pat, fit_scale, nuis_scale) in enumerate(splits):
        entry = FoldFit(v=v, n_fit=fit_pat.count(), n_train=train_pat.count(),
                        theta=None, converged=False, error=None, nuisance=None)
        try:
            if fit_pat.count() == 0:
                raise InsufficientPointsError(f"fold {v} holds no points")
            nuis_quad = build_quadrature(train_pat, cfg.grid_n)
            nf = NuisanceFit(spec, train_pat, nuis_quad, kernel, scale=nuis_scale,
                             eta_range=cfg.eta_range, grid_size=cfg.eta_grid)
            entry.nuisance = nf
            if cfg.approximation == "quadrature":
                fit_quad = build_quadrature(fit_pat, cfg.grid_n)
                theta_v = profile_maximize(spec, nf, fit_quad, fit_scale, init,
                                           cfg.optimizer)
            else:
                rho = cfg.dummy_intensity_factor * fit_pat.count() / area
                dummy = _uniform_dummy(spec.window, rho, seeds[1 + idx])
                theta_v = logistic_profile_maximize(spec, nf, fit_pat, dummy, rho,
                                                    fit_scale, init, cfg.optimizer)
            entry.theta = theta_v
            entry.converged = True
        except _FOLD_ERRORS as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
        per_fold.append(entry)

    good = [f for f in per_fold if f.converged]
    needed = math.ceil(len(splits) / 2)
    if not good:
        raise NonConvergenceError(
            "all folds failed: " + "; ".join(f"fold {f.v}: {f.error}" for f in per_fold))
    if len(good) < needed:
        raise NonConvergenceError(
            f"only {len(good)} of {len(splits)} folds converged: "
            + "; ".join(f"fold {f.v}: {f.error}" for f in per_fold if not f.converged))

    theta_hat = np.mean([f.theta for f in good], axis=0)
    eta_hat = EtaAggregate([f.nuisance for f in good], theta_hat)
    return CrossFitResult(theta_hat=theta_hat, eta_hat=eta_hat, per_fold=per_fold,
                          config=cfg)
