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
import numbers
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import FitError, InsufficientPointsError, NonConvergenceError
from .model import ModelSpec, build_logistic_scheme, build_quadrature, profile_maximize
from .nuisance import KernelSpec, NuisanceFit, default_bandwidth
from .process import PointPattern, fold, fold_complement, v_fold_thin

# logistic dummy points per data point of the fitted fold
_DUMMY_INTENSITY_FACTOR = 4.0
# the approximations of the pseudo-likelihood a fold is fitted by
APPROXIMATIONS = ("quadrature", "logistic")


def _check_integer(name: str, value, minimum=None) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool, and at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class CrossFitConfig:
    """Configuration for one cross-fitting run.

    The kernel is Gaussian (order 2) or quartic (order 4); ``bandwidth=None``
    selects the rate-rule bandwidth with constant ``bandwidth_c0`` and
    dependence index m = 2.  ``skip_thinning`` is valid only for the
    log-linear link.
    """

    n_folds: int = 2
    bandwidth: Optional[float] = None
    kernel_order: int = 2
    bandwidth_c0: float = 1.0
    grid_n: int = 64
    approximation: str = "quadrature"          # or "logistic"
    skip_thinning: bool = False

    def __post_init__(self):
        _check_integer("n_folds", self.n_folds, 2)
        _check_integer("grid_n", self.grid_n, 4)
        _check_integer("kernel_order", self.kernel_order)
        if not (math.isfinite(self.bandwidth_c0) and self.bandwidth_c0 > 0):
            raise ValueError(f"bandwidth_c0 must be finite and > 0, got {self.bandwidth_c0}")
        if self.approximation not in APPROXIMATIONS:
            raise ValueError(f"unknown approximation {self.approximation!r}")
        # the kernel's own checks, before any data is read
        KernelSpec(self.kernel_order, 1.0 if self.bandwidth is None else self.bandwidth)

    def resolve_kernel(self, spec: ModelSpec) -> KernelSpec:
        h = self.bandwidth
        if h is None:
            h = default_bandwidth(spec.window.area(), spec.q, spec.k,
                                  l=self.kernel_order, m=2, c0=self.bandwidth_c0)
        return KernelSpec(order=self.kernel_order, bandwidth=float(h))


@dataclass
class FoldFit:
    v: int
    theta: Optional[np.ndarray]
    error: Optional[str]            # "<FitError type>: <message>" of a failed fold
    nuisance: Optional[NuisanceFit]

    @property
    def converged(self) -> bool:
        return self.error is None


class EtaAggregate:
    """Equal-weight average of the fold curves, pinned at the aggregated theta."""

    def __init__(self, fits: List[NuisanceFit], theta: np.ndarray):
        if not fits:
            raise ValueError("no fold curves to aggregate")
        self.fits = list(fits)
        self.theta = np.asarray(theta, dtype=float)

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


def cross_fit(spec: ModelSpec, pattern: PointPattern, cfg: CrossFitConfig,
              seed: int) -> CrossFitResult:
    """Run the full cross-fitting estimator on one pattern.

    If the pattern already carries fold marks compatible with ``cfg.n_folds``
    they are honored (a fold they leave empty raises InsufficientPointsError
    before anything is fitted); otherwise the pattern is thinned with a seed
    stream derived from ``seed``, which also draws the logistic dummy points.
    A fold that raises a :class:`FitError` is recorded in ``per_fold`` and the
    others go on; fewer than half converged raises NonConvergenceError.
    Deterministic given (pattern, cfg, seed).
    """
    if pattern.count() == 0:
        raise InsufficientPointsError("cannot cross-fit an empty pattern")
    if cfg.skip_thinning and not spec.log_linear:
        raise ValueError("skip_thinning is permitted only under the log-linear link")
    kernel = cfg.resolve_kernel(spec)
    seeds = np.random.SeedSequence(seed).spawn(1 + cfg.n_folds)
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

    per_fold: List[FoldFit] = []
    for idx, (v, fit_pat, train_pat, fit_scale, nuis_scale) in enumerate(splits):
        entry = FoldFit(v=v, theta=None, error=None, nuisance=None)
        try:
            if fit_pat.count() == 0:
                raise InsufficientPointsError(f"fold {v} holds no points")
            nuis_quad = build_quadrature(train_pat, cfg.grid_n)
            nf = NuisanceFit(spec, nuis_quad, kernel, scale=nuis_scale)
            entry.nuisance = nf
            if cfg.approximation == "quadrature":
                scheme = build_quadrature(fit_pat, cfg.grid_n)
            else:
                scheme = build_logistic_scheme(
                    fit_pat, _DUMMY_INTENSITY_FACTOR * fit_pat.count() / area, seeds[1 + idx])
            entry.theta = profile_maximize(spec, nf, scheme, fit_scale, np.zeros(spec.k))
        except FitError as exc:
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
    return CrossFitResult(theta_hat=theta_hat, eta_hat=eta_hat, per_fold=per_fold)
