"""Intensity model specification, pseudo-log-likelihood machinery, and the profile optimizer.

The intensity is ``lambda(u) = Psi[tau_theta(y(u)), eta(z(u))]``.  The log-linear
link fixes ``Psi = exp`` and ``tau_theta(y) = theta . y``; general links supply
``tau`` (with analytic theta-gradient and Hessian) and ``Psi`` (with first and
second partials in both arguments), which are cross-checked against finite
differences at construction.

The pseudo-log-likelihood is evaluated on a quadrature scheme built from the
data points plus a uniform grid, with counting weights (cell area divided by
the number of nodes in the cell), turning the objective into a weighted Poisson
regression over the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    NonConvergenceError,
    NonpositiveIntensityError,
    SingularHessianError,
)
from .fields import GridField, Window
from .process import IntensitySurface, PointPattern


@dataclass(frozen=True)
class LinkFunctions:
    """Link Psi(t, g) and its first/second partial derivatives, vectorized."""

    psi: Callable
    dpsi_dt: Callable
    dpsi_dg: Callable
    d2psi_dtt: Callable
    d2psi_dtg: Callable
    d2psi_dgg: Callable


def _exp_link() -> LinkFunctions:
    e = lambda t, g: np.exp(t + g)
    return LinkFunctions(e, e, e, e, e, e)


def _fd_check(fn, dfn, pts, step=1e-6, rtol=1e-4, what=""):
    for x in pts:
        num = (fn(x + step) - fn(x - step)) / (2 * step)
        ana = dfn(x)
        scale = max(abs(num), abs(ana), 1.0)
        if abs(num - ana) > rtol * scale:
            raise ValueError(f"analytic {what} disagrees with finite differences "
                             f"({ana} vs {num})")


class ModelSpec:
    """Semiparametric intensity model over lattice covariate fields.

    ``target_fields`` (length k) feed tau_theta; ``nuisance_fields`` (length q)
    feed the nonparametric curve.  All fields must share one window.
    """

    def __init__(self, link: str, target_fields: Sequence[GridField],
                 nuisance_fields: Sequence[GridField],
                 tau=None, tau_grad=None, tau_hess=None, psi: LinkFunctions = None):
        if link not in ("log-linear", "general"):
            raise ValueError(f"unknown link {link!r}")
        if not target_fields or not nuisance_fields:
            raise ValueError("need at least one target and one nuisance field")
        fields = list(target_fields) + list(nuisance_fields)
        window = fields[0].window
        if any(f.window != window for f in fields):
            raise ValueError("all covariate fields must share one window")
        self.link = link
        self.target_fields = tuple(target_fields)
        self.nuisance_fields = tuple(nuisance_fields)
        self.window: Window = window
        self.k = len(self.target_fields)
        self.q = len(self.nuisance_fields)
        if link == "log-linear":
            self.psi = _exp_link()
            self._tau = None
        else:
            if tau is None or tau_grad is None or tau_hess is None or psi is None:
                raise ValueError("general link requires tau, tau_grad, tau_hess and psi")
            self.psi = psi
            self._tau = (tau, tau_grad, tau_hess)
        self._validate_derivatives()

    # -- covariates ------------------------------------------------------

    def covariates_at(self, points):
        """Evaluate (Y, Z) at the given (n, 2) points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        Y = np.column_stack([f.evaluate_points(pts) for f in self.target_fields])
        Z = np.column_stack([f.evaluate_points(pts) for f in self.nuisance_fields])
        return Y, Z

    # -- tau and lambda ---------------------------------------------------

    def tau(self, theta, Y):
        theta = np.asarray(theta, dtype=float)
        if self.link == "log-linear":
            return Y @ theta
        return np.asarray(self._tau[0](theta, Y), dtype=float)

    def tau_grad(self, theta, Y):
        if self.link == "log-linear":
            return np.asarray(Y, dtype=float)
        return np.asarray(self._tau[1](theta, Y), dtype=float)

    def tau_hess(self, theta, Y):
        n = Y.shape[0]
        if self.link == "log-linear":
            return np.zeros((n, self.k, self.k))
        return np.asarray(self._tau[2](theta, Y), dtype=float)

    def lambda_values(self, theta, Y, gamma):
        return self.psi.psi(self.tau(theta, Y), gamma)

    def mixed_theta_eta_log_partial(self, theta, Y, gamma):
        """d^2 log Psi / (d theta d gamma); identically zero under the log-linear link."""
        Y = np.asarray(Y, dtype=float)
        if self.link == "log-linear":
            return np.zeros((Y.shape[0], self.k))
        t = self.tau(theta, Y)
        p = self.psi
        v = p.psi(t, gamma)
        mixed_tg = (p.d2psi_dtg(t, gamma) * v - p.dpsi_dt(t, gamma) * p.dpsi_dg(t, gamma)) / v ** 2
        return self.tau_grad(theta, Y) * mixed_tg[:, None]

    def _validate_derivatives(self):
        rng = np.random.default_rng(12345)
        ts = rng.normal(size=5)
        gs = rng.normal(size=5)
        p = self.psi
        for t0, g0 in zip(ts, gs):
            _fd_check(lambda t: p.psi(t, g0), lambda t: p.dpsi_dt(t, g0), [t0], what="dPsi/dt")
            _fd_check(lambda g: p.psi(t0, g), lambda g: p.dpsi_dg(t0, g), [g0], what="dPsi/dg")
            _fd_check(lambda t: p.dpsi_dt(t, g0), lambda t: p.d2psi_dtt(t, g0), [t0],
                      what="d2Psi/dt2")
            _fd_check(lambda g: p.dpsi_dt(t0, g), lambda g: p.d2psi_dtg(t0, g), [g0],
                      what="d2Psi/dtdg")
            _fd_check(lambda g: p.dpsi_dg(t0, g), lambda g: p.d2psi_dgg(t0, g), [g0],
                      what="d2Psi/dg2")
        if self.link == "general":
            Y = rng.normal(size=(4, self.k))
            theta0 = rng.normal(size=self.k) * 0.2
            step = 1e-6
            g_ana = self.tau_grad(theta0, Y)
            h_ana = self.tau_hess(theta0, Y)
            for i in range(self.k):
                e = np.zeros(self.k)
                e[i] = step
                g_num = (self.tau(theta0 + e, Y) - self.tau(theta0 - e, Y)) / (2 * step)
                if not np.allclose(g_num, g_ana[:, i], rtol=1e-4, atol=1e-6):
                    raise ValueError("tau_grad disagrees with finite differences")
                h_num = (self.tau_grad(theta0 + e, Y) - self.tau_grad(theta0 - e, Y)) / (2 * step)
                if not np.allclose(h_num, h_ana[:, :, i], rtol=1e-4, atol=1e-6):
                    raise ValueError("tau_hess disagrees with finite differences")


def log_linear_model(target_fields, nuisance_fields) -> ModelSpec:
    return ModelSpec("log-linear", target_fields, nuisance_fields)


def general_model(target_fields, nuisance_fields, tau, tau_grad, tau_hess,
                  psi: LinkFunctions) -> ModelSpec:
    return ModelSpec("general", target_fields, nuisance_fields,
                     tau=tau, tau_grad=tau_grad, tau_hess=tau_hess, psi=psi)


# -- nuisance-curve protocol ---------------------------------------------


class FixedCurve:
    """A theta-independent nuisance curve (zero theta-derivatives).

    Used for oracle fits and for plugging a plain z -> eta function into the
    profile machinery.
    """

    def __init__(self, fn, k: int):
        self.fn = fn
        self.k = k

    def eta_at(self, theta, Z):
        return np.asarray(self.fn(np.asarray(Z, dtype=float)), dtype=float)

    def eta_all(self, theta, Z):
        g = self.eta_at(theta, Z)
        n = g.shape[0]
        return g, np.zeros((n, self.k)), np.zeros((n, self.k, self.k))


def _curve_gamma(eta, theta, Z):
    if hasattr(eta, "eta_at"):
        return eta.eta_at(theta, Z)
    return np.asarray(eta(Z), dtype=float)


# -- quadrature ------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureScheme:
    """Data plus grid nodes with counting weights.

    The first ``grid_n**2`` nodes are the uniform grid (cell centers, row-major
    with y varying slowest); data nodes follow.  ``responses`` are the weighted
    Poisson responses 1(node is data) / w.
    """

    window: Window
    nodes: np.ndarray        # (m, 2)
    weights: np.ndarray      # (m,)
    is_data: np.ndarray      # (m,) bool
    grid_n: int

    @property
    def responses(self) -> np.ndarray:
        return self.is_data.astype(float) / self.weights

    def m(self) -> int:
        return self.nodes.shape[0]


def build_quadrature(pattern: PointPattern, grid_n: int) -> QuadratureScheme:
    """Union of the data points and a grid_n x grid_n lattice of cell centers.

    Counting weights: each of the grid_n^2 cells splits its area equally among
    the nodes it contains, so the weights sum to the window area exactly and
    nodes sharing a cell share a weight.
    """
    if grid_n < 4:
        raise ValueError(f"grid_n must be >= 4, got {grid_n}")
    w = pattern.window
    g = int(grid_n)
    xs = w.x_min + (np.arange(g) + 0.5) * w.width / g
    ys = w.y_min + (np.arange(g) + 0.5) * w.height / g
    gx, gy = np.meshgrid(xs, ys)
    grid_nodes = np.column_stack([gx.ravel(), gy.ravel()])
    nodes = np.vstack([grid_nodes, pattern.points])
    is_data = np.zeros(nodes.shape[0], dtype=bool)
    is_data[g * g:] = True

    cx = np.clip(((nodes[:, 0] - w.x_min) / w.width * g).astype(int), 0, g - 1)
    cy = np.clip(((nodes[:, 1] - w.y_min) / w.height * g).astype(int), 0, g - 1)
    cell = cy * g + cx
    counts = np.bincount(cell, minlength=g * g)
    cell_area = w.area() / (g * g)
    weights = cell_area / counts[cell]
    return QuadratureScheme(w, nodes, weights, is_data, g)


# -- pseudo-log-likelihood and derivatives ---------------------------------


def pseudo_loglik(spec: ModelSpec, theta, eta, quad: QuadratureScheme,
                  scale: float = 1.0) -> float:
    """Quadrature approximation of the pseudo-log-likelihood.

    ``eta`` is either a plain callable Z -> gamma or a curve object; ``scale``
    multiplies the modeled intensity (the thinning fraction of the fitted
    sub-process).
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    Y, Z = spec.covariates_at(quad.nodes)
    gamma = _curve_gamma(eta, theta, Z)
    return _loglik_arrays(spec, theta, Y, gamma, quad.weights, quad.is_data, scale)


def _loglik_arrays(spec, theta, Y, gamma, weights, is_data, scale):
    with np.errstate(over="ignore"):
        lam = scale * spec.lambda_values(theta, Y, gamma)
    data_lam = lam[is_data]
    if np.any(data_lam <= 0):
        raise NonpositiveIntensityError("scaled intensity nonpositive at a data point")
    if not np.all(np.isfinite(lam)):
        return -np.inf
    return float(np.sum(np.log(data_lam)) - np.sum(weights * lam))


def _dlog_lambda(spec, theta, Y, gamma, d, d2, want_hessian):
    """General link: lambda and its first/second theta-derivatives along
    theta -> (theta, eta_theta), raw and of log lambda: (lam, dlam, dlog, d2lam, d2log)."""
    t = spec.tau(theta, Y)
    g = spec.tau_grad(theta, Y)                                # (m, k)
    p = spec.psi
    lam = p.psi(t, gamma)
    lt = p.dpsi_dt(t, gamma)
    lg = p.dpsi_dg(t, gamma)
    dlam = lt[:, None] * g + lg[:, None] * d                   # (m, k)
    dlog = dlam / lam[:, None]
    if not want_hessian:
        return lam, dlam, dlog, None, None
    gd = g[:, :, None] * d[:, None, :]
    d2lam = (p.d2psi_dtt(t, gamma)[:, None, None] * g[:, :, None] * g[:, None, :]
             + p.d2psi_dtg(t, gamma)[:, None, None] * (gd + gd.transpose(0, 2, 1))
             + p.d2psi_dgg(t, gamma)[:, None, None] * d[:, :, None] * d[:, None, :]
             + lt[:, None, None] * spec.tau_hess(theta, Y)
             + lg[:, None, None] * d2)
    d2log = d2lam / lam[:, None, None] - dlog[:, :, None] * dlog[:, None, :]
    return lam, dlam, dlog, d2lam, d2log


def _score_hessian_arrays(spec, theta, Y, gamma, d_gamma, d2_gamma, weights,
                          is_data, scale, want_hessian):
    """Total derivative of the quadrature objective along theta -> (theta, eta_theta)."""
    theta = np.asarray(theta, dtype=float)
    if spec.link == "log-linear":
        lam = scale * np.exp(Y @ theta + gamma)
        if np.any(lam[is_data] <= 0):
            raise NonpositiveIntensityError("scaled intensity nonpositive at a data point")
        dlog = Y + d_gamma                                     # (m, k)
        wl = weights * lam
        score = dlog[is_data].sum(axis=0) - wl @ dlog
        if not want_hessian:
            return score, None
        hess = d2_gamma[is_data].sum(axis=0)
        hess = hess - np.einsum("j,ja,jb->ab", wl, dlog, dlog)
        hess = hess - np.einsum("j,jab->ab", wl, d2_gamma)
        return score, hess

    lam, dlam, dlog, d2lam, d2log = _dlog_lambda(spec, theta, Y, gamma, d_gamma, d2_gamma,
                                                 want_hessian)
    if np.any(scale * lam[is_data] <= 0):
        raise NonpositiveIntensityError("scaled intensity nonpositive at a data point")
    score = dlog[is_data].sum(axis=0) - scale * (weights[:, None] * dlam).sum(axis=0)
    if not want_hessian:
        return score, None
    hess = d2log[is_data].sum(axis=0) - scale * np.einsum("j,jab->ab", weights, d2lam)
    return score, hess


def score(spec: ModelSpec, theta, eta_curve, quad: QuadratureScheme,
          scale: float = 1.0) -> np.ndarray:
    """Analytic profile score, chain rule through the curve's theta-derivative included."""
    Y, Z = spec.covariates_at(quad.nodes)
    gamma, d, d2 = eta_curve.eta_all(theta, Z)
    s, _ = _score_hessian_arrays(spec, theta, Y, gamma, d, d2, quad.weights,
                                 quad.is_data, scale, want_hessian=False)
    return s


def hessian(spec: ModelSpec, theta, eta_curve, quad: QuadratureScheme,
            scale: float = 1.0) -> np.ndarray:
    Y, Z = spec.covariates_at(quad.nodes)
    gamma, d, d2 = eta_curve.eta_all(theta, Z)
    _, h = _score_hessian_arrays(spec, theta, Y, gamma, d, d2, quad.weights,
                                 quad.is_data, scale, want_hessian=True)
    return h


@dataclass
class OptimizerOptions:
    tol: float = 1e-8            # converged when |score| <= tol * |A|
    max_iter: int = 100
    armijo_c: float = 1e-4
    min_step: float = 1e-12
    max_newton_norm: float = 10.0


def _newton_maximize(value_fn, score_hess_fn, init, area, opts: OptimizerOptions):
    """Damped Newton with Armijo backtracking and gradient-ascent fallback."""
    theta = np.asarray(init, dtype=float).copy()
    tol = opts.tol * area
    for _ in range(opts.max_iter):
        s, h = score_hess_fn(theta)
        snorm = float(np.linalg.norm(s))
        if snorm <= tol:
            return theta
        direction = None
        try:
            fac = cho_factor(-h)
            direction = cho_solve(fac, s)
            if direction @ s <= 0 or not np.all(np.isfinite(direction)):
                direction = None
        except np.linalg.LinAlgError:
            direction = None
        used_newton = direction is not None
        if direction is None:
            direction = s / max(snorm, 1e-300)
        dnorm = float(np.linalg.norm(direction))
        if dnorm > opts.max_newton_norm:
            direction = direction * (opts.max_newton_norm / dnorm)
        base = value_fn(theta)
        slope = float(s @ direction)
        if used_newton and dnorm <= 1e-3 and 0.5 * slope <= 1e-9 * (1.0 + abs(base)):
            # predicted gain is below the float resolution of the objective:
            # Armijo cannot certify progress, but the exact-derivative Newton
            # step is a contraction here, so take it undamped (the step-norm
            # guard keeps a near-singular Hessian from ever sneaking a big
            # uncontrolled move through this branch)
            theta = theta + direction
            continue
        t = 1.0
        while t >= opts.min_step:
            cand = theta + t * direction
            val = value_fn(cand)
            if np.isfinite(val) and val >= base + opts.armijo_c * t * slope:
                theta = cand
                break
            t *= 0.5
        else:
            if used_newton:
                # retry this iterate along the raw gradient
                direction = s / max(snorm, 1e-300)
                slope = snorm
                t = 1.0
                while t >= opts.min_step:
                    cand = theta + t * direction
                    val = value_fn(cand)
                    if np.isfinite(val) and val >= base + opts.armijo_c * t * slope:
                        theta = cand
                        break
                    t *= 0.5
                else:
                    raise SingularHessianError(
                        "line search stalled along both Newton and gradient directions")
            else:
                raise SingularHessianError("gradient ascent stalled")
    s, _ = score_hess_fn(theta)
    raise NonConvergenceError(
        f"no convergence after {opts.max_iter} iterations (|score|={np.linalg.norm(s):.3e})",
        theta=theta, score_norm=float(np.linalg.norm(s)))


def profile_maximize(spec: ModelSpec, eta_curve, quad: QuadratureScheme,
                     scale: float, init, opts: Optional[OptimizerOptions] = None) -> np.ndarray:
    """Maximize the quadrature pseudo-log-likelihood over theta along the fitted curve."""
    opts = opts or OptimizerOptions()
    Y, Z = spec.covariates_at(quad.nodes)
    weights, is_data = quad.weights, quad.is_data

    def value_fn(theta):
        gamma = eta_curve.eta_at(theta, Z)
        try:
            return _loglik_arrays(spec, theta, Y, gamma, weights, is_data, scale)
        except NonpositiveIntensityError:
            return -np.inf

    def score_hess_fn(theta):
        gamma, d, d2 = eta_curve.eta_all(theta, Z)
        return _score_hessian_arrays(spec, theta, Y, gamma, d, d2, weights,
                                     is_data, scale, want_hessian=True)

    return _newton_maximize(value_fn, score_hess_fn, init, quad.window.area(), opts)


# -- logistic approximation -------------------------------------------------


def logistic_loglik(spec: ModelSpec, theta, eta, pattern: PointPattern,
                    dummy: PointPattern, rho: float, scale: float = 1.0) -> float:
    """Logistic composite likelihood against uniform dummy points of intensity rho."""
    if rho <= 0:
        raise ValueError("dummy intensity rho must be > 0")
    Yd, Zd = spec.covariates_at(pattern.points)
    Yu, Zu = spec.covariates_at(dummy.points)
    lam_d = scale * spec.lambda_values(theta, Yd, _curve_gamma(eta, theta, Zd))
    lam_u = scale * spec.lambda_values(theta, Yu, _curve_gamma(eta, theta, Zu))
    if np.any(lam_d <= 0):
        raise NonpositiveIntensityError("scaled intensity nonpositive at a data point")
    return float(np.sum(np.log(lam_d / (lam_d + rho)))
                 + np.sum(np.log(rho / (lam_u + rho))))


def _logistic_score_hessian(spec, theta, Y, gamma, d, d2, rho, scale, sign_data):
    """Score/Hessian contribution of one point set; sign_data selects data vs dummy."""
    theta = np.asarray(theta, dtype=float)
    if spec.link == "log-linear":
        lam = scale * np.exp(Y @ theta + gamma)
        dlog = Y + d
        d2log = d2
    else:
        lam_raw, _, dlog, _, d2log = _dlog_lambda(spec, theta, Y, gamma, d, d2, True)
        lam = scale * lam_raw
    p_node = lam / (lam + rho)
    if sign_data:
        coef = 1.0 - p_node
    else:
        coef = -p_node
    s = (coef[:, None] * dlog).sum(axis=0)
    h = np.einsum("j,jab->ab", coef, d2log)
    h -= np.einsum("j,ja,jb->ab", p_node * (1 - p_node), dlog, dlog)
    return s, h


def logistic_profile_maximize(spec: ModelSpec, eta_curve, pattern: PointPattern,
                              dummy: PointPattern, rho: float, scale: float,
                              init, opts: Optional[OptimizerOptions] = None) -> np.ndarray:
    opts = opts or OptimizerOptions()
    Yd, Zd = spec.covariates_at(pattern.points)
    Yu, Zu = spec.covariates_at(dummy.points)

    def value_fn(theta):
        try:
            gd = eta_curve.eta_at(theta, Zd)
            gu = eta_curve.eta_at(theta, Zu)
            with np.errstate(over="ignore"):
                lam_d = scale * spec.lambda_values(theta, Yd, gd)
                lam_u = scale * spec.lambda_values(theta, Yu, gu)
            if np.any(lam_d <= 0):
                return -np.inf
            val = (np.sum(np.log(lam_d / (lam_d + rho)))
                   + np.sum(np.log(rho / (lam_u + rho))))
            return float(val) if np.isfinite(val) else -np.inf
        except NonpositiveIntensityError:
            return -np.inf

    def score_hess_fn(theta):
        gd_val, dd, d2d = eta_curve.eta_all(theta, Zd)
        gu_val, du, d2u = eta_curve.eta_all(theta, Zu)
        s1, h1 = _logistic_score_hessian(spec, theta, Yd, gd_val, dd, d2d, rho, scale, True)
        s2, h2 = _logistic_score_hessian(spec, theta, Yu, gu_val, du, d2u, rho, scale, False)
        return s1 + s2, h1 + h2

    return _newton_maximize(value_fn, score_hess_fn, init, pattern.window.area(), opts)


# -- parametric baselines ----------------------------------------------------


def _glm_maximize(X, weights, is_data, offset, area, opts: OptimizerOptions, init):
    """Weighted-Poisson Newton for lambda = exp(X beta + offset); concave in beta."""
    beta = np.asarray(init, dtype=float).copy()

    def value_fn(b):
        with np.errstate(over="ignore"):
            lam = np.exp(X @ b + offset)
        if not np.all(np.isfinite(lam)):
            return -np.inf
        return float(np.sum(np.log(lam[is_data])) - np.sum(weights * lam))

    def score_hess_fn(b):
        lam = np.exp(X @ b + offset)
        wl = weights * lam
        s = X[is_data].sum(axis=0) - wl @ X
        h = -np.einsum("j,ja,jb->ab", wl, X, X)
        return s, h

    return _newton_maximize(value_fn, score_hess_fn, beta, area, opts)


@dataclass
class ParametricFit:
    theta: np.ndarray          # (k,)
    coef: np.ndarray           # full coefficient vector
    design: np.ndarray         # (m, p) node design matrix
    offset: np.ndarray         # (m,)
    lambda_nodes: np.ndarray   # (m,) fitted intensity at the quadrature nodes


def fit_parametric_baseline(spec: ModelSpec, pattern: PointPattern,
                            quad: QuadratureScheme, nuisance_form,
                            opts: Optional[OptimizerOptions] = None) -> np.ndarray:
    """Fully parametric reference fits: eta misspecified as linear, or known a priori.

    ``nuisance_form`` is ``"linear"`` (fits eta = b0 + beta . z jointly with theta)
    or ``("oracle", f)`` with f a known z -> eta function (fits theta only).
    Returns theta-hat; use :func:`fit_parametric_baseline_full` for the full fit.
    """
    return fit_parametric_baseline_full(spec, pattern, quad, nuisance_form, opts).theta


def fit_parametric_baseline_full(spec: ModelSpec, pattern: PointPattern,
                                 quad: QuadratureScheme, nuisance_form,
                                 opts: Optional[OptimizerOptions] = None) -> ParametricFit:
    if spec.link != "log-linear":
        raise ValueError("parametric baselines require the log-linear link")
    opts = opts or OptimizerOptions()
    Y, Z = spec.covariates_at(quad.nodes)
    m = Y.shape[0]
    n = int(quad.is_data.sum())
    area = quad.window.area()
    if nuisance_form == "linear":
        X = np.column_stack([Y, np.ones(m), Z])
        offset = np.zeros(m)
        init = np.zeros(X.shape[1])
        init[spec.k] = math.log(max(n, 1) / area)
    elif isinstance(nuisance_form, tuple) and nuisance_form[0] == "oracle":
        X = Y
        offset = np.asarray(nuisance_form[1](Z), dtype=float)
        init = np.zeros(spec.k)
    else:
        raise ValueError(f"unknown nuisance_form {nuisance_form!r}")
    coef = _glm_maximize(X, quad.weights, quad.is_data, offset, area, opts, init)
    lam = np.exp(X @ coef + offset)
    return ParametricFit(theta=coef[: spec.k], coef=coef, design=X, offset=offset,
                         lambda_nodes=lam)


# -- intensity surfaces -------------------------------------------------------


def intensity_surface(spec: ModelSpec, theta, eta_fn, safety: float = 1.05,
                      bound_resolution: Optional[int] = None) -> IntensitySurface:
    """Wrap the model at (theta, eta) as an intensity surface.

    The supremum bound is the lattice-node maximum times a safety factor; the
    rejection sampler re-checks it and raises on violation.
    """
    theta = np.asarray(theta, dtype=float)
    w = spec.window

    def func(pts):
        Y, Z = spec.covariates_at(pts)
        return spec.lambda_values(theta, Y, np.asarray(eta_fn(Z), dtype=float))

    nx = bound_resolution or max(f.nx for f in spec.target_fields + spec.nuisance_fields)
    ny = bound_resolution or max(f.ny for f in spec.target_fields + spec.nuisance_fields)
    xs = np.linspace(w.x_min, w.x_max, nx)
    ys = np.linspace(w.y_min, w.y_max, ny)
    gx, gy = np.meshgrid(xs, ys)
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    sup = float(func(lattice).max()) * safety
    return IntensitySurface(w, func, sup)
