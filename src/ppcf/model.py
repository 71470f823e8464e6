"""Intensity model specification, the pseudo-likelihood objective, and the profile optimizer.

The intensity is ``lambda(u) = Psi[tau_theta(y(u)), eta(z(u))]``.  The log-linear
link fixes ``Psi = exp`` and ``tau_theta(y) = theta . y``; general links supply
``tau`` (with analytic theta-gradient and Hessian) and ``Psi`` (with first and
second partials in both arguments), which are cross-checked against finite
differences at construction.

theta is fitted on a scheme of nodes u_j, some of them the data points, by
maximizing the sum over the nodes of one loss l_j in log lambda_j.  Each scheme
supplies the value and the derivatives l' and l'' in log lambda:

* quadrature (Berman & Turner 1992): the data points plus a uniform grid, with
  counting weights w_j (cell area divided by the number of nodes in the cell);
  l = 1_data log lambda - w lambda, l' = 1_data - w lambda, l'' = -w lambda;
* logistic (Baddeley, Coeurjolly, Rubak & Waagepetersen 2014): the data points
  plus uniform dummy points of intensity rho; l = 1_data log lambda
  - log(lambda + rho) + (1 - 1_data) log rho, and with p = lambda / (lambda + rho),
  l' = 1_data - p, l'' = -p (1 - p).

With dlog and d2log the first and second theta-derivatives of log lambda along
theta -> (theta, eta_theta), the score is sum_j l'_j dlog_j and the Hessian is
sum_j l'_j d2log_j + l''_j dlog_j dlog_j^T.  The profile fit, the parametric
baselines (dlog = the design row, no d2log term) and the sandwich terms of
:mod:`ppcf.inference` take lambda and dlog from :func:`_log_derivatives`, the
one place outside :class:`ModelSpec` that depends on the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    NonConvergenceError,
    NonpositiveIntensityError,
    SingularHessianError,
)
from .fields import GridField, Window
from .process import PointPattern, constant_surface, simulate_poisson


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

    def intensity(self, theta, eta_fn):
        """The intensity u -> lambda(u) on (n, 2) points at theta and a z -> eta function."""
        theta = np.asarray(theta, dtype=float)

        def lam(pts):
            Y, Z = self.covariates_at(pts)
            return self.lambda_values(theta, Y, np.asarray(eta_fn(Z), dtype=float))

        return lam

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




# -- node schemes ------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureScheme:
    """Data plus grid nodes with counting weights.

    The first ``grid_n**2`` nodes are the uniform grid (cell centers, row-major
    with y varying slowest); data nodes follow.
    """

    window: Window
    nodes: np.ndarray        # (m, 2)
    weights: np.ndarray      # (m,)
    is_data: np.ndarray      # (m,) bool
    grid_n: int

    def m(self) -> int:
        return self.nodes.shape[0]

    def node_loss(self, lam):
        """(value, l', l'') of l = 1_data log lambda - w lambda; derivatives in log lambda."""
        wl = self.weights * lam
        return float(np.sum(np.log(lam[self.is_data])) - np.sum(wl)), self.is_data - wl, -wl


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


@dataclass(frozen=True)
class LogisticScheme:
    """Dummy nodes of a uniform Poisson pattern of intensity ``rho``; data nodes follow."""

    window: Window
    nodes: np.ndarray        # (m, 2)
    is_data: np.ndarray      # (m,) bool
    rho: float

    def node_loss(self, lam):
        """(value, l', l'') of the logistic log-likelihood of data against dummy nodes;
        derivatives in log lambda."""
        p = lam / (lam + self.rho)
        value = (np.sum(np.log(lam[self.is_data])) - np.sum(np.log(lam + self.rho))
                 + np.count_nonzero(~self.is_data) * math.log(self.rho))
        return float(value), self.is_data - p, -p * (1.0 - p)


def build_logistic_scheme(pattern: PointPattern, rho: float, seed) -> LogisticScheme:
    """The pattern's points plus uniform Poisson dummy points of intensity rho drawn with seed."""
    dummy = simulate_poisson(constant_surface(pattern.window, rho), seed)
    nodes = np.vstack([dummy.points, pattern.points])
    is_data = np.arange(nodes.shape[0]) >= dummy.count()
    return LogisticScheme(pattern.window, nodes, is_data, float(rho))


# -- the objective -------------------------------------------------------------


def _log_derivatives(spec: ModelSpec, theta, Y, gamma, d, d2=None):
    """(lambda, dlog, d2log) at the nodes: lambda and the first and second
    theta-derivatives of log lambda along theta -> (theta, eta_theta), where d
    and d2 are the curve's theta-derivatives; d2log is None when d2 is."""
    theta = np.asarray(theta, dtype=float)
    if spec.link == "log-linear":
        return np.exp(Y @ theta + gamma), Y + d, d2
    t = spec.tau(theta, Y)
    g = spec.tau_grad(theta, Y)                                # (m, k)
    p = spec.psi
    lam = p.psi(t, gamma)
    lt = p.dpsi_dt(t, gamma)
    lg = p.dpsi_dg(t, gamma)
    dlog = (lt[:, None] * g + lg[:, None] * d) / lam[:, None]  # (m, k)
    if d2 is None:
        return lam, dlog, None
    gd = g[:, :, None] * d[:, None, :]
    d2lam = (p.d2psi_dtt(t, gamma)[:, None, None] * g[:, :, None] * g[:, None, :]
             + p.d2psi_dtg(t, gamma)[:, None, None] * (gd + gd.transpose(0, 2, 1))
             + p.d2psi_dgg(t, gamma)[:, None, None] * d[:, :, None] * d[:, None, :]
             + lt[:, None, None] * spec.tau_hess(theta, Y)
             + lg[:, None, None] * d2)
    return lam, dlog, d2lam / lam[:, None, None] - dlog[:, :, None] * dlog[:, None, :]


def _objective(scheme, intensity, derivatives):
    """(value, score_hessian) of the scheme's summed node loss as functions of theta.

    ``intensity(theta)`` gives lambda at the nodes and ``derivatives(theta)``
    gives (lambda, dlog, d2log), d2log None where log lambda is linear in theta.
    The value is -inf where lambda is not finite, or not positive at a data
    node, so that the line search backs off.
    """
    is_data = scheme.is_data

    def value(theta):
        with np.errstate(over="ignore"):
            lam = intensity(theta)
        if not np.all(np.isfinite(lam)) or np.any(lam[is_data] <= 0):
            return -np.inf
        return scheme.node_loss(lam)[0]

    def score_hessian(theta):
        lam, dlog, d2log = derivatives(theta)
        if np.any(lam[is_data] <= 0):
            raise NonpositiveIntensityError("scaled intensity nonpositive at a data point")
        _, l1, l2 = scheme.node_loss(lam)
        hess = np.einsum("j,ja,jb->ab", l2, dlog, dlog)
        if d2log is not None:
            hess += np.einsum("j,jab->ab", l1, d2log)
        return l1 @ dlog, hess

    return value, score_hessian


def pseudo_likelihood(spec: ModelSpec, eta_curve, scheme, scale: float):
    """The objective :func:`profile_maximize` maximizes, as (value, score_hessian) of theta.

    ``scheme`` is a :class:`QuadratureScheme` or a :class:`LogisticScheme`;
    ``eta_curve`` has ``eta_at(theta, Z)`` and ``eta_all(theta, Z)`` (values
    and first and second theta-derivatives), and score and Hessian are total
    derivatives along theta -> (theta, eta_theta).  ``scale`` multiplies the
    modeled intensity (the thinning fraction of the fitted sub-process).
    """
    Y, Z = spec.covariates_at(scheme.nodes)

    def intensity(theta):
        return scale * spec.lambda_values(theta, Y, eta_curve.eta_at(theta, Z))

    def derivatives(theta):
        lam, dlog, d2log = _log_derivatives(spec, theta, Y, *eta_curve.eta_all(theta, Z))
        return scale * lam, dlog, d2log

    return _objective(scheme, intensity, derivatives)


# -- damped Newton ---------------------------------------------------------------

_TOL = 1e-8                  # converged when |score| <= _TOL * |A|
_MAX_ITER = 100
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12
_MAX_NEWTON_NORM = 10.0


def _backtrack(value_fn, theta, direction, base, slope):
    """Armijo backtracking from theta along direction: the accepted point and
    its value, or None when the step underflows."""
    t = 1.0
    while t >= _MIN_STEP:
        cand = theta + t * direction
        val = value_fn(cand)
        if np.isfinite(val) and val >= base + _ARMIJO_C * t * slope:
            return cand, val
        t *= 0.5
    return None


def _newton_maximize(value_fn, score_hess_fn, init, area):
    """Damped Newton with Armijo backtracking and gradient-ascent fallback."""
    theta = np.asarray(init, dtype=float).copy()
    tol = _TOL * area
    base = None                  # value at theta, once evaluated
    for _ in range(_MAX_ITER):
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
        if dnorm > _MAX_NEWTON_NORM:
            direction = direction * (_MAX_NEWTON_NORM / dnorm)
        if base is None:
            base = value_fn(theta)
        slope = float(s @ direction)
        if used_newton and dnorm <= 1e-3 and 0.5 * slope <= 1e-9 * (1.0 + abs(base)):
            # predicted gain is below the float resolution of the objective:
            # Armijo cannot certify progress, but the exact-derivative Newton
            # step is a contraction here, so take it undamped (the step-norm
            # guard keeps a near-singular Hessian from ever sneaking a big
            # uncontrolled move through this branch)
            theta, base = theta + direction, None
            continue
        new = _backtrack(value_fn, theta, direction, base, slope)
        if new is None and used_newton:
            # retry this iterate along the raw gradient
            new = _backtrack(value_fn, theta, s / max(snorm, 1e-300), base, snorm)
            if new is None:
                raise SingularHessianError(
                    "line search stalled along both Newton and gradient directions")
        if new is None:
            raise SingularHessianError("gradient ascent stalled")
        theta, base = new
    s, _ = score_hess_fn(theta)
    raise NonConvergenceError(
        f"no convergence after {_MAX_ITER} iterations (|score|={np.linalg.norm(s):.3e})",
        theta=theta, score_norm=float(np.linalg.norm(s)))


def profile_maximize(spec: ModelSpec, eta_curve, scheme, scale: float, init) -> np.ndarray:
    """Maximize :func:`pseudo_likelihood` on ``scheme`` over theta along the fitted curve."""
    value, score_hessian = pseudo_likelihood(spec, eta_curve, scheme, scale)
    return _newton_maximize(value, score_hessian, init, scheme.window.area())


# -- parametric baselines ----------------------------------------------------


@dataclass
class ParametricFit:
    theta: np.ndarray          # (k,)
    coef: np.ndarray           # full coefficient vector
    design: np.ndarray         # (m, p) node design matrix
    lambda_nodes: np.ndarray   # (m,) fitted intensity at the quadrature nodes


def fit_parametric_baseline_full(spec: ModelSpec, pattern: PointPattern,
                                 quad: QuadratureScheme, nuisance_form) -> ParametricFit:
    """Fully parametric reference fits: eta misspecified as linear, or known a priori.

    ``nuisance_form`` is ``"linear"`` (fits eta = b0 + beta . z jointly with theta)
    or ``("oracle", f)`` with f a known z -> eta function (fits theta only).
    lambda = exp(X coef + offset) maximizes the quadrature node loss, with
    dlog = X.
    """
    if spec.link != "log-linear":
        raise ValueError("parametric baselines require the log-linear link")
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

    def intensity(coef):
        return np.exp(X @ coef + offset)

    value, score_hessian = _objective(quad, intensity, lambda coef: (intensity(coef), X, None))
    coef = _newton_maximize(value, score_hessian, init, area)
    return ParametricFit(theta=coef[: spec.k], coef=coef, design=X, lambda_nodes=intensity(coef))

