"""Intensity model specification, the pseudo-likelihood objective, and the profile optimizer.

The intensity is ``lambda(u) = Psi[tau_theta(y(u)), eta(z(u))]``.  A :class:`Link`
holds the whole link: ``tau`` with its analytic theta-gradient and Hessian, and
``Psi`` with its first and second partials in both arguments.  ``LOG_LINEAR``,
``Psi = exp`` and ``tau_theta(y) = theta . y``, is the default of
:class:`ModelSpec` and the one link with closed-form paths (``spec.log_linear``);
any other link, an equal-valued copy of ``LOG_LINEAR`` included, takes the general
paths and is cross-checked against finite differences when the spec is built.

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
sum_j l'_j d2log_j + l''_j dlog_j dlog_j^T, all three from one evaluation at
theta, which the damped Newton makes once per point it visits.  The profile
fit, the parametric baselines (dlog = the design row, no d2log term) and the
sandwich terms of :mod:`ppcf.inference` take lambda and dlog from
:func:`_log_derivatives`, the one place outside :class:`ModelSpec` that
depends on the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    NonConvergenceError,
    NonpositiveIntensityError,
    SingularHessianError,
)
from .fields import GridField, Window
from .process import PointPattern, constant_surface, simulate_poisson


@dataclass(frozen=True)
class Link:
    """tau_theta(y) with its theta-gradient (n, k) and Hessian (n, k, k), each called
    as f(theta, Y), and Psi(t, g) with its first and second partials, vectorized."""

    tau: Callable
    tau_grad: Callable
    tau_hess: Callable
    psi: Callable
    dpsi_dt: Callable
    dpsi_dg: Callable
    d2psi_dtt: Callable
    d2psi_dtg: Callable
    d2psi_dgg: Callable


def _exp(t, g):
    return np.exp(t + g)


LOG_LINEAR = Link(lambda theta, Y: Y @ theta, lambda theta, Y: Y,
                  lambda theta, Y: np.zeros((Y.shape[0], Y.shape[1], Y.shape[1])),
                  _exp, _exp, _exp, _exp, _exp, _exp)


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
    feed the nonparametric curve.  All fields must share one window.  A ``link``
    other than ``LOG_LINEAR`` is checked against finite differences here.
    """

    def __init__(self, target_fields: Sequence[GridField],
                 nuisance_fields: Sequence[GridField], link: Link = LOG_LINEAR):
        if not target_fields or not nuisance_fields:
            raise ValueError("need at least one target and one nuisance field")
        fields = list(target_fields) + list(nuisance_fields)
        window = fields[0].window
        if any(f.window != window for f in fields):
            raise ValueError("all covariate fields must share one window")
        self.link = link
        self.log_linear = link is LOG_LINEAR     # the closed-form paths
        self.target_fields = tuple(target_fields)
        self.nuisance_fields = tuple(nuisance_fields)
        self.window: Window = window
        self.k = len(self.target_fields)
        self.q = len(self.nuisance_fields)
        self._lattice = {}   # grid_n -> (Y, Z) at the window's quadrature lattice
        if not self.log_linear:
            self._validate_derivatives()

    # -- covariates ------------------------------------------------------

    def covariates_at(self, points):
        """Evaluate (Y, Z) at the given (n, 2) points."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        Y = np.column_stack([f.evaluate_points(pts) for f in self.target_fields])
        Z = np.column_stack([f.evaluate_points(pts) for f in self.nuisance_fields])
        return Y, Z

    def scheme_covariates(self, scheme):
        """(Y, Z) at the nodes of a node scheme, equal to ``covariates_at(scheme.nodes)``.

        A :class:`QuadratureScheme` on the spec's window starts with the lattice
        of its ``grid_n``, which every such scheme shares: the first such scheme
        keeps its lattice rows, and later ones read only their data rows.
        """
        if not (isinstance(scheme, QuadratureScheme) and scheme.window == self.window):
            return self.covariates_at(scheme.nodes)
        g2 = scheme.grid_n ** 2
        lattice = self._lattice.get(scheme.grid_n)
        if lattice is None:
            Y, Z = self.covariates_at(scheme.nodes)
            self._lattice[scheme.grid_n] = Y[:g2].copy(), Z[:g2].copy()
            return Y, Z
        Y, Z = self.covariates_at(scheme.nodes[g2:])
        return np.vstack([lattice[0], Y]), np.vstack([lattice[1], Z])

    # -- tau and lambda ---------------------------------------------------

    def tau(self, theta, Y):
        return np.asarray(self.link.tau(np.asarray(theta, dtype=float), Y), dtype=float)

    def tau_grad(self, theta, Y):
        return np.asarray(self.link.tau_grad(theta, Y), dtype=float)

    def tau_hess(self, theta, Y):
        return np.asarray(self.link.tau_hess(theta, Y), dtype=float)

    def lambda_values(self, theta, Y, gamma):
        return self.link.psi(self.tau(theta, Y), gamma)

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
        p = self.link
        for t0, g0 in zip(ts, gs):
            _fd_check(lambda t: p.psi(t, g0), lambda t: p.dpsi_dt(t, g0), [t0], what="dPsi/dt")
            _fd_check(lambda g: p.psi(t0, g), lambda g: p.dpsi_dg(t0, g), [g0], what="dPsi/dg")
            _fd_check(lambda t: p.dpsi_dt(t, g0), lambda t: p.d2psi_dtt(t, g0), [t0],
                      what="d2Psi/dt2")
            _fd_check(lambda g: p.dpsi_dt(t0, g), lambda g: p.d2psi_dtg(t0, g), [g0],
                      what="d2Psi/dtdg")
            _fd_check(lambda g: p.dpsi_dg(t0, g), lambda g: p.d2psi_dgg(t0, g), [g0],
                      what="d2Psi/dg2")
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
    if spec.log_linear:
        return np.exp(Y @ theta + gamma), Y + d, d2
    t = spec.tau(theta, Y)
    g = spec.tau_grad(theta, Y)                                # (m, k)
    p = spec.link
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


def _objective(scheme, derivatives):
    """The scheme's summed node loss as one function theta -> (value, score, hessian).

    ``derivatives(theta)`` gives (lambda, dlog, d2log) at the nodes, d2log None
    where log lambda is linear in theta.  Where lambda is not finite, or not
    positive at a data node, the value is -inf and score and Hessian are None,
    so that the line search backs off.
    """
    is_data = scheme.is_data

    def evaluate(theta):
        with np.errstate(over="ignore", invalid="ignore"):
            lam, dlog, d2log = derivatives(theta)
        if not np.all(np.isfinite(lam)) or np.any(lam[is_data] <= 0):
            return -np.inf, None, None
        value, l1, l2 = scheme.node_loss(lam)
        hess = np.einsum("j,ja,jb->ab", l2, dlog, dlog)
        if d2log is not None:
            hess += np.einsum("j,jab->ab", l1, d2log)
        return value, l1 @ dlog, hess

    return evaluate


def pseudo_likelihood(spec: ModelSpec, eta_curve, scheme, scale: float):
    """The objective :func:`profile_maximize` maximizes, as theta -> (value, score, hessian).

    ``scheme`` is a :class:`QuadratureScheme` or a :class:`LogisticScheme`;
    ``eta_curve.eta_all(theta, Z)`` gives the curve's values and first and
    second theta-derivatives, the optimizer's whole interface to it, and score
    and Hessian are total derivatives along theta -> (theta, eta_theta).
    ``scale`` multiplies the modeled intensity (the thinning fraction of the
    fitted sub-process).
    """
    Y, Z = spec.scheme_covariates(scheme)

    def derivatives(theta):
        lam, dlog, d2log = _log_derivatives(spec, theta, Y, *eta_curve.eta_all(theta, Z))
        return scale * lam, dlog, d2log

    return _objective(scheme, derivatives)


# -- damped Newton ---------------------------------------------------------------

_TOL = 1e-8                  # converged when |score| <= _TOL * |A|
_MAX_ITER = 100
_ARMIJO_C = 1e-4
_MIN_STEP = 1e-12
_MAX_NEWTON_NORM = 10.0


def _backtrack(evaluate, theta, direction, base, slope):
    """Armijo backtracking from theta along direction: the accepted point and
    its evaluation, or None when the step underflows."""
    t = 1.0
    while t >= _MIN_STEP:
        cand = theta + t * direction
        ev = evaluate(cand)
        if np.isfinite(ev[0]) and ev[0] >= base + _ARMIJO_C * t * slope:
            return cand, ev
        t *= 0.5
    return None


def _cholesky_solve(a, b):
    """x with a x = b for a symmetric positive definite a: the lower Cholesky factor L
    of ``np.linalg.cholesky``, which raises ``LinAlgError`` when a is not positive
    definite, then L y = b by forward and L^T x = y by back substitution."""
    low = np.linalg.cholesky(a)
    x = np.array(b, dtype=float)
    for i in range(x.size):
        x[i] = (x[i] - low[i, :i] @ x[:i]) / low[i, i]
    for i in reversed(range(x.size)):
        x[i] = (x[i] - low[i + 1:, i] @ x[i + 1:]) / low[i, i]
    return x


def _newton_maximize(evaluate, init, area):
    """Damped Newton with Armijo backtracking and gradient-ascent fallback on
    ``evaluate(theta) -> (value, score, hessian)``, called once per point."""
    theta = np.asarray(init, dtype=float).copy()
    tol = _TOL * area
    ev = evaluate(theta)
    for iteration in range(_MAX_ITER + 1):
        base, s, h = ev
        if not np.isfinite(base):    # the start point, or after an undamped step
            raise NonpositiveIntensityError(
                f"intensity not finite, or not positive at a data point, at theta={theta}")
        snorm = float(np.linalg.norm(s))
        if snorm <= tol:
            return theta
        if iteration == _MAX_ITER:
            raise NonConvergenceError(
                f"no convergence after {_MAX_ITER} iterations (|score|={snorm:.3e})",
                theta=theta, score_norm=snorm)
        direction = None
        try:
            direction = _cholesky_solve(-h, s)
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
        slope = float(s @ direction)
        if used_newton and dnorm <= 1e-3 and 0.5 * slope <= 1e-9 * (1.0 + abs(base)):
            # predicted gain is below the float resolution of the objective:
            # Armijo cannot certify progress, but the exact-derivative Newton
            # step is a contraction here, so take it undamped (the step-norm
            # guard keeps a near-singular Hessian from ever sneaking a big
            # uncontrolled move through this branch)
            theta = theta + direction
            ev = evaluate(theta)
            continue
        new = _backtrack(evaluate, theta, direction, base, slope)
        if new is None and used_newton:
            # retry this iterate along the raw gradient
            new = _backtrack(evaluate, theta, s / max(snorm, 1e-300), base, snorm)
            if new is None:
                raise SingularHessianError(
                    "line search stalled along both Newton and gradient directions")
        if new is None:
            raise SingularHessianError("gradient ascent stalled")
        theta, ev = new


def profile_maximize(spec: ModelSpec, eta_curve, scheme, scale: float, init) -> np.ndarray:
    """Maximize :func:`pseudo_likelihood` on ``scheme`` over theta along the fitted curve."""
    return _newton_maximize(pseudo_likelihood(spec, eta_curve, scheme, scale), init,
                            scheme.window.area())


# -- parametric baselines ----------------------------------------------------


@dataclass
class ParametricFit:
    theta: np.ndarray          # (k,)
    coef: np.ndarray           # full coefficient vector
    design: np.ndarray         # (m, p) node design matrix
    lambda_nodes: np.ndarray   # (m,) fitted intensity at the quadrature nodes


def fit_parametric_baseline_full(spec: ModelSpec, quad: QuadratureScheme,
                                 eta: Optional[Callable] = None) -> ParametricFit:
    """Fully parametric reference fits: eta misspecified as linear, or known a priori.

    With ``eta`` None, eta = b0 + beta . z is fitted jointly with theta; a callable
    ``eta`` is the known z -> eta function, and theta alone is fitted.
    lambda = exp(X coef + offset) maximizes the quadrature node loss, with
    dlog = X.
    """
    if not spec.log_linear:
        raise ValueError("parametric baselines require the log-linear link")
    Y, Z = spec.scheme_covariates(quad)
    m = Y.shape[0]
    n = int(quad.is_data.sum())
    area = quad.window.area()
    if eta is None:
        X = np.column_stack([Y, np.ones(m), Z])
        offset = np.zeros(m)
        init = np.zeros(X.shape[1])
        init[spec.k] = math.log(max(n, 1) / area)
    else:
        X = Y
        offset = np.asarray(eta(Z), dtype=float)
        init = np.zeros(spec.k)

    def intensity(coef):
        return np.exp(X @ coef + offset)

    coef = _newton_maximize(_objective(quad, lambda coef: (intensity(coef), X, None)),
                            init, area)
    return ParametricFit(theta=coef[: spec.k], coef=coef, design=X, lambda_nodes=intensity(coef))

