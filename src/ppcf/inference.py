"""Asymptotic variance estimation and second-order (PCF) plug-ins.

The sandwich variance of theta-hat is S^-1 Sigma S^-1.  Every estimator gets
its terms from :func:`sandwich_terms`: with v_j the gradient of log lambda at
quadrature node j (y_j + nu(z_j) for the semiparametric fit under the
log-linear link, see :func:`semi_sandwich_terms`; the design row for the
parametric baselines),

    S = sum_j w_j lambda_j v_j v_j^T,    a_j = w_j lambda_j v_j,
    Sigma = S + sum_{i,j} a_i a_j^T [g(d_ij) - 1].

The pair correlation g is Poisson (g = 1) or LGCP-exponential
(g(r) = exp(sigma2 * exp(-r/phi))), fitted by minimum contrast on the
inhomogeneous K-function when not known.  The harness stacks the a-vectors of
all its estimators column-wise, so each PCF variant costs one double sum.

The double sum is truncated at the radius where |g - 1| < 1e-6 (capped at half
the shorter window side) and evaluated exactly by splitting the quadrature
nodes into their lattice part (FFT cross-correlation) and data part (direct
chunked sums).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import minimize
from scipy.signal import fftconvolve
from scipy.spatial import cKDTree
from scipy.stats import norm

from .errors import (
    InsufficientPointsError,
    SingularSensitivityError,
    ZeroDenominatorError,
)
from .model import ModelSpec, QuadratureScheme
from .nuisance import NuisanceFit
from .process import PointPattern

_PCF_TRUNC_TOL = 1e-6


@dataclass(frozen=True)
class PcfModel:
    """Parametric pair correlation: Poisson (g = 1) or exponential-covariance LGCP."""

    family: str = "poisson"
    sigma2: float = 0.0
    phi: float = 1.0

    def __post_init__(self):
        if self.family not in ("poisson", "lgcp-exponential"):
            raise ValueError(f"unknown PCF family {self.family!r}")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.phi <= 0:
            raise ValueError("phi must be > 0")

    def pcf(self, r):
        r = np.asarray(r, dtype=float)
        if self.family == "poisson":
            return np.ones_like(r)
        return np.exp(self.sigma2 * np.exp(-r / self.phi))

    def k_function(self, r, n_steps: int = 2048):
        """K(r) = 2 pi int_0^r s g(s) ds; exactly pi r^2 in the Poisson case."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.family == "poisson" or self.sigma2 == 0.0:
            out = math.pi * r ** 2
            return out if out.size > 1 else float(out[0])
        s = np.linspace(0.0, float(r.max()), n_steps)
        integrand = 2.0 * math.pi * s * self.pcf(s)
        cum = np.concatenate([[0.0], cumulative_trapezoid(integrand, s)])
        out = np.interp(r, s, cum)
        return out if out.size > 1 else float(out[0])

    def truncation_radius(self, window) -> float:
        if self.family == "poisson" or self.sigma2 <= 0:
            return 0.0
        r = self.phi * math.log(self.sigma2 / _PCF_TRUNC_TOL)
        return min(r, 0.5 * min(window.width, window.height))


# -- least favorable direction ------------------------------------------------


def estimate_lfd(nf: NuisanceFit, theta_hat, eta_hat, z) -> np.ndarray:
    """Plug-in least-favorable-direction nu-hat(z) from weighted kernel regression.

    ``eta_hat`` is the aggregated curve (callable on (n, q) arrays) or a scalar
    value at this z.  Log-linear links use the tilted-mean form; general links
    the ratio of the kernel objective's mixed second derivatives.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    z_arr = np.asarray(z, dtype=float).reshape(1, -1)
    gamma = float(eta_hat(z_arr)[0]) if callable(eta_hat) else float(eta_hat)
    if nf.spec.link == "log-linear":
        _, k_nodes, _ = nf._point_weights(z)
        tilt = nf.weights * k_nodes * np.exp(nf.Y_nodes @ theta_hat + gamma)
        denom = float(np.sum(tilt))
        if denom <= 0.0:
            raise ZeroDenominatorError(f"tilted kernel mass vanished at z={z}")
        return -(tilt @ nf.Y_nodes) / denom
    _, g_gg, g_tg = nf.objective_partials(theta_hat, gamma, z)
    if abs(g_gg) < 1e-300:
        raise ZeroDenominatorError(f"curvature in gamma vanished at z={z}")
    return -g_tg / g_gg


def lfd_values(nf: NuisanceFit, theta_hat, eta_hat, Z) -> np.ndarray:
    """nu-hat at many z at once; grid-accelerated for 1-d log-linear fits."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    if nf.spec.link == "log-linear" and nf._grid is not None:
        ay = np.exp(nf.Y_nodes @ theta_hat)
        den = nf._KW @ ay
        nu_grid = np.zeros((nf._grid.shape[0], nf.k))
        ok = den > 0
        for c in range(nf.k):
            num = nf._KW @ (ay * nf.Y_nodes[:, c])
            nu_grid[ok, c] = -num[ok] / den[ok]
        zs = (Z[:, 0] - nf._mu[0]) / nf._sd[0]
        return np.column_stack([np.interp(zs, nf._grid, nu_grid[:, c])
                                for c in range(nf.k)])
    return np.vstack([estimate_lfd(nf, theta_hat, eta_hat, z) for z in Z])


# -- sandwich terms ----------------------------------------------------------------


def _gradient_vectors(spec: ModelSpec, theta_hat, gamma, nu, Y):
    """Full Gateaux gradient of log lambda at the nodes: d/dtheta + d/deta [nu]."""
    if spec.link == "log-linear":
        return Y + nu
    t = spec.tau(theta_hat, Y)
    p = spec.psi
    lam = p.psi(t, gamma)
    grad = spec.tau_grad(theta_hat, Y)
    return (p.dpsi_dt(t, gamma)[:, None] * grad + p.dpsi_dg(t, gamma)[:, None] * nu) / lam[:, None]


def sandwich_terms(quad: QuadratureScheme, lam, grads):
    """(S, a): S = sum_j w_j lam_j v_j v_j^T (symmetrised), a_j = w_j lam_j v_j, v = grads."""
    a = (quad.weights * lam)[:, None] * grads
    s = grads.T @ a
    return 0.5 * (s + s.T), a


def semi_sandwich_terms(spec: ModelSpec, theta_hat, eta_hat, nu_hat, quad: QuadratureScheme):
    """Sandwich terms (S, a) of the semiparametric estimator on the quadrature scheme.

    ``eta_hat`` and ``nu_hat`` are callables on (m, q) covariate arrays or their
    values at the nodes.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    Y, Z = spec.covariates_at(quad.nodes)
    gamma = np.asarray(eta_hat(Z), dtype=float) if callable(eta_hat) else np.asarray(eta_hat)
    nu = np.asarray(nu_hat(Z), dtype=float) if callable(nu_hat) else np.asarray(nu_hat)
    lam = spec.lambda_values(theta_hat, Y, gamma)
    return sandwich_terms(quad, lam, _gradient_vectors(spec, theta_hat, gamma, nu, Y))


def _pair_kernel(pcf: PcfModel, dist, r_trunc):
    g = pcf.pcf(dist) - 1.0
    return np.where(dist <= r_trunc, g, 0.0)


def pcf_correction(quad: QuadratureScheme, a_vectors: np.ndarray,
                   pcf: PcfModel) -> np.ndarray:
    """Truncated double sum  sum_{i,j} a_i a_j^T [g(d_ij) - 1] over quadrature nodes.

    ``a_vectors`` is (m, k).  The lattice block of the scheme is handled by FFT
    cross-correlation (exact, including the diagonal); lattice-data and
    data-data blocks by direct chunked sums.
    """
    k = a_vectors.shape[1]
    r_trunc = pcf.truncation_radius(quad.window)
    if r_trunc <= 0.0:
        return np.zeros((k, k))
    w = quad.window
    g = quad.grid_n
    n_grid = g * g
    A_grid = a_vectors[:n_grid]
    A_data = a_vectors[n_grid:]
    nodes_data = quad.nodes[n_grid:]
    dx = w.width / g
    dy = w.height / g

    # lattice-lattice block via convolution over integer offsets
    offs_x = (np.arange(2 * g - 1) - (g - 1)) * dx
    offs_y = (np.arange(2 * g - 1) - (g - 1)) * dy
    Gimg = _pair_kernel(pcf, np.hypot(offs_y[:, None], offs_x[None, :]), r_trunc)
    total = np.zeros((k, k))
    imgs = [A_grid[:, c].reshape(g, g) for c in range(k)]
    convs = [fftconvolve(img, Gimg, mode="same") for img in imgs]
    for c in range(k):
        for cc in range(c + 1):
            val = float(np.sum(convs[c] * imgs[cc]))
            total[c, cc] += val
            if cc != c:
                total[cc, c] += val

    n_data = A_data.shape[0]
    if n_data:
        grid_nodes = quad.nodes[:n_grid]
        chunk = max(1, int(2e6 // max(n_grid, 1)))
        cross = np.zeros((k, k))
        for start in range(0, n_data, chunk):
            pts = nodes_data[start:start + chunk]
            dist = np.hypot(pts[:, 0][:, None] - grid_nodes[:, 0][None, :],
                            pts[:, 1][:, None] - grid_nodes[:, 1][None, :])
            gv = _pair_kernel(pcf, dist, r_trunc)
            t = gv @ A_grid                              # (chunk, k)
            cross += A_data[start:start + chunk].T @ t
        total += cross + cross.T

        chunk = max(1, int(2e6 // max(n_data, 1)))
        for start in range(0, n_data, chunk):
            pts = nodes_data[start:start + chunk]
            dist = np.hypot(pts[:, 0][:, None] - nodes_data[:, 0][None, :],
                            pts[:, 1][:, None] - nodes_data[:, 1][None, :])
            gv = _pair_kernel(pcf, dist, r_trunc)
            t = gv @ A_data
            total += A_data[start:start + chunk].T @ t
    return 0.5 * (total + total.T)


def pcf_double_sum_brute(quad: QuadratureScheme, a_vectors: np.ndarray,
                         pcf: PcfModel, truncated: bool = False) -> np.ndarray:
    """O(m^2) reference double sum (oracle); optionally with the production truncation."""
    nodes = quad.nodes
    dist = np.hypot(nodes[:, 0][:, None] - nodes[:, 0][None, :],
                    nodes[:, 1][:, None] - nodes[:, 1][None, :])
    g = pcf.pcf(dist) - 1.0
    if truncated:
        r_trunc = pcf.truncation_radius(quad.window)
        g = np.where(dist <= r_trunc, g, 0.0)
    return np.einsum("ia,ij,jb->ab", a_vectors, g, a_vectors)


# -- K-function and minimum contrast -------------------------------------------


def estimate_pcf(pattern: PointPattern, intensity_hat, r_grid=None) -> PcfModel:
    """Fit (sigma2, phi) of the LGCP-exponential PCF by minimum contrast.

    The inhomogeneous K-function is estimated with translation edge correction
    and the intensity plug-in, then |K-hat^(1/4) - K-model^(1/4)|^2 is
    integrated over r and minimized by a coarse grid scan plus Nelder-Mead.
    A degenerate fit falls back to the Poisson family with a warning.
    """
    n = pattern.count()
    if n < 10:
        raise InsufficientPointsError(f"PCF estimation needs >= 10 points, got {n}")
    w = pattern.window
    r_max = 0.25 * min(w.width, w.height)
    if r_grid is None:
        r_grid = np.linspace(0.0, r_max, 65)[1:]
    else:
        r_grid = np.asarray(r_grid, dtype=float)
        r_max = float(r_grid.max())

    lam = np.asarray(intensity_hat(pattern.points), dtype=float)
    if np.any(lam <= 0):
        raise ValueError("intensity plug-in must be positive at the data points")
    pts = pattern.points
    pairs = cKDTree(pts).query_pairs(r_max, output_type="ndarray")
    if pairs.shape[0] == 0:
        warnings.warn("no point pairs within r_max; returning Poisson PCF")
        return PcfModel("poisson")
    d = np.hypot(pts[pairs[:, 0], 0] - pts[pairs[:, 1], 0],
                 pts[pairs[:, 0], 1] - pts[pairs[:, 1], 1])
    trans = (w.width - np.abs(pts[pairs[:, 0], 0] - pts[pairs[:, 1], 0])) * \
            (w.height - np.abs(pts[pairs[:, 0], 1] - pts[pairs[:, 1], 1]))
    contrib = 2.0 / (lam[pairs[:, 0]] * lam[pairs[:, 1]] * trans)
    order = np.argsort(d)
    d_sorted = d[order]
    cum = np.concatenate([[0.0], np.cumsum(contrib[order])])
    k_hat = cum[np.searchsorted(d_sorted, r_grid, side="right")]

    s_fine = np.linspace(0.0, r_max, 513)

    def k_model(sigma2, phi):
        integrand = 2.0 * math.pi * s_fine * np.exp(sigma2 * np.exp(-s_fine / phi))
        cumk = np.concatenate([[0.0], cumulative_trapezoid(integrand, s_fine)])
        return np.interp(r_grid, s_fine, cumk)

    k_hat_q = k_hat ** 0.25

    def contrast(p):
        sigma2, log_phi = p
        if sigma2 < 0 or not np.isfinite(sigma2) or not np.isfinite(log_phi):
            return 1e300
        phi = math.exp(log_phi)
        if phi <= 0 or phi > 100 * r_max:
            return 1e300
        diff = k_hat_q - k_model(sigma2, phi) ** 0.25
        return float(np.trapezoid(diff ** 2, r_grid))

    best = None
    for s2 in np.linspace(0.0, 1.5, 13):
        for phi in np.geomspace(r_max / 50, r_max, 10):
            val = contrast((s2, math.log(phi)))
            if best is None or val < best[0]:
                best = (val, s2, math.log(phi))
    res = minimize(contrast, x0=[best[1], best[2]], method="Nelder-Mead",
                   options={"xatol": 1e-5, "fatol": 1e-12, "maxiter": 400})
    sigma2_hat = float(res.x[0])
    phi_hat = float(math.exp(res.x[1]))
    if (not np.isfinite(sigma2_hat)) or sigma2_hat <= 1e-6 or not np.isfinite(phi_hat) \
            or phi_hat <= 0 or phi_hat > 10 * r_max:
        warnings.warn("degenerate PCF fit; returning Poisson family")
        return PcfModel("poisson")
    return PcfModel("lgcp-exponential", sigma2=sigma2_hat, phi=phi_hat)


# -- Wald report ----------------------------------------------------------------


@dataclass
class FitReport:
    theta_hat: np.ndarray
    S_hat: np.ndarray
    Sigma_hat: np.ndarray
    se: np.ndarray
    ci: Dict[float, np.ndarray]        # level -> (k, 2)
    pcf: PcfModel
    diagnostics: Dict = field(default_factory=dict)


def wald_report(theta_hat, S_hat, Sigma_hat, area: float, levels=(0.9, 0.95),
                pcf: Optional[PcfModel] = None, diagnostics: Optional[Dict] = None) -> FitReport:
    """Standard errors sqrt(diag(S^-1 Sigma S^-1)) and Wald intervals."""
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    S_hat = np.atleast_2d(np.asarray(S_hat, dtype=float))
    Sigma_hat = np.atleast_2d(np.asarray(Sigma_hat, dtype=float))
    k = theta_hat.shape[0]
    eigs = np.linalg.eigvalsh(0.5 * (S_hat + S_hat.T))
    # relative floor per the nonsingular-sensitivity assumption, plus a tiny
    # area-scaled absolute floor so an identically degenerate design
    # (gradient vector numerically zero) is flagged even when k = 1
    floor = max(1e-10 * max(np.trace(S_hat), 0.0) / k, 1e-12 * area)
    if eigs.min() <= floor:
        raise SingularSensitivityError(
            f"sensitivity matrix numerically singular (min eigenvalue {eigs.min():.3e})",
            min_eigenvalue=float(eigs.min()))
    s_inv = np.linalg.inv(S_hat)
    cov = s_inv @ Sigma_hat @ s_inv
    cov = 0.5 * (cov + cov.T)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    ci = {}
    for level in levels:
        zq = norm.ppf(0.5 + level / 2.0)
        ci[float(level)] = np.column_stack([theta_hat - zq * se, theta_hat + zq * se])
    diag = dict(diagnostics or {})
    diag.setdefault("min_eigenvalue_S", float(eigs.min()))
    diag.setdefault("area", float(area))
    return FitReport(theta_hat=theta_hat, S_hat=S_hat, Sigma_hat=Sigma_hat, se=se,
                     ci=ci, pcf=pcf or PcfModel("poisson"), diagnostics=diag)
