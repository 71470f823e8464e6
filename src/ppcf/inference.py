"""Asymptotic variance estimation and second-order (PCF) plug-ins.

The sandwich variance of theta-hat is S^-1 Sigma S^-1.  Every estimator gets
its terms from :func:`sandwich_terms`: with v_j the gradient of log lambda at
quadrature node j (y_j + nu(z_j) for the semiparametric fit under the
log-linear link, see :func:`semi_sandwich_terms`; the design row for the
parametric baselines),

    S = sum_j w_j lambda_j v_j v_j^T,    a_j = w_j lambda_j v_j,
    Sigma = S + sum_{i,j} a_i a_j^T [g(d_ij) - 1].

The least favorable direction nu is the theta-derivative of a kernel curve
fitted on the full pattern, read from that curve's own evaluation
(:func:`lfd_values`), so it is flat wherever the clamped curve is.

The pair correlation g is Poisson (g = 1) or LGCP-exponential
(g(r) = exp(sigma2 * exp(-r/phi))), fitted by minimum contrast on the
inhomogeneous K-function when not known.  The harness stacks the a-vectors of
all its estimators column-wise, so each PCF variant costs one double sum.

The double sum is truncated at the radius r_trunc where |g - 1| < 1e-6 (capped
at half the shorter window side) and evaluated exactly, with the same kernel
g(r) - 1 (0 beyond r_trunc) in three blocks of node pairs:

* lattice-lattice: one FFT cross-correlation of the kernel image over integer
  lattice offsets with all k columns of a at once;
* lattice-data: the data nodes are binned into 16 x 16 spatial tiles, and each
  tile meets only the box of lattice rows and columns within r_trunc of its
  points (inclusive bounds); every pair outside the box lies beyond r_trunc;
* data-data: square blocks of data nodes, each unordered block pair once.

No temporary of the two direct blocks holds more than 2^16 pair values
(512 kB), whatever the number of data nodes.
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

from .errors import InsufficientPointsError, SingularSensitivityError
from .model import ModelSpec, QuadratureScheme, _log_derivatives
from .nuisance import NuisanceFit
from .process import PointPattern

_PCF_TRUNC_TOL = 1e-6
_PAIR_BLOCK = 2 ** 16      # node pairs per kernel temporary (512 kB of float64)
_TILES = 16                # data tiles per window side in the lattice-data block


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

    def truncation_radius(self, window) -> float:
        if self.family == "poisson" or self.sigma2 <= 0:
            return 0.0
        r = self.phi * math.log(self.sigma2 / _PCF_TRUNC_TOL)
        return min(r, 0.5 * min(window.width, window.height))


# -- least favorable direction ------------------------------------------------


def lfd_values(nf: NuisanceFit, theta_hat, Z) -> np.ndarray:
    """Plug-in least favorable direction nu-hat at many z (B, q): the theta-derivative
    d of the fitted kernel curve at theta_hat, from the curve's own evaluation."""
    return nf.curve(theta_hat, Z, 1)[1]


# -- sandwich terms ----------------------------------------------------------------


def sandwich_terms(quad: QuadratureScheme, lam, grads):
    """(S, a): S = sum_j w_j lam_j v_j v_j^T (symmetrised), a_j = w_j lam_j v_j, v = grads."""
    a = (quad.weights * lam)[:, None] * grads
    s = grads.T @ a
    return 0.5 * (s + s.T), a


def semi_sandwich_terms(spec: ModelSpec, theta_hat, eta_hat, nu_hat, quad: QuadratureScheme):
    """Sandwich terms (S, a) of the semiparametric estimator on the quadrature scheme.

    ``eta_hat`` and ``nu_hat`` are callables on (m, q) covariate arrays.  The
    gradient v_j is the full Gateaux derivative of log lambda, d/dtheta +
    d/deta [nu].
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    Y, Z = spec.covariates_at(quad.nodes)
    gamma = np.asarray(eta_hat(Z), dtype=float)
    nu = np.asarray(nu_hat(Z), dtype=float)
    lam, grads, _ = _log_derivatives(spec, theta_hat, Y, gamma, nu)
    return sandwich_terms(quad, lam, grads)


def _pcf_minus_one(pcf: PcfModel, r2, r_trunc):
    """In place: squared distances r2 -> g(r) - 1 (the expression of ``PcfModel.pcf``),
    0 where r > r_trunc."""
    r = np.sqrt(r2, out=r2)
    beyond = r > r_trunc
    np.divide(r, -pcf.phi, out=r)
    np.exp(r, out=r)
    r *= pcf.sigma2
    np.exp(r, out=r)
    r -= 1.0
    r[beyond] = 0.0
    return r


def _lattice_sum(pcf, r_trunc, quad, A_grid):
    """Lattice-lattice block: one FFT cross-correlation over all k columns."""
    g = quad.grid_n
    offs = np.arange(2 * g - 1) - (g - 1)
    r2 = (offs * (quad.window.height / g))[:, None] ** 2 \
        + (offs * (quad.window.width / g))[None, :] ** 2
    kern = _pcf_minus_one(pcf, r2, r_trunc)
    imgs = A_grid.T.reshape(-1, g, g)
    conv = fftconvolve(imgs, kern[None], mode="same", axes=(1, 2))
    return np.einsum("aij,bij->ab", conv, imgs)


def _lattice_data_sum(pcf, r_trunc, quad, A_grid, A_data):
    """sum over data i and lattice j of a_i a_j^T [g(d_ij) - 1], per spatial tile of
    data nodes over the lattice rows and columns within r_trunc of the tile."""
    g = quad.grid_n
    k = A_grid.shape[1]
    xs = quad.nodes[:g, 0]
    ys = quad.nodes[:g * g:g, 1]
    pts = quad.nodes[g * g:]
    w = quad.window
    tx = np.clip(((pts[:, 0] - w.x_min) / w.width * _TILES).astype(int), 0, _TILES - 1)
    ty = np.clip(((pts[:, 1] - w.y_min) / w.height * _TILES).astype(int), 0, _TILES - 1)
    tile = ty * _TILES + tx
    order = np.argsort(tile, kind="stable")
    A_img = A_grid.reshape(g, g, k)
    buf = np.empty(_PAIR_BLOCK)
    out = np.zeros((k, k))
    for idx in np.split(order, np.flatnonzero(np.diff(tile[order])) + 1):
        px, py = pts[idx, 0], pts[idx, 1]
        # inclusive bounds in the arithmetic of the distances below: a lattice
        # column left out has |x_c - x_p| > r_trunc for every point p of the
        # tile, hence r > r_trunc and a zero kernel
        c0 = np.searchsorted(xs - px.min(), -r_trunc, side="left")
        c1 = np.searchsorted(xs - px.max(), r_trunc, side="right")
        r0 = np.searchsorted(ys - py.min(), -r_trunc, side="left")
        r1 = np.searchsorted(ys - py.max(), r_trunc, side="right")
        if c1 <= c0 or r1 <= r0:
            continue
        nx = c1 - c0
        rows = max(1, _PAIR_BLOCK // nx)
        for y0 in range(r0, r1, rows):
            y1 = min(y0 + rows, r1)
            a_box = A_img[y0:y1, c0:c1].reshape(-1, k)
            step = max(1, _PAIR_BLOCK // a_box.shape[0])
            for p0 in range(0, idx.size, step):
                sel = idx[p0:p0 + step]
                r2 = buf[:sel.size * a_box.shape[0]].reshape(sel.size, y1 - y0, nx)
                np.add(np.square(ys[y0:y1] - pts[sel, 1, None])[:, :, None],
                       np.square(xs[c0:c1] - pts[sel, 0, None])[:, None, :], out=r2)
                kern = _pcf_minus_one(pcf, r2, r_trunc).reshape(sel.size, -1)
                out += A_data[sel].T @ (kern @ a_box)
    return out


def _data_sum(pcf, r_trunc, pts, A_data):
    """Data-data block in square blocks of nodes; the kernel is symmetric, so each
    off-diagonal block pair is evaluated once."""
    n = pts.shape[0]
    b = math.isqrt(_PAIR_BLOCK)
    out = np.zeros((A_data.shape[1],) * 2)
    for i0 in range(0, n, b):
        p_i, a_i = pts[i0:i0 + b], A_data[i0:i0 + b]
        for j0 in range(i0, n, b):
            p_j = pts[j0:j0 + b]
            r2 = np.square(p_i[:, 0, None] - p_j[None, :, 0])
            r2 += np.square(p_i[:, 1, None] - p_j[None, :, 1])
            blk = a_i.T @ (_pcf_minus_one(pcf, r2, r_trunc) @ A_data[j0:j0 + b])
            out += blk if j0 == i0 else blk + blk.T
    return out


def pcf_correction(quad: QuadratureScheme, a_vectors: np.ndarray,
                   pcf: PcfModel) -> np.ndarray:
    """Truncated double sum  sum_{i,j} a_i a_j^T [g(d_ij) - 1] over quadrature nodes.

    ``a_vectors`` is (m, k).  The lattice block of the scheme is handled by FFT
    cross-correlation (exact, including the diagonal); the lattice-data block
    by direct sums over each tile of data nodes and the lattice box within the
    truncation radius of it, and the data-data block by direct sums, both in
    blocks of at most ``_PAIR_BLOCK`` pairs.
    """
    k = a_vectors.shape[1]
    r_trunc = pcf.truncation_radius(quad.window)
    if r_trunc <= 0.0:
        return np.zeros((k, k))
    n_grid = quad.grid_n ** 2
    A_grid = a_vectors[:n_grid]
    A_data = a_vectors[n_grid:]
    total = _lattice_sum(pcf, r_trunc, quad, A_grid)
    if A_data.shape[0]:
        cross = _lattice_data_sum(pcf, r_trunc, quad, A_grid, A_data)
        total += cross + cross.T + _data_sum(pcf, r_trunc, quad.nodes[n_grid:], A_data)
    return 0.5 * (total + total.T)


# -- K-function and minimum contrast -------------------------------------------


def _k_model(r, n_steps: int = 513):
    """K(r) = 2 pi int_0^r s g(s) ds at the points r as a function of the PCF model:
    trapezoid sums over one grid of ``n_steps`` s-values from 0 to max r, built once
    for every model; exactly pi r^2 in the Poisson case."""
    s = np.linspace(0.0, float(r.max()), n_steps)
    two_pi_s = 2.0 * math.pi * s
    poisson = math.pi * r ** 2

    def k(model: PcfModel):
        if model.family == "poisson" or model.sigma2 == 0.0:
            return poisson
        cum = np.concatenate([[0.0], cumulative_trapezoid(two_pi_s * model.pcf(s), s)])
        return np.interp(r, s, cum)

    return k


def estimate_pcf(pattern: PointPattern, intensity_hat) -> PcfModel:
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
    r_grid = np.linspace(0.0, r_max, 65)[1:]

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

    k_hat_q = k_hat ** 0.25
    k_model = _k_model(r_grid)

    def contrast(p):
        sigma2, log_phi = p
        if sigma2 < 0 or not np.isfinite(sigma2) or not np.isfinite(log_phi):
            return 1e300
        phi = math.exp(log_phi)
        if phi <= 0 or phi > 100 * r_max:
            return 1e300
        diff = k_hat_q - k_model(PcfModel("lgcp-exponential", sigma2, phi)) ** 0.25
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
