"""Spatial kernel regression of the nuisance curve eta_theta(z) and its theta-derivatives.

For each z the curve value is the gamma maximizing a kernel-localized version of
the pseudo-likelihood: kernel-weighted log-intensity over the training points
minus the kernel-weighted intensity integral, the latter evaluated on a
quadrature scheme.  When trained on a fold complement (a thinned copy of the
process with intensity (V-1)/V * lambda), the modeled intensity carries that
thinning fraction, which is what makes the fitted curve unbiased; the stored
``scale`` is its reciprocal V/(V-1).

Under the log-linear link the per-z maximizer has the closed form

    gamma(z) = log( scale * sum_train K_h(z_u - z)
                    / sum_j w_j K_h(z_j - z) exp(theta . y_j) )

whose theta-derivatives are tilted kernel moments of y.  General links fall
back to golden-section search and implicit differentiation.

Nuisance covariates are standardized by training moments before kernel
evaluation; bandwidths are in standardized units.  Kernel weights are
renormalized by their total quadrature mass at each z, which keeps the
objective scale stable near the boundary of the covariate support (the ratio
estimators are unaffected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientPointsError, ZeroDenominatorError, ZeroMassError
from .model import ModelSpec, QuadratureScheme
from .process import PointPattern

_GOLDEN_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _gaussian(t):
    return np.exp(-0.5 * np.square(t)) / math.sqrt(2.0 * math.pi)


def _quartic4(t):
    # fourth-order polynomial kernel on [-1, 1]
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) <= 1.0
    return np.where(inside, (15.0 / 32.0) * (3.0 - 10.0 * t ** 2 + 7.0 * t ** 4), 0.0)


_KERNELS = {"gaussian": (_gaussian, 2, 14.0), "quartic": (_quartic4, 4, 1.0)}


@dataclass(frozen=True)
class KernelSpec:
    """Product kernel of even order with a scalar bandwidth (standardized z units)."""

    order: int
    bandwidth: float
    base: str = "gaussian"

    def __post_init__(self):
        if self.base not in _KERNELS:
            raise ValueError(f"unknown kernel base {self.base!r}")
        fn, native_order, support = _KERNELS[self.base]
        if self.order != native_order:
            raise ValueError(f"{self.base} kernel has order {native_order}, got {self.order}")
        if not (self.bandwidth > 0):
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        self._check_moments(fn, support)

    def _check_moments(self, fn, support):
        ts = np.linspace(-support, support, 20001)
        k = fn(ts)
        mass = np.trapezoid(k, ts)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"kernel mass {mass} != 1")
        for i in range(1, self.order):
            mom = np.trapezoid(ts ** i * k, ts)
            if abs(mom) > 1e-6:
                raise ValueError(f"kernel moment {i} = {mom} != 0")
        top = np.trapezoid(ts ** self.order * k, ts)
        if abs(top) <= 1e-6:
            raise ValueError(f"kernel moment {self.order} vanishes")

    def k1(self, t):
        """Univariate kernel value."""
        return _KERNELS[self.base][0](t)

    def product(self, diffs):
        """K_h(z) = h^-q * prod_i k(z_i / h) for standardized differences (n, q)."""
        diffs = np.asarray(diffs, dtype=float)
        if diffs.ndim == 1:
            diffs = diffs[:, None]
        q = diffs.shape[1]
        return np.prod(self.k1(diffs / self.bandwidth), axis=1) / self.bandwidth ** q


def default_bandwidth(window_area: float, q: int, k: int, l: int, m: int,
                      c0: float = 1.0) -> float:
    """Rate-optimal bandwidth h = c0 * |A| ** (-alpha / (l + q + beta)).

    alpha = (m-1)/(k+q+m+1) and beta = (k+q+1)/(k+q+m+1); m indexes the
    strength of higher-order weak dependence, l the kernel order.
    """
    if window_area <= 0:
        raise ValueError("window_area must be > 0")
    alpha = (m - 1) / (k + q + m + 1)
    beta = (k + q + 1) / (k + q + m + 1)
    return c0 * window_area ** (-alpha / (l + q + beta))


def _softplus(x):
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _soft_clip(g, lo, hi, tau):
    """Smooth double clamp of g into (lo, hi).

    Far from the bounds (|g - bound| >> tau) the map is the identity to the
    last bit, so interior evaluations agree exactly with the unclamped values;
    near a bound it saturates smoothly, keeping the curve differentiable in
    theta (a hard clip would put kinks in the profile likelihood).  Returns the
    mapped values and the first/second chain-rule factors.
    """
    x1 = (hi - g) / tau
    s1 = hi - tau * _softplus(x1)
    d1 = _sigmoid(x1)
    dd1 = -d1 * (1.0 - d1) / tau
    x2 = (s1 - lo) / tau
    s2 = lo + tau * _softplus(x2)
    d2 = _sigmoid(x2)
    dd2 = d2 * (1.0 - d2) / tau
    first = d2 * d1
    second = dd2 * d1 * d1 + d2 * dd1
    return s2, first, second


def _golden_max(f, lo, hi, tol=1e-10, scan=32):
    """Golden-section maximizer on [lo, hi] after a coarse scan for the bracket."""
    xs = np.linspace(lo, hi, scan)
    vals = np.array([f(x) for x in xs])
    i = int(np.nanargmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, scan - 1)]
    c = b - _GOLDEN_INVPHI * (b - a)
    d = a + _GOLDEN_INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN_INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN_INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class NuisanceFit:
    """Kernel estimate of the curve theta -> eta_theta(.) trained on one pattern.

    Exact per-point evaluators (`fit_eta`, `eta_dtheta`, ...) share their kernel
    sums with a bulk grid backend (1-d nuisance covariate only) that evaluates
    the curve and its theta-derivatives at many z per optimizer iteration; the
    grid curve is linearly interpolated, so it is itself a smooth function of
    theta and differentiation commutes with interpolation.
    """

    def __init__(self, spec: ModelSpec, train: PointPattern, quad: QuadratureScheme,
                 kernel: KernelSpec, scale: float = 1.0,
                 eta_range: Optional[tuple] = None, grid_size: int = 512):
        if train.count() == 0:
            raise InsufficientPointsError("cannot fit the nuisance on an empty pattern")
        if scale < 1.0:
            raise ValueError("scale is V/(V-1) >= 1 (1 when trained on the full pattern)")
        self.spec = spec
        self.train = train
        self.quad = quad
        self.kernel = kernel
        self.scale = float(scale)
        self.k = spec.k
        self.q = spec.q
        self.diagnostics = {"clip_count": 0, "empty_numerator": 0}

        self.Y_train, Z_train = spec.covariates_at(train.points)
        self.Y_nodes, Z_nodes = spec.covariates_at(quad.nodes)
        self.weights = quad.weights

        self._mu = Z_train.mean(axis=0)
        sd = Z_train.std(axis=0)
        self._sd = np.where(sd > 1e-12 * np.maximum(1.0, np.abs(self._mu)), sd, 1.0)
        self._Zs_train = (Z_train - self._mu) / self._sd
        self._Zs_nodes = (Z_nodes - self._mu) / self._sd

        n = train.count()
        area = spec.window.area()
        if eta_range is None:
            eta_range = (math.log(1e-6 * n / area), math.log(1e6 * n / area))
        self.eta_range = (float(eta_range[0]), float(eta_range[1]))

        self._grid = None
        self._grid_cache = {}
        self._clip_tau = 0.1
        if self.q == 1:
            lo = min(self._Zs_train.min(), self._Zs_nodes.min())
            hi = max(self._Zs_train.max(), self._Zs_nodes.max())
            pad = 0.05 * max(hi - lo, 1e-9)
            grid = np.linspace(lo - pad, hi + pad, int(grid_size))
            with np.errstate(divide="ignore"):
                diff_train = self._Zs_train[:, 0][None, :] - grid[:, None]
                kt = self.kernel.k1(diff_train / kernel.bandwidth) / kernel.bandwidth
                # log of the training kernel sum, stable in the far tails
                log_kt = np.log(kt)
                mt = log_kt.max(axis=1)
                safe_mt = np.where(np.isfinite(mt), mt, 0.0)
                self._logN_grid = safe_mt + np.log(
                    np.exp(log_kt - safe_mt[:, None]).sum(axis=1))
                diff_nodes = self._Zs_nodes[:, 0][None, :] - grid[:, None]
                kw = (self.kernel.k1(diff_nodes / kernel.bandwidth) / kernel.bandwidth
                      * self.weights[None, :])
                # rescale each row by its peak so tilted sums never underflow to 0
                log_kw = np.log(kw)
                mw = log_kw.max(axis=1)
                safe_mw = np.where(np.isfinite(mw), mw, 0.0)
                self._KW = np.exp(log_kw - safe_mw[:, None])
            self._logKW_rowmax = safe_mw
            self._grid_supported = np.isfinite(mw)
            self._grid = grid

    # -- exact per-point kernel sums --------------------------------------

    def standardize(self, z):
        z = np.asarray(z, dtype=float).reshape(-1)
        if z.shape[0] != self.q:
            raise ValueError(f"z must have length {self.q}")
        return (z - self._mu) / self._sd

    def _point_weights(self, z):
        """Raw kernel weights against training points and quadrature nodes."""
        zs = self.standardize(z)
        k_train = self.kernel.product(self._Zs_train - zs[None, :])
        k_nodes = self.kernel.product(self._Zs_nodes - zs[None, :])
        mass = float(np.sum(self.weights * k_nodes))
        if mass <= 0.0:
            raise ZeroMassError(f"no quadrature kernel mass at z={z} (bandwidth too small)")
        return k_train, k_nodes, mass

    # -- objective ---------------------------------------------------------

    def thinning_fraction(self) -> float:
        return 1.0 / self.scale

    def objective(self, theta, gamma, z) -> float:
        theta = np.asarray(theta, dtype=float)
        k_train, k_nodes, mass = self._point_weights(z)
        c = self.thinning_fraction()
        p = self.spec.psi
        active = k_train > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_train = self.spec.tau(theta, self.Y_train[active])
            log_term = np.log(c * p.psi(t_train, gamma))
            data = np.sum(k_train[active] * log_term)
            t_nodes = self.spec.tau(theta, self.Y_nodes)
            integral = np.sum(self.weights * k_nodes * c * p.psi(t_nodes, gamma))
        val = (data - integral) / mass
        return float(val) if np.isfinite(val) else -np.inf

    def objective_partials(self, theta, gamma, z):
        """(d/dgamma, d2/dgamma2, d2/dtheta dgamma) of the kernel objective."""
        theta = np.asarray(theta, dtype=float)
        k_train, k_nodes, mass = self._point_weights(z)
        c = self.thinning_fraction()
        p = self.spec.psi
        t_tr = self.spec.tau(theta, self.Y_train)
        t_nd = self.spec.tau(theta, self.Y_nodes)
        v_tr = p.psi(t_tr, gamma)
        v_nd = p.psi(t_nd, gamma)
        dg_tr = p.dpsi_dg(t_tr, gamma)
        dg_nd = p.dpsi_dg(t_nd, gamma)
        wk = self.weights * k_nodes
        g_g = np.sum(k_train * dg_tr / v_tr) - c * np.sum(wk * dg_nd)
        g_gg = (np.sum(k_train * (p.d2psi_dgg(t_tr, gamma) / v_tr - (dg_tr / v_tr) ** 2))
                - c * np.sum(wk * p.d2psi_dgg(t_nd, gamma)))
        grad_tr = self.spec.tau_grad(theta, self.Y_train)
        grad_nd = self.spec.tau_grad(theta, self.Y_nodes)
        mixed_tr = (p.d2psi_dtg(t_tr, gamma) * v_tr - p.dpsi_dt(t_tr, gamma) * dg_tr) / v_tr ** 2
        g_tg = ((k_train * mixed_tr) @ grad_tr
                - c * (wk * p.d2psi_dtg(t_nd, gamma)) @ grad_nd)
        return g_g / mass, g_gg / mass, g_tg / mass

    # -- per-point fit and derivatives -------------------------------------

    def _clip(self, gamma: float) -> float:
        lo, hi = self.eta_range
        if gamma < lo:
            self.diagnostics["clip_count"] += 1
            return lo
        if gamma > hi:
            self.diagnostics["clip_count"] += 1
            return hi
        return gamma

    def fit_eta(self, theta, z) -> float:
        """Maximizer over gamma; closed form under the log-linear link."""
        theta = np.asarray(theta, dtype=float)
        if self.spec.link == "log-linear":
            k_train, k_nodes, _ = self._point_weights(z)
            num = float(np.sum(k_train))
            if num <= 0.0:
                self.diagnostics["empty_numerator"] += 1
                return self.eta_range[0]
            denom = float(np.sum(self.weights * k_nodes * np.exp(self.Y_nodes @ theta)))
            if denom <= 0.0:
                raise ZeroDenominatorError(f"tilted kernel mass vanished at z={z}")
            return self._clip(math.log(self.scale * num / denom))
        lo, hi = self.eta_range
        return self._clip(_golden_max(lambda g: self.objective(theta, g, z), lo, hi))

    def eta_dtheta(self, theta, z) -> np.ndarray:
        """d eta_theta(z) / d theta: tilted kernel mean of -y (log-linear) or the
        implicit-function ratio of mixed second derivatives."""
        theta = np.asarray(theta, dtype=float)
        if self.spec.link == "log-linear":
            _, k_nodes, _ = self._point_weights(z)
            tilt = self.weights * k_nodes * np.exp(self.Y_nodes @ theta)
            denom = float(np.sum(tilt))
            if denom <= 0.0:
                raise ZeroDenominatorError(f"tilted kernel mass vanished at z={z}")
            return -(tilt @ self.Y_nodes) / denom
        gamma = self.fit_eta(theta, z)
        _, g_gg, g_tg = self.objective_partials(theta, gamma, z)
        if abs(g_gg) < 1e-300:
            raise ZeroDenominatorError(f"curvature in gamma vanished at z={z}")
        return -g_tg / g_gg

    def eta_d2theta(self, theta, z) -> np.ndarray:
        """Second theta-derivative: negative tilted covariance of y (log-linear),
        finite differences of eta_dtheta otherwise."""
        theta = np.asarray(theta, dtype=float)
        if self.spec.link == "log-linear":
            _, k_nodes, _ = self._point_weights(z)
            tilt = self.weights * k_nodes * np.exp(self.Y_nodes @ theta)
            denom = float(np.sum(tilt))
            if denom <= 0.0:
                raise ZeroDenominatorError(f"tilted kernel mass vanished at z={z}")
            mu = (tilt @ self.Y_nodes) / denom
            second = np.einsum("j,ja,jb->ab", tilt, self.Y_nodes, self.Y_nodes) / denom
            return -(second - np.outer(mu, mu))
        step = 1e-4
        out = np.empty((self.k, self.k))
        for i in range(self.k):
            e = np.zeros(self.k)
            e[i] = step
            out[:, i] = (self.eta_dtheta(theta + e, z) - self.eta_dtheta(theta - e, z)) / (2 * step)
        return 0.5 * (out + out.T)

    # -- bulk curve interface (used by the profile optimizer) ---------------

    def _grid_curve(self, theta, need_derivs):
        theta = np.asarray(theta, dtype=float)
        key = (theta.tobytes(), need_derivs)
        hit = self._grid_cache.get(key)
        if hit is not None:
            return hit
        if not need_derivs:
            full = self._grid_cache.get((theta.tobytes(), True))
            if full is not None:
                return full
        lo, hi = self.eta_range
        if self.spec.link == "log-linear":
            ay = np.exp(self.Y_nodes @ theta)
            denom = self._KW @ ay                # scaled by exp(-rowmax), > 0 on support
            valid = self._grid_supported & np.isfinite(self._logN_grid) & (denom > 0)
            gamma_raw = np.full(self._grid.shape, lo)
            gamma_raw[valid] = (math.log(self.scale) + self._logN_grid[valid]
                                - self._logKW_rowmax[valid] - np.log(denom[valid]))
            gamma, chain1, chain2 = _soft_clip(gamma_raw, lo, hi, self._clip_tau)
            if not need_derivs:
                out = (gamma, None, None)
                self._grid_cache[key] = out
                self._trim_cache()
                return out
            ym = ay[:, None] * self.Y_nodes
            first = self._KW @ ym                      # (B, k)
            mu = np.zeros_like(first)
            mu[valid] = first[valid] / denom[valid, None]
            d_raw = -mu
            B = self._grid.shape[0]
            D2_raw = np.zeros((B, self.k, self.k))
            for i in range(self.k):
                for j in range(i + 1):
                    sec = self._KW @ (ym[:, i] * self.Y_nodes[:, j])
                    cov = np.zeros(B)
                    cov[valid] = sec[valid] / denom[valid] - mu[valid, i] * mu[valid, j]
                    D2_raw[:, i, j] = -cov
                    D2_raw[:, j, i] = -cov
            d_raw[~valid] = 0.0
            D2_raw[~valid] = 0.0
            d = chain1[:, None] * d_raw
            D2 = (chain1[:, None, None] * D2_raw
                  + chain2[:, None, None] * d_raw[:, :, None] * d_raw[:, None, :])
            out = (gamma, d, D2)
        else:
            B = self._grid.shape[0]
            gamma = np.empty(B)
            d = np.zeros((B, self.k))
            for b in range(B):
                z = self._grid[b] * self._sd + self._mu
                try:
                    gamma[b] = self.fit_eta(theta, z)
                    if need_derivs:
                        d[b] = self.eta_dtheta(theta, z)
                except (ZeroMassError, ZeroDenominatorError):
                    gamma[b] = lo
            if not need_derivs:
                out = (gamma, None, None)
            else:
                step = 1e-4
                D2 = np.zeros((B, self.k, self.k))
                for i in range(self.k):
                    e = np.zeros(self.k)
                    e[i] = step
                    _, d_p, _ = self._grid_curve_raw_d(theta + e)
                    _, d_m, _ = self._grid_curve_raw_d(theta - e)
                    D2[:, :, i] = (d_p - d_m) / (2 * step)
                D2 = 0.5 * (D2 + D2.transpose(0, 2, 1))
                out = (gamma, d, D2)
        self._grid_cache[key] = out
        self._trim_cache()
        return out

    def _grid_curve_raw_d(self, theta):
        B = self._grid.shape[0]
        gamma = np.empty(B)
        d = np.zeros((B, self.k))
        for b in range(B):
            z = self._grid[b] * self._sd + self._mu
            try:
                gamma[b] = self.fit_eta(theta, z)
                d[b] = self.eta_dtheta(theta, z)
            except (ZeroMassError, ZeroDenominatorError):
                gamma[b] = self.eta_range[0]
        return gamma, d, None

    def _trim_cache(self):
        while len(self._grid_cache) > 6:
            self._grid_cache.pop(next(iter(self._grid_cache)))

    def eta_at(self, theta, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        if self._grid is not None:
            gamma, _, _ = self._grid_curve(theta, need_derivs=False)
            zs = (Z[:, 0] - self._mu[0]) / self._sd[0]
            return np.interp(zs, self._grid, gamma)
        return np.array([self.fit_eta(theta, z) for z in Z])

    def eta_all(self, theta, Z):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        if self._grid is not None:
            gamma, d, D2 = self._grid_curve(theta, need_derivs=True)
            zs = (Z[:, 0] - self._mu[0]) / self._sd[0]
            g_out = np.interp(zs, self._grid, gamma)
            d_out = np.column_stack([np.interp(zs, self._grid, d[:, i])
                                     for i in range(self.k)])
            D_out = np.empty((Z.shape[0], self.k, self.k))
            for i in range(self.k):
                for j in range(self.k):
                    D_out[:, i, j] = np.interp(zs, self._grid, D2[:, i, j])
            return g_out, d_out, D_out
        g_out = np.empty(Z.shape[0])
        d_out = np.empty((Z.shape[0], self.k))
        D_out = np.empty((Z.shape[0], self.k, self.k))
        for idx, z in enumerate(Z):
            g_out[idx] = self.fit_eta(theta, z)
            d_out[idx] = self.eta_dtheta(theta, z)
            D_out[idx] = self.eta_d2theta(theta, z)
        return g_out, d_out, D_out
