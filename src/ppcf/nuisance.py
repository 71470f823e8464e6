"""Spatial kernel regression of the nuisance curve eta_theta(z) and its theta-derivatives.

For each z the curve value is the gamma maximizing a kernel-localized version of
the pseudo-likelihood: kernel-weighted log-intensity over the training points
minus the kernel-weighted intensity integral, the latter evaluated on a
quadrature scheme.  When trained on a fold complement (a thinned copy of the
process with intensity (V-1)/V * lambda), the modeled intensity carries that
thinning fraction, which is what makes the fitted curve unbiased; the stored
``scale`` is its reciprocal V/(V-1).

One batched solver serves every link and nuisance dimension: it takes the
kernel sums of a batch of z and solves every z at once.  Under the log-linear link

    gamma(z) = log( scale * sum_train K_h(z_u - z)
                    / sum_j w_j K_h(z_j - z) exp(theta . y_j) )

and its theta-derivatives, minus the tilted kernel mean and covariance of y,
come from one product of the kernel weights with [a, a y, a y y^T],
a_j = exp(theta . y_j).  General links run a bracketed Newton iteration on the
gamma-score, implicit differentiation for the first theta-derivative and a
central difference of it for the second.  One smooth clamp maps raw values into
``eta_range``, the log intensities within a factor 1e6 of the training points'
mean intensity.  Covariates are standardized by training moments (bandwidths in
those units; the kernel follows from its order: Gaussian for 2, quartic for 4).

The kernel sums have two sources.  Dense kernel rows, plain signed sums built in
chunks of bounded size, serve ``exact`` and ``objective`` at query points, every
q >= 2 curve and the q = 1 grid of general links.  For q = 1 the curve is
evaluated at the nodes of a fixed 512-node grid and interpolated linearly; under
the log-linear link that grid keeps no rows: its training sums are direct and its
node moments are linearly binned at ``_BINS_PER_CELL`` = 16 bins per grid cell
and convolved with the kernel by FFT (Wand 1994; Fan & Marron 1994), see
``_BinnedGrid``.  Binning moves gamma at the grid nodes by at most 1e-6 to 3e-6
on W1 fields and by up to 6e-5 at the sparse tail nodes of a W2 product field
(d and D2 by up to 3e-4 and 2e-3 there), a second-order error that falls about
fourfold when the bins per cell double.

The least favorable direction of the sandwich variance is the curve's own
first theta-derivative d, taken from the same evaluation and the same clamp
as the curve value (``curve`` at order 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (InsufficientPointsError, NonConvergenceError, ZeroDenominatorError,
                     ZeroMassError)
from .model import ModelSpec, QuadratureScheme
from .process import PointPattern

_CHUNK_ELEMS = 1 << 16        # entries of one (rows, n + m, q) kernel temporary
_NEWTON_TOL = 1e-12           # relative step at which a row's Newton iteration stops
_NEWTON_MAX_ITER = 200
_FD_STEP = 1e-4               # theta step of the general-link second derivative
_GRID_SIZE = 512              # nodes of the q = 1 grid the curve is interpolated on
_BINS_PER_CELL = 16           # linear-binning bins per q = 1 grid cell (node moments)


def _gaussian(t):
    return np.exp(-0.5 * np.square(t)) / math.sqrt(2.0 * math.pi)


def _quartic4(t):
    # fourth-order polynomial kernel on [-1, 1]
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) <= 1.0
    return np.where(inside, (15.0 / 32.0) * (3.0 - 10.0 * t ** 2 + 7.0 * t ** 4), 0.0)


# kernel order -> univariate kernel: Gaussian (order 2), polynomial on [-1, 1] (order 4)
_KERNELS = {2: _gaussian, 4: _quartic4}


@dataclass(frozen=True)
class KernelSpec:
    """Product kernel of even order with a scalar bandwidth (standardized z units);
    the order picks the univariate kernel from ``_KERNELS``."""

    order: int
    bandwidth: float

    def __post_init__(self):
        if self.order not in _KERNELS:
            raise ValueError(f"no kernel of order {self.order}")
        if not (self.bandwidth > 0):
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    def k1(self, t):
        """Univariate kernel value."""
        return _KERNELS[self.order](t)

    def product(self, diffs):
        """K_h(z) = h^-q * prod_i k(z_i / h) for standardized differences (..., q)."""
        diffs = np.asarray(diffs, dtype=float)
        if diffs.ndim == 1:
            diffs = diffs[:, None]
        q = diffs.shape[-1]
        return np.prod(self.k1(diffs / self.bandwidth), axis=-1) / self.bandwidth ** q


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

    Far from the bounds the map is the identity up to rounding: a value at
    distance d >> tau from the nearer bound moves by tau * exp(-d / tau) plus at
    most about two units in the last place of max(|lo|, |hi|) (up to 4.4e-15
    for bounds (-8, 20)), so most interior values change in their last bits;
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


class _Rows(NamedTuple):
    """Kernel rows of a batch of z, each divided by the max-abs of its node part."""

    train: np.ndarray    # (B,) training kernel sums, or (B, n) rows where needed
    KW: np.ndarray       # (B, m) w_j K_h(z_j - z)
    mass: np.ndarray     # (B,) sum_j w_j K_h(z_j - z)

    def moments(self, cols):
        """sum_j w_j K_h(z_j - z) cols_j per row: (B, p) for cols (m, p)."""
        return self.KW @ cols


class _BinnedGrid(NamedTuple):
    """Kernel sums at the G nodes g_i of the q = 1 grid under the log-linear link,
    without kernel rows.

    The training sums are direct.  Node moments are linearly binned: w_j c_j is split
    between the two fine bins around z_j, b = ``_BINS_PER_CELL`` bins per grid cell,
    so node i sits on fine bin b i.  Fine bin b j + r is b (j - i) + r bins from node
    i, so the moments at all nodes are b circular convolutions of length 2G, one per
    phase r, summed: b real FFTs of the binned columns, products with the kernel's
    transforms (taken once per fit), one inverse FFT.  Binning puts each kernel value
    on the chord between its fine bins, an error of at most delta^2 / 8 max|K_h''|
    per unit of |w_j c_j| (delta the bin width) that does not depend on theta, so d
    and D2 are the exact theta-derivatives of the binned curve.
    """

    train: np.ndarray        # (G,) sum_u K_h(z_u - g_i), direct
    mass: np.ndarray         # (G,) sum_j w_j K_h(z_j - g_i), binned
    bins: np.ndarray         # (2m,) the fine bins below and above each node
    split: np.ndarray        # (2m,) w_j times the node's share of each of those bins
    kernel_fft: np.ndarray   # (b, G + 1) rfft over t mod 2G of K_h((r - b t) delta)

    @classmethod
    def build(cls, grid, z_train, z_nodes, weights, kernel):
        """Sums at the uniform ``grid`` of standardized training points z_train and of
        nodes z_nodes with quadrature ``weights``."""
        b, G, h = _BINS_PER_CELL, grid.size, kernel.bandwidth
        step = max(1, _CHUNK_ELEMS // z_train.size)
        train = np.concatenate([kernel.k1((z_train - g[:, None]) / h).sum(axis=1)
                                for g in np.split(grid, range(step, G, step))]) / h
        delta = (grid[-1] - grid[0]) / ((G - 1) * b)
        pos = (z_nodes - grid[0]) / delta
        below = np.clip(np.floor(pos).astype(np.intp), 0, (G - 1) * b - 1)
        frac = pos - below
        t = np.fft.fftfreq(2 * G, 1.0 / (2 * G))        # 0, 1, .., G - 1, -G, .., -1
        offsets = (np.arange(b)[:, None] - b * t) * delta
        sums = cls(train, np.empty(0), np.concatenate([below, below + 1]),
                   np.concatenate([weights * (1.0 - frac), weights * frac]),
                   np.fft.rfft(kernel.product(offsets[..., None])))
        return sums._replace(mass=sums.moments(np.ones((weights.size, 1)))[:, 0])

    def moments(self, cols):
        """sum_j w_j K_h(z_j - g_i) cols_j at every grid node, binned: (G, p)."""
        b, G = self.kernel_fft.shape[0], self.train.size
        binned = np.stack([np.bincount(self.bins, self.split * np.tile(c, 2), G * b)
                           for c in cols.T])
        phases = np.fft.rfft(binned.reshape(-1, G, b).transpose(0, 2, 1), 2 * G)
        conv = np.fft.irfft(np.einsum("pbf,bf->pf", phases, self.kernel_fft), 2 * G)
        return conv[:, :G].T


def _tilted_moments(moments, ay, Y, order):
    """(mass, -mean, -covariance) of y under each kernel row tilted by ay, from the
    one product ``moments([ay, ay y, ay y(x)y])``; zero mean and covariance where the
    mass is not positive, no covariance below ``order`` 2."""
    m, k = Y.shape
    blocks = [np.ones((m, 1)), Y, (Y[:, :, None] * Y[:, None, :]).reshape(m, k * k)]
    M = moments(ay[:, None] * np.hstack(blocks[:order + 1]))
    den = M[:, 0]
    M = M / np.where(den > 0, den, np.inf)[:, None]
    mu = M[:, 1:1 + k]
    if order < 2:
        return den, -mu, None
    return den, -mu, mu[:, :, None] * mu[:, None, :] - M[:, 1 + k:].reshape(-1, k, k)


def _interp(x, xp, fp):
    """Linear interpolation of fp (len(xp), ...) on the uniform grid xp at x, constant
    beyond the ends of xp (as np.interp)."""
    pos = np.clip((x - xp[0]) * ((xp.size - 1) / (xp[-1] - xp[0])), 0.0, xp.size - 1.0)
    i = np.minimum(pos.astype(np.intp), xp.size - 2)
    t = (pos - i).reshape((-1,) + (1,) * (fp.ndim - 1))
    return fp[i] + t * (fp[i + 1] - fp[i])


class NuisanceFit:
    """Kernel estimate of the curve theta -> eta_theta(.) trained on one pattern.

    ``eta_at``/``eta_all``, the profile optimizer's interface, evaluate at the query
    points (``exact``) when q >= 2 and at cached grid nodes when q = 1: from dense
    kernel rows under a general link, from binned node moments under the log-linear
    link."""

    def __init__(self, spec: ModelSpec, train: PointPattern, quad: QuadratureScheme,
                 kernel: KernelSpec, scale: float = 1.0):
        if train.count() == 0:
            raise InsufficientPointsError("cannot fit the nuisance on an empty pattern")
        if scale < 1.0:
            raise ValueError("scale is V/(V-1) >= 1 (1 when trained on the full pattern)")
        self.spec = spec
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
        self._Zs_all = np.vstack([self._Zs_train, self._Zs_nodes])

        n, area = train.count(), spec.window.area()
        self.eta_range = (math.log(1e-6 * n / area), math.log(1e6 * n / area))

        self._grid = None
        self._grid_cache = {}
        self._clip_tau = 0.1
        if self.q == 1:
            lo = min(self._Zs_train.min(), self._Zs_nodes.min())
            hi = max(self._Zs_train.max(), self._Zs_nodes.max())
            pad = 0.05 * max(hi - lo, 1e-9)
            self._grid = np.linspace(lo - pad, hi + pad, _GRID_SIZE)
            if spec.link == "log-linear":
                self._grid_sums = _BinnedGrid.build(self._grid, self._Zs_train[:, 0],
                                                    self._Zs_nodes[:, 0], self.weights, kernel)
            else:
                self._grid_sums = _Rows(*self._rows(self._grid[:, None], lambda _, r: r,
                                                    strict=False))

    def standardize(self, Z):
        return (np.asarray(Z, dtype=float).reshape(-1, self.q) - self._mu) / self._sd

    def _rows(self, Zs, fn, full=False, strict=True):
        """fn(slice, rows) over chunks of standardized query points Zs (B, q), stacked.

        Rows are plain signed kernel sums over their node part's max-abs (tilted sums
        cannot underflow), the training part summed unless ``full`` or general.
        ``strict``: raise where there is no quadrature kernel mass."""
        n = self._Zs_train.shape[0]
        full = full or self.spec.link == "general"
        step = max(1, _CHUNK_ELEMS // (self._Zs_all.shape[0] * self.q))
        outs = []
        for s in range(0, Zs.shape[0], step):
            K = self.kernel.product(self._Zs_all[None, :, :] - Zs[s:s + step, None, :])
            KW = K[:, n:] * self.weights
            peak = np.abs(KW).max(axis=1)
            peak[peak == 0] = 1.0
            KT = K[:, :n] / peak[:, None]
            KW /= peak[:, None]
            mass = KW.sum(axis=1)
            if strict and np.any(mass <= 0):
                raise ZeroMassError("no quadrature kernel mass at a query point "
                                    "(bandwidth too small)")
            outs.append(fn(slice(s, s + step), _Rows(KT if full else KT.sum(axis=1), KW, mass)))
        return tuple(None if p[0] is None else np.concatenate(p) for p in zip(*outs))

    def _objective(self, theta, gamma, rows):
        c, p = 1.0 / self.scale, self.spec.psi
        g = gamma[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_term = np.log(c * p.psi(self.spec.tau(theta, self.Y_train), g))
            data = np.where(rows.train != 0, rows.train * log_term, 0.0).sum(axis=1)
            val = data - c * (rows.KW * p.psi(self.spec.tau(theta, self.Y_nodes), g)).sum(axis=1)
        return np.where(np.isfinite(val), val, -np.inf)

    def objective(self, theta, gamma, Z):
        """Kernel objective per unit quadrature kernel mass at query points Z (B, q)."""
        Zs = self.standardize(Z)
        gamma = np.broadcast_to(np.asarray(gamma, dtype=float), Zs.shape[:1])
        per_mass = lambda sl, rows: (self._objective(theta, gamma[sl], rows) / rows.mass,)
        return self._rows(Zs, per_mass, full=True)[0]

    def _partials(self, theta, gamma, rows, mixed=False):
        """Each row's dG/dgamma, d2G/dgamma2 and, with ``mixed``, d2G/dtheta dgamma."""
        c, p = 1.0 / self.scale, self.spec.psi
        g = gamma[:, None]
        t_tr = self.spec.tau(theta, self.Y_train)
        t_nd = self.spec.tau(theta, self.Y_nodes)
        v_tr = p.psi(t_tr, g)
        v_tr = np.where(v_tr > 0, v_tr, np.nan)      # no log Psi: NaN partials
        r_tr = p.dpsi_dg(t_tr, g) / v_tr
        g_g = (rows.train * r_tr).sum(axis=1) - c * (rows.KW * p.dpsi_dg(t_nd, g)).sum(axis=1)
        g_gg = ((rows.train * (p.d2psi_dgg(t_tr, g) / v_tr - r_tr ** 2)).sum(axis=1)
                - c * (rows.KW * p.d2psi_dgg(t_nd, g)).sum(axis=1))
        if not mixed:
            return g_g, g_gg
        mixed_tr = (p.d2psi_dtg(t_tr, g) - p.dpsi_dt(t_tr, g) * r_tr) / v_tr
        g_tg = ((rows.train * mixed_tr) @ self.spec.tau_grad(theta, self.Y_train)
                - c * (rows.KW * p.d2psi_dtg(t_nd, g)) @ self.spec.tau_grad(theta, self.Y_nodes))
        return g_g, g_gg, g_tg

    def _newton(self, theta, rows, x0=None):
        """Each row's argmax of the objective over eta_range; returns (gamma, saturated).

        A row whose gamma-score keeps one sign on the range saturates at the bound it
        points to (the better one if both); the others take Newton steps from ``x0``
        (or mid-range) inside a shrinking bracket, bisecting when a step leaves it.
        """
        lo, hi = self.eta_range
        B = rows.mass.shape[0]
        s_lo = self._partials(theta, np.full(B, lo), rows)[0]
        up = self._partials(theta, np.full(B, hi), rows)[0] >= 0
        both = up & (s_lo <= 0)
        if both.any():
            sub = rows._make(r[both] for r in rows)
            value = lambda g: self._objective(theta, np.full(sub.mass.shape, g), sub)
            up[both] = value(hi) > value(lo)
        sat = up | (s_lo <= 0)
        gamma = np.where(up, hi, lo)
        act = np.flatnonzero(~sat)
        a, b = np.full(act.size, lo), np.full(act.size, hi)
        x = np.full(act.size, 0.5 * (lo + hi)) if x0 is None else np.clip(x0[act], lo, hi)
        for _ in range(_NEWTON_MAX_ITER):
            if act.size == 0:
                return gamma, sat
            sub = rows if act.size == B else rows._make(r[act] for r in rows)
            s, s1 = self._partials(theta, x, sub)
            rising = ~(s <= 0)    # NaN: Psi <= 0 at a training point, gamma too low
            a, b = np.where(rising, x, a), np.where(rising, b, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_new = np.where(s == 0, x, x - s / s1)
            bisect = (s != 0) & ~((x_new > a) & (x_new < b))
            x_new[bisect] = 0.5 * (a + b)[bisect]
            gamma[act] = x_new
            go = np.abs(x_new - x) > _NEWTON_TOL * (1.0 + np.abs(x))
            act, a, b, x = act[go], a[go], b[go], x_new[go]
        raise NonConvergenceError(f"nuisance Newton iteration did not converge at "
                                  f"{act.size} point(s)")

    def _implicit_d(self, theta, gamma, rows):
        """(d, flat): -G_theta,gamma / G_gamma,gamma per row, 0 where G_gamma,gamma = 0."""
        _, g_gg, g_tg = self._partials(theta, gamma, rows, mixed=True)
        flat = ~(np.abs(g_gg) >= 1e-300)
        return -g_tg / np.where(flat, -np.inf, g_gg)[:, None], flat

    def _solve(self, theta, rows, order, strict):
        """Clamped (gamma, d, D2) on a batch of kernel rows; None beyond ``order``.

        Rows with a non-positive training kernel sum take the floor (counted in
        ``empty_numerator``); rows without quadrature or tilted mass or curvature in
        gamma raise if ``strict`` (direct queries), else take the floor (the grid).
        ``clip_count`` counts rows whose raw gamma lies outside ``eta_range``.
        """
        lo, hi = self.eta_range
        num = rows.train if rows.train.ndim == 1 else rows.train.sum(axis=1)
        self.diagnostics["empty_numerator"] += int(np.count_nonzero(num <= 0))
        floor = (num <= 0) | (rows.mass <= 0)
        if self.spec.link == "log-linear":
            den, d_raw, D2_raw = _tilted_moments(rows.moments, np.exp(self.Y_nodes @ theta),
                                                 self.Y_nodes, order)
            no_den = (den <= 0) & ~floor
            if strict and no_den.any():
                raise ZeroDenominatorError("tilted kernel mass vanished at a query point")
            flat = floor = floor | no_den
            gamma_raw = np.log(np.where(floor, 1.0, self.scale * num / np.where(floor, 1.0, den)))
            outside = ~floor & ((gamma_raw < lo) | (gamma_raw > hi))
        else:
            gamma_raw, sat = self._newton(theta, rows)
            outside, flat, d_raw, D2_raw = sat & ~floor, floor | sat, None, None
            if order >= 1:
                d_raw, no_curv = self._implicit_d(theta, gamma_raw, rows)
                if strict and (no_curv & ~flat).any():
                    raise ZeroDenominatorError("curvature in gamma vanished at a query point")
                flat |= no_curv
                d_raw[flat] = 0.0
            if order >= 2:
                def d_at(shift):    # d at theta + shift, Newton warm-started along d
                    g = self._newton(theta + shift, rows, gamma_raw + d_raw @ shift)[0]
                    return self._implicit_d(theta + shift, g, rows)[0]

                steps = _FD_STEP * np.eye(self.k)
                D2_raw = np.stack([(d_at(e) - d_at(-e)) / (2 * _FD_STEP) for e in steps], axis=2)
                D2_raw = 0.5 * (D2_raw + D2_raw.transpose(0, 2, 1))
        gamma_raw[floor] = lo
        self.diagnostics["clip_count"] += int(np.count_nonzero(outside))
        gamma, chain1, chain2 = _soft_clip(gamma_raw, lo, hi, self._clip_tau)
        if order < 1:
            return gamma, None, None
        d_raw[flat] = 0.0
        d = chain1[:, None] * d_raw
        if order < 2:
            return gamma, d, None
        D2_raw[flat] = 0.0
        dd = d_raw[:, :, None] * d_raw[:, None, :]
        return gamma, d, chain1[:, None, None] * D2_raw + chain2[:, None, None] * dd

    def exact(self, theta, Z, order=2):
        """(gamma, d, D2) at query points Z (B, q) from their own kernel rows, None
        beyond ``order``; raises ZeroMassError/ZeroDenominatorError without support."""
        theta = np.asarray(theta, dtype=float)
        return self._rows(self.standardize(Z),
                          lambda _, rows: self._solve(theta, rows, order, strict=True))

    # -- bulk curve interface (the profile optimizer and the LFD) ---------------

    def curve(self, theta, Z, order):
        """(gamma, d, D2) of the fitted curve at Z (B, q), None beyond ``order``: off
        the cached grid when q = 1, else from ``exact``."""
        theta = np.asarray(theta, dtype=float)
        if self._grid is None:
            return self.exact(theta, Z, order)
        key = theta.tobytes()
        hit = self._grid_cache.get(key)
        if hit is None or hit[0] < order:
            hit = self._grid_cache[key] = (order, self._solve(theta, self._grid_sums, order,
                                                              strict=False))
            while len(self._grid_cache) > 6:
                self._grid_cache.pop(next(iter(self._grid_cache)))
        zs = self.standardize(Z)[:, 0]
        return tuple(None if v is None else _interp(zs, self._grid, v) for v in hit[1])

    def eta_at(self, theta, Z) -> np.ndarray:
        return self.curve(theta, Z, 0)[0]

    def eta_all(self, theta, Z):
        return self.curve(theta, Z, 2)
