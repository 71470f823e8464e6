"""Spatial kernel regression of the nuisance curve eta_theta(z) and its theta-derivatives.

For each z the curve value is the gamma maximizing a kernel-localized version of
the pseudo-likelihood: kernel-weighted log-intensity over the training points
minus the kernel-weighted intensity integral, both on one quadrature scheme
whose data nodes are the training points.  When trained on a fold complement
(a thinned copy of the process with intensity (V-1)/V * lambda), the modeled
intensity carries that thinning fraction, which is what makes the fitted curve
unbiased; the stored ``scale`` is its reciprocal V/(V-1).

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
chunks of bounded size, serve ``exact`` at query points, every q >= 2 curve and
the q = 1 grid of general links.  A row spans the m quadrature nodes once; as the
training points are the data nodes, its training part is its data-node columns.
Each row is scaled to peak 1 (``KernelSpec.rows``) and no (rows, m, q) array is
formed.  The Gaussian is radial, so its rows come from a shifted Gram product: two
thin matrix products with a (q + 2, m) node operand built once per fit, then one
``exp`` per element, with no difference, square or division pass; each row's
peak is exp(0), so its mass cannot underflow.  Where a bound from the query and
node norms lets a read's exponents fall below ``_EXP_FLOOR`` (small bandwidths,
far queries) they are clamped there first, which keeps ``exp`` on its fast path
and moves only values below 1e-304 of the row peak.  The quartic multiplies its
univariate factors, built in place with one scratch array, and divides each row
by its max-abs.  Under the log-linear link a dense read solves once: the node columns
[1_data, w, w a, w a y, w a y y^T] are built once per read, each chunk's training
sums, masses and tilted moments are one matrix product with them, and one solve
runs on them stacked; a general link runs its Newton iteration per chunk, on its
training columns and weighted rows.
For q = 1 the curve is evaluated at the nodes of a fixed 512-node grid and
interpolated linearly; under the log-linear link that grid keeps no rows: its
training sums are direct and its node moments are linearly binned at
``_BINS_PER_CELL`` = 16 bins per grid cell and convolved with the kernel by FFT
(Wand 1994; Fan & Marron 1994), see ``_BinnedGrid``.  Binning moves gamma at the
grid nodes by at most 6e-7 to 3e-6 on W1 fields and by up to 6e-5 at the sparse
tail nodes of a W2 product field (d and D2 by up to 3e-4 and 2e-3 there), a
second-order error that falls about fourfold when the bins per cell double.  The
interpolation itself is second order for both kernels on a W1 test fit: the
Gaussian's error is 1.8e-5 off the exact curve at 512 nodes and 8e-7 at 2048.
The order-4 quartic's slope jumps at the edges of its support, which puts kinks
into the curve: its error is about 100 times larger (2.0e-3 at 512 nodes, 1.05e-4
at 2048) and falls unevenly, 2.3- to 5.7-fold per doubling from 256 to 4096 nodes.

The profile optimizer reads the curve only through ``eta_all`` (value, d and
D2 from one evaluation), once per theta it visits.  The q = 1 grid keeps no
solve: every read is one solve at the grid nodes and one interpolation.  The
least favorable direction of the sandwich variance is the curve's own first
theta-derivative d, taken from the same evaluation and the same clamp as the
curve value (``curve`` at order 1).  A read adds the number of rows whose raw
gamma left ``eta_range`` to ``diagnostics["clip_count"]`` once it has returned, so
a read that raises counts nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (InsufficientPointsError, NonConvergenceError, ZeroDenominatorError,
                     ZeroMassError)
from .model import ModelSpec, QuadratureScheme

_CHUNK_ELEMS = 1 << 15        # bound on rows * m of one chunk of kernel rows: each
                              # (rows, m) array a chunk forms stays <= 256 kB
_NEWTON_TOL = 1e-12           # relative step at which a row's Newton iteration stops
_CLIP_TAU = 0.1               # width of the smooth clamp into eta_range
_NEWTON_MAX_ITER = 200
_FD_STEP = 1e-4               # theta step of the general-link second derivative
_GRID_SIZE = 512              # nodes of the q = 1 grid the curve is interpolated on
_BINS_PER_CELL = 16           # linear-binning bins per q = 1 grid cell (node moments)
_EXP_FLOOR = -700.0           # Gaussian-row exponents of a read that can fall below are
                              # clamped to it: exp(-700) ~ 1e-304 is normal, and an exp
                              # returning a subnormal or 0 runs 20 to 240 times slower


def _gaussian(t, out):
    np.square(t, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out /= math.sqrt(2.0 * math.pi)


def _quartic4(t, out):
    # fourth-order polynomial kernel on [-1, 1]
    outside = ~(np.abs(t) <= 1.0)
    t4 = t ** 4
    t4 *= 7.0
    np.square(t, out=out)
    out *= 10.0
    np.subtract(3.0, out, out=out)
    out += t4
    out *= 15.0 / 32.0
    np.copyto(out, 0.0, where=outside)


# kernel order -> univariate kernel: Gaussian (order 2), polynomial on [-1, 1] (order 4)
KERNELS = {2: _gaussian, 4: _quartic4}


@dataclass(frozen=True)
class KernelSpec:
    """Product kernel of even order with a scalar bandwidth (standardized z units);
    the order picks the univariate kernel from ``KERNELS``."""

    order: int
    bandwidth: float

    def __post_init__(self):
        if self.order not in KERNELS:
            raise ValueError(f"no kernel of order {self.order}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be > 0 and finite, got {self.bandwidth}")

    def k1(self, t, out=None):
        """Univariate kernel value, written into ``out`` if given (which may be t)."""
        t = np.asarray(t, dtype=float)
        if out is None:
            out = np.empty_like(t)
        KERNELS[self.order](t, out)
        return out if out.ndim else out[()]

    def operand(self, A):
        """The node operand of ``rows`` for standardized nodes A (m, q), built once per
        fit: for the Gaussian the (q + 2, m) Gram operand [u; -|u|^2 / 2; 1] of u = A / h,
        for other orders A itself."""
        if self.order != 2:
            return A
        u = A.T / self.bandwidth
        return np.vstack([u, -0.5 * np.square(u).sum(axis=0), np.ones(u.shape[1])])

    def rows(self, operand, Z, floor=None):
        """Kernel rows (B, m) of standardized query points Z (B, q) at the nodes of
        ``operand``, each scaled to peak 1 (an all-zero row stays zero).  Gaussian rows
        are a shifted Gram product (Wand & Jones 1995, ch. 4): with u = z / h,
        -|u_b - u_j|^2 / 2 is u_b . u_j - |u_j|^2 / 2 less |u_b|^2 / 2, which the scaling
        cancels; [u_b, 1, 0] @ operand gives the exponents, a second product with the row
        maximum in the last column shifts them in place and one ``exp`` follows (the
        exponents' rounding error is a few eps * max|u|^2), after a clamp of the
        exponents at ``floor`` when one is given.  Other orders divide the
        ``product`` of the univariate factors by each row's max-abs."""
        if self.order == 2:
            left = np.column_stack([Z / self.bandwidth, np.ones(len(Z)), np.zeros(len(Z))])
            K = left @ operand
            left[:, -1] = -K.max(axis=1)
            np.matmul(left, operand, out=K)
            if floor is not None:
                np.maximum(K, floor, out=K)
            return np.exp(K, out=K)
        K = self.product(operand, Z)
        peak = np.abs(K).max(axis=1)
        K /= np.where(peak == 0, 1.0, peak)[:, None]
        return K

    def product(self, A, Z):
        """K_h(a - z) = h^-q * prod_i k((a_i - z_i) / h) for standardized points A (N, q)
        and Z (B, q): (B, N), the univariate factors of the dimensions multiplied left
        to right, built in place with at most one scratch array."""
        h, q = self.bandwidth, A.shape[1]
        K = _differences(A[:, 0], Z[:, 0])
        K /= h
        self.k1(K, out=K)
        scratch = np.empty_like(K) if q > 1 else None
        for i in range(1, q):
            _differences(A[:, i], Z[:, i], out=scratch)
            scratch /= h
            K *= self.k1(scratch, out=scratch)
        K /= h ** q
        return K


def _differences(a, z, out=None):
    """a_j - z_b for points a (N,) and z (B,): (B, N), as the matrix product
    [1, -z] @ [a; 1].  Both of its products are exact, so each element is rounded
    once, as by a subtraction.  NumPy's broadcast subtraction buffers the column
    operand: on a (50, 1300) block under NumPy 2.4 it took about three times as long."""
    left, right = np.ones((z.size, 2)), np.ones((2, a.size))
    np.negative(z, out=left[:, 1])
    right[0] = a
    return np.matmul(left, right, out=out)


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
    """Kernel rows of a batch of z under a general link, each divided by its max-abs."""

    train: np.ndarray    # (B, n) K_h(z_u - z) at the training points
    KW: np.ndarray       # (B, m) w_j K_h(z_j - z)
    mass: np.ndarray     # (B,) sum_j w_j K_h(z_j - z)


class _Sums(NamedTuple):
    """What the log-linear solve reads of a batch of z: no rows, only their sums."""

    train: np.ndarray    # (B,) training kernel sums
    mass: np.ndarray     # (B,) sum_j w_j K_h(z_j - z)
    tilted: np.ndarray   # (B, p) sum_j w_j K_h(z_j - z) cols_j, cols from _tilted_columns


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
                   np.fft.rfft(kernel.k1(offsets / h) / h))
        return sums._replace(mass=sums.moments(np.ones((weights.size, 1)))[:, 0])

    def moments(self, cols):
        """sum_j w_j K_h(z_j - g_i) cols_j at every grid node, binned: (G, p)."""
        b, G = self.kernel_fft.shape[0], self.train.size
        binned = np.stack([np.bincount(self.bins, self.split * np.tile(c, 2), G * b)
                           for c in cols.T])
        phases = np.fft.rfft(binned.reshape(-1, G, b).transpose(0, 2, 1), 2 * G)
        conv = np.fft.irfft(np.einsum("pbf,bf->pf", phases, self.kernel_fft), 2 * G)
        return conv[:, :G].T


def _tilted_columns(theta, Y, order):
    """The node columns [a, a y, a y(x)y], a = exp(theta . y), up to ``order``: (m, p)."""
    m, k = Y.shape
    blocks = [np.ones((m, 1)), Y, (Y[:, :, None] * Y[:, None, :]).reshape(m, k * k)]
    return np.exp(Y @ theta)[:, None] * np.hstack(blocks[:order + 1])


def _tilted_moments(M, k, order):
    """(mass, -mean, -covariance) of y under each kernel row tilted by a, from its
    moments M of the ``_tilted_columns``; zero mean and covariance where the mass is
    not positive, no covariance below ``order`` 2."""
    den = M[:, 0]
    M = M / np.where(den > 0, den, np.inf)[:, None]
    mu = M[:, 1:1 + k]
    if order < 2:
        return den, -mu, None
    return den, -mu, mu[:, :, None] * mu[:, None, :] - M[:, 1 + k:].reshape(-1, k, k)


def _interpolator(x, xp):
    """Linear interpolation on the uniform grid xp at x, constant beyond the ends of
    xp (as np.interp): a map fp (len(xp), ...) -> values at x, its positions and
    weights computed once for every fp it is applied to."""
    pos = np.clip((x - xp[0]) * ((xp.size - 1) / (xp[-1] - xp[0])), 0.0, xp.size - 1.0)
    i = np.minimum(pos.astype(np.intp), xp.size - 2)
    t = pos - i

    def at(fp):
        tt = t.reshape((-1,) + (1,) * (fp.ndim - 1))
        return fp[i] + tt * (fp[i + 1] - fp[i])

    return at


class NuisanceFit:
    """Kernel estimate of the curve theta -> eta_theta(.) trained on the data nodes of
    a quadrature scheme.

    ``eta_all``, the profile optimizer's whole interface, and ``eta_at`` evaluate at
    the query points (``exact``) when q >= 2 and at the grid nodes when q = 1: from
    dense kernel rows under a general link, from binned node moments under the
    log-linear link.  Kernel rows span the m quadrature nodes; their training part
    is the data-node columns.  The q = 1 grid is solved again on every read."""

    def __init__(self, spec: ModelSpec, quad: QuadratureScheme, kernel: KernelSpec,
                 scale: float = 1.0):
        n = int(np.count_nonzero(quad.is_data))
        if n == 0:
            raise InsufficientPointsError("cannot fit the nuisance on an empty pattern")
        if scale < 1.0:
            raise ValueError("scale is V/(V-1) >= 1 (1 when trained on the full pattern)")
        self.spec = spec
        self.quad = quad
        self.kernel = kernel
        self.scale = float(scale)
        self.k = spec.k
        self.q = spec.q
        self.diagnostics = {"clip_count": 0}

        self.Y_nodes, Z_nodes = spec.scheme_covariates(quad)
        self.Y_train, Z_train = self.Y_nodes[quad.is_data], Z_nodes[quad.is_data]
        self.weights = quad.weights

        self._mu = Z_train.mean(axis=0)
        sd = Z_train.std(axis=0)
        self._sd = np.where(sd > 1e-12 * np.maximum(1.0, np.abs(self._mu)), sd, 1.0)
        self._Zs_nodes = (Z_nodes - self._mu) / self._sd
        self._Zs_train = self._Zs_nodes[quad.is_data]

        area = spec.window.area()
        self.eta_range = (math.log(1e-6 * n / area), math.log(1e6 * n / area))

        self._grid = None
        if self.q == 1:
            lo, hi = self._Zs_nodes.min(), self._Zs_nodes.max()
            pad = 0.05 * max(hi - lo, 1e-9)
            self._grid = np.linspace(lo - pad, hi + pad, _GRID_SIZE)
            if spec.log_linear:
                self._grid_sums = _BinnedGrid.build(self._grid, self._Zs_train[:, 0],
                                                    self._Zs_nodes[:, 0], self.weights, kernel)
            else:
                self._grid_sums = _Rows(*self._rows(self._grid[:, None], self._general_rows))

    @cached_property
    def _operand(self):
        """The node operand of the dense kernel rows, built at the first read needing it."""
        return self.kernel.operand(self._Zs_nodes)

    @cached_property
    def _node_radius(self):
        """max |z_j| over the standardized nodes."""
        return math.sqrt(np.square(self._Zs_nodes).sum(axis=1).max())

    def _exp_floor(self, Zs):
        """``_EXP_FLOOR`` when the Gaussian rows of standardized queries Zs can hold
        shifted exponents below it, else None.  With u = z / h a shifted exponent is at
        least -|u_b - u_j|^2 / 2, and |u_b - u_j| <= |u_b| + max |u_j|; one bound per
        read, so a read that cannot reach the floor pays no pass for it."""
        if self.kernel.order != 2:
            return None
        reach = (math.sqrt(np.square(Zs).sum(axis=1).max(initial=0.0)) + self._node_radius) \
            / self.kernel.bandwidth
        return _EXP_FLOOR if 0.5 * reach * reach > -_EXP_FLOOR else None

    def standardize(self, Z):
        return (np.asarray(Z, dtype=float).reshape(-1, self.q) - self._mu) / self._sd

    def _rows(self, Zs, fn):
        """fn(K) over chunks K of the kernel rows of standardized query points Zs (B, q),
        stacked.

        A row spans the m quadrature nodes once (its training part is the data-node
        columns); a chunk, at most ``_CHUNK_ELEMS`` elements, is ``KernelSpec.rows``: each
        row scaled to peak 1 before weighting, so tilted sums cannot underflow.  Any
        positive row scale, the kernel's constant too, cancels in gamma, d and D2 (ratios
        of sums) and in the general-link Newton iteration (score sign, step ratio)."""
        step = max(1, _CHUNK_ELEMS // self.weights.size)
        floor = self._exp_floor(Zs)
        outs = [fn(self.kernel.rows(self._operand, Zs[s:s + step], floor))
                for s in range(0, Zs.shape[0], step)]
        return tuple(None if p[0] is None else np.concatenate(p) for p in zip(*outs))

    def _general_rows(self, K):
        """The ``_Rows`` of a chunk K of kernel rows: its data-node columns, the weighted
        rows and their masses."""
        KW = K * self.weights
        return _Rows(K[:, self.quad.is_data], KW, KW.sum(axis=1))

    def _objective(self, theta, gamma, rows):
        c, p = 1.0 / self.scale, self.spec.link
        g = gamma[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_term = np.log(c * p.psi(self.spec.tau(theta, self.Y_train), g))
            data = np.where(rows.train != 0, rows.train * log_term, 0.0).sum(axis=1)
            val = data - c * (rows.KW * p.psi(self.spec.tau(theta, self.Y_nodes), g)).sum(axis=1)
        return np.where(np.isfinite(val), val, -np.inf)

    def _partials(self, theta, gamma, rows, mixed=False):
        """Each row's dG/dgamma, d2G/dgamma2 and, with ``mixed``, d2G/dtheta dgamma."""
        c, p = 1.0 / self.scale, self.spec.link
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
        """Clamped (gamma, d, D2) on a batch, None beyond ``order``, and the mask of the
        rows whose raw gamma left ``eta_range``.

        Under the log-linear link the batch is the ``_Sums`` of a whole read (one
        solve per read, whatever the number of chunks); under a general link it is
        one chunk's ``_Rows``.

        The one failure rule of a read: rows without quadrature kernel mass, tilted
        mass or curvature in gamma raise if ``strict`` (direct queries), the mass
        first, else take the floor (the grid); rows with a non-positive training
        kernel sum take the floor.  Gaussian rows keep their peak, so only the compact
        quartic can lack kernel mass: a Gaussian query over 38.6 bandwidths from every
        node, whose unscaled kernel values all underflow, gets its gamma, not a
        ZeroMassError.  The solve writes no attribute: the read adds the mask's count
        to ``clip_count`` once it has returned (``_counted``), so a read that raises
        counts nothing.
        """
        if strict and np.any(rows.mass <= 0):
            raise ZeroMassError("no quadrature kernel mass at a query point (bandwidth too small)")
        lo, hi = self.eta_range
        num = rows.train if rows.train.ndim == 1 else rows.train.sum(axis=1)
        floor = (num <= 0) | (rows.mass <= 0)
        if self.spec.log_linear:
            den, d_raw, D2_raw = _tilted_moments(rows.tilted, self.k, order)
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
        gamma, chain1, chain2 = _soft_clip(gamma_raw, lo, hi, _CLIP_TAU)
        if order < 1:
            return gamma, None, None, outside
        d_raw[flat] = 0.0
        d = chain1[:, None] * d_raw
        if order < 2:
            return gamma, d, None, outside
        D2_raw[flat] = 0.0
        dd = d_raw[:, :, None] * d_raw[:, None, :]
        return gamma, d, chain1[:, None, None] * D2_raw + chain2[:, None, None] * dd, outside

    def _counted(self, gamma, d, D2, outside):
        """(gamma, d, D2) of a read that has returned, its clipped rows counted."""
        self.diagnostics["clip_count"] += int(np.count_nonzero(outside))
        return gamma, d, D2

    def exact(self, theta, Z, order=2):
        """(gamma, d, D2) at query points Z (B, q) from their own kernel rows, None
        beyond ``order``; raises ZeroMassError (only under the compact quartic: a
        Gaussian row keeps its peak at any distance) or ZeroDenominatorError without
        support.  Its clipped rows are counted once the read has returned, so a read
        that raises leaves ``diagnostics`` as they were."""
        theta = np.asarray(theta, dtype=float)
        Zs = self.standardize(Z)
        if not self.spec.log_linear:
            return self._counted(*self._rows(Zs, lambda K: self._solve(
                theta, self._general_rows(K), order, strict=True)))
        # training sums, masses and tilted moments of every row from one product
        cols = np.column_stack([self.quad.is_data, self.weights, self.weights[:, None]
                                * _tilted_columns(theta, self.Y_nodes, order)])
        sums = self._rows(Zs, lambda K: (K @ cols,))[0]
        return self._counted(*self._solve(
            theta, _Sums(sums[:, 0], sums[:, 1], sums[:, 2:]), order, strict=True))

    # -- bulk curve interface (the profile optimizer and the LFD) ---------------

    def curve(self, theta, Z, order):
        """(gamma, d, D2) of the fitted curve at Z (B, q), None beyond ``order``: off
        the grid when q = 1 (one grid solve per read, its clipped grid nodes counted),
        else from ``exact``."""
        theta = np.asarray(theta, dtype=float)
        if self._grid is None:
            return self.exact(theta, Z, order)
        zs = self.standardize(Z)[:, 0]
        sums = self._grid_sums
        if self.spec.log_linear:
            cols = _tilted_columns(theta, self.Y_nodes, order)
            sums = _Sums(sums.train, sums.mass, sums.moments(cols))
        at = _interpolator(zs, self._grid)
        return tuple(None if v is None else at(v)
                     for v in self._counted(*self._solve(theta, sums, order, strict=False)))

    def eta_at(self, theta, Z) -> np.ndarray:
        return self.curve(theta, Z, 0)[0]

    def eta_all(self, theta, Z):
        return self.curve(theta, Z, 2)
