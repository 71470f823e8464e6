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

The pair correlation is the LGCP-exponential g(r) = exp(sigma2 exp(-r/phi)),
whose sigma2 = 0 member (g = 1) is Poisson, fitted by minimum contrast on the
inhomogeneous K-function when not known.  The harness stacks the a-vectors of
all its estimators column-wise and passes every PCF variant to one call of
:func:`pcf_correction`, so the pair geometry is built once per replication.

The double sum is truncated at the radius r_trunc where |g - 1| < 1e-6 (capped
at half the shorter window side) and evaluated exactly, with the same kernel
g(r) - 1 (0 beyond r_trunc) in three blocks of node pairs:

* lattice-lattice: a circular FFT correlation of period 2g (g the lattice side)
  of the kernel image over integer lattice offsets with one column of a at a
  time; offsets run only to g - 1, so no product wraps around;
* lattice-data: the data nodes are binned into t x t spatial tiles of about 32
  nodes each, and each tile meets the lattice in bands of 16 rows, each band's
  columns clipped to the disc of r_trunc around the tile (inclusive bounds, with
  a relative margin); every pair left out lies beyond r_trunc;
* data-data: the blocks of one sorted sweep (:func:`_sweep`), which skips pairs
  more than r_trunc apart along its axis; the K-function of the minimum-contrast
  fit takes its point pairs from the same sweep (:func:`_close_pairs`).

Several (pcf, r_trunc) models share one pass: each block's geometry (tile bands
and sweep at the largest r_trunc, distances, one cut-off mask per distinct
r_trunc, the FFT of each column's lattice image) is built once, and each model
evaluates its own kernel on it (``PcfModel.minus_one``), 0 beyond its own
r_trunc, so every sum stays exact.  A Poisson model (r_trunc 0) gets zeros and
does no pair work.

Memory is bounded per block.  No temporary of the two direct blocks holds more
than 2^16 pair values (512 kB), whatever the number of data nodes or models.
The lattice block holds each model's kernel transform and the transforms of one
padded (2g x 2g) column image at a time, whatever k.  The K-function of the
minimum-contrast fit holds one sweep block of point pairs and one sum per radius
interval, whatever the number of pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, List, Optional

import numpy as np

from .errors import InsufficientPointsError, SingularSensitivityError
from .model import ModelSpec, QuadratureScheme, _log_derivatives
from .nuisance import NuisanceFit
from .process import PointPattern

_PCF_TRUNC_TOL = 1e-6
_PAIR_BLOCK = 2 ** 16      # node pairs per kernel temporary (512 kB of float64)
_TILE_POINTS = 32          # data nodes per spatial tile of the lattice-data block
_BAND_ROWS = 16            # lattice rows per band of the lattice-data block
_SWEEP_ROWS = 64           # sorted points per row block of a data-pair sweep


@dataclass(frozen=True)
class PcfModel:
    """The LGCP-exponential pair correlation g(r) = exp(sigma2 exp(-r / phi)); at
    sigma2 = 0 it is the Poisson process (g = 1), so ``PcfModel()`` is Poisson."""

    sigma2: float = 0.0
    phi: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if not (math.isfinite(self.phi) and self.phi > 0):
            raise ValueError(f"phi must be finite and > 0, got {self.phi}")

    @property
    def family(self) -> str:
        """The name records and fit outputs carry: poisson exactly when sigma2 = 0."""
        return "poisson" if self.sigma2 == 0.0 else "lgcp-exponential"

    def pcf(self, r):
        return np.exp(self.sigma2 * np.exp(-np.asarray(r, dtype=float) / self.phi))

    def minus_one(self, r, within, out):
        """g(r) - 1 at distances r into ``out``, times the cut-off mask ``within`` (1 or
        0); g - 1 >= 0 is finite, so pairs beyond get exactly 0."""
        np.multiply(r, -1.0 / self.phi, out=out)
        np.exp(out, out=out)
        out *= self.sigma2
        np.exp(out, out=out)
        out -= 1.0
        out *= within
        return out

    def truncation_radius(self, window) -> float:
        if self.sigma2 == 0.0:
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
    """Sandwich terms (S, a) of the semiparametric estimator on the quadrature scheme,
    and its fitted intensity lambda at the nodes.

    ``eta_hat`` and ``nu_hat`` are callables on (m, q) covariate arrays.  The
    gradient v_j is the full Gateaux derivative of log lambda, d/dtheta +
    d/deta [nu].
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    Y, Z = spec.scheme_covariates(quad)
    gamma = np.asarray(eta_hat(Z), dtype=float)
    nu = np.asarray(nu_hat(Z), dtype=float)
    lam, grads, _ = _log_derivatives(spec, theta_hat, Y, gamma, nu)
    return (*sandwich_terms(quad, lam, grads), lam)


def _workspace(models, size):
    """Buffers of ``size`` values for :func:`_kernels`: a float one for the kernel and
    a bool cut-off mask per distinct radius of ``models``."""
    return np.empty(size), {radius: np.empty(size, dtype=bool)
                            for radius in {r for _, r in models}}


def _pair_distances(r2, masks):
    """In place: squared distances r2 -> distances r, with the cut-off mask of each
    radius of ``masks`` (radius -> bool buffer of at least r2.size values) written
    into its buffer: True where r <= radius."""
    r = np.sqrt(r2, out=r2)
    return r, {radius: np.less_equal(r, radius, out=buf[:r.size].reshape(r.shape))
               for radius, buf in masks.items()}


def _kernels(models, r2, work):
    """Every model's kernel on one block of squared distances r2, which become the
    distances in place: yields (model position, kernel), each kernel in the
    :func:`_workspace` ``work``."""
    buf, masks = work
    r, within = _pair_distances(r2, masks)
    out = buf[:r.size].reshape(r.shape)
    for i, (pcf, radius) in enumerate(models):
        yield i, pcf.minus_one(r, within[radius], out)


def _lattice_sum(models, quad, A_grid):
    """Lattice-lattice block: circular FFT correlations of period 2g, one a-vector
    column at a time.  Each model's kernel image is transformed once; each
    column's image is transformed once and fills row a of every model's (k, k)
    sum.  Lattice offsets run to g - 1, so no product wraps."""
    g = quad.grid_n
    k = A_grid.shape[1]
    offs = np.fft.fftfreq(2 * g, 1.0 / (2 * g))        # 0, 1, .., g - 1, -g, .., -1
    r2 = (offs * (quad.window.height / g))[:, None] ** 2 \
        + (offs * (quad.window.width / g))[None, :] ** 2
    work = _workspace(models, r2.size)
    f_kerns = [np.fft.rfft2(kern) for _, kern in _kernels(models, r2, work)]
    del r2, work
    imgs = A_grid.T.reshape(-1, g, g)
    shape = (2 * g, 2 * g)
    outs = [np.empty((k, k)) for _ in models]
    for a in range(k):
        f_img = np.fft.rfft2(imgs[a], shape)
        for out, f_kern in zip(outs, f_kerns):
            out[a] = np.einsum("ij,bij->b", np.fft.irfft2(f_img * f_kern, shape)[:g, :g], imgs)
    return outs


def _lattice_data_sum(models, quad, A_grid, A_data):
    """sum over data i and lattice j of a_i a_j^T [g(d_ij) - 1] per model, per spatial
    tile of data nodes (t x t tiles, t from the data count) over the lattice in bands
    of ``_BAND_ROWS`` rows, each band's columns clipped to the disc of the largest
    truncation radius around the tile's box (inclusive bounds, with the relative
    margin of :func:`_sweep`), so a pair left out lies beyond every radius.  A band's
    squared distances are one batched product [dy^2, 1] @ [1; dx^2]: both products
    are exact, so each sum is rounded once, as by an add.  One kernel product takes
    all of a tile's points, or as many as keep it within ``_PAIR_BLOCK`` pairs."""
    g = quad.grid_n
    k = A_grid.shape[1]
    reach = max(radius for _, radius in models) * (1.0 + 1e-9)
    xs = quad.nodes[:g, 0]
    ys = quad.nodes[:g * g:g, 1]
    pts = quad.nodes[g * g:]
    w = quad.window
    t = max(1, math.isqrt(pts.shape[0] // _TILE_POINTS))
    tx = np.clip(((pts[:, 0] - w.x_min) / w.width * t).astype(int), 0, t - 1)
    ty = np.clip(((pts[:, 1] - w.y_min) / w.height * t).astype(int), 0, t - 1)
    tile = ty * t + tx
    order = np.argsort(tile, kind="stable")
    tiles = np.split(order, np.flatnonzero(np.diff(tile[order])) + 1)
    A_img = A_grid.reshape(g, g, k)
    # the largest product: a tile's points (up to the step below) by a band's nodes
    size = min(max(_PAIR_BLOCK, _BAND_ROWS * g), max(map(len, tiles)) * _BAND_ROWS * g)
    geo = np.empty(size)
    work = _workspace(models, size)
    outs = [np.zeros((k, k)) for _ in models]
    for idx in tiles:
        px, py = pts[idx, 0], pts[idx, 1]
        x_lo, x_hi, y_lo, y_hi = px.min(), px.max(), py.min(), py.max()
        r0 = np.searchsorted(ys, y_lo - reach, side="left")
        r1 = np.searchsorted(ys, y_hi + reach, side="right")
        c0 = np.searchsorted(xs, x_lo - reach, side="left")
        c1 = np.searchsorted(xs, x_hi + reach, side="right")
        if r1 <= r0 or c1 <= c0:
            continue
        step = max(1, _PAIR_BLOCK // (_BAND_ROWS * max(r1 - r0, c1 - c0)))
        for p0 in range(0, idx.size, step):
            sel = idx[p0:p0 + step]
            left = np.ones((sel.size, r1 - r0, 2))          # [dy^2, 1] per row
            np.square(ys[r0:r1] - pts[sel, 1, None], out=left[:, :, 0])
            right = np.ones((sel.size, 2, c1 - c0))         # [1; dx^2] per column
            np.square(xs[c0:c1] - pts[sel, 0, None], out=right[:, 1])
            a_sel = A_data[sel].T
            for y0 in range(r0, r1, _BAND_ROWS):
                y1 = min(y0 + _BAND_ROWS, r1)
                gap = max(ys[y0] - y_hi, y_lo - ys[y1 - 1], 0.0)
                half = math.sqrt(max(reach * reach - gap * gap, 0.0))
                b0 = np.searchsorted(xs, x_lo - half, side="left")
                b1 = np.searchsorted(xs, x_hi + half, side="right")
                if b1 <= b0:
                    continue
                r2 = np.matmul(left[:, y0 - r0:y1 - r0], right[:, :, b0 - c0:b1 - c0],
                               out=geo[:sel.size * (y1 - y0) * (b1 - b0)].reshape(
                                   sel.size, y1 - y0, b1 - b0))
                a_band = A_img[y0:y1, b0:b1].reshape(-1, k)
                for i, kern in _kernels(models, r2, work):
                    outs[i] += a_sel @ (kern.reshape(sel.size, -1) @ a_band)
    return outs


def _sweep(pts, r):
    """Blocks that hold every unordered pair of ``pts`` (n, 2) within r once: yields
    (order, s0, s1, c0, c1), s0 <= c0, where the rows order[s0:s1] meet the columns
    order[c0:c1] and ``order`` sorts the points along the longer side of their box.
    A block is ``_SWEEP_ROWS`` sorted rows meeting, in chunks of at most
    ``_PAIR_BLOCK`` pairs, the sorted points from its first row to the last within r
    of its last row (r with a relative margin of 1e-9, far above rounding).  So a
    pair within r has both points among one block's rows (the columns under s1, met
    in both orders and with themselves), or its row before its column."""
    n = pts.shape[0]
    if n == 0:
        return
    axis = int(np.argmax(np.ptp(pts, axis=0)))
    order = np.argsort(pts[:, axis], kind="stable")
    key = pts[order, axis]
    reach = np.searchsorted(key, key + r * (1.0 + 1e-9), side="right").tolist()
    for s0 in range(0, n, _SWEEP_ROWS):
        s1 = min(s0 + _SWEEP_ROWS, n)
        end = reach[s1 - 1]
        step = _PAIR_BLOCK // (s1 - s0)
        for c0 in range(s0, end, step):
            yield order, s0, s1, c0, min(c0 + step, end)


def _data_sum(models, pts, A_data):
    """Data-data block per model over the :func:`_sweep` blocks at the largest
    truncation radius, so pairs beyond every radius are not evaluated.  A block's
    own rows meet each other in both orders; a later column meets its row in one,
    so it counts twice and the caller's symmetrisation supplies the transpose."""
    r_max = max(radius for _, radius in models)
    geo = np.empty((2, _PAIR_BLOCK))       # squared distances and their y-terms
    work = _workspace(models, _PAIR_BLOCK)
    outs = [np.zeros((A_data.shape[1],) * 2) for _ in models]
    for order, s0, s1, c0, c1 in _sweep(pts, r_max):
        rows, cols = order[s0:s1], order[c0:c1]
        p_i, p_j = pts[rows], pts[cols]
        shape = (rows.size, cols.size)
        r2, dy2 = (row[:shape[0] * shape[1]].reshape(shape) for row in geo)
        np.square(np.subtract(p_i[:, 0, None], p_j[None, :, 0], out=r2), out=r2)
        r2 += np.square(np.subtract(p_i[:, 1, None], p_j[None, :, 1], out=dy2), out=dy2)
        a_i, a_j = A_data[rows].T, A_data[cols]
        a_j[max(s1 - c0, 0):] *= 2.0
        for i, kern in _kernels(models, r2, work):
            outs[i] += a_i @ (kern @ a_j)
    return outs


def pcf_correction(quad: QuadratureScheme, a_vectors: np.ndarray,
                   *pcfs: PcfModel) -> List[np.ndarray]:
    """Truncated double sums  sum_{i,j} a_i a_j^T [g(d_ij) - 1] over quadrature nodes,
    one symmetric (k, k) matrix per PCF model, in the order of ``pcfs``.

    ``a_vectors`` is (m, k).  The lattice block of the scheme is handled by FFT
    cross-correlation (exact, including the diagonal); the lattice-data block
    by direct sums over each tile of data nodes and the lattice bands within the
    largest truncation radius of it, and the data-data block by direct sums over
    the :func:`_sweep` blocks at that radius, both in blocks of at most
    ``_PAIR_BLOCK`` pairs; the symmetrised total supplies the data-data transposes.
    The pair geometry of each block is built once for all models; each model zeroes
    the pairs beyond its own radius, and a model of radius 0 gets zeros without any
    pair work.
    """
    k = a_vectors.shape[1]
    radii = [pcf.truncation_radius(quad.window) for pcf in pcfs]
    out = [np.zeros((k, k)) for _ in pcfs]
    live = [i for i, radius in enumerate(radii) if radius > 0.0]
    if not live:
        return out
    models = [(pcfs[i], radii[i]) for i in live]
    n_grid = quad.grid_n ** 2
    A_grid = a_vectors[:n_grid]
    A_data = a_vectors[n_grid:]
    totals = _lattice_sum(models, quad, A_grid)
    if A_data.shape[0]:
        crosses = _lattice_data_sum(models, quad, A_grid, A_data)
        datas = _data_sum(models, quad.nodes[n_grid:], A_data)
        for total, cross, data in zip(totals, crosses, datas):
            total += cross + cross.T + data
    for i, total in zip(live, totals):
        out[i] = 0.5 * (total + total.T)
    return out


# -- K-function and minimum contrast -------------------------------------------


def _k_model(r, n_steps: int = 513):
    """K(r) = 2 pi int_0^r s g(s) ds at the points r as a function of the PCF model:
    trapezoid sums over one grid of ``n_steps`` s-values from 0 to max r, built once
    for every model, in the expression of SciPy's ``cumulative_trapezoid`` (so equal
    to it bit for bit); exactly pi r^2 in the Poisson case."""
    s = np.linspace(0.0, float(r.max()), n_steps)
    ds = np.diff(s)
    two_pi_s = 2.0 * math.pi * s

    def k(model: PcfModel):
        if model.sigma2 == 0.0:
            return math.pi * r ** 2
        f = two_pi_s * model.pcf(s)
        cum = np.concatenate([[0.0], np.cumsum(ds * (f[1:] + f[:-1]) / 2.0)])
        return np.interp(r, s, cum)

    return k


def _close_pairs(pts, r):
    """Every unordered pair of the points ``pts`` (n, 2) with dx*dx + dy*dy <= r*r (the
    test of SciPy's ``cKDTree.query_pairs``), in the blocks of :func:`_sweep`: yields
    (rows, cols, within, dx, dy) for each block with a pair, where ``rows`` and
    ``cols`` index ``pts``, ``within`` (len(rows), len(cols)) marks the block's pairs
    and dx, dy are the row point minus the column point at them, in row-major order.
    Each pair is in one block, once."""
    x, y = pts[:, 0], pts[:, 1]
    r2 = r * r
    for order, s0, s1, c0, c1 in _sweep(pts, r):
        rows, cols = order[s0:s1], order[c0:c1]
        dx = x[rows, None] - x[cols]
        dy = y[rows, None] - y[cols]
        within = dx * dx
        within += dy * dy
        within = within <= r2
        if c0 < s1:         # the block's own rows: keep each pair once
            within = np.triu(within, s0 - c0 + 1)
        dx = dx[within]
        if dx.size:
            yield rows, cols, within, dx, dy[within]


def _nelder_mead(fun, x0, xatol: float, fatol: float, maxiter: int) -> np.ndarray:
    """Minimizer of ``fun`` by the Nelder-Mead simplex (Nelder & Mead 1965): the
    non-adaptive, unbounded method of SciPy 1.17's ``minimize(method="Nelder-Mead")``
    with ``maxiter`` and no ``maxfev``, its initial simplex, update expressions, vertex
    sorts and convergence test in the same order, so it returns the same point bit for
    bit after the same evaluations."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([fun(v) for v in sim], dtype=float)
    for _ in range(2):      # SciPy sorts the first simplex twice
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:      # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = fun(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:                   # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = fun(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = fun(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0]


def _interval_index(d, r_grid):
    """``searchsorted(r_grid, d, side="left")`` for distances d >= 0 and evenly spaced
    increasing radii ``r_grid``, without a search: the index read off the spacing is
    at most one step off, and one comparison with the radius on each side corrects it."""
    n = r_grid.size
    edges = np.concatenate([[-np.inf], r_grid, [np.inf]])
    scale = (n - 1) / (r_grid[-1] - r_grid[0]) if n > 1 else 0.0
    idx = np.clip((d - r_grid[0]) * scale + 1.0, 0.0, n).astype(np.intp)
    idx -= edges[idx] >= d
    idx += edges[idx + 1] < d
    return idx


def _k_hat(pattern: PointPattern, lam, r_grid):
    """Inhomogeneous K-function of ``pattern`` at the evenly spaced increasing radii
    ``r_grid``, with translation edge correction and the intensity ``lam`` at its
    points, or None if no pair lies within the last radius.

    Each pair within the last radius (``_close_pairs``) adds 2 / (lam_i lam_j e_ij),
    e_ij the translation weight, to the interval of the first radius at or above its
    distance (``_interval_index``); K-hat is the cumulative sum over the intervals, so
    a pair at distance r counts in K(r).  One extra interval takes a distance rounded
    past the last radius.  Memory is one block of pairs and len(r_grid) + 1 sums.
    """
    w = pattern.window
    sums = None
    for rows, cols, within, dx, dy in _close_pairs(pattern.points, r_grid[-1]):
        trans = (w.width - np.abs(dx)) * (w.height - np.abs(dy))
        contrib = 2.0 / ((lam[rows, None] * lam[cols])[within] * trans)
        idx = _interval_index(np.hypot(dx, dy), r_grid)
        block = np.bincount(idx, contrib, minlength=r_grid.size + 1)
        sums = block if sums is None else sums + block
    return None if sums is None else np.cumsum(sums[:-1])


def estimate_pcf(pattern: PointPattern, lam_hat) -> PcfModel:
    """Fit (sigma2, phi) of the LGCP-exponential PCF by minimum contrast.

    The inhomogeneous K-function is estimated at 64 radii up to r_max (``_k_hat``,
    summed per radius interval in bounded memory) with translation edge correction
    and the intensity plug-in ``lam_hat``, the fitted intensity at the pattern's
    points, then |K-hat^(1/4) - K-model^(1/4)|^2 is integrated over r and minimized
    by a coarse grid scan plus Nelder-Mead (``_nelder_mead``).
    A degenerate fit falls back to Poisson, ``PcfModel()``, with a warning.
    """
    n = pattern.count()
    if n < 10:
        raise InsufficientPointsError(f"PCF estimation needs >= 10 points, got {n}")
    w = pattern.window
    r_max = 0.25 * min(w.width, w.height)
    r_grid = np.linspace(0.0, r_max, 65)[1:]

    lam = np.asarray(lam_hat, dtype=float)
    if lam.shape != (n,):
        raise ValueError(f"intensity plug-in needs one value per point, got shape {lam.shape}")
    if np.any(lam <= 0):
        raise ValueError("intensity plug-in must be positive at the data points")
    k_hat = _k_hat(pattern, lam, r_grid)
    if k_hat is None:
        warnings.warn("no point pairs within r_max; returning Poisson PCF")
        return PcfModel()

    k_hat_q = k_hat ** 0.25
    k_model = _k_model(r_grid)

    def contrast(p):
        sigma2, log_phi = p
        if sigma2 < 0 or not np.isfinite(sigma2) or not np.isfinite(log_phi):
            return 1e300
        phi = math.exp(log_phi)
        if phi <= 0 or phi > 100 * r_max:
            return 1e300
        diff = k_hat_q - k_model(PcfModel(sigma2, phi)) ** 0.25
        return float(np.trapezoid(diff ** 2, r_grid))

    best = None
    for s2 in np.linspace(0.0, 1.5, 13):
        for phi in np.geomspace(r_max / 50, r_max, 10):
            val = contrast((s2, math.log(phi)))
            if best is None or val < best[0]:
                best = (val, s2, math.log(phi))
    x = _nelder_mead(contrast, [best[1], best[2]], xatol=1e-5, fatol=1e-12, maxiter=400)
    sigma2_hat = float(x[0])
    phi_hat = float(math.exp(x[1]))
    if (not np.isfinite(sigma2_hat)) or sigma2_hat <= 1e-6 or not np.isfinite(phi_hat) \
            or phi_hat <= 0 or phi_hat > 10 * r_max:
        warnings.warn("degenerate PCF fit; returning Poisson family")
        return PcfModel()
    return PcfModel(sigma2_hat, phi_hat)


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
        zq = NormalDist().inv_cdf(0.5 + level / 2.0)
        ci[float(level)] = np.column_stack([theta_hat - zq * se, theta_hat + zq * se])
    diag = dict(diagnostics or {})
    diag.setdefault("min_eigenvalue_S", float(eigs.min()))
    diag.setdefault("area", float(area))
    return FitReport(theta_hat=theta_hat, S_hat=S_hat, Sigma_hat=Sigma_hat, se=se,
                     ci=ci, pcf=pcf or PcfModel(), diagnostics=diag)
