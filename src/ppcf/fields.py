"""Observation windows, lattice covariate fields, and Gaussian random field simulation.

A :class:`GridField` samples a scalar surface on a regular ``nx`` x ``ny`` lattice
spanning a rectangular window (nodes on the closed boundary) and evaluates it
anywhere inside by bilinear interpolation.  Stationary Gaussian random fields with
exponential covariance ``C(r) = sigma^2 * exp(-r / corr_range)`` are drawn either
by dense Cholesky factorization (small lattices) or by circulant embedding on a
doubled torus (large lattices); both paths are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import (
    DecompositionError,
    DegenerateWindowError,
    LatticeMismatchError,
    NonFiniteFieldError,
    ParseError,
)

# Dense Cholesky is exact and simple; beyond this many lattice nodes the O(n^3)
# factorization dominates and circulant embedding takes over.
_CHOLESKY_MAX_NODES = 96 * 96
_JITTER = 1e-10
_CLAMP_SD = 6.0


@dataclass(frozen=True)
class Window:
    """Rectangular observation window [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, x, y):
        """Closed-boundary membership test; accepts scalars or arrays."""
        return (
            (np.asarray(x) >= self.x_min)
            & (np.asarray(x) <= self.x_max)
            & (np.asarray(y) >= self.y_min)
            & (np.asarray(y) <= self.y_max)
        )


def make_window(x_min: float, y_min: float, x_max: float, y_max: float) -> Window:
    if not (x_max > x_min and y_max > y_min):
        raise DegenerateWindowError(
            f"window sides must be positive, got x: [{x_min}, {x_max}], y: [{y_min}, {y_max}]"
        )
    return Window(float(x_min), float(y_min), float(x_max), float(y_max))


@dataclass(frozen=True)
class GrfSpec:
    """Exponential-covariance Gaussian field: C(r) = variance * exp(-r / corr_range)."""

    variance: float
    corr_range: float
    mean: float = 0.0

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")
        if self.corr_range <= 0:
            raise ValueError(f"corr_range must be > 0, got {self.corr_range}")

    def covariance(self, r):
        return self.variance * np.exp(-np.asarray(r, dtype=float) / self.corr_range)


class GridField:
    """Scalar field sampled on a regular lattice with bilinear interpolation.

    ``values`` has shape ``(ny, nx)``: row ``iy`` holds the nodes at
    ``y = y_min + iy * dy``, column ``ix`` the nodes at ``x = x_min + ix * dx``,
    with nodes on the closed window boundary.
    """

    __slots__ = ("window", "nx", "ny", "values")

    def __init__(self, window: Window, nx: int, ny: int, values):
        if nx < 2 or ny < 2:
            raise ValueError(f"lattice resolution must be >= 2, got {nx} x {ny}")
        values = np.asarray(values, dtype=float)
        if values.size != nx * ny:
            raise ValueError(f"expected {nx * ny} values, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteFieldError("field values must be finite")
        self.window = window
        self.nx = int(nx)
        self.ny = int(ny)
        self.values = values.reshape(ny, nx)
        self.values.setflags(write=False)

    def same_lattice(self, other: "GridField") -> bool:
        return self.window == other.window and self.nx == other.nx and self.ny == other.ny

    def evaluate(self, x, y):
        """Bilinear interpolation at points inside the (closed) window.

        Lattice nodes reproduce the stored values exactly.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        w = self.window
        if not np.all(self.window.contains(x, y)):
            raise ValueError("evaluation point outside the window")
        t = (x - w.x_min) * (self.nx - 1) / (w.x_max - w.x_min)
        s = (y - w.y_min) * (self.ny - 1) / (w.y_max - w.y_min)
        ix = np.clip(np.floor(t).astype(int), 0, self.nx - 2)
        iy = np.clip(np.floor(s).astype(int), 0, self.ny - 2)
        fx = t - ix
        fy = s - iy
        # snap to nodes so node evaluation is exact despite float round-off
        fx = np.where(fx < 1e-12, 0.0, np.where(fx > 1 - 1e-12, 1.0, fx))
        fy = np.where(fy < 1e-12, 0.0, np.where(fy > 1 - 1e-12, 1.0, fy))
        v = self.values
        v00 = v[iy, ix]
        v01 = v[iy, ix + 1]
        v10 = v[iy + 1, ix]
        v11 = v[iy + 1, ix + 1]
        out = (
            (1 - fx) * (1 - fy) * v00
            + fx * (1 - fy) * v01
            + (1 - fx) * fy * v10
            + fx * fy * v11
        )
        return out

    def evaluate_points(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        return self.evaluate(points[:, 0], points[:, 1])


# cached covariance decompositions; fields are immutable so reuse is safe
_chol_cache: dict = {}
_circulant_cache: dict = {}


def _lattice_key(window: Window, nx: int, ny: int, spec: GrfSpec):
    return (window.x_min, window.y_min, window.x_max, window.y_max, nx, ny,
            spec.variance, spec.corr_range)


def _cholesky_factor(window: Window, nx: int, ny: int, spec: GrfSpec) -> np.ndarray:
    key = _lattice_key(window, nx, ny, spec)
    fac = _chol_cache.get(key)
    if fac is None:
        xs = np.linspace(window.x_min, window.x_max, nx)
        ys = np.linspace(window.y_min, window.y_max, ny)
        gx, gy = np.meshgrid(xs, ys)
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        cov = squareform(spec.covariance(pdist(coords)))
        np.fill_diagonal(cov, spec.variance)
        cov += (_JITTER * spec.variance) * np.eye(nx * ny)
        try:
            fac = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(
                f"lattice covariance not positive definite at {nx} x {ny}"
            ) from exc
        if len(_chol_cache) > 4:
            _chol_cache.clear()
        _chol_cache[key] = fac
    return fac


def _circulant_sqrt_eigs(window: Window, nx: int, ny: int, spec: GrfSpec) -> np.ndarray:
    key = _lattice_key(window, nx, ny, spec)
    sqrt_lam = _circulant_cache.get(key)
    if sqrt_lam is None:
        dx = window.width / (nx - 1)
        dy = window.height / (ny - 1)
        m, n = 2 * ny, 2 * nx
        di = np.minimum(np.arange(m), m - np.arange(m)) * dy
        dj = np.minimum(np.arange(n), n - np.arange(n)) * dx
        base = spec.covariance(np.hypot(di[:, None], dj[None, :]))
        base[0, 0] += _JITTER * spec.variance
        lam = np.fft.fft2(base).real
        if lam.min() < -1e-8 * lam.max():
            raise DecompositionError(
                f"circulant embedding not positive definite (min eigenvalue {lam.min():.3e})"
            )
        sqrt_lam = np.sqrt(np.clip(lam, 0.0, None))
        if len(_circulant_cache) > 4:
            _circulant_cache.clear()
        _circulant_cache[key] = sqrt_lam
    return sqrt_lam


def simulate_grf(window: Window, nx: int, ny: int, spec: GrfSpec, seed: int) -> GridField:
    """Draw one lattice sample of the stationary Gaussian field described by ``spec``.

    Deterministic given ``(window, nx, ny, spec, seed)``.  Fluctuations are clamped
    to +/- 6 standard deviations so the covariate stays bounded.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"lattice resolution must be >= 2, got {nx} x {ny}")
    rng = np.random.default_rng(seed)
    if spec.variance == 0.0:
        values = np.full((ny, nx), spec.mean)
        return GridField(window, nx, ny, values)
    if nx * ny <= _CHOLESKY_MAX_NODES:
        fac = _cholesky_factor(window, nx, ny, spec)
        fluct = (fac @ rng.standard_normal(nx * ny)).reshape(ny, nx)
    else:
        sqrt_lam = _circulant_sqrt_eigs(window, nx, ny, spec)
        noise = rng.standard_normal(sqrt_lam.shape)
        fluct = np.fft.ifft2(sqrt_lam * np.fft.fft2(noise)).real[:ny, :nx]
    sd = np.sqrt(spec.variance)
    fluct = np.clip(fluct, -_CLAMP_SD * sd, _CLAMP_SD * sd)
    return GridField(window, nx, ny, spec.mean + fluct)


def field_product(a: GridField, b: GridField) -> GridField:
    """Node-wise product of two fields on the same lattice."""
    if not a.same_lattice(b):
        raise LatticeMismatchError("fields must share window and resolution")
    return GridField(a.window, a.nx, a.ny, a.values * b.values)


def write_grid_file(field: GridField, path) -> None:
    """Plain-text grid format: header ``nx ny x_min y_min x_max y_max``, then
    nx*ny node values in row-major order (y-rows outer, x inner)."""
    w = field.window
    with open(path, "w") as fh:
        fh.write(f"{field.nx} {field.ny} {w.x_min!r} {w.y_min!r} {w.x_max!r} {w.y_max!r}\n")
        flat = field.values.ravel()
        for start in range(0, flat.size, field.nx):
            fh.write(" ".join(repr(float(v)) for v in flat[start:start + field.nx]) + "\n")


def read_grid_file(path) -> GridField:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 6:
            raise ParseError(path, 1, f"expected 'nx ny x_min y_min x_max y_max', got {header!r}")
        try:
            nx, ny = int(parts[0]), int(parts[1])
            coords = [float(p) for p in parts[2:]]
        except ValueError as exc:
            raise ParseError(path, 1, str(exc)) from None
        window = make_window(*coords)
        values = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                values.extend(float(tok) for tok in line.split())
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
    if len(values) != nx * ny:
        raise ParseError(path, line_no if values else 1,
                         f"expected {nx * ny} values, got {len(values)}")
    return GridField(window, nx, ny, np.asarray(values))
