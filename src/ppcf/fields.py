"""Observation windows, lattice covariate fields, and Gaussian random field simulation.

A :class:`GridField` samples a scalar surface on a regular ``nx`` x ``ny`` lattice
spanning a rectangular window (nodes on the closed boundary) and evaluates it
anywhere inside by bilinear interpolation.  Stationary Gaussian random fields with
exponential covariance ``C(r) = sigma^2 * exp(-r / corr_range)`` are drawn by
circulant embedding: the lattice covariance is embedded in a stationary covariance
on a torus of periods 2 ny x 2 nx lattice steps, whose eigenvalues are one FFT of
its first row, and both periods are doubled until those eigenvalues are
non-negative, which makes the draw exact (Wood & Chan 1994; Dietrich & Newsam
1997).  A draw filters real white noise on the torus by the square roots of the
eigenvalues; as they are even, the filter runs on the half spectrum of one real
FFT, the same draw as the complex transform at half its work and memory.  The
half spectrum is the one torus-size array a draw holds: it takes the row FFTs of
the noise, and the column FFTs and the filter run in place in it.  A draw is
deterministic given the seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
# NumPy loads these submodules on first use; importing them here loads them with
# ppcf, before any pool worker forks, not in every worker's first replication
from numpy.fft import fft, fft2, ifft, irfft, rfft
from numpy.random import default_rng

from .errors import (
    DecompositionError,
    DegenerateWindowError,
    LatticeMismatchError,
    NonFiniteFieldError,
    ParseError,
)

# circulant embedding is not enlarged past this many torus nodes (32 MB for the
# half spectrum of a draw); W1 at 256 x 256 and range 0.2 needs 1024 x 1024
_MAX_TORUS_NODES = 2048 * 2048
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
    if not (x_max > x_min and y_max > y_min
            and all(map(math.isfinite, (x_min, y_min, x_max, y_max)))):
        raise DegenerateWindowError(
            f"window sides must be finite and positive, got x: [{x_min}, {x_max}], "
            f"y: [{y_min}, {y_max}]"
        )
    return Window(float(x_min), float(y_min), float(x_max), float(y_max))


@dataclass(frozen=True)
class GrfSpec:
    """Exponential-covariance Gaussian field: C(r) = variance * exp(-r / corr_range)."""

    variance: float
    corr_range: float
    mean: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")
        if not (math.isfinite(self.corr_range) and self.corr_range > 0):
            raise ValueError(f"corr_range must be finite and > 0, got {self.corr_range}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")

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


@functools.lru_cache(maxsize=4)
def _circulant_sqrt_eigs(window: Window, nx: int, ny: int, spec: GrfSpec) -> np.ndarray:
    """Square roots of the eigenvalues of the smallest non-negative circulant embedding
    of the lattice covariance (plus jitter at lag 0), read-only and on the m x (n/2 + 1)
    half spectrum a draw reads: the m x n torus starts at 2 ny x 2 nx nodes and both
    periods double until the smallest eigenvalue is at least -1e-8 times the largest."""
    dx = window.width / (nx - 1)
    dy = window.height / (ny - 1)
    m, n = 2 * ny, 2 * nx
    while True:
        di = np.minimum(np.arange(m), m - np.arange(m)) * dy
        dj = np.minimum(np.arange(n), n - np.arange(n)) * dx
        base = spec.covariance(np.hypot(di[:, None], dj[None, :]))
        base[0, 0] += _JITTER * spec.variance
        lam = fft2(base).real
        # even in both axes, as base is: averaged with its reflection so that the
        # rounding of the FFT leaves it exactly even, and a half spectrum holds it
        lam = 0.5 * (lam + np.roll(lam[::-1, ::-1], 1, axis=(0, 1)))
        if lam.min() >= -1e-8 * lam.max():
            break
        if 4 * m * n > _MAX_TORUS_NODES:
            raise DecompositionError(
                f"circulant embedding of the {nx} x {ny} lattice not positive definite "
                f"at {n} x {m} torus nodes (min eigenvalue {lam.min():.3e})"
            )
        m, n = 2 * m, 2 * n
    sqrt_lam = np.sqrt(np.clip(lam[:, :n // 2 + 1], 0.0, None))
    sqrt_lam.setflags(write=False)
    return sqrt_lam


def simulate_grf(window: Window, nx: int, ny: int, spec: GrfSpec, seed: int) -> GridField:
    """Draw one lattice sample of the stationary Gaussian field described by ``spec``.

    Deterministic given ``(window, nx, ny, spec, seed)``.  Fluctuations are clamped
    to +/- 6 standard deviations so the covariate stays bounded.  The draw is
    ``rfft2``/``irfft2``'s bit for bit: the same row and column FFTs, with the
    column ones in place and the inverse row FFTs on only the ``ny`` rows kept.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"lattice resolution must be >= 2, got {nx} x {ny}")
    rng = default_rng(seed)
    if spec.variance == 0.0:
        values = np.full((ny, nx), spec.mean)
        return GridField(window, nx, ny, values)
    sqrt_lam = _circulant_sqrt_eigs(window, nx, ny, spec)
    m, n = sqrt_lam.shape[0], 2 * (sqrt_lam.shape[1] - 1)
    spectrum = rfft(rng.standard_normal((m, n)), axis=1)     # the half spectrum
    fft(spectrum, axis=0, out=spectrum)
    spectrum *= sqrt_lam
    ifft(spectrum, axis=0, out=spectrum)
    fluct = irfft(spectrum[:ny], n=n, axis=1)[:, :nx]
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
    """Read the format of ``write_grid_file``; blank lines and any line breaks between
    values are allowed.  Each line of values is parsed by one vectorised call, so a
    ``ParseError`` names the offending line and no more than one line's tokens are
    held at a time."""
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
        if nx < 2 or ny < 2:
            raise ParseError(path, 1, f"lattice resolution must be >= 2, got {nx} x {ny}")
        if not all(map(math.isfinite, coords)):
            raise ParseError(path, 1, f"window bounds must be finite, got {coords}")
        window = make_window(*coords)
        lines, line_no = [], 1
        for line_no, line in enumerate(fh, start=2):
            try:
                lines.append(np.array(line.split(), dtype=float))
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
    values = np.concatenate(lines) if lines else np.empty(0)
    if values.size != nx * ny:
        raise ParseError(path, line_no if values.size else 1,
                         f"expected {nx * ny} values, got {values.size}")
    return GridField(window, nx, ny, values)
