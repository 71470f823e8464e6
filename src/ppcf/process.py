"""Point patterns, Poisson and log-Gaussian Cox simulation, and V-fold thinning.

Poisson patterns are drawn by rejection: ``N ~ Poisson(sup_bound * |A|)`` points
placed uniformly, each kept with probability ``lambda(u) / sup_bound``.  The
acceptance step re-checks the bound and raises rather than silently clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import (
    BoundViolationError,
    ParseError,
    UnmarkedPatternError,
)
from .fields import GridField, GrfSpec, Window, _read_header, simulate_grf


@dataclass(frozen=True)
class PointPattern:
    """Finite planar point set in a window, with optional fold marks in {1..V}."""

    window: Window
    points: np.ndarray                      # (n, 2) float
    marks: Optional[np.ndarray] = None      # (n,) int fold labels

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)
        if not np.all(self.window.contains(pts[:, 0], pts[:, 1])):
            raise ValueError("pattern contains points outside the window")
        if self.marks is not None:
            marks = np.asarray(self.marks, dtype=int)
            if marks.shape != (pts.shape[0],):
                raise ValueError("marks must have one label per point")
            if marks.size and marks.min() < 1:
                raise ValueError("fold labels start at 1")
            object.__setattr__(self, "marks", marks)

    def count(self) -> int:
        return self.points.shape[0]

    def with_marks(self, marks) -> "PointPattern":
        return PointPattern(self.window, self.points, np.asarray(marks, dtype=int))


@dataclass(frozen=True)
class IntensitySurface:
    """Callable intensity u -> lambda(u) >= 0 with a finite supremum bound."""

    window: Window
    func: Callable[[np.ndarray], np.ndarray]   # (n, 2) -> (n,)
    sup_bound: float

    def __call__(self, points) -> np.ndarray:
        return np.asarray(self.func(np.asarray(points, dtype=float).reshape(-1, 2)))


def constant_surface(window: Window, value: float) -> IntensitySurface:
    value = float(value)
    if value < 0:
        raise ValueError("intensity must be nonnegative")
    return IntensitySurface(window, lambda pts: np.full(pts.shape[0], value), max(value, 1e-300))


def simulate_poisson(surface: IntensitySurface, seed: int) -> PointPattern:
    """Inhomogeneous Poisson sample on the surface's window, deterministic given seed."""
    if not np.isfinite(surface.sup_bound) or surface.sup_bound < 0:
        raise ValueError("sup_bound must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    w = surface.window
    if surface.sup_bound == 0:
        return PointPattern(w, np.empty((0, 2)))
    n_prop = rng.poisson(surface.sup_bound * w.area())
    xs = rng.uniform(w.x_min, w.x_max, n_prop)
    ys = rng.uniform(w.y_min, w.y_max, n_prop)
    pts = np.column_stack([xs, ys])
    lam = surface(pts)
    if np.any(lam > surface.sup_bound * (1 + 1e-12)):
        raise BoundViolationError(
            f"intensity {lam.max():.6g} exceeds declared sup_bound {surface.sup_bound:.6g}"
        )
    if np.any(lam < 0):
        raise ValueError("intensity must be nonnegative")
    keep = rng.uniform(size=n_prop) * surface.sup_bound < lam
    return PointPattern(w, pts[keep])


def lgcp_surface(base: IntensitySurface, g_field: GridField, sigma2: float) -> IntensitySurface:
    """Conditional intensity base(u) * exp(G(u) - sigma2 / 2) given a draw G of a
    zero-mean latent field of variance sigma2, so that its mean is base(u)."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    offset = -0.5 * sigma2
    g_max = float(g_field.values.max())

    def func(pts):
        return base(pts) * np.exp(g_field.evaluate_points(pts) + offset)

    sup = base.sup_bound * float(np.exp(g_max + offset))
    return IntensitySurface(base.window, func, sup)


def simulate_lgcp(base: IntensitySurface, grf: GrfSpec, nx: int, ny: int,
                  seed: int) -> PointPattern:
    """Log-Gaussian Cox sample of mean intensity ``base``: draw the latent field, then
    Poisson given it.  A latent variance ``grf.variance`` of 0 is rejected."""
    if grf.variance <= 0:
        raise ValueError("LGCP latent variance must be > 0")
    seeds = np.random.SeedSequence(seed).spawn(2)
    g_field = simulate_grf(base.window, nx, ny, grf, seeds[0])
    cond = lgcp_surface(base, g_field, grf.variance)
    return simulate_poisson(cond, seeds[1])


def v_fold_thin(pattern: PointPattern, n_folds: int, seed: int) -> PointPattern:
    """Assign each point an independent uniform label in {1..V}.

    The seed stream is independent of whatever seeded the pattern, so re-thinning
    the same pattern is reproducible in isolation.
    """
    if n_folds < 2:
        raise ValueError(f"number of folds must be >= 2, got {n_folds}")
    rng = np.random.default_rng(seed)
    marks = rng.integers(1, n_folds + 1, size=pattern.count())
    return pattern.with_marks(marks)


def _select_fold(pattern: PointPattern, v: int, inside: bool) -> PointPattern:
    """Sub-pattern of points carrying mark v (``inside``) or any other mark."""
    if pattern.marks is None:
        raise UnmarkedPatternError("pattern has no fold marks; run v_fold_thin first")
    if v < 1:
        raise ValueError(f"fold index must be >= 1, got {v}")
    keep = (pattern.marks == v) == inside
    return PointPattern(pattern.window, pattern.points[keep], pattern.marks[keep])


def fold(pattern: PointPattern, v: int) -> PointPattern:
    """Sub-pattern of points carrying mark v."""
    return _select_fold(pattern, v, True)


def fold_complement(pattern: PointPattern, v: int) -> PointPattern:
    """Sub-pattern of points carrying any mark other than v."""
    return _select_fold(pattern, v, False)


def write_pattern_file(pattern: PointPattern, path) -> None:
    """Plain-text pattern format: header ``x_min y_min x_max y_max n`` then
    ``x y [fold]`` lines."""
    w = pattern.window
    with open(path, "w") as fh:
        fh.write(f"{w.x_min!r} {w.y_min!r} {w.x_max!r} {w.y_max!r} {pattern.count()}\n")
        for i in range(pattern.count()):
            x, y = float(pattern.points[i, 0]), float(pattern.points[i, 1])
            if pattern.marks is not None:
                fh.write(f"{x!r} {y!r} {int(pattern.marks[i])}\n")
            else:
                fh.write(f"{x!r} {y!r}\n")


def read_pattern_file(path) -> PointPattern:
    """Read the format of ``write_pattern_file``; blank lines are skipped.  A point
    outside the header's window or a fold label below 1 is a ``ParseError`` at its line."""
    path = Path(path)
    with open(path) as fh:
        window, (n,) = _read_header(fh, path, "x_min y_min x_max y_max n")
        if n < 0:
            raise ParseError(path, 1, f"point count must be >= 0, got {n}")
        pts = np.empty((n, 2))
        marks_list = []
        row = 0
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            toks = line.split()
            if len(toks) not in (2, 3):
                raise ParseError(path, line_no, f"expected 'x y [fold]', got {line!r}")
            if row >= n:
                raise ParseError(path, line_no, f"more than the declared {n} points")
            try:
                x, y = float(toks[0]), float(toks[1])
                mark = int(toks[2]) if len(toks) == 3 else None
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            if not (window.x_min <= x <= window.x_max and window.y_min <= y <= window.y_max):
                fault = ("point coordinates must be finite"
                         if not (math.isfinite(x) and math.isfinite(y)) else
                         f"point outside the window {window}")
                raise ParseError(path, line_no, f"{fault}, got {line!r}")
            if mark is not None:
                if mark < 1:
                    raise ParseError(path, line_no, f"fold labels start at 1, got {line!r}")
                marks_list.append(mark)
            pts[row] = x, y
            row += 1
    if row != n:
        raise ParseError(path, 1, f"declared {n} points but found {row}")
    if marks_list and len(marks_list) != n:
        raise ParseError(path, 1, "fold column present on some lines but not all")
    marks = np.asarray(marks_list, dtype=int) if marks_list else None
    return PointPattern(window, pts, marks)
