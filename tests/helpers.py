"""Shared test helpers: a fitted model wrapped as a surface the simulators draw from."""

import numpy as np

from ppcf.model import ModelSpec
from ppcf.process import IntensitySurface


def intensity_surface(spec: ModelSpec, theta, eta_fn) -> IntensitySurface:
    """The model at (theta, eta) as an intensity surface.

    The supremum bound is the maximum over the finest covariate lattice times
    1.05; the rejection sampler re-checks it and raises on violation.
    """
    w = spec.window
    func = spec.intensity(theta, eta_fn)
    nx = max(f.nx for f in spec.target_fields + spec.nuisance_fields)
    ny = max(f.ny for f in spec.target_fields + spec.nuisance_fields)
    gx, gy = np.meshgrid(np.linspace(w.x_min, w.x_max, nx), np.linspace(w.y_min, w.y_max, ny))
    sup = float(func(np.column_stack([gx.ravel(), gy.ravel()])).max()) * 1.05
    return IntensitySurface(w, func, sup)
