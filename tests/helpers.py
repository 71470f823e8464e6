"""Shared test helpers: a fitted model wrapped as a surface the simulators draw from,
the K-function of a PCF model, and every FitError class."""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid

from ppcf.errors import FitError
from ppcf.model import ModelSpec
from ppcf.process import IntensitySurface

# every error a fit can raise on valid input, by name
FIT_ERRORS = sorted(FitError.__subclasses__(), key=lambda cls: cls.__name__)


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


def k_function(model, r, n_steps: int = 2048):
    """K(r) = 2 pi int_0^r s g(s) ds of a PcfModel on its own grid of ``n_steps``
    s-values from 0 to max r; exactly pi r^2 in the Poisson case."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if model.sigma2 == 0.0:
        out = math.pi * r ** 2
        return out if out.size > 1 else float(out[0])
    s = np.linspace(0.0, float(r.max()), n_steps)
    integrand = 2.0 * math.pi * s * model.pcf(s)
    cum = np.concatenate([[0.0], cumulative_trapezoid(integrand, s)])
    out = np.interp(r, s, cum)
    return out if out.size > 1 else float(out[0])
