import dataclasses
import math
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial import cKDTree
from scipy.special import ndtri

from helpers import intensity_surface, k_function

import ppcf.inference
from ppcf.errors import InsufficientPointsError, SingularSensitivityError
from ppcf.fields import GridField, GrfSpec, Window, simulate_grf
from ppcf.inference import (
    PcfModel,
    _close_pairs,
    _interval_index,
    _k_hat,
    _k_model,
    _nelder_mead,
    estimate_pcf,
    lfd_values,
    pcf_correction,
    semi_sandwich_terms,
    wald_report,
)
from ppcf.model import ModelSpec, QuadratureScheme, build_quadrature
from ppcf.nuisance import KernelSpec, NuisanceFit
from ppcf.process import PointPattern, constant_surface, simulate_lgcp, simulate_poisson

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

W1 = Window(0, 0, 1, 1)


def pcf_double_sum_brute(quad: QuadratureScheme, a_vectors: np.ndarray,
                         pcf: PcfModel, truncated: bool = False) -> np.ndarray:
    """O(m^2) reference double sum (oracle); optionally with the production truncation."""
    nodes = quad.nodes
    dist = np.hypot(nodes[:, 0][:, None] - nodes[:, 0][None, :],
                    nodes[:, 1][:, None] - nodes[:, 1][None, :])
    g = pcf.pcf(dist) - 1.0
    if truncated:
        r_trunc = pcf.truncation_radius(quad.window)
        g = np.where(dist <= r_trunc, g, 0.0)
    return np.einsum("ia,ij,jb->ab", a_vectors, g, a_vectors)


def _const_field(window, value, n=9):
    return GridField(window, n, n, np.full((n, n), float(value)))


def _linear_x_field(window, nx=33, ny=33):
    xs = np.linspace(window.x_min, window.x_max, nx)
    ys = np.linspace(window.y_min, window.y_max, ny)
    gx, _ = np.meshgrid(xs, ys)
    return GridField(window, nx, ny, gx)


@pytest.fixture(scope="module")
def fitted_instance():
    y = simulate_grf(W1, 64, 64, GrfSpec(1.0, 0.1), seed=71)
    z = simulate_grf(W1, 64, 64, GrfSpec(1.0, 0.1), seed=72)
    spec = ModelSpec([y], [z])
    eta = lambda Z: math.log(300.0) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=73)
    quad = build_quadrature(pattern, 32)
    nf = NuisanceFit(spec, quad, KernelSpec(2, 0.45))
    return spec, pattern, quad, nf, eta


def _sandwich(instance, theta, pcf):
    """(S, Sigma) from the semi-path sandwich terms and one PCF double sum."""
    spec, pattern, quad, nf, eta = instance
    S, a, _ = semi_sandwich_terms(spec, theta, eta, lambda Z: lfd_values(nf, theta, Z), quad)
    (corr,) = pcf_correction(quad, a, pcf)
    return S, S + corr


# -- least favorable direction ----------------------------------------------------


def test_lfd_constant_y():
    spec = ModelSpec([_const_field(W1, 1.7)], [_const_field(W1, 0.5)])
    pattern = simulate_poisson(constant_surface(W1, 80.0), seed=2)
    quad = build_quadrature(pattern, 16)
    nf = NuisanceFit(spec, quad, KernelSpec(2, 0.8))
    nu = lfd_values(nf, np.array([0.2]), [0.5])[0]
    assert np.allclose(nu, [-1.7], atol=1e-12)


def test_lfd_zero_theta_is_kernel_mean(fitted_instance):
    spec, pattern, quad, nf, eta = fitted_instance
    z = np.array([0.2])
    nu = nf.exact(np.zeros(1), z, 1)[1][0]
    k_nodes = nf.kernel.product(nf._Zs_nodes, nf.standardize(z))[0]
    tilt = nf.weights * k_nodes
    assert np.allclose(nu, -(tilt @ nf.Y_nodes) / tilt.sum(), atol=1e-12)


def test_lfd_agrees_with_eta_dtheta(fitted_instance):
    spec, pattern, quad, nf, eta = fitted_instance
    theta = np.array([0.31])
    for zv in (-0.4, 0.0, 0.55):
        nu = lfd_values(nf, theta, [zv])[0]
        d = nf.eta_all(theta, [zv])[1][0]
        assert np.allclose(nu, d, atol=1e-10)


def test_lfd_values_matches_pointwise(fitted_instance):
    spec, pattern, quad, nf, eta = fitted_instance
    theta = np.array([0.31])
    Z = np.linspace(-0.5, 0.5, 9)[:, None]
    bulk = lfd_values(nf, theta, Z)
    pointwise = nf.exact(theta, Z, 1)[1]
    assert np.max(np.abs(bulk - pointwise)) < 5e-3


@pytest.mark.parametrize("case", ["log-linear q=1", "saturated q=1", "log-linear q=2",
                                  "general"])
def test_lfd_is_the_curves_own_dtheta(case, fitted_instance):
    # the LFD is d of the curve the profile fit uses, where that curve is
    # clamped too
    theta = np.array([0.31])
    if case.endswith("q=1"):
        spec, pattern, quad, nf, _ = fitted_instance
        Z = np.linspace(-3.0, 3.0, 41)[:, None]
        if case == "saturated q=1":
            top = float(np.median(nf.eta_at(theta, Z))) - 0.5
            nf = NuisanceFit(spec, quad, nf.kernel)
            nf.eta_range = (top - 20.0, top)
    else:
        from test_model import make_general_spec
        window = Window(0, 0, 4, 4)
        if case == "general":
            spec = make_general_spec(window)
        else:
            z = [simulate_grf(window, 24, 24, GrfSpec(1.0, 0.5), seed=s) for s in (75, 76)]
            spec = ModelSpec([simulate_grf(window, 24, 24, GrfSpec(1.0, 0.5), seed=74)], z)
        pattern = simulate_poisson(constant_surface(window, 4.0), seed=21)
        quad = build_quadrature(pattern, 16)
        nf = NuisanceFit(spec, quad, KernelSpec(2, 0.45))
        Z = spec.covariates_at(pattern.points[:30])[1]
    nu = lfd_values(nf, theta, Z)
    assert nu.shape == (Z.shape[0], 1)
    assert np.allclose(nu, nf.eta_all(theta, Z)[1], rtol=1e-12, atol=1e-14)
    if case == "saturated q=1":
        # within tau * e^-x of its bound the clamped curve's slope factor is
        # below e^-x: there the LFD is that small a share of the unclamped one
        assert nf.diagnostics["clip_count"] > 0
        flat = nf.eta_at(theta, Z) >= nf.eta_range[1] - 5e-5
        unclamped = lfd_values(fitted_instance[3], theta, Z)
        assert flat.any() and np.all(np.abs(nu[flat]) <= 1e-3 * np.abs(unclamped[flat]))


# -- sensitivity --------------------------------------------------------------------


def test_sensitivity_degenerate_design_is_singular():
    spec = ModelSpec([_const_field(W1, 1.7)], [_const_field(W1, 0.5)])
    pattern = simulate_poisson(constant_surface(W1, 80.0), seed=3)
    quad = build_quadrature(pattern, 16)
    eta = lambda Z: np.full(Z.shape[0], 4.0)
    nu = lambda Z: np.full((Z.shape[0], 1), -1.7)
    S = semi_sandwich_terms(spec, np.array([0.0]), eta, nu, quad)[0]
    assert np.allclose(S, 0.0, atol=1e-12)
    with pytest.raises(SingularSensitivityError):
        wald_report(np.array([0.0]), S, S, 1.0)


def test_sensitivity_linear_x_integral():
    c = 50.0
    spec = ModelSpec([_linear_x_field(W1)], [_const_field(W1, 0.5)])
    pattern = PointPattern(W1, np.empty((0, 2)))
    eta = lambda Z: np.full(Z.shape[0], math.log(c))
    nu = lambda Z: np.zeros((Z.shape[0], 1))
    vals = []
    for g in (16, 32, 64, 128):
        quad = build_quadrature(pattern, g)
        vals.append(semi_sandwich_terms(spec, np.zeros(1), eta, nu, quad)[0][0, 0])
    target = c / 3.0
    errs = [abs(v - target) for v in vals]
    assert errs[-1] < errs[0]
    assert errs[-1] < 1e-3 * target


def test_sensitivity_extensive_in_area():
    # a field tiled 2x2 doubles each side: S scales with the window area
    w2 = Window(0, 0, 2, 2)
    rng = np.random.default_rng(4)
    base_vals = rng.normal(size=(65, 65))
    tiled = np.zeros((129, 129))
    for bx in range(2):
        for by in range(2):
            tiled[64 * by: 64 * by + 65, 64 * bx: 64 * bx + 65] = base_vals
    f1 = GridField(W1, 65, 65, base_vals)
    f2 = GridField(w2, 129, 129, tiled)
    eta = lambda Z: np.full(Z.shape[0], math.log(30.0))
    nu = lambda Z: np.zeros((Z.shape[0], 1))
    spec1 = ModelSpec([f1], [_const_field(W1, 0.0)])
    spec2 = ModelSpec([f2], [GridField(w2, 9, 9, np.zeros((9, 9)))])
    s1 = semi_sandwich_terms(spec1, np.array([0.25]), eta, nu,
                             build_quadrature(PointPattern(W1, np.empty((0, 2))), 32))[0][0, 0]
    s2 = semi_sandwich_terms(spec2, np.array([0.25]), eta, nu,
                             build_quadrature(PointPattern(w2, np.empty((0, 2))), 64))[0][0, 0]
    assert abs(s2 - 4.0 * s1) < 1e-8 * abs(s2)


# -- covariance and the PCF double sum ------------------------------------------------


def test_covariance_equals_sensitivity_for_poisson(fitted_instance):
    theta = np.array([0.3])
    S, Sigma = _sandwich(fitted_instance, theta, PcfModel())
    assert np.allclose(Sigma, S, rtol=1e-12, atol=0)
    _, Sigma0 = _sandwich(fitted_instance, theta,
                          PcfModel(sigma2=0.0, phi=0.2))
    assert np.allclose(Sigma0, S, rtol=1e-12, atol=0)


def test_pcf_correction_matches_brute_force_truncated():
    rng = np.random.default_rng(9)
    pattern = PointPattern(W1, rng.uniform(0, 1, size=(30, 2)))
    quad = build_quadrature(pattern, 8)
    a = rng.normal(size=(quad.m(), 2))
    pcf = PcfModel(sigma2=0.4, phi=0.07)
    (fast,) = pcf_correction(quad, a, pcf)
    brute = pcf_double_sum_brute(quad, a, pcf, truncated=True)
    assert np.allclose(fast, brute, rtol=1e-9, atol=1e-12)


def _offset_window_points():
    """Corners, edge points and lattice centres of an offset, non-square window
    (grid 12), then 60 random points."""
    window = Window(-1.0, 2.0, 2.0, 3.5)
    lattice = build_quadrature(PointPattern(window, np.empty((0, 2))), 12).nodes
    special = np.vstack([
        [[-1.0, 2.0], [2.0, 2.0], [-1.0, 3.5], [2.0, 3.5]],     # corners
        [[0.5, 2.0], [2.0, 2.75], [-1.0, 3.1], [1.3, 3.5]],      # edges
        lattice[[0, 11, 12 * 5 + 3, 12 * 11 + 7, 143]],          # lattice centres
    ])
    rng = np.random.default_rng(17)
    random = np.column_stack([rng.uniform(-1.0, 2.0, 60), rng.uniform(2.0, 3.5, 60)])
    return window, np.vstack([special, random])


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("n_data", [0, 1, 60])
# r_trunc 0.27, 0.068 and 0.014 (cells 0.25 x 0.125): at 0.014 a data node off the
# lattice rows and columns meets no lattice node
@pytest.mark.parametrize("phi", [0.02, 0.005, 0.001])
def test_pcf_correction_pruned_sum_edge_cases(k, n_data, phi):
    window, points = _offset_window_points()
    quad = build_quadrature(PointPattern(window, points[:n_data]), 12)
    pcf = PcfModel(sigma2=0.8, phi=phi)
    assert pcf.truncation_radius(window) < 0.2 * window.height     # pruning active
    a = np.random.default_rng(n_data + k).normal(size=(quad.m(), k))
    (fast,) = pcf_correction(quad, a, pcf)
    brute = pcf_double_sum_brute(quad, a, pcf, truncated=True)
    assert np.allclose(fast, brute, rtol=1e-9, atol=1e-12)


def test_pcf_correction_keeps_pairs_at_exactly_r_trunc():
    # r_trunc hits its cap of half the window side, 4.0; each data node lies
    # exactly 4.0 from lattice centres in the outermost row or column of its box
    window = Window(0.0, 0.0, 8.0, 8.0)
    pcf = PcfModel(sigma2=1.0, phi=2.0)
    assert pcf.truncation_radius(window) == 4.0
    quad = build_quadrature(PointPattern(window, np.array([[4.5, 0.5], [3.5, 7.5]])), 8)
    a = np.random.default_rng(3).normal(size=(quad.m(), 2))
    (fast,) = pcf_correction(quad, a, pcf)
    brute = pcf_double_sum_brute(quad, a, pcf, truncated=True)
    assert np.allclose(fast, brute, rtol=1e-9, atol=1e-12)


def _mixed_models(window):
    """Poisson, sigma2 = 0, a short range under the radius cap and a capped radius."""
    models = [PcfModel(),
              PcfModel(sigma2=0.0, phi=0.2),
              PcfModel(sigma2=0.8, phi=0.005),
              PcfModel(sigma2=0.8, phi=2.0)]
    cap = 0.5 * min(window.width, window.height)
    radii = [m.truncation_radius(window) for m in models]
    assert radii[:2] == [0.0, 0.0] and 0.0 < radii[2] < cap and radii[3] == cap
    return models


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n_data", [0, 1, 60])
def test_pcf_correction_several_models_in_one_call(n_data, reverse):
    window, points = _offset_window_points()
    quad = build_quadrature(PointPattern(window, points[:n_data]), 12)
    models = _mixed_models(window)[::-1 if reverse else 1]
    a = np.random.default_rng(n_data + 31).normal(size=(quad.m(), 3))
    together = pcf_correction(quad, a, *models)
    assert len(together) == len(models)
    for pcf, fast in zip(models, together):
        (alone,) = pcf_correction(quad, a, pcf)
        assert np.allclose(fast, alone, rtol=1e-12, atol=0)
        brute = pcf_double_sum_brute(quad, a, pcf, truncated=True)
        assert np.allclose(fast, brute, rtol=1e-9, atol=1e-12)


def test_pcf_pair_geometry_built_once_for_every_model(monkeypatch):
    window, points = _offset_window_points()
    quad = build_quadrature(PointPattern(window, points), 12)
    a = np.random.default_rng(5).normal(size=(quad.m(), 2))
    capped = _mixed_models(window)[3]
    calls = []
    distances = ppcf.inference._pair_distances

    def spy(r2, radii):
        calls.append(r2.size)
        return distances(r2, radii)

    monkeypatch.setattr(ppcf.inference, "_pair_distances", spy)
    pcf_correction(quad, a, capped)
    single = list(calls)
    calls.clear()
    # the capped radius is the largest, so all three share its pair blocks
    pcf_correction(quad, a, capped, PcfModel(sigma2=0.8, phi=0.005),
                   PcfModel(sigma2=0.3, phi=0.03))
    assert len(single) > 2 and calls == single


@pytest.mark.parametrize("side", [(8.0, 1.0), (1.0, 8.0)], ids=["wide", "tall"])
def test_data_sum_skips_pairs_beyond_the_radius_on_long_windows(monkeypatch, side):
    # the radius hits its cap of half the short side, and the data-data block
    # evaluates under half of the n (n + 1) / 2 data pairs; a search along the
    # short side, or square blocks over every pair, would evaluate more than that
    window = Window(0.0, 0.0, *side)
    rng = np.random.default_rng(4)
    n = 400
    points = np.column_stack([rng.uniform(0.0, side[0], n), rng.uniform(0.0, side[1], n)])
    pcf = PcfModel(sigma2=0.5, phi=2.0)
    radius = pcf.truncation_radius(window)
    assert radius == 0.5
    quad = build_quadrature(PointPattern(window, points), 8)
    a = rng.normal(size=(quad.m(), 2))
    (fast,) = pcf_correction(quad, a, pcf)
    brute = pcf_double_sum_brute(quad, a, pcf, truncated=True)
    assert np.allclose(fast, brute, rtol=1e-9, atol=1e-12)
    sizes = []
    kernels = ppcf.inference._kernels

    def spy(models, r2, work):
        sizes.append(r2.size)
        return kernels(models, r2, work)

    monkeypatch.setattr(ppcf.inference, "_kernels", spy)
    ppcf.inference._data_sum([(pcf, radius)], points, a[quad.grid_n ** 2:])
    assert 0 < sum(sizes) < n * (n + 1) / 4, sum(sizes)


def lattice_block_batched(quad: QuadratureScheme, a_vectors: np.ndarray,
                          pcf: PcfModel) -> np.ndarray:
    """The lattice-lattice double sum as one batched FFT correlation of period 2g over
    all k columns of a at once, symmetrised."""
    g = quad.grid_n
    offs = np.fft.fftfreq(2 * g, 1.0 / (2 * g))
    r = np.sqrt((offs * (quad.window.height / g))[:, None] ** 2
                + (offs * (quad.window.width / g))[None, :] ** 2)
    kern = np.where(r <= pcf.truncation_radius(quad.window), pcf.pcf(r) - 1.0, 0.0)
    imgs = a_vectors[:g * g].T.reshape(-1, g, g)
    shape = (2 * g, 2 * g)
    conv = np.fft.irfft2(np.fft.rfft2(imgs, shape) * np.fft.rfft2(kern), shape)[:, :g, :g]
    total = np.einsum("aij,bij->ab", conv, imgs)
    return 0.5 * (total + total.T)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_pcf_correction_lattice_block_is_the_batched_fft(k):
    # a lattice-only scheme: the whole sum is the lattice block, one column at a time
    window, _ = _offset_window_points()
    quad = build_quadrature(PointPattern(window, np.empty((0, 2))), 32)
    models = _mixed_models(window)[2:] + [PcfModel(sigma2=0.3, phi=0.1)]
    a = np.random.default_rng(k).normal(size=(quad.m(), k))
    for pcf, fast in zip(models, pcf_correction(quad, a, *models)):
        assert np.allclose(fast, lattice_block_batched(quad, a, pcf), rtol=1e-14, atol=0)


def _traced_peak(fn, *args):
    """(result, peak bytes traced while ``fn(*args)`` runs)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lattice_block_memory_does_not_grow_with_columns():
    # one column's image is transformed at a time, so six columns peak no higher than
    # one by more than a padded image's transform, 2g x (g + 1) complex values
    window = Window(0.0, 0.0, 2.0, 2.0)
    g = 64
    quad = build_quadrature(PointPattern(window, np.empty((0, 2))), g)
    pcf = PcfModel(sigma2=0.5, phi=0.2)
    a = np.random.default_rng(2).normal(size=(quad.m(), 6))
    pcf_correction(quad, a[:, :1], pcf)                  # NumPy's FFT plan caches
    peaks = {k: _traced_peak(pcf_correction, quad, np.ascontiguousarray(a[:, :k]), pcf)[1]
             for k in (1, 6)}
    assert peaks[6] - peaks[1] <= 16 * 2 * g * (g + 1), peaks


def lattice_data_all_pairs(models, quad, a_vectors, chunk=64):
    """The lattice-data block over every (data, lattice) pair, ``chunk`` data nodes
    at a time: per model, sum a_i a_j^T [g(d_ij) - 1] with g - 1 zeroed beyond its
    truncation radius."""
    n_grid = quad.grid_n ** 2
    lattice, A_grid = quad.nodes[:n_grid], a_vectors[:n_grid]
    outs = [np.zeros((a_vectors.shape[1],) * 2) for _ in models]
    for p0 in range(n_grid, quad.m(), chunk):
        pts, a_pts = quad.nodes[p0:p0 + chunk], a_vectors[p0:p0 + chunk]
        d = np.hypot(pts[:, 0, None] - lattice[:, 0], pts[:, 1, None] - lattice[:, 1])
        for out, (pcf, radius) in zip(outs, models):
            out += a_pts.T @ (np.where(d <= radius, pcf.pcf(d) - 1.0, 0.0) @ A_grid)
    return outs


def _lattice_data_block(models, quad, a_vectors):
    """``_lattice_data_sum`` on the (pcf, radius) pairs of ``models``."""
    n_grid = quad.grid_n ** 2
    models = [(pcf, pcf.truncation_radius(quad.window)) for pcf in models]
    return ppcf.inference._lattice_data_sum(models, quad, a_vectors[:n_grid],
                                            a_vectors[n_grid:]), models


def test_lattice_data_block_is_the_all_pairs_sum_on_a_w2_quadrature():
    # grid 128 and 1,431 clustered points, as in a W2 replication; one model at the
    # capped radius 1.0 and one at 0.26
    pattern, _ = _w2_lgcp_pattern(2, rate=330.0)
    quad = build_quadrature(pattern, 128)
    pcfs = [PcfModel(sigma2=0.2, phi=0.2), PcfModel(sigma2=0.5, phi=0.02)]
    a = np.random.default_rng(8).normal(size=(quad.m(), 3))
    fast, models = _lattice_data_block(pcfs, quad, a)
    assert models[0][1] == 1.0 and 0.2 < models[1][1] < 0.3
    for got, want in zip(fast, lattice_data_all_pairs(models, quad, a)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_lattice_data_block_keeps_a_pair_at_r_trunc_on_a_band_edge():
    # grid 20 on a 10 x 10 window puts nodes at 0.25 + 0.5 i, and r_trunc hits its cap
    # of 5.0; the lattice rows 0-15 make one band and rows 16-19 the next.  From the
    # one data node (5.25, 5.25), the second band's nearest row, y = 8.25, is 3 away,
    # so that band's columns are clipped to within 4 of x = 5.25, and its nodes
    # (1.25, 8.25) and (9.25, 8.25), on the clipped edges, lie exactly 5.0 away
    window = Window(0.0, 0.0, 10.0, 10.0)
    quad = build_quadrature(PointPattern(window, np.array([[5.25, 5.25]])), 20)
    assert ppcf.inference._BAND_ROWS == 16
    ys = quad.nodes[:400:20, 1]
    assert ys[16] == 8.25 and quad.nodes[16 * 20 + 2, 0] == 1.25
    edge = quad.nodes[[16 * 20 + 2, 16 * 20 + 18]]
    assert np.array_equal(np.hypot(*(edge - [5.25, 5.25]).T), [5.0, 5.0])
    a = np.random.default_rng(12).normal(size=(quad.m(), 2))
    fast, models = _lattice_data_block([PcfModel(sigma2=1.0, phi=2.0)], quad, a)
    assert models[0][1] == 5.0
    np.testing.assert_allclose(fast[0], lattice_data_all_pairs(models, quad, a)[0],
                               rtol=1e-12, atol=0)


def test_lattice_data_block_splits_a_crowded_tile_in_bounded_products(monkeypatch):
    # 300 of 340 data nodes crowd into one tile: more than one kernel product takes
    # at a 128 lattice, so the tile's points are split, and no kernel temporary holds
    # more than _PAIR_BLOCK pair values
    window = Window(0.0, 0.0, 2.0, 2.0)
    rng = np.random.default_rng(21)
    points = np.vstack([rng.uniform(0.6, 0.62, (300, 2)), rng.uniform(0.0, 2.0, (40, 2))])
    quad = build_quadrature(PointPattern(window, points), 128)
    a = rng.normal(size=(quad.m(), 2))
    shapes = []
    kernels = ppcf.inference._kernels

    def spy(models, r2, work):
        shapes.append(r2.shape)
        return kernels(models, r2, work)

    monkeypatch.setattr(ppcf.inference, "_kernels", spy)
    pcfs = [PcfModel(sigma2=0.3, phi=0.2), PcfModel(sigma2=0.5, phi=0.01)]
    fast, models = _lattice_data_block(pcfs, quad, a)
    assert max(math.prod(shape) for shape in shapes) <= ppcf.inference._PAIR_BLOCK
    assert 1 < max(shape[0] for shape in shapes) < 300
    for got, want in zip(fast, lattice_data_all_pairs(models, quad, a)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_loewner_order_for_clustering_pcf(fitted_instance):
    S, Sigma = _sandwich(fitted_instance, np.array([0.3]),
                         PcfModel(sigma2=0.3, phi=0.1))
    eigs = np.linalg.eigvalsh(Sigma - S)
    assert eigs.min() >= -1e-8 * np.trace(S)


# -- PCF estimation -------------------------------------------------------------------


def test_k_model_poisson_is_pi_r_squared():
    # sigma2 = 0 is the Poisson process, whatever phi: g = 1, no truncation radius,
    # K = pi r^2 exactly, a zero PCF correction and the family name of the records
    assert [f.name for f in dataclasses.fields(PcfModel)] == ["sigma2", "phi"]
    assert PcfModel(0.2, 0.2).family == "lgcp-exponential"
    r = np.linspace(0.01, 0.4, 7)
    quad = build_quadrature(PointPattern(W1, np.array([[0.3, 0.4], [0.31, 0.42]])), 8)
    a = np.random.default_rng(2).normal(size=(quad.m(), 2))
    for model in [PcfModel()] + [PcfModel(0.0, phi) for phi in (1e-3, 0.3, 1.0, 50.0)]:
        assert model.family == "poisson"
        assert np.array_equal(model.pcf(r), np.ones_like(r))
        assert model.truncation_radius(W1) == 0.0
        assert np.array_equal(_k_model(r)(model), math.pi * r ** 2)
        (corr,) = pcf_correction(quad, a, model)
        assert np.array_equal(corr, np.zeros((2, 2)))


@pytest.mark.parametrize("side", [1.0, 2.0])
def test_contrast_k_model_is_the_k_function_bit_for_bit(side):
    # the contrast builds its s-grid once per fit; every model's K on it is the
    # K-function of the model on its own 513-point grid, to the last bit
    r_grid = np.linspace(0.0, 0.25 * side, 65)[1:]
    k_model = _k_model(r_grid)
    for sigma2, phi in [(0.0, 0.1), (1e-7, 0.2), (0.2, 0.2), (np.float64(1.37), 0.011),
                        (0.5, 25.0)]:
        model = PcfModel(sigma2, phi)
        assert np.array_equal(k_model(model), k_function(model, r_grid, n_steps=513))
    assert np.array_equal(k_model(PcfModel()), math.pi * r_grid ** 2)


def test_estimate_pcf_requires_points():
    pattern = PointPattern(W1, np.array([[0.5, 0.5]]))
    with pytest.raises(InsufficientPointsError):
        estimate_pcf(pattern, np.ones(pattern.count()))


def test_estimate_pcf_takes_one_intensity_per_point():
    pattern = simulate_poisson(constant_surface(W1, 300.0), seed=1)
    with pytest.raises(ValueError, match="one value per point"):
        estimate_pcf(pattern, np.full(pattern.count() + 1, 300.0))


def test_estimate_pcf_poisson_null():
    lam = 300.0
    sig2 = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in range(200):
            pattern = simulate_poisson(constant_surface(W1, lam), seed=s)
            model = estimate_pcf(pattern, np.full(pattern.count(), lam))
            sig2.append(model.sigma2)
    assert np.median(sig2) <= 0.02


def test_estimate_pcf_recovers_lgcp_parameters():
    w2 = Window(0, 0, 2, 2)
    base = constant_surface(w2, 400.0)
    spec = GrfSpec(0.2, 0.2)
    sig2, phi = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in range(150):
            pattern = simulate_lgcp(base, spec, 128, 128, seed=5_000 + s)
            model = estimate_pcf(pattern, np.full(pattern.count(), 400.0))
            sig2.append(model.sigma2)
            phi.append(model.phi if model.family != "poisson" else 0.0)
    assert 0.1 <= np.median(sig2) <= 0.3
    assert 0.1 <= np.median(phi) <= 0.3


def _k_hat_concatenated(pattern, lam, r_grid):
    """K-hat with every pair array concatenated first: the pairs' dx, dy and
    intensity products, then distances, weights and contributions over all pairs,
    cumulated in ``argsort`` order of the distances."""
    w = pattern.window
    blocks = [(dx, dy, (lam[rows, None] * lam[cols])[within])
              for rows, cols, within, dx, dy in _close_pairs(pattern.points, r_grid[-1])]
    if not blocks:
        return None
    dx, dy, lam_pairs = (np.concatenate(b) for b in zip(*blocks))
    d = np.hypot(dx, dy)
    trans = (w.width - np.abs(dx)) * (w.height - np.abs(dy))
    contrib = 2.0 / (lam_pairs * trans)
    order = np.argsort(d)
    cum = np.concatenate([[0.0], np.cumsum(contrib[order])])
    return cum[np.searchsorted(d[order], r_grid, side="right")]


def _w2_lgcp_pattern(seed, rate=400.0):
    """A W2-sized LGCP pattern (1.5k-1.7k points for seeds 1 and 2 at rate 400) and
    an inhomogeneous plug-in."""
    w2 = Window(0, 0, 2, 2)
    pattern = simulate_lgcp(constant_surface(w2, rate), GrfSpec(0.3, 0.2), 128, 128,
                            seed=seed)
    return pattern, rate * np.exp(0.3 * (pattern.points[:, 0] - 1.0))


def test_k_hat_matches_the_concatenated_sort(monkeypatch):
    # the per-interval sums add in another order than the argsort cumulation, so
    # K-hat moves by rounding only, and the minimum-contrast fit not at all
    fits = {}
    for seed in (1, 2):
        pattern, lam = _w2_lgcp_pattern(seed)
        r_grid = np.linspace(0.0, 0.5, 65)[1:]
        k_hat = _k_hat(pattern, lam, r_grid)
        np.testing.assert_allclose(k_hat, _k_hat_concatenated(pattern, lam, r_grid),
                                   rtol=1e-12, atol=0)
        assert k_hat[0] > 0.0
        for name, fn in [("binned", _k_hat), ("concatenated", _k_hat_concatenated)]:
            monkeypatch.setattr(ppcf.inference, "_k_hat", fn)
            fits[name] = estimate_pcf(pattern, lam)
        assert fits["binned"] == fits["concatenated"]
        assert fits["binned"].family == "lgcp-exponential"
    few = PointPattern(W1, np.array([[0.1, 0.1], [0.2, 0.2], [0.9, 0.9]]))
    assert _k_hat(few, np.ones(3), np.array([0.01, 0.05])) is None
    small = np.array([0.1, 0.15, 0.2])
    np.testing.assert_allclose(_k_hat(few, np.ones(3), small),
                               _k_hat_concatenated(few, np.ones(3), small), rtol=1e-12, atol=0)


def _k_hat_all_pairs(pattern, lam, r_grid):
    """K-hat over all n^2 ordered pairs i != j: each adds 1 / (lam_i lam_j e_ij) at
    every radius at or above its distance."""
    w = pattern.window
    dx = pattern.points[:, 0, None] - pattern.points[:, 0]
    dy = pattern.points[:, 1, None] - pattern.points[:, 1]
    d = np.hypot(dx, dy)
    contrib = 1.0 / (lam[:, None] * lam * (w.width - np.abs(dx)) * (w.height - np.abs(dy)))
    np.fill_diagonal(d, np.inf)
    return np.array([contrib[d <= r].sum() for r in r_grid])


def test_k_hat_is_the_all_pairs_sum_and_counts_a_pair_at_r_in_k_of_r():
    # the radii are multiples of 2^-8, and 3-4-5 offsets of 2^-6 put pairs at
    # exactly 5 / 64 = r_grid[19] and at 1 / 4 = r_grid[63] (the pair test's edge)
    r_grid = np.linspace(0.0, 0.25, 65)[1:]
    exact = np.array([[0.5, 0.5], [0.5 + 3 / 64, 0.5 + 4 / 64], [0.75, 0.5]])
    k_two = _k_hat(PointPattern(W1, exact[:2]), np.ones(2), r_grid)
    assert np.all(k_two[:19] == 0.0) and np.all(k_two[19:] == k_two[19]) and k_two[19] > 0.0
    k_exact = _k_hat(PointPattern(W1, exact), np.ones(3), r_grid)
    assert k_exact[63] > k_exact[62]
    rng = np.random.default_rng(5)
    for pts in (exact, np.vstack([exact, rng.uniform(0, 1, (150, 2))])):
        pattern = PointPattern(W1, pts)
        lam = rng.uniform(50.0, 200.0, len(pts))
        np.testing.assert_allclose(_k_hat(pattern, lam, r_grid),
                                   _k_hat_all_pairs(pattern, lam, r_grid), rtol=1e-12, atol=0)


def test_interval_index_is_the_left_search():
    # at each radius, one ulp either side of it, at 0 and one ulp past the last
    # radius, the index read off the spacing is searchsorted's; the spacing reads
    # one step high at some radii of every grid, and one step low just past a radius
    # of the grid up to 0.2
    rng = np.random.default_rng(3)
    for r_grid in (np.linspace(0.0, 0.25, 65)[1:], np.linspace(0.0, 0.5, 65)[1:],
                   np.linspace(0.0, 0.2, 65)[1:], np.array([0.1, 0.15, 0.2]),
                   np.array([0.01, 0.05]), np.array([0.3])):
        d = np.concatenate([r_grid, np.nextafter(r_grid, 0.0), np.nextafter(r_grid, 1.0),
                            [0.0, np.nextafter(r_grid[-1], 1.0)],
                            rng.uniform(0.0, r_grid[-1], 10_000)])
        assert np.array_equal(_interval_index(d, r_grid),
                              np.searchsorted(r_grid, d, side="left"))


def _k_hat_searched(pattern, lam, r_grid):
    """K-hat with each pair's interval found by a binary search of the radii."""
    w = pattern.window
    sums = None
    for rows, cols, within, dx, dy in _close_pairs(pattern.points, r_grid[-1]):
        trans = (w.width - np.abs(dx)) * (w.height - np.abs(dy))
        contrib = 2.0 / ((lam[rows, None] * lam[cols])[within] * trans)
        idx = np.searchsorted(r_grid, np.hypot(dx, dy), side="left")
        block = np.bincount(idx, contrib, minlength=r_grid.size + 1)
        sums = block if sums is None else sums + block
    return None if sums is None else np.cumsum(sums[:-1])


def test_k_hat_is_the_searched_k_hat_bit_for_bit():
    exact = np.array([[0.5, 0.5], [0.5 + 3 / 64, 0.5 + 4 / 64], [0.75, 0.5]])
    cases = [(PointPattern(W1, exact), np.ones(3), np.linspace(0.0, 0.25, 65)[1:])]
    for seed in (1, 2):
        pattern, lam = _w2_lgcp_pattern(seed)
        cases.append((pattern, lam, np.linspace(0.0, 0.5, 65)[1:]))
    for pattern, lam, r_grid in cases:
        assert np.array_equal(_k_hat(pattern, lam, r_grid),
                              _k_hat_searched(pattern, lam, r_grid))


def test_estimate_pcf_memory_does_not_grow_with_pairs():
    # the K-function holds one sweep block of pairs and 65 interval sums, so the
    # fit's traced peak stays a few MB at millions of pairs
    pattern, lam = _w2_lgcp_pattern(1, rate=1600.0)
    pairs = sum(dx.size for *_, dx, _ in _close_pairs(pattern.points, 0.5))
    assert pairs > 2_500_000
    _, peak = _traced_peak(estimate_pcf, pattern, lam)
    assert peak < 8 * 2 ** 20, (peak, pairs)


def _pair_keys(pts, r):
    """The pairs of ``_close_pairs`` as sorted keys i * n + j, i < j, checking on the
    way that no pair comes twice and that dx, dy are the row point minus the column
    point."""
    keys = []
    for rows, cols, within, dx, dy in _close_pairs(pts, r):
        a, b = np.nonzero(within)
        i, j = rows[a], cols[b]
        assert np.array_equal(dx, pts[i, 0] - pts[j, 0])
        assert np.array_equal(dy, pts[i, 1] - pts[j, 1])
        keys.append(np.minimum(i, j) * len(pts) + np.maximum(i, j))
    keys = np.sort(np.concatenate(keys)) if keys else np.empty(0, dtype=np.intp)
    assert np.all(np.diff(keys) > 0)
    return keys


def _query_keys(pts, r):
    pairs = cKDTree(pts).query_pairs(r, output_type="ndarray")
    return np.sort(pairs[:, 0] * len(pts) + pairs[:, 1])


def _pair_cases():
    rng = np.random.default_rng(11)
    lattice = np.stack(np.meshgrid(np.arange(9.0), np.arange(7.0)), -1).reshape(-1, 2)
    spread = rng.uniform(0, 2, (400, 2))
    yield "none", np.empty((0, 2)), 0.5
    yield "one", np.array([[0.3, 0.4]]), 0.5
    yield "two-within", np.array([[0.3, 0.4], [0.6, 0.8]]), 0.5
    yield "two-beyond", np.array([[0.3, 0.4], [0.6, 0.81]]), 0.5
    yield "duplicates", np.repeat(rng.uniform(0, 1, (60, 2)), 3, axis=0), 0.2
    yield "all-equal", np.full((5, 2), 0.25), 0.1
    # neighbours exactly r apart, each at the end of a sweep row's reach: spacing
    # r = 0.25 is exact in binary, spacing 0.1 is r up to rounding either side
    yield "lattice-exact", 0.25 * lattice, 0.25
    yield "lattice-rounded", 0.1 * lattice, 0.1
    yield "lattice-sqrt2", 0.1 * lattice, math.hypot(0.1, 0.1)
    shift = rng.uniform(0, 2 * np.pi, 200)
    base = rng.uniform(0, 1, (200, 2))
    yield "partners-at-r", np.vstack([base, base + 0.15 * np.column_stack(
        [np.cos(shift), np.sin(shift)])]), 0.15
    yield "uniform", spread, 0.5
    yield "offset-window", spread + [1000.5, -73.25], 0.5
    yield "thin-strip", np.column_stack([rng.uniform(-5, 5, 300), rng.uniform(0, 0.01, 300)]), 0.3
    centers = rng.uniform(0, 2, (8, 2))
    yield "clustered", (centers[rng.integers(0, 8, 500)]
                        + rng.normal(scale=0.03, size=(500, 2))), 0.5
    yield "tall-strip", np.column_stack([rng.uniform(0, 0.01, 300), rng.uniform(-5, 5, 300)]), 0.3


@pytest.mark.parametrize("case", list(_pair_cases()), ids=lambda c: c[0])
def test_close_pairs_is_the_query_pairs_set(case):
    _, pts, r = case
    assert np.array_equal(_pair_keys(pts, r), _query_keys(pts, r))


@pytest.mark.parametrize("filler", [0, 240])
def test_close_pairs_keeps_pairs_r_apart_at_cell_edges(filler):
    # pairs (x, x + r) up to rounding on the sweep axis: each column ends its row's
    # reach, which keeps it only through the reach's relative margin on r.  Without
    # filler all points are one block's rows; 240 uniform filler points make several
    # blocks of _SWEEP_ROWS rows, so pairs also meet across blocks, row before column
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = float(rng.uniform(0.05, 0.5))
        cells = int(rng.integers(4, 14))
        span = cells * (r / 2)
        x = (rng.integers(0, cells - 2, 20) + rng.uniform(-1e-15, 1e-15, 20)) * (r / 2)
        x = np.clip(x, 0.0, span)
        x = np.concatenate([[0.0, span], x, (x + r)[x + r <= span],
                            rng.uniform(0.0, span, filler)])
        pts = np.column_stack([x, np.zeros_like(x)])
        assert np.array_equal(_pair_keys(pts, r), _query_keys(pts, r))


def test_close_pairs_blocks_stay_bounded_on_a_dense_cluster():
    # every pair of 1,200 points in a 0.001-wide square lies within r, so every row's
    # reach runs to the last point; the sweep's chunks still hold at most _PAIR_BLOCK
    # pairs each
    pts = np.random.default_rng(6).uniform(0.0, 0.001, (1200, 2))
    sizes = [within.size for _, _, within, _, _ in _close_pairs(pts, 0.5)]
    assert max(sizes) <= ppcf.inference._PAIR_BLOCK
    assert np.array_equal(_pair_keys(pts, 0.5), _query_keys(pts, 0.5))


def test_close_pairs_matches_query_pairs_on_lgcp_patterns():
    w2 = Window(0, 0, 2, 2)
    base = constant_surface(w2, 400.0)
    for seed in range(3):
        pts = simulate_lgcp(base, GrfSpec(1.0, 0.1), 64, 64, seed=seed).points
        assert len(pts) > 16 * 49       # many sweep blocks of _SWEEP_ROWS rows each
        assert np.array_equal(_pair_keys(pts, 0.5), _query_keys(pts, 0.5))


def _scipy_nelder_mead(fun, x0, xatol, fatol, maxiter):
    return minimize(fun, x0, method="Nelder-Mead",
                    options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter}).x


def _counted(nm, fun, *args):
    """(x, evaluations) of the minimizer ``nm`` on ``fun``."""
    calls = []

    def f(x):
        calls.append(np.array(x))
        return fun(x)

    return nm(f, *args), calls


def _nelder_mead_problems():
    rng = np.random.default_rng(5)
    for i in range(24):
        a = rng.normal(size=(2, 2))
        hess = a @ a.T + 0.1 * np.eye(2)
        center = rng.normal(size=2)
        x0 = rng.normal(scale=2.0, size=2)
        if i % 6 == 0:
            x0[i % 4 // 2] = 0.0          # a zero coordinate takes the 0.00025 step
        kind = i % 4
        if kind == 0:
            fun = lambda x, h=hess, c=center: float((x - c) @ h @ (x - c))
        elif kind == 1:
            fun = lambda x, c=center: float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
                                            + c[0])
        elif kind == 2:                  # the contrast's barrier outside a region
            fun = lambda x, h=hess, c=center: (1e300 if x[0] < 0 else
                                               float((x - c) @ h @ (x - c)))
        else:
            fun = lambda x, c=center: float(np.abs(x - c).sum() + np.cos(3 * x[0]))
        maxiter = 25 if i % 5 == 0 else 400
        yield fun, x0, 1e-5, 1e-12, maxiter


@pytest.mark.parametrize("problem", list(_nelder_mead_problems()))
def test_nelder_mead_is_scipys_bit_for_bit(problem):
    fun, *args = problem
    x, calls = _counted(_nelder_mead, fun, *args)
    x_ref, calls_ref = _counted(_scipy_nelder_mead, fun, *args)
    assert np.array_equal(x, x_ref)
    assert len(calls) == len(calls_ref)
    assert all(np.array_equal(a, b) for a, b in zip(calls, calls_ref))


def test_estimate_pcf_contrast_minimum_is_scipys_bit_for_bit(monkeypatch):
    # the whole fit, with the in-package minimizer and with SciPy's on the same contrast
    w2 = Window(0, 0, 2, 2)
    fits, counts = {}, {}
    for seed in range(3):
        pattern = simulate_lgcp(constant_surface(w2, 400.0), GrfSpec(0.3, 0.15), 64, 64,
                                seed=seed)
        lam = np.full(pattern.count(), 400.0)
        for name, nm in [("ours", _nelder_mead), ("scipy", _scipy_nelder_mead)]:
            def run(fun, x0, xatol, fatol, maxiter, nm=nm, name=name):
                x, calls = _counted(nm, fun, x0, xatol, fatol, maxiter)
                counts[name] = len(calls)
                return x

            monkeypatch.setattr(ppcf.inference, "_nelder_mead", run)
            fits[name] = estimate_pcf(pattern, lam)
        assert fits["ours"] == fits["scipy"] and fits["ours"].family == "lgcp-exponential"
        assert counts["ours"] == counts["scipy"]


# -- Wald reports ---------------------------------------------------------------------


def test_wald_scalar_arithmetic():
    rep = wald_report(np.array([0.3]), np.array([[4.0]]), np.array([[4.0]]), 1.0)
    assert abs(rep.se[0] - 0.5) < 1e-12
    lo, hi = rep.ci[0.95][0]
    assert abs((hi - lo) / 2 - 0.97998199) < 1e-6


def test_normal_quantile_matches_ndtri():
    p = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 2001), np.geomspace(1e-300, 0.4, 200),
                        [0.95, 0.975, 0.995]])
    p = p[p != 0.5]
    got = np.array([NormalDist().inv_cdf(float(x)) for x in p])
    assert np.all(np.abs(got - ndtri(p)) <= 2e-15 * np.abs(ndtri(p)))
    assert NormalDist().inv_cdf(0.5) == ndtri(0.5) == 0.0


def test_wald_poisson_bound_identity():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 2))
    S = m @ m.T + 0.5 * np.eye(2)
    rep = wald_report(np.zeros(2), S, S, 1.0)
    assert np.allclose(rep.se, np.sqrt(np.diag(np.linalg.inv(S))), rtol=1e-12)


def test_sandwich_symmetric_psd(fitted_instance):
    S, Sigma = _sandwich(fitted_instance, np.array([0.3]),
                         PcfModel(sigma2=0.2, phi=0.2))
    s_inv = np.linalg.inv(S)
    cov = s_inv @ Sigma @ s_inv
    assert np.allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() > 0
