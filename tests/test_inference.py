import math
import warnings

import numpy as np
import pytest

from helpers import intensity_surface, k_function

from ppcf.errors import InsufficientPointsError, SingularSensitivityError
from ppcf.fields import GridField, GrfSpec, make_window, simulate_grf
from ppcf.inference import (
    PcfModel,
    _k_model,
    estimate_pcf,
    lfd_values,
    pcf_correction,
    semi_sandwich_terms,
    wald_report,
)
from ppcf.model import QuadratureScheme, build_quadrature, log_linear_model
from ppcf.nuisance import KernelSpec, NuisanceFit
from ppcf.process import PointPattern, constant_surface, simulate_lgcp, simulate_poisson

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

W1 = make_window(0, 0, 1, 1)


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
    spec = log_linear_model([y], [z])
    eta = lambda Z: math.log(300.0) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=73)
    quad = build_quadrature(pattern, 32)
    nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, 0.45))
    return spec, pattern, quad, nf, eta


def _sandwich(instance, theta, pcf):
    """(S, Sigma) from the semi-path sandwich terms and one PCF double sum."""
    spec, pattern, quad, nf, eta = instance
    S, a = semi_sandwich_terms(spec, theta, eta, lambda Z: lfd_values(nf, theta, Z), quad)
    return S, S + pcf_correction(quad, a, pcf)


# -- least favorable direction ----------------------------------------------------


def test_lfd_constant_y():
    spec = log_linear_model([_const_field(W1, 1.7)], [_const_field(W1, 0.5)])
    pattern = simulate_poisson(constant_surface(W1, 80.0), seed=2)
    quad = build_quadrature(pattern, 16)
    nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, 0.8))
    nu = lfd_values(nf, np.array([0.2]), [0.5])[0]
    assert np.allclose(nu, [-1.7], atol=1e-12)


def test_lfd_zero_theta_is_kernel_mean(fitted_instance):
    spec, pattern, quad, nf, eta = fitted_instance
    z = np.array([0.2])
    nu = nf.exact(np.zeros(1), z, 1)[1][0]
    k_nodes = nf.kernel.product(nf._Zs_nodes - nf.standardize(z)[0])
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
            nf = NuisanceFit(spec, pattern, quad, nf.kernel)
            nf.eta_range = (top - 20.0, top)
    else:
        from test_model import make_general_spec
        window = make_window(0, 0, 4, 4)
        if case == "general":
            spec = make_general_spec(window)
        else:
            z = [simulate_grf(window, 24, 24, GrfSpec(1.0, 0.5), seed=s) for s in (75, 76)]
            spec = log_linear_model([simulate_grf(window, 24, 24, GrfSpec(1.0, 0.5), seed=74)], z)
        pattern = simulate_poisson(constant_surface(window, 4.0), seed=21)
        quad = build_quadrature(pattern, 16)
        nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, 0.45))
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
    spec = log_linear_model([_const_field(W1, 1.7)], [_const_field(W1, 0.5)])
    pattern = simulate_poisson(constant_surface(W1, 80.0), seed=3)
    quad = build_quadrature(pattern, 16)
    eta = lambda Z: np.full(Z.shape[0], 4.0)
    nu = lambda Z: np.full((Z.shape[0], 1), -1.7)
    S, _ = semi_sandwich_terms(spec, np.array([0.0]), eta, nu, quad)
    assert np.allclose(S, 0.0, atol=1e-12)
    with pytest.raises(SingularSensitivityError):
        wald_report(np.array([0.0]), S, S, 1.0)


def test_sensitivity_linear_x_integral():
    c = 50.0
    spec = log_linear_model([_linear_x_field(W1)], [_const_field(W1, 0.5)])
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
    w2 = make_window(0, 0, 2, 2)
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
    spec1 = log_linear_model([f1], [_const_field(W1, 0.0)])
    spec2 = log_linear_model([f2], [GridField(w2, 9, 9, np.zeros((9, 9)))])
    s1 = semi_sandwich_terms(spec1, np.array([0.25]), eta, nu,
                             build_quadrature(PointPattern(W1, np.empty((0, 2))), 32))[0][0, 0]
    s2 = semi_sandwich_terms(spec2, np.array([0.25]), eta, nu,
                             build_quadrature(PointPattern(w2, np.empty((0, 2))), 64))[0][0, 0]
    assert abs(s2 - 4.0 * s1) < 1e-8 * abs(s2)


# -- covariance and the PCF double sum ------------------------------------------------


def test_covariance_equals_sensitivity_for_poisson(fitted_instance):
    theta = np.array([0.3])
    S, Sigma = _sandwich(fitted_instance, theta, PcfModel("poisson"))
    assert np.allclose(Sigma, S, rtol=1e-12, atol=0)
    _, Sigma0 = _sandwich(fitted_instance, theta,
                          PcfModel("lgcp-exponential", sigma2=0.0, phi=0.2))
    assert np.allclose(Sigma0, S, rtol=1e-12, atol=0)


def test_pcf_correction_matches_brute_force_truncated():
    rng = np.random.default_rng(9)
    pattern = PointPattern(W1, rng.uniform(0, 1, size=(30, 2)))
    quad = build_quadrature(pattern, 8)
    a = rng.normal(size=(quad.m(), 2))
    pcf = PcfModel("lgcp-exponential", sigma2=0.4, phi=0.07)
    fast = pcf_correction(quad, a, pcf)
    brute = pcf_double_sum_brute(quad, a, pcf, truncated=True)
    assert np.allclose(fast, brute, rtol=1e-9, atol=1e-12)


def _offset_window_points():
    """Corners, edge points and lattice centres of an offset, non-square window
    (grid 12), then 60 random points."""
    window = make_window(-1.0, 2.0, 2.0, 3.5)
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
@pytest.mark.parametrize("phi", [0.02, 0.005])       # r_trunc 0.27 and 0.068 (cells 0.25 x 0.125)
def test_pcf_correction_pruned_sum_edge_cases(k, n_data, phi):
    window, points = _offset_window_points()
    quad = build_quadrature(PointPattern(window, points[:n_data]), 12)
    pcf = PcfModel("lgcp-exponential", sigma2=0.8, phi=phi)
    assert pcf.truncation_radius(window) < 0.2 * window.height     # pruning active
    a = np.random.default_rng(n_data + k).normal(size=(quad.m(), k))
    fast = pcf_correction(quad, a, pcf)
    brute = pcf_double_sum_brute(quad, a, pcf, truncated=True)
    assert np.allclose(fast, brute, rtol=1e-9, atol=1e-12)


def test_pcf_correction_keeps_pairs_at_exactly_r_trunc():
    # r_trunc hits its cap of half the window side, 4.0; each data node lies
    # exactly 4.0 from lattice centres in the outermost row or column of its box
    window = make_window(0.0, 0.0, 8.0, 8.0)
    pcf = PcfModel("lgcp-exponential", sigma2=1.0, phi=2.0)
    assert pcf.truncation_radius(window) == 4.0
    quad = build_quadrature(PointPattern(window, np.array([[4.5, 0.5], [3.5, 7.5]])), 8)
    a = np.random.default_rng(3).normal(size=(quad.m(), 2))
    fast = pcf_correction(quad, a, pcf)
    brute = pcf_double_sum_brute(quad, a, pcf, truncated=True)
    assert np.allclose(fast, brute, rtol=1e-9, atol=1e-12)


def test_loewner_order_for_clustering_pcf(fitted_instance):
    S, Sigma = _sandwich(fitted_instance, np.array([0.3]),
                         PcfModel("lgcp-exponential", sigma2=0.3, phi=0.1))
    eigs = np.linalg.eigvalsh(Sigma - S)
    assert eigs.min() >= -1e-8 * np.trace(S)


# -- PCF estimation -------------------------------------------------------------------


def test_k_model_poisson_is_pi_r_squared():
    model = PcfModel("lgcp-exponential", sigma2=0.0, phi=0.3)
    r = np.linspace(0.01, 0.4, 7)
    assert np.allclose(_k_model(r)(model), math.pi * r ** 2, rtol=1e-12)
    assert np.allclose(PcfModel("poisson").pcf(r), 1.0)


@pytest.mark.parametrize("side", [1.0, 2.0])
def test_contrast_k_model_is_the_k_function_bit_for_bit(side):
    # the contrast builds its s-grid once per fit; every model's K on it is the
    # K-function of the model on its own 513-point grid, to the last bit
    r_grid = np.linspace(0.0, 0.25 * side, 65)[1:]
    k_model = _k_model(r_grid)
    for sigma2, phi in [(0.0, 0.1), (1e-7, 0.2), (0.2, 0.2), (np.float64(1.37), 0.011),
                        (0.5, 25.0)]:
        model = PcfModel("lgcp-exponential", sigma2, phi)
        assert np.array_equal(k_model(model), k_function(model, r_grid, n_steps=513))
    assert np.array_equal(k_model(PcfModel("poisson")), math.pi * r_grid ** 2)


def test_estimate_pcf_requires_points():
    pattern = PointPattern(W1, np.array([[0.5, 0.5]]))
    with pytest.raises(InsufficientPointsError):
        estimate_pcf(pattern, lambda pts: np.ones(pts.shape[0]))


def test_estimate_pcf_poisson_null():
    lam = 300.0
    sig2 = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in range(200):
            pattern = simulate_poisson(constant_surface(W1, lam), seed=s)
            model = estimate_pcf(pattern, lambda pts: np.full(pts.shape[0], lam))
            sig2.append(model.sigma2)
    assert np.median(sig2) <= 0.02


def test_estimate_pcf_recovers_lgcp_parameters():
    w2 = make_window(0, 0, 2, 2)
    base = constant_surface(w2, 400.0 * math.exp(2.0 / 0.2 - 0.1))
    spec = GrfSpec(0.2, 0.2)
    sig2, phi = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in range(150):
            pattern = simulate_lgcp(base, spec, 128, 128, seed=5_000 + s)
            model = estimate_pcf(pattern, lambda pts: np.full(pts.shape[0], 400.0))
            sig2.append(model.sigma2)
            phi.append(model.phi if model.family != "poisson" else 0.0)
    assert 0.1 <= np.median(sig2) <= 0.3
    assert 0.1 <= np.median(phi) <= 0.3


# -- Wald reports ---------------------------------------------------------------------


def test_wald_scalar_arithmetic():
    rep = wald_report(np.array([0.3]), np.array([[4.0]]), np.array([[4.0]]), 1.0)
    assert abs(rep.se[0] - 0.5) < 1e-12
    lo, hi = rep.ci[0.95][0]
    assert abs((hi - lo) / 2 - 0.97998199) < 1e-6


def test_wald_poisson_bound_identity():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 2))
    S = m @ m.T + 0.5 * np.eye(2)
    rep = wald_report(np.zeros(2), S, S, 1.0)
    assert np.allclose(rep.se, np.sqrt(np.diag(np.linalg.inv(S))), rtol=1e-12)


def test_sandwich_symmetric_psd(fitted_instance):
    S, Sigma = _sandwich(fitted_instance, np.array([0.3]),
                         PcfModel("lgcp-exponential", sigma2=0.2, phi=0.2))
    s_inv = np.linalg.inv(S)
    cov = s_inv @ Sigma @ s_inv
    assert np.allclose(cov, cov.T, atol=1e-12)
    assert np.linalg.eigvalsh(cov).min() > 0
