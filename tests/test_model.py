import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import intensity_surface

from ppcf.errors import NonpositiveIntensityError
from ppcf.fields import GridField, GrfSpec, make_window, simulate_grf  # noqa: F401
from ppcf.model import (
    LinkFunctions,
    LogisticScheme,
    build_logistic_scheme,
    build_quadrature,
    fit_parametric_baseline_full,
    general_model,
    log_linear_model,
    profile_maximize,
    pseudo_likelihood,
)
from ppcf.process import PointPattern, constant_surface, simulate_poisson

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

W1 = make_window(0, 0, 1, 1)


class FixedCurve:
    """A theta-independent nuisance curve z -> eta (zero theta-derivatives)."""

    def __init__(self, fn, k: int):
        self.fn = fn
        self.k = k

    def eta_at(self, theta, Z):
        return np.asarray(self.fn(np.asarray(Z, dtype=float)), dtype=float)

    def eta_all(self, theta, Z):
        g = self.eta_at(theta, Z)
        n = g.shape[0]
        return g, np.zeros((n, self.k)), np.zeros((n, self.k, self.k))


def objective_value(spec, theta, eta, scheme, scale=1.0):
    """The production objective at theta for a plain z -> eta function."""
    value, _ = pseudo_likelihood(spec, FixedCurve(eta, spec.k), scheme, scale)
    return value(np.asarray(theta, dtype=float))


def score_hessian(spec, theta, curve, scheme, scale=1.0):
    _, score_hess = pseudo_likelihood(spec, curve, scheme, scale)
    return score_hess(np.asarray(theta, dtype=float))


def _const_field(window, value, n=9):
    return GridField(window, n, n, np.full((n, n), float(value)))


@pytest.fixture(scope="module")
def zero_y_model():
    """y identically zero: intensity depends on eta only."""
    return log_linear_model([_const_field(W1, 0.0)], [_const_field(W1, 1.0)])


# -- quadrature -----------------------------------------------------------


def test_quadrature_pure_grid():
    pat = PointPattern(W1, np.empty((0, 2)))
    quad = build_quadrature(pat, 4)
    assert quad.m() == 16
    assert np.allclose(quad.weights, 1.0 / 16)
    assert not quad.is_data.any()


def test_quadrature_with_one_point():
    pat = PointPattern(W1, np.array([[0.51, 0.52]]))
    quad = build_quadrature(pat, 4)
    assert quad.m() == 17
    assert abs(quad.weights.sum() - 1.0) < 1e-12
    assert quad.is_data.sum() == 1


def test_quadrature_cellmates_share_weight():
    rng = np.random.default_rng(8)
    pat = PointPattern(W1, rng.uniform(0, 1, size=(37, 2)))
    quad = build_quadrature(pat, 5)
    cx = np.clip((quad.nodes[:, 0] * 5).astype(int), 0, 4)
    cy = np.clip((quad.nodes[:, 1] * 5).astype(int), 0, 4)
    cell = cy * 5 + cx
    for c in np.unique(cell):
        w = quad.weights[cell == c]
        assert np.allclose(w, w[0])
        assert abs(w.sum() - 1.0 / 25) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 24), st.integers(0, 300), st.integers(0, 10_000))
def test_quadrature_weights_sum_to_area(grid_n, n_pts, seed):
    rng = np.random.default_rng(seed)
    w = make_window(0, 0, 2, 1.5)
    pat = PointPattern(w, rng.uniform([0, 0], [2, 1.5], size=(n_pts, 2)))
    quad = build_quadrature(pat, grid_n)
    assert abs(quad.weights.sum() - w.area()) <= 1e-9 * w.area()
    assert quad.is_data.sum() == n_pts


# -- pseudo-log-likelihood ---------------------------------------------------


def test_homogeneous_closed_form(zero_y_model):
    c = 37.0
    pat = simulate_poisson(constant_surface(W1, c), seed=3)
    quad = build_quadrature(pat, 8)
    eta = lambda Z: np.full(Z.shape[0], math.log(c))
    val = objective_value(zero_y_model, [0.0], eta, quad)
    assert abs(val - (pat.count() * math.log(c) - c * W1.area())) < 1e-9


def test_scale_shifts_value_predictably(small_model, small_pattern):
    quad = build_quadrature(small_pattern, 16)
    eta = lambda Z: np.full(Z.shape[0], math.log(150.0))
    theta = np.array([0.2])
    l1 = objective_value(small_model, theta, eta, quad, 1.0)
    l_half = objective_value(small_model, theta, eta, quad, 0.5)
    _, Z = small_model.covariates_at(quad.nodes)
    Y, _ = small_model.covariates_at(quad.nodes)
    lam = small_model.lambda_values(theta, Y, eta(Z))
    expected = l1 + small_pattern.count() * math.log(0.5) + 0.5 * float(quad.weights @ lam)
    assert abs(l_half - expected) < 1e-8


def test_scale_invariance_with_free_intercept(small_pattern, small_model):
    # an intercept direction in y absorbs the thinning factor exactly: the
    # remaining components of the maximizer are identical across scales
    intercept = GridField(W1, 9, 9, np.ones((9, 9)))
    spec2 = log_linear_model([intercept, small_model.target_fields[0]],
                             [small_model.nuisance_fields[0]])
    quad = build_quadrature(small_pattern, 16)
    curve = FixedCurve(lambda Z: 0.3 * Z[:, 0], k=2)
    t1 = profile_maximize(spec2, curve, quad, 1.0, np.zeros(2))
    t2 = profile_maximize(spec2, curve, quad, 0.5, np.zeros(2))
    assert abs(t1[1] - t2[1]) < 1e-6
    assert abs((t2[0] - t1[0]) - math.log(2.0)) < 1e-6


def test_scale_invariance_along_fitted_profile(small_model, small_pattern):
    # the kernel curve re-fits a free constant per theta, so the profile
    # maximizer is scale invariant up to kernel smoothing error
    from ppcf.nuisance import KernelSpec, NuisanceFit
    quad = build_quadrature(small_pattern, 16)
    nf = NuisanceFit(small_model, small_pattern, quad, KernelSpec(2, 0.45))
    t1 = profile_maximize(small_model, nf, quad, 1.0, np.zeros(1))
    t2 = profile_maximize(small_model, nf, quad, 0.5, np.zeros(1))
    assert abs(t1[0] - t2[0]) < 0.01


def test_nonpositive_intensity_error(zero_y_model):
    # the line search sees -inf; the score path raises
    pat = PointPattern(W1, np.array([[0.5, 0.5]]))
    quad = build_quadrature(pat, 4)
    eta = lambda Z: np.full(Z.shape[0], -np.inf)
    assert objective_value(zero_y_model, [0.0], eta, quad) == -np.inf
    with pytest.raises(NonpositiveIntensityError):
        score_hessian(zero_y_model, [0.0], FixedCurve(eta, 1), quad)


def test_quadrature_refinement_converges(small_model, small_pattern):
    eta = lambda Z: math.log(150.0) + 0.3 * Z[:, 0]
    theta = np.array([0.3])
    ref = objective_value(small_model, theta, eta, build_quadrature(small_pattern, 64))
    gaps = [abs(objective_value(small_model, theta, eta, build_quadrature(small_pattern, g))
                - ref)
            for g in (8, 16, 32)]
    assert gaps[0] > gaps[1] > gaps[2]


# -- derivatives ---------------------------------------------------------------


def _fd_score(spec, curve, scheme, scale, theta, step=1e-5):
    value, _ = pseudo_likelihood(spec, curve, scheme, scale)
    k = theta.shape[0]
    out = np.empty(k)
    for i in range(k):
        e = np.zeros(k)
        e[i] = step
        out[i] = (value(theta + e) - value(theta - e)) / (2 * step)
    return out


def _fd_hessian(spec, curve, scheme, scale, theta, step=1e-5):
    return (score_hessian(spec, theta + step, curve, scheme, scale)[0]
            - score_hessian(spec, theta - step, curve, scheme, scale)[0]) / (2 * step)


def test_score_matches_fd_log_linear(small_model, small_pattern):
    quad = build_quadrature(small_pattern, 12)
    curve = FixedCurve(lambda Z: math.log(150.0) + 0.2 * Z[:, 0] - 0.1 * Z[:, 0] ** 2, k=1)
    theta = np.array([0.17])
    s, h = score_hessian(small_model, theta, curve, quad)
    fd = _fd_score(small_model, curve, quad, 1.0, theta)
    assert np.allclose(s, fd, rtol=1e-6, atol=1e-6)
    fd_h = _fd_hessian(small_model, curve, quad, 1.0, theta)
    assert np.allclose(h[0, 0], fd_h[0], rtol=1e-5, atol=1e-6)


def _softplus_link():
    s = lambda t, g: np.logaddexp(t, g)
    e = lambda t, g: np.exp(t - np.logaddexp(t, g))

    def psi(t, g):
        return np.logaddexp(t, g) + 0.1

    def dt(t, g):
        return np.exp(t - np.logaddexp(t, g))

    def dg(t, g):
        return np.exp(g - np.logaddexp(t, g))

    def dtt(t, g):
        p = np.exp(t - np.logaddexp(t, g))
        return p * (1 - p)

    def dtg(t, g):
        p = np.exp(t - np.logaddexp(t, g))
        return -p * (1 - p)

    def dgg(t, g):
        p = np.exp(g - np.logaddexp(t, g))
        return p * (1 - p)

    return LinkFunctions(psi, dt, dg, dtt, dtg, dgg)


def make_general_spec(window=W1, link=None, tau_grad=None):
    """Softplus link with a quadratic tau over two 24 x 24 random fields on ``window``;
    ``link`` and ``tau_grad``, when given, replace the link and tau's gradient."""
    y_field = simulate_grf(window, 24, 24, GrfSpec(1.0, 0.2), seed=31)
    z_field = simulate_grf(window, 24, 24, GrfSpec(1.0, 0.2), seed=32)

    def tau(theta, Y):
        lin = Y @ theta
        return lin + 0.1 * lin ** 2

    def true_tau_grad(theta, Y):
        lin = Y @ theta
        return Y * (1 + 0.2 * lin)[:, None]

    def tau_hess(theta, Y):
        return 0.2 * Y[:, :, None] * Y[:, None, :]

    return general_model([y_field], [z_field], tau, tau_grad or true_tau_grad, tau_hess,
                         link or _softplus_link())


@pytest.fixture(scope="module")
def general_spec():
    return make_general_spec()


def test_general_link_derivatives_checked_by_finite_differences():
    assert make_general_spec().link == "general"
    # dPsi/dg given as dPsi/dt, and tau's gradient without its quadratic term
    wrong_link = replace(_softplus_link(), dpsi_dg=lambda t, g: np.exp(t - np.logaddexp(t, g)))
    with pytest.raises(ValueError, match="disagrees with finite differences"):
        make_general_spec(link=wrong_link)
    with pytest.raises(ValueError, match="disagrees with finite differences"):
        make_general_spec(tau_grad=lambda theta, Y: np.asarray(Y, dtype=float))


def test_score_matches_fd_general_link(general_spec):
    rng = np.random.default_rng(44)
    pat = PointPattern(W1, rng.uniform(0, 1, size=(40, 2)))
    quad = build_quadrature(pat, 8)
    curve = FixedCurve(lambda Z: 2.0 + 0.5 * Z[:, 0], k=1)
    theta = np.array([0.4])
    s, h = score_hessian(general_spec, theta, curve, quad)
    fd = _fd_score(general_spec, curve, quad, 1.0, theta)
    assert np.allclose(s, fd, rtol=1e-5, atol=1e-7)
    fd_h = _fd_hessian(general_spec, curve, quad, 1.0, theta)
    assert np.allclose(h[0, 0], fd_h[0], rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("link", ["log-linear", "general"])
def test_logistic_score_hessian_match_fd(link, small_model, general_spec):
    spec = small_model if link == "log-linear" else general_spec
    rng = np.random.default_rng(46)
    n_data, n_dummy = 40, 60
    nodes = rng.uniform(0, 1, size=(n_data + n_dummy, 2))
    scheme = LogisticScheme(W1, nodes, np.arange(n_data + n_dummy) < n_data, 60.0)
    curve = FixedCurve(lambda Z: 2.0 + 0.5 * Z[:, 0], k=1)
    theta = np.array([0.4])
    s, h = score_hessian(spec, theta, curve, scheme)
    fd = _fd_score(spec, curve, scheme, 1.0, theta)
    assert np.allclose(s, fd, rtol=1e-5, atol=1e-7)
    fd_h = _fd_hessian(spec, curve, scheme, 1.0, theta)
    assert np.allclose(h[0, 0], fd_h[0], rtol=1e-4, atol=1e-6)


def test_score_at_maximum_is_small(small_model, small_pattern):
    quad = build_quadrature(small_pattern, 16)
    curve = FixedCurve(lambda Z: math.log(150.0) + 0.3 * Z[:, 0], k=1)
    theta = profile_maximize(small_model, curve, quad, 1.0, np.zeros(1))
    s, _ = score_hessian(small_model, theta, curve, quad)
    assert np.linalg.norm(s) <= 1e-6 * W1.area()


# -- profile optimizer ----------------------------------------------------------


@pytest.mark.parametrize("curve", ["fixed", "fitted"])
def test_newton_never_revalues_the_accepted_point(curve, small_model, small_pattern):
    # the line search hands its accepted value on, so the objective is never
    # evaluated twice in a row at the same theta; the iterates are unchanged
    from ppcf.model import _newton_maximize
    from ppcf.nuisance import KernelSpec, NuisanceFit
    quad = build_quadrature(small_pattern, 16)
    if curve == "fixed":
        eta_curve = FixedCurve(lambda Z: math.log(150.0) + 0.3 * Z[:, 0], k=1)
    else:
        eta_curve = NuisanceFit(small_model, small_pattern, quad, KernelSpec(2, 0.45))
    value, score_hess = pseudo_likelihood(small_model, eta_curve, quad, 1.0)
    seen = []

    def counting_value(theta):
        seen.append(np.array(theta, copy=True))
        return value(theta)

    theta = _newton_maximize(counting_value, score_hess, np.zeros(1), W1.area())
    assert len(seen) >= 2
    assert all(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
    assert np.array_equal(theta, profile_maximize(small_model, eta_curve, quad, 1.0,
                                                  np.zeros(1)))


def test_profile_recovers_truth_with_oracle_curve_w2():
    w2 = make_window(0, 0, 2, 2)
    spec_grf = GrfSpec(1.0, 0.05)
    estimates = []
    for s in range(200):
        y = simulate_grf(w2, 256, 256, spec_grf, seed=9000 + 2 * s)
        z = simulate_grf(w2, 256, 256, spec_grf, seed=9001 + 2 * s)
        spec = log_linear_model([y], [z])
        eta = lambda Z: math.log(400.0) + 0.3 * Z[:, 0]
        surface = intensity_surface(spec, np.array([0.3]), eta)
        pat = simulate_poisson(surface, seed=17_000 + s)
        # quadrature cells must resolve the phi = 0.05 covariate wiggles
        quad = build_quadrature(pat, 96)
        curve = FixedCurve(eta, k=1)
        estimates.append(profile_maximize(spec, curve, quad, 1.0, np.zeros(1))[0])
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - 0.3) <= 3 * se


def test_profile_null_effect():
    estimates = []
    for s in range(120):
        y = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seed=40_000 + 2 * s)
        z = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seed=40_001 + 2 * s)
        spec = log_linear_model([y], [z])
        eta = lambda Z: math.log(300.0) + 0.3 * Z[:, 0]
        # intensity ignores y entirely
        surface = intensity_surface(spec, np.array([0.0]), eta)
        pat = simulate_poisson(surface, seed=60_000 + s)
        quad = build_quadrature(pat, 32)
        estimates.append(profile_maximize(spec, FixedCurve(eta, k=1), quad, 1.0,
                                          np.zeros(1))[0])
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean()) <= 3 * se


def test_golden_grid_scan_brackets_newton_solution(small_model, small_pattern):
    quad = build_quadrature(small_pattern, 16)
    curve = FixedCurve(lambda Z: math.log(150.0) + 0.3 * Z[:, 0], k=1)
    theta = profile_maximize(small_model, curve, quad, 1.0, np.zeros(1))[0]
    grid = np.arange(theta - 0.002, theta + 0.002, 1e-4)
    value, _ = pseudo_likelihood(small_model, curve, quad, 1.0)
    vals = [value(np.array([t])) for t in grid]
    best = grid[int(np.argmax(vals))]
    assert abs(best - theta) <= 1e-4


# -- logistic approximation -------------------------------------------------------


def test_logistic_balanced_odds(zero_y_model):
    rho = 55.0
    pat = simulate_poisson(constant_surface(W1, rho), seed=5)
    scheme = build_logistic_scheme(pat, rho, seed=6)
    eta = lambda Z: np.full(Z.shape[0], math.log(rho))
    val = objective_value(zero_y_model, [0.0], eta, scheme)
    expected = scheme.nodes.shape[0] * math.log(0.5)
    assert abs(val - expected) < 1e-9


def test_logistic_zero_intensity_at_data_raises(zero_y_model):
    # the line search sees -inf; the score path raises
    scheme = LogisticScheme(W1, np.array([[0.25, 0.25], [0.5, 0.5]]),
                            np.array([False, True]), 1.0)
    eta = lambda Z: np.full(Z.shape[0], -np.inf)
    assert objective_value(zero_y_model, [0.0], eta, scheme) == -np.inf
    with pytest.raises(NonpositiveIntensityError):
        score_hessian(zero_y_model, [0.0], FixedCurve(eta, 1), scheme)


def test_logistic_approaches_quadrature_for_large_rho(small_model, small_pattern):
    curve = FixedCurve(lambda Z: math.log(150.0) + 0.3 * Z[:, 0], k=1)
    quad = build_quadrature(small_pattern, 32)
    theta_quad = profile_maximize(small_model, curve, quad, 1.0, np.zeros(1))[0]
    n = small_pattern.count()
    gaps = []
    for mult, seed in ((4.0, 71), (40.0, 72)):
        scheme = build_logistic_scheme(small_pattern, mult * n / W1.area(), seed=seed)
        t = profile_maximize(small_model, curve, scheme, 1.0, np.zeros(1))[0]
        gaps.append(abs(t - theta_quad))
    assert gaps[1] < 1e-2


# -- parametric baselines -----------------------------------------------------------


def test_baseline_linear_agrees_with_crossfit_when_truth_linear():
    from ppcf.crossfit import CrossFitConfig, cross_fit
    diffs = []
    for s in range(30):
        y = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seed=80_000 + 2 * s)
        z = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seed=80_001 + 2 * s)
        spec = log_linear_model([y], [z])
        eta = lambda Z: math.log(400.0) + 0.3 * Z[:, 0]
        surface = intensity_surface(spec, np.array([0.3]), eta)
        pat = simulate_poisson(surface, seed=90_000 + s)
        quad = build_quadrature(pat, 32)
        theta_para = fit_parametric_baseline_full(spec, pat, quad, "linear").theta[0]
        res = cross_fit(spec, pat, CrossFitConfig(grid_n=32, bandwidth_c0=0.45), s)
        diffs.append(theta_para - res.theta_hat[0])
    diffs = np.array(diffs)
    # paired on the same patterns; "agree" means the systematic gap is a small
    # fraction of the sampling SD of either estimator (~0.047 here)
    assert abs(diffs.mean()) <= 0.015
    assert np.std(diffs) <= 0.03


def test_baseline_oracle_exact_offset(small_model, small_pattern):
    eta = lambda Z: math.log(150.0) + 0.3 * Z[:, 0]
    quad = build_quadrature(small_pattern, 24)
    theta = fit_parametric_baseline_full(small_model, small_pattern, quad, ("oracle", eta)).theta
    assert theta.shape == (1,)
    assert abs(theta[0] - 0.3) < 0.25


def test_baseline_oracle_matches_profile_with_fixed_curve(small_model, small_pattern):
    # one node loss: the oracle design fit and the profile fit along the fixed
    # curve maximize the same quadrature objective
    eta = lambda Z: math.log(150.0) + 0.3 * Z[:, 0] - 0.05 * Z[:, 0] ** 2
    quad = build_quadrature(small_pattern, 24)
    oracle = fit_parametric_baseline_full(small_model, small_pattern, quad, ("oracle", eta))
    profile = profile_maximize(small_model, FixedCurve(eta, k=1), quad, 1.0, np.zeros(1))
    assert np.allclose(oracle.theta, profile, rtol=0, atol=1e-8)
