import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from helpers import intensity_surface

import ppcf.model
from ppcf.errors import NonpositiveIntensityError
from ppcf.fields import GridField, GrfSpec, Window, simulate_grf  # noqa: F401
from ppcf.model import (
    LOG_LINEAR,
    Link,
    LogisticScheme,
    ModelSpec,
    _cholesky_solve,
    _newton_maximize,
    build_logistic_scheme,
    build_quadrature,
    fit_parametric_baseline_full,
    profile_maximize,
    pseudo_likelihood,
)
from ppcf.process import PointPattern, constant_surface, fold, simulate_poisson, v_fold_thin

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

W1 = Window(0, 0, 1, 1)


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
    evaluate = pseudo_likelihood(spec, FixedCurve(eta, spec.k), scheme, scale)
    return evaluate(np.asarray(theta, dtype=float))[0]


def score_hessian(spec, theta, curve, scheme, scale=1.0):
    return pseudo_likelihood(spec, curve, scheme, scale)(np.asarray(theta, dtype=float))[1:]


def _const_field(window, value, n=9):
    return GridField(window, n, n, np.full((n, n), float(value)))


@pytest.fixture(scope="module")
def zero_y_model():
    """y identically zero: intensity depends on eta only."""
    return ModelSpec([_const_field(W1, 0.0)], [_const_field(W1, 1.0)])


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
    w = Window(0, 0, 2, 1.5)
    pat = PointPattern(w, rng.uniform([0, 0], [2, 1.5], size=(n_pts, 2)))
    quad = build_quadrature(pat, grid_n)
    assert abs(quad.weights.sum() - w.area()) <= 1e-9 * w.area()
    assert quad.is_data.sum() == n_pts


def test_scheme_covariates_equal_a_direct_read(small_pattern):
    # a fresh spec, so the first quadrature fills the lattice memo and later
    # ones on the same window and grid_n read it
    spec = ModelSpec([simulate_grf(W1, 48, 48, GrfSpec(1.0, 0.2), seed=101)],
                     [simulate_grf(W1, 48, 48, GrfSpec(1.0, 0.2), seed=202)])
    marked = v_fold_thin(small_pattern, 2, seed=3)
    sub = Window(0.25, 0.1, 0.75, 0.9)
    inside = sub.contains(small_pattern.points[:, 0], small_pattern.points[:, 1])
    schemes = [
        build_quadrature(small_pattern, 32),                      # fills the memo
        build_quadrature(fold(marked, 1), 32),                    # reads it
        build_quadrature(small_pattern, 16),                      # a second grid_n
        build_logistic_scheme(small_pattern, 400.0, seed=5),
        build_quadrature(PointPattern(sub, small_pattern.points[inside]), 32),
    ]
    for scheme in schemes:
        got, want = spec.scheme_covariates(scheme), spec.covariates_at(scheme.nodes)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


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
    spec2 = ModelSpec([intercept, small_model.target_fields[0]],
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
    nf = NuisanceFit(small_model, quad, KernelSpec(2, 0.45))
    t1 = profile_maximize(small_model, nf, quad, 1.0, np.zeros(1))
    t2 = profile_maximize(small_model, nf, quad, 0.5, np.zeros(1))
    assert abs(t1[0] - t2[0]) < 0.01


def test_nonpositive_intensity_error(zero_y_model):
    # the objective is -inf; a fit that starts there raises
    pat = PointPattern(W1, np.array([[0.5, 0.5]]))
    quad = build_quadrature(pat, 4)
    eta = lambda Z: np.full(Z.shape[0], -np.inf)
    assert objective_value(zero_y_model, [0.0], eta, quad) == -np.inf
    with pytest.raises(NonpositiveIntensityError):
        profile_maximize(zero_y_model, FixedCurve(eta, 1), quad, 1.0, np.zeros(1))


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
    evaluate = pseudo_likelihood(spec, curve, scheme, scale)
    k = theta.shape[0]
    out = np.empty(k)
    for i in range(k):
        e = np.zeros(k)
        e[i] = step
        out[i] = (evaluate(theta + e)[0] - evaluate(theta - e)[0]) / (2 * step)
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
    """Quadratic tau_theta(y) = l + 0.1 l^2, l = theta . y, and the softplus
    Psi(t, g) = log(e^t + e^g) + 0.1, with their derivatives."""

    def tau(theta, Y):
        lin = Y @ theta
        return lin + 0.1 * lin ** 2

    def tau_grad(theta, Y):
        lin = Y @ theta
        return Y * (1 + 0.2 * lin)[:, None]

    def tau_hess(theta, Y):
        return 0.2 * Y[:, :, None] * Y[:, None, :]

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

    return Link(tau, tau_grad, tau_hess, psi, dt, dg, dtt, dtg, dgg)


def make_general_spec(window=W1, link=None):
    """The softplus link over two 24 x 24 random fields on ``window``, or ``link``
    when given."""
    y_field = simulate_grf(window, 24, 24, GrfSpec(1.0, 0.2), seed=31)
    z_field = simulate_grf(window, 24, 24, GrfSpec(1.0, 0.2), seed=32)
    return ModelSpec([y_field], [z_field], link or _softplus_link())


@pytest.fixture(scope="module")
def general_spec():
    return make_general_spec()


def test_general_link_derivatives_checked_by_finite_differences():
    assert not make_general_spec().log_linear
    # dPsi/dg given as dPsi/dt, and tau's gradient without its quadratic term
    wrong_link = replace(_softplus_link(), dpsi_dg=lambda t, g: np.exp(t - np.logaddexp(t, g)))
    with pytest.raises(ValueError, match="disagrees with finite differences"):
        make_general_spec(link=wrong_link)
    wrong_link = replace(_softplus_link(), tau_grad=lambda theta, Y: np.asarray(Y, dtype=float))
    with pytest.raises(ValueError, match="disagrees with finite differences"):
        make_general_spec(link=wrong_link)


@pytest.mark.parametrize("name", [f.name for f in fields(Link)])
def test_every_link_field_checked_by_finite_differences(name):
    link = _softplus_link()
    doubled = lambda *args, _f=getattr(link, name): 2 * _f(*args)
    with pytest.raises(ValueError, match="disagrees with finite differences"):
        make_general_spec(link=replace(link, **{name: doubled}))


def test_default_link_is_log_linear_and_unchecked(monkeypatch):
    def check(self):
        raise AssertionError("link checked")

    monkeypatch.setattr(ModelSpec, "_validate_derivatives", check)
    y, z = _const_field(W1, 0.0), _const_field(W1, 1.0)
    spec = ModelSpec([y], [z])
    assert spec.link is LOG_LINEAR and spec.log_linear
    # an equal-valued copy of the link takes the general paths, checked
    with pytest.raises(AssertionError, match="link checked"):
        ModelSpec([y], [z], replace(LOG_LINEAR))


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


class RecordingCurve:
    """Forwards ``eta_all`` to a curve and records each theta; ``eta_at`` fails."""

    def __init__(self, curve):
        self.curve = curve
        self.seen = []

    def eta_all(self, theta, Z):
        self.seen.append(np.array(theta, copy=True))
        return self.curve.eta_all(theta, Z)

    def eta_at(self, theta, Z):
        raise AssertionError("value-only curve evaluation inside the profile fit")


@pytest.mark.parametrize("curve", ["fixed", "fitted"])
def test_profile_fit_evaluates_each_theta_once(curve, small_model, small_pattern):
    # value, score and Hessian come from one eta_all, and the line search hands
    # its accepted evaluation on to the next iteration: no theta is evaluated
    # twice in a whole fit, the last evaluation is at the returned theta
    from ppcf.nuisance import KernelSpec, NuisanceFit
    quad = build_quadrature(small_pattern, 16)
    if curve == "fixed":
        eta_curve = FixedCurve(lambda Z: math.log(150.0) + 0.3 * Z[:, 0], k=1)
    else:
        eta_curve = NuisanceFit(small_model, quad, KernelSpec(2, 0.45))
    recorded = RecordingCurve(eta_curve)
    theta = profile_maximize(small_model, recorded, quad, 1.0, np.zeros(1))
    thetas = [t.tobytes() for t in recorded.seen]
    assert len(thetas) >= 3
    assert len(set(thetas)) == len(thetas)
    assert np.array_equal(recorded.seen[-1], theta)


def test_profile_recovers_truth_with_oracle_curve_w2():
    w2 = Window(0, 0, 2, 2)
    spec_grf = GrfSpec(1.0, 0.05)
    estimates = []
    for s in range(200):
        y = simulate_grf(w2, 256, 256, spec_grf, seed=9000 + 2 * s)
        z = simulate_grf(w2, 256, 256, spec_grf, seed=9001 + 2 * s)
        spec = ModelSpec([y], [z])
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
        spec = ModelSpec([y], [z])
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
    evaluate = pseudo_likelihood(small_model, curve, quad, 1.0)
    vals = [evaluate(np.array([t]))[0] for t in grid]
    best = grid[int(np.argmax(vals))]
    assert abs(best - theta) <= 1e-4


def test_newton_direction_matches_cho_solve(small_model, small_pattern):
    # random symmetric positive definite systems of k = 1..4 over six decades of
    # scale, and the negated Hessian of a profile fit
    rng = np.random.default_rng(8)
    systems = []
    for k in (1, 2, 3, 4):
        for _ in range(25):
            m = rng.normal(size=(k, k))
            systems.append((10.0 ** rng.uniform(-2, 4) * (m @ m.T + k * np.eye(k)),
                            rng.normal(size=k)))
    quad = build_quadrature(small_pattern, 16)
    curve = FixedCurve(lambda Z: math.log(150.0) + 0.3 * Z[:, 0], k=1)
    _, s, h = pseudo_likelihood(small_model, curve, quad, 1.0)(np.array([0.1]))
    systems.append((-h, s))
    for a, b in systems:
        want = cho_solve(cho_factor(a), b)
        assert np.abs(_cholesky_solve(a, b) - want).max() <= 1e-14 * np.abs(want).max()


def test_newton_takes_the_gradient_path_at_a_non_positive_definite_hessian(monkeypatch):
    # a concave quadratic whose Hessian is reported indefinite at the start point
    # only: the Cholesky factor raises LinAlgError there, the first step ascends
    # the gradient and Newton steps finish the fit
    center = np.array([0.3, -0.2])

    def evaluate(theta):
        d = theta - center
        h = np.diag([1.0, -1.0]) if not theta.any() else -2.0 * np.eye(2)
        return -float(d @ d), -2.0 * d, h

    outcomes = []
    solve = ppcf.model._cholesky_solve

    def spy(a, b):
        try:
            x = solve(a, b)
        except np.linalg.LinAlgError:
            outcomes.append("raised")
            raise
        outcomes.append("solved")
        return x

    monkeypatch.setattr(ppcf.model, "_cholesky_solve", spy)
    with pytest.raises(np.linalg.LinAlgError):
        solve(-np.diag([1.0, -1.0]), np.ones(2))
    theta = _newton_maximize(evaluate, np.zeros(2), 1.0)
    assert outcomes[0] == "raised" and set(outcomes[1:]) == {"solved"}
    assert np.abs(theta - center).max() <= 1e-8


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
    # the objective is -inf; a fit that starts there raises
    scheme = LogisticScheme(W1, np.array([[0.25, 0.25], [0.5, 0.5]]),
                            np.array([False, True]), 1.0)
    eta = lambda Z: np.full(Z.shape[0], -np.inf)
    assert objective_value(zero_y_model, [0.0], eta, scheme) == -np.inf
    with pytest.raises(NonpositiveIntensityError):
        profile_maximize(zero_y_model, FixedCurve(eta, 1), scheme, 1.0, np.zeros(1))


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
        spec = ModelSpec([y], [z])
        eta = lambda Z: math.log(400.0) + 0.3 * Z[:, 0]
        surface = intensity_surface(spec, np.array([0.3]), eta)
        pat = simulate_poisson(surface, seed=90_000 + s)
        quad = build_quadrature(pat, 32)
        theta_para = fit_parametric_baseline_full(spec, quad).coef[0]
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
    theta = fit_parametric_baseline_full(small_model, quad, eta).coef[:small_model.k]
    assert theta.shape == (1,)
    assert abs(theta[0] - 0.3) < 0.25


def test_baseline_oracle_matches_profile_with_fixed_curve(small_model, small_pattern):
    # one node loss: the oracle design fit and the profile fit along the fixed
    # curve maximize the same quadrature objective
    eta = lambda Z: math.log(150.0) + 0.3 * Z[:, 0] - 0.05 * Z[:, 0] ** 2
    quad = build_quadrature(small_pattern, 24)
    oracle = fit_parametric_baseline_full(small_model, quad, eta)
    profile = profile_maximize(small_model, FixedCurve(eta, k=1), quad, 1.0, np.zeros(1))
    assert np.allclose(oracle.coef[:1], profile, rtol=0, atol=1e-8)
