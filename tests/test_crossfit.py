import math

import numpy as np
import pytest

from scipy.optimize import minimize_scalar

from helpers import intensity_surface

from ppcf.crossfit import CrossFitConfig, cross_fit
from ppcf.errors import InsufficientPointsError, NonConvergenceError
from ppcf.fields import GrfSpec, make_window, simulate_grf
from ppcf.model import log_linear_model
from ppcf.process import PointPattern, constant_surface, fold, simulate_poisson

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

W1 = make_window(0, 0, 1, 1)


def _make_case(seed, rate=300.0, theta=0.3):
    y = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seed=seed)
    z = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seed=seed + 1)
    spec = log_linear_model([y], [z])
    eta = lambda Z: math.log(rate) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([theta]), eta)
    pattern = simulate_poisson(surface, seed=seed + 2)
    return spec, pattern


def test_config_validation():
    with pytest.raises(ValueError):
        CrossFitConfig(n_folds=1)
    with pytest.raises(ValueError):
        CrossFitConfig(approximation="exact")


def test_cross_fit_empty_pattern_rejected():
    spec, _ = _make_case(7)
    empty = PointPattern(W1, np.empty((0, 2)))
    with pytest.raises(InsufficientPointsError):
        cross_fit(spec, empty, CrossFitConfig(grid_n=16), 1)


def test_determinism():
    spec, pattern = _make_case(11)
    cfg = CrossFitConfig(grid_n=32, bandwidth_c0=0.45)
    r1 = cross_fit(spec, pattern, cfg, 99)
    r2 = cross_fit(spec, pattern, cfg, 99)
    assert np.array_equal(r1.theta_hat, r2.theta_hat)
    r3 = cross_fit(spec, pattern, cfg, 100)
    assert not np.array_equal(r1.theta_hat, r3.theta_hat)


def test_degenerate_identical_folds():
    # both folds hold a full copy of the pattern: the two fold estimates are
    # identical and the aggregate equals either of them
    spec, pattern = _make_case(17)
    doubled = PointPattern(
        W1,
        np.vstack([pattern.points, pattern.points]),
        np.concatenate([np.ones(pattern.count(), dtype=int),
                        np.full(pattern.count(), 2, dtype=int)]),
    )
    cfg = CrossFitConfig(grid_n=32, bandwidth_c0=0.45)
    res = cross_fit(spec, doubled, cfg, 5)
    t1, t2 = (f.theta for f in res.per_fold)
    assert np.allclose(t1, t2, atol=1e-10)
    assert np.allclose(res.theta_hat, t1, atol=1e-10)


def test_fold_label_permutation_invariance():
    spec, pattern = _make_case(23)
    cfg = CrossFitConfig(grid_n=32, bandwidth_c0=0.45)
    from ppcf.process import v_fold_thin
    marked = v_fold_thin(pattern, 2, seed=41)
    res = cross_fit(spec, marked, cfg, 3)
    swapped = marked.with_marks(3 - marked.marks)
    res_swapped = cross_fit(spec, swapped, cfg, 3)
    a = sorted(float(f.theta[0]) for f in res.per_fold)
    b = sorted(float(f.theta[0]) for f in res_swapped.per_fold)
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(res.theta_hat, res_swapped.theta_hat, atol=1e-12)


def test_skip_thinning_requires_log_linear():
    from ppcf.model import LinkFunctions, general_model
    y = simulate_grf(W1, 24, 24, GrfSpec(1.0, 0.2), seed=61)
    z = simulate_grf(W1, 24, 24, GrfSpec(1.0, 0.2), seed=62)
    e = lambda t, g: np.exp(t + g)
    gen = general_model([y], [z], lambda th, Y: Y @ th,
                        lambda th, Y: np.asarray(Y, float),
                        lambda th, Y: np.zeros((Y.shape[0], 1, 1)),
                        LinkFunctions(e, e, e, e, e, e))
    _, pattern = _make_case(63)
    with pytest.raises(ValueError):
        cross_fit(gen, pattern, CrossFitConfig(skip_thinning=True, grid_n=16), 1)


def _fail_fold_solves(monkeypatch, failing):
    """Make the per-fold profile solve raise NonConvergenceError on the given calls (1-based)."""
    import ppcf.crossfit
    real = ppcf.crossfit.profile_maximize
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) in failing:
            raise NonConvergenceError("injected fold failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(ppcf.crossfit, "profile_maximize", flaky)


def test_partial_fold_failure_tolerated(monkeypatch):
    # fold 3's solve fails, but two of three folds converge
    spec, pattern = _make_case(29)
    _fail_fold_solves(monkeypatch, {3})
    cfg = CrossFitConfig(n_folds=3, grid_n=32, bandwidth_c0=0.45)
    res = cross_fit(spec, pattern, cfg, 2)
    assert sum(f.converged for f in res.per_fold) >= 2
    assert not res.per_fold[2].converged
    assert np.isfinite(res.theta_hat).all()


def test_all_folds_failed_raises(monkeypatch):
    spec, pattern = _make_case(31)
    _fail_fold_solves(monkeypatch, {1, 2})
    cfg = CrossFitConfig(n_folds=2, grid_n=16, bandwidth_c0=0.45)
    with pytest.raises(NonConvergenceError, match="all folds failed"):
        cross_fit(spec, pattern, cfg, 2)


@pytest.mark.parametrize("n_folds, labels, empty", [(3, (1, 2), r"\[3\]"),
                                                    (2, (1,), r"\[2\]")])
def test_honored_marks_with_empty_fold_rejected(monkeypatch, n_folds, labels, empty):
    # marks that leave a fold empty are rejected before anything is fitted
    import ppcf.crossfit
    spec, pattern = _make_case(29)
    marks = np.random.default_rng(0).choice(labels, size=pattern.count())

    def no_fit(*args, **kwargs):
        raise AssertionError("a fold was fitted")

    monkeypatch.setattr(ppcf.crossfit, "build_quadrature", no_fit)
    cfg = CrossFitConfig(n_folds=n_folds, grid_n=16, bandwidth_c0=0.45)
    with pytest.raises(InsufficientPointsError, match=empty):
        cross_fit(spec, pattern.with_marks(marks), cfg, 2)


def test_eta_aggregate_is_fold_mean():
    spec, pattern = _make_case(37)
    cfg = CrossFitConfig(grid_n=32, bandwidth_c0=0.45)
    res = cross_fit(spec, pattern, cfg, 12)
    Z = np.linspace(-0.5, 0.5, 7)[:, None]
    direct = np.mean([f.nuisance.eta_at(res.theta_hat, Z) for f in res.per_fold], axis=0)
    assert np.allclose(res.eta_hat(Z), direct, atol=1e-12)


def test_logistic_approximation_path():
    spec, pattern = _make_case(43, rate=350.0)
    cfg = CrossFitConfig(grid_n=32, bandwidth_c0=0.45, approximation="logistic")
    res = cross_fit(spec, pattern, cfg, 6)
    assert all(f.converged for f in res.per_fold)
    assert abs(res.theta_hat[0] - 0.3) < 0.25
    # deterministic: the dummy pattern seeds derive from the seed
    res2 = cross_fit(spec, pattern, cfg, 6)
    assert np.array_equal(res.theta_hat, res2.theta_hat)


def test_logistic_fold_estimates_match_reference_maximizer():
    # each fold's theta maximizes the logistic likelihood of the fold's points
    # against the uniform dummy points drawn from the fold's seed, along the
    # fold's nuisance curve; the reference is that likelihood in plain numpy,
    # maximized by scipy
    spec, pattern = _make_case(43, rate=350.0)
    marks = np.random.default_rng(43).integers(1, 3, size=pattern.count())
    pattern = pattern.with_marks(marks)
    cfg = CrossFitConfig(grid_n=32, bandwidth_c0=0.45, approximation="logistic")
    res = cross_fit(spec, pattern, cfg, 6)
    seeds = np.random.SeedSequence(6).spawn(1 + cfg.n_folds)
    scale = 1.0 / cfg.n_folds
    for idx, f in enumerate(res.per_fold):
        pts = fold(pattern, f.v)
        rho = 4.0 * pts.count() / W1.area()        # four dummy points per data point
        dummy = simulate_poisson(constant_surface(W1, rho), seeds[1 + idx])
        Yd, Zd = spec.covariates_at(pts.points)
        Yu, Zu = spec.covariates_at(dummy.points)

        def neg_loglik(t, nf=f.nuisance):
            th = np.array([t])
            lam_d = scale * np.exp(Yd[:, 0] * t + nf.eta_at(th, Zd))
            lam_u = scale * np.exp(Yu[:, 0] * t + nf.eta_at(th, Zu))
            return -(np.sum(np.log(lam_d / (lam_d + rho)))
                     + np.sum(np.log(rho / (lam_u + rho))))

        ref = minimize_scalar(neg_loglik, bounds=(-1.0, 1.5), method="bounded",
                              options={"xatol": 1e-10})
        assert ref.success
        assert abs(f.theta[0] - ref.x) <= 1e-6, (f.v, f.theta[0], ref.x)


def test_general_link_cross_fit_smoke():
    # exponential link expressed through the general-link interface; the
    # batched Newton nuisance path must reproduce the log-linear answer
    from ppcf.model import LinkFunctions, general_model
    spec, pattern = _make_case(47, rate=250.0)
    e = lambda t, g: np.exp(t + g)
    gen = general_model(list(spec.target_fields), list(spec.nuisance_fields),
                        lambda th, Y: Y @ th,
                        lambda th, Y: np.asarray(Y, float),
                        lambda th, Y: np.zeros((Y.shape[0], 1, 1)),
                        LinkFunctions(e, e, e, e, e, e))
    cfg = CrossFitConfig(grid_n=16, bandwidth_c0=0.45)
    res_gen = cross_fit(gen, pattern, cfg, 8)
    res_log = cross_fit(spec, pattern, cfg, 8)
    assert abs(res_gen.theta_hat[0] - res_log.theta_hat[0]) < 2e-3


def test_skip_thinning_matches_two_fold_rmse():
    # the no-thinning shortcut and V=2 cross-fitting agree in accuracy on
    # paired replications
    err_skip, err_v2 = [], []
    for r in range(120):
        spec, pattern = _make_case(1_000 + 5 * r, rate=400.0)
        cfg_v2 = CrossFitConfig(grid_n=48, bandwidth_c0=0.45)
        cfg_skip = CrossFitConfig(grid_n=48, bandwidth_c0=0.45, skip_thinning=True)
        try:
            err_v2.append(cross_fit(spec, pattern, cfg_v2, 77).theta_hat[0] - 0.3)
            err_skip.append(cross_fit(spec, pattern, cfg_skip, 77).theta_hat[0] - 0.3)
        except NonConvergenceError:
            continue
    rmse_v2 = float(np.sqrt(np.mean(np.square(err_v2))))
    rmse_skip = float(np.sqrt(np.mean(np.square(err_skip))))
    assert 0.75 <= rmse_skip / rmse_v2 <= 1.33
