import math

import numpy as np
import pytest

from helpers import intensity_surface

import ppcf.nuisance
from ppcf.errors import ZeroMassError
from ppcf.fields import GridField, GrfSpec, make_window, simulate_grf
from ppcf.harness import Scenario, simulate_scenario_inputs
from ppcf.model import (
    LinkFunctions,
    build_quadrature,
    general_model,
    log_linear_model,
)
from ppcf.nuisance import KernelSpec, NuisanceFit, default_bandwidth
from ppcf.process import constant_surface, simulate_poisson

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

W1 = make_window(0, 0, 1, 1)
_GOLDEN_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, tol=1e-10, scan=32):
    """Golden-section maximizer on [lo, hi] after a coarse scan for the bracket."""
    xs = np.linspace(lo, hi, scan)
    vals = np.array([f(x) for x in xs])
    i = int(np.nanargmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, scan - 1)]
    c = b - _GOLDEN_INVPHI * (b - a)
    d = a + _GOLDEN_INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN_INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN_INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _const_field(window, value, n=9):
    return GridField(window, n, n, np.full((n, n), float(value)))


# -- kernels and bandwidth -----------------------------------------------------


def test_kernel_order_picks_the_kernel():
    # its moments are checked in test_kernel_numeric_moments
    assert KernelSpec(order=2, bandwidth=0.5).k1(0.0) == 1.0 / math.sqrt(2.0 * math.pi)
    assert KernelSpec(order=4, bandwidth=0.5).k1(0.0) == 45.0 / 32.0
    assert KernelSpec(order=4, bandwidth=0.5) == KernelSpec(4, 0.5)


def test_kernel_bad_combinations():
    for order in (3, 6):
        with pytest.raises(ValueError, match="no kernel of order"):
            KernelSpec(order=order, bandwidth=0.5)
    for h in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="bandwidth must be > 0"):
            KernelSpec(order=2, bandwidth=h)


def test_kernel_numeric_moments():
    ts = np.linspace(-14, 14, 200001)
    for spec in (KernelSpec(2, 1.0), KernelSpec(4, 1.0)):
        k = spec.k1(ts)
        assert abs(np.trapezoid(k, ts) - 1.0) < 1e-6
        for i in range(1, spec.order):
            assert abs(np.trapezoid(ts ** i * k, ts)) < 1e-6
        assert abs(np.trapezoid(ts ** spec.order * k, ts)) > 1e-6


def test_default_bandwidth_unit_area_is_c0():
    assert default_bandwidth(1.0, q=1, k=1, l=2, m=2, c0=0.7) == 0.7


def test_default_bandwidth_frozen_exponent():
    # alpha = (m-1)/(k+q+m+1) = 1/5, beta = (k+q+1)/(k+q+m+1) = 3/5 for
    # (q=1, k=1, l=2, m=2); the area exponent is -alpha/(l+q+beta) = -1/18
    h1 = default_bandwidth(1.0, 1, 1, 2, 2)
    h4 = default_bandwidth(4.0, 1, 1, 2, 2)
    assert abs(h4 / h1 - 4.0 ** (-1.0 / 18.0)) < 1e-12
    assert h4 < h1


# -- fixtures ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted(small_or_none=None):
    """NuisanceFit on a moderate random-field Poisson pattern (log-linear)."""
    y = simulate_grf(W1, 64, 64, GrfSpec(1.0, 0.1), seed=51)
    z = simulate_grf(W1, 64, 64, GrfSpec(1.0, 0.1), seed=52)
    spec = log_linear_model([y], [z])
    eta = lambda Z: math.log(300.0) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=8)
    quad = build_quadrature(pattern, 32)
    kernel = KernelSpec(2, 0.45)
    return spec, pattern, NuisanceFit(spec, pattern, quad, kernel, scale=1.0)


def test_objective_shape_y_independent():
    # theta plays no role when y is constant zero: objective is
    # gamma * N - exp(gamma) * M + const, strictly concave in gamma
    spec = log_linear_model([_const_field(W1, 0.0)], [_const_field(W1, 1.0)])
    pattern = simulate_poisson(constant_surface(W1, 120.0), seed=3)
    quad = build_quadrature(pattern, 16)
    nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, 0.8))
    gammas = np.linspace(2.0, 7.0, 41)
    vals = nf.objective(np.zeros(1), gammas, np.ones((gammas.size, 1)))
    second = np.diff(vals, 2)
    assert np.all(second < 0)
    assert vals.argmax() not in (0, len(vals) - 1)


def test_objective_matches_direct_recomputation(fitted):
    spec, pattern, nf = fitted
    theta = np.array([0.21])
    gamma = 5.1
    z = np.array([0.4])
    val = nf.objective(theta, gamma, z)[0]
    # independent recomputation with plain python sums
    h = nf.kernel.bandwidth
    zs = float(nf.standardize(z)[0, 0])
    k_train = [math.exp(-0.5 * ((zt - zs) / h) ** 2) / (h * math.sqrt(2 * math.pi))
               for zt in nf._Zs_train[:, 0]]
    k_nodes = [math.exp(-0.5 * ((zn - zs) / h) ** 2) / (h * math.sqrt(2 * math.pi))
               for zn in nf._Zs_nodes[:, 0]]
    mass = sum(w * kv for w, kv in zip(nf.weights, k_nodes))
    data = sum(kv * (theta[0] * yv + gamma)
               for kv, yv in zip(k_train, nf.Y_train[:, 0]))
    integral = sum(w * kv * math.exp(theta[0] * yv + gamma)
                   for w, kv, yv in zip(nf.weights, k_nodes, nf.Y_nodes[:, 0]))
    assert abs(val - (data - integral) / mass) < 1e-10 * max(1.0, abs(val))


def test_fit_eta_constant_truth():
    spec = log_linear_model([_const_field(W1, 0.0)], [_const_field(W1, 1.0)])
    c = 250.0
    errs = []
    for s in range(8):
        pattern = simulate_poisson(constant_surface(W1, c), seed=100 + s)
        quad = build_quadrature(pattern, 24)
        nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, 0.8))
        for zv in np.linspace(0.2, 0.8, 5):
            errs.append(nf.exact(np.zeros(1), [zv], 0)[0][0] - math.log(c))
    errs = np.array(errs)
    assert np.all(np.abs(errs) < 0.25)
    assert abs(errs.mean()) < 0.05


def golden_argmax_longdouble(nf, theta, z):
    """Independent numeric argmax of the per-z objective.

    Recomputes the objective with plain extended-precision sums; float64 values
    cannot localize the maximizer beyond ~sqrt(eps * f / f'') ~ 4e-8.
    """
    zs = nf.standardize(z)[0]
    k_train = nf.kernel.product(nf._Zs_train - zs)
    k_nodes = nf.kernel.product(nf._Zs_nodes - zs)
    c = np.longdouble(1.0 / nf.scale)
    kt = k_train.astype(np.longdouble)
    kn = (nf.weights * k_nodes).astype(np.longdouble)
    t_train = (nf.Y_train @ theta).astype(np.longdouble)
    t_nodes = (nf.Y_nodes @ theta).astype(np.longdouble)
    data_lin = kt.sum()
    data_const = (kt * (np.log(c) + t_train)).sum()
    tilted = (kn * np.exp(t_nodes)).sum()

    def f(g):
        g = np.longdouble(g)
        return data_const + g * data_lin - c * np.exp(g) * tilted

    return float(_golden_max(f, nf.eta_range[0], nf.eta_range[1], tol=1e-11))


def test_closed_form_matches_golden_section(fitted):
    spec, pattern, nf = fitted
    rng = np.random.default_rng(5)
    _, Z = spec.covariates_at(pattern.points)
    z_lo, z_hi = np.quantile(Z[:, 0], [0.1, 0.9])
    worst = 0.0
    for _ in range(10):
        theta = np.array([rng.uniform(-0.5, 0.8)])
        z = np.array([rng.uniform(z_lo, z_hi)])
        closed = nf.exact(theta, z, 0)[0][0]
        golden = golden_argmax_longdouble(nf, theta, z)
        worst = max(worst, abs(closed - golden))
    assert worst <= 1e-8


def test_fit_eta_uniform_kernel_limit(fitted):
    # enormous bandwidth: the estimate no longer depends on z
    spec, pattern, nf = fitted
    quad = build_quadrature(pattern, 16)
    wide = NuisanceFit(spec, pattern, quad, KernelSpec(2, 1e4))
    theta = np.array([0.3])
    vals = [wide.exact(theta, [zv], 0)[0][0] for zv in (-0.5, 0.0, 0.7)]
    assert max(vals) - min(vals) < 1e-6
    _, Z = spec.covariates_at(quad.nodes)
    Y, _ = spec.covariates_at(quad.nodes)
    direct = math.log(pattern.count() / float(quad.weights @ np.exp(Y[:, 0] * 0.3)))
    assert abs(vals[0] - direct) < 1e-4


def test_eta_dtheta_constant_y():
    spec = log_linear_model([_const_field(W1, 2.5)], [_const_field(W1, 1.0)])
    pattern = simulate_poisson(constant_surface(W1, 100.0), seed=4)
    quad = build_quadrature(pattern, 16)
    nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, 0.8))
    for theta in (np.array([0.0]), np.array([0.4])):
        _, d, dd = nf.exact(theta, [1.0])
        d, dd = d[0], dd[0]
        assert np.allclose(d, [-2.5], atol=1e-12)
        assert np.allclose(dd, [[0.0]], atol=1e-12)


def test_eta_dtheta_zero_theta_is_kernel_mean(fitted):
    spec, pattern, nf = fitted
    z = np.array([0.1])
    d = nf.exact(np.zeros(1), z, 1)[1][0]
    k_nodes = nf.kernel.product(nf._Zs_nodes - nf.standardize(z)[0])
    tilt = nf.weights * k_nodes
    expected = -(tilt @ nf.Y_nodes) / tilt.sum()
    assert np.allclose(d, expected, atol=1e-12)


def test_eta_dtheta_matches_finite_differences(fitted):
    spec, pattern, nf = fitted
    rng = np.random.default_rng(11)
    for _ in range(6):
        theta = np.array([rng.uniform(-0.3, 0.6)])
        z = np.array([rng.uniform(-0.6, 0.6)])
        d = nf.exact(theta, z, 1)[1][0]
        step = 1e-4
        fd = (nf.exact(theta + step, z, 0)[0][0] - nf.exact(theta - step, z, 0)[0][0]) / (2 * step)
        assert abs(d[0] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_eta_d2theta_matches_finite_differences(fitted):
    spec, pattern, nf = fitted
    rng = np.random.default_rng(12)
    for _ in range(4):
        theta = np.array([rng.uniform(-0.3, 0.6)])
        z = np.array([rng.uniform(-0.6, 0.6)])
        dd = nf.exact(theta, z)[2][0]
        step = 1e-4
        fd = (nf.exact(theta + step, z, 1)[1][0] - nf.exact(theta - step, z, 1)[1][0]) / (2 * step)
        assert abs(dd[0, 0] - fd[0]) <= 1e-3 * max(1.0, abs(fd[0]))
        assert dd[0, 0] <= 1e-12  # negative tilted covariance


def test_bulk_curve_matches_exact_path(fitted):
    spec, pattern, nf = fitted
    theta = np.array([0.25])
    _, Z = spec.covariates_at(pattern.points[:40])
    bulk = nf.eta_at(theta, Z)
    exact = nf.exact(theta, Z, 0)[0]
    # linear interpolation on a 512-cell grid vs the exact kernel sums
    assert np.max(np.abs(bulk - exact)) < 5e-4
    g, d, D2 = nf.eta_all(theta, Z)
    d_exact = nf.exact(theta, Z, 1)[1][:, 0]
    assert np.max(np.abs(d[:, 0] - d_exact)) < 5e-3


def test_zero_mass_error_for_compact_kernel(fitted):
    spec, pattern, _ = fitted
    quad = build_quadrature(pattern, 16)
    nf4 = NuisanceFit(spec, pattern, quad, KernelSpec(4, 0.05))
    with pytest.raises(ZeroMassError):
        nf4.objective(np.zeros(1), 5.0, [50.0])


def test_clip_counter_zero_on_interior_grid(fitted):
    spec, pattern, nf = fitted
    nf.diagnostics["clip_count"] = 0
    _, Z = spec.covariates_at(pattern.points)
    lo, hi = np.quantile(Z[:, 0], [0.1, 0.9])
    for zv in np.linspace(lo, hi, 25):
        nf.exact(np.array([0.3]), [zv], 0)
    assert nf.diagnostics["clip_count"] == 0



# -- the batched evaluator: signed kernels, saturation, general links -------------


def test_quartic_grid_matches_exact_path(fitted, monkeypatch):
    # the order-4 kernel is negative in places; the grid sums it like the exact
    # path.  Its support edges put kinks into the curve, so linear interpolation
    # converges at first order only: 2048 nodes reach the Gaussian test's 5e-4.
    spec, pattern, nf = fitted
    monkeypatch.setattr(ppcf.nuisance, "_GRID_SIZE", 2048)
    nf4 = NuisanceFit(spec, pattern, nf.quad, KernelSpec(4, 0.45))
    theta = np.array([0.25])
    _, Z = spec.covariates_at(pattern.points[:40])
    exact = nf4.exact(theta, Z, 0)[0]
    assert np.max(np.abs(nf4.eta_at(theta, Z) - exact)) < 5e-4


@pytest.fixture(scope="module")
def heavy_tailed():
    """The W2 `dep` cell's first replication: z is a product of two random fields."""
    s = Scenario(window="W2", covariates="dep", nuisance="poly")
    spec, _, pattern, _ = simulate_scenario_inputs(s, 0)
    return spec, pattern, build_quadrature(pattern, s.crossfit.grid_n), s.crossfit.resolve_kernel(spec)


@pytest.mark.parametrize("case, bounds", [
    ("fitted", (3e-6, 1e-6, 5e-7)),
    ("heavy_tailed", (3e-5, 1e-4, 2e-3)),
])
def test_binned_grid_matches_exact_at_the_nodes(case, bounds, request, monkeypatch):
    # the binned node moments replace each kernel value by its linear interpolation
    # between fine bins, a second-order error: doubling the bins per cell divides
    # it by about 4.  Saturation and empty numerators are counted as on the dense path.
    if case == "fitted":
        spec, pattern, nf = request.getfixturevalue("fitted")
        quad, kernel = nf.quad, nf.kernel
    else:
        spec, pattern, quad, kernel = request.getfixturevalue(case)
    theta = np.array([0.3])
    rms = []
    for bins in (16, 32):
        monkeypatch.setattr(ppcf.nuisance, "_BINS_PER_CELL", bins)
        nf = NuisanceFit(spec, pattern, quad, kernel)
        Zg = (nf._grid * nf._sd[0] + nf._mu[0])[:, None]
        binned = nf.eta_all(theta, Zg)
        grid_counts = dict(nf.diagnostics)
        nf.diagnostics.update(clip_count=0, empty_numerator=0)
        exact = nf.exact(theta, Zg)
        assert nf.diagnostics == grid_counts
        errs = [np.abs(b - e).reshape(Zg.shape[0], -1) for b, e in zip(binned, exact)]
        if bins == 16:
            for err, bound in zip(errs, bounds):
                assert err.max() <= bound
        rms.append(np.array([np.sqrt(np.mean(err ** 2)) for err in errs]))
    ratio = rms[0] / rms[1]
    assert np.all((ratio[:2] > 2.5) & (ratio[:2] < 8.0)) and ratio[2] > 2.0
    if case == "heavy_tailed":
        assert grid_counts["clip_count"] > 0


def test_clip_count_counts_grid_saturation(fitted):
    spec, pattern, nf = fitted
    theta = np.array([0.3])
    _, Z = spec.covariates_at(pattern.points)
    top = float(np.median(nf.eta_at(theta, Z)))
    cut = NuisanceFit(spec, pattern, nf.quad, nf.kernel)
    cut.eta_range = (top - 20.0, top)
    cut.eta_all(theta, Z)
    assert cut.diagnostics["clip_count"] > 0


def test_general_link_newton_matches_golden_section():
    from test_model import make_general_spec
    window = make_window(0, 0, 4, 4)
    spec = make_general_spec(window)
    pattern = simulate_poisson(constant_surface(window, 4.0), seed=21)
    quad = build_quadrature(pattern, 16)
    # Psi = log(e^t + e^gamma) + 0.1 is negative at the low end of eta_range
    nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, 0.45))
    ld = np.longdouble

    def golden(theta, z):
        zs = nf.standardize(z)[0]
        kt = nf.kernel.product(nf._Zs_train - zs).astype(ld)
        kn = (nf.weights * nf.kernel.product(nf._Zs_nodes - zs)).astype(ld)
        lin_t, lin_n = (nf.Y_train @ theta).astype(ld), (nf.Y_nodes @ theta).astype(ld)
        t_t, t_n = lin_t + ld(0.1) * lin_t ** 2, lin_n + ld(0.1) * lin_n ** 2

        def f(g):
            g = ld(g)
            with np.errstate(invalid="ignore"):
                val = ((kt * np.log(np.logaddexp(t_t, g) + ld(0.1))).sum()
                       - (kn * (np.logaddexp(t_n, g) + ld(0.1))).sum())
            return val if np.isfinite(val) else -np.inf

        return float(_golden_max(f, nf.eta_range[0], nf.eta_range[1], tol=1e-11))

    rng = np.random.default_rng(3)
    _, Zd = spec.covariates_at(pattern.points)
    z_lo, z_hi = np.quantile(Zd[:, 0], [0.1, 0.9])
    worst = 0.0
    for _ in range(10):
        theta = np.array([rng.uniform(-0.5, 0.8)])
        z = np.array([rng.uniform(z_lo, z_hi)])
        worst = max(worst, abs(nf.exact(theta, z, 0)[0][0] - golden(theta, z)))
    assert worst <= 1e-8


def test_exp_link_via_general_matches_closed_form(fitted):
    spec, pattern, nf = fitted
    e = lambda t, g: np.exp(t + g)
    gen = general_model(list(spec.target_fields), list(spec.nuisance_fields),
                        lambda th, Y: Y @ th, lambda th, Y: np.asarray(Y, float),
                        lambda th, Y: np.zeros((Y.shape[0], 1, 1)),
                        LinkFunctions(e, e, e, e, e, e))
    nf_gen = NuisanceFit(gen, pattern, nf.quad, nf.kernel)
    theta = np.array([0.25])
    Zg = (nf._grid * nf._sd[0] + nf._mu[0])[:, None]
    # the general-link grid sums the dense kernel rows, as ``exact`` does; the
    # log-linear grid bins its node moments, so the closed form is taken from ``exact``
    closed = nf.exact(theta, Zg)
    for newton in (nf_gen.exact(theta, Zg), nf_gen.eta_all(theta, Zg)):
        for a, b, tol in zip(closed, newton, (1e-9, 1e-9, 1e-6)):
            assert np.max(np.abs(a - b)) <= tol


def _sup_error_after_centering(window, lattice, grid_n, seed, h):
    grf = GrfSpec(1.0, 0.05)
    y = simulate_grf(window, lattice, lattice, grf, seed=seed)
    z = simulate_grf(window, lattice, lattice, grf, seed=seed + 1)
    spec = log_linear_model([y], [z])
    eta = lambda Z: math.log(400.0) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=seed + 2)
    quad = build_quadrature(pattern, grid_n)
    nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, h))
    _, Zd = spec.covariates_at(pattern.points)
    zg = np.linspace(*np.quantile(Zd[:, 0], [0.1, 0.9]), 40)
    est = nf.eta_at(np.array([0.3]), zg[:, None])
    truth = math.log(400.0) + 0.3 * zg
    resid = est - truth
    return float(np.max(np.abs(resid - resid.mean())))


def test_sup_error_decreases_with_window_growth():
    w2 = make_window(0, 0, 2, 2)
    sup1, sup2 = [], []
    for r in range(40):
        sup1.append(_sup_error_after_centering(W1, 128, 48, 3000 + 7 * r, 0.45))
        sup2.append(_sup_error_after_centering(w2, 256, 96, 9000 + 7 * r,
                                               0.45 * 4 ** (-1.0 / 18.0)))
    assert np.median(sup2) < np.median(sup1)


def test_eta_dtheta_consistent_with_lfd_oracle():
    # oracle nu* from the true fields on a fine lattice, kernel-smoothed in z
    w2 = make_window(0, 0, 2, 2)
    theta = np.array([0.3])

    def one(window, lattice, grid_n, seed):
        grf = GrfSpec(1.0, 0.05)
        y = simulate_grf(window, lattice, lattice, grf, seed=seed)
        z = simulate_grf(window, lattice, lattice, grf, seed=seed + 1)
        spec = log_linear_model([y], [z])
        eta = lambda Z: math.log(400.0) + 0.3 * Z[:, 0]
        surface = intensity_surface(spec, np.array([0.3]), eta)
        pattern = simulate_poisson(surface, seed=seed + 2)
        quad = build_quadrature(pattern, grid_n)
        nf = NuisanceFit(spec, pattern, quad, KernelSpec(2, 0.45))
        # fine-lattice oracle: tilted mean of -y among lattice sites near z
        xs = np.linspace(window.x_min, window.x_max, 300)
        gx, gy = np.meshgrid(xs, xs)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        Yl, Zl = spec.covariates_at(pts)
        tilt = np.exp(Yl[:, 0] * theta[0])
        _, Zd = spec.covariates_at(pattern.points)
        zg = np.linspace(*np.quantile(Zd[:, 0], [0.15, 0.85]), 20)
        errs = []
        for zv in zg:
            kw = np.exp(-0.5 * ((Zl[:, 0] - zv) / 0.12) ** 2)
            oracle = -(kw * tilt * Yl[:, 0]).sum() / (kw * tilt).sum()
            errs.append(abs(nf.exact(theta, [zv], 1)[1][0, 0] - oracle))
        return float(np.mean(errs))

    e1 = [one(W1, 128, 48, 7000 + 11 * r) for r in range(25)]
    e2 = [one(w2, 256, 96, 40_000 + 11 * r) for r in range(25)]
    assert np.median(e2) < np.median(e1)
