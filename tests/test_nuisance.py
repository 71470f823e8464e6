import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import intensity_surface

import ppcf.nuisance
from ppcf.errors import InsufficientPointsError, ZeroDenominatorError, ZeroMassError
from ppcf.fields import GridField, GrfSpec, make_window, simulate_grf
from ppcf.harness import Scenario, simulate_scenario_inputs
from ppcf.model import LOG_LINEAR, ModelSpec, build_quadrature, profile_maximize
from ppcf.nuisance import KernelSpec, NuisanceFit, default_bandwidth
from ppcf.process import PointPattern, constant_surface, simulate_poisson

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


def _fit_q(q, order, seed=3):
    """NuisanceFit on a W1 Poisson pattern with q independent GRF nuisance covariates."""
    fields = [simulate_grf(W1, 24, 24, GrfSpec(1.0, 0.2), seed=seed + i) for i in range(q + 1)]
    spec = ModelSpec(fields[:1], fields[1:])
    pattern = simulate_poisson(constant_surface(W1, 150.0), seed=seed)
    return NuisanceFit(spec, build_quadrature(pattern, 16), KernelSpec(order, 0.6))


def _exp_link_as_general(spec):
    """The log-linear model of ``spec`` on the general paths: a copy of its link."""
    return ModelSpec(spec.target_fields, spec.nuisance_fields, replace(LOG_LINEAR))


def _reference_rows(nf, Zs):
    """Kernel rows of standardized query points Zs (B, q) over the nodes, each over its
    max-abs, from the (B, m, q) differences: the Gaussian as the radial
    (2 pi)^(-q/2) exp(-|t|^2 / 2) of points divided by h, other orders as the product
    of the univariate factors over the trailing axis."""
    kernel, h, q = nf.kernel, nf.kernel.bandwidth, nf.q
    if kernel.order == 2:
        t = nf._Zs_nodes[None, :, :] / h - Zs[:, None, :] / h
        K = np.exp(np.square(t).sum(axis=-1) * -0.5) * ((2.0 * math.pi) ** (-0.5 * q) / h ** q)
    else:
        K = np.prod(kernel.k1((nf._Zs_nodes[None, :, :] - Zs[:, None, :]) / h), axis=-1) / h ** q
    peak = np.abs(K).max(axis=1)
    peak[peak == 0] = 1.0
    return K / peak[:, None]


def _chunk(nf):
    """Rows per chunk of kernel rows: each (rows, m) array holds at most _CHUNK_ELEMS."""
    return ppcf.nuisance._CHUNK_ELEMS // nf.weights.size


def _assert_near_rows(K, want, bound):
    """K within ``bound`` of each row's peak of ``want``, and elementwise within
    ``bound`` relative where ``want`` is at least 1e-3 of its row's peak (in the far
    tail both forms round an exponent of up to ~700)."""
    peak = want.max(axis=1, keepdims=True)
    assert np.all(np.abs(K - want) <= bound * peak)
    near = want >= 1e-3 * peak
    assert np.all(np.abs(K - want)[near] <= bound * want[near])


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_kernel_rows_bitwise_equal_to_3d_product(q, order):
    # quartic rows are the 3-D product bit for bit; Gaussian rows, built from the
    # shifted Gram product, are within 1e-14 of it.  Either way every read takes
    # its sums from ``KernelSpec.rows`` of each chunk, bit for bit.
    nf = _fit_q(q, order)
    is_data = nf.quad.is_data
    Zs = np.random.default_rng(q).normal(size=(300, q))
    step = _chunk(nf)
    assert Zs.shape[0] > step
    want = np.concatenate([nf.kernel.rows(nf._operand, Zs[s:s + step])
                           for s in range(0, Zs.shape[0], step)])
    if order == 2:
        _assert_near_rows(want, _reference_rows(nf, Zs), 1e-14)
    else:
        assert np.array_equal(want, _reference_rows(nf, Zs))
    # the chunks every read takes its sums from
    assert np.array_equal(nf._rows(Zs, lambda K: (K,))[0], want)
    # a general link keeps the training columns and the weighted rows
    general = NuisanceFit(_exp_link_as_general(nf.spec), nf.quad, nf.kernel)
    KT, KW, mass = general._rows(Zs, general._general_rows)
    want_KW = want * nf.weights
    assert np.array_equal(KT, np.ascontiguousarray(want[:, is_data]))
    assert np.array_equal(KW, want_KW)
    assert np.array_equal(mass, want_KW.sum(axis=1))


def _nodes_and_queries(q):
    """The standardized nodes of ``_fit_q(q, 2)`` and 300 standard normal queries."""
    return _fit_q(q, 2)._Zs_nodes, np.random.default_rng(q).normal(size=(300, q))


def _gaussian_rows_and_factors(A, Z, h):
    """Gaussian ``KernelSpec.rows`` of queries Z at nodes A, the product of the
    univariate k1 factors over each row's peak, and max |u|^2 over nodes and queries,
    u = z / h."""
    kernel = KernelSpec(2, h)
    factors = np.prod(kernel.k1((A[None, :, :] - Z[:, None, :]) / h), axis=-1)
    factors /= factors.max(axis=1, keepdims=True)
    u2 = max(np.square(A / h).sum(axis=1).max(), np.square(Z / h).sum(axis=1).max())
    return kernel.rows(kernel.operand(A), Z), factors, u2


@pytest.mark.parametrize("q", [1, 2, 3])
def test_gaussian_product_matches_per_dimension_product(q):
    # Gaussian rows from the shifted Gram product against the product of the
    # univariate k1 factors, both over their row peaks, at the fits' h = 0.6
    (A, Z), h = _nodes_and_queries(q), 0.6
    K, factors, _ = _gaussian_rows_and_factors(A, Z, h)
    _assert_near_rows(K, factors, 1e-14)
    # order 4 is the per-dimension product, bit for bit
    quartic = KernelSpec(4, h)
    factors = np.prod(quartic.k1((A[None, :, :] - Z[:, None, :]) / h), axis=-1) / h ** q
    assert np.array_equal(quartic.product(A, Z), factors)


@pytest.mark.parametrize("h", [0.3, 0.15])
@pytest.mark.parametrize("q", [2, 3])
def test_gaussian_rows_precision_at_small_bandwidth(q, h):
    # the Gram exponents u_b . u_j - |u_j|^2 / 2 carry a rounding error that grows
    # with eps * max|u|^2 as h shrinks; the rows stay within a few times it
    K, factors, u2 = _gaussian_rows_and_factors(*_nodes_and_queries(q), h)
    _assert_near_rows(K, factors, 4.0 * np.finfo(float).eps * u2)


def _gaussian_exponents(kernel, operand, Zs):
    """The shifted exponents of Gaussian ``KernelSpec.rows``, before any clamp or ``exp``."""
    left = np.column_stack([Zs / kernel.bandwidth, np.ones(len(Zs)), np.zeros(len(Zs))])
    K = left @ operand
    left[:, -1] = -K.max(axis=1)
    return np.matmul(left, operand, out=K)


def test_gaussian_rows_clamp_far_exponents_leaving_reads_unchanged(monkeypatch):
    # at h = 0.15, queries three standard deviations wide put over 5% of the shifted
    # exponents below _EXP_FLOOR, where exp leaves its vector path: the read clamps
    # them there, and stays bit for bit the unclamped formula's
    nf = _fit_q(2, 2)
    nf = NuisanceFit(nf.spec, nf.quad, KernelSpec(2, 0.15))
    Z = nf._mu + nf._sd * np.random.default_rng(2).normal(scale=3.0, size=(300, 2))
    Zs, floor = nf.standardize(Z), ppcf.nuisance._EXP_FLOOR
    assert np.mean(_gaussian_exponents(nf.kernel, nf._operand, Zs) < floor) > 0.05
    assert nf._exp_floor(Zs) == floor
    assert nf.kernel.rows(nf._operand, Zs, floor).min() == np.exp(floor)
    theta = np.array([0.2])
    got = nf.exact(theta, Z, 2)
    monkeypatch.setattr(KernelSpec, "rows", lambda self, operand, Zs, floor=None:
                        np.exp(_gaussian_exponents(self, operand, Zs)))
    want = nf.exact(theta, Z, 2)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_gaussian_reads_at_the_fits_bandwidth_take_no_clamp(monkeypatch):
    # h = 0.6 and standard normal queries: the read's bound on the exponents stays
    # above _EXP_FLOOR, so no chunk of its rows takes a clamp pass
    nf = _fit_q(2, 2)
    Z = nf._mu + nf._sd * np.random.default_rng(2).normal(size=(300, 2))
    floors = []
    rows = KernelSpec.rows

    def spy(self, operand, Zs, floor=None):
        floors.append(floor)
        return rows(self, operand, Zs, floor)

    monkeypatch.setattr(KernelSpec, "rows", spy)
    nf.exact(np.array([0.2]), Z, 2)
    assert len(floors) > 2 and set(floors) == {None}


@pytest.mark.parametrize("link", ["log-linear", "general"])
def test_kernel_rows_span_the_nodes_once(link, monkeypatch):
    # every chunk of kernel rows of _rows runs over the m quadrature nodes alone,
    # for direct queries and for the general-link q = 1 grid, with no stacked copy
    # of the training points: its node operand is the fit's one operand of them
    nf = _fit_q(1, 2)
    spec = _exp_link_as_general(nf.spec) if link == "general" else nf.spec
    seen = []
    rows = KernelSpec.rows

    def spy(self, operand, Z, floor=None):
        seen.append(operand)
        return rows(self, operand, Z, floor)

    monkeypatch.setattr(KernelSpec, "rows", spy)
    nf = NuisanceFit(spec, nf.quad, nf.kernel)
    assert bool(seen) == (link == "general")      # the log-linear grid keeps no rows
    Z = nf._mu + nf._sd * np.random.default_rng(1).normal(scale=0.5, size=(300, 1))
    assert Z.shape[0] > 2 * _chunk(nf)
    nf.exact(np.array([0.2]), Z, 1)
    assert len(seen) > 2
    operand = nf.kernel.operand(nf._Zs_nodes)
    assert operand.shape == (3, nf.weights.size)
    assert all(A is nf._operand and np.array_equal(A, operand) for A in seen)


@pytest.mark.parametrize("q", [2, 3])
def test_kernel_rows_build_no_q_axis(q, monkeypatch):
    # every chunk of kernel rows of _rows is one 2-D (rows, m) array of at most
    # _CHUNK_ELEMS elements and no (..., q) array: at its peak it holds the chunk, one
    # scratch array and arrays the size of the points (N + B, q)
    nf = _fit_q(q, 2)
    shapes, extra = [], []
    rows = KernelSpec.rows

    def spy(self, A, Z, floor=None):
        tracemalloc.start()
        try:
            K = rows(self, A, Z, floor)
            small = 2 * (A.nbytes + Z.nbytes) + 4096
            extra.append(tracemalloc.get_traced_memory()[1] - 2 * K.nbytes - small)
        finally:
            tracemalloc.stop()
        shapes.append(K.shape)
        return K

    monkeypatch.setattr(KernelSpec, "rows", spy)
    Z = nf._mu + nf._sd * np.random.default_rng(1).normal(scale=0.5, size=(300, q))
    nf.exact(np.array([0.2]), Z, 2)
    assert len(shapes) > 2
    assert all(len(s) == 2 and s[1] == nf.weights.size for s in shapes), shapes
    assert max(math.prod(s) for s in shapes) <= ppcf.nuisance._CHUNK_ELEMS
    assert max(extra) <= 0, extra


def _per_chunk_exact(nf, theta, Z, order):
    """``exact`` under the log-linear link as one solve per chunk of ``KernelSpec.rows``,
    the columns [1_data, w, w a, w a y, w a y(x)y], a = exp(theta . y), rebuilt
    for every chunk."""
    Zs = nf.standardize(Z)
    step, m, Y, w = _chunk(nf), nf.weights.size, nf.Y_nodes, nf.weights
    outs = []
    for s in range(0, Zs.shape[0], step):
        a = np.exp(Y @ theta)
        tilted = [np.ones((m, 1)), Y, (Y[:, :, None] * Y[:, None, :]).reshape(m, -1)]
        cols = np.column_stack([nf.quad.is_data, w,
                                w[:, None] * (a[:, None] * np.hstack(tilted[:order + 1]))])
        sums = nf.kernel.rows(nf._operand, Zs[s:s + step]) @ cols
        rows = ppcf.nuisance._Sums(sums[:, 0], sums[:, 1], sums[:, 2:])
        *values, outside = nf._solve(theta, rows, order, True)
        nf.diagnostics["clip_count"] += int(np.count_nonzero(outside))
        outs.append(values)
    return tuple(None if p[0] is None else np.concatenate(p) for p in zip(*outs))


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kernel_order", [2, 4])
@pytest.mark.parametrize("q", [2, 3])
def test_exact_bitwise_equal_to_per_chunk_solves(q, kernel_order, order):
    # one solve over the stacked sums of every chunk gives the per-chunk solves'
    # values and counters bit for bit; the narrowed range makes clip_count > 0
    fits = [_fit_q(q, kernel_order) for _ in range(2)]
    quad = fits[0].quad
    _, Z = fits[0].spec.covariates_at(quad.nodes[quad.is_data])    # the training points
    Z = np.tile(Z, (3, 1))    # three copies, so the read spans more than two chunks
    assert Z.shape[0] > 2 * _chunk(fits[0])
    theta = np.array([0.3])
    for nf in fits:
        nf.eta_range = (nf.eta_range[0], math.log(150.0))
    got = fits[0].exact(theta, Z, order)
    want = _per_chunk_exact(fits[1], theta, Z, order)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)
    assert fits[0].diagnostics == fits[1].diagnostics
    assert fits[0].diagnostics["clip_count"] > 0


@pytest.mark.parametrize("size", [1, 40, 300])
def test_exact_solves_once_per_read(size, monkeypatch):
    # the log-linear exact path solves the stacked sums of all its chunks at once
    nf = _fit_q(2, 2)
    calls = []
    solve = NuisanceFit._solve

    def spy(self, theta, rows, order, strict):
        calls.append(rows.mass.shape[0])
        return solve(self, theta, rows, order, strict)

    monkeypatch.setattr(NuisanceFit, "_solve", spy)
    Z = nf._mu + nf._sd * np.random.default_rng(2).normal(scale=0.5, size=(size, 2))
    for order in (0, 1, 2):
        nf.exact(np.array([0.2]), Z, order)
    assert calls == [size] * 3


def _tilted_mass_scan(nf, theta):
    """Standardized z in [-3, 3] whose single-point order-0 ``exact`` read returns
    (clean) and raises ZeroDenominatorError (raising); ZeroMassError z are left out."""
    clean, raising = [], []
    for z in np.linspace(-3.0, 3.0, 601):
        try:
            nf.exact(theta, nf._mu + nf._sd * np.array([[z]]), 0)
            clean.append(z)
        except ZeroDenominatorError:
            raising.append(z)
        except ZeroMassError:
            pass
    return np.array(clean), np.array(raising)


def test_zero_denominator_raised_past_the_first_chunk():
    # order-4 kernel, theta = 5: the tilted mass of some rows is not positive though
    # their training sum and kernel mass are; single-point reads find them
    nf = _fit_q(1, 4)
    theta = np.array([5.0])
    zs, raising = _tilted_mass_scan(nf, theta)
    zs = zs[:, None]
    step = _chunk(nf)
    assert raising.size > 0 and zs.shape[0] > 2 * step
    nf.exact(theta, nf._mu + nf._sd * zs, 0)
    zs[2 * step + 1] = raising[0]
    with pytest.raises(ZeroDenominatorError, match="tilted kernel mass vanished"):
        nf.exact(theta, nf._mu + nf._sd * zs, 0)


@pytest.mark.parametrize("link", ["log-linear", "general"])
def test_raising_read_leaves_diagnostics_unchanged(link):
    # a read whose third chunk raises adds nothing to diagnostics, though the same
    # read without the raising row counts some of its rows
    nf = _fit_q(1, 4)
    step = _chunk(nf)
    if link == "log-linear":
        theta, error = np.array([5.0]), ZeroDenominatorError
        zs, raising = _tilted_mass_scan(nf, theta)
        bad = raising[0]
        nf.eta_range = (nf.eta_range[0], 0.0)    # so that the clean read clips rows
    else:
        nf = NuisanceFit(_exp_link_as_general(nf.spec), nf.quad, nf.kernel)
        nf.eta_range = (nf.eta_range[0], 4.0)
        theta, error, bad = np.array([0.2]), ZeroMassError, 50.0
        zs = np.random.default_rng(1).normal(scale=0.5, size=300)
    zs = zs[:, None]
    assert zs.shape[0] > 2 * step
    before = dict(nf.diagnostics)
    nf.exact(theta, nf._mu + nf._sd * zs, 0)
    assert nf.diagnostics != before
    before = dict(nf.diagnostics)
    zs[2 * step + 1] = bad
    with pytest.raises(error):
        nf.exact(theta, nf._mu + nf._sd * zs, 0)
    assert nf.diagnostics == before


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
    spec = ModelSpec([y], [z])
    eta = lambda Z: math.log(300.0) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=8)
    quad = build_quadrature(pattern, 32)
    kernel = KernelSpec(2, 0.45)
    return spec, pattern, NuisanceFit(spec, quad, kernel, scale=1.0)


def test_fit_eta_constant_truth():
    spec = ModelSpec([_const_field(W1, 0.0)], [_const_field(W1, 1.0)])
    c = 250.0
    errs = []
    for s in range(8):
        pattern = simulate_poisson(constant_surface(W1, c), seed=100 + s)
        quad = build_quadrature(pattern, 24)
        nf = NuisanceFit(spec, quad, KernelSpec(2, 0.8))
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
    zs = nf.standardize(z)
    k_train = nf.kernel.product(nf._Zs_train, zs)[0]
    k_nodes = nf.kernel.product(nf._Zs_nodes, zs)[0]
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
    wide = NuisanceFit(spec, quad, KernelSpec(2, 1e4))
    theta = np.array([0.3])
    vals = [wide.exact(theta, [zv], 0)[0][0] for zv in (-0.5, 0.0, 0.7)]
    assert max(vals) - min(vals) < 1e-6
    _, Z = spec.covariates_at(quad.nodes)
    Y, _ = spec.covariates_at(quad.nodes)
    direct = math.log(pattern.count() / float(quad.weights @ np.exp(Y[:, 0] * 0.3)))
    assert abs(vals[0] - direct) < 1e-4


def test_eta_dtheta_constant_y():
    spec = ModelSpec([_const_field(W1, 2.5)], [_const_field(W1, 1.0)])
    pattern = simulate_poisson(constant_surface(W1, 100.0), seed=4)
    quad = build_quadrature(pattern, 16)
    nf = NuisanceFit(spec, quad, KernelSpec(2, 0.8))
    for theta in (np.array([0.0]), np.array([0.4])):
        _, d, dd = nf.exact(theta, [1.0])
        d, dd = d[0], dd[0]
        assert np.allclose(d, [-2.5], atol=1e-12)
        assert np.allclose(dd, [[0.0]], atol=1e-12)


def test_eta_dtheta_zero_theta_is_kernel_mean(fitted):
    spec, pattern, nf = fitted
    z = np.array([0.1])
    d = nf.exact(np.zeros(1), z, 1)[1][0]
    k_nodes = nf.kernel.product(nf._Zs_nodes, nf.standardize(z))[0]
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
    nf4 = NuisanceFit(spec, quad, KernelSpec(4, 0.05))
    with pytest.raises(ZeroMassError):
        nf4.exact(np.zeros(1), [50.0], 0)


def test_gaussian_query_far_from_every_node_keeps_its_mass():
    # 45 h from the node mean, over 38.6 h from every node: each Gaussian kernel value
    # underflows, but the shifted rows keep each row's peak, so the read returns the
    # long-double log-sum-exp gamma instead of raising ZeroMassError
    nf = _fit_q(2, 2)
    h, ld = nf.kernel.bandwidth, np.longdouble
    zs = np.array([[45.0 * h, 0.0]])
    assert np.sqrt(np.square(nf._Zs_nodes - zs).sum(axis=1)).min() > 38.6 * h
    nf.eta_range = (-100.0, 100.0)    # so that the raw gamma is not clamped
    theta = np.array([0.2])
    gamma = nf.exact(theta, nf._mu + nf._sd * zs, 0)[0][0]
    e = -0.5 * np.square((nf._Zs_nodes.astype(ld) - zs.astype(ld)) / ld(h)).sum(axis=1)
    lse = lambda x: x.max() + np.log(np.exp(x - x.max()).sum())
    a = np.log(nf.weights.astype(ld)) + (nf.Y_nodes @ theta).astype(ld)
    want = float(np.log(ld(nf.scale)) + lse(e[nf.quad.is_data]) - lse(e + a))
    assert want < -30.0
    assert abs(gamma - want) <= 1e-12 * abs(want)


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
    # path.  Its support edges put kinks into the curve, so the interpolation error,
    # second order but about 100 times the Gaussian's (2.0e-3 at 512 nodes), needs
    # 2048 nodes (1.05e-4) to reach the Gaussian test's 5e-4.
    spec, pattern, nf = fitted
    monkeypatch.setattr(ppcf.nuisance, "_GRID_SIZE", 2048)
    nf4 = NuisanceFit(spec, nf.quad, KernelSpec(4, 0.45))
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
    # it by about 4.  Saturation is counted as on the dense path.
    if case == "fitted":
        spec, pattern, nf = request.getfixturevalue("fitted")
        quad, kernel = nf.quad, nf.kernel
    else:
        spec, pattern, quad, kernel = request.getfixturevalue(case)
    theta = np.array([0.3])
    rms = []
    for bins in (16, 32):
        monkeypatch.setattr(ppcf.nuisance, "_BINS_PER_CELL", bins)
        nf = NuisanceFit(spec, quad, kernel)
        Zg = (nf._grid * nf._sd[0] + nf._mu[0])[:, None]
        binned = nf.eta_all(theta, Zg)
        grid_counts = dict(nf.diagnostics)
        nf.diagnostics.update(clip_count=0)
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
    cut = NuisanceFit(spec, nf.quad, nf.kernel)
    cut.eta_range = (top - 20.0, top)
    cut.eta_all(theta, Z)
    assert cut.diagnostics["clip_count"] > 0


def test_grid_solves_once_per_theta(fitted):
    # the profile fit evaluates each theta once, the last time at the fitted theta
    spec, _, fixture = fitted
    nf = NuisanceFit(spec, fixture.quad, fixture.kernel)
    solved = []
    solve = nf._solve

    def counting(theta, rows, order, strict):
        solved.append(theta.tobytes())
        return solve(theta, rows, order, strict)

    nf._solve = counting
    theta = profile_maximize(spec, nf, nf.quad, 1.0, np.zeros(1))
    assert len(solved) >= 3 and len(set(solved)) == len(solved)
    assert solved[-1] == theta.tobytes()


def test_empty_quadrature_data_raises(fitted):
    spec, _, nf = fitted
    empty = build_quadrature(PointPattern(W1, np.empty((0, 2))), 8)
    with pytest.raises(InsufficientPointsError):
        NuisanceFit(spec, empty, nf.kernel)


def test_general_link_newton_matches_golden_section():
    from test_model import make_general_spec
    window = make_window(0, 0, 4, 4)
    spec = make_general_spec(window)
    pattern = simulate_poisson(constant_surface(window, 4.0), seed=21)
    quad = build_quadrature(pattern, 16)
    # Psi = log(e^t + e^gamma) + 0.1 is negative at the low end of eta_range
    nf = NuisanceFit(spec, quad, KernelSpec(2, 0.45))
    ld = np.longdouble

    def golden(theta, z):
        zs = nf.standardize(z)
        kt = nf.kernel.product(nf._Zs_train, zs)[0].astype(ld)
        kn = (nf.weights * nf.kernel.product(nf._Zs_nodes, zs)[0]).astype(ld)
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
    nf_gen = NuisanceFit(_exp_link_as_general(spec), nf.quad, nf.kernel)
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
    spec = ModelSpec([y], [z])
    eta = lambda Z: math.log(400.0) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=seed + 2)
    quad = build_quadrature(pattern, grid_n)
    nf = NuisanceFit(spec, quad, KernelSpec(2, h))
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
        spec = ModelSpec([y], [z])
        eta = lambda Z: math.log(400.0) + 0.3 * Z[:, 0]
        surface = intensity_surface(spec, np.array([0.3]), eta)
        pattern = simulate_poisson(surface, seed=seed + 2)
        quad = build_quadrature(pattern, grid_n)
        nf = NuisanceFit(spec, quad, KernelSpec(2, 0.45))
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
