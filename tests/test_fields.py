import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ppcf.fields
from ppcf import harness
from ppcf.errors import (
    DecompositionError,
    DegenerateWindowError,
    LatticeMismatchError,
    NonFiniteFieldError,
    ParseError,
)
from ppcf.fields import (
    GridField,
    GrfSpec,
    field_product,
    make_window,
    read_grid_file,
    simulate_grf,
    write_grid_file,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def apply_pointwise(a: GridField, f) -> GridField:
    """A scalar map applied to every lattice node (vectorized when f allows it)."""
    try:
        out = np.asarray(f(a.values), dtype=float)
        if out.shape != a.values.shape:
            raise TypeError
    except (TypeError, ValueError):
        out = np.vectorize(f, otypes=[float])(a.values)
    return GridField(a.window, a.nx, a.ny, out)


def test_make_window_areas():
    assert make_window(0, 0, 1, 1).area() == 1.0
    assert make_window(0, 0, 2, 2).area() == 4.0
    assert make_window(0, 0, 1, 0.5).area() == 0.5


@pytest.mark.parametrize("coords", [(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (0, 2, 1, 1),
                                    (0, 0, math.inf, 1), (0, -math.inf, 1, 1),
                                    (math.nan, 0, 1, 1), (0, 0, 1, math.nan)])
def test_make_window_degenerate(coords):
    with pytest.raises(DegenerateWindowError):
        make_window(*coords)


@pytest.mark.parametrize("params", [
    dict(variance=math.nan), dict(variance=math.inf),
    dict(corr_range=math.nan), dict(corr_range=math.inf),
    dict(mean=math.nan), dict(mean=-math.inf),
], ids=lambda p: "-".join(f"{k}={v}" for k, v in p.items()))
def test_grf_spec_rejects_non_finite_parameters(params):
    # a nan variance or range used to pass and then double the torus to its bound
    with pytest.raises(ValueError, match=next(iter(params))):
        GrfSpec(**{"variance": 1.0, "corr_range": 0.1, **params})


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 10_000))
def test_node_evaluation_exact(nx, ny, seed):
    rng = np.random.default_rng(seed)
    w = make_window(-1.5, 0.25, 2.5, 3.0)
    field = GridField(w, nx, ny, rng.normal(size=(ny, nx)))
    gx, gy = np.meshgrid(np.linspace(w.x_min, w.x_max, nx), np.linspace(w.y_min, w.y_max, ny))
    vals = field.evaluate(gx.ravel(), gy.ravel())
    assert np.array_equal(vals, field.values.ravel())


def test_bilinear_reproduces_affine_surface():
    w = make_window(0, 0, 2, 1)
    nx, ny = 7, 5
    gx, gy = np.meshgrid(np.linspace(0, 2, nx), np.linspace(0, 1, ny))
    field = GridField(w, nx, ny, 1.0 + 2.0 * gx - 3.0 * gy)
    pts = np.random.default_rng(3).uniform([0, 0], [2, 1], size=(200, 2))
    expected = 1.0 + 2.0 * pts[:, 0] - 3.0 * pts[:, 1]
    assert np.allclose(field.evaluate_points(pts), expected, atol=1e-12)


def test_evaluate_outside_window_raises():
    w = make_window(0, 0, 1, 1)
    field = GridField(w, 4, 4, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        field.evaluate(1.2, 0.5)


def test_zero_variance_field_is_constant():
    w = make_window(0, 0, 1, 1)
    f = simulate_grf(w, 16, 16, GrfSpec(0.0, 0.05, mean=3.0), seed=0)
    assert np.array_equal(f.values, np.full((16, 16), 3.0))


def test_grf_determinism():
    w = make_window(0, 0, 1, 1)
    spec = GrfSpec(1.0, 0.05)
    a = simulate_grf(w, 20, 20, spec, seed=42)
    b = simulate_grf(w, 20, 20, spec, seed=42)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, simulate_grf(w, 20, 20, spec, seed=43).values)
    big_a = simulate_grf(w, 120, 120, spec, seed=42)
    big_b = simulate_grf(w, 120, 120, spec, seed=42)
    assert np.array_equal(big_a.values, big_b.values)


def test_grf_clamped_to_six_sd():
    w = make_window(0, 0, 1, 1)
    spec = GrfSpec(4.0, 0.05, mean=1.0)
    for seed in range(10):
        f = simulate_grf(w, 40, 40, spec, seed=seed)
        assert np.all(np.abs(f.values - 1.0) <= 6.0 * 2.0 + 1e-12)


@pytest.mark.parametrize("window, nx, ny, corr_range, torus", [
    ((0, 0, 1, 1), 24, 24, 0.2, (48, 48)),          # minimal embeddings
    ((0, 0, 1, 1), 64, 64, 0.05, (128, 128)),
    ((0, 0, 1, 3), 20, 40, 0.3, (80, 40)),          # non-square window and lattice
    ((0, 0, 2, 1), 33, 17, 0.1, (34, 66)),
    ((0, 0, 1, 1), 24, 24, 0.5, (96, 96)),          # enlarged embeddings
    ((0, 0, 1, 1), 256, 256, 0.2, (1024, 1024)),
    ((0, 0, 2, 2), 256, 256, 0.5, (1024, 1024)),
])
def test_circulant_embedding_reproduces_lattice_covariance(window, nx, ny, corr_range, torus):
    # the torus covariance, read off the half spectrum of its eigenvalues, is C at
    # every lattice lag plus the jitter at lag 0
    w = make_window(*window)
    spec = GrfSpec(2.0, corr_range)
    sqrt_lam = ppcf.fields._circulant_sqrt_eigs(w, nx, ny, spec)
    assert sqrt_lam.shape == (torus[0], torus[1] // 2 + 1)
    assert sqrt_lam.flags.c_contiguous and not sqrt_lam.flags.writeable
    cov = np.fft.irfft2(sqrt_lam ** 2, s=torus)[:ny, :nx]
    lags = np.hypot(np.arange(ny)[:, None] * w.height / (ny - 1),
                    np.arange(nx)[None, :] * w.width / (nx - 1))
    want = spec.covariance(lags)
    want[0, 0] += ppcf.fields._JITTER * spec.variance
    assert np.max(np.abs(cov - want)) <= 1e-12 * spec.variance


def test_harness_lattices_keep_the_minimal_embedding():
    # every (window, lattice, GrfSpec) the harness draws keeps the 2 ny x 2 nx torus
    for w in harness.WINDOWS.values():
        n = int(round(harness.LATTICE_PER_UNIT * w.width))
        for spec in (harness.COVARIATE_GRF, harness.LGCP_GRF):
            # the half spectrum of the torus
            assert ppcf.fields._circulant_sqrt_eigs(w, n, n, spec).shape == (2 * n, n + 1)


def test_grf_enlarged_embedding_samples():
    # W1 at 256 x 256 and range 0.2 needs a 1024 x 1024 torus
    f = simulate_grf(make_window(0, 0, 1, 1), 256, 256, GrfSpec(1.0, 0.2), seed=7)
    assert f.values.shape == (256, 256) and np.all(np.isfinite(f.values))
    assert f.values.std() > 0


@pytest.mark.parametrize("nx, ny, corr_range", [
    (40, 24, 0.05),       # minimal torus
    (256, 256, 0.2),      # the enlarged torus above
])
def test_grf_real_fft_draw_equals_the_complex_filter(nx, ny, corr_range):
    # the same noise filtered by the full complex transform, with the full spectrum
    # rebuilt from the cached half by its evenness, lam[i, j] = lam[-i, -j]
    w = make_window(0, 0, 1, 1)
    spec = GrfSpec(1.5, corr_range, mean=0.5)
    half = ppcf.fields._circulant_sqrt_eigs(w, nx, ny, spec)
    m = half.shape[0]
    sqrt_lam = np.hstack([half, half[-np.arange(m) % m, -2:0:-1]])
    noise = np.random.default_rng(7).standard_normal(sqrt_lam.shape)
    fluct = np.fft.ifft2(sqrt_lam * np.fft.fft2(noise)).real[:ny, :nx]
    sd = math.sqrt(spec.variance)
    want = spec.mean + np.clip(fluct, -6.0 * sd, 6.0 * sd)
    got = simulate_grf(w, nx, ny, spec, seed=7).values
    assert np.max(np.abs(got - want)) <= 1e-13 * sd


def _draw_rfft2(window, nx, ny, spec, seed):
    """The draw with one 2-D real FFT pair over the whole torus, ``rfft2``/``irfft2``."""
    sqrt_lam = ppcf.fields._circulant_sqrt_eigs(window, nx, ny, spec)
    m, n = sqrt_lam.shape[0], 2 * (sqrt_lam.shape[1] - 1)
    spectrum = np.fft.rfft2(np.random.default_rng(seed).standard_normal((m, n)))
    spectrum *= sqrt_lam
    fluct = np.fft.irfft2(spectrum, s=(m, n))[:ny, :nx]
    sd = np.sqrt(spec.variance)
    return spec.mean + np.clip(fluct, -6.0 * sd, 6.0 * sd)


@pytest.mark.parametrize("window, nx, ny, spec", [
    ((0, 0, 1, 1), 40, 24, GrfSpec(1.5, 0.05, mean=0.5)),       # minimal torus
    ((0, 0, 1, 1), 256, 256, GrfSpec(1.5, 0.2, mean=0.5)),      # enlarged, 1024 x 1024
    ((0, 0, 2, 2), 256, 256, harness.COVARIATE_GRF),            # the W2 lattices
    ((0, 0, 2, 2), 256, 256, harness.LGCP_GRF),
])
def test_grf_in_place_draw_is_the_rfft2_draw_bit_for_bit(window, nx, ny, spec):
    w = make_window(*window)
    for seed in (3, 11):
        assert np.array_equal(simulate_grf(w, nx, ny, spec, seed).values,
                              _draw_rfft2(w, nx, ny, spec, seed))


def test_circulant_embedding_bounded(monkeypatch):
    # 24 x 24 at range 0.5 needs a 96 x 96 torus; past the bound it raises
    monkeypatch.setattr(ppcf.fields, "_MAX_TORUS_NODES", 48 * 48)
    ppcf.fields._circulant_sqrt_eigs.cache_clear()
    with pytest.raises(DecompositionError, match="not positive definite"):
        simulate_grf(make_window(0, 0, 1, 1), 24, 24, GrfSpec(1.0, 0.5), seed=0)


@pytest.fixture(scope="module")
def grf_ensemble():
    """500 unit-variance draws on a 64 x 64 lattice."""
    w = make_window(0, 0, 1, 1)
    spec = GrfSpec(1.0, 0.05)
    return [simulate_grf(w, 64, 64, spec, seed=s).values for s in range(500)]


def test_grf_pooled_moments(grf_ensemble):
    # per-seed spatial mean and mean square; known zero mean makes the
    # mean-square an unbiased estimate of the variance
    means = np.array([v.mean() for v in grf_ensemble])
    sqs = np.array([(v ** 2).mean() for v in grf_ensemble])
    se_mean = means.std(ddof=1) / math.sqrt(len(means))
    se_sq = sqs.std(ddof=1) / math.sqrt(len(sqs))
    assert abs(means.mean()) <= 3 * se_mean
    assert abs(sqs.mean() - 1.0) <= 3 * se_sq


def test_grf_covariance_at_lattice_lag(grf_ensemble):
    # nearest lattice offset to r = 0.05 on a 64-node axis
    dx = 1.0 / 63
    lag = round(0.05 / dx)
    r = lag * dx
    per_seed = np.array([(v[:, :-lag] * v[:, lag:]).mean() for v in grf_ensemble])
    expected = math.exp(-r / 0.05)
    se = per_seed.std(ddof=1) / math.sqrt(len(per_seed))
    assert abs(per_seed.mean() - expected) <= 3 * se


@pytest.mark.parametrize("target", [0.025, 0.05, 0.1])
def test_grf_variogram_matches_exponential(grf_ensemble, target):
    dx = 1.0 / 63
    lag = max(1, round(target / dx))
    r = lag * dx
    per_seed = np.array([0.5 * ((v[:, :-lag] - v[:, lag:]) ** 2).mean()
                         for v in grf_ensemble])
    expected = 1.0 - math.exp(-r / 0.05)
    se = per_seed.std(ddof=1) / math.sqrt(len(per_seed))
    assert abs(per_seed.mean() - expected) <= 3 * se


def test_field_product_constants():
    w = make_window(0, 0, 1, 1)
    a = GridField(w, 5, 5, np.full((5, 5), 2.0))
    b = GridField(w, 5, 5, np.full((5, 5), 3.0))
    assert np.array_equal(field_product(a, b).values, np.full((5, 5), 6.0))
    zero = GridField(w, 5, 5, np.zeros((5, 5)))
    rnd = GridField(w, 5, 5, np.random.default_rng(0).normal(size=(5, 5)))
    assert np.array_equal(field_product(rnd, zero).values, np.zeros((5, 5)))


def test_field_product_matches_direct_recomputation():
    w = make_window(0, 0, 1, 1)
    spec = GrfSpec(1.0, 0.05)
    a = simulate_grf(w, 32, 32, spec, seed=1)
    b = simulate_grf(w, 32, 32, spec, seed=2)
    assert np.array_equal(field_product(a, b).values, a.values * b.values)


def test_field_product_mismatch():
    w = make_window(0, 0, 1, 1)
    a = GridField(w, 5, 5, np.zeros((5, 5)))
    b = GridField(w, 6, 5, np.zeros((5, 6)))
    with pytest.raises(LatticeMismatchError):
        field_product(a, b)
    c = GridField(make_window(0, 0, 2, 2), 5, 5, np.zeros((5, 5)))
    with pytest.raises(LatticeMismatchError):
        field_product(a, c)


def test_apply_pointwise():
    w = make_window(0, 0, 1, 1)
    ones = GridField(w, 4, 4, np.ones((4, 4)))
    assert np.allclose(apply_pointwise(ones, lambda z: 0.3 * z).values, 0.3)
    twos = GridField(w, 4, 4, np.full((4, 4), 2.0))
    assert np.allclose(apply_pointwise(twos, lambda z: -0.09 * z ** 2).values, -0.36)
    rnd = GridField(w, 4, 4, np.random.default_rng(5).normal(size=(4, 4)))
    assert np.array_equal(apply_pointwise(rnd, lambda z: z).values, rnd.values)


def test_apply_pointwise_nonfinite():
    w = make_window(0, 0, 1, 1)
    f = GridField(w, 4, 4, np.zeros((4, 4)))
    with pytest.warns(RuntimeWarning, match="divide by zero"), \
            pytest.raises(NonFiniteFieldError):
        apply_pointwise(f, lambda z: np.log(z))


def test_grid_file_nonfinite_value_rejected(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("2 2 0.0 0.0 1.0 1.0\n0.0 1.0\nnan 2.0\n")
    with pytest.raises(NonFiniteFieldError):
        read_grid_file(path)


@pytest.mark.parametrize("line_no", [2, 3, 5])
def test_grid_file_bad_token_names_its_line(tmp_path, line_no):
    lines = ["3 2 0.0 0.0 1.0 1.0", "0.5 1.5", "2.5", "", "3.5 4.5 5.5"]
    lines[line_no - 1] = lines[line_no - 1] + " 1.0x"
    path = tmp_path / "grid.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="1.0x") as exc:
        read_grid_file(path)
    assert exc.value.line_no == line_no
    assert f"grid.txt:{line_no}:" in str(exc.value)


@pytest.mark.parametrize("header, message", [
    ("3 2 0.0 0.0 1.0", "expected 'nx ny x_min y_min x_max y_max'"),
    ("3 2.5 0.0 0.0 1.0 1.0", "invalid literal"),
    ("3 -2 0.0 0.0 1.0 1.0", "lattice resolution must be >= 2, got 3 x -2"),
    ("-3 2 0.0 0.0 1.0 1.0", "lattice resolution must be >= 2, got -3 x 2"),
    ("3 2 0.0 0.0 inf 1.0", "window bounds must be finite"),
    ("3 2 nan 0.0 1.0 1.0", "window bounds must be finite"),
], ids=["fields", "number", "negative_ny", "negative_nx", "inf_window", "nan_window"])
def test_grid_file_bad_header_names_line_one(tmp_path, header, message):
    path = tmp_path / "grid.txt"
    path.write_text(header + "\n0.5 1.5 2.5\n3.5 4.5 5.5\n")
    with pytest.raises(ParseError, match=message) as exc:
        read_grid_file(path)
    assert exc.value.line_no == 1


@pytest.mark.parametrize("body", ["0.5 1.5\n2.5\n", "0.5 1.5 2.5\n3.5 4.5 5.5 6.5\n", ""])
def test_grid_file_wrong_count_names_the_count(tmp_path, body):
    path = tmp_path / "grid.txt"
    path.write_text("3 2 0.0 0.0 1.0 1.0\n" + body)
    count = len(body.split())
    with pytest.raises(ParseError, match=f"expected 6 values, got {count}"):
        read_grid_file(path)


def test_grid_file_blank_lines_and_ragged_breaks_parse(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("3 2 0.0 0.0 1.0 1.0\n\n0.5\n 1.5   2.5 3.5\n\n\t4.5\n5.5")
    grid = read_grid_file(path)
    assert np.array_equal(grid.values, np.array([[0.5, 1.5, 2.5], [3.5, 4.5, 5.5]]))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 10_000))
def test_grid_file_roundtrip(nx, ny, seed):
    import tempfile
    rng = np.random.default_rng(seed)
    w = make_window(-0.5, 0.0, 1.5, 2.0)
    field = GridField(w, nx, ny, rng.normal(size=(ny, nx)) * 1e3)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/grid.txt"
        write_grid_file(field, path)
        back = read_grid_file(path)
    assert back.window == field.window
    assert back.nx == field.nx and back.ny == field.ny
    assert np.array_equal(back.values, field.values)
