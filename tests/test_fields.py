import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppcf.errors import (
    DegenerateWindowError,
    LatticeMismatchError,
    NonFiniteFieldError,
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


@pytest.mark.parametrize("coords", [(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 1), (0, 2, 1, 1)])
def test_make_window_degenerate(coords):
    with pytest.raises(DegenerateWindowError):
        make_window(*coords)


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


def test_grf_determinism_both_paths():
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


@pytest.fixture(scope="module")
def grf_ensemble():
    """500 unit-variance draws on a 64 x 64 lattice (dense Cholesky path)."""
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
