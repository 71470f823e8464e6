import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppcf.errors import BoundViolationError, ParseError, UnmarkedPatternError
from ppcf.fields import GridField, GrfSpec, make_window, simulate_grf
from ppcf.process import (
    IntensitySurface,
    PointPattern,
    constant_surface,
    fold,
    fold_complement,
    lgcp_surface,
    read_pattern_file,
    simulate_lgcp,
    simulate_poisson,
    v_fold_thin,
    write_pattern_file,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

W1 = make_window(0, 0, 1, 1)


def campbell_sum(pattern: PointPattern, f) -> float:
    """Sum of f(x, y) over the points of the pattern (f vectorized over arrays)."""
    return float(np.sum(f(pattern.points[:, 0], pattern.points[:, 1])))


def test_homogeneous_poisson_mean_count():
    surface = constant_surface(W1, 100.0)
    counts = np.array([simulate_poisson(surface, seed=s).count() for s in range(1000)])
    assert abs(counts.mean() - 100.0) <= 3 * math.sqrt(100.0 / 1000)


def test_zero_intensity_empty():
    assert simulate_poisson(constant_surface(W1, 0.0), seed=3).count() == 0


def test_points_inside_window():
    surface = constant_surface(W1, 50.0)
    pat = simulate_poisson(surface, seed=9)
    assert np.all(W1.contains(pat.points[:, 0], pat.points[:, 1]))


def test_inhomogeneous_poisson_matches_lattice_integral():
    y = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seed=11)
    z = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seed=12)

    def lam(pts):
        return 400.0 * np.exp(0.3 * y.evaluate_points(pts) + 0.3 * z.evaluate_points(pts))

    xs = np.linspace(0, 1, 512)
    gx, gy = np.meshgrid(xs, xs)
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    target = lam(lattice).mean() * W1.area()
    surface = IntensitySurface(W1, lam, float(lam(lattice).max()) * 1.05)
    counts = np.array([simulate_poisson(surface, seed=s).count() for s in range(500)])
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - target) <= 3 * se


def test_bound_violation_raises():
    surface = IntensitySurface(W1, lambda pts: np.full(pts.shape[0], 50.0), 10.0)
    with pytest.raises(BoundViolationError):
        simulate_poisson(surface, seed=0)


def test_lgcp_zero_variance_rejected():
    base = constant_surface(W1, 400.0)
    with pytest.raises(ValueError):
        simulate_lgcp(base, GrfSpec(0.0, 0.2), 64, 64, seed=1)


def test_lgcp_surface_constant_injection():
    base = constant_surface(W1, 400.0)
    g = GridField(W1, 8, 8, np.full((8, 8), 0.7))
    cond = lgcp_surface(base, g, sigma2=0.2)
    pts = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
    expected = 400.0 * math.exp(0.7 - 2.0 / 0.2)
    assert np.allclose(cond(pts), expected, rtol=1e-12)


def _lattice_exp_correction(window, nx, ny, spec, sub=6):
    """E exp(G(u)) averaged over the window for bilinearly interpolated G."""
    dx = window.width / (nx - 1)
    dy = window.height / (ny - 1)
    c = {
        "00": spec.variance,
        "x": spec.covariance(dx), "y": spec.covariance(dy),
        "d": spec.covariance(math.hypot(dx, dy)),
    }
    fs = (np.arange(sub) + 0.5) / sub
    total = 0.0
    for fx in fs:
        for fy in fs:
            w = np.array([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy])
            cov = np.array([
                [c["00"], c["x"], c["y"], c["d"]],
                [c["x"], c["00"], c["d"], c["y"]],
                [c["y"], c["d"], c["00"], c["x"]],
                [c["d"], c["y"], c["x"], c["00"]],
            ])
            total += math.exp(0.5 * float(w @ cov @ w))
    return total / sub ** 2


@pytest.mark.parametrize("sigma2", [0.2, 2.0])
def test_lgcp_mean_count_matches_lognormal_oracle(sigma2):
    base = constant_surface(W1, 400.0)
    spec = GrfSpec(sigma2, 0.2)
    nx = ny = 64
    correction = _lattice_exp_correction(W1, nx, ny, spec)
    target = 400.0 * W1.area() * math.exp(-2.0 / sigma2) * correction
    counts = np.array([simulate_lgcp(base, spec, nx, ny, seed=s).count()
                       for s in range(500)])
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - target) <= 3 * max(se, 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_thinning_partitions_pattern(V, seed):
    pat = simulate_poisson(constant_surface(W1, 80.0), seed=5)
    marked = v_fold_thin(pat, V, seed)
    parts = [fold(marked, v) for v in range(1, V + 1)]
    assert sum(p.count() for p in parts) == pat.count()
    stacked = np.vstack([p.points for p in parts if p.count()])
    assert np.array_equal(np.sort(stacked, axis=0), np.sort(pat.points, axis=0))
    comp = fold_complement(marked, 1)
    assert comp.count() + parts[0].count() == pat.count()


def test_thinning_invalid_fold_count():
    pat = simulate_poisson(constant_surface(W1, 30.0), seed=5)
    with pytest.raises(ValueError):
        v_fold_thin(pat, 1, 0)


def test_fold_requires_marks():
    pat = simulate_poisson(constant_surface(W1, 30.0), seed=5)
    with pytest.raises(UnmarkedPatternError):
        fold(pat, 1)


def test_two_fold_complement_is_other_fold():
    pat = simulate_poisson(constant_surface(W1, 60.0), seed=2)
    marked = v_fold_thin(pat, 2, seed=10)
    f2 = fold(marked, 2)
    comp1 = fold_complement(marked, 1)
    assert np.array_equal(f2.points, comp1.points)


@pytest.fixture(scope="module")
def thinning_counts():
    surface = constant_surface(W1, 100.0)
    counts = np.empty((1000, 4))
    for s in range(1000):
        pat = simulate_poisson(surface, seed=s)
        marked = v_fold_thin(pat, 4, seed=10_000 + s)
        counts[s] = [fold(marked, v).count() for v in range(1, 5)]
    return counts


def test_fold_mean_counts(thinning_counts):
    for v in range(4):
        col = thinning_counts[:, v]
        se = col.std(ddof=1) / math.sqrt(len(col))
        assert abs(col.mean() - 25.0) <= 3 * se


def test_fold_counts_uncorrelated_for_poisson(thinning_counts):
    r = np.corrcoef(thinning_counts[:, 0], thinning_counts[:, 1])[0, 1]
    assert abs(r) <= 3.0 / math.sqrt(len(thinning_counts))


def test_fold_counts_positively_correlated_for_clustered_input():
    # strong latent field makes sibling fold counts co-vary
    base = constant_surface(W1, 400.0)
    spec = GrfSpec(2.0, 0.2)
    n1, n2 = [], []
    for s in range(400):
        pat = simulate_lgcp(base, spec, 64, 64, seed=s)
        marked = v_fold_thin(pat, 2, seed=77_000 + s)
        n1.append(fold(marked, 1).count())
        n2.append(fold(marked, 2).count())
    r = np.corrcoef(n1, n2)[0, 1]
    assert r > 3.0 / math.sqrt(400)


def test_complement_intensity_fraction():
    surface = constant_surface(W1, 90.0)
    counts = []
    for s in range(600):
        pat = simulate_poisson(surface, seed=s)
        marked = v_fold_thin(pat, 3, seed=50_000 + s)
        counts.append(fold_complement(marked, 1).count())
    counts = np.array(counts)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 60.0) <= 3 * se


def test_campbell_sum_trivial():
    pat = simulate_poisson(constant_surface(W1, 70.0), seed=4)
    assert campbell_sum(pat, lambda x, y: np.ones_like(x)) == pat.count()
    assert campbell_sum(pat, lambda x, y: np.zeros_like(x)) == 0.0


def test_campbell_sum_linear_functional():
    surface = constant_surface(W1, 50.0)
    sums = np.array([campbell_sum(simulate_poisson(surface, seed=s), lambda x, y: x)
                     for s in range(1000)])
    se = sums.std(ddof=1) / math.sqrt(len(sums))
    assert abs(sums.mean() - 25.0) <= 3 * se


def test_campbell_sum_indicator_functional():
    surface = constant_surface(W1, 50.0)
    f = lambda x, y: (x < 0.5).astype(float)
    sums = np.array([campbell_sum(simulate_poisson(surface, seed=s), f)
                     for s in range(1000)])
    se = sums.std(ddof=1) / math.sqrt(len(sums))
    assert abs(sums.mean() - 25.0) <= 3 * se


def test_pattern_file_roundtrip(tmp_path):
    pat = simulate_poisson(constant_surface(W1, 40.0), seed=21)
    marked = v_fold_thin(pat, 3, seed=5)
    for p in (pat, marked):
        path = tmp_path / "pat.txt"
        write_pattern_file(p, path)
        back = read_pattern_file(path)
        assert back.window == p.window
        assert np.array_equal(back.points, p.points)
        if p.marks is None:
            assert back.marks is None
        else:
            assert np.array_equal(back.marks, p.marks)


def test_pattern_file_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 1 1 2\n0.5 0.5\nnot-a-number 0.2\n")
    with pytest.raises(ParseError) as exc:
        read_pattern_file(path)
    assert exc.value.line_no == 3
