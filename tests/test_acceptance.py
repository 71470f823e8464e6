"""Acceptance gate: every criterion prints one PASS/FAIL line and asserts it.

Heavy Monte Carlo scenarios run once each in module-scoped fixtures at desk
scale (200 replications, parallelism 2).
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from helpers import intensity_surface
from mc_cache import run_scenario_cached

from ppcf.fields import GrfSpec, make_window, simulate_grf
from ppcf.harness import Scenario, _wald_reports
from ppcf.inference import PcfModel, pcf_correction, semi_sandwich_terms, lfd_values
from ppcf.model import ModelSpec, build_quadrature, pseudo_likelihood
from ppcf.nuisance import KernelSpec, NuisanceFit
from ppcf.process import PointPattern, constant_surface, simulate_poisson, v_fold_thin

W1 = make_window(0, 0, 1, 1)
PAR = 2


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def w1_ind_linear_full():
    s = Scenario(window="W1", process="poisson", covariates="ind", nuisance="linear",
                 pcf_mode="none", reps=200, base_seed=20_240, estimators=("semi",))
    return run_scenario_cached(s, parallelism=PAR)


@pytest.fixture(scope="module")
def w1_ind_linear(w1_ind_linear_full):
    return w1_ind_linear_full[0]["semi"]


@pytest.fixture(scope="module")
def w2_ind_linear_full():
    s = Scenario(window="W2", process="poisson", covariates="ind", nuisance="linear",
                 pcf_mode="none", reps=200, base_seed=20_241, estimators=("semi",))
    return run_scenario_cached(s, parallelism=PAR)


@pytest.fixture(scope="module")
def w2_ind_linear(w2_ind_linear_full):
    return w2_ind_linear_full[0]["semi"]


@pytest.fixture(scope="module")
def lgcp_w2_known():
    s = Scenario(window="W2", process="lgcp", covariates="ind", nuisance="linear",
                 pcf_mode="known", reps=200, base_seed=20_242, estimators=("semi",))
    rows, _ = run_scenario_cached(s, parallelism=PAR)
    return rows["semi"]


@pytest.fixture(scope="module")
def lgcp_w1_estimated_full():
    s = Scenario(window="W1", process="lgcp", covariates="ind", nuisance="linear",
                 pcf_mode="estimated", reps=200, base_seed=20_243, estimators=("semi",))
    return run_scenario_cached(s, parallelism=PAR)


@pytest.fixture(scope="module")
def lgcp_w1_estimated(lgcp_w1_estimated_full):
    return lgcp_w1_estimated_full[0]["semi"]


@pytest.fixture(scope="module")
def w2_dep_poly():
    s = Scenario(window="W2", process="poisson", covariates="dep", nuisance="poly",
                 pcf_mode="none", reps=200, base_seed=20_244,
                 estimators=("semi", "para"))
    rows, _ = run_scenario_cached(s, parallelism=PAR)
    return rows


# ---------------------------------------------------------------- criteria


def test_criterion_01_thinning_laws():
    surface = constant_surface(W1, 100.0)
    counts = np.empty((1000, 4))
    for s in range(1000):
        pat = simulate_poisson(surface, seed=s)
        marked = v_fold_thin(pat, 4, seed=500_000 + s)
        counts[s] = [np.sum(marked.marks == v) for v in range(1, 5)]
    ok = True
    details = []
    for v in range(4):
        col = counts[:, v]
        se = col.std(ddof=1) / math.sqrt(1000)
        ok &= abs(col.mean() - 25.0) <= 3 * se
        details.append(f"fold{v + 1} mean {col.mean():.3f}")
    totals = counts.sum(axis=0)
    expected = totals.sum() / 4.0
    stat = float(np.sum((totals - expected) ** 2 / expected))
    p = float(chi2.sf(stat, df=3))
    ok &= p >= 0.001
    r12 = float(np.corrcoef(counts[:, 0], counts[:, 1])[0, 1])
    ok &= abs(r12) <= 3.0 / math.sqrt(1000)
    _report(1, "thinning laws (fold means, multinomial chi-square, independence)",
            ok, f"{'; '.join(details)}; chi2 p={p:.4f}; corr={r12:+.4f}")


def test_criterion_02_mean_zero_score():
    kernel = KernelSpec(2, 0.45)
    scores = []
    for r in range(500):
        ss = np.random.SeedSequence(77_000 + r)
        seeds = [int(c.generate_state(1)[0]) for c in ss.spawn(3)]
        y = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seeds[0])
        z = simulate_grf(W1, 128, 128, GrfSpec(1.0, 0.05), seeds[1])
        spec = ModelSpec([y], [z])
        eta = lambda Z: math.log(400.0) + 0.3 * Z[:, 0]
        surface = intensity_surface(spec, np.array([0.3]), eta)
        pattern = simulate_poisson(surface, seeds[2])
        if pattern.count() == 0:
            continue
        quad = build_quadrature(pattern, 64)
        nf = NuisanceFit(spec, quad, kernel)
        scores.append(pseudo_likelihood(spec, nf, quad, 1.0)(np.array([0.3]))[1][0])
    scores = np.array(scores)
    se = scores.std(ddof=1) / math.sqrt(len(scores))
    ok = abs(scores.mean()) <= 3 * se
    _report(2, "mean-zero profile score at the truth", ok,
            f"mean={scores.mean():+.3f} (3 MC SE = {3 * se:.3f}, n={len(scores)})")


def test_criterion_03_gradient_exactness():
    rng = np.random.default_rng(618)
    worst = 0.0
    for i in range(20):
        nx = int(rng.integers(32, 64))
        y = simulate_grf(W1, nx, nx, GrfSpec(1.0, 0.15), seed=int(rng.integers(1e6)))
        z = simulate_grf(W1, nx, nx, GrfSpec(1.0, 0.15), seed=int(rng.integers(1e6)))
        spec = ModelSpec([y], [z])
        rate = float(rng.uniform(80, 300))
        eta = lambda Z, r=rate: math.log(r) + 0.25 * Z[:, 0]
        surface = intensity_surface(spec, np.array([0.3]), eta)
        pattern = simulate_poisson(surface, seed=int(rng.integers(1e6)))
        if pattern.count() < 5:
            continue
        quad = build_quadrature(pattern, int(rng.integers(8, 24)))
        nf = NuisanceFit(spec, quad,
                         KernelSpec(2, float(rng.uniform(0.3, 0.8))),
                         scale=float(rng.choice([1.0, 2.0])))
        theta = np.array([float(rng.uniform(-0.4, 0.7))])
        scale = float(rng.choice([1.0, 0.5]))
        # the objective profile_maximize runs on
        evaluate = pseudo_likelihood(spec, nf, quad, scale)
        _, s, h = evaluate(theta)
        s_val, h_val = s[0], h[0, 0]
        step = 1e-5
        lp, sp = evaluate(theta + step)[:2]
        lm, sm = evaluate(theta - step)[:2]
        fd_s = (lp - lm) / (2 * step)
        fd_h = (sp[0] - sm[0]) / (2 * step)
        rel_s = abs(s_val - fd_s) / max(abs(s_val), abs(fd_s), 1.0)
        rel_h = abs(h_val - fd_h) / max(abs(h_val), abs(fd_h), 1.0)
        worst = max(worst, rel_s, rel_h)
    ok = worst <= 1e-5
    _report(3, "analytic score/Hessian match finite differences", ok,
            f"worst relative error {worst:.2e}")


def test_criterion_04_closed_form_nuisance():
    from test_nuisance import golden_argmax_longdouble
    y = simulate_grf(W1, 96, 96, GrfSpec(1.0, 0.08), seed=911)
    z = simulate_grf(W1, 96, 96, GrfSpec(1.0, 0.08), seed=912)
    spec = ModelSpec([y], [z])
    eta = lambda Z: math.log(350.0) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=913)
    quad = build_quadrature(pattern, 32)
    nf = NuisanceFit(spec, quad, KernelSpec(2, 0.45), scale=2.0)
    _, Zd = spec.covariates_at(pattern.points)
    z_lo, z_hi = np.quantile(Zd[:, 0], [0.05, 0.95])
    rng = np.random.default_rng(355)
    worst = 0.0
    for _ in range(50):
        theta = np.array([float(rng.uniform(-0.5, 0.8))])
        zv = np.array([float(rng.uniform(z_lo, z_hi))])
        closed = nf.exact(theta, zv, 0)[0][0]
        golden = golden_argmax_longdouble(nf, theta, zv)
        worst = max(worst, abs(closed - golden))
    ok = worst <= 1e-8
    _report(4, "closed-form nuisance equals golden-section argmax", ok,
            f"worst |difference| {worst:.2e}")


def test_criterion_05_poisson_coverage(w1_ind_linear):
    row = w1_ind_linear
    ok = (90.0 <= row.cp95 <= 99.0
          and abs(row.bias_x100) <= 2.0
          and 0.023 <= row.rmse <= 0.070)
    _report(5, "Poisson W1 ind linear coverage/bias/rMSE", ok,
            f"CP95={row.cp95:.1f} bias_x100={row.bias_x100:+.3f} rmse={row.rmse:.4f} "
            f"(n={row.reps_converged})")


def test_criterion_06_window_scaling(w1_ind_linear, w2_ind_linear):
    ratio = w2_ind_linear.rmse / w1_ind_linear.rmse
    ok = 0.35 <= ratio <= 0.70
    _report(6, "rMSE(W2)/rMSE(W1) in [0.35, 0.70]", ok,
            f"ratio={ratio:.3f} (rmse W1={w1_ind_linear.rmse:.4f}, "
            f"W2={w2_ind_linear.rmse:.4f})")


def test_criterion_07_lgcp_coverage(lgcp_w2_known, lgcp_w1_estimated):
    ok_known = 91.0 <= lgcp_w2_known.cp95_star <= 99.0
    ok_est = lgcp_w1_estimated.cp95 >= 85.0
    _report(7, "LGCP coverage (W2 known-PCF CP95*; W1 estimated-PCF floor)",
            ok_known and ok_est,
            f"CP95*={lgcp_w2_known.cp95_star:.1f}; W1 estimated CP95="
            f"{lgcp_w1_estimated.cp95:.1f}")


def test_criterion_08_misspecification_separation(w2_dep_poly):
    semi, para = w2_dep_poly["semi"], w2_dep_poly["para"]
    ok = (abs(para.bias_x100) >= 2.0 * abs(semi.bias_x100)
          and para.cp95 <= semi.cp95 - 3.0)
    _report(8, "parametric misspecification separation on W2 poly-dep", ok,
            f"bias_x100 semi={semi.bias_x100:+.3f} para={para.bias_x100:+.3f}; "
            f"CP95 semi={semi.cp95:.1f} para={para.cp95:.1f}")


def test_criterion_09_sigma_equals_s_for_poisson_pcf():
    y = simulate_grf(W1, 64, 64, GrfSpec(1.0, 0.1), seed=41)
    z = simulate_grf(W1, 64, 64, GrfSpec(1.0, 0.1), seed=42)
    spec = ModelSpec([y], [z])
    eta = lambda Z: math.log(250.0) + 0.3 * Z[:, 0]
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=43)
    quad = build_quadrature(pattern, 32)
    nf = NuisanceFit(spec, quad, KernelSpec(2, 0.45))
    theta = np.array([0.31])
    nu = lambda Z: lfd_values(nf, theta, Z)
    S, a, _ = semi_sandwich_terms(spec, theta, eta, nu, quad)
    # the production path: stacked PCF double sum per variant, then Wald reports
    pcfs = {"poisson": PcfModel(), "zero": PcfModel(0.0, 0.2)}
    reports = _wald_reports({"semi": (theta, S, a)}, pcfs, quad, spec.k)["semi"]
    worst = 0.0
    for rep in reports.values():
        worst = max(worst, float(np.max(np.abs(rep.Sigma_hat - S)) / np.max(np.abs(S))))
    ok = worst <= 1e-12
    _report(9, "Sigma-hat equals S-hat when g = 1", ok, f"worst rel dev {worst:.2e}")


def test_criterion_10_truncated_double_sum_oracle():
    from test_inference import pcf_double_sum_brute
    rng = np.random.default_rng(1009)
    pattern = PointPattern(W1, rng.uniform(0, 1, size=(25, 2)))
    quad = build_quadrature(pattern, 13)        # 169 grid + 25 data = 194 nodes
    assert quad.m() <= 200
    a = np.full((quad.m(), 1), 0.0)
    a[:, 0] = quad.weights * 50.0               # y = 1, lambda = 50, nu = 0
    # moderate sigma2 keeps the truncated tail nonzero but inside tolerance
    pcf = PcfModel(sigma2=2.0, phi=0.02)
    (fast,) = pcf_correction(quad, a, pcf)
    brute = pcf_double_sum_brute(quad, a, pcf, truncated=False)
    rel = float(np.max(np.abs(fast - brute)) / np.max(np.abs(brute)))
    ok = rel <= 1e-6
    _report(10, "truncated PCF double sum matches untruncated brute force", ok,
            f"relative gap {rel:.2e} (r_trunc={pcf.truncation_radius(W1):.4f})")


def test_criterion_11_quadrature_convergence():
    from test_model import FixedCurve
    y = simulate_grf(W1, 96, 96, GrfSpec(1.0, 0.2), seed=71)
    z = simulate_grf(W1, 96, 96, GrfSpec(1.0, 0.2), seed=72)
    spec = ModelSpec([y], [z])
    eta = lambda Z: math.log(200.0) + 0.3 * Z[:, 0] - 0.05 * Z[:, 0] ** 2
    surface = intensity_surface(spec, np.array([0.3]), eta)
    pattern = simulate_poisson(surface, seed=73)
    theta = np.array([0.3])
    vals = {g: pseudo_likelihood(spec, FixedCurve(eta, k=1), build_quadrature(pattern, g),
                                 1.0)(theta)[0]
            for g in (16, 64, 256, 512)}
    gaps = [abs(vals[g] - vals[512]) for g in (16, 64, 256)]
    rel_final = gaps[-1] / abs(vals[512])
    ok = gaps[0] > gaps[1] > gaps[2] and rel_final < 1e-3
    _report(11, "pseudo-likelihood quadrature refinement", ok,
            f"gaps {gaps[0]:.3e} > {gaps[1]:.3e} > {gaps[2]:.3e}; "
            f"final rel {rel_final:.2e}")


def test_table2_mean_se_band(w1_ind_linear):
    # mean reported SE tracks the paper's 0.0459 within a factor [0.5, 1.5]
    assert 0.5 * 0.0459 <= w1_ind_linear.mean_se <= 1.5 * 0.0459


def test_sensitivity_mean_stabilizes_across_windows(w1_ind_linear_full,
                                                    w2_ind_linear_full):
    # |A|^-1 S-hat is recoverable from the Poisson SEs: se = (S-hat)^(-1/2)
    def s_bar(full, area):
        _, records = full
        return np.array([1.0 / (r["estimators"]["semi"]["variants"]["none"]["se"] ** 2
                                * area)
                         for r in records if r.get("ok")])
    s1 = s_bar(w1_ind_linear_full, 1.0)
    s2 = s_bar(w2_ind_linear_full, 4.0)
    rel_change = abs(s2.mean() - s1.mean()) / s1.mean()
    rel_se_w1 = s1.std(ddof=1) / math.sqrt(len(s1)) / s1.mean()
    assert rel_change <= max(3 * rel_se_w1, 0.05)


def test_known_vs_estimated_pcf_ordering(lgcp_w1_estimated_full):
    _, records = lgcp_w1_estimated_full
    se_est, se_known, hit_est, hit_known = [], [], [], []
    for r in records:
        if not r.get("ok"):
            continue
        v = r["estimators"]["semi"]["variants"]
        se_est.append(v["estimated"]["se"])
        se_known.append(v["known"]["se"])
        hit_est.append(v["estimated"]["hit95"])
        hit_known.append(v["known"]["hit95"])
    diff = np.array(se_known) - np.array(se_est)
    se_of_diff = diff.std(ddof=1) / math.sqrt(len(diff))
    # estimated-PCF SEs do not exceed the true-PCF SEs beyond noise, and
    # coverage with the true PCF is at least as close to nominal
    assert np.mean(se_est) <= np.mean(se_known) + 3 * se_of_diff
    cp_est = 100.0 * np.mean(hit_est)
    cp_known = 100.0 * np.mean(hit_known)
    assert abs(cp_known - 95.0) <= abs(cp_est - 95.0) + 1.0


def test_criterion_12_cli_determinism(tmp_path):
    from ppcf.cli import main as cli_main
    out1 = tmp_path / "run1.csv"
    out8 = tmp_path / "run8.csv"
    cli_main(["table", "--table", "2", "--reps", "2", "--seed", "31415",
              "--parallelism", "1", "--out", str(out1)])
    cli_main(["table", "--table", "2", "--reps", "2", "--seed", "31415",
              "--parallelism", "8", "--out", str(out8)])
    same_csv = out1.read_bytes() == out8.read_bytes()
    same_side = (tmp_path / "run1.csv.jsonl").read_bytes() == \
        (tmp_path / "run8.csv.jsonl").read_bytes()
    ok = same_csv and same_side
    _report(12, "CLI runs bit-reproducible across parallelism 1 vs 8", ok,
            f"csv identical={same_csv}, sidecar identical={same_side}")
