"""Acceptance suite: the nine numbered criteria, one test each.

Each test records a one-line verdict that the conftest hook prints in the
terminal summary.  Seeds are fixed, so every run reproduces the same numbers;
the Monte Carlo tolerances are the stated multiples of the realized standard
errors.
"""

import math
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from octowind import engine, mc, specfun, stats
from octowind.geometry import ModelSpace, coord_norm
from octowind.octonion import mul_array, printed_winding, winding_form_array

from conftest import record_criterion


@pytest.fixture(autouse=True)
def _every_core(monkeypatch):
    """Run each criterion's blocks on every available core; block i draws from
    Philox stream (seed, i), so the numbers do not depend on the worker count."""
    monkeypatch.setenv("OCTOWIND_WORKERS", str(len(os.sched_getaffinity(0))))


def _wrap(zeta):
    return SimpleNamespace(zeta=zeta, clock_end=None)


# ---------------------------------------------------------------------------
# 1. Octonion algebra suite

def test_criterion_1_algebra():
    rng = np.random.default_rng(101)
    x = rng.standard_normal((100_000, 8))
    y = rng.standard_normal((100_000, 8))
    xy = mul_array(x, y)
    norm_dev = float(np.max(np.abs(np.sum(xy * xy, 1) - np.sum(x * x, 1) * np.sum(y * y, 1))
                            / (np.sum(x * x, 1) * np.sum(y * y, 1))))

    xs, ys = x[:10_000], y[:10_000]
    scale = float(np.abs(mul_array(xs, mul_array(xs, ys))).max())
    alt_dev = max(
        float(np.abs(mul_array(xs, mul_array(xs, ys)) - mul_array(mul_array(xs, xs), ys)).max()),
        float(np.abs(mul_array(mul_array(ys, xs), xs) - mul_array(ys, mul_array(xs, xs))).max()),
    ) / scale

    v = rng.standard_normal((10_000, 8))
    eta_dev = float(np.abs(winding_form_array(xs, v) - printed_winding(xs, v)).max())

    passed = norm_dev < 1e-12 and alt_dev < 1e-12 and eta_dev < 1e-12
    record_criterion(1, passed,
                     f"norm dev {norm_dev:.2e}, alternativity dev {alt_dev:.2e}, "
                     f"eta coordinate dev {eta_dev:.2e} (all < 1e-12)")
    assert passed


# ---------------------------------------------------------------------------
# 2. Flat finite-time transform

def test_criterion_2_flat_finite_time():
    res = mc.run_radial_mc(ModelSpace.FLAT, 1.0, 10.0, 1e-3, 100_000, seed=501)
    details = []
    passed = True
    for ln in (0.5, 1.0, 2.0):
        est = stats.mc_charfn(res, ln)
        closed = specfun.flat_laplace(1.0, 10.0, ln)
        z = (est.value - closed) / est.std_error
        passed = passed and abs(est.value - closed) <= 3.0 * est.std_error
        details.append(f"|lambda|={ln:g}: mc {est.value:.5f} vs quad {closed:.5f} (z={z:+.2f})")
    record_criterion(2, passed, "; ".join(details) + " — all within 3 SE")
    assert passed


# ---------------------------------------------------------------------------
# 3. Flat limit at t = 1e8

def _flat_exact_mean_clock(t_end: float, rho: float = 1.0) -> float:
    """E[A_t] for the flat radial process by quadrature (Poisson mixture).

    E[1/X_s] = (1/2s) E[1/(3+N)] with N ~ Poisson(rho^2 / 2s) for the
    squared Bessel(8) process X; integrate over s on a log grid.
    """
    from scipy import integrate

    def e_inv(s):
        kap = rho * rho / (2.0 * s)
        if kap > 700.0:
            return 1.0 / (rho * rho)
        n = np.arange(0, int(kap + 40.0 * math.sqrt(kap + 1.0)) + 50)
        logp = n * math.log(kap) - kap - np.array([math.lgamma(k + 1) for k in n])
        return float(np.sum(np.exp(logp) / (3.0 + n))) / (2.0 * s)

    val, _ = integrate.quad(lambda u: e_inv(math.exp(u)) * math.exp(u),
                            math.log(1e-8), math.log(t_end), limit=500)
    return val


def test_criterion_3_flat_limit():
    t_end = 1e8
    res = mc.run_flat_exact_mc(1.0, t_end, 50_000, seed=502, want_winding=True)
    scale = math.sqrt(6.0 / math.log(t_end))

    est = stats.mc_charfn(res, scale * 1.0)
    limit = specfun.flat_limit_charfn(1.0)
    rel = abs(est.value - limit) / limit

    # The limit is approached at log speed; the exact finite-time variance
    # ratio (from quadrature, no simulation involved) quantifies how far the
    # marginal variances still sit from 1 at this horizon, and the diagonal
    # allowance is that gap plus Monte Carlo slack.  The KS gate is the
    # stated relaxed threshold 0.05.
    vr = 6.0 * _flat_exact_mean_clock(t_end) / math.log(t_end)
    rep = stats.gaussian_test(_wrap(res.zeta * scale), np.eye(7),
                              ks_threshold=0.05, diag_rtol=(vr - 1.0) + 0.04,
                              offdiag_atol=0.1)

    passed = rel < 0.05 and rep.passed
    record_criterion(3, passed,
                     f"scaled transform {est.value:.4f} vs e^-1/2 {limit:.4f} "
                     f"(rel {rel:.3f} < 0.05); gaussian test max KS "
                     f"{rep.ks_per_marginal.max():.4f} < 0.05, diag within "
                     f"finite-t ratio {vr:.3f} + MC slack")
    assert passed


# ---------------------------------------------------------------------------
# 4. Projective limit N(0, 14/3 I_7)

def test_criterion_4_projective_limit():
    t_end = 50.0
    res = mc.run_radial_mc(ModelSpace.PROJECTIVE, math.pi / 4, t_end, 1e-3, 10_000,
                           seed=504, want_winding=True)
    rep = stats.gaussian_test(_wrap(res.zeta / math.sqrt(t_end)),
                              (14.0 / 3.0) * np.eye(7))
    diag = np.diag(rep.cov_matrix)
    diag_ok = bool(np.all(np.abs(diag - 14.0 / 3.0) <= 0.05 * 14.0 / 3.0))
    passed = rep.passed and diag_ok
    record_criterion(4, passed,
                     f"diag in [{diag.min():.3f}, {diag.max():.3f}] vs 14/3 +- 5%; "
                     f"max |offdiag| {rep.max_offdiag:.3f} < 0.1; "
                     f"max KS {rep.ks_per_marginal.max():.4f} < 0.02")
    assert passed


# ---------------------------------------------------------------------------
# 5. Projective stationary law

def test_criterion_5_projective_stationary():
    res = mc.run_radial_mc(ModelSpace.PROJECTIVE, 0.7, 3.0, 1e-3, 20_000, seed=505)
    ks = stats.stationary_density_check(res.r_end, ModelSpace.PROJECTIVE)
    rate_err = abs(stats.stationary_mean_clock_rate() - 14.0 / 3.0)
    passed = ks < 0.02 and rate_err < 1e-10
    record_criterion(5, passed,
                     f"radial KS vs sin^7(2r) {ks:.4f} < 0.02; "
                     f"quadrature clock rate error {rate_err:.1e} < 1e-10")
    assert passed


# ---------------------------------------------------------------------------
# 6. Hyperbolic limit and tilted moment

def test_criterion_6_hyperbolic_limit():
    r0, t_end = 1.0, 20.0
    res = mc.run_radial_mc(ModelSpace.HYPERBOLIC, r0, t_end, 1e-3, 100_000,
                           seed=503, stop_rate_tol=1e-13)
    # Empirical discretization bound: the same estimator at dt and 2 dt on
    # auxiliary runs; the difference plus its combined noise bounds the step
    # size bias of the dt run.
    aux_f = mc.run_radial_mc(ModelSpace.HYPERBOLIC, r0, t_end, 1e-3, 20_000,
                             seed=511, stop_rate_tol=1e-13)
    aux_c = mc.run_radial_mc(ModelSpace.HYPERBOLIC, r0, t_end, 2e-3, 20_000,
                             seed=511, stop_rate_tol=1e-13)
    details = []
    passed = True
    for ln in (0.5, 1.0):
        est = stats.mc_charfn(res, ln)
        closed = specfun.oh1_limit_charfn(ln, r0)
        ef, ec = stats.mc_charfn(aux_f, ln), stats.mc_charfn(aux_c, ln)
        disc_bound = abs(ef.value - ec.value) + 3.0 * math.hypot(ef.std_error, ec.std_error)
        tol = 3.0 * est.std_error + disc_bound
        ok = abs(est.value - closed) <= tol
        passed = passed and ok
        details.append(f"|lambda|={ln:g}: |mc-closed| {abs(est.value - closed):.2e} "
                       f"<= 3 SE + dt-bound {tol:.2e}")

    # Tilted moment m2 at t = 1 for |lambda| = 1.
    a_hat, b_hat = specfun.hyperbolic_tilt(1.0)
    tilted = mc.run_radial_mc(ModelSpace.HYPERBOLIC, r0, 1.0, 1e-3, 100_000,
                              seed=506, tilt=(a_hat, b_hat))
    m2 = np.cosh(tilted.r_end) ** 2
    closed_m2 = specfun.oh1_moment_cascade_scaled(a_hat, b_hat, r0, 1.0)[0] * math.exp(4.0)  # m2 = e^{4t} s2
    se = m2.std(ddof=1) / math.sqrt(m2.size)
    ok = abs(m2.mean() - closed_m2) <= 3.0 * se
    passed = passed and ok
    details.append(f"tilted m2 {m2.mean():.2f} vs closed {closed_m2:.2f} "
                   f"(z={(m2.mean() - closed_m2) / se:+.2f})")
    record_criterion(6, passed, "; ".join(details))
    assert passed


# ---------------------------------------------------------------------------
# 7. Skew-product equivalence in every space

def test_criterion_7_skew_product_equivalence(monkeypatch):
    t_end = 4.0
    cases = [(ModelSpace.FLAT, 1.0), (ModelSpace.PROJECTIVE, 0.5), (ModelSpace.HYPERBOLIC, 1.0)]
    # Each coordinate run is one block on one core, so the six independent runs go to the usable
    # cores at once, each with one worker; block i draws from stream (seed, i) whatever the worker count.
    # The processes are spawned with one BLAS thread each, since forked ones keep the BLAS threads of this
    # one and those spin against each other; the one BLAS product, octonion._ETA @ x, is exact either way.
    # A spawned process starts with the default warning filters, so each turns warnings into errors again.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with ProcessPoolExecutor(max_workers=min(6, len(os.sched_getaffinity(0))),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=warnings.simplefilter, initargs=("error",)) as pool:
        jobs = []
        for space, r0 in cases:
            w0 = np.zeros(8)
            w0[0] = coord_norm(space, r0)
            jobs.append((pool.submit(mc.run_coordinate_mc, space, w0, t_end, 1e-3, 10_000, seed=509, workers=1),
                         pool.submit(mc.run_radial_mc, space, r0, t_end, 1e-3, 50_000, seed=510,
                                     want_winding=True, workers=1)))
        runs = [(line.result(), ref.result()) for line, ref in jobs]
    details = []
    passed = True
    for (space, _), (line, ref) in zip(cases, runs):
        ks = [ks_2samp(line.zeta[:, i], ref.zeta[:, i]).statistic for i in range(7)]
        ks.append(ks_2samp(np.linalg.norm(line.zeta, axis=1),
                           np.linalg.norm(ref.zeta, axis=1)).statistic)
        worst = max(ks)
        passed = passed and worst < 0.02
        details.append(f"{space.value}: max two-sample KS {worst:.4f} "
                       f"(switched {line.n_switched})")
    record_criterion(7, passed, "; ".join(details) + " — all < 0.02")
    assert passed


# ---------------------------------------------------------------------------
# 8. Girsanov identity on the flat space

def test_criterion_8_girsanov():
    t_end, ln = 5.0, 1.0
    mu = specfun.flat_tilt(ln)
    tilted = mc.run_radial_mc(ModelSpace.FLAT, 1.0, t_end, 1e-3, 100_000, seed=507, tilt=mu)
    plain = mc.run_radial_mc(ModelSpace.FLAT, 1.0, t_end, 1e-3, 100_000, seed=508)
    g = (1.0 / tilted.r_end) ** mu
    lhs, lse = float(g.mean()), float(g.std(ddof=1) / math.sqrt(g.size))
    h = np.exp(-0.5 * ln * ln * plain.clock_end)
    rhs, rse = float(h.mean()), float(h.std(ddof=1) / math.sqrt(h.size))
    comb = math.hypot(lse, rse)
    passed = abs(lhs - rhs) <= 3.0 * comb
    record_criterion(8, passed,
                     f"tilted (rho/R)^mu {lhs:.5f} vs e^(-A/2) {rhs:.5f} "
                     f"(z={(lhs - rhs) / comb:+.2f}, within 3 combined SE)")
    assert passed


# ---------------------------------------------------------------------------
# 9. Internal consistency of the hyperbolic limit formula

def test_criterion_9_oh1_internal_consistency():
    worst = 0.0
    for ln in (0.5, 1.0, 2.0):
        for r0 in (0.5, 1.0, 2.0):
            a = specfun.oh1_limit_charfn(ln, r0)
            b = specfun.oh1_limit_charfn_expanded(ln, r0)
            worst = max(worst, abs(a - b))
    passed = worst < 1e-12
    record_criterion(9, passed,
                     f"max |factored - expanded| {worst:.2e} < 1e-12 on the 3x3 grid")
    assert passed
