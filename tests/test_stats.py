"""Estimators and distributional tests."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from octowind import stats
from octowind.errors import DomainError
from octowind.geometry import ModelSpace


def _samples_with_clock(clocks):
    return SimpleNamespace(zeta=np.zeros((len(clocks), 7)), clock_end=np.array(clocks, dtype=float))


def test_mc_charfn_conditional_estimator_exact():
    clocks = [0.5, 1.0, 2.0]
    est = stats.mc_charfn(_samples_with_clock(clocks), 1.0)
    want = np.mean([math.exp(-0.5 * c) for c in clocks])
    assert est.value == pytest.approx(want, rel=1e-12)
    assert est.std_error > 0


def test_mc_charfn_cosine_fallback():
    zeta = np.array([[1.0, 0, 0, 0, 0, 0, 0], [2.0, 0, 0, 0, 0, 0, 0]])
    samples = SimpleNamespace(zeta=zeta, clock_end=None)
    est = stats.mc_charfn(samples, 0.7)
    assert est.value == pytest.approx(0.5 * (math.cos(0.7) + math.cos(1.4)), rel=1e-12)


def test_mc_charfn_needs_windings_or_clock():
    with pytest.raises(DomainError, match="neither"):
        stats.mc_charfn(SimpleNamespace(zeta=None, clock_end=None), 1.0)


def test_mc_charfn_accepts_batched_result():
    res = SimpleNamespace(zeta=None, clock_end=np.array([1.0, 2.0]))
    est = stats.mc_charfn(res, 1.0)
    assert est.value == pytest.approx(0.5 * (math.exp(-0.5) + math.exp(-1.0)), rel=1e-12)
    # |lambda|^2 A_t / 2 past the double range: the draw is its limit 0, with no overflow warning.
    huge = SimpleNamespace(zeta=None, clock_end=np.array([1e300, 1.0]))
    assert stats.mc_charfn(huge, 1e10).value == 0.0


def test_mc_charfn_input_errors():
    for empty in (SimpleNamespace(zeta=np.zeros((0, 7)), clock_end=None),
                  SimpleNamespace(zeta=None, clock_end=np.zeros(0))):
        with pytest.raises(DomainError, match="empty result"):
            stats.mc_charfn(empty, 1.0)
    with pytest.raises(DomainError, match=r"\|lambda\| <= inf, not nan"):
        stats.mc_charfn(SimpleNamespace(zeta=None, clock_end=np.array([1.0, 2.0])), math.nan)


def test_gaussian_test_accepts_matching_samples(rng):
    zeta = rng.standard_normal((20_000, 7)) * math.sqrt(14.0 / 3.0)
    rep = stats.gaussian_test(SimpleNamespace(zeta=zeta, clock_end=None), (14.0 / 3.0) * np.eye(7))
    assert rep.passed
    assert rep.ks_per_marginal.shape == (7,) and rep.cov_matrix.shape == (7, 7)
    assert np.all(rep.ks_per_marginal < 0.02)
    assert rep.max_offdiag < 0.1


def test_gaussian_test_rejects_wrong_variance(rng):
    zeta = rng.standard_normal((20_000, 7)) * 1.25
    rep = stats.gaussian_test(SimpleNamespace(zeta=zeta, clock_end=None), np.eye(7))
    assert not rep.passed


def test_gaussian_test_needs_windings():
    with pytest.raises(DomainError, match="needs winding samples"):
        stats.gaussian_test(SimpleNamespace(zeta=None, clock_end=np.ones(200)), np.eye(7))


def test_gaussian_test_needs_enough_samples(rng):
    zeta = rng.standard_normal((50, 7))
    with pytest.raises(DomainError):
        stats.gaussian_test(SimpleNamespace(zeta=zeta, clock_end=None), np.eye(7))
    with pytest.raises(DomainError):
        stats.gaussian_test(SimpleNamespace(zeta=zeta[:200].repeat(4, 0), clock_end=None),
                            np.zeros((7, 7)))


def test_gaussian_test_refuses_malformed_input(rng):
    zeta = rng.standard_normal((200, 7))
    for cov in (np.eye(6), np.eye(8), np.full((7, 7), math.nan), np.diag([1.0] * 6 + [math.inf])):
        with pytest.raises(DomainError, match="target covariance"):
            stats.gaussian_test(SimpleNamespace(zeta=zeta, clock_end=None), cov)
    for bad in (zeta[:, :6], zeta[:, 0], zeta[:, :, None], zeta[0, 0]):
        with pytest.raises(DomainError, match="shape"):
            stats.gaussian_test(SimpleNamespace(zeta=bad, clock_end=None), np.eye(7))


def _with_ties_and_a_nan(x):
    x = x.copy()
    x[: len(x) // 3, 0] = np.round(x[: len(x) // 3, 0], 1)  # many ties
    x[3, 1] = -0.0
    x[4, 1] = 0.0
    x[len(x) // 2, -1] = math.nan  # a column whose statistic is NaN
    return x


@pytest.mark.parametrize("n", [150, 20_000])
def test_ks_statistics_equal_scipy_kstest(rng, n):
    from scipy.stats import kstest

    sigma = np.array([0.5, 1.0, 1.5, 2.0, 0.8, 1.2, 3.0])
    zeta = _with_ties_and_a_nan(rng.standard_normal((n, 7)) * sigma)
    rep = stats.gaussian_test(SimpleNamespace(zeta=zeta, clock_end=None), np.diag(sigma ** 2))
    want = [kstest(zeta[:, i] / sigma[i], "norm").statistic for i in range(7)]
    assert np.isnan(rep.ks_per_marginal[-1])
    assert np.array_equal(rep.ks_per_marginal, want, equal_nan=True)

    def cdf(r):
        c = np.cos(2.0 * r)
        return 0.5 - 35.0 / 32.0 * (c - c ** 3 + 0.6 * c ** 5 - c ** 7 / 7.0)

    for col in _with_ties_and_a_nan(rng.uniform(0.0, math.pi / 2, size=(n, 2))).T:
        got = stats.stationary_density_check(col, ModelSpace.PROJECTIVE)
        assert np.array_equal(got, kstest(col, cdf).statistic, equal_nan=True)


def test_stationary_mean_clock_rate_is_14_thirds():
    assert abs(stats.stationary_mean_clock_rate() - 14.0 / 3.0) < 1e-10


def test_stationary_density_check_accepts_exact_draws(rng):
    # Inverse-CDF sampling from sin^7(2r) itself must give a tiny KS value.
    grid = np.linspace(0.0, math.pi / 2, 8193)
    pdf = np.sin(2 * grid) ** 7
    cdf = np.cumsum(pdf)
    cdf -= cdf[0]
    cdf /= cdf[-1]
    u = rng.uniform(size=20_000)
    draws = np.interp(u, cdf, grid)
    ks = stats.stationary_density_check(draws, ModelSpace.PROJECTIVE)
    assert ks < 0.015


def test_stationary_density_check_rejects_wrong_law(rng):
    draws = rng.uniform(0.0, math.pi / 2, size=20_000)
    ks = stats.stationary_density_check(draws, ModelSpace.PROJECTIVE)
    assert ks > 0.1


def test_stationary_density_check_space_guard(rng):
    with pytest.raises(DomainError):
        stats.stationary_density_check(rng.uniform(size=10), ModelSpace.FLAT)
    with pytest.raises(DomainError):
        stats.stationary_density_check(np.array([]), ModelSpace.PROJECTIVE)
