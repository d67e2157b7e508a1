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
    assert est.n_samples == 3
    assert est.std_error > 0


def test_mc_charfn_scalar_equals_vector():
    clocks = [0.3, 0.9, 1.7, 2.4]
    lam = np.zeros(7)
    lam[3] = 1.2
    a = stats.mc_charfn(_samples_with_clock(clocks), 1.2)
    b = stats.mc_charfn(_samples_with_clock(clocks), lam)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_mc_charfn_cosine_fallback():
    zeta = np.array([[1.0, 0, 0, 0, 0, 0, 0], [2.0, 0, 0, 0, 0, 0, 0]])
    samples = SimpleNamespace(zeta=zeta, clock_end=None)
    lam = np.zeros(7)
    lam[0] = 0.7
    est = stats.mc_charfn(samples, lam)
    assert est.value == pytest.approx(0.5 * (math.cos(0.7) + math.cos(1.4)), rel=1e-12)


def test_mc_charfn_accepts_batched_result():
    res = SimpleNamespace(zeta=None, clock_end=np.array([1.0, 2.0]))
    est = stats.mc_charfn(res, 1.0)
    assert est.value == pytest.approx(0.5 * (math.exp(-0.5) + math.exp(-1.0)), rel=1e-12)


def test_mc_charfn_input_errors():
    with pytest.raises(DomainError):
        stats.mc_charfn(SimpleNamespace(zeta=np.zeros((0, 7)), clock_end=None), 1.0)
    with pytest.raises(DomainError):
        stats.mc_charfn(_samples_with_clock([1.0]), np.ones(3))


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


def test_gaussian_test_needs_enough_samples(rng):
    zeta = rng.standard_normal((50, 7))
    with pytest.raises(DomainError):
        stats.gaussian_test(SimpleNamespace(zeta=zeta, clock_end=None), np.eye(7))
    with pytest.raises(DomainError):
        stats.gaussian_test(SimpleNamespace(zeta=zeta[:200].repeat(4, 0), clock_end=None),
                            np.zeros((7, 7)))


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
