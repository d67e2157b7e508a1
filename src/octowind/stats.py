"""Monte Carlo estimators and distributional tests for winding samples.

Estimators take a batched result of the drivers in :mod:`octowind.mc`: an
object with ``zeta`` (n, 7) and, optionally, ``clock_end`` (n,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate, stats as spstats

from .errors import DomainError
from .geometry import ModelSpace


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class GaussTestReport:
    ks_per_marginal: np.ndarray       # 7 KS statistics vs the standard normal
    cov_matrix: np.ndarray            # 7x7 sample covariance
    max_offdiag: float
    passed: bool


def _gather(result) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(zeta (n, 7), clock (n,) or None) of a batched result."""
    zeta = result.zeta
    clock = getattr(result, "clock_end", None)
    if zeta is None and clock is None:
        raise DomainError("result carries neither windings nor clock values")
    n = len(zeta) if zeta is not None else len(clock)
    if n == 0:
        raise DomainError("empty result")
    return (zeta if zeta is not None else np.zeros((n, 7))), clock


def mc_charfn(result, lam) -> McEstimate:
    """Monte Carlo estimate of the characteristic function E[exp(i lam . zeta)].

    When clock values are attached, the conditional (Rao-Blackwellized)
    estimator exp(-|lam|^2 A_t / 2) is used; otherwise cos(lam . zeta).
    Either way the estimator is real and even in lam.
    """
    zeta, clock = _gather(result)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        direction = np.zeros(7)
        direction[0] = 1.0
        lam = abs(float(lam)) * direction
    if lam.shape != (7,):
        raise DomainError("lambda must be a scalar norm or a 7-vector")
    if clock is not None:
        draws = np.exp(-0.5 * float(lam @ lam) * clock)
    else:
        draws = np.cos(zeta @ lam)
    n = draws.size
    value = float(draws.mean())
    se = float(draws.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value=value, std_error=se, n_samples=n)


def gaussian_test(
    result,
    target_cov,
    ks_threshold: float = 0.02,
    diag_rtol: float = 0.05,
    offdiag_atol: float = 0.1,
) -> GaussTestReport:
    """Test winding samples against N(0, target_cov).

    Each marginal is standardized by the target standard deviation and
    compared to the standard normal CDF by a one-sample KS statistic; the
    sample covariance must match the target within the stated tolerances.
    """
    zeta, _ = _gather(result)
    if len(zeta) < 100:
        raise DomainError("gaussian_test needs at least 100 samples")
    target_cov = np.asarray(target_cov, dtype=float)
    if np.isscalar(target_cov) or target_cov.ndim == 0:
        target_cov = float(target_cov) * np.eye(7)
    diag = np.diag(target_cov)
    if np.any(diag <= 0):
        raise DomainError("target covariance is degenerate")
    ks = np.array([
        spstats.kstest(zeta[:, i] / math.sqrt(diag[i]), "norm").statistic
        for i in range(7)
    ])
    cov = np.cov(zeta, rowvar=False)
    off = cov - np.diag(np.diag(cov))
    max_offdiag = float(np.abs(off).max())
    diag_ok = bool(np.all(np.abs(np.diag(cov) - diag) <= diag_rtol * diag))
    off_ok = bool(np.abs(off - (target_cov - np.diag(diag))).max() <= offdiag_atol)
    passed = bool(np.all(ks < ks_threshold)) and diag_ok and off_ok
    return GaussTestReport(
        ks_per_marginal=ks,
        cov_matrix=cov,
        max_offdiag=max_offdiag,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Projective stationary law

def stationary_mean_clock_rate() -> float:
    """Mean of the clock rate under the projective stationary law (quadrature)."""
    norm, _ = integrate.quad(lambda u: math.sin(2 * u) ** 7, 0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-13)
    val, _ = integrate.quad(lambda u: 4.0 / math.sin(2 * u) ** 2 * math.sin(2 * u) ** 7,
                            0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-13)
    return val / norm


def stationary_density_check(radial_samples, space: ModelSpace) -> float:
    """KS distance of long-run radial samples to the stationary density.

    Only the projective space has a stationary radial law.
    """
    if space is not ModelSpace.PROJECTIVE:
        raise DomainError("stationary density check applies to the projective space only")
    samples = np.asarray(radial_samples, dtype=float)
    if samples.size == 0:
        raise DomainError("no radial samples given")
    # One quadrature per unique grid cell would be slow for 1e5 samples; use
    # a dense precomputed CDF and interpolate (grid error ~1e-9 << KS scale).
    grid = np.linspace(0.0, math.pi / 2, 4097)
    pdf = np.sin(2 * grid) ** 7
    cdf = np.concatenate([[0.0], integrate.cumulative_simpson(pdf, x=grid)])
    cdf /= cdf[-1]
    return float(spstats.kstest(samples, lambda x: np.interp(x, grid, cdf)).statistic)
