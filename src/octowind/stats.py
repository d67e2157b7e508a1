"""Monte Carlo estimators and distributional tests for winding samples.

Estimators take a batched result of the drivers in :mod:`octowind.mc`: an
object with ``zeta`` (n, 7) and, optionally, ``clock_end`` (n,).  SciPy is
imported by the two functions that call it: :func:`gaussian_test` loads
``scipy.special`` for the normal CDF and :func:`stationary_mean_clock_rate`
``scipy.integrate``.  The KS statistics are computed here, without the
p-value that ``scipy.stats.kstest`` would add, so nothing loads ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ModelSpace


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float


@dataclass(frozen=True)
class GaussTestReport:
    ks_per_marginal: np.ndarray       # 7 KS statistics vs the standard normal
    cov_matrix: np.ndarray            # 7x7 sample covariance
    max_offdiag: float
    passed: bool


def mc_charfn(result, lambda_norm: float) -> McEstimate:
    """Monte Carlo estimate of E[exp(i lambda . zeta)], a function of |lambda| = ``lambda_norm``.

    When clock values are attached, the conditional (Rao-Blackwellized)
    estimator exp(-|lambda|^2 A_t / 2) is used; otherwise cos(|lambda| zeta_1).
    """
    zeta, clock = result.zeta, getattr(result, "clock_end", None)
    if zeta is None and clock is None:
        raise DomainError("result carries neither windings nor clock values")
    lam = float(lambda_norm)
    if not abs(lam) <= math.inf:  # NaN fails it
        raise DomainError(f"mc_charfn requires |lambda| <= inf, not {lam!r}")
    if clock is not None:
        with np.errstate(over="ignore"):  # past the double range the exponent is -inf, and the draw its limit 0
            draws = np.exp(-0.5 * (lam * lam) * clock)
    else:
        draws = np.cos(lam * zeta[:, 0])
    n = draws.size
    if n == 0:
        raise DomainError("empty result")
    value = float(draws.mean())
    se = float(draws.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value=value, std_error=se)


def _ks_statistic(samples: np.ndarray, cdf) -> np.ndarray:
    """Two-sided one-sample KS statistic of ``samples`` against ``cdf``, along the last axis.

    With the samples sorted and F their CDF values, D = max(max(i/n - F_i),
    max(F_i - (i-1)/n)): the statistic of ``scipy.stats.kstest``, bit for bit,
    without its p-value.  A row that holds a NaN gives NaN.
    """
    f = cdf(np.sort(samples, axis=-1))
    n = f.shape[-1]
    d_plus = (np.arange(1.0, n + 1) / n - f).max(axis=-1)
    d_minus = (f - np.arange(0.0, n) / n).max(axis=-1)
    return np.maximum(d_plus, d_minus)


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
    from scipy.special import ndtr  # the standard normal CDF that scipy.stats.norm.cdf evaluates

    zeta = result.zeta
    if zeta is None:
        raise DomainError("gaussian_test needs winding samples")
    if np.ndim(zeta) != 2 or np.shape(zeta)[1] != 7:
        raise DomainError(f"gaussian_test needs windings of shape (n, 7), not {np.shape(zeta)}")
    if len(zeta) < 100:
        raise DomainError("gaussian_test needs at least 100 samples")
    target_cov = np.asarray(target_cov, dtype=float)
    if target_cov.shape != (7, 7):
        raise DomainError(f"target covariance must be 7x7, not {target_cov.shape}")
    diag = np.diag(target_cov)
    if not (np.all(np.isfinite(target_cov)) and np.all(diag > 0)):
        raise DomainError("target covariance must be finite with a positive diagonal")
    ks = _ks_statistic((zeta / np.sqrt(diag)).T, ndtr)
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
    from scipy import integrate

    law = ModelSpace.PROJECTIVE.spec.radial(None)[0]
    norm, _ = integrate.quad(lambda u: math.sin(2 * u) ** 7, 0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-13)
    val, _ = integrate.quad(lambda u: float(law(u)[1]) * math.sin(2 * u) ** 7,
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

    def cdf(r):
        # The integral of sin^7(2u) over (0, r), a polynomial in c = cos 2r, over its total 16/35.
        c = np.cos(2.0 * r)
        return 0.5 - 35.0 / 32.0 * (c - c ** 3 + 0.6 * c ** 5 - c ** 7 / 7.0)
    return float(_ks_statistic(samples, cdf))
