"""Closed-form quantities for the winding laws on the three model spaces.

Contains the modified Bessel function of real order, the Hartman-Watson
conditional Laplace transform, the finite-time flat-space transform by
quadrature, the three limiting characteristic functions, and the hyperbolic
moment cascade under the tilted measure.  SciPy is imported by the three
functions that call it, so the other closed forms run without loading it.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, QuadratureError

#: Relative tolerance of the flat_laplace quadrature.
QUAD_RTOL = 1e-8

#: Largest |lambda| the closed forms take; the hyperbolic limit's correction grows like |lambda|^3.
LAMBDA_MAX = sys.float_info.max ** (1.0 / 3.0)


def order_from_lambda(lambda_norm: float) -> float:
    """Bessel order nu = sqrt(9 + |lambda|^2) attached to a frequency."""
    return math.sqrt(9.0 + float(lambda_norm) ** 2)


def flat_tilt(lambda_norm: float) -> float:
    """Drift tilt mu = sqrt(9 + |lambda|^2) - 3 for the flat radial process."""
    return order_from_lambda(lambda_norm) - 3.0


def hyperbolic_tilt(lambda_norm: float) -> tuple[float, float]:
    """Tilt pair (a_hat, b_hat), the roots of x^2 + 6x - |lambda|^2 = 0."""
    nu = order_from_lambda(lambda_norm)
    return -3.0 + nu, -3.0 - nu


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x) for nu >= 0, x >= 0 (scipy.special.iv).

    Raises QuadratureError where the value overflows a double (x beyond ~713).
    """
    from scipy import special

    nu = float(nu)
    x = float(x)
    if nu < 0 or x < 0:
        raise DomainError("bessel_i requires nu >= 0 and x >= 0")
    value = float(special.iv(nu, x))
    if not math.isfinite(value):
        raise QuadratureError(f"I_{nu:g}({x:g}) overflows a double")
    return value


def hartman_watson_ratio(lambda_norm: float, rho: float, r: float, t: float) -> float:
    """Conditional transform E[exp(-|lambda|^2 A_t / 2) | R(t) = r].

    Equals I_nu(z) / I_3(z) at z = rho r / t with nu = sqrt(9 + |lambda|^2);
    lies in (0, 1] because the order nu is at least 3 (a value below the
    smallest double rounds to 0).  The exponentially scaled Bessel functions
    give it wherever both are normal doubles; below that (small z) it comes
    from the power series in log space, and where they are NaN (z >= 2^30)
    from the Hankel expansion.
    """
    from scipy import special

    if rho <= 0 or r <= 0 or t <= 0:
        raise DomainError("hartman_watson_ratio requires positive rho, r, t")
    nu = order_from_lambda(lambda_norm)
    z = rho * r / t
    if nu == 3.0:
        return 1.0
    num, den = special.ive(nu, z), special.ive(3.0, z)
    if num >= sys.float_info.min and den >= sys.float_info.min:
        return float(num / den)
    if math.isnan(num) or math.isnan(den):
        return _hankel_sum(nu, z) / _hankel_sum(3.0, z)
    if z == 0.0:  # rho r / t underflowed; the ratio's limit
        return 0.0
    log_ratio = ((nu - 3.0) * math.log(0.5 * z) + math.lgamma(4.0) - math.lgamma(nu + 1.0)
                 + math.log(_power_sum(nu, z) / _power_sum(3.0, z)))
    return math.exp(log_ratio)


def _power_sum(nu: float, z: float) -> float:
    """I_nu(z) / ((z/2)^nu / Gamma(nu + 1)), summed from its power series."""
    q = 0.25 * z * z
    term = total = 1.0
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= q / (k * (nu + k))
        total += term
    return total


def _hankel_sum(nu: float, z: float) -> float:
    """sqrt(2 pi z) exp(-z) I_nu(z) from the first terms of Hankel's large-z
    expansion; accurate to rounding for z >= 2^30 and nu up to ~1e3."""
    mu = 4.0 * nu * nu
    term = total = 1.0
    for k in range(1, 6):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        total += term
    return total


def flat_laplace(rho: float, t: float, lambda_norm: float) -> float:
    """Finite-time transform E_rho[exp(-|lambda|^2 A_t / 2)] on the flat space.

    Integrates the Bessel(8) endpoint density against the Hartman-Watson
    ratio, reduced to a single quadrature in the rescaled endpoint variable:
    t^1.5 / rho^3 * int r^4 exp(-(r - c)^2 / 2) ive(nu, c r) dr with
    c = rho / sqrt(t).  The exponentially scaled Bessel function absorbs the
    prefactor exp(-rho^2 / 2t), so no factor overflows for small t.
    """
    from scipy import integrate, special

    if rho <= 0 or t <= 0:
        raise DomainError("flat_laplace requires rho > 0 and t > 0")
    nu = order_from_lambda(lambda_norm)
    c = rho / math.sqrt(t)

    def integrand(r):
        return r ** 4 * math.exp(-0.5 * (r - c) ** 2) * special.ive(nu, c * r)

    r_cut = 16.0 + 3.0 * c
    value, err = integrate.quad(integrand, 0.0, r_cut, points=[c], epsabs=0.0, epsrel=QUAD_RTOL, limit=300)
    if not math.isfinite(value) or (value > 0 and err > 10 * QUAD_RTOL * value):
        raise QuadratureError(f"flat_laplace quadrature error {err:.3g} for value {value:.3g}")
    return t ** 1.5 / rho ** 3 * value


def flat_limit_charfn(lambda_norm: float) -> float:
    """Limiting characteristic function of sqrt(6/log t) * zeta(t) on the flat space."""
    return math.exp(-0.5 * float(lambda_norm) ** 2)


def op1_limit_charfn(lambda_norm: float) -> float:
    """Limiting characteristic function of zeta(t)/sqrt(t) on the projective space."""
    return math.exp(-7.0 / 3.0 * float(lambda_norm) ** 2)


def _oh1_terms(lambda_norm: float, r0: float) -> tuple[float, float]:
    """The order nu and the polynomial correction A multiplying (6 nu - 18) in the limit."""
    nu = order_from_lambda(lambda_norm)
    l2 = lambda_norm * lambda_norm
    ch2 = math.cosh(r0) ** 2
    return nu, ch2 * ch2 / 12.0 + (nu - 2.0) * ch2 / 60.0 + (l2 - 3.0 * nu + 11.0) / 720.0


def oh1_limit_charfn(lambda_norm: float, r0: float) -> float:
    """Long-time limit of E[exp(i lambda . zeta(t))] on the hyperbolic space.

    tanh(r0)^(nu-3) * (1 + (6 nu - 18) A / cosh^6(r0)) with
    nu = sqrt(9 + |lambda|^2) and A the cosh-polynomial correction.
    """
    if r0 <= 0:
        raise DomainError("oh1_limit_charfn requires r0 > 0")
    nu, a = _oh1_terms(float(lambda_norm), r0)
    return math.tanh(r0) ** (nu - 3.0) * (1.0 + (6.0 * nu - 18.0) * a / math.cosh(r0) ** 6)


def oh1_limit_charfn_expanded(lambda_norm: float, r0: float) -> float:
    """Algebraically expanded form of the hyperbolic limit (cross-check).

    tanh(r0)^(nu-3) / cosh^6(r0) * (cosh^6(r0) + (6 nu - 18) A); must agree
    with :func:`oh1_limit_charfn` to rounding.
    """
    if r0 <= 0:
        raise DomainError("oh1_limit_charfn_expanded requires r0 > 0")
    nu, a = _oh1_terms(float(lambda_norm), r0)
    ch6 = math.cosh(r0) ** 6
    return math.tanh(r0) ** (nu - 3.0) / ch6 * (ch6 + (6.0 * nu - 18.0) * a)


def oh1_moment_cascade_scaled(a_hat: float, b_hat: float, r0: float, t: float):
    """Rescaled tilted moments (e^{-4t} m2, e^{-12t} m4, e^{-24t} m6).

    m2k(t) = E^(a_hat, b_hat)[cosh^{2k}(r(t))]; evaluated from the exact
    solution of the moment ODE cascade, stable for arbitrarily large t.
    """
    if r0 <= 0 or t < 0:
        raise DomainError("oh1_moment_cascade requires r0 > 0 and t >= 0")
    ch2 = math.cosh(r0) ** 2
    # cosh^2 obeys m2' = 4 m2 - (2 b_hat + 8).
    k2 = (2.0 * b_hat + 8.0) / 4.0
    c2 = ch2 - k2
    e4 = math.exp(-4.0 * t)
    e12 = math.exp(-12.0 * t)
    e24 = math.exp(-24.0 * t)
    s2 = c2 + k2 * e4
    # cosh^4 obeys m4' = 12 m4 - (4 b_hat + 20) m2.
    a4 = 4.0 * b_hat + 20.0
    top4 = ch2 * ch2 - a4 * c2 / 8.0 - a4 * k2 / 12.0
    mid4 = a4 * c2 / 8.0
    low4 = a4 * k2 / 12.0
    s4 = top4 + mid4 * math.exp(-8.0 * t) + low4 * e12
    # cosh^6 obeys m6' = 24 m6 - (6 b_hat + 36) m4.
    a6 = 6.0 * b_hat + 36.0
    integral = (top4 * (1.0 - e12) / 12.0
                + mid4 * (1.0 - math.exp(-20.0 * t)) / 20.0
                + low4 * (1.0 - e24) / 24.0)
    s6 = ch2 ** 3 - a6 * integral
    return s2, s4, s6


def oh1_moment_cascade(a_hat: float, b_hat: float, r0: float, t: float):
    """Tilted moments (m2, m4, m6) of cosh^{2k}(r(t)).

    Unscaled values overflow once 24 t exceeds ~700; use
    :func:`oh1_moment_cascade_scaled` for long horizons.
    """
    s2, s4, s6 = oh1_moment_cascade_scaled(a_hat, b_hat, r0, t)
    return s2 * math.exp(4.0 * t), s4 * math.exp(12.0 * t), s6 * math.exp(24.0 * t)
