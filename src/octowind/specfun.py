"""Closed-form quantities for the winding laws on the three model spaces.

Contains the modified Bessel function of real order, the finite-time
flat-space transform by quadrature, the three limiting characteristic
functions, and the hyperbolic moment cascade under the tilted measure.
SciPy is imported by the two functions that call it, so the other closed
forms run without loading it.  Each closed form states its own range and
raises DomainError outside it, so callers ask it rather than restate it.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, QuadratureError

#: Relative tolerance of the flat_laplace quadrature.
QUAD_RTOL = 1e-8

#: Largest |lambda| the closed forms take; the hyperbolic limit's correction grows like |lambda|^3.
LAMBDA_MAX = sys.float_info.max ** (1.0 / 3.0)

#: Largest order and argument scipy.special.ive evaluates; it returns NaN past them.  The bound
#: is that of the AMOS routine behind it (D. E. Amos, ACM TOMS Algorithm 644, 1986).
IVE_MAX = 2.0 ** 30 - 0.5


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


def flat_laplace(rho: float, t: float, lambda_norm: float) -> float:
    """Finite-time transform E_rho[exp(-|lambda|^2 A_t / 2)] on the flat space.

    Integrates the Bessel(8) endpoint density against the Hartman-Watson
    ratio E[exp(-|lambda|^2 A_t / 2) | R(t) = r] = I_nu(z) / I_3(z), z = rho r / t,
    reduced to a single quadrature in the rescaled endpoint variable:
    (t / rho^2)^1.5 * int r^4 exp(-(r - c)^2 / 2) ive(nu, c r) dr with
    c = rho / sqrt(t).  The exponentially scaled Bessel function absorbs the
    prefactor exp(-rho^2 / 2t), so no factor overflows for small t.

    The window is [c - 39, c + 39] cut at 0, where the Gaussian factor is not
    0.0 in double precision, or [0, 16 + 3c] below c = 11.5, which holds the
    mass of the lambda = 0 integrand (~ r^7 e^(-r^2/2) c^3 / 48 at small c).
    Raises DomainError where the order or the window's largest argument c * hi
    exceeds IVE_MAX, or where c < 1e-100 (the lambda = 0 integral c^3 nears the subnormals).
    """
    from scipy import integrate, special

    if not (rho > 0 and t > 0):
        raise DomainError("flat_laplace requires rho > 0 and t > 0")
    nu = order_from_lambda(lambda_norm)
    c = rho / math.sqrt(t)
    lo, hi = max(0.0, c - 39.0), min(16.0 + 3.0 * c, c + 39.0)
    if not (c >= 1e-100 and max(nu, c * hi) <= IVE_MAX):
        raise DomainError(f"flat_laplace requires rho / sqrt(t) >= 1e-100, and the order {nu:.4g} and the "
                          f"Bessel argument {c * hi:.4g} <= IVE_MAX = {IVE_MAX!r}")

    def integrand(r):
        return r ** 4 * math.exp(-0.5 * (r - c) ** 2) * special.ive(nu, c * r)

    value, err = integrate.quad(integrand, lo, hi, points=[c], epsabs=0.0, epsrel=QUAD_RTOL, limit=300)
    if not math.isfinite(value) or (value > 0 and err > 10 * QUAD_RTOL * value):
        raise QuadratureError(f"flat_laplace quadrature error {err:.3g} for value {value:.3g}")
    return (t / rho / rho) ** 1.5 * value


def flat_limit_charfn(lambda_norm: float) -> float:
    """Limiting characteristic function of sqrt(6/log t) * zeta(t) on the flat space."""
    return math.exp(-0.5 * float(lambda_norm) ** 2)


def op1_limit_charfn(lambda_norm: float) -> float:
    """Limiting characteristic function of zeta(t)/sqrt(t) on the projective space."""
    return math.exp(-7.0 / 3.0 * float(lambda_norm) ** 2)


def oh1_limit_charfn(lambda_norm: float, r0: float) -> float:
    """Long-time limit of E[exp(i lambda . zeta(t))] on the hyperbolic space.

    tanh(r0)^(nu-3) * (1 + (6 nu - 18) A / cosh^6(r0)) with nu = sqrt(9 + |lambda|^2) and A
    the cosh-polynomial correction, in q = e^{-2 r0}: log tanh(r0) = -log1p(2q / (1 - q)) and
    sech^2(r0) = 4q / (1 + q)^2, so no factor rounds tanh(r0) or overflows.
    """
    if not r0 >= sys.float_info.min:  # below it 2q / (1 - q) overflows
        raise DomainError(f"oh1_limit_charfn requires r0 >= {sys.float_info.min!r}")
    lam = float(lambda_norm)
    nu, q = order_from_lambda(lam), math.exp(-2.0 * r0)
    log_tanh = -math.log1p(2.0 * q / -math.expm1(-2.0 * r0))
    s = 4.0 * q / (1.0 + q) ** 2
    a_ch6 = s / 12.0 + (nu - 2.0) * s * s / 60.0 + (lam * lam - 3.0 * nu + 11.0) * s ** 3 / 720.0
    return math.exp((nu - 3.0) * log_tanh) * (1.0 + (6.0 * nu - 18.0) * a_ch6)


def oh1_limit_charfn_expanded(lambda_norm: float, r0: float) -> float:
    """Algebraically expanded form of the hyperbolic limit (cross-check).

    tanh(r0)^(nu-3) / cosh^6(r0) * (cosh^6(r0) + (6 nu - 18) A), in cosh(r0)
    itself; must agree with :func:`oh1_limit_charfn` to rounding.
    """
    r_max = math.acosh(sys.float_info.max ** (1.0 / 6.0))
    if not 0 < r0 <= r_max:
        raise DomainError(f"oh1_limit_charfn_expanded requires 0 < r0 <= {r_max!r}, past which cosh^6(r0) overflows")
    lam = float(lambda_norm)
    nu, ch2 = order_from_lambda(lam), math.cosh(r0) ** 2
    a = ch2 * ch2 / 12.0 + (nu - 2.0) * ch2 / 60.0 + (lam * lam - 3.0 * nu + 11.0) / 720.0
    ch6 = math.cosh(r0) ** 6
    return math.tanh(r0) ** (nu - 3.0) / ch6 * (ch6 + (6.0 * nu - 18.0) * a)


def oh1_moment_cascade_scaled(a_hat: float, b_hat: float, r0: float, t: float):
    """Rescaled tilted moments (e^{-4t} m2, e^{-12t} m4, e^{-24t} m6).

    m2k(t) = E^(a_hat, b_hat)[cosh^{2k}(r(t))]; evaluated from the exact
    solution of the moment ODE cascade, stable for arbitrarily large t.
    Multiply back by e^{4t}, e^{12t}, e^{24t} for the moments themselves.
    """
    if r0 <= 0 or t < 0:
        raise DomainError("oh1_moment_cascade_scaled requires r0 > 0 and t >= 0")
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
