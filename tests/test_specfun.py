"""Closed-form special functions, with mpmath and calculus-based oracles."""

import math
import re
import sys

import mpmath
import pytest

from octowind import specfun
from octowind.errors import DomainError, QuadratureError


# ---------------------------------------------------------------------------
# Bessel series

@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 3.0, 3.0413812651491097, 7.25])
@pytest.mark.parametrize("x", [1e-8, 0.1, 1.0, 10.0, 80.0, 400.0])
def test_bessel_i_vs_mpmath(nu, x):
    ref = float(mpmath.besseli(nu, x))
    assert specfun.bessel_i(nu, x) == pytest.approx(ref, rel=1e-12)


def test_bessel_i_half_order_closed_form():
    # I_{1/2}(x) = sqrt(2 / (pi x)) sinh(x)
    for x in (0.3, 1.0, 5.0):
        ref = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert specfun.bessel_i(0.5, x) == pytest.approx(ref, rel=1e-13)


def test_bessel_i_edge_cases():
    assert specfun.bessel_i(0.0, 0.0) == 1.0
    assert specfun.bessel_i(2.5, 0.0) == 0.0
    with pytest.raises(DomainError):
        specfun.bessel_i(-1.0, 1.0)
    with pytest.raises(DomainError):
        specfun.bessel_i(1.0, -1.0)
    for nu, x in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError, match="nu >= 0 and x >= 0"):
            specfun.bessel_i(nu, x)
    # Large arguments are fine up to the double range; beyond it the value
    # overflows and must raise rather than return inf.
    assert specfun.bessel_i(3.0, 701.0) == pytest.approx(float(mpmath.besseli(3, 701)), rel=1e-12)
    with pytest.raises(QuadratureError):
        specfun.bessel_i(3.0, 720.0)


# ---------------------------------------------------------------------------
# Tilt parameters

def test_order_and_tilts():
    assert specfun.order_from_lambda(0.0) == pytest.approx(3.0)
    assert specfun.order_from_lambda(4.0) == pytest.approx(5.0)
    assert specfun.flat_tilt(4.0) == pytest.approx(2.0)
    for ln in (0.5, 1.0, 2.0):
        a_hat, b_hat = specfun.hyperbolic_tilt(ln)
        # roots of x^2 + 6x - |lambda|^2
        assert a_hat + b_hat == pytest.approx(-6.0)
        assert a_hat * b_hat == pytest.approx(-(ln**2))
        assert a_hat > 0 > b_hat


# ---------------------------------------------------------------------------
# The finite-time flat transform

def test_flat_laplace_normalization_and_monotonicity():
    assert specfun.flat_laplace(1.0, 10.0, 0.0) == pytest.approx(1.0, abs=1e-8)
    vals = [specfun.flat_laplace(1.0, 10.0, ln) for ln in (0.0, 0.5, 1.0, 2.0)]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(DomainError):
        specfun.flat_laplace(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        specfun.flat_laplace(1.0, 0.0, 1.0)


def test_flat_laplace_refuses_an_order_past_the_bessel_range():
    # scipy.special.ive is NaN past IVE_MAX; at the bound the transform is still a number.
    assert specfun.flat_laplace(1.0, 10.0, 2.0 ** 30 - 1) == 0.0
    for ln in (2.0 ** 30, 1e50):
        with pytest.raises(DomainError, match="order"):
            specfun.flat_laplace(1.0, 10.0, ln)


def test_flat_laplace_refuses_an_argument_past_the_bessel_range():
    # scipy.special.ive is NaN past IVE_MAX in the argument as well; the window's largest
    # argument is c (c + 39), so the first c that takes it past IVE_MAX is refused.
    from scipy import special
    assert math.isfinite(special.ive(3.0, specfun.IVE_MAX)) and math.isnan(special.ive(3.0, 2.0 ** 30))
    c = (math.sqrt(39.0 ** 2 + 4.0 * specfun.IVE_MAX) - 39.0) / 2.0
    while c * (c + 39.0) > specfun.IVE_MAX:
        c = math.nextafter(c, 0.0)
    while c * (c + 39.0) <= specfun.IVE_MAX:
        c = math.nextafter(c, math.inf)
    assert specfun.flat_laplace(math.nextafter(c, 0.0), 1.0, 0.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DomainError, match="argument"):
        specfun.flat_laplace(c, 1.0, 0.0)


@pytest.mark.parametrize("t", [1e300, 1e205])
def test_flat_laplace_refuses_c_below_1e_minus_100(t):
    # The lambda = 0 integral is c^3, which nears the subnormal doubles below c = 1e-100.
    assert specfun.flat_laplace(1.0, 1e190, 0.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DomainError, match="sqrt"):
        specfun.flat_laplace(1.0, t, 0.0)


@pytest.mark.parametrize("c", [5250.0, 1e4, 1.8e4, 3e4])
def test_flat_laplace_where_the_endpoint_peak_is_narrow(c):
    # The endpoint density is a peak of width 1 at r = c; an integration window of
    # length ~3c misses it from c ~ 5,250 on.  At lambda = 0 the transform is 1.
    assert specfun.flat_laplace(1.0, 1.0 / c ** 2, 0.0) == pytest.approx(1.0, abs=1e-8)
    ln = 1e4
    with mpmath.workdps(20):
        cm, nu = mpmath.mpf(c), mpmath.sqrt(9 + mpmath.mpf(ln) ** 2)
        integral = mpmath.quad(lambda r: r ** 4 * mpmath.exp(-(r - cm) ** 2 / 2 - cm * r) * mpmath.besseli(nu, cm * r),
                               [cm - 12, cm - 3, cm, cm + 3, cm + 12])
        ref = float(integral / cm ** 3)
    assert specfun.flat_laplace(1.0, 1.0 / c ** 2, ln) == pytest.approx(ref, rel=1e-10)


def test_flat_laplace_vs_mpmath_quadrature():
    # Fully independent evaluation of the same transform: mpmath Bessel and
    # mpmath quadrature.
    rho, t, ln = 1.0, 10.0, 1.0
    nu = math.sqrt(9.0 + ln * ln)
    c = rho / math.sqrt(t)
    integral = mpmath.quad(
        lambda r: r**4 * mpmath.exp(-0.5 * r * r) * mpmath.besseli(nu, c * r), [0, 25]
    )
    ref = float(mpmath.exp(-0.5 * rho * rho / t) * t**1.5 / rho**3 * integral)
    assert specfun.flat_laplace(rho, t, ln) == pytest.approx(ref, rel=1e-7)


def test_flat_laplace_short_time_expansion():
    # For small t the clock is nearly t / rho^2, so the transform is close to
    # exp(-|lambda|^2 t / (2 rho^2)).
    val = specfun.flat_laplace(3.0, 0.2, 1.0)
    assert val == pytest.approx(math.exp(-0.5 * 0.2 / 9.0), rel=2e-3)


def test_flat_laplace_extreme_regime_matches_mpmath():
    # Very small t with rho away from 0: the Bessel argument c r reaches
    # ~4000 and exp(-rho^2 / 2t) underflows, so only the exponentially
    # scaled integrand stays in double range.  mpmath needs no scaling.
    rho, t, ln = 2.0, 1e-3, 1.0
    with mpmath.workdps(30):
        nu = mpmath.sqrt(9 + ln * ln)
        c = rho / mpmath.sqrt(t)
        integral = mpmath.quad(
            lambda r: r**4 * mpmath.exp(-0.5 * r * r) * mpmath.besseli(nu, c * r), [0, c, c + 25]
        )
        ref = float(mpmath.exp(-0.5 * c * c) * mpmath.mpf(t) ** 1.5 / rho**3 * integral)
    assert specfun.flat_laplace(rho, t, ln) == pytest.approx(ref, rel=1e-11)


# ---------------------------------------------------------------------------
# Limiting characteristic functions

def test_limit_charfns_values():
    assert specfun.flat_limit_charfn(1.0) == pytest.approx(math.exp(-0.5))
    assert specfun.op1_limit_charfn(1.0) == pytest.approx(math.exp(-7.0 / 3.0))
    assert specfun.flat_limit_charfn(0.0) == 1.0
    assert specfun.op1_limit_charfn(0.0) == 1.0


def test_oh1_limit_at_zero_lambda():
    # nu = 3 at lambda = 0: the transform degenerates to 1 (total mass).
    for r0 in (0.5, 1.0, 2.0):
        assert specfun.oh1_limit_charfn(0.0, r0) == pytest.approx(1.0, rel=1e-12)


def test_limit_charfns_stay_finite_up_to_lambda_max():
    # The hyperbolic correction grows like |lambda|^3; past the bound it overflows
    # and 0 * inf makes the limit NaN.
    big = specfun.LAMBDA_MAX
    for r0 in (0.5, 1.0, 2.0):
        assert specfun.oh1_limit_charfn(big, r0) == specfun.oh1_limit_charfn_expanded(big, r0) == 0.0
    assert specfun.flat_limit_charfn(big) == specfun.op1_limit_charfn(big) == 0.0
    # Past it, below 0 or at NaN, the hyperbolic limit is refused rather than an overflow or a NaN.
    for ln in (1e200, big * 1.01, -1.0, math.nan):
        for limit in (specfun.oh1_limit_charfn, specfun.oh1_limit_charfn_expanded):
            with pytest.raises(DomainError, match=r"\|lambda\|"):
                limit(ln, 1.0)


@pytest.mark.parametrize("r0", [119.0, 120.0, 200.0, 400.0])
@pytest.mark.parametrize("ln", [1.0, 1e100, 1e102, specfun.LAMBDA_MAX])
def test_oh1_limit_stays_finite_where_cosh6_overflows(ln, r0):
    # Past r0 ~ 119, cosh^6(r0) overflows a double; the limit is still tanh(r0)^(nu-3)
    # times the correction, which mpmath evaluates with enough digits to resolve 1 - tanh(r0).
    with mpmath.workdps(400):
        nu, ch2 = mpmath.sqrt(9 + mpmath.mpf(ln) ** 2), mpmath.cosh(r0) ** 2
        a = ch2 * ch2 / 12 + (nu - 2) * ch2 / 60 + (mpmath.mpf(ln) ** 2 - 3 * nu + 11) / 720
        ref = float(mpmath.tanh(r0) ** (nu - 3) * (1 + (6 * nu - 18) * a / ch2 ** 3))
    assert specfun.oh1_limit_charfn(ln, r0) == pytest.approx(ref, rel=1e-13)


_R0_GRID = [1e-6 * (1 + 1e-9), 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 118.0, 120.0, 200.0, 350.0]


@pytest.mark.parametrize("r0", _R0_GRID)
def test_oh1_limit_vs_mpmath(r0):
    # Where tanh(r0) rounds to a double, tanh(r0)^(nu-3) and the cosh^-6 correction no longer
    # cancel in double precision unless both are written in q = e^{-2 r0}: (1e16, 20) is 0.99928.
    for ln in (0.0, 0.5, 1.0, 2.0, 10.0, 1e3, 1e8, 1e16, 1e50, 1e100, 0.999 * specfun.LAMBDA_MAX):
        with mpmath.workdps(400):
            lm = mpmath.mpf(ln)
            nu, ch2 = mpmath.sqrt(9 + lm ** 2), mpmath.cosh(r0) ** 2
            a = ch2 * ch2 / 12 + (nu - 2) * ch2 / 60 + (lm ** 2 - 3 * nu + 11) / 720
            ref = float(mpmath.tanh(r0) ** (nu - 3) * (1 + (6 * nu - 18) * a / ch2 ** 3))
        value = specfun.oh1_limit_charfn(ln, r0)
        assert abs(value) <= 1.0, (ln, value)
        if abs(ref) >= sys.float_info.min:
            assert value == pytest.approx(ref, rel=1e-12), ln


def test_oh1_expanded_refuses_r0_where_cosh6_overflows():
    r_max = math.acosh(sys.float_info.max ** (1.0 / 6.0))
    assert math.isfinite(specfun.oh1_limit_charfn_expanded(1.0, r_max))
    for r0 in (0.0, math.nextafter(r_max, math.inf), 200.0, 1000.0):
        with pytest.raises(DomainError, match=f"r0 <= {r_max!r}"):
            specfun.oh1_limit_charfn_expanded(1.0, r0)


def test_oh1_factored_and_expanded_agree():
    for ln in (0.5, 1.0, 2.0):
        for r0 in (0.5, 1.0, 2.0):
            a = specfun.oh1_limit_charfn(ln, r0)
            b = specfun.oh1_limit_charfn_expanded(ln, r0)
            assert abs(a - b) < 1e-12
    with pytest.raises(DomainError):
        specfun.oh1_limit_charfn(1.0, 0.0)


def test_oh1_limit_bounds():
    vals = [specfun.oh1_limit_charfn(ln, 1.0) for ln in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert vals == sorted(vals, reverse=True)


# ---------------------------------------------------------------------------
# Hyperbolic moment cascade

def _generator_apply(k, a_hat, b_hat, r):
    """L cosh^{2k} evaluated with exact calculus derivatives.

    L = (1/2) d^2/dr^2 + [(a_hat + 7/2) coth r + (b_hat + 7/2) tanh r] d/dr.
    """
    ch, sh = math.cosh(r), math.sinh(r)
    f1 = 2 * k * ch ** (2 * k - 1) * sh
    f2 = 2 * k * (2 * k - 1) * ch ** (2 * k - 2) * sh**2 + 2 * k * ch ** (2 * k)
    drift = (a_hat + 3.5) * ch / sh + (b_hat + 3.5) * sh / ch
    return 0.5 * f2 + drift * f1


@pytest.mark.parametrize("k,lead", [(1, 4.0), (2, 12.0), (3, 24.0)])
def test_cascade_ode_coefficients_from_generator(k, lead):
    # Applying the generator to cosh^{2k} must give the cascade right-hand
    # side: lead * cosh^{2k} - const * cosh^{2k-2} with const = 2b+8, 4b+20,
    # 6b+36 for k = 1, 2, 3.  This pins the ODE coefficients independently
    # of the closed-form solution.
    for ln in (0.7, 1.3):
        a_hat, b_hat = specfun.hyperbolic_tilt(ln)
        const = {1: 2 * b_hat + 8, 2: 4 * b_hat + 20, 3: 6 * b_hat + 36}[k]
        for r in (0.4, 1.1, 2.2):
            got = _generator_apply(k, a_hat, b_hat, r)
            ch2 = math.cosh(r) ** 2
            want = lead * ch2**k - const * ch2 ** (k - 1)
            assert got == pytest.approx(want, rel=1e-11)


def test_cascade_satisfies_its_odes():
    # Finite-difference time derivative of the closed-form moments, rescaled:
    # with s2 = e^{-4t} m2, s4 = e^{-12t} m4 and s6 = e^{-24t} m6 the cascade reads
    # s2' = -(2b+8) e^{-4t}, s4' = -(4b+20) e^{-8t} s2 and s6' = -(6b+36) e^{-12t} s4.
    b_hat = specfun.hyperbolic_tilt(1.0)[1]
    r0, t, h = 1.0, 0.6, 1e-6
    s2p, s4p, s6p = specfun.oh1_moment_cascade_scaled(1.0, r0, t + h)
    s2m, s4m, s6m = specfun.oh1_moment_cascade_scaled(1.0, r0, t - h)
    s2, s4, s6 = specfun.oh1_moment_cascade_scaled(1.0, r0, t)
    assert (s2p - s2m) / (2 * h) == pytest.approx(-(2 * b_hat + 8) * math.exp(-4 * t), rel=1e-7)
    assert (s4p - s4m) / (2 * h) == pytest.approx(-(4 * b_hat + 20) * math.exp(-8 * t) * s2, rel=1e-7)
    assert (s6p - s6m) / (2 * h) == pytest.approx(-(6 * b_hat + 36) * math.exp(-12 * t) * s4, rel=1e-7)


def test_cascade_initial_values():
    r0 = 1.3
    m2, m4, m6 = specfun.oh1_moment_cascade_scaled(0.8, r0, 0.0)  # e^0 = 1: the moments themselves
    assert m2 == pytest.approx(math.cosh(r0) ** 2, rel=1e-12)
    assert m4 == pytest.approx(math.cosh(r0) ** 4, rel=1e-12)
    assert m6 == pytest.approx(math.cosh(r0) ** 6, rel=1e-12)


def test_cascade_limit_reproduces_oh1_limit():
    # tanh(r0)^(nu-3) / cosh^6(r0) * lim e^{-24 t} m6(t) equals the limiting
    # characteristic function: consistency of the cascade with the theorem.
    for ln in (0.5, 1.0, 2.0):
        for r0 in (0.5, 1.0, 2.0):
            nu = specfun.order_from_lambda(ln)
            s6_inf = specfun.oh1_moment_cascade_scaled(ln, r0, 50.0)[2]
            val = math.tanh(r0) ** (nu - 3.0) / math.cosh(r0) ** 6 * s6_inf
            assert val == pytest.approx(specfun.oh1_limit_charfn(ln, r0), rel=1e-12)


def test_cascade_scaled_is_finite_for_long_horizons():
    s2, s4, s6 = specfun.oh1_moment_cascade_scaled(1.0, 1.0, 500.0)
    assert all(math.isfinite(v) for v in (s2, s4, s6))
    with pytest.raises(DomainError):
        specfun.oh1_moment_cascade_scaled(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        specfun.oh1_moment_cascade_scaled(1.0, 1.0, -1.0)
    # Past the r0 where cosh^6(r0) overflows, at a NaN r0 or t, or at a NaN or negative |lambda|, it refuses.
    # |lambda| = sqrt(0.61) is the tilt (0.1, -6.1).
    ln = math.sqrt(0.61)
    assert all(math.isfinite(v) for v in specfun.oh1_moment_cascade_scaled(ln, specfun.COSH6_R_MAX, 1.0))
    for lam, r0, t in ((ln, math.nextafter(specfun.COSH6_R_MAX, math.inf), 1.0), (ln, 119.0, 1.0),
                       (ln, math.inf, 1.0), (ln, math.nan, 1.0), (ln, 1.0, math.nan), (math.nan, 1.0, 1.0),
                       (-ln, 1.0, 1.0)):
        with pytest.raises(DomainError, match=re.escape(f"0 <= |lambda| <= {specfun.LAMBDA_MAX!r}, 0 < r0 <= "
                                                        f"{specfun.COSH6_R_MAX!r}, past which cosh")):
            specfun.oh1_moment_cascade_scaled(lam, r0, t)
