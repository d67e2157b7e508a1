"""Radial drifts, clocks and coordinate charts of the three model spaces."""

import math
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octowind import specfun
from octowind.errors import DomainError
from octowind.geometry import (
    ModelSpace,
    clock_rate,
    coord_norm,
    coord_radius,
    sde_coefficients,
    stratonovich_drift_factor,
)

SPACES = (ModelSpace.FLAT, ModelSpace.PROJECTIVE, ModelSpace.HYPERBOLIC)


def _drift(space, r):
    """Drift b(r) of the untilted radial law, read from the space's table."""
    return space.spec.radial(None)[0](np.asarray(r, dtype=float))[0]


def test_radial_drift_values():
    r = 0.8
    assert _drift(ModelSpace.FLAT, r) == pytest.approx(7.0 / (2.0 * r))
    assert _drift(ModelSpace.PROJECTIVE, r) == pytest.approx(7.0 / math.tan(2 * r))
    assert _drift(ModelSpace.HYPERBOLIC, r) == pytest.approx(7.0 / math.tanh(2 * r))


def test_hyperbolic_drift_splits_into_coth_tanh():
    # 7 coth(2r) = 3.5 (coth r + tanh r): the identity behind the zero tilt.
    r = np.linspace(0.1, 5.0, 50)
    lhs = _drift(ModelSpace.HYPERBOLIC, r)
    rhs = 3.5 * (1.0 / np.tanh(r) + np.tanh(r))
    assert np.allclose(lhs, rhs, rtol=1e-14)


def test_clock_rates():
    r = 0.6
    assert clock_rate(ModelSpace.FLAT, r) == pytest.approx(1.0 / r**2)
    assert clock_rate(ModelSpace.PROJECTIVE, r) == pytest.approx(4.0 / math.sin(2 * r) ** 2)
    assert clock_rate(ModelSpace.HYPERBOLIC, r) == pytest.approx(4.0 / math.sinh(2 * r) ** 2)


def test_hyperbolic_clock_identity():
    # 4 / sinh^2(2r) = coth^2 r + tanh^2 r - 2
    r = np.linspace(0.2, 4.0, 40)
    lhs = clock_rate(ModelSpace.HYPERBOLIC, r)
    rhs = 1.0 / np.tanh(r) ** 2 + np.tanh(r) ** 2 - 2.0
    assert np.allclose(lhs, rhs, rtol=1e-12)


# Points of each radial domain, with both ends 1e-6 away from a finite end;
# the hyperbolic clock 4/sinh^2(2r) underflows past r ~ 177.
_MP_POINTS = {
    ModelSpace.FLAT: np.geomspace(1e-6, 1e6, 1001),
    ModelSpace.PROJECTIVE: np.concatenate([np.geomspace(1e-6, 1.0, 500), np.linspace(1.0, 1.5, 500),
                                           math.pi / 2 - np.geomspace(1e-6, 0.5, 500)]),
    ModelSpace.HYPERBOLIC: np.geomspace(1e-6, 150.0, 1001),
}
_MP_LAW = {
    ModelSpace.FLAT: (lambda r: mpmath.mpf(7) / (2 * r), lambda r: 1 / r ** 2),
    ModelSpace.PROJECTIVE: (lambda r: 7 * mpmath.cot(2 * r), lambda r: 4 / mpmath.sin(2 * r) ** 2),
    ModelSpace.HYPERBOLIC: (lambda r: 7 * mpmath.coth(2 * r), lambda r: 4 / mpmath.sinh(2 * r) ** 2),
}


@pytest.mark.parametrize("space", SPACES)
def test_drift_and_clock_match_mpmath(space):
    # Against a 40-digit evaluation at the same binary points, to 1e-15 relative.
    r = _MP_POINTS[space]
    drift, clock = _drift(space, r), clock_rate(space, r)
    with mpmath.workdps(40):
        for values, exact in zip((drift, clock), _MP_LAW[space]):
            want = np.array([float(exact(mpmath.mpf(float(x)))) for x in r])
            assert np.max(np.abs(values - want) / np.abs(want)) <= 1e-15


def _two_branch_flat_rate(r):
    """The flat clock rate as a two-branch law: (1 / r)^2 for a batch that reaches r = 1e154, else 1 / (r * r)."""
    return (1.0 / r) ** 2 if not r.max(initial=0.0) < 1e154 else 1.0 / (r * r)


def _two_branch_hyperbolic_rate(r):
    """The hyperbolic clock rate as a two-branch law: 0 from r = 177.5 on, else 4 / sinh^2(2r)."""
    if not r.max(initial=0.0) < 177.5:
        r = np.where(r >= 177.5, np.inf, r)
    return 4.0 / np.sinh(2.0 * r) ** 2


_CLAMPED = [(ModelSpace.FLAT, 1e154, _two_branch_flat_rate),
            (ModelSpace.HYPERBOLIC, 177.5, _two_branch_hyperbolic_rate)]


@pytest.mark.parametrize("space,clamp,two_branch", _CLAMPED)
def test_clamped_clock_keeps_the_bits_of_the_two_branch_law(space, clamp, two_branch):
    # Below the clamp one clamped expression gives the two-branch law's rates bit for bit, on a
    # batch and on a scalar (where a NumPy scalar's ** 2 would call pow and can differ by 1 ulp).
    r = np.concatenate([np.geomspace(1e-8, np.nextafter(clamp, 0.0), 100_001),
                        np.random.default_rng(5).uniform(0.0, clamp, 100_000)[1:]])
    law = space.spec.radial(None)[0]
    assert np.array_equal(law(r)[1], two_branch(r))
    scalars = [x for x in (*r[::1000], 7.744617978025113e101) if x < clamp]  # pow's square of 7.74e101 is 1 ulp off
    assert all(clock_rate(space, x) == two_branch(np.array(x)) for x in scalars)


@pytest.mark.parametrize("space,clamp", [(space, clamp) for space, clamp, _ in _CLAMPED])
def test_clamped_clock_holds_its_rate_past_the_clamp(space, clamp):
    law = space.spec.radial(None)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = law(np.array([clamp, np.nextafter(clamp, math.inf), 2.0 * clamp, 1e300, math.inf]))[1]
        drift_nan, rate_nan = law(np.array([math.nan]))
        drift_float, rate_float = law(2.0)
    assert np.all(np.isfinite(rates)) and np.all(rates > 0) and np.all(rates <= 1e-307)
    assert np.all(rates == rates[0])  # held at its value at the clamp
    assert np.isnan(drift_nan[0]) and np.isnan(rate_nan[0])
    assert (drift_float, rate_float) == (_drift(space, 2.0), clock_rate(space, 2.0))


@pytest.mark.parametrize("space", SPACES)
def test_domain_checks(space):
    lo, hi = 0.0, space.spec.r_hi
    with pytest.raises(DomainError):
        clock_rate(space, lo)
    with pytest.raises(DomainError):
        clock_rate(space, -0.1)
    for check in (clock_rate, coord_norm, sde_coefficients, stratonovich_drift_factor):
        for x in (math.nan, [0.5, math.nan]):  # NaN fails every comparison, so it passes "x < lo or x > hi"
            with pytest.raises(DomainError):
                check(space, x)
    if math.isfinite(hi):
        with pytest.raises(DomainError):
            clock_rate(space, hi)


@pytest.mark.parametrize("space", SPACES)
def test_chart_round_trip(space):
    r = np.linspace(0.05, 1.4, 30)
    assert np.allclose(coord_radius(space, coord_norm(space, r)), r, rtol=1e-12)
    # scalar in, scalar out
    assert isinstance(coord_norm(space, 0.5), float)
    assert isinstance(coord_radius(space, 0.5), float)


# Chart norms well inside each chart, where the round trip is well conditioned.
_NORMS = {
    ModelSpace.FLAT: st.floats(1e-6, 1e6),
    ModelSpace.PROJECTIVE: st.floats(1e-6, 1e3),
    ModelSpace.HYPERBOLIC: st.floats(1e-6, 1.0 - 1e-9),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(list(_NORMS)).flatmap(lambda s: st.tuples(st.just(s), _NORMS[s])))
def test_chart_inverts_its_inverse(space_norm):
    space, u = space_norm
    r = coord_radius(space, u)
    assert 0.0 < r < space.spec.r_hi
    assert coord_norm(space, r) == pytest.approx(u, rel=1e-12)


def test_chart_values():
    assert coord_radius(ModelSpace.FLAT, 0.7) == pytest.approx(0.7)
    assert coord_radius(ModelSpace.PROJECTIVE, 1.0) == pytest.approx(math.pi / 4)
    assert coord_radius(ModelSpace.HYPERBOLIC, math.tanh(1.0)) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        coord_radius(ModelSpace.HYPERBOLIC, 1.0)
    for w_norm in (-0.1, math.nan):
        with pytest.raises(DomainError):
            coord_radius(ModelSpace.FLAT, w_norm)


def test_sde_coefficients_values():
    assert sde_coefficients(ModelSpace.FLAT, 0.3) == (0.0, 1.0)
    r = 0.9
    factor, sig = sde_coefficients(ModelSpace.PROJECTIVE, math.tan(r))
    assert sig == pytest.approx(1.0 / math.cos(r) ** 2)
    assert factor == pytest.approx(-6.0 / math.cos(r) ** 2)
    factor, sig = sde_coefficients(ModelSpace.HYPERBOLIC, math.tanh(r))
    assert sig == pytest.approx(1.0 / math.cosh(r) ** 2)
    assert factor == pytest.approx(6.0 / math.cosh(r) ** 2)


def test_stratonovich_correction():
    r = 0.7
    assert stratonovich_drift_factor(ModelSpace.FLAT, 0.5) == 0.0
    assert stratonovich_drift_factor(ModelSpace.PROJECTIVE, math.tan(r)) == pytest.approx(
        -7.0 / math.cos(r) ** 2
    )
    assert stratonovich_drift_factor(ModelSpace.HYPERBOLIC, math.tanh(r)) == pytest.approx(
        7.0 / math.cosh(r) ** 2
    )


@pytest.mark.parametrize("space", SPACES)
def test_radial_drift_consistent_with_coordinate_sde(space):
    # Independent consistency check: push the coordinate SDE through Ito's
    # formula for r = g(|w|) and recover the radial drift and unit diffusion.
    # For dw = sigma(|w|) dW + f(|w|) w dt in 8 dimensions,
    #   d|w| has drift f |w| + 7 sigma^2 / (2 |w|) and diffusion sigma,
    #   dr = g'(|w|) d|w| + (1/2) g''(|w|) sigma^2 dt.
    for r in (0.3, 0.8, 1.3):
        u = coord_norm(space, r)
        f, sig = sde_coefficients(space, u)
        h = 1e-5
        g1 = (coord_radius(space, u + h) - coord_radius(space, u - h)) / (2 * h)
        g2 = (coord_radius(space, u + h) - 2 * r + coord_radius(space, u - h)) / h**2
        drift_u = f * u + 7.0 * sig**2 / (2.0 * u)
        drift_r = g1 * drift_u + 0.5 * g2 * sig**2
        assert g1 * sig == pytest.approx(1.0, abs=1e-7)
        assert drift_r == pytest.approx(_drift(space, r), rel=1e-4)


def test_array_shapes():
    r = np.array([[0.2, 0.4], [0.6, 0.8]])
    for space in SPACES:
        assert _drift(space, r).shape == (2, 2)
        assert clock_rate(space, r).shape == (2, 2)


_SCALAR_FUNCTIONS = [partial(f, space) for f in (clock_rate, coord_norm, coord_radius, sde_coefficients,
                                                 stratonovich_drift_factor) for space in SPACES]
_SCALAR_FUNCTIONS += [specfun.flat_limit_charfn, specfun.op1_limit_charfn]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.sampled_from(_SCALAR_FUNCTIONS), st.floats())
# Below r = 1e-154 the clock rate overflows, and past |w| ~ 5e153 (|lambda| ~ 1.3e154) the square of the argument.
@example(partial(clock_rate, ModelSpace.FLAT), 1e-160)
@example(partial(clock_rate, ModelSpace.PROJECTIVE), 1e-300)
@example(partial(clock_rate, ModelSpace.HYPERBOLIC), 1e-154)
@example(partial(sde_coefficients, ModelSpace.FLAT), 1e200)
@example(partial(stratonovich_drift_factor, ModelSpace.PROJECTIVE), 6e153)
@example(specfun.flat_limit_charfn, 1.4e154)
@example(specfun.op1_limit_charfn, -1.4e154)
def test_scalar_functions_return_finite_values_or_refuse(f, x):
    # Any float, NaN, an infinity or a subnormal included: a value with no warning, or a DomainError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = f(x)
        except DomainError:
            return
    if math.isfinite(x):
        assert np.all(np.isfinite(value)), (f, x, value)
