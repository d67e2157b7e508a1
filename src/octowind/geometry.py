"""Coordinate geometry of the three octonionic model spaces.

Each model space has a radial domain, the drift of its radial
diffusion, the rate of the angular clock, and the coordinate chart linking
the inhomogeneous coordinate w to the geodesic distance r from the origin:

* flat:        r in (0, inf),   drift 7/(2r),       clock 1/r^2,          r = |w|
* projective:  r in (0, pi/2),  drift 7 cot(2r),    clock 4/sin^2(2r),    r = arctan|w|
* hyperbolic:  r in (0, inf),   drift 7 coth(2r),   clock 4/sinh^2(2r),   r = artanh|w|

The drift and the clock rate of a space are one function of r, evaluated once
per radial step: the projective clock is evaluated as 4 (1 + cot^2 2r) from
the drift's tan(2r), and the hyperbolic drift as p coth r + q tanh r
(p = q = 7/2 untilted) from one tanh(r).

The coordinate SDE dw = sigma dW + f w dt has sigma = sec^2 r = 1 + |w|^2
(projective), sech^2 r = 1 - |w|^2 (hyperbolic) or 1 (flat), so its
coefficients are polynomials in |w|^2.

All of this is written down once, in the table ``SPACES`` of
:class:`SpaceSpec`; the functions below and the simulators read it.  The
public functions accept scalars or numpy arrays for r / w_norm.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

#: Radial floor: a radial step landing below it is redone implicitly, and a
#: start point (or a coordinate path) must stay above it.
R_MIN = 1e-6


class ModelSpace(enum.Enum):
    FLAT = "flat"
    PROJECTIVE = "projective"
    HYPERBOLIC = "hyperbolic"

    @property
    def spec(self) -> "SpaceSpec":
        return SPACES[self]


@dataclass(frozen=True)
class SpaceSpec:
    """One model space: radial law, clock, chart and coordinate SDE.

    The radial domain is (0, r_hi) and the chart covers |w| in [0, norm_hi).
    ``radial(tilt)`` returns the radial law under a tilt (None for the
    untilted law), r -> (drift b(r), clock rate), together with the solver
    of the implicit radial step x - b(x) dt = target; the clock rate does not
    depend on the tilt.  A law takes an array or a float; past r = 1e154 (flat)
    or 177.5 (hyperbolic), where the rate is below 1e-307, it holds the rate at
    its value there (1e-308, ~7.2e-308) rather than overflow.  ``radius`` and
    ``norm`` are the chart |w| -> r and its inverse; they do not validate.  The
    coordinate SDE has sigma = 1 - drift_sign |w|^2 and drift factor
    drift_sign * k * sigma, k = 6 (Ito) or 7 (Stratonovich).  Coordinate
    stepping stops at ``chart_ceiling``.
    """

    r_hi: float
    norm_hi: float
    chart_ceiling: float
    drift_sign: float
    radial: Callable
    radius: Callable
    norm: Callable

    def coefficients(self, norm_sq, stratonovich: bool):
        """Unchecked (sigma, drift_factor) of the coordinate SDE at |w|^2 = norm_sq."""
        sig = 1.0 - self.drift_sign * norm_sq
        return sig, ((7.0 if stratonovich else 6.0) * self.drift_sign) * sig


def _bisect(drift, target, dt, hi):
    """Root of x - b(x) dt = target in (1e-14, hi), b = ``drift``;
    the drifts decrease strictly in x, so the root is unique."""
    lo = np.full_like(target, 1e-14)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        neg = mid - drift(mid) * dt - target < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def _flat_radial(tilt):
    mu = 0.0 if tilt is None else float(tilt)
    k = (7.0 + 2.0 * mu) / 2.0
    if k <= 0:
        raise DomainError("flat tilt must keep the Bessel drift positive (mu > -3.5)")

    def law(r):
        # Past r = 1e154, where r * r would overflow, the rate is held at 1e-308.  np.square, not ** 2,
        # which on a NumPy scalar calls pow and can be 1 ulp off r * r.
        return k / r, 1.0 / np.square(np.minimum(r, 1e154))
    return law, lambda target, dt: 0.5 * (target + np.sqrt(target * target + 4.0 * k * dt))


def _projective_radial(tilt):
    if tilt is not None:
        raise DomainError("tilted simulation is not defined for the projective space")

    def law(r):
        # 4 / sin^2(2r) = 4 (1 + cot^2 2r): one tan serves the drift and the clock.
        tn = np.tan(2.0 * r)
        return 7.0 / tn, 4.0 + 4.0 / tn ** 2
    # The drift alone would cost the same tan, so the solve reads the law's first field.
    return law, lambda target, dt: _bisect(lambda x: law(x)[0], target, dt, np.full_like(target, math.pi / 2 - 1e-14))


def _hyperbolic_radial(tilt):
    # Tilt (a_hat, b_hat); untilted, 7 coth(2r) = 3.5 (coth r + tanh r).
    a_hat, b_hat = (0.0, 0.0) if tilt is None else tilt
    p, q = float(a_hat) + 3.5, float(b_hat) + 3.5

    def drift(r):
        th = np.tanh(r)
        return p / th + q * th

    def law(r):
        # Past r = 177.5, where sinh(2r)^2 nears overflow, the rate is held at ~7.2e-308.
        return drift(r), 4.0 / np.sinh(2.0 * np.minimum(r, 177.5)) ** 2

    # For x >= 1, |b(x)| <= |p| / tanh 1 + |q|, so x - b(x) dt - target > 0 at this hi.
    b_max = abs(p) / math.tanh(1.0) + abs(q)
    return law, lambda target, dt: _bisect(drift, target, dt, np.maximum(target, 0.0) + 1.0 + dt * b_max)


# The projective chart degenerates near pi/2.  The hyperbolic one only loses
# floating-point resolution as |w| -> 1 (its radius is clamped there rather
# than infinite), and the flat one never does, but at r = 15 the clock rate
# is ~1e-12 and the radial route is cheaper.
SPACES = {
    ModelSpace.FLAT: SpaceSpec(
        r_hi=math.inf, norm_hi=math.inf, chart_ceiling=15.0, drift_sign=0.0,
        radial=_flat_radial, radius=np.asarray, norm=np.asarray),
    ModelSpace.PROJECTIVE: SpaceSpec(
        r_hi=math.pi / 2, norm_hi=math.inf, chart_ceiling=1.45, drift_sign=-1.0,
        radial=_projective_radial, radius=np.arctan, norm=np.tan),
    ModelSpace.HYPERBOLIC: SpaceSpec(
        r_hi=math.inf, norm_hi=1.0, chart_ceiling=15.0, drift_sign=1.0,
        radial=_hyperbolic_radial, radius=lambda u: np.arctanh(np.minimum(u, 1.0 - 1e-15)),
        norm=np.tanh),
}


def _scalar(x):
    return x if np.ndim(x) else float(x)


def _check_radial(space: ModelSpace, r) -> np.ndarray:
    r = np.array(r, dtype=float)
    if not np.all((0.0 < r) & (r < space.spec.r_hi)):  # NaN fails it too
        raise DomainError(f"radius outside the open domain (0.0, {space.spec.r_hi}) of {space.value}")
    return r


def _check_norm(space: ModelSpace, w_norm) -> np.ndarray:
    w_norm = np.array(w_norm, dtype=float)
    if not np.all((0.0 <= w_norm) & (w_norm < space.spec.norm_hi)):
        raise DomainError(f"coordinate norm outside [0.0, {space.spec.norm_hi}) of the {space.value} chart")
    return w_norm


def _check_coefficient_norm(space: ModelSpace, w_norm) -> np.ndarray:
    """A norm of the chart at most 1e153: past ~5e153 the drift factor 7 (1 + |w|^2) overflows."""
    w_norm = _check_norm(space, w_norm)
    if not np.all(w_norm <= 1e153):
        raise DomainError(f"the {space.value} SDE coefficients require |w| <= 1e153, past which they overflow")
    return w_norm


def clock_rate(space: ModelSpace, r):
    """Integrand of the angular clock A_t = int_0^t clock_rate(r(s)) ds, for r >= 1e-154:
    near the origin every rate is about 1 / r^2, which overflows below that."""
    r = _check_radial(space, r)
    if not np.all(r >= 1e-154):
        raise DomainError(f"clock_rate requires r >= 1e-154, below which the {space.value} rate overflows")
    return _scalar(space.spec.radial(None)[0](r)[1])


def coord_radius(space: ModelSpace, w_norm):
    """Geodesic distance r from the origin for a coordinate of norm |w|."""
    return _scalar(space.spec.radius(_check_norm(space, w_norm)))


def coord_norm(space: ModelSpace, r):
    """Inverse of :func:`coord_radius`: the coordinate norm at distance r."""
    return _scalar(space.spec.norm(_check_radial(space, r)))


def sde_coefficients(space: ModelSpace, w_norm):
    """Scalar coefficients (drift_factor, diffusion) of the coordinate SDE.

    The Ito SDE reads dw = diffusion * dW + drift_factor * w dt, with

    * flat:        (0, 1)
    * projective:  (-6 sec^2 r, sec^2 r) = (-6 (1 + |w|^2), 1 + |w|^2)
    * hyperbolic:  (+6 sech^2 r, sech^2 r) = (6 (1 - |w|^2), 1 - |w|^2)

    evaluated at r = coord_radius(space, |w|), for |w| <= 1e153.
    """
    w_norm = _check_coefficient_norm(space, w_norm)
    sig, factor = space.spec.coefficients(w_norm * w_norm, stratonovich=False)
    return _scalar(factor), _scalar(sig)


def stratonovich_drift_factor(space: ModelSpace, w_norm):
    """Drift factor of the Stratonovich form of the coordinate SDE.

    The Ito-to-Stratonovich correction for the isotropic diffusion
    sigma(|w|) I_8 is (1/2) sigma sigma'(|w|) w/|w|, which shifts the drift
    factor by -sec^2 r (projective) and +sech^2 r (hyperbolic): -7 (1 + |w|^2)
    and 7 (1 - |w|^2).  It takes |w| <= 1e153, as :func:`sde_coefficients` does.
    """
    w_norm = _check_coefficient_norm(space, w_norm)
    return _scalar(space.spec.coefficients(w_norm * w_norm, stratonovich=True)[1])
