"""Coordinate geometry of the three octonionic model spaces.

Each space is described by its radial domain, the drift of its radial
diffusion, the rate of the angular clock, and the coordinate chart linking
the inhomogeneous coordinate w to the geodesic distance r from the origin:

* flat:        r in (0, inf),   drift 7/(2r),       clock 1/r^2,          r = |w|
* projective:  r in (0, pi/2),  drift 7 cot(2r),    clock 4/sin^2(2r),    r = arctan|w|
* hyperbolic:  r in (0, inf),   drift 7 coth(2r),   clock 4/sinh^2(2r),   r = artanh|w|

The coordinate SDE dw = sigma dW + f w dt has sigma = sec^2 r = 1 + |w|^2
(projective), sech^2 r = 1 - |w|^2 (hyperbolic) or 1 (flat), so its
coefficients are polynomials in |w|^2.

All functions accept scalars or numpy arrays for r / w_norm.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError
from .octonion import Octonion


class ModelSpace(enum.Enum):
    FLAT = "flat"
    PROJECTIVE = "projective"
    HYPERBOLIC = "hyperbolic"

    @classmethod
    def parse(cls, name: str) -> "ModelSpace":
        try:
            return cls(name.lower())
        except ValueError:
            raise DomainError(f"unknown model space {name!r}") from None


#: Open radial domain (lo, hi) of each space.
RADIAL_DOMAIN = {
    ModelSpace.FLAT: (0.0, math.inf),
    ModelSpace.PROJECTIVE: (0.0, math.pi / 2),
    ModelSpace.HYPERBOLIC: (0.0, math.inf),
}


def _check_radial(space: ModelSpace, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    lo, hi = RADIAL_DOMAIN[space]
    if np.any(r <= lo) or np.any(r >= hi):
        raise DomainError(f"radius outside the open domain ({lo}, {hi}) of {space.value}")
    return r


def radial_drift(space: ModelSpace, r):
    """Drift b(r) of the radial diffusion dr = b(r) dt + dB."""
    r = _check_radial(space, r)
    if space is ModelSpace.FLAT:
        out = 3.5 / r
    elif space is ModelSpace.PROJECTIVE:
        out = 7.0 / np.tan(2.0 * r)
    else:
        out = 7.0 / np.tanh(2.0 * r)
    return out if out.ndim else float(out)


def clock_rate(space: ModelSpace, r):
    """Integrand of the angular clock A_t = int_0^t clock_rate(r(s)) ds."""
    r = _check_radial(space, r)
    if space is ModelSpace.FLAT:
        out = 1.0 / (r * r)
    elif space is ModelSpace.PROJECTIVE:
        out = 4.0 / np.sin(2.0 * r) ** 2
    else:
        out = 4.0 / np.sinh(2.0 * r) ** 2
    return out if out.ndim else float(out)


def _check_norm(space: ModelSpace, w_norm) -> np.ndarray:
    w_norm = np.asarray(w_norm, dtype=float)
    if np.any(w_norm < 0):
        raise DomainError("coordinate norm must be nonnegative")
    if space is ModelSpace.HYPERBOLIC and np.any(w_norm >= 1.0):
        raise DomainError("hyperbolic chart requires |w| < 1")
    return w_norm


def coord_radius(space: ModelSpace, w_norm):
    """Geodesic distance r from the origin for a coordinate of norm |w|."""
    w_norm = _check_norm(space, w_norm)
    if space is ModelSpace.FLAT:
        out = w_norm.copy()
    elif space is ModelSpace.PROJECTIVE:
        out = np.arctan(w_norm)
    else:
        out = np.arctanh(w_norm)
    return out if out.ndim else float(out)


def coord_norm(space: ModelSpace, r):
    """Inverse of :func:`coord_radius`: the coordinate norm at distance r."""
    r = _check_radial(space, r)
    if space is ModelSpace.FLAT:
        out = r.copy()
    elif space is ModelSpace.PROJECTIVE:
        out = np.tan(r)
    else:
        out = np.tanh(r)
    return out if out.ndim else float(out)


# Per space (s, c): sigma = 1 + s |w|^2 and drift factor c k sigma, because
# sec^2(arctan u) = 1 + u^2 and sech^2(artanh u) = 1 - u^2.
_CHART_SIGNS = {
    ModelSpace.FLAT: (0.0, 0.0),
    ModelSpace.PROJECTIVE: (1.0, -1.0),
    ModelSpace.HYPERBOLIC: (-1.0, 1.0),
}


def coord_coefficients(space: ModelSpace, norm_sq, stratonovich: bool):
    """Unchecked (sigma, drift_factor) of the coordinate SDE at |w|^2 = norm_sq.

    sigma is 1 (flat), 1 + |w|^2 (projective) or 1 - |w|^2 (hyperbolic); the
    drift factor is k = 6 (Ito) or 7 (Stratonovich) times -sigma, +sigma or
    0.  The path simulators call this on every step; the public functions
    below validate first.
    """
    s, c = _CHART_SIGNS[space]
    sig = 1.0 + s * norm_sq
    return sig, ((7.0 if stratonovich else 6.0) * c) * sig


def _scalar(x):
    return x if np.ndim(x) else float(x)


def sde_coefficients(space: ModelSpace, w_norm):
    """Scalar coefficients (drift_factor, diffusion) of the coordinate SDE.

    The Ito SDE reads dw = diffusion * dW + drift_factor * w dt, with

    * flat:        (0, 1)
    * projective:  (-6 sec^2 r, sec^2 r) = (-6 (1 + |w|^2), 1 + |w|^2)
    * hyperbolic:  (+6 sech^2 r, sech^2 r) = (6 (1 - |w|^2), 1 - |w|^2)

    evaluated at r = coord_radius(space, |w|).
    """
    w_norm = _check_norm(space, w_norm)
    sig, factor = coord_coefficients(space, w_norm * w_norm, stratonovich=False)
    return _scalar(factor), _scalar(sig)


def stratonovich_drift_factor(space: ModelSpace, w_norm):
    """Drift factor of the Stratonovich form of the coordinate SDE.

    The Ito-to-Stratonovich correction for the isotropic diffusion
    sigma(|w|) I_8 is (1/2) sigma sigma'(|w|) w/|w|, which shifts the drift
    factor by -sec^2 r (projective) and +sech^2 r (hyperbolic): -7 (1 + |w|^2)
    and 7 (1 - |w|^2).
    """
    w_norm = _check_norm(space, w_norm)
    return _scalar(coord_coefficients(space, w_norm * w_norm, stratonovich=True)[1])


def coordinate_sde_coeffs(space: ModelSpace, w: Octonion) -> tuple[Octonion, float]:
    """Drift octonion and scalar diffusion of the coordinate SDE at w."""
    wn = float(np.linalg.norm(w.c))
    factor, sig = sde_coefficients(space, wn)
    return Octonion(w.c * factor), float(sig)
