"""Path simulation for the radial diffusions and the winding functionals.

Two routes produce winding samples:

* time change: simulate the radial diffusion, accumulate the angular clock
  A_t by the trapezoidal rule, then draw zeta ~ N(0, A_t I_7) conditionally
  on the path (the skew-product decomposition makes this the exact law);
* line integral: simulate the coordinate process w(t) and accumulate the
  winding one-form along the path with midpoint (Stratonovich) evaluation.

The radial integrator is Euler-Maruyama with an implicit-drift substep
whenever an explicit step would leave the open radial domain; the noise is
additive, so the Ito and Stratonovich readings of the radial SDE coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SimulationError
from .geometry import (
    ModelSpace,
    RADIAL_DOMAIN,
    clock_rate,
    coord_coefficients,
    coord_radius,
)
from .octonion import winding_form_cols

EULER_MARUYAMA = "euler_maruyama"
STRATONOVICH_HEUN = "stratonovich_heun"
SCHEMES = (EULER_MARUYAMA, STRATONOVICH_HEUN)

#: Fixed default seed so out-of-the-box runs are reproducible.
DEFAULT_SEED = 20240817


def make_rng(seed: int, stream: tuple[int, ...] = ()) -> np.random.Generator:
    """Counter-based generator for a (seed, stream) pair.

    Distinct streams are statistically independent; results assembled in
    stream order are independent of scheduling.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=tuple(stream))))


@dataclass(frozen=True)
class SimConfig:
    """One path-simulation request."""

    space: ModelSpace
    t_end: float
    dt: float = 1e-3
    r0: Optional[float] = None
    w0: Optional[np.ndarray] = None
    scheme: str = STRATONOVICH_HEUN
    seed: int = DEFAULT_SEED
    r_min: float = 1e-6
    r_max: float = 1.45

    def __post_init__(self):
        if self.dt <= 0:
            raise DomainError("dt must be positive")
        if self.t_end < self.dt:
            raise DomainError("t_end must be at least dt")
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.r0 is None and self.w0 is None:
            raise DomainError("either r0 or w0 must be given")
        if self.r0 is not None:
            lo, hi = RADIAL_DOMAIN[self.space]
            hi = min(hi, self.r_max) if self.space is ModelSpace.PROJECTIVE else hi
            if not (self.r_min < self.r0 < hi):
                raise DomainError(f"r0 = {self.r0} outside ({self.r_min}, {hi}) for {self.space.value}")
        if self.w0 is not None:
            w0 = np.asarray(self.w0, dtype=float)
            if w0.shape != (8,):
                raise DomainError("w0 must have 8 components")
            object.__setattr__(self, "w0", w0)
            r = coord_radius(self.space, float(np.linalg.norm(w0)))
            hi = self.r_max if self.space is ModelSpace.PROJECTIVE else math.inf
            if not (self.r_min < r < hi):
                raise DomainError(f"w0 at radius {r:.4g} outside the chart of {self.space.value}")


@dataclass(frozen=True)
class RadialPath:
    """Discretized radial trajectory with its accumulated clock."""

    space: ModelSpace
    times: np.ndarray
    r: np.ndarray
    clock: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.clock) < 0):
            raise ValueError("clock must be nondecreasing")


@dataclass(frozen=True)
class WindingSample:
    """One Monte Carlo draw of the winding functional zeta(t)."""

    zeta: np.ndarray
    t_end: float
    clock_end: Optional[float]
    provenance: str  # "time_change" or "line_integral"
    seed: Optional[int] = None


@dataclass(frozen=True)
class CoordinatePath:
    """Discretized coordinate trajectory with the running winding integral."""

    space: ModelSpace
    times: np.ndarray
    w: np.ndarray      # (n_steps + 1, 8)
    zeta: np.ndarray   # (n_steps + 1, 7)


# ---------------------------------------------------------------------------
# Radial drifts and the implicit-drift guard

def _drift_fn(space: ModelSpace, tilt) -> Callable[[np.ndarray], np.ndarray]:
    if space is ModelSpace.FLAT:
        mu = 0.0 if tilt is None else float(tilt)
        k = (7.0 + 2.0 * mu) / 2.0
        if k <= 0:
            raise DomainError("flat tilt must keep the Bessel drift positive (mu > -3.5)")
        return lambda r: k / r
    if space is ModelSpace.PROJECTIVE:
        if tilt is not None:
            raise DomainError("tilted simulation is not defined for the projective space")
        return lambda r: 7.0 / np.tan(2.0 * r)
    if tilt is None:
        p, q = 3.5, 3.5  # (a_hat, b_hat) = (0, 0): 7 coth(2r) = 3.5 (coth r + tanh r)
    else:
        a_hat, b_hat = tilt
        p, q = float(a_hat) + 3.5, float(b_hat) + 3.5
    return lambda r: p / np.tanh(r) + q * np.tanh(r)


def _implicit_step(space: ModelSpace, drift, target: np.ndarray, dt: float, tilt) -> np.ndarray:
    """Solve x - drift(x) * dt = target on the open radial domain.

    The drifts are strictly decreasing in x, so the root is unique; the flat
    case has a closed form, the others use bisection.
    """
    if space is ModelSpace.FLAT:
        mu = 0.0 if tilt is None else float(tilt)
        k = (7.0 + 2.0 * mu) / 2.0
        return 0.5 * (target + np.sqrt(target * target + 4.0 * k * dt))
    lo = np.full_like(target, 1e-14)
    if space is ModelSpace.PROJECTIVE:
        hi = np.full_like(target, math.pi / 2 - 1e-14)
    else:
        hi = np.maximum(np.abs(target) + 1.0, 2.0)
        for _ in range(200):
            g = hi - drift(hi) * dt - target
            if np.all(g > 0):
                break
            hi = np.where(g > 0, hi, 2.0 * hi)
        else:
            raise SimulationError("implicit radial step failed to bracket a root")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        neg = mid - drift(mid) * dt - target < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def _radial_step(space, drift, tilt, r, noise, dt, lo_guard, hi_guard, t_now):
    prop = r + drift(r) * dt + noise
    bad = (prop <= lo_guard) | (prop >= hi_guard)
    if np.any(bad):
        prop = prop.copy()
        prop[bad] = _implicit_step(space, drift, (r + noise)[bad], dt, tilt)
        out = (prop <= lo_guard) | (prop >= hi_guard)
        if np.any(out):
            raise SimulationError(
                f"radial path left ({lo_guard:.3g}, {hi_guard:.3g}) at t = {t_now:.6g}",
                exit_time=t_now,
            )
    return prop


def _time_steps(t_end: float, dt: float):
    n_full = int(t_end / dt)
    rem = t_end - n_full * dt
    steps = [dt] * n_full
    if rem > 1e-12 * dt:
        steps.append(rem)
    return steps


# ---------------------------------------------------------------------------
# Radial simulation

def simulate_radial(cfg: SimConfig, tilt=None, rng: Optional[np.random.Generator] = None) -> RadialPath:
    """One radial trajectory on the time grid, with the clock accumulated
    by the trapezoidal rule."""
    if cfg.r0 is None:
        raise DomainError("radial simulation needs r0")
    if rng is None:
        rng = make_rng(cfg.seed)
    drift = _drift_fn(cfg.space, tilt)
    lo_guard = cfg.r_min
    hi_guard = (math.pi / 2 - cfg.r_min) if cfg.space is ModelSpace.PROJECTIVE else math.inf

    steps = _time_steps(cfg.t_end, cfg.dt)
    times = np.concatenate([[0.0], np.cumsum(steps)])
    r_hist = np.empty(len(steps) + 1)
    clock_hist = np.empty(len(steps) + 1)
    r = np.array([cfg.r0])
    r_hist[0] = cfg.r0
    clock_hist[0] = 0.0
    rate = clock_rate(cfg.space, r)
    a = 0.0
    for i, h in enumerate(steps):
        noise = rng.standard_normal(1) * math.sqrt(h)
        r = _radial_step(cfg.space, drift, tilt, r, noise, h, lo_guard, hi_guard, times[i + 1])
        new_rate = clock_rate(cfg.space, r)
        a += 0.5 * h * float(rate[0] + new_rate[0])
        rate = new_rate
        r_hist[i + 1] = r[0]
        clock_hist[i + 1] = a
    return RadialPath(cfg.space, times, r_hist, clock_hist)


def simulate_tilted_radial(cfg: SimConfig, tilt, rng: Optional[np.random.Generator] = None) -> RadialPath:
    """Radial trajectory under the exponentially tilted measure.

    ``tilt`` is the drift parameter mu for the flat space or the pair
    (a_hat, b_hat) for the hyperbolic space.  A zero tilt reproduces
    :func:`simulate_radial` path for path at equal seed.
    """
    return simulate_radial(cfg, tilt=tilt, rng=rng)


def simulate_radial_batch(
    space: ModelSpace,
    r0: float,
    t_end: float,
    dt: float,
    n_paths: int,
    rng: np.random.Generator,
    tilt=None,
    r_min: float = 1e-6,
    stop_rate_tol: Optional[float] = None,
):
    """Vectorized radial endpoints: returns (r_end, clock_end, t_reached).

    With ``stop_rate_tol`` set, stepping stops early once every path's clock
    rate has fallen below the tolerance (transient spaces only); the clock is
    then final up to a bias below ``stop_rate_tol * (t_end - t_reached)``.
    """
    drift = _drift_fn(space, tilt)
    lo_guard = r_min
    hi_guard = (math.pi / 2 - r_min) if space is ModelSpace.PROJECTIVE else math.inf
    r = np.full(n_paths, float(r0))
    rate = clock_rate(space, r)
    clock = np.zeros(n_paths)
    t_now = 0.0
    for h in _time_steps(t_end, dt):
        noise = rng.standard_normal(n_paths) * math.sqrt(h)
        t_now += h
        r = _radial_step(space, drift, tilt, r, noise, h, lo_guard, hi_guard, t_now)
        new_rate = clock_rate(space, r)
        clock += 0.5 * h * (rate + new_rate)
        rate = new_rate
        if stop_rate_tol is not None and float(rate.max()) < stop_rate_tol:
            break
    return r, clock, t_now


def accumulate_clock(path: RadialPath) -> float:
    """Trapezoidal value of the clock A_t over the whole path."""
    return float(np.trapezoid(clock_rate(path.space, path.r), path.times))


def sample_winding_timechange(path: RadialPath, rng: np.random.Generator) -> WindingSample:
    """Draw zeta(t) ~ N(0, A_t I_7) conditionally on the radial path."""
    a_t = float(path.clock[-1])
    zeta = rng.standard_normal(7) * math.sqrt(a_t)
    return WindingSample(zeta=zeta, t_end=float(path.times[-1]), clock_end=a_t,
                         provenance="time_change")


def sample_windings_timechange(clock_end: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Batched conditional Gaussian draws, one 7-vector per clock value."""
    clock_end = np.asarray(clock_end, dtype=float)
    return rng.standard_normal((clock_end.size, 7)) * np.sqrt(clock_end)[:, None]


# ---------------------------------------------------------------------------
# Coordinate simulation with Stratonovich line integration
#
# Both coordinate simulators share one step kernel.  It works on a batch
# stored component-major, w of shape (8, n), so every array operation runs
# along the paths, and it takes |w|^2 alongside w: the coefficients are
# polynomials in |w|^2 (sigma = 1, 1 + |w|^2 or 1 - |w|^2; see
# geometry.coord_coefficients), so each Heun stage needs one norm and no
# trig.  The chart radius r = g(|w|) is only needed by the exit and
# radial-jump checks.

#: Largest radial change accepted from one coordinate step; about 15 standard
#: deviations of one radial increment at dt = 1e-3.
MAX_RADIAL_STEP = 0.5


def _norm_sq(w: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", w, w)


def _chart_radius(space: ModelSpace, norm_sq: np.ndarray):
    """(|w|, r) from |w|^2, with the hyperbolic boundary clamped instead of raised."""
    wn = np.sqrt(norm_sq)
    if space is ModelSpace.FLAT:
        return wn, wn
    if space is ModelSpace.PROJECTIVE:
        return wn, np.arctan(wn)
    return wn, np.arctanh(np.minimum(wn, 1.0 - 1e-15))


def _coordinate_step(space: ModelSpace, w: np.ndarray, norm_sq: np.ndarray, dw_noise: np.ndarray,
                     h: float, scheme: str) -> np.ndarray:
    """Advance the columns of w (8, n), with |w|^2 = norm_sq, by one
    Euler-Maruyama or Stratonovich-Heun (predictor-corrector; Kloeden &
    Platen 1992) step driven by the scaled increments dw_noise (8, n)."""
    if space is ModelSpace.FLAT:
        return w + dw_noise  # sigma = 1 and no drift in either form
    if scheme == EULER_MARUYAMA:
        sig, f = coord_coefficients(space, norm_sq, stratonovich=False)
        return w + (f * h) * w + sig * dw_noise
    sig, f = coord_coefficients(space, norm_sq, stratonovich=True)
    fw = f * w
    pred = w + fw * h + sig * dw_noise
    sig2, f2 = coord_coefficients(space, _norm_sq(pred), stratonovich=True)
    return w + (0.5 * h) * (fw + f2 * pred) + (0.5 * (sig + sig2)) * dw_noise


def _chart_ceiling(space: ModelSpace, r_max: float) -> float:
    # Radius beyond which coordinate stepping is abandoned.  The projective
    # chart genuinely degenerates near pi/2; the hyperbolic one only loses
    # floating-point resolution as |w| -> 1, and the flat one never does,
    # but by then the clock rate is ~1e-12 and the radial route is cheaper.
    if space is ModelSpace.PROJECTIVE:
        return r_max
    return 15.0


def simulate_coordinate(cfg: SimConfig, rng: Optional[np.random.Generator] = None):
    """One coordinate trajectory and its line-integral winding sample.

    Steps a batch of one through the batch step kernel.  Raises
    :class:`SimulationError` if the path leaves the chart; the batch
    simulator falls back to the skew-product representation instead.
    """
    if cfg.w0 is None:
        raise DomainError("coordinate simulation needs w0")
    if rng is None:
        rng = make_rng(cfg.seed)
    steps = _time_steps(cfg.t_end, cfg.dt)
    times = np.concatenate([[0.0], np.cumsum(steps)])
    w_hist = np.empty((len(steps) + 1, 8))
    z_hist = np.zeros((len(steps) + 1, 7))
    w = cfg.w0[:, None].copy()
    n2 = _norm_sq(w)
    wn, r = _chart_radius(cfg.space, n2)
    w_hist[0] = cfg.w0
    ceiling = _chart_ceiling(cfg.space, cfg.r_max)
    for i, h in enumerate(steps):
        if r[0] >= ceiling or wn[0] <= cfg.r_min:
            raise SimulationError(
                f"coordinate path left the chart (radius {r[0]:.4g}) at t = {times[i]:.6g}",
                exit_time=float(times[i]),
            )
        noise = rng.standard_normal((1, 8)).T * math.sqrt(h)
        w_new = _coordinate_step(cfg.space, w, n2, noise, h, cfg.scheme)
        if not np.all(np.isfinite(w_new)):
            raise SimulationError(
                f"coordinate step produced non-finite values at t = {times[i + 1]:.6g}; reduce dt",
                exit_time=float(times[i + 1]),
            )
        n2_new = _norm_sq(w_new)
        wn_new, r_new = _chart_radius(cfg.space, n2_new)
        if abs(r_new[0] - r[0]) > MAX_RADIAL_STEP:
            raise SimulationError(
                f"coordinate step rejected (radius jump {abs(r_new[0] - r[0]):.3g}) at t = {times[i + 1]:.6g}; reduce dt",
                exit_time=float(times[i + 1]),
            )
        z_hist[i + 1] = z_hist[i] + winding_form_cols(0.5 * (w + w_new), w_new - w)[:, 0]
        w, n2, wn, r = w_new, n2_new, wn_new, r_new
        w_hist[i + 1] = w[:, 0]
    path = CoordinatePath(cfg.space, times, w_hist, z_hist)
    sample = WindingSample(zeta=z_hist[-1].copy(), t_end=float(times[-1]), clock_end=None,
                           provenance="line_integral", seed=cfg.seed)
    return path, sample


def simulate_coordinate_batch(
    space: ModelSpace,
    w0: np.ndarray,
    t_end: float,
    dt: float,
    n_paths: int,
    rng: np.random.Generator,
    scheme: str = STRATONOVICH_HEUN,
    r_min: float = 1e-6,
    r_max: float = 1.45,
    max_radial_step: float = MAX_RADIAL_STEP,
):
    """Vectorized line-integral windings: returns (zeta, n_switched).

    Paths that leave the safe chart region (or whose step is rejected)
    switch to the skew-product representation: the radial part continues in
    r, the residual clock is accumulated, and the remaining winding
    increment is drawn as N(0, dA I_7), which is its exact conditional law.

    Every step draws one (n_paths, 8) normal block over all paths; a
    switched path's radial step uses column 0 of its row.  One (k, 7) block
    for the k switched paths, in path order, is drawn at the end.

    The active paths are kept compacted: column j of w, its partial winding
    and |w|^2, |w| and r belong to path idx[j].  These arrays are gathered
    again, and the partial windings of the paths that leave are written out,
    only on a step where some path switches.
    """
    w0 = np.asarray(w0, dtype=float)
    _, r0 = _chart_radius(space, _norm_sq(w0[:, None]))
    ceiling = _chart_ceiling(space, r_max)
    if not (r_min < r0[0] < ceiling):
        raise DomainError(f"w0 at radius {r0[0]:.4g} outside the usable chart of {space.value}")

    drift = _drift_fn(space, None)
    lo_guard = r_min
    hi_guard = (math.pi / 2 - r_min) if space is ModelSpace.PROJECTIVE else math.inf
    r_clip_hi = hi_guard - lo_guard if math.isfinite(hi_guard) else np.inf

    zeta = np.zeros((n_paths, 7))
    idx = np.arange(n_paths)
    w = np.repeat(w0[:, None], n_paths, axis=1)
    n2 = _norm_sq(w)
    wn, r = _chart_radius(space, n2)
    z = np.zeros((7, n_paths))
    # Switched paths in the order they switched: path index, radius, clock
    # rate at that radius, and the clock accrued since the switch.
    sw_idx = np.empty(0, dtype=np.intp)
    r_sw = rate_sw = clock_sw = np.empty(0)

    t_now = 0.0
    for h in _time_steps(t_end, dt):
        noise = rng.standard_normal((n_paths, 8))
        sqrt_h = math.sqrt(h)
        t_now += h
        if idx.size:
            active = noise if idx.size == n_paths else noise[idx]
            w_new = _coordinate_step(space, w, n2, np.multiply(active.T, sqrt_h, order="C"), h, scheme)
            n2_new = _norm_sq(w_new)
            wn_new, r_new = _chart_radius(space, n2_new)
            bad = ((r >= ceiling) | (wn <= r_min) | ~np.isfinite(n2_new)
                   | (np.abs(r_new - r) > max_radial_step))
            if bad.any():
                out = idx[bad]
                zeta[out] = z[:, bad].T
                r_here = np.clip(r[bad], lo_guard * 2.0, r_clip_hi)
                sw_idx = np.concatenate([sw_idx, out])
                r_sw = np.concatenate([r_sw, r_here])
                rate_sw = np.concatenate([rate_sw, clock_rate(space, r_here)])
                clock_sw = np.concatenate([clock_sw, np.zeros(out.size)])
                keep = ~bad
                idx, w, z, w_new = idx[keep], w[:, keep], z[:, keep], w_new[:, keep]
                n2_new, wn_new, r_new = n2_new[keep], wn_new[keep], r_new[keep]
            if idx.size:
                z += winding_form_cols(0.5 * (w + w_new), w_new - w)
            w, n2, wn, r = w_new, n2_new, wn_new, r_new
        if sw_idx.size:
            r_next = _radial_step(space, drift, None, r_sw, noise[sw_idx, 0] * sqrt_h, h,
                                  lo_guard, hi_guard, t_now)
            new_rate = clock_rate(space, r_next)
            clock_sw += 0.5 * h * (rate_sw + new_rate)
            r_sw, rate_sw = r_next, new_rate
    zeta[idx] = z.T
    if sw_idx.size:
        order = np.argsort(sw_idx)
        zeta[sw_idx[order]] += rng.standard_normal((sw_idx.size, 7)) * np.sqrt(clock_sw[order])[:, None]
    return zeta, int(sw_idx.size)


# ---------------------------------------------------------------------------
# Exact flat-space transitions for very long horizons

def log_time_grid(t_end: float, t_init: float = 1e-4, per_decade: int = 128) -> np.ndarray:
    """Time grid [0, t_init, ...geometric..., t_end] for long flat runs."""
    if not (0 < t_init < t_end):
        raise DomainError("need 0 < t_init < t_end")
    decades = math.log10(t_end / t_init)
    n = max(2, int(math.ceil(decades * per_decade)))
    return np.concatenate([[0.0], np.geomspace(t_init, t_end, n + 1)])


def simulate_flat_exact_batch(rho: float, times: np.ndarray, n_paths: int, rng: np.random.Generator):
    """Exact squared-radius transitions of the flat radial process.

    The squared radius is sampled step by step from its noncentral
    chi-square (8 degrees of freedom) transition kernel; only the clock uses
    the trapezoidal rule on the grid.  Returns (r_end, clock_end).
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise DomainError("times must start at 0 and be strictly increasing")
    x = np.full(n_paths, rho * rho)
    clock = np.zeros(n_paths)
    for i in range(len(times) - 1):
        delta = times[i + 1] - times[i]
        x_new = rng.noncentral_chisquare(8.0, x / delta, size=n_paths) * delta
        clock += 0.5 * delta * (1.0 / x + 1.0 / x_new)
        x = x_new
    return np.sqrt(x), clock
