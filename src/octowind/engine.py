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
Every per-space quantity comes from the table in :mod:`octowind.geometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SimulationError
from .geometry import R_MIN, ModelSpace, start_problems
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


def sim_problems(space: ModelSpace, t_end: float, dt: float, scheme: str, r0=None, w0=None) -> list[str]:
    """Every reason why these parameters cannot define a path simulation."""
    problems = [] if w0 is None or np.shape(w0) == (8,) else ["w0 must have 8 components"]
    if not dt > 0:
        problems.append(f"dt = {dt} violates dt > 0")
    elif not t_end >= dt:
        problems.append(f"t_end = {t_end} violates t_end >= dt")
    if scheme not in SCHEMES:
        problems.append(f"scheme = {scheme!r}; expected one of {SCHEMES}")
    if r0 is None and w0 is None:
        problems.append("one of r0 or w0 is required")
    return problems + start_problems(space, r0, w0)


def _require(problems: list[str]) -> None:
    if problems:
        raise DomainError("; ".join(problems))


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

    def __post_init__(self):
        if self.w0 is not None:
            object.__setattr__(self, "w0", np.asarray(self.w0, dtype=float))
        _require(sim_problems(self.space, self.t_end, self.dt, self.scheme, self.r0, self.w0))


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
class CoordinatePath:
    """Discretized coordinate trajectory with the running winding integral."""

    space: ModelSpace
    times: np.ndarray
    w: np.ndarray      # (n_steps + 1, 8)
    zeta: np.ndarray   # (n_steps + 1, 7)


def _radial_step(drift, implicit_root, r, noise, dt, hi_guard, t_now):
    """Euler-Maruyama step of r; proposals outside (R_MIN, hi_guard) are redone
    implicitly, and a path still outside raises for the whole batch."""
    prop = r + drift(r) * dt + noise
    bad = (prop <= R_MIN) | (prop >= hi_guard)
    if np.any(bad):
        prop[bad] = implicit_root((r + noise)[bad], dt)
        if np.any((prop <= R_MIN) | (prop >= hi_guard)):
            raise SimulationError(
                f"radial path left ({R_MIN:.3g}, {hi_guard:.3g}) at t = {t_now:.6g}",
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

def _radial_states(space: ModelSpace, r0: float, t_end: float, dt: float, n_paths: int,
                   rng: np.random.Generator, tilt=None, stop_rate_tol: Optional[float] = None):
    """The radial batch kernel: yields (t, r, clock) at t = 0 and after every
    step.  The clock is accumulated by the trapezoidal rule, in place."""
    _require(start_problems(space, r0=r0))
    spec = space.spec
    drift, implicit_root = spec.radial(tilt)
    hi_guard = spec.r_hi - R_MIN
    r = np.full(n_paths, float(r0))
    rate = spec.clock(r)
    clock = np.zeros(n_paths)
    t_now = 0.0
    yield t_now, r, clock
    for h in _time_steps(t_end, dt):
        noise = rng.standard_normal(n_paths) * math.sqrt(h)
        t_now += h
        r = _radial_step(drift, implicit_root, r, noise, h, hi_guard, t_now)
        new_rate = spec.clock(r)
        clock += 0.5 * h * (rate + new_rate)
        rate = new_rate
        yield t_now, r, clock
        if stop_rate_tol is not None and float(rate.max()) < stop_rate_tol:
            return


def simulate_radial(cfg: SimConfig, tilt=None, rng: Optional[np.random.Generator] = None) -> RadialPath:
    """One radial trajectory: the batch kernel with one path, every step kept.

    ``tilt`` is the drift parameter mu (flat) or the pair (a_hat, b_hat)
    (hyperbolic) of the exponentially tilted measure; zero reproduces the
    untilted path.
    """
    if cfg.r0 is None:
        raise DomainError("radial simulation needs r0")
    rng = make_rng(cfg.seed) if rng is None else rng
    states = [(t, r[0], a[0]) for t, r, a in _radial_states(cfg.space, cfg.r0, cfg.t_end, cfg.dt, 1, rng, tilt)]
    times, r, clock = (np.array(col) for col in zip(*states))
    return RadialPath(cfg.space, times, r, clock)


def simulate_radial_batch(
    space: ModelSpace,
    r0: float,
    t_end: float,
    dt: float,
    n_paths: int,
    rng: np.random.Generator,
    tilt=None,
    stop_rate_tol: Optional[float] = None,
):
    """Vectorized radial endpoints: returns (r_end, clock_end, t_reached).

    With ``stop_rate_tol`` set, stepping stops early once every path's clock
    rate has fallen below the tolerance (transient spaces only); the clock is
    then final up to a bias below ``stop_rate_tol * (t_end - t_reached)``.
    """
    for t_now, r, clock in _radial_states(space, r0, t_end, dt, n_paths, rng, tilt, stop_rate_tol):
        pass
    return r, clock, t_now


def sample_windings_timechange(clock_end: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Batched conditional Gaussian draws, one 7-vector per clock value."""
    clock_end = np.asarray(clock_end, dtype=float)
    return rng.standard_normal((clock_end.size, 7)) * np.sqrt(clock_end)[:, None]


# ---------------------------------------------------------------------------
# Coordinate simulation with Stratonovich line integration
#
# The batch is stored component-major, w of shape (8, n), so every array
# operation runs along the paths.  The coefficients are polynomials in |w|^2
# (geometry.SpaceSpec.coefficients), so each Heun stage needs one norm and no
# trig; the chart radius r is only needed by the switch rule.

#: Largest radial change accepted from one coordinate step; about 15 standard
#: deviations of one radial increment at dt = 1e-3.
MAX_RADIAL_STEP = 0.5


def _norm_sq(w: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", w, w)


def _chart(spec, norm_sq: np.ndarray):
    """(|w|, r) from |w|^2."""
    wn = np.sqrt(norm_sq)
    return wn, spec.radius(wn)


def _leaves_chart(spec, wn, r, n2_new, r_new) -> np.ndarray:
    """The switch rule of a step from (|w|, r) to (|w|^2, r) = (n2_new, r_new):
    the start was at the chart ceiling or within R_MIN of the origin, or the
    step is non-finite or moves the radius by more than MAX_RADIAL_STEP."""
    return ((r >= spec.chart_ceiling) | (wn <= R_MIN) | ~np.isfinite(n2_new)
            | (np.abs(r_new - r) > MAX_RADIAL_STEP))


def _coordinate_step(spec, w: np.ndarray, norm_sq: np.ndarray, dw_noise: np.ndarray,
                     h: float, scheme: str) -> np.ndarray:
    """Advance the columns of w (8, n), with |w|^2 = norm_sq, by one
    Euler-Maruyama or Stratonovich-Heun (predictor-corrector; Kloeden &
    Platen 1992) step driven by the scaled increments dw_noise (8, n)."""
    if spec.sigma_sign == 0.0:
        return w + dw_noise  # flat: sigma = 1 and no drift in either form
    if scheme == EULER_MARUYAMA:
        sig, f = spec.coefficients(norm_sq, stratonovich=False)
        return w + (f * h) * w + sig * dw_noise
    sig, f = spec.coefficients(norm_sq, stratonovich=True)
    fw = f * w
    pred = w + fw * h + sig * dw_noise
    sig2, f2 = spec.coefficients(_norm_sq(pred), stratonovich=True)
    return w + (0.5 * h) * (fw + f2 * pred) + (0.5 * (sig + sig2)) * dw_noise


def simulate_coordinate(cfg: SimConfig, rng: Optional[np.random.Generator] = None) -> CoordinatePath:
    """One coordinate trajectory with its running line-integral winding: the
    batch kernel with one path, every step kept.

    Raises :class:`SimulationError` where the batch simulator would switch
    the path to the skew-product representation.
    """
    if cfg.w0 is None:
        raise DomainError("coordinate simulation needs w0")
    rng = make_rng(cfg.seed) if rng is None else rng
    zeta, states = np.zeros((1, 7)), []
    for t, idx, w, z in _coordinate_states(cfg.space, cfg.w0, cfg.t_end, cfg.dt, 1, rng, cfg.scheme, zeta):
        if not idx.size:
            raise SimulationError(f"coordinate path left the chart in the step to t = {t:.6g}; "
                                  "the batch simulator would continue it on the radial route", exit_time=t)
        states.append((t, w[:, 0], z[:, 0].copy()))
    times, w_hist, z_hist = (np.array(col) for col in zip(*states))
    return CoordinatePath(cfg.space, times, w_hist, z_hist)


def _coordinate_states(space: ModelSpace, w0: np.ndarray, t_end: float, dt: float, n_paths: int,
                       rng: np.random.Generator, scheme: str, zeta: np.ndarray):
    """The coordinate batch kernel: yields (t, idx, w, z) at t = 0 and after
    every step, and when exhausted leaves the windings of all paths in
    ``zeta`` (n_paths, 7).

    The active paths are kept compacted: column j of w (8, k), of its partial
    winding z (7, k) and of |w|^2, |w| and r belong to path idx[j].  These
    arrays are gathered again, and the partial windings of the paths that
    leave are written to ``zeta``, only on a step where some path switches.
    """
    _require(start_problems(space, w0=w0))
    spec = space.spec
    drift, implicit_root = spec.radial(None)
    hi_guard = spec.r_hi - R_MIN
    idx = np.arange(n_paths)
    w = np.repeat(w0[:, None], n_paths, axis=1)
    n2 = _norm_sq(w)
    wn, r = _chart(spec, n2)
    z = np.zeros((7, n_paths))
    # Switched paths in the order they switched: path index, radius, clock
    # rate at that radius, and the clock accrued since the switch.
    sw_idx = np.empty(0, dtype=np.intp)
    r_sw = rate_sw = clock_sw = np.empty(0)

    t_now = 0.0
    yield t_now, idx, w, z
    for h in _time_steps(t_end, dt):
        noise = rng.standard_normal((n_paths, 8))
        sqrt_h = math.sqrt(h)
        t_now += h
        if idx.size:
            active = noise if idx.size == n_paths else noise[idx]
            w_new = _coordinate_step(spec, w, n2, np.multiply(active.T, sqrt_h, order="C"), h, scheme)
            n2_new = _norm_sq(w_new)
            wn_new, r_new = _chart(spec, n2_new)
            bad = _leaves_chart(spec, wn, r, n2_new, r_new)
            if bad.any():
                out = idx[bad]
                zeta[out] = z[:, bad].T
                r_here = np.clip(r[bad], 2.0 * R_MIN, hi_guard - R_MIN)
                sw_idx = np.concatenate([sw_idx, out])
                r_sw = np.concatenate([r_sw, r_here])
                rate_sw = np.concatenate([rate_sw, spec.clock(r_here)])
                clock_sw = np.concatenate([clock_sw, np.zeros(out.size)])
                keep = ~bad
                idx, w, z, w_new = idx[keep], w[:, keep], z[:, keep], w_new[:, keep]
                n2_new, wn_new, r_new = n2_new[keep], wn_new[keep], r_new[keep]
            if idx.size:
                z += winding_form_cols(0.5 * (w + w_new), w_new - w)
            w, n2, wn, r = w_new, n2_new, wn_new, r_new
        if sw_idx.size:
            r_next = _radial_step(drift, implicit_root, r_sw, noise[sw_idx, 0] * sqrt_h, h, hi_guard, t_now)
            new_rate = spec.clock(r_next)
            clock_sw += 0.5 * h * (rate_sw + new_rate)
            r_sw, rate_sw = r_next, new_rate
        yield t_now, idx, w, z
    zeta[idx] = z.T
    if sw_idx.size:
        order = np.argsort(sw_idx)
        zeta[sw_idx[order]] += rng.standard_normal((sw_idx.size, 7)) * np.sqrt(clock_sw[order])[:, None]


def simulate_coordinate_batch(
    space: ModelSpace,
    w0: np.ndarray,
    t_end: float,
    dt: float,
    n_paths: int,
    rng: np.random.Generator,
    scheme: str = STRATONOVICH_HEUN,
):
    """Vectorized line-integral windings: returns (zeta, n_switched).

    Paths that meet the switch rule (:func:`_leaves_chart`) switch to the
    skew-product representation: the radial part continues in r, the
    residual clock is accumulated, and the remaining winding increment is
    drawn as N(0, dA I_7), which is its exact conditional law.

    Every step draws one (n_paths, 8) normal block over all paths; a
    switched path's radial step uses column 0 of its row.  One (k, 7) block
    for the k switched paths, in path order, is drawn at the end.
    """
    zeta = np.zeros((n_paths, 7))
    for _, idx, _, _ in _coordinate_states(space, np.asarray(w0, dtype=float), t_end, dt, n_paths, rng,
                                           scheme, zeta):
        pass
    return zeta, n_paths - idx.size


# ---------------------------------------------------------------------------
# Exact flat-space transitions for very long horizons

#: First positive time and points per decade of :func:`log_time_grid`.
T_INIT = 1e-4
PER_DECADE = 128


def log_time_grid(t_end: float) -> np.ndarray:
    """Time grid [0, T_INIT, ...geometric..., t_end] for long flat runs."""
    if not t_end > T_INIT:
        raise DomainError(f"log_time_grid needs t_end > {T_INIT:g}")
    decades = math.log10(t_end / T_INIT)
    n = max(2, int(math.ceil(decades * PER_DECADE)))
    return np.concatenate([[0.0], np.geomspace(T_INIT, t_end, n + 1)])


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
