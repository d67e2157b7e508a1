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

The radial and the coordinate kernel take their per-step standard normals in
chunks of steps; past the first, one helper thread draws each chunk ahead
(:func:`_noise_steps`), so the draw overlaps the step.  In the workers of a
process pool that fills every usable core, which has no core spare for the
helper, each step draws inline instead.  Philox is counter-based, so the values and their
order are those of one draw per step; no thread outlives a kernel call.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SimulationError
from .geometry import R_MIN, ModelSpace
from .octonion import winding_form_cols

EULER_MARUYAMA = "euler_maruyama"
STRATONOVICH_HEUN = "stratonovich_heun"
SCHEMES = (EULER_MARUYAMA, STRATONOVICH_HEUN)

#: Fixed default seed so out-of-the-box runs are reproducible.
DEFAULT_SEED = 20240817


def count_problems(name: str, value, low: int) -> list[str]:
    """Why ``value`` cannot be the count ``name``: an integer >= low (a NumPy one too), not a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return [f"{name} = {value!r} is not an integer"]
    return [] if value >= low else [f"{name} = {value} violates {name} >= {low}"]


def make_rng(seed: int, stream: tuple[int, ...] = ()) -> np.random.Generator:
    """Counter-based generator for a (seed, stream) pair.

    Distinct streams are statistically independent; results assembled in
    stream order are independent of scheduling.
    """
    _require(count_problems("seed", seed, 0))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=tuple(stream))))


#: Largest horizon: inside the guard the clock rate is below ~1 / R_MIN^2, so the clock stays a double.
T_END_MAX = sys.float_info.max * R_MIN ** 2 / 2


def sim_problems(space: ModelSpace, t_end: float, dt: float, scheme: str = STRATONOVICH_HEUN,
                 r0=None, w0=None, n_paths: int = 1) -> list[str]:
    """Every reason why these parameters cannot define a path simulation."""
    problems = count_problems("n_paths", n_paths, 1)
    try:
        point = None if w0 is None else np.asarray(w0, dtype=float)
    except (TypeError, ValueError, OverflowError):
        point = None  # no radius to check
    if w0 is not None and np.shape(point) != (8,):
        problems.append("w0 must be 8 numbers")
    if not dt > 0:
        problems.append(f"dt = {dt} violates dt > 0")
    elif not dt <= t_end <= T_END_MAX:
        problems.append(f"t_end = {t_end} violates dt <= t_end <= {T_END_MAX:.4g}, past which the clock overflows")
    elif not t_end / dt <= sys.maxsize:  # the step count must fit an index
        problems.append(f"t_end / dt = {t_end / dt:g} violates t_end / dt <= {sys.maxsize}")
    elif not dt >= 1e-9:
        # Near either end of the radial domain the untilted drift is about 3.5 / (distance to it), so the
        # implicit root of a draw z standard deviations out is about 3.5 sqrt(dt) / z from that end.
        # At dt >= 1e-9 only a draw beyond ~100 sigma puts it within R_MIN, which the guard refuses.
        problems.append(f"dt = {dt} violates dt >= 1e-09, below which the implicit radial step can land "
                        f"within R_MIN = {R_MIN:g} of the domain's end")
    if scheme not in SCHEMES:
        problems.append(f"scheme = {scheme!r}; expected one of {SCHEMES}")
    if r0 is None and w0 is None:
        problems.append("one of r0 or w0 is required")
    # The start: r0 where the radial step keeps a path, w0 at a radius inside the chart.
    spec = space.spec
    if r0 is not None and not (R_MIN < r0 < spec.r_hi - R_MIN):
        problems.append(f"r0 = {r0} outside ({R_MIN}, {spec.r_hi - R_MIN:.6g}) for {space.value}")
    if point is not None:
        with np.errstate(over="ignore"):  # a norm past the double range is inf, outside every chart
            r = float(spec.radius(np.linalg.norm(point)))
        if not (R_MIN < r < spec.chart_ceiling):
            problems.append(f"w0 at radius {r:.4g} outside the chart bound ({R_MIN}, "
                            f"{spec.chart_ceiling}) of {space.value}")
    return problems


def _require(problems: list[str]) -> None:
    if problems:
        raise DomainError("; ".join(problems))


@dataclass(frozen=True)
class SimConfig:
    """One path-simulation request; the kernel that runs it checks it with :func:`sim_problems`."""

    space: ModelSpace
    t_end: float
    dt: float = 1e-3
    r0: Optional[float] = None
    w0: Optional[np.ndarray] = None
    scheme: str = STRATONOVICH_HEUN
    seed: int = DEFAULT_SEED


def _radial_step(law, implicit_root, r, drift, rate, clock, noise, dt, hi_guard, t_now):
    """Euler-Maruyama step of r, whose drift and clock rate are ``drift`` and
    ``rate``; returns (r, drift, rate) at the new point and adds the step's
    trapezoid to ``clock`` in place.  Proposals outside (R_MIN, hi_guard) are
    redone implicitly, and a path still outside raises for the whole batch."""
    prop = r + drift * dt + noise
    # One reduction per bound on the common path; a NaN fails it and takes the masks.
    if not (prop.min() > R_MIN and prop.max() < hi_guard):
        bad = ~((prop > R_MIN) & (prop < hi_guard))  # a NaN is outside too
        prop[bad] = implicit_root((r + noise)[bad], dt)
        out = np.flatnonzero(~((prop > R_MIN) & (prop < hi_guard)))
        if out.size:
            raise SimulationError(
                f"radial path {out[0]} ({out.size} outside) left ({R_MIN:.3g}, {hi_guard:.3g}) "
                f"at t = {t_now:.6g}")
    drift, new_rate = law(prop)
    clock += 0.5 * dt * (rate + new_rate)
    return prop, drift, new_rate


def _time_steps(t_end: float, dt: float):
    n_full = int(t_end / dt)
    rem = t_end - n_full * dt
    yield from itertools.repeat(dt, n_full)
    if rem > 1e-12 * dt:
        yield rem


#: Bytes of standard normals in one chunk that :func:`_noise_steps` draws ahead.  On the
#: skew-product benchmark the gain held from 512 KiB to 4 MiB and shrank at 256 KiB, while peak
#: memory grows with the size (CHANGES.md has the measured curve).
NOISE_CHUNK_BYTES = 1 << 20

#: Whether :func:`_noise_steps` draws ahead on a helper thread.  The workers of a process pool that
#: fills every usable core set it False (``mc._run_blocks``): there the helper has no core of its own.
_draw_ahead = True


def _noise_steps(t_end: float, dt: float, rng: np.random.Generator, shape: tuple[int, ...]):
    """Yields (h, normals) for each step h of :func:`_time_steps`: a block of ``shape``
    standard normals per step, valid until the next step, with the values of one
    ``rng.standard_normal(shape)`` call per step.

    With ``_draw_ahead`` False, the calling thread draws each step into one reused buffer, so ``rng``
    is always just after the last block handed out.  Otherwise the calling thread draws the first chunk.  From a second chunk on, one helper thread draws each
    next chunk ahead, with ``standard_normal(out=...)``, which runs without the GIL, into two buffers
    allocated once, and until the generator ends ``rng`` is the helper's.  Closed early, it joins the
    thread and leaves ``rng`` in the state after the last block it handed out: it restores the state
    saved before the current chunk and draws the rows already handed out again.
    """
    steps = _time_steps(t_end, dt)
    if not _draw_ahead:
        buf = np.empty(shape)
        for h in steps:
            yield h, rng.standard_normal(out=buf)
        return
    rows = max(1, NOISE_CHUNK_BYTES // (8 * math.prod(shape)))
    # Chunks are taken lazily: with an early stop, t_end / dt may be near sys.maxsize.
    chunk = list(itertools.islice(steps, rows))
    state, pool, used = rng.bit_generator.state, None, 0
    buf = rng.standard_normal((len(chunk), *shape))
    try:
        while chunk:
            ahead = list(itertools.islice(steps, rows))
            if ahead:
                if pool is None:  # a run of one chunk neither starts the thread nor imports its module
                    from concurrent.futures import ThreadPoolExecutor

                    pool, spare = ThreadPoolExecutor(max_workers=1), np.empty_like(buf)
                ahead_state, fill = rng.bit_generator.state, pool.submit(rng.standard_normal, out=spare[:len(ahead)])
            for used, h in enumerate(chunk, 1):
                yield h, buf[used - 1]
            if ahead:
                fill.result()
                state, buf, spare = ahead_state, spare, buf
            chunk, used = ahead, 0
    finally:
        if pool is not None:
            pool.shutdown()  # waits for a fill in flight, then joins the thread
        if used:
            rng.bit_generator.state = state
            rng.standard_normal(out=buf[:used])


# ---------------------------------------------------------------------------
# Radial simulation

def _radial_states(space: ModelSpace, r0: float, t_end: float, dt: float, n_paths: int,
                   rng: np.random.Generator, tilt=None, stop_rate_tol: Optional[float] = None):
    """The radial batch kernel: yields (t, r, clock) at t = 0 and after every
    step.  The clock is accumulated by the trapezoidal rule, in place."""
    _require(sim_problems(space, t_end, dt, r0=r0, n_paths=n_paths))
    law, implicit_root = space.spec.radial(tilt)
    hi_guard = space.spec.r_hi - R_MIN
    r = np.full(n_paths, float(r0))
    drift, rate = law(r)
    clock = np.zeros(n_paths)
    t_now = 0.0
    yield t_now, r, clock
    with contextlib.closing(_noise_steps(t_end, dt, rng, (n_paths,))) as steps:
        for h, normals in steps:
            t_now += h
            r, drift, rate = _radial_step(law, implicit_root, r, drift, rate, clock, normals * math.sqrt(h), h,
                                          hi_guard, t_now)
            yield t_now, r, clock
            if stop_rate_tol is not None and float(rate.max()) < stop_rate_tol:
                return


def simulate_radial(cfg) -> np.ndarray:
    """One radial trajectory: the batch kernel with one path, every step kept
    as a row of a structured array with fields ``time``, ``r`` and ``clock``.
    ``cfg`` is any request with fields space, t_end, dt, r0 and seed."""
    states = _radial_states(cfg.space, cfg.r0, cfg.t_end, cfg.dt, 1, make_rng(cfg.seed))
    return np.fromiter(((t, r[0], a[0]) for t, r, a in states),
                       dtype=[("time", float), ("r", float), ("clock", float)])


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

    ``tilt`` is the drift parameter mu (flat) or the pair (a_hat, b_hat)
    (hyperbolic) of the exponentially tilted measure; zero reproduces the
    untilted paths.  With ``stop_rate_tol`` set, stepping stops early once
    every path's clock rate has fallen below the tolerance (transient spaces
    only); the clock is then final up to a bias below
    ``stop_rate_tol * (t_end - t_reached)``.
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


def _leaves_chart(spec, n2, r, n2_new, r_new) -> np.ndarray:
    """The switch rule of a step from (|w|^2, r) = (n2, r) to (n2_new, r_new):
    the start was at the chart ceiling or within R_MIN of the origin, or the
    step is non-finite or moves the radius by more than MAX_RADIAL_STEP."""
    return ((r >= spec.chart_ceiling) | (n2 <= R_MIN * R_MIN) | ~np.isfinite(n2_new)
            | (np.abs(r_new - r) > MAX_RADIAL_STEP))


def _coordinate_step(spec, w: np.ndarray, norm_sq: np.ndarray, dw_noise: np.ndarray,
                     h: float, scheme: str) -> np.ndarray:
    """Advance the columns of w (8, n), with |w|^2 = norm_sq, by one
    Euler-Maruyama or Stratonovich-Heun (predictor-corrector; Kloeden &
    Platen 1992) step driven by the scaled increments dw_noise (8, n)."""
    if spec.drift_sign == 0.0:
        return w + dw_noise  # flat: sigma = 1 and no drift in either form
    if scheme == EULER_MARUYAMA:
        sig, f = spec.coefficients(norm_sq, stratonovich=False)
        return w + (f * h) * w + sig * dw_noise
    sig, f = spec.coefficients(norm_sq, stratonovich=True)
    fw = f * w
    pred = w + fw * h + sig * dw_noise
    sig2, f2 = spec.coefficients(_norm_sq(pred), stratonovich=True)
    return w + (0.5 * h) * (fw + f2 * pred) + (0.5 * (sig + sig2)) * dw_noise


def simulate_coordinate(cfg) -> np.ndarray:
    """One coordinate trajectory with its running line-integral winding: the
    batch kernel with one path, every step kept as a row of a structured
    array with fields ``time``, ``w`` (8 values) and ``zeta`` (7 values).
    ``cfg`` is any request with fields space, t_end, dt, w0, scheme and seed.

    A path that meets the switch rule continues on the skew-product route as
    in the batch: from the step where it switched, its ``w`` is NaN and
    ``zeta`` holds the winding at the switch, and the last row, the kernel's
    final state, includes the N(0, A I_7) draw for the clock A accrued since,
    so the final winding is that of :func:`simulate_coordinate_batch` with one path.
    """
    off_chart = np.full(8, np.nan)
    states = _coordinate_states(cfg.space, cfg.w0, cfg.t_end, cfg.dt, 1, make_rng(cfg.seed), cfg.scheme)
    rows = ((t, w[:, 0], z[:, 0]) if idx.size else (t, off_chart, zeta[0]) for t, idx, w, z, zeta in states)
    return np.fromiter(rows, dtype=[("time", float), ("w", float, 8), ("zeta", float, 7)])


def _coordinate_states(space: ModelSpace, w0, t_end: float, dt: float, n_paths: int,
                       rng: np.random.Generator, scheme: str):
    """The coordinate batch kernel: yields (t, idx, w, z, zeta) at t = 0 and
    after every step; the last state follows the end-of-run draws, so its
    ``zeta`` (n_paths, 7) holds the windings of all paths.

    The active paths are kept compacted: column j of w (8, k), of its partial
    winding z (7, k) and of |w|^2 and r belong to path idx[j].  These
    arrays are gathered again, and the partial windings of the paths that
    leave are written to ``zeta``, only on a step where some path switches.
    """
    _require(sim_problems(space, t_end, dt, scheme, w0=w0, n_paths=n_paths))
    spec = space.spec
    law, implicit_root = spec.radial(None)
    hi_guard = spec.r_hi - R_MIN
    idx = np.arange(n_paths)
    w = np.repeat(np.asarray(w0, dtype=float)[:, None], n_paths, axis=1)
    n2 = _norm_sq(w)
    r = spec.radius(np.sqrt(n2))
    z, zeta = np.zeros((7, n_paths)), np.zeros((n_paths, 7))
    # Switched paths in switch order: their indices, and sw with rows radius,
    # drift and clock rate there, and the clock accrued since the switch.
    sw_idx = np.empty(0, dtype=np.intp)
    sw = np.empty((4, 0))

    t_now = 0.0
    with contextlib.closing(_noise_steps(t_end, dt, rng, (n_paths, 8))) as steps:
        for h, noise in steps:
            yield t_now, idx, w, z, zeta  # the state before this step; the last one follows the loop
            sqrt_h = math.sqrt(h)
            t_now += h
            if idx.size:
                active = noise if idx.size == n_paths else noise[idx]
                # C order: _norm_sq and winding_form_cols are einsums summing in memory order; F order moves zeta.
                w_new = _coordinate_step(spec, w, n2, np.multiply(active.T, sqrt_h, order="C"), h, scheme)
                n2_new = _norm_sq(w_new)
                r_new = spec.radius(np.sqrt(n2_new))
                bad = _leaves_chart(spec, n2, r, n2_new, r_new)
                if bad.any():
                    out = idx[bad]
                    zeta[out] = z[:, bad].T
                    r_here = np.clip(r[bad], 2.0 * R_MIN, hi_guard - R_MIN)
                    sw_idx = np.concatenate([sw_idx, out])
                    sw = np.concatenate([sw, [r_here, *law(r_here), np.zeros(out.size)]], axis=1)
                    keep = ~bad
                    idx, w, z, w_new = idx[keep], w[:, keep], z[:, keep], w_new[:, keep]
                    n2_new, r_new = n2_new[keep], r_new[keep]
                z += winding_form_cols(0.5 * (w + w_new), w_new - w)
                w, n2, r = w_new, n2_new, r_new
            if sw_idx.size:
                sw[:3] = _radial_step(law, implicit_root, *sw, noise[sw_idx, 0] * sqrt_h, h, hi_guard,
                                      t_now)
    zeta[idx] = z.T
    if sw_idx.size:
        order = np.argsort(sw_idx)
        zeta[sw_idx[order]] += sample_windings_timechange(sw[3, order], rng)
    yield t_now, idx, w, z, zeta


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
    for _, idx, _, _, zeta in _coordinate_states(space, w0, t_end, dt, n_paths, rng, scheme):
        pass
    return zeta, n_paths - idx.size


# ---------------------------------------------------------------------------
# Exact flat-space transitions for very long horizons

#: First positive time, points per decade and largest end of :func:`log_time_grid`; past that
#: end t_end / T_INIT, and so the point count, overflows.
T_INIT = 1e-4
PER_DECADE = 128
T_GRID_MAX = sys.float_info.max * T_INIT


def log_time_grid(t_end: float) -> np.ndarray:
    """Time grid [0, T_INIT, ...geometric..., t_end] for long flat runs."""
    if not T_INIT < t_end <= T_GRID_MAX:
        raise DomainError(f"log_time_grid needs {T_INIT:g} < t_end <= {T_GRID_MAX:.4g}, not {t_end!r}")
    decades = math.log10(t_end / T_INIT)
    n = max(2, int(math.ceil(decades * PER_DECADE)))
    return np.concatenate([[0.0], np.geomspace(T_INIT, t_end, n + 1)])


def simulate_flat_exact_batch(rho: float, times: np.ndarray, n_paths: int, rng: np.random.Generator):
    """Exact squared-radius transitions of the flat radial process.

    The squared radius x is sampled step by step from its noncentral
    chi-square (8 degrees of freedom) transition kernel; only the clock uses
    the trapezoidal rule on the grid.  Returns (r_end, clock_end).

    The start x = rho**2, its clock rate 1 / x, the first trapezoid
    0.5 * dt_0 (1 / x + 1 / x_1) and the noncentrality x / dt of the smallest
    step must be doubles, so with m and M the smallest normal and the largest
    double, rho must lie in [sqrt(max(m, 4 dt_0 / M)), sqrt(M / 4 * min(1, dt))];
    each factor 4 leaves room for the draw.
    """
    _require(count_problems("n_paths", n_paths, 1))
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    if not (steps.size and times[0] == 0.0 and np.all(steps > 0) and times[-1] < math.inf):
        raise DomainError("times must start at 0 and increase strictly to a finite end")
    lo = math.sqrt(max(sys.float_info.min, steps[0] / (sys.float_info.max / 4)))
    hi = math.sqrt(sys.float_info.max / 4 * min(1.0, steps.min()))
    if not lo <= rho <= hi:
        raise DomainError(f"rho = {rho!r} violates {lo:.4g} <= rho <= {hi:.4g}, outside which rho**2, "
                          f"1 / rho**2, the first trapezoid or rho**2 / dt leaves the double range")
    x = np.full(n_paths, rho * rho)
    clock = np.zeros(n_paths)
    # In place, with 1 / x carried over, but the operations and their order of
    # x_new = ncx2(8, x / delta) * delta; clock += 0.5 * delta * (1 / x + 1 / x_new).
    inv_x = 1.0 / x
    nonc, inv_new, trap = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)
    for delta in steps.tolist():
        np.divide(x, delta, out=nonc)
        x = rng.noncentral_chisquare(8.0, nonc, size=n_paths)
        x *= delta
        np.divide(1.0, x, out=inv_new)
        np.add(inv_x, inv_new, out=trap)
        trap *= 0.5 * delta
        clock += trap
        inv_x, inv_new = inv_new, inv_x
    return np.sqrt(x), clock
