"""Path simulation: reproducibility, domain guards, and law-level oracles."""

import dataclasses
import itertools
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octowind import engine, geometry, mc
from octowind.engine import (
    EULER_MARUYAMA,
    PER_DECADE,
    STRATONOVICH_HEUN,
    T_INIT,
    SimConfig,
    log_time_grid,
    make_rng,
    simulate_coordinate,
    simulate_coordinate_batch,
    simulate_flat_exact_batch,
    simulate_radial,
    simulate_radial_batch,
    sim_problems,
)
from octowind.errors import DomainError, SimulationError
from octowind.geometry import R_MIN, ModelSpace
from octowind.octonion import mul_array


@pytest.fixture
def zero_noise(monkeypatch):
    """The kernels' noise helper hands out identically zero normals, one block per step."""
    def zero_steps(t_end, dt, rng, shape):
        for h in engine._time_steps(t_end, dt):
            yield h, np.zeros(shape)
    monkeypatch.setattr(engine, "_noise_steps", zero_steps)


# ---------------------------------------------------------------------------
# RNG contract

def test_make_rng_deterministic_streams():
    a = make_rng(7, (3,)).standard_normal(5)
    b = make_rng(7, (3,)).standard_normal(5)
    c = make_rng(7, (4,)).standard_normal(5)
    d = make_rng(8, (3,)).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [1.5, 1.0, math.nan, math.inf, -math.inf, "7", True, None, -1])
def test_make_rng_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    with pytest.raises(DomainError, match=f"^seed = {re.escape(repr(seed))} "):
        make_rng(seed)


# ---------------------------------------------------------------------------
# Configuration validation

@pytest.mark.parametrize("space,r0", [(ModelSpace.FLAT, 1.0), (ModelSpace.PROJECTIVE, 2 * R_MIN),
                                      (ModelSpace.HYPERBOLIC, 1.0)])
def test_radial_clock_stays_finite_up_to_the_largest_horizon(space, r0):
    # Inside the guard the clock rate is below ~1 / R_MIN^2, so up to the largest horizon
    # sim_problems accepts, ten steps raise no overflow (every warning is an error here).
    t_max = engine.T_END_MAX
    assert t_max == sys.float_info.max * R_MIN ** 2 / 2
    assert not sim_problems(space, t_max, t_max / 10, r0=r0) and sim_problems(space, 2 * t_max, t_max, r0=r0)
    r, clock = simulate_radial_batch(space, r0, t_max, t_max / 10, 4, make_rng(3))[:2]
    assert np.isfinite(r).all() and np.isfinite(clock).all() and (clock > 0).all()


def test_simconfig_validation():
    # A SimConfig only holds the request: the single-path simulators refuse it, because their
    # batch kernels run sim_problems before the first step.
    def radial(space=ModelSpace.FLAT, t_end=1.0, dt=1e-3, **kw):
        return simulate_radial(SimConfig(space=space, t_end=t_end, dt=dt, **kw))

    def coordinate(space=ModelSpace.FLAT, t_end=1.0, dt=1e-3, **kw):
        return simulate_coordinate(SimConfig(space=space, t_end=t_end, dt=dt, **kw))

    with pytest.raises(DomainError):
        radial(dt=-1e-3, r0=1.0)
    with pytest.raises(DomainError):
        radial(t_end=1e-4, r0=1.0)
    with pytest.raises(DomainError):
        radial(t_end=math.inf, r0=1.0)
    for dt in (1e-300, 5e-324):  # a step count past sys.maxsize, or an infinite one
        with pytest.raises(DomainError, match="t_end / dt"):
            radial(dt=dt, r0=1.0)
    with pytest.raises(DomainError, match="t_end / dt"):  # the same above the dt floor
        radial(t_end=1e10, dt=1e-9, r0=1.0)
    with pytest.raises(DomainError, match="dt >= 1e-09"):
        radial(t_end=1e-13, dt=2e-14, r0=1.000000001e-06)
    with pytest.raises(DomainError, match="clock overflows"):
        radial(t_end=1e300, dt=1e299, r0=1.0)
    with pytest.raises(DomainError):
        coordinate(w0=np.eye(8)[0], scheme="milstein")
    with pytest.raises(DomainError):
        radial()
    with pytest.raises(DomainError):
        coordinate()
    with pytest.raises(DomainError):
        radial(space=ModelSpace.PROJECTIVE, r0=math.pi / 2 - R_MIN)
    with pytest.raises(DomainError):
        radial(r0=R_MIN)
    with pytest.raises(DomainError):
        coordinate(w0=np.full(8, 6.0))  # radius 17 > 15
    with pytest.raises(DomainError):
        coordinate(w0=np.ones(3))
    with pytest.raises(DomainError):
        coordinate(space=ModelSpace.HYPERBOLIC, w0=np.array([1.0, 0, 0, 0, 0, 0, 0, 0.5]))


def test_radial_start_is_checked_against_the_radial_domain_only():
    # r0 = 1.5 lies beyond the projective chart ceiling 1.45 but inside the
    # radial domain (0, pi/2): a radial run may start there.
    cfg = SimConfig(space=ModelSpace.PROJECTIVE, t_end=0.01, dt=1e-3, r0=1.5)
    assert np.all(simulate_radial(cfg)["r"] < math.pi / 2)
    with pytest.raises(DomainError):
        simulate_radial_batch(ModelSpace.PROJECTIVE, math.pi / 2, 0.01, 1e-3, 5, make_rng(1))


@pytest.mark.parametrize("call, named", [
    # No step: r0 and a zero clock.
    (lambda: simulate_radial_batch(ModelSpace.FLAT, 1.0, 1.0, -1e-3, 5, make_rng(1)), "dt"),
    (lambda: simulate_radial_batch(ModelSpace.FLAT, 1.0, math.inf, 1e-3, 5, make_rng(1)), "t_end"),
    (lambda: simulate_coordinate_batch(ModelSpace.FLAT, np.eye(8)[0], 0.01, 1e-3, 5, make_rng(1), scheme="rk4"),
     "scheme"),
    # The early stop reads the largest rate, which an empty batch does not have.
    (lambda: simulate_radial_batch(ModelSpace.HYPERBOLIC, 1.0, 0.01, 1e-3, 0, make_rng(1), stop_rate_tol=1e-13),
     "n_paths"),
    (lambda: simulate_radial_batch(ModelSpace.FLAT, 1.0, 0.01, 1e-3, -1, make_rng(1)), "n_paths"),
    (lambda: simulate_coordinate_batch(ModelSpace.FLAT, np.eye(8)[0], 0.01, 1e-3, -1, make_rng(1)), "n_paths"),
    (lambda: simulate_flat_exact_batch(1.0, np.array([0.0, 1.0]), -1, make_rng(1)), "n_paths"),
    # A path count must be an integer, not a whole float or a bool.
    (lambda: simulate_radial_batch(ModelSpace.FLAT, 1.0, 0.01, 1e-3, 5.0, make_rng(1)), "n_paths"),
    (lambda: simulate_coordinate_batch(ModelSpace.FLAT, np.eye(8)[0], 0.01, 1e-3, 5.0, make_rng(1)), "n_paths"),
    (lambda: simulate_flat_exact_batch(1.0, np.array([0.0, 1.0]), 5.0, make_rng(1)), "n_paths"),
    (lambda: simulate_flat_exact_batch(1.0, np.array([0.0, 1.0]), True, make_rng(1)), "n_paths"),
    # A start that is not 8 numbers, refused before the kernel converts it, by each entry to the coordinate route.
    *[(call, "w0") for w0 in ("abc", ["a"] * 8) for call in (
        lambda w0=w0: simulate_coordinate(SimConfig(space=ModelSpace.FLAT, t_end=0.01, w0=w0)),
        lambda w0=w0: simulate_coordinate_batch(ModelSpace.FLAT, w0, 0.01, 1e-3, 5, make_rng(1)),
        lambda w0=w0: mc.run_coordinate_mc(ModelSpace.FLAT, w0, 0.01, 1e-3, 5, workers=1))],
], ids=["radial_negative_dt", "radial_infinite_horizon", "coordinate_unknown_scheme", "radial_empty_early_stop",
        "radial_negative_paths", "coordinate_negative_paths", "flat_exact_negative_paths", "radial_float_paths",
        "coordinate_float_paths", "flat_exact_float_paths", "flat_exact_bool_paths",
        *(f"{entry}_{kind}_w0" for kind in ("text", "text_components") for entry in ("single", "batch", "driver"))])
def test_batch_kernels_check_the_whole_request(call, named):
    # Each refusal names the input it refuses first.
    with pytest.raises(DomainError, match=f"^{named} "):
        call()


# ---------------------------------------------------------------------------
# Radial simulation

def test_simulate_radial_deterministic_and_monotone_clock():
    cfg = SimConfig(space=ModelSpace.FLAT, t_end=1.0, dt=1e-3, r0=1.0, seed=11)
    p1 = simulate_radial(cfg)
    p2 = simulate_radial(cfg)
    assert np.array_equal(p1, p2)
    assert np.all(np.diff(p1["clock"]) >= 0)
    assert p1["time"][0] == 0.0 and p1["time"][-1] == pytest.approx(1.0)


def test_fractional_final_step():
    cfg = SimConfig(space=ModelSpace.FLAT, t_end=0.0105, dt=1e-3, r0=1.0)
    p = simulate_radial(cfg)
    assert p["time"][-1] == pytest.approx(0.0105)
    assert len(p) == 12  # 10 full steps, one half step, plus t = 0


@pytest.mark.parametrize("space", [ModelSpace.FLAT, ModelSpace.HYPERBOLIC])
def test_zero_tilt_reproduces_untilted_path(space):
    tilt = 0.0 if space is ModelSpace.FLAT else (0.0, 0.0)
    p = simulate_radial_batch(space, 1.0, 1.0, 1e-3, 20, make_rng(21))
    q = simulate_radial_batch(space, 1.0, 1.0, 1e-3, 20, make_rng(21), tilt=tilt)
    assert all(np.array_equal(a, b) for a, b in zip(p, q))


def test_flat_tilt_bound():
    for mu in (-3.6, math.nan, math.inf):  # refused at the check, not by a path leaving the domain a step later
        with pytest.raises(DomainError, match="positive and finite"):
            simulate_radial_batch(ModelSpace.FLAT, 1.0, 0.1, 1e-2, 5, make_rng(1), tilt=mu)


def test_implicit_guard_keeps_paths_in_domain():
    # Start close to the boundary with a coarse step: explicit Euler would
    # exit immediately; the implicit substep must keep every point inside.
    rng = make_rng(5)
    r, _, _ = simulate_radial_batch(ModelSpace.FLAT, 0.05, 1.0, 0.05, 500, rng)
    assert np.all(r > 0)
    rng = make_rng(6)
    r, _, _ = simulate_radial_batch(ModelSpace.PROJECTIVE, 1.5, 1.0, 0.05, 500, rng)
    assert np.all((r > 0) & (r < math.pi / 2))


# Tilts that keep each drift positive near 0 and strictly decreasing.
_TILTS = {
    ModelSpace.FLAT: st.one_of(st.none(), st.floats(-3.4, 10.0)),
    ModelSpace.PROJECTIVE: st.none(),
    ModelSpace.HYPERBOLIC: st.one_of(st.none(), st.tuples(st.floats(0.0, 10.0), st.floats(-20.0, 0.0))),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(list(_TILTS)).flatmap(lambda s: st.tuples(st.just(s), _TILTS[s])),
       st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5), st.floats(1e-4, 0.1))
@example((ModelSpace.FLAT, None), [-0.3, 0.01, 0.4, 1.2], 1e-2)
@example((ModelSpace.FLAT, 1.0), [-0.3, 0.01, 0.4, 1.2], 1e-2)
@example((ModelSpace.PROJECTIVE, None), [-0.3, 0.01, 0.4, 1.2], 1e-2)
@example((ModelSpace.HYPERBOLIC, None), [-0.3, 0.01, 0.4, 1.2], 1e-2)
@example((ModelSpace.HYPERBOLIC, (2.0, -8.0)), [-0.3, 0.01, 0.4, 1.2], 1e-2)
@example((ModelSpace.HYPERBOLIC, (10.0, 0.0)), [2.0], 0.1)
@example((ModelSpace.HYPERBOLIC, None), [0.5], 0.5)
def test_implicit_step_solves_the_backward_equation(space_tilt, target, dt):
    space, tilt = space_tilt
    law, implicit_root = space.spec.radial(tilt)
    target = np.array(target)
    x = implicit_root(target, dt)
    assert np.all((x > 0) & (x < space.spec.r_hi))
    assert np.allclose(x - law(x)[0] * dt, target, rtol=0.0, atol=1e-9)


def test_flat_mean_squared_radius():
    # d(R^2) = 8 dt + 2 R dB for the Bessel(8) process, so E[R_t^2] is
    # exactly rho^2 + 8t; with tilt mu it becomes rho^2 + (8 + 2 mu) t.
    rng = make_rng(31)
    r, _, _ = simulate_radial_batch(ModelSpace.FLAT, 1.0, 1.0, 1e-2, 4000, rng)
    m = (r**2).mean()
    se = (r**2).std(ddof=1) / math.sqrt(r.size)
    assert abs(m - 9.0) < 4 * se + 0.05
    rng = make_rng(32)
    r, _, _ = simulate_radial_batch(ModelSpace.FLAT, 1.0, 1.0, 1e-2, 4000, rng, tilt=1.0)
    m = (r**2).mean()
    se = (r**2).std(ddof=1) / math.sqrt(r.size)
    assert abs(m - 11.0) < 4 * se + 0.05


@pytest.mark.parametrize("space", list(ModelSpace))
def test_single_radial_path_is_a_batch_of_one(space):
    # The guard fires at this dt near the origin, so the implicit root is on the path too.
    cfg = SimConfig(space=space, t_end=0.5, dt=2e-2, r0=0.05, seed=13)
    path = simulate_radial(cfg)
    r, clock, t = simulate_radial_batch(space, cfg.r0, cfg.t_end, cfg.dt, 1, make_rng(13))
    assert path.dtype.names == ("time", "r", "clock")
    assert path[0].tolist() == (0.0, cfg.r0, 0.0)
    assert path[-1].tolist() == (t, r[0], clock[0])


def test_radial_batch_early_stop():
    rng = make_rng(41)
    _, _, t_reached = simulate_radial_batch(
        ModelSpace.HYPERBOLIC, 1.0, 50.0, 1e-2, 200, rng, stop_rate_tol=1e-10
    )
    assert t_reached < 50.0  # all paths escaped; stepping stopped early


def test_hyperbolic_clock_underflows_without_warning():
    # Without an early stop, paths pass r ~ 178, where sinh(2r)^2 overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, clock, _ = simulate_radial_batch(ModelSpace.HYPERBOLIC, 1.0, 60.0, 1e-2, 10, make_rng(1))
        rates = geometry.clock_rate(ModelSpace.HYPERBOLIC, np.array([200.0, 400.0]))
    assert r.max() > 178 and np.all(np.isfinite(clock))
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0)


# ---------------------------------------------------------------------------
# Equivalence with the reference radial kernel
#
# The reference below is the radial kernel in its straightforward form: the
# drift and the clock rate as separate expressions, each evaluated from r on
# every step (the projective clock through sin), its own implicit-step solver,
# and the guard's masks built on every step.  The production kernel must draw
# the same normals and give the same radii and stop times; its clock may
# differ only by the rounding of 4 (1 + cot^2 2r) against 4 / sin^2(2r).

def _reference_bisect(drift, target, dt, hi):
    lo = np.full_like(target, 1e-14)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        neg = mid - drift(mid) * dt - target < 0
        lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def _reference_radial_law(space, tilt=None):
    """(drift, clock rate, root of x - drift(x) dt = target) on ``space``."""
    if space is ModelSpace.FLAT:
        k = (7.0 + 2.0 * (0.0 if tilt is None else tilt)) / 2.0
        return (lambda r: k / r), (lambda r: 1.0 / (r * r)), (
            lambda target, dt: 0.5 * (target + np.sqrt(target * target + 4.0 * k * dt)))
    if space is ModelSpace.PROJECTIVE:
        def drift(r):
            return 7.0 / np.tan(2.0 * r)

        def root(target, dt):
            return _reference_bisect(drift, target, dt, np.full_like(target, math.pi / 2 - 1e-14))
        return drift, (lambda r: 4.0 / np.sin(2.0 * r) ** 2), root
    p, q = (3.5, 3.5) if tilt is None else (tilt[0] + 3.5, tilt[1] + 3.5)

    def drift(r):
        return p / np.tanh(r) + q * np.tanh(r)

    def root(target, dt):
        hi = np.maximum(np.abs(target) + 1.0, 2.0)
        while not np.all(up := hi - drift(hi) * dt - target > 0):
            hi = np.where(up, hi, 2.0 * hi)
        return _reference_bisect(drift, target, dt, hi)
    return drift, (lambda r: 4.0 / np.sinh(2.0 * r) ** 2), root


def _reference_hi_guard(space):
    return math.pi / 2 - R_MIN if space is ModelSpace.PROJECTIVE else math.inf


def _reference_radial_step(drift, root, r, noise, dt, hi_guard):
    """Guarded Euler step of r; also returns whether the guard redid a path."""
    prop = r + drift(r) * dt + noise
    bad = (prop <= R_MIN) | (prop >= hi_guard)
    if np.any(bad):
        prop[bad] = root((r + noise)[bad], dt)
        if np.any((prop <= R_MIN) | (prop >= hi_guard)):
            raise SimulationError("radial path left the domain")
    return prop, bool(np.any(bad))


def _reference_radial_batch(space, r0, t_end, dt, n_paths, rng, tilt=None, stop_rate_tol=None):
    """(r_end, clock_end, t_reached, number of steps on which the guard redid a path)."""
    drift, clock_of, root = _reference_radial_law(space, tilt)
    hi_guard = _reference_hi_guard(space)
    r = np.full(n_paths, float(r0))
    rate, clock, t_now, redone = clock_of(r), np.zeros(n_paths), 0.0, 0
    for h in engine._time_steps(t_end, dt):
        noise = rng.standard_normal(n_paths) * math.sqrt(h)
        t_now += h
        r, hit = _reference_radial_step(drift, root, r, noise, h, hi_guard)
        redone += hit
        new_rate = clock_of(r)
        clock += 0.5 * h * (rate + new_rate)
        rate = new_rate
        if stop_rate_tol is not None and rate.max() < stop_rate_tol:
            break
    return r, clock, t_now, redone


@pytest.mark.parametrize("space,r0,t_end,dt,tilt,stop_tol", [
    (ModelSpace.FLAT, 1.0, 1.0, 1e-3, None, None),
    (ModelSpace.FLAT, 0.05, 1.0, 2e-2, 1.0, None),
    (ModelSpace.PROJECTIVE, math.pi / 4, 1.0, 1e-3, None, None),
    (ModelSpace.PROJECTIVE, 1.56, 1.0, 5e-2, None, None),  # the guard fires
    (ModelSpace.HYPERBOLIC, 1.0, 1.0, 1e-3, None, None),
    (ModelSpace.HYPERBOLIC, 0.05, 1.0, 2e-2, (2.0, -8.0), None),
    (ModelSpace.HYPERBOLIC, 1.0, 50.0, 1e-2, None, 1e-10),  # stops early
])
def test_radial_batch_matches_reference_kernel(monkeypatch, space, r0, t_end, dt, tilt, stop_tol):
    # Count the steps on which the production guard took its mask path.
    spec, redone = space.spec, []

    def counted_radial(tilt):
        law, implicit_root = spec.radial(tilt)

        def root(target, dt):
            redone.append(target.size)
            return implicit_root(target, dt)
        return law, root
    monkeypatch.setitem(geometry.SPACES, space, dataclasses.replace(spec, radial=counted_radial))

    r, clock, t = simulate_radial_batch(space, r0, t_end, dt, 500, make_rng(83, (1,)), tilt=tilt,
                                        stop_rate_tol=stop_tol)
    r_ref, clock_ref, t_ref, redone_ref = _reference_radial_batch(space, r0, t_end, dt, 500,
                                                                  make_rng(83, (1,)), tilt, stop_tol)
    assert np.array_equal(r, r_ref) and t == t_ref
    if space is ModelSpace.PROJECTIVE:
        assert np.max(np.abs(clock - clock_ref) / clock_ref) <= 2e-15
    else:
        assert np.array_equal(clock, clock_ref)
    assert len(redone) == redone_ref
    if r0 == 1.56:
        assert redone_ref > 0
    if stop_tol is not None:
        assert t < t_end


# ---------------------------------------------------------------------------
# Coordinate simulation

def _w0(space, r0):
    from octowind.geometry import coord_norm

    w = np.zeros(8)
    w[0] = coord_norm(space, r0)
    return w


def test_coordinate_zero_noise_flat(zero_noise):
    cfg = SimConfig(space=ModelSpace.FLAT, t_end=1.0, dt=1e-2, w0=_w0(ModelSpace.FLAT, 1.0))
    path = simulate_coordinate(cfg)
    assert np.allclose(path["w"][-1], path["w"][0])
    assert np.allclose(path["zeta"][-1], 0.0)


@pytest.mark.parametrize(
    "scheme,rate",
    [(EULER_MARUYAMA, 6.0), (STRATONOVICH_HEUN, 7.0)],
)
def test_coordinate_zero_noise_projective_ode(zero_noise, scheme, rate):
    # With the noise switched off the radius solves dr/dt = -c tan r, i.e.
    # sin r(t) = sin r0 * exp(-c t), with c = 6 for the Ito drift and 7 for
    # the Stratonovich drift.  This separates the two schemes sharply.
    r0, t_end = 0.8, 0.2
    cfg = SimConfig(space=ModelSpace.PROJECTIVE, t_end=t_end, dt=1e-4,
                    w0=_w0(ModelSpace.PROJECTIVE, r0), scheme=scheme)
    path = simulate_coordinate(cfg)
    r_end = math.atan(float(np.linalg.norm(path["w"][-1])))
    assert math.sin(r_end) == pytest.approx(math.sin(r0) * math.exp(-rate * t_end), rel=2e-3)


@pytest.mark.parametrize(
    "scheme,rate",
    [(EULER_MARUYAMA, 6.0), (STRATONOVICH_HEUN, 7.0)],
)
def test_coordinate_zero_noise_hyperbolic_ode(zero_noise, scheme, rate):
    # Same idea outward: sinh r(t) = sinh r0 * exp(+c t).
    r0, t_end = 0.5, 0.2
    cfg = SimConfig(space=ModelSpace.HYPERBOLIC, t_end=t_end, dt=1e-4,
                    w0=_w0(ModelSpace.HYPERBOLIC, r0), scheme=scheme)
    path = simulate_coordinate(cfg)
    r_end = math.atanh(float(np.linalg.norm(path["w"][-1])))
    assert math.sinh(r_end) == pytest.approx(math.sinh(r0) * math.exp(rate * t_end), rel=2e-3)


def test_coordinate_zero_noise_first_order_convergence(zero_noise):
    # Halving dt should roughly halve the deterministic integration error.
    r0, t_end = 0.8, 0.2
    exact = math.sin(r0) * math.exp(-6.0 * t_end)

    def err(dt):
        cfg = SimConfig(space=ModelSpace.PROJECTIVE, t_end=t_end, dt=dt,
                        w0=_w0(ModelSpace.PROJECTIVE, r0), scheme=EULER_MARUYAMA)
        path = simulate_coordinate(cfg)
        r_end = math.atan(float(np.linalg.norm(path["w"][-1])))
        return abs(math.sin(r_end) - exact)

    ratio = err(2e-3) / err(1e-3)
    assert 1.5 < ratio < 2.5


def test_coordinate_path_continues_past_the_switch():
    # The outward drift carries the hyperbolic path to the chart ceiling near
    # t = 2.25; the single path then finishes on the skew product as the batch does.
    w0 = np.zeros(8)
    w0[0] = 0.7
    cfg = SimConfig(space=ModelSpace.HYPERBOLIC, t_end=5.0, dt=1e-3, w0=w0)
    path = simulate_coordinate(cfg)
    z, k = simulate_coordinate_batch(cfg.space, w0, cfg.t_end, cfg.dt, 1, make_rng(cfg.seed))
    assert k == 1
    assert path.dtype.names == ("time", "w", "zeta")
    assert len(path) == 5001 and path["time"][-1] == pytest.approx(5.0)
    w, zeta = path["w"], path["zeta"]
    on_chart = np.isfinite(w).all(axis=1)
    switch = int(np.argmin(on_chart))
    assert 2.0 < path["time"][switch] < 2.5
    assert on_chart[:switch].all() and np.isnan(w[switch:]).all()
    assert (zeta[switch:-1] == zeta[switch - 1]).all()
    assert np.array_equal(zeta[-1], z[0])
    assert not np.array_equal(zeta[-1], zeta[-2])


@pytest.mark.parametrize("space", [ModelSpace.PROJECTIVE, ModelSpace.HYPERBOLIC])
@pytest.mark.parametrize("scheme", engine.SCHEMES)
def test_a_coordinate_step_past_the_double_range_switches_without_a_warning(space, scheme):
    # One step of the largest horizon: the Stratonovich-Heun corrector overflows and adds inf to -inf, so
    # the step is not finite and the switch rule moves every path to the skew product (every warning is an
    # error here).
    w0 = np.zeros(8)
    w0[7] = 0.25
    t = engine.T_END_MAX
    zeta, switched = simulate_coordinate_batch(space, w0, t, t, 4, make_rng(0), scheme=scheme)
    assert switched == 4 and np.isfinite(zeta).all()


def test_coordinate_deterministic():
    cfg = SimConfig(space=ModelSpace.PROJECTIVE, t_end=0.5, dt=1e-3,
                    w0=_w0(ModelSpace.PROJECTIVE, 0.6), seed=77)
    p1 = simulate_coordinate(cfg)
    p2 = simulate_coordinate(cfg)
    assert np.array_equal(p1["w"], p2["w"])
    assert np.array_equal(p1["zeta"], p2["zeta"])


def test_coordinate_batch_deterministic_and_flat_law():
    from octowind.engine import simulate_coordinate_batch

    w0 = _w0(ModelSpace.FLAT, 1.0)
    z1, sw1 = simulate_coordinate_batch(ModelSpace.FLAT, w0, 0.5, 1e-3, 400, make_rng(55))
    z2, sw2 = simulate_coordinate_batch(ModelSpace.FLAT, w0, 0.5, 1e-3, 400, make_rng(55))
    assert np.array_equal(z1, z2)
    assert sw1 == sw2 == 0
    # winding coordinates are centered
    se = z1.std(ddof=1) / math.sqrt(z1.size)
    assert abs(z1.mean()) < 5 * se


# ---------------------------------------------------------------------------
# Equivalence with the reference coordinate kernel
#
# The reference below is the straightforward form of the batch kernel: the
# winding form through the octonion product, the coefficients through the
# chart radius and trig functions, a boolean gather/scatter of the active
# paths on every step, and the reference radial step for the switched paths.
# The production kernel must draw the same normals and reproduce it to
# rounding.

def _reference_coefficients(space, wn):
    """(sigma, Ito factor, Stratonovich factor) from r = coord_radius(|w|)."""
    if space is ModelSpace.FLAT:
        return np.ones_like(wn), np.zeros_like(wn), np.zeros_like(wn)
    if space is ModelSpace.PROJECTIVE:
        sig = 1.0 / np.cos(np.arctan(wn)) ** 2
        return sig, -6.0 * sig, -6.0 * sig - sig
    sig = 1.0 / np.cosh(np.arctanh(wn)) ** 2
    return sig, 6.0 * sig, 6.0 * sig + sig


def _reference_step(space, w, dw_noise, h, scheme):
    wn = np.linalg.norm(w, axis=-1)
    sig, ito, strat = _reference_coefficients(space, wn)
    if scheme == EULER_MARUYAMA:
        return w + ito[:, None] * w * h + sig[:, None] * dw_noise
    pred = w + strat[:, None] * w * h + sig[:, None] * dw_noise
    sig2, _, strat2 = _reference_coefficients(space, np.linalg.norm(pred, axis=-1))
    drift_avg = 0.5 * (strat[:, None] * w + strat2[:, None] * pred)
    return w + drift_avg * h + 0.5 * (sig + sig2)[:, None] * dw_noise


def _reference_radius(space, wn):
    if space is ModelSpace.HYPERBOLIC:
        return np.arctanh(np.minimum(wn, 1.0 - 1e-15))
    return np.arctan(wn) if space is ModelSpace.PROJECTIVE else wn.copy()


# Conjugation e0..e7 -> e0, -e1..-e7 as a sign vector.
_CONJ = np.array([1.0] + [-1.0] * 7)


def _reference_coordinate_batch(space, w0, t_end, dt, n_paths, rng, scheme,
                                r_min=1e-6, max_radial_step=0.5):
    ceiling = space.spec.chart_ceiling
    drift, clock_of, root = _reference_radial_law(space)
    lo_guard = r_min
    hi_guard = _reference_hi_guard(space)
    w = np.tile(w0, (n_paths, 1))
    zeta = np.zeros((n_paths, 7))
    switched = np.zeros(n_paths, dtype=bool)
    r_sw = np.zeros(n_paths)
    rate_sw = np.zeros(n_paths)
    clock_sw = np.zeros(n_paths)
    for h in engine._time_steps(t_end, dt):
        noise = rng.standard_normal((n_paths, 8)) * math.sqrt(h)
        act = ~switched
        if np.any(act):
            wa = w[act]
            wn = np.linalg.norm(wa, axis=1)
            ra = _reference_radius(space, wn)
            exiting = (ra >= ceiling) | (wn <= r_min)
            w_new = _reference_step(space, wa, noise[act], h, scheme)
            dw = w_new - wa
            finite = np.all(np.isfinite(w_new), axis=1)
            r_new = np.where(finite, _reference_radius(
                space, np.where(finite, np.linalg.norm(w_new, axis=1), 0.0)), np.inf)
            bad = exiting | ~finite | (np.abs(r_new - ra) > max_radial_step)
            good = ~bad
            idx = np.flatnonzero(act)
            if np.any(good):
                mid = 0.5 * (wa[good] + w_new[good])
                n2 = np.sum(mid * mid, axis=1)
                zeta[idx[good]] += mul_array(_CONJ * mid, dw[good])[:, 1:] / n2[:, None]
                w[idx[good]] = w_new[good]
            if np.any(bad):
                switched[idx[bad]] = True
                r_here = np.clip(ra[bad], lo_guard * 2.0,
                                 hi_guard - lo_guard if math.isfinite(hi_guard) else np.inf)
                r_sw[idx[bad]] = r_here
                rate_sw[idx[bad]] = clock_of(r_here)
        sw = switched.copy()
        if np.any(sw):
            r_next, _ = _reference_radial_step(drift, root, r_sw[sw], noise[sw, 0], h, hi_guard)
            new_rate = clock_of(r_next)
            clock_sw[sw] += 0.5 * h * (rate_sw[sw] + new_rate)
            r_sw[sw] = r_next
            rate_sw[sw] = new_rate
    k = int(switched.sum())
    if k:
        zeta[switched] += rng.standard_normal((k, 7)) * np.sqrt(clock_sw[switched])[:, None]
    return zeta, k


@pytest.mark.parametrize("scheme", [EULER_MARUYAMA, STRATONOVICH_HEUN])
@pytest.mark.parametrize(
    "space,r0",
    [(ModelSpace.FLAT, 1.0), (ModelSpace.PROJECTIVE, 0.5), (ModelSpace.HYPERBOLIC, 1.0),
     (ModelSpace.PROJECTIVE, 1.4)],
)
def test_coordinate_batch_matches_reference_kernel(space, r0, scheme):
    # t = 3 takes every hyperbolic path past the chart ceiling; r0 = 1.4
    # starts projective paths just below theirs, so the fallback runs there too.
    w0 = _w0(space, r0)
    n_paths, t_end = 200, 3.0
    z_ref, k_ref = _reference_coordinate_batch(space, w0, t_end, 1e-3, n_paths, make_rng(71, (3,)), scheme)
    z, k = simulate_coordinate_batch(space, w0, t_end, 1e-3, n_paths, make_rng(71, (3,)), scheme=scheme)
    assert k == k_ref
    assert np.max(np.abs(z - z_ref)) <= 1e-12
    if space is ModelSpace.HYPERBOLIC:
        assert k == n_paths
    if r0 == 1.4:
        assert 0 < k < n_paths


def test_single_coordinate_path_is_a_batch_of_one():
    cfg = SimConfig(space=ModelSpace.PROJECTIVE, t_end=0.5, dt=1e-3,
                    w0=_w0(ModelSpace.PROJECTIVE, 0.6), seed=78)
    path = simulate_coordinate(cfg)
    z, k = simulate_coordinate_batch(cfg.space, cfg.w0, cfg.t_end, cfg.dt, 1, make_rng(cfg.seed))
    assert k == 0
    assert np.array_equal(path["zeta"][-1], z[0])


# ---------------------------------------------------------------------------
# The noise helper
#
# The reference hands the kernels their normals by one standard_normal call per step, on the
# calling thread.  The helper draws them a chunk ahead on another thread; it must give the same
# values and leave the generator where the reference does, however the kernel ends.

def _per_step_noise(t_end, dt, rng, shape):
    for h in engine._time_steps(t_end, dt):
        yield h, rng.standard_normal(shape)


def _chunk_rows(shape):
    return engine.NOISE_CHUNK_BYTES // (8 * math.prod(shape))


def _radial_with_remainder(rng):
    # 5001 steps, the last one half a step, over three chunks of 2048 rows.
    assert _chunk_rows((64,)) == 2048
    return simulate_radial_batch(ModelSpace.FLAT, 1.0, 5.0005, 1e-3, 64, rng)


def _radial_shorter_than_a_chunk(rng):
    assert _chunk_rows((500,)) > 50
    return simulate_radial_batch(ModelSpace.PROJECTIVE, 0.8, 0.05, 1e-3, 500, rng)


def _radial_early_stop(rng):
    # Every path escapes by t = 1.42, on step 142, inside the third chunk of 65 rows.
    r, clock, t = simulate_radial_batch(ModelSpace.HYPERBOLIC, 1.0, 50.0, 1e-2, 2000, rng, stop_rate_tol=1e-10)
    assert 2 * _chunk_rows((2000,)) < round(t / 1e-2) < 3 * _chunk_rows((2000,))
    return r, clock, t


def _radial_simulation_error(rng):
    # An implicit root that lands below R_MIN, so the first guarded step raises.
    spec = geometry.SPACES[ModelSpace.PROJECTIVE]

    def broken_radial(tilt):
        law, _ = spec.radial(tilt)
        return law, lambda target, dt: np.full_like(target, R_MIN / 2)
    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(geometry.SPACES, ModelSpace.PROJECTIVE, dataclasses.replace(spec, radial=broken_radial))
        with pytest.raises(SimulationError) as info:
            simulate_radial_batch(ModelSpace.PROJECTIVE, 1.56, 1.0, 5e-2, 200, rng)
    # The traceback keeps the kernel's frame alive, so only the kernel's own close joins the helper.
    assert info.tb is not None and threading.active_count() == threads
    return ()


def _hyperbolic_coordinate(rng):
    # Every path switches before t = 3, so the final draws run; 3000 steps over chunks of 81 rows.
    zeta, k = simulate_coordinate_batch(ModelSpace.HYPERBOLIC, _w0(ModelSpace.HYPERBOLIC, 1.0), 3.0, 1e-3, 200,
                                        rng)
    assert k == 200 and _chunk_rows((200, 8)) == 81
    return zeta, k


@pytest.mark.parametrize("run", [_radial_with_remainder, _radial_shorter_than_a_chunk, _radial_early_stop,
                                 _radial_simulation_error, _hyperbolic_coordinate])
def test_noise_helper_keeps_the_bits_of_one_draw_per_step_and_joins_its_thread(monkeypatch, run):
    threads = threading.active_count()
    got_rng, want_rng = make_rng(91), make_rng(91)
    got = run(got_rng)
    assert threading.active_count() == threads
    monkeypatch.setattr(engine, "_noise_steps", _per_step_noise)
    want = run(want_rng)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(got_rng.standard_normal(7), want_rng.standard_normal(7))


@pytest.mark.parametrize("taken", range(1, 8))
def test_noise_helper_closed_after_any_step_leaves_the_stream_there(monkeypatch, taken):
    # Chunks of two steps: six full steps and a half one, in four chunks.
    monkeypatch.setattr(engine, "NOISE_CHUNK_BYTES", 2 * 3 * 8)
    rng, ref = make_rng(92), make_rng(92)
    steps = engine._noise_steps(0.0065, 1e-3, rng, (3,))
    got = [(h, normals.copy()) for h, normals in itertools.islice(steps, taken)]
    steps.close()
    want = list(itertools.islice(_per_step_noise(0.0065, 1e-3, ref, (3,)), taken))
    assert [h for h, _ in got] == [h for h, _ in want] and len(got) == taken
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
    assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


def test_a_kernel_closed_after_a_few_steps_joins_its_helper():
    # 1000 steps over chunks of 65 rows.
    assert _chunk_rows((2000,)) == 65
    threads = threading.active_count()
    rng, ref = make_rng(4), make_rng(4)
    states = engine._radial_states(ModelSpace.FLAT, 1.0, 1.0, 1e-3, 2000, rng)
    for _ in range(4):  # t = 0 and three steps
        next(states)
    assert threading.active_count() == threads + 1  # the helper that draws ahead
    states.close()
    assert threading.active_count() == threads
    ref.standard_normal(3 * 2000)
    assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))


@pytest.mark.parametrize("taken", [2, 5, None])
def test_a_kernel_run_of_one_chunk_starts_no_thread(taken):
    # 1000 steps in one chunk of 13107 rows, run to its end or closed after a few steps.
    assert _chunk_rows((10,)) > 1000
    threads = threading.active_count()
    rng, ref = make_rng(4), make_rng(4)
    states = engine._radial_states(ModelSpace.FLAT, 1.0, 1.0, 1e-3, 10, rng)
    for _ in itertools.islice(states, taken):
        assert threading.active_count() == threads
    states.close()
    ref.standard_normal(10 * (1000 if taken is None else taken - 1))
    assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))


def test_a_pool_forks_cleanly_after_an_in_process_kernel():
    # From Python 3.12 on, a fork while another thread runs raises a DeprecationWarning, which
    # this suite turns into an error: the kernel's helper thread must be gone before the fork.
    simulate_radial_batch(ModelSpace.FLAT, 1.0, 0.05, 1e-3, 20, make_rng(5))
    runs = [mc.run_radial_mc(ModelSpace.HYPERBOLIC, 1.0, 0.05, 1e-3, 80, seed=35, want_winding=True,
                             block_size=40, workers=workers) for workers in (2, 1)]
    assert all(np.array_equal(a, b) for a, b in zip(*(vars(run).values() for run in runs)))


# ---------------------------------------------------------------------------
# Exact flat transitions

def test_log_time_grid():
    g = log_time_grid(1e4)
    assert g[0] == 0.0
    assert g[1] == pytest.approx(T_INIT)
    assert g[-1] == pytest.approx(1e4)
    assert len(g) == 2 + 8 * PER_DECADE  # 0, then 8 decades from T_INIT to 1e4
    assert np.all(np.diff(g) > 0)
    for t_end in (T_INIT, 1e-5, math.inf, math.nan):
        with pytest.raises(DomainError):
            log_time_grid(t_end)
    # Up to T_GRID_MAX, past which t_end / T_INIT (and so the point count) overflows.
    assert engine.T_GRID_MAX == sys.float_info.max * T_INIT
    g = log_time_grid(engine.T_GRID_MAX)
    assert g[-1] == engine.T_GRID_MAX and np.all(np.diff(g) > 0)
    assert len(log_time_grid(1e8)) == 1 + 1537  # 0, then 12 decades at PER_DECADE: criterion 3's grid


def test_flat_exact_batch_mean_squared_radius():
    times = np.linspace(0.0, 2.0, 21)
    rng = make_rng(61)
    r, clock = simulate_flat_exact_batch(1.0, times, 20_000, rng)
    m = (r**2).mean()
    se = (r**2).std(ddof=1) / math.sqrt(r.size)
    assert abs(m - (1.0 + 8.0 * 2.0)) < 4 * se
    assert np.all(clock > 0)


def test_flat_exact_batch_validation():
    rng = make_rng(62)
    # NaN would give NaN clocks and inf all-zero ones; 1e200 squares to inf, 1e-200 to 0 (a
    # divide-by-zero warning in 1 / x) and 1e-160 to a subnormal whose reciprocal overflows.
    for rho in (0.0, math.nan, math.inf, 1e200, 1e-200, 1e-160):
        with pytest.raises(DomainError, match="violates .* <= rho <= "):
            simulate_flat_exact_batch(rho, np.array([0.0, 1.0]), 10, rng)
    with pytest.raises(DomainError, match="rho = 1e[+]200 violates"):
        mc.run_flat_exact_mc(1e200, 1.0, 10, workers=1)
    # A horizon past T_GRID_MAX would overflow the grid's point count; the refusal names the bound.
    for call in (lambda: log_time_grid(1e307), lambda: mc.run_flat_exact_mc(1.0, 1e307, 10, workers=1)):
        with pytest.raises(DomainError, match=r"t_end <= 1\.798e\+304"):
            call()
    # A long first step overflows the first trapezoid 0.5 dt_0 (1 / rho**2 + 1 / x_1) of a tiny rho.
    with pytest.raises(DomainError, match=r"rho = 2e-154 violates 1\.492e-153 <= rho"):
        simulate_flat_exact_batch(2e-154, np.array([0.0, 100.0]), 5, rng)
    for times in ([0.5, 1.0], [0.0, 1.0, 1.0], [0.0], [0.0, math.nan], [0.0, 1.0, math.inf]):
        with pytest.raises(DomainError, match="times"):
            simulate_flat_exact_batch(1.0, np.array(times), 10, rng)


def test_flat_exact_batch_runs_at_the_ends_of_its_range():
    # Under the suite's warning filter an overflow or a division by zero would raise.  On log_time_grid
    # the lower end is sqrt(smallest normal); a long first step raises it so the first trapezoid fits.
    for times in (log_time_grid(1e4), np.array([0.0, 100.0, 200.0])):
        steps = np.diff(times)
        lo = math.sqrt(max(sys.float_info.min, steps[0] / (sys.float_info.max / 4)))
        hi = math.sqrt(sys.float_info.max / 4 * min(1.0, steps.min()))
        assert (lo == math.sqrt(sys.float_info.min)) == (steps[0] == T_INIT)
        for rho in (lo, hi):
            r, clock = simulate_flat_exact_batch(rho, times, 50, make_rng(63))
            assert np.all(np.isfinite(r)) and np.all(np.isfinite(clock)) and np.all(clock > 0)
        with pytest.raises(DomainError):
            simulate_flat_exact_batch(np.nextafter(hi, math.inf), times, 50, make_rng(63))
        with pytest.raises(DomainError):
            simulate_flat_exact_batch(np.nextafter(lo, 0.0), times, 50, make_rng(63))


def test_flat_exact_batch_keeps_the_bits_of_the_plain_loop():
    def plain(rho, times, n_paths, rng):
        x = np.full(n_paths, rho * rho)
        clock = np.zeros(n_paths)
        for i in range(len(times) - 1):
            delta = times[i + 1] - times[i]
            x_new = rng.noncentral_chisquare(8.0, x / delta, size=n_paths) * delta
            clock += 0.5 * delta * (1.0 / x + 1.0 / x_new)
            x = x_new
        return np.sqrt(x), clock

    times = log_time_grid(1e4)
    want_rng, got_rng = make_rng(64), make_rng(64)
    want, got = plain(1.0, times, 300, want_rng), simulate_flat_exact_batch(1.0, times, 300, got_rng)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(got_rng.standard_normal(4), want_rng.standard_normal(4))
