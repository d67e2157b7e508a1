"""Per-layer probes: time calls into each module's public functions.

Every probe runs at the shape its workload uses (the charfn block, the
skew-product path count, the long-horizon sample size, a single path), so a
later change to one layer can be traced to the end-to-end metric it should
move. NOTES.md lists which metric and workload each probe is expected to move.
Timings are medians over a few repeats; counts are exact.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np

from octowind import cli, engine, geometry, mc, octonion, specfun, stats
from octowind.geometry import ModelSpace

from workloads import CHARFN_CASES, DT, HYPERBOLIC_STOP_TOL, LONG_T, SKEW_CASES, SKEW_T, Sizes

SPACES = tuple(ModelSpace)
CHARFN_R0 = {space: r0 for space, _, r0 in CHARFN_CASES}
SKEW_R0 = dict(SKEW_CASES)


def unit(name: str) -> str:
    """Unit of a probe metric, which its name carries."""
    for key, u in (("ns_per", "ns"), ("us_per", "us"), ("_ms", "ms"), ("_us", "us")):
        if key in name:
            return u
    return "ratio"


def _time(fn, calls: int = 1, repeats: int = 3) -> float:
    """Median over ``repeats`` of the mean wall time of ``calls`` back-to-back calls."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        walls.append((time.perf_counter() - t0) / calls)
    return statistics.median(walls)


def _w0(space: ModelSpace) -> np.ndarray:
    w0 = np.zeros(8)
    w0[0] = geometry.coord_norm(space, SKEW_R0[space.value])
    return w0


def _near(r0: float, n: int, rng) -> np.ndarray:
    """n radii within a factor e^0.4 of r0: inside every space's radial domain
    for the r0 the workloads use, whatever the seed."""
    return r0 * np.exp(0.1 * np.clip(rng.standard_normal(n), -4.0, 4.0))


def measure(seed: int, sizes: Sizes, workers: int, tiny: bool, tmp: str) -> dict:
    """Every per-layer metric except those the harness takes from the trace."""
    out = {}
    rng = engine.make_rng(seed, (0,))
    block, nc, ne = sizes.charfn_block, sizes.coord_paths, sizes.exact_paths
    radial_steps = 50 if tiny else 400
    coord_steps = 20 if tiny else 100
    exact_steps = 20 if tiny else 100

    philox = engine.make_rng(seed, (1,))
    calls = max(1, 500_000 // block)
    philox_ns = _time(lambda: philox.standard_normal(block), calls, 5) / block * 1e9
    out["engine.philox_ns_per_normal"] = philox_ns

    x, v = rng.standard_normal((nc, 8)), rng.standard_normal((nc, 8))
    out["octonion.eta_ns_per_point"] = _time(lambda: octonion.winding_form_array(x, v), 200, 5) / nc * 1e9
    out["octonion.mul_ns_per_point"] = _time(lambda: octonion.mul_array(x, v), 200, 5) / nc * 1e9

    for space in SPACES:
        s = space.value
        # Spread the radius, not the chart norm, so every point stays inside the chart.
        wn = geometry.coord_norm(space, _near(SKEW_R0[s], nc, rng))
        out[f"geometry.coeff_ns_per_point.{s}"] = _time(
            lambda: (geometry.sde_coefficients(space, wn),
                     geometry.stratonovich_drift_factor(space, wn)), 200, 5) / nc * 1e9
        r = _near(CHARFN_R0[s], block, rng)
        out[f"geometry.clock_rate_ns_per_point.{s}"] = _time(
            lambda: geometry.clock_rate(space, r), 200, 5) / block * 1e9

    for space in SPACES:
        s = space.value
        ns = _time(lambda: engine.simulate_radial_batch(
            space, CHARFN_R0[s], radial_steps * DT, DT, block, rng)) / (radial_steps * block) * 1e9
        out[f"engine.radial_ns_per_path_step.{s}"] = ns
        out[f"engine.radial_floor_ratio.{s}"] = ns / philox_ns

    _, _, t_reached = engine.simulate_radial_batch(
        ModelSpace.HYPERBOLIC, CHARFN_R0["hyperbolic"], 20.0, DT, block, engine.make_rng(seed, (2,)),
        stop_rate_tol=HYPERBOLIC_STOP_TOL)
    out["engine.early_stop_fraction"] = t_reached / 20.0

    for space in SPACES:
        s = space.value
        for scheme in engine.SCHEMES:
            wall = _time(lambda: engine.simulate_coordinate_batch(
                space, _w0(space), coord_steps * DT, DT, nc, rng, scheme=scheme))
            out[f"engine.coord_ns_per_path_step.{s}.{scheme}"] = wall / (coord_steps * nc) * 1e9
        heun = out[f"engine.coord_ns_per_path_step.{s}.{engine.STRATONOVICH_HEUN}"]
        out[f"engine.coord_floor_ratio.{s}"] = heun / (8.0 * philox_ns)
        n_sw = 8 if tiny else 32
        _, switched = engine.simulate_coordinate_batch(
            space, _w0(space), SKEW_T, DT, n_sw, engine.make_rng(seed, (3,)))
        out[f"engine.switched_share.{s}"] = switched / n_sw

    times = engine.log_time_grid(LONG_T)[: exact_steps + 1]
    out["engine.flat_exact_ns_per_path_step"] = _time(
        lambda: engine.simulate_flat_exact_batch(1.0, times, ne, rng)) / (exact_steps * ne) * 1e9

    for space in SPACES:
        s = space.value
        t_single = 0.05 if tiny else 0.2
        radial = engine.SimConfig(space=space, t_end=t_single, dt=DT, r0=1.0, seed=seed)
        coord = engine.SimConfig(space=space, t_end=t_single, dt=DT, w0=_w0(space), seed=seed)
        n_steps = round(t_single / DT)
        out[f"engine.single_radial_us_per_step.{s}"] = _time(
            lambda: engine.simulate_radial(radial)) / n_steps * 1e6
        out[f"engine.single_coord_us_per_step.{s}"] = _time(
            lambda: engine.simulate_coordinate(coord)) / n_steps * 1e6

    out["specfun.flat_laplace_ms"] = _time(lambda: specfun.flat_laplace(1.0, 10.0, 1.0), 5) * 1e3
    nu = specfun.order_from_lambda(1.0)
    out["specfun.bessel_i_us"] = _time(lambda: specfun.bessel_i(nu, 1.0), 200) * 1e6
    out["specfun.oh1_limit_us"] = _time(lambda: specfun.oh1_limit_charfn(1.0, 1.0), 2000) * 1e6

    n = sizes.charfn_paths
    clocks = mc.RadialMcResult(ModelSpace.FLAT, 10.0, seed, np.ones(n), rng.exponential(size=n), None)
    out["stats.mc_charfn_ns_per_sample"] = _time(lambda: stats.mc_charfn(clocks, 1.0), 50) / n * 1e9
    zeta = SimpleNamespace(zeta=rng.standard_normal((ne, 7)), clock_end=None)
    out["stats.gaussian_test_ms"] = _time(lambda: stats.gaussian_test(zeta, np.eye(7)), 1) * 1e3

    out.update(_runner_overhead(seed, sizes, tiny))
    out["mc.pool_efficiency"] = _pool_efficiency(seed, sizes, workers, tiny)
    out["cli.csv_us_per_row"] = _csv_cost(seed, tmp)
    return out


def _runner_overhead(seed: int, sizes: Sizes, tiny: bool) -> dict:
    """Share of an mc.run_* call not spent in the engine calls on the same blocks."""
    n, block, nc, ne = sizes.charfn_paths, sizes.charfn_block, sizes.coord_paths, sizes.exact_paths
    t_radial = 0.05 if tiny else 0.2
    t_coord = 0.01 if tiny else 0.1
    t_exact = 1e-3 if tiny else 1e-2
    full, rem = divmod(n, block)
    blocks = [block] * full + ([rem] if rem else [])
    w0 = _w0(ModelSpace.PROJECTIVE)
    times = engine.log_time_grid(t_exact)

    def radial_engine():
        for i, m in enumerate(blocks):
            engine.simulate_radial_batch(ModelSpace.FLAT, 1.0, t_radial, DT, m, engine.make_rng(seed, (i,)))

    def exact_engine():
        rng = engine.make_rng(seed, (0,))
        _, clock = engine.simulate_flat_exact_batch(1.0, times, ne, rng)
        engine.sample_windings_timechange(clock, rng)

    pairs = {
        "radial": (lambda: mc.run_radial_mc(ModelSpace.FLAT, 1.0, t_radial, DT, n, seed=seed,
                                            block_size=block, workers=1), radial_engine),
        "coordinate": (lambda: mc.run_coordinate_mc(ModelSpace.PROJECTIVE, w0, t_coord, DT, nc,
                                                    seed=seed, workers=1),
                       lambda: engine.simulate_coordinate_batch(ModelSpace.PROJECTIVE, w0, t_coord, DT,
                                                                nc, engine.make_rng(seed, (0,)))),
        "flat_exact": (lambda: mc.run_flat_exact_mc(1.0, t_exact, ne, seed=seed, want_winding=True,
                                                    workers=1), exact_engine),
    }
    out = {}
    for name, (runner, direct) in pairs.items():
        t_runner, t_direct = _time_pair(runner, direct)
        out[f"mc.runner_overhead_share.{name}"] = (t_runner - t_direct) / t_runner
    return out


def _time_pair(a, b, repeats: int = 5) -> tuple[float, float]:
    """Median wall times of two calls, interleaved so drift in the machine hits both."""
    walls = ([], [])
    for _ in range(repeats):
        for fn, w in zip((a, b), walls):
            t0 = time.perf_counter()
            fn()
            w.append(time.perf_counter() - t0)
    return statistics.median(walls[0]), statistics.median(walls[1])


def _pool_efficiency(seed: int, sizes: Sizes, workers: int, tiny: bool) -> float:
    """Wall at 1 worker / (workers x wall at `workers`) on the charfn block layout."""
    t_end = 0.1 if tiny else 2.0

    def run(w):
        return lambda: mc.run_radial_mc(ModelSpace.FLAT, 1.0, t_end, DT, sizes.charfn_paths, seed=seed,
                                        block_size=sizes.charfn_block, workers=w)
    one, many = _time_pair(run(1), run(workers), 3)
    return one / (workers * many)


def _csv_cost(seed: int, tmp: str) -> float:
    """cli.main simulate minus the direct engine call, per CSV row."""
    cfg = engine.SimConfig(space=ModelSpace.FLAT, t_end=1.0, dt=DT, r0=1.0, seed=seed)
    rows = round(1.0 / DT) + 1
    argv = ["simulate", "--space", "flat", "--t", "1.0", "--dt", repr(DT), "--r0", "1.0",
            "--seed", str(seed), "--out", os.path.join(tmp, "probe-path.csv")]

    def via_cli():
        with redirect_stdout(io.StringIO()):
            cli.main(argv)
    return (_time(via_cli) - _time(lambda: engine.simulate_radial(cfg))) / rows * 1e6
