"""Block-parallel Monte Carlo drivers.

Paths are partitioned into fixed-size blocks; block i draws from the
counter-based stream (seed, i), so results are byte-identical for a given
(seed, n_paths, block_size) regardless of the worker count, and merging is
order-independent because blocks are always concatenated by index.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import (
    DEFAULT_SEED,
    STRATONOVICH_HEUN,
    log_time_grid,
    make_rng,
    sample_windings_timechange,
    simulate_coordinate_batch,
    simulate_flat_exact_batch,
    simulate_radial_batch,
)
from .errors import ConfigError
from .geometry import ModelSpace

DEFAULT_BLOCK_SIZE = 25_000


def default_workers() -> int:
    """Worker count: OCTOWIND_WORKERS if set, else 1 (in-process)."""
    env = os.environ.get("OCTOWIND_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"OCTOWIND_WORKERS = {env!r} is not an integer") from None
    return 1


def _block_sizes(n_paths: int, block_size: int) -> list[int]:
    full, rem = divmod(n_paths, block_size)
    return [block_size] * full + ([rem] if rem else [])


def _run_blocks(task, payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [task(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, payloads))


@dataclass(frozen=True)
class RadialMcResult:
    space: ModelSpace
    t_end: float
    seed: int
    r_end: np.ndarray
    clock_end: np.ndarray
    zeta: Optional[np.ndarray]  # (n, 7) time-change windings, if requested


def _radial_block(payload) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    (space, r0, t_end, dt, tilt, seed, block, n, r_min, stop_rate_tol, want_winding) = payload
    rng = make_rng(seed, (block,))
    r_end, clock, _ = simulate_radial_batch(
        space, r0, t_end, dt, n, rng, tilt=tilt, r_min=r_min, stop_rate_tol=stop_rate_tol
    )
    zeta = sample_windings_timechange(clock, rng) if want_winding else None
    return r_end, clock, zeta


def run_radial_mc(
    space: ModelSpace,
    r0: float,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    tilt=None,
    want_winding: bool = False,
    r_min: float = 1e-6,
    stop_rate_tol: Optional[float] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: Optional[int] = None,
) -> RadialMcResult:
    """Radial endpoints (and optional time-change windings) over n_paths."""
    workers = default_workers() if workers is None else workers
    payloads = [
        (space, r0, t_end, dt, tilt, seed, i, n, r_min, stop_rate_tol, want_winding)
        for i, n in enumerate(_block_sizes(n_paths, block_size))
    ]
    parts = _run_blocks(_radial_block, payloads, workers)
    zeta = np.concatenate([p[2] for p in parts]) if want_winding else None
    return RadialMcResult(
        space=space,
        t_end=t_end,
        seed=seed,
        r_end=np.concatenate([p[0] for p in parts]),
        clock_end=np.concatenate([p[1] for p in parts]),
        zeta=zeta,
    )


@dataclass(frozen=True)
class CoordinateMcResult:
    space: ModelSpace
    t_end: float
    seed: int
    zeta: np.ndarray
    n_switched: int  # paths finished via the skew-product fallback


def _coordinate_block(payload):
    (space, w0, t_end, dt, scheme, seed, block, n, r_min, r_max) = payload
    rng = make_rng(seed, (block,))
    return simulate_coordinate_batch(
        space, w0, t_end, dt, n, rng, scheme=scheme, r_min=r_min, r_max=r_max
    )


def run_coordinate_mc(
    space: ModelSpace,
    w0: np.ndarray,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    scheme: str = STRATONOVICH_HEUN,
    r_min: float = 1e-6,
    r_max: float = 1.45,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: Optional[int] = None,
) -> CoordinateMcResult:
    """Line-integral windings over n_paths coordinate trajectories."""
    workers = default_workers() if workers is None else workers
    w0 = np.asarray(w0, dtype=float)
    payloads = [
        (space, w0, t_end, dt, scheme, seed, i, n, r_min, r_max)
        for i, n in enumerate(_block_sizes(n_paths, block_size))
    ]
    parts = _run_blocks(_coordinate_block, payloads, workers)
    return CoordinateMcResult(
        space=space,
        t_end=t_end,
        seed=seed,
        zeta=np.concatenate([p[0] for p in parts]),
        n_switched=sum(p[1] for p in parts),
    )


def _flat_exact_block(payload):
    (rho, times, seed, block, n, want_winding) = payload
    rng = make_rng(seed, (block,))
    r_end, clock = simulate_flat_exact_batch(rho, times, n, rng)
    zeta = sample_windings_timechange(clock, rng) if want_winding else None
    return r_end, clock, zeta


def run_flat_exact_mc(
    rho: float,
    t_end: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    t_init: float = 1e-4,
    per_decade: int = 128,
    want_winding: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: Optional[int] = None,
) -> RadialMcResult:
    """Flat radial endpoints on a logarithmic grid with exact transitions."""
    workers = default_workers() if workers is None else workers
    times = log_time_grid(t_end, t_init=t_init, per_decade=per_decade)
    payloads = [
        (rho, times, seed, i, n, want_winding)
        for i, n in enumerate(_block_sizes(n_paths, block_size))
    ]
    parts = _run_blocks(_flat_exact_block, payloads, workers)
    zeta = np.concatenate([p[2] for p in parts]) if want_winding else None
    return RadialMcResult(
        space=ModelSpace.FLAT,
        t_end=t_end,
        seed=seed,
        r_end=np.concatenate([p[0] for p in parts]),
        clock_end=np.concatenate([p[1] for p in parts]),
        zeta=zeta,
    )
