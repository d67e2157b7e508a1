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
            raise ConfigError([f"OCTOWIND_WORKERS = {env!r} is not an integer"]) from None
    return 1


def _block(job):
    kernel, args, kwargs, seed, i, n, want_winding = job
    rng = make_rng(seed, (i,))
    fields = kernel(*args, n, rng, **kwargs)
    return (*fields, sample_windings_timechange(fields[1], rng)) if want_winding else fields


def _run_blocks(kernel, args, n_paths, seed, block_size, workers, want_winding=False, **kwargs):
    """Run ``kernel(*args, n, rng, **kwargs)`` on every block of the n_paths,
    block i on the stream (seed, i), and concatenate each result field in
    block order; scalar fields come back as one array of per-block values.

    With ``want_winding`` the block also draws time-change windings from its
    second field, the clock, on the same stream; they come last.
    """
    workers = default_workers() if workers is None else workers
    full, rem = divmod(n_paths, block_size)
    sizes = [block_size] * full + ([rem] if rem else [])
    jobs = [(kernel, args, kwargs, seed, i, n, want_winding) for i, n in enumerate(sizes)]
    if workers <= 1 or len(jobs) <= 1:
        parts = [_block(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_block, jobs))
    return [np.concatenate(field) if np.ndim(field[0]) else np.array(field) for field in zip(*parts)]


@dataclass(frozen=True)
class RadialMcResult:
    space: ModelSpace
    t_end: float
    seed: int
    r_end: np.ndarray
    clock_end: np.ndarray
    zeta: Optional[np.ndarray]  # (n, 7) time-change windings, if requested


def run_radial_mc(
    space: ModelSpace,
    r0: float,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    tilt=None,
    want_winding: bool = False,
    stop_rate_tol: Optional[float] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: Optional[int] = None,
) -> RadialMcResult:
    """Radial endpoints (and optional time-change windings) over n_paths."""
    r_end, clock, _, *zeta = _run_blocks(simulate_radial_batch, (space, r0, t_end, dt), n_paths, seed,
                                         block_size, workers, want_winding, tilt=tilt,
                                         stop_rate_tol=stop_rate_tol)
    return RadialMcResult(space, t_end, seed, r_end, clock, zeta[0] if zeta else None)


@dataclass(frozen=True)
class CoordinateMcResult:
    space: ModelSpace
    t_end: float
    seed: int
    zeta: np.ndarray
    n_switched: int  # paths finished via the skew-product fallback


def run_coordinate_mc(
    space: ModelSpace,
    w0: np.ndarray,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    scheme: str = STRATONOVICH_HEUN,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: Optional[int] = None,
) -> CoordinateMcResult:
    """Line-integral windings over n_paths coordinate trajectories."""
    zeta, switched = _run_blocks(simulate_coordinate_batch, (space, np.asarray(w0, dtype=float), t_end, dt),
                                 n_paths, seed, block_size, workers, scheme=scheme)
    return CoordinateMcResult(space, t_end, seed, zeta, int(switched.sum()))


def run_flat_exact_mc(
    rho: float,
    t_end: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    want_winding: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: Optional[int] = None,
) -> RadialMcResult:
    """Flat radial endpoints on a logarithmic grid with exact transitions."""
    r_end, clock, *zeta = _run_blocks(simulate_flat_exact_batch, (rho, log_time_grid(t_end)), n_paths, seed,
                                      block_size, workers, want_winding)
    return RadialMcResult(ModelSpace.FLAT, t_end, seed, r_end, clock, zeta[0] if zeta else None)
