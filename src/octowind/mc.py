"""Block-parallel Monte Carlo drivers.

Paths are partitioned into fixed-size blocks; block i draws from the
counter-based stream (seed, i), so results are byte-identical for a given
(seed, n_paths, block_size) regardless of the worker count, and merging is
order-independent because blocks are always concatenated by index.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .engine import (
    DEFAULT_SEED,
    count_problems,
    log_time_grid,
    make_rng,
    sample_windings_timechange,
    simulate_coordinate_batch,
    simulate_flat_exact_batch,
    simulate_radial_batch,
)
from .errors import DomainError, SimulationError
from .geometry import ModelSpace

DEFAULT_BLOCK_SIZE = 25_000


#: Largest path count whose (n, 8) block of per-step normals NumPy can index.
N_PATHS_MAX = sys.maxsize // 64


def _workers(workers: Optional[int]) -> tuple[str, object]:
    """The worker count and the name of its source: ``workers``, or if that is None the
    OCTOWIND_WORKERS variable (its text when that is not an integer), else 1 (in-process)."""
    if workers is not None:
        return "workers", workers
    env = os.environ.get("OCTOWIND_WORKERS")
    with contextlib.suppress(ValueError):
        env = int(env) if env else 1
    return "OCTOWIND_WORKERS", env


def run_problems(n_paths: int, block_size: int, workers: Optional[int], seed: int) -> list[str]:
    """Every reason why these settings cannot define a block run; workers None reads OCTOWIND_WORKERS."""
    counts = (("n_paths", n_paths, 1), ("block_size", block_size, 1), (*_workers(workers), 1), ("seed", seed, 0))
    problems = [p for name, value, low in counts for p in count_problems(name, value, low)]
    if not count_problems("n_paths", n_paths, 1) and n_paths > N_PATHS_MAX:  # only an integer meets the ceiling
        problems.append(f"n_paths = {n_paths} violates n_paths <= {N_PATHS_MAX}")
    return problems


def _block(kernel, seed, want_winding, i, n):
    rng = make_rng(seed, (i,))
    try:
        fields = kernel(n, rng)
    except SimulationError as exc:
        raise SimulationError(f"block {i}: {exc}") from None
    return (*fields, sample_windings_timechange(fields[1], rng)) if want_winding else fields


def _one_blas_thread():
    """Pool initializer: one thread in NumPy's OpenBLAS (scipy-openblas64_, found in /proc/self/maps;
    SciPy's has other entry points), since a forked worker keeps one per core and the workers' threads
    spin against each other.  Where /proc, that library or its entry point is missing, it does nothing."""
    import ctypes

    with contextlib.suppress(OSError, AttributeError), open("/proc/self/maps") as maps:
        for lib in {line.split()[-1] for line in maps if "libscipy_openblas64_" in line}:
            ctypes.CDLL(lib).scipy_openblas_set_num_threads64_(1)


def _run_blocks(kernel, n_paths, seed, block_size, workers, want_winding=False):
    """Run ``kernel(n, rng)`` on every block of the n_paths, block i on the
    stream (seed, i), and concatenate each result field in block order;
    scalar fields come back as one array of per-block values.

    With ``want_winding`` the block also draws time-change windings from its
    second field, the clock, on the same stream; they come last.
    """
    if problems := run_problems(n_paths, block_size, workers, seed):
        raise DomainError("; ".join(problems))
    workers = _workers(workers)[1]
    full, rem = divmod(n_paths, block_size)
    sizes = [block_size] * full + ([rem] if rem else [])
    block = partial(_block, kernel, seed, want_winding)
    if workers <= 1 or len(sizes) <= 1:
        parts = list(map(block, range(len(sizes)), sizes))
    else:
        # Imported here so that an in-process run never loads the pool module.
        from concurrent.futures import ProcessPoolExecutor

        # A fork pool starts all its workers at once; more than one per block would idle.
        with ProcessPoolExecutor(max_workers=min(workers, len(sizes)), initializer=_one_blas_thread) as pool:
            parts = list(pool.map(block, range(len(sizes)), sizes))
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
    kernel = partial(simulate_radial_batch, space, r0, t_end, dt, tilt=tilt, stop_rate_tol=stop_rate_tol)
    r_end, clock, _, *zeta = _run_blocks(kernel, n_paths, seed, block_size, workers, want_winding)
    return RadialMcResult(space, t_end, seed, r_end, clock, zeta[0] if zeta else None)


@dataclass(frozen=True)
class CoordinateMcResult:
    zeta: np.ndarray
    n_switched: int  # paths finished via the skew-product fallback


def run_coordinate_mc(
    space: ModelSpace,
    w0: np.ndarray,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
) -> CoordinateMcResult:
    """Line-integral windings over n_paths Stratonovich-Heun coordinate trajectories."""
    kernel = partial(simulate_coordinate_batch, space, w0, t_end, dt)
    zeta, switched = _run_blocks(kernel, n_paths, seed, DEFAULT_BLOCK_SIZE, workers)
    return CoordinateMcResult(zeta, int(switched.sum()))


def run_flat_exact_mc(
    rho: float,
    t_end: float,
    n_paths: int,
    seed: int = DEFAULT_SEED,
    want_winding: bool = False,
    workers: Optional[int] = None,
) -> RadialMcResult:
    """Flat radial endpoints on a logarithmic grid with exact transitions."""
    kernel = partial(simulate_flat_exact_batch, rho, log_time_grid(t_end))
    r_end, clock, *zeta = _run_blocks(kernel, n_paths, seed, DEFAULT_BLOCK_SIZE, workers, want_winding)
    return RadialMcResult(ModelSpace.FLAT, t_end, seed, r_end, clock, zeta[0] if zeta else None)
