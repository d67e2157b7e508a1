"""Block runner: worker-count independence, the process pool, failing blocks and the OCTOWIND_WORKERS setting."""

import concurrent.futures
import ctypes
import dataclasses
import os
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octowind import cli, engine, geometry, mc
from octowind.errors import DomainError, SimulationError
from octowind.geometry import R_MIN, ModelSpace, coord_norm


def _assert_same_arrays(a, b):
    arrays = [name for name, value in vars(a).items() if isinstance(value, np.ndarray)]
    assert arrays
    for name in arrays:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# The coordinate and flat exact drivers run on DEFAULT_BLOCK_SIZE, so their second block needs
# this many paths; a few steps keep them cheap.
TWO_BLOCKS = mc.DEFAULT_BLOCK_SIZE + 40


def test_coordinate_mc_independent_of_worker_count():
    w0 = np.zeros(8)
    w0[0] = coord_norm(ModelSpace.PROJECTIVE, 1.4)
    runs = [mc.run_coordinate_mc(ModelSpace.PROJECTIVE, w0, 0.005, 1e-3, TWO_BLOCKS, seed=31, workers=workers)
            for workers in (1, 2)]
    _assert_same_arrays(*runs)
    assert runs[0].n_switched == runs[1].n_switched


def test_radial_mc_independent_of_worker_count():
    runs = [mc.run_radial_mc(ModelSpace.HYPERBOLIC, 1.0, 0.2, 1e-3, 90, seed=32, want_winding=True,
                             block_size=40, workers=workers) for workers in (1, 2)]
    _assert_same_arrays(*runs)


def test_flat_exact_mc_independent_of_worker_count():
    runs = [mc.run_flat_exact_mc(1.0, 1e-3, TWO_BLOCKS, seed=34, want_winding=True, workers=workers)
            for workers in (1, 2)]
    _assert_same_arrays(*runs)
    assert runs[0].zeta.shape == (TWO_BLOCKS, 7)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for one that runs the blocks in this process, after the pickle
    round trip that a pool started by spawn or forkserver makes of each block job in a fresh
    interpreter; the list it returns records each pool size asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            return map(pickle.loads(pickle.dumps(fn)), *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_pool_has_at_most_one_worker_per_block(pool_sizes):
    runs = [mc.run_radial_mc(ModelSpace.FLAT, 1.0, 0.05, 1e-3, 80, seed=33, want_winding=True,
                             block_size=40, workers=workers) for workers in (1, 64)]
    assert pool_sizes == [2]
    _assert_same_arrays(*runs)


@pytest.mark.parametrize("run", [
    lambda workers: mc.run_radial_mc(ModelSpace.HYPERBOLIC, 1.0, 0.05, 1e-3, 80, seed=35, want_winding=True,
                                     block_size=40, workers=workers),
    lambda workers: mc.run_coordinate_mc(ModelSpace.PROJECTIVE, np.eye(8)[0], 0.005, 1e-3, TWO_BLOCKS, seed=36,
                                         workers=workers),
    lambda workers: mc.run_flat_exact_mc(1.0, 1e-3, TWO_BLOCKS, seed=37, want_winding=True, workers=workers),
], ids=["radial", "coordinate", "flat_exact"])
def test_block_job_survives_pickling(pool_sizes, run):
    _assert_same_arrays(run(workers=1), run(workers=2))
    assert pool_sizes == [2]


def _openblas():
    """NumPy's scipy-openblas in this process, or None where /proc/self/maps or its entry point is missing."""
    try:
        with open("/proc/self/maps") as maps:
            libs = [ctypes.CDLL(path) for path in {line.split()[-1] for line in maps if "libscipy_openblas64_" in line}]
    except OSError:
        return None
    return next((lib for lib in libs if hasattr(lib, "scipy_openblas_get_num_threads64_")), None)


def _blas_threads(n, rng):
    return np.array([_openblas().scipy_openblas_get_num_threads64_()]), n


def test_pool_workers_run_one_blas_thread():
    # A forked worker keeps the parent's BLAS threads, one per core, unless the pool's initializer sets one.
    # SciPy's own scipy-openblas, loaded too, has other entry points.
    import scipy.linalg  # noqa: F401

    lib = _openblas()
    if lib is None:
        pytest.skip("NumPy's BLAS here is not scipy-openblas read through /proc/self/maps")
    threads = lib.scipy_openblas_get_num_threads64_()
    in_workers, sizes = mc._run_blocks(_blas_threads, 4, 1, 2, 2)
    assert in_workers.tolist() == [1, 1] and sizes.tolist() == [2, 2]
    assert lib.scipy_openblas_get_num_threads64_() == threads  # the parent keeps its own


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the pool forks on Linux")
def test_the_pool_forks_on_every_python(monkeypatch):
    # Python 3.14 starts pools by forkserver by default on Linux; the pool asks for fork on every version.
    methods = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            methods.append(mp_context.get_start_method())
            super().__init__(*args, mp_context=mp_context, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    mc.run_radial_mc(ModelSpace.FLAT, 1.0, 0.01, 1e-3, 80, seed=1, block_size=40, workers=2)
    assert methods == ["fork"]


# A pool whose workers fill the usable cores draws each step's normals inline in its workers, so
# these runs span more than one chunk of normals (65 rows at 2000 paths, one row at 25,000).
@pytest.mark.parametrize("run", [
    # Every path escapes by step 146 of 5000, so each block closes its noise early, then draws its windings.
    lambda workers: mc.run_radial_mc(ModelSpace.HYPERBOLIC, 1.0, 50.0, 1e-2, 4000, seed=38, want_winding=True,
                                     stop_rate_tol=1e-10, block_size=2000, workers=workers),
    lambda workers: mc.run_coordinate_mc(ModelSpace.PROJECTIVE, np.eye(8)[0], 0.005, 1e-3, TWO_BLOCKS, seed=39,
                                         workers=workers),
], ids=["radial_early_stop", "coordinate"])
def test_a_pool_that_fills_the_cores_draws_inline_with_the_same_bits(monkeypatch, run):
    monkeypatch.setattr(mc, "_usable_cores", lambda: 2)
    _assert_same_arrays(run(workers=2), run(workers=1))


def _threads_while_drawing(n, rng):
    """Block kernel: the threads of this process before and, at most, while 200 steps draw over four chunks."""
    before = threading.active_count()
    return before, max(threading.active_count() for _ in engine._noise_steps(2.0, 1e-2, rng, (n,)))


@pytest.mark.parametrize("cores, helpers", [(2, 0), (64, 1)], ids=["cores_filled", "core_spare"])
def test_a_pool_worker_starts_the_noise_helper_only_with_a_core_spare(monkeypatch, cores, helpers):
    monkeypatch.setattr(mc, "_usable_cores", lambda: cores)
    before, during = mc._run_blocks(_threads_while_drawing, 4000, 1, 2000, 2)
    assert (during - before).tolist() == [helpers, helpers]


def _exit_kernel(*args, **kwargs):
    os._exit(1)  # as a worker killed by the system would


def _memory_error_kernel(*args, **kwargs):
    raise MemoryError  # as a block too large to allocate would


def test_a_stopped_pool_worker_is_a_simulation_error():
    with pytest.raises(SimulationError, match=r"^a pool worker stopped .*\(workers = 2\)"):
        mc._run_blocks(_exit_kernel, 4, 1, 2, 2)


def test_a_block_out_of_memory_is_a_simulation_error():
    with pytest.raises(SimulationError, match=r"^block 1 of 3 paths: out of memory$"):
        mc._run_blocks(lambda n, rng: (np.zeros(n),) if n == 5 else _memory_error_kernel(), 8, 1, 5, 1)


@pytest.mark.parametrize("kernel, workers", [(_exit_kernel, 2), (_memory_error_kernel, 1), (_memory_error_kernel, 2)],
                         ids=["worker_stopped", "out_of_memory", "out_of_memory_in_a_worker"])
def test_a_failed_run_is_one_error_line(monkeypatch, capsys, kernel, workers):
    monkeypatch.setattr(mc, "simulate_radial_batch", kernel)
    argv = ["charfn", "--space", "flat", "--t", "0.01", "--paths", "4", "--block-size", "2", "--workers", str(workers)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_projective_tilt_is_refused():
    with pytest.raises(DomainError, match="projective"):
        mc.run_radial_mc(ModelSpace.PROJECTIVE, 1.0, 0.01, 1e-3, 10, seed=1, tilt=0.5, workers=1)


@pytest.mark.parametrize("settings,named", [
    ({"n_paths": -5, "block_size": 100}, "n_paths"),  # divmod(-5, 100) would run one block of 95
    ({"n_paths": 0}, "n_paths"),
    ({"block_size": 0}, "block_size"),
    ({"workers": 0}, "workers"),
    ({"seed": -1}, "seed"),
    # Past N_PATHS_MAX the (n, 8) normal block of one step cannot be indexed.
    ({"n_paths": 10 ** 27}, "n_paths"),
    ({"n_paths": 10 ** 19, "block_size": 10 ** 19}, "n_paths"),
    ({"n_paths": mc.N_PATHS_MAX + 1, "block_size": 10 ** 19}, "n_paths"),
    # A seed that is not an integer is refused, not truncated to the stream of int(seed).
    ({"seed": 1.5}, "seed"),
    ({"seed": 1.9}, "seed"),
    ({"seed": 1.0}, "seed"),
    ({"seed": float("nan")}, "seed"),
    ({"seed": float("inf")}, "seed"),
    ({"seed": -float("inf")}, "seed"),
    ({"seed": np.float64(2.0)}, "seed"),
    ({"seed": "1"}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": np.int64(-1)}, "seed"),
    # Nor is any other count: a fraction, a whole float or a bool is not run as a number of paths or workers.
    ({"n_paths": 10.5}, "n_paths"),
    ({"n_paths": 10.0}, "n_paths"),
    ({"n_paths": np.float64(10.0)}, "n_paths"),
    ({"n_paths": True}, "n_paths"),
    ({"block_size": 2.5}, "block_size"),
    ({"workers": 1.5}, "workers"),
    ({"workers": True}, "workers"),
    ({"workers": "2"}, "workers"),
])
def test_block_run_settings_are_checked(settings, named):
    args = {"n_paths": 10, "block_size": 5, "workers": 1, "seed": 1, **settings}
    bound = f"<= {mc.N_PATHS_MAX}$" if args["n_paths"] > mc.N_PATHS_MAX else ">= "
    value = args[named]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        pattern = re.escape(f"{named} = {value!r} is not an integer")
    else:
        pattern = f"{named} = -?[0-9]+ violates {named} {bound}"
    with pytest.raises(DomainError, match=pattern):
        mc.run_radial_mc(ModelSpace.FLAT, 1.0, 0.01, 1e-3, **args)


def _tagged(strategy, integer):
    return strategy.map(lambda value: (value, integer))


_NUMPY_INTEGERS = st.sampled_from([np.int8, np.uint16, np.int64, np.uint64]).flatmap(
    lambda kind: st.integers(int(np.iinfo(kind).min), int(np.iinfo(kind).max)).map(kind))
# Each setting with whether it is an integer: ints of any size and NumPy integers are; floats (NaN and the
# infinities too), booleans, text and None are not.
_SETTING = (_tagged(st.integers() | _NUMPY_INTEGERS, True)
            | _tagged(st.floats() | st.booleans() | st.text(max_size=4) | st.none(), False))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(n_paths=_SETTING, block_size=_SETTING, workers=_SETTING, seed=_SETTING)
@example(n_paths=("10", False), block_size=(5, True), workers=(1, True), seed=(1, True))
@example(n_paths=(mc.N_PATHS_MAX + 1, True), block_size=(10 ** 19, True), workers=(1, True), seed=(0, True))
@example(n_paths=(np.uint64(2 ** 64 - 1), True), block_size=(1, True), workers=(1, True), seed=(0, True))
def test_run_problems_accepts_exactly_the_integer_settings(n_paths, block_size, workers, seed):
    # Never an exception: no problem exactly when all four are integers at their floors and n_paths fits.
    # workers None is OCTOWIND_WORKERS, else 1, and the variable is unset here.
    counts = ((n_paths, 1), (block_size, 1), ((1, True) if workers[0] is None else workers, 1), (seed, 0))
    with pytest.MonkeyPatch.context() as env:
        env.delenv("OCTOWIND_WORKERS", raising=False)
        problems = mc.run_problems(n_paths[0], block_size[0], workers[0], seed[0])
    valid = all(integer and value >= low for (value, integer), low in counts) and n_paths[0] <= mc.N_PATHS_MAX
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
    assert (problems == []) == valid, problems


@pytest.mark.parametrize("seed", [1, np.int64(1), np.uint32(1), np.int8(1)])
def test_every_integer_seed_keeps_its_stream(seed):
    # The same bits as the plain int seed, which the drivers always took.
    want = mc.run_radial_mc(ModelSpace.FLAT, 1.0, 0.01, 1e-3, 50, seed=1, workers=1)
    got = mc.run_radial_mc(ModelSpace.FLAT, 1.0, 0.01, 1e-3, 50, seed=seed, workers=1)
    assert np.array_equal(got.clock_end, want.clock_end) and np.array_equal(got.r_end, want.r_end)


@pytest.mark.parametrize("landing", [R_MIN / 2, np.nan])
def test_radial_guard_failure_names_block_path_and_time(monkeypatch, landing):
    # An implicit root that lands below the floor, or on NaN, leaves the redone
    # proposal outside the domain, which must stop the run rather than yield
    # paths that are silently wrong.
    spec = geometry.SPACES[ModelSpace.PROJECTIVE]

    def broken_radial(tilt):
        law, _ = spec.radial(tilt)
        return law, lambda target, dt: np.full_like(target, landing)
    monkeypatch.setitem(geometry.SPACES, ModelSpace.PROJECTIVE, dataclasses.replace(spec, radial=broken_radial))

    with pytest.raises(SimulationError) as info:
        mc.run_radial_mc(ModelSpace.PROJECTIVE, 1.56, 1.0, 5e-2, 200, seed=83, block_size=100, workers=1)
    match = re.fullmatch(r"block 0: radial path (\d+) \((\d+) outside\) left \(1e-06, 1\.57\) at t = (\S+)",
                         str(info.value))
    assert match, str(info.value)
    assert int(match[1]) < 100 and 1 <= int(match[2]) <= 100
    assert float(match[3]) > 0


_DRIVERS = [
    lambda workers: mc.run_radial_mc(ModelSpace.FLAT, 1.0, 0.01, 1e-3, 90, seed=1, block_size=30, workers=workers),
    lambda workers: mc.run_coordinate_mc(ModelSpace.FLAT, np.eye(8)[0], 0.01, 1e-3, 20, seed=1, workers=workers),
    lambda workers: mc.run_flat_exact_mc(1.0, 1.0, 20, seed=1, want_winding=True, workers=workers),
]
_DRIVER_IDS = ["radial", "coordinate", "flat_exact"]


@pytest.mark.parametrize("run", _DRIVERS, ids=_DRIVER_IDS)
def test_worker_variable_sets_the_default(monkeypatch, run):
    # Unset, the default is one in-process worker; set, it is the count, which leaves the bits as they are.
    want = run(1)
    monkeypatch.delenv("OCTOWIND_WORKERS", raising=False)
    _assert_same_arrays(run(None), want)
    monkeypatch.setenv("OCTOWIND_WORKERS", "3")
    _assert_same_arrays(run(None), want)


@pytest.mark.parametrize("value, message", [
    ("two", "OCTOWIND_WORKERS = 'two' is not an integer"),
    ("1.5", "OCTOWIND_WORKERS = '1.5' is not an integer"),
    ("2x", "OCTOWIND_WORKERS = '2x' is not an integer"),
    # A count below 1 is refused as an explicit workers = 0 is, not raised to 1.
    ("0", "OCTOWIND_WORKERS = 0 violates OCTOWIND_WORKERS >= 1"),
    ("-3", "OCTOWIND_WORKERS = -3 violates OCTOWIND_WORKERS >= 1"),
], ids=["two", "1.5", "2x", "0", "-3"])
@pytest.mark.parametrize("run", _DRIVERS, ids=_DRIVER_IDS)
def test_worker_variable_is_checked_by_every_driver(monkeypatch, run, value, message):
    monkeypatch.setenv("OCTOWIND_WORKERS", value)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run(None)
