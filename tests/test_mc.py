"""Block runner: worker-count independence and the OCTOWIND_WORKERS setting."""

import numpy as np
import pytest

from octowind import mc
from octowind.errors import ConfigError
from octowind.geometry import ModelSpace, coord_norm


def _assert_same_arrays(a, b):
    arrays = [name for name, value in vars(a).items() if isinstance(value, np.ndarray)]
    assert arrays
    for name in arrays:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_coordinate_mc_independent_of_worker_count():
    w0 = np.zeros(8)
    w0[0] = coord_norm(ModelSpace.PROJECTIVE, 1.4)
    runs = [mc.run_coordinate_mc(ModelSpace.PROJECTIVE, w0, 0.05, 1e-3, 90, seed=31,
                                 block_size=40, workers=workers) for workers in (1, 2)]
    _assert_same_arrays(*runs)
    assert runs[0].n_switched == runs[1].n_switched


def test_radial_mc_independent_of_worker_count():
    runs = [mc.run_radial_mc(ModelSpace.HYPERBOLIC, 1.0, 0.2, 1e-3, 90, seed=32, want_winding=True,
                             block_size=40, workers=workers) for workers in (1, 2)]
    _assert_same_arrays(*runs)


def test_default_workers_reads_environment(monkeypatch):
    monkeypatch.delenv("OCTOWIND_WORKERS", raising=False)
    assert mc.default_workers() == 1
    monkeypatch.setenv("OCTOWIND_WORKERS", "3")
    assert mc.default_workers() == 3
    monkeypatch.setenv("OCTOWIND_WORKERS", "0")
    assert mc.default_workers() == 1


@pytest.mark.parametrize("value", ["two", "1.5", "2x"])
def test_default_workers_rejects_non_integer(monkeypatch, value):
    monkeypatch.setenv("OCTOWIND_WORKERS", value)
    with pytest.raises(ConfigError, match="OCTOWIND_WORKERS"):
        mc.default_workers()
