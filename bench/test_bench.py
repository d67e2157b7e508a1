"""Self-test of the benchmark: every workload at a tiny size, both metric sets.

Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
# single-path runs by hand but is not in BENCHMARK.json (see NOTES.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["single-path"]


def _run(cwd, workload="long-horizon", trace=0):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_probe_radii_stay_in_every_domain_for_any_seed():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import layers
    from octowind import engine, geometry

    for seed in range(200):
        rng = engine.make_rng(seed, (0,))
        for space in geometry.ModelSpace:
            for r0 in (layers.SKEW_R0[space.value], layers.CHARFN_R0[space.value]):
                r = layers._near(r0, 2000, rng)
                geometry.coord_radius(space, geometry.coord_norm(space, r))  # raises outside
