"""octowind benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a source checkout (the package is imported from
./src, never from an installed copy):

    python3 bench/run.py --workload charfn --seed 1 --seconds 20 --trace 0

Each run sets up several times in fresh interpreters (``setup_s``), runs the
workload once untimed and checks that first repetition against independent
references, then repeats it for ``--seconds`` seconds; every repetition must
reproduce the first byte for byte. Each timed operation is followed by a
fixed NumPy reference kernel, and the timings are reported as multiples of
it (see ``reference``). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced repetitions, reports span self
times and the tracing overhead, then runs the per-layer probes. The last
line of standard output is the JSON result; the line before it records the
environment, and the one before that the raw timings in seconds. Exit code
0 means a result was printed.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the charfn pool already uses every core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("OCTOWIND_WORKERS", None)

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_REPS = 3
SETUP_REPS = 5

SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
import octowind, octowind.cli
import_s = time.perf_counter() - t0
octowind.cli.parse_config(sys.argv[1])
workers = int(sys.argv[2])
if workers > 1:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(abs, range(workers)))
print(import_s)
"""

TRACE_MODULES = ("bench", "cli", "mc", "stats", "specfun", "scipy")


class Tracer:
    """In-memory spans around the benchmark's calls into octowind's modules."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.op = None
        self._stack = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "op": self.op, "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, ops) -> dict:
        """Seconds of self time per module, summed over the spans of ``ops``."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = dict.fromkeys(TRACE_MODULES, 0.0)
        for s in self.spans:
            if s["op"] in ops:
                module = s["name"].split(".")[0]
                out[module] += s["end"] - s["start"] - child.get(s["id"], 0.0)
        return out


class RssSampler(threading.Thread):
    """Peak proportional set size of this process and all its descendants.

    Holding ``paused`` keeps a process started meanwhile out of the samples.
    """

    def __init__(self, interval: float = 0.1):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak_kb = 0
        self.paused = threading.Lock()
        self._stop_event = threading.Event()

    def run(self):
        while True:
            with self.paused:
                self.peak_kb = max(self.peak_kb, _tree_pss_kb(os.getpid()) or 0)
            if self._stop_event.wait(self.interval):
                return

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        return self.peak_kb / 1024.0


def _tree_pss_kb(root: int):
    """Summed Pss of ``root`` and its descendants, or None if the tree changed
    while it was read (a fork or exit mid-read would count shared pages twice)."""
    def tree(pid):
        pids = [pid]
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                for child in fh.read().split():
                    pids += tree(int(child))
        return pids

    def pss(pid):
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Pss:"))

    try:
        pids = tree(root)
        total = sum(pss(p) for p in pids)
        return total if tree(root) == pids else None
    except (FileNotFoundError, ProcessLookupError, StopIteration):
        return None


def measure_setup(config: str, workers: int) -> tuple[float, float]:
    """Wall of one fresh-interpreter set-up, and the import time measured inside it."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, config, str(workers)],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return wall, float(proc.stdout.split()[-1])


def reference() -> float:
    """Wall time of a fixed NumPy kernel that runs no octowind code.

    The 2-core host changes speed by 15-30 % over minutes, which moves every
    wall time alike. Timed right after each operation, the kernel measures
    the host's speed at that moment, and an operation's wall divided by it
    stays steady where the raw wall does not. The kernel mixes the two
    shapes octowind's loops run at: long vectors (a radial block) and many
    calls on small arrays (a coordinate batch), about 20 ms of each.
    """
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(12345))
    x = np.ones(2000)
    for _ in range(300):
        z = rng.standard_normal(2000)
        x = np.sqrt(x * x + 0.01 * z * z) + 0.001 * np.tanh(z)
    w = np.ones((192, 8))
    for _ in range(300):
        z = rng.standard_normal((192, 8))
        n = np.sqrt(np.einsum("ij,ij->i", w, w))[:, None]
        w = np.where(n > 10.0, w / n, w + 0.001 * (z * n - w))
    return time.perf_counter() - t0


def run_rep(ops, tracer, rep: int, timed: bool = True) -> list:
    """One repetition of every operation:
    (name, wall, reference wall or None, payload or None, error or None)."""
    out = []
    for op in ops:
        tracer.op = f"{rep}:{op.name}"
        t0 = time.perf_counter()
        with tracer.span(f"bench.{op.name}"):
            try:
                payload, error = op.run(tracer), None
            except Exception as exc:  # a failed operation is counted, not fatal
                payload, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        out.append((op.name, wall, reference() if timed else None, payload, error))
    return out


def environment(args, workers: int, seeds: dict) -> dict:
    import scipy

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                return next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
        except (OSError, StopIteration):
            return platform.processor() or None

    def blas():
        try:
            return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration")
        except (KeyError, TypeError, AttributeError):
            return None

    src_hash = hashlib.sha256()
    for d, _, files in sorted(os.walk(os.path.join(SRC, "octowind"))):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    src_hash.update(f.encode() + fh.read())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest()[:16],
        "nproc": _nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "op_seeds": seeds,
        "seconds": args.seconds,
        "tiny": args.tiny,
    }


def _git_sha():
    """HEAD of the checkout, read from .git without running git (None outside a clone)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            return next(l.split()[0] for l in fh if l.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return None


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "octowind", "__init__.py")):
        print(f"no octowind sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import octowind
    if not os.path.abspath(octowind.__file__).startswith(SRC + os.sep):
        print(f"octowind imported from {octowind.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    sizes = workloads.TINY if args.tiny else workloads.FULL
    workers = _nproc() if args.workload == "charfn" else 1
    min_reps = 1 if args.tiny else MIN_REPS
    os.makedirs(OUT_DIR, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, sizes, tmp, workers)

        # First repetition: untimed, checked against the references.
        first = run_rep(wl.ops, Tracer(False), 0, timed=False)
        failures = {name: err for name, _, _, _, err in first if err}
        done = {name: p for name, _, _, p, err in first if not err}
        try:
            wrong = wl.check(done)
        except Exception as exc:  # output the check cannot read is wrong output
            wrong = dict.fromkeys(done, f"check raised {type(exc).__name__}: {exc}")
        failures.update(wrong)
        digests = {op.name: op.digest(p) for op, (_, _, _, p, err) in zip(wl.ops, first) if not err}
        steps = {op.name: op.path_steps for op in wl.ops}
        attempted, failed = len(first), len(failures)
        correct = not wrong

        # Timed repetitions, alternating traced and untraced ones in a traced run.
        tracer = Tracer(args.trace == 1)
        plain = Tracer(False)
        reps = {False: [], True: []}  # (rep, {op: (wall, reference)}, successful path-steps)
        sampler = None if args.trace else RssSampler()
        if sampler:
            sampler.start()
        setups, setup_reps = [], 1 if args.tiny else SETUP_REPS
        t_start = time.perf_counter()
        rep = 0
        while True:
            traced = args.trace == 1 and rep % 2 == 0
            enough = len(setups) == setup_reps and all(
                len(reps[k]) >= min_reps for k in ((False, True) if args.trace else (False,)))
            if enough and time.perf_counter() - t_start >= args.seconds:
                break
            rep += 1
            # Spread over the run, so one slow moment of the machine does not
            # set the median; every set-up that fell due during the last
            # repetition runs now, so long repetitions do not lengthen the run.
            while (len(setups) < setup_reps and time.perf_counter() - t_start
                   >= len(setups) * args.seconds / setup_reps):
                t_setup = time.perf_counter()
                with sampler.paused if sampler else nullcontext():
                    setups.append(measure_setup(wl.setup_config, workers))
                t_start += time.perf_counter() - t_setup
            results = run_rep(wl.ops, tracer if traced else plain, rep)
            ok_steps = 0
            for op, (name, _, _, payload, err) in zip(wl.ops, results):
                attempted += 1
                if err or name in failures:
                    failed += 1
                elif op.digest(payload) != digests[name]:
                    failed += 1
                    correct = False  # the same inputs gave a different output
                else:
                    ok_steps += steps[name]
            reps[traced].append((rep, {name: (wall, ref) for name, wall, ref, _, _ in results}, ok_steps))
        peak_mb = sampler.stop() if sampler else None

        def iteration(runs, measure):
            # Each operation's median over the repetitions, summed: one
            # iteration with every operation timed as often as possible.
            return sum(statistics.median(measure(*timing[op.name]) for _, timing, _ in runs)
                       for op in wl.ops)

        def in_ref(wall, ref):
            return wall / ref

        wall_s = iteration(reps[False], lambda wall, ref: wall)
        wall_ref = iteration(reps[False], in_ref)
        mean_steps = statistics.mean(r[2] for r in reps[False])
        raw = {"wall_s": wall_s, "path_steps_per_s": mean_steps / wall_s,
               "reference_s": statistics.median(ref for _, timing, _ in reps[False]
                                                for _, ref in timing.values())}
        if args.trace == 0:
            metrics = {
                "setup_s": (statistics.median(w for w, _ in setups), "s"),
                "wall_ref": (wall_ref, "ref"),
                "path_steps_per_ref": (mean_steps / wall_ref, "1/ref"),
                "peak_rss_mb": (peak_mb, "MB"),
                "ok_share": ((attempted - failed) / attempted, "ratio"),
            }
        else:
            metrics = {"trace_overhead_share": (iteration(reps[True], in_ref) / wall_ref - 1.0, "ratio"),
                       "cli.import_s": (statistics.median(i for _, i in setups), "s")}
            per_rep = [tracer.self_times({f"{r}:{op.name}" for op in wl.ops}) for r, _, _ in reps[True]]
            for module in TRACE_MODULES:
                metrics[f"trace.{module}.self_s"] = (statistics.median(p[module] for p in per_rep), "s")
            for name, value in layers.measure(args.seed, sizes, workers, args.tiny, tmp).items():
                metrics[name] = (value, layers.unit(name))
            with open(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}, fh)

    print(json.dumps({"failures": failures, "timed_reps": len(reps[False]), "raw": raw,
                      "setup_walls_s": [w for w, _ in setups],
                      "op_walls_and_refs_s": [timing for _, timing, _ in reps[False]]}))
    print(json.dumps({"env": environment(args, workers, wl.seeds)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
