"""The benchmark workloads: their operations and correctness checks.

An operation is one thing a user of octowind does: a CLI invocation, or a
Monte Carlo run with the estimator and test that consume it. A workload
builds its operations from the run seed. The harness times ``Op.run``,
calls the workload's ``check`` once on the first repetition, and requires
every later repetition to reproduce the first one byte for byte.

Tolerances are stated in standard errors (``Z``) or in Kolmogorov critical
values at the matching false-alarm rate (``ALPHA``) per check; a check that
takes the worst of several KS statistics splits ALPHA among them. The
acceptance criteria use 3 SE at one fixed seed; the benchmark draws fresh
seeds on every run (about seventy runs, some three checks each, per
evaluation), so 3 SE would flag a correct program in about two evaluations
of five; 4 SE does so in about one in seventy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.stats import ks_2samp

from octowind import cli, mc, specfun, stats
from octowind.geometry import ModelSpace, coord_norm

Z = 4.0
ALPHA = math.erfc(Z / math.sqrt(2.0))  # 6.3e-5 per check


def ks_critical(alpha: float, n: int, m: int = 0) -> float:
    """Asymptotic Kolmogorov critical value for samples of sizes n (and m)."""
    n_eff = n if not m else n * m / (n + m)
    return math.sqrt(-0.5 * math.log(alpha / 2.0) / n_eff)


DT = 1e-3
LAMBDAS = (0.5, 1.0, 2.0)

# (space, t, r0) of the README charfn experiment on each space.
CHARFN_CASES = (("flat", 10.0, 1.0), ("projective", 10.0, math.pi / 4), ("hyperbolic", 20.0, 1.0))
HYPERBOLIC_STOP_TOL = 1e-13   # the CLI's built-in early stop
# (space, r0) of acceptance criterion 7, run to its horizon.
SKEW_CASES = (("flat", 1.0), ("projective", 0.5), ("hyperbolic", 1.0))
SKEW_T = 4.0
LONG_T = 1e8
LONG_SCALE = math.sqrt(6.0 / math.log(LONG_T))
TABLE_T_VALUES = (1e3, 1e5, 1e8)
SINGLE_RADIAL_T = 1.0         # the README simulate example


@dataclass(frozen=True)
class Sizes:
    charfn_paths: int
    charfn_block: int
    coord_paths: int
    coord_ref_paths: int
    exact_paths: int


FULL = Sizes(charfn_paths=4000, charfn_block=2000, coord_paths=192, coord_ref_paths=2048,
             exact_paths=20_000)
TINY = Sizes(charfn_paths=200, charfn_block=100, coord_paths=32, coord_ref_paths=128,
             exact_paths=400)


class OpFailed(Exception):
    """The program refused an operation (non-zero exit or raised error)."""


@dataclass
class Op:
    name: str
    run: Callable  # run(tracer) -> payload; raises on failure
    digest: Callable[[object], bytes]
    path_steps: int


@dataclass
class Workload:
    ops: list
    check: Callable[[dict], dict]  # payloads of the first repetition -> {op name: reason}
    setup_config: str              # key=value document the set-up parses, as the CLI would
    seeds: dict


def op_seeds(seed: int, names) -> dict:
    """Independent per-operation seeds derived from the run seed."""
    state = np.random.SeedSequence(seed).generate_state(len(names))
    return {name: int(s) for name, s in zip(names, state)}


def _steps(t: float) -> int:
    return int(round(t / DT))


def _array_digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _cli_op(name: str, argv: list, out_path: str, path_steps: int) -> Op:
    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        with tr.span("cli.main"), redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv + ["--out", out_path])
        if rc != 0:
            raise OpFailed(f"cli exit {rc}: {err.getvalue().strip()}")
        with open(out_path, "rb") as fh:
            return fh.read()
    return Op(name, run, lambda payload: payload, path_steps)


def _csv_rows(payload: bytes) -> tuple[str, list]:
    lines = payload.decode().splitlines()
    return lines[0], list(csv.DictReader(lines[1:]))


def _config_line(argv: list) -> str:
    """The '# config' line the CLI should write for these flags."""
    keys = {"--space": "space", "--t": "t_end", "--dt": "dt", "--paths": "n_paths", "--r0": "r0",
            "--w0": "w0", "--lambda-norm": "lambda_norms", "--seed": "seed",
            "--workers": "workers", "--block-size": "block_size"}
    doc = "\n".join(f"{keys[f]}={v}" for f, v in zip(argv[1::2], argv[2::2]) if f in keys)
    return f"# config {cli.parse_config(doc).config_hash()}"


# ---------------------------------------------------------------------------
# charfn: the time-change route through the CLI, with the process pool

def charfn(seed: int, sizes: Sizes, tmp: str, workers: int) -> Workload:
    names = [c[0] for c in CHARFN_CASES]
    seeds = op_seeds(seed, names + ["hyperbolic_aux"])
    n, block = sizes.charfn_paths, sizes.charfn_block
    argvs, ops = {}, []
    for space, t, r0 in CHARFN_CASES:
        argvs[space] = ["charfn", "--space", space, "--t", repr(t), "--r0", repr(r0),
                        "--dt", repr(DT), "--paths", str(n), "--block-size", str(block),
                        "--lambda-norm", ",".join(map(repr, LAMBDAS)),
                        "--seed", str(seeds[space]), "--workers", str(workers)]
        ops.append(_cli_op(space, argvs[space], os.path.join(tmp, f"charfn-{space}.csv"),
                           n * _steps(t)))

    def check(payloads):
        failures = {}
        for space, t, r0 in CHARFN_CASES:
            if space not in payloads:
                continue  # already counted as failed
            head, rows = _csv_rows(payloads[space])
            est = {float(r["lambda_norm"]): (float(r["mc_value"]), float(r["mc_se"])) for r in rows}
            if head != _config_line(argvs[space]) or sorted(est) != sorted(LAMBDAS):
                failures[space] = "charfn CSV header or lambda rows differ from the request"
                continue
            if space == "flat":
                # Criterion 2: the finite-time transform by quadrature.
                bad = [l for l in LAMBDAS
                       if abs(est[l][0] - specfun.flat_laplace(r0, t, l)) > Z * est[l][1]]
                if bad:
                    failures[space] = f"flat charfn off flat_laplace by > {Z} SE at lambda {bad}"
            elif space == "projective":
                # Criterion 5: the radial endpoints of the same run follow sin^7(2r).
                res = mc.run_radial_mc(ModelSpace.PROJECTIVE, r0, t, DT, n, seed=seeds[space],
                                       block_size=block, workers=workers)
                if any(stats.mc_charfn(res, l).value != est[l][0] for l in LAMBDAS):
                    failures[space] = "charfn CLI disagrees with run_radial_mc on the same seed"
                ks = stats.stationary_density_check(res.r_end, ModelSpace.PROJECTIVE)
                if ks > ks_critical(ALPHA, n):
                    failures[space] = f"projective endpoint KS {ks:.4f} > {ks_critical(ALPHA, n):.4f}"
            else:
                # Criterion 6: the long-time limit, within Z SE plus a dt bound
                # taken from auxiliary runs at dt and 2 dt.
                aux = [mc.run_radial_mc(ModelSpace.HYPERBOLIC, r0, t, h, max(n // 2, 100),
                                        seed=seeds["hyperbolic_aux"], block_size=block,
                                        workers=workers, stop_rate_tol=HYPERBOLIC_STOP_TOL)
                       for h in (DT, 2 * DT)]
                bad = []
                for l in LAMBDAS:
                    ef, ec = (stats.mc_charfn(a, l) for a in aux)
                    bound = abs(ef.value - ec.value) + Z * math.hypot(ef.std_error, ec.std_error)
                    if abs(est[l][0] - specfun.oh1_limit_charfn(l, r0)) > Z * est[l][1] + bound:
                        bad.append(l)
                if bad:
                    failures[space] = f"hyperbolic charfn off the limit at lambda {bad}"
        return failures

    setup = "\n".join(f"{k}={v}" for k, v in (("space", "flat"), ("t_end", 10.0), ("r0", 1.0),
                                              ("n_paths", n), ("block_size", block),
                                              ("workers", workers), ("seed", seeds["flat"])))
    return Workload(ops, check, setup, seeds)


# ---------------------------------------------------------------------------
# skew-product: the line-integral route against the time-change route

def skew_product(seed: int, sizes: Sizes, tmp: str, workers: int) -> Workload:
    names = [c[0] for c in SKEW_CASES]
    seeds = op_seeds(seed, [f"{s}_{k}" for s in names for k in ("line", "ref")])
    nc, nr = sizes.coord_paths, sizes.coord_ref_paths
    ops = []
    for name, r0 in SKEW_CASES:
        space = ModelSpace(name)
        w0 = np.zeros(8)
        w0[0] = coord_norm(space, r0)

        def run(tr, space=space, r0=r0, w0=w0, name=name):
            with tr.span("mc.run_coordinate_mc"):
                line = mc.run_coordinate_mc(space, w0, SKEW_T, DT, nc, seed=seeds[f"{name}_line"],
                                            workers=1)
            with tr.span("mc.run_radial_mc"):
                ref = mc.run_radial_mc(space, r0, SKEW_T, DT, nr, seed=seeds[f"{name}_ref"],
                                       want_winding=True, workers=1)
            with tr.span("scipy.ks_2samp"):
                ks = [ks_2samp(line.zeta[:, i], ref.zeta[:, i]).statistic for i in range(7)]
                ks.append(ks_2samp(np.linalg.norm(line.zeta, axis=1),
                                   np.linalg.norm(ref.zeta, axis=1)).statistic)
            return SimpleNamespace(line=line, ref=ref, ks=ks)

        ops.append(Op(name, run,
                      lambda p: _array_digest(p.line.zeta, p.ref.zeta, [p.line.n_switched]),
                      (nc + nr) * _steps(SKEW_T)))

    def check(payloads):
        # Criterion 7: two-sample KS on the seven marginals and the norm.
        crit = ks_critical(ALPHA / 8, nc, nr)
        return {name: f"max two-sample KS {max(p.ks):.4f} > {crit:.4f}"
                for name, p in payloads.items() if max(p.ks) > crit}

    setup = f"space=hyperbolic\nt_end={SKEW_T}\nw0={coord_norm(ModelSpace.HYPERBOLIC, 1.0)},0,0,0,0,0,0,0"
    return Workload(ops, check, setup, seeds)


# ---------------------------------------------------------------------------
# long-horizon: exact flat transitions to t = 1e8, and the closed-form table

def flat_exact_mean_clock(t_end: float, rho: float = 1.0) -> float:
    """E[A_t] of the flat radial process by quadrature (a Poisson mixture).

    E[1/X_s] = E[1/(3 + N)] / (2 s) with N ~ Poisson(rho^2 / 2 s) for the
    squared Bessel(8) process X; no simulation is involved.
    """
    def e_inv(s):
        kap = rho * rho / (2.0 * s)
        if kap > 700.0:
            return 1.0 / (rho * rho)
        k = np.arange(0, int(kap + 40.0 * math.sqrt(kap + 1.0)) + 50)
        logp = k * math.log(kap) - kap - np.array([math.lgamma(j + 1) for j in k])
        return float(np.sum(np.exp(logp) / (3.0 + k))) / (2.0 * s)

    val, _ = integrate.quad(lambda u: e_inv(math.exp(u)) * math.exp(u),
                            math.log(1e-8), math.log(t_end), limit=500)
    return val


def long_horizon(seed: int, sizes: Sizes, tmp: str, workers: int) -> Workload:
    seeds = op_seeds(seed, ["flat_exact"])
    n = sizes.exact_paths
    # Exact finite-t variance of the scaled winding; the limit 1 is reached
    # only at log speed, so criterion 3 allows the gap.
    var_ratio = 6.0 * flat_exact_mean_clock(LONG_T) / math.log(LONG_T)
    grid_steps = len(mc.log_time_grid(LONG_T)) - 1

    def run_exact(tr):
        with tr.span("mc.run_flat_exact_mc"):
            res = mc.run_flat_exact_mc(1.0, LONG_T, n, seed=seeds["flat_exact"],
                                       want_winding=True, workers=1)
        with tr.span("stats.mc_charfn"):
            est = stats.mc_charfn(res, LONG_SCALE * 1.0)
        with tr.span("specfun.flat_limit_charfn"):
            limit = specfun.flat_limit_charfn(1.0)
        z = res.zeta * LONG_SCALE
        var_se = float(np.sqrt(np.var(z * z, axis=0, ddof=1) / n).max())
        with tr.span("stats.gaussian_test"):
            report = stats.gaussian_test(
                SimpleNamespace(zeta=z, clock_end=None), np.eye(7),
                ks_threshold=max(0.05, ks_critical(ALPHA / 7, n)),
                diag_rtol=(var_ratio - 1.0) + Z * var_se,
                offdiag_atol=max(0.1, Z * var_ratio / math.sqrt(n)))
        return SimpleNamespace(res=res, est=est, limit=limit, report=report)

    table_argv = ["table", "--space", "flat", "--lambda-norm", "1.0", "--r0", "1.0",
                  "--t-values", ",".join(map(repr, TABLE_T_VALUES))]
    ops = [Op("flat_exact", run_exact, lambda p: _array_digest(p.res.zeta, p.res.clock_end),
              n * grid_steps),
           _cli_op("table", table_argv, os.path.join(tmp, "table.csv"), 0)]

    def check(payloads):
        failures = {}
        p = payloads.get("flat_exact")
        if p is not None:
            # Criterion 3: the scaled transform and the Gaussian test.
            rel = abs(p.est.value - p.limit) / p.limit
            rel_tol = 0.05 + Z * p.est.std_error / p.limit
            if not p.report.passed or rel > rel_tol:
                failures["flat_exact"] = (f"gaussian test pass={p.report.passed}, "
                                          f"scaled transform rel {rel:.4f} (tol {rel_tol:.4f})")
        if "table" not in payloads:
            return failures
        _, rows = _csv_rows(payloads["table"])
        values = {r["t"]: float(r["closed_form_value"]) for r in rows}
        expect = {repr(t): specfun.flat_laplace(1.0, t, math.sqrt(6.0 / math.log(t)))
                  for t in TABLE_T_VALUES}
        expect["inf"] = specfun.flat_limit_charfn(1.0)
        if values.keys() != expect.keys() or any(abs(values[k] - v) > 1e-12 for k, v in expect.items()):
            failures["table"] = "table rows differ from specfun"
        elif p is not None and abs(values[repr(LONG_T)] - p.est.value) > Z * p.est.std_error:
            failures["table"] = (f"closed form at t=1e8 {values[repr(LONG_T)]:.5f} vs exact-transition "
                                 f"MC {p.est.value:.5f} +- {p.est.std_error:.5f}")
        return failures

    setup = "space=flat\nlambda_norms=1.0\nr0=1.0"
    return Workload(ops, check, setup, seeds)


# ---------------------------------------------------------------------------
# single-path: the per-step Python loop and the CSV writer

def single_path(seed: int, sizes: Sizes, tmp: str, workers: int) -> Workload:
    names = [f"{k}_{s}" for k in ("radial", "coord") for s, _ in SKEW_CASES]
    seeds = op_seeds(seed, names)
    argvs, steps, ops = {}, {}, []
    for space, r0 in SKEW_CASES:
        w0 = np.zeros(8)
        w0[0] = coord_norm(ModelSpace(space), r0)
        argvs[f"radial_{space}"] = ["simulate", "--space", space, "--t", repr(SINGLE_RADIAL_T),
                                    "--dt", repr(DT), "--r0", "1.0"]
        argvs[f"coord_{space}"] = ["simulate", "--space", space, "--t", repr(SKEW_T),
                                   "--dt", repr(DT), "--w0", ",".join(repr(float(c)) for c in w0)]
        steps[f"radial_{space}"] = _steps(SINGLE_RADIAL_T)
        steps[f"coord_{space}"] = _steps(SKEW_T)
    for name in names:
        argvs[name] += ["--seed", str(seeds[name])]
        ops.append(_cli_op(name, argvs[name], os.path.join(tmp, f"{name}.csv"), steps[name]))

    def check(payloads):
        failures = {}
        for name, payload in payloads.items():
            head, rows = _csv_rows(payload)
            if head != _config_line(argvs[name]) or len(rows) != steps[name] + 1:
                failures[name] = "simulate CSV has the wrong config hash or row count"
        return failures

    setup = f"space=flat\nt_end={SINGLE_RADIAL_T}\nr0=1.0"
    return Workload(ops, check, setup, seeds)


WORKLOADS = {
    "charfn": charfn,
    "skew-product": skew_product,
    "long-horizon": long_horizon,
    "single-path": single_path,
}
