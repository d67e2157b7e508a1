"""Batch experiment runner.

Subcommands:

* ``simulate`` -- dump one trajectory (radial or coordinate) to CSV;
* ``charfn``   -- Monte Carlo characteristic function vs the closed form;
* ``table``    -- emit closed-form reference values as CSV;
* ``verify``   -- run a fast property suite and write a JSON report.

Every CSV artifact starts with a comment line carrying a hash of the
resolved configuration; identical configuration and seed reproduce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine, mc, specfun, stats
from .engine import DEFAULT_SEED, SCHEMES, STRATONOVICH_HEUN, SimConfig
from .errors import ConfigError, OctowindError
from .geometry import ModelSpace
from .octonion import Octonion, mul, mul_array, winding_form_array

@dataclass
class ExperimentConfig:
    """Validated experiment parameters shared by all subcommands."""

    space: ModelSpace = ModelSpace.FLAT
    t_end: float = 10.0
    dt: float = 1e-3
    n_paths: int = 10_000
    r0: Optional[float] = 1.0
    w0: Optional[np.ndarray] = None
    lambda_norms: list[float] = field(default_factory=lambda: [1.0])
    seed: int = DEFAULT_SEED
    out: Optional[str] = None
    scheme: str = STRATONOVICH_HEUN
    workers: int = 1
    block_size: int = mc.DEFAULT_BLOCK_SIZE

    def config_hash(self) -> str:
        d = dataclasses.asdict(self)
        del d["out"]  # the output location is not part of the experiment identity
        d["space"] = self.space.value
        if self.w0 is not None:
            d["w0"] = [float(v) for v in self.w0]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_KNOWN_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _validate(raw: dict, violations=()) -> ExperimentConfig:
    violations = list(violations)  # those the caller found come first
    cfg = ExperimentConfig()
    unknown = set(raw) - _KNOWN_KEYS
    for key in sorted(unknown):
        violations.append(f"unknown key {key!r}")
    known = {k: v for k, v in raw.items() if k in _KNOWN_KEYS}

    def number(key, cast, default):
        if key not in known:
            return default
        try:
            return cast(known[key])
        except (TypeError, ValueError):
            violations.append(f"{key} = {known[key]!r} is not a valid {cast.__name__}")
            return default

    def numbers(key):
        vals = known[key]
        if isinstance(vals, str):
            vals = [v for v in vals.split(",") if v.strip()]
        try:
            return [float(v) for v in vals]
        except (TypeError, ValueError):
            violations.append(f"{key} = {known[key]!r}; expected comma-separated numbers")

    if "space" in known:
        try:
            cfg.space = ModelSpace.parse(str(known["space"]))
        except OctowindError:
            violations.append(f"space = {known['space']!r}; expected flat, projective or hyperbolic")
    cfg.t_end = number("t_end", float, cfg.t_end)
    cfg.dt = number("dt", float, cfg.dt)
    cfg.n_paths = number("n_paths", int, cfg.n_paths)
    cfg.seed = number("seed", int, cfg.seed)
    if "workers" in known:
        cfg.workers = number("workers", int, cfg.workers)
    else:
        try:
            cfg.workers = mc.default_workers()
        except ConfigError as exc:
            violations.extend(exc.violations)
    cfg.block_size = number("block_size", int, cfg.block_size)
    if "r0" in known:
        cfg.r0 = number("r0", float, None)
    if "out" in known:
        cfg.out = str(known["out"])
    if "scheme" in known:
        cfg.scheme = str(known["scheme"])
    if "lambda_norms" in known and (vals := numbers("lambda_norms")) is not None:
        cfg.lambda_norms = vals
    if "w0" in known and (vals := numbers("w0")) is not None:
        cfg.w0 = np.array(vals)

    violations += engine.sim_problems(cfg.space, cfg.t_end, cfg.dt, cfg.scheme, cfg.r0, cfg.w0)
    if cfg.n_paths < 1:
        violations.append(f"n_paths = {cfg.n_paths} violates n_paths >= 1")
    if cfg.workers < 1:
        violations.append(f"workers = {cfg.workers} violates workers >= 1")
    if cfg.block_size < 1:
        violations.append(f"block_size = {cfg.block_size} violates block_size >= 1")
    if any(l < 0 for l in cfg.lambda_norms):
        violations.append("lambda_norms must be nonnegative")

    if violations:
        raise ConfigError(violations)
    return cfg


def _read(text: str) -> dict:
    """The raw keys and values of a JSON object or key=value document."""
    stripped = text.lstrip()
    raw: dict = {}
    if stripped.startswith("{"):
        def no_dupes(pairs):
            d = {}
            for k, v in pairs:
                if k in d:
                    raise ConfigError([f"duplicate key {k!r}"])
                d[k] = v
            return d
        try:
            raw = json.loads(text, object_pairs_hook=no_dupes)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"invalid JSON: {exc}"]) from None
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError([f"line {lineno}: expected key=value, got {line!r}"])
            key, _, value = line.partition("=")
            key = key.strip()
            if key in raw:
                raise ConfigError([f"duplicate key {key!r}"])
            raw[key] = value.strip()
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON object or key=value document into a validated config."""
    return _validate(_read(text))


# ---------------------------------------------------------------------------
# Artifact helpers

def _write_csv(path: Optional[str], header: list[str], rows, config_hash: str) -> str:
    buf = io.StringIO()
    buf.write(f"# config {config_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_simulate(cfg: ExperimentConfig) -> int:
    sim = SimConfig(space=cfg.space, t_end=cfg.t_end, dt=cfg.dt, r0=cfg.r0 if cfg.w0 is None else None,
                    w0=cfg.w0, scheme=cfg.scheme, seed=cfg.seed)
    if cfg.w0 is not None:
        path = engine.simulate_coordinate(sim)
        header = ["time"] + [f"c{i}" for i in range(8)] + [f"zeta{i}" for i in range(1, 8)]
        rows = (
            [t] + list(map(float, w)) + list(map(float, z))
            for t, w, z in zip(path.times, path.w, path.zeta)
        )
        print(f"coordinate path: t_end={path.times[-1]:.6g} |zeta|={float(np.linalg.norm(path.zeta[-1])):.6g}")
    else:
        path = engine.simulate_radial(sim)
        header = ["time", "r", "clock"]
        rows = ([t, float(r), float(a)] for t, r, a in zip(path.times, path.r, path.clock))
        print(f"radial path: t_end={path.times[-1]:.6g} r_end={path.r[-1]:.6g} clock={path.clock[-1]:.6g}")
    text = _write_csv(cfg.out, header, rows, cfg.config_hash())
    if not cfg.out:
        sys.stdout.write(text)
    return 0


#: Per space, the closed form that charfn compares with, at (|lambda|, r0, t),
#: and the long-time limit of the characteristic function, at (|lambda|, r0).
#: The projective reference is asymptotic: A_t ~ (14/3) t under the stationary law.
_CLOSED_FORMS = {
    ModelSpace.FLAT: (lambda ln, r0, t: specfun.flat_laplace(r0, t, ln),
                      lambda ln, r0: specfun.flat_limit_charfn(ln)),
    ModelSpace.PROJECTIVE: (lambda ln, r0, t: math.exp(-7.0 / 3.0 * ln ** 2 * t),
                            lambda ln, r0: specfun.op1_limit_charfn(ln)),
    ModelSpace.HYPERBOLIC: (lambda ln, r0, t: specfun.oh1_limit_charfn(ln, r0), specfun.oh1_limit_charfn),
}


def _cmd_charfn(cfg: ExperimentConfig) -> int:
    stop_tol = 1e-13 if cfg.space is ModelSpace.HYPERBOLIC else None
    result = mc.run_radial_mc(
        cfg.space, cfg.r0, cfg.t_end, cfg.dt, cfg.n_paths, seed=cfg.seed,
        stop_rate_tol=stop_tol, block_size=cfg.block_size, workers=cfg.workers,
    )
    rows = []
    for ln in cfg.lambda_norms:
        est = stats.mc_charfn(result, ln)
        closed = _CLOSED_FORMS[cfg.space][0](ln, cfg.r0, cfg.t_end)
        rows.append([cfg.space.value, ln, cfg.r0, cfg.t_end, cfg.n_paths,
                     est.value, est.std_error, closed])
        print(f"lambda={ln:g}: mc={est.value:.6f} +- {est.std_error:.6f}  closed_form={closed:.6f}")
    header = ["space", "lambda_norm", "r0", "t", "n_paths", "mc_value", "mc_se", "closed_form"]
    _write_csv(cfg.out, header, rows, cfg.config_hash())
    return 0


def _cmd_table(cfg: ExperimentConfig, t_values: list[float]) -> int:
    rows = []
    for ln in cfg.lambda_norms:
        if cfg.space is ModelSpace.FLAT:
            for t in t_values:
                scaled = ln * math.sqrt(6.0 / math.log(t)) if t > 1 else ln
                rows.append([cfg.space.value, ln, cfg.r0, t, specfun.flat_laplace(cfg.r0, t, scaled)])
        rows.append([cfg.space.value, ln, cfg.r0, "inf", _CLOSED_FORMS[cfg.space][1](ln, cfg.r0)])
    header = ["space", "lambda_norm", "r0", "t", "closed_form_value"]
    text = _write_csv(cfg.out, header, rows, cfg.config_hash())
    if not cfg.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


# ---------------------------------------------------------------------------
# Verification suites (fast, deterministic)

def _algebra_checks() -> list[dict]:
    rng = np.random.default_rng(7)
    checks = []

    x = rng.standard_normal((100_000, 8))
    y = rng.standard_normal((100_000, 8))
    xy = mul_array(x, y)
    rel = np.abs(np.sum(xy * xy, 1) - np.sum(x * x, 1) * np.sum(y * y, 1)) / (np.sum(x * x, 1) * np.sum(y * y, 1))
    checks.append({"name": "norm_multiplicativity", "passed": bool(rel.max() < 1e-12),
                   "detail": f"max relative error {rel.max():.3e}"})

    x = rng.standard_normal((10_000, 8))
    y = rng.standard_normal((10_000, 8))
    lhs = mul_array(x, mul_array(x, y))
    rhs = mul_array(mul_array(x, x), y)
    err = np.abs(lhs - rhs).max()
    lhs2 = mul_array(mul_array(y, x), x)
    rhs2 = mul_array(y, mul_array(x, x))
    err = max(err, np.abs(lhs2 - rhs2).max())
    checks.append({"name": "alternativity", "passed": bool(err < 1e-12 * np.abs(lhs).max()),
                   "detail": f"max deviation {err:.3e}"})

    e1, e2, e4 = Octonion.basis(1), Octonion.basis(2), Octonion.basis(4)
    non_assoc = mul(e1, mul(e2, e4)) != mul(mul(e1, e2), e4)
    checks.append({"name": "non_associativity_witness", "passed": bool(non_assoc),
                   "detail": "e1(e2 e4) != (e1 e2) e4"})

    x = rng.standard_normal((10_000, 8))
    v = rng.standard_normal((10_000, 8))
    alg = winding_form_array(x, v)
    printed = _printed_winding(x, v)
    dev = np.abs(alg - printed).max()
    checks.append({"name": "winding_form_coordinates", "passed": bool(dev < 1e-12),
                   "detail": f"max deviation from coordinate formulas {dev:.3e}"})

    wf_self = np.abs(winding_form_array(x, x)).max()
    checks.append({"name": "winding_form_self_vanishes", "passed": bool(wf_self < 1e-12),
                   "detail": f"max |eta(x, x)| {wf_self:.3e}"})
    return checks


# Signed coefficient tables of the seven coordinate components of the winding
# form: entry (i, a, b) is the coefficient of x_a * v_b in eta_{i+1} |x|^2.
_ETA_TERMS = (
    ((-1, 1, 0), (1, 0, 1), (1, 3, 2), (-1, 2, 3), (1, 5, 4), (-1, 4, 5), (-1, 7, 6), (1, 6, 7)),
    ((-1, 2, 0), (-1, 3, 1), (1, 0, 2), (1, 1, 3), (1, 6, 4), (1, 7, 5), (-1, 4, 6), (-1, 5, 7)),
    ((-1, 3, 0), (1, 2, 1), (-1, 1, 2), (1, 0, 3), (1, 7, 4), (-1, 6, 5), (1, 5, 6), (-1, 4, 7)),
    ((-1, 4, 0), (-1, 5, 1), (-1, 6, 2), (-1, 7, 3), (1, 0, 4), (1, 1, 5), (1, 2, 6), (1, 3, 7)),
    ((-1, 5, 0), (1, 4, 1), (-1, 7, 2), (1, 6, 3), (-1, 1, 4), (1, 0, 5), (-1, 3, 6), (1, 2, 7)),
    ((-1, 6, 0), (1, 7, 1), (1, 4, 2), (-1, 5, 3), (-1, 2, 4), (1, 3, 5), (1, 0, 6), (-1, 1, 7)),
    ((-1, 7, 0), (-1, 6, 1), (1, 5, 2), (1, 4, 3), (-1, 3, 4), (-1, 2, 5), (1, 1, 6), (1, 0, 7)),
)


def _printed_winding(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The seven explicit coordinate expressions for the winding form."""
    n2 = np.sum(x * x, axis=-1)
    out = np.zeros(x.shape[:-1] + (7,))
    for i, terms in enumerate(_ETA_TERMS):
        for sign, a, b in terms:
            out[..., i] += sign * x[..., a] * v[..., b]
    return out / n2[..., None]


def _engine_checks() -> list[dict]:
    checks = []
    cfg = SimConfig(space=ModelSpace.FLAT, t_end=1.0, dt=1e-3, r0=1.0, seed=11)
    p1 = engine.simulate_radial(cfg)
    p2 = engine.simulate_radial(cfg)
    checks.append({"name": "determinism", "passed": bool(np.array_equal(p1.r, p2.r)),
                   "detail": "identical config and seed give identical paths"})
    p3 = engine.simulate_radial(cfg, tilt=0.0)
    checks.append({"name": "zero_tilt_identity", "passed": bool(np.array_equal(p1.r, p3.r)),
                   "detail": "mu = 0 tilt reproduces the plain path"})
    checks.append({"name": "clock_monotone", "passed": bool(np.all(np.diff(p1.clock) >= 0)),
                   "detail": "running clock is nondecreasing"})
    return checks


def _specfun_checks() -> list[dict]:
    checks = []
    half = specfun.bessel_i(0.5, 1.0)
    ref = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    checks.append({"name": "bessel_half_order", "passed": bool(abs(half - ref) < 1e-12),
                   "detail": f"I_1/2(1) error {abs(half - ref):.3e}"})
    one = specfun.flat_laplace(1.0, 10.0, 0.0)
    checks.append({"name": "flat_laplace_normalized", "passed": bool(abs(one - 1.0) < 1e-8),
                   "detail": f"lambda = 0 value {one:.12f}"})
    grid_ok = True
    worst = 0.0
    for ln in (0.5, 1.0, 2.0):
        for r0 in (0.5, 1.0, 2.0):
            a = specfun.oh1_limit_charfn(ln, r0)
            b = specfun.oh1_limit_charfn_expanded(ln, r0)
            worst = max(worst, abs(a - b))
            grid_ok = grid_ok and abs(a - b) < 1e-12
    checks.append({"name": "oh1_forms_agree", "passed": bool(grid_ok),
                   "detail": f"max |factored - expanded| {worst:.3e}"})
    rate = stats.stationary_mean_clock_rate()
    checks.append({"name": "stationary_clock_rate", "passed": bool(abs(rate - 14.0 / 3.0) < 1e-10),
                   "detail": f"quadrature mean clock rate {rate:.12f}"})
    return checks


_SUITES = {
    "algebra": _algebra_checks,
    "engine": _engine_checks,
    "specfun": _specfun_checks,
}


def _cmd_verify(suite: str, out: Optional[str]) -> int:
    names = list(_SUITES) if suite == "all" else [suite]
    report = {"suites": {}}
    ok = True
    for name in names:
        checks = _SUITES[name]()
        report["suites"][name] = checks
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"[{name}] {c['name']}: {status} ({c['detail']})")
            ok = ok and c["passed"]
    report["pass"] = ok
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON or key=value config file; flags override it")
    p.add_argument("--space", choices=[s.value for s in ModelSpace])
    p.add_argument("--t", dest="t_end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--paths", dest="n_paths", type=int)
    p.add_argument("--r0", type=float)
    p.add_argument("--w0", help="8 comma-separated components")
    p.add_argument("--lambda-norm", dest="lambda_norms", help="comma-separated |lambda| values")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--scheme", choices=list(SCHEMES))
    p.add_argument("--workers", type=int)
    p.add_argument("--block-size", dest="block_size", type=int)


def _resolve(args) -> ExperimentConfig:
    try:
        raw = _read(Path(args.config).read_text()) if args.config else {}
    except OSError as exc:
        raise ConfigError([f"config file {args.config!r}: {exc.strerror}"]) from None
    for key in _KNOWN_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    problems = []
    if args.command != "simulate" and "w0" in raw:
        problems.append(f"w0 is for simulate only; {args.command} starts from r0")
    if args.command == "table":
        try:
            args.t_values = [float(v) for v in args.t_values.split(",") if v.strip()]
            problems += [f"t_values entry {t!r} violates 0 < t < inf"
                         for t in args.t_values if not 0 < t < math.inf]
        except ValueError:
            problems.append(f"t_values = {args.t_values!r}; expected comma-separated numbers")
    return _validate(raw, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="octowind",
                                     description="Brownian winding functionals on the octonionic model spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("simulate", "dump one trajectory to CSV"),
                       ("charfn", "Monte Carlo characteristic function vs closed form"),
                       ("table", "closed-form reference values as CSV")):
        _add_common(sub.add_parser(name, help=text))
    sub.choices["table"].add_argument("--t-values", default="1e3,1e5,1e8",
                                      help="comma-separated horizons for the flat table")

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p_ver.add_argument("--out", help="JSON report path")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args.suite, args.out)
        cfg = _resolve(args)
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        if args.command == "charfn":
            return _cmd_charfn(cfg)
        if args.command == "table":
            return _cmd_table(cfg, args.t_values)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except OctowindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
