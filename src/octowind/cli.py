"""Batch experiment runner: ``simulate`` (one radial or coordinate trajectory as CSV), ``charfn`` (the Monte
Carlo characteristic function against the closed form), ``table`` (closed-form values as CSV) and ``verify``
(a fast property suite, reported as JSON), each declared in ``_COMMANDS`` with the config keys it reads.

Every CSV artifact starts with a comment line carrying a hash of the
resolved configuration; identical configuration and seed reproduce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine, mc, specfun, stats
from .engine import DEFAULT_SEED, SCHEMES, STRATONOVICH_HEUN
from .errors import ConfigError, DomainError, OctowindError
from .geometry import ModelSpace
from .octonion import mul_array, printed_winding, winding_form_array


def _number(value) -> float:
    """A number, or text that is one; not a boolean."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _floats(value) -> list[float]:
    """A list of numbers, comma-separated text of them, or one number (a one-entry list)."""
    items = value.split(",") if isinstance(value, str) else [value] if isinstance(value, (int, float)) else value
    return [_number(v) for v in items if str(v).strip()]


def _integer(value) -> int:
    """An integer, or a number or text that is one; not a boolean or a fraction."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _text(value) -> str:
    """Text without a NUL byte, as a file name is; not a number, a boolean or a list."""
    if not isinstance(value, str) or "\0" in value:
        raise ValueError(value)
    return value


def _key(flag: str, convert, form: str, **default):
    """A config field with its flag, the converter of a flag or file value, and the expected
    form that --help shows and a failed conversion names; the layer that uses a value checks its range."""
    return field(**default, metadata={"cli": (flag, convert, form)})


@dataclass
class ExperimentConfig:
    """Validated experiment parameters; its fields are the config keys, of which each subcommand reads its own."""

    space: ModelSpace = _key("--space", lambda v: ModelSpace(str(v).lower()), "flat, projective or hyperbolic",
                             default=ModelSpace.FLAT)
    t_end: float = _key("--t", _number, "a finite number >= dt", default=10.0)
    dt: float = _key("--dt", _number, "a number > 0", default=1e-3)
    n_paths: int = _key("--paths", _integer, "an integer >= 1", default=10_000)
    r0: Optional[float] = _key("--r0", _number, "a number inside the radial domain", default=1.0)
    w0: Optional[np.ndarray] = _key("--w0", lambda v: np.array(_floats(v)), "8 comma-separated numbers", default=None)
    lambda_norms: list[float] = _key("--lambda-norm", _floats, "comma-separated |lambda| values >= 0",
                                     default_factory=lambda: [1.0])
    t_values: Optional[list[float]] = _key("--t-values", _floats, "comma-separated horizons 0 < t < inf; read by "
                                           "table on the flat space", default=None)  # table: 1e3, 1e5, 1e8
    seed: int = _key("--seed", _integer, "an integer >= 0", default=DEFAULT_SEED)
    out: Optional[str] = _key("--out", _text, "output CSV path", default=None)
    scheme: str = _key("--scheme", str, " or ".join(SCHEMES) + "; read by a coordinate path off the flat space",
                       default=STRATONOVICH_HEUN)
    workers: Optional[int] = _key("--workers", _integer, "an integer >= 1", default=None)  # None: OCTOWIND_WORKERS or 1
    block_size: int = _key("--block-size", _integer, "an integer >= 1", default=mc.DEFAULT_BLOCK_SIZE)

    def config_hash(self) -> str:
        """Hash of the fields; the output location is not part of it, nor are horizons that no table set."""
        d = dataclasses.asdict(self)
        del d["out"]
        d["workers"] = 1  # results do not depend on the worker count, so neither does the hash
        if self.t_values is None:
            del d["t_values"]
        d["space"] = self.space.value
        if self.w0 is not None:
            d["w0"] = [float(v) for v in self.w0]
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _validate(raw: dict, command: Optional[str] = None) -> ExperimentConfig:
    """The config in ``raw``, where a key that ``command`` does not read is refused and keeps its default (with no
    command, every key is read); a subcommand that does not read workers runs no pool and ignores OCTOWIND_WORKERS."""
    keys = {k.name: k for k in dataclasses.fields(ExperimentConfig)}
    reads = set(_COMMANDS[command][1] if command else keys)
    start = "w0" if "w0" in raw else "r0"  # simulate from w0 runs the coordinate path, which reads scheme, not r0
    reads -= {"r0" if start == "w0" else "scheme"} if command == "simulate" else set()
    violations = [f"unknown key {key!r}" for key in sorted(set(raw) - set(keys))]
    violations += [f"{key} is not read by {command}" + (f" from {start}" if key in _COMMANDS[command][1] else "")
                   for key in sorted(set(raw) & set(keys) - reads)]
    cfg = ExperimentConfig(t_values=[1e3, 1e5, 1e8] if command == "table" else None)
    for k in keys.values():
        if k.name in raw and k.name in reads:
            _, convert, form = k.metadata["cli"]
            try:
                setattr(cfg, k.name, convert(raw[k.name]))
            except (TypeError, ValueError, OverflowError):
                violations.append(f"{k.name} = {raw[k.name]!r}; expected {form}")
    violations += engine.sim_problems(cfg.space, cfg.t_end, cfg.dt, cfg.scheme, cfg.r0, cfg.w0)
    violations += mc.run_problems(cfg.n_paths, cfg.block_size, cfg.workers if "workers" in reads else 1, cfg.seed)
    violations += _out_problems(cfg.out)
    violations += [f"lambda_norms entry {v!r} violates 0 <= |lambda| <= {specfun.LAMBDA_MAX:.4g}"
                   for v in cfg.lambda_norms if not 0 <= v <= specfun.LAMBDA_MAX]
    if not cfg.lambda_norms:
        violations.append("lambda_norms is empty; expected at least one |lambda|")
    violations += [f"t_values entry {t!r} violates 0 < t < inf" for t in cfg.t_values or () if not 0 < t < math.inf]
    if violations:
        raise ConfigError(violations)
    # scheme is read only off the flat space (there a coordinate step is w + dw in either scheme), and t_values
    # only on it (only the flat table has rows at finite t).
    key = {"simulate": "scheme", "table": "t_values"}.get(command)
    if key in raw and (cfg.space is ModelSpace.FLAT) == (key == "scheme"):
        raise ConfigError([f"{key} is not read by {command} on the {cfg.space.value} space"])
    return cfg


def _read(text: str) -> dict:
    """The raw keys and values of a JSON object or key=value document."""
    def no_dupes(pairs):
        d = {}
        for k, v in pairs:
            if k in d:
                raise ConfigError([f"duplicate key {k!r}"])
            d[k] = v
        return d

    if text.lstrip().startswith("{"):
        try:
            return json.loads(text, object_pairs_hook=no_dupes)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"invalid JSON: {exc}"]) from None
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError([f"line {lineno}: expected key=value, got {line!r}"])
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return no_dupes(pairs)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON object or key=value document into a validated config."""
    return _validate(_read(text))


# ---------------------------------------------------------------------------
# Artifact helpers

def _out_problems(path: Optional[str]) -> list[str]:
    """Why an artifact cannot be written to ``path``; checked before the run."""
    if not path:
        return []
    try:  # not Path.is_dir, which from Python 3.14 on answers False for every OSError
        if stat.S_ISDIR(os.stat(path).st_mode):
            return [f"out = {path!r} is a directory"]
        # An existing file (or device, such as /dev/full) is opened in place: its own permission counts.
        return [] if os.access(path, os.W_OK) else [f"out = {path!r} is not writable"]
    except FileNotFoundError:
        pass
    except OSError as exc:  # a name too long for the file system, or a parent that is a file
        return [f"out = {path!r}: {exc.strerror}"]
    if not os.access(Path(path).parent, os.W_OK):
        return [f"out = {path!r}: its directory is missing or not writable"]
    return []


@contextlib.contextmanager
def _opened(path: Optional[str]):
    """``path`` open for writing, or stdout when there is none; a failed write to ``path`` is one error."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise OctowindError(f"out = {path!r}: {exc.strerror or exc}") from None


def _write_csv(path: Optional[str], header: list[str], rows, config_hash: str) -> None:
    """Write the artifact to ``path``, or to stdout when there is none, one row at a time."""
    with _opened(path) as fh:
        fh.write(f"# config {config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_simulate(cfg: ExperimentConfig) -> int:
    if cfg.w0 is not None:
        path = engine.simulate_coordinate(cfg)
        end = path[-1]
        header = ["time"] + [f"c{i}" for i in range(8)] + [f"zeta{i}" for i in range(1, 8)]
        rows = (  # no coordinates once the path has switched to the skew product
            [t, *(w.tolist() if np.isfinite(w[0]) else [""] * 8), *z.tolist()]
            for t, w, z in zip(path["time"], path["w"], path["zeta"])
        )
        print(f"coordinate path: t_end={end['time']:.6g} |zeta|={float(np.linalg.norm(end['zeta'])):.6g}")
    else:
        path = engine.simulate_radial(cfg)
        end = path[-1]
        header = list(path.dtype.names)
        rows = zip(*(path[name] for name in header))
        print(f"radial path: t_end={end['time']:.6g} r_end={end['r']:.6g} clock={end['clock']:.6g}")
    _write_csv(cfg.out, header, rows, cfg.config_hash())
    return 0


def _closed_forms(cfg: ExperimentConfig, entries) -> list[float]:
    """The closed form on cfg.space from cfg.r0 per (|lambda| as asked, t, |lambda| as evaluated), t = inf
    asking for the long-time limit; each DomainError is one listed config error.  The hyperbolic value is
    the limit at every t; the projective one is asymptotic, as A_t ~ (14/3) t under the stationary law."""
    values, problems = [], []
    for ln, t, lam in entries:
        try:
            if cfg.space is ModelSpace.HYPERBOLIC:
                values.append(specfun.oh1_limit_charfn(lam, cfg.r0))
            elif cfg.space is ModelSpace.PROJECTIVE:
                values.append(specfun.op1_limit_charfn(lam) if t == math.inf else math.exp(-7.0 / 3.0 * lam ** 2 * t))
            else:
                values.append(specfun.flat_limit_charfn(lam) if t == math.inf else specfun.flat_laplace(cfg.r0, t, lam))
        except DomainError as exc:
            problems.append(f"lambda_norms entry {ln!r} at t = {t}: {exc}")
    if problems:
        raise ConfigError(problems)
    return values


def _cmd_charfn(cfg: ExperimentConfig) -> int:
    closed = _closed_forms(cfg, [(ln, cfg.t_end, ln) for ln in cfg.lambda_norms])  # before the run
    stop_tol = 1e-13 if cfg.space is ModelSpace.HYPERBOLIC else None
    result = mc.run_radial_mc(
        cfg.space, cfg.r0, cfg.t_end, cfg.dt, cfg.n_paths, seed=cfg.seed,
        stop_rate_tol=stop_tol, block_size=cfg.block_size, workers=cfg.workers,
    )
    rows = []
    for ln, ref in zip(cfg.lambda_norms, closed):
        est = stats.mc_charfn(result, ln)
        rows.append([cfg.space.value, ln, cfg.r0, cfg.t_end, cfg.n_paths,
                     est.value, est.std_error, ref])
        print(f"lambda={ln:g}: mc={est.value:.6f} +- {est.std_error:.6f}  closed_form={ref:.6f}")
    header = ["space", "lambda_norm", "r0", "t", "n_paths", "mc_value", "mc_se", "closed_form"]
    _write_csv(cfg.out, header, rows, cfg.config_hash())
    return 0


def _cmd_table(cfg: ExperimentConfig) -> int:
    # Per |lambda|, the flat rows (of sqrt(6 / log t) zeta(t) past t = 1, as in the flat limit), then the limit.
    entries = [(ln, t, ln * math.sqrt(6.0 / math.log(t)) if 1 < t < math.inf else ln)
               for ln in cfg.lambda_norms for t in [*(cfg.t_values if cfg.space is ModelSpace.FLAT else []), math.inf]]
    rows = [[cfg.space.value, ln, cfg.r0, t, v] for (ln, t, _), v in zip(entries, _closed_forms(cfg, entries))]
    header = ["space", "lambda_norm", "r0", "t", "closed_form_value"]
    _write_csv(cfg.out, header, rows, cfg.config_hash())
    if cfg.out:
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

    e1, e2, e4 = np.eye(8)[[1, 2, 4]]
    associative = np.array_equal(mul_array(e1, mul_array(e2, e4)), mul_array(mul_array(e1, e2), e4))
    checks.append({"name": "non_associativity_witness", "passed": not associative,
                   "detail": "e1(e2 e4) != (e1 e2) e4"})

    x = rng.standard_normal((10_000, 8))
    v = rng.standard_normal((10_000, 8))
    alg = winding_form_array(x, v)
    printed = printed_winding(x, v)
    dev = np.abs(alg - printed).max()
    checks.append({"name": "winding_form_coordinates", "passed": bool(dev < 1e-12),
                   "detail": f"max deviation from coordinate formulas {dev:.3e}"})

    wf_self = np.abs(winding_form_array(x, x)).max()
    checks.append({"name": "winding_form_self_vanishes", "passed": bool(wf_self < 1e-12),
                   "detail": f"max |eta(x, x)| {wf_self:.3e}"})
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
    devs = [abs(specfun.oh1_limit_charfn(ln, r0) - specfun.oh1_limit_charfn_expanded(ln, r0))
            for ln in (0.5, 1.0, 2.0) for r0 in (0.5, 1.0, 2.0)]
    checks.append({"name": "oh1_forms_agree", "passed": all(d < 1e-12 for d in devs),
                   "detail": f"max |factored - expanded| {max(devs):.3e}"})
    rate = stats.stationary_mean_clock_rate()
    checks.append({"name": "stationary_clock_rate", "passed": bool(abs(rate - 14.0 / 3.0) < 1e-10),
                   "detail": f"quadrature mean clock rate {rate:.12f}"})
    return checks


_SUITES = {
    "algebra": _algebra_checks,
    "specfun": _specfun_checks,
}


def _cmd_verify(args) -> int:
    if problems := _out_problems(args.out):
        raise ConfigError(problems)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
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
    if args.out:
        with _opened(args.out) as fh:
            json.dump(report, fh, indent=2)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing

# Each subcommand: its help line, the config keys it reads (the flags it takes), and its handler, which gets
# the validated config.  verify reads no key: its flags are its own, and its handler gets the parsed arguments.
_COMMANDS = {
    "simulate": ("dump one trajectory to CSV", ("space", "t_end", "dt", "r0", "w0", "seed", "out", "scheme"),
                 _cmd_simulate),
    "charfn": ("Monte Carlo characteristic function vs closed form", ("space", "t_end", "dt", "n_paths", "r0",
               "lambda_norms", "seed", "out", "workers", "block_size"), _cmd_charfn),
    "table": ("closed-form reference values as CSV", ("space", "r0", "lambda_norms", "t_values", "out"), _cmd_table),
    "verify": ("run a property suite", (), _cmd_verify),
}


def _resolve(args) -> ExperimentConfig:
    """The subcommand's config: its --config file, overridden by its flags."""
    try:
        raw = _read(Path(args.config).read_text()) if args.config else {}
    except OSError as exc:
        raise ConfigError([f"config file {args.config!r}: {exc.strerror}"]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file {args.config!r} is not UTF-8 text: {exc.reason}"]) from None
    raw.update({k.name: v for k in dataclasses.fields(ExperimentConfig) if (v := getattr(args, k.name)) is not None})
    return _validate(raw, args.command)


class _Parser(argparse.ArgumentParser):
    """argparse whose refusals (an unknown flag, a flag without its value) are config errors."""

    def error(self, message):
        raise ConfigError([message])


def _join_values(argv: list[str]) -> list[str]:
    """argv with each --flag joined to a following word that starts with one minus sign
    (--r0 -1e3 becomes --r0=-1e3): every flag but --help takes a value, and argparse
    would read such a value as an unknown flag."""
    out = []
    for word in argv:
        if (out and word[:1] == "-" and word[:2] != "--" and out[-1][:2] == "--" and "=" not in out[-1]
                and not "--help".startswith(out[-1])):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on first use."""
    parser = _Parser(prog="octowind", description="Brownian winding functionals on the octonionic model spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if not keys:
            continue
        p.add_argument("--config", help="JSON or key=value config file; flags override it")
        # Values stay strings, which _validate converts as a file's.  The flag of a key that the subcommand does
        # not read is hidden from --help and taken only so that _validate refuses it by name.
        for k in dataclasses.fields(ExperimentConfig):
            flag, _, form = k.metadata["cli"]
            p.add_argument(flag, dest=k.name, help=form if k.name in keys else argparse.SUPPRESS)
    sub.choices["verify"].add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    sub.choices["verify"].add_argument("--out", help="JSON report path")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
        _, keys, handler = _COMMANDS[args.command]
        code = handler(_resolve(args) if keys else args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except OctowindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (| head).  As the "Note on SIGPIPE" of the signal module's documentation
        # shows, stdout goes to os.devnull, so that its flush at exit finds no closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
