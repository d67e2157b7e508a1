"""CLI harness: config validation, artifacts, reproducibility, verify suites."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from octowind import cli, geometry, mc, specfun
from octowind.errors import ConfigError, QuadratureError
from octowind.geometry import ModelSpace


# ---------------------------------------------------------------------------
# Config parsing and validation

def test_parse_config_json():
    cfg = cli.parse_config('{"space": "projective", "t_end": 2.5, "n_paths": 100, "r0": 0.4}')
    assert cfg.space is ModelSpace.PROJECTIVE
    assert cfg.t_end == 2.5
    assert cfg.n_paths == 100


def test_parse_config_key_value():
    cfg = cli.parse_config("space = hyperbolic\nt_end = 3\n# a comment\nseed = 5\n")
    assert cfg.space is ModelSpace.HYPERBOLIC
    assert cfg.seed == 5


def test_parse_config_duplicate_key_json():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config('{"t_end": 1, "t_end": 2}')
    assert any("duplicate" in v for v in exc.value.violations)


def test_parse_config_duplicate_key_lines():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("t_end = 1\nt_end = 2\n")
    assert any("duplicate" in v for v in exc.value.violations)


def test_parse_config_bad_line():
    with pytest.raises(ConfigError):
        cli.parse_config("this is not a key value pair\n")


def test_validate_unknown_key_and_bad_values():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config('{"spce": "flat", "dt": -1, "n_paths": 0, "scheme": "rk4"}')
    msgs = "\n".join(exc.value.violations)
    assert "unknown key 'spce'" in msgs
    assert "dt" in msgs and "n_paths" in msgs and "scheme" in msgs


def test_validate_names_every_violation():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config('{"space": "moebius", "t_end": -3, "seed": "abc"}')
    assert len(exc.value.violations) >= 3


@pytest.mark.parametrize("text,key", [
    ('{"n_paths": 1.5}', "n_paths"),
    ('{"seed": 2.7}', "seed"),
    ('{"block_size": 99.9}', "block_size"),
    ('{"workers": 2.5}', "workers"),
    ('{"seed": true}', "seed"),
    ('{"workers": false}', "workers"),
    ('{"n_paths": Infinity}', "n_paths"),
    ("seed = 2.7\n", "seed"),
    ('{"lambda_norms": []}', "lambda_norms"),
    ("lambda_norms =\n", "lambda_norms"),
    ('{"dt": 1' + "0" * 400 + "}", "dt"),  # past the float range
])
def test_validate_refuses_malformed_numbers(text, key):
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(text)
    assert [v for v in exc.value.violations if v.startswith(f"{key} ")] == exc.value.violations


def test_integer_keys_accept_integral_numbers_and_text():
    cfg = cli.parse_config('{"n_paths": 100.0, "seed": "5", "block_size": 7, "workers": 2.0}')
    values = (cfg.n_paths, cfg.seed, cfg.block_size, cfg.workers)
    assert values == (100, 5, 7, 2) and all(type(v) is int for v in values)


def test_validate_hyperbolic_chart_bound():
    w0 = "1.0,0,0,0,0,0,0,0.5"
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(json.dumps({"space": "hyperbolic", "w0": w0}))
    assert any("chart bound" in v for v in exc.value.violations)


def test_validate_requires_start_point():
    # An unparseable r0 leaves the run without a start point; both problems
    # must be reported.
    with pytest.raises(ConfigError) as exc:
        cli._validate({"r0": "x"})
    msgs = "\n".join(exc.value.violations)
    assert "r0" in msgs
    assert "required" in msgs


def test_config_hash_stable():
    cfg1 = cli.parse_config('{"space": "flat", "seed": 1}')
    cfg2 = cli.parse_config('{"seed": 1, "space": "flat"}')
    assert cfg1.config_hash() == cfg2.config_hash()
    cfg3 = cli.parse_config('{"space": "flat", "seed": 2}')
    assert cfg1.config_hash() != cfg3.config_hash()


# ---------------------------------------------------------------------------
# Subcommands

def _run(argv):
    return cli.main(argv)


def test_simulate_radial_reproducible(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["simulate", "--space", "flat", "--t", "0.1", "--dt", "0.001",
            "--r0", "1.0", "--seed", "3"]
    assert _run(argv + ["--out", str(out1)]) == 0
    assert _run(argv + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "time,r,clock"
    assert len(lines) == 2 + 101  # header lines + t=0 + 100 steps


def test_simulate_coordinate_csv(tmp_path):
    out = tmp_path / "c.csv"
    argv = ["simulate", "--space", "projective", "--t", "0.05", "--dt", "0.001",
            "--w0", "0.5,0,0,0,0,0,0,0", "--seed", "4", "--out", str(out)]
    assert _run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[:2] == ["time", "c0"]
    assert lines[1].split(",")[-1] == "zeta7"
    data = np.loadtxt(out, delimiter=",", skiprows=2)
    assert data.shape == (51, 16)
    assert np.all(data[0, 9:] == 0.0)  # winding starts at zero


def test_simulate_coordinate_past_the_switch(tmp_path, capsys):
    out = tmp_path / "h.csv"
    argv = ["simulate", "--space", "hyperbolic", "--t", "5", "--w0", "0.7,0,0,0,0,0,0,0", "--out", str(out)]
    assert _run(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 5001
    switched = [row[1] == "" for row in rows]
    first = switched.index(True)
    assert not any(switched[:first]) and all(switched[first:])
    assert all(row[1:9] == [""] * 8 for row in rows[first:])
    assert rows[first][9:] == rows[first - 1][9:] == rows[-2][9:] != rows[-1][9:]


def test_charfn_flat_matches_quadrature(tmp_path, capsys):
    out = tmp_path / "cf.csv"
    argv = ["charfn", "--space", "flat", "--t", "1.0", "--dt", "0.01",
            "--paths", "2000", "--r0", "1.0", "--lambda-norm", "1.0",
            "--seed", "5", "--out", str(out)]
    assert _run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "space,lambda_norm,r0,t,n_paths,mc_value,mc_se,closed_form"
    row = lines[2].split(",")
    mc_value, mc_se, closed = float(row[5]), float(row[6]), float(row[7])
    assert abs(mc_value - closed) < 6 * mc_se + 0.01


@pytest.mark.parametrize("argv,value", [
    (["table", "--space", "hyperbolic", "--r0", "200"], "1.0"),
    (["charfn", "--space", "hyperbolic", "--r0", "200", "--t", "0.1", "--paths", "10"], "1.0"),
    # 1.5e9 * sqrt(6 / log 1e8) is inside the Bessel range that flat_laplace takes.
    (["table", "--space", "flat", "--lambda-norm", "1.5e9", "--t-values", "1e8"], "0.0"),
    # Where tanh(r0) rounds to 1, the hyperbolic limit at a large |lambda| is 0, not 1.41e39.
    (["table", "--space", "hyperbolic", "--r0", "100", "--lambda-norm", "1e100"], "0.0"),
], ids=["table_hyperbolic", "charfn_hyperbolic", "table_flat", "table_hyperbolic_large_lambda"])
def test_closed_forms_at_extreme_inputs(capsys, argv, value):
    assert _run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].split(",")[-1] == value


def test_charfn_evaluates_the_closed_form_before_the_run(monkeypatch, capsys):
    def failing(*args):
        raise QuadratureError("closed form failed")

    def run(*args, **kwargs):
        raise AssertionError("the Monte Carlo run started")
    monkeypatch.setattr(specfun, "flat_laplace", failing)
    monkeypatch.setattr(mc, "run_radial_mc", run)
    assert _run(["charfn", "--space", "flat", "--t", "0.1", "--paths", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: closed form failed\n" and captured.out == ""


def test_table_flat(tmp_path):
    out = tmp_path / "tab.csv"
    argv = ["table", "--space", "flat", "--r0", "1.0", "--lambda-norm", "1.0",
            "--t-values", "1e3,1e8", "--out", str(out)]
    assert _run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "space,lambda_norm,r0,t,closed_form_value"
    assert len(lines) == 2 + 3  # two horizons plus the limit row
    assert lines[-1].split(",")[3] == "inf"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = flat\nt_end = 0.1\ndt = 0.001\nr0 = 1.0\nseed = 9\n")
    out = tmp_path / "o.csv"
    assert _run(["simulate", "--config", str(cfg), "--seed", "10", "--out", str(out)]) == 0
    assert "# config" in out.read_text().splitlines()[0]


def test_config_error_exit_code(tmp_path, capsys):
    assert _run(["simulate", "--space", "flat", "--dt", "-1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dt" in err


@pytest.mark.parametrize("text,fix,flags", [
    ("t_end = 0.0005\ndt = 0.001\nr0 = 1.0\n", ["--t", "0.01"],
     ["--t", "0.01", "--dt", "0.001", "--r0", "1.0"]),
    ('{"space": "projective", "t_end": 0.05, "r0": 1.6, "seed": 3}', ["--r0", "0.7"],
     ["--space", "projective", "--t", "0.05", "--r0", "0.7", "--seed", "3"]),
], ids=["key_value", "json"])
def test_flags_override_a_config_file_before_validation(tmp_path, capsys, text, fix, flags):
    # Each file is invalid on its own (t_end < dt; r0 past pi/2) and valid
    # once the flag replaces the bad value.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "alone.csv")]) == 2
    assert _run(["simulate", "--config", str(cfg), *fix, "--out", str(tmp_path / "file.csv")]) == 0
    assert _run(["simulate", *flags, "--out", str(tmp_path / "flags.csv")]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


def test_merged_config_lists_every_violation(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space = moebius\ndt = -1\n")
    assert _run(["charfn", "--config", str(cfg), "--paths", "0", "--r0", "1.0",
                 "--out", str(tmp_path / "o.csv")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("config error")]
    assert len(errors) == 3
    for key in ("space", "dt", "n_paths"):
        assert any(key in line for line in errors)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", ["charfn", "table"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_w0_is_rejected_outside_simulate(tmp_path, capsys, command, source):
    w0 = "0.3,0,0,0,0,0,0,0"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"w0 = {w0}\n")
    start = ["--w0", w0] if source == "flag" else ["--config", str(cfg)]
    argv = [command, "--space", "projective", *start, "--t", "0.1", "--paths", "10",
            "--out", str(tmp_path / "o.csv")]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "w0" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv,named", [
    (["simulate", "--config", "missing.cfg"], "missing.cfg"),
    (["table", "--t-values", "1e3,abc"], "t_values"),
    (["table", "--t-values", "-5"], "-5"),
    (["table", "--t-values", "1e3,0"], "0"),
    (["table", "--t-values", "nan"], "nan"),
    (["table", "--t-values", "inf"], "inf"),
    (["simulate", "--t", "inf"], "t_end"),
    (["charfn", "--seed", "-1"], "seed"),
    (["simulate", "--seed", "-1"], "seed"),
    (["charfn", "--lambda-norm", "1,nan"], "nan"),
    (["charfn", "--lambda-norm", "inf"], "inf"),
    (["table", "--lambda-norm", "-1"], "-1"),
    (["charfn", "--lambda-norm", ","], "lambda_norms"),
    (["charfn", "--lambda-norm", ""], "lambda_norms"),
    (["simulate", "--config", "bad.json"], "invalid JSON"),
    (["simulate", "--t", "1", "--dt", "1e-300"], "t_end / dt"),
    (["simulate", "--t", "1", "--dt", "5e-324"], "t_end / dt"),
    (["charfn", "--t", "1", "--dt", "1e-300"], "t_end / dt"),
    (["charfn", "--t", "1", "--dt", "5e-324"], "t_end / dt"),
    *(([cmd, "--space", space, "--lambda-norm", "1e200"], "1e+200")
      for cmd in ("charfn", "table") for space in ("flat", "projective", "hyperbolic")),
    (["charfn", "--space", "hyperbolic", "--lambda-norm", "1e120"], "1e+120"),
    # The Bessel order that flat_laplace would be passed: table scales |lambda| by sqrt(6 / log t).
    (["table", "--space", "flat", "--lambda-norm", "1e50", "--t-values", "1e3"], "1e+50"),
    (["table", "--space", "flat", "--lambda-norm", "1e9", "--t-values", "2"], "1000000000.0"),
    (["charfn", "--space", "flat", "--lambda-norm", "2e9"], "2000000000.0"),
    # ... and the largest Bessel argument of its window, about (r0 / sqrt(t))^2.
    (["table", "--space", "flat", "--r0", "1", "--t-values", "1e-12"], "1e-12"),
    (["charfn", "--space", "flat", "--r0", "1e6", "--t", "0.01", "--paths", "10"], "0.01"),
    # Path counts whose (n, 8) normal block NumPy cannot index.
    (["charfn", "--space", "flat", "--t", "0.01", "--paths", "1" + "0" * 26], f"n_paths <= {mc.N_PATHS_MAX}"),
    (["charfn", "--t", "0.01", "--paths", "1" + "0" * 19, "--block-size", "1" + "0" * 19], "n_paths <="),
    # A value that starts with a minus sign, and the refusals of the argument parser.
    (["table", "--r0", "-1e3"], "r0 = -1000.0 outside (1e-06, inf) for flat"),
    (["table", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["charfn", "--r0"], "argument --r0: expected one argument"),
    (["verify", "--suite", "none"], "invalid choice: 'none'"),
    (["table", "--config", "binary.cfg"], "binary.cfg' is not UTF-8 text"),
])
def test_invalid_cli_input_exits_2(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text('{"t_end": 1,')
    (tmp_path / "binary.cfg").write_bytes(b"t_end = 1\n\xd0\xff\n")
    assert _run([*argv, "--out", "o.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert not (tmp_path / "o.csv").exists()


# Closed-form inputs: the boundaries of each range, the ends of the double range, NaN, infinities,
# negative values and ordinary small values.
_NUMBER = st.one_of(
    st.sampled_from(["0", "-1", "-0.5", "5e-324", "1e-300", "1e300", "1e200", "-1e200", "nan", "inf", "-inf",
                     repr(geometry.R_MIN), repr(geometry.R_MIN * (1 + 1e-9)), repr(math.pi / 2 - 2e-6),
                     repr(math.pi / 2), "118", "120", "350", "1e4", "3e4", "1e9", "2e9",
                     repr(specfun.LAMBDA_MAX), repr(math.nextafter(specfun.LAMBDA_MAX, math.inf))]),
    st.floats(min_value=1e-3, max_value=1.5).map(repr),
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.floats().map(repr),
)
_NUMBERS = st.lists(_NUMBER, min_size=1, max_size=3).map(",".join)
_SPACE = st.sampled_from(["flat", "projective", "hyperbolic"])


def _exit_0_or_2(argv: list[str], column: Optional[str] = None) -> None:
    """Exit 0 with every closed-form value in ``column`` in [-1, 1], or exit 2 with only config errors listed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert all(line.startswith("config error:") for line in err.getvalue().splitlines()), err.getvalue()
    if code == 2 or column is None:
        return
    lines = out.getvalue().splitlines()
    rows = list(csv.DictReader(lines[[i for i, line in enumerate(lines) if line.startswith("# config")][0] + 1:]))
    assert rows
    for row in rows:
        assert math.isfinite(v := float(row[column])) and abs(v) <= 1 + 1e-6, (argv, row)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(space=_SPACE, r0=_NUMBER, lambda_norms=_NUMBERS, t_values=_NUMBERS)
def test_table_generated_closed_form_inputs(space, r0, lambda_norms, t_values):
    # key=value flags, so that argparse takes a leading minus sign as part of the value
    _exit_0_or_2(["table", f"--space={space}", f"--r0={r0}", f"--lambda-norm={lambda_norms}",
                  f"--t-values={t_values}", "--workers=1"], "closed_form_value")


@settings(max_examples=500, derandomize=True, deadline=None)
@given(space=_SPACE, r0=_NUMBER, lambda_norms=_NUMBERS, t=_NUMBER, steps=st.integers(1, 50),
       paths=st.integers(1, 4))
# A start just above R_MIN with a step below the dt floor, where the implicit root could land within R_MIN.
@example(space="flat", r0="1.000000001e-06", lambda_norms="0", t="1e-13", steps=5, paths=3)
@example(space="projective", r0="1.000000001e-06", lambda_norms="0", t="1e-13", steps=5, paths=3)
@example(space="hyperbolic", r0="1.000000001e-06", lambda_norms="0", t="1e-13", steps=5, paths=3)
def test_charfn_generated_closed_form_inputs(space, r0, lambda_norms, t, steps, paths):
    # At most 4 paths and 50 steps: dt = t / steps.
    _exit_0_or_2(["charfn", f"--space={space}", f"--r0={r0}", f"--lambda-norm={lambda_norms}", f"--t={t}",
                  f"--dt={float(t) / steps!r}", f"--paths={paths}", "--workers=1"], "closed_form")


# Values that no number key accepts: booleans, null, empty text, lists, words, a fraction written as
# text, and integer literals past the double range (as a JSON integer and as text).
_REFUSED = [True, False, None, "", [], ["1", "2"], "abc", "1/2", 10 ** 400, "1" + "0" * 400]
_REFUSED_DRAW = st.sampled_from(_REFUSED)
_SMALL = st.floats(min_value=1e-3, max_value=1.5).map(repr)
# Per key, its values (valid ones and the boundaries) and the values it refuses. A valid draw runs at
# most 4 paths, in one block and in process; t_end and dt are drawn together below.
_KEY_VALUES = {
    "n_paths": (st.sampled_from([1, 2, 4, "3", 4.0]),
                [0, -1, 2.5, "2.0", 10 ** 19, 10 ** 27, "1" + "0" * 26, math.nan, math.inf]),
    "space": (st.sampled_from(["flat", "projective", "hyperbolic", "Hyperbolic"]), ["moebius", 3]),
    "r0": (st.one_of(_SMALL, _NUMBER, st.sampled_from([2.5, 10 ** 27])), []),
    "w0": (st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
           [[0.1] * 7, [0.1] * 9, "0,0,0,0,0,0,0,1e300", ",".join(["nan"] * 8)]),
    "lambda_norms": (st.one_of(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3), _NUMBERS), [","]),
    "block_size": (st.sampled_from([4, 25_000, "5", 5.0, 10 ** 30]), [0, -2, 2.5]),
    "workers": (st.sampled_from([1, 2, "2", 2.0, 10 ** 30]), [0, -3, 1.5, "two"]),
    "seed": (st.sampled_from([0, 7, "7", 2.0, 2 ** 64, 10 ** 30]), [-1, 0.5]),
    "scheme": (st.sampled_from(["euler_maruyama", "stratonovich_heun"]), ["rk4"]),
    "out": (st.sampled_from(["o.csv", ""]), [".", "missing/o.csv", "o\0.csv"]),
}
# How a key is drawn: from its values, left out, or refused (6 : 3 : 1); w0, a coordinate start, is drawn
# one time in three, and n_paths is always set (10,000 by default).
_KIND = st.sampled_from(["value"] * 6 + ["absent"] * 3 + ["refused"])
_KINDS = {**dict.fromkeys(_KEY_VALUES, _KIND), "w0": st.sampled_from(["absent", "value", "absent"]),
          "n_paths": st.sampled_from(["value"] * 9 + ["refused"])}
_KEY_DRAWS = {key: {"value": values, "refused": st.sampled_from(refused + _REFUSED)}
              for key, (values, refused) in _KEY_VALUES.items()}
_T_END = st.one_of(_SMALL, _NUMBER, st.sampled_from([2.5, 10 ** 27]), _REFUSED_DRAW)
_STEPS = st.integers(1, 50)


def _float_or_none(value) -> Optional[float]:
    """The number that a number key reads from ``value``, or None where it refuses it."""
    try:
        return None if isinstance(value, (bool, list)) or value is None else float(value)
    except (ValueError, OverflowError):
        return None


@st.composite
def _every_key(draw):
    """A value for each config key; t_end and dt are always set, and a valid dt is t_end / steps with steps <= 50."""
    keys = {key: draw(_KEY_DRAWS[key][kind]) for key in _KEY_VALUES if (kind := draw(_KINDS[key])) != "absent"}
    keys["t_end"] = draw(_T_END)
    t = _float_or_none(keys["t_end"])
    if t is None or not math.isfinite(t):
        keys["dt"] = draw(_NUMBER)  # t_end is refused
    else:
        keys["dt"] = draw(_REFUSED_DRAW) if draw(_KIND) == "refused" else repr(t / draw(_STEPS))
    return keys


def _flag_text(value) -> str:
    """A value as the text of one command-line word."""
    if isinstance(value, list):
        return ",".join(map(_flag_text, value))
    return value if isinstance(value, str) else json.dumps(value)


def _json_value(value):
    """Numeric text as a JSON number, anything else as it is."""
    if isinstance(value, str):
        for number in (int, float):
            try:
                return number(value)
            except ValueError:
                pass
    return value


_FLAGS = {k.name: k.metadata["cli"][0] for k in dataclasses.fields(cli.ExperimentConfig)}


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=_every_key(), t_values=_NUMBERS)
# Path counts that NumPy cannot index, and a value that starts with a minus sign.
@example(keys={"space": "flat", "t_end": "0.01", "dt": "1e-3", "n_paths": "1" + "0" * 26}, t_values="1e3")
@example(keys={"t_end": "0.01", "dt": "1e-3", "n_paths": "1" + "0" * 19, "block_size": "1" + "0" * 19},
         t_values="1e3")
@example(keys={"r0": "-1e3", "t_end": "0.01", "dt": "1e-3", "n_paths": "1"}, t_values="1e3")
def test_every_key_exits_0_or_2(tmp_path, monkeypatch, keys, t_values):
    # Each subcommand runs each draw twice: as --key value flags, and as a JSON config.
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps({k: _json_value(v) for k, v in keys.items()}))
    flags = [w for k, v in keys.items() for w in (_FLAGS[k], _flag_text(v))]
    for command, extra in (("simulate", []), ("charfn", []), ("table", ["--t-values", t_values])):
        _exit_0_or_2([command, *flags, *extra])
        _exit_0_or_2([command, "--config", "run.json", *extra])


@pytest.mark.parametrize("out", ["missing/o.csv", "."], ids=["missing_dir", "directory"])
@pytest.mark.parametrize("command", ["simulate", "charfn", "table", "verify"])
def test_bad_out_exits_2_before_the_run(tmp_path, monkeypatch, capsys, command, out):
    monkeypatch.chdir(tmp_path)
    run = [] if command == "verify" else ["--space", "hyperbolic", "--t", "0.5", "--paths", "200"]
    assert _run([command, *run, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert captured.err.startswith(f"config error: out = {out!r}")
    assert not any(tmp_path.iterdir())


def test_projective_radial_start_beyond_the_chart_ceiling_runs(tmp_path, capsys):
    # 1.5 lies past the coordinate chart ceiling 1.45 but inside the radial
    # domain, which is all a radial path needs.
    argv = ["--space", "projective", "--r0", "1.5", "--t", "0.1", "--paths", "50"]
    assert _run(["simulate", *argv, "--out", str(tmp_path / "s.csv")]) == 0
    assert _run(["charfn", *argv, "--out", str(tmp_path / "c.csv")]) == 0


@pytest.mark.parametrize("command", ["simulate", "charfn", "table"])
@pytest.mark.parametrize("start", [
    ["--space", "projective", "--r0", "1.570796"],  # within R_MIN of pi/2
    ["--space", "flat", "--r0", "0"],
    ["--space", "hyperbolic", "--w0", "1.0,0,0,0,0,0,0,0.5"],
    ["--space", "flat", "--w0", "20,0,0,0,0,0,0,0"],
])
def test_invalid_start_point_exits_2_from_every_subcommand(tmp_path, capsys, command, start):
    argv = [command, *start, "--t", "0.1", "--paths", "50", "--out", str(tmp_path / "o.csv")]
    assert _run(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--space", "flat", "--t", "0.05", "--r0", "1"],
    ["charfn", "--space", "hyperbolic", "--t", "0.5", "--paths", "200", "--lambda-norm", "0.5,1"],
    ["table", "--space", "flat", "--t-values", "1e3,1e5"],
], ids=["simulate", "charfn", "table"])
def test_stdout_without_out_ends_with_the_artifact(tmp_path, capsys, argv):
    assert _run(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert _run([*argv, "--out", str(tmp_path / "o.csv")]) == 0
    artifact = (tmp_path / "o.csv").read_bytes()
    assert artifact.startswith(b"# config ") and stdout.endswith(artifact)


def test_simulation_error_exits_1_without_traceback(monkeypatch, capsys):
    # An implicit root that lands on NaN stops the run inside block 0.
    spec = geometry.SPACES[ModelSpace.PROJECTIVE]

    def broken_radial(tilt):
        law, _ = spec.radial(tilt)
        return law, lambda target, dt: np.full_like(target, np.nan)
    monkeypatch.setitem(geometry.SPACES, ModelSpace.PROJECTIVE, dataclasses.replace(spec, radial=broken_radial))
    argv = ["charfn", "--space", "projective", "--r0", "1.56", "--t", "1", "--dt", "0.05", "--paths", "200",
            "--block-size", "100", "--seed", "83", "--workers", "1"]
    assert _run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: block 0: radial path ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: octowind table")


def test_malformed_flags_are_listed_config_errors(capsys):
    assert cli.main(["simulate", "--t", "abc", "--dt", "x"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("config error")]
    assert len(errors) == 2
    assert any("t_end" in e and "'abc'" in e for e in errors)
    assert any("dt" in e and "'x'" in e for e in errors)


def test_every_typed_flag_is_validated_with_the_rest(tmp_path, capsys):
    argv = ["charfn", "--space", "moebius", "--t", "abc", "--paths", "1.5", "--seed", "x", "--workers", "two",
            "--block-size", "big", "--scheme", "rk4", "--r0", "q", "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    for named in ("moebius", "'abc'", "'1.5'", "'x'", "'two'", "'big'", "'rk4'", "'q'"):
        assert named in err
    assert not (tmp_path / "o.csv").exists()


# Config hashes these flag sets had when argparse converted the flags.
_FLAG_HASHES = [
    (["simulate", "--space", "flat", "--t", "0.1", "--dt", "0.001", "--r0", "1.0", "--seed", "3"],
     "0f05f8c9e6dd9636"),
    (["simulate", "--space", "projective", "--t", "0.05", "--dt", "0.001", "--w0", "0.5,0,0,0,0,0,0,0",
      "--seed", "4", "--scheme", "euler_maruyama"], "f2ce3921b25b7e50"),
    (["charfn", "--space", "hyperbolic", "--t", "2", "--dt", "0.01", "--paths", "300", "--block-size", "100",
      "--r0", "1.0", "--lambda-norm", "0.5,1", "--seed", "6", "--workers", "1"], "e44bee3e2c1184cd"),
]


@pytest.mark.parametrize("argv,config_hash", _FLAG_HASHES, ids=["radial", "coordinate", "charfn"])
def test_flags_give_the_bytes_of_the_same_config_file(tmp_path, capsys, argv, config_hash):
    keys = {"--t": "t_end", "--paths": "n_paths", "--lambda-norm": "lambda_norms",
            "--block-size": "block_size"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{keys.get(f, f[2:])} = {v}\n" for f, v in zip(argv[1::2], argv[2::2])))
    assert _run([*argv, "--out", str(tmp_path / "flags.csv")]) == 0
    assert _run([argv[0], "--config", str(cfg), "--out", str(tmp_path / "file.csv")]) == 0
    flags = (tmp_path / "flags.csv").read_bytes()
    assert flags == (tmp_path / "file.csv").read_bytes()
    assert flags.decode().splitlines()[0] == f"# config {config_hash}"


def test_table_hash_identifies_the_horizons(tmp_path, capsys):
    heads = []
    for i, t_values in enumerate(("1e3", "1e5", "1e3")):
        out = tmp_path / f"t{i}.csv"
        assert _run(["table", "--space", "flat", "--t-values", t_values, "--out", str(out)]) == 0
        heads.append(out.read_text().splitlines()[0])
    assert heads[0] != heads[1]
    assert heads[0] == heads[2]


def test_workers_default_from_environment(tmp_path, monkeypatch, capsys):
    argv = ["charfn", "--space", "flat", "--t", "0.05", "--paths", "300", "--block-size", "100",
            "--r0", "1.0", "--seed", "6"]
    monkeypatch.delenv("OCTOWIND_WORKERS", raising=False)
    assert _run(argv + ["--workers", "2", "--out", str(tmp_path / "flag.csv")]) == 0
    # The worker count changes neither the numbers nor the config hash.
    assert _run(argv + ["--workers", "1", "--out", str(tmp_path / "one.csv")]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    monkeypatch.setenv("OCTOWIND_WORKERS", "2")
    assert _run(argv + ["--out", str(tmp_path / "env.csv")]) == 0
    assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    monkeypatch.setenv("OCTOWIND_WORKERS", "two")
    assert _run(argv + ["--out", str(tmp_path / "bad.csv")]) == 2
    assert "OCTOWIND_WORKERS" in capsys.readouterr().err
    for env in ("0", "-3"):  # refused as --workers 0 is, naming the variable
        monkeypatch.setenv("OCTOWIND_WORKERS", env)
        assert _run(argv + ["--out", str(tmp_path / "bad.csv")]) == 2
        assert f"config error: OCTOWIND_WORKERS = {env} violates workers >= 1" in capsys.readouterr().err
    assert _run(argv + ["--workers", "0", "--out", str(tmp_path / "bad.csv")]) == 2
    assert "config error: workers = 0 violates workers >= 1" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


def test_verify_all_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert _run(["verify", "--suite", "all", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert set(report["suites"]) == {"algebra", "specfun"}
    algebra = report["suites"]["algebra"]
    assert [c["name"] for c in algebra] == ["norm_multiplicativity", "alternativity", "non_associativity_witness",
                                            "winding_form_coordinates", "winding_form_self_vanishes"]
    assert all(c["passed"] for c in algebra)
    out = capsys.readouterr().out
    assert "norm_multiplicativity: pass" in out


# ---------------------------------------------------------------------------
# Cold start: SciPy is imported only by the functions that call it

def _after(tmp_path, argvs, report: str):
    """The value of the expression ``report`` in a fresh interpreter that imported
    octowind.cli from this checkout and ran ``cli.main`` on each argv."""
    script = ("import json, sys\nfrom octowind import cli\n"
              f"for argv in {argvs!r}:\n    assert cli.main(argv) == 0, argv\n"
              f"print(json.dumps({report}))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(tmp_path, argvs) -> set:
    return set(_after(tmp_path, argvs, "sorted(sys.modules)"))


def test_cold_start_without_scipy(tmp_path):
    modules = _modules_after(tmp_path, [
        ["simulate", "--space", "flat", "--t", "0.01", "--r0", "1", "--out", "r.csv"],
        ["simulate", "--space", "projective", "--t", "0.01", "--w0", "0.5,0,0,0,0,0,0,0", "--out", "c.csv"],
        ["charfn", "--space", "projective", "--t", "0.05", "--paths", "100", "--out", "p.csv"],
        ["charfn", "--space", "hyperbolic", "--t", "0.05", "--paths", "100", "--out", "h.csv"],
    ])
    assert "octowind.cli" in modules
    assert "scipy" not in modules
    assert "concurrent.futures.process" not in modules  # single-block runs open no pool


def test_flat_closed_forms_load_scipy_without_stats(tmp_path):
    modules = _modules_after(tmp_path, [
        ["charfn", "--space", "flat", "--t", "0.05", "--paths", "100", "--out", "f.csv"],
        ["table", "--space", "flat", "--t-values", "1e3", "--out", "t.csv"],
        ["verify", "--suite", "all", "--out", "v.json"],
    ])
    assert {"scipy.special", "scipy.integrate"} <= modules
    assert "scipy.stats" not in modules


# ---------------------------------------------------------------------------
# Memory: simulate holds its path once

@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak RSS from /proc")
def test_simulate_memory_does_not_grow_with_the_path(tmp_path):
    # simulate keeps one array per path (24 B per radial step) and writes the CSV row by row, so
    # from 10,000 to 100,000 steps its peak RSS grows by less than 64 B per extra step. Each child
    # reports the high-water mark of its own address space: Linux carries ru_maxrss across exec,
    # so there it can report the peak of the pytest process that started the child.
    def peak_rss(t):
        argv = ["simulate", "--space", "flat", "--t", t, "--dt", "1e-3", "--r0", "1", "--out", "path.csv"]
        return _after(tmp_path, [argv], "[int(line.split()[1]) * 1024 for line in open('/proc/self/status') "
                                        "if line.startswith('VmHWM:')][0]")

    assert peak_rss("100") - peak_rss("10") < 64 * 90_000
