"""CLI harness: config validation, artifacts, reproducibility, verify suites."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from octowind import cli, engine, geometry, mc, specfun
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


def test_space_key_parses_the_name_in_any_case():
    assert cli.parse_config("space=Flat").space is ModelSpace.FLAT
    assert cli.parse_config("space=HYPERBOLIC").space is ModelSpace.HYPERBOLIC
    with pytest.raises(ConfigError) as exc:
        cli.parse_config("space=euclidean")
    assert exc.value.violations == ["space = 'euclidean'; expected flat, projective or hyperbolic"]


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


@pytest.mark.parametrize("argv,request_", [
    (["--space", "hyperbolic", "--t", "0.2", "--r0", "0.8", "--seed", "12"],
     engine.SimConfig(ModelSpace.HYPERBOLIC, 0.2, r0=0.8, seed=12)),
    (["--space", "projective", "--t", "0.1", "--dt", "0.002", "--w0", "0.5,0,0.1,0,0,0,0,0", "--scheme",
      "euler_maruyama", "--seed", "13"],
     engine.SimConfig(ModelSpace.PROJECTIVE, 0.1, dt=0.002, w0=np.array([0.5, 0, 0.1, 0, 0, 0, 0, 0]),
                      scheme="euler_maruyama", seed=13)),
], ids=["radial", "coordinate"])
def test_simulate_writes_the_rows_of_the_engine(tmp_path, capsys, argv, request_):
    # simulate hands its validated config to the engine, which reads the same fields as from a SimConfig.
    out = tmp_path / "s.csv"
    assert _run(["simulate", *argv, "--out", str(out)]) == 0
    if request_.w0 is None:
        path = engine.simulate_radial(request_)
        want = [[path["time"][i], path["r"][i], path["clock"][i]] for i in range(path.size)]
    else:
        path = engine.simulate_coordinate(request_)
        want = [[t, *w, *z] for t, w, z in zip(path["time"], path["w"], path["zeta"])]
    assert len(want) > 50
    assert out.read_text().splitlines()[2:] == [",".join(repr(float(v)) for v in row) for row in want]


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


def _double(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(x=st.floats() | st.integers(0, 2 ** 64 - 1).map(_double))  # every double, NaN payloads too
@example(x=5e-324)  # the smallest subnormal
@example(x=-2.225073858507201e-308)  # the largest subnormal, negated
@example(x=0.0)
@example(x=-0.0)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=math.nan)
@example(x=1e-4)
@example(x=9.999999999999999e-05)  # the last double written without, and the first with, an exponent
@example(x=9999999999999998.0)
@example(x=1e16)  # the same switch at the large end
def test_a_float_cell_is_written_as_the_repr_of_its_double(x):
    # The artifacts hand their np.float64 cells to csv.writer unconverted, so each
    # must come out as a float's does: the shortest text that reads back the same double.
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([np.float64(x)])
    assert out.getvalue() == repr(float(x)) + "\n"


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


# Flags that run each subcommand, with only the keys it reads.
_RUN = {"simulate": ["--t", "0.1"], "charfn": ["--t", "0.1", "--paths", "50"], "table": []}


@pytest.mark.parametrize("command", ["charfn", "table"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_w0_is_rejected_outside_simulate(tmp_path, capsys, command, source):
    w0 = "0.3,0,0,0,0,0,0,0"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"w0 = {w0}\n")
    start = ["--w0", w0] if source == "flag" else ["--config", str(cfg)]
    argv = [command, "--space", "projective", *start, *_RUN[command], "--out", str(tmp_path / "o.csv")]
    assert _run(argv) == 2
    assert capsys.readouterr().err == f"config error: w0 is not read by {command}\n"
    assert not (tmp_path / "o.csv").exists()


# The flags that each subcommand takes, besides --help and --config: those of the keys it reads.
_COMMAND_FLAGS = {
    "simulate": {"--space", "--t", "--dt", "--r0", "--w0", "--seed", "--out", "--scheme"},
    "charfn": {"--space", "--t", "--dt", "--paths", "--r0", "--lambda-norm", "--seed", "--out", "--workers",
               "--block-size"},
    "table": {"--space", "--r0", "--lambda-norm", "--out", "--t-values"},
}


@pytest.mark.parametrize("command", _COMMAND_FLAGS)
def test_help_lists_the_flags_of_the_keys_the_subcommand_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert flags == _COMMAND_FLAGS[command] | {"--help", "--config"}


@pytest.mark.parametrize("argv,key", [
    (["simulate", "--space", "flat", "--t", "0.01", "--r0", "1", "--paths", "5"], "n_paths"),
    (["simulate", "--space", "flat", "--t", "0.01", "--r0", "1", "--lambda-norm=3", "--workers", "4"], "lambda_norms"),
    (["charfn", "--space", "flat", "--t", "0.01", "--scheme", "euler_maruyama"], "scheme"),
    (["table", "--space", "flat", "--seed", "5"], "seed"),
    (["table", "--space", "flat", "--dt", "1e-3"], "dt"),
    (["table", "--space", "flat", "--t", "1e3"], "t_end"),  # not a prefix of --t-values: --t is t_end's own flag
    (["simulate", "--space", "flat", "--t", "0.01", "--r0", "1", "--pat", "5"], "n_paths"),  # a prefix of --paths
], ids=["simulate_paths", "simulate_lambda_norm", "charfn_scheme", "table_seed", "table_dt", "table_t",
        "simulate_paths_prefix"])
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv, key):
    assert _run([*argv, "--out", str(tmp_path / "o.csv")]) == 2
    captured = capsys.readouterr()
    assert f"config error: {key} is not read by {argv[0]}\n" in captured.err and captured.out == ""
    assert not (tmp_path / "o.csv").exists()


# test_w0_is_rejected_outside_simulate has the w0 cases.
@pytest.mark.parametrize("command,text,key", [
    ("simulate", "space = flat\nt_end = 0.01\nr0 = 1\nn_paths = 5\n", "n_paths"),
    ("charfn", "space = flat\nt_end = 0.01\nscheme = euler_maruyama\n", "scheme"),
    ("table", '{"space": "flat", "seed": 5}', "seed"),
])
def test_a_config_file_key_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert _run([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"config error: {key} is not read by {command}\n" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


# simulate reads r0 only on the radial path and scheme only on the coordinate path (from w0), and the flat
# coordinate step is w + dw in either scheme; only the flat table has rows at finite t.
_W0 = ["--w0", "0.7,0,0,0,0,0,0,0"]


@pytest.mark.parametrize("argv,config,error", [
    (["simulate", "--space", "flat", "--t", "0.5", *_W0, "--r0", "0.5"], None, "r0 is not read by simulate from w0"),
    (["simulate", "--space", "flat", "--t", "0.5", *_W0, "--scheme", "euler_maruyama"], None,
     "scheme is not read by simulate on the flat space"),
    (["simulate", "--space", "flat", "--t", "0.5", "--r0", "1", "--scheme", "euler_maruyama"], None,
     "scheme is not read by simulate from r0"),
    *((["table", "--space", space, "--t-values", t], None, f"t_values is not read by table on the {space} space")
      for space, t in (("hyperbolic", "1e3"), ("hyperbolic", "1e5"), ("projective", "1e3"))),
    (["simulate", "--space", "projective", "--r0", "1.6", "--w0", "0.1,0,0,0,0,0,0,0"], None,
     "r0 is not read by simulate from w0"),
    (["simulate", "--t", "0.5"], "space = hyperbolic\nw0 = 0.7,0,0,0,0,0,0,0\nr0 = 1\n",
     "r0 is not read by simulate from w0"),
    (["simulate", "--t", "0.5"], '{"space": "hyperbolic", "scheme": "euler_maruyama"}',
     "scheme is not read by simulate from r0"),
    (["simulate", "--t", "0.5", *_W0], "scheme = euler_maruyama\n", "scheme is not read by simulate on the flat space"),
], ids=["flat_w0_r0", "flat_w0_scheme", "flat_r0_scheme", "hyperbolic_table_1e3", "hyperbolic_table_1e5",
        "projective_table", "projective_w0_r0", "config_w0_r0", "config_r0_scheme", "config_flat_w0_scheme"])
def test_a_key_the_path_does_not_read_exits_2(tmp_path, capsys, argv, config, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config or "")
    assert _run([*argv, *(["--config", str(cfg)] if config else []), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr() == ("", f"config error: {error}\n")
    assert not (tmp_path / "o.csv").exists()


def test_a_prefix_of_a_flag_the_subcommand_reads_is_that_flag(tmp_path, capsys):
    # argparse takes an unambiguous prefix of a flag as that flag.
    assert _run(["table", "--space", "flat", "--lambda", "2", "--t-v", "1e3", "--out", str(tmp_path / "a.csv")]) == 0
    assert _run(["table", "--space", "flat", "--lambda-norm", "2", "--t-values", "1e3",
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
    # key=value flags, so that argparse takes a leading minus sign as part of the value; only the flat table
    # reads the horizons
    _exit_0_or_2(["table", f"--space={space}", f"--r0={r0}", f"--lambda-norm={lambda_norms}",
                  *([f"--t-values={t_values}"] if space == "flat" else [])], "closed_form_value")


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
    # Each subcommand runs the drawn keys that its path reads twice: as --key value flags, and as a JSON config.
    # simulate reads r0 without a w0 start, and scheme with one off the flat space; only the flat table reads horizons.
    monkeypatch.chdir(tmp_path)
    flat = str(keys.get("space", "flat")).lower() == "flat"
    for command, extra in (("simulate", []), ("charfn", []), ("table", ["--t-values", t_values] if flat else [])):
        read = {k: v for k, v in keys.items() if k in cli._COMMANDS[command][1]}
        if command == "simulate":
            read.pop("r0" if "w0" in read else "scheme", None)
            if flat:
                read.pop("scheme", None)
        Path("run.json").write_text(json.dumps({k: _json_value(v) for k, v in read.items()}))
        _exit_0_or_2([command, *(w for k, v in read.items() for w in (_FLAGS[k], _flag_text(v))), *extra])
        _exit_0_or_2([command, "--config", "run.json", *extra])


@pytest.mark.parametrize("out", ["missing/o.csv", "."], ids=["missing_dir", "directory"])
@pytest.mark.parametrize("command", ["simulate", "charfn", "table", "verify"])
def test_bad_out_exits_2_before_the_run(tmp_path, monkeypatch, capsys, command, out):
    monkeypatch.chdir(tmp_path)
    run = [] if command == "verify" else ["--space", "hyperbolic", *_RUN[command]]
    assert _run([command, *run, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert captured.err.startswith(f"config error: out = {out!r}")
    assert not any(tmp_path.iterdir())


def test_out_name_too_long_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = "o" * 300 + ".csv"  # past the 255-byte name limit of common file systems
    assert _run(["simulate", "--space", "flat", "--t", "0.01", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: out = {out!r}: File name too long\n"
    assert not any(tmp_path.iterdir())


def test_projective_radial_start_beyond_the_chart_ceiling_runs(tmp_path, capsys):
    # 1.5 lies past the coordinate chart ceiling 1.45 but inside the radial
    # domain, which is all a radial path needs.
    for command in ("simulate", "charfn"):
        argv = [command, "--space", "projective", "--r0", "1.5", *_RUN[command], "--out", str(tmp_path / "o.csv")]
        assert _run(argv) == 0


@pytest.mark.parametrize("command", ["simulate", "charfn", "table"])
@pytest.mark.parametrize("start", [
    ["--space", "projective", "--r0", "1.570796"],  # within R_MIN of pi/2
    ["--space", "flat", "--r0", "0"],
    ["--space", "hyperbolic", "--w0", "1.0,0,0,0,0,0,0,0.5"],
    ["--space", "flat", "--w0", "20,0,0,0,0,0,0,0"],
])
def test_invalid_start_point_exits_2_from_every_subcommand(tmp_path, capsys, command, start):
    argv = [command, *start, *_RUN[command], "--out", str(tmp_path / "o.csv")]
    assert _run(argv) == 2
    # Only simulate reads w0: the radial subcommands start from r0.
    named = ("r0 = " if start[2] == "--r0" else "w0 at radius " if command == "simulate"
             else f"w0 is not read by {command}")
    assert capsys.readouterr().err.startswith(f"config error: {named}")
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


def test_a_stray_word_after_a_flag_is_refused(capsys):
    # Also after the flag of a key that the subcommand does not read.
    assert cli.main(["simulate", "--space", "flat", "--paths", "5", "junk"]) == 2
    assert capsys.readouterr().err == "config error: unrecognized arguments: junk\n"


def test_every_typed_flag_is_validated_with_the_rest(tmp_path, capsys):
    # simulate reads scheme from a w0 start only, so its 'q' is a w0; charfn's is an r0.
    common = ["--space", "moebius", "--t", "abc", "--seed", "x", "--out", str(tmp_path / "o.csv")]
    for argv, named in ((["charfn", "--paths", "1.5", "--workers", "two", "--block-size", "big", "--r0", "q"],
                         ("'1.5'", "'two'", "'big'")), (["simulate", "--scheme", "rk4", "--w0", "q"], ("'rk4'",))):
        assert cli.main([*argv, *common]) == 2
        err = capsys.readouterr().err
        assert "is not read by" not in err
        for value in ("moebius", "'abc'", "'x'", "'q'", *named):
            assert value in err
    assert not (tmp_path / "o.csv").exists()


# Config hashes these flag sets had when argparse converted the flags.
_FLAG_HASHES = [
    (["simulate", "--space", "flat", "--t", "0.1", "--dt", "0.001", "--r0", "1.0", "--seed", "3"],
     "0f05f8c9e6dd9636"),
    (["simulate", "--space", "projective", "--t", "0.05", "--dt", "0.001", "--w0", "0.5,0,0,0,0,0,0,0",
      "--seed", "4", "--scheme", "euler_maruyama"], "f2ce3921b25b7e50"),
    (["charfn", "--space", "hyperbolic", "--t", "2", "--dt", "0.01", "--paths", "300", "--block-size", "100",
      "--r0", "1.0", "--lambda-norm", "0.5,1", "--seed", "6", "--workers", "1"], "e44bee3e2c1184cd"),
    # An off-flat table without --t-values still hashes the default horizons.
    (["table", "--space", "hyperbolic", "--r0", "100", "--lambda-norm", "1e100"], "7d8d0acd9025320f"),
]


@pytest.mark.parametrize("argv,config_hash", _FLAG_HASHES, ids=["radial", "coordinate", "charfn", "table"])
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
    assert "config error: OCTOWIND_WORKERS = 'two' is not an integer" in capsys.readouterr().err
    for env in ("0", "-3"):  # refused as --workers 0 is, naming the variable
        monkeypatch.setenv("OCTOWIND_WORKERS", env)
        assert _run(argv + ["--out", str(tmp_path / "bad.csv")]) == 2
        assert f"config error: OCTOWIND_WORKERS = {env} violates OCTOWIND_WORKERS >= 1" in capsys.readouterr().err
    assert _run(argv + ["--workers", "0", "--out", str(tmp_path / "bad.csv")]) == 2
    assert "config error: workers = 0 violates workers >= 1" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--space", "flat", "--t", "0.01", "--r0", "1"],
    ["table", "--space", "flat", "--t-values", "1e3"],
], ids=["simulate", "table"])
def test_a_subcommand_without_a_pool_ignores_octowind_workers(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.delenv("OCTOWIND_WORKERS", raising=False)
    assert _run([*argv, "--out", str(tmp_path / "unset.csv")]) == 0
    for env in ("two", "0"):
        monkeypatch.setenv("OCTOWIND_WORKERS", env)
        assert _run([*argv, "--out", str(tmp_path / f"{env}.csv")]) == 0
        assert (tmp_path / f"{env}.csv").read_bytes() == (tmp_path / "unset.csv").read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.access("/dev/full", os.W_OK), reason="needs a writable /dev/full")
@pytest.mark.parametrize("argv", [
    ["simulate", "--space", "flat", "--t", "0.01", "--r0", "1"],
    ["verify", "--suite", "specfun"],
], ids=["simulate", "verify"])
def test_a_failed_out_write_is_one_error_line(capsys, argv):
    # /dev/full exists and is writable, so the check before the run passes it, whoever runs this: the directory
    # /dev need not be writable.
    assert _run([*argv, "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err == "error: out = '/dev/full': No space left on device\n"


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root may write a read-only file")
def test_a_read_only_out_file_exits_2_before_the_run(tmp_path, capsys):
    out = tmp_path / "o.csv"
    out.write_text("old\n")
    out.chmod(0o444)
    assert _run(["table", "--space", "flat", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: out = {str(out)!r} is not writable\n"
    assert out.read_text() == "old\n"


def test_a_closed_stdout_ends_quietly(tmp_path):
    # The reader closes the pipe after the first line.  The 20,001 rows (about 1 MB) that follow are far more
    # than a pipe holds, so the writer meets the closed pipe however fast it runs.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "octowind.cli", "simulate", "--space", "flat", "--t", "20",
                             "--r0", "1"], cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"radial path: ")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


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
