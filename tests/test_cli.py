"""CLI harness: config validation, artifacts, reproducibility, verify suites."""

import json

import numpy as np
import pytest

from octowind import cli
from octowind.errors import ConfigError
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
])
def test_invalid_cli_input_exits_2(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    assert _run([*argv, "--out", "o.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert not (tmp_path / "o.csv").exists()


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


def test_workers_default_from_environment(tmp_path, monkeypatch, capsys):
    argv = ["charfn", "--space", "flat", "--t", "0.05", "--paths", "300", "--block-size", "100",
            "--r0", "1.0", "--seed", "6"]
    monkeypatch.delenv("OCTOWIND_WORKERS", raising=False)
    assert _run(argv + ["--workers", "2", "--out", str(tmp_path / "flag.csv")]) == 0
    monkeypatch.setenv("OCTOWIND_WORKERS", "2")
    assert _run(argv + ["--out", str(tmp_path / "env.csv")]) == 0
    assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    monkeypatch.setenv("OCTOWIND_WORKERS", "two")
    assert _run(argv + ["--out", str(tmp_path / "bad.csv")]) == 2
    assert "OCTOWIND_WORKERS" in capsys.readouterr().err


def test_verify_all_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert _run(["verify", "--suite", "all", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert set(report["suites"]) == {"algebra", "engine", "specfun"}
    out = capsys.readouterr().out
    assert "norm_multiplicativity: pass" in out
