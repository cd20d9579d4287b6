"""Configuration parsing and the command-line interface.

CLI invocations go through click's CliRunner; only the fast subcommands
are exercised here (the slow pipelines have their own module tests).
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from boutroux.cli import _parse_grid, main
from boutroux.config import RunConfig, load_config, parse_config
from boutroux.errors import ConfigError


class TestConfig:
    def test_defaults_valid(self):
        cfg = RunConfig().validate()
        assert cfg.precision == 30

    def test_parse_round_trip(self):
        text = "# comment\nprecision = 40  # digits\n\n"
        cfg = parse_config(text)
        assert cfg.precision == 40
        assert cfg.ode_tol == RunConfig().ode_tol  # untouched default
        cfg = parse_config("ode_tol = 1e-10\n")
        assert cfg.ode_tol == 1e-10
        assert cfg.precision == RunConfig().precision

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("presicion = 40\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("precision = 30\nprecision = 40\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("precision 40\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("ode_tol = tiny\n")

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config("ode_tol = -1e-12\n")
        with pytest.raises(ConfigError, match="at least 15"):
            parse_config("precision = 10\n")

    def test_hash_stable_and_sensitive(self):
        a = RunConfig().config_hash()
        b = RunConfig().config_hash()
        c = RunConfig(precision=31).config_hash()
        assert a == b
        assert a != c
        assert len(a) == 16

    def test_load_config(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("ode_tol = 1e-9\n")
        assert load_config(p).ode_tol == 1e-9


@pytest.fixture
def runner():
    return CliRunner()


class TestCli:
    def test_coeffs_json(self, runner):
        res = runner.invoke(main, ["coeffs", "--order", "12"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert "config_hash" in doc
        first = doc["series"][0]
        assert first["k"] == 4
        assert (first["numerator"], first["denominator"]) == ("-392", "625")
        assert all(row["numerator"] == "0"
                   for row in doc["series"] if row["k"] % 2 == 1)

    def test_sum_csv_header_and_determinism(self, runner):
        args = ["sum", "--C", "0", "--grid", "10:14:3",
                "--phi", str(math.pi / 4)]
        r1 = runner.invoke(main, args)
        r2 = runner.invoke(main, args)
        assert r1.exit_code == 0
        assert r1.output == r2.output  # byte-identical
        lines = r1.output.splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "abs_x,h_re,h_im"
        assert len(lines) == 5

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "c.json"
        res = runner.invoke(main, ["--out", str(out),
                                   "coeffs", "--order", "10"])
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["series"][0]["denominator"] == "625"

    def test_config_flag_changes_hash(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("precision = 25\n")
        r1 = runner.invoke(main, ["coeffs", "--order", "8"])
        r2 = runner.invoke(main, ["--config", str(cfg),
                                  "coeffs", "--order", "8"])
        assert r2.exit_code == 0
        h1 = json.loads(r1.output)["config_hash"]
        h2 = json.loads(r2.output)["config_hash"]
        assert h1 != h2

    def test_error_json_and_exit_code(self, runner):
        # phi = 0 runs the Laplace ray through the Borel singularities
        res = runner.invoke(main, ["sum", "--C", "1",
                                   "--grid", "10:14:3", "--phi", "0"])
        assert res.exit_code == 2
        doc = json.loads(res.output)
        assert doc["error"] == "StokesDirectionError"
        assert "message" in doc

    def test_bad_config_reported(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        res = runner.invoke(main, ["--config", str(cfg),
                                   "coeffs", "--order", "8"])
        assert res.exit_code == 2
        assert json.loads(res.output)["error"] == "ConfigError"

    def test_poles_csv(self, runner):
        res = runner.invoke(main, ["poles", "--C", "1", "--n", "5"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[1] == ("n,predicted_re,predicted_im,"
                            "detected_re,detected_im,gap")
        n, pre, pim, dre, dim, gap = lines[2].split(",")
        assert n == "5"
        assert float(gap) < 1e-2

    def test_verify_has_no_full_flag(self, runner):
        """The pytest run behind ``verify --full`` is gone; the flag is a
        usage error, not a silent fallback to the fast checks."""
        res = runner.invoke(main, ["verify", "--full"])
        assert res.exit_code == 2
        assert "No such option" in res.output

    @pytest.mark.parametrize("args", [
        ["poles", "--C", "1e300", "--n", "5"],
        ["integrate", "--C", "1e300"],
        ["poles", "--C", "1e-300", "--n", "5"],
    ])
    def test_seed_out_of_range_is_reported(self, runner, args):
        """A C so large or small that the far-field seed overflows complex
        double is reported as JSON with exit code 2, not a traceback."""
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert json.loads(res.output)["error"] == "NonConvergentSumError"

    @pytest.mark.parametrize("args, option", [
        (["sum", "--grid", "20,30"], "--grid"),
        (["sum", "--C", "1,2,3"], "--C"),
        (["poles", "--n", "5..x"], "--n"),
        (["invariants", "--s0", "-0.1,i"], "--s0"),
        (["sum", "--grid", "nan:20:3"], "--grid"),
        (["sum", "--grid", "8:20:0"], "--grid"),
        (["integrate", "--radius", "0"], "--radius"),
        (["integrate", "--radius", "nan"], "--radius"),
        (["invariants", "--x0", "nan"], "--x0"),
        (["invariants", "--x0", "0"], "--x0"),
        (["poles", "--C", "0"], "--C"),
        (["poles", "--n", "0"], "--n"),
        (["integrate", "--radius", "1e300"], "--radius"),
        (["invariants", "--steps", "-1"], "--steps"),
        (["invariants", "--x0", "1e6"], "--x0"),
        (["invariants", "--x0", "1e300"], "--x0"),
        (["invariants", "--x0", "10"], "--x0"),
        (["invariants", "--steps", "501"], "--steps"),
        (["invariants", "--s0", "-2"], "--s0"),
    ])
    def test_malformed_option_is_usage_error(self, runner, args, option):
        """A malformed value ends in click's usage error naming the
        option, with a nonzero exit code and no traceback."""
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Usage:" in res.output
        assert "Invalid value for '%s'" % option in res.output
        assert "Traceback" not in res.output


@pytest.mark.parametrize("text", ["8:20:13", "10:14:3", "0.1:0.7:7",
                                  "-3:5.5:11", "8:8:1", "8:8:4", "20:8:5",
                                  "1e-3:1:1000", "0.3:1e5:97"])
def test_grid_matches_linspace(text):
    """The grid of ``sum --grid a:b:n`` is numpy's linspace(a, b, n), value
    for value, so the CSV output does not move."""
    a, b, n = text.split(":")
    assert _parse_grid(None, None, text) == \
        np.linspace(float(a), float(b), int(n)).tolist()
