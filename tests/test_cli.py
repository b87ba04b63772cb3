import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from hybridavg import __version__, cli, solver
from hybridavg.cli import FIG1_CONFIG, main
from hybridavg.config import as_document
from hybridavg.core import JumpNoise

from conftest import arcs_equal

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src"

SMALL_ACTUATOR = """\
[system]
kind = jammed-actuator
period = 1.0
jam_prob = {p}
epsilon = 0.05

[simulate]
n_paths = 10
x0 = -2 2
r0 = 0
tau0 = 0
t_max = 3.5
j_max = 100

[average]
x_values = -2 -1 1 2
r_points = 2
tau_points = 128
T_values = {t_values}
T_long_periods = 20
favg = -x_1

[certify]
V = pow(x_1, 2)
radial_points = 9

[recur]
radius = 0.3
rho = 0.05
R = 5.0
n_paths = 40
t_max = 6.0

[sweep]
eps_values = {eps_values}
radius_max = 2.0
rho = 0.05
R = 5.0
n_paths = 40
t_max = 6.0
"""

TAU_FREE = """\
[system]
kind = custom
state_dim = 1
aux_dim = 1
noise_dim = 1
epsilon = 0.05
flow_x = -x_1
flow_r = 1
jump_x = x_1
jump_r = 0
flow_set = box 0 1
jump_set = point 1

[noise]
kind = finite
values = 0
probs = 1

[average]
x_values = -2 -1 1 2
tau_points = 64
T_values = 1.0 3.0 7.0
favg = -x_1
"""


def with_line(text, section, line):
    """Config text with line set in [section], in place of that key's own line."""
    head, header, rest = text.partition(f"[{section}]\n")
    body, next_header, tail = rest.partition("\n[")
    body = re.sub(rf"(?m)^{line.split(' = ')[0]} = .*\n", "", body)
    return head + header + line + "\n" + body + next_header + tail


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture()
def actuator_cfg(tmp_path):
    return write_cfg(tmp_path, SMALL_ACTUATOR.format(
        p=0.1, t_values="3.141592653589793 6.283185307179586",
        eps_values="0.1 0.05"))


class TestSimulateCommand:
    def test_csv_structure(self, actuator_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", actuator_cfg, "--seed", "3",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "simulate.csv")
        assert header == ["path_id", "t", "j", "x_1", "r_1", "tau", "event"]
        ids = {row[0] for row in rows}
        assert len(ids) == 10
        # j strictly increases at jump rows within each path
        for pid in ids:
            j_at_jumps = [int(row[2]) for row in rows if row[0] == pid and row[-1] == "jump"]
            assert j_at_jumps == sorted(j_at_jumps)
            assert len(set(j_at_jumps)) == len(j_at_jumps)
            events = [row[-1] for row in rows if row[0] == pid]
            assert events[-1] == "terminal"

    def test_rerun_is_byte_identical(self, actuator_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", actuator_cfg, "--seed", "5", "--out", str(out_a)])
        main(["simulate", "--config", actuator_cfg, "--seed", "5", "--out", str(out_b)])
        assert (out_a / "simulate.csv").read_bytes() == (out_b / "simulate.csv").read_bytes()

    def test_zero_paths_is_config_error(self, actuator_cfg, tmp_path):
        code = main(["simulate", "--config", actuator_cfg, "--paths", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_config_is_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_expression_config_matches_the_built_in_actuator(self, tmp_path):
        outs = []
        for name in ("actuator.cfg", "actuator_expr.cfg"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(CONFIGS / name), "--seed", "3",
                         "--paths", "3", "--t-max", "1", "--out", str(out)]) == 0
            outs.append((out / "simulate.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_lists_outputs(self, actuator_cfg, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--config", actuator_cfg, "--seed", "3", "--out", str(out)])
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"] == ["simulate.csv"]
        assert manifest["seed_base"] == 3
        assert len(manifest["config_digest"]) == 64


class TestAverageCommand:
    def test_gamma_csv_and_report(self, actuator_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["average", "--config", actuator_cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "average_gamma.csv")
        assert header[:4] == ["T", "gamma_raw", "gamma_envelope", "jac_gamma_raw"]
        by_T = {float(r[0]): r for r in rows}
        # envelope at a full period is quadrature-floor small
        assert float(by_T[2 * math.pi][2]) <= 1e-6
        report = (out / "average_report.txt").read_text()
        assert "max nodal deviation" in report
        nodal = float(report.split("max nodal deviation from closed form: ")[1].split()[0])
        assert nodal <= 1e-6

    def test_each_x_point_is_averaged_once(self, actuator_cfg, tmp_path, monkeypatch):
        # the x points once repeated for every r node, then met r_pts again
        seen = []
        estimate_gamma = cli.estimate_gamma

        def recording(spec, f_ave, x_pts, r_pts, *args, **kw):
            seen.append(np.array(x_pts))
            return estimate_gamma(spec, f_ave, x_pts, r_pts, *args, **kw)

        monkeypatch.setattr(cli, "estimate_gamma", recording)
        assert main(["average", "--config", actuator_cfg, "--out", str(tmp_path / "o")]) == 0
        (x_pts,) = seen
        assert x_pts.tolist() == [[-2.0], [-1.0], [1.0], [2.0]]

    def test_tau_independent_gamma_is_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, TAU_FREE)
        out = tmp_path / "out"
        assert main(["average", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "average_gamma.csv")
        assert all(float(r[1]) <= 1e-12 for r in rows)

    @pytest.mark.parametrize("line, key", [
        ("T_min = 0", "T_min"), ("T_values = 1 0", "T_values"), ("T_min = -1", "T_min"),
        ("T_values = 4 1 2", "T_values"), ("x_values = 0", "x_values"),
        ("r_points = 0", "r_points"), ("tau_points = 0", "tau_points"),
        ("T_long_periods = 0", "T_long_periods"), ("T_long_periods = 1e308", "T_long_periods"),
        # both negative once gave a positive long window and exit 0
        ("T_long_periods = -20\ntau_period = -6.283185307179586", "tau_period")])
    def test_bad_grid_is_a_config_error_naming_its_key(self, tmp_path, capsys, line, key):
        # each once crashed with a traceback, ran negative windows, or took the
        # gamma envelope in list order
        text = SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1")
        text = text.replace("T_values = 3.14\n", "")
        cfg = write_cfg(tmp_path, re.sub(rf"(?m)^{line.split()[0]} = .*\n", "",
                                         text).replace("[average]\n", f"[average]\n{line}\n"))
        assert main(["average", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [average] {key}") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new", [
        ("T_max = 12.566370614359172", "T_max = 1e308"),
        ("T_long_periods = 20", "T_long_periods = 1e306")])
    def test_window_too_long_to_sample_is_one_error_line(self, tmp_path, capsys, old, new):
        # each once ended in an OverflowError traceback
        text = (CONFIGS / "actuator.cfg").read_text(encoding="utf-8")
        assert old in text
        cfg = write_cfg(tmp_path, text.replace(old, new))
        assert main(["average", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: window length T = \S+ is too long to sample\n", err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, xs, mean", [
        pytest.param(SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1"),
                     [-2.0, -2.0, -1.0, -1.0, 1.0, 1.0, 2.0, 2.0], lambda x: -x,
                     id="actuator"),
        # a curved flow on a grid holding 0: its average map is the long-window
        # mean, not an interpolant of the grid
        pytest.param(with_line((CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8")
                               .replace("flow_x = -x_1*(1 + sin(tau))",
                                        "flow_x = -x_1*x_1*x_1*(1 + sin(tau))"),
                               "average", "x_values = -3 0 3"),
                     [-3.0] * 3 + [0.0] * 3 + [3.0] * 3, lambda x: -x ** 3, id="cubic")])
    def test_without_favg_the_average_is_the_table(self, tmp_path, text, xs, mean):
        cfg = write_cfg(tmp_path, text.replace("favg = -x_1\n", ""))
        out = tmp_path / "out"
        assert main(["average", "--config", cfg, "--out", str(out)]) == 0
        assert "registered closed form: no" in (out / "average_report.txt").read_text()
        _, rows = read_csv(out / "average_favg.csv")
        assert [float(x) for x, _, _ in rows] == xs
        assert all(float(fx) == pytest.approx(mean(float(x)), abs=1e-9) for x, _, fx in rows)

    @pytest.mark.parametrize("favg", ["pow(x_1, 0.5)", "x_1/0"])
    def test_non_finite_favg_is_exit_one_naming_favg(self, tmp_path, capsys, favg):
        # pow once printed "max nodal deviation: nan" and x_1/0 wrote
        # jac_gamma_raw = -1.0, both with exit 0
        text = SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1")
        cfg = write_cfg(tmp_path, text.replace("favg = -x_1\n", f"favg = {favg}\n"))
        assert main(["average", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: deviation of favg from the window mean is non-finite")
        assert "at x = [-2.0], r = [" in err
        assert not (tmp_path / "o").exists()

    def test_jacobian_flag_lists_the_windows_above_the_gamma_envelope(self, tmp_path):
        # the window mean of this flow is -x_1 (favg passes), but its residual
        # -x_1**2 sin(tau) has twice the x-slope of its size at |x| = 1
        text = (CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, text.replace("flow_x = -x_1*(1 + sin(tau))",
                                               "flow_x = -x_1 - x_1*x_1*sin(tau)"))
        out = tmp_path / "out"
        assert main(["average", "--config", cfg, "--out", str(out)]) == 0
        prefix = "jacobian residual exceeds state gamma envelope at T values: "
        (line,) = [ln for ln in (out / "average_report.txt").read_text().splitlines()
                   if ln.startswith(prefix)]
        flagged = line[len(prefix):].split(", ")
        header, rows = read_csv(out / "average_gamma.csv")
        T, env, jac = (header.index(k) for k in ("T", "gamma_envelope", "jac_gamma_raw"))
        want = [r[T] for r in rows if float(r[jac]) > float(r[env]) * (1 + 1e-6) + 1e-9]
        assert want and flagged == want

    def test_non_finite_window_mean_names_f_and_its_point(self, tmp_path, capsys):
        # once "flow map returned a non-finite value inside the window", naming no point
        text = (CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, text.replace("flow_x = -x_1*(1 + sin(tau))",
                                               "flow_x = pow(x_1, 0.5)*(1 + sin(tau))"))
        assert main(["average", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: map 'f' returned a non-finite value (nan) inside the window at "
            "x = [-3.0], r = [0.0], tau = 0.0\n")
        assert not (tmp_path / "o").exists()


class TestCertifyCommand:
    def test_pass_is_exit_zero(self, actuator_cfg, tmp_path):
        assert main(["certify", "--config", actuator_cfg,
                     "--out", str(tmp_path / "o")]) == 0
        report = (tmp_path / "o" / "certify_report.txt").read_text()
        assert "PASS" in report

    def test_fail_is_exit_two(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_ACTUATOR.format(
            p=0.3, t_values="3.14", eps_values="0.1"))
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_nan_V_is_exit_two_with_a_non_finite_witness(self, tmp_path):
        # the square root is NaN on the r = 0.5 grid row only
        text = SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1").replace(
            "V = pow(x_1, 2)\n",
            "V = pow(x_1, 2) + 0 * pow((r_1 - 0.3) * (r_1 - 0.7), 0.5)\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        report = (tmp_path / "o" / "certify_report.txt").read_text()
        assert "verdict: FAIL" in report
        assert "      witness: ((0.001,), (0.5,), nan)" in report.splitlines()

    @pytest.mark.parametrize("old, new, error", [
        pytest.param("V = pow(x_1, 2)\n", "", "missing [certify] V", id="V-missing"),
        pytest.param("V = pow(x_1, 2)\n", "V = pow(x_1, 2); x_1\n",
                     "[certify] V: expected 1 expression(s) separated by ';', got 2",
                     id="V-two"),
        pytest.param("V = pow(x_1, 2)\n", "V = tau\n",
                     "[certify] V: line 1, column 1: unknown symbol 'tau'", id="V-tau"),
        pytest.param("favg = -x_1\n", "favg = -x_1; -x_1\n",
                     "[average] favg: expected 1 expression(s) separated by ';', got 2",
                     id="favg-two"),
        pytest.param("favg = -x_1\n", "",
                     "certification needs [average] favg (registered average map)",
                     id="favg-missing"),
        # a continuation line is line 2 of the key's text
        pytest.param("V = pow(x_1, 2)\n", "V = pow(x_1, 2) +\n    tau\n",
                     "[certify] V: line 2, column 1: unknown symbol 'tau'", id="V-line-2")])
    def test_bad_expression_key_is_one_config_error_line(self, tmp_path, capsys, old, new,
                                                         error):
        # every expression key is read, counted and compiled by one helper,
        # so every key reports in one wording
        text = SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1")
        cfg = write_cfg(tmp_path, text.replace(old, new))
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {error}\n"
        # the runner creates --out only after the command has succeeded
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_radius_is_exit_one(self, tmp_path, capsys, value):
        text = SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1")
        text = text.replace("radial_points = 9\n", f"radial_points = 9\nradius_min = {value}\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"config error: [certify] radius_min: not a finite number: '{value}'\n")


    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_bad_safety_margin_flag_is_exit_one(self, actuator_cfg, tmp_path, capsys, value):
        assert main(["certify", "--config", actuator_cfg, "--safety-margin", value,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: --safety-margin: must be >= 0, got -0.1\n"
                       if value == "-0.1" else
                       f"config error: --safety-margin: not a finite number: '{value}'\n")
        assert not (tmp_path / "o").exists()


#: the shipped expression actuator with a flow whose true average is +x,
#: while its registered favg stays -x_1
WRONG_FAVG = (CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8").replace(
    "flow_x = -x_1*(1 + sin(tau))", "flow_x = x_1*(1 + sin(tau))")
WRONG_FAVG_LINE = ("[average] favg: deviation 6.0 from the window mean at x = [-3.0], "
                   "r = [0.0] exceeds the tolerance 3e-06 "
                   "(1e-06 * max(1, max |window mean|))")


class TestFavgCheck:
    def test_certify_on_a_wrong_favg_is_exit_two_with_its_witness(
            self, tmp_path, capsys, monkeypatch):
        # certify once built its average system without the check and passed
        # with lambda = 0.225
        def certified(*args, **kwargs):
            raise AssertionError("a certificate was computed")

        monkeypatch.setattr(cli, "foster_certificate", certified)
        cfg = write_cfg(tmp_path, WRONG_FAVG)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().out == WRONG_FAVG_LINE + "\n"
        assert (tmp_path / "o" / "certify_report.txt").read_text() == WRONG_FAVG_LINE + "\n"

    def test_average_on_a_wrong_favg_is_exit_two_and_writes_its_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, WRONG_FAVG)
        out = tmp_path / "o"
        assert main(["average", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().out == WRONG_FAVG_LINE + "\n"
        report = (out / "average_report.txt").read_text().splitlines()
        assert "max nodal deviation from closed form: 6.0" in report
        assert report[-1] == WRONG_FAVG_LINE
        assert {f.name for f in out.iterdir()} == {
            "average_gamma.csv", "average_favg.csv", "average_report.txt",
            "average_manifest.json"}

    @pytest.mark.parametrize("command", ["average", "certify"])
    def test_a_long_window_shorter_than_one_period_is_a_config_error(
            self, tmp_path, capsys, command):
        # the true average of -x_1*(1 + cos(tau)) is -x_1; a window of 1e-308
        # periods once sampled f at tau ~ 0 only, read -2*x_1 there and passed
        text = (CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8")
        text = (text.replace("flow_x = -x_1*(1 + sin(tau))", "flow_x = -x_1*(1 + cos(tau))")
                .replace("favg = -x_1", "favg = -2*x_1"))
        cfg = write_cfg(tmp_path, with_line(text, "average", "T_long_periods = 1e-308"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "config error: [average] T_long_periods: must be >= 1, got 1e-308\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, name", [
        *(pytest.param("certify", name, id=name)
          for name in ("actuator.cfg", "actuator_expr.cfg", "es.cfg")),
        pytest.param("average", "es.cfg", id="average-es.cfg")])
    def test_shipped_configs_pass(self, tmp_path, capsys, command, name):
        # average prints nothing when its favg check passes
        assert main([command, "--config", str(CONFIGS / name),
                     "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out if command == "certify" else out == ""

    def test_tolerance_scales_with_the_largest_window_mean(self, tmp_path, capsys):
        # favg = -x_1 + 1e-6 deviates by 1e-6 everywhere: within 1e-6 * max(1, 3)
        text = (CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, text.replace("favg = -x_1", "favg = -x_1 + 0.000001"))
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        cfg = write_cfg(tmp_path, text.replace("favg = -x_1", "favg = -x_1 + 0.00001"))
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "[average] favg: deviation 1.000000000")


class TestRecurCommand:
    def test_summary_and_paths(self, actuator_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["recur", "--config", actuator_cfg, "--seed", "2",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "recur_summary.csv")
        summary = dict(zip(header, rows[0]))
        assert 0.0 <= float(summary["hit_fraction"]) <= 1.0
        _, paths = read_csv(out / "recur_paths.csv")
        assert len(paths) == 40

    def test_covering_radius_gives_zero_budget(self, actuator_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["recur", "--config", actuator_cfg, "--radius", "10.0",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "recur_summary.csv")
        summary = dict(zip(header, rows[0]))
        assert float(summary["hit_fraction"]) == 1.0
        assert float(summary["tau_hat"]) == 0.0

    def test_zero_horizon_counts_interior_starts(self, actuator_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["recur", "--config", actuator_cfg, "--t-max", "0",
                     "--radius", "2.5", "--out", str(out)]) == 0
        header, rows = read_csv(out / "recur_summary.csv")
        summary = dict(zip(header, rows[0]))
        # every path starts at |x| = 2 < 2.5: all inside, budget zero
        assert float(summary["hit_fraction"]) == 1.0
        assert float(summary["tau_hat"]) == 0.0

    @pytest.mark.parametrize("flag", ["--radius", "--bound"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_radius_or_bound_is_error(self, actuator_cfg, tmp_path, capsys,
                                                 flag, value):
        assert main(["recur", "--config", actuator_cfg, "--t-max", "0", flag, value,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"config error: {flag}: not a finite number: '{value}'\n")
        assert not (tmp_path / "o").exists()


class TestSweepCommand:
    def test_rows_and_summary(self, actuator_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", actuator_cfg, "--seed", "2",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["epsilon", "certified_radius", "hit_fraction",
                          "n_paths", "note"]
        assert len(rows) == 2
        summary = (out / "sweep_summary.txt").read_text()
        assert "nonincreasing" in summary

    def test_single_epsilon_single_row(self, actuator_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", actuator_cfg, "--eps", "0.05",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1


class TestFig1Command:
    def test_trajectory_count_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["fig1", "--paths", "8", "--seed", "4", "--out", str(out_a)]) == 0
        assert main(["fig1", "--paths", "8", "--seed", "4", "--out", str(out_b)]) == 0
        header, rows = read_csv(out_a / "fig1.csv")
        assert header == ["path_id", "kind", "t", "j", "x_1", "r_1", "tau", "event"]
        ids = {row[0] for row in rows}
        assert len(ids) == 9  # 8 jammed + 1 nominal
        kinds = {row[1] for row in rows}
        assert kinds == {"jammed", "nominal"}
        assert (out_a / "fig1.svg").read_bytes() == (out_b / "fig1.svg").read_bytes()
        assert (out_a / "fig1.csv").read_bytes() == (out_b / "fig1.csv").read_bytes()

    def test_nominal_member_is_its_lone_run_and_the_rest_the_plain_ensemble(
            self, tmp_path, monkeypatch):
        arcs = []
        recording(monkeypatch, "simulate_ensemble", arcs)
        assert main(["fig1", "--paths", "4", "--seed", "4", "--out", str(tmp_path)]) == 0
        *ensemble, nominal = arcs
        doc = dataclasses.replace(as_document(FIG1_CONFIG), flags={
            "n_paths": ("--paths", "4"), "seed": ("--seed", "4")})
        spec = cli.load_system(doc)
        inits, n_paths, horizon, cfg, seed = cli._ensemble_inputs(doc, spec, "simulate")
        unit_gain = dataclasses.replace(spec, noise=JumpNoise.finite([[0.25]], [1.0]))
        want = [*solver.simulate_ensemble(spec, inits, n_paths, seed, horizon, cfg),
                solver.simulate_path(unit_gain, inits[1], seed, horizon, cfg)]
        assert len(ensemble) == 4 and len(nominal.jumps) > 1
        for got, lone in zip([*ensemble, nominal], want):
            assert arcs_equal(got, lone)
            for a, b in zip(got.jumps, lone.jumps):
                assert np.array_equal(a.x_pre, b.x_pre) and np.array_equal(a.r_pre, b.r_pre)
                assert a.tau == b.tau

    def test_nominal_path_decays_into_the_dither_ball(self, tmp_path):
        out = tmp_path / "out"
        main(["fig1", "--paths", "4", "--seed", "4", "--out", str(out)])
        _, rows = read_csv(out / "fig1.csv")
        nominal = [row for row in rows if row[1] == "nominal"]
        jumps = [row for row in nominal if row[-1] == "jump"]
        assert jumps, "nominal path still resets its clock"
        # unit-gain jumps: the per-period envelope decreases until the state
        # lives inside the delta = 0.1 dither ball
        delta = 0.1
        env = [abs(float(row[4])) for row in jumps]
        above = [e for e in env if e > delta / 2]
        assert all(a > b for a, b in zip(above, above[1:]))
        assert env[-1] < delta
        assert max(abs(float(row[4])) for row in nominal) <= 2.0 + 1e-9

    def test_svg_is_valid_static_markup(self, tmp_path):
        out = tmp_path / "out"
        main(["fig1", "--paths", "3", "--seed", "1", "--out", str(out)])
        svg = (out / "fig1.svg").read_text()
        assert svg.startswith("<?xml")
        assert 'version="1.1"' in svg
        assert svg.rstrip().endswith("</svg>")

    def test_default_run_emits_101_trajectories(self, tmp_path):
        out = tmp_path / "out"
        assert main(["fig1", "--seed", "0", "--out", str(out)]) == 0
        _, rows = read_csv(out / "fig1.csv")
        ids = {row[0] for row in rows}
        assert len(ids) == 101  # 100 jammed + 1 nominal
        halves = {row[4][0] == "-" for row in rows if row[3] == "0" and row[2] == "0.0"}
        assert halves == {True, False}  # starts drawn from both -2 and +2


#: n = 2, p = 2, and jump_r reads v: lockstep rows share every column until
#: the first jump, whose draws split them into groups with distinct r rows
SPLITTING_PLANAR = """\
[system]
kind = custom
state_dim = 2
aux_dim = 2
noise_dim = 1
epsilon = 0.05
flow_x = -x_1 + x_2*sin(tau); -x_2
flow_r = 1; 0
jump_x = (0.5 + v)*x_1; x_2
jump_r = 0; 0.5*v
flow_set = box 0 1 0 1
jump_set = box 1 1 0 1

[noise]
kind = finite
values = 0; 1
probs = 0.5 0.5

[simulate]
n_paths = 6
x0 = 1 -2; -1 0.5
r0 = 0 0
tau0 = 0
t_max = 2.5
j_max = 100
"""


def naive_arc_lines(arcs, stride=1, kinds=None):
    """The CSV lines of arcs: repr of every float, row by row and path by path."""
    for pid, arc in enumerate(arcs):
        head = [str(pid)] + ([kinds[pid]] if kinds else [])
        row = None
        for si, seg in enumerate(arc.segments):
            count = len(seg.t)
            keep = [i for i in range(count) if i % stride == 0 or i == count - 1]
            for k, i in enumerate(keep):
                row = [*head, repr(float(seg.t[i])), str(seg.j),
                       *(repr(float(c)) for c in (*seg.x[i], *seg.r[i], seg.tau[i]))]
                yield ",".join(row + ["jump" if k == 0 and si > 0 else "flow"])
        if row is not None:
            yield ",".join(row + ["terminal"])


def assert_csv_is(path, header, lines):
    """The file at path is header and lines, each ended by a newline, byte for byte."""
    got = path.read_bytes().decode("utf-8").split("\n")
    want = [header, *lines, ""]
    bad = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"line {bad + 1}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


def recording(monkeypatch, name, arcs):
    """Patch cli.<name> to append what it returns (one arc or a list) to arcs."""
    run = getattr(cli, name)

    def record(*args, **kwargs):
        result = run(*args, **kwargs)
        arcs.extend(result if isinstance(result, list) else [result])
        return result

    monkeypatch.setattr(cli, name, record)


def shared(arcs, column):
    """How many segments hold a column array that another path's segment holds too."""
    owners = {}
    for pid, arc in enumerate(arcs):
        for seg in arc.segments:
            owners.setdefault(id(getattr(seg, column)), set()).add(pid)
    return sum(len(pids) for pids in owners.values() if len(pids) > 1)


class TestSharedColumnsFormattedOnce:
    """Lockstep members share t, r and tau arrays, which are formatted once per
    command; the CSV must equal a per-path repr of every float."""

    def run_simulate(self, tmp_path, monkeypatch, cfg, *flags):
        arcs = []
        recording(monkeypatch, "simulate_ensemble", arcs)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--seed", "3", *flags,
                     "--out", str(out)]) == 0
        return arcs, out / "simulate.csv"

    def test_es_members_share_every_column(self, tmp_path, monkeypatch):
        arcs, csv = self.run_simulate(
            tmp_path, monkeypatch, str(CONFIGS / "es.cfg"), "--paths", "6", "--t-max", "2")
        assert len(arcs) == 6
        assert all(shared(arcs, c) == sum(len(a.segments) for a in arcs)
                   for c in ("t", "r", "tau"))
        assert_csv_is(csv, "path_id,t,j,x_1,r_1,tau,event", naive_arc_lines(arcs))

    def test_groups_split_by_a_jump_and_two_columns_each(self, tmp_path, monkeypatch):
        arcs, csv = self.run_simulate(tmp_path, monkeypatch, write_cfg(tmp_path, SPLITTING_PLANAR))
        # one shared r array before the first jump, one per group after it
        assert len({id(arc.segments[0].r) for arc in arcs}) == 1
        assert len({id(arc.segments[-1].r) for arc in arcs}) >= 2
        assert {arc.segments[-1].r[0, 1] for arc in arcs} == {0.0, 0.5}
        assert_csv_is(csv, "path_id,t,j,x_1,x_2,r_1,r_2,tau,event", naive_arc_lines(arcs))

    def test_fig1_strided_lines(self, tmp_path, monkeypatch):
        arcs = []
        recording(monkeypatch, "simulate_ensemble", arcs)
        recording(monkeypatch, "simulate_path", arcs)
        out = tmp_path / "out"
        assert main(["fig1", "--paths", "4", "--seed", "4", "--out", str(out)]) == 0
        assert len(arcs) == 5
        assert shared(arcs, "t") > 0
        assert any((len(seg.t) - 1) % 25 for arc in arcs for seg in arc.segments)
        assert_csv_is(out / "fig1.csv", "path_id,kind,t,j,x_1,r_1,tau,event",
                      naive_arc_lines(arcs, 25, ["jammed"] * 4 + ["nominal"]))


OVERFLOWING_FLOW = TAU_FREE.replace("flow_x = -x_1", "flow_x = pow(x_1, 2000)") + """
[simulate]
n_paths = 3
x0 = 2
r0 = 0
tau0 = 0
t_max = 1.0
j_max = 10
"""


class TestExitCodes:
    def test_map_evaluation_error_is_one_line_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OVERFLOWING_FLOW)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", cfg, "--seed", "7",
                         "--out", str(tmp_path / "o")]) == 1
        # no numpy warning ahead of the error: stderr is exactly its one line
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: map 'f' returned a non-finite value (t=")
        assert lines[0].endswith("path 0, seed 7)")

    @pytest.mark.parametrize("key, value, name", [
        ("flow_r", "1 + 0/0", "w"),
        ("flow_x", "-x_1*(1 + sin(tau)) + 1/tau", "f"),  # tau0 = 0
        ("flow_x", "-x_1*(1 + sin(tau)) + eps/0", "f")])
    def test_quotient_of_numbers_is_one_line_exit_one(self, tmp_path, capsys, key, value, name):
        # a zero divisor among literals, tau and eps once raised ZeroDivisionError
        # out of the map
        text = (CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8")
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: map '{name}' returned a non-finite value (t=0.0; path 0, seed 0)\n")
        assert not (tmp_path / "o").exists()

    def test_out_of_memory_is_one_line_exit_one(self, actuator_cfg, tmp_path, capsys,
                                                 monkeypatch):
        # numpy's allocation failure once ended average in a traceback
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array")

        monkeypatch.setattr(cli, "estimate_average_map", too_large)
        assert main(["average", "--config", actuator_cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 596. GiB for an array\n"
        assert not (tmp_path / "o").exists()

    def test_error_without_a_message_names_its_type(self, actuator_cfg, tmp_path, capsys,
                                                    monkeypatch):
        # a bare MemoryError() once printed "error: " and nothing else
        def too_large(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "estimate_average_map", too_large)
        assert main(["average", "--config", actuator_cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not (tmp_path / "o").exists()

    def test_non_finite_step_in_config_is_error(self, tmp_path, capsys):
        text = SMALL_ACTUATOR.format(p=0.1, t_values="1.0", eps_values="0.1")
        text = text.replace("j_max = 100\n", "j_max = 100\nbase_step = nan\n", 1)
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "base_step" in capsys.readouterr().err

    def test_unparsable_x0_names_its_section_and_key(self, tmp_path, capsys):
        text = SMALL_ACTUATOR.format(p=0.1, t_values="1.0", eps_values="0.1")
        cfg = write_cfg(tmp_path, text.replace("x0 = -2 2\n", "x0 = abc\n"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: [simulate] x0: expected numbers: 'abc'\n"

    @pytest.mark.parametrize("line, err", [
        ("values = 0.75; nan", "[noise] values: expected finite numbers: 'nan'"),
        ("values = 0.75; abc", "[noise] values: expected numbers: 'abc'"),
        ("flow_set = box 0 nan", "[system] flow_set: expected finite numbers: '0 nan'"),
        ("flow_set = box 1 0", "[system] flow_set: box needs lo <= hi per dim, got 'box 1 0'"),
        ("probs = -0.5 1.5", "[noise] probs: probabilities must be nonnegative")])
    def test_bad_number_in_the_system_names_its_key(self, tmp_path, capsys, line, err):
        # a NaN atom once ran with exit 0, and the others named no key
        text = (CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8")
        key = line.split(" = ")[0]
        cfg = write_cfg(tmp_path, re.sub(rf"(?m)^{key} = .*$", line, text))
        assert main(["simulate", "--config", cfg, "--t-max", "0.1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, err", [
        (b"flow_set = box 0 1\n", b"flow_set = ball 0 1\n",
         "[system] flow_set: unknown set shape 'ball' (use box/point)"),
        (b"flow_set = box 0 1\n", b"flow_set = |\n", "[system] flow_set: empty set description"),
        (b"flow_set = box 0 1\n", b"flow_set = box 0 1 0 1\n",
         "[system] flow_set: a set over r needs 1 coordinate(s), got 2"),
        (b"values = 0.75; -0.75\n", b"values = 0.75 1; -0.75 1\n",
         "[noise] values: atom [0.75, 1.0] has 2 component(s), expected 1"),
        (b"probs = 0.1 0.9\n", b"probs = 0.1 0.8 0.1\n",
         "[noise] probs: 3 probabilities for 2 atoms"),
        (b"# The same", b"# The \xff same", "cannot parse config: 'utf-8' codec can't decode "
         "byte 0xff in position 6: invalid start byte")],
        ids=["shape", "empty-set", "set-dim", "atom-dim", "probs-count", "non-utf-8"])
    def test_bad_system_or_noise_is_one_config_error_line(self, tmp_path, capsys, old, new, err):
        raw = (CONFIGS / "actuator_expr.cfg").read_bytes()
        assert raw.count(old) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(raw.replace(old, new))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flow_x, err", [
        ("-" * 3000 + "x_1", "column 2901: expression nested more than 100 levels deep"),
        ("(" * 400 + "x_1" + ")" * 400, "column 101: parentheses nested more than 100 deep"),
        ("+".join(["x_1"] * 5000), "column 400: expression nested more than 100 levels deep")],
        ids=["signs", "parentheses", "sum"])
    def test_deep_expression_is_one_config_error_line(self, tmp_path, capsys, flow_x, err):
        # each once ended in a RecursionError traceback
        text = (CONFIGS / "actuator_expr.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, re.sub(r"(?m)^flow_x = .*$", f"flow_x = {flow_x}", text))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: [system] flow_x: line 1, {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section, line, err", [
        ("recur", "recur", "rho = 1.5", "[recur] rho: must lie in (0, 1), got 1.5"),
        ("recur", "recur", "radius = -1", "[recur] radius: must be > 0, got -1.0"),
        ("recur", "recur", "n_paths = 0", "[recur] n_paths: must be >= 30, got 0"),
        ("simulate", "simulate", "t_max = -1", "[simulate] t_max: must be >= 0, got -1.0"),
        ("simulate", "simulate", "j_max = 0", "[simulate] j_max: must be >= 1, got 0"),
        ("certify", "certify", "radial_points = 0",
         "[certify] radial_points: must be >= 1, got 0"),
        ("simulate", "simulate", "r0 = 0 0", "[simulate] r0: initial condition dims "
         "(x:1, r:2) do not match system (n=1, p=1)"),
        ("simulate", "simulate", "x0 = ",
         "[simulate] x0: needs at least one initial condition, got []"),
        # [recur] and [sweep] read these from [simulate], which the error names
        ("recur", "simulate", "j_max = 0", "[simulate] j_max: must be >= 1, got 0"),
        ("sweep", "simulate", "r0 = 0 0", "[simulate] r0: initial condition dims "
         "(x:1, r:2) do not match system (n=1, p=1)"),
        ("average", "average", "x_values = -2 -1; 1 2", "[average] x_values needs 1 axis/axes")])
    def test_bad_value_names_the_section_that_set_it(self, tmp_path, capsys, command,
                                                      section, line, err):
        # each once exited 1 with a message that named no key
        text = SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1")
        cfg = write_cfg(tmp_path, with_line(text, section, line))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, section, line, err", [
        (["simulate", "--paths", "2.5"], None, None, "--paths: not an integer: '2.5'"),
        (["simulate", "--t-max", "-1"], None, None, "--t-max: must be >= 0, got -1.0"),
        (["simulate", "--seed", "abc"], None, None, "--seed: not an integer: 'abc'"),
        # average and certify draw no seed but record it in the manifest
        (["average", "--seed", "1.5"], None, None, "--seed: not an integer: '1.5'"),
        (["recur", "--radius", "0"], None, None, "--radius: must be > 0, got 0.0"),
        (["recur", "--rho", "1.5"], None, None, "--rho: must lie in (0, 1), got 1.5"),
        (["recur", "--bound", "-1"], None, None, "--bound: must be > 0, got -1.0"),
        (["recur", "--paths", "10"], None, None, "--paths: must be >= 30, got 10"),
        (["sweep", "--paths", "10"], None, None, "--paths: must be >= 30, got 10"),
        (["sweep", "--eps", "0.01", "0.1"], None, None,
         "--eps: must be > 0 and strictly decreasing, got [0.01, 0.1]"),
        (["sweep", "--eps", "0.1", "0"], None, None,
         "--eps: must be > 0 and strictly decreasing, got [0.1, 0.0]"),
        (["sweep", "--t-max", "nan"], None, None, "--t-max: not a finite number: 'nan'"),
        (["fig1", "--paths", "0"], None, None, "--paths: must be >= 1, got 0"),
        # recur and sweep once simulated the whole ensemble before these failed
        (["recur"], "recur", "n_paths = 10", "[recur] n_paths: must be >= 30, got 10"),
        (["sweep"], "sweep", "n_paths = 29", "[sweep] n_paths: must be >= 30, got 29"),
        (["sweep"], "sweep", "eps_values = 0.1 0",
         "[sweep] eps_values: must be > 0 and strictly decreasing, got [0.1, 0.0]"),
        (["certify"], "certify", "radius_min = 10",
         "[certify] radius_min, radius_max: radius_min must be < radius_max, "
         "got 10.0 >= 10.0"),
        # a negative seed once reached numpy at the first jump, or was recorded
        (["simulate", "--seed", "-5"], None, None, "--seed: must be >= 0, got -5"),
        (["average", "--seed", "-5"], None, None, "--seed: must be >= 0, got -5"),
        (["simulate"], "simulate", "seed = -5", "[simulate] seed: must be >= 0, got -5"),
        (["sweep"], "sweep", "seed = -1", "[sweep] seed: must be >= 0, got -1"),
        # Python's int() and float() also read other scripts' digits and '_'
        (["simulate", "--seed", "\u0663"], None, None, "--seed: not an integer: '\u0663'"),
        (["simulate", "--paths", "1_0"], None, None, "--paths: not an integer: '1_0'"),
        (["simulate", "--t-max", "\uff15"], None, None, "--t-max: not a number: '\uff15'"),
        (["sweep", "--eps", "0.1", "0.0_1"], None, None,
         "--eps: expected numbers: '0.1 0.0_1'"),
        (["simulate"], "simulate", "t_max = 1_0", "[simulate] t_max: not a number: '1_0'"),
        (["simulate"], "simulate", "x0 = \u0663", "[simulate] x0: expected numbers: '\u0663'"),
        # recur and sweep once simulated every path before a start outside R failed
        (["recur"], "recur", "R = 1.0",
         "[recur] R: the start x0 = [-2.0], r0 = [0.0] has |z(0,0)| = 2.0 > R = 1.0"),
        (["sweep"], "sweep", "R = 1.5",
         "[sweep] R: the start x0 = [-2.0], r0 = [0.0] has |z(0,0)| = 2.0 > R = 1.5"),
        (["recur", "--bound", "1.0"], None, None,
         "--bound: the start x0 = [-2.0], r0 = [0.0] has |z(0,0)| = 2.0 > R = 1.0"),
        # a start outside the system's domain: tau0 once failed in StateVec, and r0
        # in the solver, with messages naming no key
        (["simulate"], "simulate", "tau0 = -1", "[simulate] tau0: must be >= 0, got -1.0"),
        (["simulate"], "simulate", "r0 = 2", "[simulate] r0: r0 = [2.0] lies in neither C nor D"),
        (["recur"], "recur", "r0 = 2", "[recur] r0: r0 = [2.0] lies in neither C nor D"),
        # per-path lists were once built for any count, until memory ran out
        (["simulate"], "simulate", "n_paths = 1000000000000",
         "[simulate] n_paths: must be <= 1000000, got 1000000000000"),
        (["recur"], "recur", "n_paths = 1000001",
         "[recur] n_paths: must be <= 1000000, got 1000001"),
        (["simulate", "--paths", "1000001"], None, None,
         "--paths: must be <= 1000000, got 1000001"),
        (["sweep", "--paths", "1000000000000"], None, None,
         "--paths: must be <= 1000000, got 1000000000000"),
        (["fig1", "--paths", "1000001"], None, None, "--paths: must be <= 1000000, got 1000001")])
    def test_bad_flag_or_key_fails_before_any_path_is_simulated(
            self, tmp_path, capsys, monkeypatch, argv, section, line, err):
        def simulated(*args, **kwargs):
            raise AssertionError("a path was simulated")

        for name in ("simulate_ensemble", "simulate_path", "epsilon_sweep"):
            monkeypatch.setattr(cli, name, simulated)
        text = SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1")
        if section is not None:
            text = with_line(text, section, line)
        config = [] if argv[0] == "fig1" else ["--config", write_cfg(tmp_path, text)]
        assert main(argv + config + ["--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, section, line", [
        ("simulate", "system", "epsilon = 1e-300"), ("sweep", "sweep", "eps_values = 1e-300")])
    def test_step_too_small_to_advance_t_is_an_error(self, tmp_path, capsys, monkeypatch,
                                                      command, section, line):
        # t + 1e-301 rounds back to t once ulp(t) > 2e-301: the run never ended
        rk4, calls = solver._rk4, []

        def counted(*args):
            calls.append(None)
            if len(calls) > 1000:
                raise AssertionError("t stopped advancing")
            return rk4(*args)

        monkeypatch.setattr(solver, "_rk4", counted)
        text = with_line(SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1"),
                         section, line)
        assert main([command, "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: step too small to advance t")
        assert "dt_eff" in err[0] and "t_max = " in err[0] and not calls

    def test_the_module_exits_with_the_code_of_main(self, tmp_path):
        # python -m hybridavg.cli: pass, config error and verdict fail, each
        # with its own exit code and no traceback
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        for config, code, err in ((str(CONFIGS / "actuator.cfg"), 0, ""),
                                  (str(tmp_path / "missing.cfg"), 1,
                                   r"config error: cannot read config [^\n]*\n"),
                                  (write_cfg(tmp_path, WRONG_FAVG), 2, "")):
            run = subprocess.run([sys.executable, "-m", "hybridavg.cli", "certify",
                                  "--config", config, "--out", str(tmp_path / str(code))],
                                 capture_output=True, text=True, env=env, timeout=300)
            assert run.returncode == code and "Traceback" not in run.stderr, run.stderr
            assert re.fullmatch(err, run.stderr), run.stderr

    def test_usage_error_is_one_not_two(self, capsys):
        assert main(["simulate"]) == 1  # missing --config
        capsys.readouterr()

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


# config seeds: [simulate], [recur] and [sweep] read theirs; average and
# certify take no config seed and default to seed 0
SEEDED = SMALL_ACTUATOR
for _section, _seed in (("simulate", 11), ("recur", 12), ("sweep", 13)):
    SEEDED = SEEDED.replace(f"[{_section}]\n", f"[{_section}]\nseed = {_seed}\n")

RUNNER_CASES = {
    "simulate": (["--paths", "2", "--t-max", "0.5"], 11),
    "average": ([], 0),
    "certify": ([], 0),
    "recur": (["--paths", "30", "--t-max", "0.5"], 12),
    "sweep": (["--paths", "30", "--t-max", "0.5", "--eps", "0.1"], 13),
    "fig1": (["--paths", "2"], 0),
}


class TestRunner:
    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("command", list(RUNNER_CASES))
    def test_manifest(self, tmp_path, capsys, command, seed):
        extra, config_seed = RUNNER_CASES[command]
        cfg = write_cfg(tmp_path, SEEDED.format(
            p=0.1, t_values="3.141592653589793", eps_values="0.1"))
        out = tmp_path / "out"
        argv = [command, *extra, "--out", str(out)]
        if command != "fig1":
            argv += ["--config", cfg]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        capsys.readouterr()

        path = out / f"{command}_manifest.json"
        text = path.read_text(encoding="utf-8")
        manifest = json.loads(text)
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert set(manifest) == {"command", "config_digest", "seed_base", "toolkit_version",
                                 "duration_seconds", "outputs"}
        assert manifest["command"] == command
        assert manifest["toolkit_version"] == __version__
        assert manifest["duration_seconds"] >= 0.0
        assert manifest["outputs"] == sorted(f.name for f in out.iterdir() if f != path)
        source = FIG1_CONFIG.encode() if command == "fig1" else Path(cfg).read_bytes()
        digest = hashlib.sha256(source).hexdigest()
        assert manifest["config_digest"] == digest
        assert manifest["seed_base"] == (config_seed if seed is None else seed)


class TestConfigSchema:
    def test_misspelt_key_is_an_error_with_a_suggestion(self, tmp_path, capsys):
        # n_pathz was once ignored: simulate exited 0 with the default 100 paths
        text = (CONFIGS / "actuator.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, text.replace("n_paths = 10\n", "n_pathz = 3\n"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "config error: [simulate] n_pathz: unknown key (did you mean n_paths?)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, err", [
        ("simualte", "[simualte]: unknown section (did you mean [simulate]?)"),
        # configparser copies its keys into every section, which once read them
        ("DEFAULT", "[DEFAULT]: unknown section")])
    def test_unknown_section_is_an_error(self, tmp_path, capsys, section, err):
        text = (CONFIGS / "actuator.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, text.replace("[simulate]", f"[{section}]"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {err}\n"

    @pytest.mark.parametrize("name", ["actuator.cfg", "es.cfg"])
    def test_noise_section_under_a_built_in_kind_is_an_error(self, tmp_path, capsys, name):
        # the built-ins fix their own noise: certify once passed with these values
        text = (CONFIGS / name).read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, text + "\n[noise]\nvalues = 5\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        kind = "jammed-actuator" if name == "actuator.cfg" else "jammed-es"
        assert capsys.readouterr().err == (
            f"config error: [noise]: unknown section for kind = {kind} "
            "(only kind = custom reads [noise])\n")

    @pytest.mark.parametrize("command, line", [
        ("average", "seed = 14"), ("certify", "seed = 15"), ("certify", "mc_samples = 0")])
    def test_key_the_command_never_reads_is_unknown(self, tmp_path, capsys, command, line):
        # each was once ignored with exit 0
        text = SMALL_ACTUATOR.format(p=0.1, t_values="3.14", eps_values="0.1")
        cfg = write_cfg(tmp_path, with_line(text, command, line))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err.startswith(
            f"config error: [{command}] {key}: unknown key")


class TestBenchmarkTracerNames:
    MODULES = ("config", "systems", "expressions", "core", "solver", "averaging",
               "certificates", "stats", "svgplot", "cli")

    def test_tracer_swaps_and_restores_every_name(self):
        # the benchmark's tracer wraps module attributes (cli.jammed_es,
        # stats.simulate_ensemble, ...) by name: one renamed or deleted fails
        # here, not only in a traced benchmark run
        spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        hv = types.SimpleNamespace(**{name: importlib.import_module(f"hybridavg.{name}")
                                      for name in self.MODULES})
        owners = [*vars(hv).values(), hv.config.ConfigDocument]
        before = [dict(vars(owner)) for owner in owners]
        with tracing.Tracer(hv).active():
            swapped = [(owner, name) for owner, names in zip(owners, before)
                       for name, value in names.items() if vars(owner)[name] is not value]
            for owner, name in ((hv.cli, "jammed_es"), (hv.cli, "load_system"),
                                (hv.stats, "simulate_ensemble"), (hv.cli, "epsilon_sweep")):
                assert (owner, name) in swapped
        assert all(vars(owner)[name] is value
                   for owner, names in zip(owners, before) for name, value in names.items())
