"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np

import hybridavg as ha
from hybridavg.cli import main
from conftest import V_quad, average_flow_linear, state


def verdict(num: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


CERT_CFG = """\
[system]
kind = jammed-actuator
period = 1.0
jam_prob = {p}
epsilon = 0.01

[average]
favg = -x_1

[certify]
V = pow(x_1, 2)
"""


def certificate_for(p: float):
    spec = ha.jammed_actuator(period=1.0, jam_prob=p, epsilon=0.01)
    return ha.foster_certificate(V_quad, ha.build_average_system(spec, average_flow_linear()))


class TestCriterion1:
    def test_certificate_exactness_and_boundary(self, tmp_path):
        started = time.perf_counter()
        cfg = tmp_path / "cert.cfg"
        cfg.write_text(CERT_CFG.format(p=0.1), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["certify", "--config", str(cfg), "--out", str(out)])
        report = (out / "certify_report.txt").read_text()
        consts = {}
        for line in report.splitlines():
            for key in ("c1", "c2", "c3", "c4", "c5"):
                if line.startswith(f"{key} = "):
                    consts[key] = float(line.split(" = ")[1])
        ok = (code == 0
              and abs(consts["c1"] - 1.0) <= 1e-9
              and abs(consts["c2"] - 1.0) <= 1e-9
              and abs(consts["c3"] - 2.0) <= 1e-9
              and abs(consts["c4"] - 2.0) <= 1e-9
              and abs(consts["c5"] - 2.25 * 0.1) <= 1e-12)

        cfg_fail = tmp_path / "cert_fail.cfg"
        cfg_fail.write_text(CERT_CFG.format(p=0.3), encoding="utf-8")
        ok = ok and main(["certify", "--config", str(cfg_fail),
                          "--out", str(tmp_path / "o2")]) == 2

        # pass/fail boundary sits at p = 2/9 (strict inequality at the boundary)
        ok = ok and certificate_for(2.0 / 9.0 - 1e-12).verdict
        ok = ok and not certificate_for(2.0 / 9.0 + 1e-12).verdict
        ok = ok and not certificate_for(2.0 / 9.0).verdict
        for p in (0.05, 0.1, 0.2):
            ok = ok and abs(certificate_for(p).c5 - 2.25 * p) <= 1e-12

        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 5.0
        verdict(1, f"certificate constants exact, boundary at p = 2/9 "
                   f"({elapsed:.2f}s < 5s)", ok)


class TestCriterion2:
    def test_average_map_recovery(self, actuator, es_system, favg):
        started = time.perf_counter()
        x_axis = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
        r_axis = np.array([0.0, 0.5, 1.0])
        worst = 0.0
        for spec in (actuator, es_system):
            avg = ha.estimate_average_map(spec, x_axis, r_axis,
                                          T_long=20.0 * 2.0 * math.pi, f_ave=favg)
            worst = max(worst, avg.nodal_residual)
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-6 and elapsed < 10.0
        verdict(2, f"both examples average to -x, max nodal error {worst:.2e} <= 1e-6 "
                   f"({elapsed:.2f}s < 10s)", ok)


class TestCriterion3:
    def test_gamma_curve_oracle(self, actuator, favg):
        Ts = np.linspace(0.5, 4.0 * math.pi, 20)
        taus = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        x_pts = np.array([[1.0], [2.0], [-3.0]])
        r_pts = np.array([[0.0], [1.0]])
        curve = ha.estimate_gamma(actuator, favg, x_pts, r_pts, taus, Ts)
        oracle = 2.0 * np.abs(np.sin(Ts / 2.0)) / Ts
        err = float(np.max(np.abs(curve.values - oracle)))
        ok = err <= 1e-4
        ok = ok and bool(np.all(np.diff(curve.envelope) <= 1e-15))
        periods = np.array([2.0 * math.pi, 4.0 * math.pi, 6.0 * math.pi])
        per_curve = ha.estimate_gamma(actuator, favg, x_pts, r_pts, taus, periods)
        ok = ok and bool(np.all(per_curve.values <= 1e-10))
        verdict(3, f"gamma matches 2|sin(T/2)|/T at 20 windows (err {err:.2e} <= 1e-4), "
                   f"envelope nonincreasing, gamma(2 pi k) <= 1e-10", ok)


class TestCriterion4:
    def test_solver_order_and_clock(self, average_system):
        sys = average_system
        errs = []
        for base in (0.1, 0.05, 0.025, 0.0125):
            cfg = ha.IntegratorConfig(base_step=base, substep_per_epsilon=1e12)
            arc = ha.simulate_path(sys, state(1.0, 0.0), 0, ha.Horizon(1.0, 5), cfg)
            seg = arc.segments[0]
            errs.append(float(np.max(np.abs(seg.x[:, 0] - np.exp(-seg.t)))))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        ok = all(r >= 8.0 for r in ratios)

        spec = ha.jammed_actuator(period=1.0, jam_prob=0.1, epsilon=0.01)
        arc = ha.simulate_path(spec, state(2.0, 0.0), 5, ha.Horizon(4.5, 100))
        drift = max(float(np.max(np.abs(seg.tau - (seg.tau[0] + (seg.t - seg.t[0]) / 0.01))))
                    for seg in arc.segments)
        ok = ok and drift <= 1e-10
        verdict(4, f"4th-order convergence (ratios {[f'{r:.1f}' for r in ratios]} >= 8), "
                   f"clock drift {drift:.1e} <= 1e-10", ok)


class TestCriterion5:
    def test_trajectory_closeness_in_epsilon(self, average_system):
        # jump-free window: reset period 2 > horizon 1
        sys = average_system
        avg_arc = ha.simulate_path(sys, state(1.0, 0.0), 0, ha.Horizon(1.0, 5),
                                   ha.IntegratorConfig(base_step=0.001,
                                                       substep_per_epsilon=1e12))
        avg_seg = avg_arc.segments[0]
        assert float(np.max(np.abs(avg_seg.x[:, 0] - np.exp(-avg_seg.t)))) <= 1e-9

        gaps = []
        ok = True
        for eps in (0.1, 0.05, 0.01):
            t0 = time.perf_counter()
            spec = ha.jammed_actuator(period=2.0, jam_prob=0.1, epsilon=eps)
            arc = ha.simulate_path(spec, state(1.0, 0.0), 0, ha.Horizon(1.0, 5))
            seg = arc.segments[0]
            avg_on_grid = np.interp(seg.t, avg_seg.t, avg_seg.x[:, 0])
            gaps.append(float(np.max(np.abs(seg.x[:, 0] - avg_on_grid))))
            ok = ok and (time.perf_counter() - t0) < 10.0
        ok = ok and all(a > b for a, b in zip(gaps, gaps[1:]))
        verdict(5, "jump-free vs average sup-gap strictly decreasing over "
                   f"eps in {{0.1, 0.05, 0.01}}: {[f'{g:.3f}' for g in gaps]}", ok)


class TestCriterion6:
    def test_uges_in_the_mean(self, actuator):
        started = time.perf_counter()
        inits = [state(2.0, 0.0), state(-2.0, 0.0)]
        ensemble = ha.simulate_ensemble(actuator, inits, 500, 42,
                                        ha.Horizon(10.0, 10_000))
        fit = ha.uges_m_fit(ensemble, np.linspace(0.0, 10.0, 21), actuator)
        elapsed = time.perf_counter() - started
        ok = fit.k2 > 0.0 and fit.envelope_satisfied(slack_sigmas=4.0)
        ok = ok and elapsed < 60.0
        verdict(6, f"500-path mean contracts exponentially: k2 = {fit.k2:.3f} > 0, "
                   f"envelope holds with 4 SE slack ({elapsed:.1f}s < 60s)", ok)


class TestCriterion7:
    def test_recurrence_of_delta_ball(self, es_system):
        started = time.perf_counter()
        inits = [state(-2.0, 0.0), state(2.0, 0.0)]
        ensemble = ha.simulate_ensemble(es_system, inits, 200, 7,
                                        ha.Horizon(10.0, 10_000))
        rep = ha.recurrence_estimate(ensemble, 0.1, 0.05, 5.0, es_system)
        elapsed = time.perf_counter() - started
        ok = rep.hit_fraction >= 0.95 and elapsed < 60.0
        verdict(7, f"delta-ball recurrence: hit fraction {rep.hit_fraction:.3f} >= 0.95 "
                   f"within t_max = 10 ({elapsed:.1f}s < 60s)", ok)


class TestCriterion8:
    def test_certified_radius_monotone_in_epsilon(self, es_system):
        started = time.perf_counter()
        result = ha.epsilon_sweep(es_system, [0.1, 0.05, 0.01],
                                  [state(-2.0, 0.0), state(2.0, 0.0)], 7,
                                  radius_max=2.0, rho=0.05, R=5.0, n_paths=200,
                                  horizon=ha.Horizon(10.0, 10_000))
        elapsed = time.perf_counter() - started
        radii = [e.certified_radius for e in result.entries]
        ok = all(r is not None for r in radii)
        for prev, ent in zip(result.entries, result.entries[1:]):
            slack = max(prev.bisection_slack, ent.bisection_slack)
            ok = ok and ent.certified_radius <= prev.certified_radius + slack
        ok = ok and result.monotone and elapsed < 300.0
        verdict(8, f"certified radii nonincreasing in epsilon "
                   f"{[f'{r:.2e}' for r in radii]} ({elapsed:.1f}s < 5min)", ok)


class TestCriterion9:
    def test_certificate_scaling_invariance(self):
        base = certificate_for(0.1)
        ok = True
        for alpha in (0.5, 3.0):
            spec = ha.jammed_actuator(period=1.0, jam_prob=0.1, epsilon=0.01)
            avg = ha.build_average_system(spec, average_flow_linear())
            scaled = ha.foster_certificate(
                lambda x, r, a=alpha: a * V_quad(x, r), avg)
            ok = ok and abs(scaled.lam - base.lam) <= 1e-12
            ok = ok and scaled.verdict == base.verdict
        verdict(9, "V -> alpha V leaves lambda and the verdict unchanged to 1e-12 "
                   "for alpha in {0.5, 3}", ok)


RERUN_CFG = ("[system]\nkind = jammed-actuator\nperiod = 1.0\njam_prob = 0.1\n"
             "epsilon = 0.05\n\n[simulate]\nn_paths = 6\nx0 = -2 2\nr0 = 0\n"
             "tau0 = 0\nt_max = 3.0\nj_max = 100\n")


class TestCriterion10:
    def test_command_outputs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RERUN_CFG, encoding="utf-8")
        ok = True
        for run in ("a", "b"):
            assert main(["simulate", "--config", str(cfg), "--seed", "9",
                         "--out", str(tmp_path / f"sim_{run}")]) == 0
            assert main(["fig1", "--paths", "6", "--seed", "9",
                         "--out", str(tmp_path / f"fig_{run}")]) == 0
        ok = ok and ((tmp_path / "sim_a" / "simulate.csv").read_bytes()
                     == (tmp_path / "sim_b" / "simulate.csv").read_bytes())
        ok = ok and ((tmp_path / "fig_a" / "fig1.csv").read_bytes()
                     == (tmp_path / "fig_b" / "fig1.csv").read_bytes())
        ok = ok and ((tmp_path / "fig_a" / "fig1.svg").read_bytes()
                     == (tmp_path / "fig_b" / "fig1.svg").read_bytes())
        verdict(10, "re-running commands with the same config and seed reproduces "
                    "CSV and SVG outputs byte-identically", ok)
