"""Command-line front end: simulate | average | certify | recur | sweep | fig1.

Each command is a function (args, doc, spec) that computes its results and
returns them as (exit code, seed, [(file name, lines)], digest override).  One
runner, _run, does the rest for all six: it loads the config document and
builds its system, creates --out once the command has returned, writes every
output file and a JSON run manifest.  A run is deterministic for a fixed
config digest and seed.  Exit codes: 0 success/pass, 1 usage or config error,
2 analysis verdict fail.  Floats are written with shortest round-trip
formatting.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import build_average_system, check_jacobian_average, estimate_average_map, estimate_gamma
from .certificates import CertGrid, foster_certificate
from .config import ConfigDocument, ConfigError
from .core import JumpNoise, StateVec
from .expressions import (
    AverageField,
    ExpressionError,
    ScalarField,
    allowed_names,
    compile_expressions,
)
from .solver import (
    Horizon,
    IntegratorConfig,
    MapEvaluationError,
    simulate_ensemble,
    simulate_path,
)
from .stats import SweepParams, epsilon_sweep, recurrence_estimate
from .svgplot import Curve, Panel, render_panels
from .systems import JamParams, jammed_es, load_system


def _f(v) -> str:
    return repr(float(v))


def _vec(v) -> str:
    return ";".join(_f(c) for c in np.atleast_1d(v))


def _csv(header, rows):
    """Lines of a CSV file, streamed: the header, then one line per row."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(row)


def _lookup(doc: ConfigDocument, sections, key: str, get, default):
    """get(doc, section, key) from the first of sections that sets key, else default."""
    for sec in sections:
        if doc.has(sec, key):
            return get(doc, sec, key)
    return default


def _parse_inits(doc: ConfigDocument, spec, sections) -> list:
    """Initial conditions: x0 as ';'-separated vectors (scalars when n = 1), shared r0/tau0."""
    x0s = _lookup(doc, sections, "x0", ConfigDocument.get_float_groups, [[1.0]])
    if spec.n == 1:
        x0s = [[value] for group in x0s for value in group]
    r0 = _lookup(doc, sections, "r0", ConfigDocument.get_float_list, [0.0])
    tau0 = _lookup(doc, sections, "tau0", ConfigDocument.get_float, 0.0)
    inits = []
    for x0 in x0s:
        if len(x0) != spec.n or len(r0) != spec.p:
            raise ConfigError(
                f"initial condition dims (x:{len(x0)}, r:{len(r0)}) do not match "
                f"system (n={spec.n}, p={spec.p})")
        inits.append(StateVec(np.array(x0), np.array(r0), tau0))
    return inits


def _sim_numbers(doc: ConfigDocument, args, sections):
    get_float, get_int = ConfigDocument.get_float, ConfigDocument.get_int
    t_max = args.t_max
    if t_max is None:
        t_max = _lookup(doc, sections, "t_max", get_float, 10.0)
    j_max = _lookup(doc, sections, "j_max", get_int, 10_000)
    n_paths = args.paths
    if n_paths is None:
        n_paths = _lookup(doc, sections, "n_paths", get_int, 100)
    cfg = IntegratorConfig(_lookup(doc, sections, "base_step", get_float, 0.01),
                           _lookup(doc, sections, "substep_per_epsilon", get_float, 0.1))
    return n_paths, Horizon(t_max, j_max), cfg


def _arc_lines(arc, path_id: int, stride: int = 1, kind: str = None):
    """CSV lines for one arc: flow samples (strided), jump post-states, terminal.

    Each segment is formatted column by column and then joined row by row, so
    lines stream out one segment at a time.
    """
    head = [str(path_id)] + ([kind] if kind is not None else [])
    last = None
    for si, seg in enumerate(arc.segments):
        count = seg.t.shape[0]
        keep = slice(None)
        if stride > 1:
            keep = list(range(0, count, stride)) + ([count - 1] if (count - 1) % stride else [])
        t, *rest = (list(map(repr, col.tolist()))
                    for col in (seg.t[keep], *seg.x[keep].T, *seg.r[keep].T, seg.tau[keep]))
        j = str(int(seg.j))
        events = ["jump" if si > 0 else "flow"] + ["flow"] * (len(t) - 1)
        yield from map(",".join, zip(*map(repeat, head), t, repeat(j), *rest, events))
        last = [*head, t[-1], j, *(col[-1] for col in rest)]
    if last is not None:
        yield ",".join(last + ["terminal"])


def cmd_simulate(args, doc, spec):
    n_paths, horizon, cfg = _sim_numbers(doc, args, ["simulate"])
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    inits = _parse_inits(doc, spec, ["simulate"])
    seed = args.seed if args.seed is not None else doc.get_int("simulate", "seed", 0)
    ensemble = simulate_ensemble(spec, inits, n_paths, seed, horizon, cfg)
    header = (["path_id", "t", "j"] + [f"x_{i+1}" for i in range(spec.n)]
              + [f"r_{i+1}" for i in range(spec.p)] + ["tau", "event"])
    lines = (line for pid, arc in enumerate(ensemble) for line in _arc_lines(arc, pid))
    return 0, seed, [("simulate.csv", chain([",".join(header)], lines))], None


def _favg_from_config(doc: ConfigDocument, spec):
    raw = doc.get_str("average", "favg")
    if raw is None:
        return None
    try:
        exprs = compile_expressions([p for p in raw.split(";") if p.strip()],
                                    allowed_names(n=spec.n, p=spec.p))
    except ExpressionError as exc:
        raise ConfigError(f"[average] favg: {exc}") from exc
    if len(exprs) != spec.n:
        raise ConfigError(f"[average] favg needs {spec.n} expression(s)")
    return AverageField(exprs, spec.n)


def _average_count(doc: ConfigDocument, key: str, default: int) -> int:
    value = doc.get_int("average", key, default)
    if value < 1:
        raise ConfigError(f"[average] {key} must be >= 1, got {value}")
    return value


def _average_grids(doc: ConfigDocument, spec):
    """The [average] grids; a grid that cannot be averaged over is a config error."""
    x_axes = [np.array(axis) for axis in
              doc.get_float_groups("average", "x_values", [[-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]])]
    if len(x_axes) != spec.n:
        raise ConfigError(f"[average] x_values needs {spec.n} axis/axes")
    if not any(np.any(axis != 0.0) for axis in x_axes):
        raise ConfigError("[average] x_values: the x grid needs a nonzero point "
                          "(gamma is normalized by |x|)")
    r_points = _average_count(doc, "r_points", 3)
    lo, hi = spec.flow_or_jump_set.bounding_box()
    r_axes = [np.linspace(lo[d], hi[d], r_points) if lo[d] < hi[d]
              else np.array([lo[d]]) for d in range(spec.p)]
    period = doc.get_float("average", "tau_period", 2.0 * np.pi)
    if not period > 0.0:
        raise ConfigError(f"[average] tau_period: the clock period must be > 0, got {period!r}")
    tau_points = _average_count(doc, "tau_points", 256)
    tau_grid = np.linspace(0.0, period, tau_points, endpoint=False)
    if doc.has("average", "T_values"):
        T_grid = np.array(doc.get_float_list("average", "T_values"))
        T_keys, T_set = "T_values", T_grid.tolist()
    else:
        T_min = doc.get_float("average", "T_min", 0.5)
        T_max = doc.get_float("average", "T_max", 4.0 * np.pi)
        T_grid = np.linspace(T_min, T_max, _average_count(doc, "T_points", 20))
        T_keys, T_set = "T_min, T_max", [T_min, T_max]
    if not (T_grid.size and T_grid[0] > 0.0 and np.all(np.diff(T_grid) > 0.0)):
        raise ConfigError(f"[average] {T_keys}: window lengths T must be > 0 and strictly "
                          f"increasing, got {T_set}")
    T_long = doc.get_float("average", "T_long_periods", 20.0) * period
    if not (T_long > 0.0 and math.isfinite(T_long)):
        raise ConfigError(f"[average] T_long_periods, tau_period: the long window "
                          f"T_long_periods * tau_period must be finite and > 0, got {T_long!r}")
    return x_axes, r_axes, tau_grid, T_grid, T_long


def cmd_average(args, doc, spec):
    x_axes, r_axes, tau_grid, T_grid, T_long = _average_grids(doc, spec)
    favg = _favg_from_config(doc, spec)
    avg = estimate_average_map(spec, x_axes, r_axes, T_long, f_ave=favg)

    x_pts = np.stack(np.meshgrid(*x_axes, indexing="ij"), axis=-1).reshape(-1, spec.n)
    x_pts = x_pts[np.linalg.norm(x_pts, axis=-1) > 0.0]
    r_pts = np.stack(np.meshgrid(*r_axes, indexing="ij"), axis=-1).reshape(-1, spec.p)
    gamma = estimate_gamma(spec, avg.f_ave, x_pts, r_pts, tau_grid, T_grid)
    jac = check_jacobian_average(spec, avg.f_ave, x_pts, r_pts, tau_grid, T_grid,
                                 state_gamma=gamma)

    gamma_rows = ([_f(T), _f(gamma.values[k]), _f(gamma.envelope[k]), _f(jac.values[k]),
                   _vec(gamma.witnesses[k][0]), _vec(gamma.witnesses[k][1]),
                   _f(gamma.witnesses[k][2])]
                  for k, T in enumerate(gamma.windows))
    tab = avg.table
    grid_nodes = np.stack([m.ravel() for m in np.meshgrid(*tab.axes, indexing="ij")],
                          axis=-1)
    table_rows = ([_vec(z[: spec.n]), _vec(z[spec.n:]), _vec(fz)]
                  for z, fz in zip(grid_nodes, tab.table.reshape(-1, spec.n)))

    report = [f"window length for the tabulated average: T_long = {_f(T_long)}",
              f"registered closed form: {'yes' if favg is not None else 'no'}",
              f"max nodal deviation from closed form: {_f(avg.nodal_residual)}"]
    if gamma.envelope[0] > 0.0:
        trend = gamma.envelope[-1] / gamma.envelope[0]
        report.append(f"gamma trend envelope(T_last)/envelope(T_first) = {_f(trend)} "
                      f"(diagnostic: <= 0.1 indicates a well-averaged field)")
    flagged = [str(float(T)) for T, bad
               in zip(jac.windows, jac.exceeds_state_envelope or ()) if bad]
    report.append("jacobian residual exceeds state gamma envelope at T values: "
                  + (", ".join(flagged) or "none"))
    report.append("results are grid-certified suprema, not proofs")
    seed = args.seed if args.seed is not None else 0
    return 0, seed, [
        ("average_gamma.csv", _csv(["T", "gamma_raw", "gamma_envelope", "jac_gamma_raw",
                                    "witness_x", "witness_r", "witness_tau"], gamma_rows)),
        ("average_favg.csv", _csv(["x", "r", "favg"], table_rows)),
        ("average_report.txt", report),
    ], None


def cmd_certify(args, doc, spec):
    margin = args.safety_margin
    if margin is None:
        margin = doc.get_float("certify", "safety_margin", 0.0)
    elif not (margin >= 0.0 and math.isfinite(margin)):
        raise ConfigError(f"--safety-margin must be a finite number >= 0, got {margin!r}")
    raw_v = doc.get_str("certify", "V")
    if raw_v is None:
        raise ConfigError("missing [certify] V (certificate candidate expression)")
    try:
        v_expr = compile_expressions([raw_v], allowed_names(n=spec.n, p=spec.p))[0]
    except ExpressionError as exc:
        raise ConfigError(f"[certify] V: {exc}") from exc
    V = ScalarField(v_expr)
    favg = _favg_from_config(doc, spec)
    if favg is None:
        raise ConfigError("certification needs [average] favg (registered average map)")
    avg = build_average_system(spec, favg)
    grid = CertGrid(
        radius_min=doc.get_float("certify", "radius_min", 1e-3),
        radius_max=doc.get_float("certify", "radius_max", 10.0),
        radial_points=doc.get_int("certify", "radial_points", 25),
        r_points=doc.get_int("certify", "r_points", 5),
    )
    cert = foster_certificate(V, avg, grid,
                              mc_samples=doc.get_int("certify", "mc_samples", 100_000),
                              safety_margin=margin)
    report = str(cert)
    print(report)
    seed = args.seed if args.seed is not None else 0
    return (0 if cert.verdict else 2), seed, [("certify_report.txt", [report])], None


def cmd_recur(args, doc, spec):
    sections = ["recur", "simulate"]
    n_paths, horizon, cfg = _sim_numbers(doc, args, sections)
    inits = _parse_inits(doc, spec, sections)
    radius = args.radius if args.radius is not None \
        else doc.get_float("recur", "radius", 0.1)
    rho = args.rho if args.rho is not None else doc.get_float("recur", "rho", 0.05)
    bound = args.bound if args.bound is not None else doc.get_float("recur", "R", 5.0)
    seed = args.seed if args.seed is not None else doc.get_int("recur", "seed", 0)

    ensemble = simulate_ensemble(spec, inits, n_paths, seed, horizon, cfg)
    rep = recurrence_estimate(ensemble, radius, rho, bound, spec)

    rows = ([str(pid), str(arc.seed), "1" if ht is not None else "0",
             _f(ht.t) if ht is not None else "", str(ht.j) if ht is not None else "",
             _f(ht.t + ht.j) if ht is not None else "",
             _f(arc.end_time.t), str(arc.end_time.j), arc.terminal_reason]
            for pid, (arc, ht) in enumerate(zip(ensemble, rep.hitting_times)))
    summary = [_f(rep.target_radius), _f(rep.rho), _f(rep.R), str(rep.n_paths),
               _f(rep.hit_fraction), _f(rep.wilson_low), _f(rep.wilson_high),
               _f(rep.tau_hat) if rep.tau_hat is not None else "",
               str(rep.stopped_before_budget)]
    return 0, seed, [
        ("recur_paths.csv", _csv(["path_id", "seed", "hit", "hit_t", "hit_j", "hit_sum",
                                  "end_t", "end_j", "terminal_reason"], rows)),
        ("recur_summary.csv", _csv(["radius", "rho", "R", "n_paths", "hit_fraction",
                                    "wilson_low", "wilson_high", "tau_hat",
                                    "stopped_before_budget"], [summary])),
    ], None


def cmd_sweep(args, doc, spec):
    sections = ["sweep", "recur", "simulate"]
    if args.eps:
        eps_list = [float(e) for e in args.eps]
    else:
        eps_list = doc.get_float_list("sweep", "eps_values")
    n_paths, horizon, cfg = _sim_numbers(doc, args, sections)
    inits = _parse_inits(doc, spec, sections)
    seed = args.seed if args.seed is not None else doc.get_int("sweep", "seed", 0)
    params = SweepParams(
        radius_max=doc.get_float("sweep", "radius_max", 2.0),
        rho=doc.get_float("sweep", "rho", 0.05),
        R=doc.get_float("sweep", "R", 5.0),
        n_paths=n_paths,
        horizon=horizon,
        cfg=cfg,
    )

    def family(eps: float):
        return dataclasses.replace(spec, epsilon=eps)

    result = epsilon_sweep(family, eps_list, inits, seed, params)

    rows = ([_f(ent.epsilon),
             _f(ent.certified_radius) if ent.certified_radius is not None else "",
             _f(ent.hit_fraction), str(ent.n_paths), ent.note]
            for ent in result.entries)
    summary = [f"radii nonincreasing as epsilon decreases: "
               f"{'yes' if result.monotone else 'NO'}"]
    summary += [f"  violation between epsilon={a} and epsilon={b}"
                for a, b in result.violations]
    return 0, seed, [
        ("sweep.csv", _csv(["epsilon", "certified_radius", "hit_fraction", "n_paths",
                            "note"], rows)),
        ("sweep_summary.txt", summary),
    ], None


FIG1_DEFAULTS = dict(T=1.0, p=0.1, epsilon=0.01, delta=0.1, t_max=10.0,
                     j_max=10_000, n_paths=100, stride=25)


def cmd_fig1(args, doc, spec):
    p = dict(FIG1_DEFAULTS)
    if args.paths is not None:
        p["n_paths"] = args.paths
    seed = args.seed if args.seed is not None else 0
    digest_src = "fig1:" + ",".join(f"{k}={v}" for k, v in sorted(p.items()))
    digest = hashlib.sha256(digest_src.encode()).hexdigest()

    spec = jammed_es(JamParams(p["T"], p["p"], p["epsilon"]), p["delta"])
    inits = [StateVec(np.array([-2.0]), np.array([0.0]), 0.0),
             StateVec(np.array([2.0]), np.array([0.0]), 0.0)]
    horizon = Horizon(p["t_max"], p["j_max"])
    cfg = IntegratorConfig()
    ensemble = simulate_ensemble(spec, inits, p["n_paths"], seed, horizon, cfg)
    # nominal run: same dynamics, jamming disabled by a unit-gain point mass
    nominal_spec = dataclasses.replace(spec, noise=JumpNoise.finite([[0.25]], [1.0]))
    nominal = simulate_path(nominal_spec, inits[1], seed, horizon, cfg)

    header = ["path_id", "kind", "t", "j", "x_1", "r_1", "tau", "event"]
    stride = p["stride"]

    def all_lines():
        yield ",".join(header)
        for pid, arc in enumerate(ensemble):
            yield from _arc_lines(arc, pid, stride=stride, kind="jammed")
        yield from _arc_lines(nominal, len(ensemble), stride=stride, kind="nominal")

    def strided(seg_attr, arc):
        ts, ys = [], []
        for seg in arc.segments:
            ts.extend(seg.t[::stride])
            ys.extend(getattr(seg, seg_attr)[::stride, 0])
            ts.append(seg.t[-1])
            ys.append(getattr(seg, seg_attr)[-1, 0])
        return ts, ys

    main_panel = Panel("sample paths under periodic random jamming", "t", "x")
    for arc in ensemble:
        ts, ys = strided("x", arc)
        main_panel.curves.append(Curve(ts, ys, "#999999", 0.6, 0.45))
    ts, ys = strided("x", nominal)
    main_panel.curves.append(Curve(ts, ys, "#1f4fbf", 1.4, 1.0))
    clock_panel = Panel("resetting clock (jump instants)", "t", "r")
    ts, ys = strided("r", nominal)
    clock_panel.curves.append(Curve(ts, ys, "#1f4fbf", 0.9, 1.0))
    svg = render_panels([main_panel, clock_panel]).splitlines()
    return 0, seed, [("fig1.csv", all_lines()), ("fig1.svg", svg)], digest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridavg",
        description="Simulate stochastic hybrid systems and verify averaging-based "
                    "stability certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, config=True, paths=False, t_max=False):
        sp = sub.add_parser(name, help=summary)
        if config:
            sp.add_argument("--config", required=True, help="path to the run config")
        sp.add_argument("--seed", type=int, default=None, help="base RNG seed")
        sp.add_argument("--out", default="out", help="output directory")
        if paths:
            sp.add_argument("--paths", type=int, default=None)
        if t_max:
            sp.add_argument("--t-max", dest="t_max", type=float, default=None)
        sp.set_defaults(fn=fn)
        return sp

    command("simulate", cmd_simulate, "run an ensemble and dump trajectories",
            paths=True, t_max=True)
    command("average", cmd_average, "estimate the average map and gamma curve")
    sp = command("certify", cmd_certify, "check the stability certificate (exit 2 on fail)")
    sp.add_argument("--safety-margin", dest="safety_margin", type=float, default=None)
    sp = command("recur", cmd_recur, "estimate recurrence of an inflated target ball",
                 paths=True, t_max=True)
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--bound", type=float, default=None, help="initial-condition bound R")
    sp = command("sweep", cmd_sweep, "certified recurrence radius per epsilon",
                 paths=True, t_max=True)
    sp.add_argument("--eps", nargs="+", default=None, help="epsilon values (decreasing)")
    command("fig1", cmd_fig1, "reproduce the jammed-optimizer ensemble figure",
            config=False, paths=True)
    return parser


def _run(args) -> int:
    """Run one command and write its outputs and manifest into --out.

    The command gets the loaded config and system (None for fig1, which
    takes no --config) and returns (exit code, seed, [(file name, lines)],
    digest override).  --out is created only after the command returns, so a
    failing command leaves nothing behind; CSV lines stream from generators
    while they are written.
    """
    started = time.time()
    doc = spec = None
    if getattr(args, "config", None) is not None:
        doc = ConfigDocument.load(args.config)
        spec = load_system(doc)
    code, seed, outputs, digest = args.fn(args, doc, spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, lines in outputs:
        with open(outdir / name, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    manifest = {
        "command": args.command,
        "config_digest": digest if digest is not None else doc.digest(),
        "seed_base": int(seed),
        "toolkit_version": __version__,
        "duration_seconds": round(time.time() - started, 3),
        "outputs": sorted(name for name, _ in outputs),
    }
    with open(outdir / f"{args.command}_manifest.json", "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit code 2 is reserved for
        # analysis verdict failures, so usage problems map to 1
        return 0 if exc.code in (0, None) else 1
    try:
        # every map output is checked for finiteness where it is used, so
        # numpy's floating-point warnings would only repeat the error line
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _run(args)
    except (ConfigError, ExpressionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MapEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
