"""Command-line front end: simulate | average | certify | recur | sweep | fig1.

Each command is a function (doc, spec) of the config document and its
system; it never sees the parsed arguments, computes its results and returns
(exit code, seed, [(file name, lines)]).  One runner, _run, does the rest for
all six: it loads the config (fig1's is FIG1_CONFIG), hands it the flags
given as its first layer and builds its system, creates --out once the
command has returned, writes every output file and a JSON run manifest.
FLAGS maps each flag to the config key it sets, and its text goes through
that key's reader and guard, so a bad value is a config error naming the
flag.  A run is deterministic for a fixed config digest and seed.  Exit codes:
0 success/pass, 1 usage or config error, 2 analysis verdict fail.  Floats are
written with shortest round-trip formatting.  The t, r and tau columns that
lockstep paths share are formatted once per command and reused for every path
holding them; the output is the same as formatting each path alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import check_jacobian_average, estimate_average_map, estimate_gamma
from .certificates import CertGrid, foster_certificate
from .config import ConfigDocument, ConfigError, as_document
from .core import JumpNoise, StateVec
from .expressions import AverageField, ExpressionError, ScalarField
# simulate_path stays a name of this module: benchmarks/tracing.py wraps cli.simulate_path
from .solver import (
    Horizon,
    IntegratorConfig,
    MapEvaluationError,
    simulate_ensemble,
    simulate_path,  # noqa: F401
)
from .stats import epsilon_sweep, first_start_outside, recurrence_estimate
from .svgplot import Curve, Panel, render_panels
# jammed_es stays a name of this module: benchmarks/tracing.py wraps cli.jammed_es
from .systems import compile_key, jammed_es, load_system  # noqa: F401

#: each command-line flag and the config key it sets
FLAGS = {"--paths": "n_paths", "--t-max": "t_max", "--seed": "seed", "--radius": "radius",
         "--rho": "rho", "--bound": "R", "--safety-margin": "safety_margin",
         "--eps": "eps_values"}

#: fig1's run; every value it does not set is the schema default: period 1,
#: jam_prob 0.1, epsilon 0.01, delta 0.1, 100 paths, t_max 10, j_max 10000
FIG1_CONFIG = "[system]\nkind = jammed-es\n\n[simulate]\nx0 = -2 2\n"


def _f(v) -> str:
    return repr(float(v))


def _vec(v) -> str:
    return ";".join(_f(c) for c in np.atleast_1d(v))


def _csv(header, rows):
    """Lines of a CSV file, streamed: the header, then one line per row."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(row)


def _ensemble_inputs(doc: ConfigDocument, spec, section: str):
    """(inits, n_paths, horizon, integrator config, seed) of [section].

    Initial conditions are x0 as ';'-separated vectors (scalars when n = 1)
    with a shared r0 in C or D and tau0.
    """
    horizon = Horizon(doc.get_float(section, "t_max"), doc.get_int(section, "j_max"))
    n_paths = doc.get_int(section, "n_paths")
    cfg = IntegratorConfig(doc.get_float(section, "base_step"),
                           doc.get_float(section, "substep_per_epsilon"))
    x0s = doc.get_float_groups(section, "x0")
    if spec.n == 1:
        x0s = [[value] for group in x0s for value in group]
    r0 = doc.get_float_list(section, "r0")
    tau0 = doc.get_float(section, "tau0")
    inits = []
    for x0 in x0s:
        if len(x0) != spec.n or len(r0) != spec.p:
            key = "r0" if len(r0) != spec.p else "x0"
            raise ConfigError(
                f"{doc.where(section, key)}: initial condition dims "
                f"(x:{len(x0)}, r:{len(r0)}) do not match system (n={spec.n}, p={spec.p})")
        inits.append(StateVec(np.array(x0), np.array(r0), tau0))
    if not spec.flow_or_jump_set.contains(r0):
        raise ConfigError(f"{doc.where(section, 'r0')}: r0 = {r0} lies in neither C nor D")
    return inits, n_paths, horizon, cfg, doc.get_int(section, "seed")


def _check_starts(doc: ConfigDocument, section: str, inits, R: float):
    """A config error naming [section] R, before any path runs, when a start lies outside it."""
    outside = first_start_outside([s.x for s in inits], [s.r for s in inits], R)
    if outside is not None:
        k, z0 = outside
        raise ConfigError(f"{doc.where(section, 'R')}: the start x0 = {inits[k].x.tolist()}, "
                          f"r0 = {inits[k].r.tolist()} has |z(0,0)| = {z0!r} > R = {R!r}")


def _columns(a):
    """The repr of every float in each column of a; a 1-D array is one column."""
    return [list(map(repr, col.tolist())) for col in (a.T if a.ndim == 2 else [a])]


def _arc_lines(arcs, stride: int = 1, kinds=None):
    """CSV lines for arcs as paths 0, 1, ...: flow samples (strided), jump post-states, terminal.

    Each segment is formatted column by column and then joined row by row, so
    lines stream out one segment at a time.  Lockstep members share one t, r
    and tau array per segment: such an array is formatted once, on its first
    use, and its strings are kept while the lines are written.  x is
    formatted per path.
    """
    arcs = list(arcs)  # keeps every keyed array alive, so no id is reused
    memo = {}

    def shared(a, keep):
        cols = memo.get(id(a))
        if cols is None:
            cols = memo[id(a)] = _columns(a[keep])
        return cols

    for path_id, arc in enumerate(arcs):
        head = [str(path_id)] + ([kinds[path_id]] if kinds is not None else [])
        last = None
        for si, seg in enumerate(arc.segments):
            count = seg.t.shape[0]
            keep = slice(None)
            if stride > 1:
                keep = list(range(0, count, stride)) + ([count - 1] if (count - 1) % stride else [])
            (t,), r, (tau,) = (shared(a, keep) for a in (seg.t, seg.r, seg.tau))
            rest = [*_columns(seg.x[keep]), *r, tau]
            j = str(int(seg.j))
            events = ["jump" if si > 0 else "flow"] + ["flow"] * (len(t) - 1)
            yield from map(",".join, zip(*map(repeat, head), t, repeat(j), *rest, events))
            last = [*head, t[-1], j, *(col[-1] for col in rest)]
        if last is not None:
            yield ",".join(last + ["terminal"])


def cmd_simulate(doc, spec):
    inits, n_paths, horizon, cfg, seed = _ensemble_inputs(doc, spec, "simulate")
    ensemble = simulate_ensemble(spec, inits, n_paths, seed, horizon, cfg)
    header = (["path_id", "t", "j"] + [f"x_{i+1}" for i in range(spec.n)]
              + [f"r_{i+1}" for i in range(spec.p)] + ["tau", "event"])
    return 0, seed, [("simulate.csv", chain([",".join(header)], _arc_lines(ensemble)))]


#: a registered favg may deviate from the long-window mean at an [average]
#: grid node by at most this share of max(1, the largest |window mean|)
FAVG_REL_TOL = 1e-6


def _average_system(doc: ConfigDocument, spec):
    """The [average] grids, the average system and its failed favg check's line, or None.

    A grid that cannot be averaged over is a config error.  The average
    system wraps the registered favg, or takes the long-window mean itself
    as its average map when there is none.  A favg that deviates from a
    window mean by more than FAVG_REL_TOL * max(1, max |window mean|) fails:
    it is not the flow's average.
    """
    x_axes = [np.array(axis) for axis in doc.get_float_groups("average", "x_values")]
    if len(x_axes) != spec.n:
        raise ConfigError(f"[average] x_values needs {spec.n} axis/axes")
    r_points = doc.get_int("average", "r_points")
    lo, hi = spec.flow_or_jump_set.bounding_box()
    r_axes = [np.linspace(lo[d], hi[d], r_points) if lo[d] < hi[d]
              else np.array([lo[d]]) for d in range(spec.p)]
    period = doc.get_float("average", "tau_period")
    tau_grid = np.linspace(0.0, period, doc.get_int("average", "tau_points"), endpoint=False)
    T_values = doc.get_float_list("average", "T_values")
    if T_values is not None:
        T_grid = np.array(T_values)
        T_keys, T_set = "T_values", T_values
    else:
        T_min = doc.get_float("average", "T_min")
        T_max = doc.get_float("average", "T_max")
        T_grid = np.linspace(T_min, T_max, doc.get_int("average", "T_points"))
        T_keys, T_set = "T_min, T_max", [T_min, T_max]
    if not (T_grid.size and T_grid[0] > 0.0 and np.all(np.diff(T_grid) > 0.0)):
        raise ConfigError(f"[average] {T_keys}: window lengths T must be > 0 and strictly "
                          f"increasing, got {T_set}")
    T_long = doc.get_float("average", "T_long_periods") * period
    if not math.isfinite(T_long):  # > 0, as T_long_periods >= 1 and tau_period > 0
        raise ConfigError(f"[average] T_long_periods, tau_period: the long window "
                          f"T_long_periods * tau_period must be finite, got {T_long!r}")
    grids = x_axes, r_axes, tau_grid, T_grid, T_long
    exprs = compile_key(doc, "average", "favg", ("x", "r"), spec.n, {"x": spec.n, "r": spec.p})
    favg = None if exprs is None else AverageField(exprs, spec.n)
    avg = estimate_average_map(spec, x_axes, r_axes, T_long, f_ave=favg)
    tol = FAVG_REL_TOL * max(1.0, float(np.max(np.abs(avg.table))))
    if favg is None or avg.nodal_residual <= tol:
        return grids, avg, None
    x, r = (c.tolist() for c in avg.nodal_witness)
    return grids, avg, (f"[average] favg: deviation {_f(avg.nodal_residual)} from the window "
                        f"mean at x = {x!r}, r = {r!r} exceeds the tolerance {tol:.3g} "
                        f"({FAVG_REL_TOL:g} * max(1, max |window mean|))")


def cmd_average(doc, spec):
    (x_axes, r_axes, tau_grid, T_grid, T_long), avg, failure = _average_system(doc, spec)

    x_pts = np.stack(np.meshgrid(*x_axes, indexing="ij"), axis=-1).reshape(-1, spec.n)
    x_pts = x_pts[np.linalg.norm(x_pts, axis=-1) > 0.0]
    r_pts = np.stack(np.meshgrid(*r_axes, indexing="ij"), axis=-1).reshape(-1, spec.p)
    gamma = estimate_gamma(spec, avg.f_ave, x_pts, r_pts, tau_grid, T_grid)
    jac = check_jacobian_average(spec, avg.f_ave, x_pts, r_pts, tau_grid, T_grid)

    gamma_rows = ([_f(T), _f(gamma.values[k]), _f(gamma.envelope[k]), _f(jac.values[k]),
                   _vec(gamma.witnesses[k][0]), _vec(gamma.witnesses[k][1]),
                   _f(gamma.witnesses[k][2])]
                  for k, T in enumerate(gamma.windows))
    grid_nodes = np.stack([m.ravel() for m in np.meshgrid(*x_axes, *r_axes, indexing="ij")],
                          axis=-1)
    table_rows = ([_vec(z[: spec.n]), _vec(z[spec.n:]), _vec(fz)]
                  for z, fz in zip(grid_nodes, avg.table.reshape(-1, spec.n)))

    report = [f"window length for the tabulated average: T_long = {_f(T_long)}",
              f"registered closed form: {'yes' if avg.nodal_witness is not None else 'no'}",
              f"max nodal deviation from closed form: {_f(avg.nodal_residual)}"]
    if gamma.envelope[0] > 0.0:
        trend = gamma.envelope[-1] / gamma.envelope[0]
        report.append(f"gamma trend envelope(T_last)/envelope(T_first) = {_f(trend)} "
                      f"(diagnostic: <= 0.1 indicates a well-averaged field)")
    # the slack absorbs finite-difference noise where the two curves coincide
    flagged = [str(float(T)) for T, v, e in zip(gamma.windows, jac.values, gamma.envelope)
               if v > e * (1.0 + 1e-6) + 1e-9]
    report.append("jacobian residual exceeds state gamma envelope at T values: "
                  + (", ".join(flagged) or "none"))
    report.append("results are grid-certified suprema, not proofs")
    if failure:
        print(failure)
        report.append(failure)
    return (2 if failure else 0), None, [
        ("average_gamma.csv", _csv(["T", "gamma_raw", "gamma_envelope", "jac_gamma_raw",
                                    "witness_x", "witness_r", "witness_tau"], gamma_rows)),
        ("average_favg.csv", _csv(["x", "r", "favg"], table_rows)),
        ("average_report.txt", report),
    ]


def cmd_certify(doc, spec):
    radius_min = doc.get_float("certify", "radius_min")
    radius_max = doc.get_float("certify", "radius_max")
    if radius_min >= radius_max:
        raise ConfigError(f"[certify] radius_min, radius_max: radius_min must be < "
                          f"radius_max, got {radius_min!r} >= {radius_max!r}")
    (v_expr,) = compile_key(doc, "certify", "V", ("x", "r"), 1, {"x": spec.n, "r": spec.p})
    V = ScalarField(v_expr)
    if doc.get_expr_list("average", "favg") is None:
        raise ConfigError("certification needs [average] favg (registered average map)")
    _, avg, failure = _average_system(doc, spec)
    if failure:
        print(failure)
        return 2, None, [("certify_report.txt", [failure])]
    grid = CertGrid(radius_min=radius_min, radius_max=radius_max,
                    radial_points=doc.get_int("certify", "radial_points"),
                    r_points=doc.get_int("certify", "r_points"))
    cert = foster_certificate(V, avg, grid,
                              safety_margin=doc.get_float("certify", "safety_margin"))
    report = str(cert)
    print(report)
    return (0 if cert.verdict else 2), None, [("certify_report.txt", [report])]


def cmd_recur(doc, spec):
    inits, n_paths, horizon, cfg, seed = _ensemble_inputs(doc, spec, "recur")
    radius, rho, bound = (doc.get_float("recur", key) for key in ("radius", "rho", "R"))
    _check_starts(doc, "recur", inits, bound)
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
    ]


def cmd_sweep(doc, spec):
    eps_list = doc.get_float_list("sweep", "eps_values")
    inits, n_paths, horizon, cfg, seed = _ensemble_inputs(doc, spec, "sweep")
    radius_max, rho, R = (doc.get_float("sweep", key) for key in ("radius_max", "rho", "R"))
    _check_starts(doc, "sweep", inits, R)
    result = epsilon_sweep(spec, eps_list, inits, seed, radius_max=radius_max, rho=rho, R=R,
                           n_paths=n_paths, horizon=horizon, cfg=cfg)

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
    ]


def cmd_fig1(doc, spec):
    inits, n_paths, horizon, cfg, seed = _ensemble_inputs(doc, spec, "simulate")
    # the nominal path is the last member: same dynamics, jamming disabled by a
    # unit-gain point mass (its draw ignores its seed); h resets r whatever v
    # is, so it stays in the jammed paths' lockstep group
    starts = [inits[i % len(inits)] for i in range(n_paths)] + [inits[1]]
    noises = [spec.noise] * n_paths + [JumpNoise.finite([[0.25]], [1.0])]
    *ensemble, nominal = simulate_ensemble(spec, starts, n_paths + 1, seed, horizon, cfg,
                                           noises=noises)

    header = ["path_id", "kind", "t", "j", "x_1", "r_1", "tau", "event"]
    stride = 25

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
    lines = _arc_lines([*ensemble, nominal], stride, ["jammed"] * len(ensemble) + ["nominal"])
    return 0, seed, [("fig1.csv", chain([",".join(header)], lines)), ("fig1.svg", svg)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridavg",
        description="Simulate stochastic hybrid systems and verify averaging-based "
                    "stability certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *flags):
        # a flag is kept as text: its config key's reader and guard check it
        sp = sub.add_parser(name, help=summary)
        for flag in ("--seed", *flags):
            sp.add_argument(flag, dest=FLAGS[flag], nargs="+" if flag == "--eps" else None,
                            help=f"sets the config key {FLAGS[flag]}")
        sp.add_argument("--out", default="out", help="output directory")
        sp.set_defaults(fn=fn)
        return sp

    for name, fn, summary, *flags in (
            ("simulate", cmd_simulate, "run an ensemble and dump trajectories",
             "--paths", "--t-max"),
            ("average", cmd_average, "estimate the average map and gamma curve"),
            ("certify", cmd_certify, "check the stability certificate (exit 2 on fail)",
             "--safety-margin"),
            ("recur", cmd_recur, "estimate recurrence of an inflated target ball",
             "--paths", "--t-max", "--radius", "--rho", "--bound"),
            ("sweep", cmd_sweep, "certified recurrence radius per epsilon",
             "--paths", "--t-max", "--eps")):
        command(name, fn, summary, *flags).add_argument(
            "--config", required=True, type=Path, help="path to the run config")
    command("fig1", cmd_fig1, "reproduce the jammed-optimizer ensemble figure",
            "--paths").set_defaults(config=FIG1_CONFIG)
    return parser


def _run(args) -> int:
    """Run one command and write its outputs and manifest into --out.

    The command gets the config document, with the flags given as its first
    layer, and its system, and returns (exit code, seed, [(file name, lines)]).
    --out is created only after the command returns, so a failing command
    leaves nothing behind; CSV lines stream from generators while they are
    written.
    """
    started = time.time()
    given = {key: (flag, value if isinstance(value, str) else " ".join(value))
             for flag, key in FLAGS.items() if (value := getattr(args, key, None)) is not None}
    doc = dataclasses.replace(as_document(args.config), flags=given)
    spec = load_system(doc)
    code, seed, outputs = args.fn(doc, spec)
    seed = int(args.seed or 0) if seed is None else seed  # average and certify draw none
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, lines in outputs:
        with open(outdir / name, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    manifest = {
        "command": args.command,
        "config_digest": doc.digest(),
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
    except (ValueError, OSError, MemoryError, MapEvaluationError) as exc:
        # a MemoryError may carry no text: then its type names what failed
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
