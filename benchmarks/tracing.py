"""Spans around hybridavg's public functions, and the per-layer split they give.

The program is not instrumented.  While a Tracer is active it swaps the
module attributes through which the program and the benchmark reach each
layer for timing wrappers, and it wraps every map, V and sampler callable the
benchmark hands to the program.  A span is (name, start, end, parent); spans
stay in memory until the run ends.  A span's self time is its duration minus
the durations of its child spans (calls nest, so children never overlap).
"""

from __future__ import annotations

import dataclasses
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

_SOLVER = ("solver.simulate_ensemble", "solver.simulate_path")
_AVERAGING = ("averaging.estimate_average_map", "averaging.estimate_gamma",
              "averaging.check_jacobian_average")
_CERTIFICATES = ("certificates.foster_certificate",)
_F_MAPS = ("systems.f", "expressions.f", "bench.f")

#: unit of every per-layer metric, in the order they are reported
LAYER_UNITS = {
    "solver.self_s": "s",
    "solver.us_per_path_step": "us",
    "solver.rows_per_f_call": "rows",
    "solver.useful_row_share": "ratio",
    "solver.path_steps": "count",
    "solver.jumps": "count",
    "solver.f_rows": "rows",
    "systems.f_s": "s",
    "systems.f_calls": "count",
    "expressions.eval_s": "s",
    "expressions.eval_calls": "count",
    "expressions.us_per_call": "us",
    "averaging.table_s": "s",
    "averaging.gamma_s": "s",
    "averaging.jacobian_s": "s",
    "averaging.f_calls": "count",
    "averaging.rows_per_f_call": "rows",
    "certificates.self_s": "s",
    "certificates.sampler_calls": "count",
    "certificates.sampler_s": "s",
    "certificates.V_calls": "count",
    "stats.recurrence_s": "s",
    "stats.recurrence_calls": "count",
    "stats.envelope_s": "s",
    "core.distance_calls": "count",
    "core.distance_rows": "rows",
    "stats.useful_distance_share": "ratio",
    "cli.self_s": "s",
    "svgplot.render_s": "s",
    "cli.bytes_written": "bytes",
    "config.load_s": "s",
    "trace.overhead_s": "s",
}

#: metrics that must repeat exactly between two traced passes of one seed
EXACT_UNITS = ("count", "rows", "bytes", "ratio")


def _rows(args) -> int:
    """Batch rows of a map call: the leading dimension of its first argument."""
    first = args[0] if args else None
    return first.shape[0] if getattr(first, "ndim", 0) >= 2 else 1


def _origin(fn) -> str:
    """Layer a map belongs to: built-in (systems), compiled (expressions) or bench."""
    module = getattr(getattr(fn, "func", fn), "__module__", "") or ""
    for layer in ("systems", "expressions"):
        if module.endswith("." + layer):
            return layer
    return "bench"


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


class NullTracer:
    """Stand-in when tracing is off: hands every callable through unchanged."""

    def map(self, name, fn):
        return fn

    def spec(self, spec):
        return spec


class Tracer:
    """Records spans and counts for one traced pass over a workload."""

    def __init__(self, hv):
        self.hv = hv
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._arcs: dict[int, weakref.ref] = {}

    def wrap(self, name, fn, rows=None, before=None, after=None):
        """A callable that runs fn inside a span called name."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        # bound once: the wrapper runs around every map call, so it must be lean
        stack, push, pop = self._stack, self._stack.append, self._stack.pop
        add_name, add_parent, add_rows = self.name_id.append, self.parent.append, self.rows.append
        add_start, add_end, end = self.start.append, self.end.append, self.end

        def traced(*args, **kwargs):
            sid = len(end)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_rows(rows(args) if rows is not None else 0)
            add_end(0.0)
            if before is not None:
                before(args)
            push(sid)
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                pop()
            return result if after is None else after(result)

        traced.bench_traced = True
        return traced

    def map(self, name, fn):
        """Wrap a map, V or sampler callable, counting the rows of its first argument."""
        if getattr(fn, "bench_traced", False):
            return fn
        return self.wrap(name, fn, rows=_rows)

    def spec(self, spec):
        """The same system with every map (and a sampler, if any) traced."""
        hv = self.hv
        maps = {role: self.map(f"{_origin(fn)}.{role}", fn)
                for role, fn in (("f", spec.f), ("w", spec.w), ("g", spec.g), ("h", spec.h))}
        noise = spec.noise
        if noise.kind == "sampler-only" and not getattr(noise.sampler, "bench_traced", False):
            noise = hv.core.JumpNoise.from_sampler(self.map("noise.sampler", noise.sampler),
                                                   noise.m)
        return dataclasses.replace(spec, noise=noise, **maps)

    def _count_arcs(self, result):
        arcs = result if isinstance(result, list) else [result]
        for arc in arcs:
            self.counts["solver.path_steps"] += sum(s.t.shape[0] - 1 for s in arc.segments)
            self.counts["solver.jumps"] += len(arc.jumps)
        return result

    def _note_analysed(self, args):
        """Count each analysed arc's samples once: the rows a single pass must read."""
        for arc in args[0]:
            ref = self._arcs.get(id(arc))
            if ref is not None and ref() is arc:
                continue
            self._arcs[id(arc)] = weakref.ref(arc)
            self.counts["stats.arc_samples"] += sum(s.t.shape[0] for s in arc.segments)

    def _wrap_factory(self, name, cls):
        return lambda *args, **kwargs: self.map(name, cls(*args, **kwargs))

    @contextmanager
    def active(self):
        """Swap the layer entry points for traced wrappers; restore them on exit."""
        hv = self.hv
        cli, stats, solver = hv.cli, hv.stats, hv.solver
        traced_spec = self.spec
        patches = [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (cli, "load_system", self.wrap("systems.load_system", cli.load_system,
                                           after=traced_spec)),
            (cli, "jammed_es", self.wrap("systems.jammed_es", cli.jammed_es,
                                         after=traced_spec)),
            (cli, "AverageField", self._wrap_factory("expressions.favg", cli.AverageField)),
            (cli, "ScalarField", self._wrap_factory("expressions.V", cli.ScalarField)),
            (cli, "render_panels", self.wrap("svgplot.render_panels", cli.render_panels)),
            (cli, "epsilon_sweep", self.wrap("stats.epsilon_sweep", cli.epsilon_sweep)),
            (stats, "uges_m_fit", self.wrap("stats.uges_m_fit", stats.uges_m_fit,
                                            before=self._note_analysed)),
            (stats, "distances_to_target",
             self.wrap("core.distances_to_target", stats.distances_to_target, rows=_rows)),
            (hv.certificates, "foster_certificate",
             self.wrap("certificates.foster_certificate", hv.certificates.foster_certificate)),
            (cli, "foster_certificate",
             self.wrap("certificates.foster_certificate", cli.foster_certificate)),
        ]
        for module, attr in ((cli, "estimate_average_map"), (cli, "estimate_gamma"),
                             (cli, "check_jacobian_average")):
            patches.append((module, attr, self.wrap(f"averaging.{attr}", getattr(module, attr))))
        for module in (cli, stats, solver):
            patches.append((module, "simulate_ensemble",
                            self.wrap("solver.simulate_ensemble", module.simulate_ensemble,
                                      after=self._count_arcs)))
        for module in (cli, solver):
            patches.append((module, "simulate_path",
                            self.wrap("solver.simulate_path", module.simulate_path,
                                      after=self._count_arcs)))
        for module in (cli, stats):
            patches.append((module, "recurrence_estimate",
                            self.wrap("stats.recurrence_estimate", module.recurrence_estimate,
                                      before=self._note_analysed)))
        doc_cls = hv.config.ConfigDocument
        patches.append((doc_cls, "load",
                        staticmethod(self.wrap("config.load", doc_cls.load))))

        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapper in patches:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)

    def layer_metrics(self, wall_overhead: float) -> dict:
        """The per-layer split of the spans and counts recorded so far."""
        names = np.array(self.names)
        name = names[np.frombuffer(self.name_id, dtype=np.int32)]
        parent = np.frombuffer(self.parent, dtype=np.int32)
        rows = np.frombuffer(self.rows, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[nested], dur[nested])
        self_t = dur - covered

        # the nearest solver, averaging or certificates span above each span
        owner_kind = {n: n.split(".")[0] for n in _SOLVER + _AVERAGING + _CERTIFICATES}
        owner = []
        for n, par in zip(name.tolist(), self.parent):
            kind = owner_kind.get(n)
            owner.append(kind if kind is not None else (owner[par] if par >= 0 else None))
        owner = np.array(owner, dtype=object)

        def pick(*names_, under=None):
            mask = np.isin(name, names_)
            return mask if under is None else mask & (owner == under)

        solver = pick(*_SOLVER)
        solver_f = pick(*_F_MAPS, under="solver")
        averaging_f = pick(*_F_MAPS, under="averaging")
        expr = np.char.startswith(name, "expressions.")
        sampler = pick("noise.sampler", under="certificates")
        distance = pick("core.distances_to_target")
        path_steps = self.counts["solver.path_steps"]
        f_rows = int(rows[solver_f].sum())
        distance_rows = int(rows[distance].sum())
        expr_calls = int(expr.sum())
        return {
            "solver.self_s": float(self_t[solver].sum()),
            "solver.us_per_path_step": _ratio(dur[solver].sum() * 1e6, path_steps),
            "solver.rows_per_f_call": _ratio(f_rows, solver_f.sum()),
            "solver.useful_row_share": _ratio(4 * path_steps, f_rows),
            "solver.path_steps": path_steps,
            "solver.jumps": self.counts["solver.jumps"],
            "solver.f_rows": f_rows,
            "systems.f_s": float(dur[pick("systems.f")].sum()),
            "systems.f_calls": int(pick("systems.f").sum()),
            "expressions.eval_s": float(dur[expr].sum()),
            "expressions.eval_calls": expr_calls,
            "expressions.us_per_call": _ratio(dur[expr].sum() * 1e6, expr_calls),
            "averaging.table_s": float(dur[pick(_AVERAGING[0])].sum()),
            "averaging.gamma_s": float(dur[pick(_AVERAGING[1])].sum()),
            "averaging.jacobian_s": float(dur[pick(_AVERAGING[2])].sum()),
            "averaging.f_calls": int(averaging_f.sum()),
            "averaging.rows_per_f_call": _ratio(rows[averaging_f].sum(), averaging_f.sum()),
            "certificates.self_s": float(self_t[pick(*_CERTIFICATES)].sum()),
            "certificates.sampler_calls": int(sampler.sum()),
            "certificates.sampler_s": float(dur[sampler].sum()),
            "certificates.V_calls": int(np.char.endswith(name, ".V").sum()),
            "stats.recurrence_s": float(dur[pick("stats.recurrence_estimate")].sum()),
            "stats.recurrence_calls": int(pick("stats.recurrence_estimate").sum()),
            "stats.envelope_s": float(dur[pick("stats.uges_m_fit")].sum()),
            "core.distance_calls": int(distance.sum()),
            "core.distance_rows": distance_rows,
            "stats.useful_distance_share": _ratio(self.counts["stats.arc_samples"],
                                                  distance_rows),
            "cli.self_s": float(self_t[pick("cli.main")].sum()),
            "svgplot.render_s": float(dur[pick("svgplot.render_panels")].sum()),
            "cli.bytes_written": self.counts["cli.bytes_written"],
            "config.load_s": float(dur[pick("config.load")].sum()),
            "trace.overhead_s": float(wall_overhead),
        }

    def write_spans(self, path, origin: float):
        """Write every span as id,name,start,end,parent (seconds from origin)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start,end,parent\n")
            for i, (nid, t0, t1, par) in enumerate(zip(self.name_id, self.start,
                                                       self.end, self.parent)):
                fh.write(f"{i},{self.names[nid]},{t0 - origin!r},{t1 - origin!r},{par}\n")
