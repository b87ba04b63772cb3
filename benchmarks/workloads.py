"""The benchmark's three workloads, their inputs and their output checks.

Every workload is closed-loop: one caller runs each operation when the
previous one has finished.  Inputs come from the workload seed alone; the
program sees only the generated inputs.

* ``shipped``: the README's six commands on the shipped configs, in process
  through ``hybridavg.cli.main``.  It is the only workload that runs the
  averaging estimates and CSV/SVG formatting, and the only one whose
  simulation evaluates expression-compiled maps.
* ``mixed-starts``: ensembles whose paths cannot share one lockstep batch
  (mixed initial aux states, or aux rows that split at the first jump), so
  ``simulate_ensemble`` reruns every path alone.  Analysis is light.
* ``wide-analysis``: one 500-path lockstep ensemble, then the analysis
  layer (recurrence bisection, envelope fit) and a Monte Carlo certificate
  with a sampler-only noise.  Post-processing dominates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

CONFIGS = ("actuator.cfg", "actuator_expr.cfg", "es.cfg")
MODULES = ("config", "systems", "expressions", "core", "solver", "averaging",
           "certificates", "stats", "svgplot", "cli")

_MASK = (1 << 64) - 1


def _splitmix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def keyed_uniform(*key: int) -> float:
    """A uniform in [0, 1) fixed by the integer key (pure Python, cheap)."""
    z = 0
    for k in key:
        z = _splitmix(z ^ (k & _MASK))
    return z / 2.0 ** 64


def digest(obj, h=None) -> str:
    """sha256 over the exact bits of arrays, dataclasses, sequences and scalars."""
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            digest(getattr(obj, field.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            digest(item, h)
    else:
        h.update(f"s{obj!r}".encode())
    return h.hexdigest() if top else ""


def fresh_import(src: Path):
    """Import hybridavg from src anew, dropping any copy already imported."""
    for name in [m for m in sys.modules if m == "hybridavg" or m.startswith("hybridavg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("hybridavg")
    if Path(pkg.__file__).resolve().parent != (src / "hybridavg").resolve():
        raise RuntimeError(f"imported hybridavg from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"hybridavg.{m}")
                                    for m in MODULES})


#: the probe's time on an uncontended core of a 2-vCPU Intel Xeon; reported
#: times are scaled to the CPU speed at which the probe takes this long
PROBE_REF_S = 0.002
_PROBE_X = np.linspace(0.0, 1.0, 16)


def probe() -> float:
    """Seconds for a fixed loop of small numpy calls: the CPU's speed right now.

    On a shared host the CPU can run up to 2x slower for minutes at a time.
    Scaling an operation's time by PROBE_REF_S over the probe's time, taken
    around it, takes that drift out of the reported figure.
    """
    t0 = perf_counter()
    for _ in range(1500):
        np.sin(_PROBE_X) * 2.0 + _PROBE_X
    return perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """An elapsed time scaled by the probes taken just before and after it."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


class Pass:
    """Per-operation times, outcomes and outputs of one pass over a workload."""

    def __init__(self):
        self.times: dict[str, float] = {}  # at reference CPU speed
        self.raw: dict[str, float] = {}  # as measured
        self.probes: list[float] = []
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []  # (operation label, reason)
        self.outputs: dict[str, object] = {}
        self.counts: dict[str, int] = {}
        self.results: dict[str, object] = {}  # kept for check_once, then dropped
        self.wall = self.wall_raw = 0.0

    def probe(self) -> float:
        self.probes.append(probe())
        return self.probes[-1]

    def op(self, metric: str, label: str, fn, repeat: int = 1):
        """Run fn `repeat` times; add its time per call to `metric`."""
        before = self.probes[-1] if self.probes else self.probe()
        t0 = perf_counter()
        try:
            for _ in range(repeat):
                self.attempted += 1
                out = fn()
        except Exception as exc:  # a failed operation is counted, and the pass goes on
            self.fail(label, f"{type(exc).__name__}: {exc}")
            self.probe()
            return None
        elapsed = (perf_counter() - t0) / repeat
        self.raw[metric] = self.raw.get(metric, 0.0) + elapsed
        self.times[metric] = (self.times.get(metric, 0.0)
                              + at_reference_speed(elapsed, before, self.probe()))
        return out

    def fail(self, label: str, why: str):
        self.failures.append((label, why))


class Workload:
    """Inputs and operations of one workload; subclasses fill in the details."""

    name = ""
    #: end-to-end metric of each operation kind, besides wall_s and setup_s
    op_metrics: tuple = ()
    #: output labels whose reference digest holds for every seed
    seed_free: frozenset = frozenset()

    def __init__(self, root: Path, seed: int, out: Path):
        self.root, self.seed, self.out = root, seed, out

    def load(self, hv, tr):
        """Load the configs and build the specs and inputs handed to the program."""
        docs = {name: hv.config.ConfigDocument.load(self.root / "configs" / name)
                for name in CONFIGS}
        specs = {name: tr.spec(hv.systems.load_system(doc)) for name, doc in docs.items()}
        return self.inputs(hv, tr, docs, specs)

    def inputs(self, hv, tr, docs, specs):
        return docs

    def run_pass(self, hv, inp, p: Pass):
        """Run the pass's operations, leaving their results in p.results."""
        raise NotImplementedError

    def check_pass(self, hv, inp, p: Pass):
        """Digest every result; subclasses add checks that need no reference."""
        for label, result in p.results.items():
            p.outputs[label] = digest(result)

    def check_once(self, hv, inp, p: Pass):
        """Checks too slow for every pass; run on the first pass of a run."""


def _cfg_inits(hv, doc):
    """Initial states of [simulate] as the CLI reads them: x0 cycled, shared r0/tau0."""
    r0 = np.array(doc.get_float_list("simulate", "r0"))
    tau0 = doc.get_float("simulate", "tau0")
    return [hv.core.StateVec(np.array([x]), r0, tau0)
            for x in doc.get_float_list("simulate", "x0")]


class Shipped(Workload):
    name = "shipped"
    op_metrics = ("simulate_s", "average_s", "certify_s", "recur_s", "sweep_s", "fig1_s")
    seed_free = frozenset({"average", "certify"})
    #: certify takes ~10 ms on a 2-vCPU Xeon, too short to time steadily once
    CERTIFY_REPEAT = 20

    def commands(self):
        cfg = {name: str(self.root / "configs" / name) for name in CONFIGS}
        seed = str(self.seed)
        return [
            ("simulate_s", "simulate-actuator",
             ["simulate", "--config", cfg["actuator.cfg"], "--seed", seed], 1),
            ("simulate_s", "simulate-expr",
             ["simulate", "--config", cfg["actuator_expr.cfg"], "--seed", seed], 1),
            ("average_s", "average", ["average", "--config", cfg["actuator.cfg"]], 1),
            ("certify_s", "certify", ["certify", "--config", cfg["actuator.cfg"]],
             self.CERTIFY_REPEAT),
            ("recur_s", "recur", ["recur", "--config", cfg["es.cfg"], "--seed", seed], 1),
            ("sweep_s", "sweep", ["sweep", "--config", cfg["es.cfg"], "--seed", seed], 1),
            ("fig1_s", "fig1", ["fig1", "--seed", seed], 1),
        ]

    def run_pass(self, hv, docs, p):
        for metric, label, argv, repeat in self.commands():
            outdir = self.out / label
            for old in outdir.glob("*") if outdir.is_dir() else ():
                old.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()

            def command():
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    return hv.cli.main(argv + ["--out", str(outdir)])

            rc = p.op(metric, label, command, repeat)
            if rc is None:
                continue
            if rc != 0:
                p.fail(label, f"exit code {rc}: {stderr.getvalue().strip()}")
            if label == "certify" and "verdict: PASS" not in stdout.getvalue():
                p.fail(label, "certificate did not PASS")

    def check_pass(self, hv, docs, p):
        # manifests hold a wall-clock duration, so they are neither digested nor counted
        written = 0
        for _, label, _, _ in self.commands():
            files = sorted(f for f in (self.out / label).glob("*")
                           if not f.name.endswith("_manifest.json"))
            p.outputs[label] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                                for f in files}
            written += sum(f.stat().st_size for f in files)
        p.counts["cli.bytes_written"] = written
        if (p.outputs["simulate-expr"].get("simulate.csv")
                != p.outputs["simulate-actuator"].get("simulate.csv")):
            p.fail("simulate-expr", "simulate.csv differs from the built-in actuator's")

    def check_once(self, hv, docs, p):
        # one simulate.csv path must match the same path simulated alone
        doc = docs["actuator.cfg"]
        inits = _cfg_inits(hv, doc)
        pid = self.seed % doc.get_int("simulate", "n_paths")
        arc = hv.solver.simulate_path(
            hv.systems.load_system(doc), inits[pid % len(inits)], self.seed + pid,
            hv.solver.Horizon(doc.get_float("simulate", "t_max"),
                              doc.get_int("simulate", "j_max")),
            hv.solver.IntegratorConfig(doc.get_float("simulate", "base_step"),
                                       doc.get_float("simulate", "substep_per_epsilon")))
        lines = (self.out / "simulate-actuator" / "simulate.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        mine = np.array([[float(c) for c in row[1:6]] for row in rows
                         if row[0] == str(pid) and row[6] != "terminal"])
        lone = np.concatenate([np.column_stack([s.t, np.full(s.t.shape, s.j), s.x, s.r, s.tau])
                               for s in arc.segments])
        if mine.shape != lone.shape or not np.array_equal(mine, lone):
            p.fail("simulate-actuator", f"path {pid} differs from its lone simulate_path")


def _diverging_h(r, v):
    """Aux reset that depends on the draw, so lockstep rows split at the first jump."""
    return 0.5 * np.asarray(v, dtype=float)[..., 1:2]


class _KeyedJam:
    """Sampler-only jamming noise keyed by (workload seed, path seed, jump index).

    Component 1 is the built-in's jam draw (+0.75 w.p. p, else -0.75); with
    m = 2, component 2 is a uniform in [0, 1).
    """

    def __init__(self, wseed: int, p: float, m: int):
        self.wseed, self.p, self.m = wseed, p, m

    def __call__(self, seed, k):
        jam = 0.75 if keyed_uniform(self.wseed, seed, k, 0) < self.p else -0.75
        if self.m == 1:
            return (jam,)
        return (jam, keyed_uniform(self.wseed, seed, k, 1))


@dataclasses.dataclass
class _Ensemble:
    spec: object
    inits: list
    seed_base: int


class MixedStarts(Workload):
    name = "mixed-starts"
    op_metrics = ("simulate_s", "recur_s")
    LABELS = ("mixed-r0", "diverging-h")
    N_PATHS = 30
    #: short, so one pass is a short timing sample; every start jumps before it
    T_MAX = 0.1
    RADII = (0.05, 0.1, 0.25, 0.5, 1.0)
    #: one recurrence scan over a 30-path ensemble takes milliseconds: repeat it
    RECUR_REPEAT = 4

    def inputs(self, hv, tr, docs, specs):
        rng = np.random.default_rng([self.seed, 1])
        spec = specs["actuator.cfg"]
        r0s = rng.choice(np.linspace(0.9, 0.98, 5), size=4, replace=False)
        x0s = rng.choice([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0], size=6)
        mixed = [hv.core.StateVec(np.array([x0s[i % 6]]), np.array([r0s[i % 4]]), 0.0)
                 for i in range(12)]
        noise = hv.core.JumpNoise.from_sampler(_KeyedJam(self.seed, 0.1, 2), 2)
        diverging = tr.spec(dataclasses.replace(spec, m=2, h=_diverging_h, noise=noise))
        shared = [hv.core.StateVec(np.array([x]), np.array([0.95]), 0.0) for x in x0s]
        return {"mixed-r0": _Ensemble(spec, mixed, 1000 * self.seed),
                "diverging-h": _Ensemble(diverging, shared, 1000 * self.seed + 500),
                "horizon": hv.solver.Horizon(self.T_MAX, 1000),
                "cfg": hv.solver.IntegratorConfig()}

    def run_pass(self, hv, inp, p):
        for label in self.LABELS:
            e = inp[label]
            arcs = p.op("simulate_s", f"simulate-{label}", lambda: hv.solver.simulate_ensemble(
                e.spec, e.inits, self.N_PATHS, e.seed_base, inp["horizon"], inp["cfg"]))
            if arcs is not None:
                p.results[f"simulate-{label}"] = arcs
        for label in self.LABELS:
            arcs, spec = p.results.get(f"simulate-{label}"), inp[label].spec
            if arcs is None:
                continue
            reports = p.op("recur_s", f"recur-{label}", lambda: [
                hv.stats.recurrence_estimate(arcs, radius, 0.05, 5.0, spec)
                for radius in self.RADII], self.RECUR_REPEAT)
            if reports is not None:
                p.results[f"recur-{label}"] = reports

    def check_pass(self, hv, inp, p):
        super().check_pass(hv, inp, p)
        split = p.results.get("simulate-diverging-h")
        if split is not None and len({a.jumps[0].r_post.tobytes() for a in split}) < 2:
            p.fail("simulate-diverging-h", "aux rows did not split at the first jump")

    def check_once(self, hv, inp, p):
        i = self.seed % self.N_PATHS
        for label in self.LABELS:
            e, arcs = inp[label], p.results.get(f"simulate-{label}")
            lone = hv.solver.simulate_path(e.spec, e.inits[i % len(e.inits)],
                                           e.seed_base + i, inp["horizon"], inp["cfg"])
            if arcs is not None and digest(lone) != digest(arcs[i]):
                p.fail(f"simulate-{label}", f"member {i} differs from its lone simulate_path")


class WideAnalysis(Workload):
    name = "wide-analysis"
    op_metrics = ("simulate_s", "recur_s", "envelope_s", "certify_s")
    N_PATHS = 500
    T_MAX = 1.0
    MC_SAMPLES = 1000

    def inputs(self, hv, tr, docs, specs):
        es_doc, act_doc = docs["es.cfg"], docs["actuator.cfg"]
        names = hv.expressions.allowed_names(n=1, p=1)
        favg = hv.expressions.AverageField(hv.expressions.compile_expressions(
            [act_doc.get_str("average", "favg")], names), 1)
        V = hv.expressions.ScalarField(hv.expressions.compile_expressions(
            [act_doc.get_str("certify", "V")], names)[0])
        sampler = _KeyedJam(self.seed, act_doc.get_float("system", "jam_prob"), 1)
        return {
            "spec": specs["es.cfg"],
            "inits": _cfg_inits(hv, es_doc),
            "horizon": hv.solver.Horizon(self.T_MAX, es_doc.get_int("simulate", "j_max")),
            "cfg": hv.solver.IntegratorConfig(),
            "t_eval": np.linspace(0.0, self.T_MAX, 21),
            "V": tr.map("expressions.V", V),
            "avg": hv.averaging.build_average_system(specs["actuator.cfg"],
                                                     tr.map("expressions.favg", favg)),
            "noise": hv.core.JumpNoise.from_sampler(tr.map("noise.sampler", sampler), 1),
            "grid": hv.certificates.CertGrid(
                radius_min=act_doc.get_float("certify", "radius_min"),
                radius_max=act_doc.get_float("certify", "radius_max"),
                radial_points=act_doc.get_int("certify", "radial_points"),
                r_points=act_doc.get_int("certify", "r_points")),
        }

    @staticmethod
    def bisect_radius(hv, arcs, spec, radius_max=2.0, rho=0.05, R=5.0,
                      rel_tol=0.01, abs_tol=1e-4):
        """Smallest certified recurrence radius, bisected as epsilon_sweep does."""
        def certified(radius):
            return hv.stats.recurrence_estimate(arcs, radius, rho, R, spec).certified

        hi = radius_max
        if not certified(hi):
            return None
        lo = 0.0
        while hi - lo > max(abs_tol, rel_tol * hi):
            mid = 0.5 * (lo + hi)
            if certified(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def run_pass(self, hv, inp, p):
        spec = inp["spec"]
        arcs = p.op("simulate_s", "simulate", lambda: hv.solver.simulate_ensemble(
            spec, inp["inits"], self.N_PATHS, self.seed, inp["horizon"], inp["cfg"]))
        if arcs is not None:
            p.results["simulate"] = arcs
            p.results["recur-bisection"] = p.op(
                "recur_s", "recur-bisection", lambda: self.bisect_radius(hv, arcs, spec))
            p.results["envelope"] = p.op("envelope_s", "envelope", lambda: hv.stats.uges_m_fit(
                arcs, inp["t_eval"], spec))
        p.results["certify"] = p.op("certify_s", "certify", lambda: (
            hv.certificates.foster_certificate(inp["V"], inp["avg"], inp["grid"],
                                               noise=inp["noise"],
                                               mc_samples=self.MC_SAMPLES)))

    def check_pass(self, hv, inp, p):
        super().check_pass(hv, inp, p)
        fit, cert = p.results.get("envelope"), p.results.get("certify")
        if fit is not None and not np.isfinite(fit.k1):
            p.fail("envelope", f"k1 = {fit.k1}")
        if cert is not None and not cert.verdict:
            p.fail("certify", f"certificate failed: lambda = {cert.lam!r}")

    def check_once(self, hv, inp, p):
        i = self.seed % self.N_PATHS
        arcs = p.results.get("simulate")
        lone = hv.solver.simulate_path(inp["spec"], inp["inits"][i % len(inp["inits"])],
                                       self.seed + i, inp["horizon"], inp["cfg"])
        if arcs is not None and digest(lone) != digest(arcs[i]):
            p.fail("simulate", f"member {i} differs from its lone simulate_path")


WORKLOADS = {w.name: w for w in (Shipped, MixedStarts, WideAnalysis)}
