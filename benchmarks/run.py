"""Benchmark of the hybridavg pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload shipped --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): shipped, mixed-starts, wide-analysis.  One
process runs one workload, with no threads and no worker pool, in passes:
each pass runs the workload's operations once, closed-loop, and passes
repeat until --seconds have been measured.  Every pass is checked: output
digests against references.json (outputs that depend on the seed only at
the seed recorded there), plus checks that need no reference.

--trace 0 prints the end-to-end metrics, each the median of the run's
samples (one per pass; setup_s has several per pass).  Every timed sample
is scaled to a reference CPU speed: a fixed probe loop runs just before
and after it, and the sample is multiplied by PROBE_REF_S over the probes'
mean time (see workloads.probe).  On a shared host the CPU can run up to
2x slower for minutes at a time: on a 2-vCPU Xeon, unscaled medians of the
same code spread by up to 54% of their median over ten runs, scaled ones
by 5-14%.  The unscaled medians are printed too, as "measured", and kept
in the results file.

--trace 1 runs two pairs of an untraced and a traced pass; it prints the
per-layer split, whose counts must repeat exactly between the two traced
passes, and the tracing overhead (traced minus untraced wall_s, per pair).
Metric names and units are those of BENCHMARK.json at the checkout root.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details (environment, every pass, failures)
go to .bench_out/<workload>-seed<seed>-trace<0|1>.json, and the spans of a
traced run to the matching -spans.csv.

--record-references rewrites this workload's entry of references.json from
one pass at the given seed; use it only when outputs are meant to change.
"""

from __future__ import annotations

import os

# numpy reads these when it is first imported: one BLAS/OpenMP thread, no
# ensemble worker pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "HYBRIDAVG_WORKERS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import EXACT_UNITS, LAYER_UNITS, NullTracer, Tracer  # noqa: E402
from workloads import (WORKLOADS, PROBE_REF_S, Pass, at_reference_speed,  # noqa: E402
                       fresh_import, probe)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REQUIRED = ("src/hybridavg/__init__.py", "src/hybridavg/cli.py", "configs/actuator.cfg",
            "configs/actuator_expr.cfg", "configs/es.cfg")
REFERENCES = HERE / "references.json"
CONTRACT = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
#: untimed setups before the first timed one: the very first may compile bytecode
SETUP_WARMUPS = 1
#: setups timed before each pass: one takes ~0.1 s, too short to time steadily alone
SETUPS_PER_PASS = 3
#: a shipped pass takes ~14 s on a 2-vCPU Xeon; three passes at least, so that the
#: median drops one slow pass
MIN_PASSES = 3
PINNED = {"python": "3.11.7", "numpy": "2.4.6"}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HYBRIDAVG_WORKERS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """One benchmark run: setups, passes, checks and the resulting metrics."""

    def __init__(self, workload, seed: int, out: Path):
        self.wl = WORKLOADS[workload](ROOT, seed, out)
        self.seed = seed
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        self.ref = refs.get(workload)
        self.setups: list[float] = []  # at reference CPU speed
        self.setups_raw: list[float] = []
        self.passes: list = []
        self.first_outputs = None

    def setup(self):
        """Import hybridavg anew, load the configs and build the specs (timed)."""
        before = probe()
        t0 = perf_counter()
        hv = fresh_import(SRC)
        inp = self.wl.load(hv, NullTracer())
        elapsed = perf_counter() - t0
        self.setups_raw.append(elapsed)
        self.setups.append(at_reference_speed(elapsed, before, probe()))
        return hv, inp

    def run_pass(self, hv, inp, tracer=None):
        # earlier imports and passes leave cycles; collect them untimed, so that
        # peak memory and collector pauses do not grow with the number of passes
        gc.collect()
        p = Pass()
        if tracer is None:
            t0 = perf_counter()
            self.wl.run_pass(hv, inp, p)
            elapsed = perf_counter() - t0
        else:
            with tracer.active():
                inp = self.wl.load(hv, tracer)
                t0 = perf_counter()
                self.wl.run_pass(hv, inp, p)
                elapsed = perf_counter() - t0
        p.wall_raw = elapsed - sum(p.probes)
        p.wall = p.wall_raw * PROBE_REF_S / statistics.mean(p.probes)
        self.check(hv, inp, p)
        return p

    def check(self, hv, inp, p):
        self.wl.check_pass(hv, inp, p)
        if self.first_outputs is None:
            self.wl.check_once(hv, inp, p)
            self.first_outputs = p.outputs
        elif p.outputs != self.first_outputs:
            for label in sorted(set(p.outputs) | set(self.first_outputs)):
                if p.outputs.get(label) != self.first_outputs.get(label):
                    p.fail(label, "output differs from this run's first pass")
        if self.ref is not None:
            expected = self.ref["outputs"]
            for label in expected:
                if (label in self.wl.seed_free or self.seed == self.ref["seed"]) \
                        and p.outputs.get(label) != expected[label]:
                    p.fail(label, "output differs from references.json")
        p.results.clear()

    def timed(self, seconds: float):
        for _ in range(SETUP_WARMUPS):
            self.setup()
        del self.setups[:], self.setups_raw[:]
        start = perf_counter()
        while len(self.passes) < MIN_PASSES or perf_counter() - start < seconds:
            for _ in range(SETUPS_PER_PASS):
                hv, inp = self.setup()
            self.passes.append(self.run_pass(hv, inp))

    def traced(self):
        """Two (untraced, traced) pass pairs; the traced ones give the layer split."""
        pairs = []
        for _ in range(2):
            hv, inp = self.setup()
            untraced = self.run_pass(hv, inp)
            hv, _ = self.setup()
            tracer = Tracer(hv)
            traced = self.run_pass(hv, None, tracer)
            tracer.counts.update(traced.counts)
            self.passes += [untraced, traced]
            pairs.append((tracer, traced, untraced))
        return pairs


def median_of(values) -> tuple:
    """(median, count) of a metric's samples in one run."""
    values = list(values)
    return (statistics.median(values) if values else 0.0), len(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("shipped", "mixed-starts", "wide-analysis"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"benchmark: {ROOT} is not a hybridavg checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = json.loads(CONTRACT.read_text())
    if [m["name"] for m in contract["per_layer"]] != list(LAYER_UNITS):
        raise SystemExit("benchmark: BENCHMARK.json per_layer does not match tracing.LAYER_UNITS")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, out / tag)
    env = environment()

    if args.record_references:
        hv, inp = runner.setup()
        p = Pass()
        runner.wl.run_pass(hv, inp, p)
        runner.wl.check_pass(hv, inp, p)
        if p.failures:
            print("\n".join(f"{label}: {why}" for label, why in p.failures), file=sys.stderr)
            return 1
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        refs[args.workload] = {"seed": args.seed, "commit": env["commit"], "outputs": p.outputs}
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(p.outputs)} output digests for {args.workload}")
        return 0

    report_lines = []
    if args.trace == 0:
        runner.timed(args.seconds)
        passes = runner.passes
        samples = {"setup_s": (runner.setups, runner.setups_raw),
                   "wall_s": ([p.wall for p in passes], [p.wall_raw for p in passes])}
        for metric in runner.wl.op_metrics:
            samples[metric] = ([p.times[metric] for p in passes if metric in p.times],
                               [p.raw[metric] for p in passes if metric in p.raw])
        metrics, raw = {}, {}
        for metric, (scaled, measured) in samples.items():
            value, n = median_of(scaled)
            metrics[metric] = (value, "s", n)
            raw[metric] = median_of(measured)[0]
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
        reported = [m["name"] for m in contract["end_to_end"]]
        detail = {"raw_medians": raw, "setup_samples": runner.setups,
                  "setup_samples_raw": runner.setups_raw}
    else:
        pairs = runner.traced()
        layer = [t.layer_metrics(traced.wall - untraced.wall)
                 for t, traced, untraced in pairs]
        metrics, raw = {}, {}
        for name, unit in LAYER_UNITS.items():
            a, b = layer[0][name], layer[1][name]
            if unit in EXACT_UNITS and a != b:
                pairs[1][1].fail(name, f"count differs between traced passes: {a} != {b}")
            metrics[name] = (statistics.median([a, b]), unit, 2)
        reported = tuple(LAYER_UNITS)
        tracer = pairs[-1][0]
        spans = out / f"{tag}-spans.csv"
        tracer.write_spans(spans, tracer.start[0] if tracer.start else 0.0)
        detail = {"untraced_wall_s": [u.wall_raw for _, _, u in pairs],
                  "traced_wall_s": [t.wall_raw for _, t, _ in pairs],
                  "spans": str(spans.relative_to(ROOT))}

    passes = runner.passes
    attempted = sum(p.attempted for p in passes)
    failures = [f"{label}: {why}" for p in passes for label, why in p.failures]
    failed = sum(len({label for label, _ in p.failures}) for p in passes)
    correct = failed == 0

    report_lines.append(f"hybridavg benchmark: workload={args.workload} seed={args.seed} "
                        f"trace={args.trace} passes={len(passes)}")
    report_lines.append("environment: " + json.dumps(env, sort_keys=True))
    for key, want in PINNED.items():
        if env[key] != want:
            report_lines.append(f"note: {key} {env[key]} differs from the pinned {want}")
    for name, (value, unit, n) in metrics.items():
        measured = f"  measured {raw[name]:.6g} {unit}" if name in raw else ""
        report_lines.append(f"  {name:30s} {value:14.6g} {unit:6s} (n={n}){measured}")
    report_lines.append(f"  {'failure_rate':30s} {failed / max(attempted, 1):14.6g} ratio  "
                        f"({failed} failed of {attempted} operations)")
    report_lines.extend(f"FAILED {f}" for f in failures)
    print("\n".join(report_lines))

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "passes": [{"wall_s": p.wall, "wall_s_raw": p.wall_raw, "times": p.times,
                    "times_raw": p.raw, "probes_s": p.probes, "attempted": p.attempted,
                    "failures": [f"{label}: {why}" for label, why in p.failures]}
                   for p in passes],
        "attempted": attempted, "failed": failed, **detail,
    }
    (out / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k][0]), "unit": metrics[k][1]} for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
