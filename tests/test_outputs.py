"""Byte-identity of the shipped commands' outputs against the recorded digests.

The digests are those of benchmarks/references.json (workload "shipped"):
simulate on the built-in and on the expression-defined actuator, whose CSVs
must be the same bytes, recur and sweep on the extremum-seeking system, whose
outputs come from the arcs' hitting indexes, and the fig1 CSV and SVG, all at
the recorded seed; and average and certify on the actuator, which draw no seed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hybridavg.cli import main

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = json.loads((ROOT / "benchmarks" / "references.json").read_text())["shipped"]
ACTUATOR = str(ROOT / "configs" / "actuator.cfg")
ES = str(ROOT / "configs" / "es.cfg")
SEED = ["--seed", str(SHIPPED["seed"])]


@pytest.mark.parametrize("label,argv", [
    ("simulate-actuator", ["simulate", "--config", ACTUATOR] + SEED),
    ("simulate-expr", ["simulate", "--config", str(ROOT / "configs" / "actuator_expr.cfg")]
     + SEED),
    ("fig1", ["fig1"] + SEED),
    ("average", ["average", "--config", ACTUATOR]),
    ("certify", ["certify", "--config", ACTUATOR]),
    ("recur", ["recur", "--config", ES] + SEED),
    ("sweep", ["sweep", "--config", ES] + SEED),
])
def test_shipped_outputs_match_reference_digests(label, argv, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()
           if not f.name.endswith("_manifest.json")}
    assert got == SHIPPED["outputs"][label]
