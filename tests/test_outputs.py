"""Byte-identity of the shipped commands' outputs against the recorded digests.

The digests are those of benchmarks/references.json (workload "shipped", at
its recorded seed): simulate on the built-in and on the expression-defined
actuator, whose CSVs must be the same bytes, and the fig1 CSV and SVG.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hybridavg.cli import main

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = json.loads((ROOT / "benchmarks" / "references.json").read_text())["shipped"]


@pytest.mark.parametrize("label,argv", [
    ("simulate-actuator", ["simulate", "--config", str(ROOT / "configs" / "actuator.cfg")]),
    ("simulate-expr", ["simulate", "--config", str(ROOT / "configs" / "actuator_expr.cfg")]),
    ("fig1", ["fig1"]),
])
def test_shipped_outputs_match_reference_digests(label, argv, tmp_path):
    assert main(argv + ["--seed", str(SHIPPED["seed"]), "--out", str(tmp_path)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()
           if not f.name.endswith("_manifest.json")}
    assert got == SHIPPED["outputs"][label]
