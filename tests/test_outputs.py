"""Byte-identity of the shipped commands' outputs against the recorded digests.

The digests are those of benchmarks/references.json (workload "shipped"):
simulate on the built-in and on the expression-defined actuator, whose CSVs
must be the same bytes, recur and sweep on the extremum-seeking system, whose
outputs come from the arcs' hitting indexes, and the fig1 CSV and SVG, all at
the recorded seed; and average and certify on the actuator, which draw no seed.
Every command README lists is one of these runs.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from hybridavg.cli import main

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = json.loads((ROOT / "benchmarks" / "references.json").read_text())["shipped"]
ACTUATOR = str(ROOT / "configs" / "actuator.cfg")
ES = str(ROOT / "configs" / "es.cfg")
SEED = ["--seed", str(SHIPPED["seed"])]
RUNS = [
    ("simulate-actuator", ["simulate", "--config", ACTUATOR] + SEED),
    ("simulate-expr", ["simulate", "--config", str(ROOT / "configs" / "actuator_expr.cfg")]
     + SEED),
    ("fig1", ["fig1"] + SEED),
    ("average", ["average", "--config", ACTUATOR]),
    ("certify", ["certify", "--config", ACTUATOR]),
    ("recur", ["recur", "--config", ES] + SEED),
    ("sweep", ["sweep", "--config", ES] + SEED),
]


@pytest.mark.parametrize("label,argv", RUNS)
def test_shipped_outputs_match_reference_digests(label, argv, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()
           if not f.name.endswith("_manifest.json")}
    assert got == SHIPPED["outputs"][label]


def test_readme_commands_are_digest_pinned_runs():
    # the block CI runs through the installed hybridavg script
    (block,) = re.findall(r"## Command line\n\n```\n(.*?)```",
                          (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    lines = block.splitlines()
    assert lines
    for line in lines:
        words = shlex.split(line, comments=True)
        assert words[0] == "hybridavg" and words[-2] == "--out", line
        argv = [str(ROOT / w) if w.startswith("configs/") else w for w in words[1:-2]]
        assert argv in [run for _, run in RUNS], line
