"""Every config the project ships or tests with loads through the schema."""

import re
from pathlib import Path

import pytest

import hybridavg as ha
from hybridavg.config import SCHEMA, ConfigDocument

from test_acceptance import CERT_CFG, RERUN_CFG
from test_cli import OVERFLOWING_FLOW, SEEDED, SMALL_ACTUATOR, TAU_FREE
from test_multidim import PLANAR_CFG
from test_systems import ACTUATOR_EXPR_CFG

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_INI = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
FORMAT = dict(p=0.1, t_values="3.141592653589793 6.283185307179586", eps_values="0.1 0.05")

CONFIGS = {
    **{path.name: path.read_text(encoding="utf-8")
       for path in sorted((ROOT / "configs").glob("*.cfg"))},
    "README": README_INI,
    "SMALL_ACTUATOR": SMALL_ACTUATOR.format(**FORMAT),
    "SEEDED": SEEDED.format(**FORMAT),
    "TAU_FREE": TAU_FREE,
    "OVERFLOWING_FLOW": OVERFLOWING_FLOW,
    "CERT_CFG": CERT_CFG.format(p=0.1),
    "ACTUATOR_EXPR_CFG": ACTUATOR_EXPR_CFG,
    "RERUN_CFG": RERUN_CFG,
    "PLANAR_CFG": PLANAR_CFG,
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_config_loads_and_every_key_it_sets_reads(name):
    doc = ConfigDocument.from_bytes(CONFIGS[name].encode("utf-8"))
    ha.load_system(doc)
    table = SCHEMA[doc.sections["system"]["kind"]]
    for section, keys in doc.sections.items():
        if section not in ("system", "noise"):
            for key in keys:
                doc._get(section, key, table[section][key].read)


def test_readme_library_example_runs(capsys):
    # so a public name it uses cannot disappear unnoticed
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert "verdict: PASS (grid-certified)" in capsys.readouterr().out
