"""Every committed ``BENCH_<label>.json`` at the repository root is a JSON
object that names its label and says where and how its numbers were taken:
the host, the Python version, the commits compared, the command, the claim
and the end-to-end results."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("label", "host", "python", "commits", "command", "claim", "end_to_end")


def test_there_are_measurement_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_a_measurement_file_carries_its_provenance(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    assert [key for key in REQUIRED if key not in doc] == []
    assert doc["label"] == path.stem.removeprefix("BENCH_")
