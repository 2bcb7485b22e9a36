"""Seeded Monte Carlo output, pinned byte for byte.

Each file under `golden/` is what `mucorr run ... --mc --samples 1000
--seed 7` printed when it was recorded: CSV, and for `paper-standard` also
full-precision JSON. A change to the sampler, to how a table reaches it, or
to Python's MT19937 stream shows here as a changed value; in the JSON, so
does a last-bit change in how estimates are combined. The PR box draws only
its winning cells, so its rows are exact; the correlator box and
`paper-standard` carry sampling noise in every estimate.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

CORRELATOR_BOX = {
    "id": "correlator-box", "kind": "nsbox",
    "parameters": {"correlators": [0.3, -0.2, 0.7, -0.5]},
}


@pytest.mark.parametrize("scenario, golden", [
    ("paper-pr-box", "paper-pr-box.csv"),
    ("scenarios/pr-box-table.json", "pr-box-table.csv"),
    ("paper-standard", "paper-standard.csv"),
    (None, "correlator-box.csv"),
])
def test_seeded_csv_is_unchanged(tmp_path, scenario, golden):
    if scenario is None:
        scenario = tmp_path / "correlator-box.json"
        scenario.write_text(json.dumps(CORRELATOR_BOX))
    assert seeded_run(scenario, "csv") == (GOLDEN / golden).read_bytes()


def test_seeded_full_precision_json_is_unchanged():
    # Every bit of every estimate, chsh_s's sum of four included.
    golden = (GOLDEN / "paper-standard.json").read_bytes()
    assert seeded_run("paper-standard", "json") == golden


def seeded_run(scenario, fmt: str) -> bytes:
    """Standard output of a fresh `mucorr run` with 1000 samples, seed 7."""
    proc = subprocess.run(
        [sys.executable, "-m", "mucorr", "run", str(scenario),
         "--mc", "--samples", "1000", "--seed", "7", "--format", fmt],
        capture_output=True, cwd=ROOT, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout
