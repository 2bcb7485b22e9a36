"""Seeded Monte Carlo output, pinned byte for byte.

Each file under `golden/` is what `mucorr run ... --mc --samples 1000
--seed 7` printed when it was recorded: CSV, and for `paper-standard` also
full-precision JSON. A change to the sampler, to how a table reaches it, or
to Python's MT19937 stream shows here as a changed value; in the JSON, so
does a last-bit change in how estimates are combined. The PR box draws only
its winning cells, so its rows are exact; the other files carry sampling
noise in every estimate. Together they pin each kind's substreams: a chsh
or box pair draws from streams 0-3, a chsh option's rho_ci from 4 plus the
option's position in `remote_options`, and a counterfactual or classical
row from stream 0.
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
COUNTERFACTUAL = {
    "id": "counterfactual", "kind": "counterfactual",
    "parameters": {"theta_degrees": 30, "a_degrees": 0, "a_prime_degrees": 90},
}
#: b' listed first: its rho_ci estimate draws from stream 4, the first
#: option's, and the remote-free option second draws nothing.
CHSH_OPTIONS = {
    "id": "chsh-options", "kind": "chsh",
    "parameters": {"a_degrees": 0, "a_prime_degrees": 90, "b_degrees": 45,
                   "b_prime_degrees": 135, "remote_options": ["b_prime", "none"]},
}


#: The documents that the golden files without a scenario name were run on.
DOCUMENTS = {
    "correlator-box.csv": CORRELATOR_BOX,
    "counterfactual.csv": COUNTERFACTUAL,
    "chsh-options.csv": CHSH_OPTIONS,
}


@pytest.mark.parametrize("scenario, golden", [
    ("paper-pr-box", "paper-pr-box.csv"),
    ("scenarios/pr-box-table.json", "pr-box-table.csv"),
    ("paper-standard", "paper-standard.csv"),
    (None, "correlator-box.csv"),
    ("paper-coin", "paper-coin.csv"),
    ("paper-shapes", "paper-shapes.csv"),
    (None, "counterfactual.csv"),
    (None, "chsh-options.csv"),
])
def test_seeded_csv_is_unchanged(tmp_path, scenario, golden):
    if scenario is None:
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(DOCUMENTS[golden]))
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
