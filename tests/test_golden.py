"""The paper's standard scenario, seeded, in a fresh `python -m mucorr`.

`mucorr run paper-standard --mc --samples 1000 --seed 7`, as CSV and as
full-precision JSON, must print what the contract corpus recorded for the
cases `run/paper-standard/csv/mc` and `run/paper-standard/json/mc`. These
two tests keep the ids they had when the pins were files of their own; the
other seeded cases run the same way in `test_contract.py`.
"""
import json

import pytest

from contract.cases import CASES
from contract.record import EXPECTED, run_fresh

RECORDED = json.loads(EXPECTED.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("scenario", [pytest.param("paper-standard", id="paper-standard-paper-standard.csv")])
def test_seeded_csv_is_unchanged(scenario):
    assert seeded_run(scenario, "csv") == RECORDED[f"run/{scenario}/csv/mc"]


def test_seeded_full_precision_json_is_unchanged():
    # Every bit of every estimate, chsh_s's sum of four included.
    assert seeded_run("paper-standard", "json") == RECORDED["run/paper-standard/json/mc"]


def seeded_run(scenario: str, fmt: str) -> dict:
    """Exit code, stdout and stderr of the corpus case for `scenario` in
    `fmt`, run in a fresh process."""
    name = f"run/{scenario}/{fmt}/mc"
    return run_fresh(next(case for case in CASES if case.name == name))
