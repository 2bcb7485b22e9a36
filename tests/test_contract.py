"""The CLI contract: every case of `contract/cases.py` prints what
`contract/expected.json` recorded, byte for byte, with the same exit code.

A change to the contract re-records the file (`PYTHONPATH=src python
tests/contract/record.py`) in the same commit, and names every case whose
result moved. The `help/` and `usage/` cases print argparse's own text,
whose wording differs between Python versions ("options:" against
"optional arguments:", quoted choices). On a Python version other than the
one that recorded the file, those cases keep their exit code and which
streams are empty; every other case is compared whole on every version.
"""
import json
import sys

import pytest

from contract.cases import CASES
from contract.record import EXPECTED, moved, run_all, run_fresh

RECORDED = json.loads(EXPECTED.read_text(encoding="utf-8"))

#: Seeded Monte Carlo cases that also run in a fresh `python -m mucorr`
#: process. Those of `paper-standard`, CSV and full-precision JSON, run the
#: same way in `test_golden.py`.
FRESH_PROCESS = (
    "run/paper-pr-box/csv/mc",
    "run/scenarios/pr-box-table.json/csv/mc",
    "document/correlator-box/csv/mc",
    "run/paper-coin/csv/mc",
    "run/paper-shapes/csv/mc",
    "document/counterfactual/csv/mc",
    "document/chsh-options/csv/mc",
)


def comparable(name: str, result: dict) -> dict:
    if name.startswith(("help/", "usage/")) and RECORDED["python"] != "%d.%d" % sys.version_info[:2]:
        return {key: value if key == "exit" else value == [""] for key, value in result.items()}
    return result


def test_every_case_prints_what_was_recorded():
    results = run_all(CASES)
    want = RECORDED["cases"]
    assert list(results) == list(want)
    changed = [name for name in results if comparable(name, results[name]) != comparable(name, want[name])]
    assert {name: results[name] for name in changed} == {name: want[name] for name in changed}


@pytest.mark.parametrize("name", FRESH_PROCESS)
def test_seeded_run_in_a_fresh_process_prints_what_was_recorded(name):
    case = next(case for case in CASES if case.name == name)
    assert run_fresh(case) == RECORDED["cases"][name]


def test_recording_names_each_moved_case():
    before = {"kept": [1], "dropped": [2], "edited": [3]}
    after = {"kept": [1], "edited": [4], "new": [5]}
    assert moved(before, after) == ["added new", "removed dropped", "changed edited"]
