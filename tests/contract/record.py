"""Run the CLI contract's cases in-process, and record their results.

    PYTHONPATH=src python tests/contract/record.py

rewrites `expected.json` from the current code, and names each case it
added, removed or changed against the file it replaced. Each case's result
is its exit code, its standard output and error, and the file it wrote to
`--out`, if any. A text of up to TEXT_LIMIT bytes is kept as its lines, so
that a contract change reads as a diff; a longer one, and every `--out`
file (the same case without `--out` keeps its text), as its size and
SHA-256.
"""
from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

from mucorr.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"
#: Longest text kept as its lines, in bytes.
TEXT_LIMIT = 8192


class ClosedStdout(io.TextIOBase):
    """A standard output whose reader has gone."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def kept(data: bytes, digest: bool = False):
    if digest or len(data) > TEXT_LIMIT:
        return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return data.decode("utf-8").split("\n")


@contextlib.contextmanager
def workdir():
    """A working directory holding a copy of the repository's `scenarios/`;
    argparse formats help for 80 columns in it."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as path:
        shutil.copytree(ROOT / "scenarios", Path(path) / "scenarios")
        os.chdir(path)
        try:
            with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
                yield Path(path)
        finally:
            os.chdir(previous)


def run_case(case, directory: Path) -> dict:
    """The result of one case, run through `cli.main` in `directory`."""
    for name, content in case.files:
        mode = "wb" if isinstance(content, bytes) else "w"
        with open(directory / name, mode) as handle:
            handle.write(content)
    stdout = ClosedStdout() if case.closed_stdout else io.StringIO()
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(case.argv))
    result = {
        "exit": code,
        "stdout": [""] if case.closed_stdout else kept(stdout.getvalue().encode("utf-8")),
        "stderr": kept(stderr.getvalue().encode("utf-8")),
    }
    out = directory / "out"
    if out.exists():
        result["out"] = kept(out.read_bytes(), digest=True)
        out.unlink()
    for name, _ in case.files:
        (directory / name).unlink()
    return result


def run_fresh(case) -> dict:
    """The exit code, standard output and error of one case, run in a fresh
    `python -m mucorr` process, so that no state left by earlier cases can
    hide a change to the sampler, to how a table reaches it, or to Python's
    MT19937 stream."""
    with workdir() as directory:
        for name, text in case.files:
            (directory / name).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "mucorr", *case.argv],
            capture_output=True, cwd=directory, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
    return {"exit": proc.returncode, "stdout": kept(proc.stdout), "stderr": kept(proc.stderr)}


def run_all(cases) -> dict:
    with workdir() as directory:
        return {case.name: run_case(case, directory) for case in cases}


def moved(before: dict, after: dict) -> list[str]:
    """One line per case added, removed or changed from `before` to `after`."""
    return (
        [f"added {name}" for name in after if name not in before]
        + [f"removed {name}" for name in before if name not in after]
        + [f"changed {name}" for name in after if name in before and after[name] != before[name]]
    )


def record() -> None:
    from cases import CASES

    names = [case.name for case in CASES]
    assert len(set(names)) == len(names), "case names must be unique"
    before = json.loads(EXPECTED.read_text(encoding="utf-8"))["cases"] if EXPECTED.exists() else {}
    expected = {
        "python": "%d.%d" % sys.version_info[:2],
        "cases": run_all(CASES),
    }
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    print(f"recorded {len(names)} cases in {EXPECTED.relative_to(ROOT)}")
    for line in moved(before, expected["cases"]):
        print(line)


if __name__ == "__main__":
    record()
