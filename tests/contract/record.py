"""Run the CLI contract's cases in-process, and record their results.

    PYTHONPATH=src python tests/contract/record.py

rewrites `expected.json` from the current code. Each case's result is its
exit code, its standard output and error, and the file it wrote to `--out`,
if any. A text of up to TEXT_LIMIT bytes is kept as its lines, so that a
contract change reads as a diff; a longer one, and every `--out` file (the
same case without `--out` keeps its text), as its size and SHA-256.
"""
from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
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


def run_all(cases) -> dict:
    with workdir() as directory:
        return {case.name: run_case(case, directory) for case in cases}


def record() -> None:
    from cases import CASES

    names = [case.name for case in CASES]
    assert len(set(names)) == len(names), "case names must be unique"
    expected = {
        "python": "%d.%d" % sys.version_info[:2],
        "cases": run_all(CASES),
    }
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    print(f"recorded {len(names)} cases in {EXPECTED.relative_to(ROOT)}")


if __name__ == "__main__":
    record()
