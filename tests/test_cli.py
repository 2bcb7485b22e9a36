import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mucorr import cli
from mucorr.cli import FORMATS, build_parser, main
from mucorr.montecarlo import SampleConfig
from mucorr.scenarios import (
    KINDS,
    SWEEP_PARAMETERS,
    ColumnBlocks,
    Scenario,
    builtin_scenarios,
    run,
    sweep_columns,
)

from references import sweep_records


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Reference renderers: the cell-by-cell loops the column renderers replace.
# Every format must stay byte-identical to these.


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def reference_table(records: list[dict]) -> str:
    headers = list(records[0].keys())
    body = [[reference_cell(rec.get(h)) for h in headers] for rec in records]
    widths = [
        max(len(h), max(len(row[i]) for row in body))
        for i, h in enumerate(headers)
    ]
    numeric = [
        all(
            rec.get(h) is None or isinstance(rec.get(h), (int, float))
            for rec in records
        )
        for h in headers
    ]

    def line(cells: list[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(
                cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i])
            )
        return "  ".join(parts).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in body)
    return "\n".join(out) + "\n"


def reference_field(text: str, lone: bool) -> str:
    """RFC 4180: a field that holds a comma, a double quote, CR or LF is
    quoted, its quotes doubled. A row of one empty field is '""'."""
    if any(char in text for char in ',"\r\n') or (lone and text == ""):
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_csv(records: list[dict]) -> str:
    headers = list(records[0].keys())
    rows = [headers] + [[reference_cell(rec.get(h)) for h in headers] for rec in records]
    lone = len(headers) == 1
    return "".join(",".join(reference_field(cell, lone) for cell in row) + "\n" for row in rows)


def reference_json(records: list[dict]) -> str:
    return json.dumps(records, indent=2) + "\n"


REFERENCES = {"table": reference_table, "csv": reference_csv, "json": reference_json}


def emitted(fmt: str, headers: list, blocks: list) -> str:
    """What `emit` writes to stdout for the headers and column blocks."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli.emit(ColumnBlocks(headers, iter(blocks)), fmt)
    return buffer.getvalue()


def assert_references(headers: list, blocks: list, context=None) -> None:
    """`emit` writes what the references write for the rows of the blocks."""
    records = [dict(zip(headers, row)) for block in blocks for row in zip(*block)]
    for fmt, reference in REFERENCES.items():
        assert emitted(fmt, headers, blocks) == reference(records), (fmt, context)


FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
     1.7976931348623157e308, 0.1, 1e16, 123456789012.5, 2.5e-7]
)
TEXTS = st.text(max_size=6) | st.sampled_from(
    ["", "a,b", 'say "hi"', "line\nbreak", "cr\r\n", "a\rb", "\u00fcn\u00efc\u00f6de",
     "\u65e5\u672c", " pad ", "tab\t", "\u2028", "{}", "{0}", "\\", "\x00", "%", "%s",
     "%(x)r"]
)
CELLS = st.none() | FLOATS | TEXTS


@st.composite
def column_blocks(draw, size: int) -> tuple[list, list]:
    """Headers, and 1 to 9 rows in blocks of `size` rows. Each column holds
    floats, texts, Nones or a mix of them."""
    headers = draw(st.lists(TEXTS, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from([FLOATS, TEXTS, st.none(), CELLS])) for _ in headers]
    rows = draw(st.integers(1, 9))
    columns = [[draw(kind) for _ in range(rows)] for kind in kinds]
    return headers, [[column[lo:lo + size] for column in columns] for lo in range(0, rows, size)]


class TestRenderers:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), size=st.sampled_from([1, 2, 3, 4096]))
    def test_renderers_equal_the_per_cell_references(self, data, size):
        headers, blocks = data.draw(column_blocks(size))
        assert_references(headers, blocks)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), size=st.sampled_from([1, 4096]))
    def test_csv_reader_reads_back_every_cell(self, data, size):
        headers, blocks = data.draw(column_blocks(size))
        out = emitted("csv", headers, blocks)
        assume("\x00" not in out)  # Python 3.10's reader refuses NUL
        rows = [[reference_cell(value) for value in row] for block in blocks for row in zip(*block)]
        assert list(csv.reader(io.StringIO(out, newline=""))) == [headers, *rows]

    def test_edge_records(self):
        for headers, blocks in (
            ([""], [[["", None]]]),
            (["lone"], [[[""]], [[None]]]),
            (["a", "b"], [[[1.0], ["x"]], [[math.nan], ['"q"']], [[None], ["y,z"]]]),
            (["{}", 'a"b', "\u00fc", "{0}"], [[[-0.0], [math.inf], [-math.inf], ["\n"]]]),
            (["%", "%s", "%%r"], [[[0.5, 1e300], [1e308, 1e308], [None, "%d"]]]),
            (["none", "text"], [[[None, None], ["", ""]]]),
            (["cr", "\r"], [[["\r", "a\rb"], ["\r\n", "\x00"]]]),
            (["\x00"], [[["\r", "a\rb", "\r\n", "\x00", ""]]]),
        ):
            assert_references(headers, blocks, headers)

    def test_sweeps_over_several_blocks(self):
        for parameter, stop, step in (
            ("isotropic_p", 1.0, 1e-4), ("theta_degrees", 360.0, 0.04),
        ):
            headers, blocks = sweep_columns(Scenario(
                scenario_id="s", kind="sweep",
                parameters={"parameter": parameter, "start": 0.0,
                            "stop": stop, "step": step},
            ))
            blocks = list(blocks)
            assert len(blocks) > 2
            assert_references(headers, blocks, parameter)

    def test_every_run_equals_the_references(self, capsys):
        for scenario in builtin_scenarios().values():
            for flags, mc in (([], None), (["--samples", "2000"], SampleConfig(2000, 42))):
                records = [row._asdict() for row in run(scenario._replace(mc=mc))]
                for fmt, reference in REFERENCES.items():
                    assert run_cli(
                        capsys, "run", scenario.scenario_id, *flags, "--format", fmt,
                    ) == (0, reference(records), ""), (scenario.scenario_id, flags, fmt)

    def test_list_equals_the_references(self, capsys):
        records = [
            {"scenario": s.scenario_id, "kind": s.kind, "notes": " ".join(s.notes)}
            for s in builtin_scenarios().values()
        ]
        for fmt, reference in REFERENCES.items():
            assert run_cli(capsys, "list", "--format", fmt) == (0, reference(records), "")


class TestRunCommand:
    def test_table_has_scenario_on_every_row(self, capsys):
        code, out, err = run_cli(capsys, "run", "paper-standard")
        assert code == 0
        assert err == ""
        lines = out.rstrip("\n").split("\n")
        assert lines[0].startswith("scenario")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) > 2
        for line in lines[2:]:
            assert line.startswith("paper-standard")

    def test_csv_header_and_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "run", "paper-coin", "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "scenario,quantity,analytic,mc_value,mc_std_error,flags"
        assert len(lines) == 2  # header plus the single rho row
        assert lines[1].split(",")[:3] == ["paper-coin", "rho", "0"]

    def test_json_matches_in_memory_run_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "run", "paper-55-35", "--format", "json")
        assert code == 0
        emitted = json.loads(out)
        direct = [row._asdict() for row in run(builtin_scenarios()["paper-55-35"])]
        assert emitted == direct  # raw JSON numbers round-trip doubles exactly
        assert list(emitted[0]) == [
            "scenario",
            "quantity",
            "analytic",
            "mc_value",
            "mc_std_error",
            "flags",
        ]

    def test_out_file_equals_stdout(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "run", "paper-shapes", "--format", "csv", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        code, out, _ = run_cli(capsys, "run", "paper-shapes", "--format", "csv")
        assert code == 0
        assert target.read_text() == out
        # An output of several blocks, both ways.
        sweep = ["sweep", "--parameter", "theta_degrees", "--start", "0",
                 "--stop", "360", "--step", "0.01", "--format", "json"]
        assert run_cli(capsys, *sweep, "--out", str(target))[:2] == (0, "")
        code, out, _ = run_cli(capsys, *sweep)
        assert code == 0 and len(out) > 3 * 2**20
        assert target.read_text() == out
        assert json.loads(out)[-1]["theta_degrees"] == 360.0

    def test_csv_round_trips_to_twelve_digits(self, capsys):
        import csv
        import io

        code, out, _ = run_cli(capsys, "run", "paper-standard", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        direct = {
            row.quantity: row.analytic
            for row in run(builtin_scenarios()["paper-standard"])
        }
        assert len(rows) == len(direct)
        for rec in rows:
            parsed = float(rec["analytic"])
            expected = direct[rec["quantity"]]
            # 12 significant digits survive the round trip
            assert f"{parsed:.12g}" == f"{expected:.12g}"
            assert abs(parsed - expected) <= 5e-12 * max(1.0, abs(expected))

    def test_mc_block_in_file_enables_sampling_without_flag(self, capsys, tmp_path):
        path = tmp_path / "seeded.json"
        path.write_text(
            json.dumps(
                {
                    "id": "seeded-coin",
                    "kind": "classical",
                    "parameters": {"variant": "coin"},
                    "mc": {"n_samples": 4000, "seed": 9},
                }
            )
        )
        code, out, _ = run_cli(capsys, "run", str(path), "--format", "json")
        assert code == 0
        record = json.loads(out)[0]
        assert record["mc_value"] is not None
        assert record["mc_std_error"] is not None

    def test_seed_flag_implies_sampling(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "paper-coin", "--samples", "4000", "--seed", "9",
            "--format", "json",
        )
        assert code == 0
        with_flag = json.loads(out)[0]
        assert with_flag["mc_value"] is not None
        code, out, _ = run_cli(capsys, "run", "paper-coin", "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["mc_value"] is None

    def test_same_seed_same_output(self, capsys):
        args = ("run", "paper-shapes", "--samples", "4000", "--seed", "3",
                "--format", "csv")
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert code == 0
        assert first == second
        code, reseeded, _ = run_cli(
            capsys, "run", "paper-shapes", "--samples", "4000", "--seed", "4",
            "--format", "csv",
        )
        assert code == 0
        assert reseeded != first


class TestSweepCommand:
    def test_isotropic_csv_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--parameter", "isotropic_p",
            "--start", "0", "--stop", "1", "--step", "0.01",
            "--format", "csv",
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "scenario,isotropic_p,s_ns,s_e,rho_min,rho_ci"
        assert len(lines) == 102  # header plus 101 grid points
        at_34 = next(line for line in lines[1:] if line.split(",")[1] == "0.75")
        cells = at_34.split(",")
        assert cells[0] == "sweep-isotropic_p"
        assert cells[4] == "0"  # overlap bound crosses zero exactly here

    def test_theta_sweep_with_directions(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--parameter", "theta_degrees",
            "--start", "0", "--stop", "90", "--step", "45",
            "--a-degrees", "0", "--a-prime-degrees", "90",
            "--format", "csv",
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "scenario,theta_degrees,rho_ci,info_bits"
        assert len(lines) == 4
        mid = lines[2].split(",")
        assert mid[1] == "45"
        assert mid[2] == "0.5"

    def test_bad_grid_is_validation_error(self, capsys):
        # An out-of-range stop, grids over the cap, which must be refused
        # before any point is built, and grids that leave the float range.
        for parameter, start, stop, step, needle in (
            ("isotropic_p", "0", "2", "0.1", "parameters.stop"),
            ("isotropic_p", "0", "1", "1e-12", "gives 1.000000e+12 grid points"),
            ("isotropic_p", "0", "1", "1e-320", "gives 1.000011e+320 grid points"),
            ("theta_degrees", "-1e308", "1e308", "1e303", "spans more than the largest float"),
            ("theta_degrees", "1.7e308", "1.7976931348623157e308", "9.769313487208508e306",
             "puts the last grid point beyond the largest float"),
        ):
            code, out, err = run_cli(
                capsys, "sweep", "--parameter", parameter,
                f"--start={start}", "--stop", stop, "--step", step,
            )
            assert code == 1, step
            assert out == ""
            assert "error:" in err and needle in err
            assert "Error:" not in err  # no exception type: a named problem


def sweep_grid(parameter: str, points: int) -> dict:
    """Sweep parameters for a grid of exactly `points` points."""
    if parameter == "isotropic_p":
        grid = {"start": 0.125, "step": 0.75 / (points - 1)}
    else:
        grid = {"start": -30.5, "step": 0.0625, "a_degrees": 12.5, "a_prime_degrees": -77.5}
    grid["stop"] = grid["start"] + (points - 1) * grid["step"]
    return {"parameter": parameter, **grid}


def sweep_argv(grid: dict) -> list[str]:
    """The sweep command for the parameters of `sweep_grid`."""
    return ["sweep"] + [
        f"--{key.replace('_', '-')}={value!r}" if key != "parameter" else f"--parameter={value}"
        for key, value in grid.items()
    ]


#: Runs the command in its argv in a child and prints the child's exit code
#: and peak resident set (ru_maxrss: kB on Linux).
PEAK_RSS = (
    "import resource, subprocess, sys; code = subprocess.run(sys.argv[1:]).returncode; "
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


class TestStreamedSweeps:
    """Sweeps are evaluated, rendered and written a block of grid points at
    a time; the bytes stay those of the reference renderers."""

    @pytest.mark.parametrize("parameter, points", [
        ("isotropic_p", 4095), ("theta_degrees", 4096),
        ("isotropic_p", 4097), ("theta_degrees", 4097), ("isotropic_p", 8193),
    ])
    def test_output_equals_the_references(self, capsys, tmp_path, parameter, points):
        grid = sweep_grid(parameter, points)
        argv = sweep_argv(grid)
        records = sweep_records(Scenario(f"sweep-{parameter}", "sweep", grid))
        assert len(records) == points
        target = tmp_path / "sweep.out"
        for fmt, reference in REFERENCES.items():
            want = reference(records)
            assert run_cli(capsys, *argv, "--format", fmt) == (0, want, ""), fmt
            assert run_cli(capsys, *argv, "--format", fmt, "--out", str(target)) == (0, "", "")
            assert target.read_text(encoding="utf-8") == want, fmt

    def test_sweep_scenario_file_through_run(self, capsys, tmp_path):
        grid = sweep_grid("theta_degrees", 4097)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"id": "theta-file", "kind": "sweep", "parameters": grid}))
        records = sweep_records(Scenario("theta-file", "sweep", grid))
        assert len(records) == 4097
        for fmt, reference in REFERENCES.items():
            assert run_cli(capsys, "run", str(path), "--format", fmt) == (
                0, reference(records), "",
            ), fmt

    def test_invalid_grid_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "sweep.out"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"id": "bad", "kind": "sweep", "parameters": {
            "parameter": "isotropic_p", "start": 0.0, "stop": 1.0, "step": 1e-12,
        }}))
        for argv in (
            ["sweep", "--parameter", "isotropic_p", "--start", "0", "--stop", "1",
             "--step", "1e-12"],
            ["sweep", "--parameter", "theta_degrees", "--start", "0", "--stop", "-1",
             "--step", "1"],
            ["run", str(path)],
        ):
            for fmt in FORMATS:
                for out in ([], ["--out", str(target)]):
                    code, stdout, err = run_cli(capsys, *argv, "--format", fmt, *out)
                    assert (code, stdout) == (1, ""), (argv, fmt)
                    assert err.startswith("error: parameters.")
                    assert not target.exists()

    def test_unwritable_out_is_runtime_error(self, capsys, tmp_path):
        for fmt in FORMATS:
            code, out, err = run_cli(
                capsys, *sweep_argv(sweep_grid("isotropic_p", 11)), "--format", fmt,
                "--out", str(tmp_path),
            )
            assert (code, out) == (2, "")
            assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_does_not_grow_with_the_grid(self, tmp_path, fmt):
        # 300,001 points: a list of records would peak at about 200 MB here.
        target = tmp_path / f"sweep.{fmt}"
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "mucorr",
             "sweep", "--parameter", "isotropic_p", "--start", "0", "--stop", "1",
             "--step", repr(1 / 300_000), "--format", fmt, "--out", str(target)],
            capture_output=True, text=True, timeout=120,
        )
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0, proc.stderr
        assert target.read_text().count("sweep-isotropic_p") == 300_001
        assert peak_kb < 80 * 1024

    def test_monte_carlo_is_refused(self, capsys, tmp_path):
        # Sweeps are analytic only: asking for sampling is a named problem,
        # never a silent analytic run.
        path = tmp_path / "sweep-mc.json"
        path.write_text(json.dumps({
            "id": "sweep-mc", "kind": "sweep", "mc": {"n_samples": 1000, "seed": 1},
            "parameters": {"parameter": "isotropic_p", "start": 0.0, "stop": 1.0, "step": 0.5},
        }))
        shipped = str(Path(__file__).resolve().parent.parent / "scenarios" / "sweep-isotropic.json")
        for argv in (
            ["run", shipped, "--mc"],
            ["run", shipped, "--samples", "1000"],
            ["run", shipped, "--seed", "3"],
            ["run", str(path)],
            ["validate", str(path)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err.count("error:") == 1 and "sweeps are analytic only" in err, argv


class TestListAndValidate:
    def test_list_names_all_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "scenario,kind,notes"
        ids = {line.split(",")[0] for line in lines[1:]}
        assert ids == {
            "paper-standard",
            "paper-55-35",
            "paper-pr-box",
            "paper-coin",
            "paper-shapes",
        }

    def test_validate_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "paper-pr-box")
        assert code == 0
        assert out == "ok: paper-pr-box (nsbox)\n"

    def test_validate_every_shipped_file(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
        files = sorted(root.glob("*.json"))
        assert files
        for path in files:
            code, out, _ = run_cli(capsys, "validate", str(path))
            assert code == 0, path.name
            assert out.startswith("ok: ")

    def test_validate_bad_file_lists_problems(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"id": "bad", "kind": "chsh", "parameters": {}}))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.count("error:") >= 4  # one line per missing angle
        assert "a_degrees" in err


class TestExitCodes:
    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, "run", "paper-nonexistent")
        assert code == 1
        assert "unknown scenario" in err
        assert "mucorr list" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run_cli(capsys, "run", "paper-coin", "--samples", "0")
        assert code == 1
        assert "n_samples" in err

    def test_sample_count_boundaries(self, capsys):
        # 1 sample always has a constant outcome; 10^19 is above 2^63 - 1.
        for samples in ("1", "10000000000000000000"):
            code, out, err = run_cli(capsys, "run", "paper-coin", "--samples", samples)
            assert code == 1, samples
            assert out == ""
            assert "n_samples" in err
            assert "Error:" not in err  # no exception type: a named problem

    def test_oversized_integer_and_boolean_are_named_problems(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for document, field in (
            ('{"id": "x", "kind": "nsbox", "parameters": {"isotropic_p": 1'
             + "0" * 400 + "}}", "isotropic_p"),
            ('{"id": "x", "kind": "classical", "parameters": {"variant": "coin"},'
             ' "mc": {"seed": true}}', "seed"),
        ):
            path.write_text(document)
            code, out, err = run_cli(capsys, "run", str(path))
            assert code == 1, field
            assert out == ""
            assert err.count("error:") == 1 and field in err
            assert "Error:" not in err

    def test_non_string_kind_is_one_problem(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for kind in (5, [1], None):
            path.write_text(json.dumps({"id": "x", "kind": kind, "parameters": {}}))
            for command in ("run", "validate"):
                code, out, err = run_cli(capsys, command, str(path))
                assert (code, out) == (1, ""), (kind, command)
                assert err == f"error: kind must be one of {KINDS}, got {kind!r}\n"

    def test_failed_run_writes_no_file(self, capsys, tmp_path):
        # One sample has a constant outcome: the run fails before --out opens.
        target = tmp_path / "rows.out"
        for fmt in FORMATS:
            code, out, err = run_cli(
                capsys, "run", "paper-coin", "--samples", "1", "--format", fmt,
                "--out", str(target),
            )
            assert (code, out) == (1, ""), fmt
            assert "n_samples" in err
            assert not target.exists()

    def test_unreadable_scenario_path_is_validation_error(self, capsys, tmp_path):
        # A directory, or a file that cannot be opened, is a bad scenario.
        locked = tmp_path / "locked.json"
        locked.write_text("{}")
        denied = PermissionError(errno.EACCES, "Permission denied", str(locked))
        for path, patch in (
            (tmp_path, contextlib.nullcontext()),
            (locked, mock.patch("mucorr.scenarios.open", side_effect=denied, create=True)),
        ):
            for command in ("run", "validate"):
                with patch:
                    code, out, err = run_cli(capsys, command, str(path))
                assert (code, out) == (1, ""), (path, command)
                assert err.startswith(f"error: {path}: cannot read the file: ")
                assert err.count("\n") == 1 and "Errno" not in err

    def test_bogus_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "error" in err

    def test_bad_format_choice(self, capsys):
        code, _, err = run_cli(capsys, "run", "paper-coin", "--format", "yaml")
        assert code == 1
        assert "format" in err

    def test_unwritable_out_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "paper-coin", "--out", str(tmp_path)
        )
        assert code == 2
        assert "error:" in err


THETA_SWEEP_CSV = ["sweep", "--parameter", "theta_degrees", "--start", "0",
                   "--stop", "9999", "--step", "1", "--format", "csv"]


class TestClosedStdout:
    """A reader that stops early, as `head` does, ends the output: mucorr
    then exits 0 and prints nothing more, buffered or not."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv, lines", [
        (THETA_SWEEP_CSV, 1),  # 10,001 rows: the reader goes mid-output
        (["run", "paper-pr-box", "--samples", "1", "--format", "csv"], 0),
        (["validate", "paper-coin"], 0),
        (["--help"], 0),
    ])
    def test_quiet_exit(self, argv, lines, unbuffered):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "mucorr", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (0, b"")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_closed_out_pipe_is_runtime_error(self, tmp_path):
        # Only standard output ends quietly: --out names what mucorr must write.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = subprocess.Popen(
            [sys.executable, "-c", "import sys; open(sys.argv[1], 'rb').read(10)", str(fifo)]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "mucorr", *THETA_SWEEP_CSV, "--out", str(fifo)],
            capture_output=True, text=True, timeout=60,
        )
        assert reader.wait(timeout=60) == 0
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mucorr", "run", "paper-coin"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "paper-coin" in proc.stdout


# The argv grammar of the reader's equivalence test: every option of every
# command with values it takes and values it refuses.
COUNTS = ["1000", "0", "-5", "x", "1.5", " 7 ", "1_000", "", "10000000000000000000000"]
NUMBERS = [
    "0", "1", "0.25", "-0.5", "-1e308", "1e400", "nan", "-inf", "x", "1e", " 2 ",
    "", "-", "0x10", "1_0.5",
]
OPTION_VALUES = {
    "--mc": [],
    "--samples": COUNTS,
    "--seed": COUNTS,
    "--format": [*FORMATS, "yaml", "JSON", ""],
    "--out": ["out.csv", "", "-", "--x", "-o", "a b", "a=b", "--help"],
    "--parameter": [*SWEEP_PARAMETERS, "x", ""],
    "--start": NUMBERS,
    "--stop": NUMBERS,
    "--step": NUMBERS,
    "--a-degrees": NUMBERS,
    "--a-prime-degrees": NUMBERS,
}
STRAYS = ["-h", "--help", "--", "--verbose", "-x", "-5", "-", "", "paper-coin", "extra", "--=1",
          "--mc=1", "--mc="]
COMMANDS = ["run", "sweep", "list", "validate"]
COMMAND_OPTIONS = {
    "run": ["--mc", "--samples", "--seed", "--format", "--out"],
    "sweep": ["--parameter", "--start", "--stop", "--step", "--a-degrees",
              "--a-prime-degrees", "--format", "--out"],
    "list": ["--format", "--out"],
    "validate": [],
}


@st.composite
def well_formed_argv(draw) -> list[str]:
    """A call that the reader must read: exact options, in any order and
    possibly repeated, with values that convert, joined by '=' when they
    start with '-', as in the `--start=...` forms that
    `perfbench/workloads.py` emits."""
    command = draw(st.sampled_from(COMMANDS))
    flags = draw(st.lists(st.sampled_from(COMMAND_OPTIONS[command]), max_size=6)) if (
        COMMAND_OPTIONS[command]) else []
    if command == "sweep":
        flags += ["--parameter", "--start", "--stop", "--step"]
    tokens = [[draw(st.sampled_from(["paper-coin", "x.json", "", "list"]))]] if command in (
        "run", "validate") else []
    for flag in draw(st.permutations(flags)):
        if flag == "--mc":
            tokens.append([flag])
            continue
        value = {
            "--samples": str(draw(st.integers(-10, 10**7))),
            "--seed": str(draw(st.integers(-10, 10**7))),
            "--format": draw(st.sampled_from(FORMATS)),
            "--out": draw(st.sampled_from(["out.csv", "", "a b", "a=b", "-o", "--help"])),
            "--parameter": draw(st.sampled_from(SWEEP_PARAMETERS)),
        }.get(flag) or repr(draw(st.floats()))
        if value.startswith("-") or draw(st.booleans()):
            tokens.append([f"{flag}={value}"])
        else:
            tokens.append([flag, value])
    return [command, *(token for group in draw(st.permutations(tokens)) for token in group)]


@st.composite
def any_argv(draw) -> list[str]:
    """A well-formed call with up to three faults: a stray token (help, '--',
    an unknown flag, a dash-leading or extra positional, an option of any
    command with any value, or with '=' where it takes none), an
    abbreviated option, a value replaced, a token dropped, or another
    command name."""
    argv = draw(well_formed_argv())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        fault = draw(st.sampled_from(["stray", "option", "abbreviate", "value", "drop",
                                      "command"]))
        flag = draw(st.sampled_from(list(OPTION_VALUES)))
        value = draw(st.sampled_from(OPTION_VALUES[flag] or STRAYS))
        if fault == "stray":
            argv.insert(at, draw(st.sampled_from(STRAYS)))
        elif fault == "option":
            argv[at:at] = draw(st.sampled_from([[flag, value], [f"{flag}={value}"], [flag]]))
        elif fault == "abbreviate":
            long = [i for i, arg in enumerate(argv) if arg.startswith("--") and len(arg) > 3]
            if long:
                i = draw(st.sampled_from(long))
                argv[i] = argv[i][:draw(st.integers(3, len(argv[i]) - 1))]
        elif argv and fault == "value":
            argv[min(at, len(argv) - 1)] = value
        elif argv and fault == "drop":
            del argv[min(at, len(argv) - 1)]
        elif argv:
            argv[0] = draw(st.sampled_from([*COMMANDS, "frobnicate", "-h", "--help"]))
    return argv


def comparable(namespace) -> dict:
    # repr tells nan from nan, -0.0 from 0.0 and 1 from 1.0 and "1".
    return {name: repr(value) for name, value in vars(namespace).items()}


class TestArgvReader:
    """`_read_argv` reads a call as argparse does, or leaves it to argparse."""

    @settings(max_examples=1500, deadline=None)
    @given(any_argv())
    def test_reader_returns_none_or_what_argparse_returns(self, argv):
        read = cli._read_argv(argv)
        if read is not None:
            assert comparable(read) == comparable(build_parser().parse_args(argv)), argv

    @settings(max_examples=500, deadline=None)
    @given(well_formed_argv())
    def test_well_formed_calls_are_read(self, argv):
        read = cli._read_argv(argv)
        assert read is not None, argv
        assert comparable(read) == comparable(build_parser().parse_args(argv)), argv

    @pytest.mark.parametrize("argv", [
        ["run", "paper-coin", "--form", "csv"],
        ["run", "paper-coin", "--help"],
        ["run", "paper-coin", "-h"],
        ["run", "--", "paper-coin"],
        ["run", "paper-coin", "--samples", "-5"],
        ["run", "-paper"],
        ["run", "paper-coin", "extra"],
        ["run"],
        ["run", "paper-coin", "--mc=1"],
        ["run", "paper-coin", "--samples", "x"],
        ["run", "paper-coin", "--format", "yaml"],
        ["run", "paper-coin", "--out"],
        ["sweep", "--parameter", "isotropic_p", "--start", "0", "--stop", "1"],
        ["sweep", "--parameter", "isotropic_p", "--start", "-0.5", "--stop", "1", "--step", "1"],
        ["validate", "paper-coin", "--mc"],
        ["frobnicate"],
        [],
    ])
    def test_calls_left_to_argparse(self, argv):
        assert cli._read_argv(argv) is None

    def test_repeated_option_last_wins(self):
        argv = ["run", "paper-coin", "--format", "csv", "--seed", "3", "--format=json", "--mc",
                "--mc"]
        read = cli._read_argv(argv)
        assert vars(read) == vars(build_parser().parse_args(argv))
        assert (read.format, read.seed, read.mc) == ("json", 3, True)

    @pytest.mark.parametrize("argv", [
        ["list", "--format", "csv"],
        ["run", "paper-coin", "--samples", "1000", "--seed", "7", "--format", "json"],
        ["run"],
        ["run", "paper-coin", "--verbose"],
    ])
    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch, argv):
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["mucorr", *argv])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected


class TestRepeatedCalls:
    def test_main_keeps_nothing_between_calls(self, capsys):
        sweep = ["sweep", "--parameter", "theta_degrees", "--start", "0",
                 "--stop", "90", "--step", "7.5", "--a-degrees", "10",
                 "--a-prime-degrees", "100", "--format", "csv"]
        alone = subprocess.run(
            [sys.executable, "-m", "mucorr", *sweep],
            capture_output=True, text=True, timeout=60,
        )
        assert alone.returncode == 0
        code, out, _ = run_cli(
            capsys, "run", "paper-coin", "--samples", "1000", "--seed", "3",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)[0]["mc_value"] is not None
        code, out, _ = run_cli(capsys, "run", "paper-coin", "--format", "json")
        assert code == 0 and json.loads(out)[0]["mc_value"] is None
        assert run_cli(capsys, "run", "paper-coin", "--samples", "x")[0] == 1
        assert run_cli(capsys, *sweep) == (0, alone.stdout, "")
        # Without the theta flags the defaults come back.
        code, out, _ = run_cli(capsys, *sweep[:-6], "--format", "csv")
        assert code == 0 and out != alone.stdout
        assert abs(float(out.split("\n")[1].split(",")[2])) < 1e-12  # rho_ci at theta = a = 0


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_every_format_renders_every_builtin(capsys, fmt):
    for scenario_id in builtin_scenarios():
        code, out, err = run_cli(capsys, "run", scenario_id, "--format", fmt)
        assert code == 0, (scenario_id, err)
        assert out
