"""Command-line interface: run scenarios, sweep parameters, emit results.

Exit codes: 0 success, 1 validation error (bad arguments, malformed or
unknown scenario, a Monte Carlo sample too small to estimate from), 2
runtime error (unwritable output, unexpected failure). Nothing else is
ever returned.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import DegenerateSequenceError, ValidationError
from .montecarlo import SampleConfig
from .scenarios import (
    SWEEP_PARAMETERS,
    ColumnBlocks,
    Scenario,
    as_record,
    builtin_scenarios,
    load_scenario_file,
    run,
    sweep_columns,
)

FORMATS = ("table", "csv", "json")


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors, so they exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=FORMATS, default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write output to PATH instead of standard output",
    )


def _add_mc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mc", action="store_true",
        help="add Monte Carlo estimates (default: n=1000000, seed=42)",
    )
    parser.add_argument(
        "--samples", type=int, metavar="N", default=None,
        help="Monte Carlo sample count (implies --mc)",
    )
    parser.add_argument(
        "--seed", type=int, metavar="S", default=None,
        help="Monte Carlo master seed (implies --mc)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="mucorr",
        description=(
            "Analytic and Monte Carlo correlation measures between measured "
            "and unmeasured outcomes in spin pairs and no-signalling boxes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser(
        "run", help="run a built-in scenario id or a scenario file",
    )
    run_p.add_argument(
        "scenario", help="built-in id (see 'mucorr list') or path to a JSON file",
    )
    _add_mc_flags(run_p)
    _add_output_flags(run_p)

    sweep_p = sub.add_parser(
        "sweep", help="evaluate derived quantities over a parameter grid",
    )
    sweep_p.add_argument(
        "--parameter", required=True, choices=SWEEP_PARAMETERS,
        help="grid parameter",
    )
    sweep_p.add_argument("--start", type=float, required=True, metavar="X")
    sweep_p.add_argument("--stop", type=float, required=True, metavar="Y")
    sweep_p.add_argument("--step", type=float, required=True, metavar="Z")
    sweep_p.add_argument(
        "--a-degrees", type=float, default=None, metavar="DEG",
        help="measured direction for theta_degrees sweeps (default 0)",
    )
    sweep_p.add_argument(
        "--a-prime-degrees", type=float, default=None, metavar="DEG",
        help="unmeasured direction for theta_degrees sweeps (default 90)",
    )
    _add_output_flags(sweep_p)

    list_p = sub.add_parser("list", help="list the built-in scenarios")
    _add_output_flags(list_p)

    val_p = sub.add_parser(
        "validate", help="check a scenario id or file without running it",
    )
    val_p.add_argument("scenario")

    return parser


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


#: Records that emit renders at a time, and table lines that it writes at a
#: time, so that beside the text it holds the cells of one block of records.
_BLOCK_ROWS = 4096

_float_cell = "{:.12g}".format


def _cell_column(values: list) -> tuple[list[str], set[type]]:
    """The values as `_fmt_cell` gives them, with the set of their types."""
    types = set(map(type, values))
    return list(map(_float_cell if types == {float} else _fmt_cell, values)), types


def _write_table(stream, headers: list, blocks) -> None:
    """Two passes: the widths, then the lines. Between them it keeps the
    formatted cells of every block."""
    columns = [[] for _ in headers]
    kinds = [set() for _ in headers]
    for block in blocks:
        for cells, types, values in zip(columns, kinds, block):
            text, seen = _cell_column(values)
            cells.extend(text)
            types |= seen
    widths = [max(len(header), max(map(len, cells))) for header, cells in zip(headers, columns)]
    aligns = [
        ">" if all(t is type(None) or issubclass(t, (int, float)) for t in types) else "<"
        for types in kinds
    ]
    # One format string pads a whole row: numbers right, text left.
    row = "  ".join(f"{{:{align}{width}}}" for align, width in zip(aligns, widths))
    stream.write(row.format(*headers).rstrip() + "\n")
    stream.write(row.format(*["-" * width for width in widths]).rstrip() + "\n")
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = [column[start:start + _BLOCK_ROWS] for column in columns]
        stream.write("".join(line.rstrip() + "\n" for line in map(row.format, *cells)))


def _write_csv(stream, headers: list, blocks) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(headers)
    for block in blocks:
        columns = list(map(_cell_column, block))
        rows = zip(*(cells for cells, _ in columns))
        # '.12g' floats never need quoting. When no other cell does either,
        # and no row is one lone field (csv writes a lone empty one as '""'),
        # each line is its cells joined by commas.
        text = {cell for cells, types in columns if types != {float} for cell in cells}
        if len(headers) > 1 and _CSV_LINE.writerow(list(text)) == ",".join(text) + "\n":
            stream.write("\n".join(map(",".join, rows)) + "\n")
        else:
            writer.writerows(rows)


#: A csv writer whose `writerow` returns the line it would write.
_CSV_LINE = csv.writer(SimpleNamespace(write=str), lineterminator="\n")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: How `json` writes each scalar type it is given exactly (not a subclass).
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _json_column(values: list) -> list[str] | None:
    """The values as JSON, or None if one of them is not a plain scalar."""
    types = set(map(type, values))
    if types == {float}:
        texts = list(map(float.__repr__, values))
        return list(map(_NON_FINITE.get, texts, texts))
    if not types <= _JSON_SCALARS.keys():
        return None
    return [_JSON_SCALARS[type(value)](value) for value in values]


def _json_record(record: dict) -> str:
    """The record as `json.dumps(records, indent=2)` lays it out in the array."""
    return "  " + json.dumps(record, indent=2).replace("\n", "\n  ")


def _json_block(keys: list[str], block: list[list]) -> list[str]:
    """Each row of a block under its (non-empty, str) keys, as `_json_record`
    gives it: a column at a time while the values are plain scalars."""
    columns = list(map(_json_column, block))
    if None in columns:
        return [_json_record(dict(zip(keys, row))) for row in zip(*block)]
    record = ",\n    ".join(
        encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}") + ": {}"
        for key in keys
    )
    return list(map(("  {{\n    " + record + "\n  }}").format, *columns))


def _json_records(records: list[dict]) -> list[str]:
    """`_json_record` of each record: by `_json_block` when they share their
    str keys, else record by record."""
    keys = list(records[0])
    if keys and all(map(keys.__eq__, map(list, records))) and all(
        type(key) is str for key in keys
    ):
        return _json_block(keys, [[rec[key] for rec in records] for key in keys])
    return list(map(_json_record, records))


def _write_json(stream, texts) -> None:
    """Write a JSON array whose elements come as a list of texts per block."""
    opener = "[\n"
    for block in texts:
        stream.write(opener + ",\n".join(block))
        opener = ",\n"
    stream.write("\n]\n")


def _write(stream, records: list[dict] | ColumnBlocks, format: str) -> None:
    """Render and write records, or a ColumnBlocks, one block at a time."""
    if isinstance(records, ColumnBlocks):
        headers, blocks = records
        texts = map(functools.partial(_json_block, headers), blocks)
    else:
        headers = list(records[0])
        chunks = [records[i:i + _BLOCK_ROWS] for i in range(0, len(records), _BLOCK_ROWS)]
        blocks = ([[rec.get(h) for rec in chunk] for h in headers] for chunk in chunks)
        texts = map(_json_records, chunks)
    if format == "json":
        _write_json(stream, texts)
    elif not headers:
        # No column counts the records: each is a blank line under blank headers.
        stream.write("\n" * (len(records) + (2 if format == "table" else 1)))
    else:
        (_write_table if format == "table" else _write_csv)(stream, headers, blocks)


def _render(format: str, records: list[dict]) -> str:
    """The text `emit` writes for records."""
    buffer = io.StringIO()
    _write(buffer, records, format)
    return buffer.getvalue()


_render_table, _render_csv, _render_json = (
    functools.partial(_render, format) for format in FORMATS
)


def emit(
    records: list[dict] | ColumnBlocks, format: str = "table", out: str | None = None,
) -> None:
    """Render records in one of the three formats, to stdout or a file.

    CSV uses a comma separator, '.' decimal point, a header row, and 12
    significant digits; JSON is an array of objects with stable keys and
    full-precision numbers; the table is aligned for reading. A sweep's
    ColumnBlocks (see `sweep_columns`) is evaluated, rendered and written a
    block at a time, so a failure part way leaves partial output behind.
    """
    if not records:
        raise ValidationError("nothing to emit: no result rows")
    if format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {format!r}")
    if out is None:
        _write(sys.stdout, records, format)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            _write(handle, records, format)


def _resolve_scenario(reference: str) -> Scenario:
    catalog = builtin_scenarios()
    if reference in catalog:
        return catalog[reference]
    if os.path.exists(reference):
        return load_scenario_file(reference)
    raise ValidationError(
        f"unknown scenario {reference!r}: not a built-in id (see 'mucorr list') "
        "and not an existing file"
    )


def _apply_mc_flags(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    requested = args.mc or args.samples is not None or args.seed is not None
    if not requested:
        return scenario
    base = scenario.mc if scenario.mc is not None else SampleConfig()
    n = args.samples if args.samples is not None else base.n_samples
    seed = args.seed if args.seed is not None else base.seed
    try:
        cfg = SampleConfig(n_samples=n, seed=seed)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return replace(scenario, mc=cfg)


def _cmd_run(args: argparse.Namespace) -> None:
    scenario = _apply_mc_flags(_resolve_scenario(args.scenario), args)
    if scenario.kind == "sweep":
        records = sweep_columns(scenario)
    else:
        records = [as_record(row) for row in run(scenario)]
    emit(records, args.format, args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    parameters = {
        "parameter": args.parameter,
        "start": args.start,
        "stop": args.stop,
        "step": args.step,
    }
    if args.a_degrees is not None:
        parameters["a_degrees"] = args.a_degrees
    if args.a_prime_degrees is not None:
        parameters["a_prime_degrees"] = args.a_prime_degrees
    scenario = Scenario(
        scenario_id=f"sweep-{args.parameter}", kind="sweep", parameters=parameters,
    )
    emit(sweep_columns(scenario), args.format, args.out)


def _cmd_list(args: argparse.Namespace) -> None:
    records = [
        {
            "scenario": s.scenario_id,
            "kind": s.kind,
            "notes": " ".join(s.notes),
        }
        for s in builtin_scenarios().values()
    ]
    emit(records, args.format, args.out)


def _cmd_validate(args: argparse.Namespace) -> None:
    scenario = _resolve_scenario(args.scenario)
    print(f"ok: {scenario.scenario_id} ({scenario.kind})")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "list": _cmd_list,
        "validate": _cmd_validate,
    }[args.command]
    try:
        handler(args)
    except ValidationError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 1
    except DegenerateSequenceError as exc:  # a constant Monte Carlo outcome
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is a runtime error, code 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
