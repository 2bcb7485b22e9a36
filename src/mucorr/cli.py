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


#: Table lines that emit writes at a time.
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
    # One format string pads a whole row: numbers right, text left.
    row = "  ".join(
        f"{{:{'<' if str in types else '>'}{width}}}" for types, width in zip(kinds, widths)
    )
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


#: How `json` writes each type of cell.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    float: _json_float,
    type(None): lambda value: "null",
}


def _json_column(values: list) -> list[str]:
    """The values as `json` writes them."""
    if set(map(type, values)) == {float}:
        texts = list(map(float.__repr__, values))
        return list(map(_NON_FINITE.get, texts, texts))
    return [_JSON_SCALARS[type(value)](value) for value in values]


def _write_json(stream, headers: list, blocks) -> None:
    """An array of one object per row, laid out as `json.dumps(rows,
    indent=2)` lays it out, a block at a time."""
    keys = ",\n    ".join(
        encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}") + ": {}"
        for key in headers
    )
    row = ("  {{\n    " + keys + "\n  }}").format
    opener = "[\n"
    for block in blocks:
        stream.write(opener + ",\n".join(map(row, *map(_json_column, block))))
        opener = ",\n"
    stream.write("\n]\n")


_WRITERS = {"table": _write_table, "csv": _write_csv, "json": _write_json}


def emit(columns: ColumnBlocks, format: str = "table", out: str | None = None) -> None:
    """Render headers and column blocks in one of the three formats, to
    stdout or a file.

    Every cell is a str, a float or None. CSV uses a comma separator, '.'
    decimal point, a header row, and 12 significant digits; JSON is an
    array of objects with stable keys and full-precision numbers; the table
    is aligned for reading. The blocks are read, rendered and written one
    at a time, so a lazy source (see `sweep_columns`) that fails part way
    leaves partial output behind.
    """
    write = _WRITERS.get(format)
    if write is None:
        raise ValidationError(f"format must be one of {FORMATS}, got {format!r}")
    if out is None:
        write(sys.stdout, *columns)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            write(handle, *columns)


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


def _one_block(records: list[dict]) -> ColumnBlocks:
    """Records that share their keys, as one block under those keys."""
    headers = list(records[0])
    return ColumnBlocks(headers, [[[record[key] for record in records] for key in headers]])


def _cmd_run(args: argparse.Namespace) -> None:
    scenario = _apply_mc_flags(_resolve_scenario(args.scenario), args)
    if scenario.kind == "sweep":
        columns = sweep_columns(scenario)
    else:
        # Evaluated here, before emit opens --out, so a failed run writes nothing.
        columns = _one_block(list(map(as_record, run(scenario))))
    emit(columns, args.format, args.out)


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
    emit(_one_block(records), args.format, args.out)


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
