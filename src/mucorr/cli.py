"""Command-line interface: run scenarios, sweep parameters, emit results.

Exit codes: 0 success, or a standard output that its reader closed early;
1 validation error (bad arguments, malformed or unknown scenario, a Monte
Carlo sample too small to estimate from); 2 runtime error (unwritable
output, unexpected failure). Nothing else is ever returned.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import DegenerateSequenceError, ValidationError
from .montecarlo import SampleConfig
from .scenarios import (
    SWEEP_DIRECTIONS,
    SWEEP_PARAMETERS,
    ColumnBlocks,
    ResultRow,
    Scenario,
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
    default = SampleConfig()
    parser.add_argument(
        "--mc", action="store_true",
        help=f"add Monte Carlo estimates (default: n={default.n_samples}, seed={default.seed})",
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
        help=f"measured direction for theta_degrees sweeps (default {SWEEP_DIRECTIONS[0]:g})",
    )
    sweep_p.add_argument(
        "--a-prime-degrees", type=float, default=None, metavar="DEG",
        help=f"unmeasured direction for theta_degrees sweeps (default {SWEEP_DIRECTIONS[1]:g})",
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


def _cell_column(values: list) -> tuple[list[str], set[type]]:
    """The values as `_fmt_cell` gives them, with the set of their types."""
    types = set(map(type, values))
    if types == {float}:
        # One % formats the whole column, as '.12g' formats each cell.
        return ("%.12g\n" * len(values) % tuple(values)).splitlines(), types
    return list(map(_fmt_cell, values)), types


def _write_table(stream, headers: list, blocks) -> None:
    """Two passes: the widths, then the lines. Between them it keeps the
    formatted cells of every block, and writes them block by block."""
    kinds = [set() for _ in headers]
    widths = list(map(len, headers))
    formatted = []
    for block in blocks:
        cells = []
        for i, values in enumerate(block):
            text, seen = _cell_column(values)
            kinds[i] |= seen
            widths[i] = max(widths[i], max(map(len, text)))
            cells.append(text)
        formatted.append(cells)
    # One template pads a whole row: numbers right, text left.
    row = "  ".join(
        f"%{'-' if str in types else ''}{width}s" for types, width in zip(kinds, widths)
    )
    stream.write((row % tuple(headers)).rstrip() + "\n")
    stream.write((row % tuple("-" * width for width in widths)).rstrip() + "\n")
    for cells in formatted:
        lines = map(row.__mod__, zip(*cells))
        if kinds[-1] != {float}:  # a line that ends in a number has no trailing spaces
            lines = map(str.rstrip, lines)
        stream.write("\n".join(lines) + "\n")


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
    return [_JSON_SCALARS[type(value)](value) for value in values]


def _write_json(stream, headers: list, blocks) -> None:
    """An array of one object per row, laid out as `json.dumps(rows,
    indent=2)` lays it out, a block at a time."""
    keys = [encode_basestring_ascii(key).replace("%", "%%") for key in headers]
    opener = "[\n"
    for block in blocks:
        # A column of finite floats goes into one % as it is, for '%r' to
        # write each float as `json` does; any other column as its JSON text.
        finite = [
            set(map(type, values)) == {float} and math.isfinite(sum(values))
            for values in block
        ]
        row = "  {\n    " + ",\n    ".join(
            key + (": %r" if raw else ": %s") for key, raw in zip(keys, finite)
        ) + "\n  }"
        cells = [values if raw else _json_column(values) for values, raw in zip(block, finite)]
        rows = ",\n".join([row] * len(block[0])) % tuple(chain.from_iterable(zip(*cells)))
        stream.write(opener + rows)
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
    return scenario._replace(mc=cfg)


def _cmd_run(args: argparse.Namespace) -> None:
    scenario = _apply_mc_flags(_resolve_scenario(args.scenario), args)
    if scenario.kind == "sweep":
        columns = sweep_columns(scenario)
    else:
        # Evaluated here, before emit opens --out, so a failed run writes nothing.
        columns = ColumnBlocks(list(ResultRow._fields), [list(zip(*run(scenario)))])
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
    catalog = builtin_scenarios().values()
    columns = [
        [s.scenario_id for s in catalog],
        [s.kind for s in catalog],
        [" ".join(s.notes) for s in catalog],
    ]
    emit(ColumnBlocks(["scenario", "kind", "notes"], [columns]), args.format, args.out)


def _cmd_validate(args: argparse.Namespace) -> None:
    scenario = _resolve_scenario(args.scenario)
    print(f"ok: {scenario.scenario_id} ({scenario.kind})")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = None
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after --help, or a usage error
            sys.stdout.flush()
            return int(exc.code or 0)
        handler = {
            "run": _cmd_run,
            "sweep": _cmd_sweep,
            "list": _cmd_list,
            "validate": _cmd_validate,
        }[args.command]
        handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
    except ValidationError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 1
    except DegenerateSequenceError as exc:  # a constant Monte Carlo outcome
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and getattr(args, "out", None) is None:
            # The reader ended standard output (--out sends nothing there). As the
            # signal module's "Note on SIGPIPE" shows, point it at os.devnull, so
            # that shutdown drops what is still buffered instead of reporting it.
            with contextlib.suppress(AttributeError, OSError):  # a stream without a descriptor
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is a runtime error, code 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
