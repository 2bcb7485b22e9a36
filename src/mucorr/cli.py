"""Command-line interface: run scenarios, sweep parameters, emit results.

Exit codes: 0 success, or a standard output that its reader closed early;
1 validation error (bad arguments, malformed or unknown scenario, a Monte
Carlo sample too small to estimate from); 2 runtime error (unwritable
output, unexpected failure). Nothing else is ever returned.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Callable, NamedTuple

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


class _Option(NamedTuple):
    """One option of a command, as `add_argument` takes it. A `type` of None
    makes the option a flag (`store_true`); any other type converts its value."""

    flag: str
    type: Callable[[str], object] | None = str
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    metavar: str | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        """The attribute that argparse names after the flag."""
        return self.flag[2:].replace("-", "_")


_OUTPUT_OPTIONS = (
    _Option("--format", choices=FORMATS, default="table", help="output format (default: table)"),
    _Option("--out", metavar="PATH", help="write output to PATH instead of standard output"),
)

#: Each command: its help, its positionals as (name, help), and its options,
#: in the order that the help lists them. `build_parser` and `_read_argv`
#: both read this table.
_COMMANDS = {
    "run": (
        "run a built-in scenario id or a scenario file",
        (("scenario", "built-in id (see 'mucorr list') or path to a JSON file"),),
        (
            _Option("--mc", None, default=False, help=(
                "add Monte Carlo estimates (default: n=%d, seed=%d)" % SampleConfig()
            )),
            _Option("--samples", int, metavar="N", help="Monte Carlo sample count (implies --mc)"),
            _Option("--seed", int, metavar="S", help="Monte Carlo master seed (implies --mc)"),
            *_OUTPUT_OPTIONS,
        ),
    ),
    "sweep": (
        "evaluate derived quantities over a parameter grid",
        (),
        (
            _Option("--parameter", choices=SWEEP_PARAMETERS, required=True, help="grid parameter"),
            _Option("--start", float, required=True, metavar="X"),
            _Option("--stop", float, required=True, metavar="Y"),
            _Option("--step", float, required=True, metavar="Z"),
            _Option("--a-degrees", float, metavar="DEG", help=(
                f"measured direction for theta_degrees sweeps (default {SWEEP_DIRECTIONS[0]:g})"
            )),
            _Option("--a-prime-degrees", float, metavar="DEG", help=(
                f"unmeasured direction for theta_degrees sweeps (default {SWEEP_DIRECTIONS[1]:g})"
            )),
            *_OUTPUT_OPTIONS,
        ),
    ),
    "list": ("list the built-in scenarios", (), _OUTPUT_OPTIONS),
    "validate": (
        "check a scenario id or file without running it", (("scenario", None),), (),
    ),
}


def _read_argv(argv) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns for an exact,
    well-formed call, or None for any call that argparse should read: help,
    '--', an abbreviated or unknown option, a value or positional that
    starts with '-', a missing or extra positional, a missing required
    option, or a value that fails its conversion or choices."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, options = _COMMANDS[argv[0]]
    by_flag = {option.flag: option for option in options}
    values = {}
    found = []
    args = iter(argv[1:])
    for arg in args:
        if not arg.startswith("-"):
            found.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        option = by_flag.get(flag)
        if option is None:
            return None
        if option.type is None:  # a flag takes no value
            if eq:
                return None
            values[flag] = True
            continue
        if not eq:
            value = next(args, "-")  # a missing value reads as a dash-leading one
            if value.startswith("-"):
                return None
        try:
            value = option.type(value)
        except (TypeError, ValueError):
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[flag] = value  # a repeated option: the last one wins
    if len(found) != len(positionals):
        return None
    if any(option.required and option.flag not in values for option in options):
        return None
    namespace = dict(zip((name for name, _ in positionals), found))
    for option in options:
        namespace[option.dest] = values.get(option.flag, option.default)
    return SimpleNamespace(command=argv[0], **namespace)


@functools.cache
def build_parser():
    """The CLI's parser, built from `_COMMANDS` once per process; parsing
    leaves it unchanged. `main` builds it only for calls that `_read_argv`
    leaves to it, so that help and usage errors are argparse's own."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argument errors are validation errors, so they exit 1, not 2."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="mucorr",
        description=(
            "Analytic and Monte Carlo correlation measures between measured "
            "and unmeasured outcomes in spin pairs and no-signalling boxes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (command_help, positionals, options) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=command_help)
        for name, positional_help in positionals:
            command_parser.add_argument(name, help=positional_help)
        for option in options:
            if option.type is None:
                command_parser.add_argument(option.flag, action="store_true", help=option.help)
            else:
                command_parser.add_argument(
                    option.flag, type=option.type, choices=option.choices,
                    default=option.default, required=option.required,
                    metavar=option.metavar, help=option.help,
                )
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


#: Whether a text holds a comma, a double quote, CR or LF: a CSV field that
#: does is quoted, with its quotes doubled (RFC 4180).
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_fields(cells: list[str], lone: bool) -> list[str]:
    """Text cells as CSV fields. In a row of one field (`lone`), an empty
    field is quoted too, so that its line is not blank."""
    if not lone and not _CSV_SPECIAL("".join(cells)):
        return cells
    return [
        '"%s"' % cell.replace('"', '""') if _CSV_SPECIAL(cell) or (lone and not cell) else cell
        for cell in cells
    ]


def _write_csv(stream, headers: list, blocks) -> None:
    """A header line, then a line per row: each text column by `_csv_fields`."""
    lone = len(headers) == 1
    stream.write(",".join(_csv_fields(headers, lone)) + "\n")
    for block in blocks:
        columns = [
            cells if types == {float} else _csv_fields(cells, lone)
            for cells, types in map(_cell_column, block)
        ]
        stream.write("\n".join(map(",".join, zip(*columns))) + "\n")


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


def _apply_mc_flags(scenario: Scenario, args: SimpleNamespace) -> Scenario:
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


def _cmd_run(args: SimpleNamespace) -> None:
    scenario = _apply_mc_flags(_resolve_scenario(args.scenario), args)
    if scenario.kind == "sweep":
        columns = sweep_columns(scenario)
    else:
        # Evaluated here, before emit opens --out, so a failed run writes nothing.
        columns = ColumnBlocks(list(ResultRow._fields), [list(zip(*run(scenario)))])
    emit(columns, args.format, args.out)


def _cmd_sweep(args: SimpleNamespace) -> None:
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


def _cmd_list(args: SimpleNamespace) -> None:
    catalog = builtin_scenarios().values()
    columns = [
        [s.scenario_id for s in catalog],
        [s.kind for s in catalog],
        [" ".join(s.notes) for s in catalog],
    ]
    emit(ColumnBlocks(["scenario", "kind", "notes"], [columns]), args.format, args.out)


def _cmd_validate(args: SimpleNamespace) -> None:
    scenario = _resolve_scenario(args.scenario)
    print(f"ok: {scenario.scenario_id} ({scenario.kind})")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = None
    try:
        args = _read_argv(argv)
        if args is None:
            try:
                args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
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
