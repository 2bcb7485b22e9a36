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

from .errors import DegenerateSequenceError, ValidationError
from .montecarlo import SampleConfig
from .scenarios import (
    SWEEP_PARAMETERS,
    Scenario,
    as_record,
    builtin_scenarios,
    load_scenario_file,
    run,
    sweep_rows,
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


#: Rows that CSV and JSON format at a time, so that beside the text they hold
#: the cells of one block, not of every record.
_BLOCK_ROWS = 4096

_float_cell = "{:.12g}".format


def _cell_column(records: list[dict], header) -> tuple[list[str], set[type]]:
    """A header's cells over the records, as `_fmt_cell` gives them, fetched
    and formatted in one pass, with the set of the values' types."""
    values = [rec.get(header) for rec in records]
    types = set(map(type, values))
    return list(map(_float_cell if types == {float} else _fmt_cell, values)), types


def _render_table(records: list[dict]) -> str:
    headers = list(records[0].keys())
    if not headers:
        return "\n" * (len(records) + 2)
    columns, widths, aligns = [], [], []
    for header in headers:
        cells, types = _cell_column(records, header)
        columns.append(cells)
        widths.append(max(len(header), max(map(len, cells))))
        numeric = all(t is type(None) or issubclass(t, (int, float)) for t in types)
        aligns.append(">" if numeric else "<")
    # One format string pads a whole row: numbers right, text left.
    row = "  ".join(f"{{:{align}{width}}}" for align, width in zip(aligns, widths))
    lines = [
        row.format(*headers).rstrip(),
        row.format(*["-" * width for width in widths]).rstrip(),
    ]
    lines.extend(map(str.rstrip, map(row.format, *columns)))
    lines.append("")  # the text ends in a newline
    return "\n".join(lines)


def _render_csv(records: list[dict]) -> str:
    headers = list(records[0].keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for start in range(0, len(records), _BLOCK_ROWS):
        block = records[start:start + _BLOCK_ROWS]
        if headers:
            writer.writerows(zip(*(_cell_column(block, h)[0] for h in headers)))
        else:
            writer.writerows([()] * len(block))
    return buffer.getvalue()


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


def _json_records(block: list[dict]) -> list[str]:
    """Each record as `json.dumps(records, indent=2)` lays it out in the
    array: a column at a time while the records share their keys and hold
    plain scalars, else record by record, and `json.dumps` for a record
    that holds anything else."""
    keys = list(block[0])
    if keys and all(map(keys.__eq__, map(list, block))) and all(
        type(key) is str for key in keys
    ):
        columns = [_json_column([rec[key] for rec in block]) for key in keys]
        if None not in columns:
            record = ",\n    ".join(
                encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}")
                + ": {}"
                for key in keys
            )
            return list(map(("  {{\n    " + record + "\n  }}").format, *columns))
    if len(block) > 1:
        return [text for rec in block for text in _json_records([rec])]
    return ["  " + json.dumps(block[0], indent=2).replace("\n", "\n  ")]


def _render_json(records: list[dict]) -> str:
    parts = ["[\n"]
    for start in range(0, len(records), _BLOCK_ROWS):
        parts.append(",\n".join(_json_records(records[start:start + _BLOCK_ROWS])))
        parts.append(",\n")
    parts[-1] = "\n]\n"
    return "".join(parts)


def emit(records: list[dict], format: str = "table", out: str | None = None) -> None:
    """Render records in one of the three formats, to stdout or a file.

    CSV uses a comma separator, '.' decimal point, a header row, and 12
    significant digits; JSON is an array of objects with stable keys and
    full-precision numbers; the table is aligned for reading.
    """
    if not records:
        raise ValidationError("nothing to emit: no result rows")
    if format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {format!r}")
    renderer = {
        "table": _render_table, "csv": _render_csv, "json": _render_json,
    }[format]
    text = renderer(records)
    if out is None:
        _write_in_slices(sys.stdout, text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            _write_in_slices(handle, text)


def _write_in_slices(stream, text: str) -> None:
    """Write text 2^20 characters at a time: a text stream encodes each write
    whole, so one write of a large output would hold a second, encoded copy."""
    for start in range(0, len(text), 1 << 20):
        stream.write(text[start:start + (1 << 20)])


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
        records = sweep_rows(scenario)
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
    emit(sweep_rows(scenario), args.format, args.out)


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
