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


def _render_table(records: list[dict]) -> str:
    headers = list(records[0].keys())
    body = [[_fmt_cell(rec.get(h)) for h in headers] for rec in records]
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


def _render_csv(records: list[dict]) -> str:
    headers = list(records[0].keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for rec in records:
        writer.writerow([_fmt_cell(rec.get(h)) for h in headers])
    return buffer.getvalue()


def _render_json(records: list[dict]) -> str:
    return json.dumps(records, indent=2) + "\n"


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
