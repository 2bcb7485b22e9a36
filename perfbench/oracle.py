"""Independent output oracle for the benchmark's CLI operations.

It parses the table, CSV and JSON the CLI writes and recomputes every row
from closed forms on the generated inputs. It never calls mucorr, so a
defect in mucorr cannot also hide in the expected values.

Monte Carlo values must lie within 10/sqrt(n) of the analytic value. The
spread of a single-row estimate is at most 1/sqrt(n) and of a four-term
composite at most 2/sqrt(n), so the band is at least five true standard
deviations wide. The reported standard error is not used for the check:
it is only counted, as the share of rows outside +/-4 reported SE.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field

from workloads import Op

RUN_HEADER = ["scenario", "quantity", "analytic", "mc_value", "mc_std_error", "flags"]
SWEEP_HEADERS = {
    "isotropic_p": ["scenario", "isotropic_p", "s_ns", "s_e", "rho_min", "rho_ci"],
    "theta_degrees": ["scenario", "theta_degrees", "rho_ci", "info_bits"],
}
CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
#: Numbers the CLI prints with 12 significant digits; JSON keeps all digits.
ABS_TOL = 1e-9
REL_TOL = 1e-11
#: Distance from a threshold inside which a flag may go either way.
EDGE = 1e-9
_INPUTS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class Expected:
    """One expected result row. `value` or `flags` of None is not checked;
    `mc` says whether the row carries a Monte Carlo estimate."""

    quantity: str
    value: float | None
    flags: str | None = ""
    mc: bool = False
    angle: bool = False


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    rows: int = 0
    mc_rows: int = 0
    se_band_misses: int = 0


# -- parsing -------------------------------------------------------------

def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _json_rows(text: str):
    rows = json.loads(text)
    if not isinstance(rows, list) or not all(isinstance(obj, dict) for obj in rows):
        raise ValueError("JSON output is not an array of objects")
    for obj in rows:
        yield list(obj), obj


def _csv_rows(text: str):
    reader = csv.reader(text.splitlines())
    header = next(reader)
    for cells in reader:
        if len(cells) != len(header):
            raise ValueError(f"CSV row has {len(cells)} cells, header {len(header)}")
        yield header, {h: _cell(c) for h, c in zip(header, cells)}


def _table_rows(text: str):
    lines = text.splitlines()
    if len(lines) < 2 or set(lines[1]) - {"-", " "}:
        raise ValueError("table output lacks its header and rule lines")
    spans = [m.span() for m in re.finditer(r"-+", lines[1])]
    header = [lines[0][s:e].strip() for s, e in spans]
    for line in lines[2:]:
        if len(line) > spans[-1][1]:
            raise ValueError(f"table row wider than its rule: {line!r}")
        yield header, {h: _cell(line[s:e].strip()) for h, (s, e) in zip(header, spans)}


def read_rows(text: str, fmt: str):
    """Yield (header, row) pairs of CLI output in any of the three formats."""
    return {"json": _json_rows, "csv": _csv_rows, "table": _table_rows}[fmt](text)


# -- closed forms --------------------------------------------------------

def _cos(x_deg: float, y_deg: float) -> float:
    return math.cos(math.radians(x_deg) - math.radians(y_deg))


def _entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _info(rho: float) -> float:
    return 1.0 - _entropy((1.0 + rho) / 2.0)


def _near(x: float, edge: float) -> bool:
    return abs(x - edge) < EDGE


def _flag_list(*tags: str) -> str:
    return ";".join(t for t in tags if t)


def _verdict_rows(pairs, unsure: bool) -> list[Expected]:
    out = []
    for name, value in pairs:
        if unsure:
            out.append(Expected(name, None, None))
        else:
            out.append(Expected(name, 1.0 if value else 0.0, "true" if value else "false"))
    return out


def _chsh_rows(params: dict, mc: bool) -> list[Expected]:
    a, ap = params["a_degrees"], params["a_prime_degrees"]
    b, bp = params["b_degrees"], params["b_prime_degrees"]
    rows = []
    terms = ((a, b, 1.0), (a, bp, -1.0), (ap, b, 1.0), (ap, bp, 1.0))
    for x, y, _ in terms:
        rows.append(Expected(f"E(a={x:g},b={y:g})", _cos(y, x), mc=mc))
    s = abs(sum(sign * _cos(y, x) for x, y, sign in terms))
    if s <= CLASSICAL_BOUND:
        cls = "local_compatible"
    elif s <= TSIRELSON_BOUND:
        cls = "quantum_violating"
    else:
        cls = "super_quantum"
    s_unsure = _near(s, CLASSICAL_BOUND) or _near(s, TSIRELSON_BOUND)
    s_flags = None if s_unsure else _flag_list(
        f"class={cls}", "chsh_violated" if s > CLASSICAL_BOUND else "",
    )
    rows.append(Expected("chsh_s", s, s_flags, mc=mc))

    rho_mins, rho_cis, unsure = [], [], False
    for name in params.get("remote_options", ["none", "b", "b_prime"]):
        theta = {"none": None, "b": b, "b_prime": bp}[name]
        if theta is None:
            rho_min, rho_ci, tag = 0.0, 0.0, "no_remote"
        else:
            p1 = (1.0 + _cos(theta, a)) / 2.0
            p2 = (1.0 + _cos(theta, ap)) / 2.0
            rho_min = 2.0 * max(0.0, p1 + p2 - 1.0) - 1.0
            rho_ci = _cos(theta, a) * _cos(theta, ap)
            tag = f"theta={theta:g}"
            unsure = unsure or _near(rho_min, 0.0)
        rho_mins.append(rho_min)
        rho_cis.append(rho_ci)
        min_flags = None if _near(rho_min, 0.0) and theta is not None else _flag_list(
            tag, "rho_min_positive" if rho_min > 0.0 else "",
        )
        info = _info(rho_ci) if theta is not None else 0.0
        rows += [
            Expected(f"rho_min[remote={name}]", rho_min, min_flags),
            Expected(f"rho_ci[remote={name}]", rho_ci, tag, mc=mc and theta is not None),
            Expected(f"info_bits[remote={name}]", info, tag),
            Expected(f"total_bits[remote={name}]", 1.0 + info, tag),
        ]

    arc = (ap - a + 180.0) % 360.0 - 180.0
    rows.append(Expected("max_info_theta_degrees", (a + arc / 2.0) % 360.0, angle=True))
    rows.append(Expected("max_info_bits", _info(0.5)))

    ci_spread = max(rho_cis) - min(rho_cis)
    unsure = unsure or 1e-13 < ci_spread < 1e-11
    rho_min_route = any(r > 0.0 for r in rho_mins)
    ci_route = ci_spread > 1e-12
    nonlocal_ = rho_min_route or (params.get("assume_ci", True) and ci_route)
    rows += _verdict_rows(
        (("verdict_rho_min_route", rho_min_route), ("verdict_ci_route", ci_route),
         ("verdict_nonlocal", nonlocal_)),
        unsure,
    )
    return rows


def _counterfactual_rows(params: dict, mc: bool) -> list[Expected]:
    theta, a, ap = params["theta_degrees"], params["a_degrees"], params["a_prime_degrees"]
    p1 = (1.0 + _cos(theta, a)) / 2.0
    p2 = (1.0 + _cos(theta, ap)) / 2.0
    rho_min = 2.0 * max(0.0, p1 + p2 - 1.0) - 1.0
    rho_ci = _cos(theta, a) * _cos(theta, ap)
    min_flags = None if _near(rho_min, 0.0) else (
        "rho_min_positive" if rho_min > 0.0 else ""
    )
    return [
        Expected("rho_min", rho_min, min_flags),
        Expected("rho_ci", rho_ci, mc=mc),
        Expected("info_bits", _info(rho_ci)),
        Expected("total_bits", 1.0 + _info(rho_ci)),
    ]


def _box_rates(params: dict) -> tuple[list[float], list[float]]:
    """Target rates P(A xor B = ab) and correlators E_ab, in input order."""
    if "isotropic_p" in params:
        p = params["isotropic_p"]
        return [p] * 4, [2 * p - 1, 2 * p - 1, 2 * p - 1, 1 - 2 * p]
    if "correlators" in params:
        es = params["correlators"]
        rates = [(1 + e) / 2 if a_in * b_in == 0 else (1 - e) / 2
                 for (a_in, b_in), e in zip(_INPUTS, es)]
        return rates, list(es)
    box = params["box"]
    rates, es = [], []
    for a_in, b_in in _INPUTS:
        same = box[f"P(0,0|{a_in},{b_in})"] + box[f"P(1,1|{a_in},{b_in})"]
        diff = box[f"P(0,1|{a_in},{b_in})"] + box[f"P(1,0|{a_in},{b_in})"]
        rates.append(same if a_in * b_in == 0 else diff)
        es.append(same - diff)
    return rates, es


def _nsbox_rows(params: dict, mc: bool) -> list[Expected]:
    rates, es = _box_rates(params)
    p_mean = sum(rates) / 4.0
    isotropic = all(abs(q - p_mean) <= 1e-9 for q in rates)
    rows = [Expected("isotropic_p", p_mean)] if isotropic else []
    rows += [Expected(f"target_rate(a={a},b={b})", q, mc=mc)
             for (a, b), q in zip(_INPUTS, rates)]
    rows += [Expected(f"E(a={a},b={b})", e, mc=mc) for (a, b), e in zip(_INPUTS, es)]
    rows.append(Expected("chsh_s_parity", sum(rates), mc=mc))

    s = abs(es[0] + es[1] + es[2] - es[3])
    if all(abs(e) <= 1e-9 for e in es):
        cls = "independent"
    elif s <= CLASSICAL_BOUND:
        cls = "local_correlated"
    elif s <= TSIRELSON_BOUND:
        cls = "quantum_region"
    else:
        cls = "super_quantum"
    s_unsure = _near(s, CLASSICAL_BOUND) or _near(s, TSIRELSON_BOUND) or any(
        _near(abs(e), 1e-9) for e in es
    )
    rows.append(Expected("chsh_s", s, None if s_unsure else _flag_list(
        f"class={cls}", "chsh_violated" if s > CLASSICAL_BOUND else "",
    ), mc=mc))

    rho_mins = [max(-1.0, 2.0 * (rates[k] + rates[2 + k]) - 3.0) for k in (0, 1)]
    cis = [(2 * rates[k] - 1) * (2 * rates[2 + k] - 1) for k in (0, 1)]
    for k, r in enumerate(rho_mins):
        flags = None if _near(r, 0.0) else ("rho_min_positive" if r > 0.0 else "")
        rows.append(Expected(f"rho_min[b={k}]", r, flags))
    rows += [Expected(f"ci_product[b={k}]", c) for k, c in enumerate(cis)]
    if isotropic:
        rows.append(Expected("rho_ci", (2 * p_mean - 1) ** 2))
    unsure = s_unsure or any(_near(x, 0.0) for x in rho_mins + cis)
    rows += _verdict_rows(
        (("verdict_chsh_violated", s > CLASSICAL_BOUND),
         ("verdict_rho_min_positive", any(r > 0.0 for r in rho_mins)),
         ("verdict_ci_rho_positive", any(c > 0.0 for c in cis))),
        unsure,
    )
    return rows


def _classical_rows(params: dict, mc: bool) -> list[Expected]:
    if params["variant"] == "coin":
        return [Expected("rho", 0.0, mc=mc)]
    rc, bs = params["red_given_cube"], params["blue_given_sphere"]
    return [Expected("rho", (rc + bs - 1.0) / math.sqrt(1.0 - (rc - bs) ** 2), mc=mc)]


def expected_rows(op: Op) -> list[Expected]:
    """Every row a valid `run` operation must print, in order."""
    build = {
        "chsh": _chsh_rows, "counterfactual": _counterfactual_rows,
        "nsbox": _nsbox_rows, "classical": _classical_rows,
    }[op.doc["kind"]]
    return build(op.doc["parameters"], op.mc_samples > 0)


# -- comparison ----------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _close(got, want: float, angle: bool = False) -> bool:
    if not _is_number(got):
        return False
    diff = abs(got - want)
    if angle:
        diff = abs((got - want + 180.0) % 360.0 - 180.0)
    return diff <= ABS_TOL + REL_TOL * abs(want)


def _check_run_rows(op: Op, text: str, result: CheckResult) -> None:
    expected = expected_rows(op)
    sid = op.doc["id"]
    mc_band = 10.0 / math.sqrt(op.mc_samples) if op.mc_samples else 0.0
    got_rows = 0
    for header, row in read_rows(text, op.fmt):
        got_rows += 1
        if got_rows > len(expected):
            continue
        want = expected[got_rows - 1]
        q = want.quantity
        if header != RUN_HEADER:
            result.problems.append(f"header {header} != {RUN_HEADER}")
            return
        if row["scenario"] != sid or row["quantity"] != q:
            result.problems.append(
                f"row {got_rows}: got {row['scenario']}/{row['quantity']}, want {sid}/{q}"
            )
            continue
        if want.value is not None and not _close(row["analytic"], want.value, want.angle):
            result.problems.append(f"{q}: analytic {row['analytic']!r}, want {want.value!r}")
        if want.flags is not None and (row["flags"] or "") != want.flags:
            result.problems.append(f"{q}: flags {row['flags']!r}, want {want.flags!r}")
        mc_value, se = row["mc_value"], row["mc_std_error"]
        if not want.mc:
            if mc_value is not None or se is not None:
                result.problems.append(f"{q}: unexpected Monte Carlo value {mc_value!r}")
            continue
        if not _is_number(se) or se < 0.0:
            result.problems.append(f"{q}: standard error {se!r} is not a number >= 0")
            continue
        if not _is_number(mc_value) or abs(mc_value - want.value) > mc_band:
            result.problems.append(
                f"{q}: Monte Carlo {mc_value!r} outside {want.value!r} +/- {mc_band:.3g}"
            )
            continue
        result.mc_rows += 1
        if abs(mc_value - want.value) > 4.0 * se:
            result.se_band_misses += 1
    result.rows = got_rows
    if got_rows != len(expected):
        result.problems.append(f"{got_rows} rows, want {len(expected)}")


def _check_sweep_rows(op: Op, text: str, result: CheckResult) -> None:
    grid = op.grid
    parameter, start, step = grid["parameter"], grid["start"], grid["step"]
    want_points = math.floor((grid["stop"] - start) / step + 1e-9) + 1
    if want_points != grid["points"]:
        result.problems.append(f"grid has {want_points} points, generator asked {grid['points']}")
    header_want = SWEEP_HEADERS[parameter]
    sid = f"sweep-{parameter}"
    a, ap = grid["a"], grid["a_prime"]
    n = 0
    for header, row in read_rows(text, op.fmt):
        if header != header_want:
            result.problems.append(f"header {header} != {header_want}")
            return
        x = start + n * step
        if parameter == "isotropic_p":
            p = min(max(x, 0.0), 1.0)
            want = {"isotropic_p": p, "s_ns": 4.0 * p, "s_e": abs(8.0 * p - 4.0),
                    "rho_min": max(-1.0, 4.0 * p - 3.0), "rho_ci": (2.0 * p - 1.0) ** 2}
        else:
            rho = _cos(x, a) * _cos(x, ap)
            want = {"theta_degrees": x, "rho_ci": rho, "info_bits": _info(rho)}
        n += 1
        if row["scenario"] != sid:
            result.problems.append(f"row {n}: scenario {row['scenario']!r}, want {sid!r}")
        for key, value in want.items():
            if not _close(row[key], value):
                result.problems.append(f"row {n}: {key} {row[key]!r}, want {value!r}")
        if len(result.problems) > 5:
            return
    result.rows = n
    if n != want_points:
        result.problems.append(f"{n} grid rows, want {want_points}")


def check(op: Op, exit_code, stderr: str, out_text: str | None) -> CheckResult:
    """Compare one finished operation with what it must have produced.

    `exit_code` is None when the call raised instead of returning.
    """
    result = CheckResult()
    if exit_code != op.exit_code:
        result.problems.append(
            f"exit {exit_code}, want {op.exit_code}; stderr: {stderr.strip()[:200]!r}"
        )
        return result
    if op.exit_code != 0:
        if op.stderr_needle not in stderr:
            result.problems.append(
                f"stderr does not name the problem {op.stderr_needle!r}: {stderr.strip()[:200]!r}"
            )
        return result
    if out_text is None:
        result.problems.append("no output file was written")
        return result
    try:
        if op.doc is None:
            _check_sweep_rows(op, out_text, result)
        else:
            _check_run_rows(op, out_text, result)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        result.problems.append(f"unparseable {op.fmt} output: {type(exc).__name__}: {exc}")
    return result
