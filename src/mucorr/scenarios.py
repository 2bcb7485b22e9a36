"""Scenario definitions, validation, built-ins, and the analysis runner.

A scenario is a small declarative description (kind plus parameters) of
one analysis: a CHSH pair with counterfactual reports, a single
counterfactual triple, a no-signalling box, a classical example, or a
parameter sweep. Running one yields flat result rows that the CLI can
render as a table, CSV, or JSON.

Monte Carlo estimates, when requested, draw from per-row substreams of
the configured seed, so every row is reproducible independently of which
other rows exist.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterator, NamedTuple

import numpy as np

from . import montecarlo as mc
from . import nsbox as nsb
from .counterfactual import (
    ORTHOGONALITY_TOL,
    info_leakage,
    max_info_direction,
    nonlocality_verdict,
    report_for_option,
    rho_conditional_independence,
)
from .errors import ValidationError
from .montecarlo import EmpiricalEstimate, SampleConfig
from .spin import (
    CLASSICAL_BOUND,
    Direction,
    SettingsQuad,
    chsh_s,
    classify_chsh,
    correlation,
    dot,
)

REMOTE_OPTION_NAMES = ("none", "b", "b_prime")
SWEEP_PARAMETERS = ("theta_degrees", "isotropic_p")
#: Most points one sweep may evaluate.
MAX_GRID_POINTS = 1_000_000
#: Grid points per block of a sweep, which bounds the memory it holds.
_SWEEP_BLOCK = 4096

# Fixed substream indices: the four setting pairs of a CHSH quad or box
# come first, remote options follow in listed order.
_PAIR_STREAMS = (0, 1, 2, 3)
_OPTION_STREAM_BASE = 4


@dataclass(frozen=True)
class Scenario:
    """One declarative analysis request."""

    scenario_id: str
    kind: str
    parameters: dict = field(default_factory=dict)
    mc: SampleConfig | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ResultRow:
    """One named quantity of a scenario run.

    The analytic value is always present; the mc fields are filled only
    when a Monte Carlo estimate was requested and the quantity is
    sampled or composed from samples. Flags are semicolon-joined tags.
    """

    scenario: str
    quantity: str
    analytic: float
    mc_value: float | None = None
    mc_std_error: float | None = None
    flags: str = ""


def as_record(row: ResultRow) -> dict:
    """Stable-keyed mapping form used by every output format."""
    return {
        "scenario": row.scenario,
        "quantity": row.quantity,
        "analytic": row.analytic,
        "mc_value": row.mc_value,
        "mc_std_error": row.mc_std_error,
        "flags": row.flags,
    }


def builtin_scenarios() -> dict[str, Scenario]:
    """The five named scenarios shipped with the package."""
    standard = Scenario(
        scenario_id="paper-standard",
        kind="chsh",
        parameters={
            "a_degrees": 0.0,
            "a_prime_degrees": 90.0,
            "b_degrees": 45.0,
            "b_prime_degrees": 135.0,
            "remote_options": ["none", "b", "b_prime"],
        },
        notes=("Settings maximizing the CHSH value for singlet-type correlations.",),
    )
    modified = Scenario(
        scenario_id="paper-55-35",
        kind="chsh",
        parameters={
            "a_degrees": 0.0,
            "a_prime_degrees": 90.0,
            "b_degrees": 45.0,
            "b_prime_degrees": 55.0,
            "remote_options": ["none", "b", "b_prime"],
            "annotation": "cited value 1.442 not reproduced (direct evaluation reported)",
        },
        notes=(
            "Non-violating settings that still force a remote-dependent "
            "measured/unmeasured correlation.",
        ),
    )
    pr = Scenario(
        scenario_id="paper-pr-box",
        kind="nsbox",
        parameters={"isotropic_p": 1.0},
        notes=("Extremal no-signalling box, winning the parity game always.",),
    )
    coin = Scenario(
        scenario_id="paper-coin",
        kind="classical",
        parameters={"variant": "coin"},
        notes=("Fair coin tosses against their counterfactual re-toss.",),
    )
    shapes = Scenario(
        scenario_id="paper-shapes",
        kind="classical",
        parameters={
            "variant": "shapes",
            "red_given_cube": 0.75,
            "blue_given_sphere": 0.75,
        },
        notes=("Shape observed, color counterfactual, for one drawn object.",),
    )
    return {
        s.scenario_id: s for s in (standard, modified, pr, coin, shapes)
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_number(
    params: dict, key: str, problems: list[str],
    required: bool = True, low: float | None = None, high: float | None = None,
) -> float | None:
    if key not in params:
        if required:
            problems.append(f"parameters.{key} is required")
        return None
    value = params[key]
    number = nsb._finite_float(value)
    if number is None:
        problems.append(f"parameters.{key} must be a finite number, got {value!r}")
        return None
    if low is not None and number < low or high is not None and number > high:
        if high is None:
            bound = f"be >= {low:g}"
        elif low is None:
            bound = f"be <= {high:g}"
        else:
            bound = f"lie in [{low:g}, {high:g}]"
        problems.append(f"parameters.{key} must {bound}, got {value!r}")
        return None
    return number


def _check_extra_keys(params: dict, allowed: set[str], problems: list[str]) -> None:
    for key in params:
        if key not in allowed:
            # A line break or control character in the key would split or
            # garble the one-line message: such a key is shown quoted.
            shown = key if isinstance(key, str) and key.isprintable() else repr(key)
            problems.append(f"parameters.{shown} is not a recognized parameter")


def _validate_chsh(params: dict, problems: list[str]) -> None:
    _check_extra_keys(
        params,
        {"a_degrees", "a_prime_degrees", "b_degrees", "b_prime_degrees",
         "remote_options", "annotation", "assume_ci"},
        problems,
    )
    a = _check_number(params, "a_degrees", problems)
    a_prime = _check_number(params, "a_prime_degrees", problems)
    _check_number(params, "b_degrees", problems)
    _check_number(params, "b_prime_degrees", problems)
    if a is not None and a_prime is not None:
        d = dot(Direction.from_degrees(a), Direction.from_degrees(a_prime))
        if abs(d) > ORTHOGONALITY_TOL:
            problems.append(
                "parameters.a_degrees and parameters.a_prime_degrees must be "
                f"orthogonal directions, got dot product {d!r}"
            )
    options = params.get("remote_options")
    if options is not None:
        if not isinstance(options, list) or not options:
            problems.append("parameters.remote_options must be a non-empty list")
        else:
            for opt in options:
                if opt not in REMOTE_OPTION_NAMES:
                    problems.append(
                        f"parameters.remote_options entries must be one of "
                        f"{REMOTE_OPTION_NAMES}, got {opt!r}"
                    )
    if "annotation" in params and not isinstance(params["annotation"], str):
        problems.append("parameters.annotation must be a string")
    if "assume_ci" in params and not isinstance(params["assume_ci"], bool):
        problems.append("parameters.assume_ci must be a boolean")


def _validate_counterfactual(params: dict, problems: list[str]) -> None:
    _check_extra_keys(
        params, {"theta_degrees", "a_degrees", "a_prime_degrees"}, problems
    )
    _check_number(params, "theta_degrees", problems)
    _check_number(params, "a_degrees", problems)
    _check_number(params, "a_prime_degrees", problems)


def _validate_nsbox(params: dict, problems: list[str]) -> None:
    _check_extra_keys(params, {"isotropic_p", "correlators", "box"}, problems)
    sources = [k for k in ("isotropic_p", "correlators", "box") if k in params]
    if len(sources) != 1:
        problems.append(
            "exactly one of parameters.isotropic_p, parameters.correlators, "
            f"parameters.box is required, got {sources or 'none'}"
        )
        return
    if "isotropic_p" in params:
        _check_number(params, "isotropic_p", problems, low=0.0, high=1.0)
    elif "correlators" in params:
        cs = params["correlators"]
        if not isinstance(cs, list) or len(cs) != 4:
            problems.append(
                "parameters.correlators must be a list of four numbers "
                "[E00, E01, E10, E11]"
            )
            return
        for i, e in enumerate(cs):
            if not _is_number(e) or not -1.0 <= e <= 1.0:
                problems.append(
                    f"parameters.correlators[{i}] must lie in [-1, 1], got {e!r}"
                )
    else:
        if not isinstance(params["box"], dict):
            problems.append(
                'parameters.box must be an object of 16 entries keyed "P(A,B|a,b)"'
            )
            return
        try:
            box = nsb.from_labeled_dict(params["box"])
        except ValidationError as exc:
            problems.extend(f"parameters.box: {m}" for m in exc.messages)
            return
        for v in nsb.validate_no_signalling(box):
            problems.append(
                f"parameters.box violates {v.kind} at {v.where} "
                f"(residual {v.residual:.3g})"
            )


def _validate_classical(params: dict, problems: list[str]) -> None:
    variant = params.get("variant")
    if variant == "coin":
        _check_extra_keys(params, {"variant"}, problems)
    elif variant == "shapes":
        _check_extra_keys(
            params, {"variant", "red_given_cube", "blue_given_sphere"}, problems
        )
        rc = _check_number(
            params, "red_given_cube", problems, required=False, low=0.0, high=1.0
        )
        bs = _check_number(
            params, "blue_given_sphere", problems, required=False, low=0.0, high=1.0
        )
        rc = 0.75 if rc is None else rc
        bs = 0.75 if bs is None else bs
        if abs(rc - bs) >= 1.0:
            problems.append(
                "color must not be deterministic: |red_given_cube - "
                "blue_given_sphere| must be < 1"
            )
    else:
        problems.append(
            f"parameters.variant must be 'coin' or 'shapes', got {variant!r}"
        )


def _validate_sweep(params: dict, problems: list[str]) -> None:
    _check_extra_keys(
        params,
        {"parameter", "start", "stop", "step", "a_degrees", "a_prime_degrees"},
        problems,
    )
    parameter = params.get("parameter")
    if parameter not in SWEEP_PARAMETERS:
        problems.append(
            f"parameters.parameter must be one of {SWEEP_PARAMETERS}, "
            f"got {parameter!r}"
        )
        return
    bounds = (0.0, 1.0) if parameter == "isotropic_p" else (None, None)
    start = _check_number(params, "start", problems, low=bounds[0], high=bounds[1])
    stop = _check_number(params, "stop", problems, low=bounds[0], high=bounds[1])
    step = _check_number(params, "step", problems)
    if step is not None and step <= 0.0:
        problems.append(f"parameters.step must be positive, got {step!r}")
    if start is not None and stop is not None and stop < start:
        problems.append(
            f"parameters.stop must be >= parameters.start, got {start!r} > {stop!r}"
        )
    elif None not in (start, stop, step) and step > 0.0:
        # grid_points makes floor(steps) + 1 points. In Decimal the count
        # stays finite where the float quotient overflows.
        steps = (Decimal(stop) - Decimal(start)) / Decimal(step)
        if steps >= MAX_GRID_POINTS:
            problems.append(
                f"parameters.step {step!r} on [{start!r}, {stop!r}] gives "
                f"{steps + 1:.7g} grid points, more than the {MAX_GRID_POINTS} allowed"
            )
        elif math.isinf(stop - start):
            problems.append(
                f"parameters.start {start!r} to parameters.stop {stop!r} spans "
                "more than the largest float"
            )
        elif math.isinf(start + _grid_steps(start, stop, step) * step):
            problems.append(
                f"parameters.step {step!r} on [{start!r}, {stop!r}] puts the last "
                "grid point beyond the largest float"
            )
    if parameter == "theta_degrees":
        _check_number(params, "a_degrees", problems, required=False)
        _check_number(params, "a_prime_degrees", problems, required=False)
    elif "a_degrees" in params or "a_prime_degrees" in params:
        problems.append(
            "parameters.a_degrees/a_prime_degrees apply only to theta_degrees sweeps"
        )


def validate_scenario(scenario: Scenario) -> list[str]:
    """All field-level problems with a scenario; empty list means valid."""
    problems: list[str] = []
    if not scenario.scenario_id or not isinstance(scenario.scenario_id, str):
        problems.append("id must be a non-empty string")
    if scenario.kind not in KINDS:
        problems.append(f"kind must be one of {KINDS}, got {scenario.kind!r}")
        return problems
    if scenario.kind == "sweep" and scenario.mc is not None:
        problems.append(
            "sweeps are analytic only: Monte Carlo (an mc block, --mc, --samples "
            "or --seed) does not apply"
        )
    if not isinstance(scenario.parameters, dict):
        problems.append("parameters must be a mapping")
        return problems
    validate, _ = _KINDS[scenario.kind]
    validate(scenario.parameters, problems)
    return problems


def load_scenario_file(path: str) -> Scenario:
    """Parse and validate a scenario definition file (JSON).

    Raises ValidationError carrying one message per problem.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer literal beyond Python's digit limit
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: not valid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    problems: list[str] = []
    allowed = {"id", "kind", "parameters", "mc", "notes"}
    for key in data:
        if key not in allowed:
            problems.append(f"unknown top-level key {key!r}")
    scenario_id = data.get("id")
    if not isinstance(scenario_id, str) or not scenario_id:
        problems.append("id must be a non-empty string")
        scenario_id = "<invalid>"
    parameters = data.get("parameters", {})
    if not isinstance(parameters, dict):
        problems.append("parameters must be an object")
        parameters = {}
    sample_config = None
    mc_data = data.get("mc")
    if mc_data is not None:
        if not isinstance(mc_data, dict):
            problems.append("mc must be an object with n_samples and seed")
        else:
            for key in mc_data:
                if key not in ("n_samples", "seed"):
                    problems.append(f"unknown mc key {key!r}")
            try:
                sample_config = SampleConfig(
                    n_samples=mc_data.get("n_samples", 1_000_000),
                    seed=mc_data.get("seed", 42),
                )
            except ValueError as exc:
                problems.append(f"mc: {exc}")
    notes = data.get("notes", [])
    if not isinstance(notes, list) or any(not isinstance(n, str) for n in notes):
        problems.append("notes must be a list of strings")
        notes = []
    scenario = Scenario(
        scenario_id=scenario_id,
        kind=data.get("kind"),
        parameters=parameters,
        mc=sample_config,
        notes=tuple(notes),
    )
    problems.extend(validate_scenario(scenario))
    if problems:
        raise ValidationError(problems)
    return scenario


def _fmt_angle(degrees: float) -> str:
    return f"{degrees:g}"


def _mc_fields(est: EmpiricalEstimate | None) -> tuple[float | None, float | None]:
    if est is None:
        return None, None
    return est.value, est.std_error


def _signed_sum(signs, estimates: list[EmpiricalEstimate]) -> tuple[float, float]:
    """|sum of sign * value| of independent estimates, and its standard
    error sqrt(sum of se^2)."""
    return (
        abs(sum(sign * est.value for sign, est in zip(signs, estimates))),
        math.sqrt(sum(est.std_error ** 2 for est in estimates)),
    )


def _run_chsh(scenario: Scenario) -> list[ResultRow]:
    params = scenario.parameters
    sid = scenario.scenario_id
    a_deg = float(params["a_degrees"])
    ap_deg = float(params["a_prime_degrees"])
    b_deg = float(params["b_degrees"])
    bp_deg = float(params["b_prime_degrees"])
    a = Direction.from_degrees(a_deg)
    a_prime = Direction.from_degrees(ap_deg)
    b = Direction.from_degrees(b_deg)
    b_prime = Direction.from_degrees(bp_deg)
    quad = SettingsQuad(a=a, a_prime=a_prime, b=b, b_prime=b_prime)
    option_names = list(params.get("remote_options", REMOTE_OPTION_NAMES))
    assume_ci = bool(params.get("assume_ci", True))
    annotation = params.get("annotation")
    cfg = scenario.mc

    rows: list[ResultRow] = []

    pairs = [
        (f"E(a={_fmt_angle(a_deg)},b={_fmt_angle(b_deg)})", a, b, 1.0),
        (f"E(a={_fmt_angle(a_deg)},b={_fmt_angle(bp_deg)})", a, b_prime, -1.0),
        (f"E(a={_fmt_angle(ap_deg)},b={_fmt_angle(b_deg)})", a_prime, b, 1.0),
        (f"E(a={_fmt_angle(ap_deg)},b={_fmt_angle(bp_deg)})", a_prime, b_prime, 1.0),
    ]
    pair_estimates: list[EmpiricalEstimate] = []
    for stream, (name, alpha, beta, _) in zip(_PAIR_STREAMS, pairs):
        est = None
        if cfg is not None:
            est = mc.estimate_pair_correlation(alpha, beta, cfg, stream)
            pair_estimates.append(est)
        mc_value, mc_se = _mc_fields(est)
        rows.append(ResultRow(
            sid, name, correlation(alpha, beta), mc_value, mc_se,
        ))

    s_value = chsh_s(quad)
    s_flags = [f"class={classify_chsh(s_value).value}"]
    if s_value > CLASSICAL_BOUND:
        s_flags.append("chsh_violated")
    if annotation:
        s_flags.append(str(annotation))
    s_mc_value = s_mc_se = None
    if cfg is not None:
        s_mc_value, s_mc_se = _signed_sum(
            [sign for (_, _, _, sign) in pairs], pair_estimates
        )
    rows.append(ResultRow(
        sid, "chsh_s", s_value, s_mc_value, s_mc_se, ";".join(s_flags),
    ))

    option_dirs: list[Direction | None] = [
        {"none": None, "b": b, "b_prime": b_prime}[name] for name in option_names
    ]
    verdict = nonlocality_verdict(
        a, a_prime, option_dirs, assume_conditional_independence=assume_ci
    )
    for position, (name, theta, report) in enumerate(
        zip(option_names, option_dirs, verdict.reports)
    ):
        tag = "no_remote" if theta is None else f"theta={_fmt_angle(theta.degrees)}"
        ci_est = None
        if cfg is not None and theta is not None:
            ci_est = mc.estimate_ci_correlation(
                theta, a, a_prime, cfg, _OPTION_STREAM_BASE + position
            )
        ci_mc_value, ci_mc_se = _mc_fields(ci_est)
        min_flags = [tag] + (["rho_min_positive"] if report.nonlocal_flag else [])
        rows.append(ResultRow(
            sid, f"rho_min[remote={name}]", report.rho_min,
            flags=";".join(min_flags),
        ))
        rows.append(ResultRow(
            sid, f"rho_ci[remote={name}]", report.rho_ci,
            ci_mc_value, ci_mc_se, tag,
        ))
        rows.append(ResultRow(
            sid, f"info_bits[remote={name}]", report.info_bits, flags=tag,
        ))
        rows.append(ResultRow(
            sid, f"total_bits[remote={name}]", report.total_bits, flags=tag,
        ))

    best_theta, best_bits = max_info_direction(a, a_prime)
    rows.append(ResultRow(
        sid, "max_info_theta_degrees", best_theta.degrees,
    ))
    rows.append(ResultRow(sid, "max_info_bits", best_bits))

    for name, value in (
        ("verdict_rho_min_route", verdict.rho_min_route),
        ("verdict_ci_route", verdict.ci_route),
        ("verdict_nonlocal", verdict.is_nonlocal),
    ):
        rows.append(ResultRow(
            sid, name, 1.0 if value else 0.0,
            flags="true" if value else "false",
        ))
    return rows


def _run_counterfactual(scenario: Scenario) -> list[ResultRow]:
    params = scenario.parameters
    sid = scenario.scenario_id
    theta = Direction.from_degrees(float(params["theta_degrees"]))
    a = Direction.from_degrees(float(params["a_degrees"]))
    a_prime = Direction.from_degrees(float(params["a_prime_degrees"]))
    report = report_for_option(theta, a, a_prime)
    ci_est = None
    if scenario.mc is not None:
        ci_est = mc.estimate_ci_correlation(theta, a, a_prime, scenario.mc, 0)
    ci_mc_value, ci_mc_se = _mc_fields(ci_est)
    return [
        ResultRow(
            sid, "rho_min", report.rho_min,
            flags="rho_min_positive" if report.nonlocal_flag else "",
        ),
        ResultRow(sid, "rho_ci", report.rho_ci, ci_mc_value, ci_mc_se),
        ResultRow(sid, "info_bits", report.info_bits),
        ResultRow(sid, "total_bits", report.total_bits),
    ]


def _box_from_parameters(params: dict) -> nsb.NsBox:
    if "isotropic_p" in params:
        return nsb.make_isotropic(float(params["isotropic_p"]))
    if "correlators" in params:
        return nsb.from_correlators(*(float(e) for e in params["correlators"]))
    return nsb.from_labeled_dict(params["box"])


def _run_nsbox(scenario: Scenario) -> list[ResultRow]:
    sid = scenario.scenario_id
    box = _box_from_parameters(scenario.parameters)
    cfg = scenario.mc
    rows: list[ResultRow] = []

    p_iso = nsb.isotropic_parameter(box)
    if p_iso is not None:
        rows.append(ResultRow(sid, "isotropic_p", p_iso))

    rate_ests: list[EmpiricalEstimate] = []
    corr_ests: list[EmpiricalEstimate] = []
    input_pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for stream, (a_in, b_in) in zip(_PAIR_STREAMS, input_pairs):
        rate_est = corr_est = None
        if cfg is not None:
            rate_est, corr_est = mc.estimate_ns_pair(box, a_in, b_in, cfg, stream)
            rate_ests.append(rate_est)
            corr_ests.append(corr_est)
        rate_mc, rate_se = _mc_fields(rate_est)
        rows.append(ResultRow(
            sid, f"target_rate(a={a_in},b={b_in})",
            nsb.target_probability(box, a_in, b_in), rate_mc, rate_se,
        ))
    for (a_in, b_in), corr_est in zip(
        input_pairs, corr_ests or [None] * 4
    ):
        corr_mc, corr_se = _mc_fields(corr_est)
        rows.append(ResultRow(
            sid, f"E(a={a_in},b={b_in})",
            nsb.correlator(box, a_in, b_in), corr_mc, corr_se,
        ))

    classification = nsb.classify_box(box)
    s_parity = nsb.chsh_s_ns(box)
    s_e = nsb.chsh_s_e(box)
    parity_mc = parity_se = corr_form_mc = corr_form_se = None
    if cfg is not None:
        parity_mc, parity_se = _signed_sum((1.0, 1.0, 1.0, 1.0), rate_ests)
        corr_form_mc, corr_form_se = _signed_sum((1.0, 1.0, 1.0, -1.0), corr_ests)
    rows.append(ResultRow(
        sid, "chsh_s_parity", s_parity, parity_mc, parity_se,
    ))
    s_flags = [f"class={classification.box_class.value}"]
    if classification.chsh_violated:
        s_flags.append("chsh_violated")
    rows.append(ResultRow(
        sid, "chsh_s", s_e, corr_form_mc, corr_form_se, ";".join(s_flags),
    ))

    for b_setting in (0, 1):
        value = nsb.rho_min_ns(box, b_setting)
        rows.append(ResultRow(
            sid, f"rho_min[b={b_setting}]", value,
            flags="rho_min_positive" if value > 0.0 else "",
        ))
    for b_setting in (0, 1):
        rows.append(ResultRow(
            sid, f"ci_product[b={b_setting}]", nsb.ci_product(box, b_setting),
        ))
    if p_iso is not None:
        rows.append(ResultRow(sid, "rho_ci", nsb.rho_ci_ns(p_iso)))

    for name, value in (
        ("verdict_chsh_violated", classification.chsh_violated),
        ("verdict_rho_min_positive", classification.rho_min_positive_some_b),
        ("verdict_ci_rho_positive", classification.ci_rho_positive),
    ):
        rows.append(ResultRow(
            sid, name, 1.0 if value else 0.0,
            flags="true" if value else "false",
        ))
    return rows


def _run_classical(scenario: Scenario) -> list[ResultRow]:
    params = scenario.parameters
    sid = scenario.scenario_id
    cfg = scenario.mc
    if params["variant"] == "coin":
        est = mc.estimate_coin_correlation(cfg, 0) if cfg is not None else None
        mc_value, mc_se = _mc_fields(est)
        return [ResultRow(sid, "rho", 0.0, mc_value, mc_se)]
    rc = float(params.get("red_given_cube", 0.75))
    bs = float(params.get("blue_given_sphere", 0.75))
    est = None
    if cfg is not None:
        est = mc.estimate_shapes_correlation(cfg, 0, rc, bs)
    mc_value, mc_se = _mc_fields(est)
    return [ResultRow(sid, "rho", mc.shapes_rho(rc, bs), mc_value, mc_se)]


#: Each scenario kind's (validator, runner); a sweep runs through sweep_columns.
_KINDS = {
    "chsh": (_validate_chsh, _run_chsh),
    "counterfactual": (_validate_counterfactual, _run_counterfactual),
    "nsbox": (_validate_nsbox, _run_nsbox),
    "classical": (_validate_classical, _run_classical),
    "sweep": (_validate_sweep, None),
}
KINDS = tuple(_KINDS)


def run(scenario: Scenario) -> list[ResultRow]:
    """Execute one non-sweep scenario, returning its result rows.

    Raises ValidationError (with one message per field problem) for
    malformed scenarios; sweep scenarios go through :func:`sweep_columns`.
    """
    problems = validate_scenario(scenario)
    if problems:
        raise ValidationError(problems)
    _, runner = _KINDS[scenario.kind]
    if runner is None:
        raise ValidationError(
            "sweep scenarios produce grid rows; run them with sweep_rows "
            "or the sweep command"
        )
    return runner(scenario)


def grid_points(start: float, stop: float, step: float) -> list[float]:
    """Monotone grid start, start + step, ... capped at stop.

    Points are built as start + i * step (never accumulated), so exact
    decimal landmarks like 0.75 on a 0.01 grid stay exact. A degenerate
    range (start == stop) yields the single point start.
    """
    return [start + i * step for i in range(_grid_steps(start, stop, step) + 1)]


def _grid_steps(start: float, stop: float, step: float) -> int:
    """Steps of the grid from start to stop: the last point is start + steps * step."""
    return int(math.floor((stop - start) / step + 1e-9))


class ColumnBlocks(NamedTuple):
    """Headers, then blocks of rows, each block one list per column."""

    headers: list[str]
    blocks: Iterator[list[list]]


def sweep_columns(scenario: Scenario) -> ColumnBlocks:
    """Execute a sweep scenario, analytic only: validated now, evaluated
    _SWEEP_BLOCK grid points at a time as its blocks are read."""
    problems = validate_scenario(scenario)
    if problems:
        raise ValidationError(problems)
    if scenario.kind != "sweep":
        raise ValidationError(f"expected a sweep scenario, got kind {scenario.kind!r}")
    if scenario.parameters["parameter"] == "theta_degrees":
        headers = ["scenario", "theta_degrees", "rho_ci", "info_bits"]
    else:
        headers = ["scenario", "isotropic_p", "s_ns", "s_e", "rho_min", "rho_ci"]
    return ColumnBlocks(headers, _sweep_blocks(scenario.scenario_id, scenario.parameters))


def _sweep_blocks(sid: str, params: dict) -> Iterator[list[list]]:
    start, step = float(params["start"]), float(params["step"])
    size = _grid_steps(start, float(params["stop"]), step) + 1
    a = Direction.from_degrees(float(params.get("a_degrees", 0.0)))
    a_prime = Direction.from_degrees(float(params.get("a_prime_degrees", 90.0)))
    for lo in range(0, size, _SWEEP_BLOCK):
        # These points of grid_points(start, stop, step), bit for bit.
        grid = start + np.arange(lo, min(lo + _SWEEP_BLOCK, size)) * step
        if params["parameter"] == "theta_degrees":
            thetas = grid.tolist()
            rho_ci = [
                rho_conditional_independence(Direction.from_degrees(theta), a, a_prime)
                for theta in thetas
            ]
            columns = [thetas, rho_ci, [info_leakage(0.5 * (1.0 + r)) for r in rho_ci]]
        else:
            p = np.clip(grid, 0.0, 1.0)
            columns = [column.tolist() for column in (p, *nsb.isotropic_sweep(p))]
            # rho_ci_ns(p) without its domain check, which the clip makes moot.
            columns.append([(2.0 * q - 1.0) ** 2 for q in columns[0]])
        yield [[sid] * grid.size, *columns]


def sweep_rows(scenario: Scenario) -> list[dict]:
    """Execute a sweep scenario: one record per grid point, analytic only."""
    headers, blocks = sweep_columns(scenario)
    return [dict(zip(headers, row)) for block in blocks for row in zip(*block)]
