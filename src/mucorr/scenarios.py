"""Scenario definitions, validation, built-ins, and the analysis runner.

A scenario is a small declarative description (kind plus parameters) of
one analysis: a CHSH pair with counterfactual reports, a single
counterfactual triple, a no-signalling box, a classical example, or a
parameter sweep. Running one yields flat result rows that the CLI can
render as a table, CSV, or JSON.

Monte Carlo estimates, when requested, sample a 2x2 table that each
runner names beside the analytic value and that is built only then, from
per-row substreams of the configured seed, so every row is reproducible
independently of which other rows exist.
"""
from __future__ import annotations

import json
import math
from typing import Iterator, NamedTuple

from . import montecarlo as mc
from . import nsbox as nsb
from .counterfactual import (
    CI_DIFFERENCE_TOL,
    _require_orthogonal,
    _spin_pair,
    info_leakage,
    max_info_direction,
    rho_conditional_independence,
)
from .errors import NotOrthogonalError, ValidationError, _finite_float
from .montecarlo import EmpiricalEstimate, SampleConfig
from .spin import Direction, correlation

REMOTE_OPTION_NAMES = ("none", "b", "b_prime")
SWEEP_PARAMETERS = ("theta_degrees", "isotropic_p")
#: Most points one sweep may evaluate.
MAX_GRID_POINTS = 1_000_000
#: A theta sweep's measured and unmeasured directions, in degrees, by default.
SWEEP_DIRECTIONS = (0.0, 90.0)
#: Grid points per block of a sweep, which bounds the memory it holds.
_SWEEP_BLOCK = 4096

# Fixed substream indices: the four setting pairs of a CHSH quad or box
# come first, remote options follow in listed order.
_PAIR_STREAMS = (0, 1, 2, 3)
_OPTION_STREAM_BASE = 4

#: The chsh kind's label of each regime that `nsbox.chsh_class` returns.
_SPIN_CLASS_LABELS = {
    nsb.BoxClass.LOCAL_CORRELATED: "local_compatible",
    nsb.BoxClass.QUANTUM_REGION: "quantum_violating",
    nsb.BoxClass.SUPER_QUANTUM: "super_quantum",
}
#: The regimes above the classical bound, as `nsbox.chsh_class` decides it.
_CHSH_VIOLATING = (nsb.BoxClass.QUANTUM_REGION, nsb.BoxClass.SUPER_QUANTUM)


class _ScenarioFields(NamedTuple):
    scenario_id: str
    kind: str
    parameters: dict
    mc: SampleConfig | None
    notes: tuple[str, ...]


#: The default of `Scenario.parameters`, replaced by a new dict in each scenario.
_NEW_DICT: dict = {}


class Scenario(_ScenarioFields):
    """One declarative analysis request."""

    __slots__ = ()

    def __new__(
        cls,
        scenario_id: str,
        kind: str,
        parameters: dict = _NEW_DICT,
        mc: SampleConfig | None = None,
        notes: tuple[str, ...] = (),
    ) -> Scenario:
        if parameters is _NEW_DICT:
            parameters = {}
        return tuple.__new__(cls, (scenario_id, kind, parameters, mc, notes))


class ResultRow(NamedTuple):
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


def _check_number(
    params: dict, key: str, problems: list[str],
    default: float | None = None, low: float | None = None, high: float | None = None,
) -> float | None:
    """params[key] as a float, or `default` if the key is absent. None, with
    the problem noted, for a required key that is absent or a value that is
    not a finite number within the bounds."""
    if key not in params:
        if default is None:
            problems.append(f"parameters.{key} is required")
        return default
    value = params[key]
    number = _finite_float(value)
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


def _check_angles(params: dict, keys: tuple[str, ...], problems: list[str], defaults=None):
    """The angles in degrees, and as Directions (None where not valid). Each
    is required, unless `defaults` gives it a value."""
    defaults = defaults or (None,) * len(keys)
    degrees = [_check_number(params, key, problems, d) for key, d in zip(keys, defaults)]
    return degrees, [None if d is None else Direction.from_degrees(d) for d in degrees]


def _check_orthogonal(
    a: Direction | None, a_prime: Direction | None, problems: list[str],
) -> None:
    """Note a problem unless the measured and unmeasured directions, where
    both are valid, are orthogonal."""
    if a is None or a_prime is None:
        return
    try:
        _require_orthogonal(a, a_prime)
    except NotOrthogonalError:
        problems.append(
            "parameters.a_degrees and parameters.a_prime_degrees must be "
            f"orthogonal directions, got dot product {correlation(a, a_prime)!r}"
        )


def _validate_chsh(params: dict, problems: list[str]):
    angles = ("a_degrees", "a_prime_degrees", "b_degrees", "b_prime_degrees")
    _check_extra_keys(params, {*angles, "remote_options", "annotation", "assume_ci"}, problems)
    degrees, directions = _check_angles(params, angles, problems)
    _check_orthogonal(*directions[:2], problems)
    options = params.get("remote_options")
    if options is None:
        options = REMOTE_OPTION_NAMES
    elif not isinstance(options, list) or not options:
        problems.append("parameters.remote_options must be a non-empty list")
    else:
        for opt in options:
            if opt not in REMOTE_OPTION_NAMES:
                problems.append(
                    f"parameters.remote_options entries must be one of "
                    f"{REMOTE_OPTION_NAMES}, got {opt!r}"
                )
        for name in REMOTE_OPTION_NAMES:
            if options.count(name) > 1:
                problems.append(
                    f"parameters.remote_options lists {name!r} "
                    f"{options.count(name)} times; each option may appear once"
                )
    annotation = params.get("annotation")
    if "annotation" in params and not isinstance(annotation, str):
        problems.append("parameters.annotation must be a string")
    assume_ci = params.get("assume_ci", True)
    if not isinstance(assume_ci, bool):
        problems.append("parameters.assume_ci must be a boolean")
    return degrees, directions, options, assume_ci, annotation


def _validate_counterfactual(params: dict, problems: list[str]):
    angles = ("theta_degrees", "a_degrees", "a_prime_degrees")
    _check_extra_keys(params, set(angles), problems)
    directions = _check_angles(params, angles, problems)[1]
    _check_orthogonal(*directions[1:], problems)
    return directions


def _validate_nsbox(params: dict, problems: list[str]):
    _check_extra_keys(params, {"isotropic_p", "correlators", "box"}, problems)
    sources = [k for k in ("isotropic_p", "correlators", "box") if k in params]
    if len(sources) != 1:
        problems.append(
            "exactly one of parameters.isotropic_p, parameters.correlators, "
            f"parameters.box is required, got {sources or 'none'}"
        )
        return None
    if "isotropic_p" in params:
        p = _check_number(params, "isotropic_p", problems, low=0.0, high=1.0)
        return None if p is None else (nsb.make_isotropic(p),)
    if "correlators" in params:
        cs = params["correlators"]
        if not isinstance(cs, list) or len(cs) != 4:
            problems.append(
                "parameters.correlators must be a list of four numbers "
                "[E00, E01, E10, E11]"
            )
            return None
        named = {f"correlators[{i}]": e for i, e in enumerate(cs)}
        values = [_check_number(named, key, problems, low=-1.0, high=1.0) for key in named]
        return None if None in values else (nsb.from_correlators(*values),)
    if not isinstance(params["box"], dict):
        problems.append(
            'parameters.box must be an object of 16 entries keyed "P(A,B|a,b)"'
        )
        return None
    try:
        box = nsb.from_labeled_dict(params["box"])
    except ValidationError as exc:
        problems.extend(f"parameters.box: {m}" for m in exc.messages)
        return None
    for v in nsb.validate_no_signalling(box):
        problems.append(
            f"parameters.box violates {v.kind} at {v.where} "
            f"(residual {v.residual:.3g})"
        )
    return (box,)


def _validate_classical(params: dict, problems: list[str]):
    variant = params.get("variant")
    if variant == "coin":
        _check_extra_keys(params, {"variant"}, problems)
        return None, None
    if variant != "shapes":
        problems.append(
            f"parameters.variant must be 'coin' or 'shapes', got {variant!r}"
        )
        return None
    _check_extra_keys(
        params, {"variant", "red_given_cube", "blue_given_sphere"}, problems
    )
    rc = _check_number(params, "red_given_cube", problems, default=0.75, low=0.0, high=1.0)
    bs = _check_number(params, "blue_given_sphere", problems, default=0.75, low=0.0, high=1.0)
    if rc is not None and bs is not None and abs(rc - bs) >= 1.0:
        problems.append(
            "color must not be deterministic: |red_given_cube - "
            "blue_given_sphere| must be < 1"
        )
    return rc, bs


def _validate_sweep(params: dict, problems: list[str]):
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
        return None
    theta = parameter == "theta_degrees"
    bounds = (None, None) if theta else (0.0, 1.0)
    start = _check_number(params, "start", problems, low=bounds[0], high=bounds[1])
    stop = _check_number(params, "stop", problems, low=bounds[0], high=bounds[1])
    step = _check_number(params, "step", problems)
    size = None
    if step is not None and step <= 0.0:
        problems.append(f"parameters.step must be positive, got {step!r}")
    if start is not None and stop is not None and stop < start:
        problems.append(
            f"parameters.stop must be >= parameters.start, got {start!r} > {stop!r}"
        )
    elif None not in (start, stop, step) and step > 0.0:
        # The grid holds _grid_steps(start, stop, step) + 1 points. Their
        # count in Decimal stays finite where the float quotient overflows,
        # and it reaches the cap only where the float count passes it too.
        from decimal import Decimal  # here, so that only sweeps load it

        steps = (Decimal(stop) - Decimal(start)) / Decimal(step)
        if steps < MAX_GRID_POINTS and math.isinf(stop - start):
            problems.append(
                f"parameters.start {start!r} to parameters.stop {stop!r} spans "
                "more than the largest float"
            )
        else:
            count = steps + 1 if steps >= MAX_GRID_POINTS else _grid_steps(start, stop, step) + 1
            if count > MAX_GRID_POINTS:
                problems.append(
                    f"parameters.step {step!r} on [{start!r}, {stop!r}] gives "
                    f"{count:.7g} grid points, more than the {MAX_GRID_POINTS} allowed"
                )
            elif math.isinf(start + (count - 1) * step):
                problems.append(
                    f"parameters.step {step!r} on [{start!r}, {stop!r}] puts the last "
                    "grid point beyond the largest float"
                )
            else:
                size = count
    a = a_prime = None
    if theta:
        a, a_prime = _check_angles(
            params, ("a_degrees", "a_prime_degrees"), problems, defaults=SWEEP_DIRECTIONS
        )[1]
        _check_orthogonal(a, a_prime, problems)
    elif "a_degrees" in params or "a_prime_degrees" in params:
        problems.append(
            "parameters.a_degrees/a_prime_degrees apply only to theta_degrees sweeps"
        )
    return theta, start, step, size, a, a_prime


def validate_scenario(scenario: Scenario) -> list[str]:
    """All field-level problems with a scenario; empty list means valid."""
    return _checked(scenario)[0]


def _checked(scenario: Scenario) -> tuple[list[str], list | tuple | None]:
    """The problems of `validate_scenario`, and the values that the
    validator of the scenario's kind checked."""
    problems: list[str] = []
    if not scenario.scenario_id or not isinstance(scenario.scenario_id, str):
        problems.append("id must be a non-empty string")
    known = scenario.kind in KINDS
    if not known:
        problems.append(f"kind must be one of {KINDS}, got {scenario.kind!r}")
    elif scenario.kind == "sweep" and scenario.mc is not None:
        problems.append(
            "sweeps are analytic only: Monte Carlo (an mc block, --mc, --samples "
            "or --seed) does not apply"
        )
    if not isinstance(scenario.parameters, dict):
        problems.append("parameters must be an object")
    elif known:
        validate, _ = _KINDS[scenario.kind]
        return problems, validate(scenario.parameters, problems)
    return problems, None


def load_scenario_file(path: str) -> Scenario:
    """Parse and validate a scenario definition file (JSON).

    Raises ValidationError carrying one message per problem: the file's own
    (JSON, top-level keys, `mc`, `notes`) first, then `validate_scenario`'s.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8: {exc}") from exc
    except OSError as exc:  # a directory, or a file without read permission
        raise ValidationError(f"{path}: cannot read the file: {exc.strerror or exc}") from exc
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
    sample_config = None
    mc_data = data.get("mc")
    if mc_data is not None:
        if not isinstance(mc_data, dict):
            problems.append("mc must be an object with n_samples and seed")
        else:
            for key in mc_data:
                if key not in SampleConfig._fields:
                    problems.append(f"unknown mc key {key!r}")
            try:
                # SampleConfig's own defaults fill what the file leaves out.
                sample_config = SampleConfig(**{
                    key: mc_data[key] for key in SampleConfig._fields if key in mc_data
                })
            except ValueError as exc:
                problems.append(f"mc: {exc}")
    notes = data.get("notes", [])
    if not isinstance(notes, list) or any(not isinstance(n, str) for n in notes):
        problems.append("notes must be a list of strings")
        notes = []
    scenario = Scenario(
        scenario_id=data.get("id"),
        kind=data.get("kind"),
        parameters=data.get("parameters", {}),
        mc=sample_config,
        notes=tuple(notes),
    )
    problems.extend(validate_scenario(scenario))
    if problems:
        raise ValidationError(problems)
    return scenario


def _fmt_angle(degrees: float) -> str:
    return f"{degrees:g}"


def _row(
    sid: str, quantity: str, analytic: float,
    est: EmpiricalEstimate | None = None, flags: str = "",
) -> ResultRow:
    """One result row, its mc fields filled from the estimate if there is one."""
    if est is None:
        return ResultRow(sid, quantity, analytic, flags=flags)
    return ResultRow(sid, quantity, analytic, est.value, est.std_error, flags)


def _estimate(cfg: SampleConfig | None, stream: int, build, *args, parity: int | None = None):
    """The Monte Carlo estimate of a row from the 2x2 table build(*args),
    drawn from the substream: `mc.estimate_table`'s, or with a parity
    `mc.estimate_parity_rate`'s pair. None, or (None, None), without Monte
    Carlo, and then no table is built."""
    if cfg is None:
        return None if parity is None else (None, None)
    if parity is None:
        return mc.estimate_table(build(*args), cfg, stream)
    return mc.estimate_parity_rate(build(*args), cfg, stream, parity)


def _signed_sum(signs, estimates: list) -> EmpiricalEstimate | None:
    """|sum of sign * value| of independent estimates, with the standard
    error sqrt(sum of se^2), both summed exactly (the built-in sum() rounds
    differently from Python 3.12 on); None without estimates (no Monte
    Carlo). Its sample count is that of each term."""
    if None in estimates:
        return None
    return EmpiricalEstimate(
        abs(math.fsum(sign * est.value for sign, est in zip(signs, estimates))),
        math.sqrt(math.fsum(est.std_error * est.std_error for est in estimates)),
        estimates[0].n_samples,
    )


def _chsh_row(
    sid: str, s_value: float, est: EmpiricalEstimate | None, regime: nsb.BoxClass,
    label: str, annotation: str | None = None,
) -> ResultRow:
    """The chsh_s row, flagged with its class label, chsh_violated if its
    regime is above the classical bound, and the annotation if there is one."""
    violated = "chsh_violated" if regime in _CHSH_VIOLATING else ""
    flags = ";".join(filter(None, (f"class={label}", violated, annotation)))
    return _row(sid, "chsh_s", s_value, est, flags)


def _floor_row(sid: str, quantity: str, floor: float, tag: str = "") -> tuple[ResultRow, bool]:
    """A floor's row, flagged with the tag and rho_min_positive if the floor
    is above 0, and that decision, which its verdict reads."""
    positive = floor > 0.0
    flags = ";".join(filter(None, (tag, "rho_min_positive" if positive else "")))
    return _row(sid, quantity, floor, flags=flags), positive


def _report_rows(
    sid: str, floor: float, rho_ci: float, ci_est: EmpiricalEstimate | None,
    suffix: str = "", tag: str = "",
) -> tuple[list[ResultRow], bool]:
    """The four rows of a counterfactual report, named with the suffix and
    flagged with the tag (the floor, the CI correlation, and the bits that it
    leaks, alone and with the measured bit), and the floor row's decision."""
    floor_row, positive = _floor_row(sid, f"rho_min{suffix}", floor, tag)
    info = info_leakage(0.5 * (1.0 + rho_ci))
    return [
        floor_row,
        _row(sid, f"rho_ci{suffix}", rho_ci, ci_est, tag),
        _row(sid, f"info_bits{suffix}", info, flags=tag),
        _row(sid, f"total_bits{suffix}", 1.0 + info, flags=tag),
    ], positive


def _verdict_rows(sid: str, pairs) -> list[ResultRow]:
    """One row per (name, verdict): 1.0 and "true", or 0.0 and "false"."""
    return [
        _row(sid, name, 1.0 if value else 0.0, flags="true" if value else "false")
        for name, value in pairs
    ]


def _run_chsh(
    sid: str, cfg: SampleConfig | None, degrees: list[float], directions: list[Direction],
    option_names: list[str], assume_ci: bool, annotation: str | None,
) -> list[ResultRow]:
    a_deg, ap_deg, b_deg, bp_deg = degrees
    a, a_prime, b, b_prime = directions

    pairs = [
        (f"E(a={_fmt_angle(a_deg)},b={_fmt_angle(b_deg)})", a, b, 1.0),
        (f"E(a={_fmt_angle(a_deg)},b={_fmt_angle(bp_deg)})", a, b_prime, -1.0),
        (f"E(a={_fmt_angle(ap_deg)},b={_fmt_angle(b_deg)})", a_prime, b, 1.0),
        (f"E(a={_fmt_angle(ap_deg)},b={_fmt_angle(bp_deg)})", a_prime, b_prime, 1.0),
    ]
    correlators = [correlation(alpha, beta) for _, alpha, beta, _ in pairs]
    pair_estimates = [
        _estimate(cfg, stream, mc.match_table, 0.5 * (1.0 + e))
        for stream, e in zip(_PAIR_STREAMS, correlators)
    ]
    rows = [
        _row(sid, name, e, est)
        for (name, *_), e, est in zip(pairs, correlators, pair_estimates)
    ]

    e_ab, e_abp, e_apb, e_apbp = correlators
    s_value = abs(e_ab - e_abp + e_apb + e_apbp)
    s_est = _signed_sum([sign for (_, _, _, sign) in pairs], pair_estimates)
    regime = nsb.chsh_class(s_value)
    rows.append(_chsh_row(sid, s_value, s_est, regime, _SPIN_CLASS_LABELS[regime], annotation))

    remotes = {"b": (b, e_ab, e_apb), "b_prime": (b_prime, e_abp, e_apbp)}
    positives, cis = [], []
    for stream, name in enumerate(option_names, _OPTION_STREAM_BASE):
        ci_est = None
        if name == "none":  # no remote measurement: no correlation, by assumption
            tag, floor, rho_ci = "no_remote", 0.0, 0.0
        else:
            theta, x, y = remotes[name]
            tag = f"theta={_fmt_angle(theta.degrees)}"
            floor, rho_ci, agree = _spin_pair(x, y)
            ci_est = _estimate(cfg, stream, mc.match_table, agree)
        report, positive = _report_rows(sid, floor, rho_ci, ci_est, f"[remote={name}]", tag)
        rows.extend(report)
        positives.append(positive)
        cis.append(rho_ci)

    best_theta, best_bits = max_info_direction(a, a_prime)
    rows.append(_row(sid, "max_info_theta_degrees", best_theta.degrees))
    rows.append(_row(sid, "max_info_bits", best_bits))
    # Route (i) reads the rho_min rows' decisions, route (ii) (only under CI) the rho_ci rows.
    rho_min_route = any(positives)
    ci_route = max(cis) - min(cis) > CI_DIFFERENCE_TOL
    rows.extend(_verdict_rows(sid, (
        ("verdict_rho_min_route", rho_min_route),
        ("verdict_ci_route", ci_route),
        ("verdict_nonlocal", rho_min_route or (assume_ci and ci_route)),
    )))
    return rows


def _run_counterfactual(
    sid: str, cfg: SampleConfig | None, theta: Direction, a: Direction, a_prime: Direction,
) -> list[ResultRow]:
    floor, rho_ci, agree = _spin_pair(correlation(theta, a), correlation(theta, a_prime))
    return _report_rows(sid, floor, rho_ci, _estimate(cfg, 0, mc.match_table, agree))[0]


def _outputs(box: nsb.NsBox, a_in: int, b_in: int) -> list[float]:
    """The 2x2 table of outputs (A, B) of one input pair of a box. A cell
    below 0 (by CONSTRAINT_TOL at most, in a valid box) is sampled at 0,
    the table rescaled to sum to 1."""
    table = [box.prob(A, B, a_in, b_in) for A in (0, 1) for B in (0, 1)]
    if min(table) >= 0.0:
        return table
    clamped = [max(x, 0.0) for x in table]
    return [x / sum(clamped) for x in clamped]


def _run_nsbox(sid: str, cfg: SampleConfig | None, box: nsb.NsBox) -> list[ResultRow]:
    p_iso = nsb.isotropic_parameter(box)
    rows = [] if p_iso is None else [_row(sid, "isotropic_p", p_iso)]

    input_pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    # Each input pair's 2x2 table of outputs, with the target parity ab.
    rate_ests, corr_ests = zip(*[
        _estimate(cfg, stream, _outputs, box, a_in, b_in, parity=a_in * b_in)
        for stream, (a_in, b_in) in zip(_PAIR_STREAMS, input_pairs)
    ])
    for (a_in, b_in), est in zip(input_pairs, rate_ests):
        rate = nsb.target_probability(box, a_in, b_in)
        rows.append(_row(sid, f"target_rate(a={a_in},b={b_in})", rate, est))
    for (a_in, b_in), est in zip(input_pairs, corr_ests):
        rows.append(_row(sid, f"E(a={a_in},b={b_in})", nsb.correlator(box, a_in, b_in), est))

    parity_est = _signed_sum((1.0, 1.0, 1.0, 1.0), rate_ests)
    rows.append(_row(sid, "chsh_s_parity", nsb.chsh_s_ns(box), parity_est))
    # Each verdict below reads the decision or the values of the rows that show it.
    regime = nsb.classify_box(box)
    s_est = _signed_sum((1.0, 1.0, 1.0, -1.0), corr_ests)
    rows.append(_chsh_row(sid, nsb.chsh_s_e(box), s_est, regime, regime.value))

    floors, products = zip(*(nsb._target_pair(box, b_setting) for b_setting in (0, 1)))
    floor_rows = [_floor_row(sid, f"rho_min[b={k}]", floor) for k, floor in enumerate(floors)]
    rows.extend(row for row, _ in floor_rows)
    rows.extend(_row(sid, f"ci_product[b={k}]", product) for k, product in enumerate(products))
    if p_iso is not None:
        rows.append(_row(sid, "rho_ci", nsb.rho_ci_ns(p_iso)))
    rows.extend(_verdict_rows(sid, (
        ("verdict_chsh_violated", regime in _CHSH_VIOLATING),
        ("verdict_rho_min_positive", any(positive for _, positive in floor_rows)),
        ("verdict_ci_rho_positive", any(value > 0.0 for value in products)),
    )))
    return rows


def _run_classical(
    sid: str, cfg: SampleConfig | None, rc: float | None, bs: float | None,
) -> list[ResultRow]:
    """The coin's row if rc and bs are None, else the shapes' row."""
    if rc is None:  # a toss and its re-toss: independent fair outcomes
        return [_row(sid, "rho", 0.0, _estimate(cfg, 0, mc.match_table, 0.5))]
    est = _estimate(cfg, 0, lambda: [rc / 2.0, (1.0 - rc) / 2.0, (1.0 - bs) / 2.0, bs / 2.0])
    return [_row(sid, "rho", mc.shapes_rho(rc, bs), est)]


def _run_sweep(
    sid: str, cfg: None, theta: bool, start: float, step: float, size: int,
    a: Direction | None, a_prime: Direction | None,
) -> ColumnBlocks:
    if theta:
        headers = ["scenario", "theta_degrees", "rho_ci", "info_bits"]
    else:
        headers = ["scenario", "isotropic_p", "s_ns", "s_e", "rho_min", "rho_ci"]
    return ColumnBlocks(headers, _sweep_blocks(sid, theta, start, step, size, a, a_prime))


#: Each scenario kind's (validator, evaluator). A validator notes the problems
#: of its kind's parameters and returns the values it checked, which the
#: evaluator takes after the scenario id and Monte Carlo configuration.
_KINDS = {
    "chsh": (_validate_chsh, _run_chsh),
    "counterfactual": (_validate_counterfactual, _run_counterfactual),
    "nsbox": (_validate_nsbox, _run_nsbox),
    "classical": (_validate_classical, _run_classical),
    "sweep": (_validate_sweep, _run_sweep),
}
KINDS = tuple(_KINDS)


def run(scenario: Scenario) -> list[ResultRow]:
    """Execute one non-sweep scenario, returning its result rows.

    Raises ValidationError (with one message per field problem) for
    malformed scenarios; sweep scenarios go through :func:`sweep_columns`.
    """
    return _evaluate(scenario, sweep=False)


def sweep_columns(scenario: Scenario) -> ColumnBlocks:
    """Execute a sweep scenario, analytic only: validated now, evaluated
    _SWEEP_BLOCK grid points at a time as its blocks are read."""
    return _evaluate(scenario, sweep=True)


def _evaluate(scenario: Scenario, sweep: bool):
    """Check the scenario once, then hand the values its kind's validator
    checked to the kind's evaluator."""
    problems, checked = _checked(scenario)
    if problems:
        raise ValidationError(problems)
    if sweep and scenario.kind != "sweep":
        raise ValidationError(f"expected a sweep scenario, got kind {scenario.kind!r}")
    if scenario.kind == "sweep" and not sweep:
        raise ValidationError(
            "sweep scenarios produce grid rows; run them with sweep_columns "
            "or the sweep command"
        )
    _, evaluate = _KINDS[scenario.kind]
    return evaluate(scenario.scenario_id, scenario.mc, *checked)


def _grid_steps(start: float, stop: float, step: float) -> int:
    """Steps of the grid from start to stop: the last point is start + steps * step."""
    return int(math.floor((stop - start) / step + 1e-9))


class ColumnBlocks(NamedTuple):
    """Headers, then blocks of rows, each block one list per column."""

    headers: list[str]
    blocks: Iterator[list[list]]


def _sweep_blocks(
    sid: str, theta: bool, start: float, step: float, size: int,
    a: Direction | None, a_prime: Direction | None,
) -> Iterator[list[list]]:
    for lo in range(0, size, _SWEEP_BLOCK):
        # start + i * step, never accumulated: 0.75 on a 0.01 grid is exact.
        grid = [start + i * step for i in range(lo, min(lo + _SWEEP_BLOCK, size))]
        if theta:
            rho_ci = [
                rho_conditional_independence(Direction.from_degrees(degrees), a, a_prime)
                for degrees in grid
            ]
            columns = [grid, rho_ci, [info_leakage(0.5 * (1.0 + r)) for r in rho_ci]]
        else:
            p = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in grid]
            columns = [p, *nsb.isotropic_sweep(p)]
        yield [[sid] * len(grid), *columns]
