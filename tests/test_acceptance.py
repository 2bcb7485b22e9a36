"""End-to-end checks of every advertised numeric guarantee.

Each test prints one ACCEPTANCE line (PASS or FAIL plus the measured
numbers), so a full run doubles as a checklist. Run with `pytest -s`
to see the lines for passing tests too.
"""
import math
import time

import pytest

from mucorr import (
    Direction,
    SampleConfig,
    TSIRELSON_BOUND,
    binary_entropy,
    chsh_s_e,
    chsh_s_ns,
    correlation,
    correlator,
    make_isotropic,
    max_info_direction,
    rho_ci_ns,
    rho_conditional_independence,
    shapes_rho,
    validate_no_signalling,
)
from mucorr.montecarlo import estimate_parity_rate, estimate_table, match_table
from mucorr.nsbox import NsBox, _target_pair
from mucorr.scenarios import Scenario, builtin_scenarios, run

from references import box_pair_table, chsh_s_row, ci_table, shapes_table, sweep_records

A = Direction.from_degrees(0.0)
A_PRIME = Direction.from_degrees(90.0)
B = Direction.from_degrees(45.0)
B_PRIME_55 = Direction.from_degrees(55.0)

GRID = [i * 0.001 for i in range(1001)]


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(
                f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}",
                flush=True,
            )
        assert ok, detail

    return _report


def test_criterion_01_standard_settings_reach_quantum_maximum(report):
    value = chsh_s_row(builtin_scenarios()["paper-standard"]).analytic
    diff = abs(value - TSIRELSON_BOUND)
    report(1, diff <= 1e-12, f"chsh_s={value!r}, |value - 2*sqrt(2)|={diff:.3g}")


def test_criterion_02_overlap_bound_at_remote_direction(report):
    rows = run(builtin_scenarios()["paper-standard"])
    value = next(row.analytic for row in rows if row.quantity == "rho_min[remote=b]")
    target = math.sqrt(2.0) - 1.0
    diff = abs(value - target)
    report(2, diff <= 1e-12, f"rho_min={value!r}, |value - (sqrt(2)-1)|={diff:.3g}")


def test_criterion_03_ci_correlation_at_both_remote_options(report):
    at_b = rho_conditional_independence(B, A, A_PRIME)
    at_b_prime = rho_conditional_independence(B_PRIME_55, A, A_PRIME)
    diff_b = abs(at_b - 0.5)
    diff_bp = abs(at_b_prime - 0.47)
    ok = diff_b <= 1e-12 and diff_bp <= 5e-4
    report(
        3,
        ok,
        f"rho_ci(45deg)={at_b!r} (|diff to 0.5|={diff_b:.3g}), "
        f"rho_ci(55deg)={at_b_prime!r} (|diff to 0.47|={diff_bp:.3g})",
    )


def test_criterion_04_information_leakage_maximum(report):
    best_dir, best_bits = max_info_direction(A, A_PRIME)
    target = 1.0 - binary_entropy(0.75)
    diff = abs(best_bits - 0.18872187554086717)
    total = next(row.analytic for row in run(Scenario("s", "counterfactual", {
        "theta_degrees": best_dir.degrees, "a_degrees": 0.0, "a_prime_degrees": 90.0,
    })) if row.quantity == "total_bits")

    # The first maximum of the CI leakage on a 0.01-degree grid from a to a'.
    scan = sweep_records(Scenario("s", "sweep", {
        "parameter": "theta_degrees", "start": 0.0, "stop": 90.0, "step": 0.01,
    }))
    scan_theta = max(scan, key=lambda record: record["info_bits"])["theta_degrees"]
    ok = (
        diff <= 1e-9
        and abs(best_bits - target) <= 1e-15
        and abs(total - (1.0 + best_bits)) <= 1e-15
        and abs(scan_theta - 45.0) <= 0.01 + 1e-9
    )
    report(
        4,
        ok,
        f"max bits={best_bits!r} at {best_dir.degrees!r} deg "
        f"(total={total!r}, 0.01-deg scan argmax={scan_theta!r})",
    )


def test_criterion_05_nonviolating_settings_report_derived_value(report):
    row = chsh_s_row(builtin_scenarios()["paper-55-35"])
    value, flags = row.analytic, row.flags
    diff = abs(value - 1.6597891703110408)
    flagged = "1.442" in flags and "not reproduced" in flags
    ok = value < 2.0 and diff <= 1e-12 and flagged
    report(
        5,
        ok,
        f"chsh_s={value!r} (< 2), unreproduced figure flagged: {flagged}",
    )


def test_criterion_06_verdict_finds_nonlocality_without_violation(report):
    # Remote options none, b = 45 and b' = 55 degrees.
    rows = {row.quantity: row for row in run(builtin_scenarios()["paper-55-35"])}
    ci_values = sorted(rows[f"rho_ci[remote={name}]"].analytic for name in ("none", "b", "b_prime"))
    expected = [0.0, 0.46984631039295427, 0.5000000000000001]
    values_ok = len(ci_values) == 3 and all(
        abs(got - want) <= 1e-12 for got, want in zip(ci_values, expected)
    )
    rho_min_route, ci_route, is_nonlocal = (
        rows[name].flags == "true"
        for name in ("verdict_rho_min_route", "verdict_ci_route", "verdict_nonlocal")
    )
    standard = {row.quantity: row for row in run(builtin_scenarios()["paper-standard"])}
    ok = (
        rho_min_route
        and ci_route
        and is_nonlocal
        and values_ok
        and standard["verdict_nonlocal"].flags == "true"
    )
    report(
        6,
        ok,
        f"routes=(rho_min={rho_min_route}, ci={ci_route}), "
        f"ci values={ci_values!r}",
    )


def test_criterion_07_classical_examples(report):
    shapes_exact = shapes_rho(0.75, 0.75)
    coin_row = next(
        row for row in run(builtin_scenarios()["paper-coin"]) if row.quantity == "rho"
    )
    coin_hits = shapes_hits = 0
    for seed in range(100):
        cfg = SampleConfig(n_samples=10_000, seed=seed)
        if estimate_table(match_table(0.5), cfg).within_band(0.0):
            coin_hits += 1
        if estimate_table(shapes_table(), cfg).within_band(0.5):
            shapes_hits += 1
    ok = (
        shapes_exact == 0.5
        and coin_row.analytic == 0.0
        and coin_hits >= 99
        and shapes_hits >= 99
    )
    report(
        7,
        ok,
        f"shapes rho={shapes_exact!r}, coin rho={coin_row.analytic!r}, "
        f"4-sigma coverage coin {coin_hits}/100, shapes {shapes_hits}/100",
    )


def test_criterion_08_isotropic_identities_and_threshold(report):
    worst = 0.0
    equivalence_ok = True
    for i, p in enumerate(GRID):
        box = make_isotropic(p)
        floors = [_target_pair(box, b)[0] for b in (0, 1)]
        deviations = (
            abs(chsh_s_ns(box) - 4.0 * p),
            abs(chsh_s_e(box) - abs(8.0 * p - 4.0)),
            abs(floors[0] - max(-1.0, 4.0 * p - 3.0)),
            abs(floors[1] - max(-1.0, 4.0 * p - 3.0)),
            abs(rho_ci_ns(p) - (2.0 * p - 1.0) ** 2),
        )
        # The signed sum whose absolute value chsh_s_e is.
        (e00, e01), (e10, e11) = [[correlator(box, a, b) for b in (0, 1)] for a in (0, 1)]
        worst = max(worst, *deviations)
        # at i=750 the chain holds trivially: the boundary point sits on
        # the non-violating side of all three strict predicates
        flags = (
            e00 + e01 + e10 - e11 > 2.0,
            floors[0] > 0.0,
            floors[1] > 0.0,
            p > 0.75,
        )
        if len(set(flags)) != 1:
            equivalence_ok = False
    ok = worst <= 1e-12 and equivalence_ok
    report(
        8,
        ok,
        f"worst identity deviation {worst:.3g} over 1001 points, "
        f"threshold chain consistent: {equivalence_ok}",
    )


def test_criterion_09_extremal_boxes(report):
    pr_value = chsh_s_ns(make_isotropic(1.0))
    tsirelson_p = (2.0 + math.sqrt(2.0)) / 4.0
    e_value = chsh_s_e(make_isotropic(tsirelson_p))
    diff = abs(e_value - TSIRELSON_BOUND)
    ok = pr_value == 4.0 and diff <= 1e-12
    report(
        9,
        ok,
        f"extremal box parity sum={pr_value!r}, correlator form at "
        f"p=(2+sqrt(2))/4 gives {e_value!r} (|diff to 2*sqrt(2)|={diff:.3g})",
    )


def test_criterion_10_ci_positive_except_trivial_point(report):
    ok = True
    for i, p in enumerate(GRID):
        value = rho_ci_ns(p)
        if i == 500:
            ok = ok and value == 0.0
        else:
            ok = ok and value > 0.0
    report(10, ok, "rho_ci > 0 at 1000 grid points, exactly 0 at p=0.5")


def test_criterion_11_sampler_oracle(report):
    box = make_isotropic(0.8)
    remote_10 = Direction.from_degrees(10.0)

    def table_estimator(table):
        return lambda cfg: estimate_table(table, cfg)

    def pair_at(degrees):
        other = Direction.from_degrees(degrees)
        return (f"pair{degrees:g}", math.cos(math.radians(degrees)),
                table_estimator(match_table(0.5 * (1.0 + correlation(A, other)))))

    def ci_at(name, remote):
        x, y = correlation(remote, A), correlation(remote, A_PRIME)
        return (name, rho_conditional_independence(remote, A, A_PRIME),
                table_estimator(ci_table(x, y)))

    # Angles near 0, 90 and 180 degrees and asymmetric shapes rates, where
    # a standard error that ignores the outcome geometry misses the band.
    samplers = [pair_at(d) for d in (45.0, 5.0, 10.0, 80.0, 135.0, 170.0)] + [
        ci_at("ci", B),
        ci_at("ci10", remote_10),
        ("coin", 0.0, table_estimator(match_table(0.5))),
        ("shapes", 0.5, table_estimator(shapes_table())),
        ("shapes.9/.6", shapes_rho(0.9, 0.6), table_estimator(shapes_table(0.9, 0.6))),
        ("nsbox", 0.8, lambda cfg: estimate_parity_rate(box_pair_table(box, 1, 1), cfg, 0, 1)[0]),
    ]
    counts = {}
    for name, target, estimator in samplers:
        hits = sum(
            estimator(SampleConfig(n_samples=10_000, seed=seed)).within_band(target)
            for seed in range(100)
        )
        counts[name] = hits
    cfg = SampleConfig(n_samples=10_000, seed=0)
    deterministic = all(
        estimator(cfg) == estimator(cfg) for _, _, estimator in samplers
    )
    pair_table = match_table(0.5 * (1.0 + correlation(A, B)))
    start = time.perf_counter()
    estimate_table(pair_table, SampleConfig(n_samples=1_000_000, seed=123))
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    huge = estimate_table(pair_table, SampleConfig(n_samples=10**12, seed=123))
    huge_elapsed = time.perf_counter() - start
    ok = (
        all(hits >= 99 for hits in counts.values())
        and deterministic
        and elapsed < 5.0
        and huge_elapsed < 1.0
        and huge.within_band(math.cos(math.radians(45.0)))
    )
    report(
        11,
        ok,
        f"4-sigma coverage per 100 seeds: {counts!r}, bit-exact repeats: "
        f"{deterministic}, n=10^6 run in {elapsed:.2f}s, n=10^12 run in "
        f"{huge_elapsed:.2f}s",
    )


def test_criterion_12_no_signalling_validation(report):
    import numpy as np

    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 0, 0, 0] += 0.1
    table[0, 1, 0, 0] -= 0.1
    violations = validate_no_signalling(NsBox(table))
    marginal = [v for v in violations if v.kind == "no-signalling"]
    residual_ok = bool(marginal) and all(
        abs(v.residual - 0.1) <= 1e-12 for v in marginal
    )
    clean = all(
        not validate_no_signalling(make_isotropic(p)) for p in GRID
    )
    ok = residual_ok and clean
    report(
        12,
        ok,
        f"signalling table rejected with residual 0.1 ({len(marginal)} marginal "
        f"violations), all 1001 isotropic boxes accepted: {clean}",
    )
