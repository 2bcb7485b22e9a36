"""Views that the tests build from the public API: the flat wire format of
a box, the 2x2 tables that the runners sample, the settings quad of a built-in CHSH scenario, the CHSH value and
class label of a quad, a run's chsh_s row, a sweep's grid, and its rows as records.
Then, written without mucorr: each derived row recomputed from the rows a
run prints, and the former forms of the measured/unmeasured floor and CI
product."""
import itertools
import math
from typing import NamedTuple

from mucorr.scenarios import ResultRow, builtin_scenarios, run, sweep_columns
from mucorr.spin import CLASSICAL_BOUND, TSIRELSON_BOUND, Direction, correlation


def to_labeled_dict(box) -> dict[str, float]:
    """Flat wire format: 16 entries keyed "P(A,B|a,b)", inputs outermost."""
    return {
        f"P({A},{B}|{a},{b})": box.prob(A, B, a, b)
        for a, b, A, B in itertools.product((0, 1), repeat=4)
    }


def box_pair_table(box, a_in: int, b_in: int) -> list[float]:
    """The 2x2 table of outputs (A, B) of one input pair, as an nsbox run
    samples it when none of its cells is negative."""
    return [box.prob(A, B, a_in, b_in) for A in (0, 1) for B in (0, 1)]


def shapes_table(red_given_cube: float = 0.75, blue_given_sphere: float = 0.75) -> list[float]:
    """The 2x2 table of shape (cube, sphere) and color (red, blue), as a
    shapes run samples it."""
    rc, bs = red_given_cube, blue_given_sphere
    return [rc / 2.0, (1.0 - rc) / 2.0, (1.0 - bs) / 2.0, bs / 2.0]


def ci_table(x: float, y: float) -> list[float]:
    """The 2x2 table of a spin pair a, a' under conditional independence, as
    a chsh or counterfactual run samples it, from their correlations x, y
    with the remote direction: two fair outcomes that agree at
    p1 p2 + (1 - p1)(1 - p2), where p = (1 + E) / 2."""
    p1, p2 = 0.5 * (1.0 + x), 0.5 * (1.0 + y)
    agree = p1 * p2 + (1.0 - p1) * (1.0 - p2)
    return [agree / 2.0, (1.0 - agree) / 2.0, (1.0 - agree) / 2.0, agree / 2.0]


class Quad(NamedTuple):
    """The four apparatus directions of a CHSH arrangement."""

    a: Direction
    a_prime: Direction
    b: Direction
    b_prime: Direction


def builtin_quad(scenario_id: str) -> Quad:
    """The four directions of a built-in chsh scenario."""
    params = builtin_scenarios()[scenario_id].parameters
    return Quad(*(
        Direction.from_degrees(params[key])
        for key in ("a_degrees", "a_prime_degrees", "b_degrees", "b_prime_degrees")
    ))


def chsh_s_row(scenario) -> ResultRow:
    """The chsh_s row of a scenario's run."""
    return next(row for row in run(scenario) if row.quantity == "chsh_s")


def chsh_s(q: Quad) -> float:
    """CHSH combination |E(a,b) - E(a,b') + E(a',b) + E(a',b')|."""
    return abs(
        correlation(q.a, q.b)
        - correlation(q.a, q.b_prime)
        + correlation(q.a_prime, q.b)
        + correlation(q.a_prime, q.b_prime)
    )


def chsh_label(s: float) -> str:
    """The chsh kind's class label of a CHSH value S >= 0 against the bounds
    2 and 2*sqrt(2), exact on the double, boundaries in the lower class."""
    if s <= CLASSICAL_BOUND:
        return "local_compatible"
    if s <= TSIRELSON_BOUND:
        return "quantum_violating"
    return "super_quantum"


def grid_points(start: float, stop: float, step: float) -> list[float]:
    """A sweep's grid: start + i * step (never accumulated) for each i from 0
    up to (stop - start) / step, with 1e-9 of slack on that quotient."""
    steps = math.floor((stop - start) / step + 1e-9)
    return [start + i * step for i in range(steps + 1)]


def sweep_records(scenario) -> list[dict]:
    """One record per grid point of a sweep, keyed by its headers."""
    headers, blocks = sweep_columns(scenario)
    return [dict(zip(headers, row)) for block in blocks for row in zip(*block)]


# The rows a run derives, recomputed from the rows it prints (or from its
# document, where README's table of derived rows says so) by the formulas
# that table states. The code below calls no mucorr function.

def binary_entropy(x: float) -> float:
    """-(x log2 x + (1 - x) log2 (1 - x)), with H(0) = H(1) = 0."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def info_bits(rho_ci: float) -> float:
    """Bits leaked at the CI correlation rho_ci: 1 - H((1 + rho_ci) / 2)."""
    return 1.0 - binary_entropy(0.5 * (1.0 + rho_ci))


def box_label(s: float, correlators: list[float]) -> str:
    """The nsbox kind's `class=` label: independent if every correlator is
    within 1e-9 of 0, else S against the bounds 2 and 2*sqrt(2)."""
    if all(abs(e) <= 1e-9 for e in correlators):
        return "independent"
    if s <= 2.0:
        return "local_correlated"
    if s <= 2.0 * math.sqrt(2.0):
        return "quantum_region"
    return "super_quantum"


def _flags(*tags: str) -> str:
    return ";".join(filter(None, tags))


def _verdicts(*pairs) -> dict[str, tuple[float, str]]:
    return {name: (1.0 if value else 0.0, "true" if value else "false") for name, value in pairs}


def derived_chsh(params: dict, records: list[dict]) -> dict[str, tuple[float, str]]:
    """chsh_s from the four E rows; per remote option, rho_min, rho_ci,
    info_bits and total_bits from its two E rows; the verdicts from the
    rho_min and rho_ci rows and `assume_ci`. The E rows are the first four,
    E(a,b), E(a,b'), E(a',b), E(a',b'): two can share a label, as when
    b = b'."""
    e_ab, e_abp, e_apb, e_apbp = (row["analytic"] for row in records[:4])
    printed = {row["quantity"]: row for row in records}
    s = abs(e_ab - e_abp + e_apb + e_apbp)
    out = {"chsh_s": (s, _flags(
        f"class={chsh_label(s)}", "chsh_violated" if s > 2.0 else "", params.get("annotation"),
    ))}
    remote = {"b": (e_ab, e_apb), "b_prime": (e_abp, e_apbp)}
    options = [q[len("rho_ci[remote="):-1] for q in printed if q.startswith("rho_ci[")]
    for name in options:
        floor, rho_ci = 0.0, 0.0  # no remote measurement
        if name in remote:
            x, y = remote[name]
            floor = rho_min_from_match_rates(0.5 * (1.0 + x), 0.5 * (1.0 + y))
            rho_ci = ci_from_correlations(x, y)
        tag = printed[f"rho_ci[remote={name}]"]["flags"]
        info = info_bits(rho_ci)
        out[f"rho_min[remote={name}]"] = (floor, _flags(tag, "rho_min_positive" if floor > 0.0 else ""))
        out[f"rho_ci[remote={name}]"] = (rho_ci, tag)
        out[f"info_bits[remote={name}]"] = (info, tag)
        out[f"total_bits[remote={name}]"] = (1.0 + info, tag)
    floors = [printed[f"rho_min[remote={name}]"]["analytic"] for name in options]
    cis = [printed[f"rho_ci[remote={name}]"]["analytic"] for name in options]
    rho_min_route = any(floor > 0.0 for floor in floors)
    ci_route = max(cis) - min(cis) > 1e-12
    out.update(_verdicts(
        ("verdict_rho_min_route", rho_min_route),
        ("verdict_ci_route", ci_route),
        ("verdict_nonlocal", rho_min_route or (params.get("assume_ci", True) and ci_route)),
    ))
    return out


def derived_counterfactual(params: dict, records: list[dict]) -> dict[str, tuple[float, str]]:
    """info_bits and total_bits from the rho_ci row, and the rho_min row's flag."""
    printed = {row["quantity"]: row for row in records}
    floor = printed["rho_min"]["analytic"]
    info = info_bits(printed["rho_ci"]["analytic"])
    return {
        "rho_min": (floor, "rho_min_positive" if floor > 0.0 else ""),
        "info_bits": (info, ""),
        "total_bits": (1.0 + info, ""),
    }


def derived_nsbox(params: dict, records: list[dict]) -> dict[str, tuple[float, str]]:
    """isotropic_p, chsh_s_parity, the floors and the CI products from the
    target_rate rows; chsh_s from the E rows; rho_ci from isotropic_p; the
    verdicts from their rows."""
    printed = {row["quantity"]: row for row in records}
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    w = {ab: printed["target_rate(a={},b={})".format(*ab)]["analytic"] for ab in bits}
    e = [printed["E(a={},b={})".format(*ab)]["analytic"] for ab in bits]
    out = {}
    mean = math.fsum(w.values()) / 4.0
    if all(abs(rate - mean) <= 1e-9 for rate in w.values()):
        out["isotropic_p"] = (mean, "")
        bias = 2.0 * printed["isotropic_p"]["analytic"] - 1.0
        out["rho_ci"] = (bias * bias, "")
    out["chsh_s_parity"] = (abs(w[0, 0] + w[0, 1] + w[1, 0] + w[1, 1]), "")
    s = abs(e[0] + e[1] + e[2] - e[3])
    out["chsh_s"] = (s, _flags(f"class={box_label(s, e)}", "chsh_violated" if s > 2.0 else ""))
    for b in (0, 1):
        floor = rho_min_from_target_rates(w[0, b], w[1, b])
        out[f"rho_min[b={b}]"] = (floor, "rho_min_positive" if floor > 0.0 else "")
        out[f"ci_product[b={b}]"] = (ci_from_target_rates(w[0, b], w[1, b]), "")
    out.update(_verdicts(
        ("verdict_chsh_violated", printed["chsh_s"]["analytic"] > 2.0),
        ("verdict_rho_min_positive", any(printed[f"rho_min[b={b}]"]["analytic"] > 0.0 for b in (0, 1))),
        ("verdict_ci_rho_positive", any(printed[f"ci_product[b={b}]"]["analytic"] > 0.0 for b in (0, 1))),
    ))
    return out


def derived_classical(params: dict, records: list[dict]) -> dict[str, tuple[float, str]]:
    """rho from the document: 0 for the coin; for the shapes, the color and
    shape correlation (rc + bs - 1) / sqrt(1 - (rc - bs)^2)."""
    if params["variant"] == "coin":
        return {"rho": (0.0, "")}
    rc, bs = params.get("red_given_cube", 0.75), params.get("blue_given_sphere", 0.75)
    mean = rc - bs
    return {"rho": ((rc + bs - 1.0) / math.sqrt(1.0 - mean * mean), "")}


def derived_isotropic_point(p: float) -> dict[str, float]:
    """Every column of an isotropic_p sweep from its isotropic_p: the box
    quantities of a table whose cells are p/2 on the target parity and
    (1 - p)/2 off it, in the box's own operation order."""
    hit, miss = p / 2.0, (1.0 - p) / 2.0
    win, lose = hit + hit, miss + miss
    e = win - lose
    bias = 2.0 * p - 1.0
    return {
        "s_ns": abs(win + win + win + win),
        "s_e": abs(e + e + e - (lose - win)),
        "rho_min": rho_min_from_target_rates(win, win),
        "rho_ci": bias * bias,
    }


# The measured/unmeasured floor and CI product in the forms the package
# once wrote them, one per caller.

def rho_min_from_match_rates(p1: float, p2: float) -> float:
    """Overlap floor of two spin match rates: 2 max(0, p1 + p2 - 1) - 1."""
    return 2.0 * max(0.0, p1 + p2 - 1.0) - 1.0


def rho_min_from_target_rates(w0: float, w1: float) -> float:
    """Box floor of two target rates: max(-1, 2 (w0 + w1) - 3)."""
    return max(-1.0, 2.0 * (w0 + w1) - 3.0)


def rho_min_sweep_loop(w0: float, w1: float) -> float:
    """The isotropic sweep loop's floor: clamped by a comparison."""
    floor = 2.0 * (w0 + w1) - 3.0
    return floor if floor > -1.0 else -1.0


def ci_from_correlations(c1: float, c2: float) -> float:
    """CI product of two spin correlations."""
    return c1 * c2


def ci_from_target_rates(w0: float, w1: float) -> float:
    """CI product of two box target rates: (2 w0 - 1)(2 w1 - 1)."""
    return (2.0 * w0 - 1.0) * (2.0 * w1 - 1.0)
