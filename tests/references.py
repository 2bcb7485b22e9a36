"""Views that the tests build from the public API: the flat wire format of
a box, the settings quad of a built-in CHSH scenario, the CHSH value and
class label of a quad, a run's chsh_s row, and a sweep's rows as records."""
import itertools
from typing import NamedTuple

from mucorr.scenarios import ResultRow, builtin_scenarios, run, sweep_columns
from mucorr.spin import CLASSICAL_BOUND, TSIRELSON_BOUND, Direction, correlation


def to_labeled_dict(box) -> dict[str, float]:
    """Flat wire format: 16 entries keyed "P(A,B|a,b)", inputs outermost."""
    return {
        f"P({A},{B}|{a},{b})": box.prob(A, B, a, b)
        for a, b, A, B in itertools.product((0, 1), repeat=4)
    }


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


def sweep_records(scenario) -> list[dict]:
    """One record per grid point of a sweep, keyed by its headers."""
    headers, blocks = sweep_columns(scenario)
    return [dict(zip(headers, row)) for block in blocks for row in zip(*block)]
