"""Views that the tests build from the public API: the flat wire format of
a box, the settings quad of a built-in CHSH scenario, and a sweep's rows as
records."""
import itertools

from mucorr.scenarios import builtin_scenarios, sweep_columns
from mucorr.spin import Direction, SettingsQuad


def to_labeled_dict(box) -> dict[str, float]:
    """Flat wire format: 16 entries keyed "P(A,B|a,b)", inputs outermost."""
    return {
        f"P({A},{B}|{a},{b})": box.prob(A, B, a, b)
        for a, b, A, B in itertools.product((0, 1), repeat=4)
    }


def builtin_quad(scenario_id: str) -> SettingsQuad:
    """The four directions of a built-in chsh scenario."""
    params = builtin_scenarios()[scenario_id].parameters
    return SettingsQuad(*(
        Direction.from_degrees(params[key])
        for key in ("a_degrees", "a_prime_degrees", "b_degrees", "b_prime_degrees")
    ))


def sweep_records(scenario) -> list[dict]:
    """One record per grid point of a sweep, keyed by its headers."""
    headers, blocks = sweep_columns(scenario)
    return [dict(zip(headers, row)) for block in blocks for row in zip(*block)]
