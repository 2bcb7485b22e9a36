import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mucorr.counterfactual import (
    _pair,
    _spin_pair,
    binary_entropy,
    info_leakage,
    max_info_direction,
    rho_conditional_independence,
)
from mucorr.errors import (
    DegenerateSequenceError,
    DomainError,
    NotOrthogonalError,
    ValidationError,
)
from mucorr.montecarlo import estimate_correlation
from mucorr.scenarios import Scenario, run
from mucorr.spin import Direction, correlation

import references as ref

A_DIR = Direction.from_degrees(0.0)
A_PRIME_DIR = Direction.from_degrees(90.0)

outcome_lists = st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=64)
probabilities = st.floats(0.0, 1.0)


def match_rate(alpha: Direction, beta: Direction) -> float:
    """Rate at which outcomes along alpha and beta agree: (1 + E) / 2."""
    return 0.5 * (1.0 + correlation(alpha, beta))


def rho_min(theta: Direction, a: Direction, a_prime: Direction) -> float:
    """The floor of a, a' against theta, as a counterfactual run's rho_min row prints it."""
    return _spin_pair(correlation(theta, a), correlation(theta, a_prime))[0]


def pearson(m, u) -> float:
    """Pearson coefficient of two +/-1 sequences, as `estimate_correlation`
    computes it from their cell counts (++, +-, -+, --)."""
    pairs = list(zip(m, u))
    cells = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    return estimate_correlation(tuple(pairs.count(cell) for cell in cells)).value


def rows_of(kind: str, **params) -> dict:
    """The rows of a run of the kind, by quantity."""
    return {row.quantity: row for row in run(Scenario("s", kind, params))}


def chsh_rows(options: list[str], **params) -> dict:
    """The rows of a chsh run with a = 0, a' = 90, b = 45 and b' = 135
    (unless given) and these remote options."""
    angles = {"a_degrees": 0.0, "a_prime_degrees": 90.0, "b_degrees": 45.0, "b_prime_degrees": 135.0}
    return rows_of("chsh", **{**angles, "remote_options": options, **params})


def verdicts(rows: dict) -> tuple[bool, bool, bool]:
    """The rho_min route, the CI route and the overall verdict of a chsh run."""
    routes = ("verdict_rho_min_route", "verdict_ci_route", "verdict_nonlocal")
    return tuple(rows[name].flags == "true" for name in routes)


def rho_ci_reference(x: float) -> float:
    """CI correlation for a remote direction with dot product x onto a, with
    a' orthogonal to a and all directions coplanar: x sqrt(1 - x^2)."""
    return x * math.sqrt(1.0 - x * x)


class TestPearson:
    """The sample correlation of measured and unmeasured +/-1 outcomes."""

    def test_perfect_and_anti_correlation(self):
        m = [1, -1, 1, 1, -1]
        assert pearson(m, m) == 1.0
        assert pearson(m, [-x for x in m]) == -1.0

    def test_hand_value(self):
        # matches on 3 of 4 fair entries: rho = 2*(3/4) - 1
        m = [1, 1, -1, -1]
        u = [1, 1, -1, 1]
        assert pearson(m, u) == pytest.approx(0.5773502691896258)

    def test_degenerate_sequences(self):
        with pytest.raises(DegenerateSequenceError):
            pearson([1, 1, 1], [1, -1, 1])
        with pytest.raises(DegenerateSequenceError):
            pearson([1], [-1])

    @given(outcome_lists, outcome_lists)
    def test_bounded_and_symmetric(self, m, u):
        n = min(len(m), len(u))
        m, u = m[:n], u[:n]
        assume(len(set(m)) == 2 and len(set(u)) == 2)
        r = pearson(m, u)
        assert -1.0 <= r <= 1.0
        assert pearson(u, m) == pytest.approx(r, abs=1e-12)

    @given(outcome_lists)
    def test_sign_flip_negates(self, m):
        assume(len(set(m)) == 2)
        u = [-x for x in m]
        assert pearson(m, u) == -1.0


def near_sum(r1: float, total: float, ulps: int) -> float:
    """total - r1, moved by `ulps` units in the last place."""
    r2 = total - r1
    for _ in range(abs(ulps)):
        r2 = math.nextafter(r2, math.copysign(math.inf, ulps))
    return r2


@st.composite
def pair_inputs(draw):
    """(r1, r2, c1, c2): spin match rates and correlations at angles in
    +/-720 degrees, random target rates w and their correlations 2w - 1, or
    target rates whose sum lies within a few ulps of 1 (where the floor
    leaves -1) or of 1.5 (where it crosses 0)."""
    source = draw(st.sampled_from(["spin", "target", "near"]))
    if source == "spin":
        theta, a, a_prime = [Direction.from_degrees(draw(st.floats(-720.0, 720.0))) for _ in range(3)]
        return (
            match_rate(theta, a), match_rate(theta, a_prime),
            correlation(theta, a), correlation(theta, a_prime),
        )
    w0 = draw(probabilities)
    if source == "target":
        w1 = draw(probabilities)
    else:
        w1 = near_sum(w0, draw(st.sampled_from([1.0, 1.5])), draw(st.integers(-4, 4)))
        assume(0.0 <= w1 <= 1.0)
    return w0, w1, 2.0 * w0 - 1.0, 2.0 * w1 - 1.0


class TestPairCore:
    """`_pair` equals, bit for bit and sign of zero included, each form in
    which the package once wrote the floor and the CI product."""

    @given(pair_inputs())
    def test_core_equals_every_former_form(self, inputs):
        r1, r2, c1, c2 = inputs
        floor, product = _pair(*inputs)
        for former in (
            ref.rho_min_from_match_rates, ref.rho_min_from_target_rates, ref.rho_min_sweep_loop,
        ):
            assert floor.hex() == former(r1, r2).hex(), former.__name__
        assert product.hex() == ref.ci_from_correlations(c1, c2).hex()
        if (c1, c2) == (2.0 * r1 - 1.0, 2.0 * r2 - 1.0):
            assert product.hex() == ref.ci_from_target_rates(r1, r2).hex()

    @given(st.floats(-720.0, 720.0), st.floats(-720.0, 720.0), st.floats(-720.0, 720.0))
    def test_spin_pair_equals_the_direction_form(self, theta_deg, a_deg, a_prime_deg):
        # The floor and CI product that the spin pair once read from its
        # directions, and the agreement rate of its former CI table, from
        # the correlations in either order (a chsh run holds E(a, theta)).
        theta, a, a_prime = map(Direction.from_degrees, (theta_deg, a_deg, a_prime_deg))
        p1, p2 = match_rate(theta, a), match_rate(theta, a_prime)
        former = (
            *_pair(p1, p2, correlation(theta, a), correlation(theta, a_prime)),
            p1 * p2 + (1.0 - p1) * (1.0 - p2),
        )
        for x, y in [(correlation(theta, a), correlation(theta, a_prime)),
                     (correlation(a, theta), correlation(a_prime, theta))]:
            assert [v.hex() for v in _spin_pair(x, y)] == [v.hex() for v in former]

    def test_sums_at_the_edges(self):
        # A sum of 1 gives -1, of 1.5 gives +0.0 (not -0.0), and nan gives -1.
        floors = [_pair(r1, r2, 0.0, 0.0)[0] for r1, r2 in [(0.5, 0.5), (0.75, 0.75), (math.nan, 0.5)]]
        assert [floor.hex() for floor in floors] == [(-1.0).hex(), (0.0).hex(), (-1.0).hex()]


class TestOverlapBound:
    """rho_min is the overlap floor max(0, p1 + p2 - 1) on the match rates
    p1, p2 of a and a' to theta, as a correlation."""

    def test_values(self):
        assert rho_min(A_DIR, A_DIR, A_DIR) == 1.0  # p1 = p2 = 1
        assert rho_min(A_PRIME_DIR, A_DIR, A_DIR) == -1.0  # p1 = p2 = 0.5
        near = Direction(math.acos(0.8))  # p1 = p2 = 0.9
        assert rho_min(near, A_DIR, A_DIR) == pytest.approx(0.6)
        # p1 = 0 and p2 = 0.5: the raw bound is negative and clamps
        assert rho_min(Direction.from_degrees(180.0), A_DIR, A_PRIME_DIR) == -1.0

    @given(st.floats(-360.0, 360.0), st.floats(-360.0, 360.0))
    def test_properties(self, theta_deg, a_prime_deg):
        theta = Direction.from_degrees(theta_deg)
        a_prime = Direction.from_degrees(a_prime_deg)
        p1, p2 = match_rate(theta, A_DIR), match_rate(theta, a_prime)
        v = rho_min(theta, A_DIR, a_prime)
        assert v == 2.0 * max(0.0, p1 + p2 - 1.0) - 1.0
        assert -1.0 <= v <= 2.0 * min(p1, p2) - 1.0 + 1e-15
        assert v == rho_min(theta, a_prime, A_DIR)


class TestRhoMin:
    def test_quantum_value_at_bisector(self):
        v = rho_min(Direction.from_degrees(45.0), A_DIR, A_PRIME_DIR)
        assert v == 0.4142135623730949
        assert abs(v - (math.sqrt(2.0) - 1.0)) <= 1e-12

    def test_vacuous_bound_floors_at_minus_one(self):
        v = rho_min(Direction.from_degrees(135.0), A_DIR, A_PRIME_DIR)
        assert v == -1.0

    @given(st.floats(-360.0, 360.0))
    def test_never_below_minus_one(self, theta_deg):
        v = rho_min(Direction.from_degrees(theta_deg), A_DIR, A_PRIME_DIR)
        assert -1.0 <= v <= 1.0


class TestRhoCi:
    def test_product_rule_matches_correlations(self):
        theta = Direction.from_degrees(27.5)
        expected = correlation(theta, A_DIR) * correlation(theta, A_PRIME_DIR)
        assert rho_conditional_independence(theta, A_DIR, A_PRIME_DIR) == expected

    def test_value_at_bisector(self):
        v = rho_conditional_independence(
            Direction.from_degrees(45.0), A_DIR, A_PRIME_DIR
        )
        assert abs(v - 0.5) <= 1e-12

    def test_value_at_55(self):
        v = rho_conditional_independence(
            Direction.from_degrees(55.0), A_DIR, A_PRIME_DIR
        )
        assert v == 0.46984631039295427

    def test_general_direction_maximum(self):
        def rho_ci_at(degrees):
            return rho_conditional_independence(
                Direction.from_degrees(degrees), A_DIR, A_PRIME_DIR
            )

        assert rho_ci_at(45.0) == pytest.approx(0.5, abs=1e-12)
        assert rho_ci_at(45.0) == pytest.approx(rho_ci_reference(0.5 ** 0.5), abs=1e-15)
        assert rho_ci_at(0.0) == pytest.approx(0.0, abs=1e-16)
        assert rho_ci_at(90.0) == pytest.approx(0.0, abs=1e-16)

    @given(st.floats(0.0, 90.0))
    def test_general_direction_agrees_with_product(self, theta_deg):
        theta = Direction.from_degrees(theta_deg)
        via_dot = rho_ci_reference(correlation(theta, A_DIR))
        via_product = rho_conditional_independence(theta, A_DIR, A_PRIME_DIR)
        # x*sqrt(1-x^2) cancels near x=1, so the agreement degrades as
        # theta approaches 0; away from that seam it is tight
        tol = 1e-12 if theta_deg >= 1.0 else 3e-8
        assert via_dot == pytest.approx(via_product, abs=tol)

    @given(st.floats(-720.0, 720.0))
    def test_general_direction_never_exceeds_half(self, theta_deg):
        theta = Direction.from_degrees(theta_deg)
        assert abs(rho_conditional_independence(theta, A_DIR, A_PRIME_DIR)) <= 0.5 + 1e-15


class TestEntropyAndInfo:
    def test_entropy_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.75) == 0.8112781244591328

    def test_entropy_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)

    @given(probabilities)
    def test_entropy_symmetric(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_info_leakage_values(self):
        assert info_leakage(0.5) == 0.0
        assert info_leakage(1.0) == 1.0
        assert info_leakage(0.75) == 0.18872187554086717
        # one bit learned about a fair binary outcome is the ceiling
        assert info_leakage(0.25) == info_leakage(0.75)


class TestInfoScan:
    def test_maximum_on_grid_is_the_bisector(self):
        # The CI leakage on a 1-degree grid of remote angles from a to a'.
        scan = ref.sweep_records(Scenario("s", "sweep", {
            "parameter": "theta_degrees", "start": 0.0, "stop": 90.0, "step": 1.0,
        }))
        best = max(scan, key=lambda record: record["info_bits"])
        assert len(scan) == 91
        assert best["theta_degrees"] == 45.0
        assert best["info_bits"] == 0.18872187554086717

    def test_max_info_direction(self):
        theta, bits = max_info_direction(A_DIR, A_PRIME_DIR)
        assert theta.degrees == 45.0
        assert bits == 0.18872187554086717

    def test_max_info_requires_orthogonal_pair(self):
        with pytest.raises(NotOrthogonalError):
            max_info_direction(A_DIR, Direction.from_degrees(80.0))


class TestReportsAndVerdict:
    """The report rows of each remote option, and the three verdict rows
    that a chsh run decides from them."""

    def test_no_remote_option_is_inert(self):
        rows = chsh_rows(["none"])
        assert rows["rho_min[remote=none]"].analytic == 0.0
        assert rows["rho_ci[remote=none]"].analytic == 0.0
        assert rows["info_bits[remote=none]"].analytic == 0.0
        assert rows["total_bits[remote=none]"].analytic == 1.0
        assert rows["rho_min[remote=none]"].flags == "no_remote"

    def test_bisector_option(self):
        rows = rows_of("counterfactual", theta_degrees=45.0, a_degrees=0.0, a_prime_degrees=90.0)
        assert rows["rho_min"].analytic == 0.4142135623730949
        assert abs(rows["rho_ci"].analytic - 0.5) <= 1e-12
        assert rows["total_bits"].analytic == 1.0 + rows["info_bits"].analytic
        assert rows["rho_min"].flags == "rho_min_positive"

    def test_verdict_both_routes(self):
        rows = chsh_rows(["none", "b", "b_prime"])
        assert verdicts(rows) == (True, True, True)
        assert [q for q in rows if q.startswith("total_bits")] == [
            "total_bits[remote=none]", "total_bits[remote=b]", "total_bits[remote=b_prime]",
        ]

    def test_verdict_single_inert_option(self):
        assert verdicts(chsh_rows(["none"])) == (False, False, False)

    def test_ci_route_can_be_disabled(self):
        # at 135 degrees the overlap bound is vacuous, so only the CI
        # route can flag the remote dependence
        options = ["none", "b_prime"]
        assert verdicts(chsh_rows(options)) == (False, True, True)
        assert verdicts(chsh_rows(options, assume_ci=False)) == (False, True, False)

    def test_verdict_requires_orthogonal_pair(self):
        with pytest.raises(ValidationError, match="must be orthogonal directions"):
            chsh_rows(["none"], a_prime_degrees=30.0)
