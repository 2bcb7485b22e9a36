import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mucorr.montecarlo import match_table
from mucorr.nsbox import BoxClass, chsh_class
from mucorr.scenarios import Scenario, _SPIN_CLASS_LABELS, builtin_scenarios
from mucorr.spin import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    Direction,
    correlation,
)

from references import builtin_quad, chsh_label, chsh_s, chsh_s_row

angles_deg = st.floats(-720.0, 720.0)


class TestDirection:
    def test_canonicalizes_to_one_turn(self):
        assert Direction.from_degrees(-90.0).degrees == pytest.approx(270.0)
        assert Direction.from_degrees(360.0).angle == 0.0
        assert Direction.from_degrees(45.0).degrees == 45.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Direction(math.nan)
        with pytest.raises(ValueError):
            Direction(math.inf)

    def test_replace_and_make_canonicalize(self):
        d = Direction(1.0)
        assert d._replace(angle=100.0) == Direction(100.0)
        assert d._replace(angle=100.0).angle == 100.0 % (2.0 * math.pi)
        assert Direction._make([-math.pi / 2.0]).degrees == pytest.approx(270.0)
        with pytest.raises(ValueError, match="finite"):
            d._replace(angle=math.inf)
        assert repr(Direction(0.5)) == "Direction(angle=0.5)"

    def test_rotated_quarter_turn_is_orthogonal(self):
        d = Direction.from_degrees(30.0)
        assert abs(correlation(d, Direction(d.angle + math.pi / 2.0))) < 1e-15

    @given(angles_deg)
    def test_degrees_round_trip(self, deg):
        d = Direction.from_degrees(deg)
        assert Direction.from_degrees(d.degrees).angle == pytest.approx(
            d.angle, abs=1e-9
        )


class TestCorrelation:
    def test_parallel_and_orthogonal(self):
        a = Direction.from_degrees(0.0)
        assert correlation(a, a) == 1.0
        assert abs(correlation(a, Direction.from_degrees(90.0))) < 1e-15

    def test_singlet_values_at_45(self):
        a = Direction.from_degrees(0.0)
        assert correlation(a, Direction.from_degrees(45.0)) == 0.7071067811865476
        assert correlation(a, Direction.from_degrees(135.0)) == -0.7071067811865475

    @given(angles_deg, angles_deg)
    def test_symmetric(self, x, y):
        # Bit for bit: the angle difference negates exactly, and cos is even.
        d1, d2 = Direction.from_degrees(x), Direction.from_degrees(y)
        assert correlation(d1, d2).hex() == correlation(d2, d1).hex()

    @given(angles_deg, angles_deg)
    def test_match_probability_consistent(self, x, y):
        # The agreement rate (1 + E) / 2 of a pair, as a chsh run's E(...)
        # row samples it: a 2x2 table that sums to 1.
        d1, d2 = Direction.from_degrees(x), Direction.from_degrees(y)
        p = 0.5 * (1.0 + correlation(d1, d2))
        table = match_table(p)
        assert 0.0 <= p <= 1.0 and all(0.0 <= cell <= 0.5 for cell in table)
        assert abs(sum(table) - 1.0) <= 1e-15
        # 2p - 1 recovers E only up to one rounding step
        assert abs(2.0 * (table[0] + table[3]) - 1.0 - correlation(d1, d2)) <= 1e-15

    @given(angles_deg, angles_deg, st.floats(-10.0, 10.0))
    def test_rotation_invariance(self, x, y, r):
        d1, d2 = Direction.from_degrees(x), Direction.from_degrees(y)
        assert correlation(Direction(d1.angle + r), Direction(d2.angle + r)) == pytest.approx(
            correlation(d1, d2), abs=1e-12
        )


class TestChsh:
    def test_standard_settings_angles(self):
        q = builtin_quad("paper-standard")
        got = (q.a.degrees, q.a_prime.degrees, q.b.degrees, q.b_prime.degrees)
        assert got == (0.0, 90.0, 45.0, 135.0)

    def test_standard_value_is_quantum_maximum(self):
        row = chsh_s_row(builtin_scenarios()["paper-standard"])
        assert row.analytic == chsh_s(builtin_quad("paper-standard"))
        assert abs(row.analytic - TSIRELSON_BOUND) <= 1e-12
        # the computed double sits just below the bound constant, so the
        # exact-threshold classification must not tip into super-quantum
        assert chsh_class(row.analytic) is BoxClass.QUANTUM_REGION
        assert row.flags == "class=quantum_violating;chsh_violated"

    def test_modified_55_35_value(self):
        q = builtin_quad("paper-55-35")
        assert (q.b.degrees, q.b_prime.degrees) == (45.0, 55.0)
        row = chsh_s_row(builtin_scenarios()["paper-55-35"])
        assert row.analytic == chsh_s(q)
        assert abs(row.analytic - 1.6597891703110408) <= 1e-12
        assert row.analytic < CLASSICAL_BOUND
        assert chsh_class(row.analytic) is BoxClass.LOCAL_CORRELATED
        assert row.flags.startswith("class=local_compatible;")

    def test_classify_boundaries_fall_to_lower_class(self):
        expected = [
            (0.0, BoxClass.LOCAL_CORRELATED),
            (CLASSICAL_BOUND, BoxClass.LOCAL_CORRELATED),
            (math.nextafter(2.0, 0.0), BoxClass.LOCAL_CORRELATED),
            (math.nextafter(2.0, 4.0), BoxClass.QUANTUM_REGION),
            (math.nextafter(TSIRELSON_BOUND, 0.0), BoxClass.QUANTUM_REGION),
            (TSIRELSON_BOUND, BoxClass.QUANTUM_REGION),
            (math.nextafter(TSIRELSON_BOUND, 4.0), BoxClass.SUPER_QUANTUM),
            (4.0, BoxClass.SUPER_QUANTUM),
        ]
        for s, box_class in expected:
            assert chsh_class(s) is box_class
            # The chsh kind's label of the class is the reference's.
            assert _SPIN_CLASS_LABELS[box_class] == chsh_label(s)

    @given(st.floats(-10.0, 10.0))
    def test_value_invariant_under_joint_rotation(self, r):
        # r is in radians, as Direction takes it, so the joint
        # rotation crosses several wrap-arounds of [0, 360) degrees.
        standard = builtin_scenarios()["paper-standard"]
        params = {
            key: value + math.degrees(r)
            for key, value in standard.parameters.items()
            if key.endswith("_degrees")
        }
        rotated = chsh_s_row(Scenario("rotated", "chsh", params))
        assert rotated.analytic == pytest.approx(
            chsh_s_row(standard).analytic, abs=1e-12
        )
