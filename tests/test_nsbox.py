import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mucorr.errors import DomainError, ValidationError
from mucorr.nsbox import (
    BoxClass,
    NsBox,
    chsh_e_form,
    chsh_s_e,
    chsh_s_ns,
    ci_product,
    classify_box,
    correlator,
    from_correlators,
    from_labeled_dict,
    isotropic_parameter,
    isotropic_sweep,
    make_isotropic,
    pr_box,
    rho_ci_ns,
    rho_min_ns,
    target_probability,
    to_labeled_dict,
    validate_no_signalling,
)

TSIRELSON_P = (2.0 + math.sqrt(2.0)) / 4.0

correlator_values = st.floats(-1.0, 1.0)


def signalling_table() -> NsBox:
    """Uncorrelated box with 0.1 moved between two outputs of one setting.

    P(0,0|0,0) goes up by 0.1 and P(0,1|0,0) down by 0.1, which keeps the
    setting normalized but makes the B marginal at b=0 depend on a.
    """
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 0, 0, 0] += 0.1
    table[0, 1, 0, 0] -= 0.1
    return NsBox(table)


class TestConstruction:
    def test_isotropic_half_is_flat(self):
        box = make_isotropic(0.5)
        assert np.all(box.table == 0.25)

    def test_pr_box_pattern(self):
        box = pr_box()
        assert box.prob(0, 0, 0, 0) == 0.5
        assert box.prob(0, 1, 0, 0) == 0.0
        assert box.prob(0, 1, 1, 1) == 0.5
        assert box.prob(0, 0, 1, 1) == 0.0
        assert np.array_equal(box.table, make_isotropic(1.0).table)

    def test_isotropic_domain(self):
        with pytest.raises(DomainError):
            make_isotropic(-0.01)
        with pytest.raises(DomainError):
            make_isotropic(1.01)
        for bad in (-0.01, 1.01, math.nan):
            with pytest.raises(DomainError):
                isotropic_sweep(np.array([0.5, bad]))

    def test_from_correlators_recovers_inputs(self):
        box = from_correlators(0.3, -0.2, 0.7, -1.0)
        got = [correlator(box, a, b) for a in (0, 1) for b in (0, 1)]
        assert got == pytest.approx([0.3, -0.2, 0.7, -1.0], abs=1e-15)

    def test_from_correlators_domain(self):
        with pytest.raises(DomainError):
            from_correlators(1.5, 0.0, 0.0, 0.0)

    def test_table_shape_checked(self):
        with pytest.raises(DomainError):
            NsBox(np.zeros((2, 2, 2)))

    def test_table_is_read_only(self):
        box = make_isotropic(0.5)
        with pytest.raises(ValueError):
            box.table[0, 0, 0, 0] = 1.0

    def test_joint_is_a_copy(self):
        box = make_isotropic(0.5)
        j = box.joint(0, 0)
        j[0, 0] = 9.0
        assert box.prob(0, 0, 0, 0) == 0.25


class TestValidation:
    def test_isotropic_boxes_pass(self):
        for p in (0.0, 0.25, 0.5, TSIRELSON_P, 1.0):
            assert validate_no_signalling(make_isotropic(p)) == []

    def test_signalling_table_is_rejected_with_residual(self):
        violations = validate_no_signalling(signalling_table())
        assert violations
        ns = [v for v in violations if v.kind == "no-signalling"]
        # the B marginal at b=0 differs across a by exactly the moved mass
        assert ns
        assert all("across a" in v.where for v in ns)
        assert all(abs(v.residual - 0.1) <= 1e-12 for v in ns)
        assert not any("across b" in v.where for v in violations)
        assert not any(v.kind == "normalization" for v in violations)
        uniform = [v for v in violations if v.kind == "uniform-marginal"]
        assert uniform and all(abs(v.residual - 0.1) <= 1e-12 for v in uniform)

    def test_normalization_violation_residual(self):
        table = np.full((2, 2, 2, 2), 0.25)
        table[:, :, 1, 1] = 0.2625  # setting (1,1) sums to 1.05
        violations = validate_no_signalling(NsBox(table))
        norm = [v for v in violations if v.kind == "normalization"]
        assert len(norm) == 1
        assert abs(norm[0].residual - 0.05) <= 1e-12

    def test_entry_range_violation(self):
        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0, 0, 0] = -0.05
        table[1, 1, 0, 0] = 0.55
        kinds = {v.kind for v in validate_no_signalling(NsBox(table))}
        assert "entry-range" in kinds

    def test_violation_list_is_pinned_in_order(self):
        # Breaks every constraint kind; the list order is the CLI's stderr order.
        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0, 0, 0] = -0.25  # out of range; setting (0,0) sums to 0.5
        table[:, :, 0, 1] = [[0.7, 0.1], [0.1, 0.1]]  # normalized, marginals 0.8/0.2
        table[1, 1, 1, 1] = 1.25  # out of range; setting (1,1) sums to 2
        got = [
            (v.kind, v.where, v.residual)
            for v in validate_no_signalling(NsBox(table))
        ]
        assert got == [
            ("entry-range", "P(0,0|0,0)", 0.25),
            ("entry-range", "P(1,1|1,1)", 0.25),
            ("normalization", "sum P(.,.|0,0)", 0.5),
            ("normalization", "sum P(.,.|1,1)", 1.0),
            ("no-signalling", "P(A=0|a=0) across b", pytest.approx(0.8)),
            ("no-signalling", "P(A=1|a=0) across b", pytest.approx(0.3)),
            ("no-signalling", "P(A=1|a=1) across b", 1.0),
            ("no-signalling", "P(B=0|b=0) across a", 0.5),
            ("no-signalling", "P(B=0|b=1) across a", pytest.approx(0.3)),
            ("no-signalling", "P(B=1|b=1) across a", pytest.approx(1.3)),
            ("uniform-marginal", "P(A=0|a=0,b=0)", 0.5),
            ("uniform-marginal", "P(B=0|a=0,b=0)", 0.5),
            ("uniform-marginal", "P(A=0|a=0,b=1)", pytest.approx(0.3)),
            ("uniform-marginal", "P(A=1|a=0,b=1)", pytest.approx(0.3)),
            ("uniform-marginal", "P(B=0|a=0,b=1)", pytest.approx(0.3)),
            ("uniform-marginal", "P(B=1|a=0,b=1)", pytest.approx(0.3)),
            ("uniform-marginal", "P(A=1|a=1,b=1)", 1.0),
            ("uniform-marginal", "P(B=1|a=1,b=1)", 1.0),
        ]

    @given(correlator_values, correlator_values, correlator_values, correlator_values)
    def test_correlator_boxes_always_valid(self, e00, e01, e10, e11):
        box = from_correlators(e00, e01, e10, e11)
        assert validate_no_signalling(box) == []


class TestChshForms:
    def test_parity_form_values(self):
        assert chsh_s_ns(pr_box()) == 4.0
        assert chsh_s_ns(make_isotropic(0.75)) == 3.0
        assert chsh_s_ns(make_isotropic(0.5)) == 2.0

    def test_correlator_form_values(self):
        assert chsh_s_e(make_isotropic(0.75)) == pytest.approx(2.0, abs=1e-12)
        assert chsh_s_e(make_isotropic(0.5)) == pytest.approx(0.0, abs=1e-12)
        assert chsh_s_e(pr_box()) == 4.0

    def test_tsirelson_point(self):
        assert abs(chsh_s_e(make_isotropic(TSIRELSON_P)) - 2.0 * math.sqrt(2.0)) <= 1e-12

    def test_signed_form_keeps_orientation(self):
        assert chsh_e_form(make_isotropic(0.1)) == pytest.approx(-3.2, abs=1e-12)
        assert chsh_s_e(make_isotropic(0.1)) == pytest.approx(3.2, abs=1e-12)

    @given(correlator_values, correlator_values, correlator_values, correlator_values)
    def test_correlator_form_bounded_by_4(self, e00, e01, e10, e11):
        assert chsh_s_e(from_correlators(e00, e01, e10, e11)) <= 4.0 + 1e-9


class TestRhoMinNs:
    def test_pr_box_both_settings(self):
        # without the (1,1) target flip the b=1 bound would be vacuous
        assert rho_min_ns(pr_box(), 0) == 1.0
        assert rho_min_ns(pr_box(), 1) == 1.0

    def test_isotropic_values(self):
        assert rho_min_ns(make_isotropic(0.8), 0) == pytest.approx(0.2, abs=1e-12)
        assert rho_min_ns(make_isotropic(0.8), 1) == pytest.approx(0.2, abs=1e-12)
        assert abs(
            rho_min_ns(make_isotropic(TSIRELSON_P), 0) - (math.sqrt(2.0) - 1.0)
        ) <= 1e-12

    def test_clamps_at_minus_one(self):
        assert rho_min_ns(make_isotropic(0.1), 0) == -1.0

    def test_b_setting_domain(self):
        with pytest.raises(DomainError):
            rho_min_ns(pr_box(), 2)


class TestCiQuantities:
    def test_rho_ci_values(self):
        assert rho_ci_ns(0.5) == 0.0
        assert rho_ci_ns(0.75) == 0.25
        assert rho_ci_ns(1.0) == 1.0
        with pytest.raises(DomainError):
            rho_ci_ns(1.2)

    @given(st.floats(0.0, 1.0))
    def test_ci_product_reduces_to_isotropic_formula(self, p):
        box = make_isotropic(p)
        assert ci_product(box, 0) == pytest.approx(rho_ci_ns(p), abs=1e-12)
        assert ci_product(box, 1) == pytest.approx(rho_ci_ns(p), abs=1e-12)

    def test_isotropic_parameter_detection(self):
        assert isotropic_parameter(make_isotropic(0.37)) == pytest.approx(
            0.37, abs=1e-12
        )
        assert isotropic_parameter(from_correlators(0.9, 0.0, 0.0, 0.0)) is None


class TestClassification:
    def test_flat_box_is_independent(self):
        c = classify_box(make_isotropic(0.5))
        assert c.box_class is BoxClass.INDEPENDENT
        assert c.chsh_violated is False
        assert c.rho_min_positive_some_b is False
        assert c.ci_rho_positive is False

    def test_local_correlated(self):
        c = classify_box(make_isotropic(0.6))
        assert c.box_class is BoxClass.LOCAL_CORRELATED
        assert c.chsh_violated is False
        assert c.rho_min_positive_some_b is False
        assert c.ci_rho_positive is True  # (2p-1)^2 > 0 away from p = 0.5

    def test_quantum_region(self):
        c = classify_box(make_isotropic(0.8))
        assert c.box_class is BoxClass.QUANTUM_REGION
        assert c.chsh_violated is True
        assert c.rho_min_positive_some_b is True
        assert c.ci_rho_positive is True

    def test_super_quantum(self):
        c = classify_box(make_isotropic(0.9))
        assert c.box_class is BoxClass.SUPER_QUANTUM
        assert c.chsh_violated is True

    @given(correlator_values, correlator_values, correlator_values, correlator_values)
    def test_flags_match_their_definitions(self, e00, e01, e10, e11):
        box = from_correlators(e00, e01, e10, e11)
        c = classify_box(box)
        assert c.chsh_violated == (chsh_s_e(box) > 2.0)
        assert c.rho_min_positive_some_b == (
            rho_min_ns(box, 0) > 0.0 or rho_min_ns(box, 1) > 0.0
        )
        assert c.ci_rho_positive == (
            ci_product(box, 0) > 0.0 or ci_product(box, 1) > 0.0
        )


class TestWireFormat:
    def test_round_trip_is_value_exact(self):
        box = make_isotropic(TSIRELSON_P)
        entries = to_labeled_dict(box)
        assert len(entries) == 16
        assert set(entries) == {
            f"P({A},{B}|{a},{b})"
            for A in (0, 1) for B in (0, 1) for a in (0, 1) for b in (0, 1)
        }
        back = from_labeled_dict(entries)
        assert np.array_equal(back.table, box.table)

    def test_decimal_entries_survive(self):
        entries = to_labeled_dict(make_isotropic(0.5))
        entries = dict(entries)
        entries["P(0,0|0,0)"] = 0.123456789012  # 12 significant digits
        entries["P(1,1|0,0)"] = 0.376543210988
        back = from_labeled_dict(entries)
        assert back.prob(0, 0, 0, 0) == 0.123456789012
        assert back.prob(1, 1, 0, 0) == 0.376543210988

    def test_missing_and_unknown_keys_all_reported(self):
        entries = to_labeled_dict(pr_box())
        del entries["P(0,0|0,0)"]
        del entries["P(1,0|1,1)"]
        entries["P(2,0|0,0)"] = 0.1
        with pytest.raises(ValidationError) as excinfo:
            from_labeled_dict(entries)
        messages = excinfo.value.messages
        assert len(messages) == 3
        assert any("P(0,0|0,0)" in m for m in messages)
        assert any("P(1,0|1,1)" in m for m in messages)
        assert any("P(2,0|0,0)" in m for m in messages)

    def test_non_numeric_value_rejected(self):
        entries = to_labeled_dict(pr_box())
        entries["P(0,0|0,0)"] = "0.5"
        with pytest.raises(ValidationError):
            from_labeled_dict(entries)
        entries["P(0,0|0,0)"] = True
        with pytest.raises(ValidationError):
            from_labeled_dict(entries)
