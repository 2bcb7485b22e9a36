import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mucorr.errors import DomainError, ValidationError
from mucorr.nsbox import (
    BoxClass,
    NsBox,
    _target_pair,
    chsh_s_e,
    chsh_s_ns,
    classify_box,
    correlator,
    from_correlators,
    from_labeled_dict,
    isotropic_parameter,
    isotropic_sweep,
    make_isotropic,
    rho_ci_ns,
    target_probability,
    validate_no_signalling,
)
from mucorr.scenarios import Scenario, run

from references import to_labeled_dict

TSIRELSON_P = (2.0 + math.sqrt(2.0)) / 4.0

correlator_values = st.floats(-1.0, 1.0)


# The array core that nsbox computed with before it moved to plain floats,
# kept as the reference that the float core must equal bit for bit.
_OUT_A, _OUT_B, _IN_A, _IN_B = np.indices((2, 2, 2, 2))
_REF_WIN = (_OUT_A ^ _OUT_B) == (_IN_A & _IN_B)


def table_of(box: NsBox) -> np.ndarray:
    """The entries of a box as a (2, 2, 2, 2) array indexed [A, B, a, b]."""
    entries = [box.prob(*cell) for cell in np.ndindex(2, 2, 2, 2)]
    return np.array(entries).reshape(2, 2, 2, 2)


def reference_rates(table):
    same, differ = table[0, 0] + table[1, 1], table[0, 1] + table[1, 0]
    win = same.copy()
    win[1, 1] = differ[1, 1]
    return win, same - differ


def reference_rho_min(win, b_setting):
    return float(np.fmax(-1.0, 2.0 * (win[0][b_setting] + win[1][b_setting]) - 3.0))


def reference_ci_product(win, b_setting):
    r0, r1 = (2.0 * win[:, b_setting] - 1.0).tolist()
    return r0 * r1


def rho_min(box: NsBox, b_setting: int) -> float:
    """The floor of a box for the remote input b_setting, as its rho_min[b=k] row prints it."""
    return _target_pair(box, b_setting)[0]


def signed_chsh(box: NsBox) -> float:
    """E00 + E01 + E10 - E11, whose absolute value is chsh_s_e."""
    (e00, e01), (e10, e11) = [[correlator(box, a, b) for b in (0, 1)] for a in (0, 1)]
    return e00 + e01 + e10 - e11


def reference_isotropic_parameter(win):
    probs = win.ravel().tolist()
    try:
        p = math.fsum(probs) / 4.0
    except (ValueError, OverflowError):
        return None
    return p if all(abs(q - p) <= 1e-9 for q in probs) else None


def reference_violations(t):
    def violations(kind, residual, where):
        return [
            (kind, where(*index), float(residual[index]))
            for index in zip(*np.nonzero(residual > 1e-9))
        ]

    marginal_a, marginal_b = t.sum(axis=1), t.sum(axis=0)
    uniform = np.abs(np.stack([marginal_a, marginal_b]) - 0.5).transpose(2, 3, 0, 1)
    return (
        violations("entry-range", np.maximum(-t, t - 1.0), "P({},{}|{},{})".format)
        + violations("normalization", np.abs(t.sum(axis=(0, 1)) - 1.0),
                     "sum P(.,.|{},{})".format)
        + violations("no-signalling", np.abs(marginal_a[..., 0] - marginal_a[..., 1]),
                     "P(A={}|a={}) across b".format)
        + violations("no-signalling", np.abs(marginal_b[:, 0] - marginal_b[:, 1]),
                     "P(B={}|b={}) across a".format)
        + violations("uniform-marginal", uniform, lambda a_in, b_in, party, out:
                     f"P({'AB'[party]}={out}|a={a_in},b={b_in})")
    )


def reference_quantities(table) -> dict:
    """Every box quantity of the array core, by name."""
    with np.errstate(over="ignore", invalid="ignore"):
        win, corr = reference_rates(table)
        (w00, w01), (w10, w11) = win.tolist()
        (e00, e01), (e10, e11) = corr.tolist()
        s_e = abs(e00 + e01 + e10 - e11)
        rho_min = [reference_rho_min(win.tolist(), b) for b in (0, 1)]
        ci = [reference_ci_product(win, b) for b in (0, 1)]
        if (np.abs(corr) <= 1e-9).all():
            box_class = BoxClass.INDEPENDENT
        elif s_e <= 2.0:
            box_class = BoxClass.LOCAL_CORRELATED
        elif s_e <= 2.0 * math.sqrt(2.0):
            box_class = BoxClass.QUANTUM_REGION
        else:
            box_class = BoxClass.SUPER_QUANTUM
        return {
            "win": win.tolist(),
            "corr": corr.tolist(),
            "chsh_s_ns": abs(w00 + w01 + w10 + w11),
            "chsh_s_e": s_e,
            "rho_min": rho_min,
            "ci_product": ci,
            "classify": box_class,
            "violations": reference_violations(table),
        }


def float_quantities(box: NsBox) -> dict:
    """The same quantities from the float core."""
    pairs = ((0, 0), (0, 1)), ((1, 0), (1, 1))
    return {
        "win": [[target_probability(box, *pair) for pair in row] for row in pairs],
        "corr": [[correlator(box, *pair) for pair in row] for row in pairs],
        "chsh_s_ns": chsh_s_ns(box),
        "chsh_s_e": chsh_s_e(box),
        "rho_min": [_target_pair(box, b)[0] for b in (0, 1)],
        "ci_product": [_target_pair(box, b)[1] for b in (0, 1)],
        "classify": classify_box(box),
        "violations": [
            (v.kind, v.where, v.residual) for v in validate_no_signalling(box)
        ],
    }


def bits(value):
    """value with every float as its hex text, so -0.0, nan and each last
    bit count; anything else as it is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def outcome(function, *args):
    """The bits of function(*args), or the type of what it raised."""
    try:
        return bits(function(*args))
    except (ValueError, OverflowError) as exc:
        return type(exc)


#: Box entries: probabilities, values near the uniform 1/4 within a few
#: tolerances, and any float at all, nan and the infinities included.
ENTRIES = (
    st.floats(0.0, 1.0)
    | st.floats(-2e-9, 2e-9).map(lambda d: 0.25 + d)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -0.25, 1.25, math.nan, math.inf, -math.inf])
)


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
        assert np.all(table_of(box) == 0.25)

    def test_pr_box_pattern(self):
        box = make_isotropic(1.0)
        assert box.prob(0, 0, 0, 0) == 0.5
        assert box.prob(0, 1, 0, 0) == 0.0
        assert box.prob(0, 1, 1, 1) == 0.5
        assert box.prob(0, 0, 1, 1) == 0.0
        assert table_of(box).tobytes() == np.where(_REF_WIN, 0.5, 0.0).tobytes()

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

    def test_ragged_table_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"shape \(2, 2, 2, 2\)"):
            NsBox([[1, 2], [3]])

    def test_non_numeric_table_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"shape \(2, 2, 2, 2\)"):
            NsBox("abcd")

    def test_nested_lists_and_arrays_give_the_same_box(self):
        entries = np.linspace(-1.0, 2.0, 16).reshape(2, 2, 2, 2)
        box = NsBox(entries.tolist())
        assert table_of(box).tobytes() == table_of(NsBox(entries)).tobytes() == entries.tobytes()


class TestFloatCoreEqualsTheArrayCore:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(ENTRIES, min_size=16, max_size=16))
    def test_every_quantity_and_violation_bit_for_bit(self, entries):
        table = np.array(entries).reshape(2, 2, 2, 2)
        box = NsBox(table.tolist())
        assert bits(float_quantities(box)) == bits(reference_quantities(table))
        with np.errstate(over="ignore", invalid="ignore"):
            win = reference_rates(table)[0]
        assert outcome(isotropic_parameter, box) == outcome(reference_isotropic_parameter, win)

    @given(st.lists(correlator_values, min_size=4, max_size=4))
    def test_correlator_boxes(self, es):
        box = from_correlators(*es)
        table = np.where(
            _OUT_A == _OUT_B, (1.0 + np.array(es).reshape(2, 2)) / 4.0,
            (1.0 - np.array(es).reshape(2, 2)) / 4.0,
        )
        assert table_of(box).tobytes() == table.tobytes()
        assert bits(float_quantities(box)) == bits(reference_quantities(table))

    @given(st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_isotropic_sweep(self, ps):
        p = np.array(ps)
        win, corr = reference_rates(np.where(_REF_WIN[..., None], p / 2.0, (1.0 - p) / 2.0))
        s_ns = abs(win[0, 0] + win[0, 1] + win[1, 0] + win[1, 1])
        s_e = abs(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1])
        rho_min = np.fmax(-1.0, 2.0 * (win[0, 0] + win[1, 0]) - 3.0)
        rho_ci = (2.0 * p - 1.0) ** 2
        reference = [column.tolist() for column in (s_ns, s_e, rho_min, rho_ci)]
        assert bits(list(isotropic_sweep(ps))) == bits(reference)
        assert bits(list(isotropic_sweep(p))) == bits(reference)
        for q, *values in zip(ps, *isotropic_sweep(ps)):
            box = make_isotropic(q)
            assert bits(values) == bits(
                [chsh_s_ns(box), chsh_s_e(box), _target_pair(box, 0)[0], rho_ci_ns(q)]
            )
            assert table_of(box).tobytes() == np.where(_REF_WIN, q / 2.0, (1.0 - q) / 2.0).tobytes()


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
        assert chsh_s_ns(make_isotropic(1.0)) == 4.0
        assert chsh_s_ns(make_isotropic(0.75)) == 3.0
        assert chsh_s_ns(make_isotropic(0.5)) == 2.0

    def test_correlator_form_values(self):
        assert chsh_s_e(make_isotropic(0.75)) == pytest.approx(2.0, abs=1e-12)
        assert chsh_s_e(make_isotropic(0.5)) == pytest.approx(0.0, abs=1e-12)
        assert chsh_s_e(make_isotropic(1.0)) == 4.0

    def test_tsirelson_point(self):
        assert abs(chsh_s_e(make_isotropic(TSIRELSON_P)) - 2.0 * math.sqrt(2.0)) <= 1e-12

    def test_signed_form_keeps_orientation(self):
        assert signed_chsh(make_isotropic(0.1)) == pytest.approx(-3.2, abs=1e-12)
        assert chsh_s_e(make_isotropic(0.1)) == pytest.approx(3.2, abs=1e-12)

    @given(correlator_values, correlator_values, correlator_values, correlator_values)
    def test_correlator_form_bounded_by_4(self, e00, e01, e10, e11):
        assert chsh_s_e(from_correlators(e00, e01, e10, e11)) <= 4.0 + 1e-9


class TestRhoMinNs:
    def test_pr_box_both_settings(self):
        # without the (1,1) target flip the b=1 bound would be vacuous
        assert rho_min(make_isotropic(1.0), 0) == 1.0
        assert rho_min(make_isotropic(1.0), 1) == 1.0

    def test_isotropic_values(self):
        assert rho_min(make_isotropic(0.8), 0) == pytest.approx(0.2, abs=1e-12)
        assert rho_min(make_isotropic(0.8), 1) == pytest.approx(0.2, abs=1e-12)
        assert abs(
            rho_min(make_isotropic(TSIRELSON_P), 0) - (math.sqrt(2.0) - 1.0)
        ) <= 1e-12

    def test_clamps_at_minus_one(self):
        assert rho_min(make_isotropic(0.1), 0) == -1.0

    def test_b_setting_domain(self):
        with pytest.raises(DomainError):
            _target_pair(make_isotropic(1.0), 2)


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
        assert _target_pair(box, 0)[1] == pytest.approx(rho_ci_ns(p), abs=1e-12)
        assert _target_pair(box, 1)[1] == pytest.approx(rho_ci_ns(p), abs=1e-12)

    def test_isotropic_parameter_detection(self):
        assert isotropic_parameter(make_isotropic(0.37)) == pytest.approx(
            0.37, abs=1e-12
        )
        assert isotropic_parameter(from_correlators(0.9, 0.0, 0.0, 0.0)) is None

    def test_isotropic_parameter_of_rates_fsum_cannot_add_is_none(self):
        both_infinities = np.full((2, 2, 2, 2), 0.25)
        both_infinities[0, 0, 0, 0], both_infinities[0, 0, 0, 1] = math.inf, -math.inf
        # Four rates of 1.7e308, whose sum passes the float range.
        huge = np.full((2, 2, 2, 2), 0.85e308)
        for table in (both_infinities, huge):
            assert isotropic_parameter(NsBox(table.tolist())) is None


def nsbox_rows(parameters: dict) -> dict:
    """The result rows of an nsbox document with these parameters, by quantity."""
    return {row.quantity: row for row in run(Scenario("box", "nsbox", parameters))}


def verdict(rows: dict, name: str) -> bool:
    """The verdict row of that name, which must read 1.0 "true" or 0.0 "false"."""
    row = rows[name]
    assert (row.analytic, row.flags) in ((1.0, "true"), (0.0, "false"))
    return row.flags == "true"


VERDICTS = ("verdict_chsh_violated", "verdict_rho_min_positive", "verdict_ci_rho_positive")


class TestClassification:
    def test_flat_box_is_independent(self):
        assert classify_box(make_isotropic(0.5)) is BoxClass.INDEPENDENT
        rows = nsbox_rows({"isotropic_p": 0.5})
        assert [verdict(rows, name) for name in VERDICTS] == [False, False, False]

    def test_local_correlated(self):
        assert classify_box(make_isotropic(0.6)) is BoxClass.LOCAL_CORRELATED
        rows = nsbox_rows({"isotropic_p": 0.6})
        # (2p-1)^2 > 0 away from p = 0.5
        assert [verdict(rows, name) for name in VERDICTS] == [False, False, True]

    def test_quantum_region(self):
        assert classify_box(make_isotropic(0.8)) is BoxClass.QUANTUM_REGION
        rows = nsbox_rows({"isotropic_p": 0.8})
        assert [verdict(rows, name) for name in VERDICTS] == [True, True, True]

    def test_super_quantum(self):
        assert classify_box(make_isotropic(0.9)) is BoxClass.SUPER_QUANTUM
        assert verdict(nsbox_rows({"isotropic_p": 0.9}), "verdict_chsh_violated")

    @given(correlator_values, correlator_values, correlator_values, correlator_values)
    # On both thresholds: chsh_s 2.0 and both rho_min[b=k] 0.0, neither flagged;
    # both ci_product 0.25.
    @example(0.5, 0.5, 0.5, -0.5)
    def test_flags_match_their_definitions(self, e00, e01, e10, e11):
        box = from_correlators(e00, e01, e10, e11)
        rows = nsbox_rows({"correlators": [e00, e01, e10, e11]})
        # Each verdict row equals its definition on the box.
        assert verdict(rows, "verdict_chsh_violated") == (chsh_s_e(box) > 2.0)
        assert verdict(rows, "verdict_rho_min_positive") == (
            rho_min(box, 0) > 0.0 or rho_min(box, 1) > 0.0
        )
        assert verdict(rows, "verdict_ci_rho_positive") == (
            _target_pair(box, 0)[1] > 0.0 or _target_pair(box, 1)[1] > 0.0
        )
        # Each verdict agrees with the flags of the rows that show its values.
        assert verdict(rows, "verdict_chsh_violated") == (
            "chsh_violated" in rows["chsh_s"].flags.split(";")
        )
        assert verdict(rows, "verdict_rho_min_positive") == any(
            rows[f"rho_min[b={b}]"].flags == "rho_min_positive" for b in (0, 1)
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
        assert np.array_equal(table_of(back), table_of(box))

    def test_decimal_entries_survive(self):
        entries = to_labeled_dict(make_isotropic(0.5))
        entries = dict(entries)
        entries["P(0,0|0,0)"] = 0.123456789012  # 12 significant digits
        entries["P(1,1|0,0)"] = 0.376543210988
        back = from_labeled_dict(entries)
        assert back.prob(0, 0, 0, 0) == 0.123456789012
        assert back.prob(1, 1, 0, 0) == 0.376543210988

    def test_missing_and_unknown_keys_all_reported(self):
        entries = to_labeled_dict(make_isotropic(1.0))
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
        entries = to_labeled_dict(make_isotropic(1.0))
        entries["P(0,0|0,0)"] = "0.5"
        with pytest.raises(ValidationError):
            from_labeled_dict(entries)
        entries["P(0,0|0,0)"] = True
        with pytest.raises(ValidationError):
            from_labeled_dict(entries)
