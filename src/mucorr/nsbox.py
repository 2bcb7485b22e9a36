"""Generalized no-signalling boxes over binary inputs and outputs.

A box is a conditional probability table P(A, B | a, b) with A, B, a, b
all in {0, 1}. The boxes of interest have uniformly random local outputs
and marginals independent of the remote input (no-signalling). The target
parity for inputs (a, b) is the product ab: the winning event is
A xor B = ab.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

CONSTRAINT_TOL = 1e-9

_KEY_RE = re.compile(r"^P\(([01]),([01])\|([01]),([01])\)$")


@dataclass(frozen=True, eq=False)
class NsBox:
    """Conditional probability table, indexed as table[A, B, a, b].

    The container itself accepts any 16 numbers so that invalid tables
    can be constructed and then inspected; use
    :func:`validate_no_signalling` to check the box constraints.
    """

    table: np.ndarray

    def __post_init__(self):
        arr = np.array(self.table, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise DomainError(
                f"box table must have shape (2, 2, 2, 2), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    def prob(self, a_out: int, b_out: int, a_in: int, b_in: int) -> float:
        """P(A=a_out, B=b_out | a=a_in, b=b_in)."""
        return float(self.table[a_out, b_out, a_in, b_in])

    def joint(self, a_in: int, b_in: int) -> np.ndarray:
        """The 2x2 output distribution for one input pair."""
        return np.array(self.table[:, :, a_in, b_in])


def make_isotropic(p: float) -> NsBox:
    """Box in which the target parity holds with the same probability p
    for all four input pairs, outcomes split evenly within each parity.

    p = 1 is the PR box, p = 0.5 the fully uncorrelated box, and
    p = (2 + sqrt(2))/4 the quantum maximum.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"isotropic parameter must lie in [0, 1], got {p!r}")
    table = np.empty((2, 2, 2, 2))
    for a_in in (0, 1):
        for b_in in (0, 1):
            hit = p / 2.0
            miss = (1.0 - p) / 2.0
            target = a_in * b_in
            for a_out in (0, 1):
                for b_out in (0, 1):
                    parity = a_out ^ b_out
                    table[a_out, b_out, a_in, b_in] = hit if parity == target else miss
    return NsBox(table)


def pr_box() -> NsBox:
    """The extremal no-signalling box: target parity always satisfied."""
    return make_isotropic(1.0)


def from_correlators(e00: float, e01: float, e10: float, e11: float) -> NsBox:
    """Box with uniform local outputs and the given per-setting correlators
    E_ab = P(A=B|a,b) - P(A!=B|a,b).

    Every uniform-marginal no-signalling box has this form, so this is
    the general constructor for valid boxes.
    """
    table = np.empty((2, 2, 2, 2))
    for (a_in, b_in), e in zip(
        ((0, 0), (0, 1), (1, 0), (1, 1)), (e00, e01, e10, e11)
    ):
        if not -1.0 <= e <= 1.0:
            raise DomainError(f"correlator must lie in [-1, 1], got {e!r}")
        same = (1.0 + e) / 4.0
        diff = (1.0 - e) / 4.0
        table[0, 0, a_in, b_in] = table[1, 1, a_in, b_in] = same
        table[0, 1, a_in, b_in] = table[1, 0, a_in, b_in] = diff
    return NsBox(table)


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated box constraint with its absolute residual."""

    kind: str
    where: str
    residual: float


def validate_no_signalling(box: NsBox) -> list[ConstraintViolation]:
    """Check normalization, no-signalling, and uniform local marginals.

    Returns every violated constraint (tolerance 1e-9 absolute); an empty
    list means the box is valid. Violations are data, not errors.
    """
    t = box.table
    found: list[ConstraintViolation] = []

    for a_out in (0, 1):
        for b_out in (0, 1):
            for a_in in (0, 1):
                for b_in in (0, 1):
                    v = t[a_out, b_out, a_in, b_in]
                    excess = max(0.0 - v, v - 1.0)
                    if excess > CONSTRAINT_TOL:
                        found.append(ConstraintViolation(
                            "entry-range",
                            f"P({a_out},{b_out}|{a_in},{b_in})",
                            float(excess),
                        ))

    for a_in in (0, 1):
        for b_in in (0, 1):
            residual = abs(float(t[:, :, a_in, b_in].sum()) - 1.0)
            if residual > CONSTRAINT_TOL:
                found.append(ConstraintViolation(
                    "normalization", f"sum P(.,.|{a_in},{b_in})", residual,
                ))

    # Party 1: the A marginal may not depend on the remote input b.
    for a_out in (0, 1):
        for a_in in (0, 1):
            m0 = float(t[a_out, :, a_in, 0].sum())
            m1 = float(t[a_out, :, a_in, 1].sum())
            if abs(m0 - m1) > CONSTRAINT_TOL:
                found.append(ConstraintViolation(
                    "no-signalling",
                    f"P(A={a_out}|a={a_in}) across b",
                    abs(m0 - m1),
                ))
    # Party 2: the B marginal may not depend on the remote input a.
    for b_out in (0, 1):
        for b_in in (0, 1):
            m0 = float(t[:, b_out, 0, b_in].sum())
            m1 = float(t[:, b_out, 1, b_in].sum())
            if abs(m0 - m1) > CONSTRAINT_TOL:
                found.append(ConstraintViolation(
                    "no-signalling",
                    f"P(B={b_out}|b={b_in}) across a",
                    abs(m0 - m1),
                ))

    for a_in in (0, 1):
        for b_in in (0, 1):
            for a_out in (0, 1):
                m = float(t[a_out, :, a_in, b_in].sum())
                if abs(m - 0.5) > CONSTRAINT_TOL:
                    found.append(ConstraintViolation(
                        "uniform-marginal",
                        f"P(A={a_out}|a={a_in},b={b_in})",
                        abs(m - 0.5),
                    ))
            for b_out in (0, 1):
                m = float(t[:, b_out, a_in, b_in].sum())
                if abs(m - 0.5) > CONSTRAINT_TOL:
                    found.append(ConstraintViolation(
                        "uniform-marginal",
                        f"P(B={b_out}|a={a_in},b={b_in})",
                        abs(m - 0.5),
                    ))

    return found


def target_probability(box: NsBox, a_in: int, b_in: int) -> float:
    """P(A xor B = ab | a, b) for one input pair."""
    t = box.table
    target = a_in * b_in
    if target == 0:
        return float(t[0, 0, a_in, b_in] + t[1, 1, a_in, b_in])
    return float(t[0, 1, a_in, b_in] + t[1, 0, a_in, b_in])


def correlator(box: NsBox, a_in: int, b_in: int) -> float:
    """E_ab = P(A=B|a,b) - P(A!=B|a,b)."""
    t = box.table
    same = float(t[0, 0, a_in, b_in] + t[1, 1, a_in, b_in])
    diff = float(t[0, 1, a_in, b_in] + t[1, 0, a_in, b_in])
    return same - diff


def chsh_s_ns(box: NsBox) -> float:
    """Parity-form CHSH value: the sum over input pairs of the probability
    that A xor B = ab. Ranges over [0, 4]; 3 is the classical bound."""
    return abs(sum(
        target_probability(box, a_in, b_in)
        for a_in in (0, 1) for b_in in (0, 1)
    ))


def chsh_e_form(box: NsBox) -> float:
    """Signed correlator combination E00 + E01 + E10 - E11.

    For the isotropic family this equals 8p - 4, so exceeding the
    classical bound 2 is equivalent to p > 0.75. The absolute value
    (:func:`chsh_s_e`) also exceeds 2 for p < 0.25, where the box wins
    the complementary parity game instead.
    """
    return (
        correlator(box, 0, 0)
        + correlator(box, 0, 1)
        + correlator(box, 1, 0)
        - correlator(box, 1, 1)
    )


def chsh_s_e(box: NsBox) -> float:
    """Correlator-form CHSH value |E00 + E01 + E10 - E11|.

    Classical bound 2, quantum bound 2*sqrt(2), maximum 4. For the
    isotropic family this equals |8p - 4|.
    """
    return abs(chsh_e_form(box))


def rho_min_ns(box: NsBox, b_setting: int) -> float:
    """Minimum correlation between the measured and unmeasured A outcomes
    when the remote input was b_setting.

    Overlap bound on the two target-match rates, floored at -1. For the
    input pair (1, 1) the match target flips to A xor B = 1, which is the
    box's own winning correlation there.
    """
    if b_setting not in (0, 1):
        raise DomainError(f"b_setting must be 0 or 1, got {b_setting!r}")
    p0 = target_probability(box, 0, b_setting)
    p1 = target_probability(box, 1, b_setting)
    return max(-1.0, 2.0 * (p0 + p1) - 3.0)


def rho_ci_ns(p: float) -> float:
    """CI correlation between measured and unmeasured A outcomes for an
    isotropic box: (2p - 1)^2. Zero only at p = 0.5."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"isotropic parameter must lie in [0, 1], got {p!r}")
    return (2.0 * p - 1.0) ** 2


def ci_product(box: NsBox, b_setting: int) -> float:
    """General-box CI product for fixed remote input: the product of the
    two target-match correlations [2P(A xor B = ab|a,b) - 1] over a.

    Reduces to (2p - 1)^2 on the isotropic family.
    """
    if b_setting not in (0, 1):
        raise DomainError(f"b_setting must be 0 or 1, got {b_setting!r}")
    r0 = 2.0 * target_probability(box, 0, b_setting) - 1.0
    r1 = 2.0 * target_probability(box, 1, b_setting) - 1.0
    return r0 * r1


def isotropic_parameter(box: NsBox, tol: float = CONSTRAINT_TOL) -> float | None:
    """The common target probability p if the box is isotropic, else None."""
    probs = [
        target_probability(box, a_in, b_in)
        for a_in in (0, 1) for b_in in (0, 1)
    ]
    p = math.fsum(probs) / 4.0
    if all(abs(q - p) <= tol for q in probs):
        return p
    return None


class BoxClass(enum.Enum):
    """Correlation regime of a box, by its correlator-form CHSH value."""

    INDEPENDENT = "independent"
    LOCAL_CORRELATED = "local_correlated"
    QUANTUM_REGION = "quantum_region"
    SUPER_QUANTUM = "super_quantum"


@dataclass(frozen=True)
class BoxClassification:
    """Regime plus the three nonlocality-signature flags, each computed
    independently of the regime."""

    box_class: BoxClass
    chsh_violated: bool
    rho_min_positive_some_b: bool
    ci_rho_positive: bool


def classify_box(box: NsBox) -> BoxClassification:
    """Classify a valid box and report its nonlocality signatures.

    Independent means all four correlators vanish (within 1e-9);
    otherwise the correlator-form CHSH value against the bounds 2 and
    2*sqrt(2) decides, with boundaries belonging to the lower class.
    """
    correlators = [
        correlator(box, a_in, b_in) for a_in in (0, 1) for b_in in (0, 1)
    ]
    s_e = chsh_s_e(box)
    if all(abs(e) <= CONSTRAINT_TOL for e in correlators):
        box_class = BoxClass.INDEPENDENT
    elif s_e <= 2.0:
        box_class = BoxClass.LOCAL_CORRELATED
    elif s_e <= 2.0 * math.sqrt(2.0):
        box_class = BoxClass.QUANTUM_REGION
    else:
        box_class = BoxClass.SUPER_QUANTUM
    return BoxClassification(
        box_class=box_class,
        chsh_violated=s_e > 2.0,
        rho_min_positive_some_b=(
            rho_min_ns(box, 0) > 0.0 or rho_min_ns(box, 1) > 0.0
        ),
        ci_rho_positive=(
            ci_product(box, 0) > 0.0 or ci_product(box, 1) > 0.0
        ),
    )


def to_labeled_dict(box: NsBox) -> dict[str, float]:
    """Flat wire format: 16 entries keyed "P(A,B|a,b)"."""
    out: dict[str, float] = {}
    for a_in in (0, 1):
        for b_in in (0, 1):
            for a_out in (0, 1):
                for b_out in (0, 1):
                    key = f"P({a_out},{b_out}|{a_in},{b_in})"
                    out[key] = box.prob(a_out, b_out, a_in, b_in)
    return out


def from_labeled_dict(entries: dict[str, float]) -> NsBox:
    """Parse the flat wire format back into a box.

    Requires exactly the 16 keys "P(A,B|a,b)" with binary indices;
    reports every missing, unknown, non-numeric, or non-finite entry.
    """
    table = np.zeros((2, 2, 2, 2))
    problems: list[str] = []
    for key, value in entries.items():
        match = _KEY_RE.match(key)
        if match is None:
            problems.append(f"unrecognized box entry key {key!r}")
            continue
        a_out, b_out, a_in, b_in = (int(g) for g in match.groups())
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            problems.append(
                f"box entry {key!r} must be a finite number, got {value!r}"
            )
            continue
        table[a_out, b_out, a_in, b_in] = float(value)
    for index in np.ndindex(2, 2, 2, 2):
        key = "P({},{}|{},{})".format(*index)
        if key not in entries:
            problems.append(f"missing box entry {key}")
    if problems:
        raise ValidationError(problems)
    return NsBox(table)
