"""Generalized no-signalling boxes over binary inputs and outputs.

A box is a conditional probability table P(A, B | a, b) with A, B, a, b
all in {0, 1}. The boxes of interest have uniformly random local outputs
and marginals independent of the remote input (no-signalling). The target
parity for inputs (a, b) is the product ab: the winning event is
A xor B = ab. Every box quantity reads two-cell sums of the table over
(A, B), and those sums take a trailing grid axis for a whole isotropic sweep.
"""
from __future__ import annotations

import enum
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, _finite_float

CONSTRAINT_TOL = 1e-9

_KEY_RE = re.compile(r"^P\(([01]),([01])\|([01]),([01])\)$")

_OUT_A, _OUT_B, _IN_A, _IN_B = np.indices((2, 2, 2, 2))
#: Cells of table[A, B, a, b] with A = B.
_SAME = _OUT_A == _OUT_B
#: Cells of table[A, B, a, b] that hit the target parity, A xor B = ab.
_WIN = (_OUT_A ^ _OUT_B) == (_IN_A & _IN_B)
#: The wire-format keys "P(A,B|a,b)" in table order.
_TABLE_KEYS = ["P({},{}|{},{})".format(*i) for i in itertools.product((0, 1), repeat=4)]


@dataclass(frozen=True, eq=False)
class NsBox:
    """Conditional probability table, indexed as table[A, B, a, b].

    The container itself accepts any 16 numbers so that invalid tables
    can be constructed and then inspected; use
    :func:`validate_no_signalling` to check the box constraints. Each box
    also holds read-only (2, 2) target rates `_win[a, b]` and correlators `_corr[a, b]`.
    """

    table: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")  # inf and nan are results here
    def __post_init__(self):
        arr = np.array(self.table, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise DomainError(
                f"box table must have shape (2, 2, 2, 2), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)
        for name, value in zip(("_win", "_corr"), _rates(arr)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def prob(self, a_out: int, b_out: int, a_in: int, b_in: int) -> float:
        """P(A=a_out, B=b_out | a=a_in, b=b_in)."""
        return float(self.table[a_out, b_out, a_in, b_in])

    def joint(self, a_in: int, b_in: int) -> np.ndarray:
        """The 2x2 output distribution for one input pair."""
        return np.array(self.table[:, :, a_in, b_in])


def _rates(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Target rates win[a, b] and correlators corr[a, b] of table[A, B, a, b],
    each from sums of two cells; trailing (grid) axes carry through."""
    same, differ = table[0, 0] + table[1, 1], table[0, 1] + table[1, 0]
    win = same.copy()
    win[1, 1] = differ[1, 1]  # the target parity for a = b = 1 is A != B
    return win, same - differ


def _isotropic_table(p):
    """table[A, B, a, b] of the isotropic box at p, with p's grid axis last."""
    return np.where(_WIN.reshape(_WIN.shape + (1,) * np.ndim(p)), p / 2.0, (1.0 - p) / 2.0)


def make_isotropic(p: float) -> NsBox:
    """Box in which the target parity holds with the same probability p
    for all four input pairs, outcomes split evenly within each parity.

    p = 1 is the PR box, p = 0.5 the fully uncorrelated box, and
    p = (2 + sqrt(2))/4 the quantum maximum.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"isotropic parameter must lie in [0, 1], got {p!r}")
    return NsBox(_isotropic_table(p))


def isotropic_sweep(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chsh_s_ns, chsh_s_e and rho_min_ns(., 0) of make_isotropic(p) for every
    p of a 1-d grid in [0, 1], bit for bit, as three columns."""
    if not ((0.0 <= p) & (p <= 1.0)).all():
        raise DomainError("isotropic parameters must lie in [0, 1]")
    win, corr = _rates(_isotropic_table(p))
    return _parity_sum(win), abs(_e_form(corr)), _rho_min(win, 0)


def pr_box() -> NsBox:
    """The extremal no-signalling box: target parity always satisfied."""
    return make_isotropic(1.0)


def from_correlators(e00: float, e01: float, e10: float, e11: float) -> NsBox:
    """Box with uniform local outputs and the given per-setting correlators
    E_ab = P(A=B|a,b) - P(A!=B|a,b).

    Every uniform-marginal no-signalling box has this form, so this is
    the general constructor for valid boxes.
    """
    for e in (e00, e01, e10, e11):
        if not -1.0 <= e <= 1.0:
            raise DomainError(f"correlator must lie in [-1, 1], got {e!r}")
    corr = np.array([e00, e01, e10, e11], dtype=float).reshape(2, 2)
    return NsBox(np.where(_SAME, (1.0 + corr) / 4.0, (1.0 - corr) / 4.0))


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated box constraint with its absolute residual."""

    kind: str
    where: str
    residual: float


def _violations(kind: str, residual: np.ndarray, where) -> list[ConstraintViolation]:
    """A violation for each residual entry above the tolerance, in index
    order; where(*index) names the constraint."""
    return [
        ConstraintViolation(kind, where(*index), float(residual[index]))
        for index in zip(*np.nonzero(residual > CONSTRAINT_TOL))
    ]


@np.errstate(over="ignore", invalid="ignore")  # inf and nan are results here
def validate_no_signalling(box: NsBox) -> list[ConstraintViolation]:
    """Check normalization, no-signalling, and uniform local marginals.

    Returns every violated constraint (tolerance 1e-9 absolute); an empty
    list means the box is valid. Violations are data, not errors.
    """
    t = box.table
    marginal_a, marginal_b = t.sum(axis=1), t.sum(axis=0)  # [A, a, b], [B, a, b]
    # Indexed [a, b, party, output]: A0, A1, B0, B1 for each input pair.
    uniform = np.abs(np.stack([marginal_a, marginal_b]) - 0.5).transpose(2, 3, 0, 1)
    return (
        _violations("entry-range", np.maximum(-t, t - 1.0), "P({},{}|{},{})".format)
        + _violations("normalization", np.abs(t.sum(axis=(0, 1)) - 1.0),
                      "sum P(.,.|{},{})".format)
        # Party 1: the A marginal may not depend on the remote input b.
        + _violations("no-signalling", np.abs(marginal_a[..., 0] - marginal_a[..., 1]),
                      "P(A={}|a={}) across b".format)
        # Party 2: the B marginal may not depend on the remote input a.
        + _violations("no-signalling", np.abs(marginal_b[:, 0] - marginal_b[:, 1]),
                      "P(B={}|b={}) across a".format)
        + _violations("uniform-marginal", uniform, lambda a_in, b_in, party, out:
                      f"P({'AB'[party]}={out}|a={a_in},b={b_in})")
    )


def target_probability(box: NsBox, a_in: int, b_in: int) -> float:
    """P(A xor B = ab | a, b) for one input pair."""
    return float(box._win[a_in, b_in])


def correlator(box: NsBox, a_in: int, b_in: int) -> float:
    """E_ab = P(A=B|a,b) - P(A!=B|a,b)."""
    return float(box._corr[a_in, b_in])


# win[a][b] and corr[a][b] are nested lists of Python floats or grid columns.
def _parity_sum(win):
    (w00, w01), (w10, w11) = win
    return abs(w00 + w01 + w10 + w11)


def _e_form(corr):
    (e00, e01), (e10, e11) = corr
    return e00 + e01 + e10 - e11


def _rho_min(win, b_setting: int):
    # fmax, like Python's max(-1.0, x), gives -1.0 for a nan x.
    return np.fmax(-1.0, 2.0 * (win[0][b_setting] + win[1][b_setting]) - 3.0)


def chsh_s_ns(box: NsBox) -> float:
    """Parity-form CHSH value: the sum over input pairs of the probability
    that A xor B = ab. Ranges over [0, 4]; 3 is the classical bound."""
    return _parity_sum(box._win.tolist())


def chsh_e_form(box: NsBox) -> float:
    """Signed correlator combination E00 + E01 + E10 - E11.

    For the isotropic family this equals 8p - 4, so exceeding the
    classical bound 2 is equivalent to p > 0.75. The absolute value
    (:func:`chsh_s_e`) also exceeds 2 for p < 0.25, where the box wins
    the complementary parity game instead.
    """
    return _e_form(box._corr.tolist())


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
    return float(_rho_min(box._win.tolist(), b_setting))


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
    r0, r1 = (2.0 * box._win[:, b_setting] - 1.0).tolist()
    return r0 * r1


def isotropic_parameter(box: NsBox, tol: float = CONSTRAINT_TOL) -> float | None:
    """The common target probability p if the box is isotropic, else None."""
    probs = box._win.ravel().tolist()
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
    s_e = chsh_s_e(box)
    if (np.abs(box._corr) <= CONSTRAINT_TOL).all():
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
    return {
        f"P({a_out},{b_out}|{a_in},{b_in})": box.prob(a_out, b_out, a_in, b_in)
        for a_in, b_in, a_out, b_out in itertools.product((0, 1), repeat=4)
    }


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
        number = _finite_float(value)
        if number is None:
            problems.append(
                f"box entry {key!r} must be a finite number, got {value!r}"
            )
            continue
        table[a_out, b_out, a_in, b_in] = number
    problems.extend(
        f"missing box entry {key}" for key in _TABLE_KEYS if key not in entries
    )
    if problems:
        raise ValidationError(problems)
    return NsBox(table)

