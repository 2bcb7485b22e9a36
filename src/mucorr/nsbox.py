"""Generalized no-signalling boxes over binary inputs and outputs.

A box is a conditional probability table P(A, B | a, b) with A, B, a, b
all in {0, 1}. The boxes of interest have uniformly random local outputs
and marginals independent of the remote input (no-signalling). The target
parity for inputs (a, b) is the product ab: the winning event is
A xor B = ab. Every box quantity reads two-cell sums of the table over
(A, B). A box holds its 16 entries as Python floats and computes with
plain arithmetic.
"""
from __future__ import annotations

import enum
import itertools
import math
import numbers
import reprlib
from typing import NamedTuple

from .counterfactual import _pair
from .errors import DomainError, ValidationError, _finite_float
from .spin import CLASSICAL_BOUND, TSIRELSON_BOUND

CONSTRAINT_TOL = 1e-9

_BITS = (0, 1)
#: (a, b) and the other pairs of bits, in index order.
_PAIRS = tuple(itertools.product(_BITS, repeat=2))
#: The cells (A, B, a, b) in table order.
_CELLS = tuple(itertools.product(_BITS, repeat=4))
#: Whether each cell hits the target parity, A xor B = ab.
_WIN = [A ^ B == a & b for A, B, a, b in _CELLS]
#: (party, output, a, b) of each uniform-marginal constraint, in index order.
_UNIFORM = [(party, out, a, b) for a, b in _PAIRS for party in "AB" for out in _BITS]
#: The wire-format keys "P(A,B|a,b)" in table order.
_TABLE_KEYS = ["P({},{}|{},{})".format(*cell) for cell in _CELLS]
#: Each wire-format key's index in table order.
_KEY_INDEX = {key: index for index, key in enumerate(_TABLE_KEYS)}


class NsBox:
    """Conditional probability table, indexed as table[A, B, a, b].

    The container itself accepts any 16 numbers so that invalid tables
    can be constructed and then inspected; use
    :func:`validate_no_signalling` to check the box constraints. Each box
    also holds its (2, 2) target rates `_win[a][b]` and correlators
    `_corr[a][b]` as tuples.
    """

    __slots__ = ("_t", "_win", "_corr")

    def __init__(self, table):
        try:
            self._t = _nest(_cells(table))
        except (TypeError, ValueError):
            raise DomainError(
                "box table must be 16 numbers in shape (2, 2, 2, 2), "
                f"got {reprlib.repr(table)}"
            ) from None
        self._win, self._corr = _rates(self._t)

    def __repr__(self) -> str:
        return f"NsBox({self._t!r})"

    def prob(self, a_out: int, b_out: int, a_in: int, b_in: int) -> float:
        """P(A=a_out, B=b_out | a=a_in, b=b_in)."""
        return self._t[a_out][b_out][a_in][b_in]


def _cells(table) -> list[float]:
    """The 16 real numbers of four levels of nested pairs, in table order
    as floats; TypeError or ValueError if the table is not that."""
    cells = [table]
    for _ in range(4):
        if set(map(len, cells)) != {2}:
            raise ValueError(table)
        cells = [item for pair in cells for item in pair]
    if set(map(type, cells)) != {float} and not all(
        isinstance(x, numbers.Real) for x in cells
    ):
        raise TypeError(table)
    return list(map(float, cells))


def _nest(entries: list) -> tuple:
    """16 entries in table order as nested pairs t[A][B][a][b]."""
    for _ in range(4):
        entries = list(zip(entries[::2], entries[1::2]))
    return entries[0]


def _rates(t) -> tuple[tuple, tuple]:
    """Target rates win[a][b] and correlators corr[a][b] of the table
    t[A][B][a][b], each from sums of two cells."""
    (t00, t01), (t10, t11) = t
    same = [[x + y for x, y in zip(*rows)] for rows in zip(t00, t11)]  # P(A=B|a,b)
    differ = [[x + y for x, y in zip(*rows)] for rows in zip(t01, t10)]
    # The target parity for a = b = 1 is A != B.
    win = ((same[0][0], same[0][1]), (same[1][0], differ[1][1]))
    corr = tuple(tuple(s - d for s, d in zip(*rows)) for rows in zip(same, differ))
    return win, corr


def make_isotropic(p: float) -> NsBox:
    """Box in which the target parity holds with the same probability p
    for all four input pairs, outcomes split evenly within each parity.

    p = 1 is the PR box, p = 0.5 the fully uncorrelated box, and
    p = (2 + sqrt(2))/4 the quantum maximum.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"isotropic parameter must lie in [0, 1], got {p!r}")
    hit, miss = p / 2.0, (1.0 - p) / 2.0
    return NsBox(_nest([hit if win else miss for win in _WIN]))


def isotropic_sweep(p) -> tuple[list[float], list[float], list[float], list[float]]:
    """chsh_s_ns, chsh_s_e and the floor of _target_pair(., 0) of
    make_isotropic(q), and rho_ci_ns(q), for every q of a sequence p in
    [0, 1], bit for bit, as four lists."""
    s_ns, s_e, rho_min, rho_ci = [], [], [], []
    for q in p:
        if not 0.0 <= q <= 1.0:
            raise DomainError("isotropic parameters must lie in [0, 1]")
        # Every target rate is the two-cell sum hit + hit. Each correlator is
        # that less miss + miss, the other way round for a = b = 1.
        hit, miss = q / 2.0, (1.0 - q) / 2.0
        win, lose = hit + hit, miss + miss
        e = win - lose
        s_ns.append(abs(win + win + win + win))
        s_e.append(abs(e + e + e - (lose - win)))
        bias = 2.0 * q - 1.0
        floor, product = _pair(win, win, bias, bias)
        rho_min.append(floor)
        rho_ci.append(product)
    return s_ns, s_e, rho_min, rho_ci


def from_correlators(e00: float, e01: float, e10: float, e11: float) -> NsBox:
    """Box with uniform local outputs and the given per-setting correlators
    E_ab = P(A=B|a,b) - P(A!=B|a,b).

    Every uniform-marginal no-signalling box has this form, so this is
    the general constructor for valid boxes.
    """
    for e in (e00, e01, e10, e11):
        if not -1.0 <= e <= 1.0:
            raise DomainError(f"correlator must lie in [-1, 1], got {e!r}")
    corr = ((float(e00), float(e01)), (float(e10), float(e11)))
    return NsBox(_nest([
        (1.0 + corr[a][b]) / 4.0 if A == B else (1.0 - corr[a][b]) / 4.0
        for A, B, a, b in _CELLS
    ]))


class ConstraintViolation(NamedTuple):
    """One violated box constraint with its absolute residual."""

    kind: str
    where: str
    residual: float


def _violations(kind: str, where, indices, residuals) -> list[ConstraintViolation]:
    """A violation for each residual above the tolerance, in order;
    where(*index) names the constraint at the index paired with it."""
    return [
        ConstraintViolation(kind, where(*index), residual)
        for index, residual in zip(indices, residuals) if residual > CONSTRAINT_TOL
    ]


def validate_no_signalling(box: NsBox) -> list[ConstraintViolation]:
    """Check normalization, no-signalling, and uniform local marginals.

    Returns every violated constraint (tolerance 1e-9 absolute); an empty
    list means the box is valid. Violations are data, not errors.
    """
    t = box._t
    entries = [x for t_a in t for t_ab in t_a for row in t_ab for x in row]
    # marginal_a[A][a][b] and marginal_b[B][a][b].
    marginal_a = [[[x + y for x, y in zip(*rows)] for rows in zip(*t_a)] for t_a in t]
    marginal_b = [[[x + y for x, y in zip(*rows)] for rows in zip(*t_b)] for t_b in zip(*t)]
    (t00, t01), (t10, t11) = t
    return (
        _violations("entry-range", "P({},{}|{},{})".format, _CELLS,
                    [max(-x, x - 1.0) for x in entries])
        + _violations("normalization", "sum P(.,.|{},{})".format, _PAIRS, [
            abs(t00[a][b] + t01[a][b] + t10[a][b] + t11[a][b] - 1.0) for a, b in _PAIRS
        ])
        # Party 1: the A marginal may not depend on the remote input b.
        + _violations("no-signalling", "P(A={}|a={}) across b".format, _PAIRS, [
            abs(marginal_a[A][a][0] - marginal_a[A][a][1]) for A, a in _PAIRS
        ])
        # Party 2: the B marginal may not depend on the remote input a.
        + _violations("no-signalling", "P(B={}|b={}) across a".format, _PAIRS, [
            abs(marginal_b[B][0][b] - marginal_b[B][1][b]) for B, b in _PAIRS
        ])
        + _violations("uniform-marginal", "P({}={}|a={},b={})".format, _UNIFORM, [
            abs(marginal[out][a][b] - 0.5)
            for a, b in _PAIRS for marginal in (marginal_a, marginal_b) for out in _BITS
        ])
    )


def target_probability(box: NsBox, a_in: int, b_in: int) -> float:
    """P(A xor B = ab | a, b) for one input pair."""
    return box._win[a_in][b_in]


def correlator(box: NsBox, a_in: int, b_in: int) -> float:
    """E_ab = P(A=B|a,b) - P(A!=B|a,b)."""
    return box._corr[a_in][b_in]


def chsh_s_ns(box: NsBox) -> float:
    """Parity-form CHSH value: the sum over input pairs of the probability
    that A xor B = ab. Ranges over [0, 4]; 3 is the classical bound."""
    (w00, w01), (w10, w11) = box._win
    return abs(w00 + w01 + w10 + w11)


def chsh_s_e(box: NsBox) -> float:
    """Correlator-form CHSH value |E00 + E01 + E10 - E11|.

    Classical bound 2, quantum bound 2*sqrt(2), maximum 4. For the
    isotropic family the signed sum is 8p - 4, so it exceeds the classical
    bound 2 exactly when p > 0.75; its absolute value also exceeds 2 for
    p < 0.25, where the box wins the complementary parity game instead.
    """
    (e00, e01), (e10, e11) = box._corr
    return abs(e00 + e01 + e10 - e11)


def _target_pair(box: NsBox, b_setting: int) -> tuple[float, float]:
    """The measured/unmeasured floor and CI product of the A outcomes for
    the remote input b_setting: :func:`counterfactual._pair` of the box's
    two target rates w0, w1 at that input, and of their correlations 2w - 1.

    The floor is the overlap bound on the two target-match rates, floored
    at -1. At b = 1 the target for a = 1 is A xor B = 1, so that floor
    bounds the correlation of A0 with the complement of A1.
    """
    if b_setting not in (0, 1):
        raise DomainError(f"b_setting must be 0 or 1, got {b_setting!r}")
    w0, w1 = (row[b_setting] for row in box._win)
    return _pair(w0, w1, 2.0 * w0 - 1.0, 2.0 * w1 - 1.0)


def rho_ci_ns(p: float) -> float:
    """CI correlation between measured and unmeasured A outcomes for an
    isotropic box: (2p - 1)^2. Zero only at p = 0.5."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"isotropic parameter must lie in [0, 1], got {p!r}")
    bias = 2.0 * p - 1.0
    return bias * bias


def isotropic_parameter(box: NsBox) -> float | None:
    """The common target probability p, clamped into [0, 1], if the box is
    isotropic (every target rate within CONSTRAINT_TOL of it), else None."""
    probs = [*box._win[0], *box._win[1]]
    try:
        p = math.fsum(probs) / 4.0
    except (ValueError, OverflowError):  # inf + -inf, or a sum past the float range
        return None
    if all(abs(q - p) <= CONSTRAINT_TOL for q in probs):
        return min(max(p, 0.0), 1.0)
    return None


class BoxClass(enum.Enum):
    """Correlation regime of a CHSH value, and of a box by its
    correlator-form CHSH value."""

    INDEPENDENT = "independent"
    LOCAL_CORRELATED = "local_correlated"
    QUANTUM_REGION = "quantum_region"
    SUPER_QUANTUM = "super_quantum"


def chsh_class(s: float) -> BoxClass:
    """Regime of a CHSH value S >= 0, spin quad or box: against the bounds
    2 and 2*sqrt(2), exact on the computed double, boundaries belonging to
    the lower class."""
    if s <= CLASSICAL_BOUND:
        return BoxClass.LOCAL_CORRELATED
    if s <= TSIRELSON_BOUND:
        return BoxClass.QUANTUM_REGION
    return BoxClass.SUPER_QUANTUM


def classify_box(box: NsBox) -> BoxClass:
    """Regime of a valid box: independent if all four correlators vanish
    (within 1e-9), else :func:`chsh_class` of its correlator-form CHSH value."""
    if all(abs(e) <= CONSTRAINT_TOL for row in box._corr for e in row):
        return BoxClass.INDEPENDENT
    return chsh_class(chsh_s_e(box))


def from_labeled_dict(entries: dict[str, float]) -> NsBox:
    """Parse the flat wire format back into a box.

    Requires exactly the 16 keys "P(A,B|a,b)" with binary indices;
    reports every missing, unknown, non-numeric, or non-finite entry. One
    unknown key in place of one missing key is one fault, a mistyped key.
    """
    table = [0.0] * 16
    problems: list[str] = []
    missing = [key for key in _TABLE_KEYS if key not in entries]
    unknown = [key for key in entries if key not in _KEY_INDEX]
    typo = f" (expected {missing[0]})" if len(unknown) == len(missing) == 1 else ""
    for key, value in entries.items():
        cell = _KEY_INDEX.get(key)
        if cell is None:
            problems.append(f"unrecognized box entry key {key!r}{typo}")
            continue
        number = _finite_float(value)
        if number is None:
            problems.append(
                f"box entry {key!r} must be a finite number, got {value!r}"
            )
            continue
        table[cell] = number
    if not typo:
        problems.extend(f"missing box entry {key}" for key in missing)
    if problems:
        raise ValidationError(problems)
    return NsBox(_nest(table))

