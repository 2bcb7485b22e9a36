"""Coplanar spin-measurement geometry and two-party correlations.

All measurement directions live in a single fixed plane, so a direction is
one angle. Correlations follow the sign convention in which a pair measured
along directions separated by an angle d correlates as cos(d); the matching
probability is then (1 + cos d) / 2.
"""
from __future__ import annotations

import math
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

#: Classical CHSH bound.
CLASSICAL_BOUND = 2.0
#: Quantum-mechanical CHSH maximum, 2*sqrt(2).
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


class _Angle(NamedTuple):
    angle: float


class Direction(_Angle):
    """A unit vector in the measurement plane, stored as an angle in radians.

    Angles are canonicalized to [0, 2*pi). Use :meth:`from_degrees` at
    external boundaries; internal arithmetic stays in radians.
    """

    __slots__ = ()

    def __new__(cls, angle: float) -> Direction:
        if not math.isfinite(angle):
            raise ValueError(f"direction angle must be finite, got {angle!r}")
        reduced = angle % TWO_PI
        # a % can round up to the modulus itself for tiny negative inputs
        if reduced >= TWO_PI:
            reduced = 0.0
        return tuple.__new__(cls, (reduced,))

    @classmethod
    def _make(cls, iterable) -> Direction:
        # _replace builds through _make, so it canonicalizes too.
        return cls(*iterable)

    @classmethod
    def from_degrees(cls, degrees: float) -> Direction:
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.angle)


def correlation(alpha: Direction, beta: Direction) -> float:
    """Two-party correlation E(alpha, beta) for a shared pair: the dot product
    of the two coplanar unit vectors, cos of the angle between. That is the
    correlation under the convention that parallel settings correlate +1."""
    return math.cos(alpha.angle - beta.angle)

