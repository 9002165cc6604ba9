"""Completion points at finite precision: cylinders, metric, measure, arithmetic.

A point of the profinite completion is represented by its digit string to some
finite precision; the canonical embedding of a group element g is the digit
string of its level-n head, which is defined for every g (heads always exist,
even when g itself has no finite expansion).  All operations declare the
precision of their output and never invent digits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .expansion import DomainSequence, carry_mul, reconstruct
from .groups import Elem, PrecisionError, SubgroupChain


@dataclass(frozen=True)
class OdometerPoint:
    """Truncated digit string; ``rational_for`` marks embedded group elements."""

    digits: tuple[Elem, ...]
    rational_for: Elem | None = None

    @property
    def precision(self) -> int:
        return len(self.digits)


@dataclass(frozen=True)
class Cylinder:
    """All completion points whose level-``level`` head equals ``base``."""

    level: int
    base: Elem


@dataclass(frozen=True)
class MetricResult:
    """Distance outcome: separated at a level, known equal, or undecidable.

    ``kind`` is one of ``"separated"`` (value = 2^-level exactly),
    ``"equal"`` (both points are known identical; value 0), or
    ``"indistinguishable"`` (digits agree through the compared precision;
    value 0 is only a lower bound and ``level`` records that precision).
    """

    kind: str
    value: Fraction
    level: int | None = None


def embed(ds: DomainSequence, g: Elem, precision: int) -> OdometerPoint:
    """Canonical embedding of g, truncated to the given digit precision."""
    if precision > ds.levels:
        raise PrecisionError(f"only {ds.levels} digit levels are built")
    return OdometerPoint(ds.digit_prefix(g, precision), rational_for=g)


def sample_point(ds: DomainSequence, rng_seed: int, n: int) -> OdometerPoint:
    """Haar-distributed level-n truncation: each digit uniform on its alphabet."""
    if n > ds.levels:
        raise PrecisionError(f"only {ds.levels} digit levels are built")
    rng = random.Random(rng_seed)
    digits = tuple(
        ds.alphabet(j)[rng.randrange(len(ds.alphabet(j)))] for j in range(1, n + 1)
    )
    return OdometerPoint(digits)


def head_of_point(ds: DomainSequence, x: OdometerPoint, n: int) -> Elem:
    """Product of the first n digits; lies in D_n."""
    if n > x.precision:
        raise PrecisionError(f"point has precision {x.precision}, need {n}")
    return reconstruct(ds, x.digits[:n])


def rank_of_point(ds: DomainSequence, x: OdometerPoint, n: int) -> int:
    """Domain rank of the level-n cylinder around x."""
    return ds.rank_of(head_of_point(ds, x, n), n)


def cylinder_of(ds: DomainSequence, x: OdometerPoint, level: int) -> Cylinder:
    return Cylinder(level, head_of_point(ds, x, level))


def haar(chain: SubgroupChain | DomainSequence, c: Cylinder) -> Fraction:
    """Exact invariant measure of a cylinder: 1/[G:Γ_level]."""
    return Fraction(1, chain.index(c.level))


def metric(ds: DomainSequence, x: OdometerPoint, y: OdometerPoint) -> MetricResult:
    """Exact distance 2^-j at the first differing level, else a flagged outcome.

    Embedded points that agree through the compared precision are separated
    using their group elements directly (the chain decides), so rational
    points never yield a silent zero.
    """
    shared = min(x.precision, y.precision)
    for j in range(1, shared + 1):
        if x.digits[j - 1] != y.digits[j - 1]:
            return MetricResult("separated", Fraction(1, 2**j), j)
    if x.rational_for is not None and y.rational_for is not None:
        if x.rational_for == y.rational_for:
            return MetricResult("equal", Fraction(0))
        sep = ds.chain.separation_level(x.rational_for, y.rational_for)
        if sep is not None:
            return MetricResult("separated", Fraction(1, 2**sep), sep)
    return MetricResult("indistinguishable", Fraction(0), shared)


def points_equal(ds: DomainSequence, x: OdometerPoint, y: OdometerPoint) -> bool | None:
    """Three-valued identity: True / False / None (unknown at this precision)."""
    r = metric(ds, x, y)
    if r.kind == "equal":
        return True
    if r.kind == "separated":
        return False
    return None


def odo_mul(ds: DomainSequence, x: OdometerPoint, y: OdometerPoint, n: int) -> OdometerPoint:
    """Digits of the product to level n, via the carry recursion.

    Exact: level-n digits of a product depend only on level-n digits of the
    factors.
    """
    if x.precision < n or y.precision < n:
        raise PrecisionError(
            f"product to level {n} needs both factors at precision >= {n} "
            f"(have {x.precision} and {y.precision})"
        )
    digits, _carry = carry_mul(ds, x.digits, y.digits, n)
    rat = None
    if x.rational_for is not None and y.rational_for is not None:
        rat = ds.group.mul(x.rational_for, y.rational_for)
    return OdometerPoint(digits, rational_for=rat)


def odo_inv(ds: DomainSequence, x: OdometerPoint, n: int) -> OdometerPoint:
    """Digits of the inverse to level n.

    The level-n head of the inverse is the head of the inverse of the level-n
    head, so the digits are read off the representative of the inverse coset.
    """
    if x.precision < n:
        raise PrecisionError(f"point has precision {x.precision}, need {n}")
    g = ds.group
    rep = ds.head(g.inv(head_of_point(ds, x, n)), n)
    rat = None if x.rational_for is None else g.inv(x.rational_for)
    return OdometerPoint(ds.digit_prefix(rep, n), rational_for=rat)
