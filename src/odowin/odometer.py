"""Completion points at finite precision: cylinders, metric, measure, arithmetic.

A point of the profinite completion known to precision n is one coset of Γ_n,
held as its rank in D_n, whose level-m prefix is ``rank % size(m)``.  The canonical
embedding of g is the rank of its level-n head, defined for every g (heads always
exist, even when g has no finite expansion).  All operations declare the precision
of their output and never invent digits; digits are spelled only where printed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expansion import DomainSequence, check_ranks
from .groups import Elem, PrecisionError, SubgroupChain


@dataclass(frozen=True)
class OdometerPoint:
    """A point by its rank in D_precision; ``rational_for`` marks embedded group elements."""

    rank: int
    precision: int
    rational_for: Elem | None = None


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
    return OdometerPoint(ds.rank_of(g, precision), precision, rational_for=g)


def sample_point(ds: DomainSequence, rng_seed: int, n: int) -> OdometerPoint:
    """Haar-distributed level-n truncation: each digit uniform on its alphabet."""
    if n > ds.levels:
        raise PrecisionError(f"only {ds.levels} digit levels are built")
    rng = random.Random(rng_seed)
    rank = sum(rng.randrange(len(ds.alphabet_rows(j))) * ds.size(j - 1) for j in range(1, n + 1))
    return OdometerPoint(rank, n)


def rank_of_point(ds: DomainSequence, x: OdometerPoint, n: int) -> int:
    """Domain rank of the level-n cylinder around x; a rank outside its level is refused."""
    if n > x.precision:
        raise PrecisionError(f"point has precision {x.precision}, need {n}")
    check_ranks(ds.size(x.precision), x.precision, x.rank)
    return x.rank % ds.size(n)


def head_of_point(ds: DomainSequence, x: OdometerPoint, n: int) -> Elem:
    """The element of D_n at the point's level-n rank."""
    return ds.element_of_rank(rank_of_point(ds, x, n), n)


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
    diff = rank_of_point(ds, x, shared) - rank_of_point(ds, y, shared)
    for j in range(1, shared + 1):
        if diff % ds.size(j):  # the level-j prefixes differ
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
    """The product to level n, via the carry recursion.

    Exact: the level-n rank of a product depends only on the level-n ranks of
    the factors.
    """
    ranks = np.array([rank_of_point(ds, x, n), rank_of_point(ds, y, n)])
    rank, _state = ds.automaton(n).batch_product(ranks[:1], ranks[1:], n)
    rat = None
    if x.rational_for is not None and y.rational_for is not None:
        rat = ds.group.mul(x.rational_for, y.rational_for)
    return OdometerPoint(int(rank[0]), n, rational_for=rat)


def odo_inv(ds: DomainSequence, x: OdometerPoint, n: int) -> OdometerPoint:
    """The inverse to level n.

    The level-n head of the inverse is the head of the inverse of the level-n
    head, so the rank is that of the inverse coset.
    """
    g = ds.group
    rank = ds.rank_of(g.inv(head_of_point(ds, x, n)), n)
    rat = None if x.rational_for is None else g.inv(x.rational_for)
    return OdometerPoint(rank, n, rational_for=rat)
