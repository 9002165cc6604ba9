"""Exact arithmetic for residually finite groups with congruence subgroup chains.

Three concrete groups are shipped: the integers ``Z``, the integer plane
``Z2``, and the discrete Heisenberg group ``Heisenberg`` (integer triples
(a, b, c) with product (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'), i.e. upper
unitriangular 3x3 integer matrices).  Each comes with nested normal
finite-index subgroups given by congruence conditions modulo a divisibility
chain m_1 | m_2 | ..., together with canonical coset labels and transversals
used by the digit-expansion machinery.

All scalar arithmetic is plain Python integers (arbitrary precision).  The
vectorized helpers operate on int64 arrays and refuse inputs large enough to
overflow instead of wrapping.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Elem = int | tuple[int, ...]

# Guard for vectorized int64 paths: products of two in-range values plus sums
# stay below 2**62.
_VEC_BOUND = 1 << 30
# Number of distinct values an int64 key (rank or packed row) can take.
_KEY_LIMIT = 1 << 63


class ConstructionError(ValueError):
    """A domain, chain, or window construction constraint failed."""


class PrecisionError(ValueError):
    """An odometer operation was asked for more digits than are available."""


@dataclass(frozen=True)
class CosetLabel:
    """Label of a coset g·Γ_n: the canonical residue of g at level n."""

    level: int
    residue: Elem

    def is_identity(self) -> bool:
        if isinstance(self.residue, tuple):
            return all(r == 0 for r in self.residue)
        return self.residue == 0


class GroupContext(ABC):
    """Ambient group: exact multiplication, inverses, and congruence data."""

    name: str
    dim: int
    abelian: bool

    # -- group law ---------------------------------------------------------

    @property
    @abstractmethod
    def identity(self) -> Elem: ...

    @abstractmethod
    def mul(self, a: Elem, b: Elem) -> Elem: ...

    @abstractmethod
    def inv(self, a: Elem) -> Elem: ...

    def conjugate(self, h: Elem, g: Elem) -> Elem:
        """Transform h by g: returns g^{-1}·h·g."""
        return self.mul(self.mul(self.inv(g), h), g)

    # -- canonical order and formatting -------------------------------------

    def sort_key(self, g: Elem):
        return g

    def fmt(self, g: Elem) -> str:
        if isinstance(g, tuple):
            return "(" + ",".join(str(c) for c in g) + ")"
        return str(g)

    def fmt_rows(self, rows: np.ndarray, brackets: str = "()") -> list[str]:
        """``fmt`` of each int64 element row, with ``brackets`` around a tuple's coordinates."""
        if self.dim == 1:
            return list(map(str, rows[:, 0].tolist()))
        template = brackets[0] + ",".join(["%d"] * self.dim) + brackets[1]
        return [template % tuple(r) for r in rows.tolist()]

    # -- congruence structure ------------------------------------------------

    @abstractmethod
    def residue(self, g: Elem, m: int) -> Elem:
        """Canonical residue of g modulo m (componentwise, in [0, m))."""

    def residue_rank(self, g: Elem, m: int) -> int:
        """Flat integer in [0, m**dim) encoding residue(g, m)."""
        r = self.residue(g, m)
        if isinstance(r, tuple):
            rank = 0
            for c in r:
                rank = rank * m + c
            return rank
        return r

    @abstractmethod
    def canonical_transversal(self, m_prev: int, m: int) -> list[Elem]:
        """Ordered coset representatives of ker(mod m) inside ker(mod m_prev).

        Contains the identity first; all entries have components that are
        multiples of m_prev.
        """

    # -- conjugation contexts for carry propagation --------------------------
    # The carry recursion needs s^{-1}·x·s where s ranges over domain heads.
    # Only part of s matters; tracking that part keeps carry state spaces
    # small.  Abelian groups need no context at all.

    def conj_context(self, s: Elem):
        return None if self.abelian else s

    def context_identity(self):
        return None if self.abelian else self.identity

    def context_step(self, ctx, q: Elem):
        """Context of s·q given the context of s."""
        return None if self.abelian else self.mul(ctx, q)

    def conj_in_context(self, ctx, x: Elem) -> Elem:
        """s^{-1}·x·s for any s with the given context."""
        return x if self.abelian else self.conjugate(x, ctx)

    # Row-wise forms: a context array has one row per context, with no
    # columns for abelian groups.

    def vec_conj_in_context(self, ctx: np.ndarray, x: np.ndarray) -> np.ndarray:
        return x

    def vec_context_step(self, ctx: np.ndarray, q: np.ndarray) -> np.ndarray:
        return ctx

    # -- vectorized helpers (int64, overflow-checked) ------------------------

    def to_array(self, elems: Sequence[Elem]) -> np.ndarray:
        arr = np.asarray(
            [e if isinstance(e, tuple) else (e,) for e in elems], dtype=np.int64
        )
        return arr.reshape(len(elems), self.dim)

    def from_array(self, arr: np.ndarray) -> list[Elem]:
        rows = arr.tolist()
        return [r[0] for r in rows] if self.dim == 1 else [tuple(r) for r in rows]

    def check_bounds(self, *arrays: np.ndarray) -> None:
        """Refuse arrays with a value outside (-2**30, 2**30), where row products stay exact."""
        for a in arrays:
            if a.size and (a.max() >= _VEC_BOUND or a.min() <= -_VEC_BOUND):
                raise OverflowError("vectorized path refused: values too large")

    @abstractmethod
    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise products, unchecked: the caller has passed both operands to ``check_bounds``.

        Coordinates are the last axis; the leading axes broadcast.
        """

    @abstractmethod
    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``mul_rows`` after ``check_bounds`` on both operands.

        Each group defines its own, so that ``bench/tracing.py`` times it per class.
        """

    @abstractmethod
    def vec_inv(self, a: np.ndarray) -> np.ndarray: ...

    def vec_residue_rank(self, a: np.ndarray, m: int) -> np.ndarray:
        if m**self.dim >= _KEY_LIMIT:
            raise OverflowError(f"vectorized path refused: {m}**{self.dim} residue ranks")
        self.check_bounds(a)
        r = np.mod(a, m)
        rank = r[:, 0].copy()
        for i in range(1, self.dim):
            rank = rank * m + r[:, i]
        return rank


class ZGroup(GroupContext):
    """The integers under addition."""

    name = "Z"
    dim = 1
    abelian = True

    @property
    def identity(self) -> Elem:
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def residue(self, g, m):
        return g % m

    def canonical_transversal(self, m_prev, m):
        return [i * m_prev for i in range(m // m_prev)]

    def mul_rows(self, a, b):
        return a + b

    def vec_mul(self, a, b):
        self.check_bounds(a, b)
        return self.mul_rows(a, b)

    def vec_inv(self, a):
        self.check_bounds(a)
        return -a


class Z2Group(GroupContext):
    """The integer plane under componentwise addition."""

    name = "Z2"
    dim = 2
    abelian = True

    @property
    def identity(self) -> Elem:
        return (0, 0)

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def inv(self, a):
        return (-a[0], -a[1])

    def residue(self, g, m):
        return (g[0] % m, g[1] % m)

    def canonical_transversal(self, m_prev, m):
        r = m // m_prev
        return [(i * m_prev, j * m_prev) for i in range(r) for j in range(r)]

    def mul_rows(self, a, b):
        return a + b

    def vec_mul(self, a, b):
        self.check_bounds(a, b)
        return self.mul_rows(a, b)

    def vec_inv(self, a):
        self.check_bounds(a)
        return -a


class HeisenbergGroup(GroupContext):
    """Discrete Heisenberg group on integer triples.

    (a,b,c)·(a',b',c') = (a+a', b+b', c+c'+a·b'); the identification with
    upper unitriangular matrices puts a in position (1,2), b in (2,3) and c in
    (1,3).  The congruence subgroups (all coordinates divisible by m) are
    normal: conjugation changes the third coordinate by integer combinations
    of the first two.
    """

    name = "Heisenberg"
    dim = 3
    abelian = False

    @property
    def identity(self) -> Elem:
        return (0, 0, 0)

    def mul(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def inv(self, a):
        return (-a[0], -a[1], -a[2] + a[0] * a[1])

    def residue(self, g, m):
        return (g[0] % m, g[1] % m, g[2] % m)

    def canonical_transversal(self, m_prev, m):
        r = m // m_prev
        steps = [i * m_prev for i in range(r)]
        return [(x, y, z) for x in steps for y in steps for z in steps]

    # Conjugation s^{-1}(a,b,c)s with s=(x,y,z) gives (a, b, c + a·y - b·x):
    # only (x, y) of s matters, which keeps carry states small.

    def conj_context(self, s):
        return (s[0], s[1])

    def context_identity(self):
        return (0, 0)

    def context_step(self, ctx, q):
        return (ctx[0] + q[0], ctx[1] + q[1])

    def conj_in_context(self, ctx, p):
        x, y = ctx
        return (p[0], p[1], p[2] + p[0] * y - p[1] * x)

    def vec_conj_in_context(self, ctx, p):
        self.check_bounds(ctx, p)
        out = p.copy()
        out[:, 2] += p[:, 0] * ctx[:, 1] - p[:, 1] * ctx[:, 0]
        return out

    def vec_context_step(self, ctx, q):
        return ctx + q[:, :2]

    def mul_rows(self, a, b):
        out = a + b
        out[..., 2] += a[..., 0] * b[..., 1]
        return out

    def vec_mul(self, a, b):
        self.check_bounds(a, b)
        return self.mul_rows(a, b)

    def vec_inv(self, a):
        self.check_bounds(a)
        out = -a
        out[:, 2] += a[:, 0] * a[:, 1]
        return out


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row, ordered as the rows are lexicographically.

    Each column is offset by its minimum and the first column is the most
    significant digit; rows whose keys would not fit in int64 are refused.
    """
    low = rows.min(axis=0)
    spans = (rows.max(axis=0) - low + 1).tolist()
    if math.prod(spans) > _KEY_LIMIT:
        raise OverflowError("vectorized path refused: packed row keys exceed int64")
    keys = np.zeros(len(rows), dtype=np.int64)
    for col, lo, span in zip(rows.T, low.tolist(), spans):
        keys = keys * span + (col - lo)
    return keys


_GROUPS = {g.name: g for g in (ZGroup(), Z2Group(), HeisenbergGroup())}


def group_by_name(name: str) -> GroupContext:
    try:
        return _GROUPS[name]
    except KeyError:
        raise ConstructionError(f"unknown group {name!r}; choose from {sorted(_GROUPS)}")


class SubgroupChain:
    """Nested normal congruence subgroups Γ_n = ker(mod m_n), m_1 | m_2 | ...

    The chain is strictly decreasing (moduli strictly increasing) and has
    trivial intersection: distinct elements are separated once the modulus
    exceeds their coordinate difference.
    """

    def __init__(self, group: GroupContext, moduli: Sequence[int]):
        moduli = list(moduli)
        if not moduli:
            raise ConstructionError("chain needs at least one modulus")
        prev = None
        for i, m in enumerate(moduli, start=1):
            if m < 1:
                raise ConstructionError(f"modulus at level {i} must be positive")
            if prev is not None:
                if m <= prev:
                    raise ConstructionError(
                        f"moduli must strictly increase (level {i}: {m} <= {prev})"
                    )
                if m % prev:
                    raise ConstructionError(
                        f"modulus {m} at level {i} not divisible by {prev}"
                    )
            prev = m
        self.group = group
        self.moduli = moduli

    def __len__(self) -> int:
        return len(self.moduli)

    def modulus(self, n: int) -> int:
        if not 1 <= n <= len(self.moduli):
            raise ConstructionError(f"level {n} outside chain of length {len(self.moduli)}")
        return self.moduli[n - 1]

    def index(self, n: int) -> int:
        """[G : Γ_n]."""
        if n == 0:
            return 1
        return self.modulus(n) ** self.group.dim

    def project(self, g: Elem, n: int) -> CosetLabel:
        """Label of the coset g·Γ_n."""
        return CosetLabel(n, self.group.residue(g, self.modulus(n)))

    def label_rank(self, label: CosetLabel) -> int:
        return self.group.residue_rank(label.residue, self.modulus(label.level))

    def is_member(self, g: Elem, n: int) -> bool:
        return self.project(g, n).is_identity()

    def separation_level(self, g: Elem, h: Elem) -> int | None:
        """Smallest level whose projection distinguishes g from h, or None."""
        for n in range(1, len(self.moduli) + 1):
            if self.project(g, n) != self.project(h, n):
                return n
        return None


def geometric_moduli(base: int, ratio: int, length: int) -> list[int]:
    """m_n = base * ratio**(n-1); the common growth rule of shipped presets."""
    if base < 1 or ratio < 2 or length < 1:
        raise ConstructionError("need base >= 1, ratio >= 2, length >= 1")
    out, m = [], base
    for _ in range(length):
        out.append(m)
        m *= ratio
    return out

