"""Exact arithmetic for residually finite groups with congruence subgroup chains.

Three concrete groups are shipped: the integers ``Z``, the integer plane
``Z2``, and the discrete Heisenberg group ``Heisenberg`` (integer triples
(a, b, c) with product (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'), i.e. upper
unitriangular 3x3 integer matrices).  Each comes with nested normal
finite-index subgroups given by congruence conditions modulo a divisibility
chain m_1 | m_2 | ..., and one canonical transversal grid, as int64 rows, for the
digit-expansion machinery.

All scalar arithmetic is plain Python integers (arbitrary precision).  The
vectorized helpers operate on int64 arrays and refuse inputs large enough to
overflow instead of wrapping; ``exact_dtype`` names the narrowest of int16,
int32 and int64 in which a caller may multiply given rows, reading the bound
off the group's own law.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
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

    def row_text(self, rows: np.ndarray, brackets: str = "()") -> np.ndarray:
        """Text table of ``fmt`` of each int64 element row, ``brackets`` around a tuple's
        coordinates."""
        if self.dim == 1:
            return int_text(rows[:, 0])
        cols = [const_text(brackets[0], len(rows))]
        for i in range(self.dim):
            cols += [int_text(rows[:, i]), const_text("," if i + 1 < self.dim else brackets[1],
                                                       len(rows))]
        return np.concatenate(cols, axis=1)

    # -- congruence structure ------------------------------------------------

    def residue(self, g: Elem, m: int) -> Elem:
        """Canonical residue of g modulo m (componentwise, in [0, m))."""
        return tuple(c % m for c in g) if self.dim > 1 else g % m

    def residue_rank(self, g: Elem, m: int) -> int:
        """Flat integer in [0, m**dim) encoding residue(g, m), first coordinate most significant."""
        rank = 0
        for c in (g if self.dim > 1 else (g,)):
            rank = rank * m + c % m
        return rank

    def canonical_transversal(self, m_prev: int, m: int) -> np.ndarray:
        """Ordered coset representatives of ker(mod m) inside ker(mod m_prev), as int64 rows: the
        multiples of m_prev below m, first coordinate slowest, so the identity comes first."""
        steps = np.arange(0, m, m_prev)
        grid = np.empty((len(steps),) * self.dim + (self.dim,), dtype=np.int64)
        for i in range(self.dim):  # coordinate i varies along axis i
            grid[..., i] = steps.reshape((-1,) + (1,) * (self.dim - 1 - i))
        return grid.reshape(-1, self.dim)

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

    # Row-wise forms: a context row has no columns for abelian groups, and the
    # leading axes broadcast, coordinates last, as in ``mul_rows``.

    def conj_rows(self, ctx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row-wise ``conj_in_context``, unchecked: the caller has passed both to ``check_bounds``."""
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
        """Refuse arrays with a value outside (-2**30, 2**30), where int64 row products stay exact.

        ``exact_dtype`` runs this check too, then narrows by the group law.
        """
        for a in arrays:
            if a.size and (a.max() >= _VEC_BOUND or a.min() <= -_VEC_BOUND):
                raise OverflowError("vectorized path refused: values too large")

    def exact_dtype(self, *rows: np.ndarray) -> type:
        """The narrowest of int16, int32 and int64 in which ``mul_rows`` of these rows is exact.

        ``check_bounds`` runs first, so a value at 2**30 is refused.  ``rows``
        are element rows, coordinates on the last axis.  M is the largest
        magnitude of each coordinate over all of them, and the answer is the
        narrowest dtype holding M and ``mul(M, M)``.  Each shipped law is
        monotone in magnitudes, |a+a'| <= |a|+|a'| and
        |c+c'+a·b'| <= |c|+|c'|+|a|·|b'|, so ``mul(M, M)`` bounds every product
        of two such rows and every partial sum ``mul_rows`` forms on the way.
        """
        self.check_bounds(*rows)
        top = np.zeros(self.dim, dtype=np.int64)
        for r in rows:
            if r.size:
                r = r.reshape(-1, self.dim)
                top = np.maximum(top, np.maximum(r.max(axis=0), -r.min(axis=0)))
        need = max(top.max(), self.mul_rows(top, top).max())  # exact: top is below 2**30
        return next(dt for dt in (np.int16, np.int32, np.int64) if need <= np.iinfo(dt).max)

    @abstractmethod
    def mul_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise products, unchecked: the caller has passed both operands to ``check_bounds``.

        Coordinates are the last axis; the leading axes broadcast.  The products
        take the operands' dtype, which is exact when the operands hold rows
        that passed ``exact_dtype`` and are cast to the dtype it answered.
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

    def conj_rows(self, ctx, p):
        twist = p[..., 0] * ctx[..., 1] - p[..., 1] * ctx[..., 0]
        out = np.broadcast_to(p, twist.shape + (3,)).copy()
        out[..., 2] += twist
        return out

    def vec_context_step(self, ctx, q):
        return ctx + q[..., :2]

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
    Each column is reduced on its own: numpy reduces a few columns of
    C-ordered rows along axis 0 several times slower.
    """
    cols = rows.T
    low = [int(col.min()) for col in cols]
    spans = [int(col.max()) - lo + 1 for col, lo in zip(cols, low)]
    if math.prod(spans) > _KEY_LIMIT:
        raise OverflowError("vectorized path refused: packed row keys exceed int64")
    keys = np.zeros(len(rows), dtype=np.int64)
    for col, lo, span in zip(cols, low, spans):
        keys = keys * span + (col - lo)
    return keys


# -- text tables ------------------------------------------------------------------
# A text table holds one ASCII text per row as uint8 bytes.  NUL bytes pad the rows
# and fall away when rows are joined, so a column's texts need not be aligned.


@functools.cache
def _chunk_digits() -> np.ndarray:
    """Texts of 0..9999 as four bytes each, in one uint32: first without leading zeros
    (0 as no digit at all), then zero-padded to four digits."""
    n = np.arange(10_000)[:, None]
    digits = (n // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    lead = digits * (n >= np.array([1000, 100, 10, 1]))
    return np.concatenate([lead, digits]).view(np.uint32).ravel()


def int_text(values: np.ndarray) -> np.ndarray:
    """Text table of int64 values as ``str`` writes them, right-aligned."""
    mag = np.abs(values).astype(np.uint64)  # abs leaves -2**63 negative; as uint64 it is 2**63
    chunks = (len(str(int(mag.max()))) + 3) // 4 if len(mag) else 1
    negative = values < 0
    signed = int(negative.any())
    # Four-digit chunks, most significant first, after a column whose last byte is the sign
    # when a value has one.  A chunk is zero-padded below a higher nonzero chunk, else
    # written without leading zeros.
    text = np.zeros((len(mag), signed + chunks), np.uint32)
    rest = mag
    for i in reversed(range(chunks)):
        high = rest // 10_000
        chunk = (rest - high * 10_000).astype(np.intp)
        if i:
            chunk += (high > 0) * 10_000
        text[:, signed + i] = _chunk_digits().take(chunk)
        rest = high
    text = text.view(np.uint8)
    if signed:
        text[:, 3] = negative * ord("-")
    text[mag == 0, -1] = ord("0")
    return text


def ljust(table: np.ndarray) -> np.ndarray:
    """The table with each row's text moved to its start, as wide as the longest text (or 1).

    The result is C-contiguous, so its rows can be viewed as ``S`` strings and taken fast.
    """
    rows, width = table.shape
    out = np.zeros(rows * width, np.uint8)
    start = np.arange(rows) * width
    end = start.copy()  # where each row's next text byte goes
    for col in np.ascontiguousarray(table.T):  # a NUL written at the end is overwritten
        out[end] = col
        end += col != 0
    return out.reshape(rows, width)[:, : max(1, int((end - start).max(initial=0)))].copy()


def const_text(text: str, n: int) -> np.ndarray:
    """Text table of ``text`` on each of n rows (a read-only view)."""
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (n, len(text)))


def str_text(texts: Sequence[str]) -> np.ndarray:
    """Text table of ASCII strings without NUL, one per row, left-justified."""
    table = np.array(texts, dtype="S")
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


def join_rows(*tables: np.ndarray) -> str:
    """Each row's texts side by side, row after row: the tables' text with the NULs dropped."""
    return np.concatenate(tables, axis=1).tobytes().translate(None, b"\0").decode("ascii")


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

    def separation_level(self, g: Elem, h: Elem) -> int | None:
        """Smallest level whose residues distinguish g from h, or None."""
        for n, m in enumerate(self.moduli, start=1):
            if self.group.residue(g, m) != self.group.residue(h, m):
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

