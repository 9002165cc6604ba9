"""Independent reference for the benchmark's output checks.

Imports nothing from odowin.  Digit strings are built from the group law and
the canonical transversals alone: the level-n alphabet T_n is the set of
coset representatives of Γ_n inside Γ_{n-1} whose coordinates are multiples
of m_{n-1} and below m_n, ordered lexicographically; the level-n domain D_n
lists the products t_1·t_2·…·t_n with the digit index of t_1 varying fastest,
so the rank of a digit string is its mixed-radix value.  Each product is
indexed by its residue mod m_n, which gives the head, digits and tail of any
group element.
"""

from __future__ import annotations

import itertools

import numpy as np

DIMS = {"Z": 1, "Z2": 2, "Heisenberg": 3}


def mul(group: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of two (rows, dim) int64 arrays."""
    out = a + b
    if group == "Heisenberg":
        out[:, 2] += a[:, 0] * b[:, 1]
    return out


def inv(group: str, a: np.ndarray) -> np.ndarray:
    out = -a
    if group == "Heisenberg":
        out[:, 2] += a[:, 0] * a[:, 1]
    return out


def elem(group: str, x) -> np.ndarray:
    """One group element (int or tuple) as a (1, dim) array."""
    return np.asarray([x if isinstance(x, (tuple, list)) else (x,)], dtype=np.int64).reshape(
        1, DIMS[group]
    )


def plain(row) -> int | tuple[int, ...]:
    """Array row back to the library's element form (int for Z, tuple otherwise)."""
    vals = tuple(int(v) for v in row)
    return vals[0] if len(vals) == 1 else vals


class Chain:
    """Alphabets, domains and residue indices of one congruence chain."""

    def __init__(self, group: str, moduli):
        self.group = group
        self.dim = DIMS[group]
        self.moduli = [int(m) for m in moduli]
        self.alphabets: list[np.ndarray] = []
        self.domains: list[np.ndarray] = []
        self._index: list[np.ndarray] = []
        prev_m = 1
        dom = np.zeros((1, self.dim), dtype=np.int64)
        for m in self.moduli:
            steps = range(0, m, prev_m)
            alpha = np.asarray(list(itertools.product(steps, repeat=self.dim)), dtype=np.int64)
            # D_n = D_{n-1}·T_n, previous-level rank varying fastest.
            left = np.tile(dom, (len(alpha), 1))
            right = np.repeat(alpha, len(dom), axis=0)
            dom = mul(group, left, right)
            index = np.full(m**self.dim, -1, dtype=np.int64)
            res = self.residue_rank(dom, m)
            index[res] = np.arange(len(dom))
            if (index < 0).any():
                raise ValueError(f"modulus {m}: products miss a residue class")
            self.alphabets.append(alpha)
            self.domains.append(dom)
            self._index.append(index)
            prev_m = m

    def residue_rank(self, a: np.ndarray, m: int) -> np.ndarray:
        r = np.mod(a, m)
        rank = np.zeros(len(a), dtype=np.int64)
        for i in range(self.dim):
            rank = rank * m + r[:, i]
        return rank

    def size(self, n: int) -> int:
        return 1 if n == 0 else len(self.domains[n - 1])

    def rank(self, a: np.ndarray, n: int) -> np.ndarray:
        """Domain rank of the level-n head of each row."""
        return self._index[n - 1][self.residue_rank(a, self.moduli[n - 1])]

    def head(self, a: np.ndarray, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros_like(a)
        return self.domains[n - 1][self.rank(a, n)]

    def tail(self, a: np.ndarray, n: int) -> np.ndarray:
        return mul(self.group, inv(self.group, self.head(a, n)), a)

    def digit_indices(self, a: np.ndarray, n: int) -> np.ndarray:
        """(rows, n) digit indices of the level-n heads: mixed-radix digits of the rank."""
        rank = self.rank(a, n) if n else np.zeros(len(a), dtype=np.int64)
        out = np.empty((len(a), n), dtype=np.int64)
        for j in range(n):
            rank, out[:, j] = np.divmod(rank, len(self.alphabets[j]))
        return out

    def digits(self, x, n: int) -> list:
        """Digit elements of head(x, n) for one element x."""
        idx = self.digit_indices(elem(self.group, x), n)[0]
        return [plain(self.alphabets[j][i]) for j, i in enumerate(idx)]


def self_test() -> list[str]:
    """Hand-worked cases; returns the list of failures (empty when all hold)."""
    bad = []
    dec = Chain("Z", [10, 100, 1000, 10000])
    if dec.digits(1234, 4) != [4, 30, 200, 1000]:
        bad.append(f"z-dec digits of 1234: {dec.digits(1234, 4)}")
    a, b = elem("Heisenberg", (1, 0, 0)), elem("Heisenberg", (0, 1, 0))
    ab, ba = plain(mul("Heisenberg", a, b)[0]), plain(mul("Heisenberg", b, a)[0])
    if (ab, ba) != ((1, 1, 1), (1, 1, 0)):
        bad.append(f"Heisenberg (1,0,0)(0,1,0) = {ab}, reversed {ba}")
    heis = Chain("Heisenberg", [2, 4])
    # Level-1 alphabet is {0,1}^3 in lexicographic order, so (x,y,z) has index 4x+2y+z;
    # the level-1 carries of the two orders are both trivial.
    ia = heis.digit_indices(mul("Heisenberg", a, b), 1)[0, 0]
    ib = heis.digit_indices(mul("Heisenberg", b, a), 1)[0, 0]
    if (ia, ib) != (7, 6):
        bad.append(f"Heisenberg level-1 digit indices {ia}, {ib}")
    t = plain(heis.tail(elem("Heisenberg", (1, 1, 3)), 1)[0])
    if t != (0, 0, 2):
        bad.append(f"Heisenberg tail of (1,1,3) at level 1: {t}")
    return bad
