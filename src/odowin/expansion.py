"""Digit expansions over nested fundamental domains, with exact carry arithmetic.

Level n of a :class:`DomainSequence` carries a finite digit alphabet
T_{n-1} = D_n ∩ Γ_{n-1} (canonical transversal of Γ_{n-1}/Γ_n containing the
identity) and the fundamental domain D_n = D_{n-1}·T_{n-1}.  Every group
element g splits uniquely as g = head·tail with head in D_n and tail in Γ_n,
and elements of D_n factor uniquely into digit strings
g = t_1·t_2·...·t_n with t_j in the level-j alphabet.

Products are computed digit-by-digit through the carry recursion

    c_j = d_j · (s^{-1}·p_j·s) · q_j,      d_{j+1} = tail_j(c_j),

where p_j, q_j are the level-j digits of the factors, s is the level-(j-1)
head of the right factor, and d_1 is the identity.  The level-j digit of the
product is head_j(c_j).  Each carry d_j ranges over a finite set K_j computed
here by exact closure of the reachable (carry, conjugation-context) states,
with a witness pair recorded for every reachable carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import ConstructionError, Elem, GroupContext, SubgroupChain


@dataclass(frozen=True)
class Digits:
    """Finite digit string of a group element.

    ``coefficients`` has length ``depth + 1``; the last entry is the identity
    only for the identity element.  ``depth`` is the least n such that the
    element lies in D_{n+1}.
    """

    coefficients: tuple[Elem, ...]
    depth: int

    def coefficient(self, j: int, identity: Elem) -> Elem:
        """Digit j, extended by the identity beyond the stored string (j >= 1)."""
        return self.coefficients[j - 1] if j <= len(self.coefficients) else identity


@dataclass
class CarryRange:
    """Exact per-level carry value sets K_j with realizing witnesses.

    ``sets[j-1]`` lists K_j in canonical order.  ``witnesses[j-1]`` maps each
    carry to a pair of digit-index strings (for the two factors) whose product
    computation produces that carry entering level j.
    """

    sets: list[list[Elem]]
    witnesses: list[dict[Elem, tuple[tuple[int, ...], tuple[int, ...]]]]

    def level(self, j: int) -> list[Elem]:
        return self.sets[j - 1]


class DomainSequence:
    """Fundamental domains D_1 ⊆ D_2 ⊆ ... built multiplicatively from canonical transversals."""

    def __init__(self, group: GroupContext):
        self.group = group
        self.moduli: list[int] = []
        self.alphabets: list[tuple[Elem, ...]] = []
        self._alpha_index: list[dict[Elem, int]] = []
        self._dom_list: list[list[Elem]] = []
        self._dom_set: list[set[Elem]] = []
        self._dom_arr: list[np.ndarray] = []
        self._rep_rank: list[np.ndarray] = []  # residue rank -> domain rank
        self._automaton: CarryAutomaton | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, chain: SubgroupChain, levels: int | None = None) -> "DomainSequence":
        levels = len(chain) if levels is None else levels
        if levels > len(chain):
            raise ConstructionError(f"chain has {len(chain)} levels, cannot build {levels}")
        ds = cls(chain.group)
        for n in range(1, levels + 1):
            ds.append_level(chain.modulus(n))
        return ds

    @property
    def levels(self) -> int:
        return len(self.alphabets)

    @property
    def chain(self) -> SubgroupChain:
        return SubgroupChain(self.group, self.moduli)

    def modulus(self, n: int) -> int:
        return self.moduli[n - 1]

    def index(self, n: int) -> int:
        return 1 if n == 0 else self.modulus(n) ** self.group.dim

    def append_level(self, modulus: int) -> None:
        """Extend by one level with the canonical transversal mod ``modulus``."""
        g = self.group
        n = self.levels + 1
        m_prev = 1 if n == 1 else self.moduli[-1]
        if modulus <= m_prev or modulus % m_prev:
            raise ConstructionError(
                f"level {n}: modulus {modulus} must be a proper multiple of {m_prev}"
            )
        alphabet = g.canonical_transversal(m_prev, modulus)
        if alphabet[0] != g.identity:
            raise ConstructionError(f"level {n}: transversal must start with the identity")
        for t in alphabet:
            if n > 1 and g.residue_rank(t, m_prev) != 0:
                raise ConstructionError(
                    f"level {n}: transversal element {g.fmt(t)} not in the previous subgroup"
                )
        prev = self._dom_list[-1] if self._dom_list else [g.identity]
        dom = [g.mul(d, t) for t in alphabet for d in prev]
        index = modulus ** g.dim
        ranks: dict[int, int] = {}
        for rank, e in enumerate(dom):
            rr = g.residue_rank(e, modulus)
            if rr in ranks:
                raise ConstructionError(
                    f"level {n}: duplicate coset for {g.fmt(e)} and {g.fmt(dom[ranks[rr]])}"
                )
            ranks[rr] = rank
        if len(dom) != index:
            raise ConstructionError(
                f"level {n}: domain has {len(dom)} elements, index is {index}"
            )
        rep = np.full(index, -1, dtype=np.int64)
        for rr, rank in ranks.items():
            rep[rr] = rank
        self.moduli.append(modulus)
        self.alphabets.append(tuple(alphabet))
        self._alpha_index.append({t: i for i, t in enumerate(alphabet)})
        self._dom_list.append(dom)
        self._dom_set.append(set(dom))
        self._dom_arr.append(g.to_array(dom))
        self._rep_rank.append(rep)

    def pop_level(self) -> None:
        """Drop the top level; a carry automaton deeper than the domains is cut back."""
        for per_level in (self.moduli, self.alphabets, self._alpha_index, self._dom_list,
                          self._dom_set, self._dom_arr, self._rep_rank):
            per_level.pop()
        if self._automaton is not None and self._automaton.levels > self.levels:
            self._automaton = CarryAutomaton(self, self.levels, self._automaton)

    # -- basic queries --------------------------------------------------------

    def size(self, n: int) -> int:
        """#D_n (n = 0 gives 1)."""
        return 1 if n == 0 else len(self._dom_list[n - 1])

    def alphabet(self, n: int) -> tuple[Elem, ...]:
        return self.alphabets[n - 1]

    def alphabet_index(self, n: int, t: Elem) -> int:
        return self._alpha_index[n - 1][t]

    def domain_list(self, n: int) -> list[Elem]:
        return self._dom_list[n - 1]

    def domain_set(self, n: int) -> set[Elem]:
        return self._dom_set[n - 1]

    def domain_array(self, n: int) -> np.ndarray:
        return self._dom_arr[n - 1]

    def in_domain(self, g: Elem, n: int) -> bool:
        return g in self._dom_set[n - 1]

    # -- decomposition and digits ---------------------------------------------

    def head(self, g: Elem, n: int) -> Elem:
        """The D_n component of g (unique element of D_n in the coset g·Γ_n)."""
        if n == 0:
            return self.group.identity
        return self._dom_list[n - 1][self.rank_of(g, n)]

    def tail(self, g: Elem, n: int) -> Elem:
        return self.group.mul(self.group.inv(self.head(g, n)), g)

    def decompose(self, g: Elem, n: int) -> tuple[Elem, Elem]:
        """(head, tail) with head ∈ D_n, tail ∈ Γ_n and head·tail = g."""
        h = self.head(g, n)
        return h, self.group.mul(self.group.inv(h), g)

    def depth(self, g: Elem) -> int:
        """Least n with g ∈ D_{n+1}; raises if g is beyond the built levels."""
        for n in range(self.levels):
            if g in self._dom_set[n]:
                return n
        raise ConstructionError(
            f"{self.group.fmt(g)} lies outside the built domains "
            f"(no finite digit string within {self.levels} levels)"
        )

    def digits(self, g: Elem) -> Digits:
        """Full digit expansion of g; defined for elements of the built domains."""
        n = self.depth(g)
        coeffs = self.digit_prefix(g, n + 1)
        return Digits(coeffs, n)

    def digit_prefix(self, g: Elem, n: int) -> tuple[Elem, ...]:
        """Digits of head(g, n): defined for every group element."""
        return tuple(
            self.alphabets[j][i] for j, i in enumerate(self.digit_index_prefix(g, n))
        )

    def digit_index_prefix(self, g: Elem, n: int) -> tuple[int, ...]:
        return tuple(self.radix_digits(self.rank_of(g, n), n))

    # -- rank arithmetic --------------------------------------------------------
    # D_n is built as D_{n-1}·T_n in the order rank = d_rank + size(n-1)·t_index,
    # so the rank of a level-n cylinder is the mixed-radix value of its digit
    # indices: digit j has place value size(j-1), least significant first.
    # Level-m prefixes of a rank are rank % size(m).

    def radix_digits(self, rank, n: int) -> list:
        """Digit indices 1..n of level-n ranks (an int or an int64 array)."""
        out = []
        for alphabet in self.alphabets[:n]:
            rank, i = divmod(rank, len(alphabet))
            out.append(i)
        return out

    def element_of_rank(self, rank: int, n: int) -> Elem:
        return self._dom_list[n - 1][rank]

    def rank_of(self, g: Elem, n: int) -> int:
        rr = self.group.residue_rank(g, self.modulus(n))
        rank = int(self._rep_rank[n - 1][rr])
        if rank < 0:
            raise ConstructionError("residue outside level")
        return rank

    # -- vectorized helpers ------------------------------------------------------

    def vec_rank(self, arr: np.ndarray, n: int) -> np.ndarray:
        """Domain ranks of the heads of the rows of ``arr`` at level n."""
        rr = self.group.vec_residue_rank(arr, self.modulus(n))
        return self._rep_rank[n - 1][rr]

    def vec_digit_indices(self, arr: np.ndarray, n: int) -> np.ndarray:
        """Digit-index matrix (rows, n) of the level-n heads of ``arr``."""
        return np.stack(self.radix_digits(self.vec_rank(arr, n), n), axis=1)

    # -- carry automaton -----------------------------------------------------------

    def automaton(self, levels: int | None = None) -> "CarryAutomaton":
        """The carry automaton to at least ``levels``, extending the cached one."""
        want = self.levels if levels is None else levels
        if self._automaton is None or self._automaton.levels < want:
            self._automaton = CarryAutomaton(self, want, self._automaton)
        return self._automaton


class CarryAutomaton:
    """Reachable carry states and digit transitions, level by level.

    A state entering level j is a pair (carry, ctx) where ctx is the
    conjugation context of the level-(j-1) head of the right-hand factor.
    Transitions consume one digit pair (p, q) and emit the product digit.
    The closure enumerates every reachable state exactly, so the carry value
    sets are the exact ranges of the per-level carry maps on pairs of
    expandable elements.
    """

    def __init__(self, ds: DomainSequence, levels: int, prev: "CarryAutomaton | None"):
        """Close the states through ``levels``, continuing from ``prev`` when given.

        ``prev`` must be built on the same domains; its levels up to ``levels``
        are reused as they are, so a deeper ``prev`` is cut back.
        """
        if levels > ds.levels:
            raise ConstructionError("automaton cannot exceed built domain levels")
        self.ds = ds
        self.levels = levels
        g = ds.group
        if prev is None:
            start = 0
            self.states = [[(g.identity, g.context_identity())]]
            # state_witnesses[j-1][s]: digit-index strings of two factors reaching state s
            self.state_witnesses = [[((), ())]]
            self.trans_digit, self.trans_state = [], []
        else:
            start = min(prev.levels, levels)
            self.states = prev.states[: start + 1]
            self.state_witnesses = prev.state_witnesses[: start + 1]
            self.trans_digit = prev.trans_digit[:start]
            self.trans_state = prev.trans_state[:start]

        for j in range(start + 1, levels + 1):
            cur, cur_wit = self.states[j - 1], self.state_witnesses[j - 1]
            alpha = ds.alphabet(j)
            na = len(alpha)
            tdig = np.empty((len(cur), na, na), dtype=np.int64)
            tstate = np.empty((len(cur), na, na), dtype=np.int64)
            nxt_index: dict[tuple[Elem, object], int] = {}
            nxt: list[tuple[Elem, object]] = []
            nxt_wit: list[tuple] = []
            for si, (carry, ctx) in enumerate(cur):
                gw, hw = cur_wit[si]
                for pi, p in enumerate(alpha):
                    base = g.mul(carry, g.conj_in_context(ctx, p))
                    for qi, q in enumerate(alpha):
                        c = g.mul(base, q)
                        digit, nxt_carry = ds.decompose(c, j)
                        tdig[si, pi, qi] = ds.alphabet_index(j, digit)
                        key = (nxt_carry, g.context_step(ctx, q))
                        ni = nxt_index.get(key)
                        if ni is None:
                            ni = len(nxt)
                            nxt_index[key] = ni
                            nxt.append(key)
                            nxt_wit.append((gw + (pi,), hw + (qi,)))
                        tstate[si, pi, qi] = ni
            self.trans_digit.append(tdig)
            self.trans_state.append(tstate)
            self.states.append(nxt)
            self.state_witnesses.append(nxt_wit)

        witnesses: list[dict[Elem, tuple[tuple[int, ...], tuple[int, ...]]]] = []
        for lvl, wits in zip(self.states, self.state_witnesses):
            wit_j: dict[Elem, tuple] = {}
            for (carry, _ctx), w in zip(lvl, wits):
                wit_j.setdefault(carry, w)
            witnesses.append(wit_j)
        self.carry_range = CarryRange(
            sets=[sorted({c for c, _ in lvl}, key=g.sort_key) for lvl in self.states],
            witnesses=witnesses,
        )

    # -- scalar evaluation ----------------------------------------------------

    def product_digit_indices(
        self, g_idx: Sequence[int], h_idx: Sequence[int], n: int
    ) -> tuple[tuple[int, ...], Elem]:
        """Digit indices of the product prefix and the carry entering level n+1."""
        if n > self.levels:
            raise ConstructionError(f"automaton built to level {self.levels}, need {n}")
        state = 0
        out = []
        for j in range(1, n + 1):
            pi = g_idx[j - 1] if j <= len(g_idx) else 0
            qi = h_idx[j - 1] if j <= len(h_idx) else 0
            out.append(int(self.trans_digit[j - 1][state, pi, qi]))
            state = int(self.trans_state[j - 1][state, pi, qi])
        return tuple(out), self.states[n][state][0]

    # -- vectorized evaluation ---------------------------------------------------

    def batch_product(
        self, g_rank: np.ndarray, h_rank: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-n ranks of the product cylinders of level-n rank vectors.

        Returns (product rank vector, final state index vector); each level's
        digits are read off the ranks by the radix decode.
        """
        state = np.zeros(len(g_rank), dtype=np.int64)
        out = np.zeros(len(g_rank), dtype=np.int64)
        for j in range(1, n + 1):
            na = len(self.ds.alphabet(j))
            g_rank, pi = np.divmod(g_rank, na)
            h_rank, qi = np.divmod(h_rank, na)
            flat = (state * na + pi) * na + qi
            out += self.trans_digit[j - 1].reshape(-1)[flat] * self.ds.size(j - 1)
            state = self.trans_state[j - 1].reshape(-1)[flat]
        return out, state

    def carry_elements(self, n: int) -> list[Elem]:
        """Carry component of each level-(n+1) state, by state index."""
        return [c for c, _ in self.states[n]]


# -- spec-facing operations ------------------------------------------------


def build_domains(chain: SubgroupChain, levels: int | None = None) -> DomainSequence:
    return DomainSequence.build(chain, levels)


def decompose(ds: DomainSequence, g: Elem, n: int) -> tuple[Elem, Elem]:
    return ds.decompose(g, n)


def expand(ds: DomainSequence, g: Elem) -> Digits:
    return ds.digits(g)


def reconstruct(ds: DomainSequence, digits: Sequence[Elem], carry: Elem | None = None) -> Elem:
    """Product of a digit string, optionally followed by a carry element."""
    g = ds.group
    acc = g.identity
    for t in digits:
        acc = g.mul(acc, t)
    if carry is not None:
        acc = g.mul(acc, carry)
    return acc


def carry_mul(
    ds: DomainSequence, dg: Digits | Sequence[Elem], dh: Digits | Sequence[Elem], n: int
) -> tuple[tuple[Elem, ...], Elem]:
    """First n digits of the product and the carry entering level n+1.

    Computed purely from the factors' digits through the carry recursion; the
    factors are never multiplied directly.
    """
    gseq = dg.coefficients if isinstance(dg, Digits) else tuple(dg)
    hseq = dh.coefficients if isinstance(dh, Digits) else tuple(dh)
    auto = ds.automaton(n)
    g_idx = [ds.alphabet_index(j + 1, t) for j, t in enumerate(gseq[:n])]
    h_idx = [ds.alphabet_index(j + 1, t) for j, t in enumerate(hseq[:n])]
    out_idx, carry = auto.product_digit_indices(g_idx, h_idx, n)
    prefix = tuple(ds.alphabet(j + 1)[i] for j, i in enumerate(out_idx))
    return prefix, carry


def carry_ranges(ds: DomainSequence, up_to: int) -> CarryRange:
    """Exact carry value sets K_1..K_{up_to} with witnesses.

    K_j only involves transitions through level j-1, so ``up_to`` may exceed
    the built levels by one.
    """
    if up_to < 1 or up_to > ds.levels + 1:
        raise ConstructionError(f"carry ranges available for 1..{ds.levels + 1}")
    auto = ds.automaton(min(ds.levels, max(up_to - 1, 1)))
    rng = auto.carry_range
    return CarryRange(sets=rng.sets[:up_to], witnesses=rng.witnesses[:up_to])


def verify_carry_identity(
    ds: DomainSequence,
    level: int,
    chunk: int = 1 << 20,
    rng_spot_checks: int = 200,
    seed: int = 20_240_601,
) -> dict:
    """Exhaustive two-route check of the carry recursion on D_level × D_level.

    Route A computes the product's rank through the carry automaton; route B
    multiplies directly and looks up the head's rank and the tail.  Returns a
    summary with the mismatch count (must be zero), the number of pairs, a
    nonabelian conjugation witness when one exists, and spot-check results
    comparing the vectorized and scalar paths.
    """
    import random

    g = ds.group
    n = level
    size = ds.size(n)
    auto = ds.automaton(n)
    dom = ds.domain_array(n)
    carry_elems = g.to_array(auto.carry_elements(n))

    mismatches = 0
    total = 0
    witness_alpha = None
    # Conjugation witness: a state/digit combination whose conjugated digit
    # differs from the raw digit (only possible in nonabelian groups).
    if not g.abelian:
        for j in range(1, n + 1):
            for _carry, ctx in auto.states[j - 1]:
                for p in ds.alphabet(j):
                    cp = g.conj_in_context(ctx, p)
                    if cp != p:
                        witness_alpha = {
                            "level": j,
                            "context": ctx,
                            "digit": p,
                            "conjugated": cp,
                        }
                        break
                if witness_alpha:
                    break
            if witness_alpha:
                break

    for start in range(0, size * size, chunk):
        stop = min(start + chunk, size * size)
        pair = np.arange(start, stop, dtype=np.int64)
        gi, hi = pair // size, pair % size
        out_rank, state = auto.batch_product(gi, hi, n)
        prod = g.vec_mul(dom[gi], dom[hi])
        prod_rank = ds.vec_rank(prod, n)
        tails = g.vec_mul(g.vec_inv(dom[prod_rank]), prod)
        ok = (out_rank == prod_rank) & np.all(carry_elems[state] == tails, axis=1)
        mismatches += int((~ok).sum())
        total += stop - start

    rng = random.Random(seed)
    spot_bad = 0
    for _ in range(rng_spot_checks):
        a = ds.element_of_rank(rng.randrange(size), n)
        b = ds.element_of_rank(rng.randrange(size), n)
        prefix, carry = carry_mul(ds, ds.digit_prefix(a, n), ds.digit_prefix(b, n), n)
        prod = g.mul(a, b)
        if prefix != ds.digit_prefix(prod, n) or carry != ds.tail(prod, n):
            spot_bad += 1
        if reconstruct(ds, prefix, carry) != prod:
            spot_bad += 1
    return {
        "pairs": total,
        "mismatches": mismatches,
        "spot_check_failures": spot_bad,
        "alpha_witness": witness_alpha,
    }
