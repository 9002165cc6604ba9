"""Digit expansions over nested fundamental domains, with exact carry arithmetic.

Level n of a :class:`DomainSequence` carries a finite digit alphabet
T_{n-1} = D_n ∩ Γ_{n-1} (canonical transversal of Γ_{n-1}/Γ_n containing the
identity) and the fundamental domain D_n = D_{n-1}·T_{n-1}.  Every group
element g splits uniquely as g = head·tail with head in D_n and tail in Γ_n,
and elements of D_n factor uniquely into digit strings
g = t_1·t_2·...·t_n with t_j in the level-j alphabet.

Each D_n is stored once: an int64 array whose rows are its elements in rank
order, rank = d_rank + size(n-1)·t_index, plus a residue→rank table.  So D_m
sits at ranks 0..size(m)-1 of every deeper level, and membership, heads,
depths and digit indices are all rank lookups.

Products of digit strings are computed digit-by-digit through the carry
recursion

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

from .groups import ConstructionError, Elem, GroupContext, SubgroupChain, row_keys

# Bytes one int64 row array may take: a level's domain D_n (modulus**dim rows
# of dim coordinates), or a product of element rows formed in one step.
ARRAY_BUDGET = 1 << 30

# Bytes per candidate-hitter value at the peak of writing the ``odowin fiber`` report,
# measured with tracemalloc over a zero-hitter report: about 65 on 144 candidates x
# 364 hitters, and 184 on 2 x 21,840, where only two candidates share each hitter's
# texts.  The report is held to ARRAY_BUDGET.
REPORT_ENTRY_BYTES = 200

# Transition rows the closure forms at once; a block holds whole source states,
# at least one, so a level needs O(max(budget, #alphabet²)) scratch memory.
_CLOSURE_ROWS = 1 << 14


@dataclass(frozen=True)
class Digits:
    """Finite digit string of a group element.

    ``coefficients`` has length ``depth + 1``; the last entry is the identity
    only for the identity element.  ``depth`` is the least n such that the
    element lies in D_{n+1}.
    """

    coefficients: tuple[Elem, ...]
    depth: int


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
    """Fundamental domains D_0 ⊆ D_1 ⊆ ... built multiplicatively from canonical transversals.

    Each D_n is stored once, as the rows of an int64 array in rank order, with
    a residue→rank table; D_0 = {identity} has modulus m_0 = 1 (Γ_0 = G).
    D_m sits at ranks 0..size(m)-1 of every deeper level.
    """

    def __init__(self, group: GroupContext):
        self.group = group
        self.moduli: list[int] = []  # m_1..m_levels
        self.alphabets: list[tuple[Elem, ...]] = []
        self._dom: list[np.ndarray] = [group.to_array([group.identity])]  # D_0..D_levels
        self._rep_rank: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]  # residue rank -> rank
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
        """m_n, with m_0 = 1."""
        if not 0 <= n <= self.levels:
            raise ConstructionError(f"level {n} outside the built levels 0..{self.levels}")
        return self.moduli[n - 1] if n else 1

    def index(self, n: int) -> int:
        return self.modulus(n) ** self.group.dim

    def append_level(self, modulus: int) -> None:
        """Extend by one level with the canonical transversal mod ``modulus``.

        D_n[r + size(n-1)·d] = D_{n-1}[r]·T_n[d] is one broadcast product.  A
        level over ``ARRAY_BUDGET`` is refused before its transversal is listed.
        """
        g = self.group
        n = self.levels + 1
        m_prev = self.modulus(n - 1)
        if modulus <= m_prev or modulus % m_prev:
            raise ConstructionError(
                f"level {n}: modulus {modulus} must be a proper multiple of {m_prev}"
            )
        index = modulus ** g.dim
        nbytes = over_budget(index, g.dim)
        if nbytes:
            raise ConstructionError(
                f"level {n}: modulus {modulus} gives a domain of {index} elements "
                f"({nbytes} bytes), over the {ARRAY_BUDGET}-byte budget for one level"
            )
        alphabet = g.canonical_transversal(m_prev, modulus)
        if alphabet[0] != g.identity:
            raise ConstructionError(f"level {n}: transversal must start with the identity")
        t_arr = g.to_array(alphabet)
        outside = np.flatnonzero(g.vec_residue_rank(t_arr, m_prev))
        if outside.size:
            raise ConstructionError(
                f"level {n}: transversal element {g.fmt(alphabet[outside[0]])} "
                "not in the previous subgroup"
            )
        prev = self._dom[-1]
        dom = g.vec_mul(prev[None], t_arr[:, None]).reshape(-1, g.dim)
        rr = g.vec_residue_rank(dom, modulus)
        ranks = np.arange(len(rr))
        first = np.full(index, len(rr))  # residue -> its first rank, by one scatter
        np.minimum.at(first, rr, ranks)
        owner = first[rr]  # first rank with the same residue
        dup = np.flatnonzero(owner != ranks)
        if dup.size:
            later, earlier = g.from_array(dom[[dup[0], owner[dup[0]]]])
            raise ConstructionError(
                f"level {n}: duplicate coset for {g.fmt(later)} and {g.fmt(earlier)}"
            )
        if len(dom) != index:
            raise ConstructionError(
                f"level {n}: domain has {len(dom)} elements, index is {index}"
            )
        # Every residue occurs once, so ``first`` is the residue -> rank table.
        self.moduli.append(modulus)
        self.alphabets.append(tuple(alphabet))
        self._dom.append(dom)
        self._rep_rank.append(first)

    def pop_level(self) -> None:
        """Drop the top level; a carry automaton deeper than the domains is cut back."""
        for per_level in (self.moduli, self.alphabets, self._dom, self._rep_rank):
            per_level.pop()
        if self._automaton is not None and self._automaton.levels > self.levels:
            self._automaton = CarryAutomaton(self, self.levels, self._automaton)

    # -- basic queries --------------------------------------------------------

    def size(self, n: int) -> int:
        """#D_n (n = 0 gives 1)."""
        return len(self.domain_array(n))

    def alphabet(self, n: int) -> tuple[Elem, ...]:
        """T_n, the level-n digit alphabet (n in 1..levels)."""
        if not 1 <= n <= self.levels:
            raise ConstructionError(f"level {n} outside the alphabet levels 1..{self.levels}")
        return self.alphabets[n - 1]

    def alphabet_index(self, n: int, t: Elem) -> int:
        """Index of t in the level-n alphabet; ``KeyError`` when t is not in it."""
        i = self.rank_of(t, n) // self.size(n - 1)
        if self.alphabets[n - 1][i] != t:
            raise KeyError(t)
        return i

    def domain_list(self, n: int) -> list[Elem]:
        """D_n in rank order, converted from the stored rows on each call."""
        return self.group.from_array(self.domain_array(n))

    def domain_set(self, n: int) -> set[Elem]:
        """D_n as a set, converted from the stored rows on each call."""
        return set(self.domain_list(n))

    def domain_array(self, n: int) -> np.ndarray:
        self.modulus(n)  # rejects a level outside 0..levels
        return self._dom[n]

    def in_domain(self, g: Elem, n: int) -> bool:
        return self.element_of_rank(self.rank_of(g, n), n) == g

    # -- decomposition and digits ---------------------------------------------

    def head(self, g: Elem, n: int) -> Elem:
        """The D_n component of g (unique element of D_n in the coset g·Γ_n)."""
        return self.element_of_rank(self.rank_of(g, n), n)

    def tail(self, g: Elem, n: int) -> Elem:
        return self.group.mul(self.group.inv(self.head(g, n)), g)

    def decompose(self, g: Elem, n: int) -> tuple[Elem, Elem]:
        """(head, tail) with head ∈ D_n, tail ∈ Γ_n and head·tail = g."""
        h = self.head(g, n)
        return h, self.group.mul(self.group.inv(h), g)

    def depth(self, g: Elem) -> int:
        """Least n with g ∈ D_{n+1}; raises if g is beyond the built levels."""
        top = self.levels
        rank = self.rank_of(g, top)
        if top and self.element_of_rank(rank, top) == g:
            return next(n for n in range(top) if rank < self.size(n + 1))
        raise ConstructionError(
            f"{self.group.fmt(g)} lies outside the built domains "
            f"(no finite digit string within {self.levels} levels)"
        )

    def digits(self, g: Elem) -> Digits:
        """Full digit expansion of g; defined for elements of the built domains."""
        n = self.depth(g)
        return Digits(self.digit_prefix(g, n + 1), n)

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
        self.modulus(n)  # rejects a level outside 0..levels
        out = []
        for alphabet in self.alphabets[:n]:
            rank, i = divmod(rank, len(alphabet))
            out.append(i)
        return out

    def element_of_rank(self, rank: int, n: int) -> Elem:
        size = self.size(n)
        if not 0 <= rank < size:
            raise ConstructionError(f"rank {rank} outside 0..{size - 1} at level {n}")
        return self.group.from_array(self._dom[n][[rank]])[0]

    def rank_of(self, g: Elem, n: int) -> int:
        return int(self._rep_rank[n][self.group.residue_rank(g, self.modulus(n))])

    # -- vectorized helpers ------------------------------------------------------

    def vec_rank(self, arr: np.ndarray, n: int) -> np.ndarray:
        """Domain ranks of the heads of the rows of ``arr`` at level n."""
        rr = self.group.vec_residue_rank(arr, self.modulus(n))
        return self._rep_rank[n][rr]

    def product_ranks(self, a, b, n: int) -> np.ndarray:
        """Level-n ranks of the heads of D_n[a]·D_n[b]; either side may be a scalar rank.

        Exact because Γ_n is normal: head_n(g·h) = head_n(head_n(g)·head_n(h)),
        which the two-route oracle checks on every pair of D_n.
        """
        dom = self.domain_array(n)
        _check_ranks(len(dom), n, a, b)
        return self.vec_rank(self.group.vec_mul(dom[a], dom[b]).reshape(-1, self.group.dim), n)

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

    Each level is closed with int64 row arithmetic over blocks of whole source
    states, at most ``_CLOSURE_ROWS`` transition rows (state, p, q) per block
    unless one state alone has more.  New states are numbered in order of
    first occurrence over the transitions in (state, p, q) order, and the
    witness of a state is the transition where it first occurs.
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

        cur = self.states[start]
        carry = g.to_array([c for c, _ in cur])
        ctx = np.array([() if x is None else x for _, x in cur], dtype=np.int64)
        for j in range(start + 1, levels + 1):
            carry, ctx = self._close_level(j, carry, ctx)

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

    def _close_level(
        self, j: int, carry: np.ndarray, ctx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append level j's tables and states; return the new states' carry and context rows.

        ``carry`` and ``ctx`` hold the rows of the states entering level j.
        """
        ds, g = self.ds, self.ds.group
        place = ds.size(j - 1)
        alpha = ds.domain_array(j)[::place]  # the digit T_j[i] has rank i·size(j-1)
        alpha_inv = g.vec_inv(alpha)
        na2 = len(alpha) ** 2
        total = len(carry) * na2
        tdig = np.empty(total, dtype=np.int64)
        tstate = np.empty(total, dtype=np.int64)
        block_rows, block_first = [], []  # per block: its distinct new states, first transitions
        found = 0
        step = max(1, _CLOSURE_ROWS // na2) * na2
        for lo in range(0, total, step):
            flat = np.arange(lo, min(lo + step, total))
            s, pq = np.divmod(flat, na2)
            p, q = np.divmod(pq, len(alpha))
            c = g.vec_mul(g.vec_mul(carry[s], g.vec_conj_in_context(ctx[s], alpha[p])), alpha[q])
            # c lies in Γ_{j-1}, so its level-j head is the digit T_j[i] at rank
            # i·size(j-1), and the carry is T_j[i]^{-1}·c.
            i = ds.vec_rank(c, j) // place
            rows = np.hstack([g.vec_mul(alpha_inv[i], c), g.vec_context_step(ctx[s], alpha[q])])
            first, number = _first_occurrence(rows)
            tdig[flat] = i
            tstate[flat] = number + found
            found += len(first)
            block_rows.append(rows[first])
            block_first.append(flat[first])
        # Blocks run in transition order, so numbering the blocks' distinct
        # states by first occurrence numbers the level's states the same way.
        rows = np.concatenate(block_rows)
        first, number = _first_occurrence(rows)
        rows, at = rows[first], np.concatenate(block_first)[first]
        shape = (len(carry), len(alpha), len(alpha))
        self.trans_digit.append(tdig.reshape(shape))
        self.trans_state.append(number[tstate].reshape(shape))

        carry, ctx = rows[:, : g.dim], rows[:, g.dim :]
        ctxs = [None] * len(rows) if g.abelian else [tuple(x) for x in ctx.tolist()]
        self.states.append(list(zip(g.from_array(carry), ctxs)))
        wit = self.state_witnesses[j - 1]
        s, pq = np.divmod(at, na2)
        p, q = np.divmod(pq, len(alpha))
        self.state_witnesses.append(
            [
                (wit[si][0] + (pi,), wit[si][1] + (qi,))
                for si, pi, qi in zip(s.tolist(), p.tolist(), q.tolist())
            ]
        )
        return carry, ctx

    def _check_level(self, n: int) -> None:
        if not 0 <= n <= self.levels:
            raise ConstructionError(f"automaton built to levels 0..{self.levels}, need {n}")

    # -- scalar evaluation ----------------------------------------------------

    def product_digit_indices(
        self, g_idx: Sequence[int], h_idx: Sequence[int], n: int
    ) -> tuple[tuple[int, ...], Elem]:
        """Digit indices of the product prefix and the carry entering level n+1."""
        self._check_level(n)
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
        """Level-n ranks of the product cylinders of level-n rank vectors, by the carry recursion.

        Returns (product rank vector, final state index vector); each level's
        digits are read off the ranks by the radix decode.  Route A of the
        two-route oracle; shifts use ``DomainSequence.product_ranks``.
        """
        self._check_level(n)
        _check_ranks(self.ds.size(n), n, g_rank, h_rank)
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


def over_budget(rows: int, dim: int) -> int:
    """Bytes of ``rows`` int64 rows of ``dim`` coordinates if over ``ARRAY_BUDGET``, else 0."""
    nbytes = rows * dim * 8
    return nbytes if nbytes > ARRAY_BUDGET else 0


def check_rows(n: int, rows: int, dim: int) -> None:
    """Refuse, before it is formed, a level-n product of ``rows`` rows over ``ARRAY_BUDGET``."""
    nbytes = over_budget(rows, dim)
    if nbytes:
        raise ConstructionError(f"level {n}: a product of {rows} rows ({nbytes} bytes) "
                                f"is over the {ARRAY_BUDGET}-byte budget")


def _check_ranks(size: int, n: int, *ranks) -> None:
    """Reject level-n ranks (ints or int64 arrays) outside 0..size-1."""
    for r in map(np.asarray, ranks):
        if r.size and (r.min() < 0 or r.max() >= size):
            raise ConstructionError(f"ranks {r.min()}..{r.max()} outside 0..{size - 1} at level {n}")


def _first_occurrence(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the distinct rows in order of first occurrence, and each row's number among them."""
    _, first, inverse = np.unique(row_keys(rows), return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return first[order], number[inverse]


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

    K_j only involves transitions through level j-1, so the automaton is
    closed to level ``up_to - 1`` and ``up_to`` may exceed the built levels by one.
    """
    if up_to < 1 or up_to > ds.levels + 1:
        raise ConstructionError(f"carry ranges available for 1..{ds.levels + 1}")
    auto = ds.automaton(up_to - 1)
    rng = auto.carry_range
    return CarryRange(sets=rng.sets[:up_to], witnesses=rng.witnesses[:up_to])


def verify_carry_identity(
    ds: DomainSequence,
    level: int,
    chunk: int = 1 << 15,
    rng_spot_checks: int = 200,
) -> dict:
    """Exhaustive two-route check of the carry recursion on D_level × D_level.

    A level-n rank is r + size(n-1)·d with r a D_{n-1} rank and d a level-n
    digit index, and ``append_level`` builds D_n so that
    D_n[r + size(n-1)·d] = D_{n-1}[r]·T_n[d].  Route A reads each pair's
    product off the carry automaton: ``batch_product`` runs over the prefix
    pairs of D_{n-1} × D_{n-1}, giving the prefix rank r and state s, and one
    step table, built once per call over the level-n transitions (s, p, q),
    holds T_n[d]·c for the digit d and next state's carry c, with a flag for
    c ∈ Γ_n.  So route A's D_n[rank]·c is D_{n-1}[r]·step[s, p, q].  Route B
    multiplies each block's factors directly, as one broadcast product g·h.
    A pair passes iff D_n[rank]·c = g·h and c lies in Γ_n.  That is the same
    as rank being the head rank of g·h and c its tail, because D_n is a
    transversal of G/Γ_n: D_n[rank] = g·h·c^{-1} lies in the coset g·h·Γ_n
    exactly when c ∈ Γ_n.

    The left factors are taken in groups of consecutive left prefixes g_low,
    and within a group by top digit p: a block holds the left factors
    g_low + size(n-1)·p of one group and of one or more top digits, against
    all of D_n, about ``chunk`` pairs per block (at least one left factor).
    ``batch_product`` runs once per group, over that group × D_{n-1}, and its
    prefix ranks and states serve every top digit, so working memory is
    bounded by ``chunk`` and the step table, not by size(n-1)².  A block is
    laid out (p, g_low, q, h_low) for the right factor
    D_n[h_low + size(n-1)·q], and every operand is stored coordinate-major,
    as C-contiguous ``(dim, ...)`` columns, so the products and comparisons
    run on contiguous memory.  The step table and both domains are checked
    against the int64 bound once, and the blocks multiply gathers and views
    of them with the unchecked ``mul_rows``.  Returns a summary with the
    mismatch count (must be zero), the number of pairs, a nonabelian
    conjugation witness when one exists, and spot-check results comparing the
    vectorized and scalar paths; it does not depend on ``chunk``.
    """
    import random

    if not 1 <= level <= ds.levels:
        raise ConstructionError(
            f"carry identity asked for level {level}, built levels are 1..{ds.levels}"
        )
    g = ds.group
    n = level
    size, low = ds.size(n), ds.size(n - 1)
    na = size // low
    auto = ds.automaton(n)

    mismatches = 0
    total = 0
    # Conjugation witness: the first state/digit combination whose conjugated
    # digit differs from the raw digit (only possible in nonabelian groups).
    witness_alpha = next(
        (
            {"level": j, "context": ctx, "digit": p, "conjugated": cp}
            for j in range(1, n + 1)
            for _carry, ctx in auto.states[j - 1]
            for p in ds.alphabet(j)
            if (cp := g.conj_in_context(ctx, p)) != p
        ),
        None,
    )

    def columns(arr: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(arr.T)

    def as_rows(cols: np.ndarray) -> np.ndarray:
        return np.moveaxis(cols, 0, -1)  # a (dim, ...) array viewed as rows

    # The step table over the level-n transitions (s, p, q) in flat order.
    carry_elems = g.to_array([c for c, _ctx in auto.states[n]])  # by state index
    step_state = auto.trans_state[n - 1].reshape(-1)
    step_digit = auto.trans_digit[n - 1].reshape(-1)
    step = columns(g.vec_mul(g.to_array(ds.alphabet(n))[step_digit], carry_elems[step_state]))
    step_ok = (g.vec_residue_rank(carry_elems, ds.modulus(n)) == 0)[step_state]
    low_cols = columns(ds.domain_array(n - 1))
    dom_cols = columns(ds.domain_array(n)).reshape(g.dim, na, low)  # D_n[h_low + low·q] at (q, h_low)
    # Every product operand below is a gather or a view of these three arrays.
    g.check_bounds(step, low_cols, dom_cols)
    right = as_rows(dom_cols[:, None, None])  # at (1, 1, q, h_low)
    q = np.arange(na)[:, None]
    prefix = np.arange(low)
    rows = max(1, chunk // size)  # left factors per block
    width = min(rows, low)  # left prefixes per block and per batch_product call
    tops = max(1, rows // low)  # top digits per block
    for g0 in range(0, low, width):
        g_low = prefix[g0 : g0 + width]
        pre_rank, pre_flat = auto.batch_product(np.repeat(g_low, low), np.tile(prefix, len(g_low)), n - 1)
        head = low_cols.take(pre_rank, axis=1).reshape(g.dim, 1, len(g_low), 1, low)  # D_{n-1}[r]
        pre_flat = pre_flat.reshape(len(g_low), 1, low) * (na * na)  # flat index of (s, 0, 0)
        for p0 in range(0, na, tops):
            p = np.arange(p0, min(p0 + tops, na))
            flat = pre_flat + (p * na)[:, None, None, None] + q  # (p, left prefix, q, h_low)
            route_a = g.mul_rows(as_rows(head), as_rows(step.take(flat, axis=1)))
            left = dom_cols[:, p0 : p0 + len(p), g0 : g0 + len(g_low), None, None]
            route_b = g.mul_rows(as_rows(left), right)
            ok = step_ok.take(flat)
            for k in range(g.dim):  # each coordinate is one contiguous column
                ok &= route_a[..., k] == route_b[..., k]
            mismatches += ok.size - int(np.count_nonzero(ok))
            total += ok.size
            del route_a, route_b  # free this block's products before the next block forms its own

    rng = random.Random(20_240_601)  # a fixed seed keeps the report deterministic
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
