"""Digit expansions over nested fundamental domains, with exact carry arithmetic.

Level n of a :class:`DomainSequence` carries a finite digit alphabet
T_n = D_n ∩ Γ_{n-1} (canonical transversal of Γ_{n-1}/Γ_n containing the
identity) and the fundamental domain D_n = D_{n-1}·T_n.  Every group
element g splits uniquely as g = head·tail with head in D_n and tail in Γ_n,
and elements of D_n factor uniquely into digit strings
g = t_1·t_2·...·t_n with t_j in T_j.

Each D_n is stored once: an int64 array whose rows are its elements in rank
order, rank = d_rank + size(n-1)·t_index.  So D_m sits at ranks 0..size(m)-1 of
every deeper level, T_n is D_n at the ranks i·size(n-1), and heads, depths and
digit indices are all rank lookups.  On Z a rank is the residue mod m_n
(Lemma A, ``DomainSequence.append_level``); on Z2 and Heisenberg a residue→rank
table maps residues to ranks.  Alphabets and carry sets are rows too; elements
are spelled from them only for text and the scalar reference route.

Products of digit strings are computed digit-by-digit through the carry
recursion

    c_j = d_j · (s^{-1}·p_j·s) · q_j,      d_{j+1} = tail_j(c_j),

where p_j, q_j are the level-j digits of the factors, s is the level-(j-1)
head of the right factor, and d_1 is the identity.  The level-j digit of the
product is head_j(c_j).  Each carry d_j ranges over a finite set K_j: on Z and
Z2 it is {0, m_{j-1}}^d (Lemma B, ``carry_ranges``), and otherwise it is computed
by exact closure of the reachable (carry, conjugation-context) states.  The
closure also gives a witness pair for every reachable carry, and it stays the
judge of both closed forms in the tests.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from typing import Sequence

import numpy as np

from .groups import ConstructionError, Elem, GroupContext, SubgroupChain, row_keys

# Bytes one int64 row array may take: a level's domain D_n (modulus**dim rows
# of dim coordinates), or a product of element rows formed in one step.
ARRAY_BUDGET = 1 << 30

# Bytes allowed per candidate-hitter value of the ``odowin fiber`` report.  On the
# z-irregular report (2 x 21,840 values, tracemalloc) the text peaks at 26 a value above
# what the fiber enumeration holds: it is streamed in WRITE_BLOCK blocks from text
# tables (held whole as one string per entry, it peaked at up to 184).  The figure also
# bounds the report's file, and the report is held to ARRAY_BUDGET.
REPORT_ENTRY_BYTES = 200

# Entries (records, list items, object members) a writer formats and joins at once,
# so the ``emit`` and ``fiber`` texts are built in blocks of bounded size.
WRITE_BLOCK = 1 << 10

# Rank pairs the carry oracle also checks one by one; a fixed seed keeps its report fixed.
SPOT_CHECKS = 200
SPOT_CHECK_SEED = 20_240_601

# Transition rows the closure forms at once; a block holds whole source states,
# at least one, so a level needs O(max(budget, #alphabet²)) scratch memory.
_CLOSURE_ROWS = 1 << 14


class CarryRange:
    """Exact per-level carry value sets K_j with realizing witnesses.

    ``rows[j-1]`` holds K_j as element rows in canonical order; ``sets[j-1]`` spells it.
    ``witnesses[j-1]`` maps each carry to a pair of digit-index strings (for the two
    factors) whose product computation produces that carry entering level j; they are
    spelled from the parent pointers of the automaton of ``ds``, which is closed to
    level ``len(rows) - 1`` then if it is not yet.  Both are formed on first read.
    """

    def __init__(self, rows: list[np.ndarray], ds: "DomainSequence"):
        self.rows = rows
        self._ds = ds

    @cached_property
    def sets(self) -> list[list[Elem]]:
        return [self._ds.group.from_array(rows) for rows in self.rows]

    def level(self, j: int) -> list[Elem]:
        return self.sets[j - 1]

    @cached_property
    def witnesses(self) -> list[dict[Elem, tuple[tuple[int, ...], tuple[int, ...]]]]:
        """Per level, each carry in order of first occurrence with the witness of its first state."""
        auto, out = self._ds.automaton(len(self.rows) - 1), []
        for j in range(len(self.rows)):
            carry = auto.carry_rows(j)
            first, _ = _first_occurrence(carry)
            g_idx, h_idx = auto.digit_strings(j, first)
            elems = auto.ds.group.from_array(carry[first])
            out.append({c: (tuple(a), tuple(b)) for c, a, b in zip(elems, g_idx.tolist(), h_idx.tolist())})
        return out


class DomainSequence:
    """Fundamental domains D_0 ⊆ D_1 ⊆ ... built multiplicatively from canonical transversals.

    Each D_n is stored once, as the rows of an int64 array in rank order;
    D_0 = {identity} has modulus m_0 = 1 (Γ_0 = G).  D_m sits at ranks
    0..size(m)-1 of every deeper level.  On a one-dimensional group a rank is
    its residue mod m_n (Lemma A at ``append_level``); on any other group each
    level also holds a residue→rank table.
    """

    def __init__(self, group: GroupContext):
        self.group = group
        self.moduli: list[int] = []  # m_1..m_levels
        self._dom: list[np.ndarray] = [np.zeros((1, group.dim), dtype=np.int64)]  # D_0..D_levels
        self._radix: list[int] = []  # |T_1|..|T_levels|
        self._spelled: dict[int, tuple[Elem, ...]] = {}  # level -> T_n spelled, on first use
        # residue rank -> rank at levels 0..levels; none past level 0 on a one-dimensional group
        self._rep_rank: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
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
        return len(self.moduli)

    @property
    def chain(self) -> SubgroupChain:
        return SubgroupChain(self.group, self.moduli)

    def modulus(self, n: int) -> int:
        """m_n, with m_0 = 1."""
        if not 0 <= n <= len(self.moduli):
            raise ConstructionError(f"level {n} outside the built levels 0..{self.levels}")
        return self.moduli[n - 1] if n else 1

    def index(self, n: int) -> int:
        return self.modulus(n) ** self.group.dim

    def next_alphabet(self, modulus: int) -> np.ndarray:
        """The digit alphabet of level ``levels + 1`` mod ``modulus``, as element rows.

        No domain is formed, so a modulus can be probed before it is built.  Every
        refusal runs here, for ``append_level`` too: a modulus that is not a proper
        multiple of the top one, a domain over ``ARRAY_BUDGET``, and a transversal
        that does not start with the identity, leaves the previous subgroup, holds
        two elements of one coset, or has too few elements.  With T_n ⊆ Γ_{n-1} in
        distinct cosets of Γ_n and size(n-1)·|T_n| the index, D_n = D_{n-1}·T_n is
        a transversal, as D_{n-1} is one.
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
        t_arr = g.canonical_transversal(m_prev, modulus)

        def text(i) -> str:
            return g.fmt(g.from_array(t_arr[i : i + 1])[0])

        if not len(t_arr) or t_arr[0].tolist() != self._dom[0][0].tolist():  # D_0 = {identity}
            raise ConstructionError(f"level {n}: transversal must start with the identity")
        outside = np.flatnonzero(g.vec_residue_rank(t_arr, m_prev))
        if outside.size:
            raise ConstructionError(
                f"level {n}: transversal element {text(outside[0])} not in the previous subgroup"
            )
        residues = g.vec_residue_rank(t_arr, modulus)
        order = np.argsort(residues, kind="stable")  # each residue's digits in index order
        runs = residues[order]
        repeat = order[1:][runs[1:] == runs[:-1]]  # every digit but each residue's first
        if repeat.size:
            i = repeat.min()
            first = order[np.searchsorted(runs, residues[i])]
            raise ConstructionError(f"level {n}: duplicate coset for {text(i)} and {text(first)}")
        if self.size(n - 1) * len(t_arr) != index:
            raise ConstructionError(f"level {n}: domain has {self.size(n - 1) * len(t_arr)} "
                                    f"elements, index is {index}")
        return t_arr

    def append_level(self, modulus: int) -> None:
        """Extend by one level with the canonical transversal mod ``modulus``.

        D_n[r + size(n-1)·d] = D_{n-1}[r]·T_n[d] is one broadcast product, and a
        residue→rank table inverts it.  A level over ``ARRAY_BUDGET`` is refused
        before its transversal is listed.

        Lemma A: on Z a rank is a residue.  T_n = {d·m_{n-1} : 0 <= d < m_n/m_{n-1}}
        in order, and size(n-1) = m_{n-1}, so D_n[r + m_{n-1}·d] = D_{n-1}[r] + d·m_{n-1}.
        If D_{n-1} = [0, m_{n-1}) in rank order (true for D_0 = {0}), then D_n =
        [0, m_n) in rank order, and rank_n(g) = g mod m_n.  So a one-dimensional
        level is the rows 0..m_n-1, with no table; ``next_alphabet`` still runs
        every refusal.  The product-and-table route of the other groups is the
        tests' oracle for it.
        """
        g = self.group
        t_arr = self.next_alphabet(modulus)
        index = modulus ** g.dim
        if g.dim == 1:
            dom = np.arange(index, dtype=np.int64)[:, None]
        else:
            dom = g.vec_mul(self._dom[-1][None], t_arr[:, None]).reshape(-1, g.dim)
            residues = g.vec_residue_rank(dom, modulus)
            table = np.empty(index, dtype=np.int64)  # residue -> rank: D_n is a transversal
            table[residues] = np.arange(index)
            self._rep_rank.append(table)
        self.moduli.append(modulus)
        self._radix.append(len(t_arr))
        self._dom.append(dom)

    # -- basic queries --------------------------------------------------------

    def size(self, n: int) -> int:
        """#D_n (n = 0 gives 1)."""
        return len(self.domain_array(n))

    def alphabet_rows(self, n: int) -> np.ndarray:
        """T_n (n in 1..levels) as element rows: a view of D_n at the ranks i·size(n-1)."""
        if not 1 <= n <= self.levels:
            raise ConstructionError(f"level {n} outside the alphabet levels 1..{self.levels}")
        return self._dom[n][:: len(self._dom[n - 1])]

    def alphabet(self, n: int) -> tuple[Elem, ...]:
        """T_n spelled as elements, once per level."""
        spelled = self._spelled.get(n)
        if spelled is None:
            spelled = self._spelled[n] = tuple(self.group.from_array(self.alphabet_rows(n)))
        return spelled

    def alphabet_index(self, n: int, t: Elem) -> int:
        """Index of t in the level-n alphabet; ``KeyError`` when t is not in it."""
        i = self.rank_of(t, n) // self.size(n - 1)
        if self.alphabet(n)[i] != t:
            raise KeyError(t)
        return i

    def domain_list(self, n: int) -> list[Elem]:
        """D_n in rank order, converted from the stored rows on each call."""
        return self.group.from_array(self.domain_array(n))

    def domain_array(self, n: int) -> np.ndarray:
        self.modulus(n)  # rejects a level outside 0..levels
        return self._dom[n]

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

    def digits(self, g: Elem) -> tuple[Elem, ...]:
        """Digits of g in the built domains: ``depth(g) + 1`` of them, the last not the identity
        unless g is."""
        return self.digit_prefix(g, self.depth(g) + 1)

    def digit_prefix(self, g: Elem, n: int) -> tuple[Elem, ...]:
        """Digits of head(g, n): defined for every group element."""
        return self.spell(self.rank_of(g, n), n)

    def spell(self, rank: int, n: int) -> tuple[Elem, ...]:
        """The digit string of the level-n rank ``rank``, level 1 first."""
        return tuple(self.alphabet(j)[i] for j, i in enumerate(self.radix_digits(rank, n), start=1))

    # -- rank arithmetic --------------------------------------------------------
    # D_n is built as D_{n-1}·T_n in the order rank = d_rank + size(n-1)·t_index,
    # so the rank of a level-n cylinder is the mixed-radix value of its digit
    # indices: digit j has place value size(j-1), least significant first.
    # Level-m prefixes of a rank are rank % size(m).

    def radix_digits(self, rank, n: int) -> list:
        """Digit indices 1..n of level-n ranks (an int or an int64 array).

        A level outside 0..levels, or a rank outside 0..size(n)-1, is refused.
        """
        check_ranks(self.size(n), n, rank)
        out = []
        for radix in self._radix[:n]:
            rank, i = divmod(rank, radix)
            out.append(i)
        return out

    def element_of_rank(self, rank: int, n: int) -> Elem:
        size = self.size(n)
        if not 0 <= rank < size:
            raise ConstructionError(f"rank {rank} outside 0..{size - 1} at level {n}")
        return self.group.from_array(self._dom[n][rank : rank + 1])[0]

    def rank_of(self, g: Elem, n: int) -> int:
        rr = self.group.residue_rank(g, self.modulus(n))
        return rr if self.group.dim == 1 else int(self._rep_rank[n][rr])

    # -- vectorized helpers ------------------------------------------------------

    def vec_rank(self, arr: np.ndarray, n: int) -> np.ndarray:
        """Domain ranks of the heads of the rows of ``arr`` at level n: on Z, the residues."""
        rr = self.group.vec_residue_rank(arr, self.modulus(n))
        return rr if self.group.dim == 1 else self._rep_rank[n][rr]

    def product_ranks(self, a, b, n: int) -> np.ndarray:
        """Level-n ranks of the heads of D_n[a]·D_n[b]; either side may be a scalar rank.

        Exact because Γ_n is normal: head_n(g·h) = head_n(head_n(g)·head_n(h)),
        which the two-route oracle checks on every pair of D_n.
        """
        dom = self.domain_array(n)
        check_ranks(len(dom), n, a, b)
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

    ``states[j-1]`` holds the states entering level j as one int64 array:
    a row per state, the carry's coordinates then the context's (none for an
    abelian group).  ``trans_digit[j-1]`` and ``trans_state[j-1]`` are the
    level-j tables indexed (state, p, q), each in the narrowest unsigned type
    holding its entries (``table_dtype``) and read through ``step``, which
    widens them.  ``first_transition[j-1][s]``
    is the level-j transition (s'·|T_j| + p)·|T_j| + q at which
    ``states[j][s]`` first occurs: a parent pointer, so a state's witness,
    the digit-index strings of two factors reaching it, is spelled by
    following them back.

    Each level is closed with int64 row arithmetic over blocks of whole source
    states, at most ``_CLOSURE_ROWS`` transition rows (state, p, q) per block
    unless one state alone has more.  New states are numbered in order of
    first occurrence over the transitions in (state, p, q) order.
    """

    def __init__(self, ds: DomainSequence, levels: int, prev: "CarryAutomaton | None"):
        """Close the states through ``levels``, continuing from ``prev`` when given.

        ``prev`` must be built on the same domains, to fewer levels; its levels
        are reused as they are.
        """
        if levels > ds.levels:
            raise ConstructionError("automaton cannot exceed built domain levels")
        self.ds = ds
        self.levels = levels
        g = ds.group
        if prev is None:
            start = 0
            ctx = g.context_identity()
            ctx_row = np.array([() if ctx is None else ctx], dtype=np.int64)
            self.states = [np.hstack([ds.domain_array(0), ctx_row])]
            self.first_transition, self.trans_digit, self.trans_state = [], [], []
            carries = [ds.domain_array(0)]
        else:
            start = prev.levels
            self.states = list(prev.states)
            self.first_transition = list(prev.first_transition)
            self.trans_digit = list(prev.trans_digit)
            self.trans_state = list(prev.trans_state)
            carries = list(prev.carry_range.rows)
        for j in range(start + 1, levels + 1):
            self._close_level(j)
            carry = self.carry_rows(j)
            _, first = np.unique(row_keys(carry), return_index=True)  # sorted as sort_key sorts
            carries.append(carry[first])
        self.carry_range = CarryRange(carries, ds)

    def _close_level(self, j: int) -> None:
        """Append level j's tables and parent pointers and the states entering level j+1.

        The inputs pass ``check_bounds`` once, and each block's products once
        before the next ``mul_rows``, which refuses what ``vec_mul`` would.  A
        level is refused before anything is formed when its tables (an int64 per
        transition (state, p, q)) or one state's block of state rows would exceed
        ``ARRAY_BUDGET``.
        """
        ds, g = self.ds, self.ds.group
        src = self.states[j - 1]
        carry, ctx = src[:, : g.dim], src[:, g.dim :]
        place = ds.size(j - 1)
        na = ds.size(j) // place
        nbytes = over_budget(len(src) * na * na, 1) or over_budget(na * na, src.shape[1])
        if nbytes:
            raise ConstructionError(
                f"level {j}: closing the carry automaton over {len(src) * na * na} transitions "
                f"takes {nbytes} bytes, over the {ARRAY_BUDGET}-byte budget"
            )
        alpha = ds.alphabet_rows(j)  # the digit T_j[i] has rank i·size(j-1)
        alpha_inv = g.vec_inv(alpha)
        g.check_bounds(src, alpha_inv)
        tdig = np.empty((len(src), na, na), dtype=table_dtype(na - 1))
        tstate = np.empty((len(src), na, na), dtype=np.int64)
        block_rows, block_first = [], []  # per block: its distinct new states, first transitions
        found = 0
        per = max(1, _CLOSURE_ROWS // na**2)  # source states per block
        for lo in range(0, len(src), per):
            hi = min(lo + per, len(src))
            # c = carry·(s^{-1}·p·s)·q at (state, p, q), q innermost.
            c = g.conj_rows(ctx[lo:hi, None], alpha)
            g.check_bounds(c)
            c = g.mul_rows(carry[lo:hi, None], c)
            g.check_bounds(c)
            c = g.mul_rows(c[:, :, None], alpha).reshape(-1, g.dim)
            # c lies in Γ_{j-1}, so its level-j head is the digit T_j[i] at rank
            # i·size(j-1), and the carry is T_j[i]^{-1}·c; ``vec_rank`` checks c.
            i = ds.vec_rank(c, j) // place
            rows = np.empty((hi - lo, na, na, src.shape[1]), dtype=np.int64)
            rows[..., g.dim :] = g.vec_context_step(ctx[lo:hi, None, None], alpha)
            rows = rows.reshape(len(c), -1)
            rows[:, : g.dim] = g.mul_rows(alpha_inv[i], c)
            first, number = _first_occurrence(rows)
            tdig[lo:hi] = i.reshape(hi - lo, na, na)
            tstate[lo:hi] = (number + found).reshape(hi - lo, na, na)
            found += len(first)
            block_rows.append(rows[first])
            block_first.append(first + lo * na * na)
        # Blocks run in transition order, so numbering the blocks' distinct
        # states by first occurrence numbers the level's states the same way.
        rows = np.concatenate(block_rows)
        first, number = _first_occurrence(rows)
        self.trans_digit.append(tdig)
        self.trans_state.append(number.astype(table_dtype(len(first) - 1))[tstate])
        self.first_transition.append(np.concatenate(block_first)[first])
        self.states.append(rows[first])

    def _check_level(self, n: int) -> None:
        if not 0 <= n <= self.levels:
            raise ConstructionError(f"automaton built to levels 0..{self.levels}, need {n}")

    def carry_rows(self, n: int) -> np.ndarray:
        """The carries entering level n+1 as element rows, by state: a view of ``states[n]``."""
        self._check_level(n)
        return self.states[n][:, : self.ds.group.dim]

    def digit_strings(self, n: int, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Digit-index strings, (len(states), n) each, of two factors first reaching ``states[n][states]``."""
        self._check_level(n)
        g_idx = np.zeros((len(states), n), dtype=np.int64)
        h_idx = np.zeros_like(g_idx)
        for j in range(n, 0, -1):
            na = self.trans_digit[j - 1].shape[1]
            states, pq = np.divmod(self.first_transition[j - 1][states], na * na)
            g_idx[:, j - 1], h_idx[:, j - 1] = np.divmod(pq, na)
        return g_idx, h_idx

    def step(self, j: int, flat):
        """Product digit indices and next states of the level-j transitions ``flat``.

        ``flat`` indexes the flattened tables, (state·|T_j| + p)·|T_j| + q: an
        integer gives two ints, an index array or a slice two int64 arrays.
        NumPy keeps a narrow unsigned type through arithmetic with an int, and
        wraps, so the tables are read only here, widened.
        """
        digit, state = self.trans_digit[j - 1].reshape(-1), self.trans_state[j - 1].reshape(-1)
        if isinstance(flat, (int, np.integer)):
            return digit.item(flat), state.item(flat)
        return digit[flat].astype(np.int64), state[flat].astype(np.int64)

    # -- scalar evaluation ----------------------------------------------------

    def product_digit_indices(
        self, g_idx: Sequence[int], h_idx: Sequence[int], n: int
    ) -> tuple[tuple[int, ...], Elem]:
        """Digit indices of the product prefix and the carry entering level n+1.

        A missing digit index is 0; one outside the level's alphabet is refused.
        """
        self._check_level(n)
        state = 0
        out = []
        for j in range(1, n + 1):
            pi = g_idx[j - 1] if j <= len(g_idx) else 0
            qi = h_idx[j - 1] if j <= len(h_idx) else 0
            na = self.trans_digit[j - 1].shape[1]
            for i in (pi, qi):
                if not 0 <= i < na:
                    raise ConstructionError(
                        f"digit index {i} outside 0..{na - 1} at level {j}, whose alphabet has {na} digits"
                    )
            digit, state = self.step(j, (state * na + pi) * na + qi)
            out.append(digit)
        return tuple(out), self.ds.group.from_array(self.carry_rows(n)[state : state + 1])[0]

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
        check_ranks(self.ds.size(n), n, g_rank, h_rank)
        state = np.zeros(len(g_rank), dtype=np.int64)
        out = np.zeros(len(g_rank), dtype=np.int64)
        for j in range(1, n + 1):
            na = len(self.ds.alphabet_rows(j))
            g_rank, pi = np.divmod(g_rank, na)
            h_rank, qi = np.divmod(h_rank, na)
            digit, state = self.step(j, (state * na + pi) * na + qi)
            out += digit * self.ds.size(j - 1)
        return out, state


def table_dtype(top: int) -> np.dtype:
    """The narrowest unsigned type holding 0..top: a transition table holds digit indices or state numbers."""
    return np.min_scalar_type(top)


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


def check_ranks(size: int, n: int, *ranks) -> None:
    """Reject level-n ranks (ints or int64 arrays) outside 0..size-1; an int is checked as an int."""
    for r in ranks:
        if isinstance(r, int):
            lo = hi = r
        elif np.size(r):
            lo, hi = np.min(r), np.max(r)
        else:
            continue
        if lo < 0 or hi >= size:
            raise ConstructionError(f"ranks {lo}..{hi} outside 0..{size - 1} at level {n}")


def _first_occurrence(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the distinct rows in order of first occurrence, and each row's number among them."""
    distinct, inverse = np.unique(row_keys(rows), return_inverse=True)
    first = np.full(len(distinct), len(rows))  # each distinct row's first index, by one scatter
    np.minimum.at(first, inverse, np.arange(len(rows)))
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return first[order], number[inverse]


# -- digit strings and carries ------------------------------------------------
# A digit string is a tuple of alphabet elements, level 1 first, as ``DomainSequence.digits``
# and ``digit_prefix`` return it.


def _conjugation_witness(auto: CarryAutomaton, n: int) -> dict | None:
    """The first (level, state, digit), levels 1..n, whose conjugated digit differs from the raw digit.

    Only a nonabelian group has one.
    """
    ds, g = auto.ds, auto.ds.group
    for j in range(1, n + 1):
        ctx = auto.states[j - 1][:, g.dim :]
        alpha = ds.alphabet_rows(j)
        g.check_bounds(ctx, alpha)
        conj = g.conj_rows(ctx[:, None], alpha)
        moved = np.flatnonzero((conj != alpha).any(axis=-1))
        if moved.size:
            s, p = divmod(int(moved[0]), len(alpha))
            return {
                "level": j,
                "context": tuple(ctx[s].tolist()),
                "digit": g.from_array(alpha[p : p + 1])[0],
                "conjugated": g.from_array(conj[s, p][None])[0],
            }
    return None


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
    ds: DomainSequence, dg: Sequence[Elem], dh: Sequence[Elem], n: int
) -> tuple[tuple[Elem, ...], Elem]:
    """First n digits of the product and the carry entering level n+1.

    Computed purely from the factors' digits through the carry recursion; the
    factors are never multiplied directly.
    """
    auto = ds.automaton(n)
    g_idx = [ds.alphabet_index(j + 1, t) for j, t in enumerate(dg[:n])]
    h_idx = [ds.alphabet_index(j + 1, t) for j, t in enumerate(dh[:n])]
    out_idx, carry = auto.product_digit_indices(g_idx, h_idx, n)
    prefix = tuple(ds.alphabet(j + 1)[i] for j, i in enumerate(out_idx))
    return prefix, carry


def carry_ranges(ds: DomainSequence, up_to: int) -> CarryRange:
    """Exact carry value sets K_1..K_{up_to} with witnesses.

    K_j only involves transitions through level j-1, so ``up_to`` may exceed the
    built levels by one.

    Lemma B: on Z and Z2, K_1 = {0} and K_n = {0, m_{n-1}}^d for n >= 2, exactly.
    There D_n is the box [0, m_n)^d (Lemma A on Z; on Z2 the canonical
    transversals are grids), and a level-n digit has each coordinate in
    [0, m_n - m_{n-1}].  The carry entering level n+1 is the tail of d + p + q,
    with d ∈ K_n and p, q level-n digits.  If K_n ⊆ {0, m_{n-1}}^d, each
    coordinate of d + p + q lies in [0, 2·m_n - m_{n-1}], below 2·m_n, so its
    tail is 0 or m_n.  Each coordinate takes either value on its own: 0 at
    p = q = 0, and m_n at p = q = (r_n - 1)·m_{n-1} with d = 0, since the ratio
    r_n = m_n/m_{n-1} is at least 2.  So the sets of an abelian group are
    written down here, and its automaton is closed only when the witnesses are
    read.  On any other group the automaton is closed to level ``up_to - 1``.
    """
    if up_to < 1 or up_to > ds.levels + 1:
        raise ConstructionError(f"carry ranges available for 1..{ds.levels + 1}")
    g = ds.group
    if g.abelian:
        corners = np.array(list(itertools.product((0, 1), repeat=g.dim)), dtype=np.int64)
        rows = [ds.domain_array(0)] + [corners * ds.modulus(n) for n in range(1, up_to)]
        return CarryRange(rows, ds)
    return CarryRange(ds.automaton(up_to - 1).carry_range.rows[:up_to], ds)


def verify_carry_identity(ds: DomainSequence, level: int, chunk: int = 1 << 15) -> dict:
    """Exhaustive two-route check of the carry recursion on D_level × D_level.

    A level-n rank is r + size(n-1)·d with r a D_{n-1} rank and d a level-n
    digit index, and ``append_level`` builds D_n so that
    D_n[r + size(n-1)·d] = D_{n-1}[r]·T_n[d].  Route A reads each pair's
    product off the carry automaton: each prefix pair of D_{n-1} × D_{n-1}
    gives the prefix rank r and state s, and one step table, built once per
    call over the level-n transitions (s, p, q), holds T_n[d]·c for the digit
    d and next state's carry c, with a flag for c ∈ Γ_n.  So route A's
    D_n[rank]·c is D_{n-1}[r]·step[s, p, q].  Route B multiplies each block's
    factors directly, as one broadcast product g·h.  A pair passes iff
    D_n[rank]·c = g·h and c lies in Γ_n.  That is the same as rank being the
    head rank of g·h and c its tail, because D_n is a transversal of G/Γ_n:
    D_n[rank] = g·h·c^{-1} lies in the coset g·h·Γ_n exactly when c ∈ Γ_n.

    The left factors are taken in groups of consecutive left prefixes g_low,
    and within a group by top digit p: a block holds the left factors
    g_low + size(n-1)·p of one group and of one or more top digits, against
    all of D_n, about ``chunk`` pairs per block (at least one left factor).
    A level-(n-1) rank is a + size(n-2)·d, so a prefix pair's rank and state
    are one level-(n-1) transition from those of its pair of D_{n-2} ranks:
    ``batch_product`` runs once per call, over D_{n-2} × D_{n-2} (level 1's
    prefix table is D_0's, 1×1), and each group gathers its prefix pairs from
    that table and the level-(n-1) transitions; those ranks and states serve
    every top digit.  So working memory is bounded by ``chunk``, the step
    table and the size(n-2)² table, not by size(n-1)².  A block is laid out
    (p, g_low, h_low, q) for the right factor D_n[h_low + size(n-1)·q],
    q innermost, and every operand is stored coordinate-major, as C-contiguous
    ``(dim, ...)`` columns, so the products and comparisons run on contiguous
    memory.  The step table is viewed as ``(dim, S·|T_n|, |T_n|)``, so row
    s·|T_n| + p holds every q: route A gathers one whole row per (p, prefix
    pair) and multiplies it by D_{n-1}[r], gathered once per group and
    repeated across q; route B multiplies g by one copy of D_n laid out
    ``(dim, size(n-1), |T_n|)``.  A step value depends only on (d, next
    state), so the products are formed once for each pair some transition
    reaches.  Every block operand is a gather or a view of those step values,
    D_{n-1} and D_n, so these rows pass ``exact_dtype`` once, and the step
    table and domain columns are formed straight in the dtype it answers:
    ``exact_dtype`` refuses values at 2**30 and answers the narrowest of
    int16, int32 and int64 holding the coordinate-wise largest magnitude M
    and the group law's product of M with itself, which bounds every product
    the blocks form.  The blocks multiply with the unchecked ``mul_rows`` in
    that dtype.  The carries and the conjugation witness's contexts are read
    off the automaton's state rows; no witness digit string is built.
    ``SPOT_CHECKS`` seeded rank pairs run through one ``batch_product`` call and
    are checked one by one against g·h by the group law: its ``rank_of`` and
    ``tail``, and the spelled product digits times the carry.  Returns a summary
    with the mismatch count (must be zero), the number of pairs, a nonabelian
    conjugation witness when one exists, and the spot-check failure count; it
    does not depend on ``chunk``.
    """
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
    witness_alpha = _conjugation_witness(auto, n)

    def as_rows(cols: np.ndarray) -> np.ndarray:
        return cols.transpose(*range(1, cols.ndim), 0)  # a (dim, ...) array viewed as rows

    # A step value T_n[d]·c depends only on the digit d and the next state, so
    # it is formed once for each (d, next state) pair that some transition reaches.
    carry_elems = auto.carry_rows(n)  # by state index
    alphabet = ds.alphabet_rows(n)
    g.check_bounds(alphabet, carry_elems)
    step_digit, step_state = auto.step(n, slice(None))
    step_ok = (g.vec_residue_rank(carry_elems, ds.modulus(n)) == 0)[step_state].reshape(-1, na)
    pair_of = step_digit * len(carry_elems) + step_state
    del step_digit, step_state
    reached = np.zeros(na * len(carry_elems), dtype=bool)
    reached[pair_of] = True
    pair_digit, pair_state = np.divmod(np.flatnonzero(reached), len(carry_elems))
    pair_step = g.mul_rows(alphabet[pair_digit], carry_elems[pair_state])
    # Every product operand below is a gather or a view of the step values and
    # the two domains, so they are checked once, and the operands are formed
    # straight in the narrowest exact dtype.
    dt = g.exact_dtype(pair_step, ds.domain_array(n - 1), ds.domain_array(n))
    low_cols = np.ascontiguousarray(ds.domain_array(n - 1).T, dtype=dt)
    # D_n[h_low + low·q] at (h_low, q): q innermost, like the step table's rows.
    dom_cols = np.ascontiguousarray(ds.domain_array(n).reshape(na, low, g.dim).transpose(2, 1, 0), dtype=dt)
    # The step table is (dim, S·|T_n|, |T_n|): row s·|T_n| + p holds every q.
    table = np.zeros((g.dim, len(reached)), dtype=dt)
    table[:, reached] = pair_step.T  # zero where no transition reaches
    del pair_digit, pair_state, pair_step
    step = table.take(pair_of, axis=1).reshape(g.dim, -1, na)
    del table, pair_of  # the blocks below hold only the step table
    right = as_rows(dom_cols[:, None, None])  # at (1, 1, h_low, q)

    # Route A's prefixes.  A level-(n-1) rank is a + size(n-2)·d, so the rank
    # and state of a prefix pair are one level-(n-1) transition from those of
    # its pair of D_{n-2} ranks, which ``batch_product`` gives once per call.
    # Level 1's prefixes are D_0's, and take no transition.
    base = max(n - 2, 0)
    low2 = ds.size(base)
    na1 = low // low2
    base_ranks = np.arange(low2)
    base_rank, base_state = (
        t.reshape(low2, low2)
        for t in auto.batch_product(np.repeat(base_ranks, low2), np.tile(base_ranks, low2), base)
    )
    prefix = np.arange(low)
    db, b = np.divmod(prefix, low2)  # right prefixes b + size(n-2)·db
    rows = max(1, chunk // size)  # left factors per block
    width = min(rows, low)  # left prefixes per block and per group
    tops = max(1, rows // low)  # top digits per block
    for g0 in range(0, low, width):
        g_low = prefix[g0 : g0 + width]
        da, a = np.divmod(g_low, low2)  # left prefixes a + size(n-2)·da
        flat = ((base_state[a][:, b] * na1 + da[:, None]) * na1 + db).reshape(-1)
        pre_digit, pre_state = auto.step(n - 1, flat) if n > 1 else (np.zeros_like(flat),) * 2
        pre_rank = base_rank[a][:, b].reshape(-1) + low2 * pre_digit
        # D_{n-1}[r] at (1, g_low, h_low, q), repeated across q once per group.
        head = np.repeat(low_cols.take(pre_rank, axis=1), na, axis=1).reshape(g.dim, 1, len(g_low), low, na)
        pre_row = pre_state.reshape(len(g_low), low) * na  # step row of (s, 0)
        for p0 in range(0, na, tops):
            p = np.arange(p0, min(p0 + tops, na))
            row = pre_row + p[:, None, None]  # step row of (s, p) at (p, g_low, h_low)
            route_a = g.mul_rows(as_rows(head), as_rows(step.take(row, axis=1)))
            left = dom_cols[:, g0 : g0 + len(g_low), p0 : p0 + len(p)].transpose(0, 2, 1)
            route_b = g.mul_rows(as_rows(left[..., None, None]), right)
            ok = step_ok.take(row, axis=0)
            for k in range(g.dim):  # each coordinate is one contiguous column
                ok &= route_a[..., k] == route_b[..., k]
            mismatches += ok.size - int(np.count_nonzero(ok))
            total += ok.size
            del route_a, route_b  # free this block's products before the next block forms its own

    rng = random.Random(SPOT_CHECK_SEED)
    spot = np.array([rng.randrange(size) for _ in range(2 * SPOT_CHECKS)])  # pairs (a, b) in turn
    spot_rank, spot_state = auto.batch_product(spot[0::2], spot[1::2], n)
    factors, carries = g.from_array(ds.domain_array(n)[spot]), g.from_array(carry_elems[spot_state])
    spot_bad = 0
    for x, y, rank, carry in zip(factors[0::2], factors[1::2], spot_rank.tolist(), carries):
        prod = g.mul(x, y)
        spot_bad += rank != ds.rank_of(prod, n) or carry != ds.tail(prod, n)
        spot_bad += reconstruct(ds, ds.spell(rank, n), carry) != prod
    return {
        "pairs": total,
        "mismatches": mismatches,
        "spot_check_failures": spot_bad,
        "alpha_witness": witness_alpha,
    }
