"""Domains, digit expansions, and carry arithmetic."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from odowin import expansion, presets
from odowin.expansion import (
    _CLOSURE_ROWS,
    SPOT_CHECK_SEED,
    SPOT_CHECKS,
    CarryAutomaton,
    DomainSequence,
    carry_mul,
    carry_ranges,
    reconstruct,
    verify_carry_identity,
)
from odowin.groups import ConstructionError, SubgroupChain, geometric_moduli, group_by_name

Z = group_by_name("Z")
H = group_by_name("Heisenberg")


# -- independent oracles -------------------------------------------------------


def euclid_head(g, m):
    """Unique representative of g mod m in [0, m): Euclidean division oracle."""
    return g - m * (g // m)


def mixed_radix_digits(g, moduli):
    """Scaled digits of a nonnegative integer for a modulus chain (oracle)."""
    digits, prev = [], 1
    for m in moduli:
        digits.append(euclid_head(g, m) - euclid_head(g, prev))
        prev = m
    return digits


def reference_closure(ds, levels):
    """Scalar closure of the carry automaton: one Python step per transition.

    States are numbered in the order the (state, p, q) loop first reaches
    them; each records the digit-index strings of its first transition.
    Returns (states, state_witnesses, trans_digit, trans_state, carry sets,
    carry witnesses).
    """
    g = ds.group
    states = [[(g.identity, g.context_identity())]]
    state_witnesses = [[((), ())]]
    trans_digit, trans_state = [], []
    for j in range(1, levels + 1):
        cur, cur_wit = states[j - 1], state_witnesses[j - 1]
        alpha = ds.alphabet(j)
        alpha_inv = [g.inv(t) for t in alpha]
        na, place = len(alpha), ds.size(j - 1)
        tdig = np.empty((len(cur), na, na), dtype=np.int64)
        tstate = np.empty((len(cur), na, na), dtype=np.int64)
        nxt_index, nxt, nxt_wit = {}, [], []
        for si, (carry, ctx) in enumerate(cur):
            gw, hw = cur_wit[si]
            for pi, p in enumerate(alpha):
                base = g.mul(carry, g.conj_in_context(ctx, p))
                for qi, q in enumerate(alpha):
                    c = g.mul(base, q)
                    i = ds.rank_of(c, j) // place
                    tdig[si, pi, qi] = i
                    key = (g.mul(alpha_inv[i], c), g.context_step(ctx, q))
                    ni = nxt_index.get(key)
                    if ni is None:
                        ni = nxt_index[key] = len(nxt)
                        nxt.append(key)
                        nxt_wit.append((gw + (pi,), hw + (qi,)))
                    tstate[si, pi, qi] = ni
        trans_digit.append(tdig)
        trans_state.append(tstate)
        states.append(nxt)
        state_witnesses.append(nxt_wit)
    witnesses = []
    for lvl, wits in zip(states, state_witnesses):
        wit_j = {}
        for (carry, _ctx), w in zip(lvl, wits):
            wit_j.setdefault(carry, w)
        witnesses.append(wit_j)
    sets = [sorted({c for c, _ in lvl}, key=g.sort_key) for lvl in states]
    return states, state_witnesses, trans_digit, trans_state, sets, witnesses


def state_pairs(auto, j):
    """The states entering level j+1 as (carry, context) pairs, read off the state rows."""
    g, rows = auto.ds.group, auto.states[j]
    assert rows.dtype == np.int64 and rows.shape[1] == g.dim + (0 if g.abelian else 2)
    ctxs = [None] * len(rows) if g.abelian else [tuple(x) for x in rows[:, g.dim :].tolist()]
    return list(zip(g.from_array(auto.carry_rows(j)), ctxs))


def state_witnesses(auto, j):
    """Each level-j state's witness, spelled from the parent pointers."""
    g_idx, h_idx = auto.digit_strings(j, np.arange(len(auto.states[j])))
    return [(tuple(a), tuple(b)) for a, b in zip(g_idx.tolist(), h_idx.tolist())]


def assert_matches_reference(auto, ref):
    states, witnesses, trans_digit, trans_state, sets, carry_witnesses = ref
    levels = range(auto.levels + 1)
    # Compared as flags, so a failure does not make pytest diff huge values.
    # repr also tells element types apart (np.int64 prints as np.int64(...)).
    for name, got, want in (
        ("states", [state_pairs(auto, j) for j in levels], states),
        ("witnesses", [state_witnesses(auto, j) for j in levels], witnesses),
        ("carry sets", auto.carry_range.sets, sets),
        ("carry witnesses", auto.carry_range.witnesses, carry_witnesses),
    ):
        same = got == want and repr(got) == repr(want)
        assert same, f"{name} differ from the reference closure"
    # The reference tables are int64; the automaton's are narrow, compared by value.
    for got, want in zip(auto.trans_digit + auto.trans_state, trans_digit + trans_state):
        assert got.dtype.kind == "u" and np.array_equal(got, want)
    assert len(auto.trans_digit) == len(trans_digit) == auto.levels


# -- domains ---------------------------------------------------------------------


def test_decimal_domains(ds_z_dec):
    assert ds_z_dec.domain_list(2) == list(range(100))  # oracle: residue enumeration
    assert Z.identity in ds_z_dec.domain_list(1)
    assert ds_z_dec.size(3) == 1000


def test_domains_nested_and_sized(ds_z_carry, ds_heis):
    for ds in (ds_z_carry, ds_heis):
        for n in range(1, ds.levels):
            assert set(ds.domain_list(n)) <= set(ds.domain_list(n + 1))
        for n in range(1, ds.levels + 1):
            assert ds.size(n) == ds.index(n)


def test_heisenberg_domain_count():
    ds = DomainSequence.build(SubgroupChain(H, [4, 16]), 2)
    assert ds.size(2) == 4**6  # index (4^2)^3


def test_alphabet_is_domain_cap_subgroup(ds_z_carry, ds_heis):
    for ds in (ds_z_carry, ds_heis):
        for n in range(2, 4):
            grp, m = ds.group, ds.modulus(n - 1)
            members = {g for g in ds.domain_list(n) if grp.residue(g, m) == grp.identity}
            assert members == set(ds.alphabet(n))
            ratio = ds.index(n) // ds.index(n - 1)
            assert len(ds.alphabet(n)) == ratio


def test_product_structure(ds_z_carry):
    # each level is exactly the set of previous-domain times alphabet products
    for n in range(2, 4):
        prods = {
            Z.mul(d, t)
            for t in ds_z_carry.alphabet(n)
            for d in ds_z_carry.domain_list(n - 1)
        }
        assert prods == set(ds_z_carry.domain_list(n))


def test_transversal_outside_subgroup_rejected():
    class BadZ(type(Z)):
        def canonical_transversal(self, m_prev, m):
            reps = super().canonical_transversal(m_prev, m)
            if m_prev > 1:
                reps[1] = reps[1] + 1  # no longer a multiple of m_prev
            return reps

    ds = DomainSequence(BadZ())
    ds.append_level(4)
    with pytest.raises(ConstructionError):
        ds.append_level(8)


def _broken_z(reps):
    """Z whose transversal for (m_prev, m) is replaced by ``reps[(m_prev, m)]``."""

    class BrokenZ(type(Z)):
        def canonical_transversal(self, m_prev, m):
            return reps.get((m_prev, m)) or super().canonical_transversal(m_prev, m)

    return BrokenZ()


@pytest.mark.parametrize(
    "moduli, reps, message",
    [
        ([2], {(1, 2): [1, 0]}, "level 1: transversal must start with the identity"),
        ([2, 4], {(2, 4): [0, 1]}, "level 2: transversal element 1 not in the previous subgroup"),
        ([2, 4], {(2, 4): [0, 4]}, "level 2: duplicate coset for 4 and 0"),
        ([2], {(1, 2): [0]}, "level 1: domain has 1 elements, index is 2"),
        ([2, 1 << 28], {}, "level 2: modulus 268435456 gives a domain of 268435456 elements "
         "(2147483648 bytes), over the 1073741824-byte budget for one level"),
    ],
)
def test_append_level_rejections(moduli, reps, message):
    ds = DomainSequence(_broken_z(reps))
    for m in moduli[:-1]:
        ds.append_level(m)
    with pytest.raises(ConstructionError) as exc:
        ds.append_level(moduli[-1])
    assert str(exc.value) == message
    assert ds.levels == len(moduli) - 1  # a rejected level leaves nothing behind


def test_append_level_memory_is_four_domains():
    # D_n, its residues, np.arange and the residue -> rank table: four 32 MiB arrays for a
    # 2^22-element level on Z after 16, 512 and 32768.  Checking the whole domain for
    # duplicate cosets held a fifth (164 MiB); the transversal check runs on T_n alone.
    ds = DomainSequence(Z)
    for m in (16, 512, 32768):
        ds.append_level(m)
    tracemalloc.start()
    try:
        ds.append_level(1 << 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 136 << 20
    assert np.array_equal(ds.vec_rank(ds.domain_array(4), 4), np.arange(1 << 22))


def test_level_zero_is_the_whole_group(ds_z_dec):
    # m_0 = 1: every element lies in the single level-0 cylinder, of rank 0
    assert ds_z_dec.modulus(0) == 1 and ds_z_dec.index(0) == 1
    assert ds_z_dec.rank_of(5, 0) == 0 and ds_z_dec.head(5, 0) == 0
    assert ds_z_dec.vec_rank(np.array([[5], [-7], [999]]), 0).tolist() == [0, 0, 0]
    assert DomainSequence(Z).modulus(0) == 1
    for n in (-1, ds_z_dec.levels + 1):
        for query in (ds_z_dec.modulus, ds_z_dec.size):
            with pytest.raises(ConstructionError):
                query(n)


def test_alphabets_exist_at_levels_one_to_top():
    ds = presets.domains("z-carry", 3)
    assert ds.alphabet(3) == (0, 8, 16, 24)
    for n in (-1, 0, 4):
        with pytest.raises(ConstructionError):
            ds.alphabet(n)


def test_element_of_rank_rejects_ranks_outside_the_level():
    ds = presets.domains("z-carry", 3)
    assert ds.element_of_rank(ds.size(2) - 1, 2) == 7
    for rank in (-1, ds.size(2)):
        with pytest.raises(ConstructionError) as exc:
            ds.element_of_rank(rank, 2)
        assert str(exc.value) == f"rank {rank} outside 0..7 at level 2"
    with pytest.raises(ConstructionError):
        ds.element_of_rank(0, 4)


def test_radix_digits_reject_levels_outside_the_domains():
    ds = presets.domains("z-carry", 3)
    assert ds.radix_digits(5, 3) == [1, 2, 0] and ds.radix_digits(0, 0) == []
    for n in (-1, 4, 10):
        with pytest.raises(ConstructionError, match=f"level {n} outside the built levels 0..3"):
            ds.radix_digits(5, n)
    # A rank outside 0..size(n)-1 must not wrap into another cylinder: 8 would
    # read as rank 0 and -1 as rank 7 at level 2, as an int or in an array.
    assert ds.size(2) == 8 and ds.radix_digits(7, 2) == [1, 3]
    for bad, shown in ((8, "8..8"), (-1, "-1..-1"), (np.array([0, 8]), "0..8"), (np.array([-1, 7]), "-1..7")):
        with pytest.raises(ConstructionError) as exc:
            ds.radix_digits(bad, 2)
        assert str(exc.value) == f"ranks {shown} outside 0..7 at level 2"


def test_products_reject_ranks_outside_the_level():
    # a rank >= size(n) or < 0 must not wrap into another cylinder
    ds = presets.domains("z-carry", 3)
    auto = ds.automaton(3)
    ok = np.array([0, 31])
    for bad in ([33, 0], [-1, 0], [0, 32]):
        bad = np.array(bad)
        for a, b in ((bad, ok), (ok, bad)):
            with pytest.raises(ConstructionError, match="outside 0..31 at level 3"):
                auto.batch_product(a, b, 3)
            with pytest.raises(ConstructionError, match="outside 0..31 at level 3"):
                ds.product_ranks(a, b, 3)
    for a, b in ((-1, ok), (ok, 32)):
        with pytest.raises(ConstructionError, match="outside 0..31 at level 3"):
            ds.product_ranks(a, b, 3)
    assert auto.batch_product(ok, ok, 3)[0].tolist() == ds.product_ranks(ok, ok, 3).tolist()


@pytest.mark.parametrize("name", ["z-carry", "z2-pow2", "heis-pow2"])
def test_product_ranks_match_the_carry_automaton(name):
    # exhaustive on D_3 × D_3: every scalar left factor against all of D_3,
    # then every scalar right factor, against batch_product's carry recursion
    n = 3
    ds = presets.domains(name, n)
    auto = ds.automaton(n)
    ranks = np.arange(ds.size(n))
    for r in ranks.tolist():
        same = np.full_like(ranks, r)
        assert np.array_equal(ds.product_ranks(r, ranks, n), auto.batch_product(same, ranks, n)[0])
        assert np.array_equal(ds.product_ranks(ranks, r, n), auto.batch_product(ranks, same, n)[0])


@pytest.mark.parametrize("name", ["z-carry", "z2-pow2", "heis-pow2"])
def test_rank_lookups_match_digit_strings(name):
    # oracle: D_n as the set of products of all level-1..n digit strings
    levels = 3
    ds = presets.domains(name, levels)
    grp = ds.group
    doms = [
        {reconstruct(ds, s) for s in itertools.product(*map(ds.alphabet, range(1, n + 1)))}
        for n in range(levels + 1)
    ]
    rng = random.Random(11)
    reach = 2 * ds.modulus(levels)
    outside = [
        tuple(rng.randrange(-reach, reach) for _ in range(grp.dim)) for _ in range(200)
    ]
    probes = sorted(doms[levels], key=grp.sort_key) + [
        c if grp.dim > 1 else c[0] for c in outside
    ]

    def plain(e):
        return all(type(c) is int for c in (e if isinstance(e, tuple) else (e,)))

    for n in range(levels + 1):
        m = ds.modulus(n)
        head_of_residue = {grp.residue(h, m): h for h in doms[n]}
        for g in probes:
            head = ds.head(g, n)
            assert (head == g) == (g in doms[n])
            assert head == head_of_residue[grp.residue(g, m)] and plain(head)
        for rank in range(ds.size(n)):
            assert plain(ds.element_of_rank(rank, n))
    for g in probes:
        if g in doms[levels]:
            assert ds.depth(g) == min(n for n in range(levels) if g in doms[n + 1])
        else:
            with pytest.raises(ConstructionError):
                ds.depth(g)
    for n in range(1, levels + 1):
        alphabet = ds.alphabet(n)
        for g in probes:
            if g in alphabet:
                assert ds.alphabet_index(n, g) == alphabet.index(g)
            else:
                with pytest.raises(KeyError):
                    ds.alphabet_index(n, g)


# -- decomposition -----------------------------------------------------------------


def test_decompose_examples(ds_z_dec):
    assert ds_z_dec.decompose(23, 1) == (euclid_head(23, 10), 20) == (3, 20)
    assert ds_z_dec.decompose(-1, 1) == (euclid_head(-1, 10), -10) == (9, -10)
    assert ds_z_dec.decompose(0, 2) == (0, 0)
    head, tail = ds_z_dec.decompose(12345, 0)
    assert head == Z.identity and tail == 12345


def test_decompose_invariants(ds_heis):
    rng = random.Random(5)
    doms = [set(ds_heis.domain_list(n)) for n in range(4)]
    for _ in range(100):
        g = (rng.randrange(-40, 40), rng.randrange(-40, 40), rng.randrange(-40, 40))
        for n in (1, 2, 3):
            head, tail = ds_heis.decompose(g, n)
            assert head in doms[n]
            assert H.residue(tail, ds_heis.modulus(n)) == H.identity
            assert H.mul(head, tail) == g


# -- digit expansions -----------------------------------------------------------------


def test_expand_examples(ds_z_dec, ds_z_carry):
    assert ds_z_dec.digits(235) == (5, 30, 200) and ds_z_dec.depth(235) == 2
    assert ds_z_dec.digits(0) == (0,) and ds_z_dec.depth(0) == 0
    # mixed-radix chain 2, 8, 32: oracle digits
    for g in range(ds_z_carry.size(3)):
        d = ds_z_carry.digits(g)
        assert len(d) == ds_z_carry.depth(g) + 1
        assert list(d) == mixed_radix_digits(g, ds_z_carry.moduli[: len(d)])


def test_expand_reconstructs(ds_heis):
    for g in ds_heis.domain_list(3):
        d = ds_heis.digits(g)
        assert reconstruct(ds_heis, d) == g
        assert d[-1] != H.identity or g == H.identity


def test_expand_outside_domains_raises(ds_z_dec):
    with pytest.raises(ConstructionError):
        ds_z_dec.digits(-1)  # negative integers have no finite digit string here


def test_uniqueness_by_exhaustive_recomposition(ds_z_carry, ds_heis):
    # every digit string of length 3 is the expansion of its own product
    for ds in (ds_z_carry, ds_heis):
        seen = set()
        for combo in itertools.product(*(ds.alphabet(j) for j in (1, 2, 3))):
            g = reconstruct(ds, combo)
            assert ds.digit_prefix(g, 3) == combo
            seen.add(g)
        assert seen == set(ds.domain_list(3))


def test_basic_digit_properties(ds_heis):
    ds = ds_heis
    rng = random.Random(7)
    dom = ds.domain_list(3)
    pairs = [(dom[rng.randrange(len(dom))], dom[rng.randrange(len(dom))]) for _ in range(200)]
    for g, h in pairs:
        for n in (1, 2, 3):
            # head = product of the first n digits
            assert ds.head(g, n) == reconstruct(ds, ds.digit_prefix(g, n))
            # equal heads iff equal digit prefixes
            assert (ds.head(g, n) == ds.head(h, n)) == (
                ds.digit_prefix(g, n) == ds.digit_prefix(h, n)
            )
            # digits of the head agree with digits of the element
            assert ds.digit_prefix(ds.head(g, 3), n) == ds.digit_prefix(g, n)
            # products and inverses only see heads
            assert ds.head(H.mul(g, h), n) == ds.head(H.mul(ds.head(g, n), ds.head(h, n)), n)
            assert ds.head(H.inv(g), n) == ds.head(H.inv(ds.head(g, n)), n)
    # two-sided invariance of the level-n digit under level-n subgroup shifts
    for g, _ in pairs[:50]:
        for n in (1, 2, 3):
            gamma = ds.alphabet(n + 1)[1] if n < 3 else (8, 0, 0)
            assert H.residue(gamma, ds.modulus(n)) == H.identity
            for shifted in (H.mul(gamma, g), H.mul(g, gamma)):
                assert ds.digit_prefix(shifted, n)[n - 1] == ds.digit_prefix(g, n)[n - 1]


# -- carry arithmetic ------------------------------------------------------------------


def test_carry_example_binary(ds_z_pow2):
    # 3 + 1 in the chain 2, 4, 8: digits (1,2) + (1,) -> (0,0,4) with carries 2, 4, 0
    dg, dh = ds_z_pow2.digits(3), ds_z_pow2.digits(1)
    assert dg == (1, 2) and dh == (1,)
    assert carry_mul(ds_z_pow2, dg, dh, 1) == ((0,), 2)
    assert carry_mul(ds_z_pow2, dg, dh, 2) == ((0, 0), 4)
    assert carry_mul(ds_z_pow2, dg, dh, 3) == ((0, 0, 4), 0)


def test_carry_identity_factor(ds_z_carry):
    ident = ds_z_carry.digits(0)
    for g in (5, 29, 100):
        dg = ds_z_carry.digits(g)
        prefix, carry = carry_mul(ds_z_carry, dg, ident, 4)
        assert prefix == ds_z_carry.digit_prefix(g, 4)
        assert carry == Z.identity


def test_carry_reconstruction_random(ds_heis):
    rng = random.Random(11)
    dom = ds_heis.domain_list(3)
    for _ in range(200):
        a, b = dom[rng.randrange(len(dom))], dom[rng.randrange(len(dom))]
        prefix, carry = carry_mul(
            ds_heis, ds_heis.digit_prefix(a, 3), ds_heis.digit_prefix(b, 3), 3
        )
        assert reconstruct(ds_heis, prefix, carry) == H.mul(a, b)


def test_carry_ranges_binary(ds_z_pow2):
    rng = carry_ranges(ds_z_pow2, 3)
    assert rng.level(1) == [0]  # always the identity alone
    assert rng.level(2) == [0, 2]  # oracle: carries of {0,1}+{0,1} under the level map
    assert rng.level(3) == [0, 4]


def test_carry_ranges_abelian_closure(ds_z_carry):
    # conjugation is trivial, so the one-step closure over carries and digit
    # pairs reproduces the reachable sets exactly
    got = carry_ranges(ds_z_carry, 4)
    expected = [{Z.identity}]
    for j in range(1, 4):
        nxt = set()
        for d in expected[-1]:
            for p in ds_z_carry.alphabet(j):
                for q in ds_z_carry.alphabet(j):
                    nxt.add(ds_z_carry.tail(d + p + q, j))
        expected.append(nxt)
    for j in range(1, 5):
        assert set(got.level(j)) == expected[j - 1]


def test_carry_witnesses_replay(ds_heis):
    rng = carry_ranges(ds_heis, 4)
    for j in range(2, 5):
        for carry, (g_idx, h_idx) in rng.witnesses[j - 1].items():
            gd = [ds_heis.alphabet(i + 1)[v] for i, v in enumerate(g_idx)]
            hd = [ds_heis.alphabet(i + 1)[v] for i, v in enumerate(h_idx)]
            _prefix, got = carry_mul(ds_heis, gd, hd, j - 1)
            assert got == carry


def test_carry_soundness_sampled(ds_heis):
    rng = carry_ranges(ds_heis, 4)
    rnd = random.Random(3)
    dom = ds_heis.domain_list(3)
    for _ in range(100):
        a, b = dom[rnd.randrange(len(dom))], dom[rnd.randrange(len(dom))]
        for j in (2, 3, 4):
            _prefix, carry = carry_mul(
                ds_heis, ds_heis.digit_prefix(a, 3), ds_heis.digit_prefix(b, 3), j - 1
            )
            assert carry in set(rng.level(j))


def level_arrays(auto):
    """Every per-level array of an automaton: state rows, parent pointers, transition tables."""
    return auto.states + auto.first_transition + auto.trans_digit + auto.trans_state


def test_automaton_extends_sharing_levels():
    # a later level extends the automaton; the grown automaton holds its
    # parent's arrays for the levels they share, and the result equals one
    # closure from level 1: tables and their types, state rows and order,
    # parent pointers, carry sets and witnesses
    for name in ("z-carry", "heis-pow2"):
        ds = presets.domains(name, 2)
        short = ds.automaton(2)
        ds.append_level(presets.chain(name).modulus(3))
        grown, fresh = ds.automaton(3), presets.domains(name, 3).automaton(3)
        for tables in ("states", "first_transition", "trans_digit", "trans_state"):
            shared = 3 if tables == "states" else 2  # levels 0..2, transitions into 1..2
            assert all(a is b for a, b in zip(getattr(grown, tables)[:shared], getattr(short, tables)))
        assert len(level_arrays(grown)) == len(level_arrays(fresh)) == 4 + 3 * 3
        for a, b in zip(level_arrays(grown), level_arrays(fresh)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert grown.carry_range.sets == fresh.carry_range.sets
        assert grown.carry_range.witnesses == fresh.carry_range.witnesses


@pytest.mark.parametrize("name", ["z-carry", "z2-pow2", "heis-pow2"])
def test_closure_matches_reference(name):
    ds = presets.domains(name, 4)
    assert_matches_reference(ds.automaton(4), reference_closure(ds, 4))


def test_automaton_rejects_levels_outside_its_tables():
    ds = presets.domains("z-carry", 3)
    auto = ds.automaton(2)
    ranks = np.zeros(2, dtype=np.int64)
    for n in (-1, 3):
        message = f"automaton built to levels 0..2, need {n}"
        with pytest.raises(ConstructionError, match=message):
            auto.batch_product(ranks, ranks, n)
        with pytest.raises(ConstructionError, match=message):
            auto.product_digit_indices((0, 0), (0, 0), n)
    assert auto.product_digit_indices((), (), 0) == ((), 0)
    assert [a.tolist() for a in auto.batch_product(ranks, ranks, 0)] == [[0, 0], [0, 0]]


def test_product_digit_indices_reject_digits_outside_the_alphabet():
    # -1 must not wrap into the last digit, nor |T_j| fail as a raw IndexError
    ds = presets.domains("z-carry", 3)
    auto = ds.automaton(3)
    assert len(ds.alphabet(1)) == 2 and len(ds.alphabet(2)) == 4
    assert auto.product_digit_indices((1,), (0,), 1) == ((1,), 0)
    for g_idx, h_idx, n, bad, level, size in (
        ((-1,), (0,), 1, -1, 1, 2),
        ((0,), (2,), 1, 2, 1, 2),
        ((0, 4), (0, 0), 2, 4, 2, 4),
        ((0, 0), (1, -1), 3, -1, 2, 4),
    ):
        with pytest.raises(ConstructionError) as exc:
            auto.product_digit_indices(g_idx, h_idx, n)
        assert str(exc.value) == (
            f"digit index {bad} outside 0..{size - 1} at level {level}, whose alphabet has {size} digits"
        )


@pytest.mark.parametrize("name", ["z-carry", "z2-pow2", "heis-pow2"])
def test_closure_refuses_products_past_the_bound(name):
    # The closure checks its state rows once per level and each block's
    # products before the next unchecked product, so it refuses what chained
    # ``vec_mul`` calls refuse.  Every state entering level 2 is set to one
    # row (carry, then context).  With coordinates just under 2**30, a
    # carry·(s^{-1}·p·s) or, on Heisenberg, a conjugate s^{-1}·p·s reaches
    # 2**30.  In the last case the context (-2**29, 0) takes a digit with
    # b = 2 to the conjugate (p_a, 2, p_c + 2**30), past the bound, but the
    # carry's a = -2**29 brings every later product back under it, so only
    # the conjugate's own check refuses it.
    ds = presets.domains(name, 2)
    g = ds.group
    big, half = (1 << 30) - 1, 1 << 29
    rows = [[big] * g.dim]
    if not g.abelian:
        rows = [[big, big, big, 0, 0], [0, 0, 0, big, big], [-half, 0, 10, -half, 0]]
    for row in rows:
        auto = CarryAutomaton(ds, 1, None)
        auto.states[1][:] = row
        with pytest.raises(OverflowError, match="values too large"):
            CarryAutomaton(ds, 2, auto)


def test_two_route_builds_no_witness_strings(monkeypatch):
    # The oracle reads state rows and tables; witnesses are spelled only when read.
    def refuse(*args):
        raise AssertionError("witness strings built")

    monkeypatch.setattr(CarryAutomaton, "digit_strings", refuse)
    ds = presets.domains("heis-pow2", 4)
    rep = verify_carry_identity(ds, 4)
    assert rep["mismatches"] == rep["spot_check_failures"] == 0 and rep["alpha_witness"]
    assert "witnesses" not in vars(ds.automaton(4).carry_range)


def test_closure_matches_reference_across_row_blocks():
    ds = DomainSequence.build(SubgroupChain(H, [2, 8]))
    ref = reference_closure(ds, 2)
    assert len(ref[0][1]) * len(ds.alphabet(2)) ** 2 > 2 * _CLOSURE_ROWS  # level 2 spans blocks
    assert_matches_reference(ds.automaton(2), ref)


def test_closure_extended_matches_reference():
    for name in ("z-carry", "heis-pow2"):
        ds = presets.domains(name, 2)
        assert_matches_reference(ds.automaton(2), reference_closure(ds, 2))
        ds.append_level(presets.chain(name).modulus(3))
        assert_matches_reference(ds.automaton(3), reference_closure(ds, 3))


def test_transition_tables_take_their_narrowest_type():
    # heis-pow2's level-4 tables: 8 digits and 6,329 states entering level 5
    auto = presets.domains("heis-pow2", 4).automaton(4)
    assert len(auto.states[4]) == 6329
    assert (auto.trans_digit[3].dtype, auto.trans_state[3].dtype) == (np.uint8, np.uint16)
    for j in range(1, 5):
        assert auto.trans_digit[j - 1].dtype == np.min_scalar_type(len(auto.ds.alphabet(j)) - 1)
        assert auto.trans_state[j - 1].dtype == np.min_scalar_type(len(auto.states[j]) - 1)


@pytest.mark.parametrize("name", ["z-carry", "z2-pow2", "heis-pow2"])
def test_narrow_tables_read_as_int64_tables(name, monkeypatch):
    # The readers widen the narrow tables, so with the type chooser forced to
    # int64 every reader answers the same, down to the types of its values.
    def readings():
        ds = presets.domains(name, 4)
        auto = ds.automaton(4)
        rng = random.Random(7)
        out = []
        for n in range(1, 5):
            a, b = (np.array([rng.randrange(ds.size(n)) for _ in range(512)]) for _ in range(2))
            out.append(auto.batch_product(a, b, n))
            out.append([auto.product_digit_indices(ds.radix_digits(x, n), ds.radix_digits(y, n), n)
                        for x, y in zip(a[:64].tolist(), b[:64].tolist())])
            out.append(auto.digit_strings(n, np.arange(len(auto.states[n]))))
            out.append(verify_carry_identity(ds, n))
        return auto, out

    narrow, want = readings()
    with monkeypatch.context() as m:
        m.setattr(expansion, "table_dtype", lambda top: np.dtype(np.int64))
        wide, got = readings()
    assert all(t.dtype == np.int64 for t in wide.trans_digit + wide.trans_state)
    assert all(t.dtype.kind == "u" for t in narrow.trans_digit + narrow.trans_state)
    for w, g in zip(want, got):
        if isinstance(w, tuple):  # arrays: batch_product and digit_strings
            assert all(x.dtype == y.dtype == np.int64 and np.array_equal(x, y) for x, y in zip(w, g))
        else:
            assert w == g and repr(w) == repr(g)


def test_two_route_identity_small(ds_z_carry):
    rep = verify_carry_identity(ds_z_carry, 3)
    assert rep["mismatches"] == 0 and rep["spot_check_failures"] == 0


def test_two_route_rejects_levels_outside_the_domains():
    ds = presets.domains("z-carry", 3)
    for n in (0, 4):
        with pytest.raises(ConstructionError) as exc:
            verify_carry_identity(ds, n)
        assert str(exc.value) == f"carry identity asked for level {n}, built levels are 1..3"


def record_dtypes(monkeypatch, grp) -> list:
    """The dtypes that ``exact_dtype`` of ``grp``'s class answers from now on, in call order."""
    dtypes = []
    exact_dtype = type(grp).exact_dtype

    def recorded(self, *rows):
        dtypes.append(exact_dtype(self, *rows))
        return dtypes[-1]

    monkeypatch.setattr(type(grp), "exact_dtype", recorded)
    return dtypes


@pytest.mark.parametrize("name", ["z-carry", "z2-pow2", "heis-pow2"])
def test_two_route_report_is_independent_of_blocks(name, monkeypatch):
    # chunk=1 is one left factor per block; 3·size(n)+5 is three, which does
    # not divide size(n); 3·size(n-1)·size(n) is three top digits per block,
    # which does not divide |T_n|, so the last block holds fewer; level 1 has
    # a 1×1 prefix table.  These domains and step tables run in int16; with
    # ``exact_dtype`` made to answer int32, then int64, the report is the same.
    ds = presets.domains(name, 3)
    dtypes = record_dtypes(monkeypatch, ds.group)
    for n in (1, 2, 3):
        want = verify_carry_identity(ds, n)
        assert want["pairs"] == ds.size(n) ** 2 and want["mismatches"] == 0
        assert dtypes[-1] is np.int16
        chunks = (1, 3 * ds.size(n) + 5, 3 * ds.size(n - 1) * ds.size(n))
        assert (ds.size(n) // ds.size(n - 1)) % 3 != 0
        for chunk in chunks:
            assert verify_carry_identity(ds, n, chunk=chunk) == want
        for wider in (np.int32, np.int64):
            with monkeypatch.context() as m:
                m.setattr(type(ds.group), "exact_dtype", lambda self, *rows, dt=wider: dt)
                for chunk in (1 << 15,) + chunks:
                    assert verify_carry_identity(ds, n, chunk=chunk) == want


def test_two_route_memory_is_bounded_by_blocks(monkeypatch):
    # The oracle steps its prefix pairs from one D_2 × D_2 table, fills its
    # step table straight in int16 and multiplies in int16, so on heis-pow2's
    # 16.8M level-4 pairs its own working memory stays under 3 MiB; whole
    # D_3 × D_3 prefix tables took 18.9 MB, and a step table formed in one
    # product 5.3 MB.
    ds = presets.domains("heis-pow2", 4)
    ds.automaton(4)  # the cached automaton belongs to the domains, not to the call
    dtypes = record_dtypes(monkeypatch, ds.group)
    tracemalloc.start()
    try:
        rep = verify_carry_identity(ds, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["pairs"] == ds.size(4) ** 2 and rep["mismatches"] == 0
    assert dtypes == [np.int16]
    assert peak < 3 << 20


@pytest.mark.parametrize("name", ["z-carry", "z2-pow2", "heis-pow2"])
def test_two_route_refuses_a_step_table_value_at_the_bound(name):
    # The blocks multiply unchecked, after one bound check of the step table
    # and the domains.  A carry just below 2**30, reached with a nonzero top
    # digit, puts T_n[d]·c at the bound: the oracle must refuse it.
    n = 3
    ds = presets.domains(name, n)
    g, auto = ds.group, ds.automaton(n)
    s = auto.trans_state[n - 1].reshape(-1)[np.flatnonzero(auto.trans_digit[n - 1])[0]]
    auto.states[n][s, : g.dim] = (1 << 30) - 1
    with pytest.raises(OverflowError, match="values too large"):
        verify_carry_identity(ds, n)


@pytest.mark.parametrize("name", ["z-carry", "z2-pow2", "heis-pow2"])
def test_domain_rank_order_is_prefix_times_digit(name):
    # D_n[r + size(n-1)·d] = D_{n-1}[r]·T_n[d], exhaustively, by scalar products;
    # and D_n[r] has rank r
    ds = presets.domains(name, 4)
    grp = ds.group
    for n in range(1, 5):
        assert np.array_equal(ds.vec_rank(ds.domain_array(n), n), np.arange(ds.size(n)))
        low, dom = ds.domain_list(n - 1), ds.domain_list(n)
        for d, t in enumerate(ds.alphabet(n)):
            for r, head in enumerate(low):
                assert dom[r + len(low) * d] == grp.mul(head, t)


def reference_two_route_mismatches(ds, n, chunk=1 << 15):
    """Mismatch count of the two-route oracle, row-major with per-pair level-n ranks.

    Route A gathers D_n at each pair's rank r + size(n-1)·d and its state's
    carry, route B forms g·h, and a pair passes iff D_n[rank]·c = g·h with c
    in Γ_n; blocks of left factors against all of D_n, ``chunk`` pairs each.
    """
    g, auto = ds.group, ds.automaton(n)
    size, low = ds.size(n), ds.size(n - 1)
    na = size // low
    dom = ds.domain_array(n)
    carry_elems = auto.carry_rows(n)
    in_gamma = g.vec_residue_rank(carry_elems, ds.modulus(n)) == 0
    prefix = np.arange(low)
    pre_rank, pre_state = auto.batch_product(np.repeat(prefix, low), np.tile(prefix, low), n - 1)
    pre_rank, pre_state = pre_rank.reshape(low, low), pre_state.reshape(low, low)
    # The tables are narrow unsigned types, which wrap in arithmetic: widened first.
    step_digit = auto.trans_digit[n - 1].reshape(-1).astype(np.int64)
    step_state = auto.trans_state[n - 1].reshape(-1).astype(np.int64)
    q = np.repeat(np.arange(na), low)
    rows = max(1, chunk // size)
    mismatches = 0
    for start in range(0, size, rows):
        gi = np.arange(start, min(start + rows, size))
        p, g_low = np.divmod(gi, low)
        flat = ((np.tile(pre_state[g_low], na) * na + p[:, None]) * na + q).reshape(-1)
        out_rank = np.tile(pre_rank[g_low], na).reshape(-1) + low * step_digit.take(flat)
        state = step_state.take(flat)
        prod = g.vec_mul(dom[gi][:, None, :], dom[None, :, :]).reshape(-1, g.dim)
        eq = g.vec_mul(dom.take(out_rank, axis=0), carry_elems.take(state, axis=0)) == prod
        mismatches += int(np.count_nonzero(~(eq.all(axis=1) & in_gamma.take(state))))
    return mismatches


@pytest.mark.parametrize("name, n", [("z-carry", 4), ("z2-pow2", 4), ("heis-pow2", 3)])
def test_two_route_matches_reference_loop(name, n):
    # Step table and coordinate-major blocks against the row-major loop that
    # gathers D_n at each pair's rank: equal counts with no corruption, with
    # one wrong top-level digit and with one wrong top-level state.
    ds = presets.domains(name, n)
    auto = ds.automaton(n)
    entry = (-1, 1, -1)  # last state, digit 1 on the left, last digit on the right
    assert verify_carry_identity(ds, n)["mismatches"] == 0
    assert reference_two_route_mismatches(ds, n) == 0
    for table, choices in (
        (auto.trans_digit[n - 1], len(ds.alphabet(n))),
        (auto.trans_state[n - 1], len(auto.states[n])),
    ):
        old = table[entry]
        table[entry] = (old + 1) % choices
        try:
            want = reference_two_route_mismatches(ds, n)
            assert want > 0
            for chunk in (1, 1 << 15):
                got = verify_carry_identity(ds, n, chunk=chunk)
                assert got["mismatches"] == want
        finally:
            table[entry] = old


def scalar_truth(ds, n):
    """Scalar products and truth over D_n × D_n, pairs of ranks (a, b) in row-major order.

    Returns (products, rank, tail): products maps each pair to D_n[a]·D_n[b] by
    the group law, and ``rank`` and ``tail`` hold, pair by pair in that order,
    the product's head rank and its tail as an element row.
    """
    grp, dom = ds.group, ds.domain_list(n)
    prods = {(a, b): grp.mul(x, y) for a, x in enumerate(dom) for b, y in enumerate(dom)}
    rank = np.array([ds.rank_of(x, n) for x in prods.values()])
    tail = grp.to_array([ds.tail(x, n) for x in prods.values()])
    return prods, rank, tail


def automaton_mismatches(ds, truth, n):
    """Pairs, as indices into the truth's row-major order, whose product rank or
    carry by the carry recursion differs from the scalar truth.

    One ``batch_product`` walk over every pair reads each level's tables by
    flat index; the two-route oracle reads its last two levels through its own
    step table and prefix gathers, so the walk shares no code with route A at
    a corrupted level above 1.
    """
    _prods, rank, tail = truth
    auto = ds.automaton(n)
    got, state = auto.batch_product(*np.divmod(np.arange(len(rank)), ds.size(n)), n)
    return np.flatnonzero((got != rank) | (auto.carry_rows(n)[state] != tail).any(axis=1))


def reference_spot_check_failures(ds, n):
    """The oracle's spot-check failure count, pair by pair through ``carry_mul``'s scalar walk."""
    rng, grp, bad = random.Random(SPOT_CHECK_SEED), ds.group, 0
    for _ in range(SPOT_CHECKS):
        a = ds.element_of_rank(rng.randrange(ds.size(n)), n)
        b = ds.element_of_rank(rng.randrange(ds.size(n)), n)
        prefix, carry = carry_mul(ds, ds.digit_prefix(a, n), ds.digit_prefix(b, n), n)
        prod = grp.mul(a, b)
        bad += prefix != ds.digit_prefix(prod, n) or carry != ds.tail(prod, n)
        bad += reconstruct(ds, prefix, carry) != prod
    return bad


@pytest.fixture(scope="module")
def d3_truth(request):
    """Scalar truth over D_3 × D_3 of one preset, computed once per module: (domains, truth)."""
    ds = presets.domains(request.param, 3)
    return ds, scalar_truth(ds, 3)


@pytest.mark.parametrize("d3_truth", ["z-carry", "z2-pow2", "heis-pow2"], indirect=True)
def test_two_route_counts_corrupted_tables_exactly(d3_truth):
    # One wrong transition at a prefix level or at the last level: the
    # oracle's mismatch count equals a scalar count over every pair of D_3,
    # and its spot-check failures equal a pair-by-pair scalar replay.
    n = 3
    ds, truth = d3_truth
    auto = ds.automaton(n)
    assert len(automaton_mismatches(ds, truth, n)) == 0
    assert verify_carry_identity(ds, n)["spot_check_failures"] == 0
    entry = (-1, 1, -1)  # last state, digit 1 on the left, last digit on the right
    spotted = 0
    for tables, choices in (
        (auto.trans_digit, lambda j: len(ds.alphabet(j))),
        (auto.trans_state, lambda j: len(auto.states[j])),
    ):
        for j, at in ((1, (0, 1, 1)), (2, entry), (n, entry)):
            old = tables[j - 1][at]
            tables[j - 1][at] = (old + 1) % choices(j)
            try:
                rep = verify_carry_identity(ds, n)
                if j > 1:
                    want = len(automaton_mismatches(ds, truth, n))
                    assert want > 0
                    assert rep["mismatches"] == want
                assert rep["spot_check_failures"] == reference_spot_check_failures(ds, n)
                spotted += rep["spot_check_failures"] > 0
            finally:
                tables[j - 1][at] = old
    assert spotted  # some corruption shows in the spot checks


@pytest.mark.parametrize("name", ["z2-pow2", "heis-pow2"])
def test_two_route_counts_corrupted_step_row_edges_exactly(name):
    # The blocks gather whole step rows (s, p), q innermost.  One wrong digit,
    # or a state with another carry, at a corner of the first or the last
    # state's rows, (s, 0, 0), (s, 0, |T_n|-1), (s, |T_n|-1, 0) or
    # (s, |T_n|-1, |T_n|-1): the oracle's mismatch count equals a scalar count
    # over every pair of D_2.
    n = 2
    ds = presets.domains(name, n)
    auto = ds.automaton(n)
    truth = scalar_truth(ds, n)
    carries = ds.group.from_array(auto.carry_rows(n))
    last = len(ds.alphabet(n)) - 1
    for table, wrong in (
        (auto.trans_digit[n - 1], lambda d: (d + 1) % len(ds.alphabet(n))),
        (auto.trans_state[n - 1], lambda s: next(t for t, c in enumerate(carries) if c != carries[s])),
    ):
        for entry in itertools.product((0, -1), (0, last), (0, last)):
            old = table[entry]
            table[entry] = wrong(old)
            try:
                want = len(automaton_mismatches(ds, truth, n))
                assert want > 0, entry
                got = verify_carry_identity(ds, n)["mismatches"]
                assert got == want, entry
            finally:
                table[entry] = old


@pytest.mark.parametrize("d3_truth", ["z2-pow2", "heis-pow2"], indirect=True)
def test_two_route_counts_carries_outside_the_subgroup(d3_truth, monkeypatch):
    # A pair passes the oracle iff D_n[rank]·carry = g·h with the carry in Γ_n.
    # Each case changes the carry reached through one level-n transition; the
    # oracle's mismatch count must equal a scalar count over every pair of D_3.
    n = 3
    ds, truth = d3_truth
    prods = truth[0]
    grp, auto = ds.group, ds.automaton(n)
    dtypes = record_dtypes(monkeypatch, grp)  # the oracle's working dtype, call by call
    entry = (-1, 1, -1)  # last state, digit 1 on the left, last digit on the right
    digits, states = auto.trans_digit[n - 1], auto.trans_state[n - 1]
    target = states[entry]
    rows = auto.states[n]
    carry = grp.from_array(auto.carry_rows(n)[target : target + 1])[0]
    outside = ds.alphabet(n)[1]

    def oracle_equals_scalar_count():
        bad = automaton_mismatches(ds, truth, n)
        assert len(bad)
        assert verify_carry_identity(ds, n)["mismatches"] == len(bad)
        return list(zip(*(r.tolist() for r in np.divmod(bad, ds.size(n)))))  # rank pairs

    # Compensating corruption: a wrong top digit gives a wrong head rank r',
    # and the transition moves to a new state whose carry is D_n[r']^{-1}·(g·h),
    # so head·carry still reproduces every product.  Only Γ_n membership of
    # the carry tells these pairs apart.
    old_digit = int(digits[entry])
    digits[entry] = (old_digit + 1) % len(ds.alphabet(n))
    last = np.array([len(auto.states[n - 1]) - 1])
    gw, hw = (tuple(w[0].tolist()) for w in auto.digit_strings(n - 1, last))  # prefixes reaching it
    ia, ib = gw + (1,), hw + (len(ds.alphabet(n)) - 1,)
    wrong, _ = auto.product_digit_indices(ia, ib, n)
    head = reconstruct(ds, [ds.alphabet(j + 1)[i] for j, i in enumerate(wrong)])
    pair = tuple(sum(i * ds.size(j) for j, i in enumerate(idx)) for idx in (ia, ib))  # their ranks
    new = rows[target].copy()  # the new state keeps the target's context
    new[: grp.dim] = grp.to_array([grp.mul(grp.inv(head), prods[pair])])[0]
    auto.states[n] = np.vstack([rows, new])
    states[entry] = len(rows)
    try:
        for a, b in oracle_equals_scalar_count():
            out, c = auto.product_digit_indices(ds.radix_digits(a, n), ds.radix_digits(b, n), n)
            assert reconstruct(ds, [ds.alphabet(j + 1)[i] for j, i in enumerate(out)], c) == prods[a, b]
            assert ds.head(c, n) != grp.identity  # the carry lies outside Γ_n
    finally:
        auto.states[n] = rows
        states[entry], digits[entry] = target, old_digit

    # One state's carry moved by elements of Γ_n whose coordinates are all
    # m_n, m_n·2**12 = 2**15 and, on Heisenberg, m_n·2**13 = 2**16, which put the
    # step table's law bound in int16, int32 and int64, and by one element
    # outside Γ_n.
    assert ds.modulus(n) << 12 == 1 << 15

    def gamma(shift):  # the element of Γ_n whose coordinates are all m_n·2**shift
        return grp.from_array(np.full((1, grp.dim), ds.modulus(n) << shift, dtype=np.int64))[0]

    cases = [(gamma(0), np.int16), (gamma(12), np.int32), (outside, np.int16)]
    if not grp.abelian:  # on Z2, int64 is out of reach below the 2**30 refusal
        cases.append((gamma(13), np.int64))
    for delta, dtype in cases:
        rows[target, : grp.dim] = grp.to_array([grp.mul(carry, delta)])[0]
        try:
            oracle_equals_scalar_count()
            assert dtypes[-1] is dtype
        finally:
            rows[target, : grp.dim] = grp.to_array([carry])[0]
