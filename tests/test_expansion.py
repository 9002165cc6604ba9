"""Domains, digit expansions, and carry arithmetic."""

import itertools
import random

import numpy as np
import pytest

from odowin import presets
from odowin.expansion import (
    build_domains,
    carry_mul,
    carry_ranges,
    decompose,
    expand,
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


# -- domains ---------------------------------------------------------------------


def test_decimal_domains(ds_z_dec):
    assert ds_z_dec.domain_list(2) == list(range(100))  # oracle: residue enumeration
    assert Z.identity in ds_z_dec.domain_set(1)
    assert ds_z_dec.size(3) == 1000


def test_domains_nested_and_sized(ds_z_carry, ds_heis):
    for ds in (ds_z_carry, ds_heis):
        for n in range(1, ds.levels):
            assert ds.domain_set(n) <= ds.domain_set(n + 1)
        for n in range(1, ds.levels + 1):
            assert ds.size(n) == ds.index(n)


def test_heisenberg_domain_count():
    ds = build_domains(SubgroupChain(H, [4, 16]), 2)
    assert ds.size(2) == 4**6  # index (4^2)^3


def test_alphabet_is_domain_cap_subgroup(ds_z_carry, ds_heis):
    for ds in (ds_z_carry, ds_heis):
        chain = ds.chain
        for n in range(2, 4):
            members = {g for g in ds.domain_list(n) if chain.is_member(g, n - 1)}
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
        assert prods == ds_z_carry.domain_set(n)


def test_transversal_outside_subgroup_rejected():
    class BadZ(type(Z)):
        def canonical_transversal(self, m_prev, m):
            reps = super().canonical_transversal(m_prev, m)
            if m_prev > 1:
                reps[1] = reps[1] + 1  # no longer a multiple of m_prev
            return reps

    from odowin.expansion import DomainSequence

    ds = DomainSequence(BadZ())
    ds.append_level(4)
    with pytest.raises(ConstructionError):
        ds.append_level(8)


# -- decomposition -----------------------------------------------------------------


def test_decompose_examples(ds_z_dec):
    assert decompose(ds_z_dec, 23, 1) == (euclid_head(23, 10), 20) == (3, 20)
    assert decompose(ds_z_dec, -1, 1) == (euclid_head(-1, 10), -10) == (9, -10)
    assert decompose(ds_z_dec, 0, 2) == (0, 0)
    head, tail = decompose(ds_z_dec, 12345, 0)
    assert head == Z.identity and tail == 12345


def test_decompose_invariants(ds_heis):
    chain = ds_heis.chain
    rng = random.Random(5)
    for _ in range(100):
        g = (rng.randrange(-40, 40), rng.randrange(-40, 40), rng.randrange(-40, 40))
        for n in (1, 2, 3):
            head, tail = decompose(ds_heis, g, n)
            assert head in ds_heis.domain_set(n)
            assert chain.is_member(tail, n)
            assert H.mul(head, tail) == g


# -- digit expansions -----------------------------------------------------------------


def test_expand_examples(ds_z_dec, ds_z_carry):
    d = expand(ds_z_dec, 235)
    assert d.coefficients == (5, 30, 200) and d.depth == 2
    ident = expand(ds_z_dec, 0)
    assert ident.coefficients == (0,) and ident.depth == 0
    # mixed-radix chain 2, 8, 32: oracle digits
    for g in range(ds_z_carry.size(3)):
        assert list(expand(ds_z_carry, g).coefficients) == mixed_radix_digits(
            g, ds_z_carry.moduli[: expand(ds_z_carry, g).depth + 1]
        )


def test_expand_reconstructs(ds_heis):
    for g in ds_heis.domain_list(3):
        d = expand(ds_heis, g)
        assert reconstruct(ds_heis, d.coefficients) == g
        assert d.coefficients[-1] != H.identity or g == H.identity


def test_expand_outside_domains_raises(ds_z_dec):
    with pytest.raises(ConstructionError):
        expand(ds_z_dec, -1)  # negative integers have no finite digit string here


def test_uniqueness_by_exhaustive_recomposition(ds_z_carry, ds_heis):
    # every digit string of length 3 is the expansion of its own product
    for ds in (ds_z_carry, ds_heis):
        seen = set()
        for combo in itertools.product(*(ds.alphabet(j) for j in (1, 2, 3))):
            g = reconstruct(ds, combo)
            assert ds.digit_prefix(g, 3) == combo
            seen.add(g)
        assert seen == ds.domain_set(3)


def test_basic_digit_properties(ds_heis):
    ds = ds_heis
    chain = ds.chain
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
            assert chain.is_member(gamma, n)
            for shifted in (H.mul(gamma, g), H.mul(g, gamma)):
                assert ds.digit_prefix(shifted, n)[n - 1] == ds.digit_prefix(g, n)[n - 1]


# -- carry arithmetic ------------------------------------------------------------------


def test_carry_example_binary(ds_z_pow2):
    # 3 + 1 in the chain 2, 4, 8: digits (1,2) + (1,) -> (0,0,4) with carries 2, 4, 0
    dg, dh = expand(ds_z_pow2, 3), expand(ds_z_pow2, 1)
    assert dg.coefficients == (1, 2) and dh.coefficients == (1,)
    assert carry_mul(ds_z_pow2, dg, dh, 1) == ((0,), 2)
    assert carry_mul(ds_z_pow2, dg, dh, 2) == ((0, 0), 4)
    assert carry_mul(ds_z_pow2, dg, dh, 3) == ((0, 0, 4), 0)


def test_carry_identity_factor(ds_z_carry):
    ident = expand(ds_z_carry, 0)
    for g in (5, 29, 100):
        dg = expand(ds_z_carry, g)
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


def test_automaton_extends_and_cuts_back():
    # pop_level cuts a deeper automaton back and a later level extends it; the
    # result equals one closure from level 1: tables, state order, witnesses
    for name in ("z-carry", "heis-pow2"):
        ds = presets.domains(name, 4)
        ds.automaton(4)
        ds.pop_level()
        ds.pop_level()
        assert ds.automaton(2).levels == 2
        ds.append_level(presets.chain(name).modulus(3))
        grown, fresh = ds.automaton(3), presets.domains(name, 3).automaton(3)
        assert grown.states == fresh.states
        assert grown.carry_range == fresh.carry_range
        for a, b in zip(grown.trans_digit + grown.trans_state, fresh.trans_digit + fresh.trans_state):
            assert np.array_equal(a, b)


def test_two_route_identity_small(ds_z_carry):
    rep = verify_carry_identity(ds_z_carry, 3, rng_spot_checks=50)
    assert rep["mismatches"] == 0 and rep["spot_check_failures"] == 0
