"""Completion points: metric, measure, sampling, truncated arithmetic."""

import random
from fractions import Fraction

import pytest

from odowin.expansion import reconstruct
from odowin.groups import ConstructionError, PrecisionError
from odowin.odometer import (
    Cylinder,
    OdometerPoint,
    cylinder_of,
    embed,
    haar,
    head_of_point,
    metric,
    odo_inv,
    odo_mul,
    points_equal,
    rank_of_point,
    sample_point,
)


def from_digits(ds, digits):
    """The point whose digits are ``digits``: the rank of their product at their precision."""
    return OdometerPoint(ds.rank_of(reconstruct(ds, digits), len(digits)), len(digits))


def test_metric_examples(ds_z_dec, ds_z_pow2):
    x = embed(ds_z_dec, 7, 3)
    assert metric(ds_z_dec, x, x).kind == "equal"
    # digits differ first at level 3 -> 1/8
    a = from_digits(ds_z_dec, (1, 10, 100))
    b = from_digits(ds_z_dec, (1, 10, 200))
    r = metric(ds_z_dec, a, b)
    assert r.kind == "separated" and r.value == Fraction(1, 8)
    # same digits but unknown equality: flagged, never a silent zero
    c = from_digits(ds_z_dec, (1, 10, 100))
    r2 = metric(ds_z_dec, a, c)
    assert r2.kind == "indistinguishable" and r2.value == 0 and r2.level == 3
    assert points_equal(ds_z_dec, a, c) is None


def test_metric_subgroup_shift(ds_z_pow2):
    # tau(g) vs tau(g*gamma) with gamma in level k but not k+1: distance 2^-(k+1)
    chain = ds_z_pow2.chain
    for g in (0, 3, 17):
        for k in (1, 2, 4):
            gamma = ds_z_pow2.modulus(k)  # in level k, not k+1
            x, y = embed(ds_z_pow2, g, 6), embed(ds_z_pow2, g + gamma, 6)
            r = metric(ds_z_pow2, x, y)
            sep = chain.separation_level(g, g + gamma)
            assert r.kind == "separated" and r.value == Fraction(1, 2 ** (k + 1))
            assert sep == k + 1


def test_isometric_embedding(ds_z_carry):
    chain = ds_z_carry.chain
    rng = random.Random(1)
    for _ in range(50):
        g, h = rng.randrange(0, 2048), rng.randrange(0, 2048)
        r = metric(ds_z_carry, embed(ds_z_carry, g, 6), embed(ds_z_carry, h, 6))
        sep = chain.separation_level(g, h)
        if g == h:
            assert r.kind == "equal"
        elif sep is not None:
            assert r.value == Fraction(1, 2**sep)


def test_haar(ds_z_dec):
    assert haar(ds_z_dec, Cylinder(0, 0)) == 1
    x = embed(ds_z_dec, 42, 3)
    assert haar(ds_z_dec, cylinder_of(ds_z_dec, x, 2)) == Fraction(1, 100)
    total = sum(haar(ds_z_dec, Cylinder(2, d)) for d in ds_z_dec.domain_list(2))
    assert total == 1


def test_odo_mul(ds_z_pow2, ds_heis):
    # identity shift truncates
    x = sample_point(ds_z_pow2, 4, 6)
    ident = embed(ds_z_pow2, 0, 6)
    assert ds_z_pow2.spell(odo_mul(ds_z_pow2, x, ident, 4).rank, 4) == ds_z_pow2.spell(x.rank, 6)[:4]
    # embedded points multiply to the embedded product
    for ds, pairs in ((ds_z_pow2, [(3, 5), (17, 40)]), (ds_heis, [((1, 0, 0), (0, 1, 1))])):
        for g, h in pairs:
            prod = odo_mul(ds, embed(ds, g, 4), embed(ds, h, 4), 4)
            assert prod == embed(ds, ds.group.mul(g, h), 4)  # rank, precision and element
    # complement arithmetic: -1 carries forever, adding 1 gives the zero prefix
    minus_one = embed(ds_z_pow2, -1, 5)
    assert ds_z_pow2.spell(minus_one.rank, 5) == (1, 2, 4, 8, 16)
    one = embed(ds_z_pow2, 1, 5)
    zero = odo_mul(ds_z_pow2, minus_one, one, 5)
    assert (zero.rank, zero.precision) == (0, 5)


def test_odo_inv(ds_z_pow2):
    ident = embed(ds_z_pow2, 0, 6)
    assert odo_inv(ds_z_pow2, ident, 6) == ident
    x = sample_point(ds_z_pow2, 9, 6)
    inv = odo_inv(ds_z_pow2, x, 6)
    assert odo_mul(ds_z_pow2, inv, x, 6).rank == ident.rank
    assert odo_inv(ds_z_pow2, embed(ds_z_pow2, 3, 6), 6) == embed(ds_z_pow2, -3, 6)


def test_sampling(ds_z_dec):
    assert sample_point(ds_z_dec, 123, 3) == sample_point(ds_z_dec, 123, 3)
    empty = sample_point(ds_z_dec, 0, 0)
    assert (empty.rank, empty.precision) == (0, 0)
    # level-1 cylinder frequencies within 5 sigma of uniform
    n = 10_000
    counts = {}
    for seed in range(n):
        d = head_of_point(ds_z_dec, sample_point(ds_z_dec, seed, 1), 1)
        counts[d] = counts.get(d, 0) + 1
    p = 1 / 10
    sigma = (n * p * (1 - p)) ** 0.5
    for d in ds_z_dec.domain_list(1):
        assert abs(counts.get(d, 0) - n * p) <= 5 * sigma


def test_bi_invariance_and_associativity(ds_heis):
    rng = random.Random(2)
    pts = [sample_point(ds_heis, s, 4) for s in range(6)]
    shifts = [embed(ds_heis, g, 4) for g in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]]
    for x in pts[:3]:
        for y in pts[3:]:
            base = metric(ds_heis, x, y)
            for a in shifts:
                left = metric(ds_heis, odo_mul(ds_heis, a, x, 4), odo_mul(ds_heis, a, y, 4))
                right = metric(ds_heis, odo_mul(ds_heis, x, a, 4), odo_mul(ds_heis, y, a, 4))
                assert left.kind == base.kind and right.kind == base.kind
                if base.kind == "separated":
                    assert left.value == base.value == right.value
    for x, y, z in zip(pts[:2], pts[2:4], pts[4:6]):
        lhs = odo_mul(ds_heis, odo_mul(ds_heis, x, y, 4), z, 4)
        rhs = odo_mul(ds_heis, x, odo_mul(ds_heis, y, z, 4), 4)
        assert lhs.rank == rhs.rank


def test_precision_errors(ds_z_dec):
    x = sample_point(ds_z_dec, 5, 2)
    with pytest.raises(PrecisionError):
        odo_mul(ds_z_dec, x, x, 3)
    with pytest.raises(PrecisionError):
        odo_inv(ds_z_dec, x, 3)
    with pytest.raises(PrecisionError):
        embed(ds_z_dec, 1, 9)


@pytest.mark.parametrize("name", ["z_dec", "z_carry", "z2", "heis"])
def test_sampled_ranks_spell_the_per_level_draws(name, request):
    # A sampled point's rank sums one uniform digit index per level at its place
    # value, drawn in level order, so its spelled digits are the digits drawn
    # one level at a time from the same seed.
    ds = request.getfixturevalue(f"ds_{name}")
    n = ds.levels
    for seed in range(21):
        rng = random.Random(seed)
        drawn = tuple(ds.alphabet(j)[rng.randrange(len(ds.alphabet(j)))] for j in range(1, n + 1))
        x = sample_point(ds, seed, n)
        assert x.precision == n and ds.spell(x.rank, n) == drawn


def test_ranks_outside_the_precision_are_refused(ds_z_dec, ds_heis):
    # A rank is checked against its own precision, never wrapped to a shorter prefix.
    for ds, n in ((ds_z_dec, 3), (ds_heis, 4)):
        good = sample_point(ds, 1, n)
        for rank in (-1, ds.size(n), ds.size(n) + good.rank):
            bad = OdometerPoint(rank, n)
            for use in (
                lambda: rank_of_point(ds, bad, 1),
                lambda: head_of_point(ds, bad, n),
                lambda: cylinder_of(ds, bad, 2),
                lambda: metric(ds, bad, good),
                lambda: odo_mul(ds, good, bad, n),
                lambda: odo_inv(ds, bad, 1),
            ):
                with pytest.raises(ConstructionError, match=f"outside 0..{ds.size(n) - 1} at level {n}"):
                    use()
