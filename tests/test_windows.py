"""Window construction, verification checks, and serialization."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from odowin.expansion import build_domains, carry_ranges
from odowin.groups import ConstructionError, SubgroupChain, geometric_moduli, group_by_name
from odowin.windows import (
    CLS_IN,
    CLS_OUT,
    CLS_PENDING,
    CylinderTree,
    LevelPartition,
    Window,
    WindowSpec,
    boundary_measure,
    build_k,
    build_ktilde,
    build_perf,
    check_genericity,
    check_irredundancy,
    check_self_similarity,
    folner_ratio,
    parse_window,
    serialize_window,
    vanhove_boundary,
    verify_window,
)

Z = group_by_name("Z")


def manual_window(moduli, parts, cap=None, **kwargs):
    """Assemble a window directly from partition data (no builder policy)."""
    cap = cap if cap is not None else len(moduli)
    ds = build_domains(SubgroupChain(Z, moduli), cap)
    spec = WindowSpec(
        kind=kwargs.pop("kind", "perf"),
        group_name="Z",
        moduli=tuple(moduli[:cap]),
        cap=cap,
        delta=Fraction(1),
        epsilon=None,
        a_schedule=tuple(3 for _ in range(cap)),
        partitions=tuple(LevelPartition(*p) for p in parts),
        **kwargs,
    )
    return Window(spec, ds, CylinderTree(ds, spec), carry_ranges(ds, cap))


# -- builder -----------------------------------------------------------------------


def test_builder_telescopes_and_bounds(w_irr):
    # epsilon = 1/2 forces merging of raw power-of-two levels
    assert w_irr.spec.moduli == (16, 512, 32768)
    assert any("telescoped" in line for line in w_irr.build_log)
    assert boundary_measure(w_irr, w_irr.cap) >= Fraction(1, 2)
    for n in range(1, w_irr.cap + 1):
        part = w_irr.spec.partitions[n - 1]
        assert len(part.exterior) == 1 and len(part.interior) >= 2
        assert Z.identity not in part.boundary


def test_builder_requires_a_of_three():
    with pytest.raises(ConstructionError, match="a_n"):
        build_perf(Z, geometric_moduli(2, 2, 10), 2, a_schedule=2, epsilon=Fraction(1, 2))


def test_builder_exhaustion_reports_inequality():
    with pytest.raises(ConstructionError, match="failing inequality"):
        build_perf(Z, [2, 4], 2, epsilon=Fraction(1, 2))


def test_boundary_measure_identity(w_irr, w_fiber, w_z2, w_heis):
    for win in (w_irr, w_fiber, w_z2, w_heis):
        assert boundary_measure(win, 0) == 1
        values = [boundary_measure(win, n) for n in range(win.cap + 1)]
        # product rule vs exhaustive pending count is asserted inside; also monotone
        assert all(a >= b for a, b in zip(values, values[1:]))
        for n in range(1, win.cap + 1):
            assert values[n] == Fraction(len(win.tree.pending_ranks[n - 1]), win.ds.size(n))


def test_tree_child_counts(w_fiber, w_k):
    # every boundary cylinder splits into (interior, one exterior, boundary) children
    for win in (w_fiber, w_k[3]):
        for n in range(1, win.cap):
            part = win.spec.partitions[n]
            for r in win.tree.pending_ranks[n - 1][:20]:
                kids = win.tree.children_classes(int(r), n)
                assert int((kids == CLS_OUT).sum()) >= 1
                assert int((kids == CLS_PENDING).sum()) == len(part.boundary)


# -- van Hove boundaries -------------------------------------------------------------


def test_vanhove_identity_probe(ds_z_pow2):
    assert vanhove_boundary(ds_z_pow2, [Z.identity], 3) == []


def test_vanhove_interval_oracle(ds_z_pow2):
    # probe {0, 2^(n-1)}: exactly 2^(n-1) straddlers inside the box, 2^(n-1) outside
    for n in (2, 3, 4):
        half = ds_z_pow2.modulus(n - 1)
        m = ds_z_pow2.modulus(n)
        boundary = vanhove_boundary(ds_z_pow2, [0, half], n)
        inside = [g for g in boundary if 0 <= g < m]
        outside = [g for g in boundary if not 0 <= g < m]
        assert inside == list(range(0, half))
        assert outside == list(range(m, m + half))
        assert len(inside) == len(outside) == half


def test_carry_safe_equals_vanhove_complement(w_irr):
    # the builder's eligibility test matches the inverted-probe boundary
    from odowin.windows import carry_safe_digits

    ds = w_irr.ds
    for n in range(1, w_irr.cap + 1):
        carries = w_irr.carries.level(n)
        probe = [Z.inv(k) for k in carries]
        bnd = set(vanhove_boundary(ds, probe, n))
        safe = set(carry_safe_digits(ds, carries, n))
        assert safe == {t for t in ds.alphabet(n) if t not in bnd}


def test_folner_ratios_decrease(w_irr):
    ratios = [folner_ratio(w_irr.ds, w_irr.carries.level(n), n) for n in range(1, w_irr.cap + 1)]
    assert ratios[0] == 0  # level-1 carries are only the identity
    assert all(a >= b for a, b in zip(ratios[1:], ratios[2:]))


# -- checks --------------------------------------------------------------------------


def test_genericity_pass(w_irr, w_fiber, w_heis):
    for win in (w_irr, w_fiber, w_heis):
        rep = check_genericity(win)
        assert rep.passed
        assert rep.data["tail_certified"] == len(win.tree.pending_ranks[win.cap - 1])


def test_genericity_adversarial_fails():
    # identity kept as a boundary digit at every level: the identity embeds
    # into every boundary layer
    win = manual_window(
        [4, 16],
        [((1, 2), (3,), (0,)), ((4,), (8,), (0, 12))],
    )
    rep = check_genericity(win)
    assert not rep.passed and rep.data["bad_levels"] == [1, 2]
    assert rep.data["witness"][0] == Z.identity


def test_irredundancy_pass(w_irr, w_k, w_kt, w_heis_kt2):
    for win in (w_irr, w_k[2], w_kt[3], w_heis_kt2):
        assert check_irredundancy(win).passed


def test_irredundancy_per_parent_fails(w_k):
    bad = build_ktilde(w_k[3], "per-parent")
    rep = check_irredundancy(bad)
    assert not rep.passed
    assert any("FAIL" in line for line in rep.lines)


def test_irredundancy_corrupt_sectors_fails(w_k):
    spec = replace(w_k[2].spec, sector_of_rank=tuple(1 for _ in w_k[2].spec.sector_of_rank))
    tree = CylinderTree(w_k[2].ds, spec)
    win = Window(spec, w_k[2].ds, tree, w_k[2].carries)
    assert not check_irredundancy(win).passed


def test_self_similarity_pass_and_fail(w_irr):
    assert check_self_similarity(w_irr).passed
    # adversarial: swap the carry-unsafe top digit into the boundary part
    ds = w_irr.ds
    p2 = w_irr.spec.partitions[1]
    bad_digit = ds.alphabet(2)[-1]
    assert bad_digit in p2.interior  # the builder kept it out of the boundary
    interior = tuple(t for t in p2.interior if t != bad_digit) + (p2.boundary[0],)
    boundary = p2.boundary[1:] + (bad_digit,)
    new_parts = (
        w_irr.spec.partitions[0],
        LevelPartition(interior, p2.exterior, boundary),
        w_irr.spec.partitions[2],
    )
    spec = replace(w_irr.spec, partitions=new_parts)
    win = Window(spec, ds, CylinderTree(ds, spec), w_irr.carries)
    rep = check_self_similarity(win)
    assert not rep.passed and rep.data["witness"]["level"] == 2


def test_interval_containment_oracle(w_irr):
    # for the integers the carry-safety check is interval containment
    ds = w_irr.ds
    for n in range(1, w_irr.cap + 1):
        m = ds.modulus(n)
        carries = w_irr.carries.level(n)
        for c in w_irr.spec.partitions[n - 1].boundary:
            assert all(0 <= c + k < m for k in carries)


# -- sector windows ---------------------------------------------------------------------


def test_k1_equals_base(w_fiber, w_k):
    for n in range(w_fiber.cap):
        assert np.array_equal(w_k[1].tree.class_by_rank[n], w_fiber.tree.class_by_rank[n])


def test_top_sector_untouched(w_fiber, w_k):
    # inside the top sector the k-window agrees with the base at every level
    win = w_k[3]
    size_l = win.ds.size(win.spec.sector_level)
    sec = np.asarray(win.spec.sector_of_rank)
    for n in range(win.spec.sector_level, win.cap + 1):
        ranks = np.arange(win.ds.size(n))
        mask = sec[ranks % size_l] == win.spec.k
        assert np.array_equal(
            win.tree.class_by_rank[n - 1][mask], w_fiber.tree.class_by_rank[n - 1][mask]
        )


def test_boundary_stability(w_fiber, w_k, w_kt, w_heis, w_heis_k2, w_heis_kt2):
    for win in list(w_k.values()) + list(w_kt.values()):
        assert win.tree.pending_equal(w_fiber.tree)
    assert w_heis_k2.tree.pending_equal(w_heis.tree)
    assert w_heis_kt2.tree.pending_equal(w_heis.tree)


def test_build_k_needs_enough_boundary_cylinders(w_fiber):
    with pytest.raises(ConstructionError, match="larger sector level"):
        build_k(w_fiber, 5, 1)  # only 5 boundary cylinders at level 1


def test_sector_partition_shape(w_k):
    win = w_k[3]
    pend = win.tree.pending_ranks[win.spec.sector_level - 1]
    sec = [win.spec.sector_of_rank[int(r)] for r in pend]
    for j in range(1, 4):
        assert sec.count(j) >= 1
    assert sec.count(3) >= 2


def test_ktilde_punctures(w_k, w_kt):
    win = w_kt[3]
    assert win.spec.punctures  # at least one designated level within the cap
    for lvl, ranks in win.spec.punctures:
        assert win.spec.level_class[lvl - 1] == win.spec.k
        assert len(ranks) == 1  # one cylinder per designated level
        for r in ranks:
            # flipped from interior to excluded relative to the k window
            assert w_k[3].tree.class_by_rank[lvl - 1][r] == CLS_IN
            assert win.tree.class_by_rank[lvl - 1][r] == CLS_OUT
    # a puncture costs each boundary cylinder at most one interior child, and
    # top-sector cylinders (where interior children always survive) keep >= 1
    size_l = win.ds.size(win.spec.sector_level)
    for n in range(1, win.cap):
        for r in win.tree.pending_ranks[n - 1]:
            kids = win.tree.children_classes(int(r), n)
            base_kids = w_k[3].tree.children_classes(int(r), n)
            n_in, base_in = int((kids == CLS_IN).sum()), int((base_kids == CLS_IN).sum())
            assert n_in >= base_in - 1
            if win.spec.sector_of_rank[int(r) % size_l] == win.spec.k:
                assert n_in >= 1


def test_ktilde_empty_rule_is_identity(w_k):
    spec = replace(w_k[2].spec, kind="ktilde", e_rule="dovetail", punctures=())
    tree = CylinderTree(w_k[2].ds, spec)
    for n in range(w_k[2].cap):
        assert np.array_equal(tree.class_by_rank[n], w_k[2].tree.class_by_rank[n])


def test_ktilde_bad_puncture_rejected(w_k):
    win = w_k[2]
    out_rank = int(np.nonzero(win.tree.class_by_rank[2] == CLS_OUT)[0][0])
    spec = replace(win.spec, kind="ktilde", punctures=((3, (out_rank,)),))
    with pytest.raises(ConstructionError, match="not an interior cylinder"):
        CylinderTree(win.ds, spec)


def test_dovetail_covers_coarse_boundary(w_kt):
    # punctures cycle through the coarse top-sector cylinders
    win = w_kt[1]  # k = 1: every level past the sector level is designated
    size_l = win.ds.size(win.spec.sector_level)
    targets = {int(r) % size_l for _lvl, ranks in win.spec.punctures for r in ranks}
    top = {
        int(r)
        for r in win.tree.pending_ranks[win.spec.sector_level - 1]
        if win.spec.sector_of_rank[int(r)] == win.spec.k
    }
    assert targets == top


# -- serialization -----------------------------------------------------------------------


@pytest.mark.parametrize("which", ["irr", "k3", "kt3", "heis", "z2"])
def test_round_trip(which, w_irr, w_k, w_kt, w_heis, w_z2):
    win = {"irr": w_irr, "k3": w_k[3], "kt3": w_kt[3], "heis": w_heis, "z2": w_z2}[which]
    text = serialize_window(win)
    back = parse_window(text)
    assert serialize_window(back) == text
    assert back.tree.pending_equal(win.tree)
    for n in range(win.cap):
        assert np.array_equal(back.tree.class_by_rank[n], win.tree.class_by_rank[n])
    assert [r.passed for r in verify_window(back)] == [r.passed for r in verify_window(win)]


def test_parse_rejects_garbage(malformed_windows):
    for text in ["format = something-else\n", *malformed_windows.values()]:
        with pytest.raises(ConstructionError):
            parse_window(text)
