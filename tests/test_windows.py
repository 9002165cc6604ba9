"""Window construction, verification checks, and serialization."""

import hashlib
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from odowin.expansion import DomainSequence
from odowin.fibers import critical_point, enumerate_fiber
from odowin.groups import ConstructionError, SubgroupChain, geometric_moduli, group_by_name
from odowin.odometer import sample_point
from odowin.windows import (
    CLS_IN,
    CLS_OUT,
    CLS_PENDING,
    CylinderTree,
    Window,
    WindowSpec,
    boundary_measure,
    build_k,
    build_ktilde,
    build_perf,
    boundary_fraction_threshold,
    builtin_sha256,
    check_genericity,
    check_irredundancy,
    check_self_similarity,
    folner_ratio,
    parse_window,
    serialize_window,
    translate_mask,
    vanhove_boundary,
    verify_window,
)

Z = group_by_name("Z")


def partition_codes(alphabet, interior, exterior, boundary):
    """The digit-code array of a partition given by its element parts."""
    parts = {CLS_IN: interior, CLS_OUT: exterior, CLS_PENDING: boundary}
    return tuple(next(c for c, part in parts.items() if t in part) for t in alphabet)


def partition_parts(win, n):
    """(interior, exterior, boundary) elements of level n, in alphabet order."""
    codes = win.spec.partitions[n - 1]
    return tuple(
        tuple(t for t, c in zip(win.ds.alphabet(n), codes) if c == code)
        for code in (CLS_IN, CLS_OUT, CLS_PENDING)
    )


def with_partition(win, n, interior, exterior, boundary):
    """The window with level n split into these element parts."""
    parts = list(win.spec.partitions)
    parts[n - 1] = partition_codes(win.ds.alphabet(n), interior, exterior, boundary)
    return Window(replace(win.spec, partitions=tuple(parts)), win.ds)


def manual_window(moduli, parts, cap=None, **kwargs):
    """Assemble a window directly from partition data (no builder policy)."""
    cap = cap if cap is not None else len(moduli)
    ds = DomainSequence.build(SubgroupChain(Z, moduli), cap)
    spec = WindowSpec(
        kind=kwargs.pop("kind", "perf"),
        group_name="Z",
        moduli=tuple(moduli[:cap]),
        cap=cap,
        delta=Fraction(1),
        epsilon=None,
        a_schedule=tuple(3 for _ in range(cap)),
        partitions=tuple(partition_codes(ds.alphabet(n), *p)
                         for n, p in enumerate(parts, start=1)),
        **kwargs,
    )
    return Window(spec, ds)


# -- builder -----------------------------------------------------------------------


def test_builder_telescopes_and_bounds(w_irr):
    # epsilon = 1/2 forces merging of raw power-of-two levels
    assert w_irr.spec.moduli == (16, 512, 32768)
    assert any("telescoped" in line for line in w_irr.build_log)
    assert boundary_measure(w_irr, w_irr.cap) >= Fraction(1, 2)
    for n in range(1, w_irr.cap + 1):
        interior, exterior, boundary = partition_parts(w_irr, n)
        assert len(exterior) == 1 and len(interior) >= 2
        assert Z.identity not in boundary


def test_builder_builds_only_accepted_moduli(monkeypatch):
    # Each candidate is probed against its alphabet, and only an accepted one is
    # built, so the next candidate is checked against the last accepted modulus:
    # 48 and 480 follow the rejected 32 as multiples of 16, and 40 is refused.
    built = []
    append_level = DomainSequence.append_level

    def recorded(self, modulus):
        built.append(modulus)
        append_level(self, modulus)

    monkeypatch.setattr(DomainSequence, "append_level", recorded)
    win = build_perf(Z, [16, 32, 48, 480], 2, epsilon=Fraction(1, 2))
    assert built == win.ds.moduli == [16, 480]
    assert [line.split(":")[0] for line in win.build_log] == [
        "level 1", "telescoped past modulus 32", "telescoped past modulus 48", "level 2"]
    with pytest.raises(ConstructionError) as exc:
        build_perf(Z, [16, 32, 40], 2, epsilon=Fraction(1, 2))
    assert str(exc.value) == "level 2: modulus 40 must be a proper multiple of 16"


def test_builder_requires_a_of_three():
    with pytest.raises(ConstructionError, match="a_n"):
        build_perf(Z, geometric_moduli(2, 2, 10), 2, a_schedule=2, epsilon=Fraction(1, 2))


def test_builder_takes_one_a_per_level():
    # a single a applies to every level; a list gives exactly one per level
    moduli = geometric_moduli(2, 2, 10)
    win = build_perf(Z, moduli, 2, a_schedule=[3, 4], epsilon=Fraction(1, 2))
    assert win.spec.a_schedule == (3, 4)
    for a in ([3], [3, 4, 5]):
        with pytest.raises(ConstructionError, match=rf"each of the 2 levels \(got {len(a)}\)"):
            build_perf(Z, moduli, 2, a_schedule=a, epsilon=Fraction(1, 2))


def test_spec_refuses_a_schedule_and_epsilon(w_fiber):
    # the builder's rules hold for every spec, also one read from a file
    for change, match in (({"a_schedule": (3,)}, "one a_n for each"),
                          ({"a_schedule": (3, 3, 2, 3, 3, 3)}, "level 3: a_n = 2"),
                          ({"epsilon": Fraction(5)}, "strictly between 0 and 1"),
                          ({"epsilon": Fraction(0)}, "strictly between 0 and 1")):
        with pytest.raises(ConstructionError, match=match):
            Window(replace(w_fiber.spec, **change), w_fiber.ds)


def test_spec_and_builder_refuse_a_delta_that_is_not_positive(w_fiber):
    # one rule for the builder and for every spec: delta is present and positive
    for delta, shown in ((None, "none"), (Fraction(-5), "-5/1"), (Fraction(0), "0/1")):
        with pytest.raises(ConstructionError, match=rf"delta must be positive \(got {shown}\)"):
            Window(replace(w_fiber.spec, delta=delta), w_fiber.ds)
    for delta in (-5, 0):
        with pytest.raises(ConstructionError, match="delta must be positive"):
            build_perf(Z, geometric_moduli(2, 2, 10), 2, delta=Fraction(delta))


def _threshold_series(delta, n):
    """The threshold as a Fraction series: the reference the integer series must equal."""
    x = delta / (2**n)
    term = Fraction(1)
    total = Fraction(1)
    i = 0
    while i < 300:
        i += 1
        term = term * x / i
        total += term
        if term < total * Fraction(1, 1 << 80):
            break
    return 1 / total


def test_threshold_matches_fraction_series(w_irr):
    deltas = [Fraction(1), Fraction(40), Fraction(104), Fraction(1000), Fraction(1, 3),
              Fraction(7, 2), w_irr.spec.delta]
    for delta in deltas:
        for n in range(9):
            assert boundary_fraction_threshold(delta, n) == _threshold_series(delta, n), (delta, n)


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


def _children(tree, r, n):
    """Classes of the level-(n+1) children of the level-n cylinder of rank r."""
    return tree.class_by_rank[n][int(r)::len(tree.class_by_rank[n - 1]) if n else 1]


def test_tree_child_counts(w_fiber, w_k):
    # every boundary cylinder splits into (interior, one exterior, boundary) children
    for win in (w_fiber, w_k[3]):
        for n in range(1, win.cap):
            boundary = partition_parts(win, n + 1)[2]
            for r in win.tree.pending_ranks[n - 1][:20]:
                kids = _children(win.tree, r, n)
                assert int((kids == CLS_OUT).sum()) >= 1
                assert int((kids == CLS_PENDING).sum()) == len(boundary)


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


def test_vanhove_refuses_a_product_over_the_budget():
    # 200 probe rows times #D_3 = 64^3 Heisenberg rows is 1.26 GB: refused before it is formed
    ds = DomainSequence.build(SubgroupChain(group_by_name("Heisenberg"), [2, 8, 64]))
    probe = ds.group.from_array(ds.domain_array(3)[:200])
    with pytest.raises(ConstructionError, match=r"^level 3: a product of 52428800 rows "
                       r"\(1258291200 bytes\) is over the 1073741824-byte budget$"):
        vanhove_boundary(ds, probe, 3)


@pytest.mark.parametrize("name", ["z-carry", "z-dec", "z2-pow2", "heis-pow2"])
def test_vanhove_matches_brute_force(name):
    # several signed columns: the boundary and its canonical (sorted) order
    from odowin import presets

    n = 3
    ds = presets.domains(name, n)
    g = ds.group
    rng = np.random.default_rng(7)
    probe = [g.inv(k) for k in ds.automaton(n).carry_range.level(n)]
    probe += g.from_array(rng.integers(-5, 6, size=(3, g.dim)))
    dom = set(ds.domain_list(n))

    def straddles(x):
        return len({g.mul(g.inv(k), x) in dom for k in probe}) == 2

    cands = {g.mul(k, d) for k in probe for d in dom}
    assert vanhove_boundary(ds, probe, n) == sorted(filter(straddles, cands), key=g.sort_key)


def test_carry_safe_equals_vanhove_complement(w_irr):
    # the builder's eligibility test matches the inverted-probe boundary
    from odowin.windows import carry_safe_digits

    ds = w_irr.ds
    for n in range(1, w_irr.cap + 1):
        carries = w_irr.carries.level(n)
        probe = [Z.inv(k) for k in carries]
        bnd = set(vanhove_boundary(ds, probe, n))
        safe = carry_safe_digits(Z, w_irr.carries.rows[n - 1], ds.alphabet_rows(n), ds.modulus(n), n)
        assert safe.tolist() == [t not in bnd for t in ds.alphabet(n)]


@pytest.mark.parametrize("name", ["w_irr", "w_fiber", "w_z2", "w_heis"])
def test_translate_mask_matches_scalar_membership(request, name):
    # every (carry, digit) pair of every level, against the scalar membership test
    win = request.getfixturevalue(name)
    ds, g = win.ds, win.group
    outside = 0
    for n in range(1, win.cap + 1):
        carries, alphabet = win.carries.level(n), ds.alphabet(n)
        rows = g.to_array(alphabet)
        mask = translate_mask(g, g.to_array(carries), rows, rows, ds.modulus(n), n)
        assert mask.tolist() == [[ds.head(g.mul(k, t), n) == g.mul(k, t) for t in alphabet]
                                 for k in carries]
        outside += int((~mask).sum())
    assert outside  # some carry pushes some digit out of D_n


@pytest.mark.parametrize("name", ["w_irr", "w_fiber", "w_z2", "w_heis"])
def test_folner_ratio_counts_the_boundary(request, name):
    # the carry-tail count equals the boundary list at every level of every preset window
    win = request.getfixturevalue(name)
    ds, g = win.ds, win.group
    for n in range(1, win.cap + 1):
        carries = win.carries.level(n)
        boundary = vanhove_boundary(ds, [g.inv(k) for k in carries], n)
        assert folner_ratio(ds, win.carries.rows[n - 1], n) == Fraction(len(boundary), ds.size(n))


def test_folner_ratios_decrease(w_irr):
    ratios = [folner_ratio(w_irr.ds, w_irr.carries.rows[n - 1], n) for n in range(1, w_irr.cap + 1)]
    assert ratios[0] == 0  # level-1 carries are only the identity
    assert all(a >= b for a, b in zip(ratios[1:], ratios[2:]))


# -- checks --------------------------------------------------------------------------


def test_genericity_pass(w_irr, w_fiber, w_heis):
    for win in (w_irr, w_fiber, w_heis):
        rep = check_genericity(win)
        assert rep.passed
        assert rep.data["tail_certified"] == len(win.tree.pending_ranks[win.cap - 1])


def radix_genericity(win):
    """The genericity lines and data, each rank of D_cap decoded to its digits by divmod."""
    ds, cap = win.ds, win.cap
    size = ds.size(cap)
    escape = np.full(size, cap + 1, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    depth = np.zeros(size, dtype=np.int64)
    for n, idx in enumerate(ds.radix_digits(np.arange(size), cap), start=1):
        onb = (np.array(win.spec.partitions[n - 1]) == CLS_PENDING)[idx]
        escape[alive & ~onb] = n
        alive &= onb
        depth[idx != 0] = n
    ok = not (escape > np.minimum(depth + 2, cap + 1)).any()
    tail = int(alive.sum())
    levels, counts = np.unique(escape, return_counts=True)
    lines = [f"{'PASS' if ok else 'FAIL'}: identity never a boundary digit; {size - tail} elements "
             f"escape inside the tree, {tail} escape via their identity tail (boundary representatives)"]
    return ok, lines, {"tail_certified": tail,
                       "escape_histogram": dict(zip(levels.tolist(), counts.tolist()))}


@pytest.mark.parametrize("name", ["w_irr", "w_fiber", "w_z2", "w_heis", "manual"])
def test_genericity_matches_the_radix_route(request, name):
    # every preset, and a window whose boundary digits sit at both ends of its alphabets
    if name == "manual":
        win = manual_window([4, 16, 48], [((0, 2), (1,), (3,)), ((0,), (12,), (4, 8)),
                                          ((0,), (32,), (16,))])
    else:
        win = request.getfixturevalue(name)
    rep = check_genericity(win)
    assert (rep.passed, rep.lines, rep.data) == radix_genericity(win)


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
    # the top sector keeps one level-1 cylinder, but not a boundary one
    base = w_k[2]
    off_boundary = np.setdiff1d(np.arange(base.ds.size(1)), base.tree.pending_ranks[0])[0]
    sectors = [1] * base.ds.size(1)
    sectors[off_boundary] = 2
    win = Window(replace(base.spec, sector_of_rank=tuple(sectors)), base.ds)
    assert not check_irredundancy(win).passed


def test_self_similarity_pass_and_fail(w_irr):
    assert check_self_similarity(w_irr).passed
    # adversarial: swap the carry-unsafe top digit into the boundary part
    interior, exterior, boundary = partition_parts(w_irr, 2)
    bad_digit = w_irr.ds.alphabet(2)[-1]
    assert bad_digit in interior  # the builder kept it out of the boundary
    interior = tuple(t for t in interior if t != bad_digit) + (boundary[0],)
    boundary = boundary[1:] + (bad_digit,)
    win = with_partition(w_irr, 2, interior, exterior, boundary)
    rep = check_self_similarity(win)
    assert not rep.passed and rep.data["witness"]["level"] == 2


def reference_self_similarity_witness(win):
    """The scalar loop behind the self-similarity check: first level, boundary digit (in
    alphabet order), carry."""
    ds, g = win.ds, win.group
    for n in range(1, win.cap + 1):
        for c in partition_parts(win, n)[2]:
            for k in win.carries.level(n):
                if ds.head(g.mul(k, c), n) != g.mul(k, c):
                    return {"level": n, "carry": k, "digit": c}
    return None


def reference_genericity(win):
    """(passed, tail_certified, escape histogram) from the digit-index matrix of D_cap's rows."""
    ds, cap = win.ds, win.cap
    dig = ds.vec_digit_indices(ds.domain_array(cap), cap)
    escape = np.full(len(dig), cap + 1)
    alive = np.ones(len(dig), dtype=bool)
    for n in range(1, cap + 1):
        onb = np.isin(dig[:, n - 1], [ds.alphabet_index(n, t) for t in partition_parts(win, n)[2]])
        escape[alive & ~onb] = n
        alive &= onb
    nz = dig != 0
    depth = np.where(nz.any(axis=1), cap - np.argmax(nz[:, ::-1], axis=1), 0)
    late = escape > np.minimum(depth + 2, cap + 1)
    histogram = {int(lv): int((escape == lv).sum()) for lv in sorted(set(escape.tolist()))}
    return not late.any(), int(alive.sum()), histogram


def corrupted_windows(win):
    """Per level, copies whose boundary trades its first 1, 2 or 3 digits for the last interior ones.

    The identity is never moved, so genericity reaches its escape histogram.
    """
    for n in range(1, win.cap + 1):
        interior, exterior, boundary = partition_parts(win, n)
        pool = [t for t in interior if t != win.group.identity]
        for s in (1, 2, 3):
            m = min(s, len(boundary), len(pool))
            out, into = boundary[:m], tuple(pool[-m:])
            yield with_partition(win, n, tuple(t for t in interior if t not in into) + out,
                                 exterior, boundary[m:] + into)


@pytest.mark.parametrize("name", ["w_irr", "w_fiber", "w_z2", "w_heis"])
def test_checks_match_reference_loops_on_corrupted_partitions(request, name):
    win = request.getfixturevalue(name)
    failing_levels = set()
    for bad in corrupted_windows(win):
        want = reference_self_similarity_witness(bad)
        rep = check_self_similarity(bad)
        assert rep.passed == (want is None) and rep.data.get("witness") == want
        if want is not None:
            failing_levels.add(want["level"])
        rep = check_genericity(bad)
        assert (rep.passed, rep.data["tail_certified"], rep.data["escape_histogram"]) == (
            reference_genericity(bad)
        )
    assert failing_levels  # the swaps put carry-unsafe digits on the boundary


def test_interval_containment_oracle(w_irr):
    # for the integers the carry-safety check is interval containment
    ds = w_irr.ds
    for n in range(1, w_irr.cap + 1):
        m = ds.modulus(n)
        carries = w_irr.carries.level(n)
        for c in partition_parts(w_irr, n)[2]:
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


def test_verify_window_checks_carved_windows_against_their_base(w_fiber, w_k, w_kt, w_heis_kt2):
    # a k or ktilde window is checked against the perf window it was carved from
    for win in (w_k[2], w_kt[3], w_heis_kt2):
        reports = {r.name: r for r in verify_window(win)}
        assert reports["boundary_stability"].passed
    assert "boundary_stability" not in {r.name for r in verify_window(w_fiber)}


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
            kids = _children(win.tree, r, n)
            base_kids = _children(w_k[3].tree, r, n)
            n_in, base_in = int((kids == CLS_IN).sum()), int((base_kids == CLS_IN).sum())
            assert n_in >= base_in - 1
            if win.spec.sector_of_rank[int(r) % size_l] == win.spec.k:
                assert n_in >= 1


def test_validate_refuses_malformed_partitions(w_fiber):
    # one partition per level, one code per digit, each code CLS_IN, CLS_OUT or CLS_PENDING
    spec, ds = w_fiber.spec, w_fiber.ds
    level1 = spec.partitions[0]
    stray = level1.index(CLS_PENDING)
    cases = {
        **{f"level 1: digit index {stray} has class code {c}, not 0, 1 or 2 (interior, exterior "
           f"or boundary)": (level1[:stray] + (c,) + level1[stray + 1:], *spec.partitions[1:])
           for c in (-1, 3, 7)},
        f"need a partition for each of the {spec.cap} levels (got {spec.cap - 1})":
            spec.partitions[:-1],
        f"level 1: need a class code for each of the {len(level1)} digits (got "
        f"{len(level1) + 1})": (level1 + (CLS_PENDING,), *spec.partitions[1:]),
    }
    for message, partitions in cases.items():
        with pytest.raises(ConstructionError) as exc:
            Window(replace(spec, partitions=partitions), ds)
        assert str(exc.value) == message


def test_ktilde_unknown_e_rule_is_refused_by_validate(w_k):
    with pytest.raises(ConstructionError, match=r"^e_rule banana does not fit a ktilde window "
                       r"\(ktilde: dovetail, strict, per-parent; perf and k: none\)$"):
        build_ktilde(w_k[2], "banana")


def test_ktilde_empty_rule_is_identity(w_heis_k2):
    # with no designated level a ktilde window has no punctures and the k tree
    assert w_heis_k2.spec.designated_levels() == []
    spec = replace(w_heis_k2.spec, kind="ktilde", e_rule="dovetail", punctures=())
    tree = CylinderTree(w_heis_k2.ds, spec)
    for n in range(w_heis_k2.cap):
        assert np.array_equal(tree.class_by_rank[n], w_heis_k2.tree.class_by_rank[n])


def test_ktilde_bad_puncture_rejected(w_k, w_kt):
    win = w_k[2]
    out_rank = int(np.nonzero(win.tree.class_by_rank[2] == CLS_OUT)[0][0])
    (lvl, _ranks), *rest = w_kt[2].spec.punctures
    assert lvl == 3
    spec = replace(w_kt[2].spec, punctures=((3, (out_rank,)), *rest))
    with pytest.raises(ConstructionError, match="not an interior cylinder"):
        CylinderTree(win.ds, spec)


def test_k_above_every_sector_rejected(w_k):
    # classes and sectors stay in 1..k, but no cylinder lies in sector k
    with pytest.raises(ConstructionError, match="no cylinder lies in sector 4"):
        Window(replace(w_k[3].spec, k=4), w_k[3].ds)


def test_ktilde_punctures_only_at_designated_levels(w_kt):
    spec = w_kt[3].spec
    assert [lvl for lvl, _ in spec.punctures] == spec.designated_levels() == [4]
    (lvl, ranks), = spec.punctures
    for punctures in ((), ((lvl, ranks), (lvl, ranks)), ((lvl, ranks), (6, ranks))):
        with pytest.raises(ConstructionError, match=r"designated levels \[4\]"):
            CylinderTree(w_kt[3].ds, replace(spec, punctures=punctures))


def test_class_below_the_sector_level_rejected(w_fiber):
    # levels 2 and 3 lie above the sector level 3, so their parents have no sector
    win = build_k(w_fiber, 2, 3)
    classes = list(win.spec.level_class)
    classes[1] = 2
    with pytest.raises(ConstructionError, match="level 2: class 2"):
        Window(replace(win.spec, level_class=tuple(classes)), win.ds)


@pytest.mark.parametrize(
    "name, key",
    [(name, None) for name in ("w_irr", "w_fiber", "w_z2", "w_heis", "w_heis_k2", "w_heis_kt2")]
    + [(name, k) for name in ("w_k", "w_kt") for k in (1, 2, 3)],
)
def test_cap_level_gather_equals_first_decision(request, name, key):
    # every level holds its ancestors' decisions, so the cap level alone
    # classifies: the one gather agrees with the scalar walk at every rank
    win = request.getfixturevalue(name)
    win = win if key is None else win[key]
    codes = win.tree.vec_classify(np.arange(win.ds.size(win.cap)))
    walk = [win.tree.classify_indices(r)[0] for r in range(win.ds.size(win.cap))]
    assert codes.tolist() == walk


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


def test_heisenberg_puncture(w_heis, w_heis_kt1):
    win = w_heis_kt1
    assert win.spec.punctures == ((2, (3,)),)
    # the quartet and boundary stability against the perf base
    assert [r.passed for r in verify_window(win)] == [True] * 5
    assert win.tree.pending_equal(w_heis.tree)
    text = serialize_window(win)
    assert serialize_window(parse_window(text)) == text
    # k + 1 nested candidates plus one drop per top-class hitter, all distinct
    for xi in (critical_point(win), sample_point(win.ds, 1, win.cap)):
        fib = enumerate_fiber(win, xi)
        assert len(fib.candidates) == win.spec.k + 1 + len(fib.report.classes[-1]) == fib.distinct()


def test_parse_rejects_garbage(malformed_windows):
    for text in ["format = something-else\n", *malformed_windows.values()]:
        with pytest.raises(ConstructionError):
            parse_window(text)


def test_window_id_is_the_sha256_of_the_file_text(monkeypatch, w_irr, w_z2, w_heis_kt2):
    wins = (w_irr, w_z2, w_heis_kt2)
    want = [f"{w.spec.kind}-{hashlib.sha256(serialize_window(w).encode()).hexdigest()[:12]}"
            for w in wins]
    assert [w.spec.kind for w in wins] == ["perf", "perf", "ktilde"]
    builtin_sha256.cache_clear()
    try:
        assert [w.window_id for w in wins] == want
        assert builtin_sha256().__module__ in ("_sha2", "_sha256")
        # The constructor is looked up once: with both builtin modules blocked, a later id
        # is still hashed by the builtin found first, with no search of the path.
        found = builtin_sha256()
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert [w.window_id for w in wins] == want and builtin_sha256() is found
        # Looked up again with neither builtin module, the id comes from hashlib.
        builtin_sha256.cache_clear()
        assert [w.window_id for w in wins] == want
        assert builtin_sha256() is hashlib.sha256
    finally:
        builtin_sha256.cache_clear()
