"""Acceptance battery: one test per shipped guarantee, each printing a verdict.

Everything here is exact: measures are rationals, classifications are cylinder
censuses, and the two-route arithmetic comparisons must agree on every pair.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from odowin import presets
from odowin.cli import main
from odowin.expansion import carry_mul, expand, reconstruct, verify_carry_identity
from odowin.fibers import (
    birkhoff_stats,
    boundary_hitters_exact,
    critical_point,
    enumerate_fiber,
    similarity_classes,
    t_region,
)
from odowin.model_sets import per_sets, regularity
from odowin.odometer import embed, sample_point
from odowin.windows import (
    CLS_PENDING,
    boundary_measure,
    check_genericity,
    check_irredundancy,
    check_self_similarity,
    parse_window,
    serialize_window,
)

GROUP_PRESETS = ("z-carry", "z2-pow2", "heis-pow2")


@pytest.fixture(scope="module")
def group_domains():
    return {name: presets.domains(name, 6 if not name.startswith("heis") else 4)
            for name in GROUP_PRESETS}


@pytest.fixture(scope="module")
def carry_reports(group_domains):
    """Level-4 two-route carry checks, shared by c01 and c10 (16.7M pairs on heis-pow2)."""
    return {name: verify_carry_identity(ds, 4) for name, ds in group_domains.items()}


@pytest.fixture(scope="module")
def battery(w_irr, w_fiber, w_k, w_kt, w_z2, w_heis, w_heis_k2, w_heis_kt2):
    wins = {"z-irregular": w_irr, "z-fiber-perf": w_fiber, "z2": w_z2, "heis": w_heis,
            "heis-k2": w_heis_k2, "heis-kt2": w_heis_kt2}
    for k in (1, 2, 3):
        wins[f"z-fiber-k{k}"] = w_k[k]
        wins[f"z-fiber-kt{k}"] = w_kt[k]
    return wins


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_c01_carry_oracle_equivalence(group_domains, carry_reports):
    """Digit-recursion products equal direct products on all level-4 pairs."""
    total = 0
    for name, ds in group_domains.items():
        rep = carry_reports[name]
        assert rep["mismatches"] == 0, name
        assert rep["spot_check_failures"] == 0, name
        assert rep["pairs"] == ds.size(4) ** 2
        total += rep["pairs"]
    # scalar full-expansion comparison where products stay inside the domains
    ds = group_domains["z-carry"]
    for g, h in itertools.product(ds.domain_list(4), repeat=2):
        prefix, carry = carry_mul(ds, ds.digit_prefix(g, 4), ds.digit_prefix(h, 4), 4)
        prod = g + h
        d = expand(ds, prod)
        padded = d.coefficients + (0,) * (4 - len(d.coefficients))
        assert prefix == padded[:4]
        assert reconstruct(ds, prefix, carry) == prod
    report(1, f"carry recursion equals direct multiplication on {total} pairs "
              "across three groups, zero mismatches")


def test_c02_expansion_law_suite(group_domains):
    """Head/digit laws hold exhaustively on level-3 pairs; digit strings are unique."""
    for name, ds in group_domains.items():
        grp = ds.group
        dom = ds.domain_array(3)
        size = ds.size(3)
        gi, hi = np.divmod(np.arange(size * size, dtype=np.int64), size)
        G, H = dom[gi], dom[hi]
        dG = ds.vec_digit_indices(dom, 3)
        # (1) the level-n head is the product of the first n digits, also for
        # rows outside D_3 with negative coordinates or beyond the modulus
        m = ds.modulus(3)
        outside = np.random.default_rng(3).integers(-3 * m, 3 * m, size=(4096, dom.shape[1]))
        for rows in (dom, outside):
            digits = ds.vec_digit_indices(rows, 3)
            acc = np.zeros_like(rows)
            for n in range(1, 4):
                digit_elems = ds.group.to_array(list(ds.alphabet(n)))[digits[:, n - 1]]
                acc = grp.vec_mul(acc, digit_elems)
                heads = ds.domain_array(n)[ds.vec_rank(rows, n)]
                assert np.array_equal(acc, heads), (name, n)
        for n in range(1, 4):
            headsG = ds.domain_array(n)[ds.vec_rank(G, n)]
            headsH = ds.domain_array(n)[ds.vec_rank(H, n)]
            # (2) equal heads exactly when digit prefixes agree
            eq_heads = np.all(headsG == headsH, axis=1)
            eq_digits = np.all(dG[gi][:, :n] == dG[hi][:, :n], axis=1)
            assert np.array_equal(eq_heads, eq_digits), (name, n)
            # (4) digits of the head agree with digits of the element
            assert np.array_equal(
                ds.vec_digit_indices(ds.domain_array(n)[ds.vec_rank(dom, n)], n),
                dG[:, :n],
            ), (name, n)
            # (5) products and inverses only see heads
            prod = grp.vec_mul(G, H)
            head_prod = grp.vec_mul(headsG, headsH)
            assert np.array_equal(ds.vec_rank(prod, n), ds.vec_rank(head_prod, n)), (name, n)
            inv_full = grp.vec_inv(dom)
            inv_head = grp.vec_inv(dom[ds.vec_rank(dom, n)])
            assert np.array_equal(ds.vec_rank(inv_full, n), ds.vec_rank(inv_head, n))
            # (3) the level-n digit ignores level-n subgroup factors on both sides
            if n < ds.levels:
                for gamma in ds.alphabet(n + 1):
                    garr = np.tile(grp.to_array([gamma]), (size, 1))
                    left = ds.vec_digit_indices(grp.vec_mul(garr, dom), n)[:, n - 1]
                    right = ds.vec_digit_indices(grp.vec_mul(dom, garr), n)[:, n - 1]
                    assert np.array_equal(left, dG[:, n - 1]), (name, n)
                    assert np.array_equal(right, dG[:, n - 1]), (name, n)
        # uniqueness: all level-3 digit strings recompose bijectively onto D_3
        seen = set()
        for combo in itertools.product(*(ds.alphabet(j) for j in (1, 2, 3))):
            g = reconstruct(ds, combo)
            assert ds.digit_prefix(g, 3) == combo
            seen.add(g)
        assert seen == ds.domain_set(3)
    report(2, "all five digit laws exact on exhaustive level-3 pairs for three "
              "groups; digit strings unique by exhaustive recomposition")


def test_c03_boundary_measure(battery, w_irr):
    """Product rule equals exhaustive census; the 1/2-target window meets its bound."""
    for name, win in battery.items():
        for n in range(win.cap + 1):
            v = boundary_measure(win, n)  # raises on product/census mismatch
            assert v == (
                1 if n == 0
                else Fraction(len(win.tree.pending_ranks[n - 1]), win.ds.size(n))
            )
    assert w_irr.spec.epsilon == Fraction(1, 2)
    assert boundary_measure(w_irr, w_irr.cap) >= Fraction(1, 2)
    report(3, f"boundary product rule equals the census on {len(battery)} windows; "
              f"epsilon=1/2 window has boundary mass {boundary_measure(w_irr, w_irr.cap)} >= 1/2")


def test_c04_regularity_identity(battery):
    """Periodic share plus boundary mass is exactly one; the share never drops."""
    for name, win in battery.items():
        values = [regularity(win, n) for n in range(1, win.cap + 1)]
        for n, d in enumerate(values, start=1):
            assert d + boundary_measure(win, n) == 1, name
            ps = per_sets(win, n)
            assert d == Fraction(len(ps.ones) + len(ps.zeros), win.ds.size(n))
        assert all(a <= b for a, b in zip(values, values[1:])), name
    report(4, "periodic share + boundary mass = 1 at every level of every window, "
              "with the share nondecreasing")


def test_c05_criteria_quartet(battery):
    """Genericity, one-excluded-child irredundancy, and carry safety all pass."""
    for name, win in battery.items():
        assert check_genericity(win).passed, name
        assert check_irredundancy(win).passed, name
        assert check_self_similarity(win).passed, name
    report(5, f"genericity, irredundancy certificates, and carry-safe boundary digits "
              f"verified on {len(battery)} windows")


def test_c06_boundary_stability(w_fiber, w_k, w_kt, w_heis, w_heis_k2, w_heis_kt2):
    """Sector and punctured windows keep the base window's boundary cylinders."""
    for k in (1, 2, 3):
        assert w_k[k].tree.pending_equal(w_fiber.tree)
        assert w_kt[k].tree.pending_equal(w_fiber.tree)
    assert w_heis_k2.tree.pending_equal(w_heis.tree)
    assert w_heis_kt2.tree.pending_equal(w_heis.tree)
    report(6, "boundary cylinder sets of sector and punctured windows equal the "
              "base window's at every level")


def _check_monotone(fib, punctured: bool):
    """A one anywhere in a class forces ones throughout every higher class;
    classes are internally constant except the punctured top class."""
    classes = fib.report.classes
    k = len(classes)
    for cand in fib.candidates:
        vals = [{cand.values[g] for g in cls} for cls in classes]
        for i in range(1, k + 1):
            if 1 in vals[i - 1]:
                for j in range(i + 1, k + 1):
                    assert vals[j - 1] == {1}
        for i in range(1, k + 1):
            if punctured and i == k:
                continue
            assert len(vals[i - 1]) <= 1


def test_c07_fiber_cardinality(w_k, w_kt):
    """k+1 pairwise distinct candidates under full coverage; punctured growth."""
    seeds = range(100)
    for k in (1, 2, 3):
        win = w_k[k]
        size_by_level = {m: win.ds.size(m) for m in (4, 5, 6)}
        coverage = {m: 0 for m in (4, 5, 6)}
        for s in seeds:
            xi = sample_point(win.ds, s, win.cap)
            hitters = boundary_hitters_exact(win, xi)
            assert len(hitters) == len(win.tree.pending_ranks[win.cap - 1])
            for m in (4, 5, 6):
                classes = {j: 0 for j in range(1, k + 1)}
                for g, sec in hitters:
                    if win.ds.rank_of(g, win.cap) < size_by_level[m]:
                        classes[sec] += 1
                if all(classes.values()):
                    coverage[m] += 1
        fractions = [Fraction(coverage[m], 100) for m in (4, 5, 6)]
        assert fractions[0] <= fractions[1] <= fractions[2]
        assert fractions[2] == 1  # the cap-level patch always hits every class
        # full candidate enumeration on a fixed sample of shifts
        for s in (0, 17, 42, 71, 99):
            xi = sample_point(win.ds, s, win.cap)
            patch = win.ds.domain_list(win.cap)
            fib = enumerate_fiber(win, xi, patch)
            assert fib.report.full_coverage()
            assert len(fib.candidates) == k + 1 == fib.distinct()
            kt = enumerate_fiber(w_kt[k], xi, patch)
            top = len(kt.report.classes[-1])
            assert len(kt.candidates) == (k + 1) + top == kt.distinct()
            small = enumerate_fiber(w_kt[k], xi, win.ds.domain_list(4))
            assert len(small.candidates) <= len(kt.candidates)
            assert top >= 2  # the full patch always sees top-class growth
        print(f"  k={k}: coverage fractions by patch level 4/5/6 = "
              f"{[str(f) for f in fractions]}")
    report(7, "fiber candidate counts k+1 (and k+1+top-class for punctured windows), "
              "pairwise distinct, with full coverage at the cap patch")


def test_c08_order_structure(w_fiber, w_k, w_kt):
    """Region certificates respect the strict class order; candidates are monotone."""

    def close_pair(a_list, b_list, limit=16):
        best = None
        for a in a_list:
            for b in b_list:
                if a != b and abs(b - a) <= limit:
                    if best is None or abs(b - a) < abs(best[1] - best[0]):
                        best = (a, b)
        return best

    xi = critical_point(w_fiber)
    hitters = [g for g, _ in boundary_hitters_exact(w_fiber, xi)]
    a, b = close_pair(hitters, hitters)
    for eps in (2, 3, 4):
        for acc, rej in ((a, b), (b, a)):
            res = t_region(w_fiber, [acc], [rej], xi, eps)
            assert res.empty_certified
    for k in (2, 3):
        win = w_k[k]
        xi = critical_point(win)
        by_sector = {}
        for g, s in boundary_hitters_exact(win, xi):
            by_sector.setdefault(s, []).append(g)
        for low in range(1, k):
            for high in range(low + 1, k + 1):
                l_low, l_high = close_pair(by_sector[low], by_sector[high])
                for eps in (2, 3):
                    assert t_region(win, [l_high], [l_low], xi, eps).certificates
                    assert t_region(win, [l_low], [l_high], xi, eps).empty_certified
    # monotone determination inside every enumerated fiber element
    for k in (1, 2, 3):
        for s in (3, 42):
            xi = sample_point(w_k[k].ds, s, w_k[k].cap)
            patch = w_k[k].ds.domain_list(w_k[k].cap)
            _check_monotone(enumerate_fiber(w_k[k], xi, patch), punctured=False)
            _check_monotone(enumerate_fiber(w_kt[k], xi, patch), punctured=True)
    report(8, "same-class regions certified empty, cross-class regions certified "
              "nonempty in the order direction only; candidates monotone")


def test_c09_density_chain(w_k):
    """Candidate densities strictly decrease with gaps equal to sector masses."""
    for k in (2, 3):
        win = w_k[k]
        for xi in (embed(win.ds, 0, win.cap), sample_point(win.ds, 13, win.cap)):
            stats = birkhoff_stats(win, xi, range(win.spec.sector_level, win.cap + 1))
            for n, row in stats.items():
                assert row["census_match"], (k, n)
                dens = row["candidate_density"]
                assert all(x > y for x, y in zip(dens, dens[1:])), (k, n)
                for j in range(1, k + 1):
                    assert dens[j - 1] - dens[j] == row["sector_census"][j]
    report(9, "exact candidate densities strictly decreasing; consecutive gaps equal "
              "the sector boundary masses; orbit frequencies equal the census")


def test_c10_noncommutative_carry(group_domains, carry_reports):
    """The conjugation step of the carry rule is provably active on Heisenberg."""
    ds = group_domains["heis-pow2"]
    rep = carry_reports["heis-pow2"]
    wit = rep["alpha_witness"]
    assert wit is not None
    grp = ds.group
    assert grp.conj_in_context(wit["context"], wit["digit"]) == wit["conjugated"]
    assert wit["conjugated"] != wit["digit"]
    # replay through an actual pair: the witness context arises from a real head
    j = wit["level"]
    s = next(
        h for h in ds.domain_list(j - 1) if grp.conj_context(h) == wit["context"]
    )
    p = wit["digit"]
    prefix, carry = carry_mul(ds, ds.digit_prefix(p, j), ds.digit_prefix(s, j), j)
    assert reconstruct(ds, prefix, carry) == grp.mul(p, s)
    report(10, f"nonabelian carry witness at level {j}: digit {p} conjugates to "
               f"{wit['conjugated']} within pair ({p}, {s})")


def test_c11_determinism_round_trip(tmp_path, battery):
    """Identical configs produce identical bytes; serialization is lossless."""
    cfg = tmp_path / "w.cfg"
    cfg.write_text(
        "[group]\nname = Z\n\n[chain]\nmoduli = 8,48,288,1440,7200,36000\n\n"
        "[window]\nkind = ktilde\nk = 3\nsector_level = 1\ncap = 6\ndelta = 104\n"
    )
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("window.txt", "build_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for name, win in battery.items():
        text = serialize_window(win)
        back = parse_window(text)
        assert serialize_window(back) == text, name
        assert back.tree.pending_equal(win.tree), name
        for n in range(win.cap):
            assert np.array_equal(back.tree.class_by_rank[n], win.tree.class_by_rank[n])
    report(11, f"byte-identical rebuilds; lossless serialize/parse round trip on "
               f"{len(battery)} windows")
