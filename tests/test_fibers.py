"""Boundary hitters, fiber candidates, region certificates, exact densities."""

import random
from fractions import Fraction

import numpy as np
import pytest

from odowin.fibers import (
    birkhoff_stats,
    boundary_hitters_exact,
    critical_point,
    enumerate_fiber,
    similarity_classes,
    t_region,
)
from odowin.groups import ConstructionError
from odowin.model_sets import classify, emit_patch
from odowin.odometer import embed, odo_mul, rank_of_point, sample_point
from odowin.windows import CLS_IN, CLS_OUT, CLS_PENDING, boundary_measure


def close_pair(hitters_a, hitters_b, limit=8):
    """A pair (a, b), one from each list, with small positive difference."""
    best = None
    for a in hitters_a:
        for b in hitters_b:
            if a != b and abs(b - a) <= limit:
                if best is None or abs(b - a) < abs(best[1] - best[0]):
                    best = (a, b)
    assert best is not None, "no close pair available"
    return best


def test_critical_point_is_boundary(w_fiber, w_k):
    for win in (w_fiber, w_k[3]):
        xi = critical_point(win)
        assert classify(win, xi) == (CLS_PENDING, win.cap)


def test_critical_point_spells_the_first_boundary_digits(w_irr, w_fiber, w_k, w_kt, w_z2, w_heis):
    for win in (w_irr, w_fiber, w_k[3], w_kt[2], w_z2, w_heis):
        xi = critical_point(win)
        first = tuple(win.ds.alphabet(n)[codes.index(CLS_PENDING)]
                      for n, codes in enumerate(win.spec.partitions, start=1))
        assert xi.precision == win.cap and win.ds.spell(xi.rank, win.cap) == first


def test_haar_criticality_frequency(w_irr):
    # a random point stays on the boundary at the cap with probability nu(Z_cap)
    n = 400
    crit = sum(
        1
        for seed in range(n)
        if classify(w_irr, sample_point(w_irr.ds, seed, w_irr.cap))[0] == CLS_PENDING
    )
    p = float(boundary_measure(w_irr, w_irr.cap))
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(crit - n * p) <= 5 * sigma


def test_translated_criticality(w_fiber):
    # if xi is critical then so is every shifted copy, with a shifted hitter
    ds = w_fiber.ds
    xi = critical_point(w_fiber)
    for g in (7, 100):
        shifted = odo_mul(ds, embed(ds, g, w_fiber.cap), xi, w_fiber.cap)
        l = ds.head(ds.group.mul(ds.group.identity, ds.group.inv(g)), w_fiber.cap)
        orbit = odo_mul(ds, embed(ds, l, w_fiber.cap), shifted, w_fiber.cap)
        assert classify(w_fiber, orbit)[0] == CLS_PENDING


def test_hitter_count_is_exact(w_fiber, w_k):
    # shifting permutes cap-level cylinders: every point has exactly
    # #(boundary cylinders) hitters in the cap-level domain
    for win in (w_fiber, w_k[2]):
        for seed in (1, 2, 3):
            xi = sample_point(win.ds, seed, win.cap)
            hitters = boundary_hitters_exact(win, xi)
            assert len(hitters) == len(win.tree.pending_ranks[win.cap - 1])
            rep = similarity_classes(win, xi, win.ds.domain_list(win.cap))
            assert sorted(rep.hitters()) == sorted(g for g, _s in hitters)


def test_classes_respect_sectors(w_k):
    win = w_k[3]
    xi = sample_point(win.ds, 42, win.cap)
    rep = similarity_classes(win, xi, win.ds.domain_list(win.cap))
    by_sector = {}
    for g, s in boundary_hitters_exact(win, xi):
        by_sector.setdefault(s, []).append(g)
    for j in range(1, 4):
        assert sorted(rep.classes[j - 1]) == sorted(by_sector.get(j, []))


def test_small_patch_can_miss_classes(w_k):
    # classes are patch-relative: a small patch away from the hitters is empty
    win = w_k[2]
    xi = critical_point(win)
    hitters = {g for g, _ in boundary_hitters_exact(win, xi)}
    patch = [g for g in win.ds.domain_list(2) if g not in hitters][:10]
    rep = similarity_classes(win, xi, patch)
    assert all(len(c) == 0 for c in rep.classes)
    fib = enumerate_fiber(win, xi, patch)
    assert fib.distinct() == 1  # empty classes collapse every candidate


def test_perf_single_class_two_candidates(w_fiber):
    xi = critical_point(w_fiber)
    patch = w_fiber.ds.domain_list(w_fiber.cap)
    rep = similarity_classes(w_fiber, xi, patch)
    assert rep.k == 1 and len(rep.classes[0]) == 20
    fib = enumerate_fiber(w_fiber, xi, patch)
    assert len(fib.candidates) == 2 and fib.distinct() == 2
    a, b = fib.candidate(0), fib.candidate(1)
    differing = [g for g in patch if a.values[g] != b.values[g]]
    assert sorted(differing) == sorted(rep.classes[0])


def test_fiber_counts_and_chain(w_k):
    for k in (1, 2, 3):
        win = w_k[k]
        xi = sample_point(win.ds, 11, win.cap)
        patch = win.ds.domain_list(win.cap)
        fib = enumerate_fiber(win, xi, patch)
        assert fib.report.full_coverage()
        assert len(fib.candidates) == k + 1
        assert fib.distinct() == k + 1
        # candidates form a chain under coordinatewise comparison on hitters
        hitters = fib.report.hitters()
        cands = [fib.candidate(c) for c in range(len(fib.candidates))]
        for a, b in zip(cands, cands[1:]):
            assert all(a.values[g] >= b.values[g] for g in hitters)
        # monotone determination: a one at some class forces ones above it
        for cand in cands:
            for j, cls in enumerate(fib.report.classes, start=1):
                for higher in fib.report.classes[j:]:
                    if any(cand.values[g] == 1 for g in cls):
                        assert all(cand.values[g] == 1 for g in higher)


def test_ktilde_fiber_growth(w_kt):
    win = w_kt[3]
    sizes = []
    for level in (4, 5, 6):
        xi = sample_point(win.ds, 23, win.cap)
        patch = win.ds.domain_list(level)
        fib = enumerate_fiber(win, xi, patch)
        top = fib.report.classes[-1]
        assert len(fib.candidates) == (win.spec.k + 1) + len(top)
        assert fib.distinct() == len(fib.candidates) if top else True
        sizes.append(len(fib.candidates))
    assert sizes[0] <= sizes[1] <= sizes[2]
    assert sizes[2] == 4 + 12  # full patch sees the whole top class


def test_ktilde_atoms_and_pairwise_difference(w_kt):
    win = w_kt[2]
    xi = sample_point(win.ds, 5, win.cap)
    patch = win.ds.domain_list(win.cap)
    fib = enumerate_fiber(win, xi, patch)
    k = win.spec.k
    base = fib.candidate(k - 1)  # the candidate keeping the whole top class
    drops = [fib.candidate(c) for c in range(k + 1, len(fib.candidates))]
    assert len(drops) == len(fib.report.classes[-1])
    for cand, l in zip(drops, fib.report.classes[-1]):
        diff = [g for g in patch if cand.values[g] != base.values[g]]
        assert diff == [l] and cand.values[l] == 0


def test_t_region_trivial_and_ball(w_k):
    win = w_k[2]
    xi = critical_point(win)
    res = t_region(win, [], [], xi, 3)
    ball = 1
    for j in range(4, win.cap + 1):
        ball *= len(win.ds.alphabet(j))
    assert len(res.certificates) == ball  # empty constraints: the whole ball


def test_t_region_perf_same_class_empty(w_fiber):
    xi = critical_point(w_fiber)
    hitters = [g for g, _ in boundary_hitters_exact(w_fiber, xi)]
    a, b = close_pair(hitters, hitters)
    for eps in (2, 3, 4):
        for accept, reject in ((a, b), (b, a)):
            res = t_region(w_fiber, [accept], [reject], xi, eps)
            assert res.certificates == []
            assert res.mismatched_undecided == 0
            assert res.empty_certified


def test_t_region_cross_class_order(w_k):
    for k in (2, 3):
        win = w_k[k]
        xi = critical_point(win)
        by_sector = {}
        for g, s in boundary_hitters_exact(win, xi):
            by_sector.setdefault(s, []).append(g)
        for low, high in ((1, 2), (1, k), (k - 1, k)):
            if low == high:
                continue
            l_low, l_high = close_pair(by_sector[low], by_sector[high], limit=16)
            for eps in (2, 3):
                fw = t_region(win, [l_high], [l_low], xi, eps)
                bw = t_region(win, [l_low], [l_high], xi, eps)
                assert fw.certificates, (k, low, high, eps)
                assert bw.certificates == [] and bw.empty_certified


def test_birkhoff_census(w_k):
    win = w_k[3]
    for xi in (embed(win.ds, 0, win.cap), sample_point(win.ds, 3, win.cap)):
        stats = birkhoff_stats(win, xi, range(1, win.cap + 1))
        for n, row in stats.items():
            assert row["census_match"]
            # frequencies add to one
            freq_out = 1 - row["freq_interior"] - row["freq_boundary"]
            assert 0 <= freq_out <= 1
            dens = row["candidate_density"]
            if n >= win.spec.sector_level:
                assert all(a > b for a, b in zip(dens, dens[1:]))
                for j in range(1, win.spec.k + 1):
                    assert dens[j - 1] - dens[j] == row["sector_freq"][j]


def test_fiber_classifies_the_patch_once(w_kt, monkeypatch):
    # the report and every candidate come from one shift and one classification
    from odowin.expansion import DomainSequence
    from odowin.windows import CylinderTree

    calls = []
    for cls, name in ((DomainSequence, "product_ranks"), (CylinderTree, "vec_classify")):
        def counted(self, *args, _fn=getattr(cls, name), _name=name):
            calls.append(_name)
            return _fn(self, *args)

        monkeypatch.setattr(cls, name, counted)
    win = w_kt[3]
    fib = enumerate_fiber(win, sample_point(win.ds, 23, win.cap), win.ds.domain_list(win.cap))
    assert sorted(calls) == ["product_ranks", "vec_classify"]
    assert fib.distinct() == len(fib.candidates) == win.spec.k + 1 + len(fib.report.classes[-1])


def test_classes_are_spelled_when_read(w_irr, w_kt, monkeypatch):
    # the report keeps its hitters as rows; the classes are group elements only once read,
    # and a fiber over the budget is refused before its candidate matrix exists
    from odowin import expansion

    for win in (w_irr, w_kt[2]):
        fib = enumerate_fiber(win, sample_point(win.ds, 1, win.cap))
        rep = fib.report
        assert "classes" not in vars(rep) and rep.full_coverage() and rep.k == win.spec.k
        hitters = win.group.from_array(fib.patch.rows[fib.hitters])
        assert rep.classes == [hitters[a:b] for a, b in zip(rep.bounds, rep.bounds[1:])]
        assert rep.hitters() == hitters
        drops = [label for label in fib.labels if "-drop-" in label]
        assert drops == ([f"x{rep.k}-drop-{g}" for g in rep.classes[-1]]
                         if win.spec.kind == "ktilde" else [])
        entries = fib.candidates.size
        monkeypatch.setattr(expansion, "ARRAY_BUDGET", entries * expansion.REPORT_ENTRY_BYTES - 1)
        with pytest.raises(ConstructionError, match=f"a fiber report of {entries} "):
            enumerate_fiber(win, sample_point(win.ds, 1, win.cap))
        monkeypatch.undo()


def test_default_and_explicit_fiber_routes_agree(w_kt, w_heis_kt2, monkeypatch):
    # the default patch D_m is ranked 0..size(m)-1 with no element round trip:
    # the one ranking is the shift's, inside product_ranks
    from odowin.expansion import DomainSequence
    from odowin.groups import GroupContext

    calls, converted = [], []
    for cls, name in ((GroupContext, "to_array"), (DomainSequence, "vec_rank"),
                      (DomainSequence, "product_ranks")):
        def counted(self, *args, _fn=getattr(cls, name), _name=name):
            calls.append(_name)
            return _fn(self, *args)

        monkeypatch.setattr(cls, name, counted)

    def from_array(self, arr, _fn=GroupContext.from_array):
        converted.append(len(arr))
        return _fn(self, arr)

    monkeypatch.setattr(GroupContext, "from_array", from_array)
    for win in (w_kt[3], w_heis_kt2):
        xi = sample_point(win.ds, 5, win.cap)
        for m in (0, 1, win.cap):
            calls.clear()
            converted.clear()
            default = enumerate_fiber(win, xi, patch_level=m)
            assert calls == ["product_ranks", "vec_rank"]
            # only the hitters' rows become elements; D_m is never converted
            assert sum(converted) <= len(default.hitters)
            explicit = enumerate_fiber(win, xi, win.ds.domain_list(m))
            assert default.labels == explicit.labels
            assert np.array_equal(default.hitters, explicit.hitters)
            assert default.report.classes == explicit.report.classes
            assert np.array_equal(default.candidates, explicit.candidates)
            for c in range(len(default.candidates)):
                a, b = default.candidate(c), explicit.candidate(c)
                assert a.positions == b.positions
                assert np.array_equal(a.ranks, b.ranks) and np.array_equal(a.codes, b.codes)
    # default level: the cap
    assert np.array_equal(enumerate_fiber(win, xi).hitters, explicit.hitters)


def _reference_fiber(win, xi, patch):
    """The per-candidate loop the code matrix replaced: one full code copy per candidate.

    Returns the class index lists, the candidates' full code arrays, and their
    distinct count, all on the cap-level default patch when ``patch`` is None.
    """
    base = emit_patch(win, xi, patch, patch_level=win.cap)
    orbit = win.ds.product_ranks(base.ranks, rank_of_point(win.ds, xi, win.cap), win.cap)
    pending = np.flatnonzero(base.codes == CLS_PENDING)
    sectors = win.spec.sector_of(orbit[pending]).tolist()
    key = win.group.sort_key
    k = win.spec.k
    index = [
        sorted((int(i) for i, s in zip(pending, sectors) if s == j),
               key=lambda i: key(base.positions[i]))
        for j in range(1, k + 1)
    ]
    candidates = []
    for j in range(1, k + 2):
        codes = base.codes.copy()
        for cj, idx in enumerate(index, start=1):
            codes[idx] = CLS_IN if cj >= j else CLS_OUT
        candidates.append(codes)
    if win.spec.kind == "ktilde":
        top = candidates[k - 1]
        for i in index[-1]:
            codes = top.copy()
            codes[i] = CLS_OUT
            candidates.append(codes)
    return index, candidates, len({c.tobytes() for c in candidates})


@pytest.mark.parametrize("name", ["fiber", "k2", "kt3", "z2", "heis_k2", "heis_kt2"])
def test_code_matrix_matches_per_candidate_loop(request, name):
    win = {
        "fiber": lambda: request.getfixturevalue("w_fiber"),
        "k2": lambda: request.getfixturevalue("w_k")[2],
        "kt3": lambda: request.getfixturevalue("w_kt")[3],
        "z2": lambda: request.getfixturevalue("w_z2"),
        "heis_k2": lambda: request.getfixturevalue("w_heis_k2"),
        "heis_kt2": lambda: request.getfixturevalue("w_heis_kt2"),
    }[name]()
    g = win.group
    xi = sample_point(win.ds, 5, win.cap)
    domain = win.ds.domain_list(win.cap)
    shuffled = domain[:]
    random.Random(0).shuffle(shuffled)
    negated = [g.inv(x) for x in domain[: len(domain) // 2]]
    first = enumerate_fiber(win, xi).report
    hit = set(first.hitters())
    outside = [x for x in domain if x not in hit][:20]
    patches = {
        "default": None,
        "shuffled": shuffled,
        "negated-duplicates": negated + negated[:40],
        "empty-classes": first.classes[0] + outside,
    }
    for label, patch in patches.items():
        fib = enumerate_fiber(win, xi, patch)
        index, codes, distinct = _reference_fiber(win, xi, patch)
        hitters = [i for idx in index for i in idx]
        assert fib.hitters.tolist() == hitters, label
        assert [len(c) for c in fib.report.classes] == [len(idx) for idx in index], label
        assert fib.candidates.dtype == np.int8, label
        assert fib.candidates.shape == (len(codes), len(hitters)), label
        assert len(fib.labels) == len(codes), label
        for c, want in enumerate(codes):
            cand = fib.candidate(c)
            assert np.array_equal(cand.codes, want), (label, c)
            assert np.array_equal(cand.ranks, fib.patch.ranks), (label, c)
            assert np.array_equal(fib.candidates[c], want[hitters]), (label, c)
        assert fib.distinct() == distinct, label
    if win.spec.k > 1:
        assert not enumerate_fiber(win, xi, patches["empty-classes"]).report.full_coverage()
