"""Array emission, periodicity partitions, and regularity."""

import json
from fractions import Fraction

import numpy as np
import pytest

from odowin.groups import ConstructionError
from odowin.model_sets import (
    classify,
    emit_patch,
    patch_jsonl,
    patch_pgm,
    per_sets,
    regularity,
)
from odowin.odometer import OdometerPoint, embed, odo_mul
from odowin.windows import CLS_IN, CLS_OUT, CLS_PENDING, boundary_measure


def test_classify_examples(w_irr):
    ds = w_irr.ds
    a1 = ds.alphabet(1)[w_irr.spec.partitions[0].index(CLS_IN)]
    cls, level = classify(w_irr, embed(ds, a1, w_irr.cap))
    assert cls == CLS_IN and level == 1
    all_boundary = OdometerPoint(tuple(
        ds.alphabet(n)[p.index(CLS_PENDING)] for n, p in enumerate(w_irr.spec.partitions, start=1)
    ))
    assert classify(w_irr, all_boundary) == (CLS_PENDING, w_irr.cap)


def test_embedded_points_resolve_before_cap(w_irr, w_fiber):
    for win in (w_irr, w_fiber):
        for g in win.ds.domain_list(win.cap - 1):
            cls, level = classify(win, embed(win.ds, g, win.cap))
            assert cls in (CLS_IN, CLS_OUT) and level <= win.cap


def test_emit_identity_has_no_undecided(w_irr, w_fiber, w_heis):
    for win in (w_irr, w_fiber, w_heis):
        patch = emit_patch(win)
        assert patch.undecided() == []
        assert set(patch.values.values()) <= {0, 1}
        assert len(patch.positions) == win.ds.size(win.cap - 1)


def test_emit_critical_shift_is_undecided_at_identity(w_irr):
    from odowin.fibers import critical_point

    xi = critical_point(w_irr)
    patch = emit_patch(w_irr, xi, patch_level=1)
    assert patch.values[w_irr.group.identity] is None


def test_emit_matches_pointwise_classification(w_fiber):
    ds = w_fiber.ds
    from odowin.odometer import sample_point

    xi = sample_point(ds, 77, w_fiber.cap)
    patch = emit_patch(w_fiber, xi, patch=ds.domain_list(2))
    for g in patch.positions:
        cls, _ = classify(w_fiber, odo_mul(ds, embed(ds, g, w_fiber.cap), xi, w_fiber.cap))
        want = 1 if cls == CLS_IN else 0 if cls == CLS_OUT else None
        assert patch.values[g] == want


def test_shift_equivariance(w_irr):
    # the value of the h-shifted array at g equals the base array at g·h
    ds = w_irr.ds
    h = 37
    patch_h = emit_patch(w_irr, embed(ds, h, w_irr.cap), patch=ds.domain_list(1))
    for g in patch_h.positions:
        base_cls, _ = classify(w_irr, embed(ds, ds.group.mul(g, h), w_irr.cap))
        assert patch_h.values[g] == (1 if base_cls == CLS_IN else 0)


def test_per_sets_partition(w_irr):
    for n in range(1, w_irr.cap + 1):
        ps = per_sets(w_irr, n)
        dom = w_irr.ds.domain_list(n)
        assert sorted(ps.ones + ps.zeros + ps.unresolved) == sorted(dom)
        expected = 1
        for j in range(1, n + 1):
            expected *= w_irr.spec.partitions[j - 1].count(CLS_PENDING)
        assert len(ps.unresolved) == expected


def test_per_sets_hereditary(w_irr):
    # periodic cosets stay periodic one level deeper
    ds = w_irr.ds
    for n in range(1, w_irr.cap):
        ps = per_sets(w_irr, n)
        next_ps = per_sets(w_irr, n + 1)
        ones_next, zeros_next = set(next_ps.ones), set(next_ps.zeros)
        for g in ps.ones[:50]:
            assert ds.head(g, n + 1) in ones_next
        for g in ps.zeros[:50]:
            assert ds.head(g, n + 1) in zeros_next


def test_regularity_identity_and_monotone(w_irr, w_fiber, w_z2, w_heis):
    for win in (w_irr, w_fiber, w_z2, w_heis):
        values = [regularity(win, n) for n in range(1, win.cap + 1)]
        for n, d in enumerate(values, start=1):
            assert d + boundary_measure(win, n) == 1
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_irregular_window_regularity_stays_small(w_irr):
    # boundary >= 1 - epsilon = 1/2 keeps the periodic share below epsilon
    assert regularity(w_irr, w_irr.cap) <= Fraction(1, 2)


def test_toeplitz_property(w_irr):
    # with the identity shift every patch position is periodic at some level <= cap
    patch = emit_patch(w_irr)
    for n in range(1, w_irr.cap + 1):
        ps = per_sets(w_irr, n)
        periodic = set(ps.ones) | set(ps.zeros)
        for g in patch.positions[:100]:
            head = w_irr.ds.head(g, n)
            if head in periodic:
                break
        else:
            pytest.fail("position never became periodic")


def test_emitted_sequence_is_periodic_on_resolved_cosets(w_irr):
    # positions whose coset resolved at level n repeat their value with
    # period m_n throughout the patch
    ds = w_irr.ds
    patch = emit_patch(w_irr, patch_level=w_irr.cap - 1)
    for n in (1, 2):
        ps = per_sets(w_irr, n)
        m = ds.modulus(n)
        for g, want in [(h, 1) for h in ps.ones[:10]] + [(h, 0) for h in ps.zeros[:10]]:
            for t in range(ds.size(w_irr.cap - 1) // m):
                pos = g + m * t
                if pos in patch.values:
                    assert patch.values[pos] == want


def test_jsonl_output(w_irr):
    patch = emit_patch(w_irr, patch_level=2)
    lines = patch_jsonl(w_irr, patch).strip().split("\n")
    assert len(lines) == len(patch.positions)
    for line in lines[:10]:
        rec = json.loads(line)
        assert rec["value"] in (0, 1, "?")
        assert len(rec["digits"]) == w_irr.cap


def test_pgm_render(w_z2):
    patch = emit_patch(w_z2, patch_level=w_z2.cap)
    data = patch_pgm(w_z2, patch, w_z2.cap).decode()
    header, dims, maxval = data.split("\n")[:3]
    m = w_z2.ds.modulus(w_z2.cap)
    assert header == "P2" and dims == f"{m} {m}" and maxval == "255"
    rows = data.strip().split("\n")[3:]
    assert len(rows) == m and all(len(r.split()) == m for r in rows)
    # critical shift marks the identity pixel gray
    from odowin.fibers import critical_point

    xi = critical_point(w_z2)
    gray = patch_pgm(w_z2, emit_patch(w_z2, xi, patch_level=w_z2.cap), w_z2.cap).decode()
    assert gray.split("\n")[3].split()[0] == "127"


def test_pgm_refuses_a_patch_missing_a_box_cell(w_z2):
    # (0,0) twice and (1,1) missing: as many in-box positions as cells, one cell unevaluated
    box = w_z2.ds.domain_list(1)
    assert len(box) == w_z2.ds.modulus(1) ** 2 and (1, 1) in box
    patch = emit_patch(w_z2, patch=[(0, 0) if g == (1, 1) else g for g in box])
    with pytest.raises(ConstructionError, match="does not cover"):
        patch_pgm(w_z2, patch, 1)
    patch_pgm(w_z2, emit_patch(w_z2, patch=box[::-1] + [(-1, 0)]), 1)  # any order, extras ignored


def test_pgm_rejects_non_planar(w_irr):
    patch = emit_patch(w_irr, patch_level=1)
    with pytest.raises(ConstructionError):
        patch_pgm(w_irr, patch, 1)


def _jsonl_oracle(win, patch):
    """The record rule: json.dumps with sorted keys and compact separators, one line each."""
    def plain(x):
        return list(x) if isinstance(x, tuple) else x

    lines = []
    for g in patch.positions:
        v = patch.values[g]
        record = {
            "element": plain(g),
            "digits": [plain(t) for t in win.ds.digit_prefix(g, win.cap)],
            "value": "?" if v is None else v,
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def test_jsonl_matches_json_dumps(w_irr, w_z2, w_heis):
    from odowin.fibers import critical_point
    from odowin.odometer import sample_point

    explicit = {
        "Z": [-3, -100, 5, 0, -1],
        "Z2": [(-3, 2), (4, -7), (0, 0), (-1, -1)],
        "Heisenberg": [(-3, 2, -1), (4, -7, 9), (0, 0, 0)],
    }
    for win in (w_irr, w_z2, w_heis):
        g_inv = win.group.inv
        shifts = (None, sample_point(win.ds, 5, win.cap), critical_point(win))
        for xi in shifts:
            for patch in (
                emit_patch(win, xi),
                emit_patch(win, xi, patch_level=1),
                emit_patch(win, xi, patch=explicit[win.group.name]),
                # negative coordinates and ranks spread over the whole cap level:
                # the digit table reaches level cap - 1 and the cap digit goes per record
                emit_patch(win, xi, patch=[g_inv(g) for g in win.ds.domain_list(win.cap - 1)]),
                # shorter than T_1: the digit table holds level 1 only
                emit_patch(win, xi, patch=explicit[win.group.name][:2]),
            ):
                assert patch_jsonl(win, patch) == _jsonl_oracle(win, patch)
            assert patch_jsonl(win, emit_patch(win, xi, patch=[])) == "\n"
    crit = emit_patch(w_z2, critical_point(w_z2), patch_level=1)
    assert '"value":"?"' in patch_jsonl(w_z2, crit)


def test_default_and_explicit_patch_routes_agree(w_irr, w_z2, w_heis):
    from odowin.odometer import sample_point

    for win in (w_irr, w_z2, w_heis):
        xi = sample_point(win.ds, 3, win.cap)
        for m in range(win.cap + 1):
            default = emit_patch(win, xi, patch_level=m)
            explicit = emit_patch(win, xi, patch=win.ds.domain_list(m))
            assert default.positions == explicit.positions
            assert default.ranks.dtype == explicit.ranks.dtype == np.int64
            assert np.array_equal(default.ranks, explicit.ranks)
            assert np.array_equal(default.codes, explicit.codes)
            assert default.values == explicit.values
