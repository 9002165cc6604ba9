"""Symbolic arrays cut from a window: membership, patches, periodicity.

The array attached to a window takes value 1 at g exactly when the embedded
point of g lands in the window.  Shifted arrays evaluate the embedded point
times a completion point ξ.  Every recorded value comes from an exact cylinder
classification; positions whose orbit is still on the boundary at the tree
cap are marked undecided instead of being forced to 0 or 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .groups import ConstructionError, Elem, PrecisionError
from .odometer import OdometerPoint, embed, rank_of_point
from .windows import CLS_IN, CLS_OUT, CLS_PENDING, Window


@dataclass
class SymbolicPatch:
    """Finite piece of a (possibly shifted) window array.

    ``values[g]`` is 1, 0, or None (undecided at the tree cap).  Provenance
    records the window, the shift digits, and the classification depth.
    """

    positions: tuple[Elem, ...]
    values: dict[Elem, int | None]
    window_id: str
    shift_digits: tuple[Elem, ...]
    level_used: int

    def undecided(self) -> list[Elem]:
        return [g for g in self.positions if self.values[g] is None]

    def ones(self) -> int:
        return sum(1 for g in self.positions if self.values[g] == 1)

    def restrict(self, positions: Sequence[Elem]) -> "SymbolicPatch":
        pos = tuple(positions)
        return SymbolicPatch(
            pos,
            {g: self.values[g] for g in pos},
            self.window_id,
            self.shift_digits,
            self.level_used,
        )


def classify(win: Window, x: OdometerPoint) -> tuple[int, int]:
    """(class, deciding level) of a completion point against the window tree."""
    # A point short of the cap may still resolve early: its digits beyond the
    # precision read as the identity, so only a level within it may decide.
    n = min(x.precision, win.cap)
    code, level = win.tree.classify_indices(rank_of_point(win.ds, x, n))
    if level > n:
        raise PrecisionError(
            f"point has precision {x.precision} but classification needs level {win.cap}"
        )
    return code, level


def shifted_orbit_ranks(win: Window, positions: Sequence[Elem], xi: OdometerPoint) -> np.ndarray:
    """Level-cap ranks of embed(g)·ξ, one per position."""
    ds = win.ds
    n = win.cap
    if xi.precision < n:
        raise PrecisionError(f"shift point needs precision >= {n}")
    g_rank = ds.vec_rank(ds.group.to_array(list(positions)), n)
    xi_rank = np.full_like(g_rank, rank_of_point(ds, xi, n))
    out, _state = ds.automaton(n).batch_product(g_rank, xi_rank, n)
    return out


def emit_patch(
    win: Window,
    xi: OdometerPoint | None = None,
    patch: Sequence[Elem] | None = None,
    patch_level: int | None = None,
) -> SymbolicPatch:
    """Evaluate the shifted window array on a finite patch.

    The default patch is the domain at ``patch_level`` (cap - 1 when omitted,
    so embedded points always resolve).  Values: 1 for interior, 0 for
    exterior, None when the orbit point is still on the boundary at cap.
    """
    ds = win.ds
    if xi is None:
        xi = embed(ds, ds.group.identity, win.cap)
    if patch is None:
        m = win.cap - 1 if patch_level is None else patch_level
        if not 0 <= m <= win.cap:
            raise ConstructionError(f"patch level must lie in 0..{win.cap}")
        patch = ds.domain_list(m)
    positions = tuple(patch)
    codes, _levels = win.tree.vec_classify(shifted_orbit_ranks(win, positions, xi))
    values: dict[Elem, int | None] = {}
    for g, c in zip(positions, codes):
        values[g] = 1 if c == CLS_IN else 0 if c == CLS_OUT else None
    return SymbolicPatch(
        positions,
        values,
        win.window_id,
        tuple(xi.digits),
        win.cap,
    )


@dataclass
class PerSets:
    """Partition of the level-n domain by periodicity of the window array."""

    level: int
    ones: list[Elem]     # whole coset carries symbol 1
    zeros: list[Elem]    # whole coset carries symbol 0
    unresolved: list[Elem]  # coset meets both the window and its complement


def per_sets(win: Window, n: int) -> PerSets:
    """Exact periodicity partition of D_n: interior / exterior / boundary cylinders."""
    cls = win.tree.class_by_rank[n - 1]
    dom = win.ds.domain_array(n)
    split = (win.group.from_array(dom[cls == c]) for c in (CLS_IN, CLS_OUT, CLS_PENDING))
    return PerSets(n, *split)


def regularity(win: Window, n: int) -> Fraction:
    """Fraction of level-n cosets already periodic; equals 1 - boundary measure."""
    from .windows import boundary_measure

    cls = win.tree.class_by_rank[n - 1]
    periodic = int((cls != CLS_PENDING).sum())
    d_n = Fraction(periodic, win.ds.size(n))
    if d_n + boundary_measure(win, n) != 1:
        raise ConstructionError(f"regularity identity violated at level {n}")
    return d_n


# -- writers --------------------------------------------------------------------


def patch_jsonl(win: Window, patch: SymbolicPatch) -> str:
    """One JSON record per position: coordinates, digit string, value (?, 0, 1)."""
    ds, n = win.ds, win.cap
    # One radix decode of the level-cap ranks gives every record's digit string.
    ranks = ds.vec_rank(ds.group.to_array(list(patch.positions)), n)
    columns = []
    for j, idx in enumerate(ds.radix_digits(ranks, n), start=1):
        alpha = [list(t) if isinstance(t, tuple) else t for t in ds.alphabet(j)]
        columns.append([alpha[i] for i in idx.tolist()])
    lines = []
    for g, digits in zip(patch.positions, zip(*columns)):
        v = patch.values[g]
        record = {
            "element": list(g) if isinstance(g, tuple) else g,
            "digits": list(digits),
            "value": "?" if v is None else v,
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def patch_pgm(win: Window, patch: SymbolicPatch, level: int) -> bytes:
    """Grayscale image of a planar patch over the level box (0 black, 1 white, ? gray).

    Only the plane group renders; positions are the level box in row-major
    order (row = second coordinate).
    """
    ds = win.ds
    if ds.group.name != "Z2":
        raise ConstructionError("image rendering targets the plane group only")
    m = ds.modulus(level)
    shade = {1: 255, 0: 0, None: 127}
    grid = np.zeros((m, m), dtype=np.uint8)
    seen = 0
    for g in patch.positions:
        x, y = g
        if 0 <= x < m and 0 <= y < m:
            grid[y, x] = shade[patch.values[g]]
            seen += 1
    if seen != m * m:
        raise ConstructionError(f"patch does not cover the {m}x{m} box")
    header = f"P2\n{m} {m}\n255\n"
    body = "\n".join(" ".join(str(v) for v in row) for row in grid)
    return (header + body + "\n").encode()
