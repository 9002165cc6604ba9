"""Symbolic arrays cut from a window: membership, patches, periodicity.

The array attached to a window takes value 1 at g exactly when the embedded
point of g lands in the window.  Shifted arrays evaluate the embedded point
times a completion point ξ.  Every recorded value comes from an exact cylinder
classification; positions whose orbit is still on the boundary at the tree
cap are marked undecided instead of being forced to 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import expansion
from .groups import (ConstructionError, Elem, GroupContext, PrecisionError, const_text,
                     join_rows, str_text)
from .odometer import OdometerPoint, embed, rank_of_point
from .windows import CLS_IN, CLS_OUT, CLS_PENDING, Window, boundary_measure


# Value of the array at a position whose shifted orbit point has this class.
VALUE_OF_CODE = {CLS_IN: 1, CLS_OUT: 0, CLS_PENDING: None}


@dataclass(eq=False)
class SymbolicPatch:
    """Finite piece of a (possibly shifted) window array.

    Fields: ``group`` and ``rows`` (the positions as int64 element rows, in
    patch order; the default patch's rows are D_m itself, not a copy),
    ``ranks`` (int64 level-cap ranks of the positions) and ``codes`` (int8
    class CLS_IN / CLS_OUT / CLS_PENDING of each position's shifted orbit
    point, classified at the tree cap).  ``positions`` (the group elements)
    and ``values[g]`` (1, 0, or None when undecided at the tree cap) are
    derived views, converted from the rows on first use.
    """

    group: GroupContext
    rows: np.ndarray
    ranks: np.ndarray
    codes: np.ndarray

    @cached_property
    def positions(self) -> list[Elem]:
        return self.group.from_array(self.rows)

    @cached_property
    def values(self) -> dict[Elem, int | None]:
        return dict(zip(self.positions, (VALUE_OF_CODE[c] for c in self.codes.tolist())))

    def undecided(self) -> list[Elem]:
        return self.group.from_array(self.rows[self.codes == CLS_PENDING])


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


def patch_cylinders(
    win: Window, patch: Sequence[Elem] | None, patch_level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Element rows and level-cap ranks of a patch.

    The default patch (``patch`` None) is the domain at ``patch_level``: its
    rows are D_m itself and its level-cap ranks are 0..size - 1.  An explicit
    patch is converted to rows once and ranked row by row.
    """
    ds = win.ds
    if patch is None:
        if not 0 <= patch_level <= win.cap:
            raise ConstructionError(f"patch level must lie in 0..{win.cap}")
        return ds.domain_array(patch_level), np.arange(ds.size(patch_level), dtype=np.int64)
    rows = ds.group.to_array(list(patch))
    return rows, ds.vec_rank(rows, win.cap)


def shifted_patch(
    win: Window, xi: OdometerPoint, rows: np.ndarray, ranks: np.ndarray
) -> tuple[SymbolicPatch, np.ndarray]:
    """The patch on these rows and the level-cap ranks of its shifted orbit points.

    The orbit point of a position g is embed(g)·ξ, whose level-cap rank is the head
    of the product of the level-cap heads of g and ξ: exact because Γ_cap is normal.
    """
    orbit = win.ds.product_ranks(ranks, rank_of_point(win.ds, xi, win.cap), win.cap)
    codes = win.tree.vec_classify(orbit)
    return SymbolicPatch(win.group, rows, ranks, codes), orbit


def emit_patch(
    win: Window,
    xi: OdometerPoint | None = None,
    patch: Sequence[Elem] | None = None,
    patch_level: int | None = None,
) -> SymbolicPatch:
    """Evaluate the shifted window array on a finite patch.

    The default patch is the domain at ``patch_level`` (cap - 1 when omitted,
    so embedded points always resolve; its level-cap ranks are 0..size - 1).
    Values: 1 interior, 0 exterior, None when still on the boundary at cap.
    """
    if xi is None:
        xi = embed(win.ds, win.ds.group.identity, win.cap)
    m = win.cap - 1 if patch_level is None else patch_level
    return shifted_patch(win, xi, *patch_cylinders(win, patch, m))[0]


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
    cls = win.tree.class_by_rank[n - 1]
    periodic = int((cls != CLS_PENDING).sum())
    d_n = Fraction(periodic, win.ds.size(n))
    if d_n + boundary_measure(win, n) != 1:
        raise ConstructionError(f"regularity identity violated at level {n}")
    return d_n


# -- writers --------------------------------------------------------------------


def patch_jsonl(win: Window, patch: SymbolicPatch) -> str:
    """One line per position: ``{"digits":[...],"element":...,"value":1|0|"?"}``, no spaces.

    The whole text, joined from :func:`jsonl_blocks`; a writer streams those blocks instead.
    """
    return "".join(jsonl_blocks(win, patch))


def jsonl_blocks(win: Window, patch: SymbolicPatch) -> Iterator[str]:
    """The text of :func:`patch_jsonl`, ``WRITE_BLOCK`` records at a time.

    Each block is built from text tables: each column gives the block its rows, and the
    block is joined once.  A record's digits are taken from tables of digit texts, one
    per run of consecutive levels, each table at most ``WRITE_BLOCK`` long (or one
    level's alphabet), their punctuation folded in.  An empty patch is one empty line.
    """
    ds, g, n, block = win.ds, win.group, win.cap, expansion.WRITE_BLOCK

    def alpha(j: int) -> np.ndarray:  # level j's digit texts, each after its punctuation
        rows = ds.alphabet_rows(j)
        return np.concatenate([const_text('{"digits":[' if j == 1 else ",", len(rows)),
                               g.row_text(rows, "[]")], axis=1)

    runs, j = [], 0  # (size below the run, its digit texts by index of their combination)
    while j < n:
        low, table = ds.size(j), alpha(j + 1)
        j += 1
        while j < n and len(table) * len(ds.alphabet_rows(j + 1)) <= block:
            nxt = alpha(j + 1)
            table = np.concatenate([np.tile(table, (len(nxt), 1)),
                                    np.repeat(nxt, len(table), axis=0)], axis=1)
            j += 1
        runs.append((low, table))
    # Class codes are 0, 1, 2, so a code is its value's row.
    values = str_text([',"value":' + ('"?"' if v is None else str(v)) + "}\n"
                       for _, v in sorted(VALUE_OF_CODE.items())])
    for s in range(0, len(patch.ranks), block):
        ranks = patch.ranks[s : s + block]
        yield join_rows(
            *(table.take(ranks // low % len(table), axis=0) for low, table in runs),
            const_text('],"element":', len(ranks)),
            g.row_text(patch.rows[s : s + block], "[]"),
            values.take(patch.codes[s : s + block], axis=0),
        )
    if not len(patch.ranks):
        yield "\n"


def patch_pgm(win: Window, patch: SymbolicPatch, level: int) -> bytes:
    """Grayscale image of a planar patch over the level box (0 black, 1 white, ? gray).

    Only the plane group renders; the image is the level box in row-major
    order (row = second coordinate), and every box cell must be a position.
    """
    if win.group.name != "Z2":
        raise ConstructionError("image rendering targets the plane group only")
    m = win.ds.modulus(level)
    shade = np.empty(3, dtype=np.uint8)
    shade[[CLS_IN, CLS_OUT, CLS_PENDING]] = 255, 0, 127
    x, y = patch.rows.T
    inside = (0 <= x) & (x < m) & (0 <= y) & (y < m)
    cells = y[inside] * m + x[inside]
    if len(np.unique(cells)) != m * m:
        raise ConstructionError(f"patch does not cover the {m}x{m} box")
    grid = np.zeros((m, m), dtype=np.uint8)
    grid.flat[cells] = shade[patch.codes[inside]]
    header = f"P2\n{m} {m}\n255\n"
    body = "\n".join(" ".join(str(v) for v in row) for row in grid)
    return (header + body + "\n").encode()
