"""Boundary hitters, fiber candidate enumeration, region certificates, densities.

A completion point ξ is critical when some embedded element lands on the
window boundary after shifting by ξ.  At finite depth the boundary hitters of
a patch are the positions whose shifted orbit point is still unresolved at the
tree cap; they split by sector into classes S_1, ..., S_k whose strict order
drives the fiber structure: the candidate arrays x_1, ..., x_{k+1} assign 1 to
a hitter exactly when its class index reaches the candidate's threshold, and
a punctured window additionally contributes one candidate per top-class hitter
with that single position flipped to 0.

Everything here is certified at the tree cap on the given patch: region tests
are exact cylinder enumerations, and empirical frequencies over the level-n
domain equal exact cylinder censuses (shifting by ξ permutes the level-n
cylinders).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .groups import ConstructionError, Elem, PrecisionError
from .model_sets import SymbolicPatch, shifted_orbit_ranks
from .odometer import OdometerPoint, head_of_point, rank_of_point
from .windows import CLS_IN, CLS_OUT, CLS_PENDING, Window


@dataclass
class SimilarityReport:
    """Boundary hitters of a patch, split by sector and ordered by class index."""

    xi_digits: tuple[Elem, ...]
    cap: int
    classes: list[list[Elem]]  # classes[j-1] = S_j ∩ patch, canonical order
    atoms: list[Elem] | None   # punctured windows: S_k split into singletons

    @property
    def k(self) -> int:
        return len(self.classes)

    def hitters(self) -> list[Elem]:
        return [g for cls in self.classes for g in cls]

    def full_coverage(self) -> bool:
        return all(self.classes)


@dataclass
class FiberSet:
    """Candidate fiber elements restricted to a patch."""

    candidates: list[SymbolicPatch]
    labels: list[str]
    report: SimilarityReport

    def distinct(self) -> int:
        return len({tuple(c.values[g] for g in c.positions) for c in self.candidates})


def critical_point(
    win: Window, rng_seed: int | None = None, rule: str = "first", cap: int | None = None
) -> OdometerPoint:
    """A point whose digits stay in the boundary parts through the cap.

    The identity's shifted orbit point then sits on the boundary layer at
    every built level.  ``rule="first"`` picks the canonically first boundary
    digit per level; a seed picks uniformly among boundary digits.
    """
    n = win.cap if cap is None else cap
    rng = random.Random(rng_seed) if rng_seed is not None else None
    digits = []
    for j in range(1, n + 1):
        boundary = win.spec.partitions[j - 1].boundary
        if rng is None:
            if rule != "first":
                raise ConstructionError(f"unknown digit rule {rule!r}")
            digits.append(boundary[0])
        else:
            digits.append(boundary[rng.randrange(len(boundary))])
    return OdometerPoint(tuple(digits))


def boundary_hitters_exact(win: Window, xi: OdometerPoint) -> list[tuple[Elem, int]]:
    """All g in the cap-level domain whose shifted orbit point is unresolved.

    Exact and O(#boundary cylinders): shifting by ξ permutes level-cap
    cylinders, so each boundary cylinder is hit by exactly one domain element.
    """
    ds = win.ds
    n = win.cap
    g = ds.group
    inv_head = g.inv(head_of_point(ds, xi, n))
    pend = win.tree.pending_ranks[n - 1]
    out = []
    for r, sector in zip(pend, win.sector_of(pend)):
        hitter = ds.head(g.mul(ds.element_of_rank(int(r), n), inv_head), n)
        out.append((hitter, int(sector)))
    out.sort(key=lambda pair: g.sort_key(pair[0]))
    return out


def similarity_classes(
    win: Window, xi: OdometerPoint, patch: Sequence[Elem]
) -> SimilarityReport:
    """Classes S_j ∩ patch, computed by exact classification of shifted orbits."""
    if xi.precision < win.cap:
        raise PrecisionError(f"shift point needs precision >= {win.cap}")
    positions = list(patch)
    ranks = shifted_orbit_ranks(win, positions, xi)
    codes, _levels = win.tree.vec_classify(ranks)
    classes: list[list[Elem]] = [[] for _ in range(win.spec.k)]
    for g, code, sector in zip(positions, codes, win.sector_of(ranks)):
        if code == CLS_PENDING:
            classes[sector - 1].append(g)
    for cls in classes:
        cls.sort(key=win.ds.group.sort_key)
    atoms = list(classes[-1]) if win.spec.kind == "ktilde" else None
    return SimilarityReport(tuple(xi.digits), win.cap, classes, atoms)


def enumerate_fiber(
    win: Window, xi: OdometerPoint, patch: Sequence[Elem]
) -> FiberSet:
    """Candidate fiber elements over ξ, restricted to the patch.

    k+1 threshold candidates always; punctured windows add one candidate per
    top-class hitter in the patch (that hitter flipped to 0).
    """
    positions = tuple(patch)
    report = similarity_classes(win, xi, positions)
    codes, _ = win.tree.vec_classify(shifted_orbit_ranks(win, positions, xi))
    base_vals: dict[Elem, int | None] = {}
    for g, code in zip(positions, codes):
        base_vals[g] = 1 if code == CLS_IN else 0 if code == CLS_OUT else None
    class_of = {g: j + 1 for j, cls in enumerate(report.classes) for g in cls}
    k = report.k
    candidates, labels = [], []
    for j in range(1, k + 2):
        vals = dict(base_vals)
        for g, cj in class_of.items():
            vals[g] = 1 if cj >= j else 0
        candidates.append(
            SymbolicPatch(positions, vals, win.window_id, tuple(xi.digits), win.cap)
        )
        labels.append(f"x{j}")
    if win.spec.kind == "ktilde":
        top = candidates[k - 1]  # x_k: assigns 1 to the whole top class
        for l in report.classes[-1]:
            vals = dict(top.values)
            vals[l] = 0
            candidates.append(
                SymbolicPatch(positions, vals, win.window_id, tuple(xi.digits), win.cap)
            )
            labels.append(f"x{k}-drop-{win.ds.group.fmt(l)}")
    return FiberSet(candidates, labels, report)


@dataclass
class TRegionResult:
    """Cylinder-level certificate scan of a translate-intersection region."""

    eps_level: int
    certificates: list[tuple[int, ...]]  # digit index strings of fully contained cylinders
    excluded: int                        # cylinders provably disjoint from the region
    undecided: int
    mismatched_undecided: int            # |N|=|M|=1 only: unresolved with unequal classes

    @property
    def empty_certified(self) -> bool:
        return not self.certificates and self.mismatched_undecided == 0


def t_region(
    win: Window,
    accept: Sequence[Elem],
    reject: Sequence[Elem],
    xi: OdometerPoint,
    eps_level: int,
) -> TRegionResult:
    """Scan the ball of radius 2^-eps_level around ξ for cylinders inside the region.

    The region collects points ζ whose accept-translates all lie in the window
    and whose reject-translates all avoid it.  A level-cap cylinder certifies
    nonempty interior when every accept-translate classifies interior and
    every reject-translate exterior; it is excluded when some translate lands
    on the wrong decided side.
    """
    ds = win.ds
    n = win.cap
    if eps_level > n or xi.precision < eps_level:
        raise PrecisionError("ball level must not exceed the cap or the point precision")
    # The ball is the level-cap cylinders whose level-eps_level prefix is ξ's.
    size_eps = ds.size(eps_level)
    zetas = rank_of_point(ds, xi, eps_level) + size_eps * np.arange(ds.size(n) // size_eps)
    auto = ds.automaton(n)

    def translate_codes(l: Elem) -> np.ndarray:
        out, _ = auto.batch_product(np.full_like(zetas, ds.rank_of(l, n)), zetas, n)
        codes, _levels = win.tree.vec_classify(out)
        return codes

    acc = [translate_codes(l) for l in accept]
    rej = [translate_codes(l) for l in reject]
    cert = np.ones(len(zetas), dtype=bool)
    excl = np.zeros(len(zetas), dtype=bool)
    for codes in acc:
        cert &= codes == CLS_IN
        excl |= codes == CLS_OUT
    for codes in rej:
        cert &= codes == CLS_OUT
        excl |= codes == CLS_IN
    undecided = ~cert & ~excl
    mismatched = 0
    if len(acc) == 1 and len(rej) == 1:
        mismatched = int((undecided & (acc[0] != rej[0])).sum())
    certified = zip(*(d.tolist() for d in ds.radix_digits(zetas[cert], n)))
    return TRegionResult(
        eps_level,
        sorted(certified),
        int(excl.sum()),
        int(undecided.sum()),
        mismatched,
    )


def birkhoff_stats(win: Window, xi: OdometerPoint, levels: Sequence[int]) -> dict:
    """Empirical orbit frequencies over D_n against exact cylinder censuses.

    For each requested level n, every element of D_n is shifted by ξ and
    classified at depth n.  Because shifting permutes level-n cylinders, the
    counts must equal the census of the tree itself - the report carries both
    and their (required) equality, plus the per-candidate value-1 densities
    d_1 > ... > d_{k+1} with their exact sector gaps.
    """
    ds = win.ds
    k = win.spec.k
    out: dict[int, dict] = {}
    for n in levels:
        if not 1 <= n <= win.cap:
            raise ConstructionError(f"level {n} outside 1..{win.cap}")
        size = ds.size(n)
        dom_rank = np.arange(size, dtype=np.int64)
        xi_rank = np.full_like(dom_rank, rank_of_point(ds, xi, n))
        rank, _ = ds.automaton(n).batch_product(dom_rank, xi_rank, n)
        cls = win.tree.class_by_rank[n - 1][rank]
        freq_in = Fraction(int((cls == CLS_IN).sum()), size)
        freq_pending = Fraction(int((cls == CLS_PENDING).sum()), size)
        census_in = Fraction(int((win.tree.class_by_rank[n - 1] == CLS_IN).sum()), size)
        census_pending = Fraction(len(win.tree.pending_ranks[n - 1]), size)
        sector_freq: dict[int, Fraction] = {}
        sector_census: dict[int, Fraction] = {}
        if n >= win.spec.sector_level:
            pend_mask = cls == CLS_PENDING
            sec_of_rank = win.sector_of(rank)
            for j in range(1, k + 1):
                sector_freq[j] = Fraction(int((pend_mask & (sec_of_rank == j)).sum()), size)
                sector_census[j] = win.boundary_sector_measure(n, j)
        else:
            sector_freq[1] = freq_pending
            sector_census[1] = census_pending
        densities = []
        for j in range(1, k + 2):
            densities.append(freq_in + sum(sector_freq.get(i, Fraction(0)) for i in range(j, k + 1)))
        out[n] = {
            "freq_interior": freq_in,
            "freq_boundary": freq_pending,
            "census_interior": census_in,
            "census_boundary": census_pending,
            "sector_freq": sector_freq,
            "sector_census": sector_census,
            "candidate_density": densities,
            "census_match": freq_in == census_in
            and freq_pending == census_pending
            and all(
                sector_freq[j] == sector_census[j] for j in sector_freq
            ),
        }
    return out


def coverage_fraction(
    win: Window, patch: Sequence[Elem], seeds: Sequence[int]
) -> tuple[Fraction, list[SimilarityReport]]:
    """Fraction of sampled shifts whose patch hits every class."""
    from .odometer import sample_point

    reports = []
    covered = 0
    for s in seeds:
        xi = sample_point(win.ds, s, win.cap)
        rep = similarity_classes(win, xi, patch)
        reports.append(rep)
        if rep.full_coverage():
            covered += 1
    return Fraction(covered, len(seeds)), reports
