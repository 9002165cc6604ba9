"""Boundary hitters, fiber candidate enumeration, region certificates, densities.

A completion point ξ is critical when some embedded element lands on the
window boundary after shifting by ξ.  At finite depth the boundary hitters of
a patch are the positions whose shifted orbit point is still unresolved at the
tree cap; they split by sector into classes S_1, ..., S_k whose strict order
drives the fiber structure: the candidate arrays x_1, ..., x_{k+1} assign 1 to
a hitter exactly when its class index reaches the candidate's threshold, and
a punctured window additionally contributes one candidate per top-class hitter
with that single position flipped to 0.

Every candidate equals the shifted base patch off the hitters, so a fiber is
stored as that one patch plus a (candidates, hitters) code matrix; a full
candidate patch is materialized only on request.

Everything here is certified at the tree cap on the given patch: region tests
are exact cylinder enumerations, and empirical frequencies over the level-n
domain equal exact cylinder censuses (shifting by ξ permutes the level-n
cylinders).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .groups import ConstructionError, Elem, PrecisionError
from .model_sets import SymbolicPatch, patch_cylinders, shifted_patch
from .odometer import OdometerPoint, head_of_point, rank_of_point, sample_point
from .windows import CLS_IN, CLS_OUT, CLS_PENDING, Window


@dataclass
class SimilarityReport:
    """Boundary hitters of a patch, split by sector and ordered by class index."""

    classes: list[list[Elem]]  # classes[j-1] = S_j ∩ patch, canonical order
    atoms: list[Elem] | None   # punctured windows: S_k split into singletons
    index: list[list[int]]     # index[j-1][i]: patch index of classes[j-1][i]

    @property
    def k(self) -> int:
        return len(self.classes)

    def hitters(self) -> list[Elem]:
        return [g for cls in self.classes for g in cls]

    def full_coverage(self) -> bool:
        return all(self.classes)


@dataclass
class FiberSet:
    """Candidate fiber elements restricted to a patch.

    ``patch`` is the shifted base patch; ``hitters`` are its boundary hitters'
    patch indices in report order, and row c of the int8 ``candidates`` matrix
    is candidate c's codes on them.  Off the hitters every candidate equals
    the base patch.
    """

    patch: SymbolicPatch
    hitters: np.ndarray
    candidates: np.ndarray
    labels: list[str]
    report: SimilarityReport

    def candidate(self, c: int) -> SymbolicPatch:
        """Candidate c as a full patch."""
        codes = self.patch.codes.copy()
        codes[self.hitters] = self.candidates[c]
        return replace(self.patch, codes=codes)

    def distinct(self) -> int:
        # Exact: candidates differ only on the hitters.
        return len({row.tobytes() for row in self.candidates})


def critical_point(win: Window) -> OdometerPoint:
    """The point whose level-j digit is the first boundary digit of level j, through the cap.

    The identity's shifted orbit point then sits on the boundary layer at
    every built level.
    """
    return OdometerPoint(tuple(win.ds.alphabet(n)[codes.index(CLS_PENDING)]
                               for n, codes in enumerate(win.spec.partitions, start=1)))


def boundary_hitters_exact(win: Window, xi: OdometerPoint) -> list[tuple[Elem, int]]:
    """All g in the cap-level domain whose shifted orbit point is unresolved.

    Exact and O(#boundary cylinders): shifting by ξ permutes level-cap
    cylinders, so each boundary cylinder r is hit by exactly one domain
    element, the head of D_cap[r]·ξ^{-1}.
    """
    ds, n = win.ds, win.cap
    pend = win.tree.pending_ranks[n - 1]
    inv_rank = ds.rank_of(ds.group.inv(head_of_point(ds, xi, n)), n)
    hitters = ds.group.from_array(ds.domain_array(n)[ds.product_ranks(pend, inv_rank, n)])
    sectors = win.spec.sector_of(pend).tolist()
    return sorted(zip(hitters, sectors), key=lambda p: ds.group.sort_key(p[0]))


def _classified(
    win: Window, xi: OdometerPoint, patch: Sequence[Elem] | None, patch_level: int
) -> tuple[SymbolicPatch, SimilarityReport, np.ndarray, np.ndarray]:
    """The shifted patch and its boundary hitters, split by the sector of their orbit point.

    Also returns the hitters' patch indices and class indices in report order.
    """
    base, orbit = shifted_patch(win, xi, *patch_cylinders(win, patch, patch_level))
    pending = np.flatnonzero(base.codes == CLS_PENDING)
    sectors = win.spec.sector_of(orbit[pending])
    # By sector, then canonical element order (lexicographic on rows); lexsort is stable.
    order = np.lexsort([*base.rows[pending].T[::-1], sectors])
    hitters, sectors = pending[order], sectors[order]
    bounds = np.searchsorted(sectors, np.arange(1, win.spec.k + 2)).tolist()
    elems = win.group.from_array(base.rows[hitters])
    index = [hitters[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    classes = [elems[a:b] for a, b in zip(bounds, bounds[1:])]
    atoms = list(classes[-1]) if win.spec.kind == "ktilde" else None
    report = SimilarityReport(classes, atoms, index)
    return base, report, hitters, sectors


def similarity_classes(
    win: Window, xi: OdometerPoint, patch: Sequence[Elem]
) -> SimilarityReport:
    """Classes S_j ∩ patch, computed by exact classification of shifted orbits."""
    return _classified(win, xi, patch, win.cap)[1]


def enumerate_fiber(
    win: Window,
    xi: OdometerPoint,
    patch: Sequence[Elem] | None = None,
    patch_level: int | None = None,
) -> FiberSet:
    """Candidate fiber elements over ξ, restricted to the patch.

    The default patch is the domain at ``patch_level`` (the cap when omitted).
    k+1 threshold candidates always; punctured windows add one candidate per
    top-class hitter in the patch (that hitter flipped to 0).
    """
    level = win.cap if patch_level is None else patch_level
    base, report, hitters, cls = _classified(win, xi, patch, level)
    k = report.k
    # x_j sets a hitter to IN iff its class index is at least j.
    codes = np.where(cls >= np.arange(1, k + 2)[:, None], CLS_IN, CLS_OUT).astype(np.int8)
    labels = [f"x{j}" for j in range(1, k + 2)]
    if win.spec.kind == "ktilde":
        # x_k (all of the top class IN) with one top-class hitter set OUT.
        top = np.flatnonzero(cls == k)
        drops = np.repeat(codes[k - 1 : k], len(top), axis=0)
        drops[np.arange(len(top)), top] = CLS_OUT
        codes = np.concatenate([codes, drops])
        labels += [f"x{k}-drop-{win.group.fmt(g)}" for g in report.classes[-1]]
    return FiberSet(base, hitters, codes, labels, report)


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
    on the wrong decided side.  A translate's cylinder is the head of the
    product of the level-cap heads of l and ζ (exact: Γ_cap is normal).
    """
    ds = win.ds
    n = win.cap
    if eps_level > n or xi.precision < eps_level:
        raise PrecisionError("ball level must not exceed the cap or the point precision")
    # The ball is the level-cap cylinders whose level-eps_level prefix is ξ's.
    size_eps = ds.size(eps_level)
    zetas = rank_of_point(ds, xi, eps_level) + size_eps * np.arange(ds.size(n) // size_eps)

    def translate_codes(l: Elem) -> np.ndarray:
        return win.tree.vec_classify(ds.product_ranks(ds.rank_of(l, n), zetas, n))

    checks = [(translate_codes(l), CLS_IN, CLS_OUT) for l in accept]
    checks += [(translate_codes(l), CLS_OUT, CLS_IN) for l in reject]
    cert = np.ones(len(zetas), dtype=bool)
    excl = np.zeros(len(zetas), dtype=bool)
    for codes, inside, outside in checks:  # the class a translate needs, and the one it must avoid
        cert &= codes == inside
        excl |= codes == outside
    undecided = ~cert & ~excl
    mismatched = 0
    if len(accept) == 1 and len(reject) == 1:
        mismatched = int((undecided & (checks[0][0] != checks[1][0])).sum())
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

    For each requested level n, every element of D_n is shifted by ξ (one
    product of level-n heads, exact because Γ_n is normal) and classified at
    depth n.  Because shifting permutes level-n cylinders, the
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
        rank = ds.product_ranks(np.arange(size), rank_of_point(ds, xi, n), n)
        cls = win.tree.class_by_rank[n - 1][rank]
        freq_in = Fraction(int((cls == CLS_IN).sum()), size)
        freq_pending = Fraction(int((cls == CLS_PENDING).sum()), size)
        census_in = Fraction(int((win.tree.class_by_rank[n - 1] == CLS_IN).sum()), size)
        census_pending = Fraction(len(win.tree.pending_ranks[n - 1]), size)
        sector_freq: dict[int, Fraction] = {}
        sector_census: dict[int, Fraction] = {}
        if n >= win.spec.sector_level:
            pend_mask = cls == CLS_PENDING
            sec_of_rank = win.spec.sector_of(rank)
            for j in range(1, k + 1):
                sector_freq[j] = Fraction(int((pend_mask & (sec_of_rank == j)).sum()), size)
                sector_census[j] = win.boundary_sector_measure(n, j)
        else:
            sector_freq[1] = freq_pending
            sector_census[1] = census_pending
        densities = [freq_in + sum(sector_freq.get(i, Fraction(0)) for i in range(j, k + 1))
                     for j in range(1, k + 2)]
        out[n] = {
            "freq_interior": freq_in,
            "freq_boundary": freq_pending,
            "census_interior": census_in,
            "census_boundary": census_pending,
            "sector_freq": sector_freq,
            "sector_census": sector_census,
            "candidate_density": densities,
            # Both sector dicts have the same keys, so dict equality is entrywise.
            "census_match": (freq_in, freq_pending, sector_freq)
            == (census_in, census_pending, sector_census),
        }
    return out


def coverage_fraction(
    win: Window, patch: Sequence[Elem], seeds: Sequence[int]
) -> tuple[Fraction, list[SimilarityReport]]:
    """Fraction of sampled shifts whose patch hits every class."""
    reports = [similarity_classes(win, sample_point(win.ds, s, win.cap), patch) for s in seeds]
    return Fraction(sum(r.full_coverage() for r in reports), len(seeds)), reports
