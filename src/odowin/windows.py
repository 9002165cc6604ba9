"""Construction and verification of cylinder-tree windows in the completion.

A window is grown level by level from a partition of each level's digit
alphabet into *interior* digits (children of boundary cylinders that enter the
window's interior), a single *exterior* digit (the unique child excluded from
the closure), and *boundary* digits (children that stay undecided).  The
window itself is the closure of the union of interior pieces; its boundary is
the intersection of the shrinking boundary layers, and the exact measure of
the level-n layer is the product of the boundary fractions.

Three kinds are built on one base:

* ``perf`` - the base construction, with boundary digits chosen away from the
  carry-translate boundary of the domain (so every carry entering a boundary
  digit is absorbed, which makes local window germs at all boundary points
  coincide);
* ``k`` - the base partitioned into k clopen sectors at a fixed level, with
  interior pieces retained only on levels assigned to a sector's class or
  below, producing k strictly ordered species of boundary points;
* ``ktilde`` - the ``k`` window with one interior cylinder punctured per
  designated level, which splits the top sector's boundary hitters into
  mutually incomparable singletons.

All measures are exact :class:`fractions.Fraction` values; all cylinder data
are integer rank arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .expansion import CarryRange, DomainSequence, carry_ranges
from .groups import ConstructionError, Elem, GroupContext, SubgroupChain, group_by_name
from .odometer import OdometerPoint

CLS_IN, CLS_OUT, CLS_PENDING = 0, 1, 2
_CLS_NAME = {CLS_IN: "in", CLS_OUT: "out", CLS_PENDING: "pending"}


# -- exact threshold arithmetic ---------------------------------------------


def rational_log_reciprocal(epsilon: Fraction, terms: int = 64) -> Fraction:
    """Rational lower bound on -log(1-epsilon): truncated series Σ ε^i/i."""
    if not 0 < epsilon < 1:
        raise ConstructionError("epsilon must lie strictly between 0 and 1")
    total = Fraction(0)
    power = Fraction(1)
    for i in range(1, terms + 1):
        power *= epsilon
        total += power / i
    return total


def boundary_fraction_threshold(delta: Fraction, n: int) -> Fraction:
    """Rational upper bound on exp(-delta/2^n).

    Computed as the reciprocal of a truncated exponential series (a lower
    bound on exp(+x)), so requiring a boundary fraction >= this threshold
    rigorously implies the target inequality.
    """
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


# -- window data -------------------------------------------------------------


@dataclass(frozen=True)
class LevelPartition:
    """Digit split at one level: interior / single exterior / boundary."""

    interior: tuple[Elem, ...]
    exterior: tuple[Elem, ...]
    boundary: tuple[Elem, ...]

    def validate(self, alphabet: Sequence[Elem], level: int) -> None:
        # Structural only: genericity of the identity digit is a verification
        # concern, so adversarial partitions stay parseable.
        if len(self.exterior) != 1:
            raise ConstructionError(f"level {level}: need exactly one exterior digit")
        if not self.interior or not self.boundary:
            raise ConstructionError(f"level {level}: all three parts must be nonempty")
        combined = list(self.interior) + list(self.exterior) + list(self.boundary)
        if len(combined) != len(set(combined)) or set(combined) != set(alphabet):
            raise ConstructionError(f"level {level}: parts must partition the alphabet")


@dataclass(frozen=True)
class WindowSpec:
    """Complete deterministic description of a built window."""

    kind: str  # "perf" | "k" | "ktilde"
    group_name: str
    moduli: tuple[int, ...]
    cap: int
    delta: Fraction
    epsilon: Fraction | None
    a_schedule: tuple[int, ...]
    partitions: tuple[LevelPartition, ...]
    k: int = 1
    sector_level: int = 0  # partition level L; 0 for perf
    sector_of_rank: tuple[int, ...] | None = None  # sector per level-L rank
    level_class: tuple[int, ...] | None = None  # class per level (1..k)
    e_rule: str = ""
    punctures: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def boundary_count(self, n: int) -> int:
        out = 1
        for j in range(1, n + 1):
            out *= len(self.partitions[j - 1].boundary)
        return out

    def validate(self, ds: DomainSequence) -> None:
        """Raise unless the sector, class and puncture data fit the kind and the domains."""
        if self.kind not in ("perf", "k", "ktilde"):
            raise ConstructionError(f"window kind must be perf, k, or ktilde (got {self.kind!r})")
        if self.kind == "perf":
            if (self.k, self.sector_level, self.sector_of_rank, self.level_class,
                    self.punctures) != (1, 0, None, None, ()):
                raise ConstructionError(
                    "a perf window has k = 1, sector level 0 and no sector, class or "
                    "puncture data"
                )
            return
        if self.k < 1:
            raise ConstructionError(f"k must be at least 1 (got {self.k})")
        if not 1 <= self.sector_level <= self.cap:
            raise ConstructionError(f"sector level {self.sector_level} outside 1..{self.cap}")
        size_l = ds.size(self.sector_level)
        sectors = self.sector_of_rank or ()
        if len(sectors) != size_l or not all(1 <= s <= self.k for s in sectors):
            raise ConstructionError(
                f"need a sector in 1..{self.k} for each of the {size_l} level-"
                f"{self.sector_level} cylinders"
            )
        classes = self.level_class or ()
        if len(classes) != self.cap or not all(1 <= c <= self.k for c in classes):
            raise ConstructionError(f"need a class in 1..{self.k} for each of the {self.cap} levels")
        if self.punctures and self.kind != "ktilde":
            raise ConstructionError("only ktilde windows carry punctures")
        for lvl, ranks in self.punctures:
            if not 1 <= lvl <= self.cap or not all(0 <= r < ds.size(lvl) for r in ranks):
                raise ConstructionError(f"puncture at level {lvl} outside the built cylinders")


class CylinderTree:
    """Per-level ternary classification of every cylinder, as rank arrays."""

    def __init__(self, ds: DomainSequence, spec: WindowSpec):
        spec.validate(ds)
        self.cap = spec.cap
        self.class_by_rank: list[np.ndarray] = []
        self.pending_ranks: list[np.ndarray] = []
        self._build(ds, spec)

    def _build(self, ds: DomainSequence, spec: WindowSpec) -> None:
        size_l = ds.size(spec.sector_level)
        sectors = np.asarray(spec.sector_of_rank or (), dtype=np.int64)
        punctures = {lvl: np.asarray(ranks, dtype=np.int64) for lvl, ranks in spec.punctures}
        prev: np.ndarray | None = None
        for n in range(1, spec.cap + 1):
            part = spec.partitions[n - 1]
            alpha = ds.alphabet(n)
            digit_code = np.empty(len(alpha), dtype=np.int8)
            interior = set(part.interior)
            exterior = set(part.exterior)
            for i, t in enumerate(alpha):
                digit_code[i] = (
                    CLS_IN if t in interior else CLS_OUT if t in exterior else CLS_PENDING
                )
            if prev is None:
                arr = digit_code.copy()
            else:
                base = len(prev)
                arr = np.empty(base * len(alpha), dtype=np.int8)
                pend = prev == CLS_PENDING
                need = spec.level_class[n - 1] if spec.level_class is not None else 1
                if need > 1:
                    # interior children survive only in sectors of class >= need
                    reps = base // size_l
                    psec = np.tile(sectors, reps)
                    keep = pend & (psec >= need)
                    drop = pend & (psec < need)
                else:
                    keep, drop = pend, None
                for i in range(len(alpha)):
                    block = prev.copy()
                    code = int(digit_code[i])
                    if code == CLS_IN:
                        block[keep] = CLS_IN
                        if drop is not None:
                            block[drop] = CLS_OUT
                    else:
                        block[pend] = code
                    arr[i * base : (i + 1) * base] = block
            if n in punctures:
                for r in punctures[n]:
                    if arr[r] != CLS_IN:
                        raise ConstructionError(
                            f"puncture at level {n}, rank {int(r)} is not an interior cylinder"
                        )
                arr[punctures[n]] = CLS_OUT
            self.class_by_rank.append(arr)
            pending = np.nonzero(arr == CLS_PENDING)[0]
            if len(pending) != spec.boundary_count(n):
                raise ConstructionError(
                    f"level {n}: boundary cylinder count {len(pending)} does not match "
                    f"the partition product {spec.boundary_count(n)}"
                )
            self.pending_ranks.append(pending)
            prev = arr

    # -- classification ---------------------------------------------------------

    def classify_indices(self, rank: int) -> tuple[int, int]:
        """(class, deciding level) of the level-cap cylinder with this rank.

        The level-j prefix of a rank is rank % size(j).  Returns
        (CLS_PENDING, cap) when every prefix stays on the boundary.
        """
        for j, cls in enumerate(self.class_by_rank, start=1):
            code = int(cls[rank % len(cls)])
            if code != CLS_PENDING:
                return code, j
        return CLS_PENDING, self.cap

    def vec_classify(self, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`classify_indices` over a vector of level-cap ranks."""
        rows = len(ranks)
        code = np.full(rows, CLS_PENDING, dtype=np.int8)
        level = np.full(rows, self.cap, dtype=np.int64)
        undecided = np.ones(rows, dtype=bool)
        for j in range(1, self.cap + 1):
            by_rank = self.class_by_rank[j - 1]
            cls = by_rank[ranks % len(by_rank)]
            newly = undecided & (cls != CLS_PENDING)
            code[newly] = cls[newly]
            level[newly] = j
            undecided &= ~newly
        return code, level

    def children_classes(self, parent_rank: int, n: int) -> np.ndarray:
        """Classes of the level-(n+1) children of a level-n cylinder."""
        size_n = len(self.class_by_rank[n - 1]) if n else 1
        return self.class_by_rank[n][parent_rank::size_n]

    def pending_equal(self, other: "CylinderTree") -> bool:
        if self.cap != other.cap:
            return False
        return all(
            np.array_equal(a, b)
            for a, b in zip(self.pending_ranks, other.pending_ranks)
        )


@dataclass
class Window:
    """A built window: spec, its domain sequence, the cylinder tree, carries."""

    spec: WindowSpec
    ds: DomainSequence
    tree: CylinderTree
    carries: CarryRange
    build_log: list[str] = field(default_factory=list)

    @property
    def group(self) -> GroupContext:
        return self.ds.group

    @property
    def cap(self) -> int:
        return self.spec.cap

    @property
    def window_id(self) -> str:
        digest = hashlib.sha256(serialize_window(self).encode()).hexdigest()
        return f"{self.spec.kind}-{digest[:12]}"

    def sector_of(self, ranks: np.ndarray) -> np.ndarray:
        """Sectors of cylinders given by their ranks at a level >= L; 1 for perf.

        The level-L prefix of a rank, rank % size(L), decides the sector.
        """
        if self.spec.kind == "perf":
            return np.ones(len(ranks), dtype=np.int64)
        sectors = np.asarray(self.spec.sector_of_rank, dtype=np.int64)
        return sectors[ranks % len(sectors)]

    def boundary_sector_measure(self, n: int, sector: int) -> Fraction:
        """Exact measure of the level-n boundary layer inside one sector."""
        pend = self.tree.pending_ranks[n - 1]
        return Fraction(int((self.sector_of(pend) == sector).sum()), self.ds.size(n))


@dataclass
class Report:
    name: str
    passed: bool
    lines: list[str]
    data: dict


# -- van Hove boundaries ------------------------------------------------------


def vanhove_boundary(ds: DomainSequence, probe: Sequence[Elem], n: int) -> list[Elem]:
    """Exact probe-boundary of D_n: elements g whose probe^{-1}·g set straddles D_n."""
    g = ds.group
    dom = ds.domain_set(n)
    candidates = {g.mul(k, d) for k in probe for d in dom}
    out = []
    for c in candidates:
        hits = [g.mul(g.inv(k), c) in dom for k in probe]
        if any(hits) and not all(hits):
            out.append(c)
    out.sort(key=g.sort_key)
    return out


def carry_safe_digits(ds: DomainSequence, carries: Sequence[Elem], n: int) -> list[Elem]:
    """Alphabet digits t with carries·t fully inside D_n (eligible boundary digits)."""
    g = ds.group
    dom = ds.domain_set(n)
    return [t for t in ds.alphabet(n) if all(g.mul(k, t) in dom for k in carries)]


def folner_ratio(ds: DomainSequence, carries: Sequence[Elem], n: int) -> Fraction:
    """Diagnostic #boundary(D_n)/#D_n for the inverted carry probe."""
    g = ds.group
    probe = [g.inv(k) for k in carries]
    return Fraction(len(vanhove_boundary(ds, probe, n)), ds.size(n))


# -- builders -----------------------------------------------------------------


def build_perf(
    group: GroupContext,
    raw_moduli: Sequence[int],
    cap: int,
    a_schedule: int | Sequence[int] = 3,
    epsilon: Fraction | None = None,
    delta: Fraction | None = None,
) -> Window:
    """Deterministically build the base window, telescoping the chain as needed.

    Each level must offer enough carry-safe digits to keep ``a_n`` of them out
    of the boundary part while the boundary fraction stays above the exact
    per-level threshold; raw levels are merged until both hold.
    """
    if delta is None:
        if epsilon is None:
            raise ConstructionError("need epsilon or delta")
        delta = rational_log_reciprocal(Fraction(epsilon))
    delta = Fraction(delta)
    if delta <= 0:
        raise ConstructionError("delta must be positive")
    a_list = (
        [int(a_schedule)] * cap if isinstance(a_schedule, int) else [int(a) for a in a_schedule]
    )
    if len(a_list) < cap:
        raise ConstructionError(f"a_schedule must cover {cap} levels")
    for i, a in enumerate(a_list[:cap], start=1):
        if a < 3:
            raise ConstructionError(
                f"level {i}: a_n = {a} rejected; at least two interior digits are "
                "required, so a_n >= 3"
            )

    raw = list(raw_moduli)
    ds = DomainSequence(group)
    partitions: list[LevelPartition] = []
    log: list[str] = []
    pointer = 0
    last_fail = ""
    for n in range(1, cap + 1):
        a_n = a_list[n - 1]
        threshold = boundary_fraction_threshold(delta, n)
        accepted = False
        while pointer < len(raw):
            m = raw[pointer]
            pointer += 1
            ds.append_level(m)
            carries = carry_ranges(ds, n).level(n)
            safe = carry_safe_digits(ds, carries, n)
            total = len(ds.alphabet(n))
            n_boundary = len(safe) - a_n
            ratio = Fraction(max(n_boundary, 0), total)
            if n_boundary >= 1 and ratio >= threshold:
                boundary = tuple(safe[a_n:])
                bset = set(boundary)
                pool = [t for t in ds.alphabet(n) if t not in bset]
                ext = next(t for t in pool if t != group.identity)
                interior = tuple(t for t in pool if t != ext)
                part = LevelPartition(interior, (ext,), boundary)
                part.validate(ds.alphabet(n), n)
                partitions.append(part)
                log.append(
                    f"level {n}: modulus {m}, alphabet {total}, carry-safe {len(safe)}, "
                    f"boundary {n_boundary} (fraction {ratio} >= {float(threshold):.6g})"
                )
                accepted = True
                break
            last_fail = (
                f"level {n} at modulus {m}: carry-safe digits {len(safe)}, need "
                f"boundary fraction ({len(safe)} - {a_n})/{total} >= {float(threshold):.6g}"
            )
            log.append("telescoped past modulus "
                       f"{m}: {last_fail}")
            ds.pop_level()
        if not accepted:
            raise ConstructionError(
                f"chain exhausted before level {cap}; last failing inequality: {last_fail}"
            )

    spec = WindowSpec(
        kind="perf",
        group_name=group.name,
        moduli=tuple(ds.moduli),
        cap=cap,
        delta=delta,
        epsilon=None if epsilon is None else Fraction(epsilon),
        a_schedule=tuple(a_list[:cap]),
        partitions=tuple(partitions),
    )
    tree = CylinderTree(ds, spec)
    return Window(spec, ds, tree, carry_ranges(ds, cap), build_log=log)


def build_k(base: Window, k: int, sector_level: int) -> Window:
    """Carve the base window into k sector classes at the given level."""
    if base.spec.kind != "perf":
        raise ConstructionError("sector windows are built from a perf base")
    if not 1 <= sector_level <= base.cap:
        raise ConstructionError("sector level must lie within the built levels")
    if k < 1:
        raise ConstructionError("k must be at least 1")
    pend = base.tree.pending_ranks[sector_level - 1]
    if len(pend) < k + 1:
        raise ConstructionError(
            f"only {len(pend)} boundary cylinders at level {sector_level}; "
            f"need at least {k + 1} - choose a larger sector level"
        )
    size_l = base.ds.size(sector_level)
    sectors = np.ones(size_l, dtype=np.int64)
    for i, r in enumerate(pend[:-2]):
        sectors[r] = 1 + (i % k)
    sectors[pend[-2]] = k
    sectors[pend[-1]] = k
    level_class = [1] * min(sector_level, base.cap) + [
        1 + ((n - sector_level - 1) % k) for n in range(sector_level + 1, base.cap + 1)
    ]
    spec = replace(
        base.spec,
        kind="k",
        k=k,
        sector_level=sector_level,
        sector_of_rank=tuple(int(s) for s in sectors),
        level_class=tuple(level_class),
    )
    tree = CylinderTree(base.ds, spec)
    return Window(spec, base.ds, tree, base.carries, build_log=list(base.build_log))


def build_ktilde(base: Window, e_rule: str = "dovetail") -> Window:
    """Puncture the top sector of a ``k`` window at its designated levels.

    ``dovetail`` removes one interior cylinder per designated level, cycling
    the targeted coarse boundary cylinder so removals accumulate along the
    whole top-sector boundary.  ``strict`` always targets the canonically
    first one.  ``per-parent`` removes one interior child of every top-sector
    boundary cylinder (kept for comparison; it breaks the one-excluded-child
    irredundancy certificate at the designated levels).
    """
    if base.spec.kind != "k":
        raise ConstructionError("punctured windows are built from a k window")
    if e_rule not in ("dovetail", "strict", "per-parent"):
        raise ConstructionError(f"unknown e_rule {e_rule!r}")
    spec, ds, tree = base.spec, base.ds, base.tree
    lvl_l = spec.sector_level

    def top_pendings(n: int) -> np.ndarray:
        pend = tree.pending_ranks[n - 1]
        return pend[base.sector_of(pend) == spec.k]

    hk_l = [int(r) for r in top_pendings(lvl_l)]
    if len(hk_l) < 2:
        raise ConstructionError("top sector must contain at least two boundary cylinders")
    punctures: list[tuple[int, tuple[int, ...]]] = []
    designated = [
        n
        for n in range(lvl_l + 1, spec.cap + 1)
        if spec.level_class[n - 1] == spec.k
    ]
    for i, n in enumerate(designated):
        parents = top_pendings(n - 1)
        a_digit = spec.partitions[n - 1].interior[0]
        a_idx = ds.alphabet_index(n, a_digit)
        base_size = ds.size(n - 1)
        if e_rule == "per-parent":
            ranks = tuple(int(p) + base_size * a_idx for p in parents)
        else:
            if e_rule == "dovetail":
                target = hk_l[i % len(hk_l)]
            else:
                target = hk_l[0]
            size_l = ds.size(lvl_l)
            chosen = next(int(p) for p in parents if p % size_l == target)
            ranks = (chosen + base_size * a_idx,)
        punctures.append((n, ranks))
    spec2 = replace(spec, kind="ktilde", e_rule=e_rule, punctures=tuple(punctures))
    tree2 = CylinderTree(ds, spec2)
    return Window(spec2, ds, tree2, base.carries, build_log=list(base.build_log))


def base_window(win: Window) -> Window:
    """The perf window a sector or punctured window was carved from."""
    spec = replace(win.spec, kind="perf", k=1, sector_level=0, sector_of_rank=None,
                   level_class=None, e_rule="", punctures=())
    return Window(spec, win.ds, CylinderTree(win.ds, spec), win.carries)


# -- measures -----------------------------------------------------------------


def boundary_measure(win: Window, n: int) -> Fraction:
    """Exact measure of the level-n boundary layer; product rule and census must agree."""
    if n == 0:
        return Fraction(1)
    product = Fraction(1)
    for j in range(1, n + 1):
        part = win.spec.partitions[j - 1]
        product *= Fraction(len(part.boundary), len(win.ds.alphabet(j)))
    census = Fraction(len(win.tree.pending_ranks[n - 1]), win.ds.size(n))
    if product != census:
        raise ConstructionError(
            f"boundary measure mismatch at level {n}: product {product}, census {census}"
        )
    return product


# -- verification checks ---------------------------------------------------------


def check_genericity(win: Window) -> Report:
    """The boundary misses every embedded group element.

    Two ingredients, both exact: no level ever uses the identity as a boundary
    digit (so identity tails escape), and every element of D_cap escapes the
    boundary layers by level depth+2 (elements still on the boundary at cap
    are exactly those whose next digit is the identity).
    """
    ds, spec = win.ds, win.spec
    bad_levels = [
        n
        for n in range(1, spec.cap + 1)
        if ds.group.identity in spec.partitions[n - 1].boundary
    ]
    lines, data = [], {}
    if bad_levels:
        digits = []
        for n in range(1, spec.cap + 1):
            part = spec.partitions[n - 1]
            pick = ds.group.identity if ds.group.identity in part.boundary else part.boundary[0]
            digits.append(pick)
        lines.append(
            f"FAIL: identity is a boundary digit at levels {bad_levels}; "
            "witness boundary digit string "
            + ";".join(ds.group.fmt(d) for d in digits)
        )
        return Report("genericity", False, lines, {"bad_levels": bad_levels, "witness": digits})

    size = ds.size(spec.cap)
    dig = ds.vec_digit_indices(ds.domain_array(spec.cap), spec.cap)
    boundary_mask = []
    for n in range(1, spec.cap + 1):
        bset = {ds.alphabet_index(n, t) for t in spec.partitions[n - 1].boundary}
        mask = np.zeros(len(ds.alphabet(n)), dtype=bool)
        mask[list(bset)] = True
        boundary_mask.append(mask)
    escape = np.full(size, spec.cap + 1, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    for n in range(1, spec.cap + 1):
        onb = boundary_mask[n - 1][dig[:, n - 1]]
        escaped = alive & ~onb
        escape[escaped] = n
        alive &= onb
    # Depth of each element: last level with a non-identity digit.
    nz = dig != 0
    depth = np.where(nz.any(axis=1), spec.cap - np.argmax(nz[:, ::-1], axis=1), 0)
    late = escape > np.minimum(depth + 2, spec.cap + 1)
    tail_certified = int(alive.sum())
    ok = not late.any()
    lines.append(
        f"{'PASS' if ok else 'FAIL'}: identity never a boundary digit; "
        f"{size - tail_certified} elements escape inside the tree, "
        f"{tail_certified} escape via their identity tail (boundary representatives)"
    )
    data.update(
        {
            "tail_certified": tail_certified,
            "escape_histogram": {
                int(lv): int((escape == lv).sum()) for lv in sorted(set(escape.tolist()))
            },
        }
    )
    return Report("genericity", ok, lines, data)


def check_irredundancy(win: Window) -> Report:
    """One-excluded-child certificates at every level.

    For each level n < cap a boundary cylinder with exactly one excluded child
    is exhibited (the root counts as the unique level-0 cylinder).  For sector
    windows the witness is taken inside the top sector from the sector level
    on, where interior children are never dropped and at most one puncture per
    level can interfere.
    """
    spec, tree = win.spec, win.tree
    lines, witnesses = [], {}
    passed = True
    for n in range(0, spec.cap):
        if n == 0:
            # The root is the unique level-0 cylinder; its children are all
            # level-1 cylinders.
            outs = int((tree.class_by_rank[0] == CLS_OUT).sum())
            if outs == 1:
                witnesses[0] = "root"
            else:
                passed = False
                lines.append(f"level 0: FAIL, root has {outs} excluded children")
            continue
        pool = tree.pending_ranks[n - 1]
        if n >= spec.sector_level:
            pool = pool[win.sector_of(pool) == spec.k]
        found = None
        for r in pool:
            kids = tree.children_classes(int(r), n)
            if int((kids == CLS_OUT).sum()) == 1:
                found = int(r)
                break
        if found is None:
            passed = False
            lines.append(f"level {n}: FAIL, no boundary cylinder with one excluded child")
        else:
            witnesses[n] = found
    if passed:
        lines.append(
            f"levels 0..{spec.cap - 1}: boundary cylinder with exactly one excluded "
            "child found at every level"
        )
    return Report("irredundancy", passed, lines, {"witnesses": witnesses})


def check_self_similarity(win: Window) -> Report:
    """Carry translates of every boundary digit stay inside the domain."""
    ds, spec = win.ds, win.spec
    g = ds.group
    lines = []
    witness = None
    for n in range(1, spec.cap + 1):
        dom = ds.domain_set(n)
        for c in spec.partitions[n - 1].boundary:
            for k in win.carries.level(n):
                if g.mul(k, c) not in dom:
                    witness = {"level": n, "carry": k, "digit": c}
                    break
            if witness:
                break
        if witness:
            break
    if witness:
        lines.append(
            f"FAIL at level {witness['level']}: carry {g.fmt(witness['carry'])} "
            f"pushes boundary digit {g.fmt(witness['digit'])} outside the domain"
        )
        return Report("self_similarity", False, lines, {"witness": witness})
    lines.append(
        f"carry·digit stays inside the domain for all boundary digits, levels 1..{spec.cap}"
    )
    return Report("self_similarity", True, lines, {})


def check_boundary_stability(win: Window, base: Window) -> Report:
    """Boundary (pending) structure agrees with the base window at every level."""
    same = win.tree.pending_equal(base.tree)
    lines = [
        ("boundary cylinders identical to the base window at every level")
        if same
        else "FAIL: boundary cylinders differ from the base window"
    ]
    return Report("boundary_stability", same, lines, {})


def verify_window(win: Window, base: Window | None = None) -> list[Report]:
    """Run the verification battery; boundary-measure identity plus the checks."""
    reports = []
    measure_ok, measure_lines = True, []
    try:
        values = [boundary_measure(win, n) for n in range(win.cap + 1)]
        for n in range(1, len(values)):
            if values[n] > values[n - 1]:
                measure_ok = False
                measure_lines.append(f"level {n}: boundary layer measure increased")
        measure_lines.append(
            "product rule equals the exhaustive census at every level; measures "
            + ", ".join(str(v) for v in values)
        )
    except ConstructionError as exc:
        measure_ok = False
        measure_lines.append(str(exc))
    reports.append(Report("boundary_measure", measure_ok, measure_lines, {}))
    reports.append(check_genericity(win))
    reports.append(check_irredundancy(win))
    reports.append(check_self_similarity(win))
    if base is not None:
        reports.append(check_boundary_stability(win, base))
    return reports


# -- serialization ------------------------------------------------------------


def _fmt_fraction(x: Fraction | None) -> str:
    return "none" if x is None else f"{x.numerator}/{x.denominator}"


def _parse_fraction(s: str) -> Fraction | None:
    if s == "none":
        return None
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _fmt_elems(group: GroupContext, elems: Sequence[Elem]) -> str:
    return ";".join(group.fmt(e) for e in elems)


def _parse_elems(group: GroupContext, s: str) -> tuple[Elem, ...]:
    s = s.strip()
    return tuple(group.parse(p) for p in s.split(";")) if s else ()


def serialize_window(win: Window) -> str:
    """Canonical text form; parsing it back rebuilds an identical window."""
    spec = win.spec
    g = win.group
    out = [
        "format = odowin-window 1",
        f"group = {spec.group_name}",
        f"kind = {spec.kind}",
        f"cap = {spec.cap}",
        f"moduli = {','.join(str(m) for m in spec.moduli)}",
        f"delta = {_fmt_fraction(spec.delta)}",
        f"epsilon = {_fmt_fraction(spec.epsilon)}",
        f"a_schedule = {','.join(str(a) for a in spec.a_schedule)}",
        f"k = {spec.k}",
        f"sector_level = {spec.sector_level}",
        f"e_rule = {spec.e_rule or 'none'}",
    ]
    for n in range(1, spec.cap + 1):
        part = spec.partitions[n - 1]
        out.append(f"[level {n}]")
        out.append(f"alphabet = {_fmt_elems(g, win.ds.alphabet(n))}")
        out.append(f"interior = {_fmt_elems(g, part.interior)}")
        out.append(f"exterior = {_fmt_elems(g, part.exterior)}")
        out.append(f"boundary = {_fmt_elems(g, part.boundary)}")
        if spec.level_class is not None:
            out.append(f"class = {spec.level_class[n - 1]}")
    if spec.sector_of_rank is not None:
        out.append("[sectors]")
        out.append("sector_of_rank = " + ",".join(str(s) for s in spec.sector_of_rank))
    if spec.punctures:
        out.append("[punctures]")
        for lvl, ranks in spec.punctures:
            out.append(f"level {lvl} = {','.join(str(r) for r in ranks)}")
    return "\n".join(out) + "\n"


def parse_window(text: str) -> Window:
    """Rebuild a window from its canonical text form (exact round-trip)."""
    head: dict[str, str] = {}
    levels: dict[int, dict[str, str]] = {}
    sectors: dict[str, str] = {}
    punctures: list[tuple[int, tuple[int, ...]]] = []
    section: str | None = None
    current_level = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
            if section.startswith("level "):
                current_level = int(section.split()[1])
                levels[current_level] = {}
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if section is None:
            head[key] = val
        elif section.startswith("level "):
            levels[current_level][key] = val
        elif section == "sectors":
            sectors[key] = val
        elif section == "punctures":
            lvl = int(key.split()[1])
            punctures.append((lvl, tuple(int(r) for r in val.split(","))))
    if head.get("format") != "odowin-window 1":
        raise ConstructionError("unrecognized window file format")
    group = group_by_name(head["group"])
    cap = int(head["cap"])
    moduli = tuple(int(m) for m in head["moduli"].split(","))
    chain = SubgroupChain(group, moduli)
    ds = DomainSequence.build(chain, cap)
    partitions = []
    level_class = []
    for n in range(1, cap + 1):
        sec = levels.get(n)
        if sec is None:
            raise ConstructionError(f"window file missing level {n}")
        alphabet = _parse_elems(group, sec["alphabet"])
        if alphabet != ds.alphabet(n):
            raise ConstructionError(f"level {n}: alphabet does not match the chain")
        part = LevelPartition(
            _parse_elems(group, sec["interior"]),
            _parse_elems(group, sec["exterior"]),
            _parse_elems(group, sec["boundary"]),
        )
        part.validate(alphabet, n)
        partitions.append(part)
        if "class" in sec:
            level_class.append(int(sec["class"]))
    kind = head["kind"]
    spec = WindowSpec(
        kind=kind,
        group_name=group.name,
        moduli=moduli,
        cap=cap,
        delta=_parse_fraction(head["delta"]),
        epsilon=_parse_fraction(head["epsilon"]),
        a_schedule=tuple(int(a) for a in head["a_schedule"].split(",")),
        partitions=tuple(partitions),
        k=int(head["k"]),
        sector_level=int(head["sector_level"]),
        sector_of_rank=(
            tuple(int(s) for s in sectors["sector_of_rank"].split(","))
            if sectors
            else None
        ),
        level_class=tuple(level_class) if level_class else None,
        e_rule="" if head.get("e_rule") in (None, "none") else head["e_rule"],
        punctures=tuple(punctures),
    )
    tree = CylinderTree(ds, spec)
    return Window(spec, ds, tree, carry_ranges(ds, cap))
