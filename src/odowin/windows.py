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
are integer rank arrays, and a level's partition is a digit-code array: the
class code (``CLS_IN``, ``CLS_OUT`` or ``CLS_PENDING``) of each digit, by
digit index.  Group elements appear only in the window file's text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Mapping, Sequence

import numpy as np

from .expansion import CarryRange, DomainSequence, carry_ranges, check_rows
from .groups import ConstructionError, Elem, GroupContext, SubgroupChain, group_by_name, row_keys

CLS_IN, CLS_OUT, CLS_PENDING = 0, 1, 2
KINDS = ("perf", "k", "ktilde")
E_RULES = ("dovetail", "strict", "per-parent")  # how a ktilde window picks its punctures


# -- exact threshold arithmetic ---------------------------------------------


def rational_log_reciprocal(epsilon: Fraction) -> Fraction:
    """Rational lower bound on -log(1-epsilon), 0 < epsilon < 1: the series Σ ε^i/i to 64 terms."""
    total = Fraction(0)
    power = Fraction(1)
    for i in range(1, 65):
        power *= epsilon
        total += power / i
    return total


def boundary_fraction_threshold(delta: Fraction, n: int) -> Fraction:
    """Rational upper bound on exp(-delta/2^n).

    Computed as the reciprocal of a truncated exponential series (a lower
    bound on exp(+x)), so requiring a boundary fraction >= this threshold
    rigorously implies the target inequality.

    In integers: with x = p/q, after i terms the partial sum is total/denom
    with denom = q^i·i! and the last term is power/denom with power = p^i.  The
    series stops once a term falls below 2^-80 of the sum, or at 300 terms.
    """
    x = delta / (2**n)
    p, q = x.numerator, x.denominator
    power = denom = total = 1
    for i in range(1, 301):
        power *= p
        denom *= q * i
        total = total * q * i + power
        if power << 80 < total:
            break
    return Fraction(denom, total)


def _check_epsilon(epsilon: Fraction | None) -> None:
    """Raise unless epsilon is unset or lies strictly between 0 and 1."""
    if epsilon is not None and not 0 < epsilon < 1:
        raise ConstructionError(f"epsilon must lie strictly between 0 and 1 (got {epsilon})")


def _check_delta(delta: Fraction | None) -> None:
    """Raise unless delta is set and positive."""
    if delta is None or delta <= 0:
        raise ConstructionError(f"delta must be positive (got {_fmt_fraction(delta)})")


def _check_a_schedule(a_schedule: Sequence[int], cap: int) -> None:
    """Raise unless the schedule gives one a_n >= 3 for each of the cap levels."""
    if len(a_schedule) != cap:
        raise ConstructionError(
            f"a_schedule must give one a_n for each of the {cap} levels (got {len(a_schedule)})"
        )
    for i, a in enumerate(a_schedule, start=1):
        if a < 3:
            raise ConstructionError(
                f"level {i}: a_n = {a} rejected; at least two interior digits are "
                "required, so a_n >= 3"
            )


# -- window data -------------------------------------------------------------


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
    partitions: tuple[tuple[int, ...], ...]  # per level, the class code of each digit index
    k: int = 1
    sector_level: int = 0  # partition level L; 0 for perf
    sector_of_rank: tuple[int, ...] | None = None  # sector per level-L rank
    level_class: tuple[int, ...] | None = None  # class per level (1..k)
    e_rule: str = ""
    punctures: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def validate(self, ds: DomainSequence) -> None:
        """Raise unless each field fits the kind, the domains and the other fields."""
        if self.cap < 1:
            raise ConstructionError(f"cap must be at least 1 (got {self.cap})")
        _check_a_schedule(self.a_schedule, self.cap)
        _check_epsilon(self.epsilon)
        _check_delta(self.delta)
        # Structural only: genericity of the identity digit is a verification
        # concern, so adversarial partitions stay buildable.
        if len(self.partitions) != self.cap:
            raise ConstructionError(
                f"need a partition for each of the {self.cap} levels (got {len(self.partitions)})"
            )
        for n, codes in enumerate(self.partitions, start=1):
            digits = len(ds.alphabet_rows(n))
            if len(codes) != digits:
                raise ConstructionError(f"level {n}: need a class code for each of the {digits} "
                                        f"digits (got {len(codes)})")
            for i, c in enumerate(codes):
                if c not in (CLS_IN, CLS_OUT, CLS_PENDING):
                    raise ConstructionError(f"level {n}: digit index {i} has class code {c}, not "
                                            f"{CLS_IN}, {CLS_OUT} or {CLS_PENDING} (interior, "
                                            "exterior or boundary)")
            if codes.count(CLS_OUT) != 1:
                raise ConstructionError(f"level {n}: need exactly one exterior digit")
            if CLS_IN not in codes or CLS_PENDING not in codes:
                raise ConstructionError(f"level {n}: all three parts must be nonempty")
        check_kind(self.kind)
        if self.e_rule not in (E_RULES if self.kind == "ktilde" else ("",)):
            raise ConstructionError(f"e_rule {self.e_rule or 'none'} does not fit a {self.kind} "
                                    f"window (ktilde: {', '.join(E_RULES)}; perf and k: none)")
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
        if max(sectors) < self.k:
            raise ConstructionError(f"k = {self.k}, but no cylinder lies in sector {self.k}")
        classes = self.level_class or ()
        if len(classes) != self.cap or not all(1 <= c <= self.k for c in classes):
            raise ConstructionError(f"need a class in 1..{self.k} for each of the {self.cap} levels")
        for n, c in enumerate(classes[: self.sector_level], start=1):
            if c != 1:
                # the parents at these levels lie above the sector level, so have no sector
                raise ConstructionError(
                    f"level {n}: class {c}, but levels 1..{self.sector_level} (up to the "
                    "sector level) must have class 1"
                )
        if self.punctures and self.kind != "ktilde":
            raise ConstructionError("only ktilde windows carry punctures")
        if self.kind == "ktilde":
            designated = self.designated_levels()
            if [lvl for lvl, _ranks in self.punctures] != designated:
                raise ConstructionError(
                    f"punctures must lie at the designated levels {designated} (levels above "
                    f"the sector level with class {self.k}), one entry each in level order"
                )
        for lvl, ranks in self.punctures:
            if not 1 <= lvl <= self.cap or not all(0 <= r < ds.size(lvl) for r in ranks):
                raise ConstructionError(f"puncture at level {lvl} outside the built cylinders")

    def designated_levels(self) -> list[int]:
        """Levels above the sector level with class k: the levels a ktilde window punctures."""
        return [
            n for n in range(self.sector_level + 1, self.cap + 1) if self.level_class[n - 1] == self.k
        ]

    def sector_of(self, ranks: np.ndarray) -> np.ndarray:
        """Sectors of cylinders given by their ranks at a level >= L; 1 for perf.

        The level-L prefix of a rank, rank % size(L), decides the sector.
        """
        if self.kind == "perf":
            return np.ones(len(ranks), dtype=np.int64)
        sectors = np.asarray(self.sector_of_rank, dtype=np.int64)
        return sectors[ranks % len(sectors)]


class CylinderTree:
    """Per-level ternary classification of every cylinder, as rank arrays.

    Level n comes from level n-1 in one step.  A child of a boundary cylinder
    takes its digit's class, except that an interior digit is exterior in a
    sector below the level's class; every other child keeps its parent's
    class.  A puncture may only flip a child of a boundary cylinder from
    interior to exterior.  So ``class_by_rank[n - 1][r]`` holds every
    ancestor's decision, and the cap level alone classifies any cylinder.
    """

    def __init__(self, ds: DomainSequence, spec: WindowSpec):
        spec.validate(ds)
        self.cap = spec.cap
        self.class_by_rank: list[np.ndarray] = []
        self.pending_ranks: list[np.ndarray] = []
        self._build(ds, spec)

    def _build(self, ds: DomainSequence, spec: WindowSpec) -> None:
        # A level-n rank is r + size(n-1)·i for the parent rank r and digit index i,
        # so the children of the level-(n-1) array are its tiles, one per digit.
        punctures = dict(spec.punctures)
        prev = np.array([CLS_PENDING], dtype=np.int8)  # the root
        for n in range(1, spec.cap + 1):
            code = np.array(spec.partitions[n - 1], np.int8)
            fresh = np.tile(prev == CLS_PENDING, len(code))  # children of boundary cylinders
            arr = np.where(fresh, np.repeat(code, len(prev)), np.tile(prev, len(code)))
            need = spec.level_class[n - 1] if spec.level_class is not None else 1
            if need > 1:
                # interior children survive only in sectors of class >= need
                interior = np.flatnonzero(fresh & (arr == CLS_IN))
                arr[interior[spec.sector_of(interior) < need]] = CLS_OUT
            for r in punctures.get(n, ()):
                if not (fresh[r] and arr[r] == CLS_IN):
                    raise ConstructionError(
                        f"puncture at level {n}, rank {r} is not an interior cylinder "
                        "with a boundary parent"
                    )
                arr[r] = CLS_OUT
            self.class_by_rank.append(arr)
            self.pending_ranks.append(np.nonzero(arr == CLS_PENDING)[0])
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

    def vec_classify(self, ranks: np.ndarray) -> np.ndarray:
        """Classes of the level-cap cylinders with these ranks, one gather.

        The cap level holds every ancestor's decision, so each code equals the
        class of :meth:`classify_indices`; the deciding level is not returned.
        """
        return self.class_by_rank[-1][ranks]

    def pending_equal(self, other: "CylinderTree") -> bool:
        if self.cap != other.cap:
            return False
        return all(
            np.array_equal(a, b)
            for a, b in zip(self.pending_ranks, other.pending_ranks)
        )


@cache
def builtin_sha256():
    """SHA-256 from the interpreter's builtin module (``_sha2`` on 3.12+, ``_sha256`` on 3.10
    and 3.11), and from ``hashlib`` only where neither exists: ``hashlib`` loads OpenSSL
    (3.5 MB resident) for one short digest.  Looked up once per process, since a failed
    import searches the path again; ``builtin_sha256.cache_clear()`` looks again."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


@dataclass
class Window:
    """A built window: spec and domain sequence, with the tree and carries they determine.

    The cylinder tree is built from ``(spec, ds)`` on construction; the carry
    sets K_1..K_cap are formed by ``carry_ranges`` only when asked for (the
    verification and build reports need them, shifts do not).  ``text`` is the
    window file's text, serialized once.
    """

    spec: WindowSpec
    ds: DomainSequence
    build_log: list[str] = field(default_factory=list)
    tree: CylinderTree = field(init=False)

    def __post_init__(self) -> None:
        self.tree = CylinderTree(self.ds, self.spec)

    @property
    def group(self) -> GroupContext:
        return self.ds.group

    @property
    def cap(self) -> int:
        return self.spec.cap

    @property
    def carries(self) -> CarryRange:
        return carry_ranges(self.ds, self.cap)

    @cached_property
    def text(self) -> str:
        return serialize_window(self)

    @property
    def window_id(self) -> str:
        """The kind and the first 12 hex digits of the SHA-256 of the window file's text."""
        return f"{self.spec.kind}-{builtin_sha256()(self.text.encode()).hexdigest()[:12]}"

    def boundary_sector_measure(self, n: int, sector: int) -> Fraction:
        """Exact measure of the level-n boundary layer inside one sector."""
        pend = self.tree.pending_ranks[n - 1]
        return Fraction(int((self.spec.sector_of(pend) == sector).sum()), self.ds.size(n))


@dataclass
class Report:
    name: str
    passed: bool
    lines: list[str]
    data: dict


# -- van Hove boundaries ------------------------------------------------------


def translate_mask(g: GroupContext, left: np.ndarray, right: np.ndarray, alphabet: np.ndarray,
                   modulus: int, n: int) -> np.ndarray:
    """Mask of left[i]·right[j] ∈ D_n for element rows of Γ_{n-1}, given T_n mod ``modulus``.

    Such a product lies in Γ_{n-1}, and D_n ∩ Γ_{n-1} = T_n, so it lies in D_n
    exactly when it is the ``alphabet`` row of its residue mod ``modulus``.
    D_n is never formed, so a modulus is probed before its level is built.
    """
    check_rows(n, len(left) * len(right), g.dim)
    prod = g.vec_mul(left[:, None], right[None]).reshape(-1, g.dim)
    residues = g.vec_residue_rank(alphabet, modulus)
    order = np.argsort(residues)
    at = np.searchsorted(residues, g.vec_residue_rank(prod, modulus), sorter=order)
    inside = np.all(alphabet[order[at % len(order)]] == prod, axis=1)
    return inside.reshape(len(left), len(right))


def _carry_tail_table(ds: DomainSequence, ks: np.ndarray, n: int):
    """The candidates of the van Hove boundary of D_n for the translates K = ``ks``, by column.

    A candidate g (an element with k·g ∈ D_n for some k ∈ K) is its head rank r
    and its tail: g = D_n[r]·τ with τ ∈ Γ_n.  As Γ_n is normal, k·g ∈ D_n iff
    τ = tail_n(k·D_n[r])⁻¹, so column r's candidates are k⁻¹·head_n(k·D_n[r]),
    one per distinct tail over k ∈ K.  Returns the (|K|, size(n)) table of
    candidate rows, their row keys (lexicographic order) and the mask of each
    column's first occurrences.  Only the |K|·size(n) product is formed.
    """
    g = ds.group
    check_rows(n, len(ks) * ds.size(n), g.dim)
    dom = ds.domain_array(n)
    heads = dom[ds.vec_rank(g.vec_mul(ks[:, None], dom[None]).reshape(-1, g.dim), n)]
    rows = g.vec_mul(g.vec_inv(ks)[:, None], heads.reshape(len(ks), -1, g.dim))
    keys = row_keys(rows.reshape(-1, g.dim)).reshape(len(ks), -1)
    first = np.ones(keys.shape, dtype=bool)
    for i in range(1, len(ks)):  # |K| is small: one pass per pair of carry rows
        for j in range(i):
            first[i] &= keys[i] != keys[j]
    return rows, keys, first


def _straddling(first: np.ndarray) -> np.ndarray:
    """Mask of the candidates whose column holds at least two distinct tails."""
    return first & (first.sum(axis=0) >= 2)


def vanhove_boundary(ds: DomainSequence, probe: Sequence[Elem], n: int) -> list[Elem]:
    """Exact probe-boundary of D_n: elements g whose probe^{-1}·g set straddles D_n.

    With K = probe⁻¹, the candidate with head rank r and tail τ hits exactly
    the k with tail_n(k·D_n[r]) = τ⁻¹; so it straddles iff its column holds at
    least two distinct tails, and the boundary is every distinct candidate of
    those columns, in lexicographic (canonical) order.  The |K|·size(n)
    product is held to the array budget.
    """
    g = ds.group
    rows, keys, first = _carry_tail_table(ds, g.vec_inv(g.to_array(probe)), n)
    bnd = _straddling(first)
    return g.from_array(rows[bnd][np.argsort(keys[bnd])])


def carry_safe_digits(g: GroupContext, carries: np.ndarray, alphabet: np.ndarray, modulus: int,
                      n: int) -> np.ndarray:
    """Mask over the level-n digit indices of the t with carries·t inside D_n (eligible boundary
    digits), given the rows of T_n = ``alphabet`` mod ``modulus`` and of the carries."""
    return translate_mask(g, carries, alphabet, alphabet, modulus, n).all(axis=0)


def folner_ratio(ds: DomainSequence, carries: np.ndarray, n: int) -> Fraction:
    """Diagnostic #boundary(D_n)/#D_n for the inverted carry probe (K = the rows ``carries``).

    Counted from the carry-tail table: with d_r distinct tails of k·D_n[r]
    over k ∈ K, #boundary = Σ d_r over the columns with d_r >= 2, which is
    ``len(vanhove_boundary(ds, [k⁻¹ for k in K], n))``.
    """
    _rows, _keys, first = _carry_tail_table(ds, carries, n)
    return Fraction(int(_straddling(first).sum()), ds.size(n))


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
    per-level threshold; raw levels are merged until both hold.  A modulus is
    probed against its alphabet, and only the accepted one has its domain built.
    """
    _check_epsilon(epsilon)
    if delta is None:
        if epsilon is None:
            raise ConstructionError("need epsilon or delta")
        delta = rational_log_reciprocal(Fraction(epsilon))
    delta = Fraction(delta)
    _check_delta(delta)
    a_list = (
        [int(a_schedule)] * cap if isinstance(a_schedule, int) else [int(a) for a in a_schedule]
    )
    _check_a_schedule(a_list, cap)

    raw = list(raw_moduli)
    ds = DomainSequence(group)
    partitions: list[tuple[int, ...]] = []
    log: list[str] = []
    pointer = 0
    for n in range(1, cap + 1):
        a_n = a_list[n - 1]
        threshold = boundary_fraction_threshold(delta, n)
        last_fail = ""
        while pointer < len(raw):
            m = raw[pointer]
            pointer += 1
            alphabet = ds.next_alphabet(m)
            carries = carry_ranges(ds, n).rows[n - 1]
            safe = np.flatnonzero(carry_safe_digits(group, carries, alphabet, m, n))
            total = len(alphabet)
            n_boundary = len(safe) - a_n
            ratio = Fraction(max(n_boundary, 0), total)
            if n_boundary >= 1 and ratio >= threshold:
                ds.append_level(m)
                # The first a_n safe digits stay off the boundary; the first digit
                # off it after the identity (digit 0) is the exterior one.
                codes = np.full(total, CLS_IN, np.int8)
                codes[safe[a_n:]] = CLS_PENDING
                codes[1 + np.argmax(codes[1:] == CLS_IN)] = CLS_OUT
                partitions.append(tuple(codes.tolist()))
                log.append(
                    f"level {n}: modulus {m}, alphabet {total}, carry-safe {len(safe)}, "
                    f"boundary {n_boundary} (fraction {ratio} >= {float(threshold):.6g})"
                )
                break
            last_fail = (
                f"level {n} at modulus {m}: carry-safe digits {len(safe)}, need "
                f"boundary fraction ({len(safe)} - {a_n})/{total} >= {float(threshold):.6g}"
            )
            log.append("telescoped past modulus "
                       f"{m}: {last_fail}")
        else:  # no modulus was accepted at level n
            raise ConstructionError(f"chain exhausted at level {n}: " + (
                f"last failing inequality: {last_fail}" if last_fail else "no modulus left to try"
            ))

    spec = WindowSpec(
        kind="perf",
        group_name=group.name,
        moduli=tuple(ds.moduli),
        cap=cap,
        delta=delta,
        epsilon=None if epsilon is None else Fraction(epsilon),
        a_schedule=tuple(a_list),
        partitions=tuple(partitions),
    )
    return Window(spec, ds, build_log=log)


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
    return Window(spec, base.ds, build_log=list(base.build_log))


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
    spec, ds, tree = base.spec, base.ds, base.tree
    lvl_l = spec.sector_level

    def top_pendings(n: int) -> np.ndarray:
        pend = tree.pending_ranks[n - 1]
        return pend[spec.sector_of(pend) == spec.k]

    hk_l = [int(r) for r in top_pendings(lvl_l)]
    if len(hk_l) < 2:
        raise ConstructionError("top sector must contain at least two boundary cylinders")
    punctures: list[tuple[int, tuple[int, ...]]] = []
    for i, n in enumerate(spec.designated_levels()):
        parents = top_pendings(n - 1)
        a_idx = spec.partitions[n - 1].index(CLS_IN)
        base_size = ds.size(n - 1)
        if e_rule == "per-parent":
            ranks = tuple(int(p) + base_size * a_idx for p in parents)
        else:
            target = hk_l[i % len(hk_l)] if e_rule == "dovetail" else hk_l[0]
            size_l = ds.size(lvl_l)
            chosen = next(int(p) for p in parents if p % size_l == target)
            ranks = (chosen + base_size * a_idx,)
        punctures.append((n, ranks))
    spec2 = replace(spec, kind="ktilde", e_rule=e_rule, punctures=tuple(punctures))
    return Window(spec2, ds, build_log=list(base.build_log))


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ConstructionError(f"window kind must be perf, k, or ktilde (got {kind!r})")


def build_kind(
    base: Window, kind: str, k: int = 1, sector_level: int = 1, e_rule: str = "dovetail"
) -> Window:
    """The ``kind`` window on a perf base: the base itself, its k sectors, or those punctured."""
    check_kind(kind)
    if kind == "perf":
        return base
    win = build_k(base, k, sector_level)
    return build_ktilde(win, e_rule) if kind == "ktilde" else win


def base_window(win: Window) -> Window:
    """The perf window a sector or punctured window was carved from."""
    spec = replace(win.spec, kind="perf", k=1, sector_level=0, sector_of_rank=None,
                   level_class=None, e_rule="", punctures=())
    return Window(spec, win.ds)


# -- measures -----------------------------------------------------------------


def boundary_measure(win: Window, n: int) -> Fraction:
    """Exact measure of the level-n boundary layer; product rule and census must agree."""
    if n == 0:
        return Fraction(1)
    product = Fraction(1)
    for codes in win.spec.partitions[:n]:
        product *= Fraction(codes.count(CLS_PENDING), len(codes))
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
    # The identity is digit 0 at every level.
    bad_levels = [n for n, codes in enumerate(spec.partitions, start=1) if codes[0] == CLS_PENDING]
    lines, data = [], {}
    if bad_levels:
        # the identity where it is a boundary digit, else the first boundary digit
        digits = [ds.alphabet(n)[codes.index(CLS_PENDING)]
                  for n, codes in enumerate(spec.partitions, start=1)]
        lines.append(
            f"FAIL: identity is a boundary digit at levels {bad_levels}; "
            "witness boundary digit string "
            + ";".join(ds.group.fmt(d) for d in digits)
        )
        return Report("genericity", False, lines, {"bad_levels": bad_levels, "witness": digits})

    size = ds.size(spec.cap)
    escape = np.full(size, spec.cap + 1, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    depth = np.zeros(size, dtype=np.int64)  # last level with a non-identity digit
    # D_cap[r] has rank r, whose level-n digit index is r // size(n-1) % |T_n|: the middle
    # axis of the ranks viewed as (size(cap)/size(n), |T_n|, size(n-1)) blocks, so a mask
    # over the digits broadcasts over the ranks.  The ranks whose last nonzero digit is at
    # level n are size(n-1)..size(n)-1.
    for n, codes in enumerate(spec.partitions, start=1):
        low = ds.size(n - 1)
        onb = (np.array(codes) == CLS_PENDING)[:, None]
        here = alive.reshape(-1, len(codes), low)  # views: writes go to alive and escape
        escape.reshape(here.shape)[here & ~onb] = n
        here &= onb
        depth[low : ds.size(n)] = n
    late = escape > np.minimum(depth + 2, spec.cap + 1)
    tail_certified = int(alive.sum())
    levels, counts = np.unique(escape, return_counts=True)
    ok = not late.any()
    lines.append(
        f"{'PASS' if ok else 'FAIL'}: identity never a boundary digit; "
        f"{size - tail_certified} elements escape inside the tree, "
        f"{tail_certified} escape via their identity tail (boundary representatives)"
    )
    data.update(
        {
            "tail_certified": tail_certified,
            "escape_histogram": dict(zip(levels.tolist(), counts.tolist())),
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
    for n in range(0, spec.cap):
        # The root is the pending level-0 cylinder, rank 0.
        pool = tree.pending_ranks[n - 1] if n else np.zeros(1, dtype=np.int64)
        if n >= spec.sector_level:
            pool = pool[spec.sector_of(pool) == spec.k]
        # The children of rank r are column r of the next level in rows of size(n).
        outs = (tree.class_by_rank[n].reshape(-1, win.ds.size(n))[:, pool] == CLS_OUT).sum(0)
        one = np.flatnonzero(outs == 1)
        if one.size:
            witnesses[n] = int(pool[one[0]]) if n else "root"
        elif n:
            lines.append(f"level {n}: FAIL, no boundary cylinder with one excluded child")
        else:
            lines.append(f"level 0: FAIL, root has {int(outs[0])} excluded children")
    passed = len(witnesses) == spec.cap
    if passed:
        lines.append(
            f"levels 0..{spec.cap - 1}: boundary cylinder with exactly one excluded "
            "child found at every level"
        )
    return Report("irredundancy", passed, lines, {"witnesses": witnesses})


def check_self_similarity(win: Window) -> Report:
    """Carry translates of every boundary digit stay inside the domain.

    A failure's witness is the first level, boundary digit (in alphabet order)
    and carry, in that order.
    """
    ds, spec, carries = win.ds, win.spec, win.carries
    g = ds.group
    for n, codes in enumerate(spec.partitions, start=1):
        level_carries = carries.rows[n - 1]
        boundary = np.flatnonzero(np.array(codes) == CLS_PENDING)
        alphabet = ds.alphabet_rows(n)
        inside = translate_mask(g, level_carries, alphabet[boundary], alphabet, ds.modulus(n), n)
        bad = np.flatnonzero(~inside.all(axis=0))
        if bad.size:  # the first failing digit's first failing carry: argmin finds a False
            i = np.argmin(inside[:, bad[0]])
            k, c = g.from_array(np.stack([level_carries[i], alphabet[boundary[bad[0]]]]))
            witness = {"level": n, "carry": k, "digit": c}
            lines = [f"FAIL at level {n}: carry {g.fmt(k)} pushes boundary digit {g.fmt(c)} "
                     "outside the domain"]
            return Report("self_similarity", False, lines, {"witness": witness})
    lines = [f"carry·digit stays inside the domain for all boundary digits, levels 1..{spec.cap}"]
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


def verify_window(win: Window) -> list[Report]:
    """Run the verification battery; boundary-measure identity plus the checks.

    Every window gets genericity, irredundancy and self-similarity; a k or
    ktilde window also gets boundary stability against ``base_window(win)``,
    the perf window it was carved from.
    """
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
    if win.spec.kind != "perf":
        reports.append(check_boundary_stability(win, base_window(win)))
    return reports


# -- serialization ------------------------------------------------------------


def _fmt_fraction(x: Fraction | None) -> str:
    return "none" if x is None else f"{x.numerator}/{x.denominator}"


def _parse_fraction(s: str) -> Fraction | None:
    if s == "none":
        return None
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _fmt_ints(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values)


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(","))


def _entry(section: Mapping[str, str], key: str, where: str = "the header", parse=str):
    """The value ``parse`` reads from a required key of a window file section."""
    if key not in section:
        raise ConstructionError(f"window file has no {key!r} key in {where}")
    return _number(section[key], f"cannot read {key} = {section[key]} in {where}", parse)


def _number(text: str, refusal: str, parse=int):
    """The value ``parse`` reads from ``text``; else a ``ConstructionError`` with ``refusal``."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise ConstructionError(refusal) from None


_PARTS = ("interior", "exterior", "boundary")  # the digit list of CLS_IN, CLS_OUT, CLS_PENDING


def serialize_window(win: Window) -> str:
    """Canonical text form, the one text ``parse_window`` reads back as this window."""
    spec = win.spec
    g = win.group
    out = [
        "format = odowin-window 1",
        f"group = {spec.group_name}",
        f"kind = {spec.kind}",
        f"cap = {spec.cap}",
        f"moduli = {_fmt_ints(spec.moduli)}",
        f"delta = {_fmt_fraction(spec.delta)}",
        f"epsilon = {_fmt_fraction(spec.epsilon)}",
        f"a_schedule = {_fmt_ints(spec.a_schedule)}",
        f"k = {spec.k}",
        f"sector_level = {spec.sector_level}",
        f"e_rule = {spec.e_rule or 'none'}",
    ]
    for n, codes in enumerate(spec.partitions, start=1):
        digits = [g.fmt(t) for t in win.ds.alphabet(n)]
        out.append(f"[level {n}]")
        out.append(f"alphabet = {';'.join(digits)}")
        out += [f"{key} = {';'.join(t for t, c in zip(digits, codes) if c == code)}"
                for code, key in enumerate(_PARTS)]
        if spec.level_class is not None:
            out.append(f"class = {spec.level_class[n - 1]}")
    if spec.sector_of_rank is not None:
        out.append("[sectors]")
        out.append(f"sector_of_rank = {_fmt_ints(spec.sector_of_rank)}")
    if spec.punctures:
        out.append("[punctures]")
        for lvl, ranks in spec.punctures:
            out.append(f"level {lvl} = {_fmt_ints(ranks)}")
    return "\n".join(out) + "\n"


def _sections(text: str) -> dict[str, dict[str, str]]:
    """The ``key = value`` lines of a text by ``[section]`` name, the lines before the first
    section under ``""``.  Lenient: any other line is skipped and a repeated key keeps its
    first value, as ``parse_window`` accepts only the text its window writes back."""
    sections = {"": {}}
    section = sections[""]
    for line in map(str.strip, text.splitlines()):
        if line.startswith("[") and line.endswith("]"):
            section = sections.setdefault(line[1:-1], {})
        elif "=" in line:
            key, _, value = line.partition("=")
            section.setdefault(key.strip(), value.strip())
    return sections


def _first_difference(read: str, written: str) -> str:
    """The first line where ``read`` departs from ``written``: its number, the line read and
    the line written, each with its newline (``nothing`` past the last line)."""
    pairs = itertools.zip_longest(read.splitlines(True), written.splitlines(True))
    n, lines = next((n, pair) for n, pair in enumerate(pairs, start=1) if pair[0] != pair[1])
    a, b = ("nothing" if line is None else repr(line) for line in lines)
    return f"line {n} reads {a} where the window it describes writes {b}"


def parse_window(text: str) -> Window:
    """Rebuild a window from its canonical text form.

    The lines are read leniently, the window their values describe is built (its
    ``WindowSpec.validate`` refuses values that describe none), and the text is
    accepted only if it is that window's ``serialize_window`` text; otherwise the
    refusal names the first line that differs.
    """
    sections = _sections(text)
    head = sections[""]
    if head.get("format") != "odowin-window 1":
        raise ConstructionError("unrecognized window file format")
    group = group_by_name(_entry(head, "group"))
    cap = _entry(head, "cap", parse=int)
    moduli = _entry(head, "moduli", parse=_parse_ints)
    ds = DomainSequence.build(SubgroupChain(group, moduli), cap)
    partitions, level_class = [], []
    for n in range(1, cap + 1):
        sec, where = sections.get(f"level {n}", {}), f"[level {n}]"
        # A digit in no list reads as code -1, which validate refuses.
        code_of = {t: code for code, key in enumerate(_PARTS)
                   for t in _entry(sec, key, where).split(";")}
        partitions.append(tuple(code_of.get(t, -1)
                                for t in _entry(sec, "alphabet", where).split(";")))
        if "class" in sec:
            level_class.append(_entry(sec, "class", where, int))
    punctures = sections.get("punctures", {})
    spec = WindowSpec(
        kind=_entry(head, "kind"),
        group_name=group.name,
        moduli=moduli,
        cap=cap,
        delta=_entry(head, "delta", parse=_parse_fraction),
        epsilon=_entry(head, "epsilon", parse=_parse_fraction),
        a_schedule=_entry(head, "a_schedule", parse=_parse_ints),
        partitions=tuple(partitions),
        k=_entry(head, "k", parse=int),
        sector_level=_entry(head, "sector_level", parse=int),
        sector_of_rank=(_entry(sections["sectors"], "sector_of_rank", "[sectors]", _parse_ints)
                        if "sectors" in sections else None),
        level_class=tuple(level_class) if level_class else None,
        e_rule="" if (rule := _entry(head, "e_rule")) == "none" else rule,
        punctures=tuple(
            (_number(key.removeprefix("level "), f"{key!r} in [punctures] names no level"),
             _entry(punctures, key, "[punctures]", _parse_ints))
            for key in punctures
        ),
    )
    win = Window(spec, ds)
    if win.text != text:
        raise ConstructionError(_first_difference(text, win.text))
    return win
