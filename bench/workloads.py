"""The benchmark's workloads.

Each workload is built from a seed (``__init__``, counted as set-up), runs
whole passes over a fixed list of operations (``run_pass``, timed), and
checks every pass's outputs afterwards (``check``, untimed) against the
independent reference in ``reference.py`` or against properties the method
guarantees.  A pass starts from chain moduli or config text, so no domain
sequence or carry automaton survives from one pass to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref
from odowin import cli, expansion, groups, windows


class Op:
    """Outcome of one operation of a pass.

    ``known_fault`` marks an operation that exposes a known program fault: its
    failure is counted in ``failed`` but does not make the run incorrect.
    """

    def __init__(self, label: str, ok: bool, detail: str = "", known_fault: bool = False):
        self.label, self.ok, self.detail, self.known_fault = label, ok, detail, known_fault


# -- carry-oracle ----------------------------------------------------------------

ORACLE_LEVEL = 4
ORACLE_CHAINS = {
    # The acceptance presets, first four levels: 16,384 + 65,536 + 16,777,216 pairs.
    "z-carry": ("Z", [2, 8, 32, 128]),
    "z2-pow2": ("Z2", [2, 4, 8, 16]),
    "heis-pow2": ("Heisenberg", [2, 4, 8, 16]),
}
ORACLE_SAMPLE = 256  # seeded pairs per preset replayed through carry_mul


class CarryOracle:
    name = "carry-oracle"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.samples = {}
        for preset, (group, moduli) in ORACLE_CHAINS.items():
            size = moduli[ORACLE_LEVEL - 1] ** ref.DIMS[group]
            self.samples[preset] = [
                (rng.randrange(size), rng.randrange(size)) for _ in range(ORACLE_SAMPLE)
            ]

    def run_pass(self, workdir: Path):
        ops, results = [], {}
        for preset, (group, moduli) in ORACLE_CHAINS.items():
            chain = groups.SubgroupChain(groups.group_by_name(group), moduli)
            ds = expansion.DomainSequence.build(chain, ORACLE_LEVEL)
            results[preset] = expansion.verify_carry_identity(ds, ORACLE_LEVEL)
            ops.append(Op(preset, True))
        return ops, results

    def check(self, outputs: list) -> list[str]:
        bad = []
        n = ORACLE_LEVEL
        for preset, (group, moduli) in ORACLE_CHAINS.items():
            rc = ref.Chain(group, moduli)
            for res in (out[preset] for out in outputs):
                if res["pairs"] != rc.size(n) ** 2:
                    bad.append(f"{preset}: {res['pairs']} pairs, expected {rc.size(n) ** 2}")
                if res["mismatches"] or res["spot_check_failures"]:
                    bad.append(f"{preset}: {res['mismatches']} mismatches, "
                               f"{res['spot_check_failures']} spot-check failures")
                bad += self._check_witness(preset, group, res["alpha_witness"])
            # Replay seeded pairs through the automaton route against the reference.
            ds = expansion.DomainSequence.build(
                groups.SubgroupChain(groups.group_by_name(group), moduli), n
            )
            dom = rc.domains[n - 1]
            for a, b in self.samples[preset]:
                ga, gb = dom[a : a + 1], dom[b : b + 1]
                prefix, carry = expansion.carry_mul(
                    ds, rc.digits(ref.plain(ga[0]), n), rc.digits(ref.plain(gb[0]), n), n
                )
                prod = ref.mul(group, ga, gb)
                want = (tuple(rc.digits(ref.plain(prod[0]), n)), ref.plain(rc.tail(prod, n)[0]))
                if (tuple(prefix), carry) != want:
                    bad.append(f"{preset}: pair ranks {a},{b} give {prefix},{carry}, want {want}")
                    break
        return bad

    @staticmethod
    def _check_witness(preset, group, w) -> list[str]:
        if group != "Heisenberg":
            return [] if w is None else [f"{preset}: abelian group reported a conjugation witness"]
        if w is None:
            return [f"{preset}: no conjugation witness"]
        x, y = w["context"]
        s = ref.elem(group, (x, y, 0))
        conj = ref.mul(group, ref.mul(group, ref.inv(group, s), ref.elem(group, w["digit"])), s)
        if ref.plain(conj[0]) != tuple(w["conjugated"]) or tuple(w["conjugated"]) == tuple(w["digit"]):
            return [f"{preset}: conjugation witness {w} does not replay"]
        return []


# -- window-pipeline -------------------------------------------------------------

_Z_FIBER = "[group]\nname = Z\n\n[chain]\nmoduli = 8,48,288,1440,7200,36000\n\n"
PIPELINE_CONFIGS = {
    # name: (config text, emit patch level or None for the default cap - 1, renders)
    "z-irregular": (
        "[group]\nname = Z\n\n[chain]\nrule = geometric\nbase = 2\nratio = 2\nlength = 24\n\n"
        "[window]\nkind = perf\ncap = 3\nepsilon = 1/2\n",
        None, False,
    ),
    "z-fiber-k2": (
        _Z_FIBER + "[window]\nkind = k\nk = 2\nsector_level = 1\ncap = 6\ndelta = 104\n",
        6, False,
    ),
    "z-fiber-ktilde3": (
        _Z_FIBER + "[window]\nkind = ktilde\nk = 3\nsector_level = 1\ncap = 6\ndelta = 104\n",
        6, False,
    ),
    "z2": (
        "[group]\nname = Z2\n\n[chain]\npreset = z2-pow2\n\n[window]\nkind = perf\ncap = 3\n"
        "delta = 60\n",
        None, True,
    ),
    "heis-ktilde2": (
        "[group]\nname = Heisenberg\n\n[chain]\nmoduli = 2,8\n\n[window]\nkind = ktilde\nk = 2\n"
        "sector_level = 1\ncap = 2\ndelta = 40\n",
        None, False,
    ),
}
MALFORMED_SOURCE = "z-fiber-ktilde3"


def _drop_section(text: str, section: str) -> str:
    return re.sub(rf"\[{section}\]\n[^\[]*", "", text)


def _bad_puncture(text: str) -> str:
    """First puncture rank replaced by one far beyond its level's domain."""
    return re.sub(r"(\[punctures\]\nlevel \d+ = )\d+", lambda m: m.group(1) + "9" * 12, text)


MALFORMED = {
    # Each must end in exit code 2 without an exception; none does yet.
    "no-sectors": lambda t: _drop_section(t, "sectors"),
    "puncture-out-of-range": _bad_puncture,
    "no-class": lambda t: re.sub(r"^class = \d+\n", "", t, flags=re.M),
    "k-zero": lambda t: re.sub(r"^k = \d+$", "k = 0", t, flags=re.M),
    "kind-perf": lambda t: re.sub(r"^kind = \w+$", "kind = perf", t, flags=re.M),
}


def _cli(label: str, argv: list[str], want: int, known_fault: bool = False) -> Op:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # the CLI must map every failure to an exit code
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return Op(label, False, f"raised {tb}", known_fault)
    return Op(label, code == want, f"exit {code}, expected {want}", known_fault)


class WindowPipeline:
    name = "window-pipeline"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seeds = {
            name: (rng.randrange(1 << 30), rng.randrange(1 << 30)) for name in PIPELINE_CONFIGS
        }

    def run_pass(self, workdir: Path):
        ops = []
        for name, (text, emit_level, renders) in PIPELINE_CONFIGS.items():
            d = workdir / name
            d.mkdir(parents=True)
            (d / "window.cfg").write_text(text)
            win = str(d / "window.txt")
            fseed, sseed = self.seeds[name]
            emit = ["emit", win, "--out", str(d / "patch.jsonl")]
            if emit_level is not None:
                emit += ["--patch-level", str(emit_level)]
            steps = [
                ["build", "--config", str(d / "window.cfg"), "--out", str(d)],
                ["verify", win],
                emit,
                ["fiber", win, "--seed", str(fseed), "--out", str(d / "fiber.json")],
                ["stats", win, "--seed", str(sseed), "--out", str(d / "stats.json")],
            ]
            if renders:
                steps.append(["render", win, "--out", str(d / "patch.pgm")])
            for argv in steps:
                ops.append(_cli(f"{name}:{argv[0]}", argv, 0))
        source = (workdir / MALFORMED_SOURCE / "window.txt").read_text()
        for label, edit in MALFORMED.items():
            path = workdir / "malformed" / f"{label}.txt"
            path.parent.mkdir(exist_ok=True)
            text = edit(source)
            if text == source:
                ops.append(Op(f"malformed:{label}", False, "edit left window.txt unchanged"))
                continue
            path.write_text(text)
            ops.append(_cli(f"malformed:{label}", ["verify", str(path)], 2, known_fault=True))
        return ops, workdir

    def check(self, outputs: list) -> list[str]:
        # The first pass is checked against the reference in full.  Every later
        # pass ran the same commands with the same seeds, so it must have
        # written the same files, byte for byte.
        first, bad = outputs[0], []
        for name, (_text, _level, renders) in PIPELINE_CONFIGS.items():
            bad += [f"{name}: {msg}" for msg in check_artifacts(first / name, name, renders)]
        want = _files(first)
        for workdir in outputs[1:]:
            got = _files(workdir)
            if got.keys() != want.keys():
                bad.append(f"{workdir.name}: wrote {sorted(got.keys() ^ want.keys())[:3]} "
                           "unlike the first pass")
            bad += [f"{workdir.name}: {rel} differs from the first pass"
                    for rel in sorted(got.keys() & want.keys())
                    if got[rel].read_bytes() != want[rel].read_bytes()]
        return bad


def _files(workdir: Path) -> dict:
    return {str(p.relative_to(workdir)): p for p in workdir.rglob("*") if p.is_file()}


# -- window-pipeline artifact checks -----------------------------------------------


class WindowFile:
    """Minimal reader of window.txt, independent of odowin's parser."""

    def __init__(self, text: str):
        self.head: dict[str, str] = {}
        self.levels: list[dict[str, str]] = []
        self.sectors: list[int] | None = None
        self.punctures: dict[int, set[int]] = {}
        section = None
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("["):
                section = line.strip("[]")
                if section.startswith("level "):
                    self.levels.append({})
                continue
            key, _, val = (s.strip() for s in line.partition("="))
            if section is None:
                self.head[key] = val
            elif section.startswith("level "):
                self.levels[-1][key] = val
            elif section == "sectors":
                self.sectors = [int(v) for v in val.split(",")]
            elif section == "punctures":
                self.punctures[int(key.split()[1])] = {int(v) for v in val.split(",")}
        self.group = self.head["group"]
        self.kind = self.head["kind"]
        self.cap = int(self.head["cap"])
        self.k = int(self.head["k"])
        self.sector_level = int(self.head["sector_level"])
        self.chain = ref.Chain(self.group, [int(m) for m in self.head["moduli"].split(",")])

    def _alpha_index(self, n: int) -> dict:
        alpha = self.chain.alphabets[n - 1]
        return {ref.plain(row): i for i, row in enumerate(alpha)}

    def part_codes(self, n: int) -> np.ndarray:
        """Per digit index: 0 interior, 1 exterior, 2 boundary."""
        index = self._alpha_index(n)
        codes = np.full(len(index), -1, dtype=np.int64)
        for code, key in enumerate(("interior", "exterior", "boundary")):
            for text in self.levels[n - 1][key].split(";"):
                codes[index[_parse_elem(text)]] = code
        return codes

    def boundary_fraction(self, n: int) -> Fraction:
        codes = self.part_codes(n)
        return Fraction(int((codes == 2).sum()), len(codes))

    def classify(self, idx: np.ndarray) -> np.ndarray:
        """Window values (1, 0, or -1 for undecided) of digit-index rows at the cap.

        Walks the levels: the first non-boundary digit decides, except that an
        interior digit at a level of class c > 1 counts only inside sectors of
        class >= c, and punctured cylinders are exterior.
        """
        rows = len(idx)
        value = np.full(rows, -1, dtype=np.int64)
        open_ = np.ones(rows, dtype=bool)
        rank = np.zeros(rows, dtype=np.int64)
        base = 1
        sector = np.ones(rows, dtype=np.int64)
        for n in range(1, self.cap + 1):
            rank = rank + idx[:, n - 1] * base
            base *= len(self.chain.alphabets[n - 1])
            if self.sectors is not None and n == self.sector_level:
                sector = np.asarray(self.sectors, dtype=np.int64)[rank]
            code = self.part_codes(n)[idx[:, n - 1]]
            cls = int(self.levels[n - 1].get("class", 1))
            inside = (code == 0) & (sector >= cls)
            decided = open_ & (code != 2)
            val = np.where(inside, 1, 0)
            if n in self.punctures:
                val[np.isin(rank, list(self.punctures[n]))] = 0
            value[decided] = val[decided]
            open_ &= ~decided
        return value


def _parse_elem(text: str):
    text = text.strip()
    if text.startswith("("):
        return tuple(int(p) for p in text.strip("()").split(","))
    return int(text)


def check_artifacts(d: Path, name: str, renders: bool) -> list[str]:
    bad = []
    text = (d / "window.txt").read_text()
    wf = WindowFile(text)
    rc = wf.chain
    if windows.serialize_window(windows.parse_window(text)) != text:
        bad.append("window.txt changes under parse -> serialize")

    # Boundary-layer measures against the product rule.
    report = json.loads((d / "build_report.json").read_text())
    product = Fraction(1)
    for n in range(1, wf.cap + 1):
        product *= wf.boundary_fraction(n)
        got = Fraction(report["levels"][str(n)]["boundary_layer_measure"])
        if got != product:
            bad.append(f"level {n} measure {got}, product rule {product}")
    if name == "z-irregular" and product < Fraction(1, 2):
        bad.append(f"boundary measure {product} below 1/2")

    # Identity-shift patch: elements, digits and values against the reference.
    records = [json.loads(line) for line in (d / "patch.jsonl").read_text().splitlines()]
    level = _level_of_size(rc, len(records))
    if level is None:
        bad.append(f"patch has {len(records)} positions, not a domain size")
    else:
        dom = rc.domains[level - 1] if level else np.zeros((1, rc.dim), dtype=np.int64)
        got = np.asarray([r["element"] for r in records], dtype=np.int64).reshape(len(records), rc.dim)
        if not np.array_equal(got, dom):
            bad.append("patch positions differ from the reference domain order")
        idx = rc.digit_indices(dom, wf.cap)
        want_vals = wf.classify(idx)
        got_vals = np.asarray([-1 if r["value"] == "?" else r["value"] for r in records])
        if not np.array_equal(got_vals, want_vals):
            bad.append(f"{int((got_vals != want_vals).sum())} patch values differ from the classifier")
        alphabets = [[ref.plain(t) for t in alpha] for alpha in rc.alphabets]
        digits = [[alphabets[j][i] for j, i in enumerate(row)] for row in idx.tolist()]
        got_digits = [[tuple(x) if isinstance(x, list) else x for x in r["digits"]] for r in records]
        if got_digits != digits:
            bad.append("patch digit strings differ from the reference")

    if renders:
        bad += _check_pgm(d / "patch.pgm", wf)

    fiber = json.loads((d / "fiber.json").read_text())
    k = wf.k if wf.kind != "perf" else 1
    classes = [fiber["classes"][f"S{j}"] for j in range(1, k + 1)]
    want = k + 1 + (len(classes[-1]) if wf.kind == "ktilde" else 0)
    values = {tuple(sorted(v.items())) for v in fiber["values_on_hitters"].values()}
    if not (fiber["candidates"] == fiber["distinct"] == len(values) == want):
        bad.append(f"fiber: {fiber['candidates']} candidates, {fiber['distinct']} distinct, "
                   f"{len(values)} distinct on hitters, expected {want}")
    if not fiber["full_coverage"] or not all(classes):
        bad.append("fiber: a similarity class is empty")
    pending = 1
    for n in range(1, wf.cap + 1):
        pending *= int((wf.part_codes(n) == 2).sum())
    if sum(len(c) for c in classes) != pending:
        bad.append(f"fiber: {sum(len(c) for c in classes)} hitters, {pending} boundary cylinders")

    stats = json.loads((d / "stats.json").read_text())
    if stats["census_match"] is not True:
        bad.append("stats: census_match is false")
    return bad


def _level_of_size(rc: ref.Chain, size: int) -> int | None:
    for n in range(0, len(rc.moduli) + 1):
        if rc.size(n) == size:
            return n
    return None


def _check_pgm(path: Path, wf: WindowFile) -> list[str]:
    tokens = path.read_text().split()
    m = wf.chain.moduli[wf.cap - 1]
    if tokens[:4] != ["P2", str(m), str(m), "255"] or len(tokens) != 4 + m * m:
        return [f"pgm: header {tokens[:4]} or size does not match the {m}x{m} box"]
    grid = np.asarray(tokens[4:], dtype=np.int64).reshape(m, m)
    ys, xs = np.mgrid[0:m, 0:m]
    box = np.stack([xs.ravel(), ys.ravel()], axis=1)
    vals = wf.classify(wf.chain.digit_indices(box, wf.cap))
    want = np.choose(vals + 1, [127, 0, 255]).reshape(m, m)
    if not np.array_equal(grid, want):
        return [f"pgm: {int((grid != want).sum())} pixels differ from the classifier"]
    return []


WORKLOADS = {w.name: w for w in (CarryOracle, WindowPipeline)}
