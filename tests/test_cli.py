"""Command-line behavior: determinism, round trips, exit codes."""

import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odowin
from odowin.cli import main
from odowin.fibers import critical_point, enumerate_fiber
from odowin.groups import ConstructionError
from odowin.model_sets import VALUE_OF_CODE
from odowin.odometer import sample_point
from odowin.windows import build_k, build_ktilde, parse_window, serialize_window

FIBER_CFG = """
[group]
name = Z

[chain]
moduli = 8,48,288,1440,7200,36000

[window]
kind = k
k = 2
sector_level = 1
cap = 6
delta = 104
"""

IRR_CFG = """
[group]
name = Z

[chain]
rule = geometric
base = 2
ratio = 2
length = 24

[window]
kind = perf
cap = 3
epsilon = 1/2
"""

Z2_CFG = """
[group]
name = Z2

[chain]
preset = z2-pow2

[window]
kind = perf
cap = 3
delta = 60
"""

HEIS_CFG = """
[group]
name = Heisenberg

[chain]
moduli = 2,8

[window]
kind = ktilde
k = 2
sector_level = 1
cap = 2
delta = 40
"""


def as_perf(text):
    """The config as a perf build, which reads no k or sector_level."""
    text = re.sub(r"^(k|sector_level) = .*\n", "", text, flags=re.M)
    return re.sub(r"^kind = .*$", "kind = perf", text, flags=re.M)


@pytest.fixture()
def cfg(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_build_is_deterministic(tmp_path, cfg):
    path = cfg("w.cfg", FIBER_CFG)
    assert main(["build", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["build", "--config", path, "--out", str(tmp_path / "b")]) == 0
    for name in ("window.txt", "build_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_round_trip_lossless(tmp_path, cfg):
    path = cfg("w.cfg", FIBER_CFG)
    main(["build", "--config", path, "--out", str(tmp_path / "a")])
    text = (tmp_path / "a" / "window.txt").read_text()
    win = parse_window(text)
    assert serialize_window(win) == text
    assert main(["verify", str(tmp_path / "a" / "window.txt")]) == 0


def test_build_report_contains_measure_bound(tmp_path, cfg):
    path = cfg("w.cfg", IRR_CFG)
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    report = json.loads((tmp_path / "w" / "build_report.json").read_text())
    num, den = report["levels"]["3"]["boundary_layer_measure"].split("/")
    assert int(num) * 2 >= int(den)  # nu(Z_cap) >= 1/2 for epsilon = 1/2


def test_verify_fails_on_broken_window(tmp_path, cfg):
    # per-parent punctures break the one-excluded-child certificates; build refuses them,
    # so the library writes the window file
    assert main(["build", "--config", cfg("w.cfg", FIBER_CFG), "--out", str(tmp_path / "k")]) == 0
    win = build_ktilde(parse_window((tmp_path / "k" / "window.txt").read_text()), "per-parent")
    path = tmp_path / "window.txt"
    path.write_text(serialize_window(win))
    assert main(["verify", str(path)]) == 1


def test_per_parent_config_is_refused_before_any_build(tmp_path, cfg, capsys, monkeypatch):
    from odowin import cli

    def no_build(*args, **kwargs):
        raise AssertionError("build_perf was called")

    monkeypatch.setattr(cli, "build_perf", no_build)
    path = cfg("w.cfg", FIBER_CFG.replace("kind = k", "kind = ktilde") + "e_rule = per-parent\n")
    capsys.readouterr()
    assert main(["build", "--config", path, "--out", str(tmp_path / "w")]) == 2
    assert capsys.readouterr().err == ("configuration error: e_rule per-parent breaks the "
                                       "irredundancy certificate, so build refuses it; use "
                                       "dovetail or strict\n")
    assert not (tmp_path / "w").exists()


def test_verify_fails_on_corrupted_boundary_digits(tmp_path, cfg):
    # hand-corrupt the window file: swap the carry-unsafe top digit into the
    # boundary part at level 2, keeping each list in alphabet order (the Z
    # alphabet is increasing); the carry-safety check must fail
    path = cfg("w.cfg", IRR_CFG)
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    wfile = tmp_path / "w" / "window.txt"
    lines = wfile.read_text().splitlines()
    level = interior = boundary = None
    for i, line in enumerate(lines):
        if line == "[level 2]":
            level = i
        if level is not None and line.startswith("interior = "):
            interior = i
        if level is not None and line.startswith("boundary = "):
            boundary = i
            break
    ints = lines[interior].split(" = ")[1].split(";")
    bnds = lines[boundary].split(" = ")[1].split(";")
    top = max(ints, key=int)
    ints[ints.index(top)], bnds[0] = bnds[0], top
    lines[interior] = "interior = " + ";".join(sorted(ints, key=int))
    lines[boundary] = "boundary = " + ";".join(sorted(bnds, key=int))
    wfile.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(wfile)]) == 1


def test_readme_config_builds_and_verifies(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tmp_path / "readme.cfg").write_text(re.search(r"```ini\n(.*?)```", readme, re.S)[1])
    out = tmp_path / "w"
    assert main(["build", "--config", str(tmp_path / "readme.cfg"), "--out", str(out)]) == 0
    assert main(["verify", str(out / "window.txt")]) == 0


def test_config_errors_exit_two(tmp_path, cfg, capsys):
    assert main(["build", "--config", cfg("a.cfg", IRR_CFG.replace("cap = 3", "cap = 3\na = 2")),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["build", "--config", cfg("b.cfg", IRR_CFG.replace("epsilon = 1/2", "epsilon = 1")),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["build", "--config", cfg("c.cfg", "[group]\nname = Z\n[window]\ncap = 2\ndelta = 1\n"),
                 "--out", str(tmp_path / "x")]) == 2
    # chain too short for the requested boundary mass
    assert main(["build", "--config", cfg("d.cfg", IRR_CFG.replace("length = 24", "length = 2")),
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["build", "--config", cfg("e.cfg", IRR_CFG.replace("cap = 3", "cap = 1\nsector_level = 2")),
                 "--out", str(tmp_path / "x")]) == 2
    # values that are not numbers, a zero denominator, a file without sections
    bad = {
        "cap.cfg": IRR_CFG.replace("cap = 3", "cap = three"),
        "moduli.cfg": FIBER_CFG.replace("moduli = 8,48", "moduli = 8,4x8"),
        "a.cfg": IRR_CFG.replace("cap = 3", "cap = 3\na = 3,x"),
        "delta.cfg": Z2_CFG.replace("delta = 60", "delta = sixty"),
        "delta-zero.cfg": Z2_CFG.replace("delta = 60", "delta = 1/0"),
        "no-section.cfg": "name = Z\n" + IRR_CFG,
        # rules the builders own: the kind, the e_rule, epsilon in (0,1) even beside a delta
        "kind.cfg": IRR_CFG.replace("kind = perf", "kind = banana"),
        "e_rule.cfg": FIBER_CFG.replace("kind = k", "kind = ktilde") + "e_rule = banana\n",
        "epsilon.cfg": Z2_CFG.replace("delta = 60", "delta = 60\nepsilon = 3/2"),
        "cap-twice.cfg": Z2_CFG.replace("cap = 3", "cap = 3\ncap = 2"),
        # a section or key that the build would not read
        "section.cfg": Z2_CFG + "[notes]\nseen = yes\n",
        "default.cfg": "[DEFAULT]\nnote = kept\n" + Z2_CFG,
        "key.cfg": Z2_CFG.replace("cap = 3", "cap = 3\ncolour = red"),
        "e_rule-on-k.cfg": FIBER_CFG + "e_rule = strict\n",
        "e_rule-on-perf.cfg": Z2_CFG + "e_rule = dovetail\n",
        "k-on-perf.cfg": Z2_CFG + "k = 3\n",
        "k-zero-on-perf.cfg": Z2_CFG + "k = 0\n",
        "sector-level-on-perf.cfg": Z2_CFG + "sector_level = 2\n",
        "preset-and-moduli.cfg": FIBER_CFG.replace("[chain]\n", "[chain]\npreset = z-fiber\n"),
        "base-without-rule.cfg": FIBER_CFG.replace("[chain]\n", "[chain]\nbase = 2\n"),
        # more a_n than levels: a list gives one a_n per level
        "a-longer-than-cap.cfg": IRR_CFG.replace("cap = 3", "cap = 3\na = 3,4,5,6,7"),
    }
    capsys.readouterr()
    for name, text in bad.items():
        assert main(["build", "--config", cfg(name, text), "--out", str(tmp_path / "x")]) == 2, name
        assert len(capsys.readouterr().err.splitlines()) == 1, name
        assert not (tmp_path / "x").exists(), name  # a refused config writes nothing



def test_unknown_kind_is_refused_before_any_build(tmp_path, cfg, capsys, monkeypatch):
    # the kind is checked first: a base-window build that fails when called is never reached
    from odowin import cli

    def no_build(*args, **kwargs):
        raise AssertionError("build_perf was called")

    monkeypatch.setattr(cli, "build_perf", no_build)
    capsys.readouterr()
    config = cfg("kind.cfg", IRR_CFG.replace("kind = perf", "kind = banana"))
    assert main(["build", "--config", config, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == ("configuration error: window kind must be perf, k, or "
                                       "ktilde (got 'banana')\n")
    assert not (tmp_path / "x").exists()

def test_bad_flags_exit_two(tmp_path, cfg, capsys, monkeypatch):
    path = cfg("w.cfg", IRR_CFG)
    capsys.readouterr()
    # a perf config has no sector_level, so its cap rule names only the cap
    assert main(["build", "--config", cfg("cap0.cfg", IRR_CFG.replace("cap = 3", "cap = 0")),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "configuration error: need cap >= 1 (cap=0)\n"
    assert main(["build", "--config", cfg("k-cap0.cfg", FIBER_CFG.replace("cap = 6", "cap = 0")),
                 "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == ("configuration error: need cap >= sector_level >= 1 "
                                       "(cap=0, L=1)\n")
    assert main(["build", "--config", path, "--out", str(tmp_path / "w")]) == 0
    win = str(tmp_path / "w" / "window.txt")
    capsys.readouterr()
    for argv in (
        ["stats", win, "--seed", "1", "--levels", "x"],
        ["fiber", win, "--critical", "--patch-level", "9"],
        ["fiber", win, "--critical", "--patch-level", "-1"],
        ["emit", win, "--patch-level", "-1"],
        *([cmd, win, "--seed", "1", "--critical"] for cmd in ("fiber", "emit", "stats")),
    ):
        assert main(argv) == 2, argv
        assert len(capsys.readouterr().err.splitlines()) == 1, argv
    # argparse errors return 2 with one line too; stats reads no patch, so it takes no --patch-level
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)  # where a default output path would land
    for argv in (
        ["stats", win, "--seed", "1", "--patch-level", "1"],
        ["emit", win, "--patch-level", "x"],
        ["fiber", win, "--seed"],
        ["build", "--config", path, "--cap", "2"],  # the config's keys are the only settings
        ["frob", win],
        [],
        # an empty value is no value, and a level is asked for once
        ["build", "--config", path, "--out", ""],
        *([cmd, win, "--seed", "1", "--out", ""] for cmd in ("emit", "fiber", "stats", "render")),
        ["stats", win, "--seed", "1", "--levels", ""],
        ["stats", win, "--seed", "1", "--levels", "2,2"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and not out, argv
        if argv and argv[-1] in ("", "2,2"):
            assert argv[-2] in err, argv  # the flag is named
    assert not any(cwd.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(["emit", "--help"])
    assert exc.value.code == 0


def test_oversized_level_exits_two(tmp_path, cfg, capsys, w_heis):
    # a level whose domain would exceed the byte budget is refused before it is built;
    # the build telescopes past 64 and does not skip 512
    deep = as_perf(HEIS_CFG).replace("moduli = 2,8", "moduli = 2,8,64,512").replace(
        "cap = 2", "cap = 3")
    wfile = tmp_path / "heis.txt"
    wfile.write_text(serialize_window(w_heis).replace("moduli = 2,8\n", "moduli = 2,512\n"))
    capsys.readouterr()
    for argv, level in (
        (["build", "--config", cfg("deep.cfg", deep), "--out", str(tmp_path / "x")], 3),
        (["verify", str(wfile)], 2),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, argv
        assert f"level {level}: modulus 512 gives a domain of 134217728 elements (3221225472 bytes)" in err[0]


def test_report_over_budget_records_null(tmp_path, cfg, monkeypatch):
    # a level whose |K_n|·size(n) van Hove product is over the array budget reports a null
    # ratio with the rows and bytes it would take; the window still builds and verifies
    from odowin import expansion

    monkeypatch.setattr(expansion, "ARRAY_BUDGET", 400_000)
    out = tmp_path / "w"
    # D_6 is 36,000 rows (288,000 bytes); the level-6 product is 72,000 rows
    assert main(["build", "--config", cfg("fiber.cfg", FIBER_CFG), "--out", str(out)]) == 0
    levels = json.loads((out / "build_report.json").read_text())["levels"]
    assert levels["6"]["folner_ratio"] is None
    assert levels["6"]["folner_product_rows"] == 72000
    assert levels["6"]["folner_product_bytes"] == 576000
    for n in range(1, 6):
        assert set(levels[str(n)]) == set(levels["6"]) - {"folner_product_rows",
                                                         "folner_product_bytes"}
        assert levels[str(n)]["folner_ratio"] is not None
    assert main(["verify", str(out / "window.txt")]) == 0
    # the ratios that fit are the ones an unbounded build reports
    monkeypatch.setattr(expansion, "ARRAY_BUDGET", 1 << 30)
    full_out = tmp_path / "v"
    assert main(["build", "--config", cfg("fiber.cfg", FIBER_CFG), "--out", str(full_out)]) == 0
    full = json.loads((full_out / "build_report.json").read_text())["levels"]
    assert [levels[str(n)] for n in range(1, 6)] == [full[str(n)] for n in range(1, 6)]
    assert full["6"]["folner_ratio"] is not None
    assert (out / "window.txt").read_text() == (full_out / "window.txt").read_text()


def test_fiber_report_over_budget_writes_nothing(tmp_path, cfg, capsys, monkeypatch):
    # a report of 2 candidates x 21,840 hitters is refused under a 1 MiB budget,
    # which the window's own levels fit
    from odowin import expansion

    main(["build", "--config", cfg("w.cfg", IRR_CFG), "--out", str(tmp_path / "w")])
    monkeypatch.setattr(expansion, "ARRAY_BUDGET", 1 << 20)
    out = tmp_path / "fiber.json"
    capsys.readouterr()
    assert main(["fiber", str(tmp_path / "w" / "window.txt"), "--seed", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "a fiber report of 43680 candidate-hitter values" in err[0]
    assert not out.exists()


def _config(group, moduli, **window):
    return (f"[group]\nname = {group}\n\n[chain]\nmoduli = {moduli}\n\n[window]\n"
            + "".join(f"{key} = {value}\n" for key, value in window.items()))


# Configs whose fiber report or carry closure takes tens of GiB: the fiber's candidates
# were formed as one int8 matrix, (69828, 69828) on the first, before the report's
# budget check, and the closure's level-1 tables were allocated before any check.
OVERSIZED = {
    "fiber-z2-384": (_config("Z2", "6,48,384", kind="ktilde", cap=3, k=1, sector_level=3,
                             e_rule="strict", delta=10, a=3),
                     "construction error: a fiber report of 4876089240 candidate-hitter values "
                     "takes about 975217848000 bytes to write, over the 1073741824-byte budget"),
    "fiber-z2-320": (_config("Z2", "5,40,320", kind="ktilde", cap=2, k=3, sector_level=2,
                             epsilon="1/2"),
                     "construction error: a fiber report of 2538073428 candidate-hitter values "
                     "takes about 507614685600 bytes to write, over the 1073741824-byte budget"),
    "closure-heis-96": (_config("Heisenberg", "6,48,96", kind="perf", cap=3, epsilon="1/100", a=4),
                        "configuration error: level 1: closing the carry automaton over "
                        "12230590464 transitions takes 97844723712 bytes, over the "
                        "1073741824-byte budget"),
    "closure-heis-320": (_config("Heisenberg", "5,40,320", kind="ktilde", cap=2, k=1,
                                 epsilon="1/100"),
                         "configuration error: level 1: closing the carry automaton over "
                         "4096000000 transitions takes 32768000000 bytes, over the "
                         "1073741824-byte budget"),
    "closure-heis-64": (_config("Heisenberg", "4,32,64", kind="k", cap=3, k=1, epsilon="1/100"),
                        "configuration error: level 1: closing the carry automaton over "
                        "1073741824 transitions takes 8589934592 bytes, over the "
                        "1073741824-byte budget"),
}


@pytest.mark.parametrize("name", OVERSIZED)
def test_oversized_fiber_and_closure_exit_two(tmp_path, cfg, capsys, name):
    # each is refused from its counts, before anything of its size exists: the fiber
    # windows build and their fiber exits 2, the closure configs' build exits 2
    text, message = OVERSIZED[name]
    out = tmp_path / "w"
    argv = ["build", "--config", cfg("w.cfg", text), "--out", str(out)]
    if name.startswith("fiber"):
        assert main(argv) == 0
        argv = ["fiber", str(out / "window.txt"), "--critical", "--out", str(tmp_path / "f")]
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.splitlines() == [message]
    assert peak < 1 << 30
    assert not (tmp_path / "f").exists() and (name.startswith("fiber") or not out.exists())


@pytest.mark.parametrize("text", [IRR_CFG, FIBER_CFG, Z2_CFG], ids=["z-irregular", "z-fiber", "z2"])
def test_abelian_build_and_verify_close_no_automaton(tmp_path, cfg, monkeypatch, text):
    # Z and Z2 carry sets are written down (Lemma B), so neither command closes the automaton;
    # a Heisenberg build still does
    closed = []
    init = odowin.expansion.CarryAutomaton.__init__
    monkeypatch.setattr(odowin.expansion.CarryAutomaton, "__init__",
                        lambda self, *a: closed.append(a[1]) or init(self, *a))
    out = tmp_path / "w"
    assert main(["build", "--config", cfg("w.cfg", text), "--out", str(out)]) == 0
    assert main(["verify", str(out / "window.txt")]) == 0
    assert closed == []
    assert main(["build", "--config", cfg("h.cfg", HEIS_CFG), "--out", str(tmp_path / "h")]) == 0
    assert closed


def test_loaded_window_is_serialized_once(tmp_path, cfg, monkeypatch):
    # parse_window checks the file against the window's text, and window_id hashes that text
    from odowin import windows

    out = tmp_path / "w"
    main(["build", "--config", cfg("w.cfg", FIBER_CFG), "--out", str(out)])
    calls = []
    serialize = windows.serialize_window
    monkeypatch.setattr(windows, "serialize_window", lambda w: calls.append(w) or serialize(w))
    for command in ("fiber", "stats"):
        calls.clear()
        assert main([command, str(out / "window.txt"), "--seed", "1",
                     "--out", str(tmp_path / command)]) == 0
        assert len(calls) == 1, command
        assert json.loads((tmp_path / command).read_text())["window"] == windows.parse_window(
            (out / "window.txt").read_text()).window_id


def _fiber_report_oracle(win, xi, level):
    """The report as a dict, written by json.dumps(indent=2, sort_keys=True)."""
    fib = enumerate_fiber(win, xi, patch_level=level)
    rep, g = fib.report, win.group
    hitters = [g.fmt(h) for h in rep.hitters()]
    report = {
        "window": win.window_id,
        # digit j of a level-n rank is its mixed-radix digit of place value size(j-1)
        "shift_digits": [g.fmt(win.ds.alphabet(j)[xi.rank // win.ds.size(j - 1) % len(win.ds.alphabet(j))])
                         for j in range(1, xi.precision + 1)],
        "patch_level": level,
        "classes": {f"S{j + 1}": [g.fmt(e) for e in cls] for j, cls in enumerate(rep.classes)},
        "full_coverage": rep.full_coverage(),
        "candidates": len(fib.candidates),
        "distinct": fib.distinct(),
        "labels": fib.labels,
        "values_on_hitters": {
            label: dict(zip(hitters, (VALUE_OF_CODE[c] for c in row)))
            for label, row in zip(fib.labels, fib.candidates.tolist())
        },
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_fiber_report_matches_json_dumps(tmp_path, w_irr, w_k, w_kt, w_z2, w_heis, w_heis_k2,
                                         w_heis_kt2, monkeypatch):
    # at the shipped block size and at blocks of 1, 2, 3 and 7 entries
    from odowin import expansion

    blocks = (expansion.WRITE_BLOCK, 1, 2, 3, 7)
    z2_k2 = build_k(w_z2, 2, 2)
    windows = {
        "z-perf": w_irr, "z-k2": w_k[2], "z-ktilde3": w_kt[3],
        "z2-perf": w_z2, "z2-k2": z2_k2, "z2-ktilde2": build_ktilde(z2_k2, "dovetail"),
        "heis-perf": w_heis, "heis-k2": w_heis_k2, "heis-ktilde2": w_heis_kt2,
    }
    seen = set()
    for name, built in windows.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize_window(built))
        win = parse_window(path.read_text())
        shifts = ((["--seed", "1"], sample_point(win.ds, 1, win.cap)),
                  (["--critical"], critical_point(win)))
        for flags, xi in shifts:
            for level in sorted({0, 1, win.cap - 1, win.cap}):
                out = tmp_path / "fiber.json"
                argv = ["fiber", str(path), *flags, "--patch-level", str(level), "--out", str(out)]
                want = _fiber_report_oracle(win, xi, level)
                for block in blocks:
                    monkeypatch.setattr(expansion, "WRITE_BLOCK", block)
                    assert main(argv) == 0, argv
                    text = out.read_text()
                    assert text == want, (argv, block)
                report = json.loads(text)
                if [] in report["classes"].values() and not report["full_coverage"]:
                    seen.add("empty class")
                if not any(report["values_on_hitters"].values()):
                    seen.add("no hitters")
                if any("-drop-" in label for label in report["labels"]):
                    seen.add("drops")
    assert seen == {"empty class", "no hitters", "drops"}



def test_fiber_keys_sort_as_text(tmp_path, w_irr):
    # hitter keys follow sort_keys, the order of their texts: "10" comes before "9"
    path = tmp_path / "w.txt"
    path.write_text(serialize_window(w_irr))
    out = tmp_path / "fiber.json"
    assert main(["fiber", str(path), "--seed", "1", "--out", str(out)]) == 0
    for values in json.loads(out.read_text())["values_on_hitters"].values():
        keys = list(values)
        assert keys == sorted(keys) != sorted(keys, key=int)
        assert any(len(a) > len(b) for a, b in zip(keys, keys[1:]))

def test_fiber_memory_is_bounded_by_blocks(tmp_path, cfg):
    # The report is written to the file a block of entries at a time: on the z-irregular
    # window (2 candidates x 21,840 hitters, a 1.09 MB report) the command peaks at
    # 4.4 MiB, which parsing and the fiber enumeration reach before writing; the text
    # tables and blocks take 1.1 MiB above what the enumeration holds.  One string per
    # entry, streamed, peaked at 5.9 MiB; the whole report held as nested texts, joined
    # and copied, at 9.7 MiB.
    main(["build", "--config", cfg("w.cfg", IRR_CFG), "--out", str(tmp_path / "w")])
    out = tmp_path / "fiber.json"
    argv = ["fiber", str(tmp_path / "w" / "window.txt"), "--seed", "1", "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = json.loads(out.read_text())["values_on_hitters"].values()
    assert [len(v) for v in values] == [21840, 21840]
    assert peak < 7 << 20


def test_unwritable_out_exits_two(tmp_path, cfg, capsys):
    # an --out that is a directory, a regular file where build wants a directory, or a
    # path under a regular file: one stderr line naming it, no stdout, nothing written
    main(["build", "--config", cfg("w.cfg", Z2_CFG), "--out", str(tmp_path / "w")])
    win = str(tmp_path / "w" / "window.txt")
    folder, file = tmp_path / "folder", tmp_path / "file"
    folder.mkdir()
    file.write_text("kept\n")
    build = ["build", "--config", str(tmp_path / "w.cfg")]
    cases = [(build, file), (build, file / "w")]
    for name in ("emit", "fiber", "stats", "render"):
        cases += [([name, win, "--seed", "1"], folder), ([name, win, "--seed", "1"], file / "x")]
    capsys.readouterr()
    for argv, out in cases:
        assert main([*argv, "--out", str(out)]) == 2, argv
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and f"cannot write {out}" in err[0], argv
        assert captured.out == "", argv
    assert file.read_text() == "kept\n" and not any(folder.iterdir())


def test_stdout_and_out_write_the_same_bytes(tmp_path, cfg, capsys):
    main(["build", "--config", cfg("w.cfg", FIBER_CFG), "--out", str(tmp_path / "w")])
    win = str(tmp_path / "w" / "window.txt")
    for argv in (["emit", win, "--patch-level", "6"], ["fiber", win, "--seed", "1"],
                 ["stats", win, "--seed", "1"]):
        capsys.readouterr()
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out
        out = tmp_path / f"{argv[0]}.out"
        assert main([*argv, "--out", str(out)]) == 0, argv
        assert printed.encode() == out.read_bytes(), argv


def _odowin(argv, **kwargs):
    """Start ``python -m odowin.cli`` with this package on its path."""
    src = str(Path(odowin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "odowin.cli", *argv], env=env,
                            stderr=subprocess.PIPE, **kwargs)


def test_only_the_window_id_loads_openssl(tmp_path, cfg):
    # hashlib, and with it OpenSSL's _hashlib, is imported only for the window id that
    # fiber and stats print: each command runs in a fresh process.
    src = str(Path(odowin.__file__).resolve().parents[1])
    config, out = cfg("w.cfg", Z2_CFG), tmp_path / "w"
    win = str(out / "window.txt")
    runs = {
        "build": ["build", "--config", config, "--out", str(out)],
        "verify": ["verify", win],
        "emit": ["emit", win, "--out", str(tmp_path / "patch.jsonl")],
        "render": ["render", win, "--out", str(tmp_path / "patch.pgm")],
        "fiber": ["fiber", win, "--seed", "1", "--out", str(tmp_path / "fiber.json")],
        "stats": ["stats", win, "--seed", "1", "--out", str(tmp_path / "stats.json")],
    }
    script = ("import sys, json; sys.path.insert(0, sys.argv[1]); from odowin.cli import main; "
              "code = main(json.loads(sys.argv[2])); print(code, '_hashlib' in sys.modules)")
    for name, argv in runs.items():
        proc = subprocess.run([sys.executable, "-c", script, src, json.dumps(argv)],
                              capture_output=True, text=True, check=True)
        loads = name in ("fiber", "stats")
        assert proc.stdout.splitlines()[-1] == f"0 {loads}", name


def test_closed_stdout_pipe_ends_quietly(tmp_path, cfg):
    # A reader that stops after 100 bytes of a 36,000-record patch (as ``| head -c 100``):
    # no traceback, nothing on stderr, exit 0.
    main(["build", "--config", cfg("w.cfg", FIBER_CFG), "--out", str(tmp_path / "w")])
    with _odowin(["emit", str(tmp_path / "w" / "window.txt"), "--patch-level", "6"],
                 stdout=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b'{"digits":[')
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0 and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_stdout_exits_two(tmp_path, cfg):
    # A stdout that takes no bytes: one stderr line and exit 2, both for a long write
    # (emit) and for a short report that fails only when it is flushed (verify).
    main(["build", "--config", cfg("w.cfg", FIBER_CFG), "--out", str(tmp_path / "w")])
    win = str(tmp_path / "w" / "window.txt")
    for argv in (["emit", win, "--patch-level", "6"], ["verify", win]):
        with open("/dev/full", "w") as full, _odowin(argv, stdout=full) as proc:
            err = proc.stderr.read().decode().splitlines()
        assert proc.returncode == 2, argv
        assert len(err) == 1 and err[0].startswith("cannot write to stdout:"), (argv, err)
        assert "No space left on device" in err[0], argv


def test_exhausted_chain_names_its_level(tmp_path, cfg, capsys):
    # The level where the moduli ran out, with that level's last failing inequality,
    # or with none left to try at all.
    cases = {
        # the 2·2^k chain of length 16 runs out at level 4, short of cap 6
        IRR_CFG.replace("cap = 3", "cap = 6").replace("length = 24", "length = 16"):
            "chain exhausted at level 4: last failing inequality: level 4 at modulus 65536: "
            "carry-safe digits 1, need boundary fraction (1 - 3)/2 >= 0.957603",
        # at length 24 it runs out at level 5, at modulus 2^24
        IRR_CFG.replace("cap = 3", "cap = 6"):
            "chain exhausted at level 5: last failing inequality: level 5 at modulus 16777216: "
            "carry-safe digits 3, need boundary fraction (3 - 3)/4 >= 0.978572",
        # six moduli, each taken by one of the first six levels
        FIBER_CFG.replace("cap = 6", "cap = 7"): "chain exhausted at level 7: no modulus left to try",
    }
    for i, (text, message) in enumerate(cases.items()):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["build", "--config", cfg(f"{i}.cfg", text), "--out", str(tmp_path / "x")]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]
        assert not (tmp_path / "x").exists()
        # A rejected modulus is probed against its alphabet and never built.  The
        # length-24 chain peaks at 32.5 MiB building its accepted level 4 (2^22
        # elements: on Z the domain alone, 32 MiB; the domain and its rank table
        # peaked at 129 MiB); building each rejected domain, up to 2^24 elements,
        # peaked at 721 MiB.
        assert peak < 48 << 20


def test_preset_must_agree_with_group_name(tmp_path, cfg, capsys):
    capsys.readouterr()
    for name in ("Heisenberg", "Z"):
        path = cfg(f"{name}.cfg", Z2_CFG.replace("name = Z2", f"name = {name}"))
        assert main(["build", "--config", path, "--out", str(tmp_path / name)]) == 2, name
        assert len(capsys.readouterr().err.splitlines()) == 1, name
        assert not (tmp_path / name).exists()
    # with no [group] section the preset names the group
    path = cfg("no-group.cfg", Z2_CFG.replace("[group]\nname = Z2\n", ""))
    assert main(["build", "--config", path, "--out", str(tmp_path / "w")]) == 0
    assert "group = Z2" in (tmp_path / "w" / "window.txt").read_text().splitlines()


def test_malformed_window_exits_two(tmp_path, capsys, malformed_windows):
    capsys.readouterr()
    for label, text in malformed_windows.items():
        path = tmp_path / f"{label}.txt"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2, label
        assert len(capsys.readouterr().err.splitlines()) == 1, label


def _first_changed_line(edited: str, text: str) -> str:
    """The refusal naming the first line of ``edited`` that differs from ``text``, the
    window's own text: its number, the line read and the line written, with newlines."""
    pairs = itertools.zip_longest(edited.splitlines(True), text.splitlines(True))
    n, (read, written) = next((n, p) for n, p in enumerate(pairs, start=1) if p[0] != p[1])
    shown = ["nothing" if line is None else repr(line) for line in (read, written)]
    return f"line {n} reads {shown[0]} where the window it describes writes {shown[1]}"


def test_non_canonical_number_is_named(tmp_path, capsys, w_kt, malformed_windows):
    # a number not written as the window writes it is refused on one line naming its line
    path, canonical = tmp_path / "window.txt", serialize_window(w_kt[3])
    for label in ("delta-not-in-lowest-terms", "k-leading-zero", "class-plus-sign",
                  "moduli-spaced", "puncture-level-leading-zero"):
        path.write_text(malformed_windows[label])
        assert main(["verify", str(path)]) == 2, label
        want = _first_changed_line(malformed_windows[label], canonical)
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot parse window file {path}: {want}"], label
    assert _first_changed_line(malformed_windows["delta-not-in-lowest-terms"], canonical) == (
        "line 6 reads 'delta = 208/2\\n' where the window it describes writes 'delta = 104/1\\n'")


def test_unread_section_or_key_is_named(tmp_path, cfg, capsys, w_kt, malformed_windows):
    # a window file line that its window does not write there is named by its number and
    # text; a config's unread section or key by its name; each on one line
    path, canonical = tmp_path / "window.txt", serialize_window(w_kt[3])
    for label in ("unknown-header-key", "unknown-level-key", "unknown-section",
                  "level-beyond-cap", "default-section", "comment-line", "blank-line",
                  "trailing-spaces", "header-keys-swapped", "levels-swapped",
                  "no-final-newline", "cap-unspaced"):
        path.write_text(malformed_windows[label])
        assert main(["verify", str(path)]) == 2, label
        want = _first_changed_line(malformed_windows[label], canonical)
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot parse window file {path}: {want}"], label
    for label in ("cap-upper-case", "cap-colon"):  # no line reads as the cap
        path.write_text(malformed_windows[label])
        assert main(["verify", str(path)]) == 2, label
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot parse window file {path}: window file has no 'cap' "
            "key in the header"], label
    for text, named in (
        (Z2_CFG.replace("cap = 3", "cap = 3\ncolour = red"), "a perf build reads no key 'colour'"),
        (FIBER_CFG + "e_rule = strict\n", "a k build reads no key 'e_rule' in [window]"),
        ("[DEFAULT]\nnote = kept\n" + Z2_CFG, "a perf build reads no section [DEFAULT]"),
        (Z2_CFG.replace("name = Z2", "Name = Z"), "a perf build reads no key 'Name' in [group]"),
        (FIBER_CFG.replace("[chain]\n", "[chain]\npreset = z-fiber\n"), "names preset and moduli"),
    ):
        out = tmp_path / "out"
        assert main(["build", "--config", cfg("w.cfg", text), "--out", str(out)]) == 2, named
        err = capsys.readouterr().err
        assert named in err and len(err.splitlines()) == 1 and not out.exists(), named


@pytest.mark.parametrize(
    "key, where",
    [(key, "the header") for key in ("group", "cap", "moduli", "kind", "delta", "k", "e_rule")]
    + [("alphabet", "[level 1]"), ("boundary", "[level 1]")],
)
def test_missing_window_key_is_named(tmp_path, capsys, w_kt, key, where):
    path = tmp_path / "window.txt"
    path.write_text(re.sub(rf"^{key} = .*\n", "", serialize_window(w_kt[3]), count=1, flags=re.M))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"window file has no {key!r} key in {where}" in err and len(err.splitlines()) == 1


def test_emit_identity_no_undecided(tmp_path, cfg):
    path = cfg("w.cfg", IRR_CFG)
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    out = tmp_path / "patch.jsonl"
    assert main(["emit", str(tmp_path / "w" / "window.txt"), "--out", str(out)]) == 0
    values = [json.loads(line)["value"] for line in out.read_text().splitlines()]
    assert "?" not in values


def test_fiber_command_counts(tmp_path, cfg):
    # a perf window with a critical shift has exactly two candidates
    path = cfg("w.cfg", as_perf(FIBER_CFG))
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    out = tmp_path / "fiber.json"
    assert main(["fiber", str(tmp_path / "w" / "window.txt"), "--critical",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["candidates"] == 2 and report["distinct"] == 2
    assert main(["fiber", str(tmp_path / "w" / "window.txt")]) == 2  # no seed, no critical


def test_stats_command(tmp_path, cfg):
    path = cfg("w.cfg", FIBER_CFG)
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    out = tmp_path / "stats.json"
    assert main(["stats", str(tmp_path / "w" / "window.txt"), "--seed", "9",
                 "--levels", "1,3,6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["census_match"] is True


def test_render_command(tmp_path, cfg):
    path = cfg("w.cfg", Z2_CFG)
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    out = tmp_path / "patch.pgm"
    assert main(["render", str(tmp_path / "w" / "window.txt"), "--out", str(out)]) == 0
    head = out.read_text().split("\n")[:2]
    assert head[0] == "P2" and head[1] == "32 32"


def test_strict_e_rule_key(tmp_path, cfg):
    path = cfg("w.cfg", FIBER_CFG.replace("kind = k", "kind = ktilde"))
    strict = cfg("s.cfg", FIBER_CFG.replace("kind = k", "kind = ktilde") + "e_rule = strict\n")
    main(["build", "--config", strict, "--out", str(tmp_path / "a")])
    main(["build", "--config", path, "--out", str(tmp_path / "b")])
    a = parse_window((tmp_path / "a" / "window.txt").read_text())
    b = parse_window((tmp_path / "b" / "window.txt").read_text())
    assert a.spec.e_rule == "strict" and b.spec.e_rule == "dovetail"
    assert main(["verify", str(tmp_path / "a" / "window.txt")]) == 0


def test_kind_and_cap_keys(tmp_path, cfg):
    path = cfg("w.cfg", as_perf(FIBER_CFG).replace("cap = 6", "cap = 4"))
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    win = parse_window((tmp_path / "w" / "window.txt").read_text())
    assert win.spec.kind == "perf" and win.cap == 4


@pytest.mark.parametrize("text", [HEIS_CFG, FIBER_CFG], ids=["heis-ktilde2", "z-fiber"])
def test_shifting_commands_close_no_cap_level(tmp_path, cfg, monkeypatch, text):
    # a parsed window reads its carry sets only when asked, and shifting a
    # patch multiplies level-cap heads, so these commands close no automaton
    from odowin.expansion import CarryAutomaton

    main(["build", "--config", cfg("w.cfg", text), "--out", str(tmp_path / "w")])
    win = str(tmp_path / "w" / "window.txt")
    closed = []
    init = CarryAutomaton.__init__

    def counted(self, ds, levels, prev):
        closed.append(levels)
        init(self, ds, levels, prev)

    monkeypatch.setattr(CarryAutomaton, "__init__", counted)
    out = str(tmp_path / "out")
    for argv, code in (
        (["emit", win, "--seed", "5"], 0),
        (["fiber", win, "--critical"], 0),
        (["stats", win, "--seed", "5"], 0),
        (["render", win], 2),  # only the plane group renders, after the shift
    ):
        assert main(argv + ["--out", out]) == code
        assert closed == []


def _mutable_integers(text: str) -> list[tuple[int, int]]:
    """Spans of the classes, k, the sector level, the sector entries and the puncture ranks."""
    spans = [m.span(1) for m in re.finditer(r"^(?:class|k|sector_level) = (\d+)$", text, re.M)]
    for m in re.finditer(r"^(?:sector_of_rank|level \d+) = (.*)$", text, re.M):
        spans += [(m.start(1) + d.start(), m.start(1) + d.end()) for d in re.finditer(r"\d+", m[1])]
    return spans


@pytest.fixture(scope="module")
def mutation_sources(w_kt, w_heis_kt2):
    return [serialize_window(w_kt[3]), serialize_window(w_heis_kt2)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_window_file_verifies_or_exits_two(tmp_path_factory, mutation_sources, data):
    # One integer of a serialized window changed.  A mutant that parses is another
    # valid window, not a fault: the reader keeps every value the file states (the
    # mutant serializes back to itself), and both routes classify it alike.  Any
    # mutant ends in an exit code.
    text = data.draw(st.sampled_from(mutation_sources))
    start, end = data.draw(st.sampled_from(_mutable_integers(text)))
    value = data.draw(st.integers(min_value=-1, max_value=max(8, 2 * int(text[start:end]))))
    mutant = text[:start] + str(value) + text[end:]
    path = tmp_path_factory.mktemp("mutant") / "window.txt"
    path.write_text(mutant)
    assert main(["verify", str(path)]) in (0, 1, 2)
    try:
        win = parse_window(mutant)
    except ConstructionError:
        return
    assert serialize_window(win) == mutant
    size = win.ds.size(win.cap)
    walk = [win.tree.classify_indices(r)[0] for r in range(size)]
    assert win.tree.vec_classify(np.arange(size)).tolist() == walk


# Per group: chain presets, and the largest modulus a drawn chain may reach, which keeps each
# domain and carry closure within tens of milliseconds.  heis-pow2 is left out: where its
# level 1 telescopes to modulus 16, closing that level takes seconds (16.7M transitions).
FUZZ_GROUPS = {"Z": (["z-carry", "z-pow2", "z-dec", "z-fiber"], 10_000),
               "Z2": (["z2-pow2"], 64), "Heisenberg": (["heis-window"], 16)}


@st.composite
def fuzz_configs(draw):
    """Config text over a drawn group, chain, kind, k, sector level, e_rule, delta or epsilon,
    and a.  The values are mostly ones a window can be built from; the rest describe none,
    and the build must say so on one line."""
    group = draw(st.sampled_from(sorted(FUZZ_GROUPS)))
    chain_presets, top = FUZZ_GROUPS[group]
    source = draw(st.sampled_from(["preset", "moduli", "rule"]))
    if source == "preset":
        chain = f"preset = {draw(st.sampled_from(chain_presets))}"
    else:
        base = draw(st.integers(2, 4))
        ratios = draw(st.lists(st.integers(2, 6), min_size=2, max_size=8))
        moduli = [base]
        for r in ratios:
            if moduli[-1] * r <= top:
                moduli.append(moduli[-1] * r)
        chain = (f"moduli = {','.join(map(str, moduli))}" if source == "moduli" else
                 f"rule = geometric\nbase = {base}\nratio = {ratios[0]}\nlength = {len(moduli)}")
    kind = draw(st.sampled_from(["perf", "k", "ktilde"]))
    cap = draw(st.integers(1, 4))
    window = {"kind": kind, "cap": cap}
    if kind != "perf":
        window["k"] = draw(st.sampled_from([1, 2, 3, 0]))
        window["sector_level"] = draw(st.integers(1, cap))
    if kind == "ktilde":
        rule = draw(st.sampled_from([None, "dovetail", "strict", "per-parent"]))
        if rule:
            window["e_rule"] = rule
    if draw(st.booleans()):
        window["delta"] = draw(st.sampled_from(["104", "60", "40", "20", "5/2", "0", "-1/2"]))
    else:
        window["epsilon"] = draw(st.sampled_from(["1/2", "1/10", "1/100", "9/10", "0", "3/2"]))
    a = draw(st.lists(st.sampled_from([3, 4, 3, 5, 2]), min_size=1, max_size=cap))
    window["a"] = ",".join(map(str, a if len(a) == cap else a[:1]))
    return (f"[group]\nname = {group}\n\n[chain]\n{chain}\n\n[window]\n"
            + "".join(f"{key} = {value}\n" for key, value in window.items()))


def _exit_and_errors(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=fuzz_configs())
def test_config_builds_a_verified_window_or_exits_two(tmp_path_factory, text):
    # Every config ends in a window that verifies, or in exit 2 with one line and no files;
    # each command on a built window exits 0 or 2, and its file reads back as itself.
    work = tmp_path_factory.mktemp("fuzz")
    (work / "w.cfg").write_text(text)
    out = work / "w"
    code, err = _exit_and_errors(["build", "--config", str(work / "w.cfg"), "--out", str(out)])
    if code == 2:
        assert len(err) == 1 and not out.exists(), (text, err)
        return
    assert code == 0, text
    window = out / "window.txt"
    assert _exit_and_errors(["verify", str(window)]) == (0, []), text
    for command in (["emit"], ["fiber", "--seed", "3"], ["stats", "--seed", "5"]):
        code, err = _exit_and_errors([command[0], str(window), *command[1:],
                                      "--out", str(work / command[0])])
        assert code == 0 or (code == 2 and len(err) == 1), (text, command, code, err)
    assert serialize_window(parse_window(window.read_text())) == window.read_text()


def test_bench_tracer_targets_exist(monkeypatch):
    # bench/tracing.py wraps library names by lookup; each one it names must exist
    from odowin import cli, odometer

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    originals = (cli.main, odometer.embed)
    tracer = tracing.Tracer()
    try:
        with tracer:
            assert (cli.main, odometer.embed) != originals
    finally:
        tracer.__exit__(None, None, None)  # also undoes an install that stopped part way
    assert (cli.main, odometer.embed) == originals
