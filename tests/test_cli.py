"""Command-line behavior: determinism, round trips, exit codes."""

import json
from pathlib import Path

import pytest

from odowin.cli import main
from odowin.windows import parse_window, serialize_window

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
    # per-parent punctures break the one-excluded-child certificates
    path = cfg("w.cfg", FIBER_CFG.replace("kind = k", "kind = ktilde") + "e_rule = per-parent\n")
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    assert main(["verify", str(tmp_path / "w" / "window.txt")]) == 1


def test_verify_fails_on_corrupted_boundary_digits(tmp_path, cfg):
    # hand-corrupt the window file: swap the carry-unsafe top digit into the
    # boundary part at level 2; the carry-safety check must fail
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
    lines[interior] = "interior = " + ";".join(ints)
    lines[boundary] = "boundary = " + ";".join(bnds)
    wfile.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(wfile)]) == 1


def test_config_errors_exit_two(tmp_path, cfg):
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


def test_malformed_window_exits_two(tmp_path, malformed_windows):
    for label, text in malformed_windows.items():
        path = tmp_path / f"{label}.txt"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2, label


def test_emit_identity_no_undecided(tmp_path, cfg):
    path = cfg("w.cfg", IRR_CFG)
    main(["build", "--config", path, "--out", str(tmp_path / "w")])
    out = tmp_path / "patch.jsonl"
    assert main(["emit", str(tmp_path / "w" / "window.txt"), "--out", str(out)]) == 0
    values = [json.loads(line)["value"] for line in out.read_text().splitlines()]
    assert "?" not in values


def test_fiber_command_counts(tmp_path, cfg):
    # a perf window with a critical shift has exactly two candidates
    path = cfg("w.cfg", FIBER_CFG.replace("kind = k", "kind = perf"))
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


def test_strict_e_rule_flag(tmp_path, cfg):
    path = cfg("w.cfg", FIBER_CFG.replace("kind = k", "kind = ktilde"))
    main(["build", "--config", path, "--out", str(tmp_path / "a"), "--strict-e-rule"])
    main(["build", "--config", path, "--out", str(tmp_path / "b")])
    a = parse_window((tmp_path / "a" / "window.txt").read_text())
    b = parse_window((tmp_path / "b" / "window.txt").read_text())
    assert a.spec.e_rule == "strict" and b.spec.e_rule == "dovetail"
    assert main(["verify", str(tmp_path / "a" / "window.txt")]) == 0


def test_mode_and_cap_overrides(tmp_path, cfg):
    path = cfg("w.cfg", FIBER_CFG)
    main(["build", "--config", path, "--out", str(tmp_path / "w"),
          "--mode", "perf", "--cap", "4"])
    win = parse_window((tmp_path / "w" / "window.txt").read_text())
    assert win.spec.kind == "perf" and win.cap == 4
