"""Command-line front end: build, verify, emit, fiber, stats, render.

Configuration is flat key = value text (INI sections); exact rationals are
written ``p/q``.  Every sampled quantity requires an explicit seed, and
identical configurations produce byte-identical artifacts.

Exit codes: 0 all pass, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from fractions import Fraction
from pathlib import Path

from .expansion import carry_ranges
from .fibers import (
    birkhoff_stats,
    boundary_hitters_exact,
    coverage_fraction,
    critical_point,
    enumerate_fiber,
    similarity_classes,
)
from .groups import ConstructionError, group_by_name, geometric_moduli
from .model_sets import emit_patch, patch_jsonl, patch_pgm
from .odometer import embed, sample_point
from .presets import CHAINS
from .windows import (
    Window,
    base_window,
    boundary_measure,
    build_k,
    build_ktilde,
    build_perf,
    folner_ratio,
    parse_window,
    serialize_window,
    verify_window,
)


class ConfigError(ValueError):
    pass


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _jsonable(x):
    if isinstance(x, Fraction):
        return _fraction_str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    import numpy as np

    if isinstance(x, np.integer):
        return int(x)
    return x


def load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    return cfg


def window_from_config(cfg: configparser.ConfigParser, args) -> Window:
    try:
        group = group_by_name(cfg.get("group", "name", fallback="Z"))
    except ConstructionError as exc:
        raise ConfigError(str(exc))
    if cfg.has_option("chain", "preset"):
        preset = cfg.get("chain", "preset")
        if preset not in CHAINS:
            raise ConfigError(f"unknown chain preset {preset!r}")
        group = group_by_name(CHAINS[preset][0])
        moduli = list(CHAINS[preset][1])
    elif cfg.has_option("chain", "moduli"):
        moduli = [int(m) for m in cfg.get("chain", "moduli").split(",")]
    elif cfg.has_option("chain", "rule"):
        if cfg.get("chain", "rule") != "geometric":
            raise ConfigError("only the geometric chain rule is shipped")
        moduli = geometric_moduli(
            cfg.getint("chain", "base"),
            cfg.getint("chain", "ratio"),
            cfg.getint("chain", "length"),
        )
    else:
        raise ConfigError("chain section needs preset, moduli, or rule")

    kind = args.mode or cfg.get("window", "kind", fallback="perf")
    if kind not in ("perf", "k", "ktilde"):
        raise ConfigError(f"window kind must be perf, k, or ktilde (got {kind!r})")
    cap = args.cap or cfg.getint("window", "cap", fallback=3)
    sector_level = cfg.getint("window", "sector_level", fallback=1)
    k = cfg.getint("window", "k", fallback=1)
    if not cap >= sector_level >= 1:
        raise ConfigError(f"need cap >= sector_level >= 1 (cap={cap}, L={sector_level})")
    parts = [int(v) for v in cfg.get("window", "a", fallback="3").split(",")]
    a_schedule = parts * cap if len(parts) == 1 else parts
    if any(a < 3 for a in a_schedule[:cap]):
        raise ConfigError("every a_n must be at least 3 (two interior digits survive)")
    epsilon = delta = None
    if cfg.has_option("window", "epsilon"):
        epsilon = _parse_fraction(cfg.get("window", "epsilon"))
        if not 0 < epsilon < 1:
            raise ConfigError(f"epsilon must lie in (0,1), got {epsilon}")
    if cfg.has_option("window", "delta"):
        delta = _parse_fraction(cfg.get("window", "delta"))
    if epsilon is None and delta is None:
        raise ConfigError("window section needs epsilon or delta")
    e_rule = cfg.get("window", "e_rule", fallback="dovetail")
    if getattr(args, "strict_e_rule", False):
        e_rule = "strict"

    try:
        win = build_perf(group, moduli, cap, a_schedule, epsilon=epsilon, delta=delta)
        if kind != "perf":
            win = build_k(win, k, sector_level)
        if kind == "ktilde":
            win = build_ktilde(win, e_rule)
    except ConstructionError as exc:
        raise ConfigError(str(exc))
    return win


def _load_window(path: str) -> Window:
    try:
        return parse_window(Path(path).read_text())
    except (OSError, ConstructionError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot parse window file {path}: {exc}")


def _write(path: Path, data: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    win = window_from_config(cfg, args)
    out = Path(args.out or "window-out")
    _write(out / "window.txt", serialize_window(win))
    report = {
        "kind": win.spec.kind,
        "group": win.spec.group_name,
        "moduli": list(win.spec.moduli),
        "levels": {
            n: {
                "alphabet": len(win.ds.alphabet(n)),
                "interior": len(win.spec.partitions[n - 1].interior),
                "exterior": 1,
                "boundary": len(win.spec.partitions[n - 1].boundary),
                "boundary_layer_measure": boundary_measure(win, n),
                "folner_ratio": folner_ratio(win.ds, win.carries.level(n), n),
            }
            for n in range(1, win.cap + 1)
        },
        "telescoping": win.build_log,
    }
    _write(out / "build_report.json", json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    print(f"window written to {out / 'window.txt'}")
    for n in range(1, win.cap + 1):
        print(f"  level {n}: boundary layer measure {boundary_measure(win, n)}")
    return 0


def _verify(win: Window) -> tuple[int, list[str]]:
    base = None if win.spec.kind == "perf" else base_window(win)
    reports = verify_window(win, base=base)
    lines, ok = [], True
    for r in reports:
        ok &= r.passed
        lines.append(f"{r.name}: {'PASS' if r.passed else 'FAIL'}")
        lines.extend(f"  {l}" for l in r.lines)
    return (0 if ok else 1), lines


def cmd_verify(args) -> int:
    win = _load_window(args.window)
    code, lines = _verify(win)
    print("\n".join(lines))
    return code


def _shift_point(win: Window, args):
    if args.seed is not None:
        return sample_point(win.ds, args.seed, win.cap)
    if getattr(args, "critical", False):
        return critical_point(win)
    return embed(win.ds, win.group.identity, win.cap)


def cmd_emit(args) -> int:
    win = _load_window(args.window)
    xi = _shift_point(win, args)
    level = args.patch_level if args.patch_level is not None else win.cap - 1
    patch = emit_patch(win, xi, patch_level=level)
    text = patch_jsonl(win, patch)
    if args.out:
        _write(Path(args.out), text)
        print(f"patch written to {args.out} ({len(patch.positions)} positions, "
              f"{len(patch.undecided())} undecided)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_render(args) -> int:
    win = _load_window(args.window)
    xi = _shift_point(win, args)
    level = args.patch_level if args.patch_level is not None else win.cap
    patch = emit_patch(win, xi, patch_level=level)
    data = patch_pgm(win, patch, level)
    out = Path(args.out or "patch.pgm")
    _write(out, data)
    print(f"image written to {out}")
    return 0


def cmd_fiber(args) -> int:
    win = _load_window(args.window)
    if args.seed is None and not args.critical:
        raise ConfigError("fiber analysis needs --seed or --critical")
    xi = _shift_point(win, args)
    level = args.patch_level if args.patch_level is not None else win.cap
    patch = win.ds.domain_list(level)
    fib = enumerate_fiber(win, xi, patch)
    distinct = fib.distinct()
    rep = fib.report
    g = win.group
    report = {
        "window": win.window_id,
        "shift_digits": [g.fmt(d) for d in xi.digits],
        "patch_level": level,
        "classes": {
            f"S{j + 1}": [g.fmt(e) for e in cls] for j, cls in enumerate(rep.classes)
        },
        "full_coverage": rep.full_coverage(),
        "candidates": len(fib.candidates),
        "distinct": distinct,
        "labels": fib.labels,
        "values_on_hitters": {
            label: {g.fmt(h): cand.values[h] for h in rep.hitters()}
            for label, cand in zip(fib.labels, fib.candidates)
        },
    }
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(Path(args.out), text)
        print(f"fiber report written to {args.out} "
              f"({len(fib.candidates)} candidates, {distinct} distinct)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    win = _load_window(args.window)
    xi = _shift_point(win, args)
    levels = (
        [int(v) for v in args.levels.split(",")]
        if args.levels
        else list(range(1, win.cap + 1))
    )
    stats = birkhoff_stats(win, xi, levels)
    ok = all(row["census_match"] for row in stats.values())
    report = {"window": win.window_id, "levels": stats, "census_match": ok}
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write(Path(args.out), text)
        print(f"stats written to {args.out} (census match: {ok})")
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="odowin",
        description="Build and analyze cylinder-tree windows and their symbolic arrays.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a window from a config file")
    b.add_argument("--config", required=True)
    b.add_argument("--out")
    b.add_argument("--cap", type=int)
    b.add_argument("--seed", type=int)
    b.add_argument("--mode", choices=["perf", "k", "ktilde"])
    b.add_argument("--strict-e-rule", action="store_true")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="verify a window file")
    v.add_argument("window")
    v.set_defaults(func=cmd_verify)

    for name, fn in (("emit", cmd_emit), ("render", cmd_render),
                     ("fiber", cmd_fiber), ("stats", cmd_stats)):
        p = sub.add_parser(name)
        p.add_argument("window")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--critical", action="store_true",
                       help="use the canonical boundary point as the shift")
        p.add_argument("--patch-level", type=int)
        if name == "stats":
            p.add_argument("--levels")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
