"""Command-line front end: build, verify, emit, fiber, stats, render.

Configuration is flat key = value text (INI sections); exact rationals are
written ``p/q``.  Every sampled quantity requires an explicit seed, and
identical configurations produce byte-identical artifacts.

Exit codes: 0 all pass (also when the reader closes stdout early), 1 verification
failure, 2 configuration error or an unwritable output.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import expansion
from .fibers import birkhoff_stats, critical_point, enumerate_fiber
from .groups import (ConstructionError, const_text, group_by_name, geometric_moduli,
                     join_rows, ljust, str_text)
from .model_sets import VALUE_OF_CODE, emit_patch, jsonl_blocks, patch_pgm
from .odometer import embed, sample_point
from .presets import CHAINS
from .windows import (
    CLS_IN,
    CLS_PENDING,
    Window,
    boundary_measure,
    build_kind,
    build_perf,
    check_kind,
    folner_ratio,
    parse_window,
    serialize_window,
    verify_window,
)


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors (exit 2, one line)."""

    def error(self, message):
        raise ConfigError(message)


def _fraction(text: str) -> Fraction:
    num, slash, den = text.partition("/")
    return Fraction(int(num), int(den) if slash else 1)


def _number(text: str, parse=int):
    """A config or flag value parsed as an integer (or by ``parse``); else a ConfigError."""
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"not a number: {text.strip()!r}") from None
    except ZeroDivisionError:
        raise ConfigError(f"zero denominator in {text.strip()!r}") from None


def _numbers(text: str) -> list[int]:
    return [_number(v) for v in text.split(",")]


def _text(text: str) -> str:
    """An ``--out`` or ``--levels`` value, which an empty string is not: it would read as none."""
    if not text:
        raise argparse.ArgumentTypeError("empty value")
    return text


def _rows_layout(depth: int, brackets: str,
                 *columns: tuple[np.ndarray, np.ndarray]) -> Iterator[str]:
    """Pieces of a list (or dict) in the layout ``json.dumps(indent=2)`` gives it at this
    depth, one per ``WRITE_BLOCK`` items.  Each column is a text table and its row index
    per item; an item's encoded text (``"key": value`` in a dict) is its rows side by side."""
    pad = "\n" + "  " * (depth + 1)
    size, block = len(columns[0][1]), expansion.WRITE_BLOCK
    for s in range(0, size, block):
        text = join_rows(const_text("," + pad, min(block, size - s)),
                         *(table.take(index[s : s + block], axis=0) for table, index in columns))
        yield brackets[0] + text[1:] if s == 0 else text
    yield "\n" + "  " * depth + brackets[1] if size else brackets


def _quoted(table: np.ndarray) -> np.ndarray:
    """JSON strings of the table's texts (which need no escapes), left-justified."""
    quote = const_text('"', len(table))
    return ljust(np.concatenate([quote, table, quote], axis=1))


def _object(encoded: dict[str, str | Iterable[str]], depth: int) -> Iterator[str]:
    """Pieces of a dict of encoded values, each one str or an iterable of pieces, as
    ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    pad = "\n" + "  " * (depth + 1)
    for i, key in enumerate(sorted(encoded)):
        yield f"{',' if i else '{'}{pad}{encode_basestring_ascii(key)}: "
        value = encoded[key]
        yield from (value,) if isinstance(value, str) else value
    yield "\n" + "  " * depth + "}" if encoded else "{}"


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def load_config(path: str) -> configparser.ConfigParser:
    """A config file, read strictly and without interpolation.

    Keys keep their case.  A repeated section, a repeated key in one section,
    or a line that is not ``key = value`` raises a :class:`configparser.Error`.
    No section header can spell the default section's name, so ``[DEFAULT]``
    is an ordinary section and passes its keys to no other.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        raise ConfigError(f"cannot read config file {path}") from None
    ini = configparser.ConfigParser(interpolation=None, default_section="")
    ini.optionxform = str  # keys are case-sensitive: ``CAP`` is not ``cap``
    ini.read_string(text, path)
    return ini


def refuse_unread(cfg: configparser.ConfigParser, read: Mapping[str, set[str]],
                  reader: str) -> None:
    """Raise on a section that ``read`` lacks or a key its set lacks."""
    for name in cfg.sections():
        if name not in read:
            raise ConfigError(f"{reader} reads no section [{name}]")
        unread = sorted(set(cfg[name]) - read[name])
        if unread:
            raise ConfigError(f"{reader} reads no key {unread[0]!r} in [{name}]")


def window_from_config(cfg: configparser.ConfigParser) -> Window:
    sources = [key for key in ("preset", "moduli", "rule") if cfg.has_option("chain", key)]
    if len(sources) > 1:
        raise ConfigError(f"[chain] names {' and '.join(sources)}; give one")
    kind = cfg.get("window", "kind", fallback="perf")
    try:
        check_kind(kind)  # before the base window is built
    except ConstructionError as exc:
        raise ConfigError(str(exc))
    # A config builds what it states: no section or key goes unread.
    refuse_unread(cfg, {
        "group": {"name"},
        "chain": {*sources, *(("base", "ratio", "length") if sources == ["rule"] else ())},
        "window": {"kind", "cap", "a", "epsilon", "delta",
                   *(("k", "sector_level") if kind != "perf" else ()),
                   *(("e_rule",) if kind == "ktilde" else ())},
    }, f"a {kind} build")
    try:
        group = group_by_name(cfg.get("group", "name", fallback="Z"))
    except ConstructionError as exc:
        raise ConfigError(str(exc))
    if cfg.has_option("chain", "preset"):
        preset = cfg.get("chain", "preset")
        if preset not in CHAINS:
            raise ConfigError(f"unknown chain preset {preset!r}")
        name, moduli = CHAINS[preset]
        if cfg.has_option("group", "name") and group.name != name:
            raise ConfigError(
                f"chain preset {preset!r} is over {name}, but [group] name is {group.name}"
            )
        group = group_by_name(name)
        moduli = list(moduli)
    elif cfg.has_option("chain", "moduli"):
        moduli = _numbers(cfg.get("chain", "moduli"))
    elif cfg.has_option("chain", "rule"):
        if cfg.get("chain", "rule") != "geometric":
            raise ConfigError("only the geometric chain rule is shipped")
        moduli = geometric_moduli(
            *(_number(cfg.get("chain", key)) for key in ("base", "ratio", "length"))
        )
    else:
        raise ConfigError("chain section needs preset, moduli, or rule")

    cap = _number(cfg.get("window", "cap", fallback="3"))
    sector_level = _number(cfg.get("window", "sector_level", fallback="1"))
    k = _number(cfg.get("window", "k", fallback="1"))
    if kind == "perf" and cap < 1:
        raise ConfigError(f"need cap >= 1 (cap={cap})")
    if kind != "perf" and not cap >= sector_level >= 1:
        raise ConfigError(f"need cap >= sector_level >= 1 (cap={cap}, L={sector_level})")
    e_rule = cfg.get("window", "e_rule", fallback="dovetail")
    if e_rule == "per-parent":
        raise ConfigError("e_rule per-parent breaks the irredundancy certificate, so build "
                          "refuses it; use dovetail or strict")
    a = _numbers(cfg.get("window", "a", fallback="3"))
    epsilon, delta = (
        _number(cfg.get("window", key), _fraction) if cfg.has_option("window", key) else None
        for key in ("epsilon", "delta")
    )
    try:
        win = build_perf(group, moduli, cap, a[0] if len(a) == 1 else a,
                         epsilon=epsilon, delta=delta)
        return build_kind(win, kind, k, sector_level, e_rule)
    except ConstructionError as exc:
        raise ConfigError(str(exc))


def _load_window(path: str) -> Window:
    try:
        return parse_window(Path(path).read_text())
    except (OSError, ConstructionError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot parse window file {path}: {exc}")


def _write(out: str | Path | None, pieces: Iterable[str]) -> None:
    """Write the pieces to the file ``out``, making its parent directories, or to stdout.

    A text stream encodes each write whole, so a long piece is written in slices.
    """
    def put(stream):
        for piece in pieces:
            for i in range(0, len(piece), 1 << 16):
                stream.write(piece[i : i + (1 << 16)])

    if out is None:
        return put(sys.stdout)
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as f:
            put(f)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from None


def _folner_entry(win: Window, n: int) -> dict:
    """The level's van Hove ratio, or null with the rows and bytes its product would take
    where |K_n|·size(n) rows are over the array budget."""
    carries = win.carries.rows[n - 1]
    rows = len(carries) * win.ds.size(n)
    nbytes = expansion.over_budget(rows, win.group.dim)
    if nbytes:
        return {"folner_ratio": None, "folner_product_rows": rows, "folner_product_bytes": nbytes}
    return {"folner_ratio": folner_ratio(win.ds, carries, n)}


def cmd_build(args) -> int:
    try:
        win = window_from_config(load_config(args.config))
    except configparser.Error as exc:
        raise ConfigError(f"config file {args.config}: {' '.join(str(exc).split())}")
    report = {
        "kind": win.spec.kind,
        "group": win.spec.group_name,
        "moduli": list(win.spec.moduli),
        "levels": {
            n: {
                "alphabet": len(win.ds.alphabet_rows(n)),
                "interior": win.spec.partitions[n - 1].count(CLS_IN),
                "exterior": 1,
                "boundary": win.spec.partitions[n - 1].count(CLS_PENDING),
                "boundary_layer_measure": boundary_measure(win, n),
                **_folner_entry(win, n),
            }
            for n in range(1, win.cap + 1)
        },
        "telescoping": win.build_log,
    }
    # The report is complete before either file is written: a refused level writes nothing.
    out = Path(args.out or "window-out")
    _write(out / "window.txt", [serialize_window(win)])
    _write(out / "build_report.json", [json.dumps(_jsonable(report), indent=2, sort_keys=True), "\n"])
    print(f"window written to {out / 'window.txt'}")
    for n in range(1, win.cap + 1):
        print(f"  level {n}: boundary layer measure {boundary_measure(win, n)}")
    return 0


def cmd_verify(args) -> int:
    lines, ok = [], True
    for r in verify_window(_load_window(args.window)):
        ok &= r.passed
        lines.append(f"{r.name}: {'PASS' if r.passed else 'FAIL'}")
        lines.extend(f"  {l}" for l in r.lines)
    print("\n".join(lines))
    return 0 if ok else 1


def _shift_point(win: Window, args):
    if args.seed is not None and args.critical:
        raise ConfigError("--seed and --critical each choose the shift; give one")
    if args.seed is not None:
        return sample_point(win.ds, args.seed, win.cap)
    if args.critical:
        return critical_point(win)
    return embed(win.ds, win.group.identity, win.cap)


def cmd_emit(args) -> int:
    win = _load_window(args.window)
    xi = _shift_point(win, args)
    level = args.patch_level if args.patch_level is not None else win.cap - 1
    patch = emit_patch(win, xi, patch_level=level)
    _write(args.out, jsonl_blocks(win, patch))
    if args.out:
        print(f"patch written to {args.out} ({len(patch.ranks)} positions, "
              f"{np.count_nonzero(patch.codes == CLS_PENDING)} undecided)")
    return 0


def cmd_render(args) -> int:
    win = _load_window(args.window)
    xi = _shift_point(win, args)
    level = args.patch_level if args.patch_level is not None else win.cap
    patch = emit_patch(win, xi, patch_level=level)
    out = args.out or "patch.pgm"
    _write(out, [patch_pgm(win, patch, level).decode()])
    print(f"image written to {out}")
    return 0


def cmd_fiber(args) -> int:
    win = _load_window(args.window)
    if args.seed is None and not args.critical:
        raise ConfigError("fiber analysis needs --seed or --critical")
    xi = _shift_point(win, args)
    level = args.patch_level if args.patch_level is not None else win.cap
    fib = enumerate_fiber(win, xi, patch_level=level)
    distinct = fib.distinct()
    g = win.group
    # Written by hand in the json.dumps(indent=2, sort_keys=True) layout, whose pure-Python
    # encoder would take most of the command, and streamed in blocks from text tables.  The
    # hitters are formatted once, in report order: a class is a range of rows, and the keys
    # are sorted once for all candidates.  Left-justified, the quoted texts sort as their
    # bytes; the quote sorts below every character of an element's text, so that is the
    # order sort_keys gives the keys.
    hitters = _quoted(g.row_text(fib.patch.rows[fib.hitters]))
    order = np.argsort(hitters.view(f"S{hitters.shape[1]}").ravel(), kind="stable")
    keys = np.concatenate([hitters, const_text(": ", len(hitters))], axis=1)
    bounds = fib.report.bounds
    # Class codes are 0, 1, 2, so a code is its value's row.
    value = str_text([json.dumps(v) for _, v in sorted(VALUE_OF_CODE.items())])
    shift = enumerate(win.ds.radix_digits(xi.rank, xi.precision), start=1)
    digits = _quoted(g.row_text(np.stack([win.ds.alphabet_rows(j)[i] for j, i in shift])))
    report = {
        "window": json.dumps(win.window_id),
        "shift_digits": _rows_layout(1, "[]", (digits, np.arange(len(digits)))),
        "patch_level": json.dumps(level),
        "classes": _object({
            f"S{j}": _rows_layout(2, "[]", (hitters, np.arange(a, b)))
            for j, (a, b) in enumerate(zip(bounds, bounds[1:]), start=1)
        }, 1),
        "full_coverage": json.dumps(fib.report.full_coverage()),
        "candidates": json.dumps(len(fib.candidates)),
        "distinct": json.dumps(distinct),
        "labels": _rows_layout(1, "[]", (str_text(list(map(encode_basestring_ascii, fib.labels))),
                                    np.arange(len(fib.labels)))),
        "values_on_hitters": _object({
            label: _rows_layout(2, "{}", (keys, order), (value, row))
            for label, row in zip(fib.labels, fib.candidates[:, order])
        }, 1),
    }
    _write(args.out, itertools.chain(_object(report, 0), ["\n"]))
    if args.out:
        print(f"fiber report written to {args.out} "
              f"({len(fib.candidates)} candidates, {distinct} distinct)")
    return 0


def cmd_stats(args) -> int:
    win = _load_window(args.window)
    xi = _shift_point(win, args)
    levels = _numbers(args.levels) if args.levels else list(range(1, win.cap + 1))
    if len(set(levels)) < len(levels):
        raise ConfigError(f"--levels {args.levels} names a level twice")
    stats = birkhoff_stats(win, xi, levels)
    ok = all(row["census_match"] for row in stats.values())
    report = {"window": win.window_id, "levels": stats, "census_match": ok}
    _write(args.out, [json.dumps(_jsonable(report), indent=2, sort_keys=True), "\n"])
    if args.out:
        print(f"stats written to {args.out} (census match: {ok})")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; ``main`` dispatches on the command name."""
    ap = _Parser(
        prog="odowin",
        description="Build and analyze cylinder-tree windows and their symbolic arrays.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a window from a config file")
    b.add_argument("--config", required=True)
    b.add_argument("--out", type=_text)

    v = sub.add_parser("verify", help="verify a window file")
    v.add_argument("window")

    for name in ("emit", "render", "fiber", "stats"):
        p = sub.add_parser(name)
        p.add_argument("window")
        p.add_argument("--out", type=_text)
        p.add_argument("--seed", type=int)
        p.add_argument("--critical", action="store_true",
                       help="use the canonical boundary point as the shift")
        if name == "stats":
            p.add_argument("--levels", type=_text)
        else:
            p.add_argument("--patch-level", type=int)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Looked up at call time, so a wrapper installed on a command is the one called.
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # so a failing stdout fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Every file a command names reports its own failure, so this is stdout's.  Its
        # unwritten text goes to the null device, not to a second failure at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0  # the reader closed the pipe and keeps what it read
        print(f"cannot write to stdout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
