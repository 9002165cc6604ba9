"""Build a window whose boundary carries most of the mass.

Each level's digit alphabet is split into interior / exterior / boundary
parts.  Asking for boundary mass at least 1 - epsilon = 1/2 forces the
builder to telescope the raw power-of-two chain: small levels cannot offer
enough carry-safe boundary digits, so consecutive raw levels are merged until
the exact per-level threshold holds.
"""

from fractions import Fraction

from odowin import (
    CLS_IN,
    CLS_PENDING,
    boundary_measure,
    build_perf,
    geometric_moduli,
    group_by_name,
    per_sets,
    regularity,
    verify_window,
)

win = build_perf(
    group_by_name("Z"),
    geometric_moduli(2, 2, 24),
    cap=3,
    epsilon=Fraction(1, 2),
)

print("== telescoping decisions ==")
for line in win.build_log:
    print(" ", line)

print("\n== the built window ==")
print("  chain used:", win.spec.moduli)
for n in range(1, win.cap + 1):
    codes = win.spec.partitions[n - 1]
    print(
        f"  level {n}: alphabet {len(codes)}, "
        f"interior {codes.count(CLS_IN)}, exterior 1, boundary {codes.count(CLS_PENDING)}"
    )

print("\n== exact measures ==")
for n in range(win.cap + 1):
    print(f"  boundary layer at level {n}: {boundary_measure(win, n)}")
print("  target: boundary mass >= 1/2 ->", boundary_measure(win, win.cap) >= Fraction(1, 2))

print("\n== periodicity ==")
for n in range(1, win.cap + 1):
    ps = per_sets(win, n)
    print(
        f"  level {n}: {len(ps.ones)} one-cosets, {len(ps.zeros)} zero-cosets, "
        f"{len(ps.unresolved)} unresolved; periodic share {regularity(win, n)}"
    )

print("\n== verification ==")
for rep in verify_window(win):
    print(f"  {rep.name}: {'PASS' if rep.passed else 'FAIL'}")
