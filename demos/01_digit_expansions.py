"""Digit expansions with carries, from decimal integers to the Heisenberg group.

Every element of the integers splits along the chain 10Z > 100Z > 1000Z into
scaled decimal digits.  The same machinery runs over any congruence chain in
any of the shipped groups; products are computed digit by digit through a
carry recursion that never multiplies the factors directly.
"""

from odowin import carry_mul, carry_ranges, presets, reconstruct

ds = presets.domains("z-dec", 3)

print("== decimal digits ==")
for g in (7, 23, 235, 999):
    d = ds.digits(g)
    print(f"  {g} = {' · '.join(str(c) for c in d)}   (depth {len(d) - 1})")
print("  decompose(23, level 1) ->", ds.decompose(23, 1))
print("  decompose(-1, level 1) ->", ds.decompose(-1, 1), " (head 9, tail -10)")

print("\n== carries in the chain 2 | 4 | 8 ==")
ds2 = presets.domains("z-pow2", 4)
dg, dh = ds2.digits(3), ds2.digits(1)
print(f"  digits of 3: {dg}, digits of 1: {dh}")
for n in (1, 2, 3):
    prefix, carry = carry_mul(ds2, dg, dh, n)
    print(f"  product digits to level {n}: {prefix}, carry entering level {n+1}: {carry}")
print("  carry value sets:", carry_ranges(ds2, 4).sets)

print("\n== noncommutative carries (Heisenberg group) ==")
H = presets.chain("heis-pow2").group
dsh = presets.domains("heis-pow2", 4)
a, b = (1, 1, 0), (0, 1, 1)
prefix, carry = carry_mul(dsh, dsh.digit_prefix(a, 3), dsh.digit_prefix(b, 3), 3)
print(f"  {a} · {b} = {H.mul(a, b)}")
print(f"  via digits: prefix {prefix}, carry {carry}")
print("  reconstruction:", reconstruct(dsh, prefix, carry))
rng = carry_ranges(dsh, 3)
print("  carry sets per level:", [len(s) for s in rng.sets], "values at level 3:", rng.sets[2])
wit = rng.witnesses[2]
some_carry = next(c for c in rng.sets[2] if c != H.identity)
print(f"  witness digits realizing carry {some_carry}:", wit[some_carry])
