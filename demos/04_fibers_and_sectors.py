"""Sector windows and the fiber structure over a boundary point.

Splitting the completion into k clopen sectors and retaining interior pieces
only on levels assigned to each sector's class turns the single species of
boundary point into k strictly ordered classes.  Over a shift whose orbit
hits all classes, the candidate arrays form a chain of exactly k+1 distinct
elements; puncturing one interior cylinder per designated level splits the
top class into incomparable singletons and the candidate set grows with the
patch.
"""

from odowin import presets
from odowin.fibers import birkhoff_stats, enumerate_fiber, similarity_classes
from odowin.odometer import sample_point
from odowin.windows import boundary_measure, build_k, build_ktilde

base = presets.build_preset_window("z-fiber")
k = 3
win = build_k(base, k, sector_level=1)
punctured = build_ktilde(win, "dovetail")

print("== the window family ==")
print("  chain:", win.spec.moduli, " boundary mass at cap:", boundary_measure(win, win.cap))
print("  level classes (which sector class each level feeds):", win.spec.level_class)
print("  punctured cylinders:", punctured.spec.punctures)

xi = sample_point(win.ds, 42, win.cap)
patch = win.ds.domain_list(win.cap)
rep = similarity_classes(win, xi, patch)
print("\n== boundary hitters of a random shift (seed 42) ==")
for j, cls in enumerate(rep.classes, start=1):
    print(f"  class S{j}: {cls}")

fib = enumerate_fiber(win, xi, patch)
print(f"\n== fiber candidates over the shift: {len(fib.candidates)} "
      f"(pairwise distinct: {fib.distinct()}) ==")
hitters = rep.hitters()
for c, label in enumerate(fib.labels):
    cand = fib.candidate(c)
    bits = "".join(str(cand.values[g]) for g in hitters)
    print(f"  {label}: values on hitters {bits}")

fibp = enumerate_fiber(punctured, xi, patch)
print(f"\n== punctured window: {len(fibp.candidates)} candidates "
      f"({punctured.spec.k + 1} thresholds + {len(fibp.report.classes[-1])} singletons) ==")

print("\n== exact candidate densities (orbit frequencies = cylinder census) ==")
stats = birkhoff_stats(win, xi, [2, 4, 6])
for n, row in stats.items():
    dens = " > ".join(str(d) for d in row["candidate_density"])
    print(f"  level {n}: {dens}   census match: {row['census_match']}")
