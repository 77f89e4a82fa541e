#!/usr/bin/env python3
"""Nerves of finite categories and the strictness of their comparison maps.

A category determines a presheaf whose level p holds composable p-chains;
the comparison (Segal) maps into iterated fiber products are bijections, and
the category can be recovered from levels up to 3.
"""

from precats import (FiniteCategory, Window, category_from_nerve, delooping,
                     discrete, nerve, object_of, segal_check, PointedPrecat)

I = FiniteCategory.interval()          # two objects, one arrow
Ibar = FiniteCategory.iso_interval()   # two objects, one isomorphism

NI = nerve(I, 1)
print("interval nerve level counts:",
      [NI.size(object_of(1, [p])) for p in (1, 2, 3)])

NIb = nerve(Ibar, 1)
print("contractible-pair nerve at (1):", NIb.size(object_of(1, [1])))

# Comparison maps are bijections for every nerve.
print("interval nerve strict?", segal_check(NI, Window(4)).strict)

# Round trip: objects, arrows, composition recovered from the nerve alone.
C = category_from_nerve(NIb)
print("recovered:", len(C.objects), "objects,", len(C.arrows), "arrows")

# A genuinely weak example: the wedge delooping of two points has 3 cells
# where the fiber product wants 4, so it is not the nerve of anything.
X = delooping(PointedPrecat(discrete(1, (0, 1)), 0))
report = segal_check(X, Window(2))
for entry in report.failures():
    print(f"not strict at {entry.level.entries}: "
          f"{entry.source_size} cells vs {entry.target_size} tuples")
