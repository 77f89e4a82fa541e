#!/usr/bin/env python3
"""The Whitehead operation, monoidal towers, truncation and connectivity.

The Whitehead operation keeps only cells whose low-dimensional restrictions
are degeneracies of a base point.  A commutative monoid deloops k times into
a tower that is a point below level k; truncation recovers the monoid and
connectivity holds by construction.
"""

from precats import (FiniteCategory, Window, category_from_nerve, ck_monoidal,
                     hom_precat, is_k_connected, nerve, object_of, tau_zero,
                     truncate, whitehead, z2_monoid)

W2 = Window(2)

# The order-2 group delooped once: one object, 2^p chains at level p.
c1 = ck_monoidal(z2_monoid(), 1)
print("tower levels:", [c1.size(object_of(1, [p])) for p in (1, 2, 3)])

# Truncating to dimension 1 and reading the category recovers the monoid.
C = category_from_nerve(truncate(c1, 1))
print("recovered one object and", len(C.arrows), "arrows")

# Delooped twice: a point below length 2, grids of values above.
c2 = ck_monoidal(z2_monoid(), 2)
print("double tower at (2,) and (2,2):",
      c2.size(object_of(2, [2])), c2.size(object_of(2, [2, 2])))
print("0-connected?", is_k_connected(c2, 0))
print("1-connected?", is_k_connected(c2, 1))

# Whitehead: the full subobject at one object of the contractible pair.
A = nerve(FiniteCategory.iso_interval(), 2)
Wh, incl = whitehead(A, 0, 0)
print("levels of the cut-down nerve:",
      {M.entries: Wh.size(M) for M in W2.objects(2)})
print("endomorphisms preserved?",
      hom_precat(Wh, 1, (0, 0)).cells(object_of(1, [])) ==
      hom_precat(A, 1, (0, 0)).cells(object_of(1, [])))

# Objects up to equivalence: the contractible pair has one class.
print("object classes of the contractible pair:",
      len(tau_zero(nerve(FiniteCategory.iso_interval(), 1))))
print("object classes of the interval:",
      len(tau_zero(nerve(FiniteCategory.interval(), 1))))
