#!/usr/bin/env python3
"""Tour of the index site: objects, morphism normal forms, composition.

An object is a tuple of positive integers (length at most the ambient
dimension); trailing data past a zero collapses away.  A morphism stores
monotone components up to and including its first constant one.
"""

from precats import (compose, enumerate_morphisms, identity,
                     normalize_morphism, object_of, segal_faces)

# Objects normalize themselves: a zero truncates everything after it.
print("object (2,1) in dimension 2:  ", object_of(2, [2, 1]))
print("object (1,0,2) in dimension 3:", object_of(3, [1, 0, 2]))
print("the length-0 object:          ", object_of(2, []))

# In dimension 1 the site is the simplex category: three self-maps of [1].
a = object_of(1, [1])
for f in enumerate_morphisms(a, a):
    print("self-map of [1]:", f)

# The two constant maps stay distinct: their collapse value matters.
c0 = normalize_morphism(a, a, [(0, 0)])
c1 = normalize_morphism(a, a, [(1, 1)])
print("const0 == const1?", c0 == c1)

# In dimension 2, everything after the first constant component is
# discarded: these two lifts name the same morphism.
m = object_of(3, [1, 1, 1])
f = normalize_morphism(m, m, [(0, 1), (0, 0), (0, 1)])
g = normalize_morphism(m, m, [(0, 1), (0, 0), (1, 1)])
print("lifts agree after normalization?", f == g, "->", f)

# Hom counts: 4 classes from (1) to (1,1), two of which remember which
# endpoint of the second direction they pick.
s, t = object_of(2, [1]), object_of(2, [1, 1])
print("morphisms (1) -> (1,1):")
for h in enumerate_morphisms(s, t):
    print("   ", h)

# Composition is computed on lifts and renormalized; identities are units.
h = enumerate_morphisms(s, t)[1]
print("compose with identity:", compose(h, identity(s)) == h)

# The spine family: the p maps picking out consecutive edges of a chain.
for face in segal_faces(object_of(1, [3])):
    print("spine map into (3):", face)
