"""The index site of iterated simplicial directions.

Objects are tuples of positive integers of length at most the ambient
dimension ``n`` (the empty tuple is the unique length-0 object).  They arise
as equivalence classes of objects of the n-fold product of the simplex
category: a tuple is padded with zeros up to length ``n``, and everything
past the first zero is quotiented away.

Morphisms are equivalence classes of componentwise monotone maps between
padded objects.  The stored normal form keeps components up to and including
the *first constant* component (its constant value matters) and discards
everything after it.  This is the unique reading of the quotient under which
presheaves for ``n = 1`` are exactly simplicial sets: the two constant
self-maps of ``{0,1}`` stay distinct.

Objects and morphisms are hash-consed (Filliâtre & Conchon 2006): equal
forms are identical, kept in per-class tables for the whole process, and
every form is built through its class's table (``copy``, ``deepcopy`` and
``pickle`` too), so no second form of one content exists.  A form therefore
hashes by identity (``object.__hash__``), and a table lookup keyed by forms
runs no Python frame; ordering and repr stay content-based.  Each form keeps
its own surgery results, filled on first use: an object its ``tail_object``,
``collapse_to_zero`` and ``identity``, a morphism its ``tail_morphism``.
``prepend_prefix`` keeps nothing: each slice's table keeps its own
position lists.  ``truncated`` keeps each form's truncation per depth.  A well-formed component is validated by one comparison;
only a rejected one runs the checks that name its fault.

Forms come in two ways.  ``ThetaObject(...)`` and ``ThetaMorphism(...)``
take outside input (dump import, tests, users) and check it in full before
they store a form: every number an exact int, every component monotone and
in range, and the shape a normal form; ``normalize_morphism`` reads an
outside lift through them.  (A call equal to a stored form returns it, so
``ThetaObject(1, (1.0,))`` is ``Obj(1,)@1`` once that exists; only checked
ints are ever stored.)  The site's own operations build from parts already
checked, through ``_assembled``, each component checked once where it is
made, and each result a normal form by construction:

* ``enumerate_morphisms``: non-constant maps (each checked once per pool)
  up to one constant map, or ``n`` non-constant ones;
* ``compose``: stored components composed in turn, up to the first
  constant composite, which a constant component of either factor forces;
* ``tail_morphism``: a form's stored components after the first, a suffix
  of a normal form, whose first constant one is still its last.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, Iterator, Sequence


class ThetaError(ValueError):
    """Base class for site-level errors."""


class InvalidObjectError(ThetaError):
    pass


class InvalidMorphismError(ThetaError):
    pass


class CompositionError(ThetaError):
    pass


class _HashConsed(type):
    """A call with the arguments of a form already built returns that form;
    any other call checks its arguments (the class's ``_check``) before it
    makes and stores one, so a rejected form is never stored."""

    def __call__(cls, *args):
        form = cls._forms.get(args)
        if form is None:
            cls._check(*args)
            form = cls._forms[args] = super().__call__(*args)
        return form


# a slot for a surgery result, filled on first use
_memo = partial(field, default=None, init=False, repr=False, compare=False)

# the one type a form's numbers may have: a float or bool equal to an int
# would find that int's form in a table, or be stored in its place
_INT = frozenset((int,))


# ---------------------------------------------------------------------------
# objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True, slots=True)
class ThetaObject(metaclass=_HashConsed):
    """A site object: ambient dimension ``n`` plus positive entries."""

    n: int
    entries: tuple[int, ...]
    length: int = field(init=False, repr=False, compare=False)
    _tail: ThetaObject | None = _memo()
    _collapse: ThetaMorphism | None = _memo()
    _identity: ThetaMorphism | None = _memo()
    _forms = {}
    __hash__ = object.__hash__

    @staticmethod
    def _check(n, entries):
        if type(n) is not int or not set(map(type, entries)) <= _INT:
            raise InvalidObjectError(
                f"ambient dimension and entries must be ints: {n!r}, {entries}")
        if n < 0:
            raise InvalidObjectError("ambient dimension must be >= 0")
        if len(entries) > n:
            raise InvalidObjectError(
                f"length {len(entries)} exceeds ambient dimension {n}")
        if any(e < 1 for e in entries):
            raise InvalidObjectError(f"entries must be positive: {entries}")

    def __post_init__(self):
        object.__setattr__(self, "length", len(self.entries))

    def __reduce__(self):
        return ThetaObject, (self.n, self.entries)

    def padded(self, i: int) -> int:
        """Entry at 0-based position ``i`` of the zero-padded representative."""
        return self.entries[i] if i < len(self.entries) else 0

    def sort_key(self):
        return (len(self.entries), sum(self.entries), self.entries)

    def __repr__(self):
        return f"Obj{self.entries}@{self.n}"


def object_of(n: int, entries: Iterable[int]) -> ThetaObject:
    """Class representative of ``entries``: truncate at the first zero.

    A zero entry collapses everything after it; entries that are not ints,
    negative entries and too-long results are rejected.
    """
    entries = tuple(entries)
    if not set(map(type, entries)) <= _INT:
        raise InvalidObjectError(f"entries must be ints: {entries}")
    if any(e < 0 for e in entries):
        raise InvalidObjectError(f"negative entry in {entries}")
    kept = []
    for e in entries:
        if e == 0:
            break
        kept.append(e)
    return ThetaObject(n, tuple(kept))


def zero_object(n: int) -> ThetaObject:
    return ThetaObject(n, ())


def window_objects(n: int, max_entry: int) -> list[ThetaObject]:
    """All objects with entries <= max_entry, sorted."""
    if max_entry < 1:
        raise InvalidObjectError("entry bound must be >= 1")
    out = []
    for k in range(n + 1):
        for entries in itertools.product(range(1, max_entry + 1), repeat=k):
            out.append(ThetaObject(n, entries))
    out.sort(key=ThetaObject.sort_key)
    return out


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def _is_constant(comp: tuple[int, ...]) -> bool:
    return len(set(comp)) == 1


def _check_component(source: ThetaObject, target: ThetaObject, i: int,
                     comp: tuple[int, ...]) -> None:
    """Reject a component ``i`` that is not monotone ``[a] -> [b]`` on padded entries."""
    _check_map(source.entries[i] if i < source.length else 0,
               target.entries[i] if i < target.length else 0, i, comp)


def _check_map(a: int, b: int, i, comp: tuple[int, ...]) -> None:
    """Reject ``comp``, named component ``i``, unless it is monotone ``[a] -> [b]``."""
    if len(comp) == a + 1 and comp[0] >= 0 and comp[-1] <= b and sorted(comp) == list(comp):
        return
    if len(comp) != a + 1:
        raise InvalidMorphismError(f"component {i} has wrong arity for [{a}]")
    if min(comp) < 0 or max(comp) > b:
        raise InvalidMorphismError(f"component {i} leaves [{b}]")
    if not all(map(operator.le, comp, comp[1:])):
        raise InvalidMorphismError(f"component {i} is not order-preserving")


@dataclass(frozen=True, slots=True)
class ThetaMorphism(metaclass=_HashConsed):
    """Normal form of a morphism ``source -> target``.

    ``components[i]`` is the image tuple of a monotone map
    ``[source.padded(i)] -> [target.padded(i)]``.  All stored components are
    non-constant except possibly the last one; a trailing constant component
    is stored exactly when one exists among the padded positions.
    """

    source: ThetaObject
    target: ThetaObject
    components: tuple[tuple[int, ...], ...]
    n: int = field(init=False, repr=False, compare=False)
    _tail: ThetaMorphism | None = _memo()
    _forms = {}
    __hash__ = object.__hash__

    @staticmethod
    def _check(source, target, components):
        if source.n != target.n:
            raise InvalidMorphismError("source and target live in different ambient dimensions")
        n = source.n
        if len(components) > n:
            raise InvalidMorphismError("more components than ambient positions")
        if not set(map(type, itertools.chain.from_iterable(components))) <= _INT:
            raise InvalidMorphismError(f"component values must be ints: {components!r}")
        for i, comp in enumerate(components):
            _check_component(source, target, i, comp)
        for i, comp in enumerate(components[:-1]):
            if _is_constant(comp):
                raise InvalidMorphismError("constant component before the last stored one")
        if len(components) < n and (not components or not _is_constant(components[-1])):
            raise InvalidMorphismError("normal form must end with the first constant component")

    def __post_init__(self):
        object.__setattr__(self, "n", self.source.n)

    def __reduce__(self):
        return ThetaMorphism, (self.source, self.target, self.components)

    def lift(self) -> tuple[tuple[int, ...], ...]:
        """Canonical full lift: stored components, then constant-0 maps."""
        comps = list(self.components)
        for i in range(len(comps), self.n):
            comps.append((0,) * (self.source.padded(i) + 1))
        return tuple(comps)

    def is_identity(self) -> bool:
        return self is identity(self.source)

    def sort_key(self):
        return (self.source.sort_key(), self.target.sort_key(), self.components)

    def __repr__(self):
        comps = ",".join("".join(map(str, c)) for c in self.components)
        return f"Mor{self.source.entries}->{self.target.entries}[{comps}]"



def normalize_morphism(source: ThetaObject, target: ThetaObject,
                       lift: Sequence[Sequence[int]]) -> ThetaMorphism:
    """Normal form of a componentwise monotone lift between padded objects.

    Components are scanned left to right; the first constant one is kept
    (its value matters) and everything after it is discarded.  Components out
    of a zero-padded source position are constant by arity.  The kept
    components are validated by ``ThetaMorphism``, the discarded ones here.
    """
    if len(lift) != source.n:
        raise InvalidMorphismError(f"expected {source.n} components, got {len(lift)}")
    stored = []
    for comp in lift:
        stored.append(tuple(comp))
        if _is_constant(stored[-1]):
            break
    f = ThetaMorphism(source, target, tuple(stored))
    for i in range(len(stored), source.n):
        _check_component(source, target, i, tuple(lift[i]))
    return f


def identity(obj: ThetaObject) -> ThetaMorphism:
    if obj._identity is None:
        object.__setattr__(obj, "_identity", normalize_morphism(
            obj, obj, [tuple(range(obj.padded(i) + 1)) for i in range(obj.n)]))
    return obj._identity


def _assembled(source: ThetaObject, target: ThetaObject,
               components: tuple[tuple[int, ...], ...]) -> ThetaMorphism:
    """The form of a normal form whose components its maker has checked:
    looked up or stored in ``ThetaMorphism``'s table, with no ``_check``."""
    key = (source, target, components)
    form = ThetaMorphism._forms.get(key)
    if form is None:        # made as ``_HashConsed.__call__`` makes one, unchecked
        form = ThetaMorphism._forms[key] = type.__call__(ThetaMorphism, *key)
    return form


def compose(f: ThetaMorphism, g: ThetaMorphism) -> ThetaMorphism:
    """Composite ``f after g`` (``g`` maps into ``f``'s source).

    Composed componentwise on the stored components, each checked as it is
    made, up to the first constant one: a constant component of either
    factor makes the composite's constant, so the stored ones reach it, and
    the result does not depend on the choice of lifts.
    """
    if g.target is not f.source:
        raise CompositionError(f"cannot compose {f} after {g}: endpoint mismatch")
    source, target = g.source, f.target
    comps = []
    for i, (fc, gc) in enumerate(zip(f.components, g.components)):
        comp = tuple(map(fc.__getitem__, gc))
        _check_component(source, target, i, comp)
        comps.append(comp)
        if comp[0] == comp[-1]:     # monotone: constant when its ends agree
            break
    return _assembled(source, target, tuple(comps))


def collapse_to_zero(obj: ThetaObject) -> ThetaMorphism:
    """The unique morphism ``obj -> 0``."""
    if obj._collapse is None:
        object.__setattr__(obj, "_collapse", normalize_morphism(
            obj, zero_object(obj.n), [(0,) * (obj.padded(i) + 1) for i in range(obj.n)]))
    return obj._collapse


def vertex(obj: ThetaObject, v: int, d: int = 0) -> ThetaMorphism:
    """The morphism ``obj.entries[:d] -> obj`` that is the identity in the
    directions before ``d`` and hits vertex ``v`` in direction ``d``."""
    if not 0 <= d <= obj.length:
        raise InvalidMorphismError(f"direction {d} is outside {obj}")
    if d == obj.length:
        if v != 0:
            raise InvalidMorphismError(f"{obj} has a single vertex in direction {d}")
        return identity(obj)
    if not 0 <= v <= obj.entries[d]:
        raise InvalidMorphismError(f"vertex {v} outside [{obj.entries[d]}]")
    lift = ([tuple(range(e + 1)) for e in obj.entries[:d]] + [(v,)]
            + [(0,)] * (obj.n - d - 1))
    return normalize_morphism(object_of(obj.n, obj.entries[:d]), obj, lift)


@lru_cache(maxsize=None)
def _nonconstant_maps(a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """All non-constant monotone maps [a] -> [b] as image tuples, each checked."""
    pool = tuple(m for m in itertools.combinations_with_replacement(range(b + 1), a + 1)
                 if not _is_constant(m))
    for m in pool:
        _check_map(a, b, "of a pool", m)
    return pool


@lru_cache(maxsize=None)
def enumerate_morphisms(source: ThetaObject, target: ThetaObject) -> tuple[ThetaMorphism, ...]:
    """The complete finite set of normal forms ``source -> target``."""
    if source.n != target.n:
        raise InvalidMorphismError("objects live in different ambient dimensions")
    n = source.n
    if n == 0:
        return (_assembled(source, target, ()),)
    out = []
    # non-constant prefix of length j-1, then the first constant at position j
    for j in range(1, n + 1):
        prefix_pools = [_nonconstant_maps(source.padded(i), target.padded(i))
                        for i in range(j - 1)]
        if any(not pool for pool in prefix_pools):
            continue
        arity = source.padded(j - 1) + 1
        consts = [(v,) * arity for v in range(target.padded(j - 1) + 1)]
        for comp in consts:
            _check_component(source, target, j - 1, comp)
        out += [_assembled(source, target, comps)
                for comps in itertools.product(*prefix_pools, consts)]
    # no constant component at all: only possible with all n positions live
    pools = [_nonconstant_maps(source.padded(i), target.padded(i)) for i in range(n)]
    if all(pools):
        out += [_assembled(source, target, comps) for comps in itertools.product(*pools)]
    out.sort(key=operator.attrgetter("components"))     # the ends are fixed
    return tuple(out)


def count_morphisms(source: ThetaObject, target: ThetaObject) -> int:
    """``len(enumerate_morphisms(source, target))``, by the same case split,
    with no form built: ``comb(a + b + 1, a + 1) - (b + 1)`` non-constant
    maps ``[a] -> [b]`` per prefix position, times ``b + 1`` constants."""
    if source.n != target.n:
        raise InvalidMorphismError("objects live in different ambient dimensions")
    ends = [(source.padded(i), target.padded(i)) for i in range(source.n)]
    total, prefix = 0, 1
    for a, b in ends:
        total += prefix * (b + 1)
        prefix *= math.comb(a + b + 1, a + 1) - (b + 1)
    return total + prefix


def segal_faces(M: ThetaObject, d: int = 0) -> list[ThetaMorphism]:
    """The ``p = M.entries[d]`` spine maps into ``M`` in direction ``d``.

    Each map's source is ``M`` with entry ``d`` replaced by 1; the i-th map
    sends 0 to i and 1 to i+1 in direction ``d`` and is the identity on every
    other direction.
    """
    if not 0 <= d < M.length:
        raise InvalidMorphismError(f"direction {d} is outside {M}")
    source = object_of(M.n, M.entries[:d] + (1,) + M.entries[d + 1:])
    ident = [tuple(range(M.padded(j) + 1)) for j in range(M.n)]
    return [normalize_morphism(source, M, ident[:d] + [(i, i + 1)] + ident[d + 1:])
            for i in range(M.entries[d])]


# ---------------------------------------------------------------------------
# morphism surgery used by presheaf constructions
# ---------------------------------------------------------------------------

def tail_object(obj: ThetaObject) -> ThetaObject:
    """Strip the first direction: the object of the later entries, one dimension down."""
    if obj._tail is None:
        object.__setattr__(obj, "_tail", object_of(obj.n - 1, obj.entries[1:]))
    return obj._tail


def tail_morphism(f: ThetaMorphism) -> ThetaMorphism:
    """Strip the first direction: the induced morphism between tail objects.

    Its components are ``f``'s after the first.  When ``f`` stores just one
    (a constant, unless it is the only direction), the tail's canonical lift
    is all constant 0, and its first component is the one stored.
    """
    if f._tail is None:
        if f.n == 0:
            raise InvalidMorphismError("no tail in ambient dimension 0")
        comps = f.components[1:]
        if not comps and f.n > 1:
            comps = ((0,) * (f.source.padded(1) + 1),)
        object.__setattr__(f, "_tail", _assembled(
            tail_object(f.source), tail_object(f.target), comps))
    return f._tail


def prepend_prefix(prefix: tuple[int, ...], g: ThetaMorphism, n: int) -> ThetaMorphism:
    """Extend ``g`` by identities on ``prefix`` directions, as a morphism in
    ambient dimension ``n`` from ``prefix + g.source`` to ``prefix + g.target``."""
    if len(prefix) + g.n != n:
        raise InvalidMorphismError("prefix length and ambient dimension disagree")
    src = object_of(n, prefix + g.source.entries)
    tgt = object_of(n, prefix + g.target.entries)
    lift = [tuple(range(e + 1)) for e in prefix] + list(g.lift())
    return normalize_morphism(src, tgt, lift)


# depth d -> {form: truncated(form, d)}, filled on first use and kept, as forms are
_CUTS: dict[int, dict] = defaultdict(dict)


def truncated(x: ThetaObject | ThetaMorphism, d: int) -> ThetaObject | ThetaMorphism:
    """``x``, an object or a morphism, with its entries and components after
    the first ``d`` dropped: a retraction of the site onto the objects of
    length <= d.  A morphism's first ``d`` components are kept; if it
    stores more, all of them are non-constant, and its component ``d``
    becomes the constant ``[0] -> [0]``.

    The depth lemma: a presheaf ``X`` whose levels and actions are read at
    ``truncated(., d)`` is fixed, as is any natural map between two such,
    by its levels of length <= d.  The degeneracy ``M -> truncated(M, d)``
    and its section at vertex 0 truncate to identities, so they act as
    identities on ``X``, and naturality along them sends a map's component
    at ``M`` to its component at ``truncated(M, d)``."""
    cuts = _CUTS[d]
    got = cuts.get(x)
    if got is None:
        if isinstance(x, ThetaObject):
            got = x if x.length <= d else ThetaObject(x.n, x.entries[:d])
        else:
            comps = x.components
            if len(comps) > d:
                comps = comps[:d] + ((0,),)
            got = _assembled(truncated(x.source, d), truncated(x.target, d), comps)
        cuts[x] = got
    return got


# ---------------------------------------------------------------------------
# elementary morphisms: the face/degeneracy generators of a window
# ---------------------------------------------------------------------------

def _elementary_from(obj: ThetaObject, max_entry: int) -> Iterator[ThetaMorphism]:
    n = obj.n
    pad = [obj.padded(i) for i in range(n)]
    ident = [tuple(range(e + 1)) for e in pad]
    for pos in range(min(obj.length + 1, n)):
        m = pad[pos]
        moves = []
        if m + 1 <= max_entry:  # cofaces: the entry at pos grows by one
            moves.append((m + 1, [tuple(v if v < skip else v + 1 for v in range(m + 1))
                                  for skip in range(m + 2)]))
        if m >= 1:  # degeneracies: the entry at pos shrinks by one
            moves.append((m - 1, [tuple(v if v <= rep else v - 1 for v in range(m + 1))
                                  for rep in range(m)]))
        for entry, comps in moves:
            tgt = object_of(n, pad[:pos] + [entry] + pad[pos + 1:])
            for comp in comps:
                _check_map(m, entry, pos, comp)
                # the normal form: the lift up to its first constant component
                lift = ident[:pos] + [comp] + ident[pos + 1:]
                keep = next((i for i, c in enumerate(lift) if c[0] == c[-1]), n - 1) + 1
                yield _assembled(obj, tgt, tuple(lift[:keep]))


@lru_cache(maxsize=None)
def elementary_morphisms(n: int, max_entry: int) -> tuple[ThetaMorphism, ...]:
    """Single-position face/degeneracy generators between window objects.

    Every window morphism factors inside the window as a composite of these,
    so naturality checks may be restricted to them.
    """
    seen = set()
    for obj in window_objects(n, max_entry):
        for mor in _elementary_from(obj, max_entry):
            if not mor.is_identity():
                seen.add(mor)
    return tuple(sorted(seen, key=ThetaMorphism.sort_key))
