"""Comparison-map analysis, truncation towers and connectivity.

The comparison (Segal) map at a level whose ``d``-th entry is ``p`` sends a
cell to its ``p`` spine restrictions; strictness means every such map is a
bijection on the window.  It is computed on the positions of the table
that the presheaf owns.  Category recovery, truncation and connectivity
read the fixed levels (0) to (3) and recurse into hom presheaves (tables
that keep positions of their parent's), so they take no window.  One
reading of the composition from level (2), ``_composition``, serves both
category recovery and truncation.  ``tau_zero`` joins the objects along
two-sided inverses by ``presheaf.join``, the pushouts' union-find.  A
truncation is a table over its input's table, a quotient of its positions
at the top length.  They are implemented for strict inputs only: a weak
input raises a typed error instead of silently approximating, since
resolving it would need a categorical completion operation that is out of
scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import theta
from .constructions import ConstructionError, FiniteCategory
from .presheaf import (Precat, PrecatMap, TabledPrecat, Window, WindowTable,
                       hom_precat, join, slice_precat)
from .theta import (ThetaObject, normalize_morphism, object_of, vertex,
                    zero_object)


class AnalysisError(ValueError):
    pass


class NotStrictError(AnalysisError):
    """Comparison maps are not bijections where the operation needs them."""


class TruncationUndefinedError(AnalysisError):
    """Truncation recursion hit a non-strict stage; would need completion."""


# ---------------------------------------------------------------------------
# comparison maps
# ---------------------------------------------------------------------------

@dataclass
class SegalEntry:
    level: ThetaObject
    direction: int
    source_size: int
    target_size: int
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


@dataclass
class SegalReport:
    entries: list[SegalEntry] = field(default_factory=list)

    @property
    def strict(self) -> bool:
        return all(e.bijective for e in self.entries)

    def failures(self) -> list[SegalEntry]:
        return [e for e in self.entries if not e.bijective]


def _segal_entry(T: WindowTable, M: ThetaObject, d: int) -> SegalEntry:
    """The comparison map at level ``M`` in direction ``d``, on positions.
    Surjectivity is a set inclusion, not a count: on a non-functorial input
    the spine restrictions of a cell need not be compatible."""
    faces = theta.segal_faces(M, d)
    one = faces[0].source
    v0, v1 = (T.act(vertex(one, v, d)) for v in (0, 1))
    images = list(zip(*(T.act(f) for f in faces)))
    starts: dict = {}       # the cells of ``one`` by their vertex 0
    for b, x in enumerate(v0):
        starts.setdefault(x, []).append(b)
    target = [(a,) for a in range(len(v0))]     # spine tuples, extended cell by cell
    for _ in faces[1:]:
        target = [(*tup, b) for tup in target for b in starts.get(v1[tup[-1]], ())]
    distinct = set(images)
    return SegalEntry(level=M, direction=d + 1, source_size=len(images),
                      target_size=len(target),
                      injective=len(distinct) == len(images),
                      surjective=set(target) <= distinct)


def segal_check(A: Precat, window: Window) -> SegalReport:
    """Comparison-map verdicts at every window level with an entry >= 2."""
    T = A.table
    return SegalReport([_segal_entry(T, M, d) for M in window.objects(A.n)
                        for d, p in enumerate(M.entries) if p >= 2])


# ---------------------------------------------------------------------------
# categories from strict one-directional data
# ---------------------------------------------------------------------------

def _composition(A: Precat) -> tuple:
    """The category data of a strict input, read from levels (0) to (2).

    Returns the objects and the arrows sorted by ``repr``, each arrow's
    ``src`` and ``tgt``, each object's identity, and the composite of each
    composable pair: the long face of the pair's filler at level (2).
    Raises unless the comparison maps at the pure levels (2) and (3) are
    bijections, which makes each filler exist and be unique.
    """
    T = A.table
    for p in (2, 3):
        e = _segal_entry(T, object_of(A.n, (p,)), 0)
        if not e.bijective:
            raise NotStrictError(
                f"{A.name} is not strict at {e.level}: {e.source_size} cells vs "
                f"{e.target_size} compatible tuples")
    one, two = object_of(A.n, (1,)), object_of(A.n, (2,))
    objects = sorted(A.cells(zero_object(A.n)), key=repr)
    arrows = sorted(A.cells(one), key=repr)
    vsrc, vtgt = vertex(one, 0), vertex(one, 1)
    src = {a: A.act(vsrc, a) for a in arrows}
    tgt = {a: A.act(vtgt, a) for a in arrows}
    degen = theta.collapse_to_zero(one)
    ident = {x: A.act(degen, x) for x in objects}
    f01, f12 = theta.segal_faces(two)
    long_face = normalize_morphism(one, two, [(0, 2)] + [(0,)] * (A.n - 1))
    table = {(A.act(f01, c), A.act(f12, c)): A.act(long_face, c)
             for c in A.cells(two)}
    return objects, arrows, src, tgt, ident, table


def category_from_nerve(A: Precat, name="C(A)") -> FiniteCategory:
    """Recover objects, arrows and the composition table from levels <= 3
    of a strict input (``_composition``), which needs dimension n >= 1."""
    if A.n < 1:
        raise AnalysisError(f"category recovery needs dimension n >= 1, not {A.n}")
    try:
        return FiniteCategory(*_composition(A), name=name)
    except ConstructionError as exc:
        raise NotStrictError(f"level data is not a category: {exc}") from exc


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def _tau_zero_classes(A: Precat) -> dict:
    """Map each object cell to its equivalence class (a frozenset)."""
    if A.n == 0:
        return {c: frozenset([c]) for c in A.cells(zero_object(0))}
    objects = sorted(A.cells(zero_object(A.n)), key=repr)
    arrow_class: dict = {}
    for x in objects:
        for y in objects:
            for cls in tau_zero(hom_precat(A, 1, (x, y))):
                arrow_class.update(dict.fromkeys(cls, cls))
    try:
        _, _, src, tgt, ident, table = _composition(A)
    except NotStrictError as exc:
        raise TruncationUndefinedError(str(exc)) from exc
    comp: dict = {}
    for (a, b), c in table.items():
        kc = arrow_class[c]
        if comp.setdefault((arrow_class[a], arrow_class[b]), kc) != kc:
            raise TruncationUndefinedError(
                "composition is not constant on equivalence classes")
    # a: x -> y is invertible iff some b: y -> x composes with it to both
    # identities up to class
    at = {x: i for i, x in enumerate(objects)}
    root = join(len(objects), [(at[src[a]], at[tgt[a]]) for (a, b), c in table.items()
                               if tgt[b] == src[a]
                               and arrow_class[c] == arrow_class[ident[src[a]]]
                               and arrow_class[table[(b, a)]] == arrow_class[ident[tgt[a]]]])
    classes = {r: frozenset(x for x, s in zip(objects, root) if s == r) for r in set(root)}
    return {x: classes[r] for x, r in zip(objects, root)}


def tau_zero(A: Precat) -> frozenset:
    """The set of objects up to equivalence, as a partition of the objects.

    For dimension 0 this is the underlying set (singleton classes); higher
    dimensions quotient by two-sided invertibility of arrow classes computed
    recursively.
    """
    table = _tau_zero_classes(A)
    return frozenset(table.values())


def truncate(A: Precat, k: int, name=None) -> Precat:
    """The k-dimensional truncation of a strict input.

    Levels of length < k are untouched; levels of length k collapse to
    equivalence classes of the sliced lower-dimensional presheaves.  Tabled
    from the input's table (``tables.TruncationTable``).
    """
    if not 0 <= k <= A.n:
        raise AnalysisError(f"truncation level {k} out of range")
    from .tables import TruncationTable
    return TabledPrecat(k, TruncationTable(
        A.table, A.n, k, lambda full: _tau_zero_classes(slice_precat(A, full.entries))),
        name=name or f"tau<={k}({A.name})")


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def equivalent_to_point(A: Precat) -> bool:
    """Contractibility for strict inputs: one object class at every stage."""
    if A.n == 0:
        return len(A.cells(zero_object(0))) == 1
    if len(tau_zero(A)) != 1:
        return False
    objects = A.cells(zero_object(A.n))
    return all(equivalent_to_point(hom_precat(A, 1, (x, y)))
               for x in objects for y in objects)


def is_k_connected(A: Precat, k: int) -> bool:
    return equivalent_to_point(truncate(A, k))


# ---------------------------------------------------------------------------
# minimal dimension for maps of sets (dimension 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinDim0:
    """Minimal dimension of a map of sets: 0, 1 or infinity."""

    value: float

    def __post_init__(self):
        if self.value not in (0, 1, math.inf):
            raise AnalysisError(f"no such minimal dimension for sets: {self.value}")


def min_dim_sets(mapping: dict, domain, codomain) -> MinDim0:
    """Infinity for a bijection, 1 for a surjective non-bijection, else 0."""
    domain = set(domain)
    codomain = set(codomain)
    image = {mapping[x] for x in domain}
    if not image <= codomain:
        raise AnalysisError("mapping leaves the codomain")
    surjective = image == codomain
    injective = len(image) == len(domain)
    if surjective and injective:
        return MinDim0(math.inf)
    if surjective:
        return MinDim0(1)
    return MinDim0(0)


def min_dim_map0(u: PrecatMap) -> MinDim0:
    """Minimal dimension of a map of 0-dimensional presheaves."""
    if u.domain.n != 0:
        raise AnalysisError("only defined in dimension 0")
    z = zero_object(0)
    dom = u.domain.cells(z)
    return min_dim_sets({c: u.apply(z, c) for c in dom}, dom, u.codomain.cells(z))
