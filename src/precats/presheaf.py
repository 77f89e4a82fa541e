"""Finite presheaves of sets on the site, each read off one window table.

A presheaf sends a site object to a finite set of cells and a morphism
``f: M -> M'`` to the restriction of the cells over ``M'`` to cells over
``M``.  Every precat owns exactly one table (``WindowTable``): each level's
cells in label order with their labels and positions, and each morphism as
a position list, built when first asked for and kept.  ``cells``, ``act``
and every window check (the solver, functoriality, the Segal check) read
it; a dump is joined as text from each level's encoded labels, and read
back by module ``dumps`` with no JSON tree, a run of actions (those of one
level pair) at a time, as position lists checked in full: a run listing
its pair's morphisms in order takes each form by its place.  Only outside
callers (tests, the benchmark's tracer) give a presheaf cell by cell,
``Precat(n, eval_fn, act_fn)`` owning a ``CellTable``.  Nerves and constant
presheaves own a ``FirstEntryTable``, sorted once per first entry from
cells labelled by their builder (a nerve's chain labels are joined from its
arrows' labels) and restricted a whole level per key; every other
construction a table of module ``tables``, built from its parts' tables.
One union-find, ``join``, gives the classes of a pushout's levels and of
``analysis.tau_zero``.

Every table has a ``depth``, the leading entries its levels depend on, and
reads each level and position list at ``theta.truncated(., depth)``: 0 for
a constant presheaf, 1 for a nerve; module ``tables`` gives the rest.  A
``CellTable``, a dump's table, a sub and a truncation make no cut.

Extensional checks (naturality, isomorphism, functoriality) run on a finite
window of levels, only through the window's face/degeneracy generators.  This
loses nothing where every window morphism is a composite of generators inside
the window: the tests certify that for n <= 3 on small windows, and larger
windows rest on it unchecked.  One level-by-level solver finds the levelwise
maps commuting with the generators, each certified on its integer tables; it
serves the isomorphism search and the enumeration of natural maps.  A map,
too, is a position list per level (``PrecatMap.at``), read off tables.

A table keeps its levels and position lists without bound.  Equal inputs
share it: a nerve or constant presheaf, from its first composite, pushout
leg or map key on, reads the table of the first live one of equal typed
content (``interned``), which names it in keys; a product, an edge complex
or a pushout along two keyed maps (point and degeneracy maps, keyed by
their ends and point) is kept in the memo of its first input's table, which
only precats hold.  No table holds a memo, a map, or a precat but as an
input, so no reference cycle keeps a table alive.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TextIO

from . import theta
from .theta import (_CUTS, ThetaMorphism, ThetaObject, collapse_to_zero, compose,
                    elementary_morphisms, enumerate_morphisms, identity,
                    object_of, truncated, vertex, window_objects, zero_object)


class PresheafError(ValueError):
    pass


class ActionDomainError(PresheafError):
    """Cell handed to ``act`` is not at the morphism's target level."""


# ---------------------------------------------------------------------------
# canonical cell labels (used for deterministic dumps and pushout reps)
# ---------------------------------------------------------------------------

def cell_label(cell) -> str:
    """Deterministic compact string form of a (possibly nested) cell.

    Idempotent on strings, so re-dumping an imported dump is stable.
    """
    if isinstance(cell, tuple):
        return "(" + ",".join(cell_label(c) for c in cell) + ")"
    if isinstance(cell, frozenset):
        return "{" + ",".join(sorted(cell_label(c) for c in cell)) + "}"
    if isinstance(cell, str):
        return cell
    return repr(cell)


@dataclass(frozen=True)
class Window:
    """The levels whose entries are all <= B, an int >= 1."""

    B: int

    def __post_init__(self):
        if type(self.B) is not int or self.B < 1:
            raise PresheafError(f"window entry bound {self.B!r} is not an int >= 1")

    def objects(self, n: int) -> list[ThetaObject]:
        return window_objects(n, self.B)

    def elementary(self, n: int) -> tuple[ThetaMorphism, ...]:
        return elementary_morphisms(n, self.B)

    def morphisms(self, n: int):
        """All (source, target, morphisms) triples of the window."""
        objs = self.objects(n)
        for s in objs:
            for t in objs:
                yield s, t, enumerate_morphisms(s, t)


_MISS = object()
_CHUNK_MAPS = 64    # a chunk's pieces and text are alive together: bound them
_BASES: "weakref.WeakValueDictionary[object, Precat]" = weakref.WeakValueDictionary()


class Precat:
    """A finite presheaf on the site, read off its window table (a private
    ``CellTable`` of ``eval_fn`` and ``act_fn`` only for outside callers).
    ``cells(M)`` is the level's cells in label order, as a set-like view.
    ``memo`` keeps the tables derived from its table for all precats over it."""
    content = None      # a base's intern key: a function of it until ``interned``

    def __init__(self, n: int, eval_fn: Callable[[ThetaObject], Iterable],
                 act_fn: Callable[[ThetaMorphism, object], object],
                 name: str = "precat"):
        self.n, self.name, self.table, self.memo = n, name, CellTable(eval_fn, act_fn, name), {}

    def cells(self, M: ThetaObject):
        if M.n != self.n:
            raise PresheafError(f"{M} is not a level of a {self.n}-precat")
        return self.table.level(M)[2].keys()

    def act(self, f: ThetaMorphism, cell):
        T = self.table
        k = T.level(f.target)[2].get(cell)
        if k is None:
            raise ActionDomainError(f"cell {cell!r} is not at level {f.target} of {self.name}")
        return T.level(f.source)[0][T.act(f)[k]]

    def degeneracy(self, M: ThetaObject, point):
        """The fully degenerate cell over ``M`` of a level-0 cell."""
        return self.act(collapse_to_zero(M), point)

    def size(self, M: ThetaObject) -> int:
        return self.table.size(M)

    def __repr__(self):
        return f"<{self.name}: {self.n}-precat>"


class TabledPrecat(Precat):
    """A precat defined by a table (``FirstEntryTable``, module ``tables``)."""

    def __init__(self, n: int, table, name: str, content: Optional[Callable] = None,
                 memo: Optional[dict] = None):
        self.n, self.name, self.table, self.content = n, name, table, content
        self.memo = {} if memo is None else memo


def interned(P: Precat) -> Precat:
    """P, over the table and memo of the first live base of its content."""
    if callable(P.content):
        P.content = P.content()
        first = _BASES.setdefault(P.content, P)
        P.memo, P.table = first.memo, first.table
    return P


def _named(P: Precat):
    """P in a map's key: a base by its typed content, else by its table."""
    return interned(P).content or P.table


def derived(P: Precat, others: list, tag, build: Callable, n: int, name: str) -> Precat:
    """A precat named ``name`` over the table P's memo keeps under ``tag`` and
    the ``others``' tables, else over ``build()``, each input ``interned``."""
    interned(P)
    key = (tag, *(interned(E).table for E in others))
    table, memo = P.memo.get(key) or P.memo.setdefault(key, (build(), {}))
    return TabledPrecat(n, table, name, memo=memo)


class Positions(dict):
    """A map's position list per level, built by ``build(M)`` when first
    asked for; ``build`` reads tables and other ``Positions``, never a map.
    ``dump_json`` keeps its texts in one too, keyed by what they encode."""

    def __init__(self, build: Callable[[ThetaObject], list[int]]):
        self.build = build

    def __missing__(self, M):
        got = self[M] = self.build(M)
        return got


class PrecatMap:
    """A levelwise function between two precats of the same dimension:
    ``at(M)`` lists the codomain position of each domain cell over ``M``,
    built once per level by ``at`` or else from the images under ``apply_fn``.
    A canonical map out of a constant presheaf has a ``key``: all ``at`` reads."""

    def __init__(self, domain: Precat, codomain: Precat,
                 apply_fn: Optional[Callable[[ThetaObject, object], object]] = None,
                 name: str = "map", at: Optional[Callable] = None, key: Optional[tuple] = None):
        if domain.n != codomain.n:
            raise PresheafError("map endpoints live in different ambient dimensions")
        self.domain, self.codomain, self.name, self.key = domain, codomain, name, key
        TD, TC = domain.table, codomain.table

        def listed(M):
            index, cells = TC.level(M)[2], TD.level(M)[0]
            got = [index.get(apply_fn(M, c), -1) for c in cells]
            if -1 in got:
                raise PresheafError(f"{name} sends {cells[got.index(-1)]!r} at level {M} "
                                    f"to no cell of its codomain")
            return got
        self.positions = Positions(at or listed)

    def at(self, M: ThetaObject) -> list[int]:
        return self.positions[M]

    def apply(self, M: ThetaObject, cell):
        k = self.domain.table.level(M)[2].get(cell)
        if k is None:
            raise PresheafError(f"{cell!r} at level {M} is no cell of the domain of {self.name}")
        return self.codomain.table.level(M)[0][self.positions[M][k]]

    def then(self, other: "PrecatMap") -> "PrecatMap":
        if other.domain is not self.codomain:
            raise PresheafError(f"maps do not compose: {other.name} does not "
                                f"start where {self.name} ends")
        a, b = self.positions, other.positions
        return PrecatMap(self.domain, other.codomain, name=f"{self.name};{other.name}",
                         at=lambda M: list(map(b[M].__getitem__, a[M])))

    def naturality_violations(self, window: Window) -> list:
        """Commuting failures ``(f, c, lhs, rhs)`` against the window's
        generators, found on position lists; cells are read only to name one."""
        TD, TC, at, out = self.domain.table, self.codomain.table, self.positions, []
        for f in window.elementary(self.domain.n):
            act, at_s, s = TC.act(f), at[f.source], f.source
            out += [(f, TD.level(f.target)[0][k], TC.level(s)[0][act[x]],
                     TC.level(s)[0][at_s[y]])
                    for k, (x, y) in enumerate(zip(at[f.target], TD.act(f)))
                    if act[x] != at_s[y]]
        return out

    def __repr__(self):
        return f"<map {self.name}: {self.domain.name} -> {self.codomain.name}>"


def identity_map(P: Precat) -> PrecatMap:
    T = P.table
    return PrecatMap(P, P, name="id", at=lambda M: list(range(T.size(M))))


# ---------------------------------------------------------------------------
# basic presheaves
# ---------------------------------------------------------------------------

def discrete(n: int, labels: Iterable, name: Optional[str] = None) -> Precat:
    """Constant presheaf on a finite set; every cell is fully degenerate."""
    if n < 0:
        raise PresheafError(f"ambient dimension {n} is negative")
    labels = tuple(labels)
    cells = list(frozenset(labels))
    names = list(map(cell_label, cells))
    return TabledPrecat(n, FirstEntryTable(lambda p: (cells, names),
                                           lambda p, q, c, cells: cells, 0),
                        name or f"discrete{labels}",
                        lambda: ("discrete", n, labels, repr(labels)))  # repr: 1, True, 1.0 differ


def point(n: int) -> Precat:
    return discrete(n, ("pt",), "point")


def empty(n: int) -> Precat:
    return discrete(n, (), "empty")


def terminal_map(P: Precat) -> PrecatMap:
    return point_map(point(P.n), "pt", P, "!")


def point_map(P: Precat, cell0, domain: Optional[Precat] = None,
              name: Optional[str] = None) -> PrecatMap:
    """The constant map at a level-0 cell, from ``domain`` or the point."""
    zero = zero_object(P.n)
    if cell0 not in P.cells(zero):
        raise PresheafError(f"{cell0!r} is not an object of {P.name}")
    D = domain or point(P.n)
    key = ("pt", _named(D), _named(P), P.table.level(zero)[2][cell0])
    TD, TP, k = D.table, P.table, key[3]
    return PrecatMap(D, P, name=name or f"pt:{cell_label(cell0)}",
                     at=lambda M: [TP.act(collapse_to_zero(M))[k]] * TD.size(M), key=key)


def degeneracy_map(D: Precat, P: Precat, name: str = "deg") -> PrecatMap:
    """The map from a constant presheaf ``D`` whose cells are level-0 cells
    of P that sends each cell to its degeneracy in P."""
    key = ("deg", _named(D), _named(P))
    TD, TP, zero = D.table, P.table, zero_object(P.n)
    return PrecatMap(D, P, name=name, key=key, at=lambda M: [
        TP.act(collapse_to_zero(M))[TP.level(zero)[2][c]] for c in TD.level(M)[0]])


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def product(P: Precat, Q: Precat) -> Precat:
    """Cells over ``M`` are the pairs ``(a, b)`` of cells of P and Q."""
    if P.n != Q.n:
        raise PresheafError("product factors live in different ambient dimensions")
    from .tables import ProductTable
    return derived(P, [Q], "x", lambda: ProductTable(P.table, Q.table),
                   P.n, f"({P.name}x{Q.name})")


def product_map(f: PrecatMap, g: PrecatMap, domain: Precat, codomain: Precat,
                name: str = "fxg") -> PrecatMap:
    """``(a, b) -> (f(a), g(b))`` between products of the ends' tables."""
    TD, TC, a, b = domain.table, codomain.table, f.positions, g.positions
    return PrecatMap(domain, codomain, name=name, at=lambda M: TC.positions(
        M, ((a[M][i], b[M][j]) for i, j in TD.pairs(M))))


def swap_map(P: Precat, Q: Precat, domain: Optional[Precat] = None) -> PrecatMap:
    """``(a, b) -> (b, a)`` from ``domain``, a product of P's and Q's tables."""
    D, C = domain or product(P, Q), product(Q, P)
    TD, TC = D.table, C.table
    return PrecatMap(D, C, name="swap", at=lambda M: TC.positions(
        M, ((j, i) for i, j in TD.pairs(M))))


# ---------------------------------------------------------------------------
# pushouts
# ---------------------------------------------------------------------------

def _typed_key(cell):
    """Orders cells of one label, such as ``1`` and ``"1"``, by type."""
    if isinstance(cell, tuple):
        return "tuple", tuple(map(_typed_key, cell))
    if isinstance(cell, frozenset):
        return "frozenset", tuple(sorted(map(_typed_key, cell)))
    return type(cell).__name__, repr(cell)


def _label_key(labels, cell: Optional[Callable] = None):
    """Sort key on the keys of ``labels`` (a dict, or a list over positions,
    giving each key's ``cell_label``): the label, then ``_typed_key`` of the
    key's cell (``cell(key)``, the key itself by default) for label ties
    only, an order free of the hash seed."""
    values = labels.values() if isinstance(labels, dict) else labels
    if len(set(values)) == len(values):
        return labels.__getitem__
    counts = Counter(values)
    cell = cell or (lambda c: c)
    return lambda c: (labels[c], _typed_key(cell(c)) if counts[labels[c]] > 1 else ())


def join(size: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The root of each of ``0..size-1`` under the equivalence generated by
    ``pairs``, the least member of its class: a union-find with path halving
    (Tarjan 1975) links the larger root under the smaller, so ``up[i] <= i``
    and one pass in increasing order sets each ``up[i]`` to ``up[up[i]]``."""
    up = list(range(size))
    for x, y in pairs:
        while up[x] != x:
            up[x] = x = up[up[x]]
        while up[y] != y:
            up[y] = y = up[up[y]]
        if x < y:
            x, y = y, x
        up[x] = y
    for i in range(size):
        up[i] = up[up[i]]
    return up


class PushoutData:
    """Objectwise pushout of ``f: R -> P`` and ``g: R -> Q``.

    Cells are canonical representatives of the identification classes of the
    tagged disjoint union ``("L", p)``, ``("R", q)``; the representative is
    the label-minimal member, so dumps are reproducible.  The precat and both
    inclusions read one ``PushoutTable``, built from the legs' position lists.
    """

    def __init__(self, f: PrecatMap, g: PrecatMap, name: str = "po"):
        if interned(f.domain).table is not interned(g.domain).table:
            raise PresheafError("pushout legs must start on one table")
        R, P, Q = f.domain, f.codomain, g.codomain
        self.f, self.g, self.R, self.P, self.Q = f, g, R, P, Q
        from .tables import PushoutTable

        def build():        # along keyed legs, kept in P's memo (``derived``)
            return PushoutTable(f.positions, g.positions, P.table, Q.table)
        self.precat = (derived(P, [Q], ("po", f.key, g.key), build, P.n, name)
                       if f.key and g.key else TabledPrecat(P.n, build(), name))
        table, TP = self.precat.table, P.table
        self.inl = PrecatMap(P, self.precat, name="inl", at=lambda M: table.rank(M)[:TP.size(M)])
        self.inr = PrecatMap(Q, self.precat, name="inr", at=lambda M: table.rank(M)[TP.size(M):])

    def class_of(self, M: ThetaObject, tagged):
        return (self.inl if tagged[0] == "L" else self.inr).apply(M, tagged[1])

    def induced(self, u: PrecatMap, v: PrecatMap, name: str = "fold") -> PrecatMap:
        """The map out of the pushout determined by the cocone ``(u, v)``.  At
        each level it is first built on, ``u`` after ``f`` is compared with
        ``v`` after ``g``; if they differ, ``PresheafError`` names the level.
        A cocone not from P and Q to one precat raises at once."""
        if [interned(X).table for X in (u.domain, v.domain, u.codomain)] != [
                interned(X).table for X in (self.P, self.Q, v.codomain)]:
            raise PresheafError(f"{name}: the cocone ({u.name}, {v.name}) does not run "
                                f"from {self.P.name} and {self.Q.name} to one precat")
        T, (a, b, f, g) = self.precat.table, (m.positions for m in (u, v, self.f, self.g))

        def at(M):
            am, bm = a[M], b[M]
            if list(map(am.__getitem__, f[M])) != list(map(bm.__getitem__, g[M])):
                raise PresheafError(f"{name}: the cocone ({u.name}, {v.name}) does not "
                                    f"commute at level {M}")
            return [am[m] if m < len(am) else bm[m - len(am)] for m in T.order(M)]
        return PrecatMap(self.precat, u.codomain, name=name, at=at)


def pushout(f: PrecatMap, g: PrecatMap, name: str = "po") -> PushoutData:
    return PushoutData(f, g, name=name)


def coproduct(P: Precat, Q: Precat) -> PushoutData:
    e = empty(P.n)
    return pushout(degeneracy_map(e, P, name="0->"), degeneracy_map(e, Q, name="0->"),
                   name=f"({P.name}+{Q.name})")


# ---------------------------------------------------------------------------
# slices, fibers, subpresheaves
# ---------------------------------------------------------------------------

def sub_precat(P: Precat, keep_at: Callable[[ThetaObject], Callable[[object], bool]],
               name: str = "sub") -> tuple[Precat, PrecatMap]:
    """Sub-presheaf of the cells ``c`` over each level ``M`` with
    ``keep_at(M)(c)`` (must be action-closed); ``keep_at`` runs once a level.
    Its table keeps positions of P's levels (``tables.SubTable``)."""
    from .tables import SubTable
    S = TabledPrecat(P.n, SubTable(P.table, keep_at, name), name)
    return S, PrecatMap(S, P, lambda M, c: c, name=f"{name}->")


def slice_precat(A: Precat, prefix: tuple[int, ...], name: str | None = None) -> Precat:
    """The lower-dimensional presheaf ``T -> A at (prefix + T)``, read off
    A's table (``tables.SliceTable``)."""
    if any(e < 1 for e in prefix):
        raise PresheafError("slice prefix entries must be positive")
    m = A.n - len(prefix)
    if m < 0:
        raise PresheafError("slice prefix longer than ambient dimension")
    from .tables import SliceTable
    return TabledPrecat(m, SliceTable(A.table, prefix, A.n), name or f"{A.name}@{prefix}")


def hom_precat(A: Precat, p: int, points: tuple, name: str | None = None) -> Precat:
    """The fiber of the level-``p`` slice over a ``p+1``-tuple of objects."""
    if len(points) != p + 1:
        raise PresheafError("need one base object per vertex")
    for x in points:
        if x not in A.cells(zero_object(A.n)):
            raise PresheafError(f"{x!r} is not an object of {A.name}")
    base, TA = slice_precat(A, (p,)), A.table

    def keep_at(T: ThetaObject):
        full = object_of(A.n, (p,) + T.entries)
        index = TA.level(full)[2]
        ends = [(TA.act(u), TA.level(u.source)[2].get(x))
                for u, x in zip((vertex(full, v) for v in range(p + 1)), points)]
        return lambda c: all(act[index[c]] == x for act, x in ends)

    return sub_precat(base, keep_at, name=name or f"{A.name}[{p}]{points}")[0]


# ---------------------------------------------------------------------------
# compiled windows
# ---------------------------------------------------------------------------

class WindowTable:
    """A presheaf's window table.  ``level(M)`` gives the cells over ``M``
    in ``cell_label`` order, their labels and each cell's position;
    ``labels(M)`` the labels alone and ``size(M)`` their number; ``act(f)``
    the position in ``f.source`` of the restriction of each cell of
    ``f.target``, in that order.  A table given them in full (a dump's,
    named by ``where``) has no other; a subclass builds a level in
    ``_level`` and a position list in ``_act``, each once, when asked for.

    ``depth`` is the number of leading entries the table depends on: a
    level and a position list are read at ``theta.truncated(., depth)``,
    so only those are built and kept.  A subclass computes it from its
    input tables; a table that makes no cut (a dump's, a ``CellTable``)
    keeps ``math.inf``."""

    depth = math.inf

    def __init__(self, levels: Optional[dict] = None, acts: Optional[dict] = None,
                 where: str = "table"):
        self._levels, self._acts, self._where = levels or {}, acts or {}, where

    def _level(self, M):
        raise PresheafError(f"{self._where} has no level {M}")

    def _act(self, f):
        raise PresheafError(f"{self._where} has no action entry for {f}")

    def level(self, M: ThetaObject) -> tuple[list, list[str], dict]:
        if M.length > self.depth:   # a truncation met before is one lookup
            cut = _CUTS[self.depth].get(M)
            M = truncated(M, self.depth) if cut is None else cut
        got = self._levels.get(M)
        if got is None:
            got = self._levels[M] = self._level(M)
        return got

    def act(self, f: ThetaMorphism) -> list[int]:
        if f.source.length > self.depth or f.target.length > self.depth:
            cut = _CUTS[self.depth].get(f)
            f = truncated(f, self.depth) if cut is None else cut
        got = self._acts.get(f)
        if got is None:
            got = self._acts[f] = self._act(f)
        return got

    def labels(self, M: ThetaObject) -> list[str]:
        return self.level(M)[1]

    def size(self, M: ThetaObject) -> int:
        return len(self.labels(M))


def _within(got: list[int], f: ThetaMorphism, cells: list, name: str = "") -> list[int]:
    """``got``, the positions in ``f.source`` of the restrictions of
    ``cells``, unless one is -1, which left its level."""
    if -1 in got:
        raise ActionDomainError(f"action of {f} on {cells[got.index(-1)]!r} left "
                                f"level {f.source}" + (name and f" of {name}"))
    return got


def _label_order(cells: Iterable, labels: Optional[list[str]] = None
                 ) -> tuple[list, list[str], dict]:
    """The distinct ``cells`` in label order, their labels (``labels``,
    listed as ``cells`` are, else ``cell_label``'s) and each cell's position."""
    cells = list(cells)
    if labels is None:
        labels = list(map(cell_label, cells))
    order = sorted(range(len(cells)), key=_label_key(labels, cells.__getitem__))
    cells = [cells[k] for k in order]
    return cells, [labels[k] for k in order], {c: k for k, c in enumerate(cells)}


class CellTable(WindowTable):
    """The table of a presheaf given cell by cell: ``eval_fn(M)`` lists the
    cells over ``M`` and ``act_fn(f, c)`` restricts the cell ``c`` along
    ``f``.  Each is called once per level, and once per morphism and cell."""

    def __init__(self, eval_fn: Callable, act_fn: Callable, name: str):
        super().__init__()
        self._eval_fn, self._act_fn, self.name = eval_fn, act_fn, name

    def _level(self, M):
        return _label_order(frozenset(self._eval_fn(M)))

    def _act(self, f):
        index, cells, act_fn = self.level(f.source)[2], self.level(f.target)[0], self._act_fn
        return _within([index.get(act_fn(f, c), -1) for c in cells], f, cells, self.name)


class FirstEntryTable(WindowTable):
    """The table of a presheaf of depth 1 or 0 (``depth``): nerves padded
    constantly and constant presheaves.  ``level(p)`` gives the distinct
    cells over a level of first entry ``p`` (``None`` at length 0) and
    their ``cell_label``s, listed alike in any order, and ``restrict(p,
    p', comp0, cells)`` the restrictions along ``f: M -> M'`` of the cells
    ``cells`` over ``M'``, in their order, where ``comp0`` is
    ``f.components[0]`` (``None`` when ``M'`` has length 0).  A morphism
    truncated at depth 1 is its key ``(p, p', comp0)``, so each level is
    sorted once per first entry, and each position list computed by one
    call per key, for a whole level."""

    def __init__(self, level: Callable[[Optional[int]], tuple[list, list[str]]],
                 restrict: Callable[..., list], depth: int):
        super().__init__()
        self._labelled, self._restrict, self.depth = level, restrict, depth

    def _level(self, M):
        return _label_order(*self._labelled(M.entries[0] if M.entries else None))

    def _act(self, f):
        source, target = f.source.entries, f.target.entries
        index, cells = self.level(f.source)[2], self.level(f.target)[0]
        return _within([index.get(c, -1) for c in self._restrict(
            source[0] if source else None, target[0] if target else None,
            f.components[0] if target else None, cells)], f, cells)


# ---------------------------------------------------------------------------
# extensional checks
# ---------------------------------------------------------------------------

def is_cofibration(u: PrecatMap, window: Window) -> bool:
    """Injectivity at every window level of non-maximal length.

    The top level is exempt: for dimension 0 (sets) nothing is required.
    """
    return all(len(set(u.at(M))) == len(u.at(M))
               for M in window.objects(u.domain.n) if M.length < u.domain.n)


class Violations(list):
    """A check's failures, and ``depth``, the depth it read the table at."""


def check_functoriality(P: Precat, window: Window) -> Violations:
    """Failures of the identity law and of ``act(f∘e) == act(e)(act(f))``
    for each morphism ``f`` and generator ``e`` into its source among the
    window levels of length <= ``depth``: the least d <= n with ``size(M)
    == size(tr M)`` at every window level and ``act(f) == act(tr f)`` for
    every window morphism, ``tr = theta.truncated(., d)`` (the table's own
    data, not its declared depth).  By induction on generator
    factorisations, then by the depth lemma (``tr`` is a functor), these
    give the full law on the window:
      act(g∘f) = act(tr(g∘f)) = act(tr g ∘ tr f) = act(f)∘act(g),
      act(id_M) = act(id_{tr M}) = id.
    Every window action is read, so one leaving its level raises
    ``ActionDomainError``; a level's cells only name a failure there."""
    T, out, objs = P.table, Violations(), window.objects(P.n)
    out.depth = next((d for d in range(P.n) if all(
        T.size(M) == T.size(truncated(M, d)) for M in objs if M.length > d) and all(
        T.act(f) == T.act(truncated(f, d)) for s, t, mors in window.morphisms(P.n)
        if max(s.length, t.length) > d for f in mors)), P.n)
    out += [("identity", M, T.level(M)[0][k]) for M in objs if M.length <= out.depth
            for k, x in enumerate(T.act(identity(M))) if x != k]
    into: dict = {}
    for e in window.elementary(P.n):
        if max(e.source.length, e.target.length) <= out.depth:
            into.setdefault(e.target, []).append(e)
    for s, t, mors in window.morphisms(P.n):
        for f in mors if max(s.length, t.length) <= out.depth else ():
            act_f = T.act(f)
            for e in into.get(s, ()):
                act_e = T.act(e)
                out += [("composition", f, e, T.level(t)[0][k]) for k, (x, y)
                        in enumerate(zip(T.act(compose(f, e)), act_f))
                        if x != act_e[y]]
    return out


# ---------------------------------------------------------------------------
# natural maps on a window: isomorphism search and enumeration
# ---------------------------------------------------------------------------

def _certified(TP: WindowTable, TQ: WindowTable, generators, phi: dict) -> bool:
    """Whether the position maps ``phi[level]`` commute with each generator
    ``e: s -> t``: ``phi[s][TP.act(e)[k]] == TQ.act(e)[phi[t][k]]`` for all ``k``."""
    return all(list(map(phi[e.source].__getitem__, TP.act(e)))
               == list(map(TQ.act(e).__getitem__, phi[e.target])) for e in generators)


def _colours(T: WindowTable, objs, generators):
    """Each cell's colour, one level of ``objs`` at a time: for every
    generator ``e`` out of its level, the number of cells of ``e.target``
    that restrict to it.  One round of colour refinement from the level
    partition (Weisfeiler & Leman 1968; McKay & Piperno 2014); a
    window-natural bijection preserves it."""
    out_of: dict = {M: [] for M in objs}
    for e in generators:
        out_of[e.source].append(e)
    for M in objs:
        size = T.size(M)
        counts = []
        for e in out_of[M]:
            n = [0] * size
            for k in T.act(e):
                n[k] += 1
            counts.append(n)
        yield list(zip(*counts)) or [()] * size


def _untaken(images, colour: list, want, taken: list, _chosen):
    """The images ``d`` of colour ``want`` not yet ``taken``, each marked
    taken while it is the cell's choice and freed when the search resumes."""
    for d in images:
        if colour[d] == want and not taken[d]:
            taken[d] = True
            yield d
            taken[d] = False


def _lazy_product(pools: list):
    """Every tuple whose entry ``j`` is drawn from ``pools[j](chosen)``, where
    ``chosen`` lists the entries before it: ``itertools.product`` order if no
    pool reads it.  A pool is drawn afresh under each prefix and resumed only
    under it again, so it may undo a choice on resumption (Knuth, TAOCP 4B,
    7.2.2, Algorithm B).  The stack is explicit: a search may run deeper than
    the recursion limit."""
    if not pools:
        yield ()
        return
    chosen = []
    draws = [iter(pools[0](chosen))]
    while draws:
        x = next(draws[-1], _MISS)
        if x is _MISS:
            draws.pop()
            if chosen:
                chosen.pop()
        elif len(draws) == len(pools):
            yield (*chosen, x)
        else:
            chosen.append(x)
            draws.append(iter(pools[len(draws)](chosen)))


def _natural_components(P: Precat, Q: Precat, window: Window, bijective: bool):
    """Every levelwise map ``P -> Q`` commuting with the window's generators,
    as ``{level: positions}`` with levels in window order: the position in
    Q of the image of each cell of P, in P's order.

    One engine, ``_lazy_product``, chooses each level in turn, ordered by
    (length, entry sum), and within a level each unforced cell's image in
    turn, so nothing recurses over a level's size.  A level's cells are
    forced along the generators out of it into earlier levels; the rest are
    matched within groups of equal restriction signature along the
    generators into it, groups in label order of their keys, cells and
    images in label order.  With ``bijective`` only bijections come out:
    groups match equal-sized groups of the images of Q no earlier level
    reaches (the forced cells take those, by colours), and a cell takes only
    an untaken image of its colour (``_colours``), freed on backtrack.
    Colours only filter, so solutions come in the order of each group's
    permutations; a level whose colours differ as multisets ends the search.

    Each level is compiled once, from both tables: its size, each generator
    between it and an earlier level as position lists on ``P`` and ``Q``,
    and Q's groups; with ``bijective``, level sizes are compared first.
    Only the levels of length <= the larger depth of the two tables are
    searched, along the generators among them: by the depth lemma
    (``theta.truncated``) a natural map is fixed there.  Each solution is
    extended to every window level through the truncation, and only those
    ``_certified`` on every generator of the full window come out.
    """
    TP, TQ = P.table, Q.table
    cut = min(max(TP.depth, TQ.depth), P.n)
    objs = [M for M in window.objects(P.n) if M.length <= cut]
    gens = [e for e in window.elementary(P.n)
            if e.source.length <= cut and e.target.length <= cut]
    pos = {M: i for i, M in enumerate(objs)}
    into: list[list] = [[] for _ in objs]    # generators from earlier levels
    outof: list[list] = [[] for _ in objs]   # generators to earlier levels
    for e in gens:
        s, t = pos[e.source], pos[e.target]
        if s < t:
            into[t].append(e)
        elif t < s:
            outof[s].append(e)
    if bijective and any(TP.size(M) != TQ.size(M) for M in objs):
        return
    colours = []
    if bijective:       # level by level, so a mismatch skips the later tables
        for cp, cq in zip(_colours(TP, objs, gens), _colours(TQ, objs, gens)):
            if Counter(cp) != Counter(cq):
                return
            colours.append((cp, cq))

    @functools.cache
    def compiled(i: int):
        ins = [(pos[e.source], TP.act(e), TQ.act(e), TQ.labels(e.source))
               for e in into[i]]
        outs = [(pos[e.target], TP.act(e), TQ.act(e)) for e in outof[i]]
        sig_q = (list(zip(*(q_rest for _, _, q_rest, _ in ins)))
                 if ins else [()] * TQ.size(objs[i]))     # each image's restrictions
        reached = {d for _, _, q_rest in outs for d in q_rest} if bijective else ()
        qgroups: dict = {}          # the images left to choose, by signature
        for d, sig in enumerate(sig_q):
            if d not in reached:
                qgroups.setdefault(sig, []).append(d)
        return TP.size(objs[i]), ins, outs, sig_q, qgroups

    def candidates(i: int, assigned: list):
        size, ins, outs, sig_q, qgroups = compiled(i)
        forced = [-1] * size
        for t, p_rest, q_rest in outs:
            phi_t = assigned[t]
            for c, src in enumerate(p_rest):
                want = q_rest[phi_t[c]]
                have = forced[src]
                if have == -1:
                    forced[src] = want
                elif have != want:
                    return
        used = {d for d in forced if d != -1}
        if bijective and len(used) != len(forced) - forced.count(-1):
            return
        groups: dict = {}
        sigs = (list(zip(*(map(assigned[s].__getitem__, p_rest) for s, p_rest, _, _ in ins)))
                if ins else [()] * size)       # each cell's restrictions into earlier levels
        for c, (d, sig) in enumerate(zip(forced, sigs)):
            if d != -1:
                if sig_q[d] != sig:
                    return
                continue
            groups.setdefault(sig, []).append(c)
        if bijective and (set(groups) != set(qgroups) or any(
                len(qgroups[k]) != len(g) for k, g in groups.items())):
            return
        keys = sorted(groups, key=lambda key: "(" + ",".join(   # cell_label in Q
            labels[q] for (_, _, _, labels), q in zip(ins, key)) + ")")
        cells = [(c, qgroups.get(k, ())) for k in keys for c in groups[k]]
        if bijective:
            (col_p, col_q), taken = colours[i], [False] * len(sig_q)
            pools = [functools.partial(_untaken, images, col_q, col_p[c], taken)
                     for c, images in cells]
        else:
            pools = [lambda _, images=images: images for _, images in cells]
        for choice in _lazy_product(pools):
            phi = list(forced)
            for (c, _), d in zip(cells, choice):
                phi[c] = d
            yield phi

    for assigned in _lazy_product([functools.partial(candidates, i)
                                for i in range(len(objs))]):
        phi = dict(zip(objs, assigned))
        phi = {M: phi[M] if M.length <= cut else phi[truncated(M, cut)]
               for M in window.objects(P.n)}
        if _certified(TP, TQ, window.elementary(P.n), phi):
            yield phi


def _window_map(P: Precat, Q: Precat, window: Window, positions: dict,
                name: str) -> PrecatMap:
    """The map of the solver's ``{level: positions}``, named ``name[B=..]``;
    at a level outside the window it raises ``PresheafError``."""
    def at(M):
        if M not in positions:
            raise PresheafError(f"{name} is not defined at level {M}: it maps the "
                                f"cells of window B={window.B} only")
        return positions[M]
    return PrecatMap(P, Q, name=f"{name}[B={window.B}]", at=at)


def iso_windowed(P: Precat, Q: Precat, window: Window) -> Optional[PrecatMap]:
    """A levelwise bijection commuting with all window morphisms, if any.

    The bijection is the first solution of the natural-map solver, which
    reads both sides' tables: it compares level sizes first (a composite's
    sizes come from its parts' tables, with no cell of its own built), then
    matches cells colour to colour and certifies the result against the
    generators.
    """
    if P.n != Q.n:
        return None
    components = next(_natural_components(P, Q, window, bijective=True), None)
    if components is None:
        return None
    return _window_map(P, Q, window, components, "iso")


def enumerate_natural_maps(P: Precat, Q: Precat, window: Window) -> list[PrecatMap]:
    """All levelwise functions commuting with the window's morphisms.

    Exponential in level sizes; meant for tiny universal-property checks.
    """
    return [_window_map(P, Q, window, comp, "nat")
            for comp in _natural_components(P, Q, window, bijective=False)]


# ---------------------------------------------------------------------------
# canonical windowed dumps
# ---------------------------------------------------------------------------

def _ints(xs) -> str:
    return "[" + ",".join(map(str, xs)) + "]"


def _map_text(keys: list[str], source: list[str], act: tuple[int, ...]) -> str:
    return ",".join([k + source[i] for k, i in zip(keys, act)])


def dump_chunks(P: Precat, window: Window) -> Iterator[str]:
    """The text ``json.dumps`` gives the window's dump with sorted keys, no
    spaces and ASCII escapes, chunks of ``_CHUNK_MAPS`` maps of a pair of
    levels at most, then the levels, joined from each level's encoded
    labels: its cells' keys, so a tie is a ``PresheafError``, in ``str``
    order, key order, so labels out of order are a fault of the table.
    Every fault raises before the first chunk.  Each int tuple's text is
    built once, each map's once per list and pair."""
    T, encode, codes, ints = P.table, json.encoder.encode_basestring_ascii, {}, Positions(_ints)
    for M in window.objects(P.n):
        labels = T.labels(M)
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise PresheafError(f"cells of level {M} share the label {a!r}")
            if a > b:
                raise RuntimeError(f"cells of level {M} are not in label order at {b!r}")
        codes[M] = [encode(x) for x in labels]
    # morphisms and position lists first: made between text pieces, they'd pin freed pools
    pairs = [(s, t, mors, list(map(T.act, mors))) for s, t, mors in window.morphisms(P.n)]

    def chunks():
        sep = '{"actions":['
        for s, t, mors, acts in pairs:
            maps = Positions(functools.partial(_map_text, [x + ":" for x in codes[t]], codes[s]))
            ends = f'],"source":{ints[s.entries]},"target":{ints[t.entries]}}}}}'
            for i in range(0, len(mors), _CHUNK_MAPS):
                out = []
                for f, act in zip(mors[i:i + _CHUNK_MAPS], acts[i:i + _CHUNK_MAPS]):
                    out += (sep, '{"map":{', maps[tuple(act)], '},"morphism":{"components":[',
                            ",".join(map(ints.__getitem__, f.components)), ends)
                    sep = ","
                yield "".join(out)
        yield '],"levels":[' + ",".join(
            '{"cells":[' + ",".join(cells) + f'],"object":{ints[M.entries]}}}'
            for M, cells in codes.items()) + f'],"n":{P.n},"window":{{"B":{window.B}}}}}\n'
    return chunks()


def dump_json(P: Precat, window: Window) -> str:
    return "".join(dump_chunks(P, window))


def dump_window(P: Precat, window: Window) -> dict:
    """The dump of the window as a dict, read back from ``dump_json``."""
    return json.loads(dump_json(P, window))


def precat_from_dump(data: str | dict | TextIO, name: str = "dump") -> Precat:
    """A canonical dump, its JSON text, an open text file (read a block at a
    time) or its dict, as a precat over a table of position lists, checked
    in full by ``dumps.read`` (loaded on first use), which takes the
    actions of a canonical text by position, a run of one level pair at a
    time, and decodes every other action in full."""
    from .dumps import read
    return read(data, name)
