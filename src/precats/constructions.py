"""The named precat constructions: nerves, edge complexes, cells,
suspension, delooping, the Whitehead operation, corner maps and the
monoidal towers.

Everything here is exact combinatorics over the lazy presheaf core.  Each
builder documents its levelwise formula; actions restrict along the first
direction and push the remaining directions into the input presheaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from . import presheaf
from .presheaf import (CellTable, Precat, PrecatMap, PushoutData,
                       TabledPrecat, Window, cell_label, degeneracy_map, discrete, empty,
                       hom_precat, identity_map, point, point_map,
                       derived, product, product_map, pushout, sub_precat, swap_map,
                       terminal_map)
from .theta import ThetaObject, object_of, vertex, zero_object


class ConstructionError(ValueError):
    pass


class InvalidArgumentError(ConstructionError):
    pass


# ---------------------------------------------------------------------------
# finite categories and their nerves
# ---------------------------------------------------------------------------

class FiniteCategory:
    """Objects, arrows with endpoints, identities and a total composition
    table ``table[(a, b)] = a-then-b`` for composable ``a, b``, checked by
    ``validate`` on construction."""

    def __init__(self, objects, arrows, src, tgt, ident, table, name="C"):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.table = dict(table)
        self.name = name
        self.validate()

    def validate(self):
        """Raise ``ConstructionError`` at the first failure of the category
        laws.  Composable pairs and triples are listed along an index of
        each object's out-arrows, in ``arrows`` order, which visits them in
        the order of a scan of all pairs and triples."""
        arrow_set, src, tgt, table = set(self.arrows), self.src, self.tgt, self.table
        for x in self.objects:
            i = self.ident.get(x)
            if i is None or i not in arrow_set or src.get(i) != x or tgt.get(i) != x:
                raise ConstructionError(f"bad identity at {x!r}")
        out = {x: [] for x in self.objects}
        for a in self.arrows:
            if a not in src or a not in tgt or src[a] not in self.objects \
                    or tgt[a] not in self.objects:
                raise ConstructionError(f"dangling arrow {a!r}")
            out[src[a]].append(a)
        for a in self.arrows:
            for b in out[tgt[a]]:
                c = table.get((a, b))
                if c not in arrow_set or src[c] != src[a] or tgt[c] != tgt[b]:
                    raise ConstructionError(f"bad composite for {a!r};{b!r}")
            if table.get((self.ident[src[a]], a)) != a or \
               table.get((a, self.ident[tgt[a]])) != a:
                raise ConstructionError(f"identity law fails at {a!r}")
        for a in self.arrows:
            for b in out[tgt[a]]:
                for c in out[tgt[b]]:
                    if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                        raise ConstructionError(f"associativity fails at {a!r},{b!r},{c!r}")

    # -- stock categories ---------------------------------------------------

    @staticmethod
    def discrete(k: int) -> "FiniteCategory":
        objs = tuple(range(k))
        ident = {x: ("id", x) for x in objs}
        arrows = tuple(ident.values())
        src = {a: a[1] for a in arrows}
        tgt = dict(src)
        table = {(a, a): a for a in arrows}
        return FiniteCategory(objs, arrows, src, tgt, ident, table, name=f"disc{k}")

    @staticmethod
    def chain(k: int) -> "FiniteCategory":
        """The poset 0 < 1 < ... < k as a category."""
        objs = tuple(range(k + 1))
        arrows = tuple((i, j) for i in objs for j in objs if i <= j)
        src = {a: a[0] for a in arrows}
        tgt = {a: a[1] for a in arrows}
        ident = {x: (x, x) for x in objs}
        table = {(a, b): (a[0], b[1]) for a in arrows for b in arrows if a[1] == b[0]}
        return FiniteCategory(objs, arrows, src, tgt, ident, table, name=f"chain{k}")

    @staticmethod
    def interval() -> "FiniteCategory":
        """Two objects and a single non-invertible arrow between them."""
        c = FiniteCategory.chain(1)
        c.name = "I"
        return c

    @staticmethod
    def iso_interval() -> "FiniteCategory":
        """Two objects and a single isomorphism between them."""
        objs = (0, 1)
        arrows = ("id0", "id1", "u", "v")
        src = {"id0": 0, "id1": 1, "u": 0, "v": 1}
        tgt = {"id0": 0, "id1": 1, "u": 1, "v": 0}
        ident = {0: "id0", 1: "id1"}
        table = {}
        for a in arrows:
            for b in arrows:
                if tgt[a] != src[b]:
                    continue
                pair = tuple(x for x in (a, b) if not x.startswith("id"))
                if len(pair) == 0:
                    table[(a, b)] = a
                elif len(pair) == 1:
                    table[(a, b)] = pair[0]
                else:
                    table[(a, b)] = ident[src[a]]
        return FiniteCategory(objs, arrows, src, tgt, ident, table, name="Ibar")

    @staticmethod
    def monoid(elements, op, unit, name="M") -> "FiniteCategory":
        objs = ("*",)
        arrows = tuple(elements)
        src = {a: "*" for a in arrows}
        tgt = dict(src)
        ident = {"*": unit}
        table = {(a, b): op(a, b) for a in arrows for b in arrows}
        return FiniteCategory(objs, arrows, src, tgt, ident, table, name=name)


def nerve(C: FiniteCategory, n: int = 1) -> Precat:
    """The nerve of a finite category, padded constantly to dimension ``n``.

    Level 0 holds the objects; a level whose first entry is ``p`` holds the
    composable p-chains, independently of the remaining directions, each
    (p-1)-chain extended along the out-arrows of its last target, in
    ``arrows`` order.  The table (``presheaf.CellTable`` of depth 1) is
    built once from a copy of ``C``, interned at its first composite by all
    it reads, typed by label.  Each object and arrow is labelled by
    ``cell_label`` once, and a chain's label is ``"(" + ",".join(its
    arrows' labels) + ")"``, which is ``cell_label`` of the chain by
    definition.  A restriction reads only the first entries ``p`` and ``q``
    of a morphism's ends and its first component ``comp0``, and restricts a
    whole level at a time: a constant ``comp0`` reads each chain's vertex,
    and otherwise each pair of consecutive entries of ``comp0`` is a run of
    the chain, whose column is the vertex identity if it is empty, the arrow
    if it has one and the composite through ``C.table`` if it is longer.
    """
    if n < 1:
        raise ConstructionError("nerve needs ambient dimension >= 1")
    src, tgt, ident, table = dict(C.src), dict(C.tgt), dict(C.ident), dict(C.table)
    objects = list(dict.fromkeys(C.objects))
    names = [cell_label(x) for x in objects]
    label = {a: cell_label(a) for a in C.arrows}
    out = {x: [] for x in objects}
    for a, name in label.items():
        out[src[a]].append((a, name))
    levels = [([(a,) for a in label], ["(" + name + ")" for name in label.values()])]

    def chains(p: int) -> tuple[list[tuple], list[str]]:
        while len(levels) < p:      # each level once, extending the one below
            longer, texts = [], []
            for chain, text in zip(*levels[-1]):
                for a, name in out[tgt[chain[-1]]]:
                    longer.append(chain + (a,))
                    texts.append(text[:-1] + "," + name + ")")
            levels.append((longer, texts))
        return levels[p - 1]

    def vertices(cells: list[tuple], v: int) -> list:
        return (list(map(src.__getitem__, map(itemgetter(0), cells))) if v == 0
                else list(map(tgt.__getitem__, map(itemgetter(v - 1), cells))))

    def restrict(f, cells):
        """The restrictions of ``cells`` along ``f``, cut to depth 1."""
        p = f.source.entries
        if not f.target.length:
            xs = cells
        elif len(set(comp0 := f.components[0])) == 1:
            xs = vertices(cells, comp0[0])
        else:
            runs = []
            for a, b in zip(comp0, comp0[1:]):
                if a == b:
                    runs.append(list(map(ident.__getitem__, vertices(cells, a))))
                    continue
                run = list(map(itemgetter(a), cells))
                for j in range(a + 1, b):
                    run = list(map(table.__getitem__, zip(run, map(itemgetter(j), cells))))
                runs.append(run)
            return list(zip(*runs))
        return [(ident[x],) * p[0] for x in xs] if p else xs

    return TabledPrecat(n, CellTable(
        lambda M: chains(M.entries[0]) if M.length else (objects, names), restrict, 1),
        f"N({C.name})@{n}",
        lambda: (n, tuple(zip(objects, names)),      # all of C the table reads, typed
                 *(tuple(d.items()) for d in (label, src, tgt, ident, table))))


# ---------------------------------------------------------------------------
# the edge complex on a simplex of morphism objects
# ---------------------------------------------------------------------------

def _edge_indices(i: int, j: int, legacy: bool) -> range:
    """Indices of the factors labelling the edge from vertex i to vertex j.

    The corrected indexing runs over i+1..j.  The legacy variant (kept only
    as a negative control) starts one index too early, clamped at 1; the
    conventions for a collapsed edge (no factors) are shared.
    """
    if i == j:
        return range(0)
    if legacy:
        return range(max(i, 1), j + 1)
    return range(i + 1, j + 1)


def upsilon(inputs: list[Precat], legacy: bool = False, name: str | None = None) -> Precat:
    """The universal precat on ``k+1`` ordered objects with the ``i``-th input
    as morphism object along edge ``i-1 -> i``.

    Level 0 is ``{0..k}``.  A cell of a level ``(p, tail)`` is a monotone
    vertex path ``y: [p] -> [k]`` together with one cell of each input
    indexed strictly between the endpoints, evaluated at ``tail``; the edge
    from ``i`` to ``j`` carries the product of the inputs ``i+1 .. j``.
    """
    if not inputs:
        raise InvalidArgumentError("need at least one morphism object")
    m = inputs[0].n
    if any(E.n != m for E in inputs):
        raise InvalidArgumentError("all morphism objects must share one dimension")
    from .tables import UpsilonTable
    return derived(inputs[0], inputs[1:], legacy, lambda: UpsilonTable(
        [E.table for E in inputs], lambda y: _edge_indices(y[0], y[-1], legacy)),
        m + 1, name or "U(" + ",".join(E.name for E in inputs) + ")")


def upsilon_map(maps: list[PrecatMap], legacy: bool = False,
                name: str | None = None) -> PrecatMap:
    """Functoriality of the edge complex in its morphism objects."""
    dom = upsilon([f.domain for f in maps], legacy=legacy)
    cod = upsilon([f.codomain for f in maps], legacy=legacy)
    ats = [f.positions for f in maps]
    return PrecatMap(dom, cod, name=name or "U(maps)", at=cod.table.map_from(
        dom.table, tuple, lambda tail: {j: [(j, at[tail])] for j, at in enumerate(ats, 1)}))


def upsilon_face(inputs: list[Precat], which, legacy: bool = False,
                 along: PrecatMap | None = None) -> PrecatMap:
    """A principal face inclusion of the edge complex.

    ``which`` is ``"drop_first"``, ``"drop_last"`` or ``("merge", i)`` with
    ``1 <= i <= k-1``; the merged edge carries the product of inputs i, i+1,
    or else the domain of ``along``, a map into it that the face follows.
    The legacy indexing has no ``"drop_first"`` face.
    """
    k = len(inputs)
    if k < 2:
        raise InvalidArgumentError("faces need at least two morphism objects")
    cod = upsilon(inputs, legacy=legacy)
    if which == "drop_last":
        reduced = inputs[:-1]
        rho = tuple(range(k))
        reindex = {j: (j,) for j in range(1, k)}
    elif which == "drop_first":
        if legacy:
            raise InvalidArgumentError("the legacy indexing has no drop_first face")
        reduced = inputs[1:]
        rho = tuple(range(1, k + 1))
        reindex = {j: (j + 1,) for j in range(1, k)}
    elif isinstance(which, tuple) and which[0] == "merge":
        i = which[1]
        if not 1 <= i <= k - 1:
            raise InvalidArgumentError(f"merge position {i} out of range")
        along = along or identity_map(product(inputs[i - 1], inputs[i]))
        reduced = inputs[:i - 1] + [along.domain] + inputs[i + 1:]
        rho = tuple(v if v < i else v + 1 for v in range(k))
        reindex = {j: (j,) if j < i else ((i, i + 1) if j == i else (j + 1,))
                   for j in range(1, k)}
    else:
        raise InvalidArgumentError(f"unknown face descriptor {which!r}")
    dom = upsilon(reduced, legacy=legacy)
    TD, a, TX = dom.table, along and along.positions, along and along.codomain.table

    def sends(tail):        # each input's positions, or the factors' of its images
        pairs = TX and (list(zip(*map(TX.pairs(tail).__getitem__, a[tail]))) or [(), ()])
        return {j: list(zip(targets, pairs if len(targets) == 2
                            else [range(TD.inputs[j - 1].size(tail))]))
                for j, targets in reindex.items()}

    return PrecatMap(dom, cod, name=f"face:{which}",
                     at=cod.table.map_from(TD, lambda y: tuple(map(rho.__getitem__, y)), sends))


def upsilon_cases(UW: Precat, left: tuple, right: tuple, name: str = "cases") -> PrecatMap:
    """The map out of ``UW``, the edge complex on one pushout of P and Q,
    that sends a cell on a class of label-minimal member ``("L", p)`` as
    ``u`` sends its image under the face ``("merge", 1)`` along ``a``, for
    ``left = (a: P -> X x Y, u)``; ``right`` likewise, and the rest as ``u``."""
    return PrecatMap(UW, left[1].codomain, name=name, at=UW.table.cases(*(
        (a.positions, a.codomain.table, u.domain.table, u.positions) for a, u in (left, right))))


# ---------------------------------------------------------------------------
# cells and their boundaries
# ---------------------------------------------------------------------------

@dataclass
class CellData:
    total: Precat
    boundary: Precat
    inclusion: PrecatMap


def cell(i: int, n: int) -> CellData:
    """The ``i``-cell and its boundary in ambient dimension ``n``.

    The 0-cell is the point with empty boundary; each higher cell is the edge
    complex on its predecessor.  ``i = n+1`` is the limit case: the cell
    stays the top cell and its boundary is two copies glued along the old
    boundary, included by folding.
    """
    if not 0 <= i <= n + 1:
        raise InvalidArgumentError(f"cell index {i} out of range for dimension {n}")
    if i == 0:
        total, boundary = point(n), empty(n)
        return CellData(total, boundary, degeneracy_map(boundary, total, name="0->pt"))
    if i <= n:
        prev = cell(i - 1, n - 1)
        incl = upsilon_map([prev.inclusion], name=f"dF{i}->F{i}")
        return CellData(incl.codomain, incl.domain, incl)
    top = cell(n, n)
    po = pushout(top.inclusion, top.inclusion, name=f"dF{n + 1}")
    fold = po.induced(identity_map(top.total), identity_map(top.total),
                      name=f"dF{n + 1}->F{n + 1}")
    return CellData(top.total, po.precat, fold)


# ---------------------------------------------------------------------------
# pointed precats, suspension, free towers, delooping
# ---------------------------------------------------------------------------

@dataclass
class PointedPrecat:
    space: Precat
    base: object

    def __post_init__(self):
        if self.base not in self.space.cells(zero_object(self.space.n)):
            raise InvalidArgumentError(
                f"{self.base!r} is not an object of {self.space.name}")


@dataclass
class SuspensionData:
    precat: Precat
    pushout: PushoutData
    loops: PrecatMap            # input space -> morphism object of the suspension


def suspension(A: PointedPrecat) -> SuspensionData:
    """One-object precat whose morphism object at the only vertex is ``A``:
    the edge complex on ``A`` with the marked-point edge collapsed."""
    n = A.space.n
    incl = point_map(A.space, A.base)
    ua = upsilon_map([incl], name="U(base)")
    po = pushout(ua, terminal_map(ua.domain), name=f"S({A.space.name})")
    sigma_precat = po.precat
    homs = hom_precat(sigma_precat, 1, (_only_object(sigma_precat),) * 2,
                      name="loops")

    def loops_apply(T: ThetaObject, c):
        M = object_of(n + 1, (1,) + T.entries)
        return po.inl.apply(M, ((0, 1), (c,)))

    loops = PrecatMap(A.space, homs, loops_apply, name="A->hom")
    return SuspensionData(sigma_precat, po, loops)


def _only_object(P: Precat):
    objs = P.cells(zero_object(P.n))
    if len(objs) != 1:
        raise ConstructionError(f"{P.name} does not have a single object")
    return next(iter(objs))


def sigma_free(k: int, n: int) -> PointedPrecat:
    """The free k-fold monoidal generator: the k-cell with its boundary
    collapsed to the base point."""
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"k={k} out of range for dimension {n}")
    ck = cell(k, n)
    po = pushout(ck.inclusion, terminal_map(ck.boundary), name=f"sigma{k}")
    base = po.inr.apply(zero_object(n), "pt")
    return PointedPrecat(po.precat, base)


def delooping(A: PointedPrecat) -> Precat:
    """The one-object simplicial gadget whose level ``p`` is the wedge of
    ``p`` copies of the input, glued at the base point.

    A non-degenerate cell is (copy index, cell); restriction along the first
    direction keeps copy ``i`` iff the vertex map crosses from below ``i`` to
    ``i`` or beyond, collapses it otherwise.  Tabled from the input's table
    (``tables.DeloopingTable``), independently of the suspension.
    """
    from .tables import DeloopingTable
    X = A.space
    return TabledPrecat(X.n + 1, DeloopingTable(X.table, A.base), name=f"X({X.name})")


# ---------------------------------------------------------------------------
# the Whitehead operation
# ---------------------------------------------------------------------------

def whitehead(A: Precat, a, k: int) -> tuple[Precat, PrecatMap]:
    """Sub-presheaf of the cells whose restrictions along every morphism from
    a level of length <= k are degeneracies of the base point.

    Only the vertex maps are checked.  With ``d = min(k, M.length)``, each
    ``u: U -> M`` with ``U`` of length <= k is ``vertex(M, v, d)`` after
    ``h``, its first ``d`` components, with ``v`` its constant value at ``d``.
    ``collapse_to_zero(V)`` after ``h`` is ``collapse_to_zero(U)`` (``V`` the
    vertex map's source), so when ``A`` is functorial, which this exact
    quantifier assumes, degeneracy along the vertex maps passes to ``u``.
    """
    if a not in A.cells(zero_object(A.n)):
        raise InvalidArgumentError(f"{a!r} is not an object of {A.name}")
    if not 0 <= k <= A.n:
        raise InvalidArgumentError(f"k={k} out of range for dimension {A.n}")

    T = A.table

    def keep_at(M: ThetaObject):
        d = min(k, M.length)
        U = object_of(A.n, M.entries[:d])
        want, index = T.level(U)[2][A.degeneracy(U, a)], T.level(M)[2]
        acts = [T.act(vertex(M, v, d)) for v in range(M.padded(d) + 1)]
        return lambda alpha: all(act[index[alpha]] == want for act in acts)

    return sub_precat(A, keep_at, name=f"Wh>{k}({A.name})")


# ---------------------------------------------------------------------------
# corner maps
# ---------------------------------------------------------------------------

@dataclass
class CornerData:
    source: PushoutData        # A x D glued with B x C over A x C
    map: PrecatMap             # corner map into B x D
    target: Precat


def pushout_product(f: PrecatMap, g: PrecatMap) -> CornerData:
    """The corner map ``AxD u BxC -> BxD`` of two maps f: A->B, g: C->D."""
    A, B = f.domain, f.codomain
    C, D = g.domain, g.codomain
    R, AD, BC, BD = product(A, C), product(A, D), product(B, C), product(B, D)
    po = pushout(product_map(identity_map(A), g, R, AD, name="idxg"),
                 product_map(f, identity_map(C), R, BC, name="fxid"), name="corner-src")
    u = product_map(f, identity_map(D), AD, BD, name="fx1")
    v = product_map(identity_map(B), g, BC, BD, name="1xg")
    return CornerData(po, po.induced(u, v, name="corner"), BD)


def q_gluing(f: PrecatMap, g: PrecatMap, legacy: bool = False) -> PushoutData:
    """Two triangles glued along their shared face: the edge complexes on
    (A,D) and (B,C) glued over the one on (A,C)."""
    return pushout(upsilon_map([identity_map(f.domain), g], legacy=legacy),
                   upsilon_map([f, identity_map(g.domain)], legacy=legacy), name="Q")


def square_decomposition(B: Precat, D: Precat, legacy: bool = False) -> tuple[Precat, Precat]:
    """The product of two edge complexes against the two-triangle gluing
    along the diagonal edge complex on the product."""
    lhs = product(upsilon([B], legacy=legacy), upsilon([D], legacy=legacy))
    BD = product(B, D)
    merge_bd = upsilon_face([B, D], ("merge", 1), legacy, identity_map(BD))
    diag = upsilon_face([D, B], ("merge", 1), legacy, swap_map(B, D, BD))
    return lhs, pushout(merge_bd, diag, name="two-triangles").precat


def wedge01(X: Precat, Y: Precat, name: str = "wedge") -> PushoutData:
    """Glue vertex 1 of ``X`` to vertex 0 of ``Y`` (both one-object levels)."""
    pt = point(X.n)
    return pushout(point_map(X, 1, pt, name="at1"), point_map(Y, 0, pt, name="at0"),
                   name=name)


# ---------------------------------------------------------------------------
# monoidal towers
# ---------------------------------------------------------------------------

@dataclass
class MonoidObject:
    """A monoid in precats: carrier with multiplication and unit maps."""

    carrier: Precat
    mult: PrecatMap            # product(carrier, carrier) -> carrier
    unit: PrecatMap            # point -> carrier
    commutative: bool = False

    def law_violations(self, window: Window) -> list:
        """Failures ``(law, level, *cells)`` of the monoid laws, and of
        commutativity if claimed, read off the maps' position lists."""
        at, out = _monoid_at(self, self.commutative), []
        for M in window.objects(self.carrier.n):
            cells = self.carrier.table.level(M)[0]
            out += [(law, M, *map(cells.__getitem__, xs)) for law, *xs in at(M)[2]]
        return out


def _monoid_at(mon: MonoidObject, commutative: bool):
    """``T -> (m, e, bad)``: ``m[x * s + y]`` is the product of the positions
    ``x`` and ``y`` of the carrier's ``s`` cells over ``T``, ``e`` the unit,
    and ``bad`` lists the failures ``("unit", x)``, ``("assoc", x, y, z)``
    and, if ``commutative``, ``("comm", x, y)`` of the laws.  It keeps the
    maps' position lists and tables, no precat."""
    TA, TP, mult, unit = (mon.carrier.table, mon.mult.domain.table,
                          mon.mult.positions, mon.unit.positions)

    def at(T):
        m, e, s = list(map(mult[T].__getitem__, TP.rank(T))), unit[T][0], TA.size(T)
        bad = [("unit", x) for x in range(s) if m[e * s + x] != x or m[x * s + e] != x]
        for x, y in itertools.product(range(s), repeat=2):
            bad += [("assoc", x, y, z) for z in range(s)
                    if m[m[x * s + y] * s + z] != m[x * s + m[y * s + z]]]
            if commutative and m[x * s + y] != m[y * s + x]:
                bad.append(("comm", x, y))
        return m, e, bad
    return at


def monoid_from_table(elements, op, unit_element, commutative: bool,
                      n: int = 0, name: str = "M") -> MonoidObject:
    carrier = discrete(n, elements)
    carrier.name = name
    mult = PrecatMap(product(carrier, carrier), carrier,
                     lambda M, c: op(c[0], c[1]), name=f"{name}-mult")
    unit = PrecatMap(point(n), carrier, lambda M, c: unit_element, name=f"{name}-unit")
    return MonoidObject(carrier, mult, unit, commutative)


def z2_monoid() -> MonoidObject:
    return monoid_from_table((0, 1), lambda a, b: (a + b) % 2, 0,
                             commutative=True, name="Z2")


def ck_monoidal(mon: MonoidObject, k: int) -> Precat:
    """The k-fold monoidal delooping of a monoid object.

    Levels of length < k are the point; a level ``(p_1..p_k, tail)`` is the
    full grid power ``carrier(tail)^(p_1*...*p_k)``, which is exactly what
    strict comparison-map bijections force.  Restriction multiplies grid
    blocks; two or more directions need the interchange law, hence the
    commutativity requirement for k >= 2.  Tabled from the carrier's table
    (``tables.MonoidalTable``), with the laws checked at each level of the
    carrier where a level is tabulated.
    """
    if k < 1:
        raise InvalidArgumentError("need k >= 1")
    if k >= 2 and not mon.commutative:
        raise InvalidArgumentError("k >= 2 needs a commutative monoid object")
    from .tables import MonoidalTable
    A, at = mon.carrier, _monoid_at(mon, k >= 2)
    TA, name = A.table, f"c^{k}({A.name})"

    def monoid(T):
        m, e, bad = at(T)
        if bad:
            law, *xs = bad[0]
            cells = tuple(map(TA.level(T)[0].__getitem__, xs))
            raise InvalidArgumentError(f"{name}: the {law} law fails on {cells} at level {T}")
        return m, e

    return TabledPrecat(A.n + k, MonoidalTable(TA, A.n, k, monoid), name=name)


# ---------------------------------------------------------------------------
# folding a cofibration: double and cylinder decompositions
# ---------------------------------------------------------------------------

@dataclass
class FoldData:
    double: Precat             # two copies of the codomain glued over the domain
    fold: PrecatMap            # codiagonal onto the codomain
    cylinder_corner: CornerData
    caps: Precat               # two end caps glued over the cylinder middle

    def decomposition_agrees(self, window: Window):
        return presheaf.iso_windowed(self.cylinder_corner.source.precat,
                                     self.caps, window)


def claim_fold(i: PrecatMap) -> FoldData:
    """Everything needed to compare the double of a cofibration with its
    cylinder model.

    The cylinder is the product with the contractible interval; the corner
    source of ``i`` against the endpoint inclusion decomposes as two caps
    (codomain at an endpoint, glued over the domain's cylinder) joined along
    the domain's cylinder.
    """
    E, F = i.domain, i.codomain
    n = E.n
    po = pushout(i, i, name="double")
    fold = po.induced(identity_map(F), identity_map(F), name="fold")
    ibar = nerve(FiniteCategory.iso_interval(), n)
    corner = pushout_product(i, degeneracy_map(discrete(n, (0, 1)), ibar, name="ends"))
    e_cyl = product(E, ibar)

    def cap(v):     # the leg c -> (c, v) of cap v
        TC, d = e_cyl.table, point_map(ibar, v, E).positions
        leg = PrecatMap(E, e_cyl, name=f"E@{v}", at=lambda M: TC.positions(M, enumerate(d[M])))
        return pushout(i, leg, name=f"cap{v}").inr

    caps = pushout(cap(0), cap(1), name="caps")
    return FoldData(po.precat, fold, corner, caps.precat)
