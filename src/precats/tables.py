"""The tables of presheaves built from other presheaves' tables.

``product``, ``PushoutData``, ``constructions.upsilon``, ``delooping`` and
``ck_monoidal`` each return a ``presheaf.TabledPrecat`` over one of these
tables, built from its parts' tables; the parts' tables bottom out in a
``presheaf.CellTable`` (a nerve's of depth 1, a constant presheaf's of
depth 0) or a dump's.  A product's cell is a pair of positions, a
pushout's a class of the positions of its two sides, joined along its
legs' position lists by ``presheaf.join`` on their ranks in
label order, an edge complex's a vertex path with a position for each covered
input, a delooping's a copy with a position of its input, a monoidal
tower's a grid of positions of its carrier.  Labels are composed from the
parts' labels, restrictions and the maps between these tables are read off
the parts' position lists, and member cells are built only for ``level``
or to break a label tie.
``sub_precat`` and ``slice_precat`` own a ``SubTable`` or a ``SliceTable``,
which read their parent's levels and position lists as they are, and
``analysis.truncate`` a ``TruncationTable``, a quotient of them.  A table
holds its parts' tables, never a map or a memo (``Precat.memo``), and a
precat only as the input of a function it was given (a Whitehead sub's
predicate, a truncation's classes).  Products and edge complexes on the
same input tables (and ``legacy``), and pushouts along equal keyed legs, are
precats over one table, kept in the memo of their first input's table while
a precat over that table lives; a kept pushout holds its legs' ``Positions``.
Each table's ``depth`` is computed from its parts': the larger of the two
for a product or a pushout (a pushout's legs are natural, so their
classes at ``M`` are those at its truncation), one more than the inputs
for an edge complex or a delooping, ``k`` more than the carrier for a
monoidal tower, the parent's less the prefix for a slice.  A sub and a
truncation make no cut: a sub's predicate need not respect one.
This module is imported only when such a table is first built.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable

from .presheaf import Positions, WindowTable, _label_key, _label_order, _within, join
from .theta import (_CUTS, ThetaObject, collapse_to_zero, enumerate_morphisms,
                    normalize_morphism, object_of, prepend_prefix, tail_morphism,
                    tail_object, truncated)


class CompiledTable(WindowTable):
    """A table built from its parts' tables.

    A subclass numbers the cells of each level by members of its own: ints
    with ``_tabulate(M)`` giving ``(order, rank, labels)``, where
    ``order[k]`` is the member of the ``k``-th cell in label order and
    ``rank[m]`` the position of member ``m``'s cell.  Several members may
    share a cell (a pushout class, which ``_act`` restricts itself).
    ``_restrict(f)``, called once both ends are tabulated, lists the member
    of ``f.source`` that each member of ``f.target`` restricts to, and
    ``_members(M)`` the members' cells, built only for ``level`` and for
    label ties in ``_tabulate``.  Labels are composed from the parts' labels
    and equal ``cell_label`` of the cells.
    """

    def __init__(self):
        super().__init__()
        self._tabled: dict[ThetaObject, tuple[list, list, list]] = {}

    def _table(self, M: ThetaObject) -> tuple[list[int], list[int], list[str]]:
        if M.length > self.depth:   # a truncation met before is one lookup
            cut = _CUTS[self.depth].get(M)
            M = truncated(M, self.depth) if cut is None else cut
        got = self._tabled.get(M)
        if got is None:
            got = self._tabled[M] = self._tabulate(M)
        return got

    def order(self, M: ThetaObject) -> list[int]:      # each cell's member
        return self._table(M)[0]

    def rank(self, M: ThetaObject) -> list[int]:       # each member's position
        return self._table(M)[1]

    def _cells_of(self, M: ThetaObject) -> Callable[[int], object]:
        """Member ``m``'s cell over ``M``, the members built at the first call."""
        members = []

        def cell(m):
            if not members:
                members.extend(self._members(M))
            return members[m]
        return cell

    def _sort(self, M: ThetaObject, raw: list[str]) -> tuple[list, list, list]:
        """``(order, rank, labels)`` of members ``0..len(raw)-1``, one cell each."""
        order = sorted(range(len(raw)), key=_label_key(raw, self._cells_of(M)))
        rank = [0] * len(raw)
        for k, m in enumerate(order):
            rank[m] = k
        return order, rank, [raw[m] for m in order]

    def labels(self, M: ThetaObject) -> list[str]:
        return self._table(M)[2]

    def size(self, M: ThetaObject) -> int:
        return len(self._table(M)[2])

    def _level(self, M):
        order, _, labels = self._table(M)
        members = self._members(M)
        cells = [members[m] for m in order]
        return cells, labels, {c: k for k, c in enumerate(cells)}

    def _act(self, f):
        order, rank = self._table(f.target)[0], self._table(f.source)[1]
        return [rank[m] for m in map(self._restrict(f).__getitem__, order)]


class ProductTable(CompiledTable):
    """``A x B``: the cell ``(a_i, b_j)`` is member ``i * |B| + j``."""

    def __init__(self, TA: WindowTable, TB: WindowTable):
        super().__init__()
        self.TA, self.TB, self.depth = TA, TB, max(TA.depth, TB.depth)

    def _tabulate(self, M):
        right = self.TB.labels(M)
        return self._sort(M, ["(" + a + "," + b + ")"
                              for a in self.TA.labels(M) for b in right])

    def _members(self, M):
        right = self.TB.level(M)[0]
        return [(a, b) for a in self.TA.level(M)[0] for b in right]

    def _restrict(self, f):
        width, b = self.TB.size(f.source), self.TB.act(f)
        return [i * width + j for i in self.TA.act(f) for j in b]

    def pairs(self, M: ThetaObject) -> list[tuple[int, int]]:
        """The positions ``(i, j)`` in A and B of each cell over ``M``, in order."""
        width = self.TB.size(M)
        return [divmod(m, width) for m in self.order(M)]

    def positions(self, M: ThetaObject, pairs) -> list[int]:
        """The position over ``M`` of the cell of each pair of positions."""
        width, rank = self.TB.size(M), self.rank(M)
        return [rank[i * width + j] for i, j in pairs]


class PushoutTable(CompiledTable):
    """The pushout of ``f: R -> P`` and ``g: R -> Q``, given by the legs'
    ``Positions`` ``F`` and ``G`` and the tables of P and Q: members are the
    cells of P, then those of Q, by position, ranked by label (ties, only
    within a side, by position: ``_typed_key`` order).  ``presheaf.join``
    on ranks joins ``F[M][r]`` with ``|P| + G[M][r]`` for each position
    ``r`` of R, so each root is its class's least rank, its label-minimal
    member, which names the class and restricts as it, and one pass over
    the ranks lists the classes in label order."""

    def __init__(self, F: Positions, G: Positions, TP: WindowTable, TQ: WindowTable):
        super().__init__()
        self.F, self.G, self.TP, self.TQ = F, G, TP, TQ
        self.depth = max(TP.depth, TQ.depth)

    def _tabulate(self, M):
        raw = (["(L," + c + ")" for c in self.TP.labels(M)]
               + ["(R," + c + ")" for c in self.TQ.labels(M)])
        by_label = sorted(range(len(raw)), key=raw.__getitem__)    # ties by position
        at, shift = sorted(range(len(raw)), key=by_label.__getitem__), self.TP.size(M)
        root = join(len(raw), zip(map(at.__getitem__, self.F[M]),
                                  [at[shift + y] for y in self.G[M]]))
        order, rank = [], [0] * len(raw)
        for i, (m, r) in enumerate(zip(by_label, root)):
            rank[m] = rank[by_label[r]] if r < i else len(order)
            if r == i:
                order.append(m)
        return order, rank, [raw[m] for m in order]

    def _members(self, M):
        return ([("L", c) for c in self.TP.level(M)[0]]
                + [("R", c) for c in self.TQ.level(M)[0]])

    def _act(self, e):       # each class restricts as its label-minimal member
        p, q, rank = self.TP.act(e), self.TQ.act(e), self.rank(e.source)
        cut, shift = self.TP.size(e.target), self.TP.size(e.source)
        return [rank[p[m]] if m < cut else rank[shift + q[m - cut]] for m in self.order(e.target)]


class UpsilonTable(CompiledTable):
    """The edge complex tabled from its inputs' tables.  Level 0's members
    are the objects.  At ``(p, tail)`` the cells of one vertex path ``y``
    are a block of consecutive members, one for each tuple of positions of
    the covered inputs' cells at ``tail``, in ``itertools.product`` order.
    The paths, in ``combinations_with_replacement`` order, and the inputs
    each covers are one shape for every level of first entry ``p``; a level
    keeps only its blocks' starts.  A restriction reads each input's table
    along ``tail_morphism(f)`` once and maps a block at a time: the block's
    image is built by outer sums, one covered input at a time, of that
    input's positions times its stride in the image's block, the product of
    the sizes at the source's tail of the inputs covered after it."""

    def __init__(self, inputs: list, covered: Callable):
        super().__init__()
        # covered(y): the range of indices (from 1) of the inputs along the path y
        self.inputs, self.covered = inputs, covered
        self.depth = 1 + max(T.depth for T in inputs)
        # first entry -> (paths, each path's index, the inputs each covers)
        self._shapes: dict[int, tuple[list, dict, list]] = {}
        # level -> the first member of each path's block
        self._starts: dict[ThetaObject, list[int]] = {}

    def _shape(self, p: int) -> tuple[list, dict, list]:
        got = self._shapes.get(p)
        if got is None:
            ys = list(itertools.combinations_with_replacement(range(len(self.inputs) + 1),
                                                              p + 1))
            got = self._shapes[p] = (ys, {y: z for z, y in enumerate(ys)},
                                     [self.covered(y) for y in ys])
        return got

    def starts(self, M: ThetaObject) -> list[int]:
        """The first member of each path's block over ``M``, kept at the
        level ``M`` is read at."""
        self._table(M)      # which stored the truncation of a long ``M``
        return self._starts[_CUTS[self.depth][M] if M.length > self.depth else M]

    def _tabulate(self, M):
        if M.length == 0:
            return self._sort(M, [repr(o) for o in range(len(self.inputs) + 1)])
        tail = tail_object(M)
        labels = [T.labels(tail) for T in self.inputs]
        ys, _, covers = self._shape(M.entries[0])
        starts = self._starts[M] = []
        raw: list[str] = []
        for y, cover in zip(ys, covers):
            starts.append(len(raw))
            head = "((" + ",".join(map(repr, y)) + "),("
            raw += [head + ",".join(values) + "))" for values
                    in itertools.product(*(labels[i - 1] for i in cover))]
        return self._sort(M, raw)

    def _members(self, M):
        if M.length == 0:
            return list(range(len(self.inputs) + 1))
        tail = tail_object(M)
        cells = [T.level(tail)[0] for T in self.inputs]
        ys, _, covers = self._shape(M.entries[0])
        return [(y, values) for y, cover in zip(ys, covers)
                for values in itertools.product(*(cells[i - 1] for i in cover))]

    def _restrict(self, f):
        source, target = f.source, f.target
        if source.length:
            _, index, _ = self._shape(source.entries[0])
            starts = self._starts[source]

        def degenerate(o):
            return o if source.length == 0 else starts[index[(o,) * (source.entries[0] + 1)]]

        if target.length == 0:
            return [degenerate(o) for o in range(len(self.inputs) + 1)]
        ys, _, covers = self._shape(target.entries[0])
        comp0 = f.components[0]
        if len(set(comp0)) == 1:
            ends = self._starts[target] + [len(self._table(target)[0])]
            image = []
            for y, a, b in zip(ys, ends, ends[1:]):
                image += [degenerate(y[comp0[0]])] * (b - a)
            return image
        g = tail_morphism(f)
        return self._moved(source, g.source, ys, covers, operator.itemgetter(*comp0),
                           {i: [(i, T.act(g))] for i, T in enumerate(self.inputs, 1)})

    def _moved(self, M: ThetaObject, tail: ThetaObject, ys: list, covers: list,
               path: Callable, sends: dict) -> list[int]:
        """The member over ``M`` (of tail ``tail``) of each member of a level
        laid out in paths ``ys`` covering ``covers``, block by block: path
        ``y`` lands in ``path(y)``, and position ``x`` of its input ``j`` on
        ``act[x]`` of input ``t`` for each ``(t, act)`` in ``sends[j]``."""
        _, index, kept_of = self._shape(M.entries[0])
        starts, sizes = self.starts(M), [T.size(tail) for T in self.inputs]
        image = []
        for z, cover in zip(map(index.__getitem__, map(path, ys)), covers):
            kept, block = kept_of[z], [starts[z]]
            for j in cover:
                step = None
                for t, act in sends[j]:
                    s = math.prod(sizes[t:kept.stop - 1]) if t in kept else 0
                    step = ([s * x for x in act] if step is None
                            else [a + s * x for a, x in zip(step, act)])
                block = [a + b for a in block for b in step]
            image += block
        return image

    def map_from(self, D: "UpsilonTable", path: Callable, sends: Callable) -> Callable:
        """The position lists of a map from the edge complex of table ``D``
        that moves paths by ``path`` and inputs by ``sends(tail)``."""
        def at(M):
            order, rank = D.order(M), self.rank(M)
            if M.length == 0:
                return [rank[path((o,))[0]] for o in order]
            ys, _, covers = D._shape(M.entries[0])
            tail = tail_object(M)
            moved = self._moved(M, tail, ys, covers, path, sends(tail))
            return [rank[moved[m]] for m in order]
        return at

    def cases(self, left: tuple, right: tuple) -> Callable:
        """The position lists of ``constructions.upsilon_cases`` out of this
        edge complex on one pushout, a side given by ``(a, X x Y, U(X, Y), u)``."""
        TW = self.inputs[0]

        def at(M):
            order, (_, _, TL, lu) = self.order(M), left
            if M.length == 0:       # the merge face sends vertex v to 2v
                return [lu[M][TL.rank(M)[2 * o]] for o in order]
            tail = tail_object(M)
            (lu, lr, ls, lo), (ru, rr, rs, ro) = (
                (u[M], T.rank(M), T.starts(M), list(map(TX.order(tail).__getitem__, a[tail])))
                for a, TX, T, u in (left, right))
            index, shift, image = TL._shape(M.entries[0])[1], TW.TP.size(tail), []
            for y, cover in zip(*self._shape(M.entries[0])[::2]):
                z = index[tuple(2 * v for v in y)]
                image += ([lu[lr[ls[z] + lo[m]]] if m < shift else ru[rr[rs[z] + ro[m - shift]]]
                           for m in TW.order(tail)] if cover else [lu[lr[ls[z]]]])
            return [image[m] for m in order]
        return at


class DeloopingTable(CompiledTable):
    """The delooping of the input with table ``TX`` at its level-0 cell
    ``base``.  Member 0 is ``("wpt",)`` (``"pt"`` at length 0); at ``(p,
    tail)`` copies ``i = 1..p`` follow, each a block of ``("w", i, c)`` for
    the cells ``c`` of ``TX`` at ``tail`` but the base degeneracy, in
    position order.  A restriction reads ``TX`` along ``tail_morphism(f)``
    once and moves each copy's block whole to its slot ``l``, the one with
    ``comp0[l - 1] < i <= comp0[l]``, or collapses it."""

    def __init__(self, TX: WindowTable, base):
        super().__init__()
        self.TX, self.base, self._kept, self.depth = TX, base, {}, TX.depth + 1

    def _kept_at(self, M: ThetaObject) -> tuple[ThetaObject, list[int], int]:
        """The tail of ``M``, the kept positions there and the base's."""
        got = self._kept.get(M)
        if got is None:
            tail = tail_object(M)
            c = collapse_to_zero(tail)
            b = self.TX.act(c)[self.TX.level(c.target)[2][self.base]]
            got = self._kept[M] = (tail, [k for k in range(self.TX.size(tail)) if k != b], b)
        return got

    def _tabulate(self, M):
        if M.length == 0:
            return self._sort(M, ["pt"])
        tail, kept, _ = self._kept_at(M)
        labels = self.TX.labels(tail)
        return self._sort(M, ["(wpt)"] + ["(w," + repr(i) + "," + labels[k] + ")"
                                          for i in range(1, M.entries[0] + 1) for k in kept])

    def _members(self, M):
        if M.length == 0:
            return ["pt"]
        tail, kept, _ = self._kept_at(M)
        cells = self.TX.level(tail)[0]
        return [("wpt",)] + [("w", i, cells[k]) for i in range(1, M.entries[0] + 1) for k in kept]

    def _restrict(self, f):
        comp0 = f.components[0] if f.target.length else ()
        if f.source.length == 0 or len(set(comp0)) <= 1:
            return [0] * self.size(f.target)
        act, (_, kept, b) = self.TX.act(tail_morphism(f)), self._kept_at(f.source)
        # copy 1's image: member 0 for the base, else 1 + its kept index
        block = [0 if x == b else x + (x < b)
                 for x in map(act.__getitem__, self._kept_at(f.target)[1])]
        image, width, slots = [0], len(kept), [0] * (f.target.entries[0] + 1)
        for l in range(1, len(comp0)):
            slots[comp0[l - 1] + 1:comp0[l] + 1] = [l] * (comp0[l] - comp0[l - 1])
        for slot in slots[1:]:
            image += [y and y + (slot - 1) * width for y in block] if slot else [0] * len(block)
        return image


class MonoidalTable(CompiledTable):
    """``c^k`` of a monoid on a carrier of dimension ``m`` and table ``TA``:
    ``monoid(T)`` is ``(m, e)``, ``m[x * s + y]`` the product of positions
    ``x`` and ``y`` of TA at ``T`` and ``e`` the unit.  Over ``(p_1..p_k,
    tail)`` a member is a mixed-radix number with one digit, a position at
    ``tail``, per point of the grid ``[1..p_1] x ... x [1..p_k]`` in
    ``itertools.product`` order; below length k it is ``"pt"``.  A
    restriction non-constant in the first k directions maps the digits
    along the tail morphism and folds the products, from the unit, over the
    block of points each source point covers; any other is the unit grid."""

    def __init__(self, TA: WindowTable, m: int, k: int, monoid: Callable):
        super().__init__()
        self.TA, self.m, self.k, self.monoid = TA, m, k, functools.cache(monoid)
        self.depth = k + TA.depth

    def _shape(self, M: ThetaObject) -> tuple[ThetaObject, list[tuple[int, ...]]]:
        """The tail of ``M`` and the points of its grid, none below length k."""
        return object_of(self.m, M.entries[self.k:]), list(itertools.product(
            *(range(1, M.padded(d) + 1) for d in range(self.k))))

    def _tabulate(self, M):
        tail, grid = self._shape(M)
        self.monoid(tail)       # raises unless the monoid laws hold at the tail
        return self._sort(M, ["pt"] if M.length < self.k else [
            "(" + ",".join(c) + ")" for c in itertools.product(*(
                ["((" + ",".join(map(repr, pt)) + ")," + v + ")" for v in self.TA.labels(tail)]
                for pt in grid))])

    def _members(self, M):
        tail, grid = self._shape(M)
        return ["pt"] if M.length < self.k else [
            tuple(zip(grid, c))
            for c in itertools.product(self.TA.level(tail)[0], repeat=len(grid))]

    def _restrict(self, f):
        (tail, grid), (to, points) = self._shape(f.source), self._shape(f.target)
        (m, e), s, k, comps = self.monoid(tail), self.TA.size(tail), self.k, f.lift()
        if any(len(set(c)) == 1 for c in comps[:k]):
            return [sum(e * s ** i for i in range(len(grid)))] * self.size(f.target)
        act = self.TA.act(normalize_morphism(tail, to, comps[k:]))
        digits = dict(zip(points, zip(*itertools.product(act, repeat=len(points)))))
        image = [0] * self.size(f.target)
        for pt in grid:
            value = [e] * len(image)
            for q in itertools.product(*(range(comps[d][p - 1] + 1, comps[d][p] + 1)
                                         for d, p in enumerate(pt))):
                value = [m[v * s + x] for v, x in zip(value, digits[q])]
            image = [u * s + v for u, v in zip(image, value)]
        return image


class SubTable(WindowTable):
    """The sub-presheaf of the table ``TP`` of the cells ``c`` over each
    level ``M`` with ``keep_at(M)(c)``: the kept positions of each level of
    ``TP``, in ``TP``'s order, so no cell is labelled or sorted again.  A
    restriction is ``TP``'s, read between kept positions; one onto a cell
    that is not kept raises ``ActionDomainError``.  A level pair's lists
    read each distinct list of ``TP``'s pair once, in morphism order, so
    the first morphism that leaves the sub is the one named."""

    def __init__(self, TP: WindowTable, keep_at: Callable, name: str):
        super().__init__()
        self.TP, self.keep_at, self.name = TP, keep_at, name
        # level -> (kept positions of TP, the position here of each of TP's or -1)
        self._kept: dict[ThetaObject, tuple[list[int], list[int]]] = {}

    def _level(self, M):
        keep, (cells, labels, _) = self.keep_at(M), self.TP.level(M)
        kept = [k for k, c in enumerate(cells) if keep(c)]
        rank = [-1] * len(cells)
        for i, k in enumerate(kept):
            rank[k] = i
        self._kept[M] = kept, rank
        cells = [cells[k] for k in kept]
        return cells, [labels[k] for k in kept], {c: i for i, c in enumerate(cells)}

    def _act(self, f):
        cells, act = self.level(f.target)[0], self.TP.act(f)
        self.level(f.source)        # keeps the positions there
        rank = self._kept[f.source][1]
        return _within([rank[act[k]] for k in self._kept[f.target][0]], f, cells, self.name)

    def acts(self, s, t):
        cells, parent = self.level(t)[0], self.TP.acts(s, t)
        self.level(s)
        kept, rank, ids = self._kept[t][0], self._kept[s][1], list(map(id, parent))
        lists = dict(zip(ids, parent))      # each distinct list, by its first place
        for key, act in lists.items():
            got = lists[key] = [rank[act[k]] for k in kept]
            if -1 in got:       # named by the first morphism of that list
                _within(got, enumerate_morphisms(s, t)[ids.index(key)], cells, self.name)
        return list(map(lists.__getitem__, ids))


class SliceTable(WindowTable):
    """The slice ``T -> A at (prefix + T)`` of the table ``TA`` of an
    ``n``-precat A: each level is A's, and each position list A's along
    ``prepend_prefix``."""

    def __init__(self, TA: WindowTable, prefix: tuple[int, ...], n: int):
        super().__init__()
        self.TA, self.prefix, self.n = TA, prefix, n
        self.depth = max(TA.depth - len(prefix), 0)

    def _level(self, T):
        return self.TA.level(object_of(self.n, self.prefix + T.entries))

    def _act(self, g):
        return self.TA.act(prepend_prefix(self.prefix, g, self.n))


class TruncationTable(WindowTable):
    """The truncation at ``k`` of the ``n``-precat of table ``TA``.  Below
    length k a level is TA's at the same entries, read as a ``SliceTable``
    reads it; at length k, the classes of ``classes(full)`` (each cell of
    TA at the same entries ``full`` to its class, a frozenset) in label
    order.  A restriction is TA's along its lift to dimension ``n``; a class
    restricts as its ``repr``-minimal member."""

    def __init__(self, TA: WindowTable, n: int, k: int, classes: Callable):
        super().__init__()
        self.TA, self.n, self.k, self.classes = TA, n, k, classes
        # length-k level -> (each TA position's class, each class's representative)
        self._quotients: dict[ThetaObject, tuple[list[int], list[int]]] = {}

    def _level(self, M):
        full = object_of(self.n, M.entries)
        if M.length < self.k:
            return self.TA.level(full)
        (cells, _, index), of = self.TA.level(full), self.classes(full)
        order, _, position = got = _label_order(frozenset(of.values()))
        self._quotients[M] = ([position[of[x]] for x in cells],
                              [index[min(c, key=repr)] for c in order])
        return got

    def _act(self, f):
        self.level(f.source), self.level(f.target)      # fill _quotients
        act = self.TA.act(normalize_morphism(
            object_of(self.n, f.source.entries), object_of(self.n, f.target.entries),
            f.lift() + ((0,),) * (self.n - self.k)))
        if f.target.length == self.k:
            act = list(map(act.__getitem__, self._quotients[f.target][1]))
        if f.source.length == self.k:
            act = list(map(self._quotients[f.source][0].__getitem__, act))
        return act
