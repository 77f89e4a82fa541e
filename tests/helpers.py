"""Independent oracles for the test suite.

Nothing here goes through the package's morphism normal forms: the oracle
presheaves act on *raw* componentwise lifts between zero-padded objects, so
they can adjudicate which lifts the site quotient must identify.  Chains of
posets are stored in vertex form (monotone tuples), making simplicial
actions plain precomposition.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque

from precats import FiniteCategory, cell_label
from precats.presheaf import Positions, Precat, WindowTable, _typed_key
from precats.theta import InvalidMorphismError


def shared_tables(precats) -> set[int]:
    """The ids of the tables that ``precats`` keep: each one's own, and the
    tables its memo keeps, derived or in a key, each with its parts, a
    kept pushout's with the tables its legs' ``Positions`` read.  A
    lifetime check takes the bases alive before it (``presheaf._BASES``),
    whose tables precats it did not make keep alive."""
    ids, memos, todo = set(), [P.memo for P in precats], [P.table for P in precats]
    while memos:
        for key, (table, memo) in memos.pop().items():
            todo += [*key, table]
            memos.append(memo)
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo += x
        elif isinstance(x, Positions):
            todo += [cell.cell_contents for cell in x.build.__closure__ or ()]
        elif isinstance(x, WindowTable) and id(x) not in ids:
            ids.add(id(x))
            todo += vars(x).values()
    return ids


def table_precat(n: int, levels: dict, actions: dict, name: str = "table") -> Precat:
    """A precat given cell by cell: ``levels[M]`` lists the cells over ``M``
    and ``actions[f][c]`` restricts the cell ``c`` along ``f``."""
    return Precat(n, levels.__getitem__, lambda f, c: actions[f][c], name=name)


def monotone_tuples(a: int, b: int):
    """All monotone maps [a] -> [b] as image tuples (brute force)."""
    return list(itertools.combinations_with_replacement(range(b + 1), a + 1))


def raw_lifts(src_padded, tgt_padded):
    """All componentwise monotone lifts between two padded objects."""
    pools = [monotone_tuples(a, b) for a, b in zip(src_padded, tgt_padded)]
    return list(itertools.product(*pools))


class OraclePosetNerve:
    """Constancy presheaf sensitive to the first direction only.

    Levels are chains (monotone vertex tuples) of a poset 0 < ... < top with
    the first padded entry as chain length; the action precomposes with the
    first raw component.
    """

    def __init__(self, top: int):
        self.top = top
        self.name = f"nerve<={top}"

    def levels(self, padded):
        return monotone_tuples(padded[0], self.top)

    def act_raw(self, lift, src_padded, tgt_padded, cell):
        comp0 = lift[0]
        return tuple(cell[v] for v in comp0)


class OracleEnrichedNerve:
    """Constancy presheaf sensitive to the first two directions.

    Levels over padded ``(p, q, ...)`` are p-tuples of chains of the
    one-arrow poset at length q.  The second direction acts on each chain;
    the first direction regroups with pointwise-max composition, empty
    blocks filling with the all-zero chain.
    """

    name = "enriched-nerve"

    def levels(self, padded):
        p, q = padded[0], padded[1]
        return [tuple(ch) for ch in
                itertools.product(monotone_tuples(q, 1), repeat=p)]

    def act_raw(self, lift, src_padded, tgt_padded, cell):
        comp0, comp1 = lift[0], lift[1]
        moved = [tuple(w[v] for v in comp1) for w in cell]
        unit = (0,) * (src_padded[1] + 1)
        out = []
        for j in range(len(comp0) - 1):
            block = moved[comp0[j]:comp0[j + 1]]
            acc = unit
            for w in block:
                acc = tuple(max(x, y) for x, y in zip(acc, w))
            out.append(acc)
        return tuple(out)


def oracle_family(n: int):
    if n == 1:
        return [OraclePosetNerve(1), OraclePosetNerve(2)]
    if n == 2:
        return [OraclePosetNerve(1), OraclePosetNerve(2), OracleEnrichedNerve()]
    raise ValueError("oracle family is defined for dimensions 1 and 2")


def lifts_act_equal(n: int, src_padded, tgt_padded, lift1, lift2) -> bool:
    """Oracle verdict: do two raw lifts act identically on every oracle
    presheaf at every cell?"""
    for oracle in oracle_family(n):
        for cell in oracle.levels(tgt_padded):
            if oracle.act_raw(lift1, src_padded, tgt_padded, cell) != \
               oracle.act_raw(lift2, src_padded, tgt_padded, cell):
                return False
    return True


def raw_compose(lift_f, lift_g):
    """Componentwise composite f-after-g of raw lifts."""
    return tuple(tuple(fc[v] for v in gc) for fc, gc in zip(lift_f, lift_g))


def check_component(a: int, b: int, i: int, comp) -> None:
    """Reject a component ``i`` that is not monotone ``[a] -> [b]``, by three
    checks in turn: arity, range, order."""
    if len(comp) != a + 1:
        raise InvalidMorphismError(f"component {i} has wrong arity for [{a}]")
    if min(comp) < 0 or max(comp) > b:
        raise InvalidMorphismError(f"component {i} leaves [{b}]")
    if not all(map(operator.le, comp, comp[1:])):
        raise InvalidMorphismError(f"component {i} is not order-preserving")


# ---------------------------------------------------------------------------
# exhaustive small-category stream
# ---------------------------------------------------------------------------

def _candidate_tables(objects, arrows, src, tgt, ident):
    """Backtrack over composites of non-identity composable pairs."""
    nonid = [a for a in arrows if a not in ident.values()]
    pairs = [(a, b) for a in nonid for b in nonid if tgt[a] == src[b]]
    slots = {}
    for a, b in pairs:
        slots[(a, b)] = [c for c in arrows
                         if src[c] == src[a] and tgt[c] == tgt[b]]
    if any(not v for v in slots.values()):
        return
    keys = sorted(slots, key=repr)
    for choice in itertools.product(*(slots[k] for k in keys)):
        table = dict(zip(keys, choice))
        for a in arrows:
            table[(ident[src[a]], a)] = a
            table[(a, ident[tgt[a]])] = a
        yield table


def candidate_categories(max_objects: int = 3, max_nonid: int = 2):
    """Every ``(objects, arrows, src, tgt, ident, table)`` of a bounded
    enumeration, in a deterministic order: up to ``max_nonid`` generators
    between up to ``max_objects`` objects, with each choice of composites
    of composable generators of the right ends.  A table need not be
    associative."""
    for n_arr in range(0, max_nonid + 1):
        for n_obj in range(1, max_objects + 1):
            objects = tuple(range(n_obj))
            ident = {x: ("id", x) for x in objects}
            gens = tuple(("g", i) for i in range(n_arr))
            for ends in itertools.product(
                    itertools.product(objects, repeat=2), repeat=n_arr):
                arrows = tuple(ident.values()) + gens
                src = {a: a[1] for a in ident.values()}
                tgt = dict(src)
                for g, (s, t) in zip(gens, ends):
                    src[g], tgt[g] = s, t
                for table in _candidate_tables(objects, arrows, src, tgt, ident):
                    yield objects, arrows, src, tgt, ident, table


def enumerate_small_categories(limit: int = 10, max_objects: int = 3,
                               max_nonid: int = 2):
    """First ``limit`` categories of ``candidate_categories``, deduplicated
    up to isomorphism, in a deterministic order."""
    found = []
    for objects, arrows, src, tgt, ident, table in candidate_categories(max_objects,
                                                                        max_nonid):
        try:
            cat = FiniteCategory(objects, arrows, src, tgt, ident, table,
                                 name=f"enum{len(found)}")
        except Exception:
            continue
        if any(categories_isomorphic(cat, old) for old in found):
            continue
        found.append(cat)
        if len(found) >= limit:
            return found
    return found


def poset(less, size=4):
    """The poset on ``0..size-1`` with the given strict relations, which
    must be transitively closed, as a category."""
    objs = tuple(range(size))
    arrows = tuple(sorted({(x, x) for x in objs} | set(less)))
    return FiniteCategory(objs, arrows, {a: a[0] for a in arrows},
                          {a: a[1] for a in arrows}, {x: (x, x) for x in objs},
                          {(a, b): (a[0], b[1]) for a in arrows for b in arrows
                           if a[1] == b[0]})


def categories_isomorphic(C: FiniteCategory, D: FiniteCategory) -> bool:
    """Brute-force isomorphism of finite categories.  Object maps are built
    one object at a time, each object sent only to an unused object of equal
    (out, in) degree; every object map so built is then tried in full."""
    if len(C.objects) != len(D.objects) or len(C.arrows) != len(D.arrows):
        return False

    def hom(cat, x, y):
        return [a for a in cat.arrows if cat.src[a] == x and cat.tgt[a] == y]

    def degrees(cat):
        return {x: (sum(cat.src[a] == x for a in cat.arrows),
                    sum(cat.tgt[a] == x for a in cat.arrows)) for x in cat.objects}

    deg_c, deg_d = degrees(C), degrees(D)

    def object_maps(chosen):
        if len(chosen) == len(C.objects):
            yield chosen
            return
        x = C.objects[len(chosen)]
        for y in D.objects:
            if deg_d[y] == deg_c[x] and y not in chosen:
                yield from object_maps(chosen + (y,))

    for obj_map in object_maps(()):
        phi = dict(zip(C.objects, obj_map))
        homs = {}
        ok = True
        for x in C.objects:
            for y in C.objects:
                hc, hd = hom(C, x, y), hom(D, phi[x], phi[y])
                if len(hc) != len(hd):
                    ok = False
                    break
                homs[(x, y)] = (hc, hd)
            if not ok:
                break
        if not ok:
            continue
        pools = sorted(homs.values(), key=lambda v: len(v[0]))
        keys = [hc for hc, _ in pools]

        def search(idx, amap):
            if idx == len(pools):
                for a in C.arrows:
                    for b in C.arrows:
                        if C.tgt[a] == C.src[b] and \
                           amap[C.table[(a, b)]] != D.table[(amap[a], amap[b])]:
                            return False
                return all(amap[C.ident[x]] == D.ident[phi[x]] for x in C.objects)
            hc, hd = pools[idx]
            for perm in itertools.permutations(hd):
                amap.update(zip(hc, perm))
                if search(idx + 1, amap):
                    return True
            return False

        if search(0, {}):
            return True
    return False


# ---------------------------------------------------------------------------
# independent grouped edge complex (dual route for the central construction)
# ---------------------------------------------------------------------------

def grouped_upsilon(inputs):
    """Eager second implementation of the edge complex for cross-checks.

    Cells carry one *grouped* value per step of the vertex path (a tuple of
    input cells spanning that step), instead of one flat value per index.
    The action regroups explicitly, so any mismatch with the flat-indexed
    implementation would surface as a failed windowed isomorphism.
    """
    from precats import Precat, object_of
    from precats.theta import tail_morphism
    import itertools as it

    k = len(inputs)
    m = inputs[0].n

    def edge_pool(i, j, tail):
        # the product carried by the edge i -> j, as explicit tuples
        return [tuple(v) for v in
                it.product(*[inputs[t - 1].cells(tail) for t in range(i + 1, j + 1)])]

    def eval_fn(M):
        if M.length == 0:
            return range(k + 1)
        p = M.entries[0]
        tail = object_of(m, M.entries[1:])
        out = []
        for y in it.combinations_with_replacement(range(k + 1), p + 1):
            pools = [edge_pool(y[l], y[l + 1], tail) for l in range(p)]
            for groups in it.product(*pools):
                out.append((y, groups))
        return out

    def degenerate(M, o):
        if M.length == 0:
            return o
        p = M.entries[0]
        return ((o,) * (p + 1), ((),) * p)

    def act_fn(f, cell):
        if f.target.length == 0:
            return degenerate(f.source, cell)
        y, groups = cell
        comp0 = f.components[0]
        if len(set(comp0)) == 1:
            return degenerate(f.source, y[comp0[0]])
        g = tail_morphism(f)
        flat = {}
        for l, group in enumerate(groups):
            for offset, t in enumerate(range(y[l] + 1, y[l + 1] + 1)):
                flat[t] = inputs[t - 1].act(g, group[offset])
        new_y = tuple(y[v] for v in comp0)
        new_groups = tuple(
            tuple(flat[t] for t in range(new_y[l] + 1, new_y[l + 1] + 1))
            for l in range(len(new_y) - 1))
        return (new_y, new_groups)

    return Precat(m + 1, eval_fn, act_fn, name="grouped-edge-complex")


# ---------------------------------------------------------------------------
# per-cell-pool natural-map enumeration (dual route for the solver)
# ---------------------------------------------------------------------------

def enumerate_natural_components(P, Q, window):
    """Every levelwise map ``P -> Q`` commuting with the window's generators,
    as a list of ``{level: {cell: image}}``.

    Backtracks over levels like the package's solver, but gives each unforced
    cell its own pool of consistent images instead of grouping cells by
    restriction signature.
    """
    objs = window.objects(P.n)
    into, outof = {}, {}
    for e in window.elementary(P.n):
        into.setdefault(e.target, []).append(e)
        outof.setdefault(e.source, []).append(e)
    results = []
    assigned = {}

    def candidates(M):
        pcells = sorted(P.cells(M), key=cell_label)
        cons_in = [e for e in into.get(M, ()) if e.source in assigned]
        cons_out = [e for e in outof.get(M, ()) if e.target in assigned]
        forced = {}
        for e in cons_out:
            phi_t = assigned[e.target]
            for t in P.cells(e.target):
                src_cell = P.act(e, t)
                want = Q.act(e, phi_t[t])
                if forced.get(src_cell, want) != want:
                    return
                forced[src_cell] = want

        def consistent(c, d):
            return all(assigned[e.source][P.act(e, c)] == Q.act(e, d)
                       for e in cons_in)

        pools = []
        for c in pcells:
            if c in forced:
                pools.append([forced[c]] if consistent(c, forced[c]) else [])
            else:
                pools.append([d for d in sorted(Q.cells(M), key=cell_label)
                              if consistent(c, d)])
        for choice in itertools.product(*pools):
            yield dict(zip(pcells, choice))

    def solve(idx):
        if idx == len(objs):
            results.append({M: dict(phi) for M, phi in assigned.items()})
            return
        M = objs[idx]
        for phi in candidates(M):
            assigned[M] = phi
            solve(idx + 1)
            del assigned[M]

    solve(0)
    return results


# ---------------------------------------------------------------------------
# object-keyed natural-map solver (dual route for the compiled solver)
# ---------------------------------------------------------------------------

def natural_components_by_object(P, Q, window, bijective):
    """Every levelwise map ``P -> Q`` commuting with the window's generators,
    as ``{level: {cell: image}}`` with levels in window order.

    Backtracking over levels ordered by (length, entry sum).  A level's cells
    are forced along the generators out of it into already-matched levels;
    the rest are matched within groups of equal restriction signature along
    the generators into it.  With ``bijective`` only levelwise bijections are
    produced: each group is permuted onto an equal-sized group of ``Q``.

    Keeps cells, signatures and pools as the presheaves' own objects and
    re-sorts each level by label on every visit; the package's solver must
    yield the same solutions in the same order.
    """
    objs = window.objects(P.n)
    into = {}
    outof = {}
    for e in window.elementary(P.n):
        into.setdefault(e.target, []).append(e)
        outof.setdefault(e.source, []).append(e)
    assigned = {}

    def candidates(M):
        cons_in = [e for e in into.get(M, ()) if e.source in assigned]
        cons_out = [e for e in outof.get(M, ()) if e.target in assigned]
        forced = {}
        for e in cons_out:
            phi_t = assigned[e.target]
            for t in P.cells(e.target):
                src_cell = P.act(e, t)
                want = Q.act(e, phi_t[t])
                if forced.get(src_cell, want) != want:
                    return
                forced[src_cell] = want
        free = Q.cells(M)
        if bijective:
            used = set(forced.values())
            if len(used) != len(forced):
                return
            free = free - used

        def sig_p(c):
            return tuple(assigned[e.source][P.act(e, c)] for e in cons_in)

        def sig_q(d):
            return tuple(Q.act(e, d) for e in cons_in)

        groups = {}
        for c in sorted(P.cells(M), key=cell_label):
            if c in forced:
                if sig_q(forced[c]) != sig_p(c):
                    return
                continue
            groups.setdefault(sig_p(c), []).append(c)
        qgroups = {}
        for d in free:
            qgroups.setdefault(sig_q(d), []).append(d)
        if bijective and (set(groups) != set(qgroups) or any(
                len(qgroups[k]) != len(g) for k, g in groups.items())):
            return
        keys = sorted(groups, key=cell_label)
        pools = []
        for k in keys:
            images = sorted(qgroups.get(k, ()), key=cell_label)
            pools.append(itertools.permutations(images) if bijective else
                         itertools.product(images, repeat=len(groups[k])))
        for choice in itertools.product(*pools):
            phi = dict(forced)
            for k, chosen in zip(keys, choice):
                phi.update(zip(groups[k], chosen))
            yield phi

    def solve(idx):
        if idx == len(objs):
            yield dict(assigned)
            return
        M = objs[idx]
        for phi in candidates(M):
            assigned[M] = phi
            yield from solve(idx + 1)
        assigned.pop(M, None)

    yield from solve(0)



# ---------------------------------------------------------------------------
# brute-force equivalence closure (dual route for the pushout union-find)
# ---------------------------------------------------------------------------

def closure_classes(members, pairs):
    """Each member mapped to the label-minimal member of its connected
    component in the undirected graph of ``pairs``, found by BFS, label ties
    broken by ``_typed_key``."""
    members = list(members)
    neighbours = {x: [] for x in members}
    for x, y in pairs:
        neighbours[x].append(y)
        neighbours[y].append(x)
    table = {}
    for start in members:
        if start in table:
            continue
        component, queue = [start], deque([start])
        seen = {start}
        while queue:
            for y in neighbours[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    component.append(y)
                    queue.append(y)
        rep = min(component, key=lambda c: (cell_label(c), _typed_key(c)))
        for y in component:
            table[y] = rep
    return table


# ---------------------------------------------------------------------------
# all-morphism window laws (dual routes for the generator checks)
# ---------------------------------------------------------------------------

def all_pairs_functoriality_violations(P, window):
    """Failures of the identity law at each window level and of the
    composition law over every composable pair of window morphisms."""
    from precats.theta import compose, enumerate_morphisms, identity

    objs = window.objects(P.n)
    out = []
    for M in objs:
        for c in P.cells(M):
            if P.act(identity(M), c) != c:
                out.append(("identity", M, c))
    for a in objs:
        for b in objs:
            for c_obj in objs:
                for f in enumerate_morphisms(b, c_obj):
                    for g in enumerate_morphisms(a, b):
                        fg = compose(f, g)
                        for c in P.cells(c_obj):
                            if P.act(fg, c) != P.act(g, P.act(f, c)):
                                out.append(("composition", f, g, c))
    return out


def generator_functoriality_violations(P, window):
    """Failures of the identity law at every window level and of
    ``act(f∘e) == act(e)(act(f))`` for every window morphism ``f`` and
    generator ``e`` into its source: the full-window sweep, on the table,
    that ``check_functoriality`` makes when the depth it measures is n."""
    from precats.theta import compose, identity

    T, out = P.table, []
    for M in window.objects(P.n):
        out += [("identity", M, T.level(M)[0][k])
                for k, x in enumerate(T.act(identity(M))) if x != k]
    into: dict = {}
    for e in window.elementary(P.n):
        into.setdefault(e.target, []).append(e)
    for _, t, mors in window.morphisms(P.n):
        for f in mors:
            act_f = T.act(f)
            for e in into.get(f.source, ()):
                act_e = T.act(e)
                out += [("composition", f, e, T.level(t)[0][k]) for k, (x, y)
                        in enumerate(zip(T.act(compose(f, e)), act_f))
                        if x != act_e[y]]
    return out


def functoriality_against_the_sweep(P, window):
    """``check_functoriality(P, window)``, asserted to agree with the
    full-window generator sweep: the same verdict, and the same failures
    where it checked at depth n."""
    from precats import check_functoriality

    got, want = check_functoriality(P, window), generator_functoriality_violations(P, window)
    assert bool(got) == bool(want), (P.name, got.depth, got[:3], want[:3])
    assert got.depth < P.n or got == want, P.name
    return got


def all_morphism_naturality_violations(m, window):
    """Commuting failures of a map against every window morphism."""
    out = []
    for _, _, mors in window.morphisms(m.domain.n):
        for f in mors:
            for c in m.domain.cells(f.target):
                lhs = m.codomain.act(f, m.apply(f.target, c))
                rhs = m.apply(f.source, m.domain.act(f, c))
                if lhs != rhs:
                    out.append((f, c, lhs, rhs))
    return out


def generator_closure(window, n):
    """Every morphism reached from the window's identities by repeated
    right-composition with its generators, found by BFS."""
    from precats.theta import compose, identity

    into = {}
    for e in window.elementary(n):
        into.setdefault(e.target, []).append(e)
    reached = {identity(M) for M in window.objects(n)}
    queue = deque(reached)
    while queue:
        f = queue.popleft()
        for e in into.get(f.source, ()):
            fe = compose(f, e)
            if fe not in reached:
                reached.add(fe)
                queue.append(fe)
    return reached


# ---------------------------------------------------------------------------
# object-level comparison maps (dual route for the table-based Segal check)
# ---------------------------------------------------------------------------

def direction_vertices(M, d):
    """The two endpoint maps prefix -> (prefix, 1, ...) in direction d."""
    from precats.theta import normalize_morphism, object_of

    src = object_of(M.n, M.entries[:d])
    tgt = object_of(M.n, M.entries[:d] + (1,) + M.entries[d + 1:])
    out = []
    for v in (0, 1):
        lift = [tuple(range(src.padded(j) + 1)) for j in range(d)]
        lift.append((v,))
        lift += [(0,) * (src.padded(j) + 1) for j in range(d + 1, M.n)]
        out.append(normalize_morphism(src, tgt, lift))
    return out


def segal_map(A, M, d):
    """The comparison map at level M in direction d, with its target, on
    the presheaf's own cells.

    Returns (mapping dict cell -> tuple, target list of compatible tuples).
    """
    from precats.theta import segal_faces

    p = M.entries[d]
    faces = segal_faces(M, d)
    v0, v1 = direction_vertices(M, d)
    ones = A.cells(faces[0].source)
    mapping = {c: tuple(A.act(f, c) for f in faces) for c in A.cells(M)}
    target = []
    for tup in itertools.product(ones, repeat=p):
        if all(A.act(v1, tup[i]) == A.act(v0, tup[i + 1]) for i in range(p - 1)):
            target.append(tup)
    return mapping, target


# ---------------------------------------------------------------------------
# all-morphism Whitehead quantifier (dual route for the vertex-map check)
# ---------------------------------------------------------------------------

def whitehead_by_all_morphisms(A, a, k):
    """The Whitehead sub-presheaf by the sweep over every morphism into a
    level from a level of length <= k with entries bounded by the target's."""
    from precats import sub_precat, window_objects
    from precats.theta import enumerate_morphisms

    def keep_at(M):
        bound = max(M.entries, default=1)
        sources = [U for U in window_objects(A.n, bound) if U.length <= k]

        def keep(alpha):
            for U in sources:
                want = A.degeneracy(U, a)
                for u in enumerate_morphisms(U, M):
                    if A.act(u, alpha) != want:
                        return False
            return True

        return keep

    return sub_precat(A, keep_at, name=f"Wh>{k}-sweep({A.name})")


# ---------------------------------------------------------------------------
# cell-level presheaves (dual routes for the tables of composites, nerves,
# constant presheaves and deloopings)
# ---------------------------------------------------------------------------

class CellOracle:
    """A presheaf given cell by cell: ``cells(M)`` is memoized, and ``act``
    is the action itself, unchecked and unmemoized, since a table of it asks
    for each restriction once and fails on a cell outside the level."""

    def __init__(self, n, eval_fn, act_fn, name):
        self.n, self.act, self.name = n, act_fn, name
        self._eval_fn, self._levels = eval_fn, {}

    def cells(self, M):
        got = self._levels.get(M)
        if got is None:
            got = self._levels[M] = frozenset(self._eval_fn(M))
        return got


def discrete_oracle(n, labels):
    """The constant presheaf read cell by cell: every level holds
    ``labels`` and every restriction is the identity."""
    labels = tuple(labels)
    return CellOracle(n, lambda M: labels, lambda f, c: c, f"oracle-discrete{labels}")


def nerve_oracle(C, n=1):
    """The nerve of ``C`` padded to dimension ``n``, read cell by cell: level
    0 holds the objects and a level of first entry ``p`` the composable
    p-chains, found by a scan of all arrows; a cell restricts along the
    first component of each morphism, one run of the chain at a time."""
    def eval_fn(M):
        if M.length == 0:
            return C.objects
        chains = [()]
        for _ in range(M.entries[0]):
            chains = [ch + (a,) for ch in chains for a in C.arrows
                      if not ch or C.tgt[ch[-1]] == C.src[a]]
        return chains

    def vertex(chain, v):
        return C.src[chain[0]] if v == 0 else C.tgt[chain[v - 1]]

    def act_fn(f, cell):
        comp0 = f.components[0]
        if f.target.length == 0:
            x = cell
        elif len(set(comp0)) == 1:
            x = vertex(cell, comp0[0])
        else:
            return tuple(C.ident[vertex(cell, a)] if a == b else
                         functools.reduce(lambda u, w: C.table[(u, w)], cell[a:b])
                         for a, b in zip(comp0, comp0[1:]))
        if f.source.length == 0:
            return x
        return (C.ident[x],) * f.source.entries[0]

    return CellOracle(n, eval_fn, act_fn, f"oracle-N({C.name})@{n}")


def product_oracle(P, Q):
    """The product read cell by cell: the pairs of cells, acted on factorwise."""
    return CellOracle(P.n, lambda M: itertools.product(P.cells(M), Q.cells(M)),
                      lambda f, c: (P.act(f, c[0]), Q.act(f, c[1])),
                      f"oracle({P.name}x{Q.name})")


def pushout_oracle(f, g):
    """The pushout of ``f: R -> P`` and ``g: R -> Q`` read cell by cell: per
    level, a BFS closure (``closure_classes``) over the tagged cells
    ``("L", p)``, ``("R", q)``, joined along the legs; a class is its
    label-minimal member and restricts as that member does.  ``classes(M)``
    maps each tagged cell over ``M`` to its class."""
    R, P, Q = f.domain, f.codomain, g.codomain
    tables = {}

    def classes(M):
        got = tables.get(M)
        if got is None:
            got = tables[M] = closure_classes(
                itertools.chain((("L", c) for c in P.cells(M)),
                                (("R", c) for c in Q.cells(M))),
                ((("L", f.apply(M, r)), ("R", g.apply(M, r))) for r in R.cells(M)))
        return got

    def act(e, rep):
        side, c = rep
        return classes(e.source)[side, (P if side == "L" else Q).act(e, c)]

    oracle = CellOracle(P.n, lambda M: set(classes(M).values()), act, "oracle-po")
    oracle.classes = classes
    return oracle


def upsilon_oracle(inputs, legacy=False):
    """The edge complex read cell by cell: level 0 is ``0..k``; over
    ``(p, tail)`` a cell is a vertex path ``y`` with one cell at ``tail`` of
    each input the path covers, and it restricts along the first component,
    pushing the tail morphism into the covered inputs."""
    from precats import object_of
    from precats.constructions import _edge_indices
    from precats.theta import tail_morphism

    k, m = len(inputs), inputs[0].n

    def covered(y):
        return _edge_indices(y[0], y[-1], legacy)

    def eval_fn(M):
        if M.length == 0:
            return range(k + 1)
        tail = object_of(m, M.entries[1:])
        return [(y, values)
                for y in itertools.combinations_with_replacement(range(k + 1),
                                                                 M.entries[0] + 1)
                for values in itertools.product(
                    *(inputs[i - 1].cells(tail) for i in covered(y)))]

    def degenerate(M, o):
        return o if M.length == 0 else ((o,) * (M.entries[0] + 1), ())

    def act_fn(f, cell):
        if f.target.length == 0:
            return degenerate(f.source, cell)
        y, values = cell
        comp0 = f.components[0]
        if len(set(comp0)) == 1:
            return degenerate(f.source, y[comp0[0]])
        new_y = tuple(y[v] for v in comp0)
        g = tail_morphism(f)
        old = dict(zip(covered(y), values))
        return new_y, tuple(inputs[i - 1].act(g, old[i]) for i in covered(new_y))

    return CellOracle(m + 1, eval_fn, act_fn, "oracle-edge-complex")


def delooping_oracle(A):
    """The delooping of the pointed precat ``A`` read cell by cell: over
    ``(p, tail)`` the base cell ``("wpt",)`` and the copies ``("w", i, c)``,
    ``i = 1..p``, of each cell ``c`` of the input at ``tail`` other than the
    base degeneracy; copy ``i`` restricts into the slot ``l`` of the first
    component with ``comp0[l-1] < i <= comp0[l]``, or collapses."""
    from precats import object_of
    from precats.theta import tail_morphism

    X, a = A.space, A.base
    n = X.n

    def deg(T):
        return X.degeneracy(T, a)

    def eval_fn(M):
        if M.length == 0:
            return ("pt",)
        T = object_of(n, M.entries[1:])
        return [("wpt",)] + [("w", i, c) for i in range(1, M.entries[0] + 1)
                             for c in X.cells(T) if c != deg(T)]

    def collapse(M):
        return "pt" if M.length == 0 else ("wpt",)

    def act_fn(f, cl):
        if f.target.length == 0 or cl == ("wpt",):
            return collapse(f.source)
        comp0 = f.components[0]
        if len(set(comp0)) == 1 or f.source.length == 0:
            return collapse(f.source)
        _, i, c = cl
        slot = None
        for l in range(1, len(comp0)):
            if comp0[l - 1] < i <= comp0[l]:
                slot = l
                break
        if slot is None:
            return ("wpt",)
        c2 = X.act(tail_morphism(f), c)
        if c2 == deg(object_of(n, f.source.entries[1:])):
            return ("wpt",)
        return ("w", slot, c2)

    return CellOracle(n + 1, eval_fn, act_fn, f"oracle-X({X.name})")


def right_zero_monoid(commutative=False):
    """``x * y = y`` but for the unit ``e``: a monoid that is not
    commutative, so a product taken in the wrong order shows."""
    from precats import monoid_from_table

    return monoid_from_table(("e", "a", "b"), lambda x, y: x if y == "e" else y, "e",
                             commutative=commutative, name="right-zero")


def ck_oracle(mon, k):
    """``c^k`` of the monoid object ``mon`` read cell by cell: below length
    k the point; over ``(p_1..p_k, tail)`` a cell pairs each grid point with
    a carrier cell at ``tail``.  A restriction non-constant in each of the
    first k directions pushes each value along the tail morphism and
    multiplies, from the unit, the values of the block each source point
    covers; any other gives the unit grid."""
    from precats import object_of
    from precats.theta import normalize_morphism

    A = mon.carrier

    def grid(entries):
        return list(itertools.product(*[range(1, p + 1) for p in entries[:k]]))

    def unit(T):
        return mon.unit.apply(T, "pt")

    def eval_fn(M):
        if M.length < k:
            return ("pt",)
        pts = grid(M.entries)
        return [tuple(zip(pts, vals)) for vals in itertools.product(
            A.cells(object_of(A.n, M.entries[k:])), repeat=len(pts))]

    def act_fn(f, cl):
        comps = f.lift()
        T = object_of(A.n, f.source.entries[k:])
        if not all(len(set(comps[d])) > 1 for d in range(k)):
            return "pt" if f.source.length < k else tuple(
                (pt, unit(T)) for pt in grid(f.source.entries))
        g = normalize_morphism(T, object_of(A.n, f.target.entries[k:]), comps[k:])
        old = {pt: A.act(g, v) for pt, v in cl}
        out = []
        for pt in grid(f.source.entries):
            val = unit(T)
            for old_pt in itertools.product(*(range(comps[d][pt[d] - 1] + 1,
                                                    comps[d][pt[d]] + 1) for d in range(k))):
                val = mon.mult.apply(T, (val, old[old_pt]))
            out.append((pt, val))
        return tuple(out)

    return CellOracle(A.n + k, eval_fn, act_fn, f"oracle-c^{k}({A.name})")


def truncation_oracle(A, k):
    """The truncation at ``k`` read cell by cell: below length k the cells of
    A at the same entries; at length k the classes of ``_tau_zero_classes``
    of the slice there.  A restriction is A's along the lift to A's
    dimension, a class restricting as its ``repr``-minimal member."""
    from precats import object_of, slice_precat
    from precats.analysis import _tau_zero_classes
    from precats.theta import normalize_morphism

    @functools.cache
    def classes(full):
        return _tau_zero_classes(slice_precat(A, full.entries))

    def eval_fn(M):
        full = object_of(A.n, M.entries)
        return A.cells(full) if M.length < k else set(classes(full).values())

    def act_fn(f, cl):
        full_src = object_of(A.n, f.source.entries)
        lifted = normalize_morphism(full_src, object_of(A.n, f.target.entries),
                                    list(f.lift()) + [(0,)] * (A.n - k))
        image = A.act(lifted, cl if f.target.length < k else min(cl, key=repr))
        return image if f.source.length < k else classes(full_src)[image]

    return CellOracle(k, eval_fn, act_fn, f"oracle-tau<={k}({A.name})")


def sub_oracle(P, keep_at, name="oracle-sub"):
    """The sub-presheaf of the cells ``c`` of P over each level ``M`` with
    ``keep_at(M)(c)``, read cell by cell through P."""
    return CellOracle(P.n, lambda M: filter(keep_at(M), P.cells(M)), P.act, name)


def slice_oracle(A, prefix):
    """The slice ``T -> A at (prefix + T)``, read cell by cell through A
    along ``prepend_prefix``."""
    from precats import object_of
    from precats.theta import prepend_prefix

    return CellOracle(A.n - len(prefix),
                      lambda T: A.cells(object_of(A.n, prefix + T.entries)),
                      lambda g, c: A.act(prepend_prefix(prefix, g, A.n), c),
                      f"oracle-{A.name}@{prefix}")


def whitehead_keep(A, a, k):
    """The Whitehead predicate, cell by cell: every vertex map into ``M``
    from its first ``min(k, M.length)`` directions restricts the cell to the
    degeneracy of ``a``."""
    from precats import object_of
    from precats.theta import vertex

    def keep_at(M):
        d = min(k, M.length)
        want = A.degeneracy(object_of(A.n, M.entries[:d]), a)
        maps = [vertex(M, v, d) for v in range(M.padded(d) + 1)]
        return lambda alpha: all(A.act(u, alpha) == want for u in maps)

    return keep_at


def hom_keep(A, p, points):
    """The hom-fibre predicate on the slice of A at ``(p,)``, cell by cell:
    vertex ``v`` of the cell is ``points[v]``."""
    from precats import object_of
    from precats.theta import vertex

    def keep_at(T):
        full = object_of(A.n, (p,) + T.entries)
        maps = [vertex(full, v) for v in range(p + 1)]
        return lambda c: all(A.act(u, c) == x for u, x in zip(maps, points))

    return keep_at


def table_violations(T, oracle, window, generators_only=False):
    """Where the table ``T`` differs from the cell-level ``oracle`` on the
    window: a level's cells in label order, their labels, positions or size,
    or the restriction of a cell along a window morphism (along a generator
    only, with ``generators_only``).  The oracle's cells are labelled here
    as ``cell_label`` does, each object once per call: by ``id``, since the
    oracle's levels keep every labelled object alive, and ``1 == True``."""
    from precats.presheaf import _label_key

    memo = {}

    def label(c):
        got = memo.get(id(c))
        if got is None:
            if isinstance(c, tuple):
                got = "(" + ",".join(map(label, c)) + ")"
            elif isinstance(c, frozenset):
                got = "{" + ",".join(sorted(map(label, c))) + "}"
            else:
                got = c if isinstance(c, str) else repr(c)
            memo[id(c)] = got
        return got

    out, order, index = [], {}, {}
    for M in window.objects(oracle.n):
        labels = {c: label(c) for c in oracle.cells(M)}
        order[M] = sorted(labels, key=_label_key(labels))
        index[M] = {c: k for k, c in enumerate(order[M])}
        if T.level(M) != (order[M], [labels[c] for c in order[M]], index[M]) \
                or T.labels(M) != T.level(M)[1] or T.size(M) != len(order[M]):
            out.append(("level", M))
    morphisms = (window.elementary(oracle.n) if generators_only else
                 [f for _, _, mors in window.morphisms(oracle.n) for f in mors])
    return out + [("act", f) for f in morphisms if T.act(f) != [
        index[f.source].get(oracle.act(f, c)) for c in order[f.target]]]


# ---------------------------------------------------------------------------
# cell-level maps (dual routes for the position lists of maps)
# ---------------------------------------------------------------------------

def upsilon_map_oracle(maps, legacy=False):
    """The edge complex map of ``maps`` cell by cell: the path stays, and
    each covered input's cell goes through its map's ``apply``."""
    from precats import object_of
    from precats.constructions import _edge_indices

    def apply(M, cell):
        if M.length == 0:
            return cell
        y, values = cell
        tail = object_of(M.n - 1, M.entries[1:])
        idx = _edge_indices(y[0], y[-1], legacy)
        return (y, tuple(maps[i - 1].apply(tail, v) for i, v in zip(idx, values)))

    return apply


def upsilon_face_oracle(k, which, legacy=False, along=None):
    """The face ``which`` of the edge complex on ``k`` inputs cell by cell:
    the path through ``rho``, each value placed on its new input, a merged
    value (first sent through ``along``) split into its two factors."""
    from precats import object_of
    from precats.constructions import _edge_indices

    if which == "drop_last":
        rho, reindex = tuple(range(k)), {j: (j,) for j in range(1, k)}
    elif which == "drop_first":
        rho, reindex = tuple(range(1, k + 1)), {j: (j + 1,) for j in range(1, k)}
    else:
        i = which[1]
        rho = tuple(v if v < i else v + 1 for v in range(k))
        reindex = {j: (j,) if j < i else ((i, i + 1) if j == i else (j + 1,))
                   for j in range(1, k)}

    def apply(M, cell):
        if M.length == 0:
            return rho[cell]
        y, values = cell
        tail = object_of(M.n - 1, M.entries[1:])
        placed = {}
        for pos, j in enumerate(_edge_indices(y[0], y[-1], legacy)):
            targets = reindex[j]
            if len(targets) == 2:
                pair = values[pos] if along is None else along.apply(tail, values[pos])
                placed[targets[0]], placed[targets[1]] = pair
            else:
                placed[targets[0]] = values[pos]
        new_y = tuple(rho[v] for v in y)
        return (new_y, tuple(placed[t] for t in _edge_indices(new_y[0], new_y[-1], legacy)))

    return apply


def pushout_maps_oracle(po):
    """``(inl, inr, induced)`` of the pushout ``po`` cell by cell: a tagged
    cell goes to the label-minimal member of its class (found by BFS over
    the legs' cell images), and ``induced(u, v)`` sends a class as its
    member's side does."""
    classes = {}

    def rep(M, tagged):
        got = classes.get(M)
        if got is None:
            members = ([("L", c) for c in po.P.cells(M)]
                       + [("R", c) for c in po.Q.cells(M)])
            got = classes[M] = closure_classes(members, [
                (("L", po.f.apply(M, r)), ("R", po.g.apply(M, r))) for r in po.R.cells(M)])
        return got[tagged]

    def induced(u, v):
        return lambda M, c: (u if c[0] == "L" else v)(M, c[1])

    return (lambda M, c: rep(M, ("L", c)), lambda M, c: rep(M, ("R", c)), induced)


def generator_naturality_violations(m, window, apply=None):
    """Commuting failures ``(f, c, lhs, rhs)`` of a map against the window's
    generators, cell by cell through ``apply`` (the map's own by default)."""
    apply = apply or m.apply
    out = []
    for f in window.elementary(m.domain.n):
        for c in m.domain.cells(f.target):
            lhs = m.codomain.act(f, apply(f.target, c))
            rhs = apply(f.source, m.domain.act(f, c))
            if lhs != rhs:
                out.append((f, c, lhs, rhs))
    return out


def map_violations(m, apply, window):
    """Where the map ``m`` differs from the cell-level ``apply`` on the
    window: ``("at", M)`` for a level whose position list is not that of the
    images under ``apply``, and the generator failures of ``apply``."""
    out = []
    for M in window.objects(m.domain.n):
        index = m.codomain.table.level(M)[2]
        if m.at(M) != [index.get(apply(M, c)) for c in m.domain.table.level(M)[0]]:
            out.append(("at", M))
    return out + generator_naturality_violations(m, window, apply)


def upsilon_cases_oracle(left, right):
    """``constructions.upsilon_cases`` cell by cell, each side ``(a, u)``
    given by two cell-level functions: a cell on the class of ``(side, p)``
    goes through the face ``("merge", 1)`` (vertex ``v`` to ``2 v``) on
    ``a(p)``, then through that side's ``u``; any other cell through the
    left side's."""
    from precats import object_of

    def apply(M, cell):
        u = left[1]
        if M.length == 0:
            return u(M, 2 * cell)
        y, values = cell
        merged = tuple(2 * v for v in y)
        if not values:
            return u(M, (merged, ()))
        (side, p), = values
        a, u = left if side == "L" else right
        return u(M, (merged, a(object_of(M.n - 1, M.entries[1:]), p)))

    return apply


def morphism_dict(f):
    """A dump's entry for the morphism ``f``."""
    return {"source": list(f.source.entries), "target": list(f.target.entries),
            "components": [list(c) for c in f.components]}


def dump_window_oracle(P, window):
    """The dump of the window as a dict, one dict per action with its
    morphism's entry and a label -> label map, read off ``P.table``: the
    reference for ``presheaf.dump_json``, whose text is this dict's
    ``json.dumps`` with sorted keys and no spaces."""
    T = P.table
    levels = []
    for M in window.objects(P.n):
        labels = T.labels(M)
        assert len(set(labels)) == len(labels), f"cells of level {M} share a label"
        levels.append({"object": list(M.entries), "cells": labels})
    actions = []
    for s, t, mors in window.morphisms(P.n):
        source, target = T.labels(s), T.labels(t)
        for f in mors:
            actions.append({"morphism": morphism_dict(f), "map": {
                d: source[k] for d, k in zip(target, T.act(f))}})
    return {"n": P.n, "window": {"B": window.B}, "levels": levels,
            "actions": actions}
