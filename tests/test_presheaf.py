"""Presheaf-core laws: evaluation, actions, products, pushouts with their
universal property, cofibration checks, windowed isomorphism and dumps."""

import functools
import gc
import itertools
import json
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from precats import (FiniteCategory, Precat, PrecatMap, Window, cell_label,
                     check_functoriality, coproduct, discrete, dump_json,
                     enumerate_natural_maps, hom_precat,
                     identity_map, is_cofibration, iso_windowed, nerve,
                     object_of, point, precat_from_dump, product, pushout,
                     terminal_map, upsilon, zero_object)
from precats.constructions import (PointedPrecat, cell, ck_monoidal,
                                   delooping, pushout_product, sigma_free,
                                   z2_monoid)
from precats import presheaf as ps
from precats import suite as suite_mod
from precats.presheaf import (ActionDomainError, CellTable, PresheafError,
                              _certified, _natural_components)
from precats.theta import enumerate_morphisms, identity, normalize_morphism, truncated

import helpers

o = object_of
W2, W3 = Window(2), Window(3)


def two_points(n=0):
    return discrete(n, ("x", "y"))


# ---------------------------------------------------------------------------
# evaluation and actions
# ---------------------------------------------------------------------------

def test_terminal_is_singleton_everywhere():
    P = point(2)
    for M in W3.objects(2):
        assert P.size(M) == 1


def test_nerve_interval_level_counts():
    NI = nerve(FiniteCategory.interval(), 1)
    assert NI.size(o(1, [1])) == 3
    assert NI.size(o(1, [2])) == 4


def test_upsilon_two_point_level_one():
    U = upsilon([two_points()])
    cells = U.cells(o(1, [1]))
    assert len(cells) == 4
    by_path = {}
    for (y, values) in cells:
        by_path.setdefault(y, []).append(values)
    assert len(by_path[(0, 0)]) == 1
    assert len(by_path[(1, 1)]) == 1
    assert len(by_path[(0, 1)]) == 2


def test_evaluation_is_memoized_and_stable():
    U = upsilon([two_points()])
    M = o(1, [2])
    first = U.table.level(M)
    assert U.table.level(M) is first
    assert list(U.cells(M)) == first[0]


def test_act_identity_and_domain_error():
    NI = nerve(FiniteCategory.interval(), 1)
    M = o(1, [2])
    for c in NI.cells(M):
        assert NI.act(identity(M), c) == c
    with pytest.raises(ActionDomainError):
        NI.act(identity(M), "not-a-cell")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_act_lands_at_the_right_level(data):
    NIb = nerve(FiniteCategory.iso_interval(), 1)
    objs = W3.objects(1)
    s = data.draw(st.sampled_from(objs))
    t = data.draw(st.sampled_from(objs))
    f = data.draw(st.sampled_from(enumerate_morphisms(s, t)))
    cells = sorted(NIb.cells(t), key=cell_label)
    if not cells:
        return
    c = data.draw(st.sampled_from(cells))
    assert NIb.act(f, c) in NIb.cells(s)


def test_equal_normal_forms_act_identically_by_construction():
    NI = nerve(FiniteCategory.interval(), 2)
    s, t = o(2, [1]), o(2, [1, 1])
    forms = enumerate_morphisms(s, t)
    for f in forms:
        for c in NI.cells(t):
            assert NI.act(f, c) in NI.cells(s)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_with_terminal_is_identity_shaped():
    A = nerve(FiniteCategory.interval(), 1)
    P = product(point(1), A)
    assert iso_windowed(P, A, W3) is not None


def test_product_counts_multiply():
    A = nerve(FiniteCategory.interval(), 1)
    B = nerve(FiniteCategory.iso_interval(), 1)
    P = product(A, B)
    for M in W3.objects(1):
        assert P.size(M) == A.size(M) * B.size(M)


def test_product_of_intervals_level_one():
    U = upsilon([point(0)])
    P = product(U, U)
    assert P.size(o(1, [1])) == 9


def test_product_functorial():
    A = nerve(FiniteCategory.interval(), 1)
    P = product(A, upsilon([two_points()]))
    assert not check_functoriality(P, W2)


@pytest.mark.parametrize("build", [lambda n: discrete(n, ("a",)), ps.point, ps.empty],
                         ids=["discrete", "point", "empty"])
def test_constant_presheaves_need_a_dimension_of_zero_or_more(build):
    assert build(0).n == 0
    with pytest.raises(PresheafError, match="dimension -1 is negative"):
        build(-1)


def test_maps_compose_only_end_to_start():
    """``f.then(g)`` needs g to start at the very precat where f ends, not
    at another of the same dimension."""
    A, B, C = (discrete(1, (x,)) for x in "abc")
    f = PrecatMap(A, B, lambda M, c: "b", name="f")
    with pytest.raises(PresheafError, match="do not compose"):
        f.then(PrecatMap(C, A, lambda M, c: "a", name="g"))
    fh = f.then(PrecatMap(B, C, lambda M, c: "c", name="h"))
    assert (fh.domain, fh.codomain) == (A, C)
    assert fh.apply(zero_object(1), "a") == "c"


# ---------------------------------------------------------------------------
# pushouts
# ---------------------------------------------------------------------------

def test_pushout_over_empty_is_disjoint_union():
    po = coproduct(point(1), point(1))
    assert po.precat.size(o(1, [])) == 2
    for M in W2.objects(1):
        assert po.precat.size(M) == 2


def test_pushout_of_projections_collapses():
    two = two_points(0)
    sq = product(two, two)
    pr0 = PrecatMap(sq, two, lambda M, c: c[0], name="pr0")
    pr1 = PrecatMap(sq, two, lambda M, c: c[1], name="pr1")
    po = pushout(pr0, pr1)
    assert po.precat.size(o(0, [])) == 1


def test_sigma_one_level_counts():
    from precats import sigma_free
    s1 = sigma_free(1, 1)
    assert s1.space.size(o(1, [1])) == 2
    assert s1.space.size(o(1, [])) == 1


def test_pushout_functorial_and_maps_natural():
    A = nerve(FiniteCategory.interval(), 1)
    pt = point(1)
    at0 = PrecatMap(pt, A, lambda M, c: A.degeneracy(M, 0), name="at0")
    po = pushout(at0, identity_map(pt))
    assert not check_functoriality(po.precat, W2)
    assert not po.inl.naturality_violations(W2)
    assert not po.inr.naturality_violations(W2)


def _cocones(po, Z, window):
    """All commuting cocones (u, v) out of the pushout legs into Z."""
    out = []
    us = enumerate_natural_maps(po.f.codomain, Z, window)
    vs = enumerate_natural_maps(po.g.codomain, Z, window)
    for u in us:
        for v in vs:
            if all(u.apply(M, po.f.apply(M, r)) == v.apply(M, po.g.apply(M, r))
                   for M in window.objects(Z.n) for r in po.R.cells(M)):
                out.append((u, v))
    return out


def _pushout_diagram(diagram, n=1):
    """A small pushout and the targets (point, two points, N(I)) to map it to."""
    two = discrete(n, (0, 1))
    NI = nerve(FiniteCategory.interval(), n)
    if diagram == "span":
        R = point(n)
        f = PrecatMap(R, two, lambda M, c: 0, name="p0")
        g = PrecatMap(R, two, lambda M, c: 1, name="p1")
    elif diagram == "fold":
        R = two
        f = PrecatMap(R, two, lambda M, c: c, name="id")
        g = PrecatMap(R, point(n), lambda M, c: "pt", name="!")
    else:
        R = point(n)
        f = PrecatMap(R, NI, lambda M, c: NI.degeneracy(M, 0), name="v0")
        g = PrecatMap(R, point(n), lambda M, c: "pt", name="!")
    return pushout(f, g), (point(n), two, NI)


@pytest.mark.parametrize("diagram", ["span", "fold", "vertex"])
def test_pushout_universal_property_exhaustive(diagram):
    """Every commuting cocone factors uniquely through the pushout."""
    n = 1
    po, targets = _pushout_diagram(diagram, n)
    window = W2
    for Z in targets:
        cocones = _cocones(po, Z, window)
        all_maps = enumerate_natural_maps(po.precat, Z, window)
        for u, v in cocones:
            h = po.induced(u, v)
            assert not PrecatMap(po.precat, Z, h.apply).naturality_violations(window)
            matches = [H for H in all_maps if all(
                H.apply(M, po.inl.apply(M, c)) == u.apply(M, c)
                for M in window.objects(n) for c in po.f.codomain.cells(M)) and all(
                H.apply(M, po.inr.apply(M, c)) == v.apply(M, c)
                for M in window.objects(n) for c in po.g.codomain.cells(M))]
            assert len(matches) == 1


def test_pushout_merges_cells_with_equal_labels():
    """1 and "1" share the label "1"; gluing both to the point leaves one cell."""
    R, P = discrete(1, ("a", "b")), discrete(1, (1, "1"))
    f = PrecatMap(R, P, lambda M, c: 1 if c == "a" else "1", name="tie")
    po = pushout(f, terminal_map(R))
    for M in W2.objects(1):
        assert po.precat.size(M) == 1


_TIE_PUSHOUT = """
from precats import discrete, identity_map, pushout, terminal_map, zero_object
d = discrete(1, (1, "1"))
po = pushout(identity_map(d), terminal_map(d))
print(sorted(map(repr, po.precat.cells(zero_object(1)))))
print(d.table.level(zero_object(1))[0])
"""


def test_pushout_representative_does_not_hang_on_the_hash_seed():
    """Cells 1 and "1" tie on label; the class is named the same way, and a
    window table lists the two cells in the same order, under every hash
    seed."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    answers = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, "-c", _TIE_PUSHOUT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        answers.add(done.stdout.strip())
    assert answers == {"[\"('L', 1)\"]\n[1, '1']"}


_TRACED = """
import sys
sys.path.insert(0, sys.argv[1])
import precats
from tracer import Tracer
tracer = Tracer()
tracer.install()
from precats import constructions as cn, presheaf as ps
A = ps.Precat(1, lambda M: ("c",), lambda f, c: c, name="cells")
W, _ = cn.whitehead(cn.nerve(cn.FiniteCategory.iso_interval(), 2), 0, 1)
for P in (A, W):
    assert ps.check_functoriality(P, ps.Window(2)) == []
    ps.dump_json(P, ps.Window(2))
metrics = tracer.metrics()
print(metrics["presheaf.act.calls"], metrics["presheaf.levels_evaluated"])
"""


def test_benchmark_tracer_counts_act_calls_and_levels():
    """The benchmark's tracer, installed before any input is built, counts
    the ``Precat.act`` calls of a Whitehead sub, and the levels that a
    precat given cell by cell evaluates."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, "-c", _TRACED, os.path.join(root, "perfbench")],
                          env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    act_calls, levels = map(int, done.stdout.split())
    assert act_calls > 0 and levels > 0


def _corner_source():
    inc = cell(1, 1).inclusion
    return pushout_product(inc, inc).source


@pytest.mark.parametrize("build", ["cell", "corner"])
def test_pushouts_are_freed_without_the_cycle_collector(build):
    """A pushout, its precat and its inclusions hold no reference cycle."""
    gc.disable()
    try:
        if build == "cell":
            data = cell(2, 1)
            objs = [data, data.boundary, data.inclusion]
        else:
            data = _corner_source()
            objs = [data, data.precat, data.inl, data.inr]
        for M in W2.objects(1):
            objs[1].cells(M)
        refs = [weakref.ref(x) for x in objs]
        del data, objs
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("diagram", ["span", "fold", "vertex", "corner"])
def test_pushout_classes_match_bfs_closure(diagram):
    po = _corner_source() if diagram == "corner" else _pushout_diagram(diagram)[0]
    for M in W2.objects(1):
        members = [("L", c) for c in po.P.cells(M)] + [("R", c) for c in po.Q.cells(M)]
        pairs = [(("L", po.f.apply(M, r)), ("R", po.g.apply(M, r)))
                 for r in po.R.cells(M)]
        want = helpers.closure_classes(members, pairs)
        assert {x: po.class_of(M, x) for x in members} == want
        assert po.precat.cells(M) == frozenset(want.values())


def _join_cases():
    rng = random.Random(1975)
    yield 0, []
    yield 1, [(0, 0)]
    yield 5, []
    for size in range(1, 41):
        pairs = [(rng.randrange(size), rng.randrange(size))
                 for _ in range(rng.randrange(2 * size + 1))]
        pairs += [(x, x) for x in rng.sample(range(size), rng.randint(0, min(size, 3)))]
        pairs += rng.sample(pairs, min(len(pairs), 3))
        rng.shuffle(pairs)
        yield size, pairs


@pytest.mark.parametrize("size, pairs", list(_join_cases()))
def test_join_matches_bfs_closure(size, pairs):
    """``join``'s classes are the BFS components of the pairs (self-pairs
    and repeated pairs included), and each root is its class's least
    member, so no index lies below its root."""
    root = ps.join(size, pairs)
    want = helpers.closure_classes(range(size), pairs)
    classes: dict = {}
    for i in range(size):
        classes.setdefault(want[i], set()).add(i)
    assert len(root) == size
    assert ({frozenset(i for i in range(size) if root[i] == r) for r in set(root)}
            == set(map(frozenset, classes.values())))
    assert all(root[i] <= i for i in range(size))
    assert all(root[i] == min(classes[want[i]]) for i in range(size))


@pytest.mark.parametrize("diagram", ["span", "fold", "vertex"])
def test_window_table_agrees_with_the_precat(diagram):
    """A table's levels are the cells in label order, and its position lists
    are the precat's restrictions, cell by cell."""
    P = _pushout_diagram(diagram)[0].precat
    T = P.table
    for M in W2.objects(1):
        cells, labels, index = T.level(M)
        assert cells == sorted(P.cells(M), key=cell_label)
        assert labels == [cell_label(c) for c in cells]
        assert index == {c: k for k, c in enumerate(cells)}
    for s, t, mors in W2.morphisms(1):
        for f in mors:
            assert [T.level(s)[0][k] for k in T.act(f)] == \
                [P.act(f, c) for c in T.level(t)[0]]


def _solver_cells(P, Q, bijective):
    """The solver's solutions as ``{level: {cell: image}}``, read off its
    position lists through both tables."""
    return [{M: dict(zip(P.table.level(M)[0], [Q.table.level(M)[0][d] for d in phi]))
             for M, phi in comp.items()}
            for comp in _natural_components(P, Q, W2, bijective)]


def _component_set(components):
    return {frozenset((M, frozenset(phi.items())) for M, phi in comp.items())
            for comp in components}


@pytest.mark.parametrize("diagram", ["span", "fold", "vertex"])
def test_natural_map_solver_matches_per_cell_oracle(diagram):
    po, targets = _pushout_diagram(diagram)
    for Z in targets:
        got = _solver_cells(po.precat, Z, bijective=False)
        want = helpers.enumerate_natural_components(po.precat, Z, W2)
        assert got and len(got) == len(want)
        assert _component_set(got) == _component_set(want)


def _poset_nerve(less, size=4):
    return nerve(helpers.poset(less, size), 1)


@pytest.mark.parametrize("other, iso", [
    ({(2, 0), (2, 1), (2, 3)}, True),      # relabelled: bottom moved to 2
    ({(1, 0), (2, 0), (3, 0)}, False),     # opposite: a top, no bottom
])
def test_iso_search_finds_exactly_the_oracle_bijections(other, iso):
    P = _poset_nerve({(0, 1), (0, 2), (0, 3)})
    Q = _poset_nerve(other)
    bijective = [comp for comp in helpers.enumerate_natural_components(P, Q, W2)
                 if all(len(set(phi.values())) == len(phi) == Q.size(M)
                        for M, phi in comp.items())]
    assert bool(bijective) is iso
    assert (iso_windowed(P, Q, W2) is not None) is iso


def _bipartite_poset(edges, k=5):
    """The height-2 poset of a bipartite graph on ``k + k`` vertices: bottom
    ``b`` below top ``k + t`` for each edge ``(b, t)``, as a category."""
    return helpers.poset({(b, k + t) for b, t in edges}, 2 * k)


C10 = [(i, i) for i in range(5)] + [(i, (i + 1) % 5) for i in range(5)]
C4_C6 = ([(0, 0), (0, 1), (1, 0), (1, 1)]
         + [(i, i) for i in (2, 3, 4)] + [(i, 2 + (i - 1) % 3) for i in (2, 3, 4)])


def test_iso_search_effort_on_regular_bipartite_posets(monkeypatch):
    """C10 against C4+C6, both 2-regular, as W2 nerves of height-2 posets:
    colours cannot tell them apart, so the search runs to exhaustion.  Its
    effort is counted, not timed: the images drawn through ``_untaken``.
    A relabelled C10 against C10 gets a bijection."""
    draws = [0]
    untaken = ps._untaken

    def counting(*args):
        for d in untaken(*args):
            draws[0] += 1
            yield d

    monkeypatch.setattr(ps, "_untaken", counting)
    c10 = nerve(_bipartite_poset(C10), 1)
    assert iso_windowed(c10, nerve(_bipartite_poset(C4_C6), 1), W2) is None
    assert draws[0] == 39325
    swap = {0: 3, 1: 0, 2: 4, 3: 1, 4: 2}          # bottoms and tops alike
    relabelled = nerve(_bipartite_poset([(swap[b], swap[t]) for b, t in C10]), 1)
    iso = iso_windowed(c10, relabelled, W2)
    assert iso is not None
    for M in W2.objects(1):
        assert sorted(iso.at(M)) == list(range(relabelled.size(M)))


def _solver_cases():
    for diagram in ("span", "fold", "vertex"):
        po, targets = _pushout_diagram(diagram)
        for Z in (po.precat,) + targets:
            yield f"{diagram}->{Z.name}", po.precat, Z
    P = _poset_nerve({(0, 1), (0, 2), (0, 3)})
    yield "relabelled", P, _poset_nerve({(2, 0), (2, 1), (2, 3)})
    yield "opposite", P, _poset_nerve({(1, 0), (2, 0), (3, 0)})
    # two parallel pairs 0 => 1 and 2 => 3: two signature groups that both
    # branch, so the order of group keys shows in the solution sequence
    objs = (0, 1, 2, 3)
    ends = {"f": (0, 1), "g": (0, 1), "h": (2, 3), "k": (2, 3)}
    ends.update({x: (x, x) for x in objs})
    C = FiniteCategory(objs, tuple(ends), {a: s for a, (s, _) in ends.items()},
                       {a: t for a, (_, t) in ends.items()}, {x: x for x in objs},
                       {(a, b): b if a in objs else a for a in ends for b in ends
                        if ends[a][1] == ends[b][0]})
    N = nerve(C, 1)
    yield "parallel-pairs", N, N
    # chains 0 < 1 and 3 < 4 beside the lone 2: level 0 is one signature
    # group whose colours run A B C A B in label order, so the colour filter
    # picks interleaved positions, and both chains can swap
    yield "interleaved-colours", _poset_nerve({(0, 1), (3, 4)}, 5), \
        _poset_nerve({(4, 0), (1, 3)}, 5)


@pytest.mark.parametrize("bijective", [True, False])
def test_compiled_solver_matches_object_keyed_oracle(bijective):
    """Same solutions in the same order; the iso search returns the oracle's
    first bijection, and None where the oracle has none."""
    positives = negatives = 0
    for case, P, Q in _solver_cases():
        got = _solver_cells(P, Q, bijective)
        want = list(helpers.natural_components_by_object(P, Q, W2, bijective))
        assert got == want, case
        if not bijective:
            continue
        iso = iso_windowed(P, Q, W2)
        if not want:
            assert iso is None, case
            negatives += 1
            continue
        positives += 1
        assert {M: {c: iso.apply(M, c) for c in P.cells(M)}
                for M in W2.objects(P.n)} == want[0], case
    assert not bijective or (positives >= 4 and negatives >= 4)


def test_interleaved_colour_case_is_what_it_claims():
    P = dict((case, P) for case, P, _ in _solver_cases())["interleaved-colours"]
    level0 = next(ps._colours(P.table, W2.objects(1), W2.elementary(1)))
    a, b, c = level0[0], level0[1], level0[2]
    assert level0 == [a, b, c, a, b] and len({a, b, c}) == 3


@pytest.mark.parametrize("pools", [
    [], [[]], [[1, 2], [], [3]], [[1, 2, 3], [4, 5], [6, 7, 8]], [[0]],
    [[1, 2], [3, 4], [5]], [[1], [2, 3], []],
    [[0, 1]] + [[2]] * 3000,        # deeper than the recursion limit
])
def test_lazy_product_keeps_product_order(pools):
    """Pools that ignore the prefix give ``itertools.product`` order; each
    pool is drawn with the prefix chosen before it, here shifting its
    entries by the prefix's length and last entry."""
    assert list(ps._lazy_product([lambda chosen, p=p: iter(p) for p in pools])) == \
        list(itertools.product(*pools))

    def shifted(p, chosen):
        return [x + 10 * len(chosen) + (chosen[-1] if chosen else 0) for x in p]

    want = [()]
    for p in pools:
        want = [t + (y,) for t in want for y in shifted(p, t)]
    assert list(ps._lazy_product([functools.partial(shifted, p) for p in pools])) == want


def _count_draws(monkeypatch) -> list:
    """The images the bijective search draws, in order, from ``_untaken``."""
    drawn, untaken = [], ps._untaken

    def counting(*args):
        for d in untaken(*args):
            drawn.append(d)
            yield d

    monkeypatch.setattr(ps, "_untaken", counting)
    return drawn


def test_identity_of_eight_points_found_without_building_the_pool(monkeypatch):
    """Eight level-0 cells form one group of 8! permutations; the search
    draws one image per cell and is done, instead of building all of them."""
    drawn = _count_draws(monkeypatch)
    D = discrete(1, range(8))
    iso = iso_windowed(D, D, W2)
    assert all(iso.apply(M, c) == c for M in W2.objects(1) for c in range(8))
    assert drawn == list(range(8))


@pytest.mark.parametrize("n, size, B", [(1, 1100, 2), (0, 3000, 1)])
def test_iso_of_a_large_group_draws_one_image_per_cell(n, size, B, monkeypatch):
    """A level group of thousands of cells, more than the recursion limit,
    is searched one cell at a time on one explicit stack: the identity
    comes out after one draw per cell."""
    drawn, window = _count_draws(monkeypatch), Window(B)
    D = discrete(n, range(size))
    iso = iso_windowed(D, D, window)
    assert all(iso.at(M) == list(range(size)) for M in window.objects(n))
    assert drawn == list(range(size))


@pytest.mark.parametrize("size", range(6))
def test_coloured_permutations_filter_permutations_in_order(size):
    """Every colouring of a group of ``size`` cells with at most three
    colours, up to renaming the colours: one ``_untaken`` pool per cell
    gives the colour-respecting permutations in ``itertools`` order, and
    frees every image it took once it is exhausted."""
    images = [2 * d + 1 for d in range(size)]       # not positions 0..size-1
    colour = [None] * (2 * size + 1)
    for colouring in itertools.product(range(3), repeat=size):
        if list(dict.fromkeys(colouring)) != list(range(len(set(colouring)))):
            continue                                # a renaming of another
        for d, k in zip(images, colouring):
            colour[d] = k
        wants = set(itertools.permutations(colouring))
        if size:
            wants.add((3,) + colouring[1:])         # a colour no image has
        for want in sorted(wants):
            taken = [False] * len(colour)
            got = list(ps._lazy_product([functools.partial(ps._untaken, images, colour,
                                                           w, taken) for w in want]))
            assert got == [p for p in itertools.permutations(images)
                           if all(colour[d] == w for d, w in zip(p, want))]
            assert not any(taken)


_TWO_2_CROWNS = {(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)}
_4_CROWN = {(0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 4)}


@pytest.mark.parametrize("less, other, size, colours_agree, iso", [
    # equal colours at every level, no iso: decided by the search
    (_TWO_2_CROWNS, _4_CROWN, 8, True, False),
    # the 4-crown relabelled by x -> 3x mod 8
    (_4_CROWN, {(3 * a % 8, 3 * b % 8) for a, b in _4_CROWN}, 8, True, True),
    # a bottom under a chain against its opposite: colours already differ
    ({(0, 1), (0, 2), (0, 3), (1, 2)}, {(1, 0), (2, 0), (3, 0), (2, 1)}, 4,
     False, False),
])
def test_iso_verdicts_beyond_colour_classes(less, other, size, colours_agree, iso):
    P, Q = helpers.poset(less, size), helpers.poset(other, size)
    NP, NQ = nerve(P, 1), nerve(Q, 1)
    objs, gens = W2.objects(1), W2.elementary(1)
    agree = all(sorted(cp) == sorted(cq) for cp, cq in zip(
        ps._colours(NP.table, objs, gens),
        ps._colours(NQ.table, objs, gens)))
    assert agree is colours_agree
    assert helpers.categories_isomorphic(P, Q) is iso
    found = iso_windowed(NP, NQ, W2)
    assert (found is not None) is iso
    if found is not None:
        assert not found.naturality_violations(W2)


def test_solver_maps_raise_a_typed_error_outside_their_window():
    N = nerve(FiniteCategory.interval(), 1)
    maps = [iso_windowed(N, N, W2)] + enumerate_natural_maps(N, N, W2)
    assert len(maps) > 1
    for f in maps:
        with pytest.raises(PresheafError, match=r"level Obj\(3,\)@1.*B=2"):
            f.apply(object_of(1, [3]), 0)
        with pytest.raises(PresheafError, match=r"'no cell'.*B=2"):
            f.apply(zero_object(1), "no cell")


# ---------------------------------------------------------------------------
# cofibrations
# ---------------------------------------------------------------------------

def test_cofibration_examples():
    A = nerve(FiniteCategory.interval(), 1)
    pt = point(1)
    incl = PrecatMap(pt, A, lambda M, c: A.degeneracy(M, 0), name="{0}")
    assert is_cofibration(incl, W3)
    collapse = PrecatMap(two_points(1), pt, lambda M, c: "pt", name="!")
    assert not is_cofibration(collapse, W3)
    collapse0 = PrecatMap(two_points(0), point(0), lambda M, c: "pt", name="!")
    assert is_cofibration(collapse0, W3)


# ---------------------------------------------------------------------------
# windowed isomorphism
# ---------------------------------------------------------------------------

def test_iso_reflexive():
    A = nerve(FiniteCategory.iso_interval(), 1)
    assert iso_windowed(A, A, W3) is not None


def test_iso_negative_by_counts():
    NI = nerve(FiniteCategory.interval(), 1)
    NIb = nerve(FiniteCategory.iso_interval(), 1)
    assert iso_windowed(NI, NIb, W2) is None


def test_iso_symmetric():
    from precats import sigma_free, suspension, PointedPrecat
    s1 = sigma_free(1, 2)
    S = suspension(PointedPrecat(discrete(1, (0, 1)), 0))
    assert iso_windowed(S.precat, s1.space, W2) is not None
    assert iso_windowed(s1.space, S.precat, W2) is not None


def test_iso_needs_naturality_not_just_counts():
    """Two tables with equal counts but incompatible actions do not match."""
    n = 1
    objs = W2.objects(n)
    zero, one, two_l = objs[0], objs[1], objs[2]
    levels = {M: ("a", "b") for M in objs}
    verts = enumerate_morphisms(zero, one)

    def tables(flip):
        acts = {f: {"a": "a", "b": "b"} for s in objs for t in objs
                for f in enumerate_morphisms(s, t)}
        if flip:
            for f in verts:
                acts[f] = {"a": "b", "b": "a"}
        return helpers.table_precat(n, levels, acts, name=f"tbl{flip}")

    straight, flipped = tables(False), tables(True)
    assert not check_functoriality(straight, W2)
    assert iso_windowed(straight, straight, W2) is not None
    got = iso_windowed(straight, flipped, W2)
    if got is not None:
        assert not got.naturality_violations(W2)


def test_certified_isos_pass_the_cell_level_oracle(monkeypatch):
    """Every bijection the solver certifies on its tables is natural by the
    cell-by-cell check, on the acceptance catalogue and the W2 suite."""
    found = []
    real = ps.iso_windowed

    def recording(P, Q, window):
        iso = real(P, Q, window)
        if iso is not None:
            found.append((iso, window))
        return iso

    monkeypatch.setattr(ps, "iso_windowed", recording)
    for P in _acceptance_catalogue():
        assert ps.iso_windowed(P, P, W2) is not None, P.name
    assert suite_mod.run_suite(2).passed
    assert len(found) > 100
    for iso, window in found:
        assert iso.naturality_violations(window) == [], iso.domain.name


def test_certificate_rejects_two_swapped_images():
    """Swapping the images of two edges with different endpoints breaks
    naturality; the table certificate and the cell-level oracle both say so."""
    A = nerve(FiniteCategory.interval(), 1)
    TP = TQ = A.table
    gens = W2.elementary(1)
    ident = {M: list(range(len(TP.level(M)[0]))) for M in W2.objects(1)}
    assert _certified(TP, TQ, gens, ident)
    edge = o(1, [1])
    assert len(TP.level(edge)[0]) == 3
    swapped = dict(ident)
    swapped[edge] = [1, 0, 2]
    assert not _certified(TP, TQ, gens, swapped)
    images = {M: [TQ.level(M)[0][d] for d in phi] for M, phi in swapped.items()}
    m = PrecatMap(A, A, lambda M, c: images[M][TP.level(M)[2][c]], name="swap")
    assert m.naturality_violations(W2)


def test_iso_agrees_with_dump_equality():
    A1 = nerve(FiniteCategory.interval(), 1)
    A2 = nerve(FiniteCategory.interval(), 1)
    assert dump_json(A1, W2) == dump_json(A2, W2)
    assert iso_windowed(A1, A2, W2) is not None


# ---------------------------------------------------------------------------
# functoriality reports
# ---------------------------------------------------------------------------

def test_functoriality_negative_control():
    """A hand-corrupted action table is reported with the offending entry."""
    n = 1
    objs = W2.objects(n)
    levels = {M: ("a", "b") for M in objs}
    acts = {f: {"a": "a", "b": "b"} for s in objs for t in objs
            for f in enumerate_morphisms(s, t)}
    bad_mor = enumerate_morphisms(objs[0], objs[1])[0]
    acts[bad_mor] = {"a": "b", "b": "b"}
    corrupted = helpers.table_precat(n, levels, acts, name="bad")
    violations = check_functoriality(corrupted, W2)
    assert violations
    assert any(bad_mor in v for v in violations)


def _corrupted_table(bad_mor):
    """Two cells at every W2 level of dimension 1, every action the identity
    except ``bad_mor`` sending ``a`` to ``b``."""
    objs = W2.objects(1)
    acts = {f: {"a": "a", "b": "b"} for s in objs for t in objs
            for f in enumerate_morphisms(s, t)}
    acts[bad_mor] = {"a": "b", "b": "b"}
    return helpers.table_precat(1, {M: ("a", "b") for M in objs}, acts,
                                name="bad")


@pytest.mark.parametrize("bad_mor, is_generator", [
    (enumerate_morphisms(o(1, []), o(1, [1]))[0], True),
    (enumerate_morphisms(o(1, [2]), o(1, [2]))[0], False),
], ids=["generator", "composite"])
def test_functoriality_agrees_with_all_pairs_on_corrupted_tables(
        bad_mor, is_generator):
    """A corrupted action is caught through the generators even when the
    corrupted morphism is not itself a generator."""
    assert (bad_mor in W2.elementary(1)) == is_generator
    corrupted = _corrupted_table(bad_mor)
    violations = check_functoriality(corrupted, W2)
    assert violations
    assert helpers.all_pairs_functoriality_violations(corrupted, W2)
    assert any(bad_mor in v for v in violations)


def _acceptance_catalogue():
    """The acceptance gate's functoriality catalogue."""
    return [
        nerve(FiniteCategory.iso_interval(), 1),
        nerve(FiniteCategory.chain(2), 2),
        sigma_free(1, 2).space,
        delooping(PointedPrecat(discrete(1, (0, 1)), 0)),
        ck_monoidal(z2_monoid(), 2),
        product(nerve(FiniteCategory.interval(), 1), sigma_free(1, 1).space),
    ]


def test_functoriality_agrees_with_all_pairs_on_acceptance_catalogue():
    """The generator check and the all-pairs oracle both pass the
    acceptance gate's functoriality catalogue on W2."""
    for P in _acceptance_catalogue():
        assert not check_functoriality(P, W2), P.name
        assert not helpers.all_pairs_functoriality_violations(P, W2), P.name


def _long_fault():
    """The nerve of the interval at n = 2, given cell by cell, with one
    action between levels of length 2 wrong: the constant 1 in direction 2
    on (1, 1), whose truncation at depth 1 is the identity of (1,), sends
    every cell to the first cell of its level.  Its sizes factor at depth
    1, its actions at no depth below 2."""
    N = nerve(FiniteCategory.interval(), 2)
    bad = normalize_morphism(o(2, [1, 1]), o(2, [1, 1]), [(0, 1), (1, 1)])
    assert truncated(bad, 1) is identity(o(2, [1]))
    return bad, Precat(2, N.cells, lambda f, c: (next(iter(N.cells(f.source)))
                                                 if f is bad else N.act(f, c)), "long")


def test_functoriality_at_depth_agrees_with_the_generator_sweep():
    """``check_functoriality`` gives the verdict of the full-window
    generator sweep (``helpers.generator_functoriality_violations``) on
    the acceptance catalogue and on corrupted tables, and its failures
    where it measured depth n: at the depth of the catalogue's data, and
    at n = 2 on a table whose one long action does not factor."""
    depths = [helpers.functoriality_against_the_sweep(P, W2).depth
              for P in _acceptance_catalogue()]
    assert depths == [1, 1, 1, 1, 2, 1]
    for bad_mor in (enumerate_morphisms(o(1, []), o(1, [1]))[0],
                    enumerate_morphisms(o(1, [2]), o(1, [2]))[0]):
        assert helpers.functoriality_against_the_sweep(_corrupted_table(bad_mor), W2)
    bad, P = _long_fault()
    assert P.size(o(2, [2, 1])) == P.size(o(2, [2])) != P.size(zero_object(2))
    got = helpers.functoriality_against_the_sweep(P, W2)
    assert got.depth == 2 and any(bad in v for v in got)


@pytest.mark.parametrize("n, B", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
                                  (3, 2)])
def test_generators_reach_every_window_morphism(n, B):
    """Certificate of the claim the generator checks rest on: every window
    morphism is a composite of generators inside the window.  These windows
    cover every ``check_functoriality`` call of the test suite."""
    window = Window(B)
    every = {f for _, _, mors in window.morphisms(n) for f in mors}
    assert helpers.generator_closure(window, n) == every


def test_functoriality_of_pushout_of_validated_maps():
    two = two_points(1)
    NI = nerve(FiniteCategory.interval(), 1)
    incl = PrecatMap(two, NI,
                     lambda M, c: NI.degeneracy(M, 0 if c == "x" else 1),
                     name="j")
    bang = PrecatMap(two, point(1), lambda M, c: "pt", name="!")
    assert not incl.naturality_violations(W2)
    po = pushout(incl, bang)
    assert not check_functoriality(po.precat, W2)


# ---------------------------------------------------------------------------
# locality of constructions
# ---------------------------------------------------------------------------

def test_locality_of_upsilon_levels():
    inner, seen = nerve(FiniteCategory.interval(), 1), []

    def eval_fn(M):
        seen.append(M)
        return inner.cells(M)

    U = upsilon([Precat(inner.n, eval_fn, inner.act, name="rec")])
    M = o(2, [2, 1])
    U.cells(M)
    assert seen
    assert all(max(M.entries, default=1) <= 2 for M in seen)


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

def test_dump_is_canonical_and_deterministic():
    a = dump_json(upsilon([two_points()]), W2)
    b = dump_json(upsilon([two_points()]), W2)
    assert a == b
    data = json.loads(a)
    assert data["n"] == 1 and data["window"] == {"B": 2}
    levels = [tuple(lv["object"]) for lv in data["levels"]]
    assert levels == sorted(levels, key=lambda e: (len(e), sum(e), e))
    for lv in data["levels"]:
        assert lv["cells"] == sorted(lv["cells"])


def test_dump_roundtrip_preserves_structure():
    U = upsilon([two_points()])
    data = json.loads(ps.dump_json(U, W2))
    back = precat_from_dump(data)
    assert iso_windowed(U, back, W2) is not None
    assert not check_functoriality(back, W2)
    assert json.loads(ps.dump_json(back, W2))["levels"] == data["levels"]


def test_dump_rejects_cells_with_equal_labels():
    """1 and "1" share the label "1"; a dump would merge them into one cell."""
    with pytest.raises(PresheafError, match=r"share the label '1'"):
        json.loads(ps.dump_json(discrete(1, (1, "1")), Window(1)))


def test_hom_precat_fibers():
    NIb = nerve(FiniteCategory.iso_interval(), 1)
    h01 = hom_precat(NIb, 1, (0, 1))
    assert h01.cells(o(0, [])) == frozenset({("u",)})
    h00 = hom_precat(NIb, 1, (0, 0))
    assert h00.cells(o(0, [])) == frozenset({("id0",)})


def test_hom_precat_needs_objects_of_its_precat():
    """A base point that is no object is named, not read as an empty fiber."""
    NI = nerve(FiniteCategory.interval(), 1)
    with pytest.raises(PresheafError, match="'nope' is not an object of N"):
        hom_precat(NI, 1, (0, "nope"))
    assert hom_precat(NI, 1, (1, 0)).size(o(0, [])) == 0


@pytest.mark.parametrize("B", [True, 2.5, "2", 0, -1, None])
def test_window_bound_is_an_int_at_least_one(B):
    """The rule ``precat_from_dump`` applies to a dump's ``B``."""
    with pytest.raises(PresheafError, match="not an int >= 1"):
        Window(B)


def test_degeneracy_of_object_is_identity_chain():
    NI = nerve(FiniteCategory.interval(), 1)
    from precats.theta import collapse_to_zero
    for p in (1, 2, 3):
        M = o(1, [p])
        for x in NI.cells(zero_object(1)):
            chain = NI.act(collapse_to_zero(M), x)
            assert len(chain) == p
            assert all(a == (x, x) for a in chain)


def test_generator_naturality_agrees_with_full_scan():
    """Validating against the face/degeneracy generators flags exactly the
    maps the all-morphisms scan flags (generators present the window)."""
    NI = nerve(FiniteCategory.interval(), 1)
    NIb = nerve(FiniteCategory.iso_interval(), 1)
    table = {"id0": "id0", "id1": "id1", (0, 1): "u", (0, 0): "id0",
             (1, 1): "id1"}

    def good(M, c):
        if M.length == 0:
            return c
        return tuple(table[a] for a in c)

    def bad(M, c):
        if M.length == 0:
            return 1 - c
        return tuple(table[a] for a in c)

    for fn, expect_clean in ((good, True), (bad, False)):
        m = PrecatMap(NI, NIb, fn, name="probe")
        gen = m.naturality_violations(W2)
        full = helpers.all_morphism_naturality_violations(m, W2)
        assert (not gen) == (not full) == expect_clean


def test_act_caches_none_results():
    """A cell table restricts each cell along each morphism once, also to
    the cell ``None``, however often ``act`` asks."""
    calls = {}

    def counting(f, c):
        calls[(f, c)] = calls.get((f, c), 0) + 1
        return c

    P = Precat(1, lambda M: (None, 1), counting, name="nones")
    assert type(P.table) is CellTable
    for _ in range(3):
        for f in W2.elementary(1):
            for c in P.cells(f.target):
                assert P.act(f, c) == c
            assert P.table.act(f) == [0, 1]
    assert any(c is None for _, c in calls)
    assert len(calls) == 2 * len(W2.elementary(1))
    assert set(calls.values()) == {1}
