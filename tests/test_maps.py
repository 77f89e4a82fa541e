"""Maps as position lists: every combinator's ``at`` against a cell-level
oracle from ``helpers`` on every level of a window, with naturality along
every generator; the cocone check of ``induced``; the solver's answer
outside its window; and naturality failures found on positions."""

import re
from types import SimpleNamespace

import pytest

from precats import (FiniteCategory, PrecatMap, PresheafError, Window, discrete,
                     identity_map, iso_windowed, nerve, object_of, point, pushout,
                     terminal_map, upsilon, zero_object)
from precats import cli, suite
from precats import constructions as cn
from precats import presheaf as ps
from precats.theta import collapse_to_zero

import helpers

W2 = Window(2)
I = FiniteCategory.interval()


def _inputs():
    """The suite's dimension-1 inputs and lambda maps between them, each
    given cell by cell, with their cell-level oracles."""
    emp, pt, two, NI = ps.empty(1), point(1), discrete(1, (0, 1)), nerve(I, 1)
    NIo = helpers.nerve_oracle(I, 1)

    def deg(M, c):
        return NIo.act(collapse_to_zero(M), c)

    maps = {
        "0->2": PrecatMap(emp, two, lambda M, c: c, name="0->2"),
        "pt->NI": PrecatMap(pt, NI, lambda M, c: deg(M, 1), name="pt->NI"),
        "2->NI": PrecatMap(two, NI, deg, name="2->NI"),
    }
    return (emp, pt, two, NI), maps, deg


def _corner_split(f, g):
    """The two legs ``Y -> Q1`` and ``Y -> Q2`` of the corner split of
    ``f`` and ``g``, with the cell-level oracles of their sides."""
    A, B, C, D = f.domain, f.codomain, g.domain, g.codomain
    corner = cn.pushout_product(f, g).source
    Q1, Q2 = cn.q_gluing(f, g), cn.q_gluing(g, f)
    UW = upsilon([corner.precat])
    y_to_q1 = cn.upsilon_cases(UW, (identity_map(corner.P), Q1.inl),
                               (identity_map(corner.Q), Q1.inr), name="Y->Q1")
    y_to_q2 = cn.upsilon_cases(UW, (ps.swap_map(A, D, corner.P), Q2.inr),
                               (ps.swap_map(B, C, corner.Q), Q2.inl), name="Y->Q2")
    keep, swap = (lambda T, p: p), (lambda T, p: (p[1], p[0]))
    q1, q2 = helpers.pushout_maps_oracle(Q1), helpers.pushout_maps_oracle(Q2)
    return [(y_to_q1, helpers.upsilon_cases_oracle((keep, q1[0]), (keep, q1[1]))),
            (y_to_q2, helpers.upsilon_cases_oracle((swap, q2[1]), (swap, q2[0])))]


def _cases():
    (emp, pt, two, NI), maps, deg = _inputs()
    f, g, h = maps["pt->NI"], maps["2->NI"], maps["0->2"]
    yield "identity", identity_map(NI), lambda M, c: c
    yield "then", PrecatMap(pt, two, lambda M, c: 0, name="p0").then(
        ps.degeneracy_map(two, NI)), lambda M, c: deg(M, 0)
    yield "fallback", g, deg
    yield "terminal", terminal_map(upsilon([two, NI])), lambda M, c: "pt"
    yield "point", ps.point_map(NI, 1), lambda M, c: deg(M, 1)
    yield "point-from", ps.point_map(NI, 0, two), lambda M, c: deg(M, 0)
    yield "degeneracy", ps.degeneracy_map(two, NI), deg
    yield "swap", ps.swap_map(two, NI), lambda M, c: (c[1], c[0])
    R, AD = ps.product(pt, two), ps.product(pt, NI)
    yield "1xg", ps.product_map(identity_map(pt), g, R, AD), \
        lambda M, c: (c[0], g.apply(M, c[1]))
    yield "fx1", ps.product_map(f, identity_map(two), R, ps.product(NI, two)), \
        lambda M, c: (f.apply(M, c[0]), c[1])
    for name, po in (("vertex", pushout(f, terminal_map(pt))),
                     ("corner", cn.pushout_product(f, g).source),
                     ("fold", pushout(g, g))):
        inl, inr, induced = helpers.pushout_maps_oracle(po)
        yield f"inl-{name}", po.inl, inl
        yield f"inr-{name}", po.inr, inr
    fold = pushout(g, g).induced(identity_map(NI), identity_map(NI))
    yield "induced-fold", fold, lambda M, c: c[1]
    corner = cn.pushout_product(f, g)
    yield "induced-corner", corner.map, helpers.pushout_maps_oracle(corner.source)[2](
        lambda M, c: (f.apply(M, c[0]), c[1]), lambda M, c: (c[0], g.apply(M, c[1])))
    yield "upsilon-map", cn.upsilon_map([g]), helpers.upsilon_map_oracle([g])
    yield "upsilon-map-2", cn.upsilon_map([identity_map(pt), g]), \
        helpers.upsilon_map_oracle([identity_map(pt), g])
    yield "upsilon-map-legacy", cn.upsilon_map([f, h], legacy=True), \
        helpers.upsilon_map_oracle([f, h], legacy=True)
    for which in ("drop_last", "drop_first", ("merge", 1), ("merge", 2)):
        yield f"face-{which}", cn.upsilon_face([two, NI, pt], which), \
            helpers.upsilon_face_oracle(3, which)
    yield "face-legacy", cn.upsilon_face([two, NI], ("merge", 1), legacy=True), \
        helpers.upsilon_face_oracle(2, ("merge", 1), legacy=True)
    swap = ps.swap_map(NI, two)
    yield "face-along", cn.upsilon_face([two, NI], ("merge", 1), along=swap), \
        helpers.upsilon_face_oracle(2, ("merge", 1), along=swap)
    for m, oracle in _corner_split(f, g) + _corner_split(h, maps["2->NI"]):
        yield m.name, m, oracle
    P = nerve(helpers.poset({(0, 1), (0, 2), (0, 3)}), 1)
    Q = nerve(helpers.poset({(2, 0), (2, 1), (2, 3)}), 1)
    want = next(helpers.natural_components_by_object(P, Q, W2, True))
    yield "iso", iso_windowed(P, Q, W2), lambda M, c: want[M][c]


CASES = list(_cases())


@pytest.mark.parametrize("case", range(len(CASES)), ids=[c[0] for c in CASES])
def test_map_positions_against_their_cell_level_oracle(case):
    _, m, oracle = CASES[case]
    assert helpers.map_violations(m, oracle, W2) == []


def test_every_map_kind_is_covered():
    kinds = ("identity", "then", "inl", "inr", "induced", "upsilon-map", "face", "swap",
             "terminal", "point", "degeneracy", "1xg", "fx1", "iso", "Y->Q1", "Y->Q2")
    assert all(any(name.startswith(k) for name, _, _ in CASES) for k in kinds)


def test_induced_map_checks_its_cocone():
    """A cocone whose legs disagree on R raises at the first level asked
    for, naming it; a commuting one does not."""
    two = discrete(1, (0, 1))
    R = point(1)
    po = pushout(PrecatMap(R, two, lambda M, c: 0, name="p0"),
                 PrecatMap(R, two, lambda M, c: 1, name="p1"))
    bad = po.induced(identity_map(two), identity_map(two), name="bad")
    for M in (zero_object(1), object_of(1, [2])):
        with pytest.raises(PresheafError, match=rf"bad.*not commute at level {re.escape(str(M))}"):
            bad.at(M)
    with pytest.raises(PresheafError, match="not commute"):
        bad.apply(zero_object(1), ("L", 0))
    good = po.induced(terminal_map(two), terminal_map(two))
    assert good.at(zero_object(1)) == [0] * po.precat.size(zero_object(1))


def test_induced_map_needs_a_cocone_from_the_pushout_sides_to_one_precat():
    """A cocone whose legs end on two precats, or start elsewhere than the
    pushout's sides, raises at once, naming the map: it would read
    positions of one codomain as another's.  Legs into two precats of
    equal content end on one."""
    P, Q = discrete(1, (0, 1)), discrete(1, ("a", "b", "c"))
    co = ps.coproduct(P, Q)
    for u, v in [(identity_map(P), identity_map(Q)),
                 (identity_map(Q), identity_map(P)),
                 (identity_map(P), terminal_map(P))]:
        with pytest.raises(PresheafError, match="fold: the cocone .* to one precat"):
            co.induced(u, v)
    fold = co.induced(terminal_map(P), terminal_map(Q))
    assert fold.at(object_of(1, [2])) == [0] * 5
    assert fold.naturality_violations(Window(2)) == []


def test_solver_answer_raises_outside_its_window():
    N = nerve(I, 1)
    iso = iso_windowed(N, N, W2)
    assert iso.at(object_of(1, [2])) == list(range(N.size(object_of(1, [2]))))
    with pytest.raises(PresheafError, match=r"level Obj\(3,\)@1.*B=2"):
        iso.at(object_of(1, [3]))


def test_apply_reads_positions_for_a_map_given_cell_by_cell():
    """``apply_fn`` only lists a map's positions, and ``apply`` reads them:
    a cell outside the domain is a ``PresheafError``, although the function
    would map it."""
    g = PrecatMap(discrete(1, (0, 1)), point(1), lambda M, c: "pt", name="!")
    assert [g.apply(zero_object(1), c) for c in (0, 1)] == ["pt", "pt"]
    with pytest.raises(PresheafError, match=r"'z' at level .* no cell of the domain of !"):
        g.apply(zero_object(1), "z")


def _broken_maps():
    """Maps that fail naturality: one given cell by cell, one by positions."""
    NI, NIb = nerve(I, 1), nerve(FiniteCategory.iso_interval(), 1)
    table = {"id0": "id0", "id1": "id1", (0, 1): "u", (0, 0): "id0", (1, 1): "id1"}
    yield PrecatMap(NI, NIb, lambda M, c: 1 - c if M.length == 0
                    else tuple(table[a] for a in c), name="flip")
    T, edge = NI.table, object_of(1, [1])
    yield PrecatMap(NI, NI, name="swapped", at=lambda M: [1, 0, 2] if M == edge
                    else list(range(T.size(M))))


@pytest.mark.parametrize("m", list(_broken_maps()), ids=lambda m: m.name)
def test_naturality_failures_found_on_positions_are_the_cell_level_ones(m):
    got = m.naturality_violations(W2)
    assert got and got == helpers.generator_naturality_violations(m, W2)
    assert set(got) <= set(helpers.all_morphism_naturality_violations(m, W2))


def test_named_maps_from_positions_match_their_cell_given_forms(monkeypatch):
    """The cylinder entry's ``2*->3*`` and the command line's ``collapse_two``,
    built from positions, list the positions of the maps given cell by cell
    on every level of window 3."""
    W3, built = Window(3), []
    monkeypatch.setattr(suite.cn, "claim_fold", lambda i: built.append(i) or SimpleNamespace(
        decomposition_agrees=lambda window: None))
    suite._entry_cylinder(W3)
    (i,) = built
    pairs = [(i, PrecatMap(i.domain, i.codomain, lambda M, c: c))]
    for n in (0, 1, 2):
        u = cli._NAMED_MAPS["collapse_two"](SimpleNamespace(n=n))
        pairs.append((u, PrecatMap(discrete(n, (0, 1)), point(n), lambda M, c: "pt")))
    for got, cells in pairs:
        assert got.name in ("2*->3*", "2*->*")
        for M in W3.objects(got.domain.n):
            assert got.at(M) == cells.at(M), (got.name, M)
