"""Window tables compiled from their parts (products, pushouts, edge
complexes) against the cell-by-cell table of the same presheaf, and their
lifetime."""

import gc
import weakref

import pytest

from precats import (Precat, PrecatMap, Window, coproduct, discrete,
                     identity_map, iso_windowed, point, product, pushout,
                     run_suite, terminal_map, upsilon)
from precats import constructions as cn
from precats import presheaf as ps
from precats.constructions import cell, pushout_product, square_decomposition
from precats.presheaf import WindowTable, window_table
from precats.tables import (CompiledTable, ProductTable, PushoutTable,
                            UpsilonTable)

import helpers

W2 = Window(2)
TIE = (1, "1")          # two cells sharing the label "1"
# ((1,), "z,w") and ("(1),z", "w") share the label "((1),z,w)"; by position
# in the factors the first comes first, by ``_typed_key`` the second
SHIFT = (discrete(1, ((1,), "(1),z")), discrete(1, ("z,w", "w")))


def _plain(P):
    """P without its construction: a table of it reads ``P.act`` cell by cell."""
    return Precat(P.n, P.cells, P.act, name=f"plain {P.name}")


def _assert_matches_cell_by_cell(P, window, tables=None):
    T, plain = window_table(P, tables), WindowTable(_plain(P))
    for M in window.objects(P.n):
        assert T.level(M) == plain.level(M), (P.name, M)
        assert T.labels(M) == plain.labels(M) and T.size(M) == plain.size(M)
    for e in window.elementary(P.n):
        assert T.act(e) == plain.act(e), (P.name, e)
    return T


def _kinds(T, seen):
    """The compiled table classes met in T and its parts."""
    seen.add(type(T))
    for part in vars(T).values():
        for x in part if isinstance(part, list) else [part]:
            if isinstance(x, WindowTable):
                _kinds(x, seen)
    return seen


def test_suite_iso_questions_tabled_as_cell_by_cell(monkeypatch):
    """Both sides of every iso question of the window-2 suite, sharing one
    table dict as the solver does, give the cell-by-cell cells, labels and
    generator position lists."""
    asked, kinds = [], set()
    solve = ps.iso_windowed

    def spy(P, Q, window):
        tables = {}
        for X in (P, Q):
            _kinds(_assert_matches_cell_by_cell(X, window, tables), kinds)
        asked.append(window.B)
        return solve(P, Q, window)

    monkeypatch.setattr(ps, "iso_windowed", spy)
    assert run_suite(2).passed
    assert len(asked) > 60
    assert {ProductTable, PushoutTable, UpsilonTable, WindowTable} <= kinds


@pytest.mark.parametrize("build", [
    lambda: square_decomposition(discrete(0, (0, 1)), point(0), legacy=True)[0],
    lambda: square_decomposition(discrete(0, (0, 1)), point(0), legacy=True)[1],
    lambda: upsilon([discrete(0, ("a", "b")), point(0), discrete(0, ("c",))],
                    legacy=True),
], ids=["legacy-square-lhs", "legacy-square-rhs", "legacy-upsilon"])
def test_legacy_edge_complexes_tabled_as_cell_by_cell(build):
    _assert_matches_cell_by_cell(build(), Window(3))


def _tie_pushouts():
    d, pt = discrete(1, TIE), point(1)
    R = discrete(1, ("a", "b"))
    merge = PrecatMap(R, d, lambda M, c: 1 if c == "a" else "1", name="tie")
    return {
        "glued-to-point": pushout(identity_map(d), terminal_map(d)).precat,
        "tie-merged": pushout(merge, terminal_map(R)).precat,
        "coproduct": coproduct(d, d).precat,
        "one-of-two": pushout(PrecatMap(pt, d, lambda M, c: "1", name="s"),
                              PrecatMap(pt, d, lambda M, c: 1, name="i")).precat,
    }


@pytest.mark.parametrize("build", [
    lambda: product(discrete(1, TIE), point(1)),
    lambda: product(discrete(1, TIE), discrete(1, TIE)),
    lambda: product(point(1), discrete(1, TIE)),
    lambda: product(*SHIFT),
    *(lambda name=name: _tie_pushouts()[name] for name in
      ("glued-to-point", "tie-merged", "coproduct", "one-of-two")),
    lambda: upsilon([discrete(0, TIE)]),
    lambda: upsilon([discrete(0, TIE), discrete(0, TIE)]),
    lambda: upsilon([discrete(1, TIE)]),
    lambda: upsilon(list(SHIFT)),
], ids=["product-left", "product-both", "product-right", "product-shift",
        "pushout-glued", "pushout-merged", "pushout-coproduct", "pushout-span",
        "upsilon-one", "upsilon-two", "upsilon-dim-1", "upsilon-shift"])
def test_label_ties_tabled_as_cell_by_cell(build):
    """Cells that share a label: both routes break the tie by type."""
    P = build()
    T = _assert_matches_cell_by_cell(P, Window(3) if P.n < 2 else W2)
    assert isinstance(T, CompiledTable)


def _flat(cell):
    """A grouped edge-complex cell with its groups concatenated."""
    if not isinstance(cell, tuple):
        return cell
    y, groups = cell
    return y, tuple(v for group in groups for v in group)


@pytest.mark.parametrize("inputs", [
    [discrete(0, ("a", "b"))],
    [discrete(0, ("a", "b")), discrete(0, ("c",))],
    [point(0), discrete(0, ("x", "y")), discrete(0, ("z",))],
    [discrete(1, TIE), discrete(1, ("w1", "w2"))],
], ids=["one", "two", "three", "ties-dim-1"])
def test_compiled_upsilon_against_grouped_route(inputs):
    """The compiled table's cells are the grouped complex's cells, flattened,
    and each generator's position list is the grouped action, flattened."""
    T = window_table(upsilon(inputs))
    assert isinstance(T, UpsilonTable)
    grouped = helpers.grouped_upsilon(inputs)
    window = W2 if grouped.n > 1 else Window(3)
    unflat = {}
    for M in window.objects(grouped.n):
        unflat[M] = {_flat(c): c for c in grouped.cells(M)}
        assert sorted(map(repr, T.level(M)[0])) == sorted(map(repr, unflat[M]))
    for e in window.elementary(grouped.n):
        source = T.level(e.source)[0]
        assert [source[k] for k in T.act(e)] == \
            [_flat(grouped.act(e, unflat[e.target][c])) for c in T.level(e.target)[0]]


def _corrupted(P, window):
    """P with its table hook, but acting wrongly along one non-generator
    morphism: a compiled table of it would not see the fault."""
    gens = set(window.elementary(P.n))
    f = next(f for s, t, mors in window.morphisms(P.n) for f in mors
             if f not in gens and s != t and len(P.cells(s)) > 1 and P.cells(t))

    def act(g, c):
        got = P.act(g, c)
        if g == f:
            return min((x for x in P.cells(f.source) if x != got), key=repr)
        return got

    return Precat(P.n, P.cells, act, name=f"bad {P.name}", table=P.table)


@pytest.mark.parametrize("build", ["product", "pushout", "upsilon"])
def test_functoriality_and_dumps_read_the_composite_act(build):
    """``check_functoriality`` and ``dump_window`` read a composite through
    ``Precat.act``, its definition, not through its compiled table."""
    D = discrete(1, ("a", "b"))
    P = {"product": lambda: product(D, D),
         "pushout": lambda: pushout(identity_map(D), identity_map(D)).precat,
         "upsilon": lambda: upsilon([discrete(0, ("a", "b"))])}[build]()
    bad = _corrupted(P, W2)
    assert isinstance(window_table(bad), CompiledTable)
    assert ps.check_functoriality(P, W2) == []
    assert ps.check_functoriality(bad, W2)
    assert ps.dump_window(bad, W2) != ps.dump_window(P, W2)


def test_tables_share_the_parts_of_one_check():
    P = upsilon([discrete(0, ("a", "b"))])
    tables = {}
    T = window_table(product(P, P), tables)
    assert T.TA is T.TB is tables[P]
    assert window_table(P, tables) is T.TA


@pytest.mark.parametrize("build", ["corner", "square"])
def test_composite_tables_are_freed_without_the_cycle_collector(build, monkeypatch):
    """Every table a check builds, and the composite it tabled, die once the
    check has returned and the caller drops the composite: no table holds a
    reference cycle."""
    made = []
    tabled = ps.window_table

    def spy(P, tables=None):
        T = tabled(P, tables)
        made.append(weakref.ref(T))
        return T

    for module in (ps, cn):
        monkeypatch.setattr(module, "window_table", spy)
    gc.disable()
    try:
        if build == "corner":
            inc = cell(1, 1).inclusion
            data = pushout_product(inc, inc).source
            lhs, rhs = data.precat, pushout_product(inc, inc).source.precat
        else:
            lhs, rhs = square_decomposition(discrete(1, (0, 1)), point(1))
            data = lhs
        assert iso_windowed(lhs, rhs, W2) is not None
        assert made and all(r() is None for r in made)
        refs = [weakref.ref(x) for x in (data, lhs, rhs)]
        del data, lhs, rhs
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
