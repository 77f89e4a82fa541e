"""The tables that define products, pushouts, edge complexes, nerves,
constant presheaves, deloopings, subpresheaves, slices, monoidal towers and
truncations, against their
cell-level oracles in ``helpers``, on every window morphism; the tables of
imported dumps; how the tables are shared and freed; and when module
``tables`` is imported."""

import gc
import importlib.util
import itertools
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import weakref

import pytest

from precats import (IDENTITIES, PrecatMap, Window, cli, coproduct, discrete,
                     identity_map, iso_windowed, point, product, pushout,
                     run_suite, terminal_map, upsilon)
from precats import analysis as an
from precats import constructions as cn
from precats import dumps
from precats import presheaf as ps
from precats.constructions import cell, pushout_product, square_decomposition
from precats.presheaf import CellTable, TabledPrecat, WindowTable
from precats.theta import pair_components, truncated
from precats.tables import (CompiledTable, DeloopingTable, MonoidalTable, ProductTable,
                            PushoutTable, SliceTable, SubTable, TruncationTable,
                            UpsilonTable)

import helpers
from test_analysis import TRUNCATION_IDS, TRUNCATIONS

W2 = Window(2)
TIE = (1, "1")          # two cells sharing the label "1"
# ((1,), "z,w") and ("(1),z", "w") share the label "((1),z,w)"; by position
# in the factors the first comes first, by ``_typed_key`` the second
SHIFT = (discrete(1, ((1,), "(1),z")), discrete(1, ("z,w", "w")))


@pytest.fixture
def oracles(monkeypatch):
    """Each composite built while the fixture is active, as ``{table:
    oracle}``: its own table, and the cell-level oracle of it built over the
    same parts."""
    made = {}
    real_product, real_upsilon, real_delooping = ps.product, cn.upsilon, cn.delooping
    real_init = ps.PushoutData.__init__

    def spy_product(P, Q):
        X = real_product(P, Q)
        made[X.table] = helpers.product_oracle(P, Q)
        return X

    def spy_upsilon(inputs, legacy=False, name=None):
        X = real_upsilon(inputs, legacy=legacy, name=name)
        made[X.table] = helpers.upsilon_oracle(inputs, legacy)
        return X

    def spy_delooping(A):
        X = real_delooping(A)
        made[X.table] = helpers.delooping_oracle(A)
        return X

    def spy_init(self, f, g, name="po"):
        real_init(self, f, g, name=name)
        made[self.precat.table] = helpers.pushout_oracle(f, g)

    for mod in [m for name, m in list(sys.modules.items()) if m is not None
                and (name.split(".")[0] == "precats" or name == __name__)]:
        for attr, real, spy in (("product", real_product, spy_product),
                                ("upsilon", real_upsilon, spy_upsilon),
                                ("delooping", real_delooping, spy_delooping)):
            if getattr(mod, attr, None) is real:
                monkeypatch.setattr(mod, attr, spy)
    monkeypatch.setattr(ps.PushoutData, "__init__", spy_init)
    return made


def _tables_in(T, seen=None):
    """T and every table it is built from, each once."""
    seen = {} if seen is None else seen
    if id(T) not in seen:
        seen[id(T)] = T
        for part in vars(T).values():
            for x in part if isinstance(part, list) else [part]:
                if isinstance(x, WindowTable):
                    _tables_in(x, seen)
    return seen


def _assert_composites_match(X, window, oracles):
    """Every composite table in X's table is its oracle on the window."""
    tables = [T for T in _tables_in(X.table).values()
              if isinstance(T, CompiledTable)]
    assert tables
    for T in tables:
        assert helpers.table_violations(T, oracles[T], window) == [], type(T)
    return tables


def test_suite_iso_questions_tabled_as_cell_by_cell(monkeypatch, oracles):
    """Every composite on either side of every iso question of the window-2
    suite, down to its parts, is its oracle on the question's window: on
    every morphism for the first question of each entry, and on the
    generators for the others.  The suspension tower's questions at n = 3
    and 4 are checked on the generators of their window and on every
    morphism of window 1: every morphism of window 2 there costs seconds (n
    = 3) to minutes (n = 4) of cell-level oracle time."""
    asked, count = [], 0
    solve = ps.iso_windowed

    def spy(P, Q, window):
        asked.append((P, Q, window))
        return solve(P, Q, window)

    monkeypatch.setattr(ps, "iso_windowed", spy)
    kinds, done = set(), set()

    def violations(T, window, every):
        """T against its oracle, unless this or a wider check of T on the
        window was made before (the oracles dict keeps T and its id alive)."""
        key = (id(T), window.B)
        if (key, True) in done or (key, every) in done:
            return []
        done.add((key, every))
        return helpers.table_violations(T, oracles[T], window, not every)

    for entry in sorted(IDENTITIES):
        del asked[:]
        assert run_suite(2, only=entry).passed
        count += len(asked)
        for i, (P, Q, window) in enumerate(asked):
            for X in (P, Q):
                for T in _tables_in(X.table).values():
                    kinds.add(type(T))
                    if isinstance(T, CompiledTable):
                        assert violations(T, window, i == 0 and P.n <= 2) == [], \
                            (entry, i, X.name)
                        assert P.n <= 2 or violations(T, Window(1), True) == [], \
                            (entry, i, X.name)
    assert count > 60
    assert kinds == {ProductTable, PushoutTable, UpsilonTable, DeloopingTable,
                     CellTable}


@pytest.mark.parametrize("build", [
    lambda: square_decomposition(discrete(0, (0, 1)), point(0), legacy=True)[0],
    lambda: square_decomposition(discrete(0, (0, 1)), point(0), legacy=True)[1],
    lambda: upsilon([discrete(0, ("a", "b")), point(0), discrete(0, ("c",))],
                    legacy=True),
], ids=["legacy-square-lhs", "legacy-square-rhs", "legacy-upsilon"])
def test_legacy_edge_complexes_tabled_as_cell_by_cell(build, oracles):
    _assert_composites_match(build(), Window(3), oracles)


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
def test_label_ties_tabled_as_cell_by_cell(build, oracles):
    """Cells that share a label: table and oracle break the tie by type."""
    P = build()
    _assert_composites_match(P, Window(3) if P.n < 2 else W2, oracles)


# "'", "!" and "(" sort below ")", so wrapping flips each pair's order:
# "f" < "f'" but "(L,f')" < "(L,f)"
FLIPS = ("f", "f'", "x", "x!", "a", "a(")


def _assert_pushout_matches_oracle(left_cells, right_cells, left, right, dump=True):
    """The pushout of the span of discrete presheaves whose legs send each
    cell of R (the keys of ``left`` and ``right``, equal) as those dicts
    say: its table against ``helpers.pushout_oracle`` on every morphism of
    window 2, both inclusions cell by cell, and, with ``dump``, its dump
    against the dump of the oracle tabled cell by cell."""
    R, P, Q = discrete(1, left), discrete(1, left_cells), discrete(1, right_cells)
    f = PrecatMap(R, P, lambda M, c: left[c], name="f")
    g = PrecatMap(R, Q, lambda M, c: right[c], name="g")
    po, oracle = pushout(f, g), helpers.pushout_oracle(f, g)
    assert helpers.table_violations(po.precat.table, oracle, W2) == []
    for M in W2.objects(1):
        for inc, side, X in ((po.inl, "L", P), (po.inr, "R", Q)):
            cells = X.table.level(M)[0]
            assert [inc.apply(M, c) for c in cells] == [
                oracle.classes(M)[side, c] for c in cells]
    if dump:
        assert ps.dump_json(po.precat, W2) == ps.dump_json(
            ps.Precat(1, oracle.cells, oracle.act), W2)


@pytest.mark.parametrize("left, right", [
    ({}, {}),
    ({"r": "f", "s": "f'"}, {"r": "a", "s": "a"}),
    ({"r": "f'", "s": "x"}, {"r": "a(", "s": "x!"}),
    ({"r": "x", "s": "x!", "t": "a("}, {"r": "f", "s": "f", "t": "f'"}),
], ids=["coproduct", "one-side-pair", "across", "chain"])
def test_pushout_of_labels_that_wrapping_reorders(left, right):
    """Labels whose order flips once wrapped as ``(L,..)``: a pushout's
    cells come in wrapped-label order, and a class is named by its member
    whose wrapped label is least."""
    _assert_pushout_matches_oracle(FLIPS, FLIPS, left, right)


@pytest.mark.parametrize("left, right", [
    ({"r": 1, "s": "f'"}, {"r": "1", "s": "x"}),
    ({"r": 1, "s": "1"}, {"r": "x!", "s": "x"}),
    ({"r": "1", "s": "f"}, {"r": 1, "s": 1}),
], ids=["tie-to-tie", "tie-merged", "tie-crossed"])
def test_pushout_of_label_ties_on_each_side(left, right):
    """``1`` and ``"1"`` on each side: ties are broken by type, so levels
    match the oracle's; a dump rejects the tie, so none is compared."""
    _assert_pushout_matches_oracle((1, "1", "f", "f'"), ("1", 1, "x", "x!"), left, right,
                                   dump=False)


def test_pushouts_of_seeded_random_spans():
    """Spans drawn from labels that wrapping reorders, ties included."""
    rng, pool = random.Random(1975), FLIPS + ("f(", "a)", "1", 1)
    for _ in range(60):
        left_cells, right_cells = (rng.sample(pool, rng.randint(1, 5)) for _ in "LR")
        rs = range(rng.randint(0, 4))
        _assert_pushout_matches_oracle(
            left_cells, right_cells, {r: rng.choice(left_cells) for r in rs},
            {r: rng.choice(right_cells) for r in rs},
            dump=not any({1, "1"} <= set(cells) for cells in (left_cells, right_cells)))


@pytest.mark.parametrize("args, B", [
    (["upsilon", "--inputs", "point", "point"], 3),
    (["cell", "--k", "1", "--n", "1"], 3),
    (["boundary", "--k", "1", "--n", "1"], 3),
    (["sigma", "--k", "1", "--n", "2"], 2),
    (["suspension", "--of", "two_point", "--n", "1"], 2),
], ids=["upsilon-point-point", "cell-1-1", "boundary-1-1", "sigma-1-2",
        "suspension-two_point"])
def test_dump_catalogue_composites_tabled_as_cell_by_cell(args, B, oracles):
    """The composites that the benchmark's dump catalogue builds, at the
    window it dumps them on."""
    parsed = cli.make_parser().parse_args(["build", *args, "--window", str(B)])
    _assert_composites_match(cli.build_precat(parsed), Window(B), oracles)


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
    """The edge complex's cells are the grouped complex's cells, flattened,
    and each morphism's position list is the grouped action, flattened."""
    T = upsilon(inputs).table
    assert isinstance(T, UpsilonTable)
    grouped = helpers.grouped_upsilon(inputs)
    window = W2 if grouped.n > 1 else Window(3)
    unflat = {}
    for M in window.objects(grouped.n):
        unflat[M] = {_flat(c): c for c in grouped.cells(M)}
        assert sorted(map(repr, T.level(M)[0])) == sorted(map(repr, unflat[M]))
    for _, _, mors in window.morphisms(grouped.n):
        for f in mors:
            source = T.level(f.source)[0]
            assert [source[k] for k in T.act(f)] == \
                [_flat(grouped.act(f, unflat[f.target][c])) for c in T.level(f.target)[0]]


@pytest.mark.parametrize("build", ["product", "pushout", "upsilon"])
def test_differential_check_flags_a_corrupted_composite_table(build, oracles):
    """A composite table corrupted along one non-generator morphism, in the
    entry it reads that morphism at (its truncation at the table's depth:
    the identity of level 0 for the product and the pushout of constant
    presheaves, the morphism itself for the edge complex), differs from its
    oracle on exactly the morphisms read there, which are those whose entry
    of their pair's ``acts`` is the corrupted list; functoriality and dumps
    read the table, so they see the fault too."""
    D = discrete(1, ("a", "b"))
    P = {"product": lambda: product(D, D),
         "pushout": lambda: pushout(identity_map(D), identity_map(D)).precat,
         "upsilon": lambda: upsilon([discrete(0, ("a", "b"))])}[build]()
    T, gens = P.table, set(W2.elementary(P.n))
    assert T.depth == {"product": 0, "pushout": 0, "upsilon": 1}[build]
    assert helpers.table_violations(T, oracles[T], W2) == []
    assert ps.check_functoriality(P, W2) == []
    good = json.loads(ps.dump_json(P, W2))
    f = next(f for s, t, mors in W2.morphisms(P.n) for f in mors
             if f not in gens and s != t and T.size(s) > 1 and T.size(t))
    read = truncated(f, T.depth)
    wrong = list(T.act(f))
    wrong[0] = (wrong[0] + 1) % T.size(f.source)
    T._acts[read] = wrong
    faulty = [("act", g) for _, _, mors in W2.morphisms(P.n) for g in mors
              if truncated(g, T.depth) is read]
    assert ("act", f) in faulty and (build == "upsilon") == (faulty == [("act", f)])
    assert [("act", g) for s, t, mors in W2.morphisms(P.n)
            for g, act in zip(mors, T.acts(s, t)) if act is wrong] == faulty
    assert helpers.table_violations(T, oracles[T], W2) == faulty
    assert helpers.functoriality_against_the_sweep(P, W2)
    assert json.loads(ps.dump_json(P, W2)) != good


def _poset6():
    """The six-element poset 0 < 1, 2 < 3 < 4, 5: x < y exactly when x has
    the lower rank."""
    rank = (0, 1, 1, 2, 3, 3)
    return helpers.poset({(x, y) for x in range(6) for y in range(6)
                          if rank[x] < rank[y]}, 6)


@pytest.mark.parametrize("category, n, B", [
    ("Ibar", 2, 3), ("Z2", 1, 3), ("chain3", 1, 3), ("I", 1, 2), ("P6", 1, 2)])
def test_nerves_tabled_as_cell_by_cell(category, n, B):
    """A nerve's table is its cell-level oracle on every window morphism,
    and the morphisms of one first-direction key share one position list."""
    C = _poset6() if category == "P6" else cli._CATEGORIES[category]()
    T = cn.nerve(C, n).table
    assert isinstance(T, CellTable)
    window = Window(B)
    assert helpers.table_violations(T, helpers.nerve_oracle(C, n), window) == []
    shared = {}
    for s, t, mors in window.morphisms(n):
        for f in mors:
            key = (s.entries[:1], t.entries[:1], f.components[0] if t.length else None)
            shared.setdefault(key, set()).add(id(T.act(f)))
    assert set(map(len, shared.values())) == {1}


def _random_poset(rng, size):
    """A seeded random poset on ``0..size-1``: a random relation along a
    random order of the elements, transitively closed."""
    order = rng.sample(range(size), size)
    less = {(order[i], order[j]) for i in range(size) for j in range(i + 1, size)
            if rng.random() < 0.3}
    while True:
        more = {(x, z) for x, y in less for w, z in less if w == y} - less
        if not more:
            return helpers.poset(less, size)
        less |= more


def _tied_monoid():
    """Z/2 on the unit ``1`` and the element ``"1"``: both arrows, and so
    every chain of one length, share one label.  ``"1"`` is listed first,
    so chains are found in the reverse of their ``_typed_key`` order."""
    return cn.FiniteCategory.monoid(
        ("1", 1), lambda a, b: b if a == 1 else a if b == 1 else 1, 1, name="tied")


@pytest.mark.parametrize("family", ["enumerated", "random-posets", "tied-labels"])
def test_nerves_of_category_families_tabled_as_cell_by_cell(family):
    """Nerve tables are their cell-level oracles on the ten enumerated small
    categories (n = 1 at window 3, n = 2 at window 2), on 30 seeded random
    posets of 5-7 elements (n = 1, window 2), and on a category whose
    arrows ``1`` and ``"1"`` tie, so that chains of one length tie too."""
    if family == "enumerated":
        cases = [(C, n, B) for C in helpers.enumerate_small_categories(limit=10)
                 for n, B in ((1, 3), (2, 2))]
    elif family == "random-posets":
        rng = random.Random(1972)
        cases = [(_random_poset(rng, rng.randint(5, 7)), 1, 2) for _ in range(30)]
        assert len({(len(C.objects), len(C.arrows)) for C, _, _ in cases}) > 10
    else:
        cases = [(_tied_monoid(), 1, 3), (_tied_monoid(), 2, 2)]
        assert cn.nerve(_tied_monoid(), 1).table.labels(cn.object_of(1, (2,))) == ["(1,1)"] * 4
    for C, n, B in cases:
        T = cn.nerve(C, n).table
        assert helpers.table_violations(T, helpers.nerve_oracle(C, n), Window(B)) == [], C.name


def test_nerve_labels_each_arrow_once_and_restricts_a_level_per_key(monkeypatch):
    """A nerve calls ``cell_label`` once per object and arrow of its
    category, however many chains its levels hold, and ``restrict`` once
    per key: the morphism truncated at depth 1, its first entries and
    first component, for the whole level."""
    labelled = []

    def counted(cell, label=ps.cell_label):
        labelled.append(cell)
        return label(cell)
    monkeypatch.setattr(ps, "cell_label", counted)
    monkeypatch.setattr(cn, "cell_label", counted)
    C, window = cn.FiniteCategory.iso_interval(), Window(3)
    T = cn.nerve(C, 2).table
    restricted, restrict = [], T._restrict

    def spied(f, cells):
        restricted.append(f)
        return restrict(f, cells)
    T._restrict = spied
    chains = sum(T.size(M) for M in window.objects(2))
    assert sorted(labelled, key=repr) == sorted(C.objects + C.arrows, key=repr)
    assert chains > 10 * len(labelled)
    cut = set()
    for s, t, mors in window.morphisms(2):
        for f in mors:
            T.act(f)
            cut.add(truncated(f, 1))
    keys = {(f.source.entries, f.target.entries, f.components[:1]) for f in cut}
    assert len(restricted) == len(cut) == len(keys) and set(restricted) == cut


def test_nerves_are_freed_without_the_cycle_collector():
    """A nerve, its table and the closures that build its levels hold no
    reference cycle, so the nerves of an iso question are freed as soon as
    it is answered."""
    gc.collect()
    gc.disable()
    try:
        A, B = cn.nerve(cn.FiniteCategory.chain(2), 1), cn.nerve(cn.FiniteCategory.chain(2), 1)
        assert iso_windowed(A, B, Window(3)) is not None
        refs = [weakref.ref(x) for x in (A, A.table, B, B.table)]
        del A, B
        assert all(r() is None for r in refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("build, n, labels", [
    (discrete, 1, TIE),
    (discrete, 2, (0, 1)),
    (lambda n, labels: ps.empty(n), 2, ()),
    (lambda n, labels: point(n), 3, ("pt",)),
], ids=["discrete-tie", "discrete-2", "empty-2", "point-3"])
def test_constant_presheaves_tabled_as_cell_by_cell(build, n, labels):
    T = build(n, labels).table
    assert isinstance(T, CellTable)
    assert helpers.table_violations(T, helpers.discrete_oracle(n, labels), W2) == []


def _corrupted_iso_interval():
    """Ibar with the composite u;v replaced, after validation, by a value
    that is no arrow: restricting the chain (u, v) leaves its level."""
    C = cn.FiniteCategory.iso_interval()
    C.table[("u", "v")] = "w"
    return C


def test_corrupted_category_raises_a_typed_error(monkeypatch, capsys):
    """A restriction outside its level is an ``ActionDomainError``, whether
    a table, a dump or a check meets it, and ``build`` reports it as an
    input error."""
    f = next(f for s, t, mors in W2.morphisms(1) for f in mors
             if (s.entries, t.entries, f.components) == ((1,), (2,), ((0, 2),)))
    with pytest.raises(ps.ActionDomainError):
        cn.nerve(_corrupted_iso_interval(), 1).table.act(f)
    with pytest.raises(ps.ActionDomainError):
        cn.nerve(_corrupted_iso_interval(), 1).act(f, ("u", "v"))
    for check in (ps.dump_json, ps.check_functoriality):
        with pytest.raises(ps.PresheafError):
            check(cn.nerve(_corrupted_iso_interval(), 1), W2)
    monkeypatch.setitem(cli._CATEGORIES, "Ibar", _corrupted_iso_interval)
    assert cli.main(["build", "nerve", "--category", "Ibar", "--window", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_tables_share_the_parts_of_one_check():
    """A composite part met twice is one table, its own; so is a
    first-direction part (a nerve or a constant presheaf) and a
    subpresheaf, whose table keeps positions of its parent's table."""
    P = upsilon([discrete(0, ("a", "b"))])
    T = product(P, P).table
    assert T.TA is T.TB is P.table
    f, g = identity_map(P), identity_map(P)
    po = pushout(f, g).precat.table
    assert po.TP is po.TQ is P.table
    assert po.F is f.positions and po.G is g.positions      # the legs' lists only
    for D in (discrete(1, ("a",)), point(1), ps.empty(1),
              cn.nerve(cn.FiniteCategory.interval(), 1)):
        assert isinstance(D.table, CellTable)
        assert product(D, D).table.TA is D.table
    D = discrete(1, ("a", "b"))
    S, _ = ps.sub_precat(D, lambda M: lambda c: c == "a")
    assert type(S.table) is SubTable and S.table.TP is D.table
    assert product(S, S).table.TA is S.table


def test_edge_complexes_on_the_same_input_tables_share_one_table():
    """An edge complex's table depends only on its inputs' tables and on
    ``legacy``: the same ones, or equal inputs built again, give one table,
    under each call's own precat and name; another ``legacy`` (the
    square_legacy control) or other input tables give another table."""
    A, D = discrete(1, (0, 1)), cn.nerve(cn.FiniteCategory.interval(), 1)
    X = upsilon([A, D])
    Y = upsilon([A, D], name="again")
    assert Y is not X and Y.table is X.table
    assert (X.name, Y.name) == ("U(discrete(0, 1),N(I)@1)", "again")
    assert isinstance(X.table, UpsilonTable) and X.table.inputs == [A.table, D.table]
    legacy = upsilon([A, D], legacy=True)
    assert legacy.table is not X.table
    assert upsilon([A, D], legacy=True).table is legacy.table
    assert json.loads(ps.dump_json(legacy, W2)) != json.loads(ps.dump_json(X, W2))
    again = upsilon([discrete(1, (0, 1)), cn.nerve(cn.FiniteCategory.interval(), 1)])
    assert again.table is X.table and again.memo is X.memo
    others = [upsilon([A, discrete(1, (0, 1))]), upsilon([D, A]), upsilon([A]),
              upsilon([A, D, D]), upsilon([discrete(1, (0, 2)), D])]
    assert len({id(X.table), *(id(Z.table) for Z in others)}) == 1 + len(others)
    u = cn.upsilon_map([identity_map(A), identity_map(D)])
    assert u.domain is not u.codomain and u.domain.table is u.codomain.table is X.table


def _interned(*bases):
    """The bases, each interned by its first composite."""
    for D in bases:
        upsilon([D])
    return bases


def test_base_tables_are_interned_by_typed_content():
    """Equal constant presheaves or nerves built twice share one table and
    memo, under precats and names of their own, from their first composite
    on.  Labels that are equal but of another type, another ``n``, or
    categories that differ only in their composition get another table."""
    ones = _interned(*(discrete(1, (x,)) for x in (1, True, 1.0, "1")))
    assert len({id(D.table) for D in ones}) == len(ones)
    again = discrete(1, (1,), name="again")
    assert again.table is not ones[0].table         # not yet the base of a composite
    _interned(again)
    assert again is not ones[0] and again.table is ones[0].table and again.memo is ones[0].memo
    assert again.name == "again" and ones[0].name == "discrete(1,)"
    assert _interned(discrete(2, (1,)))[0].table is not ones[0].table
    A, B, A2 = _interned(*(cn.nerve(cn.FiniteCategory.interval(), n) for n in (1, 1, 2)))
    assert A is not B and A.table is B.table and A.memo is B.memo
    assert A2.table is not A.table
    X = discrete(1, ("x",))
    assert product(X, A).table is product(X, cn.nerve(cn.FiniteCategory.interval(), 1)).table
    z2, bool_or = _interned(*(cn.nerve(cn.FiniteCategory.monoid((0, 1), op, 0), 1) for op in (
        lambda a, b: (a + b) % 2, max)))
    assert z2.table is not bool_or.table
    assert ps.dump_json(z2, W2) != ps.dump_json(bool_or, W2)


@pytest.mark.parametrize("first", ["fresh", "interned"])
def test_pushout_legs_from_equal_domains_start_on_one_table(first):
    """Legs from two constant presheaves of equal content start on one
    table, whether or not a composite interned either domain first, and
    give the same pushout; legs from domains of other content never do."""
    R, S, other = (discrete(1, labels) for labels in (("po", 0), ("po", 0), ("po", 1)))
    if first == "interned":
        _interned(R, S, other)
    X = discrete(1, ("po", 0, 1))
    f = PrecatMap(R, X, lambda M, c: c)
    P = pushout(f, identity_map(S)).precat
    assert R.table is S.table and R is not S
    assert ps.dump_json(P, W2) == ps.dump_json(pushout(
        PrecatMap(discrete(1, ("po", 0)), X, lambda M, c: c), identity_map(R)).precat, W2)
    with pytest.raises(ps.PresheafError, match="one table"):
        pushout(f, identity_map(other))


def _wedge_inputs():
    return upsilon([discrete(1, (0, 1))]), upsilon([cn.nerve(cn.FiniteCategory.interval(), 1)])


def test_wedges_and_coproducts_on_equal_inputs_share_one_table():
    """Pushouts along two keyed legs (point and degeneracy maps) are kept
    in the memo of P's table.  Two ``wedge01`` calls on the same inputs,
    each with a point of its own that is gone before the next, give
    precats over one table, under each call's name; another vertex, other
    inputs, or one leg given cell by cell give another table.  Coproducts
    of equal inputs share one table."""
    X, Y = _wedge_inputs()
    first = cn.wedge01(X, Y)
    W, point_ref = first.precat, weakref.ref(first.R)
    del first
    assert point_ref() is None
    again = cn.wedge01(X, Y, "again")
    assert again.precat.table is W.table
    assert (W.name, again.precat.name) == ("wedge", "again")
    pt = point(X.n)
    others = [pushout(ps.point_map(X, 0, pt), ps.point_map(Y, 0, pt)).precat,
              cn.wedge01(Y, X).precat, cn.wedge01(X, X).precat,
              pushout(PrecatMap(pt, X, lambda M, c: X.degeneracy(M, 1)),
                      ps.point_map(Y, 0, pt)).precat]
    assert len({id(W.table), *(id(Z.table) for Z in others)}) == 1 + len(others)
    P, Q = discrete(1, (0, 1)), discrete(1, ("a", "b", "c"))
    co = coproduct(P, Q).precat
    assert coproduct(P, Q).precat.table is co.table
    assert coproduct(discrete(1, (0, 1)), discrete(1, ("a", "b", "c"))).precat.table is co.table
    assert coproduct(Q, P).precat.table is not co.table


def test_shared_wedge_table_against_its_oracle():
    """A wedge reached a second time, after its first user tabled the
    generators of window 2, is still its cell-level oracle, built from the
    second call's legs, on every window-3 morphism."""
    X, Y = _wedge_inputs()
    first = cn.wedge01(X, Y).precat
    for e in W2.elementary(first.n):
        first.table.act(e)
    second = cn.wedge01(X, Y, "second")
    assert second.precat.table is first.table
    assert helpers.table_violations(second.precat.table,
                                    helpers.pushout_oracle(second.f, second.g), Window(3)) == []


def test_a_category_changed_after_its_nerve_leaves_the_nerve_as_it_was():
    """A nerve reads a copy of its category, so a composition changed after
    the nerve is built reaches neither it nor the nerves of an unchanged
    copy of the category that share its table."""
    C = cn.FiniteCategory.iso_interval()
    N = cn.nerve(C, 1)
    C.table[("u", "v")] = "w"
    fresh = cn.nerve(cn.FiniteCategory.iso_interval(), 1)
    _interned(N, fresh)
    assert fresh.table is N.table
    assert ps.check_functoriality(N, W2) == ps.check_functoriality(fresh, W2) == []
    with pytest.raises(ps.PresheafError):
        json.loads(ps.dump_json(cn.nerve(C, 1), W2))


def test_base_and_derived_tables_die_with_the_last_precat_over_the_base():
    """With the cycle collector off, a base table and the edge complexes and
    products kept in its memo and theirs live while a precat over it lives,
    here a second one of equal content, and die when the last is dropped."""
    gc.collect()
    gc.disable()
    try:
        A, B = discrete(1, ("life", 0)), discrete(1, ("life", 0))
        U, X = upsilon([A, A]), product(upsilon([A]), upsilon([B]))
        assert iso_windowed(U, upsilon([B, B]), W2) is not None
        assert X.table.TA is X.table.TB and iso_windowed(X, X, W2) is not None
        refs = [weakref.ref(T) for T in (A.table, U.table, X.table, X.table.TA)]
        del A, U, X
        assert all(r() is not None for r in refs)
        del B
        assert all(r() is None for r in refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("face", [False, True], ids=["upsilon-A-D-W3", "merge-face-W2"])
def test_shared_edge_complex_tables_against_their_oracle(face):
    """A table reached a second time, after its first user tabled the
    generators of window 2, is still its oracle on every window morphism;
    the second input's sizes differ from one tail to another, so a stride
    read at the wrong end of a morphism shows."""
    A, D = discrete(1, (0, 1)), cn.nerve(cn.FiniteCategory.interval(), 1)
    first = upsilon([A, D])
    for e in W2.elementary(first.n):
        first.table.act(e)
    window = W2 if face else Window(3)
    if face:
        u = cn.upsilon_face([A, D], ("merge", 1))
        X = u.codomain
        assert u.naturality_violations(window) == []
        assert helpers.table_violations(
            u.domain.table, helpers.upsilon_oracle([product(A, D)]), window) == []
    else:
        X = upsilon([A, D], name="second")
    assert X.table is first.table
    assert helpers.table_violations(X.table, helpers.upsilon_oracle([A, D]), window) == []


@pytest.mark.parametrize("build", ["corner", "square", "shared", "wedge"])
def test_composite_tables_are_freed_without_the_cycle_collector(build, monkeypatch):
    """Every table, composite or first-direction, dies with the composites
    once the caller drops them after a check, but for those that precats
    alive before the check share: no table holds a reference cycle.  With
    the inputs kept ("shared", "wedge"), the tables of the edge complexes,
    products and wedges on them outlive the composites, serve a second
    instance, and die with the inputs."""
    owned = []
    real_init = TabledPrecat.__init__

    def spy_init(self, n, table, *args, **kwargs):
        owned.append(weakref.ref(table))
        real_init(self, n, table, *args, **kwargs)

    monkeypatch.setattr(TabledPrecat, "__init__", spy_init)

    def sides():
        if build == "corner":
            inc = cell(1, 1).inclusion
            data = pushout_product(inc, inc).source
            return data, data.precat, pushout_product(inc, inc).source.precat
        lhs, rhs = square_decomposition(discrete(1, (0, 1)), point(1))
        return lhs, lhs, rhs

    before = list(ps._BASES.values())
    gc.collect()
    gc.disable()
    try:
        if build == "shared":
            _shared_tables_live_as_long_as_their_first_inputs(owned)
            return
        if build == "wedge":
            monkeypatch.setattr(ps, "_BASES", weakref.WeakValueDictionary())
            _kept_wedges_live_as_long_as_their_inputs(owned)
            return
        data, lhs, rhs = sides()
        assert iso_windowed(lhs, rhs, W2) is not None
        refs = [weakref.ref(x) for x in (data, lhs, rhs)]
        del data, lhs, rhs
        shared = helpers.shared_tables(before)
        assert owned and all(r() is None for r in refs)
        assert all(r() is None or id(r()) in shared for r in owned)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _shared_tables_live_as_long_as_their_first_inputs(owned):
    """Two square instances on the same inputs B, D, of content no other
    precat has: the tables of ``upsilon([B])``, ``upsilon([D])``,
    ``upsilon([B, D])``, ``upsilon([D, B])``, ``upsilon([B x D])``, ``B x
    D``, ``D x B`` and ``upsilon([B]) x upsilon([D])``, kept in the memos
    of B's and D's tables, survive the first and are the second's."""
    inputs = [discrete(1, ("shared", 1)), discrete(1, ("shared",))]

    def kept():
        return helpers.shared_tables(inputs)

    lhs, rhs = square_decomposition(*inputs)
    assert iso_windowed(lhs, rhs, W2) is not None
    refs = [weakref.ref(lhs), weakref.ref(rhs)]
    del lhs, rhs
    assert all(r() is None for r in refs)
    survivors = {id(r()) for r in owned if r() is not None}
    assert survivors == kept() and len(survivors) == 2 + 8
    lhs, rhs = square_decomposition(*inputs)
    assert kept() == survivors
    assert lhs.table.TA is inputs[0].memo[(False,)][0]
    assert lhs.table is inputs[0].memo[(False,)][1][("x", lhs.table.TB)][0]
    assert iso_windowed(lhs, rhs, W2) is not None
    refs += [weakref.ref(lhs), weakref.ref(rhs)] + [weakref.ref(E) for E in inputs]
    del lhs, rhs, inputs
    assert all(r() is None for r in refs + owned)


def _kept_wedges_live_as_long_as_their_inputs(owned):
    """Two wedge instances on the edge complexes of the same inputs: the
    tables of the inputs, of their edge complexes, of the wedge kept in the
    memo of the first edge complex's table and of the point its legs read
    survive the first instance, are the second's, and die with the inputs."""
    inputs = [discrete(1, ("kept", 1)), discrete(1, ("kept",))]

    def wedges():
        X, Y = (upsilon([D]) for D in inputs)
        return cn.wedge01(X, Y).precat, cn.wedge01(X, Y, "again").precat

    first, again = wedges()
    assert first.table is again.table and iso_windowed(first, again, W2) is not None
    refs = [weakref.ref(first), weakref.ref(again)]
    del first, again
    assert all(r() is None for r in refs)
    survivors = {id(r()) for r in owned if r() is not None}
    assert survivors == helpers.shared_tables(inputs) and len(survivors) == 2 + 2 + 1 + 1
    first, again = wedges()
    assert id(first.table) in survivors and helpers.shared_tables(inputs) == survivors
    refs += [weakref.ref(first), weakref.ref(again)] + [weakref.ref(E) for E in inputs]
    del first, again, inputs
    assert all(r() is None for r in refs + owned)


_LAZY = """
import sys
import precats
from precats.constructions import FiniteCategory, nerve
from precats.presheaf import Window, iso_windowed, product
A = nerve(FiniteCategory.chain(2), 1)
B = nerve(FiniteCategory.chain(2), 1)
assert iso_windowed(A, B, Window(2)) is not None
print("precats.tables" in sys.modules)
product(A, B)
print("precats.tables" in sys.modules)
"""


def test_tables_module_is_imported_by_the_first_composite():
    """A nerve-against-nerve iso question (the refute benchmark's path) does
    not import ``precats.tables``; building a product does."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    done = subprocess.run([sys.executable, "-c", _LAZY],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]



_DUMPS_LAZY = """
import sys
import precats
from precats import cli, suite
from precats.constructions import FiniteCategory, nerve
from precats.presheaf import Window, dump_json, iso_windowed, product
A = nerve(FiniteCategory.chain(2), 1)
B = nerve(FiniteCategory.chain(2), 1)
assert iso_windowed(A, B, Window(2)) is not None
product(A, B)
print("precats.dumps" in sys.modules)
dump_json(A, Window(2))
print("precats.dumps" in sys.modules)
"""


def test_dumps_module_is_imported_by_the_first_dump():
    """An iso question and a product (the refute and verify-w3 benchmarks'
    paths), with the CLI and the suite imported, do not import
    ``precats.dumps``; writing a dump does."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    done = subprocess.run([sys.executable, "-c", _DUMPS_LAZY],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]

# ---------------------------------------------------------------------------
# deloopings and imported dumps
# ---------------------------------------------------------------------------

def _two():
    return cn.PointedPrecat(discrete(1, (0, 1)), 0)


def _interval():
    return cn.PointedPrecat(cn.nerve(cn.FiniteCategory.interval(), 1), 0)


@pytest.mark.parametrize("pointed, B", [
    (_two, 2), (_interval, 2), (lambda: cn.sigma_free(1, 1), 2), (_two, 3),
    (_interval, 3), (lambda: cn.sigma_free(1, 1), 3),
    (lambda: cn.PointedPrecat(discrete(1, (*TIE, "x")), "x"), 2)],
    ids=["two-W2", "N(I)-W2", "sigma-1-1-W2", "two-W3", "N(I)-W3", "sigma-1-1-W3",
         "ties-W2"])
def test_deloopings_tabled_as_cell_by_cell(pointed, B):
    """A delooping's table is built from its input's own table and is its
    cell-level oracle on every window morphism."""
    A = pointed()
    X = cn.delooping(A)
    T = X.table
    assert isinstance(T, DeloopingTable) and T is X.table
    assert T.TX is A.space.table
    assert helpers.table_violations(T, helpers.delooping_oracle(A), Window(B)) == []


def _dump_catalog():
    """The benchmark's catalogue of dumps: (name, build args, B, segal)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)     # its dataclasses look it up by name
    finally:
        del sys.modules[spec.name]
    return module.DUMP_CATALOG


_REDUMPED = ([(name, args, 2) for name, args, B, _ in _dump_catalog() if B == 2]
             + [("delooping-two_point", ["delooping", "--of", "two_point", "--n", "1"], 3)])


def _build(args, B):
    return cli.build_precat(cli.make_parser().parse_args(["build", *args, "--window", str(B)]))


_PAIRED = ([(name, args, 2) for name, args, B, _ in _dump_catalog() if B == 2]
           + [(name, args, 3) for name, args in (
               ("nerve-Ibar-n2", ["nerve", "--category", "Ibar", "--n", "2"]),
               ("delooping-two_point", ["delooping", "--of", "two_point", "--n", "1"]),
               ("whitehead-Ibar-k1", ["whitehead", "--of", "nerve", "--category", "Ibar",
                                      "--k", "1", "--n", "2"]))])


@pytest.mark.parametrize("args, B", [(args, B) for _, args, B in _PAIRED],
                         ids=[f"{name}@W{B}" for name, _, B in _PAIRED])
def test_pair_lists_are_the_actions_in_morphism_order(args, B):
    """``acts(s, t)`` on every window pair is ``act`` of each morphism in
    ``enumerate_morphisms`` order, for the built table of each dump of the
    benchmark's catalogue at W2 (a nerve, a constant presheaf, an edge
    complex, pushouts, a delooping, Whitehead subs) and of its three
    10,282-action W3 rows, and for the tables their dumps import to."""
    P, window = _build(args, B), Window(B)
    back = ps.precat_from_dump(ps.dump_json(P, window))
    for s, t, mors in window.morphisms(P.n):
        for T in (P.table, back.table):
            assert T.acts(s, t) == [T.act(f) for f in mors], (T, s, t)


@pytest.mark.parametrize("args, B", [(args, B) for _, args, B in _REDUMPED],
                         ids=[f"{name}@W{B}" for name, _, B in _REDUMPED])
def test_imported_dumps_redump_to_the_same_bytes(args, B):
    """A dump re-imported is a table of position lists, one list per
    distinct content and no map kept, and dumping it again gives the same
    bytes."""
    text = ps.dump_json(_build(args, B), Window(B))
    back = ps.precat_from_dump(json.loads(text))
    acts = [a for s, t in Window(B).pairs(back.n) for a in back.table.acts(s, t)]
    assert type(back.table) is WindowTable and len(acts) == len(json.loads(text)["actions"])
    assert all(type(a) is list and set(map(type, a)) <= {int} for a in acts)
    assert len({id(a) for a in acts}) == len({tuple(a) for a in acts})
    assert ps.dump_json(back, Window(B)) == text


@pytest.mark.parametrize("args, depth", [
    (args, {"boundary-1-1": 0, "whitehead-Ibar-k0": 0}.get(name, 1))
    for name, args, B in _REDUMPED if B == 2], ids=[
    f"{name}@W{B}" for name, _, B in _REDUMPED if B == 2])
def test_imported_dumps_check_functoriality_at_their_depth(args, depth):
    """An imported dump's table has no declared depth; the functoriality
    check measures the one its position lists have (the boundary and the
    Whitehead row are constant: depth 0), and agrees with the full-window
    generator sweep, as does the check of the table it was built from,
    which tabulates no level longer than its own depth."""
    P = _build(args, 2)
    back = ps.precat_from_dump(ps.dump_json(P, W2))
    assert back.table.depth == math.inf
    assert helpers.functoriality_against_the_sweep(back, W2).depth == depth
    assert helpers.functoriality_against_the_sweep(P, W2).depth == depth
    assert all(M.length <= P.table.depth for M in P.table._levels)


@pytest.mark.parametrize("args, maps", [
    (["nerve", "--category", "Ibar", "--n", "2"], 1777),
    (["delooping", "--of", "two_point", "--n", "1"], 1465)], ids=["Ibar-n2", "two_point"])
def test_dump_encodes_each_text_once(args, maps, monkeypatch):
    """At W3 the writer builds one text per distinct position list of a pair
    of levels, not one per morphism (10,282), and one per level's entries;
    each pair's components text is built once a process, from one text per
    distinct component of the pair: 69 components in all."""
    P, W3 = _build(args, 3), Window(3)
    text = ps.dump_json(P, W3)
    built = {"_map_text": [], "_ints": []}
    for name, calls in built.items():
        real = getattr(dumps, name)
        monkeypatch.setattr(dumps, name, lambda *a, real=real, calls=calls:
                            calls.append(a[-1]) or real(*a))
    assert ps.dump_json(P, W3) == text
    assert len(built["_map_text"]) == maps
    entries = [M.entries for M in W3.objects(P.n)]
    assert built["_ints"] == entries
    dumps.components_text.cache_clear()
    built["_ints"].clear()
    assert ps.dump_json(P, W3) == text
    per_pair = [c for s, t in W3.pairs(P.n)
                for c in dict.fromkeys(itertools.chain(*pair_components(s, t)))]
    assert sorted(built["_ints"]) == sorted(entries + per_pair)
    assert len(set(per_pair)) == 69


def test_import_counts_the_window_instead_of_listing_it(monkeypatch):
    """Import checks that every window morphism is listed by the gaps in
    each pair's list, sized by ``theta.pair_components``: the Ibar n = 2
    dump at W3 lists no morphism, and a gap names the one missing."""
    text = ps.dump_json(_build(["nerve", "--category", "Ibar", "--n", "2"], 3), Window(3))
    data, calls = json.loads(text), []
    for module in (ps, ps.theta):
        real = module.enumerate_morphisms
        monkeypatch.setattr(module, "enumerate_morphisms",
                            lambda s, t, real=real: calls.append((s, t)) or real(s, t))
    back = ps.precat_from_dump(data)
    assert calls == []
    assert ps.dump_json(back, Window(3)) == text
    m = data["actions"].pop(5)["morphism"]
    f = ps.theta.ThetaMorphism(*[ps.theta.object_of(2, m[end]) for end in ("source", "target")],
                               tuple(map(tuple, m["components"])))
    with pytest.raises(ps.PresheafError, match=re.escape(f"the action of {f} is not listed")):
        ps.precat_from_dump(data)


_ESCAPED = ('a"b', "back\\slash", "\n", "\x7f", "\u00e9", "\U0001f600")


def _dump_oracle_cases():
    """Builders of each construction of the benchmark's dump catalogue, the
    empty presheaf, an imported dump and labels that JSON must escape."""
    cases = {name: lambda args=args: cli.build_precat(
        cli.make_parser().parse_args(["build", *args]))
        for name, args, _, _ in _dump_catalog()}
    cases.update(empty=lambda: ps.empty(1), escaped=lambda: discrete(1, _ESCAPED),
                 imported=lambda: ps.precat_from_dump(
                     helpers.dump_window_oracle(upsilon([point(0)]), W2)))
    return cases


_DUMP_ORACLE_CASES = _dump_oracle_cases()


@pytest.mark.parametrize("name", list(_DUMP_ORACLE_CASES))
def test_dump_text_is_the_oracle_dict_dumped(name):
    """``dump_json`` writes the text ``json.dumps`` gives the dict built one
    action at a time, which ``json.loads`` reads back."""
    P = _DUMP_ORACLE_CASES[name]()
    oracle = helpers.dump_window_oracle(P, W2)
    text = ps.dump_json(P, W2)
    assert text == json.dumps(oracle, sort_keys=True, separators=(",", ":")) + "\n"
    assert json.loads(ps.dump_json(P, W2)) == oracle
    if name == "imported":
        assert type(P.table) is WindowTable
    if name == "escaped":
        assert text.isascii() and "\\ud83d\\ude00" in text
        assert sorted(oracle["levels"][0]["cells"]) == sorted(_ESCAPED)


class _Reversed(WindowTable):
    """Two cells ``a`` and ``b`` at every level, listed out of label order."""

    def _level(self, M):
        return ["b", "a"], ["b", "a"], {"b": 0, "a": 1}

    def _act(self, f):
        return [0, 1]


def test_dump_of_labels_out_of_order_is_an_internal_error(monkeypatch, capsys):
    """A dump lists an action's map in its level's order, so a table whose
    labels are out of ``str`` order is a fault of precats (exit 3), while a
    label tie stays a ``PresheafError``."""
    P = TabledPrecat(1, _Reversed(), "reversed")
    with pytest.raises(RuntimeError, match=r"level Obj\(\)@1 are not in label order") as got:
        ps.dump_json(P, W2)
    assert not isinstance(got.value, ValueError)
    with pytest.raises(ps.PresheafError, match="share the label"):
        ps.dump_json(discrete(1, (1, "1")), W2)
    monkeypatch.setattr(cli, "build_precat", lambda args: P)
    assert cli.main(["build", "point", "--window", "2"]) == 3
    assert capsys.readouterr().err.startswith("internal error: RuntimeError: cells of level")


def _broken_dump(fault):
    """The W2 dump of a two-cell discrete precat with one fault in the map
    of a non-identity morphism ``f``: the map left out, a cell left out of
    it, or an image outside ``f.source``."""
    data = json.loads(ps.dump_json(discrete(1, ("a", "b")), W2))
    f = next(f for s, t, mors in W2.morphisms(1) for f in mors if s != t)
    entry = next(e for e in data["actions"] if e["morphism"] == helpers.morphism_dict(f))
    if fault == "morphism":
        data["actions"].remove(entry)
    elif fault == "cell":
        del entry["map"]["b"]
    else:
        entry["map"]["a"] = "z"
    return data, f


@pytest.mark.parametrize("fault, error", [
    ("morphism", ps.PresheafError), ("cell", ps.PresheafError),
    ("image", ps.ActionDomainError)])
def test_broken_dumps_raise_typed_errors(fault, error, tmp_path, capsys):
    """A missing morphism or cell is a ``PresheafError`` and an image
    outside its level an ``ActionDomainError``, raised at import, before
    any check reads the dump; the command line exits 2."""
    data, f = _broken_dump(fault)
    with pytest.raises(ps.PresheafError, match=f"malformed dump: .*{re.escape(str(f))}") as got:
        ps.precat_from_dump(data)
    assert got.type is error
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert cli.main(["check", "functorial", "--in", str(path), "--window", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed dump")


def test_dump_levels_outside_its_window_name_the_window(tmp_path, capsys):
    """A W2 dump checked on window 3 is an input error naming ``B=2`` and
    the level or morphism; a window bound that is not an int >= 1 is a
    malformed dump."""
    P = discrete(1, ("a", "b"))
    data = json.loads(ps.dump_json(P, W2))
    with pytest.raises(ps.PresheafError, match=r"B=2.*\(3,\)"):
        ps.precat_from_dump(data).table.level(ps.object_of(1, [3]))
    f = Window(3).elementary(1)[-1]
    with pytest.raises(ps.PresheafError, match=rf"B=2 has no action entry for {re.escape(str(f))}"):
        ps.precat_from_dump(data).table.act(f)
    path = tmp_path / "w2.json"
    path.write_text(ps.dump_json(P, W2))
    assert cli.main(["check", "segal", "--in", str(path), "--window", "3"]) == 2
    assert "B=2" in capsys.readouterr().err
    for window in ({"B": True}, {"B": 0}, {"B": "2"}, {"B": 2.0}, {}, None):
        bad = dict(data, window=window)
        if window is None:
            del bad["window"]
        with pytest.raises(ps.PresheafError, match="malformed dump"):
            ps.precat_from_dump(bad)


@pytest.mark.parametrize("legs", ["cell by cell", "combinators"])
def test_pushout_legs_into_an_edge_complex_input_make_no_cycle(legs):
    """An edge complex whose later input is a pushout with a leg into its
    first input X: X's memo keeps the edge complex's table, which keeps the
    pushout's table, which keeps its legs' position lists and never the
    legs, so X's table is freed without the cycle collector.  X's content
    is its own, so no other precat shares its table."""
    gc.disable()
    try:
        R, X = point(1), discrete(1, ("legs", 1))
        if legs == "cell by cell":
            f, g = PrecatMap(R, X, lambda M, c: 1), PrecatMap(R, R, lambda M, c: c)
        else:
            f, g = ps.point_map(X, 1, R), identity_map(R)
        U = upsilon([X, pushout(f, g).precat])
        assert U.size(ps.object_of(2, [2, 1])) == 23 and f.positions and g.positions
        ref = weakref.ref(X.table)
        del R, X, f, g, U
        assert ref() is None
    finally:
        gc.enable()


def _spy_members(monkeypatch) -> list:
    """The levels whose member cells edge complexes and pushouts build."""
    built = []
    for cls in (UpsilonTable, PushoutTable):
        real = cls._members
        monkeypatch.setattr(cls, "_members", lambda self, M, real=real:
                            built.append(M) or real(self, M))
    return built


@pytest.mark.parametrize("entry", sorted(IDENTITIES))
def test_w3_entries_build_member_cells_only_where_cells_are_read(entry, monkeypatch):
    """The solver reads edge complexes and pushouts through their labels
    and position lists, and their maps as position lists, so their tables
    build member cells only at level 0, whose objects ``point_map``,
    ``wedge01`` and ``PointedPrecat`` read as cells; the corner split, the
    square and the cylinder build none."""
    built = _spy_members(monkeypatch)
    assert run_suite(3, only=entry).passed
    assert all(M.length == 0 for M in built)
    assert not built or entry not in ("corner_split", "square", "square_legacy", "cylinder")


def _tabulated(monkeypatch, entry: str) -> dict:
    """The levels suite entry ``entry`` tabulates at W2, by table class: a
    fresh intern keeps the precats of other tests out."""
    monkeypatch.setattr(ps, "_BASES", weakref.WeakValueDictionary())
    tabulated = dict.fromkeys(("ProductTable", "UpsilonTable", "PushoutTable"), 0)
    for cls in (ProductTable, UpsilonTable, PushoutTable):
        real = cls._tabulate

        def counted(self, M, real=real, name=cls.__name__):
            tabulated[name] += 1
            return real(self, M)
        monkeypatch.setattr(cls, "_tabulate", counted)
    assert run_suite(2, only=entry).passed
    return tabulated


def test_corner_split_effort_at_window_two(monkeypatch):
    """The levels the corner split tabulates over its 36 pairs at W2, by
    table class: counted, not timed, so a lost share shows as a count.  The
    six inclusions' four inputs live through the entry, so their products
    and edge complexes are tabulated once for all pairs; the pushouts, and
    the edge complex on each pair's corner pushout, once per pair.  Each
    table tabulates only the levels it is read at, those truncated at its
    depth (150, 385 and 1,116 levels when every table read the whole
    window)."""
    assert _tabulated(monkeypatch, "corner_split") == {
        "ProductTable": 96, "UpsilonTable": 301, "PushoutTable": 954}


def test_wedge_effort_at_window_two(monkeypatch):
    """The levels the wedge entry tabulates over its 36 pairs at W2.  Its
    144 ``wedge01`` pushouts glue 16 distinct pairs of the four inputs'
    edge complexes, which live through the entry, along keyed point maps,
    so each of the 16 is tabulated once (1,260 pushout levels when every
    wedge had a table of its own); each pair's ``wedge-lhs`` pushout, along
    induced maps, is tabulated once per pair.  Each table tabulates only
    the levels truncated at its depth (28 edge complex and 364 pushout
    levels when every table read the whole window)."""
    assert _tabulated(monkeypatch, "wedge") == {
        "ProductTable": 0, "UpsilonTable": 16, "PushoutTable": 292}


def test_passing_checks_build_no_member_cells(monkeypatch):
    """Functoriality and naturality read a level's cells only to name a
    failure there, so on composite tables passing checks build none."""
    built = _spy_members(monkeypatch)
    c = cn.cell(2, 2)
    assert ps.check_functoriality(c.boundary, W2) == []
    assert c.inclusion.naturality_violations(W2) == []
    assert built == []


def test_deloopings_and_dumps_are_freed_without_the_cycle_collector():
    """A delooping and an imported dump, with their tables, die once the
    caller drops them: neither table holds a reference cycle."""
    gc.disable()
    try:
        X = cn.delooping(_interval())
        D = ps.precat_from_dump(json.loads(ps.dump_json(X, W2)))
        assert ps.check_functoriality(X, W2) == ps.check_functoriality(D, W2) == []
        assert ps.iso_windowed(X, D, W2) is not None
        refs = [weakref.ref(x) for x in (X, X.table, X.table.TX, D, D.table)]
        del X, D
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# subpresheaves and slices
# ---------------------------------------------------------------------------

def _ibar(n=2):
    return cn.nerve(cn.FiniteCategory.iso_interval(), n)


@pytest.mark.parametrize("k", [0, 1])
def test_whitehead_subs_tabled_as_cell_by_cell(k):
    """A Whitehead sub keeps positions of its input's own table, and is the
    cell-level sub-presheaf on every morphism of window 3."""
    A = _ibar()
    W, _ = cn.whitehead(A, 0, k)
    assert type(W.table) is SubTable and W.table.TP is A.table
    oracle = helpers.sub_oracle(A, helpers.whitehead_keep(A, 0, k))
    assert helpers.table_violations(W.table, oracle, Window(3)) == []


@pytest.mark.parametrize("build, p, points", [
    (lambda: cn.ck_monoidal(cn.z2_monoid(), 2), 1, ("pt", "pt")),
    (lambda: cn.ck_monoidal(cn.z2_monoid(), 2), 2, ("pt", "pt", "pt")),
    (_ibar, 1, (0, 1)),
    (_ibar, 2, (0, 1, 1)),
], ids=["c2(Z2)-1", "c2(Z2)-2", "Ibar-01", "Ibar-011"])
def test_hom_fibres_tabled_as_cell_by_cell(build, p, points):
    """A hom fibre is a sub of a slice, each reading its parent's table,
    and is the cell-level fibre on every morphism of window 3."""
    A = build()
    H = ps.hom_precat(A, p, points)
    assert type(H.table) is SubTable and type(H.table.TP) is SliceTable
    assert H.table.TP.TA is A.table
    oracle = helpers.sub_oracle(helpers.slice_oracle(A, (p,)),
                                helpers.hom_keep(A, p, points))
    assert helpers.table_violations(H.table, oracle, Window(3)) == []


@pytest.mark.parametrize("build, prefix", [
    (lambda: cn.delooping(_two()), (1,)),
    (lambda: cn.delooping(_two()), (2,)),
    (lambda: cn.delooping(_two()), (2, 1)),
    (lambda: upsilon([point(1), point(1)]), (1,)),
    (lambda: upsilon([point(1), point(1)]), (2,)),
], ids=["X(two)@1", "X(two)@2", "X(two)@21", "U(pt,pt)@1", "U(pt,pt)@2"])
def test_slices_tabled_as_cell_by_cell(build, prefix):
    """A slice reads its input's levels and position lists as they are,
    and is the cell-level slice on every morphism of window 3."""
    A = build()
    S = ps.slice_precat(A, prefix)
    assert type(S.table) is SliceTable and S.table.TA is A.table
    assert helpers.table_violations(S.table, helpers.slice_oracle(A, prefix),
                                    Window(3)) == []


def test_sub_presheaf_not_closed_under_the_action_raises_a_typed_error():
    """Keeping "a" only at level 0 but both cells above it is no
    sub-presheaf: the vertex restriction of "b" is not kept.  The table,
    ``act`` and the functoriality check all raise ``ActionDomainError``, and
    so do a level pair's ``acts``, here and on a sub of a nerve, with the
    message ``act`` gives the pair's first morphism that leaves the sub."""
    D = discrete(1, ("a", "b"))
    S, _ = ps.sub_precat(D, lambda M: (lambda c: c == "a" or M.length > 0))
    f = ps.vertex(ps.object_of(1, [1]), 0)
    assert [len(S.cells(M)) for M in (f.source, f.target)] == [1, 2]
    with pytest.raises(ps.ActionDomainError, match="left level"):
        S.table.act(f)
    with pytest.raises(ps.ActionDomainError):
        S.act(f, "a")
    with pytest.raises(ps.ActionDomainError):
        ps.check_functoriality(S, W2)
    chain = cn.nerve(cn.FiniteCategory.chain(3), 1)
    for sub in (S, ps.sub_precat(chain, lambda M: (lambda c: c == 0 or M.length > 0))[0]):
        failed = 0
        for s, t, mors in W2.morphisms(1):  # a pair's lists fail where its first morphism does
            errors = []
            for g in mors:
                try:
                    sub.table.act(g)
                except ps.ActionDomainError as exc:
                    errors.append(str(exc))
            if not errors:
                assert sub.table.acts(s, t) == list(map(sub.table.act, mors))
                continue
            failed += 1
            with pytest.raises(ps.ActionDomainError) as got:
                sub.table.acts(s, t)
            assert str(got.value) == errors[0]
        assert failed


def test_subs_slices_and_truncations_are_freed_without_the_cycle_collector():
    """A sub, a slice, a hom fibre, a Whitehead sub, a truncation, a
    monoidal tower and its truncation, with their tables, die once the
    caller drops them, while their inputs live on: no table holds a
    reference cycle."""
    A, mon = _ibar(), cn.z2_monoid()
    gc.disable()
    try:
        built = [ps.sub_precat(A, lambda M: lambda c: True)[0], ps.slice_precat(A, (1,)),
                 ps.hom_precat(A, 1, (0, 1)), cn.whitehead(A, 0, 1)[0],
                 an.truncate(A, 1), cn.ck_monoidal(mon, 2)]
        built.append(an.truncate(built[-1], 1))
        refs = [weakref.ref(built[2].table.TP)]         # the hom fibre's slice
        for P in built:
            assert ps.check_functoriality(P, W2) == []
            refs += [weakref.ref(P), weakref.ref(P.table)]
        del built, P
        assert [r() for r in refs] == [None] * len(refs)
        assert A.cells(ps.zero_object(2)) and mon.carrier.cells(ps.zero_object(0))
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# monoidal towers and truncations
# ---------------------------------------------------------------------------

def _join():
    """The nerve of ``0 < 1`` under pointwise max, unit 0: a commutative
    monoid whose carrier varies along its direction, so the towers' tail
    morphisms move cells."""
    carrier = cn.nerve(cn.FiniteCategory.chain(1), 1)

    def join(M, c):
        if M.length == 0:
            return max(c)
        return tuple((max(x[0], y[0]), max(x[1], y[1])) for x, y in zip(*c))

    return cn.MonoidObject(
        carrier, PrecatMap(product(carrier, carrier), carrier, join, name="max"),
        PrecatMap(point(1), carrier, lambda M, c: 0 if M.length == 0
                  else ((0, 0),) * M.entries[0], name="0"), commutative=True)


@pytest.mark.parametrize("mon, k, B, every", [
    (cn.z2_monoid, 1, 2, True), (cn.z2_monoid, 2, 2, True), (cn.z2_monoid, 1, 3, True),
    (cn.z2_monoid, 2, 3, False), (helpers.right_zero_monoid, 1, 3, True), (_join, 1, 2, True),
    (_join, 2, 2, False)],
    ids=["Z2-1-W2", "Z2-2-W2", "Z2-1-W3", "Z2-2-W3-gen", "right-zero-1-W3", "join-1-W2",
         "join-2-W2-gen"])
def test_monoidal_towers_tabled_as_cell_by_cell(mon, k, B, every):
    """A tower's table is built from its carrier's table and is the
    cell-level tower on every window morphism (on the generators alone
    where every morphism costs the oracle from 17 s to minutes)."""
    m = mon()
    assert m.law_violations(Window(B)) == []
    c = cn.ck_monoidal(m, k)
    assert type(c.table) is MonoidalTable and c.table.TA is m.carrier.table
    assert helpers.table_violations(c.table, helpers.ck_oracle(m, k), Window(B),
                                    generators_only=not every) == []


@pytest.mark.parametrize("build, k, window, sha256", TRUNCATIONS, ids=TRUNCATION_IDS)
def test_truncations_tabled_as_cell_by_cell(build, k, window, sha256):
    """A truncation's table reads its input's table and is the cell-level
    truncation on every window morphism."""
    A = build()
    t = an.truncate(A, k)
    assert type(t.table) is TruncationTable and t.table.TA is A.table
    assert helpers.table_violations(t.table, helpers.truncation_oracle(A, k), window) == []


# ---------------------------------------------------------------------------
# depths: each table read at its truncation
# ---------------------------------------------------------------------------

def _depth_cases():
    """A table of each kind that cuts, with its cell-level oracle and its
    depth, in dimension 2, so window 2 holds levels longer than the depth."""
    D, Ibar = discrete(2, ("a", "b")), cn.FiniteCategory.iso_interval()
    N = cn.nerve(Ibar, 2)
    c1, c2 = cn.cell(1, 2), cn.cell(2, 3).total
    collapse = terminal_map(c1.boundary)
    mon = cn.monoid_from_table((0, 1), lambda a, b: (a + b) % 2, 0, True, n=1, name="Z2")
    X = cn.delooping(_two())
    return [
        ("discrete", D, helpers.discrete_oracle(2, ("a", "b")), 0),
        ("nerve", N, helpers.nerve_oracle(Ibar, 2), 1),
        ("product", product(N, D), helpers.product_oracle(N, D), 1),
        ("pushout", pushout(c1.inclusion, collapse).precat,
         helpers.pushout_oracle(c1.inclusion, collapse), 1),
        ("upsilon", c1.total, helpers.upsilon_oracle([point(1)]), 1),
        ("delooping", X, helpers.delooping_oracle(_two()), 1),
        ("monoidal", cn.ck_monoidal(mon, 1), helpers.ck_oracle(mon, 1), 1),
        ("slice", ps.slice_precat(c2, (2,)), helpers.slice_oracle(c2, (2,)), 1),
    ]


def test_tables_that_cut_are_their_oracles_and_depths_are_pinned():
    """Each kind of table whose depth is below its dimension is its
    cell-level oracle on every morphism of window 2, where levels and
    morphisms longer than the depth are read at their truncation, and keeps
    only levels no longer than its depth.  A cell and a free generator have
    the depth of their index, a delooping one more than its input, a
    monoidal tower k more than its carrier, a nerve 1 and a constant
    presheaf 0; a sub, a truncation and a dump make no cut."""
    for kind, P, oracle, depth in _depth_cases():
        T = P.table
        assert (T.depth, P.n) == (depth, 2), kind
        assert helpers.table_violations(T, oracle, W2) == [], kind
        assert max(M.length for M in T._levels) == depth, kind
    assert [[cn.cell(k, n).total.table.depth for k in range(n + 2)] for n in (1, 2, 3)] == [
        [0, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3, 3]]
    assert [cn.sigma_free(k, 3).space.table.depth for k in range(4)] == [0, 1, 2, 3]
    assert [cn.delooping(A).table.depth for A in (_two(), _interval(), cn.sigma_free(1, 1))] \
        == [1, 2, 2]
    assert [cn.ck_monoidal(cn.z2_monoid(), k).table.depth for k in (1, 2)] == [1, 2]
    assert [T.depth for T in (cn.nerve(cn.FiniteCategory.chain(2), 3).table,
                              discrete(3, (0, 1)).table, point(0).table)] == [1, 0, 0]
    A = cn.nerve(cn.FiniteCategory.iso_interval(), 2)
    assert [T.depth for T in (cn.whitehead(A, 0, 1)[0].table, an.truncate(A, 1).table,
                              ps.precat_from_dump(ps.dump_json(A, W2)).table)] == [
        float("inf")] * 3


def _reimported(P, window, path):
    """P read back from its dump, written and read a block at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(dumps.dump_chunks(P, window))
    with open(path, encoding="utf-8") as fh:
        return ps.precat_from_dump(fh)


@pytest.mark.parametrize("entry", ["tower-n3", "tower-n4", "delooping"])
def test_cut_search_agrees_with_the_search_on_reimported_dumps(entry, tmp_path):
    """A dump's table makes no cut, so the solver searches every level of
    its window: the suspension tower's questions at (n, B) = (3, 2) and (4,
    2) and the delooping entry's at W2 find, on the sides read back from
    their dumps, the bijections found on the sides built, which the solver
    searches up to their depth, position for position on every level."""
    if entry == "delooping":
        pairs = [(cn.delooping(A), cn.suspension(A).precat)
                 for A in (_two(), _interval(), cn.sigma_free(1, 1))]
    else:
        k = int(entry[-1]) - 2
        pairs = [(cn.suspension(cn.sigma_free(k, k + 1)).precat,
                  cn.sigma_free(k + 1, k + 2).space)]
    assert any(max(P.table.depth, Q.table.depth) < P.n for P, Q in pairs)
    for P, Q in pairs:
        built = iso_windowed(P, Q, W2)
        read = iso_windowed(_reimported(P, W2, tmp_path / "P.json"),
                            _reimported(Q, W2, tmp_path / "Q.json"), W2)
        assert built is not None and read is not None
        assert all(built.at(M) == read.at(M) for M in W2.objects(P.n))
