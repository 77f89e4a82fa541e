"""Laws of the named constructions: nerves, edge complexes and faces, cells,
suspension and delooping, the Whitehead operation, corner maps and the
monoidal towers."""

import itertools

import pytest

from precats import (FiniteCategory, PointedPrecat, PrecatMap, Window, cell,
                     check_functoriality, ck_monoidal, claim_fold, delooping,
                     discrete, empty, enumerate_natural_maps, hom_precat,
                     is_cofibration, iso_windowed, monoid_from_table, nerve,
                     object_of, point, pushout_product, sigma_free,
                     slice_precat, square_decomposition, suspension, upsilon,
                     upsilon_face, upsilon_map, wedge01, whitehead,
                     z2_monoid, zero_object)
from precats.constructions import ConstructionError, InvalidArgumentError
from precats.presheaf import PresheafError
from precats.theta import normalize_morphism

import helpers

o = object_of
W2, W3 = Window(2), Window(3)


# ---------------------------------------------------------------------------
# finite categories and nerves
# ---------------------------------------------------------------------------

def test_category_validation_catches_bad_tables():
    with pytest.raises(ConstructionError):
        FiniteCategory((0,), (("id", 0), "g"), {("id", 0): 0, "g": 0},
                       {("id", 0): 0, "g": 0}, {0: ("id", 0)},
                       {(("id", 0), ("id", 0)): ("id", 0),
                        (("id", 0), "g"): "g", ("g", ("id", 0)): "g",
                        ("g", "g"): ("id", 0) if False else "missing"})


@pytest.mark.parametrize("arrows, src, tgt, table, message", [
    (("f",), {"f": 0, "i": 0}, {"f": 0, "i": 0}, {("f", "f"): "f", ("f", "i"): "f"},
     "bad identity at 0"),
    (("i",), {}, {"i": 0}, {("i", "i"): "i"}, "bad identity at 0"),
    (("i", "f"), {"i": 0}, {"i": 0}, {("i", "i"): "i"}, "dangling arrow 'f'"),
    (("i", "f"), {"i": 0, "f": 0}, {"i": 0}, {("i", "i"): "i"}, "dangling arrow 'f'"),
], ids=["identity-not-an-arrow", "identity-without-src", "arrow-without-ends",
        "arrow-without-tgt"])
def test_category_with_missing_entries_raises_construction_error(arrows, src, tgt,
                                                                 table, message):
    """An identity that is no arrow or has no source, and an arrow without
    an end, are construction errors, not bare ``KeyError``s."""
    with pytest.raises(ConstructionError, match=message):
        FiniteCategory((0,), arrows, src, tgt, {0: "i"}, table)


def _first_law_failure(objects, arrows, src, tgt, ident, table):
    """The category laws checked by a scan of all pairs and all triples of
    arrows: the message of the first failure, or None."""
    for a in arrows:
        for b in arrows:
            if tgt[a] == src[b]:
                c = table.get((a, b))
                if c not in arrows or src[c] != src[a] or tgt[c] != tgt[b]:
                    return f"bad composite for {a!r};{b!r}"
        if table.get((ident[src[a]], a)) != a or table.get((a, ident[tgt[a]])) != a:
            return f"identity law fails at {a!r}"
    for a, b, c in itertools.product(arrows, repeat=3):
        if tgt[a] == src[b] and tgt[b] == src[c] and \
                table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            return f"associativity fails at {a!r},{b!r},{c!r}"
    return None


def test_category_validation_matches_a_scan_of_all_pairs_and_triples():
    """``validate`` accepts exactly the tables a scan of all pairs and
    triples accepts, and names the same first failure: on every candidate
    table of up to three objects and two generators, and on each such
    table with one entry dropped."""
    seen = failed = 0
    for objects, arrows, src, tgt, ident, table in helpers.candidate_categories():
        for drop in [None, *table]:
            entries = {k: v for k, v in table.items() if k != drop}
            want = _first_law_failure(objects, arrows, src, tgt, ident, entries)
            try:
                FiniteCategory(objects, arrows, src, tgt, ident, entries)
                got = None
            except ConstructionError as exc:
                got, failed = str(exc), failed + 1
            assert got == want, (arrows, src, tgt, drop)
            seen += 1
    assert seen > 3000 and 0 < failed < seen


def test_nerve_chain_counts():
    N = nerve(FiniteCategory.interval(), 1)
    for p in range(1, 5):
        assert N.size(o(1, [p])) == p + 2


def test_nerve_iso_interval_level_one():
    N = nerve(FiniteCategory.iso_interval(), 1)
    assert N.size(o(1, [1])) == 4


def test_nerve_constant_in_tail_directions():
    N = nerve(FiniteCategory.iso_interval(), 2)
    assert N.cells(o(2, [2])) == N.cells(o(2, [2, 1])) == N.cells(o(2, [2, 2]))
    assert not check_functoriality(N, W2)


def test_monoid_category():
    Z2 = FiniteCategory.monoid((0, 1), lambda a, b: (a + b) % 2, 0)
    N = nerve(Z2, 1)
    assert N.size(o(1, [])) == 1
    assert N.size(o(1, [2])) == 4


# ---------------------------------------------------------------------------
# the edge complex
# ---------------------------------------------------------------------------

def test_upsilon_point_is_the_interval_nerve():
    assert iso_windowed(upsilon([point(0)]), nerve(FiniteCategory.interval(), 1),
                        W3) is not None


def test_upsilon_hom_zero_two_is_the_product():
    E = discrete(0, ("e1", "e2"))
    F = discrete(0, ("f1", "f2", "f3"))
    U = upsilon([E, F])
    h02 = hom_precat(U, 1, (0, 2))
    assert len(h02.cells(o(0, []))) == 6
    h10 = hom_precat(U, 1, (1, 0))
    assert len(h10.cells(o(0, []))) == 0
    h01 = hom_precat(U, 1, (0, 1))
    assert len(h01.cells(o(0, []))) == 2


def test_upsilon_empty_decreasing_paths():
    U = upsilon([point(0), point(0)])
    for (y, _values) in U.cells(o(1, [2])):
        assert list(y) == sorted(y)


def test_upsilon_mapping_property_count():
    """Windowed maps out of the edge complex match (vertex pair, map into
    the hom fiber) choices."""
    E = discrete(0, ("a", "b"))
    A = nerve(FiniteCategory.chain(2), 1)
    lhs = len(enumerate_natural_maps(upsilon([E]), A, W2))
    rhs = 0
    for x in A.cells(zero_object(1)):
        for y in A.cells(zero_object(1)):
            hom = hom_precat(A, 1, (x, y))
            rhs += len(hom.cells(zero_object(0))) ** 2
    assert lhs == rhs == 6


def test_upsilon_functorial_in_inputs():
    E = discrete(0, ("a", "b"))
    m = PrecatMap(E, point(0), lambda M, c: "pt", name="!")
    um = upsilon_map([m])
    assert not um.naturality_violations(W3)


def test_faces_drop_and_merge():
    E = discrete(0, ("a", "b"))
    F = discrete(0, ("c",))
    last = upsilon_face([E, F], "drop_last")
    first = upsilon_face([E, F], "drop_first")
    merge = upsilon_face([E, F], ("merge", 1))
    z = zero_object(1)
    assert {last.apply(z, v) for v in (0, 1)} == {0, 1}
    assert {first.apply(z, v) for v in (0, 1)} == {1, 2}
    assert {merge.apply(z, v) for v in (0, 1)} == {0, 2}
    for fc in (last, first, merge):
        assert not fc.naturality_violations(W2)
        assert is_cofibration(fc, W2)


def test_faces_are_injective_below_top():
    E = discrete(0, ("a", "b"))
    F = discrete(0, ("c", "d"))
    merge = upsilon_face([E, F], ("merge", 1))
    M = o(1, [1])
    images = [merge.apply(M, c) for c in merge.domain.cells(M)]
    assert len(set(images)) == len(images)


def test_faces_intersect_in_shared_vertices():
    """Two distinct principal faces meet exactly in the lower-complex data
    over their shared vertices."""
    E = discrete(0, ("a",))
    F = discrete(0, ("b",))
    last = upsilon_face([E, F], "drop_last")
    first = upsilon_face([E, F], "drop_first")
    for M in W2.objects(1):
        img_last = {last.apply(M, c) for c in last.domain.cells(M)}
        img_first = {first.apply(M, c) for c in first.domain.cells(M)}
        meet = img_last & img_first
        if M.length == 0:
            assert meet == {1}
        else:
            assert all(set(y) == {1} for (y, _v) in meet)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

def test_cells_low_dimensions():
    c1 = cell(1, 1)
    assert iso_windowed(c1.total, nerve(FiniteCategory.interval(), 1), W3) is not None
    assert iso_windowed(c1.boundary, discrete(1, (0, 1)), W3) is not None


def test_boundary_two_matches_direct_build():
    c2 = cell(2, 2)
    direct = upsilon([discrete(1, (0, 1))])
    assert iso_windowed(c2.boundary, direct, W2) is not None


def test_cell_inclusions_are_cofibrations():
    for i, n in [(1, 1), (2, 2), (1, 2), (3, 3)]:
        data = cell(i, n)
        assert is_cofibration(data.inclusion, W2)
        assert not data.inclusion.naturality_violations(W2)


def test_cell_limit_case():
    data = cell(2, 1)
    assert data.total.size(o(1, [1])) == 3
    assert data.boundary.size(o(1, [1])) == 4   # two interval copies glued on 2*
    assert not data.inclusion.naturality_violations(W2)


def test_cell_index_range():
    with pytest.raises(InvalidArgumentError):
        cell(3, 1)
    with pytest.raises(InvalidArgumentError):
        cell(-1, 1)


# ---------------------------------------------------------------------------
# suspension, free towers, delooping
# ---------------------------------------------------------------------------

def test_suspension_has_one_object():
    A = PointedPrecat(discrete(1, (0, 1)), 0)
    S = suspension(A)
    assert S.precat.size(o(2, [])) == 1


def test_suspension_loops_map_is_natural_injection():
    A = PointedPrecat(nerve(FiniteCategory.interval(), 1), 0)
    S = suspension(A)
    assert not S.loops.naturality_violations(W2)
    for T in W2.objects(1):
        imgs = [S.loops.apply(T, c) for c in A.space.cells(T)]
        assert len(set(imgs)) == len(imgs)


def test_suspension_of_two_points_is_sigma_one():
    S = suspension(PointedPrecat(discrete(1, (0, 1)), 0))
    assert iso_windowed(S.precat, sigma_free(1, 2).space, W2) is not None


def test_suspension_tower():
    for k in (0, 1, 2):
        S = suspension(sigma_free(k, k + 1))
        target = sigma_free(k + 1, k + 2)
        assert iso_windowed(S.precat, target.space, W2) is not None


def test_sigma_zero_is_two_points():
    s0 = sigma_free(0, 1)
    assert iso_windowed(s0.space, discrete(1, (0, 1)), W3) is not None


def test_sigma_mapping_property():
    """Windowed maps out of the free generator match boundary-degenerate
    cells at the top level."""
    z2cat = FiniteCategory.monoid((0, 1), lambda a, b: (a + b) % 2, 0)
    for A in (nerve(z2cat, 1), nerve(FiniteCategory.chain(2), 1)):
        s1 = sigma_free(1, 1)
        maps = enumerate_natural_maps(s1.space, A, W2)
        one = o(1, [1])
        loops = [c for c in A.cells(one)
                 if len({A.act(f, c) for f in
                         (normalize_morphism(zero_object(1), one, [(0,)]),
                          normalize_morphism(zero_object(1), one, [(1,)]))}) == 1]
        assert len(maps) == len(loops)


def test_delooping_levels_and_faces():
    A = PointedPrecat(discrete(1, (0, 1)), 0)
    X = delooping(A)
    assert X.size(o(2, [])) == 1
    assert X.size(o(2, [1])) == 2
    assert X.size(o(2, [2])) == 3      # wedge of two copies
    two = o(2, [2])
    onel = o(2, [1])
    f01 = normalize_morphism(onel, two, [(0, 1), (0,)])
    f12 = normalize_morphism(onel, two, [(1, 2), (0,)])
    f02 = normalize_morphism(onel, two, [(0, 2), (0,)])
    c1, c2 = ("w", 1, 1), ("w", 2, 1)
    assert X.act(f01, c1) == ("w", 1, 1) and X.act(f01, c2) == ("wpt",)
    assert X.act(f12, c1) == ("wpt",) and X.act(f12, c2) == ("w", 1, 1)
    assert X.act(f02, c1) == ("w", 1, 1) and X.act(f02, c2) == ("w", 1, 1)


def test_delooping_simplicial_identities_via_functoriality():
    A = PointedPrecat(nerve(FiniteCategory.interval(), 1), 0)
    assert not check_functoriality(delooping(A), W2)


def test_delooping_level_two_is_the_wedge():
    from precats import pushout
    space = nerve(FiniteCategory.interval(), 1)
    A = PointedPrecat(space, 0)
    X = delooping(A)
    pt = point(1)
    at_a = PrecatMap(pt, space, lambda M, c: space.degeneracy(M, 0), name="a")
    at_a2 = PrecatMap(pt, space, at_a.apply, name="a2")
    wedge = pushout(at_a, at_a2)
    lhs = slice_precat(X, (2,))
    assert iso_windowed(lhs, wedge.precat, W2) is not None


@pytest.mark.parametrize("X, Y, vertex", [("point", "point", 1),
                                           ("point", "interval", 1),
                                           ("interval", "point", 0)])
def test_wedge_of_a_missing_vertex_raises_presheaf_error(X, Y, vertex):
    """``wedge01`` names its vertices to ``point_map``, which rejects a
    vertex that is not an object: 1 of the left input, 0 of the right."""
    spaces = {"point": point(1), "interval": nerve(FiniteCategory.interval(), 1)}
    with pytest.raises(PresheafError, match=f"^{vertex} is not an object of point$"):
        wedge01(spaces[X], spaces[Y])


def test_delooping_is_the_suspension():
    for A in (PointedPrecat(discrete(1, (0, 1)), 0),
              PointedPrecat(nerve(FiniteCategory.interval(), 1), 0),
              sigma_free(1, 1)):
        assert iso_windowed(delooping(A), suspension(A).precat, W2) is not None


# ---------------------------------------------------------------------------
# the Whitehead operation
# ---------------------------------------------------------------------------

def _nib2():
    return nerve(FiniteCategory.iso_interval(), 2)


def test_whitehead_point_below_the_cut():
    A = _nib2()
    for k in (0, 1):
        W, incl = whitehead(A, 0, k)
        for M in W3.objects(2):
            if M.length <= k:
                assert W.size(M) == 1
        assert not incl.naturality_violations(W2)


def test_whitehead_idempotent():
    A = _nib2()
    W, _ = whitehead(A, 0, 1)
    W2_, _ = whitehead(W, 0, 1)
    for M in W3.objects(2):
        assert W.cells(M) == W2_.cells(M)


def test_whitehead_hom_preservation():
    A = _nib2()
    W, _ = whitehead(A, 0, 0)
    for T in W3.objects(1):
        assert hom_precat(W, 1, (0, 0)).cells(T) == \
            hom_precat(A, 1, (0, 0)).cells(T)


def test_whitehead_recursion_formula():
    A = ck_monoidal(z2_monoid(), 2)
    a = "pt"
    k = 1
    Wh, _ = whitehead(A, a, k)
    for p in (1, 2):
        lhs = slice_precat(Wh, (p,))
        fiber = hom_precat(A, p, (a,) * (p + 1))
        dp = A.degeneracy(o(2, [p]), a)
        rhs, _ = whitehead(fiber, dp, k - 1)
        for T in W3.objects(1):
            assert lhs.cells(T) == rhs.cells(T)


def _whitehead_catalogue():
    """Pointed inputs with the window for k >= 1; the double monoid tower is
    trimmed to W2 there, where the sweep at W3 alone takes about 1.7 s."""
    z2 = FiniteCategory.monoid((0, 1), lambda x, y: (x + y) % 2, 0, name="Z2")
    c2 = ck_monoidal(z2_monoid(), 2)
    s12, s22 = sigma_free(1, 2), sigma_free(2, 2)
    out = [(nerve(FiniteCategory.interval(), 2), 0, W3),
           (_nib2(), 0, W3),
           (nerve(FiniteCategory.chain(2), 2), 0, W3),
           (nerve(z2, 2), "*", W3),
           (ck_monoidal(z2_monoid(), 1), "pt", W3),
           (c2, "pt", W2),
           (s12.space, s12.base, W3),
           (s22.space, s22.base, W3),
           (discrete(2, (0, 1)), 0, W3),
           (upsilon([point(1), point(1)]), 0, W3),
           (delooping(PointedPrecat(discrete(1, (0, 1)), 0)), "pt", W3)]
    for p in (1, 2):
        out.append((hom_precat(c2, p, ("pt",) * (p + 1)),
                    c2.degeneracy(o(2, [p]), "pt"), W3))
    return out


def test_whitehead_agrees_with_the_all_morphism_sweep():
    """The vertex-map quantifier keeps the same cells as the sweep over every
    morphism from a level of length <= k, on W3 for every k (W2 for the
    trimmed inputs of the catalogue)."""
    import helpers

    for A, a, upper in _whitehead_catalogue():
        for k in range(A.n + 1):
            W, _ = whitehead(A, a, k)
            S, _ = helpers.whitehead_by_all_morphisms(A, a, k)
            for M in (upper if k >= 1 else W3).objects(A.n):
                assert W.cells(M) == S.cells(M), (A.name, k, M)


def test_whitehead_rejects_non_object_base():
    with pytest.raises(InvalidArgumentError):
        whitehead(_nib2(), "nope", 0)


# ---------------------------------------------------------------------------
# corner maps
# ---------------------------------------------------------------------------

def test_corner_table_dimension_zero():
    import math
    from precats import min_dim_map0
    a = cell(0, 0).inclusion
    b = cell(1, 0).inclusion
    values = {}
    for name, f, g in [("aa", a, a), ("ab", a, b), ("ba", b, a), ("bb", b, b)]:
        values[name] = min_dim_map0(pushout_product(f, g).map).value
    assert values == {"aa": 0, "ab": 1, "ba": 1, "bb": math.inf}


def test_corner_with_empty_base_is_a_product_map():
    B = discrete(0, ("b1", "b2"))
    C = discrete(0, ("c",))
    D = discrete(0, ("d1", "d2"))
    f = PrecatMap(empty(0), B, lambda M, c: c, name="0->B")
    g = PrecatMap(C, D, lambda M, c: "d1", name="g")
    corner = pushout_product(f, g)
    z = zero_object(0)
    assert corner.source.precat.size(z) == B.size(z) * C.size(z)
    for rep in corner.source.precat.cells(z):
        side, (bc0, bc1) = rep
        assert side == "R"
        assert corner.map.apply(z, rep) == (bc0, g.apply(z, bc1))


def test_square_decomposition_family():
    for B in (empty(0), point(0), discrete(0, ("u", "v"))):
        for D in (point(0), discrete(0, ("s", "t"))):
            lhs, rhs = square_decomposition(B, D)
            assert iso_windowed(lhs, rhs, W2) is not None


def test_square_decomposition_legacy_fails():
    lhs, rhs = square_decomposition(discrete(0, (0, 1)), point(0), legacy=True)
    assert iso_windowed(lhs, rhs, W3) is None
    assert lhs.size(o(1, [1])) == 12
    assert rhs.size(o(1, [1])) == 13


# ---------------------------------------------------------------------------
# monoidal towers
# ---------------------------------------------------------------------------

def test_ck_level_counts_and_laws():
    mon = z2_monoid()
    assert not mon.law_violations(W2)
    c1 = ck_monoidal(mon, 1)
    assert [c1.size(o(1, [p])) for p in (1, 2, 3)] == [2, 4, 8]
    assert not check_functoriality(c1, W3)


def test_ck_hom_recovers_the_carrier():
    c1 = ck_monoidal(z2_monoid(), 1)
    hom = hom_precat(c1, 1, ("pt", "pt"))
    assert len(hom.cells(zero_object(0))) == 2


def test_ck_two_levels():
    c2 = ck_monoidal(z2_monoid(), 2)
    assert c2.size(o(2, [])) == 1
    assert c2.size(o(2, [2])) == 1
    assert c2.size(o(2, [1, 1])) == 2
    assert c2.size(o(2, [2, 2])) == 16
    assert not check_functoriality(c2, W2)


def test_ck_needs_commutativity_for_higher_k():
    rz = helpers.right_zero_monoid()
    assert ck_monoidal(rz, 1) is not None
    with pytest.raises(InvalidArgumentError):
        ck_monoidal(rz, 2)


def _subtraction():
    """``(a - b) % 3`` with unit 0: neither unital on the left nor associative."""
    return monoid_from_table((0, 1, 2), lambda a, b: (a - b) % 3, 0, False, name="sub3")


def test_monoid_law_violations_on_positions():
    z = o(0, [])
    assert z2_monoid().law_violations(W2) == []
    bad = _subtraction().law_violations(W2)
    assert len(bad) == 20
    assert bad[:4] == [("unit", z, 1), ("unit", z, 2), ("assoc", z, 0, 0, 1),
                       ("assoc", z, 0, 0, 2)]
    assert helpers.right_zero_monoid(False).law_violations(W2) == []
    assert helpers.right_zero_monoid(True).law_violations(W2) == [
        ("comm", z, "a", "b"), ("comm", z, "b", "a")]


@pytest.mark.parametrize("mon, k, law", [
    (_subtraction, 1, "unit"), (lambda: helpers.right_zero_monoid(True), 2, "comm")],
    ids=["subtraction-1", "right-zero-2"])
def test_ck_rejects_a_multiplication_that_is_no_monoid(mon, k, law):
    """A tower on a table that breaks a monoid law would not be functorial
    (148 and 18 violations at window 2); the ck table refuses it at the
    first level it tabulates, naming the law and the carrier's level."""
    with pytest.raises(InvalidArgumentError, match=f"{law}.*level Obj\\(\\)@0"):
        c = ck_monoidal(mon(), k)
        c.size(o(k, [1] * k))


def test_ck_composition_multiplies():
    c1 = ck_monoidal(z2_monoid(), 1)
    two, onel = o(1, [2]), o(1, [1])
    long_face = normalize_morphism(onel, two, [(0, 2)])
    cells = {cl: dict(cl) for cl in c1.cells(two)}
    for cl, table in cells.items():
        composite = c1.act(long_face, cl)
        assert dict(composite)[(1,)] == (table[(1,)] + table[(2,)]) % 2


# ---------------------------------------------------------------------------
# fold / cylinder decomposition
# ---------------------------------------------------------------------------

def test_fold_over_empty_is_codiagonal_on_disjoint_union():
    F = discrete(1, (0, 1, 2))
    i = PrecatMap(empty(1), F, lambda M, c: c, name="0->F")
    data = claim_fold(i)
    z = zero_object(1)
    assert data.double.size(z) == 6
    for rep in data.double.cells(z):
        assert data.fold.apply(z, rep) == rep[1]


def test_fold_along_identity_is_iso():
    F = discrete(1, (0, 1))
    data = claim_fold(PrecatMap(F, F, lambda M, c: c, name="id"))
    assert iso_windowed(data.double, F, W2) is not None


def test_cylinder_decomposition_two_in_three():
    E = discrete(1, (0, 1))
    F = discrete(1, (0, 1, 2))
    data = claim_fold(PrecatMap(E, F, lambda M, c: c, name="i"))
    assert data.decomposition_agrees(W3) is not None


def test_three_input_complex():
    """Three morphism objects on a tetrahedron of vertices."""
    E = discrete(0, ("e",))
    F = discrete(0, ("f1", "f2"))
    G = discrete(0, ("g",))
    U3 = upsilon([E, F, G])
    assert len(U3.cells(zero_object(1))) == 4
    # the long edge 0 -> 3 carries E x F x G
    assert len(hom_precat(U3, 1, (0, 3)).cells(zero_object(0))) == 2
    assert len(hom_precat(U3, 1, (1, 3)).cells(zero_object(0))) == 2
    assert len(hom_precat(U3, 1, (2, 0)).cells(zero_object(0))) == 0
    assert not check_functoriality(U3, W2)


def test_three_input_faces():
    E = discrete(0, ("e",))
    F = discrete(0, ("f1", "f2"))
    G = discrete(0, ("g",))
    z = zero_object(1)
    for which, vertices in [("drop_last", {0, 1, 2}), ("drop_first", {1, 2, 3}),
                            (("merge", 1), {0, 2, 3}), (("merge", 2), {0, 1, 3})]:
        face = upsilon_face([E, F, G], which)
        assert {face.apply(z, v) for v in range(3)} == vertices
        assert not face.naturality_violations(W2)
        assert is_cofibration(face, W2)


def test_three_input_complex_is_strict():
    from precats import segal_check
    U3 = upsilon([discrete(0, ("e",)), discrete(0, ("f1", "f2")),
                  discrete(0, ("g",))])
    assert segal_check(U3, W3).strict


def test_upsilon_against_independent_grouped_route():
    """The flat-indexed complex agrees with a separately coded grouped one."""
    import helpers
    families = [
        [discrete(0, ("a", "b"))],
        [discrete(0, ("a", "b")), discrete(0, ("c",))],
        [point(0), discrete(0, ("x", "y")), discrete(0, ("z",))],
        [nerve(FiniteCategory.interval(), 1), discrete(1, ("w1", "w2"))],
    ]
    for inputs in families:
        fast = upsilon(inputs)
        slow = helpers.grouped_upsilon(inputs)
        window = Window(2) if fast.n > 1 else Window(3)
        for M in window.objects(fast.n):
            assert fast.size(M) == slow.size(M)
        assert iso_windowed(fast, slow, window) is not None


def test_composition_law_sampled_in_dimension_three():
    from hypothesis import given, settings, strategies as st
    from precats.theta import compose, enumerate_morphisms, window_objects

    s2 = sigma_free(2, 3).space
    objs = window_objects(3, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def run(data):
        a = data.draw(st.sampled_from(objs))
        b = data.draw(st.sampled_from(objs))
        c = data.draw(st.sampled_from(objs))
        f = data.draw(st.sampled_from(enumerate_morphisms(b, c)))
        g = data.draw(st.sampled_from(enumerate_morphisms(a, b)))
        for cellv in s2.cells(c):
            assert s2.act(compose(f, g), cellv) == s2.act(g, s2.act(f, cellv))

    run()


def test_constructions_respect_input_isomorphism():
    """Relabeling the inputs relabels the outputs, up to windowed iso."""
    two_a = discrete(0, ("x", "y"))
    two_b = discrete(0, ("p", "q"))
    assert iso_windowed(upsilon([two_a]), upsilon([two_b]), W3) is not None
    assert iso_windowed(upsilon([two_a, point(0)]),
                        upsilon([two_b, point(0)]), W2) is not None

    relabeled = FiniteCategory((("ob", 0), ("ob", 1)),
                               tuple(("ar", a) for a in ("id0", "id1", "u", "v")),
                               {("ar", a): ("ob", s) for a, s in
                                [("id0", 0), ("id1", 1), ("u", 0), ("v", 1)]},
                               {("ar", a): ("ob", t) for a, t in
                                [("id0", 0), ("id1", 1), ("u", 1), ("v", 0)]},
                               {("ob", 0): ("ar", "id0"), ("ob", 1): ("ar", "id1")},
                               {(("ar", a), ("ar", b)): ("ar", c)
                                for (a, b), c in
                                FiniteCategory.iso_interval().table.items()},
                               name="relabeled")
    assert iso_windowed(nerve(relabeled, 1),
                        nerve(FiniteCategory.iso_interval(), 1), W2) is not None

    s_a = suspension(PointedPrecat(discrete(1, ("x", "y")), "x"))
    s_b = suspension(PointedPrecat(discrete(1, ("p", "q")), "q"))
    assert iso_windowed(s_a.precat, s_b.precat, W2) is not None
