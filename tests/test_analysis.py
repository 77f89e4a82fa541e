"""Comparison-map analysis, recovered categories, truncation towers,
connectivity and the dimension-0 minimal-dimension table."""

import hashlib
import itertools
import math

import pytest

from precats import (FiniteCategory, PointedPrecat, Window, category_from_nerve,
                     cell, ck_monoidal, delooping, discrete, equivalent_to_point,
                     is_k_connected, iso_windowed, min_dim_map0, min_dim_sets,
                     nerve, object_of, point, product, pushout_product,
                     segal_check, segal_faces, sigma_free, tau_zero, truncate,
                     upsilon, whitehead, z2_monoid, zero_object)
from precats import analysis
from precats.presheaf import dump_json
from precats.theta import vertex
from precats.analysis import (AnalysisError, NotStrictError,
                              TruncationUndefinedError)

import helpers

o = object_of
W2, W3 = Window(2), Window(3)
W4 = Window(4)


# ---------------------------------------------------------------------------
# comparison maps
# ---------------------------------------------------------------------------

def test_nerves_are_strict():
    for C in (FiniteCategory.interval(), FiniteCategory.iso_interval(),
              FiniteCategory.chain(2)):
        assert segal_check(nerve(C, 1), W4).strict


def test_edge_complex_is_strict():
    U = upsilon([discrete(0, ("a", "b")), point(0)])
    assert segal_check(U, W3).strict


def test_delooping_strictness_counterexample():
    X = delooping(PointedPrecat(discrete(1, (0, 1)), 0))
    report = segal_check(X, W2)
    assert not report.strict
    fail = [e for e in report.failures() if e.level.entries == (2,)]
    assert fail and fail[0].source_size == 3 and fail[0].target_size == 4


def _incompatible_spines():
    """Two cells over (2): ``t`` restricts to the spine (a, a), whose ends do
    not meet, and ``s`` to the compatible (b, b).  The compatible tuples are
    (b, a) and (b, b): as many as the distinct images, yet (b, a) is missed."""
    zero, one, two = o(1, []), o(1, [1]), o(1, [2])
    levels = {zero: ("x", "y"), one: ("a", "b"), two: ("s", "t")}
    v0, v1 = (vertex(one, v) for v in (0, 1))
    f01, f12 = segal_faces(two)
    actions = {v0: {"a": "x", "b": "x"}, v1: {"a": "y", "b": "x"}}
    for f in (f01, f12):
        actions[f] = {"t": "a", "s": "b"}
    return helpers.table_precat(1, levels, actions, name="incompatible")


def _segal_inputs():
    for C in helpers.enumerate_small_categories(limit=10):
        yield nerve(C, 1), W4
    yield upsilon([point(0), point(0)]), W3
    yield delooping(PointedPrecat(discrete(1, (0, 1)), 0)), W2
    yield _incompatible_spines(), W2


def test_segal_entries_agree_with_object_level_oracle():
    """Every field of every comparison-map entry, computed on table
    positions, matches the object-level oracle on the presheaf's cells."""
    seen = []
    for A, window in _segal_inputs():
        for e in segal_check(A, window).entries:
            mapping, target = helpers.segal_map(A, e.level, e.direction - 1)
            images = list(mapping.values())
            assert (e.source_size, e.target_size, e.injective, e.surjective) == (
                len(mapping), len(target), len(set(images)) == len(images),
                set(target) <= set(images)), (A.name, e)
            seen.append((A.name, e.level.entries, e.source_size,
                         e.target_size, e.injective, e.surjective))
    assert ("incompatible", (2,), 2, 2, True, False) in seen
    assert any(name == "X(discrete(0, 1))" and entries == (2,)
               and (src, tgt) == (3, 4) for name, entries, src, tgt, _, _ in seen)


def _filtered_entry(T, M, d):
    """The comparison-map entry with its compatible spine tuples filtered
    from all ``size ** p`` tuples of cells of the edge level."""
    faces = segal_faces(M, d)
    v0, v1 = (T.act(vertex(faces[0].source, v, d)) for v in (0, 1))
    images = list(zip(*(T.act(f) for f in faces)))
    target = [tup for tup in itertools.product(range(len(v0)), repeat=len(faces))
              if all(v1[a] == v0[b] for a, b in zip(tup, tup[1:]))]
    return analysis.SegalEntry(M, d + 1, len(images), len(target),
                               len(set(images)) == len(images), set(target) <= set(images))


def test_spine_tuples_by_extension_match_the_product_filter():
    """Extending each spine prefix by the cells that start where it ends
    gives every entry the product filter gives, on every level with an
    entry >= 2, also at n = 2 and on incompatible spines."""
    inputs = [*_segal_inputs(), (sigma_free(1, 2).space, W2),
              (nerve(FiniteCategory.chain(2), 2), W3)]
    for A, window in inputs:
        T = A.table
        for M in window.objects(A.n):
            for d, p in enumerate(M.entries):
                if p >= 2:
                    assert analysis._segal_entry(T, M, d) == _filtered_entry(T, M, d), A.name


# ---------------------------------------------------------------------------
# recovering categories
# ---------------------------------------------------------------------------

def test_category_round_trip_catalog():
    for C in (FiniteCategory.interval(), FiniteCategory.iso_interval(),
              FiniteCategory.chain(2),
              FiniteCategory.monoid((0, 1), lambda a, b: (a + b) % 2, 0)):
        got = category_from_nerve(nerve(C, 1))
        assert helpers.categories_isomorphic(got, C)


def test_category_round_trip_enumerated():
    """Exhaustively generated small categories survive nerve and recovery."""
    cats = helpers.enumerate_small_categories(limit=10)
    assert len(cats) == 10
    assert any(len(c.objects) == 3 for c in cats)
    for C in cats:
        N = nerve(C, 1)
        report = segal_check(N, W4)
        assert report.strict
        got = category_from_nerve(N)
        assert helpers.categories_isomorphic(got, C)


def test_nerve_of_recovered_category_matches():
    C = FiniteCategory.iso_interval()
    N = nerve(C, 1)
    got = category_from_nerve(N)
    assert iso_windowed(nerve(got, 1), N, W3) is not None


def test_category_from_weak_input_raises():
    X = delooping(PointedPrecat(discrete(1, (0, 1)), 0))
    with pytest.raises(NotStrictError):
        category_from_nerve(X)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_tau_zero_examples():
    assert len(tau_zero(nerve(FiniteCategory.iso_interval(), 1))) == 1
    assert len(tau_zero(nerve(FiniteCategory.interval(), 1))) == 2
    assert len(tau_zero(sigma_free(0, 1).space)) == 2


def test_tau_zero_of_products_multiplies():
    cats = [FiniteCategory.interval(), FiniteCategory.iso_interval(),
            FiniteCategory.chain(2), FiniteCategory.discrete(3)]
    for C in cats:
        for D in cats:
            A, B = nerve(C, 1), nerve(D, 1)
            lhs = len(tau_zero(product(A, B)))
            assert lhs == len(tau_zero(A)) * len(tau_zero(B))


def test_truncate_keeps_one_categorical_nerves():
    N2 = nerve(FiniteCategory.interval(), 2)
    t = truncate(N2, 1)
    N1 = nerve(FiniteCategory.interval(), 1)
    assert iso_windowed(t, N1, W2) is not None


def test_truncate_to_zero_of_discrete():
    t = truncate(sigma_free(0, 1).space, 0)
    assert t.n == 0 and t.size(zero_object(0)) == 2


def test_truncate_monoid_tower():
    c1 = ck_monoidal(z2_monoid(), 1)
    t = truncate(c1, 1)
    got = category_from_nerve(t)
    assert len(got.objects) == 1 and len(got.arrows) == 2
    z2cat = FiniteCategory.monoid((0, 1), lambda a, b: (a + b) % 2, 0)
    assert helpers.categories_isomorphic(got, z2cat)


def test_truncate_weak_input_raises():
    X = delooping(PointedPrecat(discrete(1, (0, 1)), 0))
    with pytest.raises(TruncationUndefinedError):
        tau_zero(X)


# (input, k, window, SHA-256 of the truncation's dump as the cell-level
# truncation wrote it); the hashes hold under every hash seed
TRUNCATIONS = [
    (lambda: nerve(FiniteCategory.interval(), 2), 1, W3,
     "a21e01d597483159f12f0ccd4fe727fe598c0e4ae419551f1f1f20eb389a3645"),
    (lambda: nerve(FiniteCategory.iso_interval(), 2), 1, W3,
     "cc7aa1bf01b31c4b17b3f0f805319a4a1524a21e964ad3a791c591dc645d299f"),
    (lambda: nerve(FiniteCategory.iso_interval(), 2), 2, W2,
     "c982848351f884079681054561864cca7303a1ed03c4cdac7e4c4532c520a56c"),
    (lambda: ck_monoidal(z2_monoid(), 1), 1, W3,
     "d0c7fd4aaf21d9084aac0d7f06af918072d4aca23a1edc5348de8e9e8f2f2807"),
    (lambda: ck_monoidal(z2_monoid(), 2), 1, W3,
     "f69f234751040accff94214f6bf00eb83d43c32b15399112516e24d62fee4292"),
    (lambda: ck_monoidal(z2_monoid(), 2), 2, W2,
     "63be15ad895ed33e683470d332b355470f47a24b7dcc17e8f196ed81e3a51dbf"),
    (lambda: sigma_free(0, 1).space, 0, W3,
     "6eda4fcd2c6a2752e2013f3dbc768a7625fcb282c0da61c8e00e1673c6267c07"),
    # classes of more than one cell: the objects of Ibar, the edges of U(N(Ibar))
    (lambda: nerve(FiniteCategory.iso_interval(), 1), 0, W3,
     "0f99694c9cf2480be7fc800b80f328349eedc890a052ad6824fc36e83c231ac5"),
    (lambda: upsilon([nerve(FiniteCategory.iso_interval(), 1)]), 1, W3,
     "fc00e0fa4708c8c3454e045d3cefd10ab96b1e3782b11603bda2a0d6a0f1430c"),
    (lambda: upsilon([nerve(FiniteCategory.iso_interval(), 1), point(1)]), 1, W3,
     "b526252da6f0854756d0045c2a9628af1e8c8281c9fffd56ee2d8d70a3ac44af"),
]
TRUNCATION_IDS = ["N(I)@2-1", "N(Ibar)@2-1", "N(Ibar)@2-2", "c1(Z2)-1", "c2(Z2)-1",
                  "c2(Z2)-2", "sigma01-0", "N(Ibar)@1-0", "U(N(Ibar))-1", "U(N(Ibar),pt)-1"]


@pytest.mark.parametrize("build, k, window, sha256", TRUNCATIONS, ids=TRUNCATION_IDS)
def test_truncation_dumps_are_byte_identical_to_seed(build, k, window, sha256):
    dump = dump_json(truncate(build(), k), window)
    assert hashlib.sha256(dump.encode()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def test_equivalent_to_point_examples():
    assert equivalent_to_point(nerve(FiniteCategory.iso_interval(), 1))
    assert not equivalent_to_point(nerve(FiniteCategory.interval(), 1))
    assert equivalent_to_point(point(2))


def test_connectivity_of_monoid_towers():
    assert is_k_connected(ck_monoidal(z2_monoid(), 1), 0)
    assert is_k_connected(ck_monoidal(z2_monoid(), 2), 1)
    assert not is_k_connected(nerve(FiniteCategory.interval(), 1), 0)


def test_whitehead_connectivity_for_towers():
    c2 = ck_monoidal(z2_monoid(), 2)
    W, _ = whitehead(c2, "pt", 1)
    for M in W3.objects(2):
        if M.length <= 1:
            assert W.size(M) == 1
    assert is_k_connected(c2, 1)


# ---------------------------------------------------------------------------
# minimal dimension at the bottom
# ---------------------------------------------------------------------------

def test_min_dim_sets_examples():
    assert min_dim_sets({1: 1, 2: 2}, {1, 2}, {1, 2}).value == math.inf
    assert min_dim_sets({1: 0, 2: 0}, {1, 2}, {0}).value == 1
    assert min_dim_sets({}, set(), {0}).value == 0


def test_min_dim_rejects_bad_mapping():
    with pytest.raises(AnalysisError):
        min_dim_sets({1: 9}, {1}, {0})


def test_generating_inclusions():
    a = cell(0, 0).inclusion
    b = cell(1, 0).inclusion
    assert min_dim_map0(a).value == 0
    assert min_dim_map0(b).value == 1


def test_corner_map_table_matches_the_lower_bound():
    """The dimension-0 table is the base case of the corner-map estimate."""
    a = cell(0, 0).inclusion
    b = cell(1, 0).inclusion
    m = {(): {"a": 0, "b": 1}}
    results = {}
    for n1, f in (("a", a), ("b", b)):
        for n2, g in (("a", a), ("b", b)):
            corner = pushout_product(f, g)
            results[(n1, n2)] = min_dim_map0(corner.map).value
    assert results == {("a", "a"): 0, ("a", "b"): 1, ("b", "a"): 1,
                       ("b", "b"): math.inf}
    for (n1, n2), got in results.items():
        assert got >= m[()][n1] + m[()][n2]


def test_double_tower_is_zero_connected():
    assert is_k_connected(ck_monoidal(z2_monoid(), 2), 0)


def test_truncation_output_is_functorial():
    from precats import check_functoriality
    t = truncate(nerve(FiniteCategory.iso_interval(), 2), 1)
    assert not check_functoriality(t, W2)
