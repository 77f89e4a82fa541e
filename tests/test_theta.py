"""Site-level laws: object representatives, morphism normal forms, the
quotient against an independent action oracle, composition and enumeration."""

import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from precats import FiniteCategory, Window, dump_window, nerve
from precats import presheaf as ps
from precats import theta as th
from precats.theta import (InvalidMorphismError, InvalidObjectError,
                           ThetaMorphism, ThetaObject, compose,
                           enumerate_morphisms,
                           identity, normalize_morphism, object_of,
                           segal_faces, window_objects)

import helpers


o = object_of
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# objects
# ---------------------------------------------------------------------------

def test_object_representatives():
    assert o(2, [2, 1]).entries == (2, 1)
    assert o(3, [1, 0, 2]).entries == (1,)
    assert o(2, []).entries == ()
    assert o(4, [3, 2, 0, 5]).entries == (3, 2)


def test_object_errors():
    with pytest.raises(InvalidObjectError):
        o(2, [-1])
    with pytest.raises(InvalidObjectError):
        o(1, [1, 2])
    with pytest.raises(InvalidObjectError):
        o(-1, [])


def test_window_objects_sorted_and_complete():
    objs = window_objects(2, 2)
    assert [x.entries for x in objs] == [
        (), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def test_two_constants_stay_distinct():
    a = o(1, [1])
    c0 = normalize_morphism(a, a, [(0, 0)])
    c1 = normalize_morphism(a, a, [(1, 1)])
    assert c0 != c1


def test_components_after_first_constant_are_discarded():
    m = o(3, [1, 1, 1])
    idc = (0, 1)
    f = normalize_morphism(m, m, [idc, (0, 0), (0, 1)])
    g = normalize_morphism(m, m, [idc, (0, 0), (1, 1)])
    assert f == g
    assert f.components == (idc, (0, 0))


def test_identity_on_square_keeps_both_components():
    m = o(2, [2, 2])
    assert identity(m).components == ((0, 1, 2), (0, 1, 2))


@pytest.mark.parametrize("entries, lift, message", [
    ((2,), [(1, 0, 2)], "component 0 is not order-preserving"),
    ((2,), [(0, 1)], "component 0 has wrong arity for [2]"),
    ((2,), [(0, 1, 3)], "component 0 leaves [2]"),
    ((2,), [(0, 1, 2), (0,)], "expected 1 components, got 2"),
    ((1, 1), [(0, 0), (9, 7, 5, 3)], "component 1 has wrong arity for [1]"),
    ((1, 1), [(0, 0), (0, 2)], "component 1 leaves [1]"),
], ids=["monotone", "arity", "range", "lift-length", "trailing-arity",
        "trailing-range"])
def test_normalize_rejects_non_monotone(entries, lift, message):
    a = o(len(entries), entries)
    with pytest.raises(InvalidMorphismError, match=re.escape(message)):
        normalize_morphism(a, a, lift)


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_component_check_agrees_with_the_three_step_oracle():
    """The one-comparison check accepts exactly the components that the
    arity, range and order checks accept, and rejects every other with the
    same class and message, at the first position and a later one."""
    comps = [c for k in range(1, 6) for c in itertools.product(range(-1, 5), repeat=k)]
    for n, i in ((1, 0), (2, 1)):
        for a in range(4):
            for b in range(4):
                s, t = o(n, [1] * i + [a]), o(n, [1] * i + [b])
                assert (s.padded(i), t.padded(i)) == (a, b)
                for comp in comps:
                    assert (_outcome(th._check_component, s, t, i, comp)
                            == _outcome(helpers.check_component, a, b, i, comp))


def test_normal_form_shape_is_validated():
    a = o(2, [1, 1])
    with pytest.raises(InvalidMorphismError):
        ThetaMorphism(a, a, ((0, 0), (0, 1)))  # constant before the end


# ---------------------------------------------------------------------------
# the quotient against the independent oracle
# ---------------------------------------------------------------------------

def _padded(obj, n):
    return tuple(obj.padded(i) for i in range(n))


def _oracle_partition(n, src, tgt):
    lifts = helpers.raw_lifts(_padded(src, n), _padded(tgt, n))
    groups = []
    for lift in lifts:
        for group in groups:
            if helpers.lifts_act_equal(n, _padded(src, n), _padded(tgt, n),
                                       lift, group[0]):
                group.append(lift)
                break
        else:
            groups.append([lift])
    return groups


@pytest.mark.parametrize("n,src,tgt", [
    (1, (1,), (1,)),
    (1, (1,), (2,)),
    (1, (2,), (1,)),
    (2, (1,), (1, 1)),
    (2, (1, 1), (1,)),
    (2, (1, 1), (1, 1)),
    (2, (2,), (1, 2)),
    (2, (1, 2), (2, 1)),
    (2, (2, 2), (2, 2)),
])
def test_quotient_matches_action_oracle(n, src, tgt):
    """Two lifts are identified exactly when they act identically on every
    constancy presheaf of the oracle family."""
    s, t = o(n, src), o(n, tgt)
    groups = _oracle_partition(n, s, t)
    normals = {normalize_morphism(s, t, lift) for g in groups for lift in g}
    # same count of classes
    assert len(groups) == len(normals) == len(enumerate_morphisms(s, t))
    # normal form constant on each oracle class, distinct across classes
    reps = set()
    for g in groups:
        forms = {normalize_morphism(s, t, lift) for lift in g}
        assert len(forms) == 1
        reps |= forms
    assert reps == normals


def test_separation_on_small_window():
    """Distinct normal forms act differently on the oracle family."""
    for n in (1, 2):
        objs = [m for m in window_objects(n, 2) if len(m.entries) <= 2]
        for s in objs:
            for t in objs:
                groups = _oracle_partition(n, s, t)
                assert len(groups) == len(enumerate_morphisms(s, t))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    assert len(enumerate_morphisms(o(1, [1]), o(1, [1]))) == 3
    assert len(enumerate_morphisms(o(1, [1]), o(1, [2]))) == 6
    assert len(enumerate_morphisms(o(2, [1]), o(2, [1, 1]))) == 4


@pytest.mark.parametrize("n, B", [(0, 1), (1, 3), (2, 3), (3, 2), (4, 2)])
def test_count_morphisms_matches_enumeration(n, B):
    """``count_morphisms`` counts the normal forms of every pair of window
    levels without building them."""
    objs = window_objects(n, B)
    for s in objs:
        for t in objs:
            assert th.count_morphisms(s, t) == len(enumerate_morphisms(s, t))
    with pytest.raises(InvalidMorphismError):
        th.count_morphisms(o(1, [1]), o(2, [1]))


def test_dimension_one_is_the_simplex_category():
    for m in range(4):
        for mp in range(4):
            s = o(1, [m] if m else [])
            t = o(1, [mp] if mp else [])
            brute = len(helpers.monotone_tuples(m, mp))
            assert len(enumerate_morphisms(s, t)) == brute


def test_enumerated_forms_are_distinct_and_valid():
    s, t = o(2, [2, 1]), o(2, [1, 2])
    forms = enumerate_morphisms(s, t)
    assert len(set(forms)) == len(forms)
    for f in forms:
        assert normalize_morphism(s, t, f.lift()) == f


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _window_morphisms(n, B):
    objs = window_objects(n, B)
    out = []
    for s in objs:
        for t in objs:
            out.extend(enumerate_morphisms(s, t))
    return out


def test_identity_laws_exhaustive():
    for f in _window_morphisms(2, 2):
        assert compose(f, identity(f.source)) == f
        assert compose(identity(f.target), f) == f


def test_composition_independent_of_lifts():
    """All raw-lift representatives of two classes compose to one class."""
    n = 2
    for src_e, mid_e, tgt_e in [((1,), (1, 1), (1,)), ((1, 1), (1,), (2,)),
                                ((2,), (1, 1), (1, 1)), ((1, 1), (2, 1), (1,))]:
        s, m, t = o(n, src_e), o(n, mid_e), o(n, tgt_e)
        sp, mp, tp = [tuple(x.padded(i) for i in range(n)) for x in (s, m, t)]
        for f in enumerate_morphisms(m, t):
            f_lifts = [lift for lift in helpers.raw_lifts(mp, tp)
                       if normalize_morphism(m, t, lift) == f]
            for g in enumerate_morphisms(s, m):
                g_lifts = [lift for lift in helpers.raw_lifts(sp, mp)
                           if normalize_morphism(s, m, lift) == g]
                composites = {
                    normalize_morphism(s, t, helpers.raw_compose(fl, gl))
                    for fl in f_lifts for gl in g_lifts}
                assert len(composites) == 1
                assert composites == {compose(f, g)}


def test_collapsing_composite_stores_one_component():
    s, m, t = o(2, [1, 1]), o(2, [2, 1]), o(2, [1, 1])
    const_first = [f for f in enumerate_morphisms(m, t)
                   if len(set(f.components[0])) == 1]
    assert const_first
    for f in const_first:
        for g in enumerate_morphisms(s, m):
            assert len(compose(f, g).components) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_associativity_sampled(data):
    objs = window_objects(2, 2)
    a = data.draw(st.sampled_from(objs))
    b = data.draw(st.sampled_from(objs))
    c = data.draw(st.sampled_from(objs))
    d = data.draw(st.sampled_from(objs))
    f = data.draw(st.sampled_from(enumerate_morphisms(c, d)))
    g = data.draw(st.sampled_from(enumerate_morphisms(b, c)))
    h = data.draw(st.sampled_from(enumerate_morphisms(a, b)))
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_associativity_exhaustive_dimension_one():
    objs = window_objects(1, 3)
    for a in objs:
        for b in objs:
            for c in objs:
                for d in objs:
                    for f in enumerate_morphisms(c, d):
                        for g in enumerate_morphisms(b, c):
                            for h in enumerate_morphisms(a, b):
                                assert compose(compose(f, g), h) == \
                                    compose(f, compose(g, h))


def test_congruence_of_composition():
    """Composing any lift representatives of equal classes lands in one
    class (entries <= 2, lengths <= 2)."""
    n = 2
    s, m, t = o(n, (1,)), o(n, (2,)), o(n, (1, 1))
    sp, mp, tp = [tuple(x.padded(i) for i in range(n)) for x in (s, m, t)]
    by_class = {}
    for lift in helpers.raw_lifts(mp, tp):
        by_class.setdefault(normalize_morphism(m, t, lift), []).append(lift)
    for g in enumerate_morphisms(s, m):
        gl = g.lift()
        for f, lifts in by_class.items():
            want = compose(f, g)
            for fl in lifts:
                assert normalize_morphism(s, t, helpers.raw_compose(fl, gl)) == want


# ---------------------------------------------------------------------------
# spine families and generators
# ---------------------------------------------------------------------------

def test_segal_faces_small():
    fam = segal_faces(o(1, [2]))
    assert [f.components[0] for f in fam] == [(0, 1), (1, 2)]
    single = segal_faces(o(2, [1, 2]))
    assert len(single) == 1 and single[0].is_identity()
    three = segal_faces(o(2, [3, 1]))
    assert len(three) == 3
    for f in three:
        assert f.source.entries == (1, 1) and f.target.entries == (3, 1)
        assert f.components[1] == (0, 1)


def test_segal_faces_rejects_direction_outside_object():
    with pytest.raises(InvalidMorphismError):
        segal_faces(o(1, []))
    with pytest.raises(InvalidMorphismError):
        segal_faces(o(2, [2]), 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertex_in_a_direction_matches_the_lift_oracle(n):
    """``vertex(tgt, v, d)`` is the endpoint map of direction ``d`` that the
    Segal check reads, at every level and direction of the B=3 window."""
    for M in window_objects(n, 3):
        for d in range(M.length):
            tgt = o(n, M.entries[:d] + (1,) + M.entries[d + 1:])
            assert [th.vertex(tgt, v, d) for v in (0, 1)] == \
                helpers.direction_vertices(M, d)


def test_vertex_rejects_points_outside_the_object():
    with pytest.raises(InvalidMorphismError):
        th.vertex(o(2, [1]), 2)
    with pytest.raises(InvalidMorphismError):
        th.vertex(o(2, [1]), 0, 2)
    with pytest.raises(InvalidMorphismError):
        th.vertex(o(2, [2]), 1, 1)
    assert th.vertex(o(2, [2]), 0, 1).is_identity()


def test_serialization_roundtrip():
    """The morphism entries of a dump rebuild the window's morphisms, in order."""
    window = Window(2)
    data = dump_window(nerve(FiniteCategory.chain(2), 2), window)
    rebuilt = [ThetaMorphism(o(2, m["source"]), o(2, m["target"]),
                             tuple(tuple(c) for c in m["components"]))
               for m in (entry["morphism"] for entry in data["actions"])]
    assert rebuilt == [f for _, _, mors in window.morphisms(2) for f in mors]


# ---------------------------------------------------------------------------
# hash-consing, identity hashes and per-form surgery memos
# ---------------------------------------------------------------------------

def _w2_site(n):
    objs = window_objects(n, 2)
    return objs, [f for s in objs for t in objs for f in enumerate_morphisms(s, t)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forms_hash_by_identity(n):
    # object.__hash__ itself, not a Python method: table lookups keyed by
    # forms then run no Python frame
    assert ThetaObject.__hash__ is object.__hash__
    assert ThetaMorphism.__hash__ is object.__hash__
    objs, mors = _w2_site(n)
    for form in objs + mors:
        assert hash(form) == object.__hash__(form)
        assert {form: 1}[type(form)(*form.__reduce__()[1])] == 1


def test_order_and_repr_stay_content_based():
    a = o(2, [1, 2])
    # filled memo slots take no part in order or repr
    th.tail_object(a), th.collapse_to_zero(a), th.tail_morphism(identity(a))
    assert o(2, [1]) < a < o(2, [2, 1]) and not a < a
    assert sorted(reversed(window_objects(2, 2))) == sorted(window_objects(2, 2))
    assert repr(a) == "Obj(1, 2)@2"
    assert repr(identity(a)) == "Mor(1, 2)->(1, 2)[01,012]"
    assert repr(th.collapse_to_zero(a)) == "Mor(1, 2)->()[00]"


def test_equal_forms_are_identical():
    assert o(2, (1, 2, 0)) is ThetaObject(2, (1, 2))
    assert window_objects(2, 2)[3] is o(2, window_objects(2, 2)[3].entries)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_composites_and_tails_are_the_interned_forms(n):
    _, mors = _w2_site(n)
    for f in mors:
        assert compose(f, identity(f.source)) is f
        assert compose(identity(f.target), f) is f
        assert th.tail_morphism(f).source is o(n - 1, f.source.entries[1:])
        assert th.tail_morphism(f).target is o(n - 1, f.target.entries[1:])


def test_dump_import_rebuilds_the_interned_morphisms():
    window = Window(2)
    data = dump_window(nerve(FiniteCategory.chain(2), 2), window)
    table = ps.precat_from_dump(data).table
    objs = window.objects(2)
    assert [M for M in objs if M in table._levels] == objs
    assert all(any(M is N for N in objs) for M in table._levels)
    rebuilt = set(table._acts)
    assert len(rebuilt) == sum(len(m) for _, _, m in window.morphisms(2))
    for f in rebuilt:
        assert any(f is g for g in enumerate_morphisms(f.source, f.target))


def test_invalid_forms_raise_every_time_and_are_not_stored():
    a = o(2, [1, 1])
    for _ in range(2):
        with pytest.raises(InvalidObjectError):
            ThetaObject(1, (1, 2))
        with pytest.raises(InvalidMorphismError):
            ThetaMorphism(a, a, ((0, 0), (0, 1)))
    assert (1, (1, 2)) not in ThetaObject._forms
    assert (a, a, ((0, 0), (0, 1))) not in ThetaMorphism._forms


def test_copies_and_pickles_are_the_interned_form():
    obj = o(2, [1, 2])
    generator = th.elementary_morphisms(2, 2)[5]
    for form in (obj, identity(obj), th.collapse_to_zero(obj), generator):
        for twin in (copy.copy(form), copy.deepcopy(form),
                     pickle.loads(pickle.dumps(form))):
            assert twin is form
            assert {form: 1}[twin] == 1
    assert copy.deepcopy([generator, generator.source])[1] is generator.source


def test_replace_cannot_build_a_second_form():
    obj = o(2, [1, 2])
    with pytest.raises(TypeError):
        dataclasses.replace(obj, entries=(2, 1))
    with pytest.raises(TypeError):
        dataclasses.replace(identity(obj))


def test_site_values_stay_frozen():
    obj = o(2, [1, 2])
    f = identity(obj)
    for target, attr in ((obj, "n"), (obj, "entries"), (obj, "length"),
                         (obj, "_tail"), (obj, "_collapse"), (obj, "_identity"),
                         (f, "source"), (f, "components"), (f, "n"), (f, "_tail")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, attr, None)


def _check_memos(objs, mors):
    """Each memo is the interned form of a fresh normal form."""
    for obj in objs:
        n = obj.n
        assert obj.length == len(obj.entries)
        if n:
            assert th.tail_object(obj) is ThetaObject(n - 1, obj.entries[1:])
        assert th.collapse_to_zero(obj) is normalize_morphism(
            obj, th.zero_object(n), [[0] * (obj.padded(i) + 1) for i in range(n)])
        assert identity(obj) is normalize_morphism(
            obj, obj, [list(range(obj.padded(i) + 1)) for i in range(n)])
    for f in mors:
        assert f.n == f.source.n
        fresh = normalize_morphism(o(f.n - 1, f.source.entries[1:]),
                                   o(f.n - 1, f.target.entries[1:]), f.lift()[1:])
        assert th.tail_morphism(f) is fresh
        assert th.tail_morphism(f) is th.tail_morphism(f)


def test_memoized_surgery_on_the_generators():
    gens = th.elementary_morphisms(4, 3)
    _check_memos(sorted({M for f in gens for M in (f.source, f.target)}), gens)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_memoized_surgery_matches_fresh_normal_forms(n):
    objs, mors = _w2_site(n)
    _check_memos(objs, mors)
    if n == 1:
        return
    _, lower = _w2_site(n - 1)
    for g in lower:
        for prefix in ((1,), (2,)):
            fresh = normalize_morphism(
                o(n, prefix + g.source.entries), o(n, prefix + g.target.entries),
                [tuple(range(e + 1)) for e in prefix] + list(g.lift()))
            assert th.prepend_prefix(prefix, g, n) == fresh


# ---------------------------------------------------------------------------
# the site's own operations against normalize_morphism as the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, B", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_enumerated_forms_are_their_normalized_lifts(n, B):
    """``enumerate_morphisms`` builds its forms from checked parts, with no
    normalization: each is the form ``normalize_morphism`` gives its lift."""
    for f in _window_morphisms(n, B):
        assert f is normalize_morphism(f.source, f.target, f.lift())


def test_tails_are_their_normalized_lifts():
    for f in _window_morphisms(2, 3):
        assert th.tail_morphism(f) is normalize_morphism(
            th.tail_object(f.source), th.tail_object(f.target), f.lift()[1:])


@pytest.mark.parametrize("n, B", [(2, 2), (3, 2)])
def test_composites_are_their_normalized_composed_lifts(n, B):
    """Every composite of a generator and a window morphism, either way
    round, is the normal form of the composed canonical lifts."""
    mors = _window_morphisms(n, B)
    lifts = {f: f.lift() for f in mors}
    into, out = {}, {}
    for f in mors:
        into.setdefault(f.target, []).append(f)
        out.setdefault(f.source, []).append(f)
    gens = th.elementary_morphisms(n, B)
    pairs = ([(f, g) for g in gens for f in out[g.target]]
             + [(g, f) for g in gens for f in into[g.source]])
    assert len(pairs) == {(2, 2): 5512, (3, 2): 114665}[n, B]
    for f, g in pairs:
        assert compose(f, g) is normalize_morphism(
            g.source, f.target, helpers.raw_compose(lifts[f], lifts[g]))


# ---------------------------------------------------------------------------
# the depth lemma: truncation is a functor
# ---------------------------------------------------------------------------

def _truncation_failures(objs, pairs, n):
    """Where ``truncated(., d)``, for a d <= n, breaks an identity of
    ``objs`` or the composite ``g∘f`` of a pair ``(g, f)``."""
    failures = [("identity", M, d) for M in objs for d in range(n + 1)
                if th.truncated(identity(M), d) is not identity(th.truncated(M, d))]
    composite = functools.cache(compose)    # truncated pairs repeat
    for g, f in pairs:
        gf = composite(g, f)
        failures += [("composite", g, f, d) for d in range(n + 1)
                     if th.truncated(gf, d)
                     is not composite(th.truncated(g, d), th.truncated(f, d))]
    return failures


@pytest.mark.parametrize("n, B, pairs", [(2, 2, "all"), (3, 2, "generator"),
                                         (2, 3, "generator")])
def test_truncation_keeps_composites_and_identities(n, B, pairs):
    """Certificate of the depth lemma that tables of a depth and the
    functoriality check rest on: for every d <= n, ``truncated(., d)``
    keeps identities and composites, on every composable pair of window
    morphisms at (2, 2), and every pair ``f∘e`` with ``e`` a generator at
    (3, 2) and (2, 3)."""
    objs, mors = window_objects(n, B), _window_morphisms(n, B)
    out = {}
    for f in mors:
        out.setdefault(f.source, []).append(f)
    firsts = mors if pairs == "all" else th.elementary_morphisms(n, B)
    chosen = [(g, f) for f in firsts for g in out[f.target]]
    assert len(chosen) == {(2, 2): 55921, (3, 2): 59925, (2, 3): 89141}[n, B]
    assert _truncation_failures(objs, chosen, n) == []


@st.composite
def _composable(draw, n, B):
    """Two composable morphisms of the window (n, B), each the normal form
    of a drawn lift: at each position a monotone map of the padded ends."""
    a, b, c = (object_of(n, draw(st.lists(st.integers(1, B), max_size=n)))
               for _ in range(3))

    def morphism(s, t):
        return normalize_morphism(s, t, [sorted(draw(st.lists(
            st.integers(0, t.padded(i)), min_size=s.padded(i) + 1,
            max_size=s.padded(i) + 1))) for i in range(n)])
    f = morphism(a, b)
    return morphism(b, c), f


@pytest.mark.parametrize("n, B", [(4, 2), (4, 3)])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_truncation_keeps_sampled_composites(n, B, data):
    """The depth lemma on a derandomised sample of composable pairs of the
    windows (4, 2) and (4, 3), too large to run in full."""
    g, f = data.draw(_composable(n, B))
    assert _truncation_failures([f.source, f.target, g.target], [(g, f)], n) == []


# counts the calls of ``normalize_morphism`` and of the full check of
# ``ThetaMorphism(...)`` made after it runs
_COUNT_CALLS = """
calls = {"normalize_morphism": 0, "ThetaMorphism._check": 0}

def counted(name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper

th.normalize_morphism = counted("normalize_morphism", th.normalize_morphism)
th.ThetaMorphism._check = staticmethod(counted("ThetaMorphism._check", th.ThetaMorphism._check))
"""

_NO_NORMALIZING = """
from precats import theta as th
gens = th.elementary_morphisms(2, 2)
objs = th.window_objects(2, 2)
""" + _COUNT_CALLS + """
mors = [f for s in objs for t in objs for f in th.enumerate_morphisms(s, t)]
made = [th.compose(f, g) for g in gens for f in mors if f.source is g.target]
made += [th.compose(g, f) for g in gens for f in mors if f.target is g.source]
made += [th.tail_morphism(f) for f in mors]
print(calls, len(mors), len(made))
"""


def test_enumerating_composing_and_taking_tails_never_normalize():
    """In a fresh interpreter, where no form of the window and no tail is
    built yet, enumerating its forms, composing each with every generator
    and taking every tail call neither ``normalize_morphism`` nor the
    full check of ``ThetaMorphism(...)``."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", _NO_NORMALIZING], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "{'normalize_morphism':", "0,", "'ThetaMorphism._check':", "0}", "515", "6027"]


_GENERATORS_FROM_PARTS = "from precats import theta as th\n" + _COUNT_CALLS + """
gens = [th.elementary_morphisms(n, 3) for n in range(1, 5)]
print(calls["normalize_morphism"], calls["ThetaMorphism._check"], sum(map(len, gens)),
      sum(len(th.window_objects(n, 3)) for n in range(1, 5)))
"""


def test_generators_are_built_from_checked_parts():
    """In a fresh interpreter, building the W3 generators for n = 1..4
    (2,508 of them) calls ``normalize_morphism`` and the full check of
    ``ThetaMorphism(...)`` only for the identity of each window object, not
    once per generator."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", _GENERATORS_FROM_PARTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    normalized, checked, generators, objects = map(int, done.stdout.split())
    assert generators == 2508 and normalized <= objects and checked <= objects, done.stdout


# ---------------------------------------------------------------------------
# values that equal ints but are not ints
# ---------------------------------------------------------------------------

_NON_INTS = """
import json, sys
from precats import Window, point, presheaf as ps, theta as th
clean = open(sys.argv[1]).read()
bad = json.loads(clean)
entry = next(e for e in bad["actions"] if e["morphism"]["components"] == [[0, 1]])
entry["morphism"]["components"] = [[0.0, 1]]
out = {}

def outcome(key, fn, *args):
    try:
        fn(*args)
        out[key] = None
    except Exception as exc:
        out[key] = [type(exc).__name__, str(exc)]

outcome("object_of", th.object_of, 2, [1.0, True])
outcome("object n", th.ThetaObject, 2.0, (1,))
outcome("object entry", th.ThetaObject, 2, (True,))
one = th.object_of(2, [1])
outcome("morphism", th.ThetaMorphism, one, one, ((0, 1), (False,)))
out["window"] = repr(th.window_objects(2, 1))
out["identity"] = repr(th.identity(th.window_objects(2, 1)[-1]))
outcome("import", ps.precat_from_dump, bad)
out["dump"] = ps.dump_json(point(1), Window(1)) == clean

def ints(value):
    if type(value) is tuple:
        return all(map(ints, value))
    return type(value) is int or type(value) is th.ThetaObject

out["objects stored"] = all(map(ints, th.ThetaObject._forms))
out["morphisms stored"] = all(map(ints, th.ThetaMorphism._forms))
print(json.dumps(out))
"""


def test_floats_and_bools_never_enter_the_site_tables(tmp_path):
    """A float or bool equals an int and hashes alike, so a form stored with
    one would be found in place of the int form.  In a fresh interpreter
    the checked constructors reject them, a dump holding one is malformed,
    no table keeps a key with one, and the process's later dumps stay
    byte-identical."""
    clean = tmp_path / "clean.json"
    clean.write_text(ps.dump_json(ps.point(1), Window(1)))
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", _NON_INTS, str(clean)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out.pop("window") == "[Obj()@2, Obj(1,)@2, Obj(1, 1)@2]"
    assert out.pop("identity") == "Mor(1, 1)->(1, 1)[01,01]"
    assert out.pop("dump") and out.pop("objects stored") and out.pop("morphisms stored")
    assert {key: exc[0] for key, exc in out.items()} == {
        "object_of": "InvalidObjectError", "object n": "InvalidObjectError",
        "object entry": "InvalidObjectError", "morphism": "InvalidMorphismError",
        "import": "PresheafError"}
    assert all("must be ints" in exc[1] for exc in out.values())
    assert out["import"][1].startswith("malformed dump: InvalidMorphismError: ")


_HISTORY_FREE = """
import json, sys
from precats import Window, point, presheaf as ps
clean = open(sys.argv[1]).read()
identity = '"components":[[0,1]],"source":[1]'
bad = {kind: clean.replace(identity, values, 1) for kind, values in (
    ("float", '"components":[[0.0,1]],"source":[1]'),
    ("bool", '"components":[[false,true]],"source":[1]'),
    ("bool end", '"components":[[0,1]],"source":[true]'))}
out = []
for when in ("before", "after"):
    if when == "after":
        out.append(ps.dump_json(point(1), Window(1)) == clean)
    for kind, text in bad.items():
        for form, dump in (("text", text), ("dict", json.loads(text))):
            try:
                ps.precat_from_dump(dump)
                out.append([when, kind, form, "imported"])
            except ps.PresheafError as exc:
                out.append([when, kind, form, str(exc)])
print(json.dumps(out))
"""


def test_import_refuses_floats_and_bools_whatever_forms_exist(tmp_path):
    """Whether a dump imports does not depend on what the process built
    before: in a fresh interpreter, a ``point(1)`` W1 dump whose identity's
    components read ``[[0.0, 1]]`` or ``[[false, true]]``, or whose source
    reads ``[true]``, as text or as a dict, is malformed both before and
    after ``dump_json`` has made the int forms those values equal."""
    clean = tmp_path / "clean.json"
    clean.write_text(ps.dump_json(ps.point(1), Window(1)))
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run([sys.executable, "-c", _HISTORY_FREE, str(clean)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out.pop(6) is True and len(out) == 12
    for when, kind, form, error in out:
        assert error.startswith("malformed dump: "), (when, kind, form, error)
        assert ("the number 0.0 is not an int" if (kind, form) == ("float", "text")
                else "must be ints") in error, (when, kind, form, error)


# The count of elementary_morphisms(n, B) for n <= 4, B <= 3, and the SHA-256
# of their reprs (one tuple per line, in (n, B) order), as they were listed
# before forms hashed by identity
_GENERATOR_COUNTS = {(1, 1): 3, (1, 2): 8, (1, 3): 15, (2, 1): 7, (2, 2): 36,
                     (2, 3): 99, (3, 1): 12, (3, 2): 116, (3, 3): 468,
                     (4, 1): 18, (4, 2): 324, (4, 3): 1926}
_GENERATOR_SHA256 = "c5fb01e2a7a68d7a9a989b7f329fc1ba3b2cf3f03518bcd406b9489a246f7cdf"


def test_elementary_morphisms_are_pinned():
    assert {key: len(th.elementary_morphisms(*key)) for key in _GENERATOR_COUNTS} == \
        _GENERATOR_COUNTS
    text = "\n".join(repr(th.elementary_morphisms(*key)) for key in _GENERATOR_COUNTS)
    assert hashlib.sha256(text.encode()).hexdigest() == _GENERATOR_SHA256


_DETERMINISM = """
import os, sys
from precats import Window, suite
from precats.cli import main
for name, args in (("sigma", ["sigma", "--k", "1", "--n", "2"]),
                   ("upsilon", ["upsilon", "--inputs", "point", "point"])):
    out = os.path.join(sys.argv[1], name + ".json")
    assert main(["build", *args, "--window", "2", "--out", out]) == 0
incls = suite._inclusions()
iso = suite.corner_split_identity(incls[5], incls[4], Window(2))
print([(M, iso.at(M)) for M in Window(2).objects(iso.domain.n)])
"""


def test_outputs_do_not_depend_on_hash_seed_or_addresses(tmp_path):
    """Forms hash by address, so a set of forms iterates in another order in
    each process: dumps and solver answers must not follow it."""
    src = _SRC
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _DETERMINISM, str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, [(out / f"{name}.json").read_bytes()
                                   for name in ("sigma", "upsilon")]))
    assert runs[0] == runs[1]
    assert runs[0][0].startswith("[(Obj()@2, [")
