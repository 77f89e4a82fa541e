"""Category recovery and truncation read the composition of a strict input
from level (2): the error branches on corrupted dumps, and ``tau_zero`` of
nerves against an oracle computed from the category alone."""

import json

import pytest

from precats import (FiniteCategory, Window, category_from_nerve, coproduct,
                     dump_json, is_k_connected, nerve, point,
                     precat_from_dump, segal_check, tau_zero, upsilon)
from precats.analysis import AnalysisError, NotStrictError, TruncationUndefinedError

import helpers

W3 = Window(3)


def _corrupted(A, source, target, components, cell, image):
    """``A``'s window-3 dump, re-imported with one entry of one action
    changed: the action of the morphism ``source -> target`` with the given
    components now sends ``cell`` to ``image``."""
    data = json.loads(dump_json(A, W3))
    entry, = (e for e in data["actions"] if e["morphism"] == {
        "components": components, "source": source, "target": target})
    assert cell in entry["map"] and entry["map"][cell] != image
    entry["map"][cell] = image
    return precat_from_dump(data)


def test_bad_identity_is_not_a_category():
    """The degeneracy (1) -> () sends the object 0 to the arrow 0 -> 1.  The
    comparison maps still hold, so truncation is defined, but the level
    data is not a category."""
    X = _corrupted(nerve(FiniteCategory.interval(), 1), [1], [], [[0, 0]],
                   "0", "((0,1))")
    assert segal_check(X, W3).strict
    with pytest.raises(NotStrictError) as info:
        category_from_nerve(X)
    assert str(info.value) == "level data is not a category: bad identity at '0'"
    assert tau_zero(X) == frozenset([frozenset(["0"]), frozenset(["1"])])


def test_composition_not_constant_on_classes():
    """One filler's long face is moved to an arrow of another equivalence
    class: strict still, but neither a category nor truncatable."""
    A = upsilon([coproduct(nerve(FiniteCategory.iso_interval(), 1), point(1)).precat])
    X = _corrupted(A, [1], [2], [[0, 2], [0]], "((0,0,1),((L,1)))", "((0,1),((R,pt)))")
    assert segal_check(X, W3).strict
    for truncation in (tau_zero, lambda B: is_k_connected(B, 0)):
        with pytest.raises(TruncationUndefinedError) as info:
            truncation(X)
        assert str(info.value) == "composition is not constant on equivalence classes"
    with pytest.raises(NotStrictError) as info:
        category_from_nerve(X)
    assert str(info.value).startswith("level data is not a category: identity law fails")


def test_recovery_needs_dimension_one():
    """Level (1) of a 0-precat is no site object, so recovery refuses the
    input before reading it; a point of dimension 1 is the terminal
    category."""
    with pytest.raises(AnalysisError) as info:
        category_from_nerve(point(0))
    assert type(info.value) is AnalysisError
    assert str(info.value) == "category recovery needs dimension n >= 1, not 0"
    C = category_from_nerve(point(1))
    assert (C.objects, C.arrows) == (("pt",), ("pt",))


def _iso_classes(C: FiniteCategory) -> frozenset:
    """Objects up to isomorphism, read from the composition table of ``C``."""
    def iso(x, y):
        return any(C.table[(a, b)] == C.ident[x] and C.table[(b, a)] == C.ident[y]
                   for a in C.arrows if (C.src[a], C.tgt[a]) == (x, y)
                   for b in C.arrows if (C.src[b], C.tgt[b]) == (y, x))
    return frozenset(frozenset(y for y in C.objects if iso(x, y)) for x in C.objects)


STOCK = [FiniteCategory.interval(), FiniteCategory.iso_interval(),
         FiniteCategory.chain(2),
         FiniteCategory.monoid((0, 1), lambda a, b: (a + b) % 2, 0)]


@pytest.mark.parametrize("n", [1, 2])
def test_tau_zero_of_nerves_matches_isomorphism_classes(n):
    cats = helpers.enumerate_small_categories(limit=10) + STOCK
    assert any(len(c) > 1 for C in cats for c in _iso_classes(C))
    for C in cats:
        assert tau_zero(nerve(C, n)) == _iso_classes(C), (C.name, n)

