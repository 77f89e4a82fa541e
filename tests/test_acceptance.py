"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance here is exact (these are finite combinatorial identities);
the only numeric bounds are the stated wall-clock budgets.
"""

import math
import time

import pytest

from precats import (FiniteCategory, PointedPrecat, PrecatMap, Window,
                     category_from_nerve, check_functoriality, ck_monoidal,
                     delooping, discrete, enumerate_natural_maps,
                     is_k_connected, iso_windowed, nerve, object_of, point,
                     product, pushout, segal_check, sigma_free,
                     square_decomposition, suspension, z2_monoid)
from precats import suite as suite_mod

import helpers

o = object_of
W2, W3 = Window(2), Window(3)


@pytest.fixture
def announce(capsys, request):
    start = time.perf_counter()

    def _announce(ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - start
        line = (f"{'PASS' if ok else 'FAIL'} {request.node.name} "
                f"({elapsed:.2f}s) {detail}")
        with capsys.disabled():
            print(line)
        assert ok, line

    return _announce


def test_criterion_01_dimension_zero_table(announce):
    """Corner-map minimal dimensions at the bottom, exact, < 1 s."""
    start = time.perf_counter()
    table = suite_mod.casezero_table()
    elapsed = time.perf_counter() - start
    want = {"a^a": 0, "a^b": 1, "b^a": 1, "b^b": math.inf}
    announce(table == want and elapsed < 1.0,
             f"table={table} in {elapsed:.3f}s")


def test_criterion_02_suspension_tower(announce):
    """Free generators suspend, k = 0, 1, 2, explicit bijections, < 60 s."""
    start = time.perf_counter()
    ok = True
    for k in (0, 1, 2):
        sk = sigma_free(k, k + 1)
        sk1 = sigma_free(k + 1, k + 2)
        iso = iso_windowed(suspension(sk).precat, sk1.space, W2)
        if iso is None:
            ok = False
            break
        for M in W2.objects(k + 2):
            images = {iso.apply(M, c) for c in iso.domain.cells(M)}
            if images != iso.codomain.cells(M):
                ok = False
    elapsed = time.perf_counter() - start
    announce(ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_03_delooping_identity(announce):
    """Wedge delooping equals the suspension for three pointed inputs, < 60 s."""
    start = time.perf_counter()
    inputs = [PointedPrecat(discrete(1, (0, 1)), 0),
              PointedPrecat(nerve(FiniteCategory.interval(), 1), 0),
              sigma_free(1, 1)]
    ok = all(iso_windowed(delooping(A), suspension(A).precat, W2) is not None
             for A in inputs)
    elapsed = time.perf_counter() - start
    announce(ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_04_square_and_gluing_identities(announce):
    """Square, wedge and corner-split identities over the inclusion family;
    the legacy indexing must fail the square.  < 5 min."""
    start = time.perf_counter()
    fam = suite_mod._one_precats()
    ok = True
    for B in fam.values():
        for D in fam.values():
            lhs, rhs = square_decomposition(B, D)
            ok = ok and iso_windowed(lhs, rhs, W2) is not None
    incls = suite_mod._inclusions()
    for f in incls:
        for g in incls:
            ok = ok and suite_mod.wedge_identity(f, g, W2) is not None
            ok = ok and suite_mod.corner_split_identity(f, g, W2) is not None
    legacy_lhs, legacy_rhs = square_decomposition(discrete(0, (0, 1)), point(0),
                                                  legacy=True)
    negative_control = iso_windowed(legacy_lhs, legacy_rhs, W3) is None
    elapsed = time.perf_counter() - start
    announce(ok and negative_control and elapsed < 300.0,
             f"{elapsed:.1f}s, negative control fails as required")


def test_criterion_05_cylinder_decomposition(announce):
    """Two caps glued over the cylinder match the corner source; exact."""
    from precats import claim_fold
    E = discrete(1, (0, 1))
    F = discrete(1, (0, 1, 2))
    data = claim_fold(PrecatMap(E, F, lambda M, c: c, name="2*->3*"))
    announce(data.decomposition_agrees(W3) is not None)


def test_criterion_06_whitehead_laws(announce):
    """Point below the cut, the slice recursion, and hom preservation for
    the two-object contractible nerve and the double monoid tower."""
    bad = []
    for name, A, a in [("NIbar", nerve(FiniteCategory.iso_interval(), 2), 0),
                       ("c2", ck_monoidal(z2_monoid(), 2), "pt")]:
        for k in (0, 1):
            bad += [f"{name},k={k}:{msg}"
                    for msg in suite_mod.whitehead_laws(A, a, k, W3)]
    announce(not bad, "; ".join(bad) if bad else "all laws exact on B=3")


def test_criterion_07_nerve_round_trip(announce):
    """Ten exhaustively generated small categories: strict comparison maps
    at p <= 4 and recovery up to relabeling."""
    cats = helpers.enumerate_small_categories(limit=10)
    ok = len(cats) == 10
    for C in cats:
        N = nerve(C, 1)
        ok = ok and segal_check(N, Window(4)).strict
        ok = ok and helpers.categories_isomorphic(
            category_from_nerve(N), C)
    announce(ok, f"{len(cats)} categories")


def test_criterion_08_strictness_counterexample(announce):
    """The wedge delooping of two points misses strictness by 3 vs 4."""
    X = delooping(PointedPrecat(discrete(1, (0, 1)), 0))
    report = segal_check(X, W2)
    fails = [e for e in report.failures() if e.level.entries == (2,)]
    announce(bool(fails) and fails[0].source_size == 3
             and fails[0].target_size == 4,
             "3 cells vs 4 compatible tuples at level (2)")


def test_criterion_09_connectivity(announce):
    ok = (is_k_connected(ck_monoidal(z2_monoid(), 1), 0)
          and is_k_connected(ck_monoidal(z2_monoid(), 2), 1)
          and not is_k_connected(nerve(FiniteCategory.interval(), 1), 0))
    announce(ok)


def test_criterion_10_infrastructure_laws(announce):
    """Functoriality, the pushout universal property and product/terminal
    laws, exhaustively on window B=2 in dimensions <= 2."""
    violations = []

    # functoriality of a catalog of constructions
    catalog = [
        nerve(FiniteCategory.iso_interval(), 1),
        nerve(FiniteCategory.chain(2), 2),
        sigma_free(1, 2).space,
        delooping(PointedPrecat(discrete(1, (0, 1)), 0)),
        ck_monoidal(z2_monoid(), 2),
        product(nerve(FiniteCategory.interval(), 1),
                sigma_free(1, 1).space),
    ]
    for P in catalog:
        violations += [(P.name, v) for v in check_functoriality(P, W2)]

    # product and terminal laws
    for A in (nerve(FiniteCategory.interval(), 1), sigma_free(1, 1).space):
        pa = product(point(1), A)
        if iso_windowed(pa, A, W2) is None:
            violations.append((A.name, "unit law"))
        for M in W2.objects(1):
            if product(A, A).size(M) != A.size(M) ** 2:
                violations.append((A.name, "count law"))
        if point(1).size(o(1, [2])) != 1:
            violations.append(("point", "terminal law"))

    # pushout universal property, exhaustively over enumerated cocones
    n = 1
    two = discrete(n, (0, 1))
    NI = nerve(FiniteCategory.interval(), n)
    pt = point(n)
    diagrams = [
        (pt, PrecatMap(pt, two, lambda M, c: 0, name="p0"),
         PrecatMap(pt, two, lambda M, c: 1, name="p1")),
        (two, PrecatMap(two, two, lambda M, c: c, name="id"),
         PrecatMap(two, pt, lambda M, c: "pt", name="!")),
    ]
    for R, f, g in diagrams:
        po = pushout(f, g)
        for Z in (pt, two, NI):
            all_maps = enumerate_natural_maps(po.precat, Z, W2)
            us = enumerate_natural_maps(f.codomain, Z, W2)
            vs = enumerate_natural_maps(g.codomain, Z, W2)
            for u in us:
                for v in vs:
                    commutes = all(
                        u.apply(M, f.apply(M, r)) == v.apply(M, g.apply(M, r))
                        for M in W2.objects(n) for r in R.cells(M))
                    if not commutes:
                        continue
                    h = po.induced(u, v)
                    hmap = PrecatMap(po.precat, Z, h.apply)
                    if hmap.naturality_violations(W2):
                        violations.append(("pushout", "induced not natural"))
                    matches = [H for H in all_maps if all(
                        H.apply(M, po.inl.apply(M, c)) == u.apply(M, c)
                        for M in W2.objects(n)
                        for c in f.codomain.cells(M)) and all(
                        H.apply(M, po.inr.apply(M, c)) == v.apply(M, c)
                        for M in W2.objects(n)
                        for c in g.codomain.cells(M))]
                    if len(matches) != 1:
                        violations.append(("pushout", "factorization not unique"))
    announce(not violations, f"{len(violations)} violations")
