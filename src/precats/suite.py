"""The exact-identity verification suite.

Each entry rebuilds both sides of one structural identity from scratch and
asks for an explicit windowed isomorphism (or, for the negative control,
asserts its absence).  Entries are independent and deterministic; results
merge in name order.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from . import analysis as an
from . import constructions as cn
from . import presheaf as ps
from . import theta as th


@dataclass
class SuiteEntry:
    name: str
    window: int
    passed: bool
    detail: str
    seconds: float


@dataclass
class SuiteResult:
    entries: list[SuiteEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "entries": [{"name": e.name, "window": e.window,
                             "verdict": "pass" if e.passed else "fail",
                             "detail": e.detail, "seconds": round(e.seconds, 3)}
                            for e in self.entries]}


# ---------------------------------------------------------------------------
# shared input families
# ---------------------------------------------------------------------------

def _one_precats():
    return {
        "empty": ps.empty(1),
        "point": ps.point(1),
        "two": ps.discrete(1, (0, 1)),
        "NI": cn.nerve(cn.FiniteCategory.interval(), 1),
    }


def _inclusions():
    """The canonical inclusions among empty, point, two points, interval nerve."""
    fam = _one_precats()
    emp, pt, two, ni = fam["empty"], fam["point"], fam["two"], fam["NI"]

    def deg_incl(dom, cod, label):
        return ps.PrecatMap(dom, cod,
                            lambda M, c: c if M.length == 0 else cod.degeneracy(M, c),
                            name=label)

    return [
        ps.PrecatMap(emp, pt, lambda M, c: c, name="0->*"),
        ps.PrecatMap(emp, two, lambda M, c: c, name="0->2*"),
        ps.PrecatMap(emp, ni, lambda M, c: c, name="0->NI"),
        ps.PrecatMap(pt, two, lambda M, c: 0, name="*->2*"),
        ps.PrecatMap(pt, ni, lambda M, c: ni.degeneracy(M, 0), name="*->NI"),
        deg_incl(two, ni, "2*->NI"),
    ]


# ---------------------------------------------------------------------------
# identity builders (also used directly by the tests)
# ---------------------------------------------------------------------------

def casezero_table() -> dict[str, float]:
    """The dimension-0 corner-map table computed through the constructions."""
    a = cn.cell(0, 0).inclusion
    b = cn.cell(1, 0).inclusion
    out = {}
    for name, f, g in [("a^a", a, a), ("a^b", a, b), ("b^a", b, a), ("b^b", b, b)]:
        out[name] = an.min_dim_map0(cn.pushout_product(f, g).map).value
    return out


def wedge_identity(f: ps.PrecatMap, g: ps.PrecatMap, window: ps.Window):
    """Glue three wedges of edge complexes over the middle one and compare
    with the outer wedge."""
    Uf, Ug = cn.upsilon_map([f], name="Uf"), cn.upsilon_map([g], name="Ug")
    UA, UB, UC, UD = Uf.domain, Uf.codomain, Ug.domain, Ug.codomain
    mid = cn.wedge01(UA, UC, "mid")
    left = cn.wedge01(UA, UD, "left")
    right = cn.wedge01(UB, UC, "right")
    target = cn.wedge01(UB, UD, "target")
    m2l = ps.PrecatMap(mid.precat, left.precat, mid.induced(
        ps.PrecatMap(UA, left.precat, left.inl.apply, name="l"),
        ps.PrecatMap(UC, left.precat,
                     lambda M, c: left.inr.apply(M, Ug.apply(M, c)), name="gr"),
    ).apply, name="m2l")
    m2r = ps.PrecatMap(mid.precat, right.precat, mid.induced(
        ps.PrecatMap(UA, right.precat,
                     lambda M, c: right.inl.apply(M, Uf.apply(M, c)), name="fl"),
        ps.PrecatMap(UC, right.precat, right.inr.apply, name="r"),
    ).apply, name="m2r")
    lhs = ps.pushout(m2l, m2r, name="wedge-lhs").precat
    return ps.iso_windowed(lhs, target.precat, window)


def corner_split_identity(f: ps.PrecatMap, g: ps.PrecatMap, window: ps.Window):
    """Split the corner-map source into the two triangle gluings joined along
    the edge complex on the corner pushout."""
    A, B = f.domain, f.codomain
    C, D = g.domain, g.codomain
    W = cn.pushout_product(f, g).source.precat
    Q1 = cn.q_gluing(f, g)     # inl: edges (A,D); inr: edges (B,C)
    Q2 = cn.q_gluing(g, f)     # inl: edges (C,B); inr: edges (D,A)
    UW = cn.upsilon([W])
    merge = {
        ("A", "D"): cn.upsilon_face([A, D], ("merge", 1)),
        ("B", "C"): cn.upsilon_face([B, C], ("merge", 1)),
        ("C", "B"): cn.upsilon_face([C, B], ("merge", 1)),
        ("D", "A"): cn.upsilon_face([D, A], ("merge", 1)),
    }

    def into(q, route):
        def apply(M, cell):
            leg0, merge0, _ = route["L"]
            if M.length == 0:
                return leg0.apply(M, merge0.apply(M, cell))
            y, values = cell
            if not values:
                return leg0.apply(M, merge0.apply(M, (y, ())))
            side, pair = values[0]
            leg, mrg, tr = route[side]
            return leg.apply(M, mrg.apply(M, (y, (tr(pair),))))
        return apply

    keep = lambda p: p
    swap = lambda p: (p[1], p[0])
    y_to_q1 = ps.PrecatMap(UW, Q1.precat, into(Q1, {
        "L": (Q1.inl, merge[("A", "D")], keep),
        "R": (Q1.inr, merge[("B", "C")], keep)}), name="Y->Q1")
    y_to_q2 = ps.PrecatMap(UW, Q2.precat, into(Q2, {
        "L": (Q2.inr, merge[("D", "A")], swap),
        "R": (Q2.inl, merge[("C", "B")], swap)}), name="Y->Q2")
    rhs = ps.pushout(y_to_q1, y_to_q2, name="corner-rhs").precat
    lhs = cn.pushout_product(cn.upsilon_map([f], name="Uf"),
                             cn.upsilon_map([g], name="Ug")).source.precat
    return ps.iso_windowed(lhs, rhs, window)


def whitehead_laws(A: ps.Precat, a, k: int, window: ps.Window) -> list[str]:
    """Violated law names for the Whitehead operation on a pointed input."""
    bad = []
    W, _ = cn.whitehead(A, a, k)
    for M in window.objects(A.n):
        if M.length <= k and W.size(M) != 1:
            bad.append(f"level {M.entries} not a point")
    W2, _ = cn.whitehead(W, a, k)
    for M in window.objects(A.n):
        if W2.cells(M) != W.cells(M):
            bad.append(f"not idempotent at {M.entries}")
    if k >= 1:
        for p in (1, 2):
            lhs = ps.slice_precat(W, (p,), name="Wh-slice")
            fiber = ps.hom_precat(A, p, (a,) * (p + 1))
            dp = A.degeneracy(th.object_of(A.n, (p,)), a)
            rhs, _ = cn.whitehead(fiber, dp, k - 1)
            for T in window.objects(A.n - 1):
                if lhs.cells(T) != rhs.cells(T):
                    bad.append(f"recursion fails at p={p}, {T.entries}")
    if k == 0:
        lhs = ps.hom_precat(W, 1, (a, a))
        rhs = ps.hom_precat(A, 1, (a, a))
        for T in window.objects(A.n - 1):
            if lhs.cells(T) != rhs.cells(T):
                bad.append(f"hom not preserved at {T.entries}")
    return bad


# ---------------------------------------------------------------------------
# suite entries
# ---------------------------------------------------------------------------

def _entry_casezero(window: ps.Window):
    table = casezero_table()
    want = {"a^a": 0, "a^b": 1, "b^a": 1, "b^b": math.inf}
    ok = table == want
    return ok, " ".join(f"m({k})={v}" for k, v in sorted(table.items()))


def _entry_square(window: ps.Window):
    fam = _one_precats()
    bad = []
    for bn, B in fam.items():
        for dn, D in fam.items():
            lhs, rhs = cn.square_decomposition(B, D)
            if ps.iso_windowed(lhs, rhs, window) is None:
                bad.append(f"({bn},{dn})")
    return not bad, ("all 16 pairs split" if not bad else "failed: " + ",".join(bad))


def _entry_square_legacy(window: ps.Window):
    two, pt = ps.discrete(0, (0, 1)), ps.point(0)
    lhs, rhs = cn.square_decomposition(two, pt, legacy=True)
    iso = ps.iso_windowed(lhs, rhs, window)
    return iso is None, ("legacy indexing breaks the square, as it must"
                         if iso is None else "legacy indexing unexpectedly passed")


def _over_inclusion_pairs(identity, window: ps.Window):
    incls = _inclusions()
    bad = sum(identity(f, g, window) is None for f in incls for g in incls)
    return bad == 0, f"{len(incls) ** 2 - bad}/{len(incls) ** 2} inclusion pairs"


def _entry_cylinder(window: ps.Window):
    E = ps.discrete(1, (0, 1))
    F = ps.discrete(1, (0, 1, 2))
    i = ps.PrecatMap(E, F, lambda M, c: c, name="2*->3*")
    iso = cn.claim_fold(i).decomposition_agrees(ps.Window(max(window.B, 3)))
    return iso is not None, "two caps over the cylinder match the corner source"


def _entry_suspension_tower(window: ps.Window):
    bad = []
    for k in (0, 1, 2):
        sk = cn.sigma_free(k, k + 1)
        sk1 = cn.sigma_free(k + 1, k + 2)
        if ps.iso_windowed(cn.suspension(sk).precat, sk1.space, window) is None:
            bad.append(k)
    return not bad, ("free generators suspend, k=0,1,2" if not bad
                     else f"fails at k={bad}")


def _entry_delooping(window: ps.Window):
    pts = [("two", cn.PointedPrecat(ps.discrete(1, (0, 1)), 0)),
           ("NI", cn.PointedPrecat(cn.nerve(cn.FiniteCategory.interval(), 1), 0)),
           ("sigma1", cn.sigma_free(1, 1))]
    bad = []
    for name, A in pts:
        X = cn.delooping(A)
        S = cn.suspension(A)
        if ps.iso_windowed(X, S.precat, window) is None:
            bad.append(name)
    return not bad, ("wedge model equals the suspension" if not bad
                     else f"fails for {bad}")


def _entry_whitehead(window: ps.Window):
    w3 = ps.Window(max(window.B, 3))
    inputs = [
        ("NIbar", cn.nerve(cn.FiniteCategory.iso_interval(), 2), 0),
        ("c2(Z2)", cn.ck_monoidal(cn.z2_monoid(), 2), "pt"),
    ]
    bad = []
    for name, A, a in inputs:
        for k in (0, 1):
            bad += [f"{name},k={k}: {msg}" for msg in whitehead_laws(A, a, k, w3)]
    return not bad, ("point below the cut, recursion and homs agree" if not bad
                     else "; ".join(bad))


IDENTITIES = {
    "casezero": _entry_casezero,
    "corner_split": functools.partial(_over_inclusion_pairs,
                                      corner_split_identity),
    "cylinder": _entry_cylinder,
    "delooping": _entry_delooping,
    "square": _entry_square,
    "square_legacy": _entry_square_legacy,
    "suspension_tower": _entry_suspension_tower,
    "wedge": functools.partial(_over_inclusion_pairs, wedge_identity),
    "whitehead": _entry_whitehead,
}


def run_suite(window_bound: int = 2, only: str | None = None) -> SuiteResult:
    if window_bound < 2:
        raise ValueError("suite window must be >= 2")
    names = sorted(IDENTITIES)
    if only is not None:
        if only not in IDENTITIES:
            raise KeyError(f"unknown identity {only!r}; known: {', '.join(names)}")
        names = [only]
    window = ps.Window(window_bound)
    entries = []
    for name in names:
        start = time.perf_counter()
        ok, detail = IDENTITIES[name](window)
        entries.append(SuiteEntry(name, window_bound, ok, detail,
                                  time.perf_counter() - start))
    return SuiteResult(entries)
