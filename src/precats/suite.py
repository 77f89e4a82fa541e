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
    return [
        ps.degeneracy_map(emp, pt, name="0->*"),
        ps.degeneracy_map(emp, two, name="0->2*"),
        ps.degeneracy_map(emp, ni, name="0->NI"),
        ps.point_map(two, 0, pt, name="*->2*"),
        ps.point_map(ni, 0, pt, name="*->NI"),
        ps.degeneracy_map(two, ni, name="2*->NI"),
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
    m2l = mid.induced(left.inl, Ug.then(left.inr), name="m2l")
    m2r = mid.induced(Uf.then(right.inl), right.inr, name="m2r")
    lhs = ps.pushout(m2l, m2r, name="wedge-lhs").precat
    return ps.iso_windowed(lhs, target.precat, window)


def corner_split_identity(f: ps.PrecatMap, g: ps.PrecatMap, window: ps.Window):
    """Split the corner-map source into the two triangle gluings joined along
    the edge complex on the corner pushout."""
    A, B = f.domain, f.codomain
    C, D = g.domain, g.codomain
    corner = cn.pushout_product(f, g).source      # AxD and BxC glued
    Q1 = cn.q_gluing(f, g)     # inl: edges (A,D); inr: edges (B,C)
    Q2 = cn.q_gluing(g, f)     # inl: edges (C,B); inr: edges (D,A)
    UW = cn.upsilon([corner.precat])

    y_to_q1 = cn.upsilon_cases(UW, (ps.identity_map(corner.P), Q1.inl),
                               (ps.identity_map(corner.Q), Q1.inr), name="Y->Q1")
    y_to_q2 = cn.upsilon_cases(UW, (ps.swap_map(A, D, corner.P), Q2.inr),
                               (ps.swap_map(B, C, corner.Q), Q2.inl), name="Y->Q2")
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
    i = ps.degeneracy_map(E, F, name="2*->3*")
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
