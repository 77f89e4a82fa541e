"""The benchmark's three workloads and the expected answer of every request.

A workload turns ``(seed, pass index)`` into a list of requests.  A request
is one identity instance, one isomorphism question or one CLI invocation: a
thunk returning a verdict, together with the verdict it must return.  The
expected verdicts never come from precats itself.  They come from
hand-written tables that cite their source, from the brute-force
poset-isomorphism oracle below, and from the SHA-256 of the dumps written
by the seed version of the program.

Only ``refute`` depends on the seed; ``verify-w3`` and ``dump-check`` run
fixed inputs, so a second seed changes refute's inputs and nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from precats import cli
from precats import constructions as cn
from precats import presheaf as ps
from precats import suite as su


@dataclass
class Request:
    group: str                   # suite entry, refute stratum or CLI verb
    label: str
    run: Callable[[], object]    # returns the verdict
    expected: object


@dataclass
class Inputs:
    requests: list[Request]
    digest: str                  # SHA-256 of a canonical description of the inputs


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _iso(P, Q, window) -> str:
    return "iso" if ps.iso_windowed(P, Q, window) is not None else "no iso"


# ---------------------------------------------------------------------------
# verify-w3: the 101 identity instances that run_suite(3) checks
# ---------------------------------------------------------------------------

# Hand-written verdicts.  Sources: README "Suite entries" (square_legacy is
# the negative control that must fail) and tests/test_acceptance.py,
# criteria 1 (casezero table), 2 (suspension tower), 3 (delooping),
# 4 (square, wedge, corner split, legacy square), 5 (cylinder) and
# 6 (Whitehead laws: no violated law).
VERIFY_EXPECTED = {
    "casezero": {"a^a": 0, "a^b": 1, "b^a": 1, "b^b": math.inf},
    "corner_split": "iso",
    "wedge": "iso",
    "square": "iso",
    "suspension_tower": "iso",
    "delooping": "iso",
    "whitehead": [],
    "cylinder": "iso",
    "square_legacy": "no iso",
}

# The tiny self-test size keeps these cheap entries, at window 2.
_TINY_ENTRIES = ("casezero", "delooping", "square_legacy", "cylinder")


def _one_precats():
    """The suite's four dimension-1 inputs: empty, point, two points, and
    the nerve of the interval."""
    return {
        "empty": ps.empty(1),
        "point": ps.point(1),
        "two": ps.discrete(1, (0, 1)),
        "NI": cn.nerve(cn.FiniteCategory.interval(), 1),
    }


def _inclusions():
    """The suite's six canonical inclusions among the four inputs."""
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


def verify_w3(seed: int, pass_index: int, tiny: bool, workdir: str) -> Inputs:
    """One request per identity instance.  Inputs shared by the instances of
    one suite entry are built once for that entry, as run_suite does, so
    their caches fill across the entry's instances."""
    W = ps.Window(2 if tiny else 3)
    reqs: list[Request] = []

    def add(entry, label, thunk):
        reqs.append(Request(entry, label, thunk, VERIFY_EXPECTED[entry]))

    add("casezero", "table", su.casezero_table)
    for entry, identity in (("corner_split", su.corner_split_identity),
                            ("wedge", su.wedge_identity)):
        incls = _inclusions()
        for f in incls:
            for g in incls:
                add(entry, f"{f.name},{g.name}",
                    lambda f=f, g=g, identity=identity:
                        "iso" if identity(f, g, W) is not None else "no iso")
    fam = _one_precats()
    for bn, B in fam.items():
        for dn, D in fam.items():
            add("square", f"({bn},{dn})",
                lambda B=B, D=D: _iso(*cn.square_decomposition(B, D), W))
    for k in (0, 1, 2):
        add("suspension_tower", f"k={k}",
            lambda k=k: _iso(cn.suspension(cn.sigma_free(k, k + 1)).precat,
                             cn.sigma_free(k + 1, k + 2).space, W))
    pointed = [("two", cn.PointedPrecat(ps.discrete(1, (0, 1)), 0)),
               ("NI", cn.PointedPrecat(cn.nerve(cn.FiniteCategory.interval(), 1), 0)),
               ("sigma1", cn.sigma_free(1, 1))]
    for name, A in pointed:
        add("delooping", name,
            lambda A=A: _iso(cn.delooping(A), cn.suspension(A).precat, W))
    w3 = ps.Window(max(W.B, 3))
    for name, A, a in [("NIbar", cn.nerve(cn.FiniteCategory.iso_interval(), 2), 0),
                       ("c2(Z2)", cn.ck_monoidal(cn.z2_monoid(), 2), "pt")]:
        for k in (0, 1):
            add("whitehead", f"{name},k={k}",
                lambda A=A, a=a, k=k: su.whitehead_laws(A, a, k, w3))

    def cylinder():
        i = ps.PrecatMap(ps.discrete(1, (0, 1)), ps.discrete(1, (0, 1, 2)),
                         lambda M, c: c, name="2*->3*")
        agrees = cn.claim_fold(i).decomposition_agrees(w3)
        return "iso" if agrees is not None else "no iso"

    add("cylinder", "2*->3*", cylinder)

    def square_legacy():
        lhs, rhs = cn.square_decomposition(ps.discrete(0, (0, 1)), ps.point(0),
                                           legacy=True)
        return _iso(lhs, rhs, W)

    add("square_legacy", "(two,point)", square_legacy)
    if tiny:
        reqs = [r for r in reqs if r.group in _TINY_ENTRIES]
    return Inputs(reqs, _digest([(W.B, r.group, r.label) for r in reqs]))


# ---------------------------------------------------------------------------
# refute: windowed isomorphism questions between nerves of random posets
# ---------------------------------------------------------------------------

# One pass asks 100 questions, half positive: (kind, poset size, count).
# Search cost grows factorially with the size (negatives: ~0.010 s at 5
# elements, ~0.08 s at 6, ~0.7 s at 7, calibrated).  Every poset of one
# size has the same number of strict relations, so a negative's cost hardly
# depends on the seed; a positive's cost depends on where the first match
# sits in the search order.  7-element posets are asked only as negatives:
# a relabelled 7-element positive costs anywhere from 0.1 to 1.2 s raw, and two
# of them swung a pass by 15%.  With this mix the median latency falls among
# the 5-element negatives and the 90th percentile among the 6-element ones,
# not on a boundary between two kinds.
REFUTE_MIX = (("pos", 5, 30), ("pos", 6, 20),
              ("neg", 5, 30), ("neg", 6, 18), ("neg", 7, 2))
_TINY_MIX = (("pos", 4, 2), ("neg", 4, 2), ("neg", 5, 1))
RELATIONS = {4: 3, 5: 5, 6: 8, 7: 11}


def random_poset(rng: random.Random, n: int) -> frozenset:
    """Strict order relation of a random poset on ``range(n)`` with
    ``RELATIONS[n]`` comparable pairs: a random DAG along a random linear
    extension, transitively closed, drawn until the count fits."""
    while True:
        less = [[i < j and rng.random() < 0.3 for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                if less[i][k]:
                    for j in range(n):
                        if less[k][j]:
                            less[i][j] = True
        if sum(map(sum, less)) == RELATIONS[n]:
            break
    order = rng.sample(range(n), n)
    return frozenset((order[i], order[j]) for i in range(n) for j in range(n)
                     if less[i][j])


def relabel(rel: frozenset, perm) -> frozenset:
    return frozenset((perm[a], perm[b]) for a, b in rel)


def opposite(rel: frozenset) -> frozenset:
    return frozenset((b, a) for a, b in rel)


def posets_isomorphic(n: int, rel_a: frozenset, rel_b: frozenset) -> bool:
    """Brute-force oracle: build a bijection of ``range(n)`` element by
    element, backtracking whenever up/down degrees or the relations with the
    elements already placed disagree.  Shares no code with precats."""
    if len(rel_a) != len(rel_b):
        return False

    def degrees(rel):
        return [(sum(1 for a, _ in rel if a == x), sum(1 for _, b in rel if b == x))
                for x in range(n)]

    deg_a, deg_b = degrees(rel_a), degrees(rel_b)
    image: list[int] = []
    used = [False] * n

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in range(n):
            if used[y] or deg_b[y] != deg_a[x]:
                continue
            if all(((w, x) in rel_a) == ((image[w], y) in rel_b)
                   and ((x, w) in rel_a) == ((y, image[w]) in rel_b)
                   for w in range(x)):
                used[y] = True
                image.append(y)
                if extend(x + 1):
                    return True
                image.pop()
                used[y] = False
        return False

    return extend(0)


def poset_category(n: int, rel: frozenset, name: str) -> cn.FiniteCategory:
    objs = tuple(range(n))
    arrows = tuple(sorted({(x, x) for x in objs} | rel))
    table = {(a, b): (a[0], b[1]) for a in arrows for b in arrows if a[1] == b[0]}
    return cn.FiniteCategory(objs, arrows, {a: a[0] for a in arrows},
                             {a: a[1] for a in arrows}, {x: (x, x) for x in objs},
                             table, name=name)


def refute(seed: int, pass_index: int, tiny: bool, workdir: str) -> Inputs:
    """Positives: P against a seeded relabelling of P.  Negatives: P, not
    self-dual, against its opposite (equal level counts, no isomorphism).
    Each pass of a run draws fresh posets, in a seeded order."""
    rng = random.Random(f"refute/{seed}/{pass_index}")
    slots = [(kind, n) for kind, n, count in (_TINY_MIX if tiny else REFUTE_MIX)
             for _ in range(count)]
    rng.shuffle(slots)
    W = ps.Window(2)
    reqs: list[Request] = []
    described = []
    for idx, (kind, n) in enumerate(slots):
        while True:
            rel = random_poset(rng, n)
            if kind == "pos" or not posets_isomorphic(n, rel, opposite(rel)):
                break
        other = relabel(rel, rng.sample(range(n), n)) if kind == "pos" else opposite(rel)
        described.append((kind, n, sorted(rel), sorted(other)))
        P, Q = poset_category(n, rel, f"P{idx}"), poset_category(n, other, f"Q{idx}")
        expected = "iso" if posets_isomorphic(n, rel, other) else "no iso"
        reqs.append(Request(f"{kind}{n}", f"{idx}:{kind}{n}",
                            lambda P=P, Q=Q: _iso(cn.nerve(P, 1), cn.nerve(Q, 1), W),
                            expected))
    return Inputs(reqs, _digest(described))


# ---------------------------------------------------------------------------
# dump-check: build / re-import / check round trips through precats.cli.main
# ---------------------------------------------------------------------------

# (name, build arguments, build window, Segal verdict of the dump).
# Sources of the verdicts: nerves are strict (tests/test_analysis.py
# test_nerves_are_strict; acceptance criterion 7); edge complexes, hence
# upsilon, cells and boundaries (edge complexes on smaller cells), are strict
# (test_analysis.py test_edge_complex_is_strict, test_constructions.py
# test_three_input_complex_is_strict); the Whitehead operation on the nerve
# of Ibar is the point at every window level (levels of length <= k are
# points by definition and the nerve is constant in the second direction),
# and the point is strict; the wedge delooping of two points misses
# strictness by 3 vs 4 (README, acceptance criterion 8, test_cli.py
# test_check_segal_pass_and_fail), and so do the suspension of two points
# and the free 1-generator in dimension 2, which it models (acceptance
# criteria 2 and 3: both are isomorphic to such a delooping).
#
# Functoriality holds for every presheaf (acceptance criterion 10), so
# every window-2 dump must pass `check functorial`.
#
# Left out because one round trip is too long to repeat: `build ck --k 2`
# at window 3 (209 s, 320 MB dump) and `check functorial` at n=3, B=2
# (370 s).
DUMP_CATALOG = [
    ("nerve-Ibar-n2", ["nerve", "--category", "Ibar", "--n", "2"], 3, "strict"),
    ("nerve-Z2", ["nerve", "--category", "Z2", "--n", "1"], 3, "strict"),
    ("nerve-chain3", ["nerve", "--category", "chain3", "--n", "1"], 3, "strict"),
    ("upsilon-point-point", ["upsilon", "--inputs", "point", "point"], 3, "strict"),
    ("cell-1-1", ["cell", "--k", "1", "--n", "1"], 3, "strict"),
    ("boundary-1-1", ["boundary", "--k", "1", "--n", "1"], 3, "strict"),
    ("delooping-two_point", ["delooping", "--of", "two_point", "--n", "1"], 3,
     "not strict"),
    ("whitehead-Ibar-k1", ["whitehead", "--of", "nerve", "--category", "Ibar",
                           "--k", "1", "--n", "2"], 3, "strict"),
    ("sigma-1-2", ["sigma", "--k", "1", "--n", "2"], 2, "not strict"),
    ("suspension-two_point", ["suspension", "--of", "two_point", "--n", "1"], 2,
     "not strict"),
    ("nerve-Z2", ["nerve", "--category", "Z2", "--n", "1"], 2, "strict"),
    ("nerve-chain3", ["nerve", "--category", "chain3", "--n", "1"], 2, "strict"),
    ("upsilon-point-point", ["upsilon", "--inputs", "point", "point"], 2, "strict"),
    ("cell-1-1", ["cell", "--k", "1", "--n", "1"], 2, "strict"),
    ("boundary-1-1", ["boundary", "--k", "1", "--n", "1"], 2, "strict"),
    ("whitehead-Ibar-k0", ["whitehead", "--of", "nerve", "--category", "Ibar",
                           "--k", "0", "--n", "1"], 2, "strict"),
]
_TINY_DUMPS = {"nerve-Z2", "upsilon-point-point", "cell-1-1"}

# SHA-256 of each dump as written by the seed version of precats (commit
# 5c85d8e); the ROADMAP requires dumps to stay byte-identical until the
# schema is versioned.
DUMP_SHA256 = {
    "nerve-Ibar-n2@W3":
        "340d0dde51659dfe18fa11f93bfdfc5efc3e3da5c24ed2de7c1adde0e88ee370",
    "nerve-Z2@W3":
        "55e36af0f108a64d83529cfbd11988f5d77adcb1c7a98e82a03ecf01aa9516a0",
    "nerve-chain3@W3":
        "f3f0674762eb63e9815d8ef13cc48353fc52ea2ef81299764f85c1df537de188",
    "upsilon-point-point@W3":
        "9fdea480f18fe51002ce327ef96b5752a3b84ddb373299ab397d4593392a2ad6",
    "cell-1-1@W3":
        "faeb19b58fda45a3ad052a60c1a1490b17f79c746e2a77bb339c4c1c5cf20a82",
    "boundary-1-1@W3":
        "dc2aaf4d6a5eee63fe2f32596f6dcec7e9cd5b2d34fef226a595b894b5282e2b",
    "delooping-two_point@W3":
        "f4779643e3f31f5e3df08daebf2a872190c2968d29d39e77781dfa4d901e535c",
    "whitehead-Ibar-k1@W3":
        "d8249548af3ba748f80d92ec0c4e38dc7e426b9aa7a5b0a59eb999c4c5dbb49f",
    "sigma-1-2@W2":
        "9299f4dab84c0cecc105072c79116639b35d6119b17773f445af33c0763d6ccd",
    "suspension-two_point@W2":
        "7c91be91a7991d4600bb12c9d5ddf2f3c65cfe0d7ac9a5c738efdb9ab6153666",
    "nerve-Z2@W2":
        "ef3e4d22ee01604deaf9b82212e940d8d6554b2c6a950040fbb9a862a1aa3037",
    "nerve-chain3@W2":
        "3cbe56216cbd5a0988f6db57199d2184b14b2ec0f29095c364297f3a31e1f37d",
    "upsilon-point-point@W2":
        "20202952a785b0205da26a308749af5589d9157a1f7c3d8ad7f0425d7e3b7903",
    "cell-1-1@W2":
        "427f455a6be63ecc1c914674ca931e7784eba6ca2116d2860a9a6c9ddd06c780",
    "boundary-1-1@W2":
        "222807ec8363af5ea68b3d14ac66f7a00320bf151e8d0de8afc5c4895cbf9a86",
    "whitehead-Ibar-k0@W2":
        "7470ac1ecccf48f57fe6c8845979c61c1c989bf41c3425a2a175d9a265a59a85",
}


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dump_check(seed: int, pass_index: int, tiny: bool, workdir: str) -> Inputs:
    """Per catalog row: build the dump, re-import it with `check segal` at
    the build window and, for window-2 dumps, run `check functorial`."""
    reqs: list[Request] = []
    for name, args, B, segal in DUMP_CATALOG:
        if tiny and name not in _TINY_DUMPS:
            continue
        key = f"{name}@W{B}"
        path = os.path.join(workdir, key + ".json")
        window = ["--window", str(B)]

        def build(args=args, path=path, window=window):
            code = _cli(["build", *args, *window, "--out", path])
            return code, _sha256(path) if code == 0 else None

        reqs.append(Request("build", key, build, (0, DUMP_SHA256.get(key))))
        reqs.append(Request(
            "segal", key,
            lambda path=path, window=window:
                {0: "strict", 1: "not strict"}.get(
                    _cli(["check", "segal", "--in", path, *window]), "error"),
            segal))
        if B == 2:
            reqs.append(Request(
                "functorial", key,
                lambda path=path, window=window:
                    {0: "functorial", 1: "not functorial"}.get(
                        _cli(["check", "functorial", "--in", path, *window]), "error"),
                "functorial"))
    return Inputs(reqs, _digest([(r.group, r.label) for r in reqs]))


WORKLOADS = {
    "verify-w3": verify_w3,
    "refute": refute,
    "dump-check": dump_check,
}
