"""Command-line driver.

Three subcommands:

* ``build``  — construct a named presheaf and write its canonical windowed
  JSON dump (stdout or ``--out``);
* ``check``  — run a verdict (segal / functorial / cofibration / connected)
  on a named build or an imported dump (``--in``, beside which a build option
  the check does not read is a usage error); exit 0 pass, 1 fail.  Functoriality
  is checked through the window's generators: exact on the windows the tests
  certify to be generated by them, resting on that claim on larger ones.
  ``connected`` reads the fixed levels it needs and no ``--window``, and
  reports ``undefined`` (exit 1) only for a stage that is not strict;
* ``verify`` — run the exact-identity suite, one line per identity.

Exit codes: 0 pass, 1 verified failure, 2 usage, input or domain error
(``error: <msg>``), 3 internal error (``internal error: <type>: <msg>``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import analysis as an
from . import constructions as cn
from . import presheaf as ps
from . import suite as suite_mod


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# named builders
# ---------------------------------------------------------------------------

_CATEGORIES = {
    "I": cn.FiniteCategory.interval,
    "Ibar": cn.FiniteCategory.iso_interval,
    "chain2": lambda: cn.FiniteCategory.chain(2),
    "chain3": lambda: cn.FiniteCategory.chain(3),
    "disc1": lambda: cn.FiniteCategory.discrete(1),
    "disc2": lambda: cn.FiniteCategory.discrete(2),
    "disc3": lambda: cn.FiniteCategory.discrete(3),
    "Z2": lambda: cn.FiniteCategory.monoid((0, 1), lambda a, b: (a + b) % 2, 0,
                                           name="Z2"),
}

_BASIC_INPUTS = {
    "point": lambda n: ps.point(n),
    "empty": lambda n: ps.empty(n),
    "two_point": lambda n: ps.discrete(n, (0, 1)),
    "three_point": lambda n: ps.discrete(n, (0, 1, 2)),
}

_CONSTRUCTIONS = ("nerve", "upsilon", "sigma", "cell", "boundary", "suspension",
                  "delooping", "whitehead", "ck", *_BASIC_INPUTS)


def _require(cond, msg):
    if not cond:
        raise UsageError(msg)


def build_precat(args) -> ps.Precat:
    name = args.construction
    params = json.loads(args.params) if args.params else {}
    _require(isinstance(params, dict), "--params must be a JSON object")
    stray = set(params) - ({"legacy"} if name == "upsilon" else set())
    _require(not stray, f"--params keys {sorted(stray)} are not read by {name}")
    _require(type(params.get("legacy", False)) is bool,
             f"--params legacy is {params.get('legacy')!r}, not true or false")
    if name == "nerve":
        _require(args.category in _CATEGORIES,
                 f"unknown category {args.category!r}; known: {sorted(_CATEGORIES)}")
        return cn.nerve(_CATEGORIES[args.category](), args.n if args.n is not None else 1)
    if name in _BASIC_INPUTS:
        return _BASIC_INPUTS[name](args.n if args.n is not None else 0)
    if name == "upsilon":
        _require(bool(args.inputs), "upsilon needs --inputs")
        dim = args.input_n or 0
        ins = []
        for nm in args.inputs:
            _require(nm in _BASIC_INPUTS,
                     f"unknown input {nm!r}; known: {sorted(_BASIC_INPUTS)}")
            ins.append(_BASIC_INPUTS[nm](dim))
        return cn.upsilon(ins, legacy=params.get("legacy", False))
    if name == "sigma":
        _require(args.k is not None and args.n is not None, "sigma needs --k and --n")
        return cn.sigma_free(args.k, args.n).space
    if name == "cell":
        _require(args.k is not None and args.n is not None, "cell needs --k and --n")
        return cn.cell(args.k, args.n).total
    if name == "boundary":
        _require(args.k is not None and args.n is not None, "boundary needs --k and --n")
        return cn.cell(args.k, args.n).boundary
    if name == "suspension":
        return cn.suspension(_pointed(args)).precat
    if name == "delooping":
        return cn.delooping(_pointed(args))
    if name == "whitehead":
        _require(args.k is not None, "whitehead needs --k")
        A = _pointed(args)
        return cn.whitehead(A.space, A.base, args.k)[0]
    if name == "ck":
        _require(args.k is not None, "ck needs --k")
        return cn.ck_monoidal(cn.z2_monoid(), args.k)
    raise UsageError(
        f"unknown construction {name!r}; known: {', '.join(_CONSTRUCTIONS)}")


def _pointed(args) -> cn.PointedPrecat:
    base = args.of or "two_point"
    n = args.n if args.n is not None else 1
    if base == "sigma":
        _require(args.k is not None, "pointed sigma needs --k")
        return cn.sigma_free(args.k, n)
    if base in _BASIC_INPUTS:
        space = _BASIC_INPUTS[base](n)
    elif base == "nerve":
        _require(args.category in _CATEGORIES, "pointed nerve needs --category")
        space = cn.nerve(_CATEGORIES[args.category](), n)
    else:
        raise UsageError(f"unknown pointed input {base!r}")
    objects = sorted(space.cells(ps.zero_object(n)), key=repr)
    _require(objects, f"pointed input {base!r} has no object to mark")
    return cn.PointedPrecat(space, objects[0])


_NAMED_MAPS = {
    "boundary_inclusion": lambda args: cn.cell(args.k, args.n).inclusion,
    "collapse_two": lambda args: ps.point_map(
        ps.point(args.n or 0), "pt", ps.discrete(args.n or 0, (0, 1)), name="2*->*"),
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    P = build_precat(args)
    from .dumps import dump_chunks
    chunks = dump_chunks(P, ps.Window(args.window))     # never the whole text at once
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)
    return 0


_BUILD_OPTIONS = {"construction": "construction name", "category": "--category",
                  "inputs": "--inputs", "input_n": "--input-n", "of": "--of", "n": "--n",
                  "k": "--k", "params": "--params"}


def _load_target(args) -> ps.Precat:
    if args.infile:
        given = [flag for key, flag in _BUILD_OPTIONS.items() if getattr(args, key) is not None
                 and (key, args.kind) != ("k", "connected")]     # connected reads --k
        _require(not given, f"check {args.kind} --in reads no {', '.join(given)}")
        with open(args.infile, encoding="utf-8") as fh:
            return ps.precat_from_dump(fh)      # read a block at a time
    _require(args.construction, "check needs a construction name or --in")
    return build_precat(args)


def cmd_check(args) -> int:
    window = ps.Window(args.window)
    kind = args.kind
    if kind == "cofibration":
        _require(not args.infile, "check cofibration reads no --in")
        _require(args.map in _NAMED_MAPS,
                 f"cofibration needs --map from {sorted(_NAMED_MAPS)}")
        _require(args.map != "boundary_inclusion" or None not in (args.k, args.n),
                 "boundary_inclusion needs --k and --n")
        u = _NAMED_MAPS[args.map](args)
        verdict = ps.is_cofibration(u, window)
        print(f"cofibration: {'pass' if verdict else 'fail'} ({args.map})")
        return 0 if verdict else 1
    P = _load_target(args)
    if kind == "segal":
        report = an.segal_check(P, window)
        for e in report.failures():
            print(f"segal fail at {e.level.entries} direction {e.direction}: "
                  f"{e.source_size} cells vs {e.target_size} compatible tuples")
        print(f"segal: {'pass' if report.strict else 'fail'} "
              f"({len(report.entries)} maps on window B={window.B})")
        return 0 if report.strict else 1
    if kind == "functorial":
        violations = ps.check_functoriality(P, window)
        for v in violations[:10]:
            print("violation:", v)
        print(f"functorial: {'fail' if violations else 'pass'} (depth "
              f"{violations.depth} of n={P.n} on window B={window.B})")
        return 1 if violations else 0
    if kind == "connected":
        _require(args.k is not None, "connected needs --k")
        try:
            verdict = an.is_k_connected(P, args.k)
        except an.TruncationUndefinedError as exc:
            print(f"connected: undefined ({exc})")
            return 1
        print(f"connected (k={args.k}): {'pass' if verdict else 'fail'}")
        return 0 if verdict else 1
    raise UsageError(f"unknown check kind {kind!r}")


def cmd_verify(args) -> int:
    _require(args.only is None or args.only in suite_mod.IDENTITIES,
             f"unknown identity {args.only!r}; known: "
             f"{', '.join(sorted(suite_mod.IDENTITIES))}")
    result = suite_mod.run_suite(args.window, only=args.only)
    if args.json:
        print(json.dumps(result.to_dict(), sort_keys=True))
    else:
        for e in result.entries:
            mark = "PASS" if e.passed else "FAIL"
            print(f"{mark} {e.name} (window={e.window}, {e.seconds:.2f}s): {e.detail}")
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache    # built once a process: main may run many times in one
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precats", description="exact finite presheaf constructions and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_build_args(p):
        p.add_argument("construction", nargs="?",
                       help=f"construction name ({', '.join(_CONSTRUCTIONS)})")
        p.add_argument("--category", help="finite category name for nerves")
        p.add_argument("--inputs", nargs="*", help="morphism objects for upsilon")
        p.add_argument("--input-n", type=int,
                       help="dimension of the upsilon inputs (default 0)")
        p.add_argument("--of", help="pointed input for suspension/delooping/whitehead")
        p.add_argument("--k", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--params", help="extra JSON parameters")
        p.add_argument("--window", type=int, default=3)

    b = sub.add_parser("build", help="build and dump a construction")
    add_build_args(b)
    b.add_argument("--out", help="output path (default stdout)")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="run a verdict on a build or a dump")
    c.add_argument("kind", choices=("segal", "functorial", "cofibration", "connected"),
                   help="the verdict to run; connected reads no --window")
    add_build_args(c)
    c.add_argument("--in", dest="infile", help="canonical dump to import")
    c.add_argument("--map", help="named map for cofibration checks")
    c.set_defaults(func=cmd_check)

    v = sub.add_parser("verify", help="run the exact-identity suite")
    v.add_argument("--window", type=int, default=2)
    v.add_argument("--only", help="run a single named identity")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of precats itself, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
