"""Command-line driver.

Three subcommands:

* ``build``  — construct a named presheaf and write its canonical windowed
  JSON dump (stdout or ``--out``);
* ``check``  — run a verdict (segal / functorial / cofibration / connected)
  on a named build or an imported dump; exit 0 pass, 1 fail;
* ``verify`` — run the exact-identity suite, one line per identity.

Exit codes: 0 pass, 1 verified failure, 2 usage, input or domain error
(``error: <msg>``), 3 internal error (``internal error: <type>: <msg>``).
"""

from __future__ import annotations

import argparse
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


def _require(cond, msg):
    if not cond:
        raise UsageError(msg)


def build_precat(args) -> ps.Precat:
    name = args.construction
    params = json.loads(args.params) if args.params else {}
    if name == "nerve":
        _require(args.category in _CATEGORIES,
                 f"unknown category {args.category!r}; known: {sorted(_CATEGORIES)}")
        return cn.nerve(_CATEGORIES[args.category](), max(args.n or 1, 1))
    if name in _BASIC_INPUTS:
        return _BASIC_INPUTS[name](args.n if args.n is not None else 0)
    if name == "upsilon":
        _require(bool(args.inputs), "upsilon needs --inputs")
        dim = args.input_n
        ins = []
        for nm in args.inputs:
            _require(nm in _BASIC_INPUTS,
                     f"unknown input {nm!r}; known: {sorted(_BASIC_INPUTS)}")
            ins.append(_BASIC_INPUTS[nm](dim))
        return cn.upsilon(ins, legacy=bool(params.get("legacy")))
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
    raise UsageError(f"unknown construction {name!r}")


def _pointed(args) -> cn.PointedPrecat:
    base = args.of or "two_point"
    n = args.n if args.n is not None else 1
    if base in _BASIC_INPUTS:
        space = _BASIC_INPUTS[base](n)
        cell0 = sorted(space.cells(ps.zero_object(n)), key=repr)[0]
        return cn.PointedPrecat(space, cell0)
    if base == "nerve":
        _require(args.category in _CATEGORIES, "pointed nerve needs --category")
        space = cn.nerve(_CATEGORIES[args.category](), n)
        cell0 = sorted(space.cells(ps.zero_object(n)), key=repr)[0]
        return cn.PointedPrecat(space, cell0)
    if base == "sigma":
        _require(args.k is not None, "pointed sigma needs --k")
        return cn.sigma_free(args.k, n)
    raise UsageError(f"unknown pointed input {base!r}")


_NAMED_MAPS = {
    "boundary_inclusion": lambda args: cn.cell(args.k, args.n).inclusion,
    "collapse_two": lambda args: ps.PrecatMap(
        ps.discrete(args.n or 0, (0, 1)), ps.point(args.n or 0),
        lambda M, c: "pt", name="2*->*"),
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    P = build_precat(args)
    text = ps.dump_json(P, ps.Window(args.window))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_target(args) -> ps.Precat:
    if args.infile:
        with open(args.infile) as fh:
            return ps.precat_from_dump(json.load(fh))
    _require(args.construction, "check needs a construction name or --in")
    return build_precat(args)


def cmd_check(args) -> int:
    window = ps.Window(args.window)
    kind = args.kind
    if kind == "cofibration":
        _require(args.map in _NAMED_MAPS,
                 f"cofibration needs --map from {sorted(_NAMED_MAPS)}")
        _require(args.k is not None and args.n is not None,
                 "cofibration maps need --k and --n")
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
        report = ps.check_functoriality(P, window)
        for v in report.violations[:10]:
            print("violation:", v)
        print(f"functorial: {'pass' if report.ok else 'fail'}")
        return 0 if report.ok else 1
    if kind == "connected":
        _require(args.k is not None, "connected needs --k")
        try:
            verdict = an.is_k_connected(P, args.k, window)
        except an.AnalysisError as exc:
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

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precats", description="exact finite presheaf constructions and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_build_args(p):
        p.add_argument("construction", nargs="?",
                       help="construction name (nerve, upsilon, sigma, cell, "
                            "boundary, suspension, delooping, whitehead, ck, "
                            "point, empty, two_point, three_point)")
        p.add_argument("--category", help="finite category name for nerves")
        p.add_argument("--inputs", nargs="*", help="morphism objects for upsilon")
        p.add_argument("--input-n", type=int, default=0,
                       help="dimension of the upsilon inputs")
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
    c.add_argument("kind", choices=("segal", "functorial", "cofibration", "connected"))
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
