"""The benchmark's tracer wraps precats by name: every hook it installs must
still resolve, or a traced benchmark run loses its per-layer figures."""

import importlib
import importlib.util
import pathlib

from precats import theta
from precats.presheaf import Precat

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    tracer = _tracer()
    for modname, attr, _, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"precats.{modname}"),
                                attr)), (modname, attr)
    presheaf = importlib.import_module("precats.presheaf")
    for cls, attr, _ in tracer.METHODS:
        assert callable(getattr(getattr(presheaf, cls), attr)), (cls, attr)


def test_tracer_reads_the_morphism_cache_and_wraps_precat_init():
    assert callable(theta.enumerate_morphisms.cache_info)
    P = Precat(1, lambda M: ("c",), lambda f, c: c, name="hooked")
    assert P.name == "hooked"


def test_check_in_reads_its_dump_through_the_hooked_reader(tmp_path, capsys):
    """``check segal --in`` imports its dump by exactly one call of
    ``presheaf.precat_from_dump``, rebound as the tracer rebinds its hooks,
    so a traced ``dump-check`` run bills each import to that name."""
    from precats import cli, presheaf

    dump = tmp_path / "z2.json"
    assert cli.main(["build", "nerve", "--category", "Z2", "--window", "2",
                     "--out", str(dump)]) == 0
    calls, real = [], presheaf.precat_from_dump

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    rebind = _tracer().Tracer._rebind
    rebind(real, counted)
    try:
        assert cli.main(["check", "segal", "--in", str(dump), "--window", "2"]) == 0
    finally:
        rebind(counted, real)
    assert len(calls) == 1 and presheaf.precat_from_dump is real
    assert capsys.readouterr().out.startswith("segal: pass")
