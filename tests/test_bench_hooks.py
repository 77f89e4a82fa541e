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
