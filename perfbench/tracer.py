"""Per-layer tracing from outside the program.

The tracer wraps the public functions of the precats layers, in every
module namespace that bound them by name, and the eval/act callables handed
to ``Precat(...)``.  Every wrapped call adds to a call counter and to the
function's self time (its duration minus that of wrapped calls nested in
it, kept on a per-thread stack).  Hot functions are only counted; the
coarser ones also record a span ``(id, parent, request, name, start, end)``,
and each request opens a span that its child spans share as ``request``.
Everything stays in memory until the pass ends.  Self times are raw wall
seconds of the traced pass, tracing overhead included: compare them only
between traced runs.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
from time import perf_counter

# (module, attribute, metric prefix, records spans)
FUNCTIONS = [
    ("theta", "compose", "theta.compose", False),
    ("theta", "normalize_morphism", "theta.normalize_morphism", False),
    ("theta", "tail_morphism", "theta.tail_morphism", False),
    ("theta", "prepend_prefix", "theta.prepend_prefix", False),
    ("theta", "enumerate_morphisms", "theta.enumerate_morphisms", False),
    ("presheaf", "cell_label", "presheaf.cell_label", False),
    ("presheaf", "iso_windowed", "presheaf.iso_windowed", True),
    ("presheaf", "check_functoriality", "presheaf.check_functoriality", True),
    ("presheaf", "dump_json", "presheaf.dump_json", True),
    ("presheaf", "precat_from_dump", "presheaf.precat_from_dump", True),
    ("analysis", "segal_check", "analysis.segal_check", True),
    ("cli", "main", "cli.main", True),
]
# (class, method, metric prefix): hot, counted only
METHODS = [
    ("PushoutData", "class_of", "presheaf.class_of"),
    ("PrecatMap", "apply", "presheaf.apply"),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, self seconds]
        self.spans: list[tuple] = []
        self.counters = {"presheaf.levels_evaluated": 0,
                         "presheaf.cells_materialized": 0,
                         "presheaf.dump_json.bytes": 0}
        self._act_keys: set[int] = set()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._precat_ids = itertools.count(1)
        self._request = 0
        self._enumerate = None
        self._cache_base = (0, 0)

    # -- bookkeeping ------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack, self._local.parents = [0.0], [0]
            return self._local.stack

    def reset(self):
        """Forget everything recorded so far (inputs are built by then)."""
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.spans.clear()
        self._act_keys.clear()
        for name in self.counters:
            self.counters[name] = 0
        if self._enumerate is not None:
            info = self._enumerate.cache_info()
            self._cache_base = (info.hits, info.misses)

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def timed(self, fn, name: str, span: bool = False):
        stat = self._stat(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            if span:
                sid = next(tracer._ids)
                parents = tracer._local.parents
                parent = parents[-1]
                parents.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt
                if span:
                    parents.pop()
                    tracer.spans.append((sid, parent, tracer._request, name, t0, t1))

        return wrapper

    @contextlib.contextmanager
    def request(self, label: str):
        """A request span; spans opened inside it share its id."""
        self._stack()
        sid = next(self._ids)
        parents = self._local.parents
        self._request = sid
        parents.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            parents.pop()
            self.spans.append((sid, 0, sid, "request:" + label, t0, perf_counter()))
            self._request = 0

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the layers' public functions in place.  Call after
        ``import precats`` and before any input is built."""
        mods = {name: importlib.import_module(f"precats.{name}")
                for name in ("theta", "presheaf", "constructions", "analysis",
                             "suite", "cli")}
        for modname, attr, metric, span in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            if metric == "theta.enumerate_morphisms":
                self._enumerate = orig
            wrapped = self.timed(orig, metric, span)
            if metric == "presheaf.dump_json":
                wrapped = self._counting_bytes(wrapped)
            self._rebind(orig, wrapped)
        ps = mods["presheaf"]
        for cls, attr, metric in METHODS:
            klass = getattr(ps, cls)
            setattr(klass, attr, self.timed(getattr(klass, attr), metric))
        self._wrap_precat(ps.Precat)

    @staticmethod
    def _rebind(orig, wrapped):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "precats" or name.startswith("precats.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def _counting_bytes(self, dump_json):
        counters = self.counters

        def wrapper(*args, **kwargs):
            text = dump_json(*args, **kwargs)
            counters["presheaf.dump_json.bytes"] += len(text.encode())
            return text

        return wrapper

    def _wrap_precat(self, Precat):
        tracer = self
        init, act, cells = Precat.__init__, Precat.act, Precat.cells

        def billed_to(fn, kind):
            module = getattr(fn, "__module__", None) or "unknown"
            return f"{module.rsplit('.', 1)[-1]}.{kind}"

        counters = self.counters

        def traced_init(self, n, eval_fn, act_fn, *args, **kwargs):
            # Precat memoizes levels, so eval_fn runs once per level.  A level
            # may come back as a generator; drain it inside the span so that
            # its work is billed to the module that wrote it.
            def materialized(M, *rest):
                level = tuple(eval_fn(M, *rest))
                counters["presheaf.levels_evaluated"] += 1
                counters["presheaf.cells_materialized"] += len(level)
                return level

            init(self, n, tracer.timed(materialized, billed_to(eval_fn, "eval_fn")),
                 tracer.timed(act_fn, billed_to(act_fn, "act_fn")), *args, **kwargs)
            self._trace_id = next(tracer._precat_ids)

        keys = self._act_keys

        def counted_act(self, f, cell, *rest):
            keys.add(hash((getattr(self, "_trace_id", 0), f, cell)))
            return act(self, f, cell, *rest)

        Precat.__init__ = traced_init
        Precat.act = self.timed(counted_act, "presheaf.act")
        Precat.cells = self.timed(cells, "presheaf.cells")

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        act_calls = self.stats.get("presheaf.act", [0])[0]
        out["presheaf.act.hit_ratio"] = (
            1 - len(self._act_keys) / act_calls if act_calls else 0.0)
        hits = misses = 0
        if self._enumerate is not None:
            info = self._enumerate.cache_info()
            hits = info.hits - self._cache_base[0]
            misses = info.misses - self._cache_base[1]
        out["theta.enumerate_morphisms.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        return out
