"""One pass of a workload in a fresh interpreter (started by run.py).

A pass imports precats, builds the workload's inputs and expected answers,
then sends the requests one after another (one client, closed loop) and
checks every verdict.  It prints one JSON object on its last stdout line.
Set-up is timed from ``--spawned``, the parent's ``time.monotonic()``
just before it started this interpreter, to the first request.

Calibrated times.  On a shared machine the speed of one core swings by up
to 3x, from one second to the next and over minutes, as its neighbours'
load changes, so raw wall times of identical passes differ by as much.
Every time is therefore also reported calibrated.  A fixed pure-Python
kernel (no precats code: tuple hashing, repr, dict updates) runs between
requests and, from a timer signal, every INTERVAL_S seconds while they run.
A request's raw time, less the kernel runs inside it, is scaled by
CAL_REF_S over the median of the kernel times next to it and inside it.
A calibrated second is a second on a machine where the kernel takes
CAL_REF_S, about its time on an unloaded core of the 2-vCPU Xeon VM the
benchmark was tuned on.  Raw times are kept next to the calibrated ones.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

CAL_REF_S = 0.0006
INTERVAL_S = 0.1


_KEYS = [(i % 97, (i * 7) % 101, "x%d" % (i % 13)) for i in range(1000)]
_TABLE = dict.fromkeys(_KEYS, 0)


def calibrate() -> float:
    """Seconds taken by the calibration kernel.  It allocates no container
    objects, so running it does not move the cyclic collector's schedule."""
    t0 = time.perf_counter()
    for i in range(len(_KEYS)):
        key = _KEYS[i]
        _TABLE[key] += len(repr(key))
    return time.perf_counter() - t0


class Speedometer:
    """Kernel times around and inside requests.  ``between()`` runs the
    kernel between two requests; while the meter is entered, a SIGALRM
    handler also runs it every INTERVAL_S seconds, so that a long request
    is calibrated by the speed it actually ran at."""

    def __init__(self):
        self.at: list[float] = []       # when each timed kernel run started
        self.took: list[float] = []
        self.spent = 0.0                # seconds spent in timed kernel runs

    def between(self) -> float:
        return (calibrate() + calibrate() + calibrate() + calibrate()) / 4

    def _tick(self, *_signal):
        t0 = time.perf_counter()
        self.took.append(calibrate())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_time(self, before: float, after: float, t0: float, t1: float) -> float:
        """Median of the kernel times just before and after a request that
        ran from t0 to t1 and of the timed runs inside it."""
        inside = self.took[bisect.bisect_left(self.at, t0):bisect.bisect_right(self.at, t1)]
        return statistics.median([before, after, *inside])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import precats  # noqa: F401  (the import is part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    here = os.path.dirname(os.path.abspath(__file__))
    workdir = os.path.join(here, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = workloads.WORKLOADS[args.workload](
            args.seed, args.pass_index, args.tiny, workdir)
        first = time.monotonic()
        setup_raw = first - args.spawned
        out = {"setup_raw_s": setup_raw, "digest": inputs.digest,
               "setup_s": setup_raw * CAL_REF_S
               / statistics.median([calibrate() for _ in range(15)])}
        if not args.setup_only:
            out.update(run_requests(inputs.requests, tracer, first))
            out["dump_bytes"] = sum(
                os.path.getsize(os.path.join(workdir, f)) for f in os.listdir(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def run_requests(requests, tracer, first: float) -> dict:
    if tracer is not None:
        tracer.reset()
    spans, failures = [], []
    meter = Speedometer()
    cals = [meter.between()]        # cals[i] ran just before request i
    with meter:
        for req in requests:
            error = None
            spent = meter.spent
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.request(f"{req.group}:{req.label}"):
                        got = req.run()
                else:
                    got = req.run()
            except Exception as exc:  # a crash counts as a wrong verdict
                got, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            spans.append((t0, t1, t1 - t0 - (meter.spent - spent)))
            cals.append(meter.between())
            if error is not None or got != req.expected:
                failures.append({"group": req.group, "label": req.label,
                                 "expected": repr(req.expected),
                                 "got": error or repr(got)})
    latencies = [[req.group,
                  raw * CAL_REF_S / meter.kernel_time(cals[i], cals[i + 1], t0, t1), raw]
                 for i, (req, (t0, t1, raw)) in enumerate(zip(requests, spans))]
    out = {"run_s": sum(t for _, t, _ in latencies),
           "run_raw_s": time.monotonic() - first,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "latencies": latencies, "failures": failures}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    sys.exit(main())
