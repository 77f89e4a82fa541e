"""The precats benchmark: one command per workload run.

    python3 perfbench/run.py --workload verify-w3 --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and the "why" of each in BENCHMARK.json):

* ``verify-w3``  the 101 identity instances that ``run_suite(3)`` checks;
* ``refute``     seeded windowed isomorphism questions between nerves of
                 random posets, half positive and half negative;
* ``dump-check`` build / re-import / check round trips through
                 ``precats.cli.main``, every dump hashed.

Each pass runs in a fresh interpreter (worker.py), so it pays theta's
process-global caches as a CLI user does.  One client sends requests in a
closed loop.  With ``--trace 0`` the run repeats passes until it has
measured ``--seconds`` seconds and at least 100 requests, so that ten
latencies lie beyond the 90th percentile.  It reports the end-to-end
metrics: the median set-up time (interpreter start to first request) over
at least five fresh interpreters, the medians over passes of time to
solution (the sum of the pass's request latencies) and of peak RSS, and the
median and 90th-percentile request latency over all requests.  Times are calibrated against the
machine's current speed (see worker.py); raw medians are printed too.
With ``--trace 1`` it runs one plain and one traced pass of the same
inputs and reports the per-layer metrics and the tracing overhead.

Every verdict is checked against an independently known answer; a wrong
verdict, an exception or a dump-hash mismatch counts as a failure and makes
the command exit 1.  The last stdout line is the JSON result; the full
record (machine block, passes, spans) goes to perfbench/results/.

Only refute depends on ``--seed``.  Seed ``HELD_OUT_SEED`` is kept out of
tuning: a claimed gain must also hold on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HELD_OUT_SEED = 1009
WORKLOADS = ("verify-w3", "refute", "dump-check")
MIN_REQUESTS = 100
SETUP_SAMPLES = 5
# No pass starts after this many seconds, and every worker is killed by
# DEADLINE_S: a run must end within 180 s.
START_LIMIT_S = 120
DEADLINE_S = 170
SUITE_ENTRIES = ("casezero", "corner_split", "cylinder", "delooping", "square",
                 "square_legacy", "suspension_tower", "wedge", "whitehead")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class BenchError(Exception):
    pass


def machine_block() -> dict:
    try:
        with open("/proc/loadavg") as fh:
            load = fh.read().split()[:3]
    except OSError:
        load = [f"{x:.2f}" for x in os.getloadavg()]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg": " ".join(load)}


def spawn(args, pass_index: int, started: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one worker pass to completion and return its JSON record."""
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before the pass could start")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(pass_index)]
    cmd += ["--tiny"] * args.tiny + ["--trace"] * trace + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_index} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"pass {pass_index} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(args, started: float) -> tuple[list, dict]:
    """End-to-end run: whole passes until enough time and requests."""
    passes, setups = [], []
    min_requests = 1 if args.tiny else MIN_REQUESTS
    while True:
        # Set-up probes are spread over the run, one before each pass, so
        # that their median does not hang on one moment's machine load.
        setups.append(spawn(args, len(passes), started, setup_only=True)["setup_s"])
        passes.append(spawn(args, len(passes), started))
        elapsed = time.monotonic() - started
        requests = sum(len(p["latencies"]) for p in passes)
        if elapsed >= args.seconds and requests >= min_requests:
            break
        if elapsed + elapsed / len(passes) > START_LIMIT_S:
            break
    setups += [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, 0, started, setup_only=True)["setup_s"])
    latencies = [t for p in passes for _, t, _ in p["latencies"]]
    values = {
        "raw setup_s": statistics.median(p["setup_raw_s"] for p in passes),
        "raw run_s": statistics.median(p["run_raw_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "verdict_p50_s": statistics.median(latencies),
        "verdict_p90_s": (statistics.quantiles(latencies, n=10)[8]
                          if len(latencies) > 1 else latencies[0]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, values


def trace(args, started: float) -> tuple[list, dict]:
    """Traced run: one plain and one traced pass over the same inputs."""
    plain = spawn(args, 0, started)
    traced = spawn(args, 0, started, trace=True)
    values = dict(traced["layers"])
    for entry in SUITE_ENTRIES:
        values[f"suite.{entry}.s"] = sum(
            t for group, t, _ in plain["latencies"] if group == entry)
    values["trace.run_s"] = traced["run_s"]
    values["trace.plain_run_s"] = plain["run_s"]
    values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    return [plain, traced], values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the harness self-test only")
    args = ap.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "precats", "__init__.py")):
        print(f"error: no precats sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    machine = machine_block()
    try:
        passes, values = (trace if args.trace else measure)(args, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    dump_bytes = passes[0]["dump_bytes"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"platform={machine['platform']} loadavg={machine['loadavg']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es), {attempted} requests, "
          f"inputs_sha256 {passes[0]['digest']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_ratio':<40} {len(failures) / attempted:>14.6g} "
          f"({len(failures)}/{attempted})")
    if args.workload == "dump-check":
        print(f"  {'dump_bytes':<40} {dump_bytes:>14d} B per pass")
    if args.trace:
        print(f"  tracing overhead: {values['trace.overhead_s']:.3f} s "
              f"(traced run_s minus plain run_s)")
    else:
        print(f"  uncalibrated medians: setup_s {values['raw setup_s']:.4f} s, "
              f"run_s {values['raw run_s']:.4f} s (first request to last verdict)")
    for f in failures[:20]:
        print(f"  FAILED {f['group']} {f['label']}: expected {f['expected']}, "
              f"got {f['got']}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    record = os.path.join(HERE, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"machine": machine, "args": vars(args), "metrics": metrics,
                   "error_ratio": len(failures) / attempted, "dump_bytes": dump_bytes,
                   "passes": passes}, fh)

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
