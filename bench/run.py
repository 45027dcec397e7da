"""linbilliards benchmark: one workload per process, checked and timed.

    python3 bench/run.py --workload realize --seed 0 --seconds 16 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The lines before it record the machine, the library
versions, the thread settings, the seed and each round's content.  A copy of
the record, and the spans of a traced run, go to ``.bench_out/``.

The library is imported from ``src/`` of the checkout; without it the run
exits with status 2 and prints no result.  See NOTES.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# single-threaded BLAS/OpenMP baseline; must be set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 0
# kept out of development runs; a claimed gain must also hold at this seed
HELDOUT_SEED = 1729

SETUP_REPEATS = 3
IMPORT_REPEATS = 3

median = statistics.median


def set_up(wl, seed, rounds, workdir):
    """Time the set-up a CLI user pays on every run: the median import of
    ``linbilliards.cli`` in a fresh interpreter plus the median in-process
    set-up (arrangement building, input generation).  Returns (set-up time
    at reference speed, as measured, the state of the last set-up)."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.sample()
    # perf_counter is the system-wide monotonic clock, so the child's
    # interval can be rescaled with the parent's reference samples
    code = ("import time; t = time.perf_counter(); import linbilliards.cli; "
            "print(repr(t), repr(time.perf_counter()))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        host.sample()
        imports.append(tuple(map(float, done.stdout.split()[-2:])))
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed, rounds, workdir)
        builds.append((t0, time.perf_counter()))
        host.sample()

    def total(rescale):
        return (median(host.scaled(*span, rescale) for span in imports)
                + median(host.scaled(*span, rescale) for span in builds))

    return total(True), total(False), state


def run_pass(wl, state, rounds) -> dict:
    """Run every round once; time each round and each item, then gate it.

    Times are rescaled to the reference machine's speed (see hostspeed.py);
    the record keeps the raw medians next to them.
    """
    from hostspeed import HostSpeed
    from tracing import ItemTimer
    from workloads import outcome_mix

    host = HostSpeed()
    timer = ItemTimer(*wl.timer_target(), after=host.tick)
    spans, counts, rejects, contents = [], [], [], []
    lost_total = 0
    host.sample()
    with timer.active():
        for r in range(rounds):
            first = len(timer.items)
            t0 = time.perf_counter()
            output = wl.run_round(state, r)
            t1 = time.perf_counter()
            host.sample()
            lost, rejected, content = wl.check(state, r, output)
            n = len(timer.items) - first + lost
            spans.append((t0, t1))
            counts.append(n)
            rejects += rejected
            lost_total += lost
            content.update(items=n, outcomes=outcome_mix(timer.items[first:]),
                           round_s=host.scaled(t0, t1),
                           raw_round_s=host.scaled(t0, t1, rescale=False),
                           rejected=rejected)
            contents.append(content)
    items = timer.items

    def summary(rescale):
        round_s = [host.scaled(t0, t1, rescale) for t0, t1 in spans]
        return {
            "wall_s": median(round_s),
            "items_per_s": median(n / t for n, t in zip(counts, round_s)),
            "item_p50_ms": 1e3 * median(host.scaled(t0, t1, rescale) for t0, t1, _ in items),
        }

    errors = sum(1 for *_, o in items if o.startswith("error"))
    return {
        **summary(rescale=True),
        "raw": summary(rescale=False),
        "reference_ms": {"median": median(host.ms), "min": min(host.ms),
                         "max": max(host.ms), "samples": len(host.ms)},
        "attempted": len(items) + lost_total,
        "failed": errors + lost_total + len(rejects),
        "correct": not rejects,
        "outcomes": outcome_mix(items),
        "rounds": contents,
    }


def environment(args, rounds) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds,
        "machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    if not (SRC / "linbilliards" / "__init__.py").is_file():
        print(f"bench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostspeed import NOMINAL_MS
    from tracing import Tracer
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed; {HELDOUT_SEED} is held out for checking claims")
    p.add_argument("--seconds", type=int, default=16,
                   help="measurement length; sets the number of rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    wl = WORKLOADS[args.workload]
    rounds = max(1, math.floor(args.seconds / wl.round_s))
    env = environment(args, rounds)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s, raw_setup_s, state = set_up(wl, args.seed, rounds, workdir)
        plain = run_pass(wl, state, rounds)
        traced = tracer = None
        if args.trace:
            tracer = Tracer()
            with tracer.active():
                state = wl.setup(args.seed, rounds, workdir)
                traced = run_pass(wl, state, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    final = traced or plain
    host = {"nominal_ms": NOMINAL_MS, "reference_ms": plain["reference_ms"],
            "raw": dict(plain["raw"], setup_s=raw_setup_s)}
    print("host " + json.dumps(host, sort_keys=True))
    for r, content in enumerate(final["rounds"]):
        print(f"round {r} " + json.dumps(content, sort_keys=True))
    print("content " + json.dumps({"item": wl.item, "items": final["attempted"],
                                   "outcomes": final["outcomes"]}, sort_keys=True))

    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        metrics["run.failed_frac"] = (traced["failed"] / traced["attempted"], "ratio")
        tracer.write(OUT / f"{wl.name}-seed{args.seed}.spans.csv")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (plain["wall_s"], "s"),
            "items_per_s": (plain["items_per_s"], "1/s"),
            "item_p50_ms": (plain["item_p50_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": plain["correct"] and (traced is None or traced["correct"]),
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "host": host, "rounds": final["rounds"], "result": result}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
