"""One fresh interpreter of a benchmark run: set up, then optionally measure.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --seconds S

MODE is one of

* ``setup``: set up and exit;
* ``loop``: closed loop, untraced, for S seconds;
* ``traced``: pass 0 four times: a warm-up pass, then untraced, traced,
  untraced.

The loop has one caller: each operation starts when the previous one has
finished.  It runs passes 0, 1, 2, ... (each on fresh inputs), always
finishes the first, and then stops before the first operation that would
likely end after S seconds; statistics use complete passes only.  The
worker prints one JSON object on the last line of its standard output.

Set-up time is the time from the first statement of this file to the end
of the imports, plus the timed calls of the warm-up operations.  Drawing
their inputs and checking their results are not part of it.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURE_NOTES = 5


def blas_threads():
    """Threads of each OpenBLAS bundled with numpy and scipy, by library.

    Opening an already loaded library returns the loaded instance, so the
    counts are the ones in effect in this process.
    """
    import ctypes
    import scipy
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out


def environment():
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "QPROXIM_THREADS": os.environ.get("QPROXIM_THREADS"),
    }


class Loop:
    """Runs operations, times the calls and counts failed checks."""

    def __init__(self, rec=None):
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def execute(self, op):
        self.attempted += 1
        run, reference = op.run, op.reference
        if self.rec is not None:
            run = self.rec.wrap(run, "benchmark.op")
            if reference is not None:
                reference = self.rec.wrap(reference, "benchmark.reference")
        t0 = perf_counter()
        try:
            result = run()
        except Exception as exc:   # a crash is a failed operation, not a failed run
            dt = perf_counter() - t0
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return dt
        dt = perf_counter() - t0
        try:
            ref = reference(result) if reference is not None else None
            if self.rec is not None:
                self.rec.enabled = False
            msg = op.check(result, ref)
        except Exception as exc:
            msg = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if self.rec is not None:
                self.rec.enabled = True
        if msg is not None:
            self._fail(op, msg)
        return dt

    def _fail(self, op, msg):
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{op.kind}: {msg}")

    def run_pass(self, ops):
        """Time of one whole pass, with its (kind, latency) pairs."""
        lat = [(op.kind, self.execute(op)) for op in ops]
        return sum(dt for _, dt in lat), lat

    def measure(self, make_pass, first, seconds):
        """Pass times and (kind, latency) pairs of the complete passes.

        After the first pass, an operation starts only if the last one of its
        kind would still have ended before the deadline.
        """
        deadline = perf_counter() + seconds
        passes, latencies, last = [], [], {}
        ops = first
        while True:
            lat = []
            for op in ops:
                if passes and perf_counter() + last[op.kind] > deadline:
                    return passes, latencies
                dt = self.execute(op)
                last[op.kind] = dt
                lat.append((op.kind, dt))
            passes.append(sum(dt for _, dt in lat))
            latencies.extend(lat)
            if perf_counter() >= deadline:
                return passes, latencies
            ops = make_pass(len(passes))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "loop", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    import_s = perf_counter() - START
    warm = Loop()
    setup_s = import_s + sum(warm.execute(op)
                             for op in workloads.primer(args.workload, args.seed))
    out = {"setup_s": setup_s, "attempted": warm.attempted, "failed": warm.failed,
           "notes": list(warm.notes)}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    make_pass = workloads.passes(args.workload, args.seed)
    first = make_pass(0)
    loop = Loop()
    if args.mode == "loop":
        passes, latencies = loop.measure(make_pass, first, args.seconds)
        out.update(passes=passes, latencies=latencies)
    else:
        # a discarded pass finishes warming up (some paths are slow only on their
        # first call); then untraced, traced, untraced, so that the mean of the
        # untraced passes cancels a steady drift of machine speed
        rec = tracer.Recorder()
        traced_loop = Loop(rec)
        loop.run_pass(first)
        before, _ = loop.run_pass(first)
        with tracer.instrument(rec) as absent, rec.active():
            traced, latencies = traced_loop.run_pass(first)
        after, _ = loop.run_pass(first)
        layers, ranking = tracer.layer_metrics(rec)
        loop.attempted += traced_loop.attempted
        loop.failed += traced_loop.failed
        loop.notes += traced_loop.notes
        out.update(layers=layers, ranking=ranking, absent=absent, spans=len(rec.spans),
                   traced_pass_s=traced, untraced_pass_s=[before, after],
                   latencies=latencies)
    out.update(attempted=out["attempted"] + loop.attempted,
               failed=out["failed"] + loop.failed,
               notes=out["notes"] + loop.notes,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               env=environment())
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(1)
