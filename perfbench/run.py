"""qproxim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every measurement happens in a fresh
interpreter (``worker.py``), so no module-level state of qproxim, such as its
tunnel registry or per-algebra caches, carries over from one measurement to
the next.  BLAS runs single-threaded.

--trace 0 prints the end-to-end metrics: ``setup_s`` is the median set-up
time of SETUP_SAMPLES fresh interpreters; ``wall_s`` (median pass time),
``op_p50_s`` (median operation latency) and ``peak_rss_mb`` come from one
untraced closed loop of S seconds.

--trace 1 runs pass 0 four times in one interpreter: a warm-up pass, then
untraced, traced and untraced again.  It prints the per-layer metrics of the traced pass plus
``trace.overhead_s``, the traced pass time minus the mean untraced one.

The line before the result holds the details: environment, verdicts,
tail latency, per-operation-kind medians and the top layers by self time.
The script exits 1 without a result when a worker cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
SETUP_TIMEOUT_S = 30
MEASURE_SLACK_S = 60
TRACED_TIMEOUT_S = 160

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def worker(workload, seed, mode, seconds=0.0):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", QPROXIM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    timeout = {"setup": SETUP_TIMEOUT_S, "loop": seconds + MEASURE_SLACK_S,
               "traced": TRACED_TIMEOUT_S}[mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{mode} worker printed no result:\n{proc.stderr}") from exc


def tail(latencies):
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)            # nearest rank, 1-based
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": p, "value_s": xs[int(rank) - 1],
                    "samples": n, "beyond": n - int(rank)}
    return {"percentile": None, "samples": n, "omitted": "too few samples"}


def by_kind(latencies):
    kinds = {}
    for kind, dt in latencies:
        kinds.setdefault(kind, []).append(dt)
    return {k: {"p50_s": statistics.median(v), "count": len(v)} for k, v in kinds.items()}


def git_commit():
    try:
        # the ceiling keeps git from finding a repository above the checkout
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run(args):
    if not (ROOT / "src" / "qproxim" / "__init__.py").is_file():
        raise BenchError(f"no qproxim sources under {ROOT / 'src'}")
    detail = {"workload": args.workload, "seed": args.seed, "commit": git_commit()}
    if args.trace:
        traced = worker(args.workload, args.seed, "traced")
        runs = [traced]
        metrics = {k: {"value": v, "unit": tracer.unit(k)}
                   for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["traced_pass_s"] - statistics.mean(traced["untraced_pass_s"]),
            "unit": "s"}
        detail.update(top_self_time=traced["ranking"][:3], ranking=traced["ranking"],
                      absent=traced["absent"], spans=traced["spans"], traced_pass_s=traced["traced_pass_s"],
                      untraced_pass_s=traced["untraced_pass_s"])
    else:
        plain = worker(args.workload, args.seed, "loop", args.seconds)
        runs = [worker(args.workload, args.seed, "setup")
                for _ in range(SETUP_SAMPLES - 1)] + [plain]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "wall_s": statistics.median(plain["passes"]),
            "op_p50_s": statistics.median(dt for _, dt in plain["latencies"]),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        kinds = by_kind(plain["latencies"])
        detail.update(
            pass_s=plain["passes"],
            op_tail=tail(dt for _, dt in plain["latencies"]),
            kinds=kinds,
            setup_samples_s=[r["setup_s"] for r in runs],
            **{f"{k}_s": v["p50_s"] for k, v in kinds.items() if k.startswith("cp.eps")})
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    detail.update(env=runs[-1]["env"], failed_frac=failed / attempted,
                  failures=[n for r in runs for n in r["notes"]])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("bl-commutative", "tunnel-portfolio", "crossed-product"))
    ap.add_argument("--seed", type=int, required=True, help="non-negative")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
