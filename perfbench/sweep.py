"""Measure the baseline and write it to perfbench/BASELINE.json.

    python3 perfbench/sweep.py

Run it from the repository root.  For every workload of BENCHMARK.json it
makes

* SETS sets of ``--trace 0`` runs, one run per seed of SEEDS; all
  workloads of a set run before the next set starts.  Each end-to-end
  metric gets, per set, the median, the quartiles from
  ``statistics.quantiles(values, n=4)`` and the spread (quartile distance
  over the median), and then the shift of the last set's median against
  the first's.  ``over_bound`` lists every spread and shift above the
  metric's bound;
* one ``--trace 1`` run on the first seed: its per-layer metrics, the
  trace overhead and the top three layers by self time;
* one ``--trace 0`` run on SECOND_SEED, a seed no other run uses, whose
  verdict and ``failed_frac`` are compared with those of the first seed's
  run in the first set.

A run that exits with an error is recorded with its message and left out
of the statistics.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(101, 111))
SETS = 2
SECOND_SEED = 9001
TOP_LAYERS = 3


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"seed": seed, "error": proc.stderr.strip().splitlines()[-5:]}
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    out = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "failed_frac": detail["failed_frac"],
           "failures": detail["failures"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    if trace:
        out.update(top_self_time=detail["top_self_time"][:TOP_LAYERS],
                   ranking=detail["ranking"], absent=detail["absent"],
                   spans=detail["spans"], traced_pass_s=detail["traced_pass_s"],
                   untraced_pass_s=detail["untraced_pass_s"])
    else:
        out.update(op_tail=detail["op_tail"], env=detail["env"], commit=detail["commit"],
                   **{k: v for k, v in detail.items() if k.startswith("cp.")})
    print(f"{workload} seed {seed} trace {trace}: "
          + ("error" if "error" in out else json.dumps(out["metrics"])[:200]),
          file=sys.stderr, flush=True)
    return out


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def summarise_set(runs, bounds):
    ok = [r for r in runs if "error" not in r]
    return {
        "end_to_end": {k: summarise([r["metrics"][k] for r in ok]) for k in bounds},
        "attempted": sum(r["attempted"] for r in ok),
        "failed": sum(r["failed"] for r in ok),
        "errors": len(runs) - len(ok),
        "runs": runs,
    }


def over_bound(sets, bounds):
    notes = []
    for i, s in enumerate(sets, 1):
        for k, b in bounds.items():
            spread = s["end_to_end"][k]["spread"]
            if spread > b:
                notes.append(f"set {i} {k} spread {spread:.3f} > {b}")
    for k, b in bounds.items():
        first, last = (s["end_to_end"][k]["median"] for s in (sets[0], sets[-1]))
        if last > first * (1 + b) or first > last * (1 + b):
            notes.append(f"{k} median shift {last / first - 1:+.3f} beyond {b}")
    return notes


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    sets = [{w: [run(w, seed, seconds, 0) for seed in SEEDS] for w in names}
            for _ in range(SETS)]
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        summaries = [summarise_set(s[name], bounds) for s in sets]
        first = sets[0][name][0]
        second = run(name, SECOND_SEED, seconds, 0)
        workloads[name] = {
            "why": w["why"],
            "sets": summaries,
            "median_shift": {k: summaries[-1]["end_to_end"][k]["median"]
                             / summaries[0]["end_to_end"][k]["median"] - 1 for k in bounds},
            "over_bound": over_bound(summaries, bounds),
            "traced": run(name, SEEDS[0], seconds, 1),
            "second_seed_check": {
                "first": first, "second": second,
                "same": all(k in first and k in second and first[k] == second[k]
                            for k in ("correct", "failed_frac")),
            },
        }
    done = next(r for s in sets for rs in s.values() for r in rs if "error" not in r)
    baseline = {"commit": done["commit"], "environment": done["env"],
                "run_seconds": seconds, "seeds": list(SEEDS), "sets": SETS,
                "second_seed": SECOND_SEED, "workloads": workloads}
    (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
