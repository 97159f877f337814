"""Run workloads over several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/baseline/set1.json
    python3 perfbench/steadiness.py --workloads lstm --seeds 1-5

Run it from the root of the repository. Each run is ``perfbench/run.py`` in
its own process, one after another, for ``run_seconds`` of BENCHMARK.json
unless ``--seconds`` says otherwise. For every end-to-end metric it prints
the median over the seeds and the spread, the distance between the first and
third quartile of ``statistics.quantiles(values, n=4)`` as a share of the
median, next to a third of the metric's bound. ``--compare`` takes an earlier
output file and prints, per metric, how much worse the new median is, as a
share of the earlier one. ``--out`` writes every run's result and the
summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "provenance": json.loads(lines[-2])["provenance"],
            "result": json.loads(lines[-1])}


def _worse(new, old, better):
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (old - new) / old if better == "higher" else (new - old) / old


def summarize(runs, spec):
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else float("inf"),
                "bound": metric["bound"], "better": metric["better"],
                "values": values}
        summary[workload] = {
            "runs": len(mine),
            "correct": all(r["result"]["correct"] for r in mine),
            "max_wall_s": max(r["wall_s"] for r in mine),
            "metrics": rows}
    return summary


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            run = _run(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s, "
                  f"correct={run['result']['correct']}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
    if args.trace:
        if args.out:
            args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n",
                                encoding="utf-8")
        return 0

    summary = summarize(runs, spec)
    earlier = None
    if args.compare:
        earlier = json.loads(args.compare.read_text(encoding="utf-8"))["summary"]
    for workload, s in summary.items():
        print(f"\n{workload}: {s['runs']} runs, correct={s['correct']}, "
              f"longest run {s['max_wall_s']:.1f} s")
        for name, m in s["metrics"].items():
            line = (f"  {name:16s} median {m['median']:12.6g}  spread "
                    f"{m['spread']:.4f}  (bound/3 {m['bound'] / 3:.4f})")
            if earlier and workload in earlier:
                old = earlier[workload]["metrics"][name]["median"]
                line += f"  worse by {_worse(m['median'], old, m['better']):+.4f}"
            print(line)
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs},
                                       indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
