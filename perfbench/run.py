"""Run one sysident benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tcn --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it benchmarks the sysident package under
that checkout's ``src/``. The workload is named after the model family it
loads (``tcn``, ``mlp`` or ``lstm``); the seed makes its inputs. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the sample count behind each metric, the repeat counts and the
median of every timed operation.

The run is split over six worker processes, started one after another and
each given an equal share of ``--seconds``. Each worker sets up once,
measures and runs the output checks. The speed of one Python process differs
from the next by up to ~15% on the same machine (memory layout, hash seed),
while a quantile of samples pooled from five processes repeats within a few
percent; so every metric is taken over the samples of all workers, and
``setup_s`` is the median of the six set-ups.

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs one untraced worker and one with the tracing wrappers of
``bench_trace`` installed. It prints the per-layer metrics of the traced
worker plus the tracing overhead (traced over untraced seconds per
operation), and the traced worker writes its spans to
``.perfbench_work/traces/``.
"""

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

import bench_env

import numpy as np  # noqa: E402  (after bench_env pins the thread pools)

import bench_workloads as bw  # noqa: E402

WORKERS = {0: 6, 1: 2}          # worker processes per run, by --trace
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "train_sps": "samples/s", "freerun_sps": "samples/s",
    "onestep_sps": "samples/s", "grid_j1_cpm": "configs/min",
    "cli_eval_p75_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_share": "share",
}
# Every timing metric is taken at the slow quartile of calls: the 75th
# percentile of call time, which is the lower quartile of per-call rates. On
# the shared machine the benchmark was sized on, some runs were 20-50% faster
# on every operation at once, in bursts when the other guests idled; the
# median followed those bursts and the slow quartile hardly did (see
# baseline/README.md). The medians are printed with the provenance.
#
# The --jobs 2 grid runs in every cycle, for the pool and the j1 == j2 check,
# but its rate is no end-to-end metric: it follows whether the machine's
# second core is free, which changed over minutes by a factor of 1.6.
RATE_OF = {"train_sps": "train", "freerun_sps": "freerun",
           "onestep_sps": "onestep", "grid_j1_cpm": "grid_j1"}
MEDIAN_OF = {**RATE_OF, "grid_j2_cpm": "grid_j2", "cli_eval_s": "cli_eval"}


class WorkerFailed(Exception):
    pass


# -- worker side ------------------------------------------------------------------

def worker(args):
    """Set up, measure and check in this process; print raw samples as JSON."""
    sy = bench_env.import_sysident()
    import importlib
    importlib.import_module("sysident.cli")

    work_dir = bench_env.WORK_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        wl = bw.Workload(sy, args.workload, args.seed, work_dir)
        tracer = None
        if args.traced:
            import bench_trace
            tracer = bench_trace.Tracer()
            tracer.install()
            wl.span = tracer.op
        try:
            wl.set_up()
            cycles = wl.measure(args.seconds)
            wl.top_up(args.min_evals)
            wl.checks()
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out = {"samples": wl.samples, "seconds": wl.seconds, "setup_s": wl.setup_s,
           "attempted": wl.ledger.attempted, "failed": wl.ledger.failed,
           "cycles": cycles,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        path = bench_env.WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.csv"
        tracer.write(str(path))
        out["layers"] = bench_trace.layer_metrics(
            tracer, bw.TEST_RECORDS * bw.RECORD_LEN, bw.VALID_RECORDS * 2)
        out["spans"] = tracer.spans
        out["trace_file"] = os.path.relpath(path, bench_env.ROOT)
    print(json.dumps(out))
    return 0


# -- parent side ------------------------------------------------------------------

def _run_worker(args, seconds, min_evals, traced):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--min-evals", str(min_evals)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise WorkerFailed(f"a worker ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"a worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pooled(parts, key):
    return {k: [v for p in parts for v in p[key][k]] for k in parts[0][key]}


def _end_to_end(parts):
    samples = _pooled(parts, "samples")
    setup = [s for p in parts for s in p["setup_s"]]
    short = [k for k, v in samples.items() if len(v) < 2]
    if short or not setup:
        raise WorkerFailed(f"too few successful calls of {short or ['setup']}")
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    evals = samples["cli_eval"]
    values = {name: statistics.quantiles(samples[kind], n=4)[0]
              for name, kind in RATE_OF.items()}
    values.update({
        "cli_eval_p75_s": statistics.quantiles(evals, n=4)[2],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "ok_share": (attempted - failed) / attempted,
    })
    counts = {name: len(samples[kind]) for name, kind in RATE_OF.items()}
    counts.update({"cli_eval_p75_s": len(evals), "setup_s": len(setup),
                   "peak_rss_mb": len(parts), "ok_share": attempted})
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    medians = {name: statistics.median(samples[kind])
               for name, kind in MEDIAN_OF.items()}
    return metrics, counts, medians


def _overhead_share(untraced, traced):
    """Traced over untraced seconds per operation, summed over operations."""
    kinds = [k for k in untraced if untraced[k] and traced[k]]
    base = sum(statistics.median(untraced[k]) for k in kinds)
    with_trace = sum(statistics.median(traced[k]) for k in kinds)
    return with_trace / base - 1.0 if base else 0.0


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):       # numpy < 1.25 has no dict mode
        return "unknown"


def _cpu_ticks():
    """(steal, total) CPU ticks since boot from /proc/stat; None elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def parent(args):
    if not (bench_env.SRC / "sysident" / "__init__.py").is_file():
        print(f"error: no sysident package under {bench_env.SRC}", file=sys.stderr)
        return 2
    n = WORKERS[args.trace]
    share = args.seconds / n
    min_evals = math.ceil(bw.MIN_EVAL_SAMPLES / n)
    ticks_before = _cpu_ticks()
    try:
        parts = [_run_worker(args, share, min_evals, traced=args.trace and i == n - 1)
                 for i in range(n)]
        if args.trace:
            metrics = {k: tuple(v) for k, v in parts[-1]["layers"].items()}
            metrics["trace.overhead_share"] = (_overhead_share(
                _pooled(parts[:-1], "seconds"), parts[-1]["seconds"]), "share")
            counts = {k: len(v) for k, v in _pooled(parts, "seconds").items()}
        else:
            metrics, counts, medians = _end_to_end(parts)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    ticks_after = _cpu_ticks()
    steal_share = None      # CPU time the hypervisor gave to other guests
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal_share = ((ticks_after[0] - ticks_before[0])
                       / (ticks_after[1] - ticks_before[1]))
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas(), "nproc": os.cpu_count(),
        "blas_threads": bench_env.BLAS_THREADS,
        "thread_env": {v: os.environ[v] for v in bench_env.THREAD_VARS},
        "grid_jobs": [1, 2], "workers": n,
        "cycles": [p["cycles"] for p in parts], "samples": counts,
        "cpu_steal_share": steal_share,
    }
    if args.trace:
        provenance.update(spans=parts[-1]["spans"],
                          trace_file=parts[-1]["trace_file"])
    else:
        provenance["medians"] = medians
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bw.FAMILIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--min-evals", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        try:
            return worker(args)
        except (bench_env.MissingProgram, ImportError) as exc:
            print(f"error: cannot import the program under test: {exc}",
                  file=sys.stderr)
            return 2
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
