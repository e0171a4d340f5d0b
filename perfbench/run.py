"""Layered benchmark for the patrolgame library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tree_solve --seed 1 --seconds 40 --trace 0

One closed-loop client in one process sends the workload's jobs one after
another, each only when the previous one has finished, in whole passes over
the job list: as many as take about `--seconds` on the host the benchmark
was set up on.  Every job checks its outputs against
the paper's exact guarantees.  With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics; with `--trace 1` the run
alternates untraced and traced passes, prints the per-layer metrics and
writes every span to `.perfbench/`.

The library is imported from `src/` of the checkout and nowhere else, so the
benchmark fails (exit code 1, no result) where that source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
from inputs import GENERATORS
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
# Seconds one pass takes on the 2-vCPU host the benchmark was set up on.  A
# run sends --seconds / PASS_SECONDS passes, rounded: a job count set by the
# workload, not by how fast the host runs, keeps the percentiles over the
# same jobs from run to run and from commit to commit.
PASS_SECONDS = {"tree_solve": 5.5, "tree_verify": 5.0, "complete_search": 12.0}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def import_library():
    if not (SRC / "patrolgame" / "__init__.py").is_file():
        raise SystemExit(f"error: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import patrolgame
    if Path(patrolgame.__file__).resolve().parent != SRC / "patrolgame":
        raise SystemExit(f"error: imported patrolgame from {patrolgame.__file__}, not {SRC}")
    return patrolgame


def fresh_import() -> None:
    """Start a fresh interpreter that imports the library, as a user's run does."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, patrolgame"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "patrolgame").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# Each job starts from a trimmed C heap, as if in a fresh process; without
# this, heap fragmentation left by earlier jobs makes peak memory depend on
# the order the jobs ran in.
_LIBC = ctypes.CDLL(None)
_TRIM = getattr(_LIBC, "malloc_trim", lambda pad: 0)
# glibc maps every allocation of at least M_MMAP_THRESHOLD bytes on its own
# and unmaps it when freed.  By default the threshold rises with the size of
# freed blocks, and the heap then keeps freed Monte Carlo arrays, by up to
# 90 MB more or less from run to run.  A fixed threshold makes peak memory
# the memory the jobs hold.
M_MMAP_THRESHOLD = -3
getattr(_LIBC, "mallopt", lambda param, value: 0)(M_MMAP_THRESHOLD, 1 << 20)


def run_job(job, tracer, meter=hostspeed.NullMeter()) -> tuple[float, bool]:
    """Latency, scaled by `meter`, and whether the job succeeded."""
    _TRIM(0)
    tracer.begin_job(job.name)
    with meter:
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.job"):
                job.run(tracer)
            ok = True
        except Exception:  # any failure of a job is counted, the client keeps going
            log(f"job {job.name} failed:\n{traceback.format_exc(limit=3)}")
            ok = False
        dt = time.perf_counter() - t0
    return meter.nominal(dt), ok


def set_up(workload: str, seed: int, workdir: Path):
    """Generate the inputs, write the files the CLI reads and run one
    untimed warm-up job, the first of the first pass (the cheapest by
    construction).  Returns the inputs, the jobs and the set-up time of this
    repetition, including a fresh interpreter's import time, scaled to
    nominal host speed."""
    from jobs import build_jobs
    with hostspeed.Meter() as meter:
        t0 = time.perf_counter()
        fresh_import()
        inputs = GENERATORS[workload](seed)
        passes = build_jobs(workload, inputs, workdir)
        _, ok = run_job(passes[0][0], NullTracer())
        seconds = time.perf_counter() - t0
    if not ok:
        raise SystemExit("error: warm-up job failed")
    return inputs, passes, meter.nominal(seconds)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least TAIL_BEYOND jobs
    beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def sent(passes, count):
    """Job lists of `count` successive passes, cycling through the generated
    ones."""
    return (passes[k % len(passes)] for k in range(count))


def end_to_end(passes, count, setup_times) -> tuple[dict, int, int]:
    """Closed loop over `count` whole passes.  Each job's latency is scaled to
    nominal host speed by the reference loop timed around and during it.  A
    failed job counts as an infinite latency."""
    tracer, meter = NullTracer(), hostspeed.Meter()
    by_class: dict[str, list[float]] = {}
    latencies, speeds = [], []
    start = time.perf_counter()
    for jobs in sent(passes, count):
        for job in jobs:
            dt, ok = run_job(job, tracer, meter)
            speeds.append(statistics.fmean(meter.samples))
            latencies.append(dt if ok else math.inf)
            by_class.setdefault(job.name, []).append(latencies[-1])
    wall = time.perf_counter() - start
    attempted = len(latencies)
    failed = latencies.count(math.inf)
    tail_s, tail_pct = tail(latencies)
    log(f"timed {attempted} jobs in {wall:.2f} s; the tail is p{tail_pct:.1f} "
        f"of {attempted} jobs, with {TAIL_BEYOND} beyond it; the reference loop took "
        f"{1000 * statistics.median(speeds):.3f} ms (median over jobs), nominal "
        f"{1000 * hostspeed.NOMINAL_S:.3f} ms")
    # Throughput of one job of each class, each class at its median latency:
    # jobs within a class are exchangeable draws, and the median keeps a slow
    # stretch of a shared host from setting the figure.
    class_s = sum(statistics.median(v) for v in by_class.values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": len(by_class) / class_s,
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed


def derived(values: dict) -> None:
    """Rates from the counts and the busy time of the spans that did the work."""
    def rate(count, seconds):
        return values.get(count, 0.0) / values[seconds] if values.get(seconds) else 0.0
    for j in (1, 2):
        values[f"engine.mc.j{j}.trials_per_s"] = rate(f"engine.mc.j{j}.trials", f"engine.mc.j{j}.busy_s")
    values["engine.best_response.evaluations_per_s"] = rate(
        "engine.best_response.evaluations", "engine.best_response.busy_s")
    values["engine.search.walks_per_s"] = rate("engine.search.walks", "engine.search.busy_s")


def traced(passes, probes, count):
    """Send each of `count` passes twice, untraced and then traced; per-layer
    figures are per traced pass.  The deep-tree probe runs
    last, outside the passes.  Span times are not scaled; the reference
    loop, timed a few times before each pass, shows the host's speed."""
    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    speeds = []
    attempted = failed = k = 0
    for k, jobs in enumerate(sent(passes, count), start=1):
        speeds += [hostspeed.sample() for _ in range(5)]
        for tr in (NullTracer(), tracer):
            t0 = time.perf_counter()
            for job in jobs:
                _, ok = run_job(job, tr)
                attempted += 1
                failed += not ok
            walls[tr.enabled] += time.perf_counter() - t0
    values = {name: v / k for name, v in {**tracer.summary(), **tracer.counts}.items()}
    derived(values)
    values["trace.overhead_ratio"] = walls[True] / walls[False]
    values["host.reference_ms"] = 1000 * statistics.median(speeds)

    probe = Tracer()
    results = [run_job(job, probe)[1] for job in probes]
    values["probe.deep_tree.jobs"] = len(results)
    values["probe.deep_tree.failed"] = results.count(False)
    values["probe.deep_tree.busy_s"] = probe.summary().get("bench.job.busy_s", 0.0)
    return values, attempted, failed, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    pg = import_library()
    import numpy
    from jobs import probe_jobs

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup_times = []
        for rep in range(SETUP_REPS):
            workdir = Path(tmp) / f"setup{rep}"
            workdir.mkdir()
            inputs, passes, seconds = set_up(args.workload, args.seed, workdir)
            setup_times.append(seconds)
        digest = inputs.digest()
        count = pass_count(args.workload, args.seconds)
        log(f"workload={args.workload} seed={args.seed} inputs=sha256:{digest[:16]} "
            f"jobs/pass={len(passes[0])} python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} source=sha256:{source_digest()} patrolgame={pg.__version__}")
        if args.trace:
            names = spec["per_layer"]
            values, attempted, failed, tracer = traced(passes, probe_jobs(inputs), count)
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(str(trace_path))
            log(f"spans written to {trace_path}")
        else:
            names = spec["end_to_end"]
            values, attempted, failed = end_to_end(passes, count, setup_times)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in names}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"inputs sha256:{digest}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
