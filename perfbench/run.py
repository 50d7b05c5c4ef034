"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-gaussian --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root. mpotomo is imported from ./src. The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics for --trace 1. The line before it is a report with the environment,
every metric, raw wall-clock figures, sample counts, gates, errors and
warnings. See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Single-threaded BLAS: steadier on a small shared machine than the two
# cores a process could take.
BLAS_THREADS = 1
# Each set-up runs this many times; setup_s uses the median.
SETUP_REPEATS = 3
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
# Per-layer metrics that are not span times; 0 where a workload has none.
COUNT_METRICS = {
    "measurement.exact_block_data.n_exponent", "reconstruction.sites",
    "reconstruction.flagged_sites", "measurement.local_mle.iters",
    "measurement.local_mle.windows", "measurement.local_mle.ms_per_iter",
    "measurement.local_mle.unconverged_ratio", "measurement.block_file.mb",
    "sweep.trials_per_s", "trace.overhead_ratio", "warnings.count",
}


@dataclass
class Job:
    j: int
    traced: bool
    seconds: float
    # Mean reference-kernel time right after the job.
    kernel_s: float
    adjusted: float
    sites: int
    error: str | None


@dataclass
class Run:
    import_s: float
    setup_s: list[float] = field(default_factory=list)
    jobs: list[Job] = field(default_factory=list)
    # Results of jobs 0 .. quality_jobs - 1 that passed their check.
    quality: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    probed: dict | None = None

    def timed(self) -> list[Job]:
        return [jb for jb in self.jobs if jb.error is None and not jb.traced]

    @property
    def attempted(self) -> int:
        return len(self.jobs) + len(self.gates)

    @property
    def failed(self) -> int:
        return (sum(jb.error is not None for jb in self.jobs)
                + sum(not ok for _, _, ok in self.gates))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def openblas_threads():
    """Thread count each loaded OpenBLAS reports, read through ctypes."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(loadavg):
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for mod in (np, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads_set": BLAS_THREADS,
            "blas_threads_reported": openblas_threads(),
            "loadavg_1m_at_start": loadavg}


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11],
            "percentile": math.floor(100 * (n - 10) / n), "n": n}


def run_job(wl, lib, plain, tracer, ctx, j):
    """Times one job and checks it; returns (seconds, result, error)."""
    if tracer is not None:
        tracer.group = j
    t0 = time.perf_counter()
    try:
        with tracer.span("job") if tracer is not None else nullcontext():
            res = wl.job(lib, ctx, j)
        seconds = time.perf_counter() - t0
        wl.check(plain, ctx, res)
        return seconds, res, None
    except Exception as exc:  # a failed job is counted, never dropped
        traceback.print_exc()
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.group = None


def execute(wl, args, run, speed, tracer, workdir):
    """Set-up runs, then rounds of jobs until --seconds have passed.

    A run always ends on a round boundary and completes at least the
    quality jobs. The traced run alternates untraced and traced rounds,
    which gives the tracing overhead, and probes the first traced round.
    """
    from speed import adjusted
    from tracing import library

    plain = library()
    traced = library(tracer) if tracer is not None else None
    for i in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.group = f"setup{i}"
        t0 = time.perf_counter()
        ctx = wl.setup(traced or plain, args.seed, workdir)
        run.setup_s.append(time.perf_counter() - t0)
        kernel_s = speed.sample(run.setup_s[-1])
    if tracer is not None:
        tracer.group = None
    run.gates = ctx["gates"]

    j = rounds = 0
    t_loop = time.perf_counter()
    min_rounds = 2 if tracer is not None else 1
    while (rounds < min_rounds or j < wl.quality_jobs
           or time.perf_counter() - t_loop < args.seconds):
        on = tracer is not None and rounds % 2 == 1
        results = []
        for _ in range(wl.round_jobs):
            seconds, res, error = run_job(wl, traced if on else plain, plain,
                                          tracer if on else None, ctx, j)
            before, kernel_s = kernel_s, speed.sample(seconds)
            run.jobs.append(Job(j, on, seconds, kernel_s,
                                adjusted(seconds, before, kernel_s),
                                res.sites if res else 0, error))
            if error is None:
                results.append(res)
                if j < wl.quality_jobs:
                    run.quality.append(res)
            j += 1
        if on and run.probed is None and len(results) == wl.round_jobs:
            run.probed = wl.probe(traced, plain, tracer, ctx, results)
        for res in results:
            res.inputs.clear()
        rounds += 1


def end_to_end(run, factor):
    """(metrics, report extras, raw wall-clock figures) of a run."""
    timed = run.timed()
    times = [jb.seconds for jb in timed]
    adj = [jb.adjusted for jb in timed]
    sites = sum(jb.sites for jb in timed)
    raw = {"setup_s": run.import_s + statistics.median(run.setup_s),
           "job_s.p50": statistics.median(times),
           "sites_per_s": sites / sum(times)}
    metrics = {
        "setup_s": (raw["setup_s"] * factor, "s"),
        "job_s.p50": (statistics.median(adj), "s"),
        "sites_per_s": (sites / sum(adj), "1/s"),
        "hs_distance.p50": (statistics.median(r.hs_distance
                                              for r in run.quality), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    fids = [r.w_fidelity for r in run.quality if r.w_fidelity is not None]
    written = [r.artifact_bytes for r in run.quality if r.artifact_bytes]
    extra = {
        "job_s.tail": tail(adj),
        "w_fidelity.p50": statistics.median(fids) if fids else None,
        "artifact_mb": statistics.median(written) / 1e6 if written else None,
        "fail_ratio": run.failed / run.attempted,
    }
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            extra, raw)


def per_layer(spec, run, tracer, n_warnings):
    traced = [jb.seconds for jb in run.jobs if jb.error is None and jb.traced]
    untraced = [jb.seconds for jb in run.timed()]
    counts = {"trace.overhead_ratio": (statistics.median(traced)
                                       / statistics.median(untraced) - 1.0),
              "warnings.count": n_warnings, **(run.probed or {})}
    out = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name in COUNT_METRICS:
            value = counts.get(name, 0)
        elif unit in SCALE and name.endswith(f".{unit}"):
            value = tracer.layer_seconds(name[:-len(unit) - 1]) * SCALE[unit]
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    loadavg = os.getloadavg()[0]
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mpotomo
    except ImportError as exc:
        print(f"perfbench: cannot import mpotomo from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(mpotomo.__file__).resolve().is_relative_to(src):
        print(f"perfbench: mpotomo was imported from {mpotomo.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    run = Run(import_s=time.perf_counter() - _T0)

    from speed import SpeedReference
    from tracing import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    speed = SpeedReference()
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            execute(WORKLOADS[args.workload], args, run, speed, tracer,
                    workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, extra, raw = end_to_end(run, speed.factor())
    metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    layers = {}
    if tracer is not None:
        layers = metrics = per_layer(spec, run, tracer, len(caught))
        tracer.save(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"))
    by_message = {}
    for w in caught:
        key = f"{w.category.__name__}: {str(w.message)[:60]}"
        by_message[key] = by_message.get(key, 0) + 1
    timed = run.timed()
    report = {
        "report": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(loadavg),
        "end_to_end": {**e2e, **extra},
        "per_layer": layers,
        "samples": {"timed_jobs": len(timed), "jobs": len(run.jobs),
                    "quality_jobs": len(run.quality),
                    "setup_runs": len(run.setup_s),
                    "speed_kernels": len(speed.samples)},
        "raw_wall_clock": {**raw, "setup_runs_s": run.setup_s,
                           "timed_job_s": [jb.seconds for jb in timed],
                           "timed_job_kernel_s": [jb.kernel_s
                                                  for jb in timed]},
        "speed_factor": speed.factor(),
        "gates": [{"name": n, "value": v, "ok": ok}
                  for n, v, ok in run.gates],
        "errors": [f"job {jb.j}: {jb.error}" for jb in run.jobs
                   if jb.error][:10],
        "warnings": {"count": len(caught), "by_message": by_message},
    }
    print(json.dumps(report))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
