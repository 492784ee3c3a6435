"""Run one flexidrop benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload node2000_flexidrop --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout: it imports the package from ``src``.
A run is a closed loop in one process: jobs (complete training runs) go
back to back on inputs made from ``--seed``, every job's outputs are
checked, and all jobs of a run must produce identical outputs.

``--trace 0`` prints the end-to-end metrics, with times scaled to a
nominal CPU speed measured between epochs (``hostspeed.py``).
``--trace 1`` runs untraced jobs for half the time and traced jobs for
the rest, and prints the per-layer metrics: per-job medians of busy and
self time per layer, call and work counts, and the tracing overhead. The
last line of standard output is the result; the line before it records
the environment.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostClock, nominal_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# One BLAS thread keeps a job on one CPU, so that its time does not depend on
# what else runs on the machine's other CPUs; the value is recorded with
# every result.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
MIN_TIMED_JOBS = 3     # timed jobs after the warm-up job, even if --seconds is short
MIN_TRACED_JOBS = 2    # so that counts can be compared between two traced jobs


@dataclass
class Job:
    wall_s: float
    problems: list[str]
    fingerprint: str | None
    layer: dict[str, float] = field(default_factory=dict)
    clock: HostClock | None = None    # the job's phases and reference times, untraced runs


@contextlib.contextmanager
def epoch_ticks(clock: HostClock):
    """Tick ``clock`` at the top of every training epoch.

    ``training.train`` calls ``bind_layers`` once per epoch and nowhere
    else; this wraps that binding for the duration of the block.
    """
    from flexidrop import training

    original = training.bind_layers

    def ticked(*args, **kwargs):
        clock.tick()
        return original(*args, **kwargs)

    training.bind_layers = ticked
    try:
        yield
    finally:
        training.bind_layers = original


def run_jobs(workload, inputs, seed: int, workdir: Path, deadline: float, min_jobs: int,
             reference: str | None = None, tracer=None, clock: HostClock | None = None
             ) -> list[Job]:
    """Jobs back to back until the next would end past ``deadline``, at least ``min_jobs``.

    A job whose outputs differ from ``reference`` (or from this call's
    first job) fails, like a job that raises or misses an output floor.
    """
    jobs: list[Job] = []
    while len(jobs) < min_jobs or (
            time.perf_counter() + statistics.median(j.wall_s for j in jobs) <= deadline):
        gc.collect()    # every job starts from the same collector state
        if tracer is not None:
            tracer.reset()
        if clock is not None:
            clock.reset()
            clock.mark()
        start = time.perf_counter()
        try:
            outcome = workload.job(inputs, seed, workdir)
            wall = time.perf_counter() - start
            problems = workload.check(outcome)
            fingerprint = outcome.fingerprint
        except Exception as exc:  # a failed job is counted and reported, not fatal
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            problems, fingerprint = [f"{type(exc).__name__}: {exc}"], None
        if reference is None:
            reference = fingerprint
        if fingerprint is not None and fingerprint != reference:
            problems.append("outputs differ from the run's first job with the same seed")
        job = Job(wall, problems, fingerprint)
        if clock is not None:
            clock.mark()
            job.clock = clock.copy()
        if tracer is not None:
            job.layer = tracer.job_metrics(wall)
            job.layer["cli.out_bytes"] = outcome.out_bytes if fingerprint is not None else 0
        for p in problems:
            print(f"job {len(jobs)} failed: {p}", file=sys.stderr)
        jobs.append(job)
    return jobs


def setup_samples(name: str, seed: int, workdir: Path) -> list[tuple[float, float]]:
    """(set-up seconds, reference-work seconds) of fresh interpreters.

    Each imports the package and makes the inputs; ``setup_time.py`` times
    the reference work after that.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_time.py"), name, str(seed),
                              str(workdir / f"setup{i}")],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        seconds, reference_s = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(reference_s)))
    return samples


def end_to_end(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[Job]]:
    setup = setup_samples(workload.name, seed, workdir)
    inputs = workload.setup(seed, workdir / "main")
    clock = HostClock()
    start = time.perf_counter()
    with epoch_ticks(clock):
        jobs = run_jobs(workload, inputs, seed, workdir, start + seconds, 1 + MIN_TIMED_JOBS,
                        clock=clock)
    # Times on the nominal CPU (hostspeed.py says why); jobs[0] warms up.
    timed = [j for j in jobs[1:] if not j.problems] or jobs[1:]
    job_s = statistics.median(j.clock.nominal_seconds() for j in timed)
    ok = sum(not j.problems for j in jobs)
    metrics = {
        "job_s": (job_s, "s"),
        "epochs_per_s": (workload.epochs / job_s, "1/s"),
        "setup_s": (statistics.median(nominal_seconds(s, ref) for s, ref in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (ok / len(jobs), "share"),
    }
    return metrics, jobs


def traced(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[Job]]:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.setup(seed, workdir / "main")
        setup_layer = tracer.job_metrics(0.0)
    finally:
        tracer.restore()
    start = time.perf_counter()
    plain = run_jobs(workload, inputs, seed, workdir, start + seconds / 2, 2)
    tracer.reset()
    tracer.install()
    try:
        spanned = run_jobs(workload, inputs, seed, workdir, start + seconds, MIN_TRACED_JOBS,
                           reference=plain[0].fingerprint, tracer=tracer)
    finally:
        tracer.restore()

    problems = spanned[0].problems    # a traced-run failure fails the first traced job
    metrics: dict[str, tuple[float, str]] = {}
    for key in spanned[0].layer:
        values = [j.layer[key] for j in spanned]
        exact = unit_of(key) != "s" and key not in INEXACT_COUNTS
        if exact and len(set(values)) != 1:
            problems.append(f"count {key} differs between traced jobs: {values}")
        metrics[key] = (statistics.median(values), unit_of(key))
    missing = [n for n in workload.expected_spans if metrics[f"{n}.calls"][0] == 0]
    if missing:
        problems.append(f"spans that never fired: {missing}")
    for p in problems:
        print(f"traced jobs failed: {p}", file=sys.stderr)
    for key in ("graphs.generate_sbm.s", "graphs.generate_sbm.calls"):
        metrics[key] = (setup_layer[key], unit_of(key))
    traced_s = statistics.median(j.wall_s for j in spanned)
    untraced_s = statistics.median(j.wall_s for j in plain[1:])
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.untraced_job_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["process.cold_job_s"] = (plain[0].wall_s, "s")
    return metrics, plain + spanned


# Counts that may differ between jobs of one seed: the collector's schedule,
# and the CLI's output size, whose wall-clock column varies in its digits.
INEXACT_COUNTS = {"process.gc_collections", "cli.out_bytes"}


def unit_of(key: str) -> str:
    if key.endswith(".s") or key.endswith("_s"):
        return "s"
    if key.endswith("bytes"):
        return "B"
    if key.endswith("flops"):
        return "flop"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            caches[level.lower()] = int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            caches[level.lower()] = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), **caches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flexidrop" / "__init__.py").is_file():
        print(f"error: no flexidrop package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:     # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        measure = traced if args.trace else end_to_end
        metrics, jobs = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            WORK_ROOT.rmdir()

    failed = sum(bool(j.problems) for j in jobs)
    print(json.dumps({"environment": environment(), "workload": workload.name,
                      "seed": args.seed, "job_wall_s": [j.wall_s for j in jobs],
                      "job_raw_s": [j.clock.raw_seconds() for j in jobs if j.clock],
                      "job_nominal_s": [j.clock.nominal_seconds() for j in jobs if j.clock],
                      "reference_s_median": statistics.median(
                          r for j in jobs if j.clock for r in j.clock.references
                      ) if jobs[0].clock else None}))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
