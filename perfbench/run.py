#!/usr/bin/env python3
"""latticekit benchmark: drives ``latticekit.cli.main`` with one closed-loop
client (one job at a time, no threads) and checks every job.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables|verdicts|reconstruct \\
        --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed into a scratch directory
inside the checkout (removed at exit); the package only sees those files.
A run repeats the workload's pass until S seconds of job time have been
measured, then runs its ceiling jobs once.  Each pass, and the ceiling
jobs, run in a fresh worker process (worker.py), one after the other: how
fast a process runs the same code differs from one process to the next by
several percent, and a median over processes evens that out.  Every job's
exit code, output and written files are checked against expectations built
without the package (see oracle.py); a job that raises, exits unexpectedly
or prints anything else counts as failed.

Job times are at a nominal host speed, scaled by a reference task timed
between every two jobs (see worker.py), and set-up times likewise by the
start-up of an interpreter that imports numpy (see SetupTimer); the report
also prints the unscaled figures.

--trace 0 prints the end-to-end metrics.  --trace 1 runs in this process,
half the time untraced and half traced (spans around every public function
of each module, see spans.py), and prints per-module metrics instead.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import REF_NOMINAL_S, Executor  # noqa: E402

SETUP_SAMPLES = 15
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import latticekit.cli; print(time.monotonic_ns())"
)
# set-up's reference: an interpreter that imports numpy and nothing of latticekit
NUMPY_CODE = "import time, numpy; print(time.monotonic_ns())"
# set-up times are scaled to a host on which NUMPY_CODE takes this long to
# start (about its median on a 2-vCPU x86-64 cloud VM with Python 3.11)
NUMPY_NOMINAL_S = 0.18
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it
# A pass job's time is the median of its runs, one per pass and so one per
# worker process; at least this many.
REPEATS = 3
WORKER_TIMEOUT_S = 150

# per-layer metrics named <function>.self_s, and the counts beside them
LAYERS = ["poset", "lattice", "properties", "birkhoff", "freedist", "reconstruct", "io", "cli"]
SELF_TIMED = [
    "poset.order_ideal_masks", "poset.cover_names", "poset.build_poset", "poset.is_isomorphic",
    "lattice.as_lattice", "lattice.Lattice", "lattice.grade", "lattice.join_irreducibles",
    "lattice.add_bounds", "properties.is_modular", "properties.is_distributive",
    "properties.find_pentagon", "properties.find_diamond", "properties.is_upper_semimodular",
    "properties.interval_classes", "properties.verify_jordan_holder", "birkhoff.ideals_lattice",
    "birkhoff.irreducible_poset", "birkhoff.lattice_isomorphic", "birkhoff.birkhoff_roundtrip",
    "birkhoff.stanley_construct", "freedist.generate_lattice", "freedist.enumerate_elements",
    "freedist.dedekind_count", "freedist.parse_dnf", "reconstruct.reconstruct",
    "reconstruct.validate_spec", "reconstruct.irreducible_order", "reconstruct.load_spec",
    "reconstruct.element_factors", "io.read_poset", "io.write_poset", "io.to_dot", "cli.main",
]
CALLED = [
    "poset.is_isomorphic", "properties.is_modular", "properties.is_distributive",
    "birkhoff.lattice_isomorphic", "freedist.generate_lattice", "freedist.dedekind_count",
    "freedist.monotone_function_count", "cli.main",
]
COUNTED = [
    "poset.order_ideal_masks.ideals", "lattice.as_lattice.pairs", "lattice.Lattice.verified",
    "birkhoff.ideals_lattice.cells", "io.write_poset.bytes",
]


class Runner:
    """Runs jobs through ``cli.main``, times them and checks their output."""

    def __init__(self, src: str):
        self.src = src
        self.executor = None  # runs jobs in this process, made on first use
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict[int, str] = {}  # job id -> signature of its checked output
        self.order: list[str] = []  # signatures in first-run order, for the digest
        self.attempted = 0
        self.tracer = None
        self.walls: list[float] = []  # every job's wall time, unscaled
        self.refs: list[float] = []  # every reference time taken
        self.peak_rss_mb = 0.0  # the largest worker's

    def run(self, job) -> float:
        """Runs and checks one job in this process; returns its scaled time."""
        if self.executor is None:
            import latticekit.cli

            self.executor = Executor(latticekit.cli)
        self.attempted += 1
        if self.tracer:
            self.tracer.start_job(self.attempted)
        result = self.executor.run(job.argv, job.outputs)
        self.refs = self.executor.refs
        return self._record(job, result)

    def batch(self, jobs) -> list[float]:
        """Runs and checks jobs in a fresh worker process; their scaled times."""
        with open("batch.json", "w", encoding="utf-8") as fh:
            json.dump([{"argv": job.argv, "outputs": job.outputs} for job in jobs], fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), self.src, "batch.json", "result.json"],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        with open("result.json", encoding="utf-8") as fh:
            done = json.load(fh)
        self.refs += done["refs"]
        self.peak_rss_mb = max(self.peak_rss_mb, done["peak_rss_mb"])
        self.attempted += len(jobs)
        return [self._record(job, result) for job, result in zip(jobs, done["results"])]

    def _record(self, job, result: dict) -> float:
        self.walls.append(result["wall"])
        reason = result["raised"] or self._verify(job, result)
        if reason:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{' '.join(job.argv)}: {reason} {result['err']}")
        return result["scaled"]

    def _verify(self, job, result: dict):
        sig = result["sig"]
        known = self.first.get(id(job))
        if known is not None:
            return None if sig == known else "output differs from this job's first run"
        try:
            reason = job.check(result["rc"], result["out"])
        except Exception as exc:  # noqa: BLE001 -- unreadable output fails the job
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            self.first[id(job)] = sig
            self.order.append(sig)
        return reason

    def passes(self, jobs, seconds: float, at_least: int = 1, fresh: bool = True, setup=None):
        """Whole passes until ``seconds`` of job wall time and ``at_least``
        passes; the scaled times of each position of the pass.  With ``fresh``
        each pass runs in a worker process of its own, otherwise in this one.
        ``setup``, a SetupTimer, takes its samples between passes."""
        times: list[list[float]] = [[] for _ in jobs]
        spent = 0.0
        while len(times[0]) < at_least or spent < seconds:
            done = self.batch(jobs) if fresh else [self.run(job) for job in jobs]
            for pos, t in enumerate(done):
                times[pos].append(t)
            spent += sum(self.walls[-len(jobs):])
            if setup:
                setup.tick(spent)
        return times

    def digest(self) -> str:
        return hashlib.sha256("".join(self.order).encode()).hexdigest()


class SetupTimer:
    """Times fresh interpreters from start until latticekit.cli is imported.

    Like job times, start-up times are reported at a nominal host speed, but
    the reference is the start-up of an interpreter that imports numpy,
    timed just before each sample: on a 2-vCPU VM start-up time followed it
    and did not follow the reference task's time.  Samples are spread over
    the measured time, so that their median covers the whole run rather
    than its first seconds.
    """

    def __init__(self, src: str, seconds: float):
        self.src = src
        self.every = seconds / SETUP_SAMPLES
        self.due = 0.0  # job time at which the next sample is due
        self.samples: list[float] = []  # scaled
        self.walls: list[float] = []  # as measured

    def _start(self, *args: str) -> float:
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, "-c", *args], capture_output=True, text=True, check=True, timeout=60,
        )
        return (int(proc.stdout) - start) / 1e9

    def sample(self) -> None:
        reference = self._start(NUMPY_CODE)
        self.walls.append(self._start(SETUP_CODE, self.src))
        self.samples.append(self.walls[-1] * NUMPY_NOMINAL_S / reference)

    def tick(self, spent: float) -> None:
        """Takes the samples due by ``spent`` seconds of job time."""
        while spent >= self.due and len(self.samples) < SETUP_SAMPLES:
            self.sample()
            self.due += self.every

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def rate(times: list[list[float]]) -> float:
    """Jobs per second of a pass, from each position's median time."""
    return len(times) / sum(statistics.median(ts) for ts in times)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    self_times, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_times.items() if k.startswith(layer + "."))
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_times.get(name, 0.0)
    for name in CALLED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in COUNTED:
        out[name] = counts.get(name, 0)
    out["properties.is_distributive.repeats"] = counts.get("properties.is_distributive.repeats", 0)
    return out


UNITS = {"self_s": "s", "calls": "count", "ideals": "count", "pairs": "count",
         "verified": "count", "cells": "count", "bytes": "B", "repeat_frac": "ratio",
         "overhead_frac": "ratio"}


def environment() -> str:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"nproc={cpus} python={platform.python_version()} numpy={numpy.__version__} "
        f"machine={platform.machine()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latticekit", "cli.py")):
        print("error: run from the root of a latticekit checkout (no src/latticekit)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    try:
        return _run(args, src, os.path.join(root, "fixtures"))
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


def _run(args, src: str, fixtures: str) -> int:
    pass_jobs, ceiling = workloads.build(args.workload, args.seed, args.tiny, fixtures)
    runner = Runner(src)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {environment()}")
    print(f"why: {workloads.WHY[args.workload]}")

    if args.trace:
        import latticekit

        # the inputs' models stay alive all run: keep the collector from
        # rescanning them inside timed jobs
        gc.collect()
        gc.freeze()
        half = args.seconds / 2
        plain = runner.passes(pass_jobs, half, fresh=False)
        tracer = Tracer(latticekit)
        runner.tracer = tracer
        tracer.install()
        try:
            for job in ceiling:
                runner.run(job)
            once = layer_metrics(tracer)
            traced = runner.passes(pass_jobs, half, fresh=False)
            total = layer_metrics(tracer)
        finally:
            tracer.remove()
        count = len(traced[0])
        # one ceiling run plus one pass, the pass averaged over the traced passes
        metrics = {k: once[k] + (total[k] - once[k]) / count for k in total}
        repeats = metrics.pop("properties.is_distributive.repeats")
        calls = metrics["properties.is_distributive.calls"]
        metrics["properties.is_distributive.repeat_frac"] = repeats / calls if calls else 0.0
        metrics["trace.overhead_frac"] = rate(plain) / rate(traced) - 1
        print(f"passes: {len(plain[0])} untraced, {count} traced, of {len(pass_jobs)} jobs; {len(ceiling)} ceiling jobs")
        result = {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[1]]} for k, v in metrics.items()}
        for k, v in result.items():
            print(f"  {k:48s} {v['value']:14.6g} {v['unit']}")
    else:
        setup = SetupTimer(src, args.seconds)
        times = runner.passes(pass_jobs, args.seconds, REPEATS, setup=setup)
        medians = [statistics.median(ts) for ts in times]
        ceiling_times = runner.batch(ceiling) if ceiling else []
        job_times = medians + ceiling_times
        tail_value, pct = tail(job_times)
        result = {
            "jobs_per_s": {"value": rate(times), "unit": "jobs/s"},
            "job_ms_p50": {"value": statistics.median(job_times) * 1e3, "unit": "ms"},
            "job_ms_tail": {"value": tail_value * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": runner.peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup.median(), "unit": "s"},
        }
        print(f"passes: {len(times[0])} of {len(pass_jobs)} jobs, then {len(ceiling)} ceiling jobs once, a worker process each")
        print("pass times (s): " + " ".join(f"{sum(run):.2f}" for run in zip(*times)))
        walls = runner.walls[:len(pass_jobs) * len(times[0])]
        refs = runner.refs
        print(
            f"unscaled: {len(walls) / sum(walls):.4f} jobs/s, job p50 {statistics.median(walls) * 1e3:.4f} ms, "
            f"reference {statistics.median(refs) * 1e3:.4f} ms median, "
            f"{min(refs) * 1e3:.4f}-{max(refs) * 1e3:.4f} ms (nominal {REF_NOMINAL_S * 1e3:g} ms); "
            f"setup {statistics.median(setup.walls):.4f} s median, {min(setup.walls):.4f}-{max(setup.walls):.4f} s"
        )
        for k, v in result.items():
            note = f"  (p{pct:.1f} of {len(job_times)} jobs)" if k == "job_ms_tail" else ""
            print(f"  {k:12s} {v['value']:12.4f} {v['unit']}{note}")
        frac = runner.failed / runner.attempted
        print(f"  {'failed_frac':12s} {frac:12.4f} ratio  ({runner.failed} of {runner.attempted} runs)")
        print("per class: label, jobs, median of job times in ms")
        by_label: dict[str, list[float]] = {}
        for job, t in zip(pass_jobs + ceiling, job_times):
            by_label.setdefault(job.label, []).append(t)
        for label, ts in by_label.items():
            print(f"  {label:24s} {len(ts):5d} {statistics.median(ts) * 1e3:10.2f}")

    print(f"output digest: sha256:{runner.digest()}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
