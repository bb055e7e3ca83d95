#!/usr/bin/env python3
"""Runs a batch of jobs through ``latticekit.cli.main`` in a fresh process.

    python3 perfbench/worker.py SRC JOBS.json RESULT.json

``run.py`` starts one worker per pass of a workload, one after the other,
from the directory that holds the workload's inputs.  JOBS.json is a list of
``{"argv": [...], "outputs": [...]}``; RESULT.json gets, per job, its times,
exit code, output and a signature of its output bytes, plus the worker's
reference times and peak memory.  The worker checks nothing: run.py holds
the expectations.

Job times are reported at a nominal host speed.  Host speed on a shared
machine drifts by tens of percent within a minute, for every process alike,
so a fixed reference task that runs no latticekit code is timed between
every two jobs, and each job's wall time is multiplied by REF_NOMINAL_S over
the mean of the reference's times just before and just after it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import numpy

# Job times are scaled to a host on which reference_task takes this long
# (about its median on a 2-vCPU x86-64 cloud VM with Python 3.11).
REF_NOMINAL_S = 0.5e-3
REF_TABLE = numpy.arange(256 * 256, dtype=numpy.int64).reshape(256, 256) % 251


def reference_task() -> int:
    """Fixed work in the mix of latticekit's hot paths, without latticekit:
    an interpreter-bound loop over ints and a dict, and small numpy table ops."""
    acc, seen = 0, {}
    for i in range(1500):
        acc = (acc * 31 + i) % 65521
        seen[acc & 1023] = i
    table = REF_TABLE.astype(numpy.int16)
    for k in range(8):
        acc += int(table[table[:, k], k + 1].sum())
        numpy.packbits(table > 100 + k, axis=1)
    return acc + len(seen)


def reference_time(samples: int = 2) -> float:
    """The reference task's time now: the fastest of a few runs."""
    best = float("inf")
    for _ in range(samples):
        start = time.perf_counter()
        reference_task()
        best = min(best, time.perf_counter() - start)
    return best


def signature(rc, text: str, outputs: list[str]) -> str:
    """Hash of a job's exit code, stdout and written files."""
    h = hashlib.sha256(f"{rc}\n{text}".encode())
    for path in outputs:
        files = [path]
        if os.path.isdir(path):
            files = [os.path.join(path, f) for f in sorted(os.listdir(path))]
        for f in files:
            if os.path.exists(f):
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Executor:
    """Runs jobs through ``cli.main`` and times each at the nominal host speed."""

    def __init__(self, cli):
        self.cli = cli
        self.refs: list[float] = []  # every reference time taken
        self.ref = self._reference()  # the reference's time just before the next job

    def _reference(self) -> float:
        self.refs.append(reference_time())
        return self.refs[-1]

    def run(self, argv: list[str], outputs: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 -- a raising job is a failed job
            rc, raised = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        before, self.ref = self.ref, self._reference()
        text = out.getvalue()
        return {
            "scaled": wall * REF_NOMINAL_S / ((before + self.ref) / 2),
            "wall": wall,
            "rc": rc,
            "out": text,
            "err": err.getvalue().strip()[-200:],
            "raised": raised,
            "sig": signature(rc, text, outputs),
        }


def main(argv: list[str]) -> int:
    src, jobs_path, result_path = argv
    sys.path.insert(0, src)
    import latticekit.cli

    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    gc.collect()
    executor = Executor(latticekit.cli)
    results = [executor.run(job["argv"], job["outputs"]) for job in jobs]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "results": results,
            "refs": executor.refs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
