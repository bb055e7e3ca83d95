#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload on tiny inputs, untraced and traced, and checks that
   each metric BENCHMARK.json names is printed with its unit, that the
   human-readable report shows failed_frac and the tail's percentile, and
   that no job failed.
2. Feeds real outputs of latticekit to deliberately wrong expectations and
   checks that the oracle flags every one of them as a failed job.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import Job, WHY  # noqa: E402


def check_workloads(spec: dict) -> list[str]:
    problems = []
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in sorted(WHY):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(want))}")
            report = "\n".join(lines[:-1])
            if trace == 0 and not (
                re.search(r"failed_frac +0\.0000 ratio", report)
                and re.search(r"job_ms_tail .* ms +\(p[\d.]+ of \d+ jobs\)", report)
            ):
                problems.append(f"{where}: report lacks failed_frac 0 or the tail's percentile")
    return problems


def check_oracle(root: str) -> list[str]:
    """Every wrong expectation must turn into a failed job."""
    sys.path.insert(0, os.path.join(root, "src"))
    rng = random.Random(11)
    down = gen.poset_for_size(rng, 24)
    one, m3, n5 = (gen.Product(kind, down) for kind in ("one", "m3", "n5"))
    gen.write_json("one.json", one.to_json())
    gen.write_json("n5.json", n5.to_json())
    gen.write_json("p.json", gen.poset_json(down))
    other = gen.poset_for_size(rng, 30)
    modular = oracle.verdict(n5, "modular")

    def swap_witness(rc, out):
        # with a at the bottom the identity holds, so the altered line is no witness
        return modular(rc, re.sub(r"a=\S+", f"a={n5.name[n5.bottom()]}", out))

    wrong = [
        Job("distributive, claimed M3", ["check", "one.json", "--property", "distributive"],
            oracle.verdict(m3, "distributive")),
        Job("graded, wrong length", ["check", "one.json", "--property", "graded"],
            oracle.verdict(gen.Product("one", down + [1 << len(down)]), "graded")),
        Job("modular, altered witness", ["check", "n5.json", "--property", "modular"], swap_witness),
        Job("dedekind, wrong value", ["dedekind", "--n", "5"], oracle.exact(0, ["7580"])),
        Job("ideals, other poset", ["birkhoff", "ideals", "p.json", "--out", "j.json"],
            oracle.ideals_file("j.json", other, [f"x{k}" for k in range(len(other))])),
        Job("reconstruct, wrong name", ["reconstruct", os.path.join(root, "fixtures", "case_n2.json")],
            oracle.reconstruct(gen.antichain(4), False, None, None)),
    ]
    right = [
        Job("distributive", ["check", "one.json", "--property", "distributive"],
            oracle.verdict(one, "distributive")),
        Job("modular", ["check", "n5.json", "--property", "modular"], modular),
        Job("ideals", ["birkhoff", "ideals", "p.json", "--out", "j.json"],
            oracle.ideals_file("j.json", down, [f"x{k}" for k in range(len(down))])),
    ]
    problems = []
    for jobs, failures in ((right, 0), (wrong, len(wrong))):
        runner = run.Runner(os.path.join(root, "src"))
        for job in jobs:
            runner.run(job)
        if runner.failed != failures:
            problems.append(f"expected {failures} failed jobs, got {runner.failed}: {runner.failures}")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_workloads(spec)
    work = os.path.join(root, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    try:
        problems += check_oracle(root)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
