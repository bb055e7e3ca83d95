"""The three workloads: seeded inputs, the job list and each job's expectation.

A workload is a *pass* (jobs repeated in a closed loop for the measured
time) plus *ceiling* jobs (the largest inputs, run once per run).  Each
pass mixes job classes of similar cost in fixed counts so that the median
and the tail percentile fall inside a block of same-size jobs rather than
on the edge between two.

Inputs are written under ``in/`` and outputs under ``out/`` of the current
directory; every path a job sees is relative, so output bytes do not depend
on where the checkout lives.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import gen
import oracle

WHY = {
    "tables": (
        "Build and write lattices: most time goes to meet/join tables and ideal "
        "enumeration, and output is written; properties do almost nothing. A "
        "faster table builder moves it."
    ),
    "verdicts": (
        "Read and judge lattices: the table code through its read path, with true "
        "verdicts (full scan) and false ones (witness). Computing each verdict "
        "once moves it."
    ),
    "reconstruct": (
        "The paper's case studies and small verbs: many small jobs, where fixed "
        "per-job cost (Dedekind counts in every reconstruct, say) dominates the median."
    ),
}


@dataclass
class Job:
    label: str  # job class, for the per-class summary
    argv: list[str]
    check: Callable[[int, str], Optional[str]]
    outputs: list[str] = field(default_factory=list)  # files or directories written


def _write(path: str, data) -> str:
    gen.write_json(path, data)
    return path


def _poset_input(rng, target: int, name: str, tol: float = 0.02):
    down = gen.poset_for_size(rng, target, tol)
    return down, _write(f"in/{name}.json", gen.poset_json(down))


# -- tables -------------------------------------------------------------------------------


def _ideals_job(rng, target: int, i: str) -> Job:
    down, path = _poset_input(rng, target, f"p{target}_{i}")
    out = f"out/j{target}_{i}.json"
    m = len(gen.ideals(down))
    check = oracle.all_of(
        oracle.exact(0, [f"{m} order ideals", f"wrote {out}"]),
        oracle.ideals_file(out, down, [f"x{k}" for k in range(len(down))]),
    )
    return Job(f"ideals~{target}", ["birkhoff", "ideals", path, "--out", out], check, [out])


def _generate_job(n: int, extended: bool) -> Job:
    size = oracle.DEDEKIND[n] - (0 if extended else 2)
    out = f"out/fd{n}{'x' if extended else ''}.json"
    argv = ["freedist", "generate", "--n", str(n)]
    argv += ["--extended"] if extended else []
    return Job(
        f"generate n={n}",
        argv + ["--out", out],
        oracle.all_of(
            oracle.exact(0, [f"wrote {out} ({size} elements)"]),
            oracle.lattice_file(out, size),
        ),
        [out],
    )


def tables(rng: random.Random, tiny: bool):
    generate = [_generate_job(n, ext) for n in (3, 4) for ext in (False, True)]
    rungs = [(32, 8), (64, 2), (128, 4)] if tiny else [(128, 8), (256, 2), (512, 4)]
    pass_jobs = []
    for c in range(_copies(tiny)):
        pass_jobs += generate
        for target, count in rungs:
            pass_jobs += [_ideals_job(rng, target, f"{c}_{i}") for i in range(count)]
        for i in range(3):
            down, path = _poset_input(rng, 40 if tiny else 70, f"s{c}_{i}", tol=0.25)
            out = f"out/stanley{c}_{i}"
            pass_jobs.append(
                Job("stanley~70", ["stanley", path, "--trace-dir", out], oracle.stanley_dir(out, down), [out])
            )
    ceiling = [_ideals_job(rng, t, "c") for t in ((256,) if tiny else (1024, 2048))]
    if not tiny:
        ceiling.append(_generate_job(5, False))
    return pass_jobs, ceiling


# -- verdicts ------------------------------------------------------------------------------

PROPS = ["graded", "modular", "distributive", "semimodular", "multfree", "jordanholder"]


def _lattice_input(rng, kind: str, size: int, name: str):
    factor = 1 if kind == "one" else 5
    model = gen.Product(kind, gen.poset_for_size(rng, size // factor))
    return model, _write(f"in/{name}.json", model.to_json())


def _verdict_job(model, path: str, prop: str, kind: str, size: int) -> Job:
    """A check on S x J(P); J(P) also gets irr and roundtrip, which Birkhoff's
    theorem says must succeed on any distributive lattice."""
    if prop == "irr":
        return Job(f"irr~{size}", ["birkhoff", "irr", path], oracle.irreducibles(model))
    if prop == "roundtrip":
        return Job(f"roundtrip~{size}", ["birkhoff", "roundtrip", path], oracle.exact(0, ["roundtrip: ok"]))
    return Job(f"{kind}~{size} {prop}", ["check", path, "--property", prop], oracle.verdict(model, prop))


def verdicts(rng: random.Random, tiny: bool):
    pass_jobs = []
    for c in range(_copies(tiny)):
        for size in (30, 40) if tiny else (60, 100):
            for kind in ("one", "m3", "n5"):
                props = PROPS[:4] if kind == "n5" else PROPS + (["irr"] if kind == "one" else [])
                for i in range(0, len(props), 2):
                    model, path = _lattice_input(rng, kind, size, f"{kind}{size}_{c}_{i}")
                    pass_jobs += [_verdict_job(model, path, p, kind, size) for p in props[i:i + 2]]
        size = 30 if tiny else 60
        for i in range(4):
            model, path = _lattice_input(rng, "one", size, f"rt{c}_{i}")
            pass_jobs.append(_verdict_job(model, path, "roundtrip", "one", size))
    big = 1 if tiny else 4
    ceiling = []
    for kind, size, prop in (
        ("one", 64 * big, "distributive"),
        ("m3", 80 * big, "distributive"),
        ("n5", 80 * big, "modular"),
        ("one", 30 * big, "roundtrip"),
    ):
        model, path = _lattice_input(rng, kind, size, f"{kind}{size}{prop}")
        ceiling.append(_verdict_job(model, path, prop, kind, size))
    return pass_jobs, ceiling


# -- reconstruct ---------------------------------------------------------------------------

# published: the two osp(3|2) case studies without the adjoined bounds
CASE_SIZES = {"case_n1": 21, "case_n2": 18}


def _spec_down(spec: dict) -> list[int]:
    """The irreducibles' order as declared by a spec's order facts."""
    names = [d["name"] for d in spec["irreducibles"]]
    index = {x: i for i, x in enumerate(names)}
    down = [1 << i for i in range(len(names))]
    for _ in names:
        for a, b in spec["order"]:
            down[index[b]] |= down[index[a]]
    return down


def _reconstruct_job(label, path, down, with_bounds=False, infer=False, write=None) -> Job:
    argv = ["reconstruct", path]
    argv += ["--with-bounds"] if with_bounds else []
    argv += ["--infer"] if infer else []
    out = dot = None
    if write:
        out, dot = f"out/{write}.json", f"out/{write}.dot"
        argv += ["--out", out, "--dot", dot]
    check = oracle.reconstruct(down, with_bounds, out, dot)
    return Job(label, argv, check, [p for p in (out, dot) if p])


def _factors_jobs(spec: dict, out: str, elements: list[str]) -> list[Job]:
    """``factors`` on a with-bounds result: the chain from the new bottom to a
    principal element X carries X's factors and the socle label; to the new
    top it carries every factor and both bound labels."""
    bounds = spec["bounds"]
    declared = {d["name"]: d["factors"] for d in spec["irreducibles"]}
    jobs = []
    for x in elements:
        if x == bounds["top_name"]:
            labels = list(spec["factors"]) + [bounds["top_label"]]
        else:
            labels = list(declared[x])
        text = "+".join(sorted(labels + [bounds["bottom_label"]]))
        jobs.append(Job("factors", ["factors", out, x], oracle.exact(0, [text])))
    return jobs


def _spec_poset(rng, lo: int, hi: int) -> list[int]:
    """A random 6-12 element poset whose down-set lattice has lo..hi elements."""
    while True:
        down = gen.random_poset(rng, rng.randint(6, 12), rng.uniform(0.1, 0.7))
        found = gen.ideals(down, cap=hi)
        if found is not None and len(found) >= lo:
            return down


def reconstruct(rng: random.Random, tiny: bool, fixtures: str):
    fixed = []
    for name in ("case_n1", "case_n2"):
        with open(os.path.join(fixtures, f"{name}.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        path = _write(f"in/{name}.json", spec)
        down = _spec_down(spec)
        if len(gen.ideals(down)) != CASE_SIZES[name]:
            raise ValueError(f"fixtures/{name}.json no longer has {CASE_SIZES[name]} elements")
        fixed.append(_reconstruct_job("case study", path, down))
        fixed.append(_reconstruct_job("case study", path, down, with_bounds=True, write=name))
        if name == "case_n2":
            fixed += _factors_jobs(spec, f"out/{name}.json", ["A", "M"])
    fixed += [
        Job("dedekind", ["dedekind", "--n", str(n)], oracle.exact(0, [str(value)]))
        for n, value in enumerate(oracle.DEDEKIND)
    ]

    def random_specs(count, lo, hi, label, tag):
        # the i-th spec's lattice size comes from the i-th of count equal
        # slices of lo..hi, so the class's cost does not hang on the sizes
        # one seed happened to draw
        jobs = []
        for i in range(count):
            down = _spec_poset(rng, lo + (hi - lo) * i // count, lo + (hi - lo) * (i + 1) // count)
            infer, bounds = i % 2 == 0, i % 3 != 1
            spec = gen.spec_json(rng, down, infer=infer)
            path = _write(f"in/{tag}{i}.json", spec)
            write = f"{tag}{i}" if bounds else None
            jobs.append(_reconstruct_job(label, path, down, bounds, infer, write))
            if write and i % 24 == 0:
                top = max(range(len(down)), key=lambda k: gen.popcount(down[k]))
                jobs += _factors_jobs(spec, f"out/{write}.json", [f"M{top}", "T"])
        return jobs

    pass_jobs = list(fixed)
    for c in range(_copies(tiny)):
        shaped = [gen.antichain(2), gen.antichain(3), gen.antichain(4), gen.CROWN]
        for i, down in enumerate(shaped):
            spec = gen.spec_json(rng, down, infer=False)
            path = _write(f"in/shaped{c}_{i}.json", spec)
            pass_jobs.append(_reconstruct_job("shaped", path, down, with_bounds=i == 3))
        pass_jobs += random_specs(4 if tiny else 24, 10, 40, "spec~10-40", f"r{c}_")
        pass_jobs += random_specs(1 if tiny else 6, 75, 77, "spec~76", f"m{c}_")
        for i in range(2):
            tree = gen.random_expr(rng, 3)
            pass_jobs.append(Job("dnf", ["freedist", "dnf", gen.expr_text(tree)], oracle.dnf(tree)))
    if tiny:
        ceiling = random_specs(1, 40, 60, "spec~50", "c")
    else:
        ceiling = random_specs(1, 250, 300, "spec~300", "c")
    return pass_jobs, ceiling


def _copies(tiny: bool) -> int:
    """Distinct inputs per job class in a pass, as multiples of the basic mix:
    more inputs make a class's cost depend less on what one seed drew."""
    return 1 if tiny else 3


def build(name: str, seed: int, tiny: bool, fixtures: str):
    """Write the workload's inputs under in/ and return (pass jobs, ceiling jobs)."""
    os.makedirs("in", exist_ok=True)
    os.makedirs("out", exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "tables":
        return tables(rng, tiny)
    if name == "verdicts":
        return verdicts(rng, tiny)
    return reconstruct(rng, tiny, fixtures)
