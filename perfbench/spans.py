"""Spans around calls into latticekit's modules, recorded from outside the package.

``Tracer.install`` rebinds every public function of each module, in every
module namespace that binds it (``is_isomorphic`` lives in ``poset`` and is
also bound in ``birkhoff`` and ``reconstruct``), plus ``Lattice.__init__``
and ``Poset.cover_names``, to a wrapper that records a span: name, start,
end, parent span and job id.  Spans stay in memory; ``remove`` restores the
originals.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

# catalog is wrapped too, so the small lattices reconstruct compares against
# are not charged to the module that asked for them
MODULES = ["poset", "lattice", "properties", "birkhoff", "freedist", "reconstruct", "io", "cli", "catalog"]


class Tracer:
    def __init__(self, package):
        # by import path: the package re-exports a function named reconstruct
        self.mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        self.spans: list = []  # (name, start, end, parent index, job)
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self.judged: list = []  # lattices is_distributive saw in this job
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------------------

    def start_job(self, job_id) -> None:
        self.job = job_id
        self.judged.clear()

    def _wrap(self, fn, name: str, count=None):
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job)
            if count:
                count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------------------

    def install(self) -> None:
        wrapped = {}  # original function -> wrapper, shared by every binding
        for mod_name, mod in self.mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped[fn] = self._wrap(fn, f"{mod_name}.{attr}", COUNTERS.get(f"{mod_name}.{attr}"))
        for mod in list(self.mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        lattice_cls = self.mods["lattice"].Lattice
        poset_cls = self.mods["poset"].Poset
        self._patch(lattice_cls, "__init__", self._wrap(lattice_cls.__init__, "lattice.Lattice"))
        self._patch(lattice_cls, "_verify", self._counted(lattice_cls._verify, "lattice.Lattice.verified"))
        self._patch(poset_cls, "cover_names", self._wrap(poset_cls.cover_names, "poset.cover_names"))

    def _counted(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out


# -- counts taken at a span's boundary, from its arguments and result ---------------------


def _judged(tracer, args, kwargs, result):
    """Count is_distributive calls on a lattice object already judged in the job."""
    lattice = args[0]
    if any(seen is lattice for seen in tracer.judged):
        tracer.counts["properties.is_distributive.repeats"] += 1
    else:
        tracer.judged.append(lattice)


def _add(key, amount):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)

    return count


COUNTERS = {
    "poset.order_ideal_masks": _add("poset.order_ideal_masks.ideals", lambda a, k, r: len(r)),
    "lattice.as_lattice": _add("lattice.as_lattice.pairs", lambda a, k, r: a[0].n * (a[0].n + 1) // 2),
    "birkhoff.ideals_lattice": _add("birkhoff.ideals_lattice.cells", lambda a, k, r: r.n * r.n),
    "io.write_poset": _add("io.write_poset.bytes", lambda a, k, r: os.path.getsize(a[0])),
    "properties.is_distributive": _judged,
}
