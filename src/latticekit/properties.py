"""Modularity, distributivity, semimodularity, interval equivalence classes
and the Jordan-Holder multiplicity invariant for modular lattices.

Each top-level predicate evaluates every equivalent criterion the theory
offers (identity form, degree form, forbidden sublattice) and asserts that
they agree before answering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ChainCapExceeded, NotMaximalChain, NotModular
from .lattice import Edge, Lattice, grade

DEFAULT_CHAIN_CAP = 1_000_000


# -- forbidden sublattices ----------------------------------------------------


def find_pentagon(l: Lattice) -> Optional[tuple[str, str, str, str, str]]:
    """A 5-element sublattice isomorphic to the pentagon, or None.

    Such a sublattice is exactly a triple a, b, c with b < c, a incomparable
    to both, and a^b = a^c, avb = avc; the sublattice is then
    {a^b, a, b, c, avb} listed bottom, side, lower, upper, top.
    """
    n = l.n
    leq = l.leq
    comparable = leq | leq.T
    for b in range(n):
        above = np.nonzero(leq[b] & ~np.eye(n, dtype=bool)[b])[0]
        for c in above:
            hit = (
                (l.meet[:, b] == l.meet[:, c])
                & (l.join[:, b] == l.join[:, c])
                & ~comparable[:, b]
                & ~comparable[:, c]
            )
            idx = np.nonzero(hit)[0]
            if idx.size:
                a = int(idx[0])
                o, i = int(l.meet[a, b]), int(l.join[a, b])
                return tuple(l.names[k] for k in (o, a, b, c, i))
    return None


def find_diamond(l: Lattice) -> Optional[tuple[str, str, str, str, str]]:
    """A 5-element sublattice isomorphic to the diamond M3, or None.

    Encoded by a triple of pairwise incomparable elements with all three
    pairwise meets equal and all three pairwise joins equal.
    """
    n = l.n
    comparable = l.leq | l.leq.T
    for a in range(n):
        for b in range(a + 1, n):
            if comparable[a, b]:
                continue
            o, i = int(l.meet[a, b]), int(l.join[a, b])
            hit = (
                (l.meet[:, a] == o)
                & (l.meet[:, b] == o)
                & (l.join[:, a] == i)
                & (l.join[:, b] == i)
                & ~comparable[:, a]
                & ~comparable[:, b]
            )
            idx = np.nonzero(hit)[0]
            if idx.size:
                c = int(idx[0])
                return tuple(l.names[k] for k in (o, a, b, c, i))
    return None


# -- semimodularity -------------------------------------------------------------


@dataclass(frozen=True)
class SemimodularReport:
    ok: bool
    graded: bool
    # pair violating the degree inequality, or the two unequal chains
    violation: Optional[tuple[str, str]] = None
    chain_witness: Optional[tuple[list[str], list[str]]] = None


def is_upper_semimodular(l: Lattice) -> SemimodularReport:
    """Graded with rho(a) + rho(b) >= rho(avb) + rho(a^b) for all pairs."""
    g = grade(l)
    if not g.graded:
        return SemimodularReport(False, False, chain_witness=g.witness)
    rho = np.array([g.degree[x] for x in l.names])
    lhs = rho[:, None] + rho[None, :]
    rhs = rho[l.join.astype(int)] + rho[l.meet.astype(int)]
    bad = np.argwhere(lhs < rhs)
    if bad.size:
        a, b = (int(v) for v in bad[0])
        return SemimodularReport(False, True, violation=(l.names[a], l.names[b]))
    return SemimodularReport(True, True)


# -- modularity ------------------------------------------------------------------


@dataclass(frozen=True)
class ModularityReport:
    modular: bool
    criteria: dict[str, bool] = field(default_factory=dict)
    # triple (a, b, c) with b <= c violating b v (a ^ c) = (b v a) ^ c
    violation: Optional[tuple[str, str, str]] = None
    pentagon: Optional[tuple[str, str, str, str, str]] = None

    def __bool__(self):
        return self.modular


def _modular_identity_violation(l: Lattice):
    n = l.n
    meet, join = l.meet.astype(int), l.join.astype(int)
    cols = np.arange(n)
    for b in range(n):
        jb = join[b]
        lhs = jb[meet]  # lhs[a, c] = b v (a ^ c)
        rhs = meet[jb[:, None], cols[None, :]]  # rhs[a, c] = (b v a) ^ c
        mask = l.leq[b][None, :]  # require b <= c
        bad = np.argwhere((lhs != rhs) & mask)
        if bad.size:
            a, c = (int(v) for v in bad[0])
            return l.names[a], l.names[b], l.names[c]
    return None


def is_modular(l: Lattice) -> ModularityReport:
    """Three equivalent criteria, checked against each other:

    1. the identity b v (a ^ c) = (b v a) ^ c for all b <= c;
    2. graded with the degree inequality holding both ways
       (upper semimodular and dually);
    3. no pentagon sublattice.
    """
    violation = _modular_identity_violation(l)
    by_identity = violation is None
    by_degree = is_upper_semimodular(l).ok and is_upper_semimodular(l.dual).ok
    pentagon = find_pentagon(l)
    by_sublattice = pentagon is None
    assert by_identity == by_degree == by_sublattice, (
        "modularity criteria disagree",
        violation,
        pentagon,
    )
    return ModularityReport(
        by_identity,
        {
            "identity": by_identity,
            "degree": by_degree,
            "pentagon_free": by_sublattice,
        },
        violation,
        pentagon,
    )


# -- distributivity ----------------------------------------------------------------


@dataclass(frozen=True)
class DistributivityReport:
    distributive: bool
    criteria: dict[str, bool] = field(default_factory=dict)
    violation: Optional[tuple[str, str, str]] = None
    pentagon: Optional[tuple[str, str, str, str, str]] = None
    diamond: Optional[tuple[str, str, str, str, str]] = None

    def __bool__(self):
        return self.distributive


def _distributive_identity_violation(l: Lattice, dualized: bool = False):
    n = l.n
    meet = (l.join if dualized else l.meet).astype(int)
    join = (l.meet if dualized else l.join).astype(int)
    for b in range(n):
        jb = join[b]
        lhs = jb[meet]  # b v (a ^ c)
        rhs = meet[jb[:, None], jb[None, :]]  # (b v a) ^ (b v c)
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            a, c = (int(v) for v in bad[0])
            return l.names[a], l.names[b], l.names[c]
    return None


def is_distributive(l: Lattice) -> DistributivityReport:
    """Four equivalent criteria, checked against each other:

    1. b v (a ^ c) = (b v a) ^ (b v c) over all triples;
    2. the dual identity b ^ (a v c) = (b ^ a) v (b ^ c);
    3. neither a pentagon nor a diamond sublattice;
    4. modular with no diamond sublattice.
    """
    violation = _distributive_identity_violation(l)
    by_identity = violation is None
    by_dual = _distributive_identity_violation(l, dualized=True) is None
    pentagon = find_pentagon(l)
    diamond = find_diamond(l)
    by_sublattice = pentagon is None and diamond is None
    by_modular = is_modular(l).modular and diamond is None
    assert by_identity == by_dual == by_sublattice == by_modular, (
        "distributivity criteria disagree",
        violation,
        pentagon,
        diamond,
    )
    return DistributivityReport(
        by_identity,
        {
            "identity": by_identity,
            "dual_identity": by_dual,
            "sublattice_free": by_sublattice,
            "modular_diamond_free": by_modular,
        },
        violation,
        pentagon,
        diamond,
    )


# -- interval equivalence classes -----------------------------------------------------


@dataclass(frozen=True)
class IntervalClassPartition:
    """Finest partition of the cover edges merging [a^b, b] with [a, avb].

    Classes are numbered 0..k-1 by their smallest edge; the classes of a
    modular lattice are its lattice composition factors.
    """

    edges: tuple[Edge, ...]
    class_of: dict[Edge, int]
    classes: tuple[tuple[Edge, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def interval_classes(
    l: Lattice, *, allow_nonmodular: bool = False
) -> IntervalClassPartition:
    """Union-find over cover edges via length-one perspectivities.

    For every ordered pair (a, b): when both [a^b, b] and [a, avb] are
    cover edges they are merged.  Requires a modular lattice (the relation
    degenerates otherwise) unless ``allow_nonmodular`` is set.
    """
    if not allow_nonmodular and not is_modular(l).modular:
        raise NotModular(
            "interval classes need a modular lattice; "
            "pass allow_nonmodular=True to override"
        )
    covers = l.poset.covers_matrix
    pairs = l.poset.cover_pairs
    edge_id = {e: k for k, e in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    n = l.n
    meet, join = l.meet.astype(int), l.join.astype(int)
    rows = np.arange(n)
    lower_is_cover = covers[meet, rows[None, :]]  # b covers a ^ b
    upper_is_cover = covers[rows[:, None], join]  # a v b covers a
    for a, b in np.argwhere(lower_is_cover & upper_is_cover):
        a, b = int(a), int(b)
        union(edge_id[(int(meet[a, b]), b)], edge_id[(a, int(join[a, b]))])

    groups: dict[int, list[int]] = {}
    for k in range(len(pairs)):
        groups.setdefault(find(k), []).append(k)
    ordered = sorted(groups.values(), key=lambda g: pairs[min(g)])
    name = lambda e: (l.names[e[0]], l.names[e[1]])
    classes = tuple(tuple(name(pairs[k]) for k in sorted(g)) for g in ordered)
    class_of = {e: i for i, cls in enumerate(classes) for e in cls}
    return IntervalClassPartition(
        tuple(name(e) for e in pairs), class_of, classes
    )


# -- maximal chains and Jordan-Holder ---------------------------------------------------


def count_maximal_chains(l: Lattice) -> int:
    """Number of maximal chains from bottom to top (memoized path count)."""
    counts = [0] * l.n
    counts[l.bottom_index] = 1
    for i in l.poset.topo_order:
        if i == l.bottom_index:
            continue
        counts[i] = sum(counts[j] for j in l.poset.lower_covers(i))
    return counts[l.top_index]


def maximal_chains(l: Lattice, cap: int = DEFAULT_CHAIN_CAP) -> list[list[str]]:
    """All maximal chains, bottom to top.  Raises ChainCapExceeded past cap."""
    total = count_maximal_chains(l)
    if total > cap:
        raise ChainCapExceeded(f"{total} maximal chains exceed cap {cap}")
    out = []
    stack = [[l.bottom_index]]
    while stack:
        chain = stack.pop()
        if chain[-1] == l.top_index:
            out.append([l.names[i] for i in chain])
            continue
        for j in sorted(l.poset.upper_covers(chain[-1]), reverse=True):
            stack.append(chain + [j])
    out.sort()
    return out


def chain_multiplicities(
    l: Lattice,
    chain: list[str],
    partition: Optional[IntervalClassPartition] = None,
    *,
    allow_nonmodular: bool = False,
) -> dict[int, int]:
    """Per-class counts of the cover edges along one maximal chain."""
    if partition is None:
        partition = interval_classes(l, allow_nonmodular=allow_nonmodular)
    idx = [l.index(x) for x in chain]
    if not idx or idx[0] != l.bottom_index or idx[-1] != l.top_index:
        raise NotMaximalChain("chain must run from bottom to top")
    covers = l.poset.covers_matrix
    for a, b in zip(idx, idx[1:]):
        if not covers[a, b]:
            raise NotMaximalChain(
                f"{l.names[b]!r} does not cover {l.names[a]!r}"
            )
    counts = {i: 0 for i in range(partition.count)}
    for a, b in zip(chain, chain[1:]):
        counts[partition.class_of[(a, b)]] += 1
    return counts


@dataclass(frozen=True)
class JordanHolderReport:
    ok: bool
    partition: IntervalClassPartition
    multiplicities: Optional[dict[int, int]]  # common vector when ok
    witness: Optional[tuple[list[str], list[str]]] = None  # two differing chains


def verify_jordan_holder(
    l: Lattice,
    *,
    allow_nonmodular: bool = False,
    exhaustive: bool = False,
    chain_cap: int = DEFAULT_CHAIN_CAP,
) -> JordanHolderReport:
    """Check that every maximal chain carries the same class multiplicities.

    The default path propagates per-element multiplicity vectors over the
    cover DAG (equivalent to enumerating all chains, without the blowup);
    ``exhaustive=True`` additionally enumerates every maximal chain below
    ``chain_cap`` and cross-checks.
    """
    partition = interval_classes(l, allow_nonmodular=allow_nonmodular)
    k = partition.count
    class_of = partition.class_of
    vec: list[Optional[tuple[int, ...]]] = [None] * l.n
    vec[l.bottom_index] = (0,) * k
    witness = None
    for i in l.poset.topo_order:
        if i == l.bottom_index or witness is not None:
            continue
        options = {}
        for j in l.poset.lower_covers(i):
            v = list(vec[j])
            v[class_of[(l.names[j], l.names[i])]] += 1
            options.setdefault(tuple(v), j)
        if len(options) > 1:
            (v1, j1), (v2, j2) = sorted(options.items())[:2]
            witness = (
                _chain_through(l, j1, i),
                _chain_through(l, j2, i),
            )
        else:
            vec[i] = next(iter(options))

    ok = witness is None
    mult = None
    if ok:
        mult = {c: vec[l.top_index][c] for c in range(k)}
    if exhaustive:
        chains = maximal_chains(l, cap=chain_cap)
        vectors = {
            tuple(sorted(chain_multiplicities(l, ch, partition).items()))
            for ch in chains
        }
        assert (len(vectors) == 1) == ok, "chain enumeration disagrees with DP"
    return JordanHolderReport(ok, partition, mult, witness)


def _chain_through(l: Lattice, mid: int, nxt: int) -> list[str]:
    """A maximal chain passing bottom .. mid, nxt .. top (greedy covers)."""
    down = [mid]
    while down[-1] != l.bottom_index:
        down.append(min(l.poset.lower_covers(down[-1])))
    up = [nxt]
    while up[-1] != l.top_index:
        up.append(min(l.poset.upper_covers(up[-1])))
    return [l.names[i] for i in reversed(down)] + [l.names[i] for i in up]


def is_multiplicity_free(l: Lattice, *, allow_nonmodular: bool = False) -> bool:
    """True when every lattice composition factor has multiplicity 1 in a
    maximal chain."""
    report = verify_jordan_holder(l, allow_nonmodular=allow_nonmodular)
    return report.ok and all(v == 1 for v in report.multiplicities.values())
