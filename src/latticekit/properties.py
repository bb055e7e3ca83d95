"""Modularity, distributivity, semimodularity, interval equivalence classes
and the Jordan-Holder multiplicity invariant for modular lattices.

Each top-level predicate evaluates every equivalent criterion the theory
offers (identity form, degree form, forbidden sublattice) and checks that
they agree before answering; a disagreement raises
:class:`InvariantViolation`, which ``python -O`` does not strip.  A lattice
is immutable, so ``is_modular`` and ``is_distributive`` judge each lattice
once and keep the report on it: later calls return the same object.

Each modularity and distributivity criterion first runs a certificate, a
check in less than cubic time that proves the criterion holds; the theorem
behind each is proved in the criterion's docstring.  Only when the
certificate fails does the criterion's O(n³) scan run, and the scan is the
one that names the witness, so every witness is the scan's first.  A
modular or distributive lattice is judged with no cubic scan at all; a
lattice that fails a criterion pays one scan for it.  (A pentagon also
fails the diamond's certificate; the diamond scan then visits only the
rows the certificate names.)  Costs, with J and M the join- and
meet-irreducibles:

- modular identity: the identity on covers b ⋖ c, O(covers·n) lookups;
- pentagon: equal meets and joins along covers b ⋖ c, O(covers·n);
- distributive identity: ψ(a ^ b) = ψ(a) ∪ ψ(b) on packed rows of M,
  O(n²·⌈|M|/64⌉) word operations; its dual φ(a v b) = φ(a) ∪ φ(b) on J;
- diamond: one sort of each row of the combined key, O(n² log n), and the
  scan visits only the rows whose key repeats.

Certificates work in row blocks of about ``TABLE_BLOCK_CELLS`` cells
(:func:`latticekit.poset._row_blocks`), so their scratch memory stays
small whatever the lattice size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ChainCapExceeded, InvariantViolation, NotMaximalChain, NotModular
from .lattice import Edge, Lattice
from .poset import _narrow_words, _row_blocks

DEFAULT_CHAIN_CAP = 1_000_000


def _judged_once(check):
    """Store ``check``'s report on the lattice, so each lattice is judged once.

    A check that raises stores nothing.
    """

    @functools.wraps(check)
    def judged(l: Lattice):
        report = l.verdicts.get(check.__name__)
        if report is None:
            report = l.verdicts.setdefault(check.__name__, check(l))
        return report

    return judged


def _check_agreement(what: str, criteria: dict[str, bool], **witnesses) -> None:
    if len(set(criteria.values())) > 1:
        verdicts = ", ".join(f"{k}={v}" for k, v in criteria.items())
        found = ", ".join(f"{k} {v}" for k, v in witnesses.items())
        raise InvariantViolation(f"{what} criteria disagree: {verdicts} ({found})")


# -- forbidden sublattices ----------------------------------------------------
#
# Both searches keep the scan order of a loop over element pairs; each step
# handles one element against all pairs at once in O(n^2) scratch.
# key[x, y] = (x ^ y) * n + (x v y) (below 2**30 for int16 tables) compares
# both operations at once.  Meet and join are commutative, so row x of a
# table holds the results for x with every other element.


def find_pentagon(l: Lattice) -> Optional[tuple[str, str, str, str, str]]:
    """A 5-element sublattice isomorphic to the pentagon, or None.

    Such a sublattice is exactly a triple a, b, c with b < c, a incomparable
    to both, and a^b = a^c, avb = avc; the sublattice is then
    {a^b, a, b, c, avb} listed bottom, side, lower, upper, top.  The witness
    is the first in the order b, then c, then a ascending.

    Certificate: the search (:func:`_pentagon_scan`) runs only when some
    cover b ⋖ c and some a have a^b = a^c and avb = avc
    (:func:`_pentagon_on_covers`, O(covers·n) comparisons).  Such a cover
    is a pentagon, as b < c with equal meets and joins makes a incomparable
    to both: a <= b would give avb = b but avc = c; b <= a would give
    a = avb = avc >= c, so a^c = c, yet a^c = a^b = b; a <= c gives
    a = a^c = a^b <= b, and c <= a gives b <= a.  And every pentagon
    (a, b, c) gives one on a cover: take a lower cover b' of c with b <= b'
    (c covers some element of the interval [b, c], as b < c).  Then
    a^b <= a^b' <= a^c = a^b and avb <= avb' <= avc = avb.
    """
    if not _pentagon_on_covers(l):
        return None
    return _pentagon_scan(l)


def _pentagon_on_covers(l: Lattice) -> bool:
    """Whether some cover b ⋖ c (rows) and some a (columns) have equal
    meets and joins with b and with c."""
    meet, join = l.meet, l.join
    lower, upper = l.poset.cover_arrays
    for part in _row_blocks(len(lower), l.n):
        b, c = lower[part], upper[part]
        if ((meet[b] == meet[c]) & (join[b] == join[c])).any():
            return True
    return False


def _pentagon_scan(l: Lattice) -> Optional[tuple[str, str, str, str, str]]:
    """The first pentagon over all b < c, in :func:`find_pentagon`'s order."""
    comparable = l.leq | l.leq.T
    key = l.meet.astype(np.int32) * l.n + l.join
    for b in range(l.n):
        above = np.nonzero(l.leq[b])[0]
        above = above[above != b]
        side = np.nonzero(~comparable[b])[0]
        if not above.size or not side.size:
            continue
        # rows c, columns a; a ^ b = a ^ c and a v b = a v c already make
        # a incomparable to c (a <= c gives a <= b, c <= a gives b < a)
        hit = key[above][:, side] == key[b, side]
        rows = np.nonzero(hit.any(axis=1))[0]
        if rows.size:
            c = int(above[rows[0]])
            a = int(side[np.argmax(hit[rows[0]])])
            o, i = int(l.meet[a, b]), int(l.join[a, b])
            return tuple(l.names[k] for k in (o, a, b, c, i))
    return None


def find_diamond(l: Lattice) -> Optional[tuple[str, str, str, str, str]]:
    """A 5-element sublattice isomorphic to the diamond M3, or None.

    Encoded by a triple of pairwise incomparable elements with all three
    pairwise meets equal and all three pairwise joins equal.  The witness
    is the first in the order a, then b > a, then c ascending.

    Certificate: a diamond (a, b, c) has key[a, b] = key[a, c] with b != c,
    both incomparable to a, so the search (:func:`_diamond_scan`) visits
    only the rows a whose key repeats among the elements incomparable to a
    (:func:`_repeating_rows`, one sort per row, O(n² log n)).  No other row
    holds a witness, so the first witness is unchanged, and with no such
    row there is no scan.  A distributive lattice has none: a^b = a^c and
    avb = avc give b = c there.
    """
    rows = _repeating_rows(l)
    if not rows.size:
        return None
    return _diamond_scan(l, rows)


def _repeating_rows(l: Lattice) -> np.ndarray:
    """The rows a, ascending, where key[a, x] takes some value twice among
    the x incomparable to a."""
    n = l.n
    leq = l.leq
    distinct = -1 - np.arange(n, dtype=np.int32)  # below every key, one per column
    found = []
    for rows in _row_blocks(n, n):
        key = l.meet[rows].astype(np.int32) * n + l.join[rows]
        key = np.where(leq[rows] | leq[:, rows].T, distinct, key)
        key.sort(axis=1)
        found.append(np.flatnonzero((key[:, 1:] == key[:, :-1]).any(axis=1)) + rows.start)
    return np.concatenate(found)


def _diamond_scan(l: Lattice, rows: np.ndarray) -> Optional[tuple[str, str, str, str, str]]:
    """The first diamond whose a is in ``rows``, in :func:`find_diamond`'s order."""
    comparable = l.leq | l.leq.T
    key = l.meet.astype(np.int32) * l.n + l.join
    for a in rows.tolist():
        side = np.nonzero(~comparable[a])[0]
        later = side[side > a]
        if not later.size:
            continue
        # c against a first, from row a alone; by cancellation this leaves
        # only c = b in a distributive lattice.  Row-major order: b
        # ascending, then c ascending.
        rb, rc = np.nonzero(key[a, side] == key[a, later][:, None])
        bs, cs = later[rb], side[rc]
        # equal keys make b and c incomparable: b <= c would give
        # b = b ^ c = a ^ b <= a, and c <= b likewise c <= a
        k = np.nonzero(key[bs, cs] == key[a, bs])[0]
        if k.size:
            b, c = int(bs[k[0]]), int(cs[k[0]])
            o, i = int(l.meet[a, b]), int(l.join[a, b])
            return tuple(l.names[x] for x in (o, a, b, c, i))
    return None


# -- semimodularity -------------------------------------------------------------


@dataclass(frozen=True)
class SemimodularReport:
    ok: bool
    graded: bool
    # pair violating the degree inequality, or the two unequal chains
    violation: Optional[tuple[str, str]] = None
    chain_witness: Optional[tuple[list[str], list[str]]] = None


def _first_degree_excess(l: Lattice, wrong) -> Optional[tuple[str, str]]:
    """The first pair (a, b), row-major, whose degree excess e = rho(a) + rho(b)
    - rho(avb) - rho(a^b) has ``wrong(e, 0)``, or None; ``l`` is graded."""
    rho = np.array([l.grading.degree[x] for x in l.names], dtype=np.int32)
    for rows in _row_blocks(l.n, l.n):
        excess = rho[rows, None] + rho - rho.take(l.join[rows]) - rho.take(l.meet[rows])
        bad = wrong(excess, 0).ravel()
        first = int(bad.argmax())  # row-major, so the first wrong pair if any
        if bad[first]:
            return l.names[rows.start + first // l.n], l.names[first % l.n]
    return None


def is_upper_semimodular(l: Lattice) -> SemimodularReport:
    """Graded with rho(a) + rho(b) >= rho(avb) + rho(a^b) for all pairs."""
    if not l.grading.graded:
        return SemimodularReport(False, False, chain_witness=l.grading.witness)
    bad = _first_degree_excess(l, np.less)
    return SemimodularReport(bad is None, True, violation=bad)


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


# The identity criteria gather int16 table values with ``take``; their
# indices are converted to intp once per call, not once per b.


def _modular_identity_violation(l: Lattice):
    """The first (a, b, c) with b <= c and b v (a ^ c) != (b v a) ^ c, as
    names, or None.

    Certificate: the scan over all b <= c (:func:`_modular_identity_scan`)
    runs only when the identity fails on some cover b ⋖ c
    (:func:`_modular_on_covers`, O(covers·n) lookups).  If it fails at some
    b <= c, the lattice is not modular, so by Dedekind's theorem it holds a
    pentagon, and by the argument in :func:`find_pentagon` one (a, b', c)
    with b' ⋖ c.  The identity fails there: b' v (a ^ c) = b' v (a ^ b') =
    b', while (b' v a) ^ c = (a v c) ^ c = c.
    """
    if _modular_on_covers(l):
        return None
    return _modular_identity_scan(l)


def _modular_on_covers(l: Lattice) -> bool:
    """The modular identity on every cover b ⋖ c (rows) and every a (columns)."""
    n = l.n
    meet, join = l.meet, l.join
    meet_flat, join_flat = meet.ravel(), join.ravel()
    lower, upper = l.poset.cover_arrays
    for part in _row_blocks(len(lower), n):
        b, c = lower[part], upper[part]
        lhs = join_flat.take(b[:, None] * n + meet[c])  # b v (a ^ c)
        rhs = meet_flat.take(join[b].astype(np.intp) * n + c[:, None])  # (b v a) ^ c
        if not np.array_equal(lhs, rhs):
            return False
    return True


def _modular_identity_scan(l: Lattice):
    """The first violation over all b <= c: b ascending, then a, then c."""
    meet, join = l.meet, l.join
    meet_at, join_at = meet.astype(np.intp), join.astype(np.intp)
    for b in range(l.n):
        up = np.flatnonzero(l.leq[b])  # the c with b <= c
        # row c, column a (meet is symmetric): b v (a ^ c) and (b v a) ^ c
        lhs = join[b].take(meet_at.take(up, axis=0))
        rhs = meet.take(up, axis=0).take(join_at[b], axis=1)
        bad = lhs != rhs
        if bad.any():  # the first a, then the first c, as in a row-major scan
            a = int(np.argmax(bad.any(axis=0)))
            c = int(up[np.argmax(bad[:, a])])
            return l.names[a], l.names[b], l.names[c]
    return None


@_judged_once
def is_modular(l: Lattice) -> ModularityReport:
    """Three equivalent criteria, checked against each other:

    1. the identity b v (a ^ c) = (b v a) ^ c for all b <= c;
    2. graded with rho(a) + rho(b) = rho(avb) + rho(a^b) for all pairs;
    3. no pentagon sublattice.

    Criterion 2 is l and its dual upper semimodular, read off l's grading.
    The dual reverses the order (a ⋖ b becomes b ⋖ a) and swaps meet and
    join.  If l is graded with height h, rho* = h - rho is 0 on the dual's
    bottom and grows by one across its covers, so the dual is graded with
    degree rho* (degrees are unique: every element is on a cover chain
    from the bottom); symmetrically l is graded when its dual is.  The
    dual's inequality rho*(a) + rho*(b) >= rho*(a^b) + rho*(avb) then reads
    rho(a) + rho(b) <= rho(avb) + rho(a^b), the other half of the equality.
    """
    violation = _modular_identity_violation(l)
    pentagon = find_pentagon(l)
    criteria = {
        "identity": violation is None,
        "degree": l.grading.graded and _first_degree_excess(l, np.not_equal) is None,
        "pentagon_free": pentagon is None,
    }
    _check_agreement("modularity", criteria, violation=violation, pentagon=pentagon)
    return ModularityReport(criteria["identity"], criteria, violation, pentagon)


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
    """The first (a, b, c) with b v (a ^ c) != (b v a) ^ (b v c), meet and
    join swapped when ``dualized``, as names, or None.

    Certificate: the scan over all b (:func:`_distributive_identity_scan`)
    runs only when some meet-irreducible is not meet-prime (join-irreducible
    not join-prime, when ``dualized``), found by
    :func:`_distributive_on_irreducibles` in O(n²·⌈|M|/64⌉) word operations.
    The proof is written for the identity; the dual's is the same with the
    order reversed.

    Let ψ(x) be the set of meet-irreducibles above x (and the top, which is
    above all and changes nothing).  ψ(a ^ c) = ψ(a) ∪ ψ(c) for all a, c
    says exactly that every meet-irreducible m is meet-prime.  The identity
    makes each m so: a ^ c <= m gives m = m v (a ^ c) = (m v a) ^ (m v c),
    so m = m v a or m = m v c, that is a <= m or c <= m.  Conversely, ψ
    takes joins to intersections in every lattice, meets to unions when
    every m is meet-prime, and is one-to-one, since in a finite lattice
    every x is the meet of the meet-irreducibles above it.  So the lattice
    is isomorphic to a family of sets closed under union and intersection,
    which is distributive, and the identity holds for every b: the
    certificate passes exactly when the identity holds.
    """
    if _distributive_on_irreducibles(l, dualized):
        return None
    return _distributive_identity_scan(l, dualized)


def _distributive_on_irreducibles(l: Lattice, dualized: bool) -> bool:
    """ψ(a ^ c) = ψ(a) ∪ ψ(c) for all a (rows) and c (columns), ψ from
    :attr:`Poset.irreducible_rows`; φ(a v c) = φ(a) ∪ φ(c) when ``dualized``.
    One-word rows are gathered as 1-d words of their narrowest width
    (:func:`_narrow_words`): both certificates on a 2100-element J(P) take
    12-19 ms as uint16 instead of 20-31 ms as uint64 (best of 7 in-process
    runs, six times; 2-vCPU x86-64 VM, NumPy 2.4.6)."""
    _, phi, _, psi = l.poset.irreducible_rows
    rows, table = (phi, l.join) if dualized else (psi, l.meet)
    rows = _narrow_words(rows)
    for block in _row_blocks(l.n, rows.size):
        if not (rows.take(table[block], axis=0) == rows[block, None] | rows).all():
            return False
    return True


def _distributive_identity_scan(l: Lattice, dualized: bool = False):
    """The first violation over all b: b ascending, then (a, c) row-major."""
    meet, join = (l.join, l.meet) if dualized else (l.meet, l.join)
    meet_at, join_at = meet.astype(np.intp), join.astype(np.intp)
    for b in range(l.n):
        jb = join_at[b]
        lhs = join[b].take(meet_at)  # b v (a ^ c)
        rhs = meet.take(jb, axis=0).take(jb, axis=1)  # (b v a) ^ (b v c)
        bad = lhs != rhs
        if bad.any():
            a, c = (int(v) for v in np.argwhere(bad)[0])
            return l.names[a], l.names[b], l.names[c]
    return None


@_judged_once
def is_distributive(l: Lattice) -> DistributivityReport:
    """Four equivalent criteria, checked against each other:

    1. b v (a ^ c) = (b v a) ^ (b v c) over all triples;
    2. the dual identity b ^ (a v c) = (b ^ a) v (b ^ c);
    3. neither a pentagon nor a diamond sublattice;
    4. modular with no diamond sublattice.
    """
    violation = _distributive_identity_violation(l)
    modularity = is_modular(l)
    pentagon = modularity.pentagon
    diamond = find_diamond(l)
    criteria = {
        "identity": violation is None,
        "dual_identity": _distributive_identity_violation(l, dualized=True) is None,
        "sublattice_free": pentagon is None and diamond is None,
        "modular_diamond_free": modularity.modular and diamond is None,
    }
    _check_agreement(
        "distributivity",
        criteria,
        violation=violation,
        pentagon=pentagon,
        diamond=diamond,
    )
    return DistributivityReport(
        criteria["identity"], criteria, violation, pentagon, diamond
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
    """Connected components of the cover edges under length-one
    perspectivities.

    For every ordered pair (a, b): when both [a^b, b] and [a, avb] are
    cover edges they are merged.  Requires a modular lattice (the relation
    degenerates otherwise) unless ``allow_nonmodular`` is set.

    A graded lattice, every modular one among them, tells its covers by
    the grading: x <= y is a cover exactly when rho(y) = rho(x) + 1, as
    rho grows by at least one along each cover of a chain from x to y.
    Only a lattice that is not graded looks its pairs up among the covers'
    keys (``np.isin``), O(n² log n).  Keys are formed only for the pairs
    found, so a graded lattice's n² scratch is int16 and boolean.
    """
    if not allow_nonmodular and not is_modular(l).modular:
        raise NotModular(
            "interval classes need a modular lattice; "
            "pass allow_nonmodular=True to override"
        )
    n = l.n
    # edge k is the k-th cover in row-major order, the order of its key
    # lower * n + upper
    keys = np.ravel_multi_index(l.poset.cover_arrays, (n, n))
    index = np.arange(n)
    cols = np.broadcast_to(index, (n, n))  # b of each pair (a, b); cols.T holds a
    if l.grading.graded:  # x <= y is a cover exactly when rho(y) = rho(x) + 1
        rho = np.fromiter(l.grading.degree.values(), np.int16, n)  # in index order
        both = (rho.take(l.meet) == rho - 1) & (rho.take(l.join) == rho[:, None] + 1)
    else:
        both = np.isin(l.meet.astype(np.intp) * n + cols, keys) & np.isin(cols.T * n + l.join, keys)
    lower = l.meet[both].astype(np.intp) * n + cols[both]  # key of [a^b, b]
    upper = cols.T[both] * n + l.join[both]  # key of [a, avb]
    first, second = (np.searchsorted(keys, key) for key in (lower, upper))

    # Shiloach-Vishkin hook and compress: each label stays in its edge's
    # component and at most its edge's id, so at the fixed point every edge
    # is labelled by the smallest edge of its component
    label = np.arange(keys.size)
    while True:
        one, two = label[first], label[second]
        if np.array_equal(one, two):
            break
        np.minimum.at(label, one, two)  # hook the larger root of each pair
        np.minimum.at(label, two, one)
        jumped = label[label]
        while not np.array_equal(jumped, label):  # compress to roots
            label, jumped = jumped, jumped[jumped]

    names = l.names
    edges = tuple((names[k // n], names[k % n]) for k in keys.tolist())
    groups: dict[int, list[Edge]] = {}
    for edge, root in zip(edges, label.tolist()):
        groups.setdefault(root, []).append(edge)
    classes = tuple(map(tuple, groups.values()))  # ordered by smallest edge
    class_of = {e: i for i, cls in enumerate(classes) for e in cls}
    return IntervalClassPartition(edges, class_of, classes)


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
    for a, b in zip(idx, idx[1:]):
        if b not in l.poset.upper_covers(a):
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
    mult = {c: vec[l.top_index][c] for c in range(k)} if ok else None
    if exhaustive:
        chains = maximal_chains(l, cap=chain_cap)
        vectors = {
            tuple(sorted(chain_multiplicities(l, ch, partition).items()))
            for ch in chains
        }
        if (len(vectors) == 1) != ok:
            raise InvariantViolation(
                f"Jordan-Holder: {len(chains)} enumerated chains carry "
                f"{len(vectors)} multiplicity vectors, the cover-DAG pass "
                f"says {'one' if ok else 'several'}"
            )
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
