"""Finite posets built from cover relations.

Element names are opaque strings; every algorithm works on dense integer
indices, with the order relation held as a boolean matrix plus one Python
bitmask per element (word-parallel set algebra for closures, ideals and
isomorphism search).
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CycleDetected, SizeLimitExceeded, UnknownElement

DEFAULT_IDEAL_CAP = 10_000_000
DEFAULT_ISO_CAP = 1000


class RedundantCoverWarning(UserWarning):
    """An input cover pair was implied by the others and was dropped."""


class Poset:
    """Immutable finite poset.

    ``leq`` is an n-by-n boolean matrix, ``leq[i, j]`` meaning
    ``names[i] <= names[j]``.  The stored cover relation is always the
    transitive reduction of ``leq``.  Instances are safe for concurrent
    reads; nothing mutates them after construction.
    """

    def __init__(self, names: Sequence[str], leq: np.ndarray):
        names = tuple(str(x) for x in names)
        if len(set(names)) != len(names):
            raise ValueError("element names must be unique")
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (len(names), len(names)):
            raise ValueError("leq matrix shape does not match element count")
        leq = leq.copy()
        leq.flags.writeable = False
        self.names = names
        self.leq = leq
        self._index = {x: i for i, x in enumerate(names)}

    # -- basics ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"unknown element {name!r}") from None

    def le(self, a: str, b: str) -> bool:
        return bool(self.leq[self.index(a), self.index(b)])

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.cover_pairs)} covers)"

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.names == other.names
            and np.array_equal(self.leq, other.leq)
        )

    def __hash__(self):
        return hash((self.names, self.leq.tobytes()))

    # -- derived structure ----------------------------------------------

    @cached_property
    def covers_matrix(self) -> np.ndarray:
        """Boolean matrix of the transitive reduction (j covers i)."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        # float32 counts are exact: each is at most n - 2, far below 2**24
        ltf = lt.astype(np.float32)
        between = (ltf @ ltf) > 0.5  # some k with i < k < j
        out = lt & ~between
        out.flags.writeable = False
        return out

    @cached_property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (lower, upper) as indices, in canonical order."""
        lo, up = np.nonzero(self.covers_matrix)
        return tuple(sorted(zip(lo.tolist(), up.tolist())))

    def cover_names(self) -> list[tuple[str, str]]:
        return [(self.names[a], self.names[b]) for a, b in self.cover_pairs]

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """Bitmask per element i of { j : j <= i }."""
        return tuple(_rows_to_masks(self.leq.T))

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """Bitmask per element i of { j : i <= j }."""
        return tuple(_rows_to_masks(self.leq))

    def lower_covers(self, i: int) -> list[int]:
        return np.nonzero(self.covers_matrix[:, i])[0].tolist()

    def upper_covers(self, i: int) -> list[int]:
        return np.nonzero(self.covers_matrix[i, :])[0].tolist()

    @cached_property
    def minimal_indices(self) -> tuple[int, ...]:
        col = self.leq.sum(axis=0)  # how many elements are <= i
        return tuple(int(i) for i in np.nonzero(col == 1)[0])

    @cached_property
    def maximal_indices(self) -> tuple[int, ...]:
        row = self.leq.sum(axis=1)
        return tuple(int(i) for i in np.nonzero(row == 1)[0])

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """A linear extension: below-counts ascending, index as tie-break."""
        key = self.leq.sum(axis=0)
        return tuple(sorted(range(self.n), key=lambda i: (int(key[i]), i)))

    def restrict(self, indices: Sequence[int]) -> "Poset":
        """Induced subposet on the given indices (order of ``indices`` kept)."""
        idx = list(indices)
        sub = self.leq[np.ix_(idx, idx)]
        return Poset([self.names[i] for i in idx], sub)


def _rows_to_masks(matrix: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as a Python int with bit j = matrix[i, j]."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _masks_to_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """The inverse of :func:`_rows_to_masks` for masks below ``1 << n``."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


# -- construction ---------------------------------------------------------


def build_poset(
    elements: Sequence[str],
    covers: Iterable[tuple[str, str]],
    *,
    warn_redundant: bool = True,
) -> Poset:
    """Build a poset from named elements and (lower, upper) cover pairs.

    The order is the reflexive-transitive closure of the pairs; redundant
    input pairs (implied by transitivity) are dropped with a warning.
    Raises :class:`CycleDetected` for cyclic input and
    :class:`UnknownElement` for pair endpoints not in ``elements``.
    """
    names = [str(x) for x in elements]
    if len(set(names)) != len(names):
        raise ValueError("element names must be unique")
    index = {x: i for i, x in enumerate(names)}
    n = len(names)
    pairs = []
    for a, b in covers:
        a, b = str(a), str(b)
        if a not in index:
            raise UnknownElement(f"unknown element {a!r} in cover pair")
        if b not in index:
            raise UnknownElement(f"unknown element {b!r} in cover pair")
        pairs.append((index[a], index[b]))

    order = _topological_order(n, pairs, names)
    up = [1 << i for i in range(n)]
    succ = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
    for i in reversed(order):
        for j in succ[i]:
            up[i] |= up[j]

    poset = Poset(names, _masks_to_rows(up, n))

    if warn_redundant:
        reduction = set(poset.cover_pairs)
        dropped = sorted({p for p in pairs if p not in reduction and p[0] != p[1]})
        for a, b in dropped:
            warnings.warn(
                f"redundant cover pair ({names[a]!r}, {names[b]!r}) dropped",
                RedundantCoverWarning,
                stacklevel=2,
            )
    return poset


def _topological_order(n, pairs, names):
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    seen = set()
    for a, b in pairs:
        if a == b:
            raise CycleDetected([names[a], names[a]])
        if (a, b) in seen:
            continue
        seen.add((a, b))
        succ[a].append(b)
        indeg[b] += 1
    order, queue = [], [i for i in range(n) if indeg[i] == 0]
    while queue:
        i = queue.pop()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(order) < n:
        cycle = _find_cycle(n, succ, indeg)
        raise CycleDetected([names[i] for i in cycle])
    return order


def _find_cycle(n, succ, indeg):
    in_cycle = {i for i in range(n) if indeg[i] > 0}
    start = min(in_cycle)
    path, seen = [start], {start}
    while True:
        nxt = next(j for j in succ[path[-1]] if j in in_cycle)
        if nxt in seen:
            return path[path.index(nxt):] + [nxt]
        path.append(nxt)
        seen.add(nxt)


# -- operations ------------------------------------------------------------


def down_set(p: Poset, x: str) -> frozenset[str]:
    """Principal down-set { y : y <= x }, including x itself."""
    i = p.index(x)
    return frozenset(p.names[j] for j in np.nonzero(p.leq[:, i])[0])


def up_set(p: Poset, x: str) -> frozenset[str]:
    """Principal up-set { y : x <= y }."""
    i = p.index(x)
    return frozenset(p.names[j] for j in np.nonzero(p.leq[i, :])[0])


def order_ideal_masks(p: Poset, cap: int = DEFAULT_IDEAL_CAP) -> list[int]:
    """All down-sets of ``p`` as element bitmasks, deterministically ordered.

    Enumeration walks a linear extension: at each element either include it,
    or exclude it and block everything above it.  Result is sorted by
    (size, index tuple).  Raises :class:`SizeLimitExceeded` past ``cap``.
    """
    order = p.topo_order
    up = p.up_masks
    out = []
    n = p.n
    # iterative DFS; frame = (position, ideal mask, blocked mask)
    stack = [(0, 0, 0)]
    while stack:
        pos, cur, blocked = stack.pop()
        while pos < n and (blocked >> order[pos]) & 1:
            pos += 1
        if pos == n:
            out.append(cur)
            if len(out) > cap:
                raise SizeLimitExceeded(
                    f"more than {cap} order ideals; raise the cap to proceed"
                )
            continue
        t = order[pos]
        stack.append((pos + 1, cur, blocked | up[t]))
        stack.append((pos + 1, cur | (1 << t), blocked))
    out.sort(key=lambda m: (bin(m).count("1"), _mask_indices(m)))
    return out


def order_ideals(p: Poset, cap: int = DEFAULT_IDEAL_CAP) -> list[frozenset[str]]:
    """All down-sets of ``p`` as name sets (includes the empty and full set)."""
    return [
        frozenset(p.names[i] for i in _mask_indices(m))
        for m in order_ideal_masks(p, cap)
    ]


def _mask_indices(m: int) -> tuple[int, ...]:
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def dual_poset(p: Poset) -> Poset:
    """Same elements with the order reversed; an involution."""
    return Poset(p.names, p.leq.T)


# -- isomorphism -----------------------------------------------------------


def is_isomorphic(
    p: Poset, q: Poset, *, limit: int = DEFAULT_ISO_CAP
) -> Optional[dict[str, str]]:
    """Search for an order isomorphism p -> q.

    Returns a name-to-name bijection preserving <= in both directions, or
    None.  Backtracking over refinement classes (degree/level invariants),
    deterministic: the first mapping under canonical candidate order is
    returned.  Raises :class:`SizeLimitExceeded` above ``limit`` elements.
    """
    if p.n != q.n:
        return None
    if p.n > limit:
        raise SizeLimitExceeded(
            f"isomorphism search capped at {limit} elements (got {p.n})"
        )
    if p.n == 0:
        return {}
    cp, cq = _refine_colors_jointly(p, q)
    if sorted(cp) != sorted(cq):
        return None

    by_color_q: dict[int, list[int]] = {}
    for j, c in enumerate(cq):
        by_color_q.setdefault(c, []).append(j)
    # assign the most constrained color classes first, index as tie-break
    order = sorted(range(p.n), key=lambda i: (len(by_color_q[cp[i]]), cp[i], i))

    n = p.n
    leq_p, leq_q = p.leq, q.leq
    mapping = [-1] * n
    used = [False] * n
    # same-name candidates first so a poset maps to itself identically
    candidates = {
        i: sorted(by_color_q[cp[i]], key=lambda j: (q.names[j] != p.names[i], j))
        for i in range(n)
    }

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for a in order[:k]:
                b = mapping[a]
                if leq_p[i, a] != leq_q[j, b] or leq_p[a, i] != leq_q[b, j]:
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    if not extend(0):
        return None
    return {p.names[i]: q.names[mapping[i]] for i in range(n)}


def _refine_colors_jointly(p: Poset, q: Poset) -> tuple[list[int], list[int]]:
    """Stable 1-WL-style colors on both cover digraphs with a shared table.

    Initial color = (downset size, upset size, lower/upper cover counts);
    each round folds in the sorted colors of cover neighbours.
    """

    def base(r: Poset):
        down = r.leq.sum(axis=0)
        up = r.leq.sum(axis=1)
        lower = [r.lower_covers(i) for i in range(r.n)]
        upper = [r.upper_covers(i) for i in range(r.n)]
        cols = [
            (int(down[i]), int(up[i]), len(lower[i]), len(upper[i]))
            for i in range(r.n)
        ]
        return cols, lower, upper

    cp, lp, up_p = base(p)
    cq, lq, up_q = base(q)
    cp, cq = _canon_pair(cp, cq)
    for _ in range(max(p.n, q.n)):
        np_ = [
            (cp[i], tuple(sorted(cp[j] for j in lp[i])), tuple(sorted(cp[j] for j in up_p[i])))
            for i in range(p.n)
        ]
        nq_ = [
            (cq[i], tuple(sorted(cq[j] for j in lq[i])), tuple(sorted(cq[j] for j in up_q[i])))
            for i in range(q.n)
        ]
        np_, nq_ = _canon_pair(np_, nq_)
        if len(set(np_) | set(nq_)) == len(set(cp) | set(cq)):
            return np_, nq_
        cp, cq = np_, nq_
    return cp, cq


def _canon_pair(a, b) -> tuple[list[int], list[int]]:
    table = {v: k for k, v in enumerate(sorted(set(a) | set(b)))}
    return [table[v] for v in a], [table[v] for v in b]
