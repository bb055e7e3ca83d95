"""Finite posets built from cover relations.

Element names are opaque strings; every algorithm works on dense integer
indices, with the order relation held as a boolean matrix.  Sets of
elements (down-sets, up-sets, order ideals) are packed rows: an (m, words)
uint64 array with element j at bit j % 64 of little-endian word j // 64,
so closures, ideal enumeration and bound searches are word-parallel array
steps.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CycleDetected, SizeLimitExceeded, UnknownElement

DEFAULT_IDEAL_CAP = 10_000_000
DEFAULT_ISO_CAP = 1000
TABLE_BLOCK_CELLS = 2**16  # 64-bit words of working space per row block (512 KB)


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
        """Boolean matrix of the transitive reduction (j covers i).

        Most builders set it when they build the poset (:func:`_set_covers`):
        :func:`build_poset` from the pairs it was given, lattices of sets
        (:func:`latticekit.lattice.set_family_lattice`: J(P), B_n, FD(n))
        from their join table, and the dual, intervals and adjoined bounds
        of a lattice from its own covers.  Covers read off tables are safe
        to hand the constructor's check (which reads them on rows wider than
        a word) only because those tables are already known to be right:
        ``set_family_tables`` confirms every ∩ and ∪ word by word, and a
        ring of sets is distributive.  A poset built from a bare order
        (Stanley's snapshots, :meth:`restrict`, ``Poset(names, leq)`` handed
        to ``as_lattice``) finds it here, on first use, by a float32
        matmul, O(n³) time and two n² float32 temporaries.  Grading, chains,
        isomorphism, interval classes, the modular and pentagon certificates
        and the lattice check on rows wider than a word read it;
        irreducibles come from :attr:`irreducible_rows`.
        """
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        # float32 counts are exact: each is at most n - 2, far below 2**24
        ltf = lt.astype(np.float32)
        between = (ltf @ ltf) > 0.5  # some k with i < k < j
        out = lt & ~between
        out.flags.writeable = False
        return out

    @cached_property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (lower, upper) as indices, in canonical order, which is
        the row-major order of ``np.nonzero``."""
        lo, up = np.nonzero(self.covers_matrix)
        return tuple(zip(lo.tolist(), up.tolist()))

    @cached_property
    def irreducible_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(S, φ, S′, ψ), read off the order alone in O(n²): S flags the
        elements with at most one lower cover (:func:`_one_cover_flags`) and
        φ(x) = S ∩ down(x) are packed rows; S′ and ψ(x) = S′ ∩ up(x) are the
        same upward.  In a lattice S = J ∪ {0} and S′ = M ∪ {1}.  The table
        lookup, the lattice check, the join-irreducibles and both
        distributivity certificates read these rows, and no covers."""
        below, above = (_one_cover_flags(self.leq, lower) for lower in (True, False))
        # packbits is fast on C-ordered rows only, which a[:, flags] does not give
        down, up = np.ascontiguousarray(self.leq[below].T), np.compress(above, self.leq, axis=1)
        view = (below, _pack_rows(down), above, _pack_rows(up))
        for part in view:
            part.flags.writeable = False
        return view

    def cover_names(self) -> list[tuple[str, str]]:
        return [(self.names[a], self.names[b]) for a, b in self.cover_pairs]

    def lower_covers(self, i: int) -> list[int]:
        return np.nonzero(self.covers_matrix[:, i])[0].tolist()

    def upper_covers(self, i: int) -> list[int]:
        return np.nonzero(self.covers_matrix[i, :])[0].tolist()

    @cached_property
    def minimal_indices(self) -> tuple[int, ...]:
        col = self.leq.sum(axis=0)  # how many elements are <= i
        return tuple(int(i) for i in np.nonzero(col == 1)[0])

    @cached_property
    def topo_order(self) -> tuple[int, ...]:
        """A linear extension: below-counts ascending, index as tie-break."""
        return tuple(np.argsort(self.leq.sum(axis=0), kind="stable").tolist())

    def restrict(self, indices: Sequence[int]) -> "Poset":
        """Induced subposet on the given indices (order of ``indices`` kept)."""
        idx = list(indices)
        sub = self.leq[np.ix_(idx, idx)]
        return Poset([self.names[i] for i in idx], sub)


# -- packed rows -------------------------------------------------------------


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Boolean (m, n) rows as an (m, words) uint64 array, words >= 1: bit j
    of a row is bit j % 64 of its little-endian word j // 64."""
    m, n = bits.shape
    raw = np.zeros((m, 8 * max(1, -(-n // 64))), dtype=np.uint8)
    raw[:, : -(-n // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return raw.view("<u8")


def _unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The inverse of :func:`_pack_rows`: packed rows as boolean (m, n) rows."""
    raw = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little").view(bool)


def _set_keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per set: the word itself, or the words' bytes."""
    width = words.shape[-1]
    dtype = np.uint64 if width == 1 else np.dtype(f"S{8 * width}")
    return np.ascontiguousarray(words).view(dtype)[..., 0]


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct packed rows in (size, index tuple) order.

    One sort on a bytes key: the size, then the complement's bits, element
    0 first (among sets of one size, ascending index tuples are descending
    bit strings).  Padding bits are clear in every row and change nothing.
    """
    bits = _unpack_rows(rows, 64 * rows.shape[1])
    size = bits.sum(axis=1).astype(">u4").view(np.uint8).reshape(-1, 4)
    key = np.concatenate([size, np.packbits(~bits, axis=1)], axis=1)
    _, first = np.unique(key.view(f"S{key.shape[1]}")[:, 0], return_index=True)
    return rows[first]


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Slices of ``rows`` table rows of ``cols`` cells, about
    ``TABLE_BLOCK_CELLS`` cells per slice."""
    block = max(1, TABLE_BLOCK_CELLS // max(cols, 1))
    return [slice(start, start + block) for start in range(0, rows, block)]


def _subset_blocks(rows: np.ndarray):
    """``(block, inside)`` for each row block of the packed ``rows`` (see
    :func:`_row_blocks`): ``inside[i', j]`` is whether row i (counted from
    the block's first row) is a subset of row j.  No (m, m, words)
    temporary: about ``TABLE_BLOCK_CELLS`` words at a time."""
    outside = ~rows
    for block in _row_blocks(len(rows), rows.size):
        yield block, ~(rows[block, None] & outside).any(axis=2)


def _one_cover_flags(leq: np.ndarray, lower: bool) -> np.ndarray:
    """Flags the elements of the partial order ``leq`` with at most one
    lower cover (``lower``), else with at most one upper cover, found
    without the covers in O(n²): x has one lower cover y exactly when
    some y < x has |down(y)| = |down(x)| − 1, for then down(y) is down(x)
    less x, and every z < x lies below y.  One pass over row blocks of
    ``leq``; on any other boolean matrix the flags mean nothing."""
    n = len(leq)
    size = leq.sum(axis=0 if lower else 1, dtype=np.int32)
    flags = size == 1
    for block in _row_blocks(n, n):
        rows = leq[block]
        if lower:  # y in the block, below x
            flags |= (rows & (size == size[block, None] + 1)).any(axis=0)
        else:  # x in the block, below y
            flags[block] |= (rows & (size[block, None] == size + 1)).any(axis=1)
    return flags


# -- construction ---------------------------------------------------------


def build_poset(
    elements: Sequence[str],
    covers: Iterable[tuple[str, str]],
    *,
    warn_redundant: bool = True,
) -> Poset:
    """Build a poset from named elements and (lower, upper) cover pairs.

    The order is the reflexive-transitive closure of the pairs; redundant
    input pairs (implied by transitivity) are dropped with a warning, in
    ascending index order.  The transitive reduction lies inside every set
    of pairs that generates the order, so :attr:`Poset.covers_matrix` is
    the listed pairs less the redundant ones (see
    :func:`_redundant_pairs`), found in O(pairs·n/64) word operations and
    never by a matmul.
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

    down, listed = _closure(n, pairs, names)
    poset = Poset(names, _unpack_rows(down, n).T)
    redundant = _redundant_pairs(_pack_rows(poset.leq), down, listed)
    covers = np.zeros((n, n), dtype=bool)
    covers[tuple(listed[:, ~redundant])] = True
    _set_covers(poset, covers)

    if warn_redundant:
        for a, b in sorted(listed[:, redundant].T.tolist()):
            warnings.warn(
                f"redundant cover pair ({names[a]!r}, {names[b]!r}) dropped",
                RedundantCoverWarning,
                stacklevel=2,
            )
    return poset


def _set_covers(poset: Poset, covers: np.ndarray) -> None:
    """Fill ``poset.covers_matrix`` with ``covers``, a C-ordered boolean
    matrix that the poset's builder knows to be exactly the transitive
    reduction, so that no matmul runs."""
    covers.flags.writeable = False
    poset.__dict__["covers_matrix"] = covers  # the cached_property's slot


def _known_covers(poset: Poset) -> Optional[np.ndarray]:
    """``poset.covers_matrix`` when it is already set or computed, else
    None, so that a derived poset can take it over without paying for it."""
    return poset.__dict__.get("covers_matrix")


def _closure(n, pairs, names) -> tuple[np.ndarray, np.ndarray]:
    """Packed down-set rows of the reflexive-transitive closure of the
    (lower, upper) index pairs, and the distinct pairs as a (2, k) array.

    Packed rows are closed one level at a time, sources first (see
    :func:`_kahn_levels`): one array OR hands each level's down-sets to the
    elements they cover.
    """
    down = _pack_rows(np.eye(n, dtype=bool))
    levels = [np.array(edges, dtype=np.intp).T for edges in _kahn_levels(n, pairs, names) if edges]
    for lower, upper in levels:
        np.bitwise_or.at(down, upper, down[lower])
    return down, np.concatenate([np.empty((2, 0), dtype=np.intp), *levels], axis=1)


def _redundant_pairs(up: np.ndarray, down: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Flags the pairs a < b (``pairs`` as a (lower, upper) array) with some
    element c, a < c < b: those whose up(a) ∩ down(b) holds more than a and
    b, that is, whose strict up-set of a and strict down-set of b meet.
    ``up`` and ``down`` are packed rows; one block of pairs at a time,
    O(pairs·n/64) word operations."""
    above, below = up & ~down, down & ~up  # up(x) ∩ down(x) = {x}
    flags = np.empty(pairs.shape[1], dtype=bool)
    for part in _row_blocks(len(flags), up.shape[1]):
        a, b = pairs[:, part]
        flags[part] = (above[a] & below[b]).any(axis=1)
    return flags


def _kahn_levels(n, pairs, names) -> list[list[tuple[int, int]]]:
    """The distinct (lower, upper) index pairs by Kahn level: level k holds
    the pairs leaving the elements whose lower covers all lie in earlier
    levels.  O(n + pairs).  Raises :class:`CycleDetected` on a self-pair or
    a cycle, naming the cycle reached from the least element left unplaced.
    """
    succ = [[] for _ in range(n)]
    pending = [0] * n  # lower covers not yet reached
    for a, b in dict.fromkeys(pairs):
        if a == b:
            raise CycleDetected([names[a], names[a]])
        succ[a].append(b)
        pending[b] += 1
    levels = []
    level = [i for i in range(n) if pending[i] == 0]
    while level:
        edges = [(a, b) for a in level for b in succ[a]]
        levels.append(edges)
        level = []
        for _, b in edges:
            pending[b] -= 1
            if pending[b] == 0:
                level.append(b)
    if any(pending):
        cycle = _find_cycle(n, succ, pending)
        raise CycleDetected([names[i] for i in cycle])
    return levels


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


def order_ideal_masks(p: Poset, cap: int = DEFAULT_IDEAL_CAP) -> np.ndarray:
    """All down-sets of ``p`` as packed rows (see :func:`_pack_rows`),
    ordered by (size, index tuple).

    Built one element t of a linear extension at a time: each down-set
    found so far that holds t's strict down-set gives one more, with t
    added.  Each is made once, and one sort orders them all.  Raises
    :class:`SizeLimitExceeded` past ``cap``.
    """
    n = p.n
    down = _pack_rows(p.leq.T)
    strict = _pack_rows(p.leq.T & ~np.eye(n, dtype=bool))
    rows = _pack_rows(np.zeros((1, n), dtype=bool))
    for t in p.topo_order:
        grow = ((rows & strict[t]) == strict[t]).all(axis=1)
        rows = np.concatenate([rows, rows[grow] | down[t]])
        if len(rows) > cap:
            break
    if len(rows) > cap:
        raise SizeLimitExceeded(
            f"more than {cap} order ideals; raise the cap to proceed"
        )
    return _canonical_rows(rows)


def order_ideals(p: Poset, cap: int = DEFAULT_IDEAL_CAP) -> list[frozenset[str]]:
    """All down-sets of ``p`` as name sets (includes the empty and full set)."""
    return [
        frozenset(compress(p.names, row))
        for row in _unpack_rows(order_ideal_masks(p, cap), p.n).tolist()
    ]


def dual_poset(p: Poset) -> Poset:
    """Same elements with the order reversed; an involution.

    Covers and the irreducible-row view that ``p`` has already found pass
    over, reversed and with the sides swapped: the dual's down-set rows are
    ``p``'s up-set rows, so (S′, ψ, S, φ) is exactly what the dual would
    compute.  What ``p`` has not found, the dual finds for itself."""
    q = Poset(p.names, p.leq.T)
    covers = _known_covers(p)
    if covers is not None:
        _set_covers(q, np.ascontiguousarray(covers.T))
    if "irreducible_rows" in p.__dict__:
        below, phi, above, psi = p.irreducible_rows
        q.__dict__["irreducible_rows"] = (above, psi, below, phi)
    return q


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
