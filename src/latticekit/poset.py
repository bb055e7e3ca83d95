"""Finite posets built from cover relations.

Element names are opaque strings; every algorithm works on dense integer
indices, with the order relation held as a boolean matrix and the covers
as one (2, covers) int32 array of (lower, upper) index pairs.  Sets of
elements (down-sets, up-sets, order ideals) are packed rows: an (m, words)
uint64 array with element j at bit j % 64 of little-endian word j // 64,
so closures, ideal enumeration and bound searches are word-parallel array
steps.  The O(m²) passes over rows of one word (subset tests, the lattice
proof's gathers, the distributivity certificates) read them as 1-d words
of the narrowest unsigned dtype that holds them (:func:`_narrow_words`):
NumPy gathers uint64 words about five times slower than narrower ones.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from itertools import compress
from operator import ne
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CycleDetected, SizeLimitExceeded, UnknownElement

DEFAULT_IDEAL_CAP = 10_000_000
DEFAULT_ISO_CAP = 1000
TABLE_BLOCK_CELLS = 2**16  # 64-bit words of working space per row block (512 KB)
TRANSPOSE_TILE = 256  # side of the square tiles a transposed copy is made in


class RedundantCoverWarning(UserWarning):
    """An input cover pair was implied by the others and was dropped."""


class Poset:
    """Immutable finite poset.

    ``leq`` is an n-by-n boolean matrix, ``leq[i, j]`` meaning
    ``names[i] <= names[j]``, and the only n² array a poset holds.  The
    cover relation, the transitive reduction of ``leq``, is held as sorted
    index pairs (:attr:`cover_arrays`, and :attr:`covers_by_upper` for
    lower covers), set by the builder or derived on first use.  Instances
    are safe for concurrent reads; nothing mutates them after
    construction.
    """

    def __init__(self, names: Sequence[str], leq: np.ndarray):
        names = tuple(str(x) for x in names)
        if len(set(names)) != len(names):
            raise ValueError("element names must be unique")
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (len(names), len(names)):
            raise ValueError("leq matrix shape does not match element count")
        leq = _c_ordered_copy(leq)
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
        return f"Poset({self.n} elements, {self.cover_arrays.shape[1]} covers)"

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
    def cover_arrays(self) -> np.ndarray:
        """The cover pairs as a read-only (2, covers) int32 array, row 0 the
        lower ends and row 1 the upper ends, in row-major order: lower
        ascending, then upper.  ``lower, upper = p.cover_arrays`` gives the
        two index arrays.

        Every builder that knows its pairs sets them when it builds the
        poset (:func:`_set_covers`): :func:`build_poset` from the pairs it
        was given, lattices of sets (:func:`latticekit.lattice.set_family_lattice`:
        J(P), B_n, FD(n)) from their join table, Stanley's snapshots from
        their one-element steps, and the dual, intervals and adjoined
        bounds of a lattice from its own pairs.  Covers read off
        tables are safe to hand the constructor's check (which reads them on
        rows wider than a word) only because those tables are already known
        to be right: ``set_family_tables`` confirms every ∩ and ∪ word by
        word, and a ring of sets is distributive.  A poset built from a bare
        order (:meth:`restrict`, ``Poset(names, leq)`` handed to
        ``as_lattice``) finds them here, on first use, by the rule
        :func:`build_poset` uses on its listed pairs, applied to all strict
        pairs (:func:`_order_covers`).  Grading, chains, isomorphism,
        interval classes, the modular and pentagon certificates and the
        lattice check on rows wider than a word read them; irreducibles come
        from :attr:`irreducible_rows`.
        """
        return _frozen_pairs(_order_covers(self.leq))

    @cached_property
    def covers_by_upper(self) -> np.ndarray:
        """The cover pairs with their rows swapped, (upper, lower), ordered
        by upper, then lower: the row-major pairs of the dual order.  A
        stable sort by upper keeps each upper's lower ends ascending."""
        return _frozen_pairs(self.cover_arrays[::-1, self.cover_arrays[1].argsort(kind="stable")])

    @cached_property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (lower, upper) as indices, in row-major order."""
        return tuple(zip(*self.cover_arrays.tolist()))

    @cached_property
    def irreducible_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(S, φ, S′, ψ), read off the order alone in O(n²): S flags the
        elements with at most one lower cover (:func:`_one_cover_flags`) and
        φ(x) = S ∩ down(x) are packed rows; S′ and ψ(x) = S′ ∩ up(x) are the
        same upward.  In a lattice S = J ∪ {0} and S′ = M ∪ {1}.  The table
        lookup, the lattice check, the join-irreducibles and both
        distributivity certificates read these rows, and no covers."""
        below, above = (_one_cover_flags(self.leq, lower) for lower in (True, False))
        down, up = self.leq[below].T, np.compress(above, self.leq, axis=1)
        view = (below, _pack_rows(down), above, _pack_rows(up))
        for part in view:
            part.flags.writeable = False
        return view

    def cover_names(self) -> list[tuple[str, str]]:
        return [(self.names[a], self.names[b]) for a, b in self.cover_pairs]

    @cached_property
    def _cover_lists(self) -> list[list[list[int]]]:
        """Each element's upper covers, then each element's lower covers,
        ascending: the second row of :attr:`cover_arrays` and of
        :attr:`covers_by_upper`, cut where the first row moves on."""
        lists, cuts = [], np.arange(self.n + 1)
        for first, second in (self.cover_arrays, self.covers_by_upper):
            ends, second = np.searchsorted(first, cuts).tolist(), second.tolist()
            lists.append([second[a:b] for a, b in zip(ends, ends[1:])])
        return lists

    def lower_covers(self, i: int) -> list[int]:
        return list(self._cover_lists[1][i])

    def upper_covers(self, i: int) -> list[int]:
        return list(self._cover_lists[0][i])

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


def _frozen_pairs(pairs: np.ndarray) -> np.ndarray:
    """The (2, k) index ``pairs`` as a read-only int32 array."""
    pairs = pairs.astype(np.int32)
    pairs.flags.writeable = False
    return pairs


# -- packed rows -------------------------------------------------------------


def _c_ordered_copy(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of the 2-d array ``a``.  A transposed view (an
    F-ordered ``a``) is copied in ``TRANSPOSE_TILE``-square tiles: NumPy's
    strided copy of it reads memory several times slower."""
    if a.flags.c_contiguous or not a.flags.f_contiguous:
        return np.array(a, order="C")
    out, tile = np.empty(a.shape, dtype=a.dtype), TRANSPOSE_TILE
    for i in range(0, a.shape[0], tile):
        for j in range(0, a.shape[1], tile):
            out[i : i + tile, j : j + tile] = a[i : i + tile, j : j + tile]
    return out


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Boolean (m, n) rows as an (m, words) uint64 array, words >= 1: bit j
    of a row is bit j % 64 of its little-endian word j // 64.  ``packbits``
    is fast on C-ordered rows only, so other rows (``leq.T``, say) are
    copied first."""
    bits = bits if bits.flags.c_contiguous else _c_ordered_copy(bits)
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


def _narrow_words(rows: np.ndarray) -> np.ndarray:
    """Packed rows at their narrowest: one-word rows as a 1-d array of the
    narrowest unsigned dtype that holds them (uint8, 16, 32 or 64, read
    off the largest row; narrowing again changes nothing), wider rows as
    they are.  Gathering 512 words by a 128×512 int16 table block takes
    about 0.065 ms on uint8, uint16 or uint32 words and 0.32 ms on uint64
    (2-vCPU x86-64 VM, NumPy 2.4.6).  The width is read off the rows, so
    there is no setting."""
    if rows.ndim == 2:
        if rows.shape[1] > 1:
            return rows
        rows = rows[:, 0]
    return rows.astype(np.min_scalar_type(int(rows.max(initial=0))), copy=False)


def _subset_blocks(rows: np.ndarray, wanted: Optional[np.ndarray] = None):
    """``(block, inside)`` for each row block of the packed ``rows`` (see
    :func:`_row_blocks`) that holds a row flagged in ``wanted`` (every
    block by default): ``inside[i', j]`` is whether row i (counted from the
    block's first row) is a subset of row j.  No (m, m, words) temporary:
    about ``TABLE_BLOCK_CELLS`` words at a time.  One-word rows are tested
    as 1-d words of their narrowest width (:func:`_narrow_words`): the
    2100 rows of 15 bits of a J(P) take 1.5-2.9 ms as uint16 instead of
    6.4-9.7 ms as uint64 (best of 7 in-process runs, six times; 2-vCPU
    x86-64 VM, NumPy 2.4.6)."""
    rows = _narrow_words(rows)
    outside = ~rows
    for block in _row_blocks(len(rows), rows.size):
        if wanted is None or wanted[block].any():
            common = rows[block, None] & outside
            yield block, common == 0 if rows.ndim == 1 else ~common.any(axis=2)


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
    of pairs that generates the order, so :attr:`Poset.cover_arrays` are
    the listed pairs less the redundant ones (see
    :func:`_redundant_pairs`), found in O(pairs·n/64) word operations.
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
    _set_covers(poset, listed[:, ~redundant])

    if warn_redundant:
        for a, b in sorted(listed[:, redundant].T.tolist()):
            warnings.warn(
                f"redundant cover pair ({names[a]!r}, {names[b]!r}) dropped",
                RedundantCoverWarning,
                stacklevel=2,
            )
    return poset


def _set_covers(poset: Poset, pairs: np.ndarray) -> None:
    """Set ``poset.cover_arrays`` to the (lower, upper) index ``pairs``, a
    (2, k) array in any column order, which the poset's builder knows to be
    exactly the transitive reduction, so that the bare-order rule
    (:func:`_order_covers`) never runs."""
    poset.__dict__["cover_arrays"] = _frozen_pairs(pairs[:, np.lexsort(pairs[::-1])])


def _known_covers(poset: Poset) -> Optional[np.ndarray]:
    """``poset.cover_arrays`` when they are already set or derived, else
    None, so that a derived poset can take them over without paying for
    them."""
    return poset.__dict__.get("cover_arrays")


def _order_covers(leq: np.ndarray) -> np.ndarray:
    """The bare-order rule: the cover pairs of the partial order ``leq``,
    a (2, k) array in row-major order, as the strict pairs less
    :func:`_redundant_pairs`: O(n²) to list the pairs and O(pairs·n/64)
    word operations to test them.

    A pair a ≤ b (a ≠ b) is redundant when some c has a ≤ c ≤ b with
    neither c ≤ a nor b ≤ c.  On a partial order that says c ∉ {a, b}; on
    a relation with two distinct elements below each other it need not."""
    pairs = np.array(np.divmod(np.flatnonzero(leq), len(leq)))
    cover = ~_redundant_pairs(_pack_rows(leq), _pack_rows(leq.T), pairs)
    return pairs[:, cover & (pairs[0] != pairs[1])]


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
    ``up`` and ``down`` are packed rows, read one word of every row at a
    time: O(pairs·n/64) word operations on temporaries the size of
    ``pairs``."""
    flags = np.zeros(pairs.shape[1], dtype=bool)
    for above, below in zip((up & ~down).T, (down & ~up).T):  # up(x) ∩ down(x) = {x}
        flags |= (above[pairs[0]] & below[pairs[1]]) != 0
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
    """A cycle among the elements Kahn's pass left unplaced (``indeg`` >
    0): from the least of them that reaches one, always on to the first
    successor that does.  An unplaced element may only lie above a cycle
    and reach none, so those are peeled off first, sinks inward (Kahn's
    pass on the reversed pairs), in O(n + pairs)."""
    in_cycle = {i for i in range(n) if indeg[i] > 0}
    below = {i: [] for i in in_cycle}
    ahead = dict.fromkeys(in_cycle, 0)  # successors still in the set
    for a in in_cycle:
        for b in succ[a]:
            if b in in_cycle:
                below[b].append(a)
                ahead[a] += 1
    sinks = [i for i in in_cycle if not ahead[i]]
    while sinks:
        b = sinks.pop()
        in_cycle.discard(b)
        for a in below[b]:
            ahead[a] -= 1
            if not ahead[a]:
                sinks.append(a)
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
    over with the sides swapped: ``p``'s pairs by upper are the dual's
    pairs in row-major order, and the dual's down-set rows are ``p``'s
    up-set rows, so (S′, ψ, S, φ) is exactly what the dual would compute.
    What ``p`` has not found, the dual finds for itself."""
    q = Poset(p.names, p.leq.T)
    if _known_covers(p) is not None:
        q.__dict__.update(cover_arrays=p.covers_by_upper, covers_by_upper=p.cover_arrays)
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
    returned (:func:`_colored_isomorphism`, every element one colour).
    Raises :class:`SizeLimitExceeded` above ``limit`` elements.
    """
    if p.n != q.n:
        return None
    if p.n > limit:
        raise SizeLimitExceeded(
            f"isomorphism search capped at {limit} elements (got {p.n})"
        )
    image = _colored_isomorphism(p, q, [0] * p.n, [0] * q.n)
    if image is None:
        return None
    return {p.names[i]: q.names[j] for i, j in enumerate(image)}


def _colored_isomorphism(
    p: Poset, q: Poset, colors_p: Sequence[int], colors_q: Sequence[int]
) -> Optional[list[int]]:
    """``image[i]``, the index in ``q`` of p's element i, for the first
    order isomorphism p -> q that maps each element to one of the same
    initial colour, or None.  The colours seed the refinement
    (:func:`_refine_colors_jointly`), whose classes only split them, and an
    element is tried only against q's elements of its own class, so the
    search never leaves a colour: a map it rejects for breaking one is
    never returned in place of one that keeps them.

    Backtracking with an explicit stack, so no recursion limit applies:
    the most constrained class first, index as tie-break; candidates with
    p's name first, so that a poset maps to itself identically, then by
    index.  A candidate is kept when it relates to every element placed
    so far as its preimage does, read off ``2·leq + leqᵀ`` as Python lists:
    entry [i][a] is 0 when i and a are incomparable, 1 when a < i, 2 when
    i < a and 3 when i = a.
    """
    n = p.n
    if n == 0:
        return []
    cp, cq = _refine_colors_jointly(p, q, colors_p, colors_q)
    if sorted(cp) != sorted(cq):
        return None

    by_color_q: dict[int, list[int]] = {}
    for j, c in enumerate(cq):
        by_color_q.setdefault(c, []).append(j)
    order = sorted(range(n), key=lambda i: (len(by_color_q[cp[i]]), cp[i], i))
    candidates = [
        sorted(by_color_q[cp[i]], key=lambda j: (q.names[j] != p.names[i], j))
        for i in range(n)
    ]
    rel_p, rel_q = ((2 * r.leq.astype(np.int8) + r.leq.T).tolist() for r in (p, q))

    used = [False] * n
    placed: list[int] = []  # placed[k]: the image of order[k]
    tried = [0] * n  # tried[k]: candidates of order[k] tried so far
    while len(placed) < n:
        k = len(placed)
        i = order[k]
        row_p, before = rel_p[i], order[:k]
        for pos in range(tried[k], len(candidates[i])):
            j = candidates[i][pos]
            if not used[j] and not any(
                map(ne, map(row_p.__getitem__, before), map(rel_q[j].__getitem__, placed))
            ):
                tried[k] = pos + 1
                used[j] = True
                placed.append(j)
                break
        else:  # no candidate left for order[k]: take back order[k - 1]'s
            if k == 0:
                return None
            tried[k] = 0
            used[placed.pop()] = False
    image = [0] * n
    for i, j in zip(order, placed):
        image[i] = j
    return image


def _refine_colors_jointly(
    p: Poset, q: Poset, colors_p: Sequence[int], colors_q: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Stable 1-WL-style colors on both cover digraphs with a shared table.

    Initial color = (given color, downset size, upset size, lower/upper
    cover counts); each round folds in the sorted colors of cover
    neighbours.
    """

    def base(r: Poset, colors):
        down = r.leq.sum(axis=0)
        up = r.leq.sum(axis=1)
        upper, lower = r._cover_lists
        cols = [
            (colors[i], int(down[i]), int(up[i]), len(lower[i]), len(upper[i]))
            for i in range(r.n)
        ]
        return cols, lower, upper

    cp, lp, up_p = base(p, colors_p)
    cq, lq, up_q = base(q, colors_q)
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
