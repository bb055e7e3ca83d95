"""Lattices on top of posets: total meet/join tables, grading, join
irreducibles, generated sublattices and rank.

A :class:`Lattice` is a poset and its two tables; its constructor checks
them and reads the bottom and top off the order, so no builder passes them.

Every meet/join table comes from one pair lookup, :func:`_pair_lookup`:
two packed rows combined by ``&`` or ``|``, found among the rows of a
family.  One-word rows with keys below len(rows)² (the down-sets of P when
2^|P| ≤ |J(P)|², the truth tables of FD(3)) are read off a dense index of
every key; all others, multi-word rows and wide keys such as FD(5)'s
32-bit truth tables, by a sorted search.  ``as_lattice`` looks up
intersections of principal down-sets (and up-sets), cut to the
irreducibles when that keeps the order, ``set_family_tables`` the
intersections and unions of a closed family, and Stanley's construction in :mod:`latticekit.birkhoff`
the unions of its nodes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidArgument,
    NotALattice,
    NotComparable,
    NotRestricted,
    SizeLimitExceeded,
)
from .poset import (
    Poset,
    _known_covers,
    _pack_rows,
    _row_blocks,
    _set_covers,
    _set_keys,
    _subset_blocks,
    dual_poset,
)

VERIFY_LIMIT = 2000  # exhaustive table verification cap
RANK_IRREDUCIBLE_CAP = 20
TABLE_LIMIT = int(np.iinfo(np.int16).max)  # largest element count int16 tables index

Edge = tuple[str, str]


class Lattice:
    """A finite lattice: poset plus full n-by-n meet and join index tables.

    Tables are int16 numpy arrays, so a lattice has at most
    ``TABLE_LIMIT`` (32767) elements; the table builders raise
    :class:`SizeLimitExceeded` before allocating anything larger.  Lookups
    are O(1).  The constructor alone decides what is checked: up to
    ``VERIFY_LIMIT`` elements, above which checking costs as much as
    building or more, the tables are checked against the order.  When the
    join- and meet-irreducibles (with the bottom and the top) fit one
    64-bit word each, the check is O(n²) and reads no covers (see
    :meth:`_irreducible_rows_prove`); otherwise it is O(n² + covers·n), and
    the O(n³/64) pair scan runs only on tables that fail it, to name the
    first failing pair.  The bottom and top are the unique elements below
    and above all others (else :class:`NotALattice`).  Instances are
    immutable and safe for concurrent reads; the grading, the dual and the
    property verdicts are computed once and kept.
    """

    def __init__(self, poset: Poset, meet: np.ndarray, join: np.ndarray):
        self.poset = poset
        self.meet = np.asarray(meet, dtype=np.int16)
        self.join = np.asarray(join, dtype=np.int16)
        n = self.n
        for table, kind in ((self.meet, "meet"), (self.join, "join")):
            if table.shape != (n, n):
                raise InvalidArgument(f"{kind} table has shape {table.shape}, not {(n, n)}")
        self.meet.flags.writeable = False
        self.join.flags.writeable = False
        # property reports, each stored by latticekit.properties on first use
        self.verdicts: dict[str, object] = {}
        if n <= VERIFY_LIMIT:
            self._verify()
        self.bottom_index = self._unique_bound(self.leq.all(axis=1), "bottom")
        self.top_index = self._unique_bound(self.leq.all(axis=0), "top")

    # -- delegation -------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self.poset.names

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def leq(self) -> np.ndarray:
        return self.poset.leq

    def index(self, name: str) -> int:
        return self.poset.index(name)

    def le(self, a: str, b: str) -> bool:
        return self.poset.le(a, b)

    @property
    def bottom(self) -> str:
        return self.names[self.bottom_index]

    @property
    def top(self) -> str:
        return self.names[self.top_index]

    def meet_of(self, a: str, b: str) -> str:
        return self.names[self.meet[self.index(a), self.index(b)]]

    def join_of(self, a: str, b: str) -> str:
        return self.names[self.join[self.index(a), self.index(b)]]

    def __repr__(self):
        return f"Lattice({self.n} elements, bottom={self.bottom!r}, top={self.top!r})"

    # -- verification ------------------------------------------------------

    def _unique_bound(self, flags: np.ndarray, kind: str) -> int:
        """The one element set in ``flags``, else NotALattice."""
        found = np.flatnonzero(flags)
        if len(found) != 1:
            raise NotALattice(None, [self.names[i] for i in found], kind)
        return int(found[0])

    def _verify(self):
        """Check that ``meet`` and ``join`` are the glb and lub of ``leq``:
        entries in range, bounds, the lub/glb universal property, absorption,
        b<=a <=> a^b=b <=> avb=a, and antisymmetry, which a preorder's tables fail alone.

        Tables in range are first offered to :meth:`_irreducible_rows_prove`,
        O(n²) on rows of one word, which reads no covers; a proof there
        means every later check holds.  Wider rows, and tables it cannot
        prove, take the checks below in order, O(n² + covers·n): the
        universal property is proved by :meth:`_lattice_laws_hold`, and the
        O(n³/64) pair scan (:meth:`_scan_pairs`) runs only when that proof
        fails, to accept the tables or to name the first failing pair.  So
        every :class:`NotALattice` comes from these checks alone.
        """
        n = self.n
        meet, join = self.meet, self.join
        for table, kind in ((join, "join"), (meet, "meet")):
            if table.size and not 0 <= table.min() <= table.max() < n:
                raise NotALattice(("<table>", "<table>"), [], kind)
        if self._irreducible_rows_prove():
            return
        flat, index = self.leq.ravel(), np.arange(n)
        # join(a,b) is an upper bound and meet(a,b) a lower bound of a and b;
        # flat[x * n + y] reads x <= y, one block of rows a at a time
        lower = True
        for rows in _row_blocks(n, n):
            a = index[rows, None]
            up, down = join[rows].astype(np.intp), meet[rows].astype(np.intp)
            if not (flat.take(a * n + up).all() and flat.take(index * n + up).all()):
                raise NotALattice(("<table>", "<table>"), [], "join")
            lower = lower and flat.take(down * n + a).all() and flat.take(down * n + index).all()
        if not lower:
            raise NotALattice(("<table>", "<table>"), [], "meet")
        if not self._lattice_laws_hold():
            self._scan_pairs()
        # absorption a ^ (a v b) = a and the order equivalences
        for rows in _row_blocks(n, n):
            a = index[rows, None]
            if not (meet.ravel().take(a * n + join[rows]) == a).all():
                raise NotALattice(("<table>", "<table>"), [], "absorption")
        if not ((meet == index[None, :]) == self.leq.T).all():
            raise NotALattice(("<table>", "<table>"), [], "meet-order")
        if not ((join == index[:, None]) == self.leq.T).all():
            raise NotALattice(("<table>", "<table>"), [], "join-order")
        if (self.leq & self.leq.T & ~np.eye(n, dtype=bool)).any():
            raise NotALattice(("<table>", "<table>"), [], "antisymmetry")

    def _irreducible_rows_prove(self) -> bool:
        """A sufficient condition, in O(n²) word operations, for ``leq`` to
        be a partial order whose glb and lub are ``meet`` and ``join``; the
        entries must be in range.  False when it cannot tell, which
        includes every input whose S or S′ below has more than 64 elements:
        those are not tried.

        Take any sets of elements S and S′, and let φ(x) = S ∩ down(x) and
        ψ(x) = S′ ∩ up(x).  Suppose that for all a, b:
        (1) leq[a, b] ⇔ φ(a) ⊆ φ(b), and leq[a, b] ⇔ ψ(b) ⊆ ψ(a);
        (2) φ is one-to-one;
        (3) φ(meet[a, b]) = φ(a) ∩ φ(b) and ψ(join[a, b]) = ψ(a) ∩ ψ(b).
        By (1) ``leq`` is reflexive and transitive, as ⊆ is, and a ≤ b ≤ a
        gives φ(a) = φ(b), so a = b by (2): a partial order.  m = meet[a, b]
        has φ(m) ⊆ φ(a) and φ(m) ⊆ φ(b), so m ≤ a and m ≤ b by (1); a
        common lower bound x has φ(x) ⊆ φ(a) ∩ φ(b) = φ(m), so x ≤ m, and m
        is the glb.  j = join[a, b] is the lub by the same steps with ψ.
        Every check of :meth:`_verify` holds of the glb and lub of a partial
        order, so none needs running.  This holds whatever S and S′ are.

        They are chosen so that (1)-(3) hold on every lattice: S and S′ are
        those of :attr:`Poset.irreducible_rows`, in a lattice J ∪ {0} and
        M ∪ {1}.  Each element is the join of the join-irreducibles below it
        (Birkhoff), so φ(a) ⊆ φ(b) gives a ≤ b, and S ∩ down(a ∧ b) =
        φ(a) ∩ φ(b); dually for ψ.  Only S and S′ of at most 64 elements are
        tried, so that φ and ψ are one word each: (1) is then one
        :func:`_reflects_order` pass per side, (2) one sort and (3) one
        gather per table, in row blocks.
        """
        n = self.n
        leq, meet, join = self.leq, self.meet, self.join
        _, phi, _, psi = self.poset.irreducible_rows
        if phi.shape[1] > 1 or psi.shape[1] > 1:
            return False
        if not (_reflects_order(phi, leq.T, exact=True) and _reflects_order(psi, leq, exact=True)):
            return False
        phi, psi = phi[:, 0], psi[:, 0]
        if len(np.unique(phi)) < n:
            return False
        for block in _row_blocks(n, n):
            if not (phi.take(meet[block]) == phi[block, None] & phi).all():
                return False
            if not (psi.take(join[block]) == psi[block, None] & psi).all():
                return False
        return True

    def _lattice_laws_hold(self) -> bool:
        """A sufficient condition, in O(n² + covers·n), for up(a) ∩ up(b) =
        up(join[a, b]) and down(a) ∩ down(b) = down(meet[a, b]) on every
        pair, which is what the pair scan checks.  It relies on what
        :meth:`_verify` checked before: every join is an upper bound and
        every meet a lower bound of its pair.  False means it cannot tell.

        (1) ``leq`` is reflexive, and the number of elements below strictly
        grows along every strict pair.  So no two elements are below each
        other, and every a < b is joined by a chain of covers a ⋖ ... ⋖ b:
        a pair that is no cover has some a < k < b, and both halves have
        smaller count differences.
        (2) ``meet`` and ``join`` are idempotent and symmetric.
        (3) For every cover a ⋖ a' and every b, join[a, b] ≤ join[a', b]
        and meet[a, b] ≤ meet[a', b].

        Order: on a cover chain y0 ⋖ ... ⋖ yk, join[yk, yk] = yk by (2), and
        if join[yi, yk] = yk then join[yi-1, yk] ≤ yk by (3) and yk ≤
        join[yi-1, yk] as an upper bound, so join[yi-1, yk] = yk by (1) and
        yi-1 ≤ join[yi-1, yk] = yk.  So the ends of every cover chain are
        ordered, a ≤ b ≤ c gives a ≤ c through the chains a to b to c, and
        ``leq`` is a partial order, with join[u, v] = v for u ≤ v; (3) then
        holds for every a ≤ a' along a chain.
        Joins: a common upper bound x of a and b has join[a, b] ≤ join[x, b]
        = join[b, x] = x, and every element above join[a, b] is above a
        and b.  Meets: for u ≤ v, u = meet[u, u] ≤ meet[v, u] ≤ u, so
        meet[u, v] = u; a common lower bound x of a and b has x = meet[x,
        b] ≤ meet[a, b], and every element below meet[a, b] is below both.
        Transitivity thus needs no check of its own (such as up(a') ⊆ up(a)
        on each cover a ⋖ a').
        """
        n = self.n
        leq, meet, join = self.leq, self.meet, self.join
        below = leq.sum(axis=0)
        if not np.array_equal(leq & (below[:, None] >= below), np.eye(n, dtype=bool)):
            return False
        index = np.arange(n)
        for table in (meet, join):
            if not (table.diagonal() == index).all() or not (table == table.T).all():
                return False
        lower, upper = np.nonzero(self.poset.covers_matrix)
        flat = leq.ravel()
        for part in _row_blocks(len(lower), n):
            a, a2 = lower[part], upper[part]
            for table in (join, meet):
                if not flat.take(table[a].astype(np.int32) * n + table[a2]).all():
                    return False
        return True

    def _scan_pairs(self):
        """Raise the NotALattice of the first pair (a ascending, joins
        before meets) whose common upper bounds are not up(join[a, b]) or
        whose common lower bounds are not down(meet[a, b]); return when
        there is none.  O(n³/64) word operations."""
        checks = ((self.leq, self.join, "join"), (self.leq.T, self.meet, "meet"))
        checks = [(_pack_rows(bounds), bounds, table, kind) for bounds, table, kind in checks]
        for a in range(self.n):
            for rows, bounds, table, kind in checks:
                wrong = ((rows[a] & rows) != rows[table[a]]).any(axis=1)
                if wrong.any():
                    b = int(np.argmax(wrong))
                    raise NotALattice(
                        (self.names[a], self.names[b]),
                        [self.names[i] for i in _extremal(bounds[a] & bounds[b], bounds)],
                        kind,
                    )

    # -- grading ------------------------------------------------------------

    @cached_property
    def grading(self) -> "GradeResult":
        return grade(self)

    @cached_property
    def dual(self) -> "Lattice":
        """Order-reversed lattice (meet and join tables swapped)."""
        return Lattice(dual_poset(self.poset), self.join, self.meet)



# -- construction ------------------------------------------------------------


def as_lattice(p: Poset) -> Lattice:
    """Promote a poset to a lattice, verifying unique lubs and glbs.

    a and b have a meet exactly when down(a) ∩ down(b) is the down-set
    down(c) of some element c, and that c is a ∧ b.  If it is, c ≤ a and
    c ≤ b because c ∈ down(c), and every common lower bound lies in down(c),
    so below c.  If a ∧ b exists, x ≤ a and x ≤ b hold exactly when
    x ≤ a ∧ b, so down(a) ∩ down(b) = down(a ∧ b).  In a partial order
    distinct elements have distinct down-sets, so the meet table is where
    down(a) ∩ down(b) lies among the principal down-sets, and a pair whose
    intersection is no principal down-set has no meet.  Joins are the same
    with up-sets.  One lookup (:func:`_pair_lookup`) serves both tables.

    The rows looked up are narrow when they can be: φ and ψ of
    :attr:`Poset.irreducible_rows`, read off the order, not the covers, and
    read again by the constructor.  In a lattice φ(x) holds the
    join-irreducibles and the bottom below x, so by Birkhoff a few bits name
    every element.  When φ(a) ⊆ φ(b) holds only for a ≤ b, the argument
    above holds with φ in place of down: every common lower bound x of a
    and b has φ(x) ⊆ φ(a) ∩ φ(b), so the element c with φ(c) = φ(a) ∩ φ(b)
    is a ∧ b, and when a ∧ b exists φ(a ∧ b) = φ(a) ∩ φ(b); joins likewise
    with ψ.  A side whose rows do not reflect the order uses the full rows.

    Raises :class:`NotALattice` with the witness pair and its set of
    minimal upper (or maximal lower) bounds; the pair is the first failing
    one with a ascending, b >= a, join checked before meet.
    """
    n = p.n
    if n == 0:
        raise NotALattice(None, [], "empty")
    _check_limit(n)
    meet = np.empty((n, n), dtype=np.int16)
    join = np.empty((n, n), dtype=np.int16)
    bad = np.zeros(n, dtype=bool)
    _, phi, _, psi = p.irreducible_rows
    for table, bounds, rows in ((join, p.leq, psi), (meet, p.leq.T, phi)):
        if not _reflects_order(rows, bounds):
            rows = _pack_rows(bounds)
        for block, found, missing in _pair_lookup(rows, np.bitwise_and, rows):
            table[block, block.start :] = found
            table[block.start :, block] = found.T
            bad[block] |= missing.any(axis=1)
    bad = np.flatnonzero(bad)
    if bad.size:  # the first flagged row holds the pair loop's first failure
        _raise_first_failure(p, int(bad[0]))
    return Lattice(p, meet, join)


def _reflects_order(rows: np.ndarray, bounds: np.ndarray, exact: bool = False) -> bool:
    """Whether packed row a ⊆ row b holds only when ``bounds[b, a]`` (with
    ``exact``, exactly when): one pass in row blocks, O(n²·words) word
    operations."""
    for block, inside in _subset_blocks(rows):
        expected = bounds[:, block].T
        if (inside != expected if exact else inside & ~expected).any():
            return False
    return True


def _check_limit(n: int, limit: Optional[int] = None) -> None:
    """The one size gate: raise :class:`SizeLimitExceeded` when n elements
    exceed ``limit`` (None for no limit) or overflow int16 tables.  Every
    input reaches it before anything n×n is allocated."""
    if limit is not None and n > limit:
        raise SizeLimitExceeded(f"lattice has {n} elements, more than the limit {limit}")
    if n > TABLE_LIMIT:
        raise SizeLimitExceeded(f"meet/join tables hold at most {TABLE_LIMIT} elements (got {n})")


def _pair_lookup(rows: np.ndarray, op, family: np.ndarray):
    """Where ``op`` of two rows lies in ``family``, one row block at a time.

    ``rows`` and ``family`` are packed (m, words) uint64 arrays and ``op``
    is ``np.bitwise_and`` or ``np.bitwise_or``.  For each block of rows i
    (see :func:`_row_blocks`) this yields ``(block, found, missing)``: for
    every j from the block's first row on, ``op(rows[i], rows[j])`` is
    ``family[found[i', j']]`` (i', j' counted from the block's first row),
    unless ``missing[i', j']`` is set because no family row equals it.
    When a row repeats in ``family``, the lowest of its indices is found.

    One-word rows whose keys are small (see :func:`_dense_index`) are read
    off a dense index of every key; every other result is found by a
    sorted search on the family's keys and confirmed word by word.
    """
    slot = _dense_index(rows, family)
    if slot is not None:
        words = rows[:, 0].astype(np.intp)  # below len(slot), so exact
        for block in _row_blocks(len(rows), rows.size):
            found = slot.take(op(words[block, None], words[block.start :]))
            yield block, found, found < 0
        return
    keys = _set_keys(family)
    order = np.argsort(keys, kind="stable")
    sorted_keys, sorted_rows = keys[order], family[order]
    for block in _row_blocks(len(rows), rows.size):
        results = op(rows[block, None], rows[None, block.start :])
        pos = np.minimum(np.searchsorted(sorted_keys, _set_keys(results)), len(order) - 1)
        yield block, order[pos], (sorted_rows.take(pos, axis=0) != results).any(axis=2)


def _dense_index(rows: np.ndarray, family: np.ndarray) -> Optional[np.ndarray]:
    """``slot[key]``: the lowest index of the family row ``key``, else -1.

    Only for one-word rows (``family`` is as wide as ``rows``), and only
    when the index is no larger than the lookups it serves: every ``&`` or
    ``|`` of two rows is at most ``span - 1``, the OR of all words, and
    ``span`` must not exceed ``len(rows)²``.  Otherwise None, and the
    lookup searches.  Families have at most ``TABLE_LIMIT`` rows, so int16
    holds every index.
    """
    if rows.shape[1] != 1:
        return None
    span = int(np.bitwise_or.reduce(np.concatenate([rows, family]), axis=None)) + 1
    if span > len(rows) ** 2:
        return None
    slot = np.full(span, -1, dtype=np.int16)
    keys, first = np.unique(family[:, 0].astype(np.intp), return_index=True)
    slot[keys] = first
    return slot


def _raise_first_failure(p: Poset, a: int) -> None:
    """Raise the NotALattice of the first failing pair in row ``a``, walking
    b upward from a with the join checked before the meet."""
    for b in range(a, p.n):
        for bounds, kind in ((p.leq, "join"), (p.leq.T, "meet")):
            least = _extremal(bounds[a] & bounds[b], bounds)
            if len(least) != 1:
                raise NotALattice(
                    (p.names[a], p.names[b]), [p.names[i] for i in least], kind
                )
    # in a partial order, common bounds with one extremal c are c's bound set: no miss
    raise InvalidArgument(f"leq is not a partial order (row {p.names[a]!r})")


def _extremal(common: np.ndarray, bounds: np.ndarray) -> list[int]:
    """The members i of the boolean row ``common`` in no other member's
    row of ``bounds``: the minimal ones when rows are up-sets, the maximal
    ones when they are down-sets."""
    members = np.flatnonzero(common)
    inside = bounds[np.ix_(members, members)] & ~np.eye(len(members), dtype=bool)
    return members[~inside.any(axis=0)].tolist()


def set_family_tables(members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order, meet and join tables of a family of sets closed under
    intersection and union.

    ``members`` is an (m, words) uint64 array holding one set per row as a
    bit mask.  Returns ``leq`` (row i is a subset of row j) and the int16
    ``meet`` and ``join`` tables (row index of the intersection and of the
    union).  Raises :class:`SizeLimitExceeded` when m exceeds
    ``TABLE_LIMIT`` and ValueError when a set repeats or an intersection or
    union is not in the family.
    """
    members = np.ascontiguousarray(members, dtype=np.uint64)
    m = len(members)
    _check_limit(m)
    if len(np.unique(_set_keys(members))) < m:
        raise ValueError("set family has a repeated member")
    meet = np.empty((m, m), dtype=np.int16)
    join = np.empty((m, m), dtype=np.int16)
    tables = ((meet, "intersection"), (join, "union"))
    lookups = [_pair_lookup(members, op, members) for op in (np.bitwise_and, np.bitwise_or)]
    for blocks in zip(*lookups):  # each row block's intersections, then its unions
        for (block, found, missing), (table, name) in zip(blocks, tables):
            if missing.any():
                i, j = np.argwhere(missing)[0] + block.start
                raise ValueError(f"set family not closed under {name}: rows {i} and {j}")
            table[block, block.start :] = found
            table[block.start :, block] = found.T
    leq = meet == np.arange(m)[:, None]
    return leq, meet, join


def set_family_lattice(names: Sequence[str], members: np.ndarray) -> Lattice:
    """The lattice of a family of sets closed under intersection and union
    (a ring of sets), one set per row of ``members`` as in
    :func:`set_family_tables`, named by ``names``; J(P), B_n and FD(n) are
    built here.

    Its covers are read off the join table (:func:`_ring_covers`) and set
    before the :class:`Lattice` is built, so no matmul runs.  Covers read
    off tables that are not yet verified may not feed the constructor's
    check, which reads them on rows wider than a word; but these tables
    are known good before any check: :func:`set_family_tables` confirms
    every intersection and union word by word, so the order is inclusion,
    the meet ∩ and the join ∪, and a ring of sets is a distributive
    lattice, the one case the cover rule needs.
    """
    leq, meet, join = set_family_tables(members)
    poset = Poset(names, leq)
    _set_covers(poset, _ring_covers(poset, join))
    return Lattice(poset, meet, join)


def _ring_covers(poset: Poset, join: np.ndarray) -> np.ndarray:
    """The cover matrix of a distributive lattice with order ``poset`` and
    join table ``join``, found in O(n·|J|) over row blocks of J.

    By Birkhoff, x ↦ J(x), the join-irreducibles below x, maps the lattice
    onto the down-sets of J, and x ⋖ y exactly when J(y) is J(x) plus one
    j.  That j lies outside J(x) with every join-irreducible below it
    inside; those lie below its one lower cover j₊ and join to it, so the
    condition is j ≰ x and j₊ ≤ x.  Then y = x ∨ j, since J(x ∨ j) =
    J(x) ∪ J(j) (join-irreducibles are join-prime in a distributive
    lattice) = J(x) ∪ {j}.  J comes from :attr:`Poset.irreducible_rows`:
    its S, J and the bottom, which gives no pairs, as no x lacks it.
    """
    leq = poset.leq
    irr = np.flatnonzero(poset.irreducible_rows[0])
    lower = _single_lower_covers(leq, leq.sum(axis=0, dtype=np.int32), irr)
    covers = np.zeros(leq.shape, dtype=bool)
    for block in _row_blocks(len(irr), len(leq)):
        j, x = np.nonzero(leq[lower[block]] & ~leq[irr[block]])
        covers[x, join[x, irr[block][j]]] = True
    return covers


def _single_lower_covers(leq: np.ndarray, size: np.ndarray, irr: np.ndarray) -> np.ndarray:
    """The lower cover of each element j of ``irr`` that has exactly one:
    the y < j with |down(y)| = |down(j)| − 1 (``size`` holds the
    |down(y)|), for down(y) is then down(j) less j.  For the bottom, which
    has none, the index returned means nothing."""
    return (leq[:, irr] & (size[:, None] == size[irr] - 1)).argmax(axis=0)


# -- grading -----------------------------------------------------------------


@dataclass(frozen=True)
class GradeResult:
    """Degree function when all maximal chains have equal length.

    ``degree`` maps name -> level with degree(bottom) = 0 and +1 across
    covers; None when the lattice is not graded, in which case ``witness``
    holds two maximal chains of different lengths.
    """

    degree: Optional[dict[str, int]]
    witness: Optional[tuple[list[str], list[str]]]

    @property
    def graded(self) -> bool:
        return self.degree is not None


def grade(l: Lattice) -> GradeResult:
    """Degree function of a graded lattice, or a two-chain witness.

    Levels are placed upward from the bottom, one array pass over the cover
    matrix per level.  The lattice is graded exactly when every element is
    placed and no element covers elements of two levels.
    """
    covers = l.poset.covers_matrix
    rho = np.full(l.n, -1)
    pending = covers.sum(axis=0)  # lower covers not yet placed
    level, k = np.array([l.bottom_index]), 0
    while level.size and not pending[level].any():
        rho[level] = k
        placed = covers[level].sum(axis=0)  # lower covers each element has on this level
        pending -= placed
        level, k = placed.nonzero()[0], k + 1
    if level.size or (rho < 0).any():
        return GradeResult(None, _unequal_chain_witness(l))
    return GradeResult(dict(zip(l.names, rho.tolist())), None)


def _unequal_chain_witness(l: Lattice) -> tuple[list[str], list[str]]:
    """Two maximal chains of different length (shortest vs longest path),
    ties going to the lowest-index lower cover.  Every lower-cover list
    comes from one ``np.nonzero`` over the cover matrix."""
    p = l.poset
    upper, lower = np.nonzero(p.covers_matrix.T)  # by upper, lower ascending
    lows: list[list[int]] = [[] for _ in range(l.n)]
    for i, j in zip(upper.tolist(), lower.tolist()):
        lows[i].append(j)
    short = {l.bottom_index: [l.bottom_index]}
    long = {l.bottom_index: [l.bottom_index]}
    for i in p.topo_order:
        if i == l.bottom_index:
            continue
        s = min((short[j] for j in lows[i]), key=len)
        g = max((long[j] for j in lows[i]), key=len)
        short[i] = s + [i]
        long[i] = g + [i]
    a = [l.names[i] for i in short[l.top_index]]
    b = [l.names[i] for i in long[l.top_index]]
    return a, b


# -- join irreducibles --------------------------------------------------------


@dataclass(frozen=True)
class JoinIrreducibles:
    """Join irreducibles in canonical element order.

    ``lower_cover`` maps each nonzero irreducible J to its unique lower
    cover (the J^0 of a unique maximal subobject); the bottom, when
    included, maps to None.
    """

    names: tuple[str, ...]
    lower_cover: dict[str, Optional[str]]


def join_irreducibles(l: Lattice, include_bottom: bool = False) -> JoinIrreducibles:
    """Elements with at most one lower cover (S of :attr:`Poset.irreducible_rows`).

    With ``include_bottom=False`` (the Birkhoff convention) the bottom is
    excluded; with True it is included, matching the reading under which
    the glb of the whole lattice counts as join irreducible.  The lower
    cover of j is the y < j with |down(y)| = |down(j)| − 1 (down(j) less j).
    """
    single = l.poset.irreducible_rows[0].copy()
    single[l.bottom_index] = include_bottom
    irr = np.flatnonzero(single)
    below = _single_lower_covers(l.leq, l.leq.sum(axis=0, dtype=np.int32), irr).tolist()
    irr = irr.tolist()
    lower = {
        l.names[i]: None if i == l.bottom_index else l.names[j] for i, j in zip(irr, below)
    }
    return JoinIrreducibles(tuple(l.names[i] for i in irr), lower)


# -- sublattices and rank ------------------------------------------------------


def sublattice_closure(l: Lattice, seed: Iterable[str]) -> frozenset[str]:
    """Least superset of ``seed`` closed under meet and join."""
    idx = {l.index(x) for x in seed}
    if not idx:
        raise ValueError("seed must be nonempty")
    current = sorted(idx)
    while True:
        new = set(current)
        arr = np.array(current)
        new.update(int(v) for v in l.meet[np.ix_(arr, arr)].ravel())
        new.update(int(v) for v in l.join[np.ix_(arr, arr)].ravel())
        if len(new) == len(current):
            return frozenset(l.names[i] for i in current)
        current = sorted(new)


def atoms(l: Lattice) -> list[str]:
    """Covers of the bottom element."""
    return [l.names[i] for i in l.poset.upper_covers(l.bottom_index)]


def coatoms(l: Lattice) -> list[str]:
    """Elements covered by the top element."""
    return [l.names[i] for i in l.poset.lower_covers(l.top_index)]


@dataclass(frozen=True)
class RankResult:
    rank: int
    witness: tuple[str, ...]


def rank(l: Lattice, *, irreducible_cap: int = RANK_IRREDUCIBLE_CAP) -> RankResult:
    """Minimal number of nonzero join irreducibles generating the lattice.

    Defined for restricted lattices (at least 2 atoms and 2 coatoms);
    exhaustive search in increasing subset size over the join
    irreducibles, ties broken by canonical element order.
    """
    if len(atoms(l)) < 2 or len(coatoms(l)) < 2:
        raise NotRestricted(
            "rank requires at least 2 atoms and 2 coatoms "
            f"(got {len(atoms(l))} and {len(coatoms(l))})"
        )
    irr = join_irreducibles(l, include_bottom=False).names
    if len(irr) > irreducible_cap:
        raise SizeLimitExceeded(
            f"rank search capped at {irreducible_cap} join irreducibles"
        )
    everything = frozenset(l.names)
    for k in range(1, len(irr) + 1):
        for subset in itertools.combinations(irr, k):
            if sublattice_closure(l, subset) == everything:
                return RankResult(k, subset)
    raise RuntimeError("join irreducibles failed to generate the lattice")


# -- derived lattices -----------------------------------------------------------


def interval_sublattice(l: Lattice, a: str, b: str) -> Lattice:
    """The interval [a, b] as a lattice (tables restricted and reindexed).

    An interval is convex, so its covers are the lattice's covers between
    its elements; they pass over when the lattice has them."""
    ia, ib = l.index(a), l.index(b)
    if not l.leq[ia, ib]:
        raise NotComparable(f"{a!r} is not below {b!r}")
    keep = np.flatnonzero(l.leq[ia] & l.leq[:, ib])
    # keep is ascending, so searchsorted gives each element's new index
    meet, join = (np.searchsorted(keep, t[np.ix_(keep, keep)]) for t in (l.meet, l.join))
    poset = l.poset.restrict(keep.tolist())
    covers = _known_covers(l.poset)
    if covers is not None:
        _set_covers(poset, covers[np.ix_(keep, keep)])
    return Lattice(poset, meet, join)


def add_bounds(
    l: Lattice,
    *,
    bottom: Optional[str] = None,
    top: Optional[str] = None,
) -> Lattice:
    """Adjoin a new bottom and/or top element strictly outside the lattice.

    The covers, when the lattice has them, are its own plus new bottom ⋖
    old bottom and old top ⋖ new top."""
    names = list(l.names)
    n = l.n
    extra = []
    if bottom is not None:
        if bottom in l.poset:
            raise InvalidArgument(f"name {bottom!r} already present")
        extra.append(("bottom", bottom))
    if top is not None:
        if top in l.poset or top == bottom:
            raise InvalidArgument(f"name {top!r} already present")
        extra.append(("top", top))
    if not extra:
        return l
    m = n + len(extra)
    leq = np.zeros((m, m), dtype=bool)
    leq[:n, :n] = l.leq
    meet = np.zeros((m, m), dtype=np.int16)
    join = np.zeros((m, m), dtype=np.int16)
    meet[:n, :n] = l.meet
    join[:n, :n] = l.join
    for kind, name in extra:
        k = len(names)
        names.append(name)
        leq[k, k] = True
        if kind == "bottom":
            leq[k, :n] = True
            meet[k, :] = meet[:, k] = k
            join[k, :n] = join[:n, k] = np.arange(n)
            join[k, k] = k
        else:
            leq[:n, k] = True
            join[k, :] = join[:, k] = k
            meet[k, :n] = meet[:n, k] = np.arange(n)
            meet[k, k] = k
    if bottom is not None and top is not None:
        b, t = n, n + 1
        leq[b, t] = True
        meet[b, t] = meet[t, b] = b
        join[b, t] = join[t, b] = t
    poset = Poset(names, leq)
    covers = _known_covers(l.poset)
    if covers is not None:
        ends = {"bottom": (n, l.bottom_index), "top": (l.top_index, m - 1)}
        grown = np.zeros((m, m), dtype=bool)
        grown[:n, :n] = covers
        grown[tuple(zip(*(ends[kind] for kind, _ in extra)))] = True
        _set_covers(poset, grown)
    return Lattice(poset, meet, join)
