"""Fundamental theorem of finite distributive lattices.

J(P) construction (down-sets under union/intersection, cover edges labeled
by the element they add), its inverse on join irreducibles, round-trip
verification, and the incremental gluing construction that grows J(P) one
join irreducible at a time.  J(P)'s tables and the construction's unions
both go through the pair lookup in :mod:`latticekit.lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import InvalidArgument, InvariantViolation, NotDistributive, UnknownElement
from .freedist import _mask_indices
from .lattice import (
    Edge, Lattice, _check_limit, _pair_lookup, join_irreducibles, set_family_lattice
)
from .poset import (
    DEFAULT_IDEAL_CAP,
    Poset,
    _canonical_rows,
    _pack_rows,
    _subset_blocks,
    _unpack_rows,
    is_isomorphic,
    order_ideal_masks,
)


@dataclass(frozen=True)
class LabeledLattice:
    """A lattice whose cover edges carry composition-factor labels."""

    lattice: Lattice
    edge_labels: dict[Edge, str]

    def label(self, lower: str, upper: str) -> str:
        try:
            return self.edge_labels[(lower, upper)]
        except KeyError:
            raise UnknownElement(f"no cover edge {lower!r} -> {upper!r}") from None

    def validate(self) -> None:
        """Every cover edge carries exactly one label."""
        edges = set(self.lattice.poset.cover_names())
        labeled = set(self.edge_labels)
        if edges != labeled:
            missing = sorted(edges - labeled) + sorted(labeled - edges)
            raise InvalidArgument(f"edge labels do not match cover edges: {missing}")

    @property
    def names(self):
        return self.lattice.names

    @property
    def n(self):
        return self.lattice.n


def brace_name(names: tuple[str, ...]) -> str:
    return "{" + ",".join(names) + "}"


def ideals_lattice(
    p: Poset,
    cap: int = DEFAULT_IDEAL_CAP,
    namer: Optional[Callable[[tuple[str, ...]], str]] = None,
) -> LabeledLattice:
    """The distributive lattice J(P) of all down-sets of ``p``.

    Join is union, meet is intersection; the cover edge I < I + {x} is
    labeled x.  Default element names are brace sets like ``{a,b}``.

    J(P) is a ring of sets, so :func:`set_family_lattice` builds it with
    its covers read off the union table.  Each cover of I is I ∪ down(x) =
    I ∪ {x} for one x, and down(x) is the join-irreducible it goes up by;
    that x labels it.  One gather of I ∪ down(x) for every I and x finds
    them, in O(n·|P|), lower ascending, then x ascending.
    """
    namer = namer or brace_name
    rows = order_ideal_masks(p, cap)
    inside = _unpack_rows(rows, p.n)
    names = [namer(tuple(compress(p.names, row))) for row in inside.tolist()]
    lattice = set_family_lattice(names, rows)
    grown = lattice.join[:, inside.argmax(axis=0)]  # the first row holding x is down(x)
    lower, added = np.nonzero(lattice.poset.covers_matrix[np.arange(len(rows))[:, None], grown])
    upper = grown[lower, added]
    labels: dict[Edge, str] = {
        (names[i], names[j]): p.names[x]
        for i, j, x in zip(lower.tolist(), upper.tolist(), added.tolist())
    }
    return LabeledLattice(lattice, labels)


def irreducible_poset(l: Lattice) -> Poset:
    """The nonzero join irreducibles of a distributive lattice, with the
    induced order."""
    from .properties import is_distributive

    if not is_distributive(l).distributive:
        raise NotDistributive("join-irreducible poset requires distributivity")
    irr = join_irreducibles(l, include_bottom=False).names
    return l.poset.restrict([l.index(x) for x in irr])


def lattice_isomorphic(a: Lattice, b: Lattice) -> Optional[dict[str, str]]:
    """An order isomorphism between two lattices, or None.

    Distributive pairs go through their join-irreducible posets (the map
    extends uniquely to the whole lattice); anything else falls back to
    generic poset isomorphism search.
    """
    from .properties import is_distributive

    if a.n != b.n:
        return None
    if a.n <= 1:
        return {a.names[0]: b.names[0]} if a.n == 1 else {}
    da = is_distributive(a).distributive
    db = is_distributive(b).distributive
    if da != db:
        return None
    if da:
        pa, pb = irreducible_poset(a), irreducible_poset(b)
        phi = is_isomorphic(pa, pb)
        if phi is None:
            return None
        mapping = _extend_irreducible_map(a, b, phi)
        if mapping is None:
            raise InvariantViolation("irreducible map failed to extend")
        return mapping
    return is_isomorphic(a.poset, b.poset)


def _extend_irreducible_map(a, b, phi) -> Optional[dict[str, str]]:
    """Extend irreducibles map to x -> join of images below x; verify."""
    irr_a = [a.index(x) for x in phi]
    images = {a.index(x): b.index(y) for x, y in phi.items()}
    perm = np.zeros(a.n, dtype=int)
    for i in range(a.n):
        j = b.bottom_index
        for k in irr_a:
            if a.leq[k, i]:
                j = int(b.join[j, images[k]])
        perm[i] = j
    if len(set(perm.tolist())) != a.n:
        return None
    if not (a.leq == b.leq[np.ix_(perm, perm)]).all():
        return None
    return {a.names[i]: b.names[perm[i]] for i in range(a.n)}


@dataclass(frozen=True)
class RoundtripReport:
    ok: bool
    lattice_iso: Optional[dict[str, str]]
    poset_iso: Optional[dict[str, str]]


def birkhoff_roundtrip(l: Lattice) -> RoundtripReport:
    """Verify J(irr(L)) = L and irr(J(P)) = P up to isomorphism."""
    p = irreducible_poset(l)
    jl = ideals_lattice(p)
    lattice_iso = lattice_isomorphic(jl.lattice, l)
    p2 = irreducible_poset(jl.lattice)
    poset_iso = is_isomorphic(p2, p)
    return RoundtripReport(
        lattice_iso is not None and poset_iso is not None, lattice_iso, poset_iso
    )


# -- incremental construction ------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    """One snapshot of the growing diagram.

    ``poset`` holds the nodes added so far (not necessarily a lattice yet);
    cover edges that add a single generator carry that generator as label.
    """

    description: str
    poset: Poset
    labels: dict[Edge, str]


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[TraceStep, ...]

    @property
    def final(self) -> Poset:
        return self.steps[-1].poset


def stanley_construct(p: Poset, cap: int = DEFAULT_IDEAL_CAP) -> ConstructionTrace:
    """Grow J(P) by gluing Boolean lattices, recording every pass.

    Start from J of the minimal antichain; repeatedly adjoin a join
    irreducible for the canonically smallest remaining minimal element,
    then complete the Boolean algebra of joins above its base.  The final
    snapshot is exactly J(P).

    The nodes are closed under union before each join irreducible I is
    adjoined, so every new union is I ∪ w for a node w above I's base
    (I ∪ u = I ∪ (u ∪ base)).  Each such w ≠ base holds a cover c of the
    base; when I ∪ c is a node, it is an old one (it holds c, I does not),
    and so is I ∪ w = (I ∪ c) ∪ w.  Closing from the covers of the base is
    therefore enough: no further sweep for missing joins is needed.

    No snapshot outgrows J(P), so J(P) is counted and gated up front
    (:class:`SizeLimitExceeded` past ``cap`` or the int16 tables' size):
    every node is a down-set of P.  A start node is a set of minimal
    elements, a down-set since nothing lies below them; an adjoined node is
    down(x); the closure adds unions of nodes, and unions of down-sets are
    down-sets.  Nodes are distinct rows, so there are at most |J(P)|.
    """
    ideals = order_ideal_masks(p, cap)
    _check_limit(len(ideals))
    n = p.n
    down = _pack_rows(p.leq.T)
    strict = p.leq.T & ~np.eye(n, dtype=bool)  # strict[x]: the elements below x
    processed = ~strict.any(axis=1)  # the minimal elements
    minimal = np.flatnonzero(processed)
    steps: list[TraceStep] = []

    subsets = np.zeros((2 ** len(minimal), n), dtype=bool)
    subsets[:, minimal] = np.arange(len(subsets))[:, None] >> np.arange(len(minimal)) & 1
    nodes = _canonical_rows(_pack_rows(subsets))

    def snapshot(description):
        steps.append(_snapshot(p, nodes, description))

    snapshot(
        f"start from the minimal antichain ({len(minimal)} elements); "
        f"its down-sets form the Boolean lattice B_{len(minimal)}"
    )

    while not processed.all():
        x = int(np.flatnonzero(~processed & ~(strict & ~processed).any(axis=1))[0])
        base = _pack_rows(strict[x : x + 1])
        if not (nodes == base).all(axis=1).any():
            raise InvariantViolation("base of the new join irreducible is missing")
        nodes = _canonical_rows(np.concatenate([nodes, down[x : x + 1]]))
        snapshot(
            f"adjoin join irreducible for {p.names[x]!r} covering "
            f"{_node_name(p, strict[x])}"
        )

        closed = _close_under_union(nodes, _covers_of(nodes, base))
        if closed is not None:
            nodes = closed
            snapshot(
                f"complete the Boolean algebra of joins above {_node_name(p, strict[x])}"
            )
        processed[x] = True

    if not np.array_equal(nodes, ideals):
        raise InvariantViolation("construction did not converge to J(P)")
    return ConstructionTrace(tuple(steps))


def _covers_of(nodes: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The minimal rows of ``nodes`` strictly above the row ``base``."""
    above = nodes[((nodes & base) == base).all(axis=1) & (nodes != base).any(axis=1)]
    return above[_inclusion_order(above).sum(axis=0) == 1]


def _inclusion_order(nodes: np.ndarray) -> np.ndarray:
    """``leq[u, v]``: packed row u is a subset of row v.  Built one row
    block at a time, so nothing beyond the (m, m) result is m²-sized."""
    leq = np.empty((len(nodes), len(nodes)), dtype=bool)
    for block, inside in _subset_blocks(nodes):
        leq[block] = inside
    return leq


def _close_under_union(nodes: np.ndarray, seeds: np.ndarray) -> Optional[np.ndarray]:
    """``nodes`` closed under union, or None when every union of two
    ``seeds`` rows is already a node.  After the first round every node is
    a seed; the unions that :func:`_pair_lookup` misses among the nodes are
    the fresh ones."""
    closed = None
    while True:
        fresh = [seeds[:0]]
        for block, _, missing in _pair_lookup(seeds, np.bitwise_or, nodes):
            i, j = np.argwhere(missing).T + block.start
            fresh.append(seeds[i] | seeds[j])
        fresh = np.concatenate(fresh)
        if not len(fresh):
            return closed
        nodes = seeds = closed = _canonical_rows(np.concatenate([nodes, fresh]))


def _node_name(p: Poset, members: np.ndarray) -> str:
    return brace_name(tuple(compress(p.names, members)))


def _snapshot(p: Poset, nodes: np.ndarray, description: str) -> TraceStep:
    """The nodes (packed rows in canonical order) under inclusion; a cover
    edge that adds one element is labeled by it."""
    bits = _unpack_rows(nodes, p.n)
    names = [_node_name(p, row) for row in bits.tolist()]
    snap = Poset(names, _inclusion_order(nodes))
    lower, upper = np.array(snap.cover_pairs, dtype=np.intp).reshape(-1, 2).T
    added = bits[upper] & ~bits[lower]
    one = np.flatnonzero(added.sum(axis=1) == 1)
    labels: dict[Edge, str] = {
        (names[lower[k]], names[upper[k]]): p.names[x]
        for k, x in zip(one.tolist(), np.nonzero(added[one])[1].tolist())
    }
    return TraceStep(description, snap, labels)


# -- evaluation of free-lattice elements ---------------------------------------


def evaluate_in_lattice(expr, l: Lattice, assignment: Mapping[int, str]) -> str:
    """Evaluate a canonical join-of-meets in ``l`` under generator images.

    ``assignment`` maps generator number (1-based) to an element name.
    The empty join is the bottom, the empty meet the top.
    """
    images = {}
    for g, name in assignment.items():
        images[int(g)] = l.index(name)
    value = None  # join identity
    for clause in expr.clauses:
        term = None  # meet identity
        for i in _mask_indices(clause):
            g = i + 1
            if g not in images:
                raise UnknownElement(f"no assignment for generator P{g}")
            term = images[g] if term is None else int(l.meet[term, images[g]])
        if term is None:
            term = l.top_index
        value = term if value is None else int(l.join[value, term])
    if value is None:
        value = l.bottom_index
    return l.names[value]
