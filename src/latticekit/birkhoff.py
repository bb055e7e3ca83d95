"""Fundamental theorem of finite distributive lattices.

J(P) construction (down-sets under union/intersection, cover edges labeled
by the element they add), its inverse on join irreducibles, round-trip
verification, and the incremental gluing construction that grows J(P) one
join irreducible at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (
    InvalidArgument,
    InvariantViolation,
    NotDistributive,
    SizeLimitExceeded,
    UnknownElement,
)
from .lattice import Edge, Lattice, join_irreducibles, set_family_tables
from .poset import (
    DEFAULT_IDEAL_CAP,
    Poset,
    _mask_indices,
    _masks_to_rows,
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
    """
    namer = namer or brace_name
    masks = order_ideal_masks(p, cap)
    m = len(masks)
    width = max(1, -(-p.n // 64))
    words = np.frombuffer(
        b"".join(mask.to_bytes(8 * width, "little") for mask in masks), dtype="<u8"
    ).reshape(m, width)
    leq, meet, join = set_family_tables(words)
    index = {mask: i for i, mask in enumerate(masks)}
    names = [namer(tuple(p.names[i] for i in _mask_indices(mask))) for mask in masks]
    lattice = Lattice(
        Poset(names, leq), meet, join, index[0], index[masks[-1]],
        verify=m <= 600,
    )

    down = p.down_masks
    labels: dict[Edge, str] = {}
    for i, mask in enumerate(masks):
        for x in range(p.n):
            bit = 1 << x
            if mask & bit or down[x] & ~bit & ~mask:
                continue
            labels[(names[i], names[index[mask | bit]])] = p.names[x]
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
    complete the Boolean algebra of joins above its base, then sweep in
    any further missing joins.  The final snapshot is exactly J(P).
    """
    down = p.down_masks
    minimal = set(p.minimal_indices)
    steps: list[TraceStep] = []

    nodes: set[int] = set()
    subsets = [0]
    for i in sorted(minimal):
        subsets += [s | (1 << i) for s in subsets]
    nodes.update(subsets)

    def snapshot(description):
        if len(nodes) > cap:
            raise SizeLimitExceeded(f"construction grew past {cap} nodes")
        steps.append(_snapshot(p, nodes, description))

    snapshot(
        f"start from the minimal antichain ({len(minimal)} elements); "
        f"its down-sets form the Boolean lattice B_{len(minimal)}"
    )

    processed = set(minimal)
    while len(processed) < p.n:
        x = min(
            i
            for i in range(p.n)
            if i not in processed
            and all(j in processed for j in _mask_indices(down[i] & ~(1 << i)))
        )
        principal = down[x]
        base = principal & ~(1 << x)
        if base not in nodes:
            raise InvariantViolation("base of the new join irreducible is missing")
        nodes.add(principal)
        snapshot(
            f"adjoin join irreducible for {p.names[x]!r} covering "
            f"{_node_name(p, base)}"
        )

        covers = _covers_of(nodes, base)
        added = _close_under_union(nodes, covers)
        if added:
            snapshot(
                f"complete the Boolean algebra of joins above {_node_name(p, base)}"
            )
        while True:
            added = _close_under_union(nodes, list(nodes))
            if not added:
                break
            snapshot("add missing joins")
        processed.add(x)

    expected = set(order_ideal_masks(p, cap))
    if nodes != expected:
        raise InvariantViolation("construction did not converge to J(P)")
    return ConstructionTrace(tuple(steps))


def _covers_of(nodes: set[int], base: int) -> list[int]:
    above = [u for u in nodes if u != base and base & ~u == 0]
    return [u for u in above if not any(v != u and v & ~u == 0 for v in above)]


def _close_under_union(nodes: set[int], seeds: list[int]) -> bool:
    added = False
    frontier = list(seeds)
    while frontier:
        fresh = []
        for i, u in enumerate(frontier):
            for v in frontier[i + 1:]:
                w = u | v
                if w not in nodes:
                    nodes.add(w)
                    fresh.append(w)
                    added = True
        if not fresh:
            break
        frontier = sorted(nodes)
    return added


def _node_name(p: Poset, mask: int) -> str:
    return brace_name(tuple(p.names[i] for i in _mask_indices(mask)))


def _snapshot(p: Poset, nodes: set[int], description: str) -> TraceStep:
    masks = sorted(nodes, key=lambda m: (bin(m).count("1"), _mask_indices(m)))
    names = [_node_name(p, mask) for mask in masks]
    rows = _masks_to_rows(masks, p.n)
    snap = Poset(names, (rows[:, None, :] <= rows[None, :, :]).all(axis=2))  # subsets
    labels: dict[Edge, str] = {}
    for i, j in snap.cover_pairs:
        diff = masks[j] & ~masks[i]
        if bin(diff).count("1") == 1:
            labels[(names[i], names[j])] = p.names[diff.bit_length() - 1]
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
