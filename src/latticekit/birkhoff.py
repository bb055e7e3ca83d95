"""Fundamental theorem of finite distributive lattices.

J(P) construction (down-sets under union/intersection, cover edges labeled
by the element they add), its inverse on join irreducibles, lattice
isomorphism on the join- and meet-irreducibles, round-trip verification,
and the incremental gluing construction that grows J(P) one join
irreducible at a time.  J(P)'s tables go through the pair lookup in
:mod:`latticekit.lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import (
    InvalidArgument,
    InvariantViolation,
    NotDistributive,
    SizeLimitExceeded,
    UnknownElement,
)
from .freedist import _mask_indices
from .lattice import Edge, Lattice, _check_limit, join_irreducibles, set_family_lattice
from .poset import (
    DEFAULT_IDEAL_CAP,
    DEFAULT_ISO_CAP,
    Poset,
    _canonical_rows,
    _colored_isomorphism,
    _pack_rows,
    _row_blocks,
    _set_covers,
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
    its covers read off the union table.  Each cover I ⋖ I' adds one
    element x, the one of I' outside I, which labels it; the covers come lower
    ascending, then x ascending, as the canonical order puts I ∪ {x}
    before I ∪ {y} for x < y.
    """
    namer = namer or brace_name
    rows = order_ideal_masks(p, cap)
    inside = _unpack_rows(rows, p.n)
    names = [namer(tuple(compress(p.names, row))) for row in inside.tolist()]
    lattice = set_family_lattice(names, rows)
    lower, upper = lattice.poset.cover_arrays
    added = np.empty(len(lower), dtype=np.intp)
    for part in _row_blocks(len(lower), p.n):
        added[part] = (inside[upper[part]] & ~inside[lower[part]]).argmax(axis=1)
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
    return _join_irreducible_poset(l)


def _join_irreducible_poset(l: Lattice) -> Poset:
    return l.poset.restrict([l.index(x) for x in join_irreducibles(l).names])


def lattice_isomorphic(a: Lattice, b: Lattice) -> Optional[dict[str, str]]:
    """A lattice isomorphism a -> b as a name-to-name map, or None.

    One search serves every pair, distributive or not.  Let J be the
    nonzero join-irreducibles (S of :attr:`Poset.irreducible_rows` less the
    bottom) and M the meet-irreducibles other than the top (S′ less the
    top).  Then a ≅ b exactly when their subposets on J ∪ M are isomorphic
    by a map σ that keeps each element's kind (J only, M only, or both),
    and x ↦ ∨ σ(J(x)), J(x) = J ∩ down(x), is then a lattice isomorphism.

    *Proof.*  An isomorphism f: a → b keeps covers, so it maps J onto J and
    M onto M, and its restriction is such a σ.  Conversely, by the basic
    theorem of formal concept analysis (Ganter and Wille, *Formal Concept
    Analysis*, 1999, Ch. 1; Birkhoff's representation is its distributive
    case), a finite lattice is isomorphic to the concept lattice of its
    context (J, M, ≤) by x ↦ (J(x), M(x)), since J is join-dense and M
    meet-dense.  σ maps J onto J and M onto M and keeps j ≤ m both ways,
    so it is an isomorphism of the contexts and carries the concept
    (J(x), M(x)) of a to the concept (σJ(x), σM(x)) of b, which is
    (J(y), M(y)) for the y with J(y) = σJ(x).  Join-density gives
    y = ∨ J(y) = ∨ σJ(x).  ∎

    The kinds are the search's initial colours, so a σ that breaks them is
    never tried.  The map is built by one gather per j ∈ J (see
    :func:`_join_extension`) and then checked to be a bijection that keeps
    ``leq`` both ways; a map that fails raises
    :class:`InvariantViolation`.  No property verdict is computed.  Raises
    :class:`SizeLimitExceeded` when |J| or |M| exceeds
    ``DEFAULT_ISO_CAP``, the bound that the search on J(P) of a
    distributive pair (|J| = |M|) has always had.
    """
    if a.n != b.n:
        return None
    (kept_a, kinds_a), (kept_b, kinds_b) = _irreducible_kinds(a), _irreducible_kinds(b)
    counts = np.bincount(kinds_a, minlength=4)
    if not np.array_equal(counts, np.bincount(kinds_b, minlength=4)):
        return None
    irreducibles = max(counts[1] + counts[3], counts[2] + counts[3])
    if irreducibles > DEFAULT_ISO_CAP:
        raise SizeLimitExceeded(
            f"lattice isomorphism search capped at {DEFAULT_ISO_CAP} join- or "
            f"meet-irreducibles (got {irreducibles})"
        )
    sigma = _colored_isomorphism(
        a.poset.restrict(kept_a), b.poset.restrict(kept_b), kinds_a.tolist(), kinds_b.tolist()
    )
    if sigma is None:
        return None
    joins = (kinds_a & 1).astype(bool)
    perm = _join_extension(a, b, kept_a[joins], kept_b[np.asarray(sigma, dtype=np.intp)[joins]])
    bijective = np.bincount(perm, minlength=a.n).max() == 1
    if not bijective or not all(
        np.array_equal(a.leq[rows], b.leq[perm[rows]][:, perm]) for rows in _row_blocks(a.n, a.n)
    ):
        raise InvariantViolation("irreducible map failed to extend")
    return dict(zip(a.names, map(b.names.__getitem__, perm.tolist())))


def _irreducible_kinds(l: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """The indices of J ∪ M, ascending, and each one's kind: 1 join-
    irreducible only, 2 meet-irreducible only, 3 both (J and M as in
    :func:`lattice_isomorphic`)."""
    below, _, above, _ = l.poset.irreducible_rows
    kinds = below.astype(np.intp) + 2 * above
    kinds[l.bottom_index] &= 2
    kinds[l.top_index] &= 1
    kept = np.flatnonzero(kinds)
    return kept, kinds[kept]


def _join_extension(a: Lattice, b: Lattice, joins: np.ndarray, images: np.ndarray) -> np.ndarray:
    """x ↦ ∨ {images[k] : joins[k] ≤ x} from a's elements to b's indices:
    every x starts at b's bottom, and each join-irreducible j joins its
    image into the x above it, one gather of ``b.join`` per j."""
    perm = np.full(a.n, b.bottom_index, dtype=np.intp)
    for j, image in zip(joins.tolist(), images.tolist()):
        above = a.leq[j]
        perm[above] = b.join[perm[above], image]
    return perm


@dataclass(frozen=True)
class RoundtripReport:
    ok: bool
    lattice_iso: Optional[dict[str, str]]
    poset_iso: Optional[dict[str, str]]


def birkhoff_roundtrip(l: Lattice) -> RoundtripReport:
    """Verify J(irr(L)) = L and irr(J(P)) = P up to isomorphism.  Only L
    is judged distributive: J(P) is a ring of sets, and no verdict on it
    could change the report, as L ≅ J(P) makes J(P) distributive."""
    p = irreducible_poset(l)
    jl = ideals_lattice(p)
    lattice_iso = lattice_isomorphic(jl.lattice, l)
    p2 = _join_irreducible_poset(jl.lattice)
    poset_iso = is_isomorphic(p2, p)
    return RoundtripReport(
        lattice_iso is not None and poset_iso is not None, lattice_iso, poset_iso
    )


# -- incremental construction ------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    """One snapshot of the growing diagram.

    ``poset`` holds the nodes added so far (not necessarily a lattice yet);
    every cover edge adds one element of P, which labels it.
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

    Each pass is Stanley's step (*EC1*, §3.4).  The processed elements form
    a down-set Q of P, and the nodes are J(Q).  The next x has its strict
    down-set, the base, in Q, and nothing in Q lies above x.  So a down-set
    of Q ∪ {x} is a node, or it holds x and is w ∪ D for D = down(x) and a
    node w ⊇ base; each such union is a down-set.  :func:`_glue` adds them
    in one step.  The adjoin snapshot is J(Q) ∪ {D}; the completion is one
    when it adds more rows.  Nodes are distinct down-sets of P, so J(P) is
    counted and gated up front (:class:`SizeLimitExceeded` past ``cap`` or
    the int16 tables' size).
    """
    ideals = order_ideal_masks(p, cap)
    _check_limit(len(ideals))
    n = p.n
    down = _pack_rows(p.leq.T)
    strict = p.leq.T & ~np.eye(n, dtype=bool)  # strict[x]: the elements below x
    processed = ~strict.any(axis=1)  # the minimal elements
    minimal = np.flatnonzero(processed)

    subsets = np.zeros((2 ** len(minimal), n), dtype=bool)
    subsets[:, minimal] = np.arange(len(subsets))[:, None] >> np.arange(len(minimal)) & 1
    nodes = _canonical_rows(_pack_rows(subsets))
    description = (
        f"start from the minimal antichain ({len(minimal)} elements); "
        f"its down-sets form the Boolean lattice B_{len(minimal)}"
    )
    steps = [_snapshot(p, nodes, description)]

    while not processed.all():
        x = int(np.flatnonzero(~processed & ~(strict & ~processed).any(axis=1))[0])
        base = _pack_rows(strict[x : x + 1])
        if not (nodes == base).all(axis=1).any():
            raise InvariantViolation("base of the new join irreducible is missing")
        covering = _node_name(p, strict[x])
        adjoined = _canonical_rows(np.concatenate([nodes, down[x : x + 1]]))
        description = f"adjoin join irreducible for {p.names[x]!r} covering {covering}"
        steps.append(_snapshot(p, adjoined, description))
        nodes = _glue(nodes, base, down[x : x + 1])
        if len(nodes) > len(adjoined):
            description = f"complete the Boolean algebra of joins above {covering}"
            steps.append(_snapshot(p, nodes, description))
        processed[x] = True

    if not np.array_equal(nodes, ideals):
        raise InvariantViolation("construction did not converge to J(P)")
    return ConstructionTrace(tuple(steps))


def _glue(nodes: np.ndarray, base: np.ndarray, joined: np.ndarray) -> np.ndarray:
    """``nodes`` and ``joined`` ∪ w for the nodes w ⊇ ``base``, in canonical
    order: J(Q ∪ {x}) from J(Q) (see :func:`stanley_construct`)."""
    above = ((nodes & base) == base).all(axis=1)
    return _canonical_rows(np.concatenate([nodes, nodes[above] | joined]))


def _node_name(p: Poset, members: np.ndarray) -> str:
    return brace_name(tuple(compress(p.names, members)))


def _snapshot(p: Poset, nodes: np.ndarray, description: str) -> TraceStep:
    """The nodes (packed rows in canonical order) under inclusion, each
    cover edge labeled by the one element it adds.

    A snapshot is J(Q) or J(Q) ∪ {D} (see :func:`stanley_construct`), and
    in both u ⋖ v exactly when u ⊂ v and |v| = |u| + 1, so the covers come
    from the pass that builds the order, with no bare-order rule.  In J(Q),
    u ⊂ v with |v| ≥ |u| + 2 has the node u ∪ {y} strictly between, for y
    minimal in v less u.  No node of J(Q) holds x, so none lies above D,
    and the nodes below D lie in the base, one element below D."""
    bits = _unpack_rows(nodes, p.n)
    names = [_node_name(p, row) for row in bits.tolist()]
    leq, covers = _inclusion_covers(nodes, bits.sum(axis=1))
    snap = Poset(names, leq)
    _set_covers(snap, covers)
    lower, upper = snap.cover_arrays
    added = np.nonzero(bits[upper] & ~bits[lower])[1]
    labels: dict[Edge, str] = {
        (names[i], names[j]): p.names[x]
        for i, j, x in zip(lower.tolist(), upper.tolist(), added.tolist())
    }
    return TraceStep(description, snap, labels)


def _inclusion_covers(nodes: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``leq[u, v]`` (row u ⊆ row v) and the (2, k) pairs u ⊆ v with
    ``sizes[v] = sizes[u] + 1``, row-major, for rows with ``sizes``
    ascending.  One pass over row blocks (:func:`_subset_blocks`): nothing
    beyond the order is m²-sized, and pairs are sought one size up."""
    leq = np.empty((len(nodes), len(nodes)), dtype=bool)
    pairs = []
    for block, inside in _subset_blocks(nodes):
        leq[block] = inside
        above = sizes[block, None] + 1
        lo, hi = np.searchsorted(sizes, [above[0, 0], above[-1, 0] + 1])
        lower, upper = np.nonzero(inside[:, lo:hi] & (sizes[lo:hi] == above))
        pairs.append(np.stack([lower + block.start, upper + lo]))
    return leq, np.concatenate(pairs, axis=1)


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
