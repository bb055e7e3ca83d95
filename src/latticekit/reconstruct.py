"""Rebuild a full labeled submodule lattice from partial information.

Input: the composition-factor labels of a multiplicity-free module, a list
of join-irreducible submodules covering all factors (each with its factor
multiset and top factor), and containment facts among them.  The declared
irreducibles form a poset; its lattice of down-sets, with each cover edge
labeled by the top factor of the irreducible it adds, is the submodule
lattice.  An optional post-step adjoins the ambient module and the simple
socle as new top and bottom.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Optional, Union

from .birkhoff import LabeledLattice, ideals_lattice, irreducible_poset
from .errors import (
    CoverageGap,
    CycleDetected,
    DuplicateTopFactor,
    EmbeddingFailure,
    InconsistentOrder,
    InvalidSpec,
    InvariantViolation,
    NotComparable,
    OrderConflict,
    SizeLimitExceeded,
    UnknownElement,
)
from .lattice import add_bounds, interval_sublattice
from .poset import DEFAULT_IDEAL_CAP, Poset, _kahn_levels, build_poset, is_isomorphic
from .properties import is_distributive, is_multiplicity_free


@dataclass(frozen=True)
class IrreducibleDecl:
    """One declared join-irreducible submodule."""

    name: str
    top: str  # its head: the factor added by its unique upper edge
    factors: tuple[str, ...]  # full composition-factor set (multiplicity free)


@dataclass(frozen=True)
class Bounds:
    """Names and edge labels used when adjoining the module top and socle."""

    bottom_name: str = "0̂"
    bottom_label: str = "socle"
    top_name: str = "1̂"
    top_label: str = "head"


@dataclass(frozen=True)
class ReconstructionSpec:
    factors: tuple[str, ...]
    irreducibles: tuple[IrreducibleDecl, ...]
    order: tuple[tuple[str, str], ...] = ()
    edges: tuple[tuple[str, str, str], ...] = ()
    bounds: Optional[Bounds] = None

    def declared(self, name: str) -> IrreducibleDecl:
        for decl in self.irreducibles:
            if decl.name == name:
                return decl
        raise UnknownElement(f"no irreducible named {name!r}")


def load_spec(source: Union[str, Path, dict]) -> ReconstructionSpec:
    """Read a reconstruction spec from a JSON file or an already-parsed dict.

    Raises :class:`InvalidSpec` naming the first field that does not fit
    the shape: an object with a ``factors`` list of names and an
    ``irreducibles`` list of objects, each with a ``name``, a ``top`` and a
    ``factors`` list; optional ``order`` items are [lower, upper] pairs,
    ``edges`` items [lower, upper, label] triples, and ``bounds`` an object
    keyed by :class:`Bounds` field names.  All names are strings.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    kind = type(data).__name__
    _require(isinstance(data, dict), "spec file must hold a JSON object, not {}", kind)
    for key in ("factors", "irreducibles"):
        _require(isinstance(data.get(key), (list, tuple)), "spec has no {!r} list", key)
    irreducibles = []
    for k, d in enumerate(data["irreducibles"]):
        _require(isinstance(d, dict), "'irreducibles' item {} must be an object, not {!r}", k, d)
        for key in ("name", "top", "factors"):
            _require(key in d, "'irreducibles' item {} has no {!r}", k, key)
        name = _name(d["name"], "'irreducibles' item {} 'name'", k)
        top = _name(d["top"], "'irreducibles' item {} 'top'", k)
        factors = _names(d["factors"], "'irreducibles' item {} 'factors'", k)
        irreducibles.append(IrreducibleDecl(name, top, factors))
    bounds = data.get("bounds")
    if bounds is not None:
        _require(isinstance(bounds, dict), "'bounds' must be an object, not {!r}", bounds)
        unknown = sorted(set(bounds) - set(Bounds.__dataclass_fields__))
        _require(not unknown, "'bounds' has unknown keys {}", unknown)
        bounds = Bounds(**{k: _name(v, "'bounds' {!r}", k) for k, v in bounds.items()})
    order, edges = data.get("order", []), data.get("edges", [])
    for key, items in (("order", order), ("edges", edges)):
        _require(isinstance(items, (list, tuple)), "{!r} must be a list, not {!r}", key, items)
    return ReconstructionSpec(
        factors=_names(data["factors"], "'factors'"),
        irreducibles=tuple(irreducibles),
        order=tuple(_names(x, "'order' item {}", k, length=2) for k, x in enumerate(order)),
        edges=tuple(_names(x, "'edges' item {}", k, length=3) for k, x in enumerate(edges)),
        bounds=bounds,
    )


def _require(ok: bool, message: str, *args) -> None:
    """Raise InvalidSpec(message.format(*args)) unless ``ok``.  The text is
    built only on failure, so a valid spec pays no repr of its parts."""
    if not ok:
        raise InvalidSpec(message.format(*args))


def _name(value, what: str, *args) -> str:
    """``value``, a string; ``what.format(*args)`` names it on failure."""
    _require(isinstance(value, str), what + " must be a string, not {!r}", *args, value)
    return value


def _names(value, what: str, *args, length: Optional[int] = None) -> tuple[str, ...]:
    """``value``, a list of strings (of ``length`` items when given), as a
    tuple; ``what.format(*args)`` names it on failure."""
    ok = isinstance(value, (list, tuple)) and all(map(isinstance, value, repeat(str)))
    ok = ok and length in (None, len(value))
    size = "" if length is None else f"{length} "
    _require(ok, what + " must be a list of {}strings, not {!r}", *args, size, value)
    return tuple(value)


@dataclass(frozen=True)
class SpecReport:
    factor_count: int
    irreducible_count: int


def validate_spec(s: ReconstructionSpec) -> SpecReport:
    """Coverage, multiplicity-freeness and the factor/irreducible bijection.

    Every declared factor must appear in some irreducible; factor multisets
    must be duplicate free; and the top factors must hit each factor exactly
    once (one irreducible per composition-factor class).
    """
    declared = set(s.factors)
    if len(s.factors) != len(declared):
        raise InvalidSpec("duplicate labels in the factor list")
    names = [d.name for d in s.irreducibles]
    if len(set(names)) != len(names):
        raise InvalidSpec("duplicate irreducible names")
    for name in names:
        # elements are named "0" and by joining irreducible names with "+"
        if name == "0" or "+" in name:
            raise InvalidSpec(f"irreducible name {name!r} is '0' or contains '+'")
    seen_tops: dict[str, str] = {}
    covered: set[str] = set()
    for d in s.irreducibles:
        if len(set(d.factors)) != len(d.factors):
            raise InvalidSpec(
                f"irreducible {d.name!r} repeats a factor; "
                "the module would not be multiplicity free"
            )
        if d.top not in d.factors:
            raise InvalidSpec(
                f"irreducible {d.name!r} does not contain its own top factor"
            )
        unknown = set(d.factors) - declared
        if unknown:
            raise InvalidSpec(
                f"irreducible {d.name!r} uses undeclared factors {sorted(unknown)}"
            )
        if d.top in seen_tops:
            raise DuplicateTopFactor(d.top)
        seen_tops[d.top] = d.name
        covered.update(d.factors)
    for label in s.factors:
        if label not in covered:
            raise CoverageGap(label)
        if label not in seen_tops:
            raise CoverageGap(label)
    index = {name: i for i, name in enumerate(names)}
    for a, b in s.order:
        if a not in index or b not in index:
            raise UnknownElement(f"order fact ({a!r}, {b!r}) names unknown modules")
    try:
        _kahn_levels(len(names), [(index[a], index[b]) for a, b in s.order], names)
    except CycleDetected as exc:
        raise InconsistentOrder(f"declared order facts are cyclic: {exc}") from exc
    return SpecReport(len(s.factors), len(s.irreducibles))


def irreducible_order(
    s: ReconstructionSpec, infer: bool = False, cap: int = DEFAULT_IDEAL_CAP
) -> Poset:
    """Poset of the declared irreducibles.

    Declared containments are always corroborated against factor sets
    (containment of submodules forces containment of factor sets in a
    multiplicity-free module).  With ``infer=True``, strict factor-subset
    pairs are added as containments; by default they are only checked.

    Its lattice of down-sets has at least k + 1 elements for k irreducibles
    (the empty set and one down-set per irreducible), so past ``cap`` this
    raises :class:`SizeLimitExceeded` right after :func:`validate_spec`,
    before the order is checked or closed.
    """
    validate_spec(s)
    if len(s.irreducibles) + 1 > cap:
        raise SizeLimitExceeded(f"more than {cap} order ideals; raise the cap to proceed")
    fsets = {d.name: frozenset(d.factors) for d in s.irreducibles}
    for a, b in s.order:
        if not fsets[a] <= fsets[b]:
            raise OrderConflict(
                (a, b),
                f"declared {a!r} <= {b!r} but factors {sorted(fsets[a] - fsets[b])} "
                f"of {a!r} do not occur in {b!r}",
            )
    names = [d.name for d in s.irreducibles]
    sharing: dict[frozenset, list[str]] = {}
    for name in names:
        sharing.setdefault(fsets[name], []).append(name)
    # the first pair in (i, j) order: the first two names of the group
    # whose first name comes first
    for group in sharing.values():
        if len(group) > 1:
            raise OrderConflict(
                (group[0], group[1]),
                "equal factor sets: two distinct join irreducibles would "
                "share a head, so the module is not multiplicity free",
            )
    pairs = list(s.order)
    if infer:
        declared = set(pairs)
        for a in names:
            for b in names:
                if a != b and fsets[a] < fsets[b] and (a, b) not in declared:
                    pairs.append((a, b))
    return build_poset(names, pairs, warn_redundant=False)


def _join_name(parts: tuple[str, ...]) -> str:
    return "+".join(parts) if parts else "0"


def reconstruct(
    s: ReconstructionSpec,
    with_bounds: bool = False,
    infer: bool = False,
    cap: int = DEFAULT_IDEAL_CAP,
) -> LabeledLattice:
    """The full labeled lattice determined by the declared irreducibles.

    Elements are down-sets of the irreducible poset, named by the join of
    their maximal irreducibles (bottom is "0"); the cover edge adding
    irreducible J is labeled by J's top factor.  The result is checked to
    be distributive and multiplicity free, to round-trip to the input
    poset, and to embed every declared partial edge label-preservingly.
    """
    p = irreducible_order(s, infer=infer, cap=cap)
    top_of = {d.name: d.top for d in s.irreducibles}

    leq = p.leq.tolist()

    def namer(members: tuple[str, ...]) -> str:
        idx = sorted(p.index(x) for x in members)
        # i is maximal when the only member above it is i itself
        maximal = [i for i in idx if sum(map(leq[i].__getitem__, idx)) == 1]
        return _join_name(tuple(p.names[i] for i in maximal))

    raw = ideals_lattice(p, cap=cap, namer=namer)
    labels = {edge: top_of[irr] for edge, irr in raw.edge_labels.items()}
    result = LabeledLattice(raw.lattice, labels)
    result.validate()

    if not is_distributive(result.lattice).distributive:
        raise InvariantViolation("reconstructed lattice is not distributive")
    if not is_multiplicity_free(result.lattice):
        raise InvariantViolation("reconstructed lattice is not multiplicity free")
    if is_isomorphic(irreducible_poset(result.lattice), p) is None:
        raise InvariantViolation(
            "join irreducibles of the reconstructed lattice do not match the spec"
        )

    for edge in s.edges:
        _check_embedded(result, p, edge)

    if with_bounds:
        bounds = s.bounds or Bounds()
        lattice = add_bounds(
            result.lattice, bottom=bounds.bottom_name, top=bounds.top_name
        )
        labels = dict(result.edge_labels)
        labels[(bounds.bottom_name, result.lattice.bottom)] = bounds.bottom_label
        labels[(result.lattice.top, bounds.top_name)] = bounds.top_label
        result = LabeledLattice(lattice, labels)
        result.validate()
    return result


def _resolve_join_expr(ll: LabeledLattice, p: Poset, text: str) -> str:
    """Map a '+'-join of irreducible names (or '0') to an element name."""
    text = text.strip()
    if text == "0":
        return ll.lattice.bottom
    parts = [part.strip().strip("()").strip() for part in text.split("+")]
    value = ll.lattice.bottom
    for part in parts:
        if part not in p:
            raise UnknownElement(f"unknown irreducible {part!r} in {text!r}")
        principal = _join_name((part,))
        # principal ideals keep their irreducible's name
        value = ll.lattice.join_of(value, principal)
    return value


def _check_embedded(ll: LabeledLattice, p: Poset, edge: tuple[str, str, str]):
    lower_text, upper_text, label = edge
    try:
        lower = _resolve_join_expr(ll, p, lower_text)
        upper = _resolve_join_expr(ll, p, upper_text)
    except UnknownElement as exc:
        raise EmbeddingFailure(edge) from exc
    i, j = ll.lattice.index(lower), ll.lattice.index(upper)
    if j not in ll.lattice.poset.upper_covers(i) or ll.edge_labels.get((lower, upper)) != label:
        raise EmbeddingFailure(edge)


# -- reading off the result ------------------------------------------------------


def element_factors(ll: LabeledLattice, x: str) -> Counter:
    """Multiset of edge labels along any maximal chain from the bottom to x.

    Chain independence holds in any modular labeled lattice (labels are
    constant on interval classes); for multiplicity-free lattices the
    result is a plain set.
    """
    l = ll.lattice
    i = l.index(x)
    out: Counter = Counter()
    while i != l.bottom_index:
        j = min(l.poset.lower_covers(i))
        out[ll.label(l.names[j], l.names[i])] += 1
        i = j
    return out


def interval_of(ll: LabeledLattice, a: str, b: str) -> LabeledLattice:
    """The interval [a, b] as a labeled lattice with inherited labels."""
    sub = interval_sublattice(ll.lattice, a, b)
    keep = set(sub.names)
    labels = {
        (lo, up): lab
        for (lo, up), lab in ll.edge_labels.items()
        if lo in keep and up in keep
    }
    out = LabeledLattice(sub, labels)
    out.validate()
    return out


def quotient_by(ll: LabeledLattice, s: str) -> LabeledLattice:
    """Identify along everything below s: the interval [s, top]."""
    if not ll.lattice.le(s, ll.lattice.top):
        raise NotComparable(f"{s!r} is not below the top")
    return interval_of(ll, s, ll.lattice.top)
