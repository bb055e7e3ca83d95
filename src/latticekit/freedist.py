"""The free distributive lattice on n generators, in canonical DNF form.

An element is an antichain of nonempty subsets of [n] (each subset a meet
of generators, the antichain their join).  Clauses are n-bit masks and
clause sets sorted mask tuples, so pruning and pairwise-union meets are
word operations.  The extended lattice adjoins two sentinels: the empty
antichain (bottom) and the single empty clause (top); these are exactly
the two constant truth functions and are never produced by expressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional

import numpy as np

from .errors import (
    ArityMismatch,
    DnfSyntaxError,
    InvalidArgument,
    InvariantViolation,
    SizeLimitExceeded,
    UnknownVariable,
)
from .lattice import Lattice, _check_limit, set_family_lattice

GENERATE_CAP = 5
COUNT_CAP = 6
CHECK_CAP = 4  # generators for check_self_dual and meets_distinct


def _mask_indices(m: int) -> tuple[int, ...]:
    """The set bits of a clause mask, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


@dataclass(frozen=True)
class MonotoneElement:
    """Canonical join-of-meets over generators P1..Pn.

    ``clauses`` is a sorted tuple of clause bitmasks forming an antichain
    (no clause contains another).  ``()`` is the adjoined bottom and
    ``(0,)`` the adjoined top; both exist only in extended mode.
    """

    n: int
    clauses: tuple[int, ...]

    def __post_init__(self):
        full = (1 << self.n) - 1
        for c in self.clauses:
            if c & ~full:
                raise ValueError(f"clause {c:#b} uses generators beyond P{self.n}")
        if tuple(sorted(self.clauses)) != self.clauses:
            raise ValueError("clauses must be sorted")
        for i, a in enumerate(self.clauses):
            for b in self.clauses[i + 1:]:
                if a & ~b == 0 or b & ~a == 0:
                    raise ValueError("clauses must form an antichain")

    @property
    def is_bottom(self) -> bool:
        return not self.clauses

    @property
    def is_top(self) -> bool:
        return self.clauses == (0,)

    def truth_table(self) -> int:
        """Bit A is set iff the element is true under assignment mask A."""
        tt = 0
        for a in range(1 << self.n):
            if any(c & ~a == 0 for c in self.clauses):
                tt |= 1 << a
        return tt


def _prune(n: int, masks: Iterable[int]) -> MonotoneElement:
    """Keep only minimal clauses; sort; wrap."""
    ms = sorted(set(masks))
    keep = [a for a in ms if not any(b != a and b & ~a == 0 for b in ms)]
    return MonotoneElement(n, tuple(keep))


def bottom(n: int) -> MonotoneElement:
    return MonotoneElement(n, ())


def top(n: int) -> MonotoneElement:
    return MonotoneElement(n, (0,))


def generator(n: int, i: int) -> MonotoneElement:
    """The generator P_i (1-based)."""
    if not 1 <= i <= n:
        raise UnknownVariable(f"P{i} is not among P1..P{n}")
    return MonotoneElement(n, (1 << (i - 1),))


def from_clauses(n: int, clauses: Iterable[Iterable[int]]) -> MonotoneElement:
    """Build from clause index sets like [[1,2],[1,3]], pruning to canonical form."""
    masks = []
    for clause in clauses:
        m = 0
        for i in clause:
            if not 1 <= i <= n:
                raise UnknownVariable(f"P{i} is not among P1..P{n}")
            m |= 1 << (i - 1)
        masks.append(m)
    return _prune(n, masks)


def fd_join(a: MonotoneElement, b: MonotoneElement) -> MonotoneElement:
    """Join: union of clause sets, pruned to minimal clauses."""
    if a.n != b.n:
        raise ArityMismatch(f"arity {a.n} vs {b.n}")
    return _prune(a.n, a.clauses + b.clauses)


def fd_meet(a: MonotoneElement, b: MonotoneElement) -> MonotoneElement:
    """Meet: all pairwise clause unions, pruned to minimal clauses."""
    if a.n != b.n:
        raise ArityMismatch(f"arity {a.n} vs {b.n}")
    return _prune(a.n, (x | y for x in a.clauses for y in b.clauses))


def fd_leq(a: MonotoneElement, b: MonotoneElement) -> bool:
    """x <= y defined by x ^ y = x."""
    return fd_meet(a, b) == a


def render(x: MonotoneElement) -> str:
    """Canonical expression text, e.g. ``P1&P2|P1&P3``; parses back to x."""
    if x.is_bottom or x.is_top:
        raise ValueError("the adjoined bounds have no DNF expression")
    return "|".join(
        "&".join(f"P{i + 1}" for i in _mask_indices(c)) for c in x.clauses
    )


def clause_set_str(x: MonotoneElement) -> str:
    """Clause-set notation like ``{1,2}|{1,3}``; bounds print as 0̂ and 1̂."""
    if x.is_bottom:
        return "0̂"
    if x.is_top:
        return "1̂"
    return "|".join(
        "{" + ",".join(str(i + 1) for i in _mask_indices(c)) + "}"
        for c in x.clauses
    )


# -- parsing --------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VAR = re.compile(r"P([1-9])$")  # grammar admits P1..P9 only


def _tokenize(text: str) -> list[tuple[Optional[str], int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "&|()":
            tokens.append((ch, i))
            i += 1
            continue
        m = _IDENT.match(text, i)
        if not m:
            raise DnfSyntaxError(f"unexpected character {ch!r}", i)
        tokens.append((m.group(0), i))
        i = m.end()
    tokens.append((None, len(text)))
    return tokens


def parse_dnf(text: str, n: Optional[int] = None) -> MonotoneElement:
    """Parse an ``&``/``|`` expression over P1..Pn into canonical form.

    ``&`` binds tighter than ``|``; parentheses allowed; whitespace is
    insignificant.  With ``n`` omitted, the arity is the largest generator
    index used.  Raises :class:`DnfSyntaxError` with the offset of the
    problem, or :class:`UnknownVariable`.
    """
    tokens = _tokenize(text)
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def advance():
        state["i"] += 1

    def parse_or():
        terms = [parse_and()]
        while peek()[0] == "|":
            advance()
            terms.append(parse_and())
        return ("or", terms)

    def parse_and():
        factors = [parse_atom()]
        while peek()[0] == "&":
            advance()
            factors.append(parse_atom())
        return ("and", factors)

    def parse_atom():
        tok, at = peek()
        if tok == "(":
            advance()
            inner = parse_or()
            tok2, at2 = peek()
            if tok2 != ")":
                raise DnfSyntaxError("expected ')'", at2)
            advance()
            return inner
        if tok is None or tok in "&|)":
            raise DnfSyntaxError("expected a variable or '('", at)
        advance()
        m = _VAR.match(tok)
        if not m:
            raise UnknownVariable(f"unknown variable {tok!r} at offset {at}")
        return ("var", int(m.group(1)), at)

    tree = parse_or()
    tok, at = peek()
    if tok is not None:
        raise DnfSyntaxError(f"unexpected {tok!r}", at)

    indices = _collect_vars(tree)
    arity = n if n is not None else max(indices)
    for k, at in indices.items():
        if k > arity:
            raise UnknownVariable(f"P{k} at offset {at} exceeds arity {arity}")
    return _eval_tree(tree, arity)


def _collect_vars(tree) -> dict[int, int]:
    out: dict[int, int] = {}

    def walk(t):
        if t[0] == "var":
            out.setdefault(t[1], t[2])
        else:
            for child in t[1]:
                walk(child)

    walk(tree)
    return out


def _eval_tree(tree, n: int) -> MonotoneElement:
    if tree[0] == "var":
        return generator(n, tree[1])
    parts = [_eval_tree(t, n) for t in tree[1]]
    op = fd_join if tree[0] == "or" else fd_meet
    return reduce(op, parts)


# -- enumeration and counting ------------------------------------------------------


def enumerate_elements(n: int, extended: bool = False) -> list[MonotoneElement]:
    """All elements as canonical antichains (DFS over ascending clause masks)."""
    full = (1 << n) - 1
    incomp = _incomparability_masks(n)
    out: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], avail: int):
        if chosen:
            out.append(chosen)
        m = avail
        while m:
            low = m & -m
            p = low.bit_length() - 1
            m ^= low
            extend(chosen + (p + 1,), avail & incomp[p] & ~(low | (low - 1)))

    extend((), (1 << full) - 1)
    elements = [MonotoneElement(n, clauses) for clauses in sorted(out)]
    if extended:
        elements += [bottom(n), top(n)]
    return elements


def _incomparability_masks(n: int) -> list[int]:
    """incomp[p]: positions of clause masks incomparable to mask p+1."""
    count = (1 << n) - 1
    masks = []
    for a in range(1, count + 1):
        bits = 0
        for b in range(1, count + 1):
            if (a & b) != a and (a & b) != b:
                bits |= 1 << (b - 1)
        masks.append(bits)
    return masks


def generate_lattice(n: int, extended: bool = False, *, limit: Optional[int] = None) -> Lattice:
    """Materialize the free distributive lattice on n generators.

    Order, meet and join come from truth tables (subset / and / or);
    elements are named by their canonical DNF text, the adjoined bounds
    by 0̂ and 1̂.  Sizes grow as the Dedekind numbers: keep n small.  More
    than ``limit`` elements raise SizeLimitExceeded once they are
    enumerated, before the tables are built.
    """
    if n > GENERATE_CAP:
        raise SizeLimitExceeded(
            f"generate_lattice capped at n={GENERATE_CAP}; use dedekind_count for counts"
        )
    if n < 1:
        raise InvalidArgument(f"need at least one generator (got n={n})")
    elements = enumerate_elements(n, extended)
    _check_limit(len(elements), limit)
    tts = np.array([e.truth_table() for e in elements], dtype=np.uint64)
    bits = np.unpackbits(tts.view(np.uint8).reshape(len(tts), -1), axis=1)
    order = np.lexsort((tts, bits.sum(axis=1)))
    elements = [elements[i] for i in order]
    names = [
        "0̂" if e.is_bottom else "1̂" if e.is_top else render(e) for e in elements
    ]
    return set_family_lattice(names, tts[order, None])


def dedekind_count(n: int) -> int:
    """Number of elements of the extended free distributive lattice on n
    generators (counted, never looked up).

    Antichains of nonempty clause masks are counted by a DFS in ascending
    mask order whose identical suffix subproblems are shared; adding the
    one antichain holding the empty clause gives the total.  For n <= 4
    the result is cross-checked against the brute-force monotone-function
    oracle.
    """
    if n < 0:
        raise InvalidArgument(f"n must be nonnegative (got n={n})")
    if n > COUNT_CAP:
        raise SizeLimitExceeded(f"dedekind_count capped at n={COUNT_CAP}")
    if n == 0:
        return 2
    incomp = _incomparability_masks(n)
    memo: dict[int, int] = {}

    def count(avail: int) -> int:
        if avail == 0:
            return 1
        cached = memo.get(avail)
        if cached is not None:
            return cached
        low = avail & -avail
        rest = avail ^ low
        r = count(rest) + count(rest & incomp[low.bit_length() - 1])
        memo[avail] = r
        return r

    total = count((1 << ((1 << n) - 1)) - 1) + 1
    if n <= 4:
        oracle = monotone_function_count(n)
        if total != oracle:
            raise InvariantViolation(f"M({n}): enumerator {total} != oracle {oracle}")
    return total


def monotone_function_count(n: int) -> int:
    """Brute force: enumerate all 2^(2^n) truth tables, keep the monotone
    ones.  Independent of the antichain enumerator; n <= 4 only."""
    if n > 4:
        raise SizeLimitExceeded("brute-force oracle capped at n=4")
    size = 1 << n
    funcs = np.arange(1 << size, dtype=np.uint32)
    keep = np.ones(funcs.shape, dtype=bool)
    for d in range(n):
        for a in range(size):
            if a & (1 << d):
                continue
            b = a | (1 << d)
            fa = (funcs >> np.uint32(a)) & 1
            fb = (funcs >> np.uint32(b)) & 1
            keep &= ~((fa == 1) & (fb == 0))
    return int(keep.sum())


# -- structural checks ---------------------------------------------------------------


def check_self_dual(n: int) -> dict[str, str]:
    """Witness isomorphism between the restricted lattice and its dual."""
    from .birkhoff import lattice_isomorphic

    if n > CHECK_CAP:
        raise SizeLimitExceeded(f"self-duality check capped at n={CHECK_CAP}")
    l = generate_lattice(n, extended=False)
    iso = lattice_isomorphic(l, l.dual)
    if iso is None:
        raise InvariantViolation(f"restricted Λ{n} is not self-dual")
    return iso


@dataclass(frozen=True)
class MeetsReport:
    ok: bool
    meets: tuple[MonotoneElement, ...]
    irreducible_names: tuple[str, ...]


def meets_distinct(n: int) -> MeetsReport:
    """All 2^n - 1 generator meets are pairwise distinct and are exactly
    the join irreducibles of the restricted lattice (bottom included)."""
    from .lattice import join_irreducibles

    if n > CHECK_CAP:
        raise SizeLimitExceeded(f"meet-distinctness check capped at n={CHECK_CAP}")
    gens = [generator(n, i) for i in range(1, n + 1)]
    meets = []
    for mask in range(1, 1 << n):
        parts = [gens[i] for i in _mask_indices(mask)]
        meets.append(reduce(fd_meet, parts))
    ok = len(set(meets)) == len(meets)
    lattice = generate_lattice(n, extended=False)
    irr = join_irreducibles(lattice, include_bottom=True)
    expected = sorted(render(x) for x in meets)
    ok = ok and sorted(irr.names) == expected
    return MeetsReport(ok, tuple(meets), irr.names)
