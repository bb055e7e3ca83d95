"""Named standard posets and lattices used throughout the tests and demos,
plus a seeded random-lattice generator (random intersection-closed set
families, which realize every kind of small lattice)."""

from __future__ import annotations

import random

import numpy as np

from .lattice import Lattice, as_lattice, set_family_tables
from .poset import Poset, build_poset


def chain_poset(k: int) -> Poset:
    """k+1 elements 0 < c1 < ... < c(k-1) < 1 (a chain of length k)."""
    if k == 0:
        return build_poset(["0"], [])
    names = ["0"] + [f"c{i}" for i in range(1, k)] + ["1"]
    return build_poset(names, list(zip(names, names[1:])))


def antichain_poset(k: int) -> Poset:
    return build_poset([f"x{i}" for i in range(1, k + 1)], [])


def _boolean_family(n: int) -> tuple[np.ndarray, list[str]]:
    """The subsets of [n] as masks in (size, mask) order, smallest dtype, and their names."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    names = ["{" + ",".join(str(i + 1) for i in range(n) if m >> i & 1) + "}" for m in masks]
    return np.array(masks, dtype=np.min_scalar_type(len(masks) - 1)), names


def boolean_poset(n: int) -> Poset:
    """All subsets of [n] ordered by inclusion; names like ``{1,3}``."""
    masks, names = _boolean_family(n)
    return Poset(names, (masks[:, None] & ~masks) == 0)


def boolean_lattice(n: int) -> Lattice:
    masks, names = _boolean_family(n)
    leq, meet, join = set_family_tables(masks.astype(np.uint64)[:, None])
    return Lattice(Poset(names, leq), meet, join)


def pentagon_poset() -> Poset:
    """The 5-element pentagon: 0 < a < 1 and 0 < c < b < 1."""
    return build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "1"), ("0", "c"), ("c", "b"), ("b", "1")],
    )


def pentagon() -> Lattice:
    return as_lattice(pentagon_poset())


def diamond_poset() -> Poset:
    """The 5-element diamond M3: three incomparable elements between bounds."""
    return build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
    )


def diamond() -> Lattice:
    return as_lattice(diamond_poset())


def divisor_poset(m: int) -> Poset:
    """Divisors of m ordered by divisibility (the subgroup lattice of Z/m)."""
    divs = [d for d in range(1, m + 1) if m % d == 0]
    covers = [
        (str(a), str(b))
        for a in divs
        for b in divs
        if b != a and b % a == 0 and _is_prime(b // a)
    ]
    return build_poset([str(d) for d in divs], covers)


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % p for p in range(2, int(q**0.5) + 1))


def divisor_lattice(m: int) -> Lattice:
    return as_lattice(divisor_poset(m))


def three_element_posets() -> dict[str, Poset]:
    """The five isomorphism classes of 3-element posets.

    Their down-set lattices are exactly the distributive lattices of
    length 3: the 4-chain, the divisor lattice of 12, the cube, and the
    kite plus its dual.
    """
    return {
        "chain": build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")]),
        "chain_plus_point": build_poset(["x", "y", "z"], [("x", "y")]),
        "antichain": antichain_poset(3),
        "vee": build_poset(["x", "y", "z"], [("x", "z"), ("y", "z")]),
        "wedge": build_poset(["x", "y", "z"], [("z", "x"), ("z", "y")]),
    }


def random_lattice(
    rng: random.Random,
    *,
    max_size: int = 12,
    universe: int = 6,
    max_generators: int = 8,
) -> Lattice:
    """A random lattice with at most ``max_size`` elements.

    Closes a random family of subsets of a small universe under
    intersection and adds the full set: an intersection-closed family with
    a top is always a lattice (join = least member above the union), and
    such families realize modular, non-modular and non-distributive shapes
    alike.  Rejection-samples until the closure is small enough.
    """
    full = frozenset(range(universe))
    while True:
        k = rng.randint(1, max_generators)
        family = {full}
        for _ in range(k):
            size = rng.randint(0, universe)
            family.add(frozenset(rng.sample(range(universe), size)))
        closed = set(family)
        frontier = list(family)
        while frontier:
            fresh = []
            for i, a in enumerate(frontier):
                for b in list(closed):
                    c = a & b
                    if c not in closed:
                        closed.add(c)
                        fresh.append(c)
            frontier = fresh
        if len(closed) > max_size:
            continue
        members = sorted(closed, key=lambda s: (len(s), sorted(s)))
        names = ["s" + "".join(str(i) for i in sorted(s)) for s in members]
        return as_lattice(Poset(names, [[a <= b for b in members] for a in members]))
