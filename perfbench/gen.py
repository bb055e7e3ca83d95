"""Seeded input generators and the order model the expectations come from.

Everything here is plain Python over bitmasks and is written without
latticekit: the benchmark builds its inputs and its expected outputs from
this model, so a defect in the package cannot hide in its own oracle.

A poset on k elements is a list ``down`` of bitmasks, ``down[i]`` holding
every j <= i (i included).  Down-sets are bitmasks closed downward.
"""

from __future__ import annotations

import itertools
import json
import random


def popcount(m: int) -> int:
    return bin(m).count("1")


def bits(m: int) -> list[int]:
    return [i for i in range(m.bit_length()) if m >> i & 1]


# -- posets ------------------------------------------------------------------------


def random_poset(rng: random.Random, k: int, density: float) -> list[int]:
    """Random order on k elements: i < j with probability ``density`` for i < j
    in a hidden linear extension, then transitively closed."""
    down = [1 << i for i in range(k)]
    for j in range(k):
        for i in range(j):
            if rng.random() < density:
                down[j] |= down[i]  # down[i] is already closed
    return down


def covers(down: list[int]) -> list[tuple[int, int]]:
    """(i, j) with i < j and nothing strictly between."""
    out = []
    for j, dj in enumerate(down):
        below = dj & ~(1 << j)
        for i in bits(below):
            if not any(
                below >> m & 1 and down[m] >> i & 1 and m != i for m in bits(below)
            ):
                out.append((i, j))
    return sorted(out)


def ideals(down: list[int], cap: int | None = None) -> list[int] | None:
    """Every down-set, grown breadth first from the empty set by adding one
    element whose strict down-set is already present; None past ``cap``."""
    seen = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for cur in frontier:
            for x, dx in enumerate(down):
                bit = 1 << x
                if not cur & bit and dx & ~bit & ~cur == 0 and cur | bit not in seen:
                    seen.add(cur | bit)
                    fresh.append(cur | bit)
        if cap is not None and len(seen) > cap:
            return None
        frontier = fresh
    return sorted(seen, key=lambda m: (popcount(m), m))


def addable(down: list[int], ideal: int) -> list[int]:
    """Elements x such that ideal + {x} is again a down-set (its upper covers)."""
    return [
        x
        for x, dx in enumerate(down)
        if not ideal >> x & 1 and dx & ~(1 << x) & ~ideal == 0
    ]


def cover_count(down: list[int], masks: list[int]) -> int:
    return sum(len(addable(down, m)) for m in masks)


def poset_for_size(rng: random.Random, target: int, tol: float = 0.02) -> list[int]:
    """A random poset whose down-set lattice has target * (1 +- tol) elements."""
    lo, hi = target * (1 - tol), target * (1 + tol)
    # a fixed element count per size keeps the lattices' shapes, and so the
    # cost of judging them, alike from one seed to the next
    k = target.bit_length() + 2
    while True:
        down = random_poset(rng, k, rng.uniform(0.05, 0.6))
        found = ideals(down, cap=int(hi))
        if found is not None and lo <= len(found) <= hi:
            return down


def poset_json(down: list[int], prefix: str = "x") -> dict:
    return {
        "elements": [f"{prefix}{i}" for i in range(len(down))],
        "covers": [[f"{prefix}{i}", f"{prefix}{j}"] for i, j in covers(down)],
    }


def is_isomorphic(a: list[int], b: list[int]) -> bool:
    """Brute-force order isomorphism; meant for posets of at most ~8 elements."""
    if len(a) != len(b):
        return False
    sig = lambda d: sorted(
        (popcount(d[i]), sum(1 for dj in d if dj >> i & 1)) for i in range(len(d))
    )
    if sig(a) != sig(b):
        return False
    n = len(a)
    for perm in itertools.permutations(range(n)):
        if all(
            (a[j] >> i & 1) == (b[perm[j]] >> perm[i] & 1)
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def antichain(k: int) -> list[int]:
    return [1 << i for i in range(k)]


# The nonzero join irreducibles of the restricted free distributive lattice on
# three generators: three pairwise meets below the three generators, each
# generator above the two meets it takes part in.
CROWN = [0b000001, 0b000010, 0b000100, 0b001011, 0b010101, 0b100110]


def with_bounds(down: list[int]) -> list[int]:
    """1 + P + 1: a new minimum below and a new maximum above every element."""
    k = len(down)
    shifted = [(d << 1) | 1 for d in down]
    return [1] + shifted + [(1 << (k + 2)) - 1]


def recognised_names(down: list[int]) -> set[str]:
    """Names ``latticekit reconstruct`` may print for J(down).

    J(R) is isomorphic to a distributive lattice X exactly when R is
    isomorphic to the poset of X's nonzero join irreducibles (Birkhoff).
    The small standard lattices the command names, by those posets:
    B_k is J of a k-antichain; the restricted free distributive lattice on
    two generators is B_2 and on three is J(CROWN); the extended one adds a
    new minimum and maximum to the irreducibles, and on one generator it is
    the three-element chain.
    """
    names = set()
    for k in range(1, 5):
        if is_isomorphic(down, antichain(k)):
            names.add(f"B{k}")
    if is_isomorphic(down, antichain(2)):
        names.add("restricted Λ2")
    if is_isomorphic(down, CROWN):
        names.add("restricted Λ3")
    if is_isomorphic(down, [1, 3]):
        names.add("extended Λ1")
    if is_isomorphic(down, with_bounds(antichain(2))):
        names.add("extended Λ2")
    if is_isomorphic(down, with_bounds(CROWN)):
        names.add("extended Λ3")
    return names


# -- lattices: S x J(P) for a five-element S or the one-element lattice ------------


class Product:
    """The lattice S x J(P), S one of ONE, M3, N5, with its own meet and join.

    Elements are pairs (s, ideal mask); names are S's name followed by the
    ideal's name.
    """

    # element names and covers (lower, upper) by element index
    SMALL = {
        "one": ([""], []),
        "m3": (["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
        "n5": (["0", "a", "b", "c", "1"], [(0, 1), (0, 3), (3, 2), (1, 4), (2, 4)]),
    }

    def __init__(self, kind: str, down: list[int]):
        snames, scovers = self.SMALL[kind]
        self.kind = kind
        self.down = down
        s = len(snames)
        sdown = [1 << i for i in range(s)]
        for _ in range(s):
            for lo, up in scovers:
                sdown[up] |= sdown[lo]
        self.sdown = sdown
        self.scovers = scovers
        self.elements = [(a, m) for a in range(s) for m in ideals(down)]
        self.elements.sort(
            key=lambda e: (popcount(sdown[e[0]]) + popcount(e[1]), e[0], e[1])
        )
        self.name = {e: snames[e[0]] + ideal_name(e[1]) for e in self.elements}
        self.by_name = {v: k for k, v in self.name.items()}

    def leq(self, x, y) -> bool:
        return self.sdown[y[0]] >> x[0] & 1 == 1 and x[1] & ~y[1] == 0

    def _small(self, a: int, b: int, upward: bool) -> int:
        s = range(len(self.sdown))
        if upward:
            bounds = [c for c in s if self.sdown[c] >> a & 1 and self.sdown[c] >> b & 1]
            return min(bounds, key=lambda c: popcount(self.sdown[c]))
        bounds = [c for c in s if self.sdown[a] >> c & 1 and self.sdown[b] >> c & 1]
        return max(bounds, key=lambda c: popcount(self.sdown[c]))

    def meet(self, x, y):
        return (self._small(x[0], y[0], False), x[1] & y[1])

    def join(self, x, y):
        return (self._small(x[0], y[0], True), x[1] | y[1])

    def is_cover(self, x, y) -> bool:
        if x[1] == y[1]:
            return (x[0], y[0]) in self.scovers
        added = y[1] & ~x[1]
        return (
            x[0] == y[0]
            and x[1] & ~y[1] == 0
            and added in [1 << a for a in addable(self.down, x[1])]
        )

    def bottom(self):
        return self.elements[0]

    def top(self):
        return self.elements[-1]

    def cover_list(self):
        out = []
        for a, m in self.elements:
            for lo, up in self.scovers:
                if lo == a:
                    out.append(((a, m), (up, m)))
            for x in addable(self.down, m):
                out.append(((a, m), (a, m | 1 << x)))
        return out

    def to_json(self) -> dict:
        return {
            "elements": [self.name[e] for e in self.elements],
            "covers": [[self.name[x], self.name[y]] for x, y in self.cover_list()],
        }


def ideal_name(mask: int) -> str:
    return f"I{mask:x}"


# -- reconstruction specs ----------------------------------------------------------


def spec_json(rng: random.Random, down: list[int], infer: bool) -> dict:
    """A multiplicity-free spec whose irreducibles are the elements of ``down``.

    Irreducible i is named Mi with head factor fi and factor set {fj : j <= i}.
    Declared order facts are the covers; with ``infer`` some are left out,
    since the factor sets imply them.  Partial edges name covers from the
    bottom to the principal ideal of a minimal element, and from there to the
    join with a second minimal element.
    """
    k = len(down)
    factors = [f"f{i}" for i in range(k)]
    rng.shuffle(factors)
    order = [[f"M{i}", f"M{j}"] for i, j in covers(down)]
    if infer:
        order = [pair for pair in order if rng.random() < 0.5]
    minimal = [i for i in range(k) if down[i] == 1 << i]
    edges = [["0", f"M{i}", f"f{i}"] for i in minimal[:2]]
    if len(minimal) >= 2:
        i, j = minimal[0], minimal[1]
        edges.append([f"M{i}", f"M{i}+M{j}", f"f{j}"])
    return {
        "factors": factors,
        "irreducibles": [
            {
                "name": f"M{i}",
                "top": f"f{i}",
                "factors": [f"f{j}" for j in bits(down[i])],
            }
            for i in range(k)
        ],
        "order": order,
        "edges": edges,
        "bounds": {
            "bottom_name": "Z",
            "bottom_label": "soc",
            "top_name": "T",
            "top_label": "hd",
        },
    }


# -- free distributive lattice expressions -------------------------------------------


def random_expr(rng: random.Random, depth: int, nvars: int = 6):
    """A random &/| expression tree over P1..P<nvars>."""
    if depth == 0 or rng.random() < 0.25:
        return ("var", rng.randint(1, nvars))
    op = rng.choice("&|")
    return (op, [random_expr(rng, depth - 1, nvars) for _ in range(rng.randint(2, 3))])


def expr_text(tree) -> str:
    if tree[0] == "var":
        return f"P{tree[1]}"
    return "(" + tree[0].join(expr_text(t) for t in tree[1]) + ")"


def expr_value(tree, assignment: int) -> bool:
    if tree[0] == "var":
        return bool(assignment >> (tree[1] - 1) & 1)
    vals = (expr_value(t, assignment) for t in tree[1])
    return all(vals) if tree[0] == "&" else any(vals)


def minimal_true_sets(tree, nvars: int = 6) -> list[int]:
    """The monotone function's minimal true assignments, ascending as masks."""
    true = [a for a in range(1 << nvars) if expr_value(tree, a)]
    return sorted(a for a in true if not any(b != a and b & ~a == 0 for b in true))


def write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, ensure_ascii=False)
