"""Per-job expectations, known without running latticekit.

Every expectation is a function ``check(rc, out) -> reason or None`` where
``rc`` is the exit code of ``latticekit.cli.main`` and ``out`` its standard
output; checks that look at written files read them relative to the
current directory.  Expected values come from how the input was built (the
model in ``gen``) or from published values, never from the code under test.
"""

from __future__ import annotations

import json
import os

import gen

# M(0)..M(6): elements of the extended free distributive lattice (OEIS A000372)
DEDEKIND = [2, 3, 6, 20, 168, 7581, 7828354]


def _lines(out: str) -> list[str]:
    return out.splitlines()


def exact(rc_expected: int, lines: list[str]):
    def check(rc, out):
        if rc != rc_expected:
            return f"exit {rc}, expected {rc_expected}"
        if _lines(out) != lines:
            return f"stdout {_lines(out)[:4]!r}, expected {lines[:4]!r}"
        return None

    return check


def all_of(*checks):
    def check(rc, out):
        for c in checks:
            reason = c(rc, out)
            if reason:
                return reason
        return None

    return check


# -- written files ---------------------------------------------------------------


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def lattice_file(path: str, elements: int, covers: int | None = None):
    """The file holds ``elements`` elements and, if given, ``covers`` covers."""

    def check(rc, out):
        data = _load(path)
        if len(data["elements"]) != elements or len(set(data["elements"])) != elements:
            return f"{path}: {len(data['elements'])} elements, expected {elements}"
        if covers is not None and len(data["covers"]) != covers:
            return f"{path}: {len(data['covers'])} covers, expected {covers}"
        return None

    return check


def ideals_file(path: str, down: list[int], names: list[str]):
    """``path`` is J(P): one element per down-set, named by its members, and a
    cover labelled x from I to I + {x} for each addable x."""
    masks = gen.ideals(down)
    index = {x: i for i, x in enumerate(names)}

    def parse(name: str) -> int:
        inner = name[1:-1]
        mask = 0
        for x in inner.split(",") if inner else []:
            mask |= 1 << index[x]
        return mask

    def check(rc, out):
        data = _load(path)
        got = [parse(e) for e in data["elements"]]
        if sorted(got) != sorted(masks):
            return f"{path}: elements are not the {len(masks)} down-sets"
        labels = data.get("labels", {})
        edges = 0
        for lo, up in data["covers"]:
            a, b = parse(lo), parse(up)
            added = b & ~a
            if a & ~b or gen.popcount(added) != 1:
                return f"{path}: cover {lo} < {up} does not add one element"
            if labels.get(f"{lo}|{up}") != names[added.bit_length() - 1]:
                return f"{path}: cover {lo} < {up} mislabelled"
            edges += 1
        if edges != gen.cover_count(down, masks):
            return f"{path}: {edges} covers, expected {gen.cover_count(down, masks)}"
        return None

    return check


def stanley_dir(path: str, down: list[int]):
    """Step lines grow to |J(P)| nodes; the last snapshot is J(P) with every
    cover labelled; one DOT file per step line."""
    masks = gen.ideals(down)
    edges = gen.cover_count(down, masks)
    start = 2 ** sum(1 for i, d in enumerate(down) if d == 1 << i)

    def check(rc, out):
        if rc != 0:
            return f"exit {rc}"
        lines = _lines(out)
        steps = lines[:-1]
        sizes = [int(line.split(": ", 1)[1].split(" ", 1)[0]) for line in steps]
        if lines[-1] != f"wrote {len(steps)} snapshots to {path}":
            return f"last line {lines[-1]!r}"
        if sizes[0] != start or sizes[-1] != len(masks) or sizes != sorted(sizes):
            return f"step sizes {sizes[:3]}..{sizes[-1:]} do not grow {start}..{len(masks)}"
        if sorted(os.listdir(path)) != [f"step_{k:03d}.dot" for k in range(len(steps))]:
            return f"{path}: files do not match {len(steps)} steps"
        with open(os.path.join(path, f"step_{len(steps) - 1:03d}.dot"), encoding="utf-8") as fh:
            dot = fh.read()
        arrows = [line for line in dot.splitlines() if " -> " in line]
        if len(arrows) != edges or not all("[label=" in line for line in arrows):
            return f"last snapshot has {len(arrows)} labelled edges, expected {edges}"
        return None

    return check


# -- property verdicts on S x J(P) ------------------------------------------------------


def _chain_ok(model: gen.Product, chain: list[str]) -> bool:
    try:
        elems = [model.by_name[x] for x in chain]
    except KeyError:
        return False
    return (
        elems[0] == model.bottom()
        and elems[-1] == model.top()
        and all(model.is_cover(a, b) for a, b in zip(elems, elems[1:]))
    )


def _sublattice_shape(model: gen.Product, names: list[str]) -> str | None:
    """'m3' or 'n5' when the five named elements form that sublattice."""
    try:
        elems = {model.by_name[x.strip()] for x in names}
    except KeyError:
        return None
    if len(elems) != 5:
        return None
    for a in elems:
        for b in elems:
            if model.meet(a, b) not in elems or model.join(a, b) not in elems:
                return None
    comparable = sum(
        1 for a in elems for b in elems if a != b and model.leq(a, b)
    )
    # a five-element lattice has 4 + 3 pairs through its bounds; M3 adds no
    # comparable pair among the middle three, N5 adds exactly one
    return {7: "m3", 8: "n5"}.get(comparable)


def _identity_fails(model: gen.Product, names: list[str], modular: bool) -> bool:
    try:
        a, b, c = (model.by_name[x] for x in names)
    except KeyError:
        return False
    m, j = model.meet, model.join
    if modular:  # the modular identity, for b <= c
        return model.leq(b, c) and j(b, m(a, c)) != m(j(b, a), c)
    return j(b, m(a, c)) != m(j(b, a), j(b, c))


def _witness(model: gen.Product, line: str, prop: str) -> str | None:
    """The kind of a valid witness line, or None."""
    text = line.strip()
    if text.startswith("identity fails at "):
        parts = [p.split("=", 1)[1] for p in text[len("identity fails at "):].split(" ")]
        return "identity" if _identity_fails(model, parts, prop == "modular") else None
    for kind, shape in (("pentagon", "n5"), ("diamond", "m3")):
        prefix = f"{kind} sublattice: "
        if text.startswith(prefix):
            return kind if _sublattice_shape(model, text[len(prefix):].split(", ")) == shape else None
    return None


def _chains(model: gen.Product, lines: list[str]) -> str | None:
    chains = [line.strip()[len("chain: "):].split(" < ") for line in lines]
    if len(chains) != 2 or not all(line.strip().startswith("chain: ") for line in lines):
        return f"expected two chain lines, got {lines!r}"
    if not all(_chain_ok(model, c) for c in chains):
        return "a witness chain is not a maximal chain"
    if len(chains[0]) == len(chains[1]):
        return "witness chains have equal length"
    return None


def verdict(model: gen.Product, prop: str):
    """Expected ``check --property prop`` behaviour on S x J(P).

    J(P) is distributive, graded of length |P| and multiplicity free, so
    every property holds.  M3 x J(P) is modular, hence graded, semimodular
    and Jordan-Hoelder, of length |P| + 2, with the class of M3's edges
    occurring twice on each maximal chain; it contains a diamond, so it is
    neither distributive nor multiplicity free.  N5 x J(P) contains a
    pentagon and maximal chains of different lengths, so it is not graded,
    not semimodular, not modular and not distributive.
    """
    k = len(model.down)
    length = k + (2 if model.kind == "m3" else 0)

    def check(rc, out):
        lines = _lines(out)
        if not lines:
            return "no output"
        head, rest = lines[0], lines[1:]
        if model.kind == "n5":
            if rc != 1:
                return f"exit {rc}, expected 1"
            if prop == "graded":
                return f"head {head!r}" if head != "graded: false" else _chains(model, rest)
            if prop == "semimodular":
                if head != "upper semimodular: false" or rest[:1] != ["  not graded:"]:
                    return f"head {lines[:2]!r}"
                return _chains(model, rest[1:])
            if head != f"{prop}: false":
                return f"head {head!r}"
            kinds = [_witness(model, line, prop) for line in rest]
            if not rest or None in kinds:
                return f"invalid witness lines {rest!r}"
            return None
        if prop == "distributive" and model.kind == "m3":
            if rc != 1 or head != "distributive: false":
                return f"exit {rc}, head {head!r}"
            kinds = [_witness(model, line, prop) for line in rest]
            if None in kinds or "diamond" not in kinds:
                return f"invalid witness lines {rest!r}"
            return None
        if prop == "multfree":
            ok = model.kind == "one"
            return exact(0 if ok else 1, [f"multiplicity free: {'true' if ok else 'false'}"])(rc, out)
        if prop == "jordanholder":
            if rc != 0 or not head.startswith("jordan-holder: true (multiplicities ") or rest:
                return f"exit {rc}, output {lines!r}"
            vector = head[len("jordan-holder: true (multiplicities "):-1].split(",")
            want = [1] * k + ([2] if model.kind == "m3" else [])
            return None if sorted(int(v) for v in vector) == sorted(want) else f"vector {vector}"
        want = {
            "graded": f"graded: true (degree {length})",
            "modular": "modular: true",
            "distributive": "distributive: true",
            "semimodular": "upper semimodular: true",
        }[prop]
        return exact(0, [want])(rc, out)

    return check


def irreducibles(model: gen.Product):
    """``birkhoff irr`` on J(P): the principal down-sets, ordered as P."""
    down = model.down
    names = [gen.ideal_name(d) for d in down]
    covers = {f"  {names[i]} < {names[j]}" for i, j in gen.covers(down)}

    def check(rc, out):
        lines = _lines(out)
        if rc != 0 or not lines:
            return f"exit {rc}"
        head = f"{len(down)} join irreducibles: "
        if not lines[0].startswith(head) or set(lines[0][len(head):].split(", ")) != set(names):
            return f"head {lines[0]!r}"
        if set(lines[1:]) != covers or len(lines) != len(covers) + 1:
            return "cover lines differ from P"
        return None

    return check


# -- reconstruction ------------------------------------------------------------------


def reconstruct(down: list[int], with_bounds: bool, out: str | None, dot: str | None):
    """``reconstruct``: |J(P)| elements (+2 with bounds), named as a standard
    lattice exactly when it is one, and the written files sized to match."""
    size = len(gen.ideals(down))
    covers = gen.cover_count(down, gen.ideals(down))
    shape = gen.with_bounds(down) if with_bounds else down
    names = gen.recognised_names(shape)
    if with_bounds:
        size, covers = size + 2, covers + 2
    tail = [f"wrote {p}" for p in (out, dot) if p]

    def check(rc, text):
        lines = _lines(text)
        if rc != 0 or not lines:
            return f"exit {rc}"
        head = lines[0]
        base = f"{size} elements"
        if names:
            if head not in {f"{base}; isomorphic to {name}" for name in names}:
                return f"head {head!r}, expected {base} and one of {sorted(names)}"
        elif head != base:
            return f"head {head!r}, expected {base!r}"
        if lines[1:] != tail:
            return f"lines {lines[1:]!r}"
        if out:
            return lattice_file(out, size, covers)(rc, text)
        return None

    return check


def dnf(tree):
    clauses = gen.minimal_true_sets(tree)
    text = "|".join(
        "{" + ",".join(str(i + 1) for i in gen.bits(c)) + "}" for c in clauses
    )
    return exact(0, [text])
