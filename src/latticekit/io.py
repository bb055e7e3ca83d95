"""JSON and DOT serialization.

Poset/lattice files share one shape:

    { "elements": ["0", "a", ...],
      "covers":   [["0", "a"], ...],
      "labels":   { "0|a": "g", ... } }        # optional, keyed lower|upper

Files are written byte-identical to ``json.dumps(d, ensure_ascii=False,
indent=2)`` plus a newline, but formatted directly: every string goes
through ``json.encoder.encode_basestring``, the C routine that
``json.dumps`` calls on a string, and the indented layout is the fixed
one above, so the pure-Python encoder that ``indent`` forces is never run.

DOT output is a digraph with edges oriented lower to upper, rankdir=BT,
and the factor letter as edge label when present; names are quoted as
JSON strings by the same routine.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from pathlib import Path
from typing import Optional, Union

from .birkhoff import LabeledLattice
from .errors import InvalidSpec
from .lattice import Lattice, _check_limit, as_lattice
from .poset import Poset, build_poset

PathLike = Union[str, Path]


def poset_to_dict(p: Poset, labels: Optional[dict] = None) -> dict:
    out = {
        "elements": list(p.names),
        "covers": [[a, b] for a, b in p.cover_names()],
    }
    if labels:
        for (a, b), lab in labels.items():
            if "|" in a or "|" in b:
                raise InvalidSpec(
                    "element names may not contain '|' when labels are stored"
                )
            if not isinstance(lab, str):
                raise InvalidSpec(f"label of edge {a!r} -> {b!r} must be a string, not {lab!r}")
        out["labels"] = {f"{a}|{b}": lab for (a, b), lab in sorted(labels.items())}
    return out


def poset_from_dict(data: dict, limit: Optional[int] = None) -> tuple[Poset, dict]:
    """Poset and edge labels from the shape above.

    Raises :class:`InvalidSpec` naming the first field that does not fit
    it: ``data`` must be an object with an ``elements`` list of distinct
    names and a ``covers`` list of [lower, upper] pairs; ``labels``, when
    present, an object of strings keyed ``lower|upper``.  The element
    count goes through ``lattice._check_limit`` before the poset is built.
    """
    if not isinstance(data, dict):
        raise InvalidSpec(f"poset file must hold a JSON object, not {type(data).__name__}")
    for field in ("elements", "covers"):
        if field not in data:
            raise InvalidSpec(f"poset file has no {field!r} list")
        if not isinstance(data[field], (list, tuple)):
            raise InvalidSpec(
                f"{field!r} must be a list, not {type(data[field]).__name__}"
            )
    seen = set()
    for name in map(str, data["elements"]):
        if name in seen:
            raise InvalidSpec(f"'elements' repeats the name {name!r}")
        seen.add(name)
    for pair in data["covers"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidSpec(
                f"each 'covers' item must be a [lower, upper] pair, not {pair!r}"
            )
    raw_labels = data.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise InvalidSpec(f"'labels' must be an object, not {type(raw_labels).__name__}")
    labels = {}
    for key, lab in raw_labels.items():
        a, sep, b = key.partition("|")
        if not sep:
            raise InvalidSpec(f"'labels' key {key!r} is not of the form 'lower|upper'")
        if not isinstance(lab, str):
            raise InvalidSpec(f"'labels' value for {key!r} must be a string, not {lab!r}")
        labels[(a, b)] = lab
    _check_limit(len(data["elements"]), limit)
    p = build_poset(data["elements"], [tuple(c) for c in data["covers"]])
    return p, labels


def read_poset(path: PathLike, limit: Optional[int] = None) -> tuple[Poset, dict]:
    with open(path, encoding="utf-8") as fh:
        return poset_from_dict(json.load(fh), limit)


def write_poset(path: PathLike, p: Poset, labels: Optional[dict] = None) -> None:
    Path(path).write_text(_dumps(poset_to_dict(p, labels)), encoding="utf-8")


def _dumps(data: dict) -> str:
    """``json.dumps(data, ensure_ascii=False, indent=2) + "\\n"`` for the
    file shape above, whose names and labels are all strings."""

    def block(items: list[str], brackets: str, indent: str) -> str:
        if not items:
            return brackets
        inner = ",\n" + indent + "  "
        return f"{brackets[0]}\n{indent}  {inner.join(items)}\n{indent}{brackets[1]}"

    q = encode_basestring
    pairs = [f"[\n      {q(a)},\n      {q(b)}\n    ]" for a, b in data["covers"]]
    fields = {
        "elements": block([q(x) for x in data["elements"]], "[]", "  "),
        "covers": block(pairs, "[]", "  "),
    }
    if "labels" in data:
        labels = [f"{q(k)}: {q(v)}" for k, v in data["labels"].items()]
        fields["labels"] = block(labels, "{}", "  ")
    return block([f"{q(k)}: {v}" for k, v in fields.items()], "{}", "") + "\n"


def read_lattice(path: PathLike, limit: Optional[int] = None) -> Lattice:
    """Load a poset file and validate lattice-ness.  A file of more than
    ``limit`` elements raises SizeLimitExceeded before the poset is built."""
    p, _ = read_poset(path, limit)
    return as_lattice(p)


def read_labeled_lattice(path: PathLike, limit: Optional[int] = None) -> LabeledLattice:
    p, labels = read_poset(path, limit)
    ll = LabeledLattice(as_lattice(p), labels)
    ll.validate()
    return ll


def write_lattice(path: PathLike, l: Lattice, labels: Optional[dict] = None) -> None:
    write_poset(path, l.poset, labels)


_dot_quote = encode_basestring  # json.dumps(text, ensure_ascii=False) for a str


def to_dot(p: Poset, labels: Optional[dict] = None, name: str = "lattice") -> str:
    """Graphviz digraph: one node per element, one edge per cover pair."""
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;"]
    for x in p.names:
        lines.append(f"  {_dot_quote(x)};")
    for a, b in p.cover_names():
        attr = ""
        if labels and (a, b) in labels:
            attr = f" [label={_dot_quote(labels[(a, b)])}]"
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def labeled_to_dot(ll: LabeledLattice, name: str = "lattice") -> str:
    return to_dot(ll.lattice.poset, ll.edge_labels, name)
