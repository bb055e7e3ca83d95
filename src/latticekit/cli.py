"""Command-line interface.

Verbs: check, birkhoff, stanley, freedist, dedekind, reconstruct, render,
factors.  JSON in, JSON/DOT out.  Exit codes: 0 success (or property
true), 1 property false (check verbs), 2 input error, 3 size limit (or
out of memory), 4 invariant violated (equivalent criteria disagreed: a
latticekit defect, not an input error).
``--limit N`` (else LATTICE_LIMIT, else 10 000 000), a positive integer,
caps the elements of every lattice a verb reads or builds, and every poset
file holds at most the 32 767 elements of int16 tables; larger inputs exit
3 before any n×n array exists.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

from . import birkhoff, freedist, io, properties
from .errors import InvariantViolation, LatticeError, SizeLimitExceeded
from .poset import DEFAULT_IDEAL_CAP
from .reconstruct import element_factors, load_spec
from .reconstruct import reconstruct as run_reconstruction

# elements of the extended free distributive lattice on k generators (the
# Dedekind numbers, which freedist.dedekind_count computes); a reconstructed
# lattice of one of these sizes, or of two fewer, is compared with it
FREE_LATTICE_SIZES = {1: 3, 2: 6, 3: 20, 4: 168}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    limit, source = args.limit, "--limit"
    if limit is None:
        env, source = os.environ.get("LATTICE_LIMIT"), "LATTICE_LIMIT"
        try:
            limit = int(env) if env else DEFAULT_IDEAL_CAP
        except ValueError:
            print(f"input error: LATTICE_LIMIT must be an integer, not {env!r}", file=sys.stderr)
            return 2
    if limit < 1:
        print(f"input error: {source} must be a positive integer, not {limit}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args, limit)
    except SizeLimitExceeded as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        verb = args.verb + (f" {args.mode}" if "mode" in args else "")
        print(f"size limit: out of memory ({verb})", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        where = "" if isinstance(exc, OSError) else f"{args.file}: "  # an OSError's text names the file
        print(f"input error: {where}{exc}", file=sys.stderr)
        return 2


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as ``warning: <message>``, without the source path
    and line that Python's default format adds."""
    print(f"warning: {message}", file=file or sys.stderr)


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticekit",
        description="finite poset and lattice computations on JSON files",
    )
    parser.add_argument("--limit", type=int, help="most elements a lattice may have")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="test a lattice property, exit 0/1")
    p.add_argument("file")
    p.add_argument(
        "--property",
        required=True,
        choices=[
            "modular",
            "distributive",
            "semimodular",
            "graded",
            "multfree",
            "jordanholder",
        ],
    )
    p.add_argument(
        "--allow-nonmodular",
        action="store_true",
        help="run interval-class based checks on non-modular input anyway",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("birkhoff", help="down-set lattice, join irreducibles, round-trip")
    bsub = p.add_subparsers(dest="mode", required=True)
    b = bsub.add_parser("ideals")
    b.add_argument("file")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_birkhoff_ideals)
    b = bsub.add_parser("irr")
    b.add_argument("file")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_birkhoff_irr)
    b = bsub.add_parser("roundtrip")
    b.add_argument("file")
    b.set_defaults(func=_cmd_birkhoff_roundtrip)

    p = sub.add_parser("stanley", help="incremental construction trace to DOT files")
    p.add_argument("file")
    p.add_argument("--trace-dir", required=True)
    p.set_defaults(func=_cmd_stanley)

    p = sub.add_parser("freedist", help="free distributive lattice operations")
    fsub = p.add_subparsers(dest="mode", required=True)
    f = fsub.add_parser("count")
    f.add_argument("--n", type=int, required=True)
    f.set_defaults(func=_cmd_dedekind)
    f = fsub.add_parser("generate")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--extended", action="store_true")
    f.add_argument("--out", required=True)
    f.set_defaults(func=_cmd_freedist_generate)
    f = fsub.add_parser("dnf")
    f.add_argument("expr")
    f.set_defaults(func=_cmd_freedist_dnf)

    p = sub.add_parser("dedekind", help="count the extended free lattice")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("reconstruct", help="rebuild a submodule lattice from a spec")
    p.add_argument("file")
    p.add_argument("--with-bounds", action="store_true")
    p.add_argument("--infer", action="store_true")
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("render", help="poset/lattice JSON to DOT")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("factors", help="factor multiset of one element")
    p.add_argument("file")
    p.add_argument("element")
    p.set_defaults(func=_cmd_factors)
    return parser


def _cmd_check(args, limit) -> int:
    l = io.read_lattice(args.file, limit)
    prop = args.property
    if prop in ("modular", "distributive"):
        judge = properties.is_modular if prop == "modular" else properties.is_distributive
        rep = judge(l)
        print(f"{prop}: {'true' if rep else 'false'}")
        if rep:
            return 0
        if rep.violation:
            a, b, c = rep.violation
            print(f"  identity fails at a={a} b={b} c={c}")
        for shape in ("pentagon", "diamond"):
            if getattr(rep, shape, None):
                print(f"  {shape} sublattice: {', '.join(getattr(rep, shape))}")
        return 1
    if prop == "semimodular":
        rep = properties.is_upper_semimodular(l)
        if rep.ok:
            print("upper semimodular: true")
            return 0
        print("upper semimodular: false")
        if not rep.graded:
            print("  not graded:")
            _print_chains(rep.chain_witness)
        elif rep.violation:
            print(f"  degree inequality fails at {rep.violation}")
        return 1
    if prop == "graded":
        g = l.grading
        if g.graded:
            top_degree = g.degree[l.top]
            print(f"graded: true (degree {top_degree})")
            return 0
        print("graded: false")
        _print_chains(g.witness)
        return 1
    if prop == "multfree":
        ok = properties.is_multiplicity_free(
            l, allow_nonmodular=args.allow_nonmodular
        )
        print(f"multiplicity free: {'true' if ok else 'false'}")
        return 0 if ok else 1
    # jordanholder
    rep = properties.verify_jordan_holder(
        l, allow_nonmodular=args.allow_nonmodular
    )
    if rep.ok:
        vector = ",".join(str(rep.multiplicities[c]) for c in sorted(rep.multiplicities))
        print(f"jordan-holder: true (multiplicities {vector})")
        return 0
    print("jordan-holder: false")
    _print_chains(rep.witness)
    return 1


def _print_chains(witness):
    if witness:
        for chain in witness:
            print("  chain: " + " < ".join(chain))


def _cmd_birkhoff_ideals(args, limit) -> int:
    p, _ = io.read_poset(args.file)
    ll = birkhoff.ideals_lattice(p, cap=limit)
    print(f"{ll.n} order ideals")
    if args.out:
        io.write_lattice(args.out, ll.lattice, ll.edge_labels)
        print(f"wrote {args.out}")
    return 0


def _cmd_birkhoff_irr(args, limit) -> int:
    l = io.read_lattice(args.file, limit)
    p = birkhoff.irreducible_poset(l)
    print(f"{p.n} join irreducibles: {', '.join(p.names)}")
    for a, b in p.cover_names():
        print(f"  {a} < {b}")
    if args.out:
        io.write_poset(args.out, p)
        print(f"wrote {args.out}")
    return 0


def _cmd_birkhoff_roundtrip(args, limit) -> int:
    l = io.read_lattice(args.file, limit)
    rep = birkhoff.birkhoff_roundtrip(l)
    print(f"roundtrip: {'ok' if rep.ok else 'FAILED'}")
    return 0 if rep.ok else 1


def _cmd_stanley(args, limit) -> int:
    p, _ = io.read_poset(args.file)
    trace = birkhoff.stanley_construct(p, cap=limit)
    out = Path(args.trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, step in enumerate(trace.steps):
        path = out / f"step_{k:03d}.dot"
        path.write_text(io.to_dot(step.poset, step.labels), encoding="utf-8")
        print(f"step {k}: {step.poset.n} nodes - {step.description}")
    print(f"wrote {len(trace.steps)} snapshots to {out}")
    return 0


def _cmd_dedekind(args, limit) -> int:
    print(freedist.dedekind_count(args.n))
    return 0


def _cmd_freedist_generate(args, limit) -> int:
    l = freedist.generate_lattice(args.n, extended=args.extended, limit=limit)
    io.write_lattice(args.out, l)
    print(f"wrote {args.out} ({l.n} elements)")
    return 0


def _cmd_freedist_dnf(args, limit) -> int:
    elem = freedist.parse_dnf(args.expr)
    print(freedist.clause_set_str(elem))
    return 0


def _cmd_reconstruct(args, limit) -> int:
    spec = load_spec(args.file)
    ll = run_reconstruction(
        spec, with_bounds=args.with_bounds, infer=args.infer, cap=limit
    )
    message = f"{ll.n} elements"
    known = _recognize(ll.lattice)
    if known:
        message += f"; isomorphic to {known}"
    print(message)
    if args.out:
        io.write_lattice(args.out, ll.lattice, ll.edge_labels)
        print(f"wrote {args.out}")
    if args.dot:
        Path(args.dot).write_text(io.labeled_to_dot(ll), encoding="utf-8")
        print(f"wrote {args.dot}")
    return 0


def _recognize(l) -> str:
    """Name the result when it matches a standard small lattice."""
    for label, candidate in _known_lattices(l.n):
        if birkhoff.lattice_isomorphic(l, candidate):
            return label
    return ""


def _known_lattices(n: int):
    """(name, lattice) for each standard small lattice with n elements,
    free distributive ones first; each is built only when reached."""
    from .catalog import boolean_lattice

    for k, size in FREE_LATTICE_SIZES.items():
        if n == size - 2:
            yield f"restricted Λ{k}", freedist.generate_lattice(k)
        if n == size:
            yield f"extended Λ{k}", freedist.generate_lattice(k, extended=True)
    for k in range(1, 5):
        if n == 2**k:
            yield f"B{k}", boolean_lattice(k)


def _cmd_render(args, limit) -> int:
    p, labels = io.read_poset(args.file)
    Path(args.out).write_text(io.to_dot(p, labels), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_factors(args, limit) -> int:
    ll = io.read_labeled_lattice(args.file, limit)
    counts = element_factors(ll, args.element)
    parts = []
    for label in sorted(counts):
        parts.extend([label] * counts[label])
    print("+".join(parts) if parts else "(empty)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
