"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value here is exact; the only tolerances are wall-clock
budgets, asserted as stated.
"""

import gc
import itertools
import random
import time
from collections import Counter

import numpy as np
import pytest

import latticekit as lk
import latticekit.freedist as fd
from latticekit import catalog

from conftest import (
    assert_order_isomorphism,
    distributive_fixture_lattices,
    product_lattice,
    reordered_lattice,
)

DEDEKIND = [2, 3, 6, 20, 168, 7581, 7828354]


def report(line):
    print(f"PASS  {line}")


def start_clock():
    """``time.perf_counter()`` after a full garbage collection, so that no
    collection of garbage left by earlier tests lands in the timed section
    (one generation-2 pass took M3 x B7's 2 ms match past its 0.05 s)."""
    gc.collect()
    return time.perf_counter()


def test_criterion_1_dedekind_counts(capsys):
    from latticekit.cli import main

    t0 = start_clock()
    for n in range(6):
        assert main(["dedekind", "--n", str(n)]) == 0
        assert capsys.readouterr().out.strip() == str(DEDEKIND[n])
    small_time = time.perf_counter() - t0
    t0 = start_clock()
    assert main(["dedekind", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == str(DEDEKIND[6])
    big_time = time.perf_counter() - t0
    assert [fd.dedekind_count(n) for n in range(7)] == DEDEKIND
    for n in range(5):
        assert fd.monotone_function_count(n) == DEDEKIND[n]
    assert small_time < 5.0, f"n<=5 took {small_time:.2f}s"
    assert big_time < 300.0, f"n=6 took {big_time:.2f}s"
    report(
        "criterion 1: dedekind --n K prints 2,3,6,20,168,7581,7828354; "
        f"n<=4 equals the brute-force oracle; n<=5 in {small_time:.2f}s, "
        f"n=6 in {big_time:.2f}s"
    )


def test_criterion_2_birkhoff_roundtrip(case_n1, case_n2):
    t0 = start_clock()
    fixtures = distributive_fixture_lattices(case_n1, case_n2)
    for name, l in fixtures.items():
        rep = lk.birkhoff_roundtrip(l)
        assert rep.ok, name
        p = lk.irreducible_poset(l)
        jl = lk.ideals_lattice(p)
        assert lk.lattice_isomorphic(jl.lattice, l) is not None, name
        assert lk.is_isomorphic(lk.irreducible_poset(jl.lattice), p) is not None, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"roundtrips took {elapsed:.2f}s"
    report(
        f"criterion 2: J(irr(L))=L and irr(J(P))=P on {len(fixtures)} "
        f"fixture lattices in {elapsed:.2f}s"
    )


def test_criterion_2_boolean_roundtrip_budget():
    l = catalog.boolean_lattice(10)
    t0 = start_clock()
    rep = lk.birkhoff_roundtrip(l)
    elapsed = time.perf_counter() - t0
    assert rep.ok
    assert elapsed < 5.0, f"B10 roundtrip took {elapsed:.2f}s"
    report(f"criterion 2: J(irr(B10)) = B10 (1024 elements) in {elapsed:.2f}s")


def test_criterion_2_lattice_isomorphism_budget():
    # the J ∪ M search on lattices that are not distributive, with a shuffled
    # copy of each: M3 x B7 (640 elements) and M3 x B10 (5120)
    times = {}
    for k in (7, 10):
        l = product_lattice(catalog.diamond(), catalog.boolean_lattice(k))
        shuffled = reordered_lattice(l, np.random.default_rng(k).permutation(l.n))
        t0 = start_clock()
        iso = lk.lattice_isomorphic(l, shuffled)
        times[k] = time.perf_counter() - t0
        assert_order_isomorphism(iso, l, shuffled)
    assert times[7] < 0.05, f"M3 x B7 took {times[7]:.3f}s"
    assert times[10] < 1.0, f"M3 x B10 took {times[10]:.3f}s"
    report(
        f"criterion 2: M3 x B7 and M3 x B10 matched with shuffled copies in "
        f"{times[7]:.3f}s and {times[10]:.3f}s"
    )


def test_criterion_3_second_case(case_n2_spec):
    core = lk.reconstruct(case_n2_spec)
    assert core.n == 18
    assert lk.lattice_isomorphic(core.lattice, fd.generate_lattice(3)) is not None
    bounded = lk.reconstruct(case_n2_spec, with_bounds=True)
    assert bounded.n == 20
    assert (
        lk.lattice_isomorphic(bounded.lattice, fd.generate_lattice(3, extended=True))
        is not None
    )
    assert (
        lk.is_isomorphic(
            lk.irreducible_poset(bounded.lattice), catalog.boolean_poset(3)
        )
        is not None
    )
    report(
        "criterion 3: rebuilt second case has 18 elements (restricted rank-3 "
        "free lattice), 20 with bounds, join irreducibles form the cube poset"
    )


CASE_N1_EXPECTED_SETS = [
    "dg", "df", "bf", "fg",
    "cdg", "dfg", "bdf", "bfg", "efg",
    "cdfg", "bdfg", "befg", "defg",
    "bcdfg", "bdefg", "cdefg",
    "bcdefg",
]


def test_criterion_4_first_case(case_n1_spec, case_n1):
    assert case_n1.n == 21
    assert lk.reconstruct(case_n1_spec, with_bounds=True).n == 23
    r = lk.rank(case_n1.lattice)
    assert r.rank == 4 and sorted(r.witness) == ["A", "B", "B∩C", "D"]
    factor_sets = {
        "".join(sorted(lk.element_factors(case_n1, x).elements())): x
        for x in case_n1.names
    }
    assert len(factor_sets) == 21
    for fs in CASE_N1_EXPECTED_SETS:
        assert fs in factor_sets, fs
    socle = factor_sets["dfg"]
    b3 = catalog.boolean_lattice(3)
    below = lk.interval_of(case_n1, case_n1.lattice.bottom, socle)
    above = lk.quotient_by(case_n1, socle)
    assert lk.lattice_isomorphic(below.lattice, b3) is not None
    assert lk.lattice_isomorphic(above.lattice, b3) is not None
    report(
        "criterion 4: first case has 21 elements (23 with bounds), rank 4, "
        "socle and quotient intervals are the box, all 17 factor sets match"
    )


def test_criterion_5_forbidden_sublattice_equivalence(case_n1, case_n2, pentagon, diamond):
    rng = random.Random(20260810)
    lattices = [catalog.random_lattice(rng) for _ in range(500)]
    lattices += list(distributive_fixture_lattices(case_n1, case_n2).values())
    lattices += [pentagon, diamond]
    seen = Counter()
    for l in lattices:
        mod = lk.is_modular(l)
        dist = lk.is_distributive(l)
        assert len(set(mod.criteria.values())) == 1
        assert len(set(dist.criteria.values())) == 1
        if dist.distributive:
            assert mod.modular
        seen["modular" if mod.modular else "nonmodular"] += 1
        seen["distributive" if dist.distributive else "nondistributive"] += 1
    assert seen["nonmodular"] > 0 and seen["nondistributive"] > 0
    report(
        f"criterion 5: {len(lattices)} lattices (500 random + fixtures): "
        "3 modularity criteria agree, 4 distributivity criteria agree, "
        "distributive implies modular; zero counterexamples"
    )


def test_criterion_6_jordan_holder(case_n1, case_n2, pentagon):
    modular_fixtures = dict(distributive_fixture_lattices(case_n1, case_n2))
    modular_fixtures["M3"] = catalog.diamond()
    for name, l in modular_fixtures.items():
        rep = lk.verify_jordan_holder(l)
        assert rep.ok, name
        if lk.count_maximal_chains(l) <= 10_000:
            rep = lk.verify_jordan_holder(l, exhaustive=True)
            assert rep.ok, name
    rep = lk.verify_jordan_holder(pentagon, allow_nonmodular=True)
    assert not rep.ok
    c1, c2 = rep.witness
    v1 = lk.chain_multiplicities(pentagon, c1, rep.partition)
    v2 = lk.chain_multiplicities(pentagon, c2, rep.partition)
    assert v1 != v2 and {len(c1), len(c2)} == {3, 4}
    report(
        f"criterion 6: multiplicity vectors chain-independent on "
        f"{len(modular_fixtures)} modular fixtures; pentagon override "
        "exhibits two chains with different vectors"
    )


def test_criterion_7_free_lattice_laws():
    t0 = start_clock()
    elements = fd.enumerate_elements(3)
    assert len(elements) == 18
    for a, b in itertools.product(elements, repeat=2):
        assert fd.fd_meet(a, fd.fd_join(a, b)) == a
        assert fd.fd_join(a, fd.fd_meet(a, b)) == a
    for a, b, c in itertools.product(elements, repeat=3):
        assert fd.fd_join(b, fd.fd_meet(a, c)) == fd.fd_meet(
            fd.fd_join(b, a), fd.fd_join(b, c)
        )
        assert fd.fd_meet(b, fd.fd_join(a, c)) == fd.fd_join(
            fd.fd_meet(b, a), fd.fd_meet(b, c)
        )
    assert lk.check_self_dual(3) is not None
    meets = lk.meets_distinct(3)
    assert meets.ok and len(meets.meets) == 7
    b3 = catalog.boolean_lattice(3)
    assign = {1: "{1}", 2: "{2}", 3: "{3}"}
    image = {lk.evaluate_in_lattice(e, b3, assign) for e in elements}
    assert image == set(b3.names)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"laws took {elapsed:.2f}s"
    report(
        "criterion 7: rank-3 free lattice: absorption and both distributive "
        "identities over all triples, self-dual, the 7 generator meets are "
        "exactly the join irreducibles, evaluation onto the box is "
        f"surjective ({elapsed:.2f}s)"
    )


def test_criterion_8_length_three_classification():
    posets = catalog.three_element_posets()
    assert len(posets) == 5
    for a, b in itertools.combinations(posets.values(), 2):
        assert lk.is_isomorphic(a, b) is None
    lattices = {k: lk.ideals_lattice(p).lattice for k, p in posets.items()}
    for l in lattices.values():
        assert lk.is_distributive(l).distributive
        g = lk.grade(l)
        assert g.graded and g.degree[l.top] == 3
    for a, b in itertools.combinations(lattices, 2):
        assert lk.lattice_isomorphic(lattices[a], lattices[b]) is None
    assert (
        lk.lattice_isomorphic(lattices["wedge"], lattices["vee"].dual) is not None
    )
    report(
        "criterion 8: the five 3-element posets give five pairwise "
        "non-isomorphic distributive lattices of length 3, and the kite "
        "pair are mutually dual"
    )
