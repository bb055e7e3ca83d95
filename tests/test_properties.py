import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticekit as lk
import latticekit.freedist as fd
from latticekit import catalog, properties
from latticekit.cli import main

from conftest import (
    BLOCK_CELLS,
    CATALOG,
    FIXTURES,
    WIDE,
    chain_lattice,
    distributive_fixture_lattices,
    product_lattice,
    reference_distributive_identity_violation,
    reference_find_diamond,
    reference_find_pentagon,
    reference_interval_classes,
    reference_modular_identity_violation,
    reordered_lattice,
    searched_lattices,
    table_blocks,
)


class TestModularity:
    def test_pentagon(self, pentagon):
        rep = lk.is_modular(pentagon)
        assert not rep.modular
        assert rep.pentagon == ("0", "a", "c", "b", "1")
        assert rep.violation is not None
        assert all(rep.criteria[k] is False for k in rep.criteria)

    def test_diamond(self, diamond):
        rep = lk.is_modular(diamond)
        assert rep.modular and rep.pentagon is None

    def test_case_n1(self, case_n1):
        assert lk.is_modular(case_n1.lattice).modular

    def test_criteria_agree_on_fixtures(self, case_n1, case_n2, pentagon, diamond):
        lattices = list(distributive_fixture_lattices(case_n1, case_n2).values())
        lattices += [pentagon, diamond]
        for l in lattices:
            rep = lk.is_modular(l)
            assert len(set(rep.criteria.values())) == 1


class TestDistributivity:
    def test_diamond(self, diamond):
        rep = lk.is_distributive(diamond)
        assert not rep.distributive
        assert rep.diamond == ("0", "a", "b", "c", "1")

    def test_divisor(self, d12):
        assert lk.is_distributive(d12).distributive

    def test_extended_free3(self):
        assert lk.is_distributive(fd.generate_lattice(3, extended=True)).distributive

    def test_implies_modular(self, pentagon, diamond, b3, d12):
        for l in (pentagon, diamond, b3, d12):
            if lk.is_distributive(l).distributive:
                assert lk.is_modular(l).modular


class TestSemimodularity:
    def test_boolean(self, b3):
        assert lk.is_upper_semimodular(b3).ok

    def test_pentagon_not_graded(self, pentagon):
        rep = lk.is_upper_semimodular(pentagon)
        assert not rep.ok and not rep.graded
        assert rep.chain_witness is not None

    def test_diamond(self, diamond):
        assert lk.is_upper_semimodular(diamond).ok

    def test_matches_modularity_both_ways(self, case_n1, case_n2):
        for l in distributive_fixture_lattices(case_n1, case_n2).values():
            both = (
                lk.is_upper_semimodular(l).ok
                and lk.is_upper_semimodular(l.dual).ok
            )
            assert both == lk.is_modular(l).modular


def reference_semimodular_violation(l):
    """The first pair with rho(a) + rho(b) < rho(avb) + rho(a^b), row-major,
    read off the whole n×n excess array, as the blocked pass's predecessor
    did; "ungraded" when the lattice is not graded."""
    if not l.grading.graded:
        return "ungraded"
    rho = np.array([l.grading.degree[x] for x in l.names])
    excess = rho[:, None] + rho - rho[l.join.astype(int)] - rho[l.meet.astype(int)]
    bad = np.argwhere(excess < 0)
    return (l.names[bad[0, 0]], l.names[bad[0, 1]]) if bad.size else None


def assert_degree_pass_matches_array(l):
    expected = reference_semimodular_violation(l)
    for cells in BLOCK_CELLS:
        with table_blocks(cells):
            rep = properties.is_upper_semimodular(l)
        assert rep.graded == (expected != "ungraded")
        assert rep.violation == (None if expected == "ungraded" else expected)
        assert rep.ok == (expected is None)
    return expected


class TestDegreePassMatchesArray:
    @settings(max_examples=60, deadline=None)
    @given(searched_lattices(), st.booleans())
    def test_searched_lattices(self, l, dual):
        assert_degree_pass_matches_array(l.dual if dual else l)

    def test_random_lattices_and_duals(self):
        found = [
            assert_degree_pass_matches_array(l)
            for seed in range(200)
            for l in [catalog.random_lattice(random.Random(seed), max_size=16)]
            for l in (l, l.dual)
        ]
        assert sum(v not in (None, "ungraded") for v in found) >= 10

    def test_scratch_memory_on_b11(self):
        l = catalog.boolean_lattice(11)
        assert l.grading.graded  # the grading is the lattice's, not the pass's scratch
        tracemalloc.start()
        try:
            assert properties.is_upper_semimodular(l).ok
            assert properties._first_degree_excess(l, np.not_equal) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestIntervalClasses:
    def test_boolean_has_n_classes(self):
        for n in range(1, 5):
            l = catalog.boolean_lattice(n)
            assert lk.interval_classes(l).count == n

    def test_divisor_classes_exact(self, d12):
        part = lk.interval_classes(d12)
        assert part.count == 3
        # hand-derived from the perspectivity rule; the two index-2 steps
        # stay in separate classes even though the modules are isomorphic
        classes = {frozenset(c) for c in part.classes}
        assert classes == {
            frozenset({("1", "2"), ("3", "6")}),
            frozenset({("2", "4"), ("6", "12")}),
            frozenset({("1", "3"), ("2", "6"), ("4", "12")}),
        }

    def test_chain_singletons(self):
        l = lk.as_lattice(catalog.chain_poset(4))
        part = lk.interval_classes(l)
        assert part.count == 4
        assert all(len(c) == 1 for c in part.classes)

    def test_requires_modular(self, pentagon):
        with pytest.raises(lk.NotModular):
            lk.interval_classes(pentagon)
        assert lk.interval_classes(pentagon, allow_nonmodular=True).count == 3

    def test_every_edge_in_one_class(self, case_n1):
        part = lk.interval_classes(case_n1.lattice)
        counted = sum(len(c) for c in part.classes)
        assert counted == len(part.edges)
        assert set(part.class_of) == set(part.edges)

    def test_classes_live_on_single_degree_steps(self, case_n1, case_n2):
        for l in distributive_fixture_lattices(case_n1, case_n2).values():
            degree = lk.grade(l).degree
            for cls in lk.interval_classes(l).classes:
                for a, b in cls:
                    assert degree[b] - degree[a] == 1

    def test_distributive_class_count_is_irreducible_count(self, case_n1, case_n2):
        for l in distributive_fixture_lattices(case_n1, case_n2).values():
            assert lk.interval_classes(l).count == len(lk.join_irreducibles(l).names)


class TestChainMultiplicities:
    def test_boolean_chain(self, b3):
        part = lk.interval_classes(b3)
        chain = ["{}", "{1}", "{1,2}", "{1,2,3}"]
        counts = lk.chain_multiplicities(b3, chain, part)
        assert sorted(counts.values()) == [1, 1, 1]

    def test_uniserial(self):
        l = lk.as_lattice(catalog.chain_poset(3))
        counts = lk.chain_multiplicities(l, ["0", "c1", "c2", "1"])
        assert sorted(counts.values()) == [1, 1, 1]

    def test_extended_free3_eight_classes(self):
        l = fd.generate_lattice(3, extended=True)
        part = lk.interval_classes(l)
        assert part.count == 8
        chain = lk.maximal_chains(l)[0]
        counts = lk.chain_multiplicities(l, chain, part)
        assert sorted(counts.values()) == [1] * 8

    def test_not_maximal(self, b3):
        with pytest.raises(lk.NotMaximalChain):
            lk.chain_multiplicities(b3, ["{}", "{1,2}", "{1,2,3}"])
        with pytest.raises(lk.NotMaximalChain):
            lk.chain_multiplicities(b3, ["{1}", "{1,2}", "{1,2,3}"])


class TestJordanHolder:
    def test_boolean(self, b3):
        rep = lk.verify_jordan_holder(b3, exhaustive=True)
        assert rep.ok and sorted(rep.multiplicities.values()) == [1, 1, 1]

    def test_divisor(self, d12):
        rep = lk.verify_jordan_holder(d12, exhaustive=True)
        assert rep.ok and sorted(rep.multiplicities.values()) == [1, 1, 1]

    def test_case_n1_all_ones(self, case_n1):
        rep = lk.verify_jordan_holder(case_n1.lattice, exhaustive=True)
        assert rep.ok
        assert sorted(rep.multiplicities.values()) == [1] * 6

    def test_pentagon_pathology(self, pentagon):
        rep = lk.verify_jordan_holder(pentagon, allow_nonmodular=True)
        assert not rep.ok
        short, long = sorted(rep.witness, key=len)
        assert short == ["0", "a", "1"]
        assert long == ["0", "c", "b", "1"]
        part = rep.partition
        v1 = lk.chain_multiplicities(pentagon, short, part)
        v2 = lk.chain_multiplicities(pentagon, long, part)
        assert v1 != v2

    def test_chain_cap(self, b3):
        with pytest.raises(lk.ChainCapExceeded):
            lk.maximal_chains(b3, cap=2)
        with pytest.raises(lk.ChainCapExceeded):
            lk.verify_jordan_holder(b3, exhaustive=True, chain_cap=2)


class TestMultiplicityFree:
    def test_boolean(self):
        for n in range(1, 5):
            assert lk.is_multiplicity_free(catalog.boolean_lattice(n))

    def test_grid(self):
        assert lk.is_multiplicity_free(catalog.boolean_lattice(2))

    def test_divisor_lattice_is_but_module_is_not(self, d12):
        # the subgroup lattice of Z/12 is multiplicity free as a lattice,
        # even though the module repeats a simple factor
        assert lk.is_multiplicity_free(d12)

    def test_chain_with_repeated_class(self):
        # a 2-element chain stacked twice has two classes, each once; but
        # gluing opposite edges of a square gives multiplicity 2
        l = lk.as_lattice(catalog.chain_poset(2))
        assert lk.is_multiplicity_free(l)
        b2 = catalog.boolean_lattice(2)
        assert lk.is_multiplicity_free(b2)


class TestRandomAgreement:
    def test_two_hundred_random_lattices(self):
        rng = random.Random(422)
        for _ in range(200):
            l = catalog.random_lattice(rng)
            mod = lk.is_modular(l)
            dist = lk.is_distributive(l)
            assert len(set(mod.criteria.values())) == 1
            assert len(set(dist.criteria.values())) == 1
            if dist.distributive:
                assert mod.modular


# -- array-at-a-time searches against the pair loops ----------------------------


class TestSearchesMatchPairLoops:
    @settings(max_examples=150, deadline=None)
    @given(searched_lattices())
    def test_random_products(self, l):
        for x in (l, l.dual):
            assert lk.find_pentagon(x) == reference_find_pentagon(x)
            assert lk.find_diamond(x) == reference_find_diamond(x)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_catalog(self, name, cells):
        with table_blocks(cells):
            l = CATALOG[name]()
        for x in (l, l.dual):
            assert lk.find_pentagon(x) == reference_find_pentagon(x)
            assert lk.find_diamond(x) == reference_find_diamond(x)


# -- interval classes and identity criteria against the references ------------------


def shuffled_catalog_lattices():
    """Every catalog lattice, each in a random element order."""
    return st.sampled_from(sorted(CATALOG)).map(lambda name: CATALOG[name]()).flatmap(
        lambda l: st.permutations(range(l.n)).map(lambda order: reordered_lattice(l, order))
    )


def assert_partition_matches(l):
    """The partition (or NotModular) equals the union-find reference's,
    and on a non-modular lattice also with ``allow_nonmodular``."""
    if lk.is_modular(l).modular:
        assert lk.interval_classes(l) == reference_interval_classes(l)
    else:
        with pytest.raises(lk.NotModular):
            lk.interval_classes(l)
    assert lk.interval_classes(l, allow_nonmodular=True) == reference_interval_classes(
        l, allow_nonmodular=True
    )


def reference_witnesses(l):
    """The five criteria's witnesses (or None) by the conftest references."""
    return (
        reference_modular_identity_violation(l),
        reference_find_pentagon(l),
        reference_distributive_identity_violation(l),
        reference_distributive_identity_violation(l, dualized=True),
        reference_find_diamond(l),
    )


def assert_witnesses_match(l):
    """Exact witnesses (or None) of all five criteria on ``l`` and its dual,
    with the certificates' row blocks at both sizes.  Each certificate
    passes exactly when its criterion holds, and the diamond's rows hold
    the a of the first diamond."""
    for x in (l, l.dual):
        expected = reference_witnesses(x)
        modular, pentagon, distributive, dual, diamond = expected
        for cells in BLOCK_CELLS:
            with table_blocks(cells):
                assert (
                    properties._modular_identity_violation(x),
                    lk.find_pentagon(x),
                    properties._distributive_identity_violation(x),
                    properties._distributive_identity_violation(x, True),
                    lk.find_diamond(x),
                ) == expected
                assert properties._modular_on_covers(x) == (modular is None)
                assert properties._pentagon_on_covers(x) == (pentagon is not None)
                assert properties._distributive_on_irreducibles(x, False) == (distributive is None)
                assert properties._distributive_on_irreducibles(x, True) == (dual is None)
                rows = properties._repeating_rows(x).tolist()
                assert diamond is None or x.index(diamond[1]) in rows
                assert not rows or distributive is not None


class TestIntervalClassesMatchUnionFind:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(searched_lattices(), shuffled_catalog_lattices()))
    def test_random_orders(self, l):
        assert_partition_matches(l)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        assert_partition_matches(CATALOG[name]())

    def test_one_element_lattice(self):
        l = lk.as_lattice(lk.build_poset(["x"], []))
        part = lk.interval_classes(l)
        assert part.edges == () and part.classes == () and part.class_of == {}
        assert part == reference_interval_classes(l)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_chains(self, k):
        l = lk.as_lattice(catalog.chain_poset(k))
        part = lk.interval_classes(l)
        assert part.count == k  # a chain of length k: every edge alone
        assert part == reference_interval_classes(l)

    def test_b1(self):
        l = catalog.boolean_lattice(1)
        part = lk.interval_classes(l)
        assert part.classes == ((part.edges[0],),)
        assert part == reference_interval_classes(l)

    def test_catalog_holds_nonmodular_lattices(self):
        assert any(not lk.is_modular(f()).modular for f in CATALOG.values())


class TestIdentityWitnessesMatchReference:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(searched_lattices(), shuffled_catalog_lattices()))
    def test_random_orders(self, l):
        assert_witnesses_match(l)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        assert_witnesses_match(CATALOG[name]())

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_chains_and_one_element(self, k):
        l = lk.as_lattice(catalog.chain_poset(k))
        assert_witnesses_match(l)
        assert properties._modular_identity_violation(l) is None

    def test_b1(self):
        assert_witnesses_match(catalog.boolean_lattice(1))

    @pytest.mark.parametrize("dualized", [False, True])
    def test_each_certificate_reads_its_own_side(self, dualized):
        """The identity's certificate reads ψ and the dual's φ, so the two
        criteria stay independent: rows with no union law on one side fail
        that side's certificate alone."""
        b3 = catalog.boolean_lattice(3)
        l = lk.Lattice(lk.Poset(b3.names, b3.leq), b3.meet, b3.join)
        below, phi, above, psi = l.poset.irreducible_rows
        broken = (np.uint64(1) << np.arange(l.n, dtype=np.uint64))[:, None]  # one bit each
        view = (below, phi, above, broken) if dualized else (below, broken, above, psi)
        l.poset.__dict__["irreducible_rows"] = view  # the cached_property's slot
        assert properties._distributive_on_irreducibles(l, dualized)
        assert not properties._distributive_on_irreducibles(l, not dualized)

    @pytest.mark.parametrize("factor", [None, catalog.diamond, catalog.pentagon])
    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_rows_wider_than_a_word(self, name, factor):
        # chain200's products (1005 elements) take a minute under the cubic
        # references; a 71-element chain with M3 or N5 also needs two words
        l = chain_lattice(70) if factor and name == "chain200" else WIDE[name]()
        if factor is not None:
            l = product_lattice(factor(), l)
        for x in (l, l.dual):
            assert min(x.poset.irreducible_rows[k].shape[1] for k in (1, 3)) > 1
        assert_witnesses_match(l)


@pytest.mark.parametrize("bits", [8, 9, 16, 17, 32, 33, 64])
@pytest.mark.parametrize("factor", [catalog.diamond, catalog.pentagon, lambda: chain_lattice(3)], ids=["M3", "N5", "C4"])
def test_certificates_at_each_narrow_width(factor, bits):
    """M3 × chain, N5 × chain and the distributive C4 × chain, with S and
    S′ of ``bits`` elements (the left factor's three join-irreducibles on
    φ's highest bits), so that φ and ψ are one word of 8, 16, 32 or 64
    bits: both certificates give the reference's verdict."""
    l = product_lattice(factor(), chain_lattice(bits - 4))
    for k in (1, 3):
        assert int(l.poset.irreducible_rows[k].max()).bit_length() == bits
    for dualized in (False, True):
        expected = reference_distributive_identity_violation(l, dualized) is None
        assert expected == (factor not in (catalog.diamond, catalog.pentagon))
        assert properties._distributive_on_irreducibles(l, dualized) == expected


# -- cubic scans only where a certificate fails -------------------------------------


SCANS = {
    "_modular_identity_scan": lambda l: "modular_identity",
    "_pentagon_scan": lambda l: "pentagon",
    "_distributive_identity_scan": lambda l, dualized=False: (
        "dual_identity" if dualized else "distributive_identity"
    ),
    "_diamond_scan": lambda l, rows: "diamond",
}


@pytest.fixture
def scans(monkeypatch):
    """Counts of the full scans run, by criterion."""
    counts = Counter()

    def counted(name, scan):
        def run(*args):
            counts[SCANS[name](*args)] += 1
            return scan(*args)

        return run

    for name in SCANS:
        monkeypatch.setattr(properties, name, counted(name, getattr(properties, name)))
    return counts


def fresh(l):
    """``l`` with no stored verdicts."""
    return lk.Lattice(l.poset, l.meet, l.join)


def ideals(names, covers):
    return lk.ideals_lattice(lk.build_poset(names, covers)).lattice


VEE = (["x", "y", "z"], [("x", "z"), ("y", "z")])

DISTRIBUTIVE = {
    "J(vee)": lambda: ideals(*VEE),
    "J(N)": lambda: ideals(["p", "q", "r", "s"], [("p", "q"), ("p", "r"), ("s", "r")]),
    "B8": lambda: catalog.boolean_lattice(8),
    **{f"FD{k}": lambda k=k: fd.generate_lattice(k) for k in range(1, 5)},
    **{f"FD{k}_extended": lambda k=k: fd.generate_lattice(k, extended=True) for k in range(1, 5)},
}


class TestScansRunOnlyWhereCertificatesFail:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIVE))
    def test_none_on_distributive_lattices(self, scans, name):
        l = fresh(DISTRIBUTIVE[name]())
        assert lk.is_distributive(l).distributive and lk.is_modular(l).modular
        assert scans == {}

    def test_none_on_the_case_studies(self, scans, case_n1, case_n2):
        for case in (case_n1, case_n2):
            assert lk.is_distributive(fresh(case.lattice)).distributive
        assert scans == {}

    def test_one_per_failing_criterion_on_m3_products(self, scans):
        l = product_lattice(catalog.diamond(), ideals(*VEE))
        rep = lk.is_distributive(l)
        assert lk.is_modular(l).modular and not rep.distributive
        assert rep.diamond == reference_find_diamond(l)
        assert scans == {"distributive_identity": 1, "dual_identity": 1, "diamond": 1}

    def test_one_per_failing_criterion_on_n5_products(self, scans):
        # a pentagon's side a repeats a key in row a, so the diamond's
        # certificate fails too, and its scan finds no diamond
        l = product_lattice(catalog.pentagon(), ideals(*VEE))
        rep = lk.is_distributive(l)
        assert not lk.is_modular(l).modular and rep.diamond is None
        assert rep.pentagon == reference_find_pentagon(l)
        assert scans == {
            "modular_identity": 1,
            "pentagon": 1,
            "distributive_identity": 1,
            "dual_identity": 1,
            "diamond": 1,
        }


# -- verdicts computed once per lattice -------------------------------------------


def fresh_length_three():
    """A lattice no other test has judged, so its verdicts start empty."""
    return lk.ideals_lattice(catalog.three_element_posets()["vee"]).lattice


class TestVerdictMemo:
    def test_second_call_returns_the_same_report(self):
        l = fresh_length_three()
        assert l.verdicts == {}
        mod, dist = lk.is_modular(l), lk.is_distributive(l)
        assert lk.is_modular(l) is mod and lk.is_distributive(l) is dist

    def test_derived_lattices_are_judged_afresh(self):
        l = catalog.diamond()
        rep = lk.is_distributive(l)
        bounded = lk.add_bounds(l, bottom="z", top="t")
        assert bounded.verdicts == {} and l.dual.verdicts == {}
        assert lk.is_distributive(bounded) is not rep
        assert lk.is_distributive(bounded).diamond == reference_find_diamond(bounded)
        assert lk.is_distributive(l.dual).diamond == reference_find_diamond(l.dual)

    def test_roundtrip_judges_each_lattice_once(self, monkeypatch):
        calls = []
        identity = properties._distributive_identity_violation

        def counted(l, dualized=False):
            calls.append((id(l), dualized))
            return identity(l, dualized)

        monkeypatch.setattr(properties, "_distributive_identity_violation", counted)
        assert lk.birkhoff_roundtrip(fresh_length_three()).ok
        # L and J(irr L), each by the identity and its dual
        assert len(calls) == 4 and len(set(calls)) == 4


# -- disagreeing criteria ---------------------------------------------------------


class TestInvariantViolation:
    def test_distributivity(self, monkeypatch):
        l = fresh_length_three()
        monkeypatch.setattr(properties, "find_diamond", lambda l: tuple("abcde"))
        with pytest.raises(lk.InvariantViolation, match="distributivity criteria disagree"):
            lk.is_distributive(l)
        assert "is_distributive" not in l.verdicts
        monkeypatch.undo()
        assert lk.is_distributive(l).distributive

    def test_modularity(self, monkeypatch):
        l = fresh_length_three()
        monkeypatch.setattr(properties, "find_pentagon", lambda l: tuple("abcde"))
        with pytest.raises(lk.InvariantViolation, match="modularity criteria disagree"):
            lk.is_modular(l)
        assert l.verdicts == {}

    def test_jordan_holder_enumeration(self, monkeypatch):
        vectors = iter([{0: 1, 1: 1}, {0: 2, 1: 0}])
        monkeypatch.setattr(
            properties, "chain_multiplicities", lambda *a, **k: next(vectors)
        )
        with pytest.raises(lk.InvariantViolation, match="Jordan-Holder"):
            lk.verify_jordan_holder(catalog.boolean_lattice(2), exhaustive=True)

    def test_cli_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(properties, "find_diamond", lambda l: tuple("abcde"))
        code = main(["check", str(FIXTURES / "divisor12.json"), "--property", "distributive"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("invariant violated: distributivity criteria disagree")
