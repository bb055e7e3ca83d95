import importlib
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

import latticekit as lk
import latticekit.freedist as fd
from latticekit import catalog
from latticekit.reconstruct import IrreducibleDecl, ReconstructionSpec

# the package binds the name ``reconstruct`` to the function
reconstruct_module = importlib.import_module("latticekit.reconstruct")

# the non-simple submodules of the first case study, by factor content
CASE_N1_FACTOR_SETS = {
    "G": "dg", "E": "df", "D": "bf", "F": "fg",
    "B": "cdg", "S": "dfg", "C": "bdf", "D+F": "bfg", "A": "efg",
    "B+S": "cdfg", "C+S": "bdfg", "A+D": "befg", "A+S": "defg",
    "B+C": "bcdfg", "A+C": "bdefg", "A+B": "cdefg",
    "N": "bcdefg",
}


def factor_string(ll, x):
    return "".join(sorted(lk.element_factors(ll, x).elements()))


def spec_without(spec, name):
    return ReconstructionSpec(
        factors=spec.factors,
        irreducibles=tuple(d for d in spec.irreducibles if d.name != name),
        order=tuple(p for p in spec.order if name not in p),
        bounds=spec.bounds,
    )


class TestValidate:
    def test_both_cases_valid(self, case_n1_spec, case_n2_spec):
        n1, n2 = lk.validate_spec(case_n1_spec), lk.validate_spec(case_n2_spec)
        assert (n1.factor_count, n1.irreducible_count) == (6, 6)
        assert (n2.factor_count, n2.irreducible_count) == (6, 6)

    def test_coverage_gap(self, case_n2_spec):
        broken = spec_without(case_n2_spec, "A∩B")  # drops the only g
        with pytest.raises(lk.CoverageGap) as exc:
            lk.validate_spec(broken)
        assert exc.value.label == "g"

    def test_duplicate_top(self, case_n2_spec):
        dup = ReconstructionSpec(
            factors=case_n2_spec.factors,
            irreducibles=case_n2_spec.irreducibles
            + (IrreducibleDecl("X", "g", ("g",)),),
        )
        with pytest.raises(lk.DuplicateTopFactor) as exc:
            lk.validate_spec(dup)
        assert exc.value.label == "g"

    def test_repeated_factor_in_multiset(self):
        spec = ReconstructionSpec(
            factors=("a",), irreducibles=(IrreducibleDecl("X", "a", ("a", "a")),)
        )
        with pytest.raises(lk.InvalidSpec):
            lk.validate_spec(spec)

    def test_top_missing_from_own_factors(self):
        spec = ReconstructionSpec(
            factors=("a", "b"),
            irreducibles=(
                IrreducibleDecl("X", "a", ("b",)),
                IrreducibleDecl("Y", "b", ("b",)),
            ),
        )
        with pytest.raises(lk.InvalidSpec):
            lk.validate_spec(spec)

    def test_cyclic_order(self):
        spec = ReconstructionSpec(
            factors=("a", "b"),
            irreducibles=(
                IrreducibleDecl("X", "a", ("a",)),
                IrreducibleDecl("Y", "b", ("a", "b")),
            ),
            order=(("X", "Y"), ("Y", "X")),
        )
        with pytest.raises(lk.InconsistentOrder):
            lk.validate_spec(spec)

    def test_cycle_is_named(self):
        spec = ReconstructionSpec(
            factors=tuple("abcd"),
            irreducibles=tuple(IrreducibleDecl(x, f, (f,)) for x, f in zip("WXYZ", "abcd")),
            order=(("W", "X"), ("Y", "Z"), ("Z", "X"), ("X", "Y")),
        )
        message = "declared order facts are cyclic: cover relation has a cycle: X < Y < Z < X"
        with pytest.raises(lk.InconsistentOrder, match=f"^{message}$"):
            lk.validate_spec(spec)


class TestIrreducibleOrder:
    def test_case_n2_is_boolean_poset_without_bounds(self, case_n2_spec):
        p = lk.irreducible_order(case_n2_spec)
        b3 = catalog.boolean_poset(3)
        middle = b3.restrict(
            [b3.index(x) for x in b3.names if x not in ("{}", "{1,2,3}")]
        )
        assert lk.is_isomorphic(p, middle) is not None
        assert len(lk.order_ideals(p)) == 18

    def test_case_n1_shape(self, case_n1_spec):
        p = lk.irreducible_order(case_n1_spec)
        assert p.n == 6
        assert len(lk.order_ideals(p)) == 21

    def test_declared_fact_contradicting_factors(self, case_n2_spec):
        bad = ReconstructionSpec(
            factors=case_n2_spec.factors,
            irreducibles=case_n2_spec.irreducibles,
            order=case_n2_spec.order + (("A", "B"),),  # e not in B
        )
        with pytest.raises(lk.OrderConflict):
            lk.irreducible_order(bad)

    def test_equal_factor_sets_rejected(self):
        spec = ReconstructionSpec(
            factors=("a", "b"),
            irreducibles=(
                IrreducibleDecl("X", "a", ("a", "b")),
                IrreducibleDecl("Y", "b", ("a", "b")),
            ),
        )
        with pytest.raises(lk.OrderConflict):
            lk.irreducible_order(spec)

    def test_equal_factor_sets_name_the_first_pair(self):
        # P, S and T share a factor set, and so do Q and R: in (i, j) order
        # the first pair is (P, S), although R is the first name seen twice
        sets = {"P": "abe", "Q": "cd", "R": "cd", "S": "abe", "T": "abe"}
        tops = {"P": "a", "Q": "c", "R": "d", "S": "b", "T": "e"}
        spec = ReconstructionSpec(
            factors=tuple("abcde"),
            irreducibles=tuple(IrreducibleDecl(x, tops[x], tuple(f)) for x, f in sets.items()),
        )
        with pytest.raises(lk.OrderConflict) as exc:
            lk.irreducible_order(spec)
        assert exc.value.pair == ("P", "S")

    def test_cap_counts_the_irreducibles(self, case_n1_spec):
        # six irreducibles: J(P) has at least 7 elements (21 in fact)
        with pytest.raises(lk.SizeLimitExceeded, match="^more than 6 order ideals; raise the cap"):
            lk.irreducible_order(case_n1_spec, cap=6)
        assert lk.irreducible_order(case_n1_spec, cap=7).n == 6

    def test_inference_recovers_declared_order(self, case_n1_spec, case_n2_spec):
        for spec in (case_n1_spec, case_n2_spec):
            bare = ReconstructionSpec(
                factors=spec.factors, irreducibles=spec.irreducibles
            )
            inferred = lk.irreducible_order(bare, infer=True)
            declared = lk.irreducible_order(spec)
            assert lk.is_isomorphic(inferred, declared) is not None

    def test_without_inference_facts_are_not_invented(self, case_n2_spec):
        bare = ReconstructionSpec(
            factors=case_n2_spec.factors, irreducibles=case_n2_spec.irreducibles
        )
        p = lk.irreducible_order(bare)
        assert p.cover_names() == []  # antichain: nothing inferred silently


class TestReconstruct:
    def test_case_n2_counts_and_isos(self, case_n2_spec, case_n2):
        assert case_n2.n == 18
        assert (
            lk.lattice_isomorphic(case_n2.lattice, fd.generate_lattice(3))
            is not None
        )
        bounded = lk.reconstruct(case_n2_spec, with_bounds=True)
        assert bounded.n == 20
        assert (
            lk.lattice_isomorphic(
                bounded.lattice, fd.generate_lattice(3, extended=True)
            )
            is not None
        )
        assert (
            lk.is_isomorphic(
                lk.irreducible_poset(bounded.lattice), catalog.boolean_poset(3)
            )
            is not None
        )

    def test_case_n1_counts(self, case_n1_spec, case_n1):
        assert case_n1.n == 21
        assert lk.reconstruct(case_n1_spec, with_bounds=True).n == 23

    def test_output_is_distributive_multfree_and_roundtrips(self, case_n1):
        l = case_n1.lattice
        assert lk.is_distributive(l).distributive
        assert lk.is_multiplicity_free(l)
        rep = lk.birkhoff_roundtrip(l)
        assert rep.ok

    def test_single_irreducible_gives_two_chain(self):
        spec = ReconstructionSpec(
            factors=("a",), irreducibles=(IrreducibleDecl("X", "a", ("a",)),)
        )
        ll = lk.reconstruct(spec)
        assert ll.n == 2
        assert ll.edge_labels == {("0", "X"): "a"}

    def test_label_classes_count_matches_factors(self, case_n1, case_n2):
        for ll in (case_n1, case_n2):
            part = lk.interval_classes(ll.lattice)
            assert part.count == 6
            for cls in part.classes:
                labels = {ll.edge_labels[e] for e in cls}
                assert len(labels) == 1

    def test_embedding_failure_on_bogus_edge(self, case_n2_spec):
        bad = ReconstructionSpec(
            factors=case_n2_spec.factors,
            irreducibles=case_n2_spec.irreducibles,
            order=case_n2_spec.order,
            edges=(("0", "A", "e"),),  # A is not an atom
        )
        with pytest.raises(lk.EmbeddingFailure):
            lk.reconstruct(bad)

    def test_embedding_failure_on_wrong_label(self, case_n2_spec):
        bad = ReconstructionSpec(
            factors=case_n2_spec.factors,
            irreducibles=case_n2_spec.irreducibles,
            order=case_n2_spec.order,
            edges=(("0", "A∩B", "f"),),  # should be g
        )
        with pytest.raises(lk.EmbeddingFailure):
            lk.reconstruct(bad)

    def test_declared_edges_embed(self, case_n1_spec, case_n2_spec):
        # fixture edge lists transcribe the partial diagrams; both embed
        assert len(case_n1_spec.edges) == 14
        assert len(case_n2_spec.edges) == 12
        lk.reconstruct(case_n1_spec)
        lk.reconstruct(case_n2_spec)



class TestPostconditions:
    """The result checks raise InvariantViolation, so ``python -O`` keeps them."""

    @pytest.mark.parametrize(
        "name, fake, message",
        [
            ("is_distributive", lambda l: SimpleNamespace(distributive=False), "not distributive"),
            ("is_multiplicity_free", lambda l: False, "not multiplicity free"),
            ("is_isomorphic", lambda p, q: None, "do not match the spec"),
        ],
    )
    def test_each_guard_fires(self, monkeypatch, case_n1_spec, name, fake, message):
        monkeypatch.setattr(reconstruct_module, name, fake)
        with pytest.raises(lk.InvariantViolation, match=message):
            lk.reconstruct(case_n1_spec)

class TestElementFactors:
    def test_all_seventeen_nonsimple_sets(self, case_n1):
        by_factors = {}
        for x in case_n1.names:
            by_factors.setdefault(factor_string(case_n1, x), []).append(x)
        assert len(by_factors) == 21  # pairwise distinct
        for name, fs in CASE_N1_FACTOR_SETS.items():
            assert fs in by_factors, name
        simples = sorted(fs for fs in by_factors if len(fs) <= 1)
        assert simples == ["", "d", "f", "g"]

    def test_socle_factors(self, case_n1):
        s = next(
            x for x in case_n1.names if factor_string(case_n1, x) == "dfg"
        )
        assert lk.element_factors(case_n1, s) == Counter({"d": 1, "f": 1, "g": 1})

    def test_bottom_empty(self, case_n1):
        assert lk.element_factors(case_n1, case_n1.lattice.bottom) == Counter()

    def test_chain_independent(self, case_n1):
        l = case_n1.lattice
        part = lk.interval_classes(l)
        for x in l.names:
            expected = lk.element_factors(case_n1, x)
            for chain in _chains_to(l, x):
                counts = Counter(
                    case_n1.label(a, b) for a, b in zip(chain, chain[1:])
                )
                assert counts == expected

    def test_with_bounds_factors(self, case_n1_spec):
        ll = lk.reconstruct(case_n1_spec, with_bounds=True)
        assert factor_string(ll, "zero") == ""
        top_factors = lk.element_factors(ll, "M")
        assert top_factors == Counter(
            {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1, "g": 1, "h": 1}
        )

    def test_bounded_lattice_has_eight_classes_all_once(self, case_n1_spec):
        # the full module is multiplicity free of length 8
        ll = lk.reconstruct(case_n1_spec, with_bounds=True)
        rep = lk.verify_jordan_holder(ll.lattice)
        assert rep.ok
        assert len(rep.multiplicities) == 8
        assert sorted(rep.multiplicities.values()) == [1] * 8


def _chains_to(l, x):
    target = l.index(x)
    stack = [[l.bottom_index]]
    while stack:
        chain = stack.pop()
        if chain[-1] == target:
            yield [l.names[i] for i in chain]
            continue
        for j in l.poset.upper_covers(chain[-1]):
            if l.leq[j, target]:
                stack.append(chain + [j])


class TestQuotients:
    def test_socle_interval_is_box(self, case_n1):
        s = next(
            x for x in case_n1.names if factor_string(case_n1, x) == "dfg"
        )
        below = lk.interval_of(case_n1, case_n1.lattice.bottom, s)
        assert lk.lattice_isomorphic(below.lattice, catalog.boolean_lattice(3))

    def test_quotient_by_socle_is_box(self, case_n1):
        s = next(
            x for x in case_n1.names if factor_string(case_n1, x) == "dfg"
        )
        above = lk.quotient_by(case_n1, s)
        assert above.n == 8
        assert lk.lattice_isomorphic(above.lattice, catalog.boolean_lattice(3))

    def test_degenerate_interval(self, case_n1):
        one = lk.interval_of(case_n1, "A", "A")
        assert one.n == 1

    def test_not_comparable(self, case_n1):
        with pytest.raises(lk.NotComparable):
            lk.interval_of(case_n1, "A", "B")


class TestLengthThreeClassification:
    def test_five_classes_and_dual_pair(self):
        posets = catalog.three_element_posets()
        lattices = {k: lk.ideals_lattice(p).lattice for k, p in posets.items()}
        assert len(lattices) == 5
        for l in lattices.values():
            assert lk.is_distributive(l).distributive
            g = lk.grade(l)
            assert g.graded and g.degree[l.top] == 3
        for a, b in itertools.combinations(lattices, 2):
            assert lk.lattice_isomorphic(lattices[a], lattices[b]) is None
        assert (
            lk.lattice_isomorphic(lattices["wedge"], lattices["vee"].dual)
            is not None
        )
        # the named ones: the 4-chain, the divisor lattice of 12, the box
        assert lk.lattice_isomorphic(
            lattices["chain"], lk.as_lattice(catalog.chain_poset(3))
        )
        assert lk.lattice_isomorphic(
            lattices["chain_plus_point"], catalog.divisor_lattice(12)
        )
        assert lk.lattice_isomorphic(lattices["antichain"], catalog.boolean_lattice(3))

    def test_augmenting_gives_unique_atom_length_four(self):
        for name, p in catalog.three_element_posets().items():
            l = lk.ideals_lattice(p).lattice
            aug = lk.add_bounds(l, bottom="⊥")
            g = lk.grade(aug)
            assert g.graded and g.degree[aug.top] == 4
            assert len(lk.atoms(aug)) == 1
