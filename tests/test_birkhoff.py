import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticekit as lk
import latticekit.freedist as fd
from latticekit import birkhoff, catalog, cli
from latticekit.poset import order_ideal_masks

from conftest import (
    BLOCK_CELLS,
    assert_covers_read_off,
    distributive_fixture_lattices,
    reference_ideal_labels,
    reference_order_ideal_masks,
    reference_set_tables,
    reference_stanley_steps,
    row_ints,
    table_blocks,
)


class TestIdealsLattice:
    def test_antichain_gives_boolean(self):
        ll = lk.ideals_lattice(catalog.antichain_poset(3))
        assert ll.n == 8
        assert lk.lattice_isomorphic(ll.lattice, catalog.boolean_lattice(3))
        # each cover edge is labeled by the single element it adds
        assert ll.label("{}", "{x1}") == "x1"
        assert ll.label("{x1,x2}", "{x1,x2,x3}") == "x3"

    def test_boolean_poset_gives_twenty(self):
        ll = lk.ideals_lattice(catalog.boolean_poset(3))
        assert ll.n == 20
        assert lk.is_distributive(ll.lattice).distributive

    def test_case_n1_poset_gives_21(self, case_n1_spec):
        p = lk.irreducible_order(case_n1_spec)
        assert lk.ideals_lattice(p).n == 21

    def test_result_always_distributive_and_graded(self):
        for p in catalog.three_element_posets().values():
            ll = lk.ideals_lattice(p)
            assert lk.is_distributive(ll.lattice).distributive
            g = lk.grade(ll.lattice)
            assert g.graded and g.degree[ll.lattice.top] == p.n

    def test_labels_are_exactly_interval_classes(self, case_n1_spec):
        p = lk.irreducible_order(case_n1_spec)
        ll = lk.ideals_lattice(p)
        part = lk.interval_classes(ll.lattice)
        for (e1, e2) in itertools.combinations(part.edges, 2):
            same_class = part.class_of[e1] == part.class_of[e2]
            same_label = ll.edge_labels[e1] == ll.edge_labels[e2]
            assert same_class == same_label

    def test_every_edge_labeled(self):
        ll = lk.ideals_lattice(catalog.boolean_poset(2))
        ll.validate()

    def test_cap(self):
        with pytest.raises(lk.SizeLimitExceeded):
            lk.ideals_lattice(catalog.antichain_poset(5), cap=10)


def assert_matches_reference(p, cells):
    with table_blocks(cells):
        l = lk.ideals_lattice(p).lattice
    # the reference runs the pair loop over the same down-set order
    masks = [int.from_bytes(row.tobytes(), "little") for row in order_ideal_masks(p)]
    leq, meet, join = reference_set_tables(masks)
    assert np.array_equal(l.leq, leq)
    assert np.array_equal(l.meet, meet) and np.array_equal(l.join, join)
    assert (l.bottom_index, l.top_index) == (0, len(leq) - 1)


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    names = [f"e{i}" for i in range(n)]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return lk.build_poset(draw(st.permutations(names)), pairs, warn_redundant=False)


class TestIdealsTablesMatchPairLoop:
    @settings(max_examples=100, deadline=None)
    @given(random_posets(), st.sampled_from(BLOCK_CELLS))
    def test_random_posets(self, p, cells):
        assert_matches_reference(p, cells)

    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_wider_than_one_word(self, cells):
        # a 70-chain plus two incomparable points: masks need two words
        names = [f"c{i}" for i in range(70)] + ["u", "v"]
        covers = [(f"c{i}", f"c{i + 1}") for i in range(69)]
        p = lk.build_poset(names, covers)
        assert lk.ideals_lattice(p).n == 71 * 4
        assert_matches_reference(p, cells)


@st.composite
def long_or_short_posets(draw):
    """A random poset on at most 8 points, or one on at most 3 points
    beside a 65- to 70-chain (two words per set), with random covers
    between any of them; element names in a random order."""
    chain = draw(st.sampled_from([0, 0, 65, 70]))
    k = draw(st.integers(min_value=0, max_value=3 if chain else 8))
    n = chain + k
    covers = {(i, i + 1) for i in range(chain - 1)}
    covers |= set(
        draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * k))
        if n else []
    )
    names = [f"e{i}" for i in draw(st.permutations(range(n)))]
    pairs = [(f"e{a}", f"e{b}") for a, b in covers if a < b]
    return lk.build_poset(names, pairs, warn_redundant=False)


class TestIdealsCoversFromUnions:
    """J(P)'s covers, read off its union table at build time, and those of
    its dual, an interval and its bounds, equal the matmul's, and no path
    that builds a J(P) runs the matmul on it."""

    @settings(max_examples=60, deadline=None)
    @given(long_or_short_posets())
    @example(lk.build_poset([], []))
    def test_random_posets(self, p):
        assert_covers_read_off(lambda: lk.ideals_lattice(p).lattice)

    @pytest.mark.parametrize("k", [1, 2, 10, 64, 65, 200])
    def test_chains(self, k):
        p = catalog.chain_poset(k)
        assert_covers_read_off(lambda: lk.ideals_lattice(p).lattice)
        ll = lk.ideals_lattice(p)
        masks = reference_order_ideal_masks(p, lk.poset.DEFAULT_IDEAL_CAP)
        expected = reference_ideal_labels(p, masks, ll.names)
        assert list(ll.edge_labels.items()) == list(expected.items())

    def test_no_matmul_on_ideals_reconstruct_or_round_trip(
        self, monkeypatch, tmp_path, case_n1_spec
    ):
        sizes = []
        matmul = lk.Poset.covers_matrix.func

        def counted(poset):
            sizes.append(poset.n)
            return matmul(poset)

        covers = functools.cached_property(counted)
        covers.__set_name__(lk.Poset, "covers_matrix")
        monkeypatch.setattr(lk.Poset, "covers_matrix", covers)
        path, out = tmp_path / "antichain.json", tmp_path / "b6.json"
        path.write_text(json.dumps({"elements": [f"x{i}" for i in range(6)], "covers": []}))
        assert cli.main(["birkhoff", "ideals", str(path), "--out", str(out)]) == 0
        assert lk.reconstruct(case_n1_spec).n == 21
        assert lk.birkhoff_roundtrip(catalog.boolean_lattice(3)).ok
        # only irreducible posets run it; B3 reads its covers off its unions
        assert 64 not in sizes and 21 not in sizes and 8 not in sizes


class TestPackedRowsMatchIntMasks:
    """Level-by-level enumeration and the array Stanley construction against
    the depth-first int-mask enumeration, the per-pair label loop and the
    int-mask construction they replace."""

    @settings(max_examples=60, deadline=None)
    @given(long_or_short_posets())
    @example(lk.build_poset([], []))
    def test_ideals(self, p):
        masks = reference_order_ideal_masks(p, lk.poset.DEFAULT_IDEAL_CAP)
        rows = order_ideal_masks(p)
        assert rows.dtype == np.uint64 and rows.shape == (len(masks), max(1, -(-p.n // 64)))
        assert row_ints(rows) == masks
        assert lk.order_ideals(p) == [
            frozenset(p.names[i] for i in range(p.n) if m >> i & 1) for m in masks
        ]
        ll = lk.ideals_lattice(p)
        names = tuple(
            "{" + ",".join(p.names[i] for i in range(p.n) if m >> i & 1) + "}" for m in masks
        )
        assert ll.names == names
        leq, meet, join = reference_set_tables(masks)
        assert np.array_equal(ll.lattice.leq, leq)
        assert np.array_equal(ll.lattice.meet, meet) and np.array_equal(ll.lattice.join, join)
        assert list(ll.edge_labels.items()) == list(reference_ideal_labels(p, masks, names).items())

    @settings(max_examples=30, deadline=None)
    @given(long_or_short_posets())
    @example(lk.build_poset([], []))
    def test_cap(self, p):
        m = len(reference_order_ideal_masks(p, lk.poset.DEFAULT_IDEAL_CAP))
        assert len(order_ideal_masks(p, cap=m)) == m
        with pytest.raises(lk.SizeLimitExceeded) as expected:
            reference_order_ideal_masks(p, m - 1)
        with pytest.raises(lk.SizeLimitExceeded) as got:
            order_ideal_masks(p, cap=m - 1)
        assert str(got.value) == str(expected.value)
        with pytest.raises(lk.SizeLimitExceeded, match=str(m - 1)):
            lk.ideals_lattice(p, cap=m - 1)

    @settings(max_examples=40, deadline=None)
    @given(long_or_short_posets().filter(lambda p: p.n <= 8))
    @example(lk.build_poset([], []))
    def test_stanley_steps(self, p):
        assert_stanley_matches_reference(p)

    def test_stanley_steps_two_words(self):
        # a 70-chain plus two points, one of them above c3: sets need two words
        names = [f"c{i}" for i in range(70)] + ["u", "v"]
        covers = [(f"c{i}", f"c{i + 1}") for i in range(69)] + [("c3", "u")]
        assert_stanley_matches_reference(lk.build_poset(names, covers))

    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_stanley_row_blocks(self, cells):
        with table_blocks(cells):
            assert_stanley_matches_reference(catalog.boolean_poset(3))


def test_snapshot_order_scratch_on_the_11_antichain():
    """Stanley's snapshot order is built in row blocks: on B_11's 2048
    nodes it needs at most twice its own 2048² booleans."""
    nodes = order_ideal_masks(catalog.antichain_poset(11))
    tracemalloc.start()
    try:
        leq = birkhoff._inclusion_order(nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert leq.sum() == 3**11  # pairs u ⊆ v of subsets of 11 elements
    assert peak <= 2 * len(nodes) ** 2


def assert_stanley_matches_reference(p):
    expected = reference_stanley_steps(p, lk.poset.DEFAULT_IDEAL_CAP)
    steps = lk.stanley_construct(p).steps
    assert len(steps) == len(expected)
    for step, (description, names, leq, labels) in zip(steps, expected):
        assert step.description == description
        assert step.poset.names == names
        assert np.array_equal(step.poset.leq, leq)
        assert list(step.labels.items()) == list(labels.items())


class TestIrreduciblePoset:
    def test_boolean_gives_antichain(self, b3):
        p = lk.irreducible_poset(b3)
        assert p.n == 3 and p.cover_names() == []

    def test_extended_free3_gives_boolean_poset(self):
        l = fd.generate_lattice(3, extended=True)
        p = lk.irreducible_poset(l)
        assert lk.is_isomorphic(p, catalog.boolean_poset(3)) is not None

    def test_divisor(self, d12):
        p = lk.irreducible_poset(d12)
        assert sorted(p.names) == ["2", "3", "4"]
        assert p.cover_names() == [("2", "4")]

    def test_rejects_nonmodular(self, pentagon, diamond):
        for l in (pentagon, diamond):
            with pytest.raises(lk.NotDistributive):
                lk.irreducible_poset(l)


class TestRoundtrip:
    def test_all_distributive_fixtures(self, case_n1, case_n2):
        for name, l in distributive_fixture_lattices(case_n1, case_n2).items():
            rep = lk.birkhoff_roundtrip(l)
            assert rep.ok, name
            assert rep.lattice_iso is not None and rep.poset_iso is not None

    def test_extended_free4(self):
        rep = lk.birkhoff_roundtrip(fd.generate_lattice(4, extended=True))
        assert rep.ok

    def test_iso_really_preserves_order(self, d12):
        rep = lk.birkhoff_roundtrip(d12)
        p = lk.irreducible_poset(d12)
        jl = lk.ideals_lattice(p).lattice
        iso = rep.lattice_iso
        for a in jl.names:
            for b in jl.names:
                assert jl.le(a, b) == d12.le(iso[a], iso[b])


class TestStanley:
    def test_two_chain(self):
        p = lk.build_poset(["x", "y"], [("x", "y")])
        trace = lk.stanley_construct(p)
        assert [s.poset.n for s in trace.steps] == [2, 3]
        assert "B_1" in trace.steps[0].description
        final = lk.as_lattice(trace.final)
        assert lk.lattice_isomorphic(final, lk.as_lattice(catalog.chain_poset(2)))

    @pytest.mark.parametrize("name", sorted(catalog.three_element_posets()))
    def test_three_element_posets_match_ideals(self, name):
        p = catalog.three_element_posets()[name]
        trace = lk.stanley_construct(p)
        expected = lk.ideals_lattice(p).lattice.poset
        assert lk.is_isomorphic(trace.final, expected) is not None

    def test_boolean_poset_converges_to_twenty(self):
        trace = lk.stanley_construct(catalog.boolean_poset(3))
        assert trace.final.n == 20

    def test_case_n2_finishes_at_18(self, case_n2_spec):
        p = lk.irreducible_order(case_n2_spec)
        trace = lk.stanley_construct(p)
        assert trace.final.n == 18
        assert (
            lk.is_isomorphic(trace.final, lk.ideals_lattice(p).lattice.poset)
            is not None
        )

    def test_case_n1_trace_and_layers(self, case_n1_spec, case_n1):
        p = lk.irreducible_order(case_n1_spec)
        trace = lk.stanley_construct(p)
        assert trace.final.n == 21
        sizes = [s.poset.n for s in trace.steps]
        assert sizes == sorted(sizes) and sizes[0] == 8
        # the hand construction adds one length layer at a time after the
        # partial diagram: cumulative layer sizes 13, 17, 20, then 21
        degree = lk.grade(case_n1.lattice).degree
        cumulative = []
        for k in range(7):
            cumulative.append(sum(1 for v in degree.values() if v <= k))
        assert cumulative == [1, 4, 8, 13, 17, 20, 21]

    def test_snapshots_are_posets_and_monotone(self, case_n1_spec):
        p = lk.irreducible_order(case_n1_spec)
        trace = lk.stanley_construct(p)
        seen = set()
        for step in trace.steps:
            nodes = set(step.poset.names)
            assert seen <= nodes
            seen = nodes

    def test_trace_deterministic(self):
        p = catalog.boolean_poset(2)
        t1 = lk.stanley_construct(p)
        t2 = lk.stanley_construct(p)
        assert [s.description for s in t1.steps] == [s.description for s in t2.steps]
        assert [s.poset.names for s in t1.steps] == [s.poset.names for s in t2.steps]



class TestResultGuards:
    """The result checks raise InvariantViolation, so ``python -O`` keeps them."""

    def test_irreducible_map_must_extend(self, monkeypatch, d12):
        monkeypatch.setattr(birkhoff, "_extend_irreducible_map", lambda a, b, phi: None)
        with pytest.raises(lk.InvariantViolation, match="failed to extend"):
            lk.lattice_isomorphic(d12, d12)

    @pytest.mark.parametrize(
        "covers, message",
        [
            # {a, b, c} is reached only by closing {a, c} and {b} under union
            ([("a", "c"), ("b", "d"), ("c", "d")], "base of the new join irreducible"),
            # {a, b, c} is needed at the end but nothing builds it
            ([("a", "c")], "did not converge"),
        ],
    )
    def test_stanley_must_converge(self, monkeypatch, covers, message):
        names = sorted({x for pair in covers for x in pair} | {"b"})
        p = lk.build_poset(names, covers)
        monkeypatch.setattr(birkhoff, "_close_under_union", lambda nodes, seeds: None)
        with pytest.raises(lk.InvariantViolation, match=message):
            lk.stanley_construct(p)

class TestEvaluate:
    def test_generator(self, b3):
        e = fd.generator(3, 2)
        assert lk.evaluate_in_lattice(e, b3, {1: "{1}", 2: "{2}", 3: "{3}"}) == "{2}"

    def test_meet_collapse_in_box(self, b3):
        assign = {1: "{1}", 2: "{2}", 3: "{3}"}
        e = fd.parse_dnf("(P1&P2)|(P1&P3)")
        assert lk.evaluate_in_lattice(e, b3, assign) == "{}"
        for text in ("P1&P2", "P1&P3", "P2&P3"):
            assert lk.evaluate_in_lattice(fd.parse_dnf(text), b3, assign) == "{}"

    def test_surjective_onto_box(self, b3):
        assign = {1: "{1}", 2: "{2}", 3: "{3}"}
        image = {
            lk.evaluate_in_lattice(e, b3, assign)
            for e in fd.enumerate_elements(3)
        }
        assert image == set(b3.names)

    def test_monotone_for_all_pairs(self, b3, d12):
        elements = fd.enumerate_elements(3)
        targets = [
            (b3, {1: "{1}", 2: "{2}", 3: "{3}"}),
            (d12, {1: "2", 2: "3", 3: "4"}),
        ]
        for l, assign in targets:
            values = {e: lk.evaluate_in_lattice(e, l, assign) for e in elements}
            for x in elements:
                for y in elements:
                    if fd.fd_leq(x, y):
                        assert l.le(values[x], values[y])

    def test_missing_assignment(self, b3):
        with pytest.raises(lk.UnknownElement):
            lk.evaluate_in_lattice(fd.generator(3, 3), b3, {1: "{1}", 2: "{2}"})
