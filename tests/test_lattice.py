import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticekit as lk
import latticekit.freedist as fd
from latticekit import catalog
from latticekit import io as lkio
from latticekit import properties
from latticekit import lattice as lattice_module
from latticekit.lattice import TABLE_LIMIT, set_family_tables
from latticekit.poset import order_ideal_masks

from conftest import (
    BLOCK_CELLS,
    CATALOG,
    WIDE,
    assert_covers_read_off,
    reference_bounds,
    reference_degree,
    reference_distributive_identity_violation,
    reference_first_bound_tables,
    reference_join_irreducibles,
    reference_set_tables,
    reference_unequal_chain_witness,
    reference_verify,
    searched_lattices,
    table_blocks,
)


def set_name(s):
    return "{" + ",".join(sorted(s)) + "}"


class TestAsLattice:
    def test_pentagon_tables(self, pentagon):
        assert pentagon.bottom == "0" and pentagon.top == "1"
        assert pentagon.meet_of("a", "b") == "0"
        assert pentagon.join_of("a", "b") == "1"
        assert pentagon.meet_of("c", "b") == "c"
        assert pentagon.join_of("c", "b") == "b"

    def test_no_top_fails(self):
        p = lk.build_poset(["0", "x", "y"], [("0", "x"), ("0", "y")])
        with pytest.raises(lk.NotALattice) as exc:
            lk.as_lattice(p)
        assert exc.value.pair == ("x", "y")
        assert exc.value.candidates == []

    def test_two_minimal_upper_bounds(self):
        p = lk.build_poset(
            ["0", "x", "y", "s", "t", "1"],
            [("0", "x"), ("0", "y")]
            + [(a, b) for a in "xy" for b in "st"]
            + [("s", "1"), ("t", "1")],
        )
        with pytest.raises(lk.NotALattice) as exc:
            lk.as_lattice(p)
        assert exc.value.pair == ("x", "y")
        assert exc.value.candidates == ["s", "t"]

    def test_boolean_is_union_intersection(self, b3):
        for a in b3.names:
            sa = set(a.strip("{}").split(",")) - {""}
            for b in b3.names:
                sb = set(b.strip("{}").split(",")) - {""}
                assert b3.join_of(a, b) == set_name(sa | sb)
                assert b3.meet_of(a, b) == set_name(sa & sb)

    def test_broken_tables_rejected(self, b3):
        join = np.array(b3.join)
        join[1, 2] = join[2, 1] = b3.top_index  # wrong lub for two atoms
        with pytest.raises(lk.NotALattice):
            lk.Lattice(b3.poset, b3.meet, join)

    def test_not_a_partial_order_names_the_row(self):
        # not transitive: a row is flagged although every pair in it has
        # one extremal common bound
        leq = np.array(
            [[1, 0, 1, 0, 1], [0, 1, 1, 1, 0], [0, 1, 1, 0, 0], [1, 1, 0, 1, 0], [0, 0, 0, 0, 1]],
            dtype=bool,
        )
        with pytest.raises(lk.InvalidArgument, match=r"not a partial order \(row '0'\)"):
            lk.as_lattice(lk.Poset(list("01234"), leq))

    def test_short_table_named(self, b3):
        with pytest.raises(lk.InvalidArgument, match=r"meet table has shape \(5, 8\), not \(8, 8\)"):
            lk.Lattice(b3.poset, b3.meet[:5], b3.join)

    def test_flat_table_named(self, b3):
        with pytest.raises(lk.InvalidArgument, match=r"join table has shape \(8,\), not \(8, 8\)"):
            lk.Lattice(b3.poset, b3.meet, b3.join[0])


class TestGrade:
    def test_pentagon_not_graded(self, pentagon):
        g = lk.grade(pentagon)
        assert not g.graded and g.degree is None
        lens = sorted(len(c) - 1 for c in g.witness)
        assert lens == [2, 3]

    def test_boolean_degree_is_cardinality(self, b3):
        g = lk.grade(b3)
        for x in b3.names:
            size = 0 if x == "{}" else x.count(",") + 1
            assert g.degree[x] == size

    def test_divisor_lattice_degree_three(self, d12):
        g = lk.grade(d12)
        assert g.graded and g.degree["12"] == 3

    def test_cover_increments(self, d12):
        g = lk.grade(d12)
        for a, b in d12.poset.cover_names():
            assert g.degree[b] == g.degree[a] + 1

    @settings(max_examples=60, deadline=None)
    @given(searched_lattices(factors=(catalog.pentagon,)))
    def test_chain_witness_matches_the_column_walk(self, l):
        g = lk.grade(l)
        assert not g.graded and g.witness == reference_unequal_chain_witness(l)


def lower_covers_oracle(l, x):
    """Independent: maximal elements strictly below x, straight from leq."""
    i = l.index(x)
    below = [j for j in range(l.n) if l.leq[j, i] and j != i]
    return [
        l.names[j]
        for j in below
        if not any(k != j and l.leq[j, k] for k in below)
    ]


class TestJoinIrreducibles:
    def test_boolean_atoms(self, b3):
        ji = lk.join_irreducibles(b3)
        assert sorted(ji.names) == ["{1}", "{2}", "{3}"]
        assert all(ji.lower_cover[x] == "{}" for x in ji.names)

    def test_chain_all_nonzero(self):
        l = lk.as_lattice(catalog.chain_poset(4))
        assert len(lk.join_irreducibles(l).names) == 4
        assert len(lk.join_irreducibles(l, include_bottom=True).names) == 5

    def test_extended_free3(self):
        l = fd.generate_lattice(3, extended=True)
        ji = lk.join_irreducibles(l)
        # oracle: count lower covers straight from the order matrix
        expected = sorted(
            x for x in l.names
            if x != l.bottom and len(lower_covers_oracle(l, x)) == 1
        )
        assert sorted(ji.names) == expected
        meets = {"P1", "P2", "P3", "P1&P2", "P1&P3", "P2&P3", "P1&P2&P3"}
        assert set(ji.names) == meets | {"1̂"}
        assert len(ji.names) == 8

    def test_unique_lower_cover_reported(self, d12):
        ji = lk.join_irreducibles(d12)
        assert ji.lower_cover == {"2": "1", "3": "1", "4": "2"}


class TestSublatticeClosure:
    def test_singleton(self, pentagon):
        assert lk.sublattice_closure(pentagon, ["a"]) == {"a"}

    def test_pentagon_pair(self, pentagon):
        assert lk.sublattice_closure(pentagon, ["a", "b"]) == {"a", "b", "0", "1"}

    def test_closed_under_tables(self, d12):
        cl = lk.sublattice_closure(d12, ["4", "6"])
        for a in cl:
            for b in cl:
                assert d12.meet_of(a, b) in cl
                assert d12.join_of(a, b) in cl

    def test_case_n1_missing_generator(self, case_n1):
        l = case_n1.lattice
        cl = lk.sublattice_closure(l, ["A", "B", "D"])
        assert "B∩C" not in cl
        assert len(cl) == 13
        assert cl == closure_oracle(l, {"A", "B", "D"})
        assert lk.sublattice_closure(l, ["A", "B", "D", "B∩C"]) == set(l.names)


def closure_oracle(l, seed):
    """Independent fixed point in the set model: each element of a
    distributive lattice is the set of join irreducibles below it, with
    union as join and intersection as meet (no table lookups)."""
    irr = lk.join_irreducibles(l).names
    model = {x: frozenset(j for j in irr if l.le(j, x)) for x in l.names}
    inverse = {v: k for k, v in model.items()}
    current = {model[x] for x in seed}
    while True:
        new = set(current)
        for a in current:
            for b in current:
                new.add(a | b)
                new.add(a & b)
        if new == current:
            return {inverse[s] for s in current}
        current = new


class TestRank:
    def test_boolean(self, b3):
        r = lk.rank(b3)
        assert r.rank == 3 and sorted(r.witness) == ["{1}", "{2}", "{3}"]

    def test_restricted_free3(self):
        l = fd.generate_lattice(3)
        r = lk.rank(l)
        assert r.rank == 3 and sorted(r.witness) == ["P1", "P2", "P3"]

    def test_case_n1_rank_four(self, case_n1):
        r = lk.rank(case_n1.lattice)
        assert r.rank == 4
        assert sorted(r.witness) == ["A", "B", "B∩C", "D"]

    def test_chain_not_restricted(self):
        with pytest.raises(lk.NotRestricted):
            lk.rank(lk.as_lattice(catalog.chain_poset(3)))

    def test_irreducible_cap(self, b3):
        with pytest.raises(lk.SizeLimitExceeded):
            lk.rank(b3, irreducible_cap=2)


class TestAtomsCoatoms:
    def test_boolean(self, b3):
        assert sorted(lk.atoms(b3)) == ["{1}", "{2}", "{3}"]
        assert sorted(lk.coatoms(b3)) == ["{1,2}", "{1,3}", "{2,3}"]

    def test_chain(self):
        l = lk.as_lattice(catalog.chain_poset(4))
        assert lk.atoms(l) == ["c1"] and lk.coatoms(l) == ["c3"]

    def test_diamond(self, diamond):
        assert sorted(lk.atoms(diamond)) == sorted(lk.coatoms(diamond)) == list("abc")


class TestDerivedLattices:
    def test_interval(self, b3):
        sub = lk.interval_sublattice(b3, "{1}", "{1,2,3}")
        assert sub.n == 4 and sub.bottom == "{1}" and sub.top == "{1,2,3}"

    def test_interval_not_comparable(self, b3):
        with pytest.raises(lk.NotComparable):
            lk.interval_sublattice(b3, "{1}", "{2,3}")

    def test_add_bounds(self, b3):
        big = lk.add_bounds(b3, bottom="LO", top="HI")
        assert big.n == b3.n + 2
        assert big.bottom == "LO" and big.top == "HI"
        assert lk.atoms(big) == ["{}"]
        g = lk.grade(big)
        assert g.graded and g.degree["HI"] == 5

    def test_add_bounds_name_clash(self, b3):
        with pytest.raises(ValueError):
            lk.add_bounds(b3, bottom="{}")


class TestUniversalProperty:
    def test_join_is_least_upper_bound(self, d12):
        # exhaustive: any common upper bound is above the join; dually
        for a in d12.names:
            for b in d12.names:
                j, m = d12.join_of(a, b), d12.meet_of(a, b)
                assert d12.le(a, j) and d12.le(b, j)
                assert d12.le(m, a) and d12.le(m, b)
                for c in d12.names:
                    if d12.le(a, c) and d12.le(b, c):
                        assert d12.le(j, c)
                    if d12.le(c, a) and d12.le(c, b):
                        assert d12.le(c, m)

    def test_absorption_and_order_equivalences(self, pentagon):
        l = pentagon
        for a in l.names:
            for b in l.names:
                assert l.meet_of(a, l.join_of(a, b)) == a
                assert l.join_of(a, l.meet_of(a, b)) == a
                assert (l.le(b, a) == (l.meet_of(a, b) == b)
                        == (l.join_of(a, b) == a))


# -- vectorized table builders against the pair loops they replaced ------------


def reference_as_lattice(p):
    """Pair-loop reference: for a ascending and b >= a, the unique minimal
    common upper bound, then the unique maximal common lower bound, found by
    scanning bit masks.  Returns (meet, join, bottom, top) or raises the
    same NotALattice the library documents."""
    n = p.n
    up = [sum(1 << j for j in range(n) if p.leq[i, j]) for i in range(n)]
    down = [sum(1 << j for j in range(n) if p.leq[j, i]) for i in range(n)]

    def unique(bounds, opposite, a, b, kind):
        if bounds == 0:
            raise lk.NotALattice((p.names[a], p.names[b]), [], kind)
        minimal = [
            i for i in range(n)
            if bounds >> i & 1 and opposite[i] & bounds & ~(1 << i) == 0
        ]
        if len(minimal) != 1:
            raise lk.NotALattice(
                (p.names[a], p.names[b]), [p.names[i] for i in minimal], kind
            )
        return minimal[0]

    meet = np.zeros((n, n), dtype=np.int16)
    join = np.zeros((n, n), dtype=np.int16)
    for a in range(n):
        for b in range(a, n):
            join[a, b] = join[b, a] = unique(up[a] & up[b], down, a, b, "join")
            meet[a, b] = meet[b, a] = unique(down[a] & down[b], up, a, b, "meet")
    bottom = next(i for i in range(n) if p.leq[i].all())
    top = next(i for i in range(n) if p.leq[:, i].all())
    return meet, join, bottom, top


@st.composite
def shuffled_posets(draw):
    """Random posets of at most 9 elements, often with an adjoined bottom
    and top, listed in an order that need not be a linear extension."""
    n = draw(st.integers(min_value=1, max_value=7))
    names = [f"e{i}" for i in range(n)]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    if draw(st.booleans()):
        pairs += [("lo", x) for x in names] + [(x, "hi") for x in names]
        names = ["lo"] + names + ["hi"]
    names = draw(st.permutations(names))
    return lk.build_poset(names, pairs, warn_redundant=False)


class TestAsLatticeMatchesPairLoop:
    @settings(max_examples=300, deadline=None)
    @given(shuffled_posets(), st.sampled_from(BLOCK_CELLS))
    def test_random_posets(self, p, cells):
        try:
            expected = reference_as_lattice(p)
        except lk.NotALattice as exc:
            with pytest.raises(lk.NotALattice) as got, table_blocks(cells):
                lk.as_lattice(p)
            assert (got.value.pair, got.value.candidates, got.value.kind) == (
                exc.pair, exc.candidates, exc.kind
            )
            assert str(got.value) == str(exc)
            return
        with table_blocks(cells):
            l = lk.as_lattice(p)
        meet, join, bottom, top = expected
        assert np.array_equal(l.meet, meet) and np.array_equal(l.join, join)
        assert (l.bottom_index, l.top_index) == (bottom, top)

    def test_size_limit_before_allocation(self):
        too_big = SimpleNamespace(n=TABLE_LIMIT + 1)
        with pytest.raises(lk.SizeLimitExceeded, match="32768"):
            lk.as_lattice(too_big)


@st.composite
def wide_partial_orders(draw):
    """Partial orders of up to 128 elements, so that packed rows often take
    two words, listed in a random order: the down-set lattice J(P) of a
    random poset on at most 7 points, or the closure of a random DAG on at
    most 100 points, often with a bottom and a top adjoined (the sparse ones
    are lattices, the denser ones mostly not)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=7))
        names = [f"x{i}" for i in range(k)]
        below = np.triu(rng.random((k, k)) < 0.3, 1)
        covers = [(names[i], names[j]) for i, j in zip(*np.nonzero(below))]
        leq = lk.ideals_lattice(lk.build_poset(names, covers, warn_redundant=False)).lattice.leq
    else:
        n = draw(st.integers(min_value=1, max_value=100))
        density = draw(st.sampled_from([0.01, 0.05, 0.2]))
        leq = np.triu(rng.random((n, n)) < density, 1) | np.eye(n, dtype=bool)
        for k in range(n):  # transitive closure
            leq |= leq[:, k, None] & leq[k]
        if draw(st.booleans()):
            leq = np.pad(leq, 1)
            leq[0] = leq[:, -1] = True
    order = rng.permutation(len(leq))
    return lk.Poset([f"e{i}" for i in order], leq[np.ix_(order, order)])


def tables_outcome(build):
    """(meet, join, bottom, top) as bytes and ints from ``build()``, or the
    NotALattice it raised as (pair, candidates, kind, message)."""
    try:
        meet, join, bottom, top = build()
    except lk.NotALattice as exc:
        return exc.pair, exc.candidates, exc.kind, str(exc)
    return meet.tobytes(), join.tobytes(), bottom, top


def lattice_outcome(p):
    """``as_lattice(p)`` as :func:`tables_outcome`."""

    def build():
        l = lk.as_lattice(p)
        return l.meet, l.join, l.bottom_index, l.top_index

    return tables_outcome(build)


class TestAsLatticeMatchesFirstCommonBound:
    """The one pair lookup gives the tables and witnesses of the
    linear-extension search it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(wide_partial_orders(), st.sampled_from(BLOCK_CELLS))
    def test_random_orders(self, p, cells):
        with table_blocks(cells):
            expected = tables_outcome(lambda: reference_first_bound_tables(p))
            assert lattice_outcome(p) == expected


def lookup_outcomes(p):
    """``as_lattice(p)`` as :func:`tables_outcome`, on its narrow rows and on
    full-width rows (every side refused, so that it falls back), and for
    the narrow run the width of each side's rows and whether they reflected
    the order (join side first).  The constructor's own equivalence checks
    (``exact``) are not recorded."""
    sides = []
    reflects_order = lattice_module._reflects_order

    def spy(rows, bounds, exact=False):
        if exact:
            return reflects_order(rows, bounds, exact=True)
        sides.append((rows.shape[1], reflects_order(rows, bounds)))
        return sides[-1][1]

    def refused(rows, bounds, exact=False):
        return reflects_order(rows, bounds, exact=True) if exact else False

    with mock.patch.object(lattice_module, "_reflects_order", spy):
        narrow = lattice_outcome(p)
    with mock.patch.object(lattice_module, "_reflects_order", refused):
        full = lattice_outcome(p)
    return narrow, full, sides


def listed_posets(l, seed=0):
    """``l``'s order as a file lists it, elements and cover pairs through
    build_poset: in ``l``'s element order and in a shuffled one."""
    names = list(l.names)
    shuffled = [names[i] for i in np.random.default_rng(seed).permutation(l.n)]
    covers = l.poset.cover_names()
    return [lk.build_poset(order, covers) for order in (names, shuffled)]


class TestAsLatticeNarrowRowsMatchFullWidth:
    """Tables on the rows of the elements with at most one lower (upper)
    cover equal those of the full down-set (up-set) rows, and non-lattices
    fail on the same pair with the same bounds."""

    def assert_lattice(self, p):
        narrow, full, sides = lookup_outcomes(p)
        assert narrow == full and isinstance(narrow[0], bytes)
        assert [reflects for _, reflects in sides] == [True, True]
        return sides

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        l = CATALOG[name]()
        for p in [l.poset, *listed_posets(l)]:
            self.assert_lattice(p)

    @settings(max_examples=40, deadline=None)
    @given(searched_lattices(), st.integers(0, 2**32 - 1))
    def test_ideals_and_products_shuffled(self, l, seed):
        for p in [l.poset, *listed_posets(l, seed)]:
            self.assert_lattice(p)

    @pytest.mark.parametrize("n", [3, 4])
    def test_free_lattices_read_back_from_files(self, n, tmp_path):
        path = tmp_path / f"fd{n}.json"
        lkio.write_lattice(path, fd.generate_lattice(n, extended=True))
        l = lkio.read_lattice(path)
        for p in [l.poset, *listed_posets(l)]:
            sides = self.assert_lattice(p)
            if n == 4:  # 168 elements, three words wide; their irreducibles fit one
                assert [words for words, _ in sides] == [1, 1]

    @pytest.mark.parametrize(
        "elements, covers, failure, reflects",
        [
            (["0", "x", "y"], [("0", "x"), ("0", "y")], (("x", "y"), [], "join"), True),
            (["x", "y", "1"], [("x", "1"), ("y", "1")], (("x", "y"), [], "meet"), True),
            # the bowtie's two tops (bottoms) lie above (below) the same
            # irreducibles, so both sides fall back to full-width rows
            (
                ["x", "y", "a", "b"],
                [("x", "a"), ("x", "b"), ("y", "a"), ("y", "b")],
                (("x", "y"), ["a", "b"], "join"),
                False,
            ),
        ],
        ids=["vee", "wedge", "bowtie"],
    )
    def test_small_non_lattices(self, elements, covers, failure, reflects):
        p = lk.build_poset(elements, covers)
        narrow, full, sides = lookup_outcomes(p)
        assert narrow == full and narrow[:3] == failure
        assert sides == [(1, reflects), (1, reflects)]
        with covers_forbidden():  # built from its order: no covers cached
            assert lattice_outcome(lk.Poset(p.names, p.leq)) == narrow

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(wide_partial_orders(), shuffled_posets()))
    def test_random_orders(self, p):
        narrow, full, _ = lookup_outcomes(p)
        assert narrow == full


class TestSetFamilyTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_free_lattice_matches_truth_tables(self, n, extended, cells):
        elements = sorted(
            fd.enumerate_elements(n, extended),
            key=lambda e: (bin(e.truth_table()).count("1"), e.truth_table()),
        )
        with table_blocks(cells):
            l = fd.generate_lattice(n, extended=extended)
        names = [
            "0̂" if e.is_bottom else "1̂" if e.is_top else fd.render(e)
            for e in elements
        ]
        assert l.names == tuple(names)
        leq, meet, join = reference_set_tables([e.truth_table() for e in elements])
        assert np.array_equal(l.leq, leq)
        assert np.array_equal(l.meet, meet) and np.array_equal(l.join, join)

    def test_not_closed_is_an_error(self):
        with pytest.raises(ValueError, match="union"):
            set_family_tables(np.array([[0], [1], [2], [1 | 2 | 4]], dtype=np.uint64))

    def test_repeated_member_is_an_error(self):
        with pytest.raises(ValueError, match="repeated"):
            set_family_tables(np.array([[0], [1], [1]], dtype=np.uint64))

    def test_size_limit_before_allocation(self):
        members = np.arange(TABLE_LIMIT + 1, dtype=np.uint64)[:, None]
        with pytest.raises(lk.SizeLimitExceeded, match="32768"):
            set_family_tables(members)


class TestSetFamilyCovers:
    """Lattices of sets read their covers off their join tables, and their
    duals, intervals and bounds take them over: all equal the matmul's, and
    none runs it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("extended", [False, True])
    def test_free_lattices(self, n, extended):
        assert_covers_read_off(lambda: fd.generate_lattice(n, extended=extended))

    def test_free1_restricted_has_no_irreducibles(self):
        l = assert_covers_read_off(lambda: fd.generate_lattice(1))
        assert l.n == 1 and lk.join_irreducibles(l).names == ()

    @pytest.mark.parametrize("k", range(9))
    def test_boolean_lattices(self, k):
        assert_covers_read_off(lambda: catalog.boolean_lattice(k))


def assert_dual_view_handed_over(l):
    """``l.dual`` holds ``l``'s irreducible-row view with the sides swapped,
    the very arrays, and they are byte-identical to a fresh view of the
    reversed order."""
    view = l.poset.irreducible_rows
    dual = l.dual.poset.irreducible_rows
    assert all(a is b for a, b in zip(dual, view[2:] + view[:2]))
    for got, fresh in zip(dual, lk.Poset(l.names, l.leq.T).irreducible_rows):
        assert (got.dtype, got.shape, got.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())


class TestDualView:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        assert_dual_view_handed_over(CATALOG[name]())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("extended", [False, True])
    def test_free_lattices(self, n, extended):
        assert_dual_view_handed_over(fd.generate_lattice(n, extended=extended))

    @settings(max_examples=40, deadline=None)
    @given(searched_lattices())
    def test_searched(self, l):
        assert_dual_view_handed_over(l)


def reference_pair_lookup(rows, op, family):
    """Pair loop over one-word rows as Python ints: the lowest family index
    of op(rows[i], rows[j]) for j >= i, and where there is none."""
    words, index = rows[:, 0].tolist(), {}
    for k, w in enumerate(family[:, 0].tolist()):
        index.setdefault(w, k)
    m = len(words)
    found = np.full((m, m), -1)
    for i in range(m):
        for j in range(i, m):
            found[i, j] = index.get(op(words[i], words[j]), -1)
    return found


def gathered_lookup(rows, op, family):
    """_pair_lookup's blocks as one (m, m) array: found where a row is
    found, -1 where it is missing, -2 below the diagonal."""
    m = len(rows)
    found = np.full((m, m), -2)
    for block, hits, missing in lattice_module._pair_lookup(rows, op, family):
        found[block, block.start :] = np.where(missing, -1, hits)
    return found


class TestPairLookupPaths:
    """The dense index and the sorted search find the same rows."""

    @staticmethod
    def family(rng, m, bits):
        words = rng.choice(1 << bits, size=m, replace=False)
        words[m - 1] = words[1]  # a repeated row: index 1 must win
        return words.astype(np.uint64)[:, None]

    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "bits, dense", [(6, (True, True)), (10, (True, False)), (12, (False, False)), (20, (False, False))]
    )
    def test_matches_pair_loop(self, cells, seed, bits, dense):
        # 45 family rows serve 45² = 2025 lookups and 30 other rows 900:
        # 10-bit keys take the index for the first and not the second
        rng = np.random.default_rng(seed)
        family = self.family(rng, 45, bits)
        others = rng.choice(1 << bits, size=30, replace=False).astype(np.uint64)[:, None]
        for rows, indexed in zip((family, others), dense):
            assert (lattice_module._dense_index(rows, family) is not None) == indexed
            for op, ref_op in ((np.bitwise_and, int.__and__), (np.bitwise_or, int.__or__)):
                with table_blocks(cells):
                    found = gathered_lookup(rows, op, family)
                expected = reference_pair_lookup(rows, ref_op, family)
                upper = np.triu(np.ones(found.shape, dtype=bool))
                assert np.array_equal(found[upper], expected[upper])
                assert (found[upper] == -1).any()  # misses are reported
        # the repeated row is found at its lowest index
        assert gathered_lookup(family, np.bitwise_and, family)[1, 1] == 1

    def test_selection_rule(self):
        def dense(*words):
            rows = np.array(words, dtype=np.uint64)[:, None]
            return lattice_module._dense_index(rows, rows) is not None

        assert dense(0, 1, 2, 15)  # span 16 = 4²
        assert not dense(0, 0, 0, 16)  # span 17 > 4²
        assert not dense(0, 1 << 40, 1 << 41, 3 << 40)
        wide = np.zeros((4, 2), dtype=np.uint64)  # two words per row, all keys 0
        assert lattice_module._dense_index(wide, wide) is None

    @pytest.fixture
    def paths(self, monkeypatch):
        """The indexes the table builders choose, None for a sorted search."""
        chosen = []
        dense_index = lattice_module._dense_index

        def spy(rows, family):
            chosen.append(dense_index(rows, family))
            return chosen[-1]

        monkeypatch.setattr(lattice_module, "_dense_index", spy)
        return chosen

    def test_wide_keys_take_the_sorted_path(self, paths):
        # a chain of 33 sets with 32-bit keys, as wide as FD(5)'s truth tables
        sets = [(1 << k) - 1 for k in range(33)]
        leq, meet, join = set_family_tables(np.array(sets, dtype=np.uint64)[:, None])
        assert len(paths) == 2 and all(slot is None for slot in paths)
        expected = reference_set_tables(sets)
        assert all(np.array_equal(a, b) for a, b in zip((leq, meet, join), expected))

    def test_free_lattices_choose_by_key_width(self, paths):
        fd.generate_lattice(3)  # 8-bit truth tables, 18² lookups
        assert len(paths) == 2 and all(slot is not None for slot in paths)
        fd.generate_lattice(4)  # 16-bit truth tables: 2^16 > 166²
        assert len(paths) == 4 and all(slot is None for slot in paths[2:])

    @pytest.mark.parametrize("cells", BLOCK_CELLS)
    def test_down_sets_take_the_dense_path(self, paths, cells):
        p = lk.build_poset([f"x{i}" for i in range(9)], [("x0", "x1"), ("x2", "x3")])
        with table_blocks(cells):
            l = lk.ideals_lattice(p).lattice
        assert len(paths) == 2 and all(slot is not None and len(slot) == 512 for slot in paths)
        expected = reference_set_tables([int(w) for w in order_ideal_masks(p)[:, 0]])
        assert all(np.array_equal(a, b) for a, b in zip((l.leq, l.meet, l.join), expected))


def reference_boolean_lattice(k):
    """B_k from its cover list through build_poset and as_lattice, the
    construction the catalog used before it built the subset family."""
    def name(mask):
        return "{" + ",".join(str(i + 1) for i in range(k) if mask >> i & 1) + "}"

    masks = sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))
    covers = [(name(m), name(m | 1 << i)) for m in masks for i in range(k) if not m >> i & 1]
    return lk.as_lattice(lk.build_poset([name(m) for m in masks], covers))


def test_one_gate_refuses_the_limit_before_the_table_size():
    with pytest.raises(lk.SizeLimitExceeded, match="32768 elements, more than the limit 5"):
        lattice_module._check_limit(TABLE_LIMIT + 1, 5)
    with pytest.raises(lk.SizeLimitExceeded, match="at most 32767 elements .got 32768"):
        lattice_module._check_limit(TABLE_LIMIT + 1, TABLE_LIMIT + 1)
    lattice_module._check_limit(TABLE_LIMIT, TABLE_LIMIT)


class TestBooleanCatalog:
    @pytest.mark.parametrize("k", range(7))
    def test_matches_cover_list_construction(self, k):
        expected = reference_boolean_lattice(k)
        l = catalog.boolean_lattice(k)
        assert catalog.boolean_poset(k) == l.poset == expected.poset
        assert np.array_equal(l.meet, expected.meet) and np.array_equal(l.join, expected.join)
        assert (l.bottom, l.top) == (expected.bottom, expected.top)


# -- table verification against the pair scan it replaced -----------------------


def verify_outcome(check):
    """None when ``check()`` returns, else the NotALattice it raised as
    (pair, candidates, kind, message)."""
    try:
        check()
    except lk.NotALattice as exc:
        return exc.pair, exc.candidates, exc.kind, str(exc)
    return None


@st.composite
def corrupted_tables(draw, wide=False):
    """The order and tables of a catalog lattice, a J(P) or a product with
    M3 or N5 (with ``wide``, of a lattice in ``WIDE``), with up to three
    corruptions: a flipped order cell, a dropped
    a <= c over some a < b < c (with the pair's meet and join moved to
    common bounds that remain), an added b <= a over some a < b, and a meet
    or join entry overwritten on both sides of the diagonal or on one.  New
    entries are mostly bounds of their pair, so the bound checks often
    pass and the later ones decide."""
    if wide:
        l = WIDE[draw(st.sampled_from(sorted(WIDE)))]()
    else:
        name = draw(st.sampled_from([None, *sorted(CATALOG)]))
        l = draw(searched_lattices()) if name is None else CATALOG[name]()
    n = l.n
    leq, tables = l.leq.copy(), {"meet": l.meet.copy(), "join": l.join.copy()}
    element = st.integers(min_value=0, max_value=n - 1)

    def pick(rows):
        return rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]

    def bound(which, i, j):
        """A common bound of i and j, a bound of one of them, or any element."""
        above = leq if which == "join" else leq.T
        rows = draw(st.sampled_from([above[i] & above[j]] * 2 + [above[i], above[j], None]))
        found = np.nonzero(rows)[0] if rows is not None else []
        return pick(found) if len(found) else draw(element)

    kinds = ["flip", "transitivity", "antisymmetry"] + ["both", "one"] * 3
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(kinds))
        strict = leq & ~np.eye(n, dtype=bool)
        if kind == "flip":
            i, j = draw(element), draw(element)
            leq[i, j] = not leq[i, j]
        elif kind == "transitivity":
            steps = strict.astype(np.int32)
            spans = np.argwhere(strict & ((steps @ steps) > 0))
            if len(spans):
                a, c = pick(spans)
                leq[a, c] = False
                for which in ("meet", "join"):
                    value = bound(which, a, c)
                    tables[which][a, c] = tables[which][c, a] = value
        elif kind == "antisymmetry":
            pairs = np.argwhere(strict)
            if len(pairs):
                a, b = pick(pairs)
                leq[b, a] = True
        else:
            which = draw(st.sampled_from(["meet", "join"]))
            i, j = draw(element), draw(element)
            value = bound(which, i, j)
            tables[which][i, j] = value
            if kind == "both":
                tables[which][j, i] = value
    return lk.Poset(l.names, leq), tables["meet"], tables["join"]


class TestVerifyMatchesPairScan:
    @settings(max_examples=600, deadline=None)
    @given(corrupted_tables(), st.sampled_from(BLOCK_CELLS))
    def test_corrupted_tables(self, case, cells):
        poset, meet, join = case
        expected = verify_outcome(lambda: reference_verify(poset, meet, join))
        with table_blocks(cells):
            got = verify_outcome(lambda: lk.Lattice(poset, meet, join))
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(corrupted_tables(wide=True))
    def test_corrupted_wide_tables(self, case):
        poset, meet, join = case
        expected = verify_outcome(lambda: reference_verify(poset, meet, join))
        assert verify_outcome(lambda: lk.Lattice(poset, meet, join)) == expected

    def test_valid_lattices_skip_the_pair_scan(self, monkeypatch, case_n1_spec, case_n2_spec):
        scanned = []
        scan = lk.Lattice._scan_pairs

        def counted(l):
            scanned.append(l.n)
            return scan(l)

        monkeypatch.setattr(lk.Lattice, "_scan_pairs", counted)
        built = [make() for make in CATALOG.values()]
        built += [fd.generate_lattice(k, extended=e) for k in range(1, 5) for e in (False, True)]
        built += [lk.reconstruct(s, with_bounds=True).lattice for s in (case_n1_spec, case_n2_spec)]
        built += [lk.add_bounds(l, bottom="lo", top="hi") for l in built[:4]]
        built.append(catalog.boolean_lattice(8))
        assert len(built) == len(CATALOG) + 15 and scanned == []
        b4 = catalog.boolean_lattice(4)
        join = np.array(b4.join)
        join[1, 2] = join[2, 1] = b4.top_index  # an upper bound, not the least
        with pytest.raises(lk.NotALattice) as exc:
            lk.Lattice(b4.poset, b4.meet, join)
        assert exc.value.pair == (b4.names[1], b4.names[2]) and scanned == [16]

    @pytest.mark.parametrize("value", [-1, 8, 99])
    @pytest.mark.parametrize("which", ["meet", "join"])
    def test_entries_out_of_range(self, b3, value, which):
        tables = {"meet": np.array(b3.meet), "join": np.array(b3.join)}
        tables[which][1, 2] = value
        with pytest.raises(lk.NotALattice) as exc:
            lk.Lattice(b3.poset, tables["meet"], tables["join"])
        assert (exc.value.pair, exc.value.kind) == (("<table>", "<table>"), which)


def forbidden(*_):
    raise AssertionError("read while checking one-word rows")


def proved_without_covers(l):
    """Build ``l``'s tables on a fresh poset, then its derived lattices
    (bounds adjoined, dual, intervals), while the cover matrix, the
    cover-monotonicity proof and the pair scan all fail when reached."""
    with mock.patch.object(lk.Poset, "covers_matrix", property(forbidden)), mock.patch.multiple(
        lk.Lattice, _lattice_laws_hold=forbidden, _scan_pairs=forbidden
    ):
        fresh = lk.Lattice(lk.Poset(l.names, l.leq), l.meet, l.join)
        return [fresh, *derived_lattices(fresh)]


class TestIrreducibleRowsProof:
    """Lattices whose irreducibles fit one word are accepted by
    ``Lattice._irreducible_rows_prove`` alone; wider ones take the checks
    on covers."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        proved_without_covers(CATALOG[name]())

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_free_lattices(self, k, extended):
        proved_without_covers(fd.generate_lattice(k, extended=extended))

    @settings(max_examples=40, deadline=None)
    @given(searched_lattices())
    def test_ideals_and_products(self, l):
        for d in proved_without_covers(l):
            assert (d.bottom_index, d.top_index) == reference_bounds(d)

    def test_reconstructions(self, case_n1_spec, case_n2_spec):
        for spec in (case_n1_spec, case_n2_spec):
            proved_without_covers(lk.reconstruct(spec, with_bounds=True).lattice)

    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_wide_rows_take_the_cover_checks(self, name):
        l = WIDE[name]()
        checked = []
        laws = lk.Lattice._lattice_laws_hold

        def counted(self):
            checked.append(self.n)
            return laws(self)

        with mock.patch.object(lk.Lattice, "_lattice_laws_hold", counted):
            lk.Lattice(lk.Poset(l.names, l.leq), l.meet, l.join)
        assert checked == [l.n]

    @pytest.mark.parametrize("name", ["B4", "M3xN5"])
    def test_every_flipped_order_cell(self, name):
        """Each single flipped order cell is refused as the reference
        refuses it.  A pair added between two reducible elements leaves the
        irreducible rows and the tables as they were: only the half of (1)
        that takes a <= b to φ(a) ⊆ φ(b) refuses it."""
        l = CATALOG[name]()
        for i, j in np.ndindex(l.n, l.n):
            leq = l.leq.copy()
            leq[i, j] = not leq[i, j]
            poset = lk.Poset(l.names, leq)
            expected = verify_outcome(lambda: reference_verify(poset, l.meet, l.join))
            assert expected is not None
            assert verify_outcome(lambda: lk.Lattice(poset, l.meet, l.join)) == expected

    def test_wrong_tables_fall_back(self):
        b4 = catalog.boolean_lattice(4)
        a, b = b4.index("{1,2}"), b4.index("{1,3}")
        meet = np.array(b4.meet)
        meet[a, b] = meet[b, a] = b4.bottom_index  # a lower bound, not the greatest
        tables = SimpleNamespace(n=b4.n, poset=b4.poset, leq=b4.leq, meet=meet, join=b4.join)
        assert not lk.Lattice._irreducible_rows_prove(tables)
        with pytest.raises(lk.NotALattice) as exc:
            lk.Lattice(b4.poset, meet, b4.join)
        assert (exc.value.pair, exc.value.kind) == (("{1,2}", "{1,3}"), "meet")

    def test_scratch_memory_on_b10(self):
        l = catalog.boolean_lattice(10)
        tracemalloc.start()
        try:
            assert l._irreducible_rows_prove()
            l._verify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def covers_forbidden():
    return mock.patch.object(lk.Poset, "covers_matrix", property(forbidden))


def assert_read_without_covers(l):
    """On a fresh poset of ``l``'s order, with the cover matrix failing when
    reached, ``as_lattice`` gives the first-common-bound reference's
    tables, ``join_irreducibles`` the cover-based reference's, and both
    distributivity certificates pass exactly when their identity holds."""
    p = lk.Poset(l.names, l.leq)
    tables = tables_outcome(lambda: reference_first_bound_tables(p))
    irreducibles = [reference_join_irreducibles(l, bottom) for bottom in (False, True)]
    holds = [reference_distributive_identity_violation(l, dual) is None for dual in (False, True)]
    with covers_forbidden():
        fresh = lk.as_lattice(p)
        assert (fresh.meet.tobytes(), fresh.join.tobytes(), fresh.bottom_index, fresh.top_index) == tables
        assert [lk.join_irreducibles(fresh, bottom) for bottom in (False, True)] == irreducibles
        certificates = [properties._distributive_on_irreducibles(fresh, d) for d in (False, True)]
        assert certificates == holds


class TestIrreduciblesReadNoCovers:
    """``as_lattice``, ``join_irreducibles`` and both distributivity
    certificates read :attr:`Poset.irreducible_rows`, never the covers."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        assert_read_without_covers(CATALOG[name]())

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_free_lattices(self, k, extended):
        assert_read_without_covers(fd.generate_lattice(k, extended=extended))

    @settings(max_examples=40, deadline=None)
    @given(searched_lattices())
    def test_ideals_and_products(self, l):
        assert_read_without_covers(l)


# -- bounds and the degree criterion against the table fold and the dual --------


def assert_bounds_and_degree(l):
    """Bounds equal the table fold's; the degree criterion of ``is_modular``
    equals both upper semimodularities, l's and its dual's, and judging
    builds no dual."""
    assert (l.bottom_index, l.top_index) == reference_bounds(l)
    degree = lk.is_modular(l).criteria["degree"]
    assert "dual" not in vars(l)
    assert degree == reference_degree(l)


def derived_lattices(l):
    """``l`` with adjoined bounds, its dual, and its intervals from the
    bottom and to the top."""
    out = [
        lk.add_bounds(l, bottom="lo"),
        lk.add_bounds(l, top="hi"),
        lk.add_bounds(l, bottom="lo", top="hi"),
        l.dual,
    ]
    for x in l.names:
        out += [lk.interval_sublattice(l, l.bottom, x), lk.interval_sublattice(l, x, l.top)]
    return out


class TestBoundsAndDegreeMatchReferences:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        assert_bounds_and_degree(CATALOG[name]())

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_derived_from_catalog(self, name):
        for l in derived_lattices(CATALOG[name]()):
            assert_bounds_and_degree(l)

    @settings(max_examples=60, deadline=None)
    @given(searched_lattices())
    def test_searched_lattices(self, l):
        assert_bounds_and_degree(l)

    @settings(max_examples=60, deadline=None)
    @given(shuffled_posets())
    def test_ideals_of_random_posets(self, p):
        l = lk.ideals_lattice(p).lattice
        assert_bounds_and_degree(l)
        for d in (lk.add_bounds(l, bottom="lo", top="hi"), l.dual):
            assert_bounds_and_degree(d)

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_free_lattices(self, k, extended):
        assert_bounds_and_degree(fd.generate_lattice(k, extended=extended))

    def test_bounds_come_from_the_order(self, b3):
        l = lk.Lattice(b3.poset, b3.meet, b3.join)
        assert (l.bottom, l.top) == ("{}", "{1,2,3}")
        assert l.grading.degree == b3.grading.degree


class TestConstructorAloneVerifies:
    def test_dual_interval_and_large_ideals_lattice_verified_once(self, monkeypatch, b3):
        calls = []
        verify = lk.Lattice._verify

        def counted(l):
            calls.append(l.n)
            return verify(l)

        monkeypatch.setattr(lk.Lattice, "_verify", counted)
        lk.Lattice(b3.poset, b3.meet, b3.join).dual
        assert calls == [8, 8]
        lk.interval_sublattice(b3, "{}", "{1,2}")
        assert calls == [8, 8, 4]
        ideals = lk.ideals_lattice(catalog.antichain_poset(10)).lattice
        assert ideals.n == 1024 and calls == [8, 8, 4, 1024]

    @pytest.mark.parametrize(
        "names, covers, kind, candidates",
        [
            (["0", "x", "y"], [("0", "x"), ("0", "y")], "top", []),
            (["x", "y", "1"], [("x", "1"), ("y", "1")], "bottom", []),
            ([], [], "bottom", []),
        ],
    )
    def test_missing_bound_on_trusted_tables(self, monkeypatch, names, covers, kind, candidates):
        monkeypatch.setattr(lattice_module, "VERIFY_LIMIT", -1)
        p = lk.build_poset(names, covers)
        zeros = np.zeros((p.n, p.n), dtype=np.int16)
        with pytest.raises(lk.NotALattice) as exc:
            lk.Lattice(p, zeros, zeros)
        assert (exc.value.kind, exc.value.candidates) == (kind, candidates)
        assert exc.value.pair is None and str(exc.value) == f"no unique {kind}: candidates []"

    def test_two_bottoms_on_trusted_tables(self, monkeypatch):
        monkeypatch.setattr(lattice_module, "VERIFY_LIMIT", -1)
        p = lk.Poset(["a", "b"], np.ones((2, 2), dtype=bool))
        zeros = np.zeros((2, 2), dtype=np.int16)
        with pytest.raises(lk.NotALattice) as exc:
            lk.Lattice(p, zeros, zeros)
        assert (exc.value.kind, exc.value.candidates) == ("bottom", ["a", "b"])
        assert str(exc.value) == "no unique bottom: candidates ['a', 'b']"
