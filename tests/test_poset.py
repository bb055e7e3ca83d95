import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticekit as lk
from latticekit import catalog
from latticekit.poset import (
    DEFAULT_ISO_CAP,
    RedundantCoverWarning,
    _c_ordered_copy,
    _colored_isomorphism,
    _narrow_words,
    _pack_rows,
    _row_blocks,
    _subset_blocks,
)

from conftest import (
    BLOCK_CELLS,
    assert_order_isomorphism,
    assert_reference_covers,
    reference_covers,
    reference_is_isomorphic,
    row_ints,
    table_blocks,
)

PENTAGON_COVERS = [("0", "a"), ("a", "1"), ("0", "c"), ("c", "b"), ("b", "1")]


def reachable_up(covers, start):
    """Independent oracle: brute-force closure over cover pairs."""
    out = {start}
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            if a in out and b not in out:
                out.add(b)
                changed = True
    return out


class TestBuild:
    def test_three_chain(self):
        p = lk.build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")])
        assert p.le("0", "1") and p.le("0", "a") and not p.le("1", "0")
        assert p.cover_names() == [("0", "a"), ("a", "1")]

    def test_pentagon(self):
        p = lk.build_poset(["0", "a", "b", "c", "1"], PENTAGON_COVERS)
        assert sorted(p.cover_names()) == sorted(PENTAGON_COVERS)
        assert p.le("0", "b") and not p.le("a", "b")

    def test_two_cycle(self):
        with pytest.raises(lk.CycleDetected):
            lk.build_poset(["x", "y"], [("x", "y"), ("y", "x")])

    def test_self_loop(self):
        with pytest.raises(lk.CycleDetected):
            lk.build_poset(["x"], [("x", "x")])

    def test_longer_cycle(self):
        with pytest.raises(lk.CycleDetected) as exc:
            lk.build_poset(list("abc"), [("a", "b"), ("b", "c"), ("c", "a")])
        assert len(exc.value.cycle) >= 3

    def test_cycle_below_the_least_element(self):
        # "a" is left unplaced, above the cycle, and reaches no cycle itself
        with pytest.raises(lk.CycleDetected) as exc:
            lk.build_poset(["a", "x", "y"], [("x", "a"), ("x", "y"), ("y", "x")])
        assert exc.value.cycle == ["x", "y", "x"]

    def test_unknown_endpoint(self):
        with pytest.raises(lk.UnknownElement):
            lk.build_poset(["x"], [("x", "zz")])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            lk.build_poset(["x", "x"], [])

    def test_redundant_pair_dropped_with_warning(self):
        with pytest.warns(RedundantCoverWarning):
            p = lk.build_poset(
                ["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "1")]
            )
        assert p.cover_names() == [("0", "a"), ("a", "1")]


class TestDownSet:
    def test_chain(self):
        p = lk.build_poset(["0", "a", "1"], [("0", "a"), ("a", "1")])
        assert lk.down_set(p, "a") == {"0", "a"}

    def test_boolean(self):
        p = catalog.boolean_poset(3)
        assert lk.down_set(p, "{1,2}") == {"{}", "{1}", "{2}", "{1,2}"}

    def test_pentagon_matches_bruteforce(self):
        p = lk.build_poset(["0", "a", "b", "c", "1"], PENTAGON_COVERS)
        down = {(b, a) for a, b in PENTAGON_COVERS}
        expected = reachable_up(down, "b") | {"b"}
        assert lk.down_set(p, "b") == expected == {"0", "c", "b"}

    def test_unknown(self):
        p = catalog.antichain_poset(2)
        with pytest.raises(lk.UnknownElement):
            lk.down_set(p, "nope")

    def test_down_set_is_ideal(self):
        p = catalog.boolean_poset(3)
        for x in p.names:
            ideal = lk.down_set(p, x)
            for y in ideal:
                assert lk.down_set(p, y) <= ideal


class TestOrderIdeals:
    def test_antichain_counts(self):
        for n in range(5):
            assert len(lk.order_ideals(catalog.antichain_poset(n))) == 2**n

    def test_chain_counts(self):
        for n in range(1, 6):
            assert len(lk.order_ideals(catalog.chain_poset(n))) == n + 2

    def test_boolean_poset_has_twenty(self):
        assert len(lk.order_ideals(catalog.boolean_poset(3))) == 20

    def test_includes_empty_and_full(self):
        p = catalog.boolean_poset(2)
        ideals = lk.order_ideals(p)
        assert frozenset() in ideals and frozenset(p.names) in ideals

    def test_deterministic(self):
        p = catalog.boolean_poset(3)
        assert lk.order_ideals(p) == lk.order_ideals(p)

    def test_cap(self):
        with pytest.raises(lk.SizeLimitExceeded):
            lk.order_ideals(catalog.boolean_poset(3), cap=5)


class TestDual:
    def test_involution(self):
        p = lk.build_poset(["0", "a", "b", "c", "1"], PENTAGON_COVERS)
        q = lk.dual_poset(lk.dual_poset(p))
        assert q.names == p.names and np.array_equal(q.leq, p.leq)

    def test_chain_self_dual(self):
        p = catalog.chain_poset(2)
        assert lk.is_isomorphic(p, lk.dual_poset(p)) is not None

    def test_pentagon_self_dual(self):
        p = lk.build_poset(["0", "a", "b", "c", "1"], PENTAGON_COVERS)
        assert lk.is_isomorphic(lk.dual_poset(p), p) is not None

    def test_kite_dual_pair(self):
        posets = catalog.three_element_posets()
        assert (
            lk.is_isomorphic(lk.dual_poset(posets["vee"]), posets["wedge"])
            is not None
        )


class TestIsomorphism:
    def test_identity_on_self(self):
        p = catalog.boolean_poset(3)
        assert lk.is_isomorphic(p, p) == {x: x for x in p.names}

    def test_pentagon_vs_diamond(self):
        assert (
            lk.is_isomorphic(catalog.pentagon_poset(), catalog.diamond_poset())
            is None
        )

    def test_mapping_preserves_order_both_ways(self):
        p = catalog.boolean_poset(2)
        q = lk.build_poset(
            ["w", "x", "y", "z"], [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")]
        )
        iso = lk.is_isomorphic(p, q)
        assert iso is not None
        for a in p.names:
            for b in p.names:
                assert p.le(a, b) == q.le(iso[a], iso[b])

    def test_divisor_roundtrip(self, d12):
        p = lk.irreducible_poset(d12)
        jl = lk.ideals_lattice(p).lattice
        assert lk.is_isomorphic(jl.poset, d12.poset) is not None

    def test_size_cap(self):
        p = catalog.antichain_poset(4)
        with pytest.raises(lk.SizeLimitExceeded):
            lk.is_isomorphic(p, p, limit=3)

    def test_different_sizes(self):
        assert lk.is_isomorphic(catalog.chain_poset(2), catalog.chain_poset(3)) is None


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    names = [f"e{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((names[i], names[j]))  # i < j keeps it acyclic
    return lk.build_poset(names, pairs, warn_redundant=False)


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_rebuild_from_covers_is_identity(p):
    q = lk.build_poset(p.names, p.cover_names(), warn_redundant=False)
    assert np.array_equal(q.leq, p.leq)
    assert q.cover_names() == p.cover_names()


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_dual_involution_random(p):
    q = lk.dual_poset(lk.dual_poset(p))
    assert q.names == p.names and np.array_equal(q.leq, p.leq)


@settings(max_examples=40, deadline=None)
@given(random_posets(), st.randoms(use_true_random=False))
def test_isomorphism_found_after_relabeling(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    names = [f"r{k}" for k in range(p.n)]
    shuffled = lk.build_poset(
        [names[perm[i]] for i in range(p.n)],
        [(names[perm[a]], names[perm[b]]) for a, b in p.cover_pairs],
        warn_redundant=False,
    )
    iso = lk.is_isomorphic(p, shuffled)
    assert iso is not None
    for a in p.names:
        for b in p.names:
            assert p.le(a, b) == shuffled.le(iso[a], iso[b])


def relabelled(p, rng):
    """``p`` with its elements renamed and listed in a shuffled order."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    names = [f"r{k}" for k in range(p.n)]
    return lk.build_poset(
        [names[perm[i]] for i in range(p.n)],
        [(names[perm[a]], names[perm[b]]) for a, b in p.cover_pairs],
        warn_redundant=False,
    )


class TestIsomorphismSearch:
    """The stack-based search returns the recursive search's maps, reaches
    its own cap, and keeps the initial colours it is given."""

    @settings(max_examples=80, deadline=None)
    @given(random_posets(), random_posets(), st.randoms(use_true_random=False))
    @example(catalog.boolean_poset(3), catalog.boolean_poset(2), random.Random(3))
    def test_same_map_as_the_recursive_search(self, p, other, rng):
        for q in (p, relabelled(p, rng), lk.dual_poset(p), other):
            iso = lk.is_isomorphic(p, q)
            assert iso == reference_is_isomorphic(p, q)
            if iso is not None:
                assert_order_isomorphism(iso, p, q)

    def test_chain_at_the_cap(self):
        # the recursive search ran out of stack at about 975 elements
        p = catalog.chain_poset(DEFAULT_ISO_CAP - 1)
        q = relabelled(p, random.Random(0))
        assert p.n == DEFAULT_ISO_CAP
        assert_order_isomorphism(lk.is_isomorphic(p, q), p, q)

    def test_colors_are_kept(self):
        # equal posets whose two colours are swapped: the by-name map breaks them
        pair = lk.build_poset(["x", "y"], [])
        assert _colored_isomorphism(pair, pair, [1, 2], [1, 2]) == [0, 1]
        assert _colored_isomorphism(pair, pair, [1, 2], [2, 1]) == [1, 0]
        chain = lk.build_poset(["x", "y"], [("x", "y")])
        assert _colored_isomorphism(chain, chain, [1, 2], [2, 1]) is None
        # three kinds on a 4-element chain, four colours on a 2 + 2 crown
        p = lk.build_poset(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d")])
        assert _colored_isomorphism(p, p, [2, 3, 3, 1], [2, 3, 3, 1]) == [0, 1, 2, 3]
        assert _colored_isomorphism(p, p, [2, 3, 3, 1], [1, 3, 3, 2]) is None
        crown = lk.build_poset(list("abcd"), [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        assert _colored_isomorphism(crown, crown, [1, 2, 3, 4], [2, 1, 4, 3]) == [1, 0, 3, 2]
        assert _colored_isomorphism(crown, crown, [1, 2, 3, 4], [3, 4, 1, 2]) is None


def test_isomorphism_of_renamed_boolean_poset():
    # highly symmetric case: many automorphisms, search must still exit fast
    p = catalog.boolean_poset(4)
    rename = {x: f"v{i}" for i, x in enumerate(sorted(p.names, key=lambda s: s[::-1]))}
    q = lk.build_poset(
        [rename[x] for x in p.names],
        [(rename[a], rename[b]) for a, b in p.cover_names()],
        warn_redundant=False,
    )
    iso = lk.is_isomorphic(p, q)
    assert iso is not None
    for a in p.names:
        for b in p.names:
            assert p.le(a, b) == q.le(iso[a], iso[b])


@settings(max_examples=40, deadline=None)
@given(random_posets())
def test_ideals_are_downward_closed(p):
    for ideal in lk.order_ideals(p):
        for x in ideal:
            assert lk.down_set(p, x) <= ideal


@st.composite
def cover_lists(draw):
    """Up to 20 elements, so packed rows span one to three bytes, listed
    in a random order, with random covers from lower to higher e-number."""
    n = draw(st.integers(min_value=0, max_value=20))
    names = [f"e{i}" for i in draw(st.permutations(range(n)))]
    pairs = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=3 * n))
    return names, [(f"e{a}", f"e{b}") for a, b in pairs if a < b < n]


@settings(max_examples=80, deadline=None)
@given(cover_lists())
def test_closure_and_masks_match_bruteforce(case):
    names, covers = case
    p = lk.build_poset(names, covers, warn_redundant=False)
    for i, x in enumerate(names):
        up = reachable_up(covers, x)
        assert {names[j] for j in np.nonzero(p.leq[i])[0]} == up
        assert row_ints(_pack_rows(p.leq))[i] == sum(1 << names.index(y) for y in up)
        assert row_ints(_pack_rows(p.leq.T))[i] == sum(
            1 << j for j in range(len(names)) if p.leq[j, i]
        )


@st.composite
def listed_pairs(draw):
    """Names in a random order and a shuffled pair list over up to 90
    elements (two-word rows past 64): the pairs i < j of a random DAG, many
    of them implied by others, with some listed twice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=90))
    density = draw(st.sampled_from([0.02, 0.1, 0.4]))
    lower, upper = np.nonzero(np.triu(rng.random((n, n)) < density, 1))
    pairs = list(zip(lower.tolist(), upper.tolist()))
    if pairs:
        pairs += [pairs[k] for k in rng.integers(0, len(pairs), size=len(pairs) // 4)]
    rng.shuffle(pairs)
    names = [f"e{k}" for k in rng.permutation(n)]
    return names, [(names[a], names[b]) for a, b in pairs]


class TestCoversFromListedPairs:
    """build_poset reads the covers off its pairs, not off a matmul."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(listed_pairs(), random_posets().map(lambda p: (list(p.names), p.cover_names()))),
        st.sampled_from(BLOCK_CELLS),
    )
    def test_match_the_matmul_and_its_warnings(self, case, cells):
        names, covers = case
        with warnings.catch_warnings(record=True) as caught, table_blocks(cells):
            warnings.simplefilter("always")
            p = lk.build_poset(names, covers)
        assert_reference_covers(p)
        reference = lk.Poset(p.names, p.leq)  # built from leq: the bare-order rule
        assert_reference_covers(reference)
        for q in (p, reference):  # (lower, upper) ascending
            assert list(q.cover_pairs) == sorted(map(tuple, np.argwhere(reference_covers(q)).tolist()))
        # the warnings the reference's reduction gives: dropped pairs by index
        reduction = set(map(tuple, np.argwhere(reference_covers(p)).tolist()))
        pairs = {(p.index(a), p.index(b)) for a, b in covers}
        expected = [
            f"redundant cover pair ({names[a]!r}, {names[b]!r}) dropped"
            for a, b in sorted(pairs - reduction)
        ]
        assert [str(w.message) for w in caught] == expected
        assert all(w.category is RedundantCoverWarning for w in caught)

    @pytest.mark.parametrize("warn", [True, False])
    def test_set_at_build_time(self, warn):
        covers = [("0", "a"), ("a", "1"), ("0", "1")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RedundantCoverWarning)
            p = lk.build_poset(["0", "a", "1"], covers, warn_redundant=warn)
        assert "cover_arrays" in vars(p)  # the bare-order rule never ran
        assert p.cover_names() == [("0", "a"), ("a", "1")]


@pytest.mark.parametrize("shape", [(0, 0), (1, 7), (7, 1), (255, 257), (300, 520)])
def test_transposed_views_copied_in_tiles(shape):
    """A transposed view is copied tile by tile into C order, equal to the
    view; Poset and _pack_rows take such views."""
    a = np.random.default_rng(sum(shape)).random(shape) < 0.4
    for view in (a.T, a[::2].T, a):
        copy = _c_ordered_copy(view)
        assert copy.flags.c_contiguous and np.array_equal(copy, view)
        assert np.array_equal(_pack_rows(view), _pack_rows(np.ascontiguousarray(view)))
    if shape[0] == shape[1]:
        p = lk.Poset([str(i) for i in range(shape[0])], a.T)
        assert p.leq.flags.c_contiguous and np.array_equal(p.leq, a.T)


def reference_subsets(rows):
    """``inside[i, j]``: packed row i is a subset of row j, on uint64 words."""
    return ~(rows[:, None] & ~rows[None]).any(axis=2)


@pytest.mark.parametrize("cells", BLOCK_CELLS)
@pytest.mark.parametrize("width", [8, 9, 16, 17, 32, 33, 64])
def test_subset_blocks_at_each_narrow_width(width, cells):
    """One-word rows of ``width`` bits, tested on their narrowest dtype,
    give the uint64 reference's subsets, in every row block or in those
    holding a wanted row.
    The rows include the empty row, the full row (bit 63 at width 64) and
    intersections of random rows, so that many pairs are subsets."""
    rng = np.random.default_rng(width)
    full = (1 << width) - 1
    words = [int(w) & full for w in rng.integers(0, 2**64, size=40, dtype=np.uint64)]
    words += [a & b for a, b in zip(words, words[1:])] + [0, full, 1 << (width - 1)]
    rows = np.array(words, dtype=np.uint64)[:, None]
    narrow = _narrow_words(rows)
    assert narrow.shape == (len(rows),) and narrow.dtype == np.min_scalar_type(full)
    assert _narrow_words(narrow) is narrow
    expected = reference_subsets(rows)
    wanted = np.zeros(len(rows), dtype=bool)
    wanted[rng.permutation(len(rows))[:3]] = True
    with table_blocks(cells):
        for flags in (None, wanted):
            got = list(_subset_blocks(rows, flags))
            blocks = _row_blocks(len(rows), len(rows))
            assert [block for block, _ in got] == [b for b in blocks if flags is None or flags[b].any()]
            for block, inside in got:
                assert np.array_equal(inside, expected[block])


def test_subset_blocks_on_two_words_unchanged():
    rng = np.random.default_rng(2)
    rows = rng.integers(0, 2**64, size=(30, 2), dtype=np.uint64)
    rows = np.concatenate([rows, rows[:-1] & rows[1:], np.zeros((1, 2), dtype=np.uint64)])
    assert _narrow_words(rows) is rows
    got = np.concatenate([inside for _, inside in _subset_blocks(rows)])
    assert np.array_equal(got, reference_subsets(rows))
