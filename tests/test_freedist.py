import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticekit as lk
import latticekit.freedist as fd

from conftest import (
    reference_dedekind_count,
    reference_monotone_function_count,
    reference_truth_table,
)


def tt_oracle(elem):
    """Independent truth table: evaluate the join-of-meets as Boolean logic
    over every assignment, without touching the clause algebra."""
    bits = 0
    for assign in range(1 << elem.n):
        truth = [bool(assign >> i & 1) for i in range(elem.n)]
        value = any(
            all(truth[i] for i in range(elem.n) if clause >> i & 1)
            for clause in elem.clauses
        )
        if value:
            bits |= 1 << assign
    return bits


@st.composite
def elements(draw, n=3, allow_bounds=False):
    if allow_bounds and draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return fd.bottom(n) if draw(st.booleans()) else fd.top(n)
    k = draw(st.integers(min_value=1, max_value=4))
    clauses = [
        draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
        for _ in range(k)
    ]
    return fd.from_clauses(n, clauses)


class TestOperations:
    def test_join_absorbs(self):
        a = fd.from_clauses(2, [[1]])
        b = fd.from_clauses(2, [[1, 2]])
        assert fd.fd_join(a, b) == a

    def test_meet_of_generators(self):
        a = fd.generator(2, 1)
        b = fd.generator(2, 2)
        assert fd.fd_meet(a, b) == fd.from_clauses(2, [[1, 2]])

    def test_meet_distributes(self):
        a = fd.from_clauses(3, [[1], [2]])
        b = fd.generator(3, 3)
        result = fd.fd_meet(a, b)
        assert result == fd.from_clauses(3, [[1, 3], [2, 3]])
        assert result.truth_table() == tt_oracle(a) & tt_oracle(b)

    def test_arity_mismatch(self):
        with pytest.raises(lk.ArityMismatch):
            fd.fd_join(fd.generator(2, 1), fd.generator(3, 1))

    def test_sentinel_algebra(self):
        x = fd.from_clauses(2, [[1]])
        assert fd.fd_join(fd.bottom(2), x) == x
        assert fd.fd_meet(fd.bottom(2), x) == fd.bottom(2)
        assert fd.fd_join(fd.top(2), x) == fd.top(2)
        assert fd.fd_meet(fd.top(2), x) == x

    def test_leq(self):
        assert fd.fd_leq(fd.from_clauses(2, [[1, 2]]), fd.generator(2, 1))
        assert not fd.fd_leq(fd.generator(2, 1), fd.generator(2, 2))


@settings(max_examples=150, deadline=None)
@given(elements(n=3, allow_bounds=True), elements(n=3, allow_bounds=True))
def test_join_meet_match_truth_tables(a, b):
    assert fd.fd_join(a, b).truth_table() == tt_oracle(a) | tt_oracle(b)
    assert fd.fd_meet(a, b).truth_table() == tt_oracle(a) & tt_oracle(b)


@settings(max_examples=80, deadline=None)
@given(elements(n=4), elements(n=4), elements(n=4))
def test_lattice_laws_random_n4(a, b, c):
    assert fd.fd_join(a, b) == fd.fd_join(b, a)
    assert fd.fd_meet(a, b) == fd.fd_meet(b, a)
    assert fd.fd_join(a, fd.fd_join(b, c)) == fd.fd_join(fd.fd_join(a, b), c)
    assert fd.fd_meet(a, fd.fd_meet(b, c)) == fd.fd_meet(fd.fd_meet(a, b), c)
    assert fd.fd_join(a, a) == a and fd.fd_meet(a, a) == a
    assert fd.fd_meet(a, fd.fd_join(a, b)) == a
    assert fd.fd_join(a, fd.fd_meet(a, b)) == a
    assert fd.fd_meet(a, fd.fd_join(b, c)) == fd.fd_join(
        fd.fd_meet(a, b), fd.fd_meet(a, c)
    )
    assert fd.fd_join(a, fd.fd_meet(b, c)) == fd.fd_meet(
        fd.fd_join(a, b), fd.fd_join(a, c)
    )


class TestGenerate:
    def test_one_generator_extended_is_three_chain(self):
        l = fd.generate_lattice(1, extended=True)
        assert l.n == 3
        assert l.names == ("0̂", "P1", "1̂")

    def test_counts(self):
        assert fd.generate_lattice(2).n == 4
        assert fd.generate_lattice(2, extended=True).n == 6
        assert fd.generate_lattice(3).n == 18
        assert fd.generate_lattice(3, extended=True).n == 20
        assert fd.generate_lattice(4).n == 166
        assert fd.generate_lattice(4, extended=True).n == 168

    def test_restricted_is_extended_minus_bounds(self):
        ext = fd.generate_lattice(3, extended=True)
        sub = lk.interval_sublattice(
            ext, "P1&P2&P3", "P1|P2|P3"
        )
        assert lk.lattice_isomorphic(sub, fd.generate_lattice(3)) is not None

    def test_extended_degree_is_two_to_the_n(self):
        for n in (1, 2, 3):
            l = fd.generate_lattice(n, extended=True)
            g = lk.grade(l)
            assert g.graded and g.degree[l.top] == 2**n

    def test_cap(self):
        with pytest.raises(lk.SizeLimitExceeded):
            fd.generate_lattice(6)

    @pytest.mark.parametrize("n", [0, -2])
    def test_no_generators(self, n):
        with pytest.raises(lk.InvalidArgument, match="at least one generator"):
            fd.generate_lattice(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("extended", [False, True])
def test_truth_tables_match_the_assignment_loop(n, extended):
    """Each clause's cached up-set, ORed, against every clause tested at
    every assignment."""
    for e in fd.enumerate_elements(n, extended):
        assert e.truth_table() == reference_truth_table(e)


class TestDedekind:
    def test_known_values(self):
        assert [fd.dedekind_count(n) for n in range(7)] == [
            2, 3, 6, 20, 168, 7581, 7828354,
        ]

    def test_matches_bruteforce_oracle(self):
        for n in range(5):
            assert fd.dedekind_count(n) == fd.monotone_function_count(n)

    def test_cap(self):
        with pytest.raises(lk.SizeLimitExceeded):
            fd.dedekind_count(7)

    def test_matches_ideal_count_of_boolean_poset(self):
        from latticekit.catalog import boolean_poset

        for n in range(5):
            ideals = lk.order_ideals(boolean_poset(n))
            assert fd.dedekind_count(n) == len(ideals)

    def test_negative_n(self):
        with pytest.raises(lk.InvalidArgument, match="got n=-1"):
            fd.dedekind_count(-1)
        with pytest.raises(ValueError):  # callers catching ValueError keep working
            fd.dedekind_count(-1)

    def test_matches_antichain_dfs(self):
        for n in range(7):
            assert fd.dedekind_count(n) == reference_dedekind_count(n)

    def test_bruteforce_oracle_matches_pair_loop(self):
        for n in range(5):
            assert fd.monotone_function_count(n) == reference_monotone_function_count(n)

    def test_comparable_pairs_count_the_next_rank(self):
        # f in M(n) splits into f0 <= f1 in M(n - 1)
        for n in range(1, 6):
            elements = fd.enumerate_elements(n - 1, extended=True)
            pairs = sum(fd.fd_leq(x, y) for x in elements for y in elements)
            assert pairs == fd._interval_counts(n - 1)[1] == reference_dedekind_count(n)

    def test_counts_from_the_order_two_ranks_down(self, monkeypatch):
        seen = []
        enumerate_elements = fd.enumerate_elements

        def spy(n, extended=False):
            seen.append((n, extended))
            assert n <= 4, f"M({n}) enumerated"
            return enumerate_elements(n, extended)

        monkeypatch.setattr(fd, "enumerate_elements", spy)
        assert fd.dedekind_count(6) == 7828354
        assert seen == [(4, True)]

    def test_oracle_disagreement_raises(self, monkeypatch):
        # an exception, not an assert: this also holds under python -O
        monkeypatch.setattr(fd, "monotone_function_count", lambda n: -1)
        with pytest.raises(lk.InvariantViolation, match="oracle -1"):
            fd.dedekind_count(3)
        assert fd.dedekind_count(5) == 7581  # past n = 4 the oracle is not run


class TestParse:
    def test_meet_over_join(self):
        assert fd.clause_set_str(fd.parse_dnf("P1 & (P2 | P3)")) == "{1,2}|{1,3}"

    def test_absorption(self):
        assert fd.clause_set_str(fd.parse_dnf("P1 | (P1 & P2)")) == "{1}"

    def test_precedence(self):
        assert fd.parse_dnf("P1|P2&P3") == fd.from_clauses(3, [[1], [2, 3]])

    def test_dangling_operator(self):
        with pytest.raises(lk.DnfSyntaxError) as exc:
            fd.parse_dnf("P1 &")
        assert exc.value.position == 4

    def test_unbalanced_paren(self):
        with pytest.raises(lk.DnfSyntaxError):
            fd.parse_dnf("(P1 | P2")

    def test_empty(self):
        with pytest.raises(lk.DnfSyntaxError):
            fd.parse_dnf("   ")

    def test_bad_character(self):
        with pytest.raises(lk.DnfSyntaxError) as exc:
            fd.parse_dnf("P1 + P2")
        assert exc.value.position == 3

    def test_unknown_variable(self):
        with pytest.raises(lk.UnknownVariable):
            fd.parse_dnf("Q1 | P2")
        with pytest.raises(lk.UnknownVariable):
            fd.parse_dnf("P4", n=3)
        with pytest.raises(lk.UnknownVariable):
            fd.parse_dnf("P10")  # grammar stops at P9

    def test_declared_arity(self):
        assert fd.parse_dnf("P1", n=3) == fd.generator(3, 1)

    def test_roundtrip_all_of_free3(self):
        for e in fd.enumerate_elements(3):
            assert fd.parse_dnf(fd.render(e), n=3) == e

    def test_two_spellings_same_canonical_form(self):
        a = fd.parse_dnf("(P2|P3) & P1")
        b = fd.parse_dnf("P1&P3 | P2&P1")
        assert a == b


class TestSelfDualAndMeets:
    def test_self_dual_small(self):
        for n in (1, 2, 3):
            iso = lk.check_self_dual(n)
            assert iso is not None

    def test_self_dual_cap(self):
        with pytest.raises(lk.SizeLimitExceeded):
            lk.check_self_dual(5)

    def test_self_dual_failure_raises(self, monkeypatch):
        import latticekit.birkhoff as birkhoff

        monkeypatch.setattr(birkhoff, "lattice_isomorphic", lambda a, b: None)
        with pytest.raises(lk.InvariantViolation, match="not self-dual"):
            lk.check_self_dual(2)

    def test_meets_distinct(self):
        for n in (2, 3):
            rep = lk.meets_distinct(n)
            assert rep.ok
            assert len(rep.meets) == 2**n - 1
            assert len(rep.irreducible_names) == 2**n - 1

    def test_box_collapses_meets(self, b3):
        # the same meets stop being distinct after evaluation in the box
        assign = {1: "{1}", 2: "{2}", 3: "{3}"}
        values = {
            lk.evaluate_in_lattice(m, b3, assign)
            for m in lk.meets_distinct(3).meets
        }
        assert len(values) < 7


@settings(max_examples=100, deadline=None)
@given(elements(n=4))
def test_canonical_form_is_idempotent(e):
    again = fd.from_clauses(
        4, [[i + 1 for i in range(4) if c >> i & 1] for c in e.clauses]
    )
    assert again == e
    assert fd.parse_dnf(fd.render(e), n=4) == e
