"""Brute-force enumeration and the joint statistic table."""

import math
from itertools import permutations

import pytest

from oddcycles import enumerator, verify
from oddcycles.cycles import drop_stats
from oddcycles.enumerator import (
    count_even_odd_only,
    count_odd_odd_only,
    iter_odd_drop_words,
    joint_table,
)
from oddcycles.gentree import joint_poly
from oddcycles.polynomials import BiPoly
from oddcycles.recurrences import eo_poly, oo_poly
from reference import is_member_by_definition


def member_count(n: int) -> int:
    return math.factorial((n - 1) // 2) * math.factorial(n // 2)


def members_by_definition(n: int) -> list[tuple[int, ...]]:
    """Every tail of (1, ...) in lexicographic order, filtered by membership."""
    words = ((1,) + tail for tail in permutations(range(2, n + 1)))
    return [w for w in words if is_member_by_definition(w)]


def tally(words, stats=drop_stats) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for w in words:
        key = stats(w)
        out[key] = out.get(key, 0) + 1
    return out


def table_without_wrap(n):
    """A broken joint table: it scores the wrap pair (a_n, 1) as no drop."""

    def stats(w):
        oo, eo = drop_stats(w)
        if len(w) == 1:
            return oo, eo
        return (oo - 1, eo) if w[-1] & 1 else (oo, eo - 1)

    return BiPoly(tally(members_by_definition(n), stats))


def walk_with_finish(n: int, finish):
    """The listing walk written out again with its two-value finish as a
    parameter: finish(prev, low, high) says whether high then low completes
    a word whose last entry is prev."""
    stack = [(1, tuple(range(2, n + 1)), (1,))]
    while stack:
        prev, rest, word = stack.pop()
        if len(rest) <= 2:
            yield word + rest
            if len(rest) == 2 and finish(prev, *rest):
                yield word + rest[::-1]
            continue
        low = rest[0]
        if not low & 1:
            stack.append((low, rest[1:], word + (low,)))
            continue
        for i in range(len(rest) - 1, -1, -1):
            v = rest[i]
            if v < prev and not v & 1:
                continue
            stack.append((v, rest[:i] + rest[i + 1:], word + (v,)))


FINISH_RULES = {
    "real": lambda prev, low, high: low & 1 and (high > prev or high & 1),
    "always high-low": lambda prev, low, high: True,
    "never high-low": lambda prev, low, high: False,
}


def finish_matches_full_scan(rule: str) -> bool:
    return all(
        list(walk_with_finish(n, FINISH_RULES[rule])) == members_by_definition(n)
        for n in range(1, 10)
    )


class TestTwoValueFinish:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_test_walk_is_the_real_walk(self, n):
        assert list(walk_with_finish(n, FINISH_RULES["real"])) == list(iter_odd_drop_words(n))

    def test_real_rule_matches_the_full_scan(self):
        assert finish_matches_full_scan("real")

    @pytest.mark.parametrize("rule", ["always high-low", "never high-low"])
    def test_full_scan_catches_a_broken_rule(self, rule):
        assert not finish_matches_full_scan(rule)


class TestIteration:
    def test_smallest_levels(self):
        assert list(iter_odd_drop_words(1)) == [(1,)]
        assert list(iter_odd_drop_words(2)) == [(1, 2)]
        assert list(iter_odd_drop_words(3)) == [(1, 2, 3)]

    def test_level_four(self):
        got = list(iter_odd_drop_words(4))
        assert got == [(1, 2, 3, 4), (1, 2, 4, 3)]

    def test_lexicographic_order(self):
        tails = [w[1:] for w in iter_odd_drop_words(7)]
        assert tails == sorted(tails)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_match_closed_formula(self, n):
        assert sum(1 for _ in iter_odd_drop_words(n)) == member_count(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_pruned_walk_matches_full_scan(self, n):
        assert list(iter_odd_drop_words(n)) == members_by_definition(n)

    @pytest.mark.parametrize("n", [10, 11])
    def test_walk_is_the_member_set_in_order(self, n):
        # beyond the full-scan reference: permutations of 1..n that start
        # with 1, strictly increasing (lex order, no repeats), all of them
        # members, as many as there are members
        words = list(iter_odd_drop_words(n))
        values = list(range(1, n + 1))
        assert all(w[0] == 1 and sorted(w) == values for w in words)
        assert all(a < b for a, b in zip(words, words[1:]))
        assert all(is_member_by_definition(w) for w in words)
        assert len(words) == member_count(n)

    def test_membership_of_output(self):
        for w in iter_odd_drop_words(6):
            assert is_member_by_definition(w)

    def test_bounds(self):
        with pytest.raises(ValueError):
            list(iter_odd_drop_words(0))
        with pytest.raises(ValueError):
            list(iter_odd_drop_words(enumerator.MAX_N + 1))
        # the ceiling itself is accepted; the first word is the increasing one
        top = next(iter_odd_drop_words(enumerator.MAX_N))
        assert top == tuple(range(1, enumerator.MAX_N + 1))

    @pytest.mark.parametrize("count", [joint_table, count_even_odd_only, count_odd_odd_only])
    def test_counts_stop_at_the_ceiling(self, count):
        with pytest.raises(ValueError, match=f"n must be in 1..{enumerator.MAX_N}, got 0"):
            count(0)
        with pytest.raises(ValueError, match=f"got {enumerator.MAX_N + 1}"):
            count(enumerator.MAX_N + 1)


class TestStatTable:
    def test_total_and_polynomial(self):
        t = joint_table(4)
        assert sum(t.terms.values()) == 2
        assert t == BiPoly({(0, 1): 1, (1, 1): 1})

    def test_known_table_five(self):
        t = joint_table(5)
        assert t.terms == {(1, 0): 1, (1, 1): 2, (2, 0): 1}

    def test_marginals(self):
        t = joint_table(6)
        assert t.marginal("x") == oo_poly(6)
        assert t.marginal("y") == eo_poly(6)

    def test_validation(self, monkeypatch):
        # negative control: oo + eo may never exceed the drop budget
        # ceil(n/2), so a step that scores every drop twice must trip it
        with_drop = enumerator._with_drop
        monkeypatch.setattr(
            enumerator, "_with_drop", lambda dist, former: with_drop(with_drop(dist, former), former)
        )
        with pytest.raises(ValueError, match="exceeds bound 1 for n=2"):
            joint_table(2)
        with pytest.raises(ValueError):
            joint_table(0)


class TestJointTable:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_direct_tally(self, n):
        assert joint_table(n).terms == tally(members_by_definition(n))

    @pytest.mark.parametrize("n", [13, 14])
    def test_matches_tree_beyond_default_ceiling(self, n):
        # beyond the command line's default --max-n of 12, up to MAX_N
        assert joint_table(n) == joint_poly(n)

    def test_oracle_suite_catches_a_broken_table(self, monkeypatch):
        # negative control: a table that scores the wrap pair (a_n, 1) as no
        # drop must fail table-vs-tree at its first differing coefficient;
        # max_n=6 keeps the permutation tally cheap in the checks that pass
        monkeypatch.setattr(enumerator, "joint_table", table_without_wrap)
        result = {c.name: c for c in verify.suite_oracle(max_n=6)}["table-vs-tree"]
        assert not result.passed
        assert result.detail == "n=2: x^0*y^0: 1 != 0"

    def test_genocchi_suite_catches_a_broken_table(self, monkeypatch):
        # the same table read through the counts, in a run of both suites
        monkeypatch.setattr(enumerator, "joint_table", table_without_wrap)
        checks = verify.run_suites("all", max_n=6, series_order=4)
        failed = {c.name: c.detail for c in checks if not c.passed}
        assert failed["table-vs-tree"] == "n=2: x^0*y^0: 1 != 0"
        assert failed["genocchi-vs-enumeration"] == "length 2: enumerated 0 != 1"
        assert failed["median-vs-enumeration"] == "length 3: enumerated 0 != 1"

    @pytest.mark.parametrize("n", range(1, 10))
    def test_total_is_member_count(self, n):
        assert sum(joint_table(n).terms.values()) == member_count(n)


class TestSharedTables:
    @pytest.fixture
    def built(self, monkeypatch):
        lengths = []

        def counted(n):
            lengths.append(n)
            return joint_table(n)

        monkeypatch.setattr(enumerator, "joint_table", counted)
        return lengths

    def test_a_verify_run_builds_each_table_once(self, built):
        # the oracle suite builds n = 1..8 and the genocchi suite's counts
        # read those tables
        checks = verify.run_suites("all", max_n=8, series_order=4)
        assert all(c.passed for c in checks)
        assert built == list(range(1, 9))

    def test_suites_run_apart_build_again(self, built):
        # negative control: outside one run the counts build their own tables
        verify.suite_oracle(8)
        verify.suite_genocchi(4, 8)
        assert built == list(range(1, 9)) + [2, 4, 6, 8, 3, 5, 7]


class TestParityRestrictedCounts:
    def test_length_one_has_no_pure_cycles(self):
        # the formal drop carries no parity, so the one-element cycle
        # counts toward neither restricted family
        assert count_even_odd_only(1) == 0
        assert count_odd_odd_only(1) == 0

    @pytest.mark.parametrize(
        "n,expected",
        [(2, 1), (3, 0), (4, 1), (5, 0), (6, 3), (8, 17)],
    )
    def test_even_odd_only(self, n, expected):
        assert count_even_odd_only(n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(2, 0), (3, 1), (4, 0), (5, 2), (7, 8), (9, 56)],
    )
    def test_odd_odd_only(self, n, expected):
        assert count_odd_odd_only(n) == expected

    @pytest.mark.parametrize("n", range(2, 10))
    def test_counts_are_constant_terms(self, n):
        assert count_even_odd_only(n) == oo_poly(n)(0)
        assert count_odd_odd_only(n) == eo_poly(n)(0)
