"""Brute-force enumeration and the joint statistic table."""

import math
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from oddcycles import enumerator, verify
from oddcycles.enumerator import count_only, iter_odd_drop_words, joint_table
from oddcycles.gentree import joint_poly
from oddcycles.polynomials import BiPoly
from oddcycles.recurrences import eo_poly, oo_poly
from reference import W, canonical, drops_by_definition, is_member_by_definition, stats_by_definition


def member_count(n: int) -> int:
    return math.factorial((n - 1) // 2) * math.factorial(n // 2)


@lru_cache(maxsize=None)
def members_by_definition(n: int) -> tuple[bytes, ...]:
    """Every tail of (1, ...) in lexicographic order, filtered by membership."""
    words = (W(1, *tail) for tail in permutations(range(2, n + 1)))
    return tuple(w for w in words if is_member_by_definition(w))


def records_by_definition(n: int) -> list[tuple[bytes, int, int]]:
    """The members in lexicographic order, each with its statistics by definition."""
    return [(w, *stats_by_definition(w)) for w in members_by_definition(n)]


def tally(words) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for w in words:
        key = stats_by_definition(w)
        out[key] = out.get(key, 0) + 1
    return out


def walk_with_finish(n: int, finish):
    """A second listing walk, words only: the real walk's exact prune, with
    a two-value finish where the real walk reads its memo of tails.
    finish(prev, low, high) says whether high then low completes a word
    whose last entry is prev."""
    stack = [(1, bytes(range(2, n + 1)), W(1))]
    while stack:
        prev, rest, word = stack.pop()
        if len(rest) <= 2:
            yield word + rest
            if len(rest) == 2 and finish(prev, *rest):
                yield word + rest[::-1]
            continue
        low = rest[0]
        if not low & 1:
            stack.append((low, rest[1:], word + rest[:1]))
            continue
        for i in range(len(rest) - 1, -1, -1):
            v = rest[i]
            if v < prev and not v & 1:
                continue
            stack.append((v, rest[:i] + rest[i + 1:], word + rest[i : i + 1]))


FINISH_RULES = {
    "real": lambda prev, low, high: low & 1 and (high > prev or high & 1),
    "always high-low": lambda prev, low, high: True,
    "never high-low": lambda prev, low, high: False,
}


def finish_matches_full_scan(rule: str) -> bool:
    return all(
        tuple(walk_with_finish(n, FINISH_RULES[rule])) == members_by_definition(n)
        for n in range(1, 10)
    )


class TestTwoValueFinish:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_test_walk_is_the_real_walk(self, n):
        words = walk_with_finish(n, FINISH_RULES["real"])
        assert [(w, *stats_by_definition(w)) for w in words] == list(iter_odd_drop_words(n))

    def test_real_rule_matches_the_full_scan(self):
        assert finish_matches_full_scan("real")

    @pytest.mark.parametrize("rule", ["always high-low", "never high-low"])
    def test_full_scan_catches_a_broken_rule(self, rule):
        assert not finish_matches_full_scan(rule)


class TestIteration:
    def test_smallest_levels(self):
        # the formal drop counts for neither statistic; (2, 1) is even-odd
        assert list(iter_odd_drop_words(1)) == [(W(1), 0, 0)]
        assert list(iter_odd_drop_words(2)) == [(W(1, 2), 0, 1)]
        assert list(iter_odd_drop_words(3)) == [(W(1, 2, 3), 1, 0)]

    def test_level_four(self):
        got = list(iter_odd_drop_words(4))
        assert got == [(W(1, 2, 3, 4), 0, 1), (W(1, 2, 4, 3), 1, 1)]

    def test_lexicographic_order(self):
        tails = [w[1:] for w, _, _ in iter_odd_drop_words(7)]
        assert tails == sorted(tails)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_match_closed_formula(self, n):
        assert sum(1 for _ in iter_odd_drop_words(n)) == member_count(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_pruned_walk_matches_full_scan(self, n):
        # every member once, in order, with the statistics of the definition
        assert list(iter_odd_drop_words(n)) == records_by_definition(n)

    def test_full_scan_catches_a_miscounted_wrap_drop(self):
        # negative control: a walk that scores the wrap drop (a_n, 1) as
        # odd-odd whatever a_n's parity lists the right words
        def wrap_as_odd_odd(n):
            for w, oo, eo in iter_odd_drop_words(n):
                yield (w, oo + 1, eo - 1) if n > 1 and not w[-1] & 1 else (w, oo, eo)

        wrong = [n for n in range(1, 10) if list(wrap_as_odd_odd(n)) != records_by_definition(n)]
        assert wrong == [2, 4, 5, 6, 7, 8, 9]

    @pytest.mark.parametrize("n", [10, 11])
    def test_walk_is_the_member_set_in_order(self, n):
        # beyond the full-scan reference: permutations of 1..n that start
        # with 1, strictly increasing (lex order, no repeats), all of them
        # members, as many as there are members
        records = list(iter_odd_drop_words(n))
        words = [w for w, _, _ in records]
        values = list(range(1, n + 1))
        assert all(w[0] == 1 and sorted(w) == values for w in words)
        assert all(a < b for a, b in zip(words, words[1:]))
        assert all(is_member_by_definition(w) for w in words)
        assert all((oo, eo) == stats_by_definition(w) for w, oo, eo in records)
        assert len(words) == member_count(n)

    def test_membership_of_output(self):
        for w, _, _ in iter_odd_drop_words(6):
            assert is_member_by_definition(w)

    def test_bounds(self):
        with pytest.raises(ValueError):
            list(iter_odd_drop_words(0))
        with pytest.raises(ValueError):
            list(iter_odd_drop_words(enumerator.MAX_N + 1))
        # the ceiling itself is accepted; the first word is the increasing one
        top = next(iter_odd_drop_words(enumerator.MAX_N))
        assert top[0] == bytes(range(1, enumerator.MAX_N + 1))

    @pytest.mark.parametrize("count", [
        joint_table,
        pytest.param(lambda n: count_only(joint_table(n), 1), id="count_even_odd_only"),
        pytest.param(lambda n: count_only(joint_table(n), 0), id="count_odd_odd_only"),
    ])
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
        shifts = enumerator._drop_shifts
        monkeypatch.setattr(enumerator, "_drop_shifts", lambda n, width: tuple(2 * s for s in shifts(n, width)))
        with pytest.raises(ValueError, match=r"stat pair \(0, 2\) exceeds bound 1 for n=2"):
            joint_table(2)
        with pytest.raises(ValueError):
            joint_table(0)

    def test_a_drop_onto_an_even_entry_fails(self, monkeypatch):
        # negative control: a step that lets any unused value follow, so a
        # drop may land on an even entry.  (1, 4, 3, 2) has three drops at
        # n = 4, which the bound refuses; at n = 3, where (1, 3, 2) counts,
        # table-vs-tree tells it apart (test_faults.py, table-drops-onto-even).
        monkeypatch.setattr(enumerator, "_successors", lambda prev, values: list(values))
        with pytest.raises(ValueError, match=r"exceeds bound 2 for n=4"):
            joint_table(4)


class TestJointTable:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_direct_tally(self, n):
        assert joint_table(n).terms == tally(members_by_definition(n))

    @pytest.mark.parametrize("n", [13, 14])
    def test_matches_tree_beyond_default_ceiling(self, n):
        # beyond the command line's default --max-n of 12, up to MAX_N
        assert joint_table(n) == joint_poly(n)

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
        assert count_only(joint_table(1), 1) == 0
        assert count_only(joint_table(1), 0) == 0

    @pytest.mark.parametrize(
        "n,expected",
        [(2, 1), (3, 0), (4, 1), (5, 0), (6, 3), (8, 17)],
    )
    def test_even_odd_only(self, n, expected):
        assert count_only(joint_table(n), 1) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(2, 0), (3, 1), (4, 0), (5, 2), (7, 8), (9, 56)],
    )
    def test_odd_odd_only(self, n, expected):
        assert count_only(joint_table(n), 0) == expected

    @pytest.mark.parametrize("n", range(2, 10))
    def test_counts_are_constant_terms(self, n):
        assert count_only(joint_table(n), 1) == oo_poly(n)(0)
        assert count_only(joint_table(n), 0) == eo_poly(n)(0)


# -- the walk's records against the definition --------------------------------


@lru_cache(maxsize=None)
def listed(n: int) -> dict[bytes, tuple[int, int]]:
    """The enumerator's records on [n], each word's pair by the word."""
    return {w: (oo, eo) for w, oo, eo in iter_odd_drop_words(n)}


def walk_stats(word: bytes) -> tuple[int, int] | None:
    """A member's statistics as the enumerator lists them, None for any other word."""
    return listed(len(word)).get(word)


class TestDrops:
    """The reference definition the property tests below rest on."""

    def test_increasing_cycle_has_only_wrap_drop(self):
        assert drops_by_definition(W(1, 2, 3, 4)) == [(4, 1)]

    def test_interior_and_wrap(self):
        assert drops_by_definition(W(1, 2, 4, 3)) == [(4, 3), (3, 1)]

    def test_singleton_formal_drop(self):
        # a formal drop onto 1 with a former entry of no parity
        assert drops_by_definition(W(1)) == [(None, 1)]
        assert stats_by_definition(W(1)) == (0, 0)
        assert is_member_by_definition(W(1))

    def test_every_longer_cycle_has_a_drop(self):
        assert len(drops_by_definition(W(1, 2))) >= 1


class TestMembership:
    """Membership as the enumerator lists it, with each member's statistics."""

    def test_singleton_qualifies(self):
        assert walk_stats(W(1)) == (0, 0)

    @pytest.mark.parametrize(
        "entries,member",
        [
            ((1, 2), True),
            ((1, 2, 3), True),
            ((1, 3, 2), False),
            ((1, 2, 4, 3), True),
            ((1, 4, 2, 3), False),
            ((1, 2, 3, 4), True),
        ],
    )
    def test_small_cases(self, entries, member):
        word = W(*entries)
        assert walk_stats(word) == (stats_by_definition(word) if member else None)


@st.composite
def cycle_words(draw):
    """A canonical word on [n], n = 1..12, written by ``canonical`` from some rotation.

    Half are shuffled words, nearly all of them non-members once n passes 4;
    half are members, grown by inserting each new maximum before an odd entry.
    """
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return canonical(draw(st.permutations(range(1, n + 1))))
    word = [1]
    for m in range(2, n + 1):
        word.insert(draw(st.sampled_from([i for i, v in enumerate(word) if v & 1])), m)
    shift = draw(st.integers(0, n - 1))
    return canonical(word[shift:] + word[:shift])


def membership_agrees(word: bytes, member_stats=walk_stats) -> bool:
    # the statistics of a member, None for any other word
    want = stats_by_definition(word) if is_member_by_definition(word) else None
    return member_stats(word) == want


NO_SHRINK = settings(max_examples=100, derandomize=True, database=None, phases=[Phase.generate])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cycle_words())
def test_membership_is_every_drop_landing_odd(word):
    assert membership_agrees(word)


def test_membership_property_catches_a_skipped_pair():
    def without_last_pair(word):
        # off by one: never looks at the pair (a_(n-1), a_n)
        oo = eo = 0
        prev = word[-1]
        for v in word[:-1]:
            if v < prev:
                if not v & 1:
                    return None
                oo += prev & 1
                eo += not prev & 1
            prev = v
        return oo, eo

    # raises NoSuchExample if the property cannot tell the broken walk apart
    find(cycle_words(), lambda w: not membership_agrees(w, without_last_pair), settings=NO_SHRINK)


def test_membership_property_catches_stats_for_a_non_member():
    # the statistics right for every word, but never None
    find(cycle_words(), lambda w: not membership_agrees(w, stats_by_definition), settings=NO_SHRINK)
