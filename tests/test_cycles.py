"""Canonical cycles, drops, and drop parity statistics."""

from functools import lru_cache

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from oddcycles.cycles import MAX_N, canonicalize, drop_stats
from oddcycles.enumerator import iter_odd_drop_words
from reference import W, drops_by_definition, is_member_by_definition, stats_by_definition


@lru_cache(maxsize=None)
def listed(n: int) -> dict[bytes, tuple[int, int]]:
    """The enumerator's records on [n], each word's pair by the word."""
    return {w: (oo, eo) for w, oo, eo in iter_odd_drop_words(n)}


def walk_stats(word: bytes) -> tuple[int, int] | None:
    """A member's statistics as the enumerator lists them, None for any other word."""
    return listed(len(word)).get(word)


class TestCanonicalize:
    def test_rotations_collapse(self):
        words = [(1, 4, 2, 3), (4, 2, 3, 1), (2, 3, 1, 4), (3, 1, 4, 2)]
        cycles = {canonicalize(w) for w in words}
        assert cycles == {W(1, 4, 2, 3)}

    def test_singleton(self):
        assert canonicalize([1]) == W(1)
        assert list(canonicalize((2, 1))) == [1, 2]

    def test_idempotent(self):
        c = canonicalize((3, 1, 2))
        assert canonicalize(c) == c

    @pytest.mark.parametrize(
        "bad",
        [(), (2,), (1, 1), (1, 3), (0, 1), (1, 2, 4), (2.0, 1), (True, 2), (3, 1.0, 2)],
    )
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(ValueError):
            canonicalize(bad)

    def test_length_bound(self):
        top = tuple(range(MAX_N, 0, -1))
        assert len(canonicalize(top)) == MAX_N
        with pytest.raises(ValueError, match=f"length {MAX_N + 1} exceeds the maximum {MAX_N}"):
            canonicalize(tuple(range(1, MAX_N + 2)))


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
        assert walk_stats(word) == (drop_stats(word) if member else None)


class TestStats:
    def test_singleton_counts_nothing(self):
        # the formal drop has no parity, so neither statistic moves
        assert drop_stats(W(1)) == (0, 0)

    @pytest.mark.parametrize(
        "entries,oo,eo",
        [
            ((1, 2), 0, 1),
            ((1, 2, 3), 1, 0),
            ((1, 2, 3, 4), 0, 1),
            ((1, 2, 4, 3), 1, 1),
            ((1, 2, 5, 4, 3), 1, 1),
            ((1, 2, 3, 4, 5), 1, 0),
        ],
    )
    def test_known_counts(self, entries, oo, eo):
        assert drop_stats(W(*entries)) == (oo, eo)

    def test_rotation_invariance(self):
        # the statistics live on the cycle, not on any particular word
        words = [(2, 5, 4, 3, 1), (5, 4, 3, 1, 2), (3, 1, 2, 5, 4)]
        stats = {drop_stats(canonicalize(w)) for w in words}
        assert len(stats) == 1


# -- the one-pass statistics against the definition ---------------------------


@st.composite
def cycles(draw):
    """A canonical word on [n], n = 1..12, read through canonicalize from some rotation.

    Half are shuffled words, nearly all of them non-members once n passes 4;
    half are members, grown by inserting each new maximum before an odd entry.
    """
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return canonicalize(draw(st.permutations(range(1, n + 1))))
    word = [1]
    for m in range(2, n + 1):
        word.insert(draw(st.sampled_from([i for i, v in enumerate(word) if v & 1])), m)
    shift = draw(st.integers(0, n - 1))
    return canonicalize(word[shift:] + word[:shift])


def stats_agree(word: bytes, stats=drop_stats) -> bool:
    return stats(word) == stats_by_definition(word)


def membership_agrees(word: bytes, member_stats=walk_stats) -> bool:
    # the statistics of a member, None for any other word
    want = stats_by_definition(word) if is_member_by_definition(word) else None
    return member_stats(word) == want


def rotations_agree(word: bytes, canon=canonicalize) -> bool:
    return all(canon(word[s:] + word[:s]) == word for s in range(len(word)))


_property = settings(max_examples=100, deadline=None, derandomize=True, database=None)
NO_SHRINK = settings(max_examples=100, derandomize=True, database=None, phases=[Phase.generate])


@_property
@given(cycles())
def test_drop_stats_is_the_tally_of_classified_drops(word):
    assert stats_agree(word)


@_property
@given(cycles())
def test_membership_is_every_drop_landing_odd(word):
    assert membership_agrees(word)


@_property
@given(cycles())
def test_canonicalize_is_rotation_invariant(word):
    assert rotations_agree(word)


def test_rotation_property_catches_a_reversal_on_odd_pivots():
    def reversed_on_odd_pivots(word):
        pivot = word.index(1)
        rotated = word[pivot:] + word[:pivot]
        if pivot & 1:
            rotated = rotated[:1] + rotated[:0:-1]
        return rotated

    find(cycles(), lambda c: not rotations_agree(c, reversed_on_odd_pivots), settings=NO_SHRINK)


def test_stats_property_catches_a_counted_even_even_drop():
    def even_even_as_even_odd(word):
        oo = eo = 0
        prev = word[-1]
        for v in word:
            if v < prev:
                if prev & 1:
                    oo += v & 1
                else:
                    eo += 1  # also counts a drop onto an even entry
            prev = v
        return oo, eo

    # raises NoSuchExample if the property cannot tell the broken tally apart
    find(cycles(), lambda c: not stats_agree(c, even_even_as_even_odd), settings=NO_SHRINK)


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

    find(cycles(), lambda c: not membership_agrees(c, without_last_pair), settings=NO_SHRINK)


def test_membership_property_catches_stats_for_a_non_member():
    # the statistics right for every word, but never None
    find(cycles(), lambda c: not membership_agrees(c, drop_stats), settings=NO_SHRINK)
