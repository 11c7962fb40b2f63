"""Growth by maximum insertion and the bivariate transfer steps."""

import tracemalloc

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from oddcycles import enumerator, gentree, verify
from oddcycles.enumerator import iter_odd_drop_words, joint_table
from oddcycles.gentree import _word_delta, children_count, joint_poly
from oddcycles.polynomials import BigPoly, BiPoly
from oddcycles.recurrences import eo_poly, oo_poly
from reference import (
    W,
    at_one_plus,
    canonical,
    delete_max,
    is_member_by_definition,
    joint_step_by_definition,
    marginal_step_by_definition,
    stats_by_definition,
)


def insert_max(word: bytes, pos: int) -> bytes:
    """The next maximum put just before word[pos] in the cyclic order."""
    return canonical([len(word) + 1, *word[pos:], *word[:pos]])


def children(word: bytes) -> list[bytes]:
    """The paper's children of word, by inserting the next maximum just before
    each odd entry, in listing order; independent of the listing walk."""
    return sorted(insert_max(word, pos) for pos, entry in enumerate(word) if entry & 1)


class TestChildren:
    def test_root_child(self):
        assert children(W(1)) == [W(1, 2)]

    def test_two_cycle_child(self):
        # inserting 3 before the even entry 2 would create the drop (3, 2),
        # so the only insertion spot is before the leading 1, i.e. appending
        assert children(W(1, 2)) == [W(1, 2, 3)]

    def test_three_cycle_children(self):
        assert children(W(1, 2, 3)) == [W(1, 2, 3, 4), W(1, 2, 4, 3)]

    def test_positions_are_odd_entries(self):
        # the entry after the maximum: the leading 1 once it is appended
        assert [delete_max(kid)[2] for kid in children(W(1, 2, 4, 3))] == [1, 3]

    def test_child_at_append_and_split(self):
        assert delete_max(W(1, 2, 4, 3, 5)) == (W(1, 2, 4, 3), 3, 1)
        assert delete_max(W(1, 2, 4, 5, 3)) == (W(1, 2, 4, 3), 4, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_children_stay_members_and_count(self, n):
        for parent, _, _ in iter_odd_drop_words(n):
            kids = children(parent)
            assert len(set(kids)) == children_count(n)
            for kid in kids:
                assert len(kid) == n + 1
                assert is_member_by_definition(kid)
            # before an even entry the maximum drops onto it: no member
            for pos, entry in enumerate(parent):
                if not entry & 1:
                    assert not is_member_by_definition(insert_max(parent, pos))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 11])
    def test_children_count_value(self, n):
        # every odd entry is an insertion spot and nothing else is
        assert children_count(n) == (n + 1) // 2


class TestPartition:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_levels_partition_next_level(self, n):
        # every member on [n+1] deletes to a member on [n] with the maximum
        # before an odd entry, no two before the same entry of the same
        # member, and every such spot is hit
        level = {w for w, _, _ in iter_odd_drop_words(n)}
        kids = [kid for kid, _, _ in iter_odd_drop_words(n + 1)]
        spots = [(parent, latter) for parent, _, latter in map(delete_max, kids)]
        assert all(parent in level and latter & 1 for parent, latter in spots)
        assert len(set(spots)) == len(spots) == len(level) * children_count(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_delta_predicts_statistics(self, n):
        for kid, _, _ in iter_odd_drop_words(n + 1):
            parent, former, latter = delete_max(kid)
            oo, eo = stats_by_definition(parent)
            doo, deo = _word_delta(former, latter, n + 1)
            assert stats_by_definition(kid) == (oo + doo, eo + deo)

    def test_tree_partition_holds_one_level(self):
        # the oracle suite at n = 11 with its joint tables built beforehand
        # peaks at about 1.1 MiB.  Growing the next level beside the last, or
        # holding a grown level while the walk lists it, peaks at about 2.2 MiB.
        tables = verify.JointTables()
        for n in range(1, 12):
            tables[n]
        tracemalloc.start()
        try:
            results = verify.suite_oracle(11, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
        assert peak < 3 * 2**19

    def test_delta_cases_cover_all_six(self):
        seen = set()
        for n in range(1, 8):
            for kid, _, _ in iter_odd_drop_words(n + 1):
                seen.add(((n + 1) & 1, _word_delta(*delete_max(kid)[1:], n + 1)))
        assert seen == {
            (1, (1, 0)),
            (1, (0, 0)),
            (1, (1, -1)),
            (0, (0, 1)),
            (0, (-1, 1)),
            (0, (0, 0)),
        }


# slot width of the step tests: their terms stay far below 2^127
WIDTH = 128


def shells_of(poly: BiPoly, n: int) -> list[int]:
    """F(a, b) = poly(1+a, 1+b) packed as the walk holds it: shell d packs the
    coefficient of a^i*b^(d-i) at bit WIDTH*i, for d up to n or beyond."""
    terms = at_one_plus(poly.terms)
    shells = [0] * (max([n, *(i + j for i, j in terms)]) + 1)
    for (i, j), c in terms.items():
        shells[i + j] += c << WIDTH * i
    return shells


def joint_step(poly: BiPoly, n: int, odd: bool) -> BiPoly:
    """The even (or odd) transfer step on a polynomial, through the shell body."""
    return gentree._decode(gentree._step(shells_of(poly, n), n, WIDTH if odd else 0), WIDTH)


def _marginal_step(poly: BigPoly, k: int, forced: bool) -> BigPoly:
    """The reference marginal step in v: k*p + (1-v)*p', times v when forced."""
    return BigPoly(marginal_step_by_definition(list(poly.coeffs), k, forced))


class TestTransferSteps:
    def test_even_step_examples(self):
        assert joint_step(BiPoly({(0, 0): 1}), 1, odd=False) == BiPoly({(0, 1): 1})
        assert joint_step(BiPoly({(1, 0): 1}), 2, odd=False) == BiPoly({(0, 1): 1, (1, 1): 1})

    def test_odd_step_examples(self):
        assert joint_step(BiPoly({(0, 1): 1}), 1, odd=True) == BiPoly({(1, 0): 1})
        got = joint_step(BiPoly({(0, 1): 1, (1, 1): 1}), 2, odd=True)
        assert got == BiPoly({(1, 0): 1, (1, 1): 2, (2, 0): 1})

    def test_steps_are_linear_in_zero(self):
        assert joint_step(BiPoly(), 3, odd=False) == BiPoly()
        assert joint_step(BiPoly(), 3, odd=True) == BiPoly()

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError, match="exceeds the bound"):
            joint_step(BiPoly({(2, 2): 1}), 3, odd=False)
        with pytest.raises(ValueError, match="exceeds the bound"):
            joint_step(BiPoly({(3, 1): 1}), 3, odd=True)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="negative coefficient"):
            joint_step(BiPoly({(0, 1): -1}), 5, odd=False)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_even_step_commutes_with_specializations(self, k):
        p = joint_poly(2 * k - 1)
        q = joint_step(p, k, odd=False)
        assert q.marginal("x") == _marginal_step(p.marginal("x"), k, forced=False)
        assert q.marginal("y") == _marginal_step(p.marginal("y"), k, forced=True)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_odd_step_commutes_with_specializations(self, k):
        p = joint_poly(2 * k)
        q = joint_step(p, k, odd=True)
        assert q.marginal("x") == _marginal_step(p.marginal("x"), k, forced=True)
        assert q.marginal("y") == _marginal_step(p.marginal("y"), k, forced=False)


@st.composite
def joint_input(draw):
    """A random nonnegative joint polynomial that respects i + j <= n."""
    n = draw(st.integers(1, 9))
    exponents = st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda e: sum(e) <= n)
    terms = draw(st.dictionaries(exponents, st.integers(1, 10**12), max_size=8))
    return BiPoly(terms), n


NO_SHRINK = settings(max_examples=100, derandomize=True, database=None, phases=[Phase.generate])


def _marginals(p: BiPoly):
    return p.marginal("x"), p.marginal("y")


def _steps_match_marginal_steps(case) -> bool:
    # x marks the odd-odd drops that odd lengths force, y the even-odd drops
    # that even lengths force
    p, n = case
    px, py = _marginals(p)
    even_ok = _marginals(joint_step(p, n, odd=False)) == (
        _marginal_step(px, n, forced=False), _marginal_step(py, n, forced=True)
    )
    odd_ok = _marginals(joint_step(p, n, odd=True)) == (
        _marginal_step(px, n, forced=True), _marginal_step(py, n, forced=False)
    )
    return even_ok and odd_ok


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(joint_input())
def test_merged_steps_specialize_to_marginal_steps(case):
    assert _steps_match_marginal_steps(case)


def _shell_step_is_the_reference_step(case) -> bool:
    p, n = case
    return all(
        joint_step(p, n, odd) == BiPoly(joint_step_by_definition(p.terms, n, odd)) for odd in (False, True)
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(joint_input())
def test_shell_step_is_the_reference_step(case):
    assert _shell_step_is_the_reference_step(case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(joint_input())
def test_decode_inverts_the_forward_map(case):
    p, n = case
    assert gentree._decode(shells_of(p, n), WIDTH) == p


def _shell_body(scale: int, feed: int):
    """A step body with shell d scaled by k-d+scale and fed by feed*(k-d+1+scale)
    times the shell below; scale 0, feed 1 is the real body."""

    def body(shells, k, shift):
        here = [*shells, 0][: k + 1]
        return [
            (k - d + scale) * s + (feed * (k - d + 1 + scale) * t << shift)
            for d, (s, t) in enumerate(zip(here, [0, *here]))
        ]

    return body


def test_shell_body_control_is_the_real_body(monkeypatch):
    # the controls below break this body, so unbroken it must pass
    monkeypatch.setattr(gentree, "_step", _shell_body(0, 1))
    test_shell_step_is_the_reference_step()
    assert joint_poly(12) == joint_table(12)


def test_step_property_catches_a_dropped_term(monkeypatch):
    # the body without the term each shell feeds up: F -> (k-deg)*F, no 1+b
    monkeypatch.setattr(gentree, "_step", _shell_body(0, 0))
    # raises NoSuchExample if the property cannot tell the broken step apart
    find(joint_input(), lambda case: not _shell_step_is_the_reference_step(case), settings=NO_SHRINK)
    find(joint_input(), lambda case: not _steps_match_marginal_steps(case), settings=NO_SHRINK)


def test_step_property_catches_a_scale_off_by_one(monkeypatch):
    # shell d scaled by k-d+1 instead of k-d, as if deg counted from 1
    monkeypatch.setattr(gentree, "_step", _shell_body(1, 1))
    find(joint_input(), lambda case: not _shell_step_is_the_reference_step(case), settings=NO_SHRINK)
    find(joint_input(), lambda case: not _steps_match_marginal_steps(case), settings=NO_SHRINK)


@st.composite
def member_and_position(draw):
    """A member word on [n], n <= 9, from the listing walk, and one of its odd positions."""
    n = draw(st.integers(1, 9))
    word = draw(st.sampled_from([w for w, _, _ in enumerator.iter_odd_drop_words(n)]))
    pos = draw(st.sampled_from([i for i, v in enumerate(word) if v & 1]))
    return word, pos


def _word_child_is_the_cycle_child(case, undo=delete_max) -> bool:
    # the next maximum inserted before word[pos] in the cyclic order: the
    # rotation starting at word[pos] with the maximum put in front of it.
    # Deleting the maximum must give back the word and the spot's two
    # neighbours, word[pos - 1] and word[pos].
    word, pos = case
    inserted = insert_max(word, pos)
    return is_member_by_definition(inserted) and undo(inserted) == (word, word[pos - 1], word[pos])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(member_and_position())
def test_word_child_is_a_valid_member(case):
    assert _word_child_is_the_cycle_child(case)


def test_word_child_property_catches_a_late_insertion():
    def one_spot_late(word):
        # the neighbours read as if the maximum sat one entry later
        parent, _, latter = delete_max(word)
        at = parent.index(latter)
        return parent, latter, parent[(at + 1) % len(parent)]

    # raises NoSuchExample if the property cannot tell the late spot apart
    find(
        member_and_position(),
        lambda case: not _word_child_is_the_cycle_child(case, one_spot_late),
        settings=NO_SHRINK,
    )


class TestJointPolynomial:
    def test_pinned_values(self):
        assert joint_poly(1) == BiPoly({(0, 0): 1})
        assert joint_poly(4) == BiPoly({(0, 1): 1, (1, 1): 1})
        assert joint_poly(5) == BiPoly({(1, 0): 1, (1, 1): 2, (2, 0): 1})

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_enumeration(self, n):
        assert joint_poly(n) == joint_table(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_marginals_match_recurrences(self, n):
        jp = joint_poly(n)
        assert jp.marginal("x") == oo_poly(n)
        assert jp.marginal("y") == eo_poly(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            joint_poly(0)

    def test_builds_one_bipoly(self, monkeypatch):
        expected = joint_table(12)
        built = []
        init = BiPoly.__init__

        def counted(self, terms=()):
            built.append(len(terms))
            init(self, terms)

        monkeypatch.setattr(BiPoly, "__init__", counted)
        assert joint_poly(12) == expected
        assert len(built) == 1


def _spoil_call(calls: int, spoil, monkeypatch) -> list[int]:
    """Patch the shell step so that spoil edits its output on the given call."""
    real = gentree._step
    seen = []

    def spoiled(shells, n, shift):
        out = real(shells, n, shift)
        seen.append(n)
        if len(seen) == calls:
            spoil(out, shift)
        return out

    monkeypatch.setattr(gentree, "_step", spoiled)
    return seen


def _negate_first(shells, shift):
    d = next(d for d, shell in enumerate(shells) if shell)
    shells[d] = -shells[d]


def _grow_past_the_bound(shells, shift):
    shells.append(1)


def _borrow_below_the_top(shells, shift):
    # shell 1 holds b (slot 0) and a (slot 1); slot 0 set to -1 borrows from
    # slot 1, which leaves the integer positive and slot 0's guard bit set
    shells[1] -= (shells[1] & (1 << shift) - 1) + 1
    assert shells[1] > 0


def test_walk_check_catches_a_negative_coefficient_mid_walk(monkeypatch):
    seen = _spoil_call(3, _negate_first, monkeypatch)
    with pytest.raises(ValueError, match="transfer step 2: negative coefficient"):
        joint_poly(9)
    # the fourth step refused its input; no later step ran
    assert seen == [1, 1, 2]


def test_walk_check_catches_a_term_beyond_the_degree_bound(monkeypatch):
    seen = _spoil_call(3, _grow_past_the_bound, monkeypatch)
    with pytest.raises(ValueError, match="a term of degree 3 exceeds the bound 2"):
        joint_poly(9)
    assert seen == [1, 1, 2]


def test_final_scan_catches_a_negative_coefficient_from_the_last_step(monkeypatch):
    seen = _spoil_call(8, _negate_first, monkeypatch)
    with pytest.raises(ValueError, match="transfer steps produced a negative coefficient"):
        joint_poly(9)
    assert len(seen) == 8


def test_final_scan_catches_a_slot_with_its_guard_bit_set(monkeypatch):
    seen = _spoil_call(8, _borrow_below_the_top, monkeypatch)
    with pytest.raises(ValueError, match="transfer steps produced a negative coefficient"):
        joint_poly(9)
    assert len(seen) == 8


def test_walk_is_the_reference_walk():
    # joint_poly(n) against the literal (x, y) steps on a dict, n = 1..60
    terms = {(0, 0): 1}
    for n in range(1, 61):
        if n > 1:
            terms = joint_step_by_definition(terms, n // 2, odd=bool(n & 1))
        assert joint_poly(n) == BiPoly(terms), n
