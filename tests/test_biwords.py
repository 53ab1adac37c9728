import math

import pytest

from wreathstats.biwords import (
    Biword,
    Triple,
    column_multiset,
    column_realization_count,
    enumerate_biwords,
    from_triple,
    is_biword,
    to_triple,
)
from wreathstats.encoding import (
    ColoredSequence,
    Partition,
    format_sequence,
    is_compatible,
    parse_sequence,
    partitions_in_box,
    pi_of,
)
from wreathstats.group import (
    BudgetExceededError,
    enumerate_group,
    format_window,
    identity_element,
    parse_window,
    skew_inverse,
)


def biword(g_parts, f_text, r):
    return Biword(g=Partition(tuple(g_parts)), f=parse_sequence(f_text, r))


class TestMembership:
    def test_known_verdicts(self):
        g = Partition((1, 1, 3, 3))
        assert is_biword(g, parse_sequence("4^2,4^1,6^2,0", 3))
        assert is_biword(g, parse_sequence("4^1,4^2,6^2,0", 3))
        assert is_biword(g, parse_sequence("4^1,4,6^2,0", 3))
        assert not is_biword(g, parse_sequence("4,4^1,6^2,0", 3))

    def test_all_zero(self):
        assert is_biword(Partition((0, 0)), ColoredSequence(3, (0, 0), (0, 0)))

    def test_zero_top_forces_uncolored_bottom(self):
        assert not is_biword(Partition((0,)), parse_sequence("1^1", 2))
        assert is_biword(Partition((1,)), parse_sequence("1^1", 2))

    def test_needs_restricted_sequence(self):
        assert not is_biword(Partition((1,)), ColoredSequence(2, (0,), (1,)))

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            biword((1, 1, 3, 3), "4,4^1,6^2,0", 3)


class TestBijection:
    def test_worked_example(self):
        word = biword((0, 1, 1, 3, 3, 4, 5), "4,4^1,1,3^3,6,3^1,4^2", 4)
        triple = to_triple(word)
        assert format_window(triple.gamma) == "[3,6^1,4^3,7^2,2^1,1,5]"
        assert triple.lam.parts == (0, 1, 1, 3, 3, 4, 5)
        assert triple.mu.parts == (1, 3, 3, 4, 4, 4, 6)
        back = from_triple(triple)
        assert format_sequence(back.f) == "4,4^1,1,3^3,6,3^1,4^2"
        assert back == word

    def test_all_zero(self):
        word = Biword(g=Partition((0, 0)), f=ColoredSequence(2, (0, 0), (0, 0)))
        triple = to_triple(word)
        assert triple.gamma == identity_element(2, 2)
        assert triple.lam.parts == (0, 0) and triple.mu.parts == (0, 0)

    def test_single_column(self):
        word = biword((2,), "1^1", 2)
        triple = to_triple(word)
        assert format_window(triple.gamma) == "[1^1]"
        assert triple.lam.parts == (2,) and triple.mu.parts == (1,)
        assert from_triple(triple) == word

    def test_triple_validation(self):
        # [1^1] is its own skew inverse, with a descent at 0: a zero part
        # fails either check, and lam is checked before mu
        gamma = parse_window("[1^1]", 2)
        zero, one = Partition((0,)), Partition((1,))
        first = "first partition is not skew-inverse compatible"
        second = "second partition is not compatible with the element"
        for lam, mu, message in [(zero, one, first), (one, zero, second),
                                 (zero, zero, first)]:
            with pytest.raises(ValueError, match=message):
                Triple(gamma=gamma, lam=lam, mu=mu)
        with pytest.raises(ValueError, match="lengths do not agree"):
            Triple(gamma=gamma, lam=Partition((1, 1)), mu=one)
        assert Triple(gamma=gamma, lam=one, mu=one).lam == one

    @pytest.mark.parametrize("r,n,cap", [(2, 2, 2), (3, 2, 2), (2, 3, 2)])
    def test_exhaustive_bijectivity(self, r, n, cap):
        words = list(enumerate_biwords(r, n, cap, cap))
        triples = [to_triple(b) for b in words]
        assert len({(t.gamma, t.lam, t.mu) for t in triples}) == len(words)
        for word, triple in zip(words, triples):
            assert from_triple(triple) == word
        expected = set()
        for gamma in enumerate_group(r, n):
            skew = skew_inverse(gamma)
            for lam in partitions_in_box(n, cap):
                if not is_compatible(lam, skew):
                    continue
                for mu in partitions_in_box(n, cap):
                    if is_compatible(mu, gamma):
                        expected.add((gamma, lam, mu))
        assert {(t.gamma, t.lam, t.mu) for t in triples} == expected

    def test_both_rows_sort_correctly(self):
        # pushing each partition through its element recovers the other side
        from wreathstats.encoding import lambda_gamma
        for word in enumerate_biwords(3, 3, 2, 2):
            triple = to_triple(word)
            skew = skew_inverse(triple.gamma)
            assert pi_of(lambda_gamma(triple.lam, triple.gamma)) == skew
            assert pi_of(lambda_gamma(triple.mu, skew)) == triple.gamma


class TestEnumeration:
    def test_uncolored_single_column(self):
        assert sum(1 for _ in enumerate_biwords(1, 1, 1, 1)) == 4

    def test_zero_cap_top_forces_uncolored(self):
        words = list(enumerate_biwords(2, 1, 1, 0))
        assert [format_sequence(w.f) for w in words] == ["0", "1"]

    def test_deterministic(self):
        a = list(enumerate_biwords(2, 2, 2, 2))
        b = list(enumerate_biwords(2, 2, 2, 2))
        assert a == b

    def test_budget_names_a_count_too_long_for_text(self):
        # 7^6000 bottom rows: more digits than int-to-str converts
        count = math.comb(6002, 6000) * 7 ** 6000
        with pytest.raises(BudgetExceededError) as info:
            next(enumerate_biwords(3, 6000, 2, 2, max_elements=10))
        assert str(info.value) == (f"2^{count.bit_length() - 1} or more "
                                   "candidate biwords exceed budget 10")


class TestColumnMultisets:
    def test_counts_match_multinomials(self):
        r, n = 3, 3
        groups = {}
        for word in enumerate_biwords(r, n, 2, 2):
            key = column_multiset(word)
            groups[key] = groups.get(key, 0) + 1
        assert groups
        for key, count in groups.items():
            assert count == column_realization_count(key, r)

    def test_single_cell_multinomial(self):
        # two colored copies of the same column in two colors: 2!/1!1! words
        key = ((1, 1, 1), (1, 1, 2))
        assert column_realization_count(key, 3) == 2
