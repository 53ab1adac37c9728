import itertools

import pytest

from wreathstats.group import (
    BudgetExceededError,
    _descent_set,
    ColoredInteger,
    ColoredPermutation,
    ParseError,
    compare_colored,
    enumerate_group,
    format_window,
    group_order,
    identity_element,
    inverse,
    multiply,
    parse_window,
    project_to_signed,
    skew_inverse,
    statistics,
)


def ci(value, color=0):
    return ColoredInteger(value, color)


class TestColoredOrder:
    def test_colored_below_zero_below_positive(self):
        assert compare_colored(ci(6, 1), ci(4, 3), 4) == -1
        assert compare_colored(ci(0), ci(1), 2) == -1
        assert compare_colored(ci(3, 1), ci(0), 4) == -1

    def test_sorting_matches_known_arrangement(self):
        # oracle: sorting {1^2, 2^1, 7^2} must give (7^2, 2^1, 1^2)
        items = [ci(1, 2), ci(2, 1), ci(7, 2)]
        items.sort(key=lambda x: x.key())
        assert items == [ci(7, 2), ci(2, 1), ci(1, 2)]
        assert compare_colored(ci(7, 2), ci(2, 1), 4) == -1
        assert compare_colored(ci(2, 1), ci(1, 2), 4) == -1

    def test_total_order_on_small_alphabet(self):
        r, n = 3, 4
        alphabet = [ci(0)] + [ci(v) for v in range(1, n + 1)] \
            + [ci(v, c) for v in range(1, n + 1) for c in range(1, r)]
        ranked = sorted(alphabet, key=lambda x: x.key())
        for i, x in enumerate(ranked):
            for j, y in enumerate(ranked):
                expected = (i > j) - (i < j)
                assert compare_colored(x, y, r) == expected

    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            compare_colored(ci(1, 1), ci(2, 1), 1)

    def test_zero_value_forces_zero_color(self):
        with pytest.raises(ValueError):
            ColoredInteger(0, 1)


class TestProduct:
    def test_entrywise_action(self):
        alpha = parse_window("[2,4,5,6^2,1^1,3]", 3)
        beta = parse_window("[3,1^2,2^1,6,5,4]", 3)
        assert format_window(multiply(alpha, beta)) == "[5,2^2,4^1,3,1^1,6^2]"

    def test_identity_is_neutral(self):
        e = identity_element(2, 2)
        for gamma in enumerate_group(2, 2):
            assert multiply(gamma, e) == gamma
            assert multiply(e, gamma) == gamma

    def test_color_generator_is_an_involution_for_two_colors(self):
        s0 = parse_window("[1^1,2]", 2)
        assert multiply(s0, s0) == identity_element(2, 2)

    def test_mismatched_operands(self):
        with pytest.raises(ValueError):
            multiply(identity_element(2, 2), identity_element(3, 2))
        with pytest.raises(ValueError):
            multiply(identity_element(2, 2), identity_element(2, 3))

    @pytest.mark.parametrize("r,n", [(2, 2), (3, 2)])
    def test_group_axioms(self, r, n):
        elements = list(enumerate_group(r, n))
        for a, b, c in itertools.product(elements, repeat=3):
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        e = identity_element(r, n)
        for a in elements:
            assert multiply(a, inverse(a)) == e
            assert multiply(inverse(a), a) == e


class TestInverses:
    def test_worked_inverse(self):
        gamma = parse_window("[3,6^1,4^3,7^2,2^1,1,5]", 4)
        assert format_window(inverse(gamma)) == "[6,5^3,1,3^1,7,2^3,4^2]"

    def test_worked_skew_inverse(self):
        gamma = parse_window("[3,6^1,4^3,7^2,2^1,1,5]", 4)
        assert format_window(skew_inverse(gamma)) == "[6,5^1,1,3^3,7,2^1,4^2]"

    def test_identity_fixed(self):
        e = identity_element(3, 4)
        assert inverse(e) == e
        assert skew_inverse(e) == e

    def test_two_color_inverse_is_involution(self):
        gamma = parse_window("[1^1,2]", 2)
        assert inverse(gamma) == gamma

    def test_skew_inverse_is_involution(self):
        for gamma in enumerate_group(3, 3):
            assert skew_inverse(skew_inverse(gamma)) == gamma


class TestStatistics:
    def test_worked_example(self):
        rec = statistics(parse_window("[4^1,3,2^4,1^2]", 5))
        assert rec.inv == 2
        assert rec.length == 13
        assert rec.des_set == {0, 2}
        assert rec.des == 2
        assert rec.maj == 2
        assert rec.fmaj == 17
        assert rec.col == 7
        assert rec.col_vector == (1, 0, 4, 2)

    def test_identity_statistics_vanish(self):
        rec = statistics(identity_element(4, 5))
        assert (rec.inv, rec.length, rec.des, rec.maj, rec.fmaj, rec.col) == (0,) * 6
        assert rec.des_set == frozenset()

    def test_single_colored_letter(self):
        rec = statistics(parse_window("[1^1]", 2))
        assert rec.inv == 0
        assert rec.length == 1
        assert rec.des_set == {0}
        assert rec.maj == 0
        assert rec.col == 1
        assert rec.fmaj == 1

    @pytest.mark.parametrize("r,n", [(1, 3), (2, 2), (3, 2), (2, 3)])
    def test_structural_invariants(self, r, n):
        for gamma in enumerate_group(r, n):
            rec = statistics(gamma)
            assert rec.des == len(rec.des_set)
            assert rec.maj == sum(rec.des_set)
            assert rec.fmaj == r * rec.maj + rec.col
            assert (0 in rec.des_set) == (gamma.colors[0] > 0)
            colored = sum(gamma.sigma[i] + gamma.colors[i] - 1
                          for i in range(n) if gamma.colors[i])
            assert rec.length == rec.inv + colored


class TestProjection:
    def test_colors_flatten(self):
        gamma = parse_window("[4^1,3,2^4,1^2]", 5)
        assert format_window(project_to_signed(gamma)) == "[4^1,3,2^1,1^1]"

    def test_uncolored_window_unchanged(self):
        gamma = parse_window("[3,1,2]", 4)
        image = project_to_signed(gamma)
        assert image.r == 2 and image.sigma == gamma.sigma
        assert image.colors == (0, 0, 0)

    def test_commutes_with_both_inverses(self):
        for gamma in enumerate_group(3, 3):
            lhs = project_to_signed(inverse(gamma))
            assert lhs == inverse(project_to_signed(gamma))
            assert lhs == project_to_signed(skew_inverse(gamma))

    def test_rejected_for_single_color(self):
        with pytest.raises(ValueError):
            project_to_signed(identity_element(1, 2))


class TestEnumeration:
    @pytest.mark.parametrize("r,n,count", [(1, 3, 6), (2, 2, 8), (3, 3, 162)])
    def test_counts(self, r, n, count):
        elements = list(enumerate_group(r, n))
        assert len(elements) == count == group_order(r, n)
        assert len(set(elements)) == count

    def test_deterministic_order(self):
        first = [format_window(g) for g in enumerate_group(2, 2)]
        second = [format_window(g) for g in enumerate_group(2, 2)]
        assert first == second
        assert first[0] == "[1,2]"

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_group(3, 5, max_elements=100))

    def test_empty_window(self):
        assert list(enumerate_group(4, 0)) == [identity_element(4, 0)]


class TestWindowText:
    def test_round_trip(self):
        for text in ("[4^1,3,2^4,1^2]", "[1,2,3]", "[]", "[2,1]"):
            assert format_window(parse_window(text, 5)) == text

    def test_whitespace_insignificant(self):
        assert parse_window(" [ 4^1 , 3 , 2^4 , 1^2 ] ", 5) \
            == parse_window("[4^1,3,2^4,1^2]", 5)

    @pytest.mark.parametrize("bad", [
        "[1^0,2]",      # explicit color zero
        "[1^5,2]",      # color out of range
        "[1,1]",        # repeated absolute value
        "[1,3]",        # not a permutation
        "1,2",          # missing brackets
        "[1,x]",        # junk entry
    ])
    def test_rejections(self, bad):
        with pytest.raises(ParseError):
            parse_window(bad, 5)

    def test_rejects_for_r1(self):
        with pytest.raises(ParseError):
            parse_window("[1^1,2]", 1)


class TestDescentSet:
    def test_matches_statistics_on_small_groups(self):
        for r in range(1, 4):
            for n in range(6):
                for g in enumerate_group(r, n):
                    assert _descent_set(g.sigma, g.colors) == statistics(g).des_set

    def test_readme_example(self):
        g = parse_window("[4^1,3,2^4,1^2]", 5)
        assert _descent_set(g.sigma, g.colors) == statistics(g).des_set == {0, 2}


class TestConstructorRejections:
    """Every rejection of ``ColoredPermutation`` with its exact message; with
    two faults, the check listed first in ``__post_init__`` wins."""

    @pytest.mark.parametrize("r,sigma,colors,message", [
        (0, (1,), (0,), "r must be a positive integer"),
        (-1, (), (), "r must be a positive integer"),
        (2, (1, 2), (0,), "sigma and colors must have equal length"),
        (2, (), (0,), "sigma and colors must have equal length"),
        (2, (1, 1), (0, 0), "sigma is not a permutation of 1..n"),
        (2, (0, 1), (0, 0), "sigma is not a permutation of 1..n"),
        (2, (1, 3), (0, 0), "sigma is not a permutation of 1..n"),
        (2, (2, 1), (-1, 0), "color out of range"),
        (2, (2, 1), (0, 2), "color out of range"),
        (3, (1,), (3,), "color out of range"),
        (1, (1,), (1,), "color out of range"),
        # two faults each
        (0, (1, 1), (5,), "r must be a positive integer"),
        (0, (1,), (-1,), "r must be a positive integer"),
        (2, (1, 1), (0,), "sigma and colors must have equal length"),
        (2, (1, 2), (0, 0, 2), "sigma and colors must have equal length"),
        (2, (1, 1), (0, 2), "sigma is not a permutation of 1..n"),
        (2, (1, 1), (-1, 0), "sigma is not a permutation of 1..n"),
        (2, (1, 2), (-1, 2), "color out of range"),
    ])
    def test_message(self, r, sigma, colors, message):
        with pytest.raises(ValueError) as excinfo:
            ColoredPermutation(r, sigma, colors)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("r,sigma,colors", [
        (1, (), ()), (1, (1,), (0,)), (3, (2, 1, 3), (2, 0, 1)),
    ])
    def test_accepted(self, r, sigma, colors):
        assert ColoredPermutation(r, sigma, colors).n == len(sigma)
