import operator
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_qseries as ref
from wreathstats import qseries
from wreathstats.identities import _color_twist, _weak_compositions
from wreathstats.qseries import (
    ALLOWED_VARIABLES,
    MAX_EXPONENT,
    ContextMismatchError,
    ExponentOverflowError,
    MultiPoly,
    SeriesContext,
    _double_terms,
    _factor_run,
    _from_tally,
    _gaussian_rows,
    _homogeneous,
    _reciprocal_pochhammer,
    bracket_two_param,
    hat_factorial,
    hat_multinomial,
    pochhammer,
    q_factorial,
    q_int,
)


def double_pochhammer(ctx, a_expr, p_base, q_base, n, m):
    """The double Pochhammer product, the factors ``1 - term`` over
    ``_double_terms``."""
    result = one = MultiPoly.constant(ctx, 1)
    for term in _double_terms(ctx, a_expr, p_base, q_base, n, m):
        result = result * (one - term)
    return result


def ref_poly(x):
    return ref.RefPoly(x.ctx, x.terms)


def expand(ctx, text_terms):
    """Build a polynomial from {momomial-exponent-dict: coeff} pairs."""
    out = MultiPoly.zero(ctx)
    for exps, coeff in text_terms:
        out = out + MultiPoly.monomial(ctx, coeff, **exps)
    return out


class TestTruncatedProduct:
    def test_difference_of_squares(self):
        ctx = SeriesContext(("t",), (2,))
        t = MultiPoly.variable(ctx, "t")
        assert (1 + t) * (1 - t) == expand(ctx, [({}, 1), ({"t": 2}, -1)])

    def test_truncation_drops_top_degree(self):
        ctx = SeriesContext(("q",), (1,))
        q = MultiPoly.variable(ctx, "q")
        assert (1 + q) * (1 + q) == expand(ctx, [({}, 1), ({"q": 1}, 2)])

    def test_q_factorial_structure(self):
        ctx = SeriesContext(("p",), (9,))
        assert q_int(ctx, 3, "p") * q_int(ctx, 2, "p") == expand(
            ctx, [({}, 1), ({"p": 1}, 2), ({"p": 2}, 2), ({"p": 3}, 1)])
        assert q_int(ctx, 3, "p") * q_int(ctx, 2, "p") == q_factorial(ctx, 3, "p")

    def test_context_mismatch(self):
        a = MultiPoly.variable(SeriesContext(("t",), (2,)), "t")
        b = MultiPoly.variable(SeriesContext(("t",), (3,)), "t")
        with pytest.raises(ContextMismatchError):
            a * b

    @pytest.mark.parametrize("other", [1.5, "a", None])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_foreign_operand_is_refused(self, op, other):
        x = MultiPoly.variable(SeriesContext(("t",), (2,)), "t")
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
        for method in ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__"):
            assert getattr(x, method)(other) is NotImplemented, method


class TestReciprocal:
    """``1 / (t; b)_n`` as the sum of the complete homogeneous sums of its
    terms ``t b^i``."""

    def test_geometric_series(self):
        ctx = SeriesContext(("t",), (3,))
        assert _reciprocal_pochhammer(ctx, "t", 1, 1) == expand(
            ctx, [({}, 1), ({"t": 1}, 1), ({"t": 2}, 1), ({"t": 3}, 1)])
        assert _reciprocal_pochhammer(ctx, "t", 1, 2) == expand(
            ctx, [({}, 1), ({"t": 1}, 2), ({"t": 2}, 3), ({"t": 3}, 4)])
        assert _reciprocal_pochhammer(ctx, "t", 1, 0) == 1

    def test_two_factor_pochhammer(self):
        ctx = SeriesContext(("t", "q"), (2, 2))
        got = _reciprocal_pochhammer(ctx, "t", "q", 2)
        want = expand(ctx, [
            ({}, 1),
            ({"t": 1}, 1), ({"t": 1, "q": 1}, 1),
            ({"t": 2}, 1), ({"t": 2, "q": 1}, 1), ({"t": 2, "q": 2}, 1),
        ])
        assert got == want

    def test_gaussian_degrees(self):
        # coefficient of t^m in 1/(t;q)_{n+1} has q-degree exactly m*n
        for n in range(5):
            for m in range(5):
                ctx = SeriesContext(("t", "q"), (4, 40))
                series = ref_poly(_reciprocal_pochhammer(ctx, "t", "q", n + 1))
                slice_ = ref.coefficient_of(series, "t", m)
                assert max(exps[ctx.index("q")] for exps in slice_.terms) == m * n


class TestSubstitute:
    """The test-side ``substitute`` the full-product oracles build on."""

    def test_shrinking_scale(self):
        ctx = SeriesContext(("u", "t"), (2, 2))
        u = MultiPoly.variable(ctx, "u")
        t = MultiPoly.variable(ctx, "t")
        got = ref.substitute(ref_poly(u ** 2), "u", ref_poly((1 - t) * u))
        assert got == ref_poly(u ** 2 * (1 - 2 * t + t ** 2))

    def test_color_twist(self):
        ctx = SeriesContext(("a", "p"))
        a = MultiPoly.variable(ctx, "a")
        twist = a * q_int(ctx, 2, MultiPoly.monomial(ctx, 1, a=1, p=1))
        got = ref.substitute(ref_poly(1 + a), "a", ref_poly(twist))
        assert got == ref_poly(expand(ctx, [({}, 1), ({"a": 1}, 1), ({"a": 2, "p": 1}, 1)]))

    def test_unknown_variable(self):
        ctx = SeriesContext(("u",), (2,))
        with pytest.raises(ValueError):
            ref.substitute(ref_poly(MultiPoly.variable(ctx, "u")), "t",
                           ref.RefPoly.constant(ctx, 1))


class TestPochhammer:
    def test_single_factor(self):
        ctx = SeriesContext(("t", "q"))
        t = MultiPoly.variable(ctx, "t")
        assert pochhammer(ctx, t, "q", 1) == 1 - t

    def test_two_factors(self):
        ctx = SeriesContext(("t", "q"))
        t = MultiPoly.variable(ctx, "t")
        q = MultiPoly.variable(ctx, "q")
        assert pochhammer(ctx, t, "q", 2) == (1 - t) * (1 - t * q)

    def test_negative_argument_three_colors(self):
        ctx = SeriesContext(("p",))
        p = MultiPoly.variable(ctx, "p")
        shifted = -(p * q_int(ctx, 2, "p"))
        got = pochhammer(ctx, shifted, "p", 2)
        assert got == (1 + p * (1 + p)) * (1 + p ** 2 * (1 + p))

    def test_recurrence(self):
        ctx = SeriesContext(("t", "q"))
        t = MultiPoly.variable(ctx, "t")
        q = MultiPoly.variable(ctx, "q")
        for n in range(6):
            assert pochhammer(ctx, t, "q", n + 1) \
                == pochhammer(ctx, t, "q", n) * (1 - t * q ** n)

    def test_a_is_read_like_a_base(self):
        # a name, a rational or a polynomial of the same context, and no other
        ctx = SeriesContext(("a", "p"))
        a = MultiPoly.variable(ctx, "a")
        assert pochhammer(ctx, "a", "p", 2) == pochhammer(ctx, a, "p", 2)
        assert pochhammer(ctx, 2, "p", 1) == -1
        p = MultiPoly.variable(ctx, "p")
        assert list(_double_terms(ctx, "a", "p", "p", 1, 2)) == [a, a * p]
        foreign = MultiPoly.variable(SeriesContext(("a", "p"), (2, None)), "a")
        for a_expr, error in ((foreign, ContextMismatchError), (None, TypeError)):
            # checked even when no factor is read
            with pytest.raises(error):
                pochhammer(ctx, a_expr, "p", 0)
            with pytest.raises(error):
                _double_terms(ctx, a_expr, "p", "p", 0, 3)


class TestDoublePochhammer:
    """The product of the factors ``1 - term`` over ``_double_terms``."""

    def test_degenerate(self):
        ctx = SeriesContext(("u", "q1", "q2"))
        u = MultiPoly.variable(ctx, "u")
        assert double_pochhammer(ctx, u, "q1", "q2", 1, 1) == 1 - u
        assert double_pochhammer(ctx, u, "q1", "q2", 0, 5) == 1

    def test_row_of_two(self):
        ctx = SeriesContext(("u", "q1", "q2"))
        u = MultiPoly.variable(ctx, "u")
        q1 = MultiPoly.variable(ctx, "q1")
        assert double_pochhammer(ctx, u, "q1", "q2", 2, 1) == (1 - u) * (1 - u * q1)

    def test_infinite_legs_truncate(self):
        ctx = SeriesContext(("u", "p", "q"), (1, 1, 1))
        u = MultiPoly.variable(ctx, "u")
        got = double_pochhammer(ctx, u, "p", "q", None, None)
        want = expand(ctx, [({}, 1), ({"u": 1}, -1), ({"u": 1, "p": 1}, -1),
                            ({"u": 1, "q": 1}, -1), ({"u": 1, "p": 1, "q": 1}, -1)])
        assert got == want

    def test_infinite_leg_needs_caps(self):
        ctx = SeriesContext(("u", "p", "q"), (2, None, 2))
        u = MultiPoly.variable(ctx, "u")
        with pytest.raises(ValueError):
            double_pochhammer(ctx, u, "p", "q", None, 2)


class TestReciprocalDoublePochhammer:
    """The complete homogeneous sums of a double product's terms against the
    u-coefficients of the reciprocal of the whole double product."""

    CTX = SeriesContext(("u", "p", "q", "a"), (3, 4, 4, None))
    LEGS = (0, 1, 2, 3, None)

    @pytest.mark.parametrize("p_base", ["p", "q"])
    def test_matches_whole_reciprocal(self, p_base):
        ctx = self.CTX
        u = MultiPoly.variable(ctx, "u")
        p, a = MultiPoly.variable(ctx, "p"), MultiPoly.variable(ctx, "a")
        q2 = MultiPoly.monomial(ctx, 1, q=2)
        for x in (MultiPoly.constant(ctx, 1), p, -a, a + a * p):
            for q_base in ("q", q2):
                for n in self.LEGS:
                    for m in self.LEGS:
                        whole = ref.reciprocal(ref_poly(ref.reference_double_pochhammer(
                            ctx, x * u, p_base, q_base, n, m)))
                        sums = _homogeneous(ctx, _double_terms(ctx, x, p_base, q_base, n, m),
                                            ctx.cap("u"))
                        assert len(sums) == ctx.cap("u") + 1
                        for degree, got in enumerate(sums):
                            want = ref.coefficient_of(whole, "u", degree)
                            assert got.to_lines() == want.to_lines(), (x, q_base, n, m, degree)

    @pytest.mark.parametrize("n,m,leg", [(None, 2, "first"), (2, None, "second"),
                                         (0, None, "second"), (None, 0, "first")])
    def test_infinite_leg_error(self, n, m, leg):
        # "a" is uncapped; with no row at all the second leg is still checked
        ctx = SeriesContext(("u", "p", "a"), (2, 2, None))
        u = MultiPoly.variable(ctx, "u")
        one = MultiPoly.constant(ctx, 1)
        first, second = ("a", "p") if leg == "first" else ("p", "a")
        message = f"infinite {leg} leg needs finite caps on its base variables"
        for build in (lambda: ref.reciprocal(ref_poly(ref.reference_double_pochhammer(
                          ctx, u, first, second, n, m))),
                      lambda: _homogeneous(ctx, _double_terms(ctx, one, first, second, n, m), 2)):
            with pytest.raises(ValueError) as info:
                build()
            assert type(info.value) is ValueError and str(info.value) == message

    def test_uncapped_factor_is_not_a_unit(self):
        # u is uncapped, so the factor (1 - u) has no geometric expansion;
        # the homogeneous sums expand no factor and need no unit
        ctx = SeriesContext(("u", "p", "q"), (None, 2, 2))
        u = MultiPoly.variable(ctx, "u")
        message = ("reciprocal does not terminate: term u^1 has no finitely "
                   "capped variable")
        with pytest.raises(ref.NonUnitError) as info:
            ref.reciprocal(ref_poly(ref.reference_double_pochhammer(ctx, u, "p", "q", 1, 1)))
        assert str(info.value) == message
        with pytest.raises(ref.NonUnitError, match="has no finitely capped variable"):
            ref.reciprocal(ref_poly(ref.reference_double_pochhammer(ctx, u, "p", "q", 2, 2)))


class TestQAnalogues:
    def test_q_int(self):
        ctx = SeriesContext(("p",))
        assert q_int(ctx, 3, "p") == expand(ctx, [({}, 1), ({"p": 1}, 1), ({"p": 2}, 1)])
        assert q_int(ctx, 0, "p").is_zero

    def test_gaussian_rows(self):
        ctx = SeriesContext(("p", "q"))
        for base in ("p", MultiPoly.monomial(ctx, 1, p=1, q=2)):
            rows = _gaussian_rows(ctx, 5, base)
            assert [len(row) for row in rows] == [1, 2, 3, 4, 5, 6]
            for m, row in enumerate(rows):
                for j, binomial in enumerate(row):
                    assert binomial * q_factorial(ctx, j, base) \
                        * q_factorial(ctx, m - j, base) == q_factorial(ctx, m, base)
        assert _gaussian_rows(ctx, 0, "p") == [[1]]

    def test_hat_factorial_base_case(self):
        ctx = SeriesContext(("a", "p"))
        a = MultiPoly.variable(ctx, "a")
        assert hat_factorial(ctx, 1, a, "p") == expand(
            ctx, [({}, 1), ({"a": 1, "p": 1}, 1)])
        assert hat_factorial(ctx, 0, a, "p") == 1

    def test_two_param_bracket(self):
        ctx = SeriesContext(("a", "b"))
        got = bracket_two_param(ctx, 2, "a", "b")
        assert got == expand(ctx, [({"a": 1}, 1), ({"b": 1}, 1)])
        assert bracket_two_param(ctx, 0, "a", "b").is_zero


class TestHatMultinomial:
    def test_single_part(self):
        ctx = SeriesContext(("a", "p"))
        a = MultiPoly.variable(ctx, "a")
        assert hat_multinomial(ctx, (4,), a, "p") == 1

    def test_zero_hat_part(self):
        ctx = SeriesContext(("a", "p"))
        a = MultiPoly.variable(ctx, "a")
        p = MultiPoly.variable(ctx, "p")
        got = hat_multinomial(ctx, (0, 1, 1), a, "p")
        assert got == (1 + a * p) * (1 + a * p ** 2) * (1 + p)

    def test_hatted_split(self):
        ctx = SeriesContext(("a", "p"))
        a = MultiPoly.variable(ctx, "a")
        p = MultiPoly.variable(ctx, "p")
        got = hat_multinomial(ctx, (1, 1), a, "p")
        assert got == (1 + a * p ** 2) * (1 + p)

    def test_trivial_binomials_build_no_rows(self, monkeypatch):
        # [m choose 0] and [m choose m] are 1: only (5 choose 3) needs rows
        built = []
        rows = qseries._gaussian_rows
        monkeypatch.setattr(qseries, "_gaussian_rows",
                            lambda ctx, n, base: built.append(n) or rows(ctx, n, base))
        ctx = SeriesContext(("a", "p"))
        a = MultiPoly.variable(ctx, "a")
        p = MultiPoly.variable(ctx, "p")
        assert hat_multinomial(ctx, (2, 0, 3, 0), a, "p") \
            == pochhammer(ctx, -(a * p ** 3), p, 3) * rows(ctx, 5, p)[5][3]
        assert hat_multinomial(ctx, (1000,), a, "p") == 1
        assert hat_multinomial(ctx, (0,) * 1000, a, "p") == 1
        assert built == [5, 0, 0]

    def test_division_witness(self):
        # keylem's inputs: every color twist up to r = 4 and every weak
        # composition of n <= 5 into 1..4 parts
        ctx = SeriesContext(("a", "p"))
        twists = [MultiPoly.variable(ctx, "a")] \
            + [_color_twist(ctx, r) for r in range(1, 5)]
        compositions = [(2, 1), (1, 2), (0, 2, 1), (2, 0, 3), ()] \
            + [comp for n in range(6) for nparts in range(1, 5)
               for comp in _weak_compositions(n, nparts)]
        for a in twists:
            for parts in compositions:
                quotient = hat_multinomial(ctx, parts, a, "p")
                den = hat_factorial(ctx, parts[0] if parts else 0, a, "p")
                for part in parts[1:]:
                    den = den * q_factorial(ctx, part, "p")
                assert quotient * den == hat_factorial(ctx, sum(parts), a, "p"), parts

    def test_a_may_be_a_name(self):
        ctx = SeriesContext(("a", "p"))
        a = MultiPoly.variable(ctx, "a")
        assert hat_factorial(ctx, 3, "a", "p") == hat_factorial(ctx, 3, a, "p")
        assert hat_multinomial(ctx, (1, 0, 2), "a", "p") \
            == hat_multinomial(ctx, (1, 0, 2), a, "p")
        foreign = MultiPoly.variable(SeriesContext(("a", "p"), (2, None)), "a")
        for build in (lambda: hat_factorial(ctx, 3, foreign, "p"),
                      lambda: hat_multinomial(ctx, (1, 0, 2), foreign, "p"),
                      lambda: hat_multinomial(ctx, (), foreign, "p")):
            with pytest.raises(ContextMismatchError):
                build()


class TestExpSeries:
    """The test-side cleared exponential series, the oracle the full-product
    right sides build on."""

    def test_classical(self):
        ctx = SeriesContext(("u",), (3,))
        got = ref.exp_series(ctx, "classical", "u", 3)
        assert got.coefficient(u=2) == Fraction(1, 2)
        assert got.coefficient(u=3) == Fraction(1, 6)

    def test_scaled_plain(self):
        # returned series is the q-exponential times [2]_p!
        ctx = SeriesContext(("u", "p"), (2, None))
        got = ref.exp_series(ctx, "p", "u", 2, p_var="p")
        p = MultiPoly.variable(ctx, "p")
        u = MultiPoly.variable(ctx, "u")
        assert got == (1 + p) + (1 + p) * u + u ** 2

    def test_scaled_hat(self):
        ctx = SeriesContext(("u", "a", "p"), (1, None, None))
        a = MultiPoly.variable(ctx, "a")
        got = ref.exp_series(ctx, "hat", "u", 1, p_var="p", a_expr=a)
        p = MultiPoly.variable(ctx, "p")
        u = MultiPoly.variable(ctx, "u")
        assert got == (1 + a * p) + u

    def test_hat_reads_a_like_the_other_constructors(self):
        ctx = SeriesContext(("u", "a", "p"), (2, None, None))
        a = MultiPoly.variable(ctx, "a")
        assert ref.exp_series(ctx, "hat", "u", 2, "p", "a") \
            == ref.exp_series(ctx, "hat", "u", 2, "p", a)
        # the hatted series has no steps at cap 0, but still needs its a
        with pytest.raises(ValueError, match="hat exponential needs a_expr"):
            ref.exp_series(ctx, "hat", "u", 0, "p")
        other = SeriesContext(("u", "a", "p"), (3, None, None))
        with pytest.raises(ContextMismatchError):
            ref.exp_series(ctx, "hat", "u", 1, "p", MultiPoly.variable(other, "a"))

    def test_geometric_substitution_clears(self):
        # the coefficient of u^n in the p-exponential of u/(1-p) is 1/(p;p)_n
        for n in range(1, 4):
            ctx = SeriesContext(("u", "p"), (n, 6))
            p = MultiPoly.variable(ctx, "p")
            scale = ref.reciprocal(ref_poly(1 - p))
            cleared = ref_poly(ref.exp_series(ctx, "p", "u", n, p_var="p"))
            scaled = ref_poly(MultiPoly.variable(ctx, "u")) * scale
            shifted = ref.substitute(cleared, "u", scaled)
            top = ref.coefficient_of(shifted, "u", n)
            assert top * ref_poly(pochhammer(ctx, p, "p", n)) \
                == ref_poly(q_factorial(ctx, n, "p"))


@st.composite
def small_polys(draw, ctx):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 3)) for _ in ctx.variables)
        terms[exps] = draw(st.integers(-4, 4))
    return MultiPoly(ctx, terms)


class TestRingLaws:
    CTX = SeriesContext(("t", "q"), (4, 4))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_ring_identities(self, data):
        x = data.draw(small_polys(self.CTX))
        y = data.draw(small_polys(self.CTX))
        z = data.draw(small_polys(self.CTX))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


class TestSerialization:
    def test_text_lines(self):
        ctx = SeriesContext(("t", "q"), (4, 4))
        t = MultiPoly.variable(ctx, "t")
        q = MultiPoly.variable(ctx, "q")
        poly = 1 + 2 * t * q ** 3 + MultiPoly.constant(ctx, Fraction(1, 2)) * q
        assert poly.to_lines() == [
            "1/1 : 1",
            "1/2 : q^1",
            "2/1 : t^1 q^3",
        ]

    def test_json_objects(self):
        ctx = SeriesContext(("t",), (4,))
        t = MultiPoly.variable(ctx, "t")
        assert (1 + 2 * t).to_json_obj() == [
            {"coeff": "1/1", "exps": {}},
            {"coeff": "2/1", "exps": {"t": 1}},
        ]

    def test_coefficients_stay_exact(self):
        ctx = SeriesContext(("u",), (4,))
        u = MultiPoly.variable(ctx, "u")
        x = MultiPoly.constant(ctx, Fraction(1, 3)) * u
        assert (x * 3) == u
        assert (x * 3).terms[(1,)] == 1 and isinstance((x * 3).terms[(1,)], int)


class TestExponentLimit:
    def test_construction_overflow(self):
        ctx = SeriesContext(("q", "p"))
        assert MultiPoly.monomial(ctx, 1, p=MAX_EXPONENT).degree("p") == MAX_EXPONENT
        with pytest.raises(ExponentOverflowError):
            MultiPoly.monomial(ctx, 1, p=MAX_EXPONENT + 1)
        with pytest.raises(ValueError):
            MultiPoly.monomial(ctx, 1, p=-1)
        # A query for such an exponent is not an error: no term has it.
        p = MultiPoly.variable(ctx, "p")
        assert p.coefficient(p=MAX_EXPONENT + 1) == 0 and p.coefficient(p=-1) == 0

    def test_product_overflow_never_carries(self):
        # p sits below q, so a carry out of p's field would read as a q power.
        ctx = SeriesContext(("q", "p"))
        p = MultiPoly.variable(ctx, "p")
        top = MultiPoly.monomial(ctx, 1, p=MAX_EXPONENT)
        with pytest.raises(ExponentOverflowError):
            top * p
        with pytest.raises(ExponentOverflowError):
            (1 + top) * (1 + p)
        with pytest.raises(ExponentOverflowError):
            MultiPoly.monomial(ctx, 1, p=MAX_EXPONENT // 2 + 1) ** 2
        assert (top * MultiPoly.variable(ctx, "q")).terms == {(1, MAX_EXPONENT): 1}

    def test_kept_slice_overflow_raises(self):
        # Only the degrees up to top are built: h_1 of p^MAX and q is kept,
        # and h_2, which holds p^(2 MAX), raises.
        ctx = SeriesContext(("q", "p"))
        top = MultiPoly.monomial(ctx, 1, p=MAX_EXPONENT)
        q = MultiPoly.variable(ctx, "q")
        assert _homogeneous(ctx, [top, q], 1) == [1, top + q]
        with pytest.raises(ExponentOverflowError):
            _homogeneous(ctx, [top, q], 2)

    def test_no_power_beyond_the_last_factor(self):
        # (q^MAX; q)_1 and [1] with base q^MAX never form q^(MAX+1).
        ctx = SeriesContext(("q",))
        top = MultiPoly.monomial(ctx, 1, q=MAX_EXPONENT)
        assert pochhammer(ctx, top, "q", 1) == 1 - top
        assert double_pochhammer(ctx, top, "q", "q", 1, 1) == 1 - top
        assert q_int(ctx, 1, top) == 1

    def test_coefficient_product_context_mismatch(self):
        # a foreign term is refused even where no degree above 0 is built
        x = MultiPoly.variable(SeriesContext(("u", "q"), (2, None)), "q")
        for top in (0, 1):
            with pytest.raises(ContextMismatchError):
                _homogeneous(SeriesContext(("u", "q"), (3, None)), [x], top)

    def test_cap_too_large_rejected(self):
        with pytest.raises(ValueError):
            SeriesContext(("t",), (MAX_EXPONENT + 1,))
        ctx = SeriesContext(("t", "q"), (MAX_EXPONENT, None))
        t = MultiPoly.variable(ctx, "t")
        top = MultiPoly.monomial(ctx, 1, t=MAX_EXPONENT)
        assert (top * t).is_zero
        assert MultiPoly.monomial(ctx, 1, t=MAX_EXPONENT + 1).is_zero


# -- differential oracle: the packed ring against the tuple-key reference ----

_COEFFS = st.one_of(st.integers(-5, 5),
                    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def oracle_contexts(draw):
    names = draw(st.permutations(ALLOWED_VARIABLES))[:draw(st.integers(1, 7))]
    caps = tuple(draw(st.one_of(st.none(), st.integers(0, 6))) for _ in names)
    return SeriesContext(names, caps)


@st.composite
def oracle_terms(draw, ctx, max_terms=6):
    """Exponent-tuple terms, each exponent at most one past its cap."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, 4 if c is None else c + 1))
                     for c in ctx.caps)
        terms[exps] = draw(_COEFFS)
    return terms


def both(ctx, terms):
    return MultiPoly(ctx, terms), ref.RefPoly(ctx, terms)


def assert_same(packed, expected):
    assert packed.terms == expected.terms
    assert {e: type(c) for e, c in packed.terms.items()} \
        == {e: type(c) for e, c in expected.terms.items()}
    assert packed.to_lines() == expected.to_lines()


class TestReferenceOracle:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_ring_operations(self, data):
        ctx = data.draw(oracle_contexts())
        x, rx = both(ctx, data.draw(oracle_terms(ctx)))
        y, ry = both(ctx, data.draw(oracle_terms(ctx)))
        scalar = data.draw(_COEFFS)
        assert_same(x, rx)
        assert_same(x + y, rx + ry)
        assert_same(x - y, rx - ry)
        assert_same(-x, -rx)
        assert_same(x * y, rx * ry)
        assert_same(x * scalar, rx * scalar)
        assert_same(scalar - x, scalar - rx)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_large_products(self, data):
        # Enough term pairs that the reference takes its bucketed branch.
        ctx = data.draw(oracle_contexts())
        x, rx = both(ctx, data.draw(oracle_terms(ctx, max_terms=90)))
        y, ry = both(ctx, data.draw(oracle_terms(ctx, max_terms=90)))
        assert_same(x * y, rx * ry)
        assert_same(x * y * x, rx * ry * rx)


@st.composite
def oracle_monomials(draw, ctx):
    """One exponent-tuple term with a nonzero coefficient."""
    exps = tuple(draw(st.integers(0, 4 if c is None else c + 1)) for c in ctx.caps)
    return {exps: draw(_COEFFS.filter(bool))}


class TestProductKernel:
    """``__mul__`` and the fused ``_dot`` against the tuple-key product, on
    the monomial path and the bucketed one."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_products_match_reference(self, data):
        ctx = data.draw(oracle_contexts())
        x, rx = both(ctx, data.draw(oracle_terms(ctx, max_terms=12)))
        y, ry = both(ctx, data.draw(oracle_monomials(ctx)))
        z, rz = both(ctx, data.draw(oracle_terms(ctx)))
        scalar = data.draw(_COEFFS)
        k, rk = both(ctx, {(0,) * len(ctx.variables): scalar})
        for got, want in ((x * y, rx * ry), (y * x, ry * rx), (x * k, rx * rk),
                          (k * x, rk * rx), (scalar * x, rx * scalar)):
            assert_same(got, want)
        assert_same(qseries._dot(ctx, [(x, y), (z, y), (k, x), (x, z)]),
                    rx * ry + rz * ry + rk * rx + rx * rz)
        # products that cancel, wholly and in part, leave no zero terms
        assert_same(qseries._dot(ctx, [(x, y), (-x, y)]), ref.RefPoly(ctx))
        assert_same(qseries._dot(ctx, [(x, z), (x, y - z)]), rx * ry)
        assert_same(qseries._dot(ctx, []), ref.RefPoly(ctx))

    def test_monomial_operand_is_not_bucketed(self, monkeypatch):
        calls = []
        buckets = qseries._buckets
        monkeypatch.setattr(qseries, "_buckets",
                            lambda keys, mask: calls.append(len(keys)) or buckets(keys, mask))
        ctx = SeriesContext(("t", "q"), (2, None))
        x = expand(ctx, [({}, 1), ({"t": 1}, Fraction(1, 2)), ({"q": 3}, -2)])
        t = MultiPoly.variable(ctx, "t")
        assert x * t == t * x == qseries._dot(ctx, [(t, x)])
        assert x * 3 == 3 * x == x + x + x
        assert calls == []
        assert x * x == qseries._dot(ctx, [(x, x)])
        assert calls == [3, 3, 3, 3]

    def test_overflow_on_both_paths(self):
        # t is capped, so a product past its cap is dropped before its
        # uncapped field is looked at
        ctx = SeriesContext(("t", "p"), (1, None))
        t, p = MultiPoly.variable(ctx, "t"), MultiPoly.variable(ctx, "p")
        top = MultiPoly.monomial(ctx, 1, p=MAX_EXPONENT)
        for build in (lambda: top * p, lambda: p * top,
                      lambda: (1 + top) * (1 + p),
                      lambda: qseries._dot(ctx, [(t, t), (top, p)]),
                      lambda: qseries._dot(ctx, [(1 + t, 1 + p), (1 + top, 1 + t * p)])):
            with pytest.raises(ExponentOverflowError):
                build()
        assert (t * top * t).is_zero
        assert ((t + t * top) * (t + t * p)).is_zero

    def test_foreign_context_raises(self):
        ctx = SeriesContext(("u", "q"), (3, None))
        foreign = MultiPoly.variable(SeriesContext(("u", "q"), (2, None)), "q")
        x = MultiPoly.variable(ctx, "q") + 1
        for build in (lambda: x * foreign, lambda: foreign * x,
                      lambda: qseries._dot(ctx, [(x, x), (x, foreign)]),
                      lambda: qseries._dot(ctx, [(foreign, x)]),
                      lambda: qseries._dot(ctx, [(foreign, foreign)]),
                      lambda: _homogeneous(ctx, [x, foreign], 2)):
            with pytest.raises(ContextMismatchError):
                build()


# -- differential oracle: the q-analogue constructors against their loops ----

# u and p capped, q not; the bases cover capped, uncapped, mixed and zero
# monomials, and the lengths finite, zero, negative and infinite legs.
_PQ_CTX = SeriesContext(("u", "p", "q"), (3, 4, None))
_PQ_BASES = ("p", "q", "u",
             MultiPoly.monomial(_PQ_CTX, 1, p=1, q=1),
             MultiPoly.variable(_PQ_CTX, "p") + MultiPoly.variable(_PQ_CTX, "q"),
             MultiPoly.zero(_PQ_CTX))
_PQ_FACTORS = ("u", "p", "q", MultiPoly.constant(_PQ_CTX, 1),
               -MultiPoly.monomial(_PQ_CTX, 2, u=1, q=1), MultiPoly.zero(_PQ_CTX))
_PQ_LENGTHS = (None, -1, 0, 1, 2, 3)


def _constructed(build, *args):
    """The polynomial's text lines, or the error's type and message."""
    try:
        return build(*args).to_lines()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestConstructorOracle:
    def test_pochhammer_and_q_int(self):
        # the public products also take a scalar a, and refuse a float length
        for base in _PQ_BASES:
            for n in _PQ_LENGTHS + (2.0,):
                assert _constructed(q_int, _PQ_CTX, n, base) \
                    == _constructed(ref.reference_q_int, _PQ_CTX, n, base), (base, n)
                for a in _PQ_FACTORS + (2,):
                    args = (_PQ_CTX, a, base, n)
                    assert _constructed(pochhammer, *args) \
                        == _constructed(ref.reference_pochhammer, *args), args

    @pytest.mark.parametrize("p_base", _PQ_BASES)
    def test_double_pochhammer(self, p_base):
        for q_base in _PQ_BASES:
            for a in _PQ_FACTORS:
                for n in _PQ_LENGTHS:
                    for m in _PQ_LENGTHS:
                        args = (_PQ_CTX, a, p_base, q_base, n, m)
                        assert _constructed(double_pochhammer, *args) \
                            == _constructed(ref.reference_double_pochhammer, *args), args

    @pytest.mark.parametrize("names", [("a", "b"), ("q1", "q2")])
    def test_bracket_two_param(self, names):
        for caps in ((None, None), (2, 3), (0, None)):
            ctx = SeriesContext(names, caps)
            for m in range(-1, 7):
                args = (ctx, m, *names)
                assert _constructed(bracket_two_param, *args) \
                    == _constructed(ref.reference_bracket_two_param, *args), (caps, m)

    @pytest.mark.parametrize("names,t,base", [
        (("t", "q"), "t", "q"),
        (("t1", "t2", "q1", "q2", "a", "b"), "t2", "q2"),
    ])
    def test_reciprocal_pochhammer(self, names, t, base):
        # the one-t context of theorem_A, and theorem_B's, whose other t is
        # capped too
        for tcap in range(7):
            caps = tuple(tcap if v == t else 3 if v.startswith("t") else None
                         for v in names)
            ctx = SeriesContext(names, caps)
            for b in (base, MultiPoly.monomial(ctx, 1, **{base: 3})):
                for n in range(8):
                    want = ref.reciprocal(ref_poly(ref.reference_pochhammer(
                        ctx, MultiPoly.variable(ctx, t), b, n)))
                    got = _reciprocal_pochhammer(ctx, t, b, n)
                    assert_same(got, want)
                    assert got * pochhammer(ctx, t, b, n) == 1, (tcap, b, n)


class TestHomogeneousResume:
    def test_resumed_row_matches_and_is_left_unchanged(self):
        # theorem_B hands each cell's row on to the next cell
        ctx = SeriesContext(("t", "q", "a"), (3, None, None))
        terms = [MultiPoly.monomial(ctx, 1, t=1, q=i) for i in range(3)] + [
            MultiPoly.monomial(ctx, Fraction(1, 2), a=1, q=1), MultiPoly.variable(ctx, "q")]
        whole = _homogeneous(ctx, terms, 4)
        for cut in range(len(terms) + 1):
            head = _homogeneous(ctx, terms[:cut], 4)
            before = [h.to_lines() for h in head]
            assert _homogeneous(ctx, terms[cut:], 4, head) == whole, cut
            assert [h.to_lines() for h in head] == before, cut


def _tally_key(exps, width):
    return sum(e << (i * width) for i, e in enumerate(exps))


class TestFromTally:
    """The packed handover of a tally against the tuple path it replaced."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_tuple_handover(self, data):
        ctx = data.draw(oracle_contexts())
        width = data.draw(st.integers(3, 6))
        tally = {}
        for _ in range(data.draw(st.integers(0, 8))):
            # capped exponents up to two past the cap, each within the field
            exps = [data.draw(st.integers(0, 7 if c is None else min(c + 2, 7)))
                    for c in ctx.caps]
            tally[_tally_key(exps, width)] = data.draw(st.integers(1, 9))
        got = _from_tally(ctx, tally, width)
        want = ref.reference_from_tally(ctx, tally, width)
        assert got._keys == want._keys
        assert_same(got, ref_poly(want))

    @pytest.mark.parametrize("caps", [(None, None, None), (2, None, 0), (1, 3, 5)])
    def test_capped_and_uncapped_contexts(self, caps):
        ctx = SeriesContext(("t", "q", "a"), caps)
        width = 4
        counts = {exps: count for count, exps in enumerate(
            [(0, 0, 0), (1, 2, 0), (3, 1, 1), (2, 4, 6), (0, 15, 1)], 1)}
        tally = {_tally_key(exps, width): count for exps, count in counts.items()}
        got = _from_tally(ctx, tally, width)
        assert got == ref.reference_from_tally(ctx, tally, width)
        # every term within the caps is kept, and no other
        assert got.terms == {exps: count for exps, count in counts.items()
                             if all(c is None or e <= c for e, c in zip(exps, caps))}

    def test_capped_field_above_its_cap_is_dropped(self):
        ctx = SeriesContext(("t", "q"), (2, None))
        width = 5
        tally = {_tally_key((3, 1), width): 4, _tally_key((2, 1), width): 5,
                 _tally_key((17, 0), width): 6}
        got = _from_tally(ctx, tally, width)
        assert got.terms == {(2, 1): 5}
        assert got == ref.reference_from_tally(ctx, tally, width)

    def test_uncapped_overflow_raises_as_pack_does(self):
        ctx = SeriesContext(("t", "q", "p"), (2, None, None))
        width = 20
        for exps in ((0, MAX_EXPONENT + 1, 0), (1, 3, MAX_EXPONENT + 5)):
            tally = {_tally_key((0, 1, 1), width): 1, _tally_key(exps, width): 1}
            with pytest.raises(ExponentOverflowError) as got:
                _from_tally(ctx, tally, width)
            with pytest.raises(ExponentOverflowError) as want:
                ref.reference_from_tally(ctx, tally, width)
            assert str(got.value) == str(want.value)
        # a term past a cap is dropped before its other fields are read
        tally = {_tally_key((3, MAX_EXPONENT + 1, 0), width): 1}
        assert _from_tally(ctx, tally, width).is_zero
        assert ref.reference_from_tally(ctx, tally, width).is_zero
        top = {_tally_key((2, MAX_EXPONENT, MAX_EXPONENT), width): 7}
        assert _from_tally(ctx, top, width) == ref.reference_from_tally(ctx, top, width)


def _capless_mul_into(out, a, b, ctx):
    """_mul_into that keeps every product past a cap: a faulty core."""
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb


class TestInfiniteLegBound:
    """An infinite leg reads at most ``1 + sum of the caps`` factors, so a
    product that never truncates to zero cannot make it endless."""

    @pytest.mark.parametrize("caps", [(1, 1, None), (2, 3, None), (1, 4, 5)])
    def test_leg_ends_within_the_caps(self, monkeypatch, caps):
        ctx = SeriesContext(("p", "q", "a"), caps)
        bound = 1 + sum(c for c in caps if c is not None)
        p, a = MultiPoly.variable(ctx, "p"), MultiPoly.variable(ctx, "a")
        clean = [len(list(_factor_run(a, p, None))), len(list(_double_terms(
            ctx, 1, "p", "q", None, None)))]
        monkeypatch.setattr(qseries, "_mul_into", _capless_mul_into)
        assert not (p * p).is_zero  # the fault is in place
        # read one past the bound, so a leg without it fails rather than hangs
        leg = list(islice(_factor_run(a, p, None), bound + 1))
        assert len(leg) == bound
        terms = list(islice(_double_terms(ctx, 1, "p", "q", None, None),
                            bound * bound + 1))
        assert len(terms) == bound * bound
        assert clean == [caps[0] + 1, (caps[0] + 1) * (caps[1] + 1)]
