"""Tuple-key reference ring, the differential oracle for ``wreathstats.qseries``.

This is the straightforward implementation the packed ring replaced: every
monomial is an exponent tuple, products add tuples field by field (switching
to bucketing on the capped-exponent profile for large operands), and exact
division repeatedly divides out the smallest remaining term, taken from a
heap of the remainder's keys.  It shares ``SeriesContext`` with the
package, so a reference polynomial and a packed one built from the same
terms can be compared by ``terms`` and ``to_lines()``;
``RefPoly(ctx, x.terms)`` converts a packed polynomial.  The whole-series
tools the catalog no longer uses live only here: ``coefficient_of``,
``substitute``, ``divide_exact`` and ``reciprocal``, the general geometric
expansion, on ``RefPoly``, and
``exp_series``, the cleared exponential series, on the package's
``MultiPoly``.  ``reference_pochhammer``, ``reference_double_pochhammer``
and ``reference_q_int`` are the q-analogue constructors as they were written
before they shared one factor run, each with its own loop and the double
product with its own leg check, and ``reference_bracket_two_param`` the
two-parameter bracket as a sum of powers, before it was read from the
complete homogeneous sums; they also build on ``MultiPoly``.
``reference_from_tally`` is the handover of a packed tally to the ring as
the left sides made it before ``qseries._from_tally``: every key unpacked
into an exponent tuple, which ``MultiPoly`` checks and packs again.
It is imported only by the tests.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from wreathstats.qseries import (
    MultiPoly,
    _as_poly,
    q_int,
)

_DIVISION_STEP_LIMIT = 10**6


class NonUnitError(ValueError):
    """Reciprocal requested for a series whose constant term is not 1, or
    whose geometric expansion would not terminate."""


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a remainder."""


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def monomial_text(ctx, exps):
    return " ".join(f"{v}^{e}" for v, e in zip(ctx.variables, exps) if e) or "1"


class RefPoly:
    """Sparse polynomial keyed by exponent tuples, truncated to the caps."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        clean = {}
        if terms:
            caps = ctx.caps
            nv = len(ctx.variables)
            for exps, coeff in terms.items():
                if len(exps) != nv:
                    raise ValueError("exponent vector has wrong length")
                if any(c is not None and e > c for e, c in zip(exps, caps)):
                    continue
                coeff = _norm_coeff(coeff)
                if coeff:
                    clean[exps] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, ctx, value):
        return cls(ctx, {(0,) * len(ctx.variables): value})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def constant_term(self):
        return self.terms.get((0,) * len(self.ctx.variables), 0)

    def __eq__(self, other):
        if isinstance(other, RefPoly):
            return self.ctx == other.ctx and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == RefPoly.constant(self.ctx, other)
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.constant(self.ctx, other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return RefPoly(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.constant(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RefPoly(self.ctx)
            return RefPoly(self.ctx, {e: c * other for e, c in self.terms.items()})
        capped = self.ctx.capped_indices
        if capped and len(self.terms) * len(other.terms) > 4096:
            return self._mul_bucketed(other, capped)
        caps = self.ctx.caps
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if any(caps[i] is not None and exps[i] > caps[i] for i in capped):
                    continue
                out[exps] = out.get(exps, 0) + ca * cb
        return RefPoly(self.ctx, out)

    def _mul_bucketed(self, other, capped):
        caps = [self.ctx.caps[i] for i in capped]

        def buckets(poly):
            grouped = {}
            for exps, coeff in poly.terms.items():
                grouped.setdefault(tuple(exps[i] for i in capped), []).append((exps, coeff))
            return grouped

        ba, bb = buckets(self), buckets(other)
        out = {}
        for pa, terms_a in ba.items():
            for pb, terms_b in bb.items():
                if any(x + y > c for x, y, c in zip(pa, pb, caps)):
                    continue
                for ea, ca in terms_a:
                    for eb, cb in terms_b:
                        exps = tuple(x + y for x, y in zip(ea, eb))
                        out[exps] = out.get(exps, 0) + ca * cb
        return RefPoly(self.ctx, out)

    __rmul__ = __mul__

    def to_lines(self):
        lines = []
        for exps in sorted(self.terms):
            coeff = Fraction(self.terms[exps])
            mono = " ".join(f"{v}^{e}" for v, e in zip(self.ctx.variables, exps) if e)
            lines.append(f"{coeff.numerator}/{coeff.denominator} : {mono or '1'}")
        return lines


def coefficient_of(poly, name, exponent):
    i = poly.ctx.index(name)
    out = {}
    for exps, coeff in poly.terms.items():
        if exps[i] == exponent:
            e = list(exps)
            e[i] = 0
            out[tuple(e)] = coeff
    return RefPoly(poly.ctx, out)


def reciprocal(x):
    ctx = x.ctx
    if x.constant_term != 1:
        raise NonUnitError("reciprocal needs constant term 1")
    z = RefPoly.constant(ctx, 1) - x
    capped = ctx.capped_indices
    for exps in z.terms:
        if not any(exps[i] for i in capped):
            raise NonUnitError(
                "reciprocal does not terminate: term "
                f"{monomial_text(ctx, exps)} has no finitely capped variable")
    bound = sum(ctx.caps[i] for i in capped) if capped else 0
    result = RefPoly.constant(ctx, 1)
    power = RefPoly.constant(ctx, 1)
    for _ in range(bound):
        power = power * z
        if power.is_zero:
            break
        result = result + power
    return result


def substitute(x, name, value):
    ctx = x.ctx
    i = ctx.index(name)
    by_exp = {}
    for exps, coeff in x.terms.items():
        e = list(exps)
        e[i] = 0
        by_exp.setdefault(exps[i], {})[tuple(e)] = coeff
    result = RefPoly(ctx)
    power = RefPoly.constant(ctx, 1)
    current = 0
    for e in sorted(by_exp):
        while current < e:
            power = power * value
            current += 1
        result = result + RefPoly(ctx, by_exp[e]) * power
    return result


def divide_exact(num, den):
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    ctx = num.ctx
    den_min = min(den.terms)
    den_coeff = den.terms[den_min]
    quotient = {}
    rem = dict(num.terms)
    # Every key ever in rem is on the heap; one that has left rem is stale
    # and skipped.  A step only adds keys above its own, so the heap's
    # smallest live key is the remainder's smallest.
    heap = list(rem)
    heapify(heap)
    for _ in range(_DIVISION_STEP_LIMIT):
        while heap and heap[0] not in rem:
            heappop(heap)
        if not heap:
            return RefPoly(ctx, quotient)
        rmin = heappop(heap)
        qexp = tuple(x - y for x, y in zip(rmin, den_min))
        if any(e < 0 for e in qexp):
            raise InexactDivisionError(
                f"monomial {monomial_text(ctx, rmin)} is not divisible")
        qcoeff = _norm_coeff(Fraction(rem[rmin]) / den_coeff)
        quotient[qexp] = qcoeff
        for exps, coeff in den.terms.items():
            target = tuple(x + y for x, y in zip(qexp, exps))
            val = rem.get(target, 0) - qcoeff * coeff
            if val:
                if target not in rem:
                    heappush(heap, target)
                rem[target] = val
            else:
                rem.pop(target, None)
    raise InexactDivisionError("division did not terminate")


def reference_pochhammer(ctx, a_expr, base, n):
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    b = _as_poly(ctx, base)
    a = _as_poly(ctx, a_expr) if isinstance(a_expr, str) else a_expr
    result = MultiPoly.constant(ctx, 1)
    scale = a
    for _ in range(n):
        result = result * (MultiPoly.constant(ctx, 1) - scale)
        scale = scale * b
    return result


def reference_double_pochhammer(ctx, a_expr, p_base, q_base, n, m):
    pb = _as_poly(ctx, p_base)
    qb = _as_poly(ctx, q_base)
    a = _as_poly(ctx, a_expr) if isinstance(a_expr, str) else a_expr
    if not a.is_zero:
        for leg, b in (("first", pb), ("second", qb)) if (n is None or m is None) else ():
            if (leg == "first" and n is None) or (leg == "second" and m is None):
                for key in b._keys:
                    if not key & ctx._capped_mask:
                        raise ValueError(
                            f"infinite {leg} leg needs finite caps on its base variables")
    if n == 0 or m == 0:
        return MultiPoly.constant(ctx, 1)
    # In a ring that truncates, factor k of an infinite leg is zero past the
    # sum of the caps; a leg that runs on shows a faulty ring.
    bound = 1 + sum(c for c in ctx.caps if c is not None)
    result = MultiPoly.constant(ctx, 1)
    row = a
    i = 0
    while n is None or i < n:
        if row.is_zero:
            break
        if n is None and i == bound:
            raise RuntimeError("an infinite leg ran past the sum of the caps")
        term = row
        j = 0
        while m is None or j < m:
            if term.is_zero:
                break
            if m is None and j == bound:
                raise RuntimeError("an infinite leg ran past the sum of the caps")
            result = result * (MultiPoly.constant(ctx, 1) - term)
            term = term * qb
            j += 1
        row = row * pb
        i += 1
    return result


def reference_q_int(ctx, n, base):
    if n < 0:
        raise ValueError("q-integer of a negative integer")
    b = _as_poly(ctx, base)
    result = MultiPoly.zero(ctx)
    power = MultiPoly.constant(ctx, 1)
    for _ in range(n):
        result = result + power
        power = power * b
    return result


def reference_bracket_two_param(ctx, m, a_var, b_var):
    if m < 0:
        raise ValueError("bracket of a negative integer")
    a = _as_poly(ctx, a_var)
    b = _as_poly(ctx, b_var)
    result = MultiPoly.zero(ctx)
    for h in range(m):
        result = result + a ** h * b ** (m - 1 - h)
    return result


def reference_from_tally(ctx, tally, width):
    """The polynomial of a tally whose keys hold the exponent of variable i
    in bits ``[i*width, (i+1)*width)``, through exponent tuples."""
    field = (1 << width) - 1
    shifts = [i * width for i in range(len(ctx.variables))]
    acc = {tuple((key >> shift) & field for shift in shifts): count
           for key, count in tally.items()}
    return MultiPoly(ctx, acc)


def exp_series(ctx, kind, u_var, cap_u, p_var=None, a_expr=None):
    """Truncated exponential series in ``u_var`` up to degree ``cap_u``.

    kind "classical" returns ``sum u^m / m!`` with rational coefficients.
    The q-analogues cannot carry their reciprocal-factorial coefficients in
    a polynomial ring, so they come back multiplied through by the largest
    denominator: kind "p" returns the series times the q-factorial of
    ``cap_u`` (coefficient of ``u^m`` is the exact quotient of the two
    q-factorials), and kind "hat" returns the hatted series times the
    hatted factorial of ``cap_u``.  Callers cancel the clearing factor when
    they extract coefficients.
    """
    if cap_u is None or cap_u < 0:
        raise ValueError("exp_series needs a finite nonnegative u cap")
    one = MultiPoly.constant(ctx, 1)
    if kind == "classical":
        result = MultiPoly.zero(ctx)
        fact = 1
        for m in range(cap_u + 1):
            if m:
                fact *= m
            result = result + MultiPoly.monomial(ctx, Fraction(1, fact), **{u_var: m})
        return result
    if kind not in ("p", "hat"):
        raise ValueError(f"unknown exponential kind {kind!r}")
    if p_var is None:
        raise ValueError("q-analogue exponentials need p_var")
    p = _as_poly(ctx, p_var)
    if kind == "hat":
        if a_expr is None:
            raise ValueError("hat exponential needs a_expr")
        a = _as_poly(ctx, a_expr)
    # suffix[m] = factor for degrees m+1 .. cap_u, so coefficient of u^m is
    # the clearing factor divided by the degree-m factorial, with no division.
    coeff = one
    result = MultiPoly.monomial(ctx, 1, **{u_var: cap_u})
    for m in range(cap_u, 0, -1):
        step = q_int(ctx, m, p_var)
        if kind == "hat":
            step = step * (one + a * p ** m)
        coeff = coeff * step
        result = result + coeff * MultiPoly.monomial(ctx, 1, **{u_var: m - 1})
    return result
