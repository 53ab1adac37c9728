"""Exact sparse multivariate polynomials with per-variable truncation caps.

Polynomials live in a :class:`SeriesContext` that fixes an ordered variable
list and an optional exponent cap per variable.  Every operation truncates
eagerly: a term whose exponent exceeds a cap is dropped.  That is exact
arithmetic in the quotient ring modulo the monomial ideal generated by the
capped powers, so sums and products of truncated values agree with the
truncations of the exact results.

Each monomial is stored as one packed ``int`` key with a bit field per
variable, the first variable in the highest bits, so integer order on keys
is the lexicographic order of exponent vectors.  A capped variable's field
is just wide enough for its cap; an uncapped one is ``EXPONENT_BITS`` wide,
so no exponent may exceed ``MAX_EXPONENT`` (a larger cap is rejected by the
context).  One guard bit sits above every field.  Multiplying two monomials
is one integer addition, and after adding a per-context bias the guard bits
of the sum show a broken cap, which drops the product, while an uncapped
exponent outgrowing its field raises :class:`ExponentOverflowError` rather
than carrying into the next field.  ``MultiPoly.terms`` decodes the keys
back to exponent tuples.

Coefficients are arbitrary-precision rationals (plain ``int`` whenever the
denominator is one); there is no floating point anywhere.  On top of the
ring the module provides the q-analogue constructors used by the identity
checks: Pochhammer products, the terms of double Pochhammer products with
optional infinite legs and their complete homogeneous sums, folded in one
term at a time, q-integers, factorials and Gaussian binomials, the hatted
factorial and multinomial, and the two-parameter bracket.  Each
constructor reads its base and its ``a`` the same way: a variable name, a
rational constant, or a polynomial of the same context.  The ring has no
division and inverts no series: the one reciprocal the identity checks
need, ``1 / (t; q)_n`` for a capped t, is the sum of the complete
homogeneous sums of the terms ``t q^i``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat, takewhile
from operator import mul, or_

ALLOWED_VARIABLES = ("u", "t", "q", "p", "a", "b", "t1", "t2", "q1", "q2")

EXPONENT_BITS = 16
MAX_EXPONENT = (1 << EXPONENT_BITS) - 1


class ContextMismatchError(ValueError):
    """Two polynomials from different contexts met in a binary operation."""


class ExponentOverflowError(ValueError):
    """An uncapped exponent exceeds ``MAX_EXPONENT`` and does not fit its field."""


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _clean(terms):
    """Drop zero coefficients and turn integral Fractions into ints, in place."""
    zeros = []
    for key, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[key] = c = c.numerator
        if not c:
            zeros.append(key)
    for key in zeros:
        del terms[key]
    return terms


class SeriesContext:
    """Ordered variable list with per-variable exponent caps (None = uncapped).

    The context also fixes the packed key layout: ``_fields`` holds the
    (shift, mask) of each variable's field, ``_capped_guard`` and
    ``_free_guard`` the guard bits above the capped and the uncapped fields,
    ``_capped_mask`` the bits of the capped fields, and ``_cap_bias`` the
    per-field ``2**width - 1 - cap`` that pushes a capped field past its
    guard bit exactly when it exceeds the cap.
    """

    __slots__ = ("variables", "caps", "_index", "_fields", "_capped_mask",
                 "_cap_bias", "_capped_guard", "_free_guard")

    def __init__(self, variables, caps=None):
        variables = tuple(variables)
        for v in variables:
            if v not in ALLOWED_VARIABLES:
                raise ValueError(f"unknown variable name {v!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if caps is None:
            caps = (None,) * len(variables)
        caps = tuple(caps)
        if len(caps) != len(variables):
            raise ValueError("caps must match variables")
        for c in caps:
            if c is not None and (not isinstance(c, int) or c < 0):
                raise ValueError(f"invalid cap {c!r}")
            if c is not None and c > MAX_EXPONENT:
                raise ValueError(f"cap {c} exceeds the exponent limit {MAX_EXPONENT}")
        fields = []
        shift = guard = capped_mask = cap_bias = capped_guard = 0
        for c in reversed(caps):
            width = EXPONENT_BITS if c is None else c.bit_length()
            mask = (1 << width) - 1
            fields.append((shift, mask))
            guard |= (mask + 1) << shift
            if c is not None:
                capped_mask |= mask << shift
                cap_bias |= (mask - c) << shift
                capped_guard |= (mask + 1) << shift
            shift += width + 1
        fields.reverse()
        set_ = object.__setattr__
        set_(self, "variables", variables)
        set_(self, "caps", caps)
        set_(self, "_index", {v: i for i, v in enumerate(variables)})
        set_(self, "_fields", tuple(fields))
        set_(self, "_capped_mask", capped_mask)
        set_(self, "_cap_bias", cap_bias)
        set_(self, "_capped_guard", capped_guard)
        set_(self, "_free_guard", guard & ~capped_guard)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesContext is immutable")

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"variable {name!r} not in context") from None

    def cap(self, name):
        return self.caps[self.index(name)]

    @property
    def capped_indices(self):
        return tuple(i for i, c in enumerate(self.caps) if c is not None)

    def _pack(self, exps):
        """Packed key of an exponent vector, or None if a cap drops it."""
        if len(exps) != len(self.variables):
            raise ValueError("exponent vector has wrong length")
        if any(c is not None and e > c for e, c in zip(exps, self.caps)):
            return None
        key = 0
        for e, (shift, mask) in zip(exps, self._fields):
            if not 0 <= e <= mask:
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                raise ExponentOverflowError(
                    f"exponent {e} exceeds the limit {MAX_EXPONENT}")
            key |= e << shift
        return key

    def _unpack(self, key):
        return tuple([(key >> shift) & mask for shift, mask in self._fields])

    def __eq__(self, other):
        return (isinstance(other, SeriesContext)
                and self.variables == other.variables
                and self.caps == other.caps)

    def __hash__(self):
        return hash((self.variables, self.caps))

    def __repr__(self):
        caps = ", ".join(f"{v}<={c}" if c is not None else v
                         for v, c in zip(self.variables, self.caps))
        return f"SeriesContext({caps})"


def _poly(ctx, keys):
    """Wrap a clean packed-key dict without re-validating it."""
    poly = object.__new__(MultiPoly)
    poly.ctx = ctx
    poly._keys = keys
    return poly


def _value_at_one(poly):
    """``poly`` with every variable at 1: the sum of its coefficients, read
    without unpacking a key."""
    return sum(poly._keys.values())


def _from_tally(ctx, tally, width):
    """The polynomial of a tally of positive counts whose keys hold the
    exponent of variable i in bits ``[i*width, (i+1)*width)``, built in the
    context's packed keys directly: a term past a cap is dropped, and an
    uncapped exponent past ``MAX_EXPONENT`` raises as ``_pack`` does."""
    field = (1 << width) - 1
    # capped fields first, so that a dropped term raises nothing, as in _pack
    layout = sorted(((i * width, shift, cap) for i, ((shift, _), cap)
                     in enumerate(zip(ctx._fields, ctx.caps))),
                    key=lambda entry: entry[2] is None)
    keys = {}
    for packed, count in tally.items():
        key = 0
        for at, shift, cap in layout:
            e = (packed >> at) & field
            if cap is None:
                if e > MAX_EXPONENT:
                    raise ExponentOverflowError(
                        f"exponent {e} exceeds the limit {MAX_EXPONENT}")
            elif e > cap:
                break
            key |= e << shift
        else:
            keys[key] = count
    return _poly(ctx, keys)


def _buckets(keys, capped_mask):
    """Terms grouped by their capped-field bits, as (profile, [(key, coeff)])."""
    grouped = {}
    for key, c in keys.items():
        grouped.setdefault(key & capped_mask, []).append((key, c))
    return list(grouped.items())


def _check_ctx(ctx, x):
    if x.ctx is not ctx and x.ctx != ctx:
        raise ContextMismatchError(
            f"operands live in different contexts: {ctx} vs {x.ctx}")


def _mul_into(out, a, b, ctx):
    """Add the product of the packed-key dicts ``a`` and ``b`` into ``out``,
    dropping the terms past a cap; ``out`` is left uncleaned."""
    if not a or not b:
        return
    bias, capped_guard = ctx._cap_bias, ctx._capped_guard
    get = out.get
    if len(a) == 1 or len(b) == 1:
        # a monomial operand: one pass over the other, with no buckets
        if len(b) != 1:
            a, b = b, a
        (kb, cb), = b.items()
        for ka, ca in a.items():
            key = ka + kb
            if not (key + bias) & capped_guard:
                out[key] = get(key, 0) + ca * cb
    else:
        # Bucket pairs whose capped fields overflow a cap are skipped whole;
        # inside a surviving pair every product key is a plain addition.
        capped_mask = ctx._capped_mask
        buckets_b = _buckets(b, capped_mask)
        for pa, terms_a in _buckets(a, capped_mask):
            for pb, terms_b in buckets_b:
                if (pa + pb + bias) & capped_guard:
                    continue
                for ka, ca in terms_a:
                    for kb, cb in terms_b:
                        key = ka + kb
                        out[key] = get(key, 0) + ca * cb
    # The or of all keys bounds every field, so an uncapped field can only
    # have reached its guard bit if the two bounds together reach it; every
    # key already in ``out`` has its guard bits clear.
    free_guard = ctx._free_guard
    if free_guard and (reduce(or_, a) + reduce(or_, b)) & free_guard:
        for key in out:
            if key & free_guard:
                raise ExponentOverflowError(
                    f"a product exponent exceeds the limit {MAX_EXPONENT}")


def _dot(ctx, pairs):
    """The sum of ``x * y`` over the pairs of ``ctx``, built in one dict."""
    out = {}
    for x, y in pairs:
        _check_ctx(ctx, x)
        _check_ctx(ctx, y)
        _mul_into(out, x._keys, y._keys, ctx)
    return _poly(ctx, _clean(out))


class MultiPoly:
    """Sparse polynomial over the rationals, truncated to its context's caps.

    Treat instances as immutable values: every operation returns a new
    polynomial and never mutates its operands.
    """

    __slots__ = ("ctx", "_keys")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        keys = {}
        if terms:
            pack = ctx._pack
            for exps, coeff in terms.items():
                key = pack(exps)
                if key is None:
                    continue
                coeff = _norm_coeff(coeff)
                if coeff:
                    keys[key] = coeff
        self._keys = keys

    @property
    def terms(self):
        """Exponent tuple -> coefficient, decoded from the packed keys."""
        unpack = self.ctx._unpack
        return {unpack(key): c for key, c in self._keys.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def constant(cls, ctx, value):
        return cls(ctx, {(0,) * len(ctx.variables): value})

    @classmethod
    def variable(cls, ctx, name, exponent=1):
        exps = [0] * len(ctx.variables)
        exps[ctx.index(name)] = exponent
        return cls(ctx, {tuple(exps): 1})

    @classmethod
    def monomial(cls, ctx, coeff, **exponents):
        exps = [0] * len(ctx.variables)
        for name, e in exponents.items():
            exps[ctx.index(name)] = e
        return cls(ctx, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self):
        return not self._keys

    @property
    def constant_term(self):
        return self._keys.get(0, 0)

    def coefficient(self, **exponents):
        exps = [0] * len(self.ctx.variables)
        for name, e in exponents.items():
            exps[self.ctx.index(name)] = e
        try:
            key = self.ctx._pack(tuple(exps))
        except ValueError:
            return 0  # a negative or oversized exponent names no stored term
        return 0 if key is None else self._keys.get(key, 0)

    def degree(self, name):
        """Largest exponent of ``name`` present, -1 for the zero polynomial."""
        shift, mask = self.ctx._fields[self.ctx.index(name)]
        return max(((key >> shift) & mask for key in self._keys), default=-1)

    def __len__(self):
        return len(self._keys)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ctx == other.ctx and self._keys == other._keys
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.ctx, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, frozenset(self._keys.items())))

    def __repr__(self):
        if not self._keys:
            return "MultiPoly(0)"
        return "MultiPoly(" + "; ".join(self.to_lines()[:4]) + ("; ..." if len(self._keys) > 4 else "") + ")"

    # -- ring operations ---------------------------------------------------

    # A foreign operand (a float, say) gets NotImplemented, so it raises TypeError.
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.ctx, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        _check_ctx(self.ctx, other)
        keys = dict(self._keys)
        get = keys.get
        for key, c in other._keys.items():
            keys[key] = get(key, 0) + c
        return _poly(self.ctx, _clean(keys))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ctx, {key: -c for key, c in self._keys.items()})

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.ctx, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return _dot(self.ctx, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(self.ctx, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- serialization -----------------------------------------------------

    def to_lines(self):
        """Sorted text form, one ``"<num>/<den> : <monomial>"`` line per term."""
        lines = []
        unpack = self.ctx._unpack
        for key in sorted(self._keys):
            coeff = Fraction(self._keys[key])
            mono = monomial_text(self.ctx, unpack(key))
            lines.append(f"{coeff.numerator}/{coeff.denominator} : {mono}")
        return lines

    def to_json_obj(self):
        out = []
        unpack = self.ctx._unpack
        for key in sorted(self._keys):
            coeff = Fraction(self._keys[key])
            out.append({
                "coeff": f"{coeff.numerator}/{coeff.denominator}",
                "exps": {v: e for v, e in zip(self.ctx.variables, unpack(key)) if e},
            })
        return out


def monomial_text(ctx, exps):
    """Human-readable form of one exponent vector, ``"1"`` for the constant."""
    return " ".join(f"{v}^{e}" for v, e in zip(ctx.variables, exps) if e) or "1"


# -- q-analogue constructors ----------------------------------------------


def _as_poly(ctx, base):
    """A variable name, a rational constant or a ``MultiPoly`` of ``ctx``,
    as a ``MultiPoly`` of ``ctx``."""
    if isinstance(base, str):
        return MultiPoly.variable(ctx, base)
    if isinstance(base, (int, Fraction)):
        return MultiPoly.constant(ctx, base)
    if isinstance(base, MultiPoly):
        if base.ctx != ctx:
            raise ContextMismatchError("base lives in a different context")
        return base
    raise TypeError("base must be a variable name, a rational or a MultiPoly")


def _factor_run(a, b, n, leg="first"):
    """The factors ``a, a*b, a*b^2, ...``, each built when it is read: ``n``
    of them (none for ``n <= 0``), or for ``n`` None, an infinite leg, those
    before the first one that is zero within the caps.  An infinite leg with
    ``a`` nonzero needs a capped variable in every monomial of ``b``; that
    is checked at once, before any factor is read.  Factor k then has
    capped degree at least k, so it is zero past the sum of the caps, and
    no more than ``1 + sum of the caps`` factors are read."""
    factors = accumulate(repeat(b), mul, initial=a)
    if n is not None:
        return (factor for _, factor in zip(range(n), factors))
    if not a.is_zero and not all(key & b.ctx._capped_mask for key in b._keys):
        raise ValueError(f"infinite {leg} leg needs finite caps on its base variables")
    bound = 1 + sum(c for c in b.ctx.caps if c is not None)
    return takewhile(lambda factor: not factor.is_zero, islice(factors, bound))


def pochhammer(ctx, a_expr, base, n):
    """Product ``(1 - a) (1 - a*b) ... (1 - a*b^(n-1))`` for ``b = base``."""
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    b = _as_poly(ctx, base)
    a = _as_poly(ctx, a_expr)
    result = one = MultiPoly.constant(ctx, 1)
    for factor in _factor_run(a, b, n):
        result = result * (one - factor)
    return result


def _reciprocal_pochhammer(ctx, t, base, n):
    """``1 / (t; b)_n`` for ``b = base`` and ``t`` the name of a capped
    variable: the sum of the complete homogeneous sums ``h_k`` of the terms
    ``t, t*b, ..., t*b^(n-1)``, the q-binomial series.  Every term carries
    ``t``, so ``h_k`` carries ``t^k`` and the sums up to the cap of ``t``
    are the whole reciprocal within the caps."""
    terms = _factor_run(MultiPoly.variable(ctx, t), _as_poly(ctx, base), n)
    return sum(_homogeneous(ctx, terms, ctx.cap(t)), MultiPoly.zero(ctx))


def _double_terms(ctx, a_expr, p_base, q_base, n, m):
    """The terms ``a * p^i * q^j`` of a double Pochhammer product, rows
    outside and columns inside, each built when it is read.  Both legs are
    checked at once, before any term is read."""
    pb = _as_poly(ctx, p_base)
    qb = _as_poly(ctx, q_base)
    a = _as_poly(ctx, a_expr)
    rows = _factor_run(a, pb, n, "first")
    # the second leg is checked on a itself, so also when there is no row
    _factor_run(a, qb, m, "second")
    return (term for row in rows for term in _factor_run(row, qb, m, "second"))


def _homogeneous(ctx, terms, top, row=None):
    """The complete homogeneous sums ``[h_0, ..., h_top]`` of ``terms``, or,
    given ``row``, the sums of the terms behind ``row`` and ``terms``
    together.  ``h_m`` is the u^m coefficient of the product of the
    ``1 / (1 - x u)`` over the terms ``x``.  The terms are folded in one at
    a time by ``h_m(x_1..x_j) = h_m(x_1..x_(j-1)) + x_j h_(m-1)(x_1..x_j)``,
    m rising, so only degrees up to ``top`` are ever built.  Each term is
    multiplied into one dict per degree, in place; a given ``row`` is
    copied once, and each sum is cleaned once, at the end."""
    sums = ([dict(h._keys) for h in row] if row
            else [{0: 1}] + [{} for _ in range(top)])
    for x in terms:
        _check_ctx(ctx, x)
        for m in range(1, top + 1):
            _mul_into(sums[m], x._keys, sums[m - 1], ctx)
    return [_poly(ctx, _clean(h)) for h in sums]


def q_int(ctx, n, base):
    """q-integer ``1 + b + ... + b^(n-1)``; 0 for ``n == 0``."""
    if n < 0:
        raise ValueError("q-integer of a negative integer")
    b = _as_poly(ctx, base)
    return sum(_factor_run(MultiPoly.constant(ctx, 1), b, n), MultiPoly.zero(ctx))


def _gaussian_rows(ctx, n, base):
    """Rows ``0..n`` of the Gaussian binomials ``[m choose j]`` in base ``b``,
    by Pascal's rule ``[m choose j] = [m-1 choose j-1] + b^j [m-1 choose j]``."""
    one = MultiPoly.constant(ctx, 1)
    powers = list(_factor_run(one, _as_poly(ctx, base), n))
    rows = [[one]]
    for m in range(1, n + 1):
        prev = rows[-1]
        rows.append([one] + [prev[j - 1] + powers[j] * prev[j]
                             for j in range(1, m)] + [one])
    return rows


def q_factorial(ctx, n, base):
    """q-factorial, the product of the q-integers 1..n; 1 for ``n == 0``."""
    result = MultiPoly.constant(ctx, 1)
    for i in range(1, n + 1):
        result = result * q_int(ctx, i, base)
    return result


def hat_factorial(ctx, n, a_expr, p_var):
    """Hatted factorial ``(-a*p; p)_n`` times the q-factorial of ``n``."""
    p = _as_poly(ctx, p_var)
    shifted = -(_as_poly(ctx, a_expr) * p)
    return pochhammer(ctx, shifted, p, n) * q_factorial(ctx, n, p_var)


def bracket_two_param(ctx, m, a_var, b_var):
    """Two-parameter bracket ``sum_{h=0}^{m-1} a^h b^(m-1-h)``, the complete
    homogeneous sum ``h_(m-1)(a, b)``; 0 for ``m == 0``."""
    if m < 0:
        raise ValueError("bracket of a negative integer")
    terms = (_as_poly(ctx, a_var), _as_poly(ctx, b_var))
    if m == 0:
        return MultiPoly.zero(ctx)
    return _homogeneous(ctx, terms, m - 1)[m - 1]


def _hat_multinomial(ctx, parts, a, p, rows):
    """``hat_multinomial`` of a valid composition, ``a`` and ``p`` polynomials
    of ``ctx``, reading its binomials from the Gaussian rows in base ``p``."""
    head, total = (parts[0] if parts else 0), sum(parts)
    result = pochhammer(ctx, -(a * p ** (head + 1)), p, total - head)
    for m, part in zip(accumulate(parts), parts):
        if 0 < part < m:
            result = result * rows[m][part]
    return result


def hat_multinomial(ctx, parts, a_expr, p_var):
    """Hatted multinomial coefficient for the composition ``parts``.

    The first part ``k`` carries the hat: the hatted factorial of the total
    ``n`` over that of ``k`` and the q-factorials of the other parts, built
    with no division as ``(-a*p^(k+1); p)_(n-k)`` times the Gaussian
    binomials ``[m_j choose parts[j]]``, ``m_j`` the running totals.  A
    binomial with ``parts[j]`` 0 or ``m_j`` is 1 and is skipped, so Gaussian
    rows, up to ``n``, are built only when two parts are nonzero.
    """
    parts = tuple(parts)
    if any(part < 0 for part in parts):
        raise ValueError("composition parts must be nonnegative")
    p = _as_poly(ctx, p_var)
    top = sum(parts) if sum(1 for part in parts if part) > 1 else 0
    return _hat_multinomial(ctx, parts, _as_poly(ctx, a_expr), p, _gaussian_rows(ctx, top, p))
