"""Full-product right sides, the differential oracles for the u-graded
right sides of ``theorem_A``, ``reiner``, ``brenti``, ``theorem_B``,
``gessel_roselle`` and ``adin_roichman``, and the per-element loop of
``projection``.

The package no longer has the whole-series tools they read, so
``coefficient_of``, ``substitute``, ``divide_exact`` and every reciprocal
here are those of ``reference_qseries``: each packed argument
goes in as ``RefPoly(ctx, x.terms)`` and the result comes back as a
``MultiPoly``, so the products stay in the packed ring and the results are
compared with the package's by ``to_lines()``.

``reference_theorem_A_rhs`` and ``reference_reiner_rhs`` are the builders
``identities`` used before its coefficient-only products: each step forms
the whole product of the cleared exponential series up to u^n (substituted
u -> q^k u, or u -> (1 - t)u), takes its u^n coefficient with
``coefficient_of``, divides out the clearing factor with ``divide_exact``,
and extends the running product and the clearing factor on every step,
including the last.  ``reference_brenti_rhs`` is ``brenti``'s right side
before its u^n slices: the classical exponential series substituted
u -> (1 - t)u and u -> L(1 - t)u, and the reciprocal of the whole series
``1 - t e^(L(1 - t)u)``.  ``reference_theorem_B_rhs_term`` takes the u^n
coefficient of the reciprocal of the whole product of the two double
Pochhammer products.  They take the same arguments as
``identities._theorem_A_rhs``, ``identities._reiner_rhs``,
``identities._brenti_rhs`` and ``identities._theorem_B_rhs_term``, in a
context that also has ``u``, capped at n (at nmax for ``brenti``, whose
context has it already).  ``reference_gessel_roselle_rhs`` and
``reference_adin_roichman_rhs`` are the right-side loops of those entries
before the complete homogeneous sums: the product of the reciprocals of
the double product's factors, each a geometric series in a context with
``u``, read with ``coefficient_of``.  They return the right sides for
n = 0..ucap.  ``reference_projection`` is the ``projection`` entry before
it walked window tuples: one checked element per step of
``enumerate_group``, read through ``statistics``, ``project_to_signed`` and
two ``inverse`` calls.  ``reference_first_mismatch`` is
``verify_identity``'s compare before it tested the two sides for equality:
it subtracts them in every polynomial case.  This module is imported only
by the tests.
"""

from __future__ import annotations

import reference_qseries as ref
from reference_qseries import (
    exp_series,
    reference_bracket_two_param,
    reference_double_pochhammer,
)
from wreathstats.group import (
    _descent_set,
    enumerate_group,
    inverse,
    project_to_signed,
    statistics,
)
from wreathstats.identities import (
    CATALOG,
    DEFAULT_MAX_ELEMENTS,
    _color_twist,
)
from wreathstats.qseries import (
    MultiPoly,
    SeriesContext,
    _double_terms,
    monomial_text,
    pochhammer,
    q_factorial,
    q_int,
)


def _through_reference(tool):
    """``tool`` of ``reference_qseries`` on packed polynomials: each
    polynomial argument goes in as ``RefPoly(ctx, x.terms)``, and the result
    comes back as a ``MultiPoly``."""
    def packed(*args):
        args = [ref.RefPoly(x.ctx, x.terms) if isinstance(x, MultiPoly) else x
                for x in args]
        result = tool(*args)
        return MultiPoly(result.ctx, result.terms)
    return packed


coefficient_of = _through_reference(ref.coefficient_of)
divide_exact = _through_reference(ref.divide_exact)
substitute = _through_reference(ref.substitute)
reference_reciprocal = _through_reference(ref.reciprocal)


def reference_theorem_A_rhs(ctx, r, n, tmax):
    a = MultiPoly.variable(ctx, "a")
    twist = a * q_int(ctx, r - 1, MultiPoly.monomial(ctx, 1, a=1, p=1))
    plain = exp_series(ctx, "p", "u", n, p_var="p")
    hatted = exp_series(ctx, "hat", "u", n, p_var="p", a_expr=twist)
    nfact = q_factorial(ctx, n, "p")
    rhs = MultiPoly.zero(ctx)
    clearing = MultiPoly.constant(ctx, 1)
    running = MultiPoly.constant(ctx, 1)
    for k in range(tmax + 1):
        qk = MultiPoly.monomial(ctx, 1, q=k, u=1)
        prod = substitute(hatted, "u", qk) * running
        term = divide_exact(coefficient_of(prod, "u", n), clearing)
        rhs = rhs + MultiPoly.monomial(ctx, 1, t=k) * term
        clearing = clearing * nfact
        if k < tmax:
            running = running * substitute(plain, "u", qk)
    return rhs


def reference_reiner_rhs(ctx, r, n):
    tcap = n + 1
    hat_param = q_int(ctx, r - 1, "p")
    plain = exp_series(ctx, "p", "u", n, p_var="p")
    hatted = exp_series(ctx, "hat", "u", n, p_var="p", a_expr=hat_param)
    one = MultiPoly.constant(ctx, 1)
    shrink = one - MultiPoly.variable(ctx, "t")
    scaled = shrink * MultiPoly.variable(ctx, "u")
    plain_v = substitute(plain, "u", scaled)
    hat_v = substitute(hatted, "u", scaled)
    nfact = q_factorial(ctx, n, "p")
    rhs = MultiPoly.zero(ctx)
    power = MultiPoly.constant(ctx, 1)
    clearing = MultiPoly.constant(ctx, 1)
    for j in range(tcap + 1):
        term = divide_exact(coefficient_of(hat_v * power, "u", n), clearing)
        rhs = rhs + MultiPoly.monomial(ctx, 1, t=j) * term
        power = power * plain_v
        clearing = clearing * nfact
    return shrink * rhs


def reference_brenti_rhs(ctx, r, nmax):
    one = MultiPoly.constant(ctx, 1)
    t = MultiPoly.variable(ctx, "t")
    a = MultiPoly.variable(ctx, "a")
    shrink = one - t
    classical = exp_series(ctx, "classical", "u", nmax)
    lift = one + a * q_int(ctx, r - 1, "a")
    outer = substitute(classical, "u", shrink * MultiPoly.variable(ctx, "u"))
    inner = substitute(classical, "u", lift * shrink * MultiPoly.variable(ctx, "u"))
    return shrink * outer * reference_reciprocal(one - t * inner)


def reference_theorem_B_rhs_term(ctx, r, n, k1, k2):
    u = MultiPoly.variable(ctx, "u")
    first = reference_double_pochhammer(ctx, u, "q1", "q2", k1 + 1, k2 + 1)
    marked = MultiPoly.monomial(ctx, 1, a=1, b=1) \
        * reference_bracket_two_param(ctx, r - 1, "a", "b") * u
    second = reference_double_pochhammer(ctx, marked, "q1", "q2", k1, k2)
    return coefficient_of(reference_reciprocal(first * second), "u", n)


def _reciprocal_double_pochhammer(ctx, a_expr, p_base, q_base, n, m):
    result = one = MultiPoly.constant(ctx, 1)
    for term in _double_terms(ctx, a_expr, p_base, q_base, n, m):
        result = result * reference_reciprocal(one - term)
    return result


def reference_gessel_roselle_rhs(r, ucap, pcap, qcap):
    ctx = SeriesContext(("u", "p", "q"), (ucap, pcap, qcap))
    u = MultiPoly.variable(ctx, "u")
    series = _reciprocal_double_pochhammer(ctx, u, "p", "q", None, None)
    p = MultiPoly.variable(ctx, "p")
    rhs = []
    for n in range(ucap + 1):
        clear = pochhammer(ctx, MultiPoly.variable(ctx, "q"), "q", n) \
            * pochhammer(ctx, -(p * q_int(ctx, r - 1, "p")), "p", n) \
            * pochhammer(ctx, p, "p", n)
        rhs.append(coefficient_of(series, "u", n) * clear)
    return rhs


def reference_adin_roichman_rhs(r, ucap, qcap):
    ctx = SeriesContext(("u", "q1", "q2"), (ucap, qcap, qcap))
    u = MultiPoly.variable(ctx, "u")
    b1 = MultiPoly.monomial(ctx, 1, q1=r)
    b2 = MultiPoly.monomial(ctx, 1, q2=r)
    marked = MultiPoly.monomial(ctx, 1, q1=1, q2=1) \
        * reference_bracket_two_param(ctx, r - 1, "q1", "q2") * u
    series = _reciprocal_double_pochhammer(ctx, u, b1, b2, None, None) \
        * _reciprocal_double_pochhammer(ctx, marked, b1, b2, None, None)
    rhs = []
    for n in range(ucap + 1):
        clear = pochhammer(ctx, b1, b1, n) * pochhammer(ctx, b2, b2, n)
        rhs.append(coefficient_of(series, "u", n) * clear)
    return rhs


def reference_projection(max_elements, r, n):
    ctx = SeriesContext(("p", "a"))
    buckets = {}
    for gamma in enumerate_group(r, n, max_elements):
        flat = project_to_signed(gamma)
        rec, flat_des = statistics(gamma), _descent_set(flat.sigma, flat.colors)
        if rec.des_set != flat_des:
            yield ("fact", f"descents of {gamma}", False,
                   f"{sorted(rec.des_set)} vs {sorted(flat_des)}"
                   " after forgetting colors")
            return
        inv, flat_inv = inverse(gamma), inverse(flat)
        if (_descent_set(inv.sigma, inv.colors)
                != _descent_set(flat_inv.sigma, flat_inv.colors)):
            yield ("fact", f"inverse descents of {gamma}", False,
                   "descent sets of the inverses differ after forgetting colors")
            return
        entry = buckets.setdefault(flat, {})
        exps = (rec.length, rec.col)
        entry[exps] = entry.get(exps, 0) + 1
    yield ("fact", f"descent preservation r={r} n={n}", True, None)
    twist = _color_twist(ctx, r)
    # enumerate_group's order (sigma, then signs) fixes the order of the cases
    for flat in enumerate_group(2, n):
        rec = statistics(flat)
        lhs = MultiPoly(ctx, buckets.get(flat, {}))
        rhs = MultiPoly.monomial(ctx, 1, p=rec.length) * twist ** rec.col
        label = f"fiber over sigma={flat.sigma} signs={flat.colors} (r={r})"
        yield ("poly", label, lhs, rhs)


def reference_first_mismatch(name, corrupt):
    """The mismatch of catalog entry ``name`` at its defaults, with the
    lexicographically first coefficient of the ``corrupt`` side of its first
    polynomial case raised by 1, or None when every case agrees."""
    func, params = CATALOG[name]
    pending = corrupt
    for case in func(DEFAULT_MAX_ELEMENTS, **params):
        if case[0] != "poly":
            _, label, ok, detail = case
            if not ok:
                return {"case": label, "detail": detail}
            continue
        _, label, lhs, rhs = case
        if pending:
            sides = {"lhs": lhs, "rhs": rhs}
            terms = dict(sides[pending].terms)
            key = min(terms) if terms else (0,) * len(lhs.ctx.variables)
            terms[key] = terms.get(key, 0) + 1
            sides[pending] = MultiPoly(lhs.ctx, terms)
            lhs, rhs, pending = sides["lhs"], sides["rhs"], None
        diff = lhs - rhs
        if not diff.is_zero:
            exps = min(diff.terms)
            return {"case": label, "monomial": monomial_text(lhs.ctx, exps),
                    "lhs_coeff": str(lhs.terms.get(exps, 0)),
                    "rhs_coeff": str(rhs.terms.get(exps, 0))}
    return None
