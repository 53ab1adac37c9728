"""Full-product right sides, the differential oracles for the u-graded
right sides of ``theorem_A``, ``reiner`` and ``theorem_B``.

``reference_theorem_A_rhs`` and ``reference_reiner_rhs`` are the builders
``identities`` used before its coefficient-only products: each step forms
the whole product of the cleared exponential series up to u^n (substituted
u -> q^k u, or u -> (1 - t)u), takes its u^n coefficient with
``coefficient_of``, divides out the clearing factor with ``divide_exact``,
and extends the running product and the clearing factor on every step,
including the last.  ``reference_theorem_B_rhs_term`` takes the u^n
coefficient of the reciprocal of the whole product of the two double
Pochhammer products.  They take the same arguments and context as
``identities._theorem_A_rhs``, ``identities._reiner_rhs`` and
``identities._theorem_B_rhs_term``.  This module is imported only by the
tests.
"""

from __future__ import annotations

from wreathstats.qseries import (
    MultiPoly,
    bracket_two_param,
    coefficient_of,
    divide_exact,
    double_pochhammer,
    exp_series,
    q_factorial,
    q_int,
    reciprocal,
    substitute,
)


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


def reference_theorem_B_rhs_term(ctx, r, n, k1, k2):
    u = MultiPoly.variable(ctx, "u")
    first = double_pochhammer(ctx, u, "q1", "q2", k1 + 1, k2 + 1)
    marked = MultiPoly.monomial(ctx, 1, a=1, b=1) \
        * bracket_two_param(ctx, r - 1, "a", "b") * u
    second = double_pochhammer(ctx, marked, "q1", "q2", k1, k2)
    return coefficient_of(reciprocal(first * second), "u", n)
