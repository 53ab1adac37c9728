"""Generate-and-test reference implementations of the sequence and biword
side, the differential oracles for the enumeration layer.

``reference_enumerate_biwords`` filters the full product of top rows and
bottom rows through ``reference_is_biword``, which spells the column rule
out inline; ``reference_lambda_of`` and ``reference_sequence_from`` read
their own descent sets; the two catalog functions compute ``pi_of`` and
the descent set again for every map they call, and rescan every biword for
each pair of caps.  This module is
imported only by the tests.
"""

from __future__ import annotations

import math

from wreathstats.biwords import (
    Biword,
    column_multiset,
    column_realization_count,
    from_triple,
    to_triple,
)
from wreathstats.encoding import (
    Partition,
    enumerate_sequences,
    is_compatible,
    lambda_gamma,
    partitions_in_box,
    pi_of,
)
from wreathstats.group import (
    BudgetExceededError,
    _descent_set,
    enumerate_group,
    order_key,
    skew_inverse,
)
from wreathstats.identities import _theorem_B_rhs_term
from wreathstats.qseries import MultiPoly, SeriesContext, substitute


def reference_is_biword(g, f):
    if g.n != f.n:
        raise ValueError("rows must have equal length")
    if not f.in_n0:
        return False
    prev_g, prev_v, prev_c = 0, 0, 0
    for gi, v, c in zip(g.parts, f.values, f.colors):
        if gi == prev_g:
            if v != prev_v:
                if order_key(prev_v, prev_c) >= order_key(v, c):
                    return False
            elif prev_c == 0 and c != 0:
                return False
        prev_g, prev_v, prev_c = gi, v, c
    return True


def reference_enumerate_biwords(r, n, cap_f, cap_g, max_elements=None):
    if max_elements is not None:
        tops = math.comb(cap_g + n, n)
        bottoms = (1 + cap_f * r) ** n
        if tops * bottoms > max_elements:
            raise BudgetExceededError(
                f"{tops * bottoms} candidate biwords exceed budget {max_elements}")
    for g in partitions_in_box(n, cap_g):
        for f in enumerate_sequences(r, n, max_cap=cap_f, restrict_n0=True):
            if reference_is_biword(g, f):
                yield Biword(g=g, f=f)


def reference_lambda_of(f):
    if not f.in_n0:
        raise ValueError("sequence has a colored zero entry")
    gamma = pi_of(f)
    des_set = _descent_set(gamma.sigma, gamma.colors)
    parts = []
    count = 0
    for i, s in enumerate(gamma.sigma):
        if i in des_set:
            count += 1
        parts.append(f.values[s - 1] - count)
    return Partition(tuple(parts))


def reference_sequence_from(gamma, lam):
    if gamma.n != lam.n:
        raise ValueError("lengths do not agree")
    des_set = _descent_set(gamma.sigma, gamma.colors)
    mu = []
    count = 0
    for i in range(gamma.n):
        if i in des_set:
            count += 1
        mu.append(lam.parts[i] + count)
    return lambda_gamma(Partition(tuple(mu)), skew_inverse(gamma))


def reference_bijection_stats(max_elements, r, n, cap):
    checked = 0
    for f in enumerate_sequences(r, n, max_cap=cap, restrict_n0=True,
                                 max_elements=max_elements):
        gamma = pi_of(f)
        lam = reference_lambda_of(f)
        des_set = _descent_set(gamma.sigma, gamma.colors)
        des, maj = len(des_set), sum(des_set)
        back = reference_sequence_from(gamma, lam)
        if back != f:
            yield ("fact", f"round trip of {f}", False, f"came back as {back}")
            return
        if max(f.values, default=0) != lam.max_part + des:
            yield ("fact", f"max relation at {f}", False,
                   f"max {max(f.values, default=0)} vs {lam.max_part} + {des}")
            return
        if sum(f.values) != lam.weight + n * des - maj:
            yield ("fact", f"sum relation at {f}", False,
                   f"{sum(f.values)} vs {lam.weight} + {n}*{des} - {maj}")
            return
        sorted_vals = [f.values[s - 1] for s in gamma.sigma]
        if any(i in des_set and sorted_vals[i - 1] >= sorted_vals[i]
               for i in range(1, n)):
            yield ("fact", f"descent forces growth at {f}", False, None)
            return
        checked += 1
    yield ("fact", f"sequence side r={r} n={n} cap={cap} ({checked} sequences)",
           True, None)
    checked = 0
    for gamma in enumerate_group(r, n, max_elements):
        for lam in partitions_in_box(n, cap):
            f = reference_sequence_from(gamma, lam)
            if not f.in_n0:
                yield ("fact", f"image of ({gamma}, {lam})", False,
                       "left the zero-forces-uncolored set")
                return
            if pi_of(f) != gamma or reference_lambda_of(f) != lam:
                yield ("fact", f"round trip of ({gamma}, {lam})", False, None)
                return
            checked += 1
    yield ("fact", f"pair side r={r} n={n} cap={cap} ({checked} pairs)",
           True, None)


def reference_biword_count(max_elements, r, n, cap_f, cap_g):
    words = list(reference_enumerate_biwords(r, n, cap_f, cap_g,
                                             max_elements=max_elements))
    triples = [to_triple(b) for b in words]
    if len(set((t.gamma, t.lam, t.mu) for t in triples)) != len(words):
        yield ("fact", "injectivity", False, "two biwords shared a triple")
        return
    for b, t in zip(words, triples):
        if from_triple(t) != b:
            yield ("fact", f"round trip of {b}", False, None)
            return
    expected = set()
    for gamma in enumerate_group(r, n, max_elements):
        skew = skew_inverse(gamma)
        for lam in partitions_in_box(n, cap_g):
            if not is_compatible(lam, skew):
                continue
            for mu in partitions_in_box(n, cap_f):
                if is_compatible(mu, gamma):
                    expected.add((gamma, lam, mu))
    got = set((t.gamma, t.lam, t.mu) for t in triples)
    yield ("fact", f"image is every compatible triple (r={r} n={n})",
           got == expected,
           f"{len(got)} triples reached vs {len(expected)} expected")
    groups = {}
    for b in words:
        key = column_multiset(b)
        groups[key] = groups.get(key, 0) + 1
    for key, count in sorted(groups.items()):
        want = column_realization_count(key, r)
        if count != want:
            yield ("fact", f"column multiset {key}", False,
                   f"{count} biwords vs multinomial {want}")
            return
    yield ("fact", f"column multiset counts (r={r} n={n})", True, None)
    ctx = SeriesContext(("q1", "q2", "a", "b", "u"),
                        (None, None, None, None, n))
    one = MultiPoly.constant(ctx, 1)
    for k1 in range(cap_f + 1):
        for k2 in range(cap_g + 1):
            actual = sum(1 for b in words
                         if max(b.f.values, default=0) <= k1
                         and b.g.max_part <= k2)
            term = _theorem_B_rhs_term(ctx, r, n, k1, k2)
            for var in ("q1", "q2", "a", "b"):
                term = substitute(term, var, one)
            predicted = term.constant_term
            yield ("fact", f"count at caps ({k1},{k2})", actual == predicted,
                   f"{actual} biwords vs coefficient {predicted}")
