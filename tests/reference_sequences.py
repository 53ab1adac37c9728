"""Generate-and-test reference implementations of the sequence and biword
side, the differential oracles for the enumeration layer.

``reference_composition_sequences`` places each arrangement's colors one
position at a time, over the arrangements of
``reference_distinct_permutations``, a counter recursion; ``reference_enumerate_biwords`` filters the full product
of top rows and bottom rows through ``reference_is_biword``, which spells
the column rule out inline; ``reference_lambda_of`` and
``reference_sequence_from`` read their own descent sets, from
``reference_group.reference_des_set``; ``reference_to_triple``,
``reference_from_triple`` and ``reference_check_triple`` are the biword
bijection and the ``Triple`` check as they were written on a skew-inverse
group element, here the one from ``reference_group.reference_skew_inverse``;
the two catalog functions compute ``pi_of`` and the descent set again for
every map they call, test compatibility one partition at a time, and
rescan every biword for each pair of caps, whose predicted counts come from
``reference_identities.reference_theorem_B_rhs_term``;
``reference_keylem_tally`` and ``reference_desmaj_tally`` are the left sides
of ``keylem`` and ``desmaj`` as they were written on checked value objects,
a ``ColoredSequence`` and ``pi_of``'s ``ColoredPermutation`` for every
sequence and, for ``keylem``, its full ``statistics`` record;
``reference_sorted_keylem_tally`` and ``reference_sorted_desmaj_tally`` are
the same left sides on tuples, sorting every sequence with ``_sort`` and
counting ``keylem``'s inversions pair by pair with ``_length``.
``reference_recursive_distinct_permutations`` and
``reference_weak_compositions`` recurse once per entry and once per part.
This module is imported only by the tests.
"""

from __future__ import annotations

import itertools
import math

from reference_group import (
    reference_des_set,
    reference_is_compatible,
    reference_lambda_gamma,
    reference_skew_inverse,
)
from reference_identities import reference_theorem_B_rhs_term
from wreathstats.biwords import (
    Biword,
    column_multiset,
    column_realization_count,
)
from wreathstats.encoding import (
    ColoredSequence,
    Partition,
    _sequences,
    _sort,
    enumerate_sequences,
    partitions_in_box,
    pi_of,
)
from wreathstats.group import (
    BudgetExceededError,
    _length,
    enumerate_group,
    order_key,
    statistics,
)
from wreathstats.qseries import SeriesContext


def reference_distinct_permutations(items):
    """Distinct orderings of a multiset, in lexicographic order."""
    pool = sorted(items)
    n = len(pool)
    counts = {}
    for x in pool:
        counts[x] = counts.get(x, 0) + 1
    keys = sorted(counts)
    current = []

    def rec():
        if len(current) == n:
            yield tuple(current)
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                current.append(k)
                yield from rec()
                current.pop()
                counts[k] += 1

    yield from rec()


def reference_recursive_distinct_permutations(items):
    """Distinct orderings of a multiset, in lexicographic order, one level of
    recursion per entry."""
    if not items:
        yield ()
    for first in sorted(set(items)):
        rest = list(items)
        rest.remove(first)
        for tail in reference_recursive_distinct_permutations(rest):
            yield (first,) + tail


def reference_weak_compositions(n, parts):
    """Weak compositions of n into exactly ``parts`` nonnegative parts, one
    level of recursion per part."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    for head in range(n + 1):
        for tail in reference_weak_compositions(n - head, parts - 1):
            yield (head,) + tail


def reference_composition_sequences(r, n, composition):
    values = [j for j, mult in enumerate(composition) for _ in range(mult)]
    for arrangement in reference_distinct_permutations(values):
        live = [i for i, v in enumerate(arrangement) if v]
        for combo in itertools.product(range(r), repeat=len(live)):
            colors = [0] * n
            for i, c in zip(live, combo):
                colors[i] = c
            yield ColoredSequence(r, arrangement, tuple(colors))


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
    des_set = reference_des_set(gamma)
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
    des_set = reference_des_set(gamma)
    mu = []
    count = 0
    for i in range(gamma.n):
        if i in des_set:
            count += 1
        mu.append(lam.parts[i] + count)
    return reference_lambda_gamma(Partition(tuple(mu)),
                                  reference_skew_inverse(gamma))


def reference_check_triple(gamma, lam, mu):
    if gamma.n != lam.n or gamma.n != mu.n:
        raise ValueError("lengths do not agree")
    if not reference_is_compatible(lam, reference_skew_inverse(gamma)):
        raise ValueError("first partition is not skew-inverse compatible")
    if not reference_is_compatible(mu, gamma):
        raise ValueError("second partition is not compatible with the element")


def reference_to_triple(b):
    """``(gamma, lam, mu)`` of ``to_triple(b)``, checked like a ``Triple``."""
    gamma = pi_of(b.f)
    mu = Partition(tuple(b.f.values[s - 1] for s in gamma.sigma))
    reference_check_triple(gamma, b.g, mu)
    return gamma, b.g, mu


def reference_from_triple(gamma, lam, mu):
    reference_check_triple(gamma, lam, mu)
    f = reference_lambda_gamma(mu, reference_skew_inverse(gamma))
    return Biword(g=lam, f=f)


def reference_bijection_stats(max_elements, r, n, cap):
    checked = 0
    for f in enumerate_sequences(r, n, max_cap=cap, restrict_n0=True,
                                 max_elements=max_elements):
        gamma = pi_of(f)
        lam = reference_lambda_of(f)
        des_set = reference_des_set(gamma)
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
    triples = [reference_to_triple(b) for b in words]
    if len(set(triples)) != len(words):
        yield ("fact", "injectivity", False, "two biwords shared a triple")
        return
    for b, t in zip(words, triples):
        if reference_from_triple(*t) != b:
            yield ("fact", f"round trip of {b}", False, None)
            return
    expected = set()
    for gamma in enumerate_group(r, n, max_elements):
        skew = reference_skew_inverse(gamma)
        for lam in partitions_in_box(n, cap_g):
            if not reference_is_compatible(lam, skew):
                continue
            for mu in partitions_in_box(n, cap_f):
                if reference_is_compatible(mu, gamma):
                    expected.add((gamma, lam, mu))
    got = set(triples)
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
    for k1 in range(cap_f + 1):
        for k2 in range(cap_g + 1):
            actual = sum(1 for b in words
                         if max(b.f.values, default=0) <= k1
                         and b.g.max_part <= k2)
            term = reference_theorem_B_rhs_term(ctx, r, n, k1, k2)
            predicted = sum(term.terms.values())
            yield ("fact", f"count at caps ({k1},{k2})", actual == predicted,
                   f"{actual} biwords vs coefficient {predicted}")


def reference_keylem_tally(max_elements, r, n, comp):
    acc = {}
    for f in enumerate_sequences(r, n, composition=comp,
                                 max_elements=max_elements):
        rec = statistics(pi_of(f))
        exps = (rec.length, rec.col)
        acc[exps] = acc.get(exps, 0) + 1
    return acc


def reference_desmaj_tally(max_elements, r, n, tmax):
    buckets = {}
    for f in enumerate_sequences(r, n, max_cap=tmax, restrict_n0=True,
                                 max_elements=max_elements):
        gamma = pi_of(f)
        key = (gamma.sigma, gamma.colors)
        top = max(f.values, default=0)
        exps = (top, top * n - sum(f.values))
        entry = buckets.setdefault(key, {})
        entry[exps] = entry.get(exps, 0) + 1
    return buckets


def reference_sorted_keylem_tally(max_elements, r, n, comp):
    acc = {}
    for values, colors in _sequences(r, n, composition=comp,
                                     max_elements=max_elements):
        exps = (_length(*_sort(values, colors)), sum(colors))
        acc[exps] = acc.get(exps, 0) + 1
    return acc


def reference_sorted_desmaj_tally(max_elements, r, n, tmax):
    buckets = {}
    for values, colors in _sequences(r, n, max_cap=tmax, restrict_n0=True,
                                     max_elements=max_elements):
        top = max(values, default=0)
        exps = (top, top * n - sum(values))
        entry = buckets.setdefault(_sort(values, colors), {})
        entry[exps] = entry.get(exps, 0) + 1
    return buckets
