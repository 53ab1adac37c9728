"""Per-element reference implementations, the differential oracles for the
enumeration layer.

``reference_statistics`` is the tuple function ``statistics`` was built on,
with its own sort keys, inversion loop and descent loop, so it shares no
descent scan with the package.  ``reference_dist_terms`` is the loop
``dist_polynomial`` replaced: it lists the group with
``itertools.permutations`` times ``itertools.product`` and calls
``reference_statistics`` on every element, and on its true inverse for the
inverse statistics.  ``reference_skew_inverse`` and ``reference_lambda_gamma``
spell the skew inverse and the push of a partition through an element out
from their definitions.  The other functions are the encoding and quotient
maps as they were written on top of a full statistics computation, reading
their descents from ``reference_des_set``.  ``reference_decompose`` is the
parabolic factorization as it was written before delta became ``tau^-1 *
gamma``: it assembles delta block by block from the sorting of each block.
``reference_stats_dict`` is the CLI's ``stats`` and ``table`` row as it was
built from a value object, through ``statistics`` and ``format_window``.
This module is imported only by the tests.
"""

from __future__ import annotations

import itertools

from wreathstats.encoding import ColoredSequence, Partition, pi_of
from wreathstats.group import (
    ColoredPermutation,
    _inverse_colors,
    _inverse_sigma,
    format_window,
    order_key,
    statistics,
)

_DIRECT_STATS = {"des": 3, "maj": 4, "length": 1, "col": 6, "fmaj": 5}
_INVERSE_STATS = {"ides": 3, "imaj": 4, "icol": 6, "ifmaj": 5}


def reference_statistics(r, sigma, colors):
    """Statistics tuple ``(inv, length, des_set, des, maj, fmaj, col)``."""
    n = len(sigma)
    keys = [order_key(sigma[i], colors[i]) for i in range(n)]
    inv = 0
    for i in range(n):
        ki = keys[i]
        for j in range(i + 1, n):
            if ki > keys[j]:
                inv += 1
    length = inv + sum(sigma[i] + colors[i] - 1 for i in range(n) if colors[i])
    des_set = []
    prev = order_key(0, 0)
    for i in range(n):
        if prev > keys[i]:
            des_set.append(i)
        prev = keys[i]
    des = len(des_set)
    maj = sum(des_set)
    col = sum(colors)
    return inv, length, tuple(des_set), des, maj, r * maj + col, col


def reference_des_set(gamma):
    return frozenset(reference_statistics(gamma.r, gamma.sigma, gamma.colors)[2])


def reference_skew_inverse(gamma):
    """Position sigma(i) holds i with the color c_i of position i."""
    sigma = [0] * gamma.n
    colors = [0] * gamma.n
    for i, (s, c) in enumerate(zip(gamma.sigma, gamma.colors)):
        sigma[s - 1] = i + 1
        colors[s - 1] = c
    return ColoredPermutation(gamma.r, tuple(sigma), tuple(colors))


def reference_lambda_gamma(lam, gamma):
    """Position i holds part sigma(i) of ``lam`` with color c_i."""
    return ColoredSequence(gamma.r,
                           tuple(lam.parts[s - 1] for s in gamma.sigma),
                           gamma.colors)


def reference_dist_terms(ctx, r, n, stats):
    """Exponent tuple -> count over the whole group, before truncation."""
    plan = []
    need_inverse = False
    for stat, var in stats.items():
        if stat in _DIRECT_STATS:
            plan.append((False, _DIRECT_STATS[stat], ctx.index(var)))
        else:
            plan.append((True, _INVERSE_STATS[stat], ctx.index(var)))
            need_inverse = True
    nvars = len(ctx.variables)
    acc = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        inv_sigma = _inverse_sigma(sigma) if need_inverse else None
        for colors in itertools.product(range(r), repeat=n):
            rec = reference_statistics(r, sigma, colors)
            irec = None
            if need_inverse:
                irec = reference_statistics(
                    r, inv_sigma, _inverse_colors(r, colors, inv_sigma))
            exps = [0] * nvars
            for use_inverse, stat_idx, var_idx in plan:
                exps[var_idx] += (irec if use_inverse else rec)[stat_idx]
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + 1
    return acc


def reference_lambda_of(f):
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
    des_set = reference_des_set(gamma)
    mu = []
    count = 0
    for i in range(gamma.n):
        if i in des_set:
            count += 1
        mu.append(lam.parts[i] + count)
    return reference_lambda_gamma(Partition(tuple(mu)),
                                  reference_skew_inverse(gamma))


def reference_is_compatible(lam, gamma):
    padded = (0,) + lam.parts
    return all(padded[i] < padded[i + 1] for i in reference_des_set(gamma))


def reference_is_in_quotient(gamma, cls):
    return reference_des_set(gamma) <= set(cls.complement)


def reference_decompose(gamma, cls):
    """``(tau, delta)`` with delta read off each block's sorting."""
    n = cls.n
    tau_sigma = [0] * n
    tau_colors = [0] * n
    delta_sigma = [0] * n
    delta_colors = [0] * n
    for bi, (start, stop) in enumerate(cls.blocks()):
        block = list(range(start, stop))
        if bi == 0 and cls.first_block_colored:
            ordered = sorted(block, key=lambda i: gamma.sigma[i])
            for slot, i in enumerate(ordered):
                tau_sigma[start + slot] = gamma.sigma[i]
            rank = {gamma.sigma[i]: slot + 1 for slot, i in enumerate(ordered)}
            for i in block:
                delta_sigma[i] = start + rank[gamma.sigma[i]]
                delta_colors[i] = gamma.colors[i]
        else:
            ordered = sorted(block,
                             key=lambda i: order_key(gamma.sigma[i], gamma.colors[i]))
            for slot, i in enumerate(ordered):
                tau_sigma[start + slot] = gamma.sigma[i]
                tau_colors[start + slot] = gamma.colors[i]
            position = {i: start + slot + 1 for slot, i in enumerate(ordered)}
            for i in block:
                delta_sigma[i] = position[i]
    tau = ColoredPermutation(gamma.r, tuple(tau_sigma), tuple(tau_colors))
    delta = ColoredPermutation(gamma.r, tuple(delta_sigma), tuple(delta_colors))
    return tau, delta


def reference_stats_dict(r, gamma):
    rec = statistics(gamma)
    return {
        "r": r,
        "n": gamma.n,
        "window": format_window(gamma),
        "inv": rec.inv,
        "length": rec.length,
        "des_set": sorted(rec.des_set),
        "des": rec.des,
        "maj": rec.maj,
        "fmaj": rec.fmaj,
        "col": rec.col,
        "col_vector": list(rec.col_vector),
    }
