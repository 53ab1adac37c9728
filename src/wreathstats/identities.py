"""Identity catalog: brute-force distribution polynomials versus closed forms.

Each catalog entry builds the left side by enumerating colored permutations
(or sequences, or biwords) and summing exact monomials, builds the right
side from the q-series constructors, and compares the two within the
truncation caps fixed by the entry.  All comparisons are exact; there is no
tolerance anywhere.  A failing comparison reports the first mismatching
monomial in the context's lexicographic order.

Infinite sums are handled by grading: both sides of every identity are
graded by the truncation variables (powers of t, or the extracted power of
u), so a capped comparison checks each retained coefficient completely.
No side inverts a whole series.  A left side that divides by
``(t; q)_(n+1)`` multiplies by its reciprocal, the sum over k up to the cap
of t of the complete homogeneous sums h_k of the terms ``t q^i``
(``qseries._reciprocal_pochhammer``).
No right side divides: a hatted multinomial is a hatted Pochhammer tail
times Gaussian binomials, and the u-graded right sides never expand a whole
series to read one coefficient.  The u^n coefficient of a product of
p-exponentials sums Gaussian binomials ``[m choose j]_p`` times smaller such
coefficients and hatted multinomials (``_exponential_sum``); u -> (1 - t)u
scales it by ``(1 - t)^n``; and that of the reciprocal of a double
Pochhammer product in ``x u`` is the complete homogeneous sum h_n of the x's,
folded in one term at a time, so each theorem_B cell goes on from the sums
of the cell before it in its row.
``brenti`` keeps u in its one case, but builds each u^n slice on its own:
with ``L = 1 + a [r-1]_a``, the u^n coefficient of
``(1 - t) e^v / (1 - t e^(L v))`` at ``v = (1 - t)u`` is
``(1 - t)^(n+1) sum_k t^k (1 + k L)^n / n!``, k up to the cap of t.
"""

from __future__ import annotations

import time
import warnings
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial

from .group import (
    DEFAULT_MAX_ELEMENTS,
    DEFAULT_MAX_TERMS,
    BudgetExceededError,
    CatalogError,
    _check_group_budget,
    _descent_set,
    _entries_text,
    _inverse_colors,
    _inverse_sigma,
    _length,
    _skew,
    _windows,
    order_key,
)
from .encoding import (
    _check_parts,
    _check_sequences,
    _distinct_permutations,
    _fits,
    _insertion,
    _parts_in_box,
    _residue,
    _sequence_from,
    _sequences,
    _sort,
)
from .biwords import (
    _biword_text,
    _biwords,
    _check_biwords,
    _columns,
    _from_triple,
    _is_biword,
    _to_triple,
    _window,
    column_realization_count,
)
from .qseries import (
    MultiPoly,
    SeriesContext,
    _dot,
    _double_terms,
    _factor_run,
    _from_tally,
    _gaussian_rows,
    _hat_multinomial,
    _homogeneous,
    _reciprocal_pochhammer,
    bracket_two_param,
    hat_factorial,
    monomial_text,
    pochhammer,
    q_int,
)

__all__ = [
    "CATALOG",
    "CatalogError",
    "DEFAULT_MAX_ELEMENTS",
    "DEFAULT_MAX_TERMS",
    "VerificationReport",
    "dist_polynomial",
    "selftest_localization",
    "verify_identity",
]

# The quantities the group walk adds up, in the order of its weights; the
# last three are those of the inverse.  fmaj is r*maj + col, and ifmaj the
# same on the inverse.
_WALK_FIELDS = ("length", "des", "maj", "col", "ides", "imaj", "icol")
_FLAG_MAJOR = {"fmaj": ("maj", "col"), "ifmaj": ("imaj", "icol")}


def _walk_group(r, n, weights):
    """Tally the packed monomials of the r-colored group on n letters.

    ``weights`` gives, for each of ``_WALK_FIELDS``, the packed exponent
    vector one unit of that quantity adds, so an element's packed monomial
    is the weighted sum of its quantities; the tally maps it to the number
    of elements.  A depth-first walk places one (value, color) pair per
    window position, left to right, and updates that sum as it goes: the
    new entry adds to length the earlier entries larger than it as colored
    integers (counted on a bitmask of their ranks in that order) plus
    ``v + c - 1`` when colored, c to col, and a descent at position i adds
    1 to des and i to maj.  Each element is a leaf, visited once.

    The last two positions are placed in one final frame, which tries both
    orders of the two values left, the penultimate entry's colors in the
    outer loop and the last entry's in the inner one.  For each order it
    builds the last entry's steps against the entries placed before the
    pair once, one per color, and then adds per element only what the pair
    decides between its own two entries: one inversion and the descent at
    n - 1 when the penultimate entry is the larger.  A frame for the last
    position alone cost one call and one list slice per r elements, about
    a third of the walk: the final frame takes the length walk at r=4, n=5
    from 31 to 23 ms (min of 9, in process, Python 3.11 on 2 shared cores).
    With n = 1 the one position is placed against the zero alone.

    When an inverse quantity is weighted, placing v at position i with
    color c also makes the inverse's entry v, ``(i+1)`` with the inverse
    color of c, whose rank the walk records per value and whose color it
    adds to icol.  The inverse descent at j compares the ranks of the
    inverse entries j and j+1 (entry 0 the implicit zero, always placed),
    so it is decided when the second of the values j and j+1 is placed.
    The final frame decides per element only the one between its own two
    values, when they are j and j+1.
    """
    wlen, wdes, wmaj, wcol, wides, wimaj, wicol = weights
    with_inverse = any(weights[4:])
    # Each value's (color, rank, weight added) triples, uncolored first; the
    # rank is the position of v^c when the window's colored integers and the
    # uncolored 0 are sorted by order_key.
    alphabet = [(0, 0)] + [(v, c) for v in range(1, n + 1) for c in range(r)]
    rank = {entry: k for k, entry in
            enumerate(sorted(alphabet, key=lambda entry: order_key(*entry)))}
    entries = {v: [(c, rank[v, c], (v + c - 1) * wlen + c * wcol if c else 0)
                   for c in range(r)]
               for v in range(1, n + 1)}
    descent = [wdes + i * wmaj for i in range(n)]
    if with_inverse:
        # inverse[i][c]: the rank of the inverse entry (i+1)^c' and the
        # weight c' adds, for c' the inverse color of c, read from the
        # inverse of the one-letter element 1^c
        pulled = [_inverse_colors(r, (c,), (1,))[0] for c in range(r)]
        inverse = [[(rank[i + 1, c], c * wicol) for c in pulled] for i in range(n)]
        # ranks[v]: that of the inverse entry v, read only while v is
        # placed; the zero is always placed, and n + 1, which has no inverse
        # entry, ranks above every one, as does a right neighbour not yet
        # placed, and a left one below
        top = len(alphabet)
        ranks = [rank[0, 0]] + [top] * (n + 1)
        descent_inv = [wides + j * wimaj for j in range(n)]
    tally = {}
    last = n - 1
    penult = n - 2
    # what the pair's own two entries add when the penultimate one is the
    # larger: an inversion, and the descent at n - 1
    cross = wlen + descent[last] if n else 0
    if with_inverse and n > 1:
        before, after = inverse[penult], inverse[last]
        # the ranks of the inverse entries the last position makes, and
        # their negatives
        signed = {1: [ik for ik, _ in after], -1: [-ik for ik, _ in after]}

    def place(i, free, mask, prev, key):
        if i == penult:
            last_two(free, mask, prev, key)
            return
        for j, v in enumerate(free):
            rest = free[:j] + free[j + 1:]
            if with_inverse:
                left = -1 if v - 1 in rest else ranks[v - 1]
                right = top if v + 1 in rest else ranks[v + 1]
                pulls = inverse[i]
            for c, k, step in entries[v]:
                step += key + (mask >> k).bit_count() * wlen
                if prev > k:
                    step += descent[i]
                if with_inverse:
                    ik, istep = pulls[c]
                    step += istep
                    if left > ik:
                        step += descent_inv[v - 1]
                    if ik > right:
                        step += descent_inv[v]
                    ranks[v] = ik
                place(i + 1, rest, mask | 1 << k, k, step)

    # The final frame: value a at n - 2 and b at n - 1, in both orders of
    # the two values left, u < w.
    def last_two(free, mask, prev, key):
        u, w = free
        tie = 0
        if with_inverse:
            # Each value's inverse neighbours placed before the pair; the
            # other value of the pair is never one.  When the pair is j,
            # j + 1, the inverse descent at j is the pair's to decide.
            joined = w == u + 1
            if joined:
                tie = descent_inv[u]
            lo_u, hi_u = ranks[u - 1], top if joined else ranks[u + 1]
            lo_w, hi_w = -1 if joined else ranks[w - 1], ranks[w + 1]
            orders = ((u, w, lo_u, hi_u, lo_w, hi_w, 1),
                      (w, u, lo_w, hi_w, lo_u, hi_u, -1))
        else:
            orders = ((u, w, 0, 0, 0, 0, 1), (w, u, 0, 0, 0, 0, 1))
        for a, b, left, right, below, above, sign in orders:
            # b's steps per color against the entries placed before the
            # pair, built once for every color of a
            if with_inverse:
                seconds = [(k, step + (mask >> k).bit_count() * wlen + istep
                            + (descent_inv[b - 1] if below > ik else 0)
                            + (descent_inv[b] if ik > above else 0))
                           for (c, k, step), (ik, istep) in zip(entries[b], after)]
                # the descent at j when the inverse entry j ranks above
                # j + 1: with b < a both ranks negated, so one test serves
                iks = signed[sign]
            else:
                seconds = [(k, step + (mask >> k).bit_count() * wlen)
                           for c, k, step in entries[b]]
            for c, k, step in entries[a]:
                step += key + (mask >> k).bit_count() * wlen
                if prev > k:
                    step += descent[penult]
                if with_inverse:
                    ik, istep = before[c]
                    step += istep
                    if left > ik:
                        step += descent_inv[a - 1]
                    if ik > right:
                        step += descent_inv[a]
                    if tie:
                        ik *= sign
                        for (k2, s), ik2 in zip(seconds, iks):
                            s += step
                            if k > k2:
                                s += cross
                            if ik > ik2:
                                s += tie
                            tally[s] = tally.get(s, 0) + 1
                        continue
                for k2, s in seconds:
                    s += step
                    if k > k2:
                        s += cross
                    tally[s] = tally.get(s, 0) + 1

    if n > 1:
        place(0, list(range(1, n + 1)), 0, rank[0, 0], 0)
    elif n:
        # the one-letter elements 1^c, each entry placed against the zero
        for c, k, step in entries[1]:
            if rank[0, 0] > k:
                step += descent[0]
            if with_inverse:
                ik, istep = inverse[0][c]
                step += istep
                if ranks[0] > ik:
                    step += descent_inv[0]
            tally[step] = tally.get(step, 0) + 1
    else:
        tally[0] = 1
    return tally


def dist_polynomial(ctx, r, n, stats, max_elements=DEFAULT_MAX_ELEMENTS):
    """Sum over the whole group of the monomial assigned by ``stats``.

    ``stats`` maps statistic names (des, maj, length, col, fmaj and their
    inverse-element variants ides, imaj, icol, ifmaj) to context variables.
    The group is walked depth-first, one window position at a time, with
    the monomial updated incrementally, so every element is visited once
    and no closed form is used; the inverse statistics are decided in the
    same walk, from the inverse entries each placement makes.  The tally's
    packed monomials become the polynomial's keys in one pass, which drops
    what lies past a cap.
    """
    # Each variable gets a field of the packed monomial wide enough for the
    # sum of its statistics, each of which is below (r+1) * n * (n+r).
    width = (len(stats) * (r + 1) * n * (n + r)).bit_length()
    weights = dict.fromkeys(_WALK_FIELDS, 0)
    for stat, var in stats.items():
        if stat not in weights and stat not in _FLAG_MAJOR:
            raise ValueError(f"unknown statistic {stat!r}")
        unit = 1 << (ctx.index(var) * width)
        if stat in _FLAG_MAJOR:
            maj, col = _FLAG_MAJOR[stat]
            weights[maj] += r * unit
            weights[col] += unit
        else:
            weights[stat] += unit
    _check_group_budget(r, n, max_elements)
    return _from_tally(ctx, _walk_group(r, n, tuple(weights.values())), width)


@dataclass
class VerificationReport:
    """Outcome of one catalog entry run."""

    identity: str
    params: dict
    passed: bool
    mismatch: dict | None
    millis: int
    lhs_terms: int
    rhs_terms: int
    corrupted_monomial: str | None = None

    def to_json_dict(self):
        out = {
            "identity": self.identity,
            "params": dict(self.params),
            "pass": self.passed,
            "millis": self.millis,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
        }
        if self.mismatch is not None:
            out["mismatch"] = dict(self.mismatch)
        return out


def _bump_min_term(poly):
    """Add 1 to the lexicographically first coefficient; returns (poly, monomial)."""
    terms = dict(poly.terms)
    key = min(terms) if terms else (0,) * len(poly.ctx.variables)
    terms[key] = terms.get(key, 0) + 1
    return MultiPoly(poly.ctx, terms), monomial_text(poly.ctx, key)


# Parameters whose least value is not the general one (r >= 1, any other
# parameter >= 0).
_LEAST = {("projection", "r"): 2}


def _entry_params(name, params):
    """The parameters catalog entry ``name`` runs with: its defaults, updated
    by the given ones that are not None.  Raises as ``verify_identity`` does
    for a name or parameter out of the catalog or out of range."""
    try:
        _, defaults = CATALOG[name]
    except KeyError:
        raise CatalogError(f"unknown identity {name!r}; known: "
                           + ", ".join(sorted(CATALOG))) from None
    merged = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise CatalogError(f"identity {name!r} does not take parameter {key!r}")
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        least = _LEAST.get((name, key), 1 if key == "r" else 0)
        if value < least:
            raise ValueError(f"{name}: parameter {key}={value}, need {key} >= {least}")
    return merged


def verify_identity(name, corrupt=None, max_elements=DEFAULT_MAX_ELEMENTS,
                    max_terms=DEFAULT_MAX_TERMS, **params):
    """Run one catalog entry and report the outcome.

    ``corrupt`` ("lhs" or "rhs") bumps one coefficient of the first
    polynomial comparison before checking, for harness self-tests; the
    bumped monomial is recorded on the report.

    Each polynomial case compares its two sides for equality first; only
    two sides that differ are subtracted, and the first monomial of the
    difference, in the context's order, names the mismatch.  Sides from two
    contexts that differ are never equal, so their subtraction raises
    ``ContextMismatchError``.

    Raises ``CatalogError`` for an unknown identity or a parameter the entry
    does not take, and ``ValueError`` for a parameter below its range (``r``
    below 1, or below 2 for ``projection``; any other below 0) or a run that
    checks no case at all.
    """
    merged = _entry_params(name, params)
    if corrupt not in (None, "lhs", "rhs"):
        raise ValueError("corrupt must be None, 'lhs' or 'rhs'")
    func = CATALOG[name][0]
    for key, value in merged.items():
        # parts_max counts keylem's parts and truncates no series
        if value == 0 and key != "parts_max" and key.endswith(("max", "cap")):
            warnings.warn(f"{name}: cap {key}=0 compares only the constant term",
                          stacklevel=2)
    start = time.perf_counter()
    lhs_terms = rhs_terms = 0
    mismatch = None
    corrupted = None
    pending = corrupt
    cases = 0
    for case in func(max_elements, **merged):
        cases += 1
        if case[0] == "poly":
            _, label, lhs, rhs = case
            if pending:
                if pending == "lhs":
                    lhs, corrupted = _bump_min_term(lhs)
                else:
                    rhs, corrupted = _bump_min_term(rhs)
                pending = None
            lhs_terms += len(lhs)
            rhs_terms += len(rhs)
            if lhs_terms > max_terms or rhs_terms > max_terms:
                raise BudgetExceededError(
                    f"{name}: term count exceeds budget {max_terms}")
            if lhs != rhs:
                exps = min((lhs - rhs).terms)
                mismatch = {
                    "case": label,
                    "monomial": monomial_text(lhs.ctx, exps),
                    "lhs_coeff": str(lhs.terms.get(exps, 0)),
                    "rhs_coeff": str(rhs.terms.get(exps, 0)),
                }
                break
        else:
            _, label, ok, detail = case
            if not ok:
                mismatch = {"case": label, "detail": detail}
                break
    if not cases:
        raise ValueError(f"{name}: no case to check at "
                         + " ".join(f"{k}={v}" for k, v in sorted(merged.items())))
    millis = int(round((time.perf_counter() - start) * 1000))
    return VerificationReport(identity=name, params=merged,
                              passed=mismatch is None, mismatch=mismatch,
                              millis=millis, lhs_terms=lhs_terms,
                              rhs_terms=rhs_terms, corrupted_monomial=corrupted)


# -- small shared helpers ----------------------------------------------------


def _color_twist(ctx, r):
    """The color marker ``a`` times the q-integer of r-1 in base ``a*p``."""
    a = MultiPoly.variable(ctx, "a")
    ap = MultiPoly.monomial(ctx, 1, a=1, p=1)
    return a * q_int(ctx, r - 1, ap)


def _check_group_budgets(r, nmax, max_elements):
    """Refuse at the first group of n = 0..nmax letters over budget, before
    any context is built or any group walked."""
    for n in range(nmax + 1):
        _check_group_budget(r, n, max_elements)


def _weak_compositions(n, parts):
    """Weak compositions of n into exactly ``parts`` nonnegative parts, in
    lexicographic order.

    Stars and bars: the ``parts - 1`` bars stand at increasing slots among
    ``n + parts - 1``, and each part counts the stars between two bars, so
    the bars' lexicographic order is the compositions'.
    """
    if parts == 0:
        if n == 0:
            yield ()
        return
    for bars in combinations(range(n + parts - 1), parts - 1):
        edges = (-1,) + bars + (n + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


# -- catalog entries ---------------------------------------------------------


def _length_gf(max_elements, r, n):
    ctx = SeriesContext(("p",))
    lhs = dist_polynomial(ctx, r, n, {"length": "p"}, max_elements)
    rhs = hat_factorial(ctx, n, q_int(ctx, r - 1, "p"), "p")
    yield ("poly", f"r={r} n={n}", lhs, rhs)


def _ell_col(max_elements, r, n):
    ctx = SeriesContext(("p", "a"))
    lhs = dist_polynomial(ctx, r, n, {"length": "p", "col": "a"}, max_elements)
    rhs = hat_factorial(ctx, n, _color_twist(ctx, r), "p")
    yield ("poly", f"r={r} n={n}", lhs, rhs)


def _length_width(r, n):
    """Bits that hold a length of the r-colored group on n letters, at most
    ``n * (n + r - 2)``, or its col; a tally keyed ``length | col << width``
    is in the packed layout of a context on ``("p", "a")``."""
    return (n * (n + r)).bit_length()


def _projection(max_elements, r, n):
    ctx = SeriesContext(("p", "a"))
    width = _length_width(r, n)
    buckets = {}
    # per fiber (sigma, signs): sigma's inverse, the descent sets of the
    # signed window and of its inverse, and the fiber's tally
    fibers = {}
    for sigma, colors in _windows(r, n, max_elements):
        signs = tuple(1 if c else 0 for c in colors)
        fiber = fibers.get((sigma, signs))
        if fiber is None:
            inv_sigma = _inverse_sigma(sigma)
            fiber = fibers[sigma, signs] = (
                inv_sigma, _descent_set(sigma, signs),
                _descent_set(inv_sigma, _inverse_colors(2, signs, inv_sigma)),
                buckets.setdefault((sigma, signs), {}))
        inv_sigma, flat_des, flat_inv_des, entry = fiber
        des_set = _descent_set(sigma, colors)
        if des_set != flat_des:
            yield ("fact", f"descents of [{_entries_text(sigma, colors)}]", False,
                   f"{sorted(des_set)} vs {sorted(flat_des)}"
                   " after forgetting colors")
            return
        if (_descent_set(inv_sigma, _inverse_colors(r, colors, inv_sigma))
                != flat_inv_des):
            yield ("fact", f"inverse descents of [{_entries_text(sigma, colors)}]", False,
                   "descent sets of the inverses differ after forgetting colors")
            return
        key = _length(sigma, colors) | sum(colors) << width
        entry[key] = entry.get(key, 0) + 1
    yield ("fact", f"descent preservation r={r} n={n}", True, None)
    twist = _color_twist(ctx, r)
    # _windows' order (sigma, then signs) fixes the order of the cases
    for sigma, signs in _windows(2, n):
        lhs = _from_tally(ctx, buckets.get((sigma, signs), {}), width)
        rhs = MultiPoly.monomial(ctx, 1, p=_length(sigma, signs)) * twist ** sum(signs)
        label = f"fiber over sigma={sigma} signs={signs} (r={r})"
        yield ("poly", label, lhs, rhs)


def _desmaj_width(n, tmax):
    """Bits that hold a sequence's max, at most tmax, or its ``n*max - sum``,
    at most ``n * tmax``."""
    return (n * tmax).bit_length()


def _desmaj_tally(max_elements, r, n, tmax):
    """For each window ``(sigma, colors)``, the counts of ``max | (n*max -
    sum) << _desmaj_width(n, tmax)`` over the sequences with entries up to
    ``tmax`` that sort to it.

    The sequences are walked in ``_sequences``' order, one leaf each: every
    prefix of n - 1 entries is placed position by position into its sorted
    window by ``_insertion``, then each letter of the alphabet is placed at
    position n.  The windows of one prefix are built once per index and
    color of that last entry.
    """
    alphabet = _check_sequences(r, n, max_cap=tmax, max_elements=max_elements)
    if not n:
        return {((), ()): {0: 1}}
    width = _desmaj_width(n, tmax)
    buckets = {}
    for prefix in product(alphabet, repeat=n - 1):
        placed, sigma, colors = [], [], []
        for i, (v, c) in enumerate(prefix, 1):
            k = _insertion(placed, v, c)[0]
            placed.insert(k, v)
            sigma.insert(k, i)
            colors.insert(k, c)
        top, rest = max(placed, default=0), sum(placed)
        sigma, colors = tuple(sigma), tuple(colors)
        exps = [max(top, v) | (max(top, v) * n - rest - v) << width
                for v in range(tmax + 1)]
        entries = {}
        for v, c in alphabet:
            k = _insertion(placed, v, c)[0]
            entry = entries.get(k * r + c)
            if entry is None:
                window = (sigma[:k] + (n,) + sigma[k:], colors[:k] + (c,) + colors[k:])
                entry = entries[k * r + c] = buckets.setdefault(window, {})
            entry[exps[v]] = entry.get(exps[v], 0) + 1
    return buckets


def _desmaj(max_elements, r, n, tmax):
    _check_sequences(r, n, max_cap=tmax, max_elements=max_elements)
    _check_group_budget(r, n, max_elements)
    ctx = SeriesContext(("t", "q"), (tmax, None))
    width = _desmaj_width(n, tmax)
    buckets = _desmaj_tally(None, r, n, tmax)
    denom = _reciprocal_pochhammer(ctx, "t", "q", n)
    # the right side depends on the window's (des, maj) alone: built once
    # for each pair, not once per window
    rhs_of = {}
    for window in _windows(r, n):
        des_set = _descent_set(*window)
        lhs = _from_tally(ctx, buckets.get(window, {}), width)
        des, maj = len(des_set), sum(des_set)
        rhs = rhs_of.get((des, maj))
        if rhs is None:
            rhs = rhs_of[des, maj] = MultiPoly.monomial(ctx, 1, t=des, q=maj) * denom
        yield ("poly", f"sequences sorting to [{_entries_text(*window)}] (r={r})",
               lhs, rhs)


def _keylem_tally(max_elements, r, n, comp):
    """Counts of ``length | col << _length_width(r, n)`` of the sorted
    windows of the sequences with multiplicity profile ``comp``.

    The sequences are walked in ``_sequences``' order, one leaf each.  For
    each arrangement of the values, the positions are placed in order and
    ``_insertion`` gives each color of each position its length step, read
    from the values already placed alone; a leaf picks one color per
    position and its length is the sum of their steps.
    """
    values = _check_sequences(r, n, composition=comp, max_elements=max_elements)
    width = _length_width(r, n)
    counts = Counter()
    for arrangement in _distinct_permutations(values):
        placed, steps = [], []
        for v in arrangement:
            # zeros stay uncolored; every other value takes each color
            steps.append([_insertion(placed, v, c)[1] + (c << width)
                          for c in (range(r) if v else (0,))])
            insort(placed, v)
        counts.update(map(sum, product(*steps)))
    return counts


def _keylem(max_elements, r, n, parts_max=4):
    ctx = SeriesContext(("p", "a"))
    width = _length_width(r, n)
    twist = _color_twist(ctx, r)
    p = MultiPoly.variable(ctx, "p")
    # Only a composition with two nonzero parts reads Gaussian rows; they
    # are built once, up to n, after the first such tally has passed its
    # budget.
    rows = None
    for nparts in range(1, parts_max + 1):
        for comp in _weak_compositions(n, nparts):
            lhs = _from_tally(ctx, _keylem_tally(max_elements, r, n, comp), width)
            if rows is None and sum(1 for part in comp if part) > 1:
                rows = _gaussian_rows(ctx, n, p)
            rhs = _hat_multinomial(ctx, comp, twist, p, rows)
            yield ("poly", f"composition {comp} (r={r})", lhs, rhs)


def _exponential_sum(ctx, n, x, kmax, shift=None):
    """``sum_k t^k [n]_p! [u^n] E_x(s^k u) prod_{i<k} e_p(s^i u)``, k <= kmax.

    ``e_p`` is the p-exponential, ``E_x`` the hatted one, whose u^m
    coefficient is ``prod_{i=m+1..n} (1 + x p^i) / [m]_p!`` once the
    clearing factor ``[n]_p!`` is divided out, and ``s`` is the variable
    ``shift``, or 1 when it is None; ``hats[m]``, the hatted multinomial of
    ``(m, n - m)``, is that coefficient times ``[n]_p! / [n-m]_p!``.  No
    clearing factor is ever formed: ``running[m]``, ``[m]_p!`` times the u^m
    coefficient of the product of the first k plain factors, is a polynomial
    with ``running = [1, 0, ...]`` at k = 0 and ``sum_j s^(kj) [m choose j]_p
    running[m-j]`` one factor on.  The hats and the steps share one set of
    Gaussian rows, and each sum of products accumulates in one ``_dot``.
    """
    p = MultiPoly.variable(ctx, "p")
    binomials = _gaussian_rows(ctx, n, p)
    one = MultiPoly.constant(ctx, 1)
    hats = [_hat_multinomial(ctx, (m, n - m), x, p, binomials) for m in range(n + 1)]
    running = [one] + [MultiPoly.zero(ctx)] * n
    terms = []
    for k in range(kmax + 1):
        weights = [MultiPoly.monomial(ctx, 1, **{shift: k * j}) if shift else one
                   for j in range(n + 1)]
        term = _dot(ctx, ((hats[m] * weights[m], running[n - m])
                          for m in range(n + 1)))
        terms.append((MultiPoly.monomial(ctx, 1, t=k), term))
        if k < kmax:
            running = [_dot(ctx, ((weights[j] * binomials[m][j], running[m - j])
                                  for j in range(m + 1)))
                       for m in range(n + 1)]
    return _dot(ctx, terms)


def _theorem_A_rhs(ctx, r, n, tmax):
    return _exponential_sum(ctx, n, _color_twist(ctx, r), tmax, "q")


def _theorem_A_cases(max_elements, r, n, tmax):
    ctx = SeriesContext(("t", "q", "p", "a"), (tmax, None, None, None))
    dist = dist_polynomial(ctx, r, n,
                           {"des": "t", "maj": "q", "length": "p", "col": "a"},
                           max_elements)
    lhs = dist * _reciprocal_pochhammer(ctx, "t", "q", n + 1)
    return f"r={r} n={n} tmax={tmax}", lhs, _theorem_A_rhs(ctx, r, n, tmax)


def _theorem_A(max_elements, r, n, tmax):
    yield ("poly", *_theorem_A_cases(max_elements, r, n, tmax))


def _theorem_B_rhs_terms(ctx, r, n, t1max, t2max):
    """``(k1, k2, h_n)`` per cell, k1 outer: h_n of the terms ``q1^i q2^j``,
    i <= k1, j <= k2, and ``a b [r-1]_(a,b) q1^i q2^j``, i < k1, j < k2.
    Along a k1 row a cell holds every term of the one before it, so its
    sums go on from there with one new column of each kind."""
    q1 = MultiPoly.variable(ctx, "q1")
    marked = MultiPoly.monomial(ctx, 1, a=1, b=1) \
        * bracket_two_param(ctx, r - 1, "a", "b")
    tops = [MultiPoly.monomial(ctx, 1, q2=k2) for k2 in range(t2max + 1)]
    for k1 in range(t1max + 1):
        row = None
        for k2, top in enumerate(tops):
            marked_column = _factor_run(marked * tops[k2 - 1], q1, k1) if k2 else ()
            column = chain(_factor_run(top, q1, k1 + 1), marked_column)
            row = _homogeneous(ctx, column, n, row)
            yield k1, k2, row[n]


def _theorem_B_cases(max_elements, r, n, t1max, t2max):
    ctx = SeriesContext(("t1", "t2", "q1", "q2", "a", "b"),
                        (t1max, t2max, None, None, None, None))
    dist = dist_polynomial(ctx, r, n,
                           {"des": "t1", "ides": "t2", "maj": "q1",
                            "imaj": "q2", "col": "a", "icol": "b"},
                           max_elements)
    lhs = dist * _reciprocal_pochhammer(ctx, "t1", "q1", n + 1) \
        * _reciprocal_pochhammer(ctx, "t2", "q2", n + 1)
    rhs = _dot(ctx, ((MultiPoly.monomial(ctx, 1, t1=k1, t2=k2), term)
                     for k1, k2, term in
                     _theorem_B_rhs_terms(ctx, r, n, t1max, t2max)))
    return f"r={r} n={n} t1max={t1max} t2max={t2max}", lhs, rhs


def _theorem_B(max_elements, r, n, t1max, t2max):
    yield ("poly", *_theorem_B_cases(max_elements, r, n, t1max, t2max))


def _gg1(max_elements, n, tmax):
    label, lhs, rhs = _theorem_A_cases(max_elements, 1, n, tmax)
    yield ("fact", f"color marker inert at n={n}",
           lhs.degree("a") <= 0 and rhs.degree("a") <= 0,
           "uncolored specialization produced color-marker exponents")
    yield ("poly", label, lhs, rhs)


def _gg2(max_elements, n, t1max, t2max):
    label, lhs, rhs = _theorem_B_cases(max_elements, 1, n, t1max, t2max)
    inert = all(lhs.degree(v) <= 0 and rhs.degree(v) <= 0 for v in ("a", "b"))
    yield ("fact", f"color markers inert at n={n}", inert,
           "uncolored specialization produced color-marker exponents")
    yield ("poly", label, lhs, rhs)


def _chow_gessel(max_elements, r, n, tmax):
    ctx = SeriesContext(("t", "q", "a"), (tmax, None, None))
    dist = dist_polynomial(ctx, r, n, {"des": "t", "maj": "q", "col": "a"},
                           max_elements)
    a = MultiPoly.variable(ctx, "a")
    lhs = dist * _reciprocal_pochhammer(ctx, "t", "q", n + 1)
    twist = a * q_int(ctx, r - 1, "a")
    rhs = _dot(ctx, ((MultiPoly.monomial(ctx, 1, t=k),
                      (q_int(ctx, k + 1, "q") + twist * q_int(ctx, k, "q")) ** n)
                     for k in range(tmax + 1)))
    yield ("poly", f"r={r} n={n} tmax={tmax}", lhs, rhs)


def _carlitz(max_elements, r, n, tmax):
    ctx = SeriesContext(("t", "q"), (tmax, None))
    dist = dist_polynomial(ctx, r, n, {"des": "t", "fmaj": "q"},
                           max_elements)
    qr = MultiPoly.monomial(ctx, 1, q=r)
    lhs = dist * _reciprocal_pochhammer(ctx, "t", qr, n + 1)
    rhs = _dot(ctx, ((MultiPoly.monomial(ctx, 1, t=k), q_int(ctx, r * k + 1, "q") ** n)
                     for k in range(tmax + 1)))
    yield ("poly", f"r={r} n={n} tmax={tmax}", lhs, rhs)


def _reiner_rhs(ctx, r, n):
    # the u^n coefficient of F((1 - t)u) is (1 - t)^n times that of F(u)
    shrink = MultiPoly.constant(ctx, 1) - MultiPoly.variable(ctx, "t")
    return shrink ** (n + 1) * _exponential_sum(ctx, n, q_int(ctx, r - 1, "p"), n + 1)


def _reiner(max_elements, r, nmax):
    _check_group_budgets(r, nmax, max_elements)
    for n in range(nmax + 1):
        ctx = SeriesContext(("t", "p"), (n + 1, None))
        lhs = dist_polynomial(ctx, r, n, {"des": "t", "length": "p"},
                              max_elements)
        yield ("poly", f"r={r} n={n}", lhs, _reiner_rhs(ctx, r, n))


def _brenti_rhs(ctx, r, nmax):
    # (1 - t) e^v / (1 - t e^(L v)) = (1 - t) sum_k t^k e^((1 + k L) v) with
    # v = (1 - t)u, so its u^n coefficient is (1 - t)^(n+1) times
    # sum_k t^k (1 + k L)^n, over n!; k stops at the cap of t.
    one = MultiPoly.constant(ctx, 1)
    shrink = one - MultiPoly.variable(ctx, "t")
    lift = one + MultiPoly.variable(ctx, "a") * q_int(ctx, r - 1, "a")
    ks = range(ctx.cap("t") + 1)
    bases = [one + k * lift for k in ks]
    powers = [MultiPoly.monomial(ctx, 1, t=k) for k in ks]
    terms = []
    scale = shrink
    for n in range(nmax + 1):
        terms.append((MultiPoly.monomial(ctx, Fraction(1, factorial(n)), u=n),
                      _dot(ctx, ((power, scale) for power in powers))))
        powers = [power * base for power, base in zip(powers, bases)]
        scale = scale * shrink
    return _dot(ctx, terms)


def _brenti(max_elements, r, nmax):
    _check_group_budgets(r, nmax, max_elements)
    tcap = nmax + 1
    ctx = SeriesContext(("u", "t", "a"), (nmax, tcap, None))
    lhs = _dot(ctx, ((dist_polynomial(ctx, r, n, {"des": "t", "col": "a"},
                                      max_elements),
                      MultiPoly.monomial(ctx, Fraction(1, factorial(n)), u=n))
                     for n in range(nmax + 1)))
    yield ("poly", f"r={r} nmax={nmax}", lhs, _brenti_rhs(ctx, r, nmax))


def _gessel_roselle(max_elements, r, ucap, pcap, qcap):
    _check_group_budgets(r, ucap, max_elements)
    ctx = SeriesContext(("p", "q"), (pcap, qcap))
    sums = _homogeneous(
        ctx, _double_terms(ctx, MultiPoly.constant(ctx, 1), "p", "q", None, None), ucap)
    p = MultiPoly.variable(ctx, "p")
    for n in range(ucap + 1):
        lhs = dist_polynomial(ctx, r, n, {"maj": "q", "length": "p"},
                              max_elements)
        clear = pochhammer(ctx, MultiPoly.variable(ctx, "q"), "q", n) \
            * pochhammer(ctx, -(p * q_int(ctx, r - 1, "p")), "p", n) \
            * pochhammer(ctx, p, "p", n)
        rhs = sums[n] * clear
        yield ("poly", f"r={r} n={n}", lhs, rhs)


def _adin_roichman(max_elements, r, ucap, qcap):
    _check_group_budgets(r, ucap, max_elements)
    ctx = SeriesContext(("q1", "q2"), (qcap, qcap))
    b1 = MultiPoly.monomial(ctx, 1, q1=r)
    b2 = MultiPoly.monomial(ctx, 1, q2=r)
    marked = MultiPoly.monomial(ctx, 1, q1=1, q2=1) \
        * bracket_two_param(ctx, r - 1, "q1", "q2")
    sums = _homogeneous(ctx, chain(
        _double_terms(ctx, MultiPoly.constant(ctx, 1), b1, b2, None, None),
        _double_terms(ctx, marked, b1, b2, None, None)), ucap)
    for n in range(ucap + 1):
        lhs = dist_polynomial(ctx, r, n, {"fmaj": "q1", "ifmaj": "q2"},
                              max_elements)
        clear = pochhammer(ctx, b1, b1, n) * pochhammer(ctx, b2, b2, n)
        rhs = sums[n] * clear
        yield ("poly", f"r={r} n={n}", lhs, rhs)


def _bijection_stats(max_elements, r, n, cap):
    # The maps run on tuples and a failing fact names a sequence from them,
    # since a faulty map's image may be no ColoredSequence.  Each sequence
    # is sorted once; its window and descent set serve every check.  The
    # round trip makes the map one-to-one on the sequences, and an image
    # that is every pair in the box makes it onto those pairs, so each
    # pair's own round trip holds and its image is a sequence, in the
    # zero-forces-uncolored set.  A pair whose image has max past the cap
    # is checked at a larger cap.
    _check_sequences(r, n, max_cap=cap, max_elements=max_elements)
    _check_group_budget(r, n, max_elements)
    image = set()
    for values, colors in _sequences(r, n, max_cap=cap):
        window = _sort(values, colors)
        sigma = window[0]
        des_set = _descent_set(*window)
        # the sorted values grow strictly across every descent, a descent at
        # 0 against the implicit zero
        if not _fits(tuple(values[s - 1] for s in sigma), des_set):
            yield ("fact", f"descent forces growth at {_entries_text(values, colors)}",
                   False, None)
            return
        try:
            parts = _check_parts(_residue(values, sigma, des_set))
        except ValueError as exc:
            yield ("fact", f"residue of {_entries_text(values, colors)}", False,
                   str(exc))
            return
        des, maj = len(des_set), sum(des_set)
        back = _sequence_from(parts, des_set, *_skew(*window))
        if back != (values, colors):
            yield ("fact", f"round trip of {_entries_text(values, colors)}", False,
                   f"came back as {_entries_text(*back)}")
            return
        top, total = max(values, default=0), sum(values)
        if top != max(parts, default=0) + des:
            yield ("fact", f"max relation at {_entries_text(values, colors)}", False,
                   f"max {top} vs {max(parts, default=0)} + {des}")
            return
        if total != sum(parts) + n * des - maj:
            yield ("fact", f"sum relation at {_entries_text(values, colors)}", False,
                   f"{total} vs {sum(parts)} + {n}*{des} - {maj}")
            return
        image.add((window, parts))
    yield ("fact", f"sequence side r={r} n={n} cap={cap} ({len(image)} sequences)",
           True, None)
    # a sequence's max is its partition's max plus its descent count
    expected = {(window, lam) for window in _windows(r, n)
                for lam in _parts_in_box(n, cap - len(_descent_set(*window)))}
    yield ("fact", f"image is every pair in the box (r={r} n={n} cap={cap})",
           image == expected,
           f"{len(image)} pairs reached vs {len(expected)} expected")


def _biword_count(max_elements, r, n, cap_f, cap_g):
    # Every biword is checked on its tuples, and a failing fact names it
    # from them, since a faulty enumerator's rows may be no Partition or
    # ColoredSequence.
    _check_biwords(r, n, cap_f, cap_g, max_elements)
    _check_group_budget(r, n, max_elements)
    words = list(_biwords(r, n, cap_f, cap_g))
    for word in words:
        if not _is_biword(*word):
            lam, values, colors = word
            yield ("fact", f"biword {_entries_text(lam, (0,) * len(lam))} over "
                   f"{_entries_text(values, colors)}", False,
                   "rows do not form a valid biword")
            return
    # The walk of the expected set over the group's windows also fills the
    # table of each element's descent sets and skew inverse that
    # ``_to_triple`` reads, and whose skew inverses ``_from_triple`` takes.
    tops = list(_parts_in_box(n, cap_g))
    bottoms = list(_parts_in_box(n, cap_f))
    windows = {}
    expected = set()
    for window in _windows(r, n):
        des_set, skew_des_set, _ = windows[window] = _window(*window)
        mus = [mu for mu in bottoms if _fits(mu, des_set)]
        for lam in tops:
            if _fits(lam, skew_des_set):
                expected.update((*window, lam, mu) for mu in mus)
    triples = []
    for word in words:
        try:
            triples.append(_to_triple(r, *word, windows))
        except ValueError as exc:
            yield ("fact", f"triple of {_biword_text(r, *word)}", False, str(exc))
            return
    got = set(triples)
    if len(got) != len(words):
        yield ("fact", "injectivity", False, "two biwords shared a triple")
        return
    for word, (sigma, colors, lam, mu) in zip(words, triples):
        if _from_triple(lam, mu, windows[sigma, colors][2]) != word:
            yield ("fact", f"round trip of {_biword_text(r, *word)}", False, None)
            return
    yield ("fact", f"image is every compatible triple (r={r} n={n})",
           got == expected,
           f"{len(got)} triples reached vs {len(expected)} expected")
    groups = {}
    for word in words:
        key = _columns(*word)
        groups[key] = groups.get(key, 0) + 1
    for key, count in sorted(groups.items()):
        want = column_realization_count(key, r)
        if count != want:
            yield ("fact", f"column multiset {key}", False,
                   f"{count} biwords vs multinomial {want}")
            return
    yield ("fact", f"column multiset counts (r={r} n={n})", True, None)
    tally = {}
    for lam, values, _ in words:
        key = (max(values, default=0), max(lam, default=0))
        tally[key] = tally.get(key, 0) + 1
    # within[k1][k2] counts the biwords with max f <= k1 and max g <= k2, the
    # 2-D prefix sums of the tally; index -1 reads the spare zero row or column
    within = [[0] * (cap_g + 2) for _ in range(cap_f + 2)]
    ctx = SeriesContext(("q1", "q2", "a", "b"))
    for k1, k2, term in _theorem_B_rhs_terms(ctx, r, n, cap_f, cap_g):
        actual = within[k1][k2] = (
            tally.get((k1, k2), 0) + within[k1 - 1][k2]
            + within[k1][k2 - 1] - within[k1 - 1][k2 - 1])
        # the coefficient's value at q1 = q2 = a = b = 1
        predicted = sum(term.terms.values())
        yield ("fact", f"count at caps ({k1},{k2})", actual == predicted,
               f"{actual} biwords vs coefficient {predicted}")


CATALOG = {
    "length_gf": (_length_gf, {"r": 2, "n": 3}),
    "ell_col": (_ell_col, {"r": 2, "n": 3}),
    "projection": (_projection, {"r": 3, "n": 2}),
    "desmaj": (_desmaj, {"r": 2, "n": 2, "tmax": 3}),
    "keylem": (_keylem, {"r": 2, "n": 3, "parts_max": 4}),
    "theorem_A": (_theorem_A, {"r": 2, "n": 2, "tmax": 3}),
    "theorem_B": (_theorem_B, {"r": 2, "n": 2, "t1max": 2, "t2max": 2}),
    "chow_gessel": (_chow_gessel, {"r": 2, "n": 2, "tmax": 3}),
    "carlitz": (_carlitz, {"r": 2, "n": 2, "tmax": 3}),
    "reiner": (_reiner, {"r": 2, "nmax": 3}),
    "brenti": (_brenti, {"r": 2, "nmax": 3}),
    "gessel_roselle": (_gessel_roselle, {"r": 2, "ucap": 3, "pcap": 6, "qcap": 6}),
    "adin_roichman": (_adin_roichman, {"r": 2, "ucap": 2, "qcap": 6}),
    "gg1": (_gg1, {"n": 3, "tmax": 3}),
    "gg2": (_gg2, {"n": 2, "t1max": 2, "t2max": 2}),
    "bijection_stats": (_bijection_stats, {"r": 2, "n": 3, "cap": 2}),
    "biword_count": (_biword_count, {"r": 2, "n": 2, "cap_f": 2, "cap_g": 2}),
}


def selftest_localization(entries=None):
    """Corrupt one coefficient per side and check the mismatch is localized.

    Returns a list of (identity, ok) pairs; ok means the clean run passed,
    both corrupted runs failed, and each reported exactly the corrupted
    monomial.
    """
    if entries is None:
        entries = [
            ("length_gf", {"r": 2, "n": 2}),
            ("chow_gessel", {"r": 2, "n": 2, "tmax": 3}),
            ("keylem", {"r": 2, "n": 2}),
        ]
    results = []
    for name, params in entries:
        ok = verify_identity(name, **params).passed
        for side in ("lhs", "rhs"):
            report = verify_identity(name, corrupt=side, **params)
            ok = ok and not report.passed and report.mismatch is not None \
                and report.mismatch.get("monomial") == report.corrupted_monomial
        results.append((name, ok))
    return results
