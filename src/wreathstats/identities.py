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
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .group import (
    BudgetExceededError,
    _descent_set,
    _inverse_colors,
    _inverse_sigma,
    enumerate_group,
    group_order,
    inverse,
    project_to_signed,
    raw_statistics,
    skew_inverse,
    statistics,
)
from .encoding import (
    _residue,
    enumerate_sequences,
    is_compatible,
    partitions_in_box,
    pi_of,
    sequence_from,
)
from .biwords import (
    column_multiset,
    column_realization_count,
    enumerate_biwords,
    from_triple,
    to_triple,
)
from .qseries import (
    MultiPoly,
    SeriesContext,
    bracket_two_param,
    coefficient_of,
    divide_exact,
    double_pochhammer,
    exp_series,
    hat_factorial,
    hat_multinomial,
    monomial_text,
    pochhammer,
    q_factorial,
    q_int,
    reciprocal,
    substitute,
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

DEFAULT_MAX_ELEMENTS = 10 ** 7
DEFAULT_MAX_TERMS = 10 ** 6


class CatalogError(ValueError):
    """A name the catalog does not have: an unknown identity, or a parameter
    the chosen entry does not take."""


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
    1 to des and i to maj.  Each element is a leaf, visited once.  Inverse
    quantities, when weighted, come from ``raw_statistics`` on the true
    inverse at the leaf.
    """
    wlen, wdes, wmaj, wcol, wides, wimaj, wicol = weights
    with_inverse = any(weights[4:])
    # Each value's (color, rank, weight added) triples; the rank is the
    # position of v^c in the colored-integer order: colored entries first,
    # larger value and then larger color lower, then 0, then 1..n.
    zero = n * (r - 1)
    entries = [[(0, zero + v, 0)]
               + [(c, (n - v) * (r - 1) + r - 1 - c, (v + c - 1) * wlen + c * wcol)
                  for c in range(1, r)]
               for v in range(n + 1)]
    descent = [wdes + i * wmaj for i in range(n)]
    sigma = [0] * n
    colors = [0] * n
    tally = {}
    last = n - 1

    def place(i, free, mask, prev, key):
        if i == last:
            leaves(free[0], mask, prev, key)
            return
        for j, v in enumerate(free):
            rest = free[:j] + free[j + 1:]
            sigma[i] = v
            for c, k, step in entries[v]:
                colors[i] = c
                step += key + (mask >> k).bit_count() * wlen
                if prev > k:
                    step += descent[i]
                place(i + 1, rest, mask | 1 << k, k, step)

    # The last position is unrolled here rather than recursed into: one call
    # fewer per element, which halves the walk's time at r=4, n=5.
    def leaves(v, mask, prev, key):
        sigma[last] = v
        inv_sigma = _inverse_sigma(sigma) if with_inverse else None
        for c, k, step in entries[v]:
            step += key + (mask >> k).bit_count() * wlen
            if prev > k:
                step += descent[last]
            if with_inverse:
                colors[last] = c
                _, _, _, ides, imaj, _, icol = raw_statistics(
                    r, inv_sigma, _inverse_colors(r, colors, inv_sigma))
                step += ides * wides + imaj * wimaj + icol * wicol
            tally[step] = tally.get(step, 0) + 1

    if n:
        place(0, list(range(1, n + 1)), 0, zero, 0)
    else:
        tally[0] = 1
    return tally


def dist_polynomial(ctx, r, n, stats, max_elements=DEFAULT_MAX_ELEMENTS):
    """Sum over the whole group of the monomial assigned by ``stats``.

    ``stats`` maps statistic names (des, maj, length, col, fmaj and their
    inverse-element variants ides, imaj, icol, ifmaj) to context variables.
    The group is walked depth-first, one window position at a time, with
    the monomial updated incrementally, so every element is visited once
    and no closed form is used.  Inverse statistics are taken from the
    true group inverse at each element.
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
    if max_elements is not None and group_order(r, n) > max_elements:
        raise BudgetExceededError(
            f"group of order {group_order(r, n)} exceeds budget {max_elements}")
    tally = _walk_group(r, n, tuple(weights.values()))
    field = (1 << width) - 1
    shifts = [i * width for i in range(len(ctx.variables))]
    acc = {tuple((key >> shift) & field for shift in shifts): count
           for key, count in tally.items()}
    return MultiPoly(ctx, acc)


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
        if key.endswith("max") or key.endswith("cap"):
            if value == 0:
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
            diff = lhs - rhs
            if not diff.is_zero:
                exps = min(diff.terms)
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


def _weak_compositions(n, parts):
    """Weak compositions of n into exactly ``parts`` nonnegative parts."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    for head in range(n + 1):
        for tail in _weak_compositions(n - head, parts - 1):
            yield (head,) + tail


# -- catalog entries ---------------------------------------------------------


def _length_gf(max_elements, r, n):
    ctx = SeriesContext(("p",))
    lhs = dist_polynomial(ctx, r, n, {"length": "p"}, max_elements)
    rhs = hat_factorial(ctx, n, q_int(ctx, r - 1, "p"), "p")
    yield ("poly", f"r={r} n={n}", lhs, rhs)


def _ell_col(max_elements, r, n):
    ctx = SeriesContext(("p", "a"))
    lhs = dist_polynomial(ctx, r, n, {"length": "p", "col": "a"},
                          max_elements)
    rhs = q_factorial(ctx, n, "p")
    one = MultiPoly.constant(ctx, 1)
    twist = _color_twist(ctx, r)
    for i in range(1, n + 1):
        rhs = rhs * (one + MultiPoly.monomial(ctx, 1, p=i) * twist)
    yield ("poly", f"r={r} n={n}", lhs, rhs)


def _projection(max_elements, r, n):
    ctx = SeriesContext(("p", "a"))
    buckets = {}
    for gamma in enumerate_group(r, n, max_elements):
        flat = project_to_signed(gamma)
        rec, flat_rec = statistics(gamma), statistics(flat)
        if rec.des_set != flat_rec.des_set:
            yield ("fact", f"descents of {gamma}", False,
                   f"{sorted(rec.des_set)} vs {sorted(flat_rec.des_set)}"
                   " after forgetting colors")
            return
        if statistics(inverse(gamma)).des_set != statistics(inverse(flat)).des_set:
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


def _desmaj(max_elements, r, n, tmax):
    ctx = SeriesContext(("t", "q"), (tmax, None))
    buckets = {}
    for f in enumerate_sequences(r, n, max_cap=tmax, restrict_n0=True,
                                 max_elements=max_elements):
        gamma = pi_of(f)
        key = (gamma.sigma, gamma.colors)
        top = max(f.values, default=0)
        exps = (top, top * n - sum(f.values))
        entry = buckets.setdefault(key, {})
        entry[exps] = entry.get(exps, 0) + 1
    t = MultiPoly.variable(ctx, "t")
    denom = reciprocal(pochhammer(ctx, t, "q", n))
    for gamma in enumerate_group(r, n, max_elements):
        rec = statistics(gamma)
        lhs = MultiPoly(ctx, buckets.get((gamma.sigma, gamma.colors), {}))
        rhs = MultiPoly.monomial(ctx, 1, t=rec.des, q=rec.maj) * denom
        yield ("poly", f"sequences sorting to {gamma} (r={r})", lhs, rhs)


def _keylem(max_elements, r, n, parts_max=4):
    ctx = SeriesContext(("p", "a"))
    twist = _color_twist(ctx, r)
    for nparts in range(1, parts_max + 1):
        for comp in _weak_compositions(n, nparts):
            acc = {}
            for f in enumerate_sequences(r, n, composition=comp,
                                          max_elements=max_elements):
                gamma = pi_of(f)
                rec = raw_statistics(r, gamma.sigma, gamma.colors)
                exps = (rec[1], rec[6])
                acc[exps] = acc.get(exps, 0) + 1
            lhs = MultiPoly(ctx, acc)
            rhs = hat_multinomial(ctx, comp, twist, "p")
            yield ("poly", f"composition {comp} (r={r})", lhs, rhs)


def _theorem_A_cases(max_elements, r, n, tmax):
    ctx = SeriesContext(("t", "q", "p", "a", "u"), (tmax, None, None, None, n))
    twist = _color_twist(ctx, r)
    dist = dist_polynomial(ctx, r, n,
                           {"des": "t", "maj": "q", "length": "p", "col": "a"},
                           max_elements)
    t = MultiPoly.variable(ctx, "t")
    lhs = dist * reciprocal(pochhammer(ctx, t, "q", n + 1))
    plain = exp_series(ctx, "p", "u", n, p_var="p")
    hatted = exp_series(ctx, "hat", "u", n, p_var="p", a_expr=twist)
    nfact = q_factorial(ctx, n, "p")
    rhs = MultiPoly.zero(ctx)
    clearing = MultiPoly.constant(ctx, 1)
    # running = prod_{i<k} plain(q^i u), extended by one factor per k
    running = MultiPoly.constant(ctx, 1)
    for k in range(tmax + 1):
        qk = MultiPoly.monomial(ctx, 1, q=k, u=1)
        prod = substitute(hatted, "u", qk) * running
        term = divide_exact(coefficient_of(prod, "u", n), clearing)
        rhs = rhs + MultiPoly.monomial(ctx, 1, t=k) * term
        clearing = clearing * nfact
        if k < tmax:
            running = running * substitute(plain, "u", qk)
    return f"r={r} n={n} tmax={tmax}", lhs, rhs


def _theorem_A(max_elements, r, n, tmax):
    yield ("poly", *_theorem_A_cases(max_elements, r, n, tmax))


def _theorem_B_rhs_term(ctx, r, n, k1, k2):
    u = MultiPoly.variable(ctx, "u")
    first = double_pochhammer(ctx, u, "q1", "q2", k1 + 1, k2 + 1)
    marked = MultiPoly.monomial(ctx, 1, a=1, b=1) \
        * bracket_two_param(ctx, r - 1, "a", "b") * u
    second = double_pochhammer(ctx, marked, "q1", "q2", k1, k2)
    return coefficient_of(reciprocal(first * second), "u", n)


def _theorem_B_cases(max_elements, r, n, t1max, t2max):
    ctx = SeriesContext(("t1", "t2", "q1", "q2", "a", "b", "u"),
                        (t1max, t2max, None, None, None, None, n))
    dist = dist_polynomial(ctx, r, n,
                           {"des": "t1", "ides": "t2", "maj": "q1",
                            "imaj": "q2", "col": "a", "icol": "b"},
                           max_elements)
    t1 = MultiPoly.variable(ctx, "t1")
    t2 = MultiPoly.variable(ctx, "t2")
    lhs = dist * reciprocal(pochhammer(ctx, t1, "q1", n + 1)) \
        * reciprocal(pochhammer(ctx, t2, "q2", n + 1))
    rhs = MultiPoly.zero(ctx)
    for k1 in range(t1max + 1):
        for k2 in range(t2max + 1):
            term = _theorem_B_rhs_term(ctx, r, n, k1, k2)
            rhs = rhs + MultiPoly.monomial(ctx, 1, t1=k1, t2=k2) * term
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
    t = MultiPoly.variable(ctx, "t")
    a = MultiPoly.variable(ctx, "a")
    lhs = dist * reciprocal(pochhammer(ctx, t, "q", n + 1))
    rhs = MultiPoly.zero(ctx)
    twist = a * q_int(ctx, r - 1, "a")
    for k in range(tmax + 1):
        base = q_int(ctx, k + 1, "q") + twist * q_int(ctx, k, "q")
        rhs = rhs + MultiPoly.monomial(ctx, 1, t=k) * base ** n
    yield ("poly", f"r={r} n={n} tmax={tmax}", lhs, rhs)


def _carlitz(max_elements, r, n, tmax):
    ctx = SeriesContext(("t", "q"), (tmax, None))
    dist = dist_polynomial(ctx, r, n, {"des": "t", "fmaj": "q"},
                           max_elements)
    t = MultiPoly.variable(ctx, "t")
    qr = MultiPoly.monomial(ctx, 1, q=r)
    lhs = dist * reciprocal(pochhammer(ctx, t, qr, n + 1))
    rhs = MultiPoly.zero(ctx)
    for k in range(tmax + 1):
        rhs = rhs + MultiPoly.monomial(ctx, 1, t=k) * q_int(ctx, r * k + 1, "q") ** n
    yield ("poly", f"r={r} n={n} tmax={tmax}", lhs, rhs)


def _reiner(max_elements, r, nmax):
    for n in range(nmax + 1):
        tcap = n + 1
        ctx = SeriesContext(("t", "p", "u"), (tcap, None, n))
        lhs = dist_polynomial(ctx, r, n, {"des": "t", "length": "p"},
                              max_elements)
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
        rhs = shrink * rhs
        yield ("poly", f"r={r} n={n}", lhs, rhs)


def _brenti(max_elements, r, nmax):
    tcap = nmax + 1
    ctx = SeriesContext(("u", "t", "a"), (nmax, tcap, None))
    lhs = MultiPoly.zero(ctx)
    for n in range(nmax + 1):
        dist = dist_polynomial(ctx, r, n, {"des": "t", "col": "a"},
                               max_elements)
        lhs = lhs + dist * MultiPoly.monomial(ctx, Fraction(1, factorial(n)), u=n)
    one = MultiPoly.constant(ctx, 1)
    t = MultiPoly.variable(ctx, "t")
    a = MultiPoly.variable(ctx, "a")
    shrink = one - t
    classical = exp_series(ctx, "classical", "u", nmax)
    lift = one + a * q_int(ctx, r - 1, "a")
    outer = substitute(classical, "u", shrink * MultiPoly.variable(ctx, "u"))
    inner = substitute(classical, "u", lift * shrink * MultiPoly.variable(ctx, "u"))
    rhs = shrink * outer * reciprocal(one - t * inner)
    yield ("poly", f"r={r} nmax={nmax}", lhs, rhs)


def _gessel_roselle(max_elements, r, ucap, pcap, qcap):
    ctx = SeriesContext(("u", "p", "q"), (ucap, pcap, qcap))
    u = MultiPoly.variable(ctx, "u")
    series = reciprocal(double_pochhammer(ctx, u, "p", "q", None, None))
    p = MultiPoly.variable(ctx, "p")
    for n in range(ucap + 1):
        lhs = dist_polynomial(ctx, r, n, {"maj": "q", "length": "p"},
                              max_elements)
        clear = pochhammer(ctx, MultiPoly.variable(ctx, "q"), "q", n) \
            * pochhammer(ctx, -(p * q_int(ctx, r - 1, "p")), "p", n) \
            * pochhammer(ctx, p, "p", n)
        rhs = coefficient_of(series, "u", n) * clear
        yield ("poly", f"r={r} n={n}", lhs, rhs)


def _adin_roichman(max_elements, r, ucap, qcap):
    ctx = SeriesContext(("u", "q1", "q2"), (ucap, qcap, qcap))
    u = MultiPoly.variable(ctx, "u")
    b1 = MultiPoly.monomial(ctx, 1, q1=r)
    b2 = MultiPoly.monomial(ctx, 1, q2=r)
    first = double_pochhammer(ctx, u, b1, b2, None, None)
    marked = MultiPoly.monomial(ctx, 1, q1=1, q2=1) \
        * bracket_two_param(ctx, r - 1, "q1", "q2") * u
    second = double_pochhammer(ctx, marked, b1, b2, None, None)
    series = reciprocal(first * second)
    for n in range(ucap + 1):
        lhs = dist_polynomial(ctx, r, n, {"fmaj": "q1", "ifmaj": "q2"},
                              max_elements)
        clear = pochhammer(ctx, b1, b1, n) * pochhammer(ctx, b2, b2, n)
        rhs = coefficient_of(series, "u", n) * clear
        yield ("poly", f"r={r} n={n}", lhs, rhs)


def _bijection_stats(max_elements, r, n, cap):
    # Each sequence is sorted once: pi_of and its descent set serve the
    # residue and the bookkeeping identities, while sequence_from, the map
    # under test, reads its own.
    checked = 0
    for f in enumerate_sequences(r, n, max_cap=cap, restrict_n0=True,
                                 max_elements=max_elements):
        gamma = pi_of(f)
        des_set = _descent_set(gamma.sigma, gamma.colors)
        lam = _residue(f, gamma, des_set)
        des, maj = len(des_set), sum(des_set)
        back = sequence_from(gamma, lam)
        if back != f:
            yield ("fact", f"round trip of {f}", False, f"came back as {back}")
            return
        top, total = max(f.values, default=0), sum(f.values)
        if top != lam.max_part + des:
            yield ("fact", f"max relation at {f}", False,
                   f"max {top} vs {lam.max_part} + {des}")
            return
        if total != lam.weight + n * des - maj:
            yield ("fact", f"sum relation at {f}", False,
                   f"{total} vs {lam.weight} + {n}*{des} - {maj}")
            return
        sorted_vals = [f.values[s - 1] for s in gamma.sigma]
        if any(i and sorted_vals[i - 1] >= sorted_vals[i] for i in des_set):
            yield ("fact", f"descent forces growth at {f}", False, None)
            return
        checked += 1
    yield ("fact", f"sequence side r={r} n={n} cap={cap} ({checked} sequences)",
           True, None)
    checked = 0
    boxes = list(partitions_in_box(n, cap))
    for gamma in enumerate_group(r, n, max_elements):
        des_set = _descent_set(gamma.sigma, gamma.colors)
        for lam in boxes:
            f = sequence_from(gamma, lam)
            if not f.in_n0:
                yield ("fact", f"image of ({gamma}, {lam})", False,
                       "left the zero-forces-uncolored set")
                return
            # once pi_of(f) is gamma, lambda_of(f) reads gamma's descent set
            if pi_of(f) != gamma or _residue(f, gamma, des_set) != lam:
                yield ("fact", f"round trip of ({gamma}, {lam})", False, None)
                return
            checked += 1
    yield ("fact", f"pair side r={r} n={n} cap={cap} ({checked} pairs)",
           True, None)


def _biword_count(max_elements, r, n, cap_f, cap_g):
    words = list(enumerate_biwords(r, n, cap_f, cap_g,
                                   max_elements=max_elements))
    triples = [to_triple(b) for b in words]
    got = set((t.gamma, t.lam, t.mu) for t in triples)
    if len(got) != len(words):
        yield ("fact", "injectivity", False, "two biwords shared a triple")
        return
    for b, t in zip(words, triples):
        if from_triple(t) != b:
            yield ("fact", f"round trip of {b}", False, None)
            return
    tops = list(partitions_in_box(n, cap_g))
    bottoms = list(partitions_in_box(n, cap_f))
    expected = set()
    for gamma in enumerate_group(r, n, max_elements):
        skew = skew_inverse(gamma)
        mus = [mu for mu in bottoms if is_compatible(mu, gamma)]
        for lam in tops:
            if is_compatible(lam, skew):
                expected.update((gamma, lam, mu) for mu in mus)
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
    tally = {}
    for b in words:
        key = (max(b.f.values, default=0), b.g.max_part)
        tally[key] = tally.get(key, 0) + 1
    # within[k1][k2] counts the biwords with max f <= k1 and max g <= k2, the
    # 2-D prefix sums of the tally; index -1 reads the spare zero row or column
    within = [[0] * (cap_g + 2) for _ in range(cap_f + 2)]
    ctx = SeriesContext(("q1", "q2", "a", "b", "u"),
                        (None, None, None, None, n))
    one = MultiPoly.constant(ctx, 1)
    for k1 in range(cap_f + 1):
        for k2 in range(cap_g + 1):
            actual = within[k1][k2] = (
                tally.get((k1, k2), 0) + within[k1 - 1][k2]
                + within[k1][k2 - 1] - within[k1 - 1][k2 - 1])
            term = _theorem_B_rhs_term(ctx, r, n, k1, k2)
            for var in ("q1", "q2", "a", "b"):
                term = substitute(term, var, one)
            predicted = term.constant_term
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
