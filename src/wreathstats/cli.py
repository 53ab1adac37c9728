"""Command-line front end.

Subcommands: ``stats`` (statistics of one element), ``table`` (statistics of
a whole group), ``encode``/``decode`` (the sequence encoding both ways),
``decompose`` (parabolic factorization), ``biword`` (biword to triple),
``verify`` (identity catalog) and ``selftest`` (harness corruption check).

Exit codes: 0 on success or pass, 1 on identity failure or invalid
mathematical input, 2 on usage errors or exceeded budgets.  Results go to
stdout, error text and warnings (one ``warning: <message>`` line each) to
stderr; with ``--json`` the output follows the JSON schemas documented in
the README.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from .group import (
    BudgetExceededError,
    ParseError,
    enumerate_group,
    format_window,
    parse_window,
    statistics,
)
from .encoding import (
    format_sequence,
    lambda_of,
    parse_partition,
    parse_sequence,
    pi_of,
    sequence_from,
)
from .parabolic import DescentClass, decompose
from .biwords import Biword, to_triple
from .identities import (
    CATALOG,
    CatalogError,
    DEFAULT_MAX_ELEMENTS,
    DEFAULT_MAX_TERMS,
    _entry_params,
    selftest_localization,
    verify_identity,
)

# The verify flags are the catalog's parameter names, spelled as below where
# the flag differs from the parameter.
_FLAG_SPELLING = {"cap_f": "capf", "cap_g": "capg"}
_VERIFY_PARAMS = {_FLAG_SPELLING.get(param, param): param
                  for _, defaults in CATALOG.values() for param in defaults}

_STATS_TEXT_KEYS = ("window", "inv", "length", "des_set", "des", "maj", "fmaj",
                    "col", "col_vector")
_TABLE_TEXT_KEYS = ("inv", "length", "des", "maj", "fmaj", "col")


def _stats_dict(r, gamma):
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


# Each command returns (JSON payload, text lines, exit status); main prints
# one or the other.  The lines may be a generator, so that a --json call of
# stats or table does not format text it never prints.


def _stats_lines(info):
    text = dict(info, des_set="{" + ",".join(map(str, info["des_set"])) + "}",
                col_vector=",".join(map(str, info["col_vector"])))
    for key in _STATS_TEXT_KEYS:
        yield f"{key}={text[key]}"


def _cmd_stats(args):
    info = _stats_dict(args.r, parse_window(args.window, args.r))
    return info, _stats_lines(info), 0


def _cmd_table(args):
    rows = [_stats_dict(args.r, gamma)
            for gamma in enumerate_group(args.r, args.n, args.max_elements)]
    lines = (row["window"] + " "
             + " ".join(f"{key}={row[key]}" for key in _TABLE_TEXT_KEYS)
             for row in rows)
    return rows, lines, 0


def _cmd_encode(args):
    f = parse_sequence(args.f, args.r)
    window = format_window(pi_of(f))
    lam = lambda_of(f)
    return ({"window": window, "partition": list(lam.parts)},
            [f"window {window}", f"partition {lam}"], 0)


def _cmd_decode(args):
    gamma = parse_window(args.window, args.r)
    lam = parse_partition(args.partition)
    sequence = format_sequence(sequence_from(gamma, lam))
    return {"sequence": sequence}, [sequence], 0


def _parse_J(text, n):
    members = []
    if text.strip():
        for piece in text.split(","):
            try:
                members.append(int(piece.strip()))
            except ValueError:
                raise ParseError(f"bad generator index {piece.strip()!r}") from None
    if any(not 0 <= j < n for j in members):
        raise ParseError(f"generator indices must lie in [0, {n - 1}]")
    return frozenset(members)


def _cmd_decompose(args):
    gamma = parse_window(args.window, args.r)
    cls = DescentClass(args.r, gamma.n, _parse_J(args.J, gamma.n))
    tau, delta = (format_window(x) for x in decompose(gamma, cls))
    return {"tau": tau, "delta": delta}, [f"tau {tau}", f"delta {delta}"], 0


def _cmd_biword(args):
    g = parse_partition(args.g)
    f = parse_sequence(args.f, args.r)
    try:
        word = Biword(g=g, f=f)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    triple = to_triple(word)
    gamma = format_window(triple.gamma)
    return ({"gamma": gamma, "lambda": list(triple.lam.parts),
             "mu": list(triple.mu.parts)},
            [f"gamma {gamma}", f"lambda {triple.lam}", f"mu {triple.mu}"], 0)


def _cmd_verify(args):
    given = {param: getattr(args, flag) for flag, param in _VERIFY_PARAMS.items()
             if getattr(args, flag) is not None}
    if args.all:
        # each entry gets the given flags it takes; every entry's range is
        # checked before any entry runs
        runs = [(name, {k: v for k, v in given.items() if k in defaults})
                for name, (_, defaults) in CATALOG.items()]
        for name, params in runs:
            _entry_params(name, params)
    else:
        runs = [(args.identity, given)]
    reports = [verify_identity(name, max_elements=args.max_elements,
                               max_terms=args.max_terms, **params)
               for name, params in runs]
    lines = []
    for report in reports:
        lines.append(" ".join([report.identity]
                              + [f"{k}={v}" for k, v in sorted(report.params.items())]
                              + ["PASS" if report.passed else "FAIL"]))
        if report.mismatch:
            lines.append(f"  mismatch: {json.dumps(report.mismatch, sort_keys=True)}")
    return ([report.to_json_dict() for report in reports], lines,
            0 if all(report.passed for report in reports) else 1)


def _cmd_selftest(args):
    results = selftest_localization()
    return ([{"identity": name, "localized": ok} for name, ok in results],
            [f"{name} {'PASS' if ok else 'FAIL'}" for name, ok in results],
            0 if all(ok for _, ok in results) else 1)


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wreathstats",
        description="Statistics, encodings and identity checks for colored "
                    "permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help, *, r=False, n=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if r:
            p.add_argument("--r", type=int, required=True,
                           help="number of colors (r >= 1)")
        if n:
            p.add_argument("--n", type=int, required=True,
                           help="number of letters (n >= 0)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    p = add("stats", _cmd_stats, "statistics of one element", r=True)
    p.add_argument("--window", required=True, help='window notation, e.g. "[4^1,3,2^4,1^2]"')

    p = add("table", _cmd_table, "statistics of a whole group", r=True, n=True)
    p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)

    p = add("encode", _cmd_encode, "sequence to (window, partition)", r=True)
    p.add_argument("--f", required=True, help='sequence, e.g. "4^2,4^1,1,3^3,6,3^1,4^2"')

    p = add("decode", _cmd_decode, "(window, partition) to sequence", r=True)
    p.add_argument("--window", required=True)
    p.add_argument("--partition", required=True, help='comma-separated parts, e.g. "0,2,2,3,3"')

    p = add("decompose", _cmd_decompose, "parabolic factorization tau * delta", r=True)
    p.add_argument("--window", required=True)
    p.add_argument("--J", required=True,
                   help='generator subset, e.g. "1,2,4,5,7" (empty string for none)')

    p = add("biword", _cmd_biword, "biword to its (gamma, lambda, mu) triple", r=True)
    p.add_argument("--g", required=True, help="top row (a partition)")
    p.add_argument("--f", required=True, help="bottom row (a colored sequence)")

    p = add("verify", _cmd_verify, "check identities from the catalog")
    selector = p.add_mutually_exclusive_group(required=True)
    selector.add_argument("--identity", help="catalog entry name")
    selector.add_argument("--all", action="store_true",
                          help="run the whole catalog")
    for flag in _VERIFY_PARAMS:
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)

    add("selftest", _cmd_selftest, "corruption-localization self-test")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    # Warnings that pass the interpreter's filters are printed as one line
    # each, before any error, rather than in the file:line format.
    with warnings.catch_warnings(record=True) as caught:
        try:
            payload, lines, status = args.run(args)
        except BudgetExceededError as exc:
            error, status = f"budget exceeded: {exc}", 2
        except CatalogError as exc:
            error, status = str(exc), 2
        except ValueError as exc:
            error, status = f"invalid input: {exc}", 1
        else:
            error = None
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    if error is not None:
        print(error, file=sys.stderr)
        return status
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
