"""Command-line front end.

Subcommands: ``stats`` (statistics of one element), ``table`` (statistics of
a whole group), ``encode``/``decode`` (the sequence encoding both ways),
``decompose`` (parabolic factorization), ``biword`` (biword to triple),
``verify`` (identity catalog) and ``selftest`` (harness corruption check).

Exit codes: 0 on success or pass, 1 on identity failure or invalid
mathematical input, 2 on usage errors or exceeded budgets.  Results go to
stdout, error text to stderr; with ``--json`` the output follows the JSON
schemas documented in the README.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .group import (
    BudgetExceededError,
    ParseError,
    enumerate_group,
    format_window,
    inverse,
    parse_window,
    skew_inverse,
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
    DEFAULT_MAX_ELEMENTS,
    DEFAULT_MAX_TERMS,
    selftest_localization,
    verify_identity,
)

_VERIFY_FLAGS = {
    "r": "r",
    "n": "n",
    "nmax": "nmax",
    "tmax": "tmax",
    "t1max": "t1max",
    "t2max": "t2max",
    "ucap": "ucap",
    "pcap": "pcap",
    "qcap": "qcap",
    "cap": "cap",
    "capf": "cap_f",
    "capg": "cap_g",
    "parts_max": "parts_max",
}


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


def _print_stats_text(info):
    for key in ("window", "inv", "length", "des_set", "des", "maj", "fmaj",
                "col", "col_vector"):
        value = info[key]
        if isinstance(value, list):
            value = "{" + ",".join(str(v) for v in value) + "}" \
                if key == "des_set" else ",".join(str(v) for v in value)
        print(f"{key}={value}")


def _cmd_stats(args):
    gamma = parse_window(args.window, args.r)
    info = _stats_dict(args.r, gamma)
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        _print_stats_text(info)
    return 0


def _cmd_table(args):
    rows = [_stats_dict(args.r, gamma)
            for gamma in enumerate_group(args.r, args.n, args.max_elements)]
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for row in rows:
            cells = " ".join(f"{k}={row[k]}" for k in
                             ("inv", "length", "des", "maj", "fmaj", "col"))
            print(f"{row['window']} {cells}")
    return 0


def _cmd_encode(args):
    f = parse_sequence(args.f, args.r)
    gamma = pi_of(f)
    lam = lambda_of(f)
    if args.json:
        print(json.dumps({"window": format_window(gamma),
                          "partition": list(lam.parts)}, sort_keys=True))
    else:
        print(f"window {format_window(gamma)}")
        print(f"partition {lam}")
    return 0


def _cmd_decode(args):
    gamma = parse_window(args.window, args.r)
    lam = parse_partition(args.partition)
    f = sequence_from(gamma, lam)
    if args.json:
        print(json.dumps({"sequence": format_sequence(f)}, sort_keys=True))
    else:
        print(format_sequence(f))
    return 0


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
    tau, delta = decompose(gamma, cls)
    if args.json:
        print(json.dumps({"tau": format_window(tau),
                          "delta": format_window(delta)}, sort_keys=True))
    else:
        print(f"tau {format_window(tau)}")
        print(f"delta {format_window(delta)}")
    return 0


def _cmd_biword(args):
    g = parse_partition(args.g)
    f = parse_sequence(args.f, args.r)
    try:
        word = Biword(g=g, f=f)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    triple = to_triple(word)
    if args.json:
        print(json.dumps({"gamma": format_window(triple.gamma),
                          "lambda": list(triple.lam.parts),
                          "mu": list(triple.mu.parts)}, sort_keys=True))
    else:
        print(f"gamma {format_window(triple.gamma)}")
        print(f"lambda {triple.lam}")
        print(f"mu {triple.mu}")
    return 0


def _report_params(args):
    params = {}
    for flag, param in _VERIFY_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            params[param] = value
    return params


def _run_entry(name, params, max_elements, max_terms):
    allowed = CATALOG[name][1]
    chosen = {k: v for k, v in params.items() if k in allowed}
    return verify_identity(name, max_elements=max_elements,
                           max_terms=max_terms, **chosen)


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        return
    pieces = [report.identity]
    pieces += [f"{k}={v}" for k, v in sorted(report.params.items())]
    pieces.append("PASS" if report.passed else "FAIL")
    print(" ".join(pieces))
    if report.mismatch:
        print(f"  mismatch: {json.dumps(report.mismatch, sort_keys=True)}")


def _cmd_verify(args):
    params = _report_params(args)
    if args.all:
        names = list(CATALOG)
    elif args.identity in CATALOG:
        names = [args.identity]
    else:
        print(f"unknown identity {args.identity!r}; known: "
              + ", ".join(sorted(CATALOG)), file=sys.stderr)
        return 2
    reports = [_run_entry(name, params, args.max_elements, args.max_terms)
               for name in names]
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True))
    else:
        for report in reports:
            _print_report(report, False)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_selftest(args):
    results = selftest_localization()
    if args.json:
        print(json.dumps([{"identity": name, "localized": ok}
                          for name, ok in results], sort_keys=True))
    else:
        for name, ok in results:
            print(f"{name} {'PASS' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in results) else 1


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wreathstats",
        description="Statistics, encodings and identity checks for colored "
                    "permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, r=False, n=False):
        if r:
            p.add_argument("--r", type=int, required=True,
                           help="number of colors (r >= 1)")
        if n:
            p.add_argument("--n", type=int, required=True,
                           help="number of letters (n >= 0)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("stats", help="statistics of one element")
    add_common(p, r=True)
    p.add_argument("--window", required=True, help='window notation, e.g. "[4^1,3,2^4,1^2]"')

    p = sub.add_parser("table", help="statistics of a whole group")
    add_common(p, r=True, n=True)
    p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)

    p = sub.add_parser("encode", help="sequence to (window, partition)")
    add_common(p, r=True)
    p.add_argument("--f", required=True, help='sequence, e.g. "4^2,4^1,1,3^3,6,3^1,4^2"')

    p = sub.add_parser("decode", help="(window, partition) to sequence")
    add_common(p, r=True)
    p.add_argument("--window", required=True)
    p.add_argument("--partition", required=True, help='comma-separated parts, e.g. "0,2,2,3,3"')

    p = sub.add_parser("decompose", help="parabolic factorization tau * delta")
    add_common(p, r=True)
    p.add_argument("--window", required=True)
    p.add_argument("--J", required=True,
                   help='generator subset, e.g. "1,2,4,5,7" (empty string for none)')

    p = sub.add_parser("biword", help="biword to its (gamma, lambda, mu) triple")
    add_common(p, r=True)
    p.add_argument("--g", required=True, help="top row (a partition)")
    p.add_argument("--f", required=True, help="bottom row (a colored sequence)")

    p = sub.add_parser("verify", help="check identities from the catalog")
    selector = p.add_mutually_exclusive_group(required=True)
    selector.add_argument("--identity", help="catalog entry name")
    selector.add_argument("--all", action="store_true",
                          help="run the whole catalog")
    p.add_argument("--json", action="store_true")
    for flag in _VERIFY_FLAGS:
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)

    p = sub.add_parser("selftest", help="corruption-localization self-test")
    p.add_argument("--json", action="store_true")

    return parser


_COMMANDS = {
    "stats": _cmd_stats,
    "table": _cmd_table,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "decompose": _cmd_decompose,
    "biword": _cmd_biword,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
