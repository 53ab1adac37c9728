"""Workloads of the wreathstats benchmark: the calls each one makes and the
oracles that check every answer.

Each workload is a fixed list of ``cli.main`` calls (one pass).  The two
identity workloads use fixed parameter lists on purpose, so their pass time
does not depend on the seed; the seed only picks which small catalog cases
get a corrupted coefficient.  The ``cli`` workload draws its inputs from the
seed, with a fixed number of calls of each kind.

The oracles do not call the package: statistics, the sequence encoding, the
biword bijection and the group product are rebuilt here from their
definitions in the README and the module docstrings.
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("ring", "enumerate", "cli")

# -- identity workloads ----------------------------------------------------

IDENTITY_CALLS = {
    "ring": [
        ("theorem_A", {"r": 3, "n": 4, "tmax": 5}),
        ("theorem_B", {"r": 3, "n": 3, "t1max": 3, "t2max": 3}),
        ("reiner", {"r": 3, "nmax": 5}),
        ("gessel_roselle", {"r": 3, "ucap": 4, "pcap": 8, "qcap": 8}),
    ],
    "enumerate": [
        ("length_gf", {"r": 4, "n": 5}),
        ("ell_col", {"r": 4, "n": 5}),
        ("brenti", {"r": 3, "nmax": 5}),
        ("keylem", {"r": 3, "n": 4}),
        ("bijection_stats", {"r": 3, "n": 4, "cap": 2}),
        ("biword_count", {"r": 3, "n": 3, "cap_f": 3, "cap_g": 3}),
    ],
}

# Small cases that may be corrupted, per workload; each has a polynomial
# comparison for the corruption to land in.  ``bijection_stats`` and
# ``biword_count`` only check facts, so no corruption can be placed in them.
CORRUPT_POOLS = {
    "ring": {
        "theorem_A": {"r": 2, "n": 2, "tmax": 3},
        "theorem_B": {"r": 2, "n": 2, "t1max": 2, "t2max": 2},
        "reiner": {"r": 2, "nmax": 3},
        "gessel_roselle": {"r": 2, "ucap": 3, "pcap": 6, "qcap": 6},
    },
    "enumerate": {
        "length_gf": {"r": 2, "n": 3},
        "ell_col": {"r": 2, "n": 3},
        "brenti": {"r": 2, "nmax": 3},
        "keylem": {"r": 2, "n": 3},
    },
}

_FLAG = {"cap_f": "capf", "cap_g": "capg"}


class Op:
    """One ``cli.main`` call and the oracle for its answer.

    ``check(code, out, err)`` returns None when the answer is right, else a
    one-line reason.
    """

    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def _verify_argv(name, params):
    argv = ["verify", "--identity", name]
    for key, value in params.items():
        argv += [f"--{_FLAG.get(key, key)}", str(value)]
    return argv + ["--json"]


def _check_report(name, params):
    def check(code, out, err):
        if not out:
            return f"exit {code}: {err.strip()[:200]}"
        reports = json.loads(out)
        if [rep["identity"] for rep in reports] != [name]:
            return f"reports for {[rep['identity'] for rep in reports]}"
        rep = reports[0]
        if not rep["pass"]:
            return f"{name} failed: {rep.get('mismatch')}"
        if any(rep["params"].get(k) != v for k, v in params.items()):
            return f"{name} ran with {rep['params']}"
        return None if code == 0 else f"exit {code} after a passing report"
    return check


def identity_ops(workload):
    return [Op(_verify_argv(name, params), _check_report(name, params))
            for name, params in IDENTITY_CALLS[workload]]


def corruption_cases(workload, rng):
    """One lhs and one rhs corruption, each in a seed-chosen small case."""
    pool = CORRUPT_POOLS[workload]
    names = sorted(pool)
    return [(name, pool[name], side)
            for name, side in ((rng.choice(names), "lhs"), (rng.choice(names), "rhs"))]


def check_corruption(report):
    """The corrupted run must fail at exactly the corrupted monomial."""
    if report.passed:
        return "corrupted run passed"
    if report.corrupted_monomial is None:
        return "no coefficient was corrupted"
    got = (report.mismatch or {}).get("monomial")
    if got != report.corrupted_monomial:
        return f"mismatch at {got!r}, corrupted {report.corrupted_monomial!r}"
    return None


def normalize(argv, out):
    """Output with the ``millis`` timing field of verify reports removed."""
    if argv and argv[0] == "verify" and "--json" in argv and out:
        reports = json.loads(out)
        for rep in reports:
            rep.pop("millis", None)
        return json.dumps(reports, sort_keys=True)
    return out


# -- reference definitions -------------------------------------------------


def _order_key(value, color):
    # Colored entries lie below 0 and below every uncolored entry; among
    # them a larger value, then a larger color, is smaller.
    return (0, -value, -color) if color else (1, value)


def ref_stats(r, sigma, colors):
    """README statistics record of one element, from the definitions."""
    n = len(sigma)
    keys = [_order_key(v, c) for v, c in zip(sigma, colors)]
    inv = sum(1 for i, j in itertools.combinations(range(n), 2) if keys[i] > keys[j])
    length = inv + sum(v + c - 1 for v, c in zip(sigma, colors) if c)
    padded = [_order_key(0, 0)] + keys
    des_set = [i for i in range(n) if padded[i] > padded[i + 1]]
    maj = sum(des_set)
    col = sum(colors)
    return {"r": r, "n": n, "window": window_text(sigma, colors), "inv": inv,
            "length": length, "des_set": des_set, "des": len(des_set),
            "maj": maj, "fmaj": r * maj + col, "col": col,
            "col_vector": list(colors)}


def _entries(values, colors):
    return ",".join(f"{v}^{c}" if c else str(v) for v, c in zip(values, colors))


def window_text(sigma, colors):
    return f"[{_entries(sigma, colors)}]"


def _parse_entries(text):
    values, colors = [], []
    for item in text.split(","):
        value, _, color = item.partition("^")
        values.append(int(value))
        colors.append(int(color or 0))
    return tuple(values), tuple(colors)


def _parse_window(text):
    return _parse_entries(text[1:-1])


def _skew_inverse(sigma, colors):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v - 1] = i + 1
    return tuple(inv), tuple(colors[s - 1] for s in inv)


def _product(r, alpha, beta):
    """Group product with ``beta`` acting first."""
    (sa, ca), (sb, cb) = alpha, beta
    return (tuple(sa[s - 1] for s in sb),
            tuple((c + ca[s - 1]) % r for s, c in zip(sb, cb)))


def _sequence_from(r, sigma, colors, lam):
    """Add the running descent count to ``lam``, then push the result
    through the skew inverse with colors riding along."""
    des = set(ref_stats(r, sigma, colors)["des_set"])
    mu, count = [], 0
    for i, part in enumerate(lam):
        count += i in des
        mu.append(part + count)
    skew_sigma, skew_colors = _skew_inverse(sigma, colors)
    return tuple(mu[s - 1] for s in skew_sigma), skew_colors


def _compatible_partition(rng, r, sigma, colors):
    """A random partition growing strictly across every descent."""
    des = set(ref_stats(r, sigma, colors)["des_set"])
    parts, cur = [], 0
    for i in range(len(sigma)):
        cur += (i in des) + rng.randrange(2)
        parts.append(cur)
    return tuple(parts)


# -- the cli workload ------------------------------------------------------


def _stats_text(info):
    lines = []
    for key in ("window", "inv", "length", "des_set", "des", "maj", "fmaj",
                "col", "col_vector"):
        value = info[key]
        if key == "des_set":
            value = "{" + ",".join(map(str, value)) + "}"
        elif key == "col_vector":
            value = ",".join(map(str, value))
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def _expect(text=None, json_obj=None):
    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        if json_obj is not None:
            got = json.loads(out)
            return None if got == json_obj else f"json {out.strip()[:200]}"
        return None if out == text else f"text {out.strip()[:200]!r}"
    return check


def _expect_exit(code_wanted):
    def check(code, out, err):
        if code != code_wanted:
            return f"exit {code}, wanted {code_wanted}"
        if out or not err:
            return "invalid input must write only to stderr"
        return None
    return check


def _table(r, n):
    return [ref_stats(r, sigma, colors)
            for sigma in itertools.permutations(range(1, n + 1))
            for colors in itertools.product(range(r), repeat=n)]


def _table_op(as_json):
    rows = _table(2, 3)
    argv = ["table", "--r", "2", "--n", "3"]
    if as_json:
        return Op(argv + ["--json"], _expect(json_obj=rows))
    keys = ("inv", "length", "des", "maj", "fmaj", "col")
    text = "".join(row["window"] + "".join(f" {k}={row[k]}" for k in keys) + "\n"
                   for row in rows)
    return Op(argv, _expect(text=text))


# README worked examples, with their outputs written out by hand.
README_OPS = [
    Op(["stats", "--r", "5", "--window", "[4^1,3,2^4,1^2]"],
       _expect("window=[4^1,3,2^4,1^2]\ninv=2\nlength=13\ndes_set={0,2}\n"
               "des=2\nmaj=2\nfmaj=17\ncol=7\ncol_vector=1,0,4,2\n")),
    Op(["encode", "--r", "4", "--f", "4^2,4^1,1,3^3,6,3^1,4^2"],
       _expect("window [3,6^1,4^3,7^2,2^1,1^2,5]\npartition 1,2,2,2,2,2,4\n")),
    Op(["decode", "--r", "3", "--window", "[5^1,3^1,1,2^2,4^2]",
        "--partition", "0,2,2,3,3"],
       _expect("3,5^2,3^1,6^2,1^1\n")),
    Op(["decompose", "--r", "3", "--window", "[5,2^2,4^1,3,1^1,6^2,8,7^2]",
        "--J", "1,2,4,5,7"],
       _expect("tau [4^1,2^2,5,6^2,1^1,3,7^2,8]\ndelta [3,2,1,6,5,4,8,7]\n")),
    Op(["biword", "--r", "4", "--g", "0,1,1,3,3,4,5",
        "--f", "4,4^1,1,3^3,6,3^1,4^2"],
       _expect("gamma [3,6^1,4^3,7^2,2^1,1,5]\nlambda 0,1,1,3,3,4,5\n"
               "mu 1,3,3,4,4,4,6\n")),
    _table_op(True),
]

README_VERIFY = (["verify", "--identity", "theorem_A", "--r", "2", "--n", "3",
                  "--tmax", "4"], "theorem_A n=3 r=2 tmax=4 PASS\n")

# Invalid inputs and their documented exit classes: 1 for bad mathematical
# input, 2 for usage errors.
INVALID_OPS = [
    Op(["stats", "--r", "2", "--window", "[1,1]"], _expect_exit(1)),
    Op(["stats", "--r", "3", "--window", "[2^0,1]"], _expect_exit(1)),
    Op(["encode", "--r", "2", "--f", "1^2"], _expect_exit(1)),
    Op(["decode", "--r", "2", "--window", "[1,2]", "--partition", "0,x"], _expect_exit(1)),
    Op(["decompose", "--r", "2", "--window", "[2,1]", "--J", "5"], _expect_exit(1)),
    Op(["stats", "--window", "[1]"], _expect_exit(2)),
    Op(["table", "--r", "2"], _expect_exit(2)),
    Op(["frobnicate"], _expect_exit(2)),
]

# Calls of each kind in one cli pass: the same number for each subcommand
# of the README's command-line section other than verify and selftest, as
# no record of real usage exists.  The counts are fixed so that the pass
# time does not depend on the seed; half of each kind use --json.  With the
# README and invalid calls a pass makes 1010 calls.  The 1/6 of them that
# are ``table --r 2 --n 3`` are the slowest kind, so the 99th percentile is
# the latency of a slow ``table`` call, not of a rare typical one.
CLI_MIX = dict.fromkeys(("stats", "encode", "decode", "decompose", "biword",
                         "table"), 166)


def _random_element(rng):
    # Sizes up to those of the README examples: r <= 5, n <= 8.
    r = rng.randint(1, 5)
    n = rng.randint(1, 8)
    sigma = tuple(rng.sample(range(1, n + 1), n))
    colors = tuple(rng.randrange(r) for _ in range(n))
    return r, sigma, colors


def _spaced(rng, text):
    """Whitespace is insignificant in the input grammar; sometimes add some."""
    return text.replace(",", ", ") if rng.random() < 0.2 else text


def _decorate(argv, check_text, check_json, as_json):
    return Op(argv + ["--json"], check_json) if as_json else Op(argv, check_text)


def _stats_op(rng, as_json):
    r, sigma, colors = _random_element(rng)
    info = ref_stats(r, sigma, colors)
    argv = ["stats", "--r", str(r), "--window", _spaced(rng, window_text(sigma, colors))]
    return _decorate(argv, _expect(_stats_text(info)), _expect(json_obj=info), as_json)


def _encode_pair(rng):
    r, sigma, colors = _random_element(rng)
    lam = tuple(sorted(rng.randrange(5) for _ in sigma))
    return r, sigma, colors, lam, _sequence_from(r, sigma, colors, lam)


def _encode_op(rng, as_json):
    # encode must return the pair the sequence was built from
    r, sigma, colors, lam, (values, fcolors) = _encode_pair(rng)
    window = window_text(sigma, colors)
    argv = ["encode", "--r", str(r), "--f", _spaced(rng, _entries(values, fcolors))]
    return _decorate(
        argv,
        _expect(f"window {window}\npartition {','.join(map(str, lam))}\n"),
        _expect(json_obj={"window": window, "partition": list(lam)}), as_json)


def _decode_op(rng, as_json):
    r, sigma, colors, lam, (values, fcolors) = _encode_pair(rng)
    seq = _entries(values, fcolors)
    argv = ["decode", "--r", str(r), "--window", window_text(sigma, colors),
            "--partition", ",".join(map(str, lam))]
    return _decorate(argv, _expect(seq + "\n"), _expect(json_obj={"sequence": seq}),
                     as_json)


def _decompose_check(r, gamma, as_json):
    """tau * delta must give back gamma, with length and color weight additive."""
    stats_g = ref_stats(r, *gamma)

    def check(code, out, err):
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        if as_json:
            got = json.loads(out)
            tau, delta = got["tau"], got["delta"]
        else:
            lines = out.splitlines()
            if len(lines) != 2 or not lines[0].startswith("tau ") \
                    or not lines[1].startswith("delta "):
                return f"text {out.strip()[:200]!r}"
            tau, delta = lines[0][4:], lines[1][6:]
        tau, delta = _parse_window(tau), _parse_window(delta)
        if _product(r, tau, delta) != gamma:
            return f"tau*delta != {stats_g['window']}"
        st, sd = ref_stats(r, *tau), ref_stats(r, *delta)
        if (st["length"] + sd["length"], st["col"] + sd["col"]) != \
                (stats_g["length"], stats_g["col"]):
            return "length or color weight not additive"
        return None
    return check


def _decompose_op(rng, as_json):
    r, sigma, colors = _random_element(rng)
    members = sorted(rng.sample(range(len(sigma)), rng.randint(0, len(sigma))))
    argv = ["decompose", "--r", str(r), "--window", window_text(sigma, colors),
            "--J", ",".join(map(str, members))]
    check = _decompose_check(r, (sigma, colors), as_json)
    return Op(argv + ["--json"] if as_json else argv, check)


def _biword_op(rng, as_json):
    # The biword is built from a random compatible triple by the inverse
    # map, so the command must return that triple.
    r, sigma, colors = _random_element(rng)
    skew = _skew_inverse(sigma, colors)
    lam = _compatible_partition(rng, r, *skew)
    mu = _compatible_partition(rng, r, sigma, colors)
    values = tuple(mu[s - 1] for s in skew[0])
    window = window_text(sigma, colors)
    argv = ["biword", "--r", str(r), "--g", ",".join(map(str, lam)),
            "--f", _spaced(rng, _entries(values, skew[1]))]
    return _decorate(
        argv,
        _expect(f"gamma {window}\nlambda {','.join(map(str, lam))}\n"
                f"mu {','.join(map(str, mu))}\n"),
        _expect(json_obj={"gamma": window, "lambda": list(lam), "mu": list(mu)}),
        as_json)


_MAKERS = {"stats": _stats_op, "encode": _encode_op, "decode": _decode_op,
           "decompose": _decompose_op, "biword": _biword_op,
           "table": lambda rng, as_json: _table_op(as_json)}


def cli_ops(rng):
    ops = list(README_OPS) + list(INVALID_OPS)
    for kind, count in CLI_MIX.items():
        for i in range(count):
            ops.append(_MAKERS[kind](rng, i % 2 == 1))
    rng.shuffle(ops)
    return ops


def build(workload, seed):
    """(ops of one pass, corruption cases) for a workload and seed."""
    rng = random.Random(seed)
    if workload == "cli":
        return cli_ops(rng), []
    return identity_ops(workload), corruption_cases(workload, rng)
