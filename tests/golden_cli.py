"""Golden corpus of CLI outputs: the argv list and its digest file.

Each argv record holds an argv, the exit code of ``cli.main`` on it and the
SHA-256 of its stdout and of its stderr; a ``verify --json`` stdout is
hashed without each report's ``millis``, which is a timing.  Each
catalog-call record holds an identity and a corrupted side, and the SHA-256
of the report of ``verify_identity(name, corrupt=side)`` at the entry's
defaults: its ``to_json_dict()`` without ``millis``, plus
``corrupted_monomial``, which pins each mismatch monomial and both its
coefficients.  Each sides record holds an identity and one point of a
small parameter grid (``r`` from 1 to 3, 2 to 3 for ``projection``, every
other parameter from 0 to 3), and the SHA-256 of every polynomial case the
entry yields there: its label and both sides' ``to_lines()``, which pins the
polynomials themselves and not only the verdict.  ``tests/test_golden.py``
runs every record again and compares.  A change that means to alter an output regenerates the file from
a checkout of the repository:

    PYTHONPATH=src python3 tests/golden_cli.py

and names the records that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

from wreathstats.cli import main
from wreathstats.identities import CATALOG, DEFAULT_MAX_ELEMENTS, verify_identity

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

_README = [
    ["stats", "--r", "5", "--window", "[4^1,3,2^4,1^2]"],
    ["encode", "--r", "4", "--f", "4^2,4^1,1,3^3,6,3^1,4^2"],
    ["decode", "--r", "3", "--window", "[5^1,3^1,1,2^2,4^2]",
     "--partition", "0,2,2,3,3"],
    ["decompose", "--r", "3", "--window", "[5,2^2,4^1,3,1^1,6^2,8,7^2]",
     "--J", "1,2,4,5,7"],
    ["biword", "--r", "4", "--g", "0,1,1,3,3,4,5", "--f", "4,4^1,1,3^3,6,3^1,4^2"],
]

_REFUSED_TABLES = [
    ["table", "--r", "0", "--n", "2"],
    ["table", "--r", "2", "--n", "-1"],
    ["table", "--r", "3", "--n", "4", "--max-elements", "1000"],
]


# The identity calls of the benchmark's ``ring`` and ``enumerate`` workloads,
# with their parameters, run here as text and, last in the corpus, as JSON,
# which pins each report's ``lhs_terms`` and ``rhs_terms``.
_IDENTITY_CALLS = [
    ("theorem_A", {"r": 3, "n": 4, "tmax": 5}),
    ("theorem_B", {"r": 3, "n": 3, "t1max": 3, "t2max": 3}),
    ("reiner", {"r": 3, "nmax": 5}),
    ("gessel_roselle", {"r": 3, "ucap": 4, "pcap": 8, "qcap": 8}),
    ("length_gf", {"r": 4, "n": 5}),
    ("ell_col", {"r": 4, "n": 5}),
    ("brenti", {"r": 3, "nmax": 5}),
    ("keylem", {"r": 3, "n": 4}),
    ("bijection_stats", {"r": 3, "n": 4, "cap": 2}),
    ("biword_count", {"r": 3, "n": 3, "cap_f": 3, "cap_g": 3}),
]
_FLAG = {"cap_f": "capf", "cap_g": "capg"}

# The fixed matrix of the perf trajectory.
_MATRIX = ["verify", "--all", "--r", "3", "--n", "4", "--tmax", "5", "--nmax", "5"]

# Entries that walk sequences or biwords before the group, each refused at
# its group, which is over the budget while the other set is within it.
_REFUSED_GROUPS = [
    ["verify", "--identity", "bijection_stats", "--r", "2", "--n", "7", "--cap", "1"],
    ["verify", "--identity", "desmaj", "--r", "2", "--n", "7", "--tmax", "1"],
    ["verify", "--identity", "biword_count", "--r", "2", "--n", "7",
     "--capf", "1", "--capg", "1"],
]

# The entries that check facts alone, with no polynomial case to corrupt.
_FACTS_ONLY = ("bijection_stats", "biword_count")


def _with_json(argvs):
    return [out for argv in argvs for out in (argv, argv + ["--json"])]


_IDENTITY_ARGVS = [["verify", "--identity", name]
                   + [arg for key, value in params.items()
                      for arg in (f"--{_FLAG.get(key, key)}", str(value))]
                   for name, params in _IDENTITY_CALLS]


ARGVS = (_with_json([["table", "--r", str(r), "--n", str(n)]
                     for r in range(1, 4) for n in range(5)])
         + _with_json(_README)
         + _with_json(_REFUSED_TABLES)
         + _with_json([["verify", "--all"]])
         + _IDENTITY_ARGVS
         + [["selftest"]]
         + _with_json([_MATRIX])
         + [argv + ["--max-elements", "100000"] for argv in _REFUSED_GROUPS]
         + [argv + ["--json"] for argv in _IDENTITY_ARGVS])

CALLS = [[name, side] for name in CATALOG if name not in _FACTS_ONLY
         for side in ("lhs", "rhs")]


def _grid(name):
    """Every parameter dict of ``name`` with ``r`` <= 3 and the rest <= 3."""
    defaults = CATALOG[name][1]
    ranges = [range(2 if name == "projection" else 1, 4) if param == "r"
              else range(4) for param in defaults]
    return [dict(zip(defaults, values)) for values in itertools.product(*ranges)]


SIDES = [[name, params] for name in CATALOG if name not in _FACTS_ONLY
         for params in _grid(name)]


def record(argv):
    """``{"argv", "exit", "stdout_sha256", "stderr_sha256"}`` of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "verify" and "--json" in argv and stdout:
        reports = json.loads(stdout)
        for report in reports:
            del report["millis"]
        stdout = json.dumps(reports, sort_keys=True) + "\n"
    return {"argv": list(argv), "exit": code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def record_call(call):
    """``{"call", "sha256"}`` of one corrupted catalog run at its defaults."""
    name, side = call
    report = verify_identity(name, corrupt=side)
    payload = report.to_json_dict()
    del payload["millis"]
    payload["corrupted_monomial"] = report.corrupted_monomial
    text = json.dumps(payload, sort_keys=True)
    return {"call": list(call),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def record_sides(sides):
    """``{"sides", "sha256"}`` of every polynomial case of one catalog run:
    each case's label and the ``to_lines()`` of its two sides."""
    name, params = sides
    cases = [[label, lhs.to_lines(), rhs.to_lines()]
             for kind, label, lhs, rhs in CATALOG[name][0](DEFAULT_MAX_ELEMENTS, **params)
             if kind == "poly"]
    text = json.dumps(cases)
    return {"sides": [name, params],
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def write():
    records = ([record(argv) for argv in ARGVS] + [record_call(call) for call in CALLS]
               + [record_sides(sides) for sides in SIDES])
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    return len(records)


if __name__ == "__main__":
    print(f"wrote {write()} records to {GOLDEN}", file=sys.stderr)
