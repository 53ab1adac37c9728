"""Golden corpus of CLI outputs: the argv list and its digest file.

Each record holds an argv, the exit code of ``cli.main`` on it and the
SHA-256 of its stdout and of its stderr.  ``tests/test_golden.py`` runs
every argv again and compares.  A change that means to alter an output
regenerates the file from a checkout of the repository:

    PYTHONPATH=src python3 tests/golden_cli.py

and names the records that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from wreathstats.cli import main

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


def _with_json(argvs):
    return [out for argv in argvs for out in (argv, argv + ["--json"])]


ARGVS = (_with_json([["table", "--r", str(r), "--n", str(n)]
                     for r in range(1, 4) for n in range(5)])
         + _with_json(_README)
         + _with_json(_REFUSED_TABLES)
         + [["verify", "--all"]])


def record(argv):
    """``{"argv", "exit", "stdout_sha256", "stderr_sha256"}`` of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def write():
    records = [record(argv) for argv in ARGVS]
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    return len(records)


if __name__ == "__main__":
    print(f"wrote {write()} records to {GOLDEN}", file=sys.stderr)
