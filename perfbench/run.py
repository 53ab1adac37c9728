"""Benchmark entry point for wreathstats.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 36 --trace 0

Run it from a checkout of the repository (the package is imported from
``src/`` next to this directory; nothing needs building).  ``--workload all``
runs the three workloads one after another.  Each workload runs in its own
fresh worker process, so that its memory and set-up time are its own.

With ``--trace 0`` the last line of output reports the end-to-end metrics:
the mean pass time ``wall_s``, the median and 99th percentile of the
``cli.main`` call latency, the set-up time ``setup_s`` and the worker's peak
resident memory.  ``setup_s`` is the median over 32 fresh interpreters
importing ``wreathstats.cli``, half of them started before the worker and
half after it, so that a slow spell of the host during one of the two
halves moves it less.  On ``ring`` and ``enumerate`` a pass makes only 4 and 6
calls, so there the two call percentiles are about the middle and the
slowest ``verify --identity`` call, not a latency distribution.  With ``--trace 1`` it reports the per-layer metrics of traced
passes and writes the spans of the last traced pass under
``perfbench/out/``.  Lines before the last one carry run metadata, sample
counts, failures and, when traced, each module's share of self time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ring", "enumerate", "cli")
SETUP_SAMPLES = 32
RUN_LIMIT_S = 170.0

_IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import wreathstats.cli; "
                 "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def import_once(env):
    """Seconds from starting a fresh interpreter until wreathstats.cli is imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"importing wreathstats.cli failed with exit {code}")
    return elapsed


def run_worker(workload, args, env, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(HERE / "out" / f"spans-{workload}-seed{args.seed}.json")]
    timeout = max(deadline - time.perf_counter(), 1.0)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=timeout)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def metadata():
    lines = {}
    for path in sorted((SRC / "wreathstats").glob("*.py")):
        with open(path, "rb") as fh:
            lines[path.name] = sum(1 for _ in fh)
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "wc_l": lines, "wc_l_total": sum(lines.values())}


def report(workload, res):
    attempted, failed = res["attempted"], res["failed"]
    print(f"# {workload}: {attempted} operations, {failed} failed, "
          f"failed_ratio={failed / attempted:.6g}; {res['calls_per_pass']} "
          f"cli.main calls per pass")
    for label, key in (("untraced", "walls"), ("traced", "traced_walls")):
        if res[key]:
            print(f"#   {label} pass seconds: "
                  + " ".join(f"{w:.3f}" for w in res[key]))
    for name, m in res["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    if "shares" in res:
        shares = ", ".join(f"{m} {v:.1%}" for m, v in
                           sorted(res["shares"].items(), key=lambda kv: -kv[1]))
        print(f"#   self-time shares: {shares}")
    if "setup_samples" in res:
        print("#   setup seconds: "
              + " ".join(f"{t:.4f}" for t in res["setup_samples"]))
    for line in res["failures"]:
        print(f"#   FAILED {line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wreathstats" / "cli.py").is_file():
        print(f"no wreathstats sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = child_env()
    print("# meta " + json.dumps(metadata(), sort_keys=True))
    results = {}
    try:
        for name in names:
            deadline = time.perf_counter() + RUN_LIMIT_S
            if not args.trace:
                import_once(env)  # writes the bytecode cache; not counted
                setup = [import_once(env) for _ in range(SETUP_SAMPLES // 2)]
            res = run_worker(name, args, env, deadline)
            if not args.trace:
                setup += [import_once(env) for _ in range(SETUP_SAMPLES // 2)]
                res["setup_samples"] = setup
                res["metrics"]["setup_s"] = {
                    "value": statistics.median(setup), "unit": "s"}
            report(name, res)
            results[name] = res
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items()
                   for k, v in res["metrics"].items()}
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
