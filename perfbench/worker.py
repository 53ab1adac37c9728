"""Run one workload in this fresh process and print its measurements.

Started by ``run.py``; prints one JSON object as its last line.  With
``--trace 0`` it repeats untraced passes until ``--seconds`` have passed and
reports means over the passes: of the pass time, and of each pass's median
and 99th-percentile call latency.  The host's speed drifts smoothly rather
than in rare outliers, and on such runs the mean of a run's few passes
varied less from run to run than their median.  A pass is started only if the
longest pass so far would still end within ``--seconds``, so a run takes
about ``--seconds`` whatever the workload.
With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the traced passes, and checks that both kinds of pass
gave the same exit codes and outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import MODULES, Tracer, layer_metrics

def run_pass(cli, ops):
    """Call every op once; returns (pass seconds, call seconds, results).

    The pass time is the sum of the call times.  ``cli.main`` is looked up
    on each call so that a traced pass reaches the wrapper installed on the
    module.
    """
    results = []
    times = []
    clock = time.perf_counter
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = cli.main(list(op.argv))
            except Exception:
                code = None
                err.write(traceback.format_exc())
            times.append(clock() - t0)
        results.append((code, out.getvalue(), err.getvalue()))
    return sum(times), times, results


def check_pass(ops, results, reference, failures):
    """Check every answer of one pass; returns the number of failed ops."""
    failed = 0
    for i, (op, (code, out, err)) in enumerate(zip(ops, results)):
        try:
            problem = op.check(code, out, err)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None and reference is not None:
            ref_code, ref_out, _ = reference[i]
            if (code, workloads.normalize(op.argv, out)) != \
                    (ref_code, workloads.normalize(op.argv, ref_out)):
                problem = "traced answer differs from untraced answer"
        if problem is not None:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{' '.join(op.argv)}: {problem}")
    return failed


def percentile(values, p):
    """The p-th percentile, interpolated between the nearest samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import wreathstats
    from wreathstats import cli
    from wreathstats.identities import verify_identity
    if src not in Path(wreathstats.__file__).resolve().parents:
        print(f"wreathstats imported from {wreathstats.__file__}, not {src}",
              file=sys.stderr)
        return 2

    ops, corruptions = workloads.build(args.workload, args.seed)
    attempted = failed = 0
    failures = []

    # One-off checks, outside the timed passes.
    for name, params, side in corruptions:
        attempted += 1
        problem = workloads.check_corruption(
            verify_identity(name, corrupt=side, **params))
        if problem:
            failed += 1
            failures.append(f"corrupt {side} of {name} {params}: {problem}")
    if args.workload == "cli":
        argv_v, want = workloads.README_VERIFY
        _, _, [(code, out, err)] = run_pass(cli, [workloads.Op(argv_v, None)])
        attempted += 1
        if (code, out) != (0, want):
            failed += 1
            failures.append(f"{' '.join(argv_v)}: exit {code}, {out!r}")

    tracer = Tracer() if args.trace else None
    walls, traced_walls, p50s, p99s, layers = [], [], [], [], []
    reference = None
    spans = []
    deadline = time.perf_counter() + args.seconds
    traced_turn = False
    while True:
        if traced_turn:
            tracer.reset()
            tracer.install()
            try:
                wall, _, results = run_pass(cli, ops)
            finally:
                tracer.uninstall()
            snap = tracer.snapshot()
            metrics = layer_metrics(snap)
            metrics["cli.output_bytes"] = (
                sum(len(out.encode()) for _, out, _ in results), "count")
            layers.append(metrics)
            spans = snap["spans"]
            traced_walls.append(wall)
        else:
            wall, times, results = run_pass(cli, ops)
            walls.append(wall)
            p50s.append(statistics.median(times))
            p99s.append(percentile(times, 99))
            if reference is None:
                reference = results
        attempted += len(ops)
        failed += check_pass(ops, results, reference if traced_turn else None,
                             failures)
        if tracer:
            traced_turn = not traced_turn
        longest = max(walls + traced_walls)
        if time.perf_counter() + longest > deadline and (traced_walls or not tracer):
            break
    result = {"attempted": attempted, "failed": failed, "failures": failures,
              "calls_per_pass": len(ops), "walls": walls,
              "traced_walls": traced_walls}
    if tracer:
        per_layer = {}
        for name, (_, unit) in layers[0].items():
            # Counts take the lower median, so they stay whole numbers.
            middle = statistics.median_low if unit == "count" else statistics.median
            per_layer[name] = {"value": middle(m[name][0] for m in layers), "unit": unit}
        per_layer["trace_overhead_ratio"] = {
            "value": statistics.median(traced_walls) / statistics.median(walls),
            "unit": "ratio"}
        total = sum(per_layer[f"{m}.self_s"]["value"] for m in MODULES) or 1.0
        result["shares"] = {m: per_layer[f"{m}.self_s"]["value"] / total
                            for m in MODULES}
        result["metrics"] = per_layer
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "id", "parent"],
                           "spans": spans}, fh)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "call_ms.p50": {"value": statistics.fmean(p50s) * 1e3, "unit": "ms"},
            "call_ms.p99": {"value": statistics.fmean(p99s) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
