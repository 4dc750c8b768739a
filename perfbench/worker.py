"""One fresh worker process of a benchmark run.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --role setup|run

``run.py`` starts it with BLAS threads pinned in the environment.  It
times the set-up (importing gpdlab and making the inputs); with
``--role setup`` it stops there.  Otherwise it runs passes of the job
list for about ``--seconds`` seconds: untraced passes for the end-to-end
metrics, or, with ``--trace 1``, alternating untraced and traced passes
for the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
import layers
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _failures(passes) -> list:
    return [{"job": r.name, "error": r.error, "known_defect": r.known_defect}
            for p in passes for r in p if r.failed]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    args = ap.parse_args(argv)

    cli_import_s = None
    if args.trace:
        t = time.perf_counter()
        import gpdlab.cli  # noqa: F401 - timed import, cli.import_s

        cli_import_s = time.perf_counter() - t

    tmp = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        t = time.perf_counter()
        state = workloads.setup(args.workload, args.seed, ROOT, tmp)
        setup_s = time.perf_counter() - t
        if args.role == "setup":
            result = {"setup_s": setup_s}
        elif not args.trace:
            result = _untraced(args, state, setup_s)
        else:
            result = _traced(args, state, cli_import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def _untraced(args, state, setup_s) -> dict:
    jobs = workloads.jobs(args.workload)
    passes = []

    def one() -> float:
        passes.append(harness.run_pass(jobs, state))
        return passes[-1][-1].end - passes[-1][0].start

    harness.fit_passes(one, args.seconds)
    return {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(),
            "passes": len(passes), "failures": _failures(passes), **harness.summarize(passes)}


def _traced(args, state, cli_import_s) -> dict:
    jobs = workloads.jobs(args.workload)
    targets = layers.targets()
    plain, traced, rows, tracers = [], [], [], []

    def one_pair() -> float:
        t = time.perf_counter()
        plain.append(harness.run_pass(jobs, state))
        tracer = Tracer()
        tracer.install(targets)
        try:
            traced.append(harness.run_pass(jobs, state, tracer))
        finally:
            tracer.uninstall()
        row = layers.layer_metrics(tracer.spans)
        row["cli.import_s"] = cli_import_s
        row.update(layers.baseline_metrics(plain[-1], tracer.spans))
        rows.append(row)
        tracers.append(tracer)
        return time.perf_counter() - t

    harness.fit_passes(one_pair, args.seconds)
    metrics = {k: float(statistics.median(r[k] for r in rows)) for k in rows[0]}
    wall = harness.summarize(plain)["wall_s"]
    metrics["trace.overhead_frac"] = harness.summarize(traced)["wall_s"] / wall - 1.0

    for i, tracer in enumerate(tracers):
        tracer.write_jsonl(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}-pass{i}.jsonl")
    summary = harness.summarize(plain + traced)
    return {"metrics": metrics, "passes": len(rows), "failures": _failures(plain + traced),
            **{k: summary[k] for k in ("attempted", "failed", "unexpected_failures")}}


if __name__ == "__main__":
    sys.exit(main())
