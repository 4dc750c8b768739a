"""gpdlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gpdlab from
``src/`` and needs nothing to be built.  Workloads:

* ``polygon-verdicts``: Mellin symbol scans and Nystrom corroboration;
* ``toy-groupoids``: finite toy layer groupoids on either side of the
  dense/sparse validation split, through spec files and the criterion.

Each is a closed loop with one client: jobs run back to back.  With
``--trace 0`` the run reports the end-to-end metrics; ``setup_s`` is the
median set-up time of several fresh workers.  With ``--trace 1`` it
reports the per-layer metrics of BENCHMARK.json.  The last line of
stdout is the result object; the lines before it record the context
(versions, threads, seed) and any failed job.  Temporary files, the
full result and the spans go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("polygon-verdicts", "toy-groupoids")
SETUP_SAMPLES = 5  # fresh workers whose set-up times give setup_s (the main worker is one)
DEADLINE_S = 170.0  # the whole run, so that it exits within 180 s
# One BLAS thread: the jobs are one client's, and a pinned thread count keeps
# timings on a shared two-core machine from depending on the other core's load.
BLAS_THREADS = 1


def _git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "gpdlab"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _context(args, nproc: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": nproc,
        "blas_threads": min(BLAS_THREADS, nproc),
        "clients": 1,
    }


def _worker(cmd, env, deadline) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RuntimeError("run deadline passed before the worker started")
    # own process group, so that ending the worker ends anything it started
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {cmd[3:]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, ending the worker
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "gpdlab" / "__init__.py").is_file():
        print(f"error: no gpdlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = str(min(BLAS_THREADS, nproc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, GPDLAB_THREADS=threads)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [_worker(cmd + ["--role", "setup"], env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0)]
        res = _worker(cmd + ["--role", "run"], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values = res["metrics"]
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values = {k: res[k] for k in ("wall_s", "job_p50_s", "job_max_s", "peak_rss_mb", "ok_frac")}
        values["setup_s"] = statistics.median(setups + [res["setup_s"]])
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}

    context = _context(args, nproc)
    context.update(passes=res["passes"], jobs_per_run=res["attempted"],
                   unexpected_failures=res["unexpected_failures"])
    print("context " + json.dumps(context, sort_keys=True))
    for f in res["failures"]:
        print("failed " + json.dumps(f, sort_keys=True))
    result = {
        "correct": res["unexpected_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    out = ROOT / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"context": context, "failures": res["failures"], **result},
                              indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
