"""Jobs, passes and the end-to-end summary of a run.

A workload is a fixed list of jobs run back to back by one client (a
closed loop).  Each job is timed, then its output is checked against a
reference; a job that raises or fails its check counts as failed.  A
job may name a known defect of the program: it still counts as failed,
but does not make the run incorrect.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]  # state -> output
    check: Callable[[object, dict], Optional[str]]  # (output, state) -> None or why it is wrong
    known_defect: Optional[str] = None


@dataclass
class JobRecord:
    name: str
    start: float
    end: float
    error: Optional[str]
    known_defect: Optional[str]

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_pass(jobs: list[Job], setup_state: dict, tracer=None) -> list[JobRecord]:
    """Run every job once; with a tracer, each job is a root span.

    Jobs pass outputs to later jobs through a copy of the set-up state,
    so every pass starts from the same state and holds no output of the
    previous one.
    """
    state = dict(setup_state, tracer=tracer)
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        out, error = None, None
        gc.collect()  # each job starts from a collected heap, not the last job's garbage
        with tracer.span(f"job:{job.name}") if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                out = job.run(state)
            except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
                error = f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
        if error is None:
            with tracer.paused() if tracer is not None else nullcontext():
                try:
                    error = job.check(out, state)
                except Exception as exc:  # noqa: BLE001 - a check that cannot read the output fails it
                    error = f"check raised {type(exc).__name__}: {exc}"
        records.append(JobRecord(job.name, start, end, error, job.known_defect))
    if tracer is not None:
        tracer.job = None
    return records


def summarize(passes: list[list[JobRecord]]) -> dict:
    """End-to-end job metrics over the passes of one run.

    Each job's latency is its mean over the passes.  ``wall_s`` is the
    time to solution of the batch: the sum of those latencies, which
    leaves out the benchmark's own output checks between jobs.
    ``job_p50_s`` is the median job and ``job_max_s`` the heaviest one.
    """
    per_job: dict[str, list] = {}
    for p in passes:
        for r in p:
            per_job.setdefault(r.name, []).append(r.latency)
    latency = [statistics.fmean(v) for v in per_job.values()]
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failed for p in passes for r in p)
    return {
        "wall_s": sum(latency),
        "job_p50_s": statistics.median(latency),
        "job_max_s": max(latency),
        "ok_frac": (attempted - failed) / attempted,
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": sum(r.failed and r.known_defect is None for p in passes for r in p),
    }


def fit_passes(run_one: Callable[[], float], seconds: float) -> int:
    """Repeat ``run_one`` (which returns its own duration) while the next
    repeat, as fast as the fastest so far, would end within ``seconds``;
    at least once.  A burst of load on the host that slows one repeat
    does not cost the run its last one; it may end late by the burst."""
    t0 = time.perf_counter()
    done, fastest = 0, 0.0
    while done == 0 or (time.perf_counter() - t0) + fastest <= seconds:
        took = run_one()
        fastest = took if done == 0 else min(fastest, took)
        done += 1
    return done
