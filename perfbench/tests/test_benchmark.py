"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest perfbench/tests"""

import json
from pathlib import Path

import pytest

import harness
import layers
from harness import Job
from tracer import Span, Tracer, covered, self_times

ROOT = Path(__file__).resolve().parents[2]


def test_covered_merges_overlaps_and_gaps():
    assert covered([(3, 6), (1, 4), (8, 9)]) == 6
    assert covered([]) == 0


def test_self_time_subtracts_child_cover():
    spans = [
        Span("job:a", 0.0, 10.0, -1, "a"),
        Span("x.outer", 1.0, 4.0, 0, "a"),
        Span("x.inner", 2.0, 3.0, 1, "a"),
        Span("y.overlap", 3.0, 6.0, 0, "a"),  # overlaps its sibling: cover counted once
        Span("y.late", 9.5, 11.0, 0, "a"),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 0.5, 2.0, 1.0, 3.0, 1.5])


def test_tracer_nests_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("m.leaf", lambda: None)
    outer = tracer.wrap("m.outer", lambda: [leaf(), leaf()],
                        post=lambda a, k, r, b: {"calls": len(r)})
    with tracer.span("job:j"):
        outer()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("job:j", -1), ("m.outer", 0), ("m.leaf", 1), ("m.leaf", 1)]
    assert tracer.spans[1].counts == {"calls": 2}
    assert self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def test_layer_metrics_busy_self_and_unattributed():
    spans = [
        Span("job:v", 0.0, 10.0, -1, "v"),
        Span("mellin.fredholm_verdict", 1.0, 9.0, 0, "v", {"vertices": 4}),
        Span("mellin.mellin_transform", 1.0, 5.0, 1, "v"),
        Span("mellin.MellinSymbolFamily.value", 2.0, 4.0, 2, "v"),
        Span("mellin.invertibility_scan", 5.0, 8.0, 1, "v", {"grid_points": 227, "refinements": 0}),
        Span("mellin.MellinSymbolFamily.value", 6.0, 7.0, 4, "v"),
    ]
    m = layers.layer_metrics(spans)
    assert m["mellin.symbol_s"] == 3.0
    assert m["mellin.transform_self_s"] == 2.0
    assert m["mellin.scan_self_s"] == 2.0
    assert m["mellin.verdict_self_s"] == 1.0
    assert m["mellin.reuse_ratio"] == 4.0
    assert m["trace.unattributed_frac"] == pytest.approx(0.2)


def test_wrong_output_counts_as_failed():
    jobs = [
        Job("right", lambda s: 2 + 2, lambda out, s: None if out == 4 else "wrong"),
        Job("wrong", lambda s: 2 + 3, lambda out, s: None if out == 4 else f"got {out}"),
        Job("raises", lambda s: 1 / 0, lambda out, s: None),
        Job("defect", lambda s: 5, lambda out, s: "still wrong", known_defect="known"),
    ]
    records = harness.run_pass(jobs, {})
    assert [r.error for r in records] == [None, "got 5", "raised ZeroDivisionError: division by zero",
                                          "still wrong"]
    summary = harness.summarize([records, harness.run_pass(jobs, {})])
    assert summary["attempted"] == 8
    assert summary["failed"] == 6
    assert summary["ok_frac"] == 0.25
    assert summary["unexpected_failures"] == 4


def test_job_metrics_use_each_jobs_mean_latency():
    def rec(name, latency):
        return harness.JobRecord(name, 0.0, latency, None, None)

    passes = [[rec("a", 1.0), rec("b", 2.0), rec("c", 9.0)],
              [rec("a", 1.2), rec("b", 2.5), rec("c", 9.5)],
              [rec("a", 0.8), rec("b", 3.0), rec("c", 8.5)]]
    summary = harness.summarize(passes)
    assert summary["wall_s"] == pytest.approx(1.0 + 2.5 + 9.0)
    assert summary["job_p50_s"] == pytest.approx(2.5)
    assert summary["job_max_s"] == pytest.approx(9.0)


def test_fit_passes_runs_at_least_once_and_stops_before_the_budget():
    assert harness.fit_passes(lambda: 100.0, seconds=1.0) == 1
    assert harness.fit_passes(lambda: 0.0, seconds=0.0) >= 1


def test_declared_metrics_match_what_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    reported = set(layers.layer_metrics([])) | set(layers.baseline_metrics([], []))
    reported |= {"cli.import_s", "trace.overhead_frac"}
    assert reported == per_layer
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    assert set(layer_map) == per_layer
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for row in layer_map.values():
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) | set(row["should_not_move_on"]) <= workloads


def test_install_wraps_every_binding_and_uninstall_restores():
    import gpdlab.cli  # noqa: F401 - loads every module that binds validate
    from gpdlab import cli, gluing, groupoid, specfiles

    original = groupoid.validate
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        for mod in (groupoid, gluing, specfiles, cli):
            assert mod.validate is not original
            assert mod.validate.__wrapped__ is original
        g = groupoid.build_pair(["a", "b"])
        assert specfiles.groupoid_from_dict(specfiles.groupoid_to_dict(g)).n_arrows == 4
        assert "groupoid.validate" in {s.name for s in tracer.spans}
    finally:
        tracer.uninstall()
    assert all(mod.validate is original for mod in (groupoid, gluing, specfiles, cli))
