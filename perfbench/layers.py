"""What the tracer wraps in each ``gpdlab`` layer, and the per-layer metrics.

Layers are named after the program's modules.  ``targets()`` lists the
public functions wrapped per layer, with the counters recorded at each
boundary; ``layer_metrics()`` reduces one traced pass's spans to the
per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import importlib
import math
import os

from tracer import Span, ancestors, self_times

LAYER_FUNCTIONS = {
    "specfiles": [
        "groupoid_from_dict", "groupoid_to_dict", "parse_groupoid", "atlas_from_dict",
        "parse_atlas", "domain_from_dict", "domain_to_dict", "parse_domain",
        "element_from_dict", "element_to_dict", "parse_element", "dump",
    ],
    "groupoid": [
        "validate", "orbits_and_isotropy", "isotropy_table", "reduction", "saturation",
        "is_invariant", "find_group_isomorphism", "build", "build_pair",
        "build_group_bundle", "build_action", "build_product", "build_fibered_pullback",
        "build_disjoint_union", "relabel",
    ],
    "iso": ["is_pair_groupoid", "find_isomorphism", "are_isomorphic", "check_isomorphism"],
    "gluing": ["glue", "check_weak_gluing", "check_strong_gluing", "attach_ends",
               "GluingAtlas.check", "GluingAtlas.quotient_classes"],
    "conical": ["polygon_domain", "unit_square", "l_shape", "regular_polygon",
                "desingularize", "assemble_layer_groupoid", "boundary_algebra_report",
                "finite_toy_model"],
    "algebra": [
        "random_element", "convolve", "star", "l1_norm", "regular_rep", "reduced_norm",
        "restrict_boundary", "block_decompose", "matrix_invertible",
        "left_multiplication_matrix", "solve_inverse", "invertible",
    ],
    "fredholm": ["make_structure", "limit_operators", "fredholm_criterion",
                 "strictly_spectral_check", "recognize_boundary_bundle"],
    "mellin": ["mellin_transform", "invertibility_scan", "fredholm_verdict", "vertex_kernel",
               "MellinSymbolFamily.value"],
    "nystrom": ["nystrom_oracle", "polygon_mesh", "double_layer_matrix", "weighted_sigma_min"],
}

BUILD_FUNCTIONS = {f"groupoid.{n}" for n in LAYER_FUNCTIONS["groupoid"]
                   if n.startswith("build") or n in ("relabel", "reduction")}
GLUING_CHECKS = {"gluing.check_weak_gluing", "gluing.check_strong_gluing", "gluing.GluingAtlas.check"}


def _file_bytes(args, kwargs, result, before):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _scan_before(args, kwargs):
    family = args[0]
    return (len(family.grid()), family.lambda_max)


def _scan_counts(args, kwargs, result, before):
    grid0, lam0 = before
    doublings = round(math.log2(result.lambda_max / lam0)) if lam0 > 0 else 0
    return {"grid_points": result.grid_points,
            "refinements": result.grid_points - grid0 - 2 * doublings}


COUNTERS = {
    "specfiles.parse_groupoid": (None, _file_bytes),
    "specfiles.parse_atlas": (None, _file_bytes),
    "specfiles.parse_domain": (None, _file_bytes),
    "specfiles.dump": (None, lambda a, k, r, b: {"bytes": len(r.encode("utf-8"))}),
    "groupoid.validate": (None, lambda a, k, r, b: {"arrows": a[0].n_arrows,
                                                    "compose": len(a[0].compose)}),
    "gluing.GluingAtlas.quotient_classes": (None, lambda a, k, r, b: {"classes": len(r[0])}),
    "conical.finite_toy_model": (None, lambda a, k, r, b: {"arrows": r.groupoid.n_arrows}),
    "algebra.solve_inverse": (None, lambda a, k, r, b: {"dim": a[0].groupoid.n_arrows}),
    "fredholm.strictly_spectral_check": (None, lambda a, k, r, b: {"trials": r.trials}),
    "mellin.invertibility_scan": (_scan_before, _scan_counts),
    "mellin.fredholm_verdict": (None, lambda a, k, r, b: {"vertices": len(r.scans)}),
    "nystrom.polygon_mesh": (None, lambda a, k, r, b: {"dof": len(r.nodes)}),
    "nystrom.double_layer_matrix": (None, lambda a, k, r, b: {"dof": r.shape[0]}),
}


def targets():
    """(span name, owner, attribute, pre, post) for every wrapped function."""
    out = []
    for layer, names in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"gpdlab.{layer}")
        for dotted in names:
            owner, attr = mod, dotted
            if "." in dotted:
                cls, attr = dotted.split(".")
                owner = getattr(mod, cls)
            pre, post = COUNTERS.get(f"{layer}.{dotted}", (None, None))
            out.append((f"{layer}.{dotted}", owner, attr, pre, post))
    return out


# ---------------------------------------------------------------------------
# reduction of one traced pass


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced pass.

    Busy time of a function is the summed duration of its outermost
    spans; self time subtracts the time its children cover.  Root spans
    are jobs; ``trace.unattributed_frac`` is the share of job time that
    no wrapped call covers.
    """
    own = self_times(spans)

    def layer(s):
        return s.name.split(".", 1)[0]

    def self_of(pred):
        return sum(t for s, t in zip(spans, own) if pred(s))

    def busy(names):
        return sum(s.duration for i, s in enumerate(spans)
                   if s.name in names and not any(spans[p].name in names for p in ancestors(spans, i)))

    def count(pred):
        return sum(1 for s in spans if pred(s))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    # scans made inside a verdict are counted by the verdict's vertex count
    verdicts = {i for i, s in enumerate(spans) if s.name == "mellin.fredholm_verdict"}
    lone_scans = sum(1 for i, s in enumerate(spans) if s.name == "mellin.invertibility_scan"
                     and not verdicts.intersection(ancestors(spans, i)))
    transforms = count(lambda s: s.name == "mellin.mellin_transform")
    vertices = total("mellin.fredholm_verdict", "vertices") + lone_scans

    validate_s = busy({"groupoid.validate"})
    entries = total("groupoid.validate", "compose")
    dof = [s.counts["dof"] for s in spans if s.name == "nystrom.double_layer_matrix"]
    jobs = [(s, t) for s, t in zip(spans, own) if s.parent < 0]
    job_time = sum(s.duration for s, _ in jobs)

    return {
        "mellin.symbol_s": busy({"mellin.MellinSymbolFamily.value"}),
        "mellin.transform_self_s": self_of(lambda s: s.name == "mellin.mellin_transform"),
        "mellin.lambda_samples": total("mellin.invertibility_scan", "grid_points"),
        "mellin.transforms": transforms,
        "mellin.reuse_ratio": vertices / transforms if transforms else 0.0,
        "mellin.verdict_self_s": self_of(lambda s: s.name == "mellin.fredholm_verdict"),
        "mellin.scan_self_s": self_of(lambda s: s.name == "mellin.invertibility_scan"),
        "mellin.refinements": total("mellin.invertibility_scan", "refinements"),
        "nystrom.assembly_s": busy({"nystrom.polygon_mesh", "nystrom.double_layer_matrix"}),
        "nystrom.sigma_s": busy({"nystrom.weighted_sigma_min"}),
        "nystrom.dof": total("nystrom.polygon_mesh", "dof"),
        "nystrom.matrix_bytes": sum(8 * n * n for n in dof),
        "groupoid.validate_s": validate_s,
        "groupoid.validate_calls": count(lambda s: s.name == "groupoid.validate"),
        "groupoid.validate_arrows": total("groupoid.validate", "arrows"),
        "groupoid.validate_compose_entries": entries,
        "groupoid.validate_ns_per_entry": 1e9 * validate_s / entries if entries else 0.0,
        "groupoid.orbits_s": busy({"groupoid.orbits_and_isotropy"}),
        "groupoid.build_s": self_of(lambda s: s.name in BUILD_FUNCTIONS),
        "gluing.glue_s": self_of(lambda s: layer(s) == "gluing" and s.name not in GLUING_CHECKS),
        "gluing.check_s": self_of(lambda s: s.name in GLUING_CHECKS),
        "gluing.classes": total("gluing.GluingAtlas.quotient_classes", "classes"),
        "conical.self_s": self_of(lambda s: layer(s) == "conical"),
        "conical.toy_arrows": total("conical.finite_toy_model", "arrows"),
        "specfiles.self_s": self_of(lambda s: layer(s) == "specfiles"),
        "specfiles.calls": count(lambda s: layer(s) == "specfiles"),
        "specfiles.bytes": sum(s.counts.get("bytes", 0) for s in spans if layer(s) == "specfiles"),
        "algebra.self_s": self_of(lambda s: layer(s) == "algebra"),
        "algebra.calls": count(lambda s: layer(s) == "algebra"),
        "algebra.solve_dim": total("algebra.solve_inverse", "dim"),
        "fredholm.criterion_s": busy({"fredholm.fredholm_criterion"}),
        "fredholm.spectral_s": busy({"fredholm.strictly_spectral_check"}),
        "fredholm.structure_s": busy({"fredholm.make_structure"}),
        "fredholm.trials": total("fredholm.strictly_spectral_check", "trials"),
        "iso.self_s": self_of(lambda s: layer(s) == "iso"),
        "iso.calls": count(lambda s: layer(s) == "iso"),
        "trace.unattributed_frac": sum(t for _, t in jobs) / job_time if job_time else 0.0,
    }


# ---------------------------------------------------------------------------
# rows of the recorded baseline: single jobs of the in-process workloads

BASELINE_JOB_LATENCY = {
    "baseline.square_verdict_s": "verdict:square",
    "baseline.nystrom_l6_s": "nystrom:square",
    "baseline.toy_m5_build_s": "build:m5i1",
    "baseline.toy_m5_ip5_build_s": "build:m5i5",
}
BASELINE_VALIDATE = {
    "baseline.validate_below_cap_s": "parse:m5i1",
    "baseline.validate_above_cap_s": "parse:m5i5",
}
BASELINE_TOY_ARROWS = {
    "baseline.toy_m5_arrows": "build:m5i1",
    "baseline.toy_m5_ip5_arrows": "build:m5i5",
}


def baseline_metrics(records, spans: list[Span]) -> dict:
    """Baseline rows from one untraced pass (job latencies) and one traced
    pass (validate time and arrow counts inside a job); 0 where the
    workload has no such job."""
    latency = {r.name: r.latency for r in records}
    out = {k: latency.get(job, 0.0) for k, job in BASELINE_JOB_LATENCY.items()}
    for k, job in BASELINE_VALIDATE.items():
        out[k] = sum(s.duration for s in spans if s.job == job and s.name == "groupoid.validate")
    for k, job in BASELINE_TOY_ARROWS.items():
        out[k] = sum(s.counts.get("arrows", 0) for s in spans
                     if s.job == job and s.name == "conical.finite_toy_model")
    return out
