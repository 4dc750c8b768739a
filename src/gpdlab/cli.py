"""Command-line entry point.

One binary with subcommands sharing fixtures and report conventions.
Reports are deterministic JSON (sorted keys, no timestamps): identical
config and seed give byte-identical output.  Exit codes: 0 for a
passing verdict, 1 for a failing verdict, 2 for any error.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import __version__
from . import algebra as algebra_mod
from . import conical, fredholm, mellin, nystrom, specfiles
from .gluing import check_strong_gluing, glue
from .groupoid import orbits_and_isotropy, validate


def _report(check: str, config: dict, results: dict) -> dict:
    return {
        "tool": "gpdlab",
        "version": __version__,
        "check": check,
        "config": config,
        "results": results,
    }


def _emit(report: dict, out, passed) -> None:
    text = specfiles.dump(report, out)
    if out is None:
        click.echo(text, nl=False)
    if passed is False:
        sys.exit(1)
    sys.exit(0)


def _fail(exc: BaseException) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


@click.group()
@click.version_option(__version__, prog_name="gpdlab")
def main():
    """Finite-groupoid workbench and Mellin symbol scanner."""


@main.command("validate")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def validate_cmd(groupoid_path, out):
    """Check the groupoid axioms of a spec file."""
    try:
        # parse without the load-time axiom gate so violations become a verdict
        g = specfiles._groupoid_tables(specfiles._load_json(groupoid_path), where=str(groupoid_path))
        report_dict = validate(g).as_dict()
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail(exc)
    _emit(
        _report("groupoid-axioms", {"groupoid": str(groupoid_path)}, report_dict),
        out,
        report_dict["ok"],
    )


@main.command("glue")
@click.option("--atlas", "atlas_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def glue_cmd(atlas_path, out):
    """Glue an atlas; emits the glued groupoid and the condition checks."""
    try:
        atlas = specfiles.parse_atlas(atlas_path)
        glued = glue(atlas)  # raises unless the weak condition holds
        strong = check_strong_gluing(atlas)
        results = {
            "weak_gluing": True,
            "strong_gluing": strong.ok,
            "strong_chart_choice": {str(k): v for k, v in (strong.chart_choice or {}).items()},
            "strong_alternatives": {
                str(k): list(v) for k, v in (strong.alternatives or {}).items()
            },
            "glued_groupoid": specfiles.groupoid_to_dict(glued.groupoid),
        }
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    _emit(_report("gluing-construction", {"atlas": str(atlas_path)}, results), out, True)


@main.command("orbits")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def orbits_cmd(groupoid_path, out):
    """Orbit partition and isotropy tables."""
    try:
        g = specfiles.parse_groupoid(groupoid_path)
        part = orbits_and_isotropy(g)
        results = {
            "orbits": [sorted(map(str, orb)) for orb in part.orbits],
            "representatives": [str(r) for r in part.representatives],
            "isotropy_orders": [t.order for t in part.isotropy],
            "isotropy_abelian": [t.is_abelian() for t in part.isotropy],
        }
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    _emit(_report("orbit-isotropy-decomposition", {"groupoid": str(groupoid_path)}, results), out, True)


@main.command("norms")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@click.option("--element", "element_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def norms_cmd(groupoid_path, element_path, out):
    """Fiber l1 norm and reduced norm of an element file."""
    try:
        g = specfiles.parse_groupoid(groupoid_path)
        a = specfiles.parse_element(element_path, g)
        decomposition = algebra_mod.block_decompose(g)
        results = {
            "l1_norm": algebra_mod.l1_norm(a),
            "reduced_norm": algebra_mod.reduced_norm(a),
            "block_dimensions": [len(b.fiber) for b in decomposition.blocks],
            "invertible": algebra_mod.invertible(a, method="blocks"),
            "norm_note": algebra_mod.AMENABILITY_NOTE,
        }
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    _emit(_report("convolution-algebra-norms",
                  {"groupoid": str(groupoid_path), "element": str(element_path)},
                  results), out, True)


def _resolve_interior(g, spec: str):
    if spec != "interior":
        units = spec.split(",")
        if missing := [u for u in units if u not in g.unit_index()]:
            raise ValueError(f"unknown unit ids {missing}")
        return units
    part = orbits_and_isotropy(g, check=False)  # g passed validation
    candidates = [orb for orb, order in zip(part.orbits, part.orders) if order == 1]
    if not candidates:
        raise ValueError("no trivial-isotropy orbit to use as the interior")
    return max(candidates, key=len)


@main.command("fredholm-check")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@click.option("--u", "interior_spec", default="interior", show_default=True,
              help="'interior' (largest trivial-isotropy orbit) or comma-separated unit ids")
@click.option("--seed", type=int, required=True)
@click.option("--element", "element_path", type=click.Path(), default=None,
              help="element file; a seeded random element is used when omitted")
@click.option("--hermitian", is_flag=True, default=False)
@click.option("--out", type=click.Path(), default=None)
def fredholm_check_cmd(groupoid_path, interior_spec, seed, element_path, hermitian, out):
    """Fredholm-criterion verdict for 1 + a on a designated structure."""
    try:
        g = specfiles.parse_groupoid(groupoid_path)
        interior = _resolve_interior(g, interior_spec)
        structure = fredholm.make_structure(g, interior)
        if element_path is not None:
            a = specfiles.parse_element(element_path, g)
        else:
            a = algebra_mod.random_element(g, np.random.default_rng(seed), hermitian=hermitian)
        verdict = fredholm.fredholm_criterion(structure, a)
        results = verdict.as_dict()
        results["interior"] = sorted(map(str, structure.interior))
        results["boundary_representatives"] = [str(r) for r in structure.boundary_representatives]
        results["norm_note"] = algebra_mod.AMENABILITY_NOTE
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    _emit(
        _report(
            "fredholm-characterization",
            {"groupoid": str(groupoid_path), "u": interior_spec, "seed": seed,
             "element": element_path, "hermitian": hermitian},
            results,
        ),
        out,
        verdict.is_fredholm,
    )


@main.command("spectral-check")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@click.option("--u", "interior_spec", default="interior", show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def spectral_check_cmd(groupoid_path, interior_spec, trials, seed, out):
    """Verdict-equivalence of the boundary representation family."""
    try:
        g = specfiles.parse_groupoid(groupoid_path)
        structure = fredholm.make_structure(g, _resolve_interior(g, interior_spec))
        report = fredholm.strictly_spectral_check(structure, trials, seed)
        results = {
            "trials": report.trials,
            "passed": report.passed,
            "counterexamples": report.counterexamples,
            "boundary_orbit_count": report.boundary_orbit_count,
            "note": report.note,
        }
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    _emit(
        _report("strictly-spectral-family",
                {"groupoid": str(groupoid_path), "u": interior_spec,
                 "trials": trials, "seed": seed},
                results),
        out,
        report.passed,
    )


@main.command("layer-report")
@click.option("--domain", "domain_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None)
def layer_report_cmd(domain_path, out):
    """Structural boundary-algebra report for a conical domain."""
    try:
        domain = specfiles.parse_domain(domain_path)
        descriptor = conical.assemble_layer_groupoid(domain)
        rep = conical.boundary_algebra_report(descriptor)
        results = {
            "algebra": rep.algebra,
            "summands": list(rep.summands),
            "boundary_orbit_count": rep.boundary_orbit_count,
            "boundary_unit_count": rep.boundary_unit_count,
            "b_groupoid_equal": rep.b_groupoid_equal,
            "isotropy": rep.isotropy,
            "amenable": rep.amenable,
            "fredholm": rep.fredholm,
            "dense_orbit": rep.dense_orbit,
            "notes": list(rep.notes),
        }
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    _emit(_report("boundary-algebra-structure", {"domain": str(domain_path)}, results), out, True)


@main.command("mellin-scan")
@click.option("--domain", "domain_path", required=True, type=click.Path())
@click.option("--c", "constant", type=float, default=0.5, show_default=True)
@click.option("--weight", default="auto", show_default=True)
@click.option("--lambda-max", type=float, default=mellin.DEFAULT_LAMBDA_MAX, show_default=True,
              help="Reach of the planned lambda grid; the log-line step resolves it before C2 "
                   "is taken, and the scan sums only the planned points inside its tail cutoff.")
@click.option("--sigma-tol", type=float, default=1e-3, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def mellin_scan_cmd(domain_path, constant, weight, lambda_max, sigma_tol, out):
    """Invertibility scan of c I + double layer along the critical line."""
    try:
        domain = specfiles.parse_domain(domain_path)
        verdict = mellin.fredholm_verdict(
            domain, c=constant, weight=weight, lambda_max=lambda_max, sigma_tol=sigma_tol
        )
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    _emit(
        _report("boundary-symbol-invertibility",
                {"domain": str(domain_path), "c": constant, "weight": weight,
                 "lambda_max": lambda_max, "sigma_tol": sigma_tol},
                verdict.as_dict()),
        out,
        verdict.is_fredholm,
    )


@main.command("nystrom-verify")
@click.option("--domain", "domain_path", required=True, type=click.Path())
@click.option("--levels", type=int, default=6, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="CSV trace (level, dof, sigma_min); stdout JSON when omitted")
def nystrom_verify_cmd(domain_path, levels, out):
    """Graded-mesh discretization trace of I/2 + double layer."""
    try:
        domain = specfiles.parse_domain(domain_path)
        trace = nystrom.nystrom_oracle(domain, levels)
        stabilized = trace.stabilized(0.10)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)
    if out is not None and str(out).endswith(".csv"):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(trace.as_csv())
        sys.exit(0 if stabilized else 1)
    results = {
        "trace": [{"level": r.level, "dof": r.dof, "sigma_min": r.sigma_min} for r in trace.rows],
        "stabilized_10pct": stabilized,
        "rotation_order": trace.rotation_order,
        "symmetry_order": trace.symmetry_order,
    }
    _emit(
        _report("discretization-corroboration",
                {"domain": str(domain_path), "levels": levels}, results),
        out,
        stabilized,
    )


if __name__ == "__main__":
    main()
