"""Command-line entry point.

One binary with subcommands sharing fixtures and report conventions.
Reports are deterministic JSON (sorted keys, no timestamps): identical
config and seed give byte-identical output.

The exit code is the verdict: 0 when it passes, 1 when it fails, and 2
for any error, a failed ``--out`` write included.  An error prints one
``error:`` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import algebra as algebra_mod
from . import conical, fredholm, mellin, nystrom, specfiles
from .gluing import check_strong_gluing, glue
from .groupoid import orbits_and_isotropy, validate


def _reports(check: str):
    """Make a subcommand body into its command, inside the one error boundary.

    The body takes the command's options, ``--out`` included, and returns
    ``(config, results, passed)``.  The command wraps the results in the
    report envelope and writes it to ``--out``, or echoes it when
    ``--out`` is omitted; results given as text (a CSV trace) are written
    as they are.  Any exception, the write's included, becomes one
    ``error:`` line and exit code 2; otherwise the exit code is 0 when
    ``passed`` holds and 1 when it does not.
    """

    def decorate(body):
        @functools.wraps(body)
        def command(**options):
            out = options["out"]
            try:
                config, results, passed = body(**options)
                if not isinstance(results, str):
                    results = specfiles.dump({"tool": "gpdlab", "version": __version__, "check": check,
                                              "config": config, "results": results})
                if out is None:
                    click.echo(results, nl=False)
                else:
                    Path(out).write_text(results, encoding="utf-8")
            except Exception as exc:  # noqa: BLE001 - the CLI boundary
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            sys.exit(0 if passed else 1)

        return command

    return decorate


_out = click.option("--out", type=click.Path(), default=None)


@click.group()
@click.version_option(__version__, prog_name="gpdlab")
def main():
    """Finite-groupoid workbench and Mellin symbol scanner."""


@main.command("validate")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@_out
@_reports("groupoid-axioms")
def validate_cmd(groupoid_path, out):
    """Check the groupoid axioms of a spec file."""
    # parse without the load-time axiom gate so violations become a verdict
    g = specfiles._groupoid_tables(specfiles._load_json(groupoid_path), where=str(groupoid_path))
    results = validate(g).as_dict()
    return {"groupoid": str(groupoid_path)}, results, results["ok"]


@main.command("glue")
@click.option("--atlas", "atlas_path", required=True, type=click.Path())
@_out
@_reports("gluing-construction")
def glue_cmd(atlas_path, out):
    """Glue an atlas; emits the glued groupoid and the condition checks."""
    atlas = specfiles.parse_atlas(atlas_path)
    glued = glue(atlas)  # raises unless the weak condition holds
    strong = check_strong_gluing(atlas)
    results = {
        "weak_gluing": True,
        "strong_gluing": strong.ok,
        "strong_chart_choice": {str(k): v for k, v in (strong.chart_choice or {}).items()},
        "strong_alternatives": {str(k): list(v) for k, v in (strong.alternatives or {}).items()},
        "glued_groupoid": specfiles.groupoid_to_dict(glued.groupoid),
    }
    return {"atlas": str(atlas_path)}, results, True


@main.command("orbits")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@_out
@_reports("orbit-isotropy-decomposition")
def orbits_cmd(groupoid_path, out):
    """Orbit partition and isotropy tables."""
    part = orbits_and_isotropy(specfiles.parse_groupoid(groupoid_path))
    results = {
        "orbits": [sorted(map(str, orb)) for orb in part.orbits],
        "representatives": [str(r) for r in part.representatives],
        "isotropy_orders": [t.order for t in part.isotropy],
        "isotropy_abelian": [t.is_abelian() for t in part.isotropy],
    }
    return {"groupoid": str(groupoid_path)}, results, True


@main.command("norms")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@click.option("--element", "element_path", required=True, type=click.Path())
@_out
@_reports("convolution-algebra-norms")
def norms_cmd(groupoid_path, element_path, out):
    """Fiber l1 norm and reduced norm of an element file."""
    g = specfiles.parse_groupoid(groupoid_path)
    a = specfiles.parse_element(element_path, g)
    results = {
        "l1_norm": algebra_mod.l1_norm(a),
        "reduced_norm": algebra_mod.reduced_norm(a),
        "block_dimensions": [len(b.fiber) for b in algebra_mod.block_decompose(g).blocks],
        "invertible": algebra_mod.invertible(a, method="blocks"),
        "norm_note": algebra_mod.AMENABILITY_NOTE,
    }
    return {"groupoid": str(groupoid_path), "element": str(element_path)}, results, True


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
@_out
@_reports("fredholm-characterization")
def fredholm_check_cmd(groupoid_path, interior_spec, seed, element_path, hermitian, out):
    """Fredholm-criterion verdict for 1 + a on a designated structure."""
    g = specfiles.parse_groupoid(groupoid_path)
    structure = fredholm.make_structure(g, _resolve_interior(g, interior_spec))
    if element_path is not None:
        a = specfiles.parse_element(element_path, g)
    else:
        a = algebra_mod.random_element(g, np.random.default_rng(seed), hermitian=hermitian)
    verdict = fredholm.fredholm_criterion(structure, a)
    results = verdict.as_dict()
    results["interior"] = sorted(map(str, structure.interior))
    results["boundary_representatives"] = [str(r) for r in structure.boundary_representatives]
    results["norm_note"] = algebra_mod.AMENABILITY_NOTE
    config = {"groupoid": str(groupoid_path), "u": interior_spec, "seed": seed,
              "element": element_path, "hermitian": hermitian}
    return config, results, verdict.is_fredholm


@main.command("spectral-check")
@click.option("--groupoid", "groupoid_path", required=True, type=click.Path())
@click.option("--u", "interior_spec", default="interior", show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", type=int, required=True)
@_out
@_reports("strictly-spectral-family")
def spectral_check_cmd(groupoid_path, interior_spec, trials, seed, out):
    """Verdict-equivalence of the boundary representation family."""
    g = specfiles.parse_groupoid(groupoid_path)
    structure = fredholm.make_structure(g, _resolve_interior(g, interior_spec))
    report = fredholm.strictly_spectral_check(structure, trials, seed)
    config = {"groupoid": str(groupoid_path), "u": interior_spec, "trials": trials, "seed": seed}
    return config, {**asdict(report), "passed": report.passed}, report.passed


@main.command("layer-report")
@click.option("--domain", "domain_path", required=True, type=click.Path())
@_out
@_reports("boundary-algebra-structure")
def layer_report_cmd(domain_path, out):
    """Structural boundary-algebra report for a conical domain."""
    descriptor = conical.assemble_layer_groupoid(specfiles.parse_domain(domain_path))
    return {"domain": str(domain_path)}, asdict(conical.boundary_algebra_report(descriptor)), True


@main.command("mellin-scan")
@click.option("--domain", "domain_path", required=True, type=click.Path())
@click.option("--c", "constant", type=float, default=0.5, show_default=True)
@click.option("--weight", default="auto", show_default=True)
@click.option("--lambda-max", type=float, default=mellin.DEFAULT_LAMBDA_MAX, show_default=True,
              help="Reach of the planned lambda grid; the log-line step resolves it before C2 "
                   "is taken, and the scan sums only the planned points inside its tail cutoff.")
@click.option("--sigma-tol", type=float, default=1e-3, show_default=True)
@_out
@_reports("boundary-symbol-invertibility")
def mellin_scan_cmd(domain_path, constant, weight, lambda_max, sigma_tol, out):
    """Invertibility scan of c I + double layer along the critical line."""
    domain = specfiles.parse_domain(domain_path)
    with specfiles.fields_of(domain_path):
        verdict = mellin.fredholm_verdict(
            domain, c=constant, weight=weight, lambda_max=lambda_max, sigma_tol=sigma_tol
        )
    config = {"domain": str(domain_path), "c": constant, "weight": weight,
              "lambda_max": lambda_max, "sigma_tol": sigma_tol}
    return config, verdict.as_dict(), verdict.is_fredholm


@main.command("nystrom-verify")
@click.option("--domain", "domain_path", required=True, type=click.Path())
@click.option("--levels", type=int, default=6, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="CSV trace (level, dof, sigma_min); stdout JSON when omitted")
@_reports("discretization-corroboration")
def nystrom_verify_cmd(domain_path, levels, out):
    """Graded-mesh discretization trace of I/2 + double layer."""
    domain = specfiles.parse_domain(domain_path)
    with specfiles.fields_of(domain_path):
        trace = nystrom.nystrom_oracle(domain, levels)
    stabilized = trace.stabilized(0.10)
    if out is not None and str(out).endswith(".csv"):
        return None, trace.as_csv(), stabilized
    results = {
        "trace": [asdict(r) for r in trace.rows],
        "stabilized_10pct": stabilized,
        "rotation_order": trace.rotation_order,
        "symmetry_order": trace.symmetry_order,
    }
    return {"domain": str(domain_path), "levels": levels}, results, stabilized


if __name__ == "__main__":
    main()
