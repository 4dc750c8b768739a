"""Reference oracles: direct walks over the dict tables and the standard library.

``axiom_violations`` returns every violation, uncapped, as a map from
axiom name to the set of witness tuples, in the vocabulary of
``gpdlab.validate``.  It shares no code with the vectorised validator,
whose capped report must list a subset of these witnesses.

``reduction_reference`` and ``make_structure_reference`` build the
reduction by filtering the dict tables, as the array code must agree
with; ``dump_reference`` is the text ``specfiles.dump`` must reproduce.
"""

import json
from collections import defaultdict

from gpdlab.fredholm import FredholmStructure, StructureError
from gpdlab.groupoid import (
    MAX_WITNESSES_PER_AXIOM,
    FiniteGroupoid,
    as_unit_subset,
    is_invariant,
    orbits_and_isotropy,
)
from gpdlab.iso import is_pair_groupoid


def axiom_violations(g) -> dict:
    out = defaultdict(set)
    for x in g.units:
        ua = g.unit_arrow[x]
        if g.dom[ua] != x or g.rng[ua] != x:
            out["unit-endpoints"].add((x,))

    defined = set(g.compose)
    rfib = {x: [] for x in g.units}
    dfib = {x: [] for x in g.units}
    for a in g.arrows:
        rfib[g.rng[a]].append(a)
        dfib[g.dom[a]].append(a)
    composable = {(a, b) for x in g.units for a in dfib[x] for b in rfib[x]}
    for pair in composable ^ defined:
        out["composability"].add(pair)

    for (a, b), k in g.compose.items():
        if (a, b) in composable:
            if g.dom[k] != g.dom[b] or g.rng[k] != g.rng[a]:
                out["product-endpoints"].add((a, b))

    for a in g.arrows:
        if g.compose.get((g.unit_arrow[g.rng[a]], a)) != a or g.compose.get((a, g.unit_arrow[g.dom[a]])) != a:
            out["identity"].add((a,))
        ia = g.inverse[a]
        if g.dom[ia] != g.rng[a] or g.rng[ia] != g.dom[a]:
            out["inverse-endpoints"].add((a,))
        if (
            g.compose.get((a, ia)) != g.unit_arrow[g.rng[a]]
            or g.compose.get((ia, a)) != g.unit_arrow[g.dom[a]]
        ):
            out["inverse"].add((a,))

    for (a, b), ab in g.compose.items():
        for k in rfib[g.dom[b]]:
            lhs = g.compose.get((ab, k))
            bk = g.compose.get((b, k))
            rhs = g.compose.get((a, bk)) if bk is not None else None
            if lhs != rhs:
                out["associativity"].add((a, b, k))
    return dict(out)


def check_against_oracle(report, g) -> None:
    """Assert that a validation report agrees with the oracle on ``g``."""
    full = axiom_violations(g)
    assert report.axioms() == set(full)
    for axiom, witnesses in full.items():
        got = [v.witness for v in report.violations if v.axiom == axiom]
        assert len(set(got)) == len(got) == min(len(witnesses), MAX_WITNESSES_PER_AXIOM), axiom
        assert set(got) <= witnesses, axiom


def dump_reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reduction_reference(g, a) -> FiniteGroupoid:
    """The full subgroupoid over A: arrows with both endpoints in A."""
    sub = as_unit_subset(g, a)
    keep_units = [x for x in g.units if x in sub]
    keep = set()
    for arrow in g.arrows:
        if g.dom[arrow] in sub and g.rng[arrow] in sub:
            keep.add(arrow)
    arrows = [x for x in g.arrows if x in keep]
    return FiniteGroupoid(
        units=keep_units,
        arrows=arrows,
        dom={x: g.dom[x] for x in arrows},
        rng={x: g.rng[x] for x in arrows},
        unit_arrow={x: g.unit_arrow[x] for x in keep_units},
        inverse={x: g.inverse[x] for x in arrows},
        compose={(p, q): k for (p, q), k in g.compose.items() if p in keep and q in keep},
    )


def make_structure_reference(g, u) -> FredholmStructure:
    """``make_structure`` asking ``is_pair_groupoid`` of the built interior reduction."""
    usub = as_unit_subset(g, u)
    if not is_invariant(g, usub):
        raise StructureError("designated interior is not invariant")
    if not is_pair_groupoid(reduction_reference(g, usub)):
        raise StructureError("reduction to the designated interior is not a pair groupoid")
    boundary = usub.complement().members
    orbits = orbits_and_isotropy(reduction_reference(g, boundary), check=False)
    interior_units = [x for x in g.units if x in usub]
    return FredholmStructure(
        groupoid=g,
        interior=usub.members,
        boundary=boundary,
        interior_representative=interior_units[0] if interior_units else None,
        boundary_orbits=orbits.orbits,
        boundary_representatives=orbits.representatives,
    )
