"""Reference oracle for the groupoid axioms: a direct walk over the dict tables.

``axiom_violations`` returns every violation, uncapped, as a map from
axiom name to the set of witness tuples, in the vocabulary of
``gpdlab.validate``.  It shares no code with the vectorised validator,
whose capped report must list a subset of these witnesses.
"""

from collections import defaultdict

from gpdlab.groupoid import MAX_WITNESSES_PER_AXIOM


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
