"""Reference oracles: direct walks over the dict tables and the standard library.

``axiom_violations`` returns every violation, uncapped, as a map from
axiom name to the set of witness tuples, in the vocabulary of
``gpdlab.validate``.  It shares no code with the vectorised validator,
whose capped report must list a subset of these witnesses.

``reduction_reference`` and ``make_structure_reference`` build the
reduction by filtering the dict tables, as the array code must agree
with; ``dump_reference`` is the text ``specfiles.dump`` must reproduce.

``compose_tables_reference`` reads a compose section entry by entry, with
a set of the (g, h) pairs seen so far, as ``specfiles`` did before it
looked the ids up in one pass; its index columns, and the path and
message of the first fault, must be the parser's.

``build_pair_reference``, ``build_group_bundle_reference``,
``build_product_reference``, ``relabel_reference`` and
``build_disjoint_union_reference`` are the dict loops the index-array
builders must reproduce, compose order included.

``check_atlas_reference`` checks the atlas laws with dict walks: the
omitted phis matched by ambient endpoints, the per-phi checks, mutual
inverses per ordered pair and the cocycle law per ordered triple.
``GluingAtlas`` and its ``check`` must raise the same errors.

``strong_gluing_reference`` walks the orbits of each unit piece by
piece, as ``check_strong_gluing`` must agree with.

``glue_reference`` glues an atlas with dict walks: union-find quotient
classes, the class-pair weak walk, the class-pair product loop and the
per-entry projection walk.  ``gpdlab.glue`` must give the same tables,
compose order, projections, witnesses and messages.

``limit_operators_reference``, ``fredholm_criterion_reference``,
``strictly_spectral_check_reference`` and ``reduced_norm_reference``
build one ``regular_rep`` per unit and compare limit operators by their
spectra, as the Fredholm routes did before they read the orbit blocks;
their verdicts, counterexamples, norms and matrices must be equal.
``solve_inverse_reference``, their algebra route, takes the full SVD of
the whole left-multiplication matrix and one dense solve, as
``gpdlab.solve_inverse`` did before it solved one block per d-fiber.
``matrix_invertible_reference`` decides one matrix from its own SVD and
``convolve_reference`` adds one product at a time, as
``gpdlab.matrix_invertible`` and ``gpdlab.convolve`` did before they
became the one-row cases of the stacked routines.

``polygon_mesh_reference`` lays out the graded polygon mesh node by node;
``gpdlab.polygon_mesh`` must give the same arrays bit for bit.
``double_layer_reference`` assembles the whole Nystrom double-layer matrix
from the (N, N, 2) difference array with two einsums and a same-edge mask,
and ``nystrom_sigmas_reference`` takes each level's sigma_min from a full
SVD of the whole weighted matrix, as ``gpdlab.nystrom`` did before it read
Gram eigenvalues of the rotation group's Fourier blocks.
``weighted_sigma_min_reference`` is ``gpdlab.weighted_sigma_min`` as it was
over the rotation group alone (block row of the first N / k nodes, one
Fourier block per character); for the trivial group the full-group code
must give its sigma_min bit for bit.  ``weighted_sigma_min_every_block_reference``
eigen-solves every block of the full group, in table order, as
``gpdlab.weighted_sigma_min`` did before it certified blocks above the
running minimum by Cholesky; the pruned loop must give its sigma_min bit
for bit.  ``polygon_symmetries_reference``
finds the polygon's symmetries by brute force over the orthogonal maps of
its vertex set and matches each mapped node to the nearest node, and
``group_matrix_reference`` rebuilds the whole matrix from the
orbit-representative rows under those permutations.

``kernel_samples_reference`` samples a Mellin kernel with one ``fn`` call
per node, in chunks of 1024, and ``log_line_samples_reference`` weights
those samples into g(u) = k(e^u) e^(a u), as ``LogLineSamples`` did before
it sampled through ``MellinKernel.values``.  ``reflect_kernel_reference``
and ``adjoint_kernel_reference`` are the scalar flips k(1/t) t^(-2a) and
conj(k(1/t))^T t^(-2a), with Python's ``**`` on each node.

``find_group_isomorphism_reference`` is ``gpdlab.find_group_isomorphism``
as it was on tuple-of-tuples tables, with element orders found by walking
powers one element at a time; the search on array tables must return the
same map.

``trapezoid_reference`` is ``LogLineSamples._trapezoid`` as it was before
the sum was factored: it forms the full (lams x even nodes) phase matrix,
each entry the product of a coarse and a fine phase, and multiplies it by
the node-major weighted samples.  It builds those samples on every call,
so it can run on a ``LogLineSamples`` of either engine, or stand in for
the method.
"""

import itertools
import json
import math
from collections import defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment

from gpdlab.algebra import (
    DEFAULT_INVERTIBILITY_RTOL,
    AlgebraElement,
    left_multiplication_matrix,
    operator_norm,
    random_element,
    regular_rep,
    restrict_boundary,
)
from gpdlab.fredholm import CriterionVerdict, FredholmStructure, SpectralCheckReport, StructureError
from gpdlab.gluing import AtlasError, GluedGroupoid, GluingError
from gpdlab.groupoid import (
    GROUP_ISO_SEARCH_CAP,
    MAX_WITNESSES_PER_AXIOM,
    FiniteGroupoid,
    GroupoidError,
    as_unit_subset,
    is_invariant,
    orbits_and_isotropy,
    validate,
)
from gpdlab.iso import is_pair_groupoid
from gpdlab.mellin import KernelDecay, MellinError, MellinKernel, _cis
from gpdlab.nystrom import PolygonMesh, _block, _gram, _polygon_coords, _representations
from gpdlab.specfiles import SchemaError


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


def compose_tables_reference(compose_spec, aidx: dict, path: str):
    """The (p1, p2, pp) index arrays of a compose section; a fault raises SchemaError."""
    n, get, seen, triples = len(aidx), aidx.get, set(), []
    for i, triple in enumerate(compose_spec):
        if not (isinstance(triple, list) and len(triple) == 3):
            raise SchemaError(f"{path}[{i}]", "must be a triple [g, h, gh]")
        g, h, k = triple
        strings = isinstance(g, str) and isinstance(h, str) and isinstance(k, str)
        a, b, c = (get(g, -1), get(h, -1), get(k, -1)) if strings else (-1, -1, -1)
        if a < 0 or b < 0 or c < 0 or a * n + b in seen:
            raise SchemaError(f"{path}[{i}]", _compose_fault_reference(triple, aidx))
        seen.add(a * n + b)
        triples += (a, b, c)
    return tuple(np.array(triples, np.int64).reshape(-1, 3).T)


def _compose_fault_reference(triple, aidx) -> str:
    for name, val in zip(("g", "h", "gh"), triple):
        if not (isinstance(val, str) and val in aidx):
            return f"{name}={val!r} is not a declared arrow id"
    return f"duplicate compose entry for ({triple[0]!r}, {triple[1]!r})"


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
    gf = reduction_reference(g, boundary)
    orbits = orbits_and_isotropy(gf, check=False)
    interior_units = [x for x in g.units if x in usub]
    aidx = g.arrow_index()
    return FredholmStructure(
        groupoid=g,
        interior=usub.members,
        boundary=boundary,
        interior_representative=interior_units[0] if interior_units else None,
        boundary_orbits=orbits.orbits,
        boundary_representatives=orbits.representatives,
        boundary_groupoid=gf,
        boundary_arrows=np.array([aidx[x] for x in gf.arrows], np.int64),
    )


# ---------------------------------------------------------------------------
# the Fredholm routes, one regular representation per unit


def matrix_invertible_reference(m: np.ndarray) -> bool:
    if m.size == 0:
        return True
    svals = np.linalg.svd(m, compute_uv=False)
    smin, smax = float(svals[-1]), float(svals[0])
    if smax == 0.0:
        return False
    return smin > DEFAULT_INVERTIBILITY_RTOL * smax


def convolve_reference(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    g = a.groupoid
    out = np.zeros(g.n_arrows, dtype=np.complex128)
    np.add.at(out, g.pp, a.vec[g.p1] * b.vec[g.p2])
    return AlgebraElement(g, out)


def solve_inverse_reference(a: AlgebraElement):
    """Two-sided inverse in the groupoid algebra via the left-regular system.

    Returns the inverse element, or None when the element is not
    invertible (left-multiplication matrix numerically singular or the
    candidate fails the two-sided residual check).
    """
    g = a.groupoid
    if g.n_arrows == 0:
        return AlgebraElement.zero(g)
    lmat = left_multiplication_matrix(a)
    if not matrix_invertible_reference(lmat):
        return None
    unit_vec = AlgebraElement.unit(g).vec
    sol = AlgebraElement(g, np.linalg.solve(lmat, unit_vec))
    scale = 1.0 + float(np.max(np.abs(a.vec))) * max(1.0, float(np.max(np.abs(sol.vec))))
    if np.max(np.abs(convolve_reference(a, sol).vec - unit_vec)) > 1e-8 * scale:
        return None
    if np.max(np.abs(convolve_reference(sol, a).vec - unit_vec)) > 1e-8 * scale:
        return None
    return sol


def _spectra_match_reference(m1, m2) -> float:
    if m1.shape != m2.shape:
        return np.inf
    if m1.size == 0:
        return 0.0
    e1, e2 = np.linalg.eigvals(m1), np.linalg.eigvals(m2)
    cost = np.abs(e1[:, None] - e2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def limit_operators_reference(s, a, tol=1e-10):
    """(matrices, fibers) per boundary representative; raises on mismatched spectra."""
    mats, fibers = {}, {}
    for orbit, rep in zip(s.boundary_orbits, s.boundary_representatives):
        rr = regular_rep(a, rep)
        mats[rep], fibers[rep] = rr.matrix, rr.fiber
        scale = 1.0 + float(np.abs(rr.matrix).max(initial=0.0))
        for y in orbit:
            if y != rep:
                mism = _spectra_match_reference(rr.matrix, regular_rep(a, y).matrix)
                if mism > tol * scale:
                    raise StructureError(f"regular representations at {rep!r} and {y!r} have "
                                         f"mismatched spectra ({mism:.2e})")
    return mats, fibers


def fredholm_criterion_reference(s, a) -> CriterionVerdict:
    def one_plus_invertible(x):
        m = regular_rep(a, x).matrix
        return matrix_invertible_reference(np.eye(m.shape[0]) + m)

    u_inv = s.interior_representative is None or one_plus_invertible(s.interior_representative)
    boundary = {rep: one_plus_invertible(rep) for rep in s.boundary_representatives}
    quotient = True
    if s.boundary:
        af, _ = restrict_boundary(a, s.boundary, n_samples=0)
        quotient = solve_inverse_reference(AlgebraElement.unit(af.groupoid) + af) is not None
    return CriterionVerdict(u_inv, boundary, quotient, quotient == all(boundary.values()), quotient)


def strictly_spectral_check_reference(s, trials, seed):
    gf = reduction_reference(s.groupoid, s.boundary)
    if gf.n_units == 0:
        return SpectralCheckReport(0, [], 0)
    orbits = orbits_and_isotropy(gf, check=False)
    rng = np.random.default_rng(seed)
    bad = []
    for t in range(trials):
        b = random_element(gf, rng)
        algebra_route = solve_inverse_reference(AlgebraElement.unit(gf) + b) is not None
        family_route = all(
            matrix_invertible_reference(np.eye(len(m)) + m)
            for m in (regular_rep(b, x).matrix for x in orbits.representatives)
        )
        if algebra_route != family_route:
            bad.append({"trial": t, "algebra": algebra_route, "family": family_route})
    return SpectralCheckReport(trials, bad, len(orbits.orbits))


def reduced_norm_reference(a) -> float:
    reps = orbits_and_isotropy(a.groupoid, check=False).representatives
    return max((operator_norm(regular_rep(a, x).matrix) for x in reps), default=0.0)


# ---------------------------------------------------------------------------
# builders


def build_pair_reference(units) -> FiniteGroupoid:
    units = tuple(units)
    arrows = [(x, y) for x in units for y in units]
    compose = {}
    for x in units:
        for y in units:
            for z in units:
                compose[((x, y), (y, z))] = (x, z)
    return FiniteGroupoid(
        units=units,
        arrows=arrows,
        dom={(x, y): y for (x, y) in arrows},
        rng={(x, y): x for (x, y) in arrows},
        unit_arrow={x: (x, x) for x in units},
        inverse={(x, y): (y, x) for (x, y) in arrows},
        compose=compose,
    )


def build_group_bundle_reference(base_units, group) -> FiniteGroupoid:
    base_units = tuple(base_units)
    arrows = [(x, e) for x in base_units for e in group.elements]
    compose = {}
    for x in base_units:
        for a in group.elements:
            for b in group.elements:
                compose[((x, a), (x, b))] = (x, group.mul(a, b))
    ident = group.elements[group.identity]
    return FiniteGroupoid(
        units=base_units,
        arrows=arrows,
        dom={(x, e): x for (x, e) in arrows},
        rng={(x, e): x for (x, e) in arrows},
        unit_arrow={x: (x, ident) for x in base_units},
        inverse={
            (x, e): (x, group.elements[group.inverse_index(group.elements.index(e))])
            for (x, e) in arrows
        },
        compose=compose,
    )


def build_product_reference(g, h) -> FiniteGroupoid:
    units = [(x, y) for x in g.units for y in h.units]
    arrows = [(a, b) for a in g.arrows for b in h.arrows]
    compose = {}
    for (a1, b1), k1 in g.compose.items():
        for (a2, b2), k2 in h.compose.items():
            compose[((a1, a2), (b1, b2))] = (k1, k2)
    return FiniteGroupoid(
        units=units,
        arrows=arrows,
        dom={(a, b): (g.dom[a], h.dom[b]) for (a, b) in arrows},
        rng={(a, b): (g.rng[a], h.rng[b]) for (a, b) in arrows},
        unit_arrow={(x, y): (g.unit_arrow[x], h.unit_arrow[y]) for (x, y) in units},
        inverse={(a, b): (g.inverse[a], h.inverse[b]) for (a, b) in arrows},
        compose=compose,
    )


def build_disjoint_union_reference(parts) -> FiniteGroupoid:
    units, arrows, dom, rng, unit_arrow, inverse, compose = [], [], {}, {}, {}, {}, {}
    for i, g in enumerate(parts):
        units.extend((i, x) for x in g.units)
        arrows.extend((i, a) for a in g.arrows)
        dom.update({(i, a): (i, g.dom[a]) for a in g.arrows})
        rng.update({(i, a): (i, g.rng[a]) for a in g.arrows})
        unit_arrow.update({(i, x): (i, g.unit_arrow[x]) for x in g.units})
        inverse.update({(i, a): (i, g.inverse[a]) for a in g.arrows})
        compose.update({((i, a), (i, b)): (i, k) for (a, b), k in g.compose.items()})
    return FiniteGroupoid(units, arrows, dom, rng, unit_arrow, inverse, compose)


def relabel_reference(g, unit_map, arrow_map) -> FiniteGroupoid:
    um, am = dict(unit_map), dict(arrow_map)
    return FiniteGroupoid(
        units=[um[x] for x in g.units],
        arrows=[am[a] for a in g.arrows],
        dom={am[a]: um[g.dom[a]] for a in g.arrows},
        rng={am[a]: um[g.rng[a]] for a in g.arrows},
        unit_arrow={um[x]: am[g.unit_arrow[x]] for x in g.units},
        inverse={am[a]: am[g.inverse[a]] for a in g.arrows},
        compose={(am[a], am[b]): am[k] for (a, b), k in g.compose.items()},
    )


# ---------------------------------------------------------------------------
# gluing


def atlas_phis_reference(x_units, pieces, phis=None) -> dict:
    """Every phi of the atlas in ids, after the embedding and cover checks.

    A phi given for (i, j) is kept, one given only for (j, i) is inverted,
    and the others match arrows with equal ambient endpoints.
    """
    given, embs = dict(phis or {}), [dict(p.embedding) for p in pieces]
    for idx, (piece, emb) in enumerate(zip(pieces, embs)):
        if set(emb) != set(piece.groupoid.units):
            raise AtlasError(f"piece {idx}: embedding keys must be exactly the piece units")
        if len(set(emb.values())) != len(emb):
            raise AtlasError(f"piece {idx}: embedding is not injective")
        if not set(emb.values()) <= set(x_units):
            raise AtlasError(f"piece {idx}: embedding leaves the ambient unit set")
    if set().union(*(e.values() for e in embs)) != set(x_units):
        raise AtlasError("pieces do not cover the ambient unit set")
    full = {}
    for i, j in itertools.permutations(range(len(pieces)), 2):
        if not overlap_reference(pieces, i, j):
            continue
        if (i, j) in given:
            full[(i, j)] = dict(given[(i, j)])
        elif (j, i) in given:
            full[(i, j)] = {v: k for k, v in given[(j, i)].items()}
        else:
            target = {}
            for b in overlap_reference(pieces, j, i):
                if ambient_ends(pieces[j], b) in target:
                    raise AtlasError(f"pieces {i},{j}: overlap has parallel arrows; supply phi explicitly")
                target[ambient_ends(pieces[j], b)] = b
            phi = {}
            for a in overlap_reference(pieces, i, j):
                if ambient_ends(pieces[i], a) not in target:
                    raise AtlasError(f"pieces {i},{j}: no matching arrow over {ambient_ends(pieces[i], a)}; "
                                     "supply phi explicitly")
                phi[a] = target[ambient_ends(pieces[i], a)]
            if len(set(phi.values())) != len(target):
                raise AtlasError(f"pieces {i},{j}: overlap reductions are not isomorphic")
            full[(i, j)] = phi
    return full


def ambient_ends(piece, a) -> tuple:
    """(rng, dom) of arrow a as ambient units."""
    g, emb = piece.groupoid, piece.embedding
    return emb[g.rng[a]], emb[g.dom[a]]


def overlap_reference(pieces, i, j) -> list:
    """Arrows of piece i with both ambient endpoints over piece j."""
    over = set(pieces[j].embedding.values())
    return [a for a in pieces[i].groupoid.arrows if set(ambient_ends(pieces[i], a)) <= over]


def check_atlas_reference(x_units, pieces, phis=None) -> None:
    """Raise the AtlasError that GluingAtlas(x_units, pieces, phis).check()
    raises, for pieces that pass the structure certificate."""
    full = atlas_phis_reference(x_units, pieces, phis)
    for (i, j), phi in full.items():
        gi, gj = pieces[i].groupoid, pieces[j].groupoid
        if set(phi) != set(overlap_reference(pieces, i, j)):
            raise AtlasError(f"phi({i},{j}) domain is not the overlap reduction")
        if len(set(phi.values())) != len(phi):
            raise AtlasError(f"phi({i},{j}) is not injective")
        if set(phi.values()) != set(overlap_reference(pieces, j, i)):
            raise AtlasError(f"phi({i},{j}) image is not the overlap reduction")
        for a, b in phi.items():
            if ambient_ends(pieces[i], a) != ambient_ends(pieces[j], b):
                raise AtlasError(f"phi({i},{j}) does not cover the identity on units at {a!r}")
        pos = gi.arrow_index()
        for (a, b), ab in sorted(gi.compose.items(), key=lambda e: (pos[e[0][0]], pos[e[0][1]])):
            if a in phi and b in phi and gj.compose.get((phi[a], phi[b]), "none") != phi.get(ab, "off"):
                raise AtlasError(f"phi({i},{j}) is not multiplicative at ({a!r}, {b!r})")
    for (i, j), phi in full.items():
        if any(full[(j, i)][b] != a for a, b in phi.items()):
            raise AtlasError(f"phi({i},{j}) and phi({j},{i}) are not mutually inverse")
    for i, j, k in itertools.permutations(range(len(pieces)), 3):
        if {(i, j), (i, k), (j, k)} <= full.keys():
            for a in pieces[i].groupoid.arrows:
                if a in full[(i, j)] and a in full[(i, k)] and full[(j, k)].get(full[(i, j)][a]) != full[(i, k)][a]:
                    raise AtlasError(f"cocycle violated at arrow {a!r} of piece {i} (via piece {j} to piece {k})")


def quotient_classes_reference(atlas):
    """Union-find classes of (piece, arrow) under all phis, as (classes, index).

    Each class is a sorted member list headed by its canonical member
    (least piece, then least arrow position); classes are in the order
    of their canonical members.
    """
    parent: dict = {}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for i, piece in enumerate(atlas.pieces):
        for a in piece.groupoid.arrows:
            parent[(i, a)] = (i, a)
    arrows = atlas._union.arrows  # (piece, arrow id) of each arrow number
    for a, b in zip(atlas._src.tolist(), atlas._dst.tolist()):  # the phi entries, as arrow numbers
        rp, rq = find(arrows[a]), find(arrows[b])
        if rp != rq:
            parent[rp] = rq
    groups: dict = {}
    for p in parent:
        groups.setdefault(find(p), []).append(p)
    pos = {(i, a): k for i, piece in enumerate(atlas.pieces) for k, a in enumerate(piece.groupoid.arrows)}
    classes = sorted((sorted(ms, key=lambda p: (p[0], pos[p])) for ms in groups.values()),
                     key=lambda ms: (ms[0][0], pos[ms[0]]))
    index = {p: ci for ci, ms in enumerate(classes) for p in ms}
    return classes, index


def _class_endpoints(atlas, members):
    i, a = members[0]
    g, emb = atlas.pieces[i].groupoid, atlas.pieces[i].embedding
    return emb[g.dom[a]], emb[g.rng[a]]


def _composable_class_pairs(endpoints):
    by_rng: dict = {}
    for ci, (_d, r) in enumerate(endpoints):
        by_rng.setdefault(r, []).append(ci)
    for c1, (d1, _r1) in enumerate(endpoints):
        for c2 in by_rng.get(d1, ()):
            yield c1, c2


def weak_witness_reference(atlas):
    """The first composable class pair no single piece carries, or None."""
    classes, _ = quotient_classes_reference(atlas)
    pieces_of = [frozenset(i for (i, _a) in ms) for ms in classes]
    endpoints = [_class_endpoints(atlas, ms) for ms in classes]
    for c1, c2 in _composable_class_pairs(endpoints):
        if not (pieces_of[c1] & pieces_of[c2]):
            return classes[c1][0], classes[c2][0]
    return None


def strong_gluing_reference(atlas):
    """(ok, witness, chart choice, alternatives) of the strong condition,
    walking each unit's orbit in every piece that contains it."""
    piece_units = [p.embedded_units() for p in atlas.pieces]
    orbit_in_x = [{p.embedding[u]: frozenset(p.embedding[v] for v in orb) for orb in orbits_and_isotropy(
        p.groupoid, check=False).orbits for u in orb} for p in atlas.pieces]
    choice, alternatives = {}, {}
    for x in atlas.x_units:
        reach = set().union(*(orbit_in_x[i][x] for i in range(len(atlas.pieces)) if x in piece_units[i]))
        admissible = [i for i in range(len(atlas.pieces)) if reach <= piece_units[i]]
        if not admissible:
            offender = next(i for i in range(len(atlas.pieces)) if x in piece_units[i])
            return False, (x, offender, tuple(sorted(reach, key=repr))), None, None
        choice[x], alternatives[x] = admissible[0], tuple(admissible[1:])
    return True, None, choice, alternatives


def glue_reference(atlas) -> GluedGroupoid:
    """The glued groupoid and projections of an atlas (no atlas check)."""
    witness = weak_witness_reference(atlas)
    if witness is not None:
        raise GluingError(f"weak gluing condition fails at composable pair {witness}")
    classes, index = quotient_classes_reference(atlas)
    arrow_ids = [ms[0] for ms in classes]
    endpoints = [_class_endpoints(atlas, ms) for ms in classes]
    members_by_piece = [{i: a for (i, a) in ms} for ms in classes]
    units = atlas.x_units
    dom = {arrow_ids[ci]: endpoints[ci][0] for ci in range(len(classes))}
    rng = {arrow_ids[ci]: endpoints[ci][1] for ci in range(len(classes))}
    unit_arrow = {}
    for x in units:
        for i, piece in enumerate(atlas.pieces):
            inv_emb = {v: k for k, v in piece.embedding.items()}
            if x in inv_emb:
                unit_arrow[x] = arrow_ids[index[(i, piece.groupoid.unit_arrow[inv_emb[x]])]]
                break
    inverse = {}
    for ci, ms in enumerate(classes):
        i, a = ms[0]
        inverse[arrow_ids[ci]] = arrow_ids[index[(i, atlas.pieces[i].groupoid.inverse[a])]]
    compose = {}
    for c1, c2 in _composable_class_pairs(endpoints):
        results = set()
        for i in members_by_piece[c1]:
            if i in members_by_piece[c2]:
                prod = atlas.pieces[i].groupoid.compose.get((members_by_piece[c1][i], members_by_piece[c2][i]))
                if prod is None:
                    raise GluingError(f"piece {i} misses the product of a composable overlap pair")
                results.add(index[(i, prod)])
        if len(results) > 1:
            raise GluingError(f"product of classes {arrow_ids[c1]} and {arrow_ids[c2]} differs between pieces")
        compose[(arrow_ids[c1], arrow_ids[c2])] = arrow_ids[results.pop()]
    glued = FiniteGroupoid(units, arrow_ids, dom, rng, unit_arrow, inverse, compose)
    report = validate(glued)
    if not report.ok:
        raise GluingError(f"glued groupoid fails validation: {sorted(report.axioms())}")
    projections = tuple(
        {a: arrow_ids[index[(i, a)]] for a in piece.groupoid.arrows} for i, piece in enumerate(atlas.pieces)
    )
    for i, piece in enumerate(atlas.pieces):
        _check_projection_reference(glued, i, piece, projections[i])
    return GluedGroupoid(glued, atlas, projections)


def _check_projection_reference(glued, i, piece, proj):
    inside = piece.embedded_units()
    over = {a for a in glued.arrows if glued.dom[a] in inside and glued.rng[a] in inside}
    if len(set(proj.values())) != len(proj) or set(proj.values()) != over:
        raise GluingError(f"projection of piece {i} is not a bijection onto the reduction")
    g, emb = piece.groupoid, piece.embedding
    for a in g.arrows:
        if glued.dom[proj[a]] != emb[g.dom[a]] or glued.rng[proj[a]] != emb[g.rng[a]]:
            raise GluingError(f"projection of piece {i} breaks endpoints at {a!r}")
        if proj[g.inverse[a]] != glued.inverse[proj[a]]:
            raise GluingError(f"projection of piece {i} breaks inverses at {a!r}")
    for (a, b), k in g.compose.items():
        if glued.compose.get((proj[a], proj[b])) != proj[k]:
            raise GluingError(f"projection of piece {i} breaks products at ({a!r}, {b!r})")


def polygon_mesh_reference(domain, panels_per_half_edge: int) -> PolygonMesh:
    coords = _polygon_coords(domain)
    nodes, weights, normals, edge_of, dists = [], [], [], [], []
    n_edges = len(coords)
    m = panels_per_half_edge
    breaks = (np.arange(m + 1) / m) ** 3
    for e in range(n_edges):
        p, q = coords[e], coords[(e + 1) % n_edges]
        length = float(np.linalg.norm(q - p))
        direction = (q - p) / length
        inward = np.array([-direction[1], direction[0]])
        cuts = breaks * (0.5 * length)
        for j in range(2 * m):
            # the first half from p, the second its mirror image from q
            i = j if j < m else 2 * m - 1 - j
            s, vertex = 0.5 * (cuts[i] + cuts[i + 1]), (e if j < m else (e + 1) % n_edges)
            node = p + s * direction if j < m else q - s * direction
            nodes.append(node)
            weights.append(cuts[i + 1] - cuts[i])
            normals.append(inward)
            edge_of.append(e)
            dists.append(min(s if v == vertex else float(np.linalg.norm(node - coords[v]))
                             for v in range(n_edges)))
    return PolygonMesh(np.array(nodes), np.array(weights), np.array(normals), np.array(edge_of),
                       np.array(dists))


def double_layer_reference(mesh) -> np.ndarray:
    x = mesh.nodes
    diff = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(r2, 1.0)
    dot = np.einsum("ijk,jk->ij", diff, mesh.normals)
    kmat = dot / (2.0 * math.pi * r2)
    kmat[mesh.edge_of[:, None] == mesh.edge_of[None, :]] = 0.0
    return kmat * mesh.weights[None, :]


def nystrom_sigmas_reference(domain, levels, base_panels=4) -> list:
    sigmas = []
    for level in range(1, levels + 1):
        mesh = polygon_mesh_reference(domain, base_panels * 2 ** (level - 1))
        a = 0.5 * np.eye(len(mesh.nodes)) + double_layer_reference(mesh)
        d = np.sqrt(mesh.weights / mesh.vertex_distance)
        sigmas.append(float(np.linalg.svd((d[:, None] * a) / d[None, :], compute_uv=False)[-1]))
    return sigmas


def weighted_sigma_min_reference(a: np.ndarray, mesh) -> float:
    b, k = len(a), mesh.rotation_order
    d = np.sqrt(mesh.weights / mesh.vertex_distance)
    a *= d[:b, None]
    a /= d
    blocks = a.reshape(b, k, b)
    lam = math.inf
    for j in range(k // 2 + 1):
        omega = np.exp(2j * math.pi * (j * np.arange(k) % k) / k)
        f = np.einsum("arc,r->ac", blocks, omega.real if 2 * j % k == 0 else omega)
        lam = min(lam, float(np.linalg.eigvalsh(f.conj().T @ f)[0]))
    return math.sqrt(max(lam, 0.0))


def weighted_sigma_min_every_block_reference(a: np.ndarray, mesh) -> float:
    b, k = len(a), mesh.rotation_order
    d = np.sqrt(mesh.weights / mesh.vertex_distance)
    blocks = (a * d[:b, None] / d).reshape(b, k, 2 if mesh.reflection else 1, b)
    mirrored = blocks[:, :, 1, ::-1] if mesh.reflection else None
    lam = min(float(np.linalg.eigvalsh(_gram(_block(blocks[:, :, 0], mirrored, rho)))[0])
              for rho in _representations(k, mesh.reflection))
    return math.sqrt(max(lam, 0.0))


def polygon_symmetries_reference(domain, mesh, tol=1e-11) -> list:
    """Node permutations P (node i maps onto node P[i]), one per symmetry."""
    coords = _polygon_coords(domain)
    n, centre = len(coords), coords.mean(axis=0)
    x = coords - centre
    diameter = max(np.linalg.norm(p - q) for p in x for q in x)
    perms = []
    for sign in (1, -1):
        for c in range(n):
            y = x[[(sign * i + c) % n for i in range(n)]]
            # the orthogonal q with q x_i closest to y_i (Procrustes)
            u, _, vt = np.linalg.svd(y.T @ x)
            q = u @ vt
            if max(np.linalg.norm(q @ xi - yi) for xi, yi in zip(x, y)) > tol * diameter:
                continue
            moved = (mesh.nodes - centre) @ q.T + centre
            dist = np.linalg.norm(moved[:, None, :] - mesh.nodes[None, :, :], axis=2)
            perm = np.argmin(dist, axis=1)
            assert np.max(dist[np.arange(len(perm)), perm]) <= tol * diameter
            assert len(set(perm.tolist())) == len(perm)
            perms.append(perm)
    return perms


def group_matrix_reference(rows: np.ndarray, mesh, perms) -> np.ndarray:
    """The matrix A with A[P[i], P[j]] = A[i, j] for every P whose
    orbit-representative rows (the first nodes of the mesh) are ``rows``."""
    n = len(mesh.nodes)
    full = np.full((n, n), np.nan)
    for p in perms:
        full[np.ix_(p[: len(rows)], p)] = rows
    assert not np.isnan(full).any()
    return full


def kernel_samples_reference(kernel, ts) -> np.ndarray:
    k = kernel.size
    ts = np.asarray(ts, dtype=float).tolist()
    out = np.empty((len(ts), k * k), dtype=np.complex128)
    for s in range(0, len(ts), 1024):
        vals = np.asarray([kernel.fn(t) for t in ts[s : s + 1024]], dtype=np.complex128)
        if vals.shape[1:] != (k, k):
            raise MellinError(f"kernel {kernel.name!r} returned shape {vals.shape[1:]}")
        out[s : s + len(vals)] = vals.reshape(len(vals), k * k)
    return out.reshape(len(ts), k, k)


def log_line_samples_reference(kernel, weight, u) -> np.ndarray:
    out = kernel_samples_reference(kernel, np.exp(u)).reshape(len(u), -1)
    out *= np.exp(weight * u)[:, None]
    return out


def _flipped_decay_reference(d, weight) -> KernelDecay:
    return KernelDecay(p0=d.p_inf - 2.0 * weight, c0=d.c_inf, p_inf=d.p0 + 2.0 * weight, c_inf=d.c0)


def reflect_kernel_reference(kernel, weight) -> MellinKernel:
    def fn(t):
        return np.asarray(kernel.fn(1.0 / t)) * t ** (-2.0 * weight)

    decay = _flipped_decay_reference(kernel.decay, weight)
    return MellinKernel(kernel.vertex, kernel.size, fn, decay, f"reflected({kernel.name})")


def adjoint_kernel_reference(kernel, weight) -> MellinKernel:
    def fn(t):
        return np.conj(np.asarray(kernel.fn(1.0 / t))).T * t ** (-2.0 * weight)

    decay = _flipped_decay_reference(kernel.decay, weight)
    return MellinKernel(kernel.vertex, kernel.size, fn, decay, f"adjoint({kernel.name})")


_PHASE_ENTRIES = 2**17  # phase-matrix entries per lam block (2 MB)
_FINE = 64  # fine phase factors per coarse one


def trapezoid_reference(samples, lams: np.ndarray):
    entries = samples.g.shape[1]
    w = samples.g.copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    n_even = len(w[::2])
    padded = _FINE * -(-n_even // _FINE)
    weighted = np.zeros((padded, 2 * entries), dtype=np.complex128)
    weighted[:n_even, :entries] = w[::2]
    weighted[: n_even - 1, entries:] = w[1::2]
    h = samples.step
    coarse_u = samples.lo + 2.0 * h * _FINE * np.arange(len(weighted) // _FINE)
    fine_u = 2.0 * h * np.arange(_FINE)
    rows = max(1, _PHASE_ENTRIES // len(weighted))
    vals = np.empty((len(lams), entries), dtype=np.complex128)
    errs = np.empty(len(lams))
    for s in range(0, len(lams), rows):
        lam = lams[s : s + rows, None]
        phases = _cis(-lam * coarse_u)[:, :, None] * _cis(-lam * fine_u)[:, None, :]
        sums = phases.reshape(len(lam), -1) @ weighted
        even = sums[:, :entries]
        odd = sums[:, entries:] * _cis(-lam * h)
        vals[s : s + rows] = h * (even + odd)
        errs[s : s + rows] = h * np.max(np.abs(odd - even), axis=1)
    return vals, errs


def find_group_isomorphism_reference(a, b):
    """An isomorphism index map from group a to group b (a tuple), or None."""
    ta, tb = (tuple(map(tuple, t.table.tolist())) for t in (a, b))

    def element_order(table, identity, i):
        k, cur = 1, i
        while cur != identity:
            cur = table[cur][i]
            k += 1
        return k

    if a.order != b.order:
        return None
    if a.order > GROUP_ISO_SEARCH_CAP:
        raise GroupoidError(f"group isomorphism search capped at order {GROUP_ISO_SEARCH_CAP}")
    n = a.order
    orders_a = [element_order(ta, a.identity, i) for i in range(n)]
    orders_b = [element_order(tb, b.identity, i) for i in range(n)]
    if sorted(orders_a) != sorted(orders_b):
        return None
    mapping = [-1] * n
    used = [False] * n
    mapping[a.identity] = b.identity
    used[b.identity] = True

    def consistent():
        for i in range(n):
            if mapping[i] == -1:
                continue
            for j in range(n):
                if mapping[j] == -1:
                    continue
                k = ta[i][j]
                if mapping[k] != -1 and tb[mapping[i]][mapping[j]] != mapping[k]:
                    return False
        return True

    def extend(i):
        if i == n:
            return True
        if i == a.identity:
            return extend(i + 1)
        if mapping[i] != -1:
            return extend(i + 1)
        for j in range(n):
            if used[j] or orders_b[j] != orders_a[i]:
                continue
            mapping[i] = j
            used[j] = True
            if consistent() and extend(i + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    if extend(0):
        return tuple(mapping)
    return None
