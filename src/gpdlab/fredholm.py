"""Finite-scale verification of the Fredholm characterization.

A structure designates an invariant unit subset whose reduction is a
pair groupoid (the interior) and the complementary boundary.  At finite
scale "Fredholm on the interior" is rendered as invertibility modulo
the ideal of arrows over the interior: every operator on a
finite-dimensional space is a compact perturbation of anything, so the
quotient criterion is where the characterization keeps content.  All
reports state this rendering explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import (
    AlgebraElement,
    DEFAULT_INVERTIBILITY_RTOL,
    convolve,
    left_multiplication_matrix,
    matrix_invertible,
    random_element,
    regular_rep,
    restrict_boundary,
    solve_inverse,
)
from .groupoid import (
    FiniteGroupoid,
    GroupTable,
    GroupoidError,
    UnitSubset,
    as_unit_subset,
    is_invariant,
    orbits_and_isotropy,
    reduction,
)
from .iso import is_pair_over

FINITE_SCALE_NOTE = (
    "Fredholm-on-the-interior is rendered as invertibility modulo the "
    "interior ideal; on finite-dimensional spaces compact perturbations "
    "are trivial, so the quotient criterion carries the content"
)


class StructureError(ValueError):
    pass


@dataclass
class FredholmStructure:
    """A groupoid with a designated pair-groupoid interior.

    Density of the interior is vacuous at finite scale and recorded as a
    note rather than checked.
    """

    groupoid: FiniteGroupoid
    interior: frozenset
    boundary: frozenset
    interior_representative: object  # None when the interior is empty
    boundary_orbits: tuple
    boundary_representatives: tuple
    notes: tuple = (FINITE_SCALE_NOTE, "interior density is vacuous at finite scale")


def make_structure(g: FiniteGroupoid, u) -> FredholmStructure:
    """Designate an invariant interior with pair-groupoid reduction."""
    usub = as_unit_subset(g, u)
    if not is_invariant(g, usub):
        raise StructureError("designated interior is not invariant")
    if not is_pair_over(g, usub):
        raise StructureError("reduction to the designated interior is not a pair groupoid")
    boundary = usub.complement().members
    gf = reduction(g, boundary)
    orbits = orbits_and_isotropy(gf, check=False)
    interior_units = [x for x in g.units if x in usub]
    return FredholmStructure(
        groupoid=g,
        interior=usub.members,
        boundary=boundary,
        interior_representative=interior_units[0] if interior_units else None,
        boundary_orbits=orbits.orbits,
        boundary_representatives=orbits.representatives,
    )


# ---------------------------------------------------------------------------
# limit operators


@dataclass
class LimitOperatorFamily:
    structure: FredholmStructure
    representatives: tuple
    matrices: dict  # representative unit -> regular-rep matrix
    fibers: dict  # representative unit -> arrow ids
    max_spectral_mismatch: float = 0.0


def _spectra_match(m1: np.ndarray, m2: np.ndarray) -> float:
    """Best-matching distance between two spectra (unitary invariance check)."""
    from scipy.optimize import linear_sum_assignment  # slow to import; only needed here

    if m1.shape != m2.shape:
        return np.inf
    if m1.size == 0:
        return 0.0
    e1 = np.linalg.eigvals(m1)
    e2 = np.linalg.eigvals(m2)
    cost = np.abs(e1[:, None] - e2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def limit_operators(
    s: FredholmStructure, a: AlgebraElement, check_spectra: bool = True, tol: float = 1e-10
) -> LimitOperatorFamily:
    """The family of boundary regular representations, one per orbit.

    With check_spectra, the matrices at all other units of each orbit are
    verified unitarily consistent through spectrum comparison.
    """
    if a.groupoid is not s.groupoid:
        raise StructureError("element belongs to a different groupoid")
    mats, fibers = {}, {}
    worst = 0.0
    for orbit, rep in zip(s.boundary_orbits, s.boundary_representatives):
        rr = regular_rep(a, rep)
        mats[rep] = rr.matrix
        fibers[rep] = rr.fiber
        if check_spectra:
            scale = 1.0 + float(np.abs(rr.matrix).max(initial=0.0))
            for y in orbit:
                if y == rep:
                    continue
                mism = _spectra_match(rr.matrix, regular_rep(a, y).matrix)
                worst = max(worst, mism)
                if mism > tol * scale:
                    raise StructureError(
                        f"regular representations at {rep!r} and {y!r} have "
                        f"mismatched spectra ({mism:.2e})"
                    )
    return LimitOperatorFamily(s, s.boundary_representatives, mats, fibers, worst)


# ---------------------------------------------------------------------------
# the criterion


@dataclass
class CriterionVerdict:
    u_invertible: bool
    boundary_invertible: dict
    quotient_invertible: bool
    equivalence_holds: bool
    is_fredholm: bool
    note: str = FINITE_SCALE_NOTE

    def as_dict(self) -> dict:
        return {
            "u_invertible": self.u_invertible,
            "boundary_invertible": {repr(k): v for k, v in self.boundary_invertible.items()},
            "quotient_invertible": self.quotient_invertible,
            "equivalence_holds": self.equivalence_holds,
            "is_fredholm": self.is_fredholm,
            "note": self.note,
        }


def _unitalized(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement.unit(a.groupoid) + a


def fredholm_criterion(
    s: FredholmStructure, a: AlgebraElement, rtol: float = DEFAULT_INVERTIBILITY_RTOL
) -> CriterionVerdict:
    """Evaluate the three invertibility verdicts for 1 + a.

    * interior: the regular representation at one interior unit;
    * boundary: the limit operators at the boundary orbit representatives
      (matrix route);
    * quotient: the image of 1 + a modulo the interior ideal, decided by
      solving for a two-sided inverse in the boundary algebra
      (algebra route).

    The finite-scale equivalence quotient <=> boundary is recorded in the
    verdict; is_fredholm is the quotient verdict.
    """
    if a.groupoid is not s.groupoid:
        raise StructureError("element belongs to a different groupoid")
    g = s.groupoid

    if s.interior_representative is not None:
        m = regular_rep(a, s.interior_representative).matrix
        u_inv = matrix_invertible(np.eye(m.shape[0]) + m, rtol)
    else:
        u_inv = True

    boundary = {}
    for rep in s.boundary_representatives:
        m = regular_rep(a, rep).matrix
        boundary[rep] = matrix_invertible(np.eye(m.shape[0]) + m, rtol)

    if s.boundary:
        af, _ = restrict_boundary(a, s.boundary, n_samples=0)
        quotient = solve_inverse(_unitalized(af), rtol) is not None
    else:
        quotient = True  # zero quotient algebra

    all_boundary = all(boundary.values())
    return CriterionVerdict(
        u_invertible=u_inv,
        boundary_invertible=boundary,
        quotient_invertible=quotient,
        equivalence_holds=quotient == all_boundary,
        is_fredholm=quotient,
    )


# ---------------------------------------------------------------------------
# strictly spectral / exhaustive family check


@dataclass
class SpectralCheckReport:
    trials: int
    counterexamples: list
    boundary_orbit_count: int
    note: str = (
        "route A: two-sided inverse solved in the boundary algebra; "
        "route B: invertibility of every boundary limit operator"
    )

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def strictly_spectral_check(
    s: FredholmStructure,
    trials: int,
    seed: int,
    rtol: float = DEFAULT_INVERTIBILITY_RTOL,
    hermitian: bool = False,
) -> SpectralCheckReport:
    """Verdict-equivalence of algebra-invertibility and the boundary family.

    For random boundary elements b, compares invertibility of 1 + b in
    the boundary algebra (linear solve) with invertibility of all
    1 + pi_x(b) over boundary orbit representatives.  An empty boundary
    passes vacuously.
    """
    gf = reduction(s.groupoid, s.boundary)
    if gf.n_units == 0:
        return SpectralCheckReport(0, [], 0)
    orbits = orbits_and_isotropy(gf, check=False)
    rng = np.random.default_rng(seed)
    bad = []
    for t in range(trials):
        b = random_element(gf, rng, hermitian=hermitian)
        e = _unitalized(b)
        algebra_route = solve_inverse(e, rtol) is not None
        family_route = all(
            matrix_invertible(
                np.eye(len(regular_rep(b, x).fiber)) + regular_rep(b, x).matrix, rtol
            )
            for x in orbits.representatives
        )
        if algebra_route != family_route:
            bad.append({"trial": t, "algebra": algebra_route, "family": family_route})
    return SpectralCheckReport(trials, bad, len(orbits.orbits))


# ---------------------------------------------------------------------------
# boundary recognition as a pulled-back group bundle


@dataclass
class RecognitionReport:
    parts: tuple  # per part: frozenset of boundary units
    fibers: tuple  # per part: GroupTable of the isotropy
    arrow_map: dict  # boundary arrow -> (part index, range unit, gamma index, dom unit)
    verified: bool
    witness: Optional[tuple] = None

    @property
    def part_sizes(self) -> tuple:
        return tuple(len(p) for p in self.parts)


def recognize_boundary_bundle(s: FredholmStructure) -> RecognitionReport:
    """Exhibit the boundary as a fibered pull-back of a group bundle.

    The base is the discrete set of boundary orbits; the fiber over a
    part is the isotropy group at its representative.  The isomorphism
    is the orbit-coordinate map: an arrow goes to its part, endpoints,
    and isotropy element t_r^-1 a t_d through the partition's
    transversal; multiplicativity is verified exhaustively and any
    failure is reported as a witness instead of raising.
    """
    gf = reduction(s.groupoid, s.boundary)
    part = orbits_and_isotropy(gf, check=False)
    parts, fibers = part.orbits, part.isotropy
    unspanned = part.orbit_index[part.transversal < 0]
    if len(unspanned):
        pi = int(unspanned.min())
        return RecognitionReport(
            parts, fibers[:pi + 1], {}, False, witness=(part.representatives[pi], "orbit not spanned")
        )
    coords = part.coordinates()
    stray = np.flatnonzero(coords < 0)
    if len(stray):
        return RecognitionReport(
            parts, fibers, {}, False, witness=(gf.arrows[stray[0]], "not in isotropy")
        )
    dom_i, rng_i = gf.dom_i, gf.rng_i
    orbit = part.orbit_index[dom_i]
    units = gf.units
    arrow_map = {
        a: (p, units[r], c, units[d])
        for a, p, r, c, d in zip(gf.arrows, orbit.tolist(), rng_i.tolist(), coords.tolist(), dom_i.tolist())
    }
    # bijectivity onto the pull-back model
    expected = sum(len(orb) ** 2 * iso.order for orb, iso in zip(parts, fibers))
    order = np.array([iso.order for iso in fibers], np.int64)
    keys = (rng_i * gf.n_units + dom_i) * int(order.max(initial=1)) + coords
    if len(np.unique(keys)) != gf.n_arrows or gf.n_arrows != expected:
        return RecognitionReport(parts, fibers, arrow_map, False, witness=("count", expected))
    # multiplicativity: image product law (z, gamma, y)(y, gamma', w) = (z, gamma gamma', w)
    p1, p2, pp = gf.p1, gf.p2, gf.pp
    joined = (
        (orbit[p1] == orbit[p2]) & (orbit[p1] == orbit[pp]) & (rng_i[pp] == rng_i[p1])
        & (dom_i[pp] == dom_i[p2]) & (dom_i[p1] == rng_i[p2])
    )
    start = np.concatenate(([0], np.cumsum(order ** 2)))
    tables = np.concatenate([np.zeros(0, np.int64)] + [np.ravel(iso.table) for iso in fibers])
    at = start[orbit[p1]] + coords[p1] * order[orbit[p1]] + coords[p2]
    product = tables[np.where(joined, at, 0)]
    bad = np.flatnonzero(~joined | (product != coords[pp]))
    if len(bad):
        i = bad[0]
        kind = "endpoints" if not joined[i] else "fiber product"
        return RecognitionReport(
            parts, fibers, arrow_map, False, witness=(gf.arrows[p1[i]], gf.arrows[p2[i]], kind)
        )
    return RecognitionReport(parts, fibers, arrow_map, True)
