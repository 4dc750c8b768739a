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
    OrbitBlockDecomposition,
    _invertible_stack,
    _solve_inverse_rows,
    block_decompose,
    matrix_invertible,
    regular_rep,
    solve_inverse,
)
from .groupoid import (
    FiniteGroupoid,
    as_unit_subset,
    is_invariant,
    orbits_and_isotropy,
    reduction,
    structure_witness,
    unit_mask,
)
from .iso import is_pair_over

FINITE_SCALE_NOTE = (
    "Fredholm-on-the-interior is rendered as invertibility modulo the "
    "interior ideal; on finite-dimensional spaces compact perturbations "
    "are trivial, so the quotient criterion carries the content"
)


class StructureError(ValueError):
    pass


@dataclass(eq=False)
class FredholmStructure:
    """A groupoid with a designated pair-groupoid interior.

    ``boundary_groupoid`` is the reduction to the boundary, built once;
    ``boundary_arrows`` are the indices of its arrows in the groupoid.
    Its orbit partition and orbit blocks are cached on it, and the limit
    operators, the criterion, the spectral check and the recognition all
    read them.  Density of the interior is vacuous at finite scale and
    recorded as a note rather than checked.
    """

    groupoid: FiniteGroupoid
    interior: frozenset
    boundary: frozenset
    interior_representative: object  # None when the interior is empty
    boundary_orbits: tuple
    boundary_representatives: tuple
    boundary_groupoid: FiniteGroupoid
    boundary_arrows: np.ndarray
    notes: tuple = (FINITE_SCALE_NOTE, "interior density is vacuous at finite scale")

    def restrict(self, a: AlgebraElement) -> AlgebraElement:
        """The image of a in the boundary algebra (the quotient by the interior ideal)."""
        if a.groupoid is not self.groupoid:
            raise StructureError("element belongs to a different groupoid")
        return AlgebraElement(self.boundary_groupoid, a.vec[self.boundary_arrows])


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
    outside = ~unit_mask(g, usub)
    return FredholmStructure(
        groupoid=g,
        interior=usub.members,
        boundary=boundary,
        interior_representative=next(iter(usub), None),
        boundary_orbits=orbits.orbits,
        boundary_representatives=orbits.representatives,
        boundary_groupoid=gf,
        boundary_arrows=np.flatnonzero(outside[g.dom_i] & outside[g.rng_i]),
    )


# ---------------------------------------------------------------------------
# limit operators


@dataclass
class LimitOperatorFamily:
    structure: FredholmStructure
    representatives: tuple
    matrices: dict  # representative unit -> regular-rep matrix
    fibers: dict  # representative unit -> arrow ids


def limit_operators(s: FredholmStructure, a: AlgebraElement) -> LimitOperatorFamily:
    """The family of boundary regular representations, one per orbit.

    They are the orbit blocks of the boundary algebra.  At a unit y in
    the orbit of the representative x, with transversal t_y : x -> y,
    g -> g t_y maps the d-fiber at y onto the one at x and
    (g t_y)(h t_y)^-1 = g h^-1 in Pair(orbit) x isotropy, so the regular
    representation at y is the one at x conjugated by that permutation.
    A boundary groupoid that fails the structure certificate raises.
    """
    if (witness := structure_witness(s.boundary_groupoid)) is not None:
        raise StructureError(f"boundary groupoid fails the structure certificate: {witness!r}")
    af, dec = s.restrict(a), block_decompose(s.boundary_groupoid)
    return LimitOperatorFamily(
        s, s.boundary_representatives,
        {blk.representative: m for blk, m in zip(dec.blocks, dec.matrices(af))},
        {blk.representative: blk.fiber for blk in dec.blocks},
    )


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


def _family_verdicts(dec: OrbitBlockDecomposition, rows: np.ndarray) -> list:
    """Per orbit block, whether 1 + the block of each row of coefficients is invertible."""
    return [_invertible_stack(np.eye(len(blk.fiber)) + rows[:, blk.index]) for blk in dec.blocks]


def fredholm_criterion(s: FredholmStructure, a: AlgebraElement) -> CriterionVerdict:
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
    af = s.restrict(a)
    if s.interior_representative is not None:
        m = regular_rep(a, s.interior_representative).matrix
        u_inv = matrix_invertible(np.eye(m.shape[0]) + m)
    else:
        u_inv = True
    dec = block_decompose(s.boundary_groupoid)
    verdicts = _family_verdicts(dec, af.vec[None])
    boundary = {blk.representative: bool(v[0]) for blk, v in zip(dec.blocks, verdicts)}
    # an empty boundary gives the zero quotient algebra, where 1 = 0 is invertible
    quotient = solve_inverse(_unitalized(af)) is not None
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


_TRIAL_CHUNK = 64  # trials per stacked call of the spectral check


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


def strictly_spectral_check(s: FredholmStructure, trials: int, seed: int) -> SpectralCheckReport:
    """Verdict-equivalence of algebra-invertibility and the boundary family.

    For random boundary elements b, compares invertibility of 1 + b in
    the boundary algebra (linear solve) with invertibility of all
    1 + pi_x(b) over boundary orbit representatives.  Both routes run as
    stacked calls over _TRIAL_CHUNK trials at a time, so memory does not
    grow with the trial count.  An empty boundary passes vacuously.
    """
    dec = block_decompose(s.boundary_groupoid)
    gf = dec.groupoid
    if gf.n_units == 0:
        return SpectralCheckReport(0, [], 0)
    rng, unit_vec = np.random.default_rng(seed), AlgebraElement.unit(gf).vec
    bad = []
    for lo in range(0, trials, _TRIAL_CHUNK):
        # the draws of random_element, one trial after another
        draws = rng.standard_normal((min(_TRIAL_CHUNK, trials - lo), 2, gf.n_arrows))
        b = draws[:, 0] + 1j * draws[:, 1]
        algebra_route = _solve_inverse_rows(gf, unit_vec + b)[0]
        family_route = np.all(_family_verdicts(dec, b), axis=0)
        for t in np.flatnonzero(algebra_route != family_route).tolist():
            bad.append({"trial": lo + t, "algebra": bool(algebra_route[t]),
                        "family": bool(family_route[t])})
    return SpectralCheckReport(trials, bad, len(s.boundary_orbits))


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
    is the orbit-coordinate map a -> (part, r(a), t_r^-1 a t_d, d(a)),
    verified by :func:`~gpdlab.groupoid.structure_witness`, whose witness
    is reported on failure instead of raising; ``arrow_map`` is then
    empty, and so is ``fibers`` unless the isotropy tables are groups.
    """
    gf = s.boundary_groupoid
    part, witness = orbits_and_isotropy(gf, check=False), structure_witness(gf)
    fibers = part.isotropy if part.isotropy_is_group.all() else ()
    units, orbit = gf.units, part.orbit_index[gf.dom_i]
    arrow_map = {} if witness else {
        a: (p, units[r], c, units[d]) for a, p, r, c, d in zip(
            gf.arrows, orbit.tolist(), gf.rng_i.tolist(), part.coordinates().tolist(), gf.dom_i.tolist())
    }
    return RecognitionReport(part.orbits, fibers, arrow_map, witness is None, witness)
