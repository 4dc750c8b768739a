"""Gluing groupoids over a common unit set.

An atlas is a family of groupoids over subsets of an ambient unit set,
with isomorphisms between overlap reductions satisfying the cocycle
law.  The glued groupoid is the quotient of the disjoint union by the
equivalence generated by those isomorphisms; it carries a well-defined
product exactly when every composable pair of quotient classes is
realised inside a single piece (the weak gluing condition).

Separation properties of the quotient topology are vacuous for finite
discrete unit sets, so they are recorded here rather than checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .groupoid import (
    FiniteGroupoid,
    GroupoidError,
    UnitSubset,
    as_unit_subset,
    orbits_and_isotropy,
    saturation,
    validate,
)
from .iso import is_pair_groupoid, is_pair_over


class AtlasError(ValueError):
    """Atlas invariants (embeddings, phi bijections, cocycle law) violated."""


class GluingError(ValueError):
    """Gluing is not defined (weak condition fails or products disagree)."""


@dataclass(frozen=True)
class GluingPiece:
    groupoid: FiniteGroupoid
    embedding: Mapping  # piece unit -> ambient unit

    def embedded_units(self) -> frozenset:
        return frozenset(self.embedding.values())


class GluingAtlas:
    """Pieces over subsets of an ambient unit set with overlap isomorphisms.

    ``phis[(i, j)]`` maps arrows of piece i with both endpoints over
    U_i & U_j to the corresponding arrows of piece j, covering the
    identity on ambient units.  Omitted pairs are derived canonically
    when the overlap reductions have at most one arrow between any two
    units (e.g. pair-groupoid pieces); otherwise they must be supplied.
    """

    def __init__(self, x_units, pieces, phis: Optional[dict] = None):
        self.x_units = tuple(x_units)
        self.pieces = tuple(pieces)
        given = dict(phis or {})
        self._embeds = []
        for idx, piece in enumerate(self.pieces):
            emb = dict(piece.embedding)
            if set(emb) != set(piece.groupoid.units):
                raise AtlasError(f"piece {idx}: embedding keys must be exactly the piece units")
            if len(set(emb.values())) != len(emb):
                raise AtlasError(f"piece {idx}: embedding is not injective")
            if not set(emb.values()) <= set(self.x_units):
                raise AtlasError(f"piece {idx}: embedding leaves the ambient unit set")
            self._embeds.append(emb)
        covered = set().union(*(set(e.values()) for e in self._embeds)) if self.pieces else set()
        if covered != set(self.x_units):
            raise AtlasError("pieces do not cover the ambient unit set")
        self.phis = self._complete_phis(given)
        self._checked = False

    # -- overlap machinery ----------------------------------------------------

    def overlap(self, i: int, j: int) -> frozenset:
        return frozenset(self._embeds[i].values()) & frozenset(self._embeds[j].values())

    def overlap_arrows(self, i: int, j: int) -> list:
        """Arrows of piece i with both endpoints over the (i, j) overlap."""
        ov = self.overlap(i, j)
        g = self.pieces[i].groupoid
        emb = self._embeds[i]
        return [
            a
            for a in g.arrows
            if emb[g.dom[a]] in ov and emb[g.rng[a]] in ov
        ]

    def _unit_of(self, i: int, piece_unit):
        return self._embeds[i][piece_unit]

    def _complete_phis(self, given: dict) -> dict:
        phis = {}
        n = len(self.pieces)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                arrows_i = self.overlap_arrows(i, j)
                if not arrows_i:
                    continue
                if (i, j) in given:
                    phis[(i, j)] = dict(given[(i, j)])
                elif (j, i) in given:
                    phis[(i, j)] = {v: k for k, v in given[(j, i)].items()}
                else:
                    phis[(i, j)] = self._canonical_phi(i, j, arrows_i)
        return phis

    def _canonical_phi(self, i: int, j: int, arrows_i) -> dict:
        """Unique endpoint-respecting match, defined when hom sets are thin."""
        gj = self.pieces[j].groupoid
        emb_j_inv = {v: k for k, v in self._embeds[j].items()}
        ov = self.overlap(i, j)
        target: dict = {}
        for b in gj.arrows:
            dx, rx = self._embeds[j][gj.dom[b]], self._embeds[j][gj.rng[b]]
            if dx in ov and rx in ov:
                if (rx, dx) in target:
                    raise AtlasError(
                        f"pieces {i},{j}: overlap has parallel arrows; supply phi explicitly"
                    )
                target[(rx, dx)] = b
        gi = self.pieces[i].groupoid
        phi = {}
        for a in arrows_i:
            key = (self._embeds[i][gi.rng[a]], self._embeds[i][gi.dom[a]])
            if key not in target:
                raise AtlasError(
                    f"pieces {i},{j}: no matching arrow over {key}; supply phi explicitly"
                )
            phi[a] = target[key]
        if len(set(phi.values())) != len(target):
            raise AtlasError(f"pieces {i},{j}: overlap reductions are not isomorphic")
        return phi

    # -- invariants -------------------------------------------------------------

    def check(self):
        """Verify all atlas invariants; raises AtlasError on the first failure."""
        if self._checked:
            return
        n = len(self.pieces)
        for (i, j), phi in self.phis.items():
            gi, gj = self.pieces[i].groupoid, self.pieces[j].groupoid
            arrows_i = set(self.overlap_arrows(i, j))
            if set(phi) != arrows_i:
                raise AtlasError(f"phi({i},{j}) domain is not the overlap reduction")
            if len(set(phi.values())) != len(phi):
                raise AtlasError(f"phi({i},{j}) is not injective")
            if set(phi.values()) != set(self.overlap_arrows(j, i)):
                raise AtlasError(f"phi({i},{j}) image is not the overlap reduction")
            for a, b in phi.items():
                if self._unit_of(i, gi.dom[a]) != self._unit_of(j, gj.dom[b]) or self._unit_of(
                    i, gi.rng[a]
                ) != self._unit_of(j, gj.rng[b]):
                    raise AtlasError(f"phi({i},{j}) does not cover the identity on units at {a!r}")
            # multiplicative on the overlap reduction
            for a in arrows_i:
                for b in arrows_i:
                    k = gi.compose.get((a, b))
                    if k is None:
                        continue
                    if gj.compose.get((phi[a], phi[b])) != phi[k]:
                        raise AtlasError(f"phi({i},{j}) is not multiplicative at ({a!r}, {b!r})")
        for (i, j), phi in self.phis.items():
            back = self.phis.get((j, i))
            if back is None:
                raise AtlasError(f"phi({j},{i}) missing")
            for a, b in phi.items():
                if back.get(b) != a:
                    raise AtlasError(f"phi({i},{j}) and phi({j},{i}) are not mutually inverse")
        # cocycle law on triple overlaps
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) != 3:
                        continue
                    pik = self.phis.get((i, k))
                    pij = self.phis.get((i, j))
                    pjk = self.phis.get((j, k))
                    if pik is None or pij is None or pjk is None:
                        continue
                    gi = self.pieces[i].groupoid
                    triple = self.overlap(i, j) & self.overlap(i, k)
                    emb = self._embeds[i]
                    for a in self.overlap_arrows(i, j):
                        if emb[gi.dom[a]] in triple and emb[gi.rng[a]] in triple:
                            if pjk.get(pij[a]) != pik.get(a):
                                raise AtlasError(
                                    f"cocycle violated at arrow {a!r} of piece {i} "
                                    f"(via piece {j} to piece {k})"
                                )
        self._checked = True

    # -- quotient classes --------------------------------------------------------

    def quotient_classes(self):
        """Union-find classes of (piece, arrow) under all phis.

        Returns (classes, index): classes is a list of member lists,
        each sorted and headed by its canonical representative
        (least piece index, then least arrow position); index maps
        (piece, arrow) -> class number.
        """
        parent: dict = {}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        def union(p, q):
            rp, rq = find(p), find(q)
            if rp != rq:
                parent[rp] = rq

        for i, piece in enumerate(self.pieces):
            for a in piece.groupoid.arrows:
                parent[(i, a)] = (i, a)
        for (i, j), phi in self.phis.items():
            for a, b in phi.items():
                union((i, a), (j, b))

        groups: dict = {}
        for p in parent:
            groups.setdefault(find(p), []).append(p)
        pos = {
            (i, a): k
            for i, piece in enumerate(self.pieces)
            for k, a in enumerate(piece.groupoid.arrows)
        }
        classes = []
        for members in groups.values():
            members.sort(key=lambda p: (p[0], pos[p]))
            classes.append(members)
        classes.sort(key=lambda ms: (ms[0][0], pos[ms[0]]))
        index = {p: ci for ci, ms in enumerate(classes) for p in ms}
        return classes, index


@dataclass
class GluingCheck:
    ok: bool
    witness: Optional[tuple] = None
    chart_choice: Optional[dict] = None
    alternatives: Optional[dict] = None


def _class_endpoints(atlas: GluingAtlas, members):
    i, a = members[0]
    g = atlas.pieces[i].groupoid
    return atlas._unit_of(i, g.dom[a]), atlas._unit_of(i, g.rng[a])


def check_weak_gluing(atlas: GluingAtlas) -> GluingCheck:
    """Every composable pair of quotient classes is carried by one piece."""
    atlas.check()
    classes, _ = atlas.quotient_classes()
    pieces_of = [frozenset(i for (i, _a) in ms) for ms in classes]
    endpoints = [_class_endpoints(atlas, ms) for ms in classes]
    by_rng: dict = {}
    for ci, (_d, r) in enumerate(endpoints):
        by_rng.setdefault(r, []).append(ci)
    for c1, (d1, _r1) in enumerate(endpoints):
        for c2 in by_rng.get(d1, ()):
            if not (pieces_of[c1] & pieces_of[c2]):
                return GluingCheck(False, witness=(classes[c1][0], classes[c2][0]))
    return GluingCheck(True)


def check_strong_gluing(atlas: GluingAtlas) -> GluingCheck:
    """Each ambient unit has a chart containing all its piece-orbits.

    Returns the least admissible chart index per unit, with any
    alternative indices listed.  When this check passes, the weak
    condition is asserted as well.
    """
    atlas.check()
    piece_units = [p.embedded_units() for p in atlas.pieces]
    orbit_in_x: list = []
    for i, piece in enumerate(atlas.pieces):
        orbs = orbits_and_isotropy(piece.groupoid, check=False).orbits
        emb = atlas._embeds[i]
        orbit_in_x.append({emb[u]: frozenset(emb[v] for v in orb) for orb in orbs for u in orb})
    choice, alternatives = {}, {}
    for x in atlas.x_units:
        reach = set()
        for i in range(len(atlas.pieces)):
            if x in piece_units[i]:
                reach |= orbit_in_x[i][x]
        admissible = [i for i in range(len(atlas.pieces)) if reach <= piece_units[i]]
        if not admissible:
            offender = next(i for i in range(len(atlas.pieces)) if x in piece_units[i])
            return GluingCheck(False, witness=(x, offender, tuple(sorted(reach, key=repr))))
        choice[x] = admissible[0]
        alternatives[x] = tuple(admissible[1:])
    weak = check_weak_gluing(atlas)
    if not weak.ok:
        raise AssertionError("strong gluing held but weak gluing failed; atlas machinery is broken")
    return GluingCheck(True, chart_choice=choice, alternatives=alternatives)


@dataclass
class GluedGroupoid:
    """Quotient groupoid of an atlas with the per-piece projections."""

    groupoid: FiniteGroupoid
    atlas: GluingAtlas
    projections: tuple  # per piece: dict piece-arrow -> glued arrow id


def glue(atlas: GluingAtlas) -> GluedGroupoid:
    """Glue the atlas; defined when the weak gluing condition holds.

    The product of two classes is computed inside every common piece and
    cross-checked; disagreement (malformed phis) raises GluingError.
    """
    weak = check_weak_gluing(atlas)
    if not weak.ok:
        raise GluingError(f"weak gluing condition fails at composable pair {weak.witness}")
    classes, index = atlas.quotient_classes()
    arrow_ids = [members[0] for members in classes]  # canonical (piece, arrow)
    endpoints = [_class_endpoints(atlas, ms) for ms in classes]

    members_by_piece = []
    for ci, ms in enumerate(classes):
        members_by_piece.append({i: a for (i, a) in ms})

    units = atlas.x_units
    dom = {arrow_ids[ci]: endpoints[ci][0] for ci in range(len(classes))}
    rng = {arrow_ids[ci]: endpoints[ci][1] for ci in range(len(classes))}

    unit_arrow = {}
    for x in units:
        for i, piece in enumerate(atlas.pieces):
            inv_emb = {v: k for k, v in atlas._embeds[i].items()}
            if x in inv_emb:
                ua = piece.groupoid.unit_arrow[inv_emb[x]]
                unit_arrow[x] = arrow_ids[index[(i, ua)]]
                break

    inverse = {}
    for ci, ms in enumerate(classes):
        i, a = ms[0]
        inverse[arrow_ids[ci]] = arrow_ids[index[(i, atlas.pieces[i].groupoid.inverse[a])]]

    compose = {}
    by_rng: dict = {}
    for ci, (_d, r) in enumerate(endpoints):
        by_rng.setdefault(r, []).append(ci)
    for c1, (d1, _r1) in enumerate(endpoints):
        for c2 in by_rng.get(d1, ()):
            results = set()
            for i in members_by_piece[c1]:
                if i in members_by_piece[c2]:
                    g = atlas.pieces[i].groupoid
                    prod = g.compose.get((members_by_piece[c1][i], members_by_piece[c2][i]))
                    if prod is None:
                        raise GluingError(
                            f"piece {i} misses the product of a composable overlap pair"
                        )
                    results.add(index[(i, prod)])
            if not results:
                raise GluingError("weak condition bookkeeping failed")
            if len(results) > 1:
                raise GluingError(
                    f"product of classes {arrow_ids[c1]} and {arrow_ids[c2]} "
                    f"differs between pieces"
                )
            compose[(arrow_ids[c1], arrow_ids[c2])] = arrow_ids[results.pop()]

    glued = FiniteGroupoid(units, arrow_ids, dom, rng, unit_arrow, inverse, compose)
    report = validate(glued)
    if not report.ok:
        raise GluingError(f"glued groupoid fails validation: {sorted(report.axioms())}")

    projections = tuple(
        {a: arrow_ids[index[(i, a)]] for a in piece.groupoid.arrows}
        for i, piece in enumerate(atlas.pieces)
    )
    for i, piece in enumerate(atlas.pieces):
        _check_projection(atlas, glued, i, piece, projections[i])
    return GluedGroupoid(glued, atlas, projections)


def _check_projection(atlas, glued, i, piece, proj):
    """Each projection must be a groupoid isomorphism onto the reduction."""
    inside = piece.embedded_units()
    over = {a for a in glued.arrows if glued.dom[a] in inside and glued.rng[a] in inside}
    if len(set(proj.values())) != len(proj) or set(proj.values()) != over:
        raise GluingError(f"projection of piece {i} is not a bijection onto the reduction")
    g = piece.groupoid
    emb = atlas._embeds[i]
    for a in g.arrows:
        if glued.dom[proj[a]] != emb[g.dom[a]] or glued.rng[proj[a]] != emb[g.rng[a]]:
            raise GluingError(f"projection of piece {i} breaks endpoints at {a!r}")
        if proj[g.inverse[a]] != glued.inverse[proj[a]]:
            raise GluingError(f"projection of piece {i} breaks inverses at {a!r}")
    for (a, b), k in g.compose.items():
        if glued.compose.get((proj[a], proj[b])) != proj[k]:
            raise GluingError(f"projection of piece {i} breaks products at ({a!r}, {b!r})")


def attach_ends(pairpiece: FiniteGroupoid, boundarypiece: FiniteGroupoid) -> GluedGroupoid:
    """Glue a pair groupoid over U with an end piece over V.

    Requires U u V to be glued over an overlap on which the end piece
    restricts to a pair groupoid with no arrows leaving the overlap;
    the result has U as a single orbit and all other orbits inside V-U.
    """
    if not is_pair_groupoid(pairpiece):
        raise GluingError("first piece must be a pair groupoid over its units")
    u_units = tuple(pairpiece.units)
    v_units = tuple(boundarypiece.units)
    overlap = frozenset(u_units) & frozenset(v_units)
    if not is_pair_over(boundarypiece, overlap):
        raise GluingError("end piece does not restrict to a pair groupoid on the overlap")
    if saturation(boundarypiece, overlap).members != overlap:
        raise GluingError("overlap is not invariant in the end piece")
    x_units = u_units + tuple(v for v in v_units if v not in overlap)
    atlas = GluingAtlas(
        x_units,
        [
            GluingPiece(pairpiece, {x: x for x in u_units}),
            GluingPiece(boundarypiece, {x: x for x in v_units}),
        ],
    )
    glued = glue(atlas)
    orbits = orbits_and_isotropy(glued.groupoid, check=False).orbits
    if u_units:
        u_orbit = next(orb for orb in orbits if u_units[0] in orb)
        if u_orbit != frozenset(u_units) | overlap:
            raise GluingError("glued groupoid does not have the expected dense orbit")
        for orb in orbits:
            if orb != u_orbit and orb & frozenset(u_units):
                raise GluingError("an end orbit leaks into the pair part")
    return glued
