"""Gluing groupoids over a common unit set.

An atlas is a family of groupoids over subsets of an ambient unit set,
with isomorphisms between overlap reductions satisfying the cocycle
law.  The glued groupoid is the quotient of the disjoint union by the
equivalence generated by those isomorphisms; it carries a well-defined
product exactly when every composable pair of quotient classes is
realised inside a single piece (the weak gluing condition).

Gluing runs on one index map: the quotient class of each arrow of the
disjoint union, numbered piece by piece, is the least number the phi
pairs join it to (the min-label propagation that finds orbits).  Every
piece's composable pairs, mapped through it, give the class products
that the weak condition, the product cross-check and the compose read.

Separation properties of the quotient topology are vacuous for finite
discrete unit sets, so they are recorded here rather than checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .groupoid import FiniteGroupoid, _id_array, _min_labels, orbits_and_isotropy, saturation, validate
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
        xidx = {x: k for k, x in enumerate(self.x_units)}
        # per piece: ambient unit index of each piece unit; arrow number offsets
        self._unit_maps = [
            np.array([xidx[emb[u]] for u in p.groupoid.units], np.int64)
            for p, emb in zip(self.pieces, self._embeds)
        ]
        self._offsets = np.cumsum([0] + [p.groupoid.n_arrows for p in self.pieces])
        # per piece i: ambient dom and rng of each arrow, and in row j of
        # _overlaps[i] the arrows with both endpoints over the (i, j) overlap
        covers = np.array([np.bincount(m, minlength=len(self.x_units)) > 0 for m in self._unit_maps])
        self._ends = [(m[p.groupoid.dom_i], m[p.groupoid.rng_i]) for m, p in zip(self._unit_maps, self.pieces)]
        self._overlaps = [covers[:, d] & covers[:, r] for d, r in self._ends]
        self.phis = self._complete_phis(given)
        self._checked = False

    # -- overlap machinery ----------------------------------------------------

    def overlap_arrows(self, i: int, j: int) -> list:
        """Arrows of piece i with both endpoints over the (i, j) overlap."""
        return list(itertools.compress(self.pieces[i].groupoid.arrows, self._overlaps[i][j].tolist()))

    def _complete_phis(self, given: dict) -> dict:
        phis = {}
        for i, j in itertools.permutations(range(len(self.pieces)), 2):
            if not self._overlaps[i][j].any():
                continue
            if (i, j) in given:
                phis[(i, j)] = dict(given[(i, j)])
            elif (j, i) in given:
                phis[(i, j)] = {v: k for k, v in given[(j, i)].items()}
            else:
                phis[(i, j)] = self._canonical_phi(i, j)
        return phis

    def _canonical_phi(self, i: int, j: int) -> dict:
        """Unique endpoint-respecting match, defined when hom sets are thin."""
        nx = len(self.x_units)

        def over(k, other):  # overlap arrows of piece k and their ambient (rng, dom) keys
            a = np.flatnonzero(self._overlaps[k][other])
            return a, self._ends[k][1][a] * nx + self._ends[k][0][a]

        a, key_a = over(i, j)
        b, key_b = over(j, i)
        target = dict(zip(key_b.tolist(), b.tolist()))
        if len(target) != len(b):
            raise AtlasError(f"pieces {i},{j}: overlap has parallel arrows; supply phi explicitly")
        image = [target.get(k, -1) for k in key_a.tolist()]
        if -1 in image:
            r, d = divmod(int(key_a[image.index(-1)]), nx)
            raise AtlasError(f"pieces {i},{j}: no matching arrow over {(self.x_units[r], self.x_units[d])}; "
                             "supply phi explicitly")
        if len(set(image)) != len(target):
            raise AtlasError(f"pieces {i},{j}: overlap reductions are not isomorphic")
        gi, gj = self.pieces[i].groupoid, self.pieces[j].groupoid
        return {gi.arrows[x]: gj.arrows[y] for x, y in zip(a.tolist(), image)}

    # -- invariants -------------------------------------------------------------

    def check(self):
        """Verify all atlas invariants; raises AtlasError on the first failure."""
        if self._checked:
            return
        to = {}  # per phi: arrow position in piece j of each arrow of piece i, -2 off the overlap
        for (i, j), phi in self.phis.items():
            gi, gj = self.pieces[i].groupoid, self.pieces[j].groupoid
            if set(phi) != set(self.overlap_arrows(i, j)):
                raise AtlasError(f"phi({i},{j}) domain is not the overlap reduction")
            if len(set(phi.values())) != len(phi):
                raise AtlasError(f"phi({i},{j}) is not injective")
            if set(phi.values()) != set(self.overlap_arrows(j, i)):
                raise AtlasError(f"phi({i},{j}) image is not the overlap reduction")
            src, dst = self._positions(i, phi), self._positions(j, phi.values())
            (di, ri), (dj, rj) = self._ends[i], self._ends[j]
            moved = (di[src] != dj[dst]) | (ri[src] != rj[dst])
            if moved.any():
                a = gi.arrows[src[np.argmax(moved)]]
                raise AtlasError(f"phi({i},{j}) does not cover the identity on units at {a!r}")
            t = to[(i, j)] = np.full(gi.n_arrows, -2, np.int64)
            t[src] = dst
            # multiplicative on the overlap reduction: first failure in row-major arrow order
            p1, p2, pp = gi.p1, gi.p2, gi.pp
            rows = np.flatnonzero((t[p1] >= 0) & (t[p2] >= 0))
            bad = rows[gj._mul_idx(t[p1[rows]], t[p2[rows]]) != t[pp[rows]]]
            if len(bad):
                k = bad[np.argmin(p1[bad] * gi.n_arrows + p2[bad])]
                raise AtlasError(
                    f"phi({i},{j}) is not multiplicative at ({gi.arrows[p1[k]]!r}, {gi.arrows[p2[k]]!r})"
                )
        for (i, j), t in to.items():
            if (j, i) not in to:
                raise AtlasError(f"phi({j},{i}) missing")
            a = np.flatnonzero(t >= 0)
            if (to[(j, i)][t[a]] != a).any():
                raise AtlasError(f"phi({i},{j}) and phi({j},{i}) are not mutually inverse")
        # cocycle law on triple overlaps: phi_jk phi_ij = phi_ik where both sides start
        for i, j, k in itertools.permutations(range(len(self.pieces)), 3):
            if {(i, j), (i, k), (j, k)} <= to.keys():
                tij, tik = to[(i, j)], to[(i, k)]
                bad = np.flatnonzero((tij >= 0) & (tik >= 0) & (to[(j, k)][np.maximum(tij, 0)] != tik))
                if len(bad):
                    raise AtlasError(
                        f"cocycle violated at arrow {self.pieces[i].groupoid.arrows[bad[0]]!r} of piece {i} "
                        f"(via piece {j} to piece {k})"
                    )
        self._checked = True

    # -- quotient classes --------------------------------------------------------

    def _positions(self, i: int, arrows) -> np.ndarray:
        index = self.pieces[i].groupoid.arrow_index()
        return np.fromiter(map(index.__getitem__, arrows), np.int64)

    def quotient_classes(self):
        """The quotient class of every arrow of the disjoint union.

        Arrow k of piece i has the number ``_offsets[i] + k``; the phi pairs
        join numbers.  Returns (canon, cls): canon, ascending, holds each
        class's least number, its canonical member (least piece, then least
        arrow position), and cls[n] is the class index of number n.
        """
        src = [self._offsets[i] + self._positions(i, phi) for (i, _j), phi in self.phis.items()]
        dst = [self._offsets[j] + self._positions(j, phi.values()) for (_i, j), phi in self.phis.items()]
        empty = [np.zeros(0, np.int64)]
        label = _min_labels(int(self._offsets[-1]), np.concatenate(src + empty), np.concatenate(dst + empty))
        return np.unique(label, return_inverse=True)

    def _union_arrays(self):
        """dom and rng (ambient unit index) and inverse (arrow number) of
        every arrow of the disjoint union, and per ambient unit the number
        of its unit arrow in the first piece that contains it."""
        rows = [(d, r, off + p.groupoid.inv_i, m, off + p.groupoid.unit_i)
                for (d, r), m, off, p in zip(self._ends, self._unit_maps, self._offsets, self.pieces)]
        dom, rng, inv, at, unit = map(np.concatenate, zip(*rows))
        return dom, rng, inv, unit[np.unique(at, return_index=True)[1]]

    def _arrow_ids(self, numbers) -> list:
        """(piece, arrow id) of each arrow number."""
        piece = np.searchsorted(self._offsets, numbers, side="right") - 1
        return [
            (i, self.pieces[i].groupoid.arrows[k])
            for i, k in zip(piece.tolist(), (numbers - self._offsets[piece]).tolist())
        ]


@dataclass
class GluingCheck:
    ok: bool
    witness: Optional[tuple] = None
    chart_choice: Optional[dict] = None
    alternatives: Optional[dict] = None


def _class_products(atlas: GluingAtlas, canon, cls, dom, rng):
    """The products that the pieces give to each composable class pair.

    The pairs (c1, c2) with dom c1 = rng c2 get one slot each, in (c1, c2)
    order, and every piece's composable slots are mapped onto them through
    the class map.  Returns (c1, c2, lo, hi, miss, witness): per slot the
    least and greatest product given (lo > hi where none is), the least
    piece that misses the product (the piece count where none does), and
    the first pair no piece carries, as canonical ids, or None.
    """
    nc, cdom, crng, npieces = len(canon), dom[canon], rng[canon], len(atlas.pieces)
    order = np.argsort(crng, kind="stable")
    start = np.searchsorted(crng[order], np.arange(len(atlas.x_units) + 1))
    pos = np.empty(nc, np.int64)
    pos[order] = np.arange(nc) - start[crng[order]]  # place of c2 among the classes ending at rng c2
    width = np.diff(start)[cdom]
    off = np.concatenate(([0], np.cumsum(width)))  # first slot of c1
    local = np.arange(off[-1]) - np.repeat(off[:-1], width)
    c1, c2 = np.repeat(np.arange(nc), width), order[np.repeat(start[cdom], width) + local]
    lo, hi = np.full(off[-1], nc, np.int64), np.full(off[-1], -1, np.int64)
    miss, carried = np.full(off[-1], npieces), np.zeros(off[-1], bool)
    for i, p in enumerate(atlas.pieces):
        g, base = p.groupoid, atlas._offsets[i]
        ft = g._fiber_table()
        a, b = ft.slot_pairs(np.arange(len(ft.table) - 1), g.dom_i)
        a, b, prod = cls[base + a], cls[base + b], ft.table[:-1]
        ok = cdom[a] == crng[b]  # composable classes (always, once the atlas is checked)
        slot, prod = off[a[ok]] + pos[b[ok]], prod[ok]
        carried[slot] = True
        miss[slot[(prod < 0) & (miss[slot] == npieces)]] = i
        slot, prod = slot[prod >= 0], cls[base + prod[prod >= 0]]
        np.minimum.at(lo, slot, prod)
        np.maximum.at(hi, slot, prod)
    first = np.flatnonzero(~carried)[:1]
    witness = tuple(atlas._arrow_ids(canon[[c1[first[0]], c2[first[0]]]])) if len(first) else None
    return c1, c2, lo, hi, miss, witness


def check_weak_gluing(atlas: GluingAtlas) -> GluingCheck:
    """Every composable pair of quotient classes is carried by one piece."""
    atlas.check()
    canon, cls = atlas.quotient_classes()
    dom, rng, _, _ = atlas._union_arrays()
    witness = _class_products(atlas, canon, cls, dom, rng)[-1]
    return GluingCheck(witness is None, witness=witness)


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
    cross-checked; disagreement (malformed phis) raises GluingError.  The
    pieces' caches are left as found: the result keeps the atlas alive.
    """
    saved = [dict(p.groupoid._cache) for p in atlas.pieces]
    try:
        return _glue(atlas)
    finally:
        for p, cache in zip(atlas.pieces, saved):
            p.groupoid._cache = cache


def _glue(atlas: GluingAtlas) -> GluedGroupoid:
    atlas.check()
    canon, cls = atlas.quotient_classes()
    dom, rng, inv, unit = atlas._union_arrays()
    ids = _id_array(atlas._arrow_ids(canon))
    glued = FiniteGroupoid._from_arrays(
        atlas.x_units, ids, dom[canon], rng[canon], cls[inv[canon]], cls[unit],
        *_glued_compose(atlas, canon, cls, dom, rng, ids),
    )
    report = validate(glued)
    if not report.ok:
        raise GluingError(f"glued groupoid fails validation: {sorted(report.axioms())}")

    projections = []
    for i, p in enumerate(atlas.pieces):
        proj = cls[atlas._offsets[i]:atlas._offsets[i + 1]]
        _check_projection(glued, i, p.groupoid, atlas._unit_maps[i], proj)
        projections.append(dict(zip(p.groupoid.arrows, ids[proj])))
    return GluedGroupoid(glued, atlas, tuple(projections))


def _glued_compose(atlas: GluingAtlas, canon, cls, dom, rng, ids):
    """Compose entries (c1, c2, c1 c2) of the glued groupoid in (c1, c2)
    order, once the weak condition holds and every common piece gives the
    same product."""
    c1, c2, lo, hi, miss, witness = _class_products(atlas, canon, cls, dom, rng)
    if witness is not None:
        raise GluingError(f"weak gluing condition fails at composable pair {witness}")
    bad = np.flatnonzero((miss < len(atlas.pieces)) | (lo != hi))
    if len(bad):
        if miss[bad[0]] < len(atlas.pieces):
            raise GluingError(f"piece {miss[bad[0]]} misses the product of a composable overlap pair")
        raise GluingError(f"product of classes {ids[c1[bad[0]]]} and {ids[c2[bad[0]]]} differs between pieces")
    return c1, c2, lo


def _check_projection(glued, i, g, umap, proj):
    """Each projection (piece arrow position -> glued arrow position) must
    be a groupoid isomorphism onto the reduction."""
    gdom, grng, ginv = glued.dom_i, glued.rng_i, glued.inv_i
    inside = np.zeros(glued.n_units, bool)
    inside[umap] = True
    image = np.unique(proj)
    if len(image) != len(proj) or not np.array_equal(image, np.flatnonzero(inside[gdom] & inside[grng])):
        raise GluingError(f"projection of piece {i} is not a bijection onto the reduction")
    dom_i, rng_i, inv_i = g.dom_i, g.rng_i, g.inv_i
    ends = (gdom[proj] != umap[dom_i]) | (grng[proj] != umap[rng_i])
    bad = np.flatnonzero(ends | (proj[inv_i] != ginv[proj]))
    if len(bad):
        what = "endpoints" if ends[bad[0]] else "inverses"
        raise GluingError(f"projection of piece {i} breaks {what} at {g.arrows[bad[0]]!r}")
    p1, p2, pp = g.p1, g.p2, g.pp
    bad = np.flatnonzero(glued._mul_idx(proj[p1], proj[p2]) != proj[pp])
    if len(bad):
        a, b = g.arrows[p1[bad[0]]], g.arrows[p2[bad[0]]]
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
