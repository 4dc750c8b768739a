"""Gluing groupoids over a common unit set.

An atlas is a family of groupoids over subsets of an ambient unit set,
with isomorphisms between overlap reductions satisfying the cocycle
law.  The glued groupoid is the quotient of the disjoint union by the
equivalence generated by those isomorphisms; it carries a well-defined
product exactly when every composable pair of quotient classes is
realised inside a single piece (the weak gluing condition).

Everything runs on one index map: the quotient class of each arrow of
the pieces' disjoint union is the least arrow number the phis join it
to, computed once per atlas.  The classes decide the atlas laws: once
every phi passes its local checks, the cocycle law and mutual inverses
hold exactly when no class holds two arrows of one piece; the pairs and
triples of pieces are walked only to name a failure.  The class map also
gives the class products that the weak condition and the compose read.

Separation properties of the quotient topology are vacuous for finite
discrete unit sets, so they are recorded here rather than checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .groupoid import (FiniteGroupoid, _id_array, _min_labels, build_disjoint_union, orbits_and_isotropy,
                       saturation, validate)
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

    phi_ij maps the arrows of piece i with both endpoints over U_i & U_j
    onto the corresponding arrows of piece j, covering the identity on
    ambient units.  The phis are index arrays over the pieces' disjoint
    union, where arrow k of piece i is number ``_offsets[i] + k``: edge e
    of phi_ij maps ``_src[e]`` to ``_dst[e]``, and ``_pair[e]`` = i * P + j
    (an id a piece lacks gets a negative number).  Given id maps are
    converted once, here; a map given only for (j, i) is inverted.  The
    other overlapping pairs are matched by ambient endpoints.
    """

    def __init__(self, x_units, pieces, phis: Optional[dict] = None):
        self.x_units = tuple(x_units)
        self.pieces = tuple(pieces)
        given, npieces = dict(phis or {}), len(self.pieces)
        for idx, piece in enumerate(self.pieces):
            emb = dict(piece.embedding)
            if set(emb) != set(piece.groupoid.units):
                raise AtlasError(f"piece {idx}: embedding keys must be exactly the piece units")
            if len(set(emb.values())) != len(emb):
                raise AtlasError(f"piece {idx}: embedding is not injective")
            if not set(emb.values()) <= set(self.x_units):
                raise AtlasError(f"piece {idx}: embedding leaves the ambient unit set")
        if set().union(*(p.embedded_units() for p in self.pieces)) != set(self.x_units):
            raise AtlasError("pieces do not cover the ambient unit set")
        # the pieces' disjoint union: the ambient unit of each unit; per arrow number its piece,
        # ambient dom and rng, and in _over[j] if it lies over another piece j; _sizes[i, j] of those in i
        self._union = build_disjoint_union(p.groupoid for p in self.pieces)
        xidx = {x: k for k, x in enumerate(self.x_units)}
        self._units = np.array([xidx[p.embedding[u]] for p in self.pieces for u in p.groupoid.units], np.int64)
        self._offsets = np.cumsum([0] + [p.groupoid.n_arrows for p in self.pieces])
        self._piece = np.repeat(np.arange(npieces), np.diff(self._offsets))
        self._dom, self._rng = self._units[self._union.dom_i], self._units[self._union.rng_i]
        self._covers = np.zeros((npieces, len(self.x_units)), bool)
        unit_piece = np.repeat(np.arange(npieces), [p.groupoid.n_units for p in self.pieces])
        self._covers[unit_piece, self._units] = True
        mine = self._piece == np.arange(npieces)[:, None]
        self._over = self._covers[:, self._dom] & self._covers[:, self._rng] & ~mine
        self._sizes = mine.astype(np.int64) @ self._over.T
        derived = self._sizes > 0  # the pairs whose phi is matched by endpoints
        for i, j in given:
            if not (0 <= i < npieces and 0 <= j < npieces):
                raise AtlasError(f"phi({i},{j}) names a piece out of range")
            if i == j:
                raise AtlasError(f"phi({i},{j}) maps a piece to itself")
            if not self._sizes[i, j]:
                raise AtlasError(f"phi({i},{j}) joins pieces that do not overlap")
            derived[i, j] = derived[j, i] = False
        edges, unknown = [self._matched_phis(derived)], {}  # unknown: an id a piece lacks -> its number
        for i, j in np.argwhere((self._sizes > 0) & ~derived).tolist():
            phi = given[(i, j)] if (i, j) in given else {v: k for k, v in given[(j, i)].items()}
            index = self._union.arrow_index()  # (piece, arrow id) -> arrow number
            src, dst = (np.array([index[(p, a)] if (p, a) in index else unknown.setdefault(a, -1 - len(unknown))
                                  for a in ids], np.int64) for p, ids in ((i, phi.keys()), (j, phi.values())))
            edges.append((np.full(len(phi), i * npieces + j), src, dst))
        pair, src, dst = map(np.concatenate, zip(*edges))
        order = np.argsort(pair, kind="stable")
        self._pair, self._src, self._dst = pair[order], src[order], dst[order]
        self._checked, self._classes = False, None

    def _matched_phis(self, need):
        """The edges (pair code, src, dst) of the phis of the pairs (i, j)
        where need[i, j], matched in one sort-join on ambient (rng, dom):
        each key over both pieces must hold at most one arrow of each, and
        one of piece i exactly when one of piece j."""
        keys, key = np.unique(self._rng * len(self.x_units) + self._dom, return_inverse=True)
        count = np.zeros((len(need), len(keys)), np.int64)  # the arrows of each piece at each key
        np.add.at(count, (self._piece, key), 1)
        n, j = np.nonzero(need[self._piece] & self._over.T)  # arrow n of piece i over piece j
        code = self._piece[n] * len(need) + j
        lone = count[j, key[n]] == 0  # piece j has no arrow at n's key
        twin, miss = (np.bincount(code[f], minlength=need.size).reshape(need.shape) > 0
                      for f in (count[self._piece[n], key[n]] > 1, lone))
        bad = np.argwhere(twin.T | miss | miss.T).tolist()
        if bad:
            i, j = bad[0]
            if twin[j, i]:
                raise AtlasError(f"pieces {i},{j}: overlap has parallel arrows; supply phi explicitly")
            if miss[i, j]:
                a = n[(code == i * len(need) + j) & lone][0]
                over = (self.x_units[self._rng[a]], self.x_units[self._dom[a]])
                raise AtlasError(f"pieces {i},{j}: no matching arrow over {over}; supply phi explicitly")
            raise AtlasError(f"pieces {i},{j}: overlap reductions are not isomorphic")
        at = np.zeros(count.shape, np.int64)
        at[self._piece, key] = np.arange(len(key))  # the arrow of each piece at each key, where it is alone
        return code, n, at[j, key[n]]

    # -- invariants -------------------------------------------------------------

    def check(self):
        """Verify all atlas invariants; raises AtlasError on the first failure.

        The local checks run over the edge list at once; then the quotient
        classes decide the cocycle law and mutual inverses together.
        """
        if self._checked:
            return
        fault = self._local_fault()
        classes = self.quotient_classes()[1] * len(self.pieces) + self._piece  # class and piece of each arrow
        if fault is None and len(np.unique(classes)) < len(classes):
            fault = self._law_witness()
        if fault is not None:
            raise AtlasError(fault)
        self._checked = True

    def _local_fault(self) -> Optional[str]:
        """The first local fault: of the first failing phi in pair order, the
        first failing test of domain, injective, image, units and products."""
        npieces, g, pair, src, dst = len(self.pieces), self._union, self._pair, self._src, self._dst
        s, d = np.maximum(src, 0), np.maximum(dst, 0)
        moved = (src >= 0) & (dst >= 0) & ((self._dom[s] != self._dom[d]) | (self._rng[s] != self._rng[d]))
        # every composable (a, b) of a piece i over another piece j, through phi_ij
        j, r = np.nonzero(self._over[:, g.p1] & self._over[:, g.p2])
        a, b, ab = g.p1[r], g.p2[r], g.pp[r]
        code = self._piece[a] * npieces + j
        x, y, z = self._image(np.tile(code, 3), np.concatenate([a, b, ab])).reshape(3, -1)
        on = np.flatnonzero((x >= 0) & (y >= 0))
        wrong = on[g._mul_idx(x[on], y[on]) != z[on]]
        # (pair code, test) of every fault; per pair code its entries, distinct images, |O_ij| and |O_ji|
        every, entries = np.arange(npieces ** 2), np.bincount(pair, minlength=npieces ** 2)
        distinct = np.bincount(np.unique(np.stack([pair, dst]), axis=1)[0], minlength=npieces ** 2)
        size, back = self._sizes.ravel(), self._sizes.T.ravel()
        faults = np.concatenate([5 * c + test for c, test in [
            (pair[(src < 0) | ~self._over[pair % npieces, s]], 0), (every[entries != size], 0),
            (every[distinct < entries], 1),
            (pair[(dst < 0) | ~self._over[pair // npieces, d]], 2), (every[entries != back], 2),
            (pair[moved], 3), (code[wrong], 4)]])
        if not len(faults):
            return None
        c, test = divmod(int(faults.min()), 5)
        phi, name = "phi({},{})".format(*divmod(c, npieces)), lambda k: repr(g.arrows[k][1])
        if test == 3:
            return f"{phi} does not cover the identity on units at {name(src[moved & (pair == c)][0])}"
        if test == 4:
            a, b = (e[wrong][code[wrong] == c] for e in (a, b))
            k = np.argmin(a * len(g.arrows) + b)
            return f"{phi} is not multiplicative at ({name(a[k])}, {name(b[k])})"
        return f"{phi} " + ("domain is not the overlap reduction", "is not injective",
                            "image is not the overlap reduction")[test]

    def _image(self, code, numbers) -> np.ndarray:
        """The image of each arrow number under the phi of its pair code, -2
        where that phi does not map it."""
        n, known = len(self._piece), (self._src >= 0) & (self._dst >= 0)
        key = self._pair[known] * n + self._src[known]
        order = np.argsort(key)
        key, value = np.append(key[order], np.iinfo(np.int64).max), np.append(self._dst[known][order], -2)
        at = np.searchsorted(key, code * n + numbers)
        return np.where(key[at] == code * n + numbers, value[at], -2)

    def _law_witness(self) -> str:
        """The first pair of phis that are not mutually inverse, else the
        first arrow where the cocycle law fails."""
        to = {}  # per phi: the image of every arrow number, -2 off its domain
        for c in np.unique(self._pair).tolist():
            t = to[divmod(c, len(self.pieces))] = np.full(len(self._piece), -2, np.int64)
            t[self._src[self._pair == c]] = self._dst[self._pair == c]
        for (i, j), t in to.items():
            if (to[(j, i)][t[t >= 0]] != np.flatnonzero(t >= 0)).any():
                return f"phi({i},{j}) and phi({j},{i}) are not mutually inverse"
        # cocycle law on triple overlaps: phi_jk phi_ij = phi_ik where both sides start
        for i, j, k in itertools.permutations(range(len(self.pieces)), 3):
            if {(i, j), (i, k), (j, k)} <= to.keys():
                tij, tik = to[(i, j)], to[(i, k)]
                bad = np.flatnonzero((tij >= 0) & (tik >= 0) & (to[(j, k)][np.maximum(tij, 0)] != tik))
                if len(bad):
                    return (f"cocycle violated at arrow {self._union.arrows[bad[0]][1]!r} of piece {i} "
                            f"(via piece {j} to piece {k})")
        raise AssertionError("a quotient class holds two arrows of one piece, yet no law fails")

    # -- quotient classes --------------------------------------------------------

    def quotient_classes(self):
        """The quotient class of every arrow number, computed once per atlas.

        Returns (canon, cls): canon, ascending, holds each class's least
        number, its canonical member (least piece, then least arrow
        position), and cls[n] is the class index of number n.
        """
        if self._classes is None:
            known = (self._src >= 0) & (self._dst >= 0)
            label = _min_labels(len(self._piece), self._src[known], self._dst[known])
            self._classes = np.unique(label, return_inverse=True)
        return self._classes


@dataclass
class GluingCheck:
    ok: bool
    witness: Optional[tuple] = None
    chart_choice: Optional[dict] = None
    alternatives: Optional[dict] = None


def _class_products(atlas: GluingAtlas, canon, cls):
    """The products that the pieces give to each composable class pair.

    The pairs (c1, c2) with dom c1 = rng c2 get one slot each, in (c1, c2)
    order, onto which the class map sends the composable pairs of the
    pieces' disjoint union.  Returns (c1, c2, lo, hi, miss, witness): per
    slot the least and greatest product given (lo > hi where none is), the
    least piece missing it (else the piece count), and the first pair no
    piece carries, as canonical ids, or None.
    """
    nc, cdom, crng, npieces = len(canon), atlas._dom[canon], atlas._rng[canon], len(atlas.pieces)
    order = np.argsort(crng, kind="stable")
    start = np.searchsorted(crng[order], np.arange(len(atlas.x_units) + 1))
    pos = np.empty(nc, np.int64)
    pos[order] = np.arange(nc) - start[crng[order]]  # place of c2 among the classes ending at rng c2
    width = np.diff(start)[cdom]
    off = np.concatenate(([0], np.cumsum(width)))  # first slot of c1
    local = np.arange(off[-1]) - np.repeat(off[:-1], width)
    c1, c2 = np.repeat(np.arange(nc), width), order[np.repeat(start[cdom], width) + local]
    g = atlas._union
    ft = g._fiber_table()
    a, b = ft.slot_pairs(np.arange(len(ft.table) - 1), g.dom_i)
    piece, a, b, prod = atlas._piece[a], cls[a], cls[b], ft.table[:-1]
    ok = cdom[a] == crng[b]  # composable classes (always, once the atlas is checked)
    slot, prod, piece = off[a[ok]] + pos[b[ok]], prod[ok], piece[ok]
    carried, miss = np.zeros(off[-1], bool), np.full(off[-1], npieces)
    carried[slot] = True
    np.minimum.at(miss, slot[prod < 0], piece[prod < 0])
    slot, prod = slot[prod >= 0], cls[prod[prod >= 0]]
    lo, hi = np.full(off[-1], nc, np.int64), np.full(off[-1], -1, np.int64)
    np.minimum.at(lo, slot, prod)
    np.maximum.at(hi, slot, prod)
    first = np.flatnonzero(~carried)[:1]
    witness = tuple(g.arrows[k] for k in canon[[c1[first[0]], c2[first[0]]]]) if len(first) else None
    return c1, c2, lo, hi, miss, witness


def check_weak_gluing(atlas: GluingAtlas) -> GluingCheck:
    """Every composable pair of quotient classes is carried by one piece."""
    atlas.check()
    witness = _class_products(atlas, *atlas.quotient_classes())[-1]
    return GluingCheck(witness is None, witness=witness)


def check_strong_gluing(atlas: GluingAtlas) -> GluingCheck:
    """Each ambient unit has a chart containing all its piece-orbits.

    Returns the least admissible chart index per unit, with any
    alternative indices listed.
    """
    atlas.check()
    covers, units = atlas._covers, atlas._units
    orbit = orbits_and_isotropy(atlas._union, check=False).orbit_index
    leaves = np.zeros((len(orbit), len(atlas.pieces)), bool)  # orbit o of some piece leaves piece i
    v, i = np.nonzero(~covers[:, units].T)
    leaves[orbit[v], i] = True
    admissible = covers.T.copy()
    u, i = np.nonzero(leaves[orbit])
    admissible[units[u], i] = False
    choice, alternatives = {}, {}
    for k, (x, row) in enumerate(zip(atlas.x_units, admissible.tolist())):
        ok = [i for i, a in enumerate(row) if a]
        if not ok:
            reach = {atlas.x_units[y] for y in units[np.isin(orbit, orbit[units == k])].tolist()}
            return GluingCheck(False, witness=(x, int(np.argmax(covers[:, k])), tuple(sorted(reach, key=repr))))
        choice[x], alternatives[x] = ok[0], tuple(ok[1:])
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
    compose is in (c1, c2) order.  The tables derived from the pieces'
    disjoint union are dropped on return: the result keeps the atlas alive.
    """
    try:
        atlas.check()
        canon, cls = atlas.quotient_classes()
        ids, union = _id_array(atlas._union.arrows)[canon], atlas._union
        c1, c2, lo, hi, miss, witness = _class_products(atlas, canon, cls)
        if witness is not None:
            raise GluingError(f"weak gluing condition fails at composable pair {witness}")
        bad = np.flatnonzero((miss < len(atlas.pieces)) | (lo != hi))
        if len(bad) and miss[bad[0]] < len(atlas.pieces):
            raise GluingError(f"piece {miss[bad[0]]} misses the product of a composable overlap pair")
        if len(bad):
            raise GluingError(f"product of classes {ids[c1[bad[0]]]} and {ids[c2[bad[0]]]} differs between pieces")
        glued = FiniteGroupoid._from_arrays(
            atlas.x_units, ids, atlas._dom[canon], atlas._rng[canon], cls[union.inv_i[canon]],
            cls[union.unit_i[np.unique(atlas._units, return_index=True)[1]]], c1, c2, lo)
        report = validate(glued)
        if not report.ok:
            raise GluingError(f"glued groupoid fails validation: {sorted(report.axioms())}")
        _check_projections(atlas, glued, canon, cls)
        return GluedGroupoid(glued, atlas, tuple(dict(zip(p.groupoid.arrows, ids[cls[a:b]])) for p, a, b in zip(
            atlas.pieces, atlas._offsets[:-1].tolist(), atlas._offsets[1:].tolist())))
    finally:
        atlas._union._cache.clear()


def _check_projections(atlas: GluingAtlas, glued, canon, cls):
    """Each piece's projection (its arrows through the class map) must be a
    groupoid isomorphism onto the reduction; names the first piece that
    breaks it, at its first failing test."""
    g, npieces, piece, off = atlas._union, len(atlas.pieces), atlas._piece, atlas._offsets
    over = atlas._covers[:, glued.dom_i] & atlas._covers[:, glued.rng_i]  # glued arrow c lies over piece i
    onto = (over.sum(axis=1) != np.diff(off)) | (
        np.bincount(np.unique(piece * len(canon) + cls) // len(canon), minlength=npieces) < np.diff(off))
    ends = (glued.dom_i[cls] != atlas._dom) | (glued.rng_i[cls] != atlas._rng)
    edge = np.flatnonzero(ends | (cls[g.inv_i] != glued.inv_i[cls]))
    row = np.flatnonzero(glued._mul_idx(cls[g.p1], cls[g.p2]) != cls[g.pp])
    faults = np.concatenate([3 * piece[~over[piece, cls]], 3 * np.flatnonzero(onto),
                             3 * piece[edge] + 1, 3 * piece[g.p1[row]] + 2])
    if not len(faults):
        return
    i, test = divmod(int(faults.min()), 3)
    if test == 0:
        raise GluingError(f"projection of piece {i} is not a bijection onto the reduction")
    if test == 1:
        a = edge[piece[edge] == i][0]
        raise GluingError(f"projection of piece {i} breaks {'endpoints' if ends[a] else 'inverses'} "
                          f"at {g.arrows[a][1]!r}")
    a, b = (g.arrows[e[row[piece[g.p1[row]] == i][0]]][1] for e in (g.p1, g.p2))
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
