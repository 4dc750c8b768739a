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

The atlas check also certifies the pieces, once, before the phis.  A
checked atlas glues without re-checks: each class over a piece holds
one of its arrows and the phis are multiplicative, so the pieces agree
on every class product and each projection is an isomorphism onto its
reduction.  The glued tables are still validated: the weak condition
alone does not make the quotient associative.

Separation properties of the quotient topology are vacuous for finite
discrete unit sets, so they are recorded here rather than checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .groupoid import (FiniteGroupoid, _id_array, _min_labels, build_disjoint_union, orbits_and_isotropy,
                       saturation, structure_witness, validate)
from .iso import is_pair_groupoid, is_pair_over


class AtlasError(ValueError):
    """Atlas invariants (pieces, embeddings, phi bijections, cocycle law)
    violated; ``field`` names the atlas-file field at fault, if any."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


class GluingError(ValueError):
    """Gluing is not defined (weak condition fails or the quotient is no groupoid)."""


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
    other overlapping pairs are matched by ambient endpoints.  A fault
    names its field as an atlas file would hold it: the k-th given phi
    is ``phis[k]``.
    """

    def __init__(self, x_units, pieces, phis: Optional[dict] = None):
        self.x_units = tuple(x_units)
        self.pieces = tuple(pieces)
        given, npieces, xidx = dict(phis or {}), len(self.pieces), {}
        for k, x in enumerate(self.x_units):
            if xidx.setdefault(x, k) != k:
                raise AtlasError(f"duplicate unit id {x!r}", f"units[{k}]")
        for idx, piece in enumerate(self.pieces):
            emb, field = dict(piece.embedding), f"pieces[{idx}].embedding"
            if set(emb) != set(piece.groupoid.units):
                raise AtlasError(f"piece {idx}: embedding keys must be exactly the piece units", field)
            if len(set(emb.values())) != len(emb):
                raise AtlasError(f"piece {idx}: embedding is not injective", field)
            if not set(emb.values()) <= set(self.x_units):
                raise AtlasError(f"piece {idx}: embedding leaves the ambient unit set", field)
        if set().union(*(p.embedded_units() for p in self.pieces)) != set(self.x_units):
            raise AtlasError("pieces do not cover the ambient unit set", "units")
        # the pieces' disjoint union: the ambient unit of each unit; per arrow number its piece,
        # ambient dom and rng, and in _over[j] if it lies over another piece j; _sizes[i, j] of those in i
        self._union = build_disjoint_union(p.groupoid for p in self.pieces)
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
        self._fields = {}  # the field of each phi that is given or inverted from a given one: its map
        for k, (i, j) in enumerate(given):
            if not (0 <= i < npieces and 0 <= j < npieces):
                raise AtlasError(f"phi({i},{j}) names a piece out of range", f"phis[{k}]")
            if i == j:
                raise AtlasError(f"phi({i},{j}) maps a piece to itself", f"phis[{k}]")
            if not self._sizes[i, j]:
                raise AtlasError(f"phi({i},{j}) joins pieces that do not overlap", f"phis[{k}]")
            derived[i, j] = derived[j, i] = False
            self._fields[(i, j)] = f"phis[{k}].map"
            self._fields.setdefault((j, i), f"phis[{k}].map")
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

        The pieces come first: their disjoint union passes the structure
        certificate exactly when every piece does, which is certified one
        by one only to name the first that fails.  The local checks then
        run over the edge list at once; then the quotient classes decide
        the cocycle law and mutual inverses together.
        """
        if self._checked:
            return
        if structure_witness(self._union) is not None:
            for i, piece in enumerate(self.pieces):
                if (w := structure_witness(piece.groupoid)) is not None:
                    raise AtlasError(f"piece {i}: groupoid fails the structure certificate: {w!r}",
                                     f"pieces[{i}].groupoid")
        self._check_local()
        classes = self.quotient_classes()[1] * len(self.pieces) + self._piece  # class and piece of each arrow
        if len(np.unique(classes)) < len(classes):
            raise AtlasError(self._law_witness())
        self._checked = True

    def _check_local(self):
        """Raise the first local fault: of the first failing phi in pair
        order, the first failing test of domain, injective, image, units
        and products, at the field of that phi's map if it is given."""
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
            return
        c, test = divmod(int(faults.min()), 5)
        phi, name = "phi({},{})".format(*divmod(c, npieces)), lambda k: repr(g.arrows[k][1])
        if test == 3:
            fault = f"does not cover the identity on units at {name(src[moved & (pair == c)][0])}"
        elif test == 4:
            a, b = (e[wrong][code[wrong] == c] for e in (a, b))
            k = np.argmin(a * len(g.arrows) + b)
            fault = f"is not multiplicative at ({name(a[k])}, {name(b[k])})"
        else:
            fault = ("domain is not the overlap reduction", "is not injective",
                     "image is not the overlap reduction")[test]
        raise AtlasError(f"{phi} {fault}", self._fields.get(divmod(c, npieces)))

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
    """The product that the pieces give to each composable class pair.

    The pairs (c1, c2) with dom c1 = rng c2 get one slot each, in (c1, c2)
    order, onto which the class map sends the composable pairs of the
    pieces' disjoint union.  The pieces of a checked atlas agree on every
    slot they carry, so one assignment fills it.  Returns (c1, c2,
    product, witness): per slot its product class (-1 where no piece
    carries it), and the first such pair as canonical ids, or None.
    """
    nc, cdom, crng = len(canon), atlas._dom[canon], atlas._rng[canon]
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
    product = np.full(off[-1], -1, np.int64)
    product[off[cls[a]] + pos[cls[b]]] = cls[ft.table[:-1]]
    first = np.flatnonzero(product < 0)[:1]
    witness = tuple(g.arrows[k] for k in canon[[c1[first[0]], c2[first[0]]]]) if len(first) else None
    return c1, c2, product, witness


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

    The atlas check certifies the pieces and the phis, so the product of
    two classes is read from any piece that carries both, and each
    piece's projection (its arrows through the class map) is an
    isomorphism onto the reduction without a further check.  The compose
    is in (c1, c2) order.  The tables derived from the pieces' disjoint
    union are dropped on return: the result keeps the atlas alive.
    """
    try:
        atlas.check()
        canon, cls = atlas.quotient_classes()
        ids, union = _id_array(atlas._union.arrows)[canon], atlas._union
        c1, c2, product, witness = _class_products(atlas, canon, cls)
        if witness is not None:
            raise GluingError(f"weak gluing condition fails at composable pair {witness}")
        glued = FiniteGroupoid._from_arrays(
            atlas.x_units, ids, atlas._dom[canon], atlas._rng[canon], cls[union.inv_i[canon]],
            cls[union.unit_i[np.unique(atlas._units, return_index=True)[1]]], c1, c2, product)
        report = validate(glued)
        if not report.ok:
            raise GluingError(f"glued groupoid fails validation: {sorted(report.axioms())}")
        return GluedGroupoid(glued, atlas, tuple(dict(zip(p.groupoid.arrows, ids[cls[a:b]])) for p, a, b in zip(
            atlas.pieces, atlas._offsets[:-1].tolist(), atlas._offsets[1:].tolist())))
    finally:
        atlas._union._cache.clear()


def attach_ends(pairpiece: FiniteGroupoid, boundarypiece: FiniteGroupoid) -> GluedGroupoid:
    """Glue a pair groupoid over U with an end piece over V.

    Requires U u V to be glued over an overlap on which the end piece
    restricts to a pair groupoid with no arrows leaving the overlap;
    then the result, once glue has certified both pieces, has U as a
    single orbit and all other orbits inside V-U.
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
    return glue(atlas)
