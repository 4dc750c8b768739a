"""Explicit isomorphism searches for small groupoids.

Equality of constructed groupoids is representation-dependent (quotient
labels, tuple ids), so structural comparisons here are searches for an
explicit isomorphism, bounded to desk scale.
"""

from __future__ import annotations

import numpy as np

from .groupoid import FiniteGroupoid, GroupoidError, orbits_and_isotropy

ISO_ARROW_CAP = 200
DEFAULT_BUDGET = 500_000


class SearchBudgetExceeded(RuntimeError):
    pass


def is_pair_groupoid(g: FiniteGroupoid) -> bool:
    """True iff there is exactly one arrow between every ordered unit pair."""
    n = g.n_units
    if g.n_arrows != n * n:
        return False
    if n == 0:
        return True
    dom_i, rng_i, _, _ = g._arrays()
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (rng_i, dom_i), 1)
    return bool((counts == 1).all())


def _dense_table(g: FiniteGroupoid) -> list:
    """Composition as nested lists, c[g][h] = gh or -1; fine under ISO_ARROW_CAP."""
    c = [[-1] * g.n_arrows for _ in range(g.n_arrows)]
    for i, j, k in zip(*(arr.tolist() for arr in g._pair_arrays())):
        c[i][j] = k
    return c


def _arrow_signatures(g: FiniteGroupoid, orbit_info, c):
    dom_i, rng_i, inv_i, unit_i = g._arrays()
    uidx = g.unit_index()
    orbit_size = np.zeros(g.n_units, np.int64)
    iso_order = np.zeros(g.n_units, np.int64)
    for orb, table in zip(orbit_info.orbits, orbit_info.isotropy):
        for x in orb:
            orbit_size[uidx[x]] = len(orb)
            iso_order[uidx[x]] = table.order
    unit_arrow_set = set(unit_i.tolist())
    sigs = []
    for a in range(g.n_arrows):
        is_loop = dom_i[a] == rng_i[a]
        local_order = 0
        if is_loop:
            cur, local_order = a, 1
            while cur != unit_i[dom_i[a]]:
                cur = c[cur][a]
                local_order += 1
        sigs.append(
            (
                a in unit_arrow_set,
                bool(is_loop),
                inv_i[a] == a,
                local_order,
                int(orbit_size[dom_i[a]]),
                int(iso_order[dom_i[a]]),
                int(iso_order[rng_i[a]]),
            )
        )
    usigs = [
        (int(orbit_size[x]), int(iso_order[x])) for x in range(g.n_units)
    ]
    return sigs, usigs


class _IsoSearch:
    def __init__(self, g: FiniteGroupoid, h: FiniteGroupoid, budget: int):
        self.g, self.h = g, h
        self.cg = _dense_table(g)
        self.ch = _dense_table(h)
        self.gd, self.gr, self.gi, self.gu = (arr.tolist() for arr in g._arrays())
        self.hd, self.hr, self.hi, self.hu = (arr.tolist() for arr in h._arrays())
        og = orbits_and_isotropy(g, check=False)
        oh = orbits_and_isotropy(h, check=False)
        self.sig_g, self.usig_g = _arrow_signatures(g, og, self.cg)
        self.sig_h, self.usig_h = _arrow_signatures(h, oh, self.ch)
        n, nu = g.n_arrows, g.n_units
        self.amap = [-1] * n
        self.aused = [False] * h.n_arrows
        self.umap = [-1] * nu
        self.uused = [False] * h.n_units
        self.trail = []
        self.mapped_arrows = []
        self.budget = budget

    # trail entries: ("a", idx) or ("u", idx)

    def _rollback(self, mark):
        while len(self.trail) > mark:
            kind, idx = self.trail.pop()
            if kind == "a":
                self.aused[self.amap[idx]] = False
                self.amap[idx] = -1
                self.mapped_arrows.pop()
            else:
                self.uused[self.umap[idx]] = False
                self.umap[idx] = -1

    def _assign_unit(self, x, y) -> bool:
        if self.umap[x] != -1:
            return self.umap[x] == y
        if self.uused[y] or self.usig_g[x] != self.usig_h[y]:
            return False
        self.umap[x] = y
        self.uused[y] = True
        self.trail.append(("u", x))
        return True

    def _assign_arrow(self, a, b) -> bool:
        self.budget -= 1
        if self.budget < 0:
            raise SearchBudgetExceeded("isomorphism search budget exhausted")
        if self.amap[a] != -1:
            return self.amap[a] == b
        if self.aused[b] or self.sig_g[a] != self.sig_h[b]:
            return False
        if not self._assign_unit(self.gd[a], self.hd[b]):
            return False
        if not self._assign_unit(self.gr[a], self.hr[b]):
            return False
        self.amap[a] = b
        self.aused[b] = True
        self.trail.append(("a", a))
        self.mapped_arrows.append(a)
        # forced consequences: inverse, unit arrows at endpoints, products
        if not self._assign_arrow(self.gi[a], self.hi[b]):
            return False
        for x in (self.gd[a], self.gr[a]):
            if not self._assign_arrow(self.gu[x], self.hu[self.umap[x]]):
                return False
        for c in list(self.mapped_arrows):
            cb = self.amap[c]
            if cb == -1:
                continue
            p = self.cg[a][c]
            if p >= 0:
                q = self.ch[b][cb]
                if q < 0 or not self._assign_arrow(p, q):
                    return False
            p = self.cg[c][a]
            if p >= 0:
                q = self.ch[cb][b]
                if q < 0 or not self._assign_arrow(p, q):
                    return False
        return True

    def _next_arrow(self):
        best, best_key = -1, None
        for a in range(self.g.n_arrows):
            if self.amap[a] != -1:
                continue
            mapped_ends = (self.umap[self.gd[a]] != -1) + (self.umap[self.gr[a]] != -1)
            key = (-mapped_ends, a)
            if best_key is None or key < best_key:
                best, best_key = a, key
        return best

    def run(self):
        return self._search()

    def _search(self):
        a = self._next_arrow()
        if a == -1:
            return True
        for b in range(self.h.n_arrows):
            if self.aused[b] or self.sig_h[b] != self.sig_g[a]:
                continue
            mark = len(self.trail)
            if self._assign_arrow(a, b) and self._search():
                return True
            self._rollback(mark)
        return False


def find_isomorphism(g: FiniteGroupoid, h: FiniteGroupoid, budget: int = DEFAULT_BUDGET):
    """Search for a groupoid isomorphism g -> h.

    Returns (unit_map, arrow_map) as dicts, or None.  Bounded to
    ``ISO_ARROW_CAP`` arrows; raises SearchBudgetExceeded on pathological
    instances instead of hanging.
    """
    if g.n_arrows > ISO_ARROW_CAP or h.n_arrows > ISO_ARROW_CAP:
        raise GroupoidError(f"isomorphism search capped at {ISO_ARROW_CAP} arrows")
    if g.n_units != h.n_units or g.n_arrows != h.n_arrows:
        return None
    if g.n_arrows == 0:
        return ({}, {}) if g.n_units == 0 else None
    search = _IsoSearch(g, h, budget)
    if sorted(search.sig_g) != sorted(search.sig_h):
        return None
    if sorted(search.usig_g) != sorted(search.usig_h):
        return None
    if not search.run():
        return None
    unit_map = {g.units[x]: h.units[y] for x, y in enumerate(search.umap)}
    arrow_map = {g.arrows[a]: h.arrows[b] for a, b in enumerate(search.amap)}
    return unit_map, arrow_map


def are_isomorphic(g: FiniteGroupoid, h: FiniteGroupoid) -> bool:
    return find_isomorphism(g, h) is not None


def check_isomorphism(g, h, unit_map, arrow_map) -> bool:
    """Verify a claimed isomorphism pair of maps."""
    if set(unit_map) != set(g.units) or set(arrow_map) != set(g.arrows):
        return False
    if set(unit_map.values()) != set(h.units) or set(arrow_map.values()) != set(h.arrows):
        return False
    for a in g.arrows:
        if h.dom[arrow_map[a]] != unit_map[g.dom[a]]:
            return False
        if h.rng[arrow_map[a]] != unit_map[g.rng[a]]:
            return False
        if arrow_map[g.inverse[a]] != h.inverse[arrow_map[a]]:
            return False
    for x in g.units:
        if arrow_map[g.unit_arrow[x]] != h.unit_arrow[unit_map[x]]:
            return False
    for (a, b), k in g.compose.items():
        if h.compose.get((arrow_map[a], arrow_map[b])) != arrow_map[k]:
            return False
    return True
