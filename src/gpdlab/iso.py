"""Explicit isomorphisms between finite groupoids.

Equality of constructed groupoids is representation-dependent (quotient
labels, tuple ids), so structural comparisons here produce an explicit
isomorphism.  By the structure theorem every orbit is Pair(orbit) x
isotropy, so two groupoids are isomorphic exactly when their orbits
match by (size, isotropy class); the maps come from the orbit-coordinate
map of :class:`OrbitPartition`.  The only size limit is the isotropy
order (``GROUP_ISO_SEARCH_CAP``).
"""

from __future__ import annotations

import numpy as np

from .groupoid import (
    FiniteGroupoid,
    GroupoidError,
    find_group_isomorphism,
    orbits_and_isotropy,
    unit_mask,
)


def is_pair_groupoid(g: FiniteGroupoid) -> bool:
    """True iff there is exactly one arrow between every ordered unit pair."""
    return is_pair_over(g, g.units)


def is_pair_over(g: FiniteGroupoid, a) -> bool:
    """True iff the reduction to A is a pair groupoid, decided without building it."""
    dom_i, rng_i = g.dom_i, g.rng_i
    inside = unit_mask(g, a)
    n = int(inside.sum())
    keep = inside[dom_i] & inside[rng_i]
    if int(keep.sum()) != n * n:
        return False
    pos = np.cumsum(inside) - 1  # index of each unit of A among the units of A
    counts = np.bincount(pos[rng_i[keep]] * n + pos[dom_i[keep]], minlength=n * n)
    return bool((counts == 1).all())


def find_isomorphism(g: FiniteGroupoid, h: FiniteGroupoid):
    """A groupoid isomorphism g -> h as (unit_map, arrow_map) dicts, or None.

    Orbits are matched greedily by (orbit size, isotropy class), with
    explicit group isomorphisms psi from ``find_group_isomorphism``;
    units are paired in unit order within matched orbits (sigma).  The
    arrow with coordinates (r, gamma, d) goes to the arrow of h with
    coordinates (sigma(r), psi(gamma), sigma(d)).  The maps are returned
    only after ``check_isomorphism`` accepts them; when it does not, the
    inputs are not groupoids and GroupoidError is raised.  Isotropy
    groups above ``GROUP_ISO_SEARCH_CAP`` raise GroupoidError too.
    """
    if g.n_units != h.n_units or g.n_arrows != h.n_arrows:
        return None
    pg, ph = orbits_and_isotropy(g, check=False), orbits_and_isotropy(h, check=False)
    members_g, members_h = pg.members, ph.members
    sigma = np.zeros(g.n_units, np.int64)
    psi = []  # per orbit of g: isotropy index map
    free = list(range(len(ph.orbits)))
    for p, iso in enumerate(pg.isotropy):
        for j, q in enumerate(free):
            if len(members_h[q]) == len(members_g[p]):
                mapping = find_group_isomorphism(iso, ph.isotropy[q])
                if mapping is not None:
                    break
        else:
            return None
        del free[j]
        sigma[members_g[p]] = members_h[q]
        psi.append(np.array(mapping, np.int64))

    def encode(r, gamma, d):  # one integer per (r, gamma, d); r fixes the orbit
        return (r * h.n_units + d) * (h.n_arrows + 1) + gamma

    dom_g, rng_g = g.dom_i, g.rng_i
    dom_h, rng_h = h.dom_i, h.rng_i
    start = np.concatenate(([0], np.cumsum([len(m) for m in psi], dtype=np.int64)))
    flat = np.concatenate([np.zeros(0, np.int64)] + psi)
    wanted = encode(sigma[rng_g], flat[start[pg.orbit_index[dom_g]] + pg.coordinates()], sigma[dom_g])
    keys = encode(rng_h, ph.coordinates(), dom_h)
    order = np.argsort(keys)
    at = np.minimum(np.searchsorted(keys[order], wanted), max(h.n_arrows - 1, 0))
    target = order[at]
    unit_map = dict(zip(g.units, (h.units[y] for y in sigma.tolist())))
    arrow_map = dict(zip(g.arrows, (h.arrows[b] for b in target.tolist())))
    if not check_isomorphism(g, h, unit_map, arrow_map):
        raise GroupoidError("inputs are not groupoids: the orbit-coordinate map is not an isomorphism")
    return unit_map, arrow_map


def are_isomorphic(g: FiniteGroupoid, h: FiniteGroupoid) -> bool:
    return find_isomorphism(g, h) is not None


def check_isomorphism(g, h, unit_map, arrow_map) -> bool:
    """Verify a claimed isomorphism pair of maps."""
    if set(unit_map) != set(g.units) or set(arrow_map) != set(g.arrows):
        return False
    if set(unit_map.values()) != set(h.units) or set(arrow_map.values()) != set(h.arrows):
        return False
    uidx, aidx = h.unit_index(), h.arrow_index()
    sigma = np.array([uidx[unit_map[x]] for x in g.units], np.int64)
    phi = np.array([aidx[arrow_map[a]] for a in g.arrows], np.int64)
    return bool(
        (h.dom_i[phi] == sigma[g.dom_i]).all() and (h.rng_i[phi] == sigma[g.rng_i]).all()
        and (phi[g.inv_i] == h.inv_i[phi]).all() and (phi[g.unit_i] == h.unit_i[sigma]).all()
        and (h._mul_idx(phi[g.p1], phi[g.p2]) == phi[g.pp]).all()
    )
