"""Seeded random generators shared by the module and acceptance tests."""

from __future__ import annotations

import numpy as np

import gpdlab as gl
from gpdlab import conical as co
from gpdlab.gluing import GluingAtlas, GluingPiece


def small_groups():
    z2, z3 = gl.GroupTable.cyclic(2), gl.GroupTable.cyclic(3)
    return [
        gl.GroupTable.trivial(),
        z2,
        z3,
        gl.GroupTable.cyclic(4),
        gl.GroupTable.product(z2, z2),
        gl.GroupTable.symmetric(3),
        gl.GroupTable.cyclic(6),
    ]


GROUPS = small_groups()


def random_group(rng: np.random.Generator) -> gl.GroupTable:
    return GROUPS[rng.integers(len(GROUPS))]


KINDS = ["pair", "bundle", "action_translation", "action_swap", "action_trivial",
         "product", "pullback", "glued", "disjoint"]


def random_groupoid(rng: np.random.Generator, max_arrows: int = 200, kind=None) -> gl.FiniteGroupoid:
    """One of the named constructions with small random parameters."""
    for _ in range(50):
        g = _make(kind if kind is not None else rng.choice(KINDS), rng)
        if g.n_arrows <= max_arrows:
            return g
    raise RuntimeError("generator failed to fit the arrow budget")


def _make(kind: str, rng) -> gl.FiniteGroupoid:
    if kind == "pair":
        return gl.build_pair(range(int(rng.integers(1, 8))))
    if kind == "bundle":
        base = [f"b{i}" for i in range(int(rng.integers(1, 5)))]
        return gl.build_group_bundle(base, random_group(rng))
    if kind == "action_translation":
        group = random_group(rng)
        elements = group.elements
        return gl.build_action(group, elements, lambda x, e: group.mul(x, e))
    if kind == "action_swap":
        k = int(rng.integers(1, 5))
        z2 = gl.GroupTable.cyclic(2)
        pts = list(range(2 * k))
        return gl.build_action(z2, pts, lambda x, e: (x + k * e) % (2 * k))
    if kind == "action_trivial":
        group = random_group(rng)
        pts = [f"p{i}" for i in range(int(rng.integers(1, 4)))]
        return gl.build_action(group, pts, lambda x, e: x)
    if kind == "product":
        left = gl.build_pair(range(int(rng.integers(1, 4))))
        right = gl.build_group_bundle(["z"], random_group(rng))
        return gl.build_product(left, right)
    if kind == "pullback":
        base = [f"B{i}" for i in range(int(rng.integers(1, 3)))]
        bundle = gl.build_group_bundle(base, random_group(rng))
        pts = [f"m{i}" for i in range(int(rng.integers(len(base), len(base) + 4)))]
        f = {}
        for i, p in enumerate(pts):
            f[p] = base[i] if i < len(base) else base[rng.integers(len(base))]
        return gl.build_fibered_pullback(f, bundle)
    if kind == "glued":
        from gpdlab.gluing import glue

        atlas = random_pair_cover_atlas(rng, n_max=6)
        return glue(atlas).groupoid
    if kind == "disjoint":
        return gl.build_disjoint_union(
            [_make("pair", rng), _make("bundle", rng)]
        )
    raise ValueError(kind)


MUTATION_TABLES = ("dom", "rng", "inverse", "unit_arrow", "compose")


def mutate(rng: np.random.Generator, g: gl.FiniteGroupoid):
    """Corrupt one table entry, keeping the tables structurally well formed.

    Returns (mutant, description); None when no corrupting value exists
    (single-unit single-arrow corner cases).
    """
    for _ in range(100):
        table = rng.choice(MUTATION_TABLES)
        dom, rng_, unit_arrow, inverse, compose = (
            dict(g.dom), dict(g.rng), dict(g.unit_arrow), dict(g.inverse), dict(g.compose),
        )
        if table in ("dom", "rng") and g.n_units > 1:
            arrow = g.arrows[rng.integers(g.n_arrows)]
            target = dict(dom=dom, rng=rng_)[table]
            others = [x for x in g.units if x != target[arrow]]
            target[arrow] = others[rng.integers(len(others))]
        elif table in ("inverse", "unit_arrow") and g.n_arrows > 1:
            target = dict(inverse=inverse, unit_arrow=unit_arrow)[table]
            key = (
                g.arrows[rng.integers(g.n_arrows)]
                if table == "inverse"
                else g.units[rng.integers(g.n_units)]
            )
            others = [a for a in g.arrows if a != target[key]]
            target[key] = others[rng.integers(len(others))]
        elif table == "compose" and compose and g.n_arrows > 1:
            keys = list(compose)
            key = keys[rng.integers(len(keys))]
            others = [a for a in g.arrows if a != compose[key]]
            compose[key] = others[rng.integers(len(others))]
        else:
            continue
        mutant = gl.FiniteGroupoid(g.units, g.arrows, dom, rng_, unit_arrow, inverse, compose)
        return mutant, table
    return None


def _random_subsets(rng, x_units, k):
    n = len(x_units)
    subsets = []
    for _ in range(k):
        size = int(rng.integers(2, max(3, n // 2 + 2)))
        subsets.append(frozenset(rng.choice(x_units, size=min(size, n), replace=False).tolist()))
    for x in x_units:  # make it a cover
        if not any(x in s for s in subsets):
            subsets.append(frozenset({x}))
    seen, out = set(), []
    for s in subsets:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def random_pair_cover_atlas(rng: np.random.Generator, n_max: int = 12, closed: bool = True):
    """Atlas of pair groupoids over a random cover of a set of size <= n_max.

    With closed=True every composable pair of glued arrows lies in one
    piece: either the full set is a piece, or (small sets) the cover
    contains every triple.  With closed=False the weak condition may
    fail, which is what the negative trials want.
    """
    n = int(rng.integers(3, n_max + 1))
    x_units = [f"x{i}" for i in range(n)]
    subsets = _random_subsets(rng, x_units, int(rng.integers(2, 5)))
    if closed:
        if n <= 6 and rng.random() < 0.4:
            from itertools import combinations

            subsets = [frozenset(t) for t in combinations(x_units, 3)] + [
                s for s in subsets if len(s) >= 2
            ]
        else:
            subsets = [frozenset(x_units)] + subsets
    pieces = [
        GluingPiece(gl.build_pair(sorted(s)), {u: u for u in sorted(s)}) for s in subsets
    ]
    return GluingAtlas(x_units, pieces)


def random_bundle_patch_atlas(rng: np.random.Generator):
    """Atlas mixing a pair cover with isolated (possibly duplicated) bundle pieces."""
    return GluingAtlas(*random_bundle_patch_inputs(rng))


def random_bundle_patch_inputs(rng: np.random.Generator):
    """The units, pieces and given phis of ``random_bundle_patch_atlas``."""
    atlas = random_pair_cover_atlas(rng, n_max=6, closed=bool(rng.random() < 0.7))
    x_units = list(atlas.x_units)
    pieces = list(atlas.pieces)
    extra = [f"y{i}" for i in range(int(rng.integers(1, 3)))]
    bundle = gl.build_group_bundle(extra, random_group(rng))
    pieces.append(GluingPiece(bundle, {u: u for u in extra}))
    if rng.random() < 0.5:  # duplicated piece with identity overlap map
        pieces.append(GluingPiece(bundle, {u: u for u in extra}))
        phis = {
            (len(pieces) - 2, len(pieces) - 1): {a: a for a in bundle.arrows},
        }
    else:
        phis = None
    return x_units + extra, pieces, phis


# ---------------------------------------------------------------------------
# toy layer structures


def random_toy_descriptor(rng: np.random.Generator):
    n_vertices = int(rng.integers(1, 3))
    pieces = tuple(
        co.ConePiece(f"w{i}", int(rng.integers(1, 4))) for i in range(n_vertices)
    )
    domain = co.LayerDomain(
        2,
        tuple(
            co.Vertex(p.vertex_id, co.RayBase(tuple(0.1 * j for j in range(p.components))))
            for p in pieces
        ),
    )
    return co.LayerGroupoidDescriptor(domain, pieces)


def random_toy_structure(rng: np.random.Generator, max_arrows: int = 60):
    """Toy layer model within the arrow budget."""
    for _ in range(60):
        desc = random_toy_descriptor(rng)
        m = int(rng.integers(1, 4))
        interior = int(rng.integers(0, 3))
        n_u = interior + sum(m * p.components for p in desc.pieces)
        n_arrows = n_u * n_u + sum(p.components**2 * m for p in desc.pieces)
        if 0 < n_arrows <= max_arrows:
            return co.finite_toy_model(desc, m, interior)
    raise RuntimeError("toy generator failed to fit the arrow budget")


def random_attach_structure(rng: np.random.Generator, max_arrows: int = 60):
    """Pair part glued to a one-point overlap plus a group-bundle end."""
    from gpdlab.fredholm import make_structure
    from gpdlab.gluing import attach_ends

    for _ in range(60):
        n_u = int(rng.integers(2, 5))
        n_b = int(rng.integers(1, 3))
        group = random_group(rng)
        u_units = [f"u{i}" for i in range(n_u)]
        b_units = [f"e{i}" for i in range(n_b)]
        overlap = u_units[-1]
        end = gl.build_disjoint_union(
            [gl.build_pair([overlap]), gl.build_group_bundle(b_units, group)]
        )
        unit_map = {(0, overlap): overlap}
        unit_map.update({(1, b): b for b in b_units})
        end = gl.relabel(end, unit_map, {a: ("end", a) for a in end.arrows})
        total = n_u * n_u + n_b * group.order
        if total > max_arrows:
            continue
        glued = attach_ends(gl.build_pair(u_units), end)
        return make_structure(glued.groupoid, u_units)
    raise RuntimeError("attach generator failed to fit the arrow budget")
