"""The orbit-coordinate map and its consumers, on valid and malformed tables.

Every consumer of the orbit partition (the conjugation check, the block
decomposition, boundary recognition, isomorphism) is pinned here on
hand-made tables that break one structural law each, so that their
failure paths stay covered.
"""

import numpy as np
import pytest

import gpdlab as gl
from gpdlab import algebra as al
from gpdlab import conical as co
from gpdlab import fredholm as fr
from gpdlab.groupoid import GROUP_ISO_SEARCH_CAP, GroupoidError

import gen


def tables(units, arrows, products):
    """A groupoid from (id, dom, rng) arrows, ``e<x>`` units and inverse
    pairs named by case (``a`` and ``A``); ``products`` adds the compose
    entries beyond the unit laws."""
    dom = {a: d for a, d, _ in arrows}
    rng = {a: r for a, _, r in arrows}
    ids = [a for a, _, _ in arrows]
    unit_arrow = {x: f"e{x}" for x in units}
    inverse = {a: a.swapcase() if a.swapcase() in dom else a for a in ids}
    compose = {}
    for a in ids:
        compose[(unit_arrow[rng[a]], a)] = a
        compose[(a, unit_arrow[dom[a]])] = a
    compose.update(products)
    return gl.FiniteGroupoid(units, ids, dom, rng, unit_arrow, inverse, compose)


def units_arrows(units):
    return [(f"e{x}", x, x) for x in units]


def chain():
    """Arrows 0 <-> 1 <-> 2 but none between 0 and 2: not spanned from 0."""
    arrows = units_arrows([0, 1, 2]) + [("a", 0, 1), ("A", 1, 0), ("b", 1, 2), ("B", 2, 1)]
    return tables([0, 1, 2], arrows, {("a", "A"): "e1", ("A", "a"): "e0",
                                      ("b", "B"): "e2", ("B", "b"): "e1"})


def extra_loop():
    """Isotropy trivial at 0 but of order two at 1."""
    arrows = units_arrows([0, 1]) + [("a", 0, 1), ("A", 1, 0), ("l", 1, 1)]
    return tables([0, 1], arrows, {("a", "A"): "e1", ("A", "a"): "e0", ("l", "l"): "e1",
                                   ("l", "a"): "a", ("A", "l"): "A"})


def stray_product():
    """A^-1 b lands on an arrow that is not a loop at the representative."""
    arrows = units_arrows([0, 1]) + [("a", 0, 1), ("A", 1, 0), ("b", 0, 1), ("B", 1, 0)]
    return tables([0, 1], arrows, {("a", "A"): "e1", ("A", "a"): "e0", ("A", "b"): "a"})


def twisted_square():
    """Pair(2) x Z2 with the square of the loop at the second unit broken."""
    g = gl.build_product(gl.build_pair(range(2)),
                         gl.build_group_bundle(["z"], gl.GroupTable.cyclic(2)))
    s = ((1, 1), ("z", 1))
    compose = dict(g.compose)
    compose[(s, s)] = s
    return gl.FiniteGroupoid(g.units, g.arrows, g.dom, g.rng, g.unit_arrow, g.inverse, compose), s


def whole_boundary(g):
    return fr.make_structure(g, [])


class TestMalformed:
    def test_unspanned_orbit(self):
        g = chain()
        part = gl.orbits_and_isotropy(g, check=False)
        assert part.orbits == (frozenset({0, 1, 2}),)
        assert part.representatives == (0,)
        with pytest.raises(GroupoidError, match="^orbit of 0 is not spanned by arrows from it$"):
            gl.orbits_and_isotropy(g, check=True)
        rec = fr.recognize_boundary_bundle(whole_boundary(g))
        assert not rec.verified
        assert rec.witness == (0, "orbit not spanned")
        assert [t.order for t in rec.fibers] == [1]

    def test_unspanned_orbit_has_no_block_decomposition(self):
        with pytest.raises(al.AlgebraError, match="not spanned"):
            al.block_decompose(chain())

    def test_fiber_beyond_the_transversal_has_no_block_decomposition(self):
        # the d-fiber at 0 is e0, a, b; the transversal and the isotropy give e0, a
        with pytest.raises(al.AlgebraError, match="^transversal indexing failed; groupoid is invalid$"):
            al.block_decompose(stray_product())

    def test_isotropy_not_conjugate(self):
        with pytest.raises(GroupoidError, match="^isotropy at 1 is not conjugate to isotropy at 0$"):
            gl.orbits_and_isotropy(extra_loop(), check=True)

    def test_coordinate_not_in_isotropy(self):
        rec = fr.recognize_boundary_bundle(whole_boundary(stray_product()))
        assert not rec.verified
        assert rec.witness == ("b", "not in isotropy")

    def test_fiber_product_broken(self):
        g, s = twisted_square()
        gl.orbits_and_isotropy(g, check=True)  # conjugation does not see it
        rec = fr.recognize_boundary_bundle(whole_boundary(g))
        assert not rec.verified
        assert rec.witness == (s, s, "fiber product")

    def test_broken_square_fails_the_translation_identity(self):
        # the limit operators at (0, z) and (1, z) have equal spectra for the
        # zero element; the index matrices still differ by more than t_y
        g, _ = twisted_square()
        with pytest.raises(fr.StructureError, match=r"^regular representation at \(1, 'z'\) is not "
                           r"the one at \(0, 'z'\) conjugated by the transversal$"):
            fr.limit_operators(whole_boundary(g), al.AlgebraElement.zero(g))


def square_toy(m, interior_points):
    return co.finite_toy_model(co.assemble_layer_groupoid(co.unit_square()), m, interior_points)


def shuffled(g, rng):
    """A relabelled copy with units and arrows listed in a random order."""
    units = [("u", i) for i in rng.permutation(g.n_units)]
    arrows = [("r", i) for i in rng.permutation(g.n_arrows)]
    um, am = dict(zip(g.units, units)), dict(zip(g.arrows, arrows))
    h = gl.relabel(g, um, am)
    order = rng.permutation(h.n_arrows)
    return gl.FiniteGroupoid(
        [h.units[i] for i in rng.permutation(h.n_units)], [h.arrows[i] for i in order],
        h.dom, h.rng, h.unit_arrow, h.inverse, h.compose,
    )


class TestCoordinates:
    def test_transversal_and_coordinates_match_a_walk_over_the_tables(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            g = gen.random_groupoid(rng, max_arrows=80)
            part = gl.orbits_and_isotropy(g)
            uidx = g.unit_index()
            t = {y: g.arrows[part.transversal[uidx[y]]] for y in g.units}
            for y in g.units:
                rep = part.representatives[part.orbit_of(y)]
                first = next(a for a in g.arrows if g.dom[a] == rep and g.rng[a] == y)
                assert t[y] == (g.unit_arrow[rep] if y == rep else first)
            for a, c in zip(g.arrows, part.coordinates()):
                gamma = g.mul(g.mul(g.inverse[t[g.rng[a]]], a), t[g.dom[a]])
                assert part.isotropy[part.orbit_of(g.dom[a])].elements[c] == gamma


class TestIsomorphismDomain:
    def test_toy_model_against_shuffled_copy(self):
        g = square_toy(5, 5).groupoid
        assert g.n_arrows == 2105
        h = shuffled(g, np.random.default_rng(4))
        iso = gl.find_isomorphism(g, h)
        assert iso is not None and gl.check_isomorphism(g, h, *iso)

    def test_cyclic_and_klein_bundles_differ(self):
        z2 = gl.GroupTable.cyclic(2)
        z4 = gl.build_group_bundle([0, 1], gl.GroupTable.cyclic(4))
        klein = gl.build_group_bundle([0, 1], gl.GroupTable.product(z2, z2))
        assert gl.find_isomorphism(z4, klein) is None

    def test_isotropy_above_group_search_cap_raises(self):
        order = GROUP_ISO_SEARCH_CAP + 1
        g = gl.build_group_bundle([0], gl.GroupTable.cyclic(order))
        h = gl.build_group_bundle(["x"], gl.GroupTable.cyclic(order))
        with pytest.raises(GroupoidError, match=f"capped at order {GROUP_ISO_SEARCH_CAP}"):
            gl.find_isomorphism(g, h)

    def test_non_groupoid_input_raises(self):
        twisted, _ = twisted_square()
        g = gl.build_product(gl.build_pair(range(2)),
                             gl.build_group_bundle(["z"], gl.GroupTable.cyclic(2)))
        with pytest.raises(GroupoidError, match="not groupoids"):
            gl.find_isomorphism(twisted, g)
