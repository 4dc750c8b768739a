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
from gpdlab import groupoid as gd
from gpdlab.groupoid import GROUP_ISO_SEARCH_CAP, GroupoidError, structure_witness

import gen
import reference


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
        with pytest.raises(al.AlgebraError,
                           match=r"^groupoid fails the structure certificate: \('b', 'not in isotropy'\)$"):
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
        # conjugation does not see it; the certificate's product step does
        with pytest.raises(GroupoidError, match=r"^groupoid fails the structure certificate: "
                           r"\(\(\(1, 1\), \('z', 1\)\), \(\(1, 1\), \('z', 1\)\), 'fiber product'\)$"):
            gl.orbits_and_isotropy(g, check=True)
        rec = fr.recognize_boundary_bundle(whole_boundary(g))
        assert not rec.verified
        assert rec.witness == (s, s, "fiber product")

    def test_broken_square_fails_the_translation_identity(self):
        # the limit operators at (0, z) and (1, z) have equal spectra for the
        # zero element; the boundary is still not Pair(orbit) x isotropy
        g, _ = twisted_square()
        with pytest.raises(fr.StructureError, match=r"^boundary groupoid fails the structure certificate: "
                           r"\(\(\(1, 1\), \('z', 1\)\), \(\(1, 1\), \('z', 1\)\), 'fiber product'\)$"):
            fr.limit_operators(whole_boundary(g), al.AlgebraElement.zero(g))


# A loop of order 5 with identity 0 and every element its own inverse
# that is not associative: (1 * 2) * 2 = 4 but 1 * (2 * 2) = 1.
NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def loop_bundle():
    """One unit whose loops multiply by NON_ASSOCIATIVE_LOOP."""
    ids = [f"l{i}" for i in range(5)]
    return gl.FiniteGroupoid(
        ["x"], ids, {a: "x" for a in ids}, {a: "x" for a in ids}, {"x": "l0"}, {a: a for a in ids},
        {(ids[i], ids[j]): ids[k] for i, row in enumerate(NON_ASSOCIATIVE_LOOP) for j, k in enumerate(row)},
    )


def wrong_inverses():
    """Z3 at one unit with every arrow declared its own inverse."""
    g = gl.build_group_bundle(["x"], gl.GroupTable.cyclic(3))
    return gl.FiniteGroupoid(g.units, g.arrows, g.dom, g.rng, g.unit_arrow, {a: a for a in g.arrows}, g.compose)


def crossed_inverse():
    """Z2 at "a" beside Pair(2), with the inverse of (0, 1) declared to be
    the other Z2 loop, whose orbit has a larger isotropy table."""
    g = gl.build_disjoint_union([gl.build_group_bundle(["a"], gl.GroupTable.cyclic(2)), gl.build_pair(range(2))])
    inverse = {**g.inverse, (1, (0, 1)): (0, ("a", 1))}
    return gl.FiniteGroupoid(g.units, g.arrows, g.dom, g.rng, g.unit_arrow, inverse, g.compose)


def missing_product():
    """Pair(3) without (2, 1)(1, 0); the coordinates never use that product."""
    g = gl.build_pair(range(3))
    compose = {k: v for k, v in g.compose.items() if k != ((2, 1), (1, 0))}
    return gl.FiniteGroupoid(g.units, g.arrows, g.dom, g.rng, g.unit_arrow, g.inverse, compose)


class TestCertificate:
    """Each table fails one step of the structure certificate and passes the
    others; validate then walks the axioms, and its report matches the
    reference oracle."""

    @pytest.mark.parametrize("make, witness", [
        (loop_bundle, ("x", "isotropy not a group")),
        (wrong_inverses, (("x", 1), "inverse")),
        (crossed_inverse, ((1, (0, 1)), "inverse")),
        (missing_product, ((2, 1), (1, 0), "composability")),
        (lambda: twisted_square()[0], (((1, 1), ("z", 1)), ((1, 1), ("z", 1)), "fiber product")),
    ], ids=["step2-group", "step6-inverse", "step6-crossed-inverse", "step7-composability", "step8-product"])
    def test_one_failing_step(self, make, witness):
        g = make()
        assert structure_witness(g) == witness
        report = gl.validate(g)
        assert not report.ok
        reference.check_against_oracle(report, g)

    def test_group_verdict_per_orbit(self):
        # a copy of an earlier table shares its verdict without its own walk
        z5 = gl.build_group_bundle(["z"], gl.GroupTable.cyclic(5))
        for parts, expected in [((loop_bundle(), loop_bundle(), z5), [False, False, True]),
                                ((z5, loop_bundle(), z5, loop_bundle()), [True, False, True, False])]:
            part = gl.orbits_and_isotropy(gl.build_disjoint_union(parts), check=False)
            assert part.isotropy_is_group.tolist() == expected
            assert part.orders.tolist() == [5] * len(parts)

    def test_valid_groupoids_take_the_certificate_path(self, monkeypatch):
        walks = []  # the axiom walk collects its witnesses through _collect
        collect = gd._collect
        monkeypatch.setattr(gd, "_collect", lambda *args: walks.append(args) or collect(*args))
        rng = np.random.default_rng(17)
        for kind in gen.KINDS:
            for _ in range(3):
                assert gl.validate(gen.random_groupoid(rng, max_arrows=120, kind=kind)).ok
        for m in (2, 3, 5):
            assert gl.validate(square_toy(m, 2).groupoid).ok
        assert walks == []


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
