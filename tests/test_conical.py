import math

import numpy as np
import pytest

import gpdlab as gl
from gpdlab import conical as co
from gpdlab import fredholm as fr

import gen


class TestDomains:
    def test_unit_square_vertices(self):
        sq = co.unit_square()
        assert len(sq.vertices) == 4
        for v in sq.vertices:
            assert v.k == 2
            assert v.base.opening() == pytest.approx(math.pi / 2)

    def test_regular_polygon_angle(self):
        for n in (3, 5, 8):
            d = co.regular_polygon(n)
            want = (n - 2) * math.pi / n
            assert d.vertex("v0").base.opening() == pytest.approx(want)

    def test_l_shape_has_reentrant_vertex(self):
        ls = co.l_shape()
        angles = sorted(v.base.opening() for v in ls.vertices)
        assert angles[-1] == pytest.approx(3 * math.pi / 2)
        assert angles[0] == pytest.approx(math.pi / 2)

    def test_duplicate_ids_rejected(self):
        v = co.Vertex("p", co.RayBase((0.0, 1.0)))
        with pytest.raises(co.DomainError, match="distinct"):
            co.LayerDomain(2, (v, v))

    def test_cracks_rejected(self):
        v = co.Vertex("p", co.RayBase((0.0, 1.0)))
        with pytest.raises(co.DomainError, match="cracks"):
            co.LayerDomain(2, (v,), no_cracks=False)

    def test_planar_needs_ray_base(self):
        v = co.Vertex("p", co.NamedBase("sphere-cap", 1))
        with pytest.raises(co.DomainError, match="ray"):
            co.LayerDomain(2, (v,))

    def test_clockwise_polygon_rejected(self):
        # a clockwise list would describe the exterior: openings of 3 pi / 2
        with pytest.raises(co.DomainError, match=r"counterclockwise order \(signed area -1\)") as exc:
            co.polygon_domain([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert exc.value.field == "vertices"
        with pytest.raises(co.DomainError, match=r"counterclockwise order \(signed area 0\)"):
            co.polygon_domain([(0, 0), (1, 1), (1, 0), (0, 1)])  # a bow tie

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(co.DomainError, match="degenerate"):
            co.polygon_domain([(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_artificial_vertex_accepted(self):
        # a smooth point marked as a vertex carries a half-circle base
        v = co.Vertex("art", co.RayBase((0.0, math.pi), interior_angle=math.pi))
        d = co.LayerDomain(2, (v,))
        assert d.vertex("art").base.opening() == pytest.approx(math.pi)

    def test_opening_must_match_the_coordinates(self):
        # the scans read the declared opening, the mesh the coordinates
        square = co.unit_square()
        wide = co.Vertex("v2", co.RayBase(square.vertices[2].base.angles, interior_angle=4.0),
                         coords=square.vertices[2].coords)
        vertices = square.vertices[:2] + (wide,) + square.vertices[3:]
        with pytest.raises(co.DomainError) as exc:
            co.LayerDomain(2, vertices, square.edges)
        assert exc.value.field == "vertices[2].base"
        assert str(exc.value) == "vertex 'v2' has opening 4.0, but its coordinates give 1.5707963267948966"

    def test_opening_tolerance(self):
        square = co.unit_square()
        v = square.vertices[0]

        def with_opening(delta):
            moved = co.Vertex("v0", co.RayBase(v.base.angles, v.base.opening() + delta), coords=v.coords)
            return co.LayerDomain(2, (moved,) + square.vertices[1:], square.edges)

        with_opening(0.5 * co.OPENING_TOL)
        with pytest.raises(co.DomainError, match="has opening"):
            with_opening(2.0 * co.OPENING_TOL)

    def test_declared_opening_must_be_the_rays_sweep(self):
        # an artificial vertex declares pi; its rays may sweep pi within
        # the tolerance, coordinates or not
        def art(second_ray):
            return co.LayerDomain(2, (co.Vertex("art", co.RayBase((0.0, second_ray), math.pi)),))

        art(math.pi + 0.5 * co.OPENING_TOL)
        with pytest.raises(co.DomainError) as exc:
            art(math.pi + 2.0 * co.OPENING_TOL)
        assert exc.value.field == "vertices[0].base.angles"

    def test_polygon_edges_are_the_vertex_cycle(self):
        square = co.unit_square()
        assert square.edges == (("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0"))
        co.LayerDomain(2, square.vertices)  # edges may be left out
        with pytest.raises(co.DomainError) as exc:
            co.LayerDomain(2, square.vertices, square.edges[1:] + square.edges[:1])
        assert exc.value.field == "edges[0]"

    def test_undeclared_opening_is_the_rays_sweep(self):
        # without interior_angle the opening is the sweep of the two rays,
        # which must match the coordinates as a declared one does
        square = co.unit_square()
        swept = tuple(co.Vertex(v.id, co.RayBase(v.base.angles), v.coords) for v in square.vertices)
        assert co.LayerDomain(2, swept, square.edges).component_counts() == (2, 2, 2, 2)
        turned = (co.Vertex("v0", co.RayBase((0.0, 1.0)), swept[0].coords),) + swept[1:]
        with pytest.raises(co.DomainError) as exc:
            co.LayerDomain(2, turned, square.edges)
        assert exc.value.field == "vertices[0].base"


class TestDesingularization:
    def test_square_counts(self):
        ds = co.desingularize(co.unit_square())
        assert len(ds.cylinders) == 4
        assert all(c.components == 2 for c in ds.cylinders)
        assert ds.boundary_count == 8

    def test_l_shape_counts(self):
        ds = co.desingularize(co.l_shape())
        assert len(ds.cylinders) == 6
        assert ds.boundary_count == 12

    def test_3d_cone_single_cylinder(self):
        ds = co.desingularize(co.cone_3d("base", 1))
        assert len(ds.cylinders) == 1
        assert ds.boundary_count == 1

    def test_collar_normalized(self):
        ds = co.desingularize(co.unit_square())
        assert all(c.collar == (0.5, 1.0) for c in ds.cylinders)


class TestDescriptor:
    def test_square_descriptor(self):
        L = co.assemble_layer_groupoid(co.unit_square())
        assert L.boundary_orbit_count == 4
        assert L.boundary_unit_count == 8
        assert L.strong_gluing
        assert L.dense_orbit == "interior"
        assert L.limit_points_per_cone == ("0",)

    def test_straight_cone_has_two_limit_points(self):
        L = co.straight_cone_descriptor(2)
        assert L.limit_points_per_cone == ("0", "inf")
        assert L.boundary_orbit_count == 1

    def test_single_connected_base_matches_b_groupoid(self):
        rep = co.boundary_algebra_report(co.assemble_layer_groupoid(co.cone_3d("base", 1)))
        assert rep.b_groupoid_equal


class TestAlgebraReport:
    def test_square_string(self):
        rep = co.boundary_algebra_report(co.assemble_layer_groupoid(co.unit_square()))
        assert rep.algebra == "M_2(C0(R+)) ⊕ M_2(C0(R+)) ⊕ M_2(C0(R+)) ⊕ M_2(C0(R+))"
        assert not rep.b_groupoid_equal
        assert rep.amenable and rep.fredholm

    def test_3d_cone_string(self):
        rep = co.boundary_algebra_report(co.assemble_layer_groupoid(co.cone_3d()))
        assert rep.algebra == "C0(R+) (x) K"
        assert rep.b_groupoid_equal

    def test_three_ray_vertex_summand(self):
        v = co.Vertex("w", co.RayBase((0.0, 1.0, 2.0)))
        d = co.LayerDomain(2, (v,))
        rep = co.boundary_algebra_report(co.assemble_layer_groupoid(d))
        assert rep.summands == ("M_3(C0(R+))",)

    def test_b_equal_iff_all_components_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            desc = gen.random_toy_descriptor(rng)
            rep = co.boundary_algebra_report(desc)
            assert rep.b_groupoid_equal == all(k == 1 for k in desc.component_counts())


class TestToyModel:
    def test_square_toy_counts(self):
        L = co.assemble_layer_groupoid(co.unit_square())
        toy = co.finite_toy_model(L, m=2, interior_points=3)
        gf = gl.reduction(toy.groupoid, toy.boundary_units)
        assert gf.n_arrows == 4 * (2 * 2 * 2)  # sum of k^2 m over vertices
        assert gl.validate(toy.groupoid).ok

    def test_m_one_boundary_is_disjoint_pairs(self):
        v = co.Vertex("w", co.RayBase((0.0, 1.0)))
        L = co.assemble_layer_groupoid(co.LayerDomain(2, (v,)))
        toy = co.finite_toy_model(L, m=1, interior_points=1)
        gf = gl.reduction(toy.groupoid, toy.boundary_units)
        assert gl.is_pair_groupoid(gf)

    def test_toy_passes_structure_and_recognition(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            toy = gen.random_toy_structure(rng)
            assert gl.validate(toy.groupoid).ok
            rec = fr.recognize_boundary_bundle(toy.structure)
            assert rec.verified
            for fiber in rec.fibers:
                assert gl.find_group_isomorphism(fiber, gl.GroupTable.cyclic(toy.cyclic_order))

    def test_attach_ends_matches_glue_for_single_vertex(self):
        # one cone: the two-piece attach route and the atlas route agree
        from gpdlab.gluing import attach_ends

        v = co.Vertex("w", co.RayBase((0.0, 1.0)))
        L = co.assemble_layer_groupoid(co.LayerDomain(2, (v,)))
        toy = co.finite_toy_model(L, m=2, interior_points=1)

        boundary_piece = None
        for piece in toy.glued.atlas.pieces[1:]:
            boundary_piece = piece.groupoid
        pair_piece = gl.build_pair(toy.interior_units)
        attached = attach_ends(pair_piece, boundary_piece)
        assert gl.find_isomorphism(attached.groupoid, toy.groupoid) is not None

    def test_bad_parameters(self):
        L = co.assemble_layer_groupoid(co.unit_square())
        with pytest.raises(co.DomainError):
            co.finite_toy_model(L, m=0)
        with pytest.raises(co.DomainError):
            co.finite_toy_model(L, m=1, interior_points=-1)

    def test_orbit_structure(self):
        toy = gen.random_toy_structure(np.random.default_rng(3))
        part = gl.orbits_and_isotropy(toy.groupoid)
        interior_orbit = next(o for o in part.orbits if toy.interior_units[0] in o)
        assert interior_orbit == frozenset(toy.interior_units)
        assert len(part.orbits) == 1 + toy.structure.boundary_orbits.__len__()


class TestWeightLine:
    def test_boundary_weights(self):
        assert co.weight_line(2).boundary_weight == 0.5
        assert co.weight_line(3).boundary_weight == 1.0

    def test_volume_weights(self):
        assert co.weight_line(2).volume_weight == 1.0
        assert co.weight_line(4).volume_weight == 2.0

    def test_metric_tag(self):
        w = co.weight_line(2)
        assert "r^{-2}" in w.metric

    def test_bad_dimension(self):
        with pytest.raises(co.DomainError):
            co.weight_line(1)
