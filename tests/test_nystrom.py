import math
from pathlib import Path

import numpy as np
import pytest

from gpdlab import conical as co
from gpdlab import mellin as me
from gpdlab import nystrom as ny
from gpdlab import specfiles as sf

import reference

POLYGONS = {
    "square": co.unit_square,
    "pentagon": lambda: co.regular_polygon(5),
    "lshape": lambda: sf.parse_domain(Path(ny.__file__).parent / "corpus" / "lshape.json"),
}


def permuted(mesh, rng):
    """The same mesh with its nodes in random order, so edges are not contiguous."""
    p = rng.permutation(len(mesh.nodes))
    return ny.PolygonMesh(mesh.nodes[p], mesh.weights[p], mesh.normals[p], mesh.edge_of[p],
                          mesh.vertex_distance[p])


class TestMesh:
    def test_node_counts(self):
        mesh = ny.polygon_mesh(co.unit_square(), 4)
        assert len(mesh.nodes) == 4 * 2 * 4
        mesh = ny.polygon_mesh(co.regular_polygon(5), 8)
        assert len(mesh.nodes) == 5 * 2 * 8

    def test_too_coarse_rejected(self):
        with pytest.raises(ny.MeshError, match="coarse"):
            ny.polygon_mesh(co.unit_square(), 3)

    def test_weights_sum_to_perimeter(self):
        mesh = ny.polygon_mesh(co.unit_square(), 16)
        assert mesh.weights.sum() == pytest.approx(4.0)

    def test_grading_clusters_nodes_at_vertices(self):
        mesh = ny.polygon_mesh(co.unit_square(), 32)
        # the first node sits inside the first graded panel of width (1/n)^3 L/2
        assert mesh.vertex_distance.min() < (1.0 / 32) ** 3 * 0.5
        assert mesh.vertex_distance.min() > 0.0

    def test_non_planar_rejected(self):
        with pytest.raises(ny.MeshError):
            ny.polygon_mesh(co.cone_3d(), 8)


class TestDoubleLayerMatrix:
    def test_same_edge_blocks_vanish(self):
        mesh = ny.polygon_mesh(co.unit_square(), 8)
        kmat = ny.double_layer_matrix(mesh)
        same = mesh.edge_of[:, None] == mesh.edge_of[None, :]
        assert np.max(np.abs(kmat[same])) == 0.0

    @pytest.mark.parametrize("name", sorted(POLYGONS))
    def test_matches_einsum_assembly(self, name):
        mesh = ny.polygon_mesh(POLYGONS[name](), 16)
        for m in (mesh, permuted(mesh, np.random.default_rng(3))):
            assert np.max(np.abs(ny.double_layer_matrix(m) - reference.double_layer_reference(m))) <= 1e-15

    def test_gauss_row_sums(self):
        # closed-curve identity: the kernel integrates to 1/2 with inward
        # normals; checked away from the corners
        defect = ny.gauss_row_sum_defect(ny.polygon_mesh(co.unit_square(), 32))
        assert defect < 2e-4
        defect5 = ny.gauss_row_sum_defect(ny.polygon_mesh(co.regular_polygon(5), 32))
        assert defect5 < 2e-3


class TestPolygonTrace:
    def test_square_trace_positive_and_stabilizing(self):
        trace = ny.nystrom_oracle(co.unit_square(), levels=5)
        sig = trace.sigmas()
        assert all(s > 0.1 for s in sig)
        assert trace.stabilized(0.10)
        # decreasing toward the essential bound, never collapsing
        assert all(a >= b for a, b in zip(sig[:-1], sig[1:]))

    def test_level_bounds(self):
        with pytest.raises(ny.MeshError):
            ny.nystrom_oracle(co.unit_square(), levels=0)
        with pytest.raises(ny.MeshError):
            ny.nystrom_oracle(co.unit_square(), levels=9)

    def test_csv_format(self):
        trace = ny.nystrom_oracle(co.unit_square(), levels=2)
        lines = trace.as_csv().strip().splitlines()
        assert lines[0] == "level,dof,sigma_min"
        assert len(lines) == 3


class TestGramSigmaMin:
    @pytest.mark.parametrize("name", sorted(POLYGONS))
    def test_matches_full_svd(self, name):
        domain = POLYGONS[name]()
        got = ny.nystrom_oracle(domain, levels=6).sigmas()
        want = reference.nystrom_sigmas_reference(domain, 6)
        assert all(abs(g - w) <= 1e-10 * w for g, w in zip(got, want))

    @pytest.mark.parametrize("s_min", [0.0, 1e-6])
    def test_near_singular_input(self, s_min):
        n, rng = 64, np.random.default_rng(5)
        u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        s = np.geomspace(1.0, 1e-3, n)
        s[-1] = s_min
        # unit density: the weighted matrix is the matrix itself
        ones = np.ones(n)
        mesh = ny.PolygonMesh(np.zeros((n, 2)), ones, np.zeros((n, 2)), np.arange(n), ones)
        sigma = ny.weighted_sigma_min((u * s) @ v.T, mesh)
        assert math.isfinite(sigma) and sigma >= 0.0
        assert abs(sigma - s_min) <= math.sqrt(n * np.finfo(float).eps) * s[0]


class TestModelOperator:
    def test_wedge_model_converges_to_scan_minimum(self):
        k = me.wedge_double_layer_kernel(math.pi / 2)
        trace = ny.model_operator_trace(k, 0.5, 0.5, levels=6, window0=4.0, growth=2.0)
        golden = 0.5 - math.sqrt(2) / 4
        assert trace.rows[-1].sigma_min == pytest.approx(golden, abs=0.01)
        assert trace.stabilized(0.10)

    def test_forced_zero_collapses(self):
        k = me.forced_zero_kernel(0.5)
        trace = ny.model_operator_trace(k, 0.5, 0.5, levels=6, window0=4.0, growth=2.0)
        assert trace.decay_factor() >= 10.0
        sig = trace.sigmas()
        assert all(a > b for a, b in zip(sig[:-1], sig[1:]))

    def test_zero_kernel_model_is_constant(self):
        k = me.wedge_double_layer_kernel(math.pi)
        trace = ny.model_operator_trace(k, 0.5, 0.5, levels=3, window0=4.0, growth=2.0)
        assert all(s == pytest.approx(0.5, abs=1e-12) for s in trace.sigmas())

    def test_matrix_kernel_blocks(self):
        k = me.wedge_double_layer_kernel(2.0)
        trace = ny.model_operator_trace(k, 0.5, 0.5, levels=3, window0=4.0, growth=2.0)
        assert trace.rows[0].dof == 2 * max(8, int(round(4.0 / 0.4)))
