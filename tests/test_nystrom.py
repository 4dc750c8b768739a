import math
import tracemalloc
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


def random_triangle(seed=11):
    """Three seeded points in counterclockwise order: no rotation or reflection maps it onto itself."""
    pts = np.random.default_rng(seed).random((3, 2))
    a, b, c = pts
    if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0:
        pts = pts[::-1]
    return co.polygon_domain(pts)


def moved_square():
    """The unit square with one vertex moved by 1e-9."""
    return co.polygon_domain([(0, 0), (1, 0), (1, 1 + 1e-9), (0, 1)])


def pinwheel(k=4):
    """2k vertices, each pair the previous one turned by 2 pi / k: k rotations, no reflection."""
    turns = [np.exp(2j * math.pi * r / k) for r in range(k)] if k != 4 else [1j**r for r in range(4)]
    return co.polygon_domain([(z.real, z.imag) for w in turns for z in (w, w * (0.6 + 0.3j))])


# shape -> (rotation order, reflection): sigma_min is read from one block per
# irreducible representation of that group
SYMMETRIES = {
    "square": (co.unit_square, 4, True),
    "pentagon": (POLYGONS["pentagon"], 5, True),
    "rectangle": (lambda: co.polygon_domain([(0, 0), (2, 0), (2, 1), (0, 1)]), 2, True),
    **{f"regular{n}": (lambda n=n: co.regular_polygon(n), n, True) for n in (3, 4, 6, 7, 8)},
    "lshape": (POLYGONS["lshape"], 1, True),
    "isosceles": (lambda: co.polygon_domain([(0, 0), (2, 0), (1, 1.5)]), 1, True),
    "kite": (lambda: co.polygon_domain([(0, -1), (1, 0), (0, 2), (-1, 0)]), 1, True),
    "pinwheel": (pinwheel, 4, False),
    "random-triangle": (random_triangle, 1, False),
    "moved-square": (moved_square, 1, False),
    # apex 36.9 degrees: mirror-image nodes placed from each edge's first
    # vertex would agree only to rounding (see TestMirrorImages)
    "sharp-isosceles": (lambda: co.polygon_domain([(0, 0), (2, 0), (1, 3)]), 1, True),
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

    def test_clockwise_vertices_rejected(self):
        # a domain built in code, without polygon_domain or the spec-file
        # parser, is refused when it is built, so no mesh is made of it
        square = co.unit_square()
        with pytest.raises(co.DomainError, match=r"counterclockwise order \(signed area -1\)"):
            co.LayerDomain(2, square.vertices[::-1], square.edges)

    def test_non_planar_rejected(self):
        with pytest.raises(ny.MeshError):
            ny.polygon_mesh(co.cone_3d(), 8)

    @pytest.mark.parametrize("name", sorted(POLYGONS))
    def test_matches_node_by_node_layout(self, name):
        domain = POLYGONS[name]()
        for panels in (4, 8, 16, 32, 64, 128):
            got, want = ny.polygon_mesh(domain, panels), reference.polygon_mesh_reference(domain, panels)
            for field in ("nodes", "weights", "normals", "edge_of", "vertex_distance"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (panels, field)


def whole_matrix(mesh):
    """The whole reference matrix and its orbit-representative rows."""
    full = reference.double_layer_reference(mesh)
    return full, full[: len(full) // mesh.symmetry_order]


class TestRotationOrder:
    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_detected(self, name):
        make, k, reflection = SYMMETRIES[name]
        mesh = ny.polygon_mesh(make(), 4)
        assert (mesh.rotation_order, mesh.reflection) == (k, reflection)
        assert mesh.symmetry_order == k * (2 if reflection else 1)

    @pytest.mark.parametrize("start", range(4))
    def test_square_from_each_vertex(self, start):
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        domain = co.polygon_domain(corners[start:] + corners[:start])
        assert ny.polygon_mesh(domain, 4).rotation_order == 4

    @pytest.mark.parametrize("start", range(3))
    def test_isosceles_from_each_vertex(self, start):
        # the reflection maps vertex i onto vertex c - i with c = 1, 2, 0: the
        # node list begins at node c p of the layout, p panels per half edge
        corners = [(0, 0), (2, 0), (1, 3)]
        domain = co.polygon_domain(corners[start:] + corners[:start])
        mesh, want = ny.polygon_mesh(domain, 4), reference.polygon_mesh_reference(domain, 4)
        assert (mesh.rotation_order, mesh.reflection) == (1, True)
        for field in ("nodes", "weights", "normals", "edge_of", "vertex_distance"):
            assert np.array_equal(getattr(mesh, field), np.roll(getattr(want, field), -[4, 8, 0][start], axis=0))

    def test_hand_built_mesh_is_one_block(self):
        mesh = ny.polygon_mesh(co.unit_square(), 4)
        got = permuted(mesh, np.random.default_rng(0))
        assert (got.rotation_order, got.reflection, got.symmetry_order) == (1, False, 1)

    @pytest.mark.parametrize("name", ["square", "pentagon", "regular6", "rectangle"])
    def test_whole_matrix_is_block_circulant(self, name):
        make, k, _ = SYMMETRIES[name]
        mesh = ny.polygon_mesh(make(), 8)
        full = reference.double_layer_reference(mesh)
        b = len(full) // k
        for r in range(k):
            # block row r is block row 0 with its blocks moved r places right
            assert np.allclose(full[r * b:(r + 1) * b], np.roll(full[:b], r * b, axis=1),
                               rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_whole_matrix_commutes_with_the_group(self, name):
        # A[P i, P j] = A[i, j] for every symmetry P, reflections included,
        # and a brute-force search finds exactly |G| of them
        domain = SYMMETRIES[name][0]()
        mesh = ny.polygon_mesh(domain, 8)
        full = reference.double_layer_reference(mesh)
        perms = reference.polygon_symmetries_reference(domain, mesh)
        assert len(perms) == mesh.symmetry_order
        for p in perms:
            assert np.allclose(full[np.ix_(p, p)], full, rtol=0.0, atol=1e-12)
        # and the representative rows rebuild the whole matrix
        _, rows = whole_matrix(mesh)
        assert np.allclose(reference.group_matrix_reference(rows, mesh, perms), full,
                           rtol=0.0, atol=1e-12)

    def test_eigensolver_sees_only_fourier_blocks(self, monkeypatch):
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: shapes.append(g.shape) or eigvalsh(g))
        trace = ny.nystrom_oracle(co.unit_square(), 5)
        assert (trace.rotation_order, trace.symmetry_order) == (4, 8) and shapes
        n = trace.rows[-1].dof
        assert max(rows for rows, _ in shapes) <= 2 * n // 8

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_eigensolver_sees_at_most_twice_the_orbit_count(self, name, monkeypatch):
        make, k, reflection = SYMMETRIES[name]
        mesh = ny.polygon_mesh(make(), 16)
        a = ny.double_layer_matrix(mesh)
        blocks, shapes, gram, eigvalsh = [], [], ny._gram, np.linalg.eigvalsh
        monkeypatch.setattr(ny, "_gram", lambda f: blocks.append(f.shape) or gram(f))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: shapes.append(g.shape) or eigvalsh(g))
        ny.weighted_sigma_min(a, mesh)
        b = len(mesh.nodes) // mesh.symmetry_order
        # one block per irreducible representation, up to conjugation: D_k has
        # 2 or 4 of dimension 1 and (k - 1) // 2 of dimension 2; C_k has k // 2 + 1
        one = 2 if k % 2 else 4
        want = ([b] * one + [2 * b] * ((k - 1) // 2)) if reflection else [b] * (k // 2 + 1)
        assert sorted(rows for rows, _ in blocks) == want
        assert all(r == c for r, c in blocks)
        # the eigensolver sees some of those blocks' Gram matrices, the first always
        assert shapes and set(shapes) <= set(blocks)


def characters(k, reflection):
    """The character of each entry of ``_representations``, over R^r then R^r S, and whether it is complex."""
    out = []
    for at_rotations, at_reflections in ny._representations(k, reflection):
        elements = at_rotations if at_reflections is None else np.concatenate([at_rotations, at_reflections])
        out.append((np.trace(elements, axis1=1, axis2=2), np.iscomplexobj(at_rotations)))
    return out


class TestRepresentations:
    @pytest.mark.parametrize("reflection", [False, True])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_group_laws(self, k, reflection):
        for at_rotations, at_reflections in ny._representations(k, reflection):
            d = at_rotations.shape[1]
            assert at_rotations.shape == (k, d, d)
            rotation = at_rotations[1 % k]
            for r in range(k + 1):
                want = np.eye(d) if r == k else at_rotations[r]
                assert np.allclose(np.linalg.matrix_power(rotation, r), want, rtol=0.0, atol=1e-14)
            if d == 1 and not np.iscomplexobj(at_rotations):
                assert set(at_rotations.ravel().tolist()) <= {-1.0, 1.0}  # exact signs
            if at_reflections is None:
                assert not reflection
                continue
            assert reflection and at_reflections.shape == (k, d, d)
            s = at_reflections[0]
            assert np.allclose(s @ s, np.eye(d), rtol=0.0, atol=1e-14)
            assert np.allclose(s @ rotation @ s, np.linalg.inv(rotation), rtol=0.0, atol=1e-14)
            assert np.allclose(at_reflections, at_rotations @ s, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("reflection", [False, True])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_irreducible_distinct_and_complete(self, k, reflection):
        order = k * (2 if reflection else 1)
        chars = characters(k, reflection)
        # a complex entry stands for itself and its conjugate
        listed = [chi for chi, complex_ in chars for chi in ([chi, chi.conj()] if complex_ else [chi])]
        for a, chi in enumerate(listed):
            for b, psi in enumerate(listed):
                assert abs(np.vdot(psi, chi) - (order if a == b else 0.0)) <= 1e-12
        assert sum(chi[0].real ** 2 for chi in listed) == pytest.approx(order, abs=1e-12)


class TestDoubleLayerMatrix:
    def test_same_edge_blocks_vanish(self):
        mesh = ny.polygon_mesh(co.unit_square(), 8)
        kmat = ny.double_layer_matrix(mesh)
        assert kmat.shape == (len(mesh.nodes) // 8, len(mesh.nodes))
        same = mesh.edge_of[: len(kmat), None] == mesh.edge_of[None, :]
        assert np.max(np.abs(kmat[same])) == 0.0

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_matches_einsum_assembly(self, name):
        # the N / |G| representative rows, against the reference's rows
        mesh = ny.polygon_mesh(SYMMETRIES[name][0](), 16)
        for m in (mesh, permuted(mesh, np.random.default_rng(3))):
            kmat = ny.double_layer_matrix(m)
            assert kmat.shape == (len(m.nodes) // m.symmetry_order, len(m.nodes))
            assert np.max(np.abs(kmat - whole_matrix(m)[1])) <= 1e-15

    def test_gauss_row_sums(self):
        # closed-curve identity: the kernel integrates to 1/2 with inward
        # normals; checked away from the corners
        defect = ny.gauss_row_sum_defect(ny.polygon_mesh(co.unit_square(), 32))
        assert defect < 2e-4
        defect5 = ny.gauss_row_sum_defect(ny.polygon_mesh(co.regular_polygon(5), 32))
        assert defect5 < 2e-3

    @pytest.mark.parametrize("name", ["lshape", "isosceles", "pinwheel", "random-triangle"])
    def test_gauss_row_sums_read_every_orbit_of_edges(self, name):
        # each edge orbit has a representative row at the node nearest its
        # midpoint, so the defect is the whole matrix's
        mesh = ny.polygon_mesh(SYMMETRIES[name][0](), 32)
        full = reference.double_layer_reference(mesh)
        sums, want = full.sum(axis=1), 0.0
        for e in np.unique(mesh.edge_of):
            sel = np.flatnonzero(mesh.edge_of == e)
            want = max(want, abs(sums[sel[np.argmax(mesh.vertex_distance[sel])]] - 0.5))
        assert ny.gauss_row_sum_defect(mesh) == pytest.approx(want, rel=1e-9, abs=1e-15)


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
    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_matches_full_svd(self, name):
        make, k, reflection = SYMMETRIES[name]
        domain = make()
        trace = ny.nystrom_oracle(domain, levels=6)
        want = reference.nystrom_sigmas_reference(domain, 6)
        assert (trace.rotation_order, trace.symmetry_order) == (k, k * (2 if reflection else 1))
        assert all(abs(g - w) <= 1e-10 * w for g, w in zip(trace.sigmas(), want))

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_matches_svd_of_the_group_matrix(self, name):
        # the blocks give exactly the singular values of the matrix that the
        # representative rows define
        domain = SYMMETRIES[name][0]()
        for level in range(1, 6):
            mesh = ny.polygon_mesh(domain, 4 * 2 ** (level - 1))
            a = ny.double_layer_matrix(mesh)
            a[np.arange(len(a)), np.arange(len(a))] += 0.5
            d = np.sqrt(mesh.weights / mesh.vertex_distance)
            rows = a * d[: len(a), None] / d
            perms = reference.polygon_symmetries_reference(domain, mesh)
            want = np.linalg.svd(reference.group_matrix_reference(rows, mesh, perms), compute_uv=False)[-1]
            got = ny.weighted_sigma_min(a, mesh)
            assert abs(got - want) <= 1e-12 * want, (level, got, want)

    @pytest.mark.parametrize("name", ["random-triangle", "moved-square", "permuted-square"])
    def test_trivial_group_is_the_rotation_route_bit_for_bit(self, name):
        for level in range(1, 7):
            panels = 4 * 2 ** (level - 1)
            if name == "permuted-square":
                mesh = permuted(ny.polygon_mesh(co.unit_square(), panels), np.random.default_rng(level))
            else:
                mesh = ny.polygon_mesh(SYMMETRIES[name][0](), panels)
            assert mesh.symmetry_order == 1
            a = ny.double_layer_matrix(mesh)
            a[np.arange(len(a)), np.arange(len(a))] += 0.5
            want = reference.weighted_sigma_min_reference(a.copy(), mesh)
            assert ny.weighted_sigma_min(a, mesh) == want

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


def eigvalsh_calls_per_level(domain, levels, monkeypatch):
    """nystrom_oracle(domain, levels) and the number of eigvalsh calls at each level."""
    counts, mesh, eigvalsh = [], ny.polygon_mesh, np.linalg.eigvalsh
    monkeypatch.setattr(ny, "polygon_mesh", lambda *args: counts.append(0) or mesh(*args))

    def counted(g):
        counts[-1] += 1
        return eigvalsh(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return ny.nystrom_oracle(domain, levels), counts


class TestBlockPruning:
    """Blocks certified above the running minimum are not eigen-solved; the
    oracle is the loop that eigen-solves every block."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIES) + ["pinwheel5", "corpus-square", "corpus-pentagon"])
    def test_equals_every_block_solved_bit_for_bit(self, name):
        if name.startswith("corpus-"):
            domain = sf.parse_domain(Path(ny.__file__).parent / "corpus" / f"{name[7:]}.json")
        else:
            domain = pinwheel(5) if name == "pinwheel5" else SYMMETRIES[name][0]()
        want = []
        for level in range(1, 7):
            mesh = ny.polygon_mesh(domain, ny.BASE_PANELS * 2 ** (level - 1))
            want.append(reference.weighted_sigma_min_every_block_reference(ny._half_plus_k(mesh), mesh))
            a = ny._half_plus_k(mesh)
            assert ny.weighted_sigma_min(a, mesh) == want[-1]
        assert ny.nystrom_oracle(domain, 6).sigmas() == want

    @pytest.mark.parametrize("name, counts", [
        ("square", [4, 1, 1, 1, 1, 1]),
        ("lshape", [1, 1, 1, 1, 1, 1]),
        ("random-triangle", [1, 1, 1, 1, 1, 1]),
    ])
    def test_eigensolver_calls_per_level(self, name, counts, monkeypatch):
        # from level 2 the block that held the minimum is solved first, and
        # every other block of the square and the L-shape is certified above it
        trace, got = eigvalsh_calls_per_level(SYMMETRIES[name][0](), 6, monkeypatch)
        assert got == counts
        assert len(trace.rows) == 6

    def test_certificate_skips_only_blocks_clearly_above(self):
        n, rng = 64, np.random.default_rng(9)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        eps = np.finfo(float).eps
        for lam_min, certified in ((2.0, True), (1.0 + 1e-9, True), (1.0, False), (0.5, False)):
            lams = np.linspace(lam_min, 10.0, n)
            gram = (q * lams) @ q.T
            gram = 0.5 * (gram + gram.T)
            delta = 8 * n * eps * np.trace(gram)
            kept = gram.copy()
            assert ny._certified_above(gram, 1.0) is certified
            assert gram.tobytes() == kept.tobytes()  # the diagonal is written back exactly
            # inside delta above tau: still eigen-solved
            assert not ny._certified_above(gram, lam_min - 0.5 * delta)

    def test_complex_gram_equals_the_conjugate_product(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
        got = ny._gram(f)
        want = f.conj().T @ f
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestMirrorImages:
    def test_mirror_image_nodes_agree_to_the_last_bit(self):
        # each node is placed from its nearer vertex, so the reflection of the
        # sharp triangle maps weights and vertex distances onto themselves
        domain = SYMMETRIES["sharp-isosceles"][0]()
        mesh = ny.polygon_mesh(domain, 128)
        for p in reference.polygon_symmetries_reference(domain, mesh):
            assert np.array_equal(mesh.vertex_distance[p], mesh.vertex_distance)
            assert np.array_equal(mesh.weights[p], mesh.weights)

    @pytest.mark.parametrize("name", ["sharp-isosceles", "isosceles", "kite", "lshape"])
    def test_whole_matrix_and_its_symmetric_part_agree(self, name):
        # level 6: the sharp triangle read 7.1e-10 apart when the far half of
        # each edge was placed from the edge's first vertex
        domain = SYMMETRIES[name][0]()
        mesh = ny.polygon_mesh(domain, 128)
        full = 0.5 * np.eye(len(mesh.nodes)) + reference.double_layer_reference(mesh)
        d = np.sqrt(mesh.weights / mesh.vertex_distance)
        full = d[:, None] * full / d
        rows = full[: len(full) // mesh.symmetry_order]
        perms = reference.polygon_symmetries_reference(domain, mesh)
        whole = np.linalg.svd(full, compute_uv=False)[-1]
        symmetric = np.linalg.svd(reference.group_matrix_reference(rows, mesh, perms), compute_uv=False)[-1]
        assert abs(whole - symmetric) <= 1e-12 * whole


class TestMemory:
    @pytest.mark.parametrize("name", ["random-triangle", "lshape", "square", "pinwheel5"])
    def test_a_level_holds_two_arrays_of_the_rows_size(self, name):
        # the representative rows (N / |G| x N) and one Gram-sized array;
        # the eigensolver's own copy of the Gram matrix is not traced.  The
        # five-fold pinwheel's complex blocks take their Gram matrices
        # without a conjugate copy of F (2.21 x with one)
        domain = pinwheel(5) if name == "pinwheel5" else SYMMETRIES[name][0]()
        tracemalloc.start()
        try:
            trace = ny.nystrom_oracle(domain, levels=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = trace.rows[-1].dof
        assert peak <= 2.1 * (n // trace.symmetry_order) * n * 8


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

    @pytest.mark.parametrize("alpha", [math.pi / 2, 2.0])
    def test_scalar_and_array_kernels_give_the_same_trace(self, alpha):
        # the trace samples the kernel once per level through MellinKernel.values
        calls = []
        base = me.wedge_double_layer_kernel(alpha)

        def fn(t):
            calls.append(t)
            return base.fn(t)

        scalar = me.MellinKernel(base.vertex, 2, fn, base.decay, "scalar-wedge")
        kwargs = dict(levels=3, window0=4.0, growth=2.0)
        want = ny.model_operator_trace(base, 0.5, 0.5, **kwargs).sigmas()
        assert ny.model_operator_trace(scalar, 0.5, 0.5, **kwargs).sigmas() == want
        sizes = [max(8, int(round(4.0 * 2.0 ** (level - 1) / 0.4))) for level in (1, 2, 3)]
        assert len(calls) == sum(2 * n - 1 for n in sizes)
