import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpdlab as gl
from gpdlab import algebra as al

import gen
import reference


def pair3():
    return gl.build_pair(range(3))


def as_matrix(e, n=3):
    m = np.zeros((n, n), dtype=complex)
    for (x, y), c in e.as_dict().items():
        m[x, y] = c
    return m


def convolve_bruteforce(a, b):
    # independent oracle: triple loop over arrows and explicit factorizations
    g = a.groupoid
    out = {}
    for gp in g.arrows:
        for h in g.arrows:
            if g.is_composable(gp, h):
                k = g.mul(gp, h)
                out[k] = out.get(k, 0) + a.coeff(gp) * b.coeff(h)
    return al.AlgebraElement.from_dict(g, out)


class TestConvolution:
    def test_delta_convolution(self):
        g = pair3()
        d1 = al.AlgebraElement.delta(g, (0, 1))
        d2 = al.AlgebraElement.delta(g, (1, 2))
        prod = al.convolve(d1, d2)
        assert prod.as_dict() == {(0, 2): 1.0}
        # non-composable order gives zero
        assert al.convolve(d2, d1).as_dict() == {}

    def test_pair_convolution_is_matrix_multiplication(self):
        g = pair3()
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = al.random_element(g, rng), al.random_element(g, rng)
            lhs = as_matrix(al.convolve(a, b))
            rhs = as_matrix(a) @ as_matrix(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_matches_bruteforce_oracle_on_random_groupoids(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            g = gen.random_groupoid(rng, max_arrows=40)
            if g.n_arrows == 0:
                continue
            a, b = al.random_element(g, rng), al.random_element(g, rng)
            fast = al.convolve(a, b)
            slow = convolve_bruteforce(a, b)
            assert np.max(np.abs(fast.vec - slow.vec)) < 1e-12

    def test_one_object_z2_formula(self):
        g = gl.build_group_bundle(["*"], gl.GroupTable.cyclic(2))
        a = al.AlgebraElement.from_dict(g, {("*", 0): 2.0, ("*", 1): 3.0})
        b = al.AlgebraElement.from_dict(g, {("*", 0): 5.0, ("*", 1): 7.0})
        prod = al.convolve(a, b)
        # (a0 b0 + a1 b1, a0 b1 + a1 b0)
        assert prod.coeff(("*", 0)) == pytest.approx(2 * 5 + 3 * 7)
        assert prod.coeff(("*", 1)) == pytest.approx(2 * 7 + 3 * 5)

    def test_mismatched_groupoids_rejected(self):
        with pytest.raises(al.AlgebraError):
            al.convolve(
                al.AlgebraElement.zero(pair3()), al.AlgebraElement.zero(pair3())
            )


class TestStarAndNorms:
    def test_star_of_delta(self):
        g = pair3()
        assert al.star(al.AlgebraElement.delta(g, (0, 1))).as_dict() == {(1, 0): 1.0}

    def test_delta_l1_norm(self):
        g = pair3()
        assert al.l1_norm(al.AlgebraElement.delta(g, (0, 1))) == 1.0

    def test_all_ones_pair2(self):
        g = gl.build_pair(range(2))
        assert al.l1_norm(al.AlgebraElement(g, np.ones(4))) == 2.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_l1_submultiplicative_and_star_isometric(self, seed):
        rng = np.random.default_rng(seed)
        g = gen.random_groupoid(rng, max_arrows=40)
        if g.n_arrows == 0:
            return
        a, b = al.random_element(g, rng), al.random_element(g, rng)
        assert al.l1_norm(al.convolve(a, b)) <= al.l1_norm(a) * al.l1_norm(b) + 1e-10
        assert al.l1_norm(al.star(a)) == pytest.approx(al.l1_norm(a))
        assert np.max(np.abs(al.star(al.star(a)).vec - a.vec)) == 0.0

    def test_reduced_norm_pair_is_sigma_max(self):
        g = pair3()
        rng = np.random.default_rng(3)
        a = al.random_element(g, rng)
        oracle = np.linalg.svd(as_matrix(a), compute_uv=False)[0]
        assert al.reduced_norm(a) == pytest.approx(oracle, abs=1e-12)

    def test_reduced_norm_z2(self):
        g = gl.build_group_bundle(["*"], gl.GroupTable.cyclic(2))
        a = al.AlgebraElement.from_dict(g, {("*", 0): 1.0, ("*", 1): 1.0})
        # eigenvalues a0 +- a1
        assert al.reduced_norm(a) == pytest.approx(2.0)

    def test_unit_element_norm_one(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = gen.random_groupoid(rng, max_arrows=40)
            if g.n_units == 0:
                continue
            assert al.reduced_norm(al.AlgebraElement.unit(g)) == pytest.approx(1.0)


class TestRegularRep:
    def test_unit_maps_to_identity(self):
        g = pair3()
        m = al.regular_rep(al.AlgebraElement.unit(g), 1).matrix
        assert np.array_equal(m, np.eye(3))

    def test_pair_rep_is_coefficient_matrix(self):
        g = pair3()
        rng = np.random.default_rng(5)
        a = al.random_element(g, rng)
        rep = al.regular_rep(a, 0)
        mat = as_matrix(a)
        perm = [r for (r, d) in rep.fiber]  # fiber arrows are (y, 0)
        assert np.max(np.abs(rep.matrix - mat[np.ix_(perm, perm)])) < 1e-12

    def test_star_homomorphism_laws(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            g = gen.random_groupoid(rng, max_arrows=50)
            if g.n_units == 0:
                continue
            x = g.units[int(rng.integers(g.n_units))]
            a, b = al.random_element(g, rng), al.random_element(g, rng)
            pa = al.regular_rep(a, x).matrix
            pb = al.regular_rep(b, x).matrix
            pab = al.regular_rep(al.convolve(a, b), x).matrix
            assert np.max(np.abs(pab - pa @ pb)) < 1e-10
            pstar = al.regular_rep(al.star(a), x).matrix
            assert np.max(np.abs(pstar - pa.conj().T)) < 1e-12
            assert al.operator_norm(pa) <= al.l1_norm(a) + 1e-10

    def test_cstar_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            g = gen.random_groupoid(rng, max_arrows=50)
            if g.n_arrows == 0:
                continue
            a = al.random_element(g, rng)
            lhs = al.reduced_norm(al.convolve(al.star(a), a))
            assert abs(lhs - al.reduced_norm(a) ** 2) < 1e-10 * max(1.0, lhs)

    def test_unknown_unit(self):
        with pytest.raises(gl.GroupoidError):
            al.regular_rep(al.AlgebraElement.zero(pair3()), 99)


def per_entry_matrix(a, fiber):
    """Regular-representation matrix built entry by entry through g.mul."""
    g, aidx = a.groupoid, a.groupoid.arrow_index()
    return np.array([[a.vec[aidx[g.mul(x, g.inverse[y])]] for y in fiber] for x in fiber])


class TestAboveOldTableCap:
    @pytest.fixture(scope="class")
    def big(self):
        g = gl.build_product(gl.build_pair(range(24)), gl.build_group_bundle(["*"], gl.GroupTable.cyclic(4)))
        assert g.n_arrows == 2304
        return g, al.random_element(g, np.random.default_rng(21))

    def test_regular_rep_matches_per_entry_build(self, big):
        g, a = big
        for x in (g.units[0], g.units[-1]):
            rep = al.regular_rep(a, x)
            assert len(rep.fiber) == 96
            assert np.array_equal(rep.matrix, per_entry_matrix(a, rep.fiber))

    def test_block_matrices_match_per_entry_build(self, big):
        g, a = big
        dec = al.block_decompose(g)
        (block,) = dec.blocks
        (mat,) = dec.matrices(a)
        assert np.array_equal(mat, per_entry_matrix(a, block.fiber))

    def test_undefined_product_raises(self):
        g = pair3()
        compose = dict(g.compose)
        del compose[((1, 0), (0, 2))]
        bad = gl.FiniteGroupoid(g.units, g.arrows, g.dom, g.rng, g.unit_arrow, g.inverse, compose)
        with pytest.raises(gl.GroupoidError, match="not composable"):
            al.regular_rep(al.AlgebraElement.unit(bad), 0)


class TestRestriction:
    def toy(self):
        du = gl.build_disjoint_union(
            [gl.build_pair(range(3)), gl.build_group_bundle(["z"], gl.GroupTable.cyclic(2))]
        )
        return du, [(1, "z")]

    def test_interior_support_restricts_to_zero(self):
        g, f = self.toy()
        a = al.AlgebraElement.delta(g, (0, (0, 1)))
        restricted, report = al.restrict_boundary(a, f)
        assert np.max(np.abs(restricted.vec)) == 0.0
        assert report.ok

    def test_kernel_dimension_counts(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = gen.random_groupoid(rng, max_arrows=60)
            part = gl.orbits_and_isotropy(g, check=False)
            if len(part.orbits) < 2:
                continue
            f = part.orbits[0]
            a = al.random_element(g, rng)
            _, report = al.restrict_boundary(a, f)
            assert report.kernel_dim == report.ideal_arrow_count
            assert report.kernel_dim + report.restricted_dim == report.total_dim
            assert report.ok

    def test_non_invariant_subset_rejected(self):
        g = pair3()
        a = al.AlgebraElement.zero(g)
        with pytest.raises(al.AlgebraError, match="invariant"):
            al.restrict_boundary(a, [0])

    def test_boundary_restriction_matches_block(self):
        g, f = self.toy()
        rng = np.random.default_rng(9)
        a = al.random_element(g, rng)
        restricted, _ = al.restrict_boundary(a, f)
        # the regular representation at the boundary unit only sees the
        # restricted coefficients
        full_rep = al.regular_rep(a, (1, "z")).matrix
        red_rep = al.regular_rep(restricted, (1, "z")).matrix
        assert np.max(np.abs(full_rep - red_rep)) == 0.0


class TestBlocksAndInvertibility:
    def test_pair_block_is_coefficient_matrix(self):
        g = pair3()
        rng = np.random.default_rng(10)
        a = al.random_element(g, rng)
        dec = al.block_decompose(g)
        (block,) = dec.matrices(a)
        svals = np.linalg.svd(as_matrix(a), compute_uv=False)
        assert np.allclose(np.linalg.svd(block, compute_uv=False), svals)

    def test_bundle_blocks_are_circulant(self):
        g = gl.build_group_bundle(["a", "b"], gl.GroupTable.cyclic(2))
        a = al.AlgebraElement.from_dict(
            g, {("a", 0): 1.0, ("a", 1): 2.0, ("b", 0): 3.0, ("b", 1): 4.0}
        )
        dec = al.block_decompose(g)
        mats = dec.matrices(a)
        assert np.allclose(mats[0], np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(mats[1], np.array([[3.0, 4.0], [4.0, 3.0]]))

    def test_blockwise_norm_equals_reduced_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = gen.random_groupoid(rng, max_arrows=50)
            if g.n_arrows == 0:
                continue
            a = al.random_element(g, rng)
            assert al.block_decompose(g).norm(a) == pytest.approx(al.reduced_norm(a))

    def test_blocks_are_the_regular_reps_at_representatives(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = gen.random_groupoid(rng, max_arrows=60)
            a = al.random_element(g, rng)
            dec = al.block_decompose(g)
            assert al.block_decompose(g) is dec
            assert [blk.representative for blk in dec.blocks] == list(dec.orbits.representatives)
            for blk, mat in zip(dec.blocks, dec.matrices(a)):
                rr = al.regular_rep(a, blk.representative)
                assert blk.fiber == rr.fiber
                assert np.array_equal(mat, rr.matrix)

    def test_block_map_is_multiplicative(self):
        rng = np.random.default_rng(12)
        g = gl.build_product(gl.build_pair(range(2)), gl.build_group_bundle(["z"], gl.GroupTable.cyclic(3)))
        dec = al.block_decompose(g)
        for _ in range(100):
            a, b = al.random_element(g, rng), al.random_element(g, rng)
            prod_blocks = dec.matrices(al.convolve(a, b))
            for mp, ma, mb in zip(prod_blocks, dec.matrices(a), dec.matrices(b)):
                assert np.max(np.abs(mp - ma @ mb)) < 1e-10

    def test_unit_invertible_nilpotent_not(self):
        g = pair3()
        assert al.invertible(al.AlgebraElement.unit(g), method="blocks")
        assert al.invertible(al.AlgebraElement.unit(g), method="solve")
        nilp = al.AlgebraElement.from_dict(g, {(0, 1): 1.0, (1, 2): 2.0})
        assert not al.invertible(nilp, method="blocks")
        assert not al.invertible(nilp, method="solve")

    def test_two_routes_agree_and_inverse_verifies(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = gen.random_groupoid(rng, max_arrows=40)
            if g.n_arrows == 0:
                continue
            a = al.random_element(g, rng)
            via_blocks = al.invertible(a, method="blocks")
            inv = al.solve_inverse(a)
            assert via_blocks == (inv is not None)
            if inv is not None:
                unit = al.AlgebraElement.unit(g)
                assert np.max(np.abs(al.convolve(a, inv).vec - unit.vec)) < 1e-7


class TestSolveInverseFiberBlocks:
    """Route A on d-fiber blocks against the full SVD and dense solve of the reference."""

    @staticmethod
    def assert_matches_reference(a):
        got, want = al.solve_inverse(a), reference.solve_inverse_reference(a)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.max(np.abs(got.vec - want.vec), initial=0.0) <= 1e-10 * np.max(np.abs(want.vec), initial=1.0)
        return got

    def test_random_groupoids_with_unequal_fiber_sizes(self):
        rng = np.random.default_rng(31)
        sizes = set()
        for _ in range(40):
            g = gen.random_groupoid(rng, max_arrows=60)
            sizes.add(len(set(np.bincount(g.dom_i, minlength=g.n_units).tolist())))
            for a in (al.random_element(g, rng), al.AlgebraElement.unit(g) + al.random_element(g, rng)):
                self.assert_matches_reference(a)
        assert max(sizes) > 1  # some groupoid has fibers of two sizes

    def test_toy_boundaries(self):
        from gpdlab import conical as co

        rng = np.random.default_rng(32)
        square = co.assemble_layer_groupoid(co.unit_square())
        for m in (2, 3, 4, 5):
            gf = co.finite_toy_model(square, m, interior_points=1).structure.boundary_groupoid
            unit = al.AlgebraElement.unit(gf)
            for a in (unit + al.random_element(gf, rng), al.random_element(gf, rng), -1.0 * unit):
                self.assert_matches_reference(a)

    def test_nilpotent_zero_and_empty(self):
        g = pair3()
        assert self.assert_matches_reference(al.AlgebraElement.from_dict(g, {(0, 1): 1.0, (1, 2): 2.0})) is None
        assert self.assert_matches_reference(al.AlgebraElement.zero(g)) is None
        empty = gl.build_pair([])
        assert self.assert_matches_reference(al.AlgebraElement.zero(empty)).vec.shape == (0,)

    def test_one_singular_fiber_block_is_not_solved(self):
        g = gl.build_group_bundle(["a", "b"], gl.GroupTable.cyclic(2))
        singular = al.AlgebraElement.from_dict(g, {("a", 0): 1.0, ("a", 1): 1.0, ("b", 0): 2.0})
        assert self.assert_matches_reference(singular) is None
        # in a stack, the singular row is masked out of the solve and the other row solved
        ok, sol = al._solve_inverse_rows(g, np.stack([singular.vec, al.AlgebraElement.unit(g).vec]))
        assert ok.tolist() == [False, True]
        assert np.array_equal(sol[1], al.AlgebraElement.unit(g).vec)

    @pytest.mark.parametrize("factor", [1 + 1e-3, 1 - 1e-3])
    def test_threshold_decided_on_the_extremes_over_all_blocks(self, factor):
        # fibers of sizes 2 and 3: identity on the pair part, c times the unit on the bundle
        g = gl.build_disjoint_union([gl.build_pair(range(2)), gl.build_group_bundle(["z"], gl.GroupTable.cyclic(3))])
        c = al.DEFAULT_INVERTIBILITY_RTOL * factor
        vec = np.zeros(g.n_arrows, complex)
        vec[g.unit_i] = [1.0, 1.0, c]
        inv = self.assert_matches_reference(al.AlgebraElement(g, vec))
        assert (inv is not None) == (factor > 1)

    @pytest.mark.parametrize("factor", [1 + 1e-3, 1 - 1e-3])
    def test_threshold_on_a_rotated_block(self, factor):
        # pair(4): every d-fiber block is the coefficient matrix, here U diag(s) V*; with a
        # condition number near 1e8 only the verdicts, not the inverses, agree to 1e-10
        rng = np.random.default_rng(33)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        mat = u @ np.diag([1.0, 0.5, 0.25, al.DEFAULT_INVERTIBILITY_RTOL * factor]) @ v.conj().T
        g = gl.build_pair(range(4))
        a = al.AlgebraElement.from_dict(g, {(x, y): mat[x, y] for x in range(4) for y in range(4)})
        got, want = al.solve_inverse(a), reference.solve_inverse_reference(a)
        assert (got is None) == (want is None) == (factor < 1)

    def test_one_matrix_and_one_row_cases_match_the_references(self):
        rng = np.random.default_rng(36)
        c = al.DEFAULT_INVERTIBILITY_RTOL
        mats = [np.zeros((0, 0)), np.zeros((3, 3)), np.eye(2), np.diag([1.0, c * (1 + 1e-3)]),
                np.diag([1.0, c * (1 - 1e-3)]), rng.standard_normal((5, 5)), np.ones((4, 4))]
        for m in mats:
            assert al.matrix_invertible(m) == reference.matrix_invertible_reference(m)
        g = gen.random_groupoid(rng, max_arrows=60)
        rows = [(al.random_element(g, rng), al.random_element(g, rng)) for _ in range(5)]
        got = al._convolve_rows(g, np.stack([a.vec for a, _ in rows]), np.stack([b.vec for _, b in rows]))
        want = np.stack([reference.convolve_reference(a, b).vec for a, b in rows])
        assert np.array_equal(got, want)  # the same sums in the same order

    @staticmethod
    def with_products(g, pp):
        return gl.FiniteGroupoid._from_arrays(g.units, g.arrows, g.dom_i, g.rng_i, g.inv_i, g.unit_i, g.p1, g.p2, pp)

    def test_product_leaving_the_fiber_raises(self):
        g = pair3()
        pp = g.pp.copy()
        j = int(np.flatnonzero(g.dom_i[g.pp] != g.dom_i[g.p1])[0])  # a triple whose factors differ in domain
        pp[j] = g.p1[j]  # the product now has the left factor's domain
        left, right = g.arrows[g.p1[j]], g.arrows[g.p2[j]]
        message = f"compose entry ({left!r}, {right!r}) -> {left!r} leaves the d-fiber of its right factor"
        with pytest.raises(al.AlgebraError, match=re.escape(message)):
            al.solve_inverse(al.AlgebraElement.unit(self.with_products(g, pp)))

    def test_two_entries_in_one_block_slot_raise(self):
        g = pair3()
        pp = g.pp.copy()
        i, j = np.flatnonzero(g.p2 == g.p2[0])[:2]  # two triples with one right factor
        pp[j] = pp[i]  # now both fill the block entry (pp[i], p2[i])
        with pytest.raises(al.AlgebraError, match="shares its product and right factor with another entry"):
            al.solve_inverse(al.AlgebraElement.unit(self.with_products(g, pp)))

    def test_compose_triples_fill_each_block_entry_once(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            g = gen.random_groupoid(rng, max_arrows=60)
            fb = al._dfiber_blocks(g)
            assert len(fb.source) == (np.bincount(g.dom_i) ** 2).sum() == len(g.p1)
            assert sorted(fb.source.tolist()) == sorted(g.p1.tolist())

    def test_independent_of_the_orbit_route(self, monkeypatch):
        import sys

        def refuse(*args, **kwargs):
            raise AssertionError("route A read the orbit route")

        for name in ("block_decompose", "orbits_and_isotropy", "regular_rep", "structure_witness"):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("gpdlab") and hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        g = gl.build_product(gl.build_pair(range(2)), gl.build_group_bundle(["z"], gl.GroupTable.cyclic(3)))
        a = al.AlgebraElement.unit(g) + al.random_element(g, np.random.default_rng(34))
        assert al.solve_inverse(a) is not None
        assert al.invertible(a, method="solve")
        assert al.solve_inverse(al.AlgebraElement.zero(g)) is None
