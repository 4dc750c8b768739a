import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpdlab import conical as co
from gpdlab import mellin as me
from gpdlab import specfiles as sf

import reference


def wedge_symbol_closed_form(alpha, a, lam):
    # residue evaluation of the ray-coupling integral on the weight line
    mu = a + 1.0 - 1j * lam
    return np.sin((1 - mu) * (math.pi - alpha)) / (2 * np.sin(mu * math.pi))


def sech_symbol_closed_form(a, lam):
    z = a + 1.0 - 1j * lam
    return (math.pi / 2) / np.sin(math.pi * z / 2)


def midpoint_dip_kernel(lam0, c=0.5, width=5.0, weight=0.5):
    """Scalar kernel with conjugated form g(u) = -(c / pi w) sech(u / w) e^(i lam0 u).

    Its symbol is -c sech(pi w (lam - lam0) / 2), so c + symbol vanishes
    exactly at lam0; lam0 = 0.125 sits midway between two default grid
    points whose symbols are equal.
    """
    scale = c / (math.pi * width)

    def fn(t):
        u = math.log(t)
        return [[-scale / math.cosh(u / width) * complex(math.cos(lam0 * u), math.sin(lam0 * u))
                 * t ** (-weight)]]

    decay = me.KernelDecay(1.0 / width - weight, 2 * scale, 1.0 / width + weight, 2 * scale)
    return me.MellinKernel("dip", 1, fn, decay, "midpoint-dip")


def wedge_c2_by_quadrature(alpha):
    """Integral of |g''| for the wedge kernel's off-diagonal entry on the line a = 1/2.

    There g(u) = K e^(u/2) q(u) with K = sin(alpha) / (4 pi) and
    q = 1 / (cosh u - cos alpha); |g''| is integrated by adaptive quadrature.
    """
    from scipy.integrate import quad

    k_const, ca = math.sin(alpha) / (4 * math.pi), math.cos(alpha)

    def g2(u):
        p, q = math.exp(u / 2), 1.0 / (math.cosh(u) - ca)
        dq = -math.sinh(u) * q * q
        ddq = -math.cosh(u) * q * q + 2.0 * math.sinh(u) ** 2 * q ** 3
        return abs(k_const * (p / 4 * q + p * dq + p * ddq))

    return sum(quad(g2, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12)[0]
               for lo, hi in ((-80.0, 0.0), (0.0, 80.0)))


class TestWedgeKernel:
    def test_flat_wedge_is_zero(self):
        k = me.wedge_double_layer_kernel(math.pi)
        for t in (0.01, 0.5, 1.0, 7.3, 250.0):
            assert np.max(np.abs(k(t))) < 1e-14

    def test_pointwise_oracle_right_angle(self):
        # direct kernel evaluation at x=(1,0), y=(0,1); inward normal at y
        k = me.wedge_double_layer_kernel(math.pi / 2)
        direct = me.double_layer_kernel_value((1.0, 0.0), (0.0, 1.0), (1.0, 0.0))
        assert abs(k(1.0)[0, 1] - direct) < 1e-12

    def test_pointwise_oracle_along_rays(self):
        alpha = 2.1
        k = me.wedge_double_layer_kernel(alpha)
        e2 = (math.cos(alpha), math.sin(alpha))
        inward_at_ray2 = (math.sin(alpha), -math.cos(alpha))
        for t in (0.2, 1.0, 3.7):
            x = (t, 0.0)
            direct = me.double_layer_kernel_value(x, e2, inward_at_ray2)
            assert abs(k(t)[0, 1] - direct) < 1e-12

    def test_orientation_flip_negates(self):
        for alpha in (0.7, 2.0, 2.8):
            k1 = me.wedge_double_layer_kernel(alpha)
            k2 = me.wedge_double_layer_kernel(2 * math.pi - alpha)
            for t in (0.3, 1.0, 2.5):
                assert np.max(np.abs(k1(t) + k2(t))) < 1e-13

    def test_diagonal_vanishes(self):
        k = me.wedge_double_layer_kernel(1.0)
        assert k(0.8)[0, 0] == 0.0 and k(0.8)[1, 1] == 0.0

    def test_angle_range_enforced(self):
        with pytest.raises(me.MellinError):
            me.wedge_double_layer_kernel(0.0)
        with pytest.raises(me.MellinError):
            me.wedge_double_layer_kernel(2 * math.pi)

    def test_decay_bound_holds(self):
        for alpha in (0.4, math.pi / 2, 2.5, 4.0):
            k = me.wedge_double_layer_kernel(alpha)
            d = k.decay
            for t in (1e-3, 0.2, 1.0, 5.0, 1e3):
                bound = d.c0 * t if t <= 1 else d.c_inf / t
                assert np.max(np.abs(k(t))) <= bound + 1e-15


class TestTransform:
    def test_zero_kernel_zero_family(self):
        fam = me.mellin_transform(me.wedge_double_layer_kernel(math.pi), 0.5, np.array([0.0, 2.0]))
        assert all(np.max(np.abs(fam.value(l))) == 0.0 for l in (0.0, 2.0))

    def test_sech_kernel_closed_form(self):
        fam = me.mellin_transform(me.sech_test_kernel(), 0.5, np.array([-4.0, -1.0, 0.0, 0.5, 3.0]))
        for lam in fam.grid():
            assert abs(fam.value(lam)[0, 0] - sech_symbol_closed_form(0.5, lam)) < 1e-8

    def test_sech_other_weight(self):
        fam = me.mellin_transform(me.sech_test_kernel(), 0.25, np.array([0.0, 1.5]))
        for lam in (0.0, 1.5):
            assert abs(fam.value(lam)[0, 0] - sech_symbol_closed_form(0.25, lam)) < 1e-8

    def test_wedge_closed_form_various_angles(self):
        for alpha in (0.8, math.pi / 2, 3 * math.pi / 5, 2.5, 3 * math.pi / 2):
            fam = me.mellin_transform(
                me.wedge_double_layer_kernel(alpha), 0.5, np.array([0.0, 1.0, 4.0])
            )
            for lam in (0.0, 1.0, 4.0):
                want = wedge_symbol_closed_form(alpha, 0.5, lam)
                assert abs(fam.value(lam)[0, 1] - want) < 1e-8

    def test_dual_quadrature_agreement(self):
        # independent scheme: direct t-integration without the log substitution
        k = me.wedge_double_layer_kernel(math.pi / 2)
        fam = me.mellin_transform(k, 0.5, np.array([0.0, 0.7, 2.0]))
        for lam in (0.0, 0.7, 2.0):
            direct = me.mellin_transform_direct(k, 0.5, lam)
            assert np.max(np.abs(fam.value(lam) - direct)) < 1e-9

    def test_square_corner_at_zero_is_plain_integral(self):
        k = me.wedge_double_layer_kernel(math.pi / 2)
        fam = me.mellin_transform(k, 0.5, np.array([0.0]))
        direct = me.mellin_transform_direct(k, 0.5, 0.0)
        assert np.max(np.abs(fam.value(0.0) - direct)) < 1e-9

    def test_tightened_tolerance_is_stable(self):
        # quadrature-convergence proxy: tightening the error budget moves
        # the samples by less than the declared tolerance
        k = me.wedge_double_layer_kernel(2.2)
        lams = np.array([0.0, 1.3, 5.0])
        loose = me.mellin_transform(k, 0.5, lams, abs_tol=1e-9)
        tight = me.mellin_transform(k, 0.5, lams, abs_tol=1e-11)
        for lam in lams:
            assert np.max(np.abs(loose.value(lam) - tight.value(lam))) < 1e-9

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    def test_adjoint_kernel_gives_adjoint_symbol(self, weight):
        # on the Haar-unitary line (weight 0) the adjoint kernel is the
        # plain conjugate-transpose-reflect conj(k(1/t))^T
        base = me.sech_test_kernel()

        def fn(t):
            return np.array(
                [[0.0, (1.0 + 0.5j) * base.fn(t)[0, 0]], [(0.3 - 0.2j) * base.fn(t)[0, 0], 0.0]]
            )

        kern = me.MellinKernel("m", 2, fn, me.KernelDecay(1.0, 2.0, 1.0, 2.0), "mixed")
        adj = me.adjoint_kernel(kern, weight)
        if weight == 0.0:
            for t in (0.4, 1.0, 2.7):
                assert np.max(np.abs(adj(t) - np.conj(fn(1.0 / t)).T)) < 1e-14
        lams = np.array([0.0, 0.9, 2.4])
        fam = me.mellin_transform(kern, weight, lams)
        fam_adj = me.mellin_transform(adj, weight, lams)
        for lam in lams:
            assert np.max(np.abs(fam_adj.value(lam) - fam.value(lam).conj().T)) < 1e-9

    def test_non_integrable_rejected(self):
        k = me.MellinKernel(
            "bad", 1, lambda t: np.array([[1.0 / t]]), me.KernelDecay(-1.0, 1.0, 1.0, 1.0)
        )
        with pytest.raises(me.NonIntegrableError):
            me.mellin_transform(k, 0.5)

    @pytest.mark.parametrize(
        "kernel",
        [
            me.wedge_double_layer_kernel(0.4),
            me.wedge_double_layer_kernel(math.pi / 2),
            me.wedge_double_layer_kernel(2.5),
            me.wedge_double_layer_kernel(4.0),
            me.sech_test_kernel(),
            me.symmetric_dilation_kernel(),
        ],
        ids=["wedge-0.4", "wedge-right", "wedge-2.5", "wedge-4.0", "sech", "symmetric-dilation"],
    )
    def test_tail_bound_decreasing_and_effective(self, kernel):
        fam = me.mellin_transform(kernel, 0.5, np.array([0.0, 30.0, 60.0]))
        assert fam.tail_bound(50.0) < fam.tail_bound(25.0)
        # the bound dominates the actual symbol out in the tail
        for lam in (30.0, 60.0, 200.0, 800.0):
            assert np.linalg.norm(fam.value(lam), 2) <= fam.tail_bound(lam)


class TestTrapezoidEngine:
    @pytest.mark.parametrize("alpha", [0.1, 0.02, 2 * math.pi - 0.1])
    def test_narrow_peaks_match_closed_form(self, alpha):
        lams = np.array([0.0, 1.0, 4.0, 50.0, 200.0])
        fam = me.mellin_transform(me.wedge_double_layer_kernel(alpha), 0.5, lams)
        for lam in lams:
            want = wedge_symbol_closed_form(alpha, 0.5, lam)
            assert abs(fam.value(lam)[0, 1] - want) < 1e-8
        # off-grid values, as a scan requests them, reuse the same samples
        for lam in (3.3, 150.7, -150.7):
            want = wedge_symbol_closed_form(alpha, 0.5, lam)
            assert abs(fam.value(lam)[0, 1] - want) < 1e-8

    def test_kernel_complex_only_far_out_matches_direct_scheme(self):
        # imaginary only for t > e, where no three-point realness probe looks;
        # conj(symbol(-lam)) would be wrong for it
        def fn(t):
            s = math.log(t)
            bump = 0.5j * max(0.0, s - 1.0) ** 3 / (1.0 + s * s)
            return np.array([[t / (1.0 + t * t) * (1.0 + bump)]])

        kern = me.MellinKernel("k", 1, fn, me.KernelDecay(1.0, 1.0, 0.9, 2.5), "complex-far-out")
        fam = me.mellin_transform(kern, 0.5, np.array([-1.0, 0.0, 1.0]))
        for lam in (-1.0, 0.0, 1.0):
            direct = me.mellin_transform_direct(kern, 0.5, lam)
            assert abs(fam.value(lam)[0, 0] - direct[0, 0]) < 1e-8

    def test_refinement_evaluates_only_midpoints(self):
        calls = []
        base = me.sech_test_kernel()

        def fn(t):
            calls.append(t)
            return base.fn(t)

        kern = me.MellinKernel("k", 1, fn, base.decay, "counted")
        fam = me.mellin_transform(kern, 0.5, np.array([0.0, 1.0, 100.0]))
        nodes = len(calls)
        assert len(set(calls)) == nodes
        fam.value(37.2)  # resolved by the existing samples
        assert len(calls) == nodes
        fam.value(200.0)  # twice the frequency: one halving of the step
        assert len(calls) == 2 * nodes - 1
        assert len(set(calls)) == len(calls)
        assert abs(fam.value(200.0)[0, 0] - sech_symbol_closed_form(0.5, 200.0)) < 1e-8

    def test_budget_out_of_reach_raises(self, monkeypatch):
        # a jump in the kernel caps the trapezoid rule at first order
        def fn(t):
            return np.array([[t / (1.0 + t * t) if t < 2.0 else 0.0]])

        kern = me.MellinKernel("k", 1, fn, me.KernelDecay(1.0, 1.0, 1.0, 1.0), "jump")
        monkeypatch.setattr(me, "MAX_INTERVALS", 2**12)
        with pytest.raises(me.QuadratureError):
            me.mellin_transform(kern, 0.5, np.array([0.0, 1.0]))

    def test_frequency_out_of_reach_raises(self):
        fam = me.mellin_transform(me.sech_test_kernel(), 0.5, np.array([0.0]))
        with pytest.raises(me.QuadratureError):
            fam.value(1e6)

    def test_frequency_past_the_reachable_count_names_lambda(self, monkeypatch):
        # the wedge(pi / 2) window at a = 1/2 starts at 610 intervals, and
        # doubling reaches 312320 < MAX_INTERVALS; lam = 8130 needs more than
        # that, so the transform refuses it before any refinement
        monkeypatch.setattr(me.LogLineSamples, "_refine", lambda self: pytest.fail("refined"))
        with pytest.raises(me.QuadratureError,
                           match=r"^lam = 8130 needs more than the 312320 log-line intervals"):
            me.mellin_transform(me.wedge_double_layer_kernel(math.pi / 2), 0.5, [0.0, 8130.0])

    def test_refinement_holds_the_old_and_the_new_samples(self):
        # the midpoints are sampled in chunks into the new array, and the old
        # array and the weighted copy go once copied (3.06 x before)
        kern = me.wedge_double_layer_kernel(math.pi / 2)
        u_minus, u_plus = me._log_window(kern, 0.5, tail_mass=me.DEFAULT_ABS_TOL * 1e-4)
        tracemalloc.start()
        try:
            samples = me.LogLineSamples(kern, 0.5, -u_minus, u_plus, me.DEFAULT_ABS_TOL)
            while 4 * (len(samples.u) - 1) <= me.MAX_INTERVALS:
                samples._refine()
            samples._trapezoid(np.array([0.0]))  # as after an estimate above abs_tol
            old = samples.g.copy()
            tracemalloc.reset_peak()
            samples._refine()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(samples.u) - 1 == 312320
        assert peak <= 2.0 * samples.g.nbytes + old.nbytes
        assert np.array_equal(samples.g[::2], old)
        assert np.array_equal(samples.g[1::2], reference.log_line_samples_reference(kern, 0.5, samples.u[1::2]))

    def test_failed_refinement_keeps_the_old_samples(self):
        calls = []

        def fn(ts):
            calls.append(len(ts))
            if len(calls) > 1:
                raise ZeroDivisionError("kernel failed")
            return me.wedge_double_layer_kernel(2.0).fn(ts)

        kern = me.MellinKernel("v", 2, fn, me.wedge_double_layer_kernel(2.0).decay, "flaky", vectorized=True)
        samples = me.LogLineSamples(kern, 0.5, -5.0, 5.0, me.DEFAULT_ABS_TOL)
        u, g = samples.u.copy(), samples.g.copy()
        with pytest.raises(ZeroDivisionError):
            samples._refine()
        assert np.array_equal(samples.u, u) and np.array_equal(samples.g, g)

    def test_wide_window_transform_stays_small(self):
        # the midpoint dip: a log window 288 wide and 37k nodes for the default grid
        c, width, lam0 = 0.5, 5.0, 0.125
        kern = midpoint_dip_kernel(lam0, c, width)
        tracemalloc.start()
        try:
            fam = me.mellin_transform(kern, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        want = -c / math.cosh(math.pi * width * (1.0 - lam0) / 2)
        assert abs(fam.value(1.0)[0, 0] - want) < 1e-8


class TestScan:
    def test_zero_symbol_returns_exactly_c(self):
        fam = me.mellin_transform(me.wedge_double_layer_kernel(math.pi), 0.5)
        for c in (0.3, 0.5, 1.0):
            res = me.invertibility_scan(fam, c)
            assert res.min_sigma == c
            assert res.invertible

    def test_symbol_hitting_minus_c_flags_zero(self):
        k = me.forced_zero_kernel(0.5)
        fam = me.mellin_transform(k, 0.5)
        res = me.invertibility_scan(fam, 0.5)
        assert res.min_sigma < 1e-9
        assert not res.invertible
        assert abs(res.argmin_lambda) < 1e-9

    def test_square_corner_golden_minimum(self):
        # analytic value: |1/2 - sin(pi/4)/2| at lam = 0
        fam = me.mellin_transform(me.wedge_double_layer_kernel(math.pi / 2), 0.5)
        res = me.invertibility_scan(fam, 0.5)
        assert res.invertible
        assert res.min_sigma == pytest.approx(0.5 - math.sqrt(2) / 4, abs=1e-8)
        assert abs(res.argmin_lambda) < 0.2

    def test_monotone_in_c_for_zero_kernel(self):
        fam = me.mellin_transform(me.wedge_double_layer_kernel(math.pi), 0.5)
        minima = [me.invertibility_scan(fam, c).min_sigma for c in (0.25, 0.5, 0.75, 1.25)]
        assert minima == [0.25, 0.5, 0.75, 1.25]

    def test_zero_constant_rejected(self):
        fam = me.mellin_transform(me.sech_test_kernel(), 0.5, np.array([0.0]))
        with pytest.raises(me.MellinError):
            me.invertibility_scan(fam, 0.0)

    def test_tail_cap_raises(self):
        fam = me.mellin_transform(me.sech_test_kernel(), 0.5, np.array([0.0, 1.0]))
        with pytest.raises(me.TailBoundError):
            me.invertibility_scan(fam, 1e-9, lambda_cap=50.0)

    @pytest.mark.parametrize(
        "kernel, min_sigma, argmin",
        [
            (me.sech_test_kernel(), 0.4999741895703822, -28.0),
            (me.symmetric_dilation_kernel(), 0.4999500004115323, -26.0),
            (me.wedge_double_layer_kernel(0.4), 0.009966711079409612, 0.0),
            (me.wedge_double_layer_kernel(math.pi / 2), 0.14644660940692633, 0.0),
            (me.wedge_double_layer_kernel(3 * math.pi / 5), 0.20610737385396355, 0.0),
            (me.wedge_double_layer_kernel(3 * math.pi / 2), 0.14644660940692633, 0.0),
            (me.wedge_double_layer_kernel(math.pi), 0.5, -0.25),
        ],
        ids=["sech", "symmetric-dilation", "wedge-0.4", "wedge-right", "wedge-3pi/5",
             "wedge-3pi/2", "flat-wedge"],
    )
    def test_invertible_verdicts_pinned(self, kernel, min_sigma, argmin):
        # the grid minimum and its place, which no refinement rule may move
        res =me.invertibility_scan(me.mellin_transform(kernel, 0.5), 0.5)
        assert res.invertible
        assert res.min_sigma == pytest.approx(min_sigma, abs=1e-9)
        assert res.argmin_lambda == pytest.approx(argmin, abs=1e-9)

    @pytest.mark.parametrize("lam0", [0.125, -120.7])
    def test_dip_between_grid_points_is_caught(self, lam0):
        res = me.invertibility_scan(me.mellin_transform(midpoint_dip_kernel(lam0), 0.5), 0.5)
        assert not res.invertible
        assert res.min_sigma_lower <= res.sigma_tol

    def test_midpoint_dip_needs_two_refinements(self):
        res = me.invertibility_scan(me.mellin_transform(midpoint_dip_kernel(0.125), 0.5), 0.5)
        assert res.refinements == 2
        assert res.as_dict()["refinements"] == 2

    @pytest.mark.parametrize("lam0", [0.1, 3.3, 37.3, 190.0])
    def test_dips_stay_not_invertible(self, lam0):
        res = me.invertibility_scan(me.mellin_transform(midpoint_dip_kernel(lam0), 0.5), 0.5)
        assert not res.invertible

    @pytest.mark.parametrize(
        "kernel",
        [me.wedge_double_layer_kernel(math.pi / 2), me.wedge_double_layer_kernel(0.4),
         me.sech_test_kernel()],
        ids=["wedge-right", "wedge-0.4", "sech"],
    )
    def test_certified_lower_bound_holds_on_a_dense_grid(self, kernel):
        fam = me.mellin_transform(kernel, 0.5)
        res = me.invertibility_scan(fam, 0.5)
        assert res.invertible
        assert res.min_sigma_lower <= res.min_sigma
        dense = np.linspace(-200.0, 200.0, 4001)
        mats = 0.5 * np.eye(fam.size) + fam.value(dense)
        assert np.linalg.svd(mats, compute_uv=False)[:, -1].min() >= res.min_sigma_lower

    def test_tail_constant_bounds_the_wedge_integral(self):
        fam = me.mellin_transform(me.wedge_double_layer_kernel(0.4), 0.5, np.array([0.0]))
        assert fam.tail_c2 >= wedge_c2_by_quadrature(0.4)

    @pytest.mark.parametrize("name", ["square", "pentagon", "lshape"])
    def test_tail_constant_is_the_whole_array_second_difference(self, name):
        domain = sf.parse_domain(Path(me.__file__).parent / "corpus" / f"{name}.json")
        for v in domain.vertices:
            samples = me.mellin_transform(me.vertex_kernel(domain, v.id), 0.5, np.array([0.0]))._samples
            want = samples._upper_norm(lambda u, g, h: np.einsum("ij->j", np.abs(g[2:] - 2.0 * g[1:-1] + g[:-2])) / h)
            assert samples.tail_coefficient() == want
            # the strided sum over the nodes that the contraction replaced
            old = samples._upper_norm(lambda u, g, h: np.abs(g[2:] - 2.0 * g[1:-1] + g[:-2]).sum(axis=0) / h)
            assert abs(want - old) <= 1e-14 * old

    @pytest.mark.parametrize("name", ["square", "pentagon", "lshape"])
    def test_lipschitz_constant_is_the_whole_array_moment(self, name):
        domain = sf.parse_domain(Path(me.__file__).parent / "corpus" / f"{name}.json")
        for v in domain.vertices:
            samples = me.mellin_transform(me.vertex_kernel(domain, v.id), 0.5, np.array([0.0]))._samples
            want = samples._upper_norm(lambda u, g, h: h * (np.abs(u) @ np.abs(g)))
            assert samples.lipschitz() == want
            # the strided sum over the nodes that the product replaced
            old = samples._upper_norm(lambda u, g, h: h * (np.abs(u)[:, None] * np.abs(g)).sum(axis=0))
            assert abs(want - old) <= 1e-14 * old

    def test_tail_constant_bounds_an_oscillating_kernel(self):
        # |g''| >= Re(-g'' e^(-i lam0 u)) integrates to lam0^2 c for the dip
        lam0, c = 37.3, 0.5
        fam = me.mellin_transform(midpoint_dip_kernel(lam0, c), 0.5)
        assert fam.tail_c2 >= lam0 ** 2 * c


class TestVerdict:
    def test_square_is_fredholm(self):
        v = me.fredholm_verdict(co.unit_square(), c=0.5)
        assert v.elliptic and v.is_fredholm and v.witness is None
        assert set(v.scans) == {"v0", "v1", "v2", "v3"}
        golden = 0.5 - math.sqrt(2) / 4
        for s in v.scans.values():
            assert s.min_sigma == pytest.approx(golden, abs=1e-8)
            assert (s.grid_points, s.refinements) == (9, 0)

    def test_zero_constant_not_elliptic(self):
        v = me.fredholm_verdict(co.unit_square(), c=0.0)
        assert not v.elliptic and not v.is_fredholm
        assert all(s is None for s in v.scans.values())

    def test_adversarial_kernel_fails_with_witness(self):
        kz = me.forced_zero_kernel(0.5)
        v = me.fredholm_verdict(co.unit_square(), c=0.5, kernels={"v2": kz})
        assert not v.is_fredholm
        assert v.witness == "v2"
        assert not v.scans["v2"].invertible
        assert v.scans["v0"].invertible

    def test_missing_kernel_for_wide_vertex(self):
        v = co.Vertex("w", co.RayBase((0.0, 1.0, 2.0)))
        d = co.LayerDomain(2, (v,))
        with pytest.raises(me.MissingKernelError):
            me.fredholm_verdict(d, c=0.5)

    def test_three_dimensional_numerics_unsupported(self):
        with pytest.raises(me.UnsupportedDimensionError):
            me.fredholm_verdict(co.cone_3d(), c=0.5)

    def test_artificial_vertex_contributes_exactly_c(self):
        art = co.Vertex("art", co.RayBase((0.0, math.pi), interior_angle=math.pi))
        d = co.LayerDomain(2, (art,))
        v = me.fredholm_verdict(d, c=0.5)
        assert v.is_fredholm
        assert v.scans["art"].min_sigma == 0.5

    def test_nearly_equal_angles_scanned_separately(self):
        # the two openings agree to 6 significant digits
        p = co.Vertex("p", co.RayBase((0.0, 0.3)))
        q = co.Vertex("q", co.RayBase((0.0, 0.3000004)))
        v = me.fredholm_verdict(co.LayerDomain(2, (p, q)), c=0.5)
        for vid, alpha in (("p", 0.3), ("q", 0.3000004)):
            want = 0.5 - abs(math.cos(alpha / 2)) / 2
            assert v.scans[vid].min_sigma == pytest.approx(want, abs=1e-9)
            assert v.scans[vid].vertex == vid

    def test_weight_auto_is_half(self):
        v = me.fredholm_verdict(co.unit_square(), c=0.5, weight="auto")
        assert v.weight == 0.5


class TestStraightCone:
    def test_symmetric_kernel_identical_families(self):
        k = me.symmetric_dilation_kernel()
        lams = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        near, far = me.straight_cone_families(k, 0.5, lams)
        for lam in lams:
            assert np.max(np.abs(near.value(lam) - far.value(lam))) < 1e-10
        s_near = me.invertibility_scan(near, 0.5)
        s_far = me.invertibility_scan(far, 0.5)
        assert s_near.invertible == s_far.invertible
        assert s_near.min_sigma == pytest.approx(s_far.min_sigma, abs=1e-9)

    def test_wiener_hopf_families_invertible(self):
        lams = np.array([-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0])
        near, far = me.straight_cone_families(me.symmetric_dilation_kernel(), 0.5, lams)
        assert me.invertibility_scan(near, 0.5).invertible
        assert me.invertibility_scan(far, 0.5).invertible

    def test_symmetric_kernel_closed_form(self):
        # symbol pi sech(pi lam / 2) on the line a = 1/2
        fam = me.mellin_transform(me.symmetric_dilation_kernel(), 0.5, np.array([0.0, 1.0]))
        for lam in (0.0, 1.0):
            want = math.pi / math.cosh(math.pi * lam / 2)
            assert abs(fam.value(lam)[0, 0] - want) < 1e-8

    def test_reflection_mirrors_the_dual_variable(self):
        # for any kernel the far-end symbol is the near symbol at -lam
        k = me.sech_test_kernel()
        near, far = me.straight_cone_families(k, 0.4, np.array([-2.0, -0.5, 0.5, 2.0]))
        for lam in (-2.0, -0.5, 0.5, 2.0):
            assert np.max(np.abs(far.value(lam) - near.value(-lam))) < 1e-9


@pytest.mark.parametrize("lambda_max", [0.0, -5.0, math.nan, math.inf])
def test_default_grid_refuses_a_bad_lambda_max(lambda_max):
    with pytest.raises(me.MellinError, match="lambda_max must be finite and positive"):
        me.default_grid(lambda_max)


def test_a_huge_lambda_max_is_refused_before_the_grid_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(me.QuadratureError,
                           match=r"^lam = 1e\+09 needs more than the 312320 log-line intervals this window reaches$"):
            me.mellin_transform(me.wedge_double_layer_kernel(math.pi / 2), 0.5, lambda_max=1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the default grid to 1e9 would take 3.2 GB


@pytest.mark.parametrize("lambda_max", [1e-160, 1e-300])
def test_square_corner_scan_from_a_tiny_lambda_max(lambda_max):
    # C2 / lam^2 overflows at 1e-160 (lam^2 is subnormal) and lam^2 is 0 at
    # 1e-300; a warning on the way fails the test (filterwarnings = error)
    fam = me.mellin_transform(me.wedge_double_layer_kernel(math.pi / 2), 0.5, lambda_max=lambda_max)
    res = me.invertibility_scan(fam, 0.5)
    assert res.invertible and abs(res.min_sigma - (0.5 - math.cos(math.pi / 4) / 2)) < 1e-12
    bounds = fam.tail_bound(np.array([-1.0, 0.0, 1e-300, 1e-160, 2.0]))
    assert bounds.tolist() == [math.inf] * 4 + [fam.tail_c2 / 4.0]
    assert fam.tail_bound(1e-300) == math.inf and fam.tail_bound(2.0) == fam.tail_c2 / 4.0


def test_scan_of_a_zero_only_grid_refuses():
    fam = me.mellin_transform(me.sech_test_kernel(), 0.5, np.array([0.0]))
    with pytest.raises(me.MellinError, match="nonzero lambda"):
        me.invertibility_scan(fam, 0.5)


def vectorized_dip_kernel(lam0, weight, c=0.5, width=5.0):
    """``midpoint_dip_kernel`` as one numpy expression over an array of t,
    so a sweep over many scans does not call a scalar kernel per node."""
    scale = c / (math.pi * width)

    def fn(ts):
        u = np.log(ts)
        return (-scale / np.cosh(u / width) * np.exp(1j * lam0 * u) * ts ** -weight)[..., None, None]

    decay = me.KernelDecay(1.0 / width - weight, 2 * scale, 1.0 / width + weight, 2 * scale)
    return me.MellinKernel("dip", 1, fn, decay, f"dip({lam0})", vectorized=True)


def _planned_grid_cases():
    for weight in (0.25, 0.5, 0.75):
        kernels = {
            **{f"wedge-{alpha:.4g}": me.wedge_double_layer_kernel(alpha)
               for alpha in (0.4, 1.0, math.pi / 2, 3 * math.pi / 5, 2.2, math.pi, 4.0,
                             3 * math.pi / 2, 5.5)},
            "sech": me.sech_test_kernel(),
            "symmetric-dilation": me.symmetric_dilation_kernel(),
            "forced-zero": me.forced_zero_kernel(0.5),
            **{f"dip-{lam0}": vectorized_dip_kernel(lam0, weight) for lam0 in (0.125, 37.3, -120.7)},
        }
        for name, kern in kernels.items():
            for c in (0.5, 0.3 + 0.1j, 1.25):
                yield pytest.param(kern, weight, c, id=f"{name}-{weight}-{c}")


class TestPlannedGrid:
    """A default family plans ``default_grid()`` and the scan evaluates only
    the part the tail bound leaves uncertified; the oracle is the same
    grid passed explicitly, which evaluates all of it."""

    @pytest.mark.parametrize("kern, weight, c", _planned_grid_cases())
    def test_scan_equals_the_full_grid_scan(self, kern, weight, c):
        fam = me.mellin_transform(kern, weight)
        assert fam.grid().size == 0
        got = me.invertibility_scan(fam, c)
        full = me.mellin_transform(kern, weight, me.default_grid())
        want = me.invertibility_scan(full, c)
        for field in ("invertible", "refinements", "min_sigma", "tail_c2", "lipschitz"):
            assert getattr(got, field) == getattr(want, field), field
        if got.argmin_lambda != want.argmin_lambda:
            # a tie: the full grid's samples at both places are equal
            at = full.value(np.array([got.argmin_lambda, want.argmin_lambda]))
            s = np.linalg.svd(c * np.eye(full.size) + at, compute_uv=False)[:, -1]
            assert s[0] == s[1]
        assert set(fam.grid()) <= set(full.grid())
        assert got.grid_points <= want.grid_points
        assert got.min_sigma_lower == pytest.approx(want.min_sigma_lower, abs=1e-14)

    def test_square_corner_sums_at_most_eleven_points(self, monkeypatch):
        summed = []
        transform = me.LogLineSamples.transform

        def counted(self, lams):
            summed.extend(lams)
            return transform(self, lams)

        monkeypatch.setattr(me.LogLineSamples, "transform", counted)
        fam = me.mellin_transform(me.wedge_double_layer_kernel(math.pi / 2), 0.5)
        assert summed == []
        res = me.invertibility_scan(fam, 0.5)
        assert res.grid_points == len(summed) <= 11
        assert res.lambda_max < me.DEFAULT_LAMBDA_MAX

    def test_constants_come_from_the_step_that_resolves_the_plan(self):
        # an aliased start step would under-read C2 for a dip far out
        fam = me.mellin_transform(midpoint_dip_kernel(-120.7), 0.5)
        assert 2.0 * fam._samples.step * me.DEFAULT_LAMBDA_MAX <= math.pi
        assert fam.tail_c2 >= 120.7 ** 2 * 0.5
        assert fam.lambda_max == me.DEFAULT_LAMBDA_MAX

    def test_evaluated_points_stay_on_the_grid(self):
        fam = me.mellin_transform(me.wedge_double_layer_kernel(0.4), 0.5)
        first = me.invertibility_scan(fam, 0.3 + 0.1j)
        grid = set(fam.grid())
        again = me.invertibility_scan(fam, 1.25)
        assert grid <= set(fam.grid())
        assert again.lambda_max >= first.lambda_max
        assert again.grid_points >= len(grid)

    def test_explicit_grid_scans_all_of_it(self):
        lams = me.default_grid(50.0)
        fam = me.mellin_transform(me.wedge_double_layer_kernel(math.pi / 2), 0.5, lams)
        res = me.invertibility_scan(fam, 0.5)
        assert (res.grid_points, res.lambda_max) == (len(lams), 50.0)


BUILT_IN_KERNELS = {
    **{f"wedge-{alpha:.4g}": me.wedge_double_layer_kernel(alpha)
       for alpha in (0.4, math.pi / 2, math.pi, 2.2, 5.0)},
    "sech": me.sech_test_kernel(),
    "symmetric-dilation": me.symmetric_dilation_kernel(),
    "forced-zero": me.forced_zero_kernel(0.5),
}
# t over a log line wider than any built-in window, with 1 and the wedge peaks in between
SAMPLE_TS = np.concatenate([np.exp(np.linspace(-60.0, 60.0, 3001)), [1.0, 0.5, 2.0]])


class TestKernelValues:
    @pytest.mark.parametrize("name", BUILT_IN_KERNELS)
    def test_built_ins_are_arrays_equal_to_per_node_samples(self, name):
        kern = BUILT_IN_KERNELS[name]
        assert kern.vectorized
        vals = kern.values(SAMPLE_TS)
        want = reference.kernel_samples_reference(kern, SAMPLE_TS)
        assert vals.dtype == np.complex128 and vals.shape == want.shape
        assert vals.tobytes() == want.tobytes()  # bit for bit, signed zeros included

    @pytest.mark.parametrize("name", BUILT_IN_KERNELS)
    def test_built_in_transform_equals_per_node_sampling(self, name, monkeypatch):
        kern, lams = BUILT_IN_KERNELS[name], np.array([-7.5, 0.0, 0.25, 3.0, 120.0])
        fam = me.mellin_transform(kern, 0.5, lams)
        monkeypatch.setattr(me.LogLineSamples, "_sample",
                            lambda self, u: reference.log_line_samples_reference(self.kernel, self.weight, u))
        want = me.mellin_transform(kern, 0.5, lams)
        assert fam.value(lams).tobytes() == want.value(lams).tobytes()
        assert (fam.tail_c2, fam.lipschitz, fam.max_quad_error) == (
            want.tail_c2, want.lipschitz, want.max_quad_error)

    @pytest.mark.parametrize("kind", ["vectorized", "scalar"])
    def test_values_keep_the_shape_of_t(self, kind):
        base = me.wedge_double_layer_kernel(2.2)
        kern = base if kind == "vectorized" else me.MellinKernel("v", 2, base.fn, base.decay)
        ts = SAMPLE_TS[:12].reshape(3, 4)
        vals = kern.values(ts)
        assert vals.shape == (3, 4, 2, 2)
        assert vals.tobytes() == kern.values(ts.ravel()).reshape(3, 4, 2, 2).tobytes()
        assert kern(ts[1, 2]).tobytes() == vals[1, 2].tobytes()
        assert kern.values([]).shape == (0, 2, 2)

    @pytest.mark.parametrize("weight", [0.0, 0.25, 0.4, 0.5, 1.0])
    @pytest.mark.parametrize("flip", ["reflect", "adjoint"])
    @pytest.mark.parametrize("name", ["wedge-0.4", "wedge-5", "symmetric-dilation"])
    def test_flips_agree_with_per_node_flips(self, name, flip, weight):
        # np.power on arrays and Python's ** on floats may differ in the last bit
        base = BUILT_IN_KERNELS[name]
        kern = getattr(me, f"{flip}_kernel")(base, weight)
        ref = getattr(reference, f"{flip}_kernel_reference")(base, weight)
        assert kern.vectorized and (kern.decay, kern.name) == (ref.decay, ref.name)
        vals = kern.values(SAMPLE_TS)
        want = reference.kernel_samples_reference(ref, SAMPLE_TS)
        assert np.all(np.abs(vals - want) <= 1e-15 * np.abs(want))

    def test_flips_of_a_scalar_kernel(self):
        base = midpoint_dip_kernel(0.125)
        for flip in ("reflect", "adjoint"):
            kern = getattr(me, f"{flip}_kernel")(base, 0.5)
            want = reference.kernel_samples_reference(
                getattr(reference, f"{flip}_kernel_reference")(base, 0.5), SAMPLE_TS)
            assert np.all(np.abs(kern.values(SAMPLE_TS) - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("vectorized, fn", [
        (True, lambda ts: np.zeros((len(ts), 1, 1))),
        (True, lambda ts: np.zeros((2, 2))),
        (True, lambda ts: np.zeros((len(ts) - 1, 2, 2))),
        (False, lambda t: np.zeros((1, 1))),
    ], ids=["array-wrong-size", "array-one-matrix", "array-too-few", "scalar-wrong-size"])
    def test_kernel_of_the_wrong_shape_names_the_kernel(self, vectorized, fn):
        kern = me.MellinKernel("v", 2, fn, me.KernelDecay(1.0, 1.0, 1.0, 1.0), "bad",
                               vectorized=vectorized)
        with pytest.raises(me.MellinError, match="kernel 'bad' returned shape"):
            me.mellin_transform(kern, 0.5, np.array([0.0]))
        with pytest.raises(me.MellinError, match="kernel 'bad' returned shape"):
            kern(1.0)

    def test_scalar_kernel_gives_the_per_node_symbols_exactly(self, monkeypatch):
        # the midpoint dip, a positional MellinKernel with a scalar fn, as a
        # benchmark scan runs it: default grid, certified scan
        kern = midpoint_dip_kernel(0.125)
        assert not kern.vectorized
        fam = me.mellin_transform(kern, 0.5)
        scan = me.invertibility_scan(fam, 0.5)
        monkeypatch.setattr(me.LogLineSamples, "_sample",
                            lambda self, u: reference.log_line_samples_reference(self.kernel, self.weight, u))
        want = me.mellin_transform(kern, 0.5)
        assert scan == me.invertibility_scan(want, 0.5)
        grid = fam.grid()
        assert np.array_equal(grid, want.grid())
        assert fam.value(grid).tobytes() == want.value(grid).tobytes()

    def test_scalar_kernel_is_called_once_per_node_with_floats(self):
        seen = []
        base = me.sech_test_kernel()

        def fn(t):
            seen.append(type(t))
            return base.fn(t)

        kern = me.MellinKernel("k", 1, fn, base.decay, "counted")
        vals = kern.values(SAMPLE_TS)
        assert seen == [float] * len(SAMPLE_TS)
        assert vals.tobytes() == base.values(SAMPLE_TS).tobytes()

    @pytest.mark.parametrize("weight", [0.0, 0.5, 0.75])
    @pytest.mark.parametrize("name", ["wedge-2.2", "sech", "symmetric-dilation"])
    def test_adjoint_is_the_conjugate_transpose_of_the_reflection(self, name, weight):
        base = BUILT_IN_KERNELS[name]
        adj, flipped = me.adjoint_kernel(base, weight), me.reflect_kernel(base, weight)
        assert adj.decay == flipped.decay
        want = np.conj(flipped.values(SAMPLE_TS)).swapaxes(-1, -2)
        assert adj.values(SAMPLE_TS).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("weight", [0.0, 0.5])
    @pytest.mark.parametrize("name", ["wedge-2.2", "sech", "forced-zero"])
    def test_conjugated_kernel_is_the_weighted_sample(self, name, weight):
        kern = BUILT_IN_KERNELS[name]
        u = np.linspace(-30.0, 30.0, 1202).reshape(2, 601)
        g = me.conjugated_kernel(kern, weight, u)
        want = kern.values(np.exp(u)) * np.exp(weight * u)[..., None, None]
        assert g.shape == u.shape + (kern.size, kern.size)
        assert g.tobytes() == want.tobytes()
        samples = me.LogLineSamples(kern, weight, -5.0, 5.0, me.DEFAULT_ABS_TOL)
        assert samples.g.tobytes() == me.conjugated_kernel(kern, weight, samples.u).tobytes()
        assert samples._sample(u[0]).tobytes() == g[0].reshape(len(u[0]), -1).tobytes()


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0, 1.0])
def test_weight_outside_the_open_decay_interval_is_not_integrable(weight):
    with pytest.raises(me.NonIntegrableError, match="not integrable"):
        me.check_line_integrability(me.wedge_double_layer_kernel(math.pi / 2), weight)


@pytest.mark.parametrize("c, sigma_tol, message", [
    (math.nan, 1e-3, "constant term c must be finite, got nan"),
    (math.inf, 1e-3, "constant term c must be finite, got inf"),
    (complex(0.5, math.nan), 1e-3, r"constant term c must be finite, got \(0.5\+nanj\)"),
    (0.5, math.nan, "sigma_tol must be finite and positive, got nan"),
    (0.5, math.inf, "sigma_tol must be finite and positive, got inf"),
    (0.5, 0.0, "sigma_tol must be finite and positive, got 0.0"),
    (0.5, -1e-3, "sigma_tol must be finite and positive, got -0.001"),
    (0.0, math.nan, "sigma_tol must be finite and positive, got nan"),
])
def test_scan_constants_must_be_finite(c, sigma_tol, message):
    fam = me.mellin_transform(me.sech_test_kernel(), 0.5, np.array([0.0, 1.0]))
    with pytest.raises(me.MellinError, match=message):
        me.invertibility_scan(fam, c, sigma_tol=sigma_tol)
    # the verdict checks them before its ellipticity test, so c = 0 is no way round
    with pytest.raises(me.MellinError, match=message):
        me.fredholm_verdict(co.unit_square(), c=c, sigma_tol=sigma_tol)


def _engine_cases():
    bases = {**BUILT_IN_KERNELS, "midpoint-dip": midpoint_dip_kernel(0.125)}
    for name, base in bases.items():
        for weight in (0.0, 0.25, 0.5, 0.75):
            for flip in ("plain", "reflect", "adjoint"):
                kern = base if flip == "plain" else getattr(me, f"{flip}_kernel")(base, weight)
                if -kern.decay.p0 < weight < kern.decay.p_inf:
                    yield pytest.param(kern, weight, id=f"{name}-{flip}-{weight}")


def assert_sums_match_the_phase_matrix(samples, lams, rtol=2e-15):
    vals, errs = samples._trapezoid(lams)
    want_vals, want_errs = reference.trapezoid_reference(samples, lams)
    # rounding scales with the integral of |g|, which bounds every entry of
    # the symbol; on a grid through lam = 0 the two are close
    scale = max(np.abs(want_vals).max(), samples.step * np.abs(samples.g).sum(axis=0).max())
    assert np.abs(vals - want_vals).max() <= rtol * scale
    # the estimates are differences of two sums of that size
    assert np.abs(errs - want_errs).max() <= 1e-15 * max(1.0, scale)


@pytest.fixture(scope="module")
def at_the_cap():
    """A 2 x 2 wedge transform whose lams need the most intervals the window reaches."""
    kern = me.wedge_double_layer_kernel(math.pi / 2)
    u_minus, u_plus = me._log_window(kern, 0.5, tail_mass=me.DEFAULT_ABS_TOL * 1e-4)
    n = 2 * math.ceil((u_plus + u_minus) / (2.0 * me._START_STEP))
    while 2 * n <= me.MAX_INTERVALS:
        n *= 2
    # at 3/4 of the frequency n intervals resolve, n / 2 would not do
    lams = 0.75 * math.pi * n / (2.0 * (u_plus + u_minus)) * np.linspace(-1.0, 1.0, 15)
    fam = me.mellin_transform(kern, 0.5, lams)
    assert len(fam._samples.u) - 1 == n
    return fam, lams


class TestFactoredTrapezoid:
    @pytest.mark.parametrize("kern, weight", _engine_cases())
    def test_scan_matches_the_phase_matrix_engine(self, kern, weight, monkeypatch):
        fam = me.mellin_transform(kern, weight)
        scan = me.invertibility_scan(fam, 0.5)
        grid = fam.grid()
        assert_sums_match_the_phase_matrix(fam._samples, grid)
        monkeypatch.setattr(me.LogLineSamples, "_trapezoid", reference.trapezoid_reference)
        want_fam = me.mellin_transform(kern, weight)
        want = me.invertibility_scan(want_fam, 0.5)
        assert np.array_equal(grid, want_fam.grid())
        assert len(fam._samples.u) == len(want_fam._samples.u)
        vals, want_vals = fam.value(grid), want_fam.value(grid)
        assert np.abs(vals - want_vals).max() <= 2e-15 * np.abs(want_vals).max()
        for field in ("grid_points", "refinements", "invertible", "argmin_lambda", "lambda_max"):
            assert getattr(scan, field) == getattr(want, field)
        # absolute: min_sigma itself is about 1e-13 at the forced zero
        assert abs(scan.min_sigma - want.min_sigma) <= 1e-14

    def test_single_lambda(self):
        fam = me.mellin_transform(me.wedge_double_layer_kernel(2.2), 0.5, [3.0])
        assert_sums_match_the_phase_matrix(fam._samples, np.array([3.0]))

    @pytest.mark.parametrize("width, even_nodes", [(10.0, 41), (30.0, 121), (31.75, 128), (32.0, 129)])
    def test_even_node_counts_around_a_multiple_of_the_fine_factors(self, width, even_nodes):
        # 41 even nodes fill less than one coarse block; 129 leave 128 odd
        # ones, a whole number of coarse blocks
        samples = me.LogLineSamples(me.wedge_double_layer_kernel(0.4), 0.5,
                                    -0.5 * width, 0.5 * width, me.DEFAULT_ABS_TOL)
        lams = np.linspace(-12.0, 12.0, 7)  # 2 h |lam| <= pi at the starting step
        for _ in range(2):
            assert len(samples.u[::2]) % me._FINE == even_nodes % me._FINE
            assert_sums_match_the_phase_matrix(samples, lams)
            samples._refine()
            even_nodes = 2 * even_nodes - 1

    def test_refinement_up_to_the_interval_cap(self, at_the_cap):
        fam, lams = at_the_cap
        # several lam blocks at this node count
        samples = fam._samples
        assert len(lams) > me._PARTIAL_ENTRIES // samples._weighted.shape[1]
        # over 156k even nodes the phase-matrix product itself rounds to
        # about 5e-15 at lam = 0, where math.fsum gives the exact sum
        assert_sums_match_the_phase_matrix(samples, lams, rtol=1e-14)
        weighted = samples.g.copy()
        weighted[[0, -1]] *= 0.5
        exact = samples.step * math.fsum(weighted[:, 1].real)
        vals, _ = samples._trapezoid(np.array([0.0]))
        assert abs(vals[0, 1] - exact) <= 2e-15 * abs(exact)

    def test_cap_raises_the_same_error(self, monkeypatch):
        # a jump in the kernel caps the trapezoid rule at first order
        def fn(ts):
            return np.where(ts < 2.0, ts / (1.0 + ts * ts), 0.0)[..., None, None]

        kern = me.MellinKernel("k", 1, fn, me.KernelDecay(1.0, 1.0, 1.0, 1.0), "jump",
                               vectorized=True)
        with pytest.raises(me.QuadratureError) as got:
            me.mellin_transform(kern, 0.5, np.array([0.0, 1.0]))
        monkeypatch.setattr(me.LogLineSamples, "_trapezoid", reference.trapezoid_reference)
        with pytest.raises(me.QuadratureError) as want:
            me.mellin_transform(kern, 0.5, np.array([0.0, 1.0]))
        assert str(got.value) == str(want.value)
        # the window starts at 648 intervals, so doubling stops at 648 * 2^9
        assert "at 331776 log-line intervals" in str(got.value)

    def test_sums_keep_one_copy_of_the_samples(self, at_the_cap):
        # the fine-major weighted samples and one lam block of partial sums;
        # the phase-matrix engine held two copies of the samples
        fam, lams = at_the_cap
        samples = fam._samples
        samples._weighted = None
        tracemalloc.start()
        try:
            samples.transform(lams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * samples.g.nbytes

    def test_tail_coefficient_keeps_one_difference_array(self, at_the_cap):
        # the second differences are formed in one complex array and their
        # moduli in one real one; the whole-array expression peaked at 2.0 x
        samples = at_the_cap[0]._samples
        tracemalloc.start()
        try:
            samples.tail_coefficient()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * samples.g.nbytes


def _halving_chain(kern, weight, top):
    """Log-line samples as a chain of refinements reaches them: sampled at the
    start step, then halved, midpoints only, until 2 h top <= pi."""
    u_minus, u_plus = me._log_window(kern, weight, tail_mass=me.DEFAULT_ABS_TOL * 1e-4)
    samples = me.LogLineSamples(kern, weight, -u_minus, u_plus, me.DEFAULT_ABS_TOL)
    samples.resolve(top)
    return samples


def _one_pass_cases():
    yield from _engine_cases()
    for lam0 in (0.125, 37.3, -120.7):
        yield pytest.param(midpoint_dip_kernel(lam0), 0.5, id=f"dip-{lam0}")
        yield pytest.param(vectorized_dip_kernel(lam0, 0.5), 0.5, id=f"vectorized-dip-{lam0}")


class TestOnePassSampling:
    """A transform samples its log line once, at the step its plan needs."""

    @pytest.mark.parametrize("kern, weight", _one_pass_cases())
    def test_samples_equal_the_halving_chain(self, kern, weight):
        samples = me.mellin_transform(kern, weight)._samples
        want = _halving_chain(kern, weight, me.DEFAULT_LAMBDA_MAX)
        assert samples.u.tobytes() == want.u.tobytes()
        assert samples.g.tobytes() == want.g.tobytes()

    def test_one_kernel_call_for_the_plan(self):
        calls = []
        base = me.wedge_double_layer_kernel(math.pi / 2)

        def fn(ts):
            calls.append(len(ts))
            return base.fn(ts)

        kern = me.MellinKernel("k", 2, fn, base.decay, "counted", vectorized=True)
        fam = me.mellin_transform(kern, 0.5)
        assert calls == [len(fam._samples.u)]
        assert 2.0 * fam._samples.step * me.DEFAULT_LAMBDA_MAX <= math.pi
        assert 4.0 * fam._samples.step * me.DEFAULT_LAMBDA_MAX > math.pi

    def test_frequency_past_the_reach_raises_before_any_kernel_call(self):
        base = me.wedge_double_layer_kernel(math.pi / 2)

        def fn(ts):
            pytest.fail("kernel sampled")

        kern = me.MellinKernel("k", 2, fn, base.decay, "untouched", vectorized=True)
        with pytest.raises(me.QuadratureError,
                           match=r"^lam = 8130 needs more than the 312320 log-line intervals this window reaches$"):
            me.mellin_transform(kern, 0.5, [0.0, 8130.0])

    def test_refinement_past_the_plan_keeps_the_samples(self):
        # a lam beyond the plan halves the step as before: the old samples
        # stay, and the midpoints equal a chain's
        fam = me.mellin_transform(me.sech_test_kernel(), 0.5, np.array([0.0, 1.0, 100.0]))
        old = fam._samples.g.copy()
        fam.value(200.0)
        assert np.array_equal(fam._samples.g[::2], old)
        want = _halving_chain(me.sech_test_kernel(), 0.5, 200.0)
        assert fam._samples.g.tobytes() == want.g.tobytes()
