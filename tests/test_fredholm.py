import sys

import numpy as np
import pytest

import gpdlab as gl
from gpdlab import algebra as al
from gpdlab import conical as co
from gpdlab import fredholm as fr
from gpdlab.gluing import attach_ends

import gen
import reference


def attach_example():
    end = gl.build_disjoint_union(
        [gl.build_pair(["2"]), gl.build_group_bundle(["3"], gl.GroupTable.cyclic(2))]
    )
    end = gl.relabel(end, {(0, "2"): "2", (1, "3"): "3"}, {a: ("e", a) for a in end.arrows})
    return attach_ends(gl.build_pair(["1", "2"]), end).groupoid


class TestMakeStructure:
    def test_pair_groupoid_everything_interior(self):
        g = gl.build_pair(range(3))
        s = fr.make_structure(g, range(3))
        assert s.boundary == frozenset()
        assert s.boundary_representatives == ()

    def test_attach_example_boundary(self):
        g = attach_example()
        s = fr.make_structure(g, ["1", "2"])
        assert s.boundary == frozenset({"3"})
        assert s.boundary_representatives == ("3",)
        assert s.interior_representative == "1"

    def test_non_invariant_interior_rejected(self):
        g = gl.build_pair(range(3))
        with pytest.raises(fr.StructureError, match="invariant"):
            fr.make_structure(g, [0, 1])

    def test_non_pair_interior_rejected(self):
        g = gl.build_group_bundle(["a"], gl.GroupTable.cyclic(2))
        with pytest.raises(fr.StructureError, match="pair groupoid"):
            fr.make_structure(g, ["a"])

    def test_toy_layer_boundary_orbits(self):
        desc = gen.random_toy_descriptor(np.random.default_rng(0))
        toy = co.finite_toy_model(desc, m=2, interior_points=1)
        s = toy.structure
        assert len(s.boundary_orbits) == len(desc.pieces)
        assert sum(len(o) for o in s.boundary_orbits) == desc.boundary_unit_count


class TestMakeStructureReference:
    @staticmethod
    def outcome(f, g, u):
        """(the fields, with the arrow indices as a list; the boundary reduction)."""
        try:
            s = f(g, u)
        except fr.StructureError as exc:
            return (type(exc), str(exc)), None
        fields = {**vars(s), "boundary_arrows": s.boundary_arrows.tolist()}
        return fields, fields.pop("boundary_groupoid")

    def test_designations_match_reference(self):
        toy = co.finite_toy_model(co.assemble_layer_groupoid(co.unit_square()), 3, interior_points=2)
        g = toy.groupoid
        not_pair = "reduction to the designated interior is not a pair groupoid"
        cases = [
            (toy.interior_units, None),
            (toy.interior_units[1:], "designated interior is not invariant"),
            (toy.boundary_units[:2], not_pair),
            ([], None),
            (g.units, not_pair),
        ]
        for units, error in cases:
            got, gf = self.outcome(fr.make_structure, g, units)
            want, gf_reference = self.outcome(reference.make_structure_reference, g, units)
            assert got == want
            assert got == (fr.StructureError, error) if error else gf.same_tables(gf_reference)


class TestLimitOperators:
    def test_interior_support_gives_zero_family(self):
        g = attach_example()
        s = fr.make_structure(g, ["1", "2"])
        a = al.AlgebraElement.delta(g, g.unit_arrow["1"])
        fam = fr.limit_operators(s, a)
        assert all(np.max(np.abs(m)) == 0.0 for m in fam.matrices.values())

    def test_unit_element_gives_identity(self):
        g = attach_example()
        s = fr.make_structure(g, ["1", "2"])
        fam = fr.limit_operators(s, al.AlgebraElement.unit(g))
        for m in fam.matrices.values():
            assert np.array_equal(m, np.eye(m.shape[0]))

    def test_family_matches_restriction_blocks(self):
        toy = gen.random_toy_structure(np.random.default_rng(1))
        g, s = toy.groupoid, toy.structure
        a = al.random_element(g, np.random.default_rng(2))
        fam = fr.limit_operators(s, a)
        restricted, _ = al.restrict_boundary(a, s.boundary)
        dec = al.block_decompose(restricted.groupoid)
        for block, mat in zip(dec.blocks, dec.matrices(restricted)):
            # same representative, same fiber, same matrix up to basis order
            got = fam.matrices[block.representative]
            assert sorted(np.linalg.svd(got, compute_uv=False)) == pytest.approx(
                sorted(np.linalg.svd(mat, compute_uv=False))
            )

    def test_commutes_with_convolution(self):
        toy = gen.random_toy_structure(np.random.default_rng(3))
        g, s = toy.groupoid, toy.structure
        rng = np.random.default_rng(4)
        a, b = al.random_element(g, rng), al.random_element(g, rng)
        fam_a = fr.limit_operators(s, a)
        fam_b = fr.limit_operators(s, b)
        fam_ab = fr.limit_operators(s, al.convolve(a, b))
        for rep in s.boundary_representatives:
            assert np.max(np.abs(fam_ab.matrices[rep] - fam_a.matrices[rep] @ fam_b.matrices[rep])) < 1e-10


class TestSpectralCheck:
    def test_group_bundle_boundary_passes_thousand_trials(self):
        g = gl.build_disjoint_union(
            [gl.build_pair(range(3)), gl.build_group_bundle(["z", "w"], gl.GroupTable.cyclic(3))]
        )
        s = fr.make_structure(g, [(0, i) for i in range(3)])
        report = fr.strictly_spectral_check(s, trials=1000, seed=5)
        assert report.passed and report.trials == 1000

    def test_empty_boundary_vacuous(self):
        g = gl.build_pair(range(3))
        s = fr.make_structure(g, range(3))
        report = fr.strictly_spectral_check(s, trials=10, seed=0)
        assert report.passed and report.trials == 0

    def test_fibered_pullback_boundary_passes(self):
        h = gl.build_group_bundle(["B"], gl.GroupTable.cyclic(2))
        pb = gl.build_fibered_pullback({"m1": "B", "m2": "B"}, h)
        g = gl.build_disjoint_union([gl.build_pair(range(2)), pb])
        s = fr.make_structure(g, [(0, 0), (0, 1)])
        report = fr.strictly_spectral_check(s, trials=150, seed=6)
        assert report.passed


class TestCriterion:
    def test_zero_element_all_true(self):
        g = attach_example()
        s = fr.make_structure(g, ["1", "2"])
        v = fr.fredholm_criterion(s, al.AlgebraElement.zero(g))
        assert v.u_invertible and v.quotient_invertible and v.is_fredholm
        assert all(v.boundary_invertible.values())
        assert v.equivalence_holds

    def test_minus_unit_at_boundary(self):
        g = attach_example()
        s = fr.make_structure(g, ["1", "2"])
        a = -1.0 * al.AlgebraElement.delta(g, g.unit_arrow["3"])
        v = fr.fredholm_criterion(s, a)
        assert not v.boundary_invertible["3"]
        assert not v.quotient_invertible
        assert not v.is_fredholm
        assert v.equivalence_holds

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(7)
        structures = [gen.random_toy_structure(rng).structure for _ in range(3)]
        structures += [gen.random_attach_structure(rng) for _ in range(3)]
        count = 0
        for s in structures:
            for _ in range(25):
                a = al.random_element(s.groupoid, rng)
                v = fr.fredholm_criterion(s, a)
                assert v.equivalence_holds
                count += 1
        assert count == 150


class TestRecognition:
    def test_toy_layer_recognised(self):
        desc = co.LayerGroupoidDescriptor(
            co.LayerDomain(2, (co.Vertex("w", co.RayBase((0.0, 1.0))),)),
            (co.ConePiece("w", 2),),
        )
        toy = co.finite_toy_model(desc, m=3, interior_points=1)
        rec = fr.recognize_boundary_bundle(toy.structure)
        assert rec.verified
        assert rec.part_sizes == (2,)
        assert rec.fibers[0].order == 3
        assert gl.find_group_isomorphism(rec.fibers[0], gl.GroupTable.cyclic(3)) is not None

    def test_empty_boundary_trivial(self):
        g = gl.build_pair(range(2))
        s = fr.make_structure(g, range(2))
        rec = fr.recognize_boundary_bundle(s)
        assert rec.verified and rec.parts == ()

    def test_distinct_fibers_across_orbits(self):
        end = gl.build_disjoint_union(
            [
                gl.build_group_bundle(["p"], gl.GroupTable.cyclic(2)),
                gl.build_group_bundle(["q"], gl.GroupTable.symmetric(3)),
            ]
        )
        g = gl.build_disjoint_union([gl.build_pair(range(2)), end])
        s = fr.make_structure(g, [(0, 0), (0, 1)])
        rec = fr.recognize_boundary_bundle(s)
        assert rec.verified
        assert sorted(f.order for f in rec.fibers) == [2, 6]
        assert rec.fibers[0].order != rec.fibers[1].order


def loop_reference_cases():
    """(structure, elements) on random toy structures and the square toy at m = 2 and 3."""
    rng = np.random.default_rng(17)
    structures = [gen.random_toy_structure(rng).structure for _ in range(4)]
    square = co.assemble_layer_groupoid(co.unit_square())
    structures += [co.finite_toy_model(square, m, interior_points=2).structure for m in (2, 3)]
    for s in structures:
        g = s.groupoid
        elements = [al.random_element(g, rng) for _ in range(3)]
        elements += [al.AlgebraElement.zero(g), -1.0 * al.AlgebraElement.unit(g)]
        elements += [-1.0 * al.AlgebraElement.delta(g, g.unit_arrow[s.boundary_representatives[0]])]
        yield s, elements


class TestLoopReference:
    def test_limit_operators_match_regular_rep_loop(self):
        for s, elements in loop_reference_cases():
            for a in elements:
                fam = fr.limit_operators(s, a)
                mats, fibers = reference.limit_operators_reference(s, a)
                assert fam.representatives == s.boundary_representatives
                assert fam.fibers == fibers
                assert fam.matrices.keys() == mats.keys()
                assert all(np.array_equal(fam.matrices[x], mats[x]) for x in mats)

    def test_criterion_and_norm_match_regular_rep_loop(self):
        verdicts = set()
        for s, elements in loop_reference_cases():
            for a in elements:
                v = fr.fredholm_criterion(s, a)
                assert v == reference.fredholm_criterion_reference(s, a)
                assert al.reduced_norm(a) == reference.reduced_norm_reference(a)
                verdicts.add(v.is_fredholm)
        assert verdicts == {True, False}

    def test_spectral_check_matches_regular_rep_loop(self):
        for seed, (s, _) in enumerate(loop_reference_cases()):
            got = fr.strictly_spectral_check(s, 15, seed)
            assert vars(got) == vars(reference.strictly_spectral_check_reference(s, 15, seed))

    @pytest.mark.parametrize("chunks", [1, 3])
    def test_spectral_check_over_chunks_matches_reference(self, chunks):
        s = co.finite_toy_model(co.assemble_layer_groupoid(co.unit_square()), 2, interior_points=1).structure
        trials = chunks * fr._TRIAL_CHUNK + 1
        got = fr.strictly_spectral_check(s, trials, 8)
        assert vars(got) == vars(reference.strictly_spectral_check_reference(s, trials, 8))

    def test_counterexample_trials_numbered_across_chunks(self, monkeypatch):
        # route A replaced by the sign of each draw's first imaginary part: the
        # counterexamples then name the trials where it is negative, in draw order
        s = co.finite_toy_model(co.assemble_layer_groupoid(co.unit_square()), 2, interior_points=1).structure
        monkeypatch.setattr(fr, "_solve_inverse_rows", lambda g, a: (a[:, 0].imag > 0, None))
        trials, rng, want = 3 * fr._TRIAL_CHUNK + 1, np.random.default_rng(9), []
        for t in range(trials):
            if al.random_element(s.boundary_groupoid, rng).vec[0].imag <= 0:
                want.append({"trial": t, "algebra": False, "family": True})
        assert fr.strictly_spectral_check(s, trials, 9).counterexamples == want


def test_one_boundary_reduction_per_structure(monkeypatch):
    toy = co.finite_toy_model(co.assemble_layer_groupoid(co.unit_square()), 2, interior_points=1)
    real, calls = gl.reduction, []

    def counted(g, a):
        calls.append(a)
        return real(g, a)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gpdlab") and getattr(mod, "reduction", None) is real:
            monkeypatch.setattr(mod, "reduction", counted)
    s = fr.make_structure(toy.groupoid, toy.interior_units)
    fr.fredholm_criterion(s, al.random_element(toy.groupoid, np.random.default_rng(0)))
    fr.strictly_spectral_check(s, 5, 0)
    assert fr.recognize_boundary_bundle(s).verified
    assert len(calls) == 1
