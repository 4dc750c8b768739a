import itertools

import numpy as np
import pytest

import gpdlab as gl
from gpdlab import conical as co
from gpdlab.groupoid import GroupoidError, isotropy_table

import gen
import reference


def corrupt(g, **tables):
    merged = dict(
        units=g.units, arrows=g.arrows, dom=dict(g.dom), rng=dict(g.rng),
        unit_arrow=dict(g.unit_arrow), inverse=dict(g.inverse), compose=dict(g.compose),
    )
    for name, updates in tables.items():
        merged[name].update(updates)
    return gl.FiniteGroupoid(**merged)


class TestValidate:
    def test_pair_groupoid_clean(self):
        g = gl.build_pair(range(3))
        assert g.n_arrows == 9
        assert gl.validate(g).ok

    def test_one_object_z2_clean(self):
        g = gl.build_group_bundle(["*"], gl.GroupTable.cyclic(2))
        assert gl.validate(g).ok

    def test_composability_breach_with_witness(self):
        g = gl.build_pair(range(3))
        # declare a product for a non-composable pair: (0,1) after (0,2)
        bad = corrupt(g, compose={((0, 1), (0, 2)): (0, 2)})
        rep = gl.validate(bad)
        assert not rep.ok
        assert "composability" in rep.axioms()
        witnesses = [v.witness for v in rep.violations if v.axiom == "composability"]
        assert ((0, 1), (0, 2)) in witnesses

    def test_corrupted_compose_value(self):
        g = gl.build_pair(range(3))
        bad = corrupt(g, compose={((0, 1), (1, 2)): (1, 0)})
        rep = gl.validate(bad)
        assert not rep.ok

    def test_corrupted_inverse(self):
        g = gl.build_group_bundle(["*"], gl.GroupTable.cyclic(3))
        bad = corrupt(g, inverse={("*", 1): ("*", 1)})
        assert not gl.validate(bad).ok

    def test_corrupted_unit_arrow(self):
        g = gl.build_group_bundle(["*"], gl.GroupTable.cyclic(2))
        bad = corrupt(g, unit_arrow={"*": ("*", 1)})
        assert not gl.validate(bad).ok

    def test_agrees_with_reference_oracle(self):
        g = gl.build_pair(range(3))
        bad = corrupt(g, compose={((0, 1), (1, 2)): (1, 0)})
        reference.check_against_oracle(gl.validate(bad), bad)
        assert reference.axiom_violations(g) == {}

    def test_random_mutants_agree_with_reference_oracle(self):
        rng = np.random.default_rng(7)
        for i in range(200):
            g = gen.random_groupoid(rng, max_arrows=60, kind=gen.KINDS[i % len(gen.KINDS)])
            out = gen.mutate(rng, g)
            if out is not None:
                reference.check_against_oracle(gl.validate(out[0]), out[0])

    def test_mutants_above_2048_arrows_agree_with_reference_oracle(self):
        g = gl.build_group_bundle(range(1100), gl.GroupTable.cyclic(2))
        assert g.n_arrows == 2200 and gl.validate(g).ok
        rng = np.random.default_rng(11)
        for _ in range(30):
            mutant, _ = gen.mutate(rng, g)
            reference.check_against_oracle(gl.validate(mutant), mutant)
        missing = dict(g.compose)
        del missing[((17, 1), (17, 1))]
        mutant = gl.FiniteGroupoid(g.units, g.arrows, g.dom, g.rng, g.unit_arrow, g.inverse, missing)
        reference.check_against_oracle(gl.validate(mutant), mutant)

    def test_defined_but_not_composable_entries(self):
        # exact reports of the former dense n x n validator on these inputs
        bad = corrupt(gl.build_pair(range(3)), compose={((0, 1), (0, 2)): (0, 2)})
        assert gl.validate(bad).as_dict() == {"ok": False, "violations": [
            {"axiom": "associativity", "witness": ["(0, 1)", "(0, 2)", "(2, 0)"]},
            {"axiom": "associativity", "witness": ["(0, 1)", "(0, 2)", "(2, 1)"]},
            {"axiom": "composability", "witness": ["(0, 1)", "(0, 2)"]},
        ]}
        bundle = gl.build_group_bundle(range(1100), gl.GroupTable.cyclic(2))
        bad = corrupt(bundle, compose={((1099, 1), (3, 0)): (3, 1), ((5, 0), (4, 1)): (5, 0)})
        assert gl.validate(bad).as_dict() == {"ok": False, "violations": [
            {"axiom": "associativity", "witness": ["(1099, 1)", "(3, 0)", "(3, 1)"]},
            {"axiom": "associativity", "witness": ["(5, 0)", "(4, 1)", "(4, 0)"]},
            {"axiom": "associativity", "witness": ["(5, 0)", "(4, 1)", "(4, 1)"]},
            {"axiom": "composability", "witness": ["(5, 0)", "(4, 1)"]},
            {"axiom": "composability", "witness": ["(1099, 1)", "(3, 0)"]},
        ]}
        reference.check_against_oracle(gl.validate(bad), bad)

    def test_vectorised_mul_matches_compose_get(self):
        g = gl.build_pair(range(4))
        compose = dict(g.compose)
        compose.update({((0, 1), (0, 2)): (0, 3), ((2, 3), (3, 1)): (2, 2)})
        del compose[((1, 2), (2, 0))]
        bad = gl.FiniteGroupoid(g.units, g.arrows, g.dom, g.rng, g.unit_arrow, g.inverse, compose)
        n = bad.n_arrows
        a, b = np.divmod(np.arange(n * n), n)
        got = bad._mul_idx(a, b)
        aidx = bad.arrow_index()
        want = [aidx.get(bad.compose.get((bad.arrows[i], bad.arrows[j])), -1) for i, j in zip(a, b)]
        assert got.tolist() == want

    def test_structurally_malformed_rejected(self):
        with pytest.raises(GroupoidError):
            gl.FiniteGroupoid(["x"], ["a"], {"a": "y"}, {"a": "x"}, {"x": "a"}, {"a": "a"}, {})


class TestReductionSaturation:
    def test_reduction_all_units_is_identity(self):
        g = gl.build_pair(range(4))
        assert gl.reduction(g, range(4)).same_tables(g)

    def test_pair_reduction_is_smaller_pair(self):
        g = gl.build_pair(range(4))
        red = gl.reduction(g, [0, 1])
        assert red.same_tables(gl.build_pair([0, 1]))

    def test_empty_reduction(self):
        red = gl.reduction(gl.build_pair(range(3)), [])
        assert red.n_units == 0 and red.n_arrows == 0

    def test_unknown_unit_rejected(self):
        with pytest.raises(GroupoidError):
            gl.reduction(gl.build_pair(range(3)), [7])

    @staticmethod
    def outcome(f, *args):
        try:
            return f(*args)
        except GroupoidError as exc:
            return str(exc)

    def check_against_reference(self, g, subset):
        got = self.outcome(gl.reduction, g, subset)
        want = self.outcome(reference.reduction_reference, g, subset)
        assert got == want if isinstance(want, str) else got.same_tables(want)
        members = frozenset(subset)
        assert gl.saturation(g, subset).members == members | {
            g.rng[a] for a in g.arrows if g.dom[a] in members
        }

    @pytest.mark.parametrize("seed", range(25))
    def test_reduction_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        g = gen.random_groupoid(rng)
        picked = rng.random(g.n_units) < 0.5
        subsets = [[], list(g.units), [x for x, p in zip(g.units, picked) if p]]
        subsets += [list(o) for o in gl.orbits_and_isotropy(g, check=False).orbits]
        mutant = gen.mutate(rng, g)
        for h in [g] + ([mutant[0]] if mutant else []):
            for subset in subsets:
                self.check_against_reference(h, subset)

    def test_toy_reductions_match_reference(self):
        rng = np.random.default_rng(3)
        square = co.assemble_layer_groupoid(co.unit_square())
        for toy in [co.finite_toy_model(square, 3, interior_points=2), gen.random_toy_structure(rng)]:
            for subset in (toy.interior_units, toy.boundary_units, toy.boundary_units[1:]):
                self.check_against_reference(toy.groupoid, subset)

    def test_pair_saturation_is_everything(self):
        g = gl.build_pair(range(5))
        assert gl.saturation(g, [2]).members == frozenset(range(5))

    def test_bundle_saturation_fixes_subsets(self):
        g = gl.build_group_bundle(["a", "b", "c"], gl.GroupTable.cyclic(2))
        assert gl.saturation(g, ["b"]).members == frozenset(["b"])

    def _bfs_orbit_closure(self, g, start):
        # independent oracle: breadth-first search over arrows
        seen, frontier = set(start), list(start)
        while frontier:
            x = frontier.pop()
            for a in g.arrows:
                for y in ((g.rng[a],) if g.dom[a] == x else ()):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
                if g.rng[a] == x and g.dom[a] not in seen:
                    seen.add(g.dom[a])
                    frontier.append(g.dom[a])
        return seen

    def test_saturation_matches_bfs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = gen.random_groupoid(rng, max_arrows=80)
            if g.n_units == 0:
                continue
            start = [g.units[int(rng.integers(g.n_units))]]
            assert gl.saturation(g, start).members == self._bfs_orbit_closure(g, start)

    def test_saturation_is_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            g = gen.random_groupoid(rng, max_arrows=80)
            if g.n_units == 0:
                continue
            start = [g.units[int(rng.integers(g.n_units))]]
            sat = gl.saturation(g, start)
            assert gl.saturation(g, sat).members == sat.members
            assert gl.is_invariant(g, sat)


class TestOrbitsIsotropy:
    def test_pair_single_orbit_trivial_isotropy(self):
        part = gl.orbits_and_isotropy(gl.build_pair(range(4)))
        assert len(part.orbits) == 1
        assert part.isotropy[0].order == 1

    def test_bundle_orbits(self):
        g = gl.build_group_bundle(["a", "b", "c"], gl.GroupTable.cyclic(2))
        part = gl.orbits_and_isotropy(g)
        assert len(part.orbits) == 3
        assert all(t.order == 2 for t in part.isotropy)
        z2 = gl.GroupTable.cyclic(2)
        assert all(gl.find_group_isomorphism(t, z2) for t in part.isotropy)

    def test_swap_action_single_orbit(self):
        z2 = gl.GroupTable.cyclic(2)
        g = gl.build_action(z2, [0, 1], lambda x, e: (x + e) % 2)
        part = gl.orbits_and_isotropy(g)
        assert len(part.orbits) == 1
        assert part.isotropy[0].order == 1

    def test_isotropy_table_of_unknown_unit(self):
        with pytest.raises(GroupoidError, match="^unknown unit 'q'$"):
            isotropy_table(gl.build_pair(range(2)), "q")

    def test_isotropy_isomorphic_within_orbit_by_search(self):
        # conjugation is checked internally; re-check with the explicit search
        g = gl.build_product(gl.build_pair(range(3)), gl.build_group_bundle(["z"], gl.GroupTable.symmetric(3)))
        part = gl.orbits_and_isotropy(g)
        assert len(part.orbits) == 1
        rep_table = part.isotropy[0]
        for x in g.units:
            table = isotropy_table(g, x)
            assert gl.find_group_isomorphism(rep_table, table) is not None


class TestBuilders:
    def test_pair_by_n(self):
        g = gl.build("pair", n=3)
        assert g.n_arrows == 9 and gl.validate(g).ok

    def test_action_translation_is_pair(self):
        z4 = gl.GroupTable.cyclic(4)
        g = gl.build_action(z4, range(4), lambda x, e: (x + e) % 4)
        p4 = gl.build_pair(range(4))
        iso = gl.find_isomorphism(g, p4)
        assert iso is not None and gl.check_isomorphism(g, p4, *iso)

    def test_action_with_trivial_group_is_unit_only(self):
        g = gl.build_action(gl.GroupTable.trivial(), ["p", "q"], lambda x, e: x)
        assert g.n_arrows == g.n_units == 2
        assert set(g.unit_arrow.values()) == set(g.arrows)

    def test_non_action_rejected(self):
        z2 = gl.GroupTable.cyclic(2)
        with pytest.raises(GroupoidError):
            gl.build_action(z2, [0, 1], lambda x, e: 0)

    def test_action_breaking_only_the_composition_law_rejected(self):
        # x.0 = x, but (x.1).1 = x while x.(1 + 1) = x.2 = 1 - x
        z3 = gl.GroupTable.cyclic(3)
        with pytest.raises(GroupoidError, match="^not a right action: "):
            gl.build_action(z3, [0, 1], lambda x, g: x if g == 0 else 1 - x)

    def test_fibered_pullback_count(self):
        # |{a,b,c}|^2 x |Z/2| = 18 arrows by enumeration
        h = gl.build_group_bundle([0], gl.GroupTable.cyclic(2))
        g = gl.build_fibered_pullback({"a": 0, "b": 0, "c": 0}, h)
        assert g.n_arrows == 18
        assert gl.validate(g).ok

    def test_fibered_pullback_requires_surjective(self):
        h = gl.build_group_bundle([0, 1], gl.GroupTable.cyclic(2))
        with pytest.raises(GroupoidError):
            gl.build_fibered_pullback({"a": 0}, h)

    def test_unknown_kind(self):
        with pytest.raises(GroupoidError):
            gl.build("frobnicate")

    def test_generated_groupoids_validate(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            assert gl.validate(gen.random_groupoid(rng)).ok


class TestGroupTable:
    def test_cyclic_orders(self):
        z6 = gl.GroupTable.cyclic(6)
        assert z6.order == 6 and z6.is_abelian()
        assert z6.order_profile() == (1, 2, 3, 3, 6, 6)

    def test_product_isomorphism(self):
        z6 = gl.GroupTable.cyclic(6)
        z23 = gl.GroupTable.product(gl.GroupTable.cyclic(2), gl.GroupTable.cyclic(3))
        assert gl.find_group_isomorphism(z6, z23) is not None

    def test_nonisomorphic_groups(self):
        assert gl.find_group_isomorphism(gl.GroupTable.cyclic(6), gl.GroupTable.symmetric(3)) is None
        assert gl.find_group_isomorphism(
            gl.GroupTable.cyclic(4), gl.GroupTable.product(gl.GroupTable.cyclic(2), gl.GroupTable.cyclic(2))
        ) is None

    def test_bad_tables_rejected(self):
        with pytest.raises(GroupoidError):
            gl.GroupTable.from_mul([0, 1], lambda a, b: 0)

    def test_non_associative_latin_table_rejected(self):
        # a Latin square with identity 0: (1 * 2) * 2 = 4 but 1 * (2 * 2) = 1
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(GroupoidError, match="^multiplication table is not a group$"):
            gl.GroupTable.from_table(range(5), loop)

    @pytest.mark.parametrize("table", [[[0, 1], [1]], [[0, 1, 0], [1, 0, 1]], [[0, 1]]],
                             ids=["ragged", "two-by-three", "one-row"])
    def test_misshapen_tables_rejected(self, table):
        with pytest.raises(GroupoidError, match="^multiplication table is not a group$"):
            gl.GroupTable.from_table(range(2), table)

    def test_built_ins_equal_the_checked_construction(self):
        def cyclic(m):
            return gl.GroupTable.from_mul(range(m), lambda a, b: (a + b) % m)

        def product(a, b):
            return gl.GroupTable.from_mul(itertools.product(a.elements, b.elements),
                                          lambda x, y: (a.mul(x[0], y[0]), b.mul(x[1], y[1])))

        s3 = gl.GroupTable.symmetric(3)
        cases = [(gl.GroupTable.trivial(), gl.GroupTable.from_mul([0], lambda a, b: 0))]
        cases += [(gl.GroupTable.cyclic(m), cyclic(m)) for m in (1, 2, 5, 12, 64)]
        for a, b in [(cyclic(2), cyclic(3)), (cyclic(4), cyclic(4)), (s3, cyclic(2)), (cyclic(2), s3)]:
            cases.append((gl.GroupTable.product(a, b), product(a, b)))
        cases.append((gl.GroupTable.product(gl.GroupTable.product(s3, cyclic(2)), cyclic(3)),
                      product(product(s3, cyclic(2)), cyclic(3))))
        for built, checked in cases:
            assert built.elements == checked.elements and built.identity == checked.identity
            assert built.table.tolist() == checked.table.tolist()

    def test_built_ins_skip_the_group_check(self, monkeypatch):
        s3 = gl.GroupTable.symmetric(3)

        def refuse(*args):
            pytest.fail("a built-in group was checked")

        monkeypatch.setattr("gpdlab.groupoid._non_groups", refuse)
        z64 = gl.GroupTable.cyclic(64)
        gl.GroupTable.product(z64, gl.GroupTable.trivial())
        gl.GroupTable.product(gl.GroupTable.product(s3, gl.GroupTable.cyclic(2)), z64)
        with pytest.raises(pytest.fail.Exception):  # a table from outside is still checked
            gl.GroupTable.from_table(range(2), [[0, 1], [1, 0]])

    def test_tables_are_read_only(self):
        g = gl.build_product(gl.build_pair(range(2)), gl.build_group_bundle(["z"], gl.GroupTable.symmetric(3)))
        z2 = gl.GroupTable.cyclic(2)
        tables = [z2, gl.GroupTable.trivial(), gl.GroupTable.product(z2, gl.GroupTable.cyclic(3)),
                  gl.GroupTable.symmetric(3), gl.GroupTable.from_table(range(2), [[0, 1], [1, 0]]),
                  *gl.orbits_and_isotropy(g).isotropy, isotropy_table(g, (1, "z"))]
        for t in tables:
            assert t.table.dtype == np.int64 and t.table.shape == (t.order, t.order)
            assert not (t.table.flags.writeable or t.inverses.flags.writeable or t.element_orders.flags.writeable)
            with pytest.raises(ValueError, match="read-only"):
                t.table[0, 0] = 0

    def test_callers_arrays_stay_their_own(self):
        own = np.array([[0, 1], [1, 0]])
        t = gl.GroupTable((0, 1), own, 0)
        assert own.flags.writeable and not t.table.flags.writeable
        checked = gl.GroupTable.from_table(range(2), own)
        own[0, 0] = 1
        assert checked.table.tolist() == [[0, 1], [1, 0]]

    def test_inverses_and_orders_agree_with_walks(self):
        for name, t in iso_test_groups().items():
            n, table, e = t.order, t.table.tolist(), t.identity
            inverses = [next(j for j in range(n) if table[i][j] == e) for i in range(n)]
            orders = []
            for i in range(n):
                k, power = 1, i
                while power != e:
                    k, power = k + 1, table[power][i]
                orders.append(k)
            assert t.inverses.tolist() == inverses == [t.inverse_index(i) for i in range(n)], name
            assert all(table[j][i] == e for i, j in enumerate(inverses)), name
            assert t.element_orders.tolist() == orders and t.order_profile() == tuple(sorted(orders)), name
            assert t.is_abelian() == all(table[i][j] == table[j][i] for i in range(n) for j in range(n)), name

    def test_isomorphism_search_matches_the_reference(self):
        groups = list(iso_test_groups().values())
        found = 0
        for a in groups:
            for b in groups:
                mapping = gl.find_group_isomorphism(a, b)
                assert mapping == reference.find_group_isomorphism_reference(a, b)
                found += mapping is not None
        assert (len(groups), found) == (28, 38)  # 21 singleton classes, one of 3 groups, two of 2


def iso_test_groups() -> dict:
    """Cyclic, product and symmetric groups of order up to 24, by name."""
    G, p = gl.GroupTable, gl.GroupTable.product
    c = {m: G.cyclic(m) for m in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 24)}
    s3, k4 = G.symmetric(3), p(c[2], c[2])
    return {**{f"C{m}": t for m, t in c.items()},
            "C2xC2": k4, "C2xC3": p(c[2], c[3]), "C3xC2": p(c[3], c[2]), "S3": s3,
            "C4xC2": p(c[4], c[2]), "C2xC4": p(c[2], c[4]), "(C2xC2)xC2": p(k4, c[2]),
            "C3xC3": p(c[3], c[3]), "C6xC2": p(c[6], c[2]), "S3xC2": p(s3, c[2]), "C2xS3": p(c[2], s3),
            "(C2xC2)x(C2xC2)": p(k4, k4), "C4xC4": p(c[4], c[4]), "C8xC2": p(c[8], c[2]),
            "S4": G.symmetric(4), "S3xC4": p(s3, c[4]), "C12xC2": p(c[12], c[2])}


class TestIsoSearch:
    def test_relabelled_groupoids_isomorphic(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = gen.random_groupoid(rng, max_arrows=60)
            perm = rng.permutation(g.n_arrows)
            amap = {a: ("r", int(perm[i])) for i, a in enumerate(g.arrows)}
            umap = {x: ("u", i) for i, x in enumerate(g.units)}
            h = gl.relabel(g, umap, amap)
            iso = gl.find_isomorphism(g, h)
            assert iso is not None and gl.check_isomorphism(g, h, *iso)

    def test_distinguishes_bundle_from_action(self):
        z2 = gl.GroupTable.cyclic(2)
        bundle = gl.build_group_bundle([0, 1], z2)  # two orbits
        swap = gl.build_action(z2, [0, 1], lambda x, e: (x + e) % 2)  # one orbit
        assert gl.find_isomorphism(bundle, swap) is None

    def test_is_pair_groupoid(self):
        assert gl.is_pair_groupoid(gl.build_pair(range(5)))
        assert not gl.is_pair_groupoid(gl.build_group_bundle([0], gl.GroupTable.cyclic(2)))
