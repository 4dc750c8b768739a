"""Finite groupoids stored as index arrays: builder oracles and constructor pins.

The builders are compared with the dict loops in ``reference`` (ids,
tables and compose order); the id-table constructor keeps its messages.
"""

import numpy as np
import pytest

import gpdlab as gl
from gpdlab import conical as co
from gpdlab.groupoid import GroupoidError

import gen
import reference


def assert_same(got, want):
    assert got.units == want.units
    assert got.arrows == want.arrows
    assert got.same_tables(want)
    assert list(got.compose.items()) == list(want.compose.items())


def bundles():
    return [gl.build_group_bundle(base, group)
            for base in (["z"], ["p", "q"]) for group in gen.GROUPS[:5]]


def toy_pieces(m):
    comps = [f"c{c}" for c in range(2)]
    return co._toy_dilation_piece(m), gl.build_pair(comps)


class TestBuilderOracles:
    @pytest.mark.parametrize("n", range(7))
    def test_pair(self, n):
        assert_same(gl.build_pair(range(n)), reference.build_pair_reference(range(n)))

    def test_group_bundles(self):
        for base in ([], ["z"], ["p", "q", "r"]):
            for group in gen.GROUPS:
                assert_same(gl.build_group_bundle(base, group),
                            reference.build_group_bundle_reference(base, group))

    def test_products_of_pairs_with_bundles(self):
        for n in range(4):
            pair = gl.build_pair(range(n))
            for bundle in bundles():
                assert_same(gl.build_product(pair, bundle), reference.build_product_reference(pair, bundle))
                assert_same(gl.build_product(bundle, pair), reference.build_product_reference(bundle, pair))

    def test_random_groupoids(self):
        rng = np.random.default_rng(5)
        for i in range(3 * len(gen.KINDS)):
            g = gen.random_groupoid(rng, max_arrows=40, kind=gen.KINDS[i % len(gen.KINDS)])
            h = gen.random_groupoid(rng, max_arrows=12)
            assert_same(gl.build_product(g, h), reference.build_product_reference(g, h))
            um = {x: ("u", i, x) for x in g.units}
            am = {a: ("a", a) for a in g.arrows}
            assert_same(gl.relabel(g, um, am), reference.relabel_reference(g, um, am))
            parts = [g, h, g]
            assert_same(gl.build_disjoint_union(parts), reference.build_disjoint_union_reference(parts))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_toy_pieces(self, m):
        dilation, pair = toy_pieces(m)
        toy = gl.build_product(dilation, pair)
        assert_same(toy, reference.build_product_reference(dilation, pair))
        um = {x: f"u:{x}" for x in toy.units}
        am = {a: ("v", a) for a in toy.arrows}
        assert_same(gl.relabel(toy, um, am), reference.relabel_reference(toy, um, am))
        assert_same(gl.build_disjoint_union([toy, pair]),
                    reference.build_disjoint_union_reference([toy, pair]))

    def test_empty_parts(self):
        parts = [gl.build_pair([]), gl.build_pair(["x"]), gl.build_pair([])]
        assert_same(gl.build_disjoint_union(parts), reference.build_disjoint_union_reference(parts))
        assert_same(gl.build_disjoint_union([]), reference.build_disjoint_union_reference([]))


def pair2_tables():
    arrows = ["xx", "xy", "yx", "yy"]
    return dict(
        units=["x", "y"],
        arrows=arrows,
        dom={a: a[1] for a in arrows},
        rng={a: a[0] for a in arrows},
        unit_arrow={"x": "xx", "y": "yy"},
        inverse={a: a[::-1] for a in arrows},
        compose={(a, b): a[0] + b[1] for a in arrows for b in arrows if a[1] == b[0]},
    )


def build_with(**changes):
    tables = pair2_tables()
    for name, change in changes.items():
        change(tables[name])
    return gl.FiniteGroupoid(**tables)


class TestConstructorMessages:
    def test_clean_tables(self):
        g = build_with()
        assert gl.validate(g).ok
        assert g.same_tables(gl.relabel(gl.build_pair(["x", "y"]), {"x": "x", "y": "y"},
                                        {(r, d): r + d for r in "xy" for d in "xy"}))

    @pytest.mark.parametrize("changes, message", [
        (dict(units=lambda u: u.append("x")), "duplicate unit ids"),
        (dict(arrows=lambda a: a.append("xy")), "duplicate arrow ids"),
        (dict(dom=lambda t: t.pop("xy")), "dom table keys do not match: missing=[\"'xy'\"] extra=[]"),
        (dict(rng=lambda t: t.update(zz="x")), "rng table keys do not match: missing=[] extra=[\"'zz'\"]"),
        (dict(unit_arrow=lambda t: t.pop("x")),
         "unit_arrow table keys do not match: missing=[\"'x'\"] extra=[]"),
        (dict(inverse=lambda t: (t.pop("yy"), t.update(zz="xx"))),
         "inverse table keys do not match: missing=[\"'yy'\"] extra=[\"'zz'\"]"),
        (dict(dom=lambda t: t.update(yx="z", xy="w")), "dom has out-of-range value at 'xy'"),
        (dict(rng=lambda t: t.update(yy="z")), "rng has out-of-range value at 'yy'"),
        (dict(unit_arrow=lambda t: t.update(y="zz")), "unit_arrow has out-of-range value at 'y'"),
        (dict(inverse=lambda t: t.update(xy="zz")), "inverse has out-of-range value at 'xy'"),
        (dict(compose=lambda t: t.update({("xy", "yx"): "zz"})),
         "compose entry ('xy', 'yx') -> 'zz' uses unknown arrow id"),
        (dict(compose=lambda t: t.update({("qq", "xx"): "xx"})),
         "compose entry ('qq', 'xx') -> 'xx' uses unknown arrow id"),
        (dict(dom=lambda t: t.update(xy="w"), rng=lambda t: t.pop("xy")),
         "dom has out-of-range value at 'xy'"),
    ], ids=["dup-unit", "dup-arrow", "dom-keys", "rng-keys", "unit-arrow-keys", "inverse-keys",
            "dom-value", "rng-value", "unit-arrow-value", "inverse-value", "compose-value",
            "compose-key", "first-table-first"])
    def test_messages(self, changes, message):
        with pytest.raises(GroupoidError) as info:
            build_with(**changes)
        assert str(info.value) == message


ARRAYS = ("dom_i", "rng_i", "inv_i", "unit_i", "p1", "p2", "pp")


class TestArrayPath:
    def test_round_trip_through_arrays(self):
        g = gl.build_product(gl.build_pair(range(2)), gl.build_group_bundle(["z"], gl.GroupTable.cyclic(3)))
        assert_same(gl.FiniteGroupoid._from_arrays(g.units, g.arrows, *(getattr(g, n) for n in ARRAYS)), g)

    @pytest.mark.parametrize("name", ARRAYS)
    @pytest.mark.parametrize("where", ["negative", "at-bound"])
    def test_index_out_of_range_rejected(self, name, where):
        g = gl.build_pair(["x", "y"])
        arrays = {n: getattr(g, n).copy() for n in ARRAYS}
        bound = g.n_units if name in ("dom_i", "rng_i") else g.n_arrows
        arrays[name][1] = -1 if where == "negative" else bound
        with pytest.raises(GroupoidError, match=f"^{name} is not an index array"):
            gl.FiniteGroupoid._from_arrays(g.units, g.arrows, *(arrays[n] for n in ARRAYS))

    def test_length_mismatch_rejected(self):
        g = gl.build_pair(["x", "y"])
        with pytest.raises(GroupoidError, match="^pp is not an index array of length 8"):
            gl.FiniteGroupoid._from_arrays(g.units, g.arrows, g.dom_i, g.rng_i, g.inv_i, g.unit_i,
                                           g.p1, g.p2, g.pp[:-1])

    def test_views_are_read_only(self):
        g = gl.build_pair(["x", "y"])
        for name in ("dom", "rng", "unit_arrow", "inverse", "compose"):
            with pytest.raises(TypeError):
                getattr(g, name)["new"] = "x"


def test_toy_hot_path_builds_no_dict_view(monkeypatch, tmp_path):
    from gpdlab import algebra as al
    from gpdlab import fredholm as fr
    from gpdlab import groupoid as groupoid_module
    from gpdlab import specfiles as sf

    def refuse(keys, values):
        raise AssertionError("a dict view was built")

    monkeypatch.setattr(groupoid_module, "_table_view", refuse)
    toy = co.finite_toy_model(co.assemble_layer_groupoid(co.unit_square()), 2, 1)
    path = tmp_path / "toy.json"
    sf.dump(sf.groupoid_to_dict(toy.groupoid), path)
    g = sf.parse_groupoid(path)
    gl.orbits_and_isotropy(g)
    s = fr.make_structure(g, list(toy.interior_units))
    a = al.random_element(g, np.random.default_rng(0))
    assert fr.fredholm_criterion(s, a).equivalence_holds
    assert fr.strictly_spectral_check(s, 3, 0).passed
    assert len(al.block_decompose(g).blocks) == len(gl.orbits_and_isotropy(g).orbits)
    assert fr.recognize_boundary_bundle(s).verified
    with pytest.raises(AssertionError, match="view"):
        g.compose
