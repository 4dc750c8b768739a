import hashlib
import itertools
from importlib import resources

import numpy as np
import pytest

import gpdlab as gl
from gpdlab import conical as co
from gpdlab import gluing
from gpdlab import specfiles as sf
from gpdlab.gluing import (
    AtlasError,
    GluingAtlas,
    GluingError,
    GluingPiece,
    attach_ends,
    check_strong_gluing,
    check_weak_gluing,
    glue,
)

import gen
import reference


def identity_piece(units):
    units = list(units)
    return GluingPiece(gl.build_pair(units), {u: u for u in units})


X = ["1", "2", "3", "4"]
U1 = ["1", "2", "3"]
U2 = ["2", "3", "4"]


@pytest.fixture
def three_piece_atlas():
    return GluingAtlas(X, [identity_piece(X), identity_piece(U1), identity_piece(U2)])


@pytest.fixture
def two_piece_atlas():
    return GluingAtlas(X, [identity_piece(U1), identity_piece(U2)])


class TestConditions:
    def test_three_piece_family_passes_weak(self, three_piece_atlas):
        assert check_weak_gluing(three_piece_atlas).ok

    def test_three_piece_family_passes_strong_with_full_chart(self, three_piece_atlas):
        res = check_strong_gluing(three_piece_atlas)
        assert res.ok
        assert all(v == 0 for v in res.chart_choice.values())

    def test_two_piece_pair_fails_weak_with_crossing_witness(self, two_piece_atlas):
        res = check_weak_gluing(two_piece_atlas)
        assert not res.ok
        (i1, a1), (i2, a2) = res.witness
        # the witness arrows cross the overlap from opposite sides
        assert i1 != i2

    def test_two_piece_pair_fails_strong(self, two_piece_atlas):
        res = check_strong_gluing(two_piece_atlas)
        assert not res.ok
        x, piece, orbit = res.witness
        assert x in {"2", "3"}

    def test_single_piece_atlas_weak(self):
        atlas = GluingAtlas(X, [identity_piece(X)])
        assert check_weak_gluing(atlas).ok

    def test_singleton_orbit_pieces_pass_strong(self):
        # bundle pieces have singleton orbits, so any chart works
        z3 = gl.GroupTable.cyclic(3)
        b1 = gl.build_group_bundle(["1", "2"], z3)
        b2 = gl.build_group_bundle(["2", "3"], z3)
        phi12 = {a: a for a in b1.arrows if b1.dom[a] == "2"}
        atlas = GluingAtlas(
            ["1", "2", "3"],
            [GluingPiece(b1, {u: u for u in b1.units}), GluingPiece(b2, {u: u for u in b2.units})],
            {(0, 1): phi12},
        )
        res = check_strong_gluing(atlas)
        assert res.ok
        assert res.alternatives["2"]  # both charts admissible at the shared unit

    def test_strong_implies_weak_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            atlas = gen.random_bundle_patch_atlas(rng)
            weak = check_weak_gluing(atlas)
            strong_holds = True
            try:
                strong_holds = check_strong_gluing(atlas).ok
            except AssertionError:  # would signal a broken implication
                pytest.fail("strong gluing held while weak failed")
            if strong_holds:
                assert weak.ok

    def test_cocycle_violation_refused(self):
        z3 = gl.build_group_bundle(["x"], gl.GroupTable.cyclic(3))
        piece = GluingPiece(z3, {"x": "x"})
        ident = {a: a for a in z3.arrows}
        twist = {("x", 0): ("x", 0), ("x", 1): ("x", 2), ("x", 2): ("x", 1)}
        atlas = GluingAtlas(["x"], [piece, piece, piece],
                            {(0, 1): ident, (1, 2): ident, (0, 2): twist})
        with pytest.raises(AtlasError, match="cocycle"):
            check_weak_gluing(atlas)

    def test_non_multiplicative_phi_refused(self):
        z3 = gl.build_group_bundle(["x"], gl.GroupTable.cyclic(3))
        piece = GluingPiece(z3, {"x": "x"})
        # bijective, endpoint-preserving, but not a homomorphism
        not_hom = {("x", 0): ("x", 1), ("x", 1): ("x", 0), ("x", 2): ("x", 2)}
        atlas = GluingAtlas(["x"], [piece, piece], {(0, 1): not_hom})
        with pytest.raises(AtlasError, match="multiplicative|identity"):
            atlas.check()

    def test_cover_required(self):
        with pytest.raises(AtlasError, match="cover"):
            GluingAtlas(X, [identity_piece(U1)])


class TestGlue:
    def test_pair_cover_glues_to_full_pair(self, three_piece_atlas):
        glued = glue(three_piece_atlas)
        assert gl.is_pair_groupoid(glued.groupoid)
        assert set(glued.groupoid.units) == set(X)
        assert glued.groupoid.n_arrows == 16

    def test_single_piece_returns_the_piece(self):
        atlas = GluingAtlas(X, [identity_piece(X)])
        glued = glue(atlas)
        iso = gl.find_isomorphism(glued.groupoid, gl.build_pair(X))
        assert iso is not None

    def test_empty_atlas_glues_to_the_empty_groupoid(self):
        atlas = GluingAtlas([], [])
        assert check_strong_gluing(atlas).ok and check_weak_gluing(atlas).ok
        assert glue(atlas).groupoid.n_arrows == 0

    def test_weak_failure_refuses(self, two_piece_atlas):
        with pytest.raises(GluingError, match="weak gluing"):
            glue(two_piece_atlas)

    def test_projections_are_isomorphisms_onto_reductions(self, three_piece_atlas):
        glued = glue(three_piece_atlas)
        for piece, proj in zip(three_piece_atlas.pieces, glued.projections):
            red = gl.reduction(glued.groupoid, piece.embedded_units())
            assert set(proj.values()) == set(red.arrows)
            umap = dict(piece.embedding)
            assert gl.check_isomorphism(piece.groupoid, red, umap, proj)

    def test_glue_idempotent_up_to_isomorphism(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            atlas = gen.random_pair_cover_atlas(rng, n_max=6)
            glued = glue(atlas)
            # re-glue the atlas of reductions of the result
            pieces = [
                GluingPiece(
                    gl.reduction(glued.groupoid, p.embedded_units()),
                    {u: u for u in p.embedded_units()},
                )
                for p in atlas.pieces
            ]
            reglued = glue(GluingAtlas(atlas.x_units, pieces))
            assert gl.find_isomorphism(glued.groupoid, reglued.groupoid) is not None

    def test_result_independent_of_piece_order(self, three_piece_atlas):
        glued = glue(three_piece_atlas)
        reordered = GluingAtlas(
            X, [identity_piece(U2), identity_piece(U1), identity_piece(X)]
        )
        glued2 = glue(reordered)
        assert gl.find_isomorphism(glued.groupoid, glued2.groupoid) is not None

    def test_inconsistent_products_detected(self, monkeypatch):
        # sneak a non-multiplicative phi past the atlas check to exercise
        # the exhaustive product-consistency guard
        z3 = gl.build_group_bundle(["x"], gl.GroupTable.cyclic(3))
        piece = GluingPiece(z3, {"x": "x"})
        not_hom = {("x", 0): ("x", 1), ("x", 1): ("x", 0), ("x", 2): ("x", 2)}
        atlas = GluingAtlas(["x"], [piece, piece], {(0, 1): not_hom})
        monkeypatch.setattr(atlas, "check", lambda: None)
        with pytest.raises(GluingError):
            glue(atlas)


class TestAttachEnds:
    def build_end(self):
        end = gl.build_disjoint_union(
            [gl.build_pair(["2"]), gl.build_group_bundle(["3"], gl.GroupTable.cyclic(2))]
        )
        return gl.relabel(end, {(0, "2"): "2", (1, "3"): "3"}, {a: ("e", a) for a in end.arrows})

    def test_example_counts_and_orbits(self):
        glued = attach_ends(gl.build_pair(["1", "2"]), self.build_end())
        # piece contributions 4 + 1 + 2 with the overlap unit arrow identified
        assert glued.groupoid.n_arrows == 6
        part = gl.orbits_and_isotropy(glued.groupoid)
        assert sorted(sorted(o) for o in part.orbits) == [["1", "2"], ["3"]]
        orders = {min(o): t.order for o, t in zip(part.orbits, part.isotropy)}
        assert orders == {"1": 1, "3": 2}

    def test_end_inside_pair_part_gives_pair(self):
        glued = attach_ends(gl.build_pair(["1", "2", "3"]), gl.build_pair(["2", "3"]))
        assert gl.is_pair_groupoid(glued.groupoid)
        assert glued.groupoid.n_arrows == 9

    def test_overlap_must_reduce_to_pair(self):
        bad_end = gl.build_group_bundle(["2", "3"], gl.GroupTable.cyclic(2))
        with pytest.raises(GluingError, match="pair groupoid"):
            attach_ends(gl.build_pair(["1", "2"]), bad_end)

    def test_overlap_must_be_invariant(self):
        # a pair piece on {2, 3} has arrows leaving {2}
        with pytest.raises(GluingError, match="invariant"):
            attach_ends(gl.build_pair(["1", "2"]), gl.build_pair(["2", "3"]))

    def test_first_piece_must_be_pair(self):
        bundle = gl.build_group_bundle(["1"], gl.GroupTable.cyclic(2))
        with pytest.raises(GluingError, match="pair groupoid"):
            attach_ends(bundle, gl.build_pair(["1"]))


# ---------------------------------------------------------------------------
# the array gluing against the dict oracle


def outcome(fn, atlas):
    try:
        return fn(atlas)
    except (AtlasError, GluingError) as exc:
        return type(exc), str(exc)


def glue_error(fn):
    try:
        fn()
    except GluingError as exc:
        return str(exc)
    return "ok"


def assert_glue_matches_reference(atlas):
    got, want = outcome(glue, atlas), outcome(reference.glue_reference, atlas)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.groupoid.same_tables(want.groupoid)
    assert list(got.groupoid.compose.items()) == list(want.groupoid.compose.items())
    assert got.projections == want.projections


def assert_weak_matches_reference(atlas):
    res, witness = check_weak_gluing(atlas), reference.weak_witness_reference(atlas)
    assert res.ok == (witness is None)
    assert res.witness == witness
    return res.ok


def corpus_descriptor(name):
    domain = sf.parse_domain(str(resources.files("gpdlab") / "corpus" / f"{name}.json"))
    return co.assemble_layer_groupoid(domain)


class TestAgainstReference:
    @pytest.mark.parametrize("closed", [True, False])
    def test_random_pair_covers(self, closed):
        rng = np.random.default_rng(71 if closed else 72)
        weak = []
        for _ in range(60):
            atlas = gen.random_pair_cover_atlas(rng, closed=closed)
            weak.append(assert_weak_matches_reference(atlas))
            assert_glue_matches_reference(atlas)
        assert all(weak) if closed else not all(weak)  # open covers include weak failures

    def test_random_bundle_patches(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            atlas = gen.random_bundle_patch_atlas(rng)
            assert_weak_matches_reference(atlas)
            assert_glue_matches_reference(atlas)

    def test_strong_condition(self):
        rng = np.random.default_rng(74)
        verdicts = []
        for t in range(90):
            atlas = gen.random_bundle_patch_atlas(rng) if t % 2 else gen.random_pair_cover_atlas(rng, closed=False)
            res = check_strong_gluing(atlas)
            assert (res.ok, res.witness, res.chart_choice, res.alternatives) == reference.strong_gluing_reference(atlas)
            verdicts.append(res.ok)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("name", ["square", "pentagon", "lshape"])
    @pytest.mark.parametrize("m, ip", [(1, 0), (2, 1), (3, 2)])
    def test_toy_models(self, name, m, ip):
        toy = co.finite_toy_model(corpus_descriptor(name), m, ip)
        want = reference.glue_reference(toy.glued.atlas)
        assert toy.glued.groupoid.same_tables(want.groupoid)
        assert list(toy.glued.groupoid.compose.items()) == list(want.groupoid.compose.items())
        assert toy.glued.projections == want.projections

    def test_corpus_weak_failure(self):
        atlas = sf.parse_atlas(resources.files("gpdlab") / "corpus" / "atlas_two_piece.json")
        assert_weak_matches_reference(atlas)
        assert_glue_matches_reference(atlas)

    def test_projection_check_on_broken_class_maps(self):
        rng = np.random.default_rng(87)
        seen = set()
        for t in range(300):
            atlas = gen.random_bundle_patch_atlas(rng) if t % 2 else gen.random_pair_cover_atlas(rng, n_max=6)
            if not check_weak_gluing(atlas).ok:
                continue
            glued = glue(atlas).groupoid
            canon, cls = atlas.quotient_classes()
            cls = cls.copy()
            a, b = rng.choice(len(cls), 2, replace=False)
            cls[a], cls[b] = (cls[b], cls[a]) if t % 3 else (cls[a], rng.integers(len(canon)))
            proj = [dict(zip(p.groupoid.arrows, (glued.arrows[c] for c in cls[lo:hi])))
                    for p, lo, hi in zip(atlas.pieces, atlas._offsets[:-1], atlas._offsets[1:])]
            got = glue_error(lambda: gluing._check_projections(atlas, glued, canon, cls))
            assert got == glue_error(lambda: [reference._check_projection_reference(glued, i, p, proj[i])
                                              for i, p in enumerate(atlas.pieces)])
            seen.add(got.split(" at ")[0].split(" ", 4)[-1])
        assert {"ok", "is not a bijection onto the reduction", "breaks endpoints", "breaks inverses",
                "breaks products"} <= seen

    def test_piece_caches_left_as_found(self, three_piece_atlas):
        before = [dict(p.groupoid._cache) for p in three_piece_atlas.pieces]
        glue(three_piece_atlas)
        assert [p.groupoid._cache for p in three_piece_atlas.pieces] == before


@pytest.mark.parametrize("name, digest", [
    ("square", "01821af98a3390aa114e3fc462b88d2b40e90cf73b32e7f16fc9f341b5510fd8"),
    ("pentagon", "b03129ed7eb481ca0ba834c42bc499ece9b35da379b7aa49ec98676b79debd02"),
])
def test_toy_model_dump_bytes(name, digest):
    toy = co.finite_toy_model(corpus_descriptor(name), 2, 1)
    text = sf.dump(sf.groupoid_to_dict(toy.groupoid))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# ---------------------------------------------------------------------------
# malformed atlases: messages and witnesses


def z4_atlas_with_swap():
    z4 = gl.build_group_bundle(["x"], gl.GroupTable.cyclic(4))
    piece = GluingPiece(z4, {"x": "x"})
    swap = {("x", 0): ("x", 0), ("x", 1): ("x", 2), ("x", 2): ("x", 1), ("x", 3): ("x", 3)}
    return GluingAtlas(["x"], [piece, piece], {(0, 1): swap})


def pair_12():
    return gl.build_pair(["1", "2"])


def pair_12_missing_one_product():
    p = pair_12()
    compose = dict(p.compose)
    del compose[(("1", "2"), ("2", "1"))]
    return gl.FiniteGroupoid(p.units, p.arrows, p.dom, p.rng, p.unit_arrow, p.inverse, compose)


def on_12(g):
    return GluingPiece(g, {"1": "1", "2": "2"})


class TestDiagnostics:
    def test_non_multiplicative_phi_names_its_pair(self):
        atlas = GluingAtlas(["1", "2"], [on_12(pair_12()), on_12(pair_12_missing_one_product())])
        with pytest.raises(AtlasError) as err:
            atlas.check()
        assert str(err.value) == "phi(0,1) is not multiplicative at (('1', '2'), ('2', '1'))"

    def test_non_multiplicative_phi_reports_first_pair_in_arrow_order(self):
        # (x1, x1), (x1, x3), (x2, x2), ... all fail; the walk is row-major
        with pytest.raises(AtlasError) as err:
            z4_atlas_with_swap().check()
        assert str(err.value) == "phi(0,1) is not multiplicative at (('x', 1), ('x', 1))"

    def test_phi_off_the_units_names_its_arrow(self):
        flip = {(x, y): (y, x) for (x, y) in pair_12().arrows}
        atlas = GluingAtlas(["1", "2"], [on_12(pair_12())] * 2, {(0, 1): flip})
        with pytest.raises(AtlasError) as err:
            atlas.check()
        assert str(err.value) == "phi(0,1) does not cover the identity on units at ('1', '2')"

    def test_phi_domain_short_of_the_overlap(self):
        short = {a: a for a in pair_12().arrows if a != ("2", "1")}
        atlas = GluingAtlas(["1", "2"], [on_12(pair_12())] * 2, {(0, 1): short})
        with pytest.raises(AtlasError) as err:
            atlas.check()
        assert str(err.value) == "phi(0,1) domain is not the overlap reduction"

    def test_cocycle_witness_on_corpus_atlas(self):
        path = resources.files("gpdlab") / "corpus" / "bad_atlas.json"
        with pytest.raises(sf.SchemaError) as err:
            sf.parse_atlas(path)
        assert str(err.value) == f"{path}: cocycle violated at arrow 'g1' of piece 0 (via piece 1 to piece 2)"

    def test_products_differing_between_pieces(self, monkeypatch):
        atlas = z4_atlas_with_swap()
        monkeypatch.setattr(atlas, "check", lambda: None)
        with pytest.raises(GluingError) as err:
            glue(atlas)
        assert str(err.value) == "product of classes (0, ('x', 1)) and (0, ('x', 1)) differs between pieces"

    def test_piece_missing_an_overlap_product(self, monkeypatch):
        atlas = GluingAtlas(["1", "2"], [on_12(pair_12()), on_12(pair_12_missing_one_product())])
        monkeypatch.setattr(atlas, "check", lambda: None)
        with pytest.raises(GluingError) as err:
            glue(atlas)
        assert str(err.value) == "piece 1 misses the product of a composable overlap pair"

    def test_single_piece_missing_a_product(self):
        atlas = GluingAtlas(["1", "2"], [on_12(pair_12_missing_one_product())])
        with pytest.raises(GluingError) as err:
            glue(atlas)
        assert str(err.value) == "piece 0 misses the product of a composable overlap pair"

    # the exact AtlasError message of each atlas fault

    @staticmethod
    def message(build):
        with pytest.raises(AtlasError) as err:
            build().check()
        return str(err.value)

    def test_parallel_arrows_need_an_explicit_phi(self):
        z2 = GluingPiece(gl.build_group_bundle(["x"], gl.GroupTable.cyclic(2)), {"x": "x"})
        assert self.message(lambda: GluingAtlas(["x"], [z2, z2])) == \
            "pieces 0,1: overlap has parallel arrows; supply phi explicitly"

    def test_no_matching_arrow_names_its_ambient_units(self):
        assert self.message(lambda: GluingAtlas(["1", "2"], [on_12(pair_12()), on_12(discrete_12())])) == \
            "pieces 0,1: no matching arrow over ('1', '2'); supply phi explicitly"

    def test_overlap_reductions_not_isomorphic(self):
        assert self.message(lambda: GluingAtlas(["1", "2"], [on_12(discrete_12()), on_12(pair_12())])) == \
            "pieces 0,1: overlap reductions are not isomorphic"

    def test_phi_not_injective(self):
        phi = {**z3_identity(), ("x", 2): ("x", 1)}
        assert self.message(lambda: z3_atlas({(0, 1): phi})) == "phi(0,1) is not injective"

    def test_phi_image_off_the_overlap(self):
        phi = {**z3_identity(), ("x", 2): ("x", 9)}
        assert self.message(lambda: z3_atlas({(0, 1): phi})) == "phi(0,1) image is not the overlap reduction"

    def test_phis_not_mutually_inverse(self):
        assert self.message(lambda: z3_atlas({(0, 1): z3_identity(), (1, 0): z3_twist()})) == \
            "phi(0,1) and phi(1,0) are not mutually inverse"

    def test_unknown_arrow_id_in_a_phi_map(self):
        phi = {**z3_identity(), "nonsense": ("x", 0)}
        assert self.message(lambda: z3_atlas({(0, 1): phi})) == "phi(0,1) domain is not the overlap reduction"

    def test_non_injective_phi_given_backwards_shows_in_its_inverse(self):
        phi = {**z3_identity(), ("x", 2): ("x", 1)}
        assert self.message(lambda: z3_atlas({(1, 0): phi})) == "phi(0,1) domain is not the overlap reduction"

    @pytest.mark.parametrize("embedding, text", [
        ({"1": "1"}, "piece 0: embedding keys must be exactly the piece units"),
        ({"1": "1", "2": "1"}, "piece 0: embedding is not injective"),
        ({"1": "1", "2": "3"}, "piece 0: embedding leaves the ambient unit set"),
    ])
    def test_embedding_errors(self, embedding, text):
        assert self.message(lambda: GluingAtlas(["1", "2"], [GluingPiece(pair_12(), embedding)])) == text

    @pytest.mark.parametrize("phis, text", [
        ({(0, 0): {}}, "phi(0,0) maps a piece to itself"),
        ({(0, 2): {}}, "phi(0,2) names a piece out of range"),
        ({(-1, 0): {}}, "phi(-1,0) names a piece out of range"),
        ({(1, 0): {}}, "phi(1,0) joins pieces that do not overlap"),
    ])
    def test_phi_keys_name_two_overlapping_pieces(self, phis, text):
        apart = [identity_piece(["1"]), identity_piece(["2"])]
        assert self.message(lambda: GluingAtlas(["1", "2"], apart, phis)) == text


def discrete_12():
    """Units 1 and 2 with no arrow between them."""
    g = gl.build_disjoint_union([gl.build_pair(["1"]), gl.build_pair(["2"])])
    return gl.relabel(g, {(0, "1"): "1", (1, "2"): "2"}, {a: ("d",) + a for a in g.arrows})


def z3_identity():
    return {("x", k): ("x", k) for k in range(3)}


def z3_twist():
    return {("x", 0): ("x", 0), ("x", 1): ("x", 2), ("x", 2): ("x", 1)}


def z3_atlas(phis):
    piece = GluingPiece(gl.build_group_bundle(["x"], gl.GroupTable.cyclic(3)), {"x": "x"})
    return GluingAtlas(["x"], [piece, piece], phis)


# ---------------------------------------------------------------------------
# the atlas laws against the pair and triple walk


def check_outcome(fn, *args):
    try:
        fn(*args)
    except AtlasError as exc:
        return type(exc), str(exc)
    return "ok"


def assert_check_matches_reference(x_units, pieces, phis=None):
    got = check_outcome(lambda: GluingAtlas(x_units, pieces, phis).check())
    assert got == check_outcome(reference.check_atlas_reference, x_units, pieces, phis)
    return got


def random_automorphism(rng, group):
    """Inversion on an abelian group, else conjugation by a random element
    (the identity map when the element is central)."""
    n, table = group.order, group.table
    if group.is_abelian():
        return [group.inverse_index(x) for x in range(n)]
    g = int(rng.integers(n))
    return [table[table[g][x]][group.inverse_index(g)] for x in range(n)]


def bundle_copies(rng, copies):
    """A random pair cover plus copies of one random bundle over new units:
    the inputs, the first copy's piece index, and the identity and an
    automorphism twist of the bundle."""
    atlas = gen.random_pair_cover_atlas(rng, n_max=6, closed=bool(rng.random() < 0.7))
    group, extra = gen.random_group(rng), [f"y{i}" for i in range(int(rng.integers(1, 3)))]
    bundle = gl.build_group_bundle(extra, group)
    alpha, e = random_automorphism(rng, group), group.elements
    twist = {(x, e[k]): (x, e[alpha[k]]) for x in extra for k in range(group.order)}
    first = len(atlas.pieces)
    pieces = list(atlas.pieces) + [GluingPiece(bundle, {u: u for u in extra})] * copies
    return (list(atlas.x_units) + extra, pieces), first, {a: a for a in bundle.arrows}, twist


def swap_one_entry(rng, x_units, pieces, phis):
    """Every phi given, one of them with two values swapped (parallel
    arrows where the atlas has any); None when no phi has two entries."""
    full = reference.atlas_phis_reference(x_units, pieces, phis)
    pairs = [(key, a, b) for key, phi in full.items() for a, b in itertools.combinations(phi, 2)]
    parallel = [(key, a, b) for key, a, b in pairs
                if reference.ambient_ends(pieces[key[0]], a) == reference.ambient_ends(pieces[key[0]], b)]
    if not pairs:
        return None
    key, a, b = (parallel or pairs)[rng.integers(len(parallel or pairs))]
    phi = dict(full[key])
    phi[a], phi[b] = phi[b], phi[a]
    return {**full, key: phi}


def random_piece(rng, x_units):
    """A pair groupoid, a group bundle, a discrete groupoid or a pair part
    beside discrete units, over a random subset of the units."""
    units = sorted(rng.choice(x_units, size=int(rng.integers(1, 5)), replace=False).tolist())
    kind = rng.integers(4)
    if kind < 3:
        g = (gl.build_pair(units) if kind == 0 else
             gl.build_group_bundle(units, gl.GroupTable.cyclic(int(rng.integers(1, 3)) if kind == 1 else 1)))
    else:
        cut = int(rng.integers(1, len(units) + 1))
        g = gl.build_disjoint_union([gl.build_pair(units[:cut]),
                                     gl.build_group_bundle(units[cut:], gl.GroupTable.trivial())])
        g = gl.relabel(g, {u: u[1] for u in g.units}, {a: ("r",) + a for a in g.arrows})
    return GluingPiece(g, {u: u for u in g.units})


class TestAtlasAgainstReference:
    def test_endpoint_matching_on_mixed_pieces(self):
        rng = np.random.default_rng(86)
        seen = set()
        for _ in range(300):
            pieces = [random_piece(rng, [f"x{i}" for i in range(6)]) for _ in range(int(rng.integers(2, 5)))]
            got = assert_check_matches_reference(sorted(set().union(*(p.embedded_units() for p in pieces))), pieces)
            seen.add(got if got == "ok" else got[1].split(": ")[1].split(" over ")[0])
        assert seen == {"ok", "overlap has parallel arrows; supply phi explicitly", "no matching arrow",
                        "overlap reductions are not isomorphic"}

    def test_c03_generator(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            assert assert_check_matches_reference(*gen.random_bundle_patch_inputs(rng)) == "ok"

    @pytest.mark.parametrize("closed", [True, False])
    def test_pair_covers(self, closed):
        rng = np.random.default_rng(81 if closed else 82)
        for _ in range(60):
            atlas = gen.random_pair_cover_atlas(rng, closed=closed)
            assert assert_check_matches_reference(atlas.x_units, atlas.pieces) == "ok"

    def test_one_entry_swapped(self):
        rng = np.random.default_rng(83)
        seen = set()
        for _ in range(80):
            x_units, pieces, phis = gen.random_bundle_patch_inputs(rng)
            swapped = swap_one_entry(rng, x_units, pieces, phis)
            if swapped is None:
                continue
            got = assert_check_matches_reference(x_units, pieces, swapped)
            seen.add(got if got == "ok" else got[1])
        assert any(text.endswith("are not mutually inverse") for text in seen)  # reached the class test

    def test_cocycle_broken_through_a_third_piece(self):
        rng = np.random.default_rng(84)
        verdicts = []
        for _ in range(60):
            (x_units, pieces), b, ident, twist = bundle_copies(rng, 3)
            got = assert_check_matches_reference(
                x_units, pieces, {(b, b + 1): ident, (b + 1, b + 2): ident, (b, b + 2): twist})
            verdicts.append(got == "ok")
            assert got == "ok" or got[1].startswith("cocycle violated at arrow ('y0', ")
        assert any(verdicts) and not all(verdicts)

    def test_one_sided_inverse(self):
        rng = np.random.default_rng(85)
        verdicts = []
        for _ in range(60):
            (x_units, pieces), b, ident, twist = bundle_copies(rng, 2)
            got = assert_check_matches_reference(x_units, pieces, {(b, b + 1): ident, (b + 1, b): twist})
            verdicts.append(got == "ok")
            assert got == "ok" or got[1] == f"phi({b},{b + 1}) and phi({b + 1},{b}) are not mutually inverse"
        assert any(verdicts) and not all(verdicts)
