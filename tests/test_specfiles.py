import gc
import json
import math
import random
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import gpdlab as gl
from gpdlab import algebra as al
from gpdlab import conical as co
from gpdlab import specfiles as sf

import reference


def corpus_path(name: str) -> Path:
    return Path(resources.files("gpdlab") / "corpus" / name)


class TestGroupoidFiles:
    def test_parse_pair3(self):
        g = sf.parse_groupoid(corpus_path("pair3.json"))
        assert g.n_units == 3 and g.n_arrows == 9
        assert gl.is_pair_groupoid(g)

    def test_round_trip(self):
        g = sf.parse_groupoid(corpus_path("toy_layer.json"))
        doc = sf.groupoid_to_dict(g)
        g2 = sf.groupoid_from_dict(doc)
        assert g.same_tables(g2)

    def test_malformed_compose_triple_named(self, tmp_path):
        doc = sf.groupoid_to_dict(sf.parse_groupoid(corpus_path("pair3.json")))
        doc["compose"][0] = ["aa", "ab"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(sf.SchemaError, match=r"compose\[0\]"):
            sf.parse_groupoid(p)

    def test_unknown_arrow_in_compose(self, tmp_path):
        doc = sf.groupoid_to_dict(sf.parse_groupoid(corpus_path("pair3.json")))
        doc["compose"][2] = ["aa", "nope", "ab"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(sf.SchemaError, match="nope"):
            sf.parse_groupoid(p)

    @pytest.mark.parametrize("edit, message", [
        ({1: "aab"}, "bad.json.compose[1]: must be a triple [g, h, gh]"),
        ({1: ["aa", "ab"]}, "bad.json.compose[1]: must be a triple [g, h, gh]"),
        ({1: ["zz", "ab", "ab"]}, "bad.json.compose[1]: g='zz' is not a declared arrow id"),
        ({1: ["aa", "zz", "ab"]}, "bad.json.compose[1]: h='zz' is not a declared arrow id"),
        ({1: ["aa", "ab", "zz"]}, "bad.json.compose[1]: gh='zz' is not a declared arrow id"),
        ({1: ["yy", "zz", "ab"]}, "bad.json.compose[1]: g='yy' is not a declared arrow id"),
        ({1: ["aa", 7, "ab"]}, "bad.json.compose[1]: h=7 is not a declared arrow id"),
        ({3: ["aa", "ab", "ab"]}, "bad.json.compose[3]: duplicate compose entry for ('aa', 'ab')"),
        ({2: ["aa", "zz", "ab"], 4: ["aa"]}, "bad.json.compose[2]: h='zz' is not a declared arrow id"),
    ], ids=["not-a-list", "length-2", "unknown-g", "unknown-h", "unknown-gh", "g-before-h",
            "non-string-id", "duplicate", "first-of-two"])
    def test_malformed_compose_diagnostics(self, edit, message):
        doc = json.loads(corpus_path("pair3.json").read_text())
        for i, triple in edit.items():
            doc["compose"][i] = triple
        with pytest.raises(sf.SchemaError) as info:
            sf.groupoid_from_dict(doc, where="bad.json")
        assert str(info.value) == message

    def test_axiom_violation_reported_with_witness(self, tmp_path):
        doc = sf.groupoid_to_dict(sf.parse_groupoid(corpus_path("pair3.json")))
        doc["inverse"]["ab"] = "ab"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(sf.SchemaError, match="axioms violated"):
            sf.parse_groupoid(p)

    def test_version_gate(self, tmp_path):
        doc = sf.groupoid_to_dict(sf.parse_groupoid(corpus_path("pair3.json")))
        doc["spec_version"] = 2
        p = tmp_path / "v2.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(sf.SchemaError, match="version"):
            sf.parse_groupoid(p)

    def test_missing_file(self):
        with pytest.raises(sf.SchemaError, match="exist"):
            sf.parse_groupoid("/nonexistent/g.json")

    def test_json_error_carries_line(self, tmp_path):
        p = tmp_path / "syntax.json"
        p.write_text('{"spec_version": 1,\n  "kind": }')
        with pytest.raises(sf.SchemaError, match=":2:"):
            sf.parse_groupoid(p)


class TestAtlasFiles:
    def test_three_piece_parses(self):
        atlas = sf.parse_atlas(corpus_path("atlas_three_piece.json"))
        assert len(atlas.pieces) == 3

    def test_two_piece_parses_but_fails_weak(self):
        from gpdlab.gluing import check_weak_gluing

        atlas = sf.parse_atlas(corpus_path("atlas_two_piece.json"))
        assert not check_weak_gluing(atlas).ok

    def test_bad_atlas_rejected_at_load(self):
        with pytest.raises(sf.SchemaError, match="cocycle"):
            sf.parse_atlas(corpus_path("bad_atlas.json"))

    def test_groupoid_by_path_reference(self, tmp_path):
        gdoc = sf.groupoid_to_dict(sf.parse_groupoid(corpus_path("pair3.json")))
        (tmp_path / "g.json").write_text(json.dumps(gdoc))
        adoc = {
            "spec_version": 1,
            "kind": "atlas",
            "units": ["a", "b", "c"],
            "pieces": [{"groupoid": "g.json", "embedding": {u: u for u in "abc"}}],
        }
        (tmp_path / "a.json").write_text(json.dumps(adoc))
        atlas = sf.parse_atlas(tmp_path / "a.json")
        assert atlas.pieces[0].groupoid.n_arrows == 9


class TestDomainFiles:
    def test_square_parses(self):
        d = sf.parse_domain(corpus_path("square.json"))
        assert d.dimension == 2 and len(d.vertices) == 4
        assert all(v.k == 2 for v in d.vertices)

    def test_cone3d_parses(self):
        d = sf.parse_domain(corpus_path("cone3d.json"))
        assert d.dimension == 3 and d.vertices[0].k == 1

    def test_crack_flag_rejected(self, tmp_path):
        doc = sf.domain_to_dict(sf.parse_domain(corpus_path("square.json")))
        doc["no_cracks"] = False
        p = tmp_path / "crack.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(sf.SchemaError, match="no_cracks"):
            sf.parse_domain(p)

    def test_every_corpus_domain_parses(self):
        manifest = json.loads(corpus_path("manifest.json").read_text())
        names = [f["file"] for f in manifest["fixtures"] if f["kind"] == "domain"]
        assert len(names) == 4
        for name in names:
            d = sf.parse_domain(corpus_path(name))
            assert d.vertices
            if d.dimension == 2:
                # the declared openings are the coordinates' exactly
                rays = co._rays([v.coords for v in d.vertices])
                assert [v.base.opening() for v in d.vertices] == [co.RayBase(r).opening() for r in rays]

    def test_clockwise_polygon_rejected(self):
        doc = json.loads(corpus_path("square.json").read_text())
        doc["vertices"].reverse()
        with pytest.raises(sf.SchemaError) as exc:
            sf.domain_from_dict(doc)
        assert exc.value.path == "domain.vertices"
        assert str(exc.value) == (
            "domain.vertices: polygon vertices must be in counterclockwise order (signed area -1)"
        )

    def test_opening_that_disagrees_with_the_coordinates_rejected(self):
        doc = json.loads(corpus_path("square.json").read_text())
        for spec in doc["vertices"]:
            spec["base"]["interior_angle"] = 4.0
        with pytest.raises(sf.SchemaError) as exc:
            sf.domain_from_dict(doc)
        assert exc.value.path == "domain.vertices[0].base"
        assert str(exc.value) == (
            "domain.vertices[0].base: vertex 'v0' has opening 4.0, but its coordinates give "
            "1.5707963267948966"
        )
        doc = json.loads(corpus_path("lshape.json").read_text())
        del doc["vertices"][3]["base"]["interior_angle"]
        doc["vertices"][3]["base"]["angles"].reverse()  # the sweep is now pi / 2, not 3 pi / 2
        with pytest.raises(sf.SchemaError) as exc:
            sf.domain_from_dict(doc)
        assert exc.value.path == "domain.vertices[3].base"

    def test_artificial_vertex_with_coordinates_parses(self):
        # a smooth point between collinear neighbours opens by pi
        doc = json.loads(corpus_path("square.json").read_text())
        doc["vertices"].insert(1, {
            "id": "art", "coords": [0.5, 0.0],
            "base": {"type": "rays", "angles": [0.0, 3.141592653589793],
                     "interior_angle": 3.141592653589793},
        })
        doc["edges"][0:1] = [["v0", "art"], ["art", "v1"]]
        d = sf.domain_from_dict(doc)
        assert d.vertex("art").base.opening() == math.pi
        assert len(d.vertices) == 5

    def test_orientation_needs_every_vertex_coordinate(self):
        # without coordinates the vertex list fixes no orientation
        doc = json.loads(corpus_path("square.json").read_text())
        doc["vertices"].reverse()
        del doc["vertices"][0]["coords"]
        assert len(sf.domain_from_dict(doc).vertices) == 4

    @pytest.mark.parametrize("edges, where, message", [
        ([["v0", "nope"]], "edges[0]", "edge names unknown vertex 'nope'"),
        ([["v0", "v2"], ["v2", "v1"], ["v1", "v3"], ["v3", "v0"]], "edges[0]",
         "edge ['v0', 'v2'] is not ['v0', 'v1'], edge 0 of the vertex cycle"),
        ([["v0", "v1"], ["v1", "v2"], ["v2", "v3"]], "edges", "the vertex cycle has 4 edges, not 3"),
        ([["v0", 1]], "edges[0]", "must be a pair of vertex ids"),
    ], ids=["unknown-id", "other-cycle", "short-cycle", "non-string-id"])
    def test_edges_must_be_the_vertex_cycle(self, edges, where, message):
        doc = json.loads(corpus_path("square.json").read_text())
        doc["edges"] = edges
        with pytest.raises(sf.SchemaError) as exc:
            sf.domain_from_dict(doc)
        assert str(exc.value) == f"domain.{where}: {message}"

    def test_edges_without_coordinates_need_known_ids_only(self):
        doc = json.loads(corpus_path("square.json").read_text())
        del doc["vertices"][0]["coords"]
        doc["edges"] = [["v2", "v0"]]
        assert sf.domain_from_dict(doc).edges == (("v2", "v0"),)
        doc = json.loads(corpus_path("cone3d.json").read_text())
        doc["edges"] = [["p0", "q"]]
        with pytest.raises(sf.SchemaError) as exc:
            sf.domain_from_dict(doc)
        assert str(exc.value) == "domain.edges[0]: edge names unknown vertex 'q'"

    def test_angles_must_sweep_the_declared_opening(self):
        doc = json.loads(corpus_path("square.json").read_text())
        doc["vertices"][0]["base"]["angles"] = [0.0, 1.0]
        with pytest.raises(sf.SchemaError) as exc:
            sf.domain_from_dict(doc)
        assert str(exc.value) == (
            "domain.vertices[0].base.angles: vertex 'v0' has opening 1.5707963267948966, "
            "but its angles sweep 1.0"
        )
        # without coordinates the base is checked all the same
        for spec in doc["vertices"]:
            del spec["coords"]
        with pytest.raises(sf.SchemaError, match=r"vertices\[0\]\.base\.angles"):
            sf.domain_from_dict(doc)

    def test_domain_round_trip(self):
        d = sf.parse_domain(corpus_path("pentagon.json"))
        d2 = sf.domain_from_dict(sf.domain_to_dict(d))
        assert d2.component_counts() == d.component_counts()
        assert [v.id for v in d2.vertices] == [v.id for v in d.vertices]


class TestElementFiles:
    def test_parse_and_round_trip(self):
        g = sf.parse_groupoid(corpus_path("pair3.json"))
        a = sf.parse_element(corpus_path("element_pair3.json"), g)
        assert a.coeff("ab") == 0.5 + 0.25j
        doc = sf.element_to_dict(a)
        a2 = sf.element_from_dict(doc, g)
        assert np.array_equal(a.vec, a2.vec)

    def test_unknown_arrow_rejected(self, tmp_path):
        g = sf.parse_groupoid(corpus_path("pair3.json"))
        p = tmp_path / "e.json"
        p.write_text(json.dumps({"spec_version": 1, "kind": "element",
                                 "coefficients": {"zz": [1.0, 0.0]}}))
        with pytest.raises(sf.SchemaError, match="unknown arrow"):
            sf.parse_element(p, g)


class TestManifest:
    def test_manifest_lists_existing_fixtures(self):
        manifest = json.loads(corpus_path("manifest.json").read_text())
        assert manifest["kind"] == "manifest"
        for entry in manifest["fixtures"]:
            assert corpus_path(entry["file"]).exists()

    def test_dump_is_deterministic(self):
        doc = {"b": 1, "a": [1.5, {"z": True}]}
        assert sf.dump(doc) == sf.dump(dict(reversed(doc.items())))


ADVERSARIAL_DOCS = [
    {"quote\"": "back\\slash \"quoted\"", "ctrl": "\x00\x01\x1f\x7f\n\r\t\b\f", "é键": "ü😀\u2028"},
    {"ints": [0, -1, 2**70, -(2**70)], "floats": [-0.0, 0.0, 1e-300, 1e300, 0.1, 1e16, 5e-324]},
    {"specials": [float("nan"), float("inf"), float("-inf")], "flags": [True, False, None]},
    {"empty": {}, "none": [], "nested": {"a": {"b": {"c": [[], {}, [[]]]}}}},
    [1, "a", [2, "b"], {"k": [None]}, [], {}, ("t", 1)],
    ["only", "strings", "é"],
    [["a", "b", "c"], ["d", 1, "e"], [1.5, "x"]],
    {1: "int key", 10: "sorted as ints", 2: "c"},
    {2.5: "float keys", -0.0: 1, float("nan"): 2},
    {True: "bool keys", False: 0},
    {None: "null key"},
    "top-level string", 7, -0.0, None, True, [], {},
    # tables of ids, the shape of a compose section, and near misses
    [["a", "b", "c"], ["d", "e", "f"], ["a", "b", "c"]],
    [("a", "b"), ("c", "d")],
    [["a", "b"], ("c", "d")],
    {"compose": [["q\"", "back\\slash", "\x00\x1f\x7f\n"], ["é键", "ü😀\u2028", "100%"],
                 ["%s", "%%", "%(x)d"]]},
    {"deep": {"er": [["x"], ["y"], ["x"]]}},
    [["a", 1], ["b", "c"]],
    [["a", "b"], ["c", 2.5]],
    [[], [], []],
    [[["a"]], [["b"]]],
    [["a", "b"], ["c"]],
    [["a", "b"], "cd"],
]


class TestDumpBytes:
    """``dump`` writes exactly what ``json.dumps(sort_keys=True, indent=2)`` writes."""

    @pytest.mark.parametrize("name", sorted(
        p.name for p in corpus_path("manifest.json").parent.glob("*.json")))
    def test_corpus_files(self, name):
        doc = json.loads(corpus_path(name).read_text(encoding="utf-8"))
        assert sf.dump(doc) == reference.dump_reference(doc)

    def test_toy_spec(self):
        square = co.assemble_layer_groupoid(co.unit_square())
        doc = sf.groupoid_to_dict(co.finite_toy_model(square, 5, interior_points=1).groupoid)
        assert sf.dump(doc) == reference.dump_reference(doc)

    @pytest.mark.parametrize("doc", ADVERSARIAL_DOCS)
    def test_adversarial_documents(self, doc):
        assert sf.dump(doc) == reference.dump_reference(doc)

    @pytest.mark.parametrize("doc", [{"a": 1, None: 2}, {(1, 2): 3}, [np.int64(3)], {"s": {1}},
                                     [["a", np.int64(3)]]])
    def test_unencodable_documents_raise_alike(self, doc):
        with pytest.raises(TypeError) as want:
            reference.dump_reference(doc)
        with pytest.raises(TypeError) as got:
            sf.dump(doc)
        assert str(got.value) == str(want.value)

    def test_written_file_matches_text(self, tmp_path):
        doc = ADVERSARIAL_DOCS[0]
        text = sf.dump(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_text(encoding="utf-8") == text

    def test_dump_quotes_each_distinct_string_once(self, monkeypatch):
        """Structural guard: ids are quoted once per dump, not once per compose slot."""
        square = co.assemble_layer_groupoid(co.unit_square())
        g = co.finite_toy_model(square, 5, interior_points=1).groupoid
        doc = sf.groupoid_to_dict(g)
        quote, calls = sf._quote, []
        monkeypatch.setattr(sf, "_quote", lambda s: calls.append(s) or quote(s))
        text = sf.dump(doc)
        other = set(doc).union(*doc["arrows"], [doc["kind"]])  # keys and the kind tag
        assert len(calls) == len(set(calls)) <= g.n_arrows + g.n_units + len(other)
        assert text == reference.dump_reference(doc)


def _arrow_index(doc) -> dict:
    return {a["id"]: i for i, a in enumerate(doc["arrows"])}


def _compose_outcome(parse):
    try:
        return parse()
    except sf.SchemaError as exc:
        return exc.path, str(exc)


@pytest.fixture(scope="module")
def compose_docs():
    square = co.assemble_layer_groupoid(co.unit_square())
    return {
        "pair3": json.loads(corpus_path("pair3.json").read_text(encoding="utf-8")),
        "toy-m2": sf.groupoid_to_dict(co.finite_toy_model(square, 2).groupoid),
    }


def _mutate(compose, kind, rng, arrow_ids):
    """Apply one fault of ``kind`` at a random triple; returns the entry's index."""
    triples = [i for i, t in enumerate(compose) if isinstance(t, list) and len(t) == 3]
    i = rng.choice(triples)
    if kind == "not-a-list":
        compose[i] = rng.choice(["aab", 5, None, {"g": "aa"}, tuple(compose[i])])
    elif kind == "wrong-length":
        compose[i] = rng.choice([compose[i][:2], compose[i] + ["aa"], []])
    elif kind.startswith("unknown-"):
        compose[i] = list(compose[i])
        compose[i][("g", "h", "gh").index(kind[8:])] = "zz-" + rng.choice(arrow_ids)
    elif kind.startswith("id-"):
        compose[i] = list(compose[i])
        compose[i][rng.randrange(3)] = {"7": 7, "null": None, "[]": [], "{}": {}}[kind[3:]]
    elif kind == "duplicate":
        i, j = sorted(rng.sample(triples, 2))
        compose[j] = [compose[i][0], compose[i][1], rng.choice(arrow_ids)]
        return j
    return i


FAULTS = ["not-a-list", "wrong-length", "unknown-g", "unknown-h", "unknown-gh",
          "id-7", "id-null", "id-[]", "id-{}", "duplicate"]


class TestComposeParity:
    """The vectorised compose parse reports what the per-entry walk reports."""

    @pytest.mark.parametrize("name", ["pair3", "toy-m2"])
    @pytest.mark.parametrize("kind", FAULTS)
    def test_one_fault(self, compose_docs, name, kind):
        rng = random.Random(f"{name}/{kind}")
        for _ in range(3):
            self._check(compose_docs[name], rng, [kind])

    @pytest.mark.parametrize("name", ["pair3", "toy-m2"])
    @pytest.mark.parametrize("dup_first", [True, False], ids=["duplicate-first", "unknown-first"])
    def test_two_faults_in_either_order(self, compose_docs, name, dup_first):
        rng = random.Random(f"{name}/{dup_first}")
        for _ in range(5):
            doc = json.loads(json.dumps(compose_docs[name]))
            compose = doc["compose"]
            a, b, c = sorted(rng.sample(range(len(compose)), 3))
            dup, unknown = (b, c) if dup_first else (c, b)
            compose[dup] = [compose[a][0], compose[a][1], compose[dup][2]]
            compose[unknown][1] = "zz-unknown"
            want = _compose_outcome(lambda: reference.compose_tables_reference(
                compose, _arrow_index(doc), "m.json.compose"))
            assert want[0] == f"m.json.compose[{b}]"
            assert _compose_outcome(lambda: sf.groupoid_from_dict(doc, where="m.json")) == want

    @pytest.mark.parametrize("name", ["pair3", "toy-m2"])
    def test_random_faults(self, compose_docs, name):
        rng = random.Random(name)
        for _ in range(40):
            self._check(compose_docs[name], rng, rng.sample(FAULTS, rng.randrange(1, 4)))

    def _check(self, base, rng, kinds):
        doc = json.loads(json.dumps(base))
        for kind in kinds:
            _mutate(doc["compose"], kind, rng, list(_arrow_index(doc)))
        want = _compose_outcome(lambda: reference.compose_tables_reference(
            doc["compose"], _arrow_index(doc), "m.json.compose"))
        assert isinstance(want, tuple) and want[0].startswith("m.json.compose[")
        assert _compose_outcome(lambda: sf.groupoid_from_dict(doc, where="m.json")) == want

    @pytest.mark.parametrize("name", ["pair3", "toy-m2"])
    def test_written_file_keeps_compose_order(self, compose_docs, name, tmp_path):
        g = sf.groupoid_from_dict(compose_docs[name])
        sf.dump(sf.groupoid_to_dict(g), tmp_path / "g.json")
        g2 = sf.parse_groupoid(tmp_path / "g.json")
        for col in ("p1", "p2", "pp"):
            assert np.array_equal(getattr(g2, col), getattr(g, col)), col
        doc = compose_docs[name]
        want = reference.compose_tables_reference(doc["compose"], _arrow_index(doc), "c")
        assert all(np.array_equal(a, b) for a, b in zip((g.p1, g.p2, g.pp), want))

    def test_empty_compose_section(self):
        doc = {"spec_version": 1, "kind": "groupoid", "units": [], "arrows": [],
               "unit_arrows": {}, "inverse": {}, "compose": []}
        g = sf.groupoid_from_dict(doc)
        assert g.n_arrows == 0 and g.p1.shape == g.p2.shape == g.pp.shape == (0,)


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestGcPause:
    """JSON trees are built with the cyclic collector paused, and its state is restored."""

    def test_load_json(self, gc_state, tmp_path, monkeypatch):
        load, during = json.load, []
        monkeypatch.setattr(json, "load", lambda fh: during.append(gc.isenabled()) or load(fh))
        (tmp_path / "ok.json").write_text('{"a": [["x", "y"]]}')
        assert sf._load_json(tmp_path / "ok.json") == {"a": [["x", "y"]]}
        assert during == [False] and gc.isenabled() is gc_state

    def test_load_json_decode_error(self, gc_state, tmp_path):
        (tmp_path / "bad.json").write_text('{"a": [')
        with pytest.raises(sf.SchemaError, match=":1:"):
            sf._load_json(tmp_path / "bad.json")
        assert gc.isenabled() is gc_state

    def test_load_json_not_utf8(self, gc_state, tmp_path):
        # past the first read chunk, so the offset is the file's, not the chunk's
        (tmp_path / "bad.json").write_bytes(b'{"a": "' + b"x" * 20000 + b'\xff"}')
        with pytest.raises(sf.SchemaError, match=r"bad\.json: not UTF-8: byte 0xff at byte offset 20007$"):
            sf._load_json(tmp_path / "bad.json")
        assert gc.isenabled() is gc_state

    def test_load_json_missing_file(self, gc_state, tmp_path):
        with pytest.raises(sf.SchemaError, match="exist"):
            sf._load_json(tmp_path / "missing.json")
        assert gc.isenabled() is gc_state

    def test_groupoid_to_dict(self, gc_state):
        g = sf.parse_groupoid(corpus_path("pair3.json"))
        assert sf.groupoid_to_dict(g)["compose"][0] == [g.arrows[g.p1[0]], g.arrows[g.p2[0]],
                                                         g.arrows[g.pp[0]]]
        assert gc.isenabled() is gc_state

    def test_groupoid_to_dict_raising(self, gc_state):
        g = sf.parse_groupoid(corpus_path("pair3.json"))
        g.pp = np.full_like(g.pp, 10**6)  # out of range: the compose gather raises
        with pytest.raises(IndexError):
            sf.groupoid_to_dict(g)
        assert gc.isenabled() is gc_state

    def test_compose_lists_built_with_collector_paused(self, gc_state):
        square = co.assemble_layer_groupoid(co.unit_square())
        g = co.finite_toy_model(square, 3).groupoid
        starts = []
        collect = lambda phase, info: phase == "start" and starts.append(info["generation"])
        gc.collect()
        gc.callbacks.append(collect)
        try:
            sf.groupoid_to_dict(g)
        finally:
            gc.callbacks.remove(collect)
        # one pass per gc.get_threshold()[0] new lists, were the collector running
        assert len(starts) <= len(g.p1) / gc.get_threshold()[0] / 4
        assert gc.isenabled() is gc_state

    @pytest.fixture
    def toy_file(self, tmp_path):
        square = co.assemble_layer_groupoid(co.unit_square())
        g = co.finite_toy_model(square, 3).groupoid
        path = tmp_path / "toy.json"
        sf.dump(sf.groupoid_to_dict(g), path)
        return g, path

    @staticmethod
    def collections(action):
        starts = []
        collect = lambda phase, info: phase == "start" and starts.append(info["generation"])
        gc.collect()
        gc.callbacks.append(collect)
        try:
            out = action()
        finally:
            gc.callbacks.remove(collect)
        return out, starts

    def test_no_collection_inside_parse_groupoid(self, gc_state, toy_file):
        g, path = toy_file
        parsed, starts = self.collections(lambda: sf.parse_groupoid(path))
        assert starts == [] and gc.isenabled() is gc_state
        assert parsed.n_arrows == g.n_arrows and len(parsed.p1) == len(g.p1)

    def test_no_collection_while_writing(self, gc_state, toy_file):
        g, path = toy_file
        text, starts = self.collections(lambda: sf.dump(sf.groupoid_to_dict(g), path))
        assert starts == [] and gc.isenabled() is gc_state
        assert text == path.read_text(encoding="utf-8")

    def test_failing_parse_restores_collector(self, gc_state, tmp_path):
        (tmp_path / "bad.json").write_text('{"spec_version": 1, "kind": "groupoid"}')
        with pytest.raises(sf.SchemaError):
            sf.parse_groupoid(tmp_path / "bad.json")
        assert gc.isenabled() is gc_state

    def test_pauses_nest(self, gc_state):
        with sf._gc_paused:
            with sf._gc_paused:
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is gc_state
