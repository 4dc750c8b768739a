import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

import gpdlab as gl
from gpdlab import mellin
from gpdlab import specfiles as sf
from gpdlab.cli import main

import reference


def corpus(name: str) -> str:
    return str(resources.files("gpdlab") / "corpus" / name)


@pytest.fixture
def runner():
    return CliRunner()


def payload(result):
    return json.loads(result.output)


class TestValidateCommand:
    def test_clean_groupoid_exit_zero(self, runner):
        res = runner.invoke(main, ["validate", "--groupoid", corpus("pair3.json")])
        assert res.exit_code == 0
        doc = payload(res)
        assert doc["check"] == "groupoid-axioms"
        assert doc["results"]["ok"]

    def test_axiom_failure_exit_one(self, runner, tmp_path):
        doc = json.loads(Path(corpus("pair3.json")).read_text())
        doc["inverse"]["ab"] = "ab"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = runner.invoke(main, ["validate", "--groupoid", str(bad)])
        assert res.exit_code == 1
        results = payload(res)["results"]
        assert not results["ok"]
        assert [v["axiom"] for v in results["violations"]] == ["inverse", "inverse-endpoints"]
        assert all(v["witness"] == ["'ab'"] for v in results["violations"])

    def test_malformed_file_exit_two(self, runner, tmp_path):
        bad = tmp_path / "syntax.json"
        bad.write_text("{nope")
        res = runner.invoke(main, ["validate", "--groupoid", str(bad)])
        assert res.exit_code == 2


class TestGlueCommand:
    def test_three_piece_glues(self, runner):
        res = runner.invoke(main, ["glue", "--atlas", corpus("atlas_three_piece.json")])
        assert res.exit_code == 0
        doc = payload(res)
        assert doc["results"]["weak_gluing"] and doc["results"]["strong_gluing"]
        assert len(doc["results"]["glued_groupoid"]["arrows"]) == 16

    def test_weak_failure_exit_two(self, runner):
        res = runner.invoke(main, ["glue", "--atlas", corpus("atlas_two_piece.json")])
        assert res.exit_code == 2

    def test_cocycle_violation_exit_two(self, runner):
        res = runner.invoke(main, ["glue", "--atlas", corpus("bad_atlas.json")])
        assert res.exit_code == 2

    def test_glued_output_reparses(self, runner, tmp_path):
        out = tmp_path / "glued.json"
        res = runner.invoke(
            main, ["glue", "--atlas", corpus("atlas_three_piece.json"), "--out", str(out)]
        )
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        g = sf.groupoid_from_dict(doc["results"]["glued_groupoid"])
        assert g.n_arrows == 16


class TestOrbitNormCommands:
    def test_orbits(self, runner):
        res = runner.invoke(main, ["orbits", "--groupoid", corpus("toy_layer.json")])
        assert res.exit_code == 0
        doc = payload(res)
        assert doc["results"]["isotropy_orders"].count(2) == 1

    def test_norms(self, runner):
        res = runner.invoke(
            main,
            ["norms", "--groupoid", corpus("pair3.json"),
             "--element", corpus("element_pair3.json")],
        )
        assert res.exit_code == 0
        doc = payload(res)
        assert doc["results"]["l1_norm"] > 0
        assert "reduced" in doc["results"]["norm_note"] or doc["results"]["reduced_norm"] > 0


class TestFredholmCommands:
    def test_fredholm_check_seeded(self, runner):
        res = runner.invoke(
            main,
            ["fredholm-check", "--groupoid", corpus("toy_layer.json"),
             "--u", "interior", "--seed", "7"],
        )
        assert res.exit_code == 0
        doc = payload(res)
        assert doc["results"]["equivalence_holds"]
        assert doc["results"]["is_fredholm"]

    def test_reports_reproducible(self, runner, tmp_path):
        args = ["fredholm-check", "--groupoid", corpus("toy_layer.json"), "--seed", "11"]
        r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a.json")])
        r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b.json")])
        assert r1.exit_code == r2.exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_explicit_units(self, runner):
        g = sf.parse_groupoid(corpus("toy_layer.json"))
        from gpdlab.groupoid import orbits_and_isotropy

        part = orbits_and_isotropy(g, check=False)
        interior = max(
            (o for o, t in zip(part.orbits, part.isotropy) if t.order == 1), key=len
        )
        spec = ",".join(sorted(interior))
        res = runner.invoke(
            main,
            ["fredholm-check", "--groupoid", corpus("toy_layer.json"),
             "--u", spec, "--seed", "3"],
        )
        assert res.exit_code == 0

    def test_spectral_check(self, runner):
        res = runner.invoke(
            main,
            ["spectral-check", "--groupoid", corpus("toy_layer.json"),
             "--trials", "40", "--seed", "5"],
        )
        assert res.exit_code == 0
        assert payload(res)["results"]["passed"]


class TestLayerAndMellinCommands:
    def test_layer_report_square(self, runner):
        res = runner.invoke(main, ["layer-report", "--domain", corpus("square.json")])
        assert res.exit_code == 0
        doc = payload(res)
        assert doc["results"]["algebra"] == (
            "M_2(C0(R+)) ⊕ M_2(C0(R+)) ⊕ M_2(C0(R+)) ⊕ M_2(C0(R+))"
        )
        assert doc["results"]["b_groupoid_equal"] is False

    def test_layer_report_cone(self, runner):
        res = runner.invoke(main, ["layer-report", "--domain", corpus("cone3d.json")])
        assert payload(res)["results"]["b_groupoid_equal"] is True

    def test_mellin_scan(self, runner, tmp_path):
        out = tmp_path / "scan.json"
        res = runner.invoke(
            main,
            ["mellin-scan", "--domain", corpus("square.json"), "--c", "0.5",
             "--lambda-max", "120", "--out", str(out)],
        )
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["is_fredholm"]

    def test_mellin_scan_reports_its_certificate(self, runner, tmp_path):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            res = runner.invoke(main, ["mellin-scan", "--domain", corpus("square.json"),
                                       "--out", str(out)])
            assert res.exit_code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        for scan in json.loads(outs[0].read_text())["results"]["scans"].values():
            for key in ("min_sigma_lower", "lipschitz", "max_quad_error", "tail_c2"):
                assert key in scan
            assert scan["min_sigma_lower"] <= scan["min_sigma"]
            assert (scan["grid_points"], scan["refinements"]) == (9, 0)

    def test_nystrom_csv(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        res = runner.invoke(
            main,
            ["nystrom-verify", "--domain", corpus("square.json"),
             "--levels", "3", "--out", str(out)],
        )
        assert res.exit_code in (0, 1)  # stabilization at 3 coarse levels may be marginal
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "level,dof,sigma_min"
        assert len(lines) == 4

    @pytest.mark.parametrize("domain,order", [("square.json", 4), ("lshape.json", 1)])
    def test_nystrom_json_names_rotation_order(self, runner, domain, order):
        res = runner.invoke(main, ["nystrom-verify", "--domain", corpus(domain), "--levels", "2"])
        assert res.exit_code in (0, 1)
        results = json.loads(res.stdout)["results"]
        assert results["rotation_order"] == order
        # |G|: the square's and the L-shape's reflections double the rotations
        assert results["symmetry_order"] == 2 * order
        assert [r["level"] for r in results["trace"]] == [1, 2]


def run_python(code: str, env: dict) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return res.stdout


class TestStartup:
    BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    def test_thread_cap_set_before_numpy_loads(self):
        # record, at each environment write, whether numpy was already loaded
        code = """
import json, sys
writes = {}
def hook(event, args):
    if event == "os.putenv":
        writes[args[0].decode() if isinstance(args[0], bytes) else args[0]] = "numpy" in sys.modules
sys.addaudithook(hook)
import os, gpdlab.cli
print(json.dumps({"writes": writes, "env": {v: os.environ.get(v) for v in %r}}))
""" % (self.BLAS_VARS,)
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        env["GPDLAB_THREADS"] = "1"
        out = json.loads(run_python(code, env))
        assert out["env"] == {v: "1" for v in self.BLAS_VARS}
        assert {v: out["writes"].get(v) for v in self.BLAS_VARS} == {v: False for v in self.BLAS_VARS}

    def test_cli_import_leaves_scipy_optimize_and_integrate_unloaded(self):
        code = "import sys, gpdlab.cli; print(sorted(m for m in ('scipy.linalg', 'scipy.optimize', 'scipy.integrate') if m in sys.modules))"
        assert run_python(code, dict(os.environ)).strip() == "[]"

    def test_nystrom_oracle_leaves_scipy_linalg_unloaded(self):
        # sigma_min comes from numpy's Gram eigenvalues; scipy.linalg costs 0.4 s to import
        code = ("import sys; from gpdlab import conical, nystrom; nystrom.nystrom_oracle(conical.unit_square(), 3); "
                "print('scipy.linalg' in sys.modules)")
        assert run_python(code, dict(os.environ)).strip() == "False"

    def test_mellin_scan_leaves_scipy_unloaded(self, tmp_path):
        # the trapezoid sums are numpy products; scipy.linalg alone costs 0.4 s to import
        out = tmp_path / "scan.json"
        code = ("import json, sys; from gpdlab.cli import main\n"
                "try:\n"
                f"    main(['mellin-scan', '--domain', {corpus('square.json')!r}, '--out', {str(out)!r}])\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                "print(sorted(m for m in ('scipy.linalg', 'scipy.fft', 'scipy.integrate') if m in sys.modules))")
        assert run_python(code, dict(os.environ)).strip() == "[]"
        assert json.loads(out.read_text())["results"]["is_fredholm"] is True

    def test_spectral_check_leaves_scipy_linalg_unloaded(self):
        # both routes are numpy gufunc calls: stacked svd and solve
        code = ("import sys; from gpdlab import conical, fredholm; "
                "toy = conical.finite_toy_model(conical.assemble_layer_groupoid(conical.unit_square()), 3); "
                "assert fredholm.strictly_spectral_check(toy.structure, 20, 0).passed; "
                "print('scipy.linalg' in sys.modules)")
        assert run_python(code, dict(os.environ)).strip() == "False"


CLI_REPORTS = {
    "validate": ["validate", "--groupoid", corpus("pair3.json")],
    "glue": ["glue", "--atlas", corpus("atlas_three_piece.json")],
    "orbits": ["orbits", "--groupoid", corpus("toy_layer.json")],
    "norms": ["norms", "--groupoid", corpus("pair3.json"), "--element", corpus("element_pair3.json")],
    "fredholm-check": ["fredholm-check", "--groupoid", corpus("toy_layer.json"), "--seed", "7"],
    "spectral-check": ["spectral-check", "--groupoid", corpus("toy_layer.json"),
                       "--trials", "20", "--seed", "5"],
    "layer-report": ["layer-report", "--domain", corpus("square.json")],
    "mellin-scan": ["mellin-scan", "--domain", corpus("square.json"), "--lambda-max", "120"],
    "nystrom-verify": ["nystrom-verify", "--domain", corpus("square.json"), "--levels", "3"],
}


@pytest.mark.parametrize("command", sorted(CLI_REPORTS))
def test_report_bytes_match_json_dumps(runner, command):
    res = runner.invoke(main, CLI_REPORTS[command])
    assert res.exit_code in (0, 1)
    assert res.stdout == reference.dump_reference(json.loads(res.stdout))


def edited_fixture(tmp_path, name, keys, value) -> str:
    doc = json.loads(Path(corpus(name)).read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("args, fixture, keys, value, where", [
    (["validate", "--groupoid"], "pair3.json", ("compose", 0, 1), ["x"],
     ".compose[0]: h=['x'] is not a declared arrow id"),
    (["orbits", "--groupoid"], "pair3.json", ("unit_arrows", "a"), ["x"],
     ".unit_arrows['a']: must be a string id, got ['x']"),
    (["validate", "--groupoid"], "pair3.json", ("inverse", "ab"), ["x"],
     ".inverse['ab']: must be a string id, got ['x']"),
    (["glue", "--atlas"], "atlas_three_piece.json", ("pieces", 0, "embedding", "1"), ["1"],
     ".pieces[0].embedding['1']: must be a string id, got ['1']"),
    (["glue", "--atlas"], "bad_atlas.json", ("phis", 1, "map", "g2"), {"g": 2},
     ".phis[1].map['g2']: must be a string id, got {'g': 2}"),
], ids=["compose-entry", "unit-arrow", "inverse", "embedding", "phi-map"])
def test_non_string_id_exits_two_with_field_path(runner, tmp_path, args, fixture, keys, value, where):
    path = edited_fixture(tmp_path, fixture, keys, value)
    res = runner.invoke(main, args + [path])
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}{where}\n"


@pytest.mark.parametrize("keys, value, where", [
    (("arrows", 3, "dom"), "zz", ".arrows[3].dom: 'zz' is not a declared unit id"),
    (("units",), ["a", "b", "c", "a"], ".units[3]: duplicate unit id 'a'"),
    (("arrows", 4, "id"), "aa", ".arrows[4].id: duplicate arrow id 'aa'"),
    (("unit_arrows",), {"b": "bb", "c": "cc"}, ".unit_arrows: no entry for unit 'a'"),
    (("inverse", "aa"), "zz", ".inverse['aa']: 'zz' is not a declared arrow id"),
    (("inverse", "zz"), "aa", ".inverse['zz']: 'zz' is not a declared arrow id"),
], ids=["unknown-dom", "duplicate-unit", "duplicate-arrow", "missing-unit-arrow",
        "unknown-inverse-value", "extra-inverse-key"])
def test_malformed_groupoid_exits_two_with_field_path(runner, tmp_path, keys, value, where):
    path = edited_fixture(tmp_path, "pair3.json", keys, value)
    res = runner.invoke(main, ["validate", "--groupoid", path])
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}{where}\n"


def phi_entry(src, dst, mapping=None):
    return {"src": src, "dst": dst, "map": mapping or {}}


@pytest.mark.parametrize("fixture, keys, value, where", [
    ("bad_atlas.json", ("phis", 0, "map", "nonsense"), "g0",
     ".phis[0].map: phi(0,1) domain is not the overlap reduction"),
    ("atlas_three_piece.json", ("phis",), [phi_entry(0, 0, {"nonsense": "x"})],
     ".phis[0]: phi(0,0) maps a piece to itself"),
    ("atlas_three_piece.json", ("phis",), [phi_entry(0, 3)], ".phis[0].dst: bad piece index"),
    ("atlas_three_piece.json", ("phis",), [phi_entry(0, 1), phi_entry(2, 1), phi_entry(0, 1)],
     ".phis[2]: repeats the phi from piece 0 to piece 1"),
    ("bad_atlas.json", ("phis", 0, "dst"), True, ".phis[0].dst: bad piece index"),
    ("bad_atlas.json", ("phis",), 2.5, ".phis: must be an array"),
], ids=["unknown-arrow-id", "same-piece", "piece-out-of-range", "repeated-pair", "piece-true", "phis-number"])
def test_bad_phi_exits_two(runner, tmp_path, fixture, keys, value, where):
    path = edited_fixture(tmp_path, fixture, keys, value)
    res = runner.invoke(main, ["glue", "--atlas", path])
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}{where}\n"


def test_phi_between_pieces_apart_exits_two(runner, tmp_path):
    path = tmp_path / "apart.json"
    path.write_text(json.dumps({
        "spec_version": 1, "kind": "atlas", "units": ["1", "2"],
        "pieces": [{"groupoid": sf.groupoid_to_dict(gl.build_pair([u])), "embedding": {u: u}} for u in "12"],
        "phis": [phi_entry(1, 0)],
    }))
    res = runner.invoke(main, ["glue", "--atlas", str(path)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}.phis[0]: phi(1,0) joins pieces that do not overlap\n"


@pytest.mark.parametrize("keys, value, where", [
    (("units",), ["1", "2", "3", "4", "1"], ".units[4]: duplicate unit id '1'"),
    (("units",), ["1", "2", "3", "4", "5"], ".units: pieces do not cover the ambient unit set"),
    (("pieces", 1, "embedding", "2"), "9", ".pieces[1].embedding: piece 1: embedding leaves the ambient unit set"),
    (("pieces", 2, "embedding", "2"), "3", ".pieces[2].embedding: piece 2: embedding is not injective"),
], ids=["repeated-unit", "cover", "embedding-leaves", "embedding-not-injective"])
def test_atlas_law_fault_names_its_field(runner, tmp_path, keys, value, where):
    path = edited_fixture(tmp_path, "atlas_three_piece.json", keys, value)
    res = runner.invoke(main, ["glue", "--atlas", path])
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}{where}\n"


@pytest.mark.parametrize("name", ["v0", "."], ids=["missing", "directory"])
def test_missing_piece_file_names_the_atlas_field(runner, tmp_path, name):
    path = edited_fixture(tmp_path, "atlas_three_piece.json", ("pieces", 2, "groupoid"), name)
    res = runner.invoke(main, ["glue", "--atlas", path])
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}.pieces[2].groupoid: no file at {str(tmp_path / name)!r}\n"


GLUE_THREE_PIECE_SHA256 = "d3b5b2d4067cce36fa62bc9a82056dce6a90aebcf3fed3261e6c5310fdea33bc"


def test_glue_computes_the_quotient_classes_once(runner, monkeypatch):
    from gpdlab import gluing

    runs = []
    min_labels = gluing._min_labels

    def counted(*args):
        runs.append(args)
        return min_labels(*args)

    monkeypatch.setattr(gluing, "_min_labels", counted)
    res = runner.invoke(main, ["glue", "--atlas", corpus("atlas_three_piece.json")])
    assert res.exit_code == 0
    assert len(runs) == 1  # the atlas check, the glue and the strong check share the classes


def test_glue_runs_the_class_products_once(runner, monkeypatch):
    from gpdlab import gluing

    runs = []
    class_products = gluing._class_products

    def counted(*args):
        runs.append(args)
        return class_products(*args)

    monkeypatch.setattr(gluing, "_class_products", counted)
    monkeypatch.chdir(Path(corpus("atlas_three_piece.json")).parent)
    res = runner.invoke(main, ["glue", "--atlas", "atlas_three_piece.json"])
    assert res.exit_code == 0
    assert len(runs) == 1  # glue's own; the strong check does not form the class products
    assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == GLUE_THREE_PIECE_SHA256


@pytest.mark.parametrize("value, shown", [("0", "0.0"), ("-5", "-5.0"), ("nan", "nan"), ("inf", "inf")])
def test_mellin_scan_bad_lambda_max_exits_two(runner, value, shown):
    res = runner.invoke(main, ["mellin-scan", "--domain", corpus("square.json"), "--lambda-max", value])
    assert res.exit_code == 2
    assert res.stderr == f"error: lambda_max must be finite and positive, got {shown}\n"


@pytest.mark.parametrize("value, shown", [("1e9", "1e+09"), ("1e300", "1e+300")])
def test_mellin_scan_out_of_reach_lambda_max_exits_two(runner, value, shown):
    res = runner.invoke(main, ["mellin-scan", "--domain", corpus("square.json"), "--lambda-max", value])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"error: lam = {shown} needs more than the 312320 log-line intervals this window reaches\n"


def test_mellin_scan_nan_weight_exits_two(runner):
    res = runner.invoke(main, ["mellin-scan", "--domain", corpus("square.json"), "--weight", "nan"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == (
        "error: kernel 'wedge(1.5708)' is not integrable on the weight line a=nan: "
        "needs -p0 < a < p_inf with p0=1.0, p_inf=1.0\n"
    )


def test_mellin_scan_non_numeric_weight_exits_two(runner):
    res = runner.invoke(main, ["mellin-scan", "--domain", corpus("square.json"), "--weight", "abc"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "error: weight must be 'auto' or a number, got 'abc'\n"
    assert isinstance(res.exception, SystemExit)


def clockwise_square(tmp_path) -> Path:
    doc = json.loads(Path(corpus("square.json")).read_text())
    doc["vertices"].reverse()
    path = tmp_path / "clockwise.json"
    path.write_text(json.dumps(doc))
    return path


def test_nystrom_verify_clockwise_vertices_exit_two(runner, tmp_path):
    # reversed vertices describe the exterior, whose trace sinks with the level
    path = clockwise_square(tmp_path)
    res = runner.invoke(main, ["nystrom-verify", "--domain", str(path), "--levels", "2"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == (
        f"error: {path}.vertices: polygon vertices must be in counterclockwise order (signed area -1)\n"
    )
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("command, option", [("mellin-scan", "--domain"), ("validate", "--groupoid")])
def test_non_utf8_spec_file_names_the_file_and_the_byte(runner, tmp_path, command, option):
    path = tmp_path / "latin1.json"
    head = '{"format": "gpdlab", "name": "'.encode()
    path.write_bytes(head + "carr\u00e9".encode("latin-1") + b'"}')
    res = runner.invoke(main, [command, option, str(path)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"error: {path}: not UTF-8: byte 0xe9 at byte offset {len(head) + 4}\n"
    assert isinstance(res.exception, SystemExit)


def test_mellin_scan_clockwise_vertices_exit_two(runner, tmp_path):
    # the exterior has reflex corners; the file is refused before any scan
    path = clockwise_square(tmp_path)
    res = runner.invoke(main, ["mellin-scan", "--domain", str(path)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == (
        f"error: {path}.vertices: polygon vertices must be in counterclockwise order (signed area -1)\n"
    )
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("args", [["mellin-scan"], ["nystrom-verify", "--levels", "3"]],
                         ids=["mellin-scan", "nystrom-verify"])
def test_openings_that_disagree_with_the_coordinates_exit_two(runner, tmp_path, args):
    # the scan reads the declared openings, the mesh the coordinates: both
    # subcommands refuse the file before either reads it
    doc = json.loads(Path(corpus("square.json")).read_text())
    for spec in doc["vertices"]:
        spec["base"]["interior_angle"] = 4.0
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, [*args, "--domain", str(path)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == (
        f"error: {path}.vertices[0].base: vertex 'v0' has opening 4.0, "
        "but its coordinates give 1.5707963267948966\n"
    )
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("args", [["mellin-scan"], ["nystrom-verify", "--levels", "2"]],
                         ids=["mellin-scan", "nystrom-verify"])
@pytest.mark.parametrize("edges, stderr", [
    ([["v0", "nope"]], "edges[0]: edge names unknown vertex 'nope'"),
    ([["v0", "v2"], ["v2", "v1"], ["v1", "v3"], ["v3", "v0"]],
     "edges[0]: edge ['v0', 'v2'] is not ['v0', 'v1'], edge 0 of the vertex cycle"),
], ids=["unknown-id", "other-cycle"])
def test_edges_that_are_not_the_vertex_cycle_exit_two(runner, tmp_path, args, edges, stderr):
    # both deciders take the boundary from the vertex order
    doc = json.loads(Path(corpus("square.json")).read_text())
    doc["edges"] = edges
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, [*args, "--domain", str(path)])
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {path}.{stderr}\n")


def test_angles_that_disagree_with_the_opening_exit_two(runner, tmp_path):
    doc = json.loads(Path(corpus("square.json")).read_text())
    doc["vertices"][0]["base"]["angles"] = [0.0, 1.0]
    path = tmp_path / "angles.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["mellin-scan", "--domain", str(path)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == (
        f"error: {path}.vertices[0].base.angles: vertex 'v0' has opening 1.5707963267948966, "
        "but its angles sweep 1.0\n"
    )


@pytest.mark.parametrize("command", ["layer-report", "mellin-scan", "nystrom-verify"])
@pytest.mark.parametrize("keys, value, where", [
    (("vertices", 2, "coords", 1), None, ".vertices[2].coords[1]: must be a finite number, got None"),
    (("vertices", 0, "coords", 0), "x", ".vertices[0].coords[0]: must be a finite number, got 'x'"),
    (("vertices", 1, "coords", 0), True, ".vertices[1].coords[0]: must be a finite number, got True"),
    (("vertices", 3, "coords", 1), 10**400,
     ".vertices[3].coords[1]: must be a finite number, got 1" + "0" * 400),
    (("vertices", 2, "coords"), [0.0, 0.0],
     ".vertices[2].coords: vertex coordinates must be distinct (disjoint neighborhoods)"),
    (("vertices", 3, "id"), "v1", ".vertices[3].id: vertex ids must be distinct"),
    (("vertices", 1, "base", "angles"), [1.5707963267948966],
     ".vertices[1].base.angles: vertex 'v1' is a polygon corner, which has two rays, not 1"),
    (("vertices", 1, "base", "angles"), [],
     ".vertices[1].base: vertex 'v1': base needs at least one boundary component"),
    (("vertices", 0, "base"), {"type": "named", "name": "cap", "components": 1},
     ".vertices[0].base: vertex 'v0': planar vertices need ray bases"),
    (("edges",), 2.5, ".edges: must be an array of vertex-id pairs"),
    (("edges",), None, ".edges: must be an array of vertex-id pairs"),
], ids=["coord-null", "coord-string", "coord-bool", "coord-past-float", "coords-repeated",
        "id-repeated", "one-ray", "no-ray", "named-base", "edges-number", "edges-null"])
def test_malformed_domain_exits_two_with_field_path(runner, tmp_path, command, keys, value, where):
    path = edited_fixture(tmp_path, "square.json", keys, value)
    res = runner.invoke(main, [command, "--domain", path])
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {path}{where}\n")


def test_nystrom_verify_names_a_vertex_without_coordinates(runner, tmp_path):
    # the file is no polygon, so it loads, and the scan and the report read it
    doc = json.loads(Path(corpus("square.json")).read_text())
    del doc["vertices"][1]["coords"]
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    path = str(path)
    assert runner.invoke(main, ["layer-report", "--domain", path]).exit_code == 0
    res = runner.invoke(main, ["nystrom-verify", "--domain", path, "--levels", "2"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"error: {path}.vertices[1].coords: vertex 'v1' has no coordinates\n"


def test_mellin_scan_names_a_vertex_without_a_kernel(runner, tmp_path):
    # with no coordinates the one-ray vertex is no polygon corner; it has no built-in kernel
    doc = json.loads(Path(corpus("square.json")).read_text())
    for spec in doc["vertices"]:
        del spec["coords"]
    doc["vertices"][2]["base"]["angles"] = [0.0]
    path = tmp_path / "rays.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["mellin-scan", "--domain", str(path)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == (
        f"error: {path}.vertices[2].base: vertex 'v2' has no built-in kernel; supply one explicitly\n"
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, True, "1"], ids=["nan", "inf", "bool", "string"])
def test_norms_refuses_a_coefficient_that_is_not_a_finite_number(runner, tmp_path, value):
    path = edited_fixture(tmp_path, "element_pair3.json", ("coefficients", "aa", 0), value)
    res = runner.invoke(main, ["norms", "--groupoid", corpus("pair3.json"), "--element", path])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"error: {path}.coefficients['aa']: must be [re, im], two finite numbers\n"


def test_mellin_scan_zero_constant_report(runner):
    # c = 0 is not elliptic: no vertex is scanned and the verdict fails
    res = runner.invoke(main, ["mellin-scan", "--domain", corpus("square.json"), "--c", "0"])
    assert (res.exit_code, res.stderr) == (1, "")
    assert payload(res)["results"] == {
        "elliptic": False,
        "weight": 0.5,
        "constant": [0.0, 0.0],
        "scans": {f"'v{i}'": None for i in range(4)},
        "is_fredholm": False,
        "witness": None,
        "note": "inelliptic constant term; scans skipped",
    }


@pytest.mark.parametrize("option, value, stderr", [
    ("--sigma-tol", "nan", "error: sigma_tol must be finite and positive, got nan\n"),
    ("--sigma-tol", "inf", "error: sigma_tol must be finite and positive, got inf\n"),
    ("--sigma-tol", "0", "error: sigma_tol must be finite and positive, got 0.0\n"),
    ("--c", "nan", "error: constant term c must be finite, got nan\n"),
    ("--c", "inf", "error: constant term c must be finite, got inf\n"),
    ("--c", "-inf", "error: constant term c must be finite, got -inf\n"),
])
def test_mellin_scan_non_finite_constants_exit_two(runner, option, value, stderr):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["mellin-scan", "--domain", corpus("square.json"), option, value])
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", stderr)
    assert caught == []


# stdout of `mellin-scan --domain src/gpdlab/corpus/<name>` run from the
# repository root (the report echoes the path as given)
MELLIN_SCAN_SHA256 = {
    "square.json": "64bf2333005382eb41cb5e9afcf48c7d3b7efa557347af5540c39c35b96f2d9a",
    "pentagon.json": "3f8b347ffd758fabf37ca8cf783a01a604630a7992c92d0a2e93cc674b64be8a",
    "lshape.json": "3a97a1ff8e429db79ccebea6090fe1ae92405bc0e3431260a70d6aadd1d9e031",
}


def assert_reports_close(got, want, where="report"):
    """Equal keys, strings, booleans and integers; floats within 1e-14 relative
    (absolute below 1)."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_reports_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_reports_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-14 * max(abs(want), 1.0), (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("name", MELLIN_SCAN_SHA256)
def test_mellin_scan_corpus_output_matches_the_phase_matrix_engine(runner, monkeypatch, name):
    # the pins below were re-taken when the trapezoid sum was factored and
    # when C2 and L became contractions over the nodes; the reports may
    # move only in the last bits of their floats
    res = runner.invoke(main, ["mellin-scan", "--domain", corpus(name)])
    assert (res.exit_code, res.stderr) == (0, "")
    monkeypatch.setattr(mellin.LogLineSamples, "_trapezoid", reference.trapezoid_reference)
    want = runner.invoke(main, ["mellin-scan", "--domain", corpus(name)])
    assert (want.exit_code, want.stderr) == (0, "")
    assert_reports_close(payload(res), payload(want))


@pytest.mark.parametrize("name", MELLIN_SCAN_SHA256)
def test_mellin_scan_corpus_output_pinned(runner, monkeypatch, tmp_path, name):
    rel = Path("src", "gpdlab", "corpus", name)
    (tmp_path / rel).parent.mkdir(parents=True)
    shutil.copyfile(corpus(name), tmp_path / rel)
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, ["mellin-scan", "--domain", rel.as_posix()])
    assert (res.exit_code, res.stderr) == (0, "")
    assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == MELLIN_SCAN_SHA256[name]


@pytest.mark.parametrize("name, code, stdout_sha256, stderr", [
    ("atlas_three_piece.json", 0, GLUE_THREE_PIECE_SHA256, ""),
    ("atlas_two_piece.json", 2, None,
     "error: weak gluing condition fails at composable pair ((0, '12'), (1, '24'))\n"),
    ("bad_atlas.json", 2, None,
     "error: bad_atlas.json: cocycle violated at arrow 'g1' of piece 0 (via piece 1 to piece 2)\n"),
])
def test_glue_corpus_output_pinned(runner, monkeypatch, name, code, stdout_sha256, stderr):
    monkeypatch.chdir(Path(corpus(name)).parent)
    res = runner.invoke(main, ["glue", "--atlas", name])
    assert res.exit_code == code
    assert res.stderr == stderr
    if stdout_sha256 is None:
        assert res.stdout == ""
    else:
        assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == stdout_sha256


@pytest.mark.parametrize("args, stdout_sha256", [
    (["fredholm-check", "--groupoid", "toy_layer.json", "--seed", "7"],
     "522a8b148a320791f565e2fd0250a2045a956e4d5b835daf732599d0e65c3b06"),
    (["fredholm-check", "--groupoid", "toy_layer.json", "--seed", "11"],
     "5dae455c622f55a9e4684954bbb90f93cbc700dd088d7d2995abe6b09f9e1078"),
    (["spectral-check", "--groupoid", "toy_layer.json", "--trials", "20", "--seed", "5"],
     "d8b6c5450e6361ecb9d04326128bbec9f2dbf7a8c13b27b5c716e87e65887729"),
    (["spectral-check", "--groupoid", "toy_layer.json", "--seed", "5"],
     "908dee13c9e7624090d22802a469f6ac5017c63adc6482e5992fae06b59281db"),
    (["norms", "--groupoid", "pair3.json", "--element", "element_pair3.json"],
     "05db619be4591c3c5349b522e450f4eb14aac1051551ceace662be6276ebfb47"),
], ids=["fredholm-check-7", "fredholm-check-11", "spectral-check", "spectral-check-200", "norms"])
def test_algebra_corpus_output_pinned(runner, monkeypatch, args, stdout_sha256):
    monkeypatch.chdir(Path(corpus("pair3.json")).parent)
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stderr) == (0, "")
    assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == stdout_sha256


@pytest.mark.parametrize("args, stdout_sha256", [
    (["validate", "--groupoid", "pair3.json"],
     "470bb44c78fe8d3e5a08ba3d53cb044c236ff96edd23cbbfa5bbb988550f258e"),
    (["orbits", "--groupoid", "toy_layer.json"],
     "d45e260be6b2b85526451403f8c985a673f5686e0b1cf471f2068d413d9001e5"),
    (["layer-report", "--domain", "lshape.json"],
     "be30903843f9b2c13821071c2501a70d18e594963078ece87c950e6cdecebd63"),
    (["nystrom-verify", "--domain", "square.json", "--levels", "3"],
     "7abdf731c44f57cb66759a9c600ed2c09ad2f3b5f6c4ca88007c815759577cc6"),
], ids=["validate", "orbits", "layer-report", "nystrom-verify"])
def test_report_corpus_output_pinned(runner, monkeypatch, args, stdout_sha256):
    monkeypatch.chdir(Path(corpus("pair3.json")).parent)
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stderr) == (0, "")
    assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == stdout_sha256


@pytest.mark.parametrize("args", [
    [*args, "--out", "/nonexistent/dir/x"] for args in CLI_REPORTS.values()
] + [CLI_REPORTS["nystrom-verify"] + ["--out", "/nonexistent/dir/x.csv"]],
    ids=[*CLI_REPORTS, "nystrom-verify-csv"])
def test_unwritable_out_exits_two(runner, args):
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("args, stderr", [
    (["fredholm-check", "--groupoid", "z2_one_object.json", "--seed", "1"],
     "error: no trivial-isotropy orbit to use as the interior\n"),
    (["fredholm-check", "--groupoid", "pair3.json", "--u", "a,nowhere", "--seed", "1"],
     "error: unknown unit ids ['nowhere']\n"),
    (["spectral-check", "--groupoid", "z2_one_object.json", "--seed", "1"],
     "error: no trivial-isotropy orbit to use as the interior\n"),
], ids=["no-interior", "unknown-unit", "spectral-no-interior"])
def test_bad_interior_exits_two(runner, monkeypatch, args, stderr):
    monkeypatch.chdir(Path(corpus("pair3.json")).parent)
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", stderr)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_spectral_check_needs_a_trial(runner, trials):
    res = runner.invoke(main, ["spectral-check", "--groupoid", corpus("toy_layer.json"),
                               "--trials", trials, "--seed", "5"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--trials" in res.stderr
