"""JSON spec-file ingestion and serialization.

All input files carry ``spec_version: 1`` and a ``kind`` tag.  Parsing
validates every invariant at load: groupoid files must satisfy the
groupoid axioms, atlas files the atlas laws, domain files the domain
constraints.  Diagnostics name the offending field path and witness.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement
from .conical import DomainError, LayerDomain, NamedBase, RayBase, Vertex
from .gluing import GluingAtlas, GluingPiece
from .groupoid import FiniteGroupoid, _id_array, validate

SPEC_VERSION = 1


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _load_json(path):
    path = Path(path)
    if not path.exists():
        raise SchemaError(str(path), "file does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh, _gc_paused:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except UnicodeDecodeError as exc:
        # the whole file is decoded at once, so the offset is the file's
        raise SchemaError(
            str(path), f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at byte offset {exc.start}"
        ) from None


class _GcPause:
    """``with _gc_paused:`` pauses the cyclic collector while an acyclic tree
    (a JSON document) is built, read or written.

    Its many new lists would otherwise trigger collections that can find
    nothing.  The collector's state on entry is restored on exit, and
    pauses nest.  Entering allocates no tracked object, and nothing is
    allocated after the collector is enabled again: either would start a
    collection over a tree that is still alive.
    """

    _was_enabled: list = []

    @staticmethod
    def __enter__():
        _GcPause._was_enabled.append(gc.isenabled())
        gc.disable()

    @staticmethod
    def __exit__(*exc):
        if _GcPause._was_enabled.pop():
            gc.enable()


_gc_paused = _GcPause()


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _check_envelope(doc, kind: str, where: str):
    _expect(isinstance(doc, dict), where, "document must be a JSON object")
    _expect(doc.get("spec_version") == SPEC_VERSION, f"{where}.spec_version",
            f"unsupported version {doc.get('spec_version')!r} (supported: {SPEC_VERSION})")
    _expect(doc.get("kind") == kind, f"{where}.kind",
            f"expected kind {kind!r}, got {doc.get('kind')!r}")


# ---------------------------------------------------------------------------
# groupoids


def groupoid_from_dict(doc, where: str = "groupoid") -> FiniteGroupoid:
    groupoid = _groupoid_tables(doc, where)
    report = validate(groupoid)
    if not report.ok:
        first = report.violations[0]
        raise SchemaError(
            where,
            f"groupoid axioms violated: {first.axiom} at witness {first.witness!r}",
        )
    return groupoid


def _groupoid_tables(doc, where: str) -> FiniteGroupoid:
    """Parse a groupoid document into tables; axioms are left unchecked.

    Every id is looked up once, here, and a fault names its field.
    """
    _check_envelope(doc, "groupoid", where)
    units = doc.get("units")
    _expect(isinstance(units, list) and all(isinstance(u, str) for u in units),
            f"{where}.units", "must be an array of strings")
    uidx = _declared(units, lambda i: f"{where}.units[{i}]", "unit")
    arrows_spec = doc.get("arrows")
    _expect(isinstance(arrows_spec, list), f"{where}.arrows", "must be an array")
    arrows, ends = [], []
    for i, spec in enumerate(arrows_spec):
        here = f"{where}.arrows[{i}]"
        _expect(isinstance(spec, dict), here, "must be an object")
        for key in ("id", "dom", "rng"):
            _expect(isinstance(spec.get(key), str), f"{here}.{key}", "must be a string")
        arrows.append(spec["id"])
        for key in ("dom", "rng"):
            x = uidx.get(spec[key])
            if x is None:
                raise SchemaError(f"{here}.{key}", f"{spec[key]!r} is not a declared unit id")
            ends.append(x)
    aidx = _declared(arrows, lambda i: f"{where}.arrows[{i}].id", "arrow")
    ends = np.array(ends, np.int64).reshape(-1, 2)
    unit_i = _id_table(doc.get("unit_arrows"), f"{where}.unit_arrows", uidx, "unit", aidx)
    inv_i = _id_table(doc.get("inverse"), f"{where}.inverse", aidx, "arrow", aidx)
    compose_spec = doc.get("compose")
    _expect(isinstance(compose_spec, list), f"{where}.compose", "must be an array of [g, h, gh]")
    p1, p2, pp = _compose_columns(compose_spec, aidx, f"{where}.compose")
    return FiniteGroupoid._from_arrays(units, arrows, ends[:, 0], ends[:, 1], inv_i, unit_i, p1, p2, pp)


def _declared(ids: list, path, what: str) -> dict:
    """The index of each id; a repeated id is a fault at ``path(position)``."""
    index = {}
    for i, x in enumerate(ids):
        if index.setdefault(x, i) != i:
            raise SchemaError(path(i), f"duplicate {what} id {x!r}")
    return index


def _id_table(table, path: str, keys: dict, key_kind: str, arrows: dict) -> np.ndarray:
    """Per key of ``keys``, in its order, the index of the arrow table[key]."""
    _expect(isinstance(table, dict), path, f"must be a map {key_kind} -> arrow")
    _expect_string_values(table, path)
    for key, value in table.items():
        if key not in keys:
            raise SchemaError(f"{path}[{key!r}]", f"{key!r} is not a declared {key_kind} id")
        if value not in arrows:
            raise SchemaError(f"{path}[{key!r}]", f"{value!r} is not a declared arrow id")
    if len(table) != len(keys):
        missing = next(x for x in keys if x not in table)
        raise SchemaError(path, f"no entry for {key_kind} {missing!r}")
    return np.fromiter((arrows[table[x]] for x in keys), np.int64, len(keys))


def _expect_string_values(table: dict, path: str):
    for key, value in table.items():
        if not isinstance(value, str):
            raise SchemaError(f"{path}[{key!r}]", f"must be a string id, got {value!r}")


def _compose_columns(spec: list, aidx: dict, path: str) -> np.ndarray:
    """The (g, h, gh) arrow-index columns of the compose entries, in their order.

    The ids are looked up in one vectorised pass and a repeated (g, h) is
    found by one ``np.unique``.  A fault is reported at the first entry that
    is not a triple of declared string ids or repeats an earlier (g, h).
    """
    if spec and set(map(type, spec)) == {list} and set(map(len, spec)) == {3}:
        try:
            return _index_columns(spec, aidx, path)
        except TypeError:  # an unhashable id
            pass
    # the walk: the first entry that is not a triple of strings, and faults before it
    end = next((i for i, t in enumerate(spec) if not _is_id_triple(t)), len(spec))
    columns = _index_columns(spec[:end], aidx, path)
    if end == len(spec):
        return columns
    triple = spec[end]
    if not (isinstance(triple, list) and len(triple) == 3):
        raise SchemaError(f"{path}[{end}]", "must be a triple [g, h, gh]")
    raise SchemaError(f"{path}[{end}]", _compose_fault(triple, aidx))


def _is_id_triple(triple) -> bool:
    return isinstance(triple, list) and len(triple) == 3 and all(isinstance(x, str) for x in triple)


def _index_columns(triples: list, aidx: dict, path: str) -> np.ndarray:
    """The index columns of entries that are lists of length 3; a faulty entry raises."""
    ids = np.fromiter(map(aidx.get, chain.from_iterable(triples), repeat(-1)), np.int64,
                      3 * len(triples)).reshape(-1, 3)
    _, first = np.unique(ids[:, 0] * len(aidx) + ids[:, 1], return_index=True)
    bad = np.ones(len(triples), bool)
    bad[first] = False  # all but the first entry of each (g, h)
    bad |= (ids < 0).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise SchemaError(f"{path}[{i}]", _compose_fault(triples[i], aidx))
    return ids.T


def _compose_fault(triple, aidx) -> str:
    """Why a well-shaped compose triple is rejected: the first bad id, else a duplicate."""
    for name, val in zip(("g", "h", "gh"), triple):
        if not (isinstance(val, str) and val in aidx):
            return f"{name}={val!r} is not a declared arrow id"
    return f"duplicate compose entry for ({triple[0]!r}, {triple[1]!r})"


def groupoid_to_dict(g: FiniteGroupoid) -> dict:
    with _gc_paused:
        names = _id_array([_id_str(a) for a in g.arrows])
        unit_names = _id_array([_id_str(x) for x in g.units])
        return {
            "spec_version": SPEC_VERSION,
            "kind": "groupoid",
            "units": unit_names.tolist(),
            "arrows": [
                {"id": a, "dom": d, "rng": r}
                for a, d, r in zip(names.tolist(), unit_names[g.dom_i].tolist(),
                                   unit_names[g.rng_i].tolist())
            ],
            "unit_arrows": dict(zip(unit_names.tolist(), names[g.unit_i].tolist())),
            "inverse": dict(zip(names.tolist(), names[g.inv_i].tolist())),
            "compose": np.stack([names[g.p1], names[g.p2], names[g.pp]], axis=1).tolist(),
        }


def _id_str(value) -> str:
    return value if isinstance(value, str) else repr(value)


def parse_groupoid(path) -> FiniteGroupoid:
    # the tree is dropped inside the pause, so no collection ever walks it
    with _gc_paused:
        return groupoid_from_dict(_load_json(path), where=str(path))


# ---------------------------------------------------------------------------
# atlases


def atlas_from_dict(doc, where: str = "atlas", base_dir: Path | None = None) -> GluingAtlas:
    _check_envelope(doc, "atlas", where)
    units = doc.get("units")
    _expect(isinstance(units, list) and all(isinstance(u, str) for u in units),
            f"{where}.units", "must be an array of strings")
    pieces_spec = doc.get("pieces")
    _expect(isinstance(pieces_spec, list) and pieces_spec, f"{where}.pieces",
            "must be a non-empty array")
    pieces = []
    for i, spec in enumerate(pieces_spec):
        here = f"{where}.pieces[{i}]"
        _expect(isinstance(spec, dict), here, "must be an object")
        gspec = spec.get("groupoid")
        if isinstance(gspec, str):
            gpath = Path(gspec)
            if base_dir is not None and not gpath.is_absolute():
                gpath = base_dir / gpath
            groupoid = parse_groupoid(gpath)
        elif isinstance(gspec, dict):
            groupoid = groupoid_from_dict(gspec, where=f"{here}.groupoid")
        else:
            raise SchemaError(f"{here}.groupoid", "must be an inline groupoid or a path string")
        emb = spec.get("embedding")
        _expect(isinstance(emb, dict), f"{here}.embedding", "must be a map piece-unit -> unit")
        _expect_string_values(emb, f"{here}.embedding")
        pieces.append(GluingPiece(groupoid, emb))
    phis_spec = doc.get("phis", [])
    _expect(isinstance(phis_spec, list), f"{where}.phis", "must be an array")
    phis = {}
    for i, spec in enumerate(phis_spec):
        here = f"{where}.phis[{i}]"
        _expect(isinstance(spec, dict), here, "must be an object")
        src, dst = spec.get("src"), spec.get("dst")
        # type(...) is int: a JSON true is an int, but no piece index
        _expect(type(src) is int and 0 <= src < len(pieces), f"{here}.src", "bad piece index")
        _expect(type(dst) is int and 0 <= dst < len(pieces), f"{here}.dst", "bad piece index")
        mapping = spec.get("map")
        _expect(isinstance(mapping, dict), f"{here}.map", "must be a map arrow -> arrow")
        _expect_string_values(mapping, f"{here}.map")
        _expect(src != dst, here, "src and dst must name two different pieces")
        _expect((src, dst) not in phis, here, f"repeats the phi from piece {src} to piece {dst}")
        _expect(pieces[src].embedded_units() & pieces[dst].embedded_units(), here,
                f"pieces {src} and {dst} do not overlap")
        phis[(src, dst)] = mapping
    try:
        atlas = GluingAtlas(units, pieces, phis or None)
        atlas.check()
        return atlas
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from None


def parse_atlas(path) -> GluingAtlas:
    p = Path(path)
    return atlas_from_dict(_load_json(p), where=str(p), base_dir=p.parent)


# ---------------------------------------------------------------------------
# domains


def domain_from_dict(doc, where: str = "domain") -> LayerDomain:
    _check_envelope(doc, "domain", where)
    n = doc.get("n")
    _expect(isinstance(n, int) and n >= 2, f"{where}.n", "dimension must be an integer >= 2")
    _expect(doc.get("no_cracks") is True, f"{where}.no_cracks",
            "must be true (cracked domains are out of scope)")
    vertices_spec = doc.get("vertices")
    _expect(isinstance(vertices_spec, list) and vertices_spec, f"{where}.vertices",
            "must be a non-empty array")
    vertices = []
    for i, spec in enumerate(vertices_spec):
        here = f"{where}.vertices[{i}]"
        _expect(isinstance(spec, dict), here, "must be an object")
        vid = spec.get("id")
        _expect(isinstance(vid, str), f"{here}.id", "must be a string")
        base_spec = spec.get("base")
        _expect(isinstance(base_spec, dict), f"{here}.base", "must be an object")
        btype = base_spec.get("type")
        if btype == "rays":
            angles = base_spec.get("angles")
            _expect(
                isinstance(angles, list) and all(isinstance(a, (int, float)) for a in angles),
                f"{here}.base.angles", "must be an array of numbers",
            )
            interior = base_spec.get("interior_angle")
            if interior is not None:
                _expect(isinstance(interior, (int, float)), f"{here}.base.interior_angle",
                        "must be a number")
            base = RayBase(tuple(float(a) for a in angles),
                           None if interior is None else float(interior))
        elif btype == "named":
            _expect(isinstance(base_spec.get("name"), str), f"{here}.base.name", "must be a string")
            comps = base_spec.get("components")
            _expect(isinstance(comps, int) and comps >= 1, f"{here}.base.components",
                    "must be a positive integer")
            base = NamedBase(base_spec["name"], comps)
        else:
            raise SchemaError(f"{here}.base.type", f"unknown base type {btype!r}")
        coords = spec.get("coords")
        if coords is not None:
            _expect(isinstance(coords, list) and len(coords) == n, f"{here}.coords",
                    f"must be an array of {n} numbers")
            for j, c in enumerate(coords):
                _expect(_finite(c), f"{here}.coords[{j}]", f"must be a finite number, got {c!r}")
            coords = tuple(map(float, coords))
        vertices.append(Vertex(vid, base, coords))
    edges_spec = doc.get("edges", [])
    _expect(isinstance(edges_spec, list), f"{where}.edges", "must be an array of vertex-id pairs")
    edges = []
    for i, e in enumerate(edges_spec):
        here = f"{where}.edges[{i}]"
        _expect(isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e), here,
                "must be a pair of vertex ids")
        edges.append((e[0], e[1]))
    with fields_of(where):
        return LayerDomain(n, tuple(vertices), tuple(edges))


def _finite(x) -> bool:
    """Whether a JSON value is a number, not a boolean, that is finite as a float."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


@contextmanager
def fields_of(where: str):
    """Raise a ``DomainError`` from the block as a ``SchemaError`` at its
    field in the domain file ``where``, or at the file if it names none."""
    try:
        yield
    except DomainError as exc:
        raise SchemaError(f"{where}.{exc.field}" if exc.field else str(where), str(exc)) from None


def domain_to_dict(d: LayerDomain) -> dict:
    verts = []
    for v in d.vertices:
        if isinstance(v.base, RayBase):
            base = {"type": "rays", "angles": list(v.base.angles)}
            if v.base.interior_angle is not None:
                base["interior_angle"] = v.base.interior_angle
        else:
            base = {"type": "named", "name": v.base.name, "components": v.base.components}
        spec = {"id": _id_str(v.id), "base": base}
        if v.coords is not None:
            spec["coords"] = list(v.coords)
        verts.append(spec)
    return {
        "spec_version": SPEC_VERSION,
        "kind": "domain",
        "n": d.dimension,
        "vertices": verts,
        "edges": [[_id_str(a), _id_str(b)] for a, b in d.edges],
        "no_cracks": True,
    }


def parse_domain(path) -> LayerDomain:
    return domain_from_dict(_load_json(path), where=str(path))


# ---------------------------------------------------------------------------
# algebra elements


def element_from_dict(doc, groupoid: FiniteGroupoid, where: str = "element") -> AlgebraElement:
    _check_envelope(doc, "element", where)
    coeffs = doc.get("coefficients")
    _expect(isinstance(coeffs, dict), f"{where}.coefficients", "must be a map arrow -> [re, im]")
    aidx = groupoid.arrow_index()
    vec = np.zeros(groupoid.n_arrows, dtype=np.complex128)
    for arrow, pair in coeffs.items():
        here = f"{where}.coefficients[{arrow!r}]"
        _expect(arrow in aidx, here, "unknown arrow id")
        _expect(isinstance(pair, list) and len(pair) == 2 and all(map(_finite, pair)), here,
                "must be [re, im], two finite numbers")
        vec[aidx[arrow]] = complex(pair[0], pair[1])
    return AlgebraElement(groupoid, vec)


def element_to_dict(a: AlgebraElement) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "kind": "element",
        "coefficients": {
            _id_str(arrow): [c.real, c.imag] for arrow, c in a.as_dict().items()
        },
    }


def parse_element(path, groupoid: FiniteGroupoid) -> AlgebraElement:
    return element_from_dict(_load_json(path), groupoid, where=str(path))


def dump(doc: dict, path=None) -> str:
    """Deterministic serialization (sorted keys, fixed layout).

    The text is ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` byte
    for byte.  CPython's C encoder only runs without ``indent``, so the
    layout is written here and strings go through the C escaper, each
    distinct string once.  A table of id rows (a compose table) is laid out
    as one list of separators and quoted ids, which the final join turns
    into text in one go.
    """
    with _gc_paused:
        out = []
        _layout(doc, "\n", out, _Quoted())
        out.append("\n")
        text = "".join(out)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
    return text


class _Quoted(dict):
    """The JSON literal of each string, quoted on first use."""

    def __missing__(self, s):
        text = self[s] = _quote(s)
        return text


def _layout(obj, nl: str, out: list, quoted: _Quoted) -> None:
    """Append the JSON text of ``obj``; ``nl`` is a newline plus the indent of its line."""
    if isinstance(obj, str):
        out.append(quoted[obj])
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        try:  # most lists in groupoid files hold only ids
            out.append("[" + inner + ("," + inner).join(map(quoted.__getitem__, obj)) + nl + "]")
            return
        except TypeError:
            pass
        table = _table_pieces(obj, nl, quoted)
        if table is not None:
            out += table
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _layout(value, inner, out, quoted)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + quoted[key if isinstance(key, str) else _key_str(key)] + ": ")
            _layout(value, inner, out, quoted)
            sep = "," + inner
        out.append(nl + "}")
    else:
        out.append(_scalar_str(obj))


def _table_pieces(rows, nl: str, quoted: _Quoted) -> list | None:
    """The text of ``rows`` as separators interleaved with quoted ids, if it
    is a table: lists or tuples of one non-zero width, holding only strings.
    """
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    width = widths.pop()
    inner, cell = nl + "  ", nl + "    "
    pieces = ["," + cell] * (2 * width * len(rows) + 1)
    pieces[0] = "[" + inner + "[" + cell
    pieces[2 * width:-1:2 * width] = [inner + "]," + inner + "[" + cell] * (len(rows) - 1)
    pieces[-1] = inner + "]" + nl + "]"
    try:
        pieces[1::2] = map(quoted.__getitem__, chain.from_iterable(rows))
    except TypeError:  # an item that is not a string
        return None
    return pieces


def _scalar_str(o) -> str:
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_str(key) -> str:
    if key is None or isinstance(key, (int, float)):
        return _scalar_str(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
