"""Conical and polygonal domains with desingularized boundaries.

Domains carry a finite list of cone points; each cone point has a base
whose boundary has finitely many components (two rays for a planar
vertex).  Desingularization replaces every cone point by a cylinder
over that base boundary, and the layer groupoid descriptor records the
symbolic gluing of the interior pair piece with one dilation piece per
cone point.  A finite toy truncation replaces the dilation group by a
cyclic group so the combinatorial machinery can run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .groupoid import (
    FiniteGroupoid,
    GroupTable,
    build_action,
    build_pair,
    build_product,
    relabel,
)
from .gluing import GluedGroupoid, GluingAtlas, GluingPiece, glue
from .fredholm import FredholmStructure, make_structure

TWO_PI = 2.0 * math.pi
# radians by which a vertex's declared opening may differ from its coordinates'
OPENING_TOL = 1e-9


class DomainError(ValueError):
    """A violated domain constraint; ``field`` names the domain-file field at fault, if any."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class RayBase:
    """Planar cone base: boundary rays at absolute angles from the vertex.

    For a polygon vertex the two rays point toward the adjacent
    vertices.  ``interior_angle`` is the opening swept inside the domain
    from the first ray to the second; when omitted it defaults to the
    counterclockwise sweep angles[0] -> angles[1], and a two-ray base in
    a ``LayerDomain`` must declare that sweep to within OPENING_TOL.
    """

    angles: tuple
    interior_angle: Optional[float] = None

    @property
    def components(self) -> int:
        return len(self.angles)

    def opening(self) -> float:
        if self.interior_angle is not None:
            return self.interior_angle
        if len(self.angles) != 2:
            raise DomainError("opening angle undefined for bases with more than two rays")
        return (self.angles[1] - self.angles[0]) % TWO_PI


@dataclass(frozen=True)
class NamedBase:
    """Symbolic cone base for dimension >= 3: a name and the number of
    boundary components of the base."""

    name: str
    components: int


@dataclass(frozen=True)
class Vertex:
    id: object
    base: object  # RayBase | NamedBase
    coords: Optional[tuple] = None

    @property
    def k(self) -> int:
        return self.base.components


@dataclass(frozen=True)
class LayerDomain:
    """A bounded domain with finitely many cone points and no cracks.

    A planar domain whose every vertex has coordinates is the polygon
    through them, checked here once for every route that reads it: the
    list must run counterclockwise (a clockwise one describes the
    exterior), each vertex's declared opening, which the symbol scans
    read, must match its coordinates, which the mesh reads, and edges,
    if listed, must be the vertex cycle.  A two-ray base that declares
    its opening must sweep it counterclockwise from its first ray to its
    second, and every edge must join declared vertices.
    """

    dimension: int
    vertices: tuple
    edges: tuple = ()
    no_cracks: bool = True

    def __post_init__(self):
        if self.dimension < 2:
            raise DomainError("dimension must be >= 2", field="n")
        if not self.no_cracks:
            raise DomainError("domains with cracks are out of scope", field="no_cracks")
        ids = [v.id for v in self.vertices]
        if (i := _first_repeat(ids)) is not None:
            raise DomainError("vertex ids must be distinct", field=f"vertices[{i}].id")
        coords = [v.coords for v in self.vertices]
        if (i := _first_repeat(coords)) is not None:
            raise DomainError("vertex coordinates must be distinct (disjoint neighborhoods)",
                              field=f"vertices[{i}].coords")
        for i, v in enumerate(self.vertices):
            if self.dimension == 2 and not isinstance(v.base, RayBase):
                raise DomainError(f"vertex {v.id!r}: planar vertices need ray bases",
                                  field=f"vertices[{i}].base")
            if self.dimension >= 3 and not isinstance(v.base, NamedBase):
                raise DomainError(f"vertex {v.id!r}: named bases required for dimension >= 3",
                                  field=f"vertices[{i}].base")
            if v.base.components < 1:
                raise DomainError(f"vertex {v.id!r}: base needs at least one boundary component",
                                  field=f"vertices[{i}].base")
        polygon = self.dimension == 2 and coords and None not in coords
        if polygon:
            self._check_polygon(coords)
        for i, v in enumerate(self.vertices):
            if isinstance(v.base, RayBase) and v.base.interior_angle is not None and v.k == 2:
                declared, sweep = v.base.interior_angle, RayBase(v.base.angles).opening()
                if not abs(declared - sweep) <= OPENING_TOL:
                    raise DomainError(
                        f"vertex {v.id!r} has opening {declared!r}, but its angles sweep {sweep!r}",
                        field=f"vertices[{i}].base.angles",
                    )
        self._check_edges(ids, polygon)

    def _check_polygon(self, coords: list):
        area = signed_area(coords)
        if not area > 0.0:
            raise DomainError(
                f"polygon vertices must be in counterclockwise order (signed area {area:g})",
                field="vertices",
            )
        for i, (v, rays) in enumerate(zip(self.vertices, _rays(coords))):
            if v.k != 2:
                raise DomainError(f"vertex {v.id!r} is a polygon corner, which has two rays, not {v.k}",
                                  field=f"vertices[{i}].base.angles")
            declared, opening = v.base.opening(), RayBase(rays).opening()
            if not abs(declared - opening) <= OPENING_TOL:
                raise DomainError(
                    f"vertex {v.id!r} has opening {declared!r}, but its coordinates give {opening!r}",
                    field=f"vertices[{i}].base",
                )

    def _check_edges(self, ids: list, polygon: bool):
        known = set(ids)
        for i, edge in enumerate(self.edges):
            for end in edge:
                if end not in known:
                    raise DomainError(f"edge names unknown vertex {end!r}", field=f"edges[{i}]")
        if not (polygon and self.edges):
            return
        cycle = list(zip(ids, ids[1:] + ids[:1]))
        for i, (edge, want) in enumerate(zip(self.edges, cycle)):
            if tuple(edge) != want:
                raise DomainError(
                    f"edge {list(edge)!r} is not {list(want)!r}, edge {i} of the vertex cycle",
                    field=f"edges[{i}]",
                )
        if len(self.edges) != len(cycle):
            raise DomainError(
                f"the vertex cycle has {len(cycle)} edges, not {len(self.edges)}", field="edges"
            )

    def vertex(self, vid) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise DomainError(f"unknown vertex {vid!r}")

    def component_counts(self) -> tuple:
        return tuple(v.k for v in self.vertices)


def _first_repeat(items: list) -> Optional[int]:
    """The index of the first item equal to an earlier one, else None; a
    None (a missing value) repeats freely."""
    seen = set()
    for i, x in enumerate(items):
        if x is not None and x in seen:
            return i
        seen.add(x)
    return None


# -- constructors ------------------------------------------------------------


def signed_area(coords) -> float:
    """Shoelace area of a closed vertex list: positive when counterclockwise."""
    xy = [tuple(map(float, c)) for c in coords]
    return 0.5 * sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(xy, xy[1:] + xy[:1]))


def _rays(coords: list) -> list:
    """(to_next, to_prev) per vertex of a closed vertex list: the angles of
    the directions from the vertex toward its two neighbours."""
    return [(math.atan2(q[1] - p[1], q[0] - p[0]), math.atan2(r[1] - p[1], r[0] - p[0]))
            for p, q, r in zip(coords, coords[1:] + coords[:1], coords[-1:] + coords[:-1])]


def polygon_domain(coords, ids=None) -> LayerDomain:
    """Planar polygon from an ordered (counterclockwise) vertex list.

    Every corner is taken as a cone point; the two boundary rays at a
    vertex point toward its neighbours, and the interior angle is the
    counterclockwise opening between them.  A vertex between collinear
    neighbours is no corner and is rejected; ``LayerDomain`` rejects a
    clockwise list, which would describe the exterior.
    """
    coords = [tuple(map(float, c)) for c in coords]
    n = len(coords)
    if n < 3:
        raise DomainError("a polygon needs at least three vertices")
    if ids is None:
        ids = [f"v{i}" for i in range(n)]
    verts = []
    for i, rays in enumerate(_rays(coords)):
        opening = RayBase(rays).opening()
        if opening < 1e-12 or abs(opening - math.pi) < 1e-12:
            raise DomainError(f"vertex {ids[i]!r} is degenerate (collinear neighbours)")
        verts.append(Vertex(ids[i], RayBase(rays, interior_angle=opening), coords=coords[i]))
    edges = tuple((ids[i], ids[(i + 1) % n]) for i in range(n))
    return LayerDomain(2, tuple(verts), edges)


def unit_square() -> LayerDomain:
    return polygon_domain([(0, 0), (1, 0), (1, 1), (0, 1)])


def regular_polygon(n: int, radius: float = 1.0) -> LayerDomain:
    pts = [
        (radius * math.cos(TWO_PI * i / n), radius * math.sin(TWO_PI * i / n))
        for i in range(n)
    ]
    return polygon_domain(pts)


def l_shape() -> LayerDomain:
    return polygon_domain([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def cone_3d(name: str = "cone", components: int = 1) -> LayerDomain:
    """A single three-dimensional cone point over a named smooth base."""
    return LayerDomain(3, (Vertex("p0", NamedBase(name, components)),))


# -- desingularization ---------------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    vertex_id: object
    components: int
    collar: tuple = (0.5, 1.0)  # normalized gluing collar inside [0, 1)


@dataclass(frozen=True)
class DesingularizedBoundary:
    """One cylinder per cone point glued to the smooth boundary part."""

    domain: LayerDomain
    cylinders: tuple

    @property
    def boundary_points(self) -> tuple:
        """The hyperface-at-infinity ends, one per base boundary component."""
        return tuple(
            (cyl.vertex_id, c) for cyl in self.cylinders for c in range(cyl.components)
        )

    @property
    def boundary_count(self) -> int:
        return len(self.boundary_points)


def desingularize(domain: LayerDomain) -> DesingularizedBoundary:
    """Replace each cone point by a cylinder over its base boundary."""
    cylinders = tuple(Cylinder(v.id, v.k) for v in domain.vertices)
    return DesingularizedBoundary(domain, cylinders)


# -- layer groupoid descriptor ---------------------------------------------------


@dataclass(frozen=True)
class ConePiece:
    """Symbolic dilation piece over one cylinder: the dilation action on
    the half-line times the pair groupoid of the base boundary
    components, restricted to the cylinder."""

    vertex_id: object
    components: int
    isotropy: str = "R+"


@dataclass(frozen=True)
class LayerGroupoidDescriptor:
    """Symbolic layer groupoid: interior pair piece plus cone pieces.

    The strong gluing condition holds by construction: the orbit of any
    unit is either the interior or one base boundary at a cone point.
    Each boundary set is invariant; the interior is the unique dense
    orbit.
    """

    domain: LayerDomain
    pieces: tuple  # ConePiece per vertex
    dense_orbit: str = "interior"
    strong_gluing: bool = True
    limit_points_per_cone: tuple = ("0",)

    @property
    def boundary_orbit_count(self) -> int:
        return len(self.pieces)

    @property
    def boundary_unit_count(self) -> int:
        return sum(p.components for p in self.pieces)

    def component_counts(self) -> tuple:
        return tuple(p.components for p in self.pieces)


def assemble_layer_groupoid(source) -> LayerGroupoidDescriptor:
    """Descriptor of the layer groupoid of a domain (or its
    desingularization)."""
    if isinstance(source, LayerDomain):
        source = desingularize(source)
    if not isinstance(source, DesingularizedBoundary):
        raise DomainError("expected a LayerDomain or DesingularizedBoundary")
    pieces = tuple(ConePiece(c.vertex_id, c.components) for c in source.cylinders)
    return LayerGroupoidDescriptor(source.domain, pieces)


def straight_cone_descriptor(components: int, name: str = "straight-cone") -> LayerGroupoidDescriptor:
    """Descriptor for an unbounded straight cone with compactified axis.

    The dilation piece extends over both ends of the axis, so there are
    two limit points per cone; their limit operators coincide for
    dilation-invariant kernels.
    """
    domain = LayerDomain(2, (Vertex(name, RayBase(tuple(0.0 for _ in range(components)))),))
    pieces = (ConePiece(name, components),)
    return LayerGroupoidDescriptor(domain, pieces, limit_points_per_cone=("0", "inf"))


# -- boundary C*-algebra structure report -----------------------------------------


@dataclass(frozen=True)
class StructureReport:
    algebra: str
    summands: tuple
    boundary_orbit_count: int
    boundary_unit_count: int
    b_groupoid_equal: bool
    isotropy: str = "R+"
    amenable: bool = True
    fredholm: bool = True
    dense_orbit: str = "interior"
    notes: tuple = ()


def boundary_algebra_report(descriptor: LayerGroupoidDescriptor) -> StructureReport:
    """Structural description of the boundary C*-algebra.

    For a planar domain each cone contributes matrices of size the
    number of base boundary components over functions on the dilation
    group; in higher dimension each cone contributes compacts tensored
    by those functions.  The descriptor coincides with the one of the
    groupoid of boundary-tangent vector fields exactly when every base
    boundary is connected.
    """
    n = descriptor.domain.dimension
    ks = descriptor.component_counts()
    if n == 2:
        summands = tuple(f"M_{k}(C0(R+))" for k in ks)
    else:
        summands = tuple("C0(R+) (x) K" for _ in ks)
    notes = (
        "full and reduced norms coincide: boundary isotropy R+ is amenable",
        "interior is the unique dense orbit; each cone boundary is invariant",
    )
    return StructureReport(
        algebra=" ⊕ ".join(summands),
        summands=summands,
        boundary_orbit_count=descriptor.boundary_orbit_count,
        boundary_unit_count=descriptor.boundary_unit_count,
        b_groupoid_equal=all(k == 1 for k in ks),
        notes=notes,
    )


# -- finite toy truncation ---------------------------------------------------------


@dataclass
class ToyLayerModel:
    """Finite surrogate of a layer groupoid, cyclic group replacing dilation."""

    groupoid: FiniteGroupoid
    structure: FredholmStructure
    glued: GluedGroupoid
    interior_units: tuple
    boundary_units: tuple
    cyclic_order: int


def _toy_dilation_piece(m: int) -> FiniteGroupoid:
    """Action groupoid of Z/m on {boundary} u Z/m: translation on the
    group part, trivial on the boundary point."""
    zm = GroupTable.cyclic(m)
    points = ("bdr",) + tuple(range(m))

    def act(x, g):
        if x == "bdr":
            return "bdr"
        return (x + g) % m

    return build_action(zm, points, act)


def finite_toy_model(
    descriptor: LayerGroupoidDescriptor, m: int, interior_points: int = 1
) -> ToyLayerModel:
    """Glue a finite stand-in for the layer groupoid.

    Each cone piece becomes (Z/m dilation toy) x (pair groupoid of the
    base components); the interior pair piece covers the extra sample
    points together with all cylinder collars.  The boundary reduction
    is then the disjoint union over cones of (components)^2 x Z/m,
    a fibered pull-back of a cyclic group bundle.
    """
    if m < 1:
        raise DomainError("cyclic order must be >= 1")
    if interior_points < 0:
        raise DomainError("interior sample size must be >= 0")

    piece_groupoids = []
    piece_embeddings = []
    collar_units = []
    boundary_units = []
    for piece in descriptor.pieces:
        v = piece.vertex_id
        comps = [f"c{c}" for c in range(piece.components)]
        toy = build_product(_toy_dilation_piece(m), build_pair(comps))
        unit_map = {}
        for (h_unit, comp) in toy.units:
            if h_unit == "bdr":
                unit_map[(h_unit, comp)] = f"b:{v}:{comp}"
            else:
                unit_map[(h_unit, comp)] = f"cyl:{v}:{comp}:{h_unit}"
        arrow_map = {a: (v, a) for a in toy.arrows}
        toy = relabel(toy, unit_map, arrow_map)
        piece_groupoids.append(toy)
        piece_embeddings.append({x: x for x in toy.units})
        for x in toy.units:
            if x.startswith("b:"):
                boundary_units.append(x)
            else:
                collar_units.append(x)

    interior = [f"o{i}" for i in range(interior_points)] + collar_units
    pair_piece = build_pair(interior)
    x_units = tuple(interior) + tuple(boundary_units)
    pieces = [GluingPiece(pair_piece, {x: x for x in interior})] + [
        GluingPiece(g, emb) for g, emb in zip(piece_groupoids, piece_embeddings)
    ]
    glued = glue(GluingAtlas(x_units, pieces))
    structure = make_structure(glued.groupoid, interior)
    return ToyLayerModel(
        groupoid=glued.groupoid,
        structure=structure,
        glued=glued,
        interior_units=tuple(interior),
        boundary_units=tuple(boundary_units),
        cyclic_order=m,
    )


# -- weighted-space bookkeeping ---------------------------------------------------


@dataclass(frozen=True)
class WeightDescriptor:
    """Sobolev weight data tying boundary spaces to the cylinder metric."""

    dimension: int
    boundary_weight: float  # (n - 1) / 2
    volume_weight: float  # n / 2
    metric: str = "r^{-2} g_euclid"
    order: Optional[float] = None
    convention: str = "symbol(lam) = integral k(t) t^{a - 1 - i lam} dt, a = boundary weight"


def weight_line(dimension: int, order: Optional[float] = None) -> WeightDescriptor:
    """Critical weight placement for boundary operators in dimension n.

    The invertibility scan runs on the single line fixed by the weight
    (n - 1)/2; uniformity in the order parameter is a property of the
    operators considered, not re-verified per order.
    """
    if dimension < 2:
        raise DomainError("dimension must be >= 2")
    return WeightDescriptor(
        dimension=dimension,
        boundary_weight=(dimension - 1) / 2.0,
        volume_weight=dimension / 2.0,
        order=order,
    )
