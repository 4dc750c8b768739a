"""Nystrom discretizations corroborating the symbol scans.

Two independent discrete oracles:

* the planar double-layer operator I/2 + K on a polygon boundary,
  assembled on a mesh graded (exponent 3) toward the vertices, with the
  singular values taken in the inner product weighted by the inverse
  distance to the vertex set (the discrete stand-in for the conical
  metric).  The polygon's symmetry group G about its vertex centroid is
  the cyclic group C_k of the rotations by 2 pi / k that map vertex i
  onto vertex i + n / k, or the dihedral group D_k when a reflection
  also maps vertex i onto vertex c - i.  G permutes the mesh nodes
  without fixing any, and the weighted matrix M commutes with it, so
  only the rows of one node per orbit (N / |G| of them) are assembled.
  With B_g the columns of the nodes g(t) in those rows, M splits into
  one block F_rho = sum_g rho(g) (x) B_g per irreducible representation
  rho (Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal. 29,
  1992), and sigma_min is the least of sqrt(lambda_min(F_rho^H F_rho)).
  For C_k the representations are the characters, complex but for
  j = 0 and k / 2; for D_k they are real, of dimension 1 or 2, so every
  block is real and has at most 2 N / |G| rows; the trivial group gives
  the whole matrix.  Each Gram eigenvalue is within sqrt(N eps)
  sigma_max of the singular value (about N eps (sigma_max /
  sigma_min)^2 / 2 relative).  Against a full SVD of the whole weighted
  matrix the result agrees at levels 1-6 to 7.3e-12 relative on the
  square, a rectangle, the regular 3- to 8-gons, the L-shape, an
  isosceles and a sharp isosceles triangle, a kite and a four-fold
  pinwheel (3e-15 on the square and the rectangle, 2e-14 on the
  L-shape).  Each node is placed from the nearer vertex of its edge, so
  mirror-image nodes have the same weights and vertex distances to the
  last bit.  A level holds at most about two arrays of the size of the
  representative rows: they are assembled in row blocks, each F_rho is
  freed before the eigensolver copies its Gram matrix, and the rows are
  freed before the last Gram matrix is formed (a complex block of C_k
  also needs a conjugate copy for its Gram product: 2.2 rows' sizes on
  a five-fold pinwheel).  Levels 1-8 in a fresh process (one BLAS
  thread) peak at 193 MB on a seeded triangle and at 332 MB on the
  L-shape (277 and 548 MB with whole-size assembly temporaries and the
  rows kept to the end);
* the half-line model operator c + Mellin convolution at a single cone,
  discretized on a log-uniform mesh whose window grows with the level,
  used for adversarial kernels whose symbol hits zero.  It keeps the
  full SVD: its sigma_min sinks far below sigma_max, where squaring
  would lose the digits that show the collapse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .conical import LayerDomain, signed_area
from .mellin import MellinKernel

GRADING_EXPONENT = 3
MIN_PANELS_PER_HALF_EDGE = 4
# a rotation or reflection maps the vertices onto themselves when it moves
# none of them farther than this fraction of the diameter
ROTATION_TOL = 1e-12
# entries per row block of the assembly's temporaries (128 kB each)
_ROW_BLOCK_ENTRIES = 2**14


class MeshError(ValueError):
    pass


@dataclass
class PolygonMesh:
    nodes: np.ndarray  # (n, 2)
    weights: np.ndarray  # arclength panel weights
    normals: np.ndarray  # inward normals at nodes
    edge_of: np.ndarray  # edge index per node
    vertex_distance: np.ndarray  # distance to the vertex set
    # The symmetry group G, acting freely on the node indices.  In the
    # orbit coordinate t = (i - orbit_start) mod N, the rotation by
    # 2 pi / k maps node t onto node t + N / k, and, when ``reflection``
    # holds, a reflection maps node t onto node 2 N / |G| - 1 - t.  The
    # nodes t < N / |G| are one per orbit.
    rotation_order: int = 1
    reflection: bool = False
    orbit_start: int = 0

    @property
    def symmetry_order(self) -> int:
        """|G|: k rotations, and as many reflections when there are any."""
        return self.rotation_order * (2 if self.reflection else 1)

    def orbit_order(self) -> np.ndarray:
        """Node indices in orbit coordinates: entry t is node orbit_start + t."""
        n = len(self.nodes)
        return (self.orbit_start + np.arange(n)) % n


def _polygon_coords(domain: LayerDomain):
    if domain.dimension != 2:
        raise MeshError("polygon meshes are planar only")
    coords = []
    for v in domain.vertices:
        if v.coords is None:
            raise MeshError(f"vertex {v.id!r} has no coordinates")
        coords.append(np.asarray(v.coords, dtype=float))
    if len(coords) < 3:
        raise MeshError("a polygon needs at least three vertices")
    return np.array(coords)


def polygon_mesh(domain: LayerDomain, panels_per_half_edge: int) -> PolygonMesh:
    """Composite midpoint mesh, graded toward both endpoints of each edge.

    Each edge carries 2 ``panels_per_half_edge`` nodes placed symmetrically
    about its midpoint, so the polygon's symmetry group permutes the nodes
    without fixing any of them.  Each node is placed from the nearer
    vertex of its edge, and its distance from that vertex is the exact
    offset, not a difference of coordinates.
    """
    if panels_per_half_edge < MIN_PANELS_PER_HALF_EDGE:
        raise MeshError(
            f"mesh too coarse: need at least {2 * MIN_PANELS_PER_HALF_EDGE} points per edge"
        )
    coords = _polygon_coords(domain)
    area = signed_area(coords)
    if not area > 0.0:
        raise MeshError(
            f"polygon vertices must be in counterclockwise order (signed area {area:g})"
        )
    nodes, weights, normals, edge_of, nearer, from_nearer = [], [], [], [], [], []
    n_edges = len(coords)
    grading = np.arange(panels_per_half_edge + 1) / panels_per_half_edge
    breaks = grading**GRADING_EXPONENT  # in [0, 1], clustered at 0
    for e in range(n_edges):
        p, q = coords[e], coords[(e + 1) % n_edges]
        length = float(np.linalg.norm(q - p))
        direction = (q - p) / length
        inward = np.array([-direction[1], direction[0]])  # interior on the left (ccw)
        cuts = breaks * (0.5 * length)  # the half edge's panel ends, from its vertex
        near = 0.5 * (cuts[:-1] + cuts[1:])
        widths = np.diff(cuts)
        # each half is placed from its own vertex, the second as the mirror
        # image of the first, so mirror-image nodes agree to the last bit
        nodes.append(np.concatenate([p + near[:, None] * direction, q - near[::-1, None] * direction]))
        weights.append(np.concatenate([widths, widths[::-1]]))
        normals.append(np.broadcast_to(inward, (2 * len(near), 2)))
        edge_of.append(np.full(2 * len(near), e))
        nearer.append(np.repeat([e, (e + 1) % n_edges], len(near)))
        from_nearer.append(np.concatenate([near, near[::-1]]))
    nodes = np.concatenate(nodes)
    dists = np.linalg.norm(nodes[:, None, :] - coords[None, :, :], axis=2)
    # a node's distance from the vertex it was placed from is exact
    dists[np.arange(len(nodes)), np.concatenate(nearer)] = np.concatenate(from_nearer)
    dists = dists.min(axis=1)
    k, c = _symmetry(coords)
    # a reflection mapping vertex i onto vertex c - i maps node j of edge e
    # onto node c (2 p) - 1 - (2 p e + j), p panels per half edge; the
    # orbit coordinate from node c p turns it into t -> -1 - t, which the
    # rotation by 2 pi / k moves to t -> 2 N / |G| - 1 - t
    return PolygonMesh(
        nodes=nodes,
        weights=np.concatenate(weights),
        normals=np.concatenate(normals),
        edge_of=np.concatenate(edge_of),
        vertex_distance=dists,
        rotation_order=k,
        reflection=c is not None,
        orbit_start=0 if c is None else c * panels_per_half_edge % len(nodes),
    )


def _symmetry(coords: np.ndarray) -> tuple:
    """(k, c) for the polygon's symmetry group about its vertex centroid.

    k is the largest divisor of n whose rotation by 2 pi / k maps each
    vertex i onto vertex i + n / k; c is the least c for which a
    reflection maps each vertex i onto vertex (c - i) mod n, or None.
    A map counts when it moves no vertex farther than ``ROTATION_TOL``
    of the diameter from its image.
    """
    n = len(coords)
    z = (coords - coords.mean(axis=0)) @ np.array([1.0, 1j])
    tol = ROTATION_TOL * np.max(np.abs(np.subtract.outer(z, z)))
    rotations = [k for k in range(n, 1, -1) if n % k == 0
                 and np.max(np.abs(z * np.exp(2j * math.pi / k) - np.roll(z, -(n // k)))) <= tol]
    k = rotations[0] if rotations else 1
    for c in range(n):
        image = z[(c - np.arange(n)) % n]
        # the reflection about the line at angle phi is z -> e^(2 i phi) conj(z),
        # so sum(image * z) has the phase 2 phi
        u = np.sum(image * z)
        if u != 0 and np.max(np.abs(image - u / abs(u) * np.conj(z))) <= tol:
            return k, c
    return k, None


def double_layer_matrix(mesh: PolygonMesh) -> np.ndarray:
    """Orbit-representative rows of the Nystrom double-layer matrix with
    inward normals.

    Rows and columns follow the orbit coordinate (``mesh.orbit_order()``):
    the rows are the N / |G| nodes t < N / |G|, one per orbit of the
    mesh's symmetry group, and the columns are all N nodes, so the shape
    is (N / |G|, N).  The group maps these rows onto every other row; for
    the trivial group they are the whole matrix.  Same-edge blocks vanish
    exactly on straight edges (collinear points) and are set to zero,
    whatever the order of the nodes.  The rows are filled in blocks of
    about ``_ROW_BLOCK_ENTRIES`` entries, so the only array of the
    output's size is the output.
    """
    order = mesh.orbit_order()
    x, normals, weights = mesh.nodes[order], mesh.normals[order], mesh.weights[order]
    kmat = np.empty((len(x) // mesh.symmetry_order, len(x)))
    step = max(1, _ROW_BLOCK_ENTRIES // len(x))
    for s in range(0, len(kmat), step):
        out = kmat[s : s + step]
        rows = x[s : s + len(out)]
        d = np.subtract.outer(rows[:, 0], x[:, 0])
        np.multiply(d, normals[:, 0], out=out)  # (x_i - x_j) . n_j, term by term
        r2 = np.square(d, out=d)
        d = np.subtract.outer(rows[:, 1], x[:, 1])
        out += d * normals[:, 1]
        r2 += np.square(d, out=d)
        np.fill_diagonal(r2[:, s:], 1.0)
        r2 *= 2.0 * math.pi
        out /= r2
        out *= weights
    edge_of = mesh.edge_of[order]
    by_edge = np.argsort(edge_of, kind="stable")
    ends = np.flatnonzero(np.diff(edge_of[by_edge])) + 1
    for block in np.split(by_edge, ends):
        kmat[np.ix_(block[block < len(kmat)], block)] = 0.0
    return kmat


def weighted_sigma_min(a: np.ndarray, mesh: PolygonMesh) -> float:
    """sigma_min in the inner product with density (panel weight) / r.

    ``a`` holds the orbit-representative rows of a matrix that commutes
    with the mesh's symmetry group G, laid out as ``double_layer_matrix``
    lays them out; for the trivial group it is the whole matrix.  With
    D = diag(sqrt(density)), the result is sigma_min of M = D a D^-1: the
    least over G's irreducible representations rho of
    sqrt(lambda_min(F_rho^H F_rho)), F_rho = sum_g rho(g) (x) B_g, where
    B_g holds the columns of the nodes g(t), t < N / |G|
    (``_irreducible_blocks``).  ``a`` is overwritten by M's rows.  No
    reference to ``a`` is kept past the last F_rho, so rows that the
    caller hands over (``nystrom_oracle`` keeps no name for them) are
    freed before its Gram matrix is formed.  Each Gram eigenvalue is
    backward stable to about N eps sigma_max^2, so the result is within
    sqrt(N eps) sigma_max of the singular value (relative error about
    N eps (sigma_max / sigma_min)^2 / 2); a rounding-negative lambda_min
    of a singular M reads as 0.
    """
    b = len(a)
    d = np.sqrt(mesh.weights / mesh.vertex_distance)[mesh.orbit_order()]
    a *= d[:b, None]
    a /= d
    builders = _irreducible_blocks(a.reshape(b, mesh.rotation_order, 2 if mesh.reflection else 1, b))
    del a
    lam = math.inf
    while builders:
        # the last builder to go holds the last views of the rows
        f = builders.pop(0)()
        gram = f.conj().T @ f
        del f  # F is not live while the eigensolver copies F^H F
        lam = min(lam, float(np.linalg.eigvalsh(gram)[0]))
        del gram  # nor is F^H F while the next F is formed
    return math.sqrt(max(lam, 0.0))


def _irreducible_blocks(blocks: np.ndarray) -> list:
    """Builders of F_rho, one per irreducible representation rho up to
    conjugation, the real (b x b) blocks first; only the builders hold
    ``blocks``.

    ``blocks[:, r, 0]`` is B for R^r, R the rotation by 2 pi / k, and,
    with a reflection S (t -> 2 N / |G| - 1 - t), ``blocks[:, r, 1, ::-1]``
    is B for R^r S.  Without a reflection (the cyclic group C_k) the
    representations are the characters R^r -> omega^(jr), j <= k / 2 (j
    and k - j give conjugate blocks); j = 0 and k / 2 are real.  With one
    (the dihedral group D_k, whose representations are real), each real
    character extends to two, S -> +-1, and each other j gives the 2-d
    representation R -> rotation by 2 pi j / k, S -> diag(1, -1).  For
    the trivial group F is B itself, a view of the rows.
    """
    k = blocks.shape[1]
    rotations = blocks[:, :, 0]
    mirrored = blocks[:, :, 1, ::-1] if blocks.shape[2] == 2 else None
    real, larger = [], []
    for j in range(k // 2 + 1):
        omega = np.exp(2j * math.pi * (j * np.arange(k) % k) / k)  # omega^(jr), r < k
        if 2 * j % k == 0:
            # the characters 0 and k / 2 are +-1, so their blocks are real
            if mirrored is None:
                real.append(functools.partial(_combine, rotations, omega.real))
            else:
                real.append(functools.partial(_signed_sum, rotations, mirrored, omega.real, np.add))
                real.append(functools.partial(_signed_sum, rotations, mirrored, omega.real, np.subtract))
        elif mirrored is None:
            larger.append(functools.partial(_combine, rotations, omega))
        else:
            larger.append(functools.partial(_two_dimensional, rotations, mirrored, omega))
    return real + larger


def _combine(blocks: np.ndarray, chi: np.ndarray, out=None) -> np.ndarray:
    """sum_r chi_r B_r over the blocks B_r = blocks[:, r]; B_0 itself when k = 1."""
    if blocks.shape[1] == 1 and out is None:
        return blocks[:, 0]
    return np.einsum("arc,r->ac", blocks, chi, out=out)


def _signed_sum(rotations, mirrored, chi, sign) -> np.ndarray:
    """Z +- W for Z, W = sum_r chi_r B_r over the rotations and the reflections."""
    return sign(_combine(rotations, chi), _combine(mirrored, chi))


def _two_dimensional(rotations, mirrored, omega) -> np.ndarray:
    """[[C + C', S' - S], [S + S', C - C']], C, S the sums with cos and sin
    over the rotations, C', S' over the reflections, filled in place with
    one (b x b) scratch array."""
    b = len(rotations)
    f = np.empty((2 * b, 2 * b))
    scratch = np.empty((b, b))
    top_left, top_right, bottom_left, bottom_right = f[:b, :b], f[:b, b:], f[b:, :b], f[b:, b:]
    _combine(rotations, omega.real, out=top_left)
    _combine(mirrored, omega.real, out=scratch)
    np.subtract(top_left, scratch, out=bottom_right)
    np.add(top_left, scratch, out=top_left)
    _combine(rotations, omega.imag, out=bottom_left)
    _combine(mirrored, omega.imag, out=scratch)
    np.subtract(scratch, bottom_left, out=top_right)
    np.add(bottom_left, scratch, out=bottom_left)
    return f


def gauss_row_sum_defect(mesh: PolygonMesh) -> float:
    """Deviation of sum_j K[i, j] from 1/2 at the node nearest each edge
    midpoint (the closed-curve Gauss identity; a mesh sanity oracle).

    Only the orbit-representative rows are read: the symmetry group gives
    every other edge the same row sums.
    """
    sums = double_layer_matrix(mesh).sum(axis=1)
    reps = mesh.orbit_order()[: len(sums)]
    edge_of, vertex_distance = mesh.edge_of[reps], mesh.vertex_distance[reps]
    worst = 0.0
    for e in np.unique(edge_of):
        sel = np.flatnonzero(edge_of == e)
        mid = sel[np.argmax(vertex_distance[sel])]
        worst = max(worst, abs(float(sums[mid]) - 0.5))
    return worst


@dataclass
class TraceRow:
    level: int
    dof: int
    sigma_min: float


@dataclass
class SigmaTrace:
    rows: list
    # of the polygon's mesh; 1 for the model operator
    rotation_order: int = 1
    symmetry_order: int = 1

    def sigmas(self) -> list:
        return [r.sigma_min for r in self.rows]

    def stabilized(self, rel: float = 0.10) -> bool:
        """Final two levels agree within the given relative tolerance."""
        if len(self.rows) < 2:
            return False
        a, b = self.rows[-2].sigma_min, self.rows[-1].sigma_min
        return abs(a - b) <= rel * max(abs(a), abs(b))

    def decay_factor(self) -> float:
        """First-to-last ratio; large when sigma_min collapses with level."""
        first, last = self.rows[0].sigma_min, self.rows[-1].sigma_min
        return math.inf if last == 0.0 else first / last

    def as_csv(self) -> str:
        lines = ["level,dof,sigma_min"]
        lines += [f"{r.level},{r.dof},{r.sigma_min!r}" for r in self.rows]
        return "\n".join(lines) + "\n"


MAX_NYSTROM_LEVELS = 8


def _half_plus_k(mesh: PolygonMesh) -> np.ndarray:
    """Orbit-representative rows of I/2 + K."""
    a = double_layer_matrix(mesh)
    i = np.arange(len(a))
    a[i, i] += 0.5
    return a


def nystrom_oracle(domain: LayerDomain, levels: int, base_panels: int = 4) -> SigmaTrace:
    """sigma_min trace of I/2 + K on nested graded polygon meshes.

    Stabilization of the two finest levels corroborates a positive
    symbol-scan verdict at desk scale (it is evidence, not proof).
    """
    if levels < 1 or levels > MAX_NYSTROM_LEVELS:
        raise MeshError(f"levels must be between 1 and {MAX_NYSTROM_LEVELS}")
    rows = []
    for level in range(1, levels + 1):
        mesh = polygon_mesh(domain, base_panels * 2 ** (level - 1))
        # the rows are handed over: no name here holds them, so they are
        # freed inside weighted_sigma_min before its last Gram matrix
        rows.append(TraceRow(level, len(mesh.nodes), weighted_sigma_min(_half_plus_k(mesh), mesh)))
    return SigmaTrace(rows, mesh.rotation_order, mesh.symmetry_order)


# ---------------------------------------------------------------------------
# half-line model operator (single cone, log-uniform mesh)


def model_operator_trace(
    kernel: MellinKernel,
    c: complex,
    weight: float,
    levels: int,
    window0: float = 5.0,
    growth: float = 3.0,
    step: float = 0.4,
) -> SigmaTrace:
    """sigma_min trace of the discretized model operator c + convolution.

    The Mellin convolution at one cone becomes, in the logarithmic
    coordinate, convolution by the conjugated kernel; the mesh is
    uniform there and the truncation window grows by ``growth`` per
    level.  For kernels whose symbol stays away from -c the trace
    stabilizes; a symbol zero makes it sink toward zero as the window
    grows.
    """
    k = kernel.size
    rows = []
    for level in range(1, levels + 1):
        window = window0 * growth ** (level - 1)
        n = max(8, int(round(window / step)))
        diffs = (np.arange(-(n - 1), n)) * step
        # the conjugated kernel g(u) = k(e^u) e^(a u), shape (2n-1, k, k)
        gvals = kernel.values(np.exp(diffs)) * np.exp(weight * diffs)[:, None, None]
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) + (n - 1)
        big = np.zeros((n * k, n * k), dtype=np.complex128)
        for p in range(k):
            for q in range(k):
                big[p::k, q::k] = gvals[idx, p, q] * step
        big += c * np.eye(n * k)
        rows.append(TraceRow(level, n * k, float(np.linalg.svd(big, compute_uv=False)[-1])))
    return SigmaTrace(rows)
