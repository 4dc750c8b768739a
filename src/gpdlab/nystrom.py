"""Nystrom discretizations corroborating the symbol scans.

Two independent discrete oracles:

* the planar double-layer operator I/2 + K on a polygon boundary,
  assembled on a mesh graded (exponent 3) toward the vertices, with the
  singular values taken in the inner product weighted by the inverse
  distance to the vertex set (the discrete stand-in for the conical
  metric).  When rotating the polygon by 2 pi / k about its vertex
  centroid maps vertex i onto vertex i + n / k, the mesh's first N / k
  nodes form a fundamental block, the weighted matrix M is block
  circulant, and only its block row B_0 .. B_{k-1} is assembled.  The
  discrete Fourier transform over the rotation group splits M into the
  blocks F_j = sum_r omega^(jr) B_r, and sigma_min is the least of
  sqrt(lambda_min(F_j^H F_j)) over the characters j <= k / 2 (j and
  k - j give conjugate blocks); k = 1 is the whole matrix.  Each Gram
  eigenvalue is within sqrt(N eps) sigma_max of the singular value
  (about N eps (sigma_max / sigma_min)^2 / 2 relative).  Against a full
  SVD of the whole weighted matrix the result agrees at levels 1-6 to
  7e-15 relative on the square and a rectangle, 9e-14 for k = 1, and
  1e-11 on the regular 3- to 8-gons, whose vertices are rotated images
  of each other only to rounding;
* the half-line model operator c + Mellin convolution at a single cone,
  discretized on a log-uniform mesh whose window grows with the level,
  used for adversarial kernels whose symbol hits zero.  It keeps the
  full SVD: its sigma_min sinks far below sigma_max, where squaring
  would lose the digits that show the collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conical import LayerDomain
from .mellin import MellinKernel

GRADING_EXPONENT = 3
MIN_PANELS_PER_HALF_EDGE = 4
# a rotation maps the vertices onto themselves when it moves none of them
# farther than this fraction of the diameter
ROTATION_TOL = 1e-12


class MeshError(ValueError):
    pass


@dataclass
class PolygonMesh:
    nodes: np.ndarray  # (n, 2)
    weights: np.ndarray  # arclength panel weights
    normals: np.ndarray  # inward normals at nodes
    edge_of: np.ndarray  # edge index per node
    vertex_distance: np.ndarray  # distance to the vertex set
    # k: the first N / k nodes, rotated r times by 2 pi / k, are nodes
    # r N / k .. (r + 1) N / k - 1
    rotation_order: int = 1


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
    """Composite midpoint mesh, graded toward both endpoints of each edge."""
    if panels_per_half_edge < MIN_PANELS_PER_HALF_EDGE:
        raise MeshError(
            f"mesh too coarse: need at least {2 * MIN_PANELS_PER_HALF_EDGE} points per edge"
        )
    coords = _polygon_coords(domain)
    nodes, weights, normals, edge_of = [], [], [], []
    n_edges = len(coords)
    grading = np.arange(panels_per_half_edge + 1) / panels_per_half_edge
    breaks = grading**GRADING_EXPONENT  # in [0, 1], clustered at 0
    for e in range(n_edges):
        p, q = coords[e], coords[(e + 1) % n_edges]
        length = float(np.linalg.norm(q - p))
        direction = (q - p) / length
        inward = np.array([-direction[1], direction[0]])  # interior on the left (ccw)
        half = 0.5 * length
        cuts = np.concatenate([breaks * half, length - breaks[::-1][1:] * half])
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        nodes.append(p + mids[:, None] * direction)
        weights.append(np.diff(cuts))
        normals.append(np.broadcast_to(inward, (len(mids), 2)))
        edge_of.append(np.full(len(mids), e))
    nodes = np.concatenate(nodes)
    dists = np.min(
        np.linalg.norm(nodes[:, None, :] - coords[None, :, :], axis=2), axis=1
    )
    return PolygonMesh(
        nodes=nodes,
        weights=np.concatenate(weights),
        normals=np.concatenate(normals),
        edge_of=np.concatenate(edge_of),
        vertex_distance=dists,
        rotation_order=_rotation_order(coords),
    )


def _rotation_order(coords: np.ndarray) -> int:
    """Largest k dividing n whose rotation by 2 pi / k about the vertex
    centroid maps each vertex i onto vertex i + n / k."""
    n = len(coords)
    centred = coords - coords.mean(axis=0)
    diameter = np.max(np.linalg.norm(centred[:, None, :] - centred[None, :, :], axis=2))
    for k in range(n, 1, -1):
        if n % k:
            continue
        c, s = math.cos(2.0 * math.pi / k), math.sin(2.0 * math.pi / k)
        rotated = centred @ np.array([[c, s], [-s, c]])
        moved = np.linalg.norm(rotated - np.roll(centred, -(n // k), axis=0), axis=1)
        if np.max(moved) <= ROTATION_TOL * diameter:
            return k
    return 1


def double_layer_matrix(mesh: PolygonMesh) -> np.ndarray:
    """Block row of the Nystrom double-layer matrix with inward normals.

    The rows are the first N / k nodes (k = ``mesh.rotation_order``) and
    the columns all N, so the shape is (N / k, N); the rotation maps
    this row onto every other block row, and for k = 1 it is the whole
    matrix.  Same-edge blocks vanish exactly on straight edges
    (collinear points) and are set to zero, whatever the order of the
    nodes.
    """
    x, normals = mesh.nodes, mesh.normals
    rows = x[: len(x) // mesh.rotation_order]
    d = np.subtract.outer(rows[:, 0], x[:, 0])
    kmat = d * normals[:, 0]  # (x_i - x_j) . n_j, term by term
    r2 = np.square(d, out=d)
    # the second coordinate's difference is formed twice, so that no
    # fourth array of this size is live at once
    d = np.subtract.outer(rows[:, 1], x[:, 1])
    d *= normals[:, 1]
    kmat += d
    np.subtract.outer(rows[:, 1], x[:, 1], out=d)
    d *= d
    r2 += d
    np.fill_diagonal(r2, 1.0)
    r2 *= 2.0 * math.pi
    kmat /= r2
    kmat *= mesh.weights
    order = np.argsort(mesh.edge_of, kind="stable")
    ends = np.flatnonzero(np.diff(mesh.edge_of[order])) + 1
    for block in np.split(order, ends):
        kmat[np.ix_(block[block < len(rows)], block)] = 0.0
    return kmat


def weighted_sigma_min(a: np.ndarray, mesh: PolygonMesh) -> float:
    """sigma_min in the inner product with density (panel weight) / r.

    ``a`` is the block row (B_0 .. B_{k-1}) of a matrix that is block
    circulant under the mesh's rotation group, k = ``mesh.rotation_order``;
    for k = 1 it is the whole matrix.  With D = diag(sqrt(density)), the
    result is sigma_min of M = D a D^-1, the least over the characters
    j <= k / 2 of sqrt(lambda_min(F_j^H F_j)), F_j = sum_r omega^(jr) B_r.
    ``a`` is overwritten by M's block row.  Each Gram eigenvalue is
    backward stable to about N eps sigma_max^2, so the result is within
    sqrt(N eps) sigma_max of the singular value (relative error about
    N eps (sigma_max / sigma_min)^2 / 2); a rounding-negative
    lambda_min of a singular M reads as 0.
    """
    b, k = len(a), mesh.rotation_order
    d = np.sqrt(mesh.weights / mesh.vertex_distance)
    a *= d[:b, None]
    a /= d
    blocks = a.reshape(b, k, b)
    lam = math.inf
    for j in range(k // 2 + 1):
        omega = np.exp(2j * math.pi * (j * np.arange(k) % k) / k)  # omega^(jr), r < k
        # the characters 0 and k / 2 are +-1, so F_0 and F_{k/2} are real
        gram = _character_gram(blocks, omega.real if 2 * j % k == 0 else omega)
        lam = min(lam, float(np.linalg.eigvalsh(gram)[0]))
    return math.sqrt(max(lam, 0.0))


def _character_gram(blocks: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """F^H F for F = sum_r chi_r B_r; F is freed before the eigensolver copies F^H F."""
    f = np.einsum("arc,r->ac", blocks, chi)
    return f.conj().T @ f


def gauss_row_sum_defect(mesh: PolygonMesh) -> float:
    """Deviation of sum_j K[i, j] from 1/2 at the node nearest each edge
    midpoint (the closed-curve Gauss identity; a mesh sanity oracle).

    Only the block row's edges are read: the rotation gives every other
    edge the same row sums.
    """
    sums = double_layer_matrix(mesh).sum(axis=1)
    worst = 0.0
    edge_of = mesh.edge_of[: len(sums)]
    for e in np.unique(edge_of):
        sel = np.flatnonzero(edge_of == e)
        mid = sel[np.argmax(mesh.vertex_distance[sel])]
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
    rotation_order: int = 1  # of the polygon's mesh; 1 for the model operator

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
        a = double_layer_matrix(mesh)
        i = np.arange(len(a))
        a[i, i] += 0.5
        rows.append(TraceRow(level, len(mesh.nodes), weighted_sigma_min(a, mesh)))
    return SigmaTrace(rows, mesh.rotation_order)


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
