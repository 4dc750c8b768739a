"""The convolution *-algebra of a finite groupoid.

Complex-valued functions on arrows with the convolution product for the
counting-measure Haar system.  Regular representations act on the
d-fibers; the reduced norm is the sup of their operator norms over one
representative per orbit.  For finite groupoids the full norm equals
the reduced norm (the boundary isotropy groups arising here are all
amenable), which every report states rather than silently assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .groupoid import (
    FiniteGroupoid,
    GroupoidError,
    OrbitPartition,
    as_unit_subset,
    is_invariant,
    orbits_and_isotropy,
    reduction,
    unit_mask,
)

AMENABILITY_NOTE = "full C*-norm taken equal to the reduced norm (finite groupoids are amenable)"

DEFAULT_INVERTIBILITY_RTOL = 1e-8


class AlgebraError(ValueError):
    pass


class AlgebraElement:
    """A finitely supported complex function on the arrows of a groupoid."""

    __slots__ = ("groupoid", "vec")

    def __init__(self, groupoid: FiniteGroupoid, vec):
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (groupoid.n_arrows,):
            raise AlgebraError(
                f"coefficient vector has shape {vec.shape}, expected ({groupoid.n_arrows},)"
            )
        self.groupoid = groupoid
        self.vec = vec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, g: FiniteGroupoid) -> "AlgebraElement":
        return cls(g, np.zeros(g.n_arrows))

    @classmethod
    def delta(cls, g: FiniteGroupoid, arrow) -> "AlgebraElement":
        vec = np.zeros(g.n_arrows, dtype=np.complex128)
        vec[g.arrow_index()[arrow]] = 1.0
        return cls(g, vec)

    @classmethod
    def unit(cls, g: FiniteGroupoid) -> "AlgebraElement":
        """The multiplicative unit: sum of all unit arrows."""
        vec = np.zeros(g.n_arrows, dtype=np.complex128)
        vec[g.unit_i] = 1.0
        return cls(g, vec)

    @classmethod
    def from_dict(cls, g: FiniteGroupoid, coeffs: dict) -> "AlgebraElement":
        vec = np.zeros(g.n_arrows, dtype=np.complex128)
        aidx = g.arrow_index()
        for arrow, c in coeffs.items():
            if arrow not in aidx:
                raise AlgebraError(f"unknown arrow id {arrow!r}")
            vec[aidx[arrow]] = c
        return cls(g, vec)

    # -- vector-space structure --------------------------------------------------

    def _require_same(self, other: "AlgebraElement"):
        if self.groupoid is not other.groupoid:
            raise AlgebraError("elements belong to different groupoids")

    def __add__(self, other):
        self._require_same(other)
        return AlgebraElement(self.groupoid, self.vec + other.vec)

    def __sub__(self, other):
        self._require_same(other)
        return AlgebraElement(self.groupoid, self.vec - other.vec)

    def __rmul__(self, scalar):
        return AlgebraElement(self.groupoid, scalar * self.vec)

    def __neg__(self):
        return AlgebraElement(self.groupoid, -self.vec)

    def coeff(self, arrow):
        return complex(self.vec[self.groupoid.arrow_index()[arrow]])

    def as_dict(self, tol: float = 0.0) -> dict:
        return {
            a: complex(c)
            for a, c in zip(self.groupoid.arrows, self.vec)
            if abs(c) > tol
        }

    def support(self):
        return [a for a, c in zip(self.groupoid.arrows, self.vec) if c != 0]

    def convolve(self, other: "AlgebraElement") -> "AlgebraElement":
        return convolve(self, other)

    def star(self) -> "AlgebraElement":
        return star(self)

    def __repr__(self):
        return f"AlgebraElement(on {self.groupoid!r}, support={len(self.support())})"


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a * b)(g) = sum over factorizations g = g'h of a(g') b(h)."""
    a._require_same(b)
    return AlgebraElement(a.groupoid, _convolve_rows(a.groupoid, a.vec[None], b.vec[None])[0])


def _convolve_rows(g: FiniteGroupoid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row t is the convolution of rows t of a and b (T x n coefficient arrays)."""
    t, n = a.shape
    out = np.zeros(t * n, dtype=np.complex128)
    np.add.at(out, (np.arange(t)[:, None] * n + g.pp).ravel(), (a[:, g.p1] * b[:, g.p2]).ravel())
    return out.reshape(t, n)


def star(a: AlgebraElement) -> AlgebraElement:
    """The involution a*(g) = conj(a(g^{-1}))."""
    g = a.groupoid
    return AlgebraElement(g, np.conj(a.vec[g.inv_i]))


def l1_norm(a: AlgebraElement) -> float:
    """Haar-fiber l1 norm: max of the d-fiber and r-fiber absolute sums."""
    g = a.groupoid
    if g.n_arrows == 0:
        return 0.0
    dom_i, rng_i = g.dom_i, g.rng_i
    mags = np.abs(a.vec)
    d_sums = np.zeros(g.n_units)
    r_sums = np.zeros(g.n_units)
    np.add.at(d_sums, dom_i, mags)
    np.add.at(r_sums, rng_i, mags)
    return float(max(d_sums.max(initial=0.0), r_sums.max(initial=0.0)))


@dataclass
class RegularRepMatrix:
    """The regular representation of an element at a unit.

    The matrix acts on l2 of the d-fiber at the unit; entry (g, h) is
    the coefficient at g h^{-1}.
    """

    unit: object
    fiber: tuple  # arrow ids indexing rows/columns
    matrix: np.ndarray


def regular_rep(a: AlgebraElement, x) -> RegularRepMatrix:
    g = a.groupoid
    uidx = g.unit_index()
    if x not in uidx:
        raise GroupoidError(f"unknown unit {x!r}")
    fib = g._fibers_by_dom()[uidx[x]]
    return RegularRepMatrix(x, tuple(g.arrows[i] for i in fib), a.vec[_fiber_index(g, fib)])


def _fiber_index(g: FiniteGroupoid, fib: np.ndarray) -> np.ndarray:
    """Entry (i, j) is the arrow index of fib[i] fib[j]^{-1}."""
    inv_i = g.inv_i
    prod = g._mul_idx(fib[:, None], inv_i[fib][None, :])
    if (prod < 0).any():
        i, j = np.argwhere(prod < 0)[0]
        raise GroupoidError(
            f"arrows {g.arrows[fib[i]]!r} and {g.arrows[inv_i[fib[j]]]!r} are not composable"
        )
    return prod


def operator_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def reduced_norm(a: AlgebraElement) -> float:
    """Sup of regular-representation operator norms, one unit per orbit."""
    return block_decompose(a.groupoid).norm(a)


# ---------------------------------------------------------------------------
# boundary restriction and the exact sequence at finite scale


@dataclass
class ExactnessReport:
    kernel_dim: int
    ideal_arrow_count: int
    restricted_dim: int
    total_dim: int
    surjective: bool
    multiplicative_max_err: float
    amenability_note: str = AMENABILITY_NOTE

    @property
    def ok(self) -> bool:
        return (
            self.kernel_dim == self.ideal_arrow_count
            and self.kernel_dim + self.restricted_dim == self.total_dim
            and self.surjective
            and self.multiplicative_max_err < 1e-10
        )


def restrict_boundary(a: AlgebraElement, f, n_samples: int = 20, seed: int = 0):
    """Restriction onto the algebra of the reduction to an invariant subset.

    Returns the restricted element together with an ExactnessReport
    verifying, at finite scale, that the kernel is spanned by the arrows
    over the complement, that the map is surjective, and that it is
    multiplicative (on random samples).
    """
    g = a.groupoid
    fset = as_unit_subset(g, f)
    if not is_invariant(g, fset):
        raise AlgebraError("restriction subset is not invariant")
    gf = reduction(g, fset)
    inside = unit_mask(g, fset)
    kept = np.flatnonzero(inside[g.dom_i] & inside[g.rng_i])  # the arrows of gf, in order
    restricted = AlgebraElement(gf, a.vec[kept])
    gu_arrow_count = int((~inside[g.dom_i] & ~inside[g.rng_i]).sum())
    kernel_dim = g.n_arrows - gf.n_arrows

    rng = np.random.default_rng(seed)
    max_err = 0.0
    for _ in range(n_samples):
        b1 = random_element(g, rng)
        b2 = random_element(g, rng)
        left = convolve(b1, b2).vec[kept]
        right = convolve(AlgebraElement(gf, b1.vec[kept]), AlgebraElement(gf, b2.vec[kept]))
        err = float(np.max(np.abs(left - right.vec))) if gf.n_arrows else 0.0
        max_err = max(max_err, err)

    return restricted, ExactnessReport(
        kernel_dim=kernel_dim,
        ideal_arrow_count=gu_arrow_count,
        restricted_dim=gf.n_arrows,
        total_dim=g.n_arrows,
        surjective=True,  # every reduction arrow is an arrow of g
        multiplicative_max_err=max_err,
    )


def random_element(
    g: FiniteGroupoid, rng: np.random.Generator, hermitian: bool = False
) -> AlgebraElement:
    """Independent complex Gaussian coefficients; optional symmetrization."""
    vec = rng.standard_normal(g.n_arrows) + 1j * rng.standard_normal(g.n_arrows)
    a = AlgebraElement(g, vec)
    if hermitian:
        a = 0.5 * (a + star(a))
    return a


# ---------------------------------------------------------------------------
# orbit block decomposition and invertibility


@dataclass(eq=False)
class OrbitBlock:
    """One matrix block of the faithful orbit decomposition.

    ``fiber`` is the d-fiber at the orbit representative in arrow order
    and ``index[i, j]`` the arrow index of fiber[i] fiber[j]^{-1}, so the
    block of an element a is the gather ``a.vec[index]``: its regular
    representation at the representative, entry for entry.
    """

    representative: object
    fiber: tuple  # arrow ids
    index: np.ndarray


@dataclass(eq=False)
class OrbitBlockDecomposition:
    groupoid: FiniteGroupoid
    orbits: OrbitPartition
    blocks: tuple

    def matrices(self, a: AlgebraElement) -> list:
        """The block matrices of an element (its regular representations)."""
        if a.groupoid is not self.groupoid:
            raise AlgebraError("element belongs to a different groupoid")
        return [a.vec[blk.index] for blk in self.blocks]

    def norm(self, a: AlgebraElement) -> float:
        return max((operator_norm(m) for m in self.matrices(a)), default=0.0)


def block_decompose(g: FiniteGroupoid) -> OrbitBlockDecomposition:
    """Faithful blockwise representation, one block per orbit; cached on g.

    The d-fiber at a representative must be {t_y gamma}: one arrow per
    unit y of the orbit (through the transversal t_y) and loop gamma of
    the isotropy, so each block is, up to the order of its basis, an
    |orbit| x |orbit| matrix over the isotropy group algebra.  Groupoids
    where it is not are rejected.
    """
    if "blocks" not in g._cache:
        orbits = orbits_and_isotropy(g, check=False)
        dfibers, start = g._fibers_by_dom(), orbits.loop_start
        blocks = []
        for units, rep, lo, hi in zip(orbits.members, orbits.representatives, start[:-1], start[1:]):
            transversal = orbits.transversal[units]
            if (transversal < 0).any():
                raise AlgebraError(f"orbit of {rep!r} is not spanned by arrows from it")
            fib = dfibers[units[0]]  # the representative is the orbit's first unit
            spanned = g._mul_idx(transversal[:, None], orbits.loops[None, lo:hi])
            if not np.array_equal(np.sort(spanned, None), fib):
                raise AlgebraError("transversal indexing failed; groupoid is invalid")
            index = _fiber_index(g, fib)
            index.flags.writeable = False  # cached: every caller shares it
            blocks.append(OrbitBlock(rep, tuple(g.arrows[i] for i in fib), index))
        g._cache["blocks"] = OrbitBlockDecomposition(g, orbits, tuple(blocks))
    return g._cache["blocks"]


def _invertible_stack(*stacks: np.ndarray) -> np.ndarray:
    """Per row t, whether the block-diagonal matrix of the square matrices
    stacks[i][t, ...] is invertible: its least singular value exceeds
    DEFAULT_INVERTIBILITY_RTOL times its largest (a zero matrix is not)."""
    svals = np.concatenate(
        [np.linalg.svd(m, compute_uv=False).reshape(len(m), -1) for m in stacks], axis=1
    )
    return svals.min(axis=1) > DEFAULT_INVERTIBILITY_RTOL * svals.max(axis=1)


def matrix_invertible(m: np.ndarray) -> bool:
    return m.size == 0 or bool(_invertible_stack(m[None])[0])


def left_multiplication_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of b -> a * b on the arrow coefficient space."""
    g = a.groupoid
    p1, p2, pp = g.p1, g.p2, g.pp
    mat = np.zeros((g.n_arrows, g.n_arrows), dtype=np.complex128)
    np.add.at(mat, (pp, p2), a.vec[p1])
    return mat


@dataclass(eq=False)
class _DFiberBlocks:
    """Left multiplication on C[G] as one k x k block per d-fiber of size k.

    The blocks lie back to back in a flat array, grouped by fiber size;
    block entry i holds the coefficient of arrow ``source[i]`` (n_arrows,
    a zero, where no compose triple lands), and ``groups`` holds, per
    size, the fibers' arrows as a (fiber count) x k array and the group's
    first flat position.
    """

    source: np.ndarray
    groups: tuple


def _dfiber_blocks(g: FiniteGroupoid) -> _DFiberBlocks:
    """The d-fiber blocks of left multiplication; cached on g.

    Since d(gh) = d(h), left multiplication maps each C[G_x] into itself,
    and the compose triple (g, h, gh) is entry (gh, h) of the block at
    d(h).  A table where some d(gh) != d(h), or where two triples share
    (gh, h), has no such blocks and raises.
    """
    if "dfiber_blocks" not in g._cache:
        dom_i, p1, p2, pp, n = g.dom_i, g.p1, g.p2, g.pp, g.n_arrows
        k = np.bincount(dom_i, minlength=g.n_units)[dom_i]  # each arrow's fiber size
        key = k * g.n_units + dom_i
        perm = np.argsort(key, kind="stable")  # fiber by fiber, the fibers by size
        skey, sk = key[perm], k[perm]
        first = np.searchsorted(skey, skey)  # where each arrow's fiber starts in perm
        entries_before = np.cumsum(sk) - sk  # a fiber of size k holds k * k block entries
        pos, off = np.empty(n, np.int64), np.empty(n, np.int64)
        pos[perm] = np.arange(n) - first
        off[perm] = entries_before[first]
        slot = off[p2] + pos[pp] * k[p2] + pos[p2]
        source, entries = np.full(int(sk.sum()), n), np.arange(len(p1))
        bad, fault = np.flatnonzero(dom_i[pp] != dom_i[p2]), "leaves the d-fiber of its right factor"
        if not len(bad):
            source[slot] = entries  # of the entries that share a slot, one is kept
            bad = np.flatnonzero(source[slot] != entries)
            fault = "shares its product and right factor with another entry"
        if len(bad):
            j = bad[0]
            raise AlgebraError(
                f"compose entry ({g.arrows[p1[j]]!r}, {g.arrows[p2[j]]!r}) -> {g.arrows[pp[j]]!r} {fault}"
            )
        source[slot] = p1
        sizes, starts = np.unique(sk, return_index=True)
        groups = tuple(
            (perm[lo:hi].reshape(-1, size), int(entries_before[lo]))
            for size, lo, hi in zip(sizes.tolist(), starts.tolist(), [*starts[1:].tolist(), n])
        )
        g._cache["dfiber_blocks"] = _DFiberBlocks(source, groups)
    return g._cache["dfiber_blocks"]


def _solve_inverse_rows(g: FiniteGroupoid, a: np.ndarray):
    """Route A for each row of a (T x n coefficient vectors): (ok, sol).

    ok[t] says whether row t is invertible, and then sol[t] is its
    two-sided inverse.  The left-multiplication matrix is block diagonal
    up to one permutation of rows and columns (see ``_dfiber_blocks``),
    so its singular values are those of the blocks and ``_invertible_stack``
    of the blocks decides as on the whole matrix.  Only rows that pass are
    solved, block by block, and both residuals are then checked.
    """
    t, n = a.shape
    sol = np.zeros((t, n), np.complex128)
    if n == 0:
        return np.ones(t, bool), sol
    fb = _dfiber_blocks(g)
    flat = np.concatenate([a, np.zeros((t, 1))], axis=1).take(fb.source, axis=1)
    blocks = [flat[:, lo:lo + f.size * f.shape[1]].reshape(t, *f.shape, f.shape[1]) for f, lo in fb.groups]
    ok = _invertible_stack(*blocks)
    rows, unit_vec = np.flatnonzero(ok), AlgebraElement.unit(g).vec
    for b, (fibers, _) in zip(blocks, fb.groups):
        y = np.linalg.solve(b[rows], unit_vec[fibers][..., None])
        sol[np.ix_(rows, fibers.ravel())] = y.reshape(len(rows), fibers.size)
    a, s = a[rows], sol[rows]
    scale = 1.0 + np.abs(a).max(axis=1) * np.maximum(1.0, np.abs(s).max(axis=1))
    for left, right in ((a, s), (s, a)):
        residual = np.abs(_convolve_rows(g, left, right) - unit_vec).max(axis=1)
        ok[rows[residual > 1e-8 * scale]] = False
    return ok, sol


def solve_inverse(a: AlgebraElement):
    """Two-sided inverse in the groupoid algebra via the left-regular system.

    The system is solved on one block per d-fiber (see
    ``_solve_inverse_rows``).  Returns the inverse element, or None when
    the element is not invertible (left-multiplication matrix numerically
    singular or the candidate fails the two-sided residual check).
    """
    ok, sol = _solve_inverse_rows(a.groupoid, a.vec[None])
    return AlgebraElement(a.groupoid, sol[0]) if ok[0] else None


def invertible(a: AlgebraElement, method: str = "blocks") -> bool:
    """Invertibility in the groupoid algebra.

    method='blocks' decides through the faithful orbit decomposition
    (every block matrix invertible); method='solve' solves for a
    two-sided inverse in the algebra, one block of the left-regular
    system per d-fiber.  The two agree; they are kept as genuinely
    distinct routes so either can serve as the other's oracle: the
    solve reads only the domains and the compose table.
    """
    if method == "blocks":
        return all(matrix_invertible(m) for m in block_decompose(a.groupoid).matrices(a))
    if method == "solve":
        return solve_inverse(a) is not None
    raise AlgebraError(f"unknown invertibility method {method!r}")
