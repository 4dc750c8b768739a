"""Mellin symbols of boundary limit operators and invertibility scans.

A cone point contributes a matrix-valued kernel k(t) acting by Mellin
convolution on the half-line; its symbol on the weight line a is

    symbol(lam) = integral_0^inf k(t) t^(a - 1 - i lam) dt,

computed after the substitution t = e^u as the Fourier transform of the
conjugated kernel g(u) = k(e^u) e^(a u), which ``conjugated_kernel``
samples for the log-line sums and for the model operator alike.  g is
sampled once on a uniform grid of a log window sized from the declared
decay, and every lam is a trapezoid sum over those samples; the rule converges exponentially for
kernels analytic in a strip around the line.  A node's phase factors
into a coarse and a fine one, so a block of lams costs one product of
the fine phases with the samples and one batched product of the partial
sums with the coarse phases.  Kernels are sampled only
through ``MellinKernel.values``: one call on all nodes of the step that
resolves the plan, then one per chunk of midpoints at each later
halving.  A kernel declared ``vectorized`` (every built-in one) is
evaluated by one numpy call on the whole array of t, any other kernel
node by node.  The convention (weight in the exponent, sign of the dual
variable) is fixed here once and shared by every oracle in the package.  Scans certify the
whole line with two bounds from the same samples: a Lipschitz bound
between neighbouring grid points and an integration-by-parts bound
C2 / lam^2 at large |lam|; the grid is bisected only where neither bound
clears the tolerance.  Both constants sum over the nodes by a
contraction (``einsum``, a matrix-vector product).  A default family
only plans its grid, ``default_grid(lambda_max)``: the samples' step
resolves the whole plan
before C2 is taken, and a scan sums only the planned lams inside the
cutoff past which the tail bound certifies the line (9 of 205 for a
square corner at c = 1/2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .conical import LayerDomain, RayBase, weight_line

TWO_PI = 2.0 * math.pi


class MellinError(ValueError):
    pass


class NonIntegrableError(MellinError):
    pass


class QuadratureError(RuntimeError):
    pass


class TailBoundError(RuntimeError):
    pass


class MissingKernelError(MellinError):
    pass


class UnsupportedDimensionError(MellinError):
    pass


@dataclass(frozen=True)
class KernelDecay:
    """Entrywise bounds |k(t)| <= c0 t^p0 for t <= 1, <= c_inf t^-p_inf for t >= 1."""

    p0: float
    c0: float
    p_inf: float
    c_inf: float


_SAMPLE_CHUNK = 1024  # scalar-kernel values collected per array conversion


@dataclass
class MellinKernel:
    """Matrix-valued Mellin convolution kernel at one cone point.

    ``fn(t)`` returns the (size x size) complex matrix at t > 0; entry
    (c, c') couples base boundary components c and c'.  With
    ``vectorized=True``, ``fn`` takes an array of t and returns an array
    of shape t.shape + (size, size) in one call; the default
    ``vectorized=False`` declares a scalar ``fn``, called once per node.
    ``values`` is the one way the package samples a kernel.  ``decay``
    certifies integrability against the weight line.  Entries should be
    twice differentiable in log t: the certified large-frequency tail
    bound integrates the second logarithmic derivative.
    """

    vertex: object
    size: int
    fn: Callable[..., np.ndarray]
    decay: KernelDecay
    name: str = "kernel"
    vectorized: bool = False

    def values(self, ts) -> np.ndarray:
        """Complex samples of shape ts.shape + (size, size) at an array of t > 0."""
        ts = np.asarray(ts, dtype=float)
        k = self.size
        if self.vectorized:
            out = np.asarray(self.fn(ts), dtype=np.complex128)
            if out.shape != ts.shape + (k, k):
                raise MellinError(
                    f"kernel {self.name!r} returned shape {out.shape} for t of shape {ts.shape}"
                )
            return out
        flat = ts.ravel().tolist()
        out = np.empty((len(flat), k, k), dtype=np.complex128)
        for s in range(0, len(flat), _SAMPLE_CHUNK):
            vals = np.asarray([self.fn(t) for t in flat[s : s + _SAMPLE_CHUNK]], dtype=np.complex128)
            if vals.shape[1:] != (k, k):
                raise MellinError(f"kernel {self.name!r} returned shape {vals.shape[1:]}")
            out[s : s + len(vals)] = vals
        return out.reshape(ts.shape + (k, k))

    def __call__(self, t: float) -> np.ndarray:
        return self.values([t])[0]


def check_line_integrability(kernel: MellinKernel, weight: float):
    d = kernel.decay
    if not -d.p0 < weight < d.p_inf:
        raise NonIntegrableError(
            f"kernel {kernel.name!r} is not integrable on the weight line a={weight}: "
            f"needs -p0 < a < p_inf with p0={d.p0}, p_inf={d.p_inf}"
        )


def _log_window(kernel: MellinKernel, weight: float, tail_mass: float = 1e-13):
    """[-u_minus, u_plus] outside which the conjugated kernel mass is < tail_mass."""
    d = kernel.decay
    rate_plus = d.p_inf - weight
    rate_minus = d.p0 + weight
    c_plus = max(d.c_inf, 1e-300)
    c_minus = max(d.c0, 1e-300)
    u_plus = max(5.0, math.log(max(c_plus / (tail_mass * rate_plus), 1.0)) / rate_plus)
    u_minus = max(5.0, math.log(max(c_minus / (tail_mass * rate_minus), 1.0)) / rate_minus)
    return u_minus, u_plus


# ---------------------------------------------------------------------------
# built-in kernels


def _scalar_values(entry) -> np.ndarray:
    """The 1 x 1 kernel values [[entry]], one per element of ``entry``."""
    return np.asarray(entry)[..., None, None]


def _ray_coupling_values(off) -> np.ndarray:
    """The 2 x 2 kernel values [[0, off], [off, 0]], one per element of ``off``."""
    off = np.asarray(off)
    out = np.zeros(off.shape + (2, 2))
    out[..., 0, 1] = out[..., 1, 0] = off
    return out


def wedge_double_layer_kernel(alpha: float, vertex="corner") -> MellinKernel:
    """Planar Laplace double-layer kernel between the two rays of a wedge.

    The rays bound a wedge of opening alpha; with inward normals, the
    kernel coupling one ray to the other reduces to

        k(t) = t sin(alpha) / (2 pi (t^2 - 2 t cos(alpha) + 1)),

    while same-ray entries vanish (collinear points).  At alpha = pi the
    kernel is identically zero.
    """
    if not 0.0 < alpha < TWO_PI:
        raise MellinError(f"opening angle must lie in (0, 2 pi), got {alpha}")
    sa, ca = math.sin(alpha), math.cos(alpha)
    if alpha == math.pi or abs(sa) == 0.0:

        def zero_fn(ts):
            return np.zeros(np.shape(ts) + (2, 2))

        return MellinKernel(
            vertex, 2, zero_fn, KernelDecay(1.0, 0.0, 1.0, 0.0), "flat-wedge", vectorized=True
        )

    def fn(ts):
        return _ray_coupling_values(ts * sa / (TWO_PI * (ts * ts - 2.0 * ts * ca + 1.0)))

    denom_floor = sa * sa if ca > 0 else 1.0
    c_bound = abs(sa) / (TWO_PI * denom_floor)
    return MellinKernel(
        vertex, 2, fn, KernelDecay(1.0, c_bound, 1.0, c_bound), f"wedge({alpha:.6g})",
        vectorized=True,
    )


def double_layer_kernel_value(x, y, normal_at_y) -> float:
    """Pointwise planar double-layer kernel (1/2pi) <x - y, n_y> / |x - y|^2."""
    dx = (x[0] - y[0], x[1] - y[1])
    r2 = dx[0] * dx[0] + dx[1] * dx[1]
    return (dx[0] * normal_at_y[0] + dx[1] * normal_at_y[1]) / (TWO_PI * r2)


def sech_test_kernel(vertex="test") -> MellinKernel:
    """Scalar test kernel t / (1 + t^2) = sech(log t) / 2."""

    def fn(ts):
        return _scalar_values(ts / (1.0 + ts * ts))

    return MellinKernel(
        vertex, 1, fn, KernelDecay(1.0, 1.0, 1.0, 1.0), "sech-test", vectorized=True
    )


def symmetric_dilation_kernel(vertex="test") -> MellinKernel:
    """Scalar kernel 2 sqrt(t) / (1 + t^2), symmetric under the end swap
    k(t) -> k(1/t) t^(-2a) on the line a = 1/2."""

    def fn(ts):
        return _scalar_values(2.0 * np.sqrt(ts) / (1.0 + ts * ts))

    return MellinKernel(
        vertex, 1, fn, KernelDecay(0.5, 2.0, 1.5, 2.0), "symmetric-dilation", vectorized=True
    )


def forced_zero_kernel(c: float, vertex="adversarial") -> MellinKernel:
    """Scalar kernel whose symbol equals -c at lam = 0 (on the line a = 1/2).

    With the convention above its symbol is -c sech(pi lam / 2), so
    c I + symbol hits exactly zero at the origin of the weight line.
    """
    scale = c / math.pi

    def fn(ts):
        return _scalar_values(-scale * 2.0 * np.sqrt(ts) / (1.0 + ts * ts))

    return MellinKernel(
        vertex, 1, fn, KernelDecay(0.5, 2.0 * scale, 1.5, 2.0 * scale), "forced-zero",
        vectorized=True,
    )


def _flipped_decay(d: KernelDecay, weight: float) -> KernelDecay:
    """Decay of k(1/t) t^(-2a): the two ends swap, shifted by 2a."""
    return KernelDecay(
        p0=d.p_inf - 2.0 * weight, c0=d.c_inf, p_inf=d.p0 + 2.0 * weight, c_inf=d.c0
    )


def reflect_kernel(kernel: MellinKernel, weight: float) -> MellinKernel:
    """Kernel seen from the opposite end of the cone axis.

    Swapping r -> 1/r on the half-line conjugates a Mellin convolution
    by the flip; on the weight line a the kernel transforms as
    k(t) -> k(1/t) t^(-2a).
    """

    def fn(ts):
        return kernel.values(1.0 / ts) * np.power(ts, -2.0 * weight)[..., None, None]

    return MellinKernel(
        kernel.vertex, kernel.size, fn, _flipped_decay(kernel.decay, weight),
        f"reflected({kernel.name})", vectorized=True,
    )


def adjoint_kernel(kernel: MellinKernel, weight: float) -> MellinKernel:
    """Adjoint kernel on the weight line: conj(k(1/t))^T t^(-2a).

    It is the conjugate transpose of the reflected kernel, whose decay it
    has, and its symbol is the conjugate transpose of the original
    symbol.  On the Haar-unitary line a = 0 the weight factor drops and
    this is plain conjugate-transpose-reflect.
    """
    reflected = reflect_kernel(kernel, weight)

    def fn(ts):
        return np.conj(reflected.values(ts)).swapaxes(-1, -2)

    return MellinKernel(
        kernel.vertex, kernel.size, fn, reflected.decay, f"adjoint({kernel.name})", vectorized=True,
    )


# ---------------------------------------------------------------------------
# the transform


DEFAULT_ABS_TOL = 1e-9
DEFAULT_LAMBDA_MAX = 200.0


def _checked_lambda_max(lambda_max: float) -> float:
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise MellinError(f"lambda_max must be finite and positive, got {lambda_max!r}")
    return float(lambda_max)


def default_grid(lambda_max: float = DEFAULT_LAMBDA_MAX) -> np.ndarray:
    """Symmetric grid, dense near 0 where order-(-1) symbols live; it ends at +-lambda_max."""
    _checked_lambda_max(lambda_max)
    lam = np.concatenate(
        [
            np.arange(0.0, 10.0 + 1e-12, 0.25),
            np.arange(11.0, 40.0 + 1e-12, 1.0),
            np.arange(45.0, lambda_max + 1e-12, 5.0),
        ]
    )
    lam = lam[lam <= lambda_max]
    if lam[-1] < lambda_max:
        lam = np.append(lam, lambda_max)
    return np.unique(np.concatenate([-lam[::-1], lam]))


MAX_INTERVALS = 2**19  # node cap of the sampled log line
_START_STEP = 0.125  # coarsest log-line step; refinement halves it
_PARTIAL_ENTRIES = 2**17  # coarse partial sums per lam block (2 MB)
_FINE = 64  # fine phase factors per coarse one
_MIDPOINT_CHUNK = 2**14  # midpoints per kernel call when the step is halved


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(i x) for real x, through cos and sin (numpy's complex exp is slower)."""
    out = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _second_differences(g: np.ndarray) -> np.ndarray:
    """g[2:] - 2 g[1:-1] + g[:-2], with one temporary of the result's size."""
    d = np.multiply(g[1:-1], 2.0)
    np.subtract(g[2:], d, out=d)
    d += g[:-2]
    return d


def conjugated_kernel(kernel: MellinKernel, weight: float, u) -> np.ndarray:
    """g(u) = k(e^u) e^(a u), shape u.shape + (k, k), from one ``values`` call weighted in place."""
    u = np.asarray(u, dtype=float)
    out = kernel.values(np.exp(u))
    out *= np.exp(weight * u)[..., None, None]
    return out


def _halved(u: np.ndarray) -> np.ndarray:
    """The nodes u with their midpoints in between: the grid of half the step."""
    out = np.empty(2 * len(u) - 1)
    out[::2] = u
    out[1::2] = 0.5 * (u[:-1] + u[1:])
    return out


class LogLineSamples:
    """The conjugated kernel g(u) = k(e^u) e^(a u) sampled on a uniform grid of [lo, hi].

    The number of intervals is even, so the even-indexed nodes form the
    grid of step 2h and the trapezoid sums T_h and T_2h come from the same
    samples.  The grid starts at step ``_START_STEP`` (rounded to an even
    count) and is halved until 2 h ``top`` <= pi, as ``resolve(top)``
    would; the halvings touch only the nodes, so they are the nodes a
    chain of refinements reaches, and the kernel is then sampled once on
    all of them; a ``top`` past the window's reach raises
    ``QuadratureError`` before the kernel is called.  Past that step
    (``resolve`` of a larger lam, or an error estimate above
    ``abs_tol``), halving h keeps the old samples and evaluates the
    kernel only at the midpoints.  The sums read one copy of the
    samples, weighted and laid out fine-major for the factored phase
    product; it is built at the first sum after each halving.
    """

    def __init__(self, kernel: MellinKernel, weight: float, lo: float, hi: float, abs_tol: float,
                 top: float = 0.0):
        self.kernel = kernel
        self.weight = weight
        self.lo = lo
        self.hi = hi
        self.abs_tol = abs_tol
        intervals = 2 * math.ceil((hi - lo) / (2.0 * _START_STEP))
        # refinement doubles the count while it stays within MAX_INTERVALS
        self.max_intervals = intervals
        while 2 * self.max_intervals <= MAX_INTERVALS:
            self.max_intervals *= 2
        self._check_reach(top)
        self.u = np.linspace(lo, hi, intervals + 1)
        while 2.0 * self.step * top > math.pi:
            self.u = _halved(self.u)
        self.g = self._sample(self.u)
        self._weighted = None

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (len(self.u) - 1)

    def _sample(self, u: np.ndarray) -> np.ndarray:
        """(len(u), k*k) samples of g, one ``kernel.values`` call for all of u."""
        return conjugated_kernel(self.kernel, self.weight, u).reshape(len(u), -1)

    def _refine(self):
        """Halve h: the old samples move to the even rows, and the midpoints
        are sampled in chunks straight into the odd ones, so the old and the
        new array are the only two of the samples' size."""
        n = len(self.u) - 1
        if n >= self.max_intervals:
            raise QuadratureError(
                f"kernel {self.kernel.name!r}: error estimate above {self.abs_tol:.1e} "
                f"at {self.max_intervals} log-line intervals"
            )
        self._weighted = None
        u = _halved(self.u)
        g = np.empty((2 * n + 1, self.g.shape[1]), dtype=np.complex128)
        g[::2] = self.g
        self.u, self.g = u, g
        try:
            for s in range(1, 2 * n, 2 * _MIDPOINT_CHUNK):
                stop = min(s + 2 * _MIDPOINT_CHUNK, 2 * n)
                g[s:stop:2] = self._sample(u[s:stop:2])
        except BaseException:
            # a kernel that fails leaves the samples of the old step
            self.u, self.g = u[::2].copy(), g[::2].copy()
            raise

    def _check_reach(self, top: float):
        if 2.0 * (self.hi - self.lo) * top > math.pi * self.max_intervals:
            raise QuadratureError(
                f"lam = {top:g} needs more than the {self.max_intervals} log-line intervals "
                "this window reaches"
            )

    def resolve(self, top: float):
        """Halve h until 2 h top <= pi: T_2h then resolves every |lam| <= top."""
        self._check_reach(top)
        while 2.0 * self.step * top > math.pi:
            self._refine()

    def transform(self, lams):
        """Symbols at lams, shape (len(lams), k, k), and the per-lam error estimates.

        h is halved until it resolves every lam and |T_h - T_2h| <= abs_tol
        in every entry.  For an exponentially convergent rule that
        difference is the error of T_2h and so bounds the error of T_h.
        """
        lams = np.asarray(lams, dtype=float)
        self.resolve(float(np.max(np.abs(lams))))
        while True:
            vals, errs = self._trapezoid(lams)
            if errs.max() <= self.abs_tol:
                k = self.kernel.size
                return vals.reshape(len(lams), k, k), errs
            self._refine()

    def _weigh(self) -> np.ndarray:
        """The trapezoid-weighted samples, fine-major, shape (F, C * 2 k^2).

        Even node j = c F + f, and the odd node right after it, go to row f
        and coarse block c: its first k^2 columns hold the even sample, the
        other k^2 the odd one.  The end nodes carry weight 1/2, and the
        nodes past the last even one are zero.
        """
        entries = self.g.shape[1]
        last_c, last_f = divmod(len(self.u) // 2, _FINE)  # the last even node
        w = np.zeros((_FINE, last_c + 1, 2, entries), dtype=np.complex128)
        by_coarse = w.swapaxes(0, 1)  # a view: by_coarse[c, f] is node c F + f
        for half, nodes in enumerate((self.g[::2], self.g[1::2])):
            full, rest = divmod(len(nodes), _FINE)
            by_coarse[:full, :, half] = nodes[: full * _FINE].reshape(full, _FINE, entries)
            if rest:
                by_coarse[full, :rest, half] = nodes[full * _FINE :]
        w[0, 0, 0] *= 0.5
        w[last_f, last_c, 0] *= 0.5
        return w.reshape(_FINE, -1)

    def _trapezoid(self, lams: np.ndarray):
        """T_h and |T_h - T_2h| for every lam, in blocks of lams.

        With E and O the weighted sums over the even and the odd nodes,
        T_h = h (E + O) and T_2h = 2 h E.  The odd nodes are the even
        ones shifted by h, so the same phases serve both sums.  Even node
        j = c F + f has the phase exp(-i lam u_cF) exp(-i lam 2 h f), so
        each sum factors as sum_c exp(-i lam u_cF) sum_f exp(-i lam 2 h f)
        W[c F + f]: one product of the (lams x F) fine phases with the
        fine-major samples gives C partial sums per lam, and one batched
        product per lam with its C coarse phases contracts them.
        """
        entries = self.g.shape[1]
        if self._weighted is None:
            self._weighted = self._weigh()
        coarse = self._weighted.shape[1] // (2 * entries)
        h = self.step
        coarse_u = self.lo + 2.0 * h * _FINE * np.arange(coarse)
        fine_u = 2.0 * h * np.arange(_FINE)
        rows = max(1, _PARTIAL_ENTRIES // self._weighted.shape[1])
        vals = np.empty((len(lams), entries), dtype=np.complex128)
        errs = np.empty(len(lams))
        for s in range(0, len(lams), rows):
            lam = lams[s : s + rows, None]
            partial = (_cis(-lam * fine_u) @ self._weighted).reshape(len(lam), coarse, -1)
            sums = (_cis(-lam * coarse_u)[:, None, :] @ partial)[:, 0]
            even = sums[:, :entries]
            odd = sums[:, entries:] * _cis(-lam * h)
            vals[s : s + rows] = h * (even + odd)
            errs[s : s + rows] = h * np.max(np.abs(odd - even), axis=1)
        return vals, errs

    def _upper_norm(self, rule) -> float:
        """||I_h + |I_h - I_2h|||_2 for an entrywise integral I, ``rule(u, g, h)`` ~ I.

        For an O(h^2) rule |I_h - I_2h| is about three times the error of
        I_h, so the margin lifts I_h above I even when it converges from below.
        """
        fine = rule(self.u, self.g, self.step)
        coarse = rule(self.u[::2], self.g[::2], 2.0 * self.step)
        k = self.kernel.size
        return float(np.linalg.norm((fine + np.abs(fine - coarse)).reshape(k, k), 2))

    def tail_coefficient(self) -> float:
        """C2 >= ||entrywise integral |g''| du||_2, from second differences on the nodes.

        The moduli are summed over the nodes by ``einsum('ij->j')``, which
        is faster than a strided ``sum(axis=0)`` over k^2 columns and,
        unlike a product with a vector of ones, allocates nothing of the
        samples' length.
        """
        return self._upper_norm(lambda u, g, h: np.einsum("ij->j", np.abs(_second_differences(g))) / h)

    def lipschitz(self) -> float:
        """L >= ||entrywise integral |u| |g(u)| du||_2, which bounds ||d symbol / d lam||_2.

        The sum over the nodes is the product |u| @ |g|.
        """
        return self._upper_norm(lambda u, g, h: h * (np.abs(u) @ np.abs(g)))


class MellinSymbolFamily:
    """Sampled symbol lam -> k x k matrix along one weight line.

    ``plan`` is the grid a scan may evaluate (by default the ``lambdas``
    evaluated at construction); ``grid()`` holds the lams evaluated so
    far, on the plan or added later by a scan.  Every value is a
    trapezoid sum over the same log-line samples, which arrive at the step
    that resolves the whole plan (``mellin_transform`` takes them there in
    one pass), before anything is evaluated.  From the samples at that
    step the family also carries a Lipschitz constant L of lam ->
    symbol(lam) and a decreasing tail bound ||symbol(lam)|| <= C2 / lam^2
    from two integrations by parts of the conjugated kernel.
    """

    def __init__(self, kernel: MellinKernel, weight: float, lambdas, samples: LogLineSamples,
                 plan=None):
        self.kernel = kernel
        self.vertex = kernel.vertex
        self.size = kernel.size
        self.weight = weight
        self._samples = samples
        self.max_quad_error = 0.0
        self._values: dict = {}
        self.plan = np.unique(np.asarray(lambdas if plan is None else plan, dtype=float))
        self._add(lambdas)
        self.tail_c2 = samples.tail_coefficient()
        self.lipschitz = samples.lipschitz()

    # -- sampling ---------------------------------------------------------------

    def _add(self, lambdas):
        new = sorted({float(lam) for lam in lambdas}.difference(self._values))
        if not new:
            return
        mats, errs = self._samples.transform(new)
        self.max_quad_error = max(self.max_quad_error, float(errs.max()))
        self._values.update(zip(new, mats))

    def value(self, lam) -> np.ndarray:
        """symbol(lam), or the stacked symbols (n, k, k) at a 1-D array of lams."""
        lams = np.atleast_1d(np.asarray(lam, dtype=float)).tolist()
        self._add(lams)
        out = np.stack([self._values[l] for l in lams])
        return out if np.ndim(lam) else out[0]

    def evaluate_plan(self, lam_max: float):
        """Evaluate the planned lams with |lam| <= lam_max."""
        self.value(self.plan[np.abs(self.plan) <= lam_max])

    def grid(self) -> np.ndarray:
        """The lams evaluated so far, ascending."""
        return np.array(sorted(self._values), dtype=float)

    @property
    def lambda_max(self) -> float:
        """The largest |lam| planned or evaluated."""
        return float(max([np.abs(self.plan).max(initial=0.0), *map(abs, self._values)]))

    def tail_bound(self, lam):
        """C2 / lam^2, a bound on ||symbol|| past lam, at a scalar or an array of lams;
        inf where lam <= 0 or lam^2 underflows to 0 (and C2 over a subnormal lam^2)."""
        lam = np.asarray(lam, dtype=float)
        ok = (lam > 0) & (lam * lam > 0)
        with np.errstate(over="ignore"):
            out = np.where(ok, self.tail_c2 / np.where(ok, lam * lam, 1.0), math.inf)
        return out if out.ndim else float(out)


def mellin_transform(
    kernel: MellinKernel,
    weight: float,
    lambdas=None,
    abs_tol: float = DEFAULT_ABS_TOL,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
) -> MellinSymbolFamily:
    """Sample the symbol of a kernel along the weight line.

    The conjugated kernel is sampled once on a uniform grid of a log
    window sized from the declared decay (mass outside below
    abs_tol * 1e-4), and every lam is a trapezoid sum over the samples:
    the fine phases of each lam against the samples, then the coarse
    phases against the partial sums.  The samples are taken in one pass
    at the step h that halving reaches when 2 h |lam| <= pi on the whole
    plan, and the tail constant C2 and the Lipschitz constant come from
    second differences and moments on the nodes of that step.  Explicit
    ``lambdas`` are the plan and are evaluated at once; with
    ``lambdas=None`` the plan is ``default_grid(lambda_max)`` and nothing
    is evaluated yet: ``invertibility_scan`` evaluates the part of it
    that the tail bound leaves uncertified, so ``lambda_max`` sets the
    resolution the tail certificate trusts, not the points summed.  Each
    evaluation halves h
    further until, in every entry, the estimate |T_h - T_2h| stays
    within abs_tol; past MAX_INTERVALS intervals the transform raises
    QuadratureError.
    """
    check_line_integrability(kernel, weight)
    if lambdas is None:  # the plan ends at lambda_max; the reach is checked before it is built
        top = _checked_lambda_max(lambda_max)
    else:
        top = np.abs(np.asarray(lambdas, dtype=float)).max(initial=0.0)
    u_minus, u_plus = _log_window(kernel, weight, tail_mass=abs_tol * 1e-4)
    samples = LogLineSamples(kernel, weight, -u_minus, u_plus, abs_tol, float(top))
    plan = default_grid(lambda_max) if lambdas is None else None
    return MellinSymbolFamily(kernel, weight, () if lambdas is None else lambdas, samples, plan)


def mellin_transform_direct(kernel: MellinKernel, weight: float, lam: float) -> np.ndarray:
    """Second quadrature scheme: direct t-integration, no log substitution.

    Suited to moderate |lam|; serves as the independent oracle against
    the log-line scheme.
    """
    from scipy.integrate import quad  # slow to import; only this oracle uses it

    check_line_integrability(kernel, weight)
    k = kernel.size
    out = np.empty((k, k), dtype=np.complex128)

    def integrand(t, i, j):
        ph = -lam * math.log(t)
        return kernel(t)[i, j] * t ** (weight - 1.0) * complex(math.cos(ph), math.sin(ph))

    for i, j in np.ndindex(k, k):
        near, far = (quad(integrand, lo, hi, args=(i, j), complex_func=True, limit=400,
                          epsabs=1e-11, epsrel=1e-11)[0] for lo, hi in ((0.0, 1.0), (1.0, np.inf)))
        out[i, j] = near + far
    return out


# ---------------------------------------------------------------------------
# invertibility scan


def _check_scan_constants(c: complex, sigma_tol: float) -> None:
    if not cmath.isfinite(c):
        raise MellinError(f"constant term c must be finite, got {c!r}")
    if not (math.isfinite(sigma_tol) and sigma_tol > 0.0):
        raise MellinError(f"sigma_tol must be finite and positive, got {sigma_tol!r}")


@dataclass
class ScanResult:
    vertex: object
    min_sigma: float
    argmin_lambda: float
    lambda_max: float
    tail_floor: float
    invertible: bool
    grid_points: int
    refinements: int  # bisection midpoints added to the grid
    sigma_tol: float
    min_sigma_lower: float
    lipschitz: float
    max_quad_error: float
    tail_c2: float

    def as_dict(self) -> dict:
        return {**vars(self), "vertex": repr(self.vertex)}


MAX_REFINEMENTS = 2000  # bisection midpoints a scan may add


def invertibility_scan(
    family: MellinSymbolFamily,
    c: complex,
    sigma_tol: float = 1e-3,
    lambda_cap: float = 1e5,
) -> ScanResult:
    """Certified minimum singular value of c I + symbol(lam) along the line.

    The scan evaluates the family's plan on [-lam_max, lam_max] only;
    beyond it sigma_min >= tail_floor = |c| - C2 / lam_max^2, and the
    points already evaluated stay on the grid.  lam_max starts at the
    first planned |lam| where the tail bound is below |c| / 2, or at the
    largest |lam| already evaluated if that is further; past the plan it
    doubles up to lambda_cap.  While tail_floor is below the smallest
    sample and the plan reaches further, lam_max moves out to the first
    planned |lam| whose floor clears that sample, so the tail cap binds
    on min_sigma only at the plan's end.  sigma_min is 1-Lipschitz in the operator norm (Weyl), so on a grid
    interval [a, b] it is at least min(s_a, s_b, max((s_a + s_b - L (b
    - a)) / 2, tail)), with tail = |c| - C2 / min(|a|, |b|)^2 where a b
    > 0.  The intervals whose bound is at most sigma_tol are bisected,
    all at once per round, until a sample is at most sigma_tol (a
    witness), the failing intervals are narrower than sigma_tol / L, or
    MAX_REFINEMENTS points were added.  min_sigma_lower, the smallest
    bound less the quadrature error, decides the verdict; it and
    min_sigma, the smallest sample, are both capped by tail_floor.
    """
    _check_scan_constants(c, sigma_tol)
    if abs(c) == 0.0:
        raise MellinError("scan requires a nonzero constant term")
    planned = np.unique(np.abs(family.plan))
    planned = planned[planned > 0.0]
    tails = family.tail_bound(planned)

    def reach(ok: np.ndarray) -> float:
        """The first planned |lam| where ok holds, else the plan's last."""
        return float(planned[np.argmax(ok)] if ok.any() else planned[-1])

    lam_max = float(np.abs(family.grid()).max(initial=0.0))
    if planned.size:
        lam_max = max(lam_max, reach(tails < abs(c) / 2.0))
    if lam_max <= 0:
        raise MellinError("scan grid must contain a nonzero lambda")
    family.evaluate_plan(lam_max)
    while family.tail_bound(lam_max) >= abs(c) / 2.0:
        lam_max *= 2.0
        if lam_max > lambda_cap:
            raise TailBoundError(
                f"tail bound {family.tail_bound(lam_max):.2e} still exceeds "
                f"|c|/2 at lambda = {lam_max:.3g}; enlarge the grid"
            )
        family.value(np.array([-lam_max, lam_max]))
    family.value(np.array([-lam_max, lam_max]))  # the grid spans [-lam_max, lam_max]

    def sigma_min(lams):
        mats = c * np.eye(family.size) + family.value(lams)
        return np.linalg.svd(mats, compute_uv=False)[:, -1]

    lams = family.grid()
    sig = sigma_min(lams)
    while planned.size and lam_max < planned[-1] and abs(c) - family.tail_bound(lam_max) < sig.min():
        lam_max = reach(abs(c) - tails >= sig.min())
        family.evaluate_plan(lam_max)
        lams = family.grid()
        sig = sigma_min(lams)
    refinements = 0
    while True:
        a, b = lams[:-1], lams[1:]
        same = a * b > 0
        near = np.where(same, np.minimum(np.abs(a), np.abs(b)), 1.0)
        tail = np.where(same, abs(c) - family.tail_bound(near), -np.inf)
        lip = 0.5 * (sig[:-1] + sig[1:] - family.lipschitz * (b - a))
        bounds = np.minimum(np.minimum(sig[:-1], sig[1:]), np.maximum(lip, tail))
        split = (bounds <= sigma_tol) & (family.lipschitz * (b - a) > sigma_tol)
        if sig.min() <= sigma_tol or not split.any() or refinements >= MAX_REFINEMENTS:
            break
        mids = (0.5 * (a + b))[split][: MAX_REFINEMENTS - refinements]
        at = np.searchsorted(lams, mids)
        lams, sig = np.insert(lams, at, mids), np.insert(sig, at, sigma_min(mids))
        refinements += len(mids)

    tail_floor = abs(c) - family.tail_bound(lam_max)
    # an entrywise quadrature error e bounds the operator-norm error by k e
    lower = min(float(bounds.min()) - family.size * family.max_quad_error, tail_floor)
    i = int(np.argmin(sig))
    return ScanResult(
        vertex=family.vertex,
        min_sigma=float(min(sig[i], tail_floor)),
        argmin_lambda=float(lams[i]),
        lambda_max=float(lam_max),
        tail_floor=float(tail_floor),
        invertible=bool(lower > sigma_tol),
        grid_points=len(lams),
        refinements=refinements,
        sigma_tol=sigma_tol,
        min_sigma_lower=float(lower),
        lipschitz=family.lipschitz,
        max_quad_error=family.max_quad_error,
        tail_c2=family.tail_c2,
    )


# ---------------------------------------------------------------------------
# the per-domain verdict


@dataclass
class FredholmVerdict:
    domain_vertices: tuple
    elliptic: bool
    weight: float
    constant: complex
    scans: dict  # vertex id -> ScanResult or None when scans are skipped
    is_fredholm: bool
    witness: Optional[object] = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "elliptic": self.elliptic,
            "weight": self.weight,
            "constant": [self.constant.real, self.constant.imag],
            "scans": {repr(v): (s.as_dict() if s else None) for v, s in self.scans.items()},
            "is_fredholm": self.is_fredholm,
            "witness": repr(self.witness) if self.witness is not None else None,
            "note": self.note,
        }


def vertex_kernel(domain: LayerDomain, vertex_id) -> MellinKernel:
    """Built-in double-layer kernel at a planar two-ray vertex."""
    v = domain.vertex(vertex_id)
    if not isinstance(v.base, RayBase) or v.base.components != 2:
        raise MissingKernelError(
            f"vertex {vertex_id!r} has no built-in kernel; supply one explicitly"
        )
    return wedge_double_layer_kernel(v.base.opening(), vertex=vertex_id)


def fredholm_verdict(
    domain: LayerDomain,
    c: complex = 0.5,
    kernels: Optional[dict] = None,
    weight="auto",
    lambda_max: float = DEFAULT_LAMBDA_MAX,
    sigma_tol: float = 1e-3,
) -> FredholmVerdict:
    """Scan verdict for c I + (order minus-one kernel) on a planar domain.

    Ellipticity for this operator class is the symbolic condition c != 0;
    when it fails the per-vertex scans are skipped (no positive constant
    is available to certify the tail) and the verdict is negative.
    """
    if domain.dimension != 2:
        raise UnsupportedDimensionError(
            "numeric verdicts are planar only; use boundary_algebra_report for structure"
        )
    kernels = dict(kernels or {})
    if weight == "auto":
        weight_value = weight_line(domain.dimension).boundary_weight
    else:
        try:
            weight_value = float(weight)
        except (TypeError, ValueError):
            raise MellinError(f"weight must be 'auto' or a number, got {weight!r}") from None

    _check_scan_constants(c, sigma_tol)
    elliptic = abs(c) != 0.0

    def scan(kern: MellinKernel) -> ScanResult:
        fam = mellin_transform(kern, weight_value, lambda_max=lambda_max)
        return invertibility_scan(fam, c, sigma_tol=sigma_tol)

    scans: dict = {}
    witness = None
    # a built-in kernel is fixed by the exact opening angle of its vertex
    cache: dict = {}
    for v in domain.vertices:
        if not elliptic:
            scans[v.id] = None
            continue
        kern = kernels.get(v.id)
        if kern is not None:
            result = scan(kern)
        else:
            kern = vertex_kernel(domain, v.id)
            opening = v.base.opening()
            if opening not in cache:
                cache[opening] = scan(kern)
            result = cache[opening]
        scans[v.id] = replace(result, vertex=v.id)
        if not result.invertible and witness is None:
            witness = v.id

    return FredholmVerdict(
        domain_vertices=tuple(v.id for v in domain.vertices),
        elliptic=elliptic,
        weight=weight_value,
        constant=complex(c),
        scans=scans,
        is_fredholm=elliptic and all(s.invertible for s in scans.values()),
        witness=witness,
        note="symbol scan on the critical weight line" if elliptic else "inelliptic constant term; scans skipped",
    )


# ---------------------------------------------------------------------------
# straight-cone (two limit points) symbol families


def straight_cone_families(kernel: MellinKernel, weight: float, lambdas=None, lambda_max=DEFAULT_LAMBDA_MAX):
    """Symbol families at the two limit points of a compactified cone axis.

    The far end sees the reflected kernel; for dilation-invariant kernels
    symmetric under the flip the two families coincide.
    """
    near = mellin_transform(kernel, weight, lambdas, lambda_max=lambda_max)
    far = mellin_transform(reflect_kernel(kernel, weight), weight, lambdas, lambda_max=lambda_max)
    return near, far
