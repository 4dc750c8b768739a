"""Finite groupoids as index arrays.

A finite groupoid is a small category in which every morphism is
invertible.  We store one as two tuples of opaque ids, ``units`` and
``arrows`` (their order is used for all deterministic outputs), and
seven index arrays over them: the domain, range and inverse of every
arrow, the unit arrow at every unit, and the composition as parallel
arrays (g, h, gh) over the defined pairs, in insertion order.  These
arrays are the tables.  The id-keyed dicts ``dom``, ``rng``,
``unit_arrow``, ``inverse`` and ``compose`` are read-only views, built
on first access for callers that think in ids.  The topology is
discrete, so "open subset" means arbitrary unit subset and every
topological hypothesis of the continuum picture is checkable.

All operations are pure functions; instances are treated as immutable
after construction (internal caches are derived data only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

import numpy as np

# Vectorised work on the composition goes through a fiber-indexed table
# with one slot per composable pair (see FiniteGroupoid._fiber_table), so
# it scales with |compose|, not n_arrows².

MAX_WITNESSES_PER_AXIOM = 5

# composable triples examined per vectorised associativity block
_TRIPLE_BLOCK = 1 << 18


class GroupoidError(ValueError):
    """Malformed groupoid tables or invalid arguments."""


class FiniteGroupoid:
    """A finite groupoid given by its five structural maps.

    Parameters
    ----------
    units, arrows : iterables of hashable ids (order is preserved and
        used for all deterministic outputs).
    dom, rng : mapping arrow id -> unit id.
    unit_arrow : mapping unit id -> arrow id of the identity at that unit.
    inverse : mapping arrow id -> arrow id.
    compose : mapping (g, h) -> gh, defined exactly on composable pairs,
        i.e. pairs with dom(g) == rng(h).

    The constructor maps the ids to indices and keeps only index arrays:
    ``dom_i`` and ``rng_i`` (unit index per arrow), ``inv_i`` (arrow index
    per arrow), ``unit_i`` (arrow index per unit), and ``p1``, ``p2``,
    ``pp``, the compose entries (g, h) -> gh in insertion order.
    Builders that hold indices already call :meth:`_from_arrays`.  The
    dict attributes named like the parameters are read-only views of
    the arrays, built on first access.

    Construction checks only structural well-formedness (totality of the
    tables, values in range).  Semantic axioms are the business of
    :func:`validate`, which reports violations instead of raising.
    """

    def __init__(self, units, arrows, dom, rng, unit_arrow, inverse, compose):
        units, arrows = tuple(units), tuple(arrows)
        uidx, aidx = _index(units), _index(arrows)
        if len(uidx) != len(units):
            raise GroupoidError("duplicate unit ids")
        if len(aidx) != len(arrows):
            raise GroupoidError("duplicate arrow ids")
        dom_i, rng_i, unit_i, inv_i = [_lookup(*spec) for spec in [
            ("dom", dom, aidx, uidx), ("rng", rng, aidx, uidx),
            ("unit_arrow", unit_arrow, uidx, aidx), ("inverse", inverse, aidx, aidx)]]
        compose = list(dict(compose).items())
        ids = np.fromiter((aidx.get(a, -1) for (g, h), k in compose for a in (g, h, k)),
                          np.int64, 3 * len(compose))
        bad = np.flatnonzero((ids.reshape(-1, 3) < 0).any(axis=1))
        if len(bad):
            (g, h), k = compose[bad[0]]
            raise GroupoidError(f"compose entry ({g!r}, {h!r}) -> {k!r} uses unknown arrow id")
        self._store(units, arrows, dom_i, rng_i, inv_i, unit_i, ids[0::3], ids[1::3], ids[2::3])

    @classmethod
    def _from_arrays(cls, units, arrows, dom_i, rng_i, inv_i, unit_i, p1, p2, pp) -> "FiniteGroupoid":
        """The groupoid with these ids and index arrays (see the class docstring)."""
        g = cls.__new__(cls)
        g._store(units, arrows, dom_i, rng_i, inv_i, unit_i, p1, p2, pp)
        return g

    def _store(self, units, arrows, dom_i, rng_i, inv_i, unit_i, p1, p2, pp):
        self.units, self.arrows = tuple(units), tuple(arrows)
        nu, na, m = len(self.units), len(self.arrows), len(p1)
        for name, a, size, bound in [
            ("dom_i", dom_i, na, nu), ("rng_i", rng_i, na, nu), ("inv_i", inv_i, na, na),
            ("unit_i", unit_i, nu, na), ("p1", p1, m, na), ("p2", p2, m, na), ("pp", pp, m, na),
        ]:
            a = np.asarray(a, np.int64)  # bounds checked: numpy would wrap a negative index
            if a.shape != (size,) or ((a < 0) | (a >= bound)).any():
                raise GroupoidError(f"{name} is not an index array of length {size} into range({bound})")
            setattr(self, name, a)
        self._cache: dict[str, Any] = {}

    # -- id-keyed views ----------------------------------------------------------

    dom = cached_property(lambda g: _table_view(g.arrows, _id_array(g.units)[g.dom_i]))
    rng = cached_property(lambda g: _table_view(g.arrows, _id_array(g.units)[g.rng_i]))
    unit_arrow = cached_property(lambda g: _table_view(g.units, _id_array(g.arrows)[g.unit_i]))
    inverse = cached_property(lambda g: _table_view(g.arrows, _id_array(g.arrows)[g.inv_i]))

    @cached_property
    def compose(self) -> Mapping:
        ids = _id_array(self.arrows)
        return _table_view(zip(ids[self.p1], ids[self.p2]), ids[self.pp])

    # -- basic accessors ------------------------------------------------------

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def is_composable(self, g, h) -> bool:
        return self.dom[g] == self.rng[h]

    def mul(self, g, h):
        try:
            return self.compose[(g, h)]
        except KeyError:
            raise GroupoidError(f"arrows {g!r} and {h!r} are not composable") from None

    def unit_index(self) -> dict:
        if "uidx" not in self._cache:
            self._cache["uidx"] = _index(self.units)
        return self._cache["uidx"]

    def arrow_index(self) -> dict:
        if "aidx" not in self._cache:
            self._cache["aidx"] = _index(self.arrows)
        return self._cache["aidx"]

    # -- derived index arrays --------------------------------------------------

    def _fiber_table(self) -> "_FiberTable":
        """Composition indexed by composable pair, one slot per pair."""
        if "ftable" not in self._cache:
            dom_i, rng_i, p1, p2, pp = self.dom_i, self.rng_i, self.p1, self.p2, self.pp
            n = self.n_arrows
            rorder = np.argsort(rng_i, kind="stable")
            rstart = np.searchsorted(rng_i[rorder], np.arange(self.n_units + 1))
            pos = np.empty(n, np.int64)
            pos[rorder] = np.arange(n) - rstart[rng_i[rorder]]
            off = np.concatenate(([0], np.cumsum(np.diff(rstart)[dom_i])))
            table = np.full(off[-1] + 1, -1, np.int64)
            ok = dom_i[p1] == rng_i[p2]
            table[off[p1[ok]] + pos[p2[ok]]] = pp[ok]
            keys = p1[~ok] * n + p2[~ok]
            srt = np.argsort(keys)
            self._cache["ftable"] = _FiberTable(
                pos, off, table, rorder, rstart, keys[srt], pp[~ok][srt]
            )
        return self._cache["ftable"]

    def _mul_idx(self, a, b) -> np.ndarray:
        """Vectorised ``compose.get`` on index arrays: ab, or -1 where undefined."""
        a, b = np.asarray(a, np.int64), np.asarray(b, np.int64)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        ft = self._fiber_table()
        ok = self.dom_i[a] == self.rng_i[b]
        out = ft.table[np.where(ok, ft.off[a] + ft.pos[b], len(ft.table) - 1)]
        if len(ft.side_keys):
            keys = a[~ok] * self.n_arrows + b[~ok]
            j = np.minimum(np.searchsorted(ft.side_keys, keys), len(ft.side_keys) - 1)
            out[~ok] = np.where(ft.side_keys[j] == keys, ft.side_vals[j], -1)
        return out

    def _fibers_by_dom(self):
        """Per unit index, the array of arrow indices with that domain."""
        if "dfibers" not in self._cache:
            self._cache["dfibers"] = _group_by(self.dom_i, self.n_units, self.n_arrows)
        return self._cache["dfibers"]

    def __repr__(self):
        return f"FiniteGroupoid(units={self.n_units}, arrows={self.n_arrows})"

    def same_tables(self, other: "FiniteGroupoid") -> bool:
        """Literal table equality (not isomorphism)."""
        return (self.units, self.arrows) == (other.units, other.arrows) and all(
            getattr(self, t) == getattr(other, t) for t in ("dom", "rng", "unit_arrow", "inverse", "compose"))


def _index(ids) -> dict:
    return {x: i for i, x in enumerate(ids)}


def _id_array(ids) -> np.ndarray:
    """The ids as a 1-d object array, for gathers that create no new objects."""
    return np.fromiter(ids, object, len(ids))


def _table_view(keys, values) -> Mapping:
    """The read-only dict keys[i] -> values[i]."""
    return MappingProxyType(dict(zip(keys, values)))


def _lookup(name: str, table, keys: dict, values: dict) -> np.ndarray:
    """Per key of ``keys``, in its order, the index of table[key] in ``values``."""
    table = dict(table)
    if table.keys() != keys.keys():
        missing, extra = keys.keys() - table.keys(), table.keys() - keys.keys()
        raise GroupoidError(f"{name} table keys do not match: missing={sorted(map(repr, missing))[:3]} "
                            f"extra={sorted(map(repr, extra))[:3]}")
    out = np.fromiter((values.get(table[k], -1) for k in keys), np.int64, len(keys))
    if (out < 0).any():
        bad = next(k for k, v in table.items() if v not in values)
        raise GroupoidError(f"{name} has out-of-range value at {bad!r}")
    return out


@dataclass(frozen=True)
class _FiberTable:
    """Composition over the composable pairs, indexed by range fibers.

    ``pos[h]`` is the index of arrow h within its range fiber
    ``rorder[rstart[x]:rstart[x + 1]]`` (arrow order); the pairs (g, h)
    with dom g = rng h occupy the slots ``off[g] + pos[h]`` of ``table``,
    so slot order is row-major (g, h) order.  ``table`` holds gh, -1 where
    undefined, plus one trailing -1 slot.  Entries defined on pairs that
    are not composable (malformed input only) are kept in the sorted side
    arrays, keyed by g * n_arrows + h.
    """

    pos: np.ndarray
    off: np.ndarray
    table: np.ndarray
    rorder: np.ndarray
    rstart: np.ndarray
    side_keys: np.ndarray
    side_vals: np.ndarray

    def slot_pairs(self, slots, dom_i):
        """(g, h) index arrays of the given slots."""
        g = np.searchsorted(self.off, slots, side="right") - 1
        h = self.rorder[self.rstart[dom_i[g]] + slots - self.off[g]]
        return g, h


def _group_by(values: np.ndarray, n_groups: int, n: int):
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.searchsorted(sorted_vals, np.arange(n_groups + 1))
    return [order[starts[i]:starts[i + 1]] for i in range(n_groups)]


# ---------------------------------------------------------------------------
# unit subsets


@dataclass(frozen=True)
class UnitSubset:
    """A subset of the unit set of a fixed groupoid."""

    groupoid: FiniteGroupoid
    members: frozenset

    def __post_init__(self):
        unknown = self.members - set(self.groupoid.units)
        if unknown:
            raise GroupoidError(f"unknown unit id {next(iter(unknown))!r} in subset")

    def __iter__(self):
        # deterministic order: the owning groupoid's unit order
        return (x for x in self.groupoid.units if x in self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members

    def complement(self) -> "UnitSubset":
        return UnitSubset(self.groupoid, frozenset(self.groupoid.units) - self.members)


def as_unit_subset(g: FiniteGroupoid, a) -> UnitSubset:
    if isinstance(a, UnitSubset):
        if a.groupoid is not g:
            return UnitSubset(g, a.members)
        return a
    return UnitSubset(g, frozenset(a))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> set:
        return {v.axiom for v in self.violations}

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"axiom": v.axiom, "witness": [repr(w) for w in v.witness]}
                for v in self.violations
            ],
        }


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom, reporting violations with witnesses.

    The report lists each violated axiom with witness tuples (capped per
    axiom); it is empty exactly when all invariants hold, which
    :func:`structure_witness` certifies.  Only when it fails do the array
    passes over the fiber-indexed composition table collect witnesses.
    Violations are report entries, not exceptions; there is no size cap.
    """
    from collections import defaultdict

    if structure_witness(g) is None:
        return ValidationReport([])
    bucket = defaultdict(list)
    dom_i, rng_i, inv_i, unit_i = g.dom_i, g.rng_i, g.inv_i, g.unit_i
    p1, p2, pp = g.p1, g.p2, g.pp
    ft = g._fiber_table()
    mul = g._mul_idx
    n = g.n_arrows
    arrows = g.arrows
    units = g.units
    cap = MAX_WITNESSES_PER_AXIOM

    # unit arrows sit at their unit
    bad = np.flatnonzero((dom_i[unit_i] != np.arange(g.n_units)) | (rng_i[unit_i] != np.arange(g.n_units)))
    _collect(bucket, "unit-endpoints", [(units[i],) for i in bad])

    # compose defined exactly on composable pairs: empty slots and side
    # entries, merged in row-major (g, h) order
    sg, sh = ft.slot_pairs(np.flatnonzero(ft.table[:-1] < 0)[:cap], dom_i)
    keys = np.sort(np.concatenate((sg * n + sh, ft.side_keys[:cap])))
    _collect(bucket, "composability", [(arrows[k // n], arrows[k % n]) for k in keys])

    keys = np.sort(
        (p1 * n + p2)[(dom_i[p1] == rng_i[p2]) & ((dom_i[pp] != dom_i[p2]) | (rng_i[pp] != rng_i[p1]))]
    )
    _collect(bucket, "product-endpoints", [(arrows[k // n], arrows[k % n]) for k in keys[:cap]])

    # unit arrows act as two-sided identities
    idx = np.arange(n)
    bad = np.flatnonzero((mul(unit_i[rng_i], idx) != idx) | (mul(idx, unit_i[dom_i]) != idx))
    _collect(bucket, "identity", [(arrows[i],) for i in bad])

    # inverses: endpoints swap and compose to units
    bad = np.flatnonzero((dom_i[inv_i] != rng_i) | (rng_i[inv_i] != dom_i))
    _collect(bucket, "inverse-endpoints", [(arrows[i],) for i in bad])
    bad = np.flatnonzero((mul(idx, inv_i) != unit_i[rng_i]) | (mul(inv_i, idx) != unit_i[dom_i]))
    _collect(bucket, "inverse", [(arrows[i],) for i in bad])

    # associativity (gh)k = g(hk) over every defined (g, h) and every k
    # with rng k = dom h; pairs grouped by that middle unit, in unit order
    order = np.argsort(dom_i[p2], kind="stable")
    mid = dom_i[p2[order]]
    width = np.diff(ft.rstart)[mid]
    ends = np.cumsum(width)
    lo = 0
    while lo < len(order) and len(bucket["associativity"]) < cap:
        hi = max(int(np.searchsorted(ends, ends[lo] - width[lo] + _TRIPLE_BLOCK, "right")), lo + 1)
        e, w = order[lo:hi], width[lo:hi]
        # k runs over the range fiber of the middle unit, so pos[k] = local
        local = np.arange(w.sum()) - np.repeat(np.cumsum(w) - w, w)
        gg, hh = np.repeat(p1[e], w), np.repeat(p2[e], w)
        k = ft.rorder[np.repeat(ft.rstart[mid[lo:hi]], w) + local]
        hk = ft.table[np.repeat(ft.off[p2[e]], w) + local]
        # gh k is a table slot too unless dom gh != dom h (malformed input)
        near = dom_i[pp[e]] == mid[lo:hi]
        lhs = ft.table[np.repeat(np.where(near, ft.off[pp[e]], 0), w) + local]
        if not near.all():
            far = np.repeat(~near, w)
            lhs[far] = mul(np.repeat(pp[e], w)[far], k[far])
        rhs = np.where(hk >= 0, mul(gg, np.maximum(hk, 0)), -1)
        bad = np.flatnonzero(lhs != rhs)[:cap]
        _collect(bucket, "associativity", [(arrows[gg[i]], arrows[hh[i]], arrows[k[i]]) for i in bad])
        lo = hi
    return _report(bucket)


def _collect(bucket, axiom, witnesses):
    for w in witnesses:
        if len(bucket[axiom]) < MAX_WITNESSES_PER_AXIOM:
            bucket[axiom].append(Violation(axiom, w))


def _report(bucket) -> ValidationReport:
    out = []
    for axiom in sorted(bucket):
        out.extend(bucket[axiom])
    return ValidationReport(out)


# ---------------------------------------------------------------------------
# reduction / saturation / orbits


def unit_mask(g: FiniteGroupoid, a) -> np.ndarray:
    """Membership in A of each unit, in unit order (a boolean array)."""
    members = as_unit_subset(g, a).members
    return np.fromiter(map(members.__contains__, g.units), bool, g.n_units)


def reduction(g: FiniteGroupoid, a) -> FiniteGroupoid:
    """The full subgroupoid over A: arrows with both endpoints in A."""
    inside = unit_mask(g, a)
    keep = inside[g.dom_i] & inside[g.rng_i]
    pairs = keep[g.p1] & keep[g.p2]
    # malformed tables can lead from a kept entry to a dropped arrow: name
    # it as the id-table constructor would
    for name, ids, bad in [("unit_arrow", g.units, inside & ~keep[g.unit_i]),
                           ("inverse", g.arrows, keep & ~keep[g.inv_i])]:
        if bad.any():
            raise GroupoidError(f"{name} has out-of-range value at {ids[np.argmax(bad)]!r}")
    lost = np.flatnonzero(pairs & ~keep[g.pp])
    if len(lost):
        g1, g2, k = (g.arrows[t[lost[0]]] for t in (g.p1, g.p2, g.pp))
        raise GroupoidError(f"compose entry ({g1!r}, {g2!r}) -> {k!r} uses unknown arrow id")
    unit_at, arrow_at = np.cumsum(inside) - 1, np.cumsum(keep) - 1  # new index of each kept one
    return FiniteGroupoid._from_arrays(
        itertools.compress(g.units, inside.tolist()), itertools.compress(g.arrows, keep.tolist()),
        unit_at[g.dom_i[keep]], unit_at[g.rng_i[keep]], arrow_at[g.inv_i[keep]], arrow_at[g.unit_i[inside]],
        *(arrow_at[t[pairs]] for t in (g.p1, g.p2, g.pp)),
    )


def saturation(g: FiniteGroupoid, a) -> UnitSubset:
    """r(d^{-1}(A)): the union of all orbits meeting A."""
    sub = as_unit_subset(g, a)
    hit = np.zeros(g.n_units, bool)
    hit[g.rng_i[unit_mask(g, sub)[g.dom_i]]] = True
    return UnitSubset(g, sub.members | frozenset(itertools.compress(g.units, hit.tolist())))


def is_invariant(g: FiniteGroupoid, a) -> bool:
    sub = as_unit_subset(g, a)
    return saturation(g, sub).members == sub.members


# ---------------------------------------------------------------------------
# groups presented by multiplication tables


@dataclass(frozen=True, eq=False)  # compared by identity, as OrbitPartition is
class GroupTable:
    """A finite group as an explicit multiplication table.

    ``table[i, j]`` is the index of ``elements[i] * elements[j]`` in a read-only
    (n, n) int64 array; ``inverses`` and ``element_orders`` are cached read-only
    arrays over the same indices.  :meth:`from_table` and :meth:`from_mul` check the group laws.
    """

    elements: tuple
    table: np.ndarray
    identity: int

    def __post_init__(self):  # a view, so a caller's own array stays writeable
        object.__setattr__(self, "table", _read_only(np.asarray(self.table, np.int64).view()))

    @classmethod
    def from_mul(cls, elements, mul: Callable[[Any, Any], Any]) -> "GroupTable":
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        return cls.from_table(elements, [[index[mul(a, b)] for b in elements] for a in elements])

    @classmethod
    def from_table(cls, elements, table) -> "GroupTable":
        """The group whose ``table[i][j]`` is the index of elements[i] * elements[j]."""
        elements = tuple(elements)
        n = len(elements)
        try:
            table = np.array(table, np.int64)
        except ValueError:  # ragged rows
            table = np.zeros(0, np.int64)
        if table.shape != (n, n) or _non_groups(np.array([n]), np.zeros(n * n, np.int64),
                                                 *np.divmod(np.arange(n * n), n), table.ravel())[0]:
            raise GroupoidError("multiplication table is not a group")
        return cls(elements, table, int(np.argmax(table.diagonal() == np.arange(n))))  # the idempotent

    @classmethod
    def cyclic(cls, m: int) -> "GroupTable":
        if m < 1:
            raise GroupoidError("cyclic group order must be >= 1")
        return cls(tuple(range(m)), np.add.outer(np.arange(m), np.arange(m)) % m, 0)

    @classmethod
    def trivial(cls) -> "GroupTable":
        return cls.cyclic(1)

    @classmethod
    def product(cls, a: "GroupTable", b: "GroupTable") -> "GroupTable":
        n, size = b.order, a.order * b.order  # (x, y) has index x * n + y
        table = (a.table[:, None, :, None] * n + b.table[None, :, None, :]).reshape(size, size)
        return cls(tuple(itertools.product(a.elements, b.elements)), table, a.identity * n + b.identity)

    @classmethod
    def symmetric(cls, n: int) -> "GroupTable":
        perms = tuple(itertools.permutations(range(n)))
        return cls.from_mul(perms, lambda p, q: tuple(p[q[i]] for i in range(n)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        return self.elements[self.table[self.elements.index(a), self.elements.index(b)]]

    inverses = cached_property(lambda t: _read_only(np.argmax(t.table == t.identity, axis=1)))

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Per element x, the least k >= 1 with x^k the identity."""
        x = np.arange(self.order)
        orders, power = np.zeros(self.order, np.int64), x
        for k in range(1, self.order + 1):  # every order divides the group's
            orders[(orders == 0) & (power == self.identity)] = k
            power = self.table[power, x]
        return _read_only(orders)

    def inverse_index(self, i: int) -> int:
        return int(self.inverses[i])

    def order_profile(self) -> tuple:
        return tuple(sorted(self.element_orders.tolist()))

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _non_groups(n, o, a, b, val) -> np.ndarray:
    """Per table, whether it fails to be a group (closed, Latin, associative).

    Table i is the n[i] x n[i] block of ``val`` from the sum of n[k]^2 over
    k < i; val[j] is the product of elements a[j] and b[j] of table o[j].
    Associativity is walked for the first table of each order and those that
    differ from it; its copies, which a bundle repeats, share its verdict.
    """
    tstart, no = np.cumsum(n * n) - n * n, n[o]
    base, v = tstart[o], np.clip(val, 0, no - 1)
    row, col = np.zeros(len(v), bool), np.zeros(len(v), bool)
    row[base + a * no + v] = col[base + v * no + b] = True  # a permutation hits all of its row
    bad = n == 0
    bad[o[(val != v) | ~row | ~col]] = True
    ref = np.full(int(n.max(initial=0)) + 1, len(n))  # per order, its first table
    np.minimum.at(ref, n, np.arange(len(n)))
    walk = ref[n] == np.arange(len(n))
    walk[o[val != val[tstart[ref[no]] + a * no + b]]] = True
    cube = np.where(walk, n ** 3, 0)
    cstart, total = np.cumsum(cube) - cube, int(cube.sum())
    for lo in range(0, total, _TRIPLE_BLOCK):
        s = np.arange(lo, min(lo + _TRIPLE_BLOCK, total))
        i = np.searchsorted(cstart, s, "right") - 1
        k, t, local = n[i], tstart[i], s - cstart[i]
        x, y, z = local // (k * k), local // k % k, local % k
        bad[i[v[t + v[t + x * k + y] * k + z] != v[t + x * k + v[t + y * k + z]]]] = True
    return bad | bad[ref[n]] & ~walk


GROUP_ISO_SEARCH_CAP = 24


def find_group_isomorphism(a: GroupTable, b: GroupTable):
    """Explicit isomorphism search between small group tables.

    Returns an index map (tuple) or None.  Bounded to order <= 24.
    """
    if a.order != b.order:
        return None
    if a.order > GROUP_ISO_SEARCH_CAP:
        raise GroupoidError(f"group isomorphism search capped at order {GROUP_ISO_SEARCH_CAP}")
    if a.order_profile() != b.order_profile():
        return None
    n = a.order
    orders_a, orders_b = a.element_orders.tolist(), b.element_orders.tolist()
    ta, tb = a.table.tolist(), b.table.tolist()  # lists: reading the arrays per entry is 4x slower
    mapping = [-1] * n
    used = [False] * n
    mapping[a.identity] = b.identity
    used[b.identity] = True

    def consistent():  # where x, y and xy are all mapped, xy maps to the product of their images
        known = [i for i in range(n) if mapping[i] != -1]
        return all(mapping[ta[i][j]] in (-1, tb[mapping[i]][mapping[j]]) for i in known for j in known)

    def extend(i):
        if i == n:
            return True
        if mapping[i] != -1:  # the identity, mapped first
            return extend(i + 1)
        for j in range(n):
            if used[j] or orders_b[j] != orders_a[i]:
                continue
            mapping[i] = j
            used[j] = True
            if consistent() and extend(i + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    if extend(0):
        return tuple(mapping)
    return None


# ---------------------------------------------------------------------------
# orbits and isotropy


@dataclass(eq=False)  # compared by identity: the unit-indexed arrays have no single truth value
class OrbitPartition:
    """Orbit decomposition with one isotropy table per orbit.

    ``orbits`` partition the unit set; ``representatives[i]`` is the first
    unit of orbit i in unit order (unit index ``roots[i]``); ``isotropy[i]``
    is the table of its loops ``loops[loop_start[i]:loop_start[i + 1]]``
    (``slot`` maps loop k to k, other arrows and a trailing entry to -1),
    ``orders[i]`` counts them and ``isotropy_is_group[i]`` says if they form a group.
    ``orbit_index[y]`` is the orbit of unit y, ``transversal[y]`` the first
    arrow rep -> y (the unit arrow at the representative, -1 if none).  The
    tuples are built on first access; :meth:`coordinates` completes the
    structure-theorem map that :func:`structure_witness` certifies.
    """

    groupoid: FiniteGroupoid
    orbit_index: np.ndarray
    transversal: np.ndarray
    roots: np.ndarray
    loops: np.ndarray
    loop_start: np.ndarray
    slot: np.ndarray

    members = cached_property(lambda p: _group_by(p.orbit_index, len(p.roots), p.groupoid.n_units))
    orbits = cached_property(lambda p: tuple(frozenset(p.groupoid.units[i] for i in m) for m in p.members))
    representatives = cached_property(lambda p: tuple(p.groupoid.units[i] for i in p.roots))

    orders = cached_property(lambda p: np.diff(p.loop_start))
    isotropy_is_group = cached_property(lambda p: ~_non_groups(p.orders, *p._tables))

    @cached_property
    def isotropy(self) -> tuple:
        """Per orbit, the GroupTable of its loops; raises unless they form groups."""
        if not self.isotropy_is_group.all():
            raise GroupoidError("multiplication table is not a group")
        n, (_, a, b, val) = self.orders, self._tables
        arrows, ident = self.groupoid.arrows, a[(a == b) & (val == a)]  # each group's one idempotent
        return tuple(GroupTable(tuple(arrows[x] for x in self.loops[lo:lo + k]), val[t:t + k * k].reshape(k, k), int(e))
                     for lo, k, t, e in zip(self.loop_start, n, np.cumsum(n * n) - n * n, ident))

    def orbit_of(self, x) -> int:
        uidx = self.groupoid.unit_index()
        if x not in uidx:
            raise GroupoidError(f"unknown unit {x!r}")
        return int(self.orbit_index[uidx[x]])

    def coordinates(self) -> np.ndarray:
        """Per arrow a, the index of t_r^-1 a t_d in its orbit's isotropy table
        (-1 where it is not one of its loops: malformed tables only)."""
        return self._coordinates

    witness = cached_property(lambda p: _structure_witness(p))  # read through structure_witness

    @cached_property
    def _coordinates(self) -> np.ndarray:
        g, t, orbit = self.groupoid, self.transversal, self.orbit_index
        dom_i, rng_i, coords = g.dom_i, g.rng_i, np.full(g.n_arrows, -1, np.int64)
        idx = np.flatnonzero((t[dom_i] >= 0) & (t[rng_i] >= 0))
        left = g._mul_idx(g.inv_i[t[rng_i[idx]]], idx)
        gamma = np.where(left >= 0, g._mul_idx(np.maximum(left, 0), t[dom_i[idx]]), -1)
        coords[idx] = np.where(orbit[dom_i[gamma]] == orbit[dom_i[idx]], self.slot[gamma], -1)
        return coords

    @cached_property
    def _tables(self):
        """(o, a, b, val): the isotropy tables as :func:`_non_groups` reads them."""
        g, n = self.groupoid, self.orders
        o = np.repeat(np.arange(len(n)), n * n)
        a, b = np.divmod(np.arange(len(o)) - np.repeat(np.cumsum(n * n) - n * n, n * n), n[o])
        first = self.loop_start[o]
        prod = g._mul_idx(self.loops[first + a], self.loops[first + b])
        return o, a, b, np.where(self.orbit_index[g.dom_i[prod]] == o, self.slot[prod], -1)


def isotropy_table(g: FiniteGroupoid, x) -> GroupTable:
    """The group of the loops at unit x; raises unless they form one."""
    i = g.unit_index().get(x)
    if i is None:
        raise GroupoidError(f"unknown unit {x!r}")
    loops = np.flatnonzero((g.dom_i == i) & (g.rng_i == i))
    prod = g._mul_idx(loops[:, None], loops[None, :])  # -1 where undefined
    table = np.where(np.isin(prod, loops), np.searchsorted(loops, prod), -1)
    return GroupTable.from_table([g.arrows[a] for a in loops], table)


def orbits_and_isotropy(g: FiniteGroupoid, check: bool = True) -> OrbitPartition:
    """Partition the units into orbits (cached on g); isotropy tables, transversals.

    With ``check=True`` GroupoidError names the first failing step of
    :func:`structure_witness`, e.g. "orbit of x is not spanned by arrows
    from it" or "isotropy at y is not conjugate to isotropy at x".
    """
    if "orbit_partition" not in g._cache:
        dom_i, rng_i, unit_i = g.dom_i, g.rng_i, g.unit_i
        label = _min_labels(g.n_units, dom_i, rng_i)
        is_root = label == np.arange(g.n_units)
        roots, orbit = np.flatnonzero(is_root), (np.cumsum(is_root) - 1)[label]
        first = np.full(g.n_units, g.n_arrows)
        leaving = np.flatnonzero(is_root[dom_i])
        np.minimum.at(first, rng_i[leaving], leaving)
        transversal = np.where(first < g.n_arrows, first, -1)
        transversal[roots] = unit_i[roots]
        loops = np.flatnonzero((dom_i == rng_i) & is_root[dom_i])
        loops = loops[np.argsort(orbit[dom_i[loops]], kind="stable")]
        loop_start = np.searchsorted(orbit[dom_i[loops]], np.arange(len(roots) + 1))
        slot = np.full(g.n_arrows + 1, -1, np.int64)
        slot[loops] = np.arange(len(loops)) - loop_start[orbit[dom_i[loops]]]
        g._cache["orbit_partition"] = OrbitPartition(g, orbit, transversal, roots, loops, loop_start, slot)
    part = g._cache["orbit_partition"]
    if check and (w := structure_witness(g)) is not None:
        if w[-1] == "orbit not spanned":
            raise GroupoidError(f"orbit of {w[0]!r} is not spanned by arrows from it")
        if w[-1] == "isotropy not conjugate":
            rep = part.representatives[part.orbit_of(w[0])]
            raise GroupoidError(f"isotropy at {w[0]!r} is not conjugate to isotropy at {rep!r}")
        raise GroupoidError(f"groupoid fails the structure certificate: {w!r}")
    return part


def _min_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The least node of each node's component under the edges src[k] -- dst[k]."""
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, src, label[dst])
        np.minimum.at(low, dst, label[src])
        low = low[low]
        if (low == label).all():
            return label
        label = low


def structure_witness(g: FiniteGroupoid):
    """None when g is the disjoint union over its orbits of Pair(orbit) x isotropy.

    Brandt's structure theorem (R. Brown, *Topology and Groupoids*, 2006):
    then a -> (r(a), gamma(a) = t_r^-1 a t_d, d(a)) is an isomorphism onto
    the model, (z, gamma, y)(y, gamma', x) = (z, gamma gamma', x), and every
    axiom holds.  Else the witness of the first failing step: 1. each orbit
    is spanned from its representative, (rep, "orbit not spanned"); 2. whose
    loops form a group, (rep, "isotropy not a group"); 3. the loops at each
    unit map onto it bijectively, (y, "isotropy not conjugate"); 4. every
    gamma(a) is defined, (a, "not in isotropy"); 5. the map is bijective,
    ("count", model arrows); 6. units go to (y, e, y), inverses to inverses,
    (y, "unit") or (a, "inverse"); 7. compose is defined on exactly the
    composable pairs, (g, h, "composability"); 8. products map to products,
    (g, h, "endpoints" or "fiber product").  Array code; cached on g.
    """
    return orbits_and_isotropy(g, check=False).witness


def _structure_witness(part: OrbitPartition):
    g = part.groupoid
    units, arrows, nu, na = g.units, g.arrows, g.n_units, g.n_arrows
    dom_i, rng_i, inv_i, unit_i = g.dom_i, g.rng_i, g.inv_i, g.unit_i
    orbit, t, roots = part.orbit_index, part.transversal, part.roots
    if (t < 0).any():
        return (units[roots[orbit[t < 0].min()]], "orbit not spanned")
    n, val = part.orders, part._tables[3]
    tstart, width = np.cumsum(n * n) - n * n, int(n.max(initial=0)) + 1
    if not (ok := part.isotropy_is_group).all():
        return (units[roots[np.argmin(ok)]], "isotropy not a group")

    coords = part.coordinates()
    expected = int((np.bincount(orbit, minlength=len(n)) ** 2 * n).sum())
    key = np.sort((rng_i * nu + dom_i) * width + coords)
    if (coords < 0).any() or na != expected or (key[1:] == key[:-1]).any():
        # 4 and 5 imply 3, checked here to name the first failure: the loops
        # at a unit hit each isotropy index once (by orbit, then transversal)
        y, c = dom_i[dom_i == rng_i], coords[dom_i == rng_i]
        key, count = np.sort(y[c >= 0] * width + c[c >= 0]), np.bincount(y, minlength=nu)
        bad = (count != n[orbit]) | (np.bincount(key[np.diff(key, prepend=-1) != 0] // width, minlength=nu) != count)
        if bad.any():
            first = orbit[bad].min()
            y = min(np.flatnonzero(bad & (orbit == first)), key=lambda u: (u != roots[first], t[u]))
            return (units[y], "isotropy not conjugate")
        if (coords < 0).any():
            return (arrows[np.argmax(coords < 0)], "not in isotropy")
        return ("count", expected)

    bad = (dom_i[unit_i] != np.arange(nu)) | (rng_i[unit_i] != np.arange(nu))
    if not bad.any():  # the unit arrows of an orbit share one idempotent coordinate, e
        e = coords[unit_i[roots]][orbit]
        bad = (coords[unit_i] != e) | (val[tstart[orbit] + e * (n[orbit] + 1)] != e)
    if bad.any():
        return (units[np.argmax(bad)], "unit")
    row = tstart[orbit[dom_i]] + coords * n[orbit[dom_i]]  # row[a] + c: the slot of gamma(a) c
    swap = (dom_i[inv_i] == rng_i) & (rng_i[inv_i] == dom_i)  # else inv_i may lie in another orbit
    bad = ~swap | (val[row + np.where(swap, coords[inv_i], 0)] != e[dom_i])
    if bad.any():
        return (arrows[np.argmax(bad)], "inverse")

    ft = g._fiber_table()
    empty = np.flatnonzero(ft.table[:-1] < 0)[:1]
    if len(empty) or len(ft.side_keys):
        sg, sh = ft.slot_pairs(empty, dom_i)
        k = int(np.concatenate((sg * na + sh, ft.side_keys[:1])).min())
        return (arrows[k // na], arrows[k % na], "composability")
    p1, p2, pp = g.p1, g.p2, g.pp
    ends = (rng_i[pp] == rng_i[p1]) & (dom_i[pp] == dom_i[p2])
    bad = np.flatnonzero(~ends | (val[row[p1] + coords[p2]] != coords[pp]))
    if len(bad):
        return (arrows[p1[bad[0]]], arrows[p2[bad[0]]], "fiber product" if ends[bad[0]] else "endpoints")
    return None


# ---------------------------------------------------------------------------
# builders


def build_pair(units) -> FiniteGroupoid:
    """Pair groupoid: one arrow (x, y) from y to x for every unit pair.

    Arrow (x, y) has index x * n + y; compose runs over (x, y, z) in
    order, ((x, y), (y, z)) -> (x, z).
    """
    units = tuple(units)
    n = len(units)
    if len(set(units)) != n:
        raise GroupoidError("duplicate unit ids")
    arrow = np.arange(n * n)
    r, d = np.divmod(arrow, n)
    p1, p2 = np.repeat(arrow, n), np.tile(arrow, n)
    return FiniteGroupoid._from_arrays(
        units, [(x, y) for x in units for y in units],
        d, r, d * n + r, np.arange(n) * (n + 1),
        p1, p2, p1 - p1 % n + p2 % n,
    )


def build_group_bundle(base_units, group: GroupTable) -> FiniteGroupoid:
    """Bundle of groups over a discrete base: dom = rng everywhere.

    Arrow (x, e) has index x * |G| + e; compose runs over (x, a, b) in
    order, ((x, a), (x, b)) -> (x, ab).
    """
    base_units = tuple(base_units)
    n, k = len(base_units), group.order
    if len(set(base_units)) != n:
        raise GroupoidError("duplicate unit ids")
    base, e = np.divmod(np.arange(n * k), k)
    p1, b = np.repeat(np.arange(n * k), k), np.tile(np.arange(k), n * k)
    fiber = p1 - p1 % k
    return FiniteGroupoid._from_arrays(
        base_units, [(x, a) for x in base_units for a in group.elements],
        base, base, base * k + group.inverses[e], np.arange(n) * k + group.identity,
        p1, fiber + b, fiber + group.table[p1 % k, b],
    )


def build_action(group: GroupTable, points, act: Callable[[Any, Any], Any]) -> FiniteGroupoid:
    """Action groupoid of a right action: arrows (x, g), r = x, d = x.g^{-1}.

    Arrow (x, h) has index x * |G| + h; compose runs over (x, h, e) in
    order, ((x, h), (x.h^{-1}, e)) -> (x, eh).  ``act(x, g)`` must be a
    genuine right action on the points: x.e = x and (x.g).h = x.(gh).
    These laws are the unit and product endpoints of the tables, so a
    violation raises through :func:`structure_witness`.
    """
    points = tuple(points)
    index, k, m = _index(points), len(points), group.order
    if len(index) != k:
        raise GroupoidError("duplicate unit ids")
    table, inv = group.table, group.inverses
    dom = np.fromiter((index.get(act(x, group.elements[i]), -1) for x in points for i in inv), np.int64, k * m)
    if (dom < 0).any():
        raise GroupoidError("action leaves the point set")
    rng, h = np.divmod(np.arange(k * m), m)
    p1, e = np.repeat(np.arange(k * m), m), np.tile(np.arange(m), k * m)
    g = FiniteGroupoid._from_arrays(
        points, [(x, a) for x in points for a in group.elements], dom, rng, dom * m + inv[h],
        np.arange(k) * m + group.identity, p1, dom[p1] * m + e, rng[p1] * m + table[e, h[p1]],
    )
    if (witness := structure_witness(g)) is not None:
        raise GroupoidError(f"not a right action: {witness!r}")
    return g


def build_product(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    """Product groupoid with componentwise structure.

    Pairs are ordered g-major: (x, y) has index x * |h| + y, and compose
    runs over the entries of g, then of h.
    """
    def pairs(a, b, size):
        return np.add.outer(a * size, b).ravel()

    nu, na = h.n_units, h.n_arrows
    return FiniteGroupoid._from_arrays(
        [(x, y) for x in g.units for y in h.units],
        [(a, b) for a in g.arrows for b in h.arrows],
        pairs(g.dom_i, h.dom_i, nu), pairs(g.rng_i, h.rng_i, nu),
        pairs(g.inv_i, h.inv_i, na), pairs(g.unit_i, h.unit_i, na),
        pairs(g.p1, h.p1, na), pairs(g.p2, h.p2, na), pairs(g.pp, h.pp, na),
    )


def build_fibered_pullback(f: Mapping, h: FiniteGroupoid) -> FiniteGroupoid:
    """Fibered pull-back of h along f: arrows (x, g, y) with f(x)=r(g), f(y)=d(g)."""
    points = tuple(f.keys())
    values = set(f.values())
    if not values <= set(h.units):
        raise GroupoidError("f does not map into the units of the base groupoid")
    if values != set(h.units):
        raise GroupoidError("f is not surjective onto the base units")
    arrows = [
        (x, a, y)
        for x in points
        for a in h.arrows
        for y in points
        if f[x] == h.rng[a] and f[y] == h.dom[a]
    ]
    compose = {}
    by_rng: dict = {}
    for arr in arrows:
        by_rng.setdefault(arr[0], []).append(arr)
    for x, a, y in arrows:
        # second factors are exactly the arrows with range y; their base
        # arrow is then automatically composable with a
        for (_, b, z) in by_rng.get(y, []):
            compose[((x, a, y), (y, b, z))] = (x, h.mul(a, b), z)
    return FiniteGroupoid(
        units=points,
        arrows=arrows,
        dom={(x, a, y): y for (x, a, y) in arrows},
        rng={(x, a, y): x for (x, a, y) in arrows},
        unit_arrow={x: (x, h.unit_arrow[f[x]], x) for x in points},
        inverse={(x, a, y): (y, h.inverse[a], x) for (x, a, y) in arrows},
        compose=compose,
    )


def build_disjoint_union(parts: Iterable[FiniteGroupoid]) -> FiniteGroupoid:
    """Disjoint union; ids are tagged (part_index, original_id)."""
    parts = list(parts)
    unit_off = np.cumsum([0] + [g.n_units for g in parts])
    arrow_off = np.cumsum([0] + [g.n_arrows for g in parts])

    def joined(name, off):
        return np.concatenate([np.zeros(0, np.int64)] + [getattr(g, name) + o for g, o in zip(parts, off)])

    return FiniteGroupoid._from_arrays(
        [(i, x) for i, g in enumerate(parts) for x in g.units],
        [(i, a) for i, g in enumerate(parts) for a in g.arrows],
        joined("dom_i", unit_off), joined("rng_i", unit_off),
        *(joined(name, arrow_off) for name in ("inv_i", "unit_i", "p1", "p2", "pp")),
    )


def relabel(g: FiniteGroupoid, unit_map: Mapping, arrow_map: Mapping) -> FiniteGroupoid:
    """Rename units and arrows through bijections (values must be fresh ids)."""
    um = dict(unit_map)
    am = dict(arrow_map)
    if len(set(um.values())) != len(um) or len(set(am.values())) != len(am):
        raise GroupoidError("relabel maps must be injective")
    return FiniteGroupoid._from_arrays(
        [um[x] for x in g.units], [am[a] for a in g.arrows],
        g.dom_i, g.rng_i, g.inv_i, g.unit_i, g.p1, g.p2, g.pp,
    )


BUILD_KINDS = ("pair", "group_bundle", "action", "product", "fibered_pullback")


def build(kind: str, **params) -> FiniteGroupoid:
    """Dispatch to the named construction."""
    if kind == "pair":
        if "n" in params:
            return build_pair(range(params["n"]))
        return build_pair(params["units"])
    if kind == "group_bundle":
        return build_group_bundle(params["base_units"], params["group"])
    if kind == "action":
        return build_action(params["group"], params["points"], params["act"])
    if kind == "product":
        return build_product(params["left"], params["right"])
    if kind == "fibered_pullback":
        return build_fibered_pullback(params["f"], params["base"])
    raise GroupoidError(f"unknown construction kind {kind!r}; expected one of {BUILD_KINDS}")
