"""Finite groupoids as explicit structure tables.

A finite groupoid is a small category in which every morphism is
invertible.  We store one as explicit tables over opaque unit and arrow
ids: domain, range, unit arrows, inverse, and a partial composition map
defined exactly on composable pairs.  The topology is discrete, so
"open subset" means arbitrary unit subset and every topological
hypothesis of the continuum picture is checkable.

All operations are pure functions; instances are treated as immutable
after construction (internal caches are derived data only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

import numpy as np

UnitId = Hashable
ArrowId = Hashable

# Composition is kept as a sparse map (dict).  Vectorised work goes through
# a fiber-indexed table with one slot per composable pair (see
# FiniteGroupoid._fiber_table), so it scales with |compose|, not n_arrows².

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

    The constructor checks only structural well-formedness (totality of
    the tables, values in range).  Semantic axioms are the business of
    :func:`validate`, which reports violations instead of raising.
    """

    def __init__(self, units, arrows, dom, rng, unit_arrow, inverse, compose):
        self.units = tuple(units)
        self.arrows = tuple(arrows)
        self.dom = dict(dom)
        self.rng = dict(rng)
        self.unit_arrow = dict(unit_arrow)
        self.inverse = dict(inverse)
        self.compose = dict(compose)
        self._cache: dict[str, Any] = {}
        self._check_tables()

    # -- construction-time structural checks ---------------------------------

    def _check_tables(self):
        if len(set(self.units)) != len(self.units):
            raise GroupoidError("duplicate unit ids")
        if len(set(self.arrows)) != len(self.arrows):
            raise GroupoidError("duplicate arrow ids")
        unit_set, arrow_set = set(self.units), set(self.arrows)
        for name, table, keys, values in [
            ("dom", self.dom, arrow_set, unit_set),
            ("rng", self.rng, arrow_set, unit_set),
            ("unit_arrow", self.unit_arrow, unit_set, arrow_set),
            ("inverse", self.inverse, arrow_set, arrow_set),
        ]:
            if set(table) != keys:
                missing = keys - set(table)
                extra = set(table) - keys
                raise GroupoidError(
                    f"{name} table keys do not match: missing={sorted(map(repr, missing))[:3]} "
                    f"extra={sorted(map(repr, extra))[:3]}"
                )
            bad = [k for k, v in table.items() if v not in values]
            if bad:
                raise GroupoidError(f"{name} has out-of-range value at {bad[0]!r}")
        for (g, h), k in self.compose.items():
            if g not in arrow_set or h not in arrow_set or k not in arrow_set:
                raise GroupoidError(f"compose entry ({g!r}, {h!r}) -> {k!r} uses unknown arrow id")

    # -- basic accessors ------------------------------------------------------

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def d(self, g):
        return self.dom[g]

    def r(self, g):
        return self.rng[g]

    def u(self, x):
        return self.unit_arrow[x]

    def inv(self, g):
        return self.inverse[g]

    def is_composable(self, g, h) -> bool:
        return self.dom[g] == self.rng[h]

    def mul(self, g, h):
        try:
            return self.compose[(g, h)]
        except KeyError:
            raise GroupoidError(f"arrows {g!r} and {h!r} are not composable") from None

    def unit_index(self) -> dict:
        if "uidx" not in self._cache:
            self._cache["uidx"] = {x: i for i, x in enumerate(self.units)}
        return self._cache["uidx"]

    def arrow_index(self) -> dict:
        if "aidx" not in self._cache:
            self._cache["aidx"] = {a: i for i, a in enumerate(self.arrows)}
        return self._cache["aidx"]

    # -- derived index arrays --------------------------------------------------

    def _arrays(self):
        """Integer-index views (dom, rng, inv, unit_of) used by hot loops."""
        if "arrays" not in self._cache:
            uidx, aidx = self.unit_index(), self.arrow_index()
            dom_i = np.fromiter((uidx[self.dom[a]] for a in self.arrows), np.int64, self.n_arrows)
            rng_i = np.fromiter((uidx[self.rng[a]] for a in self.arrows), np.int64, self.n_arrows)
            inv_i = np.fromiter((aidx[self.inverse[a]] for a in self.arrows), np.int64, self.n_arrows)
            unit_i = np.fromiter((aidx[self.unit_arrow[x]] for x in self.units), np.int64, self.n_units)
            self._cache["arrays"] = (dom_i, rng_i, inv_i, unit_i)
        return self._cache["arrays"]

    def _pair_arrays(self):
        """Composition as parallel index arrays (g, h, gh) over defined pairs."""
        if "pairs" not in self._cache:
            index = self.arrow_index().__getitem__
            m = len(self.compose)
            keys = np.fromiter(map(index, itertools.chain.from_iterable(self.compose)), np.int64, 2 * m)
            pp = np.fromiter(map(index, self.compose.values()), np.int64, m)
            self._cache["pairs"] = (keys[0::2], keys[1::2], pp)
        return self._cache["pairs"]

    def _fiber_table(self) -> "_FiberTable":
        """Composition indexed by composable pair, one slot per pair."""
        if "ftable" not in self._cache:
            dom_i, rng_i, _, _ = self._arrays()
            n = self.n_arrows
            rorder = np.argsort(rng_i, kind="stable")
            rstart = np.searchsorted(rng_i[rorder], np.arange(self.n_units + 1))
            pos = np.empty(n, np.int64)
            pos[rorder] = np.arange(n) - rstart[rng_i[rorder]]
            off = np.concatenate(([0], np.cumsum(np.diff(rstart)[dom_i])))
            table = np.full(off[-1] + 1, -1, np.int64)
            p1, p2, pp = self._pair_arrays()
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
        a, b = np.broadcast_arrays(np.asarray(a, np.int64), np.asarray(b, np.int64))
        dom_i, rng_i, _, _ = self._arrays()
        ft = self._fiber_table()
        ok = dom_i[a] == rng_i[b]
        out = ft.table[np.where(ok, ft.off[a] + ft.pos[b], len(ft.table) - 1)]
        if len(ft.side_keys):
            keys = a[~ok] * self.n_arrows + b[~ok]
            j = np.minimum(np.searchsorted(ft.side_keys, keys), len(ft.side_keys) - 1)
            out[~ok] = np.where(ft.side_keys[j] == keys, ft.side_vals[j], -1)
        return out

    def _fibers_by_dom(self):
        """Per unit index, the array of arrow indices with that domain."""
        if "dfibers" not in self._cache:
            dom_i, _, _, _ = self._arrays()
            self._cache["dfibers"] = _group_by(dom_i, self.n_units, self.n_arrows)
        return self._cache["dfibers"]

    def __repr__(self):
        return f"FiniteGroupoid(units={self.n_units}, arrows={self.n_arrows})"

    def same_tables(self, other: "FiniteGroupoid") -> bool:
        """Literal table equality (not isomorphism)."""
        return (
            self.units == other.units
            and self.arrows == other.arrows
            and self.dom == other.dom
            and self.rng == other.rng
            and self.unit_arrow == other.unit_arrow
            and self.inverse == other.inverse
            and self.compose == other.compose
        )


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
    axiom); it is empty exactly when all invariants hold.  Violations are
    report entries, not exceptions.  Every check is array code over the
    fiber-indexed composition table, so there is no size cap.
    """
    from collections import defaultdict

    bucket = defaultdict(list)
    dom_i, rng_i, inv_i, unit_i = g._arrays()
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

    p1, p2, pp = g._pair_arrays()
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
    dom_i, rng_i, _, _ = g._arrays()
    inside = unit_mask(g, a)
    keep = inside[dom_i] & inside[rng_i]
    p1, p2, _ = g._pair_arrays()
    keep_units = list(itertools.compress(g.units, inside.tolist()))
    arrows = list(itertools.compress(g.arrows, keep.tolist()))
    return FiniteGroupoid(
        units=keep_units,
        arrows=arrows,
        dom={x: g.dom[x] for x in arrows},
        rng={x: g.rng[x] for x in arrows},
        unit_arrow={x: g.unit_arrow[x] for x in keep_units},
        inverse={x: g.inverse[x] for x in arrows},
        compose=itertools.compress(g.compose.items(), (keep[p1] & keep[p2]).tolist()),
    )


def saturation(g: FiniteGroupoid, a) -> UnitSubset:
    """r(d^{-1}(A)): the union of all orbits meeting A."""
    sub = as_unit_subset(g, a)
    dom_i, rng_i, _, _ = g._arrays()
    hit = np.zeros(g.n_units, bool)
    hit[rng_i[unit_mask(g, sub)[dom_i]]] = True
    return UnitSubset(g, sub.members | frozenset(itertools.compress(g.units, hit.tolist())))


def is_invariant(g: FiniteGroupoid, a) -> bool:
    sub = as_unit_subset(g, a)
    return saturation(g, sub).members == sub.members


# ---------------------------------------------------------------------------
# groups presented by multiplication tables


@dataclass(frozen=True)
class GroupTable:
    """A finite group as an explicit multiplication table.

    ``table[i][j]`` is the index of ``elements[i] * elements[j]``.
    """

    elements: tuple
    table: tuple
    identity: int

    @classmethod
    def from_mul(cls, elements, mul: Callable[[Any, Any], Any]) -> "GroupTable":
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        table = tuple(
            tuple(index[mul(a, b)] for b in elements) for a in elements
        )
        identity = None
        n = len(elements)
        for e in range(n):
            if all(table[e][x] == x == table[x][e] for x in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupoidError("multiplication table has no identity")
        g = cls(elements, table, identity)
        g._check_group()
        return g

    @classmethod
    def cyclic(cls, m: int) -> "GroupTable":
        if m < 1:
            raise GroupoidError("cyclic group order must be >= 1")
        return cls.from_mul(range(m), lambda a, b: (a + b) % m)

    @classmethod
    def trivial(cls) -> "GroupTable":
        return cls.cyclic(1)

    @classmethod
    def product(cls, a: "GroupTable", b: "GroupTable") -> "GroupTable":
        elems = tuple(itertools.product(a.elements, b.elements))
        ia = {e: i for i, e in enumerate(a.elements)}
        ib = {e: i for i, e in enumerate(b.elements)}

        def mul(p, q):
            return (
                a.elements[a.table[ia[p[0]]][ia[q[0]]]],
                b.elements[b.table[ib[p[1]]][ib[q[1]]]],
            )

        return cls.from_mul(elems, mul)

    @classmethod
    def symmetric(cls, n: int) -> "GroupTable":
        perms = tuple(itertools.permutations(range(n)))
        return cls.from_mul(perms, lambda p, q: tuple(p[q[i]] for i in range(n)))

    def _check_group(self):
        n = self.order
        for a in range(n):
            if sorted(self.table[a]) != list(range(n)) or sorted(
                self.table[x][a] for x in range(n)
            ) != list(range(n)):
                raise GroupoidError("table is not a Latin square")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise GroupoidError("table is not associative")

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        i = self.elements.index(a)
        j = self.elements.index(b)
        return self.elements[self.table[i][j]]

    def mul_index(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse_index(self, i: int) -> int:
        return self.table[i].index(self.identity)

    def element_order(self, i: int) -> int:
        k, cur = 1, i
        while cur != self.identity:
            cur = self.table[cur][i]
            k += 1
        return k

    def order_profile(self) -> tuple:
        return tuple(sorted(self.element_order(i) for i in range(self.order)))

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n))


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
    orders_a = [a.element_order(i) for i in range(n)]
    orders_b = [b.element_order(i) for i in range(n)]
    mapping = [-1] * n
    used = [False] * n
    mapping[a.identity] = b.identity
    used[b.identity] = True

    def extend(i):
        if i == n:
            return True
        if i == a.identity:
            return extend(i + 1)
        if mapping[i] != -1:
            return extend(i + 1)
        for j in range(n):
            if used[j] or orders_b[j] != orders_a[i]:
                continue
            mapping[i] = j
            used[j] = True
            if _consistent(a, b, mapping) and extend(i + 1):
                return True
            mapping[i] = -1
            used[j] = False
        return False

    if extend(0):
        return tuple(mapping)
    return None


def _consistent(a: GroupTable, b: GroupTable, mapping) -> bool:
    n = a.order
    for i in range(n):
        if mapping[i] == -1:
            continue
        for j in range(n):
            if mapping[j] == -1:
                continue
            k = a.table[i][j]
            if mapping[k] != -1 and b.table[mapping[i]][mapping[j]] != mapping[k]:
                return False
    return True


# ---------------------------------------------------------------------------
# orbits and isotropy


@dataclass(eq=False)  # compared by identity: the unit-indexed arrays have no single truth value
class OrbitPartition:
    """Orbit decomposition with one isotropy table per orbit.

    ``orbits`` partition the unit set; ``representatives[i]`` is the first
    unit of orbit i in the groupoid's unit order; ``isotropy[i]`` is the
    multiplication table of the loops at that representative.

    The arrays are indexed by unit index: ``orbit_index[y]`` is the orbit
    of y and ``transversal[y]`` the arrow index of t_y, the first arrow
    rep -> y in arrow order (the unit arrow at the representative itself,
    -1 where no arrow from the representative reaches y).  With
    :meth:`coordinates` they give the structure-theorem map
    a -> (orbit, r(a), t_r^-1 a t_d, d(a)) onto Pair(orbit) x isotropy.
    """

    groupoid: FiniteGroupoid
    orbits: tuple
    representatives: tuple
    isotropy: tuple
    orbit_index: np.ndarray
    transversal: np.ndarray

    def orbit_of(self, x) -> int:
        uidx = self.groupoid.unit_index()
        if x not in uidx:
            raise GroupoidError(f"unknown unit {x!r}")
        return int(self.orbit_index[uidx[x]])

    def coordinates(self) -> np.ndarray:
        """Per arrow a, the index of t_r^-1 a t_d in its orbit's isotropy table.

        -1 where the product is undefined or not a loop of that table
        (malformed tables only).  Cached on the groupoid.
        """
        g = self.groupoid
        if "orbit_coords" not in g._cache:
            dom_i, rng_i, inv_i, _ = g._arrays()
            t, aidx = self.transversal, g.arrow_index()
            slot = np.full(g.n_arrows + 1, -1, np.int64)  # trailing slot for gamma = -1
            owner = np.full(g.n_arrows + 1, -1, np.int64)
            for i, table in enumerate(self.isotropy):
                loops = [aidx[x] for x in table.elements]
                slot[loops], owner[loops] = np.arange(len(loops)), i
            coords = np.full(g.n_arrows, -1, np.int64)
            idx = np.flatnonzero((t[dom_i] >= 0) & (t[rng_i] >= 0))
            left = g._mul_idx(inv_i[t[rng_i[idx]]], idx)
            gamma = np.where(left >= 0, g._mul_idx(np.maximum(left, 0), t[dom_i[idx]]), -1)
            own = owner[gamma] == self.orbit_index[dom_i[idx]]
            coords[idx] = np.where(own, slot[gamma], -1)
            g._cache["orbit_coords"] = coords
        return g._cache["orbit_coords"]


def isotropy_arrows(g: FiniteGroupoid, x) -> list:
    return [a for a in g.arrows if g.dom[a] == x and g.rng[a] == x]


def isotropy_table(g: FiniteGroupoid, x) -> GroupTable:
    return GroupTable.from_mul(isotropy_arrows(g, x), g.mul)


def orbits_and_isotropy(g: FiniteGroupoid, check: bool = True) -> OrbitPartition:
    """Partition the units into orbits; attach isotropy tables and transversals.

    With ``check=True`` every orbit is verified to be spanned by arrows
    from its representative, and the loops at each unit to map
    bijectively onto the representative's isotropy under conjugation by
    the transversal.
    """
    dom_i, rng_i, _, unit_i = g._arrays()
    roots, orbit_index = np.unique(_min_labels(g.n_units, dom_i, rng_i), return_inverse=True)
    members = _group_by(orbit_index, len(roots), g.n_units)
    is_root = np.zeros(g.n_units, bool)
    is_root[roots] = True

    transversal = np.full(g.n_units, -1, np.int64)
    leaving = np.flatnonzero(is_root[dom_i])
    targets, first = np.unique(rng_i[leaving], return_index=True)
    transversal[targets] = leaving[first]
    transversal[roots] = unit_i[roots]

    loops = np.flatnonzero((dom_i == rng_i) & is_root[dom_i])
    loops_by_orbit = _group_by(orbit_index[dom_i[loops]], len(roots), len(loops))
    part = OrbitPartition(
        g,
        tuple(frozenset(g.units[i] for i in m) for m in members),
        tuple(g.units[i] for i in roots),
        tuple(GroupTable.from_mul([g.arrows[a] for a in loops[ls]], g.mul) for ls in loops_by_orbit),
        orbit_index,
        transversal,
    )
    if check:
        _check_isotropy_conjugation(part)
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


def _check_isotropy_conjugation(part: OrbitPartition):
    # the loops at each unit must hit every isotropy index exactly once
    g = part.groupoid
    dom_i, rng_i, _, _ = g._arrays()
    t, orbit = part.transversal, part.orbit_index
    loops = np.flatnonzero(dom_i == rng_i)
    y, c = dom_i[loops], part.coordinates()[loops]
    order = np.array([table.order for table in part.isotropy], np.int64)
    width = int(order.max(initial=0)) + 1
    count = np.bincount(y, minlength=g.n_units)
    distinct = np.bincount(np.unique(y[c >= 0] * width + c[c >= 0]) // width, minlength=g.n_units)
    bad = (t >= 0) & ((count != order[orbit]) | (distinct != count))
    failing = orbit[(t < 0) | bad]
    if not len(failing):
        return
    # report as a walk would: orbits in order, spanning before conjugation,
    # units in transversal order with the representative first
    first = failing.min()
    rep = part.representatives[first]
    if (t[orbit == first] < 0).any():
        raise GroupoidError(f"orbit of {rep!r} is not spanned by arrows from it")
    y = min(np.flatnonzero(bad & (orbit == first)), key=lambda u: (g.units[u] != rep, t[u]))
    raise GroupoidError(f"isotropy at {g.units[y]!r} is not conjugate to isotropy at {rep!r}")


# ---------------------------------------------------------------------------
# builders


def build_pair(units) -> FiniteGroupoid:
    """Pair groupoid: one arrow (x, y) from y to x for every unit pair."""
    units = tuple(units)
    arrows = [(x, y) for x in units for y in units]
    compose = {}
    for x in units:
        for y in units:
            for z in units:
                compose[((x, y), (y, z))] = (x, z)
    return FiniteGroupoid(
        units=units,
        arrows=arrows,
        dom={(x, y): y for (x, y) in arrows},
        rng={(x, y): x for (x, y) in arrows},
        unit_arrow={x: (x, x) for x in units},
        inverse={(x, y): (y, x) for (x, y) in arrows},
        compose=compose,
    )


def build_group_bundle(base_units, group: GroupTable) -> FiniteGroupoid:
    """Bundle of groups over a discrete base: dom = rng everywhere."""
    base_units = tuple(base_units)
    arrows = [(x, e) for x in base_units for e in group.elements]
    compose = {}
    for x in base_units:
        for a in group.elements:
            for b in group.elements:
                compose[((x, a), (x, b))] = (x, group.mul(a, b))
    ident = group.elements[group.identity]
    return FiniteGroupoid(
        units=base_units,
        arrows=arrows,
        dom={(x, e): x for (x, e) in arrows},
        rng={(x, e): x for (x, e) in arrows},
        unit_arrow={x: (x, ident) for x in base_units},
        inverse={
            (x, e): (x, group.elements[group.inverse_index(group.elements.index(e))])
            for (x, e) in arrows
        },
        compose=compose,
    )


def build_action(group: GroupTable, points, act: Callable[[Any, Any], Any]) -> FiniteGroupoid:
    """Action groupoid of a right action: arrows (x, g), r = x, d = x.g^{-1}.

    ``act(x, g)`` must be a genuine right action: x.e = x and
    (x.g).h = x.(gh); this is verified and violations raise.
    """
    points = tuple(points)
    ident = group.elements[group.identity]
    for x in points:
        if act(x, ident) != x:
            raise GroupoidError(f"not an action: {x!r} . identity != {x!r}")
        if act(x, ident) not in points:
            raise GroupoidError("action leaves the point set")
    for x in points:
        for a in group.elements:
            if act(x, a) not in points:
                raise GroupoidError("action leaves the point set")
            for b in group.elements:
                if act(act(x, a), b) != act(x, group.mul(a, b)):
                    raise GroupoidError(
                        f"not a right action at point {x!r} with {a!r}, {b!r}"
                    )

    def ginv(e):
        return group.elements[group.inverse_index(group.elements.index(e))]

    arrows = [(x, e) for x in points for e in group.elements]
    compose = {}
    for x, h in arrows:
        y = act(x, ginv(h))
        for e in group.elements:
            # (x, h)(x.h^{-1}, e) = (x, eh)
            compose[((x, h), (y, e))] = (x, group.mul(e, h))
    return FiniteGroupoid(
        units=points,
        arrows=arrows,
        dom={(x, e): act(x, ginv(e)) for (x, e) in arrows},
        rng={(x, e): x for (x, e) in arrows},
        unit_arrow={x: (x, ident) for x in points},
        inverse={(x, e): (act(x, ginv(e)), ginv(e)) for (x, e) in arrows},
        compose=compose,
    )


def build_product(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    """Product groupoid with componentwise structure."""
    units = [(x, y) for x in g.units for y in h.units]
    arrows = [(a, b) for a in g.arrows for b in h.arrows]
    compose = {}
    for (a1, b1), k1 in g.compose.items():
        for (a2, b2), k2 in h.compose.items():
            compose[((a1, a2), (b1, b2))] = (k1, k2)
    return FiniteGroupoid(
        units=units,
        arrows=arrows,
        dom={(a, b): (g.dom[a], h.dom[b]) for (a, b) in arrows},
        rng={(a, b): (g.rng[a], h.rng[b]) for (a, b) in arrows},
        unit_arrow={(x, y): (g.unit_arrow[x], h.unit_arrow[y]) for (x, y) in units},
        inverse={(a, b): (g.inverse[a], h.inverse[b]) for (a, b) in arrows},
        compose=compose,
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
    units, arrows, dom, rng, unit_arrow, inverse, compose = [], [], {}, {}, {}, {}, {}
    for i, g in enumerate(parts):
        units.extend((i, x) for x in g.units)
        arrows.extend((i, a) for a in g.arrows)
        dom.update({(i, a): (i, g.dom[a]) for a in g.arrows})
        rng.update({(i, a): (i, g.rng[a]) for a in g.arrows})
        unit_arrow.update({(i, x): (i, g.unit_arrow[x]) for x in g.units})
        inverse.update({(i, a): (i, g.inverse[a]) for a in g.arrows})
        compose.update({((i, a), (i, b)): (i, k) for (a, b), k in g.compose.items()})
    return FiniteGroupoid(units, arrows, dom, rng, unit_arrow, inverse, compose)


def relabel(g: FiniteGroupoid, unit_map: Mapping, arrow_map: Mapping) -> FiniteGroupoid:
    """Rename units and arrows through bijections (values must be fresh ids)."""
    um = dict(unit_map)
    am = dict(arrow_map)
    if len(set(um.values())) != len(um) or len(set(am.values())) != len(am):
        raise GroupoidError("relabel maps must be injective")
    return FiniteGroupoid(
        units=[um[x] for x in g.units],
        arrows=[am[a] for a in g.arrows],
        dom={am[a]: um[g.dom[a]] for a in g.arrows},
        rng={am[a]: um[g.rng[a]] for a in g.arrows},
        unit_arrow={um[x]: am[g.unit_arrow[x]] for x in g.units},
        inverse={am[a]: am[g.inverse[a]] for a in g.arrows},
        compose={(am[a], am[b]): am[k] for (a, b), k in g.compose.items()},
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
