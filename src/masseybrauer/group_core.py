"""Finite groups as multiplication tables, subgroups, characters, and the
mod-p elementary abelian quotient G/G^p[G,G].

Element indices are the identity of elements; every map between groups is an
index table.  All group laws are verified on the full table at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from .fp_linalg import _check_prime, _freeze, is_prime


class FiniteGroup:
    """A finite group given by its order x order multiplication table.  What
    is derived from it (rings, subgroup groups, element orders) is memoized on
    it by `cached` and freed with it."""

    def __init__(
        self,
        mul: np.ndarray,
        identity: int = 0,
        generators: Optional[Sequence[int]] = None,
        name: str = "",
    ):
        mul = np.asarray(mul, dtype=np.int64)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise ValueError("multiplication table must be square")
        if mul.min(initial=0) < 0 or mul.max(initial=0) >= n:
            raise ValueError("table entries must be element indices")
        self.order = n
        self.mul = _freeze(mul)
        self.identity = int(identity)
        self.name = name
        self._memo: dict[Hashable, Any] = {}
        self._validate()
        inv = np.full(n, -1, dtype=np.int64)
        for g in range(n):
            h = int(np.nonzero(mul[g] == self.identity)[0][0])
            inv[g] = h
        self.inv = _freeze(inv)
        if generators is not None:
            gens = [int(g) for g in generators]
            if len(subgroup_closure(self, gens)) != n:
                raise ValueError("generator list does not generate the group")
            self.generators: Optional[tuple[int, ...]] = tuple(gens)
        else:
            self.generators = None

    def _validate(self):
        mul, e, n = self.mul, self.identity, self.order
        if not np.array_equal(mul[e], np.arange(n)) or not np.array_equal(
            mul[:, e], np.arange(n)
        ):
            raise ValueError("identity law fails")
        for g in range(n):
            if e not in mul[g]:
                raise ValueError("inverse law fails")
        # associativity, chunked over the first index to bound memory
        for a in range(n):
            left = mul[mul[a], :]  # (n, n): (a b) c
            right = mul[a, mul]  # (n, n): a (b c)
            if not np.array_equal(left, right):
                raise ValueError("associativity fails")

    def cached(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value memoized under `key`, built by `build()` on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def times(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def power(self, g: int, k: int) -> int:
        r = self.identity
        for _ in range(k):
            r = self.times(r, g)
        return r

    def element_orders(self) -> np.ndarray:
        """Read-only table of element orders (memoized)."""
        return self.cached("element_orders", self._element_orders)

    def _element_orders(self) -> np.ndarray:
        out = np.zeros(self.order, dtype=np.int64)
        for g in range(self.order):
            x, k = g, 1
            while x != self.identity:
                x = self.times(x, g)
                k += 1
            out[g] = k
        return _freeze(out)

    def generating_set(self) -> list[int]:
        """A deterministic generating set (greedy by element index)."""
        if self.generators is not None:
            return list(self.generators)
        gens: list[int] = []
        have = {self.identity}
        for g in range(self.order):
            if g not in have:
                gens.append(g)
                have = set(subgroup_closure(self, gens))
                if len(have) == self.order:
                    break
        return gens

    def __repr__(self):
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"


def subgroup_closure(group: FiniteGroup, seeds: Sequence[int]) -> list[int]:
    """Elements of the subgroup generated by `seeds`, in BFS discovery order."""
    seen = {group.identity}
    order: list[int] = [group.identity]
    frontier = [group.identity]
    gens = [int(s) for s in seeds]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = group.times(x, g)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    new.append(y)
        frontier = new
    return order


def close_generators(perms: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Group generated by permutations of a common finite set.

    Elements are enumerated by breadth-first closure in input order, starting
    from the identity, which fixes a deterministic element indexing.
    """
    if not perms:
        raise ValueError("at least one permutation required")
    degree = len(perms[0])
    gens = []
    for perm in perms:
        t = tuple(int(i) for i in perm)
        if len(t) != degree or sorted(t) != list(range(degree)):
            raise ValueError(f"malformed permutation {perm}")
        gens.append(t)

    ident = tuple(range(degree))
    index = {ident: 0}
    elems = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(x[g[i]] for i in range(degree))  # x after g
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                    new.append(y)
        frontier = new
    n = len(elems)
    mul = np.zeros((n, n), dtype=np.int64)
    for a, pa in enumerate(elems):
        for b, pb in enumerate(elems):
            mul[a, b] = index[tuple(pa[pb[i]] for i in range(degree))]
    return FiniteGroup(mul, identity=0, generators=[index[g] for g in gens], name=name)


@dataclass(frozen=True)
class Character:
    """A homomorphism G -> F_p, stored as a value table on element indices."""

    group: FiniteGroup
    p: int
    values: np.ndarray

    def __post_init__(self):
        _check_prime(self.p)
        v = np.asarray(self.values, dtype=np.int64) % self.p
        if v.shape != (self.group.order,):
            raise ValueError("value table must cover the group")
        sums = (v[:, None] + v[None, :]) % self.p
        if not np.array_equal(v[self.group.mul], sums):
            raise ValueError("table is not additive on products")
        object.__setattr__(self, "values", _freeze(v))

    def __call__(self, g: int) -> int:
        return int(self.values[g])

    def is_zero(self) -> bool:
        return not self.values.any()

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group is other.group
            and self.p == other.p
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self):
        return hash((id(self.group), self.p, self.values.tobytes()))


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(set(int(m) for m in self.members)))
        object.__setattr__(self, "members", mem)
        g = self.parent
        s = set(mem)
        if g.identity not in s:
            raise ValueError("subgroup must contain the identity")
        for a in mem:
            if int(g.inv[a]) not in s:
                raise ValueError("subgroup not closed under inverse")
            for b in mem:
                if g.times(a, b) not in s:
                    raise ValueError("subgroup not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.members)

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def as_group(self) -> tuple[FiniteGroup, np.ndarray]:
        """The subgroup as a standalone FiniteGroup.

        Returns (group, embedding) where embedding maps subgroup indices to
        parent indices (sorted parent order).  The pair is memoized on the
        parent by member tuple, so every Subgroup with the same members shares
        one group object; the whole group is the parent itself.
        """
        return self.parent.cached(("subgroup", self.members), self._build_group)

    def _build_group(self) -> tuple[FiniteGroup, np.ndarray]:
        emb = _freeze(np.asarray(self.members, dtype=np.int64))
        if self.is_whole_group():
            return self.parent, emb
        pos = {int(m): i for i, m in enumerate(emb)}
        k = len(emb)
        mul = np.zeros((k, k), dtype=np.int64)
        for i, a in enumerate(emb):
            for j, b in enumerate(emb):
                mul[i, j] = pos[self.parent.times(int(a), int(b))]
        return FiniteGroup(mul, identity=pos[self.parent.identity]), emb


def kernel_of_characters(
    chars: Sequence[Character], group: Optional[FiniteGroup] = None
) -> Subgroup:
    """Intersection of the kernels; the whole group for an empty list."""
    if not chars:
        if group is None:
            raise ValueError("empty character list needs an explicit group")
        return whole_group(group)
    g = chars[0].group
    if group is not None and group is not g:
        raise ValueError("characters live on a different group")
    p = chars[0].p
    if any(c.group is not g or c.p != p for c in chars):
        raise ValueError("characters live on different groups or moduli")
    keep = np.ones(g.order, dtype=bool)
    for c in chars:
        keep &= c.values == 0
    return Subgroup(g, tuple(int(i) for i in np.nonzero(keep)[0]))


def whole_group(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def frattini_p_quotient(
    group: FiniteGroup, p: int
) -> tuple[FiniteGroup, np.ndarray]:
    """The quotient G / G^p [G, G] with its projection table.

    The quotient is elementary abelian; its dual is H^1(G, Z/p), and the
    evaluation pairing between the two is perfect.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    seeds = set()
    for g in range(group.order):
        seeds.add(group.power(g, p))
        for h in range(group.order):
            # commutator g h g^-1 h^-1
            c = group.times(
                group.times(g, h),
                group.times(int(group.inv[g]), int(group.inv[h])),
            )
            seeds.add(c)
    normal = set(subgroup_closure(group, sorted(seeds)))
    # cosets, canonical representative = least member index
    rep = np.full(group.order, -1, dtype=np.int64)
    for g in range(group.order):
        if rep[g] >= 0:
            continue
        coset = sorted(group.times(g, n) for n in normal)
        for x in coset:
            rep[x] = coset[0]
    reps = sorted(set(int(r) for r in rep))
    pos = {r: i for i, r in enumerate(reps)}
    k = len(reps)
    mul = np.zeros((k, k), dtype=np.int64)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            mul[i, j] = pos[int(rep[group.times(a, b)])]
    quotient = FiniteGroup(mul, identity=pos[int(rep[group.identity])])
    projection = np.asarray([pos[int(rep[g])] for g in range(group.order)], dtype=np.int64)
    return quotient, projection


# ---------------------------------------------------------------------------
# standard constructors


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(mul, generators=[1 % n] if n > 1 else [0], name=f"cyclic:{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str = "") -> FiniteGroup:
    na, nb = a.order, b.order
    mul = np.zeros((na * nb, na * nb), dtype=np.int64)
    for x in range(na * nb):
        xa, xb = divmod(x, nb)
        for y in range(na * nb):
            ya, yb = divmod(y, nb)
            mul[x, y] = a.times(xa, ya) * nb + b.times(xb, yb)
    gens = None
    if a.generators is not None and b.generators is not None:
        gens = [g * nb + b.identity for g in a.generators] + [
            a.identity * nb + g for g in b.generators
        ]
    return FiniteGroup(
        mul, identity=a.identity * nb + b.identity, generators=gens, name=name
    )


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g = cyclic_group(p)
    out = g
    for _ in range(k - 1):
        out = direct_product(out, g)
    out.name = f"elab:{p}:{k}"
    return out


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: elements s^e r^i, index e*n + i."""
    if n < 1:
        raise ValueError("n must be positive")
    order = 2 * n
    mul = np.zeros((order, order), dtype=np.int64)
    for x in range(order):
        e1, i1 = divmod(x, n)
        for y in range(order):
            e2, i2 = divmod(y, n)
            # (s^e1 r^i1)(s^e2 r^i2) = s^(e1+e2) r^(i2 + (-1)^e2 i1)
            e = (e1 + e2) % 2
            i = (i2 + (i1 if e2 == 0 else -i1)) % n
            mul[x, y] = e * n + i
    return FiniteGroup(mul, generators=[1 % n, n], name=f"dihedral:{n}")


_Q8_AXIS = {  # quaternion unit products: (axis, axis) -> (sign, axis)
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_group() -> FiniteGroup:
    """Q8 = {±1, ±i, ±j, ±k}; index = axis + 4 * (sign is minus)."""
    mul = np.zeros((8, 8), dtype=np.int64)
    for x in range(8):
        s1, a1 = (x >= 4), x % 4
        for y in range(8):
            s2, a2 = (y >= 4), y % 4
            sgn, axis = _Q8_AXIS[(a1, a2)]
            minus = (sgn < 0) ^ s1 ^ s2
            mul[x, y] = axis + (4 if minus else 0)
    return FiniteGroup(mul, generators=[1, 2], name="quaternion8")
