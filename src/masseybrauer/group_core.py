"""Finite groups as multiplication tables, subgroups, characters, the
mod-p elementary abelian quotient G/G^p[G,G], and the presentation read
from a BFS tree of the Cayley graph (`Presentation`).

Element indices are the identity of elements; every map between groups is an
index table.  Tables are built and checked with whole-array operations.  Every
table, built here or given from outside, is checked at construction: the
identity law and right inverses on the full table, then associativity by
Light's test on a generating set (see `FiniteGroup._validate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from .fp_linalg import _check_prime, _freeze, is_prime

# the largest order built: its int64 table has 4096^2 entries, 134 MB
MAX_ORDER = 4096

# entries per block of Light's test (2 MB of int64 per gathered side)
_LIGHT_BLOCK_CELLS = 1 << 18


def _check_order(n: int) -> None:
    """Refuse an order above MAX_ORDER before its table is allocated."""
    if n > MAX_ORDER:
        raise ValueError(f"size guard: refuse a group of order {n} > {MAX_ORDER}")


class FiniteGroup:
    """A finite group given by its order x order multiplication table.  What
    is derived from it (rings, subgroup groups, element orders) is memoized on
    it by `cached` and freed with it.  The identity is element 0."""

    identity = 0

    def __init__(
        self,
        mul: np.ndarray,
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
        self.name = name
        self._memo: dict[Hashable, Any] = {}
        self.generators: Optional[tuple[int, ...]] = (
            None if generators is None else tuple(int(g) for g in generators)
        )
        self._validate()

    def _validate(self):
        """Raise unless the table is a group; set `inv`.

        Associativity uses Light's test.  The elements c with (ab)c = a(bc)
        for all a, b contain the identity and are closed under products, so
        once the generating set reaches every element by right
        multiplication, checking each generator c is exact: O(n^2 |S|).
        Both sides are gathered with `take` for a block of rows a at a time,
        so the check adds two blocks, not two tables, to the peak.
        """
        mul, e, n = self.mul, self.identity, self.order
        if not np.array_equal(mul[e], np.arange(n)) or not np.array_equal(
            mul[:, e], np.arange(n)
        ):
            raise ValueError("identity law fails")
        is_e = mul == e
        if not is_e.any(axis=1).all():
            raise ValueError("inverse law fails")
        self.inv = _freeze(is_e.argmax(axis=1))
        step = max(1, _LIGHT_BLOCK_CELLS // n)
        for c in self.generating_set():
            col = mul[:, c]  # col[x] = xc
            for lo in range(0, n, step):
                rows = mul[lo : lo + step]  # rows[a, b] = ab
                if not np.array_equal(col.take(rows), rows.take(col, axis=1)):
                    raise ValueError("associativity fails")

    def cached(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value memoized under `key`, built by `build()` on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def times(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def element_orders(self) -> np.ndarray:
        """Read-only table of element orders (memoized)."""
        return self.cached("element_orders", self._element_orders)

    def _element_orders(self) -> np.ndarray:
        g = np.arange(self.order)
        out = np.ones(self.order, dtype=np.int64)
        x, k = g, 1
        while (todo := x != self.identity).any():
            x, k = np.where(todo, self.mul[x, g], x), k + 1
            out[todo] = k
        return _freeze(out)

    def generating_set(self) -> list[int]:
        """The given generators, else a greedy generating set by element
        index (memoized)."""
        return list(self.cached("generating_set", self._generating_set))

    def _generating_set(self) -> tuple[int, ...]:
        if self.generators is not None:
            if len(subgroup_closure(self, self.generators)) != self.order:
                raise ValueError("generator list does not generate the group")
            return self.generators
        # in a group each new generator at least doubles the closure, so more
        # than floor(log2 n) of them means the table is not associative
        limit = self.order.bit_length() - 1
        gens: list[int] = []
        have = np.zeros(self.order, dtype=bool)
        have[self.identity] = True
        while not have.all():
            if len(gens) == limit:
                raise ValueError(
                    "associativity fails: greedy generating set exceeds log2(order)"
                )
            gens.append(int(have.argmin()))  # least element not yet reached
            have[subgroup_closure(self, gens)] = True
        return tuple(gens)

    def presentation(self) -> "Presentation":
        """The BFS tree of the Cayley graph and its off-tree edges (memoized)."""
        return self.cached("presentation", lambda: Presentation(self))

    def __repr__(self):
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"


def bfs_tree(group: FiniteGroup, seeds: Sequence[int]) -> list[tuple]:
    """Breadth-first walk from the identity by right multiplication with
    `seeds`: per level after the identity, (elements, parents, seed indices),
    each element first found as parent * seeds[index], in discovery order."""
    gens = np.asarray(seeds, dtype=np.int64)
    seen = np.arange(group.order) == group.identity
    levels, frontier = [], np.asarray([group.identity])
    while frontier.size and gens.size:
        cand = group.mul[np.ix_(frontier, gens)].ravel()
        new = np.flatnonzero(~seen[cand])
        found = new[np.sort(np.unique(cand[new], return_index=True)[1])]
        levels.append((cand[found], frontier[found // gens.size], found % gens.size))
        frontier = levels[-1][0]
        seen[frontier] = True
    return levels[:-1]  # the last level is empty


class Presentation:
    """The Cayley graph of a group by S, its generating set without e and
    repeats (in `generating_set()` order), split into a BFS tree and the
    edges off it.

    Every g != e is first reached as parent[g] s_via[g] (`bfs_tree` from the
    identity), so each s in S is a child of e via itself.  edges[v, j]
    numbers the off-tree edges (v, s_j), row by row, and is -1 on the tree:
    the relation module of the free group on S is freely generated by one
    loop per off-tree edge (Schreier).  For S empty (the trivial group)
    `gens` and `edges` have no columns.  No array is |G| x |G|."""

    def __init__(self, group: FiniteGroup):
        e, n = group.identity, group.order
        listed = group.generating_set()
        self.gens = np.array(
            [s for k, s in enumerate(listed) if s != e and s not in listed[:k]], dtype=np.int64
        )
        self.parent = np.zeros(n, dtype=np.int64)
        self.via = np.zeros(n, dtype=np.int64)
        for kids, parents, via in bfs_tree(group, self.gens):
            self.parent[kids], self.via[kids] = parents, via
        # jumps[k][g]: the 2^k-th ancestor of g, the identity past the root
        self.jumps, up = [], self.parent
        while up.any():
            self.jumps.append(up)
            up = up[up]
        kids = np.flatnonzero(np.arange(n) != e)
        off = np.ones((n, len(self.gens)), dtype=bool)
        off[self.parent[kids], self.via[kids]] = False
        self.edges = np.full(off.shape, -1, dtype=np.int64)
        self.edge_count = int(off.sum())
        self.edges[off] = np.arange(self.edge_count)

    def path_sums(self, values: np.ndarray) -> np.ndarray:
        """Sums of values[h] over the path h != e from the identity to each
        g (axis 0), in log2(depth) doubling steps; values[e] must be 0."""
        for up in self.jumps:
            values = values + values[up]
        return values


def subgroup_closure(group: FiniteGroup, seeds: Sequence[int]) -> list[int]:
    """Elements of the subgroup generated by `seeds`, in BFS discovery order
    (within a level: by the element multiplied, then by seed)."""
    return np.concatenate([[group.identity]] + [lv[0] for lv in bfs_tree(group, seeds)]).tolist()


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
    right: list[list[int]] = [[] for _ in gens]  # right[k][x]: index of x g_k
    parent, via = [0], [0]  # element b was found as parent[b] g_via[b]
    for a, x in enumerate(elems):  # grows while it is walked: BFS order
        for k, g in enumerate(gens):
            y = tuple(x[i] for i in g)  # x after g
            if y not in index:
                _check_order(len(elems) + 1)
                index[y] = len(elems)
                elems.append(y)
                parent.append(a)
                via.append(k)
            right[k].append(index[y])
    # column b of the table is column parent(b) right-multiplied by g_via(b)
    right_mul = np.asarray(right, dtype=np.int64)
    cols = np.empty((len(elems), len(elems)), dtype=np.int64)
    cols[0] = np.arange(len(elems))
    for b in range(1, len(elems)):
        cols[b] = right_mul[via[b], cols[parent[b]]]
    return FiniteGroup(cols.T, generators=[index[g] for g in gens], name=name)


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
        idx = np.unique(np.asarray(self.members, dtype=np.int64))
        object.__setattr__(self, "members", tuple(idx.tolist()))
        g = self.parent
        inside = np.zeros(g.order, dtype=bool)
        inside[idx] = True
        if not inside[g.identity]:
            raise ValueError("subgroup must contain the identity")
        inv_ok = inside[g.inv[idx]]
        bad = np.flatnonzero(~(inv_ok & inside[g.mul[np.ix_(idx, idx)]].all(axis=1)))
        if bad.size:  # name the law that fails first in member order
            law = "inverse" if not inv_ok[bad[0]] else "multiplication"
            raise ValueError(f"subgroup not closed under {law}")

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
        return self.parent.cached(("subgroup", self.members), self.build_group)

    def build_group(self) -> tuple[FiniteGroup, np.ndarray]:
        """The pair of `as_group`, built afresh and not memoized: a proper
        subgroup's group is freed with the caller's last reference."""
        emb = _freeze(np.asarray(self.members, dtype=np.int64))
        if self.is_whole_group():
            return self.parent, emb
        pos = np.full(self.parent.order, -1, dtype=np.int64)
        pos[emb] = np.arange(len(emb))
        mul = pos[self.parent.mul[np.ix_(emb, emb)]]
        return FiniteGroup(mul), emb  # the sorted members start with 0


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
    return _closed_subgroup(g, tuple(np.flatnonzero(keep).tolist()))


def whole_group(g: FiniteGroup) -> Subgroup:
    return _closed_subgroup(g, tuple(range(g.order)))


def _closed_subgroup(g: FiniteGroup, members: tuple[int, ...]) -> Subgroup:
    """`Subgroup(g, members)` for sorted members already known to form a
    subgroup (a common kernel of homomorphisms, the whole group), without
    checking closure again."""
    sub = object.__new__(Subgroup)
    object.__setattr__(sub, "parent", g)
    object.__setattr__(sub, "members", members)
    return sub


def frattini_p_quotient(
    group: FiniteGroup, p: int
) -> tuple[FiniteGroup, np.ndarray]:
    """The quotient G / G^p [G, G] with its projection table.

    The quotient is elementary abelian; its dual is H^1(G, Z/p), and the
    evaluation pairing between the two is perfect.  p is checked first:
    G^p costs p multiplications.
    """
    _check_prime(p)
    mul, inv, n = group.mul, group.inv, group.order
    powers = np.full(n, group.identity)
    for _ in range(p):
        powers = mul[powers, np.arange(n)]
    commutators = mul[mul, mul[np.ix_(inv, inv)]]  # g h g^-1 h^-1
    normal = subgroup_closure(group, np.unique(np.concatenate([powers, commutators.ravel()])))
    # cosets g N, canonical representative = least member index (N's is 0)
    rep = mul[:, normal].min(axis=1)
    reps = np.unique(rep)
    pos = np.full(n, -1, dtype=np.int64)
    pos[reps] = np.arange(len(reps))
    return FiniteGroup(pos[rep[mul[np.ix_(reps, reps)]]]), pos[rep]


# ---------------------------------------------------------------------------
# standard constructors


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be positive")
    _check_order(n)
    idx = np.arange(n)
    mul = np.add.outer(idx, idx)
    np.remainder(mul, n, out=mul)  # in place: one n x n table at the peak
    return FiniteGroup(mul, generators=[1 % n] if n > 1 else [0], name=f"cyclic:{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str = "") -> FiniteGroup:
    nb = b.order
    _check_order(a.order * nb)
    xa, xb = np.divmod(np.arange(a.order * nb), nb)
    mul = a.mul[np.ix_(xa, xa)] * nb + b.mul[np.ix_(xb, xb)]
    gens = None
    if a.generators is not None and b.generators is not None:
        gens = [g * nb for g in a.generators] + list(b.generators)
    return FiniteGroup(mul, generators=gens, name=name)


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if k < 1:
        raise ValueError("k must be positive")
    # first, so p^k is never huge and a huge p is never trial-divided
    if k >= MAX_ORDER.bit_length() or p**k > MAX_ORDER:
        raise ValueError(f"size guard: refuse a group of order {p}^{k} > {MAX_ORDER}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    # element x * p + i has base-p digits (x, i): each step appends a digit,
    # and digits add mod p without carry.  This is the table and generator
    # order of the chain direct_product(...(Z/p x Z/p)..., Z/p), built and
    # validated once.
    c = np.arange(p)
    add = (c[:, None] + c) % p
    mul = np.zeros((1, 1), dtype=np.int64)
    for _ in range(k):
        mul *= p  # in place: only the previous table and the new one coexist
        mul = (mul[:, None, :, None] + add[:, None, :]).reshape(len(mul) * p, -1)
    gens = [p**j for j in reversed(range(k))]
    return FiniteGroup(mul, generators=gens, name=f"elab:{p}:{k}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: elements s^e r^i, index e*n + i."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_order(2 * n)
    e, i = np.divmod(np.arange(2 * n), n)
    # (s^e1 r^i1)(s^e2 r^i2) = s^(e1+e2) r^(i2 + (-1)^e2 i1)
    mul = (e[:, None] + e) % 2 * n + (i + (1 - 2 * e) * i[:, None]) % n
    return FiniteGroup(mul, generators=[1 % n, n], name=f"dihedral:{n}")


# quaternion units 1, i, j, k as axes 0-3: the product of axes a and b is
# axis a ^ b, with a minus sign where _Q8_MINUS[a, b] is set
_Q8_MINUS = np.asarray([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def quaternion_group() -> FiniteGroup:
    """Q8 = {±1, ±i, ±j, ±k}; index = axis + 4 * (sign is minus)."""
    minus, axis = np.divmod(np.arange(8), 4)
    sign = _Q8_MINUS[np.ix_(axis, axis)] ^ minus[:, None] ^ minus
    mul = (axis[:, None] ^ axis) + 4 * sign
    return FiniteGroup(mul, generators=[1, 2], name="quaternion8")
