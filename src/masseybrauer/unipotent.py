"""Unipotent upper-triangular groups U_{n+1}(F_p), their central quotients,
and the dictionary between defining systems and prescribed homomorphisms.

The dictionary sends an array (c_ij) of 1-cochains to the matrix map
gamma(s)_ij = (-1)^(j-i) c_(i,j-1)(s); it is a homomorphism into the full
group exactly when the array closes at every position, and into the central
quotient when position (1,n) is allowed to fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cochain_dga import Cochain
from .fp_linalg import is_prime, row_space_basis
from .group_core import Character, FiniteGroup

MAX_DIM = 5
MAX_P = 5


class UnipotentGroup(FiniteGroup):
    """U_{n+1}(F_p) (or its quotient by the center, the 'bar' variant) with
    index<->matrix dictionaries.  Element indexing is lexicographic on the
    strictly-upper entries read row by row."""

    def __init__(self, n: int, p: int, bar: bool = False):
        if n < 2:
            raise ValueError("n must be at least 2")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n + 1 > MAX_DIM or p > MAX_P:
            raise ValueError("size guard: refuse n+1 > 5 or p > 5")
        dim = n + 1
        positions = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        if bar:
            positions = [pos for pos in positions if pos != (0, dim - 1)]
        self.n = n
        self.p = p
        self.bar = bar
        self.dim = dim
        self.positions = positions
        order = p ** len(positions)

        mats = np.zeros((order, dim, dim), dtype=np.int64)
        mats[:, range(dim), range(dim)] = 1
        rows, cols = zip(*positions)
        mats[:, rows, cols] = list(itertools.product(range(p), repeat=len(positions)))
        self.matrices = mats

        # index of every product, digit by digit: entry (i, j) of a b is row i
        # of a times column j of b (as `_index_of` reads a batch of matrices)
        mul = np.zeros((order, order), dtype=np.int64)
        for i, j in positions:
            mul = mul * p + mats[:, i, :] @ mats[:, :, j].T % p

        gens = [
            self._index_of(self._transvection(i)[None])[0] for i in range(n)
        ]
        super().__init__(
            mul,
            identity=0,
            generators=gens,
            name=f"unipotent{'-bar' if bar else ''}:{n}:{p}",
        )
        self.matrices.setflags(write=False)

    def _transvection(self, i: int) -> np.ndarray:
        m = np.eye(self.dim, dtype=np.int64)
        m[i, i + 1] = 1
        return m

    def _index_of(self, mats: np.ndarray) -> np.ndarray:
        """Indices of unipotent matrices (batch); inverse of the lexicographic
        enumeration.  The (1,n+1) entry is ignored in the bar variant."""
        idx = np.zeros(mats.shape[0], dtype=np.int64)
        for (i, j) in self.positions:
            idx = idx * self.p + mats[:, i, j] % self.p
        return idx

    def matrix_index(self, mat: np.ndarray) -> int:
        return int(self._index_of(np.asarray(mat, dtype=np.int64)[None])[0])

    def superdiagonal(self, index: int) -> tuple[int, ...]:
        m = self.matrices[index]
        return tuple(int(m[i, i + 1]) for i in range(self.n))

    def superdiagonal_table(self) -> np.ndarray:
        d = np.arange(self.dim - 1)
        return self.matrices[:, d, d + 1]


_unipotent_cache: dict[tuple[int, int, bool], UnipotentGroup] = {}


def build_unipotent(n: int, p: int, bar: bool = False) -> UnipotentGroup:
    key = (n, p, bar)
    if key not in _unipotent_cache:
        _unipotent_cache[key] = UnipotentGroup(n, p, bar)
    return _unipotent_cache[key]


def _is_multiplicative(source: FiniteGroup, target: FiniteGroup, img: np.ndarray) -> bool:
    return bool(
        np.array_equal(img[source.mul], target.mul[img[:, None], img[None, :]])
    )


@dataclass
class GroupHom:
    source: FiniteGroup
    target: FiniteGroup
    images: np.ndarray

    def __post_init__(self):
        img = np.asarray(self.images, dtype=np.int64)
        if img.shape != (self.source.order,):
            raise ValueError("image table must cover the source")
        if not _is_multiplicative(self.source, self.target, img):
            raise ValueError("map is not multiplicative")
        self.images = img

    def image_size(self) -> int:
        return len(set(int(i) for i in self.images))


@dataclass
class GammaMap:
    """The matrix-valued map of an array of 1-cochains, with homomorphism
    verdicts for the full and bar targets."""

    group: FiniteGroup
    n: int
    p: int
    full_images: np.ndarray | None  # indices into U_{n+1}; None if (1,n) absent
    bar_images: np.ndarray
    is_hom_full: bool
    is_hom_bar: bool


def gamma_from_system(
    entries: dict[tuple[int, int], Cochain], n: int
) -> GammaMap:
    """Map sigma -> matrix with (i,j) entry (-1)^(j-i) c_(i,j-1)(sigma).

    `entries` uses 1-based (i, j), 1 <= i <= j <= n; position (1, n) may be
    absent, in which case only the bar map is produced.
    """
    some = next(iter(entries.values()))
    g, p = some.group, some.p
    for c in entries.values():
        if c.group is not g or c.p != p or c.degree != 1:
            raise ValueError("entries must be 1-cochains on one group")
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if (i, j) not in entries and (i, j) != (1, n):
                raise ValueError(f"missing entry {(i, j)}")
    has_corner = (1, n) in entries

    dim = n + 1
    mats = np.zeros((g.order, dim, dim), dtype=np.int64)
    mats[:, range(dim), range(dim)] = 1
    for (i, j), c in entries.items():
        sign = (-1) ** (j + 1 - i)  # matrix column is j+1
        mats[:, i - 1, j] = (sign * c.values) % p

    bar_group = build_unipotent(n, p, bar=True)
    bar_images = bar_group._index_of(mats)
    is_bar = _is_multiplicative(g, bar_group, bar_images)

    full_images = None
    is_full = False
    if has_corner:
        full_group = build_unipotent(n, p, bar=False)
        full_images = full_group._index_of(mats)
        is_full = _is_multiplicative(g, full_group, full_images)
    return GammaMap(g, n, p, full_images, bar_images, is_full, is_bar)


def find_prescribed_hom(
    group: FiniteGroup,
    chars: list[Character],
    n: int,
    bar: bool = False,
) -> GroupHom | None:
    """A homomorphism G -> U_{n+1}(F_p) (or the bar quotient) whose
    superdiagonal projections are the prescribed characters, found by
    backtracking over generator images; None if none exists."""
    if len(chars) != n:
        raise ValueError(f"need exactly {n} characters")
    p = chars[0].p
    if any(c.group is not group or c.p != p for c in chars):
        raise ValueError("characters on the wrong group or modulus")
    target = build_unipotent(n, p, bar)
    gens = group.generating_set()
    superdiag = target.superdiagonal_table()
    t_orders = target.element_orders()
    g_orders = group.element_orders()

    # fiber of each prescribed superdiagonal, pre-pruned by the necessary
    # condition ord(image) | ord(generator)
    fibers = []
    for g in gens:
        want = np.asarray([c(g) for c in chars], dtype=np.int64)
        fiber = np.nonzero(
            (superdiag == want).all(axis=1) & (g_orders[g] % t_orders == 0)
        )[0]
        fibers.append([int(u) for u in fiber])

    img = np.full(group.order, -1, dtype=np.int64)
    img[group.identity] = target.identity
    known: list[int] = [group.identity]

    gmul, tmul = group.mul, target.mul

    def close(x: int, ux: int, trail: list[int]) -> bool:
        """Assign img[x] = ux and close under products with known elements."""
        queue = [(x, ux)]
        while queue:
            y, uy = queue.pop()
            cur = img[y]
            if cur >= 0:
                if cur != uy:
                    return False
                continue
            img[y] = uy
            trail.append(y)
            known.append(y)
            for z in list(known):
                queue.append((int(gmul[y, z]), int(tmul[uy, img[z]])))
                queue.append((int(gmul[z, y]), int(tmul[img[z], uy])))
        return True

    def undo(trail: list[int], known_len: int):
        for y in trail:
            img[y] = -1
        del known[known_len:]

    def search(level: int) -> bool:
        if level == len(gens):
            return True
        g = gens[level]
        cur = img[g]
        if cur >= 0:
            # image forced by earlier closure; only the fiber constraint left
            if int(cur) in fibers[level]:
                return search(level + 1)
            return False
        for u in fibers[level]:
            # cheap sound prune: commuting source generators need commuting
            # images (full consistency is still enforced by close())
            ok = True
            for j in range(level):
                gj = gens[j]
                uj = int(img[gj])
                if uj >= 0 and gmul[g, gj] == gmul[gj, g] and tmul[u, uj] != tmul[uj, u]:
                    ok = False
                    break
            if not ok:
                continue
            trail: list[int] = []
            mark = len(known)
            if close(g, u, trail) and search(level + 1):
                return True
            undo(trail, mark)
        return False

    if not search(0):
        return None
    if (img < 0).any():
        raise RuntimeError("generators did not generate the group")
    return GroupHom(group, target, img.copy())


def check_surjective(hom: GroupHom) -> bool:
    """True iff the image is the whole unipotent target."""
    if not isinstance(hom.target, UnipotentGroup):
        raise ValueError("target is not a unipotent group built here")
    return hom.image_size() == hom.target.order


def frattini_criterion(chars: list[Character]) -> bool:
    """Surjectivity criterion: the prescribed superdiagonal characters are
    linearly independent over F_p."""
    p = chars[0].p
    rows = np.stack([c.values for c in chars])
    return row_space_basis(rows, p).shape[0] == len(chars)
