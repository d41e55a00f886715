"""Unipotent upper-triangular groups U_{n+1}(F_p), their central quotients,
and the dictionary between defining systems and prescribed homomorphisms.

The dictionary sends an array (c_ij) of 1-cochains to the matrix map
gamma(s)_ij = (-1)^(j-i) c_(i,j-1)(s); it is a homomorphism into the full
group exactly when the array closes at every position, and into the central
quotient when position (1,n) is allowed to fail.  A homomorphism with
prescribed superdiagonal characters is found by one F_p solve over the
entries of the generator images (`find_prescribed_hom`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import rref
from .cochain_dga import Cochain
from .fp_linalg import is_prime, row_space_basis
from .group_core import Character, FiniteGroup, _check_order, bfs_tree

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
        _check_order(order)

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

        # the transvections I + E_(i,i+1): a single digit 1 in the index
        gens = [p ** (len(positions) - 1 - positions.index((i, i + 1))) for i in range(n)]
        name = f"unipotent{'-bar' if bar else ''}:{n}:{p}"
        super().__init__(mul, generators=gens, name=name)
        self.matrices.setflags(write=False)

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
    """A homomorphism G -> U_{n+1}(F_p) (or the bar quotient) with the
    prescribed superdiagonal characters, or None: the one whose tuple of
    generator images (element indices, in `group.generating_set()` order) is
    lexicographically least.

    One F_p solve for the entries with j - i >= 2 of the generator images.
    Extended to G along a BFS tree of the Cayley graph, every entry with
    j - i <= 3 is affine in them (each product term has a superdiagonal
    factor, a fixed character value); every other edge (g, s) gives the
    equations rho(g s) = rho(g) rho(s).  The bilinear m_02 m_24 in the full
    n = 4 corner is made affine by fixing the (0, 2) entries to each
    solution of their own equations.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if len(chars) != n:
        raise ValueError(f"need exactly {n} characters")
    p = chars[0].p
    if any(c.group is not group or c.p != p for c in chars):
        raise ValueError("characters on the wrong group or modulus")
    target = build_unipotent(n, p, bar)
    gens = group.generating_set()
    consts = np.repeat(np.eye(n + 1, dtype=np.int64)[None], len(gens), axis=0)
    consts[:, range(n), range(1, n + 1)] = np.array([c.values for c in chars]).T[gens]
    free = [(i, j) for i, j in target.positions if j - i >= 2]

    def least_images(consts, free):
        """The image table whose generator images are least, with rho(s_k)
        equal to consts[k] off `free`, or None.  Columns are reversed, so in
        the RREF each pivot unknown is a constant minus free earlier
        unknowns: with every free unknown 0, each coordinate in turn is as
        small as the earlier ones allow."""
        rows, forms = _equations(group, consts, free, p)
        if rows[~rows[:, :-1].any(axis=1), -1].any():
            return None  # a row 0 = c != 0 needs no elimination
        red, pivots = rref(rows, p)
        if len(pivots) and pivots[-1] == rows.shape[1] - 1:
            return None
        x = np.zeros(rows.shape[1])  # [x_{U-1}, ..., x_0, 1]
        x[pivots], x[-1] = -red[: len(pivots), -1] % p, 1
        return target._index_of(np.einsum("gicj,c->gij", forms, x).astype(np.int64) % p)

    if (0, 4) not in free:
        img = least_images(consts, free)
    else:
        rows, _ = _equations(group, consts, [(0, 2)], p)
        fixes = np.asarray(list(itertools.product(range(p), repeat=len(gens))))
        fixes = fixes[~(np.c_[fixes[:, ::-1], np.ones(len(fixes))] @ rows.T % p).any(axis=1)]
        sliced = np.repeat(consts[None], len(fixes), axis=0)
        sliced[:, :, 0, 2] = fixes
        found = [least_images(c, free[1:]) for c in sliced]  # free[0] is (0, 2)
        found = [f for f in found if f is not None]
        img = min(found, key=lambda f: tuple(f[gens]), default=None)
    return None if img is None else GroupHom(group, target, img)


def _equations(group: FiniteGroup, consts: np.ndarray, free, p: int):
    """Rows [coefficients | constant] of rho(g s) - rho(g) rho(s) = 0 at the
    positions `free` for every g and generator s, and the affine matrices
    rho(g) along a BFS tree; rho(s_k) is consts[k] with unknowns at `free`,
    unknown u (by generator, then position) in column U - 1 - u.  Affine
    matrices are arrays [i, column, j].  Their float64 products are exact
    (entries are residues below MAX_P) and leave out products of two unknown
    entries (none with j - i <= 3)."""
    tree = group.cached("generator_tree", lambda: bfs_tree(group, group.generating_set()))
    gens, dim = consts.shape[:2]
    rows_at, cols_at = np.asarray(free, dtype=np.int64).reshape(-1, 2).T
    cols = gens * len(free) + 1
    lin = np.zeros((gens, dim, cols, dim))
    u = np.arange(cols - 2, -1, -1).reshape(gens, len(free))
    lin[np.arange(gens)[:, None], rows_at, u, cols_at] = 1
    by_const = consts.transpose(1, 0, 2).reshape(dim, -1).astype(np.float64)
    by_lin = lin.transpose(1, 2, 0, 3).reshape(dim, -1)

    def times_generators(forms):  # [g, i, c, k, j]: forms[g] rho(s_k)
        shape = (len(forms), dim, cols, gens, dim)
        const_part = (forms.reshape(-1, dim) @ by_const).reshape(shape)
        return const_part + (forms[:, :, -1].reshape(-1, dim) @ by_lin).reshape(shape)

    forms = np.zeros((group.order, dim, cols, dim))
    forms[group.identity, :, -1] = np.eye(dim)
    for kids, parents, via in tree:
        step = times_generators(forms[parents])[np.arange(len(kids)), :, :, via]
        forms[kids] = np.fmod(step, p)  # nonnegative: fmod is % without its float cost
    prod = times_generators(forms)[:, rows_at, :, :, cols_at]
    ends = group.mul[:, group.generating_set()]
    rows = forms[:, rows_at, :, cols_at][:, ends] - prod.transpose(0, 1, 3, 2)
    rows = rows.reshape(-1, cols).astype(np.int64) % p
    return rows[rows.any(axis=1)], forms


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
