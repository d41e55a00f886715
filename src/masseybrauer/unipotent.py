"""Unipotent upper-triangular groups U_{n+1}(F_p), their central quotients,
and the dictionary between defining systems and prescribed homomorphisms.

The dictionary sends an array (c_ij) of 1-cochains to the matrix map
gamma(s)_ij = (-1)^(j-i) c_(i,j-1)(s); it is a homomorphism into the full
group exactly when the array closes at every position, and into the central
quotient when position (1,n) is allowed to fail.

A homomorphism with prescribed superdiagonal characters
(`find_prescribed_hom`) is a solve for the entries above the superdiagonal
of the images of the presentation's generators S.  Extended along its BFS
tree, every entry of rho(g) is a tree sum and rho(g s) = rho(g) rho(s) are
its relations, both from `cochain_dga.Relators.relations`, with one relator
matrix R as every entry's coefficients on its own unknowns (eliminated once
per group and modulus; Z^1 and the d^1 solves read the same elimination).
The entries (i, i + 2) need nothing but R and constants from the
characters, and those constants are bilinear in the characters' generator
values; so the cup form `Relators.checks`, built from R on first use, decides
chi_i u chi_(i+1) = 0 for every i from the generator values alone, which is
where most calls end.  The rest of the system is block lower triangular and
small; one reversed-column RREF of it gives the lexicographically least
homomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import rref
from .cochain_dga import Cochain, Relators, relators  # Relators re-exported
from .fp_linalg import is_prime, row_space_basis
from .group_core import Character, FiniteGroup, _check_order

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

        # index of every product, digit by digit (as `_index_of` reads a batch
        # of matrices): entry (i, j) of a b is a_ij + b_ij + sum a_ik b_kj over
        # i < k < j, below 2^15 (p <= MAX_P), so int16 order x order terms
        entry = mats.astype(np.int16)
        mul = np.zeros((order, order), dtype=np.int64)
        for i, j in positions:
            digit = entry[:, i, j, None] + entry[None, :, i, j]
            for k in range(i + 1, j):
                digit += entry[:, i, k, None] * entry[None, :, k, j]
            digit %= p
            mul *= p
            mul += digit

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


def _entries(rel: Relators, gen: dict, forms: dict, d: int):
    """The affine forms of the entries (i, i + d) of every rho(g), summed
    along the tree paths of `rel`, and of their relations at every (g, s).

    gen[t] and forms[t] hold the forms of the entries (i, i + t) of
    rho(s_k) (k, i, column) and of rho(g) (g, i, column).  An entry (i, j)
    of rho(g) rho(s) adds rho(s)_ij and rho(g)_ik rho(s)_kj for i < k < j
    to rho(g)_ij."""
    npos = gen[d].shape[1]
    step = gen[d][None]
    for t in range(1, d):
        step = step + _times(forms[t][:, None, :npos], gen[d - t][None, :, t : t + npos])
    return rel.relations(step)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of affine forms [coefficients | constant], one of them
    constant (the product of two unknowns is never formed)."""
    out = a[..., -1:] * b + b[..., -1:] * a
    out[..., -1] -= a[..., -1] * b[..., -1]
    return out


def _least(rows: list[np.ndarray], p: int) -> np.ndarray | None:
    """The solution [x, 1] of rows [x, 1] = 0 whose reversed coordinates are
    lexicographically least, or None.  In the RREF each pivot unknown is a
    constant minus free later columns, which come earlier in the reversed
    order: with every free unknown 0, each coordinate in turn is as small
    as the earlier ones allow."""
    a = np.concatenate(rows)
    a = a[a.any(axis=1)]
    x = np.zeros(a.shape[1], dtype=np.int64)
    x[-1] = 1
    if len(a):  # else every x solves, and no elimination is needed
        red, pivots = rref(a, p)
        if pivots[-1] == a.shape[1] - 1:
            return None
        x[pivots] = -red[: len(pivots), -1] % p
    return x


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

    The unknowns are the entries with j - i >= 2 of the images of S, the
    presentation's generators; those of e and of repeated generators follow
    from them, so the least tuple over S is the least over the generating
    set.  Extended to G along the tree of `Relators` (`_entries`), the
    entry (i, j) of rho(g) has coefficients paths[g] on its own unknowns,
    and every product term in it has a superdiagonal factor, a fixed
    character value.  So the
    relations at (i, j) are R on the own unknowns plus character-weighted
    path sums of the unknowns nearer the diagonal: block lower triangular.
    The distance-2 blocks have only constants besides R, bilinear in the
    generator values of chi_i and chi_(i+1), so the cached cup form
    `Relators.checks` decides them all with one product; most calls end
    there with None.  The others solve the blocks on the cached solver
    (its verdict must agree) for x2: a consistent block is x_i in
    x2_i + ker R, which the RREF rows of R state.  With them, the
    relations at distance 3 go into one reversed-column RREF that gives
    the least solution.  The bilinear m_02 m_24 in the full n = 4 corner is
    made affine by fixing the (0, 2) unknowns to each solution of their
    block in turn.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if len(chars) != n:
        raise ValueError(f"need exactly {n} characters")
    p = chars[0].p
    if any(c.group is not group or c.p != p for c in chars):
        raise ValueError("characters on the wrong group or modulus")
    target = build_unipotent(n, p, bar)
    rel = relators(group, p)
    values = np.array([c.values for c in chars]).T
    last = n - 1 if bar else n  # the bar quotient drops the corner (0, n)
    if last >= 2:
        at = values[rel.gens]  # the cup form on a (x) b, column i for chi_i, chi_(i+1)
        if (rel.checks @ (at[:, None, :-1] * at[None, :, 1:]).reshape(-1, n - 1) % p).any():
            return None
        # rho(g)_(i,i+2) = paths[g] x_i + at_zero[g, i], with R x_i = -relations
        at_zero, relations = rel.relations(values[:, None, :-1] * at[None, :, 1:])
        x2, ok = rel.solver.solve_many(-relations.reshape(-1, n - 1))
        if not ok.all():
            raise RuntimeError(
                "internal error: the cup form passed a distance-2 block that the relator solve rejects"
            )
    ns = len(rel.gens)
    free = [(i, j) for i, j in target.positions if j - i >= 2]
    width = ns * len(free) + 1
    # affine forms [coefficients | constant]: forms[t][g, i] of rho(g)_(i,i+t),
    # gen[t][k, i] of rho(s_k)_(i,i+t); the unknown rho(s_k) at free[f] is
    # column width - 2 - k * len(free) - f, so the columns run backwards
    unknown = width - 2 - np.arange(len(free)) - len(free) * np.arange(ns)[:, None]
    forms = {1: np.zeros((group.order, n, width), dtype=np.int64)}
    forms[1][..., -1] = values
    gen = {1: forms[1][rel.gens]}
    for t in range(2, last + 1):
        gen[t] = np.zeros((ns, n + 1 - t, width), dtype=np.int64)
    for f, (i, j) in enumerate(free):
        gen[j - i][range(ns), i, unknown[:, f]] = 1
    rows = [np.zeros((0, width), dtype=np.int64)]
    if last >= 2:
        # x_i in x2[:, i] + ker R: the RREF rows of R in place of the relations
        at = np.arange(n - 1), unknown[:, [free.index((i, i + 2)) for i in range(n - 1)]]
        forms[2] = np.zeros((group.order, n - 1, width), dtype=np.int64)
        forms[2][:, at[0], at[1]] = rel.paths[:, :, None]
        forms[2][..., -1] = at_zero
        block = np.zeros((len(rel.reduced), n - 1, width), dtype=np.int64)
        block[:, at[0], at[1]] = rel.reduced[:, :, None]
        block[..., -1] = -rel.reduced @ x2
        rows.append(block.reshape(-1, width))
    if last >= 3:
        forms[3], relations = _entries(rel, gen, forms, 3)
        rows.append(relations.reshape(-1, width))
    if last < 4:
        x = _least(rows, p)
    else:
        x, cols = None, unknown[:, 0]  # free[0] is (0, 2)
        shifts = np.array(list(itertools.product(range(p), repeat=len(rel.kernel))))
        for fix in (x2[:, 0] + shifts @ rel.kernel) % p:
            fixed = {**forms, 2: forms[2].copy()}  # rho(g)_02 a constant
            fixed[2][:, 0, cols], fixed[2][:, 0, -1] = 0, rel.paths @ fix + at_zero[:, 0]
            corner, relations = _entries(rel, gen, fixed, 4)
            pinned = np.zeros((ns, width), dtype=np.int64)
            pinned[range(ns), cols], pinned[:, -1] = 1, -fix
            y = _least(rows + [pinned, relations.reshape(-1, width)], p)
            # the unknowns in order, y[-2::-1], order the generator images
            if y is not None and (x is None or y[-2::-1].tolist() < x[-2::-1].tolist()):
                x, forms[4] = y, corner
    if x is None:
        return None
    mats = np.zeros((group.order, n + 1, n + 1), dtype=np.int64)
    mats[:, range(n + 1), range(n + 1)] = 1
    for t, form in forms.items():
        mats[:, range(n + 1 - t), range(t, n + 1)] = form @ x % p
    return GroupHom(group, target, target._index_of(mats))


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
