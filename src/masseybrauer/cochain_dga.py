"""The cochain algebra C*(G, Z/p) in degrees 0..3.

Convention: inhomogeneous (bar) cochains with trivial action, differential

    (d f)(g)       = 0                                   for f of degree 0
    (d f)(g, h)    = f(g) + f(h) - f(gh)
    (d c)(g, h, k) = c(h, k) - c(gh, k) + c(g, hk) - c(g, h)

and cup product by front/back splitting, (a u b)(g, ..., h, ...) =
a(front) b(back).  Cochains are not required to be normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import BLOCK_ROWS, _dot, rref, rref_blocks
from .fp_linalg import Solver, _check_prime, _freeze, null_space_rows, row_space_basis
from .group_core import Character, FiniteGroup, Subgroup, bfs_tree

MAX_DEGREE = 3


@dataclass(frozen=True)
class Cochain:
    group: FiniteGroup
    p: int
    degree: int
    values: np.ndarray

    def __post_init__(self):
        _check_prime(self.p)
        if not 0 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"degree {self.degree} out of range")
        n = self.group.order
        v = np.asarray(self.values, dtype=np.int64) % self.p
        if v.shape != (n,) * self.degree:
            raise ValueError("value table has wrong shape")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def zero(cls, group: FiniteGroup, p: int, degree: int) -> "Cochain":
        return cls(group, p, degree, np.zeros((group.order,) * degree, dtype=np.int64))

    @classmethod
    def from_character(cls, chi: Character) -> "Cochain":
        return cls(chi.group, chi.p, 1, chi.values)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def is_zero(self) -> bool:
        return not self.values.any()

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Cochain(self.group, self.p, self.degree, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def __neg__(self) -> "Cochain":
        return Cochain(self.group, self.p, self.degree, -self.values)

    def _compat(self, other: "Cochain"):
        if self.group is not other.group or self.p != other.p:
            raise ValueError("cochains on different groups or moduli")

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.group is other.group
            and self.p == other.p
            and self.degree == other.degree
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self):
        return hash((id(self.group), self.p, self.degree, self.values.tobytes()))


def differential(c: Cochain) -> Cochain:
    """The bar differential; raises on degree-3 input."""
    g = c.group
    if c.degree == 0:
        out = np.zeros(g.order, dtype=np.int64)
    elif c.degree == MAX_DEGREE:
        raise ValueError("differential undefined in degree 3 (cap)")
    else:
        every = np.arange(g.order)
        out = _delta(c.values, g.mul, c.degree, every, every)
    return Cochain(g, c.p, c.degree + 1, out)


def cup(a: Cochain, b: Cochain) -> Cochain:
    """Cup product by front/back splitting; total degree must stay <= 3."""
    a._compat(b)
    if a.degree + b.degree > MAX_DEGREE:
        raise ValueError("total degree exceeds cap")
    vals = np.multiply.outer(a.values, b.values)
    return Cochain(a.group, a.p, a.degree + b.degree, vals)


def restrict(c: Cochain, sub: Subgroup) -> Cochain:
    """The value table restricted to tuples from the subgroup."""
    if sub.parent is not c.group:
        raise ValueError("subgroup of a different group")
    k, emb = sub.as_group()
    if c.degree == 0:
        vals = c.values
    else:
        vals = c.values[np.ix_(*([emb] * c.degree))]
    return Cochain(k, c.p, c.degree, vals)


def coboundary_matrix(group: FiniteGroup, p: int, degree: int) -> np.ndarray:
    """Matrix of d: C^degree -> C^(degree+1) on flattened value tables: d of
    the identity basis, one column per basis cochain."""
    if degree not in (0, 1, 2):
        raise ValueError("coboundary matrix only built for degrees 0..2")
    n = group.order
    if degree == 0:
        return np.zeros((n, 1), dtype=np.int64)
    every = np.arange(n)
    # int8 is enough: every entry of d of a basis cochain lies in -2..2
    basis = np.eye(n**degree, dtype=np.int8).reshape((n,) * degree + (n**degree,))
    d = _delta(basis, group.mul, degree, every, every).reshape(n ** (degree + 1), n**degree)
    return np.mod(d, p, dtype=np.int64)


def _delta(
    c: np.ndarray, mul: np.ndarray, degree: int, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """The bar differential dc at the first arguments `first` and last
    arguments `last` (any middle argument), for c of degree 1 or 2 whose
    value at each argument tuple is the vector along its trailing axes."""
    if degree == 1:
        g, k = first[:, None], last[None, :]
        return c[g] + c[k] - c[mul[g, k]]
    g, h, k = first[:, None, None], np.arange(len(mul))[None, :, None], last[None, None, :]
    return c[h, k] - c[mul[g, h], k] + c[g, mul[h, k]] - c[g, h]


def _generators(group: FiniteGroup) -> np.ndarray:
    """S, the generating set without e and without repeats, in index order."""
    return np.array(sorted(set(group.generating_set()) - {group.identity}), dtype=np.int64)


def _cocycles(group: FiniteGroup, p: int, degree: int) -> np.ndarray:
    """Z^degree as null_space_rows(RREF(d^degree)), solved for from the
    values at last arguments s in S, the generators other than e.

    A BFS tree of the Cayley graph writes every value of f = T u through
    the unknowns u: f(hs) = f(h) + f(s) with f(e) = 0 in degree 1, and
    f(g, hs) = f(g, h) + f(gh, s) - f(h, s) with f(., e) = f(e, e) in
    degree 2, so df(.., e) = 0.  d(df) = 0 writes df(.., ks) through
    df(.., k) and df(.., s), so f is a cocycle iff df(.., s) = 0 for each s
    in S.  With K the kernel of these equations, the rows of K T^T span Z.
    The basis above is the one that is the identity on the lexicographically
    last independent columns: the RREF with the columns reversed.
    """
    n, e, mul = group.order, group.identity, group.mul
    gens = _generators(group)
    ns = len(gens)
    if degree == 1:
        t = np.zeros((n, ns), dtype=np.int64)  # t[k] = f(k) in the unknowns f(s)
        for k, h, j in bfs_tree(group, gens):
            t[k] = t[h]
            t[k, j] += 1
    else:
        # t[g, k] = f(g, k) in the unknowns f(g, s) (column g |S| + j) and f(e, e)
        t = np.zeros((n, n, n * ns + 1), dtype=np.int64)
        t[:, e, -1] = 1
        g = np.arange(n)[:, None]
        for k, h, j in bfs_tree(group, gens):
            t[:, k] = t[:, h]
            t[g, k, mul[g, h] * ns + j] += 1
            t[g, k, h * ns + j] -= 1
    m = t.shape[-1]
    t %= p
    per_first = n ** (degree - 1) * ns  # equations per first argument
    step = max(1, BLOCK_ROWS // max(per_first, 1))
    firsts = [np.arange(lo, min(lo + step, n)) for lo in range(0, n, step)]
    red, pivots = rref_blocks(
        (_delta(t, mul, degree, f, gens).reshape(len(f) * per_first, m) for f in firsts), m, p
    )
    span = _dot(null_space_rows(red, pivots, p), t.reshape(n**degree, m).T) % p
    red, pivots = rref(span[:, ::-1], p)
    return np.ascontiguousarray(red[: len(pivots)][::-1, ::-1])


def _check_cocycles(group: FiniteGroup, p: int, degree: int, z: np.ndarray) -> None:
    """Raise unless every row of z is a cocycle, from dz at last arguments
    s in S only: |G|^degree |S| values per row instead of |G|^(degree+1).

    d(dz) = 0 writes dz(.., ks) as dz(.., k) plus terms in dz(.., s), so if
    dz(.., s) = 0 for every s in S, then dz(.., ks) = dz(.., k), and as S
    generates G, dz(.., k) = dz(.., e) for every k.  So z is a cocycle iff
    dz vanishes at last arguments in S and at e, where dz(g, e) = z(e) in
    degree 1 and dz(g, h, e) = z(h, e) - z(gh, e) in degree 2: z(e) = 0,
    resp. z(., e) constant.  (With S nonempty that follows from the values
    at S; S is empty for the trivial group.)  d is applied to all rows at
    once, in blocks of first arguments that keep each array near 2^21
    entries."""
    n, e = group.order, group.identity
    gens = _generators(group)
    # residues are below MAX_PRIME < 2^16, so d of them fits int32
    c = np.ascontiguousarray(z.T, dtype=np.int32).reshape((n,) * degree + (len(z),))
    at_e = c[e] if degree == 1 else c[:, e] - c[e, e]
    step = max(1, (1 << 21) // max(c.size // n * len(gens), 1))
    if (at_e % p).any() or any(
        (_delta(c, group.mul, degree, np.arange(lo, min(lo + step, n)), gens) % p).any()
        for lo in range(0, n, step)
    ):
        raise RuntimeError("internal error: a cocycle basis row is not a cocycle")


def _coboundary_rows(group: FiniteGroup, p: int, degree: int, rows: np.ndarray) -> np.ndarray:
    """The given rows of coboundary_matrix(group, p, degree), degree 0 or 1,
    without building the others."""
    n = group.order
    if degree == 0:
        return np.zeros((len(rows), 1), dtype=np.int64)
    # (d e_x)(g, h) = [g = x] + [h = x] - [gh = x]
    g, h = np.divmod(rows, n)
    out = np.zeros((len(rows), n), dtype=np.int64)
    at = np.arange(len(rows))
    np.add.at(out, (at, g), 1)
    np.add.at(out, (at, h), 1)
    np.add.at(out, (at, group.mul[g, h]), -1)
    return out % p


@dataclass
class CohomologyBasis:
    """H^degree data: representative cocycles, and the map that reads the
    coordinates of a class from a cocycle's values at the columns L.

    The rows of Z come from a reversed-column RREF, so each row is the
    identity on its last nonzero column; L is the set of these columns.
    A cocycle z is therefore sum_i z[L_i] Z_i = Z^T z[L], restriction to L
    is injective on Z, and a cochain is a cocycle iff it equals Z^T z[L]."""

    degree: int
    representatives: list[Cochain]
    _z_t: np.ndarray  # Z^T as float64, |G|^degree x dim Z
    _lead: np.ndarray  # L
    _to_coords: np.ndarray  # float64, dim H x |L|
    p: int

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coordinates(self, z: Cochain) -> np.ndarray:
        """Coordinates of [z]; raises if z is not a cocycle."""
        if z.degree != self.degree:
            raise ValueError("degree mismatch")
        return self.coordinates_batch(z.flat()[:, None])[:, 0]

    def coordinates_batch(self, flats: np.ndarray) -> np.ndarray:
        """Coordinates for many flattened cochains (one per column); raises
        unless every one is a cocycle, checked exactly as z = Z^T z[L]."""
        if flats.shape[0] != len(self._z_t):
            raise ValueError("dimension mismatch")
        b = np.ascontiguousarray(flats, dtype=np.int64) % self.p
        at = b[self._lead].astype(np.float64)
        # exact in float64: dot products of dim Z < MAX_COLS residue pairs
        if not np.array_equal((self._z_t @ at).astype(np.int64) % self.p, b):
            raise ValueError("not a cocycle")
        return (self._to_coords @ at).astype(np.int64) % self.p


class CohomologyRing:
    """Cached cohomology data of one (group, p) pair, degrees 1 and 2.
    Each construction builds a fresh ring; `get_ring` memoizes one per group."""

    def __init__(self, group: FiniteGroup, p: int):
        _check_prime(p)
        self.group = group
        self.p = p
        self._basis: dict[int, CohomologyBasis] = {}
        self._d1_solver: Solver | None = None
        self._cup_table: np.ndarray | None = None

    def d1_solver(self) -> Solver:
        """Solver for d c = (given 2-cochain), c of degree 1."""
        if self._d1_solver is None:
            self._d1_solver = Solver(coboundary_matrix(self.group, self.p, 1), self.p)
        return self._d1_solver

    def basis(self, degree: int) -> CohomologyBasis:
        if degree not in self._basis:
            if degree not in (1, 2):
                raise ValueError("cohomology computed in degrees 1 and 2 only")
            self._basis[degree] = self._compute(degree)
        return self._basis[degree]

    def _compute(self, degree: int) -> CohomologyBasis:
        g, p = self.group, self.p
        n = g.order
        # Z^degree from the values at the generators (never d^degree itself),
        # checked against the differential at the generators
        z = _cocycles(g, p, degree)
        _check_cocycles(g, p, degree, z)
        lead = z.shape[1] - 1 - np.argmax(z[:, ::-1] != 0, axis=1)
        # Restriction to L is injective on Z, which holds the columns of
        # [d^(degree-1) | Z^T]; so [d^(degree-1)[L] | I] has the same column
        # dependencies and the same solutions for cocycles.  Its pivot
        # columns after the B part are the cocycles outside B and the span
        # of the cocycles before them, and as it has full row rank, its RREF
        # is E [d^(degree-1)[L] | I] with E the inverse of its pivot columns:
        # the right block E maps z[L] to the pivot unknowns.
        nb = n ** (degree - 1)
        red, pivots = rref(
            np.concatenate([_coboundary_rows(g, p, degree - 1, lead), np.eye(len(lead), dtype=np.int64)], axis=1),
            p,
        )
        is_rep = pivots >= nb
        reps = [Cochain(g, p, degree, v.reshape((n,) * degree)) for v in z[pivots[is_rep] - nb]]
        return CohomologyBasis(
            degree,
            reps,
            np.ascontiguousarray(z.T, dtype=np.float64),
            lead,
            np.ascontiguousarray(red[is_rep, nb:], dtype=np.float64),
            p,
        )

    # convenience views -----------------------------------------------------

    def h1_characters(self) -> list[Character]:
        return [
            Character(self.group, self.p, c.values)
            for c in self.basis(1).representatives
        ]

    def character_from_coords(self, coords: np.ndarray) -> Character:
        reps = self.basis(1).representatives
        vals = np.zeros(self.group.order, dtype=np.int64)
        for t, c in zip(coords, reps):
            vals = (vals + int(t) * c.values) % self.p
        return Character(self.group, self.p, vals)

    def cup_table(self) -> np.ndarray:
        """T[a, b] = H^2 coordinates of phi_a u phi_b over the H^1 basis
        (d x d x dim H^2), from one batched coordinate solve, built once."""
        if self._cup_table is None:
            h2 = self.basis(2)
            n, d = self.group.order, self.basis(1).dim
            reps = [c.values for c in self.basis(1).representatives]
            phis = np.array(reps, dtype=np.int64).reshape(d, n)
            # (phi_a u phi_b)(g, h) = phi_a(g) phi_b(h), one flattened table per pair
            flats = (phis[:, None, :, None] * phis[None, :, None, :]).reshape(d * d, n * n) % self.p
            coords = h2.coordinates_batch(flats.T).T.reshape(d, d, h2.dim)
            self._cup_table = _freeze(coords)
        return self._cup_table

    def cup_span(self, chars: list[Character]) -> np.ndarray:
        """Echelon basis rows of sum_chi chi u H^1 in H^2 coordinates.

        B^1 = 0, so a character with H^1 coordinates x is sum_a x_a phi_a as
        a cochain, and by bilinearity chi u phi_b has coordinates
        sum_a x_a T[a, b]: one coordinate solve for the characters, then
        rows read from the cup table."""
        if any(c.group is not self.group or c.p != self.p for c in chars):
            raise ValueError("characters on a different group or modulus")
        dim = self.basis(2).dim
        d = self.basis(1).dim
        if not chars or not d:
            return np.zeros((0, dim), dtype=np.int64)
        x = self.basis(1).coordinates_batch(np.stack([c.values for c in chars]).T).T
        rows = (x @ self.cup_table().reshape(d, d * dim)).reshape(len(chars) * d, dim)
        return row_space_basis(rows % self.p, self.p)


def get_ring(group: FiniteGroup, p: int) -> CohomologyRing:
    """The ring of (group, p), built once and memoized on the group."""
    return group.cached(("ring", p), lambda: CohomologyRing(group, p))


def cohomology(group: FiniteGroup, p: int, degree: int) -> CohomologyBasis:
    """Basis of H^degree(G, Z/p) with deterministic representatives."""
    return get_ring(group, p).basis(degree)


def class_coordinates(z: Cochain, basis: CohomologyBasis) -> np.ndarray:
    """Coordinates of the class [z] in the given basis (zero for coboundaries)."""
    return basis.coordinates(z)
