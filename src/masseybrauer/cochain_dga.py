"""The cochain algebra C*(G, Z/p) in degrees 0..3.

Convention: inhomogeneous (bar) cochains with trivial action, differential

    (d f)(g)       = 0                                   for f of degree 0
    (d f)(g, h)    = f(g) + f(h) - f(gh)
    (d c)(g, h, k) = c(h, k) - c(gh, k) + c(g, hk) - c(g, h)

and cup product by front/back splitting, (a u b)(g, ..., h, ...) =
a(front) b(back).  Cochains are not required to be normalized.

Cocycles are solved for from the group's presentation (`_cocycles`), never
from d^degree itself, and checked against d at last arguments in the
generating set (`_check_cocycles`).  H^2 is refused above order 256
(MAX_CELLS) before anything is allocated.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import BLOCK_ROWS, _dot, rref, rref_blocks
from .fp_linalg import Solver, _check_prime, _freeze, null_space_rows, row_space_basis
from .group_core import Character, FiniteGroup, Presentation, Subgroup

MAX_DEGREE = 3

# The largest H^degree built: a ring's arrays in degree k (Z^k and its
# float64 copy in the basis; in degree 2 also the columns of d^1 and the
# rows they are reduced in) have about |G|^(k+1) entries.  2^24 admits H^2
# up to order 256 (134 MB per int64 array, under 1 GB in all) and H^1 up to
# group_core.MAX_ORDER.  `d1_solver`, whose right-hand sides are
# 2-cochains, is refused with H^2.
MAX_CELLS = 1 << 24


def _check_size(group: FiniteGroup, degree: int) -> None:
    """Refuse H^degree of a group whose arrays would exceed MAX_CELLS,
    before anything is allocated."""
    cells = group.order ** (degree + 1)
    if cells > MAX_CELLS:
        raise ValueError(
            f"size guard: H^{degree} of a group of order {group.order} needs arrays of "
            f"{cells} > {MAX_CELLS} entries"
        )


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


class Relators:
    """The relations of maps defined along the BFS tree of the Cayley graph
    (`FiniteGroup.presentation`), for one group and modulus, indexed by the
    presentation's generators S.  Built once per (group, p) by `relators`.

    Every g != e is reached as parent[g] s_via[g].  `relations` sums a value
    step[g, s] along the tree to each element, and gives the relations that
    the edges off the tree leave.  For step[g, s] = e_s the sums are
    paths[g], counting the generators along the path to g, and the
    relations are the relator matrix R = paths[g s] - paths[g] - e_s (rows
    by (g, s)): a map with c(g s) = c(g) + a_s is paths a for a in ker R.
    `solver` eliminates R once; `reduced` is its RREF and `kernel` spans its
    null space, the generator values of the homomorphisms G -> F_p.  They
    serve Z^1 (`_cocycles`), d^1 solves (`TreeD1Solver`) and the prescribed
    homomorphisms of `unipotent`, whose matrix entries are such tree sums.

    For those, pairs[g, k, l] counts the edges via s_l of the path to g,
    each weighted by the s_k in the path to its start, and `checks`, the
    cup form, has one row per independent condition that the distance-2
    relations put on the generator values a (x) b of two characters.  Both
    are built on first use.  No array is |G| x |G|."""

    def __init__(self, group: FiniteGroup, p: int):
        pres = group.presentation()
        self.gens = pres.gens
        n, ns = group.order, len(self.gens)
        self.p, self.parent, self.path_sums = p, pres.parent, pres.path_sums
        self.via = pres.via[1:]  # of the elements 1, 2, ...; 0 is e
        self.ends = group.mul[:, self.gens]
        self.paths, matrix = self.relations(np.broadcast_to(np.eye(ns, dtype=np.int64), (n, ns, ns)))
        self.matrix = matrix.reshape(n * ns, ns)
        self.solver = Solver(self.matrix, p)
        self.reduced = self.solver.reduced
        self.kernel = null_space_rows(self.reduced, self.solver.pivots, p)

    def relations(self, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """own, the sums of step[g, s] (any trailing axes) over the tree
        edges (g, s) of the path to each element, 0 at e, and the relations
        own[g s] - own[g] - step[g, s] at every (g, s), both mod p."""
        along = np.zeros((len(self.parent),) + step.shape[2:], dtype=np.int64)
        along[1:] = step[self.parent[1:], self.via]  # 0 at the identity
        own = self.path_sums(along) % self.p
        return own, (own[self.ends] - own[:, None] - step) % self.p

    @cached_property
    def pairs(self) -> np.ndarray:
        n, ns = self.paths.shape
        edge = np.zeros((n, ns), dtype=np.int64)
        edge[np.arange(1, n), self.via] = 1
        return self.path_sums(self.paths[self.parent, :, None] * edge[:, None]) % self.p

    @cached_property
    def checks(self) -> np.ndarray:
        """The distance-2 relations R x_i = c_i of `find_prescribed_hom`, c_i
        = -`relations` of chi_i(g) chi_(i+1)(s), are bilinear in the generator
        values a of chi_i and b of chi_(i+1): c_i = sum_kl a_k b_l M_kl, with
        M_kl(g, s) = pairs[g, k, l] - pairs[g s, k, l] + paths[g, k] [s = l].
        c_i is in the column space of R iff its residue after a solve is 0,
        so the RREF rows of the residues of the M_kl decide it:
        checks @ (a (x) b) = 0.  Their number is the rank of the cup
        products on generator values."""
        (n, ns), p = self.paths.shape, self.p
        eye, every = np.eye(ns, dtype=np.int64), np.arange(n)

        def cup(at: np.ndarray, ks: np.ndarray) -> np.ndarray:
            # M_kl(g, s) for g in `at` and k in `ks`, rows (g, s), columns (k, l)
            m = (
                self.pairs[at[:, None], ks][:, None]
                - self.pairs[self.ends[at][:, :, None], ks]
                + self.paths[at[:, None], ks][:, None, :, None] * eye[:, None, :]
            )
            return m.reshape(len(at) * ns, len(ks) * ns)

        # R x = M_kl for every k (columns l), then the residues reduced in
        # blocks of g, never stacked
        solved = np.zeros((ns, ns * ns), dtype=np.int64)
        for k in range(ns):
            solved[:, k * ns : (k + 1) * ns] = self.solver.solve_many(cup(every, [k]) % p)[0]
        step = max(1, BLOCK_ROWS // max(ns, 1))
        red, _ = rref_blocks(
            (
                cup(every[lo : lo + step], np.arange(ns)) - _dot(self.matrix[lo * ns : (lo + step) * ns], solved)
                for lo in range(0, n, step)
            ),
            ns * ns,
            p,
        )
        return red


def relators(group: FiniteGroup, p: int) -> Relators:
    """The relator system of (group, p), built once and memoized on the group."""
    return group.cached(("relators", p), lambda: Relators(group, p))


def _cocycles(group: FiniteGroup, p: int, degree: int) -> np.ndarray:
    """Z^degree as null_space_rows(RREF(d^degree)), from the presentation
    of the group (`FiniteGroup.presentation`): the BFS tree of its Cayley
    graph by S, the generators other than e, and the edges off the tree.

    Degree 1: a cocycle is a homomorphism, paths a for its generator values
    a in the kernel of the relator matrix R (`Relators`), so the rows of
    kernel paths^T span Z^1.

    Degree 2: the unknowns u(v, t) sit on the off-tree edges (v, s_t), u
    is 0 on the tree, and P(x, g) is the sum of u along x times the tree
    word of g.  Then f_u(g, h) = P(g, h) is phi(w_g w_h w_gh^-1) for phi on
    the relation module R of the free group F on S (its basis: one loop
    per off-tree edge), w_g the tree word.  f_u is a cocycle iff phi is
    invariant under conjugation by F, and as F is free on S and R is
    generated by the loops at the off-tree edges (g, s), that is
    P(x, g) + u(xg, s) - P(x, gs) - u(g, s) = 0 for x, s in S and those
    (g, s): |S| rows per off-tree edge, streamed per x.  By
    inflation-restriction and H^2(F) = 0 (Hopf's formula), every class of
    H^2 is some [f_u], so Z^2 is spanned by the columns of d^1 and the f_u
    for u in the kernel K.

    The basis above is the one that is the identity on the
    lexicographically last independent columns: the RREF of the spanning
    rows with the columns reversed.  It depends only on Z, not on the
    tree.
    """
    if degree == 1:
        rel = relators(group, p)
        span = _dot(rel.kernel, rel.paths.T) % p
        red, pivots = rref(span[:, ::-1], p)
        return np.ascontiguousarray(red[: len(pivots)][::-1, ::-1])
    pres = group.presentation()
    n, mul, ns, m = group.order, group.mul, len(pres.gens), pres.edge_count
    red, pivots = rref_blocks(_loop_equations(group, pres), m, p)
    u = null_space_rows(red, pivots, p)
    # f_u(g, h) = P(g, h) u: the sum over the tree path to h of u at the
    # edges (g parent, via) (axes h, g, u), and 0 at the tree edges
    at = np.zeros((n, ns, len(u)), dtype=np.int64)
    at[pres.edges >= 0] = u.T
    along = np.zeros((n, n, len(u)), dtype=np.int64)  # 0 at the identity, element 0
    along[1:] = at[mul[:, pres.parent[1:]].T, pres.via[1:, None]]
    f = pres.path_sums(along) % p
    rows = f.transpose(2, 1, 0).reshape(len(u), n * n)[:, ::-1]
    red, pivots = rref_blocks(_spanning_rows(group, rows), n * n, p)
    return np.ascontiguousarray(red[::-1, ::-1])


def _loop_equations(group: FiniteGroup, pres: Presentation) -> Iterator[np.ndarray]:
    """The rows P(x, g) + u(xg, s) - P(x, gs) - u(g, s) of `_cocycles` over
    the off-tree edges (g, s), one x in S at a time, in blocks of at most
    BLOCK_ROWS rows; column `edge_count` collects the tree edges and is
    dropped."""
    n, mul, m = group.order, group.mul, pres.edge_count
    edges = np.where(pres.edges >= 0, pres.edges, m)
    g, s = np.nonzero(pres.edges >= 0)
    gs, rows = mul[g, pres.gens[s]], np.arange(len(g))
    for x in pres.gens:
        # P(x, .): one unit vector per tree edge of the path from x, summed
        along = np.zeros((n, m + 1), dtype=np.int64)
        along[np.arange(n), edges[mul[x, pres.parent], pres.via]] = 1
        along[group.identity] = 0
        path = pres.path_sums(along)
        eq = path[g] - path[gs]
        eq[rows, edges[mul[x, g], s]] += 1
        eq[rows, pres.edges[g, s]] -= 1
        for lo in range(0, len(g), BLOCK_ROWS):
            yield eq[lo : lo + BLOCK_ROWS, :m]


def _spanning_rows(group: FiniteGroup, f: np.ndarray) -> Iterator[np.ndarray]:
    """The rows f, then the columns of d^1 (not reduced mod p), all with
    their entries reversed, in blocks of about BLOCK_ROWS rows, the first
    of them with f: d^1 has |G|^3 entries and is never stacked.  Column x
    is (d e_x)(g, h) = [g = x] + [h = x] - [gh = x]."""
    n, mul = group.order, group.mul
    cuts = [0, *range(max(1, BLOCK_ROWS - len(f)), n, BLOCK_ROWS), n]
    for lo, hi in zip(cuts, cuts[1:]):
        d = np.zeros((hi - lo, n, n), dtype=np.int8)
        at = np.arange(hi - lo)
        d[at, at + lo] += 1
        d[at, :, at + lo] += 1
        g, h = np.nonzero((mul >= lo) & (mul < hi))
        d[mul[g, h] - lo, g, h] -= 1
        d = d.reshape(hi - lo, n * n)[:, ::-1]
        yield np.concatenate([f, d]) if lo == 0 else d


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
    gens = group.presentation().gens
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

    group: FiniteGroup
    degree: int
    rep_values: np.ndarray  # read-only, one flattened representative per row
    _z_t: np.ndarray  # Z^T as float64, |G|^degree x dim Z
    _lead: np.ndarray  # L
    _to_coords: np.ndarray  # float64, dim H x |L|
    p: int

    @property
    def dim(self) -> int:
        return len(self.rep_values)

    @cached_property
    def representatives(self) -> list[Cochain]:
        shape = (self.group.order,) * self.degree
        return [Cochain(self.group, self.p, self.degree, v.reshape(shape)) for v in self.rep_values]

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


class TreeD1Solver:
    """Solves d c = f for 1-cochains c along the presentation's tree; d^1
    is never built.

    At (e, e) and at (g, s) for s in S, d c = f reads c(e) = f(e, e) and
    c(g s) = c(g) + a_s - f(g, s), with a_s = c(s) - c(e) + f(e, s).  Along
    the tree that writes c = paths a + own + f(e, e), own and R a from the
    `Relators.relations` of -f(g, s): one solve on the relator solver.
    Subtracting the cocycle Z^T c[L] then gives the one solution that is 0
    on the lead columns L of Z^1, the free columns of d^1: the solution of
    Gaussian elimination of d^1 with leftmost pivots and free variables 0.

    These equations are d c = f on G x S where f(e, s) = f(e, e), as for
    every cocycle.  So `solve_many`, for any 2-cochains, checks d c = f at
    every (g, h).  For a right-hand side known to be a cocycle, the values
    at G x S and (e, e) suffice and the relator solve decides: w = d c - f
    is then a cocycle that vanishes at last arguments in S, hence
    everywhere (as in `_check_cocycles`).  `solve_cups` solves cups of
    characters so, and `CohomologyRing.triple_form` the cocycles
    phi_b u phi_c - sum_t T[b, c, t] r_t of the H^1 and H^2 bases."""

    def __init__(self, group: FiniteGroup, p: int, rel: Relators, h1: CohomologyBasis):
        self.mul, self.p, self.rel, self.h1 = group.mul, p, rel, h1

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """A solution c of d c = b, or None if there is none."""
        b = np.asarray(b, dtype=np.int64)
        if b.shape != (self.mul.size,):
            raise ValueError("dimension mismatch")
        x, ok = self.solve_many(b[:, None])
        return x[:, 0] if ok[0] else None

    def solve_many(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve d c = f for each column f of `b`.  Returns (solutions, ok);
        columns whose ok flag is False hold no solution."""
        mul, p = self.mul, self.p
        n = len(mul)
        if b.shape[0] != n * n:
            raise ValueError("dimension mismatch")
        # residues are below MAX_PRIME < 2^16, so d c - f fits int32
        f = np.ascontiguousarray(np.asarray(b, dtype=np.int64) % p, dtype=np.int32).reshape(n, n, -1)
        c, ok = self._solve(f[:, self.rel.gens], f[0, 0])
        # d c at blocks of first arguments that keep each array near 2^21 entries
        c32, every = c.astype(np.int32), np.arange(n)
        step = max(1, (1 << 21) // max(n * f.shape[2], 1))
        for lo in range(0, n, step):
            dc = _delta(c32, mul, 1, every[lo : lo + step], every)
            ok &= ~((dc - f[lo : lo + step]) % p).any(axis=(0, 1))
        return c, ok

    def solve_cups(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve d c = a_j u b_j for the characters a_j, b_j given as value
        tables, column j of `a` and of `b` (|G| rows each).  Returns
        (solutions, ok) as `solve_many` does; raises ValueError unless every
        a_j and b_j is a homomorphism, checked at G x S."""
        rel, p = self.rel, self.p
        a, b = (np.asarray(x, dtype=np.int64) % p for x in (a, b))
        if a.shape != b.shape or a.shape[0] != len(self.mul):
            raise ValueError("dimension mismatch")
        for x in (a, b):
            if x[0].any() or ((x[rel.ends] - x[:, None] - x[rel.gens]) % p).any():
                raise ValueError("not a homomorphism")
        return self._solve(a[:, None] * b[rel.gens], 0)  # f(e, e) = a(e) b(e) = 0

    def _solve(self, at_s: np.ndarray, at_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The solutions c from the values f(g, s) at G x S, at_s[g, s, j],
        and f(e, e) = at_e[j], and the relator solve's ok flags."""
        p, rel, h1 = self.p, self.rel, self.h1
        own, rows = rel.relations(-at_s)
        a, ok = rel.solver.solve_many(-rows.reshape(at_s.shape[0] * at_s.shape[1], at_s.shape[2]))
        c = (_dot(rel.paths, a) + own + at_e) % p
        return (c - (h1._z_t @ c[h1._lead].astype(np.float64)).astype(np.int64)) % p, ok


class CohomologyRing:
    """Cached cohomology data of one (group, p) pair, degrees 1 and 2.
    Each construction builds a fresh ring; `get_ring` memoizes one per group."""

    def __init__(self, group: FiniteGroup, p: int):
        _check_prime(p)
        self.group = group
        self.p = p
        self._basis: dict[int, CohomologyBasis] = {}
        self._d1_solver: TreeD1Solver | None = None
        self._cup_table: np.ndarray | None = None
        self._triple_form: tuple[np.ndarray, np.ndarray] | None = None

    def d1_solver(self) -> TreeD1Solver:
        """Solver for d c = (given 2-cochain), c of degree 1."""
        if self._d1_solver is None:
            _check_size(self.group, 2)
            self._d1_solver = TreeD1Solver(self.group, self.p, relators(self.group, self.p), self.basis(1))
        return self._d1_solver

    def basis(self, degree: int) -> CohomologyBasis:
        if degree not in self._basis:
            if degree not in (1, 2):
                raise ValueError("cohomology computed in degrees 1 and 2 only")
            _check_size(self.group, degree)
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
        return CohomologyBasis(
            g,
            degree,
            _freeze(z[pivots[is_rep] - nb]),
            np.ascontiguousarray(z.T, dtype=np.float64),
            lead,
            np.ascontiguousarray(red[is_rep, nb:], dtype=np.float64),
            p,
        )

    # convenience views -----------------------------------------------------

    def h1_characters(self) -> list[Character]:
        return [Character(self.group, self.p, v) for v in self.basis(1).rep_values]

    def character_from_coords(self, coords: np.ndarray) -> Character:
        vals = np.zeros(self.group.order, dtype=np.int64)
        for t, v in zip(coords, self.basis(1).rep_values):
            vals = (vals + int(t) * v) % self.p
        return Character(self.group, self.p, vals)

    def cup_table(self) -> np.ndarray:
        """T[a, b] = H^2 coordinates of phi_a u phi_b over the H^1 basis
        (d x d x dim H^2), from one batched coordinate solve, built once."""
        if self._cup_table is None:
            h2 = self.basis(2)
            n, phis = self.group.order, self.basis(1).rep_values
            d = len(phis)
            # (phi_a u phi_b)(g, h) = phi_a(g) phi_b(h), one flattened table per pair
            flats = (phis[:, None, :, None] * phis[None, :, None, :]).reshape(d * d, n * n) % self.p
            coords = h2.coordinates_batch(flats.T).T.reshape(d, d, h2.dim)
            self._cup_table = _freeze(coords)
        return self._cup_table

    def triple_form(self) -> np.ndarray:
        """M[a, b, c] = the H^2 readout at the lead columns L of
        phi_a u c_bc + c_ab u phi_c (d x d x d x dim H^2), where
        d c_bc = phi_b u phi_c - sum_t T[b, c, t] r_t for the cup table T
        and the H^2 representatives r_t; built once per cup table.

        If chi_j u chi_k = 0, then C_jk = -sum_bc x_jb x_kc c_bc solves
        d C_jk = -chi_j u chi_k, and the Massey representative
        -(chi_i u C_jk + C_ij u chi_k) of a defined triple is trilinear in
        the H^1 coordinates: sum_abc x_ia x_jb x_kc M[a, b, c].  The readout
        E z[L] (`CohomologyBasis._to_coords`) is linear and exact on
        cocycles, so the sum of the per-term readouts is the class of the
        representative, which is a cocycle.

        Each right-hand side is a cocycle, so c_bc is solved along the tree
        from its values at G x S and (e, e) (`TreeD1Solver`), exactly.  As
        the r_t are independent classes, the d^2 solves succeed iff every
        entry of T is right: raises RuntimeError otherwise."""
        table = self.cup_table()
        if self._triple_form is None or self._triple_form[0] is not table:
            h1, h2, solver = self.basis(1), self.basis(2), self.d1_solver()
            n, d, dim, p = self.group.order, h1.dim, h2.dim, self.p
            phis, gens, e = h1.rep_values, solver.rel.gens, self.group.identity
            reps, t = h2.rep_values.reshape(dim, n, n), table.reshape(d * d, dim)
            # phi_b u phi_c - sum_t T[b, c, t] r_t at (g, s), columns (b, c), and at (e, e)
            at_s = (phis.T[:, None, :, None] * phis[:, gens].T[None, :, None, :]).reshape(n, len(gens), d * d)
            at_s = at_s - reps[:, :, gens].transpose(1, 2, 0) @ t.T
            c, ok = solver._solve(at_s % p, -(reps[:, e, e] @ t.T) % p)
            if not ok.all():
                raise RuntimeError("internal error: the cup table disagrees with d1-solvability")
            c = c.reshape(n, d, d)
            g, h = np.divmod(h2._lead, n)
            # (phi_a u c_bc + c_ab u phi_c)(g, h) at (g, h) in L, last axis
            c_g, c_h = c[g].transpose(1, 2, 0), c[h].transpose(1, 2, 0)
            z = phis[:, g][:, None, None] * c_h + c_g[:, :, None] * phis[:, h]
            m = ((z % p).reshape(d**3, len(g)).astype(np.float64) @ h2._to_coords.T).astype(np.int64) % p
            self._triple_form = (table, _freeze(m.reshape(d, d, d, dim)))
        return self._triple_form[1]

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
