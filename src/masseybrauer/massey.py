"""Triple Massey products: defining systems, the coset structure formula,
and the vanishing-property scanner.

A defining system of size n is a triangular array (c_ij) of 1-cochains,
(1,n) absent, with d c_ij = ctilde_ij := -sum_r c_ir u c_(r+1)j.  The triple
product is computed from ONE deterministic defining system plus the coset
formula; exhaustive enumeration over all defining systems is provided as an
independent cross-check (exponential, test use).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import rref
from .cochain_dga import Cochain, CohomologyRing, cup, differential, get_ring
from .fp_linalg import in_row_space
from .group_core import Character, FiniteGroup


@dataclass
class DefiningSystem:
    """Partial triangular array of 1-cochains realizing a Massey product."""

    n: int
    entries: dict[tuple[int, int], Cochain]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("size must be at least 2")
        for (i, j) in self.entries:
            if not (1 <= i <= j <= self.n) or (i, j) == (1, self.n):
                raise ValueError(f"illegal entry position {(i, j)}")
            if self.entries[(i, j)].degree != 1:
                raise ValueError("entries must be 1-cochains")

    def entry(self, i: int, j: int) -> Cochain:
        try:
            return self.entries[(i, j)]
        except KeyError:
            raise ValueError(f"missing entry {(i, j)}") from None

    def is_valid(self) -> bool:
        """Check d c_ij = ctilde_ij for every stored position."""
        for (i, j) in self.entries:
            if differential(self.entry(i, j)) != tilde(self, i, j):
                return False
        return True


def tilde(ds: DefiningSystem, i: int, j: int) -> Cochain:
    """The 2-cochain ctilde_ij = -sum_{r=i}^{j-1} c_ir u c_(r+1)j."""
    if not (1 <= i <= j <= ds.n):
        raise ValueError(f"position {(i, j)} out of range")
    some = ds.entry(i, i)
    acc = Cochain.zero(some.group, some.p, 2)
    for r in range(i, j):
        acc = acc + cup(ds.entry(i, r), ds.entry(r + 1, j))
    return -acc


@dataclass
class MasseyCoset:
    """A triple Massey product: representative class + indeterminacy space,
    both in H^2 coordinates."""

    representative: np.ndarray
    indeterminacy: np.ndarray  # basis rows
    p: int

    def elements(self) -> list[tuple[int, ...]]:
        """All classes in the coset (small dimensions only)."""
        out = []
        k = self.indeterminacy.shape[0]
        for coeffs in itertools.product(range(self.p), repeat=k):
            v = self.representative.copy()
            for t, row in zip(coeffs, self.indeterminacy):
                v = (v + t * row) % self.p
            out.append(tuple(int(x) for x in v))
        return sorted(set(out))


def find_triple_defining_system(
    chi1: Character, chi2: Character, chi3: Character
) -> DefiningSystem | None:
    """A deterministic defining system on (chi1, chi2, chi3), or None when
    one of the cup classes [chi1][chi2], [chi2][chi3] is nonzero."""
    g, p = _common(chi1, chi2, chi3)
    vals = np.stack([chi1.values, chi2.values, chi3.values], axis=1)
    # c12 and c23 solve d c = -(chi1 u chi2) and -(chi2 u chi3)
    c, ok = get_ring(g, p).d1_solver().solve_cups(-vals[:, :2], vals[:, 1:])
    if not ok.all():
        return None
    (c1, c2, c3), (c12, c23) = ([Cochain(g, p, 1, x) for x in v.T] for v in (vals, c))
    return DefiningSystem(3, {(1, 1): c1, (2, 2): c2, (3, 3): c3, (1, 2): c12, (2, 3): c23})


def indeterminacy_subspace(
    ring: CohomologyRing, chi1: Character, chi3: Character
) -> np.ndarray:
    """Echelon basis rows of chi1 u H^1 + chi3 u H^1 in H^2 coordinates."""
    return ring.cup_span([chi1, chi3])


def triple_massey_set(
    chi1: Character, chi2: Character, chi3: Character
) -> MasseyCoset | None:
    """The triple Massey product as a coset, or None when undefined."""
    g, p = _common(chi1, chi2, chi3)
    ring = get_ring(g, p)
    ds = find_triple_defining_system(chi1, chi2, chi3)
    if ds is None:
        return None
    rep = ring.basis(2).coordinates(tilde(ds, 1, 3))
    return MasseyCoset(rep, indeterminacy_subspace(ring, chi1, chi3), p)


def contains_zero(coset: MasseyCoset) -> bool:
    """True iff the representative lies in the indeterminacy subspace."""
    return in_row_space(coset.representative, coset.indeterminacy, coset.p)


def enumerate_triple_classes(
    chi1: Character, chi2: Character, chi3: Character
) -> set[tuple[int, ...]] | None:
    """The set of classes [ctilde_13] over ALL defining systems, by direct
    enumeration of every interior-entry choice.  Exponential; cross-check
    oracle for the coset formula."""
    g, p = _common(chi1, chi2, chi3)
    ring = get_ring(g, p)
    ds = find_triple_defining_system(chi1, chi2, chi3)
    if ds is None:
        return None
    h2 = ring.basis(2)
    n = g.order
    # every valid interior entry = deterministic solution + element of Z^1,
    # and Z^1 = span of the H^1 representatives (B^1 = 0)
    z1 = ring.basis(1).rep_values
    d = len(z1)
    coeffs = np.asarray(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    u12 = (ds.entry(1, 2).flat()[None, :] + coeffs @ z1) % p
    u23 = (ds.entry(2, 3).flat()[None, :] + coeffs @ z1) % p

    v1 = chi1.values
    v3 = chi3.values
    # flattened tables of chi1 u c23 (per variant) and c12 u chi3 (per variant)
    x = (v1[None, :, None] * u23[:, None, :]).reshape(len(u23), n * n) % p
    y = (u12[:, :, None] * v3[None, None, :]).reshape(len(u12), n * n) % p

    out: set[tuple[int, ...]] = set()
    chunk = max(1, (1 << 22) // (len(u23) * n * n))
    for s in range(0, len(u12), chunk):
        blk = y[s : s + chunk]
        flats = (-(x[None, :, :] + blk[:, None, :])) % p
        coords = h2.coordinates_batch(flats.reshape(-1, n * n).T)
        out.update(map(tuple, coords.T.tolist()))
    return out


@dataclass
class ScanEntry:
    triple: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    defined: bool
    contains_zero: bool


@dataclass
class ScanReport:
    group: FiniteGroup
    p: int
    entries: list[ScanEntry]

    @property
    def witnesses(self) -> list[ScanEntry]:
        return [e for e in self.entries if e.defined and not e.contains_zero]

    @property
    def holds(self) -> bool:
        return not self.witnesses


# cells of the representatives formed per block of the scan: bounds its
# working memory whatever the number of triples
_SCAN_CELLS = 1 << 18


def scan_vanishing(group: FiniteGroup, p: int) -> ScanReport:
    """Check the vanishing triple Massey product property on every ordered
    triple of H^1 elements (zero and repeats included).  Entries equal
    `triple_massey_set` + `contains_zero`.

    Batched.  Every cup class chi_i u chi_j is read from the ring's cup
    table, since chi_i = sum_a x_ia phi_a as a cochain (B^1 = 0); one d1
    solve of the cups from their values on G x S (`solve_cups`, no |G|^2
    cup table) gives all c_ij, and its solvability must agree with the table.
    Blocks of representatives -(chi_i u c_jk + c_ij u chi_k) get H^2
    coordinates from solves that also check exactly that they are
    cocycles.  The indeterminacy chi_i u H^1 + chi_k u H^1 (Kraines) depends
    only on the subspace span(chi_i, chi_k): its rows come from the cup
    table once per subspace, and every triple over that subspace is tested
    against them in one batch."""
    ring = get_ring(group, p)
    h2 = ring.basis(2)
    n, d, dim = group.order, ring.basis(1).dim, h2.dim
    coords = list(itertools.product(range(p), repeat=d))
    m = len(coords)
    x = np.asarray(coords, dtype=np.int64).reshape(m, d)
    vals = (x @ ring.basis(1).rep_values) % p  # the characters, as `character_from_coords`

    # left[i, b] = coordinates of chi_i u phi_b; chi_i u chi_j = sum_b x_jb left[i, b]
    left = (x @ ring.cup_table().reshape(d, d * dim)).reshape(m, d, dim) % p
    cup_zero = ~((left.transpose(0, 2, 1) @ x.T) % p).any(axis=1)
    # c_ij solving d c_ij = -(chi_i u chi_j), an independent test of vanishing
    c, ok = ring.d1_solver().solve_cups(np.repeat(-vals.T, m, axis=1), np.tile(vals.T, m))
    if not np.array_equal(ok, cup_zero.reshape(-1)):
        raise RuntimeError("vanishing cup classes disagree with d1-solvability")
    c = c.T.reshape(m, m, n)

    defined = cup_zero[:, :, None] & cup_zero[None, :, :]
    ii, jj, kk = np.nonzero(defined)
    reps = np.zeros((len(ii), dim), dtype=np.int64)
    step = max(1, _SCAN_CELLS // (n * n))
    for s in range(0, len(ii), step):
        i, j, k = ii[s : s + step], jj[s : s + step], kk[s : s + step]
        z = vals[i, :, None] * c[j, k, None, :] + c[i, j, :, None] * vals[k, None, :]
        reps[s : s + step] = h2.coordinates_batch((-z % p).reshape(len(i), -1).T).T

    # key each (i, k) by the sorted indices of the characters a chi_i + b chi_k
    pairs, pair_of = np.unique(ii * m + kk, return_inverse=True)
    pi, pk = np.divmod(pairs, m)
    ab = np.asarray(list(itertools.product(range(p), repeat=2)), dtype=np.int64)
    place = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    combos = (ab[:, 0, None, None] * x[pi] + ab[:, 1, None, None] * x[pk]) % p
    members = np.sort(combos @ place, axis=0).T
    _, some_pair, span_of = np.unique(members, axis=0, return_index=True, return_inverse=True)
    span_of = span_of.reshape(-1)[pair_of]

    # v is in the span of RREF rows R iff v == v[pivots] @ R
    contains = np.zeros(len(ii), dtype=bool)
    by_span = np.split(np.argsort(span_of, kind="stable"), np.cumsum(np.bincount(span_of))[:-1])
    for q, sel in zip(some_pair, by_span):
        red, pivots = rref(np.concatenate([left[pi[q]], left[pk[q]]]), p)
        rows = red[: len(pivots)]
        v = reps[sel]
        contains[sel] = ~((v - v[:, pivots] @ rows) % p).any(axis=1)

    cz = np.zeros_like(defined)
    cz[ii, jj, kk] = contains
    return ScanReport(group, p, [
        ScanEntry(triple, is_defined, has_zero)
        for triple, is_defined, has_zero in zip(
            itertools.product(coords, repeat=3), defined.ravel().tolist(), cz.ravel().tolist()
        )
    ])


def _common(*chars: Character) -> tuple[FiniteGroup, int]:
    g, p = chars[0].group, chars[0].p
    if any(c.group is not g or c.p != p for c in chars):
        raise ValueError("characters on different groups or moduli")
    return g, p
