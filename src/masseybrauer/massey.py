"""Triple Massey products: defining systems, the coset structure formula,
and the vanishing-property scanner.

A defining system of size n is a triangular array (c_ij) of 1-cochains,
(1,n) absent, with d c_ij = ctilde_ij := -sum_r c_ir u c_(r+1)j.  The triple
product is computed from ONE deterministic defining system plus the coset
formula; exhaustive enumeration over all defining systems is a test oracle
(`tests/oracles.py`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


@dataclass
class ScanEntry:
    triple: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    defined: bool
    contains_zero: bool


class Witness(NamedTuple):
    """A defined triple whose Massey product misses 0."""

    triple: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    defined = True
    contains_zero = False


@dataclass(eq=False)
class ScanReport:
    """The scan of every ordered triple (chi_i, chi_j, chi_k) of H^1, where
    i, j, k index the m = p^h1_dim coordinate vectors in the order of
    `itertools.product(range(p), repeat=h1_dim)` (0 is the zero character).
    `defined` and `contains_zero` are read-only m x m x m bool arrays;
    `entries` lists one ScanEntry per triple in that order, built on first
    read.  `witnesses` and `holds` read the arrays only."""

    group: FiniteGroup
    p: int
    h1_dim: int
    defined: np.ndarray
    contains_zero: np.ndarray

    def _coords(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.p), repeat=self.h1_dim))

    @cached_property
    def entries(self) -> list[ScanEntry]:
        return [
            ScanEntry(triple, is_defined, has_zero)
            for triple, is_defined, has_zero in zip(
                itertools.product(self._coords(), repeat=3),
                self.defined.ravel().tolist(),
                self.contains_zero.ravel().tolist(),
            )
        ]

    @property
    def witnesses(self) -> list[Witness]:
        coords = self._coords()
        found = np.nonzero(self.defined & ~self.contains_zero)
        return [Witness((coords[i], coords[j], coords[k])) for i, j, k in zip(*(a.tolist() for a in found))]

    @property
    def holds(self) -> bool:
        return not (self.defined & ~self.contains_zero).any()


# cells of the trilinear contraction formed per block of the scan: bounds
# its working memory whatever the number of triples
_SCAN_CELLS = 1 << 18


def scan_vanishing(group: FiniteGroup, p: int) -> ScanReport:
    """Check the vanishing triple Massey product property on every ordered
    triple of H^1 elements (zero and repeats included).  The verdicts equal
    `triple_massey_set` + `contains_zero`.

    Batched, and no cochain is formed per triple.  Every cup class
    chi_i u chi_j is read from the ring's cup table T, since
    chi_i = sum_a x_ia phi_a as a cochain (B^1 = 0), and a triple is defined
    iff both of its cups vanish.  Its representative then has the
    coordinates sum_abc x_ia x_jb x_kc M[a, b, c] of the ring's trilinear
    form (`CohomologyRing.triple_form`, d^2 tree solves per ring that also
    check every entry of T).  That representative differs from the one of
    `find_triple_defining_system` by chi_i u z + z' u chi_k for 1-cocycles
    z, z', so inside the indeterminacy chi_i u H^1 + chi_k u H^1
    (Kraines), and the verdicts agree.  It is 0 when a character is 0, so
    only triples of nonzero characters are contracted, in blocks of
    bounded size.  The indeterminacy depends only on the subspace
    span(chi_i, chi_k): its rows come from the cup table once per
    subspace, and every nonzero representative over that subspace is
    tested against them in one batch."""
    ring = get_ring(group, p)
    d, dim = ring.basis(1).dim, ring.basis(2).dim
    form, table = ring.triple_form(), ring.cup_table()
    m = p**d
    x = np.asarray(list(itertools.product(range(p), repeat=d)), dtype=np.int64).reshape(m, d)

    # left[i, b] = coordinates of chi_i u phi_b; chi_i u chi_j = sum_b x_jb left[i, b]
    left = (x @ table.reshape(d, d * dim)).reshape(m, d, dim) % p
    cup_zero = ~((left.transpose(0, 2, 1) @ x.T) % p).any(axis=1)
    defined = cup_zero[:, :, None] & cup_zero[None, :, :]
    contains = defined.copy()  # cleared below where the representative misses the span

    # a[i, (b, c)] = sum_a x_ia M[a, b, c]: the representative of (i, j, k) is
    # sum_bc x_jb x_kc a[i, (b, c)]
    a = (x @ form.reshape(d, d * d * dim)).reshape(m, d * d, dim) % p
    coef = np.asarray(list(itertools.product(range(p), repeat=2)), dtype=np.int64)
    place = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    spans: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}  # RREF rows and pivots per span
    for i, j, k in _nonzero_blocks(defined, max(1, _SCAN_CELLS // max(d * d * dim, 1))):
        w = (x[j, :, None] * x[k, None, :]).reshape(len(i), d * d)
        reps = np.einsum("nq,nqt->nt", w, a[i]) % p
        live = reps.any(axis=1)
        i, j, k, reps = i[live], j[live], k[live], reps[live]
        # key each (i, k) by the sorted indices of the characters a chi_i + b chi_k
        combos = (coef[:, 0, None, None] * x[i] + coef[:, 1, None, None] * x[k]) % p
        members = np.sort(combos @ place, axis=0).T
        keys, some, span_of = np.unique(members, axis=0, return_index=True, return_inverse=True)
        span_of = span_of.reshape(-1)
        by_span = np.split(np.argsort(span_of, kind="stable"), np.cumsum(np.bincount(span_of))[:-1])
        for key, q, sel in zip(map(bytes, keys), some, by_span):
            if key not in spans:
                red, pivots = rref(np.concatenate([left[i[q]], left[k[q]]]), p)
                spans[key] = red[: len(pivots)], pivots
            rows, pivots = spans[key]
            # v is in the span of RREF rows R iff v == v[pivots] @ R
            v = reps[sel]
            contains[i[sel], j[sel], k[sel]] = ~((v - v[:, pivots] @ rows) % p).any(axis=1)

    for arr in (defined, contains):
        arr.setflags(write=False)
    return ScanReport(group, p, d, defined, contains)


def _nonzero_blocks(defined: np.ndarray, step: int):
    """Index arrays (i, j, k) of the true entries of `defined` with i, j, k
    all nonzero, in blocks of at most `step` triples, found slab by slab of
    i (at most max(step, m^2) entries at a time)."""
    m = len(defined)
    slab = max(1, step // (m * m))
    for lo in range(1, m, slab):
        i, j, k = np.nonzero(defined[lo : lo + slab, 1:, 1:])
        for s in range(0, len(i), step):
            yield i[s : s + step] + lo, j[s : s + step] + 1, k[s : s + step] + 1


def _common(*chars: Character) -> tuple[FiniteGroup, int]:
    g, p = chars[0].group, chars[0].p
    if any(c.group is not g or c.p != p for c in chars):
        raise ValueError("characters on different groups or moduli")
    return g, p
