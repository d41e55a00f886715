"""Exact dense linear algebra over the prime field F_p.

Everything is deterministic: elimination always picks the leftmost nonzero
pivot, so representative choices made downstream are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import rref
from .brauer_q import is_prime  # re-exported: its home is numpy-free


# Largest accepted modulus, the largest prime below 2^16.  A product of two
# residues is then below 2^32, so a dot product of fewer than 2^21 of them is
# below 2^53: exact in float64 (elimination, Solver) and int64 (cup
# products).  Elimination rejects 2^21 or more columns (_kernels.MAX_COLS),
# which also bounds a Solver's rows: it eliminates [A[:, P]^T | I].
MAX_PRIME = 65521


def _check_prime(p: int) -> int:
    if p > MAX_PRIME:  # first: trial division of a huge p would not finish
        raise ValueError(f"modulus {p} exceeds the exactness bound {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FpVector:
    p: int
    entries: np.ndarray

    def __post_init__(self):
        _check_prime(self.p)
        e = np.atleast_1d(np.asarray(self.entries, dtype=np.int64)) % self.p
        object.__setattr__(self, "entries", _freeze(e))

    def __len__(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpVector)
            and self.p == other.p
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.p, self.entries.tobytes()))

    def is_zero(self) -> bool:
        return not self.entries.any()


@dataclass(frozen=True)
class FpMatrix:
    p: int
    entries: np.ndarray

    def __post_init__(self):
        _check_prime(self.p)
        e = np.asarray(self.entries, dtype=np.int64)
        if e.ndim != 2:
            raise ValueError("matrix entries must be two-dimensional")
        object.__setattr__(self, "entries", _freeze(e % self.p))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]


class Solver:
    """Precomputed elimination of a fixed matrix A for many right-hand sides.

    RREF(A) gives the pivot columns P and its nonzero rows `reduced`;
    RREF([A[:, P]^T | I]) gives rank independent rows R of A[:, P] and the
    inverse of A[R, P].  A solve is x_P = A[R, P]^-1 b[R] plus one exact
    check A[:, P] x_P = b.  Free variables are zero, matching plain
    Gaussian elimination with leftmost pivots; columns whose ok flag is
    False hold no solution.
    """

    def __init__(self, a: np.ndarray, p: int):
        self.p = _check_prime(p)
        a = np.asarray(a, dtype=np.int64) % p
        self.rows, self.cols = a.shape
        red, self.pivots = rref(a, p)
        self.reduced = red[: len(self.pivots)].copy()
        a_piv = a[:, self.pivots]
        red, self._basis_rows = rref(
            np.concatenate([a_piv.T, np.eye(len(self.pivots), dtype=np.int64)], axis=1), p
        )
        # float64 once: every solve is two BLAS products, exact by MAX_PRIME
        self._inverse = np.ascontiguousarray(red[:, self.rows :].T, dtype=np.float64)
        self._a_piv = np.ascontiguousarray(a_piv, dtype=np.float64)

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """A solution x of A x = b, or None if the system is inconsistent."""
        b = np.asarray(b, dtype=np.int64)
        if b.shape != (self.rows,):
            raise ValueError("dimension mismatch")
        x, ok = self.solve_many(b[:, None])
        return x[:, 0] if ok[0] else None

    def solve_many(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve A x = b for each column of `b`.

        Returns (solutions, ok) where solutions has one column per rhs and
        ok flags consistent systems.
        """
        b = np.ascontiguousarray(b, dtype=np.int64) % self.p
        # residues reduced as integers: np.mod on float64 is several times slower
        y = (self._inverse @ b[self._basis_rows].astype(np.float64)).astype(np.int64) % self.p
        ok = ((self._a_piv @ y.astype(np.float64)).astype(np.int64) % self.p == b).all(axis=0)
        x = np.zeros((self.cols, b.shape[1]), dtype=np.int64)
        x[self.pivots] = y
        return x, ok


def solve_linear(a: FpMatrix, b: FpVector) -> FpVector | None:
    """Some x with A x = b (deterministic), or None if inconsistent."""
    if a.p != b.p:
        raise ValueError("modulus mismatch")
    if len(b) != a.rows:
        raise ValueError("dimension mismatch")
    x = Solver(a.entries, a.p).solve(b.entries)
    return None if x is None else FpVector(a.p, x)


def kernel_basis(a: FpMatrix) -> list[FpVector]:
    """Echelonized basis of the null space of A (empty for injective A)."""
    red, pivots = rref(a.entries, a.p)
    return [FpVector(a.p, v) for v in null_space_rows(red, pivots, a.p)]


def null_space_rows(red: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """Null space basis, one row per free column f (1 at f, 0 at the other
    free columns), from the RREF rows `red` and their pivot columns."""
    cols = red.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    z = np.zeros((len(free), cols), dtype=np.int64)
    z[:, free] = np.eye(len(free), dtype=np.int64)
    z[:, pivots] = (-red[: len(pivots), free].T) % p
    return z


def membership(v: FpVector, basis: list[FpVector]) -> FpVector | None:
    """Coordinates of v in span(basis), or None if v is outside the span."""
    if not basis:
        if v.is_zero():
            return FpVector(v.p, np.zeros(0, dtype=np.int64))
        return None
    if any(b.p != v.p for b in basis):
        raise ValueError("modulus mismatch")
    if any(len(b) != len(v) for b in basis):
        raise ValueError("dimension mismatch")
    cols = np.stack([b.entries for b in basis], axis=1)
    x = Solver(cols, v.p).solve(v.entries)
    return None if x is None else FpVector(v.p, x)


def row_space_basis(rows: np.ndarray, p: int) -> np.ndarray:
    """RREF basis (as stacked rows) of the span of the given row vectors."""
    _check_prime(p)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    red, pivots = rref(rows, p)
    return red[: len(pivots)]


def in_row_space(v: np.ndarray, basis: np.ndarray, p: int) -> bool:
    if basis.shape[0] == 0:
        return not (np.asarray(v) % p).any()
    stacked = np.concatenate([basis, np.asarray(v, dtype=np.int64).reshape(1, -1) % p])
    return row_space_basis(stacked, p).shape[0] == basis.shape[0]


def row_spaces_equal(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    ba = row_space_basis(a, p)
    bb = row_space_basis(b, p)
    return ba.shape == bb.shape and bool(np.array_equal(ba, bb))
