"""Dense row reduction over F_p.

The hot loop of every cohomology computation is Gaussian elimination of a
coboundary matrix (up to |G|^3 x |G|^2 entries).  Rows are taken in blocks
of BLOCK_ROWS.  A block is first reduced against the echelon rows found so
far with one float64 matrix product; only what is left of it is eliminated
pivot by pivot, and its new pivot columns are cleared from the earlier rows
with a second product.  This is the delayed reduction of FFLAS-FFPACK
(Dumas, Giorgi and Pernet, ACM TOMS 2008).  The reduced row echelon form of
a row space is unique, so the blocking does not change the result, and a
matrix of at most one block runs the per-pivot loop alone.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

BLOCK_ROWS = 128

# Every product below is a dot product of at most `cols` < MAX_COLS pairs of
# residues below MAX_PRIME < 2^16 (fp_linalg), so it stays below
# 2^21 * 2^32 = 2^53 and float64 computes it exactly.
MAX_COLS = 1 << 21


def _check_cols(cols: int) -> None:
    if cols >= MAX_COLS:
        raise ValueError(f"{cols} columns: float64 elimination is exact below {MAX_COLS}")


def _modinv(a: int, p: int) -> int:
    # p is prime, a nonzero mod p
    return pow(int(a), p - 2, p)


def _eliminate(a: np.ndarray, p: int) -> np.ndarray:
    """In-place reduced row echelon form of residues mod p, one pivot at a
    time; returns the pivot columns."""
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * _modinv(a[r, c], p)) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            # row r is zero left of c
            a[mask, c:] = (a[mask, c:] - np.outer(col[mask], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return np.asarray(pivots, dtype=np.int64)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for residue matrices, exact by the MAX_COLS bound."""
    return (x.astype(np.float64) @ y).astype(np.int64)


def rref_blocks(
    blocks: Iterable[np.ndarray], cols: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """RREF mod p of the rows of `blocks` (arrays of `cols` columns, taken in
    order; BLOCK_ROWS rows each keep the per-pivot loop small), without
    stacking them.

    Returns the nonzero rows of the RREF and their pivot columns.
    """
    _check_cols(cols)
    red = np.zeros((0, cols), dtype=np.int64)
    pivots = np.zeros(0, dtype=np.int64)
    is_free = np.ones(cols, dtype=bool)
    free = np.arange(cols)
    red_free = red.astype(np.float64)  # red[:, free]
    for block in blocks:
        b = np.asarray(block, dtype=np.int64) % p
        if len(pivots):
            # red[:, pivots] is the identity: only the free columns change
            b[:, free] = (b[:, free] - _dot(b[:, pivots], red_free)) % p
            b[:, pivots] = 0
        b = b[b.any(axis=1)]
        if not len(b):
            continue
        new = _eliminate(b, p)
        b = b[: len(new)]
        if len(pivots):
            red[:, free] = (red[:, free] - _dot(red[:, new], b[:, free].astype(np.float64))) % p
        order = np.argsort(np.concatenate([pivots, new]))
        red = np.concatenate([red, b])[order]
        pivots = np.concatenate([pivots, new])[order]
        is_free[new] = False
        free = np.flatnonzero(is_free)
        red_free = red[:, free].astype(np.float64)
    return red, pivots


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF mod p of a copy of `a`; returns (reduced matrix, pivot columns)."""
    work = np.ascontiguousarray(a, dtype=np.int64) % p
    rows, cols = work.shape
    if rows <= BLOCK_ROWS:
        _check_cols(cols)
        return work, _eliminate(work, p)
    red, pivots = rref_blocks(
        (work[lo : lo + BLOCK_ROWS] for lo in range(0, rows, BLOCK_ROWS)), cols, p
    )
    work[: len(pivots)] = red
    work[len(pivots) :] = 0
    return work, pivots
