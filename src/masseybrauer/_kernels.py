"""Dense row reduction over F_p.

The hot loop of every cohomology computation is Gaussian elimination of a
coboundary matrix (up to |G|^3 x |G|^2 entries).  Rows are taken in blocks
of BLOCK_ROWS.  A block is first reduced against the echelon rows found so
far with one float64 matrix product; only what is left of it is eliminated
pivot by pivot, and its new pivot columns are cleared from the earlier rows
with a second product.  This is the delayed reduction of FFLAS-FFPACK
(Dumas, Giorgi and Pernet, ACM TOMS 2008).  A block more than two panels
wide is reduced the same way along its columns: PANEL columns at a time,
with one product per panel for the columns right of it.  The reduced row
echelon form of a row space is unique, so the blocking does not change the
result, and a matrix of at most one block and two panels runs the per-pivot
loop alone.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

BLOCK_ROWS = 128

# columns per panel of a wide elimination (`_eliminate`)
PANEL = 64

# Every product below is a dot product of at most `cols` (a panel's: `rows`)
# < MAX_COLS pairs of residues below MAX_PRIME < 2^16 (fp_linalg), so it
# stays below 2^21 * 2^32 = 2^53 and float64 computes it exactly.
MAX_COLS = 1 << 21


def _check_cols(cols: int, what: str = "columns") -> None:
    if cols >= MAX_COLS:
        raise ValueError(f"{cols} {what}: float64 elimination is exact below {MAX_COLS}")


def _modinv(a: int, p: int) -> int:
    # p is prime, a nonzero mod p
    return pow(int(a), p - 2, p)


def _pivot_loop(a: np.ndarray, p: int, cols: int, r: int = 0) -> tuple[list[int], int]:
    """In-place RREF of the columns 0..cols-1 of a, one pivot at a time, with
    the pivot rows taken from row r on (rows above r hold the pivots of
    columns further left); every row operation acts on all of a.  Returns
    the pivot columns and the next pivot row.

    a must hold residues 0..p-1: a nonzero entry is a nonzero residue, and a
    pivot equal to 1 needs no scaling.  The columns zero from row r down are
    found once, at entry, and never visited: no operation makes them nonzero
    there, since a swap acts on rows at or below r and each pivot row added
    is zero in them."""
    rows = a.shape[0]
    pivots = []
    for c in a[r:, :cols].any(axis=0).nonzero()[0].tolist():
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[r], a[k] = a[k], a[r].copy()
        # row r is zero left of c, so whole rows can be updated
        piv = a[r]
        if piv[c] != 1:
            piv *= _modinv(piv[c], p)
            piv %= p
        piv[c] = 0  # hidden from the scan for the rows to clear
        clear = a[:, c].nonzero()[0]
        piv[c] = 1
        if clear.size:
            sub = a.take(clear, axis=0)
            sub -= sub[:, c, None] * piv
            sub %= p
            a[clear] = sub
        pivots.append(c)
        r += 1
    return pivots, r


def _eliminate(a: np.ndarray, p: int) -> np.ndarray:
    """In-place reduced row echelon form of residues mod p; returns the
    pivot columns.

    A matrix at most two panels wide runs the per-pivot loop on all of its
    columns.  A wider one is reduced one panel of PANEL columns at a time,
    left to right.  The loop runs on [panel | E], where E (the identity at
    first) holds the row operations so far, so it leaves the operations of
    this panel applied to E as well; it skips the columns of the panel that
    are zero from the next pivot row down, which no operation of the panel
    changes.  A later panel is first brought up to date by one product with
    E, and once every row has a pivot, the columns left over get E in one
    product.  Earlier panels need no update: a later pivot row is zero left
    of its panel.  The products are dot products of `rows` terms, exact by
    the MAX_COLS bound on `rows`.  The RREF is unique, so the panels do not
    change the result; they keep each pivot's update within one panel and
    E."""
    rows, cols = a.shape
    if cols <= 2 * PANEL:
        return np.asarray(_pivot_loop(a, p, cols)[0], dtype=np.int64)
    _check_cols(rows, "rows")
    ops = None  # E, None until the first panel with a pivot
    pivots, r, lo = [], 0, 0
    while lo < cols and r < rows:
        hi = min(lo + PANEL, cols)
        if ops is not None:
            a[:, lo:hi] = _dot(ops, a[:, lo:hi].astype(np.float64)) % p
        live = lo + np.flatnonzero(a[r:, lo:hi].any(axis=0))
        if live.size:
            if ops is None:
                ops = np.eye(rows, dtype=np.int64)
            panel = np.concatenate([a[:, live], ops], axis=1)
            found, r = _pivot_loop(panel, p, live.size, r)
            a[:, live], ops = panel[:, : live.size], panel[:, live.size :]
            pivots.extend(live[found].tolist())
        lo = hi
    if ops is not None and lo < cols:
        a[:, lo:] = _dot(ops, a[:, lo:].astype(np.float64)) % p
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
    red_free = None  # red[:, free] as float64, built when a block needs it
    for block in blocks:
        b = np.asarray(block, dtype=np.int64) % p
        if len(pivots):
            if red_free is None:
                free = np.flatnonzero(is_free)
                red_free = red[:, free].astype(np.float64)
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
        else:
            red, pivots = b, new
        is_free[new] = False
        red_free = None
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
