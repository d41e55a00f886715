"""Independent test oracles.

These deliberately avoid the library's closed-form code paths: the Hilbert
symbol oracle decides solvability of z^2 = a x^2 + b y^2 by exhaustive
residue enumeration (with a Hensel-lifting argument fixing the modulus), and
the linear-algebra oracles enumerate vectors outright.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from masseybrauer.brauer_q import Place


@lru_cache(maxsize=None)
def _squares_mod(q: int, n: int) -> np.ndarray:
    """Boolean table of squares in Z/q^n."""
    qn = q**n
    z = np.arange(qn, dtype=np.int64)
    s = np.zeros(qn, dtype=bool)
    s[(z * z) % qn] = True
    return s


def _reduce_val(m: int, q: int) -> int:
    """Divide out q^2 until the q-valuation is 0 or 1 (a square scaling)."""
    while m % (q * q) == 0:
        m //= q * q
    return m


def hilbert_oracle(a: int, b: int, place: Place) -> int:
    """+-1 by direct solvability of z^2 = a x^2 + b y^2 over the completion.

    At a finite prime q the equation is split into the three unit-coordinate
    normal forms (divide by the coordinate of least valuation):

        x unit:  z^2 - b y^2 = a
        y unit:  z^2 - a x^2 = b
        z unit:  a x^2 + b y^2 = 1

    and each is decided modulo q^N by enumerating the free variable against
    the table of squares mod q^N.  With the entries square-reduced to
    valuation <= 1, any residue solution has a unit variable whose partial
    derivative has valuation <= 2 (q = 2) or <= 1 (q odd), so N = 6 resp.
    N = 4 makes every residue solution Hensel-liftable; the converse
    direction is scaling a true solution to a primitive one.
    """
    if a == 0 or b == 0:
        raise ValueError("nonzero entries required")
    if not place.finite:
        return 1 if (a > 0 or b > 0) else -1
    q = place.q
    n = 6 if q == 2 else 4
    qn = q**n
    a = _reduce_val(a, q) % qn
    b = _reduce_val(b, q) % qn
    sq = _squares_mod(q, n)
    t = np.arange(qn, dtype=np.int64)
    t2 = (t * t) % qn
    if sq[(a + b * t2) % qn].any():  # x = 1
        return 1
    if sq[(b + a * t2) % qn].any():  # y = 1
        return 1
    b_sq = np.zeros(qn, dtype=bool)  # the set {b * square} mod q^N
    b_sq[(b * t2) % qn] = True
    if b_sq[(1 - a * t2) % qn].any():  # z = 1
        return 1
    return -1


def is_square_oracle(a: int, place: Place) -> bool:
    if a == 0:
        raise ValueError("nonzero entry required")
    if not place.finite:
        return a > 0
    q = place.q
    n = 6 if q == 2 else 4
    a = _reduce_val(a, q)
    return bool(_squares_mod(q, n)[a % q**n])


# ---------------------------------------------------------------------------
# brute-force linear algebra over F_p (tiny sizes only)


def kernel_by_enumeration(entries: np.ndarray, p: int) -> set[tuple[int, ...]]:
    """All vectors x with A x = 0 mod p, by trying every vector."""
    entries = np.asarray(entries, dtype=np.int64)
    cols = entries.shape[1]
    out = set()
    for x in itertools.product(range(p), repeat=cols):
        if not (entries @ np.asarray(x, dtype=np.int64) % p).any():
            out.add(x)
    return out


def span_by_enumeration(rows: np.ndarray, p: int) -> set[tuple[int, ...]]:
    """All F_p-combinations of the given row vectors."""
    rows = np.asarray(rows, dtype=np.int64)
    out = set()
    for coeffs in itertools.product(range(p), repeat=rows.shape[0]):
        v = np.zeros(rows.shape[1], dtype=np.int64)
        for t, row in zip(coeffs, rows):
            v = (v + t * row) % p
        out.add(tuple(int(e) for e in v))
    return out


def rref_by_loops(entries: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod p by textbook elimination on Python
    integers, one pivot at a time (leftmost pivot column, first nonzero row
    at or below as pivot row).  Returns the reduced matrix, zero rows at the
    bottom, and the pivot columns."""
    rows, cols = np.shape(entries)
    a = [[int(x) % p for x in row] for row in np.asarray(entries).tolist()]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    red = np.asarray(a, dtype=np.int64).reshape(rows, cols)
    return red, np.asarray(pivots, dtype=np.int64)
