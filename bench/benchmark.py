"""Per-layer timings: the F_p row reduction kernel by matrix shape, and
`realize_as_cup` by the number of odd primes of a.

Run as:  python3 bench/benchmark.py [rref] [realize]   (default: both)

The rref cases are the degree-2 coboundary matrices of some builtin groups
(the shapes H^2 reduces, here built whole) and random dense matrices, full
rank and rank-deficient.  Each line gives the shape, the modulus, the rank
and the time.

The realize cases take a = +-(a product of k consecutive odd primes) for
k = 6, 9, 12, 14 and two targets each: the first two primes of a, which
sign * d realizes for a divisor d of the pool, and a pair of places that
no such sign * d realizes, so x needs an auxiliary prime w.  Each line
gives k, the target, x and the time.

Every time is the best of three calls, or one call when it takes over a
second.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from masseybrauer._kernels import rref
from masseybrauer.brauer_q import HALF, Place
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import coboundary_matrix
from masseybrauer.fp_linalg import is_prime
from masseybrauer.lgp_decompose import realize_as_cup


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        if best > 1.0:
            break
    return best


def cases():
    for name, p in [("elab:2:3", 2), ("dihedral:8", 2), ("dihedral:12", 2), ("elab:3:3", 3)]:
        yield f"d2 {name}", coboundary_matrix(builtin_group(name), p, 2), p
    rng = np.random.default_rng(7)
    for n, p in [(300, 2), (300, 3), (600, 5), (600, 65521)]:
        yield f"random {n}x{n}", rng.integers(0, p, size=(n, n)), p
    for rows, cols, rank, p in [(4000, 400, 40, 3), (4000, 400, 380, 3)]:
        a = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols))
        yield f"random rank {rank}", a % p, p


# (k, sign, index of the first odd prime of a, places of a target that
# needs an auxiliary prime); "inf" is the real place
_NEEDS_W = [
    (6, 1, 6, ("2", "11")),
    (9, 1, 0, ("2", "3")),
    (12, -1, 0, ("inf", "2")),
    (14, 1, 1, ("2", "7")),
]


def realize_cases():
    odd = [q for q in range(3, 100) if is_prime(q)]
    for k, sign, start, hard in _NEEDS_W:
        primes = odd[start : start + k]
        for places in (primes[:2], hard):
            yield k, sign * math.prod(primes), {Place.parse(str(v)): HALF for v in places}


def bench_rref() -> None:
    print(f"{'case':22s} {'shape':>12s} {'p':>6s} {'rank':>5s} {'seconds':>9s}")
    for label, mat, p in cases():
        _, pivots = rref(mat, p)
        t = _time(lambda: rref(mat, p))
        shape = "x".join(map(str, mat.shape))
        print(f"{label:22s} {shape:>12s} {p:6d} {len(pivots):5d} {t:9.4f}")


def bench_realize() -> None:
    print(f"{'k':>3s} {'target':>10s} {'x':>14s} {'seconds':>9s}")
    for k, a, target in realize_cases():
        x = realize_as_cup(target, a)
        t = _time(lambda: realize_as_cup(target, a))
        places = ",".join(str(v) for v in sorted(target))
        print(f"{k:3d} {places:>10s} {x:14d} {t:9.4f}")


def main(sections: list[str]) -> None:
    for name in sections or ["rref", "realize"]:
        {"rref": bench_rref, "realize": bench_realize}[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
