"""Time the F_p row reduction kernel by matrix shape.

Run as:  python3 bench/benchmark.py

The cases are the degree-2 coboundary matrices of some builtin groups (the
shapes H^2 reduces, here built whole) and random dense matrices, full rank
and rank-deficient.  Each line gives the shape, the modulus, the rank and
the best of three wall times.
"""

from __future__ import annotations

import time

import numpy as np

from masseybrauer._kernels import rref
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import coboundary_matrix


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
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


def main() -> None:
    print(f"{'case':22s} {'shape':>12s} {'p':>6s} {'rank':>5s} {'seconds':>9s}")
    for label, mat, p in cases():
        _, pivots = rref(mat, p)
        t = _time(lambda: rref(mat, p))
        shape = "x".join(map(str, mat.shape))
        print(f"{label:22s} {shape:>12s} {p:6d} {len(pivots):5d} {t:9.4f}")


if __name__ == "__main__":
    main()
