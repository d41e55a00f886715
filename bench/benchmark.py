"""Per-layer timings: the F_p row reduction kernel by matrix shape,
`realize_as_cup` by the number of odd primes of a, `decompose` with its
certificate check by the number of odd primes of a_1, `find_prescribed_hom`
by source group and target, cold H^1 + H^2 bases by group, and warm
vanishing scans by group, and `has_property` on every subspace of H^1 by
group.

Run as:  python3 bench/benchmark.py [rref] [rref-small] [realize] [decompose] [u-hom] [h2] [d1] [scan] [cup-res]
(default: all)

The rref cases are the degree-2 coboundary matrices of some builtin groups
(the shapes H^2 reduces, here built whole) and random dense matrices, full
rank and rank-deficient.  Each line gives the shape, the modulus, the rank
and the time.

The rref-small cases are seeded random matrices of the shapes the
`massey-scan` benchmark reduces most often (8x10, 3x10 and 12x10 at p = 2,
10x7 and 10x15 at p = 3), each reduced by `rref`, and one [panel | E]
block of a wide elimination: a 128 x 64 panel beside the 128 x 128
identity, reduced by the per-pivot loop on its first 64 columns.  Each
line gives the case, the shape, the modulus, the rank and the time per
call in microseconds, the best of five rounds of many calls.

The realize cases take a = +-(a product of k consecutive odd primes) for
k = 6, 9, 12, 14 and two targets each: the first two primes of a, which
sign * d realizes for a divisor d of the pool, and a pair of places that
no such sign * d realizes, so x needs an auxiliary prime w.  Each line
gives k, the target, x and the time per call in microseconds.

The decompose cases are classes c = sum_{i<=r} (a_i, x_i), r = 1, 2, 3,
built as the `q-decompose` benchmark builds its catalogue (signed
squarefree entries, even half of the time, the other entries with 1 or 2
odd primes below 100), 30 for each number k = 1..8 of odd primes of a_1
(seed 2014).  Each class is decomposed by `decompose(c, a_list)`, and the
certificate checked by `verify_certificate`; every certificate must verify,
or the section exits with an error.  One untimed pass runs first, and one
more, also untimed, counts the calls of `brauer_q.factorize`,
`brauer_q._ramified` and `brauer_q.is_local_square`.  Then each of the two
calls is timed per class as the best of three, and so is the time spent
inside `realize_as_cup` during one `decompose` (its calls summed).  Each
line gives k, the number of classes, the median `decompose`,
`verify_certificate` and `realize_as_cup` time per class in milliseconds,
and the mean number of `factorize`, `_ramified` and `is_local_square` calls
per class (decompose and verify together).  A last line times `factorize`
on 1000003 * 1000033, which trial-divides to its bound of 10^6 before
raising `FactorBoundExceeded` (best of three).

The u-hom cases call `find_prescribed_hom` on every tuple of nonzero
characters of the `massey-scan` groups (n = 2, 3, full and bar), on a
seeded sample of 200 tuples of two order-27 groups (n = 3), on every tuple
for U_4(F_2) as the source (n = 3), and on every tuple of `dihedral:8` and
`elab:2:3` with the U_5(F_2) targets (n = 4, full and bar).  One untimed call
per case builds the targets and what is memoized on the group; every other
call is timed once.  Each line gives the case, the number of calls and of
homs found, and the median and the largest call time in milliseconds.

The h2 cases build a fresh `CohomologyRing` and its H^1 and H^2 bases in a
new interpreter for each group: the `h2-cold` benchmark set, groups of order
27 and 32, `elab:2:6`, `unipotent:3:2` and `dihedral:32` of order 64,
`elab:3:4` of order 81, `dihedral:64`, `cyclic:128` and `elab:2:7` of
order 128, `elab:3:5` (p = 3) of order 243, and `elab:2:8` and `cyclic:256`
of order 256, the largest order whose H^2 `cochain_dga.MAX_CELLS` admits.
Each line gives
the group, p, dim H^1 and dim H^2, the time of the two bases (the group is
built before the clock starts) and the peak RSS of that process in MB.

The d1 cases build a fresh `CohomologyRing`, its H^1 basis and its d^1
solver, and solve d c = phi_a u phi_b for every pair of H^1 basis
characters in one `solve_many`, in a new interpreter for each group of
order 16 to 256 (`cyclic:256`, `dihedral:128` and `elab:2:8` the largest).
Each line gives the group, p, dim H^1, the number of cups and of those
that are coboundaries, the time from the ring to the solutions (the group
is built before the clock starts) and the peak RSS of that process in MB.

The scan cases run `scan_vanishing` on `dihedral:16`@2, `unipotent:3:2`@2,
`elab:3:3`@3, `elab:2:5`@2, `elab:2:6`@2, `unipotent:2:3`@3, `elab:3:4`@3,
`elab:2:7`@2 and `elab:3:5`@3, in a new interpreter for each group.  One
untimed call builds the ring, its cup table and its trilinear form; five
more are timed.  Every call must find the known number of witnesses (0, 0,
104, 0, 0, 512, 320, 0, 968), or the section exits with an error.  Each
line gives the group, p, the number of triples (read off the report's
arrays) and of witnesses, the median and the largest call time in seconds,
the peak RSS of that process in MB after those calls, and the median of
three calls that also read the report's `entries` (not run above 2^20
triples, whose entries take gigabytes).

The cup-res cases call `has_property` once on every subspace of H^1 (one
character list per subspace, its RREF rows; the zero subspace with an
explicit p) for `elab:2:5`, `elab:2:6` and `elab:2:7` at p = 2 and
`elab:3:3` at p = 3, in a new interpreter for each group.  The ring's H^1
and H^2 bases and its cup table are built first, untimed.  Every group must
give its known number of verdicts that hold (all at p = 2; at p = 3 only the
zero subspace, whose K is G), or the section exits with an error.  Each line
gives the group, p, the number of subspaces and of verdicts that hold, the
time of the sweep in seconds (the calls only), the peak RSS in MB once the
ring is built and at the end of the sweep.

Every rref and realize time is the best of three calls, or one call when it
takes over a second.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import subprocess
import sys
import time

import numpy as np

from masseybrauer._kernels import BLOCK_ROWS, PANEL, _pivot_loop, rref
from masseybrauer import brauer_q, lgp_decompose
from masseybrauer.brauer_q import HALF, BrauerClass2, FactorBoundExceeded, Place, factorize
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import coboundary_matrix, get_ring
from masseybrauer.fp_linalg import is_prime
from masseybrauer.lgp_decompose import decompose, realize_as_cup, verify_certificate
from masseybrauer.unipotent import find_prescribed_hom


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


def bench_rref_small() -> None:
    rng = np.random.default_rng(5)
    print(f"{'case':22s} {'shape':>12s} {'p':>6s} {'rank':>5s} {'us_per_call':>12s}")
    for rows, cols, p in [(8, 10, 2), (3, 10, 2), (12, 10, 2), (10, 7, 3), (10, 15, 3)]:
        mats = [rng.integers(0, p, size=(rows, cols)) for _ in range(200)]
        rank = np.mean([len(rref(m, p)[1]) for m in mats])
        t = _time(lambda: [rref(m, p) for m in mats], repeats=5) / len(mats)
        print(f"{'massey-scan shape':22s} {f'{rows}x{cols}':>12s} {p:6d} {rank:5.1f} {1e6 * t:12.1f}")
    rows, width, p = BLOCK_ROWS, PANEL, 2
    eye = np.eye(rows, dtype=np.int64)
    blocks = [np.concatenate([rng.integers(0, p, size=(rows, width)), eye], axis=1) for _ in range(5)]
    rank = np.mean([_pivot_loop(b.copy(), p, width)[1] for b in blocks])
    t = _time(lambda: [_pivot_loop(b.copy(), p, width) for b in blocks], repeats=5) / len(blocks)
    shape = f"{rows}x{width + rows}"
    print(f"{'[panel | E] block':22s} {shape:>12s} {p:6d} {rank:5.1f} {1e6 * t:12.1f}")


def bench_realize() -> None:
    print(f"{'k':>3s} {'target':>10s} {'x':>14s} {'us_per_call':>12s}")
    for k, a, target in realize_cases():
        x = realize_as_cup(target, a)
        t = _time(lambda: realize_as_cup(target, a))
        places = ",".join(str(v) for v in sorted(target))
        print(f"{k:3d} {places:>10s} {x:14d} {1e6 * t:12.1f}")


def decompose_cases(per_k: int = 30, seed: int = 2014):
    rng = random.Random(seed)
    odd = [q for q in range(3, 100) if is_prime(q)]

    def entry(k):
        return math.prod(rng.sample(odd, k)) * rng.choice((1, 2)) * rng.choice((1, -1))

    for k in range(1, 9):
        cases = []
        for j in range(per_k):
            r = 1 + j % 3
            a = [entry(k)] + [entry(rng.randint(1, 2)) for _ in range(r - 1)]
            x = [entry(rng.randint(1, 2)) for _ in range(r)]
            cases.append((list(zip(a, x)), a))
        yield k, cases


@contextlib.contextmanager
def _counting(names):
    """Count the calls of brauer_q's functions `names`, through every binding
    of them in brauer_q and lgp_decompose; restored on exit."""
    counts = dict.fromkeys(names, 0)
    saved = []
    for name in names:
        fn = getattr(brauer_q, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        for mod in (brauer_q, lgp_decompose):
            if getattr(mod, name, None) is fn:
                saved.append((mod, name, fn))
                setattr(mod, name, counted)
    try:
        yield counts
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


@contextlib.contextmanager
def _realize_timer():
    """Yields spent(fn): runs fn and returns the seconds spent inside
    `lgp_decompose.realize_as_cup` during it; restored on exit."""
    fn = lgp_decompose.realize_as_cup
    total = [0.0]

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            total[0] += time.perf_counter() - t0

    def spent(run):
        total[0] = 0.0
        run()
        return total[0]

    lgp_decompose.realize_as_cup = timed
    try:
        yield spent
    finally:
        lgp_decompose.realize_as_cup = fn


def bench_decompose() -> None:
    def certify(symbols, a_list):
        cert = decompose(BrauerClass2(symbols), a_list)
        ok, reason = verify_certificate(cert)
        if not ok:
            sys.exit(f"decompose {symbols} over {a_list}: certificate rejected ({reason})")
        return cert

    counted = ["factorize", "_ramified", "is_local_square"]
    print(f"{'k':>3s} {'classes':>8s} {'decompose_ms':>13s} {'verify_ms':>10s} "
          f"{'realize_ms':>11s} " + " ".join(f"{name:>15s}" for name in counted))
    for k, cases in decompose_cases():
        certs = [certify(*case) for case in cases]
        with _counting(counted) as counts:
            for case in cases:
                certify(*case)
        dec = [_time(lambda: decompose(BrauerClass2(symbols), a_list))
               for symbols, a_list in cases]
        ver = [_time(lambda: verify_certificate(cert)) for cert in certs]
        with _realize_timer() as spent:
            real = [min(spent(lambda: decompose(BrauerClass2(symbols), a_list))
                        for _ in range(3)) for symbols, a_list in cases]
        print(f"{k:3d} {len(cases):8d} {1e3 * np.median(dec):13.3f} {1e3 * np.median(ver):10.3f} "
              f"{1e3 * np.median(real):11.3f} "
              + " ".join(f"{counts[name] / len(cases):15.1f}" for name in counted))

    def bound_path():
        try:
            factorize(1000003 * 1000033)
        except FactorBoundExceeded:
            return
        sys.exit("factorize(1000003 * 1000033) did not exceed its bound")

    print(f"factorize bound path (1000003 * 1000033): {_time(bound_path):.4f} s")


# (source group, p, n values, bar values, sample size or None for all)
_U_HOM = [
    *[(name, p, (2, 3), (False, True), None) for name, p in [
        ("elab:3:2", 3), ("cyclic:3", 3), ("elab:2:3", 2), ("dihedral:8", 2),
        ("quaternion8", 2)]],
    ("elab:3:3", 3, (3,), (False,), 200),
    ("unipotent:2:3", 3, (3,), (False,), 200),
    ("unipotent:3:2", 2, (3,), (False, True), None),
    ("dihedral:8", 2, (4,), (False, True), None),
    ("elab:2:3", 2, (4,), (False, True), None),
]


def u_hom_cases():
    rng = np.random.default_rng(11)
    for name, p, ns, bars, sample in _U_HOM:
        g = builtin_group(name)
        ring = get_ring(g, p)
        coords = itertools.product(range(p), repeat=ring.basis(1).dim)
        chars = [ring.character_from_coords(np.asarray(c)) for c in coords if any(c)]
        for n in ns:
            tuples = list(itertools.product(range(len(chars)), repeat=n))
            if sample is not None:
                tuples = [tuples[i] for i in rng.choice(len(tuples), sample, replace=False)]
            for bar in bars:
                label = f"{name}@{p} n={n}{' bar' if bar else ''}"
                yield label, g, [[chars[i] for i in t] for t in tuples], n, bar


def bench_u_hom() -> None:
    print(f"{'case':28s} {'calls':>6s} {'found':>6s} {'median_ms':>10s} {'max_ms':>9s}")
    for label, g, tuples, n, bar in u_hom_cases():
        find_prescribed_hom(g, tuples[0], n, bar=bar)
        times, found = [], 0
        for chars in tuples:
            t0 = time.perf_counter()
            found += find_prescribed_hom(g, chars, n, bar=bar) is not None
            times.append(time.perf_counter() - t0)
        ms = 1e3 * np.asarray(times)
        print(f"{label:28s} {len(ms):6d} {found:6d} {np.median(ms):10.3f} {ms.max():9.3f}")


_H2 = [
    ("cyclic:2", 2), ("cyclic:4", 2), ("cyclic:8", 2), ("cyclic:16", 2),
    ("elab:2:2", 2), ("elab:2:3", 2), ("elab:2:4", 2), ("dihedral:4", 2),
    ("dihedral:8", 2), ("quaternion8", 2), ("unipotent:2:2", 2),
    ("dihedral:12", 2), ("cyclic:9", 3), ("elab:3:2", 3), ("cyclic:18", 3),
    ("cyclic:20", 5), ("elab:3:3", 3), ("unipotent:2:3", 3), ("cyclic:32", 2),
    ("elab:2:5", 2), ("dihedral:16", 2), ("elab:2:6", 2), ("unipotent:3:2", 2),
    ("dihedral:32", 2), ("elab:3:4", 3), ("dihedral:64", 2), ("cyclic:128", 2),
    ("elab:2:7", 2), ("elab:3:5", 3), ("elab:2:8", 2), ("cyclic:256", 2),
]

# one cold ring in the child: prints dim H^1, dim H^2, seconds, peak RSS in MB
_H2_CHILD = """
import resource, sys, time
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import CohomologyRing
g, p = builtin_group(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
ring = CohomologyRing(g, p)
dims = ring.basis(1).dim, ring.basis(2).dim
t = time.perf_counter() - t0
print(*dims, t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def bench_h2() -> None:
    print(f"{'group':16s} {'p':>2s} {'h1':>3s} {'h2':>3s} {'seconds':>9s} {'peak_mb':>8s}")
    for name, p in _H2:
        argv = [sys.executable, "-c", _H2_CHILD, name, str(p)]
        h1, h2, t, rss = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split()
        print(f"{name:16s} {p:2d} {h1:>3s} {h2:>3s} {float(t):9.3f} {float(rss):8.1f}")


_D1 = [
    ("elab:2:4", 2), ("dihedral:16", 2), ("elab:3:3", 3), ("elab:2:6", 2), ("dihedral:64", 2),
    ("cyclic:128", 2), ("elab:2:8", 2), ("dihedral:128", 2), ("cyclic:256", 2),
]

# one cold d^1 solver in the child: prints dim H^1, cups, coboundaries,
# seconds, peak RSS in MB
_D1_CHILD = """
import resource, sys, time
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import CohomologyRing
g, p = builtin_group(sys.argv[1]), int(sys.argv[2])
n = g.order
t0 = time.perf_counter()
ring = CohomologyRing(g, p)
phis = ring.basis(1).rep_values
d = len(phis)
cups = (phis[:, None, :, None] * phis[None, :, None, :]).reshape(d * d, n * n) % p
_, ok = ring.d1_solver().solve_many(-cups.T)
t = time.perf_counter() - t0
print(d, d * d, int(ok.sum()), t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def bench_d1() -> None:
    print(f"{'group':16s} {'p':>2s} {'h1':>3s} {'cups':>5s} {'cob':>4s} {'seconds':>9s} {'peak_mb':>8s}")
    for name, p in _D1:
        argv = [sys.executable, "-c", _D1_CHILD, name, str(p)]
        h1, cups, cob, t, rss = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split()
        print(f"{name:16s} {p:2d} {h1:>3s} {cups:>5s} {cob:>4s} {float(t):9.4f} {float(rss):8.1f}")


# (group, p, witnesses of the vanishing scan)
_SCAN = [
    ("dihedral:16", 2, 0), ("unipotent:3:2", 2, 0), ("elab:3:3", 3, 104), ("elab:2:5", 2, 0),
    ("elab:2:6", 2, 0), ("unipotent:2:3", 3, 512), ("elab:3:4", 3, 320), ("elab:2:7", 2, 0),
    ("elab:3:5", 3, 968),
]

# warm scans in the child: prints triples, witnesses, the median and the
# largest time of five, peak RSS in MB, then the median of three calls that
# also read `entries` (- above 2^20 triples); exits 1 on a wrong witness count
_SCAN_CHILD = """
import resource, statistics, sys, time
from masseybrauer.catalog import builtin_group
from masseybrauer.massey import scan_vanishing
g, p, want = builtin_group(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
times = []
for call in range(6):
    report = None  # one report alive at a time
    t0 = time.perf_counter()
    report = scan_vanishing(g, p)
    if call:  # the first call builds the ring, its cup table and its trilinear form
        times.append(time.perf_counter() - t0)
    if len(report.witnesses) != want:
        sys.exit(f"scan {sys.argv[1]}@{p}: {len(report.witnesses)} witnesses, expected {want}")
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
triples, with_entries = report.defined.size, []
for call in range(3 if triples <= 1 << 20 else 0):
    report = None
    t0 = time.perf_counter()
    report = scan_vanishing(g, p)
    len(report.entries)
    with_entries.append(time.perf_counter() - t0)
print(triples, want, statistics.median(times), max(times), rss,
      statistics.median(with_entries) if with_entries else "-")
"""


def bench_scan() -> None:
    print(
        f"{'group':16s} {'p':>2s} {'triples':>8s} {'witnesses':>9s} {'median_s':>9s} {'max_s':>9s}"
        f" {'peak_mb':>8s} {'entries_s':>9s}"
    )
    for name, p, want in _SCAN:
        argv = [sys.executable, "-c", _SCAN_CHILD, name, str(p), str(want)]
        run = subprocess.run(argv, capture_output=True, text=True)
        if run.returncode:
            sys.exit(run.stderr.strip() or f"scan {name}@{p} failed")
        triples, witnesses, median, most, rss, entries = run.stdout.split()
        entries = entries if entries == "-" else f"{float(entries):.4f}"
        print(
            f"{name:16s} {p:2d} {triples:>8s} {witnesses:>9s} {float(median):9.4f} {float(most):9.4f}"
            f" {float(rss):8.1f} {entries:>9s}"
        )


# (group, p, subspaces of H^1, verdicts that hold)
_CUP_RES = [
    ("elab:2:5", 2, 374, 374), ("elab:2:6", 2, 2825, 2825), ("elab:2:7", 2, 29212, 29212),
    ("elab:3:3", 3, 28, 1),
]

# a sweep in the child: prints subspaces, verdicts that hold, seconds, the
# peak RSS in MB after the ring and after the sweep; exits 1 on a wrong count
_CUP_RES_CHILD = """
import itertools, resource, sys, time
import numpy as np
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import get_ring
from masseybrauer.cup_restriction import has_property
g, p, want = builtin_group(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
ring = get_ring(g, p)
ring.cup_table()
d = ring.basis(1).dim
ring_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
chars = {v: ring.character_from_coords(np.asarray(v)) for v in itertools.product(range(p), repeat=d)}
count = holds = 0
spent = 0.0
for k in range(d + 1):
    for piv in itertools.combinations(range(d), k):
        free = [(i, j) for i in range(k) for j in range(piv[i] + 1, d) if j not in piv]
        for vals in itertools.product(range(p), repeat=len(free)):
            rows = np.zeros((k, d), dtype=np.int64)
            rows[np.arange(k), list(piv)] = 1
            for (i, j), v in zip(free, vals):
                rows[i, j] = v
            picked = [chars[tuple(r.tolist())] for r in rows]
            t0 = time.perf_counter()
            verdict = has_property(g, picked, p)
            spent += time.perf_counter() - t0
            count += 1
            holds += verdict.holds
if holds != want:
    sys.exit(f"cup-res {sys.argv[1]}@{p}: {holds} of {count} hold, expected {want}")
print(count, holds, spent, ring_mb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def bench_cup_res() -> None:
    print(f"{'group':16s} {'p':>2s} {'subspaces':>9s} {'holds':>6s} {'seconds':>9s} {'ring_mb':>8s} {'peak_mb':>8s}")
    for name, p, count, want in _CUP_RES:
        argv = [sys.executable, "-c", _CUP_RES_CHILD, name, str(p), str(want)]
        run = subprocess.run(argv, capture_output=True, text=True)
        if run.returncode:
            sys.exit(run.stderr.strip() or f"cup-res {name}@{p} failed")
        got, holds, t, ring_mb, rss = run.stdout.split()
        if int(got) != count:
            sys.exit(f"cup-res {name}@{p}: {got} subspaces, expected {count}")
        print(f"{name:16s} {p:2d} {got:>9s} {holds:>6s} {float(t):9.3f} {float(ring_mb):8.1f} {float(rss):8.1f}")


def main(sections: list[str]) -> None:
    benches = {
        "rref": bench_rref, "rref-small": bench_rref_small, "realize": bench_realize,
        "decompose": bench_decompose, "u-hom": bench_u_hom, "h2": bench_h2, "d1": bench_d1,
        "scan": bench_scan, "cup-res": bench_cup_res,
    }
    for name in sections or list(benches):
        benches[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
