"""The four benchmark workloads: set-up, operation list and output checks.

Every operation is a call into a public masseybrauer function.  Its result is
checked after it is timed: its summary must equal the one recorded in
perfbench/golden.json, and checks that do not trust the library's own
bookkeeping must pass.  A failed check raises CheckFailed and counts as a
failed operation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

# Library functions are looked up on the package when an operation is built,
# not bound at import, so that wrappers installed by the tracer are the ones
# called.
import masseybrauer as mb
from masseybrauer.brauer_q import factorize

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
sys.path.insert(0, str(REPO / "tests"))
from oracles import hilbert_oracle  # noqa: E402  (independent Hilbert symbol)

ORACLE_MAX_PRIME = 13  # the oracle enumerates Z/q^4; keep q small


class CheckFailed(Exception):
    """An operation's output disagrees with the golden data or a check."""


class Op(NamedTuple):
    key: str
    run: Callable[[], Any]
    summary: Callable[[Any], Any]  # the value golden.json records for a result
    verify: Callable[[Any], None] | None = None  # checks needing no golden data


def digest(obj) -> str:
    """Short hash of the canonical JSON (the CLI's separators) of obj."""
    text = json.dumps(obj, separators=(", ", ": "))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _expect(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, golden {want!r}")


def _rank_mod_p(rows: np.ndarray, p: int) -> int:
    """Rank over F_p by plain elimination (small matrices only)."""
    m = np.array(rows, dtype=np.int64) % p
    rank = 0
    for c in range(m.shape[1]):
        nz = np.nonzero(m[rank:, c])[0]
        if nz.size == 0:
            continue
        k = rank + int(nz[0])
        m[[rank, k]] = m[[k, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), p - 2, p) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != rank]
        m[others] = (m[others] - np.outer(m[others, c], m[rank])) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


class Workload:
    """One workload: its set-up, its operation list, and the checks of each
    operation's result against the workload's section of golden.json."""

    name = ""
    LEADING = None  # key of an operation that runs first in every pass
    # norm_wall_s scales the list time by the speed of a pure-Python loop
    # measured in the same run (see run.py)
    SCALED = True

    def __init__(self, golden: dict, trace_dir: Path | None = None):
        self.golden = golden

    def setup(self) -> None:
        """Build the session's state once, before the timed phase."""

    def setup_summary(self) -> dict:
        """Golden values that describe the state `setup` built."""
        return {}

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def check_setup(self) -> None:
        for key, value in self.setup_summary().items():
            _expect(value, self.golden.get(key), key)

    def check(self, op: Op, result) -> None:
        _expect(op.summary(result), self.golden.get(op.key), op.key)
        if op.verify:
            op.verify(result)


def _coboundary_rows_deg2(mul: np.ndarray) -> np.ndarray:
    """Rows d(e_x), x in G, spanning B^2: (d e_x)(g,h) = [g=x]+[h=x]-[gh=x]."""
    n = mul.shape[0]
    e = np.eye(n, dtype=np.int64)
    return (e[:, :, None] + e[:, None, :] - e[:, mul]).reshape(n, n * n)


# ---------------------------------------------------------------------------
# h2-cold


class H2Cold(Workload):
    """Cold H^1 and H^2 bases: a fresh CohomologyRing per group and pass, so
    every pass pays coboundary construction and dense elimination."""

    name = "h2-cold"
    # Almost all the time is in numpy elimination, which the machine's slow
    # spells change far less than Python code: scaling by the Python loop
    # made the spread worse, so norm_wall_s is the unscaled list time.
    SCALED = False
    # Runs first in every pass: freed arrays that the allocator keeps after
    # smaller groups would otherwise raise the memory high-water mark by an
    # amount that depends on the order of the operations.
    LEADING = "dihedral:12@2"
    GROUPS = [
        ("cyclic:2", 2), ("cyclic:4", 2), ("cyclic:8", 2), ("cyclic:16", 2),
        ("elab:2:2", 2), ("elab:2:3", 2), ("elab:2:4", 2), ("dihedral:4", 2),
        ("dihedral:8", 2), ("quaternion8", 2), ("unipotent:2:2", 2),
        ("dihedral:12", 2), ("cyclic:9", 3), ("elab:3:2", 3),
        ("cyclic:18", 3), ("cyclic:20", 5),
    ]

    def setup(self) -> None:
        self.groups = {(n, p): mb.builtin_group(n) for n, p in self.GROUPS}

    def operations(self) -> list[Op]:
        return [Op(f"{name}@{p}", partial(self.cold_bases, g, p), self.summary,
                   partial(self.verify, f"{name}@{p}", g, p))
                for (name, p), g in self.groups.items()]

    @staticmethod
    def cold_bases(g, p):
        ring = mb.CohomologyRing(g, p)
        return ring.basis(1), ring.basis(2)

    @staticmethod
    def summary(result) -> dict:
        b1, b2 = result
        return {
            "dims": [b1.dim, b2.dim],
            "h1": digest([[int(x) for x in r.flat()] for r in b1.representatives]),
            "h2": digest([[int(x) for x in r.flat()] for r in b2.representatives]),
        }

    @staticmethod
    def verify(key, g, p, result) -> None:
        b1, b2 = result
        for basis in (b1, b2):
            for z in basis.representatives:
                if not mb.differential(z).is_zero():
                    raise CheckFailed(f"{key}: H^{basis.degree} representative is not a cocycle")
        n = g.order
        reps1 = [z.flat() for z in b1.representatives]
        if reps1 and _rank_mod_p(np.stack(reps1), p) != len(reps1):
            raise CheckFailed(f"{key}: H^1 representatives are dependent")
        b_rows = _coboundary_rows_deg2(np.asarray(g.mul))
        reps2 = np.stack([z.flat() for z in b2.representatives]) if b2.dim else np.zeros((0, n * n))
        base = _rank_mod_p(b_rows, p)
        if _rank_mod_p(np.concatenate([b_rows, reps2]), p) != base + b2.dim:
            raise CheckFailed(f"{key}: H^2 representatives are dependent modulo B^2")


# ---------------------------------------------------------------------------
# massey-scan


def _subspaces(d: int, p: int):
    """Every subspace of F_p^d, as its reduced echelon basis (list of rows)."""
    for k in range(d + 1):
        for piv in itertools.combinations(range(d), k):
            free = [(i, j) for i in range(k) for j in range(piv[i] + 1, d) if j not in piv]
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = [[int(j == piv[i]) for j in range(d)] for i in range(k)]
                for (i, j), v in zip(free, vals):
                    rows[i][j] = v
                yield rows


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class MasseyScan(Workload):
    """Warm rings and unipotent targets built once; then every vanishing
    scan, every cup-restriction subspace and every prescribed-hom tuple.

    No group of order 27 is included: its H^2 alone takes 34-50 s to build
    on a 2-core machine, which a run of this workload cannot afford."""

    name = "massey-scan"
    GROUPS = [
        ("elab:3:2", 3), ("cyclic:3", 3), ("elab:2:3", 2), ("elab:2:4", 2),
        ("dihedral:8", 2), ("quaternion8", 2),
    ]
    U_HOM = [gp for gp in GROUPS if gp[0] != "elab:2:4"]  # order <= 9, D8, Q8
    TARGETS = [(n, p, bar) for p in (2, 3) for n in (2, 3) for bar in (False, True)]

    def setup(self) -> None:
        self.rings = {}
        for name, p in self.GROUPS:
            ring = mb.get_ring(mb.builtin_group(name), p)
            ring.basis(1)
            ring.basis(2)
            ring.d1_solver()
            self.rings[name, p] = ring
        for n, p, bar in self.TARGETS:
            mb.build_unipotent(n, p, bar)

    def setup_summary(self) -> dict:
        return {f"dims {name}@{p}": [ring.basis(1).dim, ring.basis(2).dim]
                for (name, p), ring in self.rings.items()}

    def _chars(self, name, p, coords):
        ring = self.rings[name, p]
        return [ring.character_from_coords(np.asarray(c, dtype=np.int64)) for c in coords]

    def operations(self) -> list[Op]:
        ops = []
        for name, p in self.GROUPS:
            g = self.rings[name, p].group
            ops.append(Op(f"scan {name}@{p}", partial(mb.scan_vanishing, g, p),
                          self.scan_summary))
        for name, p in self.GROUPS:
            g = self.rings[name, p].group
            d = self.rings[name, p].basis(1).dim
            for rows in _subspaces(d, p):
                key = f"cup-res {name}@{p} {_compact(rows)}"
                chars = self._chars(name, p, rows)
                ops.append(Op(key, partial(mb.has_property, g, chars, p),
                              self.cupres_summary))
        for name, p in self.U_HOM:
            g = self.rings[name, p].group
            d = self.rings[name, p].basis(1).dim
            nonzero = [c for c in itertools.product(range(p), repeat=d) if any(c)]
            for n in (2, 3):
                for tup in itertools.product(nonzero, repeat=n):
                    chars = self._chars(name, p, tup)
                    for bar in (False, True):
                        key = f"u-hom n={n}{' bar' if bar else ''} {name}@{p} {_compact(tup)}"
                        ops.append(Op(
                            key, partial(mb.find_prescribed_hom, g, chars, n, bar=bar),
                            partial(self.hom_summary, group=g),
                            partial(self.verify_hom, key, g, chars)))
        return ops

    @staticmethod
    def scan_summary(report) -> dict:
        body = {
            "holds": report.holds,
            "witnesses": [{"triple": [list(c) for c in e.triple]} for e in report.witnesses],
            "triples": [
                {"triple": [list(c) for c in e.triple], "defined": e.defined,
                 "contains_zero": e.contains_zero}
                for e in report.entries
            ],
        }
        return {"triples": len(report.entries), "witnesses": len(report.witnesses),
                "digest": digest(body)}

    @staticmethod
    def cupres_summary(verdict) -> str:
        body = {"holds": verdict.holds, "dim_image": verdict.dim_image,
                "dim_kernel": verdict.dim_kernel}
        if verdict.witness is not None:
            body["witness"] = [int(x) for x in verdict.witness]
        return digest(body)

    @staticmethod
    def hom_summary(hom, group) -> str:
        if hom is None:
            return digest({"found": False})
        return digest({
            "found": True,
            "surjective": mb.check_surjective(hom),
            "generator_images": [
                [[int(x) for x in row] for row in hom.target.matrices[hom.images[h]]]
                for h in group.generating_set()
            ],
        })

    @staticmethod
    def verify_hom(key, group, chars, hom) -> None:
        if hom is None:
            return
        img, target = np.asarray(hom.images), hom.target
        if not np.array_equal(img[group.mul], target.mul[img[:, None], img[None, :]]):
            raise CheckFailed(f"{key}: map is not multiplicative")
        mats = target.matrices[img]
        for i, chi in enumerate(chars):
            if not np.array_equal(mats[:, i, i + 1] % chi.p, chi.values):
                raise CheckFailed(f"{key}: superdiagonal {i} is not the prescribed character")


# ---------------------------------------------------------------------------
# q-decompose


ODD_PRIMES = [q for q in range(3, 100) if all(q % d for d in range(2, q))]
# share of operations whose leading entry a_1 has K odd primes, K = 1..8
PRIME_COUNT_MIX = [36, 34, 30, 26, 22, 20, 16, 16]


def make_q_catalogue(seed: int) -> list[dict]:
    """Classes c = sum_{i<=r} (a_i, x_i), r = 1, 2, 3, with signed squarefree
    entries that are even half of the time.  a_1 has K odd primes below 100
    (K drawn in the fixed PRIME_COUNT_MIX proportions); the other a_i and
    every x_i have 1 or 2."""
    import random

    rng = random.Random(seed)

    def entry(k):
        n = 1
        for q in rng.sample(ODD_PRIMES, k):
            n *= q
        return n * rng.choice((1, 2)) * rng.choice((1, -1))

    out = []
    for k, count in enumerate(PRIME_COUNT_MIX, start=1):
        for j in range(count):
            r = 1 + j % 3
            a = [entry(k)] + [entry(rng.randint(1, 2)) for _ in range(r - 1)]
            x = [entry(rng.randint(1, 2)) for _ in range(r)]
            out.append({"a": a, "x": x})
    return out


class QDecompose(Workload):
    """Certified decompositions over Q: decompose, then verify_certificate.
    The inputs are the committed catalogue in golden.json."""

    name = "q-decompose"

    def operations(self) -> list[Op]:
        return [self.op(f"decompose #{i}", list(zip(case["a"], case["x"])), case["a"])
                for i, case in enumerate(self.golden["catalogue"])]

    def op(self, key, symbols, a_list) -> Op:
        return Op(key, partial(self.decompose, symbols, a_list), self.summary,
                  partial(self.verify, key, symbols, a_list))

    @staticmethod
    def decompose(symbols, a_list):
        cert = mb.decompose(mb.BrauerClass2(symbols), a_list)
        return cert, mb.verify_certificate(cert)

    @staticmethod
    def summary(result) -> str:
        """Everything but x_list, which a new realize_as_cup may choose
        differently."""
        cert, (ok, _) = result
        return digest({
            "valid": ok,
            "v0": str(cert.v0),
            "adjusted_a_list": cert.adjusted_a_list,
            "partition": [[str(v) for v in part] for part in cert.partition],
            "t_parities": cert.t_parities,
        })

    @staticmethod
    def verify(key, symbols, a_list, result) -> None:
        cert, (ok, reason) = result
        if not ok:
            raise CheckFailed(f"{key}: certificate rejected ({reason})")
        if list(cert.a_list) != list(a_list) or len(cert.x_list) != len(a_list):
            raise CheckFailed(f"{key}: certificate is for another a_list")
        out_symbols = list(zip(cert.a_list, cert.x_list))
        primes = {2}
        for a, b in symbols + out_symbols:
            primes.update(factorize(a))
            primes.update(factorize(b))
        places = [mb.Place.real()] + [mb.Place.prime(q) for q in sorted(primes)
                                   if q <= ORACLE_MAX_PRIME]
        for v in places:
            lhs = np.prod([hilbert_oracle(a, b, v) for a, b in symbols])
            rhs = np.prod([hilbert_oracle(a, b, v) for a, b in out_symbols])
            if lhs != rhs:
                raise CheckFailed(f"{key}: oracle invariants differ at {v}")


# ---------------------------------------------------------------------------
# cli-cold


CERT = ('{"class": [[6, 5]], "a_list": [2, 3], "x_list": [3, 1], "v0": "5", '
        '"adjusted_a_list": [2, 3], "partition": [["2", "3"], []], '
        '"t_parities": [0, 0], "verified": true}')

CLI_CALLS = [
    ["group", "cohomology", "--group", "elab:2:2", "--p", "2", "--degree", "2"],
    ["group", "massey", "--group", "cyclic:3", "--p", "3", "--chars", "[[1],[1],[1]]"],
    ["group", "scan-vanishing", "--group", "elab:2:3", "--p", "2", "--jobs", "1"],
    ["group", "cup-res", "--group", "elab:2:2", "--p", "2", "--chars", "[[1,0],[0,1]]"],
    ["group", "u-hom", "--group", "cyclic:4", "--p", "2", "--chars", "[[1],[1]]", "--n", "2"],
    ["group", "u-hom", "--group", "cyclic:3", "--p", "3", "--chars", "[[1],[1],[1]]",
     "--n", "3"],
    ["q", "hilbert", "--a", "2", "--b", "3", "--place", "2"],
    ["q", "invariants", "--class", "[[2,3]]"],
    ["q", "split", "--class", "[[2,3]]", "--a", "[2]"],
    ["q", "decompose", "--class", "[[6,5]]", "--a", "[2,3]"],
    ["q", "verify", "--cert", CERT],
]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class CliCold(Workload):
    """Every CLI subcommand as a fresh process, stdout compared byte for
    byte.  With a trace directory the children trace themselves and leave
    their aggregates there for the parent to merge."""

    name = "cli-cold"

    def __init__(self, golden: dict, trace_dir: Path | None = None):
        super().__init__(golden)
        self.trace_dir = trace_dir
        self.children = 0

    def operations(self) -> list[Op]:
        return [Op(" ".join(argv), partial(self.call, argv), self.stdout,
                   partial(self.verify, " ".join(argv))) for argv in CLI_CALLS]

    def call(self, argv):
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py")]
        if self.trace_dir is not None:
            self.children += 1
            cmd += ["--trace-out", str(self.trace_dir / f"child-{self.children}.json")]
        proc = subprocess.run(cmd + argv, capture_output=True, env=child_env(), timeout=120)
        return proc.returncode, proc.stdout.decode()

    @staticmethod
    def stdout(result) -> str:
        return result[1]

    @staticmethod
    def verify(key, result) -> None:
        _expect(result[0], 0, f"{key}: exit code")


WORKLOADS = {w.name: w for w in (H2Cold, MasseyScan, QDecompose, CliCold)}


def import_seconds(reps: int) -> list[float]:
    """Wall time of fresh interpreters that only import masseybrauer.cli."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import masseybrauer.cli"],
                       env=child_env(), check=True, timeout=120)
        out.append(time.perf_counter() - t0)
    return out
