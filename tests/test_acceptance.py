"""Acceptance gate: twelve exact end-to-end criteria.

Each test prints exactly one line
    ACCEPTANCE nn <short description>: PASS|FAIL
directly to the terminal (bypassing capture) and then asserts.
"""

import itertools
import random
from functools import lru_cache

import numpy as np

from masseybrauer.brauer_q import (
    BrauerClass2,
    Place,
    classes_equal,
    factorize,
    hilbert_symbol,
    is_local_square,
    reciprocity_holds,
    splits_in_multiquadratic,
)
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import Cochain, cup, differential, get_ring
from masseybrauer.cup_restriction import has_property
from masseybrauer.fp_linalg import row_space_basis
from masseybrauer.group_core import Character
from masseybrauer.lgp_decompose import (
    decompose,
    decompose_biquadratic,
    realize_as_cup,
    verify_certificate,
)
from masseybrauer.massey import (
    contains_zero,
    scan_vanishing,
    triple_massey_set,
)
from masseybrauer.unipotent import check_surjective, find_prescribed_hom

from oracles import enumerate_triple_classes, hilbert_oracle

SWEEP = [
    ("cyclic:2", 2),
    ("cyclic:4", 2),
    ("cyclic:8", 2),
    ("cyclic:16", 2),
    ("elab:2:2", 2),
    ("elab:2:3", 2),
    ("elab:2:4", 2),
    ("dihedral:4", 2),
    ("dihedral:8", 2),
    ("quaternion8", 2),
    ("unipotent:2:2", 2),
    ("cyclic:3", 3),
    ("cyclic:9", 3),
    ("cyclic:27", 3),
    ("elab:3:2", 3),
    ("elab:3:3", 3),
    ("unipotent:2:3", 3),
]


def _report(capsys, num, desc, problems):
    ok = not problems
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {problems[:5]}"


@lru_cache(maxsize=None)
def _group(name):
    return builtin_group(name)


@lru_cache(maxsize=None)
def _scan(name, p):
    return scan_vanishing(_group(name), p)


def _char(name, p, coords):
    ring = get_ring(_group(name), p)
    return ring.character_from_coords(np.asarray(coords, dtype=np.int64))


@lru_cache(maxsize=None)
def _cup_vanishes(name, p, c1, c2):
    ring = get_ring(_group(name), p)
    z = cup(
        Cochain.from_character(_char(name, p, c1)),
        Cochain.from_character(_char(name, p, c2)),
    )
    return not ring.basis(2).coordinates(z).any()


def _span_key(coords_list, p):
    mat = np.asarray(coords_list, dtype=np.int64)
    return tuple(map(tuple, row_space_basis(mat, p).tolist()))


@lru_cache(maxsize=None)
def _property_holds(name, p, basis_key):
    chars = [_char(name, p, row) for row in basis_key]
    return has_property(_group(name), chars, p).holds


@lru_cache(maxsize=None)
def _independent_triples(name, p):
    dim = get_ring(_group(name), p).basis(1).dim
    vecs = [v for v in itertools.product(range(p), repeat=dim) if any(v)]
    out = []
    for a, b, c in itertools.product(vecs, repeat=3):
        if len(_span_key((a, b, c), p)) == 3:
            out.append((a, b, c))
    return out


def _squarefree(n):
    return all(e == 1 for e in factorize(n).values()) if abs(n) != 1 else True


def _sample(rng, items, k):
    return items if len(items) <= k else rng.sample(items, k)


# ---------------------------------------------------------------------------


def test_criterion_01_reciprocity(capsys):
    problems = []
    vals = [n for n in range(-50, 51) if n]
    for a in vals:
        for b in vals:
            if not reciprocity_holds(a, b):
                problems.append((a, b))
    _report(capsys, 1, "Hilbert reciprocity for 1 <= |a|, |b| <= 50", problems)


def test_criterion_02_symbol_vs_oracle(capsys):
    problems = []
    vals = [n for n in range(-30, 31) if n]
    for a in vals:
        for b in vals:
            for v in BrauerClass2([(a, b)]).candidate_support():
                if hilbert_symbol(a, b, v) != hilbert_oracle(a, b, v):
                    problems.append((a, b, str(v)))
    _report(
        capsys, 2, "Hilbert symbol agrees with conic-solvability oracle", problems
    )


def test_criterion_03_randomized_decompositions(capsys):
    problems = []
    rng = random.Random(101)
    sf = [n for n in range(-50, 51) if n and _squarefree(n)]
    nz = [n for n in range(-50, 51) if n]
    accepted = attempts = 0
    while accepted < 200 and attempts < 40000:
        attempts += 1
        a_list = rng.sample(sf, rng.randint(1, 3))
        c = BrauerClass2(
            [(rng.choice(nz), rng.choice(nz)) for _ in range(rng.randint(0, 3))]
        )
        if not splits_in_multiquadratic(c, a_list):
            continue
        accepted += 1
        try:
            cert = decompose(c, a_list)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            problems.append((a_list, c.symbols, repr(exc)))
            continue
        ok, reason = verify_certificate(cert)
        if not ok:
            problems.append((a_list, c.symbols, reason))
        elif not classes_equal(
            BrauerClass2(list(zip(cert.a_list, cert.x_list))), c
        ):
            problems.append((a_list, c.symbols, "class mismatch"))
        elif cert.a_list != a_list:
            problems.append((a_list, c.symbols, "a_list altered"))
    if accepted < 200:
        problems.append(f"only {accepted} splitting instances found")
    _report(
        capsys, 3, "200 randomized decompositions verified exactly", problems
    )


def test_criterion_04_biquadratic(capsys):
    problems = []
    rng = random.Random(202)
    sf = [n for n in range(-50, 51) if n and _squarefree(n) and abs(n) != 1]
    nz = [n for n in range(-50, 51) if n]
    accepted = attempts = 0
    while accepted < 100 and attempts < 40000:
        attempts += 1
        a1, a2 = rng.sample(sf, 2)
        c = BrauerClass2(
            [(rng.choice(nz), rng.choice(nz)) for _ in range(rng.randint(0, 2))]
        )
        if not splits_in_multiquadratic(c, [a1, a2]):
            continue
        accepted += 1
        try:
            cert = decompose_biquadratic(c, a1, a2)
        except Exception as exc:  # noqa: BLE001
            problems.append((a1, a2, c.symbols, repr(exc)))
            continue
        ok, reason = verify_certificate(cert)
        if not ok:
            problems.append((a1, a2, c.symbols, reason))
        elif not classes_equal(
            BrauerClass2(list(zip(cert.a_list, cert.x_list))), c
        ):
            problems.append((a1, a2, c.symbols, "class mismatch"))
    if accepted < 100:
        problems.append(f"only {accepted} splitting instances found")
    _report(capsys, 4, "100 biquadratic decompositions verified", problems)


def test_criterion_05_realize_as_cup(capsys):
    problems = []
    rng = random.Random(303)
    sf = [n for n in range(-50, 51) if n and _squarefree(n) and abs(n) != 1]
    nz = [n for n in range(-30, 31) if n]
    accepted = attempts = 0
    while accepted < 100 and attempts < 40000:
        attempts += 1
        a1 = rng.choice(sf)
        c = BrauerClass2([(rng.choice(nz), rng.choice(nz))])
        if c.is_trivial() or not splits_in_multiquadratic(c, [a1]):
            continue
        accepted += 1
        try:
            x = realize_as_cup(c.local_invariants(), a1)
        except Exception as exc:  # noqa: BLE001
            problems.append((a1, c.symbols, repr(exc)))
            continue
        if not classes_equal(BrauerClass2([(a1, x)]), c):
            problems.append((a1, c.symbols, x))
    if accepted < 100:
        problems.append(f"only {accepted} instances found")
    _report(
        capsys, 5, "100 nontrivial classes realized as a single cup symbol", problems
    )


def test_criterion_06_coset_formula_vs_enumeration(capsys):
    problems = []
    rng = random.Random(404)
    caps = {"elab:2:4": 75, "elab:3:3": 400}
    for name, p in SWEEP:
        report = _scan(name, p)
        defined = [e for e in report.entries if e.defined]
        undefined = [e for e in report.entries if not e.defined]
        for entry in _sample(rng, defined, caps.get(name, 10**9)):
            chars = [_char(name, p, c) for c in entry.triple]
            enum = enumerate_triple_classes(*chars)
            coset = triple_massey_set(*chars)
            if enum is None or coset is None or enum != set(coset.elements()):
                problems.append((name, entry.triple))
        for entry in _sample(rng, undefined, 150):
            chars = [_char(name, p, c) for c in entry.triple]
            if enumerate_triple_classes(*chars) is not None:
                problems.append((name, entry.triple, "enumeration defined"))
            if triple_massey_set(*chars) is not None:
                problems.append((name, entry.triple, "formula defined"))
    _report(
        capsys,
        6,
        "coset formula equals brute-force enumeration across the sweep",
        problems,
    )


def test_criterion_07_defined_iff_cups_vanish(capsys):
    problems = []
    for name, p in SWEEP:
        for entry in _scan(name, p).entries:
            c1, c2, c3 = entry.triple
            want = _cup_vanishes(name, p, c1, c2) and _cup_vanishes(name, p, c2, c3)
            if entry.defined != want:
                problems.append((name, entry.triple))
    _report(
        capsys,
        7,
        "triple product defined exactly when both cup classes vanish",
        problems,
    )


def test_criterion_08_unipotent_dictionary(capsys):
    problems = []
    rng = random.Random(505)
    positives = 0

    def check(name, p, entry_by_triple, triples):
        nonlocal positives
        g = _group(name)
        for triple in triples:
            entry = entry_by_triple[triple]
            chars = [_char(name, p, c) for c in triple]
            full = find_prescribed_hom(g, chars, 3)
            bar = find_prescribed_hom(g, chars, 3, bar=True)
            if (full is not None) != (entry.defined and entry.contains_zero):
                problems.append((name, triple, "full-hom mismatch"))
            if (bar is not None) != entry.defined:
                problems.append((name, triple, "bar-hom mismatch"))
            positives += full is not None

    for name, p, cap in [("unipotent:2:2", 2, 10**9), ("unipotent:2:3", 3, 40)]:
        report = _scan(name, p)
        by_triple = {e.triple: e for e in report.entries}
        check(name, p, by_triple, _sample(rng, sorted(by_triple), cap))

    for name, p, cap in [
        ("elab:2:3", 2, 10**9),
        ("elab:2:4", 2, 200),
        ("elab:3:3", 3, 200),
    ]:
        report = _scan(name, p)
        by_triple = {e.triple: e for e in report.entries}
        triples = _sample(rng, _independent_triples(name, p), cap)
        for triple in triples:
            if by_triple[triple].defined:
                problems.append((name, triple, "independent triple defined"))
        check(name, p, by_triple, triples)

    # positive existence on U_4(F_2): the superdiagonal characters are an
    # independent triple carried by the identity homomorphism
    g = _group("unipotent:3:2")
    sd = g.superdiagonal_table()
    chars = [Character(g, 2, sd[:, i]) for i in range(3)]
    full = find_prescribed_hom(g, chars, 3)
    bar = find_prescribed_hom(g, chars, 3, bar=True)
    if full is None or not check_surjective(full):
        problems.append("no surjective full hom for U_4(F_2) superdiagonals")
    if bar is None:
        problems.append("no bar hom for U_4(F_2) superdiagonals")
    if positives == 0:
        problems.append("criterion was vacuous: no full hom ever found")
    _report(
        capsys,
        8,
        "unipotent-lift dictionary matches Massey vanishing",
        problems,
    )


def test_criterion_09_bridge(capsys):
    problems = []
    applied = 0
    for name, p in SWEEP:
        for entry in _scan(name, p).entries:
            if not entry.defined:
                continue
            key = _span_key((entry.triple[0], entry.triple[2]), p)
            if _property_holds(name, p, key):
                applied += 1
                if not entry.contains_zero:
                    problems.append((name, entry.triple))
    if applied == 0:
        problems.append("criterion was vacuous")
    _report(
        capsys,
        9,
        "cup-restriction property forces vanishing (zero exceptions)",
        problems,
    )


def test_criterion_10_property_span_independence(capsys):
    problems = []
    rng = random.Random(606)
    for name, p in [("elab:2:3", 2), ("elab:3:2", 3), ("dihedral:8", 2)]:
        g = _group(name)
        ring = get_ring(g, p)
        dim = ring.basis(1).dim
        for _ in range(20):
            k = rng.randint(1, dim)
            coords = [
                tuple(rng.randrange(p) for _ in range(dim)) for _ in range(k)
            ]
            while True:
                mat = np.array(
                    [[rng.randrange(p) for _ in range(k)] for _ in range(k)],
                    dtype=np.int64,
                )
                if len(row_space_basis(mat, p)) == k:
                    break
            base = np.asarray(coords, dtype=np.int64)
            transformed = (mat @ base) % p
            v1 = has_property(g, [_char(name, p, c) for c in coords], p)
            v2 = has_property(g, [_char(name, p, c) for c in transformed], p)
            extra = [_char(name, p, c) for c in coords] + [
                _char(name, p, base.sum(axis=0) % p)
            ]
            v3 = has_property(g, extra, p)
            if not (v1.holds == v2.holds == v3.holds):
                problems.append((name, coords, "holds differs"))
            if not (v1.dim_image == v2.dim_image == v3.dim_image):
                problems.append((name, coords, "dim_image differs"))
            if not (v1.dim_kernel == v2.dim_kernel == v3.dim_kernel):
                problems.append((name, coords, "dim_kernel differs"))
    _report(
        capsys,
        10,
        "cup-restriction verdict depends only on the character span",
        problems,
    )


def test_criterion_11_z3_witness(capsys):
    problems = []
    chi = _char("cyclic:3", 3, (1,))
    coset = triple_massey_set(chi, chi, chi)
    if coset is None:
        problems.append("<chi, chi, chi> undefined")
    else:
        elems = coset.elements()
        if len(elems) != 1 or elems[0] == (0,):
            problems.append(f"expected nonzero singleton, got {elems}")
    report = _scan("cyclic:3", 3)
    witnesses = {e.triple for e in report.witnesses}
    expected = {
        (a, b, c)
        for a in [(1,), (2,)]
        for b in [(1,), (2,)]
        for c in [(1,), (2,)]
    }
    if report.holds:
        problems.append("scan reports vanishing on Z/3")
    if witnesses != expected:
        problems.append(f"witness family {witnesses} != {expected}")
    _report(
        capsys,
        11,
        "Z/3 carries the classical nonvanishing triple product",
        problems,
    )


def test_criterion_12_dga_identities(capsys):
    problems = []
    for name, p in SWEEP:
        g = _group(name)
        rng = np.random.default_rng(1000 + g.order)
        n = g.order
        rounds = 1000 if n <= 16 else 250
        for _ in range(rounds):
            a = Cochain(g, p, 1, rng.integers(0, p, n))
            b = Cochain(g, p, 1, rng.integers(0, p, n))
            c = Cochain(g, p, 1, rng.integers(0, p, n))
            if not differential(differential(a)).is_zero():
                problems.append((name, "dd != 0"))
                break
            if differential(cup(a, b)) != cup(differential(a), b) - cup(
                a, differential(b)
            ):
                problems.append((name, "Leibniz fails"))
                break
            if cup(a + b, c) != cup(a, c) + cup(b, c):
                problems.append((name, "left bilinearity fails"))
                break
            if cup(a, b + c) != cup(a, b) + cup(a, c):
                problems.append((name, "right bilinearity fails"))
                break
            if cup(cup(a, b), c) != cup(a, cup(b, c)):
                problems.append((name, "associativity fails"))
                break
    _report(
        capsys,
        12,
        "randomized differential-graded-algebra identities on the sweep",
        problems,
    )
