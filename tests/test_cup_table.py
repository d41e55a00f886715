"""The ring's cup table T[a, b] = [phi_a u phi_b] against the cup cochains it
stands for: `cup_span` against `cup_span_by_cochains`, the vanishing scan
against the per-triple coset formula, the gathered restriction matrix of
`res_kernel_h2` against `restrict`, and the kernels the cup-restriction
test builds against validated subgroups."""

import itertools

import numpy as np
import pytest

from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import cup, get_ring
from masseybrauer.cup_restriction import res_kernel_h2
from masseybrauer.group_core import Character, Subgroup, cyclic_group, kernel_of_characters
from masseybrauer.massey import contains_zero, scan_vanishing, triple_massey_set
from oracles import cup_span_by_cochains, res_kernel_by_restrict

# the groups of the massey-scan benchmark workload
MASSEY_SCAN = [
    ("elab:3:2", 3), ("cyclic:3", 3), ("elab:2:3", 2), ("elab:2:4", 2),
    ("dihedral:8", 2), ("quaternion8", 2),
]
LARGER = [("dihedral:16", 2), ("unipotent:3:2", 2), ("elab:3:3", 3)]


def subspaces(d, p):
    """Every subspace of F_p^d as its reduced echelon basis rows, the zero
    subspace (no rows) first."""
    for k in range(d + 1):
        for piv in itertools.combinations(range(d), k):
            free = [(i, j) for i in range(k) for j in range(piv[i] + 1, d) if j not in piv]
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = np.zeros((k, d), dtype=np.int64)
                rows[np.arange(k), list(piv)] = 1
                for (i, j), v in zip(free, vals):
                    rows[i, j] = v
                yield rows


def subspace_characters(ring):
    """The character list of every subspace of H^1, then the zero character."""
    for rows in subspaces(ring.basis(1).dim, ring.p):
        yield [ring.character_from_coords(r) for r in rows]
    yield [Character(ring.group, ring.p, np.zeros(ring.group.order, dtype=np.int64))]


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, p", MASSEY_SCAN + LARGER)
def test_cup_span_equals_cochain_span(name, p):
    ring = get_ring(builtin_group(name), p)
    for chars in subspace_characters(ring):
        assert same_bytes(ring.cup_span(chars), cup_span_by_cochains(ring, chars))


@pytest.mark.parametrize("p", [2, 3])
def test_cup_span_trivial_group(p):
    ring = get_ring(cyclic_group(1), p)
    assert ring.cup_table().shape == (0, 0, 0)
    zero = Character(ring.group, p, np.zeros(1, dtype=np.int64))
    for chars in ([], [zero]):
        assert same_bytes(ring.cup_span(chars), cup_span_by_cochains(ring, chars))


@pytest.mark.parametrize("name, p", MASSEY_SCAN + LARGER)
def test_cup_table_entries(name, p):
    ring = get_ring(builtin_group(name), p)
    table = ring.cup_table()
    h2 = ring.basis(2)
    phis = ring.basis(1).representatives
    assert table.shape == (len(phis), len(phis), h2.dim)
    assert table is ring.cup_table()
    for (a, pa), (b, pb) in itertools.product(enumerate(phis), repeat=2):
        assert np.array_equal(table[a, b], h2.coordinates(cup(pa, pb)))


def test_cup_table_read_only():
    table = get_ring(builtin_group("elab:2:3"), 2).cup_table()
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1


@pytest.mark.parametrize("name, p", MASSEY_SCAN + [("dihedral:16", 2), ("elab:3:3", 3)])
def test_kernels_and_restriction(name, p):
    g = builtin_group(name)
    ring = get_ring(g, p)
    for chars in subspace_characters(ring):
        sub = kernel_of_characters(chars, g)
        assert sub == Subgroup(g, sub.members)  # the validating constructor accepts it
        assert same_bytes(res_kernel_h2(g, sub, p), res_kernel_by_restrict(g, sub, p))


def test_scan_elab_3_3_against_coset_formula():
    g = builtin_group("elab:3:3")
    ring = get_ring(g, 3)
    report = scan_vanishing(g, 3)
    assert len(report.entries) == 27**3
    assert len(report.witnesses) == 104
    # a seeded sample, half of it among the defined triples, and every witness
    rng = np.random.default_rng(13)
    defined = [e for e in report.entries if e.defined]
    rest = [e for e in report.entries if not e.defined]
    sample = [defined[i] for i in rng.choice(len(defined), 150, replace=False)]
    sample += [rest[i] for i in rng.choice(len(rest), 150, replace=False)]
    for entry in sample + report.witnesses:
        chars = [ring.character_from_coords(np.asarray(c)) for c in entry.triple]
        coset = triple_massey_set(*chars)
        assert entry.defined == (coset is not None)
        assert entry.contains_zero == (coset is not None and contains_zero(coset))


def test_scan_cross_check_raises_on_a_wrong_table():
    """The cup classes read from the table must agree with the d1 solve."""
    g = builtin_group("elab:2:2")
    ring = get_ring(g, 2)
    ring.cup_table()
    good = ring._cup_table
    ring._cup_table = np.zeros_like(good)
    try:
        with pytest.raises(RuntimeError, match="d1-solvability"):
            scan_vanishing(g, 2)
    finally:
        ring._cup_table = good
