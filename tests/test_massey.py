import itertools

import numpy as np
import pytest

from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import Cochain, TreeD1Solver, cup, differential, get_ring, restrict
from masseybrauer.fp_linalg import in_row_space
from masseybrauer.group_core import Character, cyclic_group, elementary_abelian, kernel_of_characters
from masseybrauer.massey import (
    DefiningSystem,
    MasseyCoset,
    ScanEntry,
    contains_zero,
    find_triple_defining_system,
    scan_vanishing,
    tilde,
    triple_massey_set,
)
from oracles import d1_solver_by_coboundary_matrix, enumerate_triple_classes


def chars_of(name, p):
    g = builtin_group(name)
    return g, get_ring(g, p)


def superdiagonal_chars(name):
    g = builtin_group(name)
    sd = g.superdiagonal_table()
    return g, [Character(g, g.p, sd[:, i]) for i in range(sd.shape[1])]


class TestDefiningSystem:
    def test_zero_system_valid(self):
        g = cyclic_group(2)
        z = Cochain.zero(g, 2, 1)
        ds = DefiningSystem(3, {(i, j): z for i in (1, 2, 3) for j in (1, 2, 3) if i <= j and (i, j) != (1, 3)})
        assert ds.is_valid()

    def test_corner_position_rejected(self):
        g = cyclic_group(2)
        z = Cochain.zero(g, 2, 1)
        with pytest.raises(ValueError):
            DefiningSystem(3, {(1, 3): z})

    def test_tilde_zero(self):
        g = cyclic_group(2)
        z = Cochain.zero(g, 2, 1)
        ds = DefiningSystem(2, {(1, 1): z, (2, 2): z})
        assert tilde(ds, 1, 2).is_zero()

    def test_tilde_two_fold_is_minus_cup(self):
        # the 2-fold product consists only of -[c1][c2]
        g = builtin_group("elab:2:2")
        c1, c2 = get_ring(g, 2).h1_characters()
        ds = DefiningSystem(
            2, {(1, 1): Cochain.from_character(c1), (2, 2): Cochain.from_character(c2)}
        )
        want = -cup(Cochain.from_character(c1), Cochain.from_character(c2))
        assert tilde(ds, 1, 2) == want

    def test_tilde_triple_formula_p2(self):
        # at p = 2 the corner tilde is c11 u c23 + c12 u c33
        g, chars = superdiagonal_chars("unipotent:2:2")
        ds = find_triple_defining_system(chars[0], chars[1], chars[0])
        got = tilde(ds, 1, 3)
        want = cup(ds.entry(1, 1), ds.entry(2, 3)) + cup(ds.entry(1, 2), ds.entry(3, 3))
        assert got == want

    def test_tilde_corner_is_cocycle_z3(self):
        g = cyclic_group(3)
        chi = get_ring(g, 3).h1_characters()[0]
        ds = find_triple_defining_system(chi, chi, chi)
        assert ds.is_valid()
        assert differential(tilde(ds, 1, 3)).is_zero()


class TestFindTripleDefiningSystem:
    def test_all_zero(self):
        g = cyclic_group(2)
        zero = Character(g, 2, np.zeros(2, dtype=np.int64))
        ds = find_triple_defining_system(zero, zero, zero)
        assert ds is not None and ds.is_valid()
        assert all(c.is_zero() for c in ds.entries.values())

    def test_klein_absent(self):
        g = builtin_group("elab:2:2")
        c1, c2 = get_ring(g, 2).h1_characters()
        assert find_triple_defining_system(c1, c2, c1) is None

    def test_u3_found(self):
        g, chars = superdiagonal_chars("unipotent:2:2")
        x, y = chars
        ds = find_triple_defining_system(x, y, x)
        assert ds is not None and ds.is_valid()

    def test_mixed_groups_rejected(self):
        a = get_ring(cyclic_group(2), 2).h1_characters()[0]
        b = get_ring(builtin_group("elab:2:2"), 2).h1_characters()[0]
        with pytest.raises(ValueError):
            find_triple_defining_system(a, b, a)


class TestTripleMasseySet:
    def test_all_zero_singleton_zero(self):
        g = cyclic_group(2)
        zero = Character(g, 2, np.zeros(2, dtype=np.int64))
        coset = triple_massey_set(zero, zero, zero)
        assert coset.elements() == [(0,)]
        assert contains_zero(coset)

    def test_z3_singleton_nonzero(self):
        g = cyclic_group(3)
        chi = get_ring(g, 3).h1_characters()[0]
        coset = triple_massey_set(chi, chi, chi)
        elems = coset.elements()
        assert len(elems) == 1 and elems[0] != (0,)
        assert not contains_zero(coset)
        # exhaustive enumeration over all defining systems agrees
        assert enumerate_triple_classes(chi, chi, chi) == set(elems)

    def test_u3_formula_vs_brute_force(self):
        g, (x, y) = superdiagonal_chars("unipotent:2:2")
        coset = triple_massey_set(x, y, x)
        assert enumerate_triple_classes(x, y, x) == set(coset.elements())

    def test_undefined_is_none(self):
        g = builtin_group("elab:2:2")
        c1, c2 = get_ring(g, 2).h1_characters()
        assert triple_massey_set(c1, c2, c1) is None
        assert enumerate_triple_classes(c1, c2, c1) is None


class TestContainsZero:
    def test_zero_representative(self):
        coset = MasseyCoset(np.zeros(2, dtype=np.int64), np.zeros((0, 2), dtype=np.int64), 2)
        assert contains_zero(coset)

    def test_representative_in_subspace(self):
        coset = MasseyCoset(
            np.asarray([1, 0]), np.asarray([[1, 0]]), 2
        )
        assert contains_zero(coset)

    def test_representative_outside(self):
        coset = MasseyCoset(
            np.asarray([0, 1]), np.asarray([[1, 0]]), 2
        )
        assert not contains_zero(coset)


class TestScanVanishing:
    def test_trivial_group_holds(self):
        report = scan_vanishing(cyclic_group(1), 2)
        assert report.holds
        assert len(report.entries) == 1  # only the zero triple

    def test_z3_fails_with_witnesses(self):
        report = scan_vanishing(cyclic_group(3), 3)
        assert not report.holds
        triples = {e.triple for e in report.witnesses}
        assert ((1,), (1,), (1,)) in triples
        # witnesses are exactly the triples with all entries nonzero
        assert triples == {
            (a, b, c)
            for a in [(1,), (2,)]
            for b in [(1,), (2,)]
            for c in [(1,), (2,)]
        }

    def test_klein_cross_check_brute_force(self):
        g = builtin_group("elab:2:2")
        ring = get_ring(g, 2)
        report = scan_vanishing(g, 2)
        for entry in report.entries:
            chars = [
                ring.character_from_coords(np.asarray(c, dtype=np.int64))
                for c in entry.triple
            ]
            enum = enumerate_triple_classes(*chars)
            assert entry.defined == (enum is not None)
            if enum is not None:
                assert entry.contains_zero == (tuple([0] * ring.basis(2).dim) in enum)

    @pytest.mark.parametrize("name, p", [("elab:3:2", 3), ("unipotent:2:3", 3)])
    def test_matches_per_triple_reference(self, name, p):
        g, ring = chars_of(name, p)
        report = scan_vanishing(g, p)
        assert report.witnesses  # both groups carry nonvanishing triples
        for entry in report.entries:
            chars = [
                ring.character_from_coords(np.asarray(c, dtype=np.int64))
                for c in entry.triple
            ]
            coset = triple_massey_set(*chars)
            assert entry.defined == (coset is not None)
            assert entry.contains_zero == (coset is not None and contains_zero(coset))

    def test_repeat_deterministic(self):
        g = builtin_group("elab:2:2")
        a = scan_vanishing(g, 2)
        b = scan_vanishing(g, 2)
        assert [(e.triple, e.defined, e.contains_zero) for e in a.entries] == [
            (e.triple, e.defined, e.contains_zero) for e in b.entries
        ]


class TestCupsOnGeneratorColumns:
    """The scan and the defining systems hand the d^1 solver characters as
    value tables with |G| rows, never a cup table with |G|^2 rows: both run
    with `solve_many` patched to raise, and agree with the solver on the
    whole matrix of d^1."""

    @pytest.mark.parametrize(
        "name,p", [("elab:2:2", 2), ("dihedral:8", 2), ("elab:3:2", 3), ("unipotent:2:3", 3)]
    )
    def test_no_square_cup_tables(self, name, p, monkeypatch):
        g, ring = chars_of(name, p)
        n, d = g.order, ring.basis(1).dim
        chars = [ring.character_from_coords(np.asarray(c)) for c in itertools.product(range(p), repeat=d)]
        m = len(chars)
        # d c = -(chi_i u chi_j) solvable, on the whole matrix of d^1
        vals = np.stack([c.values for c in chars])
        cups = (vals[:, None, :, None] * vals[None, :, None, :]).reshape(m * m, n * n)
        solvable = d1_solver_by_coboundary_matrix(g, p).solve_many(-cups.T % p)[1].reshape(m, m)

        rows, real = [], TreeD1Solver.solve_cups

        def recording(self, a, b):
            rows.append((len(a), len(b)))
            return real(self, a, b)

        def never(self, b):
            raise AssertionError("a 2-cochain table reached the d^1 solver")

        monkeypatch.setattr(TreeD1Solver, "solve_many", never)
        monkeypatch.setattr(TreeD1Solver, "solve_cups", recording)
        report = scan_vanishing(g, p)
        for entry, (i, j, k) in zip(report.entries, itertools.product(range(m), repeat=3)):
            assert entry.defined == bool(solvable[i, j] and solvable[j, k])
            ds = find_triple_defining_system(chars[i], chars[j], chars[k])
            assert (ds is not None) == entry.defined
            coset = triple_massey_set(chars[i], chars[j], chars[k])
            assert entry.contains_zero == (coset is not None and contains_zero(coset))
            if ds is not None:
                assert ds.is_valid()
        assert rows and set(rows) == {(n, n)}


def scan_agrees_with_coset_formula(ring, report, triples):
    """Assert that the report's arrays give `triple_massey_set` +
    `contains_zero` at every (i, j, k) of `triples`."""
    p, d = ring.p, ring.basis(1).dim
    coords = itertools.product(range(p), repeat=d)
    chars = [ring.character_from_coords(np.asarray(c, dtype=np.int64)) for c in coords]
    for i, j, k in triples:
        coset = triple_massey_set(chars[i], chars[j], chars[k])
        assert report.defined[i, j, k] == (coset is not None), (i, j, k)
        assert report.contains_zero[i, j, k] == (coset is not None and contains_zero(coset)), (i, j, k)


class TestTrilinearScan:
    """The scan reads each representative off the ring's trilinear form
    M[a, b, c] (`CohomologyRing.triple_form`); its verdicts are compared
    with the per-triple coset formula, which solves a defining system of
    cochains for each triple."""

    @pytest.mark.parametrize(
        "name,p",
        [("elab:2:3", 2), ("quaternion8", 2), ("dihedral:8", 2), ("elab:3:2", 3), ("cyclic:9", 3),
         ("elab:2:4", 2), ("dihedral:16", 2), ("unipotent:3:2", 2)],
    )
    def test_every_triple(self, name, p):
        g, ring = chars_of(name, p)
        report = scan_vanishing(g, p)
        m = p ** ring.basis(1).dim
        assert report.defined.shape == report.contains_zero.shape == (m, m, m)
        scan_agrees_with_coset_formula(ring, report, itertools.product(range(m), repeat=3))

    @pytest.mark.parametrize(
        "name,p,witnesses", [("elab:3:3", 3, 104), ("unipotent:2:3", 3, 512), ("elab:3:4", 3, 320)]
    )
    def test_sample_and_every_witness(self, name, p, witnesses):
        g, ring = chars_of(name, p)
        report = scan_vanishing(g, p)
        found = np.argwhere(report.defined & ~report.contains_zero)
        assert len(report.witnesses) == len(found) == witnesses
        rng = np.random.default_rng(27)
        defined = np.argwhere(report.defined)
        sample = np.concatenate([
            defined[rng.choice(len(defined), 100, replace=False)],
            rng.integers(0, len(report.defined), size=(100, 3)),
            found,
        ])
        scan_agrees_with_coset_formula(ring, report, sample.tolist())

    @pytest.mark.parametrize("name,p,m", [("cyclic:1", 2, 1), ("cyclic:6", 5, 1), ("cyclic:6", 3, 3)])
    def test_edge_cases(self, name, p, m):
        g, ring = chars_of(name, p)
        report = scan_vanishing(g, p)
        assert report.defined.shape == (m, m, m) and len(report.entries) == m**3
        assert ring.triple_form().shape == (ring.basis(1).dim,) * 3 + (ring.basis(2).dim,)
        scan_agrees_with_coset_formula(ring, report, itertools.product(range(m), repeat=3))
        assert report.holds == (m == 1)

    @pytest.mark.parametrize(
        "name,p",
        [("elab:3:2", 3), ("unipotent:2:3", 3), ("cyclic:3", 3), ("unipotent:2:2", 2), ("unipotent:3:2", 2)],
    )
    def test_form_gives_a_class_of_the_coset(self, name, p):
        """sum_abc x_ia x_jb x_kc M[a, b, c] lies in the Massey coset of every
        defined triple, not only on the same side of 0."""
        g, ring = chars_of(name, p)
        d = ring.basis(1).dim
        coords = np.asarray(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
        chars = [ring.character_from_coords(c) for c in coords]
        form, seen = ring.triple_form(), 0
        for i, j, k in itertools.product(range(len(coords)), repeat=3):
            coset = triple_massey_set(chars[i], chars[j], chars[k])
            if coset is not None:
                rep = np.einsum("a,b,c,abct->t", coords[i], coords[j], coords[k], form) % p
                assert in_row_space((rep - coset.representative) % p, coset.indeterminacy, p)
                seen += bool(rep.any())
        assert seen  # some representative is not 0

    @pytest.mark.parametrize("name,p", [("elab:3:2", 3), ("unipotent:3:2", 2), ("dihedral:8", 2), ("elab:2:3", 2)])
    def test_form_is_the_readout_of_its_cochains(self, name, p, monkeypatch):
        """M[a, b, c] is the readout at L of phi_a u c_bc + c_ab u phi_c for
        the solutions c_bc that the solver returns.  Solutions that are 0 on
        the lead columns of Z^1 read 0 at L in c_ab u phi_c on every group
        here, so they are shifted by the cocycle phi_0, which every T[0, c]
        that is not 0 makes visible in both terms."""
        g, ring = chars_of(name, p)
        h1, h2, table = ring.basis(1), ring.basis(2), ring.cup_table()
        n, d, phis = g.order, h1.dim, h1.rep_values
        assert table[0].any()
        real = TreeD1Solver._solve

        def shifted(self, at_s, at_e):
            c, ok = real(self, at_s, at_e)
            return (c + phis[0][:, None]) % p, ok

        monkeypatch.setattr(TreeD1Solver, "_solve", shifted)
        monkeypatch.setattr(ring, "_triple_form", None)
        form = ring.triple_form()
        # d c_bc = phi_b u phi_c - sum_t T[b, c, t] r_t on the whole |G| x |G| table
        cups = (phis[:, None, :, None] * phis[None, :, None, :]).reshape(d * d, n * n)
        f = cups - table.reshape(d * d, -1) @ h2.rep_values
        c, ok = ring.d1_solver().solve_many(f.T % p)
        assert ok.all()
        c = c.T.reshape(d, d, n)
        for a, b, k in itertools.product(range(d), repeat=3):
            z = np.multiply.outer(phis[a], c[b, k]) + np.multiply.outer(c[a, b], phis[k])
            want = (h2._to_coords @ (z.reshape(-1)[h2._lead] % p)).astype(np.int64) % p
            assert np.array_equal(form[a, b, k], want), (a, b, k)

    @pytest.mark.parametrize("name,p", [("elab:2:2", 2), ("elab:3:2", 3), ("cyclic:9", 3), ("quaternion8", 2)])
    def test_one_wrong_table_entry_raises(self, name, p):
        g, ring = chars_of(name, p)
        good = ring.cup_table()
        try:
            for pos in np.ndindex(good.shape):
                bad = good.copy()
                bad[pos] = (bad[pos] + 1) % p
                ring._cup_table = bad
                with pytest.raises(RuntimeError, match="d1-solvability"):
                    scan_vanishing(g, p)
        finally:
            ring._cup_table = good
        scan_vanishing(g, p)  # the restored table passes again

    def test_form_built_once_on_first_scan(self, monkeypatch):
        g = elementary_abelian(3, 2)  # a fresh group, so a fresh ring
        ring = get_ring(g, 3)
        ring.basis(1), ring.basis(2), ring.d1_solver(), ring.cup_table()
        assert ring._triple_form is None
        widths, real = [], TreeD1Solver._solve

        def recording(self, at_s, at_e):
            widths.append(at_s.shape[2])
            return real(self, at_s, at_e)

        monkeypatch.setattr(TreeD1Solver, "_solve", recording)
        first, second = scan_vanishing(g, 3), scan_vanishing(g, 3)
        assert widths == [4]  # one solve of the d^2 = 4 basis pairs
        assert len(first.witnesses) == len(second.witnesses) == 32
        assert not ring.triple_form().flags.writeable

    def test_entries_built_on_read(self, monkeypatch):
        g, ring = chars_of("elab:3:2", 3)
        report = scan_vanishing(g, 3)
        made, real = [], ScanEntry.__init__

        def counting(self, *args):
            made.append(args)
            real(self, *args)

        monkeypatch.setattr(ScanEntry, "__init__", counting)
        assert not report.holds and len(report.witnesses) == 32
        assert not made
        coords = list(itertools.product(range(3), repeat=2))
        eager = [
            ScanEntry((coords[i], coords[j], coords[k]), bool(report.defined[i, j, k]),
                      bool(report.contains_zero[i, j, k]))
            for i, j, k in itertools.product(range(9), repeat=3)
        ]
        made.clear()
        assert report.entries == eager and len(made) == 9**3
        assert report.entries is report.entries and len(made) == 9**3
        assert [w.triple for w in report.witnesses] == [
            e.triple for e in report.entries if e.defined and not e.contains_zero
        ]
        assert all(w.defined and not w.contains_zero for w in report.witnesses)
        assert not report.defined.flags.writeable and not report.contains_zero.flags.writeable


class TestRestrictionFunctoriality:
    def test_restricted_system_is_defining_system(self):
        g, (x, y) = superdiagonal_chars("unipotent:2:2")
        ds = find_triple_defining_system(x, y, x)
        k = kernel_of_characters([x])
        restricted = DefiningSystem(
            3, {pos: restrict(c, k) for pos, c in ds.entries.items()}
        )
        assert restricted.is_valid()
