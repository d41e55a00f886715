import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import Cochain, cup, differential, get_ring
from masseybrauer.group_core import Character, FiniteGroup, close_generators, cyclic_group
from masseybrauer.massey import DefiningSystem, find_triple_defining_system, tilde
from masseybrauer.unipotent import (
    GroupHom,
    Relators,
    build_unipotent,
    check_surjective,
    find_prescribed_hom,
    frattini_criterion,
    gamma_from_system,
)
from oracles import (
    cup_form_by_stacked_residues,
    distance_two_by_pairs,
    prescribed_hom_by_backtracking,
    prescribed_hom_by_tree_system,
)


class TestBuildUnipotent:
    def test_orders(self):
        assert build_unipotent(2, 2).order == 8
        assert build_unipotent(3, 2).order == 64
        assert build_unipotent(3, 2, bar=True).order == 32
        assert build_unipotent(2, 3).order == 27

    def test_size_guard(self):
        with pytest.raises(ValueError):
            build_unipotent(5, 2)
        with pytest.raises(ValueError):
            build_unipotent(2, 7)

    @pytest.mark.parametrize("n,p,bar,order", [(4, 3, False, 59049), (4, 3, True, 19683),
                                               (3, 5, False, 15625)])
    def test_order_guard(self, n, p, bar, order):
        # refused before the order x order table is allocated
        with pytest.raises(ValueError, match=f"order {order}"):
            build_unipotent(n, p, bar)

    def test_largest_target_in_use_admitted(self):
        assert build_unipotent(4, 2).order == 1024

    def test_matrix_index_round_trip(self):
        g = build_unipotent(3, 2)
        for i in (0, 1, 17, 63):
            assert g.matrix_index(g.matrices[i]) == i

    def test_multiplication_matches_matrices(self):
        g = build_unipotent(2, 3)
        for a in range(0, g.order, 5):
            for b in range(0, g.order, 7):
                prod = (g.matrices[a] @ g.matrices[b]) % 3
                assert g.times(a, b) == g.matrix_index(prod)

    def test_bar_kills_corner(self):
        g = build_unipotent(2, 2, bar=True)
        assert g.order == 4
        assert (0, 2) not in g.positions


class TestGammaFromSystem:
    def test_zero_array(self):
        g = cyclic_group(2)
        z = Cochain.zero(g, 2, 1)
        entries = {(1, 1): z, (2, 2): z, (1, 2): z}
        gamma = gamma_from_system(entries, 2)
        assert gamma.is_hom_full and gamma.is_hom_bar
        assert (gamma.full_images == 0).all()

    def test_u3_identity_round_trip(self):
        # read the array off the identity map of U_3(F_2) via the sign
        # dictionary; gamma must reproduce the identity homomorphism
        g = build_unipotent(2, 2)
        p = 2
        entries = {}
        for i in range(1, 3):
            for j in range(i, 3):
                sign = (-1) ** (j + 1 - i)
                vals = (sign * g.matrices[:, i - 1, j]) % p
                entries[(i, j)] = Cochain(g, p, 1, vals)
        gamma = gamma_from_system(entries, 2)
        assert gamma.is_hom_full
        assert np.array_equal(gamma.full_images, np.arange(g.order))

    def test_z3_closure_condition(self):
        # gamma is a homomorphism Z/3 -> U_3(F_3) exactly when the interior
        # entry solves d c12 = -(chi u chi) -- the cochain, not just its
        # class, so c12 = 0 does NOT work even though [chi u chi] = 0
        g = cyclic_group(3)
        ring = get_ring(g, 3)
        chi = ring.h1_characters()[0]
        c = Cochain.from_character(chi)
        zero = Cochain.zero(g, 3, 1)
        bad = gamma_from_system({(1, 1): c, (2, 2): c, (1, 2): zero}, 2)
        assert not bad.is_hom_full and bad.is_hom_bar
        rhs = -cup(c, c)
        x = ring.d1_solver().solve(rhs.flat())
        c12 = Cochain(g, 3, 1, x)
        good = gamma_from_system({(1, 1): c, (2, 2): c, (1, 2): c12}, 2)
        assert good.is_hom_full
        GroupHom(g, build_unipotent(2, 3), good.full_images)  # validates

    def test_corner_missing_gives_bar_only(self):
        g = cyclic_group(2)
        z = Cochain.zero(g, 2, 1)
        gamma = gamma_from_system({(1, 1): z, (2, 2): z, (3, 3): z, (1, 2): z, (2, 3): z}, 3)
        assert gamma.full_images is None
        assert gamma.is_hom_bar

    def test_dictionary_soundness_exhaustive(self):
        # n = 2 over Z/2: gamma is a homomorphism into U_3 exactly when the
        # full array is a defining system with the (1,2) entry included,
        # i.e. the diagonal entries are characters and d c12 = -c11 u c22
        g = cyclic_group(2)
        p = 2
        all_cochains = [
            Cochain(g, p, 1, np.asarray(v)) for v in itertools.product(range(p), repeat=2)
        ]
        for c11, c22, c12 in itertools.product(all_cochains, repeat=3):
            gamma = gamma_from_system({(1, 1): c11, (2, 2): c22, (1, 2): c12}, 2)
            closes = (
                differential(c11).is_zero()
                and differential(c22).is_zero()
                and differential(c12) == -cup(c11, c22)
            )
            assert gamma.is_hom_full == closes
            bar_closes = differential(c11).is_zero() and differential(c22).is_zero()
            assert gamma.is_hom_bar == bar_closes


class TestFindPrescribedHom:
    def test_u4_identity(self):
        g = build_unipotent(3, 2)
        sd = g.superdiagonal_table()
        chars = [Character(g, 2, sd[:, i]) for i in range(3)]
        hom = find_prescribed_hom(g, chars, 3)
        assert hom is not None
        assert check_surjective(hom)
        for x in range(g.order):
            assert g.superdiagonal(int(hom.images[x])) == g.superdiagonal(x)

    def test_klein_absent(self):
        g = builtin_group("elab:2:2")
        c1, c2 = get_ring(g, 2).h1_characters()
        assert find_prescribed_hom(g, [c1, c2], 2) is None

    def test_z4_found_not_surjective(self):
        g = cyclic_group(4)
        chi = get_ring(g, 2).h1_characters()[0]
        hom = find_prescribed_hom(g, [chi, chi], 2)
        assert hom is not None
        assert hom.image_size() == 4
        assert not check_surjective(hom)
        assert not frattini_criterion([chi, chi])

    def test_found_hom_has_prescribed_superdiagonal(self):
        g = builtin_group("unipotent:2:3")
        sd = g.superdiagonal_table()
        chars = [Character(g, 3, sd[:, i]) for i in range(2)]
        hom = find_prescribed_hom(g, chars, 2)
        assert hom is not None and check_surjective(hom)
        assert frattini_criterion(chars)

    def test_bar_variant(self):
        # independent chars on (Z/2)^2 lift to the bar quotient of U_3
        # (the cup obstruction lives in the killed corner)
        g = builtin_group("elab:2:2")
        c1, c2 = get_ring(g, 2).h1_characters()
        hom = find_prescribed_hom(g, [c1, c2], 2, bar=True)
        assert hom is not None
        assert check_surjective(hom)

    def test_wrong_char_count(self):
        g = cyclic_group(2)
        chi = get_ring(g, 2).h1_characters()[0]
        with pytest.raises(ValueError):
            find_prescribed_hom(g, [chi], 2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_n_below_two_is_value_error(self, n):
        g = cyclic_group(4)
        chi = get_ring(g, 2).h1_characters()[0]
        with pytest.raises(ValueError, match="at least 2"):
            find_prescribed_hom(g, [chi] * n, n)


    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("bar", [False, True])
    def test_trivial_group(self, n, bar):
        # no generators: the only map is the trivial homomorphism
        g = FiniteGroup(np.zeros((1, 1), dtype=np.int64))
        chi = Character(g, 2, np.zeros(1, dtype=np.int64))
        hom = find_prescribed_hom(g, [chi] * n, n, bar=bar)
        assert hom is not None and hom.images.tolist() == [hom.target.identity]
        want = prescribed_hom_by_backtracking(g, [chi] * n, n, bar=bar)
        assert want is not None and want.images.tolist() == hom.images.tolist()


def _all_characters(g, p):
    ring = get_ring(g, p)
    coords = itertools.product(range(p), repeat=ring.basis(1).dim)
    return [ring.character_from_coords(np.asarray(c, dtype=np.int64)) for c in coords]


def _tuples(chars, n, sample=None, seed=0):
    """Every tuple of n characters but the all-zero one, or a seeded sample."""
    tuples = [t for t in itertools.product(chars, repeat=n) if any(c.values.any() for c in t)]
    if sample is not None and sample < len(tuples):
        rng = np.random.default_rng(seed)
        tuples = [tuples[i] for i in rng.choice(len(tuples), sample, replace=False)]
    return tuples


def _assert_matches_backtracking(g, p, ns, bars, sample=None):
    chars = _all_characters(g, p)
    for n in ns:
        for t in _tuples(chars, n, sample, seed=n):
            for bar in bars:
                got = find_prescribed_hom(g, list(t), n, bar=bar)
                want = prescribed_hom_by_backtracking(g, list(t), n, bar=bar)
                where = (g.name, n, bar, [c.values.tolist() for c in t])
                assert (got is None) == (want is None), where
                if got is not None:
                    assert np.array_equal(got.images, want.images), where


# the source groups of the prescribed-hom calls of the massey-scan benchmark
SCAN_HOM_GROUPS = [
    ("elab:3:2", 3), ("cyclic:3", 3), ("elab:2:3", 2), ("dihedral:8", 2), ("quaternion8", 2),
]


class TestMatchesBacktracking:
    """The solve returns exactly the hom of the old depth-first search: the
    lexicographically least tuple of generator images, or None."""

    @pytest.mark.parametrize("name,p", SCAN_HOM_GROUPS)
    def test_every_tuple_n2_n3(self, name, p):
        _assert_matches_backtracking(builtin_group(name), p, (2, 3), (False, True))

    @pytest.mark.parametrize(
        "name,sample",
        [("cyclic:2", None), ("cyclic:4", None), ("cyclic:8", None), ("elab:2:2", None),
         ("dihedral:4", 40), ("unipotent:2:2", 60), ("quaternion8", 16), ("elab:2:3", 120)],
    )
    def test_n4_full_and_bar_order_8(self, name, sample):
        _assert_matches_backtracking(builtin_group(name), 2, (4,), (False, True), sample)

    def test_s4_with_repeated_and_redundant_generators(self):
        # (0 1) twice, and (2 3), which the 4-cycle and (0 1) already give
        g = close_generators([[1, 0, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3], [0, 1, 3, 2]])
        assert g.generating_set() == [1, 2, 1, 3]
        _assert_matches_backtracking(g, 2, (2, 3, 4), (False, True))

    @pytest.mark.parametrize("order,gens", [(8, [1, 2]), (8, [3, 1]), (16, [1, 7])])
    def test_n4_corner_with_redundant_generator(self, order, gens):
        # the redundant generator ties the (0, 2) entries and forces a nonzero
        # one, so the full n = 4 corner meets the bilinear term m_02 m_24
        g = FiniteGroup(cyclic_group(order).mul, generators=gens)
        _assert_matches_backtracking(g, 2, (2, 3, 4), (False, True))
        chi = _all_characters(g, 2)[1]
        assert find_prescribed_hom(g, [chi] * 4, 4) is not None

    def test_u4_f2_as_source(self):
        g = builtin_group("unipotent:3:2")
        _assert_matches_backtracking(g, 2, (2, 3), (False, True), sample=80)

    @pytest.mark.parametrize("name", ["elab:3:3", "unipotent:2:3", "cyclic:27"])
    def test_order_27_sample(self, name):
        _assert_matches_backtracking(builtin_group(name), 3, (2, 3), (False, True), sample=25)


class TestMatchesTreeSystem:
    """The relator solve returns the image table of the BFS-tree system it
    replaced, byte for byte, on tuples of nonzero characters."""

    @pytest.mark.parametrize(
        "name,p,n,sample",
        [("unipotent:3:2", 2, 3, None), ("dihedral:8", 2, 4, None), ("elab:3:3", 3, 3, 200)],
    )
    def test_image_tables(self, name, p, n, sample):
        g = builtin_group(name)
        nonzero = [c for c in _all_characters(g, p) if c.values.any()]
        tuples = _tuples(nonzero, n, sample, seed=n)
        assert len(tuples) == sample or len(tuples) == len(nonzero) ** n
        for t in tuples:
            for bar in (False, True):
                got = find_prescribed_hom(g, list(t), n, bar=bar)
                want = prescribed_hom_by_tree_system(g, list(t), n, bar=bar)
                where = (name, n, bar, [c.values.tolist() for c in t])
                assert (got is None) == (want is None), where
                if got is not None:
                    assert got.images.tobytes() == want.images.tobytes(), where


def _bench_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "benchmark.py"
    spec = importlib.util.spec_from_file_location("bench_benchmark", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _relators(g, p):
    return g.cached(("relators", p), lambda: Relators(g, p))


class TestCupForm:
    """`Relators.checks` decides a distance-2 block from the generator values
    alone, as the relator solve it stands in for does."""

    @pytest.mark.parametrize(
        "name,p,rank",
        [("elab:2:5", 2, 15), ("elab:3:3", 3, 3), ("unipotent:2:3", 3, 0),
         ("dihedral:16", 2, 2), ("quaternion8", 2, 2), ("cyclic:25", 5, 0),
         ("cyclic:4", 2, 0)],
    )
    def test_form_decides_like_the_solve(self, name, p, rank):
        g = builtin_group(name)
        rel = _relators(g, p)
        assert rel.checks.shape == (rank, len(rel.gens) ** 2)
        verdicts = set()
        for a, b in itertools.product(_all_characters(g, p), repeat=2):
            values = np.stack([a.values, b.values], axis=1)
            at = values[rel.gens]
            form = not (rel.checks @ np.kron(at[:, 0], at[:, 1]) % p).any()
            solve = bool(rel.solver.solve_many(distance_two_by_pairs(rel, values))[1].all())
            assert form == solve, (name, a.values.tolist(), b.values.tolist())
            verdicts.add(solve)
        assert verdicts == ({True, False} if rank else {True})

    @pytest.mark.parametrize(
        "make,p",
        [
            (lambda: builtin_group("elab:2:5"), 2),
            (lambda: builtin_group("elab:3:3"), 3),
            (lambda: builtin_group("dihedral:16"), 2),
            (lambda: builtin_group("unipotent:3:2"), 2),
            (lambda: builtin_group("cyclic:25"), 5),
            (lambda: FiniteGroup(cyclic_group(8).mul, generators=[3, 1, 0]), 2),
            (lambda: close_generators([[1, 0, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3], [0, 1, 3, 2], [0, 1, 2, 3]]), 3),
        ],
        ids=["elab:2:5", "elab:3:3", "dihedral:16", "unipotent:3:2", "cyclic:25",
             "z8-redundant-e", "s4-extra@3"],
    )
    def test_streamed_form_matches_stacked(self, make, p):
        rel = Relators(make(), p)
        want = cup_form_by_stacked_residues(rel)
        assert rel.checks.dtype == want.dtype and rel.checks.shape == want.shape
        assert rel.checks.tobytes() == want.tobytes()

    def test_bench_cases_match_tree_system(self):
        calls = 0
        for label, g, tuples, n, bar in _bench_module().u_hom_cases():
            for chars in tuples:
                got = find_prescribed_hom(g, chars, n, bar=bar)
                want = prescribed_hom_by_tree_system(g, chars, n, bar=bar)
                where = (label, [c.values.tolist() for c in chars])
                assert (got is None) == (want is None), where
                if got is not None:
                    assert got.images.tobytes() == want.images.tobytes(), where
                calls += 1
        assert calls == 8154

    def test_disagreement_with_the_solve_raises(self, monkeypatch):
        g = builtin_group("elab:2:3")
        chi = _all_characters(g, 2)[1]  # chi u chi != 0 at p = 2
        assert find_prescribed_hom(g, [chi, chi], 2) is None
        monkeypatch.setattr(_relators(g, 2), "checks", np.zeros((0, 9), dtype=np.int64))
        with pytest.raises(RuntimeError, match="internal error"):
            find_prescribed_hom(g, [chi, chi], 2)


class TestCupCriterion:
    """Against cohomology, not the relator code: (chi_0, chi_1) lifts to
    U_3(F_p) iff chi_0 u chi_1 = 0 in H^2, and (chi_0, chi_1, chi_2) lifts
    to the bar quotient of U_4(F_p) iff both adjacent cups vanish."""

    @pytest.mark.parametrize("name,p", SCAN_HOM_GROUPS + [("elab:2:4", 2), ("unipotent:2:3", 3)])
    def test_lift_iff_cups_vanish(self, name, p):
        g = builtin_group(name)
        chars = _all_characters(g, p)
        cochains = [Cochain.from_character(c) for c in chars]
        flats = np.stack([cup(a, b).flat() for a in cochains for b in cochains], axis=1)
        coords = get_ring(g, p).basis(2).coordinates_batch(flats)
        vanishes = ~coords.any(axis=0).reshape(len(chars), len(chars))
        for i, j in itertools.product(range(len(chars)), repeat=2):
            hom = find_prescribed_hom(g, [chars[i], chars[j]], 2)
            assert (hom is not None) == vanishes[i, j], (name, i, j)
        for i, j, k in itertools.product(range(len(chars)), repeat=3):
            hom = find_prescribed_hom(g, [chars[i], chars[j], chars[k]], 3, bar=True)
            assert (hom is not None) == (vanishes[i, j] and vanishes[j, k]), (name, i, j, k)


class TestDictionaryVsMassey:
    def test_u3_triple_via_u4_hom(self):
        # <x, y, x> on U_3(F_2) contains zero iff a prescribed U_4 hom exists
        g = builtin_group("unipotent:2:2")
        sd = g.superdiagonal_table()
        x = Character(g, 2, sd[:, 0])
        y = Character(g, 2, sd[:, 1])
        from masseybrauer.massey import contains_zero, triple_massey_set

        coset = triple_massey_set(x, y, x)
        hom = find_prescribed_hom(g, [x, y, x], 3)
        assert (coset is not None and contains_zero(coset)) == (hom is not None)

    def test_hom_yields_defining_system_with_corner(self):
        # pull the cochain array back out of a found homomorphism and verify
        # it closes at every position including the corner
        g = builtin_group("unipotent:2:2")
        sd = g.superdiagonal_table()
        x = Character(g, 2, sd[:, 0])
        y = Character(g, 2, sd[:, 1])
        hom = find_prescribed_hom(g, [x, y, x], 3)
        if hom is None:
            pytest.skip("no witness hom on this group")
        mats = hom.target.matrices[hom.images]
        p = 2
        entries = {}
        for i in range(1, 4):
            for j in range(i, 4):
                sign = (-1) ** (j + 1 - i)
                entries[(i, j)] = Cochain(g, p, 1, (sign * mats[:, i - 1, j]) % p)
        corner = entries.pop((1, 3))
        ds = DefiningSystem(3, entries)
        assert ds.is_valid()
        assert differential(corner) == tilde(ds, 1, 3)
