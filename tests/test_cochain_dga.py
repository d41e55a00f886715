import gc
import itertools
import weakref

import numpy as np
import pytest

from masseybrauer import cochain_dga
from masseybrauer._kernels import rref
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import (
    Cochain,
    CohomologyRing,
    class_coordinates,
    coboundary_matrix,
    cohomology,
    cup,
    differential,
    get_ring,
    restrict,
)
from masseybrauer.fp_linalg import null_space_rows
from masseybrauer.group_core import (
    Character,
    FiniteGroup,
    Subgroup,
    close_generators,
    cyclic_group,
    elementary_abelian,
    kernel_of_characters,
    whole_group,
)

from oracles import (
    TransformSolver,
    check_cocycles_by_all_tuples,
    coboundary_rows,
    cocycles_by_bfs_system,
    cocycles_by_generator_rows,
    cohomology_by_full_stream,
    coordinates_by_cocycle_solver,
    d1_solver_by_coboundary_matrix,
)

RNG = np.random.default_rng(20240817)


def random_cochain(g, p, degree):
    vals = RNG.integers(0, p, size=(g.order,) * degree)
    return Cochain(g, p, degree, vals)


class TestDifferential:
    def test_character_is_cocycle(self):
        g = elementary_abelian(2, 2)
        for chi in get_ring(g, 2).h1_characters():
            assert differential(Cochain.from_character(chi)).is_zero()

    def test_degree_zero_trivial_action(self):
        g = cyclic_group(5)
        c = Cochain(g, 5, 0, np.asarray(3))
        assert differential(c).is_zero()

    def test_explicit_z2(self):
        # f(1) = 1, f(s) = 0 on Z/2: (df)(g,h) = f(g) + f(h) - f(gh) gives
        # (df)(1,1) = 1, (df)(1,s) = (df)(s,1) = 1, (df)(s,s) = -f(1) = 1
        g = cyclic_group(2)
        f = Cochain(g, 2, 1, np.asarray([1, 0]))
        df = differential(f)
        assert np.array_equal(df.values, [[1, 1], [1, 1]])

    def test_degree_cap(self):
        g = cyclic_group(2)
        with pytest.raises(ValueError):
            differential(random_cochain(g, 2, 3))

    def test_dd_zero(self):
        for name, p in [("cyclic:4", 2), ("elab:3:2", 3), ("dihedral:4", 2)]:
            g = builtin_group(name)
            for _ in range(20):
                for degree in (0, 1):
                    c = random_cochain(g, p, degree)
                    assert differential(differential(c)).is_zero()

    def test_matches_coboundary_matrix(self):
        g = builtin_group("dihedral:4")
        for degree in (1, 2):
            m = coboundary_matrix(g, 2, degree)
            c = random_cochain(g, 2, degree)
            assert np.array_equal(
                (m @ c.flat()) % 2, differential(c).flat()
            )

    @pytest.mark.parametrize("name", ["dihedral:4", "quaternion8", "cyclic:6"])
    def test_matches_entrywise_reference(self, name):
        g = builtin_group(name)
        for degree in (0, 1, 2):
            full = coboundary_matrix(g, 3, degree)
            ref = coboundary_rows(g, 3, degree)
            assert full.dtype == ref.dtype and full.shape == ref.shape
            assert np.array_equal(full, ref)
            n = len(full)
            for rows in [np.arange(5), np.arange(n // 3, n // 2), np.arange(1, n, 7), [n - 1, 0]]:
                assert np.array_equal(coboundary_rows(g, 3, degree, rows), full[rows])
                if degree < 2:
                    got = cochain_dga._coboundary_rows(g, 3, degree, np.asarray(rows))
                    assert got.dtype == full.dtype and np.array_equal(got, full[rows])


class TestCup:
    def test_zero_absorbing(self):
        g = cyclic_group(2)
        z = Cochain.zero(g, 2, 1)
        c = random_cochain(g, 2, 1)
        assert cup(z, c).is_zero()

    def test_chi_cup_chi_not_coboundary_z2(self):
        g = cyclic_group(2)
        chi = Cochain(g, 2, 1, np.asarray([0, 1]))
        z = cup(chi, chi)
        assert differential(z).is_zero()
        # compare against the coboundary of every 1-cochain
        for vals in itertools.product(range(2), repeat=2):
            f = Cochain(g, 2, 1, np.asarray(vals))
            assert differential(f) != z

    def test_chi1_cup_chi2_not_coboundary_klein(self):
        g = elementary_abelian(2, 2)
        c1, c2 = get_ring(g, 2).h1_characters()
        z = cup(Cochain.from_character(c1), Cochain.from_character(c2))
        for vals in itertools.product(range(2), repeat=4):
            f = Cochain(g, 2, 1, np.asarray(vals))
            assert differential(f) != z

    def test_leibnitz(self):
        for name, p in [("cyclic:4", 2), ("elab:3:2", 3), ("quaternion8", 2)]:
            g = builtin_group(name)
            for _ in range(20):
                a = random_cochain(g, p, 1)
                b = random_cochain(g, p, 1)
                lhs = differential(cup(a, b))
                rhs = cup(differential(a), b) - cup(a, differential(b))
                assert lhs == rhs

    def test_degree_cap(self):
        g = cyclic_group(2)
        with pytest.raises(ValueError):
            cup(random_cochain(g, 2, 2), random_cochain(g, 2, 2))

    def test_subtraction(self):
        g = builtin_group("quaternion8")
        a, b = random_cochain(g, 3, 2), random_cochain(g, 3, 2)
        assert a - b == Cochain(g, 3, 2, a.values - b.values)
        with pytest.raises(ValueError, match="different groups or moduli"):
            a - random_cochain(cyclic_group(8), 3, 2)
        with pytest.raises(ValueError, match="different groups or moduli"):
            a - random_cochain(g, 5, 2)
        with pytest.raises(ValueError, match="degree mismatch"):
            a - random_cochain(g, 3, 1)


class TestCohomology:
    def test_z2_dims(self):
        g = cyclic_group(2)
        assert cohomology(g, 2, 1).dim == 1
        assert cohomology(g, 2, 2).dim == 1

    def test_z3_at_p2(self):
        g = cyclic_group(3)
        assert cohomology(g, 2, 1).dim == 0
        assert cohomology(g, 2, 2).dim == 0

    def test_klein_dims(self):
        g = elementary_abelian(2, 2)
        assert cohomology(g, 2, 1).dim == 2
        assert cohomology(g, 2, 2).dim == 3

    def test_z2_brute_force_h2(self):
        # dim H^2 = #(2-cocycles) / #(coboundaries) counted exhaustively
        g = cyclic_group(2)
        cocycles = 0
        coboundaries = set()
        for vals in itertools.product(range(2), repeat=4):
            c = Cochain(g, 2, 2, np.asarray(vals).reshape(2, 2))
            if differential(c).is_zero():
                cocycles += 1
        for vals in itertools.product(range(2), repeat=2):
            f = Cochain(g, 2, 1, np.asarray(vals))
            coboundaries.add(differential(f).values.tobytes())
        dim = int(np.log2(cocycles) - np.log2(len(coboundaries)))
        assert cohomology(g, 2, 2).dim == dim

    def test_h1_matches_frattini_rank(self):
        from masseybrauer.group_core import frattini_p_quotient

        for name, p in [
            ("cyclic:8", 2),
            ("dihedral:4", 2),
            ("quaternion8", 2),
            ("unipotent:2:2", 2),
            ("elab:3:2", 3),
        ]:
            g = builtin_group(name)
            q, _ = frattini_p_quotient(g, p)
            assert p ** cohomology(g, p, 1).dim == q.order

    def test_representatives_are_cocycles(self):
        g = builtin_group("dihedral:4")
        for degree in (1, 2):
            for rep in cohomology(g, 2, degree).representatives:
                assert differential(rep).is_zero()

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            cohomology(cyclic_group(2), 2, 3)


def _arrays(obj, seen):
    """Every numpy array reachable from obj through attributes and containers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, FiniteGroup):
        yield from _arrays(vars(obj), seen)


class TestStreamedH2:
    def test_ring_keeps_no_d2(self):
        # d2 has |G|^3 rows; it is reduced in row blocks and never stored
        g = builtin_group("elab:2:3")
        ring = CohomologyRing(g, 2)
        ring.basis(2)
        ring.d1_solver()
        shapes = [a.shape for a in _arrays(ring, set())]
        assert shapes
        assert all(s[0] != g.order**3 for s in shapes if s)


# the h2-cold benchmark groups, the trivial group and one order-27 group
FULL_STREAM_CASES = [
    ("cyclic:2", 2), ("cyclic:4", 2), ("cyclic:8", 2), ("cyclic:16", 2),
    ("elab:2:2", 2), ("elab:2:3", 2), ("elab:2:4", 2), ("dihedral:4", 2),
    ("dihedral:8", 2), ("quaternion8", 2), ("unipotent:2:2", 2),
    ("dihedral:12", 2), ("cyclic:9", 3), ("elab:3:2", 3), ("cyclic:18", 3),
    ("cyclic:20", 5), ("cyclic:1", 2), ("elab:3:3", 3),
]


class TestAgainstFullStream:
    """Z from the generator system, the bases and their solvers, byte for
    byte against all of d and the [A | I] solver."""

    @pytest.mark.parametrize("name,p", FULL_STREAM_CASES)
    def test_bases_and_solves_identical(self, name, p):
        g = builtin_group(name)
        ring = CohomologyRing(g, p)
        rng = np.random.default_rng(g.order * p)
        for degree in (1, 2):
            z, reps, ref = cohomology_by_full_stream(g, p, degree)
            got_z = cochain_dga._cocycles(g, p, degree)
            assert got_z.tobytes() == z.tobytes() and got_z.shape == z.shape
            basis = ring.basis(degree)
            got = np.array([c.flat() for c in basis.representatives]).reshape(-1, g.order**degree)
            assert got.tobytes() == reps.tobytes() and got.shape == reps.shape
            cocycles = (rng.integers(0, p, (len(z), 12)).T @ z % p).T
            want = np.zeros((0, 12)) if ref is None else ref.solve_many(cocycles)[0][: len(reps)]
            assert basis.coordinates_batch(cocycles).tobytes() == want.astype(np.int64).tobytes()
        d1 = coboundary_matrix(g, p, 1)
        rhs = np.concatenate(
            [d1 @ rng.integers(0, p, (g.order, 6)) % p, rng.integers(0, p, (g.order**2, 6))], axis=1
        )
        x, ok = ring.d1_solver().solve_many(rhs)
        ref_x, ref_ok = TransformSolver(d1, p).solve_many(rhs)
        assert ok.tobytes() == ref_ok.tobytes() and ok[:6].all()
        assert x[:, ok].tobytes() == ref_x[:, ok].tobytes()

    def test_solvers_hold_no_square_transform(self):
        # at order 32 an [A | I] transform has |G|^4 = 1048576 entries
        g = builtin_group("cyclic:32")
        ring = CohomologyRing(g, 2)
        sizes = [a.size for a in _arrays(ring.d1_solver(), set())]
        assert sizes and max(sizes) <= g.order**3
        # a basis holds Z^T and maps on its pivot coordinates: no array is
        # larger than |G|^degree x dim Z
        for degree in (1, 2):
            dim_z = len(cochain_dga._cocycles(g, 2, degree))
            sizes = [a.size for a in _arrays(ring.basis(degree), set())]
            assert sizes and max(sizes) <= g.order**degree * dim_z


def _s4_with_extra_generators():
    # (0 1) twice, the 4-cycle, (2 3) which those two already give, and e:
    # generating_set() is [1, 2, 1, 3, 0]
    return close_generators(
        [[1, 0, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3], [0, 1, 3, 2], [0, 1, 2, 3]]
    )


class TestCocycleSystem:
    """Z from the values at the generators, extended along a BFS tree, byte
    for byte against the rows of d whose last argument is e or a generator."""

    @pytest.mark.parametrize(
        "make,p",
        [
            (lambda: builtin_group("cyclic:27"), 3),
            (lambda: builtin_group("unipotent:2:3"), 3),
            (lambda: builtin_group("cyclic:32"), 2),
            (lambda: builtin_group("elab:2:5"), 2),
            (lambda: builtin_group("dihedral:16"), 2),
            (_s4_with_extra_generators, 2),
            (_s4_with_extra_generators, 3),
            (lambda: FiniteGroup(cyclic_group(8).mul, generators=[1, 2]), 2),
            (lambda: FiniteGroup(cyclic_group(8).mul, generators=[3, 1, 0]), 2),
        ],
        ids=["cyclic:27", "unipotent:2:3", "cyclic:32", "elab:2:5", "dihedral:16",
             "s4-extra@2", "s4-extra@3", "z8-redundant", "z8-redundant-e"],
    )
    def test_matches_generator_rows(self, make, p):
        g = make()
        for degree in (1, 2):
            got = cochain_dga._cocycles(g, p, degree)
            want = cocycles_by_generator_rows(g, p, degree)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape

    @pytest.mark.parametrize("degree", [1, 2])
    def test_corrupted_row_is_rejected(self, degree, monkeypatch):
        real = cochain_dga._cocycles

        def corrupted(group, p, deg):
            z = real(group, p, deg).copy()
            z[-1, 3] = (z[-1, 3] + 1) % p
            return z

        monkeypatch.setattr(cochain_dga, "_cocycles", corrupted)
        with pytest.raises(RuntimeError, match="internal error"):
            CohomologyRing(builtin_group("dihedral:4"), 2).basis(degree)


class TestPresentationSystem:
    """Z from the loops of the presentation, byte for byte against the
    dense BFS-tree system and the generator rows of d, and the bases built
    on it against the bases built on the BFS-tree system."""

    @pytest.mark.parametrize(
        "name,p",
        FULL_STREAM_CASES + [("elab:2:5", 2), ("dihedral:16", 2), ("elab:2:6", 2), ("dihedral:64", 2)],
    )
    def test_identical_to_bfs_system(self, name, p, monkeypatch):
        g = builtin_group(name)
        rng = np.random.default_rng(g.order * p + 2)
        ring = CohomologyRing(g, p)
        for degree in (1, 2):
            z = cochain_dga._cocycles(g, p, degree)
            olds = [cocycles_by_bfs_system]
            if g.order <= 27:  # the generator rows of d: |G|^degree (|S| + 1) rows
                olds.append(cocycles_by_generator_rows)
            for old in olds:
                want = old(g, p, degree)
                assert z.tobytes() == want.tobytes() and z.shape == want.shape
            ring.basis(degree)
        monkeypatch.setattr(cochain_dga, "_cocycles", cocycles_by_bfs_system)
        old_ring = CohomologyRing(g, p)
        for degree in (1, 2):
            basis, want = ring.basis(degree), old_ring.basis(degree)
            got_reps = np.array([c.flat() for c in basis.representatives], dtype=np.int64)
            want_reps = np.array([c.flat() for c in want.representatives], dtype=np.int64)
            assert got_reps.tobytes() == want_reps.tobytes() and got_reps.shape == want_reps.shape
            z = cocycles_by_bfs_system(g, p, degree)
            cocycles = (rng.integers(0, p, (len(z), 8)).T @ z % p).T
            assert basis.coordinates_batch(cocycles).tobytes() == want.coordinates_batch(cocycles).tobytes()

    def test_one_presentation_per_group(self, monkeypatch):
        # degree 1, degree 2 and the relator matrix read one BFS tree
        from masseybrauer import group_core
        from masseybrauer.unipotent import Relators

        built = []
        real = group_core.Presentation.__init__

        def counted(self, group):
            built.append(group)
            real(self, group)

        monkeypatch.setattr(group_core.Presentation, "__init__", counted)
        g = FiniteGroup(builtin_group("dihedral:8").mul)  # nothing memoized yet
        ring = CohomologyRing(g, 2)
        ring.basis(1), ring.basis(2)
        rel = Relators(g, 2)
        assert built == [g] and rel.parent is g.presentation().parent

    def test_trivial_group(self):
        # S is empty: no off-tree edges, Z^2 = B^2 = F_p, H^1 = H^2 = 0
        g = FiniteGroup(np.zeros((1, 1), dtype=np.int64))
        pres = g.presentation()
        assert pres.gens.shape == (0,) and pres.edge_count == 0
        ring = CohomologyRing(g, 3)
        assert ring.basis(1).dim == 0 and ring.basis(2).dim == 0
        assert cochain_dga._cocycles(g, 3, 2).tolist() == [[1]]
        assert ring.basis(2).coordinates(Cochain(g, 3, 2, np.ones((1, 1)))).shape == (0,)


def _d1_inputs(g, p, rng):
    """Flattened 2-cochains, one per column, and what each one is:
    coboundaries, cocycles that are not coboundaries (an H^2 representative
    plus a coboundary), random tables, and coboundaries changed at one
    (x, h) with h outside S and e, which the tree equations at (e, e) and on
    G x S do not see."""
    n = g.order
    d1 = coboundary_matrix(g, p, 1)
    cob = d1 @ rng.integers(0, p, (n, 6)) % p
    reps = CohomologyRing(g, p).basis(2).rep_values
    cocycles = (reps.T + d1 @ rng.integers(0, p, (n, len(reps)))) % p
    tables = rng.integers(0, p, (n * n, 6))
    unseen = sorted(set(range(n)) - {g.identity, *g.generating_set()})
    bumped = cob[:, :0]
    if unseen:
        bumped = cob[:, :3].copy()
        bumped[rng.integers(0, n, 3) * n + unseen[-1], np.arange(3)] += 1
        bumped %= p
    kinds = ["coboundary"] * 6 + ["class"] * len(reps) + ["table"] * 6 + ["bumped"] * bumped.shape[1]
    return np.concatenate([cob, cocycles, tables, bumped], axis=1), kinds


class TestTreeD1Solve:
    """d^1 solved along the presentation's tree, byte for byte against a
    Solver on the whole matrix of d^1, and without building d^1."""

    @pytest.mark.parametrize(
        "make,p",
        [(lambda name=name: builtin_group(name), p) for name, p in FULL_STREAM_CASES]
        + [
            (lambda: builtin_group("dihedral:32"), 2),
            (_s4_with_extra_generators, 2),
            (_s4_with_extra_generators, 3),
            (lambda: FiniteGroup(cyclic_group(8).mul, generators=[3, 1, 0]), 2),
        ],
        ids=[f"{name}@{p}" for name, p in FULL_STREAM_CASES]
        + ["dihedral:32@2", "s4-extra@2", "s4-extra@3", "z8-redundant-e"],
    )
    def test_identical_to_coboundary_matrix_solver(self, make, p):
        g = make()
        rhs, kinds = _d1_inputs(g, p, np.random.default_rng(g.order * p + 5))
        x, ok = CohomologyRing(g, p).d1_solver().solve_many(rhs)
        want_x, want_ok = d1_solver_by_coboundary_matrix(g, p).solve_many(rhs)
        assert ok.tobytes() == want_ok.tobytes()
        assert x[:, ok].tobytes() == want_x[:, ok].tobytes()
        # a random table is a coboundary only by chance (always on the trivial group)
        assert {kind for kind, good in zip(kinds, ok) if not good} <= {"class", "table", "bumped"}
        assert {kind for kind, good in zip(kinds, ok) if good} <= {"coboundary", "table"}

    def test_ring_never_builds_d1(self, monkeypatch):
        def never(*args):
            raise AssertionError("the matrix of d^1 was built")

        monkeypatch.setattr(cochain_dga, "coboundary_matrix", never)
        g = builtin_group("dihedral:128")
        ring = CohomologyRing(g, 2)
        phis = ring.basis(1).rep_values
        n, d = g.order, len(phis)
        cups = (phis[:, None, :, None] * phis[None, :, None, :]).reshape(d * d, n * n)
        x, ok = ring.d1_solver().solve_many(cups.T)
        # verdicts from the relator cup form, solutions against the differential
        rel = cochain_dga.relators(g, 2)
        at = phis.T[rel.gens]
        form = ~(rel.checks @ (at[:, None, :, None] * at[None, :, None, :]).reshape(-1, d * d) % 2).any(axis=0)
        assert ok.tolist() == form.tolist() and ok.any() and not ok.all()
        for j in np.flatnonzero(ok):
            assert differential(Cochain(g, 2, 1, x[:, j])).flat().tolist() == cups[j].tolist()

    def test_relator_matrix_eliminated_once(self, monkeypatch):
        # Z^1 and the d^1 solves read the one elimination of R in Relators'
        # Solver; the cup form is built only for find_prescribed_hom
        from masseybrauer import fp_linalg, unipotent

        g = FiniteGroup(builtin_group("dihedral:8").mul)  # nothing memoized yet
        solvers, reduced = [], []
        real_init = fp_linalg.Solver.__init__

        def counted_init(self, a, p):
            solvers.append(np.asarray(a) % p)
            real_init(self, a, p)

        def recording(real):
            def rref(a, p):
                reduced.append(np.asarray(a) % p)
                return real(a, p)

            return rref

        def no_blocks(*args):
            raise AssertionError("rref_blocks called")

        monkeypatch.setattr(fp_linalg.Solver, "__init__", counted_init)
        for module in (fp_linalg, cochain_dga, unipotent):
            monkeypatch.setattr(module, "rref", recording(module.rref))
        monkeypatch.setattr(cochain_dga, "rref_blocks", no_blocks)
        ring = CohomologyRing(g, 2)
        ring.basis(1)
        ring.d1_solver().solve_many(coboundary_rows(g, 2, 1))
        rel = cochain_dga.relators(g, 2)
        assert "checks" not in vars(rel) and "pairs" not in vars(rel)
        assert len(solvers) == 1 and np.array_equal(solvers[0], rel.matrix)
        same = [a for a in reduced if a.shape == rel.matrix.shape and np.array_equal(a, rel.matrix)]
        assert len(same) == 1
        monkeypatch.undo()
        chi = ring.h1_characters()[0]
        unipotent.find_prescribed_hom(g, [chi, chi], 2)
        assert "checks" in vars(rel) and rel is cochain_dga.relators(g, 2)


class TestCupSolve:
    """Cups of characters solved from their values on G x S, byte for byte
    against `solve_many` on the whole value tables."""

    @pytest.mark.parametrize(
        "make,p",
        [(lambda name=name: builtin_group(name), p) for name, p in FULL_STREAM_CASES]
        + [
            (lambda: builtin_group("dihedral:32"), 2),
            (_s4_with_extra_generators, 2),
            (_s4_with_extra_generators, 3),
            (lambda: FiniteGroup(cyclic_group(8).mul, generators=[3, 1, 0]), 2),
        ],
        ids=[f"{name}@{p}" for name, p in FULL_STREAM_CASES]
        + ["dihedral:32@2", "s4-extra@2", "s4-extra@3", "z8-redundant-e"],
    )
    def test_identical_to_solve_many(self, make, p):
        g = make()
        n, solver = g.order, CohomologyRing(g, p).d1_solver()
        phis = CohomologyRing(g, p).basis(1).rep_values
        # every phi_a u phi_b, then cups of random sums of the phi_a
        rng = np.random.default_rng(g.order * p + 11)
        sums = rng.integers(0, p, (8, len(phis))) @ phis % p
        a = np.concatenate([np.repeat(phis, len(phis), axis=0), sums, -sums[::-1]])
        b = np.concatenate([np.tile(phis, (len(phis), 1)), sums[::-1], sums])
        x, ok = solver.solve_cups(a.T, b.T)
        want_x, want_ok = solver.solve_many((a[:, :, None] * b[:, None, :]).reshape(len(a), n * n).T)
        assert ok.tobytes() == want_ok.tobytes()
        assert x.tobytes() == want_x.tobytes()

    @pytest.mark.parametrize("name,p", [("dihedral:8", 2), ("cyclic:9", 3), ("cyclic:1", 2)])
    def test_rejects_non_homomorphisms(self, name, p):
        g = builtin_group(name)
        solver = CohomologyRing(g, p).d1_solver()
        # the characters plus 1 (1 at e), and 1 at one element other than e
        good = np.zeros((g.order, 1), dtype=np.int64)
        bad = list(CohomologyRing(g, p).basis(1).rep_values[:, :, None] + 1) + [good + 1]
        if g.order > 1:
            bad.append(good.copy())
            bad[-1][-1] = 1
        for x in bad:
            for args in ((x, good), (good, x)):
                with pytest.raises(ValueError, match="not a homomorphism"):
                    solver.solve_cups(*args)
        assert solver.solve_cups(good, good)[1].all()


class TestSizeBound:
    def test_h2_refused_before_allocating(self, monkeypatch):
        def never(*args):
            raise AssertionError("Z solved for past the size guard")

        g = cyclic_group(512)  # H^2 would need 2^27 entries per array
        ring = CohomologyRing(g, 2)
        assert ring.basis(1).dim == 1  # |G|^2 entries: admitted
        monkeypatch.setattr(cochain_dga, "_cocycles", never)
        for build in (lambda: ring.basis(2), ring.d1_solver):
            with pytest.raises(ValueError, match="size guard"):
                build()

    def test_order_256_admitted(self):
        assert 256**3 == cochain_dga.MAX_CELLS
        cochain_dga._check_size(cyclic_group(256), 2)
        with pytest.raises(ValueError, match="size guard"):
            cochain_dga._check_size(cyclic_group(257), 2)


def _corruptions(g, degree):
    """Flat indices of one entry at each kind of last argument (e, each s in
    S, the least element outside S and e), at first arguments e and the last
    element in degree 2."""
    e, gens = g.identity, sorted(set(g.generating_set()) - {g.identity})
    lasts = [e, *gens, min(set(range(g.order)) - set(gens) - {e})]
    if degree == 1:
        return lasts
    return [first * g.order + k for first in (e, g.order - 1) for k in lasts]


CHECK_CASES = [
    (lambda: builtin_group("dihedral:4"), 2),
    (lambda: builtin_group("cyclic:9"), 3),
    (_s4_with_extra_generators, 3),
    (lambda: FiniteGroup(cyclic_group(8).mul, generators=[3, 1, 0]), 2),
]
CHECK_IDS = ["dihedral:4", "cyclic:9@3", "s4-extra@3", "z8-redundant-e"]


class TestCocycleCheck:
    """The check at last arguments in S and e, against d on every tuple."""

    @pytest.mark.parametrize("name,p", FULL_STREAM_CASES)
    def test_honest_bases_pass_both(self, name, p):
        g = builtin_group(name)
        for degree in (1, 2):
            z = cochain_dga._cocycles(g, p, degree)
            cochain_dga._check_cocycles(g, p, degree, z)
            check_cocycles_by_all_tuples(g, p, degree, z)

    @pytest.mark.parametrize("make,p", CHECK_CASES, ids=CHECK_IDS)
    @pytest.mark.parametrize("degree", [1, 2])
    def test_single_entry_corruption_raises(self, make, p, degree):
        g = make()
        # Z^1 of S_4 at 3 is 0: a zero row, a cocycle, is corrupted as well
        z = cochain_dga._cocycles(g, p, degree)
        z = np.concatenate([z, np.zeros((1, z.shape[1]), dtype=z.dtype)])
        for idx in _corruptions(g, degree):
            for row in {0, len(z) - 1}:
                bad = z.copy()
                bad[row, idx] = (bad[row, idx] + 1) % p
                for check in (cochain_dga._check_cocycles, check_cocycles_by_all_tuples):
                    with pytest.raises(RuntimeError, match="internal error"):
                        check(g, p, degree, bad)

    # in z8-redundant-e the generator 1 alone gives the whole group
    @pytest.mark.parametrize("make,p", CHECK_CASES[:3], ids=CHECK_IDS[:3])
    def test_every_generator_is_read(self, make, p):
        # a cochain whose d vanishes at every last argument in S and e but
        # one s is rejected whenever it is not a cocycle
        g = make()
        gens = sorted(set(g.generating_set()) - {g.identity})
        caught = 0
        for degree in (1, 2):
            for s in gens:
                ks = [k for k in [g.identity, *gens] if k != s]
                rows = (np.arange(g.order**degree)[:, None] * g.order + ks).ravel()
                red, pivots = rref(coboundary_rows(g, p, degree, rows), p)
                for z in null_space_rows(red, pivots, p):
                    try:
                        check_cocycles_by_all_tuples(g, p, degree, z[None])
                    except RuntimeError:
                        caught += 1
                        with pytest.raises(RuntimeError, match="internal error"):
                            cochain_dga._check_cocycles(g, p, degree, z[None])
        assert caught

    def test_trivial_group_reads_e(self):
        # S is empty: only z(e) = 0 separates cocycles in degree 1, and every
        # 2-cochain of the trivial group is a cocycle
        g = builtin_group("cyclic:1")
        for check in (cochain_dga._check_cocycles, check_cocycles_by_all_tuples):
            with pytest.raises(RuntimeError, match="internal error"):
                check(g, 2, 1, np.ones((1, 1), dtype=np.int64))
            check(g, 2, 2, np.ones((1, 1), dtype=np.int64))


class TestCoordinatesAgainstSolver:
    """Representatives, coordinates and "not a cocycle" verdicts, byte for
    byte against one Solver on [d^(k-1) | Z^T]."""

    @pytest.mark.parametrize(
        "name,p", FULL_STREAM_CASES + [("dihedral:32", 2), ("elab:2:6", 2)]
    )
    def test_identical(self, name, p):
        g = builtin_group(name)
        ring = CohomologyRing(g, p)
        rng = np.random.default_rng(g.order * p + 1)
        for degree in (1, 2):
            z = cochain_dga._cocycles(g, p, degree)
            cocycles = (rng.integers(0, p, (len(z), 10)).T @ z % p).T
            other = rng.integers(0, p, (g.order**degree, 4))
            nudged = cocycles[:, :3].copy()
            nudged[rng.integers(0, g.order**degree, 3), range(3)] += 1
            flats = np.concatenate([cocycles, other, nudged, np.zeros_like(other[:, :1])], axis=1)
            reps, want, ok = coordinates_by_cocycle_solver(g, p, degree, flats)
            basis = ring.basis(degree)
            got = np.array([c.flat() for c in basis.representatives], dtype=np.int64)
            assert got.reshape(reps.shape).tobytes() == reps.tobytes()
            assert ok[:10].all() and ok[-1]
            got = basis.coordinates_batch(flats[:, ok])
            assert got.dtype == want.dtype and got.tobytes() == want[:, ok].tobytes()
            verdicts = []
            for j in range(flats.shape[1]):
                try:
                    basis.coordinates_batch(flats[:, j : j + 1])
                    verdicts.append(True)
                except ValueError as err:
                    assert str(err) == "not a cocycle"
                    verdicts.append(False)
            assert np.array(verdicts).tobytes() == ok.tobytes()
            if not ok.all():
                with pytest.raises(ValueError, match="not a cocycle"):
                    basis.coordinates_batch(flats)


class TestClosedFormDimensions:
    """Cold bases of order 32 to 81 against known dimensions."""

    @pytest.mark.parametrize(
        "name,p,degree,dim",
        [
            # H^*(elementary abelian) at p: k in degree 1, k + C(k, 2) in degree 2
            ("elab:2:5", 2, 2, 15),
            ("elab:2:6", 2, 2, 21),
            ("elab:3:4", 3, 2, 10),
            ("dihedral:32", 2, 2, 3),
            ("cyclic:64", 2, 2, 1),
            # U_4(F_2) needs 3 generators, its superdiagonal transvections
            ("unipotent:3:2", 2, 1, 3),
        ],
    )
    def test_dimension(self, name, p, degree, dim):
        assert CohomologyRing(builtin_group(name), p).basis(degree).dim == dim


class TestRestrict:
    def test_restrict_to_kernel(self):
        g = elementary_abelian(2, 2)
        chi = get_ring(g, 2).h1_characters()[0]
        k = kernel_of_characters([chi])
        assert restrict(Cochain.from_character(chi), k).is_zero()

    def test_restrict_to_whole_group(self):
        g = cyclic_group(4)
        c = random_cochain(g, 2, 2)
        r = restrict(c, whole_group(g))
        assert np.array_equal(r.values, c.values)

    def test_cup_restricts_to_zero(self):
        g = elementary_abelian(2, 2)
        c1, c2 = get_ring(g, 2).h1_characters()
        z = cup(Cochain.from_character(c1), Cochain.from_character(c2))
        k = kernel_of_characters([c1])
        assert restrict(z, k).is_zero()

    def test_commutes_with_differential_and_cup(self):
        g = builtin_group("dihedral:4")
        k = Subgroup(g, (0, 1, 2, 3))  # the rotation subgroup
        for _ in range(10):
            a = random_cochain(g, 2, 1)
            b = random_cochain(g, 2, 1)
            assert np.array_equal(
                restrict(differential(a), k).values,
                differential(restrict(a, k)).values,
            )
            assert np.array_equal(
                restrict(cup(a, b), k).values,
                cup(restrict(a, k), restrict(b, k)).values,
            )


class TestRingMemo:
    def test_get_ring_memoized_per_group_and_modulus(self):
        g = elementary_abelian(2, 2)
        assert get_ring(g, 2) is get_ring(g, 2)
        assert get_ring(g, 3) is not get_ring(g, 2)
        assert CohomologyRing(g, 2) is not get_ring(g, 2)

    def test_dropped_group_frees_its_rings(self):
        table = (np.arange(6)[:, None] + np.arange(6)[None, :]) % 6
        g = FiniteGroup(table)
        ring = get_ring(g, 3)
        ring.basis(2)
        k, _ = kernel_of_characters(ring.h1_characters()).as_group()
        get_ring(k, 3).basis(2)
        refs = [weakref.ref(g), weakref.ref(k)]
        del g, ring, k
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestClassCoordinates:
    def test_coboundary_is_zero(self):
        g = cyclic_group(4)
        basis = cohomology(g, 2, 2)
        f = random_cochain(g, 2, 1)
        assert not class_coordinates(differential(f), basis).any()

    def test_representative_is_unit(self):
        g = elementary_abelian(2, 2)
        basis = cohomology(g, 2, 2)
        for i, rep in enumerate(basis.representatives):
            coords = class_coordinates(rep, basis)
            want = np.zeros(basis.dim, dtype=np.int64)
            want[i] = 1
            assert np.array_equal(coords, want)

    def test_cup_square_on_z2(self):
        g = cyclic_group(2)
        chi = Cochain(g, 2, 1, np.asarray([0, 1]))
        coords = class_coordinates(cup(chi, chi), cohomology(g, 2, 2))
        assert coords.shape == (1,) and coords[0] == 1

    def test_one_cocycle_test_in_the_solve(self, monkeypatch):
        def unused(c):
            raise AssertionError("coordinates applied the differential")

        monkeypatch.setattr(cochain_dga, "differential", unused)
        g = cyclic_group(2)
        basis = get_ring(g, 2).basis(2)
        assert basis.coordinates(basis.representatives[0]).tolist() == [1]
        bad = Cochain(g, 2, 2, np.asarray([[0, 1], [0, 0]]))
        with pytest.raises(ValueError, match="not a cocycle"):
            basis.coordinates(bad)
        with pytest.raises(ValueError, match="not a cocycle"):
            basis.coordinates_batch(bad.flat()[:, None])
        other = Cochain(cyclic_group(3), 2, 2, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="dimension mismatch"):
            basis.coordinates(other)

    def test_non_cocycle_rejected(self):
        g = cyclic_group(2)
        basis = cohomology(g, 2, 2)
        bad = Cochain(g, 2, 2, np.asarray([[0, 1], [0, 0]]))
        assert not differential(bad).is_zero()
        with pytest.raises(ValueError):
            class_coordinates(bad, basis)
