import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masseybrauer._kernels import (
    BLOCK_ROWS,
    MAX_COLS,
    PANEL,
    _eliminate,
    _pivot_loop,
    rref,
    rref_blocks,
)
from masseybrauer.fp_linalg import (
    MAX_PRIME,
    FpMatrix,
    FpVector,
    Solver,
    _check_prime,
    in_row_space,
    is_prime,
    kernel_basis,
    membership,
    row_space_basis,
    row_spaces_equal,
    solve_linear,
)

from oracles import (
    TransformSolver,
    kernel_by_enumeration,
    rref_by_loops,
    span_by_enumeration,
)


def M(p, rows):
    return FpMatrix(p, np.asarray(rows, dtype=np.int64))


def V(p, entries):
    return FpVector(p, np.asarray(entries, dtype=np.int64))


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(M(2, [[1, 0], [0, 1]]), V(2, [1, 0]))
        assert np.array_equal(x.entries, [1, 0])

    def test_inconsistent(self):
        assert solve_linear(M(3, [[0, 0], [0, 0]]), V(3, [1, 0])) is None

    def test_back_substitution(self):
        x = solve_linear(M(2, [[1, 1], [0, 1]]), V(2, [1, 1]))
        assert np.array_equal(x.entries, [0, 1])

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(M(2, [[1]]), V(3, [1]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(M(2, [[1, 0]]), V(2, [1, 0]))

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            FpMatrix(4, np.zeros((1, 1), dtype=np.int64))


class TestKernelBasis:
    def test_identity_injective(self):
        assert kernel_basis(M(5, np.eye(3, dtype=np.int64))) == []

    def test_zero_matrix(self):
        basis = kernel_basis(M(3, [[0, 0], [0, 0]]))
        assert len(basis) == 2

    def test_rank_one(self):
        basis = kernel_basis(M(3, [[1, 1], [2, 2]]))
        assert len(basis) == 1
        # spans the same line as (1, 2)
        got = span_by_enumeration(np.stack([basis[0].entries]), 3)
        want = span_by_enumeration(np.asarray([[1, 2]]), 3)
        assert got == want


class TestMembership:
    def test_zero_vector(self):
        coords = membership(V(2, [0, 0]), [V(2, [1, 0]), V(2, [0, 1])])
        assert not coords.entries.any()

    def test_basis_element(self):
        coords = membership(V(2, [1, 0]), [V(2, [1, 0]), V(2, [0, 1])])
        assert np.array_equal(coords.entries, [1, 0])

    def test_outside_span(self):
        assert membership(V(2, [1, 1, 1]), [V(2, [1, 0, 0]), V(2, [0, 1, 0])]) is None

    def test_empty_basis(self):
        assert membership(V(3, [0, 0]), []) is not None
        assert membership(V(3, [1, 0]), []) is None


@st.composite
def matrix_and_vector(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    a = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    b = draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows))
    return p, np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)


class TestProperties:
    @given(matrix_and_vector())
    @settings(max_examples=200, deadline=None)
    def test_solve_exactness(self, data):
        p, a, b = data
        x = solve_linear(FpMatrix(p, a), FpVector(p, b))
        if x is not None:
            assert np.array_equal((a @ x.entries) % p, b % p)

    @given(matrix_and_vector())
    @settings(max_examples=200, deadline=None)
    def test_kernel_annihilated(self, data):
        p, a, _ = data
        for v in kernel_basis(FpMatrix(p, a)):
            assert not ((a @ v.entries) % p).any()

    @given(matrix_and_vector())
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_enumeration(self, data):
        p, a, _ = data
        if p > 3 or a.shape[1] > 3:
            return
        basis = kernel_basis(FpMatrix(p, a))
        if basis:
            got = span_by_enumeration(np.stack([v.entries for v in basis]), p)
        else:
            got = {tuple([0] * a.shape[1])}
        assert got == kernel_by_enumeration(a, p)

    @given(matrix_and_vector())
    @settings(max_examples=100, deadline=None)
    def test_solver_batch_matches_single(self, data):
        p, a, b = data
        solver = Solver(a, p)
        rhs = np.stack([b, (2 * b) % p, np.zeros_like(b)], axis=1)
        xs, ok = solver.solve_many(rhs)
        for k in range(rhs.shape[1]):
            single = solver.solve(rhs[:, k])
            assert ok[k] == (single is not None)
            if single is not None:
                assert np.array_equal(xs[:, k], single)


class TestSolverAgainstTransform:
    """Same pivots, same solutions on consistent columns and same ok flags as
    the [A | I] solver, which keeps a rows x rows transform."""

    @pytest.mark.parametrize("p", [2, 3, 7, MAX_PRIME])
    def test_random_rank_deficient(self, p):
        rng = np.random.default_rng(p)
        shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (7, 3), (3, 7), (40, 12), (300, 20)]
        for rows, cols in shapes:
            for rank in sorted({0, min(rows, cols) // 2, min(rows, cols)}):
                a = (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p
                if rows > 1 and cols:
                    a[-1] = a[0]  # a repeated row: rank deficient
                consistent = (a @ rng.integers(0, p, (cols, 4))) % p
                rhs = np.concatenate([consistent, rng.integers(0, p, (rows, 4))], axis=1)
                solver, ref = Solver(a, p), TransformSolver(a, p)
                got_x, got_ok = solver.solve_many(rhs)
                ref_x, ref_ok = ref.solve_many(rhs)
                assert np.array_equal(solver.pivots, ref.pivots)
                assert got_ok.tobytes() == ref_ok.tobytes()
                assert got_ok[:4].all()
                assert got_x[:, got_ok].tobytes() == ref_x[:, ref_ok].tobytes()


class TestIsPrime:
    def test_agrees_with_sieve(self):
        n = 10**4
        sieve = [False, False] + [True] * (n - 2)
        for q in range(2, n):
            if sieve[q]:
                sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
        assert [is_prime(m) for m in range(-3, n)] == [False] * 3 + sieve

    def test_square_of_a_large_prime(self):
        assert not is_prime(1000003**2)
        assert is_prime(1000003)


class TestModulusBound:
    def test_mersenne_31_rejected(self):
        p = 2**31 - 1
        with pytest.raises(ValueError, match="exactness bound"):
            _check_prime(p)
        with pytest.raises(ValueError):
            Solver(np.eye(2, dtype=np.int64), p)
        with pytest.raises(ValueError):
            FpVector(p, np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError):
            row_space_basis(np.eye(2, dtype=np.int64), p)

    def test_bound_is_the_largest_accepted_prime(self):
        assert _check_prime(MAX_PRIME) == MAX_PRIME
        with pytest.raises(ValueError):
            _check_prime(65537)  # the next prime

    def test_solve_many_exact_at_largest_prime(self):
        p = MAX_PRIME
        rng = np.random.default_rng(7)
        a = rng.integers(0, p, size=(6, 6))
        a[5] = (a[0] + a[1]) % p  # rank deficient: b solvable iff b5 = b0 + b1
        x_true = rng.integers(0, p, size=(6, 8))
        rhs = np.concatenate([(a.astype(object) @ x_true.astype(object)) % p,
                              rng.integers(0, p, size=(6, 8)).astype(object)], axis=1)
        xs, ok = Solver(a, p).solve_many(rhs.astype(np.int64))
        for k in range(rhs.shape[1]):
            col = rhs[:, k]
            assert ok[k] == ((col[0] + col[1] - col[5]) % p == 0)
            if ok[k]:
                exact = (a.astype(object) @ xs[:, k].astype(object)) % p
                assert list(exact) == list(col)
        assert ok[:8].all()


def _multi_block_cases(p):
    """Matrices of several row blocks: full column rank, rank-deficient,
    pivots that appear only in later blocks (left of the earlier ones), rank
    above one block, and all zero."""
    rng = np.random.default_rng(p)
    rows = 3 * BLOCK_ROWS + 17
    yield rng.integers(0, p, size=(rows, 40))
    yield (rng.integers(0, p, size=(rows, 7)) @ rng.integers(0, p, size=(7, 45))) % p
    late = rng.integers(0, p, size=(rows, 30))
    late[: 2 * BLOCK_ROWS, :12] = 0
    yield late
    yield rng.integers(0, p, size=(BLOCK_ROWS + 60, BLOCK_ROWS + 12))
    yield np.zeros((2 * BLOCK_ROWS + 1, 20), dtype=np.int64)


def _wide_cases(p):
    """Matrices more than two panels wide (129 to 700 columns, 1 to 128
    rows): full rank, rank-deficient with zero rows, a first panel without a
    pivot, a first panel whose pivots use up the rows, and a single row."""
    rng = np.random.default_rng(p + 7)
    yield rng.integers(0, p, size=(40, 2 * PANEL + 1))
    low = (rng.integers(0, p, size=(BLOCK_ROWS, 9)) @ rng.integers(0, p, size=(9, 700))) % p
    low[rng.choice(BLOCK_ROWS, 30, replace=False)] = 0
    yield low
    late = rng.integers(0, p, size=(30, 400))
    late[:, : PANEL + 10] = 0
    yield late
    yield rng.integers(0, p, size=(20, 500))  # 20 pivots in the first panel
    spread = np.zeros((12, 300), dtype=np.int64)  # one pivot per panel
    spread[np.arange(12), PANEL * (np.arange(12) % 4) + np.arange(12)] = 1
    spread[:, 290:] = rng.integers(0, p, size=(12, 10))
    yield spread
    yield rng.integers(0, p, size=(1, 2 * PANEL + 1))
    yield np.zeros((5, 300), dtype=np.int64)


class TestRrefKernels:
    """The blocked kernel against the one-pivot-at-a-time oracle."""

    @pytest.mark.parametrize("p", [2, 3, 5, MAX_PRIME])
    def test_panels_match_loops(self, p):
        for a in _wide_cases(p):
            want_red, want_pivots = rref_by_loops(a, p)
            work = a.copy()
            assert np.array_equal(_eliminate(work, p), want_pivots)
            assert np.array_equal(work, want_red)
            red, pivots = rref(a, p)
            assert np.array_equal(pivots, want_pivots) and np.array_equal(red, want_red)
            for rows in (1, 7, BLOCK_ROWS):
                blocks = (a[lo : lo + rows] for lo in range(0, len(a), rows))
                got, piv = rref_blocks(blocks, a.shape[1], p)
                assert np.array_equal(piv, want_pivots)
                assert np.array_equal(got, want_red[: len(piv)])

    @given(matrix_and_vector(), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_loops_match_numpy(self, data, extra_cols):
        p, a, _ = data
        a = np.concatenate([a, (a[:, :extra_cols] * 2) % p], axis=1)  # dependent columns
        red, pivots = rref(a, p)
        want_red, want_pivots = rref_by_loops(a, p)
        assert np.array_equal(pivots, want_pivots)
        assert np.array_equal(red, want_red)

    @pytest.mark.parametrize("p", [2, 3, 5, MAX_PRIME])
    def test_multi_block_matches_loops(self, p):
        for a in _multi_block_cases(p):
            red, pivots = rref(a, p)
            want_red, want_pivots = rref_by_loops(a, p)
            assert red.dtype == np.int64 and red.shape == a.shape
            assert np.array_equal(pivots, want_pivots)
            assert np.array_equal(red, want_red)
            blocks = (a[lo : lo + BLOCK_ROWS] for lo in range(0, len(a), BLOCK_ROWS))
            rows, piv = rref_blocks(blocks, a.shape[1], p)
            assert np.array_equal(piv, want_pivots)
            assert np.array_equal(rows, want_red[: len(piv)])

    def test_column_bound(self):
        # zero rows: nothing large is allocated
        with pytest.raises(ValueError, match="exact below"):
            rref(np.zeros((0, MAX_COLS), dtype=np.int64), 2)
        with pytest.raises(ValueError, match="exact below"):
            rref_blocks([], MAX_COLS, 2)
        red, pivots = rref(np.zeros((0, MAX_COLS - 1), dtype=np.int64), 2)
        assert red.shape == (0, MAX_COLS - 1) and len(pivots) == 0


def _pivot_loop_cases(p):
    """Matrices for the per-pivot loop: dense; with columns that are nonzero
    below every row until the pivots left of them clear them; of low rank,
    so that later columns die; and with leading entries other than 1 (at
    p > 2), a zero column, and pivot rows out of order."""
    rng = np.random.default_rng(p + 11)
    yield rng.integers(0, p, size=(8, 10))
    dep = rng.integers(0, p, size=(9, 12))
    dep[:, 3] = (dep[:, 0] + 2 * dep[:, 1]) % p
    dep[:, 7:9] = (3 * dep[:, 4:6] + dep[:, 2:4]) % p
    yield dep
    yield (rng.integers(0, p, size=(10, 3)) @ rng.integers(0, p, size=(3, 15))) % p
    lead = np.triu(rng.integers(0, p, size=(6, 9)), 2)
    diag = np.asarray([1, 2, p - 1, 3, 1, p - 2]) % p
    lead[np.arange(6), np.arange(1, 7)] = np.where(diag == 0, 1, diag)
    yield lead[rng.permutation(6)]


class TestPivotLoop:
    """`_pivot_loop` alone against the one-pivot-at-a-time oracle."""

    @pytest.mark.parametrize("p", [2, 3, 5, MAX_PRIME])
    def test_from_row_r(self, p):
        # the first call reduces the columns left of j, acting on all of a;
        # the second starts below its pivots, as a later panel does
        for a in _pivot_loop_cases(p):
            want_red, want_pivots = rref_by_loops(a, p)
            for j in range(a.shape[1] + 1):
                work = a.copy()
                left, r = _pivot_loop(work, p, j)
                right, end = _pivot_loop(work, p, a.shape[1], r)
                assert left + right == want_pivots.tolist() and end == len(want_pivots)
                assert np.array_equal(work, want_red)

    @pytest.mark.parametrize("p", [2, 3, 5, MAX_PRIME])
    def test_panel_and_row_operations(self, p):
        for a in _pivot_loop_cases(p):
            want_red, want_pivots = rref_by_loops(a, p)
            rows, cols = a.shape
            panel = np.concatenate([a, np.eye(rows, dtype=np.int64)], axis=1)
            pivots, r = _pivot_loop(panel, p, cols)
            assert pivots == want_pivots.tolist() and r == len(pivots)
            assert np.array_equal(panel[:, :cols], want_red)
            ops = panel[:, cols:].astype(object)
            assert np.array_equal((ops @ a.astype(object)) % p, want_red)

    @pytest.mark.parametrize("p", [2, 3, 5, MAX_PRIME])
    def test_columns_zero_below_r_are_not_scanned(self, p):
        """The rows above r hold the pivots of the columns left of j and are
        nonzero in some columns that are zero from row r down; the loop
        scans as many columns as it does with those rows zeroed."""

        class Counted(np.ndarray):
            scans = 0

            def nonzero(self):
                Counted.scans += 1
                return super().nonzero()

        for a in _pivot_loop_cases(p):
            for j in range(1, a.shape[1]):
                work = a.copy()
                _, r = _pivot_loop(work, p, j)
                counts = []
                for top in (work[:r], np.zeros_like(work[:r])):
                    Counted.scans = 0
                    _pivot_loop(np.concatenate([top, work[r:]]).view(Counted), p, a.shape[1], r)
                    counts.append(Counted.scans)
                assert counts[0] == counts[1]


class TestRowSpaces:
    def test_row_space_basis_echelon(self):
        basis = row_space_basis(np.asarray([[2, 2], [1, 1]]), 3)
        assert np.array_equal(basis, [[1, 1]])

    def test_in_row_space(self):
        basis = row_space_basis(np.asarray([[1, 0, 1], [0, 1, 1]]), 2)
        assert in_row_space(np.asarray([1, 1, 0]), basis, 2)
        assert not in_row_space(np.asarray([1, 0, 0]), basis, 2)

    def test_row_spaces_equal(self):
        a = np.asarray([[1, 0], [0, 1]])
        b = np.asarray([[1, 1], [1, 2]])
        assert row_spaces_equal(a, b, 3)
        assert not row_spaces_equal(a, np.asarray([[1, 1]]), 3)
