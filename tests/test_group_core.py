import itertools
import time

import numpy as np
import pytest

from masseybrauer import group_core
from masseybrauer.catalog import SWEEP_P2, SWEEP_P3, builtin_group
from masseybrauer.cochain_dga import get_ring
from masseybrauer.group_core import (
    Character,
    FiniteGroup,
    Subgroup,
    close_generators,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian,
    frattini_p_quotient,
    kernel_of_characters,
    quaternion_group,
    subgroup_closure,
    whole_group,
)
from oracles import (
    close_generators_by_loops,
    closure_by_loops,
    cyclic_by_loops,
    dihedral_by_loops,
    direct_product_by_loops,
    element_orders_by_loops,
    frattini_by_loops,
    greedy_generators_by_loops,
    inverse_by_loops,
    is_group_table,
    quaternion_by_loops,
    subgroup_by_loops,
    unipotent_by_products,
)

# a loop of order 5: identity and inverse laws hold, associativity does not
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]

PERM_GROUPS = {  # S_n from an n-cycle and a transposition; two 3-cycles
    "S4": [[1, 2, 3, 0], [1, 0, 2, 3]],
    "S5": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]],
    "six-point": [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]],
}


def reference_builtin(name):
    """(table, generators) of a builtin group from the reference builders."""
    kind, *args = name.split(":")
    args = [int(a) for a in args]
    if kind == "cyclic":
        return cyclic_by_loops(*args)
    if kind == "elab":
        p, k = args
        out = cyclic_by_loops(p)
        for _ in range(k - 1):
            out = direct_product_by_loops((*out, 0), (*cyclic_by_loops(p), 0))
        return out
    if kind == "dihedral":
        return dihedral_by_loops(*args)
    if kind == "quaternion8":
        return quaternion_by_loops()
    return unipotent_by_products(*args, bar=kind == "unipotent-bar")


def assert_same_group(g, mul, gens=None, identity=0):
    """g has table `mul` and identity, and its inverses, element orders and
    generating set (`gens`, or the greedy set) match the reference loops."""
    assert np.array_equal(g.mul, np.asarray(mul))
    assert g.identity == identity
    assert g.inv.tolist() == inverse_by_loops(mul, identity)
    assert g.element_orders().tolist() == element_orders_by_loops(mul, identity)
    if gens is None:
        gens = greedy_generators_by_loops(mul, identity)
    assert g.generating_set() == gens


class TestCloseGenerators:
    def test_transposition(self):
        g = close_generators([[1, 0]])
        assert g.order == 2

    def test_disjoint_three_cycles(self):
        g = close_generators([[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]])
        assert g.order == 9

    def test_u3_transvections(self):
        # the two transvection generators of U_3(F_2), acting on the group
        # itself by right translation (Cayley permutations)
        u3 = builtin_group("unipotent:2:2")
        perms = [u3.mul[:, g].tolist() for g in u3.generators]
        g = close_generators(perms)
        assert g.order == 8
        assert sorted(g.element_orders().tolist()) == sorted(
            u3.element_orders().tolist()
        )

    def test_malformed(self):
        with pytest.raises(ValueError):
            close_generators([[0, 0]])


class TestConstructors:
    def test_cyclic(self):
        g = cyclic_group(6)
        assert g.order == 6
        assert g.element_orders()[1] == 6

    def test_dihedral(self):
        g = dihedral_group(4)
        assert g.order == 8
        orders = sorted(g.element_orders().tolist())
        assert orders == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_quaternion(self):
        g = quaternion_group()
        assert g.order == 8
        orders = sorted(g.element_orders().tolist())
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_elementary_abelian(self):
        g = elementary_abelian(3, 2)
        assert g.order == 9
        assert all(o in (1, 3) for o in g.element_orders())

    def test_nonpositive_sizes_rejected(self):
        for build in (
            lambda: cyclic_group(0),
            lambda: cyclic_group(-2),
            lambda: elementary_abelian(2, 0),
            lambda: elementary_abelian(3, -1),
        ):
            with pytest.raises(ValueError, match="must be positive"):
                build()

    def test_direct_product(self):
        g = direct_product(cyclic_group(2), cyclic_group(3))
        assert g.order == 6
        assert 6 in g.element_orders()

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup(np.asarray([[0, 1], [0, 1]]))


class TestOrderBound:
    """Every builder refuses an order above MAX_ORDER before it allocates the
    order x order table, so none of these asks for gigabytes."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: builtin_group("cyclic:4097"),
            lambda: builtin_group("elab:2:13"),
            lambda: builtin_group("elab:2:1000000000"),
            lambda: builtin_group("dihedral:2049"),
            lambda: direct_product(cyclic_group(64), cyclic_group(65)),
            # S_8, order 40320: the closure stops at its 4097th element
            lambda: close_generators([[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]),
        ],
        ids=["cyclic", "elab", "elab-huge-k", "dihedral", "direct-product", "permutations"],
    )
    def test_refused(self, build):
        with pytest.raises(ValueError, match="size guard"):
            build()

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(group_core, "MAX_ORDER", 6)
        assert cyclic_group(6).order == dihedral_group(3).order == 6
        assert close_generators([[1, 2, 0], [1, 0, 2]]).order == 6  # S_3
        for build in (
            lambda: cyclic_group(7),
            lambda: dihedral_group(4),
            lambda: direct_product(cyclic_group(2), cyclic_group(4)),
            lambda: elementary_abelian(2, 3),
            lambda: close_generators([[1, 2, 3, 0], [1, 0, 2, 3]]),  # S_4
        ):
            with pytest.raises(ValueError, match="size guard"):
                build()


class TestTableIdentity:
    """Array-built tables equal the entry-by-entry reference builders."""

    @pytest.mark.parametrize(
        "name", SWEEP_P2 + SWEEP_P3 + ["unipotent:3:3", "unipotent-bar:3:3"]
    )
    def test_builtin(self, name):
        g = builtin_group(name)
        mul, gens = reference_builtin(name)
        assert_same_group(g, mul, gens)
        # the same table without generators takes the greedy set
        assert_same_group(FiniteGroup(g.mul), mul)

    @pytest.mark.parametrize(
        "p, k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (2, 8), (3, 5), (5, 3)]
    )
    def test_elementary_abelian_is_the_product_chain(self, p, k):
        """The digit-addition table is the chain C_p x ... x C_p of the
        reference builders, generators p^(k-1), ..., p, 1 included."""
        mul, gens = reference_builtin(f"elab:{p}:{k}")
        assert gens == [p**j for j in reversed(range(k))]
        assert_same_group(elementary_abelian(p, k), mul, gens)

    @pytest.mark.parametrize("name", sorted(PERM_GROUPS))
    def test_close_generators(self, name):
        mul, gens = close_generators_by_loops(PERM_GROUPS[name])
        assert_same_group(close_generators(PERM_GROUPS[name]), mul, gens)

    @pytest.mark.parametrize("name", ["S4", "dihedral:4", "unipotent:2:3"])
    def test_subgroups(self, name):
        g = close_generators(PERM_GROUPS["S4"]) if name == "S4" else builtin_group(name)
        for x, y in itertools.combinations(range(g.order), 2):
            if (x + y) % 3:
                continue  # a third of the pairs keeps the test quick
            members = closure_by_loops(g.mul, [x, y], g.identity)
            assert subgroup_closure(g, [x, y]) == members
            k, emb = Subgroup(g, tuple(members)).as_group()
            assert emb.tolist() == sorted(members)
            if k is not g:  # the whole group is the parent itself
                sub_mul, sub_identity = subgroup_by_loops(g.mul, members, g.identity)
                assert_same_group(k, sub_mul, identity=sub_identity)

    @pytest.mark.parametrize("name", SWEEP_P2 + SWEEP_P3 + ["S4"])
    def test_frattini_quotient(self, name):
        g = close_generators(PERM_GROUPS["S4"]) if name == "S4" else builtin_group(name)
        for p in (2, 3):
            q, proj = frattini_p_quotient(g, p)
            mul, identity, ref_proj = frattini_by_loops(g.mul, p, g.identity)
            assert_same_group(q, mul, identity=identity)
            assert proj.tolist() == ref_proj


class TestRejection:
    def test_non_associative_loop(self):
        assert not is_group_table(LOOP5)
        with pytest.raises(ValueError, match="associativity fails"):
            FiniteGroup(np.asarray(LOOP5))

    def test_greedy_bound(self, monkeypatch):
        # x x = e and x y = x otherwise: each closure adds one element, so a
        # greedy generating set would need n - 1 elements; the search stops
        # after floor(log2 n) of them
        n = 256
        mul = np.tile(np.arange(n)[:, None], (1, n))
        mul[0] = np.arange(n)
        mul[np.arange(n), np.arange(n)] = 0
        closures = []
        closure = group_core.subgroup_closure

        def counted(g, seeds):
            closures.append(len(seeds))
            return closure(g, seeds)

        monkeypatch.setattr(group_core, "subgroup_closure", counted)
        with pytest.raises(ValueError, match="associativity fails"):
            FiniteGroup(mul)
        assert closures == list(range(1, 9))

    def test_generators_must_generate(self):
        with pytest.raises(ValueError, match="generator list does not generate"):
            FiniteGroup(cyclic_group(6).mul, generators=[2])

    @pytest.mark.parametrize("name", SWEEP_P2 + SWEEP_P3)
    def test_perturbed_tables_match_oracle(self, name):
        """Swapping two entries of a row (off the identity row and column)
        keeps the identity and inverse laws; relabelling the elements keeps a
        group.  FiniteGroup accepts exactly the tables the n^3 oracle does."""
        assert_perturbed_tables_match_oracle(builtin_group(name))

    @pytest.mark.parametrize("name", ["dihedral:8", "elab:3:2", "unipotent:2:2"])
    def test_row_blocks_match_oracle(self, name, monkeypatch):
        """Light's test one row per block: a failure in any block is seen."""
        monkeypatch.setattr(group_core, "_LIGHT_BLOCK_CELLS", 1)
        assert_perturbed_tables_match_oracle(builtin_group(name))


def assert_perturbed_tables_match_oracle(g):
    """FiniteGroup accepts exactly the perturbed tables of g (two entries
    of a row swapped, or the elements relabelled) that the n^3 oracle
    accepts."""
    n = g.order
    rng = np.random.default_rng(n)
    verdicts = set()
    for trial in range(6):
        mul = g.mul.copy()
        if trial % 3 == 2:
            sigma = np.concatenate([[0], 1 + rng.permutation(n - 1)])
            mul[np.ix_(sigma, sigma)] = sigma[g.mul]
        elif n > 2:
            a = rng.integers(1, n)
            b, c = rng.choice(np.arange(1, n), size=2, replace=False)
            mul[a, [b, c]] = mul[a, [c, b]]
        expected = is_group_table(mul)
        try:
            FiniteGroup(mul)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == expected
        verdicts.add(expected)
    assert verdicts == ({True, False} if n > 2 else {True})


class TestKernelOfCharacters:
    def test_single_projection(self):
        g = elementary_abelian(2, 2)
        chi = get_ring(g, 2).h1_characters()[0]
        assert kernel_of_characters([chi]).order == 2

    def test_both_projections(self):
        g = elementary_abelian(2, 2)
        chars = get_ring(g, 2).h1_characters()
        assert kernel_of_characters(chars).order == 1

    def test_zero_character(self):
        g = elementary_abelian(2, 2)
        zero = Character(g, 2, np.zeros(4, dtype=np.int64))
        assert kernel_of_characters([zero]).order == 4

    def test_empty_list(self):
        g = cyclic_group(3)
        assert kernel_of_characters([], group=g).order == 3
        with pytest.raises(ValueError):
            kernel_of_characters([])

    def test_depends_only_on_span(self):
        g = elementary_abelian(2, 3)
        c1, c2, c3 = get_ring(g, 2).h1_characters()
        c12 = Character(g, 2, (c1.values + c2.values) % 2)
        a = kernel_of_characters([c1, c2])
        b = kernel_of_characters([c1, c12])
        c = kernel_of_characters([c1, c2, c12])
        assert a.members == b.members == c.members


class TestFrattiniQuotient:
    def test_cyclic4(self):
        q, proj = frattini_p_quotient(cyclic_group(4), 2)
        assert q.order == 2
        assert proj.shape == (4,)

    def test_elab_already_elementary(self):
        g = elementary_abelian(3, 2)
        q, _ = frattini_p_quotient(g, 3)
        assert q.order == 9

    def test_quaternion(self):
        q, _ = frattini_p_quotient(quaternion_group(), 2)
        assert q.order == 4

    def test_projection_is_hom(self):
        g = dihedral_group(4)
        q, proj = frattini_p_quotient(g, 2)
        for a in range(g.order):
            for b in range(g.order):
                assert proj[g.times(a, b)] == q.times(int(proj[a]), int(proj[b]))

    def test_pairing_perfect(self):
        # the evaluation pairing G/G^p[G,G] x H^1(G) -> F_p has full rank
        for name, p in [
            ("cyclic:4", 2),
            ("dihedral:4", 2),
            ("quaternion8", 2),
            ("elab:3:2", 3),
            ("unipotent:2:2", 2),
        ]:
            g = builtin_group(name)
            q, proj = frattini_p_quotient(g, p)
            chars = get_ring(g, p).h1_characters()
            reps = []
            for x in range(q.order):
                reps.append(int(np.nonzero(proj == x)[0][0]))
            mat = np.asarray([[c(r) for c in chars] for r in reps], dtype=np.int64)
            from masseybrauer.fp_linalg import row_space_basis

            rank = row_space_basis(mat, p).shape[0]
            assert rank == len(chars)
            assert q.order == p ** len(chars)

    @pytest.mark.parametrize("p", [65537, 1000003, 10000019])
    def test_large_modulus_refused_at_once(self, p):
        # G^p takes p multiplications: a prime past the exactness bound is
        # refused before any of them
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exactness bound"):
            frattini_p_quotient(cyclic_group(4), p)
        assert time.perf_counter() - t0 < 0.5

    def test_composite_refused(self):
        with pytest.raises(ValueError, match="not prime"):
            frattini_p_quotient(cyclic_group(4), 4)


class TestSubgroup:
    def test_closure_validated(self):
        g = cyclic_group(4)
        with pytest.raises(ValueError):
            Subgroup(g, (0, 1))

    @pytest.mark.parametrize(
        "members, law",
        [((0, 1), "inverse"), ((0, 2, 3, 4), "multiplication"), ((1, 2), "identity")],
    )
    def test_first_failing_law_named(self, members, law):
        # in Z/6, member 1 lacks its inverse 5; member 2 has its inverse 4
        # but 2 + 3 = 5 is missing
        with pytest.raises(ValueError, match=law):
            Subgroup(cyclic_group(6), members)

    def test_as_group(self):
        g = cyclic_group(6)
        sub = Subgroup(g, tuple(subgroup_closure(g, [2])))
        k, emb = sub.as_group()
        assert k.order == 3
        for i in range(3):
            for j in range(3):
                assert int(emb[k.times(i, j)]) == g.times(int(emb[i]), int(emb[j]))

    def test_whole_group(self):
        g = cyclic_group(5)
        assert whole_group(g).is_whole_group()


class TestCharacter:
    def test_additivity_enforced(self):
        g = cyclic_group(3)
        with pytest.raises(ValueError):
            Character(g, 3, np.asarray([0, 1, 1]))

    def test_valid(self):
        g = cyclic_group(3)
        chi = Character(g, 3, np.asarray([0, 1, 2]))
        assert chi(1) == 1 and chi(2) == 2
