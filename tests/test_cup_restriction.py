import itertools
from collections import OrderedDict

import numpy as np
import pytest

from masseybrauer import cup_restriction
from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import Cochain, CohomologyRing, Relators, cup, get_ring
from masseybrauer.cup_restriction import (
    has_property,
    lambda_image,
    property_for_subgroup,
    res_kernel_h2,
)
from masseybrauer.fp_linalg import in_row_space, row_spaces_equal
from masseybrauer.group_core import (
    Character,
    FiniteGroup,
    Subgroup,
    cyclic_group,
    elementary_abelian,
    kernel_of_characters,
    subgroup_closure,
    whole_group,
)
from oracles import res_kernel_by_restrict


@pytest.fixture
def rings_built(monkeypatch):
    """The groups of every CohomologyRing constructed during the test."""
    built = []
    init = CohomologyRing.__init__

    def counting(self, group, p):
        built.append(group)
        init(self, group, p)

    monkeypatch.setattr(CohomologyRing, "__init__", counting)
    return built


@pytest.fixture
def relators_built(monkeypatch):
    """The groups of every Relators constructed during the test."""
    built = []
    init = Relators.__init__

    def counting(self, group, p):
        built.append(group)
        init(self, group, p)

    monkeypatch.setattr(Relators, "__init__", counting)
    return built


def _fresh(name: str) -> FiniteGroup:
    """A builtin group as a new object, so its memo and rings die with the test."""
    g = builtin_group(name)
    return FiniteGroup(g.mul, g.generators, name)


def _subspaces(d: int, p: int):
    """Every subspace of F_p^d, as its RREF rows."""
    for k in range(d + 1):
        for piv in itertools.combinations(range(d), k):
            free = [(i, j) for i in range(k) for j in range(piv[i] + 1, d) if j not in piv]
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = np.zeros((k, d), dtype=np.int64)
                rows[np.arange(k), list(piv)] = 1
                for (i, j), v in zip(free, vals):
                    rows[i, j] = v
                yield rows


def _character_lists(g: FiniteGroup, p: int):
    """One character list per subspace of H^1(G): its RREF rows."""
    ring = get_ring(g, p)
    for rows in _subspaces(ring.basis(1).dim, p):
        yield [ring.character_from_coords(r) for r in rows]


def _subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup's sorted members, each found as <A, x> from a smaller
    subgroup A, starting from the trivial one."""
    found, frontier = {(0,)}, [(0,)]
    while frontier:
        grown = []
        for a in frontier:
            for x in sorted(set(range(g.order)) - set(a)):
                m = tuple(sorted(subgroup_closure(g, [*a, x])))
                if m not in found:
                    found.add(m)
                    grown.append(m)
        frontier = grown
    return sorted(found)


class TestLambdaImage:
    def test_zero_characters(self):
        g = builtin_group("elab:2:2")
        zero = Character(g, 2, np.zeros(4, dtype=np.int64))
        assert lambda_image(g, [zero]).dim == 0
        assert lambda_image(g, [], p=2).dim == 0

    def test_klein_single_char(self):
        g = builtin_group("elab:2:2")
        c1, _ = get_ring(g, 2).h1_characters()
        assert lambda_image(g, [c1]).dim == 2

    def test_klein_both_chars(self):
        g = builtin_group("elab:2:2")
        chars = get_ring(g, 2).h1_characters()
        img = lambda_image(g, chars)
        assert img.dim == 3 == get_ring(g, 2).basis(2).dim

    def test_spanned_by_cup_classes(self):
        g = builtin_group("dihedral:4")
        ring = get_ring(g, 2)
        c1 = ring.h1_characters()[0]
        img = lambda_image(g, [c1])
        h2 = ring.basis(2)
        for phi in ring.h1_characters():
            z = cup(Cochain.from_character(c1), Cochain.from_character(phi))
            assert in_row_space(h2.coordinates(z), img.basis, 2)


class TestResKernel:
    def test_zero_h2_builds_no_subgroup_ring(self, rings_built):
        g = cyclic_group(6)  # H^2(Z/6, Z/5) = 0
        assert res_kernel_h2(g, Subgroup(g, (0, 2, 4)), 5).shape == (0, 0)
        assert all(k is g for k in rings_built)

    def test_whole_group(self):
        g = builtin_group("elab:2:2")
        assert res_kernel_h2(g, whole_group(g), 2).shape[0] == 0

    def test_trivial_subgroup(self):
        g = builtin_group("elab:2:2")
        chars = get_ring(g, 2).h1_characters()
        k = kernel_of_characters(chars)
        assert k.order == 1
        assert res_kernel_h2(g, k, 2).shape[0] == get_ring(g, 2).basis(2).dim

    def test_contains_cup_class(self):
        g = builtin_group("elab:2:2")
        ring = get_ring(g, 2)
        c1, c2 = ring.h1_characters()
        k = kernel_of_characters([c1])
        ker = res_kernel_h2(g, k, 2)
        z = cup(Cochain.from_character(c1), Cochain.from_character(c2))
        assert in_row_space(ring.basis(2).coordinates(z), ker, 2)


class TestHasProperty:
    def test_zero_chars_whole_group(self):
        g = builtin_group("elab:2:2")
        zero = Character(g, 2, np.zeros(4, dtype=np.int64))
        verdict = has_property(g, [zero])
        assert verdict.holds
        assert verdict.dim_image == verdict.dim_kernel == 0

    def test_z2_single_char(self):
        g = cyclic_group(2)
        chi = get_ring(g, 2).h1_characters()[0]
        verdict = has_property(g, [chi])
        assert verdict.holds
        assert verdict.dim_image == 1

    def test_klein_both(self):
        g = builtin_group("elab:2:2")
        verdict = has_property(g, get_ring(g, 2).h1_characters())
        assert verdict.holds and verdict.dim_image == 3

    def test_image_always_inside_kernel(self):
        for name, p in [("dihedral:4", 2), ("quaternion8", 2), ("elab:3:2", 3)]:
            g = builtin_group(name)
            chars = get_ring(g, p).h1_characters()
            for k in range(len(chars) + 1):
                subset = chars[:k]
                img = lambda_image(g, subset, p)
                ker = res_kernel_h2(g, kernel_of_characters(subset, g), p)
                for row in img.basis:
                    assert in_row_space(row, ker, p)

    def test_witness_on_failure_is_in_kernel_not_image(self):
        # scan small groups for any failing verdict and check the witness:
        # the first kernel row outside the image
        failures = 0
        for name, p in [("cyclic:4", 2), ("dihedral:4", 2), ("quaternion8", 2), ("elab:3:3", 3)]:
            g = builtin_group(name)
            chars = get_ring(g, p).h1_characters()
            for k in range(len(chars) + 1):
                verdict = has_property(g, chars[:k], p)
                if not verdict.holds:
                    img = lambda_image(g, chars[:k], p)
                    ker = res_kernel_h2(g, kernel_of_characters(chars[:k], g), p)
                    assert in_row_space(verdict.witness, ker, p)
                    assert not in_row_space(verdict.witness, img.basis, p)
                    first = next(row for row in ker if not in_row_space(row, img.basis, p))
                    assert np.array_equal(verdict.witness, first)
                    failures += 1
        assert failures

    def test_whole_group_reuses_the_ring(self, rings_built):
        g = elementary_abelian(2, 3)
        get_ring(g, 2).basis(2)
        verdict = has_property(g, [], 2)
        assert verdict.holds and verdict.dim_kernel == 0
        assert rings_built == [g]

    def test_repeated_calls_build_the_kernel_relators_once(self, rings_built, relators_built):
        g = elementary_abelian(2, 3)
        chi = get_ring(g, 2).h1_characters()[0]
        verdicts = [has_property(g, [chi]) for _ in range(5)]
        assert len({(v.holds, v.dim_image, v.dim_kernel) for v in verdicts}) == 1
        assert rings_built == [g]  # no ring of K
        # K's relator system, once: the other calls read the memo
        k_relators = [k for k in relators_built if k is not g]
        assert len(k_relators) == 1
        assert k_relators[0].order == kernel_of_characters([chi]).order


class TestSpanIndependence:
    @staticmethod
    def _check_equal_spans(name, p, relators_built):
        """Character lists with one span give one verdict, the later ones
        from the memo; returns the witnesses' bytes (None where it holds)."""
        g = _fresh(name)
        c1, c2, c3 = get_ring(g, p).h1_characters()
        c12 = Character(g, p, c1.values + c2.values)
        lists = [[c1, c2], [c1, c12], [c1, c2, c12], [c12, c2, c1, c1]]
        verdicts = [has_property(g, chars) for chars in lists]
        assert len({v.holds for v in verdicts}) == 1
        assert len({(v.dim_image, v.dim_kernel) for v in verdicts}) == 1
        witnesses = {None if v.witness is None else v.witness.tobytes() for v in verdicts}
        assert len(witnesses) == 1
        # the later lists hit the memo: K's relator system is built once
        assert [k.order for k in relators_built if k is not g] == [g.order // p**2]
        images = [lambda_image(g, chars).basis for chars in lists]
        assert row_spaces_equal(images[0], images[1], p)
        assert row_spaces_equal(images[0], images[2], p)
        # the image rows are the RREF of the span, so equal byte for byte
        assert all(np.array_equal(images[0], im) for im in images[1:])
        return witnesses

    def test_equal_span_equal_verdict(self, relators_built):
        assert self._check_equal_spans("elab:2:3", 2, relators_built) == {None}

    def test_equal_span_equal_witness(self, relators_built):
        # every proper character kernel of elab:3:3 fails at 3
        assert None not in self._check_equal_spans("elab:3:3", 3, relators_built)

    def test_property_for_subgroup_matches(self):
        g = builtin_group("elab:2:2")
        c1, c2 = get_ring(g, 2).h1_characters()
        k = kernel_of_characters([c1])
        via_sub = property_for_subgroup(g, k, 2)
        via_chars = has_property(g, [c1])
        assert via_sub.holds == via_chars.holds
        assert via_sub.dim_kernel == via_chars.dim_kernel

    def test_property_for_subgroup_rejects_non_kernel(self):
        from masseybrauer.group_core import Subgroup

        # mod-3 characters on Z/4 are all zero, so the only character-kernel
        # intersection is the whole group; {0, 2} cannot be realized
        g = cyclic_group(4)
        sub = Subgroup(g, (0, 2))
        with pytest.raises(ValueError):
            property_for_subgroup(g, sub, 3)


class TestResKernelFromRelators:
    """Ker(res) from K's relators equals the oracle's restriction to K and
    H^2(K) coordinates, byte for byte."""

    @pytest.mark.parametrize(
        "name,p",
        [
            ("elab:2:3", 2), ("quaternion8", 2), ("dihedral:8", 2), ("elab:3:2", 3),
            ("elab:3:3", 3), ("unipotent:3:2", 2), ("dihedral:32", 2), ("elab:2:5", 2),
            ("unipotent:2:3", 3), ("elab:2:6", 2), ("cyclic:6", 5),
        ],
    )
    def test_every_subgroup_matches_the_oracle(self, name, p):
        g = _fresh(name)
        subgroups = _subgroups(g) if name not in ("elab:2:5", "elab:2:6") else sorted(
            kernel_of_characters(chars, g).members for chars in _character_lists(g, p)
        )  # every subgroup of an elementary abelian group is a character kernel
        assert (0,) in subgroups and tuple(range(g.order)) in subgroups
        for members in subgroups:
            sub = Subgroup(g, members)
            got = res_kernel_h2(g, sub, p)
            want = res_kernel_by_restrict(g, sub, p)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), members
        h2 = get_ring(g, p).basis(2).dim
        trivial = res_kernel_h2(g, Subgroup(g, (0,)), p)
        assert np.array_equal(trivial, np.eye(h2, dtype=np.int64)) if h2 else trivial.shape == (0, 0)
        assert res_kernel_h2(g, whole_group(g), p).shape == ((0, h2) if h2 else (0, 0))

    def test_no_subgroup_is_memoized(self):
        g = _fresh("elab:2:4")
        for chars in _character_lists(g, 2):
            res_kernel_h2(g, kernel_of_characters(chars, g), 2)
        assert not [key for key in g._memo if key[0] == "subgroup"]


class TestMemo:
    """has_property keeps K's image and kernel rows in one LRU per (G, p),
    keyed by K's members."""

    @staticmethod
    def _memo(g: FiniteGroup, p: int) -> OrderedDict:
        return g.cached(("cup_res", p), OrderedDict)

    def test_bounded_under_eviction(self, monkeypatch):
        monkeypatch.setattr(cup_restriction, "MEMO_SIZE", 8)
        g = _fresh("elab:2:5")
        lists = list(_character_lists(g, 2))
        assert len(lists) == 374
        for chars in lists:
            verdict = has_property(g, chars, 2)
            assert len(self._memo(g, 2)) <= 8
            sub = kernel_of_characters(chars, g)
            # the verdict of an uncached computation with the oracle's kernel
            image = lambda_image(g, chars, 2).basis
            kernel = res_kernel_by_restrict(g, sub, 2)
            assert (verdict.dim_image, verdict.dim_kernel) == (len(image), len(kernel))
            assert verdict.holds == (len(image) == len(kernel))
            assert list(self._memo(g, 2))[-1] == sub.members  # the latest is the newest
        assert len(self._memo(g, 2)) == 8

    def test_evicted_subgroup_recomputes_the_same_rows(self, monkeypatch):
        monkeypatch.setattr(cup_restriction, "MEMO_SIZE", 3)
        g = _fresh("elab:3:3")
        memo = self._memo(g, 3)
        lists = list(_character_lists(g, 3))[1:6]  # five distinct proper K
        first = has_property(g, lists[0], 3)
        key = kernel_of_characters(lists[0], g).members
        saved = memo[key]
        for chars in lists[1:]:
            has_property(g, chars, 3)
        assert key not in memo
        again = has_property(g, lists[0], 3)
        assert memo[key] is not saved
        for a, b in zip(memo[key], saved):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (again.holds, again.dim_image, again.dim_kernel) == (
            first.holds, first.dim_image, first.dim_kernel)
        assert again.witness.tobytes() == first.witness.tobytes()

    def test_recently_used_entry_survives(self, monkeypatch):
        monkeypatch.setattr(cup_restriction, "MEMO_SIZE", 2)
        g = _fresh("elab:2:3")
        a, b, c = list(_character_lists(g, 2))[1:4]
        for chars in (a, b, a, c):  # a is used again before c arrives
            has_property(g, chars)
        keys = [kernel_of_characters(x, g).members for x in (a, b, c)]
        assert list(self._memo(g, 2)) == [keys[0], keys[2]]

    def test_entries_read_only_and_witness_fresh(self):
        g = _fresh("elab:3:2")
        chars = get_ring(g, 3).h1_characters()[:1]
        verdict = has_property(g, chars)
        assert not verdict.holds
        image, kernel = self._memo(g, 3)[kernel_of_characters(chars, g).members]
        assert not image.flags.writeable and not kernel.flags.writeable
        w = verdict.witness
        assert w.flags.writeable and not np.shares_memory(w, kernel)
        saved = w.copy()
        w[:] = 0
        assert np.array_equal(has_property(g, chars).witness, saved)

    def test_one_memo_per_modulus(self):
        g = _fresh("cyclic:6")  # H^1 at 2 and at 3; the whole group at both
        for p in (2, 3):
            has_property(g, [], p)
        assert set(self._memo(g, 2)) == set(self._memo(g, 3)) == {tuple(range(6))}
        assert self._memo(g, 2) is not self._memo(g, 3)
