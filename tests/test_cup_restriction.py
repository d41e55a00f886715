import numpy as np
import pytest

from masseybrauer.catalog import builtin_group
from masseybrauer.cochain_dga import Cochain, CohomologyRing, cup, get_ring
from masseybrauer.cup_restriction import (
    has_property,
    lambda_image,
    property_for_subgroup,
    res_kernel_h2,
)
from masseybrauer.fp_linalg import in_row_space, row_spaces_equal
from masseybrauer.group_core import (
    Character,
    Subgroup,
    cyclic_group,
    elementary_abelian,
    kernel_of_characters,
    whole_group,
)


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

    def test_repeated_calls_build_the_kernel_ring_once(self, rings_built):
        g = elementary_abelian(2, 3)
        chi = get_ring(g, 2).h1_characters()[0]
        verdicts = [has_property(g, [chi]) for _ in range(5)]
        assert len({(v.holds, v.dim_image, v.dim_kernel) for v in verdicts}) == 1
        assert len(rings_built) == 2  # G's ring and K's ring
        assert rings_built[1] is kernel_of_characters([chi]).as_group()[0]


class TestSpanIndependence:
    def test_equal_span_equal_verdict(self):
        g = builtin_group("elab:2:3")
        c1, c2, c3 = get_ring(g, 2).h1_characters()
        c12 = Character(g, 2, (c1.values + c2.values) % 2)
        lists = [[c1, c2], [c1, c12], [c1, c2, c12]]
        verdicts = [has_property(g, chars) for chars in lists]
        assert len({v.holds for v in verdicts}) == 1
        images = [lambda_image(g, chars).basis for chars in lists]
        assert row_spaces_equal(images[0], images[1], 2)
        assert row_spaces_equal(images[0], images[2], 2)

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
