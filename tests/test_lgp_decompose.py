import dataclasses
import math
import random

import pytest

from masseybrauer.brauer_q import (
    HALF,
    REAL,
    BrauerClass2,
    FactorBoundExceeded,
    Place,
    classes_equal,
    factorize,
    is_local_square,
    is_prime,
    splits_in_multiquadratic,
)
from masseybrauer.lgp_decompose import (
    NonSplittingError,
    SearchBoundExceeded,
    _is_perfect_square,
    decompose,
    decompose_biquadratic,
    find_v0,
    partition_support,
    realize_as_cup,
    verify_certificate,
)

from oracles import realize_by_scan

ODD_PRIMES = [q for q in range(3, 100) if is_prime(q)]


class TestPerfectSquare:
    def test_beyond_float_range(self):
        # a float square root of 10**400 overflows
        assert _is_perfect_square(10**400)
        assert _is_perfect_square((10**200 + 1) ** 2)
        assert not _is_perfect_square((10**200 + 1) ** 2 - 1)
        assert not _is_perfect_square((10**200 + 1) ** 2 + 1)
        assert not _is_perfect_square(-(10**400))


class TestFindV0:
    def test_s_2_3_single_entry(self):
        v0, adjusted = find_v0([Place.prime(2), Place.prime(3)], [2])
        assert v0 == Place.prime(5)
        assert adjusted == [2]

    def test_global_square_rejected(self):
        with pytest.raises(ValueError):
            find_v0([Place.prime(2)], [9])

    def test_no_adjustment_needed(self):
        v0, adjusted = find_v0([Place.prime(2), Place.prime(3)], [2, 17])
        assert v0 == Place.prime(5)
        assert adjusted == [2, 17]  # 17 = 2 mod 5 is a nonresidue

    def test_adjustment_applied(self):
        # at the chosen v0 every adjusted entry is a local nonsquare
        v0, adjusted = find_v0([Place.prime(3)], [2, 11])
        from masseybrauer.brauer_q import is_local_square

        for a in adjusted:
            assert not is_local_square(a, v0)
        for orig, adj in zip([2, 11], adjusted):
            assert adj in (orig, 2 * orig)


class TestPartitionSupport:
    def test_empty_support(self):
        assert partition_support([], [2, 3]) == [[], []]

    def test_first_index_wins(self):
        parts = partition_support([Place.prime(2), Place.prime(3)], [2, 3])
        assert parts == [[Place.prime(2), Place.prime(3)], []]

    def test_unassignable_place(self):
        with pytest.raises(NonSplittingError):
            partition_support([Place.real()], [2])


class TestRealizeAsCup:
    def test_empty_target(self):
        assert realize_as_cup({}, 2) == 1

    def test_2_3(self):
        x = realize_as_cup({Place.prime(2): HALF, Place.prime(3): HALF}, 2)
        assert x == 3

    def test_3_5(self):
        x = realize_as_cup({Place.prime(3): HALF, Place.prime(5): HALF}, 3)
        assert x == 5

    def test_result_always_verified(self):
        rng = random.Random(23)
        count = 0
        while count < 30:
            syms = [
                (rng.choice([n for n in range(-20, 21) if n]),
                 rng.choice([n for n in range(-20, 21) if n]))
            ]
            c = BrauerClass2(syms)
            a = rng.choice([2, 3, 5, -1, 6, 7, -2])
            if not splits_in_multiquadratic(c, [a]) or c.is_trivial():
                continue
            count += 1
            x = realize_as_cup(c.local_invariants(), a)
            assert classes_equal(BrauerClass2([(a, x)]), c)

    def test_odd_support_rejected(self):
        with pytest.raises(ValueError):
            realize_as_cup({Place.prime(3): HALF}, 3)

    def test_local_square_rejected(self):
        # 2 is a square at 7, so (2, x) can never ramify there
        with pytest.raises(NonSplittingError):
            realize_as_cup({Place.prime(7): HALF, Place.prime(3): HALF}, 2)


def _random_entry(rng: random.Random, kind: str) -> int:
    if kind == "minus one":
        return -1
    a = math.prod(rng.sample(ODD_PRIMES, rng.randint(1, 3)))
    if kind == "even":
        a *= 2
    if rng.random() < 0.15:
        a *= 9  # even valuation at 3: the pool keeps 3 as a prime of a
    if kind == "negative" or rng.random() < 0.3:
        a = -a
    return a


class TestRealizeMatchesScan:
    """The linear solve returns exactly the first hit of the exhaustive scan
    over sign * d * w (w = 1, then primes outside the pool; d ascending; +
    before -)."""

    def test_seeded_random_targets(self):
        rng = random.Random(2014)
        kinds = ["odd", "even", "negative", "minus one"]
        places = [REAL, Place.prime(2)] + [Place.prime(q) for q in ODD_PRIMES]
        seen = {kind: 0 for kind in kinds}
        real = two = auxiliary = 0
        while sum(seen.values()) < 320:
            kind = kinds[sum(seen.values()) % 4]
            a = _random_entry(rng, kind)
            ramifiable = [v for v in places if not is_local_square(a, v)]
            if len(ramifiable) < 2:
                continue
            size = rng.choice([2, 2, 4]) if len(ramifiable) >= 4 else 2
            target = {v: HALF for v in rng.sample(ramifiable, size)}
            x = realize_as_cup(target, a)
            assert x == realize_by_scan(target, a), (a, target)
            seen[kind] += 1
            real += REAL in target
            two += Place.prime(2) in target
            pool = {2, *factorize(a), *(v.q for v in target if v.finite)}
            auxiliary += any(q not in pool for q in factorize(x))
        # the draw covers every kind of entry, both special places and
        # targets that need an auxiliary prime w > 1
        assert min(seen.values()) == 80
        assert real > 20 and two > 20 and auxiliary > 0

    def test_auxiliary_prime_bound(self):
        # -194 = -2 * 97: no x built from -1, 2 and 97 alone works, so x
        # needs w = 5, and the bound on w is inclusive
        target = {REAL: HALF, Place.prime(97): HALF}
        assert realize_by_scan(target, -194) == -5
        assert realize_as_cup(target, -194, aux_prime_bound=5) == -5
        with pytest.raises(SearchBoundExceeded):
            realize_as_cup(target, -194, aux_prime_bound=4)

    def test_fourteen_odd_primes(self):
        a = math.prod(ODD_PRIMES[:14])
        target = {Place.prime(3): HALF, Place.prime(43): HALF}
        x = realize_as_cup(target, a)
        assert BrauerClass2([(a, x)]).local_invariants() == target

    def test_huge_entry_raises_factor_bound(self):
        # beyond trial division to 10**6: an explicit error, not a hang
        a = -1000003 * 1000033
        target = {REAL: HALF, Place.prime(2): HALF}
        with pytest.raises(FactorBoundExceeded):
            realize_as_cup(target, a)
        with pytest.raises(FactorBoundExceeded):
            decompose(BrauerClass2([(-1, -1)]), [a])


class TestDecompose:
    def test_trivial_class(self):
        cert = decompose(BrauerClass2([]), [2, 3])
        assert cert.x_list == [1, 1]
        ok, reason = verify_certificate(cert)
        assert ok, reason

    def test_r1_direct(self):
        cert = decompose(BrauerClass2([(2, 3)]), [2])
        assert cert.x_list == [3]
        assert verify_certificate(cert)[0]

    def test_6_5_over_2_3(self):
        c = BrauerClass2([(6, 5)])
        cert = decompose(c, [2, 3])
        assert verify_certificate(cert)[0]
        out = BrauerClass2(list(zip(cert.a_list, cert.x_list)))
        assert classes_equal(c, out)

    def test_minus1_minus1_biquadratic(self):
        c = BrauerClass2([(-1, -1)])
        cert = decompose_biquadratic(c, -1, 2)
        assert verify_certificate(cert)[0]
        assert Place.real() in [v for part in cert.partition for v in part]

    def test_square_lead_reordered(self):
        # a_1 = 4 is a global square; the pipeline must lean on a_2 = 2
        c = BrauerClass2([(2, 3)])
        cert = decompose(c, [4, 2])
        assert verify_certificate(cert)[0]
        assert cert.a_list == [4, 2]

    def test_third_entry_lead_reordered(self):
        # two leading squares: the reordering [2, 0, 1] is not its own inverse
        cert = decompose(BrauerClass2([(2, 3)]), [4, 9, 2])
        assert cert.order == [2, 0, 1]
        assert cert.adjusted_a_list[2] == 2
        assert cert.x_list[:2] == [1, 1]
        assert cert.partition[:2] == [[], []]
        assert verify_certificate(cert)[0]

    def test_non_splitting_rejected(self):
        with pytest.raises(NonSplittingError):
            decompose(BrauerClass2([(-1, -1)]), [2])

    def test_all_square_entries_nontrivial_rejected(self):
        with pytest.raises((NonSplittingError, ValueError)):
            decompose(BrauerClass2([(2, 3)]), [4, 9])

    def test_empty_a_list_rejected(self):
        with pytest.raises(ValueError):
            decompose(BrauerClass2([]), [])


class TestVerifyCertificate:
    def test_emitted_certificates_verify(self):
        cert = decompose(BrauerClass2([(6, 5)]), [2, 3])
        ok, reason = verify_certificate(cert)
        assert ok and reason == "ok"

    def test_tampered_witness_fails(self):
        cert = decompose(BrauerClass2([(2, 3)]), [2])
        bad = dataclasses.replace(cert, x_list=[cert.x_list[0] * 5])
        ok, reason = verify_certificate(bad)
        assert not ok
        assert "invariants" in reason

    def test_tampered_partition_fails(self):
        cert = decompose(BrauerClass2([(2, 3)]), [2])
        bad = dataclasses.replace(cert, partition=[[]])
        ok, _ = verify_certificate(bad)
        assert not ok

    def test_trivial_class_certificate(self):
        cert = decompose(BrauerClass2([(1, 7)]), [5])
        assert cert.x_list == [1]
        assert verify_certificate(cert)[0]
