import dataclasses
import random

import pytest

from masseybrauer.brauer_q import (
    HALF,
    BrauerClass2,
    Place,
    classes_equal,
    splits_in_multiquadratic,
)
from masseybrauer.lgp_decompose import (
    NonSplittingError,
    _is_perfect_square,
    decompose,
    decompose_biquadratic,
    find_v0,
    partition_support,
    realize_as_cup,
    verify_certificate,
)


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
