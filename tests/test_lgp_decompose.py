import dataclasses
import hashlib
import json
import math
import pickle
import random
import subprocess
import sys

import pytest

from masseybrauer import brauer_q, lgp_decompose
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
        # an unfactorable entry of the class itself
        with pytest.raises(FactorBoundExceeded):
            decompose(BrauerClass2([(2, a)]), [2, 3])


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


def _golden_cert():
    # the certificate README.md shows for (6, 5) over Q(sqrt 2, sqrt 3)
    cert = decompose(BrauerClass2([(6, 5)]), [2, 3])
    assert (cert.x_list, str(cert.v0), cert.adjusted_a_list) == ([3, 1], "5", [2, 3])
    return cert


class TestForgedStageRecords:
    """Every stage record is checked, not only the final class equality: each
    forgery below keeps the output class right and is still rejected."""

    @pytest.mark.parametrize("order", [[], [0, 1]])
    def test_honest_certificate_ok(self, order):
        cert = dataclasses.replace(_golden_cert(), order=order)
        assert verify_certificate(cert) == (True, "ok")

    def test_short_adjusted_list_and_partition(self):
        # zip would stop at the shorter list and skip entry 2
        bad = dataclasses.replace(_golden_cert(), adjusted_a_list=[2],
                                  partition=[[Place.prime(2), Place.prime(3)]])
        assert verify_certificate(bad) == (False, "partition has 1 entries, a_list 2")
        bad = dataclasses.replace(_golden_cert(), adjusted_a_list=[2])
        assert verify_certificate(bad) == (False, "adjusted_a_list has 1 entries, a_list 2")

    def test_extra_parity(self):
        bad = dataclasses.replace(_golden_cert(), t_parities=[0, 0, 1])
        assert verify_certificate(bad) == (False, "t_parities has 3 entries, a_list 2")

    def test_adjusted_entry_not_from_a_list(self):
        bad = dataclasses.replace(_golden_cert(), adjusted_a_list=[5, 3])
        assert verify_certificate(bad) == (
            False, "adjusted leading entry 5 is not a_lead = 2")
        bad = dataclasses.replace(_golden_cert(), adjusted_a_list=[2, 15])
        assert verify_certificate(bad) == (
            False, "adjusted entry 15 is neither 3 nor a_lead * 3")

    def test_v0_inside_support(self):
        bad = dataclasses.replace(_golden_cert(), v0=Place.prime(3))
        assert verify_certificate(bad) == (False, "v0 = 3 lies in the support")

    def test_v0_rules(self):
        cert = _golden_cert()
        for v0, reason in [
            (REAL, "v0 = inf is not an odd prime"),
            (Place.prime(7), "2 is a local square at v0 = 7"),  # 2 = 3^2 mod 7
        ]:
            assert verify_certificate(dataclasses.replace(cert, v0=v0)) == (False, reason)
        # v0 must be coprime to every entry, also one whose target is empty
        cert = decompose(BrauerClass2([(2, 3)]), [2, 5])
        assert verify_certificate(cert) == (True, "ok") and cert.v0 == Place.prime(11)
        bad = dataclasses.replace(cert, v0=Place.prime(5))
        assert verify_certificate(bad) == (False, "v0 = 5 divides an entry")

    def test_missing_stage_records(self):
        for changes in ({"v0": None}, {"adjusted_a_list": None}):
            bad = dataclasses.replace(_golden_cert(), **changes)
            assert verify_certificate(bad) == (
                False, "v0 or adjusted_a_list missing for a nontrivial class")

    def test_order_not_a_permutation(self):
        for order in ([0, 0], [0], [1, 2]):
            bad = dataclasses.replace(_golden_cert(), order=order)
            assert verify_certificate(bad) == (
                False, "order is not a permutation of the entries")

    def test_reordered_lead(self):
        # a_lead is a_list[order[0]] = 2 when recorded; a'_1 = 8 is a_lead * 4
        cert = decompose(BrauerClass2([(2, 3)]), [4, 2])
        assert cert.order == [1, 0] and cert.adjusted_a_list == [8, 2]
        assert verify_certificate(cert) == (True, "ok")
        bad = dataclasses.replace(cert, adjusted_a_list=[12, 2])
        assert verify_certificate(bad) == (False, "adjusted entry 12 is neither 4 nor a_lead * 4")
        bad = dataclasses.replace(cert, order=[0, 1])
        assert verify_certificate(bad) == (False, "adjusted leading entry 8 is not a_lead = 4")


ODD_PRIMES_BELOW_100 = [q for q in range(3, 100) if is_prime(q)]
# share of classes whose a_1 has K odd primes, K = 1..8
PRIME_COUNT_MIX = [36, 34, 30, 26, 22, 20, 16, 16]


def _q_catalogue(seed):
    """Classes sum (a_i, x_i), r = 1, 2, 3, built as the q-decompose benchmark
    builds its catalogue: signed squarefree entries, even half of the time,
    a_1 with K odd primes below 100 and the other entries with 1 or 2."""
    rng = random.Random(seed)

    def entry(k):
        n = 1
        for q in rng.sample(ODD_PRIMES_BELOW_100, k):
            n *= q
        return n * rng.choice((1, 2)) * rng.choice((1, -1))

    out = []
    for k, count in enumerate(PRIME_COUNT_MIX, start=1):
        for j in range(count):
            r = 1 + j % 3
            a = [entry(k)] + [entry(rng.randint(1, 2)) for _ in range(r - 1)]
            x = [entry(rng.randint(1, 2)) for _ in range(r)]
            out.append((list(zip(a, x)), a))
    return out


class TestCatalogueDigest:
    def test_full_certificates_pinned(self):
        # every field of 200 certificates, x_list included, hashed; the
        # digest was taken from the per-symbol Hilbert-symbol implementation
        # this one replaced
        records = []
        for symbols, a_list in _q_catalogue(2014):
            cert = decompose(BrauerClass2(symbols), a_list)
            assert verify_certificate(cert) == (True, "ok")
            records.append([
                cert.symbols, cert.a_list, cert.x_list, str(cert.v0), cert.adjusted_a_list,
                [[str(v) for v in part] for part in cert.partition], cert.t_parities,
                cert.order,
            ])
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "df33f971443c9e05f2a9b7aa2803c66283de6217837928d73f9bc893698b4614"


def _fresh_prime(a):
    """The least prime q > 100 at which a is a local nonsquare: (a, q)
    ramifies at q, and no catalogue entry has q as a factor."""
    return next(q for q in range(101, 10**4, 2)
                if is_prime(q) and not is_local_square(a, Place.prime(q)))


# the golden class, and catalogue classes whose decomposition calls
# realize_as_cup at least once
_MUTATED_CASES = [([(6, 5)], [2, 3])] + [
    (symbols, a_list) for symbols, a_list in _q_catalogue(11)[::10]
    if not BrauerClass2(symbols).is_trivial()
]
_INVALID = r"^internal error: emitted certificate invalid \("


class TestSharedCheck:
    """`decompose` checks its certificate with `verify_certificate`'s body on
    the invariants and factor table it built itself.  Each mutation below
    breaks one input of that check, and the check must catch it."""

    @pytest.mark.parametrize("symbols, a_list", _MUTATED_CASES)
    def test_x_times_a_fresh_prime_rejected(self, monkeypatch, symbols, a_list):
        # the first x that realize_as_cup returns is multiplied by a fresh
        # prime q: the output class gains (a, q), which ramifies at q alone
        # among the places of the input
        realize = lgp_decompose.realize_as_cup
        calls = []

        def first_times_q(target, a, bound, factors):
            x = realize(target, a, bound, factors)
            calls.append(a)
            return x * _fresh_prime(a) if len(calls) == 1 else x

        monkeypatch.setattr(lgp_decompose, "realize_as_cup", first_times_q)
        with pytest.raises(RuntimeError, match=_INVALID):
            decompose(BrauerClass2(symbols), a_list)
        assert calls

    @pytest.mark.parametrize("symbols, a_list", _MUTATED_CASES)
    def test_wrong_factorization_in_the_table_rejected(self, monkeypatch, symbols, a_list):
        # the x_i are right, but the table claims that the largest is a
        # fresh prime q
        check = lgp_decompose._check

        def misfactored(cert, factors, places):
            i = max(range(len(cert.x_list)), key=lambda i: abs(cert.x_list[i]))
            factors[abs(cert.x_list[i])] = {_fresh_prime(cert.a_list[i]): 1}
            return check(cert, factors, places)

        monkeypatch.setattr(lgp_decompose, "_check", misfactored)
        with pytest.raises(RuntimeError, match=_INVALID):
            decompose(BrauerClass2(symbols), a_list)

    def test_composite_key_in_the_table_rejected(self, monkeypatch):
        # a composite x_i claimed prime: the product of the claim is right
        check = lgp_decompose._check
        tested = 0
        for symbols, a_list in _q_catalogue(11):
            cert = decompose(BrauerClass2(symbols), a_list)
            composite = [x for x in cert.x_list if abs(x) > 1 and not is_prime(abs(x))]
            if not composite:
                continue

            def misfactored(cert, factors, places, x=composite[0]):
                factors[abs(x)] = {abs(x): 1}
                return check(cert, factors, places)

            with monkeypatch.context() as patch:
                patch.setattr(lgp_decompose, "_check", misfactored)
                with pytest.raises(RuntimeError, match=_INVALID):
                    decompose(BrauerClass2(symbols), a_list)
            tested += 1
        assert tested > 20

    @pytest.mark.parametrize("symbols, a_list", _MUTATED_CASES)
    def test_altered_input_invariants_rejected(self, monkeypatch, symbols, a_list):
        check = lgp_decompose._check

        def altered(cert, factors, places):
            return check(cert, factors, places ^ {0})  # the real place toggled

        monkeypatch.setattr(lgp_decompose, "_check", altered)
        with pytest.raises(RuntimeError, match=_INVALID):
            decompose(BrauerClass2(symbols), a_list)

    def test_unpatched_cases_decompose(self):
        for symbols, a_list in _MUTATED_CASES:
            assert verify_certificate(decompose(BrauerClass2(symbols), a_list)) == (True, "ok")


_VERDICTS = """
import pickle, sys
from masseybrauer.lgp_decompose import verify_certificate
print(repr([verify_certificate(cert) for cert in pickle.load(sys.stdin.buffer)]))
"""


class TestVerifyFromScratch:
    def _certificates(self):
        certs = []
        for symbols, a_list in _q_catalogue(5)[::5]:
            cert = decompose(BrauerClass2(symbols), a_list)
            certs += [
                cert,
                dataclasses.replace(cert, x_list=[-x for x in cert.x_list]),
                dataclasses.replace(cert, t_parities=[1 - t for t in cert.t_parities]),
            ]
        return certs

    def test_each_distinct_entry_factored_once(self, monkeypatch):
        certs = self._certificates()
        factorize = brauer_q.factorize
        calls = []

        def counted(n, *args):
            calls.append(abs(n))
            return factorize(n, *args)

        monkeypatch.setattr(brauer_q, "factorize", counted)
        for i, cert in enumerate(certs):
            calls.clear()
            ok, _ = verify_certificate(cert)
            assert len(calls) == len(set(calls))
            entries = {abs(n) for pair in cert.symbols for n in pair}
            entries |= {abs(n) for n in cert.a_list + cert.x_list}
            assert set(calls) <= entries
            if ok:
                # the whole check ran: every entry factored, none taken from
                # an earlier call
                assert set(calls) == entries
            assert ok or i % 3  # the honest certificates verify

    def test_verdicts_independent_of_earlier_decompositions(self):
        # verdicts in this process, after many decompositions, equal those
        # of a fresh interpreter that has decomposed nothing
        certs = self._certificates()
        here = [verify_certificate(cert) for cert in certs]
        fresh = subprocess.run(
            [sys.executable, "-c", _VERDICTS], input=pickle.dumps(certs),
            capture_output=True, check=True,
        )
        assert repr(here) == fresh.stdout.decode().strip()
        assert {ok for ok, _ in here} == {True, False}
