import ast
import math
import pickle
import random

import pytest

from masseybrauer import brauer_q, lgp_decompose
from masseybrauer.brauer_q import (
    HALF,
    REAL,
    BrauerClass2,
    FactorBoundExceeded,
    Place,
    QuaternionSymbol,
    classes_equal,
    factorize,
    hilbert_symbol,
    is_local_square,
    is_prime,
    ramified_places,
    reciprocity_holds,
    splits_in_multiquadratic,
)

from oracles import hilbert_oracle, is_square_oracle


class TestPlace:
    def test_parse_and_str(self):
        assert str(Place.parse("inf")) == "inf"
        assert str(Place.parse("17")) == "17"
        assert Place.parse("2") == Place.prime(2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            Place.prime(6)
        for text in ("4", "1", "0", "-3"):
            with pytest.raises(ValueError):
                Place.parse(text)

    def test_known_prime_place_equals_checked_place(self):
        for q in (2, 3, 5, 7, 1_000_003):
            v = brauer_q._prime_place(q)
            assert v == Place.prime(q) and hash(v) == hash(Place.prime(q))
            assert str(v) == str(q) and v.finite and REAL < v

    def test_ordering(self):
        places = [Place.prime(5), REAL, Place.prime(2)]
        assert [str(v) for v in sorted(places)] == ["inf", "2", "5"]

    def test_value_semantics(self):
        v = Place.prime(3)
        assert v == Place(True, 3) and v != Place.prime(5) and v != (True, 3)
        assert len({v, Place.prime(3), REAL, Place.real()}) == 2
        assert REAL <= v < Place.prime(5) and Place.prime(5) >= v > REAL
        assert pickle.loads(pickle.dumps(v)) == v
        assert repr(v) == "Place(finite=True, q=3)"
        for name in ("q", "finite"):
            with pytest.raises(AttributeError):
                setattr(v, name, 5)
            with pytest.raises(AttributeError):
                delattr(v, name)
        with pytest.raises(ValueError, match="carries no prime"):
            Place(False, 3)
        with pytest.raises(TypeError):
            REAL < 0  # noqa: B015


class TestQuaternionSymbol:
    def test_value_semantics(self):
        s = QuaternionSymbol(2, -3)
        assert s == QuaternionSymbol(2, -3) and s != QuaternionSymbol(-3, 2)
        assert hash(s) == hash(QuaternionSymbol(2, -3)) and s != (2, -3)
        assert pickle.loads(pickle.dumps(s)) == s
        assert repr(s) == "QuaternionSymbol(a=2, b=-3)"
        with pytest.raises(AttributeError):
            s.a = 5
        for a, b in ((0, 3), (3, 0)):
            with pytest.raises(ValueError, match="nonzero"):
                QuaternionSymbol(a, b)


class TestFactorize:
    def test_small(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(-7) == {7: 1}
        assert factorize(1) == {}

    def test_bound_exceeded(self):
        with pytest.raises(FactorBoundExceeded):
            factorize((10**9 + 7) * (10**9 + 9), bound=10**3)

    def test_bound_edges(self):
        # the factor 2 counts as trial division: below bound 2 nothing is divided
        assert factorize(2**40 * 3**5) == {2: 40, 3: 5}
        assert factorize(12, bound=2) == {2: 2, 3: 1}
        with pytest.raises(FactorBoundExceeded):
            factorize(4, bound=1)
        assert factorize(1000003 * 1000033, bound=1000003) == {1000003: 1, 1000033: 1}
        with pytest.raises(FactorBoundExceeded):
            factorize(1000003 * 1000033, bound=1000002)
        # key order: increasing primes, the unfactored prime last
        assert list(factorize(2 * 9 * 25 * 1000003)) == [2, 3, 5, 1000003]

    def test_matches_plain_trial_division(self):
        def reference(n, bound):
            n, out, d = abs(n), {}, 2
            while d * d <= n and d <= bound:
                while n % d == 0:
                    out[d] = out.get(d, 0) + 1
                    n //= d
                d += 1
            if n > 1:
                if n > bound * bound:
                    return None
                out[n] = 1
            return out

        rng = random.Random(6)
        numbers = list(range(1, 400)) + [rng.randint(1, 10**9) for _ in range(300)]
        for n in numbers:
            for bound in (1, 2, 3, 10, 10**6):
                try:
                    got = factorize(n, bound)
                except FactorBoundExceeded:
                    got = None
                want = reference(n, bound)
                assert got == want and list(got or ()) == list(want or ()), (n, bound)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _strong_probable_prime(n, b):
    """The Miller-Rabin test of odd n > 2 to the single base b."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(b, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestIsPrime:
    def test_agrees_with_trial_division_below_10_9(self):
        rng = random.Random(24)
        numbers = list(range(-3, 3000)) + [rng.randrange(10**9) for _ in range(1500)]
        # products of two primes above the trial-division range, which only
        # Miller-Rabin can tell apart from primes, and primes of that size
        primes = [q for q in range(1009, 31607, 2) if _is_prime_by_trial_division(q)]
        numbers += [rng.choice(primes) * rng.choice(primes) for _ in range(300)]
        numbers += [q for q in primes if q > 30000]
        numbers += [10**6 - 1, 10**6, 10**6 + 1, 10**6 + 3, 999983, 999983 * 1009]
        for n in numbers:
            assert is_prime(n) == _is_prime_by_trial_division(n), n

    @pytest.mark.parametrize(
        "n, bases",
        [
            (3215031751, (2, 3, 5, 7)),
            (2152302898747, (2, 3, 5, 7, 11)),
            (3474749660383, (2, 3, 5, 7, 11, 13)),
            (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
        ],
    )
    def test_strong_pseudoprimes(self, n, bases):
        # each fools Miller-Rabin to these bases, but not to all 13
        assert all(_strong_probable_prime(n, b) for b in bases)
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [561, 1105, 1729, 41041, 825265])
    def test_carmichael_numbers(self, n):
        assert all(pow(b, n - 1, n) == 1 for b in range(2, 50) if math.gcd(b, n) == 1)
        assert not is_prime(n)

    def test_large_prime(self):
        q = 1000000000000000003
        assert is_prime(q) and not is_prime(3 * q)
        assert not is_prime(1000003 * 1000033)  # no factor below 10^6
        assert Place.prime(q).q == q

    def test_beyond_the_deterministic_bound(self):
        limit = brauer_q._MILLER_RABIN_LIMIT
        # the limit itself is the least strong pseudoprime to all 13 bases
        assert all(_strong_probable_prime(limit, b) for b in brauer_q._MILLER_RABIN_BASES)
        assert limit == 1287836182261 * 2575672364521
        for n in (limit, 2**89 - 1):
            with pytest.raises(ValueError, match="deterministic primality bound"):
                is_prime(n)
        with pytest.raises(ValueError, match="deterministic primality bound"):
            Place.prime(2**89 - 1)
        # a factor found by trial division settles n at any size
        assert not is_prime(2**100) and not is_prime(3 * (2**89 - 1))


class TestHilbertSymbol:
    def test_one_splits_everywhere(self):
        for b in (2, -3, 15, -1):
            for v in (REAL, Place.prime(2), Place.prime(3), Place.prime(5)):
                assert hilbert_symbol(1, b, v) == 1

    def test_minus_one_minus_one_real(self):
        assert hilbert_symbol(-1, -1, REAL) == -1

    def test_2_3_table(self):
        c = BrauerClass2([(2, 3)])
        got = {str(v): hilbert_symbol(2, 3, v) for v in c.candidate_support()}
        assert got == {"inf": 1, "2": -1, "3": -1}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 3, REAL)

    def test_bimultiplicative(self):
        rng = random.Random(11)
        places = [REAL] + [Place.prime(q) for q in (2, 3, 5, 7, 13)]
        for _ in range(200):
            a = rng.choice([n for n in range(-30, 31) if n])
            a2 = rng.choice([n for n in range(-30, 31) if n])
            b = rng.choice([n for n in range(-30, 31) if n])
            v = rng.choice(places)
            assert hilbert_symbol(a * a2, b, v) == hilbert_symbol(
                a, b, v
            ) * hilbert_symbol(a2, b, v)

    def test_symmetry_and_norm_identity(self):
        rng = random.Random(5)
        places = [REAL] + [Place.prime(q) for q in (2, 3, 7, 11)]
        for _ in range(100):
            a = rng.choice([n for n in range(-25, 26) if n])
            b = rng.choice([n for n in range(-25, 26) if n])
            v = rng.choice(places)
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a, -a, v) == 1

    def test_against_solvability_oracle_sample(self):
        rng = random.Random(3)
        for _ in range(40):
            a = rng.choice([n for n in range(-20, 21) if n])
            b = rng.choice([n for n in range(-20, 21) if n])
            for v in BrauerClass2([(a, b)]).candidate_support():
                assert hilbert_symbol(a, b, v) == hilbert_oracle(a, b, v)

    def test_reciprocity_sample(self):
        rng = random.Random(9)
        for _ in range(100):
            a = rng.choice([n for n in range(-40, 41) if n])
            b = rng.choice([n for n in range(-40, 41) if n])
            assert reciprocity_holds(a, b)


class TestIsLocalSquare:
    def test_examples(self):
        assert not is_local_square(-1, REAL)
        assert is_local_square(2, Place.prime(7))  # 2 = 3^2 mod 7
        assert is_local_square(17, Place.prime(2))  # 17 = 1 mod 8
        assert not is_local_square(2, Place.prime(2))
        assert not is_local_square(12, Place.prime(3))
        assert is_local_square(9, Place.prime(5))

    def test_against_oracle(self):
        places = [REAL] + [Place.prime(q) for q in (2, 3, 5, 7, 11)]
        for a in [n for n in range(-30, 31) if n]:
            for v in places:
                assert is_local_square(a, v) == is_square_oracle(a, v)


def _oracle_ramified(a, b, places):
    return {v for v in places if hilbert_oracle(a, b, v) == -1}


class TestRamifiedPlaces:
    # the oracle enumerates residues mod q^4 at an odd prime q, about 0.1 s a
    # call at q = 37, so the exhaustive sweep stops where the primes reach 19
    SMALL = [n for n in range(-22, 23) if n]

    def test_every_small_pair_against_oracle(self):
        for a in self.SMALL:
            for b in self.SMALL:
                places = BrauerClass2([(a, b)]).candidate_support()
                assert ramified_places(a, b) == _oracle_ramified(a, b, places), (a, b)

    def test_sample_up_to_40_against_oracle(self):
        rng = random.Random(40)
        entries = [n for n in range(-40, 41) if n]
        pairs = [(rng.choice(entries), rng.choice(entries)) for _ in range(120)]
        for a, b in pairs + [(37, -29), (-31, 23), (-37, -37)]:
            places = BrauerClass2([(a, b)]).candidate_support()
            assert ramified_places(a, b) == _oracle_ramified(a, b, places), (a, b)

    def test_sums_sharing_primes_against_oracle(self):
        # entries built from 2, 3, 5, 7 and -1, so symbols share primes and
        # ramification cancels in pairs
        rng = random.Random(7)
        entries = [s * n for n in (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35) for s in (1, -1)]
        for _ in range(150):
            syms = [(rng.choice(entries), rng.choice(entries)) for _ in range(rng.randint(2, 4))]
            c = BrauerClass2(syms)
            want = []
            for v in c.candidate_support():
                sign = 1
                for a, b in syms:
                    sign *= hilbert_oracle(a, b, v)
                if sign == -1:
                    want.append(v)
            assert c.local_invariants() == dict.fromkeys(want, HALF), syms
            assert list(c.local_invariants()) == want  # in place order


class TestRamifiedFromValuations:
    """`brauer_q._ramified` reads the places from known factorizations; the
    oracle solves z^2 = a x^2 + b y^2 over each completion."""

    # valuation >= 2 at 2, 3 and 5, and entries that share primes
    ENTRIES = [s * n for n in (16 * 27, 8 * 9 * 5, 4, 9, 12, 18, 25 * 3, 50, 7, 21)
               for s in (1, -1)]

    @staticmethod
    def _oracle(a, b):
        places = BrauerClass2([(a, b)]).candidate_support()
        return {v.q for v in places if hilbert_oracle(a, b, v) == -1}

    def test_high_valuations_against_oracle(self):
        for a in self.ENTRIES:
            for b in self.ENTRIES:
                got = brauer_q._ramified(a, factorize(a), b, factorize(b))
                assert got == self._oracle(a, b), (a, b)

    def test_a_a_and_a_minus_a(self):
        for a in self.ENTRIES + [n for n in range(-22, 23) if n]:
            fa = factorize(a)
            assert brauer_q._ramified(a, fa, a, fa) == self._oracle(a, a), a
            # (a, -a) splits everywhere
            assert brauer_q._ramified(a, fa, -a, fa) == set() == self._oracle(a, -a), a

    def test_repeated_entries_across_symbols(self):
        # classes whose symbols repeat entries, so each entry is factored once
        # and reused
        rng = random.Random(14)
        for _ in range(60):
            pool = rng.sample(self.ENTRIES, 3)
            syms = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(2, 4))]
            c = BrauerClass2(syms)
            want = []
            for v in c.candidate_support():
                sign = 1
                for a, b in syms:
                    sign *= hilbert_oracle(a, b, v)
                if sign == -1:
                    want.append(v)
            assert c.local_invariants() == dict.fromkeys(want, HALF), syms

    def test_hilbert_symbol_agrees_with_ramified(self):
        for a in self.ENTRIES:
            for b in (-1, 2, -3, 5, 45, -128):
                ramified = brauer_q._ramified(a, factorize(a), b, factorize(b))
                for v in BrauerClass2([(a, b)]).candidate_support():
                    assert (hilbert_symbol(a, b, v) == -1) == (v.q in ramified), (a, b, v)

    def test_factor_bound_propagates(self):
        huge = 1000003 * 1000033
        with pytest.raises(FactorBoundExceeded):
            BrauerClass2([(2, 3), (huge, 5)]).local_invariants()
        with pytest.raises(FactorBoundExceeded):
            ramified_places(huge, -1)


class TestColumnMasks:
    """`brauer_q._column_masks` reads the columns of `realize_as_cup` off one
    table of a's local data; each must equal `_ramified` over P = {inf} + pool
    encoded as a bitmask."""

    ODD = [q for q in range(3, 60) if is_prime(q)]

    @staticmethod
    def _encoded(a, fa, b, pool):
        fb = {abs(b): 1} if abs(b) > 1 else {}
        index = {q: j for j, q in enumerate([0] + pool)}
        return sum(1 << index[q] for q in brauer_q._ramified(a, fa, b, fb, pool))

    def _entries(self, rng):
        # valuations 0..3 at 2 and 1..3 at the odd primes of a, both signs
        for _ in range(150):
            a = rng.choice((1, -1)) * 2 ** rng.randint(0, 3)
            for q in rng.sample(self.ODD, rng.randint(0, 4)):
                a *= q ** rng.randint(1, 3)
            yield a

    def test_columns_and_auxiliaries_match_ramified(self):
        rng = random.Random(25)
        parities = set()
        for a in self._entries(rng):
            fa = factorize(a)
            wanted = rng.sample([2] + self.ODD, rng.randint(0, 3))
            pool = sorted({2, *fa, *wanted})
            if rng.random() < 0.2 and 2 not in fa:
                pool.remove(2)  # a pool without 2 has no 2-adic bit
            column = brauer_q._column_masks(a, fa, pool)
            auxiliary = [w for w in range(3, 200, 2) if is_prime(w) and w not in pool]
            for b in [-1, 1] + pool + auxiliary:
                assert column(b) == self._encoded(a, fa, b, pool), (a, pool, b)
            parities.update((q, v % 2, v > 1) for q, v in fa.items() if q in (2, 3))
        # the draw reaches both parities of the valuation, above 1 too, at 2
        # and at an odd prime
        assert {(2, 0, True), (2, 1, True), (3, 0, True), (3, 1, True)} <= parities


class TestNumpyFree:
    @pytest.mark.parametrize("module", [brauer_q, lgp_decompose], ids=lambda m: m.__name__)
    def test_no_linear_algebra_imports(self, module):
        with open(module.__file__) as f:
            tree = ast.parse(f.read())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
                if node.module is None:  # from . import x
                    names.update(alias.name for alias in node.names)
        parts = {part for name in names for part in name.split(".")}
        assert not parts & {"numpy", "fp_linalg", "_kernels"}


class TestBrauerClass:
    def test_empty_class(self):
        assert BrauerClass2([]).local_invariants() == {}
        assert BrauerClass2([]).is_trivial()

    def test_split_symbol(self):
        assert BrauerClass2([(1, 5)]).local_invariants() == {}

    def test_2_3_invariants(self):
        inv = BrauerClass2([(2, 3)]).local_invariants()
        assert inv == {Place.prime(2): HALF, Place.prime(3): HALF}

    def test_classes_equal(self):
        assert classes_equal(BrauerClass2([]), BrauerClass2([(1, 7)]))
        assert classes_equal(BrauerClass2([(6, 5)]), BrauerClass2([(2, 5), (3, 5)]))
        assert not classes_equal(BrauerClass2([(2, 3)]), BrauerClass2([]))

    def test_addition(self):
        a = BrauerClass2([(2, 3)])
        twice = a + a
        assert twice.is_trivial()

    def test_reciprocity_of_invariants(self):
        rng = random.Random(1)
        for _ in range(50):
            syms = [
                (rng.choice([n for n in range(-30, 31) if n]),
                 rng.choice([n for n in range(-30, 31) if n]))
                for _ in range(rng.randint(0, 3))
            ]
            inv = BrauerClass2(syms).local_invariants()
            assert len(inv) % 2 == 0  # sum of invariants is 0 in (1/2)Z/Z


class TestSplitsInMultiquadratic:
    def test_trivial_class(self):
        assert splits_in_multiquadratic(BrauerClass2([]), [10])

    def test_2_3_splits_over_sqrt2(self):
        assert splits_in_multiquadratic(BrauerClass2([(2, 3)]), [2])

    def test_minus1_minus1_not_over_sqrt2(self):
        assert not splits_in_multiquadratic(BrauerClass2([(-1, -1)]), [2])

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            splits_in_multiquadratic(BrauerClass2([]), [0])
