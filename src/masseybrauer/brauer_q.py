"""Exact 2-torsion local arithmetic over Q: Hilbert symbols, local
invariants of sums of quaternion symbols, and multiquadratic splitting.

A class is a formal sum of symbols (a, b) with nonzero integer entries; it
is identified with its finite table of local invariants (values in {0, 1/2}),
which determines it globally by Albert-Brauer-Hasse-Noether injectivity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Iterable

HALF = Fraction(1, 2)

DEFAULT_FACTOR_BOUND = 10**6
# the largest auxiliary prime `lgp_decompose` tries (the CLI's default)
DEFAULT_AUX_PRIME_BOUND = 10**6


class FactorBoundExceeded(ValueError):
    """Trial division hit the configured bound without finishing."""


def _read_only(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


@total_ordering
class Place:
    """A place of Q: the real place or a finite prime.  Immutable, and
    ordered real place first, then primes in order.  (A plain class: the
    `dataclasses` module imports `inspect`, which the CLI's start cannot
    afford.)"""

    __slots__ = ("finite", "q")  # q is 0 for the real place
    __setattr__ = __delattr__ = _read_only

    def __init__(self, finite: bool, q: int):
        if finite:
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
        elif q != 0:
            raise ValueError("the real place carries no prime")
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "q", q)

    def __eq__(self, other):
        if other.__class__ is not Place:
            return NotImplemented
        return self.finite == other.finite and self.q == other.q

    def __lt__(self, other):
        if other.__class__ is not Place:
            return NotImplemented
        return (self.finite, self.q) < (other.finite, other.q)

    def __hash__(self):
        return hash((self.finite, self.q))

    def __reduce__(self):
        return Place, (self.finite, self.q)

    def __repr__(self):
        return f"Place(finite={self.finite!r}, q={self.q!r})"

    @classmethod
    def real(cls) -> "Place":
        return cls(False, 0)

    @classmethod
    def prime(cls, q: int) -> "Place":
        return cls(True, q)

    def __str__(self):
        return "inf" if not self.finite else str(self.q)

    @classmethod
    def parse(cls, text: str) -> "Place":
        if text in ("inf", "oo", "real"):
            return cls.real()
        return cls.prime(int(text))


REAL = Place.real()


def _prime_place(q: int) -> Place:
    """`Place.prime(q)` for a q already known to be prime (a factor that
    `factorize` returned, or a number `is_prime` accepted), without trial
    dividing it again."""
    place = object.__new__(Place)
    object.__setattr__(place, "finite", True)
    object.__setattr__(place, "q", q)
    return place


# `is_prime` trial-divides by the odd d with d^2 <= _TRIAL_LIMIT, which settles
# every n below it; Miller-Rabin to the first 13 prime bases settles the rest
# below _MILLER_RABIN_LIMIT (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017): the least strong pseudoprime to
# all 13 bases is that limit)
_TRIAL_LIMIT = 10**6
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n below 3.3 * 10^24, and for any n with a factor
    up to 1000; any other n raises ValueError rather than guess."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    top = n if n < _TRIAL_LIMIT else _TRIAL_LIMIT
    d = 3
    while d * d <= top:
        if n % d == 0:
            return False
        d += 2
    if n < _TRIAL_LIMIT:
        return True
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(
            f"{n} is beyond the deterministic primality bound {_MILLER_RABIN_LIMIT}"
        )
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s t with t odd
    t = (n - 1) >> s
    for b in _MILLER_RABIN_BASES:
        x = pow(b, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    return True


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Prime factorization of |n| by trial division up to `bound`."""
    if n == 0:
        raise ValueError("zero has no factorization")
    n = abs(n)
    out: dict[int, int] = {}
    if n % 2 == 0 and bound >= 2:
        v = (n & -n).bit_length() - 1  # the power of 2 dividing n
        out[2] = v
        n >>= v
    d = 3
    while d * d <= n and d <= bound:
        if n % d:
            # step over the odd numbers to the next divisor in one loop
            for d in range(d + 2, min(bound, math.isqrt(n)) + 1, 2):
                if n % d == 0:
                    break
            else:
                break
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        out[d] = e
        d += 2
    if n > 1:
        if n > bound * bound:
            raise FactorBoundExceeded(
                f"unfactored part {n} exceeds trial-division bound {bound}"
            )
        out[n] = out.get(n, 0) + 1
    return out


def _factorization(n: int, factors: dict[int, dict[int, int]]) -> dict[int, int]:
    """The factorization of |n| from the table `factors` (keyed by |n|),
    entered there by `factorize` on a miss.  Every entry of a table must be
    a proved factorization: `factorize`'s, or one checked as in
    `lgp_decompose.realize_as_cup`."""
    key = abs(n)
    f = factors.get(key)
    if f is None:
        f = factors[key] = factorize(key)
    return f


def _val_unit(n: int, q: int) -> tuple[int, int]:
    """(v, u) with n = q^v * u and q does not divide u."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v, n


def _legendre(u: int, q: int) -> int:
    """Legendre symbol of a unit u mod an odd prime q, as +-1."""
    r = pow(u % q, (q - 1) // 2, q)
    return 1 if r == 1 else -1


def _ramified(
    a: int,
    fa: dict[int, int],
    b: int,
    fb: dict[int, int],
    primes: Iterable[int] | None = None,
) -> set[int]:
    """The places where (a, b) ramifies, as ints: 0 for the real place, else
    the prime.  fa and fb map primes to the valuations of a and b (a prime
    missing from one is a unit there).  The primes evaluated are `primes`, by
    default 2 and the keys of fa and fb: with fa and fb the factorizations of
    a and b these are the only finite candidates, since at any other prime
    both entries are units.  The classical residue formulas."""
    out = {0} if a < 0 and b < 0 else set()
    for q in {2, *fa, *fb} if primes is None else primes:
        alpha = fa.get(q, 0)
        beta = fb.get(q, 0)
        if q == 2:
            u, w = a >> alpha, b >> beta  # exact: 2^alpha divides a
            eps_u = ((u - 1) // 2) % 2
            eps_w = ((w - 1) // 2) % 2
            om_u = ((u * u - 1) // 8) % 2
            om_w = ((w * w - 1) // 8) % 2
            e = eps_u * eps_w + alpha * om_w + beta * om_u
        else:
            # alpha beta (q - 1)/2, plus beta times the Legendre bit of the
            # unit of a, plus alpha times that of the unit of b
            half = (q - 1) // 2
            e = alpha * beta * half
            if beta % 2:
                e += pow(a // q**alpha % q, half, q) != 1
            if alpha % 2:
                e += pow(b // q**beta % q, half, q) != 1
        if e % 2:
            out.add(q)
    return out


def _place(q: int) -> Place:
    """The place an int of `_ramified` stands for."""
    return REAL if q == 0 else _prime_place(q)


def hilbert_symbol(a: int, b: int, place: Place) -> int:
    """The Hilbert symbol (a, b)_v as +-1.

    +1 exactly when z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion at v; computed by the classical residue formulas.
    """
    if a == 0 or b == 0:
        raise ValueError("symbol entries must be nonzero")
    if not place.finite:  # _ramified always evaluates the real place
        return -1 if 0 in _ramified(a, {}, b, {}, ()) else 1
    q = place.q
    fa, fb = {q: _val_unit(a, q)[0]}, {q: _val_unit(b, q)[0]}
    return -1 if q in _ramified(a, fa, b, fb, (q,)) else 1


def is_local_square(a: int, place: Place) -> bool:
    """True iff a is a square in the completion at the place."""
    if a == 0:
        raise ValueError("zero is not a unit of any completion")
    if not place.finite:
        return a > 0
    q = place.q
    v, u = _val_unit(a, q)
    if v % 2:
        return False
    if q == 2:
        return u % 8 == 1
    return _legendre(u, q) == 1


def ramified_places(a: int, b: int) -> set[Place]:
    """The places v with (a, b)_v = -1."""
    return {_place(q) for q in _ramified(a, factorize(a), b, factorize(b))}


class QuaternionSymbol:
    """The symbol (a, b), a and b nonzero; immutable, equal by its entries."""

    __slots__ = ("a", "b")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, a: int, b: int):
        if a == 0 or b == 0:
            raise ValueError("symbol entries must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        if other.__class__ is not QuaternionSymbol:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __reduce__(self):
        return QuaternionSymbol, (self.a, self.b)

    def __repr__(self):
        return f"QuaternionSymbol(a={self.a!r}, b={self.b!r})"


class BrauerClass2:
    """A 2-torsion Brauer class over Q as a formal sum of quaternion symbols."""

    def __init__(self, symbols: Iterable[QuaternionSymbol | tuple[int, int]]):
        syms = []
        for s in symbols:
            if not isinstance(s, QuaternionSymbol):
                s = QuaternionSymbol(int(s[0]), int(s[1]))
            syms.append(s)
        self.symbols: tuple[QuaternionSymbol, ...] = tuple(syms)
        self._invariants: dict[Place, Fraction] | None = None

    def candidate_support(self) -> list[Place]:
        """{infinity, 2} plus the odd primes dividing some symbol entry."""
        primes = {2}
        for s in self.symbols:
            for n in (s.a, s.b):
                primes.update(factorize(n))
        return [REAL] + [_prime_place(q) for q in sorted(primes)]

    def local_invariants(self) -> dict[Place, Fraction]:
        """Map from places to nonzero invariants (each 1/2), in place order;
        empty for the trivial class.  A place carries 1/2 iff an odd number
        of the symbols ramify there.  Computed once per class, with a fresh
        factor table: each distinct |entry| is factored once.
        (`lgp_decompose.decompose` does not call this: it derives the same
        places with `_odd_places` on the table it shares across its
        stages.)"""
        if self._invariants is None:
            places = _odd_places(self.symbols, {})
            self._invariants = {_place(q): HALF for q in sorted(places)}
        return dict(self._invariants)

    def support(self) -> list[Place]:
        return sorted(self.local_invariants())

    def is_trivial(self) -> bool:
        return not self.local_invariants()

    def __add__(self, other: "BrauerClass2") -> "BrauerClass2":
        return BrauerClass2(self.symbols + other.symbols)

    def __repr__(self):
        return f"BrauerClass2({[(s.a, s.b) for s in self.symbols]})"


def _odd_places(
    symbols: Iterable[QuaternionSymbol], factors: dict[int, dict[int, int]]
) -> set[int]:
    """The places, as ints (0 for the real place), where an odd number of the
    symbols ramify: the support of their sum.  Factorizations are read from
    and entered in `factors` (see `_factorization`)."""
    places: set[int] = set()
    for s in symbols:
        a, b = s.a, s.b
        places ^= _ramified(a, _factorization(a, factors), b, _factorization(b, factors))
    return places


def local_invariants(c: BrauerClass2) -> dict[Place, Fraction]:
    return c.local_invariants()


def classes_equal(c1: BrauerClass2, c2: BrauerClass2) -> bool:
    """Equality in the Brauer group: all local invariants agree."""
    return c1.local_invariants() == c2.local_invariants()


def splits_in_multiquadratic(c: BrauerClass2, a_list: Iterable[int]) -> bool:
    """True iff the class dies over Q(sqrt(a_1), ..., sqrt(a_r)): at every
    place carrying invariant 1/2, some a_i is a local nonsquare (so every
    completion of the field upstairs has even degree and kills the
    invariant)."""
    a_list = _square_roots(a_list)
    return _splits_at(c.support(), a_list)


def _square_roots(a_list: Iterable[int]) -> list[int]:
    """a_list as a list, refusing zero: the radicands of a multiquadratic
    field."""
    a_list = list(a_list)
    if any(a == 0 for a in a_list):
        raise ValueError("square roots of zero not allowed")
    return a_list


def _splits_at(support: Iterable[Place], a_list: list[int]) -> bool:
    """True iff at every place of `support` some a_i is a local nonsquare."""
    return all(any(not is_local_square(a, v) for a in a_list) for v in support)


def reciprocity_holds(a: int, b: int) -> bool:
    """Product of (a,b)_v over the candidate support equals +1."""
    return len(ramified_places(a, b)) % 2 == 0
