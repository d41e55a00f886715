"""Constructive decomposition of 2-torsion Brauer classes over Q split by a
multiquadratic extension: given a class c and a_1..a_r with c dying over
Q(sqrt(a_1), ..., sqrt(a_r)), produce x_1..x_r with c = sum (a_i, x_i),
together with a re-checkable certificate of every pipeline stage.

Pipeline: support of c -> auxiliary place v0 (smallest usable odd prime)
-> entry adjustment a_i vs a_1 a_i -> partition of the support -> per-entry
invariant targets (balanced at v0 so each target has even size) -> exact
realization of each target as a single symbol (a_i, x_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .brauer_q import (
    DEFAULT_AUX_PRIME_BOUND,
    HALF,
    BrauerClass2,
    Place,
    _factorization,
    _odd_places,
    _place,
    _prime_place,
    _ramified,
    _splits_at,
    _square_roots,
    is_local_square,
    is_prime,
)


class SearchBoundExceeded(RuntimeError):
    """The configured search bound was exhausted before a witness was found."""


class NonSplittingError(ValueError):
    """The class does not split in the requested multiquadratic extension."""


def _is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _lead_index(a_list: list[int]) -> int | None:
    """The entry `decompose` leads with: the first that is not a global square."""
    return next((i for i, a in enumerate(a_list) if not _is_perfect_square(a)), None)


def _odd_primes(limit: int):
    return (n for n in range(3, limit + 1, 2) if is_prime(n))


def find_v0(
    s_places: Iterable[Place], a_list: list[int], bound: int = DEFAULT_AUX_PRIME_BOUND
) -> tuple[Place, list[int]]:
    """Smallest odd prime q outside S, coprime to every a_i, with a_1 a local
    nonsquare at q; also returns the adjusted list (a_1, a'_2, ..., a'_r)
    where a'_i is a_i or a_1 a_i, whichever is a nonsquare at q."""
    if not a_list:
        raise ValueError("need at least one entry")
    a1 = a_list[0]
    if _is_perfect_square(a1):
        raise ValueError(f"{a1} is a global square")
    s_set = {v.q for v in s_places}  # places as ints: 0 is the real place
    for q in _odd_primes(bound):
        if q in s_set or any(a % q == 0 for a in a_list):
            continue
        v = _prime_place(q)
        if is_local_square(a1, v):
            continue
        adjusted = [a1]
        for a in a_list[1:]:
            adjusted.append(a if not is_local_square(a, v) else a1 * a)
        return v, adjusted
    raise SearchBoundExceeded(f"no usable auxiliary prime below {bound}")


def partition_support(
    s_places: Iterable[Place], a_list: list[int]
) -> list[list[Place]]:
    """Assign each support place to the smallest index whose entry is a local
    nonsquare there; error if some place is missed (the class then cannot
    split in the multiquadratic extension)."""
    parts: list[list[Place]] = [[] for _ in a_list]
    for v in sorted(s_places):
        for i, a in enumerate(a_list):
            if not is_local_square(a, v):
                parts[i].append(v)
                break
        else:
            raise NonSplittingError(
                f"every entry is a square at {v}; class does not split"
            )
    return parts


def realize_as_cup(
    target: dict[Place, Fraction],
    a: int,
    aux_prime_bound: int = DEFAULT_AUX_PRIME_BOUND,
    factors: dict[int, dict[int, int]] | None = None,
) -> int:
    """An integer x with local invariants of (a, x) equal to `target` exactly.

    x is the first hit of the scan over sign * d * w: w = 1, then the primes
    up to `aux_prime_bound` outside the pool (2, the odd primes of a and of
    the target); for each w, d runs over the divisors of the product of the
    pool in increasing order, + before -.  The scan is not enumerated: the
    Hilbert symbol is bimultiplicative, so on the places P = {inf} + pool the
    invariants of (a, sign * d * w) are the F_2 sum of the bitmasks of
    (a, -1), (a, q) for q | d and (a, w).  At w they vanish iff a is a square
    mod w, and at every other place they vanish.  One elimination of the
    |pool| + 1 columns serves every w; each w then costs one solve, and the
    least solution under (d, sign) is picked from the coset c0 + kernel.  The
    chosen x is checked once by re-evaluating (a, x) at every place where it
    can ramify, from the factorization of x that the solve produced.

    `factors` is a factor table keyed by |n| (a fresh one when omitted):
    a's factorization is read from it, or factored and entered, and x's is
    entered once proved.  That proof is the product of its keys equal to |x|,
    with every key prime: 2, a prime of a, a target place, or an auxiliary w
    that `is_prime` accepted.  `decompose` passes its per-call table, so the
    fold of x into the leading target and the final check reuse x's
    factorization instead of factoring x again.
    """
    target = {v: f for v, f in target.items() if f}
    if any(f != HALF for f in target.values()):
        raise ValueError("invariants must be 0 or 1/2")
    if len(target) % 2:
        raise ValueError("odd number of ramified places violates reciprocity")
    for v in target:
        if is_local_square(a, v):
            raise NonSplittingError(
                f"{a} is a local square at {v}; (a, x) cannot ramify there"
            )
    if not target:
        return 1

    if factors is None:
        factors = {}
    fa = _factorization(a, factors)
    wanted = {v.q for v in target}  # places as ints: 0 is the real place
    pool = sorted({2, *fa, *wanted} - {0})
    index = {q: i for i, q in enumerate([0] + pool)}

    def mask(b: int, fb: dict[int, int]) -> int:
        # bit index[q] set iff (a, b) ramifies at the place q of P; fb is the
        # factorization of b
        return sum(1 << index[q] for q in _ramified(a, fa, b, fb, pool))

    # column 0 is the sign -1, column j >= 1 the pool prime pool[j - 1]; a
    # combination c is a bitmask over columns.  basis holds (pivot, value,
    # combination) with distinct pivots, highest first.
    basis: list[tuple[int, int, int]] = []
    kernel: list[int] = []

    def reduce(value: int, comb: int) -> tuple[int, int]:
        for pivot, bvalue, bcomb in basis:
            if value >> pivot & 1:
                value ^= bvalue
                comb ^= bcomb
        return value, comb

    for j, (b, fb) in enumerate([(-1, {})] + [(q, {q: 1}) for q in pool]):
        value, comb = reduce(mask(b, fb), 1 << j)
        if value:
            basis.append((value.bit_length() - 1, value, comb))
            basis.sort(reverse=True)
        else:
            kernel.append(comb)

    def key(comb: int) -> tuple[int, int]:
        d = math.prod(q for j, q in enumerate(pool, 1) if comb >> j & 1)
        return d, comb & 1

    t = sum(1 << index[q] for q in wanted)

    def auxiliary():
        yield 1
        for w in _odd_primes(aux_prime_bound):
            if w not in index and is_local_square(a, _prime_place(w)):
                yield w

    for w in auxiliary():
        fw = {w: 1} if w > 1 else {}
        rest, c0 = reduce(t ^ mask(w, fw), 0)
        if rest:
            continue
        coset = [c0]
        for k in kernel:
            coset += [c ^ k for c in coset]
        d, negative = key(min(coset, key=key))
        x = (-1 if negative else 1) * d * w
        # every key of fx is prime, so fx is the factorization of x once its
        # product is |x|
        fx = {q: 1 for q in pool if d % q == 0} | fw
        if math.prod(fx) != abs(x) or _ramified(a, fa, x, fx) != wanted:
            raise RuntimeError(f"internal error: ({a}, {x}) misses its target")
        factors[abs(x)] = fx
        return x
    raise SearchBoundExceeded(
        f"no x found with auxiliary primes below {aux_prime_bound}"
    )


@dataclass
class DecompositionCertificate:
    """Full audit trail of one decomposition c = sum_i (a_i, x_i)."""

    symbols: list[tuple[int, int]]  # the input class
    a_list: list[int]
    x_list: list[int]
    v0: Place | None
    adjusted_a_list: list[int] | None
    partition: list[list[Place]]  # S'_i in input order (post-reordering)
    t_parities: list[int]  # t_i in units of 1/2, mod 2
    order: list[int] = field(default_factory=list)  # reordering applied to a_list

    def input_class(self) -> BrauerClass2:
        return BrauerClass2(self.symbols)

    def output_class(self) -> BrauerClass2:
        return BrauerClass2(
            [(a, x) for a, x in zip(self.a_list, self.x_list)]
        )


def decompose(
    c: BrauerClass2,
    a_list: list[int],
    aux_prime_bound: int = DEFAULT_AUX_PRIME_BOUND,
) -> DecompositionCertificate:
    """Decompose c as sum (a_i, x_i); raises NonSplittingError when c does
    not split over the multiquadratic extension of the a_i.

    One factor table, local to the call and keyed by |n|, serves every
    stage: c's invariants (derived here from c's symbols, not read from c),
    `realize_as_cup`'s a, the fold of each x_i into the leading target and
    the output class of the final check.  Each distinct |n| is factored at
    most once; the x_i are never factored, since `realize_as_cup` enters the
    factorizations it proved.  The emitted certificate passes the exact check
    of `verify_certificate`, run on c's invariants derived above instead of
    from scratch, which proves each x_i's factorization in the table again
    (product and prime keys); a failure is an internal error.
    """
    a_list = [int(a) for a in a_list]
    if not a_list:
        raise ValueError("need at least one entry")
    a_list = _square_roots(a_list)
    factors: dict[int, dict[int, int]] = {}
    places = _odd_places(c.symbols, factors)  # places as ints: 0 is the real place
    support = [_place(q) for q in sorted(places)]
    if not _splits_at(support, a_list):
        raise NonSplittingError("class does not split in the given extension")
    symbols = [(s.a, s.b) for s in c.symbols]
    r = len(a_list)

    if not support:
        return DecompositionCertificate(
            symbols, a_list, [1] * r, None, None, [[] for _ in a_list], [0] * r,
            list(range(r)),
        )

    # reorder so the leading entry is not a global square
    lead = _lead_index(a_list)
    if lead is None:
        raise NonSplittingError(
            "all entries are global squares but the class is nontrivial"
        )
    order = [lead] + [i for i in range(r) if i != lead]
    ordered = [a_list[i] for i in order]

    v0, adjusted = find_v0(support, ordered, aux_prime_bound)
    parts = partition_support(support, adjusted)
    t_par = [len(part) % 2 for part in parts]

    targets: list[dict[Place, Fraction]] = []
    for part, t in zip(parts, t_par):
        target = {v: HALF for v in part}
        if t:
            target[v0] = HALF  # -t_i = 1/2 mod 1
        targets.append(target)

    # realize the adjusted entries i >= 2 first; where a'_i = a_1 a_i the
    # symbol (a_1 a_i, x) re-expands as (a_1, x) + (a_i, x), and the places
    # where the (a_1, x) leg ramifies are folded into the leading target
    xs = [1] * r
    lead_target = {v.q for v in targets[0]}  # places as ints: 0 is the real place
    for i in range(1, r):
        if targets[i]:
            xs[i] = realize_as_cup(targets[i], adjusted[i], aux_prime_bound, factors)
            if adjusted[i] != ordered[i]:
                lead_target ^= _ramified(
                    ordered[0], _factorization(ordered[0], factors),
                    xs[i], _factorization(xs[i], factors),
                )
    if lead_target:
        target = {_place(q): HALF for q in sorted(lead_target)}
        xs[0] = realize_as_cup(target, ordered[0], aux_prime_bound, factors)

    # undo the reordering: position back[i] of the ordered lists is entry i
    back = sorted(range(r), key=order.__getitem__)
    cert = DecompositionCertificate(
        symbols, a_list, [xs[j] for j in back], v0, [adjusted[j] for j in back],
        [parts[j] for j in back], [t_par[j] for j in back], order,
    )
    ok, reason = _check(cert, factors, places)
    if not ok:
        raise RuntimeError(f"internal error: emitted certificate invalid ({reason})")
    return cert


def decompose_biquadratic(
    c: BrauerClass2, a1: int, a2: int, aux_prime_bound: int = DEFAULT_AUX_PRIME_BOUND
) -> DecompositionCertificate:
    """The r = 2 case: c = (a1, x) + (a2, y)."""
    return decompose(c, [a1, a2], aux_prime_bound)


def verify_certificate(cert: DecompositionCertificate) -> tuple[bool, str]:
    """Recompute everything from scratch; returns (ok, reason).

    Besides the final equality of classes, every stage record is checked
    against the rules `decompose` follows: one record per entry, `order` (when
    recorded) a permutation, a'_lead = a_lead and each a'_i equal to a_i or
    a_lead a_i, and v0 an odd prime outside the support, coprime to every a_i,
    at which every a'_i is a local nonsquare.

    Each call derives the input and output invariants with its own fresh
    factor table, so each distinct |n| of the symbols, the a_i and the x_i is
    factored once, by `factorize`, and nothing is reused across calls.
    """
    return _check(cert, {})


def _check(
    cert: DecompositionCertificate,
    factors: dict[int, dict[int, int]],
    places: set[int] | None = None,
) -> tuple[bool, str]:
    """The checks of `verify_certificate`, with factorizations read from and
    entered in `factors`.  `places` are the input class's invariants as ints
    (0 is the real place) when the caller has derived them; else they are
    derived here from the certificate's symbols."""
    r = len(cert.a_list)
    records = {"x_list": cert.x_list, "partition": cert.partition,
               "t_parities": cert.t_parities}
    if cert.adjusted_a_list is not None:
        records["adjusted_a_list"] = cert.adjusted_a_list
    for name, values in records.items():
        if len(values) != r:
            return False, f"{name} has {len(values)} entries, a_list {r}"
    if cert.order and sorted(cert.order) != list(range(r)):
        return False, "order is not a permutation of the entries"
    if places is None:
        places = _odd_places(cert.input_class().symbols, factors)
    support = {_place(q) for q in places}
    claimed = [v for part in cert.partition for v in part]
    if len(claimed) != len(set(claimed)):
        return False, "partition pieces overlap"
    if set(claimed) != support:
        return False, "partition does not cover the support"
    if support and (cert.v0 is None or cert.adjusted_a_list is None):
        return False, "v0 or adjusted_a_list missing for a nontrivial class"
    ref = cert.a_list
    if cert.adjusted_a_list is not None:
        ref = cert.adjusted_a_list
        lead = cert.order[0] if cert.order else _lead_index(cert.a_list)
        if lead is None:
            return False, "every entry is a global square: no a_lead"
        a_lead = cert.a_list[lead]
        if ref[lead] != a_lead:
            return False, f"adjusted leading entry {ref[lead]} is not a_lead = {a_lead}"
        for a, adjusted in zip(cert.a_list, ref):
            if adjusted not in (a, a_lead * a):
                return False, f"adjusted entry {adjusted} is neither {a} nor a_lead * {a}"
    if cert.v0 is not None:
        v0 = cert.v0
        if not v0.finite or v0.q == 2:
            return False, f"v0 = {v0} is not an odd prime"
        if v0 in support:
            return False, f"v0 = {v0} lies in the support"
        if any(a % v0.q == 0 for a in cert.a_list):
            return False, f"v0 = {v0} divides an entry"
        for a in ref:
            if is_local_square(a, v0):
                return False, f"{a} is a local square at v0 = {v0}"
    for a, part, t in zip(ref, cert.partition, cert.t_parities):
        for v in part:
            if is_local_square(a, v):
                return False, f"{a} is a local square at assigned place {v}"
        if t != len(part) % 2:
            return False, "recorded parity disagrees with the partition"
        if (len(part) + t) % 2:
            return False, "per-entry target violates reciprocity"
    out = cert.output_class()
    for x in cert.x_list:
        # a table may hold x's factorization from realize_as_cup: prove it
        # again, without trial division
        fx = _factorization(x, factors)
        if math.prod(q**e for q, e in fx.items()) != abs(x) or not all(map(is_prime, fx)):
            return False, f"{fx} is not the factorization of {x}"
    if _odd_places(out.symbols, factors) != places:
        return False, "local invariants of the output differ from the input"
    return True, "ok"
