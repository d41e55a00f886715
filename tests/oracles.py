"""Independent test oracles.

These deliberately avoid the library's closed-form code paths: the Hilbert
symbol oracle decides solvability of z^2 = a x^2 + b y^2 by exhaustive
residue enumeration (with a Hensel-lifting argument fixing the modulus), and
the linear-algebra oracles enumerate vectors outright.  The group oracles
test every group law on every triple, and the reference builders fill group
tables one entry at a time from their defining formulas.  `realize_by_scan`
finds x by trying every candidate of the documented scan order in turn.
`prescribed_hom_by_backtracking` finds a homomorphism into U_{n+1}(F_p) by
depth-first search over generator images, and `prescribed_hom_by_tree_system`
by eliminating every relation of affine matrices walked along a BFS tree;
`cup_form_by_stacked_residues` reduces the cup form of `Relators` from all of
its residue rows at once.
`coboundary_rows` writes rows of the matrix of d entry by entry from the bar
formula, independently of the library's one batched differential.
`cohomology_by_full_stream` builds an H^degree basis from all of d^degree,
with an [A | I] `TransformSolver` for coordinates, and
`cocycles_by_generator_rows` reduces Z^degree from the rows of d^degree whose
last argument is e or a generator.  `d1_solver_by_coboundary_matrix` solves
d c = f on one `Solver` of the whole |G|^2 x |G| matrix of d^1, not along
the presentation's tree.  `cocycles_by_bfs_system` solves for it
from every value written through the values at the generators along a BFS
tree (in degree 2, |G|^2 |S| dense equations instead of the presentation's
loops).  `check_cocycles_by_all_tuples` applies d
to a cocycle basis on every argument tuple, and `coordinates_by_cocycle_solver`
reads class coordinates from one `Solver` on the |G|^degree-row matrix
[d^(degree-1) | Z^T].  `cup_span_by_cochains` spans chi u H^1
from the cup cochains themselves, not from the ring's table of basis cups,
and `res_kernel_by_restrict` builds the restriction matrix one `restrict`
cochain at a time.  `enumerate_triple_classes` reads the class of every
defining system of a triple Massey product, not the coset formula.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from masseybrauer._kernels import BLOCK_ROWS, _dot, rref, rref_blocks
from masseybrauer.brauer_q import HALF, BrauerClass2, Place, factorize, is_local_square
from masseybrauer.cochain_dga import (
    CohomologyRing, _cocycles, _delta, coboundary_matrix, get_ring, restrict,
)
from masseybrauer.fp_linalg import Solver, null_space_rows, row_space_basis
from masseybrauer.group_core import Character, FiniteGroup, Subgroup, bfs_tree
from masseybrauer.lgp_decompose import NonSplittingError, SearchBoundExceeded
from masseybrauer.massey import find_triple_defining_system
from masseybrauer.unipotent import GroupHom, Relators, build_unipotent


@lru_cache(maxsize=None)
def _squares_mod(q: int, n: int) -> np.ndarray:
    """Boolean table of squares in Z/q^n."""
    qn = q**n
    z = np.arange(qn, dtype=np.int64)
    s = np.zeros(qn, dtype=bool)
    s[(z * z) % qn] = True
    return s


def _reduce_val(m: int, q: int) -> int:
    """Divide out q^2 until the q-valuation is 0 or 1 (a square scaling)."""
    while m % (q * q) == 0:
        m //= q * q
    return m


def hilbert_oracle(a: int, b: int, place: Place) -> int:
    """+-1 by direct solvability of z^2 = a x^2 + b y^2 over the completion.

    At a finite prime q the equation is split into the three unit-coordinate
    normal forms (divide by the coordinate of least valuation):

        x unit:  z^2 - b y^2 = a
        y unit:  z^2 - a x^2 = b
        z unit:  a x^2 + b y^2 = 1

    and each is decided modulo q^N by enumerating the free variable against
    the table of squares mod q^N.  By Hensel's lemma a residue solution
    lifts to a q-adic one when f = 0 mod q^(2k+1), k the valuation of the
    partial derivative in one of its variables.  With the entries
    square-reduced to valuation <= 1, any residue solution has a variable
    with k <= 2 (q = 2) or k <= 1 (q odd), so N = 6 resp. N = 3 makes every
    residue solution liftable; the converse direction is scaling a true
    solution to a primitive one.  At odd q: in a x^2 + b y^2 = 1 one term
    is a unit mod q, so its variable and coefficient are units and k = 0;
    in z^2 - b y^2 = a (and z^2 - a x^2 = b alike) k = 0 in z when z is a
    unit, and otherwise b y^2 = -a mod q^2, so either a, b and y are units
    (k = 0 in y) or v(a) = v(b) = 1 with y a unit (k = 1 in y).
    """
    if a == 0 or b == 0:
        raise ValueError("nonzero entries required")
    if not place.finite:
        return 1 if (a > 0 or b > 0) else -1
    q = place.q
    n = 6 if q == 2 else 3
    qn = q**n
    a = _reduce_val(a, q) % qn
    b = _reduce_val(b, q) % qn
    sq = _squares_mod(q, n)
    t = np.arange(qn, dtype=np.int64)
    t2 = (t * t) % qn
    if sq[(a + b * t2) % qn].any():  # x = 1
        return 1
    if sq[(b + a * t2) % qn].any():  # y = 1
        return 1
    b_sq = np.zeros(qn, dtype=bool)  # the set {b * square} mod q^N
    b_sq[(b * t2) % qn] = True
    if b_sq[(1 - a * t2) % qn].any():  # z = 1
        return 1
    return -1


def is_square_oracle(a: int, place: Place) -> bool:
    if a == 0:
        raise ValueError("nonzero entry required")
    if not place.finite:
        return a > 0
    q = place.q
    n = 6 if q == 2 else 4
    a = _reduce_val(a, q)
    return bool(_squares_mod(q, n)[a % q**n])


# ---------------------------------------------------------------------------
# brute-force linear algebra over F_p (tiny sizes only)


def kernel_by_enumeration(entries: np.ndarray, p: int) -> set[tuple[int, ...]]:
    """All vectors x with A x = 0 mod p, by trying every vector."""
    entries = np.asarray(entries, dtype=np.int64)
    cols = entries.shape[1]
    out = set()
    for x in itertools.product(range(p), repeat=cols):
        if not (entries @ np.asarray(x, dtype=np.int64) % p).any():
            out.add(x)
    return out


def span_by_enumeration(rows: np.ndarray, p: int) -> set[tuple[int, ...]]:
    """All F_p-combinations of the given row vectors."""
    rows = np.asarray(rows, dtype=np.int64)
    out = set()
    for coeffs in itertools.product(range(p), repeat=rows.shape[0]):
        v = np.zeros(rows.shape[1], dtype=np.int64)
        for t, row in zip(coeffs, rows):
            v = (v + t * row) % p
        out.add(tuple(int(e) for e in v))
    return out


def rref_by_loops(entries: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod p by textbook elimination on Python
    integers, one pivot at a time (leftmost pivot column, first nonzero row
    at or below as pivot row).  Returns the reduced matrix, zero rows at the
    bottom, and the pivot columns."""
    rows, cols = np.shape(entries)
    a = [[int(x) % p for x in row] for row in np.asarray(entries).tolist()]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    red = np.asarray(a, dtype=np.int64).reshape(rows, cols)
    return red, np.asarray(pivots, dtype=np.int64)


# ---------------------------------------------------------------------------
# finite groups: a brute-force law check and entry-by-entry reference builders


def is_group_table(mul, identity: int = 0) -> bool:
    """Identity law, a right inverse in every row, and associativity on all
    n^3 triples."""
    m = np.asarray(mul).tolist()
    n, e = len(m), identity
    if any(m[e][x] != x or m[x][e] != x for x in range(n)):
        return False
    if any(e not in row for row in m):
        return False
    return all(
        m[m[a][b]][c] == m[a][m[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def inverse_by_loops(mul, identity: int = 0) -> list[int]:
    """For each g, the first h with g h = e."""
    return [row.index(identity) for row in np.asarray(mul).tolist()]


def element_orders_by_loops(mul, identity: int = 0) -> list[int]:
    m = np.asarray(mul).tolist()
    out = []
    for g in range(len(m)):
        x, k = g, 1
        while x != identity:
            x, k = m[x][g], k + 1
        out.append(k)
    return out


def closure_by_loops(mul, seeds, identity: int = 0) -> list[int]:
    """Right-multiplication closure of the seeds, in BFS discovery order."""
    m = np.asarray(mul).tolist()
    order, frontier = [identity], [identity]
    seen = {identity}
    while frontier:
        new = []
        for x in frontier:
            for g in seeds:
                y = m[x][g]
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    new.append(y)
        frontier = new
    return order


def greedy_generators_by_loops(mul, identity: int = 0) -> list[int]:
    """Scan elements by index, keeping each one not yet generated."""
    gens: list[int] = []
    have = {identity}
    for g in range(len(mul)):
        if g not in have:
            gens.append(g)
            have = set(closure_by_loops(mul, gens, identity))
    return gens


def cyclic_by_loops(n: int):
    """(table, generators) of Z/n."""
    return [[(a + b) % n for b in range(n)] for a in range(n)], [1 % n]


def direct_product_by_loops(a, b):
    """(table, generators) of A x B, element index xa * |B| + xb; `a` and `b`
    are (table, generators, identity) triples."""
    (ma, ga, ea), (mb, gb, eb) = a, b
    na, nb = len(ma), len(mb)
    mul = [[0] * (na * nb) for _ in range(na * nb)]
    for x in range(na * nb):
        xa, xb = divmod(x, nb)
        for y in range(na * nb):
            ya, yb = divmod(y, nb)
            mul[x][y] = ma[xa][ya] * nb + mb[xb][yb]
    return mul, [g * nb + eb for g in ga] + [ea * nb + g for g in gb]


def dihedral_by_loops(n: int):
    """(table, generators) of the dihedral group of order 2n, s^e r^i at
    index e n + i."""
    mul = [[0] * (2 * n) for _ in range(2 * n)]
    for x in range(2 * n):
        e1, i1 = divmod(x, n)
        for y in range(2 * n):
            e2, i2 = divmod(y, n)
            mul[x][y] = (e1 + e2) % 2 * n + (i2 + (i1 if e2 == 0 else -i1)) % n
    return mul, [1 % n, n]


_UNIT_PRODUCTS = {  # Hamilton: i^2 = j^2 = k^2 = ijk = -1
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}


def quaternion_by_loops():
    """(table, generators) of Q8, index = axis (1, i, j, k) + 4 * (minus)."""
    axes = "1ijk"
    mul = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            a, b = axes[x % 4], axes[y % 4]
            if a == "1" or b == "1":
                sign, axis = 1, b if a == "1" else a
            else:
                sign, axis = _UNIT_PRODUCTS[(a, b)]
            minus = (sign < 0) ^ (x >= 4) ^ (y >= 4)
            mul[x][y] = axes.index(axis) + 4 * minus
    return mul, [1, 2]


def unipotent_by_products(n: int, p: int, bar: bool = False):
    """(table, generators) of U_{n+1}(F_p), or its quotient by the center,
    by multiplying the matrices: element index is the strictly-upper entries
    read row by row as base-p digits (the corner left out for `bar`)."""
    dim = n + 1
    positions = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    if bar:
        positions.remove((0, dim - 1))
    mats = []
    for digits in itertools.product(range(p), repeat=len(positions)):
        m = np.eye(dim, dtype=np.int64)
        for (i, j), v in zip(positions, digits):
            m[i, j] = v
        mats.append(m)
    mats = np.asarray(mats)
    weights = p ** np.arange(len(positions) - 1, -1, -1)

    def index(ms):
        return np.stack([ms[..., i, j] % p for i, j in positions], -1) @ weights

    def transvection(i):
        m = np.eye(dim, dtype=np.int64)
        m[i, i + 1] = 1
        return m

    mul = np.stack([index(mats[a] @ mats) for a in range(len(mats))])
    return mul.tolist(), [int(index(transvection(i))) for i in range(n)]


def close_generators_by_loops(perms):
    """(table, generators) of the permutation group, elements in BFS order
    from the identity, x g meaning "g first, then x"."""
    degree = len(perms[0])
    gens = [tuple(g) for g in perms]
    ident = tuple(range(degree))
    index, elems, frontier = {ident: 0}, [ident], [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(x[g[i]] for i in range(degree))
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                    new.append(y)
        frontier = new
    mul = [
        [index[tuple(pa[pb[i]] for i in range(degree))] for pb in elems]
        for pa in elems
    ]
    return mul, [index[g] for g in gens]


def subgroup_by_loops(mul, members, identity: int = 0):
    """(table, identity) of the subgroup on the sorted members."""
    m = np.asarray(mul).tolist()
    members = sorted(members)
    pos = {x: i for i, x in enumerate(members)}
    return [[pos[m[a][b]] for b in members] for a in members], pos[identity]


def frattini_by_loops(mul, p: int, identity: int = 0):
    """(table, identity, projection) of G / G^p [G, G], cosets numbered by
    their least element."""
    m = np.asarray(mul).tolist()
    n = len(m)
    inv = inverse_by_loops(mul, identity)
    seeds = set()
    for g in range(n):
        x = identity
        for _ in range(p):
            x = m[x][g]
        seeds.add(x)
        for h in range(n):
            seeds.add(m[m[g][h]][m[inv[g]][inv[h]]])
    normal = closure_by_loops(mul, sorted(seeds), identity)
    rep = [min(m[g][x] for x in normal) for g in range(n)]
    reps = sorted(set(rep))
    pos = {r: i for i, r in enumerate(reps)}
    table = [[pos[rep[m[a][b]]] for b in reps] for a in reps]
    return table, pos[rep[identity]], [pos[rep[g]] for g in range(n)]


def _primes(limit: int):
    yield 2
    n = 3
    while n <= limit:
        if all(n % d for d in range(3, int(n**0.5) + 1, 2)):
            yield n
        n += 2


def realize_by_scan(
    target: dict[Place, Fraction], a: int, aux_prime_bound: int = 10**6
) -> int:
    """`realize_as_cup` by exhaustive search: x = sign * d * w with w = 1 or
    a prime outside the pool, d a divisor of the product of the pool
    (ascending), + before -; every candidate's Hilbert symbols are
    recomputed and the first exact hit is returned."""
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

    relevant = {2}
    relevant.update(q for q in factorize(a))
    relevant.update(v.q for v in target if v.finite)
    relevant.discard(0)
    pool = sorted(relevant)
    divisors = sorted(
        {
            math.prod(combo)
            for k in range(len(pool) + 1)
            for combo in itertools.combinations(pool, k)
        }
    )

    def candidates():
        yield 1
        for q in _primes(aux_prime_bound):
            if q not in relevant:
                yield q

    for w in candidates():
        for d in divisors:
            for sign in (1, -1):
                x = sign * d * w
                if BrauerClass2([(a, x)]).local_invariants() == target:
                    return x
    raise SearchBoundExceeded(
        f"no x found with auxiliary primes below {aux_prime_bound}"
    )


def prescribed_hom_by_backtracking(
    group: FiniteGroup,
    chars: list[Character],
    n: int,
    bar: bool = False,
) -> GroupHom | None:
    """`find_prescribed_hom` by depth-first search: generator images are
    tried in element-index order within each prescribed fiber (pruned by
    element orders and by commuting generators), every assignment is closed
    under products with the known images, and the first complete
    assignment is returned, which is the lexicographically least tuple of
    generator images; None if none exists."""
    if len(chars) != n:
        raise ValueError(f"need exactly {n} characters")
    p = chars[0].p
    if any(c.group is not group or c.p != p for c in chars):
        raise ValueError("characters on the wrong group or modulus")
    target = build_unipotent(n, p, bar)
    gens = group.generating_set()
    superdiag = target.superdiagonal_table()
    t_orders = target.element_orders()
    g_orders = group.element_orders()

    # fiber of each prescribed superdiagonal, pre-pruned by the necessary
    # condition ord(image) | ord(generator)
    fibers = []
    for g in gens:
        want = np.asarray([c(g) for c in chars], dtype=np.int64)
        fiber = np.nonzero(
            (superdiag == want).all(axis=1) & (g_orders[g] % t_orders == 0)
        )[0]
        fibers.append([int(u) for u in fiber])

    img = np.full(group.order, -1, dtype=np.int64)
    img[group.identity] = target.identity
    known: list[int] = [group.identity]

    gmul, tmul = group.mul, target.mul

    def close(x: int, ux: int, trail: list[int]) -> bool:
        """Assign img[x] = ux and close under products with known elements."""
        queue = [(x, ux)]
        while queue:
            y, uy = queue.pop()
            cur = img[y]
            if cur >= 0:
                if cur != uy:
                    return False
                continue
            img[y] = uy
            trail.append(y)
            known.append(y)
            for z in list(known):
                queue.append((int(gmul[y, z]), int(tmul[uy, img[z]])))
                queue.append((int(gmul[z, y]), int(tmul[img[z], uy])))
        return True

    def undo(trail: list[int], known_len: int):
        for y in trail:
            img[y] = -1
        del known[known_len:]

    def search(level: int) -> bool:
        if level == len(gens):
            return True
        g = gens[level]
        cur = img[g]
        if cur >= 0:
            # image forced by earlier closure; only the fiber constraint left
            if int(cur) in fibers[level]:
                return search(level + 1)
            return False
        for u in fibers[level]:
            # cheap sound prune: commuting source generators need commuting
            # images (full consistency is still enforced by close())
            ok = True
            for j in range(level):
                gj = gens[j]
                uj = int(img[gj])
                if uj >= 0 and gmul[g, gj] == gmul[gj, g] and tmul[u, uj] != tmul[uj, u]:
                    ok = False
                    break
            if not ok:
                continue
            trail: list[int] = []
            mark = len(known)
            if close(g, u, trail) and search(level + 1):
                return True
            undo(trail, mark)
        return False

    if not search(0):
        return None
    if (img < 0).any():
        raise RuntimeError("generators did not generate the group")
    return GroupHom(group, target, img.copy())


def prescribed_hom_by_tree_system(
    group: FiniteGroup,
    chars: list[Character],
    n: int,
    bar: bool = False,
) -> GroupHom | None:
    """`find_prescribed_hom` by one reversed-column RREF of every relation
    rho(g s) = rho(g) rho(s) at the free positions, with rho(g) walked
    level by level along the BFS tree as float64 affine matrices (the
    construction before the relator matrix); full n = 4 solves the whole
    system again for each solution of the (0, 2) equations."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if len(chars) != n:
        raise ValueError(f"need exactly {n} characters")
    p = chars[0].p
    if any(c.group is not group or c.p != p for c in chars):
        raise ValueError("characters on the wrong group or modulus")
    target = build_unipotent(n, p, bar)
    gens = group.generating_set()
    consts = np.repeat(np.eye(n + 1, dtype=np.int64)[None], len(gens), axis=0)
    consts[:, range(n), range(1, n + 1)] = np.array([c.values for c in chars]).T[gens]
    free = [(i, j) for i, j in target.positions if j - i >= 2]

    def least_images(consts, free):
        """The image table whose generator images are least, with rho(s_k)
        equal to consts[k] off `free`, or None.  Columns are reversed, so in
        the RREF each pivot unknown is a constant minus free earlier
        unknowns: with every free unknown 0, each coordinate in turn is as
        small as the earlier ones allow."""
        rows, forms = _tree_equations(group, consts, free, p)
        if rows[~rows[:, :-1].any(axis=1), -1].any():
            return None  # a row 0 = c != 0 needs no elimination
        red, pivots = rref(rows, p)
        if len(pivots) and pivots[-1] == rows.shape[1] - 1:
            return None
        x = np.zeros(rows.shape[1])  # [x_{U-1}, ..., x_0, 1]
        x[pivots], x[-1] = -red[: len(pivots), -1] % p, 1
        return target._index_of(np.einsum("gicj,c->gij", forms, x).astype(np.int64) % p)

    if (0, 4) not in free:
        img = least_images(consts, free)
    else:
        rows, _ = _tree_equations(group, consts, [(0, 2)], p)
        fixes = np.asarray(list(itertools.product(range(p), repeat=len(gens))))
        fixes = fixes[~(np.c_[fixes[:, ::-1], np.ones(len(fixes))] @ rows.T % p).any(axis=1)]
        sliced = np.repeat(consts[None], len(fixes), axis=0)
        sliced[:, :, 0, 2] = fixes
        found = [least_images(c, free[1:]) for c in sliced]  # free[0] is (0, 2)
        found = [f for f in found if f is not None]
        img = min(found, key=lambda f: tuple(f[gens]), default=None)
    return None if img is None else GroupHom(group, target, img)


def distance_two_by_pairs(rel: Relators, values: np.ndarray) -> np.ndarray:
    """The constants c_i of the distance-2 relations R x_i = c_i for the
    character table values[g, i], from `Relators.pairs`, not from the tree
    sums of `Relators.relations`: F[g, i], the entry (i, i + 2) of rho(g)
    when x_i = 0, is sum_kl pairs[g, k, l] chi_i(s_k) chi_(i+1)(s_l), and
    c_i(g, s) = F_i(g) + chi_i(g) chi_(i+1)(s) - F_i(g s) (column i)."""
    at = values[rel.gens]
    f = ((rel.pairs @ at[:, 1:]) * at[:, :-1]).sum(axis=1)
    cross = values[:, None, :-1] * at[None, :, 1:]
    return (f[:, None] + cross - f[rel.ends]).reshape(-1, values.shape[1] - 1) % rel.p


def cup_form_by_stacked_residues(rel: Relators) -> np.ndarray:
    """The RREF rows of the residues of every M_kl after a solve on the
    relator matrix R, stacked into one |G||S| x |S|^2 matrix (columns
    (k, l)) and reduced whole."""
    ns, p = len(rel.gens), rel.p
    eye = np.eye(ns, dtype=np.int64)
    matrix = ((rel.paths[rel.ends] - rel.paths[:, None] - eye).reshape(-1, ns)) % p
    residues = []
    for k in range(ns):  # M_kl for every l: rows (g, s), columns l
        m = rel.pairs[:, None, k] - rel.pairs[rel.ends, k] + rel.paths[:, None, k, None] * eye
        m = m.reshape(-1, ns) % p
        residues.append((m - matrix @ rel.solver.solve_many(m)[0]) % p)
    red, pivots = rref(np.concatenate(residues, axis=1), p)
    return red[: len(pivots)]


def _tree_equations(group: FiniteGroup, consts: np.ndarray, free, p: int):
    """Rows [coefficients | constant] of rho(g s) - rho(g) rho(s) = 0 at the
    positions `free` for every g and generator s, and the affine matrices
    rho(g) along a BFS tree; rho(s_k) is consts[k] with unknowns at `free`,
    unknown u (by generator, then position) in column U - 1 - u.  Affine
    matrices are arrays [i, column, j].  Their float64 products are exact
    (entries are residues below MAX_P) and leave out products of two unknown
    entries (none with j - i <= 3)."""
    tree = group.cached("generator_tree", lambda: bfs_tree(group, group.generating_set()))
    gens, dim = consts.shape[:2]
    rows_at, cols_at = np.asarray(free, dtype=np.int64).reshape(-1, 2).T
    cols = gens * len(free) + 1
    lin = np.zeros((gens, dim, cols, dim))
    u = np.arange(cols - 2, -1, -1).reshape(gens, len(free))
    lin[np.arange(gens)[:, None], rows_at, u, cols_at] = 1
    by_const = consts.transpose(1, 0, 2).reshape(dim, -1).astype(np.float64)
    by_lin = lin.transpose(1, 2, 0, 3).reshape(dim, -1)

    def times_generators(forms):  # [g, i, c, k, j]: forms[g] rho(s_k)
        shape = (len(forms), dim, cols, gens, dim)
        const_part = (forms.reshape(-1, dim) @ by_const).reshape(shape)
        return const_part + (forms[:, :, -1].reshape(-1, dim) @ by_lin).reshape(shape)

    forms = np.zeros((group.order, dim, cols, dim))
    forms[group.identity, :, -1] = np.eye(dim)
    for kids, parents, via in tree:
        step = times_generators(forms[parents])[np.arange(len(kids)), :, :, via]
        forms[kids] = np.fmod(step, p)  # nonnegative: fmod is % without its float cost
    prod = times_generators(forms)[:, rows_at, :, :, cols_at]
    ends = group.mul[:, group.generating_set()]
    rows = forms[:, rows_at, :, cols_at][:, ends] - prod.transpose(0, 1, 3, 2)
    rows = rows.reshape(-1, cols).astype(np.int64) % p
    return rows[rows.any(axis=1)], forms


class TransformSolver:
    """Precomputed elimination of a fixed matrix for many right-hand sides.

    Row-reduces [A | I] once; solve(b) is then a single mat-vec plus a
    consistency check.  Solutions set all free variables to zero, matching
    plain Gaussian elimination with leftmost pivots.
    """

    def __init__(self, a: np.ndarray, p: int):
        self.p = p
        a = np.asarray(a, dtype=np.int64) % p
        self.rows, self.cols = a.shape
        aug = np.concatenate([a, np.eye(self.rows, dtype=np.int64)], axis=1)
        red, pivots = rref(aug, p)
        # pivots landing in the identity block are rank deficiencies of A
        self.pivots = pivots[pivots < self.cols]
        self.rank = len(self.pivots)
        self.transform = red[:, self.cols :].astype(np.float64)

    def solve_many(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = np.ascontiguousarray(b, dtype=np.int64) % self.p
        y = (self.transform @ b.astype(np.float64)).astype(np.int64) % self.p
        ok = ~y[self.rank :].any(axis=0)
        x = np.zeros((self.cols, b.shape[1]), dtype=np.int64)
        x[self.pivots] = y[: self.rank]
        return x, ok


def coboundary_rows(
    group: FiniteGroup, p: int, degree: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """Matrix of d: C^degree -> C^(degree+1) on flattened value tables, or
    only the rows with the given indices."""
    if degree not in (0, 1, 2):
        raise ValueError("coboundary matrix only built for degrees 0..2")
    n = group.order
    mul = group.mul
    idx = np.arange(n ** (degree + 1)) if rows is None else np.asarray(rows, dtype=np.int64)
    m = np.zeros((len(idx), n**degree), dtype=np.int64)
    if degree == 0:
        return m
    at = np.arange(len(idx))
    if degree == 1:
        g, h = np.divmod(idx, n)
        np.add.at(m, (at, g), 1)
        np.add.at(m, (at, h), 1)
        np.add.at(m, (at, mul[g, h]), -1)
    else:
        gh, k = np.divmod(idx, n)
        g, h = np.divmod(gh, n)
        np.add.at(m, (at, h * n + k), 1)
        np.add.at(m, (at, mul[g, h] * n + k), -1)
        np.add.at(m, (at, g * n + mul[h, k]), 1)
        np.add.at(m, (at, g * n + h), -1)
    return m % p


def cohomology_by_full_stream(group: FiniteGroup, p: int, degree: int):
    """H^degree from every row of d^degree: (Z basis rows, representative
    rows, TransformSolver on [reps; B]^T or None).  The coordinates of a
    cocycle are the first len(reps) solution entries."""
    g = group
    n = g.order
    rows = n ** (degree + 1)
    # Z^degree = ker d^degree, reduced from row blocks of d^degree: the
    # |G|^3 x |G|^2 matrix of d^2 is never built
    red, pivots = rref_blocks(
        (
            coboundary_rows(g, p, degree, np.arange(lo, min(lo + BLOCK_ROWS, rows)))
            for lo in range(0, rows, BLOCK_ROWS)
        ),
        n**degree,
        p,
    )
    z = null_space_rows(red, pivots, p)
    # B^degree = column space of d^(degree-1), as echelon rows
    b_rows = row_space_basis(coboundary_rows(g, p, degree - 1).T, p)
    # extend B to Z: the cocycles among the pivot columns of [B; Z]^T are
    # those outside the span of B and the cocycles before them
    _, piv = rref(np.concatenate([b_rows, z]).T, p)
    reps = z[piv[piv >= len(b_rows)] - len(b_rows)]
    spanning = np.concatenate([reps, b_rows])
    solver = TransformSolver(spanning.T, p) if len(spanning) else None
    return z, reps, solver


def d1_solver_by_coboundary_matrix(group: FiniteGroup, p: int) -> Solver:
    """Solver for d c = f, c of degree 1, on the whole matrix of d^1: plain
    elimination with leftmost pivots, free variables 0."""
    return Solver(coboundary_matrix(group, p, 1), p)


def cocycles_by_generator_rows(group: FiniteGroup, p: int, degree: int) -> np.ndarray:
    """Z^degree basis rows (null_space_rows of the RREF of d^degree) from the
    rows of d^degree whose last argument is e or a generator."""
    g = group
    n = g.order
    # Z^degree = ker d^degree, reduced from the rows whose last argument k
    # is e or a generator s.  d(df) = 0 writes df(.., ks) through df(.., k)
    # and df(.., s), so these rows have the kernel, hence the RREF, of
    # all of d^degree (|G|^3 x |G|^2 for d^2, never built)
    ks = sorted({g.identity, *g.generating_set()})
    rows = (np.arange(n**degree)[:, None] * n + ks).ravel()
    red, pivots = rref_blocks(
        (
            coboundary_rows(g, p, degree, rows[lo : lo + BLOCK_ROWS])
            for lo in range(0, len(rows), BLOCK_ROWS)
        ),
        n**degree,
        p,
    )
    return null_space_rows(red, pivots, p)


def cocycles_by_bfs_system(group: FiniteGroup, p: int, degree: int) -> np.ndarray:
    """Z^degree (null_space_rows of the RREF of d^degree) solved for from
    the values at last arguments s in S, the generators other than e in
    index order, and a dense map T of every value through them.

    A BFS tree of the Cayley graph writes every value of f = T u through
    the unknowns u: f(hs) = f(h) + f(s) with f(e) = 0 in degree 1, and
    f(g, hs) = f(g, h) + f(gh, s) - f(h, s) with f(., e) = f(e, e) in
    degree 2, so df(.., e) = 0.  d(df) = 0 writes df(.., ks) through
    df(.., k) and df(.., s), so f is a cocycle iff df(.., s) = 0 for each s
    in S.  With K the kernel of these equations, the rows of K T^T span Z.
    The basis above is the one that is the identity on the lexicographically
    last independent columns: the RREF with the columns reversed.
    """
    n, e, mul = group.order, group.identity, group.mul
    gens = np.array(sorted(set(group.generating_set()) - {e}), dtype=np.int64)
    ns = len(gens)
    if degree == 1:
        t = np.zeros((n, ns), dtype=np.int64)  # t[k] = f(k) in the unknowns f(s)
        for k, h, j in bfs_tree(group, gens):
            t[k] = t[h]
            t[k, j] += 1
    else:
        # t[g, k] = f(g, k) in the unknowns f(g, s) (column g |S| + j) and f(e, e)
        t = np.zeros((n, n, n * ns + 1), dtype=np.int64)
        t[:, e, -1] = 1
        g = np.arange(n)[:, None]
        for k, h, j in bfs_tree(group, gens):
            t[:, k] = t[:, h]
            t[g, k, mul[g, h] * ns + j] += 1
            t[g, k, h * ns + j] -= 1
    m = t.shape[-1]
    t %= p
    per_first = n ** (degree - 1) * ns  # equations per first argument
    step = max(1, BLOCK_ROWS // max(per_first, 1))
    firsts = [np.arange(lo, min(lo + step, n)) for lo in range(0, n, step)]
    red, pivots = rref_blocks(
        (_delta(t, mul, degree, f, gens).reshape(len(f) * per_first, m) for f in firsts), m, p
    )
    span = _dot(null_space_rows(red, pivots, p), t.reshape(n**degree, m).T) % p
    red, pivots = rref(span[:, ::-1], p)
    return np.ascontiguousarray(red[: len(pivots)][::-1, ::-1])


def check_cocycles_by_all_tuples(group: FiniteGroup, p: int, degree: int, z: np.ndarray) -> None:
    """Raise unless every row of z is a cocycle: d of all rows at once on
    every argument tuple, in blocks of first arguments that keep each array
    near 2^21 entries."""
    n = group.order
    c = np.ascontiguousarray(z.T, dtype=np.int32).reshape((n,) * degree + (len(z),))
    step = max(1, (1 << 21) // max(c.size, 1))
    every = np.arange(n)
    for lo in range(0, n, step):
        if (_delta(c, group.mul, degree, every[lo : lo + step], every) % p).any():
            raise RuntimeError("internal error: a cocycle basis row is not a cocycle")


def coordinates_by_cocycle_solver(group: FiniteGroup, p: int, degree: int, flats: np.ndarray):
    """(representative rows, coordinates, ok) for the columns of `flats`
    from one Solver on [d^(degree-1) | Z^T], |G|^degree rows.  Its columns
    span exactly Z, so ok is the cocycle test; the pivot columns after the
    B part are the representatives, and a cocycle's solution entries there
    are its coordinates."""
    n = group.order
    z = _cocycles(group, p, degree)
    nb = n ** (degree - 1)
    solver = Solver(np.concatenate([coboundary_rows(group, p, degree - 1), z.T], axis=1), p)
    rep_cols = solver.pivots[solver.pivots >= nb]
    x, ok = solver.solve_many(flats)
    return z[rep_cols - nb], x[rep_cols], ok


def cup_span_by_cochains(ring: CohomologyRing, chars: list[Character]) -> np.ndarray:
    """Echelon basis rows of sum_chi chi u H^1 in H^2 coordinates, from the
    cup cochain of every (chi, H^1 basis character) pair and one batched
    coordinate solve of them, never from a table of basis cups."""
    if any(c.group is not ring.group or c.p != ring.p for c in chars):
        raise ValueError("characters on a different group or modulus")
    h2 = ring.basis(2)
    phis = [c.values for c in ring.basis(1).representatives]
    if not chars or not phis:
        return np.zeros((0, h2.dim), dtype=np.int64)
    n = ring.group.order
    left = np.stack([c.values for c in chars])[:, None, :, None]
    # (chi u phi)(g, h) = chi(g) phi(h), one flattened table per pair
    flats = (left * np.stack(phis)[None, :, None, :]).reshape(-1, n * n) % ring.p
    return row_space_basis(h2.coordinates_batch(flats.T).T, ring.p)


def res_kernel_by_restrict(group: FiniteGroup, sub: Subgroup, p: int) -> np.ndarray:
    """Basis rows of Ker(res: H^2(G) -> H^2(K)), the matrix of res built
    from one `restrict` cochain per H^2(G) representative."""
    from masseybrauer.cochain_dga import CohomologyRing, get_ring, restrict

    h2 = get_ring(group, p).basis(2)
    if h2.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    sub_h2 = get_ring(sub.as_group()[0], p).basis(2)
    res = np.stack([restrict(rep, sub).flat() for rep in h2.representatives], axis=1)
    coords = sub_h2.coordinates_batch(res)
    return row_space_basis(null_space_rows(*rref(coords, p), p), p)


def enumerate_triple_classes(
    chi1: Character, chi2: Character, chi3: Character
) -> set[tuple[int, ...]] | None:
    """The set of classes [ctilde_13] over ALL defining systems, by direct
    enumeration of every interior-entry choice.  Exponential; cross-check
    oracle for the coset formula."""
    g, p = chi1.group, chi1.p
    ring = get_ring(g, p)
    ds = find_triple_defining_system(chi1, chi2, chi3)
    if ds is None:
        return None
    h2 = ring.basis(2)
    n = g.order
    # every valid interior entry = deterministic solution + element of Z^1,
    # and Z^1 = span of the H^1 representatives (B^1 = 0)
    z1 = ring.basis(1).rep_values
    d = len(z1)
    coeffs = np.asarray(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    u12 = (ds.entry(1, 2).flat()[None, :] + coeffs @ z1) % p
    u23 = (ds.entry(2, 3).flat()[None, :] + coeffs @ z1) % p

    v1 = chi1.values
    v3 = chi3.values
    # flattened tables of chi1 u c23 (per variant) and c12 u chi3 (per variant)
    x = (v1[None, :, None] * u23[:, None, :]).reshape(len(u23), n * n) % p
    y = (u12[:, :, None] * v3[None, None, :]).reshape(len(u12), n * n) % p

    out: set[tuple[int, ...]] = set()
    chunk = max(1, (1 << 22) // (len(u23) * n * n))
    for s in range(0, len(u12), chunk):
        blk = y[s : s + chunk]
        flats = (-(x[None, :, :] + blk[:, None, :])) % p
        coords = h2.coordinates_batch(flats.reshape(-1, n * n).T)
        out.update(map(tuple, coords.T.tolist()))
    return out
