"""The cup-product / restriction exactness test.

For characters chi_1..chi_r with common kernel K, the image of the
multi-linear map (phi_i) -> sum chi_i u phi_i always sits inside the kernel
of H^2(G) -> H^2(K); the property of interest is equality of the two
subspaces.  Whether it holds depends only on K, not on the character list:
span(chi_1..chi_r) is the annihilator of K in H^1, so both subspaces are
functions of K, and `has_property` keeps them per (G, p) in one LRU memo of
MEMO_SIZE subgroups.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ._kernels import _dot, rref
from .cochain_dga import get_ring, relators
from .fp_linalg import _freeze, null_space_rows
from .group_core import Character, FiniteGroup, Subgroup, kernel_of_characters

# subgroups K whose two subspaces `has_property` keeps per (G, p); each
# entry holds two arrays of at most dim H^2(G)^2 entries
MEMO_SIZE = 1024


@dataclass
class LambdaImage:
    """Basis rows of sum_i chi_i u H^1(G) in H^2 coordinates."""

    basis: np.ndarray
    p: int

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _modulus(chars: list[Character], p: int | None) -> int:
    """The characters' modulus, else the explicit one."""
    if chars:
        return chars[0].p
    if p is None:
        raise ValueError("empty character list needs an explicit modulus")
    return p


def lambda_image(group: FiniteGroup, chars: list[Character], p: int | None = None) -> LambdaImage:
    """Image subspace of the map (phi_i) -> sum chi_i u phi_i."""
    p = _modulus(chars, p)
    return LambdaImage(get_ring(group, p).cup_span(chars), p)


def res_kernel_h2(group: FiniteGroup, sub: Subgroup, p: int) -> np.ndarray:
    """Basis rows of Ker(res: H^2(G) -> H^2(K)) in H^2(G) coordinates, from
    K's relators: no H^2(K) basis and no |K| x |K| table.

    As in `TreeD1Solver`, a 2-cocycle f on K is a coboundary iff the
    `Relators.relations` b of -f(k, s), k in K and s in S_K, lie in the
    column space of K's relator matrix R_K, that is iff the residue
    b - R_K x(b) of a solve is 0; and the residue is linear in b.  The
    restriction of a G-representative is a cocycle on K, so Ker(res) is the
    null space of the residues of the restricted representatives, one
    column each.  It is read off one RREF of them with the columns
    reversed: there the null-space row of a free column f is 1 at f, 0 at
    the other free columns and 0 right of f, so with its columns reversed
    it leads with 1 at dim - 1 - f and is 0 at the other rows' leads; in
    reverse row order these rows are the RREF of the kernel.  K is built
    afresh (`Subgroup.build_group`) and freed on return."""
    h2 = get_ring(group, p).basis(2)
    if h2.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    k, emb = sub.build_group()
    rel = relators(k, p)
    reps = h2.rep_values.reshape(h2.dim, group.order, group.order)
    _, b = rel.relations(-reps[:, emb[:, None], emb[rel.gens]].transpose(1, 2, 0))
    b = b.reshape(-1, h2.dim)
    residues = (b - _dot(rel.matrix, rel.solver.solve_many(b)[0])) % p
    return np.ascontiguousarray(null_space_rows(*rref(residues[:, ::-1], p), p)[::-1, ::-1])


def _subspaces(
    group: FiniteGroup, sub: Subgroup, chars: list[Character], p: int
) -> tuple[np.ndarray, np.ndarray]:
    """K's image and Ker(res) rows, read-only, through the LRU memo of
    (group, p) keyed by K's members."""
    memo = group.cached(("cup_res", p), OrderedDict)
    found = memo.get(sub.members)
    if found is not None:
        memo.move_to_end(sub.members)
        return found
    found = _freeze(lambda_image(group, chars, p).basis), _freeze(res_kernel_h2(group, sub, p))
    memo[sub.members] = found
    if len(memo) > MEMO_SIZE:
        memo.popitem(last=False)
    return found


@dataclass
class PropertyVerdict:
    holds: bool
    dim_image: int
    dim_kernel: int
    witness: np.ndarray | None  # class in the kernel but not the image


def has_property(
    group: FiniteGroup, chars: list[Character], p: int | None = None
) -> PropertyVerdict:
    """Exactness of H^1(G)^r -> H^2(G) -> H^2(K) at the middle term, with
    K recomputed from the character list; on failure carries a witness,
    the first kernel row outside the image."""
    sub = kernel_of_characters(chars, group)
    p = _modulus(chars, p)
    image, kernel = _subspaces(group, sub, chars, p)
    if image.shape[0] == kernel.shape[0]:
        return PropertyVerdict(True, image.shape[0], kernel.shape[0], None)
    # v is in the span of RREF rows R iff v == v[pivots] @ R
    pivots = (image != 0).argmax(axis=1)
    outside = np.flatnonzero(((kernel - kernel[:, pivots] @ image) % p).any(axis=1))
    witness = kernel[outside[0]].copy() if outside.size else None
    return PropertyVerdict(False, image.shape[0], kernel.shape[0], witness)


def property_for_subgroup(group: FiniteGroup, sub: Subgroup, p: int) -> PropertyVerdict:
    """The subgroup-level property, using the deterministic character list
    dual to G/K (any list with kernel K gives the same verdict)."""
    ring = get_ring(group, p)
    vals = ring.basis(1).rep_values  # (d, |G|)
    if len(vals):
        on_members = vals[:, list(sub.members)].T  # (|K|, d)
        coeffs = null_space_rows(*rref(on_members, p), p)
        picked = [ring.character_from_coords(v) for v in coeffs]
    else:
        picked = []
    if kernel_of_characters(picked, group).members != sub.members:
        raise ValueError("subgroup is not an intersection of character kernels")
    return has_property(group, picked, p)
