"""The cup-product / restriction exactness test.

For characters chi_1..chi_r with common kernel K, the image of the
multi-linear map (phi_i) -> sum chi_i u phi_i always sits inside the kernel
of H^2(G) -> H^2(K); the property of interest is equality of the two
subspaces.  Whether it holds depends only on K, not on the character list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import rref
from .cochain_dga import get_ring
from .fp_linalg import null_space_rows
from .group_core import Character, FiniteGroup, Subgroup, kernel_of_characters


@dataclass
class LambdaImage:
    """Basis rows of sum_i chi_i u H^1(G) in H^2 coordinates."""

    basis: np.ndarray
    p: int

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def lambda_image(group: FiniteGroup, chars: list[Character], p: int | None = None) -> LambdaImage:
    """Image subspace of the map (phi_i) -> sum chi_i u phi_i."""
    if chars:
        p = chars[0].p
    elif p is None:
        raise ValueError("empty character list needs an explicit modulus")
    return LambdaImage(get_ring(group, p).cup_span(chars), p)


def res_kernel_h2(group: FiniteGroup, sub: Subgroup, p: int) -> np.ndarray:
    """Basis rows of Ker(res: H^2(G) -> H^2(K)) in H^2(G) coordinates.

    The matrix of res has one column per G-representative: its values on
    K x K, gathered from all representatives at once and solved for
    H^2(K) coordinates in one batch.  Its null space is read off one RREF
    of it with the columns reversed: there the null-space row of a free
    column f is 1 at f, 0 at the other free columns and 0 right of f, so
    with its columns reversed it leads with 1 at dim - 1 - f and is 0 at
    the other rows' leads; in reverse row order these rows are the RREF of
    the kernel."""
    h2 = get_ring(group, p).basis(2)
    if h2.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    k, emb = sub.as_group()
    reps = h2.rep_values.reshape(h2.dim, group.order, group.order)
    res = reps[:, emb[:, None], emb].reshape(h2.dim, -1).T
    coords = get_ring(k, p).basis(2).coordinates_batch(res)
    return np.ascontiguousarray(null_space_rows(*rref(coords[:, ::-1], p), p)[::-1, ::-1])


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
    K recomputed from the character list; on failure carries a witness."""
    sub = kernel_of_characters(chars, group)
    image = lambda_image(group, chars, p)
    p = image.p
    kernel = res_kernel_h2(group, sub, p)
    if image.dim == kernel.shape[0]:
        return PropertyVerdict(True, image.dim, kernel.shape[0], None)
    # v is in the span of RREF rows R iff v == v[pivots] @ R
    pivots = (image.basis != 0).argmax(axis=1)
    outside = np.flatnonzero(((kernel - kernel[:, pivots] @ image.basis) % p).any(axis=1))
    witness = kernel[outside[0]] if outside.size else None
    return PropertyVerdict(False, image.dim, kernel.shape[0], witness)


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
