"""Built-in groups addressable by name, and the desk-scale sweep lists used
by the verification suite."""

from __future__ import annotations

from .group_core import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    elementary_abelian,
    quaternion_group,
)
from .unipotent import build_unipotent

_cache: dict[str, FiniteGroup] = {}


def builtin_group(name: str) -> FiniteGroup:
    """Resolve a builtin group name.

    Names: cyclic:n, elab:p:k, dihedral:n (order 2n), quaternion8,
    unipotent:n:p, unipotent-bar:n:p.
    """
    if name in _cache:
        return _cache[name]
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "cyclic" and len(parts) == 2:
            g = cyclic_group(int(parts[1]))
        elif kind == "elab" and len(parts) == 3:
            g = elementary_abelian(int(parts[1]), int(parts[2]))
        elif kind == "dihedral" and len(parts) == 2:
            g = dihedral_group(int(parts[1]))
        elif kind == "quaternion8" and len(parts) == 1:
            g = quaternion_group()
        elif kind == "unipotent" and len(parts) == 3:
            g = build_unipotent(int(parts[1]), int(parts[2]))
        elif kind == "unipotent-bar" and len(parts) == 3:
            g = build_unipotent(int(parts[1]), int(parts[2]), bar=True)
        else:
            raise ValueError
    except ValueError as exc:
        if str(exc):
            raise
        raise ValueError(f"unknown builtin group {name!r}") from None
    _cache[name] = g
    return g


# groups of order <= 16 exercised at p = 2
SWEEP_P2 = [
    "cyclic:2",
    "cyclic:4",
    "cyclic:8",
    "cyclic:16",
    "elab:2:2",
    "elab:2:3",
    "elab:2:4",
    "dihedral:4",
    "dihedral:8",
    "quaternion8",
    "unipotent:2:2",
]

# groups of order <= 27 exercised at p = 3
SWEEP_P3 = [
    "cyclic:3",
    "cyclic:9",
    "cyclic:27",
    "elab:3:2",
    "elab:3:3",
    "unipotent:2:3",
]
