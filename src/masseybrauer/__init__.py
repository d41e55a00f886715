"""masseybrauer: exact mod-p group cohomology (cup products, triple Massey
products, unipotent homomorphism searches) and constructive decomposition of
2-torsion Brauer classes over Q split by multiquadratic extensions.

The package imports lazily (PEP 562): a public name is imported from its
home module on first access and then kept in the package namespace.  So
`import masseybrauer` loads no submodule, and code that only touches the
Brauer side (`brauer_q`, `lgp_decompose`) never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports through the package
_EXPORTS = {
    "brauer_q": (
        "BrauerClass2", "Place", "QuaternionSymbol", "classes_equal",
        "hilbert_symbol", "is_local_square", "local_invariants",
        "splits_in_multiquadratic",
    ),
    "catalog": ("builtin_group",),
    "cochain_dga": (
        "Cochain", "CohomologyBasis", "CohomologyRing", "class_coordinates",
        "cohomology", "cup", "differential", "get_ring", "restrict",
    ),
    "cup_restriction": ("has_property", "lambda_image", "res_kernel_h2"),
    "fp_linalg": (
        "FpMatrix", "FpVector", "kernel_basis", "membership", "solve_linear",
    ),
    "group_core": (
        "Character", "FiniteGroup", "Subgroup", "close_generators",
        "cyclic_group", "dihedral_group", "direct_product",
        "elementary_abelian", "frattini_p_quotient", "kernel_of_characters",
        "quaternion_group",
    ),
    "lgp_decompose": (
        "DecompositionCertificate", "decompose", "decompose_biquadratic",
        "find_v0", "partition_support", "realize_as_cup", "verify_certificate",
    ),
    "massey": (
        "DefiningSystem", "MasseyCoset", "contains_zero",
        "find_triple_defining_system", "scan_vanishing", "tilde",
        "triple_massey_set",
    ),
    "unipotent": (
        "GroupHom", "UnipotentGroup", "build_unipotent", "check_surjective",
        "find_prescribed_hom", "frattini_criterion", "gamma_from_system",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
