"""Command-line frontend: JSON in, JSON out.

Subcommands: group cohomology | group massey | group scan-vanishing |
group cup-res | group u-hom | q hilbert | q invariants | q split |
q decompose | q verify.  Exit code 0 on success, 1 on a domain error
(reported as {"error": ...}), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

# only brauer_q is imported here; the handlers import the rest (the group
# engine with numpy, and lgp_decompose with dataclasses) when they run
from . import brauer_q
from .brauer_q import BrauerClass2, Place

if TYPE_CHECKING:
    from .group_core import FiniteGroup
    from .lgp_decompose import DecompositionCertificate

_SAFE = 1 << 53


def _js_int(n: int):
    """Integers beyond the 53-bit safe range are emitted as decimal strings."""
    n = int(n)
    return n if -_SAFE < n < _SAFE else str(n)


def _int(x) -> int:
    """A JSON integer, or a decimal string as `_js_int` writes one; floats,
    booleans and anything else are domain errors, never truncated."""
    if type(x) is int:
        return x
    if isinstance(x, str) and re.fullmatch("-?[0-9]+", x) and _js_int(int(x)) == x:
        return int(x)
    raise ValueError(f"expected an integer, got {json.dumps(x)}")


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a JSON list")
    return x


def _ints(x, what: str) -> list[int]:
    return [_int(v) for v in _list(x, what)]


def _place(x) -> Place:
    """A place as `_cert_json` writes one: "inf", or a prime as its
    canonical decimal string; JSON numbers, padding, signs and fractions
    are domain errors."""
    if x == "inf":
        return Place.real()
    if isinstance(x, str) and re.fullmatch("[0-9]+", x) and str(int(x)) == x:
        return Place.prime(int(x))
    raise ValueError(f"expected a place, got {json.dumps(x)}")


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, separators=(", ", ": "))
    sys.stdout.write("\n")


def _load_group(spec: str) -> FiniteGroup:
    import numpy as np

    from .catalog import builtin_group
    from .group_core import FiniteGroup, close_generators

    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            data = json.load(fh)
    elif spec.lstrip().startswith("{"):
        data = json.loads(spec)
    else:
        return builtin_group(spec)
    if not isinstance(data, dict):
        raise ValueError("group JSON must be an object")
    if "table" in data:
        rows = [_ints(row, "table row") for row in _list(data["table"], "table")]
        if any(len(row) != len(rows) or not all(0 <= x < len(rows) for x in row) for row in rows):
            raise ValueError("table must be square with entries in 0..order-1")
        return FiniteGroup(np.asarray(rows, dtype=np.int64))
    if "perm_degree" in data:
        degree = _int(data["perm_degree"])
        gens = []
        for images in _list(data.get("generators"), "generators"):
            images = _ints(images, "generator")
            if len(images) != degree:
                raise ValueError("generator has wrong degree")
            gens.append([i - 1 for i in images])  # 1-based on the wire
        return close_generators(gens)
    raise ValueError("group JSON needs 'table' or 'perm_degree'/'generators'")


def _load_chars(group: FiniteGroup, p: int, text: str):
    import numpy as np

    from .cochain_dga import get_ring

    ring = get_ring(group, p)
    dim = ring.basis(1).dim
    out = []
    for coords in _list(json.loads(text), "characters"):
        coords = [c % p for c in _ints(coords, "character coordinates")]
        if len(coords) != dim:
            raise ValueError(
                f"character coordinates must have length dim H^1 = {dim}"
            )
        out.append(ring.character_from_coords(np.asarray(coords, dtype=np.int64)))
    return out


def _inv_json(inv: dict[Place, Fraction]) -> list[dict]:
    return [
        {"place": str(v), "inv": "1/2"}
        for v in sorted(inv)
    ]


def _cert_json(cert: DecompositionCertificate) -> dict:
    return {
        "class": [[_js_int(a), _js_int(b)] for a, b in cert.symbols],
        "a_list": [_js_int(a) for a in cert.a_list],
        "x_list": [_js_int(x) for x in cert.x_list],
        "v0": None if cert.v0 is None else str(cert.v0),
        "adjusted_a_list": None
        if cert.adjusted_a_list is None
        else [_js_int(a) for a in cert.adjusted_a_list],
        "partition": [[str(v) for v in part] for part in cert.partition],
        "t_parities": cert.t_parities,
        "verified": True,
    }


def _symbols(x) -> list[tuple[int, int]]:
    pairs = [_ints(pair, "symbol") for pair in _list(x, "class")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("a symbol must be a pair [a, b]")
    return [(a, b) for a, b in pairs]


def _cert_from_json(data) -> DecompositionCertificate:
    from .lgp_decompose import DecompositionCertificate

    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    return DecompositionCertificate(
        symbols=_symbols(data.get("class")),
        a_list=_ints(data.get("a_list"), "a_list"),
        x_list=_ints(data.get("x_list"), "x_list"),
        v0=None if data.get("v0") is None else _place(data["v0"]),
        adjusted_a_list=None
        if data.get("adjusted_a_list") is None
        else _ints(data["adjusted_a_list"], "adjusted_a_list"),
        partition=[
            [_place(v) for v in _list(part, "partition part")]
            for part in _list(data.get("partition"), "partition")
        ],
        t_parities=_ints(data.get("t_parities"), "t_parities"),
    )


def _load_class(text: str) -> BrauerClass2:
    return BrauerClass2(_symbols(json.loads(text)))


# ---------------------------------------------------------------------------


def _cmd_group_cohomology(args) -> dict:
    from .cochain_dga import get_ring

    g = _load_group(args.group)
    basis = get_ring(g, args.p).basis(args.degree)
    return {
        "group_order": g.order,
        "p": args.p,
        "degree": args.degree,
        "dim": basis.dim,
        "representatives": [
            [int(x) for x in rep.flat()] for rep in basis.representatives
        ],
    }


def _cmd_group_massey(args) -> dict:
    from . import massey

    g = _load_group(args.group)
    chars = _load_chars(g, args.p, args.chars)
    if len(chars) != 3:
        raise ValueError("massey needs exactly three characters")
    coset = massey.triple_massey_set(*chars)
    if coset is None:
        return {"defined": False}
    return {
        "defined": True,
        "representative": [int(x) for x in coset.representative],
        "indeterminacy": [[int(x) for x in row] for row in coset.indeterminacy],
        "contains_zero": massey.contains_zero(coset),
    }


def _cmd_group_scan(args) -> dict:
    from . import massey

    g = _load_group(args.group)
    report = massey.scan_vanishing(g, args.p)
    return {
        "holds": report.holds,
        "witnesses": [
            {"triple": [list(c) for c in e.triple]} for e in report.witnesses
        ],
        "triples": [
            {
                "triple": [list(c) for c in e.triple],
                "defined": e.defined,
                "contains_zero": e.contains_zero,
            }
            for e in report.entries
        ],
    }


def _cmd_group_cupres(args) -> dict:
    from .cup_restriction import has_property

    g = _load_group(args.group)
    chars = _load_chars(g, args.p, args.chars)
    verdict = has_property(g, chars, args.p)
    out = {
        "holds": verdict.holds,
        "dim_image": verdict.dim_image,
        "dim_kernel": verdict.dim_kernel,
    }
    if verdict.witness is not None:
        out["witness"] = [int(x) for x in verdict.witness]
    return out


def _cmd_group_uhom(args) -> dict:
    from .unipotent import check_surjective, find_prescribed_hom

    g = _load_group(args.group)
    chars = _load_chars(g, args.p, args.chars)
    hom = find_prescribed_hom(g, chars, args.n, bar=args.bar)
    if hom is None:
        return {"found": False}
    gens = g.generating_set()
    target = hom.target
    return {
        "found": True,
        "surjective": check_surjective(hom),
        "generator_images": [
            [[int(x) for x in row] for row in target.matrices[hom.images[h]]]
            for h in gens
        ],
    }


def _cmd_q_hilbert(args) -> dict:
    return {
        "symbol": brauer_q.hilbert_symbol(args.a, args.b, Place.parse(args.place))
    }


def _cmd_q_invariants(args) -> dict:
    c = _load_class(args.cls)
    return {"invariants": _inv_json(c.local_invariants())}


def _cmd_q_split(args) -> dict:
    c = _load_class(args.cls)
    a_list = _ints(json.loads(args.a), "--a")
    return {"splits": brauer_q.splits_in_multiquadratic(c, a_list)}


def _cmd_q_decompose(args) -> dict:
    from .lgp_decompose import decompose

    c = _load_class(args.cls)
    a_list = _ints(json.loads(args.a), "--a")
    cert = decompose(c, a_list, aux_prime_bound=args.aux_prime_bound)
    return _cert_json(cert)


def _cmd_q_verify(args) -> dict:
    from .lgp_decompose import verify_certificate

    if args.cert.startswith("@"):
        with open(args.cert[1:]) as fh:
            data = json.load(fh)
    else:
        data = json.loads(args.cert)
    ok, reason = verify_certificate(_cert_from_json(data))
    return {"valid": ok, "reason": reason}


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masseybrauer",
        description="Exact group-cohomology / Brauer-class toolkit",
    )
    top = parser.add_subparsers(dest="engine", required=True)

    grp = top.add_parser("group", help="finite-group cohomology engine")
    gsub = grp.add_subparsers(dest="command", required=True)

    def group_common(sp):
        sp.add_argument("--group", required=True, help="builtin name, inline JSON, or @file")
        sp.add_argument("--p", type=int, required=True)

    sp = gsub.add_parser("cohomology")
    group_common(sp)
    sp.add_argument("--degree", type=int, choices=(1, 2), required=True)
    sp.set_defaults(func=_cmd_group_cohomology)

    sp = gsub.add_parser("massey")
    group_common(sp)
    sp.add_argument("--chars", required=True, help="JSON: three H^1 coordinate vectors")
    sp.set_defaults(func=_cmd_group_massey)

    sp = gsub.add_parser("scan-vanishing")
    group_common(sp)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=_cmd_group_scan)

    sp = gsub.add_parser("cup-res")
    group_common(sp)
    sp.add_argument("--chars", required=True, help="JSON: H^1 coordinate vectors")
    sp.set_defaults(func=_cmd_group_cupres)

    sp = gsub.add_parser("u-hom")
    group_common(sp)
    sp.add_argument("--chars", required=True, help="JSON: n H^1 coordinate vectors")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bar", action="store_true")
    sp.set_defaults(func=_cmd_group_uhom)

    qp = top.add_parser("q", help="Brauer classes over the rationals")
    qsub = qp.add_subparsers(dest="command", required=True)

    sp = qsub.add_parser("hilbert")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--place", required=True, help="'inf' or a prime")
    sp.set_defaults(func=_cmd_q_hilbert)

    sp = qsub.add_parser("invariants")
    sp.add_argument("--class", dest="cls", required=True, help="JSON: [[a, b], ...]")
    sp.set_defaults(func=_cmd_q_invariants)

    sp = qsub.add_parser("split")
    sp.add_argument("--class", dest="cls", required=True)
    sp.add_argument("--a", required=True, help="JSON: [a_1, ..., a_r]")
    sp.set_defaults(func=_cmd_q_split)

    sp = qsub.add_parser("decompose")
    sp.add_argument("--class", dest="cls", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument(
        "--aux-prime-bound",
        type=int,
        default=brauer_q.DEFAULT_AUX_PRIME_BOUND,
    )
    sp.set_defaults(func=_cmd_q_decompose)

    sp = qsub.add_parser("verify")
    sp.add_argument("--cert", required=True, help="inline JSON or @file")
    sp.set_defaults(func=_cmd_q_verify)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(args.func(args))
        return 0
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc)})
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
