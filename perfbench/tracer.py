"""Spans and counters wrapped around masseybrauer's public functions.

The wrappers live here, in the benchmark, and are installed from outside:
nothing under src/ knows about them.  A span records (name, start, end,
parent); spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the time its child spans cover.

A name bound with ``from .x import y`` is a second reference to the same
function object, so every masseybrauer module dict that holds the original
gets the wrapper; otherwise calls through the rebound name go unseen (``rref``
is bound in both fp_linalg and cochain_dga, ``get_ring`` in massey,
cup_restriction and cli).  Hot leaves (cup, differential, hilbert_symbol,
is_local_square) are counted without a span so that tracing stays cheap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

LARGE_RREF_CELLS = 1 << 20

MODULES = (
    "fp_linalg", "cochain_dga", "group_core", "catalog", "massey",
    "cup_restriction", "unipotent", "brauer_q", "lgp_decompose", "cli",
)

# (owner module, attribute path, span name): .calls, .self_s and, unless in
# NO_ERRORS below, .errors
SPANS = [
    ("fp_linalg", "Solver.__init__", "fp_linalg.Solver"),
    ("fp_linalg", "Solver.solve", "fp_linalg.Solver.solve"),
    ("fp_linalg", "row_space_basis", "fp_linalg.row_space_basis"),
    ("fp_linalg", "in_row_space", "fp_linalg.in_row_space"),
    ("cochain_dga", "CohomologyBasis.coordinates", "cochain_dga.coordinates"),
    ("cochain_dga", "CohomologyBasis.coordinates_batch", "cochain_dga.coordinates_batch"),
    ("group_core", "FiniteGroup.__init__", "group_core.FiniteGroup"),
    ("group_core", "kernel_of_characters", "group_core.kernel_of_characters"),
    ("group_core", "Subgroup.as_group", "group_core.Subgroup.as_group"),
    ("catalog", "builtin_group", "catalog.builtin_group"),
    ("massey", "find_triple_defining_system", "massey.find_triple_defining_system"),
    ("massey", "indeterminacy_subspace", "massey.indeterminacy_subspace"),
    ("massey", "tilde", "massey.tilde"),
    ("cup_restriction", "has_property", "cup_restriction.has_property"),
    ("cup_restriction", "lambda_image", "cup_restriction.lambda_image"),
    ("cup_restriction", "res_kernel_h2", "cup_restriction.res_kernel_h2"),
    ("unipotent", "find_prescribed_hom", "unipotent.find_prescribed_hom"),
    ("brauer_q", "factorize", "brauer_q.factorize"),
    ("brauer_q", "BrauerClass2.local_invariants", "brauer_q.local_invariants"),
    ("lgp_decompose", "decompose", "lgp_decompose.decompose"),
    ("lgp_decompose", "find_v0", "lgp_decompose.find_v0"),
    ("lgp_decompose", "verify_certificate", "lgp_decompose.verify_certificate"),
    ("massey", "scan_vanishing", "massey.scan_vanishing"),
    ("fp_linalg", "Solver.solve_many", "fp_linalg.Solver.solve_many"),
    ("cochain_dga", "coboundary_matrix", "cochain_dga.coboundary_matrix"),
    ("unipotent", "UnipotentGroup.__init__", "unipotent.UnipotentGroup"),
    ("cochain_dga", "get_ring", "cochain_dga.get_ring"),
    ("lgp_decompose", "realize_as_cup", "lgp_decompose.realize_as_cup"),
    ("cli", "run", "cli.run"),
]

# counted without a span: (owner module, attribute path, counter name)
COUNTED = [
    ("cochain_dga", "cup", "cochain_dga.cup.calls"),
    ("cochain_dga", "differential", "cochain_dga.differential.calls"),
    ("brauer_q", "hilbert_symbol", "brauer_q.hilbert_symbol.calls"),
    ("brauer_q", "is_local_square", "brauer_q.is_local_square.calls"),
    ("cochain_dga", "CohomologyRing.__init__", "cochain_dga.rings_built"),
    ("unipotent", "build_unipotent", "unipotent.build_unipotent.calls"),
]

# Per-layer metrics: name -> (unit, better, kind).  kind is "measured" for
# times, "counted" for tallies of calls or results, and "computed" for counts
# derived from shapes; counted and computed values repeat bit for bit across
# runs of one commit.
PER_LAYER: dict[str, tuple[str, str, str]] = {}


def _declare(name, unit="count", better="lower", kind="counted"):
    PER_LAYER[name] = (unit, better, kind)


def _declare_span(name, errors=True):
    _declare(name + ".calls")
    _declare(name + ".self_s", "s", kind="measured")
    if errors:
        _declare(name + ".errors")


NO_ERRORS = {  # reported without an error count: callers pass only valid inputs
    "fp_linalg.Solver.solve_many", "cochain_dga.coboundary_matrix",
    "lgp_decompose.realize_as_cup", "cli.run", "unipotent.UnipotentGroup",
}
for _mod in MODULES:
    for _, _, _name in SPANS:
        if _name.startswith(_mod + "."):
            _declare_span(_name, errors=_name not in NO_ERRORS)
    if _mod == "fp_linalg":
        for _size in ("large", "small"):
            _declare_span("fp_linalg.rref." + _size, errors=False)
        _declare("fp_linalg.rref.large.ops", kind="computed")
        _declare("fp_linalg.rref.large.rate", "1/s", "higher", "measured")
        _declare("fp_linalg.Solver.solve_many.cols")
    elif _mod == "cochain_dga":
        _declare("cochain_dga.coboundary_matrix.bytes", "B", kind="computed")
        _declare("cochain_dga.ring_hit_ratio", "ratio", "higher")
        _declare("cochain_dga.basis.h1.self_s", "s", kind="measured")
        _declare_span("cochain_dga.basis.h2", errors=False)
    elif _mod == "massey":
        _declare("massey.triples")
        _declare("massey.defined_ratio", "ratio", "higher")
        _declare("massey.witnesses")
    elif _mod == "unipotent":
        _declare("unipotent.targets_built")
        _declare("unipotent.found_ratio", "ratio", "higher")
    elif _mod == "lgp_decompose":
        _declare("lgp_decompose.realize_as_cup.candidates")
        _declare("lgp_decompose.realize_as_cup.candidates_per_success")
    elif _mod == "cli":
        _declare("cli.import_s", "s", kind="measured")
for _, _, _name in COUNTED:
    _declare(_name)
# time of the timed phase by layer: self time, and the duration of the
# top-level calls an operation makes into its entry layer
ENTRY_MODULES = ("cochain_dga", "massey", "cup_restriction", "unipotent",
                 "lgp_decompose", "cli")
for _mod in MODULES:
    _declare(f"timed.{_mod}.self_s", "s", kind="measured")
for _mod in ENTRY_MODULES:
    _declare(f"timed.{_mod}.total_s", "s", kind="measured")
_declare("trace.wall_s", "s", kind="measured")


class Tracer:
    """In-memory span recorder.  One per process; not thread-safe (every
    workload runs one client on one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # span columns: name index, start, end, parent span (-1 at top level)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.paused = 0
        self.timed = False  # inside the timed phase: feeds timed.<module>.*
        self.timed_self: dict[str, float] = {}
        self.timed_total: dict[str, float] = {}  # top-level spans only
        self.child_spans: list[dict] = []  # spans of traced child processes

    # -- recording ---------------------------------------------------------

    def count(self, name: str, by: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def enter(self, name: str) -> None:
        sid = len(self.span_start)
        self.span_name.append(self._name_index(name))
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self.stack.append([sid, name, start, 0.0])

    def leave(self, name: str | None = None, error: bool = False) -> None:
        """Close the innermost span, renaming it if `name` is given."""
        end = time.perf_counter()
        sid, opened, start, child = self.stack.pop()
        name = name or opened
        if name != opened:
            self.span_name[sid] = self._name_index(name)
        self.span_end[sid] = end
        dur = end - start
        own = dur - child
        if self.stack:
            self.stack[-1][3] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if error:
            self.errors[name] = self.errors.get(name, 0) + 1
        if self.timed:
            mod = name.split(".", 1)[0]
            self.timed_self[mod] = self.timed_self.get(mod, 0.0) + own
            if not self.stack:
                self.timed_total[mod] = self.timed_total.get(mod, 0.0) + dur

    def active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    # -- output ------------------------------------------------------------

    def merge(self, data: dict) -> None:
        """Fold in what a traced child process wrote: its aggregates and,
        kept apart, its spans."""
        self.child_spans.append(data["spans"])
        for key, table in (("calls", self.calls), ("self_s", self.self_s),
                           ("errors", self.errors), ("counts", self.counts),
                           ("timed_self", self.timed_self),
                           ("timed_total", self.timed_total)):
            for name, v in data[key].items():
                table[name] = table.get(name, 0) + v

    def aggregates(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "errors": self.errors,
                "counts": self.counts, "timed_self": self.timed_self,
                "timed_total": self.timed_total}

    def span_columns(self) -> dict:
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump(dict(self.span_columns(), children=self.child_spans), fh)

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the run-level ones the caller adds
        (cli.import_s, trace.wall_s)."""
        out: dict[str, float] = {}
        for name in PER_LAYER:
            base, _, what = name.rpartition(".")
            if what == "calls" and base in self.calls:
                out[name] = self.calls[base]
            elif what == "self_s":
                out[name] = self.self_s.get(base, 0.0)
            elif what == "errors":
                out[name] = self.errors.get(base, 0)
            else:
                out[name] = self.counts.get(name, 0)
        for mod in MODULES:
            out[f"timed.{mod}.self_s"] = self.timed_self.get(mod, 0.0)
        for mod in ENTRY_MODULES:
            out[f"timed.{mod}.total_s"] = self.timed_total.get(mod, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        large = "fp_linalg.rref.large"
        out[large + ".rate"] = ratio(out[large + ".ops"], out[large + ".self_s"])
        out["cochain_dga.ring_hit_ratio"] = ratio(
            self.counts.get("cochain_dga.get_ring.hits", 0),
            out["cochain_dga.get_ring.calls"])
        out["massey.defined_ratio"] = ratio(
            self.counts.get("massey.defined", 0), out["massey.triples"])
        out["unipotent.found_ratio"] = ratio(
            self.counts.get("unipotent.found", 0),
            out["unipotent.find_prescribed_hom.calls"])
        cup_ = "lgp_decompose.realize_as_cup"
        out[cup_ + ".candidates_per_success"] = ratio(
            out[cup_ + ".candidates"], self.counts.get(cup_ + ".successes", 0))
        out["unipotent.targets_built"] = self.calls.get("unipotent.UnipotentGroup", 0)
        return out


# ---------------------------------------------------------------------------
# installation


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(original, wrapper, owner, attr) -> None:
    """Point the owner attribute and every masseybrauer module-level binding
    of `original` at `wrapper`."""
    setattr(owner, attr, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "masseybrauer" or mod_name.startswith("masseybrauer."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _span_wrapper(tr: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.paused:
            return fn(*args, **kwargs)
        tr.enter(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tr.leave(error=True)
            raise
        tr.leave()
        if after:
            after(out)
        return out

    return wrapper


def _count_wrapper(tr: Tracer, fn, name: str):
    counts = tr.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.paused:
            counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def install(tr: Tracer) -> None:
    """Wrap every traced function of an imported masseybrauer."""
    import importlib

    mods = {m: importlib.import_module("masseybrauer." + m) for m in MODULES}
    kernels = importlib.import_module("masseybrauer._kernels")

    def after_scan(report):
        tr.count("massey.triples", len(report.entries))
        tr.count("massey.defined", sum(1 for e in report.entries if e.defined))
        tr.count("massey.witnesses", len(report.witnesses))

    def after_solve_many(out):
        tr.count("fp_linalg.Solver.solve_many.cols", out[0].shape[1])

    def after_coboundary(m):
        tr.count("cochain_dga.coboundary_matrix.bytes", m.size * 8)

    def after_hom(hom):
        if hom is not None:
            tr.count("unipotent.found")

    def after_local_invariants(out):
        if tr.active("lgp_decompose.realize_as_cup"):
            tr.count("lgp_decompose.realize_as_cup.candidates")

    def after_realize(out):
        tr.count("lgp_decompose.realize_as_cup.successes")

    afters = {
        "massey.scan_vanishing": after_scan,
        "fp_linalg.Solver.solve_many": after_solve_many,
        "cochain_dga.coboundary_matrix": after_coboundary,
        "unipotent.find_prescribed_hom": after_hom,
        "brauer_q.local_invariants": after_local_invariants,
        "lgp_decompose.realize_as_cup": after_realize,
    }
    for owner_mod, path, name in COUNTED:
        owner, attr = _resolve(mods[owner_mod], path)
        fn = getattr(owner, attr)
        _rebind(fn, _count_wrapper(tr, fn, name), owner, attr)
    for owner_mod, path, name in SPANS:
        if name == "cochain_dga.get_ring":
            continue  # wrapped below: it also counts cache hits
        owner, attr = _resolve(mods[owner_mod], path)
        fn = getattr(owner, attr)
        _rebind(fn, _span_wrapper(tr, fn, name, afters.get(name)), owner, attr)

    # rref: one span split by size, with the computed operation count
    rref = kernels.rref

    @functools.wraps(rref)
    def traced_rref(a, p):
        if tr.paused:
            return rref(a, p)
        tr.enter("fp_linalg.rref")
        rows, cols = a.shape
        try:
            red, pivots = rref(a, p)
        except BaseException:
            tr.leave("fp_linalg.rref.small", error=True)
            raise
        if rows * cols >= LARGE_RREF_CELLS:
            tr.leave("fp_linalg.rref.large")
            tr.count("fp_linalg.rref.large.ops", len(pivots) * rows * cols)
        else:
            tr.leave("fp_linalg.rref.small")
        return red, pivots

    _rebind(rref, traced_rref, kernels, "rref")

    # get_ring: a call that built no ring was a cache hit
    get_ring = mods["cochain_dga"].get_ring

    @functools.wraps(get_ring)
    def traced_get_ring(group, p):
        if tr.paused:
            return get_ring(group, p)
        built = tr.counts.get("cochain_dga.rings_built", 0)
        tr.enter("cochain_dga.get_ring")
        try:
            ring = get_ring(group, p)
        except BaseException:
            tr.leave(error=True)
            raise
        tr.leave()
        if tr.counts.get("cochain_dga.rings_built", 0) == built:
            tr.count("cochain_dga.get_ring.hits")
        return ring

    _rebind(get_ring, traced_get_ring, mods["cochain_dga"], "get_ring")

    # basis(degree): the span name carries the degree
    ring_cls = mods["cochain_dga"].CohomologyRing
    basis = ring_cls.basis

    @functools.wraps(basis)
    def traced_basis(self, degree):
        if tr.paused:
            return basis(self, degree)
        tr.enter("cochain_dga.basis.h%d" % degree)
        try:
            out = basis(self, degree)
        except BaseException:
            tr.leave(error=True)
            raise
        tr.leave()
        return out

    ring_cls.basis = traced_basis
