"""Spans and counts at the boundaries of the ``skewlin`` modules.

``install`` replaces, from outside the library, every public function of
each ``skewlin`` module and every public method (plus the arithmetic and
call operators, and ``FiniteField.__init__``) of the classes those modules
define with a wrapper that records one span: name, parent span, start and
end.  A function imported by name into another module (``from .skew import
gcldf``) is replaced there too, so every call path is seen.  Private
helpers are not wrapped; their time is self time of the public caller.
``uninstall`` puts every original object back.

Spans are kept in flat arrays and written out once, at the end.  Only the
traced run imports this module; timed runs never do.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter

MODULES = (
    "fields",
    "_fppoly",
    "_linalg",
    "fqpoly",
    "linpoly",
    "skew",
    "decompose",
    "hfe",
    "serialize",
    "cli",
)
OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "__call__"}
EXTRA = {("FiniteField", "__init__")}

# Per-layer metrics, in BENCHMARK.json order, with their units.  Metric
# names drop the leading underscore of the private modules _fppoly and
# _linalg (a metric name starts with a letter); span names keep it.
PER_LAYER = (
    ("fields.mul_calls", "count"),
    ("fields.add_calls", "count"),
    ("fields.inv_calls", "count"),
    ("fields.frobenius_calls", "count"),
    ("fields.self_s", "s"),
    ("fields.construct_s", "s"),
    ("fppoly.calls", "count"),
    ("fppoly.self_s", "s"),
    ("linalg.nullspace_calls", "count"),
    ("linalg.solve_calls", "count"),
    ("linalg.self_s", "s"),
    ("linpoly.eval_calls", "count"),
    ("linpoly.compose_calls", "count"),
    ("linpoly.reduce_calls", "count"),
    ("linpoly.matrix_calls", "count"),
    ("linpoly.self_s", "s"),
    ("skew.mul_calls", "count"),
    ("skew.divmod_right_calls", "count"),
    ("skew.divmod_left_calls", "count"),
    ("skew.gcd_calls", "count"),
    ("skew.gcldf_calls", "count"),
    ("skew.division_checks", "count"),
    ("skew.self_s", "s"),
    ("decompose.split_once_calls", "count"),
    ("decompose.eigen_ring_calls", "count"),
    ("decompose.eigen_ring_s", "s"),
    ("decompose.eigen_dim_mean", "dim"),
    ("decompose.minimal_polynomial_calls", "count"),
    ("decompose.minimal_polynomial_s", "s"),
    ("decompose.zero_divisor_calls", "count"),
    ("decompose.zero_divisor_s", "s"),
    ("decompose.zero_divisor_yield", "ratio"),
    ("decompose.sweep_s", "s"),
    ("decompose.uncertified_leaves", "count"),
    ("hfe.keygen_s", "s"),
    ("hfe.core_table_s", "s"),
    ("hfe.encrypt_s", "s"),
    ("hfe.decrypt_s", "s"),
    ("hfe.difference_poly_calls", "count"),
    ("hfe.difference_poly_s", "s"),
    ("hfe.try_left_factor_calls", "count"),
    ("hfe.try_left_factor_s", "s"),
    ("hfe.attack_rounds", "count"),
    ("hfe.self_s", "s"),
    ("serialize.self_s", "s"),
    ("serialize.bytes_out", "B"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.spawn_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Span names behind the call counts and inclusive times above.
CALLS = {
    "fields.mul_calls": ("fields.FqElem.__mul__",),
    "fields.add_calls": ("fields.FqElem.__add__", "fields.FqElem.__sub__"),
    "fields.inv_calls": ("fields.FqElem.inv",),
    "fields.frobenius_calls": ("fields.FqElem.frobenius",),
    "linalg.nullspace_calls": ("_linalg.nullspace",),
    "linalg.solve_calls": ("_linalg.solve", "_linalg.solve_field"),
    "linpoly.eval_calls": ("linpoly.LinPoly.__call__",),
    "linpoly.compose_calls": ("linpoly.LinPoly.compose",),
    "linpoly.reduce_calls": ("linpoly.LinPoly.reduce",),
    "linpoly.matrix_calls": ("linpoly.LinPoly.to_matrix", "linpoly.LinPoly.from_matrix"),
    "skew.mul_calls": ("skew.SkewPoly.__mul__",),
    "skew.divmod_right_calls": ("skew.SkewPoly.divmod_right",),
    "skew.divmod_left_calls": ("skew.SkewPoly.divmod_left",),
    "skew.gcd_calls": ("skew.gcd_left", "skew.gcd_right"),
    "skew.gcldf_calls": ("skew.gcldf",),
    "decompose.split_once_calls": ("decompose.split_once",),
    "decompose.eigen_ring_calls": ("decompose.eigen_ring",),
    "decompose.minimal_polynomial_calls": ("decompose.minimal_polynomial",),
    "decompose.zero_divisor_calls": ("decompose.find_zero_divisor",),
    "hfe.difference_poly_calls": ("hfe.difference_poly",),
    "hfe.try_left_factor_calls": ("hfe.try_left_factor",),
}
INCLUSIVE = {
    "fields.construct_s": "fields.FiniteField.__init__",
    "decompose.eigen_ring_s": "decompose.eigen_ring",
    "decompose.minimal_polynomial_s": "decompose.minimal_polynomial",
    "decompose.zero_divisor_s": "decompose.find_zero_divisor",
    "hfe.keygen_s": "hfe.hfe_keygen",
    "hfe.core_table_s": "hfe.HFESecretKey.core_table",
    "hfe.encrypt_s": "hfe.hfe_encrypt",
    "hfe.decrypt_s": "hfe.hfe_decrypt",
    "hfe.difference_poly_s": "hfe.difference_poly",
    "hfe.try_left_factor_s": "hfe.try_left_factor",
}
LAYERS = ("fields", "_fppoly", "_linalg", "linpoly", "skew", "decompose", "hfe", "serialize")


def _tally_eigen(tallies, result):
    tallies["eigen_dim_sum"] = tallies.get("eigen_dim_sum", 0) + result.dim


def _tally_zero_divisor(tallies, result):
    if result is not None:
        tallies["zero_divisors_found"] = tallies.get("zero_divisors_found", 0) + 1


def _tally_split(tallies, result):
    if getattr(result, "certified", True) is False:
        tallies["uncertified_leaves"] = tallies.get("uncertified_leaves", 0) + 1


def _tally_attack(tallies, outcome):
    rounds = getattr(outcome, "rounds", None)
    if rounds is None:
        rounds = getattr(outcome, "rounds_used", 0)
    tallies["attack_rounds"] = tallies.get("attack_rounds", 0) + rounds


def _tally_dumps(tallies, result):
    tallies["bytes_out"] = tallies.get("bytes_out", 0) + len(result.encode())


# Result-dependent counts, keyed by span name.
TALLY_ON_RAISE = {"hfe.gcldf_attack"}  # also counts the AttackFailedError raised
TALLIES = {
    "decompose.eigen_ring": _tally_eigen,
    "decompose.find_zero_divisor": _tally_zero_divisor,
    "decompose.split_once": _tally_split,
    "hfe.gcldf_attack": _tally_attack,
    "serialize.dumps": _tally_dumps,
}


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tallies: dict[str, int] = {}
        self.stack: list[int] = []
        self.enabled = True
        self.patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        tally = TALLIES.get(name)
        tally_raise = tally if name in TALLY_ON_RAISE else None
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = perf_counter()
                stack.pop()
                if tally_raise is not None and isinstance(exc, Exception):
                    tally_raise(tracer.tallies, exc)
                raise
            ends[sid] = perf_counter()
            stack.pop()
            if tally is not None:
                tally(tracer.tallies, result)
            return result

        return traced

    # ------------------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("skewlin")
        modules = [importlib.import_module(f"skewlin.{m}") for m in MODULES]
        replaced: dict[int, tuple] = {}  # id of an original -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _public_function(attr, obj):
                    new = self.wrap(obj, f"{short}.{attr}")
                    replaced[id(obj)] = (obj, new)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(short, obj)
        for mod in (package, *modules):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _install_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if not (
                attr in OPERATORS
                or (cls.__name__, attr) in EXTRA
                or not attr.startswith("_")
            ):
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue  # properties, constants, generators
            new = self.wrap(fn, f"{short}.{cls.__name__}.{attr}")
            self._patch(cls, attr, new if fn is raw else type(raw)(new))

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls and inclusive time per span name, self time per layer."""
        n = len(self.name)
        child = [0.0] * n
        names, parent, start, end = self.name, self.parent, self.start, self.end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_by_layer: dict[str, float] = {}
        per_name_calls = [0] * len(self.names)
        per_name_incl = [0.0] * len(self.names)
        per_name_self = [0.0] * len(self.names)
        for sid in range(n):
            nid = names[sid]
            dur = end[sid] - start[sid]
            per_name_calls[nid] += 1
            per_name_incl[nid] += dur
            per_name_self[nid] += dur - child[sid]
        for nid, name in enumerate(self.names):
            if not per_name_calls[nid]:
                continue
            calls[name] = per_name_calls[nid]
            incl[name] = per_name_incl[nid]
            layer = name.split(".", 1)[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + per_name_self[nid]
        sweep = self._ids.get("decompose.split_once")
        return {
            "calls": calls,
            "incl": incl,
            "self": self_by_layer,
            "tallies": dict(self.tallies),
            "sweep_s": per_name_self[sweep] if sweep is not None else 0.0,
        }

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for sid in range(len(self.name)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.name[sid]]}\t"
                    f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )


def _public_function(attr: str, fn) -> bool:
    return not attr.startswith("_") and not inspect.isgeneratorfunction(fn)


def merge(total: dict, part: dict) -> dict:
    """Add the aggregate ``part`` into ``total``: a traced process and its
    CLI children each contribute one."""
    for key, value in part.items():
        if isinstance(value, dict):
            dst = total.setdefault(key, {})
            for name, v in value.items():
                dst[name] = dst.get(name, 0) + v
        else:
            total[key] = total.get(key, 0) + value
    return total


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics (all but trace.overhead_ratio) from an aggregate."""
    calls, incl = agg.get("calls", {}), agg.get("incl", {})
    selfs, tallies = agg.get("self", {}), agg.get("tallies", {})
    out: dict[str, float] = {}
    for metric, names in CALLS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    for metric, name in INCLUSIVE.items():
        out[metric] = incl.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer.lstrip('_')}.self_s"] = selfs.get(layer, 0.0)
    out["fppoly.calls"] = sum(v for k, v in calls.items() if k.startswith("_fppoly."))
    eigen = calls.get("decompose.eigen_ring", 0)
    out["decompose.eigen_dim_mean"] = tallies.get("eigen_dim_sum", 0) / eigen if eigen else 0.0
    zd = calls.get("decompose.find_zero_divisor", 0)
    out["decompose.zero_divisor_yield"] = (
        tallies.get("zero_divisors_found", 0) / zd if zd else 0.0
    )
    out["decompose.sweep_s"] = agg.get("sweep_s", 0.0)
    out["decompose.uncertified_leaves"] = tallies.get("uncertified_leaves", 0)
    out["hfe.attack_rounds"] = tallies.get("attack_rounds", 0)
    out["serialize.bytes_out"] = tallies.get("bytes_out", 0)
    out["skew.division_checks"] = agg.get("division_checks", 0)
    out["cli.import_s"] = agg.get("cli_import_s", 0.0)
    out["cli.main_s"] = agg.get("cli_main_s", 0.0)
    out["cli.spawn_s"] = agg.get("cli_spawn_s", 0.0)
    return out
