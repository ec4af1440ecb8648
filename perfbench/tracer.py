"""Per-layer tracing from outside the package: wrappers around the public
functions of each spincover module, installed and removed by the benchmark.

A span wrapper records (name, start, end, parent, pass id) in column
arrays and keeps per-name call counts and self time (span duration minus
the time its child spans cover).  ``GaussianRational`` operators run
~10^5 times per pass, so they only count calls; their time stays in the
calling span's self time.

A wrapper replaces the function in every namespace where callers look it
up: the module attribute of every ``spincover`` module that imported it,
entries of module-level dicts (``verify._SUITE_RUNNERS``), and every class
attribute bound to the same function (``__rmul__ = __mul__``).
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

# (metric prefix, module, attribute path); metric prefixes drop the
# "spincover." and the leading underscore of "_kernels", since metric
# names start with a letter.
COUNTED = [
    ("scalars.GaussianRational.__mul__", "spincover.scalars", "GaussianRational.__mul__"),
    ("scalars.GaussianRational.__add__", "spincover.scalars", "GaussianRational.__add__"),
    ("scalars.GaussianRational.__sub__", "spincover.scalars", "GaussianRational.__sub__"),
    ("scalars.GaussianRational.__eq__", "spincover.scalars", "GaussianRational.__eq__"),
    ("scalars.GaussianRational.__hash__", "spincover.scalars", "GaussianRational.__hash__"),
]

SPANNED = [
    ("scalars.parse_complex", "spincover.scalars", "parse_complex"),
    ("scalars.parse_rational", "spincover.scalars", "parse_rational"),
    ("scalars.format_complex", "spincover.scalars", "format_complex"),
    ("cover.UnitaryMat2.__mul__", "spincover.cover", "UnitaryMat2.__mul__"),
    ("cover.UnitaryMat2.__init__", "spincover.cover", "UnitaryMat2.__init__"),
    ("cover.OrthogonalMat3.__mul__", "spincover.cover", "OrthogonalMat3.__mul__"),
    ("cover.covering_map", "spincover.cover", "covering_map"),
    ("cover.extended_covering_map", "spincover.cover", "extended_covering_map"),
    ("cover.quaternion_to_su2", "spincover.cover", "quaternion_to_su2"),
    ("cover.rational_unit_quaternion", "spincover.cover", "rational_unit_quaternion"),
    ("semidirect.compose", "spincover.semidirect", "compose"),
    ("semidirect.to_unitary", "spincover.semidirect", "to_unitary"),
    ("semidirect.from_unitary", "spincover.semidirect", "from_unitary"),
    ("semidirect.project_to_o3", "spincover.semidirect", "project_to_o3"),
    ("ptgroup.apply_symmetry", "spincover.ptgroup", "apply_symmetry"),
    ("ptgroup.spacetime_projection", "spincover.ptgroup", "spacetime_projection"),
    ("ptgroup.ray_project", "spincover.ptgroup", "ray_project"),
    ("ptgroup.SpinorSampleField.from_text", "spincover.ptgroup", "SpinorSampleField.from_text"),
    ("ptgroup.SpinorSampleField.to_text", "spincover.ptgroup", "SpinorSampleField.to_text"),
    ("verify.run_cover_suite", "spincover.verify", "run_cover_suite"),
    ("verify.run_semidirect_suite", "spincover.verify", "run_semidirect_suite"),
    ("verify.run_ptgroup_suite", "spincover.verify", "run_ptgroup_suite"),
    ("groups.FiniteGroup.__init__", "spincover.groups", "FiniteGroup.__init__"),
    ("groups.find_isomorphism", "spincover.groups", "find_isomorphism"),
    ("groups.double_group_verdict", "spincover.groups", "double_group_verdict"),
    ("groups.direct_product", "spincover.groups", "direct_product"),
    ("kernels.associativity_violation", "spincover._kernels", "associativity_violation"),
    ("kernels.latin_square_violation", "spincover._kernels", "latin_square_violation"),
    ("kernels.inverse_table", "spincover._kernels", "inverse_table"),
    ("kernels.element_orders", "spincover._kernels", "element_orders"),
    ("kernels.is_abelian", "spincover._kernels", "is_abelian"),
    ("kernels.find_isomorphism", "spincover._kernels", "find_isomorphism"),
    ("kernels.check_isomorphism", "spincover._kernels", "check_isomorphism"),
    ("cli.main", "spincover.cli", "main"),
]

# generate_closure gets one span name per backend.
CLOSURE = ("groups.generate_closure", "spincover.groups", "generate_closure")
CLOSURE_BACKENDS = ("exact", "approx")
PRODUCT = "cover.UnitaryMat2.__mul__"
SEARCH = "kernels.find_isomorphism"


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(f"{prefix}.calls", "count") for prefix, _, _ in COUNTED]
    spans = [prefix for prefix, _, _ in SPANNED]
    spans += [f"{CLOSURE[0]}.{backend}" for backend in CLOSURE_BACKENDS]
    for prefix in spans:
        names += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    names += [
        (f"{CLOSURE[0]}.exact.products_per_element", "count"),
        (f"{SEARCH}.found", "ratio"),
        ("trace.overhead_s", "s"),
    ]
    return names


def _resolve(module: str, path: str) -> tuple[object, str, object]:
    """(owner, attribute, raw value) for a module function or class member."""
    owner: object = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


def _spincover_namespaces() -> list[dict]:
    """Module dicts of the package, plus the dicts they hold at top level."""
    spaces = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "spincover" or name.startswith("spincover.")):
            continue
        spaces.append(vars(module))
        spaces += [v for v in vars(module).values() if type(v) is dict]
    return spaces


class Tracer:
    """Installs wrappers, records spans and per-pass counters."""

    def __init__(self) -> None:
        self.names = [prefix for prefix, _, _ in COUNTED + SPANNED]
        self.names += [f"{CLOSURE[0]}.{backend}" for backend in CLOSURE_BACKENDS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_pass = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.pass_id = 0
        self.closure_products = 0
        self.closure_elements = 0
        self.search_found = 0
        self._stack: list[list] = []  # [span index, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _call(self, nid: int, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_pass.append(self.pass_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.span_start[index] = start
            self.span_end[index] = end
            duration = end - start
            self.calls[nid] += 1
            self.self_s[nid] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def _span(self, nid: int, fn: Callable) -> Callable:
        call = self._call

        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        return wrapper

    def _counter(self, nid: int, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args):
            calls[nid] += 1
            return fn(*args)

        return wrapper

    def _closure(self, fn: Callable) -> Callable:
        ids = {b: self.ids[f"{CLOSURE[0]}.{b}"] for b in CLOSURE_BACKENDS}
        product_nid = self.ids[PRODUCT]
        signature = inspect.signature(fn)
        call = self._call

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            backend = bound.arguments["backend"]
            before = self.calls[product_nid]
            group = call(ids[backend], fn, args, kwargs)
            if backend == "exact":
                self.closure_products += self.calls[product_nid] - before
                self.closure_elements += group.order
            return group

        return wrapper

    def _search(self, nid: int, fn: Callable) -> Callable:
        call = self._call

        def wrapper(*args, **kwargs):
            mapping = call(nid, fn, args, kwargs)
            self.search_found += mapping is not None
            return mapping

        return wrapper

    # -- install / remove -----------------------------------------------

    def _patch(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr, raw = _resolve(module, path)
        if isinstance(raw, classmethod):
            replacement: object = classmethod(make(raw.__func__))
            self._set(owner, attr, raw, replacement)
            return
        replacement = make(raw)
        if isinstance(owner, type):
            # Every alias in the class body, e.g. __rmul__ = __mul__.
            for key, value in list(vars(owner).items()):
                if value is raw:
                    self._set(owner, key, raw, replacement)
            return
        for space in _spincover_namespaces():
            for key, value in list(space.items()):
                if value is raw:
                    self._set(space, key, raw, replacement)

    def _set(self, owner: object, key: str, original: object, replacement: object) -> None:
        if isinstance(owner, dict):
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def install(self) -> None:
        """Wrap every traced function; ``remove`` restores the originals."""
        for prefix, module, path in COUNTED:
            self._patch(module, path, lambda fn, i=self.ids[prefix]: self._counter(i, fn))
        for prefix, module, path in SPANNED:
            make = self._search if prefix == SEARCH else self._span
            self._patch(module, path, lambda fn, i=self.ids[prefix], make=make: make(i, fn))
        self._patch(CLOSURE[1], CLOSURE[2], self._closure)

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Cumulative counters, keyed by metric name."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out["closure_products"] = self.closure_products
        out["closure_elements"] = self.closure_elements
        out["search_found"] = self.search_found
        return out

    def write_spans(self, path: Path) -> None:
        """Columns as raw arrays in ``path`` (.bin) with a JSON header beside it."""
        columns = [
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("pass", self.span_pass),
            ("start", self.span_start),
            ("end", self.span_end),
        ]
        with open(path.with_suffix(".bin"), "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "columns": [{"name": n, "typecode": c.typecode, "itemsize": c.itemsize}
                        for n, c in columns],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
