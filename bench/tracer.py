"""Outside-in tracer: spans around calls into the library's public functions.

No library source changes.  :meth:`Tracer.install` replaces each traced
function at every ``killingtensor`` module attribute that holds it — the
places callers look it up, such as ``killingtensor.integrability.
staged_symmetrise`` and ``killingtensor.oracle.sample_point`` — and
:meth:`Tracer.uninstall` puts the originals back.  Spans are kept in
memory and written out at the end.

A span's self time is its duration minus the time of its child spans.
Every ``*_s`` figure is summed self time, so the layers do not count the
same second twice.  Calls into ``_fastops`` made directly from another
layer also record the arrays they return: entry count, largest bit
length, and int64 -> object promotions.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# The library promotes int64 arrays once a bound reaches 2^62.
INT64_SAFE = 1 << 62

# (layer, module, attribute); "Class.method" wraps a method on the class.
TRACED = (
    ("cli", "killingtensor.cli", "main"),
    ("io.load", "killingtensor.io", "load_tensor"),
    ("io.report", "killingtensor.io", "report_to_document"),
    ("io.report", "killingtensor.io", "oracle_report_to_document"),
    ("integrability", "killingtensor.integrability", "check"),
    ("integrability", "killingtensor.integrability", "condition1_residual"),
    ("integrability", "killingtensor.integrability", "condition2_residual"),
    ("integrability", "killingtensor.integrability", "condition3_residual"),
    ("integrability", "killingtensor.integrability", "verify_identity_suite"),
    ("fastops.rescale", "killingtensor._fastops", "to_int_array"),
    ("fastops.contract", "killingtensor._fastops", "guarded_tensordot"),
    ("fastops.contract", "killingtensor._fastops", "guarded_add"),
    ("fastops.symmetrise", "killingtensor._fastops", "staged_symmetrise"),
    ("fastops.reduce", "killingtensor._fastops", "normalize_array"),
    ("fastops.reduce", "killingtensor._fastops", "content_reduce"),
    ("fastops.zero_test", "killingtensor._fastops", "is_zero_array"),
    ("fastops.support", "killingtensor._fastops", "canonical_nonzero_count"),
    ("fastops.to_fraction", "killingtensor._fastops", "to_tensor"),
    ("oracle", "killingtensor.oracle", "integrable_oracle"),
    ("oracle.point_data", "killingtensor.oracle", "compute_point_data"),
    ("oracle.residuals", "killingtensor.oracle", "tns_residuals"),
    ("models.sample", "killingtensor.models", "sample_point"),
    ("models.basis", "killingtensor.models", "tangent_basis"),
    ("curvature.generate", "killingtensor.curvature", "metric_rep"),
    ("curvature.generate", "killingtensor.curvature", "benenti_rep"),
    ("curvature.generate", "killingtensor.curvature", "family_rep"),
    ("curvature.generate", "killingtensor.curvature", "random_curvature"),
    ("curvature.generate", "killingtensor.curvature", "random_invertible_matrix"),
    ("curvature.generate", "killingtensor.curvature", "random_symmetric_form"),
    ("curvature.convert", "killingtensor.curvature", "r_to_s"),
    ("curvature.convert", "killingtensor.curvature", "s_to_r"),
    ("symgroup", "killingtensor.symgroup", "young_symmetriser"),
    ("symgroup", "killingtensor.symgroup", "GroupAlgebraElement.multiply"),
)

# Per-layer metrics: name -> (unit, source layer or counter).
TIME_METRICS = {
    "cli.self_s": "cli",
    "io.load_s": "io.load",
    "io.report_s": "io.report",
    "integrability.self_s": "integrability",
    "fastops.rescale_s": "fastops.rescale",
    "fastops.contract_s": "fastops.contract",
    "fastops.symmetrise_s": "fastops.symmetrise",
    "fastops.reduce_s": "fastops.reduce",
    "fastops.zero_test_s": "fastops.zero_test",
    "fastops.support_s": "fastops.support",
    "fastops.to_fraction_s": "fastops.to_fraction",
    "oracle.self_s": "oracle",
    "oracle.point_data_s": "oracle.point_data",
    "oracle.residuals_s": "oracle.residuals",
    "models.sample_s": "models.sample",
    "models.basis_s": "models.basis",
    "curvature.generate_s": "curvature.generate",
    "curvature.convert_s": "curvature.convert",
    "symgroup.s": "symgroup",
}
COUNT_METRICS = {
    "io.load_calls": "count",
    "oracle.points": "count",
    "tensor.objects": "count",
    "fastops.entries": "count",
    "fastops.int64_bytes": "B",
    "fastops.promotions": "count",
    "fastops.promotion_waste": "ratio",
    "fastops.max_bits": "bit",
}


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return max(abs(int(v)) for v in arr.flat)
    return int(np.abs(arr).max())


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1  # index of the running operation; -1 is set-up
        self.labels: list[str] = ["set-up"]
        self.spans: list[list] = []  # [op, layer, name, parent, start, end]
        self.self_s: dict[str, float] = defaultdict(float)
        self.self_by_label: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.promotions_by_label: dict[str, int] = defaultdict(int)
        self.tensor_objects = 0
        self.entries = 0
        self.max_bits = 0
        self.promotions = 0
        self.wasted_promotions = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index, child seconds, layer]
        self._undo: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "killingtensor" or name.startswith("killingtensor."))
        ]
        for layer, module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(method)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._replace(cls, method, self._wrap(layer, attr, original), original)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(layer, attr, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._replace(m, attr, wrapper, original)
        tensor_cls = sys.modules["killingtensor.tensor"].Tensor
        init = tensor_cls.__dict__["__init__"]

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            if self.active:
                self.tensor_objects += 1
            init(obj, *args, **kwargs)

        self._replace(tensor_cls, "__init__", counting_init, init)

    def _replace(self, owner: object, attr: str, new: object, old: object) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def start_op(self, label: str) -> None:
        self.labels.append(label)
        self.op = len(self.labels) - 2

    # -- spans ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        fast = layer.startswith("fastops.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            index = len(tracer.spans)
            span = [tracer.op, layer, name, parent[0] if parent else None, 0.0, 0.0]
            tracer.spans.append(span)
            frame = [index, 0.0, layer]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                label = tracer.labels[tracer.op + 1]
                tracer.self_s[layer] += own
                tracer.self_by_label[(label, layer)] += own
                tracer.calls[layer] += 1
                span[4], span[5] = start - tracer._origin, end - tracer._origin
                if parent is not None:
                    parent[1] += duration
            if fast and (parent is None or not parent[2].startswith("fastops.")):
                stats_start = time.perf_counter()
                tracer._record_arrays(args, result)
                if parent is not None:
                    # Keep the cost of inspecting arrays out of the caller's self time.
                    parent[1] += time.perf_counter() - stats_start
            return result

        return wrapper

    def _record_arrays(self, args: tuple, result: object) -> None:
        out = result[0] if isinstance(result, tuple) and result else result
        if not isinstance(out, np.ndarray):
            array = getattr(out, "array", None)  # a Fraction Tensor from to_tensor
            if isinstance(array, np.ndarray):
                self.entries += array.size
            return
        self.entries += out.size
        if out.dtype != object and not np.issubdtype(out.dtype, np.integer):
            return
        biggest = _max_abs(out)
        self.max_bits = max(self.max_bits, biggest.bit_length())
        inputs = [a for a in args if isinstance(a, np.ndarray)]
        if out.dtype == object and inputs and all(a.dtype != object for a in inputs):
            self.promotions += 1
            self.promotions_by_label[self.labels[self.op + 1]] += 1
            if biggest < INT64_SAFE:
                self.wasted_promotions += 1

    # -- report ---------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        out = {name: {"value": self.self_s.get(layer, 0.0), "unit": "s"} for name, layer in TIME_METRICS.items()}
        counts = {
            "io.load_calls": self.calls.get("io.load", 0),
            "oracle.points": self.calls.get("models.sample", 0),
            "tensor.objects": self.tensor_objects,
            "fastops.entries": self.entries,
            "fastops.int64_bytes": 8 * self.entries,
            "fastops.promotions": self.promotions,
            "fastops.promotion_waste": (
                self.wasted_promotions / self.promotions if self.promotions else 0.0
            ),
            "fastops.max_bits": self.max_bits,
        }
        for name, unit in COUNT_METRICS.items():
            out[name] = {"value": counts[name], "unit": unit}
        return out

    def by_label(self) -> dict[str, dict[str, float]]:
        table: dict[str, dict[str, float]] = defaultdict(dict)
        for (label, layer), seconds in self.self_by_label.items():
            table[label][layer] = seconds
        return dict(table)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["op", "layer", "function", "parent", "start_s", "end_s"],
            "ops": self.labels[1:],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
