"""Outside-in tracing of rispa: wrap public functions at every name they are bound to.

rispa modules import several functions by name (``engines`` binds
``quantize_soft_with_grad``, ``quantize_hard`` and ``simulate``; ``dataio``
binds ``transfer_matrix`` and ``column_weights``; ``evalkit`` and ``cli`` bind
``simulate`` and ``derive_seed``). Patching only the defining module would
miss those callers and record zero calls, so ``Tracer.install`` replaces the
function object under every rispa module attribute that holds it.

Spans live in memory as (name, start, end, parent, amount) tuples and are
written out once, at the end of a run. ``amount`` is a per-call count that a
ratio needs: rows for the network passes, elements for the soft quantizer,
bytes for a saved dataset, and the scene's identity for the transfer matrix.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import statistics
import time

# span name -> (defining module, function name, per-call amount from the arguments, or None)
SPANS = {
    "quantizer.soft": ("rispa.quantizer", "quantize_soft_with_grad", lambda a: _size(a[0])),
    "quantizer.hard": ("rispa.quantizer", "quantize_hard", None),
    "engines.tandem_step": ("rispa.engines", "tandem_loss_and_grads", None),
    "engines.tandem_forward": ("rispa.engines", "tandem_forward", None),
    "engines.encode_phases": ("rispa.engines", "encode_phases", None),
    "engines.design_batch": ("rispa.engines", "design_batch", None),
    "engines.fse_predict": ("rispa.engines", "fse_predict", None),
    "engines.closed_loop_eval": ("rispa.engines", "closed_loop_eval", None),
    "neural.forward": ("rispa.neural", "forward", lambda a: _rows(a[1])),
    "neural.backward": ("rispa.neural", "backward", lambda a: _rows(a[1])),
    "neural.adam_step": ("rispa.neural", "adam_step", None),
    "scene.transfer_matrix": ("rispa.scene", "transfer_matrix", lambda a: id(a[0])),
    "scene.column_weights": ("rispa.scene", "column_weights", None),
    "scene.simulate": ("rispa.scene", "simulate", None),
    "dataio.collect": ("rispa.dataio", "collect", None),
    "dataio.derive_seed": ("rispa.dataio", "derive_seed", None),
    "dataio.save_scatter": ("rispa.dataio", "save_scatter", lambda a: os.path.getsize(a[1])),
    "dataio.load_scatter": ("rispa.dataio", "load_scatter", None),
    "evalkit.run_special_cases": ("rispa.evalkit", "run_special_cases", None),
    "evalkit.export_scatter": ("rispa.evalkit", "export_scatter", None),
    "evalkit.export_history": ("rispa.evalkit", "export_history", None),
}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Records nested spans while installed; ``install``/``uninstall`` swap the bindings."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, amount)
        self._stack = []
        self._patches = []   # (module, attribute, original)

    def span(self, name, fn, amount=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, 0)
            if amount is not None:
                self.spans[index] = (name, start, end, parent, amount(args))
            return result
        return wrapper

    def install(self) -> None:
        """Replace each traced function under every rispa attribute that holds it."""
        if self._patches:
            return
        package = importlib.import_module("rispa")
        modules = [package] + [importlib.import_module(f"rispa.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)]
        for name, (module_name, attr, amount) in SPANS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.span(name, original, amount)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches = []



def dump(records, path) -> None:
    """Write one JSON object per line; the shim writes bare spans, the worker whole passes."""
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record) + "\n")


def load_spans(path):
    with open(path, encoding="utf-8") as f:
        return [tuple(json.loads(line)) for line in f if line.strip()]


def aggregate(spans, out=None, process=0):
    """Per span name: calls, self seconds, amounts and per-call durations.

    Self time is a span's duration minus the durations of its direct children.
    Passing the result of an earlier call as ``out`` adds the spans of another
    process, named by ``process`` so that scene identities stay apart.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {} if out is None else out
    for i, (name, start, end, parent, amount) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "amount": 0,
                                    "durations": [], "ids": set()})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        agg["durations"].append(end - start)
        if name == "scene.transfer_matrix":
            agg["ids"].add((process, amount))
        else:
            agg["amount"] += amount
    return out


def _percentile_ms(durations, q):
    if len(durations) < 2:
        return durations[0] * 1e3 if durations else 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(agg) -> dict:
    """The per-layer metrics of one pass, from ``aggregate`` output; 0 where a span never ran."""
    def get(name, key):
        a = agg.get(name)
        return a[key] if a else 0

    m = {}
    for name in ("quantizer.soft", "quantizer.hard", "engines.tandem_step", "neural.forward",
                 "neural.backward", "neural.adam_step", "scene.transfer_matrix",
                 "scene.column_weights", "scene.simulate", "dataio.derive_seed"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in SPANS:
        m[f"{name}.self_s"] = get(name, "self_s")
    m["quantizer.soft.elements"] = get("quantizer.soft", "amount")
    m["neural.forward.rows"] = get("neural.forward", "amount")
    m["neural.backward.rows"] = get("neural.backward", "amount")
    m["dataio.save_scatter.bytes"] = get("dataio.save_scatter", "amount")
    steps = get("neural.adam_step", "calls")
    passes = get("neural.forward", "calls") + get("neural.backward", "calls")
    m["neural.passes_per_step"] = passes / steps if steps else 0.0
    scenes = len(agg["scene.transfer_matrix"]["ids"]) if "scene.transfer_matrix" in agg else 0
    m["scene.transfer_matrix.calls_per_scene"] = (
        get("scene.transfer_matrix", "calls") / scenes if scenes else 0.0)
    return m


def step_percentiles(durations) -> dict:
    """Median and 95th-percentile tandem-step time over all traced steps of a run."""
    return {
        "engines.tandem_step.ms_p50": _percentile_ms(durations, 50),
        "engines.tandem_step.ms_p95": _percentile_ms(durations, 95),
    }
