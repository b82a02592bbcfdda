"""Span tracing for the traced benchmark run, applied from outside the program.

Every layer is a public function or method of ``sarsizer``.  The tracer
replaces each name in ``LAYERS`` with a wrapper that records a span (layer,
start, end, parent span, operation), keeps the spans in memory, and puts
the original back on ``uninstall``.  A name is patched where its caller
looks it up (``from .rng import noise_matrix`` binds a second name in
``sarsizer.adc``), so one function can appear under several pairs.  The
layer a span belongs to is named after the module and qualified name that
define the function, so ``sarsizer.sndr.convert_batch`` records as
``adc.convert_batch``.  A pair that no longer resolves is listed in
``absent`` instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

# (module the caller looks the name up in, attribute): the table every
# traced-run wrapper comes from.
LAYERS = (
    ("sarsizer.adc", "noise_matrix"),
    ("sarsizer.sndr", "noise_matrix"),
    ("sarsizer.sndr", "convert_batch"),
    ("sarsizer.coarse", "convert"),
    ("sarsizer.problem", "evaluate_coarse"),
    ("sarsizer.pipeline", "evaluate_coarse"),
    ("sarsizer.pipeline", "run_global"),
    ("sarsizer.global_opt", "IdwSurrogate.predict"),
    ("sarsizer.global_opt", "de_offspring"),
    ("sarsizer.global_opt", "surrogate_rank"),
    ("sarsizer.pipeline", "run_local"),
    ("sarsizer.local_opt", "run_local"),
    ("sarsizer.problem", "ExpensiveObjective.__call__"),
    ("sarsizer.sndr", "run_segments"),
    ("sarsizer.problem", "run_segments"),
    ("sarsizer.pipeline", "run_segments"),
    ("sarsizer.sndr", "spectrum_metrics"),
    ("sarsizer.problem", "spectrum_metrics"),
    ("sarsizer.pipeline", "spectrum_metrics"),
    ("sarsizer.pipeline", "persist_run"),
    ("sarsizer.pipeline", "audit_run"),
)

# Layers whose work is counted in samples: (parameter name, position) of
# the array whose length is the sample count.
SAMPLE_ARGS = {
    "rng.noise_matrix": ("indices", 1),
    "adc.convert_batch": ("v_sampled", 1),
}


def layer_name(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{fn.__qualname__.removesuffix('.__call__')}"


def _sample_count(layer: str, args: tuple, kwargs: dict) -> int:
    spec = SAMPLE_ARGS.get(layer)
    if spec is None:
        return 0
    name, pos = spec
    try:
        return len(kwargs[name] if name in kwargs else args[pos])
    except (IndexError, TypeError):
        return 0


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: int = 0


class Tracer:
    """In-memory spans around the layers in ``LAYERS``.

    ``observers`` maps a layer name to a callable receiving
    ``(args, kwargs, result)`` after each call, for measurements that need
    a layer's inputs and outputs rather than its time.
    """

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.spans: list[list] = []   # [layer, start, end, parent, op, samples]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op = -1

    def install(self) -> None:
        self.absent = []
        for module, attribute in LAYERS:
            *owner_path, name = attribute.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attribute}")
                continue
            setattr(owner, name, self._wrap(original))
            self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def _wrap(self, fn):
        layer = layer_name(fn)
        observer = self.observers.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self._op,
                    _sample_count(layer, args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op: int, name: str):
        """Root span of one benchmark operation: whatever the layers do not
        cover is its self time."""
        self._op = op
        span = [name, 0.0, 0.0, -1, op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def stats(self) -> dict[str, LayerStats]:
        """Per-layer calls, inclusive and self seconds, and samples.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, LayerStats] = {}
        for (layer, start, end, _, _, samples), children in zip(self.spans, child_s):
            s = out.setdefault(layer, LayerStats())
            s.calls += 1
            s.total_s += end - start
            s.self_s += end - start - children
            s.samples += samples
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["layer", "start_s", "end_s", "parent", "op", "samples"],
            "absent": self.absent,
            "spans": self.spans,
        }, separators=(",", ":")))
