"""Span tracing of compactdet's public functions, installed from outside.

``Tracer.install`` replaces every public function and public method of the
layer modules, at every name its callers look it up under (a module global
bound by ``from .x import f`` or the defining module's attribute), with a
wrapper that records a span: name, start, end, parent span.  ``uninstall``
puts the originals back, so untraced operations run the unmodified code.

Two deliberate holes:

* ``tensor_core`` calls inside ``tensor_core`` stay unwrapped: kernels are
  leaf spans, and their internal helpers (``depthwise_conv2d`` calling
  ``conv2d``, ``as_tensor``) count as the kernel's own time.
* ``detection.iou`` runs once per box pair inside ``nms`` (millions of calls
  on a dense frame); a span per call would swamp the run, so its time stays
  in ``nms``'s self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "detection", "arch_graph", "nn_modules", "tensor_core", "complexity", "explorer")
UNTRACED = frozenset({"detection.iou"})
LEAF_LAYER = "tensor_core"


def _conv_name(args, kwargs):
    weights = args[1] if len(args) > 1 else kwargs["w"]
    if weights.groups == 1:
        return f"tensor_core.conv2d.k{weights.k}"
    return "tensor_core.conv2d.grouped"


def _kernel_shapes(args, kwargs, result):
    weights = args[1] if len(args) > 1 else kwargs["w"]
    return (args[0].shape, weights.kernel.shape, result.shape)


def _out_shape(args, kwargs, result):
    return result.shape


def _nms_counts(args, kwargs, result):
    return (len(args[0]), len(result))


def _result_len(args, kwargs, result):
    return len(result)


def _keep_result(args, kwargs, result):
    return result


# Span names computed from the arguments, and what a span keeps of its call.
NAMERS = {"tensor_core.conv2d": _conv_name}
HOOKS = {
    "tensor_core.conv2d": _kernel_shapes,
    "tensor_core.depthwise_conv2d": _kernel_shapes,
    "tensor_core.leaky_relu": _out_shape,
    "detection.nms": _nms_counts,
    "detection.decode_predictions": _result_len,
    "arch_graph.execute": _keep_result,
    "explorer.explore": _keep_result,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"compactdet.{layer}") for layer in LAYERS}
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []  # (owner, attribute, original value)
        self._functions = {}  # id(original function) -> wrapper
        self._methods = []    # (class, attribute, wrapped descriptor)
        self._collect()

    def _wrap(self, qualname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = NAMERS.get(qualname)
        hook = HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(namer(args, kwargs) if namer else qualname, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return wrapper

    def _collect(self):
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    qualname = f"{layer}.{name}"
                    if qualname not in UNTRACED:
                        self._functions[id(obj)] = self._wrap(qualname, obj)
                elif inspect.isclass(obj):
                    self._collect_methods(layer, obj)

    def _collect_methods(self, layer: str, cls):
        for attr, raw in vars(cls).items():
            if attr.startswith("_"):
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(qualname, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(qualname, raw)
            else:
                continue
            self._methods.append((cls, attr, wrapped))

    def install(self):
        if self._undo:
            return
        for layer, module in self.modules.items():
            for name, value in list(vars(module).items()):
                wrapper = self._functions.get(id(value))
                if wrapper is None:
                    continue
                if layer == LEAF_LAYER and value.__module__ == module.__name__:
                    continue
                self._undo.append((module, name, value))
                setattr(module, name, wrapper)
        for cls, attr, wrapped in self._methods:
            self._undo.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def call(self, fn, *args):
        """Run fn with tracing on; returns (result, its spans, its seconds)."""
        self.spans.clear()
        self.install()
        try:
            start = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - start
        finally:
            self.uninstall()
        return result, list(self.spans), seconds


def self_times(spans: list) -> dict:
    """Per span name: [self seconds, calls]."""
    child = {}
    for span in spans:
        if span.parent is not None:
            child[id(span.parent)] = child.get(id(span.parent), 0.0) + span.duration
    out: dict = {}
    for span in spans:
        entry = out.setdefault(span.name, [0.0, 0])
        entry[0] += span.duration - child.get(id(span), 0.0)
        entry[1] += 1
    return out


def children(spans: list, parent) -> list:
    return [s for s in spans if s.parent is parent]
