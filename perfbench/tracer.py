"""Span tracer that wraps wxhier's public functions from outside the package.

``Tracer.install`` replaces each target function with a timing wrapper in
every loaded ``wxhier`` module that binds it, so modules that imported the
function by name (``hierarchy`` binds ``decode_ppm``, ``resize_lanczos`` and
``forward_pass``) are traced too.  ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.

Every call records a span ``(name, start_ns, end_ns, parent, op)`` where
``parent`` is the index of the enclosing span (-1 at the top) and ``op`` is
the index of the top-level span it belongs to, so spans of one operation
share an identifier.  Per-name totals (calls, busy time, self time, failed
calls and hook-supplied quantities) are kept as calls finish; self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# (module under wxhier, function name) pairs the benchmark reports on.
TARGETS = (
    ("imageio", "decode_ppm"),
    ("preprocess", "resize_lanczos"),
    ("preprocess", "normalize"),
    ("preprocess", "compute_stats"),
    ("dataset", "load_manifest"),
    ("dataset", "stratified_split"),
    ("nn.layers", "conv2d_forward"),
    ("nn.layers", "conv2d_backward"),
    ("nn.layers", "batchnorm_forward"),
    ("nn.layers", "batchnorm_backward"),
    ("nn.layers", "relu_forward"),
    ("nn.layers", "relu_backward"),
    ("nn.layers", "avgpool_forward"),
    ("nn.layers", "avgpool_backward"),
    ("nn.layers", "dropout_forward"),
    ("nn.layers", "dense_forward"),
    ("nn.layers", "dense_backward"),
    ("nn.layers", "softmax_forward"),
    ("nn.model", "forward_pass"),
    ("nn.model", "backward_from_logits"),
    ("nn.train", "train"),
    ("nn.modelio", "model_from_bytes"),
    ("nn.modelio", "model_to_bytes"),
    ("hierarchy", "load_image_tensors"),
    ("hierarchy", "predict_batch"),
    ("hierarchy", "predict_hierarchical"),
    ("hierarchy", "train_hierarchical"),
    ("hierarchy", "load_hierarchical"),
    ("hierarchy", "save_hierarchical"),
    ("hierarchy", "bundle_content_hash"),
    ("evaluate", "evaluate_hierarchical"),
    ("evaluate", "evaluate_hierarchical_tensors"),
    ("cli", "main"),
)

TARGET_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)


def _conv_counts(x, kernels, out_shape, passes: int) -> tuple[float, float]:
    """FLOPs and bytes of one conv GEMM pass set, computed from the shapes."""
    n, oh, ow, f = out_shape
    k, c = kernels.shape[0], kernels.shape[2]
    return 2.0 * passes * n * oh * ow * k * k * c * f, float(x.nbytes + kernels.nbytes)


def _conv_forward(args, kwargs, out):
    flops, nbytes = _conv_counts(args[0], args[1], out.shape, 1)
    return {"gflop": flops / 1e9, "mb_moved": (nbytes + args[2].nbytes + out.nbytes) / 1e6}


def _conv_backward(args, kwargs, out):
    grad_out = args[2]
    flops, nbytes = _conv_counts(args[0], args[1], grad_out.shape, 2)
    moved = nbytes + grad_out.nbytes + sum(a.nbytes for a in out)
    return {"gflop": flops / 1e9, "mb_moved": moved / 1e6}


def _dense_forward(args, kwargs, out):
    x, w, b = args[0], args[1], args[2]
    flops = 2.0 * x.shape[0] * w.shape[0] * w.shape[1]
    return {"gflop": flops / 1e9, "mb_moved": (x.nbytes + w.nbytes + b.nbytes + out.nbytes) / 1e6}


def _dense_backward(args, kwargs, out):
    x, w, g = args[0], args[1], args[2]
    flops = 4.0 * x.shape[0] * w.shape[0] * w.shape[1]
    moved = x.nbytes + w.nbytes + g.nbytes + sum(a.nbytes for a in out)
    return {"gflop": flops / 1e9, "mb_moved": moved / 1e6}


def _rows(index: int):
    def hook(args, kwargs, out):
        return {"rows": args[index].shape[0]}

    return hook


def _images(args, kwargs, out):
    return {"images": len(args[0])}


_WORK = {"gflop": "GFLOP-computed", "mb_moved": "MB-computed"}
_ROWS = {"rows": "rows/call"}

# Per-call quantities beyond calls and time, keyed by traced name:
# (hook(args, kwargs, result) -> {key: increment}, {key: unit}).
HOOKS: dict[str, tuple[Callable, dict[str, str]]] = {
    "nn.layers.conv2d_forward": (_conv_forward, _WORK),
    "nn.layers.conv2d_backward": (_conv_backward, _WORK),
    "nn.layers.dense_forward": (_dense_forward, _WORK),
    "nn.layers.dense_backward": (_dense_backward, _WORK),
    "nn.model.forward_pass": (_rows(2), _ROWS),
    "hierarchy.predict_batch": (_rows(1), _ROWS),
    "hierarchy.load_image_tensors": (_images, {"images": "count"}),
}


@dataclass
class Totals:
    calls: int = 0
    failed: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    extra: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        # role_of_train(args, kwargs) -> role name, for nn.train.train spans
        self.role_of_train: Callable | None = None
        self.names: list[str] = []
        self.spans: list = []
        self.totals: dict[str, Totals] = defaultdict(Totals)
        self.roles: dict[str, Totals] = defaultdict(Totals)
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _begin(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name_id, time.perf_counter_ns(), 0, parent, op])
        self._stack.append(idx)
        self._child_ns.append(0)
        return idx

    def _end(self, idx: int) -> tuple[int, int]:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        child = self._child_ns.pop()
        dur = end - span[1]
        if self._child_ns:
            self._child_ns[-1] += dur
        return dur, dur - child

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_id(name))

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        totals = self.totals[name]
        hook = HOOKS.get(name, (None,))[0]
        is_train = name == "nn.train.train"
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._begin(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                totals.failed += 1
                raise
            finally:
                dur, own = tracer._end(idx)
                totals.calls += 1
                totals.busy_ns += dur
                totals.self_ns += own
            if hook is not None:
                for key, value in hook(args, kwargs, out).items():
                    totals.extra[key] += value
            if is_train and tracer.role_of_train is not None:
                role = tracer.roles[tracer.role_of_train(args, kwargs)]
                role.calls += 1
                role.busy_ns += dur
                role.extra["img"] += args[1].shape[0] * args[3].epochs
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------ installation
    def install(self) -> None:
        """Wrap every target at every wxhier module that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod_name, fn_name in TARGETS:
            importlib.import_module(f"wxhier.{mod_name}")
        modules = [
            m for k, m in list(sys.modules.items()) if m is not None and (k == "wxhier" or k.startswith("wxhier."))
        ]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"wxhier.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict[str, Totals]:
        """Deep copy of the per-name totals, for differencing two phases."""
        out = {}
        for name, t in self.totals.items():
            out[name] = Totals(t.calls, t.failed, t.busy_ns, t.self_ns, defaultdict(float, t.extra))
        return out

    def span_records(self, first: int = 0, last: int | None = None) -> list[list]:
        """Spans as ``[name, start_ns, end_ns, parent, op]`` rows."""
        return [[self.names[s[0]], *s[1:]] for s in self.spans[first:last]]


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer._begin(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.idx)
        return False
