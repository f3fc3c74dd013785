"""Span tracing of finegrain from outside the program.

`Tracer.install` replaces each traced function with a wrapper at every place
a caller looks its name up: the attribute of every `finegrain.*` module that
holds the function (callers that did `from .model import save_checkpoint`
hold their own binding) and, for methods, the class attribute.  `restore`
puts every original back.  Nothing in the program is edited.

A span is (name, parent, start_ns, end_ns, seq_start, seq_end, tag).  The
seq fields read the tape's node counter without advancing it, so the nodes a
call recorded are seq_end - seq_start.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, attribute path, span name); the model_scorer entry wraps the
# scorer it returns, so each scored pair is one "evalharness.score" span.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("runner", "run_training", "runner.run_training"),
    ("runner", "run_eval", "runner.run_eval"),
    ("runner", "run_dynamics", "runner.run_dynamics"),
    ("objectives", "training_step", "objectives.training_step"),
    ("objectives", "contrastive_loss", "objectives.contrastive_loss"),
    ("objectives", "itm_loss", "objectives.itm_loss"),
    ("objectives", "mlm_loss", "objectives.mlm_loss"),
    ("objectives", "vma_losses", "objectives.vma_losses"),
    ("objectives", "bbox_loss_terms", "objectives.bbox_loss_terms"),
    ("objectives", "SgdOptimizer.step", "objectives.optimizer_step"),
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("ops", "masked_attention", "ops.masked_attention"),
    ("ops", "layer_norm", "ops.layer_norm"),
    ("ops", "gelu", "ops.gelu"),
    ("ops", "embed", "ops.embed"),
    ("ops", "softmax_cross_entropy", "ops.softmax_cross_entropy"),
    ("ops", "l2_normalize", "ops.l2_normalize"),
    ("model", "VLModel.encode_image", "model.encode_image"),
    ("model", "VLModel.encode_text", "model.encode_text"),
    ("model", "VLModel.fuse", "model.fuse"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("synthdata", "sampler_for_sources", "synthdata.sampler_for_sources"),
    ("synthdata", "generate_scene", "synthdata.generate_scene"),
    ("evalharness", "run_benchmark", "evalharness.run_benchmark"),
    ("evalharness", "subtask_items", "evalharness.subtask_items"),
    ("evalharness", "retrieval_table", "evalharness.retrieval_table"),
    ("evalharness", "retrieval_recall", "evalharness.retrieval_recall"),
    ("evalharness", "model_scorer", "evalharness.model_scorer"),
    ("dynamics", "correlate_tasks", "dynamics.correlate_tasks"),
    ("dynamics", "track", "dynamics.track"),
)

# Spans whose calls share an input cache scope: the model weights are fixed
# inside one of these, so equal inputs there could share one encode.
SCOPES = ("objectives.training_step", "evalharness.run_benchmark")


def _step_kind(args, kwargs):
    return args[1].kind


def _image_key(args, kwargs):
    grid = args[1]
    visibility = args[2] if len(args) > 2 else kwargs.get("visibility")
    vis = b"" if visibility is None else _as_bytes(visibility, bool)
    return _as_bytes(grid, float) + b"|" + vis


def _text_key(args, kwargs):
    return tuple(int(i) for i in args[1])


def _as_bytes(values, dtype) -> bytes:
    import numpy as np

    arr = np.asarray(values, dtype=dtype)
    return repr(arr.shape).encode() + arr.tobytes()


TAGGERS: dict[str, Callable] = {
    "objectives.training_step": _step_kind,
    "model.encode_image": _image_key,
    "model.encode_text": _text_key,
}


@dataclass
class Span:
    name: str
    parent: int
    start: int = 0
    end: int = 0
    seq_start: int = 0
    seq_end: int = 0
    tag: object = None

    @property
    def nodes(self) -> int:
        return self.seq_end - self.seq_start


def tape_position(counter) -> int:
    """Next sequence number of an itertools.count, read without advancing it."""
    text = repr(counter)
    return int(text[text.index("(") + 1:text.index(")")])


@dataclass
class Tracer:
    """Records spans around the TARGETS of the finegrain package."""

    package: str = "finegrain"
    targets: tuple[tuple[str, str, str], ...] = TARGETS
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def modules(self) -> list:
        prefix = self.package + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def wrap(self, name: str, fn: Callable, tagger: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter_owner = sys.modules.get(self.package + ".tensor")

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, stack[-1] if stack else -1)
            if tagger is not None:
                span.tag = tagger(args, kwargs)
            spans.append(span)
            stack.append(index)
            if counter_owner is not None:
                span.seq_start = tape_position(counter_owner._SEQ)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                if counter_owner is not None:
                    span.seq_end = tape_position(counter_owner._SEQ)
                stack.pop()
            if name == "evalharness.model_scorer":
                return self.wrap("evalharness.score", result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self.modules()
        by_name = {m.__name__: m for m in modules}
        try:
            for module_name, attr, span_name in self.targets:
                owner = by_name[f"{self.package}.{module_name}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
                wrapper = self.wrap(span_name, original, TAGGERS.get(span_name))
                if path:  # a method: callers look it up on the class
                    self._set(owner, leaf, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, wrapper)
        except BaseException:
            self.restore()
            raise

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def is_wrapper(value) -> bool:
    return getattr(value, "__code__", None) is _WRAPPER_CODE


def wrapped_bindings() -> list[str]:
    """Names in finegrain's modules and classes that hold a tracing wrapper."""
    found = []
    for module in Tracer().modules():
        for name, value in vars(module).items():
            if is_wrapper(value):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{name}.{attr}"
                          for attr, member in vars(value).items() if is_wrapper(member)]
    return found


_WRAPPER_CODE = Tracer().wrap("probe", lambda: None).__code__


# -- span arithmetic -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def scope_of(spans: list[Span], index: int) -> int:
    """Index of the nearest enclosing span named in SCOPES, or -1."""
    parent = spans[index].parent
    while parent >= 0 and spans[parent].name not in SCOPES:
        parent = spans[parent].parent
    return parent


def distinct_share(spans: list[Span], name: str) -> float:
    """Distinct inputs per call of `name`, equal inputs counted once per scope."""
    seen = set()
    calls = 0
    for index, span in enumerate(spans):
        if span.name == name:
            calls += 1
            seen.add((scope_of(spans, index), span.tag))
    return len(seen) / calls if calls else 0.0
