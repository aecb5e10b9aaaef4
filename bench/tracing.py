"""Spans recorded from outside the program, around the calls into each module.

The traced run replaces module attributes that emofuse already calls
through (``emofuse.model.encode_text``, ``Tensor.backward``, ...) with
wrappers that record a span per call, and puts the originals back
afterwards. No file of the program changes. A span has a name, a start and
an end, the span open when it began (its parent) and a request id: the post
index for classifier work, the epoch for VGAE work. Spans stay in memory
until the run writes them out once at the end.

The program has no queues and runs on one thread, so no span ever waits:
the trace reports busy time and counts only.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at the top
    request: int       # post index or epoch; -1 outside any request
    count: int = 0     # a size the wrapper records, e.g. words in the post
    tensors: int = 0   # autodiff tensors created while the span was open


class NullTracer:
    """Stand-in for untraced runs: spans cost one attribute lookup."""

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.tensors = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str, count: int = 0) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.request, count, self.tensors))
        self._open.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def end(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.tensors = self.tensors - span.tensors
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    # --- wrappers ---------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, count=None, request=None):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if request is not None:
                tracer.request = request(args)
            index = tracer.begin(name, count(args) if count is not None else 0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self):
        """Wrap the program's module attributes; `uninstall` puts the originals back."""
        mod = importlib.import_module
        pipeline, model, autodiff = mod("emofuse.pipeline"), mod("emofuse.model"), mod("emofuse.autodiff")
        vgae, graph, clustering = mod("emofuse.vgae"), mod("emofuse.graph"), mod("emofuse.clustering")
        tokenization = mod("emofuse.tokenization")
        posts = iter(range(1 << 62))
        epochs = iter(range(1 << 62))

        self._wrap(tokenization, "tokenize", "tokenization.tokenize")
        self._wrap(pipeline, "tokenize", "tokenization.tokenize")
        self._wrap(pipeline, "cross_entropy_logits", "textcnn.loss")
        self._wrap(model.SentimentModel, "forward_logits", "model.forward",
                   request=lambda args: next(posts))
        self._wrap(model, "encode_text", "text_encoder.encode", count=lambda args: len(args[0]))
        self._wrap(model, "fuse", "attention.fuse",
                   count=lambda args: 0 if args[2] is None else args[2].data.shape[0])
        self._wrap(model, "classify_logits", "textcnn.classify")
        self._wrap(autodiff, "adam_step", "autodiff.adam_step")
        self._wrap(autodiff, "zero_grads", "autodiff.zero_grads")
        self._wrap(autodiff.Tensor, "backward", "autodiff.backward")
        self._wrap(vgae, "encode", "vgae.encode", request=lambda args: next(epochs))
        self._wrap(vgae, "decode", "vgae.decode")
        self._wrap(vgae, "vgae_loss", "vgae.loss")
        self._wrap(graph, "tfidf_sense_vectors", "senses.tfidf")
        self._wrap(graph, "node_attribute", "senses.node_attribute")
        self._wrap(graph, "build_adjacency", "graph.build_adjacency")
        self._wrap(clustering, "cosine_matrix", "clustering.cosine")
        self._wrap(clustering, "average_linkage", "clustering.linkage")

        tensor = autodiff.Tensor
        original_init = tensor.__init__
        tracer = self

        def counting_init(self, *args, **kwargs):
            tracer.tensors += 1
            original_init(self, *args, **kwargs)

        tensor.__init__ = counting_init
        self._restore.append((tensor, "__init__", original_init))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        inside = [(max(s, span.start), min(e, span.end)) for s, e in children.get(index, ())]
        out.append(span.end - span.start - covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def stage_of(spans: list[Span], prefix: str = "stage.") -> list[str]:
    """Name of the outermost enclosing span whose name starts with `prefix`, per span."""
    out: list[str] = []
    for span in spans:
        # parents precede children, so the parent's answer is already known
        parent = out[span.parent] if span.parent >= 0 else ""
        out.append(parent or (span.name if span.name.startswith(prefix) else ""))
    return out
