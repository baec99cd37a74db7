"""Span recording and per-layer self time for the traced run.

The benchmark records spans with the program's own
:class:`repro.obs.Tracer` in three ways, and adds none inside the
program:

* around every call it makes into a layer, with the layer's module
  path as the span-name prefix (``serve.epoch.swap``,
  ``kernels.shared_mem.naive``, ...);
* by passing the tracer to constructors and functions that accept
  ``tracer=``, which record the program's existing spans (``scan``,
  ``serve_drain``, ``cache_build``, ...);
* by wrapping public methods of objects the benchmark builds itself
  (:func:`wrap_method`), e.g. ``AutomatonCache.get``, which the
  scheduler calls inside ``drain``.

Spans stay in memory until :func:`write_trace` writes them out at the
end of the run.  A layer's self time is the duration of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Layers that spans are attributed to ("bench" is the client loop).
#: Longest names first, so prefix lookup finds the most specific.
LAYERS = tuple(
    sorted(
        (
            "bench",
            "core.dfa",
            "compress.backend",
            "matcher",
            "core.tiled",
            "core.multicore",
            "kernels.shared_mem",
            "kernels.global_only",
            "kernels.pfac",
            "gpu",
            "serve.scheduler",
            "serve.cache",
            "serve.epoch",
            "resilience",
        ),
        key=len,
        reverse=True,
    )
)

#: Layer of each span the program itself records when given a tracer.
#: Program spans not listed here belong to the layer of their parent.
PROGRAM_SPAN_LAYERS = {
    "build": "core.dfa",
    "scan": "matcher",
    "scan_many": "matcher",
    "serve_drain": "serve.scheduler",
    "serve_batch": "serve.scheduler",
    "cache_build": "serve.cache",
    "epoch_swap": "serve.epoch",
    "resilient_scan": "resilience",
}

#: Spans that build an automaton, whichever layer records them.
BUILD_SPANS = ("core.dfa.build", "build", "cache_build")


def wrap_method(tracer, obj, method: str, span_name: str) -> None:
    """Record a span named *span_name* around every ``obj.method`` call.

    Only the instance is patched; the class and every other instance
    are untouched.
    """
    inner = getattr(obj, method)

    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return inner(*args, **kwargs)

    setattr(obj, method, traced)


def layer_of(name: str) -> Optional[str]:
    """The layer a benchmark span name belongs to, or None."""
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return None


@dataclass
class SpanRecord:
    """One closed span, flattened out of the tracer's tree."""

    id: int
    parent: Optional[int]
    name: str
    layer: str
    phase: str
    start: float
    end: float
    request_id: Optional[int]
    child_seconds: float
    attrs: Dict[str, object]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return max(self.duration - self.child_seconds, 0.0)


def _json_safe(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def flatten(tracer) -> List[SpanRecord]:
    """Every closed interval span of *tracer*, parents before children.

    Each root is a ``bench.<phase>`` span (``setup``, ``measure``,
    ``replay``); the phase is recorded on every descendant.  Request
    ids are inherited from the nearest ancestor that carries one.
    """
    records: List[SpanRecord] = []

    def visit(span, parent, layer, phase, request_id):
        if span.is_event or span.t_end is None:
            return
        if parent is None and span.name.startswith("bench."):
            phase = span.name[len("bench."):]
        own = layer_of(span.name)
        if own is None:
            mapped = PROGRAM_SPAN_LAYERS.get(span.name)
            # A kernel's own "build" span (PFAC) stays in the kernel.
            if mapped is not None and not (
                span.name == "build" and "kernel" in span.attrs
            ):
                own = mapped
        layer = own or layer or "bench"
        request_id = span.attrs.get("request_id", request_id)
        children = [c for c in span.children if not c.is_event]
        rec = SpanRecord(
            id=len(records),
            parent=parent,
            name=span.name,
            layer=layer,
            phase=phase,
            start=span.t_start,
            end=span.t_end,
            request_id=request_id,
            child_seconds=sum(c.duration for c in children),
            attrs={k: _json_safe(v) for k, v in span.attrs.items()},
        )
        records.append(rec)
        for child in children:
            visit(child, rec.id, layer, phase, request_id)

    for root in tracer.roots:
        visit(root, None, None, "other", None)
    return records


def in_phase(records: Iterable[SpanRecord], phase: str) -> List[SpanRecord]:
    """The records of one phase."""
    return [r for r in records if r.phase == phase]


def self_time_by_layer(records: Iterable[SpanRecord]) -> Dict[str, float]:
    """Summed self time per layer."""
    out: Dict[str, float] = {}
    for r in records:
        out[r.layer] = out.get(r.layer, 0.0) + r.self_seconds
    return out


def durations(records: Iterable[SpanRecord], *names: str) -> List[float]:
    """Durations of every span whose name is one of *names*."""
    return [r.duration for r in records if r.name in names]


def build_seconds(
    records: List[SpanRecord], inside: Optional[str] = None
) -> float:
    """Time spent building automata (:data:`BUILD_SPANS`).

    A kernel's private build (PFAC's failureless trie) is not counted.
    With *inside*, only builds running within a span of that name.
    """
    by_id = {r.id: r for r in records}
    total = 0.0
    for r in records:
        if r.name not in BUILD_SPANS or r.layer.startswith("kernels."):
            continue
        if inside is not None:
            p = r.parent
            while p is not None and by_id[p].name != inside:
                p = by_id[p].parent
            if p is None:
                continue
        total += r.duration
    return total


def write_trace(
    path: Path, records: List[SpanRecord], header: Dict[str, object]
) -> None:
    """Write the spans (name, start, end, parent, request id) as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(header)
    doc["spans"] = [
        {
            "id": r.id,
            "parent": r.parent,
            "name": r.name,
            "layer": r.layer,
            "phase": r.phase,
            "start": r.start,
            "end": r.end,
            "request_id": r.request_id,
            "attrs": r.attrs,
        }
        for r in records
    ]
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
