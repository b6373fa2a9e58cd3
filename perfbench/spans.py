"""In-memory spans recorded around calls into fifo_stackup.

The benchmark never edits the package. In a traced run it wraps the public
functions it calls itself, and installs wrappers on the module-level
references that the package's own functions call through, so that spans
also appear inside ``dpw_via_stackup``, ``dpw_exact`` and the CLI. An
untraced run wraps nothing.

A span is ``[name, start_ns, end_ns, parent_index, request, error]``. A
span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (module, attribute, span name) for references that package code calls
# through. The span name is the module that defines the function.
INTERNAL_REFERENCES = (
    ("fifo_stackup.pathwidth", "solve_min_places", "processing.solve_min_places"),
    ("fifo_stackup.pathwidth", "reduce_digraph_to_queues", "seqgraph.reduce_digraph_to_queues"),
    ("fifo_stackup.pathwidth", "processing_to_decomposition",
     "seqgraph.processing_to_decomposition"),
    ("fifo_stackup.pathwidth", "validate_decomposition", "seqgraph.validate_decomposition"),
    ("fifo_stackup.seqgraph", "open_set_trace", "solutions.open_set_trace"),
    ("fifo_stackup.seqgraph", "build_sequence_graph", "seqgraph.build_sequence_graph"),
    ("fifo_stackup.seqgraph", "validate_decomposition", "seqgraph.validate_decomposition"),
    ("fifo_stackup.processing", "build_pallet_index", "instance.build_pallet_index"),
    ("fifo_stackup.solutions", "replay", "solutions.replay"),
)

# Public functions the CLI module imports by name and calls.
CLI_REFERENCES = tuple(
    ("fifo_stackup.cli", name, span)
    for name, span in (
        ("parse_instance", "instance.parse_instance"),
        ("solve_min_places", "processing.solve_min_places"),
        ("replay", "solutions.replay"),
        ("parse_digraph", "seqgraph.parse_digraph"),
        ("dpw_exact", "pathwidth.dpw_exact"),
        ("dpw_via_stackup", "pathwidth.dpw_via_stackup"),
    )
)


def span_name(fn) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, references):
        """Replace each (module, attribute) with a traced wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, name in references:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans) -> dict[str, float]:
    """Total self time in seconds per span name."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    totals: dict[str, float] = {}
    for span, children in zip(spans, child_ns):
        totals[span[0]] = totals.get(span[0], 0.0) + (span[2] - span[1] - children) / 1e9
    return totals
