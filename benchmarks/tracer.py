"""In-memory span tracer that wraps module functions from outside the program.

``Tracer`` replaces each target ``module.function`` with a wrapper that
records a span (label, parent span, start, end, operation) and, for some
targets, counts what the call did.  Calls made through the module attribute,
which is how threshdet's modules call one another, go through the wrapper;
the originals are put back when the ``with`` block ends.

A span's self time is its duration minus the durations of its direct child
spans.  Counting runs after the wrapped call returns and is recorded as a
child span labelled ``trace``, so it is charged to no layer, and the self
times of all spans still add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

from threshdet import (cli, detection, experiments, noise, output, probability,
                       tomography)

BOOKKEEPING = "trace"


def _count_rows(counts, label, result):
    counts[f"{label}.rows"] += len(result)


def _count_codes(counts, label, result):
    counts[f"{label}.rows"] += len(result)
    counts["detection.single"] += int(np.count_nonzero(result >= 0))
    counts["detection.multiple"] += int(np.count_nonzero(
        result == detection.MULTIPLE_DETECTIONS))


def _count_jobs(counts, label, result):
    counts[f"{label}.jobs"] += len(result)


def _count_bytes(counts, label, result):
    counts["output.bytes"] += len(result.encode())


# (module, function, counter or None).  cli.main is the root span of one
# operation.  The chunk kernels are left unwrapped, so their tallying shows
# up as self time of probability.map_chunks.
DEEP = (
    (cli, "main", None),
    (experiments, "run_chsh_joint", None),
    (experiments, "run_chsh_local", None),
    (experiments, "run_magic_square", None),
    (experiments, "run_two_dim_examples", None),
    (tomography, "infer_state", None),
    (probability, "estimate", None),
    (probability, "map_chunks", _count_jobs),
    (probability, "single_detection_probs", None),
    (noise, "realize_block", None),
    (noise, "draw_noise_block", _count_rows),
    (detection, "detect_standard_block", None),
    (detection, "detect_observable_block", None),
    (detection, "detect_projective_block", None),
    (detection, "group_magnitudes", None),
    (detection, "crossing_codes", _count_codes),
    (output, "render", _count_bytes),
    (output, "render_text", None),
)

# Only the pool boundary: cheap enough to leave timings untouched, so it is
# used for the passes that time map_chunks untraced.
SHALLOW = (
    (cli, "main", None),
    (probability, "estimate", None),
    (probability, "map_chunks", _count_jobs),
)


def label_of(module, name: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    """Context manager that wraps ``targets`` while it is active."""

    def __init__(self, targets=DEEP):
        self.targets = targets
        self.spans: list[list] = []   # [label, parent index, start, end, op]
        self.counts: Counter = Counter()
        self.op = None                # label of the operation being run
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, name, counter in self.targets:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name,
                    self._wrap(label_of(module, name), original, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    def _wrap(self, label, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [label, parent, 0, 0, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(counts, label, result)
                spans.append([BOOKKEEPING, stack[-1] if stack else -1,
                              span[3], perf_counter_ns(), self.op])
            return result

        return wrapper

    def summary(self, op=None) -> dict[str, dict[str, int]]:
        """Per label: calls, total_ns (inclusive) and self_ns, for spans of
        operation ``op`` or of all operations."""
        child_ns = [0] * len(self.spans)
        for label, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for i, (label, parent, start, end, span_op) in enumerate(self.spans):
            if op is not None and span_op != op:
                continue
            entry = out[label]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[i]
        return dict(out)

    def root_ns(self) -> int:
        """Summed duration of the root spans (one per operation)."""
        return sum(end - start for _, parent, start, end, _ in self.spans
                   if parent < 0)
