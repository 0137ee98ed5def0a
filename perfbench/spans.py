"""In-memory spans around the public calls of each `datawords` layer.

The benchmark never edits the library. Instead, while a `Tracer` is
installed, every module attribute of the `datawords` package that refers to
one of the functions in `TARGETS` is replaced by a wrapper that records a
span (name, start, end, parent) and the counts taken at that boundary.
Calls the library makes internally go through those same module
attributes, so `run_cv` -> `train_all` -> `fit_label` nests as it runs.

Self time of a span is its duration minus the time covered by its child
spans. Spans stay in memory and are written as JSON lines when the run
ends; nothing is written while the timed work runs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped while tracing; the span name is
# "module.function" and the per-layer metric "module.function_s".
TARGETS = (
    ("corpus", "load_corpus"),
    ("corpus", "split_sentences"),
    ("corpus", "tokenize"),
    ("extraction", "extract_patterns"),
    ("extraction", "load_db_measurements"),
    ("extraction", "rollup"),
    ("encoding", "encode_records"),
    ("encoding", "compute_stats"),
    ("vectorize", "build_vocabulary"),
    ("vectorize", "fit_idf"),
    ("vectorize", "fit_hashed_idf"),
    ("vectorize", "vectorize_document"),
    ("vectorize", "stack_vectors"),
    ("model", "build_corpus_units"),
    ("model", "train_all"),
    ("model", "fit_label"),
    ("model", "fit_threshold"),
    ("model", "save_bundle"),
    ("model", "load_bundle"),
    ("model", "prepare_units"),
    ("model", "predict_units"),
    ("model", "predict"),
    ("explain", "score_sentences"),
    ("explain", "top_justifications"),
    ("evaluation", "run_cv"),
    ("evaluation", "kfold_split"),
    ("evaluation", "generate_synthetic"),
)

# Call counts reported as per-layer metrics ("<span>_calls").
COUNTED_CALLS = (
    "corpus.tokenize",
    "extraction.extract_patterns",
    "vectorize.vectorize_document",
    "model.fit_label",
    "model.predict_units",
    "explain.score_sentences",
)


def _count_records(counts, args, result):
    counts["extraction.records"] += len(result)


def _count_rollup(counts, args, result):
    counts["extraction.rollup_records_in"] += len(args[0])
    counts["extraction.rollup_records_out"] += len(result)


def _count_datawords(counts, args, result):
    counts["encoding.datawords"] += len(result)


def _count_matrix(counts, args, result):
    counts["vectorize.nnz"] += result.nnz
    counts["vectorize.dimension"] = max(counts["vectorize.dimension"], result.shape[1])


def _count_bundle(counts, args, result):
    counts["model.bundle_bytes"] = os.path.getsize(args[1])


def _count_justifications(counts, args, result):
    counts["explain.justifications"] += len(result)


# Counts taken at a span's boundary, from its positional arguments and result.
COUNTERS = {
    "extraction.extract_patterns": _count_records,
    "extraction.load_db_measurements": _count_records,
    "extraction.rollup": _count_rollup,
    "encoding.encode_records": _count_datawords,
    "vectorize.stack_vectors": _count_matrix,
    "model.save_bundle": _count_bundle,
    "explain.top_justifications": _count_justifications,
}

COUNT_NAMES = (
    "extraction.records",
    "extraction.rollup_records_in",
    "extraction.rollup_records_out",
    "encoding.datawords",
    "vectorize.dimension",
    "vectorize.nnz",
    "model.bundle_bytes",
    "explain.justifications",
)


class Tracer:
    """Collects spans, per-name self time and call counts, and boundary counts."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[tuple | None] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.total_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # one [span id, seconds covered by children, parent id, group id] per open span
        self._stack: list[list] = []
        self._group: int | None = None

    def _enter(self, name: str) -> list:
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, 0.0, self._stack[-1][0] if self._stack else None, self._group]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        sid, children, parent, group = frame
        self.spans[sid] = (sid, parent, group, name, start - self.origin, end - self.origin)
        self.self_time[name] += duration - children
        self.total_time[name] += duration
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own steps; spans opened inside it
        share its id as their request group."""
        frame = self._enter(name)
        outer, self._group = self._group, frame[0]
        frame[3] = frame[0]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._group = outer
            self._exit(name, frame, start, end)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, time.perf_counter())
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds of every wrapped function, plus calls and counts."""
        out = {}
        for module, func in TARGETS:
            name = f"{module}.{func}"
            out[f"{name}_s"] = self.self_time.get(name, 0.0)
        for name in COUNTED_CALLS:
            out[f"{name}_calls"] = self.calls.get(name, 0)
        for name in COUNT_NAMES:
            out[name] = self.counts.get(name, 0)
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, group, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "group": group, "name": name,
                         "start": round(start, 9), "end": round(end, 9)},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _library_modules():
    return [m for name, m in sys.modules.items() if m is not None and (name == "datawords" or name.startswith("datawords."))]


@contextmanager
def installed(tracer: Tracer):
    """Route every `datawords` module attribute that names a traced
    function through the tracer; restore the originals on exit."""
    modules = _library_modules()
    patched = []
    for module_name, func_name in TARGETS:
        owner = sys.modules[f"datawords.{module_name}"]
        original = getattr(owner, func_name)
        wrapper = tracer.wrap(f"{module_name}.{func_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
