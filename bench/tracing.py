"""Outside-in tracing: spans around qdensity's public functions, kept in memory.

Each wrapped function is replaced at the attribute its caller looks it up
by, so the program itself is untouched. A span records (name, start, end,
parent, pass id); counts recorded at the same boundaries (results, bytes)
go to per-pass counters. Spans are written out once, after the last pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). Module attributes that another module
# imported by name are wrapped where that module looks them up.
WRAPPED = (
    ("qdensity.cli", "dumps", "format.dumps"),
    ("qdensity.mps", "dumps", "format.dumps"),
    ("qdensity.cli", "load_dataset", "empirical.load_dataset"),
    ("qdensity.empirical", "load_dataset", "empirical.load_dataset"),
    ("qdensity.cli", "empirical_distribution", "empirical.empirical_distribution"),
    ("qdensity.mps", "train", "mps.train"),
    ("qdensity.mps", "draw_even_subset", "mps.draw_even_subset"),
    ("qdensity.mps", "inner_product", "mps.inner_product"),
    ("qdensity.mps", "sample", "mps.sample"),
    ("qdensity.mps", "born_probability", "mps.born_probability"),
    ("qdensity.mps", "save_model", "mps.save_model"),
    ("qdensity.mps", "load_model", "mps.load_model"),
    ("qdensity.linalg", "sym_eigen", "linalg.sym_eigen"),
    ("qdensity.linalg", "is_psd", "linalg.is_psd"),
    ("qdensity.linalg", "svd", "linalg.svd"),
    ("qdensity.entailment", "pattern_density", "entailment.pattern_density"),
    ("qdensity.entailment", "decompose", "entailment.decompose"),
    ("qdensity.fca", "formal_concepts", "fca.formal_concepts"),
    ("qdensity.fca", "compare_eigen_concepts", "fca.compare_eigen_concepts"),
    ("qdensity.qprob", "schmidt", "qprob.schmidt"),
    ("qdensity.qprob", "reduced_via_gram", "qprob.reduced_via_gram"),
)


def _result_count(name: str, result, args) -> dict[str, float]:
    """Counts taken at a span's boundary from its result or arguments."""
    if name == "entailment.decompose":
        return {"entailment.decompose_parts": len(result)}
    if name == "fca.formal_concepts":
        return {"fca.concepts": len(result)}
    if name == "mps.save_model":
        return {"mps.model_bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counters[self.pass_id][name] += value

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            for counter, value in _result_count(name, result, args).items():
                self.count(counter, value)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # renamed away: its span stays empty and the run fails
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"], "spans": self.spans,
                       "counters": {str(k): dict(v) for k, v in self.counters.items()}}, fh)


def summarize(spans: list[list], counters: dict[str, dict[str, float]]) -> dict:
    """Per-pass totals, self times and call counts, with medians over passes.

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread nest, so the children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_pass: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    durations: dict[str, list[float]] = defaultdict(list)
    for index, (name, start, end, parent, pass_id) in enumerate(spans):
        totals = per_pass[pass_id]
        totals[f"{name}_s"] += end - start
        totals[f"{name}_self_s"] += end - start - child_time[index]
        totals[f"{name}_calls"] += 1
        durations[name].append(end - start)
    for pass_id, values in counters.items():
        per_pass[int(pass_id)].update(values)
    passes = sorted(per_pass)
    keys = {key for values in per_pass.values() for key in values}
    medians = {key: statistics.median(per_pass[p].get(key, 0.0) for p in passes) for key in keys}
    return {"median": medians, "durations": durations, "spans_per_pass": len(spans) / max(len(passes), 1)}
