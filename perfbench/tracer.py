"""Spans around calls into fuzzterm's public functions, from outside the package.

`Tracer.install()` replaces each target function with a wrapper that records
a span (name, start, end, parent) and a few counts taken from the call's
arguments and return value, which it never alters.  A name is patched in
every fuzzterm module that holds it, because callers look it up in their own
namespace (`pipeline` does `from .weighting import weigh_fuzzy`).  A target
that no longer exists is reported as absent.

Stage times come from the `stage X: start/done` records that
`fuzzterm.pipeline` logs, through a handler attached here.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_parse_html(counts, args, kwargs, result):
    counts["ingest.parse_html.bytes"] += len(_arg(args, kwargs, 0, "raw"))


def _count_extract_criteria(counts, args, kwargs, result):
    counts["ingest.docs"] += 1
    counts["ingest.pairs"] += len(result)
    counts["ingest.positions"] += sum(len(c.positions) for c in result.values())


def _count_infer_batch(counts, args, kwargs, result):
    counts["engine.infer_batch.rows"] += len(result)


def _count_vector(counts, args, kwargs, result):
    counts["weighting.nnz"] += len(result)


def _count_mft_order(counts, args, kwargs, result):
    vectors = _arg(args, kwargs, 0, "vectors")
    if isinstance(vectors, (list, tuple)):  # never consume an iterator
        counts["reduction.mft_order.pairs"] += sum(len(v) for v in vectors)


def _count_build_matrix(counts, args, kwargs, result):
    rows, cols = result[0].shape
    counts["cluster.build_matrix.bytes_computed"] += rows * cols * 8


# (span name, module, attribute path, counter)
TARGETS = (
    ("ingest.parse_html", "fuzzterm.ingest", "parse_html", _count_parse_html),
    ("ingest.extract_criteria", "fuzzterm.ingest", "extract_criteria", _count_extract_criteria),
    ("engine.infer_batch", "fuzzterm.engine", "FuzzySystem.infer_batch", _count_infer_batch),
    ("engine.global_position_batch", "fuzzterm.engine", "global_position_batch", None),
    ("weighting.weigh_fuzzy", "fuzzterm.weighting", "weigh_fuzzy", _count_vector),
    ("weighting.tf_idf", "fuzzterm.weighting", "tf_idf", _count_vector),
    ("kb.tune_afcc", "fuzzterm.kb", "tune_afcc", None),
    ("kb.profile_criterion", "fuzzterm.kb", "profile_criterion", None),
    ("reduction.mft_order", "fuzzterm.reduction", "mft_order", _count_mft_order),
    ("reduction.project", "fuzzterm.reduction", "project", None),
    ("cluster.repeated_bisections", "fuzzterm.cluster", "repeated_bisections", None),
    ("cluster.build_matrix", "fuzzterm.cluster", "build_matrix", _count_build_matrix),
    ("cluster.bisect_labels", "fuzzterm.cluster", "bisect_labels", None),
    ("cluster.weighted_f1", "fuzzterm.cluster", "weighted_f1", None),
    ("cluster.stratified_subsample", "fuzzterm.cluster", "stratified_subsample", None),
    ("stats.paired_ttest", "fuzzterm.stats", "paired_ttest", None),
)

STAGES = ("criteria", "weigh", "reduce", "cluster", "significance", "emit")

_S, _N = ("s", "lower"), ("count", "lower")
# (name, unit, better): the traced run's metrics, in BENCHMARK.json order.
PER_LAYER = (
    *((f"pipeline.{stage}_s", *_S) for stage in STAGES),
    ("pipeline.unattributed_s", *_S),
    ("ingest.parse_html.calls", *_N),
    ("ingest.parse_html.self_s", *_S),
    ("ingest.parse_html.mb_per_s", "MB/s", "higher"),
    ("ingest.extract_criteria.self_s", *_S),
    ("ingest.docs", *_N),
    ("ingest.pairs", *_N),
    ("ingest.positions", *_N),
    ("engine.infer_batch.calls", *_N),
    ("engine.infer_batch.rows", *_N),
    ("engine.infer_batch.self_s", *_S),
    ("engine.infer_batch.rows_per_s", "rows/s", "higher"),
    ("engine.infer_batch.rows_per_call", "rows", "higher"),
    ("engine.global_position_batch.self_s", *_S),
    ("weighting.weigh_fuzzy.calls", *_N),
    ("weighting.weigh_fuzzy.self_s", *_S),
    ("weighting.tf_idf.self_s", *_S),
    ("weighting.nnz", *_N),
    ("kb.tune_afcc.calls", *_N),
    ("kb.tune_afcc.self_s", *_S),
    ("kb.profile_criterion.self_s", *_S),
    ("reduction.mft_order.calls", *_N),
    ("reduction.mft_order.self_s", *_S),
    ("reduction.mft_order.pairs_per_s", "pairs/s", "higher"),
    ("reduction.project.calls", *_N),
    ("reduction.project.self_s", *_S),
    ("cluster.repeated_bisections.calls", *_N),
    ("cluster.repeated_bisections.self_s", *_S),
    ("cluster.build_matrix.self_s", *_S),
    ("cluster.build_matrix.bytes_computed", "bytes", "lower"),
    ("cluster.bisect_labels.self_s", *_S),
    ("cluster.weighted_f1.self_s", *_S),
    ("cluster.stratified_subsample.self_s", *_S),
    ("stats.paired_ttest.calls", *_N),
    ("stats.paired_ttest.self_s", *_S),
    ("trace.overhead_frac", "ratio", "lower"),
)


class _StageHandler(logging.Handler):
    def __init__(self, clock):
        super().__init__(logging.INFO)
        self.clock = clock
        self.started: dict[str, float] = {}
        self.seconds: dict[str, float] = defaultdict(float)

    def emit(self, record):
        if record.msg == "stage %s: start":
            self.started[record.args[0]] = self.clock()
        elif record.msg == "stage %s: done":
            name = record.args[0]
            self.seconds[name] += self.clock() - self.started.pop(name)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []
        self._stages = _StageHandler(clock)

    def wrap(self, name, fn, counter=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        broken = self.broken_counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    broken.add(name)  # the target changed shape; its count is lost
            return result

        return wrapper

    def install(self) -> None:
        for name, module_name, attr, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, counter)
            if outer:
                setattr(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fuzzterm" or mod_name.startswith("fuzzterm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        logger = logging.getLogger("fuzzterm.pipeline")
        logger.addHandler(self._stages)
        logger.setLevel(logging.INFO)

    def metrics(self, run_s: float) -> dict[str, float]:
        """Every PER_LAYER metric but trace.overhead_frac, for one traced
        `pipeline.run` that took run_s."""
        calls, self_s = span_totals(self.spans)
        c = self.counts
        m: dict[str, float] = {}
        for name, _, _, _ in TARGETS:
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        for stage in STAGES:
            m[f"pipeline.{stage}_s"] = self._stages.seconds.get(stage, 0.0)
        m["pipeline.unattributed_s"] = run_s - sum(self_s.values())

        def per_s(amount, span_name):
            t = self_s.get(span_name, 0.0)
            return amount / t if t > 0 else 0.0

        m.update(c)
        m["ingest.parse_html.mb_per_s"] = per_s(c["ingest.parse_html.bytes"] / 1e6, "ingest.parse_html")
        rows = c["engine.infer_batch.rows"]
        m["engine.infer_batch.rows_per_s"] = per_s(rows, "engine.infer_batch")
        n_infer = calls.get("engine.infer_batch", 0)
        m["engine.infer_batch.rows_per_call"] = rows / n_infer if n_infer else 0.0
        m["reduction.mft_order.pairs_per_s"] = per_s(c["reduction.mft_order.pairs"], "reduction.mft_order")
        return {name: m.get(name, 0) for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}


def span_totals(spans) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, child_time):
        calls[name] += 1
        self_s[name] += end - start - covered
    return dict(calls), dict(self_s)
