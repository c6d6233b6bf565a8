"""Self-tests of the pipeline benchmark harness.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import logging
import shutil
import sys
from itertools import count
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, generate, write_config  # noqa: E402


def tiny(workload):
    """The workload's shape with three short documents per category."""
    corpus = dict(workload.corpus, docs_per_category=3, doc_length=(30, 60))
    return dataclasses.replace(workload, corpus=corpus)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_of_each_workload_shape(name, tmp_path):
    rec = bench._bench_in(tmp_path, tiny(WORKLOADS[name]), seed=1, run_seed=7, seconds=0, trace=True)
    assert rec["correct"], rec["errors"]
    assert rec["attempted"] == 2 and rec["failed"] == 0
    assert list(rec["metrics"]) == [m for m, _, _ in tracer.PER_LAYER]
    assert rec["absent"] == []
    metrics = {k: m["value"] for k, m in rec["metrics"].items()}
    assert metrics["ingest.docs"] == tiny(WORKLOADS[name]).n_docs
    assert metrics["engine.infer_batch.calls"] > 0


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    rec = bench._bench_in(tmp_path, tiny(WORKLOADS["long-pages"]), seed=2, run_seed=7, seconds=0, trace=False)
    assert rec["correct"], rec["errors"]
    assert rec["attempted"] == bench.SETUP_PROBES + 1
    assert list(rec["metrics"]) == [m for m, _, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in rec["metrics"].values())


def test_self_time_subtracts_direct_children():
    # a[0,10] holds b[1,4] and c[5,9]; c holds d[6,8]; a second b[11,12] is a root
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 8.0, 2],
        ["b", 11.0, 12.0, -1],
    ]
    calls, self_s = tracer.span_totals(spans)
    assert calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert self_s == {"a": 3.0, "b": 4.0, "c": 2.0, "d": 2.0}
    assert sum(self_s.values()) == 10.0 + 1.0  # the roots' durations


def test_wrapper_records_nesting_and_passes_values_through():
    t = tracer.Tracer(clock=count().__next__)
    inner = t.wrap("inner", lambda x, y=1: [x, y])
    outer = t.wrap("outer", lambda x: inner(x, y=x) + inner(x))
    arg = object()
    assert outer(arg) == [arg, arg, arg, 1]
    assert [(s[0], s[3]) for s in t.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    calls, self_s = tracer.span_totals(t.spans)
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 3, "inner": 2}


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", (
        ("gone.function", "fuzzterm.cluster", "no_such_function", None),
        ("gone.module", "fuzzterm.no_such_module", "f", None),
        ("gone.method", "fuzzterm.engine", "FuzzySystem.no_such_method", None),
    ))
    t = tracer.Tracer()
    logger = logging.getLogger("fuzzterm.pipeline")
    level = logger.level
    try:
        t.install()
    finally:
        logger.removeHandler(t._stages)
        logger.setLevel(level)
    assert t.absent == ["gone.function", "gone.module", "gone.method"]


def test_output_check_rejects_a_one_byte_change(tmp_path):
    workload = tiny(WORKLOADS["long-pages"])
    manifest = generate(workload, 3, tmp_path / "corpus")
    out_dir = tmp_path / "out"
    config = write_config(workload, manifest, out_dir, 7)
    child = bench.spawn(config, tmp_path / "child.json", "run", timeout=120)
    assert child.error is None
    pinned = checks.digests(out_dir)
    assert bench.check_outputs(out_dir, workload, pinned, {}) is None
    for name in checks.OUTPUTS:
        saved = tmp_path / f"{name}.orig"
        shutil.copy(out_dir / name, saved)
        data = bytearray((out_dir / name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (out_dir / name).write_bytes(bytes(data))
        error = bench.check_outputs(out_dir, workload, pinned, {})
        assert error is not None and name in error
        shutil.copy(saved, out_dir / name)
    reference = {}
    assert bench.check_outputs(out_dir, workload, None, reference) is None
    (out_dir / "report.txt").write_text("changed\n", encoding="utf-8")
    assert bench.check_outputs(out_dir, workload, None, reference) is not None


def test_record_check_flags_malformed_results():
    good = (
        '{"kind": "config"}\n'
        '{"kind": "run", "vector_size": 100, "overall_f1": 0.5, "per_category": {}}\n'
    )
    assert checks.record_problems(good, (100,), ()) == []
    assert checks.record_problems(good.replace("0.5", "1.5"), (100,), ())
    assert checks.record_problems(good, (100, 500), ())
    assert checks.record_problems(good, (100,), ("tfidf",))


def test_benchmark_json_matches_the_harness():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracer.PER_LAYER)
