"""End-to-end experiment pipeline.

Stages run in order: ingest -> criteria -> weigh (tuning first for the
self-adjusting representation) -> reduce -> cluster -> score, optionally a
significance stage over stratified sub-corpora, then emission of a results
file (JSON lines) and a human-readable table.  Any stage failure surfaces
as a StageError tagged with the stage name.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cluster import (
    Clustering,
    F1Report,
    repeated_bisections,
    stratified_subsample,
    weighted_f1,
)
from .errors import EmptyProfile, FuzztermError, StageError
from .ingest import (
    CorpusManifest,
    apply_anchor_variant,
    extract_criteria,
    load_manifest,
    parse_html,
    read_anchor_texts,
)
from .kb import KnowledgeBase, dump_kb, load_bundled, profile_criterion, tune_afcc
from .reduction import FeatureSet, dump_features, mft_order, project
from .stats import TTestResult, paired_ttest
from .weighting import CorpusStats, DocVector, apply_idf, dump_vectors, tf_idf, weigh_fuzzy

log = logging.getLogger(__name__)

REPRESENTATIONS = ("tfidf", "fcc", "addfcc", "efcc", "efcc-idf", "afcc")
DEFAULT_VECTOR_SIZES = (100, 500, 1000, 2000, 5000)
PROFILE_CRITERIA = ("frequency", "emphasis", "title")


@dataclass
class RunConfig:
    manifest: Path
    representation: str = "efcc"
    anchor_variant: str | None = None
    vector_sizes: tuple[int, ...] = DEFAULT_VECTOR_SIZES
    k: int | None = None
    seed: int = 0
    out_dir: Path = Path(".")
    anchors_dir: Path | None = None
    n_subsets: int = 0
    fraction: float = 0.5
    baselines: tuple[str, ...] = ()
    dump_vectors: bool = False
    dump_features: bool = False

    def validate(self) -> None:
        if self.representation not in REPRESENTATIONS:
            raise ValueError(
                f"unknown representation {self.representation!r}; "
                f"choose from {REPRESENTATIONS}"
            )
        for rep in self.baselines:
            if rep not in REPRESENTATIONS:
                raise ValueError(f"unknown baseline representation {rep!r}")
        if not self.vector_sizes:
            raise ValueError("vector_sizes must be non-empty")
        if any(s < 1 for s in self.vector_sizes):
            raise ValueError("vector sizes must be positive")
        if list(self.vector_sizes) != sorted(self.vector_sizes):
            raise ValueError("vector sizes must be ascending")
        if len(set(self.vector_sizes)) != len(self.vector_sizes):
            raise ValueError("vector sizes must be distinct")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be positive")
        if self.n_subsets < 0:
            raise ValueError("n_subsets must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        if self.n_subsets and not self.baselines:
            raise ValueError("significance requested but no baselines given")


_BOOL_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

_CONFIG_KEYS = {
    "manifest", "representation", "anchor_variant", "vector_sizes", "k",
    "seed", "out_dir", "anchors_dir", "n_subsets", "fraction", "baselines",
    "dump_vectors", "dump_features",
}


def load_config(path) -> RunConfig:
    """Flat `key = value` config; paths resolve against the file's directory."""
    path = Path(path)
    base = path.parent
    raw: dict[str, str] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        raw[key.strip()] = value.strip()
    if "manifest" not in raw:
        raise ValueError(f"{path}: config must set 'manifest'")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(
            f"{path}: unknown config keys: {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(_CONFIG_KEYS))})"
        )

    def as_bool(key, default=False):
        if key not in raw:
            return default
        value = raw[key].lower()
        if value not in _BOOL_VALUES:
            raise ValueError(f"{path}: {key} must be a boolean, got {raw[key]!r}")
        return _BOOL_VALUES[value]

    def as_path(key):
        return (base / raw[key]).resolve() if key in raw else None

    cfg = RunConfig(
        manifest=(base / raw["manifest"]).resolve(),
        representation=raw.get("representation", "efcc"),
        anchor_variant=raw.get("anchor_variant") or None,
        vector_sizes=tuple(
            int(s) for s in raw.get("vector_sizes", "").replace(",", " ").split()
        )
        or DEFAULT_VECTOR_SIZES,
        k=int(raw["k"]) if "k" in raw else None,
        seed=int(raw.get("seed", "0")),
        out_dir=as_path("out_dir") or base,
        anchors_dir=as_path("anchors_dir"),
        n_subsets=int(raw.get("n_subsets", "0")),
        fraction=float(raw.get("fraction", "0.5")),
        baselines=tuple(
            b for b in raw.get("baselines", "").replace(",", " ").split() if b
        ),
        dump_vectors=as_bool("dump_vectors"),
        dump_features=as_bool("dump_features"),
    )
    cfg.validate()
    return cfg


@dataclass
class RunRecord:
    representation: str
    vector_size: int
    seed: int
    k: int
    report: F1Report
    zero_docs: int
    clusters: int


@dataclass
class SignificanceRecord:
    a: str
    b: str
    vector_size: int
    n_subsets: int
    result: TTestResult


@dataclass
class ExperimentReport:
    config: RunConfig
    records: list[RunRecord] = field(default_factory=list)
    significance: list[SignificanceRecord] = field(default_factory=list)
    subset_scores: dict[tuple[str, int], list[float]] = field(default_factory=dict)
    tuned_kb_path: Path | None = None
    results_path: Path | None = None
    table_path: Path | None = None


@contextmanager
def _stage(name: str):
    log.info("stage %s: start", name)
    try:
        yield
    except StageError:
        raise
    except (FuzztermError, ValueError, OSError) as exc:
        raise StageError(name, exc) from exc
    log.info("stage %s: done", name)


def _build_criteria(manifest: CorpusManifest, config: RunConfig):
    criteria_by_doc = {}
    for entry in manifest.entries:
        stream = parse_html(entry.path.read_bytes())
        if config.anchor_variant:
            anchors = read_anchor_texts(
                config.anchors_dir or manifest.anchors_dir, entry.doc_id
            )
            stream = apply_anchor_variant(stream, anchors, config.anchor_variant)
        criteria_by_doc[entry.doc_id] = extract_criteria(stream)
    return criteria_by_doc


def build_profiles(criteria_by_doc) -> dict:
    """Distribution profiles per criterion; None where the corpus has no
    nonzero values (the tuner then keeps the base sets)."""
    profiles = {}
    for criterion in PROFILE_CRITERIA:
        try:
            profiles[criterion] = profile_criterion(criteria_by_doc, criterion)
        except EmptyProfile:
            profiles[criterion] = None
    return profiles


class _Weigher:
    """Builds per-representation document vectors, caching what is corpus
    independent (plain fuzzy weights) across sub-corpora."""

    def __init__(self, full_criteria: dict):
        self.full_criteria = full_criteria
        self._fuzzy_cache: dict[str, dict[str, DocVector]] = {}

    def _fuzzy_all(self, kb_name: str) -> dict[str, DocVector]:
        if kb_name not in self._fuzzy_cache:
            kb = load_bundled(kb_name)
            self._fuzzy_cache[kb_name] = {
                doc_id: weigh_fuzzy(doc_id, crit, kb)
                for doc_id, crit in self.full_criteria.items()
            }
        return self._fuzzy_cache[kb_name]

    def vectors(self, representation: str, doc_ids: list[str]) -> tuple[list[DocVector], KnowledgeBase | None]:
        subset = {d: self.full_criteria[d] for d in doc_ids}
        if representation == "tfidf":
            stats = CorpusStats.from_criteria(subset)
            return [tf_idf(d, subset[d], stats) for d in doc_ids], None
        if representation == "efcc-idf":
            stats = CorpusStats.from_criteria(subset)
            fuzzy = self._fuzzy_all("efcc")
            return [apply_idf(fuzzy[d], stats) for d in doc_ids], None
        if representation == "afcc":
            kb = tune_afcc(load_bundled("efcc"), build_profiles(subset))
            return [weigh_fuzzy(d, subset[d], kb) for d in doc_ids], kb
        fuzzy = self._fuzzy_all(representation)
        return [fuzzy[d] for d in doc_ids], None


def _cluster_and_score(
    vectors: list[DocVector],
    features: FeatureSet,
    labels: dict[str, str],
    k: int,
    seed,
) -> tuple[F1Report, Clustering, int]:
    projected = [project(v, features) for v in vectors]
    zero_docs = sum(1 for v in projected if not v.weights)
    clustering = repeated_bisections(projected, k, seed)
    return weighted_f1(clustering, labels), clustering, zero_docs


def run(config: RunConfig) -> ExperimentReport:
    """Execute the configured experiment; returns the in-memory report after
    writing results.jsonl and report.txt under config.out_dir."""
    report = ExperimentReport(config)
    with _stage("config"):
        config.validate()
        config.out_dir.mkdir(parents=True, exist_ok=True)

    with _stage("ingest"):
        manifest = load_manifest(config.manifest, config.anchors_dir)
        log.info(
            "ingest: %d documents, %d categories",
            len(manifest),
            len(manifest.categories()),
        )

    with _stage("criteria"):
        criteria_by_doc = _build_criteria(manifest, config)
        n_terms = sum(len(c) for c in criteria_by_doc.values())
        log.info("criteria: %d (doc, term) pairs", n_terms)

    weigher = _Weigher(criteria_by_doc)
    k = config.k if config.k is not None else len(manifest.categories())
    labels = manifest.labels()
    all_ids = manifest.doc_ids()
    seed_root = np.random.SeedSequence(config.seed)
    size_seeds = seed_root.spawn(len(config.vector_sizes))

    with _stage("weigh"):
        vectors, tuned_kb = weigher.vectors(config.representation, all_ids)
        log.info(
            "weigh[%s]: %d vectors, %d nonzero entries",
            config.representation,
            len(vectors),
            sum(len(v) for v in vectors),
        )
        if tuned_kb is not None:
            report.tuned_kb_path = config.out_dir / "afcc.tuned.kb"
            dump_kb(tuned_kb, report.tuned_kb_path)
        if config.dump_vectors:
            dump_vectors(vectors, config.out_dir / "vectors.txt")

    with _stage("reduce"):
        order = mft_order(vectors)
        log.info("reduce: vocabulary %d terms", len(order))
        feature_sets = {
            size: FeatureSet(tuple(order[:size]), size) for size in config.vector_sizes
        }
        if config.dump_features:
            for size, features in feature_sets.items():
                dump_features(features, config.out_dir / f"features_{size}.txt")

    with _stage("cluster"):
        for size, size_seed in zip(config.vector_sizes, size_seeds):
            f1, clustering, zero_docs = _cluster_and_score(
                vectors, feature_sets[size], labels, k, size_seed
            )
            report.records.append(
                RunRecord(
                    config.representation,
                    size,
                    config.seed,
                    k,
                    f1,
                    zero_docs,
                    len(set(clustering.assignment.values())),
                )
            )
            log.info(
                "cluster[size=%d]: overall F1 %.4f, %d zero docs",
                size,
                f1.overall,
                zero_docs,
            )

    if config.n_subsets > 0:
        with _stage("significance"):
            _significance(report, weigher, manifest, k, config)

    with _stage("emit"):
        report.results_path = config.out_dir / "results.jsonl"
        report.results_path.write_bytes(render_results(report).encode("utf-8"))
        report.table_path = config.out_dir / "report.txt"
        report.table_path.write_text(render_table(report), encoding="utf-8")
    return report


def _significance(
    report: ExperimentReport,
    weigher: _Weigher,
    manifest: CorpusManifest,
    k: int,
    config: RunConfig,
) -> None:
    subsets = stratified_subsample(
        manifest, config.fraction, config.n_subsets, config.seed
    )
    log.info(
        "significance: %d subsets of ~%d docs",
        len(subsets),
        len(subsets[0]) if subsets else 0,
    )
    reps = (config.representation,) + tuple(
        b for b in config.baselines if b != config.representation
    )
    cluster_seeds = np.random.SeedSequence((config.seed, 1)).spawn(
        len(subsets) * len(config.vector_sizes)
    )
    scores: dict[tuple[str, int], list[float]] = {
        (rep, size): [] for rep in reps for size in config.vector_sizes
    }
    for si, sub in enumerate(subsets):
        sub_ids = sub.doc_ids()
        sub_labels = sub.labels()
        for rep in reps:
            vectors, _ = weigher.vectors(rep, sub_ids)
            order = mft_order(vectors)
            for zi, size in enumerate(config.vector_sizes):
                features = FeatureSet(tuple(order[:size]), size)
                seed = cluster_seeds[si * len(config.vector_sizes) + zi]
                f1, _, _ = _cluster_and_score(vectors, features, sub_labels, k, seed)
                scores[(rep, size)].append(f1.overall)
    report.subset_scores = scores
    for baseline in reps[1:]:
        for size in config.vector_sizes:
            result = paired_ttest(
                scores[(config.representation, size)], scores[(baseline, size)]
            )
            report.significance.append(
                SignificanceRecord(
                    config.representation, baseline, size, len(subsets), result
                )
            )


def render_results(report: ExperimentReport) -> str:
    """JSON-lines rendering: header, run records, subset scores, t-tests.
    Deterministic for a fixed config and seed."""
    config = report.config
    lines = [
        json.dumps(
            {
                "kind": "config",
                "representation": config.representation,
                "anchor_variant": config.anchor_variant,
                "vector_sizes": list(config.vector_sizes),
                "k": config.k,
                "seed": config.seed,
                "n_subsets": config.n_subsets,
                "fraction": config.fraction,
                "baselines": list(config.baselines),
            },
            sort_keys=True,
        )
    ]
    for rec in report.records:
        lines.append(
            json.dumps(
                {
                    "kind": "run",
                    "representation": rec.representation,
                    "vector_size": rec.vector_size,
                    "seed": rec.seed,
                    "k": rec.k,
                    "overall_f1": rec.report.overall,
                    "per_category": {
                        cat: {
                            "precision": s.precision,
                            "recall": s.recall,
                            "f1": s.f1,
                            "support": s.support,
                        }
                        for cat, s in sorted(rec.report.per_category.items())
                    },
                    "zero_docs": rec.zero_docs,
                    "clusters": rec.clusters,
                },
                sort_keys=True,
            )
        )
    for (rep, size), values in sorted(report.subset_scores.items()):
        lines.append(
            json.dumps(
                {
                    "kind": "subset_scores",
                    "representation": rep,
                    "vector_size": size,
                    "scores": values,
                },
                sort_keys=True,
            )
        )
    for sig in report.significance:
        lines.append(
            json.dumps(
                {
                    "kind": "ttest",
                    "a": sig.a,
                    "b": sig.b,
                    "vector_size": sig.vector_size,
                    "n_subsets": sig.n_subsets,
                    "mean_diff": sig.result.mean_diff,
                    "t": sig.result.t,
                    "df": sig.result.df,
                    "p": sig.result.p,
                    "zero_variance": sig.result.zero_variance,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def render_table(report: ExperimentReport) -> str:
    """Text table: one row per representation, one column per vector size."""
    sizes = list(report.config.vector_sizes)
    header = ["representation"] + [str(s) for s in sizes] + ["avg"]
    rows: list[list[str]] = []

    by_rep: dict[str, dict[int, float]] = {}
    for rec in report.records:
        by_rep.setdefault(rec.representation, {})[rec.vector_size] = rec.report.overall
    for rep, cells in by_rep.items():
        vals = [cells.get(s) for s in sizes]
        shown = [f"{v:.3f}" if v is not None else "-" for v in vals]
        present = [v for v in vals if v is not None]
        avg = f"{sum(present) / len(present):.3f}" if present else "-"
        rows.append([rep] + shown + [avg])

    sub_rows: list[list[str]] = []
    reps_with_scores = sorted({rep for rep, _ in report.subset_scores})
    for rep in reps_with_scores:
        cells = []
        for s in sizes:
            values = report.subset_scores.get((rep, s), [])
            cells.append(f"{sum(values) / len(values):.3f}" if values else "-")
        values_all = [v for s in sizes for v in report.subset_scores.get((rep, s), [])]
        avg = f"{sum(values_all) / len(values_all):.3f}" if values_all else "-"
        sub_rows.append([f"{rep} (subset mean)"] + cells + [avg])

    widths = [
        max(len(r[i]) for r in [header] + rows + sub_rows)
        for i in range(len(header))
    ]

    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()

    out = [fmt(header), fmt(["-" * w for w in widths])]
    out.extend(fmt(r) for r in rows)
    if sub_rows:
        out.append("")
        out.extend(fmt(r) for r in sub_rows)
    if report.significance:
        out.append("")
        out.append(
            f"paired t-tests ({report.config.n_subsets} subsets, "
            f"fraction {report.config.fraction:g})"
        )
        for sig in report.significance:
            r = sig.result
            flag = " (zero variance)" if r.zero_variance else ""
            out.append(
                f"  {sig.a} vs {sig.b} @ {sig.vector_size}: "
                f"mean diff {r.mean_diff:+.4f}, t = {r.t:.3f}, "
                f"df = {r.df}, p = {r.p:.4f}{flag}"
            )
    return "\n".join(out) + "\n"
