"""End-to-end experiment pipeline.

Stages run in order: ingest -> criteria -> weigh (tuning first for the
self-adjusting representation) -> reduce -> cluster -> score, optionally a
significance stage over stratified sub-corpora, then emission of a results
file (JSON lines) and a human-readable table.  Any stage failure surfaces
as a StageError tagged with the stage name; a criteria failure also names
the document.

The criteria stage packs each document into one columnar `corpus.Corpus`
as soon as it is read.  From there every step works on arrays: a
sub-corpus is a selection of document rows, each rule base weighs a
selection in one batch (bundled bases once per corpus, afcc once per
tuning; the global positions once per distinct auxiliary system, which
tuning leaves alone), `reduction.mft_rank` ranks the weighted rows and
`reduction.project_rows` writes the matrix `cluster.cluster_matrix` splits.
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
    cluster_matrix,
    stratified_subsample,
    weighted_f1,
)
from .corpus import Corpus, CorpusBuilder, SparseRows
from .errors import EmptyProfile, FuzztermError, StageError
from .ingest import (
    CorpusManifest,
    ManifestEntry,
    apply_anchor_variant,
    extract_criteria,
    load_manifest,
    parse_html,
    read_anchor_texts,
)
from .kb import (
    DistributionProfile,
    KnowledgeBase,
    dump_kb,
    load_bundled,
    profile_criterion,
    tune_afcc,
)
from .reduction import FeatureSet, dump_features, mft_rank, project_rows
from .stats import TTestResult, paired_ttest
from .weighting import (
    dump_vectors,
    fuzzy_rows,
    global_positions,
    idf_rows,
    tfidf_rows,
    unpack_rows,
)

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


def _doc_criteria(entry: ManifestEntry, manifest: CorpusManifest, config: RunConfig) -> dict:
    """One document's criteria map; a failure is raised as a criteria
    StageError naming the document."""
    try:
        stream = parse_html(entry.path.read_bytes())
        if config.anchor_variant:
            anchors = read_anchor_texts(
                config.anchors_dir or manifest.anchors_dir, entry.doc_id
            )
            stream = apply_anchor_variant(stream, anchors, config.anchor_variant)
        return extract_criteria(stream)
    except (FuzztermError, ValueError, OSError) as exc:
        raise StageError("criteria", exc, f"{entry.doc_id} ({entry.path})") from exc


def build_corpus(manifest: CorpusManifest, config: RunConfig) -> Corpus:
    """The columnar corpus.  Each document's criteria map (and its token
    stream) is dropped once packed, before the next document is read."""
    builder = CorpusBuilder()
    for entry in manifest.entries:
        builder.add(entry.doc_id, _doc_criteria(entry, manifest, config))
    return builder.build()


def _build_criteria(manifest: CorpusManifest, config: RunConfig) -> dict:
    """doc_id -> criteria map for the whole corpus, for the dict API."""
    return {e.doc_id: _doc_criteria(e, manifest, config) for e in manifest.entries}


def corpus_profiles(corpus: Corpus, docs: np.ndarray | None = None) -> dict:
    """Distribution profiles per criterion over the pairs of the selected
    documents (all when docs is None); None where they have no nonzero
    values (the tuner then keeps the base sets)."""
    pairs = slice(None) if docs is None else corpus.select(docs)[0]
    columns = {"frequency": corpus.freq, "emphasis": corpus.emph, "title": corpus.title}
    profiles = {}
    for criterion in PROFILE_CRITERIA:
        values = columns[criterion][pairs]
        values = values[values > 0.0]
        profiles[criterion] = DistributionProfile(criterion, values) if values.size else None
    return profiles


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


class _Representations:
    """Weighs selections of the corpus per representation.  The bundled
    bases weigh the whole corpus once; a selection takes its rows.  Global
    positions are computed once per distinct auxiliary system."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._fuzzy: dict[str, SparseRows] = {}
        self._gpos: dict[tuple, np.ndarray] = {}

    def _weigh(self, kb: KnowledgeBase, docs: np.ndarray) -> SparseRows:
        key = (kb.term_position, kb.position, kb.aux_rules)
        if key not in self._gpos:
            self._gpos[key] = global_positions(self.corpus, kb)
        return fuzzy_rows(self.corpus, docs, kb, self._gpos[key])

    def _bundled(self, kb_name: str) -> SparseRows:
        if kb_name not in self._fuzzy:
            every = np.arange(self.corpus.n_docs)
            self._fuzzy[kb_name] = self._weigh(load_bundled(kb_name), every)
        return self._fuzzy[kb_name]

    def rows(self, representation: str, docs: np.ndarray) -> tuple[SparseRows, KnowledgeBase | None]:
        corpus = self.corpus
        if representation == "tfidf":
            return tfidf_rows(corpus, docs), None
        if representation == "afcc":
            kb = tune_afcc(load_bundled("efcc"), corpus_profiles(corpus, docs))
            return self._weigh(kb, docs), kb
        if representation == "efcc-idf":
            return idf_rows(self._bundled("efcc").select(docs), corpus, docs), None
        return self._bundled(representation).select(docs), None


def _score(
    rows: SparseRows,
    features: np.ndarray,
    n_terms: int,
    doc_ids: list[str],
    labels: dict[str, str],
    k: int,
    seed,
) -> tuple[F1Report, Clustering]:
    """Cluster the rows projected onto the features and score the result;
    rows left without a feature go to the leftover cluster."""
    clustering = cluster_matrix(project_rows(rows, features, n_terms), doc_ids, k, seed)
    return weighted_f1(clustering, labels), clustering


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
        corpus = build_corpus(manifest, config)
        log.info("criteria: %d (doc, term) pairs", corpus.n_pairs)

    weigher = _Representations(corpus)
    k = config.k if config.k is not None else len(manifest.categories())
    labels = manifest.labels()
    all_ids = list(corpus.doc_ids)
    all_docs = np.arange(corpus.n_docs)
    n_terms = len(corpus.vocab)
    seed_root = np.random.SeedSequence(config.seed)
    size_seeds = seed_root.spawn(len(config.vector_sizes))

    with _stage("weigh"):
        rows, tuned_kb = weigher.rows(config.representation, all_docs)
        log.info(
            "weigh[%s]: %d vectors, %d nonzero entries",
            config.representation,
            rows.n_rows,
            rows.weights.size,
        )
        if tuned_kb is not None:
            report.tuned_kb_path = config.out_dir / "afcc.tuned.kb"
            dump_kb(tuned_kb, report.tuned_kb_path)
        if config.dump_vectors:
            dump_vectors(
                unpack_rows(rows, all_ids, corpus.vocab), config.out_dir / "vectors.txt"
            )

    with _stage("reduce"):
        order = mft_rank(rows)
        log.info("reduce: vocabulary %d terms", len(order))
        if config.dump_features:
            for size in config.vector_sizes:
                features = FeatureSet(tuple(corpus.vocab[t] for t in order[:size]), size)
                dump_features(features, config.out_dir / f"features_{size}.txt")

    with _stage("cluster"):
        for size, size_seed in zip(config.vector_sizes, size_seeds):
            f1, clustering = _score(
                rows, order[:size], n_terms, all_ids, labels, k, size_seed
            )
            zero_docs = len(clustering.leftover)
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
    weigher: _Representations,
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
    corpus = weigher.corpus
    row_of = {doc_id: i for i, doc_id in enumerate(corpus.doc_ids)}
    for si, sub in enumerate(subsets):
        sub_ids = sub.doc_ids()
        sub_docs = np.array([row_of[d] for d in sub_ids], dtype=np.int64)
        sub_labels = sub.labels()
        for rep in reps:
            rows, _ = weigher.rows(rep, sub_docs)
            order = mft_rank(rows)
            for zi, size in enumerate(config.vector_sizes):
                seed = cluster_seeds[si * len(config.vector_sizes) + zi]
                f1, _ = _score(
                    rows, order[:size], len(corpus.vocab), sub_ids, sub_labels, k, seed
                )
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
