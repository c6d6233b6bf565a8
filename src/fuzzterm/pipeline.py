"""End-to-end experiment pipeline.

Stages run in order: ingest -> criteria -> weigh (tuning first for the
self-adjusting representation) -> reduce -> cluster -> score, optionally a
significance stage over stratified sub-corpora, then emission of a results
file (JSON lines) and a human-readable table.  Any stage failure surfaces
as a StageError tagged with the stage name; a criteria failure also names
the document.  A corpus with fewer documents than clusters, and subsets
that the manifest and config alone show cannot be drawn or clustered, fail
at ingest, before any document is read.

The criteria stage reads each document as a columnar token stream of term
ids, counts its criteria into columns (`ingest.extract_criteria`) and
appends them to one columnar `corpus.Corpus` before the next document is
read; one term table per corpus gives the ids.  From there
every step works on arrays: a sub-corpus is an ascending array of document
rows, each rule base weighs a selection in one batch (bundled bases once
per corpus, afcc once per tuning; the global positions once per distinct
auxiliary system, which tuning leaves alone), `reduction.mft_rank` ranks
the weighted rows, `reduction.project_rows` writes the matrix
`cluster.cluster_matrix` splits into one label per row, and
`cluster.weighted_f1` scores those labels against the rows' categories.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .cluster import F1Report, cluster_matrix, stratified_subsample, weighted_f1
from .corpus import Corpus, CorpusBuilder, SparseRows
from .errors import CategoryTooSmall, FuzztermError, InsufficientDocs, StageError
from .ingest import (
    ANCHOR_VARIANTS,
    CorpusManifest,
    ManifestEntry,
    TermTable,
    apply_anchor_variant,
    extract_criteria,
    load_manifest,
    parse_html,
    read_anchor_texts,
)
from .kb import (
    TUNED_CRITERIA,
    DistributionProfile,
    KnowledgeBase,
    dump_kb,
    load_bundled,
    tune_afcc,
)
from .reduction import dump_features, mft_rank, project_rows
from .stats import TTestResult, paired_ttest
from .weighting import (
    dump_vectors,
    fuzzy_rows,
    global_positions,
    idf_rows,
    tfidf_rows,
)

log = logging.getLogger(__name__)

REPRESENTATIONS = ("tfidf", "fcc", "addfcc", "efcc", "efcc-idf", "afcc")
DEFAULT_VECTOR_SIZES = (100, 500, 1000, 2000, 5000)


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
        if len(set(self.baselines)) != len(self.baselines):
            raise ValueError(f"baselines must be distinct, got {', '.join(self.baselines)}")
        if self.anchor_variant:
            if self.anchor_variant.lower() not in ANCHOR_VARIANTS:
                raise ValueError(
                    f"unknown anchor variant {self.anchor_variant!r}; "
                    f"choose from {ANCHOR_VARIANTS}"
                )
            if self.anchors_dir is None or not Path(self.anchors_dir).is_dir():
                raise ValueError(
                    f"anchor_variant needs an existing anchors_dir, got {self.anchors_dir}"
                )
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_subsets < 0 or self.n_subsets == 1:
            raise ValueError(f"n_subsets must be 0 or at least 2, got {self.n_subsets}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        if self.n_subsets and not set(self.baselines) - {self.representation}:
            raise ValueError(
                "significance requested but no baselines other than "
                f"{self.representation!r} given"
            )


_BOOL_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_PATH_KEYS = ("manifest", "out_dir", "anchors_dir")


def _words(value: str) -> tuple[str, ...]:
    return tuple(value.replace(",", " ").split())


def _as_bool(value: str) -> bool:
    return _BOOL_VALUES[value.lower()]


def _sizes(value: str) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in _words(value))
    if not sizes:
        raise ValueError("no vector sizes")
    return sizes


# config key -> (parser of its value, what the value must be); the keys in
# _PATH_KEYS resolve against the config file's directory instead
_PARSERS = {
    "representation": (str, "a name"),
    "anchor_variant": (lambda v: v or None, "a name"),
    "vector_sizes": (_sizes, "a list of integers"),
    "k": (int, "an integer"),
    "seed": (int, "an integer"),
    "n_subsets": (int, "an integer"),
    "fraction": (float, "a number"),
    "baselines": (_words, "a list of names"),
    "dump_vectors": (_as_bool, "a boolean"),
    "dump_features": (_as_bool, "a boolean"),
}

# a '#' starts a comment at the start of a line or after whitespace, so a
# value such as a path may contain one
_COMMENT_RE = re.compile(r"(?:^|\s)#.*")


def load_config(path) -> RunConfig:
    """Flat `key = value` config; paths resolve against the file's directory,
    which is also the default out_dir.  Other keys left out keep their
    RunConfig defaults."""
    path = Path(path)
    base = path.parent
    raw: dict[str, str] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = _COMMENT_RE.sub("", line, count=1).strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key = key.strip()
        if key in raw:
            raise ValueError(f"{path}:{line_no}: {key} is set twice")
        raw[key] = value.strip()
    if "manifest" not in raw:
        raise ValueError(f"{path}: config must set 'manifest'")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(
            f"{path}: unknown config keys: {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(_CONFIG_KEYS))})"
        )

    values: dict = {"out_dir": base}
    for key, value in raw.items():
        if key in _PATH_KEYS:
            values[key] = (base / value).resolve()
            continue
        parse, kind = _PARSERS[key]
        try:
            values[key] = parse(value)
        except (KeyError, ValueError):
            raise ValueError(f"{path}: {key} must be {kind}, got {value!r}") from None
    cfg = RunConfig(**values)
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


def _doc_criteria(entry: ManifestEntry, config: RunConfig, table: TermTable):
    """One document's criteria columns, as ids of the corpus's term table;
    a failure is raised as a criteria StageError naming the document."""
    try:
        stream = parse_html(entry.path.read_bytes(), table=table)
        if config.anchor_variant:
            anchors = read_anchor_texts(config.anchors_dir, entry.doc_id)
            stream = apply_anchor_variant(stream, anchors, config.anchor_variant)
        return extract_criteria(stream)
    except (FuzztermError, ValueError, OSError) as exc:
        raise StageError("criteria", exc, f"{entry.doc_id} ({entry.path})") from exc


def build_corpus(manifest: CorpusManifest, config: RunConfig) -> Corpus:
    """The columnar corpus.  Each document's criteria columns (and its token
    stream) are dropped once packed, before the next document is read."""
    builder = CorpusBuilder()
    for entry in manifest.entries:
        builder.add(entry.doc_id, _doc_criteria(entry, config, builder.table))
    return builder.build()


def corpus_profiles(corpus: Corpus, docs: np.ndarray | None = None) -> dict:
    """Distribution profiles per criterion over the pairs of the selected
    documents (all when docs is None); None where they have no nonzero
    values (the tuner then keeps the base sets)."""
    pairs = slice(None) if docs is None else corpus.select(docs)[0]
    columns = {"frequency": corpus.freq, "emphasis": corpus.emph, "title": corpus.title}
    profiles = {}
    for criterion in TUNED_CRITERIA:
        values = columns[criterion][pairs]
        values = values[values > 0.0]
        profiles[criterion] = DistributionProfile(criterion, values) if values.size else None
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


def _score_sizes(
    rows: SparseRows,
    order: np.ndarray,
    n_terms: int,
    categories: list[str],
    k: int,
    sizes: tuple[int, ...],
    seeds: list[np.random.SeedSequence],
):
    """Yield (size, F1Report, cluster labels) per vector size: the rows
    projected onto the size's top-ranked features, clustered and scored.
    Rows left without a feature take the leftover label k.  Each projected
    matrix is read by nothing but `cluster_matrix`, which normalizes it in
    place."""
    for size, seed in zip(sizes, seeds):
        labels = cluster_matrix(project_rows(rows, order[:size], n_terms), k, seed)
        yield size, weighted_f1(labels, categories), labels


def run(config: RunConfig) -> ExperimentReport:
    """Execute the configured experiment; returns the in-memory report after
    writing results.jsonl and report.txt under config.out_dir."""
    report = ExperimentReport(config)
    with _stage("config"):
        config.validate()
        config.out_dir.mkdir(parents=True, exist_ok=True)

    with _stage("ingest"):
        manifest = load_manifest(config.manifest)
        log.info(
            "ingest: %d documents, %d categories",
            len(manifest),
            len(manifest.categories()),
        )
        categories = [e.category for e in manifest.entries]
        k = config.k if config.k is not None else len(manifest.categories())
        if len(categories) < k:
            raise InsufficientDocs(f"{len(categories)} documents cannot fill {k} clusters")
        if config.n_subsets > 0:
            _check_subsets(categories, k, config.fraction)

    with _stage("criteria"):
        corpus = build_corpus(manifest, config)
        log.info("criteria: %d (doc, term) pairs", corpus.n_pairs)

    weigher = _Representations(corpus)
    all_docs = np.arange(corpus.n_docs)
    size_seeds = np.random.SeedSequence(config.seed).spawn(len(config.vector_sizes))

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
            dump_vectors(rows, corpus.doc_ids, corpus.vocab, config.out_dir / "vectors.txt")

    with _stage("reduce"):
        order = mft_rank(rows)
        log.info("reduce: vocabulary %d terms", len(order))
        if config.dump_features:
            for size in config.vector_sizes:
                features = [corpus.vocab[t] for t in order[:size].tolist()]
                dump_features(features, config.out_dir / f"features_{size}.txt")

    with _stage("cluster"):
        for size, f1, labels in _score_sizes(
            rows, order, len(corpus.vocab), categories, k, config.vector_sizes, size_seeds
        ):
            zero_docs = int(np.count_nonzero(labels == k))
            report.records.append(
                RunRecord(
                    config.representation,
                    size,
                    config.seed,
                    k,
                    f1,
                    zero_docs,
                    int(np.count_nonzero(np.bincount(labels))),
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
            _significance(report, weigher, categories, k, config)

    with _stage("emit"):
        report.results_path = config.out_dir / "results.jsonl"
        report.results_path.write_bytes(render_results(report).encode("utf-8"))
        report.table_path = config.out_dir / "report.txt"
        report.table_path.write_text(render_table(report), encoding="utf-8")
    return report


def _check_subsets(categories: list[str], k: int, fraction: float) -> None:
    """Raise at ingest what the significance stage would otherwise meet
    after every stage before it: a category too small to subsample, or
    stratified subsets, ceil(fraction * |c|) documents per category, too
    small to fill k clusters."""
    sizes = Counter(categories)
    for cat, size in sizes.items():
        if size < 2:
            raise CategoryTooSmall(f"category {cat!r} has {size} document(s)")
    subset = sum(math.ceil(fraction * size) for size in sizes.values())
    if subset < k:
        raise InsufficientDocs(f"subsets of {subset} documents cannot fill {k} clusters")


def _significance(
    report: ExperimentReport,
    weigher: _Representations,
    categories: list[str],
    k: int,
    config: RunConfig,
) -> None:
    subsets = stratified_subsample(
        categories, config.fraction, config.n_subsets, config.seed
    )
    log.info("significance: %d subsets of ~%d docs", len(subsets), len(subsets[0]))
    reps = (config.representation,) + tuple(
        b for b in config.baselines if b != config.representation
    )
    sizes = config.vector_sizes
    cluster_seeds = np.random.SeedSequence((config.seed, 1)).spawn(len(subsets) * len(sizes))
    scores: dict[tuple[str, int], list[float]] = {
        (rep, size): [] for rep in reps for size in sizes
    }
    n_terms = len(weigher.corpus.vocab)
    for si, sub_docs in enumerate(subsets):
        sub_categories = [categories[i] for i in sub_docs]
        seeds = cluster_seeds[si * len(sizes):(si + 1) * len(sizes)]
        for rep in reps:
            rows, _ = weigher.rows(rep, sub_docs)
            for size, f1, _ in _score_sizes(
                rows, mft_rank(rows), n_terms, sub_categories, k, sizes, seeds
            ):
                scores[(rep, size)].append(f1.overall)
    report.subset_scores = scores
    for baseline in reps[1:]:
        for size in sizes:
            result = paired_ttest(
                scores[(config.representation, size)], scores[(baseline, size)]
            )
            report.significance.append(
                SignificanceRecord(
                    config.representation, baseline, size, len(subsets), result
                )
            )


# the RunConfig fields the config record of results.jsonl holds
_RECORDED_CONFIG = (
    "representation", "anchor_variant", "vector_sizes", "k", "seed", "n_subsets",
    "fraction", "baselines",
)


def render_results(report: ExperimentReport) -> str:
    """JSON-lines rendering: header, run records, subset scores, t-tests.
    Deterministic for a fixed config and seed."""
    config = report.config
    records = [{"kind": "config", **{name: getattr(config, name) for name in _RECORDED_CONFIG}}]
    for rec in report.records:
        run_record = asdict(rec)
        f1 = run_record.pop("report")
        run_record.update(overall_f1=f1["overall"], per_category=f1["per_category"])
        records.append({"kind": "run", **run_record})
    for (rep, size), values in sorted(report.subset_scores.items()):
        records.append(
            {"kind": "subset_scores", "representation": rep, "vector_size": size, "scores": values}
        )
    for sig in report.significance:
        ttest = asdict(sig)
        ttest.update(ttest.pop("result"))
        records.append({"kind": "ttest", **ttest})
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def _mean(values) -> str:
    return f"{sum(values) / len(values):.3f}"


def render_table(report: ExperimentReport) -> str:
    """Text table: the run's representation and each representation's
    subset means, one column per vector size."""
    config = report.config
    sizes = config.vector_sizes
    header = ["representation"] + [str(s) for s in sizes] + ["avg"]
    overall = [rec.report.overall for rec in report.records]
    rows = [[config.representation] + [f"{v:.3f}" for v in overall] + [_mean(overall)]]
    sub_rows = []
    for rep in sorted({rep for rep, _ in report.subset_scores}):
        per_size = [report.subset_scores[(rep, s)] for s in sizes]
        every = [v for values in per_size for v in values]
        sub_rows.append([f"{rep} (subset mean)"] + [_mean(v) for v in per_size] + [_mean(every)])

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
        out.append(f"paired t-tests ({config.n_subsets} subsets, fraction {config.fraction:g})")
        for sig in report.significance:
            r = sig.result
            flag = " (zero variance)" if r.zero_variance else ""
            out.append(
                f"  {sig.a} vs {sig.b} @ {sig.vector_size}: "
                f"mean diff {r.mean_diff:+.4f}, t = {r.t:.3f}, "
                f"df = {r.df}, p = {r.p:.4f}{flag}"
            )
    return "\n".join(out) + "\n"
