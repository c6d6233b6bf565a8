"""`pipeline.run` against an oracle pipeline built from the per-document dict
references, on a corpus that does not cluster perfectly, so a changed
weight, ranking, column or label shows in the scores."""

import warnings

import numpy as np
import pytest

from fuzzterm import (
    CorpusStats,
    generate_corpus,
    load_bundled,
    load_manifest,
    profile_criterion,
    run,
    stratified_subsample,
    tune_afcc,
    weighted_f1,
)
from fuzzterm.cluster import Clustering, bisect_labels
from fuzzterm.errors import EmptyProfile
from fuzzterm.kb import TUNED_CRITERIA
from fuzzterm.pipeline import REPRESENTATIONS, RunConfig, _build_criteria
from fuzzterm.stats import paired_ttest

from oracles import mft_order_reference, projected_matrix_reference, weigh_fuzzy_reference


@pytest.fixture(scope="module")
def weak_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("weak")
    generate_corpus(
        out,
        categories=3,
        docs_per_category=12,
        mode="zipf",
        seed=21,
        topic_fraction=0.08,
        doc_length=(30, 60),
    )
    return out / "manifest.tsv"


def oracle_weights(rep, criteria, doc_ids):
    """One {term: weight} map per document, from the dict references."""
    subset = {d: criteria[d] for d in doc_ids}
    stats = CorpusStats.from_criteria(subset)
    if rep == "tfidf":
        return [
            {t: w for t, c in subset[d].items() if (w := c.raw_tf * stats.idf(t)) != 0.0}
            for d in doc_ids
        ]
    if rep == "efcc-idf":
        efcc = load_bundled("efcc")
        return [
            {
                t: s
                for t, w in weigh_fuzzy_reference(subset[d], efcc).items()
                if (s := w * stats.idf(t)) != 0.0
            }
            for d in doc_ids
        ]
    if rep == "afcc":
        profiles = {}
        for criterion in TUNED_CRITERIA:
            try:
                profiles[criterion] = profile_criterion(subset, criterion)
            except EmptyProfile:
                profiles[criterion] = None
        kb = tune_afcc(load_bundled("efcc"), profiles)
    else:
        kb = load_bundled(rep)
    return [weigh_fuzzy_reference(subset[d], kb) for d in doc_ids]


def oracle_score(maps, order, size, doc_ids, labels, k, seed):
    """(F1 report, clusters in use, zero docs) of the maps projected on the
    first `size` terms of `order`."""
    X, _ = projected_matrix_reference(maps, order[:size])
    nonzero = [i for i, m in enumerate(X) if np.linalg.norm(m) > 0]
    labels_nz = bisect_labels(X[nonzero], k, seed)
    assignment = {doc_ids[i]: k for i in range(len(doc_ids))}
    for i, label in zip(nonzero, labels_nz):
        assignment[doc_ids[i]] = int(label)
    leftover = frozenset(d for d, c in assignment.items() if c == k)
    clustering = Clustering(assignment, k + 1 if leftover else k, leftover)
    return weighted_f1(clustering, labels), len(set(assignment.values())), len(leftover)


def oracle_run(config):
    manifest = load_manifest(config.manifest)
    criteria = _build_criteria(manifest, config)
    k = len(manifest.categories())
    labels = manifest.labels()
    doc_ids = manifest.doc_ids()
    sizes = config.vector_sizes
    records = []
    maps = oracle_weights(config.representation, criteria, doc_ids)
    order = mft_order_reference(maps)
    for size, seed in zip(sizes, np.random.SeedSequence(config.seed).spawn(len(sizes))):
        f1, clusters, zero_docs = oracle_score(maps, order, size, doc_ids, labels, k, seed)
        records.append((config.representation, size, f1, zero_docs, clusters))

    reps = (config.representation,) + tuple(
        b for b in config.baselines if b != config.representation
    )
    subsets = stratified_subsample(manifest, config.fraction, config.n_subsets, config.seed)
    seeds = np.random.SeedSequence((config.seed, 1)).spawn(len(subsets) * len(sizes))
    scores = {(rep, size): [] for rep in reps for size in sizes}
    for si, sub in enumerate(subsets):
        sub_ids = sub.doc_ids()
        for rep in reps:
            maps = oracle_weights(rep, criteria, sub_ids)
            order = mft_order_reference(maps)
            for zi, size in enumerate(sizes):
                seed = seeds[si * len(sizes) + zi]
                f1, _, _ = oracle_score(maps, order, size, sub_ids, sub.labels(), k, seed)
                scores[(rep, size)].append(f1.overall)
    ttests = [
        (config.representation, b, size, paired_ttest(scores[(reps[0], size)], scores[(b, size)]))
        for b in reps[1:]
        for size in sizes
    ]
    return records, scores, ttests


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_run_equals_dict_reference_pipeline(weak_corpus, tmp_path, representation):
    config = RunConfig(
        manifest=weak_corpus,
        representation=representation,
        vector_sizes=(5, 15, 60),
        seed=3,
        out_dir=tmp_path,
        n_subsets=3,
        fraction=0.5,
        baselines=tuple(r for r in REPRESENTATIONS if r != representation),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tuner nudges tied edges
        report = run(config)
        records, scores, ttests = oracle_run(config)

    got = [
        (r.representation, r.vector_size, r.report, r.zero_docs, r.clusters)
        for r in report.records
    ]
    assert got == records
    assert report.subset_scores == scores
    assert [(s.a, s.b, s.vector_size, s.result) for s in report.significance] == ttests
    # the corpus must not cluster perfectly, or a label change could hide
    assert min(v for values in scores.values() for v in values) < 1.0
    assert min(r.report.overall for r in report.records) < 1.0
