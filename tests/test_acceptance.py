"""End-to-end acceptance checks.

One test per shipped guarantee.  Each test prints a single
``[PASS]``/``[FAIL]`` line (run ``pytest -s tests/test_acceptance.py`` to see
them live) and enforces both the numeric tolerance and the runtime budget.
Runtime budgets assume the JIT warm-up fixture in conftest has already run.
"""

import math
import time
import warnings
from pathlib import Path

import numpy as np

from fuzzterm import (
    check_completeness,
    generate_corpus,
    load_bundled,
    load_manifest,
    paired_ttest,
    tune_afcc,
    weighted_f1,
)
from fuzzterm.cli import main as cli_main
from fuzzterm.cluster import cluster_matrix
from fuzzterm.corpus import Corpus, CorpusBuilder
from fuzzterm.ingest import CriteriaColumns
from fuzzterm.kb import DistributionProfile
from fuzzterm.pipeline import RunConfig, build_corpus, corpus_profiles
from fuzzterm.reduction import mft_rank, project_rows
from fuzzterm.weighting import fuzzy_rows, global_positions, idf_rows, tfidf_rows

from oracles import (
    best_partition_criterion,
    centroid_of_mixture,
    clustering_criterion,
    mft_brute_force,
    sparse_rows_of,
    tfidf_reference,
    trapezoid_membership,
)


def _corpus(manifest_path: Path) -> Corpus:
    return build_corpus(load_manifest(manifest_path), RunConfig(manifest=manifest_path))


def _cluster_f1(rows, n_terms, size, k, seed, categories) -> float:
    """Overall F1 of the rows projected on their top `size` MFT features
    and clustered into k groups, as one vector size of a run scores."""
    X = project_rows(rows, mft_rank(rows)[:size], n_terms)
    return weighted_f1(cluster_matrix(X, k, seed), categories).overall


def _outcome(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# importance consequents of the emphasis-only base, by emphasis set label
EMPH_INPUT_SETS = {
    "low": (0.0, 0.0, 0.05, 0.15),
    "medium": (0.05, 0.15, 0.55, 0.75),
    "high": (0.55, 0.75, 1.0, 1.0),
}
EMPH_CONSEQUENT = {
    "low": (0.0, 0.0, 0.1, 0.2),  # no
    "medium": (0.3, 0.4, 0.6, 0.7),  # medium
    "high": (0.8, 0.9, 1.0, 1.0),  # very-high
}
# 12 points inside a single input set, 8 on the overlaps
SINGLE_FIRE = [0.0, 0.02, 0.05, 0.2, 0.3, 0.4, 0.5, 0.55, 0.75, 0.8, 0.9, 1.0]
MIXTURES = [0.07, 0.1, 0.12, 0.14, 0.6, 0.65, 0.7, 0.73]


def _emph_expected(x: float) -> float:
    contributions = []
    for label, params in EMPH_INPUT_SETS.items():
        degree = trapezoid_membership(x, *params)
        if degree > 0.0:
            contributions.append((degree, EMPH_CONSEQUENT[label]))
    return centroid_of_mixture(contributions)


def test_criterion_1_inference_goldens():
    start = time.perf_counter()
    kb = load_bundled("emph")
    system = kb.system()
    doubled = kb.system(grid_points=2 * system.grid_points - 1)
    cases = SINGLE_FIRE + MIXTURES
    assert len(cases) == 20
    worst = 0.0
    worst_doubling = 0.0
    for x in cases:
        inputs = {"Frequency": 0.5, "Title": 0.5, "Emphasis": x, "Position": 0.5}
        got = system.infer(inputs)
        worst = max(worst, abs(got - _emph_expected(x)))
        worst_doubling = max(worst_doubling, abs(got - doubled.infer(inputs)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and worst_doubling < 1e-4 and elapsed < 1.0
    _outcome(
        1,
        ok,
        f"20 inference goldens, worst |err|={worst:.2e} (<1e-3), "
        f"grid doubling shift={worst_doubling:.2e} (<1e-4), {elapsed:.2f}s (<1s)",
    )


def test_criterion_2_rule_base_completeness():
    start = time.perf_counter()
    for name in ("fcc", "addfcc", "efcc", "emph"):
        check_completeness(load_bundled(name), grid_per_axis=21)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _outcome(
        2,
        ok,
        f"four bundled bases complete on the 21^4 input grid, "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_3_tuner_convergence(corpus_dir_200):
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    uniform = DistributionProfile("frequency", 1.0 - rng.random(100_000))
    tuned = tune_afcc(load_bundled("efcc"), {"frequency": uniform})
    medium = tuned.frequency.sets[1].params
    uniform_ok = all(
        abs(got - want) <= 0.02
        for got, want in zip(medium, (0.2, 0.4, 0.6, 0.8))
    )

    corpus = _corpus(corpus_dir_200 / "manifest.tsv")
    profiles = corpus_profiles(corpus)
    freq_profile = profiles["frequency"]
    fired = freq_profile.frac_below(0.2) > 0.55
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        corpus_tuned = tune_afcc(load_bundled("efcc"), profiles)
    first_edge = corpus_tuned.frequency.sets[1].params[0]
    elapsed = time.perf_counter() - start
    ok = uniform_ok and fired and first_edge == 0.2 and elapsed < 10.0
    _outcome(
        3,
        ok,
        f"uniform 1e5 boundaries {tuple(round(v, 3) for v in medium)} within "
        f"+-0.02 of (0.2,0.4,0.6,0.8); Zipf corpus frac_below(0.2)="
        f"{freq_profile.frac_below(0.2):.3f} (>0.55) and first edge "
        f"{first_edge} (==0.2); {elapsed:.1f}s (<10s)",
    )


def _one_term_corpus(n_docs: int, df: int, tf: int) -> Corpus:
    """n_docs documents; the first df hold the one term "w", tf times."""
    zeros = np.zeros(df)
    return Corpus(
        doc_ids=tuple(map(str, range(n_docs))),
        vocab=("w",),
        doc_offsets=np.minimum(np.arange(n_docs + 1), df),
        term_ids=np.zeros(df, dtype=np.int64),
        freq=np.ones(df),
        title=zeros,
        emph=zeros,
        raw_tf=np.full(df, tf, dtype=np.int64),
        positions=zeros,
        pos_offsets=np.arange(df + 1),
    )


def test_criterion_4_tfidf_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    dropped_ok = True
    for _ in range(1000):
        n_docs = int(rng.integers(2, 10_000))
        df = int(rng.integers(1, n_docs + 1))
        tf = int(rng.integers(1, 500))
        rows = tfidf_rows(_one_term_corpus(n_docs, df, tf), np.arange(n_docs))
        expected = tfidf_reference(tf, df, n_docs)
        if expected == 0.0:
            dropped_ok = dropped_ok and rows.weights.size == 0
        else:
            assert rows.weights.size == df
            worst = max(worst, float(np.abs(rows.weights - expected).max()) / abs(expected))
    arithmetic_ok = worst < 1e-12 and dropped_ok

    # EFCC-IDF must equal the product of the separately computed factors
    kb = load_bundled("efcc")
    builder = CorpusBuilder()
    doc_terms = []
    term_rng = np.random.default_rng(78)
    for i in range(6):
        terms, columns = [], []
        for j in range(10):
            if term_rng.random() < 0.6:
                terms.append(f"t{j}")
                columns.append(
                    (
                        float(term_rng.random()),
                        float(term_rng.random()),
                        float(term_rng.random()),
                        float(term_rng.random()),
                        int(term_rng.integers(1, 9)),
                    )
                )
        freq, title, emph, position, raw_tf = (np.array(c) for c in zip(*columns))
        builder.add(
            f"d{i}",
            CriteriaColumns(
                builder.table,
                np.fromiter(map(builder.table.intern, terms), np.int64),
                freq, title, emph, raw_tf, position, np.ones(len(terms), dtype=np.int64),
            ),
        )
        doc_terms.append(terms)
    corpus = builder.build()
    docs = np.arange(corpus.n_docs)
    fuzzy = fuzzy_rows(corpus, docs, kb, global_positions(corpus, kb))
    combined = idf_rows(fuzzy, corpus, docs)
    df = {t: sum(t in terms for terms in doc_terms) for t in corpus.vocab}
    product_ok = True
    for d in docs:
        span = slice(combined.offsets[d], combined.offsets[d + 1])
        got = dict(zip(combined.term_ids[span].tolist(), combined.weights[span].tolist()))
        span = slice(fuzzy.offsets[d], fuzzy.offsets[d + 1])
        for t, fw in zip(fuzzy.term_ids[span].tolist(), fuzzy.weights[span].tolist()):
            expected = fw * math.log(len(docs) / df[corpus.vocab[t]])
            if expected == 0.0:
                product_ok = product_ok and t not in got
            else:
                product_ok = product_ok and got[t] == expected
    ok = arithmetic_ok and product_ok
    _outcome(
        4,
        ok,
        f"1000 tf-idf triples worst rel err={worst:.1e} (<1e-12); "
        f"fuzzy*idf products exact={product_ok}",
    )


def test_criterion_5_feature_selection_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    monotone_ok = True
    for _ in range(200):
        n_docs = int(rng.integers(2, 16))
        vocab = [f"w{i:02d}" for i in range(int(rng.integers(2, 31)))]
        weight_maps = []
        for d in range(n_docs):
            terms = rng.choice(len(vocab), size=int(rng.integers(1, len(vocab) + 1)), replace=False)
            # quantized weights force rank ties across documents
            weight_maps.append({vocab[t]: float(rng.integers(1, 5)) / 4.0 for t in terms})
        order = [vocab[t] for t in mft_rank(sparse_rows_of(weight_maps, vocab)).tolist()]
        previous: set[str] = set()
        for k in range(1, len(vocab) + 1):
            # a selection of k features is the first k of the order
            selected = set(mft_brute_force(weight_maps, k))
            if set(order[:k]) != selected:
                mismatches += 1
            if not previous <= selected:
                monotone_ok = False
            previous = selected
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and monotone_ok and elapsed < 60.0
    _outcome(
        5,
        ok,
        f"200 random corpora, all k: brute-force mismatches={mismatches}, "
        f"prefix monotone={monotone_ok}, {elapsed:.1f}s (<60s)",
    )


def test_criterion_6_clustering_sanity(corpus_dir_400):
    start = time.perf_counter()
    manifest = load_manifest(corpus_dir_400 / "manifest.tsv")
    corpus = _corpus(corpus_dir_400 / "manifest.tsv")
    categories = [e.category for e in manifest.entries]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kbs = {
            "fcc": load_bundled("fcc"),
            "addfcc": load_bundled("addfcc"),
            "efcc": load_bundled("efcc"),
            "afcc": tune_afcc(load_bundled("efcc"), corpus_profiles(corpus)),
        }
    every = np.arange(corpus.n_docs)
    scores = {}
    for rep, kb in kbs.items():
        rows = fuzzy_rows(corpus, every, kb, global_positions(corpus, kb))
        scores[rep] = _cluster_f1(
            rows, len(corpus.vocab), 500, 4, np.random.SeedSequence(0), categories
        )
    separable_ok = all(v >= 0.95 for v in scores.values())

    # ten-document miniature against the exhaustive optimum
    rng = np.random.default_rng(9)
    X = np.empty((10, 3))
    for d, group in enumerate([0] * 4 + [1] * 3 + [2] * 3):
        X[d] = [0.1 * float(rng.random()) for _ in range(3)]
        X[d, group] = 1.0 + float(rng.random())
    labels = cluster_matrix(X.copy(), 3, np.random.SeedSequence(1))
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    achieved = clustering_criterion(X, labels)
    best = best_partition_criterion(X, 3)
    mini_ok = abs(achieved - best) < 1e-9
    elapsed = time.perf_counter() - start
    ok = separable_ok and mini_ok and elapsed < 120.0
    _outcome(
        6,
        ok,
        "400-doc F1 " + ", ".join(f"{r}={scores[r]:.3f}" for r in kbs)
        + f" (all >=0.95); miniature criterion {achieved:.6f} == optimum "
        f"{best:.6f}; {elapsed:.1f}s (<120s)",
    )


def test_criterion_7_representation_ordering(tmp_path):
    start = time.perf_counter()
    sizes = (100, 500)
    seeds = (100, 101, 102, 103, 104)
    scores: dict[tuple[str, int], list[float]] = {}
    for seed in seeds:
        corpus = tmp_path / f"rhetoric{seed}"
        generate_corpus(
            corpus,
            categories=4,
            docs_per_category=50,
            mode="zipf",
            seed=seed,
            topic_fraction=0.08,
            doc_length=(20, 40),
            title_rhetoric=6,
        )
        manifest = load_manifest(corpus / "manifest.tsv")
        packed = _corpus(corpus / "manifest.tsv")
        categories = [e.category for e in manifest.entries]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kbs = {
                "fcc": load_bundled("fcc"),
                "efcc": load_bundled("efcc"),
                "afcc": tune_afcc(load_bundled("efcc"), corpus_profiles(packed)),
            }
        every = np.arange(packed.n_docs)
        for rep, kb in kbs.items():
            rows = fuzzy_rows(packed, every, kb, global_positions(packed, kb))
            for size in sizes:
                f1 = _cluster_f1(
                    rows, len(packed.vocab), size, 4, np.random.SeedSequence((seed, size)),
                    categories,
                )
                scores.setdefault((rep, size), []).append(f1)
    means = {key: float(np.mean(vals)) for key, vals in scores.items()}
    ordering_ok = all(
        means[("efcc", s)] >= means[("fcc", s)]
        and means[("afcc", s)] >= means[("fcc", s)]
        for s in sizes
    )
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        f"size {s}: fcc={means[('fcc', s)]:.3f} efcc={means[('efcc', s)]:.3f} "
        f"afcc={means[('afcc', s)]:.3f}"
        for s in sizes
    )
    _outcome(
        7,
        ordering_ok,
        f"rhetoric-title corpus, 5-seed means ({detail}); "
        f"efcc,afcc >= fcc at both sizes; {elapsed:.1f}s",
    )


def test_criterion_8_paired_ttest():
    result = paired_ttest([2.0, 4.0, 6.0, 8.0], [1.0, 2.0, 3.0, 4.0])
    t_ok = abs(result.t - 3.873) < 1e-3 and result.df == 3
    p_ok = abs(result.p - 0.0305) < 1e-3

    rng = np.random.default_rng(55)
    antisym_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        if not (fwd.t == -rev.t and fwd.p == rev.p):
            antisym_ok = False
    ok = t_ok and p_ok and antisym_ok
    _outcome(
        8,
        ok,
        f"d=[1,2,3,4]: t={result.t:.4f} (~3.873), p={result.p:.5f} (~0.0305), "
        f"df={result.df}; antisymmetric on 100 pairs={antisym_ok}",
    )


def test_criterion_9_run_determinism(corpus_dir_200, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"manifest = {corpus_dir_200 / 'manifest.tsv'}\n"
        "representation = efcc\n"
        "vector_sizes = 50, 100\n"
        "k = 4\n"
        "seed = 17\n"
        "baselines = tfidf\n"
        "n_subsets = 2\n"
        "fraction = 0.5\n",
        encoding="utf-8",
    )
    outputs = []
    for out_name in ("first", "second"):
        out_dir = tmp_path / out_name
        code = cli_main(["run", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        outputs.append(
            (
                (out_dir / "results.jsonl").read_bytes(),
                (out_dir / "report.txt").read_bytes(),
            )
        )
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    _outcome(
        9,
        ok,
        f"two identical `run` invocations byte-identical: "
        f"results.jsonl={outputs[0][0] == outputs[1][0]}, "
        f"report.txt={outputs[0][1] == outputs[1][1]}",
    )
