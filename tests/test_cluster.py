import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzterm import repeated_bisections, stratified_subsample, weighted_f1
from fuzzterm.cluster import (
    Clustering,
    bisect_labels,
    build_matrix,
    clustering_criterion,
    _bisect,
    _refine,
    _row_norms,
)
from fuzzterm.errors import CategoryTooSmall, InsufficientDocs
from fuzzterm.ingest import CorpusManifest, ManifestEntry
from fuzzterm.weighting import DocVector

from oracles import (
    best_partition_criterion,
    bisect_labels_reference,
    bisect_reference,
    refine_reference,
    weighted_f1_reference,
)

properties = settings(deadline=None, database=None)


def bundle(prefix, n, vocab, rng, start=0):
    """n docs over a disjoint per-bundle vocabulary, mildly noisy weights."""
    out = []
    for i in range(n):
        weights = {
            f"{prefix}{j}": float(0.5 + rng.random()) for j in range(vocab)
        }
        out.append(DocVector(f"{prefix}doc{start + i}", weights))
    return out


def two_bundles(n_each=50, rng=None):
    rng = rng or np.random.default_rng(0)
    return bundle("red", n_each, 6, rng) + bundle("blue", n_each, 6, rng)


def labels_for(vectors, split):
    return {
        v.doc_id: ("red" if i < split else "blue") for i, v in enumerate(vectors)
    }


class TestRepeatedBisections:
    def test_orthogonal_bundles_split_perfectly(self):
        vectors = two_bundles()
        clustering = repeated_bisections(vectors, 2, seed=7)
        report = weighted_f1(clustering, labels_for(vectors, 50))
        assert report.overall == 1.0

    def test_k_one(self):
        vectors = two_bundles(5)
        clustering = repeated_bisections(vectors, 1, seed=0)
        assert clustering.k == 1
        assert set(clustering.assignment.values()) == {0}

    def test_k_equals_n(self):
        vectors = two_bundles(3)
        clustering = repeated_bisections(vectors, len(vectors), seed=0)
        assert sorted(clustering.assignment.values()) == list(range(len(vectors)))

    def test_insufficient_docs(self):
        vectors = two_bundles(2)  # 4 docs
        with pytest.raises(InsufficientDocs):
            repeated_bisections(vectors, 5, seed=0)

    def test_zero_vectors_counted_against_k(self):
        vectors = [DocVector("z1", {}), DocVector("a", {"t": 1.0})]
        with pytest.raises(InsufficientDocs):
            repeated_bisections(vectors, 2, seed=0)

    def test_leftover_cluster_for_zero_vectors(self):
        vectors = two_bundles(5) + [DocVector("empty1", {}), DocVector("empty2", {})]
        clustering = repeated_bisections(vectors, 2, seed=1)
        assert clustering.k == 3
        assert clustering.leftover == {"empty1", "empty2"}
        assert clustering.assignment["empty1"] == 2
        # every doc keeps an assignment so F1 denominators match the corpus
        labels = labels_for(vectors[:-2], 5) | {"empty1": "red", "empty2": "blue"}
        report = weighted_f1(clustering, labels)
        assert report.per_category["red"].support == 6

    def test_deterministic_given_seed(self):
        vectors = two_bundles(20)
        a = repeated_bisections(vectors, 4, seed=42)
        b = repeated_bisections(vectors, 4, seed=42)
        assert a.assignment == b.assignment

    def test_global_rescaling_invariance(self):
        vectors = two_bundles(10)
        scaled = [
            DocVector(v.doc_id, {t: w * 31.7 for t, w in v.weights.items()})
            for v in vectors
        ]
        a = repeated_bisections(vectors, 3, seed=5)
        b = repeated_bisections(scaled, 3, seed=5)
        assert a.assignment == b.assignment

    def test_miniature_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(13)
        vectors = bundle("red", 4, 3, rng) + bundle("blue", 3, 3, rng) + bundle(
            "green", 3, 3, rng
        )
        clustering = repeated_bisections(vectors, 3, seed=2)
        X, _ = build_matrix(vectors)
        Xn = X / np.linalg.norm(X, axis=1)[:, None]
        labels = np.array([clustering.assignment[v.doc_id] for v in vectors])
        achieved = clustering_criterion(Xn, labels)
        optimum = best_partition_criterion(Xn.tolist(), 3)
        assert achieved == pytest.approx(optimum, abs=1e-9)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            repeated_bisections(two_bundles(2), 0, seed=0)


class TestRefinement:
    def test_never_decreases_criterion(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            X = rng.random((12, 5)) + 0.1
            Xn = X / np.linalg.norm(X, axis=1)[:, None]
            labels = rng.integers(0, 3, size=12).astype(np.int64)
            before = clustering_criterion(Xn, labels)
            _refine(Xn, labels, 3)
            after = clustering_criterion(Xn, labels)
            assert after >= before - 1e-12, trial

    def test_fixes_one_misplaced_doc(self):
        rng = np.random.default_rng(8)
        vectors = two_bundles(6, rng)
        X, _ = build_matrix(vectors)
        Xn = X / np.linalg.norm(X, axis=1)[:, None]
        labels = np.array([0] * 6 + [1] * 6, dtype=np.int64)
        labels[0] = 1  # plant one wrong assignment
        _refine(Xn, labels, 2)
        assert labels[0] == 0


@st.composite
def sparse_rows(draw, four_valued=False, max_rows=40):
    """A nonnegative matrix with no zero rows and some duplicated rows.

    Entries are continuous, or, with four_valued, drawn from {0, 1, 2, 3},
    which makes exact similarity ties common.
    """
    m = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, 25))
    density = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if four_valued:
        X = rng.integers(0, 4, size=(m, d)).astype(np.float64)
    else:
        X = rng.random((m, d))
    X *= rng.random((m, d)) < density
    zero = ~X.any(axis=1)
    X[zero, rng.integers(0, d, size=int(zero.sum()))] = 1.0
    n_dup = draw(st.integers(0, m // 2))
    X[rng.integers(0, m, size=n_dup)] = X[rng.integers(0, m, size=n_dup)]
    return X


any_rows = st.one_of(sparse_rows(), sparse_rows(four_valued=True))


def normalized(X):
    return X / np.linalg.norm(X, axis=1)[:, None]


class TestLoopReferences:
    """The vectorized split and refine pass equal the plain loops exactly on
    continuous data, where similarity ties do not occur."""

    @properties
    @given(X=sparse_rows(), seed=st.integers(0, 2**32 - 1))
    def test_bisect_matches_reference(self, X, seed):
        Xs = normalized(X)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(_bisect(Xs, rng), bisect_reference(Xs, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @properties
    @given(X=sparse_rows(), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_refine_matches_reference(self, X, k, seed):
        Xn = normalized(X)
        labels = np.random.default_rng(seed).integers(0, k, size=X.shape[0])
        want = labels.copy()
        _refine(Xn, labels, k)
        refine_reference(Xn, want, k)
        np.testing.assert_array_equal(labels, want)

    @properties
    @given(X=sparse_rows(max_rows=150), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_bisect_labels_matches_reference(self, X, k, seed):
        k = min(k, X.shape[0])
        np.testing.assert_array_equal(
            bisect_labels(X, k, seed), bisect_labels_reference(X, k, seed)
        )


class TestMatrixCopies:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
    def test_row_norms_equal_linalg_norm(self, n):
        rng = np.random.default_rng(n)
        X = rng.random((n, 37)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
        X[::7] = 0.0
        np.testing.assert_array_equal(_row_norms(X), np.linalg.norm(X, axis=1))

    def test_row_norms_make_no_full_temporary(self):
        X = np.random.default_rng(3).random((1000, 200))
        tracemalloc.start()
        try:
            _row_norms(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.nbytes

    @pytest.mark.parametrize("seed", range(4))
    def test_bisect_labels_makes_no_second_full_copy(self, seed):
        # The normalized copy plus one cluster's rows at a time peak near
        # 2.0 X; a full copy for the first split or a full temporary for
        # the row norms pushes the traced peak past 2.4 X.
        rng = np.random.default_rng(seed)
        X = rng.random((300, 400)) * (rng.random((300, 400)) < 0.1)
        X[:, 0] += 0.01
        tracemalloc.start()
        try:
            bisect_labels(X, 6, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * X.nbytes


class TestClusteringProperties:
    @properties
    @given(X=any_rows, k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_bisect_labels_fill_every_cluster(self, X, k, seed):
        k = min(k, X.shape[0])
        labels = bisect_labels(X, k, seed)
        assert labels.min() >= 0 and labels.max() < k
        assert (np.bincount(labels, minlength=k) > 0).all()
        np.testing.assert_array_equal(bisect_labels(X, k, seed), labels)

    @properties
    @given(X=any_rows, k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_refine_never_lowers_criterion(self, X, k, seed):
        Xn = normalized(X)
        labels = np.random.default_rng(seed).integers(0, k, size=X.shape[0])
        before = clustering_criterion(Xn, labels)
        _refine(Xn, labels, k)
        assert clustering_criterion(Xn, labels) >= before - 1e-12

    @properties
    @given(
        X=any_rows,
        n_zero=st.integers(1, 4),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_rows_land_in_leftover(self, X, n_zero, k, seed):
        k = min(k, X.shape[0])
        vectors = [
            DocVector(f"d{i}", {f"t{j}": float(w) for j, w in enumerate(row) if w})
            for i, row in enumerate(X)
        ]
        zeros = [DocVector(f"z{i}", {}) for i in range(n_zero)]
        clustering = repeated_bisections(zeros[:1] + vectors + zeros[1:], k, seed)
        assert clustering.k == k + 1
        assert clustering.leftover == {z.doc_id for z in zeros}
        assert all(clustering.assignment[z.doc_id] == k for z in zeros)
        assert all(clustering.assignment[v.doc_id] < k for v in vectors)


class TestWeightedF1:
    def test_perfect_match(self):
        clustering = Clustering({"a": 0, "b": 0, "c": 1, "d": 1}, 2)
        labels = {"a": "x", "b": "x", "c": "y", "d": "y"}
        report = weighted_f1(clustering, labels)
        assert report.overall == 1.0
        assert report.per_category["x"].precision == 1.0
        assert report.per_category["x"].recall == 1.0

    def test_single_cluster_two_equal_categories(self):
        clustering = Clustering({"a": 0, "b": 0, "c": 0, "d": 0}, 1)
        labels = {"a": "x", "b": "x", "c": "y", "d": "y"}
        report = weighted_f1(clustering, labels)
        for cat in ("x", "y"):
            assert report.per_category[cat].f1 == pytest.approx(2 / 3)
            assert report.per_category[cat].precision == 0.5
            assert report.per_category[cat].recall == 1.0
        assert report.overall == pytest.approx(2 / 3)

    def test_support_weighting(self):
        clustering = Clustering({"a": 0, "b": 0, "c": 1, "d": 0, "e": 0, "f": 1}, 2)
        labels = {
            "a": "x",
            "b": "x",
            "d": "x",
            "e": "x",
            "c": "y",
            "f": "y",
        }
        report = weighted_f1(clustering, labels)
        want = weighted_f1_reference(clustering.assignment, labels)
        assert report.overall == pytest.approx(want)

    def test_random_assignments_match_reference(self):
        rng = np.random.default_rng(55)
        cats = ["w", "x", "y", "z"]
        for _ in range(50):
            docs = [f"d{i}" for i in range(20)]
            assignment = {d: int(rng.integers(0, 4)) for d in docs}
            labels = {d: cats[int(rng.integers(0, 4))] for d in docs}
            report = weighted_f1(Clustering(assignment, 4), labels)
            assert report.overall == pytest.approx(
                weighted_f1_reference(assignment, labels)
            )

    def test_missing_labels_rejected(self):
        clustering = Clustering({"a": 0, "b": 1}, 2)
        with pytest.raises(ValueError, match="labels missing"):
            weighted_f1(clustering, {"a": "x"})

    def test_empty_cluster_tolerated(self):
        clustering = Clustering({"a": 0, "b": 0}, 2)  # cluster 1 unused
        report = weighted_f1(clustering, {"a": "x", "b": "y"})
        assert 0.0 < report.overall <= 1.0


def manifest_of(sizes: dict[str, int]) -> CorpusManifest:
    entries = []
    for cat, size in sizes.items():
        for i in range(size):
            entries.append(ManifestEntry(f"{cat}{i}", Path(f"{cat}{i}.html"), cat))
    return CorpusManifest(tuple(entries))


class TestStratifiedSubsample:
    def test_proportional_sizes(self):
        manifest = manifest_of({"news": 10, "sport": 6})
        subs = stratified_subsample(manifest, fraction=0.5, n=20, seed=3)
        assert len(subs) == 20
        for sub in subs:
            assert sub.category_sizes() == {"news": 5, "sport": 3}

    def test_ceil_on_odd_sizes(self):
        manifest = manifest_of({"news": 7})
        (sub,) = stratified_subsample(manifest, fraction=0.5, n=1, seed=0)
        assert len(sub) == 4

    def test_half_of_forty(self):
        manifest = manifest_of({"a": 10, "b": 10, "c": 10, "d": 10})
        subs = stratified_subsample(manifest, fraction=0.5, n=100, seed=1)
        assert len(subs) == 100
        assert all(len(s) == 20 for s in subs)

    def test_deterministic(self):
        manifest = manifest_of({"news": 10, "sport": 6})
        a = stratified_subsample(manifest, n=5, seed=11)
        b = stratified_subsample(manifest, n=5, seed=11)
        assert [s.doc_ids() for s in a] == [s.doc_ids() for s in b]

    def test_seeds_differ_across_manifests(self):
        manifest = manifest_of({"news": 30})
        subs = stratified_subsample(manifest, n=10, seed=0)
        assert len({tuple(s.doc_ids()) for s in subs}) > 1

    def test_without_replacement(self):
        manifest = manifest_of({"news": 8})
        for sub in stratified_subsample(manifest, n=10, seed=2):
            ids = sub.doc_ids()
            assert len(ids) == len(set(ids)) == 4

    def test_category_too_small(self):
        manifest = manifest_of({"news": 5, "tiny": 1})
        with pytest.raises(CategoryTooSmall, match="tiny"):
            stratified_subsample(manifest, n=1, seed=0)

    def test_fraction_validation(self):
        manifest = manifest_of({"news": 4})
        with pytest.raises(ValueError):
            stratified_subsample(manifest, fraction=0.0, n=1, seed=0)
        with pytest.raises(ValueError):
            stratified_subsample(manifest, fraction=1.5, n=1, seed=0)

    def test_full_fraction_keeps_everything(self):
        manifest = manifest_of({"news": 4, "sport": 2})
        (sub,) = stratified_subsample(manifest, fraction=1.0, n=1, seed=0)
        assert sub.doc_ids() == manifest.doc_ids()
