import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from fuzzterm import stratified_subsample, weighted_f1
import fuzzterm.cluster
from fuzzterm._draws import PCG64, SeedSequence
from fuzzterm.cluster import (
    bisect_labels,
    build_matrix,
    cluster_matrix,
    repeated_bisections,
    _bisect,
    _partition,
    _refine,
    _restore,
    _row_norms,
    _seed_pairs,
)
from fuzzterm.errors import CategoryTooSmall, InsufficientDocs
from fuzzterm.ingest import CorpusManifest, ManifestEntry
from fuzzterm.weighting import DocVector

from oracles import Clustering as DictClustering
from oracles import (
    assert_same_state,
    best_partition_criterion,
    bisect_labels_lockstep_reference,
    bisect_labels_reference,
    bisect_lockstep_reference,
    bisect_reference,
    clustering_criterion,
    refine_reference,
    refine_vectorized_reference,
    stratified_subsample_manifest_reference,
    weighted_f1_reference,
    weighted_f1_sets_reference,
)


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


def categories_for(vectors, split):
    return ["red" if i < split else "blue" for i in range(len(vectors))]


class TestRepeatedBisections:
    def test_orthogonal_bundles_split_perfectly(self):
        vectors = two_bundles()
        labels = repeated_bisections(vectors, 2, seed=7)
        report = weighted_f1(labels, categories_for(vectors, 50))
        assert report.overall == 1.0

    def test_k_one(self):
        vectors = two_bundles(5)
        labels = repeated_bisections(vectors, 1, seed=0)
        assert np.unique(labels).size == 1
        assert set(labels.tolist()) == {0}

    def test_k_equals_n(self):
        vectors = two_bundles(3)
        labels = repeated_bisections(vectors, len(vectors), seed=0)
        assert sorted(labels.tolist()) == list(range(len(vectors)))

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
        labels = repeated_bisections(vectors, 2, seed=1)
        assert np.unique(labels).size == 3
        assert {v.doc_id for v, c in zip(vectors, labels) if c == 2} == {"empty1", "empty2"}
        assert labels[-2] == 2
        # every doc keeps an assignment so F1 denominators match the corpus
        categories = categories_for(vectors[:-2], 5) + ["red", "blue"]
        report = weighted_f1(labels, categories)
        assert report.per_category["red"].support == 6

    def test_deterministic_given_seed(self):
        vectors = two_bundles(20)
        a = repeated_bisections(vectors, 4, seed=42)
        b = repeated_bisections(vectors, 4, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_global_rescaling_invariance(self):
        vectors = two_bundles(10)
        scaled = [
            DocVector(v.doc_id, {t: w * 31.7 for t, w in v.weights.items()})
            for v in vectors
        ]
        a = repeated_bisections(vectors, 3, seed=5)
        b = repeated_bisections(scaled, 3, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_miniature_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(13)
        vectors = bundle("red", 4, 3, rng) + bundle("blue", 3, 3, rng) + bundle(
            "green", 3, 3, rng
        )
        labels = repeated_bisections(vectors, 3, seed=2)
        X, _ = build_matrix(vectors)
        Xn = X / np.linalg.norm(X, axis=1)[:, None]
        achieved = clustering_criterion(Xn, labels)
        optimum = best_partition_criterion(Xn.tolist(), 3)
        assert achieved == pytest.approx(optimum, abs=1e-9)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            repeated_bisections(two_bundles(2), 0, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_bisect_labels_rejects_k_below_one(self, k):
        X = np.random.default_rng(4).random((6, 3))
        with pytest.raises(ValueError, match="k must be at least 1"):
            bisect_labels(X, k, 0)
        with pytest.raises(ValueError, match="k must be at least 1"):
            cluster_matrix(X, k, 0)

    def test_cluster_matrix_calls_bisect_labels_by_module_attribute(self, monkeypatch):
        # perfbench/tracer.py times the clustering by wrapping this attribute
        seen = []
        real = fuzzterm.cluster.bisect_labels

        def counting(X, k, seed):
            seen.append(X.shape)
            return real(X, k, seed)

        monkeypatch.setattr(fuzzterm.cluster, "bisect_labels", counting)
        X = np.random.default_rng(4).random((12, 5))
        X[3] = 0.0
        labels = cluster_matrix(X, 3, seed=0)
        assert seen == [(11, 5)]
        assert labels[3] == 3


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


# (rows, labels, k) on which the reference's best gain for some document
# lies in (1e-10, 1e-6], from a seeded search over small integer rows
NEAR_THRESHOLD = {
    "empty cluster": ([[3, 2], [1, 0], [1, 2], [3, 2], [3, 0], [1, 3]], [1] * 6, 2),
    "first row": ([[2, 3], [2, 3], [1, 3], [3, 3], [1, 2], [1, 1]], [2, 0, 2, 2, 2, 2], 3),
    "first row, then moves": (
        [[2, 3], [1, 3], [0, 2], [1, 1], [3, 3], [1, 2], [2, 0], [1, 1]],
        [0, 0, 2, 0, 0, 0, 2, 2],
        3,
    ),
    "after a move": (
        [[3, 2, 1], [3, 1, 2], [1, 1, 3], [3, 3, 3], [3, 0, 1], [3, 0, 1], [1, 0, 0], [3, 2, 0]],
        [0, 2, 2, 2, 1, 0, 1, 2],
        3,
    ),
    "signed": ([[1, 0], [0, 3], [2, -1], [3, -2]], [1, 1, 1, 1], 2),
    "signed, duplicate pair": (
        [[2, 2], [2, 2], [2, 1], [1, 3], [1, 0], [-1, 3], [2, 1], [3, 3]],
        [0, 1, 0, 0, 0, 0, 0, 0],
        2,
    ),
}
# exact ties from duplicate rows in two clusters: x, x | x, x gains 0 up to
# the last bit, and equal clusters give two targets the same gain
TIES = {
    "zero gain": ([[1, 2]] * 4, [0, 0, 1, 1], 2),
    "zero gain, three clusters": ([[1, 2]] * 6, [0, 0, 1, 1, 2, 2], 3),
    "equal targets": ([[1, 3], [3, 0], [1, 2], [1, 2]], [0, 0, 1, 2], 3),
    "equal target pairs": (
        [[1, 3], [3, 0], [1, 2], [2, 1], [1, 2], [2, 1]],
        [0, 0, 1, 1, 2, 2],
        3,
    ),
}


def refine_case(rows, labels, k):
    X = np.array(rows, dtype=np.float64)
    return X / np.linalg.norm(X, axis=1)[:, None], np.array(labels, dtype=np.int64), k


def exact_steps(monkeypatch):
    """The documents `_refine` runs its exact step for, in order."""
    stepped = []
    real = fuzzterm.cluster._move

    def counting(X, i, *state):
        stepped.append(i)
        return real(X, i, *state)

    monkeypatch.setattr(fuzzterm.cluster, "_move", counting)
    return stepped


class TestRefineFilter:
    """The refine pass runs its exact step only where its estimate, within
    the rounding bound, allows a move; labels stay the reference's."""

    @pytest.mark.parametrize("name", sorted(NEAR_THRESHOLD) + sorted(TIES))
    def test_near_threshold_equals_reference(self, name, monkeypatch):
        Xn, labels, k = refine_case(*{**NEAR_THRESHOLD, **TIES}[name])
        want, gains = labels.copy(), {}
        refine_vectorized_reference(Xn, want, k, gains)
        if name in NEAR_THRESHOLD:
            assert any(1e-10 < g <= 1e-6 for g in gains.values())
        stepped = exact_steps(monkeypatch)
        _refine(Xn, labels, k)
        np.testing.assert_array_equal(labels, want)
        # one pass in row order, and the exact step decides every near
        # tie, not the estimate
        assert stepped == sorted(set(stepped))
        near = [i for i, g in gains.items() if g > -1e-9]
        assert near and set(near) <= set(stepped)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_exact_step_where_nothing_moves(self, seed, monkeypatch):
        # k topics, each over its own terms plus faint weight on all the
        # others, and each row in its own topic's cluster
        rng = np.random.default_rng(seed)
        k, per, terms = 3 + seed, 12, 5
        X = np.zeros((k * per, k * terms))
        for c in range(k):
            X[c * per : (c + 1) * per, c * terms : (c + 1) * terms] = rng.random((per, terms)) + 0.2
        X += 0.05 * rng.random(X.shape)
        Xn = X / np.linalg.norm(X, axis=1)[:, None]
        labels = np.repeat(np.arange(k), per)
        rows = rng.permutation(k * per)
        Xn, labels = Xn[rows], labels[rows]
        want = labels.copy()
        refine_vectorized_reference(Xn, want, k)
        np.testing.assert_array_equal(want, labels)
        stepped = exact_steps(monkeypatch)
        _refine(Xn, labels, k)
        assert stepped == []
        np.testing.assert_array_equal(labels, want)


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

    @given(X=sparse_rows(), seed=st.integers(0, 2**32 - 1))
    def test_bisect_matches_reference(self, X, seed):
        Xs = normalized(X)
        rng, ref_rng = PCG64(SeedSequence(seed)), np.random.default_rng(seed)
        np.testing.assert_array_equal(_bisect(Xs, rng), bisect_reference(Xs, ref_rng))
        assert_same_state(rng, ref_rng)

    @given(X=sparse_rows(), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_refine_matches_reference(self, X, k, seed):
        Xn = normalized(X)
        labels = np.random.default_rng(seed).integers(0, k, size=X.shape[0])
        want = labels.copy()
        _refine(Xn, labels, k)
        refine_reference(Xn, want, k)
        np.testing.assert_array_equal(labels, want)

    @given(X=sparse_rows(max_rows=150), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_bisect_labels_matches_reference(self, X, k, seed):
        k = min(k, X.shape[0])
        np.testing.assert_array_equal(
            bisect_labels(X.copy(), k, seed), bisect_labels_reference(X, k, seed)
        )


@st.composite
def signed_rows(draw, max_base=8):
    """Small integer rows, then negated or rescaled copies of the first few.

    A side holding x and -x sums to zero, so its centroid falls back to a
    fixed row; x and 3x normalize to one direction up to the last bit, so
    seeds on such a pair can put every row on one side.
    """
    m = draw(st.integers(1, max_base))
    d = draw(st.integers(1, 3))
    copies = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
    B[~B.any(axis=1), 0] = 1.0
    scale = rng.choice([-1.0, -1.0, 3.0, -3.0, 7.0, 0.1], size=(copies, 1))
    X = np.vstack([B, B[:copies] * scale])
    return X if X.shape[0] >= 2 else np.vstack([X, -X])


# (rows, generator seed) on which the lockstep split meets each degenerate
# case, and on which its outcome depends on how the case is handled
BRANCH_EXAMPLES = {
    "empty side": (np.array([[3.0], [9.0]]), 5),
    "full side": (np.array([[3.0, -3.0], [1.0, -1.0], [2.0, 1.0]]), 25),
    "zero-norm centroid": (np.array([[-1.0], [-1.0], [1.0]]), 3),
}

tie_rows = st.one_of(any_rows, signed_rows())


class TestLockstepReferences:
    """The split equals a verbatim copy of its 2-means round, and the refine
    pass and the repeated bisections verbatim copies of the code before the
    cohesion scores were cached, bit for bit: the same products, comparisons
    and generator draws, so ties, full and empty sides and zero-norm
    centroids come out the same too."""

    @pytest.mark.parametrize("branch", sorted(BRANCH_EXAMPLES))
    def test_examples_reach_each_degenerate_case(self, branch):
        X, seed = BRANCH_EXAMPLES[branch]
        branches = set()
        bisect_lockstep_reference(normalized(X), np.random.default_rng(seed), branches)
        assert branch in branches

    @given(X=tie_rows, seed=st.integers(0, 2**32 - 1))
    @example(*BRANCH_EXAMPLES["empty side"])
    @example(*BRANCH_EXAMPLES["full side"])
    @example(*BRANCH_EXAMPLES["zero-norm centroid"])
    def test_bisect_equals_lockstep_reference(self, X, seed):
        Xs = normalized(X)
        rng, ref_rng = PCG64(SeedSequence(seed)), np.random.default_rng(seed)
        branches = set()
        want = bisect_lockstep_reference(Xs, ref_rng, branches)
        np.testing.assert_array_equal(_bisect(Xs, rng), want)
        assert_same_state(rng, ref_rng)
        for branch in sorted(branches):
            event(branch)

    @given(X=tie_rows, k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_refine_equals_vectorized_reference(self, X, k, seed):
        Xn = normalized(X)
        labels = np.random.default_rng(seed).integers(0, k, size=X.shape[0])
        want = labels.copy()
        _refine(Xn, labels, k)
        refine_vectorized_reference(Xn, want, k)
        np.testing.assert_array_equal(labels, want)

    @given(X=tie_rows, k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_bisect_labels_equals_lockstep_reference(self, X, k, seed):
        k = min(k, X.shape[0])
        np.testing.assert_array_equal(
            bisect_labels(X.copy(), k, seed), bisect_labels_lockstep_reference(X, k, seed)
        )


class TestSplitTies:
    @pytest.mark.parametrize("seed", range(6))
    def test_row_of_zero_similarity_stays_on_side_0(self, seed):
        # Rows on their own columns: each restart's third row shares no
        # nonzero column with its two seeds, so its first diff is 0.0 (or
        # -0.0), a tie that s1 > s0 left on side 0 too.  There it joins
        # c0's column and stays; every restart scores sqrt(2) + 1, so
        # restart 0's split is kept.
        Xs = np.eye(3)
        i, j = _seed_pairs(3, PCG64(SeedSequence(seed)))[0]
        lone = 3 - i - j
        assert (Xs[i] - Xs[j]) @ Xs[lone] == 0.0
        np.testing.assert_array_equal(
            _bisect(Xs, PCG64(SeedSequence(seed))), np.arange(3) == j
        )


class TestSeedPairs:
    """The seed pairs and generator state equal those of numpy's
    Generator.choice(m, size=2, replace=False) per restart.  The run's
    labels no longer depend on numpy's Generator: fuzzterm draws the pairs
    itself, and this pins its draws to numpy's, 32-bit buffer included."""

    @pytest.mark.parametrize(
        "m", [2, 3, 4, 5, 7, 64, 999, 4096, 10_000, 10_001, 65_537, 1_000_003, 2**32 + 5]
    )
    @pytest.mark.parametrize("advance", [0, 1, 3, 8])
    def test_equal_to_choice(self, m, advance):
        for seed in range(5):
            rng, ref = PCG64(SeedSequence(seed)), np.random.default_rng(seed)
            # 32-bit draws; an odd count leaves PCG64 half a word buffered
            for _ in range(advance):
                rng.next_uint32()
            ref.integers(0, 2**32, size=advance, dtype=np.uint32)
            assert ref.bit_generator.state["has_uint32"] == advance % 2
            assert_same_state(rng, ref)
            want = np.array([ref.choice(m, size=2, replace=False) for _ in range(10)])
            np.testing.assert_array_equal(_seed_pairs(m, rng), want)
            assert_same_state(rng, ref)


class TestSeedKinds:
    """bisect_labels and cluster_matrix take a non-negative integer, a
    fuzzterm SeedSequence or a numpy SeedSequence of pool size 4, and draw
    as numpy.random.default_rng(seed) would; any other seed is refused
    before X is touched."""

    X0 = np.random.default_rng(6).random((40, 7))

    @pytest.mark.parametrize(
        "seed, numpy_seed",
        [
            (3, 3),
            (np.int64(3), 3),
            (np.uint32(3), 3),
            (2**70 + 3, 2**70 + 3),
            (SeedSequence(3), 3),
            (SeedSequence((7, 1)).spawn(3)[2], np.random.SeedSequence((7, 1)).spawn(3)[2]),
            (np.random.SeedSequence((7, 1)).spawn(3)[2], np.random.SeedSequence((7, 1)).spawn(3)[2]),
        ],
        ids=["int", "numpy int64", "numpy uint32", "wide int", "fuzzterm", "fuzzterm child",
             "numpy child"],
    )
    def test_accepted_seed_draws_as_numpy(self, seed, numpy_seed):
        want = bisect_labels_reference(self.X0, 4, numpy_seed)
        np.testing.assert_array_equal(bisect_labels(self.X0.copy(), 4, seed), want)
        np.testing.assert_array_equal(cluster_matrix(self.X0.copy(), 4, seed), want)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)], ids=["int", "numpy int64"])
    def test_negative_seed_raises_value_error(self, seed):
        for cluster in (bisect_labels, cluster_matrix):
            X = self.X0.copy()
            with pytest.raises(ValueError, match="seed must be non-negative"):
                cluster(X, 4, seed)
            np.testing.assert_array_equal(X, self.X0)

    @pytest.mark.parametrize(
        "seed",
        [np.random.default_rng(3), 3.0, np.float64(3.0), "3", None,
         np.random.SeedSequence(3, pool_size=8)],
        ids=["numpy Generator", "float", "numpy float", "str", "None", "pool size 8"],
    )
    def test_other_seed_raises_type_error(self, seed):
        for cluster in (bisect_labels, cluster_matrix):
            X = self.X0.copy()
            with pytest.raises(TypeError, match="non-negative integer.*SeedSequence"):
                cluster(X, 4, seed)
            np.testing.assert_array_equal(X, self.X0)


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

    def test_refine_makes_no_full_temporary(self):
        # the cluster sums add one row at a time, so the peak is the row
        # norms' block of squares (64 rows, 0.064 X here) and the small
        # arrays beside it; a copy of one cluster's rows, an eighth of X,
        # would pass 0.1 X
        rng = np.random.default_rng(5)
        X = rng.random((1000, 200))
        Xn = X / np.linalg.norm(X, axis=1)[:, None]
        labels = np.arange(1000) % 8
        tracemalloc.start()
        try:
            _refine(Xn, labels, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * X.nbytes

    def test_split_makes_no_block_sized_temporary(self):
        # a round holds arrays of restarts by rows or by columns, about
        # 0.1 of this block; gathering the rows of one side (up to half
        # the block) or an (m, d) temporary passes 0.25 of it
        rng = np.random.default_rng(2)
        X = rng.random((600, 1000)) * (rng.random((600, 1000)) < 0.1)
        X[:, 0] += 0.01
        Xs = normalized(X)
        tracemalloc.start()
        try:
            _bisect(Xs, PCG64(SeedSequence(2)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * Xs.nbytes

    @staticmethod
    def sparse_matrix(seed, zero_rows=0):
        rng = np.random.default_rng(seed)
        X = rng.random((300, 400)) * (rng.random((300, 400)) < 0.1)
        X[:, 0] += 0.01
        X[rng.choice(300, zero_rows, replace=False)] = 0.0
        return X

    @staticmethod
    def traced_peak(cluster, X, *args):
        tracemalloc.start()
        try:
            cluster(X, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("seed", range(4))
    def test_bisect_labels_makes_no_second_full_copy(self, seed):
        # X is normalized in place and every split reads a block of its
        # rows, so beside X the peak is one segment of the partition or the
        # split's own arrays; a normalized copy, a full copy for the first
        # split or a full temporary for the row norms pushes the traced
        # peak past 1.4 X.
        X = self.sparse_matrix(seed)
        assert self.traced_peak(bisect_labels, X, 6, seed) < 1.25 * X.nbytes

    @staticmethod
    def two_groups(sizes, seed):
        """Rows of two groups on disjoint halves of 512 columns, plus noise."""
        rng = np.random.default_rng(seed)
        X = rng.random((sum(sizes), 512)) * 0.1
        X[: sizes[0], :256] += 1.0
        X[sizes[0] :, 256:] += 1.0
        return X

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("sizes", [(256, 256), (384, 128), (128, 384)])
    @pytest.mark.parametrize("cluster", [bisect_labels, cluster_matrix])
    def test_second_split_copies_no_cluster(self, cluster, sizes, seed):
        # the first split finds the two groups, and the second splits one
        # of them, half of X or more; a copy of its rows alone passes
        # 0.5 X, while a segment of the partition is an eighth of X here
        X = self.two_groups(sizes, seed)
        side = _bisect(normalized(X), PCG64(SeedSequence(seed)))
        assert sorted([int(side.sum()), int((~side).sum())]) == sorted(sizes)
        assert self.traced_peak(cluster, X.copy(), 6, seed) < 0.45 * X.nbytes
        np.testing.assert_array_equal(
            cluster(X.copy(), 6, seed), bisect_labels_reference(X, 6, seed)
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_f_order_x_is_copied_and_clusters_as_its_c_order_copy(self, seed):
        # a split reads a block of rows, and a block of an F-order array
        # is no C-order copy of those rows, so such an X is copied first
        X0 = self.sparse_matrix(seed)
        labels = bisect_labels(X0.copy(), 6, seed)
        for cluster in (bisect_labels, cluster_matrix):
            Xf = np.asfortranarray(X0)
            np.testing.assert_array_equal(cluster(Xf, 6, seed), labels)
            np.testing.assert_array_equal(Xf, X0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("zero_rows", [0, 5])
    def test_cluster_matrix_makes_one_copy_at_most(self, seed, zero_rows):
        # without zero rows X is the only full array, as in bisect_labels;
        # with them, the copy of the other rows is the only one more
        X = self.sparse_matrix(seed, zero_rows)
        bound = 1.25 + (zero_rows > 0)
        assert self.traced_peak(cluster_matrix, X, 6, seed) < bound * X.nbytes

    @pytest.mark.parametrize("seed", range(4))
    def test_cluster_matrix_normalizes_x_in_place(self, seed):
        X0 = self.sparse_matrix(seed)
        X = X0.copy()
        labels = cluster_matrix(X, 6, seed)
        np.testing.assert_array_equal(X, X0 / np.linalg.norm(X0, axis=1)[:, None])
        np.testing.assert_array_equal(labels, cluster_matrix(X0.copy(), 6, seed))
        np.testing.assert_array_equal(labels, bisect_labels_reference(X0, 6, seed))
        Y = X0.copy()
        np.testing.assert_array_equal(bisect_labels(Y, 6, seed), labels)
        np.testing.assert_array_equal(Y, X)

    @pytest.mark.parametrize("seed", range(2))
    def test_other_arrays_are_copied_not_overwritten(self, seed):
        # an integer or read-only X is scaled in a float64 copy, as
        # X / norms[:, None] scaled it, and a float32 X is left as it is
        X0 = np.rint(self.sparse_matrix(seed) * 20)
        X0[:, 0] += 1.0
        labels = cluster_matrix(X0.copy(), 6, seed)
        Xi = X0.astype(np.int64)
        np.testing.assert_array_equal(cluster_matrix(Xi, 6, seed), labels)
        np.testing.assert_array_equal(Xi, X0)
        Xr = X0.copy()
        Xr.flags.writeable = False
        np.testing.assert_array_equal(bisect_labels(Xr, 6, seed), labels)
        np.testing.assert_array_equal(Xr, X0)
        Xf = X0.astype(np.float32)
        assert bisect_labels(Xf, 6, seed).shape == labels.shape
        np.testing.assert_array_equal(Xf, X0.astype(np.float32))

    @pytest.mark.parametrize("seed", range(4))
    def test_cluster_matrix_leaves_x_with_zero_rows(self, seed):
        # the copy without the zero rows is the one normalized
        X0 = self.sparse_matrix(seed, zero_rows=5)
        X = X0.copy()
        labels = cluster_matrix(X, 6, seed)
        np.testing.assert_array_equal(X, X0)
        nonzero = X0.any(axis=1)
        assert (labels[~nonzero] == 6).all()
        np.testing.assert_array_equal(
            labels[nonzero], bisect_labels_reference(X0[nonzero], 6, seed)
        )


@st.composite
def partition_steps(draw):
    """Rows of at most 600, and partitions of clusters of them in turn, as
    repeated bisections makes them: (cluster to split, seed of its mask)."""
    n = draw(st.integers(1, 600))
    d = draw(st.integers(1, 3))
    steps = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2**32 - 1)), max_size=6))
    return n, d, steps


class TestPartition:
    @given(case=partition_steps(), seed=st.integers(0, 2**32 - 1))
    def test_sides_stay_blocks_in_original_order_and_restore_is_exact(self, case, seed):
        n, d, steps = case
        X0 = np.random.default_rng(seed).random((n, d))
        X, rows = X0.copy(), np.arange(n)
        blocks = [(0, n)]
        for which, mask_seed in steps:
            start, stop = blocks[which % len(blocks)]
            if start == stop:
                continue  # a split never picks an empty cluster
            rng = np.random.default_rng(mask_seed)
            last = rng.random(stop - start) < rng.random()
            before = rows[start:stop].copy()
            mid = _partition(X, rows, start, stop, last)
            assert mid == stop - np.count_nonzero(last)
            # each side a block, in the order it had: ascending original rows
            np.testing.assert_array_equal(rows[start:mid], before[~last])
            np.testing.assert_array_equal(rows[mid:stop], before[last])
            assert (np.diff(rows[start:mid]) > 0).all()
            assert (np.diff(rows[mid:stop]) > 0).all()
            # X permuted as rows, bit for bit
            assert X.tobytes() == X0[rows].tobytes()
            blocks[which % len(blocks)] = (start, mid)
            blocks.append((mid, stop))
        _restore(X, rows)
        assert X.tobytes() == X0.tobytes()


class TestClusteringProperties:
    @given(X=any_rows, k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_bisect_labels_fill_every_cluster(self, X, k, seed):
        k = min(k, X.shape[0])
        labels = bisect_labels(X.copy(), k, seed)
        assert labels.min() >= 0 and labels.max() < k
        assert (np.bincount(labels, minlength=k) > 0).all()
        np.testing.assert_array_equal(bisect_labels(X.copy(), k, seed), labels)

    @given(X=any_rows, k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_refine_never_lowers_criterion(self, X, k, seed):
        Xn = normalized(X)
        labels = np.random.default_rng(seed).integers(0, k, size=X.shape[0])
        before = clustering_criterion(Xn, labels)
        _refine(Xn, labels, k)
        assert clustering_criterion(Xn, labels) >= before - 1e-12

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
        docs = zeros[:1] + vectors + zeros[1:]
        labels = repeated_bisections(docs, k, seed)
        assert np.unique(labels).size == k + 1
        assert {d.doc_id for d, c in zip(docs, labels) if c == k} == {z.doc_id for z in zeros}
        is_zero = np.array([not d.weights for d in docs])
        assert (labels[is_zero] == k).all()
        assert (labels[~is_zero] < k).all()


class TestWeightedF1:
    def test_perfect_match(self):
        report = weighted_f1(np.array([0, 0, 1, 1]), ["x", "x", "y", "y"])
        assert report.overall == 1.0
        assert report.per_category["x"].precision == 1.0
        assert report.per_category["x"].recall == 1.0

    def test_single_cluster_two_equal_categories(self):
        report = weighted_f1(np.array([0, 0, 0, 0]), ["x", "x", "y", "y"])
        for cat in ("x", "y"):
            assert report.per_category[cat].f1 == pytest.approx(2 / 3)
            assert report.per_category[cat].precision == 0.5
            assert report.per_category[cat].recall == 1.0
        assert report.overall == pytest.approx(2 / 3)

    def test_support_weighting(self):
        clusters = np.array([0, 0, 1, 0, 0, 1])
        categories = ["x", "x", "y", "x", "x", "y"]
        report = weighted_f1(clusters, categories)
        want = weighted_f1_reference(dict(enumerate(clusters)), dict(enumerate(categories)))
        assert report.overall == pytest.approx(want)

    def test_random_assignments_match_reference(self):
        rng = np.random.default_rng(55)
        cats = ["w", "x", "y", "z"]
        for _ in range(50):
            clusters = rng.integers(0, 4, size=20)
            categories = [cats[int(i)] for i in rng.integers(0, 4, size=20)]
            report = weighted_f1(clusters, categories)
            assert report.overall == pytest.approx(
                weighted_f1_reference(dict(enumerate(clusters)), dict(enumerate(categories)))
            )

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError, match="2 cluster labels for 1 categories"):
            weighted_f1(np.array([0, 1]), ["x"])

    def test_empty_cluster_tolerated(self):
        report = weighted_f1(np.array([0, 0]), ["x", "y"])  # k = 2, cluster 1 unused
        assert 0.0 < report.overall <= 1.0


# ASCII, accented and non-Latin names, so "sorted order" means code points
CATEGORY_NAMES = ("alpha", "Beta", "zeta", "é", "ß", "Ωmega", "日本")


@st.composite
def scored_rows(draw):
    """(cluster label per row, category per row, k).  Labels lie in
    range(k + 1), k standing for the leftover cluster of zero-weight rows;
    the small sizes make empty clusters and F1 ties common, and one run in
    three puts every row in one cluster."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    clusters = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    if draw(st.integers(0, 2)) == 0:
        clusters = [clusters[0]] * n
    names = draw(st.lists(st.sampled_from(CATEGORY_NAMES), min_size=1, max_size=4, unique=True))
    categories = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    return np.array(clusters, dtype=np.int64), categories, k


@st.composite
def category_rows(draw):
    """A per-row category list, each category two to ten rows, shuffled."""
    names = draw(st.lists(st.sampled_from(CATEGORY_NAMES), min_size=1, max_size=4, unique=True))
    rows = [name for name in names for _ in range(draw(st.integers(2, 10)))]
    return draw(st.permutations(rows))


def dict_clustering(clusters, k) -> DictClustering:
    assignment = {f"d{i}": int(c) for i, c in enumerate(clusters)}
    leftover = frozenset(d for d, c in assignment.items() if c == k)
    return DictClustering(assignment, k + 1 if leftover else k, leftover)


def manifest_rows(categories) -> CorpusManifest:
    return CorpusManifest(
        tuple(ManifestEntry(f"d{i}", Path(f"d{i}.html"), c) for i, c in enumerate(categories))
    )


class TestAgainstDictScoring:
    """The scoring path equals the doc_id-keyed dicts and sets it replaced,
    field for field and draw for draw."""

    @given(case=scored_rows())
    def test_weighted_f1_equals_set_reference(self, case):
        clusters, categories, k = case
        labels = {f"d{i}": c for i, c in enumerate(categories)}
        want = weighted_f1_sets_reference(dict_clustering(clusters, k), labels)
        assert weighted_f1(clusters, categories) == want

    @given(
        categories=category_rows(),
        fraction=st.floats(0.0, 1.0, exclude_min=True),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stratified_subsample_equals_manifest_reference(self, categories, fraction, n, seed):
        manifest = manifest_rows(categories)
        want = [
            [int(e.doc_id[1:]) for e in sub.entries]
            for sub in stratified_subsample_manifest_reference(manifest, fraction, n, seed)
        ]
        got = stratified_subsample(categories, fraction, n, seed)
        assert all(rows.dtype == np.int64 for rows in got)
        assert [rows.tolist() for rows in got] == want


def categories_of(sizes: dict[str, int]) -> list[str]:
    return [cat for cat, size in sizes.items() for _ in range(size)]


class TestStratifiedSubsample:
    def test_proportional_sizes(self):
        categories = categories_of({"news": 10, "sport": 6})
        subs = stratified_subsample(categories, fraction=0.5, n=20, seed=3)
        assert len(subs) == 20
        for rows in subs:
            assert Counter(categories[i] for i in rows) == {"news": 5, "sport": 3}

    def test_ceil_on_odd_sizes(self):
        categories = categories_of({"news": 7})
        (sub,) = stratified_subsample(categories, fraction=0.5, n=1, seed=0)
        assert len(sub) == 4

    def test_half_of_forty(self):
        categories = categories_of({"a": 10, "b": 10, "c": 10, "d": 10})
        subs = stratified_subsample(categories, fraction=0.5, n=100, seed=1)
        assert len(subs) == 100
        assert all(len(s) == 20 for s in subs)

    def test_deterministic(self):
        categories = categories_of({"news": 10, "sport": 6})
        a = stratified_subsample(categories, n=5, seed=11)
        b = stratified_subsample(categories, n=5, seed=11)
        assert [s.tolist() for s in a] == [s.tolist() for s in b]

    def test_seeds_differ_across_manifests(self):
        categories = categories_of({"news": 30})
        subs = stratified_subsample(categories, n=10, seed=0)
        assert len({tuple(s.tolist()) for s in subs}) > 1

    def test_without_replacement(self):
        categories = categories_of({"news": 8})
        for sub in stratified_subsample(categories, n=10, seed=2):
            ids = sub.tolist()
            assert len(ids) == len(set(ids)) == 4

    def test_category_too_small(self):
        categories = categories_of({"news": 5, "tiny": 1})
        with pytest.raises(CategoryTooSmall, match="tiny"):
            stratified_subsample(categories, n=1, seed=0)

    def test_fraction_validation(self):
        categories = categories_of({"news": 4})
        with pytest.raises(ValueError):
            stratified_subsample(categories, fraction=0.0, n=1, seed=0)
        with pytest.raises(ValueError):
            stratified_subsample(categories, fraction=1.5, n=1, seed=0)

    def test_full_fraction_keeps_everything(self):
        categories = categories_of({"news": 4, "sport": 2})
        (sub,) = stratified_subsample(categories, fraction=1.0, n=1, seed=0)
        assert sub.tolist() == list(range(len(categories)))
