import numpy as np

from fuzzterm.reduction import FeatureSet, dump_features, mft_rank, project
from fuzzterm.weighting import DocVector

from oracles import mft_brute_force, sparse_rows_of


def order(*weight_maps):
    """The maps' terms in mft_rank order; a selection of k is a prefix."""
    vocab = sorted({t for m in weight_maps for t in m})
    return tuple(vocab[t] for t in mft_rank(sparse_rows_of(weight_maps, vocab)).tolist())


def random_corpus(rng, n_docs=10, vocab=12):
    terms = [f"t{i:02d}" for i in range(vocab)]
    out = []
    for d in range(n_docs):
        size = int(rng.integers(1, vocab + 1))
        chosen = rng.choice(terms, size=size, replace=False)
        # quantized weights force plenty of ties
        out.append({t: round(float(rng.integers(1, 6)) / 5.0, 1) for t in chosen})
    return out


class TestRankedTerms:
    def test_orders_by_weight_then_term(self):
        # one document's order is its own ranking
        assert order({"b": 0.5, "a": 0.5, "c": 0.9}) == ("c", "a", "b")


class TestMftSelect:
    def test_top_rank_counts_dominate(self):
        ranked = order(
            {"x": 0.9, "q": 0.1},
            {"x": 0.8, "r": 0.2},
            {"y": 0.7, "s": 0.3},
        )
        assert ranked[:2] == ("x", "y")

    def test_tie_broken_by_max_weight(self):
        assert order({"x": 0.6}, {"y": 0.9})[:2] == ("y", "x")

    def test_equal_count_and_weight_lexicographic(self):
        assert order({"beta": 0.5}, {"alpha": 0.5})[:2] == ("alpha", "beta")

    def test_k_larger_than_vocabulary(self):
        assert order({"a": 1.0, "b": 0.5})[:10] == ("a", "b")

    def test_lower_rank_terms_fill_after_top(self):
        assert order({"x": 0.9, "b": 0.5}, {"x": 0.9, "a": 0.5})[:3] == ("x", "a", "b")

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            maps = random_corpus(rng)
            ranked = order(*maps)
            for k in (1, 2, len(ranked)):
                assert ranked[:k] == tuple(mft_brute_force(maps, k)), (maps, k)

    def test_prefix_monotonicity(self):
        # the brute-force selection of every size is a prefix of one order
        rng = np.random.default_rng(32)
        maps = random_corpus(rng, n_docs=15, vocab=20)
        ranked = order(*maps)
        for k in range(1, len(ranked) + 1):
            assert tuple(mft_brute_force(maps, k)) == ranked[:k]

    def test_global_rescaling_invariance(self):
        rng = np.random.default_rng(33)
        maps = random_corpus(rng)
        scaled = [{t: w * 7.5 for t, w in m.items()} for m in maps]
        assert order(*scaled)[:6] == order(*maps)[:6]


class TestProject:
    def test_identity(self):
        vec = DocVector("d", {"a": 1.0, "b": 0.5})
        out = project(vec, FeatureSet(("a", "b"), 2))
        assert out.weights == vec.weights

    def test_disjoint_features_empty(self):
        vec = DocVector("d", {"a": 1.0})
        out = project(vec, FeatureSet(("z",), 1))
        assert out.weights == {}
        assert out.doc_id == "d"

    def test_intersection(self):
        vec = DocVector("d", {"a": 1.0, "b": 0.5, "c": 0.2})
        out = project(vec, FeatureSet(("b", "z"), 2))
        assert out.weights == {"b": 0.5}


def test_dump_features(tmp_path):
    out = tmp_path / "features.txt"
    dump_features(order({"b": 0.9, "a": 0.5})[:2], out)
    assert out.read_text(encoding="utf-8") == "b\na\n"
