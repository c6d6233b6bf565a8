import math

import numpy as np
import pytest

from fuzzterm import load_bundled
from fuzzterm.corpus import Corpus, SparseRows
from fuzzterm.errors import UnknownTerm
from fuzzterm.ingest import TermCriteria
from fuzzterm.weighting import (
    CorpusStats,
    DocVector,
    dump_vectors,
    fuzzy_rows,
    global_positions,
    idf_rows,
    tf_idf,
    weigh_fuzzy,
)

from oracles import tfidf_reference


def crit(freq=1.0, title=0.0, emph=0.0, positions=(0.5,), raw_tf=1):
    return TermCriteria(freq, title, emph, tuple(positions), raw_tf)


class TestCorpusStats:
    def test_idf(self):
        stats = CorpusStats(4, {"rare": 1, "everywhere": 4})
        assert stats.idf("rare") == pytest.approx(math.log(4))
        assert stats.idf("everywhere") == 0.0

    def test_unknown_term(self):
        with pytest.raises(UnknownTerm):
            CorpusStats(2, {}).idf("ghost")


class TestTfIdf:
    def test_ubiquitous_term_dropped(self):
        stats = CorpusStats(3, {"alpha": 3, "beta": 1})
        vec = tf_idf("d", {"alpha": crit(raw_tf=5), "beta": crit(raw_tf=2)}, stats)
        assert "alpha" not in vec.weights
        assert vec.weights["beta"] == pytest.approx(2 * math.log(3))

    def test_single_rare_term(self):
        stats = CorpusStats(4, {"gamma": 1})
        vec = tf_idf("d", {"gamma": crit(raw_tf=3)}, stats)
        assert vec.weights["gamma"] == pytest.approx(3 * math.log(4))
        assert vec.weights["gamma"] == pytest.approx(4.1589, abs=1e-4)

    def test_degenerate_single_doc_corpus(self):
        stats = CorpusStats(1, {"alpha": 1})
        vec = tf_idf("d", {"alpha": crit(raw_tf=7)}, stats)
        assert vec.weights == {}

    def test_against_oracle_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(2, 10_000))
            df = int(rng.integers(1, n + 1))
            tf = int(rng.integers(1, 500))
            stats = CorpusStats(n, {"t": df})
            vec = tf_idf("d", {"t": crit(raw_tf=tf)}, stats)
            want = tfidf_reference(tf, df, n)
            got = vec.weights.get("t", 0.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestWeighFuzzy:
    def test_single_term_document(self):
        vec = weigh_fuzzy("d", {"solo": crit(title=1.0, emph=1.0, positions=(0.0,))}, load_bundled("efcc"))
        assert set(vec.weights) == {"solo"}
        assert vec.weights["solo"] > 0.9

    def test_determinism(self):
        criteria = {
            "alpha": crit(freq=0.7, emph=0.3, positions=(0.2, 0.8)),
            "beta": crit(freq=0.4, title=1.0, positions=(0.1,)),
        }
        kb = load_bundled("efcc")
        a = weigh_fuzzy("d", criteria, kb)
        b = weigh_fuzzy("d", criteria, kb)
        assert a.weights == b.weights

    def test_term_order_irrelevant(self):
        kb = load_bundled("efcc")
        c1 = {"a": crit(freq=0.9), "b": crit(freq=0.3, title=1.0)}
        c2 = dict(reversed(list(c1.items())))
        assert weigh_fuzzy("d", c1, kb).weights == weigh_fuzzy("d", c2, kb).weights

    def test_same_criteria_same_weight_across_docs(self):
        kb = load_bundled("fcc")
        shared = crit(freq=0.6, title=1.0, emph=0.2, positions=(0.4,))
        w1 = weigh_fuzzy("d1", {"x": shared}, kb).weights["x"]
        w2 = weigh_fuzzy("d2", {"x": shared, "other": crit(freq=0.1)}, kb).weights["x"]
        assert w1 == w2

    def test_pointwise_dominance(self):
        kb = load_bundled("efcc")
        rng = np.random.default_rng(99)
        for _ in range(20):
            low = rng.random(4)
            high = low + (1.0 - low) * rng.random(4)
            w_low = weigh_fuzzy(
                "d",
                {"t": crit(low[0], low[1], low[2], positions=(0.5 - low[3] / 2,))},
                kb,
            ).weights.get("t", 0.0)
            w_high = weigh_fuzzy(
                "d",
                {"t": crit(high[0], high[1], high[2], positions=(0.5 - high[3] / 2,))},
                kb,
            ).weights.get("t", 0.0)
            assert w_high >= w_low - 1e-9

    def test_empty_criteria(self):
        vec = weigh_fuzzy("d", {}, load_bundled("efcc"))
        assert vec.weights == {}


def efcc_idf_rows(criteria, n_docs, doc_freq, kb):
    """(fuzzy, fuzzy * idf) weights of document 0, as {term: weight} maps, in
    a corpus of n_docs documents: document 0 holds `criteria`, and each term
    is placed in the next doc_freq[term] - 1 documents with a filler term."""
    by_doc = {f"d{i}": {"filler": crit()} for i in range(n_docs)}
    by_doc["d0"] = dict(criteria)
    for term, df in doc_freq.items():
        for i in range(1, df):
            by_doc[f"d{i}"][term] = crit()
    corpus = Corpus.from_criteria(by_doc)
    docs = np.arange(n_docs)
    fuzzy = fuzzy_rows(corpus, docs, kb, global_positions(corpus, kb))
    combined = idf_rows(fuzzy, corpus, docs)

    def first_row(rows):
        span = slice(rows.offsets[0], rows.offsets[1])
        return {corpus.vocab[t]: w for t, w in zip(rows.term_ids[span], rows.weights[span])}

    return first_row(fuzzy), first_row(combined)


class TestEfccIdf:
    def test_exact_product(self):
        kb = load_bundled("efcc")
        criteria = {
            "alpha": crit(freq=0.8, title=1.0, positions=(0.0, 0.6)),
            "beta": crit(freq=0.5, emph=0.7, positions=(0.9,)),
        }
        fuzzy, combined = efcc_idf_rows(criteria, 10, {"alpha": 3, "beta": 7}, kb)
        assert set(combined) == {"alpha", "beta"}
        assert combined["alpha"] == fuzzy["alpha"] * math.log(10 / 3)
        assert combined["beta"] == fuzzy["beta"] * math.log(10 / 7)

    def test_idf_zero_dropped_despite_fuzzy_weight(self):
        kb = load_bundled("efcc")
        fuzzy, combined = efcc_idf_rows(
            {"alpha": crit(freq=1.0, title=1.0)}, 5, {"alpha": 5}, kb
        )
        assert fuzzy["alpha"] > 0.0
        assert "alpha" not in combined

    def test_unit_idf_is_identity_factor(self):
        # df chosen so ln(n/df) == 1 exactly is impossible with integers;
        # approximate by checking the scaling matches the idf
        kb = load_bundled("efcc")
        fuzzy, combined = efcc_idf_rows({"alpha": crit(freq=1.0, emph=0.9)}, 8, {"alpha": 2}, kb)
        assert combined["alpha"] / fuzzy["alpha"] == pytest.approx(math.log(4), rel=1e-15)


class TestDocVector:
    def test_norm(self):
        vec = DocVector("d", {"a": 3.0, "b": 4.0})
        assert vec.norm == 5.0
        assert len(vec) == 2

    def test_dump_format(self, tmp_path):
        out = tmp_path / "vectors.txt"
        rows = SparseRows(np.array([0, 2, 2]), np.array([0, 1]), np.array([2.0, 0.123456789]))
        dump_vectors(rows, ["d1", "d2"], ["alpha", "beta"], out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "d1 alpha:2 beta:0.123457"
        assert lines[1] == "d2"

    def test_dump_writes_each_row_in_vocabulary_order(self, tmp_path):
        # a corpus keeps each document's pairs in the order extract_criteria
        # listed them, so a row's term ids need not ascend
        out = tmp_path / "vectors.txt"
        rows = SparseRows(
            np.array([0, 3, 4]), np.array([2, 0, 1, 0]), np.array([0.5, 1.0, 0.25, 2.0])
        )
        dump_vectors(rows, ["d1", "d2"], ["alpha", "beta", "gamma"], out)
        assert out.read_text(encoding="utf-8") == "d1 alpha:1 beta:0.25 gamma:0.5\nd2 alpha:2\n"
