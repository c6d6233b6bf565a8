"""The columnar corpus and the array weighing, ranking and projection on it,
checked against the per-document dict references in oracles.py."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzterm import CorpusStats, TermCriteria, load_bundled, load_manifest, tune_afcc
from fuzzterm.errors import EmptyPositions, NoRuleFired
from fuzzterm import engine, kernels, pipeline, weighting
from fuzzterm.corpus import Corpus, SparseRows
from fuzzterm.pipeline import (
    RunConfig,
    _build_criteria,
    _Representations,
    build_corpus,
    corpus_profiles,
)
from fuzzterm.reduction import mft_order, mft_rank, project_rows
from fuzzterm.weighting import (
    DocVector,
    apply_idf,
    fuzzy_rows,
    global_positions,
    idf_rows,
    idf_values,
    tf_idf,
    tfidf_rows,
    unpack_rows,
)

from oracles import (
    mft_order_reference,
    projected_matrix_reference,
    weigh_fuzzy_reference,
)

properties = settings(deadline=None, database=None)
# drawing whole corpora is slow; fewer examples keep the module quick
corpus_properties = settings(deadline=None, database=None, max_examples=40)

# mixed case, shared prefixes and non-ASCII, so string order is exercised
TERMS = ("a", "ab", "abc", "b", "B", "ba", "x1", "z", "zz", "é", "ü", "ω")
# set breakpoints of the bundled bases plus the domain ends
GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.7, 0.75, 0.9, 1.0)
unit = st.one_of(st.sampled_from(GRID), st.floats(0.0, 1.0))
criteria_st = st.builds(
    TermCriteria,
    freq_norm=unit.filter(lambda x: x > 0.0),
    title_norm=unit,
    emph_norm=unit,
    positions=st.lists(unit, min_size=1, max_size=4).map(tuple),
    raw_tf=st.integers(1, 9),
)
doc_st = st.dictionaries(st.sampled_from(TERMS), criteria_st, max_size=8)
corpus_st = st.lists(doc_st, min_size=1, max_size=6).map(
    lambda docs: {f"d{i}": doc for i, doc in enumerate(docs)}
)
kb_names = st.sampled_from(("fcc", "addfcc", "efcc", "emph"))


@st.composite
def corpus_and_docs(draw):
    """A criteria corpus and a selection of its documents, in any order."""
    by_doc = draw(corpus_st)
    n = len(by_doc)
    docs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return by_doc, np.array(docs, dtype=np.int64)


def weigh(corpus, docs, kb):
    return fuzzy_rows(corpus, docs, kb, global_positions(corpus, kb))


def maps_of(rows, corpus, docs):
    vectors = unpack_rows(rows, [corpus.doc_ids[d] for d in docs], corpus.vocab)
    return [vec.weights for vec in vectors]


class TestCorpusLayout:
    @corpus_properties
    @given(by_doc=corpus_st)
    def test_packs_every_pair(self, by_doc):
        corpus = Corpus.from_criteria(by_doc)
        assert list(corpus.vocab) == sorted({t for doc in by_doc.values() for t in doc})
        assert corpus.doc_ids == tuple(by_doc)
        for d, (doc_id, doc) in enumerate(by_doc.items()):
            span = slice(corpus.doc_offsets[d], corpus.doc_offsets[d + 1])
            ids = corpus.term_ids[span]
            assert (np.diff(ids) > 0).all()
            assert [corpus.vocab[t] for t in ids] == sorted(doc)
            for i, term in zip(range(span.start, span.stop), sorted(doc)):
                crit = doc[term]
                assert corpus.freq[i] == crit.freq_norm
                assert corpus.title[i] == crit.title_norm
                assert corpus.emph[i] == crit.emph_norm
                assert corpus.raw_tf[i] == crit.raw_tf
                pos = corpus.positions[corpus.pos_offsets[i]:corpus.pos_offsets[i + 1]]
                assert tuple(pos) == crit.positions

    def test_sparse_rows_select_keeps_order(self):
        rows = SparseRows(
            np.array([0, 2, 2, 3]), np.array([0, 4, 1]), np.array([0.5, 0.25, 2.0])
        )
        picked = rows.select(np.array([2, 1, 0]))
        assert picked.offsets.tolist() == [0, 1, 1, 3]
        assert picked.term_ids.tolist() == [1, 0, 4]
        assert picked.weights.tolist() == [2.0, 0.5, 0.25]


class TestWeighing:
    @corpus_properties
    @given(data=corpus_and_docs(), kb_name=kb_names, chunk=st.integers(1, 7))
    def test_chunked_weighing_equals_per_document(self, data, kb_name, chunk):
        by_doc, docs = data
        kb = load_bundled(kb_name)
        corpus = Corpus.from_criteria(by_doc)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(engine, "BATCH_ROWS", chunk)
            got = maps_of(weigh(corpus, docs, kb), corpus, docs)
        want = [weigh_fuzzy_reference(by_doc[corpus.doc_ids[d]], kb) for d in docs]
        assert got == want
        for d, weights in zip(docs, got):
            doc_id = corpus.doc_ids[d]
            assert weighting.weigh_fuzzy(doc_id, by_doc[doc_id], kb).weights == weights

    @corpus_properties
    @given(data=corpus_and_docs(), chunk=st.integers(1, 7))
    def test_tuned_base_reuses_global_positions(self, data, chunk):
        by_doc, docs = data
        corpus = Corpus.from_criteria(by_doc)
        weigher = _Representations(corpus)
        calls = []

        def spy(*args):
            calls.append(args)
            return global_positions(*args)

        with pytest.MonkeyPatch.context() as m, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tied tuner edges are nudged
            tuned = tune_afcc(load_bundled("efcc"), corpus_profiles(corpus, docs))
            m.setattr(engine, "BATCH_ROWS", chunk)
            m.setattr(pipeline, "global_positions", spy)
            weigher.rows("efcc", np.arange(corpus.n_docs))
            got = maps_of(weigher.rows("afcc", docs)[0], corpus, docs)
            weigher.rows("afcc", docs[::-1])
        # the afcc tunings weigh with the positions the efcc base computed
        assert len(calls) == 1
        want = [weigh_fuzzy_reference(by_doc[corpus.doc_ids[d]], tuned) for d in docs]
        assert got == want

    def test_chunk_bounds_every_kernel_call(self, monkeypatch):
        by_doc = {
            f"d{i}": {t: TermCriteria(0.5, 0.0, 0.2, (0.1, 0.9), 2) for t in TERMS}
            for i in range(5)
        }
        corpus = Corpus.from_criteria(by_doc)
        calls = []
        original = kernels.batch_infer

        def spy(X, *args):
            calls.append(len(X))
            return original(X, *args)

        monkeypatch.setattr(engine, "BATCH_ROWS", 7)
        monkeypatch.setattr(kernels, "batch_infer", spy)
        weigh(corpus, np.arange(5), load_bundled("efcc"))
        assert max(calls) == 7
        # aux rows (positions) then main rows (pairs), each in chunks of 7
        assert sum(calls) == corpus.positions.size + corpus.n_pairs

    def test_document_errors_of_the_dict_form(self):
        efcc = load_bundled("efcc")
        assert weighting.weigh_fuzzy("d0", {}, efcc).weights == {}
        unplaced = {"a": TermCriteria(0.5, 0.0, 0.0, (), 1)}
        with pytest.raises(EmptyPositions):
            weighting.weigh_fuzzy("d0", unplaced, efcc)

    def test_no_rule_fired_names_the_row_across_chunks(self, monkeypatch):
        system = load_bundled("efcc").aux_system()
        X = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
        original = kernels.batch_infer

        def silent_at_row_13(chunk, *args):
            weights, fired = original(chunk, *args)
            return weights, fired & (chunk[:, 0] != X[13, 0])

        monkeypatch.setattr(kernels, "batch_infer", silent_at_row_13)
        monkeypatch.setattr(engine, "BATCH_ROWS", 4)
        with pytest.raises(NoRuleFired, match=r"input row 13: \["):
            system.infer_batch(X)


class TestIdf:
    @properties
    @given(
        n=st.integers(1, 10**7),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    )
    def test_idf_values_equal_corpus_stats(self, n, fractions):
        df = np.array([1 + int(f * (n - 1)) for f in fractions], dtype=np.int64)
        stats = CorpusStats(n, {f"t{i}": int(v) for i, v in enumerate(df)})
        want = [stats.idf(f"t{i}") for i in range(df.size)]
        assert idf_values(n, df).tolist() == want

    @pytest.mark.parametrize("n", [21, 41, 42, 60, 63])
    def test_idf_values_where_np_log_rounds_differently(self, n):
        # np.log over these arrays differs from math.log in the last bit for
        # one df each (seen on a vectorized build); math.log must be kept
        df = np.arange(1, n + 1)
        stats = CorpusStats(n, {f"t{d}": d for d in range(1, n + 1)})
        assert idf_values(n, df).tolist() == [stats.idf(f"t{d}") for d in range(1, n + 1)]

    @corpus_properties
    @given(data=corpus_and_docs())
    def test_tfidf_rows_equal_dict_tf_idf(self, data):
        by_doc, docs = data
        corpus = Corpus.from_criteria(by_doc)
        subset = {corpus.doc_ids[d]: by_doc[corpus.doc_ids[d]] for d in docs}
        stats = CorpusStats.from_criteria(subset)
        want = [tf_idf(doc_id, crit, stats).weights for doc_id, crit in subset.items()]
        assert maps_of(tfidf_rows(corpus, docs), corpus, docs) == want

    @corpus_properties
    @given(data=corpus_and_docs(), kb_name=kb_names)
    def test_idf_rows_equal_apply_idf(self, data, kb_name):
        by_doc, docs = data
        kb = load_bundled(kb_name)
        corpus = Corpus.from_criteria(by_doc)
        subset = {corpus.doc_ids[d]: by_doc[corpus.doc_ids[d]] for d in docs}
        stats = CorpusStats.from_criteria(subset)
        fuzzy = weigh(corpus, np.arange(corpus.n_docs), kb).select(docs)
        got = maps_of(idf_rows(fuzzy, corpus, docs), corpus, docs)
        want = [
            apply_idf(DocVector(doc_id, weigh_fuzzy_reference(crit, kb)), stats).weights
            for doc_id, crit in subset.items()
        ]
        assert got == want


# few distinct weights and few terms, so rank, count and weight ties abound
tied_maps = st.lists(
    st.dictionaries(
        st.sampled_from(TERMS), st.sampled_from((0.25, 0.5, 0.75, 1.0)), max_size=6
    ),
    max_size=10,
)


class TestMftRank:
    @properties
    @given(maps=tied_maps)
    def test_array_order_equals_reference(self, maps):
        vectors = [DocVector(f"d{i}", m) for i, m in enumerate(maps)]
        assert mft_order(vectors) == mft_order_reference(maps)

    @corpus_properties
    @given(data=corpus_and_docs(), kb_name=kb_names)
    def test_corpus_rank_equals_reference(self, data, kb_name):
        by_doc, docs = data
        corpus = Corpus.from_criteria(by_doc)
        rows = weigh(corpus, docs, load_bundled(kb_name))
        got = [corpus.vocab[t] for t in mft_rank(rows)]
        assert got == mft_order_reference(maps_of(rows, corpus, docs))


class TestProjection:
    @properties
    @given(
        maps=tied_maps,
        others=tied_maps,
        features=st.lists(st.sampled_from(TERMS), unique=True),
    )
    def test_column_mask_equals_reference(self, maps, others, features):
        # the vocabulary also holds the terms of `others`, so some features
        # are absent from the projected rows and must get no column
        vectors = [DocVector(f"d{i}", m) for i, m in enumerate(maps + others)]
        rows, vocab = weighting.pack_vectors(vectors)
        rows = rows.select(np.arange(len(maps)))
        index = {t: i for i, t in enumerate(vocab)}
        ids = np.array([index[t] for t in features if t in index], dtype=np.int64)
        got = project_rows(rows, ids, len(vocab))
        want, _ = projected_matrix_reference(maps, features)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @corpus_properties
    @given(data=corpus_and_docs(), size=st.integers(1, len(TERMS)))
    def test_mft_prefix_projection_equals_reference(self, data, size):
        by_doc, docs = data
        corpus = Corpus.from_criteria(by_doc)
        rows = tfidf_rows(corpus, docs)
        order = mft_rank(rows)[:size]
        got = project_rows(rows, order, len(corpus.vocab))
        maps = maps_of(rows, corpus, docs)
        want, _ = projected_matrix_reference(maps, [corpus.vocab[t] for t in order])
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


class TestMemory:
    def test_weighing_holds_one_chunk_of_memberships(self, corpus_dir_200, monkeypatch):
        manifest = load_manifest(corpus_dir_200 / "manifest.tsv")
        corpus = build_corpus(manifest, RunConfig(manifest=corpus_dir_200 / "manifest.tsv"))
        kb = load_bundled("fcc")
        monkeypatch.setattr(engine, "BATCH_ROWS", 1024)
        n_pairs, n_positions = corpus.n_pairs, corpus.positions.size

        def chunk_table(system):
            return 1024 * system._trap.shape[0] * 8

        def full_table(system, rows):
            return rows * system._trap.shape[0] * 8

        # auxiliary pass: one score per occurrence, then one max per pair
        aux = kb.aux_system()
        bound = (n_positions + n_pairs) * 8 + 3 * chunk_table(aux)
        assert bound < full_table(aux, n_positions)
        gpos, peak = _traced_peak(lambda: global_positions(corpus, kb))
        assert peak < bound
        # main pass: the selection, its term ids and weights, a few arrays of n_pairs
        main = kb.system()
        bound = 6 * n_pairs * 8 + 3 * chunk_table(main)
        assert bound < full_table(main, n_pairs)
        every = np.arange(corpus.n_docs)
        rows, peak = _traced_peak(lambda: fuzzy_rows(corpus, every, kb, gpos))
        assert rows.weights.size == n_pairs
        assert peak < bound

    def test_build_holds_no_corpus_wide_criteria(self, corpus_dir_200):
        manifest = load_manifest(corpus_dir_200 / "manifest.tsv")
        config = RunConfig(manifest=corpus_dir_200 / "manifest.tsv")
        by_doc, held = _traced_peak(lambda: _build_criteria(manifest, config))
        assert len(by_doc) == 200
        del by_doc
        corpus, peak = _traced_peak(lambda: build_corpus(manifest, config))
        assert corpus.n_docs == 200
        # holding every document's criteria map at once would exceed this
        assert peak < held / 2
