"""Turn per-term criteria into document vectors.

Three families: the fuzzy combinations (weight = defuzzified Importance),
TF-IDF (raw count times log inverse document frequency, natural log), and
EFCC-IDF (fuzzy weight times the same IDF factor).

The pipeline weighs a `corpus.Corpus` selection in arrays and gets
`corpus.SparseRows` back:
- `global_positions` defuzzifies every occurrence position of the corpus
  through the auxiliary system and keeps each pair's maximum
  (`engine.global_position_batch`); it depends on that system alone, so
  the caller keeps one result per distinct auxiliary system;
- `fuzzy_rows` runs the main system over the selected pairs in one
  `FuzzySystem.infer_batch` call, which fires the rules
  `engine.BATCH_ROWS` rows at a time;
- `tfidf_rows` and `idf_rows` take document frequencies as a bincount and
  the IDF once per distinct document frequency.

`dump_vectors` writes such rows as text.

`DocVector`, `CorpusStats`, `pack_vectors`, `unpack_rows`, `weigh_fuzzy`
and `tf_idf` are an older per-document dict form that no run path calls.
They stay only because the benchmark tracer still wraps `weigh_fuzzy` and
`tf_idf`; they go once it traces the array functions instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, SparseRows
from .engine import global_position_batch
from .errors import UnknownTerm
from .ingest import TermCriteria
from .kb import KnowledgeBase


@dataclass
class DocVector:
    """Sparse term -> weight map for one document; zero weights never stored."""

    doc_id: str
    weights: dict[str, float]
    _norm: float | None = field(default=None, repr=False, compare=False)

    @property
    def norm(self) -> float:
        if self._norm is None:
            self._norm = math.sqrt(sum(w * w for w in self.weights.values()))
        return self._norm

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class CorpusStats:
    """Corpus size and document frequencies, shared by the IDF weightings."""

    n_docs: int
    doc_freq: Mapping[str, int]

    def idf(self, term: str) -> float:
        df = self.doc_freq.get(term)
        if df is None:
            raise UnknownTerm(f"term {term!r} missing from document-frequency table")
        return math.log(self.n_docs / df)


def pack_vectors(vectors: Sequence[DocVector]) -> tuple[SparseRows, list[str]]:
    """SparseRows of the vectors over their sorted union vocabulary."""
    vocab = sorted({t for vec in vectors for t in vec.weights})
    index = {t: i for i, t in enumerate(vocab)}
    items = [sorted(vec.weights.items()) for vec in vectors]
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in items], out=offsets[1:])
    terms = np.fromiter((index[t] for row in items for t, _ in row), np.int64, offsets[-1])
    weights = np.fromiter((w for row in items for _, w in row), np.float64, offsets[-1])
    return SparseRows(offsets, terms, weights), vocab


def unpack_rows(rows: SparseRows, doc_ids: Sequence[str], vocab: Sequence[str]) -> list[DocVector]:
    """One DocVector per row."""
    out = []
    for i, doc_id in enumerate(doc_ids):
        span = slice(rows.offsets[i], rows.offsets[i + 1])
        terms, weights = rows.term_ids[span].tolist(), rows.weights[span].tolist()
        out.append(DocVector(doc_id, {vocab[t]: w for t, w in zip(terms, weights)}))
    return out


def global_positions(corpus: Corpus, kb: KnowledgeBase) -> np.ndarray:
    """Every pair's global position: the max defuzzified auxiliary score
    over its occurrences."""
    return global_position_batch(corpus.positions, corpus.pos_offsets, kb.aux_system())


def _main_inputs(corpus: Corpus, pairs: np.ndarray, gpos: np.ndarray) -> np.ndarray:
    X = np.empty((pairs.size, 4))
    for j, column in enumerate((corpus.freq, corpus.title, corpus.emph, gpos)):
        X[:, j] = column[pairs]
    return X


def fuzzy_rows(
    corpus: Corpus, docs: np.ndarray, kb: KnowledgeBase, gpos: np.ndarray
) -> SparseRows:
    """Run every selected pair through the knowledge base's main system.

    Inputs per pair: (freq_norm, title_norm, emph_norm, global position),
    the last taken from gpos, the corpus's global_positions under kb's
    auxiliary system.  Pairs weighing exactly 0 are dropped.
    """
    pairs, offsets = corpus.select(docs)
    weights = kb.system().infer_batch(_main_inputs(corpus, pairs, gpos))
    return SparseRows.nonzero(offsets, corpus.term_ids[pairs], weights)


def idf_values(n_docs: int, doc_freq: np.ndarray) -> np.ndarray:
    """math.log(n_docs / df) for every entry of doc_freq, taken once per
    distinct df value (np.log can differ from math.log in the last bit)."""
    distinct, inverse = np.unique(doc_freq, return_inverse=True)
    table = np.array([math.log(n_docs / df) for df in distinct.tolist()])
    return table[inverse.reshape(-1)]


def _selection_idf(corpus: Corpus, docs: np.ndarray, term_ids: np.ndarray) -> np.ndarray:
    """IDF of each entry of term_ids within the selected documents."""
    pairs, _ = corpus.select(docs)
    df = np.bincount(corpus.term_ids[pairs], minlength=len(corpus.vocab))
    return idf_values(len(docs), df[term_ids])


def tfidf_rows(corpus: Corpus, docs: np.ndarray) -> SparseRows:
    """weight = raw_tf * ln(|D| / df) over the selected documents; terms in
    every one of them drop out."""
    pairs, offsets = corpus.select(docs)
    terms = corpus.term_ids[pairs]
    weights = corpus.raw_tf[pairs] * _selection_idf(corpus, docs, terms)
    return SparseRows.nonzero(offsets, terms, weights)


def idf_rows(rows: SparseRows, corpus: Corpus, docs: np.ndarray) -> SparseRows:
    """Scale rows (weights of the selected documents) by IDF within those
    documents; zero products are dropped."""
    weights = rows.weights * _selection_idf(corpus, docs, rows.term_ids)
    return SparseRows.nonzero(rows.offsets, rows.term_ids, weights)


def weigh_fuzzy(doc_id: str, criteria: Mapping[str, TermCriteria], kb: KnowledgeBase) -> DocVector:
    """Run every term of one document through the knowledge base's main
    system (see fuzzy_rows); terms weighing exactly 0 are dropped."""
    corpus = Corpus.from_criteria({doc_id: criteria})
    rows = fuzzy_rows(corpus, np.arange(1), kb, global_positions(corpus, kb))
    return unpack_rows(rows, corpus.doc_ids, corpus.vocab)[0]


def tf_idf(doc_id: str, criteria: Mapping[str, TermCriteria], stats: CorpusStats) -> DocVector:
    """weight = raw_tf * ln(|D| / df); terms present in every document drop out."""
    weights: dict[str, float] = {}
    for term, crit in criteria.items():
        w = crit.raw_tf * stats.idf(term)
        if w != 0.0:
            weights[term] = w
    return DocVector(doc_id, weights)


def dump_vectors(rows: SparseRows, doc_ids: Sequence[str], vocab: Sequence[str], path) -> None:
    """One line per row: doc_id then term:weight pairs in vocabulary order,
    whatever the row's own order, 6 significant digits."""
    by_term = np.lexsort((rows.term_ids, rows.row_of_entry()))
    terms, weights = rows.term_ids[by_term].tolist(), rows.weights[by_term].tolist()
    bounds = rows.offsets.tolist()
    lines = []
    for doc_id, start, stop in zip(doc_ids, bounds, bounds[1:]):
        parts = [doc_id]
        parts.extend(f"{vocab[t]}:{w:.6g}" for t, w in zip(terms[start:stop], weights[start:stop]))
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
