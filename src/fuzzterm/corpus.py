"""Columnar corpus: the term criteria of every document in one CSR layout.

Compressed sparse rows: one flat array per field plus row offsets.  Each
(document, term) pair is one row.  Document d owns the pairs
doc_offsets[d]:doc_offsets[d+1], listed by ascending term id; the
vocabulary is sorted, so term-id order is string order.  Pair i's
occurrence positions are positions[pos_offsets[i]:pos_offsets[i+1]].

`CorpusBuilder` packs one document's `extract_criteria` map at a time, so a
corpus-wide dict of TermCriteria is never held.  A sub-corpus is a selection
of document rows.  Document vectors use the matching layout, `SparseRows`;
the weighing, ranking and projection functions of `weighting`, `reduction`
and `cluster` work on these arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

import numpy as np

from .ingest import TermCriteria


def _select(offsets: np.ndarray, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the selected rows' entries, in selection order, and
    the offsets of those rows within the selection."""
    docs = np.asarray(docs, dtype=np.int64)
    starts = offsets[docs]
    lengths = offsets[docs + 1] - starts
    sub = np.zeros(docs.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=sub[1:])
    index = np.arange(sub[-1], dtype=np.int64) + np.repeat(starts - sub[:-1], lengths)
    return index, sub


@dataclass(frozen=True, eq=False)
class Corpus:
    """Every document's per-term criteria as flat arrays (see module doc)."""

    doc_ids: tuple[str, ...]
    vocab: tuple[str, ...]
    doc_offsets: np.ndarray
    term_ids: np.ndarray
    freq: np.ndarray
    title: np.ndarray
    emph: np.ndarray
    raw_tf: np.ndarray
    positions: np.ndarray
    pos_offsets: np.ndarray

    @classmethod
    def from_criteria(cls, criteria_by_doc: Mapping[str, Mapping[str, TermCriteria]]) -> "Corpus":
        builder = CorpusBuilder()
        for doc_id, criteria in criteria_by_doc.items():
            builder.add(doc_id, criteria)
        return builder.build()

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_pairs(self) -> int:
        return int(self.term_ids.size)

    def select(self, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pair indices, row offsets) of the selected documents, in order."""
        return _select(self.doc_offsets, docs)


class CorpusBuilder:
    """Packs documents into a Corpus one criteria map at a time.  `build`
    hands the packed buffers to the Corpus; add no document after it."""

    def __init__(self):
        self._doc_ids: list[str] = []
        self._ids: dict[str, int] = {}  # term -> id in first-seen order
        self._doc_sizes = array("q")
        self._terms = array("q")
        self._freq = array("d")
        self._title = array("d")
        self._emph = array("d")
        self._raw_tf = array("q")
        self._n_positions = array("q")
        self._positions = array("d")

    def add(self, doc_id: str, criteria: Mapping[str, TermCriteria]) -> None:
        terms = sorted(criteria)
        crits = [criteria[t] for t in terms]
        ids = self._ids
        self._doc_ids.append(doc_id)
        self._doc_sizes.append(len(terms))
        self._terms.extend([ids.setdefault(t, len(ids)) for t in terms])
        self._freq.extend([c.freq_norm for c in crits])
        self._title.extend([c.title_norm for c in crits])
        self._emph.extend([c.emph_norm for c in crits])
        self._raw_tf.extend([c.raw_tf for c in crits])
        self._n_positions.extend([len(c.positions) for c in crits])
        self._positions.extend(chain.from_iterable([c.positions for c in crits]))

    def build(self) -> Corpus:
        vocab = sorted(self._ids)
        first_seen = np.fromiter((self._ids[t] for t in vocab), np.int64, len(vocab))
        rank = np.empty(len(vocab), dtype=np.int64)
        rank[first_seen] = np.arange(len(vocab))
        # terms were packed in string order per document, so the sorted ids
        # ascend within each document
        term_ids = rank[np.frombuffer(self._terms, dtype=np.int64)]
        return Corpus(
            doc_ids=tuple(self._doc_ids),
            vocab=tuple(vocab),
            doc_offsets=_offsets(self._doc_sizes),
            term_ids=term_ids,
            freq=np.frombuffer(self._freq, dtype=np.float64),
            title=np.frombuffer(self._title, dtype=np.float64),
            emph=np.frombuffer(self._emph, dtype=np.float64),
            raw_tf=np.frombuffer(self._raw_tf, dtype=np.int64),
            positions=np.frombuffer(self._positions, dtype=np.float64),
            pos_offsets=_offsets(self._n_positions),
        )


def _offsets(sizes: array) -> np.ndarray:
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(sizes, dtype=np.int64), out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Document vectors: row i has weights[offsets[i]:offsets[i+1]] on the
    terms term_ids[offsets[i]:offsets[i+1]], ascending within the row."""

    offsets: np.ndarray
    term_ids: np.ndarray
    weights: np.ndarray

    @classmethod
    def nonzero(cls, offsets, term_ids, weights) -> "SparseRows":
        """The rows without their zero weights, which a vector never stores."""
        keep = weights != 0.0
        if keep.all():
            return cls(offsets, term_ids, weights)
        kept = np.zeros(keep.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return cls(kept[offsets], term_ids[keep], weights[keep])

    @property
    def n_rows(self) -> int:
        return self.offsets.size - 1

    def select(self, docs: np.ndarray) -> "SparseRows":
        index, offsets = _select(self.offsets, docs)
        return SparseRows(offsets, self.term_ids[index], self.weights[index])

    def row_of_entry(self) -> np.ndarray:
        """The row index of every entry."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.offsets))

    def to_dense(self, keep: np.ndarray | None = None) -> np.ndarray:
        """Dense (rows, columns) matrix.  The columns are the term ids that
        occur in the rows (and are set in the boolean mask `keep`, when
        given), in ascending order."""
        terms = self.term_ids
        width = int(terms.max()) + 1 if terms.size else 0
        selected = np.ones(terms.size, dtype=bool) if keep is None else keep[terms]
        present = np.zeros(width, dtype=bool)
        present[terms[selected]] = True
        column = np.cumsum(present) - 1
        X = np.zeros((self.n_rows, int(present.sum())))
        X[self.row_of_entry()[selected], column[terms[selected]]] = self.weights[selected]
        return X
