"""Columnar corpus: the term criteria of every document in one CSR layout.

Compressed sparse rows: one flat array per field plus row offsets.  Each
(document, term) pair is one row.  Document d owns the pairs
doc_offsets[d]:doc_offsets[d+1], in the order its criteria columns listed
them; the vocabulary is sorted, so term-id order is string order, but no
reader needs a document's pairs in that order.  Pair i's occurrence
positions are positions[pos_offsets[i]:pos_offsets[i+1]].

`CorpusBuilder` owns the corpus's `ingest.TermTable` and appends one
document's `ingest.extract_criteria` columns at a time, as term ids of that
table, so no per-term object is built and no corpus-wide criteria map is
held.  `build` ranks the vocabulary by string once and rewrites the term
ids to those ranks in place; pairs and positions stay where `add` put
them.  A sub-corpus is a selection of document rows.  Document vectors use
the matching layout, `SparseRows`; the weighing, ranking and projection
functions of `weighting`, `reduction` and `cluster` work on these arrays.

`Corpus.from_criteria` packs term -> `ingest.TermCriteria` maps through the
same builder, interning their terms without the tokenizer's filter.  No
run path calls it; it stays only for `weighting.weigh_fuzzy`, which the
benchmark tracer still wraps.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress
from typing import Mapping

import numpy as np

from .ingest import DEFAULT_TOKENIZER, CriteriaColumns, TermCriteria, TermTable, TokenizerOptions

# rows per block of SparseRows.to_dense
_BLOCK_ROWS = 64


def _select(offsets: np.ndarray, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the selected rows' entries, in selection order, and
    the offsets of those rows within the selection."""
    docs = np.asarray(docs, dtype=np.int64)
    starts = offsets[docs]
    lengths = offsets[docs + 1] - starts
    sub = np.zeros(docs.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=sub[1:])
    index = np.repeat(starts - sub[:-1], lengths)
    index += np.arange(sub[-1], dtype=np.int64)
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
            builder.add(doc_id, _columns(criteria, builder.table))
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


def _columns(criteria: Mapping[str, TermCriteria], table: TermTable) -> CriteriaColumns:
    """A TermCriteria map as criteria columns, its terms interned in table.
    The position counts are taken from the positions, since a map built by
    hand need not have one position per occurrence."""
    crits = list(criteria.values())
    return CriteriaColumns(
        table=table,
        term_ids=np.fromiter(map(table.intern, criteria), np.int64, len(crits)),
        freq=np.array([c.freq_norm for c in crits], dtype=np.float64),
        title=np.array([c.title_norm for c in crits], dtype=np.float64),
        emph=np.array([c.emph_norm for c in crits], dtype=np.float64),
        raw_tf=np.array([c.raw_tf for c in crits], dtype=np.int64),
        positions=np.fromiter(chain.from_iterable(c.positions for c in crits), np.float64),
        n_positions=np.array([len(c.positions) for c in crits], dtype=np.int64),
    )


class CorpusBuilder:
    """Packs documents into a Corpus one document's criteria columns at a
    time; the columns hold ids of the builder's `table`, which tokenizes
    with `options`.  `build` hands the packed buffers to the Corpus, so a
    builder builds one corpus: `add` or `build` after it raises ValueError."""

    def __init__(self, options: TokenizerOptions = DEFAULT_TOKENIZER):
        self.table = TermTable(options)
        self._built = False
        self._doc_ids: list[str] = []
        self._doc_sizes = array("q")
        self._terms = array("q")
        self._freq = array("d")
        self._title = array("d")
        self._emph = array("d")
        self._raw_tf = array("q")
        self._n_positions = array("q")
        self._positions = array("d")
        # per table id, its row in the latest document that held it; ids
        # index it, so it grows with the table
        self._row_of = np.empty(0, dtype=np.int64)

    def add(self, doc_id: str, columns: CriteriaColumns) -> None:
        """Append one document; its rows are distinct term ids, in any order.
        Raises ValueError, and appends nothing, when a term id is outside
        the table or repeats, the row columns differ in length or the
        position counts do not count the positions."""
        self._check_unbuilt()
        if columns.table is not self.table:
            raise ValueError(f"criteria of {doc_id!r} hold ids of another term table")
        buffers = (
            self._terms, self._freq, self._title, self._emph, self._raw_tf,
            self._n_positions, self._positions,
        )
        values = [
            np.asarray(column, dtype=buffer.typecode)
            for buffer, column in zip(buffers, (
                columns.term_ids, columns.freq, columns.title, columns.emph, columns.raw_tf,
                columns.n_positions, columns.positions,
            ))
        ]
        ids, *_, n_positions, positions = values
        if len({value.shape for value in values[:-1]}) > 1:
            raise ValueError(f"criteria of {doc_id!r} have row columns of unequal length")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.table.terms)):
            raise ValueError(f"criteria of {doc_id!r} hold a term id outside the term table")
        if self._row_of.size < len(self.table.terms):
            self._row_of = np.empty(2 * len(self.table.terms), dtype=np.int64)
        # an id's slot keeps one of the rows that wrote it, so a repeated id
        # reads back another row at one of its rows: O(p), with no sort
        rows = np.arange(ids.size)
        self._row_of[ids] = rows
        if (self._row_of[ids] != rows).any():
            raise ValueError(f"criteria of {doc_id!r} hold a term id twice")
        if (n_positions < 0).any() or n_positions.sum() != positions.size:
            raise ValueError(
                f"criteria of {doc_id!r} have position counts that do not sum to "
                f"their {positions.size} positions"
            )
        self._doc_ids.append(doc_id)
        self._doc_sizes.append(ids.size)
        for buffer, value in zip(buffers, values):
            buffer.frombytes(value.tobytes())

    def build(self) -> Corpus:
        """The corpus: its vocabulary is the table's terms that some
        document holds, in string order, and its term ids index that
        vocabulary.  Pairs and positions stay in the order `add` got them."""
        self._check_unbuilt()
        self._built = True
        table = self.table
        term_ids = np.frombuffer(self._terms, dtype=np.int64)
        held = np.zeros(len(table.terms), dtype=bool)
        held[term_ids] = True
        vocab = sorted(compress(table.terms, held.tolist()))
        rank = np.zeros(len(table.terms), dtype=np.int64)
        # interning a held term gives its id
        rank[np.fromiter(map(table.intern, vocab), np.int64, len(vocab))] = np.arange(len(vocab))
        # in place, with no corpus-sized copy: take reads each id before it
        # writes that slot, and "clip", which never clips the ids add
        # checked, spares the buffer take's default mode copies out into
        np.take(rank, term_ids, out=term_ids, mode="clip")
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

    def _check_unbuilt(self) -> None:
        if self._built:
            raise ValueError("this CorpusBuilder has built its corpus; use a new builder")


def _offsets(sizes: array) -> np.ndarray:
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(sizes, dtype=np.int64), out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Document vectors: row i has weights[offsets[i]:offsets[i+1]] on the
    terms term_ids[offsets[i]:offsets[i+1]], each at most once, in any
    order."""

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
        given), in ascending order.  The matrix is filled _BLOCK_ROWS rows
        at a time, so no index or value array of every entry is made."""
        terms, offsets = self.term_ids, self.offsets
        present = np.zeros(int(terms.max()) + 1 if terms.size else 0, dtype=bool)
        present[terms] = True
        if keep is not None:
            present &= keep[: present.size]
        column = np.cumsum(present) - 1
        X = np.zeros((self.n_rows, int(present.sum())))
        for start in range(0, self.n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, self.n_rows)
            span = slice(offsets[start], offsets[stop])
            block_terms = terms[span]
            row = np.repeat(np.arange(stop - start), np.diff(offsets[start : stop + 1]))
            selected = present[block_terms]
            X[start:stop][row[selected], column[block_terms[selected]]] = self.weights[span][selected]
        return X
