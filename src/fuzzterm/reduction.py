"""Feature selection by most-frequent-terms ranking.

Terms are ranked inside each document by weight; rank slots are then walked
globally: every term that tops some document competes at slot 0, ordered by
how many documents it tops and, on ties, by its best weight there.  Slot 1
follows, and so on, until enough distinct terms have accumulated.

The pipeline ranks `corpus.SparseRows` with `mft_rank`, two lexsorts over
the (document, term) entries; a selection of k features is the first k
term ids of that order.  `project_rows`, a column mask, writes the dense
matrix clustering takes, and `dump_features` writes a selection as text.

`FeatureSet`, `mft_order` and `project` are an older form over lists of
`weighting.DocVector` that no run path calls.  They stay only because the
benchmark tracer still wraps `mft_order` and `project`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import SparseRows
from .weighting import DocVector, pack_vectors


@dataclass(frozen=True)
class FeatureSet:
    terms: tuple[str, ...]
    requested: int
    _members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.terms))

    def __contains__(self, term: str) -> bool:
        return term in self._members

    def __len__(self) -> int:
        return len(self.terms)


def mft_rank(rows: SparseRows) -> np.ndarray:
    """Term ids in most-frequent-terms order; selections are prefixes.

    Each entry's rank in its row comes from one lexsort by (-weight, term
    id).  A term enters the order at its first (lowest) rank, so a second
    lexsort by (term, rank, -weight) gives, per term, that rank, the number
    of rows placing it there and its largest weight there; terms are then
    ordered by (first rank, -count, -max weight, term id).
    """
    if rows.term_ids.size == 0:
        return np.empty(0, dtype=np.int64)
    row = rows.row_of_entry()
    by_row = np.lexsort((rows.term_ids, -rows.weights, row))
    terms = rows.term_ids[by_row]
    weights = rows.weights[by_row]
    rank = np.arange(terms.size) - rows.offsets[row]

    by_term = np.lexsort((-weights, rank, terms))
    terms, rank, weights = terms[by_term], rank[by_term], weights[by_term]
    term_start = np.empty(terms.size, dtype=bool)
    term_start[0] = True
    term_start[1:] = terms[1:] != terms[:-1]
    run_start = term_start.copy()
    run_start[1:] |= rank[1:] != rank[:-1]
    runs = np.flatnonzero(run_start)
    run_length = np.diff(runs, append=terms.size)
    first = term_start[runs]  # each term's first run holds its lowest rank
    starts = runs[first]
    term, count, best = terms[starts], run_length[first], weights[starts]
    return term[np.lexsort((term, -best, -count, rank[starts]))]


def project_rows(rows: SparseRows, features: np.ndarray, n_terms: int) -> np.ndarray:
    """Dense matrix of the rows restricted to the feature term ids.

    Columns are the features that occur in the rows, in ascending term id.
    """
    keep = np.zeros(n_terms, dtype=bool)
    keep[features] = True
    return rows.to_dense(keep)


def mft_order(vectors) -> list[str]:
    """Full global term ordering of DocVectors (see mft_rank)."""
    rows, vocab = pack_vectors(list(vectors))
    return [vocab[t] for t in mft_rank(rows).tolist()]


def project(vec: DocVector, features: FeatureSet) -> DocVector:
    """Restrict a vector to the selected features."""
    return DocVector(vec.doc_id, {t: w for t, w in vec.weights.items() if t in features})


def dump_features(terms, path) -> None:
    """One feature per line, in selection order."""
    Path(path).write_text("\n".join(terms) + "\n", encoding="utf-8")
