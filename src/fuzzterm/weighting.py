"""Turn per-term criteria into document vectors.

Three families: the fuzzy combinations (weight = defuzzified Importance),
TF-IDF (raw count times log inverse document frequency, natural log), and
EFCC-IDF (fuzzy weight times the same IDF factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

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

    @classmethod
    def from_criteria(cls, criteria_by_doc: Mapping[str, Mapping[str, TermCriteria]]):
        df: dict[str, int] = {}
        for doc in criteria_by_doc.values():
            for term in doc:
                df[term] = df.get(term, 0) + 1
        return cls(len(criteria_by_doc), df)

    def idf(self, term: str) -> float:
        df = self.doc_freq.get(term)
        if df is None:
            raise UnknownTerm(f"term {term!r} missing from document-frequency table")
        return math.log(self.n_docs / df)


def weigh_fuzzy(doc_id: str, criteria: Mapping[str, TermCriteria], kb: KnowledgeBase) -> DocVector:
    """Run every term through the knowledge base's main system.

    Inputs per term: (freq_norm, title_norm, emph_norm, global position),
    the last one being the max defuzzified auxiliary score over the term's
    occurrences.  Terms weighing exactly 0 are dropped.
    """
    terms = list(criteria)
    if not terms:
        return DocVector(doc_id, {})
    flat: list[float] = []
    offsets = np.empty(len(terms) + 1, dtype=np.int64)
    offsets[0] = 0
    for i, term in enumerate(terms):
        pos = criteria[term].positions
        flat.extend(pos)
        offsets[i + 1] = offsets[i] + len(pos)
    gpos = global_position_batch(np.asarray(flat), offsets, kb.aux_system())

    X = np.empty((len(terms), 4))
    for i, term in enumerate(terms):
        crit = criteria[term]
        X[i, 0] = crit.freq_norm
        X[i, 1] = crit.title_norm
        X[i, 2] = crit.emph_norm
        X[i, 3] = gpos[i]
    out = kb.system().infer_batch(X)
    weights = {term: float(w) for term, w in zip(terms, out) if w != 0.0}
    return DocVector(doc_id, weights)


def tf_idf(doc_id: str, criteria: Mapping[str, TermCriteria], stats: CorpusStats) -> DocVector:
    """weight = raw_tf * ln(|D| / df); terms present in every document drop out."""
    weights: dict[str, float] = {}
    for term, crit in criteria.items():
        w = crit.raw_tf * stats.idf(term)
        if w != 0.0:
            weights[term] = w
    return DocVector(doc_id, weights)


def efcc_idf(
    doc_id: str,
    criteria: Mapping[str, TermCriteria],
    kb: KnowledgeBase,
    stats: CorpusStats,
) -> DocVector:
    """Fuzzy weight scaled by IDF; zero products are dropped."""
    return apply_idf(weigh_fuzzy(doc_id, criteria, kb), stats)


def apply_idf(vec: DocVector, stats: CorpusStats) -> DocVector:
    """Scale every weight of `vec` by its term's IDF; zero products are dropped."""
    weights: dict[str, float] = {}
    for term, w in vec.weights.items():
        scaled = w * stats.idf(term)
        if scaled != 0.0:
            weights[term] = scaled
    return DocVector(vec.doc_id, weights)


def dump_vectors(vectors, path) -> None:
    """One line per document: doc_id then term:weight pairs, 6 significant digits."""
    lines = []
    for vec in vectors:
        parts = [vec.doc_id]
        parts.extend(f"{term}:{w:.6g}" for term, w in sorted(vec.weights.items()))
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
