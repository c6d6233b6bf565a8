"""Repeated-bisections clustering on cosine similarity, weighted F1 scoring,
and stratified corpus subsampling.

The clustering mirrors a k-way repeated-bisections scheme: split the least
cohesive cluster with 2-means (10 seeded restarts, cosine similarity), keep
the split maximizing the sum of cluster-vector-sum norms, and finish with a
single global pass of single-document moves.  The restarts run side by side,
so each 2-means round is two matrix products over the cluster's rows, and
the final pass scores all k candidate clusters of a document at once.

A clustering holds two dense (n, d) arrays at most: the doc-term matrix and
its row-normalized copy.  Row norms are taken in blocks of rows and the
first split works on the normalized matrix itself, so no other array of
that size is made, and a run's peak memory does not depend on where the
allocator puts such copies.

The pipeline hands `cluster_matrix` the matrix `reduction.project_rows`
writes; `repeated_bisections` takes DocVectors and lays them out with
`build_matrix` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CategoryTooSmall, InsufficientDocs
from .ingest import CorpusManifest
from .weighting import DocVector, pack_vectors

_RESTARTS = 10
_MAX_ITER = 100
_MOVE_TOL = 1e-10
# Rows per np.linalg.norm call in _row_norms.
_NORM_ROWS = 64


@dataclass(frozen=True)
class Clustering:
    """Document-to-cluster assignment.

    k counts the cluster ids in use, including the extra leftover cluster
    that absorbs zero-weight documents when any exist; those doc_ids are
    listed in `leftover`.
    """

    assignment: dict[str, int]
    k: int
    leftover: frozenset[str] = frozenset()

    def members(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for doc_id, cid in self.assignment.items():
            out.setdefault(cid, set()).add(doc_id)
        return out


@dataclass(frozen=True)
class CategoryScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class F1Report:
    per_category: dict[str, CategoryScore]
    overall: float


def build_matrix(vectors: Sequence[DocVector]) -> tuple[np.ndarray, list[str]]:
    """Dense doc-term matrix over the union vocabulary (sorted for determinism)."""
    rows, vocab = pack_vectors(vectors)
    return rows.to_dense(), vocab


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=1), bit for bit, _NORM_ROWS rows at a time:
    the squares it sums never fill an array the size of X."""
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _NORM_ROWS):
        block = slice(start, start + _NORM_ROWS)
        out[block] = np.linalg.norm(X[block], axis=1)
    return out


def clustering_criterion(X: np.ndarray, labels: np.ndarray) -> float:
    """Sum over clusters of the norm of the cluster's vector sum."""
    total = 0.0
    for cid in np.unique(labels):
        total += float(np.linalg.norm(X[labels == cid].sum(axis=0)))
    return total


def _bisect(Xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split rows of Xs (L2-normalized) in two; returns a boolean side mask.

    The restarts run side by side: C[r] holds restart r's two centroids, and
    one 2-means round of every restart still moving costs one product for
    the similarities and one for the side sums.
    """
    m, d = Xs.shape
    seeds = np.array([rng.choice(m, size=2, replace=False) for _ in range(_RESTARTS)])
    C = Xs[seeds]
    sides = np.zeros((_RESTARTS, m), dtype=bool)
    scores = np.empty(_RESTARTS)
    active = np.arange(_RESTARTS)
    for _ in range(_MAX_ITER):
        S = Xs @ C[active].reshape(-1, d).T
        s0, s1 = S[:, 0::2].T, S[:, 1::2].T
        new_sides = s1 > s0
        diff = s0 - s1
        full = np.flatnonzero(new_sides.all(axis=1))
        empty = np.flatnonzero(~new_sides.any(axis=1))
        new_sides[full, diff[full].argmax(axis=1)] = False
        new_sides[empty, diff[empty].argmin(axis=1)] = True
        moved = (new_sides != sides[active]).any(axis=1)
        active, new_sides = active[moved], new_sides[moved]
        if active.size == 0:
            break
        sides[active] = new_sides
        ind = np.stack([~new_sides, new_sides], axis=1).reshape(-1, m)
        V = (ind.astype(np.float64) @ Xs).reshape(-1, 2, d)
        norms = np.linalg.norm(V, axis=2)
        scores[active] = norms[:, 0] + norms[:, 1]
        # a side whose rows sum to zero takes row 0 (c0) or row m-1 (c1)
        nonzero = (norms > 0)[..., None]
        unit = V / np.where(nonzero, norms[..., None], 1.0)
        C[active] = np.where(nonzero, unit, Xs[[0, -1]])
    best = 0
    for r in range(1, _RESTARTS):
        if scores[r] > scores[best] + 1e-12:
            best = r
    return sides[best]


def _refine(X: np.ndarray, labels: np.ndarray, k: int) -> None:
    """One pass of greedy single-document moves; never lowers the criterion.

    Each document scores every candidate cluster at once and moves to the
    first one of largest gain, if that gain exceeds _MOVE_TOL.
    """
    sums = np.stack([X[labels == c].sum(axis=0) for c in range(k)])
    norms = np.linalg.norm(sums, axis=1)
    counts = np.bincount(labels, minlength=k)
    for i in range(X.shape[0]):
        a = int(labels[i])
        if counts[a] <= 1:
            continue
        va = sums[a] - X[i]
        na = float(np.linalg.norm(va))
        gained = sums + X[i]
        # each row's own dot product, as np.linalg.norm takes it of one
        # vector; norm(axis=1) sums the squares in another order
        nb = np.sqrt((gained[:, None] @ gained[..., None]).ravel())
        delta = na + nb - norms[a] - norms
        delta[a] = -math.inf
        b = int(np.argmax(delta))
        if delta[b] > _MOVE_TOL:
            labels[i] = b
            sums[a] = va
            norms[a] = na
            sums[b] = gained[b]
            norms[b] = nb[b]
            counts[a] -= 1
            counts[b] += 1


def _rows(Xn: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Xn[idx] for sorted row indices idx; Xn itself when idx takes every row."""
    return Xn if idx.size == Xn.shape[0] else Xn[idx]


def bisect_labels(X: np.ndarray, k: int, seed) -> np.ndarray:
    """Cluster rows of X (unnormalized ok, no zero rows) into k clusters."""
    n = X.shape[0]
    if n < k:
        raise InsufficientDocs(f"{n} documents cannot fill {k} clusters")
    norms = _row_norms(X)
    if (norms == 0).any():
        raise ValueError("zero rows must be diverted before clustering")
    Xn = X / norms[:, None]
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    for next_id in range(1, k):
        # least cohesive first: maximize size * (1 - ||sum|| / size)
        best_cid = -1
        best_score = -math.inf
        for cid in range(next_id):
            idx = np.flatnonzero(labels == cid)
            if idx.size < 2:
                continue
            score = idx.size - float(np.linalg.norm(_rows(Xn, idx).sum(axis=0)))
            if score > best_score + 1e-12:
                best_score = score
                best_cid = cid
        idx = np.flatnonzero(labels == best_cid)
        side = _bisect(_rows(Xn, idx), rng)
        labels[idx[side]] = next_id
    if k > 1:
        _refine(Xn, labels, k)
    return labels


def repeated_bisections(vectors: Sequence[DocVector], k: int, seed) -> Clustering:
    """Cluster documents into k groups; zero vectors land in an extra
    leftover cluster so every document stays assigned."""
    X, _ = build_matrix(vectors)
    return cluster_matrix(X, [vec.doc_id for vec in vectors], k, seed)


def cluster_matrix(X: np.ndarray, doc_ids: Sequence[str], k: int, seed) -> Clustering:
    """repeated_bisections on the doc-term matrix X, row i being doc_ids[i]."""
    if k < 1:
        raise ValueError("k must be at least 1")
    norms = _row_norms(X)
    nonzero = np.flatnonzero(norms > 0)
    if nonzero.size < k:
        raise InsufficientDocs(
            f"only {nonzero.size} non-zero documents for k={k}"
        )
    if nonzero.size < X.shape[0]:
        X = X[nonzero]
    labels = bisect_labels(X, k, seed)
    assignment: dict[str, int] = {}
    leftover = []
    pos = {int(row): lab for row, lab in zip(nonzero, labels)}
    for row, doc_id in enumerate(doc_ids):
        if row in pos:
            assignment[doc_id] = int(pos[row])
        else:
            assignment[doc_id] = k
            leftover.append(doc_id)
    return Clustering(assignment, k + 1 if leftover else k, frozenset(leftover))


def weighted_f1(clustering: Clustering, labels: Mapping[str, str]) -> F1Report:
    """Best-matching-cluster F1 per category, support-weighted overall.

    Clusters may serve several categories; 0/0 ratios count as 0.
    """
    missing = set(clustering.assignment) - set(labels)
    if missing:
        raise ValueError(f"labels missing for {len(missing)} documents")
    members = clustering.members()
    by_category: dict[str, set[str]] = {}
    for doc_id in clustering.assignment:
        by_category.setdefault(labels[doc_id], set()).add(doc_id)
    n = len(clustering.assignment)
    per_category: dict[str, CategoryScore] = {}
    overall = 0.0
    for cat in sorted(by_category):
        docs = by_category[cat]
        best = CategoryScore(0.0, 0.0, 0.0, len(docs))
        for cid in sorted(members):
            cluster = members[cid]
            hit = len(docs & cluster)
            precision = hit / len(cluster) if cluster else 0.0
            recall = hit / len(docs) if docs else 0.0
            f1 = (
                2.0 * precision * recall / (precision + recall)
                if precision + recall > 0
                else 0.0
            )
            if f1 > best.f1:
                best = CategoryScore(precision, recall, f1, len(docs))
        per_category[cat] = best
        overall += best.f1 * len(docs) / n
    return F1Report(per_category, overall)


def stratified_subsample(
    manifest: CorpusManifest, fraction: float = 0.5, n: int = 100, seed=0
) -> list[CorpusManifest]:
    """n fractionally sized sub-corpora preserving category proportions.

    Each sub-manifest draws ceil(fraction * |c|) documents per category
    without replacement, independently across sub-manifests, reproducibly
    from the seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    by_category: dict[str, list[int]] = {}
    for i, entry in enumerate(manifest.entries):
        by_category.setdefault(entry.category, []).append(i)
    for cat, idxs in by_category.items():
        if len(idxs) < 2:
            raise CategoryTooSmall(f"category {cat!r} has {len(idxs)} document(s)")
    out = []
    for child in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(child)
        chosen: set[int] = set()
        for cat in manifest.categories():
            idxs = by_category[cat]
            take = math.ceil(fraction * len(idxs))
            picks = rng.choice(len(idxs), size=take, replace=False)
            chosen.update(idxs[int(p)] for p in picks)
        entries = tuple(e for i, e in enumerate(manifest.entries) if i in chosen)
        out.append(CorpusManifest(entries, manifest.anchors_dir))
    return out
