"""Repeated-bisections clustering on cosine similarity, weighted F1 scoring,
and stratified corpus subsampling.

The clustering mirrors a k-way repeated-bisections scheme: split the least
cohesive cluster with 2-means (10 seeded restarts, cosine similarity), keep
the split maximizing the sum of cluster-vector-sum norms, and finish with a
single global pass of single-document moves.  The restarts run side by side,
so each 2-means round is two matrix products over the cluster's rows, and
the final pass scores all k candidate clusters of a document at once.

On matrices of a few hundred rows the work around those products costs
more than the products, so it is kept small.  Each cluster keeps its rows
as one ascending index array beside its cohesion score, and a split
rescores only the two clusters it leaves.  A 2-means round finds both sides
from one subtraction, fixes up one-sided splits only when there are any,
and writes its side indicators into one buffer made per split.  The refine
pass adds each document to the cluster sums in one reused buffer.  The
products, their operands' values, shapes and layouts, every comparison and
every generator draw stay those of the plain code kept as test oracles:
BLAS picks its summation order from the operands, so only the same
operands give bit-identical labels, and with them the same results.jsonl
and report.txt.

A clustering holds two dense (n, d) arrays at most: the doc-term matrix and
its row-normalized copy.  Row norms are taken in blocks of rows and the
first split works on the normalized matrix itself, so no other array of
that size is made, and a run's peak memory does not depend on where the
allocator puts such copies.

The pipeline hands `cluster_matrix` the matrix `reduction.project_rows`
writes and gets one cluster label per row back, label k marking the rows
with no weight.  `weighted_f1` scores such labels against a per-row list of
categories, and `stratified_subsample` draws sub-corpora as ascending row
indices.

`repeated_bisections` and `build_matrix` are an older form over lists of
`weighting.DocVector` that no run path calls.  They stay only because the
benchmark tracer still wraps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CategoryTooSmall, InsufficientDocs
from .weighting import DocVector, pack_vectors

_RESTARTS = 10
_MAX_ITER = 100
_MOVE_TOL = 1e-10
# Rows per np.linalg.norm call in _row_norms.
_NORM_ROWS = 64


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


def _bisect(Xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Split rows of Xs (L2-normalized) in two; returns a boolean side mask.

    The restarts run side by side, and one 2-means round of every restart
    still moving costs one product for the similarities and one for the
    side sums.
    """
    m, d = Xs.shape
    seeds = np.array([rng.choice(m, size=2, replace=False) for _ in range(_RESTARTS)])
    # C and prev hold the centroid pairs and sides of the restarts still
    # moving, active their numbers; sides and scores keep every restart's
    # latest, and ind takes the side indicators, rows ~side and side
    C = Xs[seeds]
    sides = np.zeros((_RESTARTS, m), dtype=bool)
    scores = np.empty(_RESTARTS)
    ind = np.empty((_RESTARTS, 2, m))
    active = np.arange(_RESTARTS)
    prev = sides
    for _ in range(_MAX_ITER):
        S = Xs @ C.reshape(-1, d).T
        diff = S[:, 0::2].T - S[:, 1::2].T
        new_sides = diff < 0  # s1 > s0
        on_side1 = new_sides.sum(axis=1)
        if on_side1.min() == 0 or on_side1.max() == m:
            full = np.flatnonzero(on_side1 == m)
            empty = np.flatnonzero(on_side1 == 0)
            new_sides[full, diff[full].argmax(axis=1)] = False
            new_sides[empty, diff[empty].argmin(axis=1)] = True
        moved = (new_sides != prev).any(axis=1)
        if not moved.all():
            active, new_sides = active[moved], new_sides[moved]
            if active.size == 0:
                break
        sides[active] = prev = new_sides
        a = active.size
        ind[:a, 0] = ~new_sides
        ind[:a, 1] = new_sides
        V = (ind[:a].reshape(-1, m) @ Xs).reshape(-1, 2, d)
        norms = np.linalg.norm(V, axis=2)
        scores[active] = norms[:, 0] + norms[:, 1]
        nonzero = norms > 0
        if nonzero.all():
            C = np.divide(V, norms[..., None], out=V)
        else:
            # a side whose rows sum to zero takes row 0 (c0) or row m-1 (c1)
            nonzero = nonzero[..., None]
            unit = V / np.where(nonzero, norms[..., None], 1.0)
            C = np.where(nonzero, unit, Xs[[0, -1]])
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
    counts = np.bincount(labels, minlength=k).tolist()
    gained = np.empty_like(sums)
    for i in range(X.shape[0]):
        a = int(labels[i])
        if counts[a] <= 1:
            continue
        x = X[i]
        va = sums[a] - x
        na = math.sqrt(va.dot(va))  # np.linalg.norm(va), bit for bit
        np.add(sums, x, out=gained)
        # each row's own dot product, as np.linalg.norm takes it of one
        # vector; norm(axis=1) sums the squares in another order
        nb = np.sqrt((gained[:, None] @ gained[..., None]).ravel())
        delta = na + nb - norms[a] - norms
        delta[a] = -math.inf
        b = int(delta.argmax())
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


def _cohesion(Xn: np.ndarray, idx: np.ndarray) -> float:
    """How far the rows idx (ascending) are from one direction: size minus
    the norm of their sum, or -inf for a cluster too small to split."""
    if idx.size < 2:
        return -math.inf
    return idx.size - float(np.linalg.norm(_rows(Xn, idx).sum(axis=0)))


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
    members = [np.arange(n)]  # each cluster's rows, ascending
    cohesion = [_cohesion(Xn, members[0])]
    for next_id in range(1, k):
        # least cohesive first: maximize size * (1 - ||sum|| / size)
        best_cid = 0
        for cid in range(1, next_id):
            if cohesion[cid] > cohesion[best_cid] + 1e-12:
                best_cid = cid
        idx = members[best_cid]
        side = _bisect(_rows(Xn, idx), rng)
        members[best_cid] = idx[~side]
        members.append(idx[side])
        labels[members[-1]] = next_id
        cohesion[best_cid] = _cohesion(Xn, members[best_cid])
        cohesion.append(_cohesion(Xn, members[-1]))
    if k > 1:
        _refine(Xn, labels, k)
    return labels


def repeated_bisections(vectors: Sequence[DocVector], k: int, seed) -> np.ndarray:
    """cluster_matrix on the vectors' matrix: label i is vectors[i]'s."""
    X, _ = build_matrix(vectors)
    return cluster_matrix(X, k, seed)


def cluster_matrix(X: np.ndarray, k: int, seed) -> np.ndarray:
    """Cluster the rows of the doc-term matrix X into k groups: one label
    per row, and rows with no weight take the extra leftover label k, so
    every document stays assigned."""
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
    labels = np.full(norms.size, k)
    labels[nonzero] = bisect_labels(X, k, seed)
    return labels


def weighted_f1(clusters: np.ndarray, categories: Sequence[str]) -> F1Report:
    """Best-matching-cluster F1 per category, support-weighted overall;
    clusters[i] and categories[i] are row i's cluster label (a non-negative
    integer) and category.

    Clusters may serve several categories; 0/0 ratios count as 0.  A
    category's best cluster is the first in label order of largest F1.
    """
    if clusters.shape != (len(categories),):
        raise ValueError(f"{clusters.size} cluster labels for {len(categories)} categories")
    index = {name: i for i, name in enumerate(sorted(set(categories)))}
    cat_ids = np.array([index[c] for c in categories], dtype=np.int64)
    width = int(clusters.max(initial=-1)) + 1
    hits = np.bincount(cat_ids * width + clusters, minlength=len(index) * width)
    hits = hits.reshape(len(index), width)
    hits = hits[:, hits.any(axis=0)]  # the clusters in use, in label order
    support = hits.sum(axis=1)
    precision = hits / hits.sum(axis=0)
    recall = hits / support[:, None]
    f1 = np.divide(
        2.0 * precision * recall,
        precision + recall,
        out=np.zeros(hits.shape),
        where=hits > 0,
    )
    per_category: dict[str, CategoryScore] = {}
    overall = 0.0
    for i, cat in enumerate(index):
        j = int(np.argmax(f1[i]))
        best = CategoryScore(*(float(v[i, j]) for v in (precision, recall, f1)), int(support[i]))
        per_category[cat] = best
        overall += best.f1 * best.support / len(categories)
    return F1Report(per_category, overall)


def stratified_subsample(
    categories: Sequence[str], fraction: float = 0.5, n: int = 100, seed=0
) -> list[np.ndarray]:
    """n fractionally sized sub-corpora preserving category proportions, each
    an ascending array of the rows it keeps; categories[i] is row i's.

    Each subset draws ceil(fraction * |c|) rows per category without
    replacement, category by category in first-seen order, independently
    across subsets, reproducibly from the seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    by_category: dict[str, list[int]] = {}
    for i, cat in enumerate(categories):
        by_category.setdefault(cat, []).append(i)
    for cat, idxs in by_category.items():
        if len(idxs) < 2:
            raise CategoryTooSmall(f"category {cat!r} has {len(idxs)} document(s)")
    groups = [np.array(idxs) for idxs in by_category.values()]
    out = []
    for child in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(child)
        picks = [
            rows[rng.choice(rows.size, size=math.ceil(fraction * rows.size), replace=False)]
            for rows in groups
        ]
        out.append(np.sort(np.concatenate(picks)))
    return out
