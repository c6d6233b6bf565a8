"""Repeated-bisections clustering on cosine similarity, weighted F1 scoring,
and stratified corpus subsampling.

The clustering mirrors a k-way repeated-bisections scheme: split the least
cohesive cluster with 2-means (10 seeded restarts, cosine similarity), keep
the split maximizing the sum of cluster-vector-sum norms, and finish with a
single global pass of single-document moves.  The restarts run side by side,
so each 2-means round is one sweep over the cluster's rows, and the final
pass scores all k candidate clusters of a document at once.

On matrices of a few hundred rows the work around those products costs
more than the products, so it is kept small.  Each cluster keeps its rows
as one block of the matrix beside its cohesion score, and a split rescores
only the two clusters it leaves; the last split rescores none.  A split
draws its ten restarts' seed pairs straight from the bounded draws, equal
in values and generator state to one rng.choice(m, 2, replace=False) per
restart.  A 2-means round finds the sides from products with c0 - c1,
fixes up one-sided splits only when there are any, and sums side 1 only:
side 0's sum is the block's column sum minus side 1's.  It takes both
products _BLOCK_ROWS rows at a time, each block's sides and side-1 sum
while the block is in cache, and sums the last block only for the
restarts still moving.  The refine pass estimates every document's best
gain from one product with the cluster sums and runs the exact
per-document step only where the estimate, within a proven rounding
bound, allows a move; on well separated clusters it runs for no document.
Norms are taken with the formulas np.linalg.norm uses, without its wrapper.

The labels rest on ties and margins, not on the products' last bits.  A
row with diff = (c0 - c1) . x of 0.0 or -0.0 (on non-negative rows, one
sharing no nonzero column with c0 or c1) stays on side 0, as s1 > s0 left
it, and a restart must beat the best score by more than 1e-12.  Over the
benchmark workloads at corpus seeds 0-9, the chosen restart's last round
had no |diff| in (0, 2.8e-8).  Its diff was within 3.7e-15 of an unblocked
round's, which was within 5.3e-15 of the s0 - s1 of separate similarity
products, and every exact best gain of the refine pass was at least 9e-7
from _MOVE_TOL.  The test oracles pin this arithmetic bit for bit.  The
draws come from `_draws`, which reproduces numpy.random's SeedSequence,
PCG64 and bounded draws bit for bit without loading numpy.random; the
oracles draw with numpy.random.

A clustering holds one dense (n, d) array: the doc-term matrix, whose
rows `cluster_matrix` and `bisect_labels` scale to unit length in place.
A matrix with zero rows is first copied without them, and the copy is
scaled.  Each cluster is a contiguous block of the matrix's rows, in
ascending original order, so a split and a cohesion score read a view
equal in values, shape and layout to the copy of the cluster's rows the
oracles take.  After a split, `_permute` puts side 0's rows before side
1's, each side in the order it had, so both are such blocks; before the
refine pass it puts every row back in its original order.  It moves the
rows in place along the permutation's cycles, holding one row aside.  Row
norms are taken in blocks of rows, so no other array of X's size is made,
and a run's peak memory does not depend on where the allocator puts such
copies.

The pipeline hands `cluster_matrix` the matrix `reduction.project_rows`
writes, which it does not read again, and gets one cluster label per row
back, label k marking the rows with no weight.  `weighted_f1` scores such
labels against a per-row list of categories, and `stratified_subsample`
draws sub-corpora as ascending row indices.

`repeated_bisections` and `build_matrix` are an older form over lists of
`weighting.DocVector` that no run path calls.  They stay only because the
benchmark tracer still wraps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._draws import PCG64, SeedSequence, seed_sequence
from .errors import CategoryTooSmall, InsufficientDocs
from .weighting import DocVector, pack_vectors

_RESTARTS = 10
_MAX_ITER = 100
_MOVE_TOL = 1e-10
_UNIT_ROUNDOFF = 2.0**-53
# Rows per block of squares in _row_norms, of the 2-means round's sweep in
# _bisect and of estimated gains in _refine.
_BLOCK_ROWS = 64


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
    """np.linalg.norm(X, axis=1), bit for bit, _BLOCK_ROWS rows at a time:
    the squares it sums never fill an array the size of X."""
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        block = X[start : start + _BLOCK_ROWS]
        out[start : start + _BLOCK_ROWS] = np.sqrt(np.add.reduce(block * block, axis=1))
    return out


def _seed_pairs(m: int, rng: PCG64) -> np.ndarray:
    """The restarts' seed rows, one pair per row: the values and generator
    state of one rng.choice(m, size=2, replace=False) per restart.  choice
    draws in 0..m-2 and then in 0..m-1 (Floyd's algorithm: a repeat becomes
    m-1), then once in 0..1, swapping the pair on 0."""
    pairs = []
    for _ in range(_RESTARTS):
        first = rng.bounded(m - 2)
        second = rng.bounded(m - 1)
        if second == first:
            second = m - 1
        pairs.append((second, first) if rng.bounded(1) == 0 else (first, second))
    return np.array(pairs, dtype=np.int64)


def _bisect(Xs: np.ndarray, rng: PCG64) -> np.ndarray:
    """Split rows of Xs (L2-normalized) in two; returns a boolean side mask.

    The restarts run side by side.  A row x goes to side 1 where
    diff = (c0 - c1) . x < 0, so a tie stays on 0, and only the side-1
    sums V1 are taken: the side-0 sums are the column sum minus V1.  A
    2-means round of the restarts still moving sweeps the rows once,
    _BLOCK_ROWS at a time, and takes each block's diff product, its sides
    and its share of V1 while the block is in cache.  The last block is
    summed only after the fix-ups and the convergence test, so a restart
    that stopped is never summed there, and a split of at most _BLOCK_ROWS
    rows takes diff and V1 from one product each.  A full or empty side's
    fix-up may fall in a block already summed, so a restart fixed up in a
    longer split sums the rows before the last block again, in one product.
    """
    m, d = Xs.shape
    seeds = _seed_pairs(m, rng)
    last = (m - 1) // _BLOCK_ROWS * _BLOCK_ROWS  # where the last block starts
    tail = Xs[last:]
    # D and prev hold c0 - c1 and the sides of the restarts still moving,
    # active their numbers; sides and scores keep every restart's latest;
    # ind takes the side-1 indicators and head their sums over the blocks
    # before the last
    D = Xs[seeds[:, 0]] - Xs[seeds[:, 1]]
    total = Xs.sum(axis=0)
    sides = np.zeros((_RESTARTS, m), dtype=bool)
    scores = np.empty(_RESTARTS)
    ind = np.empty((_RESTARTS, m))
    active = np.arange(_RESTARTS)
    prev = sides
    for _ in range(_MAX_ITER):
        diff = np.empty((active.size, m))
        if last:
            a = active.size
            head = np.zeros((a, d))
            for start in range(0, last, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                np.matmul(D, Xs[block].T, out=diff[:, block])
                np.less(diff[:, block], 0, out=ind[:a, block])
                head += ind[:a, block] @ Xs[block]
        np.matmul(D, tail.T, out=diff[:, last:])
        new_sides = diff < 0  # s1 > s0
        on_side1 = new_sides.sum(axis=1)
        if on_side1.min() == 0 or on_side1.max() == m:
            full = np.flatnonzero(on_side1 == m)
            empty = np.flatnonzero(on_side1 == 0)
            new_sides[full, diff[full].argmax(axis=1)] = False
            new_sides[empty, diff[empty].argmin(axis=1)] = True
            if last:
                # a fix-up may fall in a block already summed
                fixed = np.concatenate((full, empty))
                head[fixed] = new_sides[fixed, :last] @ Xs[:last]
        moved = (new_sides != prev).any(axis=1)
        if not moved.all():
            active, new_sides = active[moved], new_sides[moved]
            if active.size == 0:
                break
        sides[active] = prev = new_sides
        ind[: active.size, last:] = new_sides[:, last:]
        V1 = ind[: active.size, last:] @ tail
        if last:
            V1 += head[moved]
        V0 = total - V1
        n0 = np.sqrt(np.add.reduce(V0 * V0, axis=1))[:, None]
        n1 = np.sqrt(np.add.reduce(V1 * V1, axis=1))[:, None]
        scores[active] = (n0 + n1)[:, 0]
        if n0.all() and n1.all():
            D = np.divide(V0, n0, out=V0)
            D -= np.divide(V1, n1, out=V1)
        else:
            # a side whose rows sum to zero takes row 0 (c0) or row m-1 (c1)
            c0 = np.where(n0 > 0, V0 / np.where(n0 > 0, n0, 1.0), Xs[0])
            D = c0 - np.where(n1 > 0, V1 / np.where(n1 > 0, n1, 1.0), Xs[-1])
    best = 0
    for r in range(1, _RESTARTS):
        if scores[r] > scores[best] + 1e-12:
            best = r
    return sides[best]


def _refine(X: np.ndarray, labels: np.ndarray, k: int) -> None:
    """One pass of greedy single-document moves; never lowers the criterion.

    In row order, each document scores every candidate cluster at once and
    moves to the first one of largest gain, if that gain exceeds _MOVE_TOL
    (`_move`, the exact step).  Most documents cannot move, so the exact
    step runs only for documents whose estimated best gain exceeds -tau.

    The estimate takes G = X @ sums.T for _BLOCK_ROWS rows at a time: with
    N_c the stored norm of cluster c's sum s_c and x a row of cluster a, a
    move's norms are sqrt(N_a^2 - 2 G_a + |x|^2) and
    sqrt(N_c^2 + 2 G_c + |x|^2), its gain their sum minus N_a + N_c.  After
    a move, the two changed columns of G are taken again for the block's
    rows after the moved one.  No array the size of X is made.

    Why tau suffices, to first order in u = 2^-53, with
    gamma = d u / (1 - d u) for rows of d entries, N = max N_c and
    R = max |x|.  A dot product of d terms, summed in any order, is off by
    at most gamma times the sum of the absolute products.  So every stored
    N_c is |s_c| (1 + e) with |e| <= gamma/2 + 2u, N_c^2 is off by at most
    (gamma + 5u) N_c^2, G_c by gamma |x| N_c and |x|^2 by
    (gamma + 3u) |x|^2; with the two additions, an estimated radicand is
    off by at most e = (gamma + 8u) (N + R)^2 from the squared norm it
    stands for.  Clamped at 0, rooted and rounded, it is off by at most
    sqrt(e) + u (N + R), because |sqrt(p) - sqrt(q)| <= sqrt(|p - q|) for
    p, q >= 0.  The exact step's norms are off by at most
    (gamma + 3u) (N + R), and each gain, exact or estimated, adds three
    roundings of at most 4u (N + R).  In all, |estimate - exact gain| <=
    2 sqrt(gamma + 8u) (N + R) + (2 gamma + 32u) (N + R), which is at most
    3 sqrt(gamma + 8u) (N + R) while gamma + 8u <= 1/16.
    tau = 16 sqrt(gamma + 8u) (N + R) is more than 5 times that, so a
    document whose estimated best gain is at most -tau has every exact
    gain below -tau/2 < _MOVE_TOL: the exact step would leave it where it
    is.
    """
    n, d = X.shape
    # added in row order, as an axis-0 sum adds them, without copying rows
    sums = np.zeros((k, d))
    for i, c in enumerate(labels.tolist()):
        sums[c] += X[i]
    norms = np.sqrt(np.add.reduce(sums * sums, axis=1))
    counts = np.bincount(labels, minlength=k).tolist()
    gained = np.empty_like(sums)
    xx = _row_norms(X) ** 2
    gamma = d * _UNIT_ROUNDOFF / (1 - d * _UNIT_ROUNDOFF)
    slack = 16 * math.sqrt(gamma + 8 * _UNIT_ROUNDOFF)
    x_max = math.sqrt(xx.max(initial=0.0))
    for block in range(0, n, _BLOCK_ROWS):
        stop = min(block + _BLOCK_ROWS, n)
        G = X[block:stop] @ sums.T
        start = block
        while start < stop:
            tau = slack * (float(norms.max()) + x_max)
            gain = _estimated_gains(G[start - block :], labels[start:stop], norms, xx[start:stop])
            for i in (np.flatnonzero(gain > -tau) + start).tolist():
                a = _move(X, i, labels, sums, norms, counts, gained)
                if a >= 0:
                    changed = [a, int(labels[i])]
                    G[i + 1 - block :, changed] = X[i + 1 : stop] @ sums[changed].T
                    start = i + 1
                    break
            else:
                break


def _estimated_gains(
    G: np.ndarray, labels: np.ndarray, norms: np.ndarray, xx: np.ndarray
) -> np.ndarray:
    """Each row's estimated best gain from a move to another cluster, from
    its products G with the cluster sums and its squared norm xx."""
    rows = np.arange(labels.size)
    own = norms[labels]
    squares = norms * norms
    leave = np.sqrt(np.maximum(squares[labels] - 2 * G[rows, labels] + xx, 0.0)) - own
    join = np.sqrt(np.maximum(squares + 2 * G + xx[:, None], 0.0)) - norms
    join[rows, labels] = -math.inf
    return leave + join.max(axis=1)


def _move(X, i, labels, sums, norms, counts, gained) -> int:
    """The exact step of `_refine` for document i: move it to the first
    cluster of largest gain if that gain exceeds _MOVE_TOL, updating the
    labels, sums, norms and counts.  Returns the cluster it left, or -1."""
    a = int(labels[i])
    if counts[a] <= 1:
        return -1
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
        return a
    return -1


def _cohesion(block: np.ndarray) -> float:
    """How far the rows of block are from one direction: their number minus
    the norm of their sum, or -inf for a cluster too small to split."""
    if block.shape[0] < 2:
        return -math.inf
    v = block.sum(axis=0)
    return block.shape[0] - math.sqrt(v.dot(v))


def _permute(X: np.ndarray, source: list[int]) -> None:
    """Make row p of X the row source[p] was, in place, one cycle of the
    permutation at a time, holding one row aside.  Overwrites source."""
    for i in range(len(source)):
        if source[i] == i:
            continue
        held = X[i].copy()
        j = i
        while source[j] != i:
            X[j] = X[source[j]]
            source[j], j = j, source[j]
        X[j] = held
        source[j] = j


def bisect_labels(X: np.ndarray, k: int, seed) -> np.ndarray:
    """Cluster rows of X (unnormalized ok, no zero rows) into k clusters.

    A writeable, C-contiguous float64 X is overwritten: its rows are
    scaled to unit length in place, and left in their order.  Pass a copy
    to keep X.  Any other X, an F-order one too, is first copied to such
    an array, and the copy is scaled.

    seed is a non-negative integer (numpy integers too), a
    `_draws.SeedSequence`, or a numpy.random.SeedSequence of pool size 4;
    the draws equal numpy.random.default_rng(seed)'s.  A negative integer
    raises ValueError and any other seed TypeError, before X is touched.
    """
    rng = PCG64(seed_sequence(seed))
    if k < 1:
        raise ValueError("k must be at least 1")
    n = X.shape[0]
    if n < k:
        raise InsufficientDocs(f"{n} documents cannot fill {k} clusters")
    norms = _row_norms(X)
    if (norms == 0).any():
        raise ValueError("zero rows must be diverted before clustering")
    # the norms come from X as given, so a float32 or integer X scales as
    # X / norms[:, None] would scale it
    X = np.require(X, np.float64, ("W", "C"))
    Xn = np.divide(X, norms[:, None], out=X)
    labels = np.zeros(n, dtype=np.int64)
    # each cluster is the block Xn[start:stop] of its rows in ascending
    # original order, as Xn[members] would copy them; rows[p] is the
    # original index of row p
    rows = np.arange(n)
    blocks = [(0, n)]
    cohesion = [_cohesion(Xn)]
    for next_id in range(1, k):
        # least cohesive first: maximize size * (1 - ||sum|| / size)
        best_cid = 0
        for cid in range(1, next_id):
            if cohesion[cid] > cohesion[best_cid] + 1e-12:
                best_cid = cid
        start, stop = blocks[best_cid]
        side = _bisect(Xn[start:stop], rng)
        labels[rows[start:stop][side]] = next_id
        if next_id == k - 1:
            break  # no later step reads the blocks or the scores
        # side 0 then side 1, each in the order it had
        order = np.argsort(side, kind="stable")
        _permute(Xn[start:stop], order.tolist())
        rows[start:stop] = rows[start:stop][order]
        mid = stop - int(np.count_nonzero(side))
        blocks[best_cid] = (start, mid)
        blocks.append((mid, stop))
        cohesion[best_cid] = _cohesion(Xn[start:mid])
        cohesion.append(_cohesion(Xn[mid:stop]))
    if k > 1:
        _permute(Xn, np.argsort(rows).tolist())  # back to the original order
        _refine(Xn, labels, k)
    return labels


def repeated_bisections(vectors: Sequence[DocVector], k: int, seed) -> np.ndarray:
    """cluster_matrix on the vectors' matrix: label i is vectors[i]'s."""
    X, _ = build_matrix(vectors)
    return cluster_matrix(X, k, seed)


def cluster_matrix(X: np.ndarray, k: int, seed) -> np.ndarray:
    """Cluster the rows of the doc-term matrix X into k groups: one label
    per row, and rows with no weight take the extra leftover label k, so
    every document stays assigned.  seed is one of the kinds
    `bisect_labels` takes.

    A writeable, C-contiguous float64 X is overwritten, its rows scaled to
    unit length in place and left in their order, unless it has zero rows:
    then a copy of its other rows is scaled, and X is left as it is.  Any
    other X, an F-order one too, is left as it is.  Pass a copy to keep X.
    """
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
    for child in SeedSequence(seed).spawn(n):
        rng = PCG64(child)
        picks = [rows[rng.choice(rows.size, math.ceil(fraction * rows.size))] for rows in groups]
        out.append(np.sort(np.concatenate(picks)))
    return out
