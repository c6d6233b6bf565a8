"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from first principles (closed-form
integrals, brute-force searches, the plain loops that vectorized package code
replaced) rather than by calling the package, so the tests compare two
separate derivations.
"""

import itertools
import math

import numpy as np

# The repeated-bisections constants: 10 seeded restarts, at most 100 2-means
# rounds each, and the smallest criterion gain that moves a document.
_RESTARTS = 10
_MAX_ITER = 100
_MOVE_TOL = 1e-10


def trapezoid_membership(x, a, b, c, d):
    if x < a or x > d:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    if x <= c:
        return 1.0
    if x < d:
        return (d - x) / (d - c)
    return 0.0


def trapezoid_moments(a, b, c, d):
    """Exact area and first moment of the trapezoid membership function.

    Rising ramp over [a,b]: area (b-a)/2, first moment (b-a)(a+2b)/6.
    Plateau over [b,c]: area (c-b), first moment (c^2-b^2)/2.
    Falling ramp over [c,d]: area (d-c)/2, first moment (d-c)(d+2c)/6.
    """
    area = (c - b) + 0.5 * ((b - a) + (d - c))
    m1 = (c * c - b * b) / 2.0
    if b > a:
        m1 += (b - a) * (a + 2.0 * b) / 6.0
    if d > c:
        m1 += (d - c) * (d + 2.0 * c) / 6.0
    return area, m1


def centroid_of_mixture(contributions):
    """Centroid of sum_i degree_i * trapezoid_i.

    contributions: iterable of (degree, (a, b, c, d)) with at least one
    positive degree.
    """
    num = 0.0
    den = 0.0
    for degree, params in contributions:
        area, m1 = trapezoid_moments(*params)
        num += degree * m1
        den += degree * area
    if den == 0.0:
        raise ZeroDivisionError("empty mixture")
    return num / den


def mft_brute_force(weight_maps, k):
    """Reference most-frequent-terms selection over full rank tables.

    weight_maps: list of {term: weight} dicts, one per document.
    """
    rankings = []
    for weights in weight_maps:
        ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        rankings.append(ordered)
    max_rank = max((len(r) for r in rankings), default=0)
    selected = []
    chosen = set()
    for rank in range(max_rank):
        table = {}
        for ranking in rankings:
            if rank < len(ranking):
                term, weight = ranking[rank]
                if term in table:
                    count, best = table[term]
                    table[term] = (count + 1, max(best, weight))
                else:
                    table[term] = (1, weight)
        batch = sorted(
            (term for term in table if term not in chosen),
            key=lambda t: (-table[t][0], -table[t][1], t),
        )
        for term in batch:
            selected.append(term)
            chosen.add(term)
        if len(selected) >= k:
            break
    return selected[:k]


def all_k_partitions(items, k):
    """Yield every partition of items into exactly k non-empty blocks."""
    items = list(items)
    n = len(items)
    if k < 1 or k > n:
        return
    for assignment in itertools.product(range(k), repeat=n):
        # canonical form: block labels appear in first-seen order, all used
        seen = []
        ok = True
        for a in assignment:
            if a not in seen:
                if a != len(seen):
                    ok = False
                    break
                seen.append(a)
        if ok and len(seen) == k:
            yield assignment


def best_partition_criterion(rows, k):
    """Exhaustive maximum of the sum-of-cluster-sum-norms criterion.

    rows: list of equal-length numeric lists (assumed already normalized).
    """
    dim = len(rows[0])
    best = -math.inf
    for assignment in all_k_partitions(range(len(rows)), k):
        total = 0.0
        for block in range(k):
            acc = [0.0] * dim
            for i, a in enumerate(assignment):
                if a == block:
                    for j in range(dim):
                        acc[j] += rows[i][j]
            total += math.sqrt(sum(v * v for v in acc))
        if total > best:
            best = total
    return best


def tfidf_reference(tf, df, n_docs):
    return tf * math.log(n_docs / df)


def weighted_f1_reference(cluster_of, category_of):
    """Direct per-category best-match F1, support weighted."""
    clusters = {}
    for doc, cid in cluster_of.items():
        clusters.setdefault(cid, set()).add(doc)
    categories = {}
    for doc, cat in category_of.items():
        categories.setdefault(cat, set()).add(doc)
    n = len(category_of)
    overall = 0.0
    for cat, docs in categories.items():
        best = 0.0
        for members in clusters.values():
            hit = len(docs & members)
            p = hit / len(members) if members else 0.0
            r = hit / len(docs) if docs else 0.0
            f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
            best = max(best, f1)
        overall += best * len(docs) / n
    return overall


def bisect_reference(Xs, rng):
    """Restart-by-restart 2-means split: the loop `cluster._bisect` runs in
    lockstep.  Returns the boolean side mask of the best restart."""
    m = Xs.shape[0]
    best_side = None
    best_score = -math.inf
    for _ in range(_RESTARTS):
        i, j = rng.choice(m, size=2, replace=False)
        c0, c1 = Xs[i], Xs[j]
        side = np.zeros(m, dtype=bool)
        for _ in range(_MAX_ITER):
            s0 = Xs @ c0
            s1 = Xs @ c1
            new_side = s1 > s0
            if new_side.all():
                new_side[int(np.argmax(s0 - s1))] = False
            elif not new_side.any():
                new_side[int(np.argmin(s0 - s1))] = True
            if (new_side == side).all():
                break
            side = new_side
            v0 = Xs[~side].sum(axis=0)
            v1 = Xs[side].sum(axis=0)
            n0 = np.linalg.norm(v0)
            n1 = np.linalg.norm(v1)
            c0 = v0 / n0 if n0 > 0 else Xs[0]
            c1 = v1 / n1 if n1 > 0 else Xs[-1]
        score = float(
            np.linalg.norm(Xs[~side].sum(axis=0)) + np.linalg.norm(Xs[side].sum(axis=0))
        )
        if score > best_score + 1e-12:
            best_score = score
            best_side = side.copy()
    return best_side


def refine_reference(X, labels, k):
    """One pass of greedy single-document moves, scoring each candidate
    cluster in turn: the loop `cluster._refine` vectorizes."""
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, labels, X)
    norms = np.linalg.norm(sums, axis=1)
    counts = np.bincount(labels, minlength=k)
    for i in range(X.shape[0]):
        a = int(labels[i])
        if counts[a] <= 1:
            continue
        va = sums[a] - X[i]
        na = float(np.linalg.norm(va))
        best_b = -1
        best_delta = _MOVE_TOL
        best_nb = 0.0
        for b in range(k):
            if b == a:
                continue
            nb = float(np.linalg.norm(sums[b] + X[i]))
            delta = na + nb - norms[a] - norms[b]
            if delta > best_delta:
                best_delta = delta
                best_b = b
                best_nb = nb
        if best_b >= 0:
            labels[i] = best_b
            sums[a] = va
            norms[a] = na
            sums[best_b] += X[i]
            norms[best_b] = best_nb
            counts[a] -= 1
            counts[best_b] += 1


def bisect_labels_reference(X, k, seed):
    """Repeated bisections that norm the whole matrix at once and copy each
    cluster's rows before scoring or splitting it, with the loop references
    for the split and the refine pass: the steps `cluster.bisect_labels`
    takes without those copies."""
    n = X.shape[0]
    Xn = X / np.linalg.norm(X, axis=1)[:, None]
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    for next_id in range(1, k):
        best_cid = -1
        best_score = -math.inf
        for cid in range(next_id):
            idx = np.flatnonzero(labels == cid)
            if idx.size < 2:
                continue
            score = idx.size - float(np.linalg.norm(Xn[idx].sum(axis=0)))
            if score > best_score + 1e-12:
                best_score = score
                best_cid = cid
        idx = np.flatnonzero(labels == best_cid)
        side = bisect_reference(Xn[idx], rng)
        labels[idx[side]] = next_id
    if k > 1:
        refine_reference(Xn, labels, k)
    return labels
