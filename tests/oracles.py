"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from first principles (closed-form
integrals, brute-force searches, the plain loops that vectorized package code
replaced) rather than by calling the package, so the tests compare two
separate derivations.
"""

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from fuzzterm.errors import EmptyDocument
from fuzzterm.ingest import (
    ANCHOR_VARIANTS,
    DEFAULT_ANCHOR_STOPWORDS,
    DEFAULT_EMPHASIS_TAGS,
    DEFAULT_TOKENIZER,
    MAX_ANCHORS,
    TokenizerOptions,
    _TextExtractor,
    decode_text,
    strip_suffix,
)

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


def weigh_fuzzy_reference(criteria, kb):
    """One document's fuzzy weights, as the per-document weighing computed
    them: one auxiliary batch over the document's positions, a per-term max,
    one main batch over its terms; exact zeros dropped.  Only the two
    inference calls come from the package."""
    terms = list(criteria)
    if not terms:
        return {}
    flat = np.array([p for t in terms for p in criteria[t].positions])
    scores = kb.aux_system().infer_batch(flat.reshape(-1, 1))
    gpos = []
    start = 0
    for t in terms:
        stop = start + len(criteria[t].positions)
        gpos.append(max(scores[start:stop]))
        start = stop
    X = np.array(
        [
            [criteria[t].freq_norm, criteria[t].title_norm, criteria[t].emph_norm, g]
            for t, g in zip(terms, gpos)
        ]
    )
    out = kb.system().infer_batch(X)
    return {t: float(w) for t, w in zip(terms, out) if w != 0.0}


def mft_order_reference(weight_maps):
    """Full most-frequent-terms ordering from per-rank tallies, the dict
    loop the array ranking replaced.  weight_maps: {term: weight} dicts."""
    tallies = []
    for weights in weight_maps:
        ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        if len(tallies) < len(ranked):
            tallies.extend({} for _ in range(len(ranked) - len(tallies)))
        for rank, (term, w) in enumerate(ranked):
            slot = tallies[rank].get(term)
            if slot is None:
                tallies[rank][term] = [1, w]
            else:
                slot[0] += 1
                if w > slot[1]:
                    slot[1] = w
    order = []
    seen = set()
    for tally in tallies:
        batch = [
            (term, count, max_w)
            for term, (count, max_w) in tally.items()
            if term not in seen
        ]
        batch.sort(key=lambda x: (-x[1], -x[2], x[0]))
        for term, _, _ in batch:
            order.append(term)
            seen.add(term)
    return order


def projected_matrix_reference(weight_maps, features):
    """Dense doc-term matrix of the weight maps restricted to the features:
    columns are the sorted union of the terms left, one row per map."""
    keep = set(features)
    projected = [{t: w for t, w in m.items() if t in keep} for m in weight_maps]
    terms = sorted({t for m in projected for t in m})
    index = {t: i for i, t in enumerate(terms)}
    X = np.zeros((len(projected), len(terms)), dtype=np.float64)
    for row, m in enumerate(projected):
        for t, w in m.items():
            X[row, index[t]] = w
    return X, terms


# ---------------------------------------------------------------------------
# The offset-carrying tokenizer that the list-based `ingest.tokenize` and
# `ingest.parse_html` replaced, kept as it was: a per-token generator, a
# frozen token with its character offset in the extracted text, and anchor
# tokens numbered past the last one.  HTML text extraction, decoding and
# suffix stripping come from the package unchanged.

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class OffsetToken:
    term: str
    offset: int
    in_title: bool = False
    in_emphasis: bool = False
    in_link: bool = False


def iter_tokens_reference(text: str, options: TokenizerOptions = DEFAULT_TOKENIZER) -> Iterator[tuple[str, int]]:
    """Yield (term, char offset) pairs after the filtering pipeline."""
    for m in _TOKEN_RE.finditer(text.lower()):
        tok = m.group()
        if len(tok) < options.min_length:
            continue
        if options.drop_digits and tok.isdigit():
            continue
        if tok in options.stopwords:
            continue
        if options.stem:
            tok = strip_suffix(tok)
        yield tok, m.start()


def tokenize_reference(text: str, options: TokenizerOptions = DEFAULT_TOKENIZER) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, filter, optionally stem."""
    return [term for term, _ in iter_tokens_reference(text, options)]


def parse_html_reference(
    raw,
    emphasis_tags: Iterable[str] | None = None,
    options: TokenizerOptions = DEFAULT_TOKENIZER,
) -> list[OffsetToken]:
    """Extract flagged tokens from an HTML document (bytes or str).

    Script/style/comment content is dropped; emphasis means any enclosing
    tag sits in emphasis_tags, nesting collapsed to a single boolean.
    Offsets index into the concatenated extracted text, so they increase
    strictly in document order.
    """
    text = raw if isinstance(raw, str) else decode_text(raw)
    tags = (
        DEFAULT_EMPHASIS_TAGS
        if emphasis_tags is None
        else frozenset(t.lower() for t in emphasis_tags)
    )
    extractor = _TextExtractor(tags)
    extractor.feed(text)
    extractor.close()
    tokens: list[OffsetToken] = []
    base = 0
    for segment, in_title, in_emph, in_link in extractor.segments:
        for term, start in iter_tokens_reference(segment, options):
            tokens.append(OffsetToken(term, base + start, in_title, in_emph, in_link))
        base += len(segment) + 1
    if not tokens:
        raise EmptyDocument("document yields no tokens after filtering")
    return tokens


def apply_anchor_variant_reference(
    doc_stream: list[OffsetToken],
    anchor_texts: list[str] | None,
    variant: str,
    options: TokenizerOptions = DEFAULT_TOKENIZER,
    anchor_stopwords: frozenset[str] = DEFAULT_ANCHOR_STOPWORDS,
) -> list[OffsetToken]:
    """Merge a document's incoming anchor texts into its token stream.

    The variant letter picks the destination flags (a: body, b: title); the
    digit picks the setting: 1 append only, 2 also remove the document's own
    link text first, 3 append minus the anchor-stopword list.  A missing
    anchor file (anchor_texts None) passes the stream through unchanged.
    """
    v = variant.lower()
    if v not in ANCHOR_VARIANTS:
        raise ValueError(f"unknown anchor variant {variant!r}; choose from {ANCHOR_VARIANTS}")
    if anchor_texts is None:
        return list(doc_stream)
    as_title = v[0] == "b"
    setting = v[1]
    out = list(doc_stream)
    if setting == "2":
        out = [t for t in out if not t.in_link]
    terms: list[str] = []
    for text in anchor_texts[:MAX_ANCHORS]:
        terms.extend(tokenize_reference(text, options))
    if setting == "3":
        terms = [t for t in terms if t not in anchor_stopwords]
    base = out[-1].offset + 1 if out else 0
    for j, term in enumerate(terms):
        out.append(OffsetToken(term, base + j, in_title=as_title))
    return out
