"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from first principles (closed-form
integrals, brute-force searches, the plain loops that vectorized package code
replaced) rather than by calling the package, so the tests compare two
separate derivations.
"""

import itertools
import math
import re
import warnings
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from html.parser import HTMLParser
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from fuzzterm.cluster import CategoryScore, F1Report
from fuzzterm.corpus import Corpus, SparseRows
from fuzzterm.engine import LinguisticVariable, TrapezoidSet
from fuzzterm.errors import CategoryTooSmall, EmptyDocument, InsufficientDocs
from fuzzterm.ingest import (
    CorpusManifest,
    _SKIP_TAGS,
    _VOID_TAGS,
    ANCHOR_VARIANTS,
    DEFAULT_ANCHOR_STOPWORDS,
    DEFAULT_EMPHASIS_TAGS,
    DEFAULT_TOKENIZER,
    MAX_ANCHORS,
    TermCriteria,
    TokenizerOptions,
    _TextExtractor,
    decode_text,
    TermTable,
    strip_suffix,
)
from fuzzterm.pipeline import _doc_criteria
from fuzzterm.weighting import CorpusStats

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


def corpus_stats(criteria_by_doc) -> CorpusStats:
    """Corpus size and per-term document frequencies of
    {doc_id: {term: TermCriteria}} maps."""
    df: dict[str, int] = {}
    for doc in criteria_by_doc.values():
        for term in doc:
            df[term] = df.get(term, 0) + 1
    return CorpusStats(len(criteria_by_doc), df)


def apply_idf_reference(weights, stats: CorpusStats) -> dict[str, float]:
    """A {term: weight} map scaled term by term by its IDF; zero products
    dropped."""
    out = {}
    for term, w in weights.items():
        scaled = w * stats.idf(term)
        if scaled != 0.0:
            out[term] = scaled
    return out


def sparse_rows_of(weight_maps, vocab) -> SparseRows:
    """{term: weight} maps as SparseRows over vocab, a sorted list holding
    every term of the maps."""
    index = {t: i for i, t in enumerate(vocab)}
    rows = [sorted((index[t], w) for t, w in m.items()) for m in weight_maps]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    terms = np.array([t for row in rows for t, _ in row], dtype=np.int64)
    weights = np.array([w for row in rows for _, w in row], dtype=np.float64)
    return SparseRows(offsets, terms, weights)


def to_dense_reference(rows: SparseRows, keep: np.ndarray | None = None) -> np.ndarray:
    """`SparseRows.to_dense`, one row at a time: the columns are the sorted
    term ids the rows hold (and keep sets, when given)."""
    per_row = []
    for i in range(rows.n_rows):
        span = slice(rows.offsets[i], rows.offsets[i + 1])
        pairs = zip(rows.term_ids[span].tolist(), rows.weights[span].tolist())
        per_row.append({t: w for t, w in pairs if keep is None or keep[t]})
    columns = sorted({t for row in per_row for t in row})
    index = {t: j for j, t in enumerate(columns)}
    X = np.zeros((rows.n_rows, len(columns)))
    for i, row in enumerate(per_row):
        for t, w in row.items():
            X[i, index[t]] = w
    return X


def criteria_by_doc(manifest: CorpusManifest, config) -> dict[str, dict[str, TermCriteria]]:
    """{doc_id: {term: TermCriteria}} for the whole corpus, each document's
    criteria read as the pipeline reads them (`pipeline._doc_criteria`)."""
    table = TermTable()
    return {e.doc_id: dict(_doc_criteria(e, config, table)) for e in manifest.entries}


def clustering_criterion(X: np.ndarray, labels: np.ndarray) -> float:
    """Sum over clusters of the norm of the cluster's vector sum."""
    total = 0.0
    for cid in np.unique(labels):
        total += float(np.linalg.norm(X[labels == cid].sum(axis=0)))
    return total


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


def assert_same_state(rng, ref: np.random.Generator) -> None:
    """fuzzterm's PCG64 rng stands where numpy's generator ref stands: the
    same 128-bit state and stream, and the same buffered 32-bit half."""
    state = ref.bit_generator.state
    assert (rng.state, rng.inc, rng.has_uint32, rng.uinteger) == (
        state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]
    )


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


# Verbatim copies of `cluster._bisect`, `cluster._refine` and
# `cluster.bisect_labels`, the latter two as they were before the
# clusters' cohesion scores were cached: every split rescores every
# cluster.  The split copies the round as it stands: one product for
# diff = (c0 - c1) . x of every row x and one for the side-1 sums, the
# side-0 sums taken as the block's column sum minus those.  They hold the package to the same
# floating-point products and generator draws, ties and degenerate splits
# included, which the loop references above cannot promise.  Three edits:
# the split records the degenerate cases it meets and always runs its
# fix-ups, the refine pass records each scored document's best gain, and
# norms come from np.linalg.norm, which `cluster._row_norms` and the
# split's norms equal bit for bit.


def bisect_lockstep_reference(
    Xs: np.ndarray, rng: np.random.Generator, branches: set | None = None
) -> np.ndarray:
    """The split; when given, `branches` collects the degenerate cases it
    met: "full side", "empty side" and "zero-norm centroid"."""
    m = Xs.shape[0]
    seeds = np.array([rng.choice(m, size=2, replace=False) for _ in range(_RESTARTS)])
    D = Xs[seeds[:, 0]] - Xs[seeds[:, 1]]
    total = Xs.sum(axis=0)
    sides = np.zeros((_RESTARTS, m), dtype=bool)
    scores = np.empty(_RESTARTS)
    active = np.arange(_RESTARTS)
    for _ in range(_MAX_ITER):
        diff = D[active] @ Xs.T
        new_sides = diff < 0
        full = np.flatnonzero(new_sides.all(axis=1))
        empty = np.flatnonzero(~new_sides.any(axis=1))
        new_sides[full, diff[full].argmax(axis=1)] = False
        new_sides[empty, diff[empty].argmin(axis=1)] = True
        if branches is not None:
            branches.update(
                name for name, rows in (("full side", full), ("empty side", empty)) if rows.size
            )
        moved = (new_sides != sides[active]).any(axis=1)
        active, new_sides = active[moved], new_sides[moved]
        if active.size == 0:
            break
        sides[active] = new_sides
        V1 = new_sides.astype(np.float64) @ Xs
        V0 = total - V1
        n0 = np.linalg.norm(V0, axis=1)[:, None]
        n1 = np.linalg.norm(V1, axis=1)[:, None]
        scores[active] = (n0 + n1)[:, 0]
        # a side whose rows sum to zero takes row 0 (c0) or row m-1 (c1)
        if branches is not None and not (n0.all() and n1.all()):
            branches.add("zero-norm centroid")
        c0 = np.where(n0 > 0, V0 / np.where(n0 > 0, n0, 1.0), Xs[0])
        D[active] = c0 - np.where(n1 > 0, V1 / np.where(n1 > 0, n1, 1.0), Xs[-1])
    best = 0
    for r in range(1, _RESTARTS):
        if scores[r] > scores[best] + 1e-12:
            best = r
    return sides[best]


def refine_vectorized_reference(
    X: np.ndarray, labels: np.ndarray, k: int, gains: dict | None = None
) -> None:
    """The refine pass; when given, `gains` maps each document it scores to
    its best gain, the one it moves on if above _MOVE_TOL."""
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
        if gains is not None:
            gains[i] = float(delta[b])
        if delta[b] > _MOVE_TOL:
            labels[i] = b
            sums[a] = va
            norms[a] = na
            sums[b] = gained[b]
            norms[b] = nb[b]
            counts[a] -= 1
            counts[b] += 1


def _rows_reference(Xn: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return Xn if idx.size == Xn.shape[0] else Xn[idx]


def bisect_labels_lockstep_reference(X: np.ndarray, k: int, seed) -> np.ndarray:
    n = X.shape[0]
    if n < k:
        raise InsufficientDocs(f"{n} documents cannot fill {k} clusters")
    norms = np.linalg.norm(X, axis=1)
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
            score = idx.size - float(np.linalg.norm(_rows_reference(Xn, idx).sum(axis=0)))
            if score > best_score + 1e-12:
                best_score = score
                best_cid = cid
        idx = np.flatnonzero(labels == best_cid)
        side = bisect_lockstep_reference(_rows_reference(Xn, idx), rng)
        labels[idx[side]] = next_id
    if k > 1:
        refine_vectorized_reference(Xn, labels, k)
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


# The AFCC set tuner as it stood before it became one table-driven loop:
# one edge function per criterion, one builder per set count.

_EDGE_EPS = 1e-6


def _tail_quantile(profile, cut: float, fractions) -> list[float]:
    tail = profile.values[profile.values >= cut]
    if tail.size == 0:
        # pathological: everything sits below the cut; quantile over the
        # full pool keeps the edges defined, the sanitizer restores order
        tail = profile.values
    return [float(np.quantile(tail, f)) for f in fractions]


def _sanitize_edges(edges: list[float], criterion: str) -> list[float]:
    """Force edges strictly increasing inside (0, 1], nudging ties by 1e-6."""
    out = []
    prev = 0.0
    nudged = False
    for e in edges:
        e = min(float(e), 1.0)
        if e <= prev:
            e = prev + _EDGE_EPS
            nudged = True
        out.append(e)
        prev = e
    if out[-1] > 1.0:
        out[-1] = 1.0
        for i in range(len(out) - 2, -1, -1):
            if out[i] >= out[i + 1]:
                out[i] = out[i + 1] - _EDGE_EPS
                nudged = True
    if nudged:
        warnings.warn(
            f"tuned {criterion} boundaries were not strictly increasing; "
            f"nudged by {_EDGE_EPS:g}",
            stacklevel=3,
        )
    return out


def _three_set_variable(base: LinguisticVariable, edges) -> LinguisticVariable:
    labels = base.labels()
    if len(labels) != 3:
        raise ValueError(f"variable {base.name!r} is not a 3-set variable")
    p1, p2, p3, p4 = edges
    lo, med, hi = labels
    return LinguisticVariable(
        base.name,
        (
            TrapezoidSet(lo, 0.0, 0.0, p1, p2),
            TrapezoidSet(med, p1, p2, p3, p4),
            TrapezoidSet(hi, p3, p4, 1.0, 1.0),
        ),
        base.lo,
        base.hi,
    )


def _two_set_variable(base: LinguisticVariable, edges) -> LinguisticVariable:
    labels = base.labels()
    if len(labels) != 2:
        raise ValueError(f"variable {base.name!r} is not a 2-set variable")
    p1, p2 = edges
    lo, hi = labels
    return LinguisticVariable(
        base.name,
        (
            TrapezoidSet(lo, 0.0, 0.0, p1, p2),
            TrapezoidSet(hi, p1, p2, 1.0, 1.0),
        ),
        base.lo,
        base.hi,
    )


def _frequency_edges(profile, threshold, cut):
    if profile.frac_below(cut) > threshold:
        # heavy-tailed: pin the first edge at the cut and split the mass
        # above it into four equal slices
        return [cut] + _tail_quantile(profile, cut, (0.25, 0.5, 0.75))
    return [float(np.quantile(profile.values, q)) for q in (0.2, 0.4, 0.6, 0.8)]


def _emphasis_edges(profile, threshold, cut):
    if profile.frac_below(cut) > threshold:
        # successive halving of the tail mass keeps the middle set widest
        return [cut] + _tail_quantile(profile, cut, (0.5, 0.75, 0.875))
    return [float(np.quantile(profile.values, q)) for q in (0.05, 0.15, 0.55, 0.75)]


def _title_edges(profile):
    lowest = float(profile.values[0])
    rank_of_lowest = float(np.mean(profile.values <= lowest))
    second = float(np.quantile(profile.values, (rank_of_lowest + 1.0) / 2.0))
    return [lowest, second]


def tune_afcc_reference(base_kb, profiles, threshold: float = 0.55, cut: float = 0.2):
    """Re-derive Frequency/Emphasis/Title sets from corpus distributions.

    profiles: mapping criterion name -> DistributionProfile; a missing or
    None entry leaves that variable at its base_kb parameters.  Rules, the
    Position pair, the auxiliary variable and the Importance output are
    copied unchanged.
    """
    frequency = base_kb.frequency
    emphasis = base_kb.emphasis
    title = base_kb.title

    p = profiles.get("frequency")
    if p is not None:
        edges = _sanitize_edges(_frequency_edges(p, threshold, cut), "frequency")
        frequency = _three_set_variable(base_kb.frequency, edges)
    p = profiles.get("emphasis")
    if p is not None:
        edges = _sanitize_edges(_emphasis_edges(p, threshold, cut), "emphasis")
        emphasis = _three_set_variable(base_kb.emphasis, edges)
    p = profiles.get("title")
    if p is not None:
        edges = _sanitize_edges(_title_edges(p), "title")
        title = _two_set_variable(base_kb.title, edges)

    return replace(
        base_kb,
        name="afcc",
        frequency=frequency,
        emphasis=emphasis,
        title=title,
        flags=("tuned",),
    )


# ---------------------------------------------------------------------------
# The per-token criteria path that the columnar token stream and the
# columnar `ingest.extract_criteria` replaced, kept as it was: the open-tag stack
# scanned once per text chunk, one tuple per kept token, per-token dict
# counting, one TermCriteria per term, and a builder that unpacks those maps
# back into columns.  Tokens come from `tokenize_reference`, the per-token
# filter; decoding comes from the package.


class Token(NamedTuple):
    term: str
    in_title: bool = False
    in_emphasis: bool = False
    in_link: bool = False


class TextExtractorReference(HTMLParser):
    """Collect text chunks with title/emphasis/link context flags."""

    def __init__(self, emphasis_tags):
        super().__init__(convert_charrefs=True)
        self._emphasis_tags = emphasis_tags
        self._stack: list[str] = []
        self.segments: list[tuple[str, bool, bool, bool]] = []

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        if tag in _VOID_TAGS:
            return
        self._stack.append(tag)

    def handle_endtag(self, tag):
        # tag soup: close through any unclosed children of the matching tag
        tag = tag.lower()
        if tag not in self._stack:
            return
        while self._stack:
            if self._stack.pop() == tag:
                break

    def handle_data(self, data):
        stack = self._stack
        if not data or any(t in _SKIP_TAGS for t in stack):
            return
        self.segments.append(
            (
                data,
                "title" in stack,
                any(t in self._emphasis_tags for t in stack),
                "a" in stack,
            )
        )


def parse_tokens_reference(
    raw,
    emphasis_tags: Iterable[str] | None = None,
    options: TokenizerOptions = DEFAULT_TOKENIZER,
) -> list[Token]:
    """Extract flagged tokens from an HTML document (bytes or str).

    Script/style/comment content is dropped; emphasis means any enclosing
    tag sits in emphasis_tags, nesting collapsed to a single boolean.
    Tokens come in document order and carry no offsets: a token's place is
    its index in the returned list.
    """
    text = raw if isinstance(raw, str) else decode_text(raw)
    tags = (
        DEFAULT_EMPHASIS_TAGS
        if emphasis_tags is None
        else frozenset(t.lower() for t in emphasis_tags)
    )
    extractor = TextExtractorReference(tags)
    extractor.feed(text)
    extractor.close()
    tokens = [
        Token(term, in_title, in_emph, in_link)
        for segment, in_title, in_emph, in_link in extractor.segments
        for term in tokenize_reference(segment, options)
    ]
    if not tokens:
        raise EmptyDocument("document yields no tokens after filtering")
    return tokens


def extract_criteria_reference(stream: list[Token]) -> dict[str, TermCriteria]:
    """Per-term normalized criteria for one document.

    Frequencies normalize against the document's max term count; title and
    emphasis counts against their own maxima (0 when the document has no
    title/emphasis at all); each occurrence position is token index divided
    by (token count - 1), a single-token document mapping to 0.
    """
    if not stream:
        raise EmptyDocument("empty token stream")
    n = len(stream)
    counts: Counter[str] = Counter()
    title_counts: Counter[str] = Counter()
    emph_counts: Counter[str] = Counter()
    positions: dict[str, list[float]] = defaultdict(list)
    for i, tok in enumerate(stream):
        counts[tok.term] += 1
        if tok.in_title:
            title_counts[tok.term] += 1
        if tok.in_emphasis:
            emph_counts[tok.term] += 1
        positions[tok.term].append(0.0 if n == 1 else i / (n - 1))
    max_tf = max(counts.values())
    max_title = max(title_counts.values()) if title_counts else 0
    max_emph = max(emph_counts.values()) if emph_counts else 0
    out: dict[str, TermCriteria] = {}
    for term, tf in counts.items():
        out[term] = TermCriteria(
            freq_norm=tf / max_tf,
            title_norm=title_counts[term] / max_title if max_title else 0.0,
            emph_norm=emph_counts[term] / max_emph if max_emph else 0.0,
            positions=tuple(positions[term]),
            raw_tf=tf,
        )
    return out


def apply_anchor_variant_tokens_reference(
    doc_stream: list[Token],
    anchor_texts: list[str] | None,
    variant: str,
    options: TokenizerOptions = DEFAULT_TOKENIZER,
    anchor_stopwords: frozenset[str] = DEFAULT_ANCHOR_STOPWORDS,
) -> list[Token]:
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
    out.extend(Token(term, in_title=as_title) for term in terms)
    return out


class CorpusBuilderReference:
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


def pairs_by_term(corpus: Corpus) -> Corpus:
    """The corpus with each document's pairs, and their positions, in
    term-id order: the layout CorpusBuilderReference packs.  CorpusBuilder
    keeps the pairs in the order it got them, which no reader depends on."""
    ids = corpus.term_ids.tolist()
    bounds = corpus.doc_offsets.tolist()
    order = []
    for start, stop in zip(bounds, bounds[1:]):
        order.extend(sorted(range(start, stop), key=ids.__getitem__))
    order = np.array(order, dtype=np.int64)
    positions = [corpus.positions[corpus.pos_offsets[i]:corpus.pos_offsets[i + 1]] for i in order]
    return replace(
        corpus,
        term_ids=corpus.term_ids[order],
        freq=corpus.freq[order],
        title=corpus.title[order],
        emph=corpus.emph[order],
        raw_tf=corpus.raw_tf[order],
        positions=np.concatenate([np.empty(0), *positions]),
        pos_offsets=_offsets(array("q", [p.size for p in positions])),
    )


# ---------------------------------------------------------------------------
# The doc_id-keyed scoring path that label arrays and row-index subsets
# replaced, kept as it was: a doc_id -> cluster dict with the set of
# zero-weight documents, F1 by set intersections, and one CorpusManifest per
# stratified subset.


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


def weighted_f1_sets_reference(clustering: Clustering, labels: Mapping[str, str]) -> F1Report:
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


def stratified_subsample_manifest_reference(
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
        out.append(CorpusManifest(entries))
    return out
