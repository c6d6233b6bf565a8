"""Synthetic HTML corpus generator.

Builds small labeled corpora with controllable term statistics so the test
suite and benchmarks need no external data.  Term draws come either from a
Zipf-ranked distribution (heavy repetition of top-ranked words) or a uniform
one; each category owns a topical vocabulary on top of a shared background
pool.  Optional title rhetoric injects the same off-topic embellishment
words into titles across all categories.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CATEGORY_WORDS = (
    "aqua",
    "blaze",
    "cedar",
    "dune",
    "ember",
    "frost",
    "grove",
    "haze",
    "iris",
    "jasper",
    "kelp",
    "lumen",
)
ZIPF_EXPONENT = 1.1


def _zipf_weights(size: int, s: float = ZIPF_EXPONENT) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=np.float64)
    w = ranks**-s
    return w / w.sum()


def _uniform_weights(size: int) -> np.ndarray:
    return np.full(size, 1.0 / size)


def generate_corpus(
    out_dir,
    categories: int = 4,
    docs_per_category: int = 50,
    mode: str = "zipf",
    seed=0,
    vocab_per_category: int = 80,
    shared_vocab: int = 400,
    doc_length: tuple[int, int] = (80, 160),
    topic_fraction: float = 0.55,
    with_titles: bool = True,
    title_rhetoric: int = 0,
    rhetoric_vocab: int = 40,
    emphasis_prob: float = 0.12,
) -> Path:
    """Write HTML documents plus a manifest under out_dir; returns the
    manifest path.

    mode selects the per-vocabulary draw distribution ("zipf" or "uniform").
    title_rhetoric > 0 prepends that many shared off-topic words to every
    title.  Output is deterministic in all parameters plus seed.  Raises
    ValueError on an out-of-range parameter before anything is written.
    """
    if mode not in ("zipf", "uniform"):
        raise ValueError(f"unknown mode {mode!r}")
    if categories < 1 or categories > len(CATEGORY_WORDS):
        raise ValueError(f"categories must be in 1..{len(CATEGORY_WORDS)}")
    if doc_length[0] < 10 or doc_length[1] < doc_length[0]:
        raise ValueError("doc_length must be (lo, hi) with 10 <= lo <= hi")
    if docs_per_category < 1:
        raise ValueError("docs_per_category must be at least 1")
    if not 0 <= title_rhetoric <= rhetoric_vocab:
        raise ValueError(f"title_rhetoric must be in 0..{rhetoric_vocab}")
    for name, prob in (("topic_fraction", topic_fraction), ("emphasis_prob", emphasis_prob)):
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")

    out_dir = Path(out_dir)
    docs_dir = out_dir / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    weights_of = _zipf_weights if mode == "zipf" else _uniform_weights

    topical = [
        [f"{CATEGORY_WORDS[c]}{j:03d}" for j in range(vocab_per_category)]
        for c in range(categories)
    ]
    shared = [f"plain{j:03d}" for j in range(shared_vocab)]
    rhetoric = [f"fluff{j:02d}" for j in range(rhetoric_vocab)]
    topical_w = weights_of(vocab_per_category)
    shared_w = weights_of(shared_vocab)

    manifest_lines = ["# doc_id\tpath\tcategory"]
    for c in range(categories):
        cat = CATEGORY_WORDS[c]
        vocab = topical[c]
        for d in range(docs_per_category):
            doc_id = f"{cat}{d:04d}"
            length = int(rng.integers(doc_length[0], doc_length[1] + 1))
            is_topical = rng.random(length) < topic_fraction
            topical_draws = rng.choice(vocab_per_category, size=length, p=topical_w)
            shared_draws = rng.choice(shared_vocab, size=length, p=shared_w)
            emphasize = rng.random(length) < emphasis_prob

            body_parts = []
            for t in range(length):
                word = (
                    vocab[topical_draws[t]]
                    if is_topical[t]
                    else shared[shared_draws[t]]
                )
                if emphasize[t] and is_topical[t]:
                    word = f"<b>{word}</b>"
                body_parts.append(word)

            title_words: list[str] = []
            if with_titles:
                if title_rhetoric > 0:
                    picks = rng.choice(rhetoric_vocab, size=title_rhetoric, replace=False)
                    title_words.extend(rhetoric[int(p)] for p in picks)
                first = vocab[int(rng.choice(vocab_per_category, p=topical_w))]
                second = vocab[int(rng.choice(vocab_per_category, p=topical_w))]
                title_words.append(first)
                if rng.random() < 0.25:
                    # repeated headline word gives title_norm values below 1
                    title_words.append(first)
                title_words.append(second)

            html = (
                "<html><head><title>"
                + " ".join(title_words)
                + "</title></head><body><p>"
                + " ".join(body_parts)
                + "</p></body></html>\n"
            )
            fname = f"{doc_id}.html"
            (docs_dir / fname).write_text(html, encoding="utf-8")
            manifest_lines.append(f"{doc_id}\tdocs/{fname}\t{cat}")

    manifest = out_dir / "manifest.tsv"
    manifest.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    return manifest
