"""Corpus ingestion: manifests, HTML text extraction, term criteria.

Documents arrive as HTML files listed in a tab-separated manifest.  Parsing
gives one `Token` per kept term, in document order, flagged with whether it
sat inside the title, inside an emphasis tag or inside a link.  That is
everything the criterion extraction (term, title and emphasis flags, index
in the stream) and the anchor-text variants (link flag) read.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from html.parser import HTMLParser
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import EmptyDocument, ParseError, UndecodableInput

DEFAULT_EMPHASIS_TAGS = frozenset(
    {"em", "b", "u", "strong", "big", "cite", "dfn", "i", "blockquote"}
    | {f"h{i}" for i in range(1, 7)}
)
DEFAULT_ANCHOR_STOPWORDS = frozenset(
    {"click", "link", "here", "homepage", "home", "page", "website", "site"}
)
ANCHOR_VARIANTS = ("a1", "a2", "a3", "b1", "b2", "b3")
MAX_ANCHORS = 300

_VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)
_SKIP_TAGS = frozenset({"script", "style"})
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class Token(NamedTuple):
    term: str
    in_title: bool = False
    in_emphasis: bool = False
    in_link: bool = False


@dataclass(frozen=True)
class TermCriteria:
    """Normalized per-term inputs for one document."""

    freq_norm: float
    title_norm: float
    emph_norm: float
    positions: tuple[float, ...]
    raw_tf: int


def _load_default_stopwords() -> frozenset[str]:
    ref = resources.files("fuzzterm").joinpath("data", "stopwords_en.txt")
    words = set()
    for line in ref.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


DEFAULT_STOPWORDS = _load_default_stopwords()


@dataclass(frozen=True)
class TokenizerOptions:
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    min_length: int = 2
    drop_digits: bool = True
    stem: bool = False


DEFAULT_TOKENIZER = TokenizerOptions()

_SUFFIXES = ("ing", "ed", "es", "ly", "s")


def strip_suffix(term: str) -> str:
    """Chop one common English suffix when a stem of >= 3 chars remains."""
    for suf in _SUFFIXES:
        if term.endswith(suf) and len(term) - len(suf) >= 3:
            return term[: -len(suf)]
    return term


def tokenize(text: str, options: TokenizerOptions = DEFAULT_TOKENIZER) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, filter, optionally stem.

    Filters run in order: minimum length, all-digit tokens, stopwords; the
    suffix stripper sees only the tokens they keep.
    """
    min_length, drop_digits, stopwords = options.min_length, options.drop_digits, options.stopwords
    terms = [
        tok
        for tok in _TOKEN_RE.findall(text.lower())
        if len(tok) >= min_length and not (drop_digits and tok.isdigit()) and tok not in stopwords
    ]
    return [strip_suffix(tok) for tok in terms] if options.stem else terms


def decode_text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        pass
    try:
        return raw.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 decodes all bytes
        raise UndecodableInput("input is neither UTF-8 nor Latin-1") from exc


class _TextExtractor(HTMLParser):
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


def parse_html(
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
    extractor = _TextExtractor(tags)
    extractor.feed(text)
    extractor.close()
    tokens = [
        Token(term, in_title, in_emph, in_link)
        for segment, in_title, in_emph, in_link in extractor.segments
        for term in tokenize(segment, options)
    ]
    if not tokens:
        raise EmptyDocument("document yields no tokens after filtering")
    return tokens


def extract_criteria(stream: list[Token]) -> dict[str, TermCriteria]:
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


def apply_anchor_variant(
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
        terms.extend(tokenize(text, options))
    if setting == "3":
        terms = [t for t in terms if t not in anchor_stopwords]
    out.extend(Token(term, in_title=as_title) for term in terms)
    return out


# ---------------------------------------------------------------------------
# Corpus manifests


@dataclass(frozen=True)
class ManifestEntry:
    doc_id: str
    path: Path
    category: str


@dataclass(frozen=True)
class CorpusManifest:
    entries: tuple[ManifestEntry, ...]
    anchors_dir: Path | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def categories(self) -> list[str]:
        seen = dict.fromkeys(e.category for e in self.entries)
        return list(seen)

    def labels(self) -> dict[str, str]:
        return {e.doc_id: e.category for e in self.entries}

    def category_sizes(self) -> dict[str, int]:
        sizes = Counter(e.category for e in self.entries)
        return dict(sizes)

    def subset(self, doc_ids: Iterable[str]) -> "CorpusManifest":
        keep = set(doc_ids)
        return CorpusManifest(
            tuple(e for e in self.entries if e.doc_id in keep), self.anchors_dir
        )


def load_manifest(path, anchors_dir=None) -> CorpusManifest:
    """Read a `doc_id<TAB>relative_path<TAB>category` manifest.

    Comment lines start with '#'; paths resolve against the manifest's
    directory and must exist.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", path, line_no
            )
        doc_id, rel, category = (f.strip() for f in fields)
        if not doc_id or not category:
            raise ParseError("doc_id and category must be non-empty", path, line_no)
        if doc_id in seen:
            raise ParseError(f"duplicate doc_id {doc_id!r}", path, line_no)
        seen.add(doc_id)
        doc_path = (base / rel).resolve()
        if not doc_path.is_file():
            raise ParseError(f"document not found: {doc_path}", path, line_no)
        entries.append(ManifestEntry(doc_id, doc_path, category))
    if not entries:
        raise ParseError("manifest lists no documents", path, None)
    if anchors_dir is not None:
        anchors_dir = Path(anchors_dir)
    return CorpusManifest(tuple(entries), anchors_dir)


def read_anchor_texts(anchors_dir, doc_id: str, limit: int = MAX_ANCHORS) -> list[str] | None:
    """Anchor strings for one document, or None when no file exists."""
    if anchors_dir is None:
        return None
    path = Path(anchors_dir) / f"{doc_id}.txt"
    if not path.is_file():
        return None
    text = decode_text(path.read_bytes())
    lines = [line.strip() for line in text.splitlines()]
    return [line for line in lines if line][:limit]
