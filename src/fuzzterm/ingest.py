"""Corpus ingestion: manifests, HTML text extraction, term criteria.

Documents arrive as HTML files listed in a tab-separated manifest.  Parsing
gives one `TokenStream` per document: the kept tokens in document order as
ids of the corpus's `TermTable` and, as boolean columns beside them,
whether each sat inside the title, inside an emphasis tag or inside a
link.  That is everything the criteria (term, title and emphasis flags,
index in the stream) and the anchor-text variants (link flag) read.
`extract_criteria` counts a stream into one document's `CriteriaColumns`,
one row per distinct id, which `corpus.CorpusBuilder` packs.

A text run is split into raw tokens once (`_split`): ASCII text by one
`str.translate` and `str.split`, other text by `_TOKEN_RE`.  The term table
maps each distinct raw token to its term id, or to -1 when the filter drops
it, so the filter and the suffix stripper run once per distinct raw token
of the corpus, and no per-document work handles strings after the split.

`TermCriteria` and the term -> `TermCriteria` `Mapping` view of
`CriteriaColumns` are an older per-term form that no run path reads.  They
stay only because the benchmark tracer counts pairs and positions through
`len()` and `.values()` of `extract_criteria`'s result.

Text and flags come from a regex scanner when the markup lies inside its
grammar: start, end and self-closing tags whose bodies hold no quote, "<"
or NUL, no "&" in the document, no script or style tag, and every "<"
opening such a tag.  Any other document (character references, quoted
attributes, comments, doctype, stray "<") is parsed by html.parser through
`_TextExtractor`, the reference the scanner is tested against.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from html.parser import HTMLParser
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import EmptyDocument, ParseError

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
# ASCII text folded for str.split: A-Z to a-z, a-z and 0-9 kept, every other
# ASCII character to a space.  On ASCII text `[^\W_]` matches exactly
# [A-Za-z0-9], so the split gives the tokens _TOKEN_RE finds in text.lower().
_ASCII_FOLD = str.maketrans(
    {chr(c): chr(c).lower() if chr(c).isalnum() else " " for c in range(128)}
)
# One tag of the scanner's grammar: "/" for an end tag, html.parser's tag
# name without whitespace, quotes or "<", and a body without quotes, "<" or
# NUL that starts where html.parser's name ends.  re.split yields (slash,
# name, body) between the text runs.
_TAG_RE = re.compile(r"<(/?)([a-zA-Z][^\s/>\x00<\"']*)((?:[\t\n\r\f /][^<>\"'\x00]*)?)>")
# html.parser's attribute loop over a start-tag body (tagfind_tolerant's
# tail, then attrfind_tolerant repeated): it stops on a body's final "/"
# exactly when the tag is self-closing, and a bare value may take that "/".
_ATTRS_RE = re.compile(r"(?:\s|/(?!\Z))*(?:[^\s/][^\s/=]*(?:\s*=+\s*\S*)?(?:\s|/(?!\Z))*)*")

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class TokenStream:
    """One document's kept tokens in document order, as columns: token i
    has the term id ids[i] of `table`, and title[i], emphasis[i] and
    link[i] say whether it sat inside the title, an emphasis tag or a link.
    A token's place is its index.  The ids are stored as an int64 array
    and the flags as boolean arrays, so 0/1 integers are taken as truth
    values, never as indices."""

    table: TermTable
    ids: np.ndarray
    title: np.ndarray
    emphasis: np.ndarray
    link: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        object.__setattr__(self, "ids", ids)
        for name in ("title", "emphasis", "link"):
            column = np.asarray(getattr(self, name), dtype=bool)
            if column.shape != (len(ids),):
                raise ValueError(
                    f"TokenStream.{name} has shape {column.shape}, "
                    f"expected one flag per term ({len(ids)})"
                )
            object.__setattr__(self, name, column)

    @property
    def terms(self) -> list[str]:
        """The tokens' terms, in document order."""
        terms = self.table.terms
        return [terms[i] for i in self.ids.tolist()]


@dataclass(frozen=True)
class TermCriteria:
    """Normalized per-term inputs for one document."""

    freq_norm: float
    title_norm: float
    emph_norm: float
    positions: tuple[float, ...]
    raw_tf: int


@dataclass(frozen=True, eq=False)
class CriteriaColumns(Mapping):
    """One document's criteria as columns, one row per distinct term: row i
    is term id term_ids[i] of `table`.  Row i's occurrence positions are
    the n_positions[i] entries of `positions` that follow the earlier
    rows'.

    The columns also read as a term -> `TermCriteria` map, in row order
    (see the module doc); the terms and the per-term objects are built on
    first lookup, never by the packer."""

    table: TermTable
    term_ids: np.ndarray
    freq: np.ndarray
    title: np.ndarray
    emph: np.ndarray
    raw_tf: np.ndarray
    positions: np.ndarray
    n_positions: np.ndarray

    @cached_property
    def terms(self) -> list[str]:
        terms = self.table.terms
        return [terms[i] for i in self.term_ids.tolist()]

    @cached_property
    def _by_term(self) -> dict[str, TermCriteria]:
        positions = self.positions.tolist()
        out: dict[str, TermCriteria] = {}
        start = 0
        for term, freq, title, emph, tf, n_pos in zip(
            self.terms,
            self.freq.tolist(),
            self.title.tolist(),
            self.emph.tolist(),
            self.raw_tf.tolist(),
            self.n_positions.tolist(),
        ):
            out[term] = TermCriteria(freq, title, emph, tuple(positions[start:start + n_pos]), tf)
            start += n_pos
        return out

    def __getitem__(self, term: str) -> TermCriteria:
        return self._by_term[term]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.term_ids)


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


class TermTable(dict):
    """A corpus's term ids: raw token -> the id of the term it keeps, or -1
    when the filter drops it.  Term i is terms[i]; ids are given in
    first-seen order.

    Looking up a token not seen before runs the filter once for it, in
    order: minimum length, all-digit tokens, stopwords; the suffix stripper
    sees only the tokens they keep, so two raw tokens may share a term.
    `intern` gives a term its id without the filter."""

    def __init__(self, options: TokenizerOptions = DEFAULT_TOKENIZER):
        super().__init__()
        self.options = options
        self.terms: list[str] = []
        self._ids: dict[str, int] = {}

    def __missing__(self, token: str) -> int:
        opts = self.options
        if (
            len(token) < opts.min_length
            or (opts.drop_digits and token.isdigit())
            or token in opts.stopwords
        ):
            term_id = -1
        else:
            term_id = self.intern(strip_suffix(token) if opts.stem else token)
        self[token] = term_id
        return term_id

    def intern(self, term: str) -> int:
        """The id of a term, a new one when the term is new."""
        term_id = self._ids.setdefault(term, len(self.terms))
        if term_id == len(self.terms):
            self.terms.append(term)
        return term_id


def _split(text: str) -> list[str]:
    """A text run's raw tokens: `_TOKEN_RE.findall(text.lower())`.  ASCII
    text takes one translate and a C-level split instead; any other text
    keeps the regex, because str.lower depends on context (final sigma) and
    can lengthen a string (U+0130 lowers to "i" and U+0307)."""
    if text.isascii():
        return text.translate(_ASCII_FOLD).split()
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, options: TokenizerOptions = DEFAULT_TOKENIZER) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, filter, optionally stem,
    as a new `TermTable` does."""
    table = TermTable(options)
    return [table.terms[i] for i in map(table.__getitem__, _split(text)) if i >= 0]


def decode_text(raw: bytes) -> str:
    """UTF-8, or Latin-1 when that fails; Latin-1 decodes every byte string."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


class _TextExtractor(HTMLParser):
    """Collect text chunks with title/emphasis/link context flags.  Depth
    counters of the open skip, title, emphasis and link tags give a chunk's
    flags without scanning the open-tag stack."""

    def __init__(self, emphasis_tags):
        super().__init__(convert_charrefs=True)
        self._emphasis_tags = emphasis_tags
        self._stack: list[str] = []
        self._skip = self._title = self._emphasis = self._link = 0
        self.segments: list[tuple[str, bool, bool, bool]] = []

    def _count(self, tag: str, step: int) -> None:
        # no elif: a custom emphasis tag may be title, a, script or style
        if tag in _SKIP_TAGS:
            self._skip += step
        if tag == "title":
            self._title += step
        if tag in self._emphasis_tags:
            self._emphasis += step
        if tag == "a":
            self._link += step

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        if tag in _VOID_TAGS:
            return
        self._stack.append(tag)
        self._count(tag, 1)

    def handle_endtag(self, tag):
        # tag soup: close through any unclosed children of the matching tag
        tag = tag.lower()
        if tag not in self._stack:
            return
        while self._stack:
            popped = self._stack.pop()
            self._count(popped, -1)
            if popped == tag:
                break

    def handle_data(self, data):
        if not data or self._skip:
            return
        self.segments.append((data, self._title > 0, self._emphasis > 0, self._link > 0))


def _scan_tags(
    text: str, emphasis_tags: frozenset[str]
) -> list[tuple[str, bool, bool, bool]] | None:
    """`_TextExtractor(emphasis_tags).segments` of a document inside the
    grammar the module docstring names, or None for any other document.

    Inside the grammar html.parser reports the same tags and text runs, so
    the semantics are `_TextExtractor`'s: a void start tag opens nothing, an
    end tag closes through its unclosed children only when it is open, and
    a self-closing tag (a start tag, then its end tag) changes nothing.
    Each open tag keeps the flags from before it opened and closing it
    restores them, so a flag is set exactly while a tag that sets it is
    open, as under the reference's depth counters.
    """
    if "&" in text:
        return None
    parts = _TAG_RE.split(text)
    if len(parts) // 4 != text.count("<"):
        return None
    flags = (False, False, False)
    segments = [(parts[0], *flags)] if parts[0] else []
    stack: list[str] = []
    before: list[tuple[bool, bool, bool]] = []
    tags = iter(parts)
    next(tags)
    for slash, name, body, data in zip(tags, tags, tags, tags):
        name = name.lower()
        if name in _SKIP_TAGS:
            return None
        if slash:
            if name in stack:
                while stack.pop() != name:
                    before.pop()
                flags = before.pop()
        elif name not in _VOID_TAGS and not (
            body[-1:] == "/" and _ATTRS_RE.match(body).end() == len(body) - 1
        ):
            stack.append(name)
            before.append(flags)
            title, emphasis, link = flags
            flags = (
                title or name == "title", emphasis or name in emphasis_tags, link or name == "a"
            )
        if data:
            segments.append((data, *flags))
    return segments


def parse_html(raw, table: TermTable | None = None) -> TokenStream:
    """Extract the flagged token stream of an HTML document (bytes or str).

    Script/style/comment content is dropped; emphasis means any enclosing
    tag sits in DEFAULT_EMPHASIS_TAGS, nesting collapsed to a single boolean.
    Tokens come in document order and carry no offsets: a token's place is
    its index in the stream.

    Plain tag markup (tags without quoted attributes, no "&", comment,
    doctype, script or style; see `_scan_tags`) is split by one regex.  Any
    other document falls back to html.parser through `_TextExtractor`,
    which stays the reference: both give the same text segments and flags.
    Each fallback logs one DEBUG line on the `fuzzterm.ingest` logger.

    Tokens are looked up in `table`, the corpus's term table, which holds
    every tokenizer setting; without one a new default table is used.
    """
    if table is None:
        table = TermTable()
    text = raw if isinstance(raw, str) else decode_text(raw)
    segments = _scan_tags(text, DEFAULT_EMPHASIS_TAGS)
    if segments is None:
        log.debug("markup outside the scanner's grammar (%d chars): html.parser", len(text))
        extractor = _TextExtractor(DEFAULT_EMPHASIS_TAGS)
        extractor.feed(text)
        extractor.close()
        segments = extractor.segments
    tokens = [_split(segment) for segment, _, _, _ in segments]
    sizes = list(map(len, tokens))
    ids = np.fromiter(map(table.__getitem__, chain.from_iterable(tokens)), np.int64, sum(sizes))
    kept = ids >= 0
    if not kept.any():
        raise EmptyDocument("document yields no tokens after filtering")
    _, *flags = zip(*segments)
    flags = np.repeat(np.array(flags, dtype=bool), sizes, axis=1)
    if not kept.all():
        ids, flags = ids[kept], flags[:, kept]
    return TokenStream(table, ids, *flags)


def _normalized(counts: np.ndarray) -> np.ndarray:
    """Counts divided by their maximum; all 0.0 when that is 0."""
    top = counts.max()
    return counts / top if top else np.zeros(counts.size)


def extract_criteria(stream: TokenStream) -> CriteriaColumns:
    """Per-term normalized criteria for one document, as columns.

    Frequencies normalize against the document's max term count; title and
    emphasis counts against their own maxima (0 when the document has no
    title/emphasis at all); each occurrence position is token index divided
    by (token count - 1), a single-token document mapping to 0.  Every
    division is of integers below 2**53, so each value rounds as Python's
    int / int does.  The rows list the distinct term ids in ascending order.
    """
    ids = stream.ids
    n = ids.size
    if not n:
        raise EmptyDocument("empty token stream")
    # stable: each term's occurrences stay in document order
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    term_ids = ranked[first]
    # each token's row: the number of distinct ids up to it in sorted order
    rows = np.empty(n, dtype=np.int64)
    rows[order] = np.cumsum(first) - 1
    k = term_ids.size
    tf = np.bincount(rows, minlength=k)
    return CriteriaColumns(
        table=stream.table,
        term_ids=term_ids,
        freq=_normalized(tf),
        title=_normalized(np.bincount(rows[stream.title], minlength=k)),
        emph=_normalized(np.bincount(rows[stream.emphasis], minlength=k)),
        raw_tf=tf,
        positions=order / (n - 1) if n > 1 else np.zeros(n),
        n_positions=tf,
    )


def apply_anchor_variant(
    doc_stream: TokenStream, anchor_texts: list[str] | None, variant: str
) -> TokenStream:
    """Merge a document's incoming anchor texts into its token stream.

    The variant letter picks the destination flags (a: body, b: title); the
    digit picks the setting: 1 append only, 2 also remove the document's own
    link text first, 3 append minus DEFAULT_ANCHOR_STOPWORDS.  Anchor tokens
    are never emphasis or link tokens; only the first MAX_ANCHORS anchor
    texts count.  A missing anchor file (anchor_texts None) passes a copy of
    the stream through unchanged.

    Anchor texts are tokenized through the stream's term table.
    """
    v = variant.lower()
    if v not in ANCHOR_VARIANTS:
        raise ValueError(f"unknown anchor variant {variant!r}; choose from {ANCHOR_VARIANTS}")
    table = doc_stream.table
    ids, title = doc_stream.ids, doc_stream.title
    emphasis, link = doc_stream.emphasis, doc_stream.link
    if anchor_texts is None:
        return TokenStream(table, ids.copy(), title.copy(), emphasis.copy(), link.copy())
    as_title = v[0] == "b"
    setting = v[1]
    if setting == "2":
        keep = ~link
        ids, title, emphasis, link = ids[keep], title[keep], emphasis[keep], link[keep]
    lookup, terms = table.__getitem__, table.terms
    anchor_ids = [
        i
        for text in anchor_texts[:MAX_ANCHORS]
        for i in map(lookup, _split(text))
        if i >= 0 and not (setting == "3" and terms[i] in DEFAULT_ANCHOR_STOPWORDS)
    ]
    m = len(anchor_ids)
    return TokenStream(
        table,
        np.concatenate([ids, np.array(anchor_ids, dtype=np.int64)]),
        np.concatenate([title, np.full(m, as_title)]),
        np.concatenate([emphasis, np.zeros(m, dtype=bool)]),
        np.concatenate([link, np.zeros(m, dtype=bool)]),
    )


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

    def __len__(self) -> int:
        return len(self.entries)

    def categories(self) -> list[str]:
        seen = dict.fromkeys(e.category for e in self.entries)
        return list(seen)


def load_manifest(path) -> CorpusManifest:
    """Read a `doc_id<TAB>relative_path<TAB>category` manifest.

    Comment lines start with '#'; paths are joined to the manifest's
    directory, resolved once, and must name existing files.
    """
    path = Path(path)
    base = path.parent.resolve()
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
        doc_path = base / rel
        if not doc_path.is_file():
            raise ParseError(f"document not found: {doc_path}", path, line_no)
        entries.append(ManifestEntry(doc_id, doc_path, category))
    if not entries:
        raise ParseError("manifest lists no documents", path, None)
    return CorpusManifest(tuple(entries))


def read_anchor_texts(anchors_dir, doc_id: str) -> list[str] | None:
    """Anchor strings for one document, or None when no file exists.

    The file is `<doc_id>.txt` directly inside anchors_dir, so a doc_id
    that is absolute, holds a path separator or is "." or ".." raises
    ParseError instead of naming a file elsewhere.
    """
    if anchors_dir is None:
        return None
    if doc_id in (".", "..") or Path(doc_id).name != doc_id:
        raise ParseError(f"doc_id {doc_id!r} is not a plain file name", anchors_dir)
    path = Path(anchors_dir) / f"{doc_id}.txt"
    if not path.is_file():
        return None
    text = decode_text(path.read_bytes())
    lines = [line.strip() for line in text.splitlines()]
    return [line for line in lines if line]
