import logging
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzterm import (
    TermTable,
    TokenizerOptions,
    TokenStream,
    apply_anchor_variant,
    extract_criteria,
    generate_corpus,
    load_manifest,
    parse_html,
    read_anchor_texts,
    stratified_subsample,
    tokenize,
)
from fuzzterm.corpus import CorpusBuilder
from fuzzterm.errors import EmptyDocument, ParseError
from fuzzterm.ingest import (
    _TOKEN_RE,
    ANCHOR_VARIANTS,
    DEFAULT_EMPHASIS_TAGS,
    DEFAULT_STOPWORDS,
    _scan_tags,
    _split,
    _TextExtractor,
    strip_suffix,
)

from oracles import (
    CorpusBuilderReference,
    apply_anchor_variant_reference,
    apply_anchor_variant_tokens_reference,
    extract_criteria_reference,
    pairs_by_term,
    parse_html_reference,
    parse_tokens_reference,
    tokenize_reference,
)

NO_STOP = TokenizerOptions(stopwords=frozenset())


def stream_of(tokens, table=None):
    """A TokenStream of (term, in_title, in_emphasis, in_link) tuples, or of
    objects with those attributes, its terms interned in order in table (a
    new default one when None)."""
    table = TermTable() if table is None else table
    tokens = [
        (t.term, t.in_title, t.in_emphasis, t.in_link) if hasattr(t, "term") else t
        for t in tokens
    ]
    ids = [table.intern(t[0]) for t in tokens]
    columns = [np.array([t[j] for t in tokens], dtype=bool) for j in (1, 2, 3)]
    return TokenStream(table, ids, *columns)


def rows(stream):
    """(term, in_title, in_emphasis, in_link) per token."""
    return list(
        zip(stream.terms, stream.title.tolist(), stream.emphasis.tolist(), stream.link.tolist())
    )


class TestTokenize:
    def test_stopwords_length_and_digits(self):
        assert tokenize("The C++ APIs, 2024!") == ["apis"]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_folding(self):
        assert tokenize("Fuzzy fuzzy FUZZY") == ["fuzzy", "fuzzy", "fuzzy"]

    def test_underscore_splits(self):
        assert tokenize("snake_case_name") == ["snake", "case", "name"]

    def test_digits_kept_when_mixed(self):
        assert tokenize("ipv6 2024") == ["ipv6"]

    def test_custom_options(self):
        opts = TokenizerOptions(stopwords=frozenset(), min_length=1, drop_digits=False)
        assert tokenize("a 42", opts) == ["a", "42"]

    def test_suffix_stripper(self):
        assert strip_suffix("running") == "runn"
        assert strip_suffix("apples") == "appl"
        assert strip_suffix("cats") == "cat"
        # stems shorter than 3 chars stay untouched
        assert strip_suffix("des") == "des"
        assert tokenize("running", TokenizerOptions(stem=True)) == ["runn"]

    def test_default_stopwords_loaded(self):
        assert "the" in DEFAULT_STOPWORDS
        assert "now" not in DEFAULT_STOPWORDS  # kept: carries anchor meaning


# ASCII text of any characters, and runs of the ones the fold treats apart:
# separators, controls, "_", digits and letters of either case.
ASCII_TEXT = st.text(st.characters(max_codepoint=127), max_size=40) | st.lists(
    st.sampled_from(
        ["_", "__", " ", "  ", "\t", "\n\r", "\x0b\x0c", "\x00", "\x1f", "\x7f", "-",
         "0", "42", "a", "Z", "ipv6", "Snake_Case", "x_1", "\x1c\x1d"]
    ),
    max_size=12,
).map("".join)
# Text that lowercases by context or into more characters, and digits and
# letters outside ASCII: each takes the regex path.
NON_ASCII = ["ΟΔΟΣ", "İstanbul", "naïve", "１２", "Straße"]
WIDE = TokenizerOptions(stopwords=frozenset(), min_length=1, drop_digits=False)


class TestSplit:
    @given(text=ASCII_TEXT)
    def test_ascii_fold_equals_regex(self, text):
        assert text.isascii()
        assert _split(text) == _TOKEN_RE.findall(text.lower())

    @pytest.mark.parametrize("options", [WIDE, TokenizerOptions()])
    @pytest.mark.parametrize("text", NON_ASCII)
    def test_non_ascii_takes_the_regex(self, text, options):
        assert _split(text) == _TOKEN_RE.findall(text.lower())
        assert tokenize(text, options) == tokenize_reference(text, options)
        assert tokenize(f"Plain {text} TEXT_42", options) == tokenize_reference(
            f"Plain {text} TEXT_42", options
        )

    def test_document_of_ascii_and_non_ascii_runs(self):
        html = (
            "<title>ΟΔΟΣ Straße</title><p>Plain ASCII_text 42 <b>naïve İstanbul</b>"
            " ipv6 １２</p><p>more ASCII</p>"
        )
        for options in (WIDE, TokenizerOptions()):
            got = parse_html(html, table=TermTable(options))
            assert flags(got) == flags(parse_html_reference(html, options=options))


class TestParseHtml:
    def test_title_and_emphasis_flags(self):
        tokens = rows(parse_html(
            b"<html><title>Fuzzy Web</title><body>fuzzy <b>logic</b></body></html>"
        ))
        assert [(term, title, emph) for term, title, emph, _ in tokens] == [
            ("fuzzy", True, False),
            ("web", True, False),
            ("fuzzy", False, False),
            ("logic", False, True),
        ]

    def test_heading_counts_as_emphasis(self):
        ((term, _, in_emphasis, _),) = rows(parse_html(b"<h3>Intro</h3>"))
        assert term == "intro"
        assert in_emphasis

    def test_nested_emphasis_once(self):
        ((_, _, in_emphasis, _),) = rows(parse_html(b"<b><i>deep</i></b>"))
        assert in_emphasis

    def test_link_flag(self):
        tokens = rows(
            parse_html(b'<p>see <a href="x">rust docs</a> today</p>', table=TermTable(NO_STOP))
        )
        flags = {term: in_link for term, _, _, in_link in tokens}
        assert flags == {"see": False, "rust": True, "docs": True, "today": False}

    def test_script_and_style_excluded(self):
        tokens = parse_html(
            b"<script>var ignored = 1;</script><style>.c{color:red}</style>"
            b"<p>visible</p>"
        )
        assert tokens.terms == ["visible"]

    def test_unclosed_script_swallows_rest(self):
        with pytest.raises(EmptyDocument):
            parse_html(b"<script>function f() { body text here }")

    def test_tag_soup_does_not_abort(self):
        tokens = parse_html(b"<b>bold <p>paragraph</b> tail</p> plain", table=TermTable(NO_STOP))
        terms = tokens.terms
        assert terms == ["bold", "paragraph", "tail", "plain"]
        emphasis = tokens.emphasis.tolist()
        assert emphasis[0] and emphasis[1]
        assert not emphasis[2] and not emphasis[3]

    @pytest.mark.parametrize(
        "html, expected",
        [
            # the end tag closes the unclosed <p> too: both depths drop
            (b"<b>bold <p>para</b> tail", [("bold", True), ("para", True), ("tail", False)]),
            (b"<b>bold <i>ital</b> tail", [("bold", True), ("ital", True), ("tail", False)]),
            # closing the inner <b> leaves the outer one open
            (b"<b><b>x</b> y</b>", [("x", True), ("y", True)]),
            # a stray end tag closes nothing
            (b"<b>one</i> two</b> three", [("one", True), ("two", True), ("three", False)]),
        ],
    )
    def test_emphasis_depth_through_tag_soup(self, html, expected):
        options = TokenizerOptions(stopwords=frozenset(), min_length=1)
        tokens = rows(parse_html(html, table=TermTable(options)))
        assert [(term, emph) for term, _, emph, _ in tokens] == expected

    def test_link_depth_closes_with_emphasis_inside(self):
        tokens = rows(parse_html(b"<a>rust <b>docs</a> after", table=TermTable(NO_STOP)))
        assert tokens == [
            ("rust", False, False, True),
            ("docs", False, True, True),
            ("after", False, False, False),
        ]

    def test_entity_references_decoded(self):
        tokens = parse_html(b"<p>fish &amp; chips</p>", table=TermTable(NO_STOP))
        assert tokens.terms == ["fish", "chips"]

    def test_latin1_fallback(self):
        raw = "<p>caf\xe9 menu</p>".encode("latin-1")
        tokens = parse_html(raw, table=TermTable(NO_STOP))
        assert tokens.terms[0] == "caf\xe9"

    def test_empty_document(self):
        with pytest.raises(EmptyDocument):
            parse_html(b"<p>the a of 42</p>")


class TestExtractCriteria:
    @staticmethod
    def stream(*specs):
        out = []
        for spec in specs:
            term, *flags = spec.split(":")
            flags = flags[0] if flags else ""
            out.append((term, "t" in flags, "e" in flags, False))
        return stream_of(out)

    def test_frequency_and_positions(self):
        crit = extract_criteria(self.stream("a", "b", "a"))
        assert crit["a"].freq_norm == 1.0
        assert crit["a"].positions == (0.0, 1.0)
        assert crit["a"].raw_tf == 2
        assert crit["b"].freq_norm == 0.5
        assert crit["b"].positions == (0.5,)

    def test_no_title_zeroes_title_norm(self):
        crit = extract_criteria(self.stream("a", "b:e", "a"))
        assert all(c.title_norm == 0.0 for c in crit.values())
        assert crit["b"].emph_norm == 1.0

    def test_single_token_document(self):
        crit = extract_criteria(self.stream("x:te"))
        c = crit["x"]
        assert (c.freq_norm, c.title_norm, c.emph_norm) == (1.0, 1.0, 1.0)
        assert c.positions == (0.0,)

    def test_title_normalized_to_title_max(self):
        crit = extract_criteria(self.stream("a:t", "a:t", "b:t", "a", "b"))
        assert crit["a"].title_norm == 1.0
        assert crit["b"].title_norm == 0.5
        assert crit["b"].freq_norm == pytest.approx(2 / 3)

    def test_positions_count_matches_raw_tf(self):
        crit = extract_criteria(self.stream("a", "b", "a", "c", "a"))
        for c in crit.values():
            assert len(c.positions) == c.raw_tf
            assert all(0.0 <= p <= 1.0 for p in c.positions)

    def test_exactly_one_max_frequency(self):
        crit = extract_criteria(self.stream("a", "b", "a", "c"))
        assert sum(1 for c in crit.values() if c.freq_norm == 1.0) == 1

    def test_empty_stream(self):
        with pytest.raises(EmptyDocument):
            extract_criteria(stream_of([]))

    def test_parse_then_extract_deterministic(self):
        raw = b"<title>Topic One</title><p>alpha <b>beta</b> alpha</p>"
        assert extract_criteria(parse_html(raw)) == extract_criteria(parse_html(raw))

    def test_columns_read_as_a_map_in_id_order(self):
        # the stream's table gives ids in first-seen order: b, a, c
        crit = extract_criteria(self.stream("b", "a:t", "c", "a"))
        assert crit.term_ids.tolist() == [0, 1, 2]
        assert list(crit) == crit.terms == ["b", "a", "c"]
        assert len(crit) == 3 and "b" in crit and "z" not in crit
        assert [c.raw_tf for c in crit.values()] == crit.raw_tf.tolist() == [1, 2, 1]
        assert crit["a"].positions == (1 / 3, 1.0)
        with pytest.raises(KeyError):
            crit["z"]


class TestTokenStream:
    def test_integer_flags_are_truth_values(self):
        table = TermTable()
        ids = [table.intern("a"), table.intern("b"), table.intern("a")]
        stream = TokenStream(table, ids, [0, 1, 0], np.array([1, 0, 0]), (0, 0, 1))
        assert rows(stream) == [
            ("a", False, True, False),
            ("b", True, False, False),
            ("a", False, False, True),
        ]
        crit = extract_criteria(stream)
        assert (crit["a"].title_norm, crit["b"].title_norm) == (0.0, 1.0)
        assert (crit["a"].emph_norm, crit["b"].emph_norm) == (1.0, 0.0)

    @pytest.mark.parametrize("column", ["title", "emphasis", "link"])
    def test_flag_column_of_wrong_length(self, column):
        flags = {"title": [False] * 2, "emphasis": [False] * 2, "link": [False] * 2}
        flags[column] = [False] * 3
        with pytest.raises(ValueError, match=f"TokenStream.{column} has shape"):
            TokenStream(TermTable(), [0, 1], **flags)


class TestAnchorVariants:
    BODY = stream_of(
        [
            ("alpha", False, False, False),
            ("rust", False, False, True),
            ("beta", False, False, False),
        ],
        TermTable(NO_STOP),
    )

    def test_b1_appends_as_title(self):
        out = apply_anchor_variant(self.BODY, ["rust tutorial"], "b1")
        appended = rows(out)[len(self.BODY.terms):]
        assert [(term, title) for term, title, _, _ in appended] == [
            ("rust", True),
            ("tutorial", True),
        ]

    def test_a1_appends_as_body(self):
        out = apply_anchor_variant(self.BODY, ["rust tutorial"], "a1")
        appended = rows(out)[len(self.BODY.terms):]
        assert all(not title and not emph for _, title, emph, _ in appended)

    def test_a2_removes_link_tokens(self):
        out = apply_anchor_variant(self.BODY, ["gamma"], "a2")
        assert out.terms == ["alpha", "beta", "gamma"]

    def test_a3_drops_anchor_stopwords(self):
        out = apply_anchor_variant(self.BODY, ["click here now"], "a3")
        appended = out.terms[len(self.BODY.terms):]
        assert appended == ["now"]

    def test_missing_anchors_identity(self):
        out = apply_anchor_variant(self.BODY, None, "b2")
        assert rows(out) == rows(self.BODY)
        assert out is not self.BODY
        assert out.terms is not self.BODY.terms

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown anchor variant"):
            apply_anchor_variant(self.BODY, ["x"], "c1")

    def test_extract_after_b_variant_sets_title_norm(self):
        out = apply_anchor_variant(self.BODY, ["gamma gamma"], "b1")
        crit = extract_criteria(out)
        assert crit["gamma"].title_norm == 1.0
        assert crit["alpha"].title_norm == 0.0


# Words that exercise each filter: stopwords, all-digit and mixed tokens,
# underscores, one-letter tokens, suffixes, entities and non-ASCII text
# (including characters whose lowercase form is longer).
WORDS = st.sampled_from(
    "the and of a x 42 2024 ipv6 snake_case Fuzzy LOGIC running cats quickly "
    "café naïve Straße İstanbul ΣΟΦΙΑ 日本語 &amp; &eacute; &#233; &lt;b&gt; "
    "click here homepage".split()
) | st.text(max_size=8)
TEXT = st.lists(WORDS, min_size=1, max_size=6).map(" ".join)
TAGS = "title b i em strong h1 h3 a p span div script style br B EM".split()


def _element(args):
    tag, children, closed = args
    return f"<{tag}>" + "".join(children) + (f"</{tag}>" if closed else "")


# Nested elements, some left unclosed, mixed with stray end tags and
# comments: tag soup the extractor must tolerate.
NODE = st.recursive(
    TEXT | st.sampled_from(["</b>", "</p>", "</a>", "</title>", "<!-- the hidden -->"]),
    lambda children: st.tuples(
        st.sampled_from(TAGS), st.lists(children, max_size=4), st.booleans()
    ).map(_element),
    max_leaves=24,
)
HTML = st.lists(NODE, min_size=1, max_size=4).map("".join)
OPTIONS = st.builds(
    TokenizerOptions,
    stopwords=st.sampled_from([DEFAULT_STOPWORDS, frozenset()]),
    min_length=st.integers(1, 4),
    drop_digits=st.booleans(),
    stem=st.booleans(),
)
ANCHORS = st.none() | st.lists(TEXT, max_size=4)


def flags(stream):
    """(term, in_title, in_emphasis, in_link) per token of a TokenStream or
    of a list of offset tokens."""
    if isinstance(stream, TokenStream):
        return rows(stream)
    return [(t.term, t.in_title, t.in_emphasis, t.in_link) for t in stream]


def criteria_items(stream):
    """The criteria map in term order, floats as exact bit patterns; offset
    tokens are converted to a TokenStream first.  The map's own order is
    its term ids', which depend on the table's history."""
    if not isinstance(stream, TokenStream):
        stream = stream_of(stream)
    return sorted(
        (term, c.freq_norm.hex(), c.title_norm.hex(), c.emph_norm.hex(),
         [p.hex() for p in c.positions], c.raw_tf)
        for term, c in extract_criteria(stream).items()
    )


def parse_both(html, options):
    """Both parses, or None for each when both find the document empty."""
    try:
        want = parse_html_reference(html, options=options)
    except EmptyDocument:
        with pytest.raises(EmptyDocument):
            parse_html(html, table=TermTable(options))
        return None, None
    return parse_html(html, table=TermTable(options)), want


class TestAgainstOffsetTokenizer:
    @given(text=TEXT, options=OPTIONS)
    def test_tokenize(self, text, options):
        assert tokenize(text, options) == tokenize_reference(text, options)

    @given(html=HTML, options=OPTIONS)
    def test_parse_and_criteria(self, html, options):
        got, want = parse_both(html, options)
        if want is not None:
            assert flags(got) == flags(want)
            assert criteria_items(got) == criteria_items(want)

    @given(html=HTML, anchors=ANCHORS, options=OPTIONS)
    def test_anchor_variants(self, html, anchors, options):
        got, want = parse_both(html, options)
        if want is None:
            return
        for variant in ANCHOR_VARIANTS:
            new = apply_anchor_variant(got, anchors, variant)
            old = apply_anchor_variant_reference(want, anchors, variant, options)
            assert flags(new) == flags(old), variant
            if old:
                assert criteria_items(new) == criteria_items(old), variant


# Start and end tags in any order, so that end tags close unclosed children
# and stray end tags close nothing.
SOUP = st.lists(
    st.sampled_from(TAGS).flatmap(lambda tag: st.sampled_from([f"<{tag}>", f"</{tag}>"]))
    | st.sampled_from(["fuzzy", "logic", "web", "x"]),
    min_size=1,
    max_size=24,
).map(" ".join)
# Documents of one token, and documents without title or emphasis, beside
# the tag soup.
DOCUMENT = st.one_of(
    HTML,
    SOUP,
    SOUP,
    TEXT,
    TEXT.map(lambda text: f"<p>{text}</p>"),
    st.sampled_from(["fuzzy", "<b>logic</b>", "<title>web</title>", '<a href="x">rust</a>']),
)
CORPUS_DOCS = st.lists(st.tuples(DOCUMENT, ANCHORS), min_size=1, max_size=4)
CORPUS_OPTIONS = st.one_of(OPTIONS, st.just(TokenizerOptions(min_length=1, stem=True)))
CORPUS_FIELDS = (
    "doc_offsets", "term_ids", "freq", "title", "emph", "raw_tf", "positions", "pos_offsets",
)


def package_parse(builder, html, options):
    return parse_html(html, table=builder.table)


def reference_parse(builder, html, options):
    return parse_tokens_reference(html, options=options)


# (builder for the options, parse, anchor variant, criteria) of the package,
# which tokenizes through the builder's term table, and of the per-token
# reference
PACKAGE_PATH = (
    CorpusBuilder,
    package_parse,
    lambda stream, anchors, variant, options: apply_anchor_variant(stream, anchors, variant),
    extract_criteria,
)
REFERENCE_PATH = (
    lambda options: CorpusBuilderReference(),
    reference_parse,
    apply_anchor_variant_tokens_reference,
    extract_criteria_reference,
)


def pack_corpus(docs, variant, options, path):
    """The corpus of the documents that keep a token, packed one at a time
    along path, with each document's pairs in term-id order, and the
    indices of those documents."""
    builder_for, parse, anchor, criteria = path
    builder = builder_for(options)
    kept = []
    for i, (html, anchors) in enumerate(docs):
        try:
            stream = parse(builder, html, options)
            if variant is not None:
                stream = anchor(stream, anchors, variant, options)
            builder.add(f"d{i}", criteria(stream))
        except EmptyDocument:
            continue
        kept.append(i)
    return pairs_by_term(builder.build()), kept


# Corpora whose documents share one term table, with the tokenizer options
# they are read with.  Their tokens reach every branch of the table's
# filter, and a token the filter dropped comes again in a later document or
# an anchor text, where the table answers from its cache.
FILTER_CORPORA = {
    "stopwords, digits, one letter": (
        [
            ("<title>The Fuzzy Web</title><p>a 42 x fuzzy logic of the 2024 web</p>",
             ["click here for fuzzy logic", "the 7 x home page"]),
            ("<p>42 the x again: fuzzy <b>rules</b> 2024</p>", ["site 42 web", "x"]),
            ("<p>the of a 42</p>", ["fuzzy"]),
            ("<p>fish &amp; chips, the 42 <!-- x --> fuzzy</p>", None),
            ('<a href="x">link here</a> web <b>page</b> x 9', ["homepage web", "link", "42"]),
        ],
        TokenizerOptions(),
    ),
    "raw tokens that stem to one term": (
        [
            ("<p>Jumped jumps JUMPING x 7 the</p>", ["jumping links", "pages here"]),
            ("<title>jumps</title><p>over <b>pages</b> page paged</p>", ["jumped", "x"]),
            ('<p title="a">the jumps</p> <!-- hidden --> paging', ["page"]),
        ],
        TokenizerOptions(min_length=1, stem=True),
    ),
    "custom options": (
        [
            ("<p>fuzzy web 42 2024 ab abc logic</p>", ["fuzzy 2024 here", "click ab"]),
            ("<title>Web 2024</title><p>abc &amp; logic ab</p>", ["web site", "42"]),
            ("<p>ab 42 fuzzy</p>", None),
        ],
        TokenizerOptions(stopwords=frozenset({"fuzzy", "web"}), min_length=3, drop_digits=False),
    ),
}


class TestAgainstTokenOracle:
    """The criteria path from markup to Corpus, byte for byte against the
    per-token path it replaced."""

    @pytest.mark.parametrize("corpus", FILTER_CORPORA)
    def test_shared_table_filter(self, corpus):
        docs, options = FILTER_CORPORA[corpus]
        for variant in (None, *ANCHOR_VARIANTS):
            got, kept = pack_corpus(docs, variant, options, PACKAGE_PATH)
            want, want_kept = pack_corpus(docs, variant, options, REFERENCE_PATH)
            assert kept == want_kept, variant
            assert got.doc_ids == want.doc_ids
            assert got.vocab == want.vocab
            for name in CORPUS_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, (variant, name)
                assert a.tobytes() == b.tobytes(), (variant, name)

    @given(html=DOCUMENT, options=CORPUS_OPTIONS)
    def test_token_flags(self, html, options):
        try:
            want = parse_tokens_reference(html, options=options)
        except EmptyDocument:
            with pytest.raises(EmptyDocument):
                parse_html(html, table=TermTable(options))
            return
        assert rows(parse_html(html, table=TermTable(options))) == flags(want)

    @given(docs=CORPUS_DOCS, options=CORPUS_OPTIONS)
    def test_built_documents_keep_the_criteria_rows(self, docs, options):
        builder = CorpusBuilder(options)
        added = []
        for i, (html, _) in enumerate(docs):
            try:
                columns = extract_criteria(parse_html(html, table=builder.table))
            except EmptyDocument:
                continue
            builder.add(f"d{i}", columns)
            added.append(columns)
        corpus = builder.build()
        assert corpus.n_docs == len(added)
        for d, columns in enumerate(added):
            start, stop = corpus.doc_offsets[d], corpus.doc_offsets[d + 1]
            assert [corpus.vocab[t] for t in corpus.term_ids[start:stop]] == columns.terms
            for name in ("freq", "title", "emph", "raw_tf"):
                got, want = getattr(corpus, name)[start:stop], getattr(columns, name)
                assert got.tolist() == want.tolist(), name
            n_positions = np.diff(corpus.pos_offsets[start:stop + 1])
            assert n_positions.tolist() == columns.n_positions.tolist()
            positions = corpus.positions[corpus.pos_offsets[start]:corpus.pos_offsets[stop]]
            assert positions.tobytes() == columns.positions.tobytes()

    @given(docs=CORPUS_DOCS, options=CORPUS_OPTIONS)
    def test_corpus_arrays(self, docs, options):
        for variant in (None, *ANCHOR_VARIANTS):
            got, kept = pack_corpus(docs, variant, options, PACKAGE_PATH)
            want, want_kept = pack_corpus(docs, variant, options, REFERENCE_PATH)
            assert kept == want_kept, variant
            assert got.doc_ids == want.doc_ids
            assert got.vocab == want.vocab
            for name in CORPUS_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, (variant, name)
                assert a.tobytes() == b.tobytes(), (variant, name)


# In-grammar tag soup for the scanner: nested elements in any case, some
# left unclosed or closed in another case, among void, self-closing and
# stray end tags, with unquoted attributes (a bare value takes a final "/",
# so <b class=k/> opens b) and text runs of non-ASCII words and of the
# characters that are plain text outside a tag.
SCAN_NAMES = st.sampled_from(
    "b B i em STRONG u big cite dfn Blockquote h1 h2 h3 h4 h5 H6 title Title a A p div span".split()
)
SCAN_ATTRS = st.sampled_from(["", " ", " href=x", " class=k", " x", " a=b c", "\tx=1", "/x"])
SCAN_TEXT = st.lists(
    st.sampled_from(
        ["fuzzy", "Logic", "web", "Σ", "ΟΔΟΣ", "İstanbul", "naïve", "日本語", " ", "\n",
         "x>y", "1/2", "a=b", '"quoted"', "it's"]
    ),
    min_size=1,
    max_size=3,
).map("".join)
SCAN_EMPTY = st.tuples(
    st.sampled_from(["<{}{}/>", "<{}{} />", "<{}{}>", "</{}{}>"]),
    SCAN_NAMES | st.sampled_from(["br", "BR", "img"]),
    SCAN_ATTRS,
).map(lambda t: t[0].format(t[1], t[2]))


def _scan_element(args):
    name, attrs, children, end = args
    return f"<{name}{attrs}>" + "".join(children) + end.format(name.swapcase())


SCAN_NODE = st.recursive(
    SCAN_TEXT | SCAN_EMPTY,
    lambda children: st.tuples(
        SCAN_NAMES, SCAN_ATTRS, st.lists(children, max_size=4),
        st.sampled_from(["", "</{}>", "</{} x>", "</{}/>"]),
    ).map(_scan_element),
    max_leaves=24,
)
SCAN_HTML = st.lists(SCAN_NODE, max_size=4).map("".join)
SCAN_EMPHASIS = st.sampled_from(
    [DEFAULT_EMPHASIS_TAGS, frozenset({"title", "b"}), frozenset({"a"}), frozenset({"p", "em"}),
     frozenset({"title", "a", "p", "i"})]
)


def extractor_segments(html, emphasis_tags):
    extractor = _TextExtractor(emphasis_tags)
    extractor.feed(html)
    extractor.close()
    return extractor.segments


# Documents outside the scanner's grammar: character references, comments,
# doctype, processing instructions, script and style, a "<" that opens no
# tag, a tag left open at the end, and quoted attributes.
OUT_OF_GRAMMAR = [
    "<p>fish &amp; chips</p>",
    "<p>fuzzy <!-- c --> logic</p>",
    "<!DOCTYPE html><p>fuzzy logic</p>",
    "<?xml ?><p>fuzzy logic</p>",
    "<script>var hidden;</script><p>fuzzy logic</p>",
    "<STYLE>p {}</STYLE><p>fuzzy logic</p>",
    "<p>fuzzy a < b logic</p>",
    "<p>fuzzy < b> logic</p>",
    "<b>fuzzy</ b> logic",
    "<b>fuzzy</> logic",
    "fuzzy logic <b",
    '<a title="x>y">fuzzy</a> logic',
    '<a x=y"z>w">fuzzy</a> logic',
]


class TestTagScanner:
    """The regex scanner against html.parser's `_TextExtractor`, which
    stays the reference and the fallback."""

    @given(html=SCAN_HTML, emphasis_tags=SCAN_EMPHASIS)
    def test_segments_equal_extractor(self, html, emphasis_tags):
        got = _scan_tags(html, emphasis_tags)
        assert got is not None
        assert got == extractor_segments(html, emphasis_tags)

    @pytest.mark.parametrize(
        "html, tail_emphasis",
        [
            ("<b/>after", False),
            ("<b />after", False),
            ("<b x/>after", False),
            ("<b class=k/>after", True),
            ("<b class= />after", True),
            ("<br>after", False),
            ("<b><br/>after", True),
            # a void tag never opens, so its end tag closes nothing
            ("<br><b></br>after", True),
        ],
    )
    def test_self_closing_and_void_tags(self, html, tail_emphasis):
        segments = _scan_tags(html, DEFAULT_EMPHASIS_TAGS)
        assert segments == extractor_segments(html, DEFAULT_EMPHASIS_TAGS)
        assert segments[-1] == ("after", False, tail_emphasis, False)

    @pytest.mark.parametrize("html", OUT_OF_GRAMMAR)
    def test_out_of_grammar_falls_back(self, html, caplog):
        assert _scan_tags(html, DEFAULT_EMPHASIS_TAGS) is None
        caplog.set_level(logging.DEBUG, logger="fuzzterm.ingest")
        got = parse_html(html, table=TermTable(NO_STOP))
        assert flags(got) == flags(parse_html_reference(html, options=NO_STOP))
        fallbacks = [r for r in caplog.records if r.name == "fuzzterm.ingest"]
        assert len(fallbacks) == 1 and "html.parser" in fallbacks[0].getMessage()

    def test_in_grammar_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="fuzzterm.ingest")
        parse_html("<title>Fuzzy</title><p>web <b>logic</b></p>")
        assert not [r for r in caplog.records if r.name == "fuzzterm.ingest"]

    @pytest.mark.parametrize(
        "seed, kwargs",
        [
            (0, {}),
            (1, {"with_titles": False}),
            (2, {"title_rhetoric": 3, "emphasis_prob": 0.5}),
            (3, {"doc_length": (1500, 3000), "vocab_per_category": 400, "shared_vocab": 3000}),
        ],
    )
    def test_generated_corpora_inside_grammar(self, tmp_path, seed, kwargs):
        # the benchmark's corpora come from generate_corpus: every document
        # it writes takes the scanner's path
        manifest = load_manifest(
            generate_corpus(tmp_path, categories=2, docs_per_category=4, seed=seed, **kwargs)
        )
        for entry in manifest.entries:
            html = entry.path.read_text(encoding="utf-8")
            segments = _scan_tags(html, DEFAULT_EMPHASIS_TAGS)
            assert segments is not None, entry.doc_id
            assert segments == extractor_segments(html, DEFAULT_EMPHASIS_TAGS)


class TestManifest:
    @staticmethod
    def write_corpus(tmp_path, lines, docs=("d1", "d2")):
        for d in docs:
            (tmp_path / f"{d}.html").write_text(f"<p>{d} text</p>", encoding="utf-8")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest

    def test_load(self, tmp_path):
        manifest = self.write_corpus(
            tmp_path,
            ["# comment", "d1\td1.html\tnews", "d2\td2.html\tsport"],
        )
        m = load_manifest(manifest)
        assert [e.doc_id for e in m.entries] == ["d1", "d2"]
        assert m.categories() == ["news", "sport"]
        assert {e.doc_id: e.category for e in m.entries}["d2"] == "sport"
        assert Counter(e.category for e in m.entries) == {"news": 1, "sport": 1}
        assert len(m) == 2

    def test_subset_preserves_order(self, tmp_path):
        # a stratified subset draws category by category; its rows still
        # list the documents in manifest order
        docs = ("d1", "d2", "d3", "d4", "d5", "d6")
        categories = ("news", "sport", "sport", "news", "sport", "news")
        manifest = self.write_corpus(
            tmp_path, [f"{d}\t{d}.html\t{c}" for d, c in zip(docs, categories)], docs
        )
        m = load_manifest(manifest)
        for rows in stratified_subsample([e.category for e in m.entries], 0.5, n=5, seed=0):
            ids = [m.entries[i].doc_id for i in rows]
            assert ids == sorted(ids, key=docs.index)

    def test_paths_through_parent_and_symlinked_directories(self, tmp_path):
        # the manifest directory is resolved once; entry paths keep their
        # ".." and symlinked parts and still name the documents
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "d1.html").write_text("<p>d1 text</p>", encoding="utf-8")
        (docs / "d2.html").write_text("<p>d2 text</p>", encoding="utf-8")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "link").symlink_to(docs, target_is_directory=True)
        manifest = sub / "manifest.tsv"
        manifest.write_text("d1\t../docs/d1.html\tnews\nd2\tlink/d2.html\tsport\n", encoding="utf-8")
        m = load_manifest(manifest)
        assert [e.path.read_text(encoding="utf-8") for e in m.entries] == [
            "<p>d1 text</p>",
            "<p>d2 text</p>",
        ]
        want = [(docs / name).resolve() for name in ("d1.html", "d2.html")]
        assert [e.path.resolve() for e in m.entries] == want

    def test_duplicate_doc_id(self, tmp_path):
        manifest = self.write_corpus(
            tmp_path, ["d1\td1.html\tnews", "d1\td2.html\tsport"]
        )
        with pytest.raises(ParseError, match="duplicate doc_id"):
            load_manifest(manifest)

    def test_wrong_field_count(self, tmp_path):
        manifest = self.write_corpus(tmp_path, ["d1\td1.html"])
        with pytest.raises(ParseError, match="3 tab-separated"):
            load_manifest(manifest)

    def test_missing_document(self, tmp_path):
        manifest = self.write_corpus(tmp_path, ["d1\tmissing.html\tnews"])
        with pytest.raises(ParseError, match="not found"):
            load_manifest(manifest)

    def test_empty_category(self, tmp_path):
        manifest = self.write_corpus(tmp_path, ["d1\td1.html\t"])
        with pytest.raises(ParseError, match="non-empty"):
            load_manifest(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(ParseError, match="no documents"):
            load_manifest(manifest)


class TestAnchorFiles:
    def test_read(self, tmp_path):
        (tmp_path / "d1.txt").write_text("one\n\n two \n", encoding="utf-8")
        assert read_anchor_texts(tmp_path, "d1") == ["one", "two"]

    def test_missing_file(self, tmp_path):
        assert read_anchor_texts(tmp_path, "nope") is None
        assert read_anchor_texts(None, "d1") is None

    @pytest.mark.parametrize("doc_id", ["../outside", "sub/d1", ".", "..", "ABSOLUTE"])
    def test_doc_id_outside_dir(self, tmp_path, doc_id):
        # a doc_id names a file directly inside anchors_dir, never one
        # elsewhere, even when that file exists
        anchors = tmp_path / "anchors"
        (anchors / "sub").mkdir(parents=True)
        (anchors / "sub" / "d1.txt").write_text("nested\n", encoding="utf-8")
        (tmp_path / "outside.txt").write_text("secret\n", encoding="utf-8")
        if doc_id == "ABSOLUTE":
            doc_id = str(tmp_path / "outside")
        with pytest.raises(ParseError, match=re.escape(repr(doc_id))):
            read_anchor_texts(anchors, doc_id)

    def test_cap(self, tmp_path):
        (tmp_path / "d1.txt").write_text(
            "\n".join(f"anchor {i}" for i in range(400)), encoding="utf-8"
        )
        texts = read_anchor_texts(tmp_path, "d1")
        # the file is read whole; merging keeps the first 300 anchors
        assert len(texts) == 400
        page = parse_html(b"<p>fuzzy logic</p>", table=TermTable(NO_STOP))
        merged = apply_anchor_variant(page, texts, "a1")
        assert merged.terms[len(page.terms):] == ["anchor"] * 300
