import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzterm import (
    Token,
    TokenizerOptions,
    apply_anchor_variant,
    extract_criteria,
    load_manifest,
    parse_html,
    read_anchor_texts,
    tokenize,
)
from fuzzterm.errors import EmptyDocument, ParseError
from fuzzterm.ingest import ANCHOR_VARIANTS, DEFAULT_STOPWORDS, strip_suffix

from oracles import apply_anchor_variant_reference, parse_html_reference, tokenize_reference

NO_STOP = TokenizerOptions(stopwords=frozenset())


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


class TestParseHtml:
    def test_title_and_emphasis_flags(self):
        tokens = parse_html(
            b"<html><title>Fuzzy Web</title><body>fuzzy <b>logic</b></body></html>"
        )
        assert [(t.term, t.in_title, t.in_emphasis) for t in tokens] == [
            ("fuzzy", True, False),
            ("web", True, False),
            ("fuzzy", False, False),
            ("logic", False, True),
        ]

    def test_heading_counts_as_emphasis(self):
        (tok,) = parse_html(b"<h3>Intro</h3>")
        assert tok.term == "intro"
        assert tok.in_emphasis

    def test_nested_emphasis_once(self):
        (tok,) = parse_html(b"<b><i>deep</i></b>")
        assert tok.in_emphasis

    def test_link_flag(self):
        tokens = parse_html(b'<p>see <a href="x">rust docs</a> today</p>', options=NO_STOP)
        flags = {t.term: t.in_link for t in tokens}
        assert flags == {"see": False, "rust": True, "docs": True, "today": False}

    def test_script_and_style_excluded(self):
        tokens = parse_html(
            b"<script>var ignored = 1;</script><style>.c{color:red}</style>"
            b"<p>visible</p>"
        )
        assert [t.term for t in tokens] == ["visible"]

    def test_unclosed_script_swallows_rest(self):
        with pytest.raises(EmptyDocument):
            parse_html(b"<script>function f() { body text here }")

    def test_tag_soup_does_not_abort(self):
        tokens = parse_html(b"<b>bold <p>paragraph</b> tail</p> plain", options=NO_STOP)
        terms = [t.term for t in tokens]
        assert terms == ["bold", "paragraph", "tail", "plain"]
        assert tokens[0].in_emphasis and tokens[1].in_emphasis
        assert not tokens[2].in_emphasis and not tokens[3].in_emphasis

    def test_entity_references_decoded(self):
        tokens = parse_html(b"<p>fish &amp; chips</p>", options=NO_STOP)
        assert [t.term for t in tokens] == ["fish", "chips"]

    def test_latin1_fallback(self):
        raw = "<p>caf\xe9 menu</p>".encode("latin-1")
        tokens = parse_html(raw, options=NO_STOP)
        assert tokens[0].term == "caf\xe9"

    def test_custom_emphasis_tags(self):
        tokens = parse_html(b"<b>one</b> <mark>two</mark>", emphasis_tags={"mark"}, options=NO_STOP)
        assert [(t.term, t.in_emphasis) for t in tokens] == [
            ("one", False),
            ("two", True),
        ]

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
            out.append(Token(term, in_title="t" in flags, in_emphasis="e" in flags))
        return out

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
            extract_criteria([])

    def test_parse_then_extract_deterministic(self):
        raw = b"<title>Topic One</title><p>alpha <b>beta</b> alpha</p>"
        assert extract_criteria(parse_html(raw)) == extract_criteria(parse_html(raw))


class TestAnchorVariants:
    BODY = [Token("alpha"), Token("rust", in_link=True), Token("beta")]

    def test_b1_appends_as_title(self):
        out = apply_anchor_variant(self.BODY, ["rust tutorial"], "b1", options=NO_STOP)
        appended = out[len(self.BODY):]
        assert [(t.term, t.in_title) for t in appended] == [
            ("rust", True),
            ("tutorial", True),
        ]

    def test_a1_appends_as_body(self):
        out = apply_anchor_variant(self.BODY, ["rust tutorial"], "a1", options=NO_STOP)
        appended = out[len(self.BODY):]
        assert all(not t.in_title and not t.in_emphasis for t in appended)

    def test_a2_removes_link_tokens(self):
        out = apply_anchor_variant(self.BODY, ["gamma"], "a2", options=NO_STOP)
        assert [t.term for t in out] == ["alpha", "beta", "gamma"]

    def test_a3_drops_anchor_stopwords(self):
        out = apply_anchor_variant(self.BODY, ["click here now"], "a3", options=NO_STOP)
        appended = out[len(self.BODY):]
        assert [t.term for t in appended] == ["now"]

    def test_missing_anchors_identity(self):
        out = apply_anchor_variant(self.BODY, None, "b2")
        assert out == self.BODY
        assert out is not self.BODY

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown anchor variant"):
            apply_anchor_variant(self.BODY, ["x"], "c1")

    def test_extract_after_b_variant_sets_title_norm(self):
        out = apply_anchor_variant(self.BODY, ["gamma gamma"], "b1", options=NO_STOP)
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
properties = settings(deadline=None, database=None)


def flags(stream):
    return [(t.term, t.in_title, t.in_emphasis, t.in_link) for t in stream]


def criteria_items(stream):
    """The criteria map in insertion order, floats as exact bit patterns."""
    return [
        (term, c.freq_norm.hex(), c.title_norm.hex(), c.emph_norm.hex(),
         [p.hex() for p in c.positions], c.raw_tf)
        for term, c in extract_criteria(stream).items()
    ]


def parse_both(html, options):
    """Both parses, or None for each when both find the document empty."""
    try:
        want = parse_html_reference(html, options=options)
    except EmptyDocument:
        with pytest.raises(EmptyDocument):
            parse_html(html, options=options)
        return None, None
    return parse_html(html, options=options), want


class TestAgainstOffsetTokenizer:
    @properties
    @given(text=TEXT, options=OPTIONS)
    def test_tokenize(self, text, options):
        assert tokenize(text, options) == tokenize_reference(text, options)

    @properties
    @given(html=HTML, options=OPTIONS)
    def test_parse_and_criteria(self, html, options):
        got, want = parse_both(html, options)
        if want is not None:
            assert flags(got) == flags(want)
            assert criteria_items(got) == criteria_items(want)

    @properties
    @given(html=HTML, anchors=ANCHORS, options=OPTIONS)
    def test_anchor_variants(self, html, anchors, options):
        got, want = parse_both(html, options)
        if want is None:
            return
        for variant in ANCHOR_VARIANTS:
            new = apply_anchor_variant(got, anchors, variant, options)
            old = apply_anchor_variant_reference(want, anchors, variant, options)
            assert flags(new) == flags(old), variant
            if old:
                assert criteria_items(new) == criteria_items(old), variant


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
        assert m.doc_ids() == ["d1", "d2"]
        assert m.categories() == ["news", "sport"]
        assert m.labels()["d2"] == "sport"
        assert m.category_sizes() == {"news": 1, "sport": 1}
        assert len(m) == 2

    def test_subset_preserves_order(self, tmp_path):
        manifest = self.write_corpus(
            tmp_path, ["d1\td1.html\tnews", "d2\td2.html\tsport"]
        )
        m = load_manifest(manifest).subset(["d2", "d1"])
        assert m.doc_ids() == ["d1", "d2"]

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

    def test_cap(self, tmp_path):
        (tmp_path / "d1.txt").write_text(
            "\n".join(f"anchor {i}" for i in range(400)), encoding="utf-8"
        )
        texts = read_anchor_texts(tmp_path, "d1")
        assert len(texts) == 300
