import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzterm import check_completeness, dumps_kb, load_bundled, load_kb, loads_kb
from fuzzterm import kernels
from fuzzterm.engine import FuzzySystem, LinguisticVariable, Rule, TrapezoidSet
from fuzzterm.errors import CompletenessError, ParseError
from fuzzterm.kb import MAIN_INPUT_ORDER, _coverage

VARIABLES = """\
[variable Frequency domain 0 1]
set low 0 0 0.2 0.4
set medium 0.2 0.4 0.6 0.8
set high 0.6 0.8 1 1

[variable Title domain 0 1]
set low 0 0 0.4 0.6
set high 0.4 0.6 1 1

[variable Emphasis domain 0 1]
set low 0 0 0.05 0.15
set medium 0.05 0.15 0.55 0.75
set high 0.55 0.75 1 1

[variable Position domain 0 1]
set standard 0 0 0.4 0.6
set preferential 0.4 0.6 1 1

[variable Importance domain 0 1]
set no 0 0 0.1 0.2
set low 0.1 0.2 0.3 0.4
set medium 0.3 0.4 0.6 0.7
set high 0.6 0.7 0.8 0.9
set very-high 0.8 0.9 1 1

[variable TermPosition domain 0 1]
set preferential-start 0 0 0.1 0.3
set standard 0.1 0.3 0.7 0.9
set preferential-end 0.7 0.9 1 1
"""

AUX_RULES = """\
[rules Position]
IF TermPosition IS preferential-start THEN preferential
IF TermPosition IS preferential-end THEN preferential
IF TermPosition IS standard THEN standard
"""

MAIN_RULES = """\
[rules Importance]
IF Emphasis IS low THEN no
IF Emphasis IS medium THEN medium
IF Emphasis IS high THEN very-high
"""


def make_text(main=MAIN_RULES, variables=VARIABLES, aux=AUX_RULES, meta=""):
    return "\n".join(part for part in (meta, variables, main, aux) if part)


def mesh(system, grid_per_axis):
    """The system's input mesh in row-major order, one point per row."""
    axes = [np.linspace(v.lo, v.hi, grid_per_axis) for v in system.input_vars]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def fired_on(system, X):
    """The rows of X where the inference kernel finds a nonzero aggregate."""
    return kernels.batch_infer(
        X, system._trap, system._var_of_set, system._ant, system._cons, system._m0, system._m1
    )[1]


class TestBundled:
    def test_names_and_flags(self):
        assert load_bundled("fcc").flags == ("reconstructed",)
        for name in ("addfcc", "efcc", "emph"):
            assert load_bundled(name).flags == ()
        for name in ("fcc", "addfcc", "efcc", "emph"):
            assert load_bundled(name).name == name

    def test_rule_counts(self):
        counts = {"fcc": 31, "addfcc": 10, "efcc": 14, "emph": 3}
        for name, n in counts.items():
            kb = load_bundled(name)
            assert len(kb.rules) == n, name
            assert len(kb.aux_rules) == 3, name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown bundled"):
            load_bundled("nope")

    def test_extended_base_title_emphasis_shortcut(self):
        # strong title and emphasis evidence alone reaches the top class
        kb = load_bundled("efcc")
        rule = kb.rules[0]
        assert rule.antecedents == (("Title", "high"), ("Emphasis", "high"))
        assert rule.consequent == ("Importance", "very-high")

    def test_additive_base_single_criterion_rules(self):
        kb = load_bundled("addfcc")
        assert all(len(r.antecedents) == 1 for r in kb.rules)
        assert (("Position", "preferential"),) in [r.antecedents for r in kb.rules]

    def test_all_bundled_complete(self):
        for name in ("fcc", "addfcc", "efcc", "emph"):
            check_completeness(load_bundled(name), grid_per_axis=21)


class TestReconstructedBase:
    """Behavioral anchors the four-criterion base is built around."""

    CORNERS = {
        "no": 0.0777777777777778,
        "low": 0.25,
        "medium": 0.5,
        "high": 0.75,
        "very-high": 0.9222222222222222,
    }

    @staticmethod
    def infer(t, f, e, p):
        return load_bundled("fcc").system().infer(
            {"Frequency": f, "Title": t, "Emphasis": e, "Position": p}
        )

    def test_title_alone_is_modest(self):
        # in title, rare, unemphasized, standard position -> low
        assert self.infer(1, 0, 0, 0.2) == pytest.approx(self.CORNERS["low"], abs=1e-3)

    def test_title_with_emphasis_overshoots(self):
        assert self.infer(1, 0, 1, 0.8) == pytest.approx(
            self.CORNERS["very-high"], abs=1e-3
        )

    def test_emphasis_with_some_frequency_overshoots(self):
        assert self.infer(0, 0.5, 1, 0.8) == pytest.approx(
            self.CORNERS["very-high"], abs=1e-3
        )

    def test_preferential_position_penalized_without_support(self):
        preferential = self.infer(0, 0.5, 0, 0.8)
        standard = self.infer(0, 0.5, 0, 0.2)
        assert preferential == pytest.approx(self.CORNERS["no"], abs=1e-3)
        assert standard == pytest.approx(self.CORNERS["low"], abs=1e-3)
        assert preferential < standard


class TestParser:
    def test_minimal_base_loads(self):
        kb = loads_kb(make_text())
        assert len(kb.rules) == 3
        assert kb.name == "kb"

    def test_meta_name_and_flags(self):
        kb = loads_kb(make_text(meta="[meta]\nname custom\nflags tuned, extra"))
        assert kb.name == "custom"
        assert kb.flags == ("tuned", "extra")

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + make_text().replace(
            "set low 0 0 0.2 0.4", "set low 0 0 0.2 0.4  # inline"
        )
        loads_kb(text)

    def test_file_loading(self, tmp_path):
        p = tmp_path / "mini.kb"
        p.write_text(make_text(), encoding="utf-8")
        kb = load_kb(p)
        assert kb.name == "mini"

    def test_unknown_set_label_in_rule(self):
        text = make_text(
            main="[rules Importance]\nIF Title IS Huge THEN medium\n"
            "IF Emphasis IS low THEN no\n"
        )
        with pytest.raises(ParseError, match="has no set 'Huge'"):
            loads_kb(text)

    def test_unknown_consequent_label(self):
        text = make_text(
            main="[rules Importance]\nIF Emphasis IS low THEN gigantic\n"
        )
        with pytest.raises(ParseError, match="has no set 'gigantic'"):
            loads_kb(text)

    def test_unknown_variable_in_rule(self):
        text = make_text(
            main="[rules Importance]\nIF Colour IS low THEN no\n"
        )
        with pytest.raises(ParseError, match="unknown variable 'Colour'"):
            loads_kb(text)

    def test_aux_variable_rejected_in_main_block(self):
        text = make_text(
            main="[rules Importance]\nIF TermPosition IS standard THEN no\n"
        )
        with pytest.raises(ParseError, match="cannot appear"):
            loads_kb(text)

    def test_rule_grammar_missing_is(self):
        text = make_text(
            main="[rules Importance]\nIF Emphasis WAS low AND THEN no\n"
        )
        with pytest.raises(ParseError, match="expected IS"):
            loads_kb(text)

    def test_rule_grammar_too_short(self):
        text = make_text(main="[rules Importance]\nIF Emphasis low THEN no\n")
        with pytest.raises(ParseError, match="rule must look like"):
            loads_kb(text)

    def test_rule_grammar_missing_then(self):
        text = make_text(main="[rules Importance]\nIF Emphasis IS low no\n")
        with pytest.raises(ParseError):
            loads_kb(text)

    @pytest.mark.parametrize("header", ["[]", "[ ]"])
    def test_empty_header(self, header):
        with pytest.raises(ParseError, match="empty section header") as exc:
            loads_kb(make_text() + f"\n{header}\n")
        assert exc.value.line == make_text().count("\n") + 2

    def test_unterminated_header(self):
        with pytest.raises(ParseError, match="unterminated"):
            loads_kb("[variable Frequency domain 0 1\nset low 0 0 1 1\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            loads_kb("[wibble]\n" + make_text())

    def test_content_before_sections(self):
        with pytest.raises(ParseError, match="before any section"):
            loads_kb("set low 0 0 1 1\n" + make_text())

    def test_duplicate_variable(self):
        text = make_text() + "\n[variable Title domain 0 1]\nset low 0 0 1 1\n"
        with pytest.raises(ParseError, match="duplicate variable"):
            loads_kb(text)

    def test_bad_number(self):
        text = make_text().replace("set low 0 0 0.2 0.4", "set low 0 0 x 0.4", 1)
        with pytest.raises(ParseError, match="expected a number"):
            loads_kb(text)

    def test_missing_variable(self):
        text = make_text(
            variables=VARIABLES.replace(
                "[variable Position domain 0 1]\n"
                "set standard 0 0 0.4 0.6\n"
                "set preferential 0.4 0.6 1 1\n",
                "",
            ),
            aux="",
            main=MAIN_RULES,
        )
        with pytest.raises(ParseError, match="missing variable 'Position'"):
            loads_kb(text)

    def test_missing_rule_block(self):
        with pytest.raises(ParseError, match=r"missing or empty rule block"):
            loads_kb(make_text(aux=""))

    def test_error_carries_line_number(self):
        text = make_text(
            main="[rules Importance]\nIF Title IS Huge THEN medium\n"
        )
        with pytest.raises(ParseError) as exc:
            loads_kb(text)
        assert exc.value.line is not None
        assert str(exc.value).startswith(f"<string>:{exc.value.line}:")

    def test_incomplete_rule_base_rejected(self):
        text = make_text(
            main="[rules Importance]\nIF Frequency IS high THEN very-high\n"
        )
        with pytest.raises(CompletenessError, match="no rule fires"):
            loads_kb(text)

    @pytest.mark.parametrize("block", [8192, 100_000])
    def test_first_hole_matches_full_mesh(self, block):
        # With Frequency high and Emphasis not high, no rule fires where
        # Title is low and Position preferential, or the other way round.
        # The first such mesh row lies past row 100,000, so a reference walk
        # of the mesh in blocks of either size finds it past its first
        # block; the first hole in column-major order is a different point.
        F, T, P = "Frequency", "Title", "Position"
        rules = (
            Rule(((F, "low"),), ("Importance", "no")),
            Rule(((F, "medium"),), ("Importance", "low")),
            Rule(((F, "high"), (T, "low"), (P, "standard")), ("Importance", "high")),
            Rule(
                ((F, "high"), (T, "high"), (P, "preferential")), ("Importance", "high")
            ),
            Rule((("Emphasis", "high"),), ("Importance", "very-high")),
        )
        kb = replace(loads_kb(make_text()), rules=rules)
        grid = mesh(kb.system(), 21)
        starts = range(0, len(grid), block)
        holes = (
            start + np.flatnonzero(~fired_on(kb.system(), grid[start : start + block]))
            for start in starts
        )
        first = int(next(h[0] for h in holes if h.size))
        assert first > 100_000
        point = ", ".join(
            f"{name}={val:g}" for name, val in zip(MAIN_INPUT_ORDER, grid[first])
        )
        with pytest.raises(CompletenessError, match=re.escape(f"at ({point})")):
            check_completeness(kb)

    @pytest.mark.parametrize("grid", [1, 0, -1])
    def test_grid_below_two_rejected(self, grid):
        with pytest.raises(ValueError, match="at least 2"):
            check_completeness(load_bundled("emph"), grid)

    def test_incomplete_aux_block_rejected(self):
        text = make_text(
            aux="[rules Position]\nIF TermPosition IS standard THEN standard\n"
        )
        with pytest.raises(CompletenessError, match="auxiliary"):
            loads_kb(text)


BREAKPOINT = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@st.composite
def rule_bases(draw):
    """A FuzzySystem of 1-4 inputs with random trapezoids (shoulders and
    zero-width plateaus included) and random rules, complete or not."""
    variables = []
    for vi in range(draw(st.integers(1, 4))):
        # a full-domain set keeps each variable covered; rules may skip it
        sets = [TrapezoidSet("all", 0.0, 0.0, 1.0, 1.0)]
        for si in range(draw(st.integers(1, 3))):
            a, b, c, d = sorted(draw(st.lists(BREAKPOINT, min_size=4, max_size=4)))
            if a < d:
                sets.append(TrapezoidSet(f"s{si}", a, b, c, d))
        variables.append(LinguisticVariable(f"v{vi}", tuple(sets)))
    out = LinguisticVariable(
        "out", (TrapezoidSet("lo", 0.0, 0.0, 0.4, 0.6), TrapezoidSet("hi", 0.4, 0.6, 1.0, 1.0))
    )
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        clauses = [
            (var.name, label)
            for var in variables
            if (label := draw(st.sampled_from((None, None) + var.labels()))) is not None
        ]
        if clauses:
            rules.append(Rule(tuple(clauses), ("out", draw(st.sampled_from(out.labels())))))
    if not rules:
        rules.append(Rule(((variables[0].name, variables[0].labels()[-1]),), ("out", "lo")))
    return FuzzySystem(variables, out, rules)


class TestCoverage:
    @settings(deadline=None, database=None)
    @given(system=rule_bases(), grid_per_axis=st.sampled_from([2, 3, 5, 8, 11]))
    def test_factored_coverage_equals_kernel_on_the_mesh(self, system, grid_per_axis):
        _, covered = _coverage(system, grid_per_axis)
        assert covered.shape == (grid_per_axis,) * len(system.input_vars)
        np.testing.assert_array_equal(
            covered.ravel(), fired_on(system, mesh(system, grid_per_axis))
        )


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["fcc", "addfcc", "efcc", "emph"])
    def test_dump_load_preserves_weights(self, name):
        kb = load_bundled(name)
        clone = loads_kb(dumps_kb(kb))
        assert clone.name == kb.name
        assert clone.flags == kb.flags
        assert len(clone.rules) == len(kb.rules)
        rng = np.random.default_rng(3)
        X = rng.random((50, 4))
        np.testing.assert_array_equal(
            clone.system().infer_batch(X), kb.system().infer_batch(X)
        )
        aux = rng.random((20, 1))
        np.testing.assert_array_equal(
            clone.aux_system().infer_batch(aux), kb.aux_system().infer_batch(aux)
        )

    def test_dump_is_stable(self):
        kb = load_bundled("efcc")
        text = dumps_kb(kb)
        assert dumps_kb(loads_kb(text)) == text

    def test_dump_to_file(self, tmp_path):
        from fuzzterm import dump_kb

        kb = load_bundled("emph")
        out = tmp_path / "emph_copy.kb"
        dump_kb(kb, out)
        assert load_kb(out).rules == kb.rules
