import numpy as np
import pytest

from fuzzterm import (
    FuzzySystem,
    LinguisticVariable,
    Rule,
    TrapezoidSet,
    global_position,
    load_bundled,
)
from fuzzterm.engine import global_position_batch
from fuzzterm.errors import EmptyPositions, InvalidRuleBase, NoRuleFired

from oracles import centroid_of_mixture, trapezoid_membership

EMPH_SETS = {
    "low": (0.0, 0.0, 0.05, 0.15),
    "medium": (0.05, 0.15, 0.55, 0.75),
    "high": (0.55, 0.75, 1.0, 1.0),
}
IMPORTANCE_SETS = {
    "no": (0.0, 0.0, 0.1, 0.2),
    "low": (0.1, 0.2, 0.3, 0.4),
    "medium": (0.3, 0.4, 0.6, 0.7),
    "high": (0.6, 0.7, 0.8, 0.9),
    "very-high": (0.8, 0.9, 1.0, 1.0),
}
EMPH_RULES = {"low": "no", "medium": "medium", "high": "very-high"}


def emph_expected(e):
    """Closed-form expectation for the emphasis-only base at input e."""
    contributions = []
    for label, params in EMPH_SETS.items():
        degree = trapezoid_membership(e, *params)
        if degree > 0.0:
            contributions.append((degree, IMPORTANCE_SETS[EMPH_RULES[label]]))
    return centroid_of_mixture(contributions)


class TestTrapezoidSet:
    def test_membership_points(self):
        s = TrapezoidSet("x", 0.1, 0.3, 0.5, 0.7)
        assert s.membership(0.2) == pytest.approx(0.5)
        assert s.membership(0.4) == 1.0
        assert s.membership(0.9) == 0.0
        assert s.membership(0.05) == 0.0

    def test_breakpoints_exact(self):
        s = TrapezoidSet("x", 0.1, 0.3, 0.5, 0.7)
        assert s.membership(0.3) == 1.0
        assert s.membership(0.5) == 1.0
        assert s.membership(0.1) == 0.0
        assert s.membership(0.7) == 0.0

    def test_shoulder_sets(self):
        left = TrapezoidSet("l", 0.0, 0.0, 0.1, 0.3)
        assert left.membership(0.0) == 1.0
        right = TrapezoidSet("r", 0.7, 0.9, 1.0, 1.0)
        assert right.membership(1.0) == 1.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TrapezoidSet("x", 0.5, 0.3, 0.6, 0.7)

    def test_spike_rejected(self):
        with pytest.raises(ValueError):
            TrapezoidSet("x", 0.5, 0.5, 0.5, 0.5)


class TestLinguisticVariable:
    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            LinguisticVariable(
                "v",
                (TrapezoidSet("a", 0, 0, 0.5, 1), TrapezoidSet("a", 0, 0.5, 1, 1)),
            )

    def test_coverage_gap(self):
        with pytest.raises(ValueError, match="covers"):
            LinguisticVariable(
                "v",
                (TrapezoidSet("a", 0, 0, 0.1, 0.2), TrapezoidSet("b", 0.8, 0.9, 1, 1)),
            )

    def test_out_of_domain_set(self):
        with pytest.raises(ValueError, match="domain"):
            LinguisticVariable("v", (TrapezoidSet("a", 0, 0, 1, 1.5),))


class TestInference:
    def test_single_rule_plateau(self):
        kb = load_bundled("emph")
        out = kb.system().infer(
            {"Frequency": 0, "Title": 0, "Emphasis": 0.8, "Position": 0}
        )
        expected = centroid_of_mixture([(1.0, IMPORTANCE_SETS["very-high"])])
        assert out == pytest.approx(expected, abs=1e-3)

    def test_two_rule_mixture(self):
        kb = load_bundled("emph")
        out = kb.system().infer(
            {"Frequency": 0, "Title": 0, "Emphasis": 0.1, "Position": 0}
        )
        # degrees 0.5/0.5 across low->no and medium->medium
        expected = centroid_of_mixture(
            [(0.5, IMPORTANCE_SETS["no"]), (0.5, IMPORTANCE_SETS["medium"])]
        )
        assert expected == pytest.approx(0.35925925925925924)
        assert out == pytest.approx(expected, abs=1e-3)

    def test_golden_landmarks(self):
        kb = load_bundled("emph")
        system = kb.system()
        landmarks = {
            0.0: 0.0777777777777778,
            0.3: 0.5,
            0.8: 0.9222222222222222,
        }
        for e, expected in landmarks.items():
            out = system.infer(
                {"Frequency": 0, "Title": 0, "Emphasis": e, "Position": 0}
            )
            assert out == pytest.approx(expected, abs=1e-3), e

    def test_sweep_matches_closed_form(self):
        kb = load_bundled("emph")
        system = kb.system()
        X = np.zeros((101, 4))
        X[:, 2] = np.linspace(0, 1, 101)
        out = system.infer_batch(X)
        for e, got in zip(X[:, 2], out):
            assert got == pytest.approx(emph_expected(float(e)), abs=1e-3)

    def test_monotone_in_emphasis(self):
        kb = load_bundled("emph")
        X = np.zeros((101, 4))
        X[:, 2] = np.linspace(0, 1, 101)
        out = kb.system().infer_batch(X)
        assert (np.diff(out) >= -1e-12).all()

    def test_output_within_domain(self):
        kb = load_bundled("efcc")
        rng = np.random.default_rng(0)
        X = rng.random((500, 4))
        out = kb.system().infer_batch(X)
        assert (out >= 0).all() and (out <= 1).all()

    def test_scale_invariance_of_firing(self):
        # same truth degree on both rules cancels in the centroid ratio
        var = LinguisticVariable(
            "v", (TrapezoidSet("a", 0, 0, 0.5, 1), TrapezoidSet("b", 0.5, 1, 1, 1))
        )
        out_var = LinguisticVariable(
            "w", (TrapezoidSet("lo", 0, 0, 0.4, 0.6), TrapezoidSet("hi", 0.4, 0.6, 1, 1))
        )
        rules = (
            Rule((("v", "a"),), ("w", "lo")),
            Rule((("v", "a"),), ("w", "hi")),
        )
        system = FuzzySystem((var,), out_var, rules)
        # degrees 0.6 at x=0.7 and 0.2 at x=0.9 scale both rules equally
        assert system.infer({"v": 0.7}) == pytest.approx(system.infer({"v": 0.9}))

    def test_inputs_clamped_to_domain(self):
        kb = load_bundled("emph")
        high = kb.system().infer(
            {"Frequency": 0, "Title": 0, "Emphasis": 1.7, "Position": 0}
        )
        assert high == kb.system().infer(
            {"Frequency": 0, "Title": 0, "Emphasis": 1.0, "Position": 0}
        )

    def test_quadrature_doubling_stable(self):
        kb = load_bundled("emph")
        rng = np.random.default_rng(42)
        X = np.zeros((100, 4))
        X[:, 2] = rng.random(100)
        base = kb.system(grid_points=1001).infer_batch(X)
        fine = kb.system(grid_points=2001).infer_batch(X)
        assert np.abs(base - fine).max() < 1e-4

    def test_no_rule_fired(self):
        var = LinguisticVariable(
            "v", (TrapezoidSet("a", 0, 0, 0.5, 1), TrapezoidSet("b", 0, 0.5, 1, 1))
        )
        out_var = LinguisticVariable("w", (TrapezoidSet("lo", 0, 0, 1, 1),))
        system = FuzzySystem((var,), out_var, (Rule((("v", "b"),), ("w", "lo")),))
        with pytest.raises(NoRuleFired):
            system.infer({"v": 0.0})

    def test_zero_area_output_set_rejected(self):
        # no quadrature midpoint (0.25, 0.75) falls inside (0.4, 0.6)
        var = LinguisticVariable("v", (TrapezoidSet("a", 0, 0, 1, 1),))
        out_var = LinguisticVariable(
            "w", (TrapezoidSet("wide", 0, 0, 1, 1), TrapezoidSet("spike", 0.4, 0.5, 0.5, 0.6))
        )
        rule = Rule((("v", "a"),), ("w", "wide"))
        assert FuzzySystem((var,), out_var, (rule,)).infer({"v": 0.5}) == pytest.approx(0.5)
        with pytest.raises(InvalidRuleBase, match="output set 'spike' has zero"):
            FuzzySystem((var,), out_var, (rule,), grid_points=2)

    def test_unknown_label_rejected(self):
        var = LinguisticVariable("v", (TrapezoidSet("a", 0, 0, 1, 1),))
        out_var = LinguisticVariable("w", (TrapezoidSet("lo", 0, 0, 1, 1),))
        with pytest.raises(InvalidRuleBase):
            FuzzySystem((var,), out_var, (Rule((("v", "huge"),), ("w", "lo")),))
        with pytest.raises(InvalidRuleBase):
            FuzzySystem((var,), out_var, (Rule((("v", "a"),), ("w", "huge")),))

    def test_explain_lists_fired_rules(self):
        kb = load_bundled("emph")
        records = kb.system().explain(
            {"Frequency": 0, "Title": 0, "Emphasis": 0.1, "Position": 0}
        )
        assert sorted(r.consequent for r in records) == ["medium", "no"]
        assert all(r.degree == pytest.approx(0.5) for r in records)

    def test_missing_input_rejected(self):
        kb = load_bundled("emph")
        with pytest.raises(KeyError):
            kb.system().infer({"Emphasis": 0.5})


class TestGlobalPosition:
    def test_start_is_preferential(self):
        aux = load_bundled("efcc").aux_system()
        score = global_position([0.0], aux)
        expected = centroid_of_mixture([(1.0, (0.4, 0.6, 1.0, 1.0))])
        assert score == pytest.approx(expected, abs=1e-3)
        assert score > 0.5

    def test_middle_is_standard(self):
        aux = load_bundled("efcc").aux_system()
        score = global_position([0.5], aux)
        expected = centroid_of_mixture([(1.0, (0.0, 0.0, 0.4, 0.6))])
        assert score == pytest.approx(expected, abs=1e-3)
        assert score < 0.5

    def test_max_combiner(self):
        aux = load_bundled("efcc").aux_system()
        assert global_position([0.5, 0.01], aux) == global_position([0.01], aux)

    def test_end_matches_start(self):
        aux = load_bundled("efcc").aux_system()
        assert global_position([1.0], aux) == pytest.approx(
            global_position([0.0], aux), abs=1e-9
        )

    def test_empty_positions(self):
        aux = load_bundled("efcc").aux_system()
        with pytest.raises(EmptyPositions):
            global_position([], aux)

    def test_batch_matches_scalar(self):
        aux = load_bundled("efcc").aux_system()
        groups = [[0.1, 0.9], [0.5], [0.33, 0.4, 0.2]]
        flat = np.array([p for g in groups for p in g])
        offsets = np.array([0, 2, 3, 6])
        batch = global_position_batch(flat, offsets, aux)
        for got, group in zip(batch, groups):
            assert got == pytest.approx(global_position(group, aux))
