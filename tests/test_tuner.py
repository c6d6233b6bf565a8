import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fuzzterm
from fuzzterm import DistributionProfile, check_completeness, dumps_kb, load_bundled, tune_afcc
from fuzzterm.engine import LinguisticVariable
from fuzzterm.errors import EmptyProfile
from fuzzterm.ingest import TermCriteria
from fuzzterm.kb import BUNDLED_NAMES, _sorted_quantile, profile_criterion

from oracles import tune_afcc_reference


def crit(freq=0.0, title=0.0, emph=0.0):
    return TermCriteria(
        freq_norm=freq, title_norm=title, emph_norm=emph, positions=(0.0,), raw_tf=1
    )


class TestDistributionProfile:
    def test_sorts_values(self):
        p = DistributionProfile("frequency", [0.9, 0.1, 0.5])
        np.testing.assert_array_equal(p.values, [0.1, 0.5, 0.9])

    def test_empty_rejected(self):
        with pytest.raises(EmptyProfile):
            DistributionProfile("frequency", [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DistributionProfile("frequency", [0.0, 0.5])
        with pytest.raises(ValueError):
            DistributionProfile("frequency", [0.5, 1.2])

    @pytest.mark.parametrize("values", [[0.5, np.nan], [np.nan]])
    def test_nan_rejected(self, values):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            DistributionProfile("frequency", values)

    def test_frac_below(self):
        p = DistributionProfile("frequency", [0.1, 0.1, 0.3, 0.9])
        assert p.frac_below(0.2) == 0.5
        # boundary values are not "below"
        assert DistributionProfile("x", [0.2]).frac_below(0.2) == 0.0

    def test_quantile(self):
        p = DistributionProfile("frequency", [0.2, 0.4, 0.6, 0.8])
        assert p.quantile(0.5) == pytest.approx(0.5)
        assert (p.quantile(0.0), p.quantile(1.0)) == (0.2, 0.8)


class TestProfileCriterion:
    def test_pools_nonzero_values_across_docs(self):
        corpus = {
            "d1": {"alpha": crit(freq=0.5, title=1.0), "beta": crit(freq=1.0)},
            "d2": {"alpha": crit(freq=0.25, emph=0.4)},
        }
        p = profile_criterion(corpus, "frequency")
        np.testing.assert_array_equal(p.values, [0.25, 0.5, 1.0])
        np.testing.assert_array_equal(
            profile_criterion(corpus, "title").values, [1.0]
        )
        np.testing.assert_array_equal(
            profile_criterion(corpus, "emphasis").values, [0.4]
        )

    def test_all_zero_raises(self):
        corpus = {"d1": {"alpha": crit(freq=0.5)}}
        with pytest.raises(EmptyProfile):
            profile_criterion(corpus, "emphasis")

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            profile_criterion({}, "positions")


# deterministic pools for the branch tests; the tail holds eight evenly
# spaced values so the interpolated quantiles are easy to freeze
HEAVY = [0.05] * 7 + [0.1] * 5 + [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
FLAT = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def edges_of(var):
    low = var.sets[0]
    _, _, p1, p2 = low.params
    return p1, p2


class TestTuner:
    def test_heavy_tail_frequency_pins_first_edge(self):
        p = DistributionProfile("frequency", HEAVY)
        assert p.frac_below(0.2) == pytest.approx(0.6)
        kb = tune_afcc(load_bundled("efcc"), {"frequency": p})
        a, b, c, d = kb.frequency.sets[1].params  # medium
        # [DERIVED] linear-interpolated 25/50/75 quantiles of the tail
        assert (a, b) == pytest.approx((0.2, 0.375))
        assert (c, d) == pytest.approx((0.55, 0.725))
        hi = kb.frequency.sets[2].params
        assert hi == pytest.approx((0.55, 0.725, 1.0, 1.0))

    def test_flat_frequency_uses_plain_quantiles(self):
        p = DistributionProfile("frequency", FLAT)
        assert p.frac_below(0.2) < 0.55
        kb = tune_afcc(load_bundled("efcc"), {"frequency": p})
        a, b, c, d = kb.frequency.sets[1].params
        # [DERIVED] 0.2/0.4/0.6/0.8 quantiles of ten evenly spaced values
        assert (a, b, c, d) == pytest.approx((0.28, 0.46, 0.64, 0.82))

    def test_heavy_tail_emphasis_halves_tail_mass(self):
        p = DistributionProfile("emphasis", HEAVY)
        kb = tune_afcc(load_bundled("efcc"), {"emphasis": p})
        a, b, c, d = kb.emphasis.sets[1].params
        # [DERIVED] tail quantiles at 1/2, 3/4, 7/8
        assert (a, b, c, d) == pytest.approx((0.2, 0.55, 0.725, 0.8125))

    def test_flat_emphasis_uses_base_fractions(self):
        p = DistributionProfile("emphasis", FLAT)
        kb = tune_afcc(load_bundled("efcc"), {"emphasis": p})
        a, b, c, d = kb.emphasis.sets[1].params
        # [DERIVED] 0.05/0.15/0.55/0.75 quantiles of FLAT
        assert (a, b, c, d) == pytest.approx((0.145, 0.235, 0.595, 0.775))

    def test_title_edges_from_lowest_band(self):
        p = DistributionProfile("title", [0.2, 0.4, 0.6, 0.8, 1.0])
        kb = tune_afcc(load_bundled("efcc"), {"title": p})
        # [DERIVED] lowest value 0.2 sits at rank 0.2 -> second edge q(0.6)
        assert edges_of(kb.title) == pytest.approx((0.2, 0.68))

    def test_title_edges_with_ties_at_bottom(self):
        p = DistributionProfile("title", [0.5] * 3 + [1.0] * 7)
        kb = tune_afcc(load_bundled("efcc"), {"title": p})
        assert edges_of(kb.title) == pytest.approx((0.5, 1.0))

    def test_missing_profile_keeps_base_sets(self):
        base = load_bundled("efcc")
        kb = tune_afcc(base, {"frequency": DistributionProfile("frequency", FLAT)})
        assert kb.title == base.title
        assert kb.emphasis == base.emphasis
        assert kb.frequency != base.frequency

    def test_none_profile_keeps_base_sets(self):
        base = load_bundled("efcc")
        kb = tune_afcc(base, {"frequency": None, "emphasis": None, "title": None})
        assert kb.frequency == base.frequency
        assert kb.emphasis == base.emphasis
        assert kb.title == base.title

    def test_rules_and_identity(self):
        base = load_bundled("efcc")
        kb = tune_afcc(base, {"frequency": DistributionProfile("frequency", FLAT)})
        assert kb.name == "afcc"
        assert kb.flags == ("tuned",)
        assert kb.rules == base.rules
        assert kb.aux_rules == base.aux_rules
        assert kb.position == base.position
        assert kb.importance == base.importance

    @pytest.mark.parametrize(
        "criterion, other, n_sets",
        [("frequency", "title", 3), ("emphasis", "title", 3), ("title", "frequency", 2)],
    )
    def test_set_count_mismatch_rejected(self, criterion, other, n_sets):
        base = load_bundled("efcc")
        var = getattr(base, criterion)
        swapped = LinguisticVariable(var.name, getattr(base, other).sets, var.lo, var.hi)
        profile = DistributionProfile(criterion, FLAT)
        with pytest.raises(ValueError, match=f"is not a {n_sets}-set variable"):
            tune_afcc(replace(base, **{criterion: swapped}), {criterion: profile})

    def test_tuned_base_stays_complete(self):
        profiles = {
            "frequency": DistributionProfile("frequency", HEAVY),
            "emphasis": DistributionProfile("emphasis", HEAVY),
            "title": DistributionProfile("title", [0.5] * 3 + [1.0] * 7),
        }
        kb = tune_afcc(load_bundled("efcc"), profiles)
        check_completeness(kb, grid_per_axis=21)

    def test_degenerate_values_warn_and_stay_ordered(self):
        p = DistributionProfile("title", [1.0] * 5)
        with pytest.warns(UserWarning, match="not strictly increasing"):
            kb = tune_afcc(load_bundled("efcc"), {"title": p})
        p1, p2 = edges_of(kb.title)
        assert 0.0 < p1 < p2 <= 1.0

    def test_constant_frequency_warns_and_stays_ordered(self):
        p = DistributionProfile("frequency", [0.5] * 9)
        with pytest.warns(UserWarning):
            kb = tune_afcc(load_bundled("efcc"), {"frequency": p})
        sets = kb.frequency.sets
        assert sets[0].c < sets[0].d < sets[1].c < sets[1].d <= 1.0

    def test_threshold_override_changes_branch(self):
        # 0.5 of values below the cut: power branch only if threshold < 0.5
        values = [0.1] * 5 + [0.3, 0.5, 0.7, 0.9, 1.0]
        p = DistributionProfile("frequency", values)
        with pytest.warns(UserWarning):  # tied 0.1 quantiles get nudged
            kb_default = tune_afcc(load_bundled("efcc"), {"frequency": p})
        assert kb_default.frequency.sets[0].params[2] != 0.2
        kb_low = tune_afcc(load_bundled("efcc"), {"frequency": p}, threshold=0.4)
        assert kb_low.frequency.sets[0].params[2] == 0.2


class TestTunerStatistics:
    def test_uniform_sample_recovers_even_boundaries(self):
        rng = np.random.default_rng(123)
        values = rng.random(100_000)
        values = values[values > 0]
        p = DistributionProfile("frequency", values)
        kb = tune_afcc(load_bundled("efcc"), {"frequency": p})
        got = kb.frequency.sets[1].params
        assert got == pytest.approx((0.2, 0.4, 0.6, 0.8), abs=0.02)

    def test_cubed_uniform_triggers_power_branch(self):
        rng = np.random.default_rng(456)
        values = rng.random(100_000) ** 3
        values = values[values > 0]
        p = DistributionProfile("frequency", values)
        assert p.frac_below(0.2) > 0.55
        kb = tune_afcc(load_bundled("efcc"), {"frequency": p})
        a, b, c, d = kb.frequency.sets[1].params
        assert a == 0.2
        # [DERIVED] tail of u^3 above 0.2: quantiles of (0.5848+q*0.4152)^3
        assert (b, c, d) == pytest.approx((0.3269, 0.4980, 0.7201), abs=0.02)


# Corpus criteria are ratios of small counts, so pools are fractions k/d:
# ties, single values and all-1.0 pools (d = 1) are the common case.
def _fractions(d):
    return st.integers(1, d).map(lambda k: k / d)


_pool = st.one_of(
    st.integers(1, 20).flatmap(lambda d: st.lists(_fractions(d), min_size=1, max_size=40)),
    st.lists(st.integers(1, 20).flatmap(_fractions), min_size=1, max_size=40),
)
_CRITERIA = ("frequency", "emphasis", "title")
_profiles = st.fixed_dictionaries(
    {},
    optional={
        c: _pool.map(lambda values, c=c: DistributionProfile(c, values)) for c in _CRITERIA
    },
)
_threshold = st.floats(0.0, 1.0)
_cut = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

def _tune_recording(tuner, base, profiles, threshold, cut):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kb = tuner(base, profiles, threshold=threshold, cut=cut)
    return kb, [(w.category, str(w.message)) for w in caught]


def _edges(var):
    """The tuned edges: each set but the last ends on two of them."""
    return [e for s in var.sets[:-1] for e in (s.c, s.d)]


class TestTunerProperties:
    @given(
        base=st.sampled_from(BUNDLED_NAMES),
        profiles=_profiles,
        threshold=_threshold,
        cut=_cut,
    )
    def test_matches_reference(self, base, profiles, threshold, cut):
        base_kb = load_bundled(base)
        kb, warned = _tune_recording(tune_afcc, base_kb, profiles, threshold, cut)
        ref, ref_warned = _tune_recording(tune_afcc_reference, base_kb, profiles, threshold, cut)
        assert dumps_kb(kb) == dumps_kb(ref)
        assert warned == ref_warned

    @given(profiles=_profiles, threshold=_threshold, cut=_cut)
    def test_edges_strictly_increasing_in_unit_interval(self, profiles, threshold, cut):
        kb, _ = _tune_recording(tune_afcc, load_bundled("efcc"), profiles, threshold, cut)
        for criterion in profiles:
            edges = _edges(getattr(kb, criterion))
            assert 0.0 < edges[0]
            assert edges[-1] <= 1.0
            assert all(a < b for a, b in zip(edges, edges[1:])), edges

    @given(
        base=st.sampled_from(BUNDLED_NAMES),
        profiles=_profiles,
        threshold=_threshold,
        cut=_cut,
    )
    def test_every_tuned_base_is_complete(self, base, profiles, threshold, cut):
        kb, _ = _tune_recording(tune_afcc, load_bundled(base), profiles, threshold, cut)
        check_completeness(kb)


@st.composite
def sorted_values_and_q(draw):
    """Ascending values, tied or not, and a q in [0, 1]: anywhere, at an
    end, or where (n - 1) q falls within an ulp of halfway between two
    values, the point at which numpy's interpolation changes ends."""
    values = draw(
        st.one_of(
            _pool,
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
            st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=40),
        )
    )
    values = np.sort(np.array(values, dtype=np.float64))
    n = values.size
    kind = draw(st.sampled_from(("any", "end", "half") if n > 1 else ("any", "end")))
    if kind == "any":
        q = draw(st.floats(0.0, 1.0))
    elif kind == "end":
        q = draw(st.sampled_from((0.0, 1.0, 0, 1)))
    else:
        half = (draw(st.integers(0, n - 2)) + 0.5) / (n - 1)
        q = draw(st.sampled_from((half, np.nextafter(half, 0.0), np.nextafter(half, 1.0))))
    return values, q


class TestSortedQuantile:
    """Quantiles read off the sorted pool equal np.quantile bit for bit."""

    @given(case=sorted_values_and_q())
    @example(case=(np.array([0.3]), 0.5))
    @example(case=(np.array([0.3, 0.3]), 0.5))
    @example(case=(np.array([0.1, 0.7]), 0.5))
    @example(case=(np.array([0.1, 0.7]), np.nextafter(0.5, 0.0)))
    @example(case=(np.array([0.1, 0.2, 0.2, 0.2, 0.9]), 1.0))
    def test_equals_numpy(self, case):
        values, q = case
        assert _sorted_quantile(values, q).hex() == float(np.quantile(values, q)).hex()

    @given(case=sorted_values_and_q())
    def test_profile_quantile_equals_numpy(self, case):
        values, q = case
        values = values[(values > 0.0) & (values <= 1.0)]
        if values.size == 0:
            values = np.array([1.0])
        p = DistributionProfile("frequency", values)
        assert p.quantile(q).hex() == float(np.quantile(p.values, q)).hex()

    @pytest.mark.parametrize("q", [-0.25, 1.5, np.nan])
    def test_profile_quantile_outside_unit_interval_raises(self, q):
        p = DistributionProfile("frequency", np.array([0.1, 0.4, 0.9]))
        with pytest.raises(ValueError):
            np.quantile(p.values, q)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            p.quantile(q)

    def test_tuner_does_not_import_numpy_ma(self):
        # np.quantile imports numpy.ma on first use; the tuner reads its
        # quantiles off the sorted pools, in both branches, without it
        code = """
import sys
import numpy as np
from fuzzterm.kb import DistributionProfile, load_bundled, tune_afcc
rng = np.random.default_rng(0)
heavy = np.concatenate([rng.uniform(0.01, 0.1, 90), rng.uniform(0.2, 1.0, 10)])
flat = rng.uniform(0.05, 1.0, 100)
pools = {"frequency": heavy, "emphasis": flat, "title": flat}
before = "numpy.ma" in sys.modules
tune_afcc(load_bundled("efcc"), {c: DistributionProfile(c, v) for c, v in pools.items()})
print(before, "numpy.ma" in sys.modules)
"""
        src = str(Path(fuzzterm.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.split() == ["False", "False"]
