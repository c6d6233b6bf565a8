import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzterm import load_bundled
from fuzzterm.kernels import batch_infer, segment_max, trapezoid_memberships

from oracles import trapezoid_membership

BUNDLED = ("fcc", "addfcc", "efcc", "emph")
unit = st.floats(0.0, 1.0)
rows = st.lists(unit, min_size=4, max_size=4)


def test_vectorized_membership_matches_scalar():
    rng = np.random.default_rng(7)
    for a, b, c, d in [(0.0, 0.0, 0.2, 0.4), (0.1, 0.3, 0.5, 0.7), (0.6, 0.8, 1.0, 1.0)]:
        x = np.concatenate([rng.random(200), np.array([a, b, c, d])])
        got = trapezoid_memberships(x, a, b, c, d)
        want = np.array([trapezoid_membership(v, a, b, c, d) for v in x])
        np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_segment_max_basic():
    values = np.array([0.3, 0.9, 0.1, 0.5, 0.2, 0.8])
    offsets = np.array([0, 2, 3, 6])
    np.testing.assert_array_equal(segment_max(values, offsets), [0.9, 0.1, 0.8])


def test_segment_max_single_groups():
    values = np.array([0.4, 0.6])
    offsets = np.array([0, 1, 2])
    np.testing.assert_array_equal(segment_max(values, offsets), [0.4, 0.6])


def test_batch_infer_marks_unfired_rows():
    system = load_bundled("emph").system()
    X = np.array([[0.0, 0.0, 0.1, 0.0]])
    weights, fired = batch_infer(
        X,
        system._trap,
        system._var_of_set,
        system._ant,
        system._cons,
        system._m0,
        system._m1,
    )
    assert fired.all()
    assert 0.0 < weights[0] < 1.0


def _inputs(system, row):
    return {var.name: x for var, x in zip(system.input_vars, row)}


@pytest.mark.parametrize("name", BUNDLED)
@given(row=rows)
def test_explain_reproduces_infer(name, row):
    system = load_bundled(name).system()
    inputs = _inputs(system, row)
    labels = system.output_var.labels()
    num = den = 0.0
    for record in system.explain(inputs):
        c = labels.index(record.consequent)
        num += record.degree * system._m1[c]
        den += record.degree * system._m0[c]
    assert num / den == system.infer(inputs)


@pytest.mark.parametrize("name", BUNDLED)
@given(X=st.lists(rows, min_size=1, max_size=20))
def test_infer_batch_matches_row_by_row_infer(name, X):
    system = load_bundled(name).system()
    rowwise = [system.infer(_inputs(system, row)) for row in X]
    assert system.infer_batch(np.array(X)).tolist() == rowwise


@pytest.mark.parametrize("name", BUNDLED)
@given(X=st.lists(rows, min_size=1, max_size=50))
def test_output_within_importance_domain(name, X):
    kb = load_bundled(name)
    out = kb.system().infer_batch(np.array(X))
    assert ((out >= kb.importance.lo) & (out <= kb.importance.hi)).all()


@pytest.mark.parametrize("name", BUNDLED)
@given(x=st.floats(-0.5, 1.5))
def test_membership_matches_oracle(name, x):
    # the bundled sets include shoulders (a == b, c == d) on every variable
    for var in load_bundled(name).variables():
        for s in var.sets:
            for v in (x, *s.params):
                assert s.membership(v) == trapezoid_membership(v, *s.params)
