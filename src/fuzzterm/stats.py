"""Paired two-tailed t-test on matched score lists.

The p value comes from the Student t distribution evaluated through the
regularized incomplete beta function (continued-fraction expansion), so the
package needs no statistics dependency at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LengthMismatch

_BETA_EPS = 3e-14
_BETA_MAX_ITER = 300
_BETA_FPMIN = 1e-300


@dataclass(frozen=True)
class TTestResult:
    mean_diff: float
    t: float
    df: int
    p: float
    zero_variance: bool = False


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete-beta continued fraction
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # choose the branch where the continued fraction converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for T Student-distributed with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be at least 1")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def paired_ttest(scores_a, scores_b) -> TTestResult:
    """Two-tailed paired t-test of scores_a against scores_b.

    Differences that are all equal have zero variance, even where their
    float mean rounds away from them: identical samples report t=0, p=1,
    and a nonzero difference an infinite t and p=0, flagged via
    zero_variance.
    """
    a = [float(x) for x in scores_a]
    b = [float(x) for x in scores_b]
    if len(a) != len(b):
        raise LengthMismatch(f"paired lists differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 paired scores")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if var == 0.0 or min(diffs) == max(diffs):
        if mean == 0.0:
            return TTestResult(0.0, 0.0, df, 1.0, zero_variance=True)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(mean, t, df, 0.0, zero_variance=True)
    t = mean / math.sqrt(var / n)
    return TTestResult(mean, t, df, t_two_tailed_p(t, df))
