"""Numeric kernels for batched rule firing.

One vectorized numpy implementation serves batch inference, the
completeness check and per-rule audits: `trapezoid_memberships` is the only
trapezoid formula, `rule_degrees` the only min conjunction, and
`batch_infer` the only centroid accumulation.
"""

import numpy as np

# There is no compiled backend; the flag stays for callers that record which
# kernel backend produced a run.
NUMBA_ENABLED = False


def trapezoid_memberships(x, a, b, c, d):
    """Vectorized membership of `x` in the trapezoid (a, b, c, d)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    rising = (x >= a) & (x < b)
    if rising.any():
        out[rising] = (x[rising] - a) / (b - a)
    out[(x >= b) & (x <= c)] = 1.0
    falling = (x > c) & (x < d)
    if falling.any():
        out[falling] = (d - x[falling]) / (d - c)
    return out


def rule_degrees(X, trap, var_of_set, ant):
    """Yield each rule's min-conjunction degree per row of X, in rule order.

    Set memberships are computed once; the degrees come one rule at a time,
    as arrays of shape (n,), so a large X never needs an (n, n_rules)
    matrix.  A yielded array may be a view into the membership table.
    """
    n_sets = trap.shape[0]
    memberships = np.empty((X.shape[0], n_sets), dtype=np.float64)
    for s in range(n_sets):
        memberships[:, s] = trapezoid_memberships(
            X[:, var_of_set[s]], trap[s, 0], trap[s, 1], trap[s, 2], trap[s, 3]
        )
    for r in range(ant.shape[0]):
        sets = ant[r][ant[r] >= 0]
        t = memberships[:, sets[0]]
        for s in sets[1:]:
            t = np.minimum(t, memberships[:, s])
        yield t


def batch_infer(X, trap, var_of_set, ant, cons, m0, m1):
    """Fire every rule on every row of X; return (weights, fired).

    X columns follow the system's input-variable order; ant holds a global
    set index per (rule, variable) slot, -1 meaning the variable is absent
    from that rule's antecedent.  Rows where no rule fires get weight 0 and
    fired=False; raising is the caller's call.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    num = np.zeros(X.shape[0], dtype=np.float64)
    den = np.zeros(X.shape[0], dtype=np.float64)
    # Accumulate rule by rule, in rule order: a matmul or an axis-1 sum would
    # reorder the additions and change the weights in the last bits.  Each
    # rule's degrees are released before the next rule's are computed; a
    # for loop over the generator would hold two arrays of n at a time.
    degrees = rule_degrees(X, trap, var_of_set, ant)
    for c in cons:
        t = next(degrees)
        num += t * m1[c]
        den += t * m0[c]
        del t
    fired = den > 0.0
    out = np.where(fired, num / np.where(fired, den, 1.0), 0.0)
    return out, fired


def segment_max(values, offsets):
    """Max of values[offsets[i]:offsets[i+1]] for each segment i."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    n = offsets.shape[0] - 1
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if (offsets[1:] <= offsets[:-1]).any():
        raise ValueError("empty or unsorted segment")
    return np.maximum.reduceat(values[: offsets[-1]], offsets[:-1])
