"""Trapezoidal fuzzy inference.

A FuzzySystem owns a fixed set of input variables, one output variable and a
rule base.  Inference is Mamdani-style with min conjunction, scaling of each
consequent set by its rule's truth degree, additive aggregation of the scaled
sets and center-of-mass defuzzification.

Because scaling and summation are linear, the centroid of the aggregate is

    sum_r t_r * M1[cons_r]  /  sum_r t_r * M0[cons_r]

where M0/M1 are area and first moment of each output set evaluated once on
the quadrature grid.  That identity lets batch inference reduce to the array
kernels instead of building an aggregate curve per input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .errors import EmptyPositions, InvalidRuleBase, NoRuleFired

DEFAULT_GRID_POINTS = 1001
# Rows per kernel call of FuzzySystem.infer_batch: bounds the membership
# table (rows x sets) of one call, whatever the batch size.
BATCH_ROWS = 8192


@dataclass(frozen=True)
class TrapezoidSet:
    """Membership function rising over [a, b], flat over [b, c], falling over [c, d]."""

    label: str
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValueError(
                f"set {self.label!r}: breakpoints must satisfy a <= b <= c <= d, "
                f"got ({self.a}, {self.b}, {self.c}, {self.d})"
            )
        if self.a == self.d:
            raise ValueError(f"set {self.label!r} has zero width")

    def membership(self, x: float) -> float:
        return float(kernels.trapezoid_memberships(x, *self.params))

    @property
    def params(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable over [lo, hi] partitioned by labelled trapezoids.

    Every point of the domain must belong to at least one set with positive
    membership, so downstream rule bases can stay total.
    """

    name: str
    sets: tuple[TrapezoidSet, ...]
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.sets:
            raise ValueError(f"variable {self.name!r} has no sets")
        if self.lo >= self.hi:
            raise ValueError(f"variable {self.name!r}: empty domain")
        labels = [s.label for s in self.sets]
        if len(set(labels)) != len(labels):
            raise ValueError(f"variable {self.name!r}: duplicate set labels")
        for s in self.sets:
            if s.a < self.lo or s.d > self.hi:
                raise ValueError(
                    f"variable {self.name!r}: set {s.label!r} exceeds domain "
                    f"[{self.lo}, {self.hi}]"
                )
        xs = np.linspace(self.lo, self.hi, 2048)
        cover = np.zeros_like(xs)
        for s in self.sets:
            cover = np.maximum(
                cover, kernels.trapezoid_memberships(xs, s.a, s.b, s.c, s.d)
            )
        if (cover <= 0.0).any():
            gap = xs[int(np.argmin(cover))]
            raise ValueError(
                f"variable {self.name!r}: no set covers x ~ {gap:.4f}"
            )

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.sets)

    def get(self, label: str) -> TrapezoidSet:
        for s in self.sets:
            if s.label == label:
                return s
        raise KeyError(f"variable {self.name!r} has no set {label!r}")


@dataclass(frozen=True)
class Rule:
    """IF var IS label (AND ...) THEN output-set.

    antecedents: ((variable name, set label), ...) - at least one clause,
    at most one clause per variable.  consequent: (output variable name,
    set label).
    """

    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]

    def __post_init__(self):
        if not self.antecedents:
            raise ValueError("rule with empty antecedent")
        names = [v for v, _ in self.antecedents]
        if len(set(names)) != len(names):
            raise ValueError(f"rule repeats a variable in its antecedent: {names}")


@dataclass(frozen=True)
class FiringRecord:
    """One rule's contribution to an inference, for audit output."""

    rule_index: int
    degree: float
    consequent: str


class FuzzySystem:
    """Compiled rule base ready for batch inference.

    Parameters
    ----------
    input_vars : ordered input variables; batch columns follow this order.
    output_var : the single output variable.
    rules : rules whose antecedents reference input variables only and whose
        consequents reference the output variable.
    grid_points : quadrature resolution for the output-set moments (midpoint
        rule over the output domain).
    """

    def __init__(
        self,
        input_vars: Sequence[LinguisticVariable],
        output_var: LinguisticVariable,
        rules: Sequence[Rule],
        grid_points: int = DEFAULT_GRID_POINTS,
    ):
        if not rules:
            raise InvalidRuleBase("rule base is empty")
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        self.input_vars = tuple(input_vars)
        self.output_var = output_var
        self.rules = tuple(rules)
        self.grid_points = int(grid_points)

        var_index = {v.name: i for i, v in enumerate(self.input_vars)}
        if len(var_index) != len(self.input_vars):
            raise InvalidRuleBase("duplicate input variable names")
        if output_var.name in var_index:
            raise InvalidRuleBase("output variable repeats an input name")

        set_rows = []
        var_of_set = []
        self._set_index: dict[tuple[str, str], int] = {}
        for vi, var in enumerate(self.input_vars):
            for s in var.sets:
                self._set_index[(var.name, s.label)] = len(set_rows)
                set_rows.append(s.params)
                var_of_set.append(vi)
        out_index = {s.label: i for i, s in enumerate(output_var.sets)}

        ant = np.full((len(self.rules), len(self.input_vars)), -1, dtype=np.int64)
        cons = np.empty(len(self.rules), dtype=np.int64)
        for ri, rule in enumerate(self.rules):
            for var_name, label in rule.antecedents:
                if var_name not in var_index:
                    raise InvalidRuleBase(
                        f"rule {ri}: unknown input variable {var_name!r}"
                    )
                key = (var_name, label)
                if key not in self._set_index:
                    raise InvalidRuleBase(
                        f"rule {ri}: variable {var_name!r} has no set {label!r}"
                    )
                ant[ri, var_index[var_name]] = self._set_index[key]
            out_name, out_label = rule.consequent
            if out_name != output_var.name:
                raise InvalidRuleBase(
                    f"rule {ri}: consequent targets {out_name!r}, "
                    f"expected {output_var.name!r}"
                )
            if out_label not in out_index:
                raise InvalidRuleBase(
                    f"rule {ri}: output has no set {out_label!r}"
                )
            cons[ri] = out_index[out_label]

        self._trap = np.asarray(set_rows, dtype=np.float64)
        self._var_of_set = np.asarray(var_of_set, dtype=np.int64)
        self._ant = ant
        self._cons = cons
        self._m0, self._m1 = self._output_moments()
        # A rule with a positive degree must add to the centroid denominator,
        # so "some rule fires" and "the aggregate has mass" stay one test.
        for s, m0 in zip(output_var.sets, self._m0):
            if m0 <= 0.0:
                raise InvalidRuleBase(f"output set {s.label!r} has zero quadrature area")
        self._lo = np.array([v.lo for v in self.input_vars])
        self._hi = np.array([v.hi for v in self.input_vars])

    def _output_moments(self):
        out = self.output_var
        h = (out.hi - out.lo) / self.grid_points
        xs = out.lo + (np.arange(self.grid_points) + 0.5) * h
        m0 = np.empty(len(out.sets))
        m1 = np.empty(len(out.sets))
        for i, s in enumerate(out.sets):
            mu = kernels.trapezoid_memberships(xs, s.a, s.b, s.c, s.d)
            m0[i] = mu.sum() * h
            m1[i] = (mu * xs).sum() * h
        return m0, m1

    def _as_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.input_vars):
            raise ValueError(
                f"expected shape (n, {len(self.input_vars)}), got {X.shape}"
            )
        return X

    def _clip(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self._lo, self._hi)

    def infer_batch(self, X) -> np.ndarray:
        """Defuzzified output for each row of X, fired BATCH_ROWS rows at a
        time.  Raises NoRuleFired if any row leaves the aggregate empty."""
        X = self._as_matrix(X)
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], BATCH_ROWS):
            chunk = self._clip(X[start:start + BATCH_ROWS])
            weights, fired = kernels.batch_infer(
                chunk, self._trap, self._var_of_set, self._ant, self._cons, self._m0, self._m1
            )
            if not fired.all():
                i = int(np.flatnonzero(~fired)[0])
                raise NoRuleFired(
                    f"no rule fired for input row {start + i}: {chunk[i].tolist()}"
                )
            out[start:start + weights.size] = weights
        return out

    def infer(self, inputs: Mapping[str, float]) -> float:
        """Single-point inference from a {variable name: value} mapping."""
        row = self._row_from_mapping(inputs)
        return float(self.infer_batch(row.reshape(1, -1))[0])

    def explain(self, inputs: Mapping[str, float]) -> list[FiringRecord]:
        """Per-rule truth degrees for one input, skipping silent rules."""
        row = self._clip(self._row_from_mapping(inputs).reshape(1, -1))
        degrees = kernels.rule_degrees(row, self._trap, self._var_of_set, self._ant)
        return [
            FiringRecord(ri, float(t[0]), rule.consequent[1])
            for ri, (rule, t) in enumerate(zip(self.rules, degrees))
            if t[0] > 0.0
        ]

    def _row_from_mapping(self, inputs: Mapping[str, float]) -> np.ndarray:
        row = np.empty(len(self.input_vars))
        for i, var in enumerate(self.input_vars):
            if var.name not in inputs:
                raise KeyError(f"missing input {var.name!r}")
            row[i] = float(inputs[var.name])
        extra = set(inputs) - {v.name for v in self.input_vars}
        if extra:
            raise KeyError(f"unknown inputs: {sorted(extra)}")
        return row


def global_position(positions: Sequence[float], aux: FuzzySystem) -> float:
    """Collapse a term's occurrence positions to one score: defuzzify each
    occurrence through `aux`, keep the maximum."""
    pos = np.asarray(list(positions), dtype=np.float64)
    if pos.size == 0:
        raise EmptyPositions("term has no occurrence positions")
    return float(global_position_batch(pos, np.array([0, pos.size]), aux)[0])


def global_position_batch(
    flat_positions: np.ndarray, offsets: np.ndarray, aux: FuzzySystem
) -> np.ndarray:
    """global_position for many terms at once.

    flat_positions concatenates every term's occurrence positions; term i
    owns the slice offsets[i]:offsets[i+1] (each slice non-empty).  No
    terms give an empty array.
    """
    flat_positions = np.asarray(flat_positions, dtype=np.float64)
    if flat_positions.size == 0 and len(offsets) > 1:
        raise EmptyPositions("no occurrence positions given")
    scores = aux.infer_batch(flat_positions.reshape(-1, 1))
    return kernels.segment_max(scores, offsets)
