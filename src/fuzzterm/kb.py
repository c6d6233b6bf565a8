"""Knowledge bases: file format, bundled rule bases, and the set tuner.

A knowledge base bundles the four main input variables (Frequency, Title,
Emphasis, Position), the Importance output, the auxiliary term-position
variable, and two rule blocks: the main block targets Importance, the
auxiliary block maps term-position onto Position.

File format::

    # comment
    [meta]               (optional)
    name efcc
    flags reconstructed

    [variable Frequency domain 0 1]
    set low 0 0 0.2 0.4

    [rules Importance]
    IF Title IS high AND Emphasis IS high THEN very-high

The tuner (`tune_afcc`) rebuilds the sets of each variable in
`TUNED_CRITERIA` (Frequency, Emphasis, Title) from corpus value
distributions, leaving rules, Position and Importance untouched.
Frequency and Emphasis edges are quantiles of the pool, or of its tail
above a cut when the pool is heavy-tailed, at the fractions the
`_EDGE_FRACTIONS` table gives; Title edges come from its lowest band.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from importlib import resources
from pathlib import Path

import numpy as np

from . import kernels
from .engine import (
    DEFAULT_GRID_POINTS,
    FuzzySystem,
    LinguisticVariable,
    Rule,
    TrapezoidSet,
)
from .errors import CompletenessError, EmptyProfile, ParseError

MAIN_INPUT_ORDER = ("Frequency", "Title", "Emphasis", "Position")
MAIN_OUTPUT = "Importance"
AUX_INPUT = "TermPosition"
AUX_OUTPUT = "Position"
REQUIRED_VARIABLES = MAIN_INPUT_ORDER + (MAIN_OUTPUT, AUX_INPUT)
IMPORTANCE_LABELS = ("no", "low", "medium", "high", "very-high")
BUNDLED_NAMES = ("fcc", "addfcc", "efcc", "emph")

DEFAULT_PRECONDITION_THRESHOLD = 0.55
DEFAULT_PRECONDITION_CUT = 0.2
_EDGE_EPS = 1e-6

# The criteria tune_afcc re-derives, in tuning order; each names a
# KnowledgeBase field.
TUNED_CRITERIA = ("frequency", "emphasis", "title")
# Quantile fractions per criterion: (tail fractions for a heavy-tailed pool,
# plain quantiles otherwise).  Frequency splits its tail into four equal
# slices; Emphasis halves its tail mass in turn, which keeps the middle set
# widest.  Title has a rule of its own (_title_edges).
_EDGE_FRACTIONS = {
    "frequency": ((0.25, 0.5, 0.75), (0.2, 0.4, 0.6, 0.8)),
    "emphasis": ((0.5, 0.75, 0.875), (0.05, 0.15, 0.55, 0.75)),
}


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable bundle of variables plus main and auxiliary rule blocks."""

    name: str
    frequency: LinguisticVariable
    title: LinguisticVariable
    emphasis: LinguisticVariable
    position: LinguisticVariable
    importance: LinguisticVariable
    term_position: LinguisticVariable
    rules: tuple[Rule, ...]
    aux_rules: tuple[Rule, ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.importance.labels() != IMPORTANCE_LABELS:
            raise ValueError(
                f"Importance must carry exactly the sets {IMPORTANCE_LABELS}, "
                f"got {self.importance.labels()}"
            )
        if not self.rules:
            raise ValueError("main rule block is empty")
        if not self.aux_rules:
            raise ValueError("auxiliary rule block is empty")
        object.__setattr__(self, "_system_cache", {})

    def input_vars(self) -> tuple[LinguisticVariable, ...]:
        return (self.frequency, self.title, self.emphasis, self.position)

    def variables(self) -> tuple[LinguisticVariable, ...]:
        return self.input_vars() + (self.importance, self.term_position)

    def system(self, grid_points: int = DEFAULT_GRID_POINTS) -> FuzzySystem:
        """Compiled main system; input column order is MAIN_INPUT_ORDER."""
        cache = self._system_cache
        key = ("main", grid_points)
        if key not in cache:
            cache[key] = FuzzySystem(
                self.input_vars(), self.importance, self.rules, grid_points
            )
        return cache[key]

    def aux_system(self, grid_points: int = DEFAULT_GRID_POINTS) -> FuzzySystem:
        """Compiled auxiliary system: term-position in, Position score out."""
        cache = self._system_cache
        key = ("aux", grid_points)
        if key not in cache:
            cache[key] = FuzzySystem(
                (self.term_position,), self.position, self.aux_rules, grid_points
            )
        return cache[key]


def _parse_float(token: str, path, line_no) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", path, line_no) from None


def _parse_rule_line(tokens, line_no, path) -> Rule:
    if len(tokens) < 6 or tokens[0].upper() != "IF":
        raise ParseError("rule must look like 'IF <var> IS <label> ... THEN <label>'", path, line_no)
    if tokens[-2].upper() != "THEN":
        raise ParseError("rule must end with 'THEN <label>'", path, line_no)
    body = tokens[1:-2]
    clauses = []
    i = 0
    while i < len(body):
        if clauses:
            if body[i].upper() != "AND":
                raise ParseError(f"expected AND, got {body[i]!r}", path, line_no)
            i += 1
        if i + 2 >= len(body):
            raise ParseError("truncated antecedent clause", path, line_no)
        var, is_kw, label = body[i], body[i + 1], body[i + 2]
        if is_kw.upper() != "IS":
            raise ParseError(f"expected IS, got {is_kw!r}", path, line_no)
        clauses.append((var, label))
        i += 3
    # output variable is filled in from the section header by the caller
    return Rule(tuple(clauses), ("", tokens[-1]))


def load_kb(path) -> KnowledgeBase:
    """Parse and validate a knowledge-base file.

    Raises ParseError with a line number on malformed input and
    CompletenessError when some grid point of the input space fires no rule.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return _parse_kb_text(text, path)


def loads_kb(text: str, name: str = "<string>") -> KnowledgeBase:
    """load_kb for in-memory text (used by tests and round-trip checks)."""
    return _parse_kb_text(text, name)


def _parse_kb_text(text: str, path) -> KnowledgeBase:
    meta: dict[str, str] = {}
    variables: dict[str, LinguisticVariable] = {}
    rule_blocks: dict[str, list[Rule]] = {}
    rule_lines: dict[tuple[str, int], int] = {}

    section = None  # None | ("meta",) | ("variable", name, lo, hi, sets) | ("rules", output)

    def close_variable(sec, line_no):
        name, lo, hi, sets = sec[1], sec[2], sec[3], sec[4]
        if not sets:
            raise ParseError(f"variable {name!r} declares no sets", path, line_no)
        try:
            variables[name] = LinguisticVariable(name, tuple(sets), lo, hi)
        except ValueError as exc:
            raise ParseError(str(exc), path, line_no) from exc

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", path, line_no)
            if section is not None and section[0] == "variable":
                close_variable(section, line_no)
            fields = line[1:-1].split()
            if not fields:
                raise ParseError("empty section header", path, line_no)
            if fields[0] == "meta" and len(fields) == 1:
                section = ("meta",)
            elif fields[0] == "variable":
                if len(fields) != 5 or fields[2] != "domain":
                    raise ParseError(
                        "variable header must be '[variable <name> domain <lo> <hi>]'",
                        path,
                        line_no,
                    )
                if fields[1] in variables:
                    raise ParseError(f"duplicate variable {fields[1]!r}", path, line_no)
                lo = _parse_float(fields[3], path, line_no)
                hi = _parse_float(fields[4], path, line_no)
                section = ("variable", fields[1], lo, hi, [])
            elif fields[0] == "rules":
                if len(fields) != 2:
                    raise ParseError("rules header must be '[rules <output>]'", path, line_no)
                section = ("rules", fields[1])
                rule_blocks.setdefault(fields[1], [])
            else:
                raise ParseError(f"unknown section {fields[0]!r}", path, line_no)
            continue

        if section is None:
            raise ParseError("content before any section header", path, line_no)
        kind = section[0]
        if kind == "meta":
            key, _, value = line.partition(" ")
            if not value.strip():
                raise ParseError("meta entries look like '<key> <value>'", path, line_no)
            meta[key] = value.strip()
        elif kind == "variable":
            tokens = line.split()
            if tokens[0] != "set" or len(tokens) != 6:
                raise ParseError("expected 'set <label> a b c d'", path, line_no)
            label = tokens[1]
            a, b, c, d = (_parse_float(t, path, line_no) for t in tokens[2:])
            try:
                section[4].append(TrapezoidSet(label, a, b, c, d))
            except ValueError as exc:
                raise ParseError(str(exc), path, line_no) from exc
        else:
            output = section[1]
            rule = _parse_rule_line(line.split(), line_no, path)
            rule = Rule(rule.antecedents, (output, rule.consequent[1]))
            rule_lines[(output, len(rule_blocks[output]))] = line_no
            rule_blocks[output].append(rule)

    if section is not None and section[0] == "variable":
        close_variable(section, len(lines))

    for required in REQUIRED_VARIABLES:
        if required not in variables:
            raise ParseError(f"missing variable {required!r}", path, None)
    for block in (MAIN_OUTPUT, AUX_OUTPUT):
        if not rule_blocks.get(block):
            raise ParseError(f"missing or empty rule block [rules {block}]", path, None)
    for output, rules in rule_blocks.items():
        if output not in variables:
            raise ParseError(f"rules target unknown variable {output!r}", path, None)
        in_names = MAIN_INPUT_ORDER if output == MAIN_OUTPUT else (AUX_INPUT,)
        for idx, rule in enumerate(rules):
            line_no = rule_lines[(output, idx)]
            for var_name, label in rule.antecedents:
                if var_name not in variables:
                    raise ParseError(f"unknown variable {var_name!r}", path, line_no)
                if var_name not in in_names:
                    raise ParseError(
                        f"variable {var_name!r} cannot appear in a rule for {output}",
                        path,
                        line_no,
                    )
                if label not in variables[var_name].labels():
                    raise ParseError(
                        f"variable {var_name!r} has no set {label!r}", path, line_no
                    )
            if rule.consequent[1] not in variables[output].labels():
                raise ParseError(
                    f"output {output!r} has no set {rule.consequent[1]!r}", path, line_no
                )

    name = meta.get("name") or (path.stem if isinstance(path, Path) else "kb")
    flags = tuple(f for f in meta.get("flags", "").replace(",", " ").split() if f)
    try:
        kb = KnowledgeBase(
            name=name,
            frequency=variables["Frequency"],
            title=variables["Title"],
            emphasis=variables["Emphasis"],
            position=variables["Position"],
            importance=variables["Importance"],
            term_position=variables["TermPosition"],
            rules=tuple(rule_blocks[MAIN_OUTPUT]),
            aux_rules=tuple(rule_blocks[AUX_OUTPUT]),
            flags=flags,
        )
    except ValueError as exc:
        raise ParseError(str(exc), path, None) from exc
    check_completeness(kb)
    return kb


def _coverage(system: FuzzySystem, grid_per_axis: int):
    """Per-axis grids and the mask of mesh points where some rule fires.

    A rule fires where all its antecedent memberships are above 0, each on
    one axis, so its mesh region is the outer product of one boolean vector
    per axis.  Output sets have positive area (FuzzySystem checks), so these
    are exactly the rows infer_batch accepts.
    """
    axes = [np.linspace(v.lo, v.hi, grid_per_axis) for v in system.input_vars]
    covered = np.zeros((grid_per_axis,) * len(axes), dtype=bool)
    for rule in system.rules:
        labels = dict(rule.antecedents)
        on_axis = [
            kernels.trapezoid_memberships(ax, *var.get(labels[var.name]).params) > 0.0
            if var.name in labels
            else np.ones(grid_per_axis, dtype=bool)
            for var, ax in zip(system.input_vars, axes)
        ]
        covered |= reduce(np.logical_and.outer, on_axis)
    return axes, covered


def check_completeness(kb: KnowledgeBase, grid_per_axis: int = 21) -> None:
    """Verify every grid point of the input space fires at least one rule.

    The main system is checked on a grid_per_axis^4 mesh, the auxiliary
    system on a 1-D grid, rule by rule rather than point by point.  Raises
    CompletenessError naming the first uncovered point in row-major order,
    and ValueError when grid_per_axis is below 2.
    """
    if grid_per_axis < 2:
        raise ValueError(f"grid_per_axis must be at least 2, got {grid_per_axis}")
    checks = (
        (kb.system(), "no rule fires at ({})"),
        (kb.aux_system(), "auxiliary block fires no rule at {}"),
    )
    for system, message in checks:
        axes, covered = _coverage(system, grid_per_axis)
        if not covered.all():
            index = np.unravel_index(np.argmin(covered), covered.shape)
            point = ", ".join(
                f"{var.name}={ax[i]:g}" for var, ax, i in zip(system.input_vars, axes, index)
            )
            raise CompletenessError(f"kb {kb.name!r}: " + message.format(point))


def _fmt(x: float) -> str:
    return repr(float(x))


def dump_kb(kb: KnowledgeBase, path) -> None:
    """Write a knowledge base back out in the text format (audit/replay)."""
    Path(path).write_text(dumps_kb(kb), encoding="utf-8")


def dumps_kb(kb: KnowledgeBase) -> str:
    lines = ["[meta]", f"name {kb.name}"]
    if kb.flags:
        lines.append(f"flags {' '.join(kb.flags)}")
    for var in kb.variables():
        lines.append("")
        lines.append(f"[variable {var.name} domain {_fmt(var.lo)} {_fmt(var.hi)}]")
        for s in var.sets:
            lines.append(
                f"set {s.label} {_fmt(s.a)} {_fmt(s.b)} {_fmt(s.c)} {_fmt(s.d)}"
            )
    for output, rules in ((MAIN_OUTPUT, kb.rules), (AUX_OUTPUT, kb.aux_rules)):
        lines.append("")
        lines.append(f"[rules {output}]")
        for rule in rules:
            ant = " AND ".join(f"{v} IS {label}" for v, label in rule.antecedents)
            lines.append(f"IF {ant} THEN {rule.consequent[1]}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def load_bundled(name: str) -> KnowledgeBase:
    """Load one of the shipped bases: fcc, addfcc, efcc, emph."""
    if name not in BUNDLED_NAMES:
        raise ValueError(f"unknown bundled kb {name!r}; choose from {BUNDLED_NAMES}")
    ref = resources.files("fuzzterm").joinpath("data", f"{name}.kb")
    with resources.as_file(ref) as p:
        return load_kb(p)


# ---------------------------------------------------------------------------
# Distribution profiling and set tuning


@dataclass(frozen=True, eq=False)
class DistributionProfile:
    """Sorted pool of one criterion's nonzero normalized values."""

    criterion: str
    values: np.ndarray

    def __post_init__(self):
        values = np.sort(np.asarray(self.values, dtype=np.float64))
        if values.size == 0:
            raise EmptyProfile(f"no nonzero {self.criterion} values")
        if values[0] <= 0.0 or values[-1] > 1.0:
            raise ValueError(f"{self.criterion} profile values must lie in (0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def frac_below(self, cut: float) -> float:
        return float(np.mean(self.values < cut))

    @property
    def frac_below_02(self) -> float:
        return self.frac_below(DEFAULT_PRECONDITION_CUT)

    def quantile(self, q) -> float | np.ndarray:
        out = np.quantile(self.values, q)
        return float(out) if np.isscalar(q) else out


_CRITERION_ATTRS = {
    "frequency": "freq_norm",
    "title": "title_norm",
    "emphasis": "emph_norm",
}


def profile_criterion(criteria_by_doc, criterion: str) -> DistributionProfile:
    """Pool one criterion's nonzero values over every (doc, term) pair.

    criteria_by_doc: mapping doc_id -> (mapping term -> TermCriteria).
    """
    attr = _CRITERION_ATTRS.get(criterion)
    if attr is None:
        raise ValueError(
            f"unknown criterion {criterion!r}; choose from {sorted(_CRITERION_ATTRS)}"
        )
    values = [
        v
        for doc in criteria_by_doc.values()
        for crit in doc.values()
        if (v := getattr(crit, attr)) > 0.0
    ]
    if not values:
        raise EmptyProfile(f"no nonzero {criterion} values in corpus")
    return DistributionProfile(criterion, np.asarray(values))


def _sanitize_edges(edges: list[float], criterion: str) -> list[float]:
    """Force edges strictly increasing inside (0, 1], nudging ties by 1e-6."""
    out = []
    prev = 0.0
    nudged = False
    for e in edges:
        e = min(float(e), 1.0)
        if e <= prev:
            e = prev + _EDGE_EPS
            nudged = True
        out.append(e)
        prev = e
    if out[-1] > 1.0:
        out[-1] = 1.0
        for i in range(len(out) - 2, -1, -1):
            if out[i] >= out[i + 1]:
                out[i] = out[i + 1] - _EDGE_EPS
                nudged = True
    if nudged:
        warnings.warn(
            f"tuned {criterion} boundaries were not strictly increasing; "
            f"nudged by {_EDGE_EPS:g}",
            stacklevel=3,
        )
    return out


def _partition(base: LinguisticVariable, edges) -> LinguisticVariable:
    """base's sets re-cut at edges: the points (0, 0, *edges, 1, 1) taken two
    at a time, so set i is points[2i:2i+4]."""
    labels = base.labels()
    n_sets = len(edges) // 2 + 1
    if len(labels) != n_sets:
        raise ValueError(f"variable {base.name!r} is not a {n_sets}-set variable")
    points = (0.0, 0.0, *edges, 1.0, 1.0)
    sets = tuple(
        TrapezoidSet(label, *points[2 * i : 2 * i + 4]) for i, label in enumerate(labels)
    )
    return LinguisticVariable(base.name, sets, base.lo, base.hi)


def _quantile_edges(profile, tail, plain, threshold, cut):
    """Four edges: on a heavy-tailed pool (more than threshold of it below
    cut) the cut, then the tail quantiles of the values at or above it;
    otherwise the plain quantiles of the whole pool."""
    if profile.frac_below(cut) > threshold:
        above = profile.values[profile.values >= cut]
        if above.size == 0:
            # pathological: everything sits below the cut; quantile over the
            # full pool keeps the edges defined, the sanitizer restores order
            above = profile.values
        return [cut] + [float(np.quantile(above, f)) for f in tail]
    return [float(profile.quantile(q)) for q in plain]


def _title_edges(profile):
    lowest = float(profile.values[0])
    rank_of_lowest = float(np.mean(profile.values <= lowest))
    second = float(profile.quantile((rank_of_lowest + 1.0) / 2.0))
    return [lowest, second]


def tune_afcc(
    base_kb: KnowledgeBase,
    profiles,
    threshold: float = DEFAULT_PRECONDITION_THRESHOLD,
    cut: float = DEFAULT_PRECONDITION_CUT,
) -> KnowledgeBase:
    """Re-derive Frequency/Emphasis/Title sets from corpus distributions.

    profiles: mapping criterion name -> DistributionProfile; a missing or
    None entry leaves that variable at its base_kb parameters.  Rules, the
    Position pair, the auxiliary variable and the Importance output are
    copied unchanged.
    """
    tuned = {}
    for criterion in TUNED_CRITERIA:
        p = profiles.get(criterion)
        if p is None:
            continue
        if criterion == "title":
            edges = _title_edges(p)
        else:
            edges = _quantile_edges(p, *_EDGE_FRACTIONS[criterion], threshold, cut)
        edges = _sanitize_edges(edges, criterion)
        tuned[criterion] = _partition(getattr(base_kb, criterion), edges)
    return replace(base_kb, name="afcc", flags=("tuned",), **tuned)
