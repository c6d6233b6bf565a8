"""Knowledge bases: file format, bundled rule bases, and the set tuner.

A knowledge base bundles the four main input variables (Frequency, Title,
Emphasis, Position), the Importance output, the auxiliary term-position
variable, and two rule blocks: the main block targets Importance, the
auxiliary block maps term-position onto Position.

File format::

    # comment
    [meta]                (optional: the keys name and flags, each once)
    name efcc
    flags reconstructed

    [variable Frequency domain 0 1]   (each variable above, once)
    set low 0 0 0.2 0.4

    [rules Importance]                (and [rules Position])
    IF Title IS high AND Emphasis IS high THEN very-high

The parser checks the grammar and refuses any header or meta key that no
KnowledgeBase field holds.  The constructors check the rest, each in one
place: TrapezoidSet its breakpoints, LinguisticVariable its sets, Rule its
clauses, the KnowledgeBase its Importance labels and non-empty blocks, and
FuzzySystem each rule's variables and labels.  A ParseError names the line
of the rule, set or header at fault, an output set of zero area included;
a missing variable or an empty block names none.

The tuner (`tune_afcc`) rebuilds the sets of each variable in
`TUNED_CRITERIA` (Frequency, Emphasis, Title) from corpus value
distributions, leaving rules, Position and Importance untouched.
Frequency and Emphasis edges are quantiles of the pool, or of its tail
above a cut when the pool is heavy-tailed, at the fractions the
`_EDGE_FRACTIONS` table gives; Title edges come from its lowest band.
The pipeline pools those values from corpus columns
(`pipeline.corpus_profiles`).  `profile_criterion` pools them from
term -> `ingest.TermCriteria` maps; no run path calls it, and it stays only
because the benchmark tracer still wraps it.
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
    FuzzySystem,
    LinguisticVariable,
    Rule,
    TrapezoidSet,
)
from .errors import CompletenessError, EmptyProfile, InvalidRuleBase, ParseError

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

    def system(self) -> FuzzySystem:
        """Compiled main system; input column order is MAIN_INPUT_ORDER."""
        cache = self._system_cache
        if "main" not in cache:
            cache["main"] = FuzzySystem(self.input_vars(), self.importance, self.rules)
        return cache["main"]

    def aux_system(self) -> FuzzySystem:
        """Compiled auxiliary system: term-position in, Position score out."""
        cache = self._system_cache
        if "aux" not in cache:
            cache["aux"] = FuzzySystem((self.term_position,), self.position, self.aux_rules)
        return cache["aux"]


def _parse_float(token: str, path, line_no) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", path, line_no) from None


def _parse_rule_line(tokens, output, line_no, path) -> Rule:
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
    try:
        return Rule(tuple(clauses), (output, tokens[-1]))
    except ValueError as exc:
        raise ParseError(str(exc), path, line_no) from exc


def load_kb(path) -> KnowledgeBase:
    """Parse and validate a knowledge-base file, compiling both systems.

    Raises ParseError, with the line at fault when one is (see the module
    doc), on malformed input, and CompletenessError when some grid point of
    the input space fires no rule.
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
    rule_blocks: dict[str, list[Rule]] = {MAIN_OUTPUT: [], AUX_OUTPUT: []}
    rule_lines: dict[tuple[str, int], int] = {}
    set_lines: dict[tuple[str, str], int] = {}

    # None | ("meta",) | ("variable", name, lo, hi, sets, header line) | ("rules", output)
    section = None

    def close_variable(sec):
        name, lo, hi, sets, line_no = sec[1:]
        try:
            variables[name] = LinguisticVariable(name, tuple(sets), lo, hi)
        except ValueError as exc:
            raise ParseError(str(exc), path, line_no) from exc

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", path, line_no)
            if section is not None and section[0] == "variable":
                close_variable(section)
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
                if fields[1] not in REQUIRED_VARIABLES:
                    raise ParseError(f"unknown variable {fields[1]!r}", path, line_no)
                if fields[1] in variables:
                    raise ParseError(f"duplicate variable {fields[1]!r}", path, line_no)
                lo = _parse_float(fields[3], path, line_no)
                hi = _parse_float(fields[4], path, line_no)
                section = ("variable", fields[1], lo, hi, [], line_no)
            elif fields[0] == "rules":
                if len(fields) != 2 or fields[1] not in (MAIN_OUTPUT, AUX_OUTPUT):
                    raise ParseError(
                        f"rules header must be '[rules {MAIN_OUTPUT}]' or '[rules {AUX_OUTPUT}]'",
                        path,
                        line_no,
                    )
                section = ("rules", fields[1])
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
            if key not in ("name", "flags"):
                raise ParseError(f"unknown meta key {key!r}", path, line_no)
            if key in meta:
                raise ParseError(f"meta key {key!r} is set twice", path, line_no)
            meta[key] = value.strip()
        elif kind == "variable":
            tokens = line.split()
            if tokens[0] != "set" or len(tokens) != 6:
                raise ParseError("expected 'set <label> a b c d'", path, line_no)
            label = tokens[1]
            set_lines[(section[1], label)] = line_no
            a, b, c, d = (_parse_float(t, path, line_no) for t in tokens[2:])
            try:
                section[4].append(TrapezoidSet(label, a, b, c, d))
            except ValueError as exc:
                raise ParseError(str(exc), path, line_no) from exc
        else:
            output = section[1]
            rule_lines[(output, len(rule_blocks[output]))] = line_no
            rule_blocks[output].append(_parse_rule_line(line.split(), output, line_no, path))

    if section is not None and section[0] == "variable":
        close_variable(section)

    for required in REQUIRED_VARIABLES:
        if required not in variables:
            raise ParseError(f"missing variable {required!r}", path, None)

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
    # The compiled systems check each rule and output set; a block is named
    # after its output variable.  check_completeness reuses the systems.
    for block, compile_system in ((MAIN_OUTPUT, kb.system), (AUX_OUTPUT, kb.aux_system)):
        try:
            compile_system()
        except InvalidRuleBase as exc:
            line = rule_lines.get((block, exc.rule), set_lines.get((block, exc.output_set)))
            raise ParseError(str(exc), path, line) from exc
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
        # np.sort puts NaN last, where no comparison with 1.0 holds
        if not (values[0] > 0.0 and values[-1] <= 1.0):
            raise ValueError(f"{self.criterion} profile values must lie in (0, 1]")
        object.__setattr__(self, "values", values)

    def frac_below(self, cut: float) -> float:
        return float(np.mean(self.values < cut))

    def quantile(self, q: float) -> float:
        """np.quantile(self.values, q), bit for bit (see _sorted_quantile);
        like it, raises ValueError for a q outside [0, 1] or NaN."""
        if not 0 <= q <= 1:
            raise ValueError("quantiles must be in the range [0, 1]")
        return _sorted_quantile(self.values, q)


def _sorted_quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) of ascending values, bit for bit, for q in
    [0, 1]: numpy's linear rule read off the sorted values, with none of
    the partitioning np.quantile does first."""
    v = (values.size - 1) * q
    i = int(v)  # floor, as v >= 0
    if i >= values.size - 1:
        return float(values[-1])
    a, b = float(values[i]), float(values[i + 1])
    t = v - i
    # np.quantile's _lerp: from the nearer end of [a, b]
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


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
        return [cut] + [_sorted_quantile(above, f) for f in tail]
    return [profile.quantile(q) for q in plain]


def _title_edges(profile):
    lowest = float(profile.values[0])
    rank_of_lowest = float(np.mean(profile.values <= lowest))
    second = profile.quantile((rank_of_lowest + 1.0) / 2.0)
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
