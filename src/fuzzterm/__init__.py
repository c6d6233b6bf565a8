"""Fuzzy term weighting for HTML corpora.

Pipeline: HTML documents -> per-term criteria (frequency, title, emphasis,
position) -> trapezoidal fuzzy inference -> document vectors -> feature
selection -> repeated-bisections clustering -> weighted F1 and paired
t-tests.
"""

from . import errors
from .cluster import (
    CategoryScore,
    F1Report,
    stratified_subsample,
    weighted_f1,
)
from .engine import (
    FiringRecord,
    FuzzySystem,
    LinguisticVariable,
    Rule,
    TrapezoidSet,
    global_position,
)
from .ingest import (
    CorpusManifest,
    TermTable,
    TokenStream,
    TokenizerOptions,
    apply_anchor_variant,
    extract_criteria,
    load_manifest,
    parse_html,
    read_anchor_texts,
    tokenize,
)
from .kb import (
    DistributionProfile,
    KnowledgeBase,
    check_completeness,
    dump_kb,
    dumps_kb,
    load_bundled,
    load_kb,
    loads_kb,
    tune_afcc,
)
from .pipeline import ExperimentReport, RunConfig, load_config, run
from .stats import TTestResult, paired_ttest
from .synth import generate_corpus

__version__ = "0.1.0"

__all__ = [
    "CategoryScore",
    "CorpusManifest",
    "DistributionProfile",
    "ExperimentReport",
    "F1Report",
    "FiringRecord",
    "FuzzySystem",
    "KnowledgeBase",
    "LinguisticVariable",
    "Rule",
    "RunConfig",
    "TTestResult",
    "TermTable",
    "TokenStream",
    "TokenizerOptions",
    "TrapezoidSet",
    "apply_anchor_variant",
    "check_completeness",
    "dump_kb",
    "dumps_kb",
    "errors",
    "extract_criteria",
    "generate_corpus",
    "global_position",
    "load_bundled",
    "load_config",
    "load_kb",
    "load_manifest",
    "loads_kb",
    "paired_ttest",
    "parse_html",
    "read_anchor_texts",
    "run",
    "stratified_subsample",
    "tokenize",
    "tune_afcc",
    "weighted_f1",
]
