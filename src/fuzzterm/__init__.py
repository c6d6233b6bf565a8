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
    repeated_bisections,
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
    TermCriteria,
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
    profile_criterion,
    tune_afcc,
)
from .pipeline import ExperimentReport, RunConfig, load_config, run
from .reduction import FeatureSet, mft_select, project
from .stats import TTestResult, paired_ttest
from .synth import generate_corpus
from .weighting import CorpusStats, DocVector, efcc_idf, tf_idf, weigh_fuzzy

__version__ = "0.1.0"

__all__ = [
    "CategoryScore",
    "CorpusManifest",
    "CorpusStats",
    "DistributionProfile",
    "DocVector",
    "ExperimentReport",
    "F1Report",
    "FeatureSet",
    "FiringRecord",
    "FuzzySystem",
    "KnowledgeBase",
    "LinguisticVariable",
    "Rule",
    "RunConfig",
    "TTestResult",
    "TermCriteria",
    "TokenStream",
    "TokenizerOptions",
    "TrapezoidSet",
    "apply_anchor_variant",
    "check_completeness",
    "dump_kb",
    "dumps_kb",
    "efcc_idf",
    "errors",
    "extract_criteria",
    "generate_corpus",
    "global_position",
    "load_bundled",
    "load_config",
    "load_kb",
    "load_manifest",
    "loads_kb",
    "mft_select",
    "paired_ttest",
    "parse_html",
    "profile_criterion",
    "project",
    "read_anchor_texts",
    "repeated_bisections",
    "run",
    "stratified_subsample",
    "tf_idf",
    "tokenize",
    "tune_afcc",
    "weigh_fuzzy",
    "weighted_f1",
]
