"""Blood-request engine: two-layer filtering, structured parsing, scoring,
and geo-ranked donor notification for multilingual chat streams."""

__version__ = "0.1.0"

from .corpus import Corpus, LabeledSample, deduplicate, load_corpus, split, tag_language
from .dispatch import Clock, DispatchEngine, haversine_km, urgency_depth
from .evalkit import (
    ParsingScore,
    compare_classifiers,
    cost_report,
    evaluate_parser,
    field_accuracy,
    parsing_score,
)
from .gateway import Gateway, InboundEvent, simulate
from .layer1 import ClassifierModel, Hyper, classification_report, forward, load_model, save_model, train
from .layer2 import (
    BackendConfig,
    ParseRecord,
    RulesBackend,
    build_prompt,
    parse_remote,
    parse_rules,
)
from .records import DonorRecord, PipelineTrace
from .schema import LabeledTree, ParsedRequest, ParseOutcome, canonicalize, to_tree, validate
from .ted import ted_oracle, tree_edit_distance

__all__ = [
    "BackendConfig",
    "ClassifierModel",
    "Clock",
    "Corpus",
    "DispatchEngine",
    "DonorRecord",
    "Gateway",
    "Hyper",
    "InboundEvent",
    "LabeledSample",
    "LabeledTree",
    "ParseOutcome",
    "ParseRecord",
    "ParsedRequest",
    "ParsingScore",
    "PipelineTrace",
    "RulesBackend",
    "build_prompt",
    "canonicalize",
    "classification_report",
    "compare_classifiers",
    "cost_report",
    "deduplicate",
    "evaluate_parser",
    "field_accuracy",
    "forward",
    "haversine_km",
    "load_corpus",
    "load_model",
    "parse_remote",
    "parse_rules",
    "parsing_score",
    "save_model",
    "simulate",
    "split",
    "tag_language",
    "ted_oracle",
    "to_tree",
    "train",
    "tree_edit_distance",
    "urgency_depth",
    "validate",
]
