"""Belief-nudging recommendation simulator.

Detects filter-bubble users from interaction histories, connects their
extreme-high and extreme-low interest categories through a correlation graph,
and mixes generated bridge items into baseline feeds to rebalance beliefs.
"""

from .belief import BeliefNetwork, belief_snapshot, build_all, entropy_bits
from .corpus import Corpus, Interaction, Item, ParseError, SynthSpec, \
    load_behaviors, load_corpus, load_ratings, save_corpus, synth_corpus
from .detection import DetectionReport, Exposure, SystemThresholds, \
    UserClassification, build_report, classify_users, detect_fb_system, \
    diversity_coverage, diversity_duplicate, ks_normality, skewness
from .features import CategoryGraph, FeatureVector, Vocabulary, \
    build_vocabulary, correlation, featurize, tokenize
from .nudge import ExternalGenerator, GeneratedItem, NudgeSession, \
    TemplateGenerator, binary_split, initial_queue, new_session
from .pathfinder import PromptPath, RejectionLedger, explore, next_hop, \
    path_of, reschedule, select_endpoints
from .recommenders import CandidateIndex, Feed, FeedContext, acceptance_share, \
    assemble_feed, cb_score, n_generated, uc_score
from .simulate import RunRecord, SimConfig, decide, \
    experiment_coverage, experiment_fb_count, experiment_trajectory, \
    experiment_w_sweep, run_loop

__version__ = "0.1.0"

__all__ = [
    "BeliefNetwork", "CandidateIndex", "CategoryGraph", "Corpus",
    "DetectionReport", "Exposure", "ExternalGenerator", "Feed", "FeatureVector",
    "FeedContext", "GeneratedItem", "Interaction", "Item", "NudgeSession",
    "ParseError", "PromptPath", "RejectionLedger", "RunRecord", "SimConfig",
    "SynthSpec", "SystemThresholds", "TemplateGenerator", "UserClassification",
    "Vocabulary", "acceptance_share", "assemble_feed",
    "belief_snapshot", "binary_split", "build_all",
    "build_report", "build_vocabulary", "cb_score", "classify_users",
    "correlation", "decide", "detect_fb_system", "diversity_coverage",
    "diversity_duplicate", "entropy_bits", "experiment_coverage",
    "experiment_fb_count", "experiment_trajectory", "experiment_w_sweep",
    "explore", "featurize", "initial_queue", "ks_normality",
    "load_behaviors", "load_corpus", "load_ratings", "n_generated",
    "new_session", "next_hop", "path_of", "reschedule",
    "run_loop", "save_corpus", "select_endpoints", "skewness", "synth_corpus",
    "tokenize", "uc_score",
]
