"""Belief-nudging recommendation simulator.

Detects filter-bubble users from interaction histories, connects their
extreme-high and extreme-low interest categories through a correlation graph,
and mixes generated bridge items into baseline feeds to rebalance beliefs.

The package root exports the run-level API; every other name is imported
from its own module (`bheisr.belief`, `bheisr.detection`, ...).
"""

from .corpus import SynthSpec, load_behaviors, load_corpus, load_ratings, \
    save_corpus, synth_corpus
from .simulate import RunRecord, SimConfig, experiment_coverage, \
    experiment_fb_count, experiment_trajectory, experiment_w_sweep, run_loop

__version__ = "0.1.0"

__all__ = [
    "RunRecord", "SimConfig", "SynthSpec", "experiment_coverage",
    "experiment_fb_count", "experiment_trajectory", "experiment_w_sweep",
    "load_behaviors", "load_corpus", "load_ratings", "run_loop", "save_corpus",
    "synth_corpus",
]
