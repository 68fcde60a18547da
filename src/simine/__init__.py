"""simine: subjectively interesting subgroup patterns in attributed graphs."""

__version__ = "0.1.0"

from .graph import (AttributedGraph, AttributeColumn, GraphFormatError,
                    LoadOptions, NOMINAL, NUMERIC, load_graph, save_graph)
from .descriptions import (Description, DescriptionError, EMPTY_DESCRIPTION,
                           EqualsSelector, RangeSelector, Selector,
                           SelectorConfig, extension, generate_selectors,
                           parse_description, parse_selector, selector_mask)
from .background import (BackgroundModel, FitError, PartitionGammas,
                         PatternUpdate, block_mean_probability,
                         fit_block_prior, fit_degree_prior, fit_density_prior,
                         pair_universe, update_with_pattern)
from .scores import (MEASURE_NAMES, Pattern, ScoreConstants, baseline_scores,
                     description_length, information_content, kl_bernoulli,
                     rescore, score_bi, score_single, score_single_counts)
from .search import (BaselineResult, IterationResult, SearchConfig,
                     baseline_search, beam_search_single, iterate,
                     nested_beam_search)
from .synth import PlantedBlock, SynthConfig, generate_synthetic

__all__ = [
    # graphs and attributes
    "AttributedGraph", "AttributeColumn", "GraphFormatError", "LoadOptions",
    "NOMINAL", "NUMERIC", "load_graph", "save_graph",
    # descriptions
    "Description", "DescriptionError", "EMPTY_DESCRIPTION", "EqualsSelector",
    "RangeSelector", "Selector", "SelectorConfig", "extension",
    "generate_selectors", "parse_description", "parse_selector", "selector_mask",
    # background models
    "BackgroundModel", "FitError", "PartitionGammas", "PatternUpdate",
    "block_mean_probability", "fit_block_prior", "fit_degree_prior",
    "fit_density_prior", "pair_universe", "update_with_pattern",
    # scoring
    "MEASURE_NAMES", "Pattern", "ScoreConstants", "baseline_scores",
    "description_length", "information_content", "kl_bernoulli", "rescore",
    "score_bi", "score_single", "score_single_counts",
    # search
    "BaselineResult", "IterationResult", "SearchConfig", "baseline_search",
    "beam_search_single", "iterate", "nested_beam_search",
    # synthetic data
    "PlantedBlock", "SynthConfig", "generate_synthetic",
]
