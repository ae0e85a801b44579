"""Distinct-leaf enumeration over truncated next-token distributions.

The package decodes by traversing the pruned tree a truncation rule induces
on a next-token distribution: greedy rollouts plus deterministic branch
selection yield a set of pairwise-distinct sequences with their masses,
alongside an i.i.d. sampling baseline, coverage and diversity metrics, a
prefix-cache simulator, and brute-force oracles that verify every
implemented formula at desk scale.
"""

__version__ = "0.1.0"

from .baseline import SampleRun, sample_sequences
from .engine import (Budget, BranchPolicy, EarlyStopConfig, EnumerationResult, Frontier,
                     early_stop_check, enumerate_leaves, greedy_rollout, select_branch)
from .metrics import (coverage, distinct_n, expected_coverage_closed_form,
                      marginal_gain_closed_form, repetition_rate)
from .model import (NgramModel, RemoteModel, TableModel, Vocabulary,
                    parse_model_spec, train_ngram_model)
from .oracle import enumerate_all_leaves, monte_carlo_expected_coverage, top_k_by_mass
from .truncation import (ActiveSet, Composite, Epsilon, MinP, TopK, TopP,
                         active_set, apply_temperature, greedy_token, parse_rule,
                         sequence_probability)

__all__ = [
    "__version__",
    "ActiveSet", "Budget", "BranchPolicy", "Composite", "EarlyStopConfig",
    "EnumerationResult", "Epsilon", "Frontier", "MinP", "NgramModel", "RemoteModel",
    "SampleRun", "TableModel", "TopK", "TopP", "Vocabulary",
    "active_set", "apply_temperature", "coverage", "distinct_n",
    "early_stop_check", "enumerate_all_leaves", "enumerate_leaves",
    "expected_coverage_closed_form", "greedy_rollout", "greedy_token",
    "marginal_gain_closed_form", "monte_carlo_expected_coverage",
    "parse_model_spec", "parse_rule", "repetition_rate", "sample_sequences",
    "select_branch", "sequence_probability", "top_k_by_mass", "train_ngram_model",
]
