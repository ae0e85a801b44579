"""Distinct-leaf enumeration over truncated next-token distributions.

The package decodes by traversing the pruned tree a truncation rule induces
on a next-token distribution: greedy rollouts plus deterministic branch
selection yield a set of pairwise-distinct sequences with their masses,
alongside an i.i.d. sampling baseline, coverage and repetition metrics, a
prefix-cache simulator, majority voting, and an exhaustive oracle that
gives every leaf of a desk-scale tree.
"""

__version__ = "0.1.0"

from .baseline import SampleRun, sample_sequences
from .engine import (Budget, BranchPolicy, EarlyStopConfig, EnumerationResult, Frontier,
                     enumerate_leaves, greedy_rollout, select_branch)
from .metrics import coverage, expected_coverage_closed_form, repetition_rate
from .model import (NgramModel, SparseRow, TableModel, Vocabulary, parse_model_spec,
                    train_ngram_model)
from .oracle import enumerate_all_leaves
from .truncation import (ActiveSet, Composite, Epsilon, MinP, TopK, TopP,
                         active_set, apply_temperature, parse_rule)

__all__ = [
    "__version__",
    "ActiveSet", "Budget", "BranchPolicy", "Composite", "EarlyStopConfig",
    "EnumerationResult", "Epsilon", "Frontier", "MinP", "NgramModel", "RemoteModel",
    "SampleRun", "SparseRow", "TableModel", "TopK", "TopP", "Vocabulary",
    "active_set", "apply_temperature", "coverage",
    "enumerate_all_leaves", "enumerate_leaves",
    "expected_coverage_closed_form", "greedy_rollout",
    "parse_model_spec", "parse_rule", "repetition_rate", "sample_sequences",
    "select_branch", "train_ngram_model",
]


def __getattr__(name: str):
    # The remote client imports the HTTP stack, so it loads on first use.
    if name == "RemoteModel":
        from .remote import RemoteModel
        return RemoteModel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
