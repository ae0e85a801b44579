import gc
import itertools

import pytest
from scipy import stats as scipy_stats

from dle.baseline import sample_sequences
from dle.errors import DepthExceeded
from dle.metrics import coverage, expected_coverage_closed_form
from dle.model import TableModel
from dle.oracle import (enumerate_all_leaves, monte_carlo_coverage_from_masses,
                        monte_carlo_expected_coverage, top_k_by_mass)
from dle.truncation import Epsilon, TopK, TopP

FIG_RULE = Epsilon(eps=0.1, inclusive=True)


def test_worked_tree_enumeration(fig_tree_model):
    oracle_set = enumerate_all_leaves(fig_tree_model, FIG_RULE)
    masses = sorted(oracle_set.masses(), reverse=True)
    assert masses == pytest.approx([0.504, 0.27, 0.126, 0.1], abs=1e-12)
    assert oracle_set.total_mass == pytest.approx(1.0, abs=1e-9)
    assert len(oracle_set.leaves) == 4


def test_deterministic_model_has_one_unit_leaf():
    model = TableModel.from_dict({
        "vocab": ["a", "<eos>"], "eos": "<eos>",
        "transitions": {"": {"a": 1.0}, "a": {"<eos>": 1.0}}})
    oracle_set = enumerate_all_leaves(model, Epsilon(eps=0.5))
    assert len(oracle_set.leaves) == 1
    assert oracle_set.leaves[0][1] == 1.0


def test_binary_branching_counts_leaves():
    depth = 5
    transitions = {}
    for d in range(depth):
        for bits in itertools.product("ab", repeat=d):
            ctx = " ".join(bits)
            transitions[ctx] = {"a": 0.5, "b": 0.5}
    for bits in itertools.product("ab", repeat=depth):
        transitions[" ".join(bits)] = {"<eos>": 1.0}
    model = TableModel.from_dict({
        "vocab": ["a", "b", "<eos>"], "eos": "<eos>", "transitions": transitions})
    oracle_set = enumerate_all_leaves(model, TopP(p=1.0))
    assert len(oracle_set.leaves) == 2 ** depth
    assert oracle_set.total_mass == pytest.approx(1.0, abs=1e-9)


def test_depth_limit_raises():
    model = TableModel.from_dict({
        "vocab": ["a", "<eos>"], "eos": "<eos>",
        "transitions": {}, "default": {"a": 1.0}})
    with pytest.raises(DepthExceeded):
        enumerate_all_leaves(model, TopK(k=1), max_depth=10)


def test_enumeration_leaves_no_reference_cycle(fig_tree_model):
    enumerate_all_leaves(fig_tree_model, FIG_RULE)  # warm up lazy caches
    gc.collect()
    gc.disable()
    try:
        oracle_set = enumerate_all_leaves(fig_tree_model, FIG_RULE)
        del oracle_set
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_top_k_by_mass_on_worked_tree(fig_tree_model):
    oracle_set = enumerate_all_leaves(fig_tree_model, FIG_RULE)
    top2 = top_k_by_mass(oracle_set, 2)
    assert coverage(top2) == pytest.approx(0.774, abs=1e-12)
    everything = top_k_by_mass(oracle_set, 4)
    assert coverage(everything) == pytest.approx(1.0, abs=1e-9)
    top1 = top_k_by_mass(oracle_set, 1)
    assert top1[0][1] == pytest.approx(0.504)
    with pytest.raises(ValueError):
        top_k_by_mass(oracle_set, 5)


def test_top_k_ties_keep_discovery_order():
    model = TableModel.from_dict({
        "vocab": ["a", "b", "c", "<eos>"], "eos": "<eos>",
        "transitions": {"": {"a": 0.25, "b": 0.5, "c": 0.25},
                        "a": {"<eos>": 1.0}, "b": {"<eos>": 1.0}, "c": {"<eos>": 1.0}}})
    oracle_set = enumerate_all_leaves(model, Epsilon(eps=0.05))
    top2 = top_k_by_mass(oracle_set, 2)
    assert top2[0][1] == pytest.approx(0.5)
    # 0.25 tie between the (a .) and (c .) leaves: discovery order walks the
    # active set greedily, so (a .) comes right after the 0.5 leaf and wins.
    assert oracle_set.leaves[1][0] == (0, 3)
    assert top2[1][0] == (0, 3)


def test_top_k_is_optimal_among_subsets(random_model_factory):
    checked = 0
    for seed in itertools.count(300):
        model = random_model_factory(seed)
        oracle_set = enumerate_all_leaves(model, TopP(p=0.95))
        if not 2 <= len(oracle_set.leaves) <= 12:
            continue
        leaves = list(oracle_set.leaves)
        for k in range(1, min(4, len(leaves)) + 1):
            best = coverage(top_k_by_mass(oracle_set, k))
            for subset in itertools.combinations(leaves, k):
                assert coverage(list(subset)) <= best + 1e-12
        checked += 1
        if checked >= 8:
            break


def test_monte_carlo_brackets_hand_value():
    mean, se = monte_carlo_coverage_from_masses([0.7, 0.3], k=1, trials=100_000, seed=5)
    assert abs(mean - 0.58) <= 3 * se
    assert se < 0.001


def test_monte_carlo_limits():
    mean, se = monte_carlo_coverage_from_masses([0.6, 0.3, 0.1], k=4096, trials=200, seed=1)
    assert mean == pytest.approx(1.0, abs=1e-9)
    mean, se = monte_carlo_coverage_from_masses([1.0], k=3, trials=500, seed=2)
    assert mean == 1.0
    assert se == 0.0


def test_monte_carlo_requires_enough_trials():
    with pytest.raises(ValueError):
        monte_carlo_coverage_from_masses([1.0], k=1, trials=10, seed=0)


def test_monte_carlo_on_model_matches_closed_form(fig_tree_model):
    masses = enumerate_all_leaves(fig_tree_model, FIG_RULE).masses()
    for k in (1, 2, 4):
        mean, se = monte_carlo_expected_coverage(fig_tree_model, FIG_RULE, k=k,
                                                 trials=50_000, seed=11)
        closed = expected_coverage_closed_form(masses, k)
        assert abs(mean - closed) <= 3 * se


def test_leaf_categorical_matches_stepwise_sampler(random_model_factory):
    # The Monte Carlo trials draw leaves from the leaf-mass categorical; the
    # step-wise baseline sampler must induce the same leaf distribution.
    model = random_model_factory(17)
    rule = TopP(p=0.9)
    leaves = enumerate_all_leaves(model, rule).leaves
    index = {tokens: i for i, (tokens, _) in enumerate(leaves)}
    draws = 50_000
    run = sample_sequences(model, rule, (), k=draws, seed=23)
    counts = [0] * len(leaves)
    for tokens, _ in run.sequences:
        counts[index[tokens]] += 1
    expected = [q * draws for _, q in leaves]
    result = scipy_stats.chisquare(counts, expected)
    assert result.pvalue > 0.001
