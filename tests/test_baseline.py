import math

import pytest
from scipy import stats as scipy_stats

from dle.baseline import sample_sequences
from dle.errors import ConfigError
from dle.metrics import coverage
from dle.model import TableModel
from dle.oracle import enumerate_all_leaves
from dle.truncation import Epsilon, MinP, TopP

TWO_LEAF_DOC = {
    "vocab": ["a", "b", "<eos>"], "eos": "<eos>",
    "transitions": {"": {"a": 0.7, "b": 0.3},
                    "a": {"<eos>": 1.0}, "b": {"<eos>": 1.0}},
}


def test_single_leaf_model_draws_are_identical():
    model = TableModel.from_dict({
        "vocab": ["a", "<eos>"], "eos": "<eos>",
        "transitions": {"": {"a": 1.0}, "a": {"<eos>": 1.0}}})
    run = sample_sequences(model, Epsilon(eps=0.1), (), k=16, seed=0)
    assert len(run.sequences) == 16
    assert len({tokens for tokens, _ in run.sequences}) == 1
    assert all(q == 1.0 for _, q in run.sequences)


def test_two_leaf_empirical_frequency():
    model = TableModel.from_dict(TWO_LEAF_DOC)
    run = sample_sequences(model, Epsilon(eps=0.05), (), k=10_000, seed=7)
    first = sum(1 for tokens, _ in run.sequences if tokens[0] == 0)
    assert first / 10_000 == pytest.approx(0.7, abs=0.02)


def test_temperature_zero_is_greedy_every_draw():
    model = TableModel.from_dict(TWO_LEAF_DOC)
    run = sample_sequences(model, Epsilon(eps=0.05), (), k=32, seed=1, temperature=0.0)
    assert all(tokens == (0, 2) for tokens, _ in run.sequences)
    assert all(q == 1.0 for _, q in run.sequences)


def test_draws_are_reproducible_and_order_independent():
    model = TableModel.from_dict(TWO_LEAF_DOC)
    rule = Epsilon(eps=0.05)
    long = sample_sequences(model, rule, (), k=10, seed=42)
    short = sample_sequences(model, rule, (), k=4, seed=42)
    assert long.sequences[:4] == short.sequences
    again = sample_sequences(model, rule, (), k=10, seed=42)
    assert again.sequences == long.sequences
    other = sample_sequences(model, rule, (), k=10, seed=43)
    assert other.sequences != long.sequences


def test_duplicates_are_retained_and_dedup_is_separate():
    model = TableModel.from_dict(TWO_LEAF_DOC)
    run = sample_sequences(model, Epsilon(eps=0.05), (), k=50, seed=3)
    assert len(run.sequences) == 50
    unique = run.unique_sequences()
    assert 1 <= len(unique) <= 2
    cov = coverage(unique)
    assert cov <= 1.0 + 1e-9


def test_sequence_probability_matches_leaf_mass():
    model = TableModel.from_dict(TWO_LEAF_DOC)
    run = sample_sequences(model, Epsilon(eps=0.05), (), k=20, seed=5)
    masses = dict(enumerate_all_leaves(model, Epsilon(eps=0.05)).leaves)
    for tokens, q in run.sequences:
        assert q == pytest.approx(masses[tokens], abs=1e-12)


def test_temperature_changes_the_step_distribution():
    model = TableModel.from_dict(TWO_LEAF_DOC)
    hot = sample_sequences(model, TopP(p=1.0), (), k=4000, seed=11, temperature=4.0)
    share_hot = sum(1 for t, _ in hot.sequences if t[0] == 0) / 4000
    cold = sample_sequences(model, TopP(p=1.0), (), k=4000, seed=11, temperature=0.5)
    share_cold = sum(1 for t, _ in cold.sequences if t[0] == 0) / 4000
    # Tempered base probabilities: T=4 flattens toward 0.5, T=0.5 sharpens.
    assert share_hot < 0.62
    assert share_cold > 0.78


def test_leaf_frequencies_fit_chi_square(random_model_factory):
    rules = [Epsilon(eps=0.05), TopP(p=0.9), MinP(p_min=0.1)]
    passed = 0
    total = 6
    for seed in range(total):
        model = random_model_factory(seed + 200)
        rule = rules[seed % len(rules)]
        leaves = enumerate_all_leaves(model, rule).leaves
        index = {tokens: i for i, (tokens, _) in enumerate(leaves)}
        draws = 100_000
        run = sample_sequences(model, rule, (), k=draws, seed=seed)
        counts = [0] * len(leaves)
        for tokens, _ in run.sequences:
            counts[index[tokens]] += 1
        expected = [q * draws for _, q in leaves]
        result = scipy_stats.chisquare(counts, expected)
        if result.pvalue > 0.001:
            passed += 1
    assert passed >= math.ceil(0.95 * total)


def test_k_must_be_positive():
    model = TableModel.from_dict(TWO_LEAF_DOC)
    with pytest.raises(ConfigError):
        sample_sequences(model, Epsilon(eps=0.05), (), k=0, seed=0)
