import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dle.baseline import sample_sequences
from dle.errors import DuplicateSequences, InvariantViolation, SequenceTooShort
from dle.metrics import (aggregate_repetition_rate, compensated_sum, coverage,
                         coverage_curve, distinct_n, expected_coverage_closed_form,
                         marginal_gain_closed_form, repetition_rate)
from dle.model import TableModel
from dle.oracle import enumerate_all_leaves
from dle.truncation import Epsilon
from reference import pairwise_repeated_tokens, pairwise_repetition_rate


@st.composite
def generation_lists(draw):
    """Short generations over a 3-token alphabet; some repeat or cut an earlier
    one, so empty generations and prefixes of earlier ones are common."""
    gens = []
    for _ in range(draw(st.integers(0, 8))):
        gen = []
        if gens and draw(st.booleans()):
            base = draw(st.sampled_from(gens))
            gen = list(base[:draw(st.integers(0, len(base)))])
        gen += draw(st.lists(st.integers(0, 2), max_size=5))
        gens.append(tuple(gen))
    return gens


def test_coverage_of_full_enumeration_is_one(fig_tree_model):
    rule = Epsilon(eps=0.1, inclusive=True)
    leaves = enumerate_all_leaves(fig_tree_model, rule).leaves
    assert coverage(list(leaves)) == pytest.approx(1.0, abs=1e-6)


def test_coverage_of_top_two_worked_masses():
    assert coverage([((0,), 0.504), ((1,), 0.27)]) == pytest.approx(0.774, abs=1e-12)


def test_coverage_empty_set_is_zero():
    assert coverage([]) == 0.0


def test_coverage_rejects_duplicates():
    with pytest.raises(DuplicateSequences):
        coverage([((0, 1), 0.2), ((0, 1), 0.3)])


def test_coverage_never_clamps_silently():
    with pytest.raises(InvariantViolation):
        coverage([((0,), 0.8), ((1,), 0.8)])


def test_coverage_curve_is_running_sum():
    report = coverage_curve([((0,), 0.5), ((1,), 0.25), ((2,), 0.125)], "dle")
    assert report.ks == (1, 2, 3)
    assert report.values == pytest.approx((0.5, 0.75, 0.875))
    assert report.final == pytest.approx(0.875)
    assert report.method == "dle"


def test_expected_coverage_hand_values():
    assert expected_coverage_closed_form([0.7, 0.3], 1) == pytest.approx(0.58, abs=1e-12)
    assert expected_coverage_closed_form([0.7, 0.3], 2) == pytest.approx(0.79, abs=1e-12)
    assert expected_coverage_closed_form([1.0], 5) == pytest.approx(1.0)
    # Large k approaches the total retained mass.
    assert expected_coverage_closed_form([0.7, 0.3], 10_000) == pytest.approx(1.0, abs=1e-12)
    assert expected_coverage_closed_form([0.4, 0.1], 10_000) == pytest.approx(0.5, abs=1e-12)


def test_marginal_gain_hand_values():
    assert marginal_gain_closed_form([0.7, 0.3], 0) == pytest.approx(0.58, abs=1e-12)
    gain1 = marginal_gain_closed_form([0.7, 0.3], 1)
    assert gain1 == pytest.approx(0.7 ** 2 * 0.3 + 0.3 ** 2 * 0.7, abs=1e-12)
    assert gain1 <= 0.58
    assert marginal_gain_closed_form([1.0], 3) == 0.0


def test_marginal_gain_equals_coverage_difference():
    rng = random.Random(23)
    for _ in range(100):
        size = rng.randint(1, 40)
        raw = [rng.random() + 1e-3 for _ in range(size)]
        total = sum(raw)
        masses = [w / total for w in raw]
        for k in (0, 1, 2, 5, 17):
            diff = (expected_coverage_closed_form(masses, k + 1)
                    - expected_coverage_closed_form(masses, k))
            assert abs(diff - marginal_gain_closed_form(masses, k)) <= 1e-12


def test_expected_coverage_monotone_and_gain_non_increasing():
    rng = random.Random(31)
    for _ in range(50):
        size = rng.randint(1, 30)
        raw = [rng.random() + 1e-3 for _ in range(size)]
        total = sum(raw)
        masses = [w / total for w in raw]
        previous_cov = 0.0
        previous_gain = float("inf")
        for k in range(0, 12):
            cov = expected_coverage_closed_form(masses, k)
            gain = marginal_gain_closed_form(masses, k)
            assert cov >= previous_cov - 1e-15
            assert gain <= previous_gain + 1e-15
            assert gain >= 0.0
            previous_cov, previous_gain = cov, gain


def test_masses_validation():
    with pytest.raises(InvariantViolation):
        expected_coverage_closed_form([0.9, 0.3], 1)
    with pytest.raises(InvariantViolation):
        expected_coverage_closed_form([-0.1, 0.5], 1)


def test_distinct_n_hand_values():
    assert distinct_n((0, 1, 0, 1, 0, 1), 2) == pytest.approx(0.4)
    assert distinct_n((0, 1, 2, 3), 2) == 1.0
    assert distinct_n((5,) * 8, 1) == pytest.approx(1 / 8)
    with pytest.raises(SequenceTooShort):
        distinct_n((0, 1), 3)


def test_repetition_rate_hand_values():
    assert repetition_rate([(1, 2, 3), (1, 2, 4)]) == pytest.approx(1 / 3)
    k, length = 5, 7
    identical = [tuple(range(length))] * k
    assert repetition_rate(identical) == pytest.approx((k - 1) * length / (k * length))
    assert repetition_rate([(1, 2), (3, 4), (5, 6)]) == 0.0
    assert repetition_rate([(1, 2, 3)]) == 0.0


def test_repetition_rate_uses_longest_earlier_match():
    gens = [(1, 2, 3, 4), (1, 9, 9, 9), (1, 2, 3, 7)]
    # Third generation matches 3 tokens against the first, 1 against the second.
    assert repetition_rate(gens) == pytest.approx((1 + 3) / 12)


def test_aggregate_repetition_rate_is_token_weighted():
    q1 = [(1, 2, 3), (1, 2, 4)]          # 2 repeated / 6 tokens
    q2 = [(5,), (6,)]                     # 0 repeated / 2 tokens
    assert aggregate_repetition_rate([q1, q2]) == pytest.approx(2 / 8)


@settings(max_examples=300, deadline=None)
@given(questions=st.lists(generation_lists(), max_size=4))
def test_repetition_rates_match_the_pairwise_reference(questions):
    for gens in questions:
        assert repetition_rate(gens) == pairwise_repetition_rate(gens)
    repeated = sum(pairwise_repeated_tokens(gens) for gens in questions)
    total = sum(len(g) for gens in questions for g in gens)
    assert aggregate_repetition_rate(questions) == (repeated / total if total else 0.0)


def test_compensated_sum_tracks_error_bound():
    values = [1e16, 1.0, -1e16]
    total, bound = compensated_sum(values)
    assert total == 1.0
    assert bound > 0.0


def test_monte_carlo_via_baseline_matches_closed_form():
    # Dual-route check at full scale: trials of k step-wise draws through the
    # sampling module, deduplicated, against the closed form.
    doc = {
        "vocab": ["a", "b", "c", "<eos>"], "eos": "<eos>",
        "transitions": {"": {"a": 0.55, "b": 0.3, "c": 0.15},
                        "a": {"<eos>": 1.0}, "b": {"<eos>": 1.0}, "c": {"<eos>": 1.0}},
    }
    model = TableModel.from_dict(doc)
    rule = Epsilon(eps=0.05)
    masses = enumerate_all_leaves(model, rule).masses()
    k, trials = 2, 100_000
    run = sample_sequences(model, rule, (), k=k * trials, seed=99)
    per_trial = []
    for t in range(trials):
        chunk = run.sequences[t * k:(t + 1) * k]
        unique = {}
        for tokens, q in chunk:
            unique.setdefault(tokens, q)
        per_trial.append(sum(unique.values()))
    mean = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / math.sqrt(trials))
    closed = expected_coverage_closed_form(masses, k)
    assert abs(mean - closed) <= 3 * se
