import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dle import truncation
from dle.errors import ConfigError
from dle.model import TableModel
from dle.truncation import (Composite, Epsilon, MinP, TopK, TopP, active_set,
                            apply_temperature, format_rule, greedy_token,
                            parse_rule, sequence_probability)
from reference import sorting_member_ids

DIST = np.array([0.5, 0.3, 0.15, 0.05])


def test_epsilon_keeps_tokens_strictly_above_threshold():
    active = active_set(DIST, Epsilon(eps=0.1))
    assert sorted(active.token_ids.tolist()) == [0, 1, 2]
    expected = {0: 0.5 / 0.95, 1: 0.3 / 0.95, 2: 0.15 / 0.95}
    for tok, w in zip(active.token_ids, active.weights):
        assert w == pytest.approx(expected[int(tok)], abs=1e-12)
    assert active.raw_mass == pytest.approx(0.95)


def test_top_p_includes_the_threshold_token():
    active = active_set(DIST, TopP(p=0.8))
    assert sorted(active.token_ids.tolist()) == [0, 1]
    assert active.weights[0] == pytest.approx(0.625)
    assert active.weights[1] == pytest.approx(0.375)


def test_top_p_cut_tolerates_rounding_below_the_threshold():
    probs = np.array([2.0, 1.0, 1.0, 3.0]) / 7.0
    # The running sum 3/7 + 2/7 rounds to one ulp below the float 5/7.
    assert np.cumsum([probs[3], probs[0]])[-1] < 5 / 7
    assert active_set(probs, TopP(p=5 / 7)).token_ids.tolist() == [3, 0]


def test_min_p_relative_threshold():
    active = active_set(DIST, MinP(p_min=0.2))
    # threshold = 0.2 * 0.5 = 0.1
    assert sorted(active.token_ids.tolist()) == [0, 1, 2]


def test_top_k_one_is_a_point_mass():
    active = active_set(DIST, TopK(k=1))
    assert active.token_ids.tolist() == [0]
    assert active.weights[0] == 1.0


def test_greedy_token_with_tie_break():
    assert greedy_token(np.array([0.9, 0.1])) == 0
    assert greedy_token(np.array([0.5, 0.5])) == 0
    assert greedy_token(np.array([0.1, 0.2, 0.7])) == 2


def test_epsilon_boundary_strict_vs_inclusive():
    probs = np.array([0.9, 0.1])
    strict = active_set(probs, Epsilon(eps=0.1))
    assert strict.token_ids.tolist() == [0]
    assert strict.weights[0] == 1.0
    inclusive = active_set(probs, Epsilon(eps=0.1, inclusive=True))
    assert inclusive.token_ids.tolist() == [0, 1]
    assert inclusive.weights.tolist() == pytest.approx([0.9, 0.1])


def test_epsilon_degenerate_falls_back_to_argmax():
    probs = np.array([0.4, 0.35, 0.25])
    active = active_set(probs, Epsilon(eps=0.5))
    assert active.token_ids.tolist() == [0]
    assert active.weights[0] == 1.0


def test_epsilon_monotonicity_on_random_distributions():
    rng = random.Random(7)
    for _ in range(200):
        size = rng.randint(2, 8)
        raw = [rng.random() + 1e-3 for _ in range(size)]
        probs = np.array(raw) / sum(raw)
        eps1, eps2 = sorted((rng.uniform(0.01, 0.9), rng.uniform(0.01, 0.9)))
        wide = set(active_set(probs, Epsilon(eps=eps1)).token_ids.tolist())
        narrow = set(active_set(probs, Epsilon(eps=eps2)).token_ids.tolist())
        assert narrow <= wide


def test_weights_sum_to_one_for_every_rule():
    rng = random.Random(11)
    rules = [TopK(k=3), TopP(p=0.7), MinP(p_min=0.3), Epsilon(eps=0.1),
             Composite(rules=(TopP(p=0.9), TopK(k=4)))]
    for _ in range(200):
        size = rng.randint(2, 10)
        raw = [rng.random() + 1e-3 for _ in range(size)]
        probs = np.array(raw) / sum(raw)
        for rule in rules:
            active = active_set(probs, rule)
            if len(active) == 1:
                assert active.weights[0] == 1.0
            else:
                assert abs(active.weights.sum() - 1.0) <= 1e-9
                assert (active.weights > 0.0).all()


def test_composite_is_intersection_renormalized_once():
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    composite = active_set(probs, Composite(rules=(TopP(p=0.9), TopK(k=2))))
    top_p_ids = set(active_set(probs, TopP(p=0.9)).token_ids.tolist())
    top_k_ids = set(active_set(probs, TopK(k=2)).token_ids.tolist())
    assert set(composite.token_ids.tolist()) == top_p_ids & top_k_ids
    # Renormalized over the intersection's raw mass.
    assert composite.weights.tolist() == pytest.approx([0.4 / 0.7, 0.3 / 0.7])


def test_sequence_probability_of_forced_path_is_one(fig_tree_model):
    # Greedy path through singleton active sets only.
    doc = {
        "vocab": ["a", "<eos>"], "eos": "<eos>",
        "transitions": {"": {"a": 1.0}, "a": {"<eos>": 1.0}},
    }
    model = TableModel.from_dict(doc)
    q = sequence_probability(model, Epsilon(eps=0.1), (), (0, 1))
    assert q == 1.0


def test_sequence_probability_two_step_product(fig_tree_model):
    # Root weights (0.9, 0.1), then (0.7, 0.3): completion (a, c) -> 0.63
    # under the boundary-inclusive threshold at 0.1.
    rule = Epsilon(eps=0.1, inclusive=True)
    q = sequence_probability(fig_tree_model, rule, (), (0, 2))
    assert q == pytest.approx(0.63, abs=1e-12)


def test_sequence_probability_outside_support_is_zero(fig_tree_model):
    rule = Epsilon(eps=0.1, inclusive=True)
    # Token h (id 7) after b falls below the threshold.
    q = sequence_probability(fig_tree_model, rule, (), (1, 7))
    assert q == 0.0


def test_leaf_probabilities_sum_to_one_via_oracle(fig_tree_model):
    from dle.oracle import enumerate_all_leaves
    rule = Epsilon(eps=0.1, inclusive=True)
    oracle_set = enumerate_all_leaves(fig_tree_model, rule)
    total = sum(sequence_probability(fig_tree_model, rule, (), tokens)
                for tokens, _ in oracle_set.leaves)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_apply_temperature_identity_and_greedy_limit():
    probs = np.array([0.6, 0.3, 0.1])
    assert apply_temperature(probs, 1.0) is probs
    cold = apply_temperature(probs, 0.0)
    assert cold.tolist() == [1.0, 0.0, 0.0]
    warm = apply_temperature(probs, 0.5)
    expected = probs ** 2 / (probs ** 2).sum()
    assert warm == pytest.approx(expected)
    hot = apply_temperature(probs, 2.0)
    assert hot[0] < probs[0]  # flattens toward uniform
    assert hot.sum() == pytest.approx(1.0)


def test_parse_rule_round_trip():
    for text in ["epsilon:0.05", "top_p:0.9", "min_p:0.1", "top_k:10",
                 "epsilon_ge:0.1", "top_p:0.95+top_k:10"]:
        rule = parse_rule(text)
        assert parse_rule(format_rule(rule)) == rule
    assert parse_rule("top_p:0.95+top_k:10") == Composite(rules=(TopP(p=0.95), TopK(k=10)))


def test_parse_rule_rejects_garbage():
    for bad in ["", "epsilon", "epsilon:zero", "nucleus:0.9", "top_k:0", "top_p:1.5"]:
        with pytest.raises(ConfigError):
            parse_rule(bad)


def test_rule_parameter_validation():
    with pytest.raises(ConfigError):
        Epsilon(eps=0.0)
    with pytest.raises(ConfigError):
        TopK(k=0)
    with pytest.raises(ConfigError):
        Composite(rules=())


# Small integer weights: zero probabilities, ties at the top-k boundary, and
# cumulative sums that land exactly on a top-p threshold are all common.
_WEIGHTS = st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any)


def _single_rules(weights):
    probs = np.array(weights, dtype=np.float64) / sum(weights)
    values = sorted({float(p) for p in probs if p > 0.0})
    # Top-p thresholds on a cut of the ranking: the cumulative sum itself, and
    # the exact prefix mass, which can sit an ulp above it.
    ranked = sorted(weights, reverse=True)
    cuts = [float(c) for c in np.cumsum(np.sort(probs)[::-1]) if 0.0 < c <= 1.0]
    cuts += [sum(ranked[:i]) / sum(weights) for i in range(1, len(ranked) + 1)]
    unit = st.floats(1e-6, 1.0)
    return st.one_of(
        st.builds(TopK, k=st.integers(1, len(weights) + 1)),
        st.builds(TopP, p=st.one_of(st.sampled_from(cuts), unit)),
        st.builds(MinP, p_min=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), unit)),
        st.builds(Epsilon, eps=st.one_of(st.sampled_from(values), unit), inclusive=st.booleans()),
    )


def _rules(weights):
    def composite(parts):
        return st.builds(lambda rs: Composite(rules=tuple(rs)), st.lists(parts, min_size=1, max_size=3))

    single = _single_rules(weights)
    return st.one_of(single, composite(st.one_of(single, composite(single))))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), weights=_WEIGHTS)
def test_active_set_matches_the_sorting_reference(data, weights):
    probs = np.array(weights, dtype=np.float64) / sum(weights)
    rule = data.draw(_rules(weights))
    new = active_set(probs, rule)
    assert np.array_equal(truncation._member_ids(probs, rule), sorting_member_ids(probs, rule))
    with mock.patch.object(truncation, "_member_ids", sorting_member_ids):
        old = active_set(probs, rule)
    assert new.token_ids.dtype == old.token_ids.dtype
    assert new.token_ids.tolist() == old.token_ids.tolist()
    assert new.weights.tobytes() == old.weights.tobytes()
    assert new.raw_mass.hex() == old.raw_mass.hex()
