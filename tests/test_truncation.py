import array
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dle.errors import ConfigError
from dle.model import SparseRow, TableModel
from dle.truncation import (Composite, Epsilon, MinP, TopK, TopP, active_set,
                            apply_temperature, parse_rule)
from reference import (dense_apply_temperature, greedy_token, numpy_active_set,
                       sequence_probability, sorting_member_ids, sparse_row)

DIST = sparse_row([0.5, 0.3, 0.15, 0.05])


def test_epsilon_keeps_tokens_strictly_above_threshold():
    active = active_set(DIST, Epsilon(eps=0.1))
    assert sorted(active.token_ids) == [0, 1, 2]
    expected = {0: 0.5 / 0.95, 1: 0.3 / 0.95, 2: 0.15 / 0.95}
    for tok, w in zip(active.token_ids, active.weights):
        assert w == pytest.approx(expected[tok], abs=1e-12)
    assert active.raw_mass == pytest.approx(0.95)


def test_top_p_includes_the_threshold_token():
    active = active_set(DIST, TopP(p=0.8))
    assert sorted(active.token_ids) == [0, 1]
    assert active.weights[0] == pytest.approx(0.625)
    assert active.weights[1] == pytest.approx(0.375)


def test_top_p_cut_tolerates_rounding_below_the_threshold():
    probs = np.array([2.0, 1.0, 1.0, 3.0]) / 7.0
    # The running sum 3/7 + 2/7 rounds to one ulp below the float 5/7.
    assert np.cumsum([probs[3], probs[0]])[-1] < 5 / 7
    assert active_set(sparse_row(probs), TopP(p=5 / 7)).token_ids == (3, 0)


@pytest.mark.parametrize("positive", [3, 12])
def test_top_p_keeps_no_zero_of_a_row_summing_below_one(positive):
    # Model rows may sum to 1 within 1e-9, so top_p:1.0 can run out of
    # positive tokens before its threshold; the zeros ranked after them stay out.
    probs = np.zeros(2 * positive)
    probs[::2] = (1.0 - 5e-10) / positive
    for rule in (TopP(p=1.0), Composite(rules=(TopP(p=1.0), TopK(k=2 * positive)))):
        active = active_set(sparse_row(probs), rule)
        assert sorted(active.token_ids) == list(range(0, 2 * positive, 2))
        ids, weights, raw_mass = numpy_active_set(probs, rule)
        assert active.token_ids == tuple(ids.tolist())
        assert active.weights == tuple(weights.tolist())
        assert active.raw_mass == raw_mass


def test_min_p_relative_threshold():
    active = active_set(DIST, MinP(p_min=0.2))
    # threshold = 0.2 * 0.5 = 0.1
    assert sorted(active.token_ids) == [0, 1, 2]


def test_top_k_one_is_a_point_mass():
    active = active_set(DIST, TopK(k=1))
    assert active.token_ids == (0,)
    assert active.weights == (1.0,)


def test_greedy_token_with_tie_break():
    def greedy(row):
        return apply_temperature(row, 0.0).ids

    assert greedy(sparse_row([0.9, 0.1])) == (0,)
    assert greedy(sparse_row([0.5, 0.5])) == (0,)
    assert greedy(sparse_row([0.1, 0.2, 0.7])) == (2,)
    # The floor ids follow the entries above the floor, lowest id first.
    assert greedy(SparseRow((), (), 0.25, 4)) == (0,)
    assert greedy(SparseRow((0, 2), (0.2, 0.4), 0.2, 4)) == (2,)


def test_epsilon_boundary_strict_vs_inclusive():
    probs = sparse_row([0.9, 0.1])
    strict = active_set(probs, Epsilon(eps=0.1))
    assert strict.token_ids == (0,)
    assert strict.weights[0] == 1.0
    inclusive = active_set(probs, Epsilon(eps=0.1, inclusive=True))
    assert inclusive.token_ids == (0, 1)
    assert inclusive.weights == pytest.approx((0.9, 0.1))


def test_epsilon_degenerate_falls_back_to_argmax():
    probs = sparse_row([0.4, 0.35, 0.25])
    active = active_set(probs, Epsilon(eps=0.5))
    assert active.token_ids == (0,)
    assert active.weights == (1.0,)


def test_epsilon_monotonicity_on_random_distributions():
    rng = random.Random(7)
    for _ in range(200):
        size = rng.randint(2, 8)
        raw = [rng.random() + 1e-3 for _ in range(size)]
        probs = sparse_row(np.array(raw) / sum(raw))
        eps1, eps2 = sorted((rng.uniform(0.01, 0.9), rng.uniform(0.01, 0.9)))
        wide = set(active_set(probs, Epsilon(eps=eps1)).token_ids)
        narrow = set(active_set(probs, Epsilon(eps=eps2)).token_ids)
        assert narrow <= wide


def test_weights_sum_to_one_for_every_rule():
    rng = random.Random(11)
    rules = [TopK(k=3), TopP(p=0.7), MinP(p_min=0.3), Epsilon(eps=0.1),
             Composite(rules=(TopP(p=0.9), TopK(k=4)))]
    for _ in range(200):
        size = rng.randint(2, 10)
        raw = [rng.random() + 1e-3 for _ in range(size)]
        probs = sparse_row(np.array(raw) / sum(raw))
        for rule in rules:
            active = active_set(probs, rule)
            if len(active) == 1:
                assert active.weights[0] == 1.0
            else:
                assert abs(math.fsum(active.weights) - 1.0) <= 1e-9
                assert min(active.weights) > 0.0


def test_composite_is_intersection_renormalized_once():
    probs = sparse_row([0.4, 0.3, 0.2, 0.1])
    composite = active_set(probs, Composite(rules=(TopP(p=0.9), TopK(k=2))))
    top_p_ids = set(active_set(probs, TopP(p=0.9)).token_ids)
    top_k_ids = set(active_set(probs, TopK(k=2)).token_ids)
    assert set(composite.token_ids) == top_p_ids & top_k_ids
    # Renormalized over the intersection's raw mass.
    assert composite.weights == pytest.approx((0.4 / 0.7, 0.3 / 0.7))


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


def test_apply_temperature_rejects_nan_and_negative_temperatures():
    for bad in (float("nan"), -0.5):
        with pytest.raises(ConfigError, match="temperature must be >= 0"):
            apply_temperature(sparse_row([0.6, 0.4]), bad)


def test_apply_temperature_identity_and_greedy_limit():
    row = sparse_row([0.6, 0.3, 0.1])
    probs = row.dense()
    assert apply_temperature(row, 1.0) is row
    cold = apply_temperature(row, 0.0).dense()
    assert cold.tolist() == [1.0, 0.0, 0.0]
    warm = apply_temperature(row, 0.5).dense()
    expected = probs ** 2 / (probs ** 2).sum()
    assert warm == pytest.approx(expected)
    hot = apply_temperature(row, 2.0).dense()
    assert hot[0] < probs[0]  # flattens toward uniform
    assert hot.sum() == pytest.approx(1.0)


_DISTRIBUTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(
    lambda values: sum(values) > 0.0).map(lambda values: np.array(values) / sum(values))


@settings(max_examples=300, deadline=None)
@given(probs=_DISTRIBUTIONS,
       temperature=st.one_of(st.floats(0.0, 1e300, exclude_min=True),
                             st.sampled_from([5e-324, 1e-320, 1e-310, 1e-306, 1e-300])))
# So small a T overflows every scaled logit to -inf; a tied maximum stays finite.
@example(probs=np.array([0.5, 0.3, 0.2]), temperature=1e-320)
@example(probs=np.array([0.3, 0.3, 0.4 - 1e-300]), temperature=1e-306)
def test_apply_temperature_gives_a_distribution_for_any_positive_temperature(probs, temperature):
    out = apply_temperature(sparse_row(probs), temperature).dense()
    assert np.isfinite(out).all()
    assert math.fsum(out) == pytest.approx(1.0, abs=1e-12)
    assert out[greedy_token(probs)] == out.max()


def test_apply_temperature_overflow_takes_the_greedy_limit():
    probs = sparse_row([0.2, 0.5, 0.3])
    assert apply_temperature(probs, 1e-320).dense().tolist() == [0.0, 1.0, 0.0]
    # A tied maximum whose scaled logit is finite keeps its share.
    tied = sparse_row([0.5, 0.5, 1e-300])
    assert apply_temperature(tied, 1e-306).dense().tolist() == [0.5, 0.5, 0.0]


def test_parse_rule_examples():
    assert parse_rule("epsilon:0.05") == Epsilon(eps=0.05)
    assert parse_rule("epsilon_ge:0.1") == Epsilon(eps=0.1, inclusive=True)
    assert parse_rule("top_p:0.9") == TopP(p=0.9)
    assert parse_rule("min_p:0.1") == MinP(p_min=0.1)
    assert parse_rule("top_k:10") == TopK(k=10)
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


def _ngram_row(counts, floor, alpha, positions):
    """An add-alpha row: `floor` tokens at weight alpha, and count + alpha
    for each count, inserted at the given positions."""
    row = [alpha] * floor
    for count, at in zip(counts, positions):
        row.insert(at, count + alpha)
    return row


# Small integer weights: zero probabilities, ties at the top-k boundary, and
# cumulative sums that land exactly on a top-p threshold are all common. The
# second kind looks like a smoothed n-gram row: a few peaks over many tokens
# tied at one floor weight, which a top-k cut can fall inside. The third is
# an add-alpha n-gram row of a real vocabulary's size: 1 to 4 peaks over 100
# to 400 tied floor weights. The fourth has float magnitudes from 1e-9 to 1,
# where a left-to-right sum of 7 to 9 survivors often differs from numpy's
# pairwise one.
_WEIGHTS = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any),
    st.tuples(st.lists(st.integers(2, 9), max_size=4), st.integers(2, 60), st.integers(0, 5))
    .flatmap(lambda t: st.permutations(t[0] + [1] * t[1] + [0] * t[2])),
    st.builds(_ngram_row, st.lists(st.integers(1, 60), min_size=1, max_size=4),
              st.integers(100, 400), st.sampled_from([1.0, 0.01]),
              st.lists(st.integers(0, 400), min_size=4, max_size=4)),
    st.lists(st.builds(lambda m, e: m * 10.0 ** -e, st.floats(1.0, 10.0), st.integers(0, 9)),
             min_size=1, max_size=12),
)


def _normalized(weights):
    return np.array(weights, dtype=np.float64) / sum(weights)


def _single_rules(weights, probs):
    values = sorted({float(p) for p in probs if p > 0.0})
    # Top-p thresholds on a cut of the ranking: the cumulative sum itself, the
    # exact prefix mass, which can sit an ulp above it, and the sum plus the
    # cut's 1e-12 tolerance, which puts the searched value on the sum.
    ranked = sorted(weights, reverse=True)
    sums = [float(c) for c in np.cumsum(np.sort(probs)[::-1])]
    cuts = sums + [c + 1e-12 for c in sums]
    cuts += [sum(ranked[:i]) / sum(weights) for i in range(1, len(ranked) + 1)]
    cuts = [c for c in cuts if 0.0 < c <= 1.0]
    unit = st.floats(1e-6, 1.0)
    return st.one_of(
        st.builds(TopK, k=st.integers(1, len(weights) + 1)),
        st.builds(TopP, p=st.one_of(st.sampled_from(cuts), unit)),
        st.builds(MinP, p_min=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), unit)),
        st.builds(Epsilon, eps=st.one_of(st.sampled_from(values), unit), inclusive=st.booleans()),
    )


def _threshold_top_k(probs):
    """A min_p or epsilon rule plus top_k, with k one below, at, one above or
    anywhere up to the number of tokens the threshold keeps."""
    values = sorted({float(p) for p in probs if p > 0.0})
    threshold = st.one_of(
        st.builds(MinP, p_min=st.sampled_from([v / values[-1] for v in values])),
        st.builds(Epsilon, eps=st.sampled_from(values), inclusive=st.booleans()))

    def with_top_k(rule):
        pool = len(sorting_member_ids(probs, rule))
        ks = st.one_of(st.sampled_from(sorted({max(1, pool - 1), max(1, pool), pool + 1})),
                       st.integers(1, pool + 1))
        return st.builds(lambda k, first: Composite(
            rules=(rule, TopK(k=k)) if first else (TopK(k=k), rule)), ks, st.booleans())

    return threshold.flatmap(with_top_k)


def _rules(weights, probs=None):
    """Rules whose thresholds sit on the values and cumulative sums of
    `probs`, by default the normalized weights."""
    if probs is None:
        probs = _normalized(weights)

    def composite(parts):
        return st.builds(lambda rs: Composite(rules=tuple(rs)), st.lists(parts, min_size=1, max_size=3))

    single = _single_rules(weights, probs)
    return st.one_of(single, composite(st.one_of(single, composite(single))),
                     _threshold_top_k(probs))


def _cases():
    return _WEIGHTS.flatmap(lambda weights: st.tuples(st.just(weights), _rules(weights)))


def _as_row(probs: np.ndarray, listed: int) -> SparseRow:
    """A dense distribution as a sparse row whose floor is its smallest
    probability (0 when it has zeros). Every id above the floor is listed,
    and of the ids at the floor those with `id % 4 < listed`, as an n-gram
    row lists an observed weight equal to its floor or a table row an
    explicit zero."""
    floor = float(probs.min())
    ids = [i for i, p in enumerate(probs.tolist()) if p != floor or i % 4 < listed]
    return SparseRow(tuple(ids), tuple(probs[ids].tolist()), floor, len(probs))


def _check_against_dense(row: SparseRow, rule) -> None:
    """The row's active set equals the dense references' bit for bit: ids,
    weights, log weights and raw mass, and the sorting member ids."""
    probs = row.dense()
    new = active_set(row, rule)
    members = sorting_member_ids(probs, rule)
    # With no member the step falls back to the argmax.
    assert sorted(new.token_ids) == (members.tolist() or [greedy_token(probs)])
    ids, old_weights, raw_mass = numpy_active_set(probs, rule)
    old_weights = old_weights.tolist()
    assert list(new.token_ids) == ids.tolist()
    assert all(type(t) is int for t in new.token_ids)
    assert [w.hex() for w in new.weights] == [w.hex() for w in old_weights]
    assert [w.hex() for w in new.log_weights] == [math.log(w).hex() for w in old_weights]
    assert type(new.raw_mass) is float and new.raw_mass.hex() == raw_mass.hex()


# Exactly 7 and exactly 8 survivors whose left-to-right sum differs from a
# pairwise one: the last pool summed by a loop, the first summed by numpy,
# unranked and ranked (top-p). Then one peak over 370 tied floor weights,
# where top_k:4 cuts inside the floor ids. Last, zeros inside the top-k of a
# row with no threshold rule, unranked and ranked (top-p).
@settings(max_examples=500, deadline=None)
@given(case=_cases(), listed=st.integers(0, 4))
@example(case=([1.385, 8.412e-4, 5.255e-6, 7.427e-6, 4.555e-9, 0.05002, 0.891], TopP(p=1.0)),
         listed=0)
@example(case=([7.642, 6.304, 9.67e-4, 6.652e-4, 6.334e-5, 0.02597, 3.814e-5, 8.595e-4],
               Epsilon(eps=1e-12)), listed=0)
@example(case=([7.642, 6.304, 9.67e-4, 6.652e-4, 6.334e-5, 0.02597, 3.814e-5, 8.595e-4],
               TopP(p=1.0)), listed=0)
@example(case=(_ngram_row([1], 370, 0.01, [100]), Composite(rules=(TopP(p=0.5), TopK(k=4)))),
         listed=0)
@example(case=([0, 2, 0, 1, 0, 0, 1], TopK(k=5)), listed=4)
@example(case=([0, 2, 0, 1, 0, 0, 1], Composite(rules=(TopP(p=1.0), TopK(k=5)))), listed=2)
def test_active_set_matches_the_sorting_reference(case, listed):
    weights, rule = case
    _check_against_dense(_as_row(_normalized(weights), listed), rule)


@st.composite
def _sparse_rows(draw):
    """Rows as the models give them. An add-alpha n-gram row: observed
    continuations over a floor, or none (an unseen context), with an alpha
    so large that count + alpha rounds to alpha and an observed weight
    equals the floor. A floor-0 row listing explicit zero weights, as a
    table may. A wide row of 64 to 200 listed entries with ties, which ranks
    them in numpy."""
    kind = draw(st.sampled_from(["ngram", "table", "wide"]))
    size = draw(st.integers(1, 300))
    if kind == "ngram":
        alpha = draw(st.sampled_from([1.0, 0.01, 1e20]))
        ids = sorted(draw(st.sets(st.integers(0, size - 1), max_size=min(size, 12))))
        counts = [draw(st.integers(1, 60)) for _ in ids]
        denom = sum(counts) + alpha * size
        return SparseRow(tuple(ids), tuple((c + alpha) / denom for c in counts), alpha / denom, size)
    if kind == "table":
        ids = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(size, 12))))
        weights = [draw(st.integers(0, 4)) for _ in ids]
        weights[draw(st.integers(0, len(ids) - 1))] += 1
        total = sum(weights)
        row = SparseRow(tuple(ids), tuple(w / total for w in weights), 0.0, size)
    else:
        weights = draw(st.lists(st.integers(0, 50), min_size=64, max_size=200).filter(any))
        floor = draw(st.sampled_from([0, 1]))
        size = len(weights) + draw(st.integers(0, 50))
        total = sum(weights) + floor * size
        ids = tuple(range(size - len(weights), size))
        row = SparseRow(ids, tuple((w + floor) / total for w in weights), floor / total, size)
    return row


def _row_rules(row):
    probs = row.dense()
    return _rules(probs.tolist(), probs)


# Then floor-0 rows listing one positive entry, under each rule kind, where
# epsilon:1 keeps nothing and the step falls back to the argmax. Then a lone
# zero entry, which is no point mass on its id: the argmax is id 0. Last,
# floor > 0 rows listing one entry: the floor fails min_p (also tempered) and
# an epsilon between floor and entry, so the entry is the lone candidate;
# top_k:1 and top_p:1.0 keep the floor; an entry equal to the floor is a
# floor id, and with every id failing the argmax is id 0.
@settings(max_examples=500, deadline=None)
@given(case=_sparse_rows().flatmap(lambda row: st.tuples(st.just(row), _row_rules(row))),
       temperature=st.sampled_from([1.0, 0.0, 1e-320, 0.7, 2.5]), views=st.booleans())
@example(case=(SparseRow((3,), (0.5,), 0.5 / 9, 10), Composite(rules=(MinP(0.05), TopK(k=8)))),
         temperature=1.0, views=False)
@example(case=(SparseRow((0, 2), (1e20 / (1 + 3e20), 1e20 / (1 + 3e20)), 1e20 / (1 + 3e20), 3),
               Composite(rules=(Composite(rules=(TopP(p=0.5),)), TopK(k=2)))), temperature=0.7,
         views=True)
@example(case=(SparseRow((3,), (0.75,), 0.0, 10), TopK(k=2)), temperature=1.0, views=True)
@example(case=(SparseRow((3,), (0.75,), 0.0, 10), TopP(p=0.9)), temperature=2.5, views=False)
@example(case=(SparseRow((3,), (0.75,), 0.0, 10), MinP(0.5)), temperature=1.0, views=True)
@example(case=(SparseRow((3,), (1.0,), 0.0, 10), Epsilon(eps=0.05)), temperature=1.0,
         views=False)
@example(case=(SparseRow((3,), (0.75,), 0.0, 10), Epsilon(eps=1.0)), temperature=1.0, views=True)
@example(case=(SparseRow((0,), (1.0,), 0.0, 1),
               Composite(rules=(TopP(p=1.0), Epsilon(eps=1.0, inclusive=True)))),
         temperature=1.0, views=False)
@example(case=(SparseRow((3,), (0.0,), 0.0, 10), TopK(k=2)), temperature=1.0, views=False)
@example(case=(SparseRow((3,), (91 / 100,), 1 / 100, 10), Composite(rules=(MinP(0.2), TopK(k=8)))),
         temperature=1.0, views=True)
@example(case=(SparseRow((3,), (91 / 100,), 1 / 100, 10), Composite(rules=(MinP(0.2), TopK(k=8)))),
         temperature=0.7, views=False)
@example(case=(SparseRow((3,), (91 / 100,), 1 / 100, 10), TopK(k=1)), temperature=1.0,
         views=False)
@example(case=(SparseRow((3,), (91 / 100,), 1 / 100, 10), Epsilon(eps=0.5)), temperature=1.0,
         views=True)
@example(case=(SparseRow((3,), (91 / 100,), 1 / 100, 10), TopP(p=1.0)), temperature=1.0,
         views=False)
@example(case=(SparseRow((3,), (1 / 10,), 1 / 10, 10), Epsilon(eps=0.5)), temperature=1.0,
         views=False)
def test_sparse_rows_match_the_dense_references(case, temperature, views):
    row, rule = case
    if views:
        # As a table model hands its rows out: read-only memoryviews of arrays.
        row = row._replace(ids=memoryview(array.array("q", row.ids)).toreadonly(),
                           probs=memoryview(array.array("d", row.probs)).toreadonly())
    hot = apply_temperature(row, temperature)
    dense = dense_apply_temperature(row.dense(), temperature)
    assert hot.dense().tobytes() == dense.tobytes()
    assert all(p >= hot.floor for p in hot.probs)
    _check_against_dense(hot, rule)
