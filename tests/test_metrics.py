import math
import random
import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dle.baseline import sample_sequences
from dle.errors import DuplicateSequences, InvariantViolation
from dle.metrics import (compensated_prefix_sums, compensated_sum, coverage, coverage_curve,
                         expected_coverage_closed_form, population_std, repetition_rate)
from dle.model import TableModel
from dle.oracle import enumerate_all_leaves
from dle.truncation import Epsilon
from reference import marginal_gain_closed_form, neumaier_loop_sum, pairwise_repetition_rate


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
    assert coverage_curve([((0,), 0.5), ((1,), 0.25), ((2,), 0.125)]) == [0.5, 0.75, 0.875]
    assert coverage_curve([]) == []


def test_expected_coverage_hand_values():
    assert expected_coverage_closed_form([0.7, 0.3], [1, 2]) == pytest.approx([0.58, 0.79],
                                                                             abs=1e-12)
    assert expected_coverage_closed_form([1.0], [5]) == pytest.approx([1.0])
    # Large k approaches the total retained mass.
    assert expected_coverage_closed_form([0.7, 0.3], [10_000]) == pytest.approx([1.0], abs=1e-12)
    assert expected_coverage_closed_form([0.4, 0.1], [10_000]) == pytest.approx([0.5], abs=1e-12)
    assert expected_coverage_closed_form([0.4, 0.1], []) == []
    assert expected_coverage_closed_form([], [0, 3]) == [0.0, 0.0]
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        expected_coverage_closed_form([0.4, 0.1], [2, -1])


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
        ks = (0, 1, 2, 5, 17)
        before = expected_coverage_closed_form(masses, ks)
        after = expected_coverage_closed_form(masses, [k + 1 for k in ks])
        for k, cov, next_cov in zip(ks, before, after):
            assert abs(next_cov - cov - marginal_gain_closed_form(masses, k)) <= 1e-12


def test_expected_coverage_monotone_and_gain_non_increasing():
    rng = random.Random(31)
    for _ in range(50):
        size = rng.randint(1, 30)
        raw = [rng.random() + 1e-3 for _ in range(size)]
        total = sum(raw)
        masses = [w / total for w in raw]
        previous_cov = 0.0
        previous_gain = float("inf")
        for k, cov in enumerate(expected_coverage_closed_form(masses, range(12))):
            gain = marginal_gain_closed_form(masses, k)
            assert cov >= previous_cov - 1e-15
            assert gain <= previous_gain + 1e-15
            assert gain >= 0.0
            previous_cov, previous_gain = cov, gain


def test_masses_validation():
    with pytest.raises(InvariantViolation):
        expected_coverage_closed_form([0.9, 0.3], [1])
    with pytest.raises(InvariantViolation):
        expected_coverage_closed_form([-0.1, 0.5], [1])


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


@settings(max_examples=300, deadline=None)
@given(questions=st.lists(generation_lists(), max_size=4))
def test_repetition_rates_match_the_pairwise_reference(questions):
    for gens in questions:
        assert repetition_rate(gens) == pairwise_repetition_rate(gens)


def test_compensated_sum_tracks_error_bound():
    # The compensation recovers the 1.0 that plain left-to-right addition loses.
    values = [1e16, 1.0, -1e16]
    assert sum(values) == 0.0
    assert compensated_sum(values) == 1.0


def same_float(a, b) -> bool:
    """Equal values with equal signs, so 0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@st.composite
def summands(draw):
    """Values of mixed magnitude and sign, signed zeros, and exact negatives of
    earlier values, so partial sums cancel exactly."""
    values = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["scaled", "zero", "negate", "plain"]))
        if kind == "scaled":
            values.append(draw(st.floats(-1.0, 1.0)) * 2.0 ** draw(st.integers(-80, 80)))
        elif kind == "zero":
            values.append(draw(st.sampled_from([0.0, -0.0])))
        elif kind == "negate" and values:
            values.append(-draw(st.sampled_from(values)))
        else:
            values.append(draw(st.floats(-1e300, 1e300)))
    return values


@settings(max_examples=500, deadline=None)
@given(values=summands())
def test_compensated_sums_match_the_loop_bit_for_bit(values):
    assert same_float(compensated_sum(values), neumaier_loop_sum(values))
    prefixes = compensated_prefix_sums(values)
    assert len(prefixes) == len(values)
    for i, prefix in enumerate(prefixes.tolist()):
        assert same_float(prefix, neumaier_loop_sum(values[:i + 1]))


@pytest.mark.parametrize("values", [
    [], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [-1.0, 1.0, -0.0],
    [1e16, 1.0, -1e16], [1.0, 1e100, 1.0, -1e100], [0.1] * 10, [3.0, -1e-30, -3.0],
])
def test_compensated_sum_examples_match_the_loop(values):
    for given_as in (values, np.array(values, dtype=np.float64), (v for v in values)):
        assert same_float(compensated_sum(given_as), neumaier_loop_sum(values))
    assert compensated_prefix_sums(np.array(values)).tolist() == \
        compensated_prefix_sums(values).tolist()


@st.composite
def leaf_masses(draw):
    """Positive masses summing to at most 1: a lone 1.0 or shares of a total
    up to 1, with subnormal masses among them."""
    if draw(st.booleans()):
        masses = [1.0]
    else:
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30))
        total = math.fsum(weights) * draw(st.floats(1.0, 4.0))
        masses = [w / total for w in weights]
    subnormal = st.floats(5e-324, sys.float_info.min, exclude_max=True)
    return draw(st.permutations(masses + draw(st.lists(subnormal, max_size=4))))


@settings(max_examples=300, deadline=None)
@given(masses=leaf_masses(),
       ks=st.lists(st.one_of(st.integers(0, 400), st.sampled_from([0, 1, sys.maxsize]),
                             st.integers(0, sys.maxsize)), max_size=8))
@example(masses=[1.0, 5e-324], ks=[0, 1, sys.maxsize])
@example(masses=[0.5, 2.5e-310, 0.25], ks=[sys.maxsize, 1, 0, 2])
def test_closed_form_curve_matches_the_loop_bit_for_bit(masses, ks):
    m = np.asarray(masses, dtype=np.float64)
    expected = [neumaier_loop_sum(m * (1 - (1 - m) ** k)) for k in ks]
    curve = expected_coverage_closed_form(masses, ks)
    assert len(curve) == len(expected)
    assert all(map(same_float, curve, expected)), (curve, expected)


@st.composite
def std_samples(draw):
    """1 to 20 finite floats of mixed exponents and signs: subnormals, signed
    zeros, magnitudes up to 1e308, and repeats of earlier values."""
    values = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["scaled", "subnormal", "zero", "repeat", "plain"]))
        if kind == "scaled":
            values.append(draw(st.floats(-2.0, 2.0)) * 2.0 ** draw(st.integers(-1000, 1000)))
        elif kind == "subnormal":
            values.append(draw(st.floats(-sys.float_info.min, sys.float_info.min)))
        elif kind == "zero":
            values.append(draw(st.sampled_from([0.0, -0.0])))
        elif kind == "repeat" and values:
            values.append(draw(st.sampled_from(values)))
        else:
            values.append(draw(st.floats(-1e308, 1e308)))
    return values


# statistics.pstdev rounds once only from Python 3.11 (the suite runs 3.11.7);
# on 3.10 it takes the float square root of a rounded variance, so it is no
# reference there.
@pytest.mark.skipif(sys.version_info < (3, 11), reason="pstdev rounds twice before 3.11")
@settings(max_examples=500, deadline=None)
@given(values=std_samples())
@example(values=[0.0])
@example(values=[1.0] * 10)
@example(values=[5e-324, 0.0])
@example(values=[-1e308, 1e308])
def test_population_std_matches_statistics_pstdev(values):
    assert population_std(values).hex() == statistics.pstdev(values).hex()


def test_empty_sums_are_zero():
    assert compensated_prefix_sums([]).shape == (0,)
    assert compensated_sum(iter(())) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_masses_are_rejected(bad):
    with pytest.raises(InvariantViolation, match="finite"):
        expected_coverage_closed_form([0.5, bad], [3])
    with pytest.raises(InvariantViolation, match="finite"):
        marginal_gain_closed_form([bad, 0.25], 1)
    with pytest.raises(InvariantViolation, match="not finite"):
        coverage([((0,), 0.5), ((1,), bad)])
    with pytest.raises(InvariantViolation, match="not finite"):
        coverage_curve([((0,), bad)])


def test_mass_sum_message_prints_a_plain_float():
    with pytest.raises(InvariantViolation) as excinfo:
        expected_coverage_closed_form(np.array([0.75, 0.75]), [1])
    assert str(excinfo.value) == "leaf masses sum to 1.5 > 1"


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
    [closed] = expected_coverage_closed_form(masses, [k])
    assert abs(mean - closed) <= 3 * se
