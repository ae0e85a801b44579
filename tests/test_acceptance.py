"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own output.
"""

import functools
import hashlib
import itertools
import time

import numpy as np
import pytest

from conftest import FIG_TREE_DOC, make_random_table_model
from dle.baseline import sample_sequences
from dle.cache_sim import PrefixCache, simulate
from dle.engine import Budget, BranchPolicy, EarlyStopConfig, enumerate_leaves
from dle.metrics import coverage, coverage_curve, expected_coverage_closed_form, repetition_rate
from dle.model import TableModel
from dle.oracle import enumerate_all_leaves
from dle.remote import RemoteModel
from dle.truncation import Epsilon, MinP, TopK, TopP
from reference import marginal_gain_closed_form, monte_carlo_coverage_from_masses, top_k_by_mass

MODULE_START = time.perf_counter()
FIG_RULE = Epsilon(eps=0.1, inclusive=True)
RULE_CYCLE = [Epsilon(eps=0.05), TopP(p=0.9), MinP(p_min=0.1), TopK(k=3)]
UNLIMITED = Budget(max_leaves=10 ** 9)


def criterion(num, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num:>2}: {text}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\n[PASS] criterion {num:>2}: {text} ({elapsed:.2f}s)")
        return wrapper
    return decorate


def fig_model() -> TableModel:
    return TableModel.from_dict(FIG_TREE_DOC)


def leaf_digest(leaves) -> str:
    payload = repr([(l.tokens, l.q) for l in leaves]).encode()
    return hashlib.sha256(payload).hexdigest()


@criterion(1, "worked-figure golden run: visit orders and masses, < 1 s")
def test_criterion_1_worked_figure():
    started = time.perf_counter()
    model = fig_model()
    prob = enumerate_leaves(model, FIG_RULE, (), BranchPolicy("probfirst"),
                            Budget(max_leaves=4))
    div = enumerate_leaves(model, FIG_RULE, (), BranchPolicy("divfirst"),
                           Budget(max_leaves=4))
    prob_masses = [l.q for l in prob.leaves]
    div_masses = [l.q for l in div.leaves]
    assert prob_masses == pytest.approx([0.504, 0.27, 0.126, 0.1], abs=1e-12)
    assert div_masses == pytest.approx([0.504, 0.1, 0.27, 0.126], abs=1e-12)
    assert abs(sum(prob_masses) - 1.0) <= 1e-9
    assert time.perf_counter() - started < 1.0


@criterion(2, "support equivalence vs brute force on 500 random models, < 60 s")
def test_criterion_2_support_equivalence():
    started = time.perf_counter()
    for seed in range(500):
        model = make_random_table_model(seed, max_vocab=6, max_depth=6)
        rule = RULE_CYCLE[seed % 4]
        oracle_map = dict(enumerate_all_leaves(model, rule).leaves)
        result = enumerate_leaves(model, rule, (), BranchPolicy("probfirst"),
                                  UNLIMITED, early_stop=None)
        assert result.frontier_exhausted
        assert {l.tokens for l in result.leaves} == set(oracle_map)
        for leaf in result.leaves:
            assert abs(leaf.q - oracle_map[leaf.tokens]) <= 1e-9
    assert time.perf_counter() - started < 60.0


def _mass_vectors(base_seed, count, min_leaves=2, sharpness=1.0):
    out = []
    seed = base_seed
    while len(out) < count:
        model = make_random_table_model(seed, sharpness=sharpness)
        rule = RULE_CYCLE[seed % 4]
        oracle_set = enumerate_all_leaves(model, rule)
        if len(oracle_set.leaves) >= min_leaves:
            out.append((model, rule, oracle_set))
        seed += 1
    return out


@criterion(3, "closed-form expected coverage vs 1e5-trial Monte Carlo on 50 trees, < 120 s")
def test_criterion_3_expected_coverage_closed_form():
    started = time.perf_counter()
    trees = _mass_vectors(1000, 50)
    for i, (_, _, oracle_set) in enumerate(trees):
        masses = oracle_set.masses()
        previous_gain = float("inf")
        ks = (1, 2, 4, 8)
        closed_curve = expected_coverage_closed_form(masses, ks)
        next_curve = expected_coverage_closed_form(masses, [k + 1 for k in ks])
        for k, closed, next_closed in zip(ks, closed_curve, next_curve):
            mean, se = monte_carlo_coverage_from_masses(masses, k, trials=100_000,
                                                        seed=i * 16 + k)
            assert abs(mean - closed) <= 3 * se
            gain = marginal_gain_closed_form(masses, k)
            diff = next_closed - closed
            assert abs(gain - diff) <= 1e-12
            assert gain <= previous_gain + 1e-15
            previous_gain = gain
    assert time.perf_counter() - started < 120.0


@criterion(4, "top-k-by-mass attains maximal coverage over all k-subsets (<= 12 leaves)")
def test_criterion_4_top_k_optimality():
    checked = 0
    seed = 300
    while checked < 12:
        model = make_random_table_model(seed)
        rule = RULE_CYCLE[seed % 4]
        oracle_set = enumerate_all_leaves(model, rule)
        seed += 1
        if not 2 <= len(oracle_set.leaves) <= 12:
            continue
        leaves = list(oracle_set.leaves)
        for k in range(1, min(4, len(leaves)) + 1):
            best = coverage(top_k_by_mass(oracle_set, k))
            for subset in itertools.combinations(leaves, k):
                assert coverage(list(subset)) <= best + 1e-12
        checked += 1


@criterion(5, "enumeration coverage dominates expected sampled coverage on >= 95% of pairs")
def test_criterion_5_coverage_dominance():
    trees = _mass_vectors(2000, 100, sharpness=3.0)
    wins = 0
    total = 0
    ratios = []
    for model, rule, oracle_set in trees:
        k_max = len(oracle_set.leaves) // 2
        if k_max < 1:
            continue
        result = enumerate_leaves(model, rule, (), BranchPolicy("probfirst"),
                                  Budget(max_leaves=k_max))
        curve = coverage_curve([(l.tokens, l.q) for l in result.leaves])
        masses = oracle_set.masses()
        closed = expected_coverage_closed_form(masses, range(1, k_max + 1))
        for k, expected in enumerate(closed, 1):
            dle_cov = curve[min(k, len(curve)) - 1]
            total += 1
            wins += dle_cov >= expected
            ratios.append(dle_cov / expected)
    assert total >= 100
    assert wins / total >= 0.95
    assert float(np.mean(ratios)) >= 1.0


@criterion(6, "distinct leaves; deterministic reruns hash-identical; seed-stable randbranch")
def test_criterion_6_distinctness_and_determinism():
    model = fig_model()
    for policy in ("probfirst", "divfirst", "globalprob", "dfs"):
        first = enumerate_leaves(model, FIG_RULE, (), BranchPolicy(policy),
                                 Budget(max_leaves=4))
        second = enumerate_leaves(model, FIG_RULE, (), BranchPolicy(policy),
                                  Budget(max_leaves=4))
        assert leaf_digest(first.leaves) == leaf_digest(second.leaves)
    for seed in range(25):
        rand_model = make_random_table_model(seed + 600)
        rule = RULE_CYCLE[seed % 4]
        result = enumerate_leaves(rand_model, rule, (), BranchPolicy("probfirst"),
                                  Budget(max_leaves=32))
        tokens = [l.tokens for l in result.leaves]
        assert len(set(tokens)) == len(tokens)
        one = enumerate_leaves(rand_model, rule, (), BranchPolicy("randbranch", seed=9),
                               Budget(max_leaves=8))
        two = enumerate_leaves(rand_model, rule, (), BranchPolicy("randbranch", seed=9),
                               Budget(max_leaves=8))
        assert leaf_digest(one.leaves) == leaf_digest(two.leaves)


@criterion(7, "cache accounting: ordering invariant, replay equals ceiling, beats prompt-only")
def test_criterion_7_cache_accounting():
    prompt = (50, 51, 52, 53, 54)
    hand = [prompt + (1, 2, 3), prompt + (1, 2, 4)]
    stats = simulate(hand, PrefixCache())
    assert stats.theoretical_hits == 7
    assert stats.flat_length == 16
    assert stats.theoretical_rate == 7 / 16
    for seed in range(30):
        model = make_random_table_model(seed + 700)
        rule = RULE_CYCLE[seed % 4]
        result = enumerate_leaves(model, rule, prompt, BranchPolicy("probfirst"),
                                  Budget(max_leaves=8))
        streams = [prompt + leaf.tokens for leaf in result.leaves]
        unlimited = simulate(streams, PrefixCache())
        assert 0 <= unlimited.actual_hits <= unlimited.theoretical_hits <= unlimited.flat_length
        assert unlimited.actual_hits == unlimited.theoretical_hits
        capped = simulate(streams, PrefixCache(block_size=2, capacity=8, eviction="lru"))
        assert 0 <= capped.actual_hits <= capped.theoretical_hits <= capped.flat_length
        prompt_only = (len(streams) - 1) * len(prompt)
        shares_generated = any(
            a != b and a[len(prompt)] == b[len(prompt)]
            for a, b in itertools.combinations(streams, 2))
        if shares_generated:
            assert unlimited.theoretical_hits > prompt_only


@criterion(8, "metric exactness: repetition rate hand values")
def test_criterion_8_metric_exactness():
    assert repetition_rate([(1, 2, 3), (1, 2, 4)]) == 1 / 3


def _chain_model(chain_len: int, fanout: int) -> TableModel:
    # Forced chain of `chain_len` tokens, one branch into `fanout` equally
    # likely tails, each terminating immediately: all leaves share the chain
    # prefix and have identical length chain_len + 2.
    tokens = ["s"] + [f"t{i}" for i in range(fanout)] + ["<eos>"]
    transitions = {}
    for depth in range(chain_len):
        transitions[" ".join(["s"] * depth)] = {"s": 1.0}
    transitions[" ".join(["s"] * chain_len)] = {f"t{i}": 1.0 / fanout for i in range(fanout)}
    for i in range(fanout):
        transitions[" ".join(["s"] * chain_len + [f"t{i}"])] = {"<eos>": 1.0}
    return TableModel.from_dict({"vocab": tokens, "eos": "<eos>", "transitions": transitions})


@criterion(9, "token-budget mode completes at least as many sequences, strictly more on shared prefixes")
def test_criterion_9_token_budget_mode():
    rule = TopP(p=1.0)
    for chain_len, fanout in ((3, 2), (4, 3), (6, 4), (8, 2)):
        model = _chain_model(chain_len, fanout)
        leaf_len = chain_len + 2
        for extra in range(0, fanout):
            budget_tokens = leaf_len + extra
            result = enumerate_leaves(model, rule, (), BranchPolicy("probfirst"),
                                      Budget(max_leaves=10 ** 9, max_new_tokens=budget_tokens))
            dle_completed = len(result.leaves)
            run = sample_sequences(model, rule, (), k=budget_tokens, seed=1)
            spent = 0
            sampled_completed = 0
            for tokens, _ in run.sequences:
                if spent + len(tokens) > budget_tokens:
                    break
                spent += len(tokens)
                sampled_completed += 1
            assert dle_completed >= sampled_completed
            # The shared chain prefix exceeds half the leaf length, so any
            # leftover budget buys the enumerator a whole extra sequence.
            if extra >= 1 and chain_len > leaf_len / 2:
                assert dle_completed > sampled_completed


@criterion(10, "early stopping: inert above the length cap, prunes the constructed merge")
def test_criterion_10_early_stopping():
    for seed in range(20):
        model = make_random_table_model(seed + 800)
        rule = RULE_CYCLE[seed % 4]
        cap = 16
        budget = Budget(max_leaves=10 ** 9, max_seq_len=cap)
        inert = enumerate_leaves(model, rule, (), BranchPolicy("probfirst"), budget,
                                 EarlyStopConfig(n=cap + 1))
        disabled = enumerate_leaves(model, rule, (), BranchPolicy("probfirst"), budget, None)
        assert [l.tokens for l in inert.leaves] == [l.tokens for l in disabled.leaves]
        assert inert.stats.early_stop_triggers == 0

    merge = TableModel.from_dict({
        "vocab": ["a", "b", "c", "<eos>"], "eos": "<eos>",
        "transitions": {"": {"a": 0.6, "b": 0.4},
                        "a": {"c": 1.0}, "a c": {"<eos>": 1.0},
                        "b": {"c": 1.0}, "b c": {"<eos>": 1.0}}})
    result = enumerate_leaves(merge, MinP(p_min=0.5), (), BranchPolicy("probfirst"),
                              UNLIMITED, EarlyStopConfig(n=1))
    assert len(result.leaves) == 1
    assert result.stats.early_stop_triggers == 1
    assert result.stats.wasted_tokens == 1
    rollouts_with_branch = result.stats.rollouts - 1
    assert result.stats.early_stop_triggers / max(1, rollouts_with_branch) == 1.0


@criterion(11, "no network needed: remote path served by the bundled stub; suite stays in budget")
def test_criterion_11_offline_and_fast(stub_server):
    stub_server.configure({"": {"x": -0.1, "y": -2.0}, "x": {"<eos>": 0.0},
                           "y": {"<eos>": 0.0}})
    model = RemoteModel(base_url=stub_server.url, top_n=4)
    result = enumerate_leaves(model, Epsilon(eps=0.05), (), BranchPolicy("probfirst"),
                              Budget(max_leaves=4))
    assert len(result.leaves) == 2
    assert sum(l.q for l in result.leaves) == pytest.approx(1.0, abs=1e-9)
    assert stub_server.url.startswith("http://127.0.0.1")
    elapsed = time.perf_counter() - MODULE_START
    assert elapsed < 300.0
