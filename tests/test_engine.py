import hashlib
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from conftest import make_random_table_model, memo_models, ngram_memo_models
from dle import engine
from dle.baseline import sample_sequences
from dle.engine import (POLICIES, Budget, BranchPolicy, EarlyStopConfig, Frontier, TokenStats,
                        enumerate_leaves, greedy_rollout, select_branch)
from dle.errors import ConfigError, EmptyFrontier, ModelError
from dle.model import TableModel, train_ngram_model
from dle.oracle import enumerate_all_leaves
from dle.tree import DEFAULT_MAX_SEQ_LEN, STOP_EOS, UNEXPANDED, PrunedTree
from dle.truncation import Epsilon, MinP, TopK, TopP, parse_rule
from reference import (ScanRecord, UnmemoizedModel, WindowContextModel, early_stop_check,
                       linear_select_branch, mix, node_enumerate_leaves, node_greedy_rollout)

FIG_RULE = Epsilon(eps=0.1, inclusive=True)
UNLIMITED = Budget(max_leaves=10 ** 9)


def table(doc):
    return TableModel.from_dict(doc)


def run(model, rule, policy="probfirst", budget=UNLIMITED, early_stop=None, prompt=()):
    return enumerate_leaves(model, rule, prompt, BranchPolicy.parse(policy), budget, early_stop)


def leaf_hash(leaves):
    payload = repr([(l.tokens, l.q, l.stop_reason) for l in leaves]).encode()
    return hashlib.sha256(payload).hexdigest()


def test_root_rollout_reproduces_worked_tree(fig_tree_model):
    tree = PrunedTree()
    stats = TokenStats()
    outcome = greedy_rollout(fig_tree_model, FIG_RULE, tree, tree.root, (),
                             UNLIMITED, stats, None)
    leaf = outcome.leaf
    assert leaf.q == pytest.approx(0.504, abs=1e-12)
    masses = sorted(math.exp(tree.log_mass[node_id]) for node_id in outcome.branches)
    assert masses == pytest.approx([0.1, 0.126, 0.27], abs=1e-12)


def test_rollout_on_forced_model_has_no_branch_points():
    model = table({"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
                   "transitions": {"": {"a": 1.0}, "a": {"b": 1.0}, "a b": {"<eos>": 1.0}}})
    result = run(model, Epsilon(eps=0.1))
    assert len(result.leaves) == 1
    assert result.leaves[0].q == 1.0
    assert result.frontier_exhausted


def test_probfirst_visits_figure_order(fig_tree_model):
    result = run(fig_tree_model, FIG_RULE, "probfirst", Budget(max_leaves=4))
    assert [round(l.q, 9) for l in result.leaves] == [0.504, 0.27, 0.126, 0.1]
    assert sum(l.q for l in result.leaves) == pytest.approx(1.0, abs=1e-9)


def test_divfirst_visits_earliest_positions_first(fig_tree_model):
    result = run(fig_tree_model, FIG_RULE, "divfirst", Budget(max_leaves=4))
    assert [round(l.q, 9) for l in result.leaves] == [0.504, 0.1, 0.27, 0.126]


def test_globalprob_orders_by_edge_weight(fig_tree_model):
    # Alternative edges: b 0.1 at root, d 0.3, f 0.2.
    result = run(fig_tree_model, FIG_RULE, "globalprob", Budget(max_leaves=4))
    assert [round(l.q, 9) for l in result.leaves] == [0.504, 0.27, 0.126, 0.1]


def test_dfs_explores_deepest_first(fig_tree_model):
    result = run(fig_tree_model, FIG_RULE, "dfs", Budget(max_leaves=4))
    assert [round(l.q, 9) for l in result.leaves] == [0.504, 0.126, 0.27, 0.1]


def test_k_one_returns_exactly_the_greedy_sequence(fig_tree_model):
    result = run(fig_tree_model, FIG_RULE, budget=Budget(max_leaves=1))
    assert len(result.leaves) == 1
    assert result.leaves[0].tokens == (0, 2, 4, 8)  # a c e <eos>
    assert result.leaves[0].q == pytest.approx(0.504)


def test_first_leaf_is_always_greedy():
    model = table({"vocab": ["a", "b", "<eos>"], "eos": "<eos>",
                   "transitions": {"": {"a": 0.45, "b": 0.55},
                                   "a": {"<eos>": 1.0},
                                   "b": {"a": 0.5, "b": 0.5},
                                   "b a": {"<eos>": 1.0}, "b b": {"<eos>": 1.0}}})
    result = run(model, MinP(p_min=0.1))
    assert result.leaves[0].tokens[0] == 1  # greedy first step follows b


def add_branch(tree, position, token, log_mass, edge_weight):
    """Append a node with these fields to the tree's lists, whatever its
    parent's; return its id, the next in discovery order."""
    for values, value in [(tree.parent, tree.root), (tree.token, token),
                          (tree.edge_weight, edge_weight), (tree.log_mass, log_mass),
                          (tree.depth, position + 1), (tree.status, UNEXPANDED)]:
        values.append(value)
    return len(tree.status) - 1


def test_select_branch_matches_worked_frontier():
    tree = PrunedTree()
    points = [add_branch(tree, 0, 1, math.log(0.1), 0.1),
              add_branch(tree, 1, 3, math.log(0.27), 0.3),
              add_branch(tree, 2, 5, math.log(0.126), 0.2)]

    def first_pick(kind):
        frontier = Frontier(BranchPolicy(kind), tree)
        frontier.extend(points)
        picked = select_branch(frontier)
        assert len(frontier) == 2
        return points.index(picked)

    assert first_pick("probfirst") == 1
    assert first_pick("divfirst") == 0
    assert first_pick("globalprob") == 1
    assert first_pick("dfs") == 2


def test_select_branch_tie_breaks_on_earlier_position():
    # Bit-equal masses at different depths: log(0.5)+log(0.5) on both paths,
    # one of them through a forced edge contributing exactly 0.0.
    model = table({"vocab": ["a", "b", "c", "d", "e", "f", "g", "<eos>"], "eos": "<eos>",
                   "transitions": {
                       "": {"a": 0.5, "b": 0.5},
                       "a": {"c": 0.5, "d": 0.5},
                       "a c": {"<eos>": 1.0}, "a d": {"<eos>": 1.0},
                       "b": {"e": 1.0},
                       "b e": {"f": 0.5, "g": 0.5},
                       "b e f": {"<eos>": 1.0}, "b e g": {"<eos>": 1.0}}})
    rule = MinP(p_min=0.5)
    result = run(model, rule, "probfirst", UNLIMITED)
    tokens = [l.tokens for l in result.leaves]
    # Greedy: (a c), then the 0.5-mass root alternative b, whose rollout
    # leaves a deeper 0.25-mass point that exactly ties (a d).
    assert tokens[0] == (0, 2, 7)
    assert tokens[1] == (1, 4, 5, 7)
    assert tokens[2] == (0, 3, 7)      # position 1 wins the tie
    assert tokens[3] == (1, 4, 6, 7)
    assert result.leaves[2].q == result.leaves[3].q  # the tie was real


def test_empty_frontier_raises():
    with pytest.raises(EmptyFrontier):
        select_branch(Frontier(BranchPolicy("probfirst"), PrunedTree()))
    with pytest.raises(EmptyFrontier):
        select_branch(Frontier(BranchPolicy("randbranch", seed=0), PrunedTree()))


def test_policy_parsing():
    assert BranchPolicy.parse("randbranch:42").seed == 42
    with pytest.raises(ConfigError, match=rf"^seed {2 ** 64} is outside -2\*\*63\.\.2\*\*63-1$"):
        BranchPolicy.parse(f"randbranch:{2 ** 64}")
    with pytest.raises(ConfigError):
        BranchPolicy.parse("randbranch")
    with pytest.raises(ConfigError):
        BranchPolicy.parse("probfirst:3")
    with pytest.raises(ConfigError):
        BranchPolicy.parse("bestfirst")


def test_budget_validation():
    with pytest.raises(ConfigError):
        Budget()
    with pytest.raises(ConfigError):
        Budget(max_leaves=0)
    Budget(max_new_tokens=5)


def test_early_stop_check_examples():
    assert early_stop_check((7, 8, 9), [(7, 8, 9, 1)], n=3)
    assert not early_stop_check((7, 8, 5), [(7, 8, 9, 1)], n=3)
    assert not early_stop_check((7, 8), [(7, 8, 9)], n=3)  # fewer than n so far


MERGE_DOC = {
    "vocab": ["a", "b", "c", "<eos>"], "eos": "<eos>",
    "transitions": {"": {"a": 0.6, "b": 0.4},
                    "a": {"c": 1.0}, "a c": {"<eos>": 1.0},
                    "b": {"c": 1.0}, "b c": {"<eos>": 1.0}},
}


def test_early_stop_merge_prunes_duplicate_suffix():
    model = table(MERGE_DOC)
    rule = MinP(p_min=0.5)
    result = run(model, rule, early_stop=EarlyStopConfig(n=1))
    assert len(result.leaves) == 1
    assert result.leaves[0].tokens == (0, 2, 3)
    assert result.stats.early_stop_triggers == 1
    assert result.stats.wasted_tokens == 1
    assert result.frontier_exhausted


def test_early_stop_disabled_keeps_both_leaves():
    model = table(MERGE_DOC)
    rule = MinP(p_min=0.5)
    result = run(model, rule, early_stop=None)
    assert len(result.leaves) == 2


def test_early_stop_above_length_cap_equals_disabled(fig_tree_model):
    budget = Budget(max_leaves=10 ** 9, max_seq_len=16)
    with_stop = enumerate_leaves(fig_tree_model, FIG_RULE, (), BranchPolicy("probfirst"),
                                 budget, EarlyStopConfig(n=32))
    without = enumerate_leaves(fig_tree_model, FIG_RULE, (), BranchPolicy("probfirst"),
                               budget, None)
    assert [l.tokens for l in with_stop.leaves] == [l.tokens for l in without.leaves]
    assert with_stop.stats.early_stop_triggers == 0


def test_early_stop_only_compares_siblings_sharing_prefix():
    # The leaf (b e x) contains the continuation "x" that the branch (a e)
    # also produces, but it does not share the pre-branch prefix (a,), so it
    # must not trigger the merge rule; the genuine sibling (a c y) differs.
    model = table({"vocab": ["a", "b", "c", "e", "x", "y", "<eos>"], "eos": "<eos>",
                   "transitions": {
                       "": {"a": 0.6, "b": 0.4},
                       "a": {"c": 0.7, "e": 0.3},
                       "a c": {"y": 1.0}, "a c y": {"<eos>": 1.0},
                       "a e": {"x": 1.0}, "a e x": {"<eos>": 1.0},
                       "b": {"e": 1.0}, "b e": {"x": 1.0}, "b e x": {"<eos>": 1.0}}})
    rule = MinP(p_min=0.1)
    result = run(model, rule, early_stop=EarlyStopConfig(n=1))
    assert len(result.leaves) == 3
    assert result.stats.early_stop_triggers == 0


@st.composite
def _capped_models(draw):
    """A random table model, whose paths end within 6 tokens, under any cap;
    or a small n-gram model, whose paths may loop, under a cap of 1 to 4."""
    if draw(st.booleans()):
        return (make_random_table_model(draw(st.integers(0, 10_000))),
                draw(st.sampled_from([1, 2, 3, 4, DEFAULT_MAX_SEQ_LEN])))
    return draw(ngram_memo_models()), draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(model_and_cap=_capped_models(),
       rule=st.sampled_from([Epsilon(eps=0.05), TopP(p=0.9), MinP(p_min=0.1), TopK(k=3)]))
def test_support_equivalence_with_oracle(model_and_cap, rule):
    # Both end a path at eos or at the cap, so an exhausted run lists the
    # oracle's leaves, length-capped ones included.
    model, max_seq_len = model_and_cap
    oracle_set = enumerate_all_leaves(model, rule, max_seq_len=max_seq_len)
    result = run(model, rule, budget=Budget(max_leaves=10 ** 9, max_seq_len=max_seq_len))
    assert result.frontier_exhausted
    oracle_map = dict(oracle_set.leaves)
    assert len(result.leaves) == len(oracle_map)
    assert {l.tokens for l in result.leaves} == set(oracle_map)
    for leaf in result.leaves:
        assert abs(leaf.q - oracle_map[leaf.tokens]) <= 1e-9
        assert (leaf.stop_reason == STOP_EOS) == (leaf.tokens[-1] == model.vocab.eos_id)


def test_leaves_are_pairwise_distinct(random_model_factory):
    for seed in range(20):
        model = random_model_factory(seed + 1000)
        result = run(model, TopP(p=0.95), budget=Budget(max_leaves=32))
        tokens = [l.tokens for l in result.leaves]
        assert len(set(tokens)) == len(tokens)


def test_running_coverage_is_monotone(random_model_factory):
    for seed in (3, 17, 29):
        model = random_model_factory(seed)
        result = run(model, TopP(p=0.95), budget=Budget(max_leaves=64))
        running = 0.0
        for leaf in result.leaves:
            assert leaf.q > 0.0
            running += leaf.q
        assert running <= 1.0 + 1e-6


def test_deterministic_runs_hash_identical(fig_tree_model, random_model_factory):
    for policy in ("probfirst", "divfirst", "globalprob", "dfs"):
        first = run(fig_tree_model, FIG_RULE, policy, Budget(max_leaves=4))
        second = run(fig_tree_model, FIG_RULE, policy, Budget(max_leaves=4))
        assert leaf_hash(first.leaves) == leaf_hash(second.leaves)
    model = random_model_factory(77)
    one = run(model, TopP(p=0.9), "randbranch:123", Budget(max_leaves=8))
    two = run(model, TopP(p=0.9), "randbranch:123", Budget(max_leaves=8))
    assert leaf_hash(one.leaves) == leaf_hash(two.leaves)


def test_randbranch_is_a_valid_reordering(random_model_factory):
    model = random_model_factory(5)
    rule = TopP(p=0.95)
    baseline = {l.tokens for l in run(model, rule, budget=UNLIMITED).leaves}
    sampled = {l.tokens for l in run(model, rule, "randbranch:9", UNLIMITED).leaves}
    assert sampled == baseline


def test_token_accounting_matches_model_calls(fig_tree_model, random_model_factory):
    # Each decoding step, memoized or not, expands one tree node and appends
    # one token, so the expanded nodes count the steps.
    def steps(result):
        return len(result.tree.children)

    def run_tree(model, rule, budget=UNLIMITED, early_stop=None):
        return enumerate_leaves(model, rule, (), BranchPolicy("probfirst"), budget, early_stop,
                                keep_tree=True)

    result = run_tree(fig_tree_model, FIG_RULE, budget=Budget(max_leaves=4))
    stats = result.stats
    assert sum(l.new_tokens for l in result.leaves) + stats.wasted_tokens == steps(result)
    assert stats.generated_tokens == steps(result)
    for seed in range(10):
        model = random_model_factory(seed + 50)
        res = run_tree(model, TopP(p=0.9), early_stop=EarlyStopConfig(n=1))
        assert (sum(l.new_tokens for l in res.leaves) + res.stats.wasted_tokens
                == steps(res))
    res = run_tree(fig_tree_model, FIG_RULE, budget=Budget(max_new_tokens=7))
    assert res.stats.discarded_tokens > 0
    assert res.stats.generated_tokens == steps(res)


def test_leaf_length_accounting(fig_tree_model):
    prompt = (0, 1)  # any ids; the table model ignores the prompt
    result = run(fig_tree_model, FIG_RULE, budget=Budget(max_leaves=4), prompt=prompt)
    for leaf in result.leaves:
        assert leaf.new_tokens + leaf.reused_prefix_len == len(prompt) + len(leaf.tokens)
    # First leaf generated everything beyond the prompt itself.
    assert result.leaves[0].new_tokens == len(result.leaves[0].tokens)
    assert result.leaves[0].reused_prefix_len == len(prompt)
    # Later leaves inherit their branch token from the tree.
    assert result.leaves[1].new_tokens < len(result.leaves[1].tokens)


def test_token_budget_cuts_rollout_and_counts_tokens(fig_tree_model):
    # divfirst visits the two-call branch (b g eos) second; a budget of 5
    # allows the greedy leaf (4 tokens) plus one more call before the cut.
    budget = Budget(max_leaves=10 ** 9, max_new_tokens=5)
    result = run(fig_tree_model, FIG_RULE, "divfirst", budget)
    assert len(result.leaves) == 1
    assert result.stats.discarded_tokens == 1
    assert result.stats.generated_tokens == 5
    assert not result.frontier_exhausted


def test_token_budget_exact_completion_is_kept(fig_tree_model):
    budget = Budget(max_leaves=10 ** 9, max_new_tokens=5)
    result = run(fig_tree_model, FIG_RULE, "probfirst", budget)
    # probfirst's second rollout is a single eos call: 4 + 1 = 5 tokens.
    assert len(result.leaves) == 2
    assert result.stats.discarded_tokens == 0
    assert result.stats.generated_tokens == 5


def test_length_cap_produces_capped_leaf():
    model = table({"vocab": ["a", "<eos>"], "eos": "<eos>",
                   "transitions": {}, "default": {"a": 0.9, "<eos>": 0.1}})
    result = run(model, TopK(k=1), budget=Budget(max_leaves=1, max_seq_len=6))
    leaf = result.leaves[0]
    assert leaf.stop_reason == "length-cap"
    assert len(leaf.tokens) == 6
    assert leaf.tokens == (0,) * 6


class FlakyModel:
    """Delegates to a table model, failing every call after the first n."""

    def __init__(self, inner, allowed_calls):
        self.inner = inner
        self.allowed_calls = allowed_calls
        self.calls = 0

    @property
    def vocab(self):
        return self.inner.vocab

    def context(self, prompt, generated):
        return self.inner.context(prompt, generated)

    def next_distribution(self, prompt, generated):
        self.calls += 1
        if self.calls > self.allowed_calls:
            raise ModelError("injected failure")
        return self.inner.next_distribution(prompt, generated)


def test_model_error_after_first_leaf_degrades(fig_tree_model):
    flaky = FlakyModel(fig_tree_model, allowed_calls=5)
    result = run(flaky, FIG_RULE, budget=Budget(max_leaves=4))
    assert result.degraded
    assert len(result.leaves) >= 1
    tokens = [l.tokens for l in result.leaves]
    assert len(set(tokens)) == len(tokens)


def test_model_error_before_any_leaf_raises(fig_tree_model):
    flaky = FlakyModel(fig_tree_model, allowed_calls=1)
    with pytest.raises(ModelError):
        run(flaky, FIG_RULE, budget=Budget(max_leaves=4))


# Few distinct values per field, so exact key ties are common. Log masses of
# -745 and below exponentiate to 0.0 and -740 to a subnormal: a frontier of
# only those makes the randbranch pick round up to its total, past the end.
_POINT_FIELDS = st.tuples(
    st.one_of(st.sampled_from([0.0, math.log(0.5), math.log(0.25), math.log(0.125), -2.5]),
              st.sampled_from([-740.0, -800.0, -1e4])),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from([0.5, 0.25, 0.1]),
)


@settings(max_examples=150, deadline=None)
# The point picked first is the only positive one and sits at the end; then
# every live mass is 0.0 and the picks run past the end to the last live point.
@example(kind="randbranch", seed=0,
         batches=[([(-800.0, 0, 0, 0.5), (-800.0, 0, 1, 0.5), (0.0, 0, 2, 0.5)], 3)])
@given(kind=st.sampled_from(POLICIES), seed=st.integers(0, 2 ** 32),
       batches=st.lists(st.tuples(st.lists(_POINT_FIELDS, max_size=40), st.integers(0, 12)),
                        min_size=1, max_size=12))
def test_frontier_pops_match_the_linear_scan(kind, seed, batches):
    # Each batch is followed by up to 12 picks, so randbranch frontiers
    # compact (half their entries picked) at many sizes and mid-run.
    # Node ids are handed out in discovery order, as `expand_node` does.
    policy = BranchPolicy(kind, seed=seed if kind == "randbranch" else None)
    rng = random.Random(mix(seed, "randbranch")) if kind == "randbranch" else None
    tree = PrunedTree()
    frontier = Frontier(policy, tree)
    reference: list[ScanRecord] = []
    picks, expected = [], []

    def pick_both():
        picks.append(select_branch(frontier))
        expected.append(reference.pop(linear_select_branch(reference, policy, rng)).node_id)

    for batch, picks_after in batches:
        branch_ids = []
        for log_mass, position, token, edge_weight in batch:
            branch_ids.append(add_branch(tree, position, token, log_mass, edge_weight))
            reference.append(ScanRecord(branch_ids[-1], position, token, log_mass, edge_weight,
                                        branch_ids[-1]))
        frontier.extend(branch_ids)
        for _ in range(min(picks_after, len(reference))):
            pick_both()
            assert len(frontier) == len(reference)
    while reference:
        pick_both()
    assert len(frontier) == 0
    assert picks == expected


class FailingContextModel:
    """Delegates to a model, raising ModelError for one context."""

    def __init__(self, inner, bad_context):
        self.inner = inner
        self.vocab = inner.vocab
        self.bad_context = bad_context

    def context(self, prompt, generated):
        return self.inner.context(prompt, generated)

    def next_distribution(self, prompt, generated):
        if self.inner.context(prompt, generated) == self.bad_context:
            raise ModelError("injected failure")
        return self.inner.next_distribution(prompt, generated)


def enumeration_outcome(model, rule, prompt, policy, budget, early_stop, steps=None,
                        enumerate_fn=enumerate_leaves):
    """Everything an enumeration reports, the dumped tree included, or
    "raised" when a model error propagates."""
    try:
        result = enumerate_fn(model, rule, prompt, policy, budget, early_stop,
                              keep_tree=True, steps=steps)
    except ModelError:
        return "raised"
    return (result.leaves, result.stats, result.frontier_exhausted, result.degraded,
            json.dumps(result.tree.to_dict(), sort_keys=True))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), model=memo_models(),
       rule=st.sampled_from(["epsilon:0.05", "top_k:2", "top_p:0.9", "min_p:0.3",
                             "top_p:0.8+top_k:3", "min_p:0.1+top_k:2"]),
       policy=st.sampled_from(["probfirst", "divfirst", "randbranch:7", "globalprob", "dfs"]),
       max_leaves=st.one_of(st.none(), st.integers(1, 25)), max_new_tokens=st.integers(1, 80),
       max_seq_len=st.integers(1, 8), early_stop_n=st.one_of(st.none(), st.integers(1, 3)),
       temperature=st.sampled_from([1.0, 0.6]), k=st.integers(1, 12), seed=st.integers(0, 99))
def test_step_memo_changes_no_output(data, model, rule, policy, max_leaves, max_new_tokens,
                                     max_seq_len, early_stop_n, temperature, k, seed):
    prompt = tuple(data.draw(st.lists(st.integers(0, model.vocab.size - 1), max_size=2)))
    rule, policy = parse_rule(rule), BranchPolicy.parse(policy)
    budget = Budget(max_leaves=max_leaves,
                    max_new_tokens=None if data.draw(st.booleans()) and max_leaves else max_new_tokens,
                    max_seq_len=max_seq_len)
    early_stop = None if early_stop_n is None else EarlyStopConfig(n=early_stop_n)
    args = (rule, prompt, policy, budget, early_stop)
    memoized = enumeration_outcome(model, *args)
    assert memoized == enumeration_outcome(UnmemoizedModel(model), *args)
    draws = sample_sequences(model, rule, prompt, k, seed, temperature, max_seq_len)
    reference = sample_sequences(UnmemoizedModel(model), rule, prompt, k, seed, temperature,
                                 max_seq_len)
    assert (draws.sequences, draws.degraded) == (reference.sequences, reference.degraded)

    # A model error on one context the run reaches gives the same result, or
    # the same propagated error, with and without the memo.
    tree = enumerate_leaves(model, *args, keep_tree=True).tree
    contexts = sorted({repr(model.context(prompt, tree.path_tokens(node_id))): node_id
                       for node_id in sorted(tree.children)}.items())
    _, node_id = data.draw(st.sampled_from(contexts))
    failing = FailingContextModel(model, model.context(prompt, tree.path_tokens(node_id)))
    assert enumeration_outcome(failing, *args) == enumeration_outcome(UnmemoizedModel(failing), *args)


def per_prompt_outcomes(model, prompts, args, sample_args, shared):
    """Each prompt's enumeration outcome and (draws, degraded) pair, from runs
    that share one step memo per command or each start a fresh one."""
    enum_steps, sample_steps = {}, {}
    outcomes = []
    for prompt in prompts:
        enumerated = enumeration_outcome(model, args[0], prompt, *args[1:],
                                         steps=enum_steps if shared else None)
        run = sample_sequences(model, args[0], prompt, *sample_args,
                               steps=sample_steps if shared else None)
        outcomes.append((enumerated, run.sequences, run.degraded))
    return outcomes, enum_steps


@settings(max_examples=100, deadline=None)
@given(data=st.data(), model=memo_models(),
       rule=st.sampled_from(["epsilon:0.05", "top_k:2", "top_p:0.9", "min_p:0.3",
                             "min_p:0.1+top_k:2"]),
       policy=st.sampled_from(["probfirst", "divfirst", "randbranch:7", "globalprob", "dfs"]),
       max_leaves=st.integers(1, 12), max_seq_len=st.integers(1, 7),
       early_stop_n=st.one_of(st.none(), st.integers(1, 3)),
       temperature=st.sampled_from([1.0, 0.6]), k=st.integers(1, 8), seed=st.integers(0, 99))
def test_shared_step_memo_matches_a_fresh_memo_per_prompt(data, model, rule, policy, max_leaves,
                                                          max_seq_len, early_stop_n,
                                                          temperature, k, seed):
    # Prompts are windows of one token sequence, so their contexts overlap,
    # and a prompt may come more than once.
    base = data.draw(st.lists(st.integers(0, model.vocab.size - 1), max_size=4))
    windows = [tuple(base[i:j]) for i in range(len(base) + 1) for j in range(i, len(base) + 1)]
    prompts = data.draw(st.lists(st.sampled_from(windows), min_size=2, max_size=5))
    early_stop = None if early_stop_n is None else EarlyStopConfig(n=early_stop_n)
    args = (parse_rule(rule), BranchPolicy.parse(policy),
            Budget(max_leaves=max_leaves, max_seq_len=max_seq_len), early_stop)
    sample_args = (k, seed, temperature, max_seq_len)

    shared, steps = per_prompt_outcomes(model, prompts, args, sample_args, shared=True)
    assert shared == per_prompt_outcomes(model, prompts, args, sample_args, shared=False)[0]
    assert shared == per_prompt_outcomes(UnmemoizedModel(model), prompts, args, sample_args,
                                         shared=False)[0]

    # A model error on one context that some prompt reaches gives each
    # prompt the same outcome, or the same propagated error, either way.
    bad = data.draw(st.sampled_from(sorted(steps, key=repr)))
    failing = FailingContextModel(model, bad)
    shared = per_prompt_outcomes(failing, prompts, args, sample_args, shared=True)[0]
    assert shared == per_prompt_outcomes(failing, prompts, args, sample_args, shared=False)[0]
    assert shared == per_prompt_outcomes(UnmemoizedModel(failing), prompts, args, sample_args,
                                         shared=False)[0]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), model=ngram_memo_models(),
       rule=st.sampled_from(["epsilon:0.05", "top_k:2", "top_p:0.9", "min_p:0.3",
                             "min_p:0.1+top_k:2"]),
       policy=st.sampled_from(["probfirst", "divfirst", "randbranch:7", "globalprob", "dfs"]),
       max_leaves=st.integers(1, 12), max_seq_len=st.integers(1, 7),
       early_stop_n=st.one_of(st.none(), st.integers(1, 3)),
       temperature=st.sampled_from([1.0, 0.6]), k=st.integers(1, 8), seed=st.integers(0, 99))
def test_row_keys_match_window_keys(data, model, rule, policy, max_leaves, max_seq_len,
                                    early_stop_n, temperature, k, seed):
    # Memos keyed by the model's row keys and by the trailing windows give
    # the same leaves, dumped trees and draws, for one prompt or several
    # that share a memo. Outcomes are compared as text, every float bit included.
    base = data.draw(st.lists(st.integers(0, model.vocab.size - 1), max_size=4))
    windows = [tuple(base[i:j]) for i in range(len(base) + 1) for j in range(i, len(base) + 1)]
    prompts = data.draw(st.lists(st.sampled_from(windows), min_size=1, max_size=4))
    early_stop = None if early_stop_n is None else EarlyStopConfig(n=early_stop_n)
    args = (parse_rule(rule), BranchPolicy.parse(policy),
            Budget(max_leaves=max_leaves, max_seq_len=max_seq_len), early_stop)
    sample_args = (k, seed, temperature, max_seq_len)
    windowed = WindowContextModel(model)
    assert repr(per_prompt_outcomes(model, prompts, args, sample_args, shared=True)[0]) == \
        repr(per_prompt_outcomes(windowed, prompts, args, sample_args, shared=True)[0])


def test_ngram_memo_models_reach_windows_that_share_a_row():
    # The property above runs enumerations in which distinct windows share a step.
    def expands_windows_that_share_a_row(model):
        tree = enumerate_leaves(model, TopK(k=2), (), BranchPolicy("probfirst"),
                                Budget(max_leaves=8, max_seq_len=6), keep_tree=True).tree
        prefixes = [tree.path_tokens(node_id) for node_id in tree.children]
        windows = {WindowContextModel(model).context((), prefix) for prefix in prefixes}
        return len({model.context((), prefix) for prefix in prefixes}) < len(windows)

    find(ngram_memo_models(), expands_windows_that_share_a_row,
         settings=settings(database=None, max_examples=200))


@settings(max_examples=150, deadline=None)
@given(model=memo_models(),
       rule=st.sampled_from(["epsilon:0.05", "top_k:2", "top_p:0.9", "min_p:0.3", "top_k:3"]),
       policy=st.sampled_from(["probfirst", "divfirst", "randbranch:7", "globalprob", "dfs"]),
       max_leaves=st.integers(1, 40), max_new_tokens=st.one_of(st.none(), st.integers(1, 100)),
       max_seq_len=st.integers(1, 10), n=st.integers(1, 3), prompt_len=st.integers(0, 2))
def test_sibling_index_matches_the_leaf_scan(model, rule, policy, max_leaves, max_new_tokens,
                                             max_seq_len, n, prompt_len):
    prompt = tuple(range(min(prompt_len, model.vocab.size)))
    budget = Budget(max_leaves=max_leaves, max_new_tokens=max_new_tokens, max_seq_len=max_seq_len)
    args = (model, parse_rule(rule), prompt, BranchPolicy.parse(policy), budget,
            EarlyStopConfig(n=n))
    index_rounds, scan_rounds = [], []
    rollout = engine.greedy_rollout

    def recording_rollout(*call, **kwargs):
        outcome = rollout(*call, **kwargs)
        index_rounds.append((call[3], list(call[8]), outcome.stopped_early))
        return outcome

    def recording_node_rollout(*call):
        stats = call[6]
        triggers = stats.early_stop_triggers
        outcome = node_greedy_rollout(*call)
        scan_rounds.append((call[3], list(call[8]), stats.early_stop_triggers > triggers))
        return outcome

    with mock.patch.object(engine, "greedy_rollout", recording_rollout), \
            mock.patch("reference.node_greedy_rollout", recording_node_rollout):
        indexed = enumerate_leaves(*args, keep_tree=True)
        scanned = node_enumerate_leaves(*args, keep_tree=True)
    # The scan's ties end on its own discovery counter and the engine's on
    # node ids, so equal results show that node ids number branch points in
    # discovery order.
    assert (indexed.leaves, indexed.stats, indexed.frontier_exhausted) == \
        (scanned.leaves, scanned.stats, scanned.frontier_exhausted)
    assert indexed.tree.to_dict() == scanned.tree.to_dict()
    # Every branch got the scan's candidates, in leaf order, and stopped alike.
    assert index_rounds == scan_rounds
    tree = indexed.tree
    for start, candidates, stopped_early in index_rounds:
        if start == tree.root:
            continue
        # A branch stops early exactly when its first n tokens after the
        # branch point (the greedy path below it) equal a sibling's, unless
        # the last of them is eos, which completes the leaf first.
        position = len(tree.path_tokens(start)) - 1
        head, node = [], start
        while node in tree.children and len(head) < n:
            node = tree.children[node][0]
            head.append(tree.token[node])
        suffixes = [c[position + 1:] for c in candidates]
        assert stopped_early == (early_stop_check(head, suffixes, n)
                                 and model.vocab.eos_id not in head)
    assert indexed.stats.early_stop_triggers == sum(r[2] for r in index_rounds)


_MERGING_MODEL = train_ngram_model("abcab\nbcabc\ncab", order=3, alpha=0.5, tokenization="char")


@settings(max_examples=150, deadline=None)
@given(model=memo_models(), prompt=st.lists(st.integers(0, 4), max_size=2),
       rule=st.sampled_from(["epsilon:0.05", "top_k:2", "top_p:0.9", "min_p:0.3",
                             "top_p:0.8+top_k:3", "min_p:0.1+top_k:2"]),
       policy=st.sampled_from(["probfirst", "divfirst", "randbranch:7", "globalprob", "dfs"]),
       max_leaves=st.one_of(st.none(), st.integers(1, 30)),
       max_new_tokens=st.one_of(st.none(), st.integers(1, 120)), max_seq_len=st.integers(1, 9),
       early_stop_n=st.one_of(st.none(), st.integers(1, 3)),
       allowed_calls=st.one_of(st.none(), st.integers(0, 12)))
# Early stops on many branches, then the same run cut by a model error.
@example(model=_MERGING_MODEL, prompt=[], rule="top_p:0.9", policy="dfs", max_leaves=20,
         max_new_tokens=None, max_seq_len=7, early_stop_n=1, allowed_calls=None)
@example(model=_MERGING_MODEL, prompt=[], rule="top_p:0.9", policy="randbranch:7",
         max_leaves=20, max_new_tokens=None, max_seq_len=7, early_stop_n=1, allowed_calls=12)
def test_list_tree_matches_the_node_object_tree(model, prompt, rule, policy, max_leaves,
                                                max_new_tokens, max_seq_len, early_stop_n,
                                                allowed_calls):
    # The outcomes are compared as text: repr and json.dumps write floats
    # with repr, which round-trips every bit, -0.0 and 0.0 told apart.
    prompt = tuple(token % model.vocab.size for token in prompt)
    budget = Budget(max_leaves=max_leaves if max_new_tokens else max_leaves or 25,
                    max_new_tokens=max_new_tokens, max_seq_len=max_seq_len)
    args = (parse_rule(rule), prompt, BranchPolicy.parse(policy), budget,
            None if early_stop_n is None else EarlyStopConfig(n=early_stop_n))

    def subject():  # a fresh model per run, failing after its first calls if any
        return model if allowed_calls is None else FlakyModel(model, allowed_calls)

    assert repr(enumeration_outcome(subject(), *args)) == \
        repr(enumeration_outcome(subject(), *args, enumerate_fn=node_enumerate_leaves))


def test_model_error_on_one_context_degrades_alike_with_and_without_the_memo(fig_tree_model):
    # The rollout from root alternative "b" is the only one that needs context (b,).
    failing = FailingContextModel(fig_tree_model, (1,))
    args = (FIG_RULE, (), BranchPolicy("probfirst"), Budget(max_leaves=4), None)
    outcome = enumeration_outcome(failing, *args)
    assert outcome == enumeration_outcome(UnmemoizedModel(failing), *args)
    leaves, _, _, degraded, _ = outcome
    assert degraded
    assert [round(leaf.q, 9) for leaf in leaves] == [0.504, 0.27, 0.126]
