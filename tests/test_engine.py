import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dle.engine import (POLICIES, Budget, BranchPolicy, EarlyStopConfig, Frontier, TokenStats,
                        early_stop_check, enumerate_leaves, greedy_rollout,
                        select_branch)
from dle.errors import ConfigError, EmptyFrontier, ModelError
from dle.model import TableModel
from dle.oracle import enumerate_all_leaves
from dle.rng import substream
from dle.tree import BranchPoint, PrunedTree
from dle.truncation import Epsilon, MinP, TopK, TopP
from reference import linear_select_branch

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
    masses = sorted(bp.mass for bp in outcome.branch_points)
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


def test_select_branch_matches_worked_frontier():
    def bp(node_id, position, token_id, mass, edge, disc):
        return BranchPoint(node_id=node_id, position=position, token_id=token_id,
                           log_mass=math.log(mass), edge_weight=edge, discovered=disc)

    points = [bp(1, 0, 1, 0.1, 0.1, 1), bp(2, 1, 3, 0.27, 0.3, 2),
              bp(3, 2, 5, 0.126, 0.2, 3)]

    def first_pick(kind):
        frontier = Frontier(BranchPolicy(kind))
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
        select_branch(Frontier(BranchPolicy("probfirst")))
    with pytest.raises(EmptyFrontier):
        select_branch(Frontier(BranchPolicy("randbranch", seed=0)))


def test_policy_parsing():
    assert BranchPolicy.parse("randbranch:42").seed == 42
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
    result = run(model, rule, early_stop=EarlyStopConfig(enabled=True, n=1))
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
                                 budget, EarlyStopConfig(enabled=True, n=32))
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
    result = run(model, rule, early_stop=EarlyStopConfig(enabled=True, n=1))
    assert len(result.leaves) == 3
    assert result.stats.early_stop_triggers == 0


def test_support_equivalence_with_oracle(random_model_factory):
    rules = [Epsilon(eps=0.05), TopP(p=0.9), MinP(p_min=0.1), TopK(k=3)]
    for seed in range(40):
        model = random_model_factory(seed)
        rule = rules[seed % len(rules)]
        oracle_set = enumerate_all_leaves(model, rule)
        result = run(model, rule, budget=UNLIMITED)
        assert result.frontier_exhausted
        oracle_map = dict(oracle_set.leaves)
        assert {l.tokens for l in result.leaves} == set(oracle_map)
        for leaf in result.leaves:
            assert abs(leaf.q - oracle_map[leaf.tokens]) <= 1e-9


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
    result = run(fig_tree_model, FIG_RULE, budget=Budget(max_leaves=4))
    stats = result.stats
    assert sum(l.new_tokens for l in result.leaves) + stats.wasted_tokens == stats.model_calls
    assert stats.generated_tokens == stats.model_calls
    for seed in range(10):
        model = random_model_factory(seed + 50)
        res = run(model, TopP(p=0.9), early_stop=EarlyStopConfig(enabled=True, n=1))
        assert (sum(l.new_tokens for l in res.leaves) + res.stats.wasted_tokens
                == res.stats.model_calls)


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


# Few distinct values per field, so exact key ties are common.
_POINT_FIELDS = st.tuples(
    st.sampled_from([0.0, math.log(0.5), math.log(0.25), math.log(0.125), -2.5]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from([0.5, 0.25, 0.1]),
)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(POLICIES), seed=st.integers(0, 2 ** 32),
       batches=st.lists(st.lists(_POINT_FIELDS, max_size=6), min_size=1, max_size=10))
def test_frontier_pops_match_the_linear_scan(kind, seed, batches):
    policy = BranchPolicy(kind, seed=seed if kind == "randbranch" else None)
    rng = substream(seed, "randbranch") if kind == "randbranch" else None
    frontier = Frontier(policy)
    reference: list[BranchPoint] = []
    discovered = 0
    picks, expected = [], []

    def pick_both():
        picks.append(select_branch(frontier))
        expected.append(reference.pop(linear_select_branch(reference, policy, rng)))

    for batch in batches:
        points = []
        for log_mass, position, token_id, edge_weight in batch:
            discovered += 1
            points.append(BranchPoint(node_id=discovered, position=position, token_id=token_id,
                                      log_mass=log_mass, edge_weight=edge_weight,
                                      discovered=discovered))
        frontier.extend(points)
        reference.extend(points)
        if reference:
            pick_both()
    while reference:
        pick_both()
    assert len(frontier) == 0
    assert [bp.discovered for bp in picks] == [bp.discovered for bp in expected]
