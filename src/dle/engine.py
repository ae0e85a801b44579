"""Distinct-leaf enumeration over the pruned decoding tree.

The loop alternates greedy rollouts with branch selection: the first rollout
follows the greedy path from the prompt to termination, recording every
non-followed active alternative as a branch point; each subsequent round
picks one branch point under the configured policy and rolls it out
greedily. Leaves are distinct by construction because every tree node is
expanded at most once. A branch point is the unexpanded tree node of its
alternative, and node ids number branch points in the order they were
discovered, which is every deterministic policy's last tie-break.

Branch points discovered during a rollout join the frontier only after the
rollout finishes. Early-stopped branches do not count toward the leaf
budget; their tokens do count toward the token budget. In token-budget mode
sequences complete strictly one at a time, and a rollout cut off mid-sequence
is dropped from the leaf list while its tokens remain counted.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyFrontier, ModelError
from .rng import substream_family
from .tree import (DEFAULT_MAX_SEQ_LEN, FAILED, LEAF, PRUNED_EARLY_STOP, STOP_EOS,
                   STOP_LENGTH_CAP, Leaf, PrunedTree)
from .truncation import TruncationRule, active_set

POLICIES = ("probfirst", "divfirst", "randbranch", "globalprob", "dfs")


@dataclass(frozen=True)
class BranchPolicy:
    """Frontier ordering rule.

    probfirst  — largest alternative path mass first
    divfirst   — earliest branch position first
    randbranch — sampled with probability proportional to path mass (seeded)
    globalprob — largest single edge weight first
    dfs        — deepest branch position first

    Deterministic ties break by (position ascending, token id ascending),
    then node id, which is discovery order.
    """

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise ConfigError(f"unknown policy {self.kind!r} (choose from {', '.join(POLICIES)})")
        if self.kind == "randbranch" and self.seed is None:
            raise ConfigError("randbranch policy requires a seed")
        if self.seed is not None:
            substream_family(self.seed)  # a seed out of range raises here, before any walk

    @classmethod
    def parse(cls, text: str) -> "BranchPolicy":
        name, _, seed = text.partition(":")
        if name == "randbranch":
            if not seed:
                raise ConfigError("randbranch policy requires a seed: randbranch:SEED")
            try:
                return cls(kind=name, seed=int(seed))
            except ValueError as exc:
                raise ConfigError(f"bad randbranch seed {seed!r}") from exc
        if seed:
            raise ConfigError(f"policy {name!r} takes no seed")
        return cls(kind=name)


@dataclass(frozen=True)
class Budget:
    """Stopping limits. At least one of max_leaves / max_new_tokens is finite."""

    max_leaves: int | None = None
    max_new_tokens: int | None = None
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN

    def __post_init__(self):
        if self.max_leaves is None and self.max_new_tokens is None:
            raise ConfigError("budget needs max_leaves or max_new_tokens")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ConfigError("max_leaves must be >= 1")
        if self.max_new_tokens is not None and self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")
        if self.max_seq_len < 1:
            raise ConfigError("max_seq_len must be >= 1")


@dataclass(frozen=True)
class EarlyStopConfig:
    """Halt a branch whose first n post-branch tokens duplicate a sibling's."""

    n: int = 10

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("early-stop n must be >= 1")


@dataclass
class TokenStats:
    new_tokens: int = 0            # tokens on completed leaves
    wasted_tokens: int = 0         # tokens on early-stopped branches
    discarded_tokens: int = 0      # tokens on budget-cut rollouts
    rollouts: int = 0
    early_stop_triggers: int = 0

    @property
    def generated_tokens(self) -> int:
        return self.new_tokens + self.wasted_tokens + self.discarded_tokens


@dataclass
class EnumerationResult:
    leaves: list[Leaf]
    frontier_exhausted: bool
    stats: TokenStats
    degraded: bool = False
    tree: PrunedTree | None = None


# A deterministic policy's heap entry for a node id, read from the tree's lists:
# its tie-break tuple, ending on the node id. Depth orders as position does.
def _heap_entry(kind: str, tree: PrunedTree):
    mass, weight, depth, token = tree.log_mass, tree.edge_weight, tree.depth, tree.token
    return {
        "probfirst": lambda i: (-mass[i], depth[i], token[i], i),
        "divfirst": lambda i: (depth[i], token[i], i),
        "globalprob": lambda i: (-weight[i], depth[i], token[i], i),
        "dfs": lambda i: (-depth[i], token[i], i),
    }.get(kind)


class Frontier:
    """Unexplored branch nodes, handed out in the order a policy picks them.

    The deterministic policies keep a heap keyed on their tie-break tuple, so
    a pick costs O(log F). randbranch keeps the node ids in discovery order
    beside a float64 array of their masses, each exponentiated once. A
    pick zeroes its entry and leaves it in place until half the array is
    dead, then the live entries are compacted. One pick is one cumulative sum
    in C, O(F): it adds the masses in discovery order, and the dead zeros
    change no partial sum, so the floats, and the seeded picks, are those of
    a left-to-right scan over the live masses.
    """

    __slots__ = ("_entry", "_log_mass", "_heap", "_ids", "_masses", "_live", "_rng")

    def __init__(self, policy: BranchPolicy, tree: PrunedTree):
        self._entry = _heap_entry(policy.kind, tree)
        self._log_mass = tree.log_mass
        self._heap: list[tuple] = []
        self._ids: list[int | None] = []  # None marks a picked entry
        self._masses = np.empty(0)
        self._live = 0
        self._rng = substream_family(policy.seed, "randbranch")() if self._entry is None else None

    def __len__(self) -> int:
        return len(self._heap) if self._entry is not None else self._live

    def extend(self, branch_ids: Sequence[int]) -> None:
        if self._entry is not None:
            for node_id in branch_ids:
                heapq.heappush(self._heap, self._entry(node_id))
        elif branch_ids:
            log_mass = self._log_mass
            self._ids.extend(branch_ids)
            self._masses = np.concatenate(
                (self._masses, [math.exp(log_mass[i]) for i in branch_ids]))
            self._live += len(branch_ids)

    def pop(self) -> int:
        """Remove and return the id of the branch node the policy picks next."""
        if not self:
            raise EmptyFrontier("no branch points to select from")
        if self._entry is not None:
            return heapq.heappop(self._heap)[-1]
        ids, masses = self._ids, self._masses
        cumulative = np.cumsum(masses)
        pick = self._rng.random() * cumulative[-1]
        idx = int(np.searchsorted(cumulative, pick, side="right"))
        if idx == len(ids):
            # The pick rounded up to the total (every live mass underflowed
            # to 0.0, or the total is subnormal): the last live entry.
            idx -= 1
            while ids[idx] is None:
                idx -= 1
        picked = ids[idx]
        ids[idx] = None
        masses[idx] = 0.0
        self._live -= 1
        if 2 * self._live < len(ids):
            keep = [i for i, node_id in enumerate(ids) if node_id is not None]
            self._ids = [ids[i] for i in keep]
            self._masses = masses[keep]
        return picked


def select_branch(frontier: Frontier) -> int:
    """Remove and return the id of the branch node the frontier's policy picks next."""
    return frontier.pop()


class _RolloutOutcome:
    __slots__ = ("leaf", "branches", "stopped_early")

    def __init__(self, leaf, branches, stopped_early=False):
        self.leaf = leaf
        self.branches = branches
        self.stopped_early = stopped_early


def greedy_rollout(model, rule: TruncationRule, tree: PrunedTree, start_node: int,
                   prompt: Sequence[int], budget: Budget, stats: TokenStats,
                   early_stop: EarlyStopConfig | None,
                   sibling_leaves: Sequence[tuple[int, ...]] = (),
                   steps: dict | None = None) -> _RolloutOutcome:
    """Greedy generation from start_node until termination.

    Follows the highest-weight child at every step (ties to the lowest token
    id) and hands back the ids of the unexpanded children of the non-followed
    alternatives as branches. Stops at end-of-sequence, at the length cap,
    when the token budget runs out, or when its first n tokens after the
    branch point equal those of a sibling leaf. `sibling_leaves` holds the
    tokens of completed leaves that share every token before the branch
    position and have at least n tokens after it; their continuation is read
    in place, after the branch position.

    `steps` maps `model.context(prompt, prefix)` to the active set computed
    for it; a step whose context is already there skips the model and the
    truncation rule. An n-gram model keys a window by its count row, so
    windows with equal rows share one step. Failed model calls are never stored.
    """
    stats.rollouts += 1
    if steps is None:
        steps = {}
    node_id = start_node
    prefix = list(tree.path_tokens(start_node))
    inherited = len(prefix)
    appended: list[int] = []
    branches: list[int] = []
    eos_id = model.vocab.eos_id
    check_merges = early_stop is not None and start_node != tree.root
    candidates = sibling_leaves

    def make_leaf(stop_reason: str) -> Leaf:
        tree.status[node_id] = LEAF
        stats.new_tokens += len(appended)
        return Leaf(
            tokens=tuple(prefix),
            q=math.exp(tree.log_mass[node_id]),
            log_q=tree.log_mass[node_id],
            stop_reason=stop_reason,
            new_tokens=len(appended),
            reused_prefix_len=len(prompt) + inherited,
            node_id=node_id,
        )

    # A branch alternative that is itself the eos token is already a
    # complete leaf: the whole sequence is inherited, nothing is generated.
    if prefix and prefix[-1] == eos_id:
        return _RolloutOutcome(make_leaf(STOP_EOS), branches)

    while True:
        if len(prefix) >= budget.max_seq_len:
            return _RolloutOutcome(make_leaf(STOP_LENGTH_CAP), branches)
        spent = stats.generated_tokens + len(appended)
        if budget.max_new_tokens is not None and spent >= budget.max_new_tokens:
            stats.discarded_tokens += len(appended)
            return _RolloutOutcome(None, branches)

        context = model.context(prompt, prefix)
        active = steps.get(context)
        if active is None:
            try:
                row = model.next_distribution(prompt, prefix)
            except ModelError:
                tree.mark_path(node_id, start_node, FAILED)
                stats.discarded_tokens += len(appended)
                raise
            active = steps[context] = active_set(row, rule)
        children = tree.expand_node(node_id, active)
        branches += children[1:]
        position = len(prefix)
        node_id = children[0]
        token = active.token_ids[0]
        prefix.append(token)
        appended.append(token)

        if token == eos_id:
            return _RolloutOutcome(make_leaf(STOP_EOS), branches)

        # After m tokens the candidates are the siblings whose m tokens after
        # the branch point match; any left at m == n is a duplicate head.
        if check_merges:
            candidates = [c for c in candidates if c[position] == token]
            if not candidates:
                check_merges = False
            elif len(appended) == early_stop.n:
                tree.mark_path(node_id, start_node, PRUNED_EARLY_STOP)
                stats.wasted_tokens += len(appended)
                stats.early_stop_triggers += 1
                return _RolloutOutcome(None, branches, stopped_early=True)


def _index_leaf(siblings: dict[int, list[tuple[int, ...]]], tree: PrunedTree,
                leaf: Leaf, n: int) -> None:
    """File a completed leaf under each ancestor whose branches it can stop.

    A branch at position p compares its first n tokens with those of the
    leaves through its parent, the depth-p node, that have n tokens after
    position p. So the leaf is appended, in completion order, under each
    ancestor at depth p <= len(tokens) - 1 - n that has more than one child,
    since only such a node parents branch points. A node's children are
    fixed once it is expanded. One walk costs O(len(tokens)).
    """
    if len(leaf.tokens) <= n:
        return
    parent, children = tree.parent, tree.children
    node = leaf.node_id
    for _ in range(n + 1):
        node = parent[node]
    while node is not None:
        if len(children[node]) > 1:
            siblings.setdefault(node, []).append(leaf.tokens)
        node = parent[node]


def enumerate_leaves(model, rule: TruncationRule, prompt: Sequence[int],
                     policy: BranchPolicy, budget: Budget,
                     early_stop: EarlyStopConfig | None = None,
                     keep_tree: bool = False, steps: dict | None = None) -> EnumerationResult:
    """Run the full enumeration loop for one prompt.

    The first leaf is always the greedy sequence. Generation order is
    reproducible for deterministic policies; randbranch is reproducible
    under its seed. A model failure before the first leaf propagates; after
    at least one leaf the partial result is returned flagged degraded.

    `steps` is the step memo `greedy_rollout` fills. A caller may share one
    across runs of the same model and rule: equal contexts give equal
    distributions, whatever the prompt. By default each call has its own.
    """
    tree = PrunedTree()
    stats = TokenStats()
    frontier = Frontier(policy, tree)
    leaves: list[Leaf] = []
    if steps is None:
        steps = {}  # context -> active set
    merge_n = early_stop.n if early_stop is not None else None
    siblings: dict[int, list[tuple[int, ...]]] = {}  # parent node id -> leaf tokens
    degraded = False

    def budget_allows_more() -> bool:
        if budget.max_leaves is not None and len(leaves) >= budget.max_leaves:
            return False
        if budget.max_new_tokens is not None and stats.generated_tokens >= budget.max_new_tokens:
            return False
        return True

    start = tree.root
    while True:
        candidates = ()
        if merge_n is not None and start != tree.root:
            candidates = siblings.get(tree.parent[start], ())
        try:
            outcome = greedy_rollout(model, rule, tree, start, prompt, budget, stats,
                                     early_stop, candidates, steps=steps)
        except ModelError:
            if not leaves:
                raise
            degraded = True
            break
        frontier.extend(outcome.branches)
        if outcome.leaf is not None:
            leaves.append(outcome.leaf)
            if merge_n is not None:
                _index_leaf(siblings, tree, outcome.leaf, merge_n)
        if not budget_allows_more() or not frontier:
            break
        start = select_branch(frontier)

    return EnumerationResult(
        leaves=leaves,
        frontier_exhausted=not frontier,
        stats=stats,
        degraded=degraded,
        tree=tree if keep_tree else None,
    )
