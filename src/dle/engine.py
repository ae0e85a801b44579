"""Distinct-leaf enumeration over the pruned decoding tree.

The loop alternates greedy rollouts with branch selection: the first rollout
follows the greedy path from the prompt to termination, recording every
non-followed active alternative as a branch point; each subsequent round
picks one branch point under the configured policy and rolls it out
greedily. Leaves are distinct by construction because every tree node is
expanded at most once.

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
from .rng import substream
from .tree import (FAILED, LEAF, PRUNED_EARLY_STOP, STOP_EOS, STOP_LENGTH_CAP,
                   BranchPoint, Leaf, PrunedTree)
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
    then discovery order.
    """

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise ConfigError(f"unknown policy {self.kind!r} (choose from {', '.join(POLICIES)})")
        if self.kind == "randbranch" and self.seed is None:
            raise ConfigError("randbranch policy requires a seed")

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
    max_seq_len: int = 512

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
    model_calls: int = 0           # decoding steps, memoized ones included
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


# Heap entry per deterministic policy: the policy's tie-break tuple, then the
# branch point. `discovered` is unique within one enumeration, so entries never
# compare their branch points and the heap's minimum is the linear scan's.
_HEAP_ENTRIES = {
    "probfirst": lambda bp: (-bp.log_mass, bp.position, bp.token_id, bp.discovered, bp),
    "divfirst": lambda bp: (bp.position, bp.token_id, bp.discovered, bp),
    "globalprob": lambda bp: (-bp.edge_weight, bp.position, bp.token_id, bp.discovered, bp),
    "dfs": lambda bp: (-bp.position, bp.token_id, bp.discovered, bp),
}


class Frontier:
    """Unexplored branch points, handed out in the order a policy picks them.

    The deterministic policies keep a heap keyed on their tie-break tuple, so
    a pick costs O(log F). randbranch keeps the branch points in discovery
    order beside a float64 array of their masses, each exponentiated once. A
    pick zeroes its entry and leaves it in place until half the array is
    dead, then the live entries are compacted. One pick is one cumulative sum
    in C, O(F): it adds the masses in discovery order, and the dead zeros
    change no partial sum, so the floats, and the seeded picks, are those of
    a left-to-right scan over the live masses.
    """

    __slots__ = ("_entry", "_heap", "_points", "_masses", "_live", "_rng")

    def __init__(self, policy: BranchPolicy):
        self._entry = _HEAP_ENTRIES.get(policy.kind)
        self._heap: list[tuple] = []
        self._points: list[BranchPoint | None] = []  # None marks a picked entry
        self._masses = np.empty(0)
        self._live = 0
        self._rng = substream(policy.seed, "randbranch") if self._entry is None else None

    def __len__(self) -> int:
        return len(self._heap) if self._entry is not None else self._live

    def extend(self, branch_points: Sequence[BranchPoint]) -> None:
        if self._entry is not None:
            for bp in branch_points:
                heapq.heappush(self._heap, self._entry(bp))
        elif branch_points:
            self._points.extend(branch_points)
            self._masses = np.concatenate(
                (self._masses, [math.exp(bp.log_mass) for bp in branch_points]))
            self._live += len(branch_points)

    def pop(self) -> BranchPoint:
        """Remove and return the branch point the policy picks next."""
        if not self:
            raise EmptyFrontier("no branch points to select from")
        if self._entry is not None:
            return heapq.heappop(self._heap)[-1]
        points, masses = self._points, self._masses
        cumulative = np.cumsum(masses)
        pick = self._rng.random() * cumulative[-1]
        idx = int(np.searchsorted(cumulative, pick, side="right"))
        if idx == len(points):
            # The pick rounded up to the total (every live mass underflowed
            # to 0.0, or the total is subnormal): the last live entry.
            idx -= 1
            while points[idx] is None:
                idx -= 1
        picked = points[idx]
        points[idx] = None
        masses[idx] = 0.0
        self._live -= 1
        if 2 * self._live < len(points):
            keep = [i for i, bp in enumerate(points) if bp is not None]
            self._points = [points[i] for i in keep]
            self._masses = masses[keep]
        return picked


def select_branch(frontier: Frontier) -> BranchPoint:
    """Remove and return the branch point the frontier's policy picks next."""
    return frontier.pop()


class _RolloutOutcome:
    __slots__ = ("leaf", "branch_points", "stopped_early")

    def __init__(self, leaf, branch_points, stopped_early=False):
        self.leaf = leaf
        self.branch_points = branch_points
        self.stopped_early = stopped_early


def greedy_rollout(model, rule: TruncationRule, tree: PrunedTree, start_node: int,
                   prompt: Sequence[int], budget: Budget, stats: TokenStats,
                   early_stop: EarlyStopConfig | None,
                   sibling_leaves: Sequence[tuple[int, ...]] = (),
                   discovery_counter: list[int] | None = None,
                   order: int = 0,
                   steps: dict | None = None) -> _RolloutOutcome:
    """Greedy generation from start_node until termination.

    Follows the highest-weight child at every step (ties to the lowest token
    id) and records a branch point for every non-followed alternative. Stops
    at end-of-sequence, at the length cap, when the token budget runs out,
    or when its first n tokens after the branch point equal those of a
    sibling leaf. `sibling_leaves` holds the tokens of completed leaves that
    share every token before the branch position and have at least n tokens
    after it; their continuation is read in place, after the branch position.

    `steps` maps `model.context(prompt, prefix)` to the active set computed
    for it; a step whose context is already there skips the model and the
    truncation rule. Failed model calls are never stored.
    """
    stats.rollouts += 1
    if discovery_counter is None:
        discovery_counter = [0]
    if steps is None:
        steps = {}
    node_id = start_node
    prefix = list(tree.path_tokens(start_node))
    inherited = len(prefix)
    appended: list[int] = []
    branch_points: list[BranchPoint] = []
    eos_id = model.vocab.eos_id
    check_merges = early_stop is not None and start_node != tree.root
    candidates = sibling_leaves

    def make_leaf(stop_reason: str) -> Leaf:
        node = tree.node(node_id)
        node.status = LEAF
        stats.new_tokens += len(appended)
        return Leaf(
            tokens=tuple(prefix),
            q=math.exp(node.log_mass),
            log_q=node.log_mass,
            stop_reason=stop_reason,
            new_tokens=len(appended),
            reused_prefix_len=len(prompt) + inherited,
            order=order,
            node_id=node_id,
        )

    # A branch alternative that is itself the eos token is already a
    # complete leaf: the whole sequence is inherited, nothing is generated.
    if prefix and prefix[-1] == eos_id:
        return _RolloutOutcome(make_leaf(STOP_EOS), branch_points)

    while True:
        if len(prefix) >= budget.max_seq_len:
            return _RolloutOutcome(make_leaf(STOP_LENGTH_CAP), branch_points)
        spent = stats.generated_tokens + len(appended)
        if budget.max_new_tokens is not None and spent >= budget.max_new_tokens:
            stats.discarded_tokens += len(appended)
            return _RolloutOutcome(None, branch_points)

        context = model.context(prompt, prefix)
        active = steps.get(context)
        if active is None:
            try:
                probs = model.next_distribution(tuple(prompt), tuple(prefix))
            except ModelError:
                tree.mark_path(node_id, start_node, FAILED)
                stats.discarded_tokens += len(appended)
                raise
            active = steps[context] = active_set(probs, rule)
        stats.model_calls += 1
        children = tree.expand_node(node_id, active)
        position = len(prefix)
        for child_id in children[1:]:
            child = tree.node(child_id)
            discovery_counter[0] += 1
            branch_points.append(BranchPoint(
                node_id=child_id,
                position=position,
                token_id=child.token,
                log_mass=child.log_mass,
                edge_weight=child.edge_weight,
                discovered=discovery_counter[0],
            ))

        node_id = children[0]
        token = tree.node(node_id).token
        prefix.append(token)
        appended.append(token)

        if token == eos_id:
            return _RolloutOutcome(make_leaf(STOP_EOS), branch_points)

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
                return _RolloutOutcome(None, branch_points, stopped_early=True)


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
    nodes = tree.nodes
    node = nodes[leaf.node_id]
    for _ in range(n + 1):
        node = nodes[node.parent]
    while True:
        if len(node.children) > 1:
            siblings.setdefault(node.id, []).append(leaf.tokens)
        if node.parent is None:
            return
        node = nodes[node.parent]


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
    frontier = Frontier(policy)
    leaves: list[Leaf] = []
    discovery_counter = [0]
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
            candidates = siblings.get(tree.node(start).parent, ())
        try:
            outcome = greedy_rollout(model, rule, tree, start, prompt, budget, stats,
                                     early_stop, candidates, discovery_counter,
                                     order=len(leaves), steps=steps)
        except ModelError:
            if not leaves:
                raise
            degraded = True
            break
        frontier.extend(outcome.branch_points)
        if outcome.leaf is not None:
            leaves.append(outcome.leaf)
            if merge_n is not None:
                _index_leaf(siblings, tree, outcome.leaf, merge_n)
        if not budget_allows_more() or not frontier:
            break
        start = select_branch(frontier).node_id

    return EnumerationResult(
        leaves=leaves,
        frontier_exhausted=not frontier,
        stats=stats,
        degraded=degraded,
        tree=tree if keep_tree else None,
    )
