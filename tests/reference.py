"""Naive predecessors of the package's hot paths, kept as test references.

Each function is the straightforward algorithm the package used before its
optimized form replaced it. Property tests require the optimized code to
return bit-identical results.
"""

from __future__ import annotations

import numpy as np

from dle.cache_sim import PrefixCache
from dle.engine import BranchPolicy
from dle.rng import substream
from dle.truncation import Composite, Epsilon, MinP, TopK, TopP


def linear_select_branch(frontier, policy: BranchPolicy, rng=None) -> int:
    """Index of the branch point the policy picks next, by one scan of the list."""
    if policy.kind == "randbranch":
        if rng is None:
            rng = substream(policy.seed, "randbranch")
        masses = [bp.mass for bp in frontier]
        total = sum(masses)
        pick = rng.random() * total
        acc = 0.0
        for i, m in enumerate(masses):
            acc += m
            if pick < acc:
                return i
        return len(frontier) - 1
    if policy.kind == "probfirst":
        key = lambda i: (-frontier[i].log_mass, frontier[i].position,
                         frontier[i].token_id, frontier[i].discovered)
    elif policy.kind == "divfirst":
        key = lambda i: (frontier[i].position, frontier[i].token_id, frontier[i].discovered)
    elif policy.kind == "globalprob":
        key = lambda i: (-frontier[i].edge_weight, frontier[i].position,
                         frontier[i].token_id, frontier[i].discovered)
    else:  # dfs
        key = lambda i: (-frontier[i].position, frontier[i].token_id, frontier[i].discovered)
    return min(range(len(frontier)), key=key)


def sorting_member_ids(probs: np.ndarray, rule) -> np.ndarray:
    """Member ids by sorting the full vocabulary per rank rule, then intersecting."""
    if isinstance(rule, Composite):
        ids = sorting_member_ids(probs, rule.rules[0])
        for sub in rule.rules[1:]:
            ids = np.intersect1d(ids, sorting_member_ids(probs, sub), assume_unique=True)
        return ids
    positive = probs > 0.0
    if isinstance(rule, TopK):
        order = np.lexsort((np.arange(len(probs)), -probs))
        order = order[positive[order]]
        return np.sort(order[: rule.k])
    if isinstance(rule, TopP):
        order = np.lexsort((np.arange(len(probs)), -probs))
        order = order[positive[order]]
        cum = np.cumsum(probs[order])
        cut = int(np.searchsorted(cum, rule.p - 1e-12, side="left"))
        return np.sort(order[: cut + 1])
    if isinstance(rule, MinP):
        return np.nonzero(probs >= rule.p_min * probs.max())[0]
    if isinstance(rule, Epsilon):
        if rule.inclusive:
            return np.nonzero(probs >= rule.eps)[0]
        return np.nonzero(probs > rule.eps)[0]
    raise TypeError(f"unknown truncation rule: {rule!r}")


def dict_ngram_counts(corpus: str, order: int, tokenize) -> tuple[tuple[str, ...], dict, dict]:
    """Vocabulary plus (context -> count) and ((context, token) -> count) dicts."""
    lines = [toks for toks in map(tokenize, corpus.splitlines()) if toks]
    tokens = tuple(sorted({tok for line in lines for tok in line})) + ("<eos>",)
    width = order - 1
    context_counts: dict = {}
    pair_counts: dict = {}
    for line in lines:
        ids = [tokens.index(tok) for tok in line] + [len(tokens) - 1]
        for i, nxt in enumerate(ids):
            ctx = tuple(ids[max(0, i - width):i]) if width else ()
            context_counts[ctx] = context_counts.get(ctx, 0) + 1
            pair_counts[(ctx, nxt)] = pair_counts.get((ctx, nxt), 0) + 1
    return tokens, context_counts, pair_counts


def loop_next_distribution(context_counts: dict, pair_counts: dict, ctx: tuple,
                           alpha: float, size: int) -> np.ndarray:
    """Add-alpha conditional filled one vocabulary entry at a time."""
    ctx_count = context_counts.get(ctx, 0)
    denom = ctx_count + alpha * size
    probs = np.full(size, alpha / denom)
    if ctx_count:
        for token in range(size):
            pair = pair_counts.get((ctx, token))
            if pair:
                probs[token] = (pair + alpha) / denom
    return probs


def dict_count_lists(context_counts: dict, pair_counts: dict) -> dict:
    """The count fields of a serialized n-gram document, from the count dicts."""
    return {
        "context_counts": [[list(ctx), count] for ctx, count in sorted(context_counts.items())],
        "pair_counts": [[list(ctx), token, count]
                        for (ctx, token), count in sorted(pair_counts.items())],
    }


def pairwise_repeated_tokens(generations) -> int:
    """Sum over generations of the longest prefix shared with any earlier one,
    by comparing every pair token by token."""
    repeated = 0
    for j in range(1, len(generations)):
        best = 0
        for earlier in generations[:j]:
            n = min(len(generations[j]), len(earlier))
            lcp = next((i for i in range(n) if generations[j][i] != earlier[i]), n)
            best = max(best, lcp)
        repeated += best
    return repeated


def pairwise_repetition_rate(generations) -> float:
    """Repetition rate from the pairwise longest-common-prefix loop."""
    total = sum(len(g) for g in generations)
    return pairwise_repeated_tokens(generations) / total if total else 0.0


class WalkingPrefixCache(PrefixCache):
    """PrefixCache whose LRU eviction walks the whole trie for its victim."""

    def insert(self, stream) -> None:
        node = self._root
        for block in self._blocks(stream):
            child = node.children.get(block)
            if child is None:
                if self.capacity is not None and self._cached_tokens + self.block_size > self.capacity:
                    if self.eviction != "lru" or not self._walk_evict(protect=node):
                        return
                child = type(node)()
                node.children[block] = child
                self._cached_tokens += self.block_size
            child.last_access = self._tick()
            node = child

    def _walk_evict(self, protect) -> bool:
        """Drop the least-recently-used childless block other than `protect`,
        the node the insertion is extending."""
        victim = None
        stack = [self._root]
        while stack:
            node = stack.pop()
            for key, child in node.children.items():
                if child.children:
                    stack.append(child)
                elif child is not protect and (victim is None or child.last_access < victim[2]):
                    victim = (node, key, child.last_access)
        if victim is None:
            return False
        del victim[0].children[victim[1]]
        self._cached_tokens -= self.block_size
        return True
