"""Prefix-cache simulation over flattened leaf streams.

The theoretical hit count is the reuse ceiling: each stream after the first
contributes the length of its longest prefix shared with any earlier stream
(prompt included). The simulator defines the actual count by replay: streams
are served in generation order, each one inserted in full, subject to block
granularity, capacity, and eviction, in one walk that counts the tokens it
found already cached.
With unlimited capacity and token granularity the two counts coincide.
Both tries keep a node as one dict, not as an object of its own class.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, InvariantViolation


@dataclass(frozen=True)
class CacheStats:
    actual_hits: int        # tokens actually served from cache during replay
    theoretical_hits: int   # reuse ceiling given the stream order
    flat_length: int        # total length of all streams

    def __post_init__(self):
        if not 0 <= self.actual_hits <= self.theoretical_hits <= self.flat_length:
            raise InvariantViolation(
                f"cache accounting out of order: actual={self.actual_hits} "
                f"theoretical={self.theoretical_hits} flat={self.flat_length}")

    @property
    def actual_rate(self) -> float:
        return self.actual_hits / self.flat_length if self.flat_length else 0.0

    @property
    def theoretical_rate(self) -> float:
        return self.theoretical_hits / self.flat_length if self.flat_length else 0.0

    def to_dict(self) -> dict:
        return {
            "actual_hits": self.actual_hits,
            "theoretical_hits": self.theoretical_hits,
            "flat_length": self.flat_length,
            "actual_rate": self.actual_rate,
            "theoretical_rate": self.theoretical_rate,
        }


def theoretical_hit_count(streams: Sequence[Sequence[int]]) -> int:
    """Reuse ceiling: sum over streams of the longest shared prefix length.

    Implemented with a trie of nested dicts keyed by token over all earlier
    streams, so a prefix counts when it matches a prefix of any previously
    generated stream. Once a stream leaves the trie, its rest is new.
    """
    if not streams:
        raise ConfigError("theoretical_hit_count needs at least one stream")
    root: dict = {}
    total = 0
    for stream in streams:
        node = root
        tokens = iter(stream)
        for token in tokens:
            child = node.get(token)
            if child is None:  # store a new dict under `node`, then descend into it
                node[token] = node = {}
                for token in tokens:
                    node[token] = node = {}
                break
            total += 1
            node = child
    return total


class PrefixCache:
    """Radix-style prefix cache with block granularity and optional eviction.

    Blocks hold `block_size` consecutive tokens; only full blocks are cached,
    so a match is always a multiple of the block size (partial trailing
    blocks are floored away). Capacity counts cached tokens. Eviction "none"
    stops inserting once full; "lru" evicts least-recently-used childless
    blocks until the new insertion fits. Childless blocks wait in a heap
    keyed on their last access, as in RadixAttention's leaf LRU.

    The trie is parallel lists indexed by block id, root at id 0: children
    (block -> child id), parent (-1 for the root and evicted blocks), block
    key, and the tick of the block's last match or insert.
    """

    def __init__(self, block_size: int = 1, capacity: int | None = None,
                 eviction: str = "none"):
        if block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {block_size}")
        if capacity is not None and capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        if eviction not in ("none", "lru"):
            raise ConfigError(f"unknown eviction policy {eviction!r}")
        self.block_size = block_size
        self.capacity = capacity
        self.eviction = eviction
        self._children: list[dict[tuple, int]] = [{}]
        self._parent: list[int] = [-1]
        self._key: list[tuple] = [()]
        self._last_access: list[int] = [0]
        self._cached_tokens = 0
        self._clock = 0
        # (last_access, id) for childless blocks; stale entries are dropped on pop
        self._leaves: list[tuple[int, int]] = []

    def _blocks(self, stream: Sequence[int]):
        """The full blocks of `stream` as tuples (zip on one shared iterator)."""
        return zip(*[iter(stream)] * self.block_size)

    def _settle(self, node: int) -> None:
        """Queue `node` for eviction if it is a childless block.

        Along a touched path only the last node can be childless, so this
        runs once per match or insert.
        """
        if self.eviction == "lru" and self._parent[node] >= 0 and not self._children[node]:
            heapq.heappush(self._leaves, (self._last_access[node], node))

    def match(self, stream: Sequence[int]) -> int:
        """Tokens served from cache for this stream (block-aligned)."""
        children, last_access = self._children, self._last_access
        node = 0
        matched = 0
        for block in self._blocks(stream):
            child = children[node].get(block)
            if child is None:
                break
            self._clock += 1
            last_access[child] = self._clock
            matched += self.block_size
            node = child
        self._settle(node)
        return matched

    def insert(self, stream: Sequence[int]) -> int:
        """Cache the stream's full blocks and return the tokens found already
        cached: what `match` would have returned just before (block-aligned).

        Every block after the first one not cached hangs below a new block,
        so none of them is found: only the blocks before that one count.
        """
        children, parent, last_access = self._children, self._parent, self._last_access
        node = 0
        matched = 0
        for block in self._blocks(stream):
            child = children[node].get(block)
            if child is None:
                if self.capacity is not None and self._cached_tokens + self.block_size > self.capacity:
                    if self.eviction != "lru" or not self._evict_one():
                        break
                child = children[node][block] = len(parent)
                children.append({})
                parent.append(node)
                self._key.append(block)
                last_access.append(0)
                self._cached_tokens += self.block_size
            else:
                matched += self.block_size
            self._clock += 1
            last_access[child] = self._clock
            node = child
        self._settle(node)
        return matched

    def _evict_one(self) -> bool:
        """Drop the least-recently-used childless block, if any.

        Only childless blocks are evictable so cached paths stay rooted. A
        heap entry is stale once its block was touched again, gained a child
        or was evicted. The node an insertion is extending is never the
        victim: this insertion touched it, so any entry for it is stale or,
        if it is queued here as its last child's parent, it gains a child next.
        """
        while self._leaves:
            tick, node = heapq.heappop(self._leaves)
            parent = self._parent[node]
            if self._last_access[node] != tick or self._children[node] or parent < 0:
                continue
            del self._children[parent][self._key[node]]
            self._parent[node] = -1
            self._cached_tokens -= self.block_size
            self._settle(parent)
            return True
        return False


def simulate(streams: Sequence[Sequence[int]], cache: PrefixCache) -> CacheStats:
    """Replay streams in generation order through the cache, after counting
    the reuse ceiling: its trie is freed before the cache fills."""
    if not streams:
        raise ConfigError("simulate needs at least one stream")
    theoretical = theoretical_hit_count(streams)
    return CacheStats(
        actual_hits=sum(map(cache.insert, streams)),
        theoretical_hits=theoretical,
        flat_length=sum(len(s) for s in streams),
    )
