"""Prefix-cache simulation over flattened leaf streams.

The theoretical hit count is the reuse ceiling: each stream after the first
contributes the length of its longest prefix shared with any earlier stream
(prompt included). The simulator defines the actual count by replay: streams
are served in generation order, each one first matched against the cache and
then inserted in full, subject to block granularity, capacity, and eviction.
With unlimited capacity and token granularity the two counts coincide.
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


class _TrieNode:
    __slots__ = ("children", "last_access", "parent", "key")

    def __init__(self, parent: "_TrieNode | None" = None, key: tuple = ()):
        self.children: dict[tuple, "_TrieNode"] = {}
        self.last_access = 0
        self.parent = parent  # None for the root and for evicted blocks
        self.key = key


def theoretical_hit_count(streams: Sequence[Sequence[int]]) -> int:
    """Reuse ceiling: sum over streams of the longest shared prefix length.

    Implemented with a token trie over all earlier streams, so a prefix
    counts when it matches a prefix of any previously generated stream.
    """
    if not streams:
        raise ConfigError("theoretical_hit_count needs at least one stream")
    root = _TrieNode()
    total = 0
    for stream in streams:
        node = root
        matched = 0
        missed = False
        for token in stream:
            key = (token,)
            child = node.children.get(key)
            if child is None:
                missed = True
                child = _TrieNode()
                node.children[key] = child
            elif not missed:
                matched += 1
            node = child
        total += matched
    return total


class PrefixCache:
    """Radix-style prefix cache with block granularity and optional eviction.

    Blocks hold `block_size` consecutive tokens; only full blocks are cached,
    so a match is always a multiple of the block size (partial trailing
    blocks are floored away). Capacity counts cached tokens. Eviction "none"
    stops inserting once full; "lru" evicts least-recently-used childless
    blocks until the new insertion fits. Childless blocks wait in a heap
    keyed on their last access, as in RadixAttention's leaf LRU.
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
        self._root = _TrieNode()
        self._cached_tokens = 0
        self._clock = 0
        # (last_access, block) for childless blocks; stale entries are dropped on pop
        self._leaves: list[tuple[int, _TrieNode]] = []

    def _blocks(self, stream: Sequence[int]) -> list[tuple]:
        size = self.block_size
        count = len(stream) // size
        return [tuple(stream[i * size:(i + 1) * size]) for i in range(count)]

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _settle(self, node: _TrieNode) -> None:
        """Queue `node` for eviction if it is a childless block.

        Along a touched path only the last node can be childless, so this
        runs once per match or insert.
        """
        if self.eviction == "lru" and node.parent is not None and not node.children:
            heapq.heappush(self._leaves, (node.last_access, node))

    def match(self, stream: Sequence[int]) -> int:
        """Tokens served from cache for this stream (block-aligned)."""
        node = self._root
        matched = 0
        for block in self._blocks(stream):
            child = node.children.get(block)
            if child is None:
                break
            child.last_access = self._tick()
            matched += self.block_size
            node = child
        self._settle(node)
        return matched

    def insert(self, stream: Sequence[int]) -> None:
        node = self._root
        for block in self._blocks(stream):
            child = node.children.get(block)
            if child is None:
                if self.capacity is not None and self._cached_tokens + self.block_size > self.capacity:
                    if self.eviction != "lru" or not self._evict_one():
                        break
                child = _TrieNode(node, block)
                node.children[block] = child
                self._cached_tokens += self.block_size
            child.last_access = self._tick()
            node = child
        self._settle(node)

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
            if node.last_access != tick or node.children or node.parent is None:
                continue
            parent = node.parent
            del parent.children[node.key]
            node.parent = None
            self._cached_tokens -= self.block_size
            self._settle(parent)
            return True
        return False

    @property
    def cached_tokens(self) -> int:
        return self._cached_tokens


def simulate(streams: Sequence[Sequence[int]], cache: PrefixCache) -> CacheStats:
    """Replay streams in generation order through the cache."""
    if not streams:
        raise ConfigError("simulate needs at least one stream")
    actual = 0
    for stream in streams:
        actual += cache.match(stream)
        cache.insert(stream)
    return CacheStats(
        actual_hits=actual,
        theoretical_hits=theoretical_hit_count(streams),
        flat_length=sum(len(s) for s in streams),
    )
