import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dle.cache_sim import CacheStats, PrefixCache, simulate, theoretical_hit_count
from dle.engine import Budget, BranchPolicy, enumerate_leaves
from dle.errors import ConfigError, InvariantViolation
from dle.tree import flat_length, flatten
from dle.truncation import Epsilon
from reference import WalkingPrefixCache

PROMPT = (100, 101, 102, 103, 104)
HAND_STREAMS = [PROMPT + (1, 2, 3), PROMPT + (1, 2, 4)]  # abc / abd after a 5-token prompt


def test_hand_example_seven_of_sixteen():
    assert theoretical_hit_count(HAND_STREAMS) == 7
    stats = simulate(HAND_STREAMS, PrefixCache())
    assert stats.theoretical_hits == 7
    assert stats.actual_hits == 7
    assert stats.flat_length == 16
    assert stats.actual_rate == pytest.approx(7 / 16)


def test_identical_streams_reuse_everything():
    k, stream = 4, PROMPT + (1, 2, 3)
    streams = [stream] * k
    assert theoretical_hit_count(streams) == (k - 1) * len(stream)


def test_prompt_only_sharing_is_the_sampling_ceiling():
    streams = [PROMPT + (1, 9), PROMPT + (2, 9), PROMPT + (3, 9)]
    assert theoretical_hit_count(streams) == 2 * len(PROMPT)


def test_first_stream_contributes_nothing():
    assert theoretical_hit_count([PROMPT + (1, 2, 3)]) == 0


def test_unlimited_cache_matches_theory_on_random_streams():
    rng = random.Random(2)
    for _ in range(30):
        streams = []
        for _ in range(rng.randint(1, 8)):
            length = rng.randint(1, 12)
            streams.append(tuple(rng.randint(0, 3) for _ in range(length)))
        stats = simulate(streams, PrefixCache())
        assert stats.actual_hits == stats.theoretical_hits


def test_zero_capacity_never_hits():
    stats = simulate(HAND_STREAMS, PrefixCache(capacity=0))
    assert stats.actual_hits == 0
    assert stats.theoretical_hits == 7


def test_block_granularity_floors_partial_blocks():
    stats = simulate(HAND_STREAMS, PrefixCache(block_size=4))
    assert stats.actual_hits == 4  # floor(7 / 4) * 4


def test_accounting_order_holds_under_any_configuration():
    rng = random.Random(9)
    for _ in range(40):
        streams = []
        for _ in range(rng.randint(1, 6)):
            length = rng.randint(1, 10)
            streams.append(tuple(rng.randint(0, 2) for _ in range(length)))
        cache = PrefixCache(
            block_size=rng.choice([1, 2, 4]),
            capacity=rng.choice([None, 0, 4, 16]),
            eviction=rng.choice(["none", "lru"]),
        )
        stats = simulate(streams, cache)
        assert 0 <= stats.actual_hits <= stats.theoretical_hits <= stats.flat_length


def test_enumeration_beats_the_prompt_only_ceiling(fig_tree_model):
    rule = Epsilon(eps=0.1, inclusive=True)
    result = enumerate_leaves(fig_tree_model, rule, PROMPT, BranchPolicy("probfirst"),
                              Budget(max_leaves=4))
    streams = flatten(PROMPT, result.leaves)
    hits = theoretical_hit_count(streams)
    prompt_only = (len(streams) - 1) * len(PROMPT)
    assert hits > prompt_only  # leaves share generated prefixes beyond the prompt
    assert flat_length(streams) == sum(len(s) for s in streams)


def test_lru_keeps_the_prefix_needed_next_when_streams_are_tree_ordered(fig_tree_model):
    rule = Epsilon(eps=0.1, inclusive=True)
    result = enumerate_leaves(fig_tree_model, rule, PROMPT, BranchPolicy("probfirst"),
                              Budget(max_leaves=4))
    streams = flatten(PROMPT, result.leaves)
    capacity = max(len(s) for s in streams)
    stats = simulate(streams, PrefixCache(capacity=capacity, eviction="lru"))
    assert stats.actual_hits == stats.theoretical_hits


@st.composite
def branching_streams(draw):
    """Streams over a 3-token alphabet, most of them branching off an earlier one."""
    streams = []
    for _ in range(draw(st.integers(1, 12))):
        stream = []
        if streams and draw(st.integers(0, 4)):
            base = draw(st.sampled_from(streams))
            stream = list(base[:draw(st.integers(0, len(base)))])
        stream += draw(st.lists(st.integers(0, 2), max_size=10))
        streams.append(tuple(stream))
    return streams


@settings(max_examples=300, deadline=None)
@given(streams=branching_streams(), block_size=st.integers(1, 4),
       capacity=st.one_of(st.none(), st.integers(0, 40)),
       eviction=st.sampled_from(["none", "lru"]))
def test_heap_eviction_matches_the_trie_walk(streams, block_size, capacity, eviction):
    cache = PrefixCache(block_size, capacity, eviction)
    walking = WalkingPrefixCache(block_size, capacity, eviction)
    for i, stream in enumerate(streams):
        assert cache.match(stream) == walking.match(stream)
        cache.insert(stream)
        walking.insert(stream)
        assert cache.cached_tokens == walking.cached_tokens
        # A lone match refreshes an older path without inserting it.
        assert cache.match(streams[i // 2]) == walking.match(streams[i // 2])
    assert (simulate(streams, PrefixCache(block_size, capacity, eviction))
            == simulate(streams, WalkingPrefixCache(block_size, capacity, eviction)))


def test_lru_never_evicts_a_block_that_regained_a_child():
    cache = PrefixCache(capacity=2, eviction="lru")
    cache.insert((1, 2))
    cache.insert((1, 3))  # evicts 2; block 1 is childless for a moment, then holds 3
    cache.insert((5,))    # must evict the leaf 3, not block 1
    assert cache.cached_tokens == 2
    assert cache.match((1, 3)) == 1
    assert cache.match((5,)) == 1


def test_eviction_none_stops_inserting_when_full():
    cache = PrefixCache(capacity=3, eviction="none")
    cache.insert((1, 2, 3, 4, 5))
    assert cache.cached_tokens == 3
    assert cache.match((1, 2, 3, 4, 5)) == 3


def test_stats_validation_and_errors():
    with pytest.raises(InvariantViolation):
        CacheStats(actual_hits=5, theoretical_hits=3, flat_length=10)
    with pytest.raises(ConfigError):
        PrefixCache(block_size=0)
    with pytest.raises(ConfigError):
        PrefixCache(eviction="fifo")
    with pytest.raises(ConfigError):
        simulate([], PrefixCache())
