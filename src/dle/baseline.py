"""Stochastic self-consistency baseline: i.i.d. sampling with replacement.

Each sequence is drawn step-wise from the truncated distribution, with
temperature applied to the base distribution before truncation. Duplicates
are kept; deduplication is the metric layer's job. Per-draw RNG streams are
derived from (seed, draw index), so any single draw is reproducible
independent of execution order. Runs that share a seed read the same
streams, so a multi-prompt run can keep their uniforms in a `streams` memo,
one array of uniforms per draw, and seed each stream once, not once per prompt.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import MutableSequence, Sequence

from .errors import ConfigError, ModelError
from .rng import substream_family
from .tree import DEFAULT_MAX_SEQ_LEN
from .truncation import TruncationRule, active_set, apply_temperature


@dataclass
class SampleRun:
    sequences: list[tuple[tuple[int, ...], float]]  # (tokens, sequence probability)
    degraded: bool = False


def _uniforms(stream_for_draw, draw: int, stored: MutableSequence[float]):
    """The uniforms of stream `draw`: those in `stored` first, then new ones,
    each appended to `stored`. The stream is seeded only when a reader goes
    past the stored values, and then skips them by drawing them again."""
    yield from stored
    rng = stream_for_draw(draw)
    for _ in range(len(stored)):
        rng.random()
    while True:
        value = rng.random()
        stored.append(value)
        yield value


def sample_sequences(model, rule: TruncationRule, prompt: Sequence[int], k: int,
                     seed: int, temperature: float = 1.0,
                     max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
                     steps: dict | None = None, streams: list | None = None) -> SampleRun:
    """Draw k sequences with replacement from the truncated distribution.

    `steps` maps `model.context(prompt, generated)` to that step's (token
    ids, log weights, cumulative weights), keyed as `engine.greedy_rollout`
    keys its memo; failed model calls are never stored. Runs of the same
    model, rule and temperature may share it; by default each call has its
    own. `streams[draw]`, for every draw below k, is a list or
    `array("d")` of the uniforms that draw's stream has produced so far; runs
    that share it, all with the same `seed`, seed each stream once between them.
    By default each draw's stream is seeded afresh.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if max_seq_len < 1:
        raise ConfigError(f"max_seq_len must be >= 1, got {max_seq_len}")
    prompt = tuple(prompt)
    if steps is None:
        steps = {}
    eos_id = model.vocab.eos_id
    stream_for_draw = substream_family(seed, "baseline-draw")
    sequences: list[tuple[tuple[int, ...], float]] = []
    degraded = False

    for draw in range(k):
        if streams is None:
            uniform = stream_for_draw(draw).random
        else:
            uniform = _uniforms(stream_for_draw, draw, streams[draw]).__next__
        tokens: tuple[int, ...] = ()
        log_q = 0.0
        try:
            while len(tokens) < max_seq_len:
                context = model.context(prompt, tokens)
                step = steps.get(context)
                if step is None:
                    row = model.next_distribution(prompt, tokens)
                    active = active_set(apply_temperature(row, temperature), rule)
                    step = steps[context] = (active.token_ids, active.log_weights,
                                             tuple(itertools.accumulate(active.weights)))
                ids, log_weights, cum = step
                if len(ids) == 1:
                    idx = 0
                else:
                    idx = bisect.bisect_right(cum, uniform() * cum[-1])
                    idx = min(idx, len(ids) - 1)
                log_q += log_weights[idx]
                token = ids[idx]
                tokens += (token,)
                if token == eos_id:
                    break
        except ModelError:
            degraded = True
            continue
        sequences.append((tokens, math.exp(log_q)))

    return SampleRun(sequences=sequences, degraded=degraded)
