"""Stochastic self-consistency baseline: i.i.d. sampling with replacement.

Each sequence is drawn step-wise from the truncated distribution, with
temperature applied to the base distribution before truncation. Duplicates
are kept; deduplication is the metric layer's job. Per-draw RNG streams are
derived from (seed, draw index), so any single draw is reproducible
independent of execution order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, ModelError
from .rng import substream_family
from .truncation import TruncationRule, active_set, apply_temperature

DEFAULT_MAX_SEQ_LEN = 512


@dataclass
class SampleRun:
    sequences: list[tuple[tuple[int, ...], float]]  # (tokens, sequence probability)
    seed: int
    temperature: float
    rule: TruncationRule
    degraded: bool = False

    def unique_sequences(self) -> list[tuple[tuple[int, ...], float]]:
        seen: dict[tuple[int, ...], float] = {}
        for tokens, q in self.sequences:
            seen.setdefault(tokens, q)
        return list(seen.items())


class _StepCache:
    """Memoized (token ids, cumulative weights) per context for one run.

    Valid because table and n-gram models are pure functions of the prefix;
    the model is still queried exactly once per distinct context.
    """

    def __init__(self, model, rule: TruncationRule, prompt: tuple[int, ...], temperature: float):
        self.model = model
        self.rule = rule
        self.prompt = prompt
        self.temperature = temperature
        self.cache: dict[tuple[int, ...], tuple[list[int], list[float], list[float]]] = {}

    def step(self, generated: tuple[int, ...]):
        entry = self.cache.get(generated)
        if entry is None:
            probs = self.model.next_distribution(self.prompt, generated)
            probs = apply_temperature(probs, self.temperature)
            active = active_set(probs, self.rule)
            ids = [int(t) for t in active.token_ids]
            log_weights = [math.log(float(w)) for w in active.weights]
            cum = []
            acc = 0.0
            for w in active.weights:
                acc += float(w)
                cum.append(acc)
            entry = (ids, log_weights, cum)
            self.cache[generated] = entry
        return entry


def sample_sequences(model, rule: TruncationRule, prompt: Sequence[int], k: int,
                     seed: int, temperature: float = 1.0,
                     max_seq_len: int = DEFAULT_MAX_SEQ_LEN) -> SampleRun:
    """Draw k sequences with replacement from the truncated distribution."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    prompt = tuple(prompt)
    stepper = _StepCache(model, rule, prompt, temperature)
    eos_id = model.vocab.eos_id
    stream_for_draw = substream_family(seed, "baseline-draw")
    sequences: list[tuple[tuple[int, ...], float]] = []
    degraded = False

    for draw in range(k):
        rng = stream_for_draw(draw)
        tokens: tuple[int, ...] = ()
        log_q = 0.0
        try:
            while len(tokens) < max_seq_len:
                ids, log_weights, cum = stepper.step(tokens)
                if len(ids) == 1:
                    idx = 0
                else:
                    idx = bisect.bisect_right(cum, rng.random() * cum[-1])
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

    return SampleRun(sequences=sequences, seed=seed, temperature=temperature,
                     rule=rule, degraded=degraded)
