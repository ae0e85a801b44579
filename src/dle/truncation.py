"""Truncation rules and the renormalized per-step distribution.

A rule selects the surviving tokens of a next-token distribution. With two
or more survivors their probabilities are renormalized by the retained raw
mass; with fewer than two the step degenerates to a point mass on the argmax
token. Sequence-level probability is the product of the per-step weights,
accumulated in log space.

Rule syntax used by the CLI and config files::

    top_k:10  top_p:0.9  min_p:0.1  epsilon:0.05  epsilon_ge:0.05
    top_p:0.95+top_k:10        (composite: intersection of active sets)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError

SUM_TOL = 1e-9


@dataclass(frozen=True)
class TopK:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"top_k requires k >= 1, got {self.k}")


@dataclass(frozen=True)
class TopP:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"top_p requires p in (0, 1], got {self.p}")


@dataclass(frozen=True)
class MinP:
    p_min: float

    def __post_init__(self):
        if not 0.0 < self.p_min <= 1.0:
            raise ConfigError(f"min_p requires p_min in (0, 1], got {self.p_min}")


@dataclass(frozen=True)
class Epsilon:
    """Absolute probability threshold.

    Strict comparison (p > eps) by default. `inclusive=True` keeps tokens
    sitting exactly on the threshold (p >= eps); the worked golden-test
    configuration uses the inclusive variant.
    """

    eps: float
    inclusive: bool = False

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ConfigError(f"epsilon requires a threshold in (0, 1], got {self.eps}")


@dataclass(frozen=True)
class Composite:
    rules: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.rules:
            raise ConfigError("composite rule requires at least one component")


TruncationRule = Union[TopK, TopP, MinP, Epsilon, Composite]


@dataclass(frozen=True)
class ActiveSet:
    """Surviving tokens with renormalized weights.

    token_ids / weights are parallel arrays in canonical order: weight
    descending, token id ascending. A singleton carries weight exactly 1.0.
    raw_mass is the un-renormalized probability retained by the rule.
    """

    token_ids: np.ndarray
    weights: np.ndarray
    raw_mass: float

    def __len__(self) -> int:
        return len(self.token_ids)

    def weight_of(self, token_id: int) -> float:
        """Renormalized weight of token_id, or 0.0 if outside the set."""
        hits = np.nonzero(self.token_ids == token_id)[0]
        return float(self.weights[hits[0]]) if len(hits) else 0.0


def greedy_token(probs: np.ndarray) -> int:
    """Argmax token id; ties broken by lowest id."""
    return int(np.argmax(probs))


def _top_k_mask(probs: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k positive tokens ranked first (probability descending, id ascending).

    One partition finds the k-th largest probability; of the tokens tied on
    it, the highest ids are dropped until k remain, so nothing is sorted.
    """
    if k >= len(probs):
        return probs > 0.0
    kth = np.partition(probs, len(probs) - k)[len(probs) - k]
    if kth <= 0.0:
        return probs > 0.0
    keep = probs >= kth
    surplus = int(np.count_nonzero(keep)) - k
    if surplus:
        tied = np.nonzero(probs == kth)[0]
        keep[tied[len(tied) - surplus:]] = False
    return keep


def _member_ids(probs: np.ndarray, rule: TruncationRule) -> np.ndarray:
    """Token ids satisfying the rule's criterion (no degenerate fallback), ascending.

    Every rule keeps a prefix of one ranking, probability descending and then
    token id ascending, so a composite keeps the shortest of its rules'
    prefixes. Threshold and top-k masks narrow the pool in O(V); only top-p
    has to rank, and it ranks only the pool. The ranked pool is a prefix of
    the full ranking, so its cumulative sums equal the full ones bit for bit.
    """
    rules = rule.rules if isinstance(rule, Composite) else (rule,)
    mask = None
    top_ps = []
    for sub in rules:
        if isinstance(sub, Epsilon):
            keep = probs >= sub.eps if sub.inclusive else probs > sub.eps
        elif isinstance(sub, MinP):
            keep = probs >= sub.p_min * probs.max()
        elif isinstance(sub, TopK):
            keep = _top_k_mask(probs, sub.k)
        elif isinstance(sub, TopP):
            keep = probs > 0.0
            top_ps.append(sub.p)
        elif isinstance(sub, Composite):
            keep = np.zeros(len(probs), dtype=bool)
            keep[_member_ids(probs, sub)] = True
        else:
            raise ConfigError(f"unknown truncation rule: {sub!r}")
        mask = keep if mask is None else mask & keep
    ids = np.nonzero(mask)[0]
    if not top_ps:
        return ids
    pool = probs[ids]
    ranked = np.lexsort((ids, -pool))
    cum = np.cumsum(pool[ranked])
    # First index where cumulative mass reaches the threshold is included.
    length = min(int(np.searchsorted(cum, p - 1e-12, side="left")) + 1 for p in top_ps)
    return np.sort(ids[ranked[:length]])


def active_set(probs: np.ndarray, rule: TruncationRule) -> ActiveSet:
    """Apply a truncation rule to one next-token distribution.

    Fewer than two survivors (possible for the absolute-threshold rule when
    even the argmax falls below the cutoff) degenerates to a point mass on
    the argmax token with weight exactly 1.0.
    """
    ids = _member_ids(probs, rule)
    if len(ids) <= 1:
        g = greedy_token(probs)
        return ActiveSet(
            token_ids=np.array([g], dtype=np.int64),
            weights=np.array([1.0]),
            raw_mass=float(probs[g]),
        )
    raw = probs[ids]
    raw_mass = float(raw.sum())
    weights = raw / raw_mass
    # Canonical order: weight descending, token id ascending.
    order = np.lexsort((ids, -weights))
    return ActiveSet(
        token_ids=ids[order].astype(np.int64),
        weights=weights[order],
        raw_mass=raw_mass,
    )


def apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Rescale a probability vector as p^(1/T), renormalized.

    T=1 returns the input unchanged; T=0 is the greedy limit (point mass on
    the argmax). Applied before truncation.
    """
    if temperature < 0.0:
        raise ConfigError(f"temperature must be >= 0, got {temperature}")
    if temperature == 1.0:
        return probs
    if temperature == 0.0:
        out = np.zeros_like(probs)
        out[greedy_token(probs)] = 1.0
        return out
    out = np.zeros_like(probs)
    positive = probs > 0.0
    logits = np.log(probs[positive]) / temperature
    logits -= logits.max()
    scaled = np.exp(logits)
    out[positive] = scaled / scaled.sum()
    return out


def sequence_probability(model, rule: TruncationRule, prompt: Sequence[int],
                         completion: Sequence[int]) -> float:
    """Probability of a completion under the truncated step distribution.

    Product of the renormalized per-step weights, computed in log space.
    Returns 0.0 as soon as any step's token falls outside the active set.
    """
    log_q = 0.0
    generated: list[int] = []
    for token in completion:
        probs = model.next_distribution(tuple(prompt), tuple(generated))
        weight = active_set(probs, rule).weight_of(int(token))
        if weight == 0.0:
            return 0.0
        log_q += math.log(weight)
        generated.append(int(token))
    return math.exp(log_q)


def parse_rule(text: str) -> TruncationRule:
    """Parse rule syntax like ``epsilon:0.05`` or ``top_p:0.95+top_k:10``."""
    parts = [p.strip() for p in text.split("+") if p.strip()]
    if not parts:
        raise ConfigError(f"empty rule string: {text!r}")
    rules = [_parse_single(p) for p in parts]
    if len(rules) == 1:
        return rules[0]
    return Composite(rules=tuple(rules))


def _parse_single(part: str) -> TruncationRule:
    name, sep, value = part.partition(":")
    if not sep:
        raise ConfigError(f"rule {part!r} must look like name:value")
    try:
        if name == "top_k":
            return TopK(k=int(value))
        if name == "top_p":
            return TopP(p=float(value))
        if name == "min_p":
            return MinP(p_min=float(value))
        if name == "epsilon":
            return Epsilon(eps=float(value))
        if name == "epsilon_ge":
            return Epsilon(eps=float(value), inclusive=True)
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in rule {part!r}") from exc
    raise ConfigError(f"unknown rule name {name!r}")


def format_rule(rule: TruncationRule) -> str:
    if isinstance(rule, TopK):
        return f"top_k:{rule.k}"
    if isinstance(rule, TopP):
        return f"top_p:{rule.p}"
    if isinstance(rule, MinP):
        return f"min_p:{rule.p_min}"
    if isinstance(rule, Epsilon):
        return f"{'epsilon_ge' if rule.inclusive else 'epsilon'}:{rule.eps}"
    if isinstance(rule, Composite):
        return "+".join(format_rule(r) for r in rule.rules)
    raise ConfigError(f"unknown truncation rule: {rule!r}")
