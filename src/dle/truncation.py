"""Truncation rules and the renormalized per-step distribution.

A rule selects the surviving tokens of a next-token distribution. With two
or more survivors their probabilities are renormalized by the retained raw
mass; with fewer than two the step degenerates to a point mass on the argmax
token. Sequence-level probability is the product of the per-step weights,
accumulated in log space.

Every rule keeps a prefix of one ranking of the tokens, probability
descending and then token id ascending. The threshold rules (min_p,
epsilon) are O(V) masks; top-k and top-p cut one stable ranking of what the
masks keep, so a truncation sorts its pool at most once.

Rule syntax used by the CLI and config files::

    top_k:10  top_p:0.9  min_p:0.1  epsilon:0.05  epsilon_ge:0.05
    top_p:0.95+top_k:10        (composite: intersection of active sets)
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError


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


# Below this many tokens a step finishes on Python floats. numpy's sum adds
# fewer than 8 float64 values left to right, as a loop does, and pairwise from
# 8 on, so only below 8 do Python floats give the same bits.
SMALL_POOL = 8


@dataclass(frozen=True, slots=True)
class ActiveSet:
    """Surviving tokens with renormalized weights.

    token_ids / weights / log_weights are parallel tuples in canonical order:
    weight descending, token id ascending. A singleton carries weight exactly
    1.0. raw_mass is the un-renormalized probability retained by the rule.
    """

    token_ids: tuple[int, ...]
    weights: tuple[float, ...]
    log_weights: tuple[float, ...]
    raw_mass: float

    def __len__(self) -> int:
        return len(self.token_ids)


def greedy_token(probs: np.ndarray) -> int:
    """Argmax token id; ties broken by lowest id."""
    return int(np.argmax(probs))


def _pool(probs: np.ndarray, rule: TruncationRule) -> tuple[np.ndarray, list[float], bool]:
    """The rule's members before any top-p cut, the top-p thresholds still to
    apply to them, and whether the members are ranked (else they ascend).

    Every rule keeps a prefix of one ranking, probability descending and then
    token id ascending, so a composite keeps the shortest of its rules'
    prefixes. Threshold masks narrow the pool first, in O(V), and leave it in
    ascending id order. A top-p rule, or a top-k rule that cuts the pool,
    then ranks it with one stable sort, of the whole row when no threshold
    narrowed it, and top-k keeps the ranking's first k. The ranked pool is a
    prefix of the full ranking, so its cumulative sums equal the full ones
    bit for bit.
    """
    rules = rule.rules if isinstance(rule, Composite) else (rule,)
    mask = None
    top_k = None
    top_ps = []
    for sub in rules:
        if isinstance(sub, Epsilon):
            keep = probs >= sub.eps if sub.inclusive else probs > sub.eps
        elif isinstance(sub, MinP):
            keep = probs >= sub.p_min * probs.max()
        elif isinstance(sub, Composite):
            keep = np.zeros(len(probs), dtype=bool)
            keep[_top_p_cut(probs, *_pool(probs, sub)[:2])] = True
        elif isinstance(sub, TopK):
            top_k = sub.k if top_k is None else min(top_k, sub.k)
            continue
        elif isinstance(sub, TopP):
            top_ps.append(sub.p)
            continue
        else:
            raise ConfigError(f"unknown truncation rule: {sub!r}")
        mask = keep if mask is None else mask & keep
    # Threshold rules keep positive probabilities only.
    ids = np.nonzero(probs > 0.0 if mask is None else mask)[0]
    if not top_ps and (top_k is None or len(ids) <= top_k):
        return ids, top_ps, False
    if mask is None:
        # Zero probabilities rank last.
        ranked = np.argsort(-probs, kind="stable")[:len(ids)]
    else:
        ranked = ids[np.argsort(-probs[ids], kind="stable")]
    return ranked[:top_k], top_ps, True


def _top_p_cut(probs: np.ndarray, ranked: np.ndarray, top_ps: list[float]) -> np.ndarray:
    """The prefix of a ranked pool within every top-p threshold: the rule's
    members, with no degenerate fallback."""
    if not top_ps:
        return ranked
    cum = np.cumsum(probs[ranked])
    # First index where cumulative mass reaches the threshold is included.
    return ranked[:min(int(np.searchsorted(cum, p - 1e-12, side="left")) + 1 for p in top_ps)]


def _small_active_set(probs: np.ndarray, ids: np.ndarray, top_ps: list[float],
                      ranked: bool) -> ActiveSet:
    """The rest of a step on Python floats, for fewer than SMALL_POOL ids,
    with numpy's bits: `accumulate` and `bisect_left` are `cumsum` and
    `searchsorted`, and the loop adds in the order numpy's sum uses below
    SMALL_POOL values."""
    raw = probs[ids].tolist()
    ids = ids.tolist()
    if top_ps:
        cum = list(itertools.accumulate(raw))
        length = min(bisect.bisect_left(cum, p - 1e-12) + 1 for p in top_ps)
        ids, raw = ids[:length], raw[:length]
    if len(ids) <= 1:
        # Every rule keeps a prefix of the ranking, so a lone survivor is the argmax.
        g = ids[0] if ids else greedy_token(probs)
        return ActiveSet((g,), (1.0,), (0.0,), float(probs[g]))
    if ranked:
        ids, raw = zip(*sorted(zip(ids, raw)))
    raw_mass = 0.0
    for value in raw:  # not sum(), which is compensated from Python 3.12
        raw_mass += value
    weights = [value / raw_mass for value in raw]
    # A stable sort of ascending ids breaks weight ties by id (`reverse=True` keeps it stable).
    canonical = operator.itemgetter(*sorted(range(len(ids)), key=weights.__getitem__,
                                            reverse=True))
    weights = canonical(weights)
    return ActiveSet(canonical(ids), weights, tuple(map(math.log, weights)), raw_mass)


def active_set(probs: np.ndarray, rule: TruncationRule) -> ActiveSet:
    """Apply a truncation rule to one next-token distribution.

    Fewer than two survivors (possible for the absolute-threshold rule when
    even the argmax falls below the cutoff) degenerates to a point mass on
    the argmax token with weight exactly 1.0. The O(V) narrowing and the one
    ranking run in numpy; a pool of fewer than SMALL_POOL tokens finishes on
    Python floats. Ranked survivors go back to ascending id order, the order
    the raw mass is summed in.
    """
    ids, top_ps, ranked = _pool(probs, rule)
    if top_ps and len(ids) >= SMALL_POOL:
        ids, top_ps = _top_p_cut(probs, ids, top_ps), []
    if len(ids) < SMALL_POOL:
        return _small_active_set(probs, ids, top_ps, ranked)
    if ranked:
        ids = np.sort(ids)
    raw = probs[ids]
    raw_mass = float(raw.sum())
    weights = raw / raw_mass
    # Canonical order: weight descending, token id ascending.
    order = np.lexsort((ids, -weights))
    weights = tuple(weights[order].tolist())
    return ActiveSet(tuple(ids[order].tolist()), weights, tuple(map(math.log, weights)), raw_mass)


def apply_temperature(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Rescale a probability vector as p^(1/T), renormalized.

    T=1 returns the input unchanged; T=0 is the greedy limit (point mass on
    the argmax). Applied before truncation.
    """
    if not temperature >= 0.0:  # NaN fails every comparison
        raise ConfigError(f"temperature must be >= 0, got {temperature}")
    if temperature == 1.0:
        return probs
    out = np.zeros_like(probs)
    if temperature > 0.0:
        positive = probs > 0.0
        with np.errstate(over="ignore"):
            logits = np.log(probs[positive]) / temperature
        top = logits.max()
        # A T so small that the largest scaled logit overflows takes its limit, T=0.
        if math.isfinite(top):
            scaled = np.exp(logits - top)
            out[positive] = scaled / scaled.sum()
            return out
    out[greedy_token(probs)] = 1.0
    return out


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
