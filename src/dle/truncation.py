"""Truncation rules and the renormalized per-step distribution.

A rule selects the surviving tokens of a next-token distribution, a
`SparseRow`. With two or more survivors their probabilities are renormalized
by the retained raw mass; with fewer than two the step degenerates to a point
mass on the argmax token. Sequence-level probability is the product of the
per-step weights, accumulated in log space.

Every rule keeps a prefix of one ranking of the tokens, probability
descending and then token id ascending: the row's entries above its floor,
sorted, then every other id in ascending order, all at the floor. The
threshold rules (min_p, epsilon) narrow the listed entries, top-k and top-p
cut the ranking of what they keep, and the floor ids are only enumerated as
far as a survivor needs them. A step costs the row's listed entries and its
survivors, not the vocabulary size.

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
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ConfigError
from .model import SparseRow


class _Rule:
    """Base of the rules. Every rule keeps a prefix of the ranking, so a
    rule, nested composites flattened, comes down to one plan, made once per
    rule object: (the smallest k or None, the top-p thresholds, and the
    thresholds a token's p must pass: p > strict, p >= inclusive and
    p >= min_p times the row's largest probability)."""

    @cached_property
    def _plan(self) -> tuple[int | None, tuple[float, ...], float, float, float]:
        top_k, top_ps, strict, inclusive, min_p = None, [], 0.0, 0.0, 0.0
        pending = [self]
        while pending:
            sub = pending.pop()
            if isinstance(sub, Composite):
                pending.extend(sub.rules)
            elif isinstance(sub, TopK):
                top_k = sub.k if top_k is None else min(top_k, sub.k)
            elif isinstance(sub, TopP):
                top_ps.append(sub.p)
            elif isinstance(sub, Epsilon):
                if sub.inclusive:
                    inclusive = max(inclusive, sub.eps)
                else:
                    strict = max(strict, sub.eps)
            elif isinstance(sub, MinP):
                min_p = max(min_p, sub.p_min)
            else:
                raise ConfigError(f"unknown truncation rule: {sub!r}")
        return top_k, tuple(top_ps), strict, inclusive, min_p


@dataclass(frozen=True)
class TopK(_Rule):
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"top_k requires k >= 1, got {self.k}")


@dataclass(frozen=True)
class TopP(_Rule):
    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"top_p requires p in (0, 1], got {self.p}")


@dataclass(frozen=True)
class MinP(_Rule):
    p_min: float

    def __post_init__(self):
        if not 0.0 < self.p_min <= 1.0:
            raise ConfigError(f"min_p requires p_min in (0, 1], got {self.p_min}")


@dataclass(frozen=True)
class Epsilon(_Rule):
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
class Composite(_Rule):
    rules: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.rules:
            raise ConfigError("composite rule requires at least one component")


TruncationRule = Union[TopK, TopP, MinP, Epsilon, Composite]


# Below this many survivors the raw mass is a left-to-right loop, from 8 on
# numpy's sum: numpy adds fewer than 8 float64 values left to right, as a loop
# does, and pairwise from 8 on, so each size keeps the bits of numpy's sum.
SMALL_POOL = 8

# A row listing at least this many entries ranks them in numpy, and from this
# many candidates on the top-p and floor-id steps run in numpy too. Measured
# on random rows: where every candidate survives (top-p, epsilon), numpy's
# fixed costs are repaid from about 64 tokens; a top-k cut to 8 breaks even
# nearer 128 and costs up to a fifth more between.
WIDE_ROW = 64


@dataclass(slots=True)
class ActiveSet:
    """Surviving tokens with renormalized weights.

    token_ids / weights / log_weights are parallel tuples in canonical order:
    weight descending, token id ascending. A singleton carries weight exactly
    1.0. raw_mass is the un-renormalized probability retained by the rule.
    Step memos share active sets, so they are never changed; the class is not
    frozen because a frozen dataclass takes about four times as long to build.
    """

    token_ids: tuple[int, ...]
    weights: tuple[float, ...]
    log_weights: tuple[float, ...]
    raw_mass: float

    def __len__(self) -> int:
        return len(self.token_ids)


def _argmax(row: SparseRow) -> tuple[int, float]:
    """The first entry of the row's ranking, (token id, probability): the
    most probable token, ties broken by lowest id."""
    ids, probs, floor, _ = row
    top = max(probs) if probs else floor
    if top > floor:
        return ids[operator.indexOf(probs, top)], top
    return 0, floor  # every id sits at the floor


def _survivors(row: SparseRow, above: float, at_least: float, top_k: int, top_ps: tuple,
               floor_kept: bool) -> tuple:
    """The ids and probabilities of the rule's members, with no degenerate
    fallback, and whether they are ranked (else they ascend by id).

    The members are the listed entries with p > above and p >= at_least,
    then, when `floor_kept`, the floor ids. When a top-k or top-p cut applies
    they are ranked (p descending, id ascending) and cut: top-k to its first
    top_k, top-p to the first prefix whose cumulative mass reaches each
    threshold. The floor ids are enumerated only as far as a survivor needs
    them. A row listing WIDE_ROW entries or more ranks them in numpy, a
    partition first leaving only those that can reach the first top_k; from
    WIDE_ROW candidates on the cuts run in numpy too. Fewer than SMALL_POOL
    survivors come back as lists.
    """
    ids, probs, floor, size = row
    if len(ids) < WIDE_ROW:
        keep = [j for j, p in enumerate(probs) if p > above and p >= at_least]
        candidates = size if floor_kept else len(keep)
        length = min(top_k, candidates)
        ranked = bool(top_ps) or length < candidates
        if ranked:
            # A stable sort of ascending ids breaks ties by id (`reverse=True` keeps it stable).
            keep.sort(key=probs.__getitem__, reverse=True)
            del keep[length:]
        ids, raw = [ids[j] for j in keep], [probs[j] for j in keep]
    else:
        raw, ids = np.asarray(probs, dtype=np.float64), np.asarray(ids)
        keep = (raw > above) & (raw >= at_least)
        raw, ids = raw[keep], ids[keep]
        candidates = size if floor_kept else len(raw)
        length = min(top_k, candidates)
        ranked = bool(top_ps) or length < candidates
        if ranked:
            if length < len(raw):
                near = raw >= np.partition(raw, len(raw) - length)[len(raw) - length]
                raw, ids = raw[near], ids[near]
            order = np.argsort(-raw, kind="stable")[:length]
            raw, ids = raw[order], ids[order]
        if length < WIDE_ROW:
            ids, raw = ids.tolist(), raw.tolist()
    wide = length >= WIDE_ROW
    if wide:
        ids, raw = np.asarray(ids, dtype=np.int64), np.asarray(raw, dtype=np.float64)
    if top_ps:
        # Cumulative mass along the ranking, the floor ids after the kept entries.
        extension = length - len(raw)
        if wide:
            cum = np.cumsum(np.concatenate((raw, np.full(extension, floor))))
        else:
            cum = list(itertools.accumulate(itertools.chain(raw, itertools.repeat(floor, extension))))
        # First index where cumulative mass reaches the threshold is included.
        length = min(length, *(bisect.bisect_left(cum, p - 1e-12) + 1 for p in top_ps))
    fill = length - len(ids)
    if fill > 0:
        # The first floor ids: the ids not kept, ascending.
        if wide:
            free = np.ones(size, dtype=bool)
            free[ids] = False
            ids = np.concatenate((ids, np.flatnonzero(free)[:fill]))
            raw = np.concatenate((raw, np.full(fill, floor)))
        else:
            listed = set(ids)
            ids += itertools.islice(itertools.filterfalse(listed.__contains__, range(size)), fill)
            raw += [floor] * fill
        ranked = True
    ids, raw = ids[:length], raw[:length]
    if wide and length < SMALL_POOL:
        ids, raw = ids.tolist(), raw.tolist()
    return ids, raw, ranked


def _finish(ids, raw, ranked: bool) -> ActiveSet:
    """The active set of two or more survivors, in ascending id order unless
    `ranked`. The raw mass is summed in ascending id order: a loop below
    SMALL_POOL survivors, numpy's sum from there on."""
    if len(ids) < SMALL_POOL:
        if ranked:
            ids, raw = zip(*sorted(zip(ids, raw)))
        raw_mass = 0.0
        for value in raw:  # not sum(), which is compensated from Python 3.12
            raw_mass += value
        weights = [value / raw_mass for value in raw]
        # A stable sort of ascending ids breaks weight ties by id.
        canonical = operator.itemgetter(*sorted(range(len(ids)), key=weights.__getitem__,
                                                reverse=True))
        ids, weights = canonical(ids), canonical(weights)
    else:
        ids, values = np.asarray(ids), np.asarray(raw)
        if ranked:
            by_id = np.argsort(ids)
            ids, values = ids[by_id], values[by_id]
        raw_mass = float(values.sum())
        weights = values / raw_mass
        order = np.argsort(-weights, kind="stable")
        ids, weights = tuple(ids[order].tolist()), tuple(weights[order].tolist())
    return ActiveSet(ids, weights, tuple(map(math.log, weights)), raw_mass)


def active_set(row: SparseRow, rule: TruncationRule) -> ActiveSet:
    """Apply a truncation rule to one next-token distribution.

    Fewer than two survivors (possible for the absolute-threshold rule when
    even the argmax falls below the cutoff) degenerates to a point mass on
    the argmax token with weight exactly 1.0.
    """
    ids, probs, floor, size = row
    top_k, top_ps, strict, inclusive, min_p = rule._plan
    if min_p:
        # No listed probability is below the floor, so it is the largest when none is listed.
        if len(probs) >= WIDE_ROW:
            top = float(np.max(probs))
        else:
            top = max(probs) if probs else floor
        inclusive = max(inclusive, min_p * top)
    # The floor ids pass the thresholds together; when they do, so does every
    # entry above them, and they follow those in the ranking.
    floor_kept = floor > strict and floor >= inclusive
    if not floor_kept and len(probs) == 1 and probs[0] > floor:
        # The lone entry is the only candidate: it survives, or the step falls
        # back to the argmax, which is it, with the same mass. A floor of 0 is
        # never kept (`strict` is at least 0), so this also covers a floor-0
        # row that lists one positive entry, such as a table row that can
        # only end the sequence.
        return ActiveSet((ids[0],), (1.0,), (0.0,), probs[0])
    ids, raw, ranked = _survivors(row, max(floor, strict), inclusive,
                                  size if top_k is None else top_k, top_ps, floor_kept)
    if len(ids) <= 1:
        # Every rule keeps a prefix of the ranking, so a lone survivor is the argmax.
        token, mass = (ids[0], raw[0]) if ids else _argmax(row)
        return ActiveSet((token,), (1.0,), (0.0,), mass)
    return _finish(ids, raw, ranked)


def apply_temperature(row: SparseRow, temperature: float) -> SparseRow:
    """Rescale a distribution as p^(1/T), renormalized.

    T=1 returns the row unchanged; T=0 is the greedy limit (point mass on
    the argmax). Any other T rescales the dense row, and the ids at the floor
    share one rescaled value. Applied before truncation.
    """
    if not temperature >= 0.0:  # NaN fails every comparison
        raise ConfigError(f"temperature must be >= 0, got {temperature}")
    if temperature == 1.0:
        return row
    ids, _, floor, size = row
    if temperature > 0.0:
        probs = row.dense()
        positive = probs > 0.0
        with np.errstate(over="ignore"):
            logits = np.log(probs[positive]) / temperature
        top = logits.max()
        # A T so small that the largest scaled logit overflows takes its limit, T=0.
        if math.isfinite(top):
            scaled = np.exp(logits - top)
            out = np.zeros(size)
            out[positive] = scaled / scaled.sum()
            unlisted = next(itertools.filterfalse(set(ids).__contains__, range(size)), None)
            floor = 0.0 if floor == 0.0 or unlisted is None else float(out[unlisted])
            return SparseRow(ids, tuple(out[np.asarray(ids, dtype=np.intp)].tolist()), floor,
                             size)
    return SparseRow((_argmax(row)[0],), (1.0,), 0.0, size)


def parse_rule(text: str) -> TruncationRule:
    """Parse rule syntax like ``epsilon:0.05`` or ``top_p:0.95+top_k:10``."""
    rules = [_parse_single(part.strip()) for part in text.split("+")]  # an empty part raises
    return rules[0] if len(rules) == 1 else Composite(rules=tuple(rules))


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
