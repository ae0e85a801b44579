"""Coverage, closed-form expected coverage, diversity, and repetition metrics.

Coverage of a set of distinct sequences is the total probability mass the
set captures under the truncated sequence distribution. The closed forms
give the expectation of unique-set coverage under i.i.d. sampling with
replacement and its per-draw marginal gain:

    expected(k)      = sum_x q_x * (1 - (1 - q_x)^k)
    marginal_gain(k) = sum_x q_x^2 * (1 - q_x)^k

The gain equals expected(k+1) - expected(k) and is non-increasing in k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cache_sim import theoretical_hit_count
from .errors import DuplicateSequences, InvariantViolation, SequenceTooShort

COVERAGE_TOL = 1e-6


def compensated_prefix_sums(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Neumaier-compensated sum of every prefix: element i sums values[:i + 1].

    Bit-identical to adding the values one at a time with Neumaier's loop.
    ``np.cumsum`` adds strictly left to right (``np.sum`` adds pairwise), so
    the running totals are one cumulative pass, each step's rounding error
    is elementwise, and the running compensation is a second cumulative
    pass. Both passes start from 0.0, as the loop does, which keeps the
    sign of zero totals.
    """
    v = np.asarray(values, dtype=np.float64)
    running = np.cumsum(np.concatenate(([0.0], v)))
    prev, total = running[:-1], running[1:]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN here, as in the loop
        err = np.where(np.abs(prev) >= np.abs(v), (prev - total) + v, (v - total) + prev)
    return total + np.cumsum(np.concatenate(([0.0], err)))[1:]


def compensated_sum(values: Iterable[float]) -> tuple[float, float]:
    """Neumaier summation: (total, accumulated round-off compensation bound)."""
    v = values if isinstance(values, np.ndarray) else np.fromiter(values, np.float64)
    if not len(v):
        return 0.0, 0.0
    bound = np.cumsum(np.abs(v))[-1] * np.finfo(np.float64).eps
    return float(compensated_prefix_sums(v)[-1]), float(bound)


@dataclass(frozen=True)
class CoverageReport:
    ks: tuple[int, ...]
    values: tuple[float, ...]      # coverage at each k, non-decreasing
    method: str
    error_bound: float = 0.0

    @property
    def final(self) -> float:
        return self.values[-1] if self.values else 0.0


def coverage(leaves: Sequence[tuple[Sequence[int], float]]) -> float:
    """Total mass of a set of distinct (sequence, mass) pairs.

    Raises DuplicateSequences when the caller failed to deduplicate and
    InvariantViolation when the total exceeds 1 beyond tolerance; never
    clamps silently.
    """
    seqs = [tuple(tokens) for tokens, _ in leaves]
    if len(set(seqs)) != len(seqs):
        raise DuplicateSequences("coverage input contains duplicate sequences")
    total, _ = compensated_sum(q for _, q in leaves)
    return check_coverage(total)


def check_coverage(total: float) -> float:
    """Return a coverage total, or raise InvariantViolation when it is not
    finite or exceeds 1 beyond tolerance."""
    if not math.isfinite(total):
        raise InvariantViolation(f"coverage {float(total)!r} is not finite")
    if total > 1.0 + COVERAGE_TOL:
        raise InvariantViolation(f"coverage {float(total)!r} exceeds 1 beyond tolerance")
    return total


def coverage_curve(leaves: Sequence[tuple[Sequence[int], float]], method: str) -> CoverageReport:
    """Running coverage of the first j leaves, j = 1..len(leaves)."""
    running = []
    total = 0.0
    bound = 0.0
    for _, q in leaves:
        total += q
        bound += abs(q)
        running.append(total)
    if running:
        check_coverage(running[-1])
    return CoverageReport(
        ks=tuple(range(1, len(running) + 1)),
        values=tuple(running),
        method=method,
        error_bound=bound * float(np.finfo(np.float64).eps),
    )


def _check_masses(masses: Sequence[float]) -> np.ndarray:
    arr = np.asarray(masses, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvariantViolation("leaf masses must be finite")
    if (arr <= 0.0).any():
        raise InvariantViolation("leaf masses must be positive")
    total = float(arr.sum())
    if total > 1.0 + COVERAGE_TOL:
        raise InvariantViolation(f"leaf masses sum to {total!r} > 1")
    return arr


def expected_coverage_closed_form(masses: Sequence[float], k: int) -> float:
    """Expected unique-set coverage of k i.i.d. draws with replacement."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    arr = _check_masses(masses)
    total, _ = compensated_sum(arr * (1.0 - (1.0 - arr) ** k))
    return total


def marginal_gain_closed_form(masses: Sequence[float], k: int) -> float:
    """Expected coverage gain of draw k+1; non-increasing in k."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    arr = _check_masses(masses)
    total, _ = compensated_sum(arr * arr * (1.0 - arr) ** k)
    return total


def distinct_n(tokens: Sequence[int], n: int) -> float:
    """Fraction of unique n-grams among all n-grams of the sequence."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(tokens) < n:
        raise SequenceTooShort(f"sequence of length {len(tokens)} has no {n}-grams")
    grams = [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]
    return len(set(grams)) / len(grams)


def repetition_rate(generations: Sequence[Sequence[int]]) -> float:
    """Fraction of generated tokens lying in prefixes that duplicate an
    earlier generation's prefix.

    For each generation after the first, the repeated count is the longest m
    such that its first m tokens equal the first m tokens of some earlier
    generation: the prefix trie's hit count. Prompt tokens are excluded by
    contract.
    """
    total = sum(len(g) for g in generations)
    if total == 0:
        return 0.0
    return theoretical_hit_count(generations) / total


def aggregate_repetition_rate(questions: Sequence[Sequence[Sequence[int]]]) -> float:
    """Token-weighted repetition rate across questions."""
    repeated = sum(theoretical_hit_count(gens) for gens in questions if len(gens))
    total = sum(len(g) for gens in questions for g in gens)
    return repeated / total if total else 0.0
