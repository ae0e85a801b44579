"""Coverage, closed-form expected coverage, and repetition metrics.

Coverage of a set of distinct sequences is the total probability mass the
set captures under the truncated sequence distribution. The closed form
gives the expectation of unique-set coverage under i.i.d. sampling with
replacement:

    expected(k) = sum_x q_x * (1 - (1 - q_x)^k)
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .cache_sim import theoretical_hit_count
from .errors import DuplicateSequences, InvariantViolation

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


def compensated_sum(values: Iterable[float]) -> float:
    """Neumaier-compensated sum of the values."""
    v = values if isinstance(values, np.ndarray) else np.fromiter(values, np.float64)
    return float(compensated_prefix_sums(v)[-1]) if len(v) else 0.0


def coverage(leaves: Sequence[tuple[Sequence[int], float]]) -> float:
    """Total mass of a set of distinct (sequence, mass) pairs.

    Raises DuplicateSequences when the caller failed to deduplicate and
    InvariantViolation when the total exceeds 1 beyond tolerance; never
    clamps silently.
    """
    seqs = [tuple(tokens) for tokens, _ in leaves]
    if len(set(seqs)) != len(seqs):
        raise DuplicateSequences("coverage input contains duplicate sequences")
    return check_coverage(compensated_sum(q for _, q in leaves))


def check_coverage(total: float) -> float:
    """Return a coverage total, or raise InvariantViolation when it is not
    finite or exceeds 1 beyond tolerance."""
    if not math.isfinite(total):
        raise InvariantViolation(f"coverage {float(total)!r} is not finite")
    if total > 1.0 + COVERAGE_TOL:
        raise InvariantViolation(f"coverage {float(total)!r} exceeds 1 beyond tolerance")
    return total


def coverage_curve(leaves: Sequence[tuple[Sequence[int], float]]) -> list[float]:
    """Running coverage of the first j leaves, j = 1..len(leaves)."""
    running = []
    total = 0.0
    for _, q in leaves:
        total += q
        running.append(total)
    if running:
        check_coverage(running[-1])
    return running


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


def expected_coverage_closed_form(masses: Sequence[float], ks: Sequence[int]) -> list[float]:
    """Expected unique-set coverage of k i.i.d. draws with replacement, for
    each k in `ks`.

    The masses are checked and 1 - q computed once for the whole curve. Each
    point is a Neumaier sum of the terms q * (1 - (1 - q)^k), bit-identical
    to adding them one at a time with Neumaier's loop. Every term and every
    running total is >= 0, so whichever branch the loop takes, its
    compensation term is (max(prev, v) - total) + min(prev, v).
    """
    for k in ks:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
    arr = _check_masses(masses)
    if not len(arr):
        return [0.0] * len(ks)
    rest = 1.0 - arr
    curve = []
    for k in ks:
        terms = arr * (1.0 - rest ** k)
        total = np.cumsum(terms)
        prev = np.concatenate(([0.0], total[:-1]))
        comp = np.cumsum((np.maximum(prev, terms) - total) + np.minimum(prev, terms))
        curve.append(float(total[-1] + comp[-1]))
    return curve


def population_std(values: Sequence[float]) -> float:
    """Population std of one or more finite floats, correctly rounded. As
    integers a over a common power of two, the variance (n * sum(a^2) -
    sum(a)^2) / (n * scale)^2 is exact; its square root is rounded once, by a
    round-to-odd isqrt with 109 spare bits, as statistics.pstdev does from
    Python 3.11 (https://bugs.python.org/msg407078)."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = max(d for _, d in ratios)
    ints = [a * (scale // d) for a, d in ratios]
    n, total = len(ints), sum(ints)
    num, den = n * sum(a * a for a in ints) - total * total, (n * scale) ** 2
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = (num, den << 2 * shift) if shift >= 0 else (num << -2 * shift, den)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


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
