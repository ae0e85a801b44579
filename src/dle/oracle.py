"""Brute-force ground truth for desk-scale verification.

The oracle is intentionally naive — exhaustive depth-first traversal, linear
scans, plain float products — so it cannot share bugs with the optimized
enumeration engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import mc_coverage_numpy
from .errors import DepthExceeded
from .rng import np_substream
from .truncation import TruncationRule, active_set

DEFAULT_MAX_DEPTH = 64


@dataclass(frozen=True)
class OracleLeafSet:
    leaves: tuple[tuple[tuple[int, ...], float], ...]  # (tokens, mass) in discovery order
    total_mass: float
    node_count: int

    def masses(self) -> list[float]:
        return [q for _, q in self.leaves]


def enumerate_all_leaves(model, rule: TruncationRule, prompt: Sequence[int] = (),
                         max_depth: int = DEFAULT_MAX_DEPTH) -> OracleLeafSet:
    """Exhaustive depth-first traversal of every active-set child.

    The walk uses an explicit stack rather than a self-referencing closure,
    so no reference cycle keeps the leaf list alive after the call. Children
    are pushed in reverse, so leaves come out in depth-first discovery order.
    """
    prompt = tuple(prompt)
    eos_id = model.vocab.eos_id
    leaves: list[tuple[tuple[int, ...], float]] = []
    node_count = 0
    stack: list[tuple[tuple[int, ...], float, bool]] = [((), 1.0, False)]
    while stack:
        generated, mass, is_leaf = stack.pop()
        if is_leaf:
            leaves.append((generated, mass))
            continue
        node_count += 1
        if len(generated) >= max_depth:
            raise DepthExceeded(f"path {generated!r} reached the depth limit {max_depth} without eos "
                                "(--max-seq-len; --max-depth for oracle)")
        active = active_set(model.next_distribution(prompt, generated), rule)
        children = [(generated + (int(token),), mass * float(weight), int(token) == eos_id)
                    for token, weight in zip(active.token_ids, active.weights)]
        stack.extend(reversed(children))
    total = 0.0
    for _, q in leaves:
        total += q
    return OracleLeafSet(leaves=tuple(leaves), total_mass=total, node_count=node_count)


def top_k_by_mass(oracle_set: OracleLeafSet, k: int) -> list[tuple[tuple[int, ...], float]]:
    """The k largest-mass leaves; ties keep first-discovered order."""
    if k > len(oracle_set.leaves):
        raise ValueError(f"k={k} exceeds leaf count {len(oracle_set.leaves)}")
    indexed = sorted(range(len(oracle_set.leaves)),
                     key=lambda i: (-oracle_set.leaves[i][1], i))
    return [oracle_set.leaves[i] for i in indexed[:k]]


def monte_carlo_coverage_from_masses(masses: Sequence[float], k: int, trials: int,
                                     seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of expected unique-set coverage of k draws.

    Each trial draws k leaves i.i.d. from the leaf-mass categorical — the
    distribution a step-wise sampler induces over terminated sequences —
    deduplicates, and sums the distinct masses. Returns (mean, standard
    error of the mean).
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    arr = np.asarray(masses, dtype=np.float64)
    cum = np.cumsum(arr)
    uniforms = np_substream(seed, "mc-coverage").random((trials, k))
    # Scale into the covered mass so draws always land on a leaf.
    uniforms *= cum[-1]
    per_trial = mc_coverage_numpy(arr, cum, uniforms)
    mean = float(per_trial.mean())
    std_error = float(per_trial.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, std_error


def monte_carlo_expected_coverage(model, rule: TruncationRule, k: int, trials: int,
                                  seed: int, prompt: Sequence[int] = (),
                                  max_depth: int = DEFAULT_MAX_DEPTH) -> tuple[float, float]:
    """Monte Carlo expected coverage for a model/rule pair."""
    oracle_set = enumerate_all_leaves(model, rule, prompt, max_depth)
    return monte_carlo_coverage_from_masses(oracle_set.masses(), k, trials, seed)
