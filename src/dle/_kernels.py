"""Vectorized numpy kernel for the Monte Carlo coverage oracle."""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # kept: the benchmark's environment record reads dle._kernels.BACKEND


def mc_coverage_numpy(masses: np.ndarray, cum: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per-trial unique-draw coverage, vectorized.

    uniforms has shape (trials, k); each row is one trial of k draws from
    the categorical with cumulative weights `cum`. Returns the summed mass
    of the distinct leaves hit in each trial.
    """
    idx = np.searchsorted(cum, uniforms, side="right")
    np.minimum(idx, len(masses) - 1, out=idx)
    idx.sort(axis=1)
    first = np.ones(idx.shape, dtype=bool)
    first[:, 1:] = idx[:, 1:] != idx[:, :-1]
    return np.where(first, masses[idx], 0.0).sum(axis=1)
