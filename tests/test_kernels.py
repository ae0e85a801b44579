import numpy as np
import pytest

from dle._kernels import BACKEND
from reference import mc_coverage_numpy, np_substream


def test_backend_reports_a_known_name():
    assert BACKEND == "numpy"


def test_mc_coverage_numpy_single_leaf():
    masses = np.array([1.0])
    cum = np.cumsum(masses)
    uniforms = np_substream(0, "t").random((50, 3))
    out = mc_coverage_numpy(masses, cum, uniforms)
    assert np.all(out == 1.0)


def test_mc_coverage_numpy_two_leaves_enumerates_outcomes():
    masses = np.array([0.7, 0.3])
    cum = np.cumsum(masses)
    uniforms = np.array([[0.1, 0.2],    # both draws hit leaf 0
                         [0.9, 0.95],   # both hit leaf 1
                         [0.1, 0.9]])   # one of each
    out = mc_coverage_numpy(masses, cum, uniforms)
    assert out.tolist() == pytest.approx([0.7, 0.3, 1.0])
