from dle._kernels import BACKEND


def test_backend_reports_a_known_name():
    assert BACKEND == "numpy"
