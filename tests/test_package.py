"""The package's public surface: adding or removing a name here is a deliberate change."""

import fbsim

PUBLIC = [
    "ExperimentConfig",
    "RateEstimate",
    "RngStream",
    "feasible_b_values",
    "find_bopt_empirical",
    "lambert_w_m1",
    "run_point",
    "sweep_b",
]


def test_all_is_the_intended_list():
    assert fbsim.__all__ == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from fbsim import *", namespace)
    assert [name for name in PUBLIC if name not in namespace] == []
