import importlib

import pytest

import quantocds

MODULES = ["cli", "grid", "model", "oracles", "pde", "pricing", "rbffd"]


def test_package_exports_resolve():
    missing = [name for name in quantocds.__all__ if not hasattr(quantocds, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"quantocds.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


PUBLIC_NAMES = [
    "BoundaryKind", "BoundaryRegime", "CdsSchedule", "DegenerateRecoveryError",
    "Grid4D", "GridConfig", "LegTerms", "McConfig", "McEstimate", "ModelParams",
    "ParameterError", "QuantoCdsPricer", "ScalarField", "SpreadReport",
    "StabilityError", "StencilWeights", "beta_stationary_params",
    "boundary_regimes", "build_grid", "cn_domestic_spread", "credit_triangle",
    "domestic_params", "domestic_spread", "interpolate", "jump_shift",
    "mc_leg_estimates", "mc_spread", "par_spread", "quanto_basis",
    "rbf_fd_weights", "rk4_sweep", "terminal_condition", "validate_params",
]


def test_package_exports_pinned():
    # adding or removing a public name is a deliberate edit of this list
    assert sorted(quantocds.__all__) == PUBLIC_NAMES
