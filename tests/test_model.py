import pickle
from dataclasses import replace

import numpy as np
import pytest

from quantocds.model import (BoundaryKind, DegenerateRecoveryError, ModelParams,
                             ParameterError, beta_stationary_params,
                             boundary_regimes, validate_params)


def test_default_parameter_set_accepted():
    p = validate_params(ModelParams())
    assert p.R0 == 0.45
    assert p.kappa_rhat == 0.08
    assert p.theta_y == -210.0
    assert np.isclose(p.lambda0, np.exp(-4.089))


def test_gamma_z_below_minus_one_rejected():
    with pytest.raises(ParameterError, match="gamma_z"):
        validate_params(ModelParams(gamma_z=-1.5))


def test_non_psd_correlation_rejected():
    rho = np.eye(4)
    # R-z, R-y, z-y all at 0.99 with the others zero is not PSD
    # (eigenvalue check: min eigenvalue of the 3x3 sub-block is negative)
    rho[0, 2] = rho[2, 0] = 0.99
    rho[0, 3] = rho[3, 0] = 0.99
    rho[2, 3] = rho[3, 2] = -0.99
    assert np.linalg.eigvalsh(rho).min() < -1e-6
    with pytest.raises(ParameterError, match="PSD"):
        validate_params(ModelParams(rho=rho))


@pytest.mark.parametrize("field,value,match", [
    ("sigma_y", -0.1, "sigma_y"),
    ("kappa_R", -1.0, "kappa_R"),
    ("R0", 1.5, "R0"),
    ("theta_R", -0.2, "theta_R"),
    ("rhat0", -0.01, "rhat0"),
    ("z0", 0.0, "z0"),
    ("gamma_rhat", -2.0, "gamma_rhat"),
])
def test_domain_violations_named(field, value, match):
    with pytest.raises(ParameterError, match=match):
        validate_params(ModelParams(**{field: value}))


class TestValueEquality:
    def test_equal_sets_compare_and_hash_equal(self):
        assert ModelParams() == ModelParams()
        assert hash(ModelParams()) == hash(ModelParams())
        # rho compares by its float64 values, whatever container holds it
        as_list = ModelParams(rho=np.eye(4).tolist())
        assert as_list == ModelParams() and hash(as_list) == hash(ModelParams())

    def test_any_changed_field_is_unequal(self):
        p = ModelParams()
        assert (p == p.with_(R0=0.5)) is False
        assert p != p.with_(gamma_z=-0.3)
        rho = np.eye(4)
        rho[0, 2] = rho[2, 0] = 0.5
        assert p != p.with_(rho=rho)
        assert p != "ModelParams()"


class TestBuiltOnce:
    """A set is checked when it is built, and its rho cannot change."""

    def test_rho_is_read_only(self):
        p = ModelParams()
        with pytest.raises(ValueError, match="read-only"):
            p.rho[0, 1] = 0.5
        assert np.array_equal(p.rho, np.eye(4))

    def test_caller_array_is_copied(self):
        rho = np.eye(4)
        rho[0, 2] = rho[2, 0] = 0.3
        p = ModelParams(rho=rho)
        key = hash(p)
        rho[0, 2] = rho[2, 0] = 0.9
        assert p.rho[0, 2] == 0.3 and hash(p) == key
        assert p == ModelParams(rho=p.rho.copy())

    @pytest.mark.parametrize("rho", [np.eye(4).tolist(), np.eye(4, dtype=int)],
                             ids=["list", "int-array"])
    def test_rho_stored_as_float64(self, rho):
        p = ModelParams(rho=rho)
        assert isinstance(p.rho, np.ndarray) and p.rho.dtype == np.float64
        assert p == ModelParams(rho=np.eye(4)) and hash(p) == hash(ModelParams())

    @pytest.mark.parametrize("field, value", [
        ("sigma_R", -1.0), ("gamma_z", -5.0), ("z0", 0.0), ("rho", np.zeros((4, 4)))])
    def test_replace_and_with_refuse_a_bad_field(self, field, value):
        with pytest.raises(ParameterError):
            replace(ModelParams(), **{field: value})
        with pytest.raises(ParameterError):
            ModelParams().with_(**{field: value})

    def test_pickle_round_trip(self):
        # as a sweep with workers > 1 sends a set to its worker processes
        rho = np.eye(4)
        rho[1, 3] = rho[3, 1] = -0.4
        p = ModelParams(gamma_z=-0.3, sigma_R=0.2, kappa_R=0.5, rho=rho)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p)
        assert not q.rho.flags.writeable


@pytest.mark.parametrize("field, value", [
    ("R0", True), ("gamma_z", "0.1"), ("sigma_y", None), ("kappa_R", [0.1]),
])
def test_non_real_field_rejected_by_name(field, value):
    # a bool or a numeric string is not taken as a number
    with pytest.raises(ParameterError, match=f"{field} must be a real number"):
        validate_params(ModelParams(**{field: value}))


def test_sweep_parameter_ranges_accepted():
    p = ModelParams()
    for gz in np.linspace(-0.9, 0.0, 7):
        p.with_(gamma_z=gz)
    for gr in np.linspace(0.0, 4.0, 5):
        p.with_(gamma_rhat=gr)
    for kR in np.linspace(0.0, 1.0, 5):
        p.with_(kappa_R=kR)
    for sR in np.linspace(0.0, 0.5, 5):
        p.with_(sigma_R=sR)
    for val in (-0.8, -0.1, 0.1, 0.8):
        rho = np.eye(4)
        rho[0, 2] = rho[2, 0] = val
        p.with_(rho=rho)


class TestBoundaryRegimes:
    def test_table1_defaults_all_degenerate(self):
        regs = boundary_regimes(ModelParams())
        for name in ("R=0", "R=1", "rhat=0"):
            assert regs[name].kind is BoundaryKind.DEGENERATE_PDE

    def test_far_boundaries_always_vanishing(self):
        regs = boundary_regimes(ModelParams(sigma_R=0.5, kappa_R=0.1))
        for name in ("rhat=max", "y=min", "y=max", "z=0", "z=max"):
            assert regs[name].kind is BoundaryKind.VANISHING_SECOND_DERIVATIVE

    def test_inflow_tests_by_substitution(self):
        # kappa_R=1, theta_R=0.6, sigma_R=0.5: both R ends degenerate
        regs = boundary_regimes(ModelParams(kappa_R=1.0, theta_R=0.6, sigma_R=0.5))
        assert regs["R=0"].kind is BoundaryKind.DEGENERATE_PDE       # 0.6 - 0.125 >= 0
        assert regs["R=1"].kind is BoundaryKind.DEGENERATE_PDE       # -0.4 + 0.125 <= 0
        # kappa_R=0.1, theta_R=0.5, sigma_R=0.9: diffusion wins at R=0
        regs = boundary_regimes(ModelParams(kappa_R=0.1, theta_R=0.5, sigma_R=0.9))
        assert regs["R=0"].kind is BoundaryKind.VANISHING_SECOND_DERIVATIVE

    def test_equality_counts_as_degenerate(self):
        # kappa*theta = sigma^2/2 exactly
        regs = boundary_regimes(ModelParams(kappa_R=0.5, theta_R=0.25,
                                            sigma_R=0.5))
        assert regs["R=0"].kind is BoundaryKind.DEGENERATE_PDE

    def test_scale_consistency(self):
        # multiplying (kappa_R, sigma_R^2) by the same constant keeps the
        # R=0 classification
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = rng.uniform(0.01, 2.0)
            th = rng.uniform(0.05, 0.95)
            s = rng.uniform(0.01, 1.0)
            c = rng.uniform(0.1, 10.0)
            a = boundary_regimes(ModelParams(kappa_R=k, theta_R=th, sigma_R=s))
            b = boundary_regimes(ModelParams(kappa_R=c * k, theta_R=th,
                                             sigma_R=s * np.sqrt(c)))
            assert a["R=0"].kind is b["R=0"].kind


class TestBetaStationary:
    def test_point_example(self):
        a, b = beta_stationary_params(ModelParams(kappa_R=0.5, theta_R=0.4,
                                                  sigma_R=0.2))
        assert a == pytest.approx(5.0)
        assert b == pytest.approx(7.5)

    def test_mean_identity_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k = rng.uniform(1e-3, 5.0)
            th = rng.uniform(1e-3, 1 - 1e-3)
            s = rng.uniform(1e-3, 2.0)
            a, b = beta_stationary_params(ModelParams(kappa_R=k, theta_R=th,
                                                      sigma_R=s))
            assert a > 0 and b > 0
            assert abs(a / (a + b) - th) < 1e-12

    def test_degenerate_recovery_error(self):
        with pytest.raises(DegenerateRecoveryError):
            beta_stationary_params(ModelParams())   # default sigma_R = 0
