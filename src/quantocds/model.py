"""Model parameters and analytic relations of the four-factor credit model.

The four stochastic drivers are the recovery rate R (mean-reverting
Jacobi-type diffusion with a Beta stationary law), the foreign short
rate r_hat (CIR), the log-hazard Y (Ornstein-Uhlenbeck, intensity
lambda = exp(Y)) and the FX rate Z (log-normal, domestic per foreign,
with an optional proportional jump at default).  The domestic short
rate is a deterministic constant.

Everything here is plain parameter bookkeeping: validation of the
admissible domain, classification of the degenerate PDE boundaries
(Feller-type inflow tests) and the stationary Beta shape parameters.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from enum import Enum

import numpy as np

__all__ = [
    "ModelParams",
    "ParameterError",
    "DegenerateRecoveryError",
    "BoundaryKind",
    "BoundaryRegime",
    "validate_params",
    "boundary_regimes",
    "beta_stationary_params",
    "CORRELATION_ORDER",
]

# Index convention of the correlation matrix rows/columns.
CORRELATION_ORDER = ("R", "rhat", "z", "y")


class ParameterError(ValueError):
    """A model parameter violates its admissible domain."""


class DegenerateRecoveryError(ParameterError):
    """Stationary recovery distribution undefined (sigma_R or kappa_R is 0)."""


@dataclass(frozen=True)
class ModelParams:
    """All SDE coefficients of the model, annualized; time in years.

    ``rho`` is the 4x4 instantaneous correlation matrix of the driving
    Brownian motions in the order (R, rhat, z, y).  ``gamma_z`` and
    ``gamma_rhat`` are the proportional jump-at-default amplitudes of
    the FX rate and the foreign rate.  The FX drift is not stored: it
    is pinned to r_dom - rhat by absence of arbitrage.  A set is
    checked by ``validate_params`` whenever it is built, unpickling
    included, and ``rho`` is a read-only float64 copy.  Two parameter
    sets compare and hash by value, so one can key a cache.
    """

    R0: float = 0.45
    kappa_R: float = 0.0
    theta_R: float = 0.1
    sigma_R: float = 0.0

    rhat0: float = 0.03
    kappa_rhat: float = 0.08
    theta_rhat: float = 0.1
    sigma_rhat: float = 0.08

    y0: float = -4.089
    kappa_y: float = 1e-4
    theta_y: float = -210.0
    sigma_y: float = 0.4

    z0: float = 1.15
    sigma_z: float = 0.1

    r_dom: float = 0.02
    gamma_z: float = 0.0
    gamma_rhat: float = 0.0

    rho: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=np.float64)
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        validate_params(self)

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def lambda0(self) -> float:
        """Initial hazard rate exp(y0)."""
        return float(np.exp(self.y0))

    @property
    def x0(self) -> np.ndarray:
        """Market state (R0, rhat0, y0, z0) in grid-axis order."""
        return np.array([self.R0, self.rhat0, self.y0, self.z0])

    def with_(self, **kwargs) -> "ModelParams":
        """Copy with fields replaced, checked as it is built."""
        return replace(self, **kwargs)

    def _value_key(self) -> tuple:
        return (*(getattr(self, f.name) for f in fields(self) if f.name != "rho"),
                self.rho.shape, self.rho.tobytes())

    def __eq__(self, other) -> bool:
        """Equal when every scalar field is equal and ``rho`` holds the
        same float64 values."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self) -> int:
        return hash(self._value_key())


def validate_params(p: ModelParams) -> ModelParams:
    """Check every admissibility condition; return ``p`` unchanged if valid.

    Raises ParameterError naming the first violated condition.
    """
    def req(cond: bool, msg: str) -> None:
        if not cond:
            raise ParameterError(msg)

    for f in fields(p):
        if f.name != "rho":
            value = getattr(p, f.name)
            require_real(f.name, value, ParameterError)
            req(bool(np.isfinite(value)), f"{f.name} not finite")
    for name in ("sigma_R", "sigma_rhat", "sigma_y", "sigma_z"):
        req(getattr(p, name) >= 0.0, f"{name} negative")
    req(p.kappa_R >= 0.0, "kappa_R negative")
    req(p.kappa_rhat >= 0.0, "kappa_rhat negative")
    req(0.0 <= p.R0 <= 1.0, "R0 outside [0, 1]")
    req(0.0 <= p.theta_R <= 1.0, "theta_R outside [0, 1]")
    req(p.rhat0 >= 0.0, "rhat0 negative")
    req(p.z0 > 0.0, "z0 not positive")
    req(p.gamma_z >= -1.0, "gamma_z below -1")
    req(p.gamma_rhat >= -1.0, "gamma_rhat below -1")

    rho = np.asarray(p.rho, dtype=float)
    req(rho.shape == (4, 4), "rho not 4x4")
    req(bool(np.all(np.isfinite(rho))), "rho not finite")
    req(np.allclose(rho, rho.T, atol=1e-12), "rho not symmetric")
    req(np.allclose(np.diag(rho), 1.0, atol=1e-12), "rho diagonal not unit")
    req(bool(np.all(np.abs(rho) <= 1.0 + 1e-12)), "rho entry outside [-1, 1]")
    # PSD is needed for the Monte Carlo factorization; small negative
    # eigenvalues from rounding are tolerated.
    eigmin = float(np.linalg.eigvalsh(rho).min())
    req(eigmin >= -1e-10, f"rho not PSD (min eigenvalue {eigmin:.3e})")
    return p


def require_integers(obj, names) -> None:
    """Raise ValueError unless each named attribute of ``obj`` is a
    Python or numpy integer; a bool is not one."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a real number;
    a bool is not one, nor is a numeric string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")


class BoundaryKind(Enum):
    DEGENERATE_PDE = "degenerate-pde"
    VANISHING_SECOND_DERIVATIVE = "vanishing-second-derivative"


@dataclass(frozen=True)
class BoundaryRegime:
    """Treatment of one boundary of the computational domain.

    ``boundary`` is one of "R=0", "R=1", "rhat=0", "rhat=max", "y=min",
    "y=max", "z=0", "z=max".  Degenerate-pde means no boundary condition
    is imposed: the PDE row itself, with boundary-evaluated coefficients
    and one-sided stencils, is used.  The alternative drops the
    second derivative normal to the boundary.
    """

    boundary: str
    kind: BoundaryKind


def boundary_regimes(p: ModelParams) -> dict[str, BoundaryRegime]:
    """Classify all eight boundaries from the inflow (Feller-type) tests.

    At R=0 the convection-vs-diffusion test reads kappa_R*theta_R -
    sigma_R^2/2 >= 0; at R=1 the inflow flux is oriented the other way,
    so the test is kappa_R*(theta_R - 1) + sigma_R^2/2 <= 0; at rhat=0
    the CIR analogue applies.  Every far (truncation) boundary gets the
    vanishing-second-derivative treatment.
    """
    deg = BoundaryKind.DEGENERATE_PDE
    van = BoundaryKind.VANISHING_SECOND_DERIVATIVE
    out: dict[str, BoundaryRegime] = {}
    out["R=0"] = BoundaryRegime(
        "R=0", deg if p.kappa_R * p.theta_R - 0.5 * p.sigma_R**2 >= 0.0 else van)
    out["R=1"] = BoundaryRegime(
        "R=1", deg if p.kappa_R * (p.theta_R - 1.0) + 0.5 * p.sigma_R**2 <= 0.0 else van)
    out["rhat=0"] = BoundaryRegime(
        "rhat=0", deg if p.kappa_rhat * p.theta_rhat - 0.5 * p.sigma_rhat**2 >= 0.0 else van)
    for name in ("rhat=max", "y=min", "y=max", "z=0", "z=max"):
        out[name] = BoundaryRegime(name, van)
    return out


def beta_stationary_params(p: ModelParams) -> tuple[float, float]:
    """Shape parameters (alpha, beta) of the stationary Beta law of R.

    alpha = kappa_R*theta_R/sigma_R^2, beta = kappa_R*(1-theta_R)/sigma_R^2,
    so the stationary mean alpha/(alpha+beta) equals theta_R.
    """
    if p.sigma_R == 0.0 or p.kappa_R == 0.0:
        raise DegenerateRecoveryError(
            "stationary recovery density undefined: kappa_R and sigma_R "
            "must be positive (recovery is effectively constant)")
    if not 0.0 < p.theta_R < 1.0:
        raise ParameterError("theta_R must lie strictly inside (0, 1)")
    alpha = p.kappa_R * p.theta_R / p.sigma_R**2
    beta = p.kappa_R * (1.0 - p.theta_R) / p.sigma_R**2
    return alpha, beta
