"""Constitutive laws: power-law viscous stress, temperature-power heat flux,
thermal energy, and parameter admissibility checks.

Every pointwise law speaks one layout, components first: a vector is a
``(3, ...)`` array and a symmetric tensor is a ``(6, ...)`` array of its
independent components in ``SYM_PAIRS`` order, so the full contraction
``S : D`` is the ``SYM_WEIGHTS``-weighted sum over the leading axis
(:func:`contract`).  The rate of strain is the unscaled symmetrization
``grad(u) + grad(u)^T``, so its Frobenius norm squared is twice the
enstrophy-type quantity for solenoidal fields.  All coefficient functions
(viscosity, conductivity, specific heat) are closed-form families that stay
inside their configured bounds for every admissible input, which is what
makes the coercivity / growth / monotonicity inequalities of the stress and
the two heat-flux bounds verifiable by random sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (i, j) index pairs of the independent components of a symmetric tensor,
# and how often each occurs among the nine entries of the full tensor.
SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
SYM_WEIGHTS = (1, 1, 1, 2, 2, 2)

VISCOSITY_FORMS = ("constant", "density_temperature")
CONDUCTIVITY_FORMS = ("constant", "density_affine")
SPECIFIC_HEAT_FORMS = ("constant", "saturating")


@dataclass(frozen=True)
class ConstitutiveParams:
    """Physical and model constants with their admissibility ranges.

    ``stress_smoothing`` is the additive regularization inside
    ``(smoothing + |D|^2)^((r-2)/2)``; a small positive default keeps the
    stress differentiable at ``D = 0`` for implicit solvers, while ``0`` is
    supported for bound checks.
    """

    power_law_exponent: float = 3.0
    conductivity_exponent: float = 0.0
    stress_smoothing: float = 1e-8
    magnetic_diffusivity: float = 1.0
    viscosity_min: float = 1.0
    viscosity_max: float = 1.0
    conductivity_min: float = 1.0
    conductivity_max: float = 1.0
    specific_heat_min: float = 1.0
    specific_heat_max: float = 1.0
    density_min: float = 0.5
    density_max: float = 2.0
    temperature_floor: float = 0.1
    viscosity_form: str = "constant"
    conductivity_form: str = "constant"
    specific_heat_form: str = "constant"


def validate_params(p: ConstitutiveParams) -> list[str]:
    """Check every admissibility condition; return all violations by name
    (empty when admissible)."""
    bad: list[str] = []
    if not p.power_law_exponent > 2.0:
        bad.append(f"power_law_exponent must exceed 2 (got {p.power_law_exponent})")
    if not p.conductivity_exponent > -2.0 / 3.0:
        bad.append(
            f"conductivity_exponent must exceed -2/3 (got {p.conductivity_exponent})"
        )
    if not 0.0 <= p.stress_smoothing <= 1.0:
        bad.append(f"stress_smoothing must lie in [0, 1] (got {p.stress_smoothing})")
    if not p.magnetic_diffusivity > 0.0:
        bad.append(f"magnetic_diffusivity must be positive (got {p.magnetic_diffusivity})")
    for lo_name, hi_name in (
        ("viscosity_min", "viscosity_max"),
        ("conductivity_min", "conductivity_max"),
        ("specific_heat_min", "specific_heat_max"),
        ("density_min", "density_max"),
    ):
        lo = getattr(p, lo_name)
        hi = getattr(p, hi_name)
        if not 0.0 < lo <= hi < np.inf:
            bad.append(f"need 0 < {lo_name} <= {hi_name} < inf (got {lo}, {hi})")
    if not p.temperature_floor > 0.0:
        bad.append(f"temperature_floor must be positive (got {p.temperature_floor})")
    if p.viscosity_form not in VISCOSITY_FORMS:
        bad.append(f"unknown viscosity_form {p.viscosity_form!r}; options {VISCOSITY_FORMS}")
    if p.conductivity_form not in CONDUCTIVITY_FORMS:
        bad.append(
            f"unknown conductivity_form {p.conductivity_form!r}; options {CONDUCTIVITY_FORMS}"
        )
    if p.specific_heat_form not in SPECIFIC_HEAT_FORMS:
        bad.append(
            f"unknown specific_heat_form {p.specific_heat_form!r}; options {SPECIFIC_HEAT_FORMS}"
        )
    return bad


def contract(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Full contraction ``S : D`` of two symmetric tensors in component layout."""
    return np.einsum("p...,p...,p->...", s, d, SYM_WEIGHTS)


def frobenius_sq(tensor: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm ``|T|^2 = T : T`` of a symmetric tensor."""
    return contract(tensor, tensor)


def viscosity(p: ConstitutiveParams, rho, theta) -> np.ndarray:
    """Bounded viscosity coefficient; stays in [viscosity_min, viscosity_max]."""
    lo, hi = p.viscosity_min, p.viscosity_max
    if p.viscosity_form == "constant":
        return np.full(np.broadcast(rho, theta).shape or (), 0.5 * (lo + hi))
    # density_temperature: bilinear blend of the normalized density excursion
    # and a saturating temperature factor, both confined to [0, 1].
    span = p.density_max - p.density_min
    frac_rho = (np.asarray(rho, dtype=float) - p.density_min) / span if span > 0 else 0.0
    frac_rho = np.clip(frac_rho, 0.0, 1.0)
    th = np.maximum(np.asarray(theta, dtype=float), 0.0)
    frac_th = th / (1.0 + th)
    return lo + (hi - lo) * frac_rho * frac_th


def conductivity(p: ConstitutiveParams, rho) -> np.ndarray:
    """Bounded heat-conductivity prefactor as a function of density."""
    lo, hi = p.conductivity_min, p.conductivity_max
    if p.conductivity_form == "constant":
        return np.full(np.shape(rho) or (), 0.5 * (lo + hi))
    span = p.density_max - p.density_min
    frac = (np.asarray(rho, dtype=float) - p.density_min) / span if span > 0 else 0.0
    return lo + (hi - lo) * np.clip(frac, 0.0, 1.0)


def specific_heat(p: ConstitutiveParams, theta) -> np.ndarray:
    """Specific heat c(theta), confined to its configured bounds."""
    lo, hi = p.specific_heat_min, p.specific_heat_max
    if p.specific_heat_form == "constant":
        return np.full(np.shape(theta) or (), 0.5 * (lo + hi))
    th = np.maximum(np.asarray(theta, dtype=float), 0.0)
    return lo + (hi - lo) * th / (1.0 + th)


def thermal_energy(p: ConstitutiveParams, theta) -> np.ndarray:
    """Antiderivative of the specific heat with value 0 at temperature 0.

    For the saturating family the closed form is
    ``lo*theta + (hi-lo)*(theta - log1p(theta))``.
    """
    lo, hi = p.specific_heat_min, p.specific_heat_max
    th = np.asarray(theta, dtype=float)
    if p.specific_heat_form == "constant":
        return 0.5 * (lo + hi) * th
    return lo * th + (hi - lo) * (th - np.log1p(th))


def stress_tensor(p: ConstitutiveParams, rho, theta, strain: np.ndarray) -> np.ndarray:
    """Power-law viscous stress ``mu(rho, theta) (eps + |D|^2)^((r-2)/2) D``.

    The temperature is truncated to ``max(theta, 0)`` before evaluating the
    viscosity, matching how the truncated stress enters the discrete system.
    ``strain`` and the returned stress are symmetric tensors of shape
    ``(6, ...)``; ``rho`` and ``theta`` broadcast against ``strain[0]``.
    """
    strain = np.asarray(strain, dtype=float)
    if not np.all(np.isfinite(strain)):
        raise ValueError("non-finite tensor")
    theta_max = np.maximum(np.asarray(theta, dtype=float), 0.0)
    mu = viscosity(p, rho, theta_max)
    power = 0.5 * (p.power_law_exponent - 2.0)
    factor = mu * (p.stress_smoothing + frobenius_sq(strain)) ** power
    return factor * strain


def heat_flux(p: ConstitutiveParams, rho, theta, grad_theta: np.ndarray) -> np.ndarray:
    """Heat flux ``kappa(rho) theta^alpha grad_theta`` for a ``(3, ...)``
    gradient; ``rho`` and ``theta`` broadcast against ``grad_theta[0]``.

    Callers must enforce the temperature floor first: a zero temperature with
    a negative conductivity exponent makes the flux singular.
    """
    theta = np.asarray(theta, dtype=float)
    if p.conductivity_exponent < 0 and np.any(theta <= 0.0):
        raise ValueError(
            "singular flux: temperature at or below zero with negative "
            "conductivity exponent; enforce the temperature floor first"
        )
    kap = conductivity(p, rho)
    scale = kap * theta**p.conductivity_exponent
    return scale * np.asarray(grad_theta, dtype=float)


def sample_admissible(
    p: ConstitutiveParams, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw random admissible (rho, theta, strain) triples for property
    checks; the strains are the symmetric parts of standard normal 3x3
    matrices, shape ``(6, n)``."""
    rho = rng.uniform(p.density_min, p.density_max, size=n)
    theta = rng.uniform(p.temperature_floor, p.temperature_floor + 10.0, size=n)
    raw = rng.normal(size=(n, 3, 3))
    return rho, theta, np.stack([0.5 * (raw[:, i, j] + raw[:, j, i]) for i, j in SYM_PAIRS])
