"""specmhd: divergence-free spectral Galerkin solver for variable-density,
heat-conducting, power-law incompressible MHD on a periodic box."""

from specmhd.constitutive import ConstitutiveParams, validate_params
from specmhd.spectral import DivFreeSpectralBasis, build_basis
from specmhd.galerkin import GalerkinOperators, SimState
from specmhd.integrator import StepConfig, TrajectorySummary, integrate, step

__all__ = [
    "ConstitutiveParams",
    "validate_params",
    "DivFreeSpectralBasis",
    "build_basis",
    "GalerkinOperators",
    "SimState",
    "StepConfig",
    "TrajectorySummary",
    "integrate",
    "step",
]

__version__ = "0.1.0"
