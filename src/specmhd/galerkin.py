"""Semi-discrete system assembly: regularized density transport on the grid
and coefficient ODEs for velocity, temperature, and magnetic field.

Conventions fixed here and relied on by the integrator and diagnostics:

* momentum, tested against the divergence-free modes ``psi_j``::

      M(rho) da/dt = -(rho (u.grad)u, psi_j) - (S, D(psi_j))
                     + eps (grad rho . grad u, psi_j) + ((curl H) x H, psi_j)

  with ``D`` the unscaled symmetrization and ``(grad rho . grad u)_i =
  d_m rho d_m u_i``, the contraction that exactly offsets the kinetic-energy
  contribution of the density diffusion term;

* temperature, tested against the scalar modes ``omega_j`` (conservative,
  integrated-by-parts transport and flux)::

      N(rho, theta) db/dt = (rho Q(theta) u, grad omega_j) - (q, grad omega_j)
                            + (nu |curl H|^2 + S:D(u) - rho_t Q(theta), omega_j)

  where the ``rho_t Q`` coupling uses the same density rate that advances
  ``rho``; with the constant scalar mode present this yields an exact
  discrete heat balance: d/dt (rho Q, 1) = (S:D(u) + nu |curl H|^2, 1);

* induction, tested against curls of the modes::

      dc_j/dt = -nu |k_j|^2 c_j + (u x H, curl pi_j)

Each mass matrix is the spectral Gram matrix of its weight
(:meth:`DivFreeSpectralBasis.vector_gram` of rho,
:meth:`DivFreeSpectralBasis.scalar_gram` of ``rho c(theta)``); only
:mod:`specmhd.spectral` knows the mode tables behind them.

Quadratic and cubic products of basis-band fields are integrated exactly on
the base grid (the mode cutoff sits strictly inside the two-thirds rule);
non-polynomial factors (power-law stress, temperature powers, specific heat)
are evaluated on a 3/2-oversampled grid, leaving a controlled quadrature
error there and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from specmhd import constitutive as cst
from specmhd.errors import MassSolveError
from specmhd.spectral import DivFreeSpectralBasis


@dataclass
class SimState:
    """The four unknowns at one instant, each a plain array.

    ``rho`` is the density spectrum on the base grid (the x-half layout of
    :mod:`specmhd.spectral`), band-limited to the basis cutoff.  ``a``,
    ``b``, ``c`` are the velocity, temperature and magnetic coefficient
    vectors; their lengths are the truncation levels.
    """

    t: float
    rho: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    basis: DivFreeSpectralBasis

    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.rho, self.a, self.b, self.c

    def copy(self) -> "SimState":
        return SimState(self.t, *(x.copy() for x in self.parts()), self.basis)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(x)) for x in self.parts())

    def validate(self, params: cst.ConstitutiveParams) -> list[str]:
        """Return a list of violated state invariants (empty when valid):
        non-finite entries, or a grid density outside the bounds."""
        if not self.is_finite():
            return ["non-finite state entries"]
        rho_grid = self.basis.spectral_to_grid(self.rho)
        lo, hi = rho_grid.min(), rho_grid.max()
        if lo < params.density_min - 1e-12 or hi > params.density_max + 1e-12:
            return [
                f"density outside [{params.density_min}, {params.density_max}] "
                f"(range [{lo:.6g}, {hi:.6g}])"
            ]
        return []


@dataclass
class Rates:
    """One right-hand-side evaluation of the coupled system."""

    drho: np.ndarray  # spectral density rate, base grid
    da: np.ndarray
    db: np.ndarray
    dc: np.ndarray

    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.drho, self.da, self.db, self.dc


class _StateFields:
    """Grid realization of one state, computed lazily and cached.

    It is the single argument of every per-state computation: the
    right-hand sides, the mass matrices, the monitors and
    :func:`energy_report`, so whatever one of them realizes the others reuse.
    The time loop builds one per accepted state, shares it between the
    post-step monitors, the diagnostics report and the next step's first
    right-hand side, and drops it before the step's stage evaluations, which
    build their own.
    """

    def __init__(self, ops: "GalerkinOperators", state: SimState):
        self.ops = ops
        self.st = state
        self.basis = ops.basis
        self.n = ops.basis.grid_points
        self.m = ops.basis.oversample_grid()

    def _grad_grid(self, c):
        """Grid gradient ``out[..., m, :, :, :] = d_m c`` of a spectrum, one
        component transformed at a time."""
        g = c.shape[-1]
        out = np.empty(c.shape[:-3] + (3, g, g, g))
        for m in range(3):
            out[..., m, :, :, :] = self.basis.spectral_to_grid(self.basis.grad(c, m))
        return out

    # ---- base grid (exact for polynomial nonlinearities)

    @cached_property
    def c_u(self):
        return self.basis.synth_vector(self.st.a, self.n)

    @cached_property
    def c_H(self):
        return self.basis.synth_vector(self.st.c, self.n)

    @cached_property
    def u(self):
        return self.basis.spectral_to_grid(self.c_u)

    @cached_property
    def H(self):
        return self.basis.spectral_to_grid(self.c_H)

    @cached_property
    def grad_u(self):
        """Jacobian grid array with grad_u[i, m] = d_m u_i."""
        return self._grad_grid(self.c_u)

    @cached_property
    def curl_H(self):
        return self.basis.spectral_to_grid(self.basis.curl(self.c_H))

    @cached_property
    def rho(self):
        return self.basis.spectral_to_grid(self.st.rho)

    @cached_property
    def grad_rho(self):
        return self._grad_grid(self.st.rho)

    @cached_property
    def theta(self):
        return self.basis.scalar_grid(self.st.b, self.n)

    @cached_property
    def conv(self):
        """Convective term (u . grad) u on the base grid."""
        return np.einsum("mxyz,imxyz->ixyz", self.u, self.grad_u)

    @cached_property
    def density_rate(self):
        """Spectral rate -div(rho u) + eps lap(rho), dealiased, mean zero."""
        flux = self.rho[None] * self.u
        rate = -self.basis.div(self.basis.grid_to_spectral(flux)) * self.ops._mask_n
        if self.ops.eps_density:
            rate = rate - self.ops.eps_density * self.ops._k2_n * self.st.rho
        return rate

    # ---- oversampled grid (non-polynomial factors)

    def _last_use(self, spectrum: str, sibling: str):
        """A cached spectrum that feeds two grids, dropped from the cache once
        the other grid ``sibling`` has been derived from it."""
        c = getattr(self, spectrum)
        if sibling in self.__dict__:
            del self.__dict__[spectrum]
        return c

    @cached_property
    def c_u_m(self):
        return self.basis.synth_vector(self.st.a, self.m)

    @cached_property
    def c_theta_m(self):
        return self.basis.synth_scalar(self.st.b, self.m)

    @cached_property
    def u_m(self):
        return self.basis.spectral_to_grid(self._last_use("c_u_m", "strain_m"))

    @cached_property
    def strain_m(self):
        """Rate of strain grad u + (grad u)^T on the oversampled grid, in the
        symmetric-tensor layout of :mod:`specmhd.constitutive`."""
        c = self._last_use("c_u_m", "u_m")
        out = np.empty((6,) + (self.m,) * 3, dtype=float)
        for p, (i, j) in enumerate(cst.SYM_PAIRS):
            out[p] = self.basis.spectral_to_grid(self.basis.strain(c, i, j))
        return out

    @cached_property
    def rho_m(self):
        return self.basis.spectral_to_grid(self.basis.resample_spectrum(self.st.rho, self.m))

    @cached_property
    def theta_m(self):
        return self.basis.spectral_to_grid(self._last_use("c_theta_m", "grad_theta_m"))

    @cached_property
    def grad_theta_m(self):
        return self._grad_grid(self._last_use("c_theta_m", "theta_m"))

    @cached_property
    def curl_H_m(self):
        return self.basis.spectral_to_grid(self.basis.curl(self.basis.synth_vector(self.st.c, self.m)))

    @cached_property
    def clamp_count(self) -> int:
        return int(np.count_nonzero(self.theta_m < self.ops.params.temperature_floor))

    @cached_property
    def theta_floor_m(self):
        return np.maximum(self.theta_m, self.ops.params.temperature_floor)

    @cached_property
    def heat_m(self):
        """Thermal energy Q(max(theta, 0)) on the oversampled grid."""
        return cst.thermal_energy(self.ops.params, np.maximum(self.theta_m, 0.0))

    @cached_property
    def stress_m(self):
        return cst.stress_tensor(self.ops.params, self.rho_m, self.theta_m, self.strain_m)

    @cached_property
    def viscous_power_m(self):
        """Pointwise S : D on the oversampled grid."""
        return cst.contract(self.stress_m, self.strain_m)

    # ---- Galerkin right-hand sides read by both rates and energy_report

    @cached_property
    def momentum_rhs(self):
        return self.ops.momentum_rhs(self)

    @cached_property
    def induction_rhs(self):
        return self.ops.induction_rhs(self)


# Rows per block of the triangular substitutions in the mass solve.
_SOLVE_BLOCK = 64


def _substitute(tri: np.ndarray, rhs: np.ndarray, lower: bool) -> np.ndarray:
    """Solve ``tri x = rhs`` for a triangular ``tri``, ``_SOLVE_BLOCK`` rows
    at a time.

    Each block subtracts the rows already solved in one matvec and solves its
    diagonal block, so the cost is O(K^2) plus small factorizations, not one
    O(K^3) LU; with a single block it is ``np.linalg.solve(tri, rhs)``.
    """
    k = len(rhs)
    x = np.empty_like(rhs, dtype=float)
    starts = range(0, k, _SOLVE_BLOCK)
    for s in starts if lower else reversed(starts):
        e = min(s + _SOLVE_BLOCK, k)
        done = slice(0, s) if lower else slice(e, k)
        x[s:e] = np.linalg.solve(tri[s:e, s:e], rhs[s:e] - tri[s:e, done] @ x[done])
    return x


class GalerkinOperators:
    """Precomputed mode machinery plus right-hand-side and matrix assembly.

    Pure given (params, state): safe to share across threads for independent
    states.  Every per-state method takes the state's :class:`_StateFields`
    from :meth:`fields`.  A mass matrix is the spectral Gram matrix of its
    weight, the density or ``rho c(theta)``, assembled by the basis per
    wavevector pair and Cholesky-factorized on every call.  At 800 modes that
    is 69% of a random_band run's time (``galerkin.mass_share`` 0.69 in a
    traced run of the ``mass_k800`` benchmark workload, up from 0.61 once
    the transforms became real FFTs).
    """

    def __init__(self, params: cst.ConstitutiveParams, basis: DivFreeSpectralBasis, eps_density: float = 0.0):
        self.params = params
        self.basis = basis
        self.eps_density = float(eps_density)
        kx, ky, kz = basis.wavenumbers(basis.grid_points)
        self._k2_n = kx * kx + ky * ky + kz * kz
        self._mask_n = basis.dealias_mask(basis.grid_points)
        self.magnetic_stiffness_diag = params.magnetic_diffusivity * basis.vec_k2

    # ------------------------------------------------------------ rhs pieces

    def fields(self, state: SimState) -> _StateFields:
        return _StateFields(self, state)

    def momentum_rhs(self, f: _StateFields) -> np.ndarray:
        k_u = len(f.st.a)
        integrand = -f.rho[None] * f.conv + np.cross(f.curl_H, f.H, axisa=0, axisb=0, axisc=0)
        if self.eps_density:
            integrand = integrand + self.eps_density * np.einsum(
                "mxyz,imxyz->ixyz", f.grad_rho, f.grad_u
            )
        entries = self.basis.gather_vector(self.basis.grid_to_spectral(integrand), k_u)
        return entries - self.basis.gather_strain(self.basis.grid_to_spectral(f.stress_m), k_u)

    def thermal_rhs(self, f: _StateFields) -> np.ndarray:
        p = self.params
        k_b = len(f.st.b)
        flux = cst.heat_flux(p, f.rho_m, f.theta_floor_m, f.grad_theta_m)
        transport = f.rho_m[None] * f.heat_m[None] * f.u_m - flux
        source = (
            p.magnetic_diffusivity * np.sum(f.curl_H_m**2, axis=0) + f.viscous_power_m
        )
        rho_t_m = self.basis.spectral_to_grid(self.basis.resample_spectrum(f.density_rate, f.m))
        source = source - rho_t_m * f.heat_m
        entries = self.basis.gather_scalar_grad(self.basis.grid_to_spectral(transport), k_b)
        return entries + self.basis.gather_scalar(self.basis.grid_to_spectral(source), k_b)

    def induction_rhs(self, f: _StateFields) -> np.ndarray:
        c = f.st.c
        entries = -self.magnetic_stiffness_diag[: len(c)] * c
        w = np.cross(f.u, f.H, axisa=0, axisb=0, axisc=0)
        return entries + self.basis.gather_vector_curl(self.basis.grid_to_spectral(w), len(c))

    def rates(self, f: _StateFields) -> Rates:
        da = self.solve_mass(self.velocity_mass(f), f.momentum_rhs)
        db = self.solve_mass(self.thermal_mass(f), self.thermal_rhs(f))
        return Rates(f.density_rate, da, db, f.induction_rhs)

    def total_heat(self, f: _StateFields) -> float:
        """Quadrature of rho Q(theta), consistent with the thermal assembly."""
        w_m = self.basis.volume / f.m**3
        return w_m * float(np.sum(f.rho_m * f.heat_m))

    def solenoidal_residual(self, f: _StateFields) -> tuple[float, float]:
        """Largest spectral divergence amplitudes of velocity and magnetic field."""
        return tuple(float(np.abs(self.basis.div(c)).max()) for c in (f.c_u, f.c_H))

    # -------------------------------------------------------- mass matrices

    def velocity_mass(self, f: _StateFields) -> np.ndarray:
        """(rho psi_i, psi_j): the spectral Gram matrix of the density."""
        return self.basis.vector_gram(f.st.rho, len(f.st.a))

    def thermal_mass(self, f: _StateFields) -> np.ndarray:
        """(rho c(theta) omega_i, omega_j): the spectral Gram matrix of
        ``rho c(theta)`` on the oversampled grid."""
        p = self.params
        b = self.basis
        if p.specific_heat_form == "constant":
            cbar = 0.5 * (p.specific_heat_min + p.specific_heat_max)
            c_w = cbar * b.resample_spectrum(f.st.rho, f.m)
        else:
            c_w = b.grid_to_spectral(f.rho_m * cst.specific_heat(p, np.maximum(f.theta_m, 0.0)))
        return b.scalar_gram(c_w, len(f.st.b))

    @staticmethod
    def solve_mass(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        try:
            lo = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError as exc:
            raise MassSolveError("mass matrix not positive definite") from exc
        # cholesky returns a NaN factor for a NaN entry instead of raising; in a
        # symmetric matrix the NaN reaches the factor's diagonal
        if not np.all(np.isfinite(np.diagonal(lo))):
            raise MassSolveError("mass matrix not finite")
        return _substitute(lo.T, _substitute(lo, rhs, lower=True), lower=False)


# ----------------------------------------------------------- module-level API

# The negative temperature power lambda of the a priori bound monitors
# ``sup_theta_negpow`` and ``theta_sobolev_sq``.
THETA_NEG_POWER = 0.5


def energy_report(f: _StateFields) -> dict:
    """Instantaneous energies, dissipations, monitors, and identity terms.

    All quadratures here are consistent with the right-hand-side assembly, so
    the reported identity defect measures only rounding at a single state and
    only time discretization along a trajectory.
    """
    ops, state = f.ops, f.st
    params, eps_density = ops.params, ops.eps_density
    b = state.basis
    n3 = b.grid_points**3
    w_n = b.volume / n3
    w_m = b.volume / f.m**3

    u2 = np.sum(f.u**2, axis=0)
    e_kin = 0.5 * w_n * float(np.sum(f.rho * u2))
    e_mag = 0.5 * float(np.sum(state.c**2))
    d_visc = w_m * float(np.sum(f.viscous_power_m))
    k2_c = b.vec_k2[: len(state.c)]
    d_mag = params.magnetic_diffusivity * float(np.sum(state.c**2 * k2_c))

    rho_t = b.spectral_to_grid(f.density_rate)
    ddt_rho_kin = w_n * float(np.sum(rho_t * u2))
    adot_term = float(state.a @ f.momentum_rhs)
    cdot_term = float(state.c @ f.induction_rhs)
    identity_lhs = 0.5 * ddt_rho_kin + adot_term + cdot_term
    identity_rhs = -d_visc - d_mag
    identity_scale = abs(e_kin) + abs(e_mag) + abs(d_visc) + abs(d_mag) + 1e-30

    k2_a = b.vec_k2[: len(state.a)]
    grad_u_norm = float(np.sqrt(np.sum(state.a**2 * k2_a)))
    frob2_m = cst.frobenius_sq(f.strain_m)
    strain_norm = float(np.sqrt(w_m * np.sum(frob2_m)))
    h_norm = float(np.sqrt(np.sum(state.c**2)))
    grad_h_norm = float(np.sqrt(np.sum(state.c**2 * k2_c)))
    div_u_max, div_h_max = ops.solenoidal_residual(f)

    power = 0.5 * (params.power_law_exponent - 2.0)
    d_visc_floor = params.viscosity_min * w_m * float(
        np.sum((params.stress_smoothing + frob2_m) ** power * frob2_m)
    )

    theta_min = float(f.theta.min())
    g = f.theta_floor_m ** (0.5 * (params.conductivity_exponent - THETA_NEG_POWER + 1.0))
    c_g = b.grid_to_spectral(g)
    grad_g2 = sum(b.sum_sq(b.grad(c_g, m)) for m in range(3))

    return {
        "t": state.t,
        "E_kin": e_kin,
        "E_mag": e_mag,
        "D_visc": d_visc,
        "D_visc_floor": d_visc_floor,
        "D_mag": d_mag,
        "heat_total": ops.total_heat(f),
        "rho_min": float(f.rho.min()),
        "rho_max": float(f.rho.max()),
        "theta_min": theta_min,
        "clamp_count": f.clamp_count,
        "div_u_max": div_u_max,
        "div_H_max": div_h_max,
        "korn_ratio": grad_u_norm / strain_norm if strain_norm > 0 else 0.0,
        "poincare_ratio": h_norm / grad_h_norm if grad_h_norm > 0 else 0.0,
        "grad_u_norm": grad_u_norm,
        "identity_lhs": identity_lhs,
        "identity_rhs": identity_rhs,
        "identity_defect": abs(identity_lhs - identity_rhs),
        "identity_scale": identity_scale,
        "ddt_rho_kin": ddt_rho_kin,
        "adot_term": adot_term,
        "conv_term": w_n * float(np.sum(f.rho * np.einsum("ixyz,ixyz->xyz", f.conv, f.u))),
        "eps_lap_term": (
            -eps_density * w_n * float(np.sum(b.spectral_to_grid(ops._k2_n * state.rho) * u2))
            if eps_density
            else 0.0
        ),
        "strain_lr_r": w_m * float(np.sum(frob2_m ** (params.power_law_exponent / 2.0))),
        "sup_theta_negpow": float(theta_min ** (-THETA_NEG_POWER)) if theta_min > 0 else np.inf,
        "rho_theta_l1": w_n * float(np.sum(np.abs(f.rho * f.theta))),
        "theta_sobolev_sq": w_m * float(np.sum(g * g)) + b.volume * grad_g2,
    }
