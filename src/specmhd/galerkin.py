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
from specmhd.spectral import DivFreeSpectralBasis, Field

# Flipped only by the verification suite to prove the energy-identity check
# actually detects a miswired Lorentz force.
_LORENTZ_SIGN = 1.0


@dataclass
class SimState:
    """Density field plus coefficient vectors at one instant.

    ``rho`` is a scalar Field in spectral representation on the base grid,
    band-limited to the basis cutoff.  Lengths of ``a``, ``b``, ``c`` are the
    velocity, temperature, and magnetic truncation levels.
    """

    t: float
    rho: Field
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    basis: DivFreeSpectralBasis

    def copy(self) -> "SimState":
        return SimState(self.t, self.rho.copy(), self.a.copy(), self.b.copy(), self.c.copy(), self.basis)

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.a))
            and np.all(np.isfinite(self.b))
            and np.all(np.isfinite(self.c))
            and np.all(np.isfinite(self.rho.data))
        )

    def validate(self, params: cst.ConstitutiveParams, tol: float = 1e-10) -> list[str]:
        """Return a list of violated state invariants (empty when valid)."""
        problems = []
        if not self.is_finite():
            problems.append("non-finite state entries")
            return problems
        rho_grid = self.rho.to_grid().data
        if rho_grid.min() < params.density_min - tol or rho_grid.max() > params.density_max + tol:
            problems.append(
                f"density outside [{params.density_min}, {params.density_max}] "
                f"(range [{rho_grid.min():.3e}, {rho_grid.max():.3e}])"
            )
        for name, vec, avail in (
            ("velocity", self.a, self.basis.n_vector_modes),
            ("temperature", self.b, self.basis.n_scalar_modes),
            ("magnetic", self.c, self.basis.n_vector_modes),
        ):
            if len(vec) > avail:
                problems.append(f"{name} truncation {len(vec)} exceeds available modes {avail}")
        return problems


@dataclass
class Rates:
    """One right-hand-side evaluation of the coupled system."""

    drho: np.ndarray  # spectral density rate, base grid
    da: np.ndarray
    db: np.ndarray
    dc: np.ndarray
    clamp_count: int


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
        out = np.empty(c.shape[:-3] + (3,) + c.shape[-3:])
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
        return self.basis.spectral_to_grid(self.st.rho.data)

    @cached_property
    def grad_rho(self):
        return self._grad_grid(self.st.rho.data)

    @cached_property
    def theta(self):
        return self.basis.scalar_grid(self.st.b, self.n)

    @cached_property
    def density_rate(self):
        """Spectral rate -div(rho u) + eps lap(rho), dealiased, mean zero."""
        flux = self.rho[None] * self.u
        rate = -self.basis.div(self.basis.grid_to_spectral(flux)) * self.ops._mask_n
        if self.ops.eps_density:
            rate = rate - self.ops.eps_density * self.ops._k2_n * self.st.rho.data
        return rate

    # ---- oversampled grid (non-polynomial factors)

    @cached_property
    def u_m(self):
        return self.basis.spectral_to_grid(self.basis.synth_vector(self.st.a, self.m))

    @cached_property
    def strain_m(self):
        """Rate of strain grad u + (grad u)^T on the oversampled grid."""
        c = self.basis.synth_vector(self.st.a, self.m)
        out = np.empty((3, 3) + c.shape[1:], dtype=float)
        for i in range(3):
            for j in range(i, 3):
                out[i, j] = out[j, i] = self.basis.spectral_to_grid(self.basis.strain(c, i, j))
        return out

    @cached_property
    def rho_m(self):
        return self.basis.spectral_to_grid(self.basis.resample_spectrum(self.st.rho.data, self.m))

    @cached_property
    def theta_m(self):
        return self.basis.scalar_grid(self.st.b, self.m)

    @cached_property
    def grad_theta_m(self):
        return self._grad_grid(self.basis.synth_scalar(self.st.b, self.m))

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
    def stress_m(self):
        p = self.ops.params
        return cst.stress_tensor(
            p, self.rho_m, np.maximum(self.theta_m, 0.0), np.moveaxis(self.strain_m, (0, 1), (-2, -1))
        )

    @cached_property
    def stress_tensor_axes_first(self):
        return np.moveaxis(self.stress_m, (-2, -1), (0, 1))

    @cached_property
    def viscous_power_m(self):
        """Pointwise S : D on the oversampled grid."""
        return np.sum(self.stress_tensor_axes_first * self.strain_m, axis=(0, 1))

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
    from :meth:`fields`.  The dense mass matrices are assembled per
    wavevector pair and Cholesky-factorized on every call.  At 800 modes that
    is still 59% of a random_band run's time, split about evenly between
    assembly and solve (``galerkin.mass_share`` 0.59-0.60 in traced runs of
    the ``mass_k800`` benchmark workload).
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
        conv = np.einsum("mxyz,imxyz->ixyz", f.u, f.grad_u)
        integrand = -f.rho[None] * conv + _LORENTZ_SIGN * np.cross(
            f.curl_H, f.H, axisa=0, axisb=0, axisc=0
        )
        if self.eps_density:
            integrand = integrand + self.eps_density * np.einsum(
                "mxyz,imxyz->ixyz", f.grad_rho, f.grad_u
            )
        entries = self.basis.gather_vector(self.basis.grid_to_spectral(integrand), k_u)
        c_s = self.basis.grid_to_spectral(f.stress_tensor_axes_first)
        return entries - self.basis.gather_strain(c_s, k_u)

    def thermal_rhs(self, f: _StateFields, density_coupling: bool = True) -> np.ndarray:
        p = self.params
        k_b = len(f.st.b)
        heat = cst.thermal_energy(p, np.maximum(f.theta_m, 0.0))
        flux = cst.heat_flux(p, f.rho_m, f.theta_floor_m, np.moveaxis(f.grad_theta_m, 0, -1))
        transport = f.rho_m[None] * heat[None] * f.u_m - np.moveaxis(flux, -1, 0)
        source = (
            p.magnetic_diffusivity * np.sum(f.curl_H_m**2, axis=0) + f.viscous_power_m
        )
        if density_coupling:
            rho_t_m = self.basis.spectral_to_grid(
                self.basis.resample_spectrum(f.density_rate, f.m)
            )
            source = source - rho_t_m * heat
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
        return Rates(f.density_rate, da, db, f.induction_rhs, f.clamp_count)

    def total_heat(self, f: _StateFields) -> float:
        """Quadrature of rho Q(theta), consistent with the thermal assembly."""
        w_m = self.basis.volume / f.m**3
        q = cst.thermal_energy(self.params, np.maximum(f.theta_m, 0.0))
        return w_m * float(np.sum(f.rho_m * q))

    def solenoidal_residual(self, f: _StateFields) -> tuple[float, float]:
        """Largest spectral divergence amplitudes of velocity and magnetic field."""
        return tuple(float(np.abs(self.basis.div(c)).max()) for c in (f.c_u, f.c_H))

    # -------------------------------------------------------- mass matrices

    def _phase_blocks(self, c_w, group_n):
        """Entries (w mode_i, mode_j) on the distinct wavevector pairs.

        Products of two real trig modes reduce to weight amplitudes at the
        difference and sum wavevectors, so the four phase combinations of one
        pair of wavevectors share two lookups.  ``out[g, p, h, q]`` is the
        entry for wavevectors ``group_n[g]``, ``group_n[h]`` and phases ``p``,
        ``q`` (0 cos, 1 sin), before any polarization factor.
        """
        g = len(group_n)
        # (3, g, g) component planes, passed as a (g*g, 3) view: each component
        # stays contiguous for the index arithmetic
        n_i, n_j = group_n.T[:, :, None], group_n.T[:, None, :]
        cd = self.basis.gather_amplitudes(c_w, (n_i - n_j).reshape(3, -1).T).reshape(g, g)
        cs = self.basis.gather_amplitudes(c_w, (n_i + n_j).reshape(3, -1).T).reshape(g, g)
        out = np.empty((g, 2, g, 2))
        out[:, 0, :, 0] = cd.real + cs.real
        out[:, 1, :, 1] = cd.real - cs.real
        out[:, 1, :, 0] = -cd.imag - cs.imag
        out[:, 0, :, 1] = cd.imag - cs.imag
        return out

    def velocity_mass(self, f: _StateFields) -> np.ndarray:
        """Density-weighted Gram matrix (rho psi_i, psi_j); exact quadrature."""
        k_u = len(f.st.a)
        b = self.basis
        # mode 4g + 2 pol + phase has wavevector g: expand over both polarizations
        g = -(-k_u // 4)
        blocks = self._phase_blocks(f.st.rho.data, b.vec_n[: 4 * g : 4])
        mat = np.broadcast_to(blocks[:, None, :, :, None, :], (g, 2, 2, g, 2, 2))
        mat = mat.reshape(4 * g, 4 * g)[:k_u, :k_u]  # a copy: writable
        mat *= b.vec_e[:k_u] @ b.vec_e[:k_u].T
        return 0.5 * (mat + mat.T)

    def thermal_mass(self, f: _StateFields) -> np.ndarray:
        """(rho c(theta) omega_i, omega_j) with the constant mode included."""
        p = self.params
        k_b = len(f.st.b)
        b = self.basis
        if p.specific_heat_form == "constant":
            cbar = 0.5 * (p.specific_heat_min + p.specific_heat_max)
            c_w = cbar * b.resample_spectrum(f.st.rho.data, f.m)
        else:
            w = f.rho_m * cst.specific_heat(p, np.maximum(f.theta_m, 0.0))
            c_w = b.grid_to_spectral(w)
        # mode 0 is the constant; mode 1 + 2g + phase has wavevector g
        g = k_b // 2
        blocks = self._phase_blocks(c_w, b.scal_n[1 : 1 + 2 * g : 2])
        mat = np.empty((k_b, k_b))
        mat[1:, 1:] = blocks.reshape(2 * g, 2 * g)[: k_b - 1, : k_b - 1]
        # constant-mode row and column: omega_0 = 1/sqrt(V)
        amps = b.gather_amplitudes(c_w, b.scal_n[:k_b])
        row = np.where(
            b.scal_phase[:k_b] == 0, np.sqrt(2.0) * amps.real, -np.sqrt(2.0) * amps.imag
        )
        row[0] = amps[0].real
        mat[0, :] = row
        mat[:, 0] = row
        return 0.5 * (mat + mat.T)

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

    # ---------------------------------------------------- induction matrix

    def induction_matrix(self, f: _StateFields, form: str = "weak") -> np.ndarray:
        """Matrix A with dc/dt + A c = 0 for the frozen velocity of the state.

        ``weak`` tests the transport against curls, matching the evolution
        actually used; ``advective`` assembles the pointwise-transport variant
        (including the formally-zero div(u) term) for cross-checking.  For
        divergence-free modes the two differ by the transpose of the advection
        block; both share the exact curl-curl diffusion diagonal.
        """
        if form not in ("weak", "advective"):
            raise ValueError(f"unknown induction matrix form {form!r}")
        b = self.basis
        k_c = len(f.st.c)
        a_mat = np.diag(self.magnetic_stiffness_diag[:k_c])
        if form == "weak":
            for i in range(k_c):
                mode = b.vector_mode_grid(i, b.grid_points)
                w = np.cross(f.u, mode, axisa=0, axisb=0, axisc=0)
                a_mat[:, i] -= b.gather_vector_curl(b.grid_to_spectral(w), k_c)
            return a_mat
        div_u = b.spectral_to_grid(b.div(f.c_u))
        for i in range(k_c):
            mode = b.vector_mode_grid(i, b.grid_points)
            u_dot_grad_mode = self._advect_mode(f, i)
            mode_dot_grad_u = np.einsum("mxyz,imxyz->ixyz", mode, f.grad_u)
            integrand = -u_dot_grad_mode - mode_dot_grad_u + div_u[None] * mode
            a_mat[:, i] += b.gather_vector(b.grid_to_spectral(integrand), k_c)
        return a_mat

    def _advect_mode(self, f: _StateFields, i: int) -> np.ndarray:
        """(u . grad) pi_i evaluated from the closed form of the mode."""
        b = self.basis
        x, y, z = b.mesh(b.grid_points)
        k = b.vec_k[i]
        ph = k[0] * x + k[1] * y + k[2] * z
        u_dot_k = f.u[0] * k[0] + f.u[1] * k[1] + f.u[2] * k[2]
        scale = np.sqrt(2.0 / b.volume)
        if b.vec_phase[i] == 0:
            deriv = -np.sin(ph) * u_dot_k
        else:
            deriv = np.cos(ph) * u_dot_k
        return scale * b.vec_e[i][:, None, None, None] * deriv


# ----------------------------------------------------------- module-level API


def energy_report(f: _StateFields, extras: bool = True, neg_power: float = 0.5) -> dict:
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
    strain_norm = float(np.sqrt(w_m * np.sum(f.strain_m**2)))
    h_norm = float(np.sqrt(np.sum(state.c**2)))
    grad_h_norm = float(np.sqrt(np.sum(state.c**2 * k2_c)))
    div_u_max, div_h_max = ops.solenoidal_residual(f)

    frob2_m = np.sum(f.strain_m**2, axis=(0, 1))
    power = 0.5 * (params.power_law_exponent - 2.0)
    d_visc_floor = params.viscosity_min * w_m * float(
        np.sum((params.stress_smoothing + frob2_m) ** power * frob2_m)
    )

    report = {
        "t": state.t,
        "E_kin": e_kin,
        "E_mag": e_mag,
        "D_visc": d_visc,
        "D_visc_floor": d_visc_floor,
        "D_mag": d_mag,
        "heat_total": ops.total_heat(f),
        "rho_min": float(f.rho.min()),
        "rho_max": float(f.rho.max()),
        "theta_min": float(f.theta.min()),
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
        "conv_term": w_n
        * float(np.sum(f.rho * np.einsum("ixyz,ixyz->xyz", np.einsum("mxyz,imxyz->ixyz", f.u, f.grad_u), f.u))),
        "eps_lap_term": (
            -eps_density * w_n * float(np.sum(b.spectral_to_grid(ops._k2_n * state.rho.data) * u2))
            if eps_density
            else 0.0
        ),
    }
    if extras:
        p = params
        lam = neg_power
        r = p.power_law_exponent
        report["strain_lr_r"] = w_m * float(np.sum(frob2_m ** (r / 2.0)))
        theta_min = report["theta_min"]
        report["sup_theta_negpow"] = float(theta_min ** (-lam)) if theta_min > 0 else np.inf
        report["rho_theta_l1"] = w_n * float(np.sum(np.abs(f.rho * f.theta)))
        expo = 0.5 * (p.conductivity_exponent - lam + 1.0)
        g = f.theta_floor_m**expo
        c_g = b.grid_to_spectral(g)
        grad_g2 = sum(np.abs(b.grad(c_g, m)) ** 2 for m in range(3))
        report["theta_sobolev_sq"] = w_m * float(np.sum(g * g)) + b.volume * float(
            np.sum(grad_g2)
        )
    return report
