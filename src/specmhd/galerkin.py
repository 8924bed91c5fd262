"""Semi-discrete system assembly: coefficient ODEs for the density,
velocity, temperature, and magnetic field.

Conventions fixed here and relied on by the integrator and diagnostics:

* density, over the whole scalar mode family ``omega_j`` (the
  regularized transport ``rho_t + div(rho u) = eps lap(rho)``, tested)::

      drho_j/dt = (rho u, grad omega_j) - eps |k_j|^2 rho_j

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

Each mass matrix ``(w phi_i, phi_j)`` is the grid quadrature of its weight,
rho on the base grid or ``rho c(theta)`` on the oversampled grid.  Its
eigenvalues lie between the grid extrema of the weight, so it is SPD exactly
when the weight is positive at every grid point.  Small systems are the
spectral Gram matrix of a cube of the weight, the density's band cube or
the forward cube of ``rho c(theta)`` that holds every entry the Gram reads
(:meth:`DivFreeSpectralBasis.vector_gram`,
:meth:`DivFreeSpectralBasis.scalar_gram`), Cholesky-factorized; large ones
are never formed and are solved by conjugate gradients on the action of the
weight (:class:`MassOperator`), started from the caller's guess, the rates
of a nearby state.  :func:`matrix_free` is the rule between the two.  Only
:mod:`specmhd.spectral` knows the mode tables behind them.

A pairing of up to three basis-band factors, the test function included, is
integrated exactly on the base grid (the mode cutoff K sits strictly inside
the two-thirds rule, so ``3K < N``): the Lorentz force, the induction
transport, the Joule heating ``nu |curl H|^2`` (gathered there from one
``curl H``) and the regularization term ``eps (grad rho . grad u, psi_j)``.
The convection pairing ``(rho (u.grad)u, psi_j)`` has four band factors, of
per-axis degree up to ``4K`` (20 > 16 at N = 16): its base-grid quadrature
is exact only while the density's largest per-axis wavenumber plus three
times the velocity's stays below N (ROADMAP item 12).  Non-polynomial factors
(power-law stress, temperature powers, specific heat) are evaluated on a
3/2-oversampled grid, leaving a controlled quadrature error there.

A gather onto the first ``count`` modes reads only the entries of their
truncation cube (:meth:`DivFreeSpectralBasis.truncation_band`), and a field
synthesized from them is zero outside it.  So the velocity, magnetic field
and temperature are each synthesized once, on their own truncation cube,
and realized from it on both grids, and each right-hand side takes its
integrand to the truncation cube of the family it gathers.  The density's
coefficients span the whole scalar table, so its cube is the band cube,
which also serves as the Gram weight: a state synthesizes its density once.
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
    """The four unknowns at one instant, each a real coefficient vector.

    ``rho`` holds the density's coefficients over the whole scalar table
    (``basis.n_scalar_modes``).  ``a``, ``b``, ``c`` are the velocity,
    temperature and magnetic coefficient vectors; their lengths are the
    truncation levels.
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


@dataclass
class Rates:
    """One right-hand-side evaluation of the coupled system: the rates of
    the :class:`SimState` parts, shaped like them."""

    drho: np.ndarray
    da: np.ndarray
    db: np.ndarray
    dc: np.ndarray

    def parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.drho, self.da, self.db, self.dc


@dataclass
class StepCounters:
    """Solver work summed over the calls that update it.

    ``rhs_evaluations`` counts :meth:`GalerkinOperators.rates` calls and
    ``stage_iterations`` the midpoint fixed-point iterations, both including
    a call that raised.  ``predictor_gap_max`` is the largest relative
    difference between a midpoint step's first candidate and its converged
    state, taken only where the start was extrapolated from the last two
    known rates, so it estimates the O(dt^3) local error.
    ``cg_iterations`` sums the CG iterations of the matrix-free mass solves
    (:class:`MassOperator`) of both masses, velocity and thermal, a failed
    solve included and a guess that needs none counted as 0, and
    ``cg_iterations_max`` is the most that one solve took; both stay 0 when
    every mass system is below the crossover and solved densely.
    """

    rhs_evaluations: int = 0
    stage_iterations: int = 0
    predictor_gap_max: float = 0.0
    cg_iterations: int = 0
    cg_iterations_max: int = 0


class _StateFields:
    """Grid realization of one state, computed lazily and cached.

    It is the single argument of every per-state computation: the
    right-hand sides, the mass matrices, the monitors and
    :func:`energy_report`.  It caches fields, not right-hand sides: a field
    that one of them realizes, the others reuse.
    Each field is realized on the one grid its quadrature needs: products of
    basis-band fields on the base grid (``curl_H`` serves both the Lorentz
    force and the Joule heating), the non-polynomial laws and what they
    multiply on the oversampled grid.  The density, velocity, magnetic field
    and temperature each have one spectrum (``c_rho``, ``c_u``, ``c_H``,
    ``c_theta``), on the band cube ``band`` and their truncation cubes
    ``size_u``, ``size_H`` and ``size_theta``, from which every realization
    of them on either grid expands.
    The time loop builds one per accepted state, shares it between the
    post-step monitors and the diagnostics report (and, before the first
    step, the start-state right-hand side), and drops it before the step's
    stage evaluations, which build their own.
    """

    def __init__(self, ops: "GalerkinOperators", state: SimState):
        self.ops = ops
        self.st = state
        self.basis = ops.basis
        self.n = ops.basis.grid_points
        self.m = ops.basis.oversample_grid()
        self.band = ops.basis.band
        self.size_u = ops.basis.truncation_band(len(state.a), scalar=False)
        self.size_H = ops.basis.truncation_band(len(state.c), scalar=False)
        self.size_theta = ops.basis.truncation_band(len(state.b), scalar=True)

    # ---- cube spectra

    @cached_property
    def c_rho(self):
        return self.basis.synth_scalar(self.st.rho, self.band)

    @cached_property
    def c_u(self):
        return self.basis.synth_vector(self.st.a, self.size_u)

    @cached_property
    def c_H(self):
        return self.basis.synth_vector(self.st.c, self.size_H)

    @cached_property
    def c_theta(self):
        return self.basis.synth_scalar(self.st.b, self.size_theta)

    # ---- base grid (exact for polynomial nonlinearities)

    @cached_property
    def u(self):
        return self.basis.spectral_to_grid(self.c_u, grid=self.n)

    @cached_property
    def H(self):
        return self.basis.spectral_to_grid(self.c_H, grid=self.n)

    @cached_property
    def grad_u(self):
        """Jacobian grid array with grad_u[i, m] = d_m u_i."""
        return self.basis.grid_gradient(self.c_u, grid=self.n)

    @cached_property
    def curl_H(self):
        return self.basis.spectral_to_grid(self.basis.curl(self.c_H), grid=self.n)

    @cached_property
    def rho(self):
        return self.basis.spectral_to_grid(self.c_rho, grid=self.n)

    @cached_property
    def grad_rho(self):
        return self.basis.grid_gradient(self.c_rho, grid=self.n)

    @cached_property
    def theta(self):
        return self.basis.spectral_to_grid(self.c_theta, grid=self.n)

    @cached_property
    def conv(self):
        """Convective term (u . grad) u on the base grid."""
        return np.einsum("mxyz,imxyz->ixyz", self.u, self.grad_u)

    @cached_property
    def density_rate(self):
        """Coefficient rate ``(rho u, grad omega_j) - eps |k_j|^2 rho_j``;
        its constant-mode entry is 0, so the mass is conserved exactly."""
        b = self.basis
        flux = b.grid_to_spectral(self.rho[None] * self.u, size=self.band)
        rate = b.gather_scalar_grad(flux, b.n_scalar_modes)
        if self.ops.eps_density:
            rate -= self.ops.eps_density * b.scal_k2 * self.st.rho
        return rate

    # ---- oversampled grid (non-polynomial factors)

    @cached_property
    def u_m(self):
        return self.basis.spectral_to_grid(self.c_u, grid=self.m)

    @cached_property
    def strain_m(self):
        """Rate of strain grad u + (grad u)^T on the oversampled grid, in the
        symmetric-tensor layout of :mod:`specmhd.constitutive`."""
        out = np.empty((6,) + (self.m,) * 3, dtype=float)
        for p, (i, j) in enumerate(cst.SYM_PAIRS):
            out[p] = self.basis.spectral_to_grid(self.basis.strain(self.c_u, i, j), grid=self.m)
        return out

    @cached_property
    def rho_m(self):
        return self.basis.spectral_to_grid(self.c_rho, grid=self.m)

    @cached_property
    def rho_t_m(self):
        """The density rate on the oversampled grid."""
        return self.basis.spectral_to_grid(self.basis.synth_scalar(self.density_rate, self.band), grid=self.m)

    @cached_property
    def theta_m(self):
        return self.basis.spectral_to_grid(self.c_theta, grid=self.m)

    @cached_property
    def grad_theta_m(self):
        return self.basis.grid_gradient(self.c_theta, grid=self.m)

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
    def heat_capacity_m(self):
        """``rho c(theta)`` on the oversampled grid, temperature floored at 0."""
        return self.rho_m * cst.specific_heat(self.ops.params, np.maximum(self.theta_m, 0.0))

    @cached_property
    def stress_m(self):
        return cst.stress_tensor(self.ops.params, self.rho_m, self.theta_m, self.strain_m)

    @cached_property
    def viscous_power_m(self):
        """Pointwise S : D on the oversampled grid."""
        return cst.contract(self.stress_m, self.strain_m)


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


# Modes per sqrt(components) grid^1.25 above which CG beats the dense path.
# The dense path grows as K^2 (assembly) and K^3 (factorization); a CG
# iteration transforms the weight's grid once per component each way, and
# the iteration count follows the weight's ratio and how far the guess is
# (MassOperator.solve), not K.  Interleaved per-solve timings of the
# dense solve against CG from the caller's guess, inside the midpoint stages
# of random_band runs (dt 0.01, seeds 0-3, 2 steps; a 2-core x86 box,
# numpy 2.4, OpenBLAS) cross at
#
#     mass      grid       crossover K   K / (sqrt(components) G^1.25)
#     velocity  N=16           ~370        6.7
#     velocity  N=32           ~820        6.2
#     thermal   m=24           ~310        5.8
#     thermal   m=48           ~755        6.0
#
# 6.2 in the geometric mean; the crossover grows faster than linearly in G.
_CROSSOVER = 6.2

# Relative residual at which CG stops.
CG_TOLERANCE = 1e-14


def matrix_free(count: int, grid: int, components: int) -> bool:
    """Whether a mass system of ``count`` modes whose weight lives on a
    ``grid``^3 quadrature grid, with ``components`` field components, is
    solved by CG without forming it (else by the dense Gram matrix): whether
    ``count > 6.2 sqrt(components) grid^1.25``: CG from 344 velocity modes
    at N=16 and 818 at N=32, and from 330 and 784 temperature modes on the
    oversampled grids m=24 and m=48."""
    return count > _CROSSOVER * np.sqrt(components) * grid**1.25


def _cg_iteration_cap(ratio: float) -> int:
    """Twice the iterations after which CG in exact arithmetic reaches
    ``CG_TOLERANCE`` on an SPD system of condition number at most ``ratio``,
    from ||r_k|| / ||b|| <= 2 sqrt(ratio) q^k with
    q = (sqrt(ratio) - 1) / (sqrt(ratio) + 1); the bound is nearly tight at
    small ratios, and rounding can delay CG past it."""
    s = np.sqrt(ratio)
    q = (s - 1.0) / (s + 1.0)
    bound = int(np.ceil(np.log(2.0 * s / CG_TOLERANCE) / -np.log(q))) if q > 0 else 1
    return 2 * max(bound, 1)


class MassOperator:
    """The mass matrix ``(w phi_i, phi_j)``, i, j < ``count``, of the
    realization ``f`` as its action
    ``x -> gather(grid_to_spectral(w * spectral_to_grid(synth(x))))`` on the
    grid of the weight values ``w``, the same quadrature the Gram matrix
    integrates; both transforms run on the truncation cube of size ``size``
    of the ``count`` modes.
    The matrix is never formed: ``mass @ x`` applies it and :meth:`solve`
    inverts it by CG, recording its iterations on ``f.ops.counters``.
    """

    def __init__(self, f: "_StateFields", weight, count, size, synth, gather, name):
        self.counters = f.ops.counters
        self.weight = weight
        self.count = count
        self.size = size
        self.synth = synth
        self.gather = gather
        self.name = name

    @classmethod
    def velocity(cls, f: "_StateFields") -> "MassOperator":
        """(rho psi_i, psi_j) on the base grid."""
        b = f.basis
        return cls(f, f.rho, len(f.st.a), f.size_u, b.synth_vector, b.gather_vector, "density")

    @classmethod
    def thermal(cls, f: "_StateFields") -> "MassOperator":
        """(rho c(theta) omega_i, omega_j) on the oversampled grid."""
        b = f.basis
        return cls(f, f.heat_capacity_m, len(f.st.b), f.size_theta, b.synth_scalar, b.gather_scalar, "rho c(theta)")

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        grid = self.weight.shape[-1]
        values = self.weight * DivFreeSpectralBasis.spectral_to_grid(self.synth(x, self.size), grid=grid)
        return self.gather(DivFreeSpectralBasis.grid_to_spectral(values, size=self.size), self.count)

    def solve(self, rhs: np.ndarray, guess: np.ndarray | None = None) -> np.ndarray:
        """``M^-1 rhs`` by CG preconditioned with ``1 / mean(w)``, to the
        relative residual ``CG_TOLERANCE`` of ``||rhs||``; the cap is
        :func:`_cg_iteration_cap` of ``max w / min w``, the bound on the
        condition number.

        CG starts from ``guess`` when its residual ``||rhs - M guess||`` is
        below ``||rhs||``, else from zero, so the cap holds either way; a
        guess that already meets the tolerance is returned after 0
        iterations."""
        w = self.weight
        bad = np.flatnonzero(~((w > 0) & (w < np.inf)))
        if bad.size:
            point = tuple(int(i) for i in np.unravel_index(bad[0], w.shape))
            raise MassSolveError(
                f"mass weight {self.name} is {w.flat[bad[0]]:.6g} at grid point {point} of the "
                f"{w.shape[-1]}^3 quadrature grid; the mass matrix is positive definite only "
                f"where the weight is positive and finite"
            )
        x = np.zeros_like(rhs, dtype=float)
        b_norm = np.linalg.norm(rhs)
        if b_norm == 0:
            return x
        r = np.array(rhs, dtype=float)
        if guess is not None:
            r_guess = r - self @ guess
            guess_norm = np.linalg.norm(r_guess)
            if guess_norm < b_norm:
                x, r = np.array(guess, dtype=float), r_guess
                if guess_norm <= CG_TOLERANCE * b_norm:
                    return x
        cap = _cg_iteration_cap(w.max() / w.min())
        inv_mean = 1.0 / np.mean(w)
        p = inv_mean * r
        rz = r @ p
        for it in range(1, cap + 1):
            q = self @ p
            alpha = rz / (p @ q)
            x += alpha * p
            r -= alpha * q
            residual = np.linalg.norm(r) / b_norm
            if residual <= CG_TOLERANCE or not np.isfinite(residual):
                break
            z = inv_mean * r
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        self.counters.cg_iterations += it
        self.counters.cg_iterations_max = max(self.counters.cg_iterations_max, it)
        if residual <= CG_TOLERANCE:
            return x
        raise MassSolveError(
            f"CG on the {self.name}-weighted mass ({self.count} modes) stopped after {it} "
            f"iterations at relative residual {residual:.3e} > {CG_TOLERANCE:.0e}"
        )


class GalerkinOperators:
    """Precomputed mode machinery plus right-hand-side and matrix assembly.

    Every per-state method takes the state's :class:`_StateFields` from
    :meth:`fields` and is pure given (params, state).  The one exception is
    the solver work: each instance owns one :class:`StepCounters`,
    ``counters``, to which :meth:`rates` adds its calls and every CG mass
    solve its iterations; the midpoint step adds its stage counts to the
    same object, so states advanced on one instance share one tally.  A mass
    system, weighted by the density or by ``rho c(theta)``, is rebuilt on
    every call: below the :func:`matrix_free` crossover as the spectral Gram
    matrix, assembled by the basis per wavevector pair and
    Cholesky-factorized, above it as a :class:`MassOperator` solved by CG
    from the ``guess`` passed to :meth:`rates`.  No solution is kept between
    calls, so :meth:`rates` is a function of the state and the guess.
    """

    def __init__(self, params: cst.ConstitutiveParams, basis: DivFreeSpectralBasis, eps_density: float = 0.0):
        self.params = params
        self.basis = basis
        self.eps_density = float(eps_density)
        self.counters = StepCounters()
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
        entries = self.basis.gather_vector(self.basis.grid_to_spectral(integrand, size=f.size_u), k_u)
        return entries - self.basis.gather_strain(self.basis.grid_to_spectral(f.stress_m, size=f.size_u), k_u)

    def thermal_rhs(self, f: _StateFields) -> np.ndarray:
        p = self.params
        k_b = len(f.st.b)
        flux = cst.heat_flux(p, f.rho_m, f.theta_floor_m, f.grad_theta_m)
        transport = f.rho_m[None] * f.heat_m[None] * f.u_m - flux
        source = f.viscous_power_m - f.rho_t_m * f.heat_m
        joule = p.magnetic_diffusivity * np.sum(f.curl_H**2, axis=0)
        b = self.basis
        entries = b.gather_scalar_grad(b.grid_to_spectral(transport, size=f.size_theta), k_b)
        entries += b.gather_scalar(b.grid_to_spectral(source, size=f.size_theta), k_b)
        return entries + b.gather_scalar(b.grid_to_spectral(joule, size=f.size_theta), k_b)

    def induction_rhs(self, f: _StateFields) -> np.ndarray:
        c = f.st.c
        entries = -self.magnetic_stiffness_diag[: len(c)] * c
        w = np.cross(f.u, f.H, axisa=0, axisb=0, axisc=0)
        return entries + self.basis.gather_vector_curl(self.basis.grid_to_spectral(w, size=f.size_H), len(c))

    def rates(self, f: _StateFields, guess: Rates | None = None) -> Rates:
        """The rates at the state of ``f``.  ``guess``, rates at a nearby
        state, seeds the matrix-free mass solves with its ``da`` and ``db``
        (:meth:`MassOperator.solve`); it moves the result only within the CG
        tolerance, and not at all on the dense path."""
        self.counters.rhs_evaluations += 1
        da_0, db_0 = (None, None) if guess is None else (guess.da, guess.db)
        da = self.solve_mass(self.velocity_mass(f), self.momentum_rhs(f), da_0)
        db = self.solve_mass(self.thermal_mass(f), self.thermal_rhs(f), db_0)
        return Rates(f.density_rate, da, db, self.induction_rhs(f))

    def stiff_diagonal(self, f: _StateFields, h: float) -> tuple:
        """``h L`` as (rho, a, b, c) parts, where ``-L`` is the diagonal linear
        part of the rates at the state of the realization ``f``, with its
        truncation levels.

        The density regularization eps |k|^2 and the magnetic diffusion
        nu |k|^2 are exact.  Heat conduction kbar |k|^2 / rcbar is frozen at
        ``f``: kbar is the oversampled-grid mean of
        ``kappa(rho) max(theta, floor)^alpha`` and rcbar that of
        ``rho c(theta)``.  The velocity part is 0.  ``h`` multiplies first,
        as in ``h * eps * |k|^2``; that order fixes how the damping rounds.
        """
        p = self.params
        rho = h * self.eps_density * self.basis.scal_k2
        c = h * self.magnetic_stiffness_diag[: len(f.st.c)]
        kbar = np.mean(cst.conductivity(p, f.rho_m) * f.theta_floor_m**p.conductivity_exponent)
        rcbar = np.mean(f.heat_capacity_m)
        b = h * (kbar / rcbar) * self.basis.scal_k2[: len(f.st.b)]
        return rho, 0.0, b, c

    def total_heat(self, f: _StateFields) -> float:
        """Quadrature of rho Q(theta), consistent with the thermal assembly."""
        w_m = self.basis.volume / f.m**3
        return w_m * float(np.sum(f.rho_m * f.heat_m))

    def solenoidal_residual(self, f: _StateFields) -> tuple[float, float]:
        """Largest spectral divergence amplitudes of velocity and magnetic field."""
        return tuple(float(np.abs(self.basis.div(c)).max()) for c in (f.c_u, f.c_H))

    # -------------------------------------------------------- mass matrices

    def velocity_mass(self, f: _StateFields) -> np.ndarray | MassOperator:
        """(rho psi_i, psi_j): the spectral Gram matrix of the density's
        band cube ``c_rho``, or its :class:`MassOperator` above the
        :func:`matrix_free` crossover."""
        if matrix_free(len(f.st.a), f.n, 3):
            return MassOperator.velocity(f)
        return self.basis.vector_gram(f.c_rho, len(f.st.a))

    def thermal_mass(self, f: _StateFields) -> np.ndarray | MassOperator:
        """(rho c(theta) omega_i, omega_j): the spectral Gram matrix of
        ``c c_rho`` for constant c, else of the oversampled forward cube of
        size ``2 size_theta - 1``, which holds every ``n_i +- n_j`` it reads;
        or its :class:`MassOperator` above the :func:`matrix_free` crossover."""
        p = self.params
        b = self.basis
        if matrix_free(len(f.st.b), f.m, 1):
            return MassOperator.thermal(f)
        if p.specific_heat_form == "constant":
            cbar = 0.5 * (p.specific_heat_min + p.specific_heat_max)
            c_w = cbar * f.c_rho
        else:
            c_w = b.grid_to_spectral(f.heat_capacity_m, size=2 * f.size_theta - 1)
        return b.scalar_gram(c_w, len(f.st.b))

    @staticmethod
    def solve_mass(mat: np.ndarray | MassOperator, rhs: np.ndarray, guess: np.ndarray | None = None) -> np.ndarray:
        """``mat^-1 rhs``: CG started from ``guess`` for a
        :class:`MassOperator`, blocked Cholesky substitution for a Gram
        matrix, which ignores ``guess``."""
        if isinstance(mat, MassOperator):
            return mat.solve(rhs, guess)
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
    """Instantaneous energies, dissipations and monitors at one state; it
    assembles no right-hand side.

    Its quadratures are those of the right-hand-side assembly, so its
    energies and dissipations close the energy identity to rounding at one
    state (the check ``galerkin.energy_identity``) and to the time
    discretization along a trajectory (the recorder's ``energy_residual``).
    """
    ops, state = f.ops, f.st
    params = ops.params
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
        "strain_lr_r": w_m * float(np.sum(frob2_m ** (params.power_law_exponent / 2.0))),
        "sup_theta_negpow": float(theta_min ** (-THETA_NEG_POWER)) if theta_min > 0 else np.inf,
        "rho_theta_l1": w_n * float(np.sum(np.abs(f.rho * f.theta))),
        "theta_sobolev_sq": w_m * float(np.sum(g * g)) + b.volume * grad_g2,
    }
