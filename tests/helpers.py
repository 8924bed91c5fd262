"""Shared test utilities: constant densities, random admissible states,
the density rate in its base-grid spectral form, an independent
dense-grid quadrature oracle for Galerkin projections, the mode tables
built one wavevector at a time, the entry-by-entry
mass assembly that the per-wavevector-pair assembly must reproduce bitwise,
the induction matrix of the solver's induction right-hand side, a
miswired Lorentz force for fault injection, a midpoint time loop that
starts every step from its start-state rates, the plain (undamped)
midpoint stage iteration, the stiff 800-mode random_band input, the
README's snapshot reader, and a bitwise array comparison.

The quadrature oracle never touches the FFT machinery: modes and fields are
evaluated from their closed trigonometric forms on a uniform dense grid and
integrals are plain Riemann sums, which are exact for trigonometric
polynomials whose bandwidth stays below the grid size.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from specmhd import constitutive as cst
from specmhd import integrator as itg
from specmhd import spectral as sp
from specmhd.config import auto_density_regularization, load_config
from specmhd.galerkin import GalerkinOperators, SimState, _StateFields


def constant_density(basis, value=1.0):
    """Density coefficients of the constant ``value``."""
    rho = np.zeros(basis.n_scalar_modes)
    rho[0] = value * np.sqrt(basis.volume)
    return rho


def make_state(
    basis,
    rng,
    k_u,
    k_b=None,
    k_c=None,
    amp=0.3,
    rho_mean=1.0,
    rho_amp=0.25,
    theta_base=1.0,
    theta_amp=0.2,
    t=0.0,
):
    """Random admissible state with band-limited density and positive theta,
    with ``k_u`` velocity modes and by default as many magnetic modes and one
    temperature mode more."""
    k_c = k_c or k_u
    k_b = k_b or min(k_u + 1, basis.n_scalar_modes)
    a = amp * rng.normal(size=k_u) / np.sqrt(k_u)
    c = amp * rng.normal(size=k_c) / np.sqrt(k_c)

    b = np.zeros(k_b)
    b[0] = theta_base * np.sqrt(basis.volume)
    if k_b > 1 and theta_amp > 0:
        pert = rng.normal(size=k_b - 1) / np.sqrt(k_b)
        b[1:] = pert
        span = np.abs(basis.scalar_grid(b) - theta_base).max()
        if span > 0:
            b[1:] *= theta_amp * theta_base / span

    n_rho = min(7, basis.n_scalar_modes)
    rho_coeffs = np.zeros(n_rho)
    rho_coeffs[0] = rho_mean * np.sqrt(basis.volume)
    if rho_amp > 0 and n_rho > 1:
        pert = rng.normal(size=n_rho - 1)
        rho_coeffs[1:] = pert
        span = np.abs(basis.scalar_grid(rho_coeffs) - rho_mean).max()
        if span > 0:
            rho_coeffs[1:] *= rho_amp / span
    rho = np.zeros(basis.n_scalar_modes)
    rho[:n_rho] = rho_coeffs
    return SimState(t=t, rho=rho, a=a, b=b, c=c, basis=basis)


# ------------------------------------------------------------ oracle pieces


def oracle_mesh(box_size, grid):
    lin = np.linspace(0.0, box_size, grid, endpoint=False)
    return np.meshgrid(lin, lin, lin, indexing="ij")


def riemann(box_size, values):
    grid = values.shape[-1]
    return float(np.sum(values) * (box_size / grid) ** 3)


def _phase_arg(basis, n, mesh):
    x, y, z = mesh
    base = 2.0 * np.pi / basis.box_size
    return base * (n[0] * x + n[1] * y + n[2] * z)


def oracle_vector_mode(basis, j, mesh):
    ph = _phase_arg(basis, basis.vec_n[j], mesh)
    tr = np.cos(ph) if basis.vec_phase[j] == 0 else np.sin(ph)
    return np.sqrt(2.0 / basis.volume) * basis.vec_e[j][:, None, None, None] * tr


def oracle_vector_mode_curl(basis, j, mesh):
    ph = _phase_arg(basis, basis.vec_n[j], mesh)
    ke = basis.vec_curl_e[j][:, None, None, None]
    if basis.vec_phase[j] == 0:
        return -np.sqrt(2.0 / basis.volume) * ke * np.sin(ph)
    return np.sqrt(2.0 / basis.volume) * ke * np.cos(ph)


def oracle_vector_mode_grad(basis, j, mesh):
    """Jacobian d_m psi_i of mode j, shape (3, 3, G, G, G)."""
    ph = _phase_arg(basis, basis.vec_n[j], mesh)
    k = basis.vec_k[j]
    e = basis.vec_e[j]
    d_tr = -np.sin(ph) if basis.vec_phase[j] == 0 else np.cos(ph)
    scale = np.sqrt(2.0 / basis.volume)
    return scale * e[:, None, None, None, None] * k[None, :, None, None, None] * d_tr[None, None]


def oracle_scalar_mode(basis, j, mesh):
    if basis.scal_phase[j] == 2:
        g = mesh[0].shape[0]
        return np.full((g, g, g), 1.0 / np.sqrt(basis.volume))
    ph = _phase_arg(basis, basis.scal_n[j], mesh)
    tr = np.cos(ph) if basis.scal_phase[j] == 0 else np.sin(ph)
    return np.sqrt(2.0 / basis.volume) * tr


def oracle_scalar_mode_grad(basis, j, mesh):
    if basis.scal_phase[j] == 2:
        g = mesh[0].shape[0]
        return np.zeros((3, g, g, g))
    ph = _phase_arg(basis, basis.scal_n[j], mesh)
    k = basis.scal_k[j][:, None, None, None]
    if basis.scal_phase[j] == 0:
        return -np.sqrt(2.0 / basis.volume) * k * np.sin(ph)
    return np.sqrt(2.0 / basis.volume) * k * np.cos(ph)


def oracle_vector_field(basis, coeffs, mesh):
    g = mesh[0].shape[0]
    out = np.zeros((3, g, g, g))
    for j, cj in enumerate(coeffs):
        if cj != 0.0:
            out += cj * oracle_vector_mode(basis, j, mesh)
    return out


def oracle_vector_field_curl(basis, coeffs, mesh):
    g = mesh[0].shape[0]
    out = np.zeros((3, g, g, g))
    for j, cj in enumerate(coeffs):
        if cj != 0.0:
            out += cj * oracle_vector_mode_curl(basis, j, mesh)
    return out


def oracle_vector_field_grad(basis, coeffs, mesh):
    g = mesh[0].shape[0]
    out = np.zeros((3, 3, g, g, g))
    for j, cj in enumerate(coeffs):
        if cj != 0.0:
            out += cj * oracle_vector_mode_grad(basis, j, mesh)
    return out


def oracle_mode_tables(cutoff):
    """The mode tables ``vec_n``, ``vec_e``, ``vec_phase``, ``scal_n`` and
    ``scal_phase`` built one wavevector at a time, each polarization pair from
    the norms of single vectors: the construction the whole-array tables in
    :mod:`specmhd.spectral` must reproduce bit for bit."""
    vec_n, vec_e, vec_phase = [], [], []
    scal_n, scal_phase = [np.zeros(3, dtype=int)], [2]
    for n in sp._canonical_wavevectors(cutoff):
        khat = n / np.linalg.norm(n.astype(float))
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(khat)))] = 1.0
        e1 = np.cross(axis, khat)
        e1 /= np.linalg.norm(e1)
        for e in (e1, np.cross(khat, e1)):
            for phase in (0, 1):
                vec_n.append(n)
                vec_e.append(e)
                vec_phase.append(phase)
        for phase in (0, 1):
            scal_n.append(n)
            scal_phase.append(phase)
    return {
        "vec_n": np.array(vec_n, dtype=int),
        "vec_e": np.array(vec_e, dtype=float),
        "vec_phase": np.array(vec_phase, dtype=np.uint8),
        "scal_n": np.array(scal_n, dtype=int),
        "scal_phase": np.array(scal_phase, dtype=np.uint8),
    }


def oracle_dense_grid(basis):
    """Dense grid size making cubic products of basis-band fields exact."""
    g = 3 * basis.cutoff + 2
    return g + (g % 2)


# ------------------------------------------------------ dense mass assembly


def aliased_amplitudes(c, nvecs):
    """Amplitudes of a full G^3 half spectrum at integer wavevectors, each
    component aliased modulo G; one whose aliased x-component is not stored
    reads the conjugate at its negative.  The full-grid lookup that the
    entrywise oracles keep as their reference."""
    g = c.shape[-1]
    n = np.asarray(nvecs) % g
    flip = n[:, 0] > g // 2
    n[flip] = -n[flip] % g
    vals = c[n[:, 0], n[:, 1], n[:, 2]]
    return np.where(flip, np.conj(vals), vals)


def trig_product_matrix(c_w, nvecs, phases, prefactor):
    """Matrix of (w mode_i, mode_j) from the full weight spectrum c_w, one
    pair of aliased amplitude lookups per entry (the per-entry form of the
    mass assembly)."""
    m = len(nvecs)
    diff = nvecs[:, None, :] - nvecs[None, :, :]
    summ = nvecs[:, None, :] + nvecs[None, :, :]
    cd = aliased_amplitudes(c_w, diff.reshape(-1, 3)).reshape(m, m)
    cs = aliased_amplitudes(c_w, summ.reshape(-1, 3)).reshape(m, m)
    pi = phases[:, None]
    pj = phases[None, :]
    out = np.select(
        [
            (pi == 0) & (pj == 0),
            (pi == 1) & (pj == 1),
            (pi == 1) & (pj == 0),
            (pi == 0) & (pj == 1),
        ],
        [
            cd.real + cs.real,
            cd.real - cs.real,
            -cd.imag - cs.imag,
            cd.imag - cs.imag,
        ],
    )
    return prefactor * out


def oracle_velocity_mass(f):
    """(rho psi_i, psi_j) assembled entry by entry.  Mode i's polarization
    is row ``i // 2`` of one row per (wavevector, polarization), multiplied
    out in the assembly's matmul shape: a matmul over all 343 modes at N=16
    rounds zero products of orthogonal polarizations to 1e-16 where the
    assembly's gives 0."""
    k_u = len(f.st.a)
    b = f.basis
    nvecs, phases = b.vec_n[:k_u], b.vec_phase[:k_u].astype(int)
    e = b.vec_e[: 4 * -(-k_u // 4) : 2]
    pref = (e @ e.T)[np.arange(k_u)[:, None] // 2, np.arange(k_u) // 2]
    mat = trig_product_matrix(b.synth_scalar(f.st.rho), nvecs, phases, pref)
    return 0.5 * (mat + mat.T)


def oracle_thermal_mass(f):
    """(rho c(theta) omega_i, omega_j) assembled entry by entry."""
    p = f.ops.params
    k_b = len(f.st.b)
    b = f.basis
    if p.specific_heat_form == "constant":
        cbar = 0.5 * (p.specific_heat_min + p.specific_heat_max)
        c_w = cbar * b.synth_scalar(f.st.rho, f.m)
    else:
        w = f.rho_m * cst.specific_heat(p, np.maximum(f.theta_m, 0.0))
        c_w = b.grid_to_spectral(w)
    nvecs, phases = b.scal_n[:k_b], b.scal_phase[:k_b].astype(int)
    mat = trig_product_matrix(c_w, nvecs, np.minimum(phases, 1), np.ones((k_b, k_b)))
    const = phases == 2
    amps = aliased_amplitudes(c_w, nvecs)
    row = np.where(phases == 0, np.sqrt(2.0) * amps.real, -np.sqrt(2.0) * amps.imag)
    row[const] = amps[const].real
    mat[const, :] = row
    mat[:, const] = row[:, None]
    return 0.5 * (mat + mat.T)


# ------------------------------------------------- solver operators, rebuilt


def spectral_density_rate(f):
    """The density rate of the realization ``f`` as a base-grid spectrum:
    ``-div(rho u)``, masked to the basis cutoff ``|n| <= K``, plus
    ``eps lap(rho)``.  Its scalar-mode projection is the coefficient rate."""
    b = f.basis
    kx, ky, kz = b.wavenumbers(f.n)
    k2 = kx * kx + ky * ky + kz * kz
    nx, ny, nz = b._integer_wavenumbers(f.n)
    mask = nx * nx + ny * ny + nz * nz <= b.cutoff**2
    rate = -b.div(b.grid_to_spectral(f.rho[None] * f.u)) * mask
    return rate - f.ops.eps_density * k2 * b.synth_scalar(f.st.rho)


def induction_matrix(ops, state):
    """Matrix A with dc/dt = -A c for the frozen velocity of ``state``.

    ``induction_rhs`` is linear in c, so column i is minus its value at the
    unit vector c = e_i.
    """
    cols = [
        ops.induction_rhs(ops.fields(dataclasses.replace(state, c=e)))
        for e in np.eye(len(state.c))
    ]
    return -np.array(cols).T


class LorentzFlippedOperators(GalerkinOperators):
    """Operators whose momentum right-hand side takes the Lorentz force as
    -(curl H) x H: the miswiring the energy identity must detect."""

    def momentum_rhs(self, f):
        lorentz = np.cross(f.curl_H, f.H, axisa=0, axisb=0, axisc=0)
        entries = self.basis.gather_vector(self.basis.grid_to_spectral(lorentz), len(f.st.a))
        return super().momentum_rhs(f) - 2.0 * entries


def lorentz_flipped(f):
    """A realization of the state of ``f`` on
    :class:`LorentzFlippedOperators` with the parameters of ``f.ops``."""
    ops = LorentzFlippedOperators(f.ops.params, f.basis, f.ops.eps_density)
    return _StateFields(ops, f.st)


# ------------------------------------------------------ reference time loop


def forward_euler_started_run(params, basis, state, cfg, eps_density=0.0):
    """Step ``state`` to ``cfg.t_end`` with the midpoint as
    :func:`integrator.integrate` does, shortened last step included, but
    start every step from ``ops.rates`` at its start state, with no history:
    the forward-Euler predictor.  Returns the final state and the work
    counters, start-state evaluations included."""
    ops = GalerkinOperators(params, basis, eps_density)
    t_stop = state.t + cfg.t_end
    while state.t < t_stop - 1e-12 * max(1.0, cfg.t_end):
        dt = min(cfg.dt, t_stop - state.t)
        state, _ = itg.step(ops, state, cfg, dt, ops.rates(ops.fields(state)))
    return state, ops.counters


def plain_midpoint_step(ops, state, cfg, start):
    """One midpoint step by plain fixed-point iteration from
    ``state + dt * start``: each candidate is the last map value, with no
    damping.  Returns the accepted state ``state + dt k(mid)``."""
    t_new = state.t + cfg.dt
    candidate = itg._advance(state, t_new, cfg.dt, start)
    for _ in range(cfg.max_nonlinear_iterations):
        rates = ops.rates(ops.fields(itg._midpoint(state, candidate)))
        updated = itg._advance(state, t_new, cfg.dt, rates)
        if itg._delta(updated, candidate) <= cfg.solver_tolerance:
            return updated
        candidate = updated
    raise AssertionError("plain midpoint iteration did not converge")


# ------------------------------------------------------ the stiff input


def stiff_random_band(dt, steps=2, seed=5):
    """random_band at N=16 with 800 velocity and magnetic modes, 401
    temperature modes and the grid-scaled density regularization, run for
    ``steps`` steps of ``dt``: the stiff midpoint input."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "random_band.cfg")
    cfg = dataclasses.replace(
        cfg,
        grid_points=16,
        velocity_modes=800,
        magnetic_modes=800,
        temperature_modes=401,
        cadence=10,
        density_regularization=auto_density_regularization(cfg.box_size, 16),
        initial_params={**cfg.initial_params, "seed": seed},
    )
    return dataclasses.replace(cfg, step=dataclasses.replace(cfg.step, dt=dt, t_end=steps * dt))


def read_snapshot(prefix: Path) -> tuple[dict, np.ndarray]:
    """A snapshot's sidecar header and its grid samples, read as the README's
    "Snapshot format" section reads them."""
    header = json.loads(prefix.with_suffix(".json").read_text())
    *lead, gx, gy, gz = header["shape"]
    raw = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype="<f8")
    return header, np.moveaxis(raw.reshape(*lead, gz, gy, gx), (-3, -2, -1), (-1, -2, -3))


def assert_bitwise(got, want):
    """``got`` and ``want`` have the same shape and the same bits."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
