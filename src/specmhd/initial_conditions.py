"""Named analytic initial-condition families.

Each family documents its closed form; all fields are band-limited to the
basis cutoff by construction, so the spectral projection onto the retained
modes is exact and the admissibility checks (density bounds, temperature
floor, finite energies) can be verified on the grid after construction.

Families
--------
``single_mode``
    One velocity mode and one magnetic mode by index in the deterministic
    mode ordering, a uniform temperature, and an optional single-harmonic
    density profile: rho = mean + amplitude cos(2 pi w x_axis / L).
``orszag_tang``
    The classic vortex pattern extruded along z:
    u = A_u (-sin(2 pi y / L), sin(2 pi x / L), 0),
    H = A_h (-sin(2 pi y / L), sin(4 pi x / L), 0),
    optional density harmonic as above.
``random_band``
    Seeded random coefficients over a fixed master band of ``band_modes``
    modes with the decaying envelope (1 + j/8)^(-slope) in the deterministic
    mode ordering (which orders by |k|), normalized so the velocity and
    magnetic L2 norms match the requested amplitudes.  A truncated run takes
    the leading slice of the master vector, i.e. the projection of one fixed
    field onto its truncation, so refinement studies compare runs with nested
    initial data.  Optional random density and temperature perturbations are
    scaled to prescribed sup-norm excursions.
``layered_density``
    Density layered along z (mean + amplitude cos(2 pi z / L)) stirred by a
    transverse shear u = A (0, 0, sin(2 pi x / L)), uniform temperature, and
    an optional single magnetic mode.
"""

from __future__ import annotations

import numpy as np

from specmhd.config import RunConfig
from specmhd.errors import ConfigError
from specmhd.galerkin import SimState
from specmhd.spectral import DivFreeSpectralBasis


def _uniform_rho_spec(basis: DivFreeSpectralBasis, mean: float) -> np.ndarray:
    spec = basis.zero_spectrum()
    spec[0, 0, 0] = mean
    return spec


def _harmonic_rho_spec(basis, mean, amplitude, axis, wavenumber) -> np.ndarray:
    """Spectrum of mean + amplitude * cos(2 pi wavenumber x_axis / L)."""
    spec = _uniform_rho_spec(basis, mean)
    if amplitude != 0.0:
        if wavenumber > basis.cutoff:
            raise ConfigError(
                f"density wavenumber {wavenumber} above the dealiasing cutoff {basis.cutoff}"
            )
        n = [0, 0, 0]
        n[axis] = wavenumber
        basis.set_amplitude(spec, n, 0.5 * amplitude)
    return spec


def _uniform_theta(basis, count, base) -> np.ndarray:
    b = np.zeros(count)
    b[0] = base * np.sqrt(basis.volume)
    return b


def _build_single_mode(cfg: RunConfig, basis: DivFreeSpectralBasis, ip: dict):
    a = np.zeros(cfg.velocity_modes)
    c = np.zeros(cfg.magnetic_modes)
    va = float(ip.get("velocity_amplitude", 0.0))
    ma = float(ip.get("magnetic_amplitude", 0.0))
    if va:
        a[int(ip.get("velocity_mode", 0))] = va
    if ma:
        c[int(ip.get("magnetic_mode", 0))] = ma
    rho = _harmonic_rho_spec(
        basis,
        float(ip.get("density_mean", 1.0)),
        float(ip.get("density_amplitude", 0.0)),
        int(ip.get("density_axis", 2)),
        int(ip.get("density_wavenumber", 1)),
    )
    b = _uniform_theta(basis, cfg.temperature_modes, float(ip.get("temperature_base", 1.0)))
    return rho, a, b, c


def _build_orszag_tang(cfg: RunConfig, basis: DivFreeSpectralBasis, ip: dict):
    va = float(ip.get("velocity_amplitude", 0.2))
    ma = float(ip.get("magnetic_amplitude", 0.2))
    x, y, _ = basis.mesh()
    two_pi = 2.0 * np.pi / basis.box_size
    zeros = np.zeros_like(x)
    u = np.stack([-va * np.sin(two_pi * y), va * np.sin(two_pi * x), zeros])
    h = np.stack([-ma * np.sin(two_pi * y), ma * np.sin(2.0 * two_pi * x), zeros])
    a = basis.project_vector(u, cfg.velocity_modes)
    c = basis.project_vector(h, cfg.magnetic_modes)
    rho = _harmonic_rho_spec(
        basis,
        float(ip.get("density_mean", 1.0)),
        float(ip.get("density_amplitude", 0.0)),
        int(ip.get("density_axis", 2)),
        int(ip.get("density_wavenumber", 1)),
    )
    b = _uniform_theta(basis, cfg.temperature_modes, float(ip.get("temperature_base", 1.0)))
    return rho, a, b, c


def _master_band(band, count, amplitude, slope, rng) -> np.ndarray:
    """Leading ``count`` entries of a normalized master coefficient vector.

    The envelope (1 + j/8)^(-slope) is flat over the first shell and then
    falls steeply with the mode index, so truncation tails shrink strictly
    under refinement.
    """
    raw = rng.normal(size=band)
    master = raw * (1.0 + np.arange(band) / 8.0) ** (-slope)
    norm = np.sqrt(np.sum(master**2))
    if norm > 0 and amplitude > 0:
        master *= amplitude / norm
    else:
        master[:] = 0.0
    out = np.zeros(count)
    take = min(band, count)
    out[:take] = master[:take]
    return out


def _build_random_band(cfg: RunConfig, basis: DivFreeSpectralBasis, ip: dict):
    rng = np.random.default_rng(int(ip.get("seed", 0)))
    slope = float(ip.get("spectrum_slope", 2.0))
    band = int(ip.get("band_modes", 0)) or min(64, basis.n_vector_modes)
    a = _master_band(band, cfg.velocity_modes, float(ip.get("velocity_amplitude", 0.3)), slope, rng)
    c = _master_band(band, cfg.magnetic_modes, float(ip.get("magnetic_amplitude", 0.3)), slope, rng)

    # temperature and density perturbations use fixed master mode counts so
    # the constructed fields do not depend on the velocity truncation level
    theta_base = float(ip.get("temperature_base", 1.0))
    theta_amp = float(ip.get("temperature_amplitude", 0.0))
    n_theta = min(13, basis.n_scalar_modes)
    master_b = _uniform_theta(basis, n_theta, theta_base)
    if theta_amp > 0 and n_theta > 1:
        master_b[1:] = rng.normal(size=n_theta - 1) * (1.0 + np.arange(1, n_theta) / 8.0) ** (-slope)
        span = np.abs(basis.scalar_grid(master_b) - theta_base).max()
        if span > 0:
            master_b[1:] *= theta_amp / span
    b = np.zeros(cfg.temperature_modes)
    take = min(n_theta, cfg.temperature_modes)
    b[:take] = master_b[:take]

    rho_mean = float(ip.get("density_mean", 1.0))
    rho_amp = float(ip.get("density_amplitude", 0.0))
    rho = _uniform_rho_spec(basis, rho_mean)
    if rho_amp > 0:
        n_pert = min(13, basis.n_scalar_modes)
        coeffs = np.zeros(n_pert)
        coeffs[1:] = rng.normal(size=n_pert - 1) * (1.0 + np.arange(1, n_pert) / 8.0) ** (-slope)
        pert_spec = basis.synth_scalar(coeffs, basis.grid_points)
        span = np.abs(basis.spectral_to_grid(pert_spec)).max()
        if span > 0:
            rho = rho + pert_spec * (rho_amp / span)
    return rho, a, b, c


def _build_layered_density(cfg: RunConfig, basis: DivFreeSpectralBasis, ip: dict):
    rho = _harmonic_rho_spec(
        basis,
        float(ip.get("density_mean", 1.0)),
        float(ip.get("density_amplitude", 0.3)),
        2,
        int(ip.get("density_wavenumber", 1)),
    )
    va = float(ip.get("velocity_amplitude", 0.05))
    x, _, _ = basis.mesh()
    two_pi = 2.0 * np.pi / basis.box_size
    zeros = np.zeros_like(x)
    u = np.stack([zeros, zeros, va * np.sin(two_pi * x)])
    a = basis.project_vector(u, cfg.velocity_modes)
    c = np.zeros(cfg.magnetic_modes)
    ma = float(ip.get("magnetic_amplitude", 0.0))
    if ma:
        c[int(ip.get("magnetic_mode", 0))] = ma
    b = _uniform_theta(basis, cfg.temperature_modes, float(ip.get("temperature_base", 1.0)))
    return rho, a, b, c


_BUILDERS = {
    "single_mode": _build_single_mode,
    "orszag_tang": _build_orszag_tang,
    "random_band": _build_random_band,
    "layered_density": _build_layered_density,
}


def build_initial_state(cfg: RunConfig, basis: DivFreeSpectralBasis) -> SimState:
    """Construct, project, and admissibility-check the initial state."""
    builder = _BUILDERS.get(cfg.initial_family)
    if builder is None:
        raise ConfigError(f"unknown initial family {cfg.initial_family!r}")
    rho, a, b, c = builder(cfg, basis, cfg.initial_params)
    state = SimState(t=0.0, rho=rho, a=a, b=b, c=c, basis=basis)

    p = cfg.constitutive
    rho_grid = basis.spectral_to_grid(rho)
    problems = []
    if rho_grid.min() < p.density_min - 1e-12 or rho_grid.max() > p.density_max + 1e-12:
        problems.append(
            f"initial density range [{rho_grid.min():.6g}, {rho_grid.max():.6g}] leaves "
            f"[{p.density_min}, {p.density_max}]"
        )
    theta_grid = basis.scalar_grid(b)
    if theta_grid.min() < p.temperature_floor - 1e-12:
        problems.append(
            f"initial temperature min {theta_grid.min():.6g} below the floor {p.temperature_floor}"
        )
    if not state.is_finite():
        problems.append("non-finite initial data")
    if problems:
        raise ConfigError("\n".join(problems))
    return state
