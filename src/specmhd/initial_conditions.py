"""Named analytic initial-condition families.

Each family documents its closed form; all fields are band-limited to the
basis cutoff by construction, so the spectral projection onto the retained
modes is exact.  The density and temperature are written as scalar
coefficients directly, the density over the whole scalar table.

``FAMILIES`` declares each family's ``[initial]`` keys and defaults (a key's
type is the type of its default); the config validator reads it, and the
builders merge in its defaults themselves through :func:`family_params`.
They read configs that :func:`specmhd.config.validate_config` has accepted
(known family, keys of the right type, mode indices inside the truncation,
density wavenumber under the cutoff); the temperature floor is checked here
on the grid, the density bounds and finiteness by
:func:`specmhd.integrator.integrate`, on the realization from which it also
takes ``rho_min_initial`` and ``rho_max_initial``.

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

from typing import TYPE_CHECKING

import numpy as np

from specmhd.errors import ConfigError
from specmhd.galerkin import SimState
from specmhd.spectral import DivFreeSpectralBasis

if TYPE_CHECKING:
    from specmhd.config import RunConfig

# Every family accepts ``seed``: a run started with a seed writes it into the
# config copy in its output directory, and that copy must reload.
_HARMONIC_DENSITY = {"density_mean": 1.0, "density_amplitude": 0.0, "density_axis": 2, "density_wavenumber": 1}
FAMILIES = {
    "single_mode": {"seed": 0, "velocity_amplitude": 0.0, "velocity_mode": 0, "magnetic_amplitude": 0.0,
                    "magnetic_mode": 0, "temperature_base": 1.0, **_HARMONIC_DENSITY},
    "orszag_tang": {"seed": 0, "velocity_amplitude": 0.2, "magnetic_amplitude": 0.2, "temperature_base": 1.0,
                    **_HARMONIC_DENSITY},
    "random_band": {"seed": 0, "velocity_amplitude": 0.3, "magnetic_amplitude": 0.3, "temperature_base": 1.0,
                    "temperature_amplitude": 0.0, "density_mean": 1.0, "density_amplitude": 0.0,
                    "spectrum_slope": 2.0, "band_modes": 0},
    "layered_density": {"seed": 0, "velocity_amplitude": 0.05, "magnetic_amplitude": 0.0, "magnetic_mode": 0,
                        "temperature_base": 1.0, "density_mean": 1.0, "density_amplitude": 0.3,
                        "density_wavenumber": 1},
}


def family_params(cfg: RunConfig) -> dict:
    """The config's ``[initial]`` values over its family's defaults."""
    return {**FAMILIES[cfg.initial_family], **cfg.initial_params}


def _constant_scalar(basis: DivFreeSpectralBasis, count: int, value: float) -> np.ndarray:
    """The first ``count`` scalar coefficients of the constant ``value``."""
    b = np.zeros(count)
    b[0] = value * np.sqrt(basis.volume)
    return b


def harmonic_density(basis: DivFreeSpectralBasis, ip: dict, axis: int) -> np.ndarray:
    """Coefficients of ``density_mean + density_amplitude cos(2 pi
    density_wavenumber x_axis / L)`` over the whole scalar table, from the
    ``[initial]`` values ``ip``."""
    rho = _constant_scalar(basis, basis.n_scalar_modes, ip["density_mean"])
    n = [0, 0, 0]
    n[axis] = ip["density_wavenumber"]
    rho[basis.cosine_mode(n)] = ip["density_amplitude"] * np.sqrt(0.5 * basis.volume)
    return rho


def _build_single_mode(cfg: RunConfig, basis: DivFreeSpectralBasis, ip: dict):
    a = np.zeros(cfg.velocity_modes)
    c = np.zeros(cfg.magnetic_modes)
    if ip["velocity_amplitude"]:
        a[ip["velocity_mode"]] = ip["velocity_amplitude"]
    if ip["magnetic_amplitude"]:
        c[ip["magnetic_mode"]] = ip["magnetic_amplitude"]
    rho = harmonic_density(basis, ip, ip["density_axis"])
    b = _constant_scalar(basis, cfg.temperature_modes, ip["temperature_base"])
    return rho, a, b, c


def _build_orszag_tang(cfg: RunConfig, basis: DivFreeSpectralBasis, ip: dict):
    va, ma = ip["velocity_amplitude"], ip["magnetic_amplitude"]
    x, y, _ = basis.mesh()
    two_pi = 2.0 * np.pi / basis.box_size
    zeros = np.zeros_like(x)
    u = np.stack([-va * np.sin(two_pi * y), va * np.sin(two_pi * x), zeros])
    h = np.stack([-ma * np.sin(two_pi * y), ma * np.sin(2.0 * two_pi * x), zeros])
    a = basis.project_vector(u, cfg.velocity_modes)
    c = basis.project_vector(h, cfg.magnetic_modes)
    rho = harmonic_density(basis, ip, ip["density_axis"])
    b = _constant_scalar(basis, cfg.temperature_modes, ip["temperature_base"])
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


def _scalar_perturbation(basis, n, base, amplitude, slope, rng) -> np.ndarray:
    """The first ``n`` scalar coefficients of ``base`` plus seeded draws
    under the envelope (1 + j/8)^(-slope), scaled so that the largest grid
    excursion from ``base`` is ``amplitude``; no draws when it is 0."""
    out = _constant_scalar(basis, n, base)
    if amplitude > 0 and n > 1:
        out[1:] = rng.normal(size=n - 1) * (1.0 + np.arange(1, n) / 8.0) ** (-slope)
        span = np.abs(basis.scalar_grid(out) - base).max()
        if span > 0:
            out[1:] *= amplitude / span
    return out


def _build_random_band(cfg: RunConfig, basis: DivFreeSpectralBasis, ip: dict):
    rng = np.random.default_rng(ip["seed"])
    slope = ip["spectrum_slope"]
    band = ip["band_modes"] or min(64, basis.n_vector_modes)
    a = _master_band(band, cfg.velocity_modes, ip["velocity_amplitude"], slope, rng)
    c = _master_band(band, cfg.magnetic_modes, ip["magnetic_amplitude"], slope, rng)

    # temperature and density perturbations use fixed master mode counts so
    # the constructed fields do not depend on the velocity truncation level
    n_pert = min(13, basis.n_scalar_modes)
    master_b = _scalar_perturbation(basis, n_pert, ip["temperature_base"], ip["temperature_amplitude"], slope, rng)
    b = np.zeros(cfg.temperature_modes)
    take = min(n_pert, cfg.temperature_modes)
    b[:take] = master_b[:take]
    rho = _constant_scalar(basis, basis.n_scalar_modes, ip["density_mean"])
    rho[1:n_pert] = _scalar_perturbation(basis, n_pert, 0.0, ip["density_amplitude"], slope, rng)[1:]
    return rho, a, b, c


def _build_layered_density(cfg: RunConfig, basis: DivFreeSpectralBasis, ip: dict):
    rho = harmonic_density(basis, ip, 2)
    x, _, _ = basis.mesh()
    two_pi = 2.0 * np.pi / basis.box_size
    zeros = np.zeros_like(x)
    u = np.stack([zeros, zeros, ip["velocity_amplitude"] * np.sin(two_pi * x)])
    a = basis.project_vector(u, cfg.velocity_modes)
    c = np.zeros(cfg.magnetic_modes)
    if ip["magnetic_amplitude"]:
        c[ip["magnetic_mode"]] = ip["magnetic_amplitude"]
    b = _constant_scalar(basis, cfg.temperature_modes, ip["temperature_base"])
    return rho, a, b, c


_BUILDERS = {
    "single_mode": _build_single_mode,
    "orszag_tang": _build_orszag_tang,
    "random_band": _build_random_band,
    "layered_density": _build_layered_density,
}


def build_initial_state(cfg: RunConfig, basis: DivFreeSpectralBasis) -> SimState:
    """Construct and project the initial state of a validated config, and
    check it against the temperature floor.  Its finiteness and density
    range are checked by :func:`specmhd.integrator.integrate`, on the
    realization that also sets ``rho_min_initial`` and ``rho_max_initial``."""
    rho, a, b, c = _BUILDERS[cfg.initial_family](cfg, basis, family_params(cfg))
    theta_min = basis.scalar_grid(b).min()
    floor = cfg.constitutive.temperature_floor
    if theta_min < floor - 1e-12:
        raise ConfigError(f"initial temperature min {theta_min:.6g} below the floor {floor}")
    return SimState(t=0.0, rho=rho, a=a, b=b, c=c, basis=basis)
