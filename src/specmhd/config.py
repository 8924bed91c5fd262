"""Run configuration: a sectioned key-value text format (INI syntax) mapped
onto validated dataclasses.

Sections and keys mirror the solver blocks:

``[constitutive]``
    power_law_exponent, conductivity_exponent, stress_smoothing,
    magnetic_diffusivity, viscosity_min/max, conductivity_min/max,
    specific_heat_min/max, density_min/max, temperature_floor,
    viscosity_form, conductivity_form, specific_heat_form
``[domain]``
    box_size, grid_points
``[truncation]``
    velocity_modes, temperature_modes, magnetic_modes,
    density_regularization (a number, or ``auto`` for 0.25 (L/N)^2)
``[step]``
    dt, t_end, scheme, solver_tolerance, max_nonlinear_iterations,
    theta_clamp
``[initial]``
    family plus family-specific keys (amplitudes, mode indices, seed)
``[output]``
    directory, cadence, snapshots
``[sweep]`` (optional)
    kind (modes | density_regularization), values (comma separated)

Loading fills defaults, validates every admissibility condition, and reports
all violations at once.  ``serialize_config`` emits canonical text whose
reload compares equal, which is what the round-trip contract requires.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from specmhd.constitutive import ConstitutiveParams, validate_params
from specmhd.errors import ConfigError
from specmhd.integrator import StepConfig
from specmhd.spectral import available_modes

CONFIG_SCHEMA_VERSION = "2"

# The [initial] keys each family's builder in initial_conditions reads.  Every
# family accepts ``seed``: a run started with a seed writes it into the config
# copy in its output directory, and that copy must reload.
_HARMONIC_DENSITY_KEYS = {"density_mean", "density_amplitude", "density_axis", "density_wavenumber"}
_INITIAL_KEYS = {
    "single_mode": {"seed", "velocity_amplitude", "velocity_mode", "magnetic_amplitude",
                    "magnetic_mode", "temperature_base", *_HARMONIC_DENSITY_KEYS},
    "orszag_tang": {"seed", "velocity_amplitude", "magnetic_amplitude", "temperature_base",
                    *_HARMONIC_DENSITY_KEYS},
    "random_band": {"seed", "velocity_amplitude", "magnetic_amplitude", "temperature_base",
                    "temperature_amplitude", "density_mean", "density_amplitude",
                    "spectrum_slope", "band_modes"},
    "layered_density": {"seed", "velocity_amplitude", "magnetic_amplitude", "magnetic_mode",
                        "temperature_base", "density_mean", "density_amplitude",
                        "density_wavenumber"},
}
SWEEP_KINDS = ("modes", "density_regularization")


@dataclass
class RunConfig:
    constitutive: ConstitutiveParams = field(default_factory=ConstitutiveParams)
    box_size: float = 2.0 * np.pi
    grid_points: int = 16
    velocity_modes: int = 12
    temperature_modes: int = 13
    magnetic_modes: int = 12
    density_regularization: float = 0.0
    step: StepConfig = field(default_factory=StepConfig)
    initial_family: str = "single_mode"
    initial_params: dict = field(default_factory=dict)
    output_directory: str = ""
    cadence: int = 1
    snapshots: bool = False
    sweep_kind: str = ""
    sweep_values: tuple = ()


_CONSTITUTIVE_KEYS = {
    "power_law_exponent": float,
    "conductivity_exponent": float,
    "stress_smoothing": float,
    "magnetic_diffusivity": float,
    "viscosity_min": float,
    "viscosity_max": float,
    "conductivity_min": float,
    "conductivity_max": float,
    "specific_heat_min": float,
    "specific_heat_max": float,
    "density_min": float,
    "density_max": float,
    "temperature_floor": float,
    "viscosity_form": str,
    "conductivity_form": str,
    "specific_heat_form": str,
}

_STEP_KEYS = {
    "dt": float,
    "t_end": float,
    "scheme": str,
    "solver_tolerance": float,
    "max_nonlinear_iterations": int,
    "theta_clamp": str,
}


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def auto_density_regularization(box_size: float, grid_points: int) -> float:
    """Grid-scaled default for the density diffusion: 0.25 (L/N)^2."""
    return 0.25 * (box_size / grid_points) ** 2


def load_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        parser.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    return config_from_parser(parser)


def config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    errors: list[str] = []
    known_sections = {"constitutive", "domain", "truncation", "step", "initial", "output", "sweep"}
    for sec in parser.sections():
        if sec not in known_sections:
            errors.append(f"unknown section [{sec}]")

    def read(section: str, keys: dict) -> dict:
        out = {}
        if not parser.has_section(section):
            return out
        for key, raw in parser.items(section):
            if key not in keys:
                errors.append(f"unknown key {key!r} in section [{section}]")
                continue
            typ = keys[key]
            try:
                out[key] = typ(raw) if typ is not str else raw.strip()
            except ValueError:
                errors.append(f"key {key!r} in [{section}]: cannot parse {raw!r} as {typ.__name__}")
        return out

    cst_kwargs = read("constitutive", _CONSTITUTIVE_KEYS)
    params = ConstitutiveParams(**cst_kwargs)
    errors.extend(validate_params(params))

    dom = read("domain", {"box_size": float, "grid_points": int})
    box_size = dom.get("box_size", 2.0 * np.pi)
    grid_points = dom.get("grid_points", 16)
    if grid_points < 4 or grid_points % 2 != 0:
        errors.append(f"grid_points must be an even integer >= 4 (got {grid_points})")
    if box_size <= 0:
        errors.append(f"box_size must be positive (got {box_size})")

    tr = read(
        "truncation",
        {
            "velocity_modes": int,
            "temperature_modes": int,
            "magnetic_modes": int,
            "density_regularization": str,
        },
    )
    velocity_modes = tr.get("velocity_modes", 12)
    temperature_modes = tr.get("temperature_modes", velocity_modes + 1)
    magnetic_modes = tr.get("magnetic_modes", velocity_modes)
    eps_raw = tr.get("density_regularization", "0.0")
    if eps_raw == "auto":
        eps = auto_density_regularization(box_size, grid_points)
    else:
        try:
            eps = float(eps_raw)
        except ValueError:
            errors.append(f"density_regularization must be a number or 'auto' (got {eps_raw!r})")
            eps = 0.0
    if eps < 0:
        errors.append(f"density_regularization must be nonnegative (got {eps})")
    n_vec, n_scal = available_modes(grid_points)
    for name, want, avail in (
        ("velocity_modes", velocity_modes, n_vec),
        ("magnetic_modes", magnetic_modes, n_vec),
        ("temperature_modes", temperature_modes, n_scal),
    ):
        if want < 1:
            errors.append(f"{name} must be at least 1 (got {want})")
        elif want > avail:
            errors.append(
                f"insufficient resolution: {name}={want} but only {avail} modes fit "
                f"under the dealiasing cutoff at grid_points={grid_points}"
            )

    step_kwargs = read("step", _STEP_KEYS)
    step = StepConfig(**step_kwargs)
    errors.extend(step.validate())

    initial_family = "single_mode"
    initial_params: dict = {}
    if parser.has_section("initial"):
        for key, raw in parser.items("initial"):
            if key == "family":
                initial_family = raw.strip()
            else:
                initial_params[key] = _parse_scalar(raw)
    allowed = _INITIAL_KEYS.get(initial_family)
    if allowed is None:
        errors.append(f"unknown initial family {initial_family!r}; options {tuple(_INITIAL_KEYS)}")
    else:
        for key in initial_params:
            if key not in allowed:
                errors.append(
                    f"unknown key {key!r} in section [initial] for family {initial_family!r}; "
                    f"allowed keys {sorted(allowed)}"
                )

    out = read("output", {"directory": str, "cadence": int, "snapshots": str})
    directory = out.get("directory", "")
    cadence = out.get("cadence", 1)
    snapshots_raw = out.get("snapshots", "false")
    if str(snapshots_raw).lower() not in ("true", "false"):
        errors.append(f"snapshots must be true or false (got {snapshots_raw!r})")
    snapshots = str(snapshots_raw).lower() == "true"
    if cadence < 1:
        errors.append(f"cadence must be at least 1 (got {cadence})")

    sweep_kind = ""
    sweep_values: tuple = ()
    if parser.has_section("sweep"):
        sweep_kind = parser.get("sweep", "kind", fallback="").strip()
        if sweep_kind and sweep_kind not in SWEEP_KINDS:
            errors.append(f"unknown sweep kind {sweep_kind!r}; options {SWEEP_KINDS}")
        raw_vals = parser.get("sweep", "values", fallback="").strip()
        if raw_vals:
            try:
                if sweep_kind == "modes":
                    sweep_values = tuple(int(v) for v in raw_vals.split(","))
                else:
                    sweep_values = tuple(float(v) for v in raw_vals.split(","))
            except ValueError:
                errors.append(f"cannot parse sweep values {raw_vals!r}")
        for key, _ in parser.items("sweep"):
            if key not in ("kind", "values"):
                errors.append(f"unknown key {key!r} in section [sweep]")
        # each cell is a run with one [truncation] setting replaced
        for v in sweep_values:
            if sweep_kind == "modes" and not 1 <= v <= min(n_vec, n_scal - 1):
                errors.append(
                    f"sweep value {v}: a modes cell needs 1 <= {v} <= {n_vec} vector modes and "
                    f"{v + 1} <= {n_scal} temperature modes at grid_points={grid_points}"
                )
            elif sweep_kind == "density_regularization" and v < 0:
                errors.append(f"sweep value {v}: density_regularization must be nonnegative")

    cfg = RunConfig(
        constitutive=params,
        box_size=box_size,
        grid_points=grid_points,
        velocity_modes=velocity_modes,
        temperature_modes=temperature_modes,
        magnetic_modes=magnetic_modes,
        density_regularization=eps,
        step=step,
        initial_family=initial_family,
        initial_params=initial_params,
        output_directory=directory,
        cadence=cadence,
        snapshots=snapshots,
        sweep_kind=sweep_kind,
        sweep_values=sweep_values,
    )
    errors.extend(_validate_initial(cfg))
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def _validate_initial(cfg: RunConfig) -> list[str]:
    """Admissibility of the initial data implied by the family parameters."""
    bad = []
    p = cfg.constitutive
    ip = cfg.initial_params
    theta_base = float(ip.get("temperature_base", 1.0))
    theta_amp = abs(float(ip.get("temperature_amplitude", 0.0)))
    if theta_base - theta_amp < p.temperature_floor:
        bad.append(
            f"initial temperature must stay at or above temperature_floor="
            f"{p.temperature_floor} (base {theta_base} minus amplitude {theta_amp})"
        )
    rho_mean = float(ip.get("density_mean", 1.0))
    rho_amp = abs(float(ip.get("density_amplitude", 0.0)))
    if rho_mean - rho_amp < p.density_min or rho_mean + rho_amp > p.density_max:
        bad.append(
            f"initial density must stay within [{p.density_min}, {p.density_max}] "
            f"(mean {rho_mean}, amplitude {rho_amp})"
        )
    for key in ("velocity_mode", "magnetic_mode"):
        if key in ip:
            idx = int(ip[key])
            limit = cfg.velocity_modes if key == "velocity_mode" else cfg.magnetic_modes
            if not 0 <= idx < limit:
                bad.append(f"{key}={idx} outside the truncation (0..{limit - 1})")
    return bad


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; reloading it yields an equal RunConfig."""
    lines = [f"# specmhd configuration (schema {CONFIG_SCHEMA_VERSION})", ""]
    lines.append("[constitutive]")
    for key in _CONSTITUTIVE_KEYS:
        lines.append(f"{key} = {_format_scalar(getattr(cfg.constitutive, key))}")
    lines += ["", "[domain]"]
    lines.append(f"box_size = {_format_scalar(cfg.box_size)}")
    lines.append(f"grid_points = {cfg.grid_points}")
    lines += ["", "[truncation]"]
    lines.append(f"velocity_modes = {cfg.velocity_modes}")
    lines.append(f"temperature_modes = {cfg.temperature_modes}")
    lines.append(f"magnetic_modes = {cfg.magnetic_modes}")
    lines.append(f"density_regularization = {_format_scalar(cfg.density_regularization)}")
    lines += ["", "[step]"]
    for key in _STEP_KEYS:
        lines.append(f"{key} = {_format_scalar(getattr(cfg.step, key))}")
    lines += ["", "[initial]"]
    lines.append(f"family = {cfg.initial_family}")
    for key in sorted(cfg.initial_params):
        lines.append(f"{key} = {_format_scalar(cfg.initial_params[key])}")
    lines += ["", "[output]"]
    lines.append(f"directory = {cfg.output_directory}")
    lines.append(f"cadence = {cfg.cadence}")
    lines.append(f"snapshots = {_format_scalar(cfg.snapshots)}")
    if cfg.sweep_kind:
        lines += ["", "[sweep]"]
        lines.append(f"kind = {cfg.sweep_kind}")
        lines.append("values = " + ",".join(_format_scalar(v) for v in cfg.sweep_values))
    return "\n".join(lines) + "\n"


def load_config_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    parser.read_string(text)
    return config_from_parser(parser)
