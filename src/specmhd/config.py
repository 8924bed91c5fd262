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

Loading fills every missing key from the defaults of ``RunConfig`` and the
dataclasses it holds (except that ``temperature_modes`` defaults to
``velocity_modes + 1`` and ``magnetic_modes`` to ``velocity_modes``), and
``validate_config`` reports every violated admissibility condition at once.
It is the one validator: every loaded file, every ``RunConfig`` built in code
that reaches :func:`specmhd.harness.run`, and every sweep cell goes through
it.  The rule for which mode counts a grid resolves lives in
:func:`specmhd.spectral.resolution_problems`.  ``serialize_config`` emits
canonical text whose reload compares equal, which is what the round-trip
contract requires.
"""

from __future__ import annotations

import configparser
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from specmhd.constitutive import ConstitutiveParams, validate_params
from specmhd.errors import ConfigError
from specmhd.integrator import StepConfig
from specmhd.spectral import dealias_cutoff, resolution_problems

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


def _section_keys(cls) -> dict:
    """The keys of a config section held by a dataclass: its fields, each
    parsed as the type of its default."""
    return {f.name: type(f.default) for f in fields(cls)}


_CONSTITUTIVE_KEYS = _section_keys(ConstitutiveParams)
_STEP_KEYS = _section_keys(StepConfig)
_SECTIONS = ("constitutive", "domain", "truncation", "step", "initial", "output", "sweep")


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
    return _load_text(path.read_text(), str(path))


def load_config_text(text: str) -> RunConfig:
    return _load_text(text, "config text")


def _load_text(text: str, origin: str) -> RunConfig:
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {origin}: {exc}") from exc
    return config_from_parser(parser)


def config_from_parser(parser: configparser.ConfigParser) -> RunConfig:
    """Read each section into a RunConfig and validate it; raise one
    ConfigError naming every unparsable value and violated condition."""
    errors = [f"unknown section [{sec}]" for sec in parser.sections() if sec not in _SECTIONS]
    default = RunConfig()

    def read(section: str, keys: dict) -> dict:
        out = {}
        if not parser.has_section(section):
            return out
        for key, raw in parser.items(section):
            if key not in keys:
                errors.append(f"unknown key {key!r} in section [{section}]")
                continue
            typ = keys[key]
            raw = raw.strip()
            try:
                if typ is bool and raw.lower() not in ("true", "false"):
                    raise ValueError(raw)
                out[key] = raw.lower() == "true" if typ is bool else typ(raw)
            except ValueError:
                errors.append(f"key {key!r} in [{section}]: cannot parse {raw!r} as {typ.__name__}")
        return out

    dom = read("domain", {"box_size": float, "grid_points": int})
    box_size = dom.get("box_size", default.box_size)
    grid_points = dom.get("grid_points", default.grid_points)

    tr = read(
        "truncation",
        {"velocity_modes": int, "temperature_modes": int, "magnetic_modes": int,
         "density_regularization": str},
    )
    velocity_modes = tr.get("velocity_modes", default.velocity_modes)
    eps = default.density_regularization
    eps_raw = tr.get("density_regularization")
    if eps_raw == "auto":
        if grid_points > 0:  # any other grid is reported by validate_config
            eps = auto_density_regularization(box_size, grid_points)
    elif eps_raw is not None:
        try:
            eps = float(eps_raw)
        except ValueError:
            errors.append(f"density_regularization must be a number or 'auto' (got {eps_raw!r})")

    initial_family = default.initial_family
    initial_params: dict = {}
    if parser.has_section("initial"):
        for key, raw in parser.items("initial"):
            if key == "family":
                initial_family = raw.strip()
            else:
                initial_params[key] = _parse_scalar(raw)

    out = read("output", {"directory": str, "cadence": int, "snapshots": bool})

    sweep = read("sweep", {"kind": str, "values": str})
    sweep_kind = sweep.get("kind", default.sweep_kind)
    sweep_values = default.sweep_values
    if sweep.get("values"):
        typ = int if sweep_kind == "modes" else float
        try:
            sweep_values = tuple(typ(v) for v in sweep["values"].split(","))
        except ValueError:
            errors.append(f"cannot parse sweep values {sweep['values']!r}")

    cfg = RunConfig(
        constitutive=ConstitutiveParams(**read("constitutive", _CONSTITUTIVE_KEYS)),
        box_size=box_size,
        grid_points=grid_points,
        velocity_modes=velocity_modes,
        temperature_modes=tr.get("temperature_modes", velocity_modes + 1),
        magnetic_modes=tr.get("magnetic_modes", velocity_modes),
        density_regularization=eps,
        step=StepConfig(**read("step", _STEP_KEYS)),
        initial_family=initial_family,
        initial_params=initial_params,
        output_directory=out.get("directory", default.output_directory),
        cadence=out.get("cadence", default.cadence),
        snapshots=out.get("snapshots", default.snapshots),
        sweep_kind=sweep_kind,
        sweep_values=sweep_values,
    )
    errors.extend(validate_config(cfg))
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def sweep_cells(cfg: RunConfig) -> list[RunConfig]:
    """The runs of a sweep, one per value: the config with that
    [truncation] setting replaced, and with no sweep, output directory or
    snapshots of its own."""
    cells = []
    for v in cfg.sweep_values:
        if cfg.sweep_kind == "modes":
            k = int(v)
            change = {"velocity_modes": k, "magnetic_modes": k, "temperature_modes": k + 1}
        else:
            change = {"density_regularization": float(v)}
        cells.append(
            replace(cfg, **change, sweep_kind="", sweep_values=(), output_directory="", snapshots=False)
        )
    return cells


def validate_config(cfg: RunConfig) -> list[str]:
    """Every violated admissibility condition of a run configuration, one
    message each (empty when admissible).  A sweep's cells are checked as the
    runs they become; their problems that the base config does not share
    are prefixed with ``sweep value {v}: ``."""
    bad = validate_params(cfg.constitutive)
    bad += resolution_problems(
        cfg.box_size,
        cfg.grid_points,
        vector={"velocity_modes": cfg.velocity_modes, "magnetic_modes": cfg.magnetic_modes},
        scalar={"temperature_modes": cfg.temperature_modes},
    )
    if not cfg.density_regularization >= 0:
        bad.append(f"density_regularization must be nonnegative (got {cfg.density_regularization})")
    bad += cfg.step.validate()
    if cfg.cadence < 1:
        bad.append(f"cadence must be at least 1 (got {cfg.cadence})")
    bad += _validate_initial(cfg)
    if cfg.sweep_kind and cfg.sweep_kind not in SWEEP_KINDS:
        bad.append(f"unknown sweep kind {cfg.sweep_kind!r}; options {SWEEP_KINDS}")
    elif cfg.sweep_kind:
        for v, cell in zip(cfg.sweep_values, sweep_cells(cfg)):
            bad += [f"sweep value {v}: {msg}" for msg in validate_config(cell) if msg not in bad]
    return bad


def _validate_initial(cfg: RunConfig) -> list[str]:
    """The [initial] family and keys, and the admissibility of the initial
    data implied by the family parameters."""
    allowed = _INITIAL_KEYS.get(cfg.initial_family)
    if allowed is None:
        return [f"unknown initial family {cfg.initial_family!r}; options {tuple(_INITIAL_KEYS)}"]
    ip = cfg.initial_params
    bad = [
        f"unknown key {key!r} in section [initial] for family {cfg.initial_family!r}; "
        f"allowed keys {sorted(allowed)}"
        for key in ip
        if key not in allowed
    ]
    not_numbers = {key: value for key, value in ip.items() if not isinstance(value, numbers.Real)}
    bad += [f"key {key!r} in [initial] must be a number (got {value!r})" for key, value in not_numbers.items()]
    if not_numbers:
        return bad
    p = cfg.constitutive
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
    if ip.get("band_modes", 0) < 0:
        bad.append(f"band_modes={ip['band_modes']} must be nonnegative (0 picks the default band)")
    if "density_axis" in ip and ip["density_axis"] not in (0, 1, 2):
        bad.append(f"density_axis={ip['density_axis']} is not an axis (0, 1 or 2)")
    if "density_wavenumber" in ip:
        wavenumber, cutoff = int(ip["density_wavenumber"]), dealias_cutoff(cfg.grid_points)
        if not 1 <= wavenumber <= cutoff:
            bad.append(
                f"density_wavenumber={wavenumber} outside 1..{cutoff}, the dealiasing cutoff "
                f"at grid_points={cfg.grid_points}"
            )
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

